//! Records the compiler that builds the harness, for the provenance
//! stamped on every output.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    println!("cargo:rustc-env=APRIL_BENCH_RUSTC={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
