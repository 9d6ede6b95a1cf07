//! Host memory of the paper's machine: Table 4's 8,000 processors in a
//! three-dimensional mesh of radix 20 (§8), with `LimitedPtr{8}`
//! directories, construct and boot within a bounded peak resident set.
//! The bound holds because an untouched cache, memory chunk or
//! directory costs next to nothing (DESIGN.md §14).
//!
//! This file holds one test so that its process's peak resident set
//! (`VmHWM`) is this machine's alone. Release only (`scripts/ci.sh`
//! runs it): a debug build's construction is slow, and its allocation
//! pattern is not the one that ships.

use april_machine::alewife::Alewife;
use april_machine::config::MachineConfig;
use april_machine::Machine;
use april_mem::directory::DirectoryKind;
use april_net::topology::Topology;

/// Peak resident set of this process in MiB, from `/proc/self/status`.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .expect("a VmHWM line");
    kb / 1024.0
}

#[test]
#[cfg(target_os = "linux")]
#[cfg_attr(debug_assertions, ignore)]
fn the_paper_mesh_constructs_and_boots_in_150_mib() {
    let mut cfg = MachineConfig {
        topology: Topology::new(3, 20),
        region_bytes: 0x1_0000,
        ..MachineConfig::default()
    };
    cfg.dir.kind = DirectoryKind::LimitedPtr { ptrs: 8 };
    let prog = april_core::isa::asm::assemble(".entry main\nmain:\n    halt\n").unwrap();
    let t0 = std::time::Instant::now();
    let mut m = Alewife::new(cfg, prog);
    m.boot_all();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(m.num_procs(), 8000);
    let mib = peak_rss_mib();
    println!("8,000-node machine: constructed and booted in {ms:.1} ms, VmHWM {mib:.1} MiB");
    assert!(mib <= 150.0, "peak resident set {mib:.1} MiB > 150 MiB");
}
