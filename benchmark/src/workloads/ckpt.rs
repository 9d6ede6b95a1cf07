//! `ckpt2000_16node`: the increment stress supervised by the
//! [`RecoveryManager`] at a 2000-cycle checkpoint interval, fault-free,
//! so every cycle beyond the unsupervised run is checkpoint cost.

use super::loops::{check_words, place_words, seeded_values};
use super::{footprint_layers, run_machine, stats_layers, Batch, Layers, Opts, Outcome};
use crate::measure::{digest, median, quiet_s, Stopwatch};
use crate::trace::Tracer;
use april_core::isa::asm::assemble;
use april_core::program::Program;
use april_machine::driver::{drive_sequential_until, SwitchSpin};
use april_machine::watchdog::WatchdogConfig;
use april_machine::{
    Alewife, Machine, MachineConfig, RecoveryConfig, RecoveryManager, RecoveryReport, Topology,
};
use april_mem::{CtlConfig, DirConfig, RetryConfig};
use std::time::Instant;

const INTERVAL: u64 = 2000;

pub struct Ckpt {
    iters: u32,
    values: Vec<i32>,
}

pub fn ckpt(o: &Opts) -> Ckpt {
    Ckpt {
        iters: if o.smoke { 30 } else { 800 },
        values: seeded_values(o.seed, 16),
    }
}

/// The recovery suites' machine: retransmission and the watchdog on,
/// as a supervised production run would have them.
fn config() -> MachineConfig {
    let retry = RetryConfig {
        enabled: true,
        timeout: 50,
        backoff_cap: 200,
        max_retries: 5,
    };
    MachineConfig {
        topology: Topology::new(2, 4),
        ctl: CtlConfig {
            retry,
            ..CtlConfig::default()
        },
        dir: DirConfig {
            retry,
            ..DirConfig::default()
        },
        watchdog: WatchdogConfig {
            enabled: true,
            horizon: 50_000,
        },
        ..MachineConfig::default()
    }
}

impl Ckpt {
    /// Every node increments its own word of a falsely shared region
    /// (no flush in the loop: lines migrate by invalidation), then
    /// writes its line back so memory holds the result.
    fn program(&self) -> Program {
        assemble(&format!(
            "
            .entry main
            main:
                ldio 1, r8         ; node id (fixnum == 4*id: byte offset!)
                movi 0x200, r9
                add r9, r8, r9     ; my word within the shared region
                movi {}, r10
            loop:
                ld r9+0, r11
                add r11, 4, r11
                st r11, r9+0
                sub r10, 1, r10
                jne loop
                nop
                flush r9+0
                halt
            ",
            self.iters
        ))
        .expect("stress program assembles")
    }

    fn booted(&self, tr: &mut Tracer) -> Alewife {
        let span = tr.begin("core.assemble");
        let prog = self.program();
        tr.end(span);
        let span = tr.begin("machine.construct");
        let mut m = Alewife::new(config(), prog);
        tr.end(span);
        let span = tr.begin("machine.boot");
        place_words(m.mem_mut(), &self.values);
        m.boot_all();
        tr.end(span);
        m
    }
}

impl Batch for Ckpt {
    type Ready = Alewife;
    type Done = (Alewife, RecoveryReport);

    fn setup(&self, tr: &mut Tracer) -> Alewife {
        self.booted(tr)
    }

    fn run(&self, mut m: Alewife, tr: &mut Tracer) -> (Alewife, RecoveryReport) {
        let mut mgr = RecoveryManager::new(RecoveryConfig {
            checkpoint_interval: INTERVAL,
            ring_capacity: 4,
            max_attempts: 4,
            max_cycles: 100_000_000,
        });
        let span = tr.begin("machine.recovery.run");
        let report = mgr.run(&mut m, &SwitchSpin::default());
        tr.end(span);
        (m, report)
    }

    fn check(
        &self,
        (m, report): (Alewife, RecoveryReport),
        tr: &mut Tracer,
        layers: &mut Layers,
    ) -> Outcome {
        let json = stats_layers(&m.stats_report(), tr, layers);
        footprint_layers(m.nodes.iter(), m.mem(), layers);
        layers.put(
            "machine.recovery.checkpoints",
            report.checkpoints_taken as f64,
        );
        let failure = if !report.recovered {
            Some(format!("supervised run failed: {:?}", report.failure))
        } else if report.attempts != 0 {
            Some(format!(
                "fault-free run rolled back {} times",
                report.attempts
            ))
        } else {
            check_words(m.mem(), &self.values, self.iters)
        };
        Outcome {
            nodes: m.num_procs(),
            cycles: m.now(),
            instrs: m.total_stats().instructions,
            digest: digest(json.as_bytes()),
            failure,
        }
    }

    /// The unsupervised run the overhead is measured against, and the
    /// cost of one checkpoint and one restore at a protocol-busy cut.
    fn extras(&self, supervised_wall_s: f64, layers: &mut Layers) {
        let mut off = Tracer::off();
        let mut walls = Vec::new();
        let mut cycles = 0;
        for _ in 0..10 {
            let m = self.booted(&mut off);
            let watch = Stopwatch::start();
            let m = run_machine(m, &mut off);
            walls.push(watch.stop());
            cycles = m.now();
        }
        let unsupervised = quiet_s(&walls);
        layers.put(
            "machine.recovery.unsupervised_cycles_per_s",
            cycles as f64 / unsupervised,
        );
        layers.put(
            "machine.recovery.overhead_share",
            supervised_wall_s / unsupervised - 1.0,
        );

        let mut m = self.booted(&mut off);
        drive_sequential_until(&mut m, &SwitchSpin::default(), cycles / 2, cycles);
        let snap = m.checkpoint().expect("checkpoint");
        let mut encode_raw_ms = Vec::new();
        let mut restore_raw_ms = Vec::new();
        let watch = Stopwatch::start();
        for _ in 0..5 {
            let t0 = Instant::now();
            std::hint::black_box(m.checkpoint().expect("checkpoint"));
            encode_raw_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let mut fresh = Alewife::new(config(), self.program());
            let t0 = Instant::now();
            fresh.restore(&snap).expect("restore");
            restore_raw_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        let factor = watch.stop().factor();
        let encode_ms = median(&encode_raw_ms) * factor;
        let bytes = snap.as_bytes().len() as f64;
        layers.put("machine.snapshot.bytes", bytes);
        layers.put("machine.snapshot.checkpoint_ms", encode_ms);
        layers.put(
            "machine.snapshot.restore_ms",
            median(&restore_raw_ms) * factor,
        );
        layers.put(
            "machine.snapshot.encode_mb_per_s",
            bytes / 1e6 / (encode_ms / 1e3),
        );
    }
}
