//! The job vocabulary: what a client may ask the daemon to simulate.
//!
//! A [`SimSpec`] fully determines a machine and a workload; a
//! [`JobSpec`] wraps one with the per-job knobs a parameter sweep
//! varies — fault plan, warm image, cycle budget. Both travel on the
//! wire through their `april-util` [`Wire`] layouts (PROTOCOL.md gives
//! the byte layout), and both are plain data: equality of specs is
//! equality of runs, which is what the daemon's determinism contract
//! rests on.

use crate::ServeError;
use april_core::isa::asm::assemble;
use april_core::program::Program;
use april_machine::{service_program, MachineConfig, TrafficConfig};
use april_net::fault::{FaultPlan, FaultRule};
use april_net::topology::Topology;
use april_util::wire::{Codec, Wire, WireError};
use april_util::wire_fields;

/// The workload a job runs. The daemon regenerates the program from
/// this description, so warm images and jobs agree on the program
/// image by construction (snapshot restores validate the digest).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// The contended-sharing sweep workload: all nodes hammer one
    /// falsely-shared block region homed at node 0, with `inner` ALU
    /// cycles of local compute between remote accesses. `inner = 0` is
    /// pure contention; large `inner` is compute-bound.
    Contended {
        /// Remote read/write iterations per node.
        outer: u32,
        /// Local delay-loop iterations between remote accesses.
        inner: u32,
    },
    /// The open-loop request-serving workload (DESIGN.md §15): edge
    /// nodes absorb a seeded arrival stream and every node runs the
    /// generated service loop.
    OpenLoop(TrafficConfig),
}

/// PROTOCOL.md "Workload": a tag, then the variant's fields.
impl Wire for Workload {
    fn wire<C: Codec>(&mut self, c: &mut C) -> Result<(), WireError> {
        let blank = [
            Workload::Contended { outer: 0, inner: 0 },
            Workload::OpenLoop(TrafficConfig::default()),
        ];
        c.variant(self, &blank)?;
        match self {
            Workload::Contended { outer, inner } => {
                c.u32(outer)?;
                c.u32(inner)
            }
            Workload::OpenLoop(t) => {
                c.u64(&mut t.seed)?;
                [
                    &mut t.edge_every,
                    &mut t.requests_per_edge,
                    &mut t.mean_gap,
                    &mut t.phase_len,
                    &mut t.off_mul,
                    &mut t.ring_offset,
                    &mut t.ring_slots,
                    &mut t.work_remote,
                    &mut t.work_local,
                ]
                .into_iter()
                .try_for_each(|v| c.u32(v))
            }
        }
    }
}

/// A complete machine + workload description: everything needed to
/// build a [`MachineConfig`] and assemble the program. Scheduler knobs
/// (`lockstep`, `watchdog_horizon`) select *how* the job is
/// executed, not *what* it computes — they are free to differ between
/// a warm image and the jobs forked from it, exactly as the snapshot
/// layer's semantic config normalization allows (DESIGN.md §11).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimSpec {
    /// Mesh radix (nodes per dimension).
    pub radix: u32,
    /// Mesh dimensionality; `radix^dim` nodes total.
    pub dim: u32,
    /// Bytes of globally shared memory owned by each node.
    pub region_bytes: u32,
    /// Memory access latency at the home node, in cycles.
    pub mem_latency: u64,
    /// Force the strict cycle-by-cycle reference scheduler.
    pub lockstep: bool,
    /// Forward-progress watchdog horizon in cycles (0 = the machine
    /// default).
    pub watchdog_horizon: u64,
    /// What the machine runs.
    pub workload: Workload,
}

impl Default for SimSpec {
    fn default() -> SimSpec {
        SimSpec {
            radix: 2,
            dim: 2,
            region_bytes: 1 << 20,
            mem_latency: 10,
            lockstep: false,
            watchdog_horizon: 0,
            workload: Workload::Contended {
                outer: 50,
                inner: 0,
            },
        }
    }
}

impl SimSpec {
    /// The [`MachineConfig`] this spec describes.
    pub fn machine_config(&self) -> MachineConfig {
        let mut cfg = MachineConfig {
            topology: Topology::new(self.dim as usize, self.radix as usize),
            region_bytes: self.region_bytes,
            mem_latency: self.mem_latency,
            lockstep: self.lockstep,
            ..MachineConfig::default()
        };
        if self.watchdog_horizon != 0 {
            cfg.watchdog.horizon = self.watchdog_horizon;
        }
        if let Workload::OpenLoop(t) = self.workload {
            cfg.traffic = Some(t);
        }
        cfg
    }

    /// Assembles the program image for this spec's workload.
    pub fn program(&self) -> Result<Program, ServeError> {
        let src = match self.workload {
            Workload::Contended { outer, inner } => contended_source(outer, inner),
            Workload::OpenLoop(_) => service_program(&self.machine_config()),
        };
        assemble(&src).map_err(|e| ServeError::BadSpec(format!("workload does not assemble: {e}")))
    }

    /// Whether a warm image built from `base` can seed a job running
    /// this spec: everything that shapes the simulated computation
    /// must match; scheduler-selection knobs are free.
    pub fn warm_compatible(&self, base: &SimSpec) -> bool {
        let norm = |s: &SimSpec| SimSpec {
            lockstep: false,
            watchdog_horizon: 0,
            ..*s
        };
        norm(self) == norm(base)
    }
}

// PROTOCOL.md "SimSpec".
wire_fields!(SimSpec {
    radix,
    dim,
    region_bytes,
    mem_latency,
    lockstep,
    watchdog_horizon,
    workload,
});

/// The contended-sharing workload source (shared with the sweep
/// harness, which predates the daemon).
fn contended_source(outer: u32, inner: u32) -> String {
    let compute = if inner > 0 {
        format!(
            "
            movi {inner}, r12
        inner:
            add r13, 4, r13
            sub r12, 1, r12
            jne inner
            nop"
        )
    } else {
        String::new()
    };
    format!(
        "
        .entry main
        main:
            ldio 1, r8         ; node id (fixnum == 4*id: byte offset!)
            movi 0x200, r9
            add r9, r8, r9     ; my word, homed at node 0
            movi {outer}, r10
        outer:{compute}
            ld r9+0, r11       ; remote read miss
            add r11, 4, r11
            st r11, r9+0       ; write-upgrade miss
            flush r9+0
            sub r10, 1, r10
            jne outer
            nop
            halt
        ",
    )
}

/// A seeded fault-injection description: the per-job knob a fault
/// sweep varies. In a warm-started job the plan is installed at the
/// warm point; the cold twin of such a job installs it at the same
/// cycle after re-executing the warmup, so the two runs see identical
/// fault schedules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultSpec {
    /// Injection-PRNG seed.
    pub seed: u64,
    /// Per-hop drop probability.
    pub drop: f64,
    /// Per-hop duplication probability.
    pub dup: f64,
    /// Per-hop delay probability.
    pub delay: f64,
    /// Maximum injected delay in cycles.
    pub max_delay: u64,
}

impl FaultSpec {
    /// The [`FaultPlan`] this spec describes.
    pub fn plan(&self) -> FaultPlan {
        FaultPlan::new(self.seed).with_default_rule(FaultRule {
            drop: self.drop,
            dup: self.dup,
            delay: self.delay,
            max_delay: self.max_delay,
        })
    }
}

// PROTOCOL.md "FaultSpec".
wire_fields!(FaultSpec {
    seed,
    drop,
    dup,
    delay,
    max_delay,
});

/// One simulation job: a machine + workload, the sweep-varied knobs,
/// and a cycle budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSpec {
    /// The machine and workload.
    pub sim: SimSpec,
    /// Fault plan installed at the warm point (cycle `warm_cycles`).
    pub fault: Option<FaultSpec>,
    /// Warm image to fork instead of re-executing the warmup. The
    /// image must have been registered with the daemon, be
    /// [`SimSpec::warm_compatible`] with `sim`, and have been cut at
    /// exactly `warm_cycles`.
    pub warm: Option<u32>,
    /// The warmup length in cycles. A cold run boots and executes the
    /// warmup; a warm run restores a checkpoint cut at this cycle.
    /// 0 means no warmup phase (plain cold boot from cycle 0).
    pub warm_cycles: u64,
    /// Hard cycle budget; a job that has not quiesced by then reports
    /// a budget-exhausted outcome rather than running forever.
    pub max_cycles: u64,
    /// Stream the semantic event trace (JSONL) back alongside stats.
    pub want_trace: bool,
}

impl Default for JobSpec {
    fn default() -> JobSpec {
        JobSpec {
            sim: SimSpec::default(),
            fault: None,
            warm: None,
            warm_cycles: 0,
            max_cycles: 50_000_000,
            want_trace: false,
        }
    }
}

/// PROTOCOL.md "JobSpec". The warm id is written even when absent
/// (as 0), after its presence flag.
impl Wire for JobSpec {
    fn wire<C: Codec>(&mut self, c: &mut C) -> Result<(), WireError> {
        self.sim.wire(c)?;
        self.fault.wire(c)?;
        let flagged = |w: &Option<u32>| (w.is_some(), w.unwrap_or(0));
        c.via(&mut self.warm, flagged, |(some, id)| Ok(some.then_some(id)))?;
        c.u64(&mut self.warm_cycles)?;
        c.u64(&mut self.max_cycles)?;
        c.bool(&mut self.want_trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use april_util::wire::{ByteReader, ByteWriter};

    #[test]
    fn spec_roundtrips_exactly() {
        let mut spec = JobSpec {
            sim: SimSpec {
                radix: 3,
                dim: 2,
                lockstep: true,
                watchdog_horizon: 9999,
                workload: Workload::Contended {
                    outer: 17,
                    inner: 3,
                },
                ..SimSpec::default()
            },
            fault: Some(FaultSpec {
                seed: 42,
                drop: 0.01,
                dup: 0.02,
                delay: 0.03,
                max_delay: 40,
            }),
            warm: Some(7),
            warm_cycles: 12345,
            max_cycles: 1 << 30,
            want_trace: true,
        };
        let mut w = ByteWriter::new();
        spec.wire(&mut w).unwrap();
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        let mut back = JobSpec::default();
        back.wire(&mut r).unwrap();
        assert_eq!(back, spec);
        assert!(r.is_empty());
    }

    #[test]
    fn openloop_workload_roundtrips() {
        let mut spec = SimSpec {
            workload: Workload::OpenLoop(TrafficConfig::default()),
            ..SimSpec::default()
        };
        let mut w = ByteWriter::new();
        spec.wire(&mut w).unwrap();
        let bytes = w.finish();
        let mut back = SimSpec::default();
        back.wire(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn warm_compatibility_ignores_scheduler_knobs() {
        let base = SimSpec::default();
        let knobs = SimSpec {
            lockstep: true,
            watchdog_horizon: 1 << 20,
            ..base
        };
        assert!(knobs.warm_compatible(&base));
        let other = SimSpec {
            mem_latency: 11,
            ..base
        };
        assert!(!other.warm_compatible(&base));
        let other_load = SimSpec {
            workload: Workload::Contended {
                outer: 51,
                inner: 0,
            },
            ..base
        };
        assert!(!other_load.warm_compatible(&base));
    }
}
