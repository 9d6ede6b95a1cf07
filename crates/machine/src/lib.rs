//! # april-machine — the ALEWIFE machine
//!
//! Assembles the APRIL processor (`april-core`), the coherent memory
//! substrate (`april-mem`) and the direct network (`april-net`) into
//! runnable machines:
//!
//! * [`ideal::IdealMachine`] — P processors over a zero-latency shared
//!   memory, the configuration the paper used for its Table 3
//!   measurements.
//! * [`alewife::Alewife`] — the full machine of Figure 1: per-node
//!   caches, full-map directories, and a k-ary n-cube network; remote
//!   misses trap the processor for coarse-grain context switching.
//!
//! Both implement the [`Machine`] trait, which the run-time system
//! (`april-runtime`) drives: `advance()` moves simulated time forward
//! one cycle and surfaces the events (traps, run-time calls, empty
//! frames) that the software system must handle, exactly as ALEWIFE
//! migrates scheduling and trap handling into software.

#![warn(missing_docs)]

pub mod alewife;
pub mod config;
pub mod driver;
pub mod ideal;
pub(crate) mod kernel;
pub(crate) mod obs;
pub mod recovery;
pub mod replay;
pub mod snapshot;
pub mod traffic;
pub mod watchdog;

use april_core::cpu::{Cpu, StepEvent};
use april_core::program::Program;
use april_core::stats::CpuStats;
use april_mem::femem::FeMemory;
use april_obs::{StatsReport, Trace, TraceConfig};

pub use alewife::Alewife;
pub use config::MachineConfig;
pub use driver::{drive_sequential, drive_sequential_until, EventCtx, NodeDriver, SwitchSpin};
pub use ideal::IdealMachine;
pub use recovery::{
    derive_quarantine, Quarantine, QuarantineAction, RecoveryConfig, RecoveryFailure,
    RecoveryManager, RecoveryReport,
};
pub use replay::{Divergence, Replayer};
pub use snapshot::{diff_snapshots, Snapshot, SnapshotError};
pub use traffic::{service_program, ArrivalPlan, TrafficConfig};
pub use watchdog::{MachineFault, PostMortem, UndeliverableMsg, WatchdogConfig};

pub use april_net::topology::Topology;

/// A machine the run-time system can drive.
///
/// A machine owns processors, memory, and a loaded program; the
/// run-time advances it cycle by cycle and services the events it
/// reports. All mutation of processor state outside instruction
/// execution (context switches, thread loads) goes through
/// [`Machine::cpu_mut`] with cycle costs charged via
/// [`Machine::charge_handler`], keeping the cycle ledger exact.
pub trait Machine {
    /// Number of processors.
    fn num_procs(&self) -> usize;

    /// Current simulated time in cycles.
    fn now(&self) -> u64;

    /// Advances time by one cycle, stepping every due processor, and
    /// returns the events that need run-time attention.
    fn advance(&mut self) -> Vec<(usize, StepEvent)> {
        let mut evs = Vec::new();
        self.advance_into(&mut evs);
        evs
    }

    /// Like [`Machine::advance`], but clears `evs` and appends the
    /// events into it instead of allocating a fresh vector. Drivers
    /// hand the same buffer back every cycle so the advance loop stays
    /// allocation-free.
    fn advance_into(&mut self, evs: &mut Vec<(usize, StepEvent)>);

    /// Processor `i`.
    fn cpu(&self, i: usize) -> &Cpu;

    /// Processor `i`'s cycle ledger as of the current cycle. A machine
    /// that charges some cycles lazily (ALEWIFE's parked CPUs) adds
    /// them here; read ledgers through this, not `cpu(i).stats`.
    fn cpu_stats(&self, i: usize) -> CpuStats {
        self.cpu(i).stats
    }

    /// Mutable processor `i` (for the run-time's context switching and
    /// thread load/unload).
    fn cpu_mut(&mut self, i: usize) -> &mut Cpu;

    /// The shared (or global) data memory.
    fn mem(&self) -> &FeMemory;

    /// Mutable shared memory (run-time data structures live here).
    fn mem_mut(&mut self) -> &mut FeMemory;

    /// The loaded program.
    fn program(&self) -> &Program;

    /// Charges `cycles` of trap-handler time to processor `i` and
    /// delays it accordingly.
    fn charge_handler(&mut self, i: usize, cycles: u64);

    /// Charges `cycles` of idle time to processor `i`.
    fn charge_idle(&mut self, i: usize, cycles: u64);

    /// Sends an interprocessor interrupt.
    fn send_ipi(&mut self, from: usize, to: usize);

    /// The home node of address `addr` (0 on centralized machines).
    fn home_of(&self, addr: u32) -> usize;

    /// A fatal machine-level fault (protocol failure or watchdog
    /// firing), if one has been detected. The run-time aborts the run
    /// when this becomes `Some`. Machines without fault detection
    /// (e.g. the ideal machine) report `None` forever.
    fn fault(&self) -> Option<&MachineFault> {
        None
    }

    /// Installs live event probes on every instrumented component.
    /// Must be called before the run starts; attaching mid-run would
    /// make the trace depend on when the caller attached. Machines
    /// without instrumentation ignore the request.
    fn attach_tracer(&mut self, _cfg: TraceConfig) {}

    /// Merges every component probe into one canonically ordered
    /// [`Trace`]. Uninstrumented machines return an empty trace.
    fn collect_trace(&self) -> Trace {
        Trace::new()
    }

    /// Snapshots the machine's counters and histograms as a
    /// [`StatsReport`]. Uninstrumented machines return an empty report.
    fn stats_report(&self) -> StatsReport {
        StatsReport::new()
    }

    /// Retires an open-loop request (DESIGN.md §15) on behalf of the
    /// run-time system: `word` is the request word a service task
    /// hands back through the run-time's retire call, and the machine
    /// timestamps it against its arrival plan ([`traffic`]). Returns
    /// `true` when the word was recorded as a retirement; machines
    /// without traffic support ignore the call.
    fn retire_request(&mut self, _node: usize, _word: u32) -> bool {
        false
    }

    /// Captures the machine's complete state as a versioned
    /// [`Snapshot`] (DESIGN.md §11). Takes `&mut self` because the
    /// decode engine's booked runs must materialize before encoding —
    /// the snapshot itself is still a pure read of the settled state.
    /// Machines without snapshot support report
    /// [`SnapshotError::Unsupported`].
    fn checkpoint(&mut self) -> Result<Snapshot, SnapshotError> {
        Err(SnapshotError::Unsupported)
    }

    /// Restores a [`Snapshot`] taken on an identically configured
    /// machine running the same program; the continuation is bit-exact
    /// with the checkpointed run. Machines without snapshot support
    /// report [`SnapshotError::Unsupported`].
    fn restore(&mut self, _snap: &Snapshot) -> Result<(), SnapshotError> {
        Err(SnapshotError::Unsupported)
    }
}
