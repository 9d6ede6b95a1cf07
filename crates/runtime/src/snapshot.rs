//! Checkpointing the run-time system.
//!
//! A machine [`Snapshot`] captures the
//! hardware; the run-time holds just as much behavior-determining
//! state in software — virtual threads and their saved register
//! images, ready and lazy queues, future wait lists, per-node
//! allocators, and the scheduler's round-robin cursor. A
//! [`RuntimeSnapshot`] wraps the machine snapshot together with all of
//! it, so [`Runtime::restore`] resumes a run bit-exactly: the
//! continued run's trace, statistics, and result are identical to an
//! unbroken one.
//!
//! The encoding follows the machine format's conventions (see
//! DESIGN.md §11): little-endian fixed-width integers, length-prefixed
//! byte strings, maps sorted by key so equal logical state always
//! produces identical bytes. The wrapper is versioned independently of
//! the machine snapshot it embeds.

use crate::futures::{FutureInfo, FutureTable, LazyThunk};
use crate::layout::NodeLayout;
use crate::runtime::Runtime;
use crate::sched::{NodeQueues, SchedStats, Scheduler};
use crate::thread::{SavedFrame, Thread, ThreadId, ThreadState};
use april_core::snapshot::wire_image;
use april_machine::{Machine, Snapshot, SnapshotError};
use april_util::wire::{ByteReader, ByteWriter, Codec, Wire, WireError};
use april_util::wire_fields;

/// Magic prefix of a runtime snapshot (the machine format uses
/// `APRL`).
pub const MAGIC: &[u8] = b"APRT";

/// Current runtime-wrapper format version.
pub const VERSION: u8 = 1;

/// A serialized run-time checkpoint: one machine snapshot plus the
/// run-time software state wrapped around it.
///
/// Produced by [`Runtime::checkpoint`], consumed by
/// [`Runtime::restore`]. The byte string is self-contained and
/// write-to-disk stable ([`RuntimeSnapshot::as_bytes`] /
/// [`RuntimeSnapshot::from_bytes`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeSnapshot {
    bytes: Vec<u8>,
}

impl RuntimeSnapshot {
    /// The serialized form.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Reconstructs a snapshot from bytes, validating the wrapper
    /// header and the embedded machine snapshot's framing. The
    /// run-time payload is validated when it is actually decoded, at
    /// [`Runtime::restore`] time.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::BadMagic`], [`SnapshotError::Version`], or
    /// [`SnapshotError::Corrupt`] when the bytes are not a runtime
    /// snapshot.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<RuntimeSnapshot, SnapshotError> {
        let snap = RuntimeSnapshot { bytes };
        snap.machine_snapshot()?;
        Ok(snap)
    }

    /// The machine clock at which the checkpoint was taken.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot bytes are corrupt (impossible for a
    /// value that came through [`RuntimeSnapshot::from_bytes`] or
    /// [`Runtime::checkpoint`]).
    pub fn cycle(&self) -> u64 {
        self.machine_snapshot().expect("validated snapshot").cycle()
    }

    /// Extracts the embedded machine [`Snapshot`].
    ///
    /// # Errors
    ///
    /// As [`RuntimeSnapshot::from_bytes`].
    pub fn machine_snapshot(&self) -> Result<Snapshot, SnapshotError> {
        let mut r = ByteReader::new(&self.bytes);
        header(&mut r, &mut String::new())?;
        Snapshot::from_bytes(r.bytes()?.to_vec())
    }
}

/// The wrapper header: magic, version, and the `Debug` rendering of
/// the run-time configuration.
fn header<C: Codec>(c: &mut C, cfg_debug: &mut String) -> Result<(), SnapshotError> {
    let mut magic = MAGIC.to_vec();
    magic.wire(c)?;
    if magic != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let mut version = VERSION;
    c.u8(&mut version)?;
    if version != VERSION {
        return Err(SnapshotError::Version(version));
    }
    c.str(cfg_debug)?;
    Ok(())
}

wire_fields!(ThreadId { 0 });

impl Wire for SavedFrame {
    fn wire<C: Codec>(&mut self, c: &mut C) -> Result<(), WireError> {
        let f = self;
        wire_image(
            c,
            &mut f.regs,
            &mut f.fregs,
            &mut f.pc,
            &mut f.npc,
            &mut f.psr,
        )
    }
}

impl Wire for ThreadState {
    fn wire<C: Codec>(&mut self, c: &mut C) -> Result<(), WireError> {
        use ThreadState::*;
        c.variant(
            self,
            &[
                Ready,
                Loaded { node: 0, frame: 0 },
                Blocked { future: 0 },
                Exited,
            ],
        )?;
        match self {
            Loaded { node, frame } => {
                c.usize(node)?;
                c.usize(frame)
            }
            Blocked { future } => c.u32(future),
            Ready | Exited => Ok(()),
        }
    }
}

/// A virtual thread: its id, its unloaded register image, then its
/// scheduling state.
impl Wire for Thread {
    fn wire<C: Codec>(&mut self, c: &mut C) -> Result<(), WireError> {
        let t = self;
        t.id.wire(c)?;
        wire_image(
            c,
            &mut t.regs,
            &mut t.fregs,
            &mut t.pc,
            &mut t.npc,
            &mut t.psr,
        )?;
        t.state.wire(c)?;
        c.usize(&mut t.home)?;
        c.u32(&mut t.stack_base)?;
        t.shadow.wire(c)?;
        c.bool(&mut t.started)
    }
}

wire_fields!(NodeQueues { ready, lazy });
wire_fields!(SchedStats {
    threads_created,
    lazy_created,
    inline_evals,
    lazy_steals,
    ready_steals,
    blocks,
    wakes,
    loads,
    unloads,
});

/// The scheduler's queues, one per node of the receiving machine.
impl Wire for Scheduler {
    fn wire<C: Codec>(&mut self, c: &mut C) -> Result<(), WireError> {
        c.same(self.nodes.len(), "scheduler node count mismatch")?;
        self.nodes.as_mut_slice().wire(c)?;
        c.usize(&mut self.spawn_rr)?;
        self.stats.wire(c)
    }
}

wire_fields!(LazyThunk { closure, owner });
wire_fields!(FutureInfo { waiters, lazy });
wire_fields!(FutureTable { map });
wire_fields!(NodeLayout {
    heap,
    stacks,
    free_stacks,
    stack_bytes,
});

// ---------------------------------------------------------------------
// Checkpoint / restore
// ---------------------------------------------------------------------

impl<M: Machine> Runtime<M> {
    /// Serializes the complete run-time state — the wrapped machine
    /// (via [`Machine::checkpoint`]) plus threads, queues, futures,
    /// allocators, and the scheduler probe — into a self-contained
    /// [`RuntimeSnapshot`].
    ///
    /// # Errors
    ///
    /// Propagates the machine's [`SnapshotError`]: `Unsupported` when
    /// the wrapped machine type cannot checkpoint, `Faulted` when it
    /// is stopped on a machine fault.
    pub fn checkpoint(&mut self) -> Result<RuntimeSnapshot, SnapshotError> {
        let mut w = ByteWriter::new();
        self.wire_snapshot(&mut w)?;
        Ok(RuntimeSnapshot { bytes: w.finish() })
    }

    /// Restores `snap` into this run-time. The run-time must be
    /// constructed with the same [`RtConfig`](crate::config::RtConfig)
    /// and an identically-configured machine as the checkpointed one
    /// (validated; the embedded machine snapshot additionally
    /// validates the machine configuration and program image).
    /// Continuing afterwards reproduces the original run bit-exactly.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::ConfigMismatch`] when the run-time
    /// configuration differs, plus everything [`Machine::restore`]
    /// reports. After an error the run-time's state is unspecified —
    /// rebuild it rather than continuing.
    pub fn restore(&mut self, snap: &RuntimeSnapshot) -> Result<(), SnapshotError> {
        self.wire_snapshot(&mut ByteReader::new(&snap.bytes))
    }

    /// The run-time snapshot's one field list: the header, the embedded
    /// machine snapshot, then the run-time state. Per-node tables must
    /// match the receiving machine's node count.
    fn wire_snapshot<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        let cfg_debug = format!("{:?}", self.cfg);
        let mut got = cfg_debug.clone();
        header(c, &mut got)?;
        if got != cfg_debug {
            return Err(SnapshotError::ConfigMismatch);
        }
        if C::READS {
            let mut bytes = Vec::new();
            bytes.wire(c)?;
            self.machine.restore(&Snapshot::from_bytes(bytes)?)?;
        } else {
            self.machine.checkpoint()?.into_bytes().wire(c)?;
        }
        self.threads.wire(c)?;
        let out_of_sequence = |(i, t): (usize, &Thread)| t.id.0 as usize != i;
        if C::READS && self.threads.iter().enumerate().any(out_of_sequence) {
            return Err(WireError::Corrupt("thread id out of sequence").into());
        }
        self.sched.wire(c)?;
        self.futures.wire(c)?;
        c.same(self.layouts.len(), "layout count mismatch")?;
        self.layouts.as_mut_slice().wire(c)?;
        c.same(self.loaded.len(), "loaded-map node count mismatch")?;
        self.loaded.as_mut_slice().wire(c)?;
        let threads = self.threads.len();
        let loaded = self.loaded.iter().flatten().flatten();
        if C::READS && loaded.copied().any(|t| t.0 as usize >= threads) {
            return Err(WireError::Corrupt("loaded thread out of range").into());
        }
        self.result.wire(c)?;
        self.prints.wire(c)?;
        c.u32(&mut self.task_entry)?;
        self.inline_entry.wire(c)?;
        c.bool(&mut self.booted)?;
        self.fe_spins.wire(c)?;
        self.fe_waiters.wire(c)?;
        self.probe.wire(c)?;
        if C::READS && c.remaining() != 0 {
            return Err(WireError::Corrupt("trailing bytes after runtime snapshot").into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abi;
    use crate::config::RtConfig;
    use april_core::isa::asm::assemble;
    use april_core::program::Program;
    use april_machine::{Alewife, MachineConfig, Topology};
    use april_obs::TraceConfig;

    const REGION: u32 = 1 << 20;

    fn mcfg() -> MachineConfig {
        MachineConfig {
            topology: Topology::new(2, 2),
            region_bytes: REGION,
            ..MachineConfig::default()
        }
    }

    fn rtcfg() -> RtConfig {
        RtConfig {
            region_bytes: REGION,
            stack_bytes: 4096,
            max_cycles: 10_000_000,
            ..RtConfig::default()
        }
    }

    /// A fan-out/join program: spawn 6 eager futures, sum via strict
    /// touches. Exercises threads, queues, futures, and blocking.
    fn prog() -> Program {
        let body = "
        .entry main
        main:
            movi 0, r10        ; sum
            movi 6, r11        ; count
            movi 0x200, r12    ; future array base
        spawn:
            or g5, 0, g1
            add g5, 8, g5
            movi @five, g2
            st g2, g1+0
            or g1, 2, r1       ; other-tag the closure
            rtcall 2           ; RT_FUTURE -> r1
            st r1, r12+0
            add r12, 4, r12
            sub r11, 1, r11
            jne spawn
            nop
            movi 6, r11
            movi 0x200, r12
        join:
            ld r12+0, r13
            tadd r10, r13, r10 ; strict add: touches the future
            add r12, 4, r12
            sub r11, 1, r11
            jne join
            nop
            or r10, 0, r1
            rtcall 1           ; RT_MAIN_DONE
        five:
            movi 20, r1        ; fixnum 5
            jmpl r31+0, g0
            nop
        ";
        let src = format!("{}\n{}", body, abi::entry_stubs_asm());
        assemble(&src).unwrap()
    }

    fn fresh_rt() -> Runtime<Alewife> {
        let m = Alewife::new(mcfg(), prog());
        let mut rt = Runtime::new(m, rtcfg());
        rt.attach_tracer(TraceConfig::default());
        rt
    }

    #[test]
    fn runtime_checkpoint_restore_roundtrips_mid_run() {
        // Unbroken reference run.
        let mut reference = fresh_rt();
        let ref_result = reference.run().unwrap();

        // Checkpoint mid-run, while threads and futures are in flight.
        let mut rt = fresh_rt();
        let paused = rt.run_until(400).unwrap();
        assert!(paused.is_none(), "program finished before the checkpoint");
        let snap = rt.checkpoint().unwrap();
        assert_eq!(snap.cycle(), rt.machine().now());

        // Restore into a fresh runtime and finish there.
        let mut restored = fresh_rt();
        restored.restore(&snap).unwrap();
        let result = restored.run().unwrap();

        assert_eq!(result.value, ref_result.value);
        assert_eq!(result.cycles, ref_result.cycles);
        assert_eq!(result.total, ref_result.total);
        assert_eq!(result.sched, ref_result.sched);
        assert_eq!(
            restored.collect_trace().events(),
            reference.collect_trace().events(),
            "continued trace must be identical to the unbroken run's"
        );
        assert_eq!(
            restored.stats_report().to_json(),
            reference.stats_report().to_json()
        );
    }

    #[test]
    fn snapshot_bytes_are_stable_and_reloadable() {
        let mut rt = fresh_rt();
        rt.run_until(300).unwrap();
        let a = rt.checkpoint().unwrap();
        let b = rt.checkpoint().unwrap();
        assert_eq!(a, b, "checkpoint must be a pure read");
        let reloaded = RuntimeSnapshot::from_bytes(a.as_bytes().to_vec()).unwrap();
        assert_eq!(reloaded, a);

        let mut restored = fresh_rt();
        restored.restore(&reloaded).unwrap();
        let again = restored.checkpoint().unwrap();
        assert_eq!(again, a, "restore/re-checkpoint must be a fixed point");
    }

    #[test]
    fn restore_rejects_mismatched_runtime_config() {
        let mut rt = fresh_rt();
        rt.run_until(200).unwrap();
        let snap = rt.checkpoint().unwrap();
        let m = Alewife::new(mcfg(), prog());
        let mut other = Runtime::new(
            m,
            RtConfig {
                stack_bytes: 8192,
                ..rtcfg()
            },
        );
        other.attach_tracer(TraceConfig::default());
        assert!(matches!(
            other.restore(&snap),
            Err(SnapshotError::ConfigMismatch)
        ));
    }

    #[test]
    fn from_bytes_validates_the_wrapper_header() {
        let mut rt = fresh_rt();
        rt.run_until(100).unwrap();
        let snap = rt.checkpoint().unwrap();
        let bytes = snap.as_bytes().to_vec();

        let mut wrong_magic = bytes.clone();
        wrong_magic[8] = b'X'; // magic text starts after its length prefix
        assert!(matches!(
            RuntimeSnapshot::from_bytes(wrong_magic),
            Err(SnapshotError::BadMagic)
        ));

        let mut wrong_version = bytes.clone();
        wrong_version[12] = 99;
        assert!(matches!(
            RuntimeSnapshot::from_bytes(wrong_version),
            Err(SnapshotError::Version(99))
        ));

        // Truncating into the embedded machine snapshot is caught (the
        // runtime payload after it is validated at restore time).
        assert!(RuntimeSnapshot::from_bytes(bytes[..bytes.len() / 2].to_vec()).is_err());
    }
}
