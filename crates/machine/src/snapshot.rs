//! Versioned binary checkpoints of the full machine state.
//!
//! A [`Snapshot`] captures everything an [`Alewife`] evolves at run
//! time — CPU task frames and cycle ledgers, caches, directories with
//! in-flight busy episodes, controller transactions, full/empty memory,
//! the network's event heap and fault-plan state, scheduler
//! bookkeeping, and every probe's ring — as one self-describing byte
//! string. Both schedulers run over that one machine, so a snapshot
//! taken under either restores under the other: checkpoint an
//! event-driven run, resume it in lockstep (or vice versa), and the
//! continuation is bit-exact.
//!
//! The format (DESIGN.md §11) is a fixed header — magic `"APRL"`,
//! version byte, checkpoint cycle, the `Debug` rendering of the
//! [`MachineConfig`], a digest of the program image, the node count —
//! followed by a list of *sections*, each tagged with a kind byte and
//! node id and length-prefixed. Sectioning buys two things: a restore
//! can verify it is consuming exactly the state it expects, and
//! [`diff_snapshots`] can name the first component two snapshots
//! disagree on instead of reporting "bytes differ".
//!
//! Restores are *validated*, not trusted: config and program must
//! match the machine the snapshot is restored into, section tags must
//! arrive in canonical order, and every section must consume its
//! payload exactly. A failed restore leaves the machine in an
//! unspecified state — rebuild it before retrying.

use crate::alewife::{Alewife, Env};
use crate::config::MachineConfig;
use crate::traffic::NodeTraffic;
use crate::watchdog::Watchdog;
use april_core::program::Program;
use april_util::wire::{digest64, ByteReader, ByteWriter, Codec, Wire, WireError};
use april_util::wire_fields;
use std::fmt;

/// The four-byte magic prefix of every snapshot.
pub const MAGIC: [u8; 4] = *b"APRL";
/// The format version this build writes and the only one it reads.
/// Version 2 extended the network section with fail-stop fault state,
/// quarantine sets, and the dead-letter log. Version 3 made the memory
/// section sparse (untouched 4 KiB chunks serialize as holes), added
/// coarse/broadcast sharer-set encodings for the sparse directory
/// kinds, and appended the directory overflow counter. Version 4 added
/// the per-edge-node open-loop traffic section (DESIGN.md §15).
pub const VERSION: u8 = 4;

/// Section kinds. Per-node sections (`CPU`..`IO`) carry the node id in
/// their tag; machine-wide sections use node id 0.
const SEC_CPU: u8 = 0;
const SEC_CTL: u8 = 1;
const SEC_DIR: u8 = 2;
const SEC_IO: u8 = 3;
const SEC_MEM: u8 = 4;
const SEC_NET: u8 = 5;
const SEC_SCHED: u8 = 6;
const SEC_WATCHDOG: u8 = 7;
const SEC_META: u8 = 8;
/// Per-edge-node open-loop traffic state (only nodes with an ingress
/// ring have one); follows the node's `IO` section. The injection
/// cursor is deliberately absent — it is derived from the arrival plan
/// and the restored clock.
const SEC_TRAFFIC: u8 = 9;

fn section_name(kind: u8) -> &'static str {
    match kind {
        SEC_CPU => "cpu",
        SEC_CTL => "ctl",
        SEC_DIR => "dir",
        SEC_IO => "io",
        SEC_MEM => "mem",
        SEC_NET => "net",
        SEC_SCHED => "sched",
        SEC_WATCHDOG => "watchdog",
        SEC_META => "meta",
        SEC_TRAFFIC => "traffic",
        _ => "unknown",
    }
}

/// Why a checkpoint or restore was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// This machine type does not implement checkpointing.
    Unsupported,
    /// The machine has recorded a fatal fault; a checkpoint of a
    /// faulted machine could not be resumed meaningfully.
    Faulted,
    /// The bytes do not start with the `"APRL"` magic.
    BadMagic,
    /// The snapshot was written by an unknown format version.
    Version(u8),
    /// The snapshot's machine configuration differs from the machine
    /// it is being restored into.
    ConfigMismatch,
    /// The snapshot's program digest differs from the loaded program.
    ProgramMismatch,
    /// The byte stream is structurally invalid.
    Corrupt(WireError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Unsupported => write!(f, "machine does not support checkpointing"),
            SnapshotError::Faulted => write!(f, "cannot checkpoint a faulted machine"),
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::Version(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::ConfigMismatch => {
                write!(f, "snapshot was taken on a differently configured machine")
            }
            SnapshotError::ProgramMismatch => {
                write!(f, "snapshot was taken with a different program image")
            }
            SnapshotError::Corrupt(e) => write!(f, "corrupt snapshot: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<WireError> for SnapshotError {
    fn from(e: WireError) -> SnapshotError {
        SnapshotError::Corrupt(e)
    }
}

/// The snapshot header.
#[derive(Default)]
struct Header {
    now: u64,
    cfg_debug: String,
    prog_digest: u64,
    nodes: usize,
    sections: usize,
}

impl Header {
    fn wire<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
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
        c.u64(&mut self.now)?;
        c.str(&mut self.cfg_debug)?;
        c.u64(&mut self.prog_digest)?;
        c.usize(&mut self.nodes)?;
        c.usize(&mut self.sections)?;
        Ok(())
    }

    fn read(bytes: &[u8]) -> Result<(Header, ByteReader<'_>), SnapshotError> {
        let mut r = ByteReader::new(bytes);
        let mut h = Header::default();
        h.wire(&mut r)?;
        Ok((h, r))
    }
}

/// One section's framing: its kind byte and node id, then its payload,
/// length-prefixed; `body` visits the payload and must consume it.
fn section<C: Codec>(
    c: &mut C,
    kind: &mut u8,
    node: &mut u32,
    body: impl FnOnce(&mut C, u8, u32) -> Result<(), WireError>,
) -> Result<(), SnapshotError> {
    c.u8(kind)?;
    c.u32(node)?;
    let (kind, node) = (*kind, *node);
    Ok(c.nested(|c| body(c, kind, node))?)
}

/// The section [`wire_machine`] expects next in the canonical order.
fn expected_section<C: Codec>(
    c: &mut C,
    kind: u8,
    node: u32,
    body: impl FnOnce(&mut C) -> Result<(), WireError>,
) -> Result<(), SnapshotError> {
    let (mut k, mut n) = (kind, node);
    section(c, &mut k, &mut n, |c, k, n| {
        if (k, n) != (kind, node) {
            return Err(WireError::Corrupt("section out of canonical order"));
        }
        body(c)
    })
}

/// A complete machine checkpoint: an owned, versioned byte string.
///
/// Produced by [`Alewife::checkpoint`] (or the
/// [`crate::Machine::checkpoint`] trait method) and consumed by the
/// matching `restore`. The bytes are self-contained — they can be
/// written to disk and reloaded with [`Snapshot::from_bytes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    bytes: Vec<u8>,
}

impl Snapshot {
    /// The raw encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Adopts `bytes` as a snapshot after validating the header and
    /// walking the section framing (payloads are validated at restore).
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Snapshot, SnapshotError> {
        let snap = Snapshot { bytes };
        snap.walk_sections(|_, _, _| ())?;
        Ok(snap)
    }

    /// The raw encoded bytes, by value.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// The cycle at which the checkpoint was taken.
    pub fn cycle(&self) -> u64 {
        Header::read(&self.bytes).map_or(0, |(h, _)| h.now)
    }

    /// The `Debug` rendering of the configuration the snapshot was
    /// taken under.
    pub fn config_debug(&self) -> Result<String, SnapshotError> {
        Ok(Header::read(&self.bytes)?.0.cfg_debug)
    }

    /// Walks the header and every section, handing `(kind, node,
    /// payload)` to `f` in file order.
    fn walk_sections<'a>(
        &'a self,
        mut f: impl FnMut(u8, u32, &'a [u8]),
    ) -> Result<(), SnapshotError> {
        let (h, mut r) = Header::read(&self.bytes)?;
        for _ in 0..h.sections {
            let (mut kind, mut node) = (0, 0);
            section(&mut r, &mut kind, &mut node, |p, kind, node| {
                f(kind, node, p.rest());
                Ok(())
            })?;
        }
        trailing(&r)
    }
}

/// Names the first point at which two snapshots disagree, or `None` if
/// they are byte-identical. The answer is a human-readable label —
/// `"section cpu@3"`, `"header (cycle/config/program)"` — intended for
/// replay-divergence reports, not machine parsing.
pub fn diff_snapshots(a: &Snapshot, b: &Snapshot) -> Option<String> {
    if a.bytes == b.bytes {
        return None;
    }
    let collect = |s: &Snapshot| {
        let mut v: Vec<(u8, u32, Vec<u8>)> = Vec::new();
        s.walk_sections(|kind, node, payload| v.push((kind, node, payload.to_vec())))
            .map(|_| v)
    };
    let (sa, sb) = match (collect(a), collect(b)) {
        (Ok(sa), Ok(sb)) => (sa, sb),
        _ => return Some("unparseable snapshot".to_string()),
    };
    for (x, y) in sa.iter().zip(&sb) {
        if x.0 != y.0 || x.1 != y.1 {
            return Some(format!(
                "section order: {}@{} vs {}@{}",
                section_name(x.0),
                x.1,
                section_name(y.0),
                y.1
            ));
        }
        if x.2 != y.2 {
            return Some(format!("section {}@{}", section_name(x.0), x.1));
        }
    }
    if sa.len() != sb.len() {
        return Some(format!("section count: {} vs {}", sa.len(), sb.len()));
    }
    Some("header (cycle/config/program)".to_string())
}

wire_fields!(Env { src, msg });
wire_fields!(Watchdog { sig, last_change });
// `cursor` is absent: it is derived from the arrival plan and the
// restored clock, and the restore recomputes it.
wire_fields!(NodeTraffic {
    injected,
    dropped,
    retired,
    last_retire,
    poison_sent,
    latency,
    probe,
});

fn prog_digest(prog: &Program) -> u64 {
    digest64(format!("{prog:?}").as_bytes())
}

/// The configuration rendering snapshots embed and validate against.
/// The scheduler-selection knob (`lockstep`) is normalized away: it
/// does not affect machine semantics — the bit-exact equivalence
/// contract is precisely that — so a checkpoint taken under one
/// scheduler restores under the other. The watchdog horizon is
/// normalized for the same reason: it is supervision policy, not
/// machine state, and the recovery layer backs it off between attempts
/// while restoring checkpoints taken under the original horizon.
fn semantic_config_debug(cfg: &MachineConfig) -> String {
    let mut c = *cfg;
    c.lockstep = false;
    c.watchdog.horizon = 0;
    // The decode engine is cycle-exact with the interpreter and its
    // image is derived state: a checkpoint taken with it on restores
    // with it off, and vice versa.
    c.decode = false;
    format!("{c:?}")
}

fn trailing<C: Codec>(c: &C) -> Result<(), SnapshotError> {
    if C::READS && c.remaining() != 0 {
        return Err(WireError::Corrupt("trailing bytes after last section").into());
    }
    Ok(())
}

/// The machine snapshot's one field list: the header, validated against
/// `v`'s configuration and program, then every section of `v`'s
/// (settled) state in the canonical order.
fn wire_machine<C: Codec>(v: &mut Alewife, c: &mut C) -> Result<(), SnapshotError> {
    let n = v.nodes.len();
    let edges = v.nodes.iter().filter(|nd| nd.traffic.is_some()).count();
    let cfg_debug = semantic_config_debug(&v.cfg);
    let digest = prog_digest(&v.prog);
    let sections = n * 4 + edges + 5;
    let mut h = Header {
        now: v.now,
        cfg_debug: cfg_debug.clone(),
        prog_digest: digest,
        nodes: n,
        sections,
    };
    h.wire(c)?;
    if h.cfg_debug != cfg_debug {
        return Err(SnapshotError::ConfigMismatch);
    }
    if h.prog_digest != digest {
        return Err(SnapshotError::ProgramMismatch);
    }
    if h.nodes != n {
        return Err(SnapshotError::ConfigMismatch);
    }
    if h.sections != sections {
        return Err(WireError::Corrupt("section count mismatch").into());
    }
    v.now = h.now;

    // The canonical section order; a restore refuses anything else.
    // Traffic sections appear exactly on the edge nodes, which the
    // receiving machine knows from its own (already validated) config.
    for (i, nd) in v.nodes.iter_mut().enumerate() {
        let i = i as u32;
        expected_section(c, SEC_CPU, i, |c| nd.cpu.wire(c))?;
        expected_section(c, SEC_CTL, i, |c| nd.ctl.wire(c))?;
        expected_section(c, SEC_DIR, i, |c| nd.dir.wire(c))?;
        expected_section(c, SEC_IO, i, |c| nd.io_regs.wire(c))?;
        if let Some(tr) = nd.traffic.as_deref_mut() {
            expected_section(c, SEC_TRAFFIC, i, |c| tr.wire(c))?;
        }
    }
    expected_section(c, SEC_MEM, 0, |c| v.mem.wire(c))?;
    expected_section(c, SEC_NET, 0, |c| v.net.wire(c))?;
    expected_section(c, SEC_SCHED, 0, |c| {
        v.ready_at.as_mut_slice().wire(c)?;
        let flagged = |h: &Option<u64>| (h.is_some(), h.unwrap_or(0));
        v.halted_at
            .iter_mut()
            .try_for_each(|h| c.via(h, flagged, |(halted, at)| Ok(halted.then_some(at))))
    })?;
    expected_section(c, SEC_WATCHDOG, 0, |c| v.watchdog.wire(c))?;
    expected_section(c, SEC_META, 0, |c| v.meta_probe.wire(c))?;
    trailing(c)
}

impl Alewife {
    /// Builds the machine described by `cfg`/`prog` and immediately
    /// restores `snap` into it — machine construction *from* a
    /// checkpoint, the primitive behind snapshot warm starts
    /// (DESIGN.md §16): a parameter sweep forks one warmed checkpoint
    /// per job instead of re-booting and re-warming the machine per
    /// job. `tracer`, when present, is attached before the restore so
    /// the snapshot's probe rings land in live probes and the
    /// continuation's trace is bit-exact with the checkpointed run's.
    /// `cfg` may differ from the snapshot's configuration in scheduler
    /// knobs only (see [`Snapshot`] on semantic normalization).
    pub fn from_snapshot(
        cfg: MachineConfig,
        prog: Program,
        tracer: Option<april_obs::TraceConfig>,
        snap: &Snapshot,
    ) -> Result<Alewife, SnapshotError> {
        let mut m = Alewife::new(cfg, prog);
        if let Some(t) = tracer {
            crate::Machine::attach_tracer(&mut m, t);
        }
        m.restore(snap)?;
        Ok(m)
    }

    /// Captures the machine's complete state at the current cycle.
    ///
    /// Refused on a faulted machine ([`SnapshotError::Faulted`]): the
    /// fault report references state the snapshot format deliberately
    /// omits, and resuming a dead run is meaningless anyway.
    ///
    /// Takes `&mut self` to materialize any decode-engine booked runs
    /// first (their instructions semantically executed on cycles up to
    /// and including `now`); the encoded bytes are a pure read of the
    /// settled state.
    pub fn checkpoint(&mut self) -> Result<Snapshot, SnapshotError> {
        if self.fault.is_some() {
            return Err(SnapshotError::Faulted);
        }
        // Booked runs materialize and parked CPUs' pending idle is
        // charged, so the ledger and `ready_at` are what lockstep shows.
        for i in 0..self.nodes.len() {
            self.settle_resv(i);
            self.settle_idle(i);
        }
        // Clocks are stamped on demand (only when a component acts), so
        // an idle node's clock lags `now`. The lag is unobservable in a
        // run but the snapshot encodes the fields verbatim — settle
        // them so checkpoints of one cycle agree bit for bit whatever
        // schedule of visits led there.
        let now = self.now;
        for n in &mut self.nodes {
            n.cpu.set_clock(now);
            n.ctl.set_clock(now);
            n.dir.set_clock(now);
        }
        let mut w = ByteWriter::new();
        wire_machine(self, &mut w)?;
        Ok(Snapshot { bytes: w.finish() })
    }

    /// Restores `snap` into this machine, which must have been built
    /// with the same [`MachineConfig`] and program (restores validate
    /// both). The continuation is bit-exact with the run the snapshot
    /// was taken from, on any scheduler. A failed restore leaves the
    /// machine in an unspecified state — rebuild it before retrying.
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), SnapshotError> {
        wire_machine(self, &mut ByteReader::new(&snap.bytes))?;
        self.fault = None;
        // Injection cursors are derived: every arrival with a birth
        // cycle ≤ the restored clock was already handled before the
        // checkpoint.
        if let Some(plan) = &self.plan {
            for (node, arrivals) in plan.entries() {
                if let Some(tr) = self.nodes[*node].traffic.as_deref_mut() {
                    tr.reset_cursor(arrivals, self.now);
                }
            }
        }
        // `parked` is a pure optimization hint ("stepping this CPU is
        // known to yield NoReadyFrame"); all-false is always safe and
        // reproduces the lockstep ledger regardless of what the
        // checkpointed machine had inferred.
        self.parked.fill(false);
        // Booked runs are scheduler bookkeeping over pre-restore state;
        // snapshots are always settled, so none can survive a restore.
        for n in &mut self.nodes {
            n.resv = None;
        }
        self.rebuild_schedule();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{drive_sequential, drive_sequential_until, SwitchSpin};
    use crate::Machine;
    use april_core::isa::asm::assemble;
    use april_net::topology::Topology;
    use april_obs::TraceConfig;

    fn cfg() -> MachineConfig {
        MachineConfig {
            topology: Topology::new(2, 2),
            region_bytes: 0x10000,
            ..MachineConfig::default()
        }
    }

    fn prog() -> Program {
        assemble(
            "
            movi 0x10000, r1
            movi 77, r2
            st r2, r1+0
            ld r1+0, r3
            movi 0x100, r4
            st r3, r4+0
            halt
        ",
        )
        .unwrap()
    }

    fn boot_all(m: &mut Alewife) {
        for i in 0..m.nodes.len() {
            m.nodes[i].cpu.boot(0);
        }
    }

    #[test]
    fn checkpoint_restore_roundtrips_mid_run() {
        let driver = SwitchSpin::default();
        let mut m = Alewife::new(cfg(), prog());
        m.attach_tracer(TraceConfig::default());
        boot_all(&mut m);
        drive_sequential_until(&mut m, &driver, 25, 100_000);
        assert_eq!(m.now(), 25, "capped drive lands exactly on the cycle");
        let snap = m.checkpoint().unwrap();
        assert_eq!(snap.cycle(), 25);

        let mut r = Alewife::new(cfg(), prog());
        r.attach_tracer(TraceConfig::default());
        r.restore(&snap).unwrap();
        assert_eq!(r.now(), 25);
        assert_eq!(diff_snapshots(&snap, &r.checkpoint().unwrap()), None);

        // Both continuations finish identically.
        assert_eq!(drive_sequential(&mut m, &driver, 100_000), None);
        assert_eq!(drive_sequential(&mut r, &driver, 100_000), None);
        assert_eq!(m.mem().read(0x100), april_core::word::Word(77));
        assert_eq!(r.mem().read(0x100), april_core::word::Word(77));
        assert_eq!(m.halted_cycles(), r.halted_cycles());
        assert_eq!(
            m.collect_trace().events(),
            r.collect_trace().events(),
            "post-restore trace is byte-identical"
        );
        assert_eq!(
            m.stats_report().to_json(),
            r.stats_report().to_json(),
            "post-restore stats report is byte-identical"
        );
    }

    #[test]
    fn restore_rejects_config_and_program_mismatch() {
        let mut m = Alewife::new(cfg(), prog());
        boot_all(&mut m);
        let snap = m.checkpoint().unwrap();

        let other_cfg = MachineConfig {
            mem_latency: 11,
            ..cfg()
        };
        let mut r = Alewife::new(other_cfg, prog());
        assert_eq!(r.restore(&snap), Err(SnapshotError::ConfigMismatch));

        let mut r = Alewife::new(cfg(), assemble("halt").unwrap());
        assert_eq!(r.restore(&snap), Err(SnapshotError::ProgramMismatch));
    }

    #[test]
    fn from_bytes_validates_framing() {
        let mut m = Alewife::new(cfg(), prog());
        let snap = m.checkpoint().unwrap();
        let bytes = snap.as_bytes().to_vec();
        assert_eq!(Snapshot::from_bytes(bytes.clone()).unwrap(), snap);

        assert_eq!(
            Snapshot::from_bytes(b"nope".to_vec()),
            Err(SnapshotError::Corrupt(WireError::Eof { at: 0 }))
        );
        let mut wrong_magic = bytes.clone();
        wrong_magic[8] = b'X'; // first magic byte (after the length prefix)
        assert_eq!(
            Snapshot::from_bytes(wrong_magic),
            Err(SnapshotError::BadMagic)
        );
        let mut wrong_version = bytes.clone();
        wrong_version[12] = 99;
        assert_eq!(
            Snapshot::from_bytes(wrong_version),
            Err(SnapshotError::Version(99))
        );
        let mut truncated = bytes;
        truncated.truncate(truncated.len() - 1);
        assert!(matches!(
            Snapshot::from_bytes(truncated),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn diff_names_the_first_differing_section() {
        let driver = SwitchSpin::default();
        let mut m = Alewife::new(cfg(), prog());
        boot_all(&mut m);
        let a = m.checkpoint().unwrap();
        drive_sequential_until(&mut m, &driver, 5, 100_000);
        let mut m2 = Alewife::new(cfg(), prog());
        boot_all(&mut m2);
        drive_sequential_until(&mut m2, &driver, 5, 100_000);
        let b = m2.checkpoint().unwrap();
        let d = diff_snapshots(&a, &b).expect("cycle 0 vs cycle 5 must differ");
        assert!(
            d.starts_with("section cpu@0"),
            "first difference is node 0's CPU, got: {d}"
        );
        assert_eq!(diff_snapshots(&b, &m.checkpoint().unwrap()), None);
    }

    #[test]
    fn faulted_machine_refuses_checkpoint() {
        use crate::watchdog::{MachineFault, PostMortem};
        let mut m = Alewife::new(cfg(), prog());
        m.fault = Some(MachineFault::NoForwardProgress(Box::<PostMortem>::default()));
        assert_eq!(m.checkpoint().unwrap_err(), SnapshotError::Faulted);
    }

    #[test]
    fn event_snapshot_restores_into_lockstep_machine() {
        let driver = SwitchSpin::default();
        let lcfg = MachineConfig {
            lockstep: true,
            ..cfg()
        };

        // Reference: unbroken lockstep run.
        let mut reference = Alewife::new(lcfg, prog());
        reference.attach_tracer(TraceConfig::default());
        boot_all(&mut reference);
        assert_eq!(drive_sequential(&mut reference, &driver, 100_000), None);

        // Checkpoint an event-driven run at cycle 30, restore into a
        // lockstep machine, finish there.
        let mut m = Alewife::new(cfg(), prog());
        m.attach_tracer(TraceConfig::default());
        boot_all(&mut m);
        drive_sequential_until(&mut m, &driver, 30, 100_000);
        let snap = m.checkpoint().unwrap();

        let mut l = Alewife::new(lcfg, prog());
        l.attach_tracer(TraceConfig::default());
        l.restore(&snap).unwrap();
        assert_eq!(l.now(), 30);
        assert_eq!(drive_sequential(&mut l, &driver, 100_000), None);

        assert_eq!(l.halted_cycles(), reference.halted_cycles());
        let mut t_ref = reference.collect_trace();
        let mut t_l = l.collect_trace();
        t_ref.retain_semantic();
        t_l.retain_semantic();
        assert_eq!(t_ref.events(), t_l.events());
        assert_eq!(
            reference.stats_report().to_json(),
            l.stats_report().to_json()
        );
        // The semantic state is byte-identical; only the meta lane
        // (scheduler-internal watchdog narration) may differ.
        let d = diff_snapshots(&reference.checkpoint().unwrap(), &l.checkpoint().unwrap());
        assert!(
            d.is_none() || d.as_deref() == Some("section meta@0"),
            "only the meta lane may differ across schedulers, got {d:?}"
        );
    }
}
