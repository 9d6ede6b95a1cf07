//! Directory-representation equivalence: sparse directories are a
//! *performance* representation, never a *semantic* one (DESIGN.md §14).
//!
//! Four suites:
//!
//! 1. A seeded property test drives random coherence traffic through
//!    all three directory kinds — full-map, limited-pointer (broadcast
//!    on overflow), coarse-vector — on a 9-node mesh with caps small
//!    enough that overflow *is* exercised, and asserts the final
//!    memory image and the retired-instruction stream of every CPU are
//!    identical. The generated programs are branch-free and every
//!    memory word has a single writer whose value sequence is
//!    immediate-derived, so those observables are timing-independent
//!    by construction: any divergence is a protocol bug introduced by
//!    the sparse representation.
//! 2. A mid-run checkpoint/restore round-trip per directory kind: the
//!    snapshot cut lands while imprecise sharer sets and lazy memory
//!    holes are live, and the restored machine's re-encoded checkpoint
//!    must be a byte fixed point.
//! 3. The cross-kind acceptance gate: with caps no overflow can reach
//!    (≤ 8 sharers on a 4-node machine), the sparse kinds must be
//!    **bit-identical** to full-map — semantic trace, statistics
//!    report, and final memory — across the lockstep and
//!    event-skipping schedulers, under two fault-injection seeds.
//! 4. The size the sparse kinds exist for (release builds only): a
//!    1089-node read fan-in halts at the same final cycle under all
//!    three kinds, the sparse ones in less directory storage.

use april_core::program::Program;
use april_machine::alewife::Alewife;
use april_machine::config::MachineConfig;
use april_machine::driver::{drive_sequential, drive_sequential_until, SwitchSpin};
use april_machine::Machine;
use april_mem::DirectoryKind;
use april_net::fault::{FaultPlan, FaultRule};
use april_net::topology::Topology;
use april_obs::{Event, Trace, TraceConfig};
use april_util::Rng;

const MAX: u64 = 3_000_000;

/// The three kinds under test, with caps small enough that a 9-node
/// machine overflows both sparse representations.
const SPARSE_KINDS: [DirectoryKind; 2] = [
    DirectoryKind::LimitedPtr { ptrs: 2 },
    DirectoryKind::CoarseVector { region: 2 },
];

fn cfg9(kind: DirectoryKind) -> MachineConfig {
    let mut c = MachineConfig {
        topology: Topology::new(2, 3), // 9 nodes: enough sharers to spill inline storage
        region_bytes: 0x1000,
        ..MachineConfig::default()
    };
    c.dir.kind = kind;
    c
}

/// A random branch-free program, identical on every node, whose
/// node-visible behaviour diverges only through `ldio 1` (the node-id
/// byte offset):
///
/// * stores go to the executing node's own word inside one of three
///   falsely-shared 36-byte spans (single writer per word, value
///   register `r10` evolves by immediates only — final contents are a
///   pure function of the program text);
/// * loads hit either another node's word (creating read-sharing on
///   the written blocks, so overflowed sets get invalidated) or a
///   never-written remote pool block (so sharer sets grow to all nine
///   nodes and overflow the sparse caps); loaded values land in a
///   sink register and never flow back into memory.
fn random_program(rng: &mut Rng) -> Program {
    let mut s = String::from(
        "
        .entry main
        main:
            ldio 1, r8         ; node id (fixnum == 4*id: byte offset!)
            movi 0x200, r1
            add r1, r8, r1     ; my word in span A
            movi 0x240, r2
            add r2, r8, r2     ; my word in span B
            movi 0x280, r3
            add r3, r8, r3     ; my word in span C
            movi 0x200, r5     ; span bases: everyone reads node 0's words
            movi 0x240, r6
            movi 0x280, r7
            movi 0x1000, r4    ; read-only pool blocks, one per remote region
            movi 0x2000, r12
            movi 0x3000, r13
            movi 4, r10        ; the (deterministic) value register
        ",
    );
    let ops = 24 + rng.gen_index(33);
    for _ in 0..ops {
        match rng.gen_index(8) {
            0 | 1 => {
                let span = 1 + rng.gen_index(3);
                s.push_str(&format!("    st r10, r{span}+0\n"));
            }
            2 | 3 => {
                let span = 5 + rng.gen_index(3);
                s.push_str(&format!("    ld r{span}+0, r11\n"));
            }
            4 | 5 => {
                let pool = [4, 12, 13][rng.gen_index(3)];
                let off = 4 * rng.gen_index(4);
                s.push_str(&format!("    ld r{pool}+{off}, r11\n"));
            }
            6 => s.push_str("    add r10, 4, r10\n"),
            _ => {
                let v = 4 * (1 + rng.gen_index(64));
                s.push_str(&format!("    movi {v}, r10\n"));
            }
        }
    }
    s.push_str("    halt\n");
    april_core::isa::asm::assemble(&s).unwrap()
}

/// Boots and runs a program to quiescence on the event-skipping
/// scheduler.
fn run_cfg(cfg: MachineConfig, prog: &Program) -> Alewife {
    let kind = cfg.dir.kind;
    let mut m = Alewife::new(cfg, prog.clone());
    m.boot_all();
    drive_sequential(&mut m, &SwitchSpin::default(), MAX);
    assert!(m.fault().is_none(), "{kind:?}: machine faulted");
    assert!(m.all_halted(), "{kind:?}: watchdog horizon reached");
    m
}

/// [`run_cfg`] on the 9-node mesh under the given directory kind.
fn run_kind(kind: DirectoryKind, prog: &Program) -> Alewife {
    run_cfg(cfg9(kind), prog)
}

fn assert_same_memory(a: &april_mem::femem::FeMemory, b: &april_mem::femem::FeMemory, who: &str) {
    assert_eq!(a.len_bytes(), b.len_bytes());
    for addr in (0..a.len_bytes() as u32).step_by(4) {
        assert_eq!(
            a.word_state(addr),
            b.word_state(addr),
            "{who}: memory diverged at {addr:#x}"
        );
    }
}

fn total_overflows(m: &Alewife) -> u64 {
    m.nodes.iter().map(|n| n.dir.stats.overflows).sum()
}

/// The retired-instruction stream of each CPU, as the pair of
/// architectural counters that fully determine it for a branch-free
/// program: instructions retired and memory operations completed.
fn retired(m: &Alewife) -> Vec<(u64, u64)> {
    (0..m.num_procs())
        .map(|i| (m.cpu(i).stats.instructions, m.cpu(i).stats.mem_ops))
        .collect()
}

#[test]
fn sparse_kinds_match_full_map_over_random_traffic() {
    let mut rng = Rng::seed_from(0x0d12);
    let mut sparse_overflows = [0u64; 2];
    for case in 0..100 {
        let prog = random_program(&mut rng);
        let reference = run_kind(DirectoryKind::FullMap, &prog);
        assert_eq!(
            total_overflows(&reference),
            0,
            "full-map must never count an overflow"
        );
        for (k, kind) in SPARSE_KINDS.into_iter().enumerate() {
            let m = run_kind(kind, &prog);
            assert_eq!(
                retired(&reference),
                retired(&m),
                "case {case}, {kind:?}: retired-instruction streams diverged"
            );
            assert_same_memory(reference.mem(), m.mem(), &format!("case {case}, {kind:?}"));
            sparse_overflows[k] += total_overflows(&m);
        }
    }
    // The point of the small caps is to exercise the imprecise paths:
    // across 100 cases both sparse kinds must actually overflow.
    for (k, kind) in SPARSE_KINDS.into_iter().enumerate() {
        assert!(
            sparse_overflows[k] > 0,
            "{kind:?}: the soak never overflowed — caps too generous to test anything"
        );
    }
}

#[test]
fn checkpoints_round_trip_under_every_directory_kind() {
    let mut rng = Rng::seed_from(0x0d13);
    let prog = random_program(&mut rng);
    for kind in [
        DirectoryKind::FullMap,
        DirectoryKind::LimitedPtr { ptrs: 2 },
        DirectoryKind::CoarseVector { region: 2 },
    ] {
        // Run the reference to quiescence.
        let mut reference = Alewife::new(cfg9(kind), prog.clone());
        for i in 0..reference.num_procs() {
            reference.cpu_mut(i).boot(0);
        }
        drive_sequential(&mut reference, &SwitchSpin::default(), MAX);
        assert!(reference.all_halted());

        // Cut an identical run mid-protocol and checkpoint.
        let mut cut = Alewife::new(cfg9(kind), prog.clone());
        for i in 0..cut.num_procs() {
            cut.cpu_mut(i).boot(0);
        }
        drive_sequential_until(&mut cut, &SwitchSpin::default(), 300, MAX);
        let snap = cut.checkpoint().unwrap();

        // Restoring and re-encoding must be a byte fixed point even
        // with imprecise sharer sets and memory holes in the image.
        let mut resumed = Alewife::new(cfg9(kind), prog.clone());
        resumed.restore(&snap).unwrap();
        let again = resumed.checkpoint().unwrap();
        assert_eq!(
            april_machine::diff_snapshots(&snap, &again),
            None,
            "{kind:?}: restore→checkpoint is not a byte fixed point"
        );

        // And the resumed run must land exactly where the unbroken
        // one did.
        drive_sequential(&mut resumed, &SwitchSpin::default(), MAX);
        assert!(resumed.all_halted());
        assert_eq!(
            retired(&reference),
            retired(&resumed),
            "{kind:?}: resumed run retired differently"
        );
        assert_same_memory(reference.mem(), resumed.mem(), &format!("{kind:?} resume"));
    }
}

// ---------------------------------------------------------------------------
// Cross-kind bit-identity on the scheduler equivalence suite.
// ---------------------------------------------------------------------------

fn cfg4(kind: DirectoryKind) -> MachineConfig {
    let mut c = MachineConfig {
        topology: Topology::new(2, 2),
        region_bytes: 1 << 20,
        ..MachineConfig::default()
    };
    c.dir.kind = kind;
    c
}

/// The false-sharing increment stress from the scheduler suite: four
/// nodes each increment their own word of one shared block 50 times.
fn stress() -> Program {
    april_core::isa::asm::assemble(
        "
        .entry main
        main:
            ldio 1, r8         ; node id (fixnum == 4*id: byte offset!)
            movi 0x200, r9
            add r9, r8, r9     ; my word within the shared block
            movi 50, r10
        loop:
            ld r9+0, r11
            add r11, 4, r11    ; increment (fixnum +1)
            st r11, r9+0
            sub r10, 1, r10
            jne loop
            nop
            halt
        ",
    )
    .unwrap()
}

fn plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed).with_default_rule(FaultRule {
        drop: 0.02,
        dup: 0.02,
        delay: 0.04,
        max_delay: 40,
    })
}

fn semantic(t: Trace) -> Vec<Event> {
    let mut t = t;
    t.retain_semantic();
    t.events().to_vec()
}

fn run_seq(kind: DirectoryKind, seed: u64, lockstep: bool) -> Alewife {
    let mut m = Alewife::new(
        MachineConfig {
            lockstep,
            ..cfg4(kind)
        },
        stress(),
    );
    m.attach_tracer(TraceConfig::default());
    m.set_fault_plan(plan(seed));
    for i in 0..m.num_procs() {
        m.cpu_mut(i).boot(0);
    }
    drive_sequential(&mut m, &SwitchSpin::default(), MAX);
    assert!(m.fault().is_none());
    m
}

/// With sharer counts that fit the inline pointer array (a 4-node
/// machine can have at most 4 sharers), the sparse kinds must send the
/// exact same protocol messages as full-map — so the entire observable
/// machine is bit-identical: semantic trace, stats report, memory.
/// Verified across both schedulers, under two fault seeds.
#[test]
fn sparse_kinds_are_bit_identical_below_their_caps() {
    let kinds = [
        DirectoryKind::LimitedPtr { ptrs: 8 },
        DirectoryKind::CoarseVector { region: 64 },
    ];
    for seed in [0x50a1, 0xa1ce] {
        let reference = run_seq(DirectoryKind::FullMap, seed, false);
        let ref_trace = semantic(reference.collect_trace());
        let ref_report = reference.stats_report().to_json();

        for kind in kinds {
            // Event-skipping sequential.
            let skip = run_seq(kind, seed, false);
            assert_eq!(
                semantic(skip.collect_trace()),
                ref_trace,
                "seed {seed:#x}, {kind:?} skip: trace diverged from full-map"
            );
            assert_eq!(
                skip.stats_report().to_json(),
                ref_report,
                "seed {seed:#x}, {kind:?} skip: stats diverged from full-map"
            );
            assert_same_memory(
                reference.mem(),
                skip.mem(),
                &format!("seed {seed:#x}, {kind:?} skip"),
            );

            // Lockstep sequential.
            let lock = run_seq(kind, seed, true);
            assert_eq!(
                semantic(lock.collect_trace()),
                ref_trace,
                "seed {seed:#x}, {kind:?} lockstep: trace diverged from full-map"
            );
            assert_eq!(
                lock.stats_report().to_json(),
                ref_report,
                "seed {seed:#x}, {kind:?} lockstep: stats diverged from full-map"
            );
            assert_same_memory(
                reference.mem(),
                lock.mem(),
                &format!("seed {seed:#x}, {kind:?} lockstep"),
            );
        }
    }
}

/// The 1000+-node regime (DESIGN.md §14): every node of a 33×33 mesh
/// writes one private word and reads one block homed at node 0, so the
/// block's sharer set grows to all 1089 nodes. Nothing is written
/// after a set overflows, so the sparse kinds send exactly full-map's
/// messages and must halt at the same final cycle, in less directory
/// storage. Release only (`scripts/ci.sh` runs it): a debug build
/// takes seconds, out of tier-1's budget.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn kinds_agree_on_the_final_cycle_at_1089_nodes() {
    let prog = april_core::isa::asm::assemble(
        "
        .entry main
        main:
            ldio 1, r8         ; node id (fixnum == 4*id: byte offset!)
            add r8, r8, r8     ; 8*id
            add r8, r8, r8     ; 16*id: one whole block per node
            movi 0x1000, r9
            add r9, r8, r9     ; my private block, nobody else's
            movi 4, r10
            st r10, r9+0
            movi 0x200, r4
            ld r4+0, r11       ; the block everyone shares
            halt
        ",
    )
    .unwrap();
    let run = |kind: DirectoryKind| {
        let mut cfg = MachineConfig {
            topology: Topology::new(2, 33),
            region_bytes: 0x1_0000,
            ..MachineConfig::default()
        };
        cfg.dir.kind = kind;
        let m = run_cfg(cfg, &prog);
        let out = (
            m.now(),
            m.nodes.iter().map(|n| n.dir.state_bytes()).sum::<usize>(),
        );
        println!("{kind:?}: (final cycle, directory bytes) = {out:?}");
        out
    };
    let (full_cycle, full_bytes) = run(DirectoryKind::FullMap);
    for kind in [
        DirectoryKind::LimitedPtr { ptrs: 8 },
        DirectoryKind::CoarseVector { region: 64 },
    ] {
        let (cycle, bytes) = run(kind);
        assert_eq!(cycle, full_cycle, "{kind:?}: final cycle");
        assert!(bytes < full_bytes, "{kind:?}: directory bytes");
    }
}
