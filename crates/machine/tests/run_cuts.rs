//! Cuts of booked runs (DESIGN.md §13, R2 and R3). The event-driven
//! skip runs a CPU ahead through register ops, branches and cache-hit
//! loads and stores, and installs the result at the run's next visit;
//! anything that reaches the run before then must cut it at the exact
//! cycle lockstep, which never books, would have felt it. Each case
//! lands one such reach mid-run and holds the skip to lockstep:
//!
//! * an invalidation of a line the run stores to later;
//! * a run-time write to a word the run loads later;
//! * an interprocessor interrupt;
//! * a checkpoint, restored under the other scheduler.

use april_core::cpu::StepEvent;
use april_core::isa::asm::assemble;
use april_core::isa::Reg;
use april_core::program::Program;
use april_core::trap::Trap;
use april_core::word::Word;
use april_machine::alewife::Alewife;
use april_machine::config::MachineConfig;
use april_machine::driver::{
    drive_sequential, drive_sequential_until, EventCtx, NodeDriver, SwitchSpin,
};
use april_machine::snapshot::diff_snapshots;
use april_machine::{Machine, Snapshot};
use april_net::topology::Topology;
use std::cell::RefCell;

const MAX: u64 = 1_000_000;

/// A 2x2 mesh; node 0 is home to addresses below 0x10000.
fn cfg(lockstep: bool) -> MachineConfig {
    MachineConfig {
        topology: Topology::new(2, 2),
        region_bytes: 0x10000,
        lockstep,
        ..MachineConfig::default()
    }
}

fn boot(lockstep: bool, prog: &Program) -> Alewife {
    let mut m = Alewife::new(cfg(lockstep), prog.clone());
    m.boot_all();
    m
}

/// Asserts two machines hold the same state, naming the first section
/// that differs.
fn assert_same(lockstep: &mut Alewife, skip: &mut Alewife, who: &str) {
    assert_eq!(lockstep.now(), skip.now(), "{who}: clocks");
    let (a, b) = (lockstep.checkpoint().unwrap(), skip.checkpoint().unwrap());
    assert_eq!(diff_snapshots(&a, &b), None, "{who}");
}

/// Node 0 owns block 0x100 and loops storing to it between register
/// ops; node 1 waits, then writes the block, so node 0's home takes
/// the dirty line back in the middle of a run that stores to it again
/// later.
#[test]
fn an_invalidation_cuts_a_run_that_stores_to_the_line_later() {
    let prog = assemble(
        "
        .entry main
        main:
            ldio 1, r8          ; 4 * node id
            movi 0x100, r9
            or r8, 0, r8
            jne other
            nop
            st r8, r9+0         ; node 0 owns the line
            movi 300, r10
        loop0:
            add r1, 4, r1
            xor r2, r1, r2
            add r3, r2, r3
            st r1, r9+4
            add r4, r3, r4
            sub r10, 1, r10
            jne loop0
            nop
            halt
        other:
            sub r8, 4, r7
            jne done
            nop
            movi 150, r10
        wait1:
            sub r10, 1, r10
            jne wait1
            nop
            st r8, r9+8         ; node 1 writes the line
        done:
            halt
        ",
    )
    .unwrap();
    let mut lock = boot(true, &prog);
    let mut skip = boot(false, &prog);
    for m in [&mut lock, &mut skip] {
        assert_eq!(drive_sequential(m, &SwitchSpin::default(), MAX), None);
    }
    let lost = lock.nodes[0].ctl.stats;
    assert!(lost.invals + lost.writebacks > 0, "node 0 lost the line");
    assert_same(&mut lock, &mut skip, "final state");
}

/// Node 0 loops loading one word of its own cache; the run-time writes
/// that word behind the cache's back at cycle 200, in the middle of a
/// run whose later loads must see the new value.
#[test]
fn a_run_time_write_cuts_a_run_that_loads_the_word_later() {
    let prog = assemble(
        "
        .entry main
        main:
            ldio 1, r8
            or r8, 0, r8
            jne done
            nop
            movi 0x200, r9
            ld r9+0, r5         ; fill the line
            movi 200, r10
        loop0:
            ld r9+0, r5
            add r6, r5, r6
            sub r10, 1, r10
            jne loop0
            nop
        done:
            halt
        ",
    )
    .unwrap();
    let run = |lockstep: bool| {
        let mut m = boot(lockstep, &prog);
        let driver = SwitchSpin::default();
        assert_eq!(drive_sequential_until(&mut m, &driver, 200, MAX), None);
        m.mem_mut().write(0x200, Word::fixnum(7));
        assert_eq!(drive_sequential(&mut m, &driver, MAX), None);
        m
    };
    let (mut lock, mut skip) = (run(true), run(false));
    let sum = lock.cpu(0).get_reg(Reg::L(6));
    assert!(sum != Word::ZERO, "node 0 saw the write");
    assert_same(&mut lock, &mut skip, "final state");
}

/// Answers interrupts by logging the interrupted frame's loop counter,
/// and everything else as [`SwitchSpin`] does.
#[derive(Default)]
struct LogInterrupts {
    seen: RefCell<Vec<(usize, Word)>>,
}

impl NodeDriver for LogInterrupts {
    fn on_event(&self, node: usize, ev: StepEvent, ctx: &mut dyn EventCtx) {
        match ev {
            StepEvent::Trapped(Trap::Interrupt { .. }) => {
                let cpu = ctx.cpu();
                self.seen.borrow_mut().push((node, cpu.get_reg(Reg::L(10))));
                let fp = cpu.fp();
                cpu.frame_mut(fp).psr.in_trap = false;
                ctx.charge_handler(5);
            }
            ev => SwitchSpin::default().on_event(node, ev, ctx),
        }
    }
}

/// Node 1 interrupts node 0 while node 0 is in the middle of a run of
/// register ops and branches: the interrupt is taken between the same
/// two instructions under both schedulers.
#[test]
fn an_interrupt_cuts_a_run_between_the_same_two_instructions() {
    let prog = assemble(
        "
        .entry main
        main:
            ldio 1, r8
            movi 400, r10
            or r8, 0, r8
            jne other
            nop
        loop0:
            add r1, 4, r1
            xor r2, r1, r2
            sub r10, 1, r10
            jne loop0
            nop
            halt
        other:
            sub r8, 4, r7
            jne done
            nop
            movi 77, r10
        wait1:
            sub r10, 1, r10
            jne wait1
            nop
            stio g0, 3          ; interrupt node 0
        done:
            halt
        ",
    )
    .unwrap();
    let run = |lockstep: bool| {
        let mut m = boot(lockstep, &prog);
        let driver = LogInterrupts::default();
        assert_eq!(drive_sequential(&mut m, &driver, MAX), None);
        (m, driver.seen.into_inner())
    };
    let ((mut lock, a), (mut skip, b)) = (run(true), run(false));
    assert_eq!(a.len(), 1, "one interrupt");
    assert_eq!(a, b, "interrupted at another instruction");
    assert_same(&mut lock, &mut skip, "final state");
}

/// The loads and stores of a checkpointed run, at several cuts: a
/// checkpoint settles the booked run mid-flight, and a restore under
/// the other scheduler resumes exactly where lockstep would be.
#[test]
fn a_checkpoint_cuts_a_run_and_restores_under_the_other_scheduler() {
    let prog = assemble(
        "
        .entry main
        main:
            ldio 1, r8
            add r8, r8, r9
            add r9, r9, r9      ; 16 * id: one block per node
            movi 0x400, r11
            add r11, r9, r11
            st r8, r11+0        ; own a block
            movi 120, r10
        loop:
            ld r11+0, r5
            add r5, 4, r5
            st r5, r11+4
            ldett r11+0, r6     ; empty the word...
            stfnt r6, r11+0     ; ...and fill it again
            add r1, r5, r1
            sub r10, 1, r10
            jne loop
            nop
            halt
        ",
    )
    .unwrap();
    let driver = SwitchSpin::default();
    let mut reference = boot(true, &prog);
    assert_eq!(drive_sequential(&mut reference, &driver, MAX), None);
    let end: Snapshot = reference.checkpoint().unwrap();
    for cut in [37, 101, 333, 700] {
        for from_lockstep in [false, true] {
            let mut m = boot(from_lockstep, &prog);
            assert_eq!(drive_sequential_until(&mut m, &driver, cut, MAX), None);
            let snap = m.checkpoint().unwrap();
            let mut r = Alewife::new(cfg(!from_lockstep), prog.clone());
            r.restore(&snap).unwrap();
            for m in [&mut m, &mut r] {
                assert_eq!(drive_sequential(m, &driver, MAX), None);
                let who = format!("cut {cut}, checkpointed under lockstep: {from_lockstep}");
                assert_eq!(
                    diff_snapshots(&m.checkpoint().unwrap(), &end),
                    None,
                    "{who}"
                );
            }
        }
    }
}
