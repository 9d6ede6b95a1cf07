//! Program images and a label-resolving builder.
//!
//! A [`Program`] is the output of the assembler or the Mul-T compiler:
//! a text segment of [`Instr`]s (addressed by word index), an entry
//! point, and an optional static data image placed at a fixed base
//! address in the machine's data memory.

use crate::isa::{Cond, Instr, Operand, Reg};
use crate::word::Word;
use std::collections::BTreeMap;
use std::fmt;

/// A fully linked APRIL program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// Text segment; instruction addresses are indices into this.
    pub instrs: Vec<Instr>,
    /// Entry point (index into `instrs`).
    pub entry: u32,
    /// Byte address where `static_data` is loaded.
    pub static_base: u32,
    /// Static data image: `(word, full_bit)` pairs, one per word
    /// starting at `static_base`.
    pub static_data: Vec<(Word, bool)>,
    /// Label table for diagnostics and test harnesses.
    pub labels: BTreeMap<String, u32>,
}

impl Program {
    /// The instruction at `pc`, or `None` past the end; borrowed, so
    /// the hot path does not copy the enum out of the text segment.
    #[inline]
    pub fn fetch_ref(&self, pc: u32) -> Option<&Instr> {
        self.instrs.get(pc as usize)
    }

    /// Looks up a label's address.
    pub fn label(&self, name: &str) -> Option<u32> {
        self.labels.get(name).copied()
    }

    /// Number of instructions in the text segment.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True if the text segment is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

/// Errors from program construction or assembly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A referenced label was never defined.
    UndefinedLabel(String),
    /// A label was defined twice.
    DuplicateLabel(String),
    /// A branch target is out of the encodable offset range.
    BranchOutOfRange {
        /// The branch instruction's address.
        at: u32,
        /// The target label.
        label: String,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            BuildError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            BuildError::BranchOutOfRange { at, label } => {
                write!(f, "branch at {at} to `{label}` out of range")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// What a fixup patches once the label is known.
#[derive(Debug, Clone)]
enum FixupKind {
    /// PC-relative branch offset.
    Branch,
    /// Absolute code address into a `MovI` immediate.
    MovI,
    /// Absolute code address into a static data word.
    DataWord(usize),
}

/// Incremental builder used by the assembler and the compiler.
///
/// # Examples
///
/// ```
/// use april_core::program::ProgramBuilder;
/// use april_core::isa::{Cond, Instr, Reg, Operand, AluOp};
///
/// let mut b = ProgramBuilder::new();
/// b.label("start");
/// b.emit(Instr::Nop);
/// b.branch_to(Cond::Always, "start");
/// b.emit(Instr::Nop); // delay slot
/// let prog = b.finish()?;
/// assert_eq!(prog.label("start"), Some(0));
/// # Ok::<(), april_core::program::BuildError>(())
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    instrs: Vec<Instr>,
    labels: BTreeMap<String, u32>,
    fixups: Vec<(u32, String, FixupKind)>,
    entry: u32,
    static_base: u32,
    static_data: Vec<(Word, bool)>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// Current emission address.
    pub fn here(&self) -> u32 {
        self.instrs.len() as u32
    }

    /// Appends an instruction, returning its address.
    pub fn emit(&mut self, i: Instr) -> u32 {
        let at = self.here();
        self.instrs.push(i);
        at
    }

    /// Defines `name` at the current address.
    ///
    /// # Panics
    ///
    /// Panics on duplicate definition (a compiler bug, not user input).
    pub fn label(&mut self, name: &str) {
        let at = self.here();
        if self.labels.insert(name.to_string(), at).is_some() {
            panic!("duplicate label `{name}`");
        }
    }

    /// True if `name` has been defined.
    pub fn has_label(&self, name: &str) -> bool {
        self.labels.contains_key(name)
    }

    /// Emits a conditional branch to a label (resolved at `finish`).
    /// The caller must emit the delay-slot instruction next.
    pub fn branch_to(&mut self, cond: Cond, target: &str) -> u32 {
        let at = self.emit(Instr::Branch { cond, offset: 0 });
        self.fixups
            .push((at, target.to_string(), FixupKind::Branch));
        at
    }

    /// Emits a `MovI` whose immediate is the address of a label.
    pub fn movi_label(&mut self, target: &str, d: Reg) -> u32 {
        let at = self.emit(Instr::MovI { imm: 0, d });
        self.fixups.push((at, target.to_string(), FixupKind::MovI));
        at
    }

    /// Emits a call: `MovI target` + `Jmpl` + delay-slot `Nop`, linking
    /// in `link`. Uses `scratch` for the target address.
    pub fn call(&mut self, target: &str, link: Reg, scratch: Reg) {
        self.movi_label(target, scratch);
        self.emit(Instr::Jmpl {
            s1: scratch,
            s2: Operand::Imm(0),
            d: link,
        });
        self.emit(Instr::Nop);
    }

    /// Sets the entry point to a label (resolved at `finish`).
    pub fn entry(&mut self, label: &str) {
        // Stored as a pseudo-fixup by name; resolved in finish().
        self.fixups
            .push((u32::MAX, label.to_string(), FixupKind::MovI));
        self.entry = u32::MAX;
    }

    /// Sets the static data segment.
    pub fn static_segment(&mut self, base: u32, data: Vec<(Word, bool)>) {
        assert_eq!(base % 8, 0, "static base must be 8-byte aligned");
        self.static_base = base;
        self.static_data = data;
    }

    /// Appends one word to the static segment, returning its byte
    /// address. The segment base must already be set.
    pub fn push_static(&mut self, w: Word, full: bool) -> u32 {
        let addr = self.static_base + 4 * self.static_data.len() as u32;
        self.static_data.push((w, full));
        addr
    }

    /// Stores the address of `label` into static data slot `index`
    /// (for code pointers in closure templates).
    pub fn static_code_ref(&mut self, index: usize, label: &str) {
        self.fixups
            .push((0, label.to_string(), FixupKind::DataWord(index)));
    }

    /// Resolves all fixups and produces the program.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::UndefinedLabel`] if a referenced label was
    /// never defined.
    pub fn finish(mut self) -> Result<Program, BuildError> {
        let mut entry = if self.entry == u32::MAX {
            None
        } else {
            Some(self.entry)
        };
        for (at, name, kind) in std::mem::take(&mut self.fixups) {
            let target = *self
                .labels
                .get(&name)
                .ok_or_else(|| BuildError::UndefinedLabel(name.clone()))?;
            if at == u32::MAX {
                entry = Some(target);
                continue;
            }
            match kind {
                FixupKind::Branch => {
                    let offset = target as i64 - at as i64;
                    if offset.unsigned_abs() > i32::MAX as u64 {
                        return Err(BuildError::BranchOutOfRange { at, label: name });
                    }
                    match &mut self.instrs[at as usize] {
                        Instr::Branch { offset: o, .. } => *o = offset as i32,
                        other => unreachable!("branch fixup on {other:?}"),
                    }
                }
                FixupKind::MovI => match &mut self.instrs[at as usize] {
                    Instr::MovI { imm, .. } => *imm = target,
                    other => unreachable!("movi fixup on {other:?}"),
                },
                FixupKind::DataWord(idx) => {
                    self.static_data[idx].0 = Word(target);
                }
            }
        }
        Ok(Program {
            instrs: self.instrs,
            entry: entry.unwrap_or(0),
            static_base: self.static_base,
            static_data: self.static_data,
            labels: self.labels,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::AluOp;

    #[test]
    fn branch_fixup_resolves_backward_and_forward() {
        let mut b = ProgramBuilder::new();
        b.label("top");
        b.emit(Instr::Nop);
        b.branch_to(Cond::Always, "bottom"); // at 1
        b.emit(Instr::Nop);
        b.branch_to(Cond::Eq, "top"); // at 3
        b.emit(Instr::Nop);
        b.label("bottom");
        b.emit(Instr::Halt);
        let p = b.finish().unwrap();
        assert_eq!(
            p.instrs[1],
            Instr::Branch {
                cond: Cond::Always,
                offset: 4
            }
        );
        assert_eq!(
            p.instrs[3],
            Instr::Branch {
                cond: Cond::Eq,
                offset: -3
            }
        );
    }

    #[test]
    fn undefined_label_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.branch_to(Cond::Always, "nowhere");
        assert_eq!(
            b.finish().unwrap_err(),
            BuildError::UndefinedLabel("nowhere".to_string())
        );
    }

    #[test]
    #[should_panic(expected = "duplicate label")]
    fn duplicate_label_panics() {
        let mut b = ProgramBuilder::new();
        b.label("x");
        b.label("x");
    }

    #[test]
    fn entry_resolves_to_label() {
        let mut b = ProgramBuilder::new();
        b.emit(Instr::Nop);
        b.label("main");
        b.emit(Instr::Alu {
            op: AluOp::Add,
            s1: Reg::ZERO,
            s2: Operand::Imm(1),
            d: Reg::L(1),
            tagged: false,
        });
        b.entry("main");
        let p = b.finish().unwrap();
        assert_eq!(p.entry, 1);
    }

    #[test]
    fn movi_label_patches_code_address() {
        let mut b = ProgramBuilder::new();
        b.movi_label("f", Reg::L(2));
        b.emit(Instr::Halt);
        b.label("f");
        b.emit(Instr::Nop);
        let p = b.finish().unwrap();
        assert_eq!(
            p.instrs[0],
            Instr::MovI {
                imm: 2,
                d: Reg::L(2)
            }
        );
    }

    #[test]
    fn static_segment_and_code_ref() {
        let mut b = ProgramBuilder::new();
        b.static_segment(0x100, vec![(Word::fixnum(1), true)]);
        let a = b.push_static(Word::ZERO, false);
        assert_eq!(a, 0x104);
        b.static_code_ref(1, "fun");
        b.label("fun");
        b.emit(Instr::Nop);
        let p = b.finish().unwrap();
        assert_eq!(p.static_data[1].0, Word(0));
        assert_eq!(p.static_base, 0x100);
    }

    #[test]
    fn fetch_past_end_is_none() {
        let p = Program::default();
        assert_eq!(p.fetch_ref(0), None);
        assert!(p.is_empty());
    }
}
