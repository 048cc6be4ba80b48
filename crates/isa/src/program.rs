//! Programs and the assembler-like builder DSL.

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::IsaError;
use crate::instr::{AluKind, AmoKind, BranchKind, FpKind, Instr, MemWidth, Op, Src2};
use crate::reg::{FReg, Reg};

/// Base byte address of the text segment.
pub const TEXT_BASE: u64 = 0x8000_0000;
/// Base byte address of the statically allocated data segment.
pub const DATA_BASE: u64 = 0x9000_0000;

/// A fully resolved program: instruction text plus an initial data image.
#[derive(Clone, Debug)]
pub struct Program {
    name: String,
    code: Arc<[Op]>,
    data: Vec<(u64, Vec<u8>)>,
    labels: HashMap<String, u32>,
}

/// The byte PC of static instruction `index`.
#[inline]
pub(crate) fn text_pc(index: u32) -> u64 {
    TEXT_BASE + 4 * index as u64
}

impl Program {
    /// The program's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instruction text.
    pub fn code(&self) -> &[Op] {
        &self.code
    }

    /// A shared handle to the instruction text, which a [`DynStream`]
    /// keeps to decode its records.
    ///
    /// [`DynStream`]: crate::DynStream
    pub(crate) fn code_arc(&self) -> Arc<[Op]> {
        Arc::clone(&self.code)
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the program has no instructions (never true for a built
    /// program; builders reject empty programs).
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// The initial data image as `(base address, bytes)` chunks.
    pub fn data(&self) -> &[(u64, Vec<u8>)] {
        &self.data
    }

    /// The byte PC of instruction `index`.
    pub fn pc_of(&self, index: u32) -> u64 {
        text_pc(index)
    }

    /// The instruction index of byte address `pc`, if it is in the text
    /// segment.
    pub fn index_of(&self, pc: u64) -> Option<u32> {
        if pc < TEXT_BASE || !(pc - TEXT_BASE).is_multiple_of(4) {
            return None;
        }
        let idx = (pc - TEXT_BASE) / 4;
        (idx < self.code.len() as u64).then_some(idx as u32)
    }

    /// Looks up a label's instruction index.
    pub fn label(&self, name: &str) -> Option<u32> {
        self.labels.get(name).copied()
    }

    /// The label at or closest before `pc`, with its byte PC — the
    /// symbolization a sampling profiler wants. Ties at the same index
    /// resolve alphabetically for determinism.
    pub fn label_at_or_before(&self, pc: u64) -> Option<(&str, u64)> {
        let idx = self.index_of(pc.min(self.pc_of(self.code.len() as u32 - 1)))?;
        self.labels
            .iter()
            .filter(|(_, i)| **i <= idx)
            .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
            .map(|(name, i)| (name.as_str(), self.pc_of(*i)))
    }

    /// The static instruction at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn instr(&self, index: u32) -> Instr {
        Instr {
            index,
            op: self.code[index as usize],
        }
    }

    /// A human-readable disassembly: one line per instruction with its
    /// byte PC, with label names interleaved.
    pub fn disassemble(&self) -> String {
        use std::fmt::Write;
        // Invert the label map for printing.
        let mut labels_at: HashMap<u32, Vec<&str>> = HashMap::new();
        for (name, idx) in &self.labels {
            labels_at.entry(*idx).or_default().push(name);
        }
        let mut out = String::new();
        for (i, op) in self.code.iter().enumerate() {
            if let Some(names) = labels_at.get(&(i as u32)) {
                let mut sorted = names.clone();
                sorted.sort_unstable();
                for name in sorted {
                    let _ = writeln!(out, "{name}:");
                }
            }
            let _ = writeln!(out, "  {:#010x}: {op}", self.pc_of(i as u32));
        }
        out
    }
}

/// Incrementally builds a [`Program`] with an assembler-like interface.
///
/// Forward references to labels are allowed; they are resolved by
/// [`ProgramBuilder::build`].
///
/// ```
/// use icicle_isa::{ProgramBuilder, Reg};
/// let mut b = ProgramBuilder::new("demo");
/// let buf = b.alloc_data(64);
/// b.li(Reg::T0, buf as i64);
/// b.sd(Reg::ZERO, Reg::T0, 0);
/// b.halt();
/// let p = b.build().unwrap();
/// assert_eq!(p.len(), 3);
/// ```
#[derive(Clone, Debug)]
pub struct ProgramBuilder {
    name: String,
    code: Vec<Op>,
    data: Vec<(u64, Vec<u8>)>,
    labels: HashMap<String, u32>,
    fixups: Vec<(usize, String)>,
    data_cursor: u64,
}

impl ProgramBuilder {
    /// Creates an empty builder for a program called `name`.
    pub fn new(name: impl Into<String>) -> ProgramBuilder {
        ProgramBuilder {
            name: name.into(),
            code: Vec::new(),
            data: Vec::new(),
            labels: HashMap::new(),
            fixups: Vec::new(),
            data_cursor: DATA_BASE,
        }
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether no instructions have been emitted yet.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Defines a label at the current position.
    ///
    /// Duplicate definitions are reported by [`build`](Self::build).
    pub fn label(&mut self, name: impl Into<String>) -> &mut Self {
        let name = name.into();
        let here = self.code.len() as u32;
        if self.labels.insert(name.clone(), here).is_some() {
            // Remember the duplicate; build() reports it.
            self.fixups.push((usize::MAX, name));
        }
        self
    }

    /// Reserves `bytes` of zero-initialized data, 64-byte aligned, and
    /// returns its base address.
    pub fn alloc_data(&mut self, bytes: u64) -> u64 {
        let base = (self.data_cursor + 63) & !63;
        self.data_cursor = base + bytes;
        base
    }

    /// Places `bytes` in the data segment and returns the base address.
    pub fn data_bytes(&mut self, bytes: &[u8]) -> u64 {
        let base = self.alloc_data(bytes.len() as u64);
        self.data.push((base, bytes.to_vec()));
        base
    }

    /// Places a slice of `u64` words in the data segment, little-endian.
    pub fn data_u64(&mut self, words: &[u64]) -> u64 {
        let mut bytes = Vec::with_capacity(words.len() * 8);
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        self.data_bytes(&bytes)
    }

    fn emit(&mut self, op: Op) -> &mut Self {
        self.code.push(op);
        self
    }

    fn emit_branchish(&mut self, label: &str, op: Op) -> &mut Self {
        self.fixups.push((self.code.len(), label.to_string()));
        self.code.push(op);
        self
    }

    // --- ALU -------------------------------------------------------------

    /// `rd <- rs1 <kind> rs2`
    pub fn alu(&mut self, kind: AluKind, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.emit(Op::Alu {
            kind,
            rd,
            rs1,
            src2: Src2::Reg(rs2),
        })
    }

    /// `rd <- rs1 <kind> imm`
    pub fn alui(&mut self, kind: AluKind, rd: Reg, rs1: Reg, imm: i64) -> &mut Self {
        self.emit(Op::Alu {
            kind,
            rd,
            rs1,
            src2: Src2::Imm(imm),
        })
    }

    pub fn add(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.alu(AluKind::Add, rd, rs1, rs2)
    }
    pub fn sub(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.alu(AluKind::Sub, rd, rs1, rs2)
    }
    pub fn and(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.alu(AluKind::And, rd, rs1, rs2)
    }
    pub fn or(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.alu(AluKind::Or, rd, rs1, rs2)
    }
    pub fn xor(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.alu(AluKind::Xor, rd, rs1, rs2)
    }
    pub fn sll(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.alu(AluKind::Sll, rd, rs1, rs2)
    }
    pub fn srl(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.alu(AluKind::Srl, rd, rs1, rs2)
    }
    pub fn slt(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.alu(AluKind::Slt, rd, rs1, rs2)
    }
    pub fn addi(&mut self, rd: Reg, rs1: Reg, imm: i64) -> &mut Self {
        self.alui(AluKind::Add, rd, rs1, imm)
    }
    pub fn andi(&mut self, rd: Reg, rs1: Reg, imm: i64) -> &mut Self {
        self.alui(AluKind::And, rd, rs1, imm)
    }
    pub fn ori(&mut self, rd: Reg, rs1: Reg, imm: i64) -> &mut Self {
        self.alui(AluKind::Or, rd, rs1, imm)
    }
    pub fn xori(&mut self, rd: Reg, rs1: Reg, imm: i64) -> &mut Self {
        self.alui(AluKind::Xor, rd, rs1, imm)
    }
    pub fn slli(&mut self, rd: Reg, rs1: Reg, imm: i64) -> &mut Self {
        self.alui(AluKind::Sll, rd, rs1, imm)
    }
    pub fn srli(&mut self, rd: Reg, rs1: Reg, imm: i64) -> &mut Self {
        self.alui(AluKind::Srl, rd, rs1, imm)
    }
    pub fn srai(&mut self, rd: Reg, rs1: Reg, imm: i64) -> &mut Self {
        self.alui(AluKind::Sra, rd, rs1, imm)
    }
    pub fn slti(&mut self, rd: Reg, rs1: Reg, imm: i64) -> &mut Self {
        self.alui(AluKind::Slt, rd, rs1, imm)
    }
    /// `rd <- imm`
    pub fn li(&mut self, rd: Reg, imm: i64) -> &mut Self {
        self.emit(Op::Li { rd, imm })
    }
    /// `rd <- rs1` (pseudo-instruction, an `add rd, rs1, x0`).
    pub fn mv(&mut self, rd: Reg, rs1: Reg) -> &mut Self {
        self.alu(AluKind::Add, rd, rs1, Reg::ZERO)
    }
    pub fn nop(&mut self) -> &mut Self {
        self.emit(Op::Nop)
    }

    // --- Mul/Div ---------------------------------------------------------

    pub fn mul(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.emit(Op::Mul { rd, rs1, rs2 })
    }
    pub fn div(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.emit(Op::Div { rd, rs1, rs2 })
    }
    pub fn rem(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.emit(Op::Rem { rd, rs1, rs2 })
    }

    // --- Memory ----------------------------------------------------------

    /// 8-byte load.
    pub fn ld(&mut self, rd: Reg, base: Reg, offset: i64) -> &mut Self {
        self.emit(Op::Load {
            rd,
            base,
            offset,
            width: MemWidth::B8,
            signed: false,
        })
    }
    /// 4-byte sign-extended load.
    pub fn lw(&mut self, rd: Reg, base: Reg, offset: i64) -> &mut Self {
        self.emit(Op::Load {
            rd,
            base,
            offset,
            width: MemWidth::B4,
            signed: true,
        })
    }
    /// 1-byte zero-extended load.
    pub fn lbu(&mut self, rd: Reg, base: Reg, offset: i64) -> &mut Self {
        self.emit(Op::Load {
            rd,
            base,
            offset,
            width: MemWidth::B1,
            signed: false,
        })
    }
    /// 8-byte store.
    pub fn sd(&mut self, src: Reg, base: Reg, offset: i64) -> &mut Self {
        self.emit(Op::Store {
            src,
            base,
            offset,
            width: MemWidth::B8,
        })
    }
    /// 4-byte store.
    pub fn sw(&mut self, src: Reg, base: Reg, offset: i64) -> &mut Self {
        self.emit(Op::Store {
            src,
            base,
            offset,
            width: MemWidth::B4,
        })
    }
    /// 1-byte store.
    pub fn sb(&mut self, src: Reg, base: Reg, offset: i64) -> &mut Self {
        self.emit(Op::Store {
            src,
            base,
            offset,
            width: MemWidth::B1,
        })
    }

    // --- Control flow ----------------------------------------------------

    /// Conditional branch to `label`.
    pub fn branch(&mut self, kind: BranchKind, rs1: Reg, rs2: Reg, label: &str) -> &mut Self {
        self.emit_branchish(
            label,
            Op::Branch {
                kind,
                rs1,
                rs2,
                target: 0,
            },
        )
    }
    pub fn beq(&mut self, rs1: Reg, rs2: Reg, label: &str) -> &mut Self {
        self.branch(BranchKind::Eq, rs1, rs2, label)
    }
    pub fn bne(&mut self, rs1: Reg, rs2: Reg, label: &str) -> &mut Self {
        self.branch(BranchKind::Ne, rs1, rs2, label)
    }
    pub fn blt(&mut self, rs1: Reg, rs2: Reg, label: &str) -> &mut Self {
        self.branch(BranchKind::Lt, rs1, rs2, label)
    }
    pub fn bge(&mut self, rs1: Reg, rs2: Reg, label: &str) -> &mut Self {
        self.branch(BranchKind::Ge, rs1, rs2, label)
    }
    pub fn bltu(&mut self, rs1: Reg, rs2: Reg, label: &str) -> &mut Self {
        self.branch(BranchKind::Ltu, rs1, rs2, label)
    }
    pub fn bgeu(&mut self, rs1: Reg, rs2: Reg, label: &str) -> &mut Self {
        self.branch(BranchKind::Geu, rs1, rs2, label)
    }
    /// Unconditional jump to `label` (a `jal x0`).
    pub fn j(&mut self, label: &str) -> &mut Self {
        self.emit_branchish(
            label,
            Op::Jal {
                rd: Reg::ZERO,
                target: 0,
            },
        )
    }
    /// Call `label`, linking into `ra`.
    pub fn call(&mut self, label: &str) -> &mut Self {
        self.emit_branchish(
            label,
            Op::Jal {
                rd: Reg::RA,
                target: 0,
            },
        )
    }
    /// Return through `ra`.
    pub fn ret(&mut self) -> &mut Self {
        self.emit(Op::Jalr {
            rd: Reg::ZERO,
            base: Reg::RA,
            offset: 0,
        })
    }
    /// Indirect jump-and-link.
    pub fn jalr(&mut self, rd: Reg, base: Reg, offset: i64) -> &mut Self {
        self.emit(Op::Jalr { rd, base, offset })
    }

    // --- System ----------------------------------------------------------

    pub fn fence(&mut self) -> &mut Self {
        self.emit(Op::Fence)
    }
    pub fn fence_i(&mut self) -> &mut Self {
        self.emit(Op::FenceI)
    }
    pub fn csrrw(&mut self, rd: Reg, csr: u16, rs1: Reg) -> &mut Self {
        self.emit(Op::Csrrw { rd, csr, rs1 })
    }
    pub fn halt(&mut self) -> &mut Self {
        self.emit(Op::Halt)
    }
    /// Atomic read-modify-write: `rd <- mem[addr]; mem[addr] <- kind(old, src)`.
    pub fn amo(&mut self, kind: AmoKind, rd: Reg, addr: Reg, src: Reg) -> &mut Self {
        self.emit(Op::Amo {
            kind,
            rd,
            addr,
            src,
        })
    }
    /// `amoadd.d rd, src, (addr)`
    pub fn amoadd(&mut self, rd: Reg, addr: Reg, src: Reg) -> &mut Self {
        self.amo(AmoKind::Add, rd, addr, src)
    }
    /// `amoswap.d rd, src, (addr)`
    pub fn amoswap(&mut self, rd: Reg, addr: Reg, src: Reg) -> &mut Self {
        self.amo(AmoKind::Swap, rd, addr, src)
    }

    // --- Floating point --------------------------------------------------

    pub fn fadd(&mut self, rd: FReg, rs1: FReg, rs2: FReg) -> &mut Self {
        self.emit(Op::FpAlu {
            kind: FpKind::Add,
            rd,
            rs1,
            rs2,
        })
    }
    pub fn fsub(&mut self, rd: FReg, rs1: FReg, rs2: FReg) -> &mut Self {
        self.emit(Op::FpAlu {
            kind: FpKind::Sub,
            rd,
            rs1,
            rs2,
        })
    }
    pub fn fmul(&mut self, rd: FReg, rs1: FReg, rs2: FReg) -> &mut Self {
        self.emit(Op::FpAlu {
            kind: FpKind::Mul,
            rd,
            rs1,
            rs2,
        })
    }
    pub fn fdiv(&mut self, rd: FReg, rs1: FReg, rs2: FReg) -> &mut Self {
        self.emit(Op::FpAlu {
            kind: FpKind::Div,
            rd,
            rs1,
            rs2,
        })
    }
    pub fn fld(&mut self, rd: FReg, base: Reg, offset: i64) -> &mut Self {
        self.emit(Op::FpLoad { rd, base, offset })
    }
    pub fn fsd(&mut self, src: FReg, base: Reg, offset: i64) -> &mut Self {
        self.emit(Op::FpStore { src, base, offset })
    }
    pub fn fmv_d_x(&mut self, rd: FReg, rs1: Reg) -> &mut Self {
        self.emit(Op::FpFromInt { rd, rs1 })
    }
    pub fn fmv_x_d(&mut self, rd: Reg, rs1: FReg) -> &mut Self {
        self.emit(Op::FpToInt { rd, rs1 })
    }

    /// Resolves labels and produces the final [`Program`].
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::EmptyProgram`], [`IsaError::DuplicateLabel`], or
    /// [`IsaError::UndefinedLabel`] on malformed input.
    pub fn build(self) -> Result<Program, IsaError> {
        if self.code.is_empty() {
            return Err(IsaError::EmptyProgram);
        }
        for (pos, label) in &self.fixups {
            if *pos == usize::MAX {
                return Err(IsaError::DuplicateLabel(label.clone()));
            }
        }
        let mut code = self.code;
        for (pos, label) in &self.fixups {
            let target = *self
                .labels
                .get(label)
                .ok_or_else(|| IsaError::UndefinedLabel(label.clone()))?;
            match &mut code[*pos] {
                Op::Branch { target: t, .. } | Op::Jal { target: t, .. } => *t = target,
                other => unreachable!("fixup on non-branch {other:?}"),
            }
        }
        Ok(Program {
            name: self.name,
            code: code.into(),
            data: self.data,
            labels: self.labels,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_labels_resolve() {
        let mut b = ProgramBuilder::new("t");
        b.label("top");
        b.beq(Reg::T0, Reg::T1, "end"); // forward
        b.j("top"); // backward
        b.label("end");
        b.halt();
        let p = b.build().unwrap();
        match p.code()[0] {
            Op::Branch { target, .. } => assert_eq!(target, 2),
            ref other => panic!("unexpected {other:?}"),
        }
        match p.code()[1] {
            Op::Jal { target, .. } => assert_eq!(target, 0),
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn undefined_label_is_an_error() {
        let mut b = ProgramBuilder::new("t");
        b.j("nowhere");
        assert_eq!(
            b.build().unwrap_err(),
            IsaError::UndefinedLabel("nowhere".into())
        );
    }

    #[test]
    fn duplicate_label_is_an_error() {
        let mut b = ProgramBuilder::new("t");
        b.label("x");
        b.nop();
        b.label("x");
        b.halt();
        assert_eq!(b.build().unwrap_err(), IsaError::DuplicateLabel("x".into()));
    }

    #[test]
    fn empty_program_is_an_error() {
        assert_eq!(
            ProgramBuilder::new("t").build().unwrap_err(),
            IsaError::EmptyProgram
        );
    }

    #[test]
    fn pc_index_round_trip() {
        let mut b = ProgramBuilder::new("t");
        b.nop();
        b.nop();
        b.halt();
        let p = b.build().unwrap();
        for i in 0..3u32 {
            assert_eq!(p.index_of(p.pc_of(i)), Some(i));
        }
        assert_eq!(p.index_of(TEXT_BASE + 12), None);
        assert_eq!(p.index_of(TEXT_BASE + 2), None);
        assert_eq!(p.index_of(0), None);
    }

    #[test]
    fn disassembly_lists_labels_and_pcs() {
        let mut b = ProgramBuilder::new("t");
        b.label("entry");
        b.li(Reg::T0, 7);
        b.label("spin");
        b.j("spin");
        b.halt();
        let text = b.build().unwrap().disassemble();
        assert!(text.contains("entry:"));
        assert!(text.contains("spin:"));
        assert!(text.contains("0x80000000: li x5, 7"));
        assert!(text.contains("0x80000004: jal x0, #1"));
    }

    #[test]
    fn data_allocation_is_aligned_and_disjoint() {
        let mut b = ProgramBuilder::new("t");
        let a = b.alloc_data(10);
        let c = b.alloc_data(10);
        assert_eq!(a % 64, 0);
        assert!(c >= a + 10);
        let d = b.data_u64(&[1, 2, 3]);
        assert_eq!(d % 64, 0);
    }
}
