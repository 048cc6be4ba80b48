//! The architectural interpreter.

use crate::dynamic::{BranchInfo, DynInstr, DynStream, MemAccess, Record};
use crate::error::IsaError;
use crate::instr::{AluKind, AmoKind, BranchKind, FpKind, MemWidth, Op, Src2};
use crate::memory::Memory;
use crate::program::Program;
use crate::reg::{FReg, Reg};

/// Architecturally executes a [`Program`], producing the dynamic
/// instruction stream consumed by the cycle-level core models.
///
/// The interpreter is deterministic: the same program always yields the
/// same stream, which makes the simulator results reproducible.
#[derive(Clone, Debug)]
pub struct Interpreter<'p> {
    program: &'p Program,
    regs: [u64; 32],
    fregs: [f64; 32],
    csrs: std::collections::HashMap<u16, u64>,
    mem: Memory,
    pc_index: u32,
}

impl<'p> Interpreter<'p> {
    /// Creates an interpreter positioned at the program's first instruction
    /// with the data image loaded.
    pub fn new(program: &'p Program) -> Interpreter<'p> {
        let mut mem = Memory::new();
        for (base, bytes) in program.data() {
            mem.write_bytes(*base, bytes);
        }
        let mut regs = [0u64; 32];
        // A stack pointer high above the data segment, as a loader would set.
        regs[Reg::SP.index()] = 0xA000_0000;
        Interpreter {
            program,
            regs,
            fregs: [0.0; 32],
            csrs: std::collections::HashMap::new(),
            mem,
            pc_index: 0,
        }
    }

    /// Pre-sets an integer register before execution (program arguments).
    pub fn set_reg(&mut self, reg: Reg, val: u64) -> &mut Self {
        if !reg.is_zero() {
            self.regs[reg.index()] = val;
        }
        self
    }

    fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    fn write_reg(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    fn freg(&self, r: FReg) -> f64 {
        self.fregs[r.index()]
    }

    fn write_freg(&mut self, r: FReg, v: f64) {
        self.fregs[r.index()] = v;
    }

    /// Runs until `halt`, collecting at most `max_instrs` dynamic
    /// instructions.
    ///
    /// # Errors
    ///
    /// Returns an error if the PC leaves the text segment, the dynamic
    /// instruction limit is exceeded, a memory access is invalid, or a
    /// division by zero occurs.
    pub fn run(self, max_instrs: u64) -> Result<DynStream, IsaError> {
        let code = self.program.code_arc();
        let mut records = Vec::new();
        let regs = self.execute(max_instrs, |index, d| {
            records.push(Record::encode(index, d));
        })?;
        Ok(DynStream::new(code, records, regs))
    }

    /// Runs like [`Interpreter::run`] but keeps every executed instruction
    /// as a full [`DynInstr`], with the final registers: the uncompressed
    /// reference that tests check a decoded [`DynStream`] against.
    ///
    /// # Errors
    ///
    /// As [`Interpreter::run`].
    #[cfg(any(test, feature = "oracle"))]
    pub fn run_recording(self, max_instrs: u64) -> Result<(Vec<DynInstr>, [u64; 32]), IsaError> {
        let mut out = Vec::new();
        let regs = self.execute(max_instrs, |_, d| out.push(*d))?;
        Ok((out, regs))
    }

    /// Executes to `halt`, handing each instruction's static index and
    /// outcome to `sink`; returns the final integer registers.
    fn execute(
        mut self,
        max_instrs: u64,
        mut sink: impl FnMut(u32, &DynInstr),
    ) -> Result<[u64; 32], IsaError> {
        let mut seq: u64 = 0;
        loop {
            if seq >= max_instrs {
                return Err(IsaError::InstructionLimit(max_instrs));
            }
            let idx = self.pc_index;
            if idx as usize >= self.program.len() {
                return Err(IsaError::PcOutOfRange(self.program.pc_of(idx)));
            }
            let op = self.program.code()[idx as usize];
            let pc = self.program.pc_of(idx);
            let mut mem_access: Option<MemAccess> = None;
            let mut branch: Option<BranchInfo> = None;
            let mut next_index = idx + 1;
            let mut halted = false;

            match op {
                Op::Alu {
                    kind,
                    rd,
                    rs1,
                    src2,
                } => {
                    let a = self.reg(rs1);
                    let b = match src2 {
                        Src2::Reg(r) => self.reg(r),
                        Src2::Imm(i) => i as u64,
                    };
                    self.write_reg(rd, alu_eval(kind, a, b));
                }
                Op::Li { rd, imm } => self.write_reg(rd, imm as u64),
                Op::Mul { rd, rs1, rs2 } => {
                    let v = self.reg(rs1).wrapping_mul(self.reg(rs2));
                    self.write_reg(rd, v);
                }
                Op::Div { rd, rs1, rs2 } => {
                    let d = self.reg(rs2);
                    if d == 0 {
                        return Err(IsaError::DivisionByZero { pc });
                    }
                    let v = (self.reg(rs1) as i64).wrapping_div(d as i64);
                    self.write_reg(rd, v as u64);
                }
                Op::Rem { rd, rs1, rs2 } => {
                    let d = self.reg(rs2);
                    if d == 0 {
                        return Err(IsaError::DivisionByZero { pc });
                    }
                    let v = (self.reg(rs1) as i64).wrapping_rem(d as i64);
                    self.write_reg(rd, v as u64);
                }
                Op::Load {
                    rd,
                    base,
                    offset,
                    width,
                    signed,
                } => {
                    let addr = self.reg(base).wrapping_add(offset as u64);
                    let raw = self.mem.read(addr, width.bytes())?;
                    let v = if signed { sign_extend(raw, width) } else { raw };
                    self.write_reg(rd, v);
                    mem_access = Some(MemAccess {
                        addr,
                        size: width.bytes(),
                        is_store: false,
                    });
                }
                Op::Store {
                    src,
                    base,
                    offset,
                    width,
                } => {
                    let addr = self.reg(base).wrapping_add(offset as u64);
                    self.mem.write(addr, width.bytes(), self.reg(src))?;
                    mem_access = Some(MemAccess {
                        addr,
                        size: width.bytes(),
                        is_store: true,
                    });
                }
                Op::Branch {
                    kind,
                    rs1,
                    rs2,
                    target,
                } => {
                    let taken = branch_eval(kind, self.reg(rs1), self.reg(rs2));
                    if taken {
                        next_index = target;
                    }
                    branch = Some(BranchInfo {
                        taken,
                        target: self.program.pc_of(target),
                        indirect: false,
                    });
                }
                Op::Jal { rd, target } => {
                    self.write_reg(rd, pc + 4);
                    next_index = target;
                    branch = Some(BranchInfo {
                        taken: true,
                        target: self.program.pc_of(target),
                        indirect: false,
                    });
                }
                Op::Jalr { rd, base, offset } => {
                    let dest = self.reg(base).wrapping_add(offset as u64) & !1;
                    self.write_reg(rd, pc + 4);
                    next_index = self
                        .program
                        .index_of(dest)
                        .ok_or(IsaError::PcOutOfRange(dest))?;
                    branch = Some(BranchInfo {
                        taken: true,
                        target: dest,
                        indirect: true,
                    });
                }
                Op::Amo {
                    kind,
                    rd,
                    addr,
                    src,
                } => {
                    let a = self.reg(addr);
                    let old = self.mem.read(a, 8)?;
                    let operand = self.reg(src);
                    let new = match kind {
                        AmoKind::Add => old.wrapping_add(operand),
                        AmoKind::Swap => operand,
                        AmoKind::And => old & operand,
                        AmoKind::Or => old | operand,
                        AmoKind::Xor => old ^ operand,
                    };
                    self.mem.write(a, 8, new)?;
                    self.write_reg(rd, old);
                    mem_access = Some(MemAccess {
                        addr: a,
                        size: 8,
                        is_store: true,
                    });
                }
                Op::Fence | Op::FenceI => {}
                Op::Csrrw { rd, csr, rs1 } => {
                    let old = self.csrs.get(&csr).copied().unwrap_or(0);
                    let new = self.reg(rs1);
                    self.csrs.insert(csr, new);
                    self.write_reg(rd, old);
                }
                Op::FpAlu { kind, rd, rs1, rs2 } => {
                    let a = self.freg(rs1);
                    let b = self.freg(rs2);
                    let v = match kind {
                        FpKind::Add => a + b,
                        FpKind::Sub => a - b,
                        FpKind::Mul => a * b,
                        FpKind::Div => a / b,
                    };
                    self.write_freg(rd, v);
                }
                Op::FpLoad { rd, base, offset } => {
                    let addr = self.reg(base).wrapping_add(offset as u64);
                    let raw = self.mem.read(addr, 8)?;
                    self.write_freg(rd, f64::from_bits(raw));
                    mem_access = Some(MemAccess {
                        addr,
                        size: 8,
                        is_store: false,
                    });
                }
                Op::FpStore { src, base, offset } => {
                    let addr = self.reg(base).wrapping_add(offset as u64);
                    self.mem.write(addr, 8, self.freg(src).to_bits())?;
                    mem_access = Some(MemAccess {
                        addr,
                        size: 8,
                        is_store: true,
                    });
                }
                Op::FpFromInt { rd, rs1 } => {
                    let v = self.reg(rs1);
                    self.write_freg(rd, f64::from_bits(v));
                }
                Op::FpToInt { rd, rs1 } => {
                    let v = self.freg(rs1).to_bits();
                    self.write_reg(rd, v);
                }
                Op::Nop => {}
                Op::Halt => halted = true,
            }

            let next_pc = if halted {
                pc
            } else {
                self.program.pc_of(next_index)
            };
            sink(
                idx,
                &DynInstr {
                    seq,
                    pc,
                    op,
                    mem: mem_access,
                    branch,
                    next_pc,
                },
            );
            seq += 1;
            if halted {
                break;
            }
            self.pc_index = next_index;
        }
        Ok(self.regs)
    }
}

fn alu_eval(kind: AluKind, a: u64, b: u64) -> u64 {
    match kind {
        AluKind::Add => a.wrapping_add(b),
        AluKind::Sub => a.wrapping_sub(b),
        AluKind::And => a & b,
        AluKind::Or => a | b,
        AluKind::Xor => a ^ b,
        AluKind::Sll => a.wrapping_shl((b & 63) as u32),
        AluKind::Srl => a.wrapping_shr((b & 63) as u32),
        AluKind::Sra => ((a as i64).wrapping_shr((b & 63) as u32)) as u64,
        AluKind::Slt => ((a as i64) < (b as i64)) as u64,
        AluKind::Sltu => (a < b) as u64,
    }
}

fn branch_eval(kind: BranchKind, a: u64, b: u64) -> bool {
    match kind {
        BranchKind::Eq => a == b,
        BranchKind::Ne => a != b,
        BranchKind::Lt => (a as i64) < (b as i64),
        BranchKind::Ge => (a as i64) >= (b as i64),
        BranchKind::Ltu => a < b,
        BranchKind::Geu => a >= b,
    }
}

fn sign_extend(raw: u64, width: MemWidth) -> u64 {
    match width {
        MemWidth::B1 => raw as u8 as i8 as i64 as u64,
        MemWidth::B2 => raw as u16 as i16 as i64 as u64,
        MemWidth::B4 => raw as u32 as i32 as i64 as u64,
        MemWidth::B8 => raw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;

    fn run(b: ProgramBuilder) -> DynStream {
        Interpreter::new(&b.build().unwrap())
            .run(1_000_000)
            .unwrap()
    }

    #[test]
    fn loop_executes_expected_count() {
        let mut b = ProgramBuilder::new("t");
        b.li(Reg::T0, 0);
        b.li(Reg::T1, 5);
        b.label("loop");
        b.addi(Reg::T0, Reg::T0, 1);
        b.blt(Reg::T0, Reg::T1, "loop");
        b.halt();
        let s = run(b);
        assert_eq!(s.trailing_reg(Reg::T0), 5);
        // 2 setup + 5 * (add + branch) + halt
        assert_eq!(s.len(), 2 + 10 + 1);
    }

    #[test]
    fn branch_outcomes_recorded() {
        let mut b = ProgramBuilder::new("t");
        b.li(Reg::T0, 1);
        b.beq(Reg::T0, Reg::ZERO, "skip"); // not taken
        b.nop();
        b.label("skip");
        b.halt();
        let s = run(b);
        let br = s.get(1).branch.unwrap();
        assert!(!br.taken);
        assert!(!s.get(1).redirects());
    }

    #[test]
    fn memory_round_trip_through_isa() {
        let mut b = ProgramBuilder::new("t");
        let buf = b.alloc_data(64);
        b.li(Reg::T0, buf as i64);
        b.li(Reg::T1, 0x1234);
        b.sd(Reg::T1, Reg::T0, 8);
        b.ld(Reg::T2, Reg::T0, 8);
        b.halt();
        let s = run(b);
        assert_eq!(s.trailing_reg(Reg::T2), 0x1234);
        let st = s.get(2).mem.unwrap();
        assert!(st.is_store);
        assert_eq!(st.addr, buf + 8);
    }

    #[test]
    fn data_image_is_loaded() {
        let mut b = ProgramBuilder::new("t");
        let arr = b.data_u64(&[7, 8, 9]);
        b.li(Reg::T0, arr as i64);
        b.ld(Reg::T1, Reg::T0, 16);
        b.halt();
        let s = run(b);
        assert_eq!(s.trailing_reg(Reg::T1), 9);
    }

    #[test]
    fn call_and_return() {
        let mut b = ProgramBuilder::new("t");
        b.call("f");
        b.li(Reg::T1, 99);
        b.halt();
        b.label("f");
        b.li(Reg::T0, 42);
        b.ret();
        let s = run(b);
        assert_eq!(s.trailing_reg(Reg::T0), 42);
        assert_eq!(s.trailing_reg(Reg::T1), 99);
        // jalr is recorded as an indirect redirect
        let jalr = s.iter().find(|d| matches!(d.op, Op::Jalr { .. })).unwrap();
        assert!(jalr.branch.unwrap().indirect);
    }

    #[test]
    fn instruction_limit_enforced() {
        let mut b = ProgramBuilder::new("t");
        b.label("spin");
        b.j("spin");
        let p = b.build().unwrap();
        let err = Interpreter::new(&p).run(100).unwrap_err();
        assert_eq!(err, IsaError::InstructionLimit(100));
    }

    #[test]
    fn division_by_zero_reported() {
        let mut b = ProgramBuilder::new("t");
        b.li(Reg::T0, 10);
        b.div(Reg::T1, Reg::T0, Reg::ZERO);
        b.halt();
        let p = b.build().unwrap();
        assert!(matches!(
            Interpreter::new(&p).run(100),
            Err(IsaError::DivisionByZero { .. })
        ));
    }

    #[test]
    fn signed_loads_sign_extend() {
        let mut b = ProgramBuilder::new("t");
        let buf = b.alloc_data(8);
        b.li(Reg::T0, buf as i64);
        b.li(Reg::T1, -1);
        b.sw(Reg::T1, Reg::T0, 0);
        b.lw(Reg::T2, Reg::T0, 0);
        b.halt();
        let s = run(b);
        assert_eq!(s.trailing_reg(Reg::T2) as i64, -1);
    }

    #[test]
    fn fp_pipeline_round_trip() {
        let mut b = ProgramBuilder::new("t");
        let buf = b.alloc_data(32);
        b.li(Reg::T0, buf as i64);
        b.li(Reg::T1, 2.5f64.to_bits() as i64);
        b.sd(Reg::T1, Reg::T0, 0);
        b.fld(FReg::F0, Reg::T0, 0);
        b.fadd(FReg::F1, FReg::F0, FReg::F0);
        b.fsd(FReg::F1, Reg::T0, 8);
        b.ld(Reg::T2, Reg::T0, 8);
        b.halt();
        let s = run(b);
        assert_eq!(f64::from_bits(s.trailing_reg(Reg::T2)), 5.0);
    }

    #[test]
    fn csr_swap_behaviour() {
        let mut b = ProgramBuilder::new("t");
        b.li(Reg::T0, 7);
        b.csrrw(Reg::T1, 0x300, Reg::T0); // old value 0
        b.csrrw(Reg::T2, 0x300, Reg::ZERO); // old value 7
        b.halt();
        let s = run(b);
        assert_eq!(s.trailing_reg(Reg::T1), 0);
        assert_eq!(s.trailing_reg(Reg::T2), 7);
    }

    #[test]
    fn writes_to_x0_discarded() {
        let mut b = ProgramBuilder::new("t");
        b.li(Reg::ZERO, 55);
        b.halt();
        let s = run(b);
        assert_eq!(s.trailing_reg(Reg::ZERO), 0);
    }
}
