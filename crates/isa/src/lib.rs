//! # icicle-isa
//!
//! A compact RISC-V-like instruction set, program representation, and
//! architectural interpreter used as the execution substrate for the Icicle
//! reproduction.
//!
//! The paper runs real RV64 binaries on FPGA-simulated RTL. This crate
//! substitutes a small register-machine ISA that preserves everything the
//! microarchitectural models care about: register dependencies, memory
//! addresses, branch outcomes, instruction classes (ALU / load / store /
//! branch / mul / div / fence / CSR / FP), and program counters.
//!
//! The flow is:
//!
//! 1. Build a [`Program`] with [`ProgramBuilder`] (an assembler-like DSL).
//! 2. Execute it architecturally with [`Interpreter`], producing a stream of
//!    [`DynInstr`] records (PC, outcome, memory address, next PC), stored
//!    as compact 16-byte records and decoded on read.
//! 3. Feed that dynamic stream to a cycle-level core model
//!    (`icicle-rocket`, `icicle-boom`) which replays it with timing.
//!
//! ```
//! use icicle_isa::{ProgramBuilder, Interpreter, Reg};
//!
//! # fn main() -> Result<(), icicle_isa::IsaError> {
//! let mut b = ProgramBuilder::new("count");
//! b.li(Reg::T0, 0);
//! b.li(Reg::T1, 10);
//! b.label("loop");
//! b.addi(Reg::T0, Reg::T0, 1);
//! b.blt(Reg::T0, Reg::T1, "loop");
//! b.halt();
//! let program = b.build()?;
//!
//! let stream = Interpreter::new(&program).run(100_000)?;
//! assert_eq!(stream.trailing_reg(Reg::T0), 10);
//! # Ok(())
//! # }
//! ```

mod dynamic;
mod error;
mod instr;
mod interp;
mod memory;
mod program;
mod reg;

pub use dynamic::{BranchInfo, DynInstr, DynStream, MemAccess};
pub use error::IsaError;
pub use instr::{
    AluKind, AmoKind, BranchKind, FpKind, Instr, InstrClass, MemWidth, Op, Src2, SrcList,
};
pub use interp::Interpreter;
pub use memory::Memory;
pub use program::{Program, ProgramBuilder, DATA_BASE, TEXT_BASE};
pub use reg::{FReg, Reg, RegId};
