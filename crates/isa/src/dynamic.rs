//! Dynamic (executed) instruction records.

use std::sync::Arc;

use crate::instr::{InstrClass, Op};
use crate::program::text_pc;
use crate::reg::Reg;

/// A data-memory access performed by a dynamic instruction.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct MemAccess {
    /// Byte address.
    pub addr: u64,
    /// Access size in bytes.
    pub size: u64,
    /// Whether the access is a store.
    pub is_store: bool,
}

/// Control-flow outcome of a dynamic instruction.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct BranchInfo {
    /// Whether the branch was taken (always true for jumps).
    pub taken: bool,
    /// The byte address control transferred to when taken.
    pub target: u64,
    /// Whether the target comes through a register (indirect).
    pub indirect: bool,
}

/// One executed instruction: the static op plus its architectural outcome.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct DynInstr {
    /// Position in the dynamic stream.
    pub seq: u64,
    /// Byte program counter.
    pub pc: u64,
    /// The static operation.
    pub op: Op,
    /// Data memory access, if any.
    pub mem: Option<MemAccess>,
    /// Control-flow outcome, if the op is a branch or jump.
    pub branch: Option<BranchInfo>,
    /// The byte PC of the next dynamic instruction.
    pub next_pc: u64,
}

impl DynInstr {
    /// The coarse class of the instruction.
    pub fn class(&self) -> InstrClass {
        self.op.class()
    }

    /// Whether control flow diverted from fall-through (`pc + 4`).
    pub fn redirects(&self) -> bool {
        self.next_pc != self.pc + 4
    }
}

/// The one outcome bit a stored record needs: a conditional branch was
/// taken. Jumps are always taken, so their bit is implied by the op.
const TAKEN: u32 = 1;

/// One stored stream record. Op, PC, access size, store-ness and direct
/// targets are functions of the static instruction, so a record keeps
/// only the static index, the branch outcome, and the one dynamic value
/// (a data address, or an indirect jump's target). [`DynStream::get`]
/// decodes it back into a [`DynInstr`].
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) struct Record {
    /// Static instruction index into the program text.
    index: u32,
    /// Outcome flags ([`TAKEN`]).
    flags: u32,
    /// The data address of a memory op, the target of an indirect jump,
    /// and 0 otherwise.
    value: u64,
}

const _: () = assert!(std::mem::size_of::<Record>() <= 16);

impl Record {
    /// The record of static instruction `index` executing as `d`.
    pub(crate) fn encode(index: u32, d: &DynInstr) -> Record {
        let taken = d.branch.is_some_and(|b| b.taken);
        let value = match (d.mem, d.branch) {
            (Some(m), _) => m.addr,
            (None, Some(b)) if b.indirect => b.target,
            _ => 0,
        };
        Record {
            index,
            flags: if taken { TAKEN } else { 0 },
            value,
        }
    }

    #[inline]
    fn decode(self, seq: usize, op: Op) -> DynInstr {
        let pc = text_pc(self.index);
        let access = |size, is_store| MemAccess {
            addr: self.value,
            size,
            is_store,
        };
        let jump = |target, indirect| BranchInfo {
            taken: true,
            target,
            indirect,
        };
        let (mem, branch) = match op {
            Op::Load { width, .. } => (Some(access(width.bytes(), false)), None),
            Op::Store { width, .. } => (Some(access(width.bytes(), true)), None),
            Op::FpLoad { .. } => (Some(access(8, false)), None),
            Op::FpStore { .. } | Op::Amo { .. } => (Some(access(8, true)), None),
            Op::Branch { target, .. } => {
                let taken = self.flags & TAKEN != 0;
                let info = BranchInfo {
                    taken,
                    target: text_pc(target),
                    indirect: false,
                };
                (None, Some(info))
            }
            Op::Jal { target, .. } => (None, Some(jump(text_pc(target), false))),
            Op::Jalr { .. } => (None, Some(jump(self.value, true))),
            _ => (None, None),
        };
        let next_pc = match branch {
            Some(b) if b.taken => b.target,
            _ if matches!(op, Op::Halt) => pc,
            _ => pc + 4,
        };
        DynInstr {
            seq: seq as u64,
            pc,
            op,
            mem,
            branch,
            next_pc,
        }
    }
}

/// The architectural execution of a whole program: an ordered stream of
/// executed instructions plus final register state.
///
/// The stream stores one 16-byte record per instruction next to a shared
/// handle to the program text; [`DynStream::get`] and [`DynStream::iter`]
/// decode records into full [`DynInstr`]s on read.
#[derive(Clone, Debug, Default)]
pub struct DynStream {
    code: Arc<[Op]>,
    records: Vec<Record>,
    final_regs: [u64; 32],
}

impl DynStream {
    pub(crate) fn new(code: Arc<[Op]>, records: Vec<Record>, final_regs: [u64; 32]) -> DynStream {
        DynStream {
            code,
            records,
            final_regs,
        }
    }

    /// The executed instruction at position `seq`. Inlined into the
    /// cores, so a caller that reads only some fields decodes only those.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range.
    #[inline]
    pub fn get(&self, seq: usize) -> DynInstr {
        let r = self.records[seq];
        r.decode(seq, self.code[r.index as usize])
    }

    /// The byte PC of the executed instruction at position `seq`.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range.
    #[inline]
    pub fn pc(&self, seq: usize) -> u64 {
        text_pc(self.records[seq].index)
    }

    /// Number of dynamic instructions (including the final `halt`).
    #[inline]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing executed.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The value of `reg` when the program halted.
    pub fn trailing_reg(&self, reg: Reg) -> u64 {
        self.final_regs[reg.index()]
    }

    /// Iterates over the executed instructions in program order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = DynInstr> + '_ {
        (0..self.len()).map(|seq| self.get(seq))
    }

    fn classes(&self) -> impl Iterator<Item = InstrClass> + '_ {
        self.records
            .iter()
            .map(|r| self.code[r.index as usize].class())
    }

    /// Counts dynamic instructions in a class.
    pub fn count_class(&self, class: InstrClass) -> usize {
        self.classes().filter(|c| *c == class).count()
    }

    /// The dynamic instruction mix as `(class, count)` pairs sorted by
    /// count, omitting empty classes — the composition table benchmark
    /// reports print.
    pub fn class_mix(&self) -> Vec<(InstrClass, usize)> {
        use std::collections::HashMap;
        let mut counts: HashMap<InstrClass, usize> = HashMap::new();
        for class in self.classes() {
            *counts.entry(class).or_insert(0) += 1;
        }
        let mut mix: Vec<(InstrClass, usize)> = counts.into_iter().collect();
        mix.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then_with(|| format!("{:?}", a.0).cmp(&format!("{:?}", b.0)))
        });
        mix
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_mix_counts_and_sorts() {
        let mk = |op: Op, pc: u64| DynInstr {
            seq: 0,
            pc,
            op,
            mem: None,
            branch: None,
            next_pc: pc + 4,
        };
        let code = [Op::Nop, Op::Nop, Op::Fence, Op::Halt];
        let records = (0..code.len() as u32)
            .map(|i| Record::encode(i, &mk(code[i as usize], text_pc(i))))
            .collect();
        let stream = DynStream::new(code.as_slice().into(), records, [0; 32]);
        let mix = stream.class_mix();
        assert_eq!(mix[0], (InstrClass::Alu, 2));
        assert_eq!(mix.len(), 3);
        assert_eq!(stream.count_class(InstrClass::Fence), 1);
    }

    #[test]
    fn redirects_detects_taken_control_flow() {
        let d = DynInstr {
            seq: 0,
            pc: 0x8000_0000,
            op: Op::Nop,
            mem: None,
            branch: None,
            next_pc: 0x8000_0004,
        };
        assert!(!d.redirects());
        let t = DynInstr {
            next_pc: 0x8000_0040,
            ..d
        };
        assert!(t.redirects());
    }
}
