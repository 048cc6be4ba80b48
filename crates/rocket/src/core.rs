//! The Rocket pipeline timing model.

use std::collections::VecDeque;

use icicle_events::{EventCore, EventId, EventVector};
use icicle_isa::{DynInstr, DynStream, InstrClass, Op, RegId};
use icicle_mem::{L2Linked, L2Port, MemoryHierarchy};

use crate::config::RocketConfig;
use crate::predictor::{Bht, Btb};
use crate::ras::{is_call, is_return, ReturnAddressStack};

/// Why the front-end entered the wrong path for a control-flow
/// instruction.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Mispredict {
    /// The direction of a conditional branch was predicted wrong.
    Direction,
    /// The target of an indirect jump was predicted wrong (or missing).
    Target,
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum FetchState {
    /// Ready to initiate the next I-cache access.
    Starting,
    /// An access is in flight; the packet arrives at `ready`.
    Waiting { ready: u64 },
    /// A mispredicted control-flow instruction was delivered; the
    /// front-end fetches garbage until it resolves in execute.
    WrongPath,
    /// The dynamic stream is exhausted.
    Drained,
}

/// What the single execute pipe is blocked on, for stall attribution.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum StallKind {
    None,
    Mem,
    MulDiv,
    Fence,
    Csr,
    FpLong,
}

/// The cycle-level Rocket core model.
///
/// Construct with a [`RocketConfig`] and the [`DynStream`] produced by the
/// architectural interpreter, then drive it through the
/// [`EventCore`] trait.
#[derive(Debug)]
pub struct Rocket {
    config: RocketConfig,
    mem: MemoryHierarchy,
    bht: Bht,
    btb: Btb,
    ras: ReturnAddressStack,
    stream: DynStream,

    cycle: u64,
    done: bool,
    instret: u64,
    issued: u64,

    // Front-end
    fetch_state: FetchState,
    fetch_seq: usize,
    fetch_allowed: u64,
    refill_until: u64,
    recovering: bool,
    /// Fetched instructions, decoded once on delivery.
    ibuf: VecDeque<(DynInstr, Option<Mispredict>)>,

    retired_pcs: Vec<u64>,

    // Back-end
    exec_busy_until: u64,
    stall: StallKind,
    scoreboard: [u64; RegId::COUNT],
    producer: [Option<InstrClass>; RegId::COUNT],

    events: EventVector,
}

impl Rocket {
    /// Creates a core positioned at the first instruction of `stream`.
    pub fn new(config: RocketConfig, stream: DynStream) -> Rocket {
        let mem = MemoryHierarchy::new(config.memory);
        Rocket::with_memory(config, stream, mem)
    }

    /// Creates a core over an explicit memory hierarchy (used by SoC
    /// configurations with a shared L2).
    pub fn with_memory(config: RocketConfig, stream: DynStream, mem: MemoryHierarchy) -> Rocket {
        Rocket {
            mem,
            bht: Bht::new(config.bht_entries),
            btb: Btb::new(config.btb_entries),
            ras: ReturnAddressStack::new(config.ras_entries),
            stream,
            cycle: 0,
            done: false,
            instret: 0,
            issued: 0,
            fetch_state: FetchState::Starting,
            fetch_seq: 0,
            fetch_allowed: 0,
            refill_until: 0,
            recovering: false,
            ibuf: VecDeque::with_capacity(config.ibuf_entries),
            retired_pcs: Vec::with_capacity(1),
            exec_busy_until: 0,
            stall: StallKind::None,
            scoreboard: [0; RegId::COUNT],
            producer: [None; RegId::COUNT],
            events: EventVector::new(),
            config,
        }
    }

    /// The configuration the core was built with.
    pub fn config(&self) -> &RocketConfig {
        &self.config
    }

    /// Retired instructions so far.
    pub fn instret(&self) -> u64 {
        self.instret
    }

    /// Instructions per cycle so far.
    pub fn ipc(&self) -> f64 {
        if self.cycle == 0 {
            0.0
        } else {
            self.instret as f64 / self.cycle as f64
        }
    }

    /// The memory hierarchy (for statistics).
    pub fn mem(&self) -> &MemoryHierarchy {
        &self.mem
    }

    /// Runs the core to completion, bounded by `max_cycles`.
    ///
    /// Returns the final cycle count, or `None` if the bound was hit.
    pub fn run_to_completion(&mut self, max_cycles: u64) -> Option<u64> {
        while !self.done {
            if self.cycle >= max_cycles {
                return None;
            }
            self.step();
        }
        Some(self.cycle)
    }

    // --- Front-end -------------------------------------------------------

    fn frontend(&mut self) {
        match self.fetch_state {
            FetchState::WrongPath | FetchState::Drained => {}
            FetchState::Starting => {
                if self.cycle >= self.fetch_allowed && self.ibuf.len() < self.config.ibuf_entries {
                    self.start_access();
                }
            }
            FetchState::Waiting { ready } => {
                if self.cycle >= ready && self.ibuf.len() < self.config.ibuf_entries {
                    self.deliver_group();
                    // Pipelined fetch: start the next access immediately if
                    // the front-end was not redirected or derailed.
                    if matches!(self.fetch_state, FetchState::Waiting { .. })
                        || matches!(self.fetch_state, FetchState::Starting)
                    {
                        if self.cycle >= self.fetch_allowed
                            && self.fetch_seq < self.stream.len()
                            && self.ibuf.len() < self.config.ibuf_entries
                        {
                            self.start_access();
                        } else {
                            self.fetch_state = if self.fetch_seq >= self.stream.len() {
                                FetchState::Drained
                            } else {
                                FetchState::Starting
                            };
                        }
                    }
                }
            }
        }
    }

    fn start_access(&mut self) {
        if self.fetch_seq >= self.stream.len() {
            self.fetch_state = FetchState::Drained;
            return;
        }
        let pc = self.stream.pc(self.fetch_seq);
        let r = self.mem.fetch(pc, self.cycle);
        if !r.l1_hit {
            self.events.raise(EventId::ICacheMiss);
            self.refill_until = r.ready_cycle;
        }
        if r.tlb.l1_missed() {
            self.events.raise(EventId::ITlbMiss);
        }
        if r.tlb.l2_missed() {
            self.events.raise(EventId::L2TlbMiss);
        }
        self.fetch_state = FetchState::Waiting {
            ready: r.ready_cycle,
        };
    }

    /// Delivers up to `fetch_width` stream instructions into the
    /// instruction buffer, consulting the predictor at control flow.
    fn deliver_group(&mut self) {
        let width = self.config.fetch_width;
        let mut delivered = 0;
        // A valid packet arrived: recovery (if any) ends.
        self.recovering = false;
        while delivered < width
            && self.ibuf.len() < self.config.ibuf_entries
            && self.fetch_seq < self.stream.len()
        {
            let d = self.stream.get(self.fetch_seq);
            let class = d.class();
            if !class.is_control_flow() {
                self.ibuf.push_back((d, None));
                self.fetch_seq += 1;
                delivered += 1;
                if class == InstrClass::Halt {
                    self.fetch_state = FetchState::Drained;
                    return;
                }
                continue;
            }
            let info = d.branch.expect("control flow has branch info");
            match class {
                InstrClass::Branch => {
                    let predicted_taken = self.bht.predict(d.pc);
                    let btb_target = self.btb.lookup(d.pc);
                    self.bht.update(d.pc, info.taken);
                    if info.taken {
                        self.btb.update(d.pc, info.target);
                    }
                    if predicted_taken == info.taken {
                        self.ibuf.push_back((d, None));
                        self.fetch_seq += 1;
                        if info.taken {
                            // Correctly predicted taken: the fetch group
                            // ends and the next-cycle redirect costs one
                            // fetch slot; a BTB miss additionally costs a
                            // decode-time resteer.
                            if btb_target != Some(info.target) {
                                self.events.raise(EventId::CfTargetMispredict);
                                self.fetch_allowed = self.cycle + self.config.resteer_penalty;
                            } else {
                                self.fetch_allowed = self.cycle + 1;
                            }
                            self.fetch_state = FetchState::Starting;
                            return;
                        }
                        delivered += 1;
                    } else {
                        // Direction mispredict: front-end goes down the
                        // wrong path until execute resolves.
                        self.ibuf.push_back((d, Some(Mispredict::Direction)));
                        self.fetch_seq += 1;
                        self.fetch_state = FetchState::WrongPath;
                        return;
                    }
                }
                InstrClass::Jump => {
                    // Direction is always taken; a BTB miss resteers from
                    // decode where the direct target is computed.
                    let btb_target = self.btb.lookup(d.pc);
                    self.btb.update(d.pc, info.target);
                    if is_call(&d.op) {
                        self.ras.push(d.pc + 4);
                    }
                    self.ibuf.push_back((d, None));
                    self.fetch_seq += 1;
                    if btb_target != Some(info.target) {
                        self.events.raise(EventId::CfTargetMispredict);
                        self.fetch_allowed = self.cycle + self.config.resteer_penalty;
                    } else {
                        self.fetch_allowed = self.cycle + 1;
                    }
                    self.fetch_state = FetchState::Starting;
                    return;
                }
                InstrClass::JumpReg => {
                    // Returns predict through the RAS; other indirect
                    // jumps through the BTB.
                    let btb_target = self.btb.lookup(d.pc);
                    let predicted = if is_return(&d.op) {
                        self.ras.pop().or(btb_target)
                    } else {
                        btb_target
                    };
                    self.btb.update(d.pc, info.target);
                    if is_call(&d.op) {
                        self.ras.push(d.pc + 4);
                    }
                    if predicted == Some(info.target) {
                        self.ibuf.push_back((d, None));
                        self.fetch_seq += 1;
                        self.fetch_allowed = self.cycle + 1;
                        self.fetch_state = FetchState::Starting;
                    } else {
                        // The register target is only known in execute.
                        self.ibuf.push_back((d, Some(Mispredict::Target)));
                        self.fetch_seq += 1;
                        self.fetch_state = FetchState::WrongPath;
                    }
                    return;
                }
                _ => unreachable!("non-control-flow handled above"),
            }
        }
        if self.fetch_seq >= self.stream.len() {
            self.fetch_state = FetchState::Drained;
        } else if !matches!(self.fetch_state, FetchState::WrongPath) {
            self.fetch_state = FetchState::Starting;
        }
    }

    // --- Back-end ---------------------------------------------------------

    fn backend(&mut self) {
        if self.exec_busy_until > self.cycle {
            match self.stall {
                StallKind::Mem => {
                    self.events.raise(EventId::DCacheBlocked);
                }
                StallKind::MulDiv => self.events.raise(EventId::MulDivInterlock),
                StallKind::Csr => self.events.raise(EventId::CsrInterlock),
                StallKind::FpLong => self.events.raise(EventId::LongLatencyInterlock),
                StallKind::Fence | StallKind::None => {}
            }
            return;
        }
        self.stall = StallKind::None;

        let Some(&(d, mispredict)) = self.ibuf.front() else {
            // IBuf invalid, decode ready: the paper's fetch-bubble
            // definition, suppressed while recovering.
            if self.recovering {
                self.events.raise(EventId::Recovering);
            } else if !self.done && !matches!(self.fetch_state, FetchState::Drained) {
                self.events.raise_lane(EventId::FetchBubbles, 0);
                if self.refill_until > self.cycle {
                    self.events.raise(EventId::ICacheBlocked);
                }
            }
            return;
        };

        // Operand interlocks.
        for &src in d.op.src_list().as_slice() {
            if self.scoreboard[src.index()] > self.cycle {
                match self.producer[src.index()] {
                    Some(InstrClass::Load | InstrClass::FpLoad) => {
                        // A wait deep into a refill is a memory stall, not
                        // a pipeline interlock (only reachable with a
                        // hit-under-miss cache).
                        if self.scoreboard[src.index()] > self.cycle + 2 {
                            self.events.raise(EventId::DCacheBlocked);
                        } else {
                            self.events.raise(EventId::LoadUseInterlock)
                        }
                    }
                    Some(InstrClass::Mul | InstrClass::Div) => {
                        self.events.raise(EventId::MulDivInterlock)
                    }
                    Some(InstrClass::Csr) => self.events.raise(EventId::CsrInterlock),
                    _ => self.events.raise(EventId::LongLatencyInterlock),
                }
                return;
            }
        }

        // Issue.
        self.ibuf.pop_front();
        self.issued += 1;
        self.events.raise_lane(EventId::UopsIssued, 0);
        let class = d.class();
        let mut result_ready = self.cycle + 1;
        match class {
            InstrClass::Alu => {}
            InstrClass::Mul => result_ready = self.cycle + self.config.mul_latency,
            InstrClass::Div => {
                self.exec_busy_until = self.cycle + self.config.div_latency;
                self.stall = StallKind::MulDiv;
                result_ready = self.exec_busy_until;
            }
            InstrClass::FpAlu => result_ready = self.cycle + self.config.fp_add_latency,
            InstrClass::FpMul => result_ready = self.cycle + self.config.fp_mul_latency,
            InstrClass::FpDiv => {
                self.exec_busy_until = self.cycle + self.config.fp_div_latency;
                self.stall = StallKind::FpLong;
                result_ready = self.exec_busy_until;
            }
            InstrClass::Load | InstrClass::FpLoad => {
                let a = d.mem.expect("load has access");
                let r = self.mem.load(a.addr, self.cycle);
                self.raise_dside(&r);
                if r.l1_hit {
                    // Data arrives at the end of the memory stage: a
                    // consumer in the very next instruction interlocks.
                    result_ready = self.cycle + 2;
                } else if self.config.blocking_dcache {
                    // Blocking data cache: the pipe holds in M.
                    self.exec_busy_until = r.ready_cycle;
                    self.stall = StallKind::Mem;
                    result_ready = r.ready_cycle;
                } else {
                    // Hit-under-miss: execution continues; the first
                    // consumer of the destination interlocks instead.
                    result_ready = r.ready_cycle;
                }
            }
            InstrClass::Store | InstrClass::FpStore => {
                let a = d.mem.expect("store has access");
                let r = self.mem.store(a.addr, self.cycle);
                self.raise_dside(&r);
                // Stores drain through a small store buffer and do not
                // block the pipe.
            }
            InstrClass::Amo => {
                // Read-modify-write: behaves like a load for the result
                // and always occupies the memory stage until done.
                let a = d.mem.expect("amo has access");
                let r = self.mem.store(a.addr, self.cycle);
                self.raise_dside(&r);
                if r.l1_hit {
                    result_ready = self.cycle + 2;
                } else {
                    self.exec_busy_until = r.ready_cycle;
                    self.stall = StallKind::Mem;
                    result_ready = r.ready_cycle;
                }
            }
            InstrClass::Branch | InstrClass::Jump | InstrClass::JumpReg => {
                if let Some(kind) = mispredict {
                    match kind {
                        Mispredict::Direction => self.events.raise(EventId::BranchMispredict),
                        Mispredict::Target => self.events.raise(EventId::CfTargetMispredict),
                    }
                    self.redirect_after_mispredict();
                }
                self.events.raise(EventId::BranchResolved);
            }
            InstrClass::Fence => {
                self.exec_busy_until = self.cycle + self.config.fence_latency;
                self.stall = StallKind::Fence;
                if matches!(d.op, Op::FenceI) {
                    self.mem.flush_icache();
                }
            }
            InstrClass::Csr => {
                self.exec_busy_until = self.cycle + self.config.csr_latency;
                self.stall = StallKind::Csr;
            }
            InstrClass::Halt => {
                self.done = true;
            }
        }

        if let Some(dst) = d.op.dst() {
            self.scoreboard[dst.index()] = result_ready;
            self.producer[dst.index()] = Some(class);
        }

        // Retire (single-issue in-order: issue and retire coincide once
        // the instruction is on the correct path, which it always is here).
        self.retired_pcs.push(d.pc);
        self.instret += 1;
        self.events.raise(EventId::InstrRetired);
        self.events.raise_lane(EventId::UopsRetired, 0);
        match class {
            InstrClass::Load | InstrClass::FpLoad => self.events.raise(EventId::LoadRetired),
            InstrClass::Store | InstrClass::FpStore => self.events.raise(EventId::StoreRetired),
            InstrClass::Amo => self.events.raise(EventId::AtomicRetired),
            InstrClass::Branch | InstrClass::Jump | InstrClass::JumpReg => {
                self.events.raise(EventId::BranchRetired)
            }
            InstrClass::Csr => self.events.raise(EventId::SystemRetired),
            InstrClass::Fence => self.events.raise(EventId::FenceRetired),
            _ => self.events.raise(EventId::ArithRetired),
        }
    }

    fn raise_dside(&mut self, r: &icicle_mem::AccessResult) {
        if !r.l1_hit {
            self.events.raise(EventId::DCacheMiss);
        }
        if r.writeback {
            self.events.raise(EventId::DCacheRelease);
        }
        if r.tlb.l1_missed() {
            self.events.raise(EventId::DTlbMiss);
        }
        if r.tlb.l2_missed() {
            self.events.raise(EventId::L2TlbMiss);
        }
    }

    fn redirect_after_mispredict(&mut self) {
        self.ibuf.clear();
        self.recovering = true;
        self.fetch_state = FetchState::Starting;
        self.fetch_allowed = self.cycle + self.config.mispredict_penalty;
        // Anything the wrong-path fetch had in flight is squashed.
        self.refill_until = 0;
    }

    // --- Quiescence analysis ----------------------------------------------

    /// Computes [`EventCore::time_until_next_event`] purely from current
    /// state: a strictly positive span is returned only when both pipeline
    /// halves are provably replaying the same stall cycle until some
    /// absolute wake time, so each skipped step would raise the exact
    /// event vector of the step before it and mutate nothing but `cycle`.
    fn quiescent_span(&self) -> Option<u64> {
        if self.done {
            return None;
        }
        let c = self.cycle;
        // Earliest absolute cycle at which any unit's behavior changes.
        let mut wake = u64::MAX;

        // Back end.
        if self.exec_busy_until > c {
            wake = wake.min(self.exec_busy_until);
        } else if let Some((d, _)) = self.ibuf.front() {
            let mut blocked = false;
            for &src in d.op.src_list().as_slice() {
                let ready = self.scoreboard[src.index()];
                if ready > c {
                    blocked = true;
                    wake = wake.min(ready);
                    // A load wait flips from D$-blocked to load-use
                    // interlock two cycles before the data arrives, which
                    // changes the raised event mid-wait.
                    if matches!(
                        self.producer[src.index()],
                        Some(InstrClass::Load | InstrClass::FpLoad)
                    ) && ready > c + 2
                    {
                        wake = wake.min(ready - 2);
                    }
                    break;
                }
            }
            if !blocked {
                // The head would issue next cycle.
                return None;
            }
        } else if self.refill_until > c {
            // Decode bubble: pure, but the I$-blocked annotation drops
            // the cycle the refill lands.
            wake = wake.min(self.refill_until);
        }

        // Front end. A full instruction buffer stays full for the whole
        // span (the back end is blocked above, so nothing is popped), so
        // it needs no timer.
        match self.fetch_state {
            FetchState::WrongPath | FetchState::Drained => {}
            FetchState::Starting => {
                if self.ibuf.len() < self.config.ibuf_entries {
                    if self.fetch_allowed > c {
                        wake = wake.min(self.fetch_allowed);
                    } else {
                        // Would start an I-cache access next cycle.
                        return None;
                    }
                }
            }
            FetchState::Waiting { ready } => {
                if self.ibuf.len() < self.config.ibuf_entries {
                    if ready > c {
                        wake = wake.min(ready);
                    } else {
                        // Would deliver a fetch packet next cycle.
                        return None;
                    }
                }
            }
        }

        match wake {
            u64::MAX => None,
            w => Some(w - c),
        }
    }
}

impl L2Linked for Rocket {
    fn attach_l2_port(&mut self, port: L2Port) {
        self.mem.attach_l2_port(port);
    }

    fn detach_l2_port(&mut self) {
        self.mem.detach_l2_port();
    }
}

impl EventCore for Rocket {
    fn step(&mut self) -> &EventVector {
        // Deliberately free of observability hooks: the global cycle
        // tallies are settled once per session by `Perf::run`, so this
        // loop pays nothing for the tracing layer. The bench ledger's
        // ≤1% overhead contract rides on that staying true.
        self.events.clear();
        self.retired_pcs.clear();
        self.events.raise(EventId::Cycles);
        if !self.done {
            self.backend();
            self.frontend();
        }
        self.cycle += 1;
        &self.events
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn commit_width(&self) -> usize {
        1
    }

    fn issue_width(&self) -> usize {
        1
    }

    fn name(&self) -> &str {
        "rocket"
    }

    fn retired_pcs(&self) -> &[u64] {
        &self.retired_pcs
    }

    fn time_until_next_event(&self) -> Option<u64> {
        self.quiescent_span()
    }

    fn fast_forward(&mut self, cycles: u64) {
        self.cycle += cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icicle_isa::{Interpreter, ProgramBuilder, Reg};

    fn run_program(b: ProgramBuilder) -> (Rocket, Counters) {
        let stream = Interpreter::new(&b.build().unwrap())
            .run(5_000_000)
            .unwrap();
        let mut core = Rocket::new(RocketConfig::default(), stream);
        let mut c = Counters::default();
        while !core.is_done() {
            let ev = core.step();
            c.cycles += 1;
            c.retired += ev.count(EventId::InstrRetired) as u64;
            c.issued += ev.count(EventId::UopsIssued) as u64;
            c.bubbles += ev.count(EventId::FetchBubbles) as u64;
            c.recovering += ev.count(EventId::Recovering) as u64;
            c.br_mispred += ev.count(EventId::BranchMispredict) as u64;
            c.icache_miss += ev.count(EventId::ICacheMiss) as u64;
            c.icache_blocked += ev.count(EventId::ICacheBlocked) as u64;
            c.dcache_blocked += ev.count(EventId::DCacheBlocked) as u64;
            c.load_use += ev.count(EventId::LoadUseInterlock) as u64;
            c.muldiv += ev.count(EventId::MulDivInterlock) as u64;
            c.cf_target += ev.count(EventId::CfTargetMispredict) as u64;
            c.csr_interlock += ev.count(EventId::CsrInterlock) as u64;
            c.dtlb_miss += ev.count(EventId::DTlbMiss) as u64;
            assert!(c.cycles < 4_000_000, "runaway simulation");
        }
        (core, c)
    }

    #[derive(Default, Debug)]
    struct Counters {
        cycles: u64,
        retired: u64,
        issued: u64,
        bubbles: u64,
        recovering: u64,
        br_mispred: u64,
        icache_miss: u64,
        icache_blocked: u64,
        dcache_blocked: u64,
        load_use: u64,
        muldiv: u64,
        cf_target: u64,
        csr_interlock: u64,
        dtlb_miss: u64,
    }

    fn tight_loop(iters: i64, body_nops: usize) -> ProgramBuilder {
        let mut b = ProgramBuilder::new("loop");
        b.li(Reg::T0, 0);
        b.li(Reg::T1, iters);
        b.label("l");
        for _ in 0..body_nops {
            b.nop();
        }
        b.addi(Reg::T0, Reg::T0, 1);
        b.blt(Reg::T0, Reg::T1, "l");
        b.halt();
        b
    }

    #[test]
    fn predictable_loop_reaches_high_ipc() {
        let (core, c) = run_program(tight_loop(2000, 6));
        let ipc = c.retired as f64 / c.cycles as f64;
        assert!(ipc > 0.8, "ipc {ipc} too low (cycles {})", c.cycles);
        assert_eq!(core.instret(), c.retired);
        // The backward loop branch trains quickly.
        assert!(c.br_mispred < 10, "mispredicts {}", c.br_mispred);
    }

    #[test]
    fn retired_equals_stream_length() {
        let (core, c) = run_program(tight_loop(100, 2));
        // Every dynamic instruction retires exactly once.
        assert_eq!(c.retired, core.stream.len() as u64);
        assert_eq!(
            c.issued, c.retired,
            "in-order core issues correct path only"
        );
    }

    #[test]
    fn unpredictable_branches_cost_recovery() {
        // Data-dependent alternating branches defeat the 2-bit BHT.
        let mut b = ProgramBuilder::new("br");
        b.li(Reg::T0, 0);
        b.li(Reg::T1, 1000);
        b.li(Reg::T3, 0);
        b.label("l");
        b.andi(Reg::T2, Reg::T0, 1);
        b.beq(Reg::T2, Reg::ZERO, "even");
        b.addi(Reg::T3, Reg::T3, 1);
        b.label("even");
        b.addi(Reg::T0, Reg::T0, 1);
        b.blt(Reg::T0, Reg::T1, "l");
        b.halt();
        let (_, c) = run_program(b);
        assert!(
            c.br_mispred > 300,
            "alternating branch should mispredict, got {}",
            c.br_mispred
        );
        assert!(c.recovering > 0, "recovery bubbles must appear");
    }

    #[test]
    fn cold_icache_misses_then_warms_up() {
        let (_, c) = run_program(tight_loop(500, 40));
        // The 40+-instruction body spans several blocks: a few cold
        // misses, then the loop body hits.
        assert!(c.icache_miss >= 1);
        assert!(
            c.icache_miss < 20,
            "warm loop should not keep missing: {}",
            c.icache_miss
        );
    }

    #[test]
    fn pointer_chase_is_memory_bound() {
        // A dependent-load chain over a 256 KiB working set: misses L1,
        // blocking D$ stalls dominate.
        let mut b = ProgramBuilder::new("chase");
        let n = 4096u64; // 8-byte entries, 32 KiB > L1? 4096*8 = 32 KiB exactly; stride to beat it
        let entries: Vec<u64> = (0..n)
            .map(|i| {
                let next = (i + 97) % n; // large co-prime stride
                next
            })
            .collect();
        let table = b.data_u64(&entries);
        b.li(Reg::T0, table as i64);
        b.li(Reg::T1, 0); // index
        b.li(Reg::T2, 20000); // iterations
        b.li(Reg::T3, 0);
        b.label("l");
        b.slli(Reg::T4, Reg::T1, 3);
        b.add(Reg::T4, Reg::T0, Reg::T4);
        b.ld(Reg::T1, Reg::T4, 0); // dependent load
        b.addi(Reg::T3, Reg::T3, 1);
        b.blt(Reg::T3, Reg::T2, "l");
        b.halt();
        let (core, c) = run_program(b);
        let backend_frac = c.dcache_blocked as f64 / c.cycles as f64;
        assert!(
            backend_frac > 0.1,
            "expected memory stalls, got fraction {backend_frac}"
        );
        assert!(core.ipc() < 0.9);
    }

    #[test]
    fn divider_blocks_pipeline() {
        let mut b = ProgramBuilder::new("div");
        b.li(Reg::T0, 1_000_000);
        b.li(Reg::T1, 7);
        b.li(Reg::T2, 0);
        b.li(Reg::T3, 200);
        b.label("l");
        b.div(Reg::T4, Reg::T0, Reg::T1);
        b.addi(Reg::T2, Reg::T2, 1);
        b.blt(Reg::T2, Reg::T3, "l");
        b.halt();
        let (_, c) = run_program(b);
        assert!(
            c.muldiv > 200 * 20,
            "iterative divide should stall, got {}",
            c.muldiv
        );
    }

    #[test]
    fn load_use_interlock_fires() {
        let mut b = ProgramBuilder::new("lu");
        let buf = b.data_u64(&[5]);
        b.li(Reg::T0, buf as i64);
        b.li(Reg::T2, 0);
        b.li(Reg::T3, 500);
        b.label("l");
        b.ld(Reg::T1, Reg::T0, 0);
        b.addi(Reg::T1, Reg::T1, 1); // immediate use of the load
        b.addi(Reg::T2, Reg::T2, 1);
        b.blt(Reg::T2, Reg::T3, "l");
        b.halt();
        let (_, c) = run_program(b);
        assert!(
            c.load_use > 300,
            "back-to-back load-use should interlock, got {}",
            c.load_use
        );
    }

    #[test]
    fn cycle_accounting_is_exhaustive_enough() {
        // Cycles ≈ retired + bubbles + recovering + backend stalls.
        let (_, c) = run_program(tight_loop(1000, 4));
        let accounted = c.retired + c.bubbles + c.recovering;
        assert!(
            accounted as f64 >= 0.9 * c.cycles as f64,
            "accounted {accounted} of {} cycles",
            c.cycles
        );
    }

    #[test]
    fn quiet_after_done() {
        let mut b = ProgramBuilder::new("t");
        b.nop();
        b.halt();
        let stream = Interpreter::new(&b.build().unwrap()).run(100).unwrap();
        let mut core = Rocket::new(RocketConfig::default(), stream);
        while !core.is_done() {
            core.step();
        }
        let ev = core.step();
        assert_eq!(ev.count(EventId::InstrRetired), 0);
        assert!(ev.is_set(EventId::Cycles));
    }

    #[test]
    fn quiescent_skip_matches_stepping() {
        // Same stream twice: one core stepped cycle-by-cycle, one
        // fast-forwarded through every claimed quiescent span. Final
        // cycle, instret, and every event total must match exactly.
        let mut b = ProgramBuilder::new("skipmix");
        let n = 4096u64;
        let entries: Vec<u64> = (0..n).map(|i| (i + 97) % n).collect();
        let table = b.data_u64(&entries);
        b.li(Reg::S0, table as i64);
        b.li(Reg::T0, 1_000_000);
        b.li(Reg::T1, 7);
        b.li(Reg::T2, 0);
        b.li(Reg::T3, 500);
        b.li(Reg::T5, 0);
        b.label("l");
        b.div(Reg::T4, Reg::T0, Reg::T1);
        b.slli(Reg::T6, Reg::T5, 3);
        b.add(Reg::T6, Reg::S0, Reg::T6);
        b.ld(Reg::T5, Reg::T6, 0); // dependent, often missing load
        b.addi(Reg::T2, Reg::T2, 1);
        b.blt(Reg::T2, Reg::T3, "l");
        b.halt();
        let program = b.build().unwrap();
        let stream = Interpreter::new(&program).run(5_000_000).unwrap();

        let mut stepped = Rocket::new(RocketConfig::default(), stream.clone());
        let mut step_counts = icicle_events::EventCounts::new();
        while !stepped.is_done() {
            step_counts.observe(stepped.step());
        }

        let mut skipped = Rocket::new(RocketConfig::default(), stream);
        let mut skip_counts = icicle_events::EventCounts::new();
        let mut spans = 0u64;
        while !skipped.is_done() {
            let span = skipped.time_until_next_event();
            let v = skipped.step().clone();
            skip_counts.observe(&v);
            if let Some(n) = span {
                if n >= 2 {
                    skipped.fast_forward(n - 1);
                    skip_counts.observe_many(&v, n - 1);
                    spans += 1;
                }
            }
            assert!(skipped.cycle() < 10_000_000, "runaway skip loop");
        }

        assert!(spans > 100, "stall-heavy program must skip, got {spans}");
        assert_eq!(stepped.cycle(), skipped.cycle());
        assert_eq!(stepped.instret(), skipped.instret());
        assert_eq!(step_counts, skip_counts);
    }

    #[test]
    fn hit_under_miss_overlaps_independent_work() {
        // A missing load followed by a long independent ALU stretch: the
        // blocking cache serializes them, hit-under-miss overlaps them.
        let mut b = ProgramBuilder::new("hum");
        let n = 8192u64;
        let mut entries: Vec<u64> = (0..n).collect();
        let mut rng = 0xabcdu64;
        for i in (1..n as usize).rev() {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            entries.swap(i, (rng % i as u64) as usize);
        }
        let table = b.data_u64(&entries);
        b.li(Reg::S0, table as i64);
        b.li(Reg::T0, 0); // chase index
        b.li(Reg::T1, 0);
        b.li(Reg::T2, 500);
        b.li(Reg::S1, 0);
        b.label("l");
        b.slli(Reg::T3, Reg::T0, 3);
        b.add(Reg::T3, Reg::S0, Reg::T3);
        b.ld(Reg::T0, Reg::T3, 0); // likely misses
                                   // Twelve independent ALU ops that don't need the load.
        for _ in 0..6 {
            b.addi(Reg::S1, Reg::S1, 3);
            b.xori(Reg::S1, Reg::S1, 5);
        }
        b.addi(Reg::T1, Reg::T1, 1);
        b.blt(Reg::T1, Reg::T2, "l");
        b.halt();
        let program = b.build().unwrap();
        let stream = Interpreter::new(&program).run(1_000_000).unwrap();

        let mut blocking = Rocket::new(RocketConfig::default(), stream.clone());
        let t_blocking = blocking.run_to_completion(50_000_000).unwrap();
        let hum_cfg = RocketConfig {
            blocking_dcache: false,
            ..RocketConfig::default()
        };
        let mut hum = Rocket::new(hum_cfg, stream);
        let t_hum = hum.run_to_completion(50_000_000).unwrap();
        assert!(
            t_hum * 10 < t_blocking * 9,
            "hit-under-miss should overlap >10%: blocking {t_blocking}, hum {t_hum}"
        );
    }

    #[test]
    fn btb_miss_on_taken_jump_raises_resteer() {
        // A long chain of direct jumps to fresh PCs: every jal misses the
        // 28-entry BTB and resteers from decode.
        let mut b = ProgramBuilder::new("jumps");
        b.li(Reg::A0, 0);
        for k in 0..100 {
            let next = format!("j{k}");
            b.addi(Reg::A0, Reg::A0, 1);
            b.j(&next);
            b.label(&next);
        }
        b.halt();
        let (_, c) = run_program(b);
        assert!(
            c.cf_target > 80,
            "cold jumps should resteer: {}",
            c.cf_target
        );
    }

    #[test]
    fn returns_predict_through_the_ras() {
        // Deep call/return nesting: every return goes back to a different
        // site, which defeats a BTB but not a RAS.
        let mut b = ProgramBuilder::new("calls");
        b.li(Reg::A0, 0);
        b.li(Reg::T0, 0);
        b.li(Reg::T1, 200);
        b.label("l");
        b.call("f1");
        b.call("f2");
        b.addi(Reg::T0, Reg::T0, 1);
        b.blt(Reg::T0, Reg::T1, "l");
        b.halt();
        b.label("f1");
        b.addi(Reg::A0, Reg::A0, 1);
        b.ret();
        b.label("f2");
        b.addi(Reg::A0, Reg::A0, 2);
        b.ret();
        let (_, c) = run_program(b);
        // With the RAS warm, returns stop mispredicting: only the cold
        // first iterations pay.
        assert!(
            c.cf_target + c.br_mispred < 30,
            "RAS should cover returns: target {} direction {}",
            c.cf_target,
            c.br_mispred
        );
    }

    #[test]
    fn csr_access_serializes() {
        let mut b = ProgramBuilder::new("csr");
        b.li(Reg::T0, 0);
        b.li(Reg::T1, 100);
        b.label("l");
        b.csrrw(Reg::T2, 0x300, Reg::T0);
        b.addi(Reg::T0, Reg::T0, 1);
        b.blt(Reg::T0, Reg::T1, "l");
        b.halt();
        let (_, c) = run_program(b);
        assert!(
            c.csr_interlock >= 100,
            "csr accesses must serialize: {}",
            c.csr_interlock
        );
    }

    #[test]
    fn tlb_misses_fire_on_sparse_footprints() {
        // Touch one word per page across 256 pages: the 32-entry DTLB and
        // the 512-entry shared TLB both see misses.
        let mut b = ProgramBuilder::new("tlb");
        let base = b.alloc_data(256 * 4096);
        b.li(Reg::S0, base as i64);
        b.li(Reg::T0, 0);
        b.li(Reg::T1, 256);
        b.li(Reg::A0, 0);
        b.label("l");
        b.slli(Reg::T2, Reg::T0, 12);
        b.add(Reg::T2, Reg::S0, Reg::T2);
        b.ld(Reg::T3, Reg::T2, 0);
        b.add(Reg::A0, Reg::A0, Reg::T3);
        b.addi(Reg::T0, Reg::T0, 1);
        b.blt(Reg::T0, Reg::T1, "l");
        b.halt();
        let (_, c) = run_program(b);
        assert!(
            c.dtlb_miss >= 200,
            "sparse pages must miss: {}",
            c.dtlb_miss
        );
    }

    #[test]
    fn fence_i_invalidates_icache() {
        let mut b = ProgramBuilder::new("fi");
        b.li(Reg::T0, 0);
        b.li(Reg::T1, 50);
        b.label("l");
        b.fence_i();
        b.addi(Reg::T0, Reg::T0, 1);
        b.blt(Reg::T0, Reg::T1, "l");
        b.halt();
        let (_, c) = run_program(b);
        // Every iteration refetches from L2 after the flush.
        assert!(
            c.icache_miss >= 50,
            "fence.i must force I$ misses, got {}",
            c.icache_miss
        );
    }
}
