//! The BOOM out-of-order pipeline timing model.

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

use icicle_events::{EventCore, EventId, EventVector};
use icicle_isa::{DynStream, InstrClass, MemAccess, Op, Program, RegId};
use icicle_mem::{L2Linked, L2Port, MemoryHierarchy, MshrFile};

use crate::config::{BoomConfig, PredictorKind};
use crate::predictor::{BoomBtb, Gshare};
use crate::tage::Tage;
use icicle_rocket::{is_call, is_return, ReturnAddressStack};

type UopId = u64;

/// Why a control-flow µop will flush at resolution.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Mispredict {
    Direction,
    Target,
}

#[derive(Clone, Debug)]
struct Uop {
    id: UopId,
    /// Index into the dynamic stream; `None` for wrong-path µops.
    stream_idx: Option<usize>,
    pc: u64,
    class: InstrClass,
    dst: Option<RegId>,
    /// Producer µops still in flight at dispatch time.
    deps: Deps,
    mem: Option<MemAccess>,
    mispredict: Option<Mispredict>,
    is_fence_i: bool,
    issued: bool,
    /// `u64::MAX` until the µop has issued.
    complete_cycle: u64,
}

impl Uop {
    fn complete(&self, now: u64) -> bool {
        self.issued && self.complete_cycle <= now
    }
}

/// Producer dependences of a µop, stored inline: an operation reads at
/// most two registers, so a µop can depend on at most two in-flight
/// writers and a heap-backed list is never needed.
#[derive(Copy, Clone, Debug)]
struct Deps {
    ids: [UopId; 2],
    len: u8,
}

impl Deps {
    fn new() -> Deps {
        Deps {
            ids: [0; 2],
            len: 0,
        }
    }

    fn push(&mut self, id: UopId) {
        self.ids[self.len as usize] = id;
        self.len += 1;
    }

    fn as_slice(&self) -> &[UopId] {
        &self.ids[..self.len as usize]
    }
}

/// The in-flight µop table, indexed by [`UopId`].
///
/// Ids are allocated monotonically in fetch order and dispatched in that
/// same order, so the live set is always a sliding window of recent ids
/// (bounded by the ROB plus squash gaps). A deque of slots over a moving
/// `base` makes every lookup an index subtraction instead of a hash —
/// this table is touched several times per issue port per cycle, where a
/// `HashMap` shows up prominently in profiles.
///
/// Squashes leave id gaps (fetch-buffer µops consume ids but never
/// dispatch): `insert` pads them with empty slots and `remove` trims
/// dead slots off both edges to keep the window tight.
#[derive(Clone, Debug, Default)]
struct UopArena {
    base: UopId,
    slots: VecDeque<Option<Uop>>,
}

impl UopArena {
    fn slot_of(&self, id: UopId) -> Option<usize> {
        if id < self.base {
            return None;
        }
        let idx = (id - self.base) as usize;
        (idx < self.slots.len()).then_some(idx)
    }

    fn get(&self, id: UopId) -> Option<&Uop> {
        self.slot_of(id).and_then(|i| self.slots[i].as_ref())
    }

    fn get_mut(&mut self, id: UopId) -> Option<&mut Uop> {
        match self.slot_of(id) {
            Some(i) => self.slots[i].as_mut(),
            None => None,
        }
    }

    fn contains(&self, id: UopId) -> bool {
        self.get(id).is_some()
    }

    fn insert(&mut self, u: Uop) {
        let id = u.id;
        if self.slots.is_empty() {
            self.base = id;
        }
        debug_assert!(
            id >= self.base + self.slots.len() as UopId,
            "µop ids must be inserted in increasing order"
        );
        while (self.slots.len() as UopId) < id - self.base {
            self.slots.push_back(None);
        }
        self.slots.push_back(Some(u));
    }

    fn remove(&mut self, id: UopId) -> Option<Uop> {
        let idx = self.slot_of(id)?;
        let u = self.slots[idx].take();
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.base += 1;
        }
        while matches!(self.slots.back(), Some(None)) {
            self.slots.pop_back();
        }
        u
    }
}

impl std::ops::Index<UopId> for UopArena {
    type Output = Uop;

    fn index(&self, id: UopId) -> &Uop {
        self.get(id).expect("µop not in flight")
    }
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum FetchState {
    Starting,
    Waiting { ready: u64 },
    Drained,
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum IqKind {
    Int,
    Mem,
    Fp,
}

fn iq_of(class: InstrClass) -> IqKind {
    match class {
        InstrClass::Load
        | InstrClass::Store
        | InstrClass::Amo
        | InstrClass::FpLoad
        | InstrClass::FpStore => IqKind::Mem,
        InstrClass::FpAlu | InstrClass::FpMul | InstrClass::FpDiv => IqKind::Fp,
        _ => IqKind::Int,
    }
}

/// The cycle-level BOOM core model.
///
/// Construct with a [`BoomConfig`], the architectural [`DynStream`], and
/// the [`Program`] text (needed to synthesize wrong-path µops after a
/// misprediction), then drive it through [`EventCore`].
#[derive(Clone, Debug)]
enum Predictor {
    Gshare(Gshare),
    Tage(Tage),
}

impl Predictor {
    fn predict(&self, pc: u64) -> bool {
        match self {
            Predictor::Gshare(p) => p.predict(pc),
            Predictor::Tage(p) => p.predict(pc),
        }
    }

    fn update(&mut self, pc: u64, taken: bool) {
        match self {
            Predictor::Gshare(p) => p.update(pc, taken),
            Predictor::Tage(p) => p.update(pc, taken),
        }
    }
}

#[derive(Debug)]
pub struct Boom {
    config: BoomConfig,
    mem: MemoryHierarchy,
    mshrs: MshrFile,
    predictor: Predictor,
    btb: BoomBtb,
    ras: ReturnAddressStack,
    stream: DynStream,
    program: Arc<Program>,

    cycle: u64,
    done: bool,
    instret: u64,
    next_uop_id: UopId,
    last_commit_cycle: u64,

    // Front-end
    fetch_state: FetchState,
    fetch_seq: usize,
    fetch_allowed: u64,
    refill_until: u64,
    recovering: bool,
    wrong_path: bool,
    wp_pc: u64,
    fb: VecDeque<Uop>,

    // Back-end
    uops: UopArena,
    rob: VecDeque<UopId>,
    iq_int: VecDeque<UopId>,
    iq_mem: VecDeque<UopId>,
    iq_fp: VecDeque<UopId>,
    rename: [Option<UopId>; RegId::COUNT],
    loads_in_rob: usize,
    stores_in_rob: usize,
    inflight_loads: Vec<(UopId, u64, u64)>, // (id, addr, size)
    pending_branch_flushes: Vec<(u64, UopId)>, // (resolve cycle, uop)
    div_busy_until: u64,
    fp_div_busy_until: u64,
    fence_in_rob: bool,
    fence_head_since: Option<u64>,
    halt_dispatched: bool,
    /// PCs of loads that have caused ordering violations (the
    /// store-set-style memory dependence predictor's training state).
    violating_loads: HashSet<u64>,
    /// Reused across squashes so a flush does not allocate.
    squash_scratch: Vec<UopId>,

    retired_pcs: Vec<u64>,

    // Per-cycle bookkeeping for derived events
    issued_this_cycle: usize,

    events: EventVector,
}

impl Boom {
    /// Creates a core positioned at the first instruction of `stream`.
    ///
    /// The program is accepted as anything convertible to an
    /// `Arc<Program>`: passing an owned [`Program`] still works, while
    /// callers that run many measurements over the same workload can
    /// share one `Arc` and skip the per-run copy of the text and data
    /// image.
    pub fn new(config: BoomConfig, stream: DynStream, program: impl Into<Arc<Program>>) -> Boom {
        let mem = MemoryHierarchy::new(config.memory);
        Boom::with_memory(config, stream, program, mem)
    }

    /// Creates a core over an explicit memory hierarchy (used by SoC
    /// configurations with a shared L2).
    pub fn with_memory(
        config: BoomConfig,
        stream: DynStream,
        program: impl Into<Arc<Program>>,
        mem: MemoryHierarchy,
    ) -> Boom {
        Boom {
            mem,
            mshrs: MshrFile::new(config.n_mshrs),
            predictor: match config.predictor {
                PredictorKind::Tage => Predictor::Tage(Tage::new(config.predictor_entries)),
                PredictorKind::Gshare => Predictor::Gshare(Gshare::new(config.predictor_entries)),
            },
            btb: BoomBtb::new(config.btb_entries),
            ras: ReturnAddressStack::new(config.ras_entries),
            stream,
            program: program.into(),
            cycle: 0,
            done: false,
            instret: 0,
            next_uop_id: 0,
            last_commit_cycle: 0,
            fetch_state: FetchState::Starting,
            fetch_seq: 0,
            fetch_allowed: 0,
            refill_until: 0,
            recovering: false,
            wrong_path: false,
            wp_pc: 0,
            fb: VecDeque::with_capacity(config.fetch_buffer_entries),
            uops: UopArena::default(),
            rob: VecDeque::with_capacity(config.rob_entries),
            iq_int: VecDeque::new(),
            iq_mem: VecDeque::new(),
            iq_fp: VecDeque::new(),
            rename: [None; RegId::COUNT],
            loads_in_rob: 0,
            stores_in_rob: 0,
            inflight_loads: Vec::new(),
            pending_branch_flushes: Vec::new(),
            div_busy_until: 0,
            fp_div_busy_until: 0,
            fence_in_rob: false,
            fence_head_since: None,
            halt_dispatched: false,
            violating_loads: HashSet::new(),
            squash_scratch: Vec::new(),
            retired_pcs: Vec::with_capacity(8),
            issued_this_cycle: 0,
            events: EventVector::new(),
            config,
        }
    }

    /// The configuration the core was built with.
    pub fn config(&self) -> &BoomConfig {
        &self.config
    }

    /// Retired (on-path) instructions so far.
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

    /// Runs to completion, bounded by `max_cycles`.
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

    fn alloc_id(&mut self) -> UopId {
        let id = self.next_uop_id;
        self.next_uop_id += 1;
        id
    }

    // --- Flush machinery ---------------------------------------------------

    /// Squashes every µop with `id > cut` (or `>= cut` when `inclusive`).
    fn squash_younger(&mut self, cut: UopId, inclusive: bool) {
        let keep = |id: UopId| if inclusive { id < cut } else { id <= cut };
        let mut removed = std::mem::take(&mut self.squash_scratch);
        removed.clear();
        removed.extend(self.rob.iter().copied().filter(|&id| !keep(id)));
        self.rob.retain(|&id| keep(id));
        self.iq_int.retain(|&id| keep(id));
        self.iq_mem.retain(|&id| keep(id));
        self.iq_fp.retain(|&id| keep(id));
        self.inflight_loads.retain(|&(id, _, _)| keep(id));
        self.pending_branch_flushes.retain(|&(_, id)| keep(id));
        for &id in &removed {
            if let Some(u) = self.uops.remove(id) {
                match u.class {
                    InstrClass::Load | InstrClass::FpLoad | InstrClass::Amo => {
                        self.loads_in_rob -= 1
                    }
                    InstrClass::Store | InstrClass::FpStore => self.stores_in_rob -= 1,
                    InstrClass::Fence => self.fence_in_rob = false,
                    _ => {}
                }
            }
        }
        removed.clear();
        self.squash_scratch = removed;
        self.fb.clear();
        // Rebuild the rename table from the surviving ROB, oldest first.
        self.rename = [None; RegId::COUNT];
        for &id in &self.rob {
            if let Some(dst) = self.uops[id].dst {
                self.rename[dst.index()] = Some(id);
            }
        }
        if self.fence_in_rob
            && !self
                .rob
                .iter()
                .any(|&id| self.uops[id].class == InstrClass::Fence)
        {
            self.fence_in_rob = false;
        }
    }

    fn redirect_fetch(&mut self, resume_seq: usize) {
        self.fetch_seq = resume_seq;
        self.fetch_state = if resume_seq >= self.stream.len() {
            FetchState::Drained
        } else {
            FetchState::Starting
        };
        self.fetch_allowed = self.cycle + self.config.redirect_penalty;
        self.recovering = true;
        self.wrong_path = false;
        self.refill_until = 0;
        self.halt_dispatched = false;
    }

    /// Applies the oldest branch flush that resolves at or before `cycle`.
    fn resolve_branch_flushes(&mut self) {
        loop {
            let due: Option<(u64, UopId)> = self
                .pending_branch_flushes
                .iter()
                .copied()
                .filter(|&(ready, id)| {
                    ready <= self.cycle
                        && self
                            .uops
                            .get(id)
                            .map(|u| u.complete(self.cycle))
                            .unwrap_or(false)
                })
                .min_by_key(|&(_, id)| id);
            let Some((_, id)) = due else { return };
            self.pending_branch_flushes.retain(|&(_, i)| i != id);
            let u = &self.uops[id];
            let kind = u.mispredict.expect("flush source is mispredicted");
            let resume = u.stream_idx.expect("on-path branch") + 1;
            match kind {
                Mispredict::Direction => self.events.raise(EventId::BranchMispredict),
                Mispredict::Target => self.events.raise(EventId::CfTargetMispredict),
            }
            self.squash_younger(id, false);
            self.redirect_fetch(resume);
        }
    }

    /// Whether any store older than `load_id` is still waiting to issue.
    fn older_store_unissued(&self, load_id: UopId) -> bool {
        self.iq_mem.iter().any(|&id| {
            id < load_id
                && self
                    .uops
                    .get(id)
                    .map(|u| {
                        !u.issued
                            && matches!(
                                u.class,
                                InstrClass::Store | InstrClass::FpStore | InstrClass::Amo
                            )
                    })
                    .unwrap_or(false)
        })
    }

    /// Machine clear: a store found a younger load that already executed
    /// with an overlapping address. Flush from the load (inclusive) and
    /// replay.
    fn machine_clear(&mut self, load_id: UopId) {
        let load = &self.uops[load_id];
        let resume = load.stream_idx.expect("replayed load is on-path");
        self.violating_loads.insert(load.pc);
        self.events.raise(EventId::Flush);
        self.squash_younger(load_id, true);
        self.redirect_fetch(resume);
    }

    // --- Commit -------------------------------------------------------------

    fn commit(&mut self) {
        let retired = self.commit_lanes();
        // Commit lanes fill in order from lane 0; raising the whole group
        // as one span produces the exact vector the per-lane raises did.
        self.events
            .raise_lane_span(EventId::UopsRetired, 0, retired);
        self.events.raise_n(EventId::InstrRetired, retired as u16);
    }

    /// Retires up to `decode_width` µops from the ROB head and returns
    /// how many lanes retired; the caller raises the per-lane events.
    fn commit_lanes(&mut self) -> usize {
        let mut retired = 0;
        while retired < self.config.decode_width {
            let Some(&head) = self.rob.front() else { break };
            let u = &self.uops[head];
            if u.class == InstrClass::Fence {
                if !u.issued {
                    // A fence waits at the ROB head for the pipeline to
                    // drain, then spends `fence_latency` cycles flushing.
                    if self.rob.len() == 1 {
                        let since = *self.fence_head_since.get_or_insert(self.cycle);
                        if self.cycle >= since + self.config.fence_latency {
                            let u = self.uops.get_mut(head).expect("head exists");
                            u.issued = true;
                            u.complete_cycle = self.cycle;
                        }
                    }
                    break;
                }
            } else if !u.complete(self.cycle) {
                break;
            }
            // Retire.
            let u = self.uops.remove(head).expect("head exists");
            self.rob.pop_front();
            self.last_commit_cycle = self.cycle;
            retired += 1;
            debug_assert!(u.stream_idx.is_some(), "wrong-path µop reached commit");
            self.retired_pcs.push(u.pc);
            self.instret += 1;
            if let Some(dst) = u.dst {
                if self.rename[dst.index()] == Some(head) {
                    self.rename[dst.index()] = None;
                }
            }
            match u.class {
                InstrClass::Load | InstrClass::FpLoad | InstrClass::Amo => {
                    if u.class == InstrClass::Amo {
                        self.events.raise(EventId::AtomicRetired);
                    }
                    self.loads_in_rob -= 1;
                    self.inflight_loads.retain(|&(id, _, _)| id != head);
                }
                InstrClass::Store | InstrClass::FpStore => self.stores_in_rob -= 1,
                InstrClass::Fence => {
                    self.events.raise(EventId::FenceRetired);
                    self.fence_in_rob = false;
                    self.fence_head_since = None;
                    if u.is_fence_i {
                        self.mem.flush_icache();
                    }
                    // The intended pipeline flush: refetch younger
                    // instructions.
                    let resume = u.stream_idx.expect("fence is on-path") + 1;
                    self.squash_younger(head, false);
                    self.redirect_fetch(resume);
                    return retired;
                }
                InstrClass::Halt => {
                    self.done = true;
                    return retired;
                }
                _ => {}
            }
        }
        retired
    }

    // --- Issue ---------------------------------------------------------------

    fn deps_ready(&self, u: &Uop) -> bool {
        u.deps.as_slice().iter().all(|&d| {
            self.uops
                .get(d)
                .map(|p| p.complete(self.cycle))
                .unwrap_or(true)
        })
    }

    fn issue(&mut self) {
        self.issued_this_cycle = 0;
        self.mshrs.drain_completed(self.cycle);
        let int_ports = self.config.int_issue_ports;
        let mem_ports = self.config.mem_issue_ports;
        let fp_ports = self.config.fp_issue_ports;
        self.issue_queue(IqKind::Int, 0, int_ports);
        self.issue_queue(IqKind::Mem, int_ports, mem_ports);
        self.issue_queue(IqKind::Fp, int_ports + mem_ports, fp_ports);
    }

    fn issue_queue(&mut self, kind: IqKind, first_lane: usize, ports: usize) {
        let mut granted = 0;
        let mut pos = 0;
        let mut clears: Vec<UopId> = Vec::new();
        while granted < ports {
            let queue = match kind {
                IqKind::Int => &self.iq_int,
                IqKind::Mem => &self.iq_mem,
                IqKind::Fp => &self.iq_fp,
            };
            let Some(&id) = queue.get(pos) else { break };
            let Some(u) = self.uops.get(id) else {
                pos += 1;
                continue;
            };
            if !self.deps_ready(u) {
                pos += 1;
                continue;
            }
            // Structural hazards.
            match u.class {
                InstrClass::Div if self.div_busy_until > self.cycle => {
                    pos += 1;
                    continue;
                }
                InstrClass::FpDiv if self.fp_div_busy_until > self.cycle => {
                    pos += 1;
                    continue;
                }
                InstrClass::Load
                | InstrClass::FpLoad
                | InstrClass::Store
                | InstrClass::FpStore
                | InstrClass::Amo => {
                    // Memory dependence prediction: a previously-violating
                    // load waits until every older store has issued (its
                    // address is then known) instead of speculating again.
                    if self.config.mem_dep_prediction
                        && matches!(u.class, InstrClass::Load | InstrClass::FpLoad)
                        && self.violating_loads.contains(&u.pc)
                        && self.older_store_unissued(id)
                    {
                        pos += 1;
                        continue;
                    }
                    if let Some(acc) = u.mem {
                        // A miss needs an MSHR (or a merge); if neither is
                        // possible the load/store waits in the queue.
                        let block = acc.addr / self.config.memory.l1d.block_bytes;
                        if !self.mem.peek_data(acc.addr)
                            && self.mshrs.lookup(block, self.cycle).is_none()
                            && !self.mshrs.can_allocate(self.cycle)
                        {
                            pos += 1;
                            continue;
                        }
                    }
                }
                _ => {}
            }
            // Grant.
            let cfg = self.config;
            let u = self.uops.get_mut(id).expect("candidate exists");
            u.issued = true;
            let class = u.class;
            let acc = u.mem;
            let is_wrong_path = u.stream_idx.is_none();
            let mut complete = self.cycle + 1;
            match class {
                InstrClass::Mul => complete = self.cycle + cfg.mul_latency,
                InstrClass::Div => {
                    complete = self.cycle + cfg.div_latency;
                    self.div_busy_until = complete;
                }
                InstrClass::Csr => complete = self.cycle + cfg.csr_latency,
                InstrClass::FpAlu | InstrClass::FpMul => complete = self.cycle + cfg.fp_latency,
                InstrClass::FpDiv => {
                    complete = self.cycle + cfg.fp_div_latency;
                    self.fp_div_busy_until = complete;
                }
                InstrClass::Load | InstrClass::FpLoad => {
                    if let Some(acc) = acc {
                        complete = self.data_access(acc.addr, false);
                        self.inflight_loads.push((id, acc.addr, acc.size));
                    } else {
                        complete = self.cycle + cfg.load_hit_latency;
                    }
                }
                InstrClass::Amo => {
                    // An atomic both reads and writes: it completes when
                    // the line is exclusively held, like a missing load.
                    if let Some(acc) = acc {
                        complete = self.data_access(acc.addr, true);
                        self.inflight_loads.push((id, acc.addr, acc.size));
                    } else {
                        complete = self.cycle + cfg.load_hit_latency;
                    }
                }
                InstrClass::Store | InstrClass::FpStore => {
                    if let Some(acc) = acc {
                        // The write drains through the store queue; issue
                        // latency is the address/data computation.
                        self.data_access(acc.addr, true);
                        complete = self.cycle + 1;
                        // Memory-ordering check: a younger load already
                        // executed against the same bytes speculated past
                        // this store.
                        if !is_wrong_path {
                            if let Some(&(lid, _, _)) = self
                                .inflight_loads
                                .iter()
                                .filter(|&&(lid, laddr, lsize)| {
                                    lid > id
                                        && laddr < acc.addr + acc.size
                                        && acc.addr < laddr + lsize
                                })
                                .min_by_key(|&&(lid, _, _)| lid)
                            {
                                clears.push(lid);
                            }
                        }
                    }
                }
                _ => {}
            }
            let u = self.uops.get_mut(id).expect("candidate exists");
            u.complete_cycle = complete;
            if u.mispredict.is_some() {
                self.pending_branch_flushes.push((complete, id));
            }
            self.issued_this_cycle += 1;
            granted += 1;
            // Remove the granted entry in place (it sits at `pos`, so no
            // full-queue scan); `pos` is not advanced because the next
            // candidate shifted into it.
            match kind {
                IqKind::Int => self.iq_int.remove(pos),
                IqKind::Mem => self.iq_mem.remove(pos),
                IqKind::Fp => self.iq_fp.remove(pos),
            };
        }
        // Grants filled lanes `first_lane..first_lane + granted` in order;
        // one span raise matches the per-grant raises exactly.
        self.events
            .raise_lane_span(EventId::UopsIssued, first_lane, granted);
        // Apply at most the oldest machine clear.
        if let Some(&lid) = clears.iter().min() {
            if self.uops.contains(lid) {
                self.machine_clear(lid);
            }
        }
    }

    /// Performs a timed D-cache access, raising D-side events, and returns
    /// the completion cycle.
    fn data_access(&mut self, addr: u64, is_store: bool) -> u64 {
        let block = addr / self.config.memory.l1d.block_bytes;
        if let Some(slot) = self.mshrs.lookup(block, self.cycle) {
            // Secondary miss: merge with the in-flight refill.
            return slot.ready_cycle;
        }
        let r = if is_store {
            self.mem.store(addr, self.cycle)
        } else {
            self.mem.load(addr, self.cycle)
        };
        if !r.l1_hit {
            self.events.raise(EventId::DCacheMiss);
            let _ = self.mshrs.allocate(block, self.cycle, r.ready_cycle);
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
        if r.l1_hit {
            self.cycle + self.config.load_hit_latency
        } else {
            r.ready_cycle
        }
    }

    // --- Dispatch ---------------------------------------------------------

    fn dispatch(&mut self) {
        for lane in 0..self.config.decode_width {
            if self.fence_in_rob || self.halt_dispatched {
                // Serialized: decode is not ready, so empty lanes are
                // back-pressure, not fetch bubbles.
                return;
            }
            let Some(front) = self.fb.front() else {
                // Decoder lane ready but no valid µop: the per-lane
                // fetch-bubble event, suppressed while recovering and when
                // the program is simply over.
                if !self.recovering && !self.stream_drained() {
                    self.events.raise_lane_span(
                        EventId::FetchBubbles,
                        lane,
                        self.config.decode_width - lane,
                    );
                }
                return;
            };
            // Structural checks (back-pressure: no bubble events).
            if self.rob.len() >= self.config.rob_entries {
                return;
            }
            let class = front.class;
            match iq_of(class) {
                IqKind::Int => {
                    if class != InstrClass::Fence
                        && class != InstrClass::Halt
                        && self.iq_int.len() >= self.config.int_iq_entries
                    {
                        return;
                    }
                }
                IqKind::Mem => {
                    if self.iq_mem.len() >= self.config.mem_iq_entries {
                        return;
                    }
                    let is_load = matches!(
                        class,
                        InstrClass::Load | InstrClass::FpLoad | InstrClass::Amo
                    );
                    if is_load && self.loads_in_rob >= self.config.lq_entries {
                        return;
                    }
                    if !is_load && self.stores_in_rob >= self.config.stq_entries {
                        return;
                    }
                }
                IqKind::Fp => {
                    if self.iq_fp.len() >= self.config.fp_iq_entries {
                        return;
                    }
                }
            }
            let mut u = self.fb.pop_front().expect("front exists");
            let id = u.id;
            if let Some(dst) = u.dst {
                self.rename[dst.index()] = Some(id);
            }
            match u.class {
                InstrClass::Load | InstrClass::FpLoad | InstrClass::Amo => self.loads_in_rob += 1,
                InstrClass::Store | InstrClass::FpStore => self.stores_in_rob += 1,
                InstrClass::Fence => self.fence_in_rob = true,
                InstrClass::Halt => self.halt_dispatched = true,
                _ => {}
            }
            match u.class {
                InstrClass::Fence => {} // waits at the ROB head
                InstrClass::Halt => {
                    // Halt completes immediately; it retires when it
                    // reaches the head.
                    u.issued = true;
                    u.complete_cycle = self.cycle;
                }
                _ => match iq_of(u.class) {
                    IqKind::Int => self.iq_int.push_back(id),
                    IqKind::Mem => self.iq_mem.push_back(id),
                    IqKind::Fp => self.iq_fp.push_back(id),
                },
            }
            self.rob.push_back(id);
            self.uops.insert(u);
            let _ = lane;
        }
    }

    fn stream_drained(&self) -> bool {
        !self.wrong_path && self.fetch_seq >= self.stream.len()
    }

    // --- Fetch ----------------------------------------------------------------

    fn fetch(&mut self) {
        match self.fetch_state {
            FetchState::Drained => {}
            FetchState::Starting => {
                if self.cycle >= self.fetch_allowed
                    && self.fb.len() < self.config.fetch_buffer_entries
                {
                    self.start_access();
                }
            }
            FetchState::Waiting { ready } => {
                if self.cycle >= ready && self.fb.len() < self.config.fetch_buffer_entries {
                    self.deliver_group();
                    if !matches!(self.fetch_state, FetchState::Drained)
                        && self.cycle >= self.fetch_allowed
                        && self.fb.len() < self.config.fetch_buffer_entries
                    {
                        self.start_access();
                    } else if !matches!(self.fetch_state, FetchState::Drained) {
                        self.fetch_state = FetchState::Starting;
                    }
                }
            }
        }
    }

    fn current_fetch_pc(&self) -> Option<u64> {
        if self.wrong_path {
            Some(self.wp_pc)
        } else if self.fetch_seq < self.stream.len() {
            Some(self.stream.pc(self.fetch_seq))
        } else {
            None
        }
    }

    fn start_access(&mut self) {
        let Some(pc) = self.current_fetch_pc() else {
            self.fetch_state = FetchState::Drained;
            return;
        };
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

    fn deliver_group(&mut self) {
        if self.wrong_path {
            self.deliver_wrong_path();
            return;
        }
        let width = self.config.fetch_width;
        self.recovering = false;
        let mut delivered = 0;
        while delivered < width
            && self.fb.len() < self.config.fetch_buffer_entries
            && self.fetch_seq < self.stream.len()
        {
            let d = self.stream.get(self.fetch_seq);
            let class = d.class();
            if !class.is_control_flow() {
                self.push_on_path_uop(self.fetch_seq, None);
                self.fetch_seq += 1;
                delivered += 1;
                if class == InstrClass::Halt {
                    self.fetch_state = FetchState::Drained;
                    return;
                }
                continue;
            }
            let info = d.branch.expect("control flow has outcome");
            match class {
                InstrClass::Branch => {
                    let predicted_taken = self.predictor.predict(d.pc);
                    let btb_target = self.btb.lookup(d.pc);
                    self.predictor.update(d.pc, info.taken);
                    if info.taken {
                        self.btb.update(d.pc, info.target);
                    }
                    if predicted_taken == info.taken {
                        self.push_on_path_uop(self.fetch_seq, None);
                        self.fetch_seq += 1;
                        if info.taken {
                            if btb_target != Some(info.target) {
                                // Decode-time resteer.
                                self.events.raise(EventId::CfTargetMispredict);
                                self.fetch_allowed = self.cycle + self.config.redirect_penalty;
                            }
                            self.fetch_state = FetchState::Starting;
                            return;
                        }
                        delivered += 1;
                    } else {
                        self.push_on_path_uop(self.fetch_seq, Some(Mispredict::Direction));
                        self.fetch_seq += 1;
                        self.enter_wrong_path(if info.taken {
                            // Predicted not-taken: wrong path falls through.
                            d.pc + 4
                        } else {
                            // Predicted taken: wrong path is the target.
                            btb_target.unwrap_or(info.target)
                        });
                        return;
                    }
                }
                InstrClass::Jump => {
                    let btb_target = self.btb.lookup(d.pc);
                    self.btb.update(d.pc, info.target);
                    if is_call(&d.op) {
                        self.ras.push(d.pc + 4);
                    }
                    self.push_on_path_uop(self.fetch_seq, None);
                    self.fetch_seq += 1;
                    if btb_target != Some(info.target) {
                        self.events.raise(EventId::CfTargetMispredict);
                        self.fetch_allowed = self.cycle + self.config.redirect_penalty;
                    }
                    self.fetch_state = FetchState::Starting;
                    return;
                }
                InstrClass::JumpReg => {
                    // Returns predict through the RAS, like the real
                    // BOOM front-end; other indirect jumps use the BTB.
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
                        self.push_on_path_uop(self.fetch_seq, None);
                        self.fetch_seq += 1;
                        self.fetch_state = FetchState::Starting;
                    } else {
                        self.push_on_path_uop(self.fetch_seq, Some(Mispredict::Target));
                        self.fetch_seq += 1;
                        // Wrong path: whatever was (mis)predicted, or
                        // fall-through when nothing was.
                        self.enter_wrong_path(predicted.unwrap_or(d.pc + 4));
                    }
                    return;
                }
                _ => unreachable!("non-control-flow handled above"),
            }
        }
        if self.fetch_seq >= self.stream.len() {
            self.fetch_state = FetchState::Drained;
        } else if !self.wrong_path {
            self.fetch_state = FetchState::Starting;
        }
    }

    fn enter_wrong_path(&mut self, wp_pc: u64) {
        self.wrong_path = true;
        self.wp_pc = self.clamp_to_text(wp_pc);
        self.fetch_state = FetchState::Starting;
    }

    /// Keeps a wrong-path PC inside the text segment: real wrong paths
    /// fetch *something* decodable until the flush rescues them, and
    /// wandering into unmapped space would just alias random text here.
    fn clamp_to_text(&self, pc: u64) -> u64 {
        let text_bytes = 4 * self.program.len() as u64;
        icicle_isa::TEXT_BASE + (pc.wrapping_sub(icicle_isa::TEXT_BASE) % text_bytes)
    }

    fn push_on_path_uop(&mut self, stream_idx: usize, mispredict: Option<Mispredict>) {
        let d = self.stream.get(stream_idx);
        let id = self.alloc_id();
        let mut deps = Deps::new();
        for &r in d.op.src_list().as_slice() {
            if let Some(w) = self.pending_writer(r) {
                deps.push(w);
            }
        }
        self.fb.push_back(Uop {
            id,
            stream_idx: Some(stream_idx),
            pc: d.pc,
            class: d.class(),
            dst: d.op.dst(),
            deps,
            mem: d.mem,
            mispredict,
            is_fence_i: matches!(d.op, Op::FenceI),
            issued: false,
            complete_cycle: u64::MAX,
        });
    }

    /// The youngest in-flight writer of `reg`, looking through the fetch
    /// buffer first (fetch order) and falling back to the rename table.
    fn pending_writer(&self, reg: RegId) -> Option<UopId> {
        for u in self.fb.iter().rev() {
            if u.dst == Some(reg) {
                return Some(u.id);
            }
        }
        self.rename[reg.index()]
    }

    fn deliver_wrong_path(&mut self) {
        let width = self.config.fetch_width;
        let mut delivered = 0;
        while delivered < width && self.fb.len() < self.config.fetch_buffer_entries {
            self.wp_pc = self.clamp_to_text(self.wp_pc);
            let idx = self
                .program
                .index_of(self.wp_pc)
                .expect("clamped pc is in text");
            let op = self.program.code()[idx as usize];
            let mut class = op.class();
            if class == InstrClass::Halt || class == InstrClass::Fence {
                // Serializing encodings on the wrong path decode to
                // something the front-end still pushes through; model
                // them as plain ALU garbage until the flush rescues us.
                class = InstrClass::Alu;
            }
            let id = self.alloc_id();
            let mut deps = Deps::new();
            for &r in op.src_list().as_slice() {
                if let Some(w) = self.pending_writer(r) {
                    deps.push(w);
                }
            }
            self.fb.push_back(Uop {
                id,
                stream_idx: None,
                pc: self.wp_pc,
                class,
                dst: op.dst(),
                deps,
                mem: None,
                mispredict: None,
                is_fence_i: false,
                issued: false,
                complete_cycle: u64::MAX,
            });
            delivered += 1;
            // Follow the *predicted* path statically.
            self.wp_pc = match op {
                Op::Branch { target, .. } => {
                    if self.predictor.predict(self.wp_pc) {
                        self.program.pc_of(target)
                    } else {
                        self.wp_pc + 4
                    }
                }
                Op::Jal { target, .. } => self.program.pc_of(target),
                // An unknown indirect target falls through, like a
                // predictor with no hint.
                Op::Jalr { .. } => self.btb.lookup(self.wp_pc).unwrap_or(self.wp_pc + 4),
                _ => self.wp_pc + 4,
            };
            if class.is_control_flow() {
                // Taken control flow ends the fetch group.
                self.fetch_state = FetchState::Starting;
                return;
            }
        }
        self.fetch_state = FetchState::Starting;
    }

    // --- Derived per-cycle events ------------------------------------------

    fn derived_events(&mut self, was_recovering: bool) {
        if was_recovering {
            self.events.raise(EventId::Recovering);
        }
        // I$-blocked: refill in progress and the fetch buffer is empty.
        if self.refill_until > self.cycle && self.fb.is_empty() {
            self.events.raise(EventId::ICacheBlocked);
        }
        // D$-blocked per commit lane: fewer than `lane+1` µops issued, the
        // issue queues hold work, and at least one MSHR is busy.
        let iq_occupied =
            !self.iq_int.is_empty() || !self.iq_mem.is_empty() || !self.iq_fp.is_empty();
        let mshr_ok = !self.config.dcache_blocked_requires_mshr || self.mshrs.any_busy(self.cycle);
        if iq_occupied && mshr_ok {
            let first = self.issued_this_cycle.min(self.config.decode_width);
            self.events.raise_lane_span(
                EventId::DCacheBlocked,
                first,
                self.config.decode_width - first,
            );
        }
    }

    // --- Quiescence analysis ----------------------------------------------

    /// Computes [`EventCore::time_until_next_event`] purely from current
    /// state: a strictly positive span is returned only when every
    /// pipeline structure — pending flushes, the ROB head, the MSHR file,
    /// all three issue queues, dispatch, and fetch — is provably replaying
    /// the same stall cycle until some absolute wake time, so each skipped
    /// step would raise the exact event vector of the step before it and
    /// mutate nothing but `cycle`.
    fn quiescent_span(&self) -> Option<u64> {
        if self.done {
            return None;
        }
        let c = self.cycle;
        // Earliest absolute cycle at which any unit's behavior changes.
        let mut wake = u64::MAX;

        // Pending branch flushes: an issued mispredict flushes the moment
        // it completes.
        for &(ready, id) in &self.pending_branch_flushes {
            let Some(u) = self.uops.get(id) else { continue };
            if !u.issued {
                // Its issue is analyzed with its queue below.
                continue;
            }
            let due = ready.max(u.complete_cycle);
            if due <= c {
                return None; // Flush would apply next cycle.
            }
            wake = wake.min(due);
        }

        // Commit: the ROB head.
        if let Some(&head) = self.rob.front() {
            let u = &self.uops[head];
            if u.class == InstrClass::Fence && !u.issued {
                if self.rob.len() != 1 {
                    // A fence behind other work is not a steady state the
                    // analysis models; step normally.
                    return None;
                }
                match self.fence_head_since {
                    // The next step records the head-arrival cycle.
                    None => return None,
                    Some(since) => {
                        let t = since + self.config.fence_latency;
                        if t <= c {
                            return None; // Fence issues next cycle.
                        }
                        wake = wake.min(t);
                    }
                }
            } else if u.complete(c) {
                return None; // Head retires next cycle.
            } else if u.issued {
                wake = wake.min(u.complete_cycle);
            }
            // An unissued non-fence head is analyzed with its issue queue.
        }

        // MSHRs: a landed refill mutates the file on the next drain and
        // flips both the D$-blocked annotation and MSHR-full stalls.
        if self.mshrs.has_completed(c) {
            return None;
        }
        if let Some(t) = self.mshrs.next_ready(c) {
            wake = wake.min(t);
        }

        // Issue queues: any entry that could be granted ends the
        // analysis; blocked entries contribute their producers'
        // completion times.
        for queue in [&self.iq_int, &self.iq_mem, &self.iq_fp] {
            for &id in queue {
                let Some(u) = self.uops.get(id) else { continue };
                let mut blocked = false;
                for &d in u.deps.as_slice() {
                    if let Some(p) = self.uops.get(d) {
                        if !p.complete(c) {
                            blocked = true;
                            if p.issued {
                                wake = wake.min(p.complete_cycle);
                            }
                            // An unissued producer is covered by its own
                            // queue entry (or by dispatch, if still in the
                            // fetch buffer).
                        }
                    }
                }
                if blocked {
                    continue;
                }
                match u.class {
                    InstrClass::Div if self.div_busy_until > c => {
                        wake = wake.min(self.div_busy_until);
                    }
                    InstrClass::FpDiv if self.fp_div_busy_until > c => {
                        wake = wake.min(self.fp_div_busy_until);
                    }
                    InstrClass::Load
                    | InstrClass::FpLoad
                    | InstrClass::Store
                    | InstrClass::FpStore
                    | InstrClass::Amo => {
                        if self.config.mem_dep_prediction
                            && matches!(u.class, InstrClass::Load | InstrClass::FpLoad)
                            && self.violating_loads.contains(&u.pc)
                            && self.older_store_unissued(id)
                        {
                            // Waits on the older store, analyzed by its
                            // own queue entry.
                            continue;
                        }
                        if let Some(acc) = u.mem {
                            let block = acc.addr / self.config.memory.l1d.block_bytes;
                            if !self.mem.peek_data(acc.addr)
                                && self.mshrs.lookup(block, c).is_none()
                                && !self.mshrs.can_allocate(c)
                            {
                                // MSHR-full: wakes with `next_ready` above.
                                continue;
                            }
                        }
                        return None; // Would issue next cycle.
                    }
                    _ => return None, // Would issue next cycle.
                }
            }
        }

        // Dispatch: would the front of the fetch buffer dispatch? (Pure
        // back-pressure raises no events; fence/halt serialization is
        // resolved by the commit timers above.)
        if !self.fence_in_rob && !self.halt_dispatched {
            if let Some(front) = self.fb.front() {
                let class = front.class;
                let blocked = if self.rob.len() >= self.config.rob_entries {
                    true
                } else {
                    match iq_of(class) {
                        IqKind::Int => {
                            class != InstrClass::Fence
                                && class != InstrClass::Halt
                                && self.iq_int.len() >= self.config.int_iq_entries
                        }
                        IqKind::Mem => {
                            let is_load = matches!(
                                class,
                                InstrClass::Load | InstrClass::FpLoad | InstrClass::Amo
                            );
                            self.iq_mem.len() >= self.config.mem_iq_entries
                                || (is_load && self.loads_in_rob >= self.config.lq_entries)
                                || (!is_load && self.stores_in_rob >= self.config.stq_entries)
                        }
                        IqKind::Fp => self.iq_fp.len() >= self.config.fp_iq_entries,
                    }
                };
                if !blocked {
                    return None; // Would dispatch next cycle.
                }
            }
        }

        // Fetch. A full fetch buffer stays full for the whole span: the
        // back end is blocked above, so dispatch drains nothing.
        match self.fetch_state {
            FetchState::Drained => {}
            FetchState::Starting => {
                if self.fb.len() < self.config.fetch_buffer_entries {
                    if self.fetch_allowed > c {
                        wake = wake.min(self.fetch_allowed);
                    } else {
                        return None; // Would start an I-cache access.
                    }
                }
            }
            FetchState::Waiting { ready } => {
                if self.fb.len() < self.config.fetch_buffer_entries {
                    if ready > c {
                        wake = wake.min(ready);
                    } else {
                        return None; // Would deliver a fetch packet.
                    }
                }
            }
        }

        // The I$-blocked annotation drops the cycle the refill lands.
        if self.refill_until > c && self.fb.is_empty() {
            wake = wake.min(self.refill_until);
        }

        match wake {
            u64::MAX => None,
            w => Some(w - c),
        }
    }
}

impl L2Linked for Boom {
    fn attach_l2_port(&mut self, port: L2Port) {
        self.mem.attach_l2_port(port);
    }

    fn detach_l2_port(&mut self) {
        self.mem.detach_l2_port();
    }
}

impl EventCore for Boom {
    fn step(&mut self) -> &EventVector {
        // Deliberately free of observability hooks: the global cycle
        // tallies are settled once per session by `Perf::run`, so this
        // loop pays nothing for the tracing layer. The bench ledger's
        // ≤1% overhead contract rides on that staying true.
        self.events.clear();
        self.retired_pcs.clear();
        self.events.raise(EventId::Cycles);
        if !self.done {
            let was_recovering = self.recovering;
            self.resolve_branch_flushes();
            if !self.done {
                self.commit();
            }
            if !self.done {
                self.issue();
                self.dispatch();
                self.fetch();
                self.derived_events(was_recovering);
                assert!(
                    self.cycle - self.last_commit_cycle < 200_000,
                    "no commit for 200k cycles at cycle {} (rob {:?} head, iqs {}/{}/{})",
                    self.cycle,
                    self.rob.front(),
                    self.iq_int.len(),
                    self.iq_mem.len(),
                    self.iq_fp.len()
                );
            }
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
        self.config.decode_width
    }

    fn issue_width(&self) -> usize {
        self.config.issue_width()
    }

    fn retired_pcs(&self) -> &[u64] {
        &self.retired_pcs
    }

    fn name(&self) -> &str {
        match self.config.size {
            crate::config::BoomSize::Small => "small-boom",
            crate::config::BoomSize::Medium => "medium-boom",
            crate::config::BoomSize::Large => "large-boom",
            crate::config::BoomSize::Mega => "mega-boom",
            crate::config::BoomSize::Giga => "giga-boom",
        }
    }

    fn time_until_next_event(&self) -> Option<u64> {
        self.quiescent_span()
    }

    fn fast_forward(&mut self, cycles: u64) {
        self.cycle += cycles;
        // Mirror the per-step runaway check: a span long enough to cross
        // the no-commit bound must still panic, as stepping would have.
        // `<=` (not `<`): the wake cycle itself gets a real step where
        // commit runs before the per-step assert, so only cycles strictly
        // inside the span may trip it here.
        assert!(
            self.cycle - self.last_commit_cycle <= 200_000,
            "no commit for 200k cycles at cycle {} (rob {:?} head, iqs {}/{}/{})",
            self.cycle,
            self.rob.front(),
            self.iq_int.len(),
            self.iq_mem.len(),
            self.iq_fp.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icicle_isa::{Interpreter, ProgramBuilder, Reg};

    #[derive(Default, Debug)]
    struct Counters {
        cycles: u64,
        retired: u64,
        uops_retired: u64,
        issued: u64,
        bubbles: u64,
        recovering: u64,
        br_mispred: u64,
        flush: u64,
        fence_retired: u64,
        icache_blocked: u64,
        dcache_blocked: u64,
        dcache_miss: u64,
    }

    fn run(b: ProgramBuilder, config: BoomConfig) -> (Boom, Counters) {
        let program = b.build().unwrap();
        let stream = Interpreter::new(&program).run(5_000_000).unwrap();
        let mut core = Boom::new(config, stream, program);
        let mut c = Counters::default();
        while !core.is_done() {
            let ev = core.step();
            c.cycles += 1;
            c.retired += ev.count(EventId::InstrRetired) as u64;
            c.uops_retired += ev.count(EventId::UopsRetired) as u64;
            c.issued += ev.count(EventId::UopsIssued) as u64;
            c.bubbles += ev.count(EventId::FetchBubbles) as u64;
            c.recovering += ev.count(EventId::Recovering) as u64;
            c.br_mispred += ev.count(EventId::BranchMispredict) as u64;
            c.flush += ev.count(EventId::Flush) as u64;
            c.fence_retired += ev.count(EventId::FenceRetired) as u64;
            c.icache_blocked += ev.count(EventId::ICacheBlocked) as u64;
            c.dcache_blocked += ev.count(EventId::DCacheBlocked) as u64;
            c.dcache_miss += ev.count(EventId::DCacheMiss) as u64;
            assert!(c.cycles < 4_000_000, "runaway simulation");
        }
        (core, c)
    }

    fn ilp_loop(iters: i64) -> ProgramBuilder {
        // Six independent chains: plenty of ILP for a 3-wide core.
        let mut b = ProgramBuilder::new("ilp");
        b.li(Reg::T0, 0);
        b.li(Reg::T1, iters);
        b.li(Reg::S0, 0);
        b.li(Reg::S1, 0);
        b.li(Reg::S2, 0);
        b.li(Reg::S3, 0);
        b.label("l");
        b.addi(Reg::S0, Reg::S0, 1);
        b.addi(Reg::S1, Reg::S1, 2);
        b.addi(Reg::S2, Reg::S2, 3);
        b.addi(Reg::S3, Reg::S3, 4);
        b.addi(Reg::S0, Reg::S0, 1);
        b.addi(Reg::S1, Reg::S1, 2);
        b.addi(Reg::T0, Reg::T0, 1);
        b.blt(Reg::T0, Reg::T1, "l");
        b.halt();
        b
    }

    #[test]
    fn superscalar_ipc_exceeds_one() {
        let (core, c) = run(ilp_loop(2000), BoomConfig::large());
        let ipc = c.retired as f64 / c.cycles as f64;
        assert!(ipc > 1.5, "large BOOM should exceed IPC 1.5, got {ipc}");
        assert_eq!(core.instret(), c.retired);
    }

    #[test]
    fn wider_configs_are_faster() {
        let (_, small) = run(ilp_loop(1000), BoomConfig::small());
        let (_, mega) = run(ilp_loop(1000), BoomConfig::mega());
        assert!(
            mega.cycles < small.cycles,
            "mega ({}) should beat small ({})",
            mega.cycles,
            small.cycles
        );
    }

    #[test]
    fn every_on_path_instruction_retires_once() {
        let (core, c) = run(ilp_loop(500), BoomConfig::large());
        assert_eq!(c.retired, core.stream.len() as u64);
        assert_eq!(c.uops_retired, c.retired);
    }

    #[test]
    fn mispredictions_issue_wrong_path_uops() {
        // A branch depending on a cache-missing load resolves late, so the
        // wrong path runs deep: issued must exceed retired.
        let n = 16384u64; // 128 KiB table, beats the 32 KiB L1D
        let mut b = ProgramBuilder::new("brmiss");
        let mut rng = 0xdead_beef_cafe_f00du64;
        let entries: Vec<u64> = (0..n)
            .map(|_| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng & 1
            })
            .collect();
        let table = b.data_u64(&entries);
        let idx_stride = 4243; // co-prime with n
        b.li(Reg::T0, table as i64);
        b.li(Reg::T1, 0); // index
        b.li(Reg::T2, 3000); // iterations
        b.li(Reg::T3, 0);
        b.li(Reg::S1, 0);
        b.label("l");
        b.slli(Reg::T4, Reg::T1, 3);
        b.add(Reg::T4, Reg::T0, Reg::T4);
        b.ld(Reg::T5, Reg::T4, 0); // random 0/1, often L1-missing
        b.beq(Reg::T5, Reg::ZERO, "skip"); // data-dependent: unpredictable
        b.addi(Reg::S1, Reg::S1, 1);
        b.label("skip");
        b.addi(Reg::T1, Reg::T1, idx_stride);
        b.andi(Reg::T1, Reg::T1, (n - 1) as i64);
        b.addi(Reg::T3, Reg::T3, 1);
        b.blt(Reg::T3, Reg::T2, "l");
        b.halt();
        let (_, c) = run(b, BoomConfig::large());
        assert!(c.br_mispred > 500, "mispredicts {}", c.br_mispred);
        assert!(
            c.issued > c.uops_retired + 1000,
            "wrong-path issue expected: issued {} vs retired {}",
            c.issued,
            c.uops_retired
        );
        assert!(c.recovering > 1000);
    }

    #[test]
    fn fences_flush_and_count() {
        let mut b = ProgramBuilder::new("fence");
        b.li(Reg::T0, 0);
        b.li(Reg::T1, 50);
        b.label("l");
        b.fence();
        b.addi(Reg::T0, Reg::T0, 1);
        b.blt(Reg::T0, Reg::T1, "l");
        b.halt();
        let (_, c) = run(b, BoomConfig::large());
        assert_eq!(c.fence_retired, 50);
        assert!(
            c.recovering >= 50,
            "fence flushes recover: {}",
            c.recovering
        );
        // Fences are intended flushes: no machine-clear Flush events.
        assert_eq!(c.flush, 0);
    }

    #[test]
    fn memory_ordering_violation_machine_clears() {
        // A store whose address depends on a slow divide, followed by a
        // load to the same address: the load issues first (speculation),
        // the store detects the overlap, and a machine clear replays.
        let mut b = ProgramBuilder::new("mc");
        let buf = b.data_u64(&[1, 2, 3, 4, 5, 6, 7, 8]);
        b.li(Reg::T0, buf as i64);
        b.li(Reg::T1, 64);
        b.li(Reg::T6, 8);
        b.li(Reg::T2, 0);
        b.li(Reg::T3, 100);
        b.label("l");
        b.div(Reg::T4, Reg::T1, Reg::T6); // slow: 64/8 = 8
        b.add(Reg::T4, Reg::T0, Reg::T4); // store address = buf + 8
        b.sd(Reg::T3, Reg::T4, 0); // slow store
        b.ld(Reg::T5, Reg::T0, 8); // younger load, same address
        b.addi(Reg::T2, Reg::T2, 1);
        b.blt(Reg::T2, Reg::T3, "l");
        b.halt();
        let (_, c) = run(b, BoomConfig::large());
        assert!(
            c.flush > 10,
            "memory-ordering machine clears expected, got {}",
            c.flush
        );
    }

    #[test]
    fn memory_dependence_prediction_tames_machine_clears() {
        // The same store→load conflict loop as the machine-clear test:
        // with prediction on, repeat offenders stop speculating and the
        // clears (almost) vanish, trading a little issue delay.
        let build = || {
            let mut b = ProgramBuilder::new("mc");
            let buf = b.data_u64(&[1, 2, 3, 4, 5, 6, 7, 8]);
            b.li(Reg::T0, buf as i64);
            b.li(Reg::T1, 64);
            b.li(Reg::T6, 8);
            b.li(Reg::T2, 0);
            b.li(Reg::T3, 100);
            b.label("l");
            b.div(Reg::T4, Reg::T1, Reg::T6);
            b.add(Reg::T4, Reg::T0, Reg::T4);
            b.sd(Reg::T3, Reg::T4, 0);
            b.ld(Reg::T5, Reg::T0, 8);
            b.addi(Reg::T2, Reg::T2, 1);
            b.blt(Reg::T2, Reg::T3, "l");
            b.halt();
            b.build().unwrap()
        };
        let count_flushes = |predict: bool| {
            let program = build();
            let stream = Interpreter::new(&program).run(100_000).unwrap();
            let mut cfg = BoomConfig::large();
            cfg.mem_dep_prediction = predict;
            let mut core = Boom::new(cfg, stream, program);
            let mut flushes = 0u64;
            while !core.is_done() {
                flushes += core.step().count(EventId::Flush) as u64;
            }
            (flushes, core.cycle())
        };
        let (without, _) = count_flushes(false);
        let (with, _) = count_flushes(true);
        assert!(without > 10, "baseline must violate: {without}");
        assert!(
            with * 10 <= without,
            "prediction should kill ≥90% of clears: {without} -> {with}"
        );
    }

    #[test]
    fn pointer_chase_asserts_dcache_blocked() {
        let n = 32768u64; // 256 KiB
        let mut b = ProgramBuilder::new("chase");
        // A random single-cycle permutation (Sattolo's algorithm with a
        // deterministic xorshift) so every load leaves the current block.
        let mut entries: Vec<u64> = (0..n).collect();
        let mut rng = 0x1234_5678_9abc_def0u64;
        for i in (1..n as usize).rev() {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let j = (rng % i as u64) as usize;
            entries.swap(i, j);
        }
        let table = b.data_u64(&entries);
        b.li(Reg::T0, table as i64);
        b.li(Reg::T1, 0);
        b.li(Reg::T2, 4000);
        b.li(Reg::T3, 0);
        b.label("l");
        b.slli(Reg::T4, Reg::T1, 3);
        b.add(Reg::T4, Reg::T0, Reg::T4);
        b.ld(Reg::T1, Reg::T4, 0);
        b.addi(Reg::T3, Reg::T3, 1);
        b.blt(Reg::T3, Reg::T2, "l");
        b.halt();
        let (_, c) = run(b, BoomConfig::large());
        let blocked_frac = c.dcache_blocked as f64 / (c.cycles * 3) as f64;
        assert!(
            blocked_frac > 0.3,
            "dependent misses should block commit slots: {blocked_frac}"
        );
        assert!(c.dcache_miss > 2000);
    }

    #[test]
    fn quiescent_skip_matches_stepping() {
        // Same stream twice: one core stepped cycle-by-cycle, one
        // fast-forwarded through every claimed quiescent span. Final
        // cycle, instret, and every event total must match exactly.
        let n = 32768u64;
        let mut b = ProgramBuilder::new("skipmix");
        let mut entries: Vec<u64> = (0..n).collect();
        let mut rng = 0x1234_5678_9abc_def0u64;
        for i in (1..n as usize).rev() {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let j = (rng % i as u64) as usize;
            entries.swap(i, j);
        }
        let table = b.data_u64(&entries);
        b.li(Reg::T0, table as i64);
        b.li(Reg::T1, 0);
        b.li(Reg::T2, 2000);
        b.li(Reg::T3, 0);
        b.li(Reg::S0, 1_000_000);
        b.li(Reg::S1, 7);
        b.label("l");
        b.slli(Reg::T4, Reg::T1, 3);
        b.add(Reg::T4, Reg::T0, Reg::T4);
        b.ld(Reg::T1, Reg::T4, 0); // dependent, mostly missing
        b.div(Reg::S2, Reg::S0, Reg::S1); // serializing divide
        b.addi(Reg::T3, Reg::T3, 1);
        b.blt(Reg::T3, Reg::T2, "l");
        b.halt();
        let program = b.build().unwrap();
        let stream = Interpreter::new(&program).run(5_000_000).unwrap();

        let mut stepped = Boom::new(BoomConfig::large(), stream.clone(), program.clone());
        let mut step_counts = icicle_events::EventCounts::new();
        while !stepped.is_done() {
            step_counts.observe(stepped.step());
        }

        let mut skipped = Boom::new(BoomConfig::large(), stream, program);
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
    fn fetch_bubble_lanes_are_ordered() {
        // Lane i+1 starves at least as often as lane i.
        let mut b = ProgramBuilder::new("bub");
        b.li(Reg::T0, 0);
        b.li(Reg::T1, 500);
        b.label("l");
        b.addi(Reg::T0, Reg::T0, 1);
        b.blt(Reg::T0, Reg::T1, "l");
        b.halt();
        let program = b.build().unwrap();
        let stream = Interpreter::new(&program).run(100_000).unwrap();
        let mut core = Boom::new(BoomConfig::large(), stream, program);
        let mut lanes = [0u64; 3];
        while !core.is_done() {
            let ev = core.step();
            for (l, total) in lanes.iter_mut().enumerate() {
                if ev.lane_set(EventId::FetchBubbles, l) {
                    *total += 1;
                }
            }
        }
        assert!(lanes[0] <= lanes[1] && lanes[1] <= lanes[2], "{lanes:?}");
    }

    #[test]
    fn quiet_after_done() {
        let mut b = ProgramBuilder::new("t");
        b.nop();
        b.halt();
        let program = b.build().unwrap();
        let stream = Interpreter::new(&program).run(100).unwrap();
        let mut core = Boom::new(BoomConfig::small(), stream, program);
        while !core.is_done() {
            core.step();
        }
        let ev = core.step();
        assert_eq!(ev.count(EventId::InstrRetired), 0);
        assert!(ev.is_set(EventId::Cycles));
    }

    #[test]
    fn more_mshrs_expose_memory_level_parallelism() {
        // Two independent pointer chases interleaved: with several MSHRs
        // their misses overlap; with one MSHR they serialize.
        let n = 16384u64;
        let mut b = ProgramBuilder::new("mlp");
        let mut entries: Vec<u64> = (0..n).collect();
        let mut rng = 0xfeed_f00du64;
        for i in (1..n as usize).rev() {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            entries.swap(i, (rng % i as u64) as usize);
        }
        let t1 = b.data_u64(&entries);
        let t2 = b.data_u64(&entries);
        b.li(Reg::S0, t1 as i64);
        b.li(Reg::S1, t2 as i64);
        b.li(Reg::T0, 0); // chase A index
        b.li(Reg::T1, 1); // chase B index
        b.li(Reg::T2, 0);
        b.li(Reg::T3, 1500);
        b.label("l");
        b.slli(Reg::T4, Reg::T0, 3);
        b.add(Reg::T4, Reg::S0, Reg::T4);
        b.ld(Reg::T0, Reg::T4, 0); // chain A
        b.slli(Reg::T5, Reg::T1, 3);
        b.add(Reg::T5, Reg::S1, Reg::T5);
        b.ld(Reg::T1, Reg::T5, 0); // chain B, independent of A
        b.addi(Reg::T2, Reg::T2, 1);
        b.blt(Reg::T2, Reg::T3, "l");
        b.halt();
        let program = b.build().unwrap();
        let stream = Interpreter::new(&program).run(1_000_000).unwrap();

        let mut one = BoomConfig::large();
        one.n_mshrs = 1;
        let mut core1 = Boom::new(one, stream.clone(), program.clone());
        let c1 = core1.run_to_completion(50_000_000).unwrap();
        let mut core8 = Boom::new(BoomConfig::large(), stream, program);
        let c8 = core8.run_to_completion(50_000_000).unwrap();
        assert!(
            c8 * 4 < c1 * 3,
            "4 MSHRs should overlap the chains: 1-MSHR {c1} vs 4-MSHR {c8}"
        );
    }

    #[test]
    fn backpressure_is_not_counted_as_fetch_bubbles() {
        // A tiny ROB stuffed by a slow divide chain: dispatch stalls are
        // backend pressure, so FetchBubbles must stay quiet.
        let mut b = ProgramBuilder::new("bp");
        b.li(Reg::T0, 0);
        b.li(Reg::T1, 200);
        b.li(Reg::T2, 1_000_000);
        b.li(Reg::T3, 3);
        b.label("l");
        b.div(Reg::T2, Reg::T2, Reg::T3); // serial divides
        b.addi(Reg::T2, Reg::T2, 1_000_000);
        b.addi(Reg::T0, Reg::T0, 1);
        b.blt(Reg::T0, Reg::T1, "l");
        b.halt();
        let mut cfg = BoomConfig::large();
        cfg.rob_entries = 8;
        let (_, c) = run(b, cfg);
        let bubble_frac = c.bubbles as f64 / (c.cycles * 3) as f64;
        assert!(
            bubble_frac < 0.05,
            "divider backpressure must not read as frontend: {bubble_frac}"
        );
    }

    #[test]
    fn fp_work_issues_on_the_fp_port() {
        let mut b = ProgramBuilder::new("fp");
        use icicle_isa::FReg;
        b.li(Reg::T0, 0);
        b.li(Reg::T1, 300);
        b.li(Reg::T2, 2.0f64.to_bits() as i64);
        b.fmv_d_x(FReg::F0, Reg::T2);
        b.fmv_d_x(FReg::F1, Reg::T2);
        b.label("l");
        b.fmul(FReg::F2, FReg::F0, FReg::F1);
        b.fadd(FReg::F3, FReg::F2, FReg::F0);
        b.addi(Reg::T0, Reg::T0, 1);
        b.blt(Reg::T0, Reg::T1, "l");
        b.halt();
        let program = b.build().unwrap();
        let stream = Interpreter::new(&program).run(100_000).unwrap();
        let config = BoomConfig::large();
        let fp_lane = config.int_issue_ports + config.mem_issue_ports; // lane 4
        let mut core = Boom::new(config, stream, program);
        let mut fp_issues = 0u64;
        let mut total_fp_uops = 0u64;
        while !core.is_done() {
            let ev = core.step();
            if ev.lane_set(EventId::UopsIssued, fp_lane) {
                fp_issues += 1;
            }
            let _ = &mut total_fp_uops;
        }
        // 600 loop FP µops plus the two fmv setups, all through the
        // single FP port.
        assert_eq!(fp_issues, 602);
    }

    #[test]
    fn names_track_size() {
        let mut b = ProgramBuilder::new("t");
        b.halt();
        let program = b.build().unwrap();
        let stream = Interpreter::new(&program).run(10).unwrap();
        let core = Boom::new(BoomConfig::giga(), stream, program);
        assert_eq!(core.name(), "giga-boom");
        assert_eq!(core.commit_width(), 5);
        assert_eq!(core.issue_width(), 9);
    }
}
