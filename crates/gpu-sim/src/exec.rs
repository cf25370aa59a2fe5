use std::sync::Mutex;

use crate::check::BlockChecker;
use crate::counters::ProfileCounters;
use crate::device::{Checks, Device};
use crate::lint::LintObserver;
use crate::mem::{BufId, Buffer, DeviceMem, Rmw};
use crate::race::Access;
use crate::trace::{LaneTrace, Op, PackedOp, TAG_COMPUTE, TAG_CONVERGE, TAG_SATOMIC};
use crate::{CostModel, SimError, SHARED_BANKS, WARP_SIZE};

/// A plain store as the lane hooks pass it to the checker, which
/// decides `changes_value` from the stored and the current word.
const STORE: Access = Access::Write {
    changes_value: true,
};

/// Launch geometry: `grid_dim` blocks of `block_dim` threads, each block
/// carrying `shared_words` words of shared memory. Which analyses run is
/// a property of the device, not the launch (see [`crate::Checks`]), so
/// kernels that build their own configurations internally are checked
/// exactly like hand-written launches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelConfig {
    pub grid_dim: u32,
    pub block_dim: u32,
    pub shared_words: u32,
}

impl KernelConfig {
    pub fn new(grid_dim: u32, block_dim: u32) -> Self {
        KernelConfig {
            grid_dim,
            block_dim,
            shared_words: 0,
        }
    }

    pub fn with_shared_words(mut self, words: u32) -> Self {
        self.shared_words = words;
        self
    }
}

/// `blockIdx.x * blockDim.x + threadIdx.x`, widened to `u64` *before* the
/// multiply. Launches of more than `u32::MAX / block_dim` blocks are
/// legal (CUDA grids go to 2^31-1 blocks), and edge-per-thread kernels on
/// billion-edge graphs index with exactly this product — in `u32` it
/// wraps and silently aliases distant threads onto the same edges.
#[inline]
pub fn global_thread_id(block_idx: u32, block_dim: u32, tid: u32) -> u64 {
    block_idx as u64 * block_dim as u64 + tid as u64
}

/// Reusable per-worker arena for block execution. One `BlockScratch`
/// lives per rayon worker (via `map_init`) and is recycled across every
/// block that worker simulates, so the steady-state record/replay loop
/// performs no heap allocation: lane traces keep their `Vec<Op>`
/// capacity, and the shared/L1/cursor buffers are `clear()`+`resize()`d
/// in place.
///
/// `traces` holds one warp's worth of lane buffers (≤ 32), recycled
/// across every warp of every phase: each warp is replayed the moment
/// its lanes finish recording, so that tiny working set keeps trace
/// words L1-resident between record and replay.
///
/// The checked path recycles the same way: the block's checker (race
/// detector, SimSan and both halves of SimLint) lives here too and is
/// reset (tables keep their capacity) only on devices that enable an
/// analysis. It folds SimLint's observer into the launch's accumulator
/// as each block finishes, so no per-block lint state outlives its
/// block.
#[derive(Default)]
pub struct BlockScratch {
    shared: Vec<u32>,
    traces: Vec<LaneTrace>,
    l1: Vec<u64>,
    /// The replay's address lists for one lockstep step of one warp
    /// (see `replay_warp`).
    step: [LaneAddrs; MEM_KINDS],
    /// Per-lane retirement flags (see [`LaneCtx::retire`]): a retired
    /// lane is skipped by every later phase of its block.
    retired: Vec<bool>,
    /// Per-block analysis state: `run_block` resets it at block start,
    /// and only on devices that enable an analysis.
    check: BlockChecker,
}

impl BlockScratch {
    /// A worker's arena on a device that runs `checks`.
    pub(crate) fn new(checks: Checks) -> Self {
        BlockScratch {
            check: BlockChecker::new(checks),
            ..BlockScratch::default()
        }
    }

    fn reset(&mut self, shared_words: usize, l1_len: usize, block_dim: usize) {
        self.shared.clear();
        self.shared.resize(shared_words, 0);
        // Keep the per-lane op buffers (the hot allocation) alive across
        // blocks; only their lengths reset.
        let lanes = block_dim.min(WARP_SIZE);
        self.traces.truncate(lanes);
        for t in &mut self.traces {
            t.clear();
        }
        self.traces.resize_with(lanes, LaneTrace::default);
        self.l1.clear();
        self.l1.resize(l1_len, u64::MAX);
        self.retired.clear();
        self.retired.resize(block_dim, false);
    }
}

/// Per-block execution context handed to the kernel closure.
///
/// A kernel structures its work as a sequence of [`BlockCtx::phase`]
/// calls; each phase runs every lane of the block to completion (in lane
/// order) and ends with an implicit block-wide barrier. The context is
/// both ends of the record/replay split: lanes *generate* `PackedOp`
/// words into its ≤ 32 lane buffers, and it *consumes* them (replays
/// them into cycles and counters) as soon as a warp's lanes finish
/// recording their slice of the phase. The same buffers are then
/// recycled for the next warp, so trace words are written and read back
/// while still cache-hot and no block-lifetime trace ever exists. All
/// growable state lives in the borrowed [`BlockScratch`] arena.
pub struct BlockCtx<'a> {
    mem: &'a DeviceMem,
    block_idx: u32,
    block_dim: u32,
    grid_dim: u32,
    shared: &'a mut Vec<u32>,
    /// One recording buffer per warp lane (≤ 32), shared by every warp
    /// in turn.
    traces: &'a mut [LaneTrace],
    /// The replay's per-kind address lists.
    step: &'a mut [LaneAddrs; MEM_KINDS],
    cost: CostModel,
    /// The block's checker (`Some` when the device enables race
    /// detection, SimSan or SimLint): vets every access and barrier
    /// arrival as it is recorded and poisons the block on a finding, and
    /// lends SimLint's observer to the replay.
    check: Option<&'a mut BlockChecker>,
    /// Per-lane retirement flags: a lane that called [`LaneCtx::retire`]
    /// is skipped by every later phase (it has exited the kernel).
    retired: &'a mut Vec<bool>,
    /// Each warp's slice of the SM's L1 cache, direct-mapped by sector
    /// (concatenated per warp). Captures both the spatial reuse of
    /// sequential scans (a merge re-reads each 32-byte sector ~8 times)
    /// and the cross-lane reuse of hot search-table tops — while keeping
    /// the slice small enough that many concurrent per-lane streams
    /// conflict, as they do in the real 128 KB/SM cache shared by 2048
    /// threads.
    l1: &'a mut Vec<u64>,
    l1_slice: usize,
    fault: Option<SimError>,
    /// Block totals over the phases closed so far.
    cycles: u64,
    counters: ProfileCounters,
    /// The open phase: max replay cycles over its warps so far (they run
    /// concurrently, the barrier waits for the slowest), and their
    /// summed counters.
    phase_cycles: u64,
    phase_counters: ProfileCounters,
}

impl<'a> BlockCtx<'a> {
    pub fn block_idx(&self) -> u32 {
        self.block_idx
    }

    pub fn block_dim(&self) -> u32 {
        self.block_dim
    }

    pub fn grid_dim(&self) -> u32 {
        self.grid_dim
    }

    /// Words of shared memory available to this block.
    pub fn shared_words(&self) -> u32 {
        self.shared.len() as u32
    }

    /// Run one barrier-delimited phase: the closure is invoked once per
    /// lane, in lane order. Values written to shared memory in this phase
    /// are visible to *all* lanes from the next phase on (and to later
    /// lanes of this phase, matching any CUDA schedule of a race-free
    /// kernel that separates producers and consumers with barriers).
    pub fn phase<F>(&mut self, mut f: F)
    where
        F: FnMut(&mut LaneCtx<'_, '_>),
    {
        // A faulted block is poisoned: later phases are skipped entirely,
        // like a CUDA grid after a sticky device-side error.
        if self.fault.is_some() {
            return;
        }
        let mut tid = 0u32;
        'warps: while tid < self.block_dim {
            let warp_end = (tid + WARP_SIZE as u32).min(self.block_dim);
            let l1_base = (tid as usize / WARP_SIZE) * self.l1_slice;
            while tid < warp_end {
                if self.fault.is_some() {
                    // The fault discards the launch's stats, so the
                    // partially recorded warp is never replayed.
                    break 'warps;
                }
                if self.retired[tid as usize] {
                    // The lane exited the kernel in an earlier phase.
                    tid += 1;
                    continue;
                }
                let mut lane = LaneCtx {
                    mem: self.mem,
                    shared: self.shared,
                    trace: &mut self.traces[tid as usize % WARP_SIZE],
                    check: self.check.as_deref_mut(),
                    retired: &mut self.retired[tid as usize],
                    l1: &mut self.l1[l1_base..l1_base + self.l1_slice],
                    buf_cache: None,
                    tid,
                    block_idx: self.block_idx,
                    block_dim: self.block_dim,
                    grid_dim: self.grid_dim,
                    fault: &mut self.fault,
                    pending_compute: 0,
                };
                f(&mut lane);
                lane.flush_compute();
                tid += 1;
            }
            // The warp's slice of the phase is fully recorded: replay it
            // here, while its trace words are still hot.
            self.replay_recorded_warp();
        }
        self.barrier();
    }

    /// Replay the warp whose lanes just finished recording the phase,
    /// price its counters once, add it to the phase, and recycle its
    /// lane buffers. Pricing stays per warp because a phase costs the
    /// maximum over its warps. Kept out of the per-kernel `phase::<F>`
    /// instances: the replay is one body for every kernel.
    fn replay_recorded_warp(&mut self) {
        let lint = self.check.as_deref_mut().and_then(BlockChecker::observer);
        let counters = replay_warp(self.traces, self.step, lint);
        self.phase_cycles = self.phase_cycles.max(self.cost.cycles(&counters));
        self.phase_counters += counters;
        for t in self.traces.iter_mut() {
            t.clear();
        }
    }

    /// End the phase: fold its cycles and counters into the block
    /// totals, and close the checker's phase, which hands the same
    /// counters to SimLint's observer.
    fn barrier(&mut self) {
        self.cycles += std::mem::take(&mut self.phase_cycles);
        let phase = std::mem::take(&mut self.phase_counters);
        self.counters += phase;
        if let Some(c) = self.check.as_deref_mut() {
            if let Some(err) = c.end_phase(self.block_idx, &phase, self.fault.is_some()) {
                self.fault = Some(err);
            }
        }
    }
}

/// Per-lane context: the kernel-facing instruction set. Every method both
/// performs the real operation (against device/shared memory) and records
/// it in the lane's trace for lockstep replay.
pub struct LaneCtx<'a, 'b> {
    mem: &'a DeviceMem,
    shared: &'b mut Vec<u32>,
    trace: &'b mut LaneTrace,
    check: Option<&'b mut BlockChecker>,
    /// This lane's retirement flag (see [`LaneCtx::retire`]).
    retired: &'b mut bool,
    l1: &'b mut [u64],
    /// One-entry cache of the last buffer this lane touched through a
    /// global accessor. Nearly every global access of a scan or probe
    /// loop hits the same buffer as the previous one, so the common case
    /// is a handle compare instead of a buffer-table chase. Sound
    /// because the lane holds `&DeviceMem` for the whole launch: the
    /// buffer table cannot change while the cache lives.
    buf_cache: Option<(BufId, &'a Buffer)>,
    tid: u32,
    block_idx: u32,
    block_dim: u32,
    grid_dim: u32,
    fault: &'b mut Option<SimError>,
    /// Arithmetic instructions recorded since the last non-compute op:
    /// [`LaneCtx::compute`] only bumps this counter, and the run is
    /// flushed into the trace as one `Op::Compute` word when the next
    /// memory op / converge marker / end of the lane's phase needs the
    /// ordering — the inner-loop `compute(1)` call is then a register
    /// add instead of a trace access.
    pending_compute: u32,
}

impl<'a> LaneCtx<'a, '_> {
    /// Thread index within the block (`threadIdx.x`).
    #[inline]
    pub fn tid(&self) -> u32 {
        self.tid
    }

    /// Block index within the grid (`blockIdx.x`).
    #[inline]
    pub fn block_idx(&self) -> u32 {
        self.block_idx
    }

    /// Threads per block (`blockDim.x`).
    #[inline]
    pub fn block_dim(&self) -> u32 {
        self.block_dim
    }

    /// Blocks per grid (`gridDim.x`).
    #[inline]
    pub fn grid_dim(&self) -> u32 {
        self.grid_dim
    }

    /// Global thread id (`blockIdx.x * blockDim.x + threadIdx.x`), as a
    /// `u64`: see [`global_thread_id`] for why the product must widen.
    #[inline]
    pub fn global_tid(&self) -> u64 {
        global_thread_id(self.block_idx, self.block_dim, self.tid)
    }

    /// Lane index within the warp.
    #[inline]
    pub fn lane_id(&self) -> u32 {
        self.tid % WARP_SIZE as u32
    }

    /// Warp index within the block.
    #[inline]
    pub fn warp_id(&self) -> u32 {
        self.tid / WARP_SIZE as u32
    }

    /// Report a kernel-level failure (e.g. a fixed-capacity structure
    /// overflowed); the launch returns [`SimError::KernelFault`].
    pub fn fault(&mut self, msg: impl Into<String>) {
        self.set_fault(SimError::KernelFault(msg.into()));
    }

    /// Record the block's first fault; later faults (often cascades from
    /// the poisoned value 0 the first one returned) are dropped.
    #[inline]
    fn set_fault(&mut self, err: SimError) {
        if self.fault.is_none() {
            *self.fault = Some(err);
        }
    }

    /// Whether this block already faulted. Every accessor tests it after
    /// its checker hook and before the data access, so poisoned lanes
    /// stop touching memory: loads return 0, stores and atomics are
    /// dropped, and a bad index can't cascade into a host-visible panic
    /// before `run_block` turns the fault into an error. (A poisoned
    /// block's trace and check statistics are discarded with it.)
    #[inline]
    fn poisoned(&self) -> bool {
        self.fault.is_some()
    }

    /// Run one shared-memory access through the record-side checker (if
    /// the device enables any analysis); a finding poisons the block.
    /// `val` is the word a store writes, 0 otherwise. Checks never touch
    /// the lane trace or the cost model, so a clean kernel's counters and
    /// cycles are identical with any analysis on or off.
    ///
    /// Each hook is an always-inlined `is_some` test in front of a
    /// never-inlined body: the checks sit on every memory access of
    /// every lane, and letting the (cold on plain runs) checker body
    /// into the accessors turned each disabled check into a real call.
    #[inline(always)]
    fn check_shared(&mut self, idx: usize, access: Access, val: u32) {
        if self.check.is_some() {
            self.check_shared_slow(idx, access, val);
        }
    }

    #[inline(never)]
    fn check_shared_slow(&mut self, idx: usize, access: Access, val: u32) {
        if let Some(c) = self.check.as_deref_mut() {
            if let Some(err) = c.shared(self.tid, self.shared, idx, access, val) {
                self.set_fault(err);
            }
        }
    }

    /// Run one global access through the record-side checker, *before*
    /// the data access (see [`BlockChecker::global`]).
    #[inline(always)]
    fn check_global(&mut self, buf: BufId, idx: usize, access: Access, val: u32) {
        if self.check.is_some() {
            self.check_global_slow(buf, idx, access, val);
        }
    }

    #[inline(never)]
    fn check_global_slow(&mut self, buf: BufId, idx: usize, access: Access, val: u32) {
        let buf = self.global_buf(buf);
        if let Some(c) = self.check.as_deref_mut() {
            if let Some(err) = c.global(self.tid, buf, idx, access, val) {
                self.set_fault(err);
            }
        }
    }

    /// Record `n` arithmetic instructions (comparisons, address math...).
    /// Run-length encoded: adjacent calls merge into one trace word (see
    /// `LaneTrace::push_compute` and `LaneCtx::pending_compute`).
    #[inline]
    pub fn compute(&mut self, n: u32) {
        self.pending_compute += n;
    }

    /// Flush the pending compute run into the trace. Must run before any
    /// other op is recorded (and at the end of the lane's phase) so the
    /// trace keeps the true program order.
    #[inline]
    fn flush_compute(&mut self) {
        if self.pending_compute > 0 {
            self.trace.push_compute(self.pending_compute);
            self.pending_compute = 0;
        }
    }

    /// Warp-reconvergence point (`__syncwarp` / the implicit re-join at
    /// the bottom of a divergent loop). Call it at the end of each outer
    /// loop iteration whose body contains data-dependent inner loops, so
    /// the replay re-aligns the lanes like real SIMT hardware does.
    #[inline]
    pub fn converge(&mut self) {
        self.flush_compute();
        self.trace.push(Op::Converge);
    }

    /// An explicit mid-phase `__syncthreads()` arrival point. Within the
    /// phase model every [`BlockCtx::phase`] already ends in a block-wide
    /// barrier; kernels whose control flow makes some lanes *skip* a
    /// barrier (the classic divergent-barrier bug) express the arrival
    /// with this call. It records a [`Op::Converge`] re-alignment marker
    /// unconditionally (so the cycle model is identical lints on or
    /// off); under SimLint the barrier-divergence verifier additionally
    /// counts the arrival, and at the end of the phase every live lane
    /// must have arrived the same number of times or the block fails
    /// with [`SimError::BarrierDivergence`] — on real hardware, the
    /// lanes that did arrive wait forever.
    #[inline]
    pub fn sync_threads(&mut self) {
        self.flush_compute();
        if self.poisoned() {
            return;
        }
        self.trace.push(Op::Converge);
        if let Some(c) = self.check.as_deref_mut() {
            c.arrive(self.tid);
        }
    }

    /// Retire this lane for the rest of the launch: it is skipped by
    /// every later phase, like a CUDA thread returning from the kernel
    /// while its block keeps running. Retirement is legal when the
    /// remaining phases place no barrier the lane was counted on; a lane
    /// that retires while siblings still arrive at a
    /// [`LaneCtx::sync_threads`] barrier in the same phase is exactly
    /// the divergence SimLint's verifier reports. The caller should
    /// `return` from the phase closure right after calling this.
    #[inline]
    pub fn retire(&mut self) {
        self.flush_compute();
        if self.poisoned() {
            return;
        }
        *self.retired = true;
        if let Some(c) = self.check.as_deref_mut() {
            c.retire(self.tid);
        }
    }

    /// Resolve `buf` through the lane's one-entry buffer cache (see
    /// [`LaneCtx::buf_cache`]). The returned reference borrows the
    /// launch-lifetime `DeviceMem`, not `self`, so callers can keep it
    /// across trace and fault accesses.
    #[inline]
    fn global_buf(&mut self, buf: BufId) -> &'a Buffer {
        match self.buf_cache {
            Some((id, b)) if id == buf => b,
            _ => {
                let b = self.mem.buffer(buf);
                self.buf_cache = Some((buf, b));
                b
            }
        }
    }

    /// Load one word from global memory. Consecutive touches of the same
    /// 32-byte sector by this lane are recorded as L1 hits (no DRAM
    /// transaction), modelling the spatial locality of sequential scans.
    #[inline]
    pub fn ld_global(&mut self, buf: BufId, idx: usize) -> u32 {
        self.flush_compute();
        self.check_global(buf, idx, Access::Read, 0);
        if self.poisoned() {
            return 0;
        }
        let (val, addr) = match self.global_buf(buf).try_load_addr(idx) {
            Ok(pair) => pair,
            Err(e) => {
                self.set_fault(e);
                return 0;
            }
        };
        let sector = addr / crate::SECTOR_BYTES;
        // The slice length is a power of two (see `run_block`); indexing
        // through `len - 1` lets the bounds check fold into the mask.
        let slot = (sector as usize) & (self.l1.len() - 1);
        if self.l1[slot] == sector {
            self.trace.push(Op::GLoadHit(addr));
        } else {
            self.l1[slot] = sector;
            self.trace.push(Op::GLoad(addr));
        }
        val
    }

    /// Store one word to global memory.
    #[inline]
    pub fn st_global(&mut self, buf: BufId, idx: usize, val: u32) {
        self.flush_compute();
        self.check_global(buf, idx, STORE, val);
        if self.poisoned() {
            return;
        }
        let b = self.global_buf(buf);
        match b.try_store(idx, val) {
            Ok(()) => self.trace.push(Op::GStore(b.addr_of(idx))),
            Err(e) => self.set_fault(e),
        }
    }

    /// `atomicAdd` on global memory; returns the previous value.
    #[inline]
    pub fn atomic_add_global(&mut self, buf: BufId, idx: usize, val: u32) -> u32 {
        self.global_rmw(buf, idx, Rmw::Add(val), true)
    }

    /// `atomicOr` on global memory; returns the previous value.
    #[inline]
    pub fn atomic_or_global(&mut self, buf: BufId, idx: usize, val: u32) -> u32 {
        self.global_rmw(buf, idx, Rmw::Or(val), true)
    }

    /// `atomicAnd` on global memory; returns the previous value.
    #[inline]
    pub fn atomic_and_global(&mut self, buf: BufId, idx: usize, val: u32) -> u32 {
        self.global_rmw(buf, idx, Rmw::And(val), true)
    }

    /// Correctness-only global add with **no traffic recorded**. This is
    /// the backchannel for warp-reduction helpers: the hardware cost of a
    /// `__shfl_down`+single-atomic reduction is modeled explicitly by the
    /// helper (see `tc-algos::util::warp_reduce_add`), while every lane's
    /// contribution still lands in the counter for exactness.
    #[inline]
    pub fn add_global_untraced(&mut self, buf: BufId, idx: usize, val: u32) {
        self.global_rmw(buf, idx, Rmw::Add(val), false);
    }

    /// Every global atomic: the checker vets the word (SimSan only:
    /// global atomics are exempt from race detection), the RMW applies,
    /// and a `traced` one records its `GAtomic` op. An untraced one
    /// records nothing, not even the pending compute run, so it leaves
    /// the trace exactly as it found it.
    #[inline(always)]
    fn global_rmw(&mut self, buf: BufId, idx: usize, op: Rmw, traced: bool) -> u32 {
        if traced {
            self.flush_compute();
        }
        self.check_global(buf, idx, Access::Atomic, 0);
        if self.poisoned() {
            return 0;
        }
        let b = self.global_buf(buf);
        match b.try_rmw(idx, op) {
            Ok(old) => {
                if traced {
                    self.trace.push(Op::GAtomic(b.addr_of(idx)));
                }
                old
            }
            Err(e) => {
                self.set_fault(e);
                0
            }
        }
    }

    /// The shared word at `idx`, or `None` after poisoning the block with
    /// a [`SimError::MemoryFault`] on `"shared"` when `idx` is out of
    /// bounds — a lane-side shared access faults like a global one.
    #[inline]
    fn shared_slot(&mut self, idx: usize) -> Option<&mut u32> {
        if idx >= self.shared.len() {
            self.shared_oob(idx);
            return None;
        }
        Some(&mut self.shared[idx])
    }

    /// Outlined and cold like `Buffer::oob`: the fault allocates.
    #[cold]
    #[inline(never)]
    fn shared_oob(&mut self, idx: usize) {
        let len = self.shared.len();
        self.set_fault(SimError::MemoryFault {
            buffer: "shared".to_string(),
            index: idx,
            len,
        });
    }

    /// Load one word from shared memory. Under race detection, reading a
    /// slot another lane plain-stores in the same phase — in either
    /// order — poisons the block with [`SimError::DataRace`]: that is a
    /// data race in CUDA (lanes only appear ordered here because the
    /// simulator runs them sequentially). Under SimSan, reading a slot no
    /// lane of this block has stored is an uninit-read: the simulator
    /// zero-fills shared memory for determinism, but CUDA does not.
    #[inline]
    pub fn ld_shared(&mut self, idx: usize) -> u32 {
        self.flush_compute();
        self.trace.push(Op::SLoad(idx as u32));
        self.check_shared(idx, Access::Read, 0);
        if self.poisoned() {
            return 0;
        }
        self.shared_slot(idx).map_or(0, |w| *w)
    }

    /// Store one word to shared memory.
    #[inline]
    pub fn st_shared(&mut self, idx: usize, val: u32) {
        self.flush_compute();
        self.trace.push(Op::SStore(idx as u32));
        self.check_shared(idx, STORE, val);
        if self.poisoned() {
            return;
        }
        if let Some(w) = self.shared_slot(idx) {
            *w = val;
        }
    }

    /// `atomicAdd` on shared memory; returns the previous value.
    #[inline]
    pub fn atomic_add_shared(&mut self, idx: usize, val: u32) -> u32 {
        self.shared_rmw(idx, Rmw::Add(val))
    }

    /// `atomicOr` on shared memory; returns the previous value.
    #[inline]
    pub fn atomic_or_shared(&mut self, idx: usize, val: u32) -> u32 {
        self.shared_rmw(idx, Rmw::Or(val))
    }

    /// `atomicAnd` on shared memory; returns the previous value.
    #[inline]
    pub fn atomic_and_shared(&mut self, idx: usize, val: u32) -> u32 {
        self.shared_rmw(idx, Rmw::And(val))
    }

    /// Every shared atomic: record the `SAtomic` op, run the checker
    /// (SimSan and race detection both see shared atomics), apply the
    /// RMW.
    #[inline(always)]
    fn shared_rmw(&mut self, idx: usize, op: Rmw) -> u32 {
        self.flush_compute();
        self.trace.push(Op::SAtomic(idx as u32));
        self.check_shared(idx, Access::Atomic, 0);
        if self.poisoned() {
            return 0;
        }
        match self.shared_slot(idx) {
            Some(w) => {
                let old = *w;
                *w = op.apply(old);
                old
            }
            None => 0,
        }
    }
}

/// Execute one block and return its (cycles, counters). The caller owns
/// the [`BlockScratch`] arena (one per rayon worker) so consecutive
/// blocks reuse every buffer. `lint_acc` is the launch's SimLint
/// accumulator (`Some` exactly when the device enables lints): a block
/// that completes has its checker fold its observations into it before
/// returning.
pub(crate) fn run_block<F>(
    dev: &Device,
    mem: &DeviceMem,
    cfg: &KernelConfig,
    block_idx: u32,
    kernel: &F,
    scratch: &mut BlockScratch,
    lint_acc: Option<&Mutex<LintObserver>>,
) -> Result<(u64, ProfileCounters), SimError>
where
    F: Fn(&mut BlockCtx<'_>) + Sync,
{
    // Each warp's proportional slice of the SM's L1, direct-mapped,
    // rounded to a power of two (V100: 4096 sectors / 64 warps = 64).
    let l1_slice = (dev.l1_sectors_per_sm as u64 * WARP_SIZE as u64
        / dev.max_threads_per_sm.max(1) as u64)
        .max(16)
        .next_power_of_two() as usize;
    let warps = (cfg.block_dim as usize).div_ceil(WARP_SIZE);
    scratch.reset(
        cfg.shared_words as usize,
        warps * l1_slice,
        cfg.block_dim as usize,
    );
    let BlockScratch {
        shared,
        traces,
        l1,
        step,
        retired,
        check,
    } = scratch;
    let mut blk = BlockCtx {
        mem,
        block_idx,
        block_dim: cfg.block_dim,
        grid_dim: cfg.grid_dim,
        shared,
        traces,
        step,
        cost: dev.cost,
        check: check.reset(cfg.shared_words as usize, cfg.block_dim),
        retired,
        l1,
        l1_slice,
        fault: None,
        cycles: 0,
        counters: ProfileCounters::default(),
        phase_cycles: 0,
        phase_counters: ProfileCounters::default(),
    };
    kernel(&mut blk);
    // Flush any trailing un-barriered work (kernel end is a barrier).
    blk.barrier();
    if let Some(err) = blk.fault {
        return Err(err);
    }
    let mut counters = blk.counters;
    if let Some(c) = blk.check {
        c.finish(block_idx, &mut counters, lint_acc);
    }
    Ok((blk.cycles, counters))
}

/// A warp holds at most [`WARP_SIZE`] lanes and each lane contributes at
/// most one address per step, so per-kind address lists fit in fixed
/// stack arrays — no heap, and every distinct/conflict pass below runs
/// on 32-entry arrays that live in cache (and usually registers).
struct LaneAddrs {
    buf: [u64; WARP_SIZE],
    len: usize,
}

impl Default for LaneAddrs {
    fn default() -> Self {
        LaneAddrs {
            buf: [0; WARP_SIZE],
            len: 0,
        }
    }
}

impl LaneAddrs {
    #[inline]
    fn push(&mut self, a: u64) {
        debug_assert!(self.len < WARP_SIZE);
        // The ≤ 32 invariant above makes the masked index a plain store
        // with no panic path in the hottest loop of the replay.
        self.buf[self.len & (WARP_SIZE - 1)] = a;
        self.len += 1;
    }

    #[inline]
    fn as_slice(&self) -> &[u64] {
        &self.buf[..self.len]
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [u64] {
        &mut self.buf[..self.len]
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn clear(&mut self) {
        self.len = 0;
    }
}

/// Number of memory-op kinds (= tags `TAG_GLOAD..=TAG_SATOMIC`, which
/// the trace encoding keeps contiguous from zero exactly so the replay
/// gather can index a list array by tag).
const MEM_KINDS: usize = TAG_SATOMIC as usize + 1;

/// `log2(SECTOR_BYTES)`: byte address → 32-byte sector id.
const SECTOR_SHIFT: u32 = crate::SECTOR_BYTES.trailing_zeros();

/// Base byte address of the sector holding byte address `addr`.
#[inline]
fn sector_base(addr: u64) -> u64 {
    (addr >> SECTOR_SHIFT) << SECTOR_SHIFT
}

/// Per-tag payload shift applied on the way into the step lists: global
/// loads, load hits and stores coalesce at sector granularity, so their
/// byte addresses drop to sector ids during the gather and the distinct
/// passes never re-derive sectors per address. Global atomics keep byte
/// addresses (collision depth serializes on the exact word); shared
/// kinds carry word indices.
const GATHER_SHIFT: [u32; MEM_KINDS] = [SECTOR_SHIFT, SECTOR_SHIFT, SECTOR_SHIFT, 0, 0, 0, 0];

/// Replay position of one live lane, carried *inline* in the compacted
/// lane array so the gather loop touches one cache line per lane instead
/// of bouncing between a live-index list, a cursor table and the trace
/// table. The position is the un-replayed *suffix* of the lane's
/// recorded trace: advancing is one slice shrink, the head peek is a
/// `split_first` with no separate cursor to bounds-check against, and
/// "exhausted" is `is_empty` — this loop runs once per recorded op of
/// the whole simulation, so every bookkeeping instruction counts.
#[derive(Clone, Copy, Default)]
struct LaneState<'a> {
    /// The lane's un-replayed ops (never empty while the state is live).
    rest: &'a [PackedOp],
    /// Consumed prefix of the compute run at the head, when the head is
    /// `Op::Compute(n)`.
    run_done: u32,
}

/// Below this many addresses the quadratic seen-scan beats every other
/// distinct-counting strategy (it degenerates to a handful of compares
/// that the compiler keeps in registers). Above it, the slot passes
/// switch to an O(n) bitmap when the addresses are clustered and an
/// O(n log n) sort when they are scattered — the shape divergent hash
/// probing produces, where the scan's O(n²) compare storm was the PR 4
/// regression on Hu and GroupTC.
const SCAN_MAX: usize = 8;

/// Count distinct 32-byte sectors among the byte addresses of one warp
/// slot (≤ 32 addresses). Only the global-atomic slot comes through
/// here: the load and store lists already hold sector ids.
fn count_sectors(addrs: &[u64]) -> u64 {
    let mut sectors = [0u64; WARP_SIZE];
    for (s, &addr) in sectors.iter_mut().zip(addrs) {
        *s = addr >> SECTOR_SHIFT;
    }
    distinct_split(&mut sectors[..addrs.len()], &mut []).1
}

/// Distinct values in a sorted slice.
#[inline]
fn sorted_distinct(v: &[u64]) -> u64 {
    let mut count = 0u64;
    for (i, &s) in v.iter().enumerate() {
        count += (i == 0 || v[i - 1] != s) as u64;
    }
    count
}

/// Distinct values across the union of two sorted slices (two-pointer
/// merge; duplicates within and across the slices count once).
fn sorted_union_distinct(a: &[u64], b: &[u64]) -> u64 {
    let (mut i, mut j, mut count) = (0usize, 0usize, 0u64);
    while i < a.len() || j < b.len() {
        let v = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) => x.min(y),
            (Some(&x), None) => x,
            (None, Some(&y)) => y,
            (None, None) => unreachable!(),
        };
        count += 1;
        while i < a.len() && a[i] == v {
            i += 1;
        }
        while j < b.len() && b[j] == v {
            j += 1;
        }
    }
    count
}

/// Distinct values over the two halves of one slot's list, without
/// materializing the union: returns `(distinct(a), distinct(a ∪ b))` —
/// for a load slot, distinct sectors among the misses alone, then
/// across the concatenation (the gather already reduced addresses to
/// sector ids). May reorder both slices.
///
/// Adaptive: small slots use a newest-first seen-scan (coalesced warps
/// revisit the sector they just recorded); larger slots whose values
/// cluster within a 64-wide window dedup through a pair of u64 bitmaps;
/// scattered slots (divergent hash probes, binary-search hops) sort in
/// place and merge. All three count the same distinct sets, so the
/// choice is invisible in the counters.
fn distinct_split(a: &mut [u64], b: &mut [u64]) -> (u64, u64) {
    let n = a.len() + b.len();
    debug_assert!(n <= WARP_SIZE);
    if n <= SCAN_MAX {
        let mut seen = [0u64; SCAN_MAX];
        let mut k = 0usize;
        'a: for &v in a.iter() {
            for &prev in seen[..k].iter().rev() {
                if prev == v {
                    continue 'a;
                }
            }
            seen[k] = v;
            k += 1;
        }
        let da = k as u64;
        'b: for &v in b.iter() {
            for &prev in seen[..k].iter().rev() {
                if prev == v {
                    continue 'b;
                }
            }
            seen[k] = v;
            k += 1;
        }
        return (da, k as u64);
    }
    let mut lo = u64::MAX;
    let mut hi = 0u64;
    for &v in a.iter().chain(b.iter()) {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if hi - lo < u64::BITS as u64 {
        let mut mask_a = 0u64;
        for &v in a.iter() {
            mask_a |= 1 << (v - lo);
        }
        let mut mask_all = mask_a;
        for &v in b.iter() {
            mask_all |= 1 << (v - lo);
        }
        return (mask_a.count_ones() as u64, mask_all.count_ones() as u64);
    }
    a.sort_unstable();
    b.sort_unstable();
    (sorted_distinct(a), sorted_union_distinct(a, b))
}

/// Worst-case same-address collision depth (atomics serialize on address).
fn max_same_addr_depth(addrs: &[u64]) -> u64 {
    let n = addrs.len();
    debug_assert!(n <= WARP_SIZE);
    if n <= SCAN_MAX {
        let mut best = 0u64;
        for (i, &a) in addrs.iter().enumerate() {
            if addrs[..i].contains(&a) {
                continue; // depth already counted at its first occurrence
            }
            let depth = addrs[i..].iter().filter(|&&x| x == a).count() as u64;
            best = best.max(depth);
        }
        return best;
    }
    // Scattered atomics: sort, then the deepest collision is the longest
    // equal run.
    let mut buf = [0u64; WARP_SIZE];
    buf[..n].copy_from_slice(addrs);
    let buf = &mut buf[..n];
    buf.sort_unstable();
    let mut best = 1u64;
    let mut run = 1u64;
    for i in 1..n {
        if buf[i] == buf[i - 1] {
            run += 1;
            best = best.max(run);
        } else {
            run = 1;
        }
    }
    best
}

/// Shared-memory bank-conflict ways: accesses to the same word broadcast,
/// accesses to distinct words in the same bank serialize. Adaptive like
/// [`distinct_split`]: seen-scan below [`SCAN_MAX`], bitmap dedup
/// for clustered indices, sort for scattered ones.
fn bank_conflict_ways(addrs: &mut [u64]) -> u64 {
    let n = addrs.len();
    debug_assert!(n <= WARP_SIZE);
    let mut per_bank = [0u8; SHARED_BANKS];
    let mut ways = 1u64;
    if n <= SCAN_MAX {
        for i in 0..n {
            let a = addrs[i];
            if addrs[..i].contains(&a) {
                continue; // duplicate word: broadcast, not a conflict
            }
            let bank = (a as usize) % SHARED_BANKS;
            per_bank[bank] += 1;
            ways = ways.max(per_bank[bank] as u64);
        }
        return ways;
    }
    let mut lo = addrs[0];
    let mut hi = addrs[0];
    for &a in &addrs[1..] {
        lo = lo.min(a);
        hi = hi.max(a);
    }
    if hi - lo < u64::BITS as u64 {
        let mut mask = 0u64;
        for &a in addrs.iter() {
            mask |= 1 << (a - lo);
        }
        while mask != 0 {
            let bit = mask.trailing_zeros() as u64;
            mask &= mask - 1;
            let bank = ((lo + bit) as usize) % SHARED_BANKS;
            per_bank[bank] += 1;
            ways = ways.max(per_bank[bank] as u64);
        }
        return ways;
    }
    addrs.sort_unstable();
    for i in 0..n {
        if i > 0 && addrs[i] == addrs[i - 1] {
            continue; // duplicate word: broadcast, not a conflict
        }
        let bank = (addrs[i] as usize) % SHARED_BANKS;
        per_bank[bank] += 1;
        ways = ways.max(per_bank[bank] as u64);
    }
    ways
}

/// One issued warp slot: its kind and the measures its counters depend
/// on. The general lockstep step derives the measures from its slot
/// lists; the single-active-lane drain knows them up front (one lane
/// touches one sector, one bank, one address).
#[derive(Clone, Copy)]
pub(crate) enum Slot {
    /// `(steps)`: consecutive compute instructions (one batched run).
    Compute(u64),
    /// `(sectors, misses)`: distinct sectors addressed, and how many of
    /// them missed L1.
    GLoad(u64, u64),
    /// `(sectors)`: distinct sectors written.
    GStore(u64),
    /// `(depth, sectors)`: same-address collision depth, and distinct
    /// sectors moved.
    GAtomic(u64, u64),
    /// `(ways)`: bank-conflict ways.
    SLoad(u64),
    /// `(ways)`: bank-conflict ways.
    SStore(u64),
    /// `(depth)`: same-address collision depth.
    SAtomic(u64),
}

/// What one warp's replay has counted so far, and the one rule that
/// counts it: [`WarpTally::charge`] is the only place a slot's counters
/// and SimLint observation are applied, so both replay paths stay
/// identical by construction. The warp is priced once, from its
/// counters (see [`CostModel::cycles`]).
struct WarpTally<'l> {
    lint: Option<&'l mut LintObserver>,
    counters: ProfileCounters,
}

impl WarpTally<'_> {
    /// Count one slot issued by `active` lanes. `site` is the lint's
    /// representative address: a sector's base byte address for loads
    /// and stores, the byte address for global atomics, the word index
    /// for shared kinds (unused for compute).
    #[inline(always)]
    fn charge(&mut self, slot: Slot, active: u64, site: u64) {
        let c = &mut self.counters;
        let steps = match slot {
            Slot::Compute(steps) => steps,
            _ => 1,
        };
        c.issued_slots += steps;
        c.active_thread_slots += steps * active;
        match slot {
            Slot::Compute(steps) => c.compute_slots += steps,
            Slot::GLoad(sectors, misses) => {
                // nvprof's gld_transactions counts wavefronts (distinct
                // sectors addressed) regardless of cache hits; the DRAM
                // floor counts only the miss half.
                c.global_load_requests += 1;
                c.gld_transactions += sectors;
                c.dram_load_sectors += misses;
                c.global_load_miss_requests += u64::from(misses > 0);
            }
            Slot::GStore(sectors) => {
                c.global_store_requests += 1;
                c.gst_transactions += sectors;
            }
            Slot::GAtomic(depth, sectors) => {
                // Atomics are resolved in L2 but still move their sectors
                // over DRAM; distinct 32-byte sectors feed the
                // launch-level bandwidth floor alongside load and store
                // traffic.
                c.global_atomic_requests += 1;
                c.dram_atomic_sectors += sectors;
                c.global_atomic_collisions += depth.saturating_sub(1);
            }
            Slot::SLoad(ways) => {
                c.shared_load_requests += 1;
                c.shared_bank_conflicts += ways.saturating_sub(1);
            }
            Slot::SStore(ways) => {
                c.shared_store_requests += 1;
                c.shared_bank_conflicts += ways.saturating_sub(1);
            }
            Slot::SAtomic(depth) => {
                c.shared_atomic_requests += 1;
                c.shared_atomic_collisions += depth.saturating_sub(1);
            }
        }
        if let Some(obs) = self.lint.as_deref_mut() {
            obs.observe(slot, site);
        }
    }
}

/// Replay the lanes of one warp in lockstep and return its counters.
///
/// At each step, the next un-replayed op of every still-active lane is
/// gathered; lanes that diverged onto different op kinds serialize into
/// separate issue slots (SIMT branch divergence), and lanes whose traces
/// already ended count as inactive, which is what depresses
/// `warp_execution_efficiency` for imbalanced workloads.
///
/// Compute runs (`Op::Compute(n)`) are consumed in batches: when a step
/// issues *only* compute, every active lane is inside a run, and the set
/// of active lanes cannot change for the next `m = min(remaining run)`
/// steps — exhausted lanes stay exhausted and converge-marked lanes keep
/// waiting (compute is a real issue). So `m` identical one-instruction
/// steps collapse into one batch with counters scaled by `m`,
/// bit-identical to stepping. When the step also issues memory, the
/// active compute set can change next step, so `m = 1`.
///
/// [`Op::Converge`] markers re-align the lanes: a lane that reaches one
/// stalls (inactive) until every unfinished lane is also at a marker,
/// then all markers are consumed together — the branch re-join of real
/// SIMT hardware, without which lanes that skip a data-dependent inner
/// loop would stay shifted against their siblings forever.
fn replay_warp(
    traces: &[LaneTrace],
    step: &mut [LaneAddrs; MEM_KINDS],
    lint: Option<&mut LintObserver>,
) -> ProfileCounters {
    let mut tally = WarpTally {
        lint,
        counters: ProfileCounters::default(),
    };
    // Live lanes, compacted in place: a later live entry overwrites an
    // exhausted lane, which drops out (see `retire`), so a tail-divergent
    // warp — one long merge while 31 lanes sit finished, the common shape
    // in triangle counting — costs one lane visit per step, not 32. Compaction
    // reorders lane visits, which is safe: every per-slot pass (distinct
    // sectors, bank ways, same-address depth, lane counts) is
    // order-independent.
    let mut lanes: [LaneState<'_>; WARP_SIZE] = [LaneState::default(); WARP_SIZE];
    let mut n_live = 0usize;
    for t in traces.iter() {
        if !t.is_empty() {
            lanes[n_live] = LaneState {
                rest: &t.ops,
                run_done: 0,
            };
            n_live += 1;
        }
    }
    if n_live == 0 {
        return tally.counters;
    }
    // Lanes stalled at a `Converge` marker are *parked* past `n_active`
    // (the array is split `[active.. | parked.. | dead]`), so a warp
    // whose 31 finished-early lanes wait out one long merge scans a
    // single lane per step instead of re-matching 32 marker heads — on
    // the full Wiki-Talk sweep roughly a sixth of all lane visits were
    // such re-matched waiters.
    let mut n_active = n_live;
    loop {
        // Single-active-lane drain: one long divergent tail (a lane
        // merging alone while its siblings sit finished or parked at a
        // marker — the dominant late-replay shape in triangle counting)
        // needs no gather, no slot lists and no distinct-count passes:
        // every slot carries exactly one address, so its measures are
        // known (one sector, one way, depth one) and it goes straight to
        // the same `charge` as the general path's one-lane slots.
        while n_active == 1 {
            let st = &mut lanes[0];
            // Live-lane invariant: `rest` is non-empty.
            match st.rest[0].unpack() {
                // Siblings are parked at markers: fall through to the
                // general loop, which parks this lane and re-aligns them
                // all. A lone lane's marker re-aligns nothing: free.
                Op::Converge if n_live > 1 => break,
                Op::Converge => {}
                Op::Compute(n) => {
                    debug_assert!(n > st.run_done, "Compute(n) invariant: n >= 1");
                    let steps = (n - st.run_done) as u64;
                    tally.charge(Slot::Compute(steps), 1, 0);
                    st.run_done = 0;
                }
                Op::GLoad(addr) => tally.charge(Slot::GLoad(1, 1), 1, sector_base(addr)),
                Op::GLoadHit(addr) => tally.charge(Slot::GLoad(1, 0), 1, sector_base(addr)),
                Op::GStore(addr) => tally.charge(Slot::GStore(1), 1, sector_base(addr)),
                Op::GAtomic(addr) => tally.charge(Slot::GAtomic(1, 1), 1, addr),
                Op::SLoad(idx) => tally.charge(Slot::SLoad(1), 1, idx as u64),
                Op::SStore(idx) => tally.charge(Slot::SStore(1), 1, idx as u64),
                Op::SAtomic(idx) => tally.charge(Slot::SAtomic(1), 1, idx as u64),
            }
            st.rest = &st.rest[1..];
            if st.rest.is_empty() {
                retire(&mut lanes, 0, &mut n_active, &mut n_live);
                break;
            }
        }
        // One lockstep step. The gather dispatches on raw tag bits:
        // every memory kind funnels through a single push into its
        // tag-indexed list (one code path instead of seven), compute
        // heads are noted in a compact position list consumed after the
        // slot passes, and converge heads park their lane.
        let mut kinds: u32 = 0;
        // Positions (and remaining run lengths) of the lanes that were
        // *at* a compute head during this gather pass. The consume pass
        // below must not re-read heads: a lane whose memory op issued
        // this step already advanced onto its next op, and consuming
        // that op here would skip it without counting it. Gather-time
        // positions stay valid: compute positions are strictly
        // ascending and every retire or park in this loop touches only
        // positions at or past the cursor, which is already beyond them.
        let mut comp_pos = [0u8; WARP_SIZE];
        let mut comp_rem = [0u32; WARP_SIZE];
        let mut n_comp = 0usize;
        let mut min_run = u32::MAX;
        let mut i = 0;
        while i < n_active {
            let st = &mut lanes[i];
            // Live-array invariant: `rest` is non-empty.
            let w = st.rest[0].word();
            let tag = (w & 0xf) as usize;
            if tag < MEM_KINDS {
                step[tag].push((w >> 4) >> GATHER_SHIFT[tag]);
                kinds |= 1 << tag;
                st.rest = &st.rest[1..];
                if st.rest.is_empty() {
                    retire(&mut lanes, i, &mut n_active, &mut n_live);
                } else {
                    i += 1;
                }
            } else if tag as u64 == TAG_COMPUTE {
                let n = (w >> 4) as u32;
                debug_assert!(n > st.run_done, "Compute(n) invariant: n >= 1");
                let rem = n - st.run_done;
                comp_pos[n_comp] = i as u8;
                comp_rem[n_comp] = rem;
                n_comp += 1;
                min_run = min_run.min(rem);
                i += 1; // cursor advances after batching below
            } else {
                debug_assert_eq!(tag as u64, TAG_CONVERGE);
                // Stalls until every active lane reaches a marker; the
                // cursor advances at re-align.
                n_active -= 1;
                lanes.swap(i, n_active);
            }
        }
        let memory_issued = kinds != 0;
        if !memory_issued && n_comp == 0 {
            if n_live > 0 {
                // Every unfinished lane is parked at a marker: consume
                // them all and re-align.
                debug_assert_eq!(n_active, 0);
                let mut i = 0;
                while i < n_live {
                    let st = &mut lanes[i];
                    debug_assert!(matches!(st.rest[0].unpack(), Op::Converge));
                    st.rest = &st.rest[1..];
                    if st.rest.is_empty() {
                        // No code reads `lanes[n_live..]`.
                        n_live -= 1;
                        lanes[i] = lanes[n_live];
                    } else {
                        i += 1;
                    }
                }
                n_active = n_live;
                continue;
            }
            break; // all traces exhausted
        }
        let [gl, gh, gs, ga, sl, ss, sa] = step;
        // Each pass captures its lint site (lane 0's address) before the
        // distinct/conflict pass, which may reorder the list. Load and
        // store lists hold sector ids; the site is the sector's base
        // byte address.
        if !gl.is_empty() || !gh.is_empty() {
            let active = (gl.len + gh.len) as u64;
            let site = if gl.is_empty() { gh.buf[0] } else { gl.buf[0] } << SECTOR_SHIFT;
            let (misses, sectors) = distinct_split(gl.as_mut_slice(), gh.as_mut_slice());
            tally.charge(Slot::GLoad(sectors, misses), active, site);
        }
        if !gs.is_empty() {
            let site = gs.buf[0] << SECTOR_SHIFT;
            let sectors = distinct_split(gs.as_mut_slice(), &mut []).1;
            tally.charge(Slot::GStore(sectors), gs.len as u64, site);
        }
        if !ga.is_empty() {
            let depth = max_same_addr_depth(ga.as_slice());
            let sectors = count_sectors(ga.as_slice());
            tally.charge(Slot::GAtomic(depth, sectors), ga.len as u64, ga.buf[0]);
        }
        if !sl.is_empty() {
            let site = sl.buf[0];
            let ways = bank_conflict_ways(sl.as_mut_slice());
            tally.charge(Slot::SLoad(ways), sl.len as u64, site);
        }
        if !ss.is_empty() {
            let site = ss.buf[0];
            let ways = bank_conflict_ways(ss.as_mut_slice());
            tally.charge(Slot::SStore(ways), ss.len as u64, site);
        }
        if !sa.is_empty() {
            let depth = max_same_addr_depth(sa.as_slice());
            tally.charge(Slot::SAtomic(depth), sa.len as u64, sa.buf[0]);
        }
        // Reset only the lists this step touched.
        let mut used = kinds;
        while used != 0 {
            step[used.trailing_zeros() as usize].clear();
            used &= used - 1;
        }
        if n_comp > 0 {
            let m = if memory_issued { 1 } else { min_run as u64 };
            tally.charge(Slot::Compute(m), n_comp as u64, 0);
            let m32 = m as u32;
            // Descending, so a retire's copies (which touch positions at
            // or past the retiring one) never move a lane an earlier
            // list entry still points at.
            for j in (0..n_comp).rev() {
                let p = comp_pos[j] as usize;
                let st = &mut lanes[p];
                if comp_rem[j] == m32 {
                    // Batch consumed the rest of the run.
                    st.run_done = 0;
                    st.rest = &st.rest[1..];
                    if st.rest.is_empty() {
                        retire(&mut lanes, p, &mut n_active, &mut n_live);
                    }
                } else {
                    debug_assert!(comp_rem[j] > m32);
                    st.run_done += m32;
                }
            }
        }
    }
    // The loop only breaks when no lane has an op left to issue.
    debug_assert_eq!(n_live, 0, "replay exited with unconsumed ops");
    tally.counters
}

/// Drops the exhausted active lane at `i` from `lanes`, which is split
/// `[active.. | parked.. | dead]`: the last active lane moves into `i` and
/// the last parked lane into the slot that frees, so both partitions stay
/// contiguous. No code reads `lanes[n_live..]`, so the retiring lane is
/// simply overwritten.
#[inline(always)]
fn retire(lanes: &mut [LaneState<'_>], i: usize, n_active: &mut usize, n_live: &mut usize) {
    *n_active -= 1;
    *n_live -= 1;
    lanes[i] = lanes[*n_active];
    lanes[*n_active] = lanes[*n_live];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::LaneTrace;

    fn trace_of(ops: &[Op]) -> LaneTrace {
        LaneTrace::from_ops(ops)
    }

    /// The warp's V100 cycles and counters.
    fn replay(traces: &[LaneTrace]) -> (u64, ProfileCounters) {
        let c = replay_warp(traces, &mut Default::default(), None);
        (CostModel::v100().cycles(&c), c)
    }

    #[test]
    fn global_thread_id_widens_before_multiplying() {
        // 8M blocks of 1024 threads: the last global tid is ~2^33, far
        // past u32. The u32 expression wrapped to a small alias.
        let blocks = 8 * 1024 * 1024u32;
        let tid = global_thread_id(blocks - 1, 1024, 1023);
        assert_eq!(tid, (blocks as u64) * 1024 - 1);
        assert!(tid > u32::MAX as u64);
        // And the in-range case is unchanged.
        assert_eq!(global_thread_id(3, 256, 17), 3 * 256 + 17);
    }

    #[test]
    fn sector_counting_coalesced_vs_scattered() {
        // 32 lanes reading consecutive words: 32 * 4B = 128B = 4 sectors.
        let coalesced: Vec<u64> = (0..32u64).map(|i| i * 4).collect();
        assert_eq!(count_sectors(&coalesced), 4);
        // 32 lanes each in its own sector.
        let scattered: Vec<u64> = (0..32u64).map(|i| i * 4096).collect();
        assert_eq!(count_sectors(&scattered), 32);
        // All lanes on the same word: a single broadcastable sector.
        let broadcast: Vec<u64> = vec![100; 32];
        assert_eq!(count_sectors(&broadcast), 1);
    }

    #[test]
    fn chained_sector_counting_matches_union() {
        // Misses and hits overlapping in sector 0 plus a hit-only sector,
        // as the gather lists them: byte addresses [0, 4, 64] and
        // [8, 96, 100] reduced to sector ids.
        let (mut misses, mut hits) = ([0u64, 0, 2], [0u64, 3, 3]);
        assert_eq!(distinct_split(&mut misses, &mut hits), (2, 3));
        assert_eq!(
            distinct_split(&mut misses, &mut []).1,
            count_sectors(&[0, 4, 64])
        );
    }

    #[test]
    fn collision_depth() {
        let a = [1u64, 2, 2, 2, 3];
        assert_eq!(max_same_addr_depth(&a), 3);
        let b = [5u64];
        assert_eq!(max_same_addr_depth(&b), 1);
        // Unsorted duplicates must still count as one run.
        let c = [7u64, 1, 7, 2, 7];
        assert_eq!(max_same_addr_depth(&c), 3);
    }

    #[test]
    fn bank_conflicts() {
        // Stride-1: each lane its own bank.
        let mut s: Vec<u64> = (0..32).collect();
        assert_eq!(bank_conflict_ways(&mut s), 1);
        // Stride-32: all lanes in bank 0 -> 32-way conflict.
        let mut c: Vec<u64> = (0..32).map(|i| i * 32).collect();
        assert_eq!(bank_conflict_ways(&mut c), 32);
        // Same word everywhere: broadcast, no conflict.
        let mut b: Vec<u64> = vec![7; 32];
        assert_eq!(bank_conflict_ways(&mut b), 1);
    }

    #[test]
    fn replay_counts_divergence() {
        let cost = CostModel::v100();
        // Lane 0 does 4 computes, lane 1 does 1: 4 slots, 5 active-thread
        // slots => efficiency 5/(4*32).
        let traces = vec![trace_of(&[Op::Compute(4)]), trace_of(&[Op::Compute(1)])];
        let (cycles, c) = replay(&traces);
        assert_eq!(c.issued_slots, 4);
        assert_eq!(c.active_thread_slots, 5);
        assert_eq!(c.compute_slots, 4);
        assert_eq!(cycles, 4 * cost.compute);
    }

    #[test]
    fn replay_splits_divergent_kinds() {
        // Two lanes at step 0 doing different kinds: two issue slots.
        let traces = vec![trace_of(&[Op::Compute(1)]), trace_of(&[Op::GLoad(0)])];
        let (_, c) = replay(&traces);
        assert_eq!(c.issued_slots, 2);
        assert_eq!(c.active_thread_slots, 2);
        assert_eq!(c.global_load_requests, 1);
        assert_eq!(c.compute_slots, 1);
    }

    #[test]
    fn replay_groups_coalesced_loads() {
        let cost = CostModel::v100();
        // 8 lanes load 8 consecutive words (one sector): 1 request,
        // 1 transaction.
        let traces: Vec<LaneTrace> = (0..8u64).map(|i| trace_of(&[Op::GLoad(i * 4)])).collect();
        let (cycles, c) = replay(&traces);
        assert_eq!(c.global_load_requests, 1);
        assert_eq!(c.gld_transactions, 1);
        assert_eq!(c.dram_load_sectors, 1);
        assert_eq!(c.global_load_miss_requests, 1);
        assert_eq!(
            cycles,
            cost.global_hit + cost.global_issue + cost.global_sector
        );
    }

    #[test]
    fn replay_counts_hit_wavefronts_as_transactions() {
        let cost = CostModel::v100();
        // Two lanes in different sectors, both L1 hits: one request, two
        // wavefront transactions, zero DRAM sectors.
        let traces = vec![
            trace_of(&[Op::GLoadHit(0)]),
            trace_of(&[Op::GLoadHit(4096)]),
        ];
        let (cycles, c) = replay(&traces);
        assert_eq!(c.global_load_requests, 1);
        assert_eq!(c.gld_transactions, 2);
        assert_eq!(c.dram_load_sectors, 0);
        assert_eq!(c.global_load_miss_requests, 0);
        assert_eq!(cycles, cost.global_hit + cost.l1_wavefront);
        // The same slot with both sectors missing pays the DRAM trip.
        let missed = ProfileCounters {
            dram_load_sectors: 2,
            global_load_miss_requests: 1,
            ..c
        };
        assert!(cycles < cost.cycles(&missed));
    }

    #[test]
    fn replay_counts_atomic_dram_sectors() {
        // 4 lanes hammer one word: one sector of DRAM atomic traffic.
        let same: Vec<LaneTrace> = (0..4).map(|_| trace_of(&[Op::GAtomic(256)])).collect();
        let (_, c) = replay(&same);
        assert_eq!(c.global_atomic_requests, 1);
        assert_eq!(c.dram_atomic_sectors, 1);
        // 4 lanes on 4 distant words: four sectors from the same slot.
        let scattered: Vec<LaneTrace> = (0..4u64)
            .map(|i| trace_of(&[Op::GAtomic(i * 4096)]))
            .collect();
        let (_, c) = replay(&scattered);
        assert_eq!(c.global_atomic_requests, 1);
        assert_eq!(c.dram_atomic_sectors, 4);
    }

    #[test]
    fn converge_realigns_shifted_lanes() {
        // Lane 0 does 3 computes then a load; lane 1 does 1 compute then
        // a load. Without markers the loads land on different steps (2
        // separate requests); with a marker before the load they align
        // into one coalesced request.
        let unaligned = vec![
            trace_of(&[Op::Compute(3), Op::GLoad(0)]),
            trace_of(&[Op::Compute(1), Op::GLoad(4)]),
        ];
        let (_, c) = replay(&unaligned);
        assert_eq!(c.global_load_requests, 2);

        let aligned = vec![
            trace_of(&[Op::Compute(3), Op::Converge, Op::GLoad(0)]),
            trace_of(&[Op::Compute(1), Op::Converge, Op::GLoad(4)]),
        ];
        let (_, c) = replay(&aligned);
        assert_eq!(c.global_load_requests, 1);
        assert_eq!(c.gld_transactions, 1, "aligned loads share a sector");
    }

    #[test]
    fn converge_with_exhausted_lanes_does_not_deadlock() {
        let traces = vec![
            trace_of(&[Op::Compute(1), Op::Converge, Op::Compute(1)]),
            trace_of(&[Op::Compute(1)]), // finishes before the marker
            LaneTrace::default(),        // never does anything
        ];
        let (_, c) = replay(&traces);
        assert_eq!(c.compute_slots, 2);
    }

    #[test]
    fn trailing_converge_is_free() {
        let traces = vec![trace_of(&[Op::Converge]), trace_of(&[Op::Converge])];
        let (cycles, c) = replay(&traces);
        assert_eq!(cycles, 0);
        assert_eq!(c.issued_slots, 0);
    }

    #[test]
    fn empty_traces_are_free() {
        let traces = vec![LaneTrace::default(); 32];
        let (cycles, c) = replay(&traces);
        assert_eq!(cycles, 0);
        assert_eq!(c.issued_slots, 0);
    }

    /// Reference replayer: expand every `Compute(n)` into `n` unit runs,
    /// defeating the batch path (each step's `min_run` is 1). The
    /// batched replay must be bit-identical against it.
    fn replay_unbatched(traces: &[LaneTrace]) -> (u64, ProfileCounters) {
        let expanded: Vec<LaneTrace> = traces
            .iter()
            .map(|t| {
                let mut ops = Vec::new();
                for &op in &t.ops {
                    match op.unpack() {
                        Op::Compute(n) => {
                            ops.extend(std::iter::repeat_n(Op::Compute(1), n as usize))
                        }
                        other => ops.push(other),
                    }
                }
                LaneTrace::from_ops(&ops)
            })
            .collect();
        replay(&expanded)
    }

    #[test]
    fn compute_after_memory_op_is_counted_not_swallowed() {
        // Regression: a lane whose memory op issues in a step advances
        // onto its next op *during* the gather pass. The compute-consume
        // pass must not re-read that lane's head, or the fresh Compute
        // run is consumed without ever being counted — undercounting
        // active_thread_slots/compute_slots on every load->compute
        // transition (ubiquitous in merge loops).
        let traces = [
            trace_of(&[Op::Compute(1)]),
            trace_of(&[Op::GLoad(652), Op::Compute(1)]),
        ];
        let (_, c) = replay(&traces);
        // Step 1: lane 1's load (1 slot) + lane 0's compute (1 slot).
        // Step 2: lane 1's compute alone (1 slot).
        assert_eq!(c.active_thread_slots, 3);
        assert_eq!(c.compute_slots, 2);
        assert_eq!(c.issued_slots, 3);
        assert_eq!(c.global_load_requests, 1);
    }

    #[test]
    fn batched_compute_replay_is_bit_identical_to_stepping() {
        // A divergent mix: unequal runs, loads interleaved mid-run,
        // converge markers, an exhausted lane and an atomic.
        let cases: Vec<Vec<LaneTrace>> = vec![
            vec![trace_of(&[Op::Compute(7)]), trace_of(&[Op::Compute(3)])],
            vec![
                trace_of(&[Op::Compute(5), Op::GLoad(0), Op::Compute(2)]),
                trace_of(&[Op::Compute(2), Op::GLoad(64), Op::Compute(9)]),
                trace_of(&[Op::GStore(128), Op::Compute(4)]),
            ],
            vec![
                trace_of(&[Op::Compute(6), Op::Converge, Op::Compute(1)]),
                trace_of(&[Op::Compute(2), Op::Converge, Op::Compute(8)]),
                LaneTrace::default(),
            ],
            vec![
                trace_of(&[Op::Compute(3), Op::GAtomic(0), Op::SLoad(1), Op::Compute(2)]),
                trace_of(&[Op::Compute(1), Op::SStore(33), Op::Compute(5)]),
                trace_of(&[Op::Compute(4), Op::SAtomic(1)]),
            ],
        ];
        for traces in cases {
            let batched = replay(&traces);
            let stepped = replay_unbatched(&traces);
            assert_eq!(batched.0, stepped.0, "cycles diverged");
            assert_eq!(batched.1, stepped.1, "counters diverged");
        }
    }

    #[test]
    fn scratch_reuse_across_replays_is_clean() {
        // Replay two very different warps through one scratch; the second
        // must not see any state from the first.
        let mut step = Default::default();
        let first = vec![trace_of(&[Op::Compute(9), Op::GLoad(0)]); 32];
        let _ = replay_warp(&first, &mut step, None);
        let second = vec![trace_of(&[Op::Compute(1)])];
        let one_compute = ProfileCounters {
            issued_slots: 1,
            active_thread_slots: 1,
            compute_slots: 1,
            ..Default::default()
        };
        assert_eq!(replay_warp(&second, &mut step, None), one_compute);
    }
}

#[cfg(test)]
mod replay_microbench {
    use super::*;
    use crate::trace::LaneTrace;

    /// Replays `traces` `reps` times and prints ns per slot and per warp.
    fn time_replay(shape: &str, traces: &[LaneTrace], reps: u32) {
        let cost = CostModel::v100();
        let mut step = Default::default();
        let t0 = std::time::Instant::now();
        let mut acc = 0u64;
        for _ in 0..reps {
            let c = replay_warp(traces, &mut step, None);
            acc = acc
                .wrapping_add(cost.cycles(&c))
                .wrapping_add(c.active_thread_slots);
        }
        let dt = t0.elapsed();
        let c1 = replay_warp(traces, &mut step, None);
        let steps = c1.issued_slots;
        println!(
            "replay {shape}: {reps} reps x {} ops ({} issued slots) in {:?} -> {:.1} ns/slot, {:.0} ns/warp (acc {acc})",
            traces.iter().map(|t| t.ops.len()).sum::<usize>(),
            steps,
            dt,
            dt.as_nanos() as f64 / (reps as f64 * steps as f64),
            dt.as_nanos() as f64 / reps as f64,
        );
    }

    /// Not a correctness test: a timing probe for the replay hot loop.
    /// Run with `cargo test --release -p gpu-sim microbench -- --nocapture --ignored`.
    #[test]
    #[ignore]
    fn microbench_replay_polak_shape() {
        // Polak-like warp: 32 lanes alternating compute/scattered-load,
        // with a divergent tail on lane 0.
        let mut traces: Vec<LaneTrace> = Vec::new();
        for lane in 0..32u64 {
            let mut t = LaneTrace::default();
            let steps = 40 + (lane % 7) * 10 + if lane == 0 { 120 } else { 0 };
            for k in 0..steps {
                t.push_compute(1);
                t.push(Op::GLoad((lane * 2_654_435_761 + k * 4096) & 0xfff_ffff));
                if k % 3 == 0 {
                    t.push(Op::GLoadHit(((lane * 97 + k) * 4) & 0xfff));
                }
            }
            traces.push(t);
        }
        time_replay("polak", &traces, 20_000);
    }

    /// Retire-heavy warps, where lane retirement is most of the work: 32
    /// lanes that each issue one load and retire on the first step, and a
    /// staircase where lane `k` runs `k + 1` compute/load pairs, so one
    /// lane retires on every other step.
    #[test]
    #[ignore]
    fn microbench_replay_retire_shape() {
        let one_op: Vec<LaneTrace> = (0..32u64)
            .map(|lane| LaneTrace::from_ops(&[Op::GLoad(lane * 4)]))
            .collect();
        time_replay("one op per lane", &one_op, 500_000);
        let staircase: Vec<LaneTrace> = (0..32u64)
            .map(|lane| {
                let mut t = LaneTrace::default();
                for k in 0..=lane {
                    t.push_compute(1);
                    t.push(Op::GLoad((lane * 128 + k * 4) & 0xffff));
                }
                t
            })
            .collect();
        time_replay("staircase", &staircase, 50_000);
    }
}
