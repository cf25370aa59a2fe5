//! SimLint: barrier-divergence verification plus kernel performance
//! lints, in the GPUVerify / profiler-rules tradition, adapted to the
//! lockstep phase model.
//!
//! Two halves share this module:
//!
//! * **Barrier-divergence verifier** ([`BarrierLint`]) — the one kernel
//!   bug class that *hangs* real GPUs and that neither the race
//!   detector nor SimSan can see. Kernels mark explicit barrier
//!   arrivals with [`LaneCtx::sync_threads`](crate::LaneCtx::sync_threads)
//!   and early exits with [`LaneCtx::retire`](crate::LaneCtx::retire);
//!   at every phase end the verifier checks that all live (non-retired)
//!   lanes of the block agree on how many barriers they reached. A lane
//!   that retires — or simply branches around a `sync_threads` its
//!   siblings execute — while the rest of the block waits is exactly
//!   the deadlock shape `__syncthreads` under divergence produces, so
//!   the rule is **fatal**: the block is poisoned with
//!   [`SimError::BarrierDivergence`], analogous to
//!   [`SimError::DataRace`](crate::SimError::DataRace).
//! * **Performance lints** ([`LintObserver`]) — advisory findings read
//!   off the replay: the paper's profiler metrics taken per barrier
//!   phase. Uncoalesced global access and low-occupancy phases are
//!   thresholds on each phase's [`ProfileCounters`]
//!   (`gld_transactions_per_request()`, `gst_transactions_per_request()`,
//!   `warp_execution_efficiency()`). Shared-memory bank conflicts and
//!   atomic contention are thresholds on the phase's worst slot of each
//!   kind, which the observer keeps as a witness together with the
//!   conflict-way histogram (the same bank model `cost.rs` charges
//!   for). These never fail a launch — they are the paper's "why this
//!   kernel loses" profiler narrative turned into structured, pinned
//!   diagnostics — and surface as a [`LintReport`] attached to
//!   [`LaunchStats`](crate::LaunchStats).
//!
//! Both halves run per block in one owner, `check::BlockChecker`. Like
//! the race detector and SimSan, SimLint is off by default (enabled per
//! device by [`Device::with_lints`](crate::Device::with_lints)) and is
//! zero-perturbation: the observer only *reads* values the replay
//! already computed, so counters and cycles are byte-identical lints-on
//! vs lints-off.

use std::fmt;

use crate::counters::ProfileCounters;
use crate::error::SimError;
use crate::exec::Slot;
use crate::mem::DeviceMem;
use crate::WARP_SIZE;

// ---------------------------------------------------------------------
// Shared source-location vocabulary
// ---------------------------------------------------------------------

/// The one source-location representation every diagnostic engine in the
/// simulator (race detector, SimSan, SimLint) renders its `pc_hint`
/// through. A closure-kernel model has no program counters, so the most
/// precise stable location the stack can name is "which barrier phase,
/// which memory site" — previously three ad-hoc `format!` copies, now a
/// single display type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SourceLoc<'a> {
    /// A phase with no specific memory site (barrier / occupancy
    /// diagnostics).
    Phase { phase: u64 },
    /// A shared-memory word.
    Shared { phase: u64, idx: usize },
    /// A word of a named global buffer.
    Global {
        phase: u64,
        buffer: &'a str,
        idx: usize,
    },
    /// A raw global byte address no live buffer claims.
    GlobalAddr { phase: u64, addr: u64 },
}

impl fmt::Display for SourceLoc<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SourceLoc::Phase { phase } => write!(f, "phase {phase}"),
            SourceLoc::Shared { phase, idx } => write!(f, "phase {phase}, shared[{idx}]"),
            SourceLoc::Global { phase, buffer, idx } => {
                write!(f, "phase {phase}, `{buffer}`[{idx}]")
            }
            SourceLoc::GlobalAddr { phase, addr } => {
                write!(f, "phase {phase}, global address {addr:#x}")
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rules, diagnostics, report
// ---------------------------------------------------------------------

/// The closed rule vocabulary of SimLint. `BarrierDivergence` is fatal
/// (a correctness bug that deadlocks real hardware); everything else is
/// advisory (a performance finding that explains cycles, not results).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintRule {
    /// Live lanes of a block disagree on reaching an explicit barrier.
    BarrierDivergence,
    /// Sustained global transactions/request above the rule threshold.
    UncoalescedGlobal,
    /// A shared-memory access pattern serializing across banks.
    BankConflict,
    /// Deep same-address atomic serialization within single warps.
    AtomicContention,
    /// A phase issuing many slots with few active threads per slot.
    LowOccupancy,
}

impl LintRule {
    /// Stable kebab-case name, used in reports and `LINT_sim.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            LintRule::BarrierDivergence => "barrier-divergence",
            LintRule::UncoalescedGlobal => "uncoalesced-global",
            LintRule::BankConflict => "bank-conflict",
            LintRule::AtomicContention => "atomic-contention",
            LintRule::LowOccupancy => "low-occupancy",
        }
    }

    /// Whether a finding of this rule poisons the launch (vs. riding
    /// along as an advisory entry of the [`LintReport`]).
    pub fn is_fatal(self) -> bool {
        matches!(self, LintRule::BarrierDivergence)
    }

    /// Every rule, in report order.
    pub const ALL: [LintRule; 5] = [
        LintRule::BarrierDivergence,
        LintRule::UncoalescedGlobal,
        LintRule::BankConflict,
        LintRule::AtomicContention,
        LintRule::LowOccupancy,
    ];
}

impl fmt::Display for LintRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diag {
    pub rule: LintRule,
    /// Block that triggered a fatal rule; `None` for launch-aggregated
    /// performance lints.
    pub block: Option<u32>,
    /// Witness lane pair (agreeing lane, diverging lane) for barrier
    /// diagnostics.
    pub lanes: Option<(u32, u32)>,
    /// Where: the shared `SourceLoc` rendering (`` phase N, `buf`[i] ``).
    pub pc_hint: String,
    /// What: a human-readable, deterministic one-liner.
    pub detail: String,
}

impl Diag {
    fn sort_key(&self) -> (LintRule, &str, &str, Option<u32>) {
        (self.rule, &self.pc_hint, &self.detail, self.block)
    }
}

impl fmt::Display for Diag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {} ({})", self.rule, self.detail, self.pc_hint)
    }
}

/// The advisory findings of one launch (attached to
/// [`LaunchStats`](crate::LaunchStats) when lints are enabled), in
/// stable order: rule, then `pc_hint`, then detail.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintReport {
    pub diags: Vec<Diag>,
}

impl LintReport {
    pub fn is_clean(&self) -> bool {
        self.diags.is_empty()
    }

    /// Number of findings for one rule.
    pub fn count(&self, rule: LintRule) -> usize {
        self.diags.iter().filter(|d| d.rule == rule).count()
    }

    /// Fold another launch's report in (multi-launch algorithms
    /// accumulate `LaunchStats` with `+=`); identical findings from
    /// repeated launches collapse to one entry.
    pub fn merge(&mut self, other: LintReport) {
        self.diags.extend(other.diags);
        self.normalize();
    }

    fn normalize(&mut self) {
        self.diags.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        self.diags.dedup();
    }
}

// Rule thresholds, tuned to the simulator's own cost model: a perfectly
// coalesced 32-lane word load touches 4 sectors per request, so the
// uncoalesced bar sits at 8 (2× worse than ideal); bank-conflict and
// atomic-serialization bars sit at 8-way (a quarter of the worst case,
// where the slot cost is already dominated by the serialization term);
// the occupancy bar mirrors the paper's warp-execution-efficiency
// narrative.

/// Flag a phase's global loads/stores when the *average*
/// transactions/request reaches this (and the request floor is met).
const UNCOALESCED_TRANSACTIONS_PER_REQUEST: f64 = 8.0;
/// Minimum requests in a phase before the uncoalesced rule applies — a
/// handful of scattered setup loads is not a pattern.
const UNCOALESCED_MIN_REQUESTS: u64 = 16;
/// Flag when some shared-memory slot serializes this many ways.
const BANK_CONFLICT_WAYS: u64 = 8;
/// Flag when some atomic slot serializes this deep on one address.
const ATOMIC_CONTENTION_DEPTH: u64 = 8;
/// Flag a phase whose warp execution efficiency is below this.
const LOW_OCCUPANCY_EFFICIENCY: f64 = 0.25;
/// Minimum issued slots in a phase before the occupancy rule applies.
const LOW_OCCUPANCY_MIN_SLOTS: u64 = 256;

// ---------------------------------------------------------------------
// Barrier-divergence verifier (record side, per block)
// ---------------------------------------------------------------------

/// Per-block barrier bookkeeping, GPUVerify-style adapted to lockstep:
/// instead of a two-thread abstraction over symbolic barriers, the
/// sequential phase model lets us count *concrete* barrier arrivals per
/// lane and compare them at the phase end, where real hardware would
/// either reconverge or hang.
#[derive(Default)]
pub(crate) struct BarrierLint {
    /// Barrier arrivals per lane in the current phase.
    arrivals: Vec<u32>,
    /// Phase in which each lane retired (0 = still live). A lane retired
    /// in an *earlier* phase legitimately skips later barriers; a lane
    /// retiring *this* phase must have matched its siblings' arrivals
    /// first.
    retired_at: Vec<u64>,
    pub(crate) checks: u64,
}

impl BarrierLint {
    #[cfg(test)]
    fn new(block_dim: u32) -> Self {
        let mut t = BarrierLint::default();
        t.reset(block_dim);
        t
    }

    /// Start a new block: no arrivals, no retirements. The per-lane
    /// tables keep their capacity across the blocks of a worker.
    pub(crate) fn reset(&mut self, block_dim: u32) {
        self.arrivals.clear();
        self.arrivals.resize(block_dim as usize, 0);
        self.retired_at.clear();
        self.retired_at.resize(block_dim as usize, 0);
        self.checks = 0;
    }

    pub(crate) fn arrive(&mut self, tid: u32) {
        self.checks += 1;
        self.arrivals[tid as usize] += 1;
    }

    /// Lane `tid` exits the kernel in (1-based) phase `phase`.
    pub(crate) fn retire(&mut self, tid: u32, phase: u64) {
        let slot = &mut self.retired_at[tid as usize];
        if *slot == 0 {
            *slot = phase;
        }
    }

    /// Close phase `phase`: all lanes that ran it must agree on barrier
    /// arrivals (a lane retiring this phase may only stop *after* the
    /// last barrier its siblings reached). Returns the fatal error on
    /// divergence.
    pub(crate) fn end_phase(&mut self, block: u32, phase: u64) -> Option<SimError> {
        self.checks += 1;
        let ran = |retired_at: u64| retired_at == 0 || retired_at == phase;
        let mut max = 0u32;
        let mut witness = 0u32;
        for (i, (&n, &r)) in self.arrivals.iter().zip(&self.retired_at).enumerate() {
            if ran(r) && n > max {
                max = n;
                witness = i as u32;
            }
        }
        let mut err = None;
        if max > 0 {
            for (i, (&n, &r)) in self.arrivals.iter().zip(&self.retired_at).enumerate() {
                if !ran(r) {
                    continue;
                }
                let retired_now = r == phase;
                let diverged = if retired_now { n < max } else { n != max };
                if diverged {
                    let lane = i as u32;
                    let verb = if retired_now {
                        "retired after"
                    } else {
                        "reached only"
                    };
                    err = Some(SimError::BarrierDivergence(Diag {
                        rule: LintRule::BarrierDivergence,
                        block: Some(block),
                        lanes: Some((witness, lane)),
                        pc_hint: SourceLoc::Phase { phase }.to_string(),
                        detail: format!(
                            "lane {lane} {verb} {n} of the {max} barrier arrival(s) \
                             lane {witness} reached — siblings wait at the barrier forever"
                        ),
                    }));
                    break;
                }
            }
        }
        for a in &mut self.arrivals {
            *a = 0;
        }
        err
    }
}

// ---------------------------------------------------------------------
// Performance-lint observer (replay side, per block, merged per launch)
// ---------------------------------------------------------------------

/// The slot kinds a witness is kept for, as indices into
/// [`PhaseObs::worst`]. Shared loads and stores share one witness: both
/// are measured in bank-conflict ways.
const GLD: usize = 0;
const GST: usize = 1;
const GATOM: usize = 2;
const SHARED: usize = 3;
const SATOM: usize = 4;

/// The worst single slot of one kind: its serialization measure
/// (sectors per load/store slot, conflict ways per shared slot,
/// collision depth per atomic slot), a representative address of that
/// slot for attribution in the report, and the block that supplied it.
#[derive(Debug, Clone, Copy, Default)]
struct Witness {
    worst: u64,
    site: u64,
    /// Set by [`Witness::fold`]; meaningless while `worst` is 0.
    block: u32,
}

impl Witness {
    #[inline]
    fn see(&mut self, value: u64, site: u64) {
        if value > self.worst {
            self.worst = value;
            self.site = site;
        }
    }

    /// Keep the larger witness; a tie goes to the lower block index, so
    /// any fold order yields the same witness.
    fn fold(&mut self, o: &Witness, block: u32) {
        if o.worst > self.worst || (o.worst == self.worst && o.worst > 0 && block < self.block) {
            *self = Witness { block, ..*o };
        }
    }
}

/// One phase: the replay's own [`ProfileCounters`] for it, plus what
/// the counters cannot give.
#[derive(Debug, Clone, Default)]
struct PhaseObs {
    counters: ProfileCounters,
    worst: [Witness; 5],
    /// Conflict-way histogram over the phase's shared slots
    /// (`bank_hist[w - 1]` = slots that serialized w ways), same bank
    /// model the cost charges.
    bank_hist: [u64; WARP_SIZE],
}

impl PhaseObs {
    fn fold(&mut self, o: &PhaseObs, block: u32) {
        self.counters += o.counters;
        for (w, ow) in self.worst.iter_mut().zip(&o.worst) {
            w.fold(ow, block);
        }
        for (h, &oh) in self.bank_hist.iter_mut().zip(&o.bank_hist) {
            *h += oh;
        }
    }
}

/// The replay-side collector, in two roles. Each block's checker
/// (`check::BlockChecker`, next to the barrier verifier) owns one
/// per-block observer: `WarpTally::charge` shows it every slot it
/// charges, and `BlockCtx`'s barrier hands it each phase's counters. As
/// each block finishes, the checker folds it into the one launch-level
/// accumulator `Device::launch` owns, which is rendered into a
/// [`LintReport`] once the grid is done. Live observations are
/// therefore O(workers × phases), not O(blocks × phases).
///
/// Observation is read-only over values the replay already computed
/// (the slot's measures, the phase's counters): the zero-perturbation
/// guarantee is structural, not aspirational.
#[derive(Default)]
pub(crate) struct LintObserver {
    /// The phase being replayed; pushed onto `phases` at its barrier.
    cur: PhaseObs,
    phases: Vec<PhaseObs>,
}

impl LintObserver {
    /// Start a new block: no phases observed. The phase table keeps its
    /// capacity across the blocks of a worker.
    pub(crate) fn reset(&mut self) {
        self.cur = PhaseObs::default();
        self.phases.clear();
    }

    /// One charged slot; `site` is its representative address (see
    /// `WarpTally::charge`). Compute slots carry nothing to witness.
    #[inline]
    pub(crate) fn observe(&mut self, slot: Slot, site: u64) {
        let p = &mut self.cur;
        let (kind, value) = match slot {
            Slot::Compute(_) => return,
            Slot::GLoad(sectors, _) => (GLD, sectors),
            Slot::GStore(sectors) => (GST, sectors),
            Slot::GAtomic(depth, _) => (GATOM, depth),
            Slot::SLoad(ways) | Slot::SStore(ways) => {
                p.bank_hist[(ways as usize).clamp(1, WARP_SIZE) - 1] += 1;
                (SHARED, ways)
            }
            Slot::SAtomic(depth) => (SATOM, depth),
        };
        p.worst[kind].see(value, site);
    }

    /// Close the phase the replay charged `counters` to.
    pub(crate) fn end_phase(&mut self, counters: &ProfileCounters) {
        self.cur.counters = *counters;
        self.phases.push(std::mem::take(&mut self.cur));
    }

    /// Fold block `block`'s observations in, phase-wise. Counters and
    /// histograms are commutative sums and witnesses break ties toward
    /// the lowest block index, so blocks may arrive in any order (as
    /// rayon finishes them) and the merged observations — and the
    /// report built from them — are identical.
    pub(crate) fn fold(&mut self, other: &LintObserver, block: u32) {
        if self.phases.len() < other.phases.len() {
            self.phases
                .resize_with(other.phases.len(), PhaseObs::default);
        }
        for (p, o) in self.phases.iter_mut().zip(&other.phases) {
            p.fold(o, block);
        }
    }
}

/// Render the merged observations into the launch's [`LintReport`]:
/// each rule reads the paper's metric off one phase's counters and
/// names the phase's witness slot, resolving representative addresses
/// to buffer names through the live allocation table.
pub(crate) fn build_report(obs: &LintObserver, mem: &DeviceMem) -> LintReport {
    let mut diags = Vec::new();
    let mut push = |rule, pc_hint, detail| {
        diags.push(Diag {
            rule,
            block: None,
            lanes: None,
            pc_hint,
            detail,
        })
    };
    for (i, p) in obs.phases.iter().enumerate() {
        let phase = (i + 1) as u64;
        let c = &p.counters;
        for (requests, tpr, w, what) in [
            (
                c.global_load_requests,
                c.gld_transactions_per_request(),
                &p.worst[GLD],
                "load",
            ),
            (
                c.global_store_requests,
                c.gst_transactions_per_request(),
                &p.worst[GST],
                "store",
            ),
        ] {
            if requests >= UNCOALESCED_MIN_REQUESTS && tpr >= UNCOALESCED_TRANSACTIONS_PER_REQUEST {
                push(
                    LintRule::UncoalescedGlobal,
                    global_site(mem, phase, w.site),
                    format!(
                        "global {what}s average {tpr:.1} transactions/request over {requests} \
                         requests (worst slot touched {} sectors)",
                        w.worst
                    ),
                );
            }
        }
        let shared = &p.worst[SHARED];
        if shared.worst >= BANK_CONFLICT_WAYS {
            push(
                LintRule::BankConflict,
                shared_site(phase, shared.site),
                format!(
                    "shared-memory slots serialize up to {}-way across banks; \
                     conflict-way histogram: {}",
                    shared.worst,
                    render_hist(&p.bank_hist)
                ),
            );
        }
        for (requests, w, space) in [
            (c.global_atomic_requests, &p.worst[GATOM], "global"),
            (c.shared_atomic_requests, &p.worst[SATOM], "shared"),
        ] {
            if w.worst >= ATOMIC_CONTENTION_DEPTH {
                let pc_hint = if space == "shared" {
                    shared_site(phase, w.site)
                } else {
                    global_site(mem, phase, w.site)
                };
                push(
                    LintRule::AtomicContention,
                    pc_hint,
                    format!(
                        "{space} atomics serialize up to {}-deep on a single address \
                         ({requests} requests)",
                        w.worst
                    ),
                );
            }
        }
        let eff = c.warp_execution_efficiency();
        if c.issued_slots >= LOW_OCCUPANCY_MIN_SLOTS && eff < LOW_OCCUPANCY_EFFICIENCY {
            push(
                LintRule::LowOccupancy,
                SourceLoc::Phase { phase }.to_string(),
                format!(
                    "warp execution efficiency {eff:.2} ({} active thread-slots \
                     over {} issued slots)",
                    c.active_thread_slots, c.issued_slots
                ),
            );
        }
    }
    let mut report = LintReport { diags };
    report.normalize();
    report
}

fn shared_site(phase: u64, idx: u64) -> String {
    SourceLoc::Shared {
        phase,
        idx: idx as usize,
    }
    .to_string()
}

fn global_site(mem: &DeviceMem, phase: u64, addr: u64) -> String {
    match mem.locate(addr) {
        Some((buffer, idx)) => SourceLoc::Global { phase, buffer, idx }.to_string(),
        None => SourceLoc::GlobalAddr { phase, addr }.to_string(),
    }
}

/// "2-way ×5, 8-way ×1" — non-zero histogram entries, ascending ways.
fn render_hist(hist: &[u64]) -> String {
    let mut out = String::new();
    for (i, &n) in hist.iter().enumerate() {
        if n > 0 {
            if !out.is_empty() {
                out.push_str(", ");
            }
            out.push_str(&format!("{}-way x{n}", i + 1));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_loc_rendering_matches_the_historic_formats() {
        // The race detector and SimSan rendered these exact strings
        // before the vocabulary was unified; diagnostics must not drift.
        assert_eq!(
            SourceLoc::Shared { phase: 2, idx: 7 }.to_string(),
            "phase 2, shared[7]"
        );
        assert_eq!(
            SourceLoc::Global {
                phase: 3,
                buffer: "row_ptr",
                idx: 41
            }
            .to_string(),
            "phase 3, `row_ptr`[41]"
        );
        assert_eq!(SourceLoc::Phase { phase: 1 }.to_string(), "phase 1");
        assert_eq!(
            SourceLoc::GlobalAddr {
                phase: 1,
                addr: 0x100
            }
            .to_string(),
            "phase 1, global address 0x100"
        );
    }

    #[test]
    fn rule_names_are_kebab_case_and_closed() {
        let names: Vec<&str> = LintRule::ALL.iter().map(|r| r.as_str()).collect();
        assert_eq!(
            names,
            [
                "barrier-divergence",
                "uncoalesced-global",
                "bank-conflict",
                "atomic-contention",
                "low-occupancy"
            ]
        );
        assert!(LintRule::BarrierDivergence.is_fatal());
        assert!(LintRule::ALL.iter().skip(1).all(|r| !r.is_fatal()));
    }

    #[test]
    fn barrier_lint_accepts_uniform_arrivals_and_clean_early_retire() {
        let mut t = BarrierLint::new(4);
        for tid in 0..4 {
            t.arrive(tid);
        }
        assert!(t.end_phase(0, 1).is_none());
        // Next phase: everyone arrives once, lane 3 retires afterwards.
        for tid in 0..4 {
            t.arrive(tid);
        }
        t.retire(3, 2);
        assert!(t.end_phase(0, 2).is_none());
        // Lane 3 is gone: the remaining three lanes agree among
        // themselves.
        for tid in 0..3 {
            t.arrive(tid);
        }
        assert!(t.end_phase(0, 3).is_none());
        assert!(t.checks > 0);
    }

    #[test]
    fn barrier_lint_flags_a_lane_that_skips_a_barrier() {
        let mut t = BarrierLint::new(3);
        t.arrive(0);
        t.arrive(1);
        // Lane 2 never arrives.
        match t.end_phase(7, 1) {
            Some(SimError::BarrierDivergence(d)) => {
                assert_eq!(d.rule, LintRule::BarrierDivergence);
                assert_eq!(d.block, Some(7));
                assert_eq!(d.lanes, Some((0, 2)));
                assert_eq!(d.pc_hint, "phase 1");
                assert!(d.detail.contains("lane 2"), "detail: {}", d.detail);
            }
            other => panic!("expected BarrierDivergence, got {other:?}"),
        }
    }

    #[test]
    fn barrier_lint_flags_a_retire_while_siblings_wait() {
        let mut t = BarrierLint::new(2);
        // Phase 1 is clean so lane 1 is still live in phase 2.
        assert!(t.end_phase(0, 1).is_none());
        t.arrive(0);
        t.arrive(0); // lane 0 hits two barriers
        t.arrive(1);
        t.retire(1, 2); // lane 1 bails between them
        match t.end_phase(0, 2) {
            Some(SimError::BarrierDivergence(d)) => {
                assert_eq!(d.lanes, Some((0, 1)));
                assert!(d.detail.contains("retired after 1"), "{}", d.detail);
                assert_eq!(d.pc_hint, "phase 2");
            }
            other => panic!("expected BarrierDivergence, got {other:?}"),
        }
    }

    #[test]
    fn barrier_lint_ignores_lanes_retired_in_earlier_phases() {
        let mut t = BarrierLint::new(2);
        t.arrive(0);
        t.arrive(1);
        t.retire(1, 1);
        assert!(t.end_phase(0, 1).is_none());
        // Phase 2: only lane 0 runs; its solo arrivals are consistent.
        t.arrive(0);
        assert!(t.end_phase(0, 2).is_none());
    }

    fn mem_with(buf_words: usize) -> DeviceMem {
        let dev = crate::Device::v100();
        let mut mem = DeviceMem::new(&dev);
        mem.alloc_zeroed(buf_words, "probe").unwrap();
        mem
    }

    /// One phase of `n` full-warp load slots, each touching `sectors`
    /// sectors at `site`.
    fn load_phase(n: u64, sectors: u64, site: u64) -> LintObserver {
        let mut obs = LintObserver::default();
        for _ in 0..n {
            obs.observe(Slot::GLoad(sectors, sectors), site);
        }
        obs.end_phase(&ProfileCounters {
            global_load_requests: n,
            gld_transactions: n * sectors,
            issued_slots: n,
            active_thread_slots: n * 32,
            ..Default::default()
        });
        obs
    }

    #[test]
    fn report_flags_uncoalesced_loads_past_the_threshold_and_request_floor() {
        let mem = mem_with(64);
        // 16 perfectly coalesced slots (4 sectors each): clean.
        assert!(build_report(&load_phase(16, 4, 16), &mem).is_clean());
        // Worst-possible coalescing, but only 3 requests: not a pattern.
        assert!(build_report(&load_phase(3, 32, 0), &mem).is_clean());
        // 16 fully scattered slots (32 sectors each): flagged, with the
        // worst slot's address resolved to the owning buffer.
        let report = build_report(&load_phase(16, 32, 20), &mem);
        assert_eq!(report.count(LintRule::UncoalescedGlobal), 1);
        let d = &report.diags[0];
        assert!(
            d.detail.contains("32.0 transactions/request"),
            "{}",
            d.detail
        );
        assert!(d.pc_hint.contains("`probe`"), "{}", d.pc_hint);
    }

    #[test]
    fn report_names_each_witness_and_the_bank_histogram() {
        let mem = mem_with(16);
        let mut obs = LintObserver::default();
        obs.observe(Slot::SLoad(1), 0);
        obs.observe(Slot::SStore(32), 5);
        obs.observe(Slot::GAtomic(32, 1), 8);
        obs.observe(Slot::SAtomic(9), 3);
        obs.observe(Slot::Compute(7), 0);
        obs.end_phase(&ProfileCounters {
            shared_load_requests: 1,
            shared_store_requests: 1,
            global_atomic_requests: 1,
            shared_atomic_requests: 1,
            compute_slots: 7,
            issued_slots: 11,
            active_thread_slots: 11 * 32,
            ..Default::default()
        });
        let report = build_report(&obs, &mem);
        assert_eq!(report.count(LintRule::BankConflict), 1);
        assert_eq!(report.count(LintRule::AtomicContention), 2);
        let bank = &report.diags[0];
        assert_eq!(bank.pc_hint, "phase 1, shared[5]");
        assert!(
            bank.detail.contains("1-way x1, 32-way x1"),
            "histogram: {}",
            bank.detail
        );
        assert!(report.diags.iter().any(|d| d.pc_hint.contains("`probe`")));
        assert!(report.diags.iter().any(|d| d.pc_hint.contains("shared[3]")));
    }

    #[test]
    fn report_flags_low_occupancy_only_past_the_slot_floor() {
        let mem = mem_with(1);
        let occupancy = |issued, active| {
            let mut obs = LintObserver::default();
            obs.end_phase(&ProfileCounters {
                issued_slots: issued,
                active_thread_slots: active,
                ..Default::default()
            });
            build_report(&obs, &mem)
        };
        // 1000 slots at 2 active lanes each: efficiency 2/32 < 0.25.
        let report = occupancy(1000, 2000);
        assert_eq!(report.count(LintRule::LowOccupancy), 1);
        assert!(report.diags[0].detail.contains("0.06"));
        // Same shape under the floor: too small to call a phase.
        assert!(occupancy(100, 200).is_clean());
        // Busy and efficient: clean.
        assert!(occupancy(1000, 32_000).is_clean());
    }

    /// Block `b` of a synthetic launch: `1 + b % 3` phases, each with
    /// the same worst value on every kind at a block-specific address
    /// (odd blocks reach a deeper bank conflict), so only the
    /// lowest-block tie-break decides the witnesses.
    fn tied_block_observer(b: u32) -> LintObserver {
        let site = 256 * (b as u64 + 1);
        let mut obs = LintObserver::default();
        for _ in 0..1 + b % 3 {
            for _ in 0..8 {
                obs.observe(Slot::GLoad(16, 0), site);
                obs.observe(Slot::GStore(12), site + 4);
                obs.observe(Slot::GAtomic(9, 1), site + 8);
            }
            obs.observe(Slot::SLoad(8 + (b as u64 % 2) * 8), b as u64);
            obs.observe(Slot::SAtomic(10), b as u64 + 1);
            obs.end_phase(&ProfileCounters {
                global_load_requests: 8,
                gld_transactions: 8 * 16,
                global_store_requests: 8,
                gst_transactions: 8 * 12,
                global_atomic_requests: 8,
                shared_load_requests: 1,
                shared_atomic_requests: 1,
                issued_slots: 300,
                active_thread_slots: 300 + 100 * b as u64,
                ..Default::default()
            });
        }
        obs
    }

    #[test]
    fn fold_is_order_independent_with_lowest_block_witnesses() {
        let mem = mem_with(1024);
        let blocks: Vec<LintObserver> = (0..8).map(tied_block_observer).collect();
        let fold_in = |order: [u32; 8]| {
            let mut acc = LintObserver::default();
            for b in order {
                acc.fold(&blocks[b as usize], b);
            }
            build_report(&acc, &mem)
        };
        let report = fold_in([0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(report, fold_in([7, 6, 5, 4, 3, 2, 1, 0]));
        assert_eq!(report, fold_in([5, 2, 7, 0, 3, 6, 1, 4]));
        // Phase p runs blocks {b : b % 3 >= p - 1}; each witness is the
        // lowest such block with the phase's worst value.
        let mut expected = Vec::new();
        for (phase, lowest, lowest_odd) in [(1, 0, 1), (2, 1, 1), (3, 2, 5)] {
            let site = 256 * (lowest as u64 + 1);
            let shared = |idx| SourceLoc::Shared { phase, idx }.to_string();
            expected.extend([
                (LintRule::UncoalescedGlobal, global_site(&mem, phase, site)),
                (
                    LintRule::UncoalescedGlobal,
                    global_site(&mem, phase, site + 4),
                ),
                (LintRule::BankConflict, shared(lowest_odd)),
                (
                    LintRule::AtomicContention,
                    global_site(&mem, phase, site + 8),
                ),
                (LintRule::AtomicContention, shared(lowest + 1)),
                (
                    LintRule::LowOccupancy,
                    SourceLoc::Phase { phase }.to_string(),
                ),
            ]);
        }
        expected.sort();
        let mut got: Vec<(LintRule, String)> = report
            .diags
            .iter()
            .map(|d| (d.rule, d.pc_hint.clone()))
            .collect();
        got.sort();
        assert_eq!(got, expected);
        assert!(got[0].1.contains("`probe`"), "{}", got[0].1);
    }

    #[test]
    fn unresolvable_addresses_fall_back_to_raw_hex() {
        let dev = crate::Device::v100();
        let mem = DeviceMem::new(&dev);
        let report = build_report(&load_phase(16, 32, 0xdead_0000), &mem);
        assert!(
            report.diags[0]
                .pc_hint
                .contains("global address 0xdead0000"),
            "{}",
            report.diags[0].pc_hint
        );
    }

    #[test]
    fn report_merge_is_sorted_and_deduped() {
        let mk = |rule, hint: &str| Diag {
            rule,
            block: None,
            lanes: None,
            pc_hint: hint.to_string(),
            detail: "d".to_string(),
        };
        let mut a = LintReport {
            diags: vec![mk(LintRule::LowOccupancy, "phase 2")],
        };
        let b = LintReport {
            diags: vec![
                mk(LintRule::UncoalescedGlobal, "phase 1, `x`[0]"),
                mk(LintRule::LowOccupancy, "phase 2"),
            ],
        };
        a.merge(b);
        assert_eq!(a.diags.len(), 2);
        assert_eq!(a.diags[0].rule, LintRule::UncoalescedGlobal);
        assert_eq!(a.diags[1].rule, LintRule::LowOccupancy);
    }
}
