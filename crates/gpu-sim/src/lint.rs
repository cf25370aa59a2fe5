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
//! * **Performance lints** ([`LintObserver`]) — advisory findings fed
//!   by the fused replay stream: uncoalesced global access (sustained
//!   transactions/request above a rule threshold), shared-memory
//!   bank-conflict hotspots (per-phase conflict-way histogram using the
//!   same bank model `cost.rs` charges for), atomic contention
//!   (same-address serialization depth within a warp) and low-occupancy
//!   phases (active vs issued thread slots). These never fail a launch
//!   — they are the paper's "why this kernel loses" profiler narrative
//!   turned into structured, pinned diagnostics — and surface as a
//!   [`LintReport`] attached to
//!   [`LaunchStats`](crate::LaunchStats).
//!
//! Like the race detector and SimSan, SimLint is off by default
//! (enabled per device by [`Device::with_lints`](crate::Device::with_lints)) and is
//! zero-perturbation: observers only *read* values the replay already
//! computed, so counters and cycles are byte-identical lints-on vs
//! lints-off.

use std::fmt;

use crate::error::SimError;
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

/// Rule thresholds. The defaults are tuned to the simulator's own cost
/// model: a perfectly coalesced 32-lane word load touches 4 sectors per
/// request, so the uncoalesced bar sits at 8 (2× worse than ideal);
/// bank-conflict and atomic-serialization bars sit at 8-way (a quarter
/// of the worst case, where the slot cost is already dominated by the
/// serialization term); the occupancy bar mirrors the paper's
/// warp-execution-efficiency narrative.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LintConfig {
    /// Flag a phase's global loads/stores when the *average*
    /// transactions/request reaches this (and the request floor is met).
    pub uncoalesced_transactions_per_request: f64,
    /// Minimum requests in a phase before the uncoalesced rule applies —
    /// a handful of scattered setup loads is not a pattern.
    pub uncoalesced_min_requests: u64,
    /// Flag when some shared-memory slot serializes this many ways.
    pub bank_conflict_ways: u64,
    /// Flag when some atomic slot serializes this deep on one address.
    pub atomic_contention_depth: u64,
    /// Flag a phase whose warp execution efficiency is below this.
    pub low_occupancy_efficiency: f64,
    /// Minimum issued slots in a phase before the occupancy rule
    /// applies.
    pub low_occupancy_min_slots: u64,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            uncoalesced_transactions_per_request: 8.0,
            uncoalesced_min_requests: 16,
            bank_conflict_ways: 8,
            atomic_contention_depth: 8,
            low_occupancy_efficiency: 0.25,
            low_occupancy_min_slots: 256,
        }
    }
}

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
    /// 1-based phase counter, aligned with the race/SimSan phases (and
    /// with every `pc_hint` the simulator emits).
    phase: u64,
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

    /// Start a new block: phase 1, no arrivals, no retirements. The
    /// per-lane tables keep their capacity across the blocks of a worker.
    pub(crate) fn reset(&mut self, block_dim: u32) -> &mut Self {
        self.phase = 1;
        self.arrivals.clear();
        self.arrivals.resize(block_dim as usize, 0);
        self.retired_at.clear();
        self.retired_at.resize(block_dim as usize, 0);
        self.checks = 0;
        self
    }

    pub(crate) fn arrive(&mut self, tid: u32) {
        self.checks += 1;
        self.arrivals[tid as usize] += 1;
    }

    pub(crate) fn retire(&mut self, tid: u32) {
        let slot = &mut self.retired_at[tid as usize];
        if *slot == 0 {
            *slot = self.phase;
        }
    }

    /// Close the phase: all lanes that ran it must agree on barrier
    /// arrivals (a lane retiring this phase may only stop *after* the
    /// last barrier its siblings reached). Returns the fatal error on
    /// divergence.
    pub(crate) fn end_phase(&mut self, block: u32) -> Option<SimError> {
        self.checks += 1;
        let phase = self.phase;
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
        self.phase += 1;
        err
    }
}

// ---------------------------------------------------------------------
// Performance-lint observer (replay side, per block, merged per launch)
// ---------------------------------------------------------------------

/// Per-site aggregate: one entry per (phase, access kind). `units` is
/// the rule's serialization measure — sectors per load/store slot,
/// conflict ways per shared slot, collision depth per atomic slot.
#[derive(Debug, Clone, Copy, Default)]
struct SiteAgg {
    requests: u64,
    units: u64,
    /// Worst single-slot value, with a representative address of that
    /// slot for buffer attribution in the report.
    worst: u64,
    worst_site: u64,
    /// Block that supplied the `worst` witness (set by [`SiteAgg::fold`];
    /// meaningless while `worst` is 0).
    worst_block: u32,
}

impl SiteAgg {
    #[inline]
    fn record(&mut self, units: u64, site: u64) {
        self.requests += 1;
        self.units += units;
        if units > self.worst {
            self.worst = units;
            self.worst_site = site;
        }
    }

    /// Fold block `block`'s aggregate in. The sums commute, and the
    /// witness is the maximum of `(worst, lowest block index)`, so any
    /// fold order yields the same aggregate.
    fn fold(&mut self, o: &SiteAgg, block: u32) {
        self.requests += o.requests;
        self.units += o.units;
        if o.worst > self.worst
            || (o.worst == self.worst && o.worst > 0 && block < self.worst_block)
        {
            self.worst = o.worst;
            self.worst_site = o.worst_site;
            self.worst_block = block;
        }
    }
}

/// One phase's aggregates.
#[derive(Debug, Clone)]
struct PhaseAgg {
    gld: SiteAgg,
    gst: SiteAgg,
    gatom: SiteAgg,
    satom: SiteAgg,
    /// Shared loads+stores; `units`/`worst` carry bank-conflict ways.
    shared: SiteAgg,
    /// Conflict-way histogram over the phase's shared slots
    /// (`bank_hist[w]` = slots that serialized w ways), same bank model
    /// the cost charges.
    bank_hist: [u64; WARP_SIZE + 1],
    issued: u64,
    active: u64,
}

impl Default for PhaseAgg {
    fn default() -> Self {
        PhaseAgg {
            gld: SiteAgg::default(),
            gst: SiteAgg::default(),
            gatom: SiteAgg::default(),
            satom: SiteAgg::default(),
            shared: SiteAgg::default(),
            bank_hist: [0; WARP_SIZE + 1],
            issued: 0,
            active: 0,
        }
    }
}

impl PhaseAgg {
    fn fold(&mut self, o: &PhaseAgg, block: u32) {
        self.gld.fold(&o.gld, block);
        self.gst.fold(&o.gst, block);
        self.gatom.fold(&o.gatom, block);
        self.satom.fold(&o.satom, block);
        self.shared.fold(&o.shared, block);
        for (h, &oh) in self.bank_hist.iter_mut().zip(&o.bank_hist) {
            *h += oh;
        }
        self.issued += o.issued;
        self.active += o.active;
    }
}

/// The replay-side collector, in two roles. Each rayon worker keeps one
/// per-block observer in its `BlockScratch`, fed by the replay's slot
/// passes as each warp is replayed and [`reset`](Self::reset) between
/// blocks. As each block finishes, `run_block` folds it into the one
/// launch-level accumulator `Device::launch` owns, which is rendered
/// into a [`LintReport`] once the grid is done. Live aggregates are
/// therefore O(workers × phases), not O(blocks × phases).
///
/// Observation is read-only over values the replay already computed
/// (sector counts, conflict ways, collision depth, slot totals): the
/// zero-perturbation guarantee is structural, not aspirational.
#[derive(Default)]
pub(crate) struct LintObserver {
    /// 0-based index of the phase currently being replayed.
    cur: usize,
    phases: Vec<PhaseAgg>,
    last_issued: u64,
    last_active: u64,
    pub(crate) checks: u64,
}

impl LintObserver {
    /// Start a new block: no phases observed, running totals at zero.
    /// The phase table keeps its capacity across the blocks of a worker.
    pub(crate) fn reset(&mut self) -> &mut Self {
        self.cur = 0;
        self.phases.clear();
        self.last_issued = 0;
        self.last_active = 0;
        self.checks = 0;
        self
    }

    #[inline]
    fn cur_mut(&mut self) -> &mut PhaseAgg {
        while self.phases.len() <= self.cur {
            self.phases.push(PhaseAgg::default());
        }
        &mut self.phases[self.cur]
    }

    /// One global-load slot touching `transactions` distinct sectors;
    /// `site` is a representative byte address of the slot.
    #[inline]
    pub(crate) fn global_load(&mut self, transactions: u64, site: u64) {
        self.checks += 1;
        self.cur_mut().gld.record(transactions, site);
    }

    #[inline]
    pub(crate) fn global_store(&mut self, transactions: u64, site: u64) {
        self.checks += 1;
        self.cur_mut().gst.record(transactions, site);
    }

    /// One global-atomic slot with worst same-address depth `depth`.
    #[inline]
    pub(crate) fn global_atomic(&mut self, depth: u64, site: u64) {
        self.checks += 1;
        self.cur_mut().gatom.record(depth, site);
    }

    /// One shared load/store slot with `ways`-way bank serialization;
    /// `site` is a representative word index.
    #[inline]
    pub(crate) fn shared_access(&mut self, ways: u64, site: u64) {
        self.checks += 1;
        let p = self.cur_mut();
        p.shared.record(ways, site);
        p.bank_hist[(ways as usize).min(WARP_SIZE)] += 1;
    }

    #[inline]
    pub(crate) fn shared_atomic(&mut self, depth: u64, site: u64) {
        self.checks += 1;
        self.cur_mut().satom.record(depth, site);
    }

    /// Close the phase, attributing the slot-count delta since the last
    /// close (the sinks pass their running totals) to it.
    pub(crate) fn end_phase(&mut self, issued_total: u64, active_total: u64) {
        let di = issued_total - self.last_issued;
        let da = active_total - self.last_active;
        self.last_issued = issued_total;
        self.last_active = active_total;
        let p = self.cur_mut();
        p.issued += di;
        p.active += da;
        self.cur += 1;
    }

    /// Fold block `block`'s observations in, phase-wise. Every field is
    /// a commutative sum except the worst-slot witnesses, where a tie
    /// goes to the lowest block index; blocks may therefore arrive in
    /// any order (as rayon finishes them) and the merged aggregates —
    /// and the report built from them — are identical.
    pub(crate) fn fold(&mut self, other: &LintObserver, block: u32) {
        self.checks += other.checks;
        if self.phases.len() < other.phases.len() {
            self.phases
                .resize_with(other.phases.len(), PhaseAgg::default);
        }
        for (p, o) in self.phases.iter_mut().zip(&other.phases) {
            p.fold(o, block);
        }
    }
}

/// Render the merged observations into the launch's [`LintReport`],
/// resolving representative addresses to buffer names through the live
/// allocation table.
pub(crate) fn build_report(obs: &LintObserver, mem: &DeviceMem, cfg: &LintConfig) -> LintReport {
    let mut diags = Vec::new();
    for (i, p) in obs.phases.iter().enumerate() {
        let phase = (i + 1) as u64;
        for (agg, what) in [(&p.gld, "load"), (&p.gst, "store")] {
            if agg.requests >= cfg.uncoalesced_min_requests {
                let tpr = agg.units as f64 / agg.requests as f64;
                if tpr >= cfg.uncoalesced_transactions_per_request {
                    diags.push(Diag {
                        rule: LintRule::UncoalescedGlobal,
                        block: None,
                        lanes: None,
                        pc_hint: global_site(mem, phase, agg.worst_site),
                        detail: format!(
                            "global {what}s average {tpr:.1} transactions/request over {} \
                             requests (worst slot touched {} sectors)",
                            agg.requests, agg.worst
                        ),
                    });
                }
            }
        }
        if p.shared.worst >= cfg.bank_conflict_ways {
            diags.push(Diag {
                rule: LintRule::BankConflict,
                block: None,
                lanes: None,
                pc_hint: SourceLoc::Shared {
                    phase,
                    idx: p.shared.worst_site as usize,
                }
                .to_string(),
                detail: format!(
                    "shared-memory slots serialize up to {}-way across banks; \
                     conflict-way histogram: {}",
                    p.shared.worst,
                    render_hist(&p.bank_hist)
                ),
            });
        }
        for (agg, shared) in [(&p.gatom, false), (&p.satom, true)] {
            if agg.worst >= cfg.atomic_contention_depth {
                let pc_hint = if shared {
                    SourceLoc::Shared {
                        phase,
                        idx: agg.worst_site as usize,
                    }
                    .to_string()
                } else {
                    global_site(mem, phase, agg.worst_site)
                };
                diags.push(Diag {
                    rule: LintRule::AtomicContention,
                    block: None,
                    lanes: None,
                    pc_hint,
                    detail: format!(
                        "{} atomics serialize up to {}-deep on a single address \
                         ({} requests)",
                        if shared { "shared" } else { "global" },
                        agg.worst,
                        agg.requests
                    ),
                });
            }
        }
        if p.issued >= cfg.low_occupancy_min_slots {
            let eff = p.active as f64 / (p.issued as f64 * WARP_SIZE as f64);
            if eff < cfg.low_occupancy_efficiency {
                diags.push(Diag {
                    rule: LintRule::LowOccupancy,
                    block: None,
                    lanes: None,
                    pc_hint: SourceLoc::Phase { phase }.to_string(),
                    detail: format!(
                        "warp execution efficiency {eff:.2} ({} active thread-slots \
                         over {} issued slots)",
                        p.active, p.issued
                    ),
                });
            }
        }
    }
    let mut report = LintReport { diags };
    report.normalize();
    report
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
    for (ways, &n) in hist.iter().enumerate() {
        if n > 0 {
            if !out.is_empty() {
                out.push_str(", ");
            }
            out.push_str(&format!("{ways}-way x{n}"));
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
        assert!(t.end_phase(0).is_none());
        // Next phase: everyone arrives once, lane 3 retires afterwards.
        for tid in 0..4 {
            t.arrive(tid);
        }
        t.retire(3);
        assert!(t.end_phase(0).is_none());
        // Lane 3 is gone: the remaining three lanes agree among
        // themselves.
        for tid in 0..3 {
            t.arrive(tid);
        }
        assert!(t.end_phase(0).is_none());
        assert!(t.checks > 0);
    }

    #[test]
    fn barrier_lint_flags_a_lane_that_skips_a_barrier() {
        let mut t = BarrierLint::new(3);
        t.arrive(0);
        t.arrive(1);
        // Lane 2 never arrives.
        match t.end_phase(7) {
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
        assert!(t.end_phase(0).is_none());
        t.arrive(0);
        t.arrive(0); // lane 0 hits two barriers
        t.arrive(1);
        t.retire(1); // lane 1 bails between them
        match t.end_phase(0) {
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
        t.retire(1);
        assert!(t.end_phase(0).is_none());
        // Phase 2: only lane 0 runs; its solo arrivals are consistent.
        t.arrive(0);
        assert!(t.end_phase(0).is_none());
    }

    fn mem_with(buf_words: usize) -> DeviceMem {
        let dev = crate::Device::v100();
        let mut mem = DeviceMem::new(&dev);
        mem.alloc_zeroed(buf_words, "probe").unwrap();
        mem
    }

    #[test]
    fn report_flags_uncoalesced_loads_above_threshold_only() {
        let mem = mem_with(64);
        let cfg = LintConfig::default();
        let mut obs = LintObserver::default();
        // 16 perfectly coalesced slots (4 sectors each): clean.
        for _ in 0..16 {
            obs.global_load(4, 16);
        }
        obs.end_phase(16, 16 * 32);
        assert!(build_report(&obs, &mem, &cfg).is_clean());
        // 16 fully scattered slots (32 sectors each): flagged, with the
        // worst slot's address resolved to the owning buffer.
        let mut obs = LintObserver::default();
        for _ in 0..16 {
            obs.global_load(32, 20);
        }
        obs.end_phase(16, 16 * 32);
        let report = build_report(&obs, &mem, &cfg);
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
    fn report_needs_the_request_floor_before_flagging() {
        let mem = mem_with(64);
        let mut obs = LintObserver::default();
        // Worst-possible coalescing, but only 3 requests: not a pattern.
        for _ in 0..3 {
            obs.global_load(32, 0);
        }
        obs.end_phase(3, 96);
        assert!(build_report(&obs, &mem, &LintConfig::default()).is_clean());
    }

    #[test]
    fn report_flags_bank_conflicts_with_histogram() {
        let mem = mem_with(8);
        let mut obs = LintObserver::default();
        obs.shared_access(1, 0);
        obs.shared_access(32, 5);
        obs.end_phase(2, 64);
        let report = build_report(&obs, &mem, &LintConfig::default());
        assert_eq!(report.count(LintRule::BankConflict), 1);
        let d = &report.diags[0];
        assert_eq!(d.pc_hint, "phase 1, shared[5]");
        assert!(d.detail.contains("32-way"), "{}", d.detail);
        assert!(
            d.detail.contains("1-way x1, 32-way x1"),
            "histogram: {}",
            d.detail
        );
    }

    #[test]
    fn report_flags_atomic_contention_global_and_shared() {
        let mem = mem_with(16);
        let mut obs = LintObserver::default();
        obs.global_atomic(32, 8);
        obs.shared_atomic(9, 3);
        obs.end_phase(2, 64);
        let report = build_report(&obs, &mem, &LintConfig::default());
        assert_eq!(report.count(LintRule::AtomicContention), 2);
        assert!(report.diags.iter().any(|d| d.pc_hint.contains("`probe`")));
        assert!(report.diags.iter().any(|d| d.pc_hint.contains("shared[3]")));
    }

    #[test]
    fn report_flags_low_occupancy_only_past_the_slot_floor() {
        let mem = mem_with(1);
        let cfg = LintConfig::default();
        // 1000 slots at 2 active lanes each: efficiency 2/32 < 0.25.
        let mut obs = LintObserver::default();
        obs.end_phase(1000, 2000);
        let report = build_report(&obs, &mem, &cfg);
        assert_eq!(report.count(LintRule::LowOccupancy), 1);
        assert!(report.diags[0].detail.contains("0.06"));
        // Same shape under the floor: too small to call a phase.
        let mut obs = LintObserver::default();
        obs.end_phase(100, 200);
        assert!(build_report(&obs, &mem, &cfg).is_clean());
        // Busy and efficient: clean.
        let mut obs = LintObserver::default();
        obs.end_phase(1000, 32_000);
        assert!(build_report(&obs, &mem, &cfg).is_clean());
    }

    #[test]
    fn phase_attribution_survives_folding_blocks() {
        let mem = mem_with(64);
        let mut a = LintObserver::default();
        for _ in 0..10 {
            a.global_load(32, 16);
        }
        a.end_phase(10, 320);
        let mut b = LintObserver::default();
        for _ in 0..10 {
            b.global_load(32, 16);
        }
        b.end_phase(10, 320);
        let mut acc = LintObserver::default();
        acc.fold(&a, 0);
        acc.fold(&b, 1);
        let report = build_report(&acc, &mem, &LintConfig::default());
        // 20 requests across two blocks of the same phase: one finding.
        assert_eq!(report.count(LintRule::UncoalescedGlobal), 1);
        assert!(report.diags[0].detail.contains("20 requests"));
        assert_eq!(acc.checks, 20);
    }

    /// Block `b` of a synthetic launch: `1 + b % 3` phases, each with
    /// the same worst value on every site at a block-specific address
    /// (odd blocks reach a deeper bank conflict), so only the
    /// lowest-block tie-break decides the witnesses.
    fn tied_block_observer(b: u32) -> LintObserver {
        let site = 256 * (b as u64 + 1);
        let mut obs = LintObserver::default();
        let (mut issued, mut active) = (0, 0);
        for _ in 0..1 + b % 3 {
            for _ in 0..8 {
                obs.global_load(16, site);
                obs.global_store(12, site + 4);
                obs.global_atomic(9, site + 8);
            }
            obs.shared_access(8 + (b as u64 % 2) * 8, b as u64);
            obs.shared_atomic(10, b as u64 + 1);
            issued += 300;
            active += 300 + 100 * b as u64;
            obs.end_phase(issued, active);
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
            (acc.checks, build_report(&acc, &mem, &LintConfig::default()))
        };
        let forward = fold_in([0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(forward, fold_in([7, 6, 5, 4, 3, 2, 1, 0]));
        assert_eq!(forward, fold_in([5, 2, 7, 0, 3, 6, 1, 4]));
        let (checks, report) = forward;
        assert_eq!(checks, blocks.iter().map(|o| o.checks).sum::<u64>());
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
        let mut obs = LintObserver::default();
        for _ in 0..16 {
            obs.global_load(32, 0xdead_0000);
        }
        obs.end_phase(16, 512);
        let report = build_report(&obs, &mem, &LintConfig::default());
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
