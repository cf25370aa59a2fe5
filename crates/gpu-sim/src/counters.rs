use std::ops::AddAssign;

use crate::lint::LintReport;

/// nvprof-equivalent profiling counters, defined exactly as in the paper's
/// "Metrics" paragraph (Section IV):
///
/// * `global_load_requests` — total number of global-memory load
///   *requests* (one per warp load instruction that has at least one
///   active lane).
/// * `warp_execution_efficiency()` — ratio of average active threads per
///   issued warp instruction to the warp size.
/// * `gld_transactions_per_request()` — average number of 32-byte-sector
///   transactions needed to serve one global load request (1 = perfectly
///   coalesced for 4-byte accesses within a sector-aligned window, up to
///   32 for fully scattered lanes).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ProfileCounters {
    pub global_load_requests: u64,
    /// L1TEX wavefronts: distinct 32-byte sectors addressed per load
    /// request, summed — counted whether or not the sector hits cache,
    /// exactly like nvprof's `gld_transactions`.
    pub gld_transactions: u64,
    /// Subset of load sectors that actually went to DRAM (cache misses);
    /// this is what the bandwidth floor consumes.
    pub dram_load_sectors: u64,
    /// Load requests with at least one L1-miss sector: each pays one
    /// DRAM round-trip, however many sectors it misses.
    pub global_load_miss_requests: u64,
    pub global_store_requests: u64,
    pub gst_transactions: u64,
    pub global_atomic_requests: u64,
    /// Distinct 32-byte sectors touched by global atomics, per warp slot,
    /// summed. Atomics resolve in L2 but still move their sectors over
    /// DRAM, so this feeds the launch-level bandwidth floor alongside
    /// `dram_load_sectors` and `gst_transactions`. (Counting *requests*
    /// there, as before, undercounted scattered atomics 32x and
    /// overcounted fully-colliding ones not at all.)
    pub dram_atomic_sectors: u64,
    /// Σ(depth − 1) over global atomic slots, where depth is the most
    /// lanes of the slot that hit one address: the serialized extra
    /// updates.
    pub global_atomic_collisions: u64,
    pub shared_load_requests: u64,
    pub shared_store_requests: u64,
    /// Σ(ways − 1) over shared load and store slots: the extra
    /// wavefronts nvprof reports as `shared_ld/st_bank_conflict`.
    pub shared_bank_conflicts: u64,
    pub shared_atomic_requests: u64,
    /// Σ(depth − 1) over shared atomic slots.
    pub shared_atomic_collisions: u64,
    pub compute_slots: u64,
    /// Total warp instruction slots issued (all kinds).
    pub issued_slots: u64,
    /// Sum over issued slots of the number of active lanes.
    pub active_thread_slots: u64,
    /// Conflict checks performed by the data-race detector (zero unless
    /// the device enables race detection); a nonzero value on a clean
    /// run is the evidence the kernel actually ran under the detector.
    pub race_checks: u64,
    /// Accesses vetted by SimSan (see `gpu_sim::sanitize`); zero unless
    /// the device enables the sanitizer — a nonzero value on a clean run
    /// is the evidence the kernel actually ran sanitized.
    pub sanitizer_checks: u64,
    /// Observations made by SimLint (see `gpu_sim::lint`): barrier
    /// arrivals vetted plus replay slots aggregated for the performance
    /// rules. Zero unless the device enables lints — like `race_checks`
    /// and `sanitizer_checks`, a nonzero value on a clean run is the
    /// evidence the kernel actually ran under the linter.
    pub lint_checks: u64,
}

impl ProfileCounters {
    /// Average active threads per warp instruction divided by the warp
    /// size; `1.0` means no divergence-induced stalls. Returns 1.0 for an
    /// empty launch so that ratios stay well-defined.
    pub fn warp_execution_efficiency(&self) -> f64 {
        if self.issued_slots == 0 {
            return 1.0;
        }
        self.active_thread_slots as f64 / (self.issued_slots as f64 * crate::WARP_SIZE as f64)
    }

    /// Average 32-byte transactions per global load request; lower is
    /// better. Returns 0.0 when no loads were issued.
    pub fn gld_transactions_per_request(&self) -> f64 {
        if self.global_load_requests == 0 {
            return 0.0;
        }
        self.gld_transactions as f64 / self.global_load_requests as f64
    }

    /// Average transactions per global store request.
    pub fn gst_transactions_per_request(&self) -> f64 {
        if self.global_store_requests == 0 {
            return 0.0;
        }
        self.gst_transactions as f64 / self.global_store_requests as f64
    }
}

impl AddAssign for ProfileCounters {
    fn add_assign(&mut self, rhs: Self) {
        self.global_load_requests += rhs.global_load_requests;
        self.gld_transactions += rhs.gld_transactions;
        self.dram_load_sectors += rhs.dram_load_sectors;
        self.global_load_miss_requests += rhs.global_load_miss_requests;
        self.global_store_requests += rhs.global_store_requests;
        self.gst_transactions += rhs.gst_transactions;
        self.global_atomic_requests += rhs.global_atomic_requests;
        self.dram_atomic_sectors += rhs.dram_atomic_sectors;
        self.global_atomic_collisions += rhs.global_atomic_collisions;
        self.shared_load_requests += rhs.shared_load_requests;
        self.shared_store_requests += rhs.shared_store_requests;
        self.shared_bank_conflicts += rhs.shared_bank_conflicts;
        self.shared_atomic_requests += rhs.shared_atomic_requests;
        self.shared_atomic_collisions += rhs.shared_atomic_collisions;
        self.compute_slots += rhs.compute_slots;
        self.issued_slots += rhs.issued_slots;
        self.active_thread_slots += rhs.active_thread_slots;
        self.race_checks += rhs.race_checks;
        self.sanitizer_checks += rhs.sanitizer_checks;
        self.lint_checks += rhs.lint_checks;
    }
}

/// Result of one kernel launch: the modelled kernel time plus the merged
/// profiling counters of every warp that ran.
///
/// `PartialEq`/`Eq` compare every field (counters are integers and the
/// lint report is structurally ordered), so differential tests can pin
/// two execution engines to byte-identical outcomes with a single
/// assert.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct LaunchStats {
    /// Modelled kernel time in device cycles (wave-scheduled across SMs).
    pub kernel_cycles: u64,
    /// Sum of per-block cycle counts (total work, ignoring parallelism).
    pub total_block_cycles: u64,
    /// Number of blocks that executed.
    pub blocks: u64,
    pub counters: ProfileCounters,
    /// SimLint's advisory findings: `Some` (possibly empty) when the
    /// launch ran with lints enabled, `None` otherwise. Lint-only — the
    /// cycle model and every other field are byte-identical with lints
    /// on or off.
    pub lint: Option<LintReport>,
}

impl AddAssign for LaunchStats {
    fn add_assign(&mut self, rhs: Self) {
        // Sequential launches: kernel times add up.
        self.kernel_cycles += rhs.kernel_cycles;
        self.total_block_cycles += rhs.total_block_cycles;
        self.blocks += rhs.blocks;
        self.counters += rhs.counters;
        // Findings accumulate across an algorithm's launches; a mix of
        // linted and unlinted launches keeps whichever report exists.
        match (&mut self.lint, rhs.lint) {
            (Some(mine), Some(theirs)) => mine.merge(theirs),
            (mine @ None, theirs @ Some(_)) => *mine = theirs,
            (_, None) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_is_one_when_empty() {
        let c = ProfileCounters::default();
        assert_eq!(c.warp_execution_efficiency(), 1.0);
        assert_eq!(c.gld_transactions_per_request(), 0.0);
    }

    #[test]
    fn efficiency_ratio() {
        let c = ProfileCounters {
            issued_slots: 10,
            active_thread_slots: 160,
            ..Default::default()
        };
        assert!((c.warp_execution_efficiency() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn transactions_per_request() {
        let c = ProfileCounters {
            global_load_requests: 4,
            gld_transactions: 10,
            ..Default::default()
        };
        assert!((c.gld_transactions_per_request() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn add_assign_merges_all_fields() {
        let mut a = ProfileCounters {
            global_load_requests: 1,
            gld_transactions: 2,
            dram_load_sectors: 1,
            global_load_miss_requests: 17,
            global_store_requests: 3,
            gst_transactions: 4,
            global_atomic_requests: 5,
            dram_atomic_sectors: 16,
            global_atomic_collisions: 18,
            shared_load_requests: 6,
            shared_store_requests: 7,
            shared_bank_conflicts: 19,
            shared_atomic_requests: 8,
            shared_atomic_collisions: 20,
            compute_slots: 9,
            issued_slots: 10,
            active_thread_slots: 11,
            race_checks: 12,
            sanitizer_checks: 14,
            lint_checks: 16,
        };
        a += a;
        assert_eq!(a.global_load_requests, 2);
        assert_eq!(a.global_load_miss_requests, 34);
        assert_eq!(a.dram_atomic_sectors, 32);
        assert_eq!(a.global_atomic_collisions, 36);
        assert_eq!(a.shared_bank_conflicts, 38);
        assert_eq!(a.shared_atomic_collisions, 40);
        assert_eq!(a.active_thread_slots, 22);
        assert_eq!(a.race_checks, 24);
        assert_eq!(a.sanitizer_checks, 28);
        assert_eq!(a.lint_checks, 32);
    }

    #[test]
    fn launch_stats_accumulate() {
        let mut s = LaunchStats {
            kernel_cycles: 100,
            total_block_cycles: 200,
            blocks: 2,
            counters: ProfileCounters::default(),
            lint: None,
        };
        s += LaunchStats {
            kernel_cycles: 50,
            total_block_cycles: 60,
            blocks: 1,
            counters: ProfileCounters::default(),
            lint: None,
        };
        assert_eq!(s.kernel_cycles, 150);
        assert_eq!(s.total_block_cycles, 260);
        assert_eq!(s.blocks, 3);
        assert_eq!(s.lint, None);
    }

    #[test]
    fn launch_stats_accumulate_lint_reports() {
        use crate::lint::{Diag, LintRule};
        let diag = Diag {
            rule: LintRule::LowOccupancy,
            block: None,
            lanes: None,
            pc_hint: "phase 1".to_string(),
            detail: "d".to_string(),
        };
        let linted = |diags: Vec<Diag>| LaunchStats {
            lint: Some(LintReport { diags }),
            ..Default::default()
        };
        // Linted + unlinted keeps the report; linted + linted merges
        // and dedups repeated findings.
        let mut s = LaunchStats::default();
        s += linted(vec![diag.clone()]);
        assert_eq!(s.lint.as_ref().unwrap().diags.len(), 1);
        s += LaunchStats::default();
        s += linted(vec![diag.clone()]);
        assert_eq!(s.lint.as_ref().unwrap().diags, vec![diag]);
    }

    // The divide-by-zero / rounding semantics below feed SimLint's
    // thresholds, so they are pinned explicitly for the degenerate
    // launches where they used to be only implicitly defined.

    #[test]
    fn efficiency_of_a_busy_launch_with_no_active_lanes_is_zero() {
        let c = ProfileCounters {
            issued_slots: 7,
            active_thread_slots: 0,
            ..Default::default()
        };
        assert_eq!(c.warp_execution_efficiency(), 0.0);
    }

    #[test]
    fn efficiency_is_exact_at_full_occupancy_and_never_nan() {
        let c = ProfileCounters {
            issued_slots: 1_000_000,
            active_thread_slots: 32_000_000,
            ..Default::default()
        };
        assert_eq!(c.warp_execution_efficiency(), 1.0);
        // A single fully-active slot divides exactly (no rounding): 32/32.
        let one = ProfileCounters {
            issued_slots: 1,
            active_thread_slots: 32,
            ..Default::default()
        };
        assert_eq!(one.warp_execution_efficiency(), 1.0);
        assert!(!ProfileCounters::default()
            .warp_execution_efficiency()
            .is_nan());
    }

    #[test]
    fn transactions_per_request_degenerate_cases() {
        // No requests at all — even with stray transaction counts the
        // ratio is a defined 0.0, never inf/NaN.
        let c = ProfileCounters {
            gld_transactions: 5,
            gst_transactions: 5,
            ..Default::default()
        };
        assert_eq!(c.gld_transactions_per_request(), 0.0);
        assert_eq!(c.gst_transactions_per_request(), 0.0);
        // Requests without transactions: exactly 0.0.
        let c = ProfileCounters {
            global_load_requests: 3,
            global_store_requests: 3,
            ..Default::default()
        };
        assert_eq!(c.gld_transactions_per_request(), 0.0);
        assert_eq!(c.gst_transactions_per_request(), 0.0);
    }

    #[test]
    fn transactions_per_request_is_exact_for_sector_ratios() {
        // Every ratio the replay can produce is a sum of integers
        // divided by an integer; the common ones must round-trip
        // exactly through f64 (32/1, 1/1, 4/32...).
        let c = ProfileCounters {
            global_load_requests: 1,
            gld_transactions: 32,
            global_store_requests: 32,
            gst_transactions: 4,
            ..Default::default()
        };
        assert_eq!(c.gld_transactions_per_request(), 32.0);
        assert_eq!(c.gst_transactions_per_request(), 0.125);
    }

    #[test]
    fn ratios_survive_large_counter_magnitudes() {
        // A billion-slot sweep: u64 -> f64 conversion stays monotone and
        // finite well past any realistic launch.
        let c = ProfileCounters {
            issued_slots: 1 << 40,
            active_thread_slots: (1 << 40) * 8,
            global_load_requests: 1 << 40,
            gld_transactions: (1 << 40) * 3,
            ..Default::default()
        };
        assert_eq!(c.warp_execution_efficiency(), 0.25);
        assert_eq!(c.gld_transactions_per_request(), 3.0);
    }
}
