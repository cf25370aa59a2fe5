//! Golden snapshot of GroupTC's profiling counters on a fixed R-MAT
//! graph. The simulator is deterministic, so these values are exact: any
//! drift means a change to the modelled memory system, the replay rules,
//! or GroupTC's kernels — all of which silently re-scale every figure of
//! the reproduction and must be reviewed (and this snapshot re-pinned)
//! deliberately.
//!
//! The same snapshot is asserted twice: once on a plain benchmark device
//! and once with SimSan forced on, pinning the sanitizer's
//! zero-perturbation guarantee (identical counters and cycles, modulo
//! the `sanitizer_*` fields themselves).

use tc_compare::algos::{GroupTc, TcAlgorithm, TcOutput};
use tc_compare::graph::{clean_edges, gen, orient, Orientation};
use tc_compare::sim::{Device, ProfileCounters};

fn run_grouptc(dev: &Device) -> TcOutput {
    // reproduce with: let edges = gen::rmat(10, 8000, 0.57, 0.19, 0.19, 0.05, 42);
    let edges = gen::rmat(10, 8000, 0.57, 0.19, 0.19, 0.05, 42);
    let (g, _) = clean_edges(&edges);
    let dag = orient(&g, Orientation::DegreeAsc);
    GroupTc::default().run(dev, &dag).expect("GroupTC run")
}

/// The pinned counters of the plain (detector-off, sanitizer-off) run.
const GOLDEN: ProfileCounters = ProfileCounters {
    global_load_requests: 8_986,
    gld_transactions: 43_337,
    dram_load_sectors: 19_769,
    global_load_miss_requests: 6_182,
    global_store_requests: 0,
    gst_transactions: 0,
    global_atomic_requests: 192,
    dram_atomic_sectors: 192,
    global_atomic_collisions: 0,
    shared_load_requests: 20_208,
    shared_store_requests: 2_413,
    shared_bank_conflicts: 308,
    shared_atomic_requests: 0,
    shared_atomic_collisions: 0,
    compute_slots: 20_798,
    issued_slots: 52_597,
    active_thread_slots: 1_552_392,
    race_checks: 0,
    sanitizer_checks: 0,
    lint_checks: 0,
};

#[test]
fn grouptc_counters_on_fixed_rmat_are_pinned() {
    // A plain benchmark-configuration device: race detection and SimSan
    // off, so the snapshot also locks `race_checks == 0` and
    // `sanitizer_checks == 0` for production launches.
    let out = run_grouptc(&Device::v100());

    assert_eq!(out.triangles, 24_199);
    assert_eq!(out.stats.kernel_cycles, 19_262);
    assert_eq!(out.stats.counters, GOLDEN);

    // The paper's two headline metrics, derived from the fields above.
    let wee = out.stats.counters.warp_execution_efficiency();
    assert!(
        (wee - 0.922339).abs() < 1e-6,
        "warp_execution_efficiency drifted: {wee}"
    );
    let gld_tpr = out.stats.counters.gld_transactions_per_request();
    assert!(
        (gld_tpr - 4.822724).abs() < 1e-6,
        "gld_transactions_per_request drifted: {gld_tpr}"
    );
    assert_eq!(out.stats.counters.gst_transactions_per_request(), 0.0);
}

#[test]
fn grouptc_snapshot_is_unchanged_under_the_sanitizer() {
    let out = run_grouptc(&Device::v100().with_sanitizer());

    // SimSan actually ran, and found nothing.
    assert!(out.stats.counters.sanitizer_checks > 0);

    // Zero perturbation: every modelled value matches the golden run
    // exactly once the sanitizer's own bookkeeping fields are masked.
    let masked = ProfileCounters {
        sanitizer_checks: 0,
        lint_checks: 0,
        ..out.stats.counters
    };
    assert_eq!(masked, GOLDEN);
    assert_eq!(out.triangles, 24_199);
    assert_eq!(out.stats.kernel_cycles, 19_262);
}
