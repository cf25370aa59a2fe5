//! The cross-algorithm conformance suite: every *registered* algorithm —
//! the list comes from `tc_algos::all_algorithms`, so new algorithms
//! enroll automatically — and GroupTC-H must agree with the CPU
//! reference on every generator family and satisfy the metamorphic
//! invariants (orientation and vertex-relabeling invariance), all with
//! the simulator's data-race detector and SimSan forced on, and an
//! end-of-run leak check per run.
//!
//! A failure anywhere in here panics with a paste-able generator
//! one-liner (e.g. `let edges = gen::rmat(9, 3000, 0.57, 0.19, 0.19,
//! 0.05, 104);`) identifying the exact failing graph.

use tc_compare::algos::conformance::{
    check_cleaning_idempotence, check_differential, generator_cases, run_all, ConformanceStats,
};
use tc_compare::algos::{all_algorithms, GroupTc, GroupTcHybrid, TcAlgorithm};

/// Run the whole suite for `algo` and assert that every analysis was
/// live and every sim run had a host-kernel twin.
fn run_and_check_live(algo: &dyn TcAlgorithm) -> ConformanceStats {
    let name = algo.name();
    let stats = run_all(algo);
    assert!(stats.runs > 0, "{name}: no conformance runs");
    assert_eq!(
        stats.cpu_runs, stats.runs,
        "{name}: every sim run must have a native host-kernel twin"
    );
    assert!(
        stats.race_checks > 0,
        "{name}: race detector never engaged — the suite is not actually \
         checking for races"
    );
    assert!(
        stats.sanitizer_checks > 0,
        "{name}: SimSan never engaged — the suite is not actually \
         checking memory state"
    );
    assert!(
        stats.lint_checks > 0,
        "{name}: SimLint never engaged — the suite is not actually \
         running the diagnostics engine"
    );
    stats
}

#[test]
fn every_registered_algorithm_passes_differential_and_metamorphic_checks() {
    for algo in all_algorithms() {
        run_and_check_live(algo.as_ref());
    }
}

/// GroupTC-H is not in the registry (every sweep runs the ten), so it
/// joins the wall here. No corpus case yields a heavy edge, so its hash
/// kernel is checked by its own heavy-fixture unit test.
#[test]
fn grouptc_hybrid_passes_differential_and_metamorphic_checks() {
    run_and_check_live(&GroupTcHybrid::default());
}

#[test]
fn cleaning_is_invariant_and_idempotent_on_the_conformance_corpus() {
    for case in generator_cases() {
        check_cleaning_idempotence(&case);
    }
}

#[test]
fn differential_failures_carry_a_reproduction_one_liner() {
    // A deliberately wrong "algorithm": reports one triangle too many.
    struct OffByOne;
    impl TcAlgorithm for OffByOne {
        fn meta(&self) -> tc_compare::algos::AlgoMeta {
            tc_compare::algos::AlgoMeta {
                name: "off-by-one",
                reference: "synthetic",
                year: 2024,
                iterator: tc_compare::algos::IteratorKind::Vertex,
                intersection: tc_compare::algos::Intersection::Merge,
                granularity: tc_compare::algos::Granularity::Coarse,
            }
        }
        fn count(
            &self,
            dev: &tc_compare::sim::Device,
            mem: &mut tc_compare::sim::DeviceMem,
            dg: &tc_compare::algos::DeviceGraph,
        ) -> Result<tc_compare::algos::TcOutput, tc_compare::sim::SimError> {
            let inner = GroupTc::default();
            let mut out = inner.count(dev, mem, dg)?;
            out.triangles += 1;
            Ok(out)
        }
    }

    let case = &generator_cases()[0];
    let err = std::panic::catch_unwind(|| check_differential(&OffByOne, case))
        .expect_err("a wrong count must fail the differential check");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .expect("panic payload should be a formatted message");
    assert!(
        msg.contains("reproduce with: let edges = gen::"),
        "failure message lacks a repro one-liner: {msg}"
    );
    assert!(msg.contains(case.repro), "repro call missing: {msg}");
}

#[test]
fn conformance_report_shape_is_stable_for_one_algorithm() {
    let stats = run_all(all_algorithms()[0].as_ref());
    // 7 differential cases + 4 metamorphic cases x 4 extra runs each.
    assert_eq!(stats.runs, 7 + 4 * 4);
    // Every sim run is mirrored by the algorithm's native host kernel.
    assert_eq!(stats.cpu_runs, 7 + 4 * 4);
}
