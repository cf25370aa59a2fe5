//! SimSan's and SimLint's zero-perturbation property, checked
//! statistically: for every registered algorithm on random graphs, a
//! sanitized (or linted) run must produce byte-identical results, cycles
//! and modelled counters to the plain run (modulo each analysis's own
//! bookkeeping fields and, for lints, the attached `LintReport`). The
//! checks observe — they never push trace ops, touch the L1 model, or
//! add cycles — and this test is what keeps that true as the
//! instrumentation evolves.

use proptest::prelude::*;

use tc_compare::algos::all_algorithms;
use tc_compare::algos::{TcAlgorithm, TcOutput};
use tc_compare::graph::{clean_edges, orient, EdgeList};
use tc_compare::sim::{Device, ProfileCounters};

/// Random raw edge list: up to 400 edges over up to 60 vertices, with
/// self-loops and duplicates allowed (cleaning must cope).
fn raw_edges() -> impl Strategy<Value = EdgeList> {
    prop::collection::vec((0u32..60, 0u32..60), 0..400).prop_map(EdgeList::new)
}

fn run(algo: &dyn TcAlgorithm, dev: &Device, raw: &EdgeList) -> TcOutput {
    let (g, _) = clean_edges(raw);
    let dag = orient(&g, algo.preferred_orientation());
    algo.run(dev, &dag).expect("leak-checked run")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sanitized_runs_are_byte_identical_to_plain_runs(raw in raw_edges()) {
        for algo in all_algorithms() {
            let plain = run(algo.as_ref(), &Device::v100(), &raw);
            let san = run(algo.as_ref(), &Device::v100().with_sanitizer(), &raw);

            // A clean kernel must be entirely unperturbed...
            prop_assert_eq!(san.triangles, plain.triangles, "{}", algo.name());
            prop_assert_eq!(
                san.stats.kernel_cycles, plain.stats.kernel_cycles,
                "{}: cycles perturbed by SimSan", algo.name()
            );
            let masked = ProfileCounters {
                sanitizer_checks: 0,
                lint_checks: 0,
                ..san.stats.counters
            };
            prop_assert_eq!(
                masked, plain.stats.counters,
                "{}: counters perturbed by SimSan", algo.name()
            );

            // ...while the sanitizer actually inspected it and stayed
            // quiet. (On a degenerate graph a kernel may issue no memory
            // accesses at all — only require engagement when the plain
            // run shows the kernel touched memory.)
            let touched = plain.stats.counters.global_load_requests
                + plain.stats.counters.global_store_requests
                + plain.stats.counters.global_atomic_requests;
            prop_assert!(
                touched == 0 || san.stats.counters.sanitizer_checks > 0,
                "{}: SimSan never engaged", algo.name()
            );
            prop_assert_eq!(plain.stats.counters.sanitizer_checks, 0u64);
        }
    }

    #[test]
    fn linted_runs_are_byte_identical_to_plain_runs(raw in raw_edges()) {
        for algo in all_algorithms() {
            let plain = run(algo.as_ref(), &Device::v100(), &raw);
            let linted = run(algo.as_ref(), &Device::v100().with_lints(), &raw);

            // Zero perturbation: the cycle model and every modelled
            // counter are byte-identical with lints forced on; only the
            // lint's own bookkeeping field and the attached report may
            // differ.
            prop_assert_eq!(linted.triangles, plain.triangles, "{}", algo.name());
            prop_assert_eq!(
                linted.stats.kernel_cycles, plain.stats.kernel_cycles,
                "{}: cycles perturbed by SimLint", algo.name()
            );
            prop_assert_eq!(
                linted.stats.total_block_cycles, plain.stats.total_block_cycles,
                "{}: block cycles perturbed by SimLint", algo.name()
            );
            let masked = ProfileCounters {
                lint_checks: 0,
                ..linted.stats.counters
            };
            prop_assert_eq!(
                masked, plain.stats.counters,
                "{}: counters perturbed by SimLint", algo.name()
            );

            // Off by default: the plain run carries no lint state at
            // all. On: a report is attached (possibly clean) and the
            // engine demonstrably ran. (A degenerate graph may make an
            // algorithm launch nothing at all — only require engagement
            // when some block actually ran.)
            prop_assert!(plain.stats.lint.is_none(), "{}", algo.name());
            prop_assert_eq!(plain.stats.counters.lint_checks, 0u64);
            let launched = linted.stats.blocks > 0;
            prop_assert!(
                !launched || linted.stats.lint.is_some(),
                "{}: lints on but no report attached", algo.name()
            );
            prop_assert!(
                !launched || linted.stats.counters.lint_checks > 0,
                "{}: SimLint never engaged", algo.name()
            );
        }
    }
}
