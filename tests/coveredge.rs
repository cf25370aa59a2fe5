//! Test wall for the cover-edge algorithm (Bader et al., arXiv
//! 2403.02997): property-based differential invariants against the
//! node-iterator oracle on every generator family, the cover-set
//! invariants and the metamorphic conformance checks. Its sim kernel's
//! exact counters are pinned with every other algorithm's by
//! `tests/replay_equivalence/pins.rs`.

use proptest::prelude::*;

use tc_compare::algos::conformance::{
    check_differential, check_orientation_invariance, check_relabel_invariance, generator_cases,
};
use tc_compare::algos::coveredge::{cover_plan, CoverEdge};
use tc_compare::algos::TcAlgorithm;
use tc_compare::graph::{clean_edges, cpu_ref, gen, orient, Orientation};

/// CPU cover-edge count == node-iterator oracle on one raw edge list.
fn assert_matches_oracle(edges: &tc_compare::graph::EdgeList, label: &str) {
    let (g, _) = clean_edges(edges);
    let expected = cpu_ref::node_iterator(&g);
    let dag = orient(&g, Orientation::ById);
    assert_eq!(CoverEdge.count_cpu(&dag), expected, "{label}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cpu_count_matches_oracle_on_er(
        (n, m, seed) in (20u32..180, 0usize..1200, 0u64..1 << 32)
    ) {
        let edges = gen::erdos_renyi(n, m, seed);
        assert_matches_oracle(&edges, "erdos_renyi");
    }

    #[test]
    fn cpu_count_matches_oracle_on_ba(
        (n, m, seed) in (10u32..200, 1u32..8, 0u64..1 << 32)
    ) {
        let edges = gen::barabasi_albert(n, m, 0.5, seed);
        assert_matches_oracle(&edges, "barabasi_albert");
    }

    #[test]
    fn cpu_count_matches_oracle_on_rmat(
        (scale, m, seed) in (5u32..10, 10usize..3000, 0u64..1 << 32)
    ) {
        let edges = gen::rmat(scale, m, 0.57, 0.19, 0.19, 0.05, seed);
        assert_matches_oracle(&edges, "rmat");
    }

    #[test]
    fn cpu_count_matches_oracle_on_ws(
        (n, k, seed) in (12u32..200, 2u32..6, 0u64..1 << 32)
    ) {
        let edges = gen::watts_strogatz(n, k, 0.2, seed);
        assert_matches_oracle(&edges, "watts_strogatz");
    }

    #[test]
    fn cover_set_invariants_hold(
        (n, m, seed) in (10u32..150, 0usize..900, 0u64..1 << 32)
    ) {
        let edges = gen::erdos_renyi(n, m, seed);
        let (g, _) = clean_edges(&edges);
        let dag = orient(&g, Orientation::ById);
        let (src, dst) = dag.edge_arrays();
        let plan = cover_plan(dag.num_vertices(), &src, &dst);
        // Levels differ by at most one across every edge (BFS property
        // on the symmetrized graph), so every triangle has a horizontal
        // edge and the cover set really covers.
        for (&u, &v) in src.iter().zip(&dst) {
            let (lu, lv) = (plan.levels[u as usize], plan.levels[v as usize]);
            prop_assert!(lu.abs_diff(lv) <= 1, "edge ({u},{v}): levels {lu},{lv}");
        }
        // Cover edges are exactly the horizontal ones, normalized.
        let horizontal = src
            .iter()
            .zip(&dst)
            .filter(|&(&u, &v)| plan.levels[u as usize] == plan.levels[v as usize])
            .count();
        prop_assert_eq!(plan.cover_src.len(), horizontal);
        for (&u, &v) in plan.cover_src.iter().zip(&plan.cover_dst) {
            prop_assert!(u < v);
        }
    }
}

#[test]
fn metamorphic_conformance_cases_pass() {
    // The same orientation/relabeling invariance battery the registry
    // sweep runs, pinned here so a cover-edge regression is named by its
    // own test file and repro one-liner.
    for case in generator_cases().iter().filter(|c| c.metamorphic) {
        check_differential(&CoverEdge, case);
        check_orientation_invariance(&CoverEdge, case);
        check_relabel_invariance(&CoverEdge, case, 0xBADE ^ case.name.len() as u64);
    }
}
