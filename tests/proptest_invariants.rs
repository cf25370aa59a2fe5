//! Property-based tests over the whole stack: random graphs in, exact
//! agreement out — plus pipeline invariants (cleaning idempotence,
//! orientation preservation, format round-trips).

use proptest::prelude::*;

use tc_compare::algos::all_algorithms;
use tc_compare::algos::conformance::run_checked;
use tc_compare::graph::{clean_edges, cpu_ref, io, orient, EdgeList, Orientation};

/// Random raw edge list: up to 400 edges over up to 60 vertices, with
/// self-loops and duplicates allowed (cleaning must cope).
fn raw_edges() -> impl Strategy<Value = EdgeList> {
    prop::collection::vec((0u32..60, 0u32..60), 0..400).prop_map(EdgeList::new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_gpu_algorithm_matches_every_cpu_reference(raw in raw_edges()) {
        let (g, _) = clean_edges(&raw);
        // Independent oracle on the undirected graph.
        let expected = cpu_ref::node_iterator(&g);
        prop_assert_eq!(cpu_ref::matmul_count(&g), expected);
        prop_assert_eq!(cpu_ref::subgraph_match(&g), expected);
        for o in [Orientation::ById, Orientation::DegreeAsc, Orientation::DegreeDesc] {
            let dag = orient(&g, o);
            let n = dag.num_vertices();
            prop_assert_eq!(cpu_ref::forward_merge(&dag), expected);
            prop_assert_eq!(cpu_ref::forward_bitmap_parallel(&dag), expected);
            prop_assert_eq!(cpu_ref::forward_parallel(&dag, cpu_ref::intersect_binsearch), expected);
            prop_assert_eq!(
                cpu_ref::forward_parallel(&dag, |a, b| cpu_ref::intersect_hash(a, b, 32)),
                expected
            );
            prop_assert_eq!(
                cpu_ref::forward_parallel(&dag, |a, b| cpu_ref::intersect_bitmap(a, b, n)),
                expected
            );
        }
        // GPU algorithms under their preferred orientation.
        for algo in all_algorithms() {
            let dag_pref = orient(&g, algo.preferred_orientation());
            let sim = run_checked(algo.as_ref(), &dag_pref)
                .unwrap_or_else(|e| panic!("{} failed: {e}", algo.name()));
            prop_assert_eq!(sim.triangles, expected,
                "{} disagrees", algo.name());
        }
    }

    #[test]
    fn cleaning_is_idempotent(raw in raw_edges()) {
        let (g1, _) = clean_edges(&raw);
        let again = EdgeList::new(g1.undirected_edges().collect());
        let (g2, report) = clean_edges(&again);
        prop_assert_eq!(&g1, &g2);
        prop_assert_eq!(report.removed_self_loops, 0);
        prop_assert_eq!(report.removed_duplicates, 0);
        prop_assert_eq!(report.removed_isolated_vertices, 0);
    }

    #[test]
    fn orientation_preserves_edges_and_degrees_sum(raw in raw_edges(), seed in 0u64..1000) {
        let (g, _) = clean_edges(&raw);
        let expected = cpu_ref::node_iterator(&g);
        for o in [
            Orientation::ById,
            Orientation::DegreeAsc,
            Orientation::DegreeDesc,
            Orientation::KCore,
            Orientation::Random(seed),
        ] {
            let dag = orient(&g, o);
            prop_assert_eq!(dag.num_edges(), g.num_edges());
            prop_assert_eq!(cpu_ref::forward_merge(&dag), expected, "{:?}", o);
            // Every DAG edge ascends.
            for (u, v) in dag.csr().edge_iter() {
                prop_assert!(u < v);
            }
            // The relabeling is a permutation.
            let mut seen = vec![false; g.num_vertices() as usize];
            for v in 0..dag.num_vertices() {
                let old = dag.old_id(v) as usize;
                prop_assert!(!seen[old]);
                seen[old] = true;
            }
        }
    }

    #[test]
    fn formats_round_trip(raw in raw_edges()) {
        let mut text = Vec::new();
        io::write_snap_text(&mut text, &raw).unwrap();
        prop_assert_eq!(io::parse_snap_text(&text[..]).unwrap(), raw.clone());

        let mut bin = Vec::new();
        io::write_binary_edges(&mut bin, &raw).unwrap();
        prop_assert_eq!(io::read_binary_edges(&bin[..]).unwrap(), raw.clone());

        prop_assert_eq!(io::read_edges_auto(&text[..]).unwrap(), raw.clone());
        prop_assert_eq!(io::read_edges_auto(&bin[..]).unwrap(), raw);
    }

    #[test]
    fn csr_file_round_trip(raw in raw_edges()) {
        let (g, _) = clean_edges(&raw);
        let dag = orient(&g, Orientation::DegreeAsc);
        let mut bytes = Vec::new();
        io::write_csr(&mut bytes, dag.csr()).unwrap();
        prop_assert_eq!(&io::read_csr(&bytes[..]).unwrap(), dag.csr());
    }

    #[test]
    fn per_edge_supports_sum_to_count(raw in raw_edges()) {
        let (g, _) = clean_edges(&raw);
        let dag = orient(&g, Orientation::ById);
        let supports = cpu_ref::per_edge_supports(&dag);
        prop_assert_eq!(supports.len() as u64, dag.num_edges());
        prop_assert_eq!(supports.iter().sum::<u64>(), cpu_ref::node_iterator(&g));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn intersection_primitives_agree_with_sets(
        mut a in prop::collection::btree_set(0u32..200, 0..40),
        mut b in prop::collection::btree_set(0u32..200, 0..40),
        buckets in 1usize..64,
    ) {
        let a: Vec<u32> = std::mem::take(&mut a).into_iter().collect();
        let b: Vec<u32> = std::mem::take(&mut b).into_iter().collect();
        let expected = a.iter().filter(|x| b.contains(x)).count() as u64;
        prop_assert_eq!(cpu_ref::intersect_merge(&a, &b), expected);
        prop_assert_eq!(cpu_ref::intersect_binsearch(&a, &b), expected);
        prop_assert_eq!(cpu_ref::intersect_hash(&a, &b, buckets), expected);
        prop_assert_eq!(cpu_ref::intersect_bitmap(&a, &b, 200), expected);
    }
}
