//! Shared test fixtures for the algorithm modules.

use graph_data::{clean_edges, cpu_ref, gen, orient, EdgeList, Orientation};

use crate::api::TcAlgorithm;
use crate::conformance::run_checked;

/// The paper's Figure 1(a) graph (5 triangles).
pub fn figure1_edges() -> EdgeList {
    EdgeList::new(vec![
        (0, 1),
        (0, 5),
        (1, 2),
        (1, 3),
        (1, 4),
        (2, 3),
        (2, 4),
        (2, 5),
        (3, 4),
        (4, 5),
    ])
}

/// Run `algo` on `edges` under `orientation` through
/// [`run_checked`] — so every fixture-based kernel test doubles as a
/// race-freedom, memory-state, barrier and leak check — and assert it
/// matches the CPU Forward reference. Returns the count.
pub fn assert_matches_reference(
    algo: &dyn TcAlgorithm,
    edges: &EdgeList,
    orientation: Orientation,
) -> u64 {
    let (g, _) = clean_edges(edges);
    let dag = orient(&g, orientation);
    let expected = cpu_ref::forward_merge(&dag);
    let out = run_checked(algo, &dag)
        .unwrap_or_else(|e| panic!("{} failed: {e}", algo.name()))
        .triangles;
    assert_eq!(
        out,
        expected,
        "{} disagrees with reference on {} vertices / {} edges ({orientation:?})",
        algo.name(),
        g.num_vertices(),
        g.num_edges()
    );
    out
}

/// A batch of structurally diverse small graphs every algorithm must get
/// exactly right, under its preferred orientation.
pub fn exhaustive_small_graph_check(algo: &dyn TcAlgorithm) {
    let orientation = algo.preferred_orientation();
    // Figure 1.
    assert_matches_reference(algo, &figure1_edges(), orientation);
    // Complete graph K7.
    let mut k7 = Vec::new();
    for u in 0..7u32 {
        for v in (u + 1)..7 {
            k7.push((u, v));
        }
    }
    assert_matches_reference(algo, &EdgeList::new(k7), orientation);
    // Path (triangle-free).
    assert_matches_reference(
        algo,
        &EdgeList::new((0..20u32).map(|i| (i, i + 1)).collect()),
        orientation,
    );
    // Star (triangle-free, maximally skewed degrees).
    assert_matches_reference(
        algo,
        &EdgeList::new((1..40u32).map(|i| (0, i)).collect()),
        orientation,
    );
    // Hub with a fringe of triangles (skew + triangles).
    let mut hub = Vec::new();
    for i in 1..30u32 {
        hub.push((0, i));
    }
    for i in (1..28u32).step_by(2) {
        hub.push((i, i + 1));
    }
    assert_matches_reference(algo, &EdgeList::new(hub), orientation);
    // Two disconnected triangles plus an isolated edge.
    assert_matches_reference(
        algo,
        &EdgeList::new(vec![
            (0, 1),
            (1, 2),
            (0, 2),
            (5, 6),
            (6, 7),
            (5, 7),
            (10, 11),
        ]),
        orientation,
    );
    // Random graphs from each generator family.
    assert_matches_reference(
        algo,
        &gen::rmat(9, 4000, 0.57, 0.19, 0.19, 0.05, 17),
        orientation,
    );
    assert_matches_reference(algo, &gen::barabasi_albert(300, 4, 0.6, 18), orientation);
    assert_matches_reference(algo, &gen::watts_strogatz(200, 3, 0.2, 19), orientation);
    assert_matches_reference(algo, &gen::road_grid(15, 15, 0.85, 0.3, 20), orientation);
    assert_matches_reference(algo, &gen::erdos_renyi(150, 900, 21), orientation);
}
