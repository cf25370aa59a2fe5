//! Intersection-based CPU counters over the oriented DAG. `forward_merge`
//! is the gold standard every GPU kernel is verified against.

use rayon::prelude::*;

use super::intersect::{intersect_merge, Bitmap};
use crate::orient::DagGraph;
use crate::types::VertexId;

/// The CPU Forward algorithm (Schank & Wagner; the basis of Polak):
/// for every DAG edge (u,v), merge-intersect the out-lists of u and v.
pub fn forward_merge(g: &DagGraph) -> u64 {
    let csr = g.csr();
    csr.edge_iter()
        .map(|(u, v)| intersect_merge(csr.neighbors(u), csr.neighbors(v)))
        .sum()
}

/// Rayon-parallel Forward with a caller-chosen intersection: one task
/// per vertex `u`, summing `intersect(N⁺(u), N⁺(v))` over its out-edges
/// `(u,v)`. The out-list of `u` is always the first argument. The
/// merge, binary-search and GroupTC-H host twins
/// (`TcAlgorithm::count_cpu` in `tc-algos`) run this loop with their own
/// `intersect`; the H-INDEX, TRUST and Bisson twins run
/// [`forward_bitmap_parallel`] instead.
pub fn forward_parallel(
    g: &DagGraph,
    intersect: impl Fn(&[VertexId], &[VertexId]) -> u64 + Sync,
) -> u64 {
    let csr = g.csr();
    (0..csr.num_vertices())
        .into_par_iter()
        .map(|u| {
            let a = csr.neighbors(u);
            a.iter()
                .map(|&v| intersect(a, csr.neighbors(v)))
                .sum::<u64>()
        })
        .sum()
}

/// Rayon-parallel Forward with the merge primitive.
pub fn forward_merge_parallel(g: &DagGraph) -> u64 {
    forward_parallel(g, intersect_merge)
}

/// Rayon-parallel Forward with Bisson's build/probe/clear bitmap cycle:
/// one task per vertex `u`, each worker owning one [`Bitmap`] over the
/// vertex-ID space. A task marks `N⁺(u)` once, counts the marked members
/// of every `N⁺(v)`, `v ∈ N⁺(u)`, then unmarks `N⁺(u)`. Vertices of
/// out-degree < 2 head no triangle and are skipped.
pub fn forward_bitmap_parallel(g: &DagGraph) -> u64 {
    let csr = g.csr();
    (0..csr.num_vertices())
        .into_par_iter()
        .map_init(
            || Bitmap::new(csr.num_vertices()),
            |bits, u| {
                let a = csr.neighbors(u);
                if a.len() < 2 {
                    return 0;
                }
                bits.mark(a);
                let mut hits = 0u64;
                for &v in a {
                    for &w in csr.neighbors(v) {
                        hits += u64::from(bits.contains(w));
                    }
                }
                bits.unmark(a);
                hits
            },
        )
        .sum()
}

/// Per-DAG-edge triangle supports, in CSR edge order. Used by the k-truss
/// example and by tests that cross-check per-edge contributions.
pub fn per_edge_supports(g: &DagGraph) -> Vec<u64> {
    let csr = g.csr();
    csr.edge_iter()
        .map(|(u, v)| intersect_merge(csr.neighbors(u), csr.neighbors(v)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clean::clean_edges;
    use crate::cpu_ref::{intersect_binsearch, intersect_bitmap, intersect_hash};
    use crate::orient::{orient, Orientation};
    use crate::types::EdgeList;

    /// The paper's Figure 1(a) example graph: 6 vertices, edges
    /// 0-1, 0-5, 1-2, 1-3, 1-4, 2-3, 2-4, 2-5, 3-4, 4-5. It contains the
    /// triangles {1,2,3}, {1,2,4}, {1,3,4}, {2,3,4}, {0? no}, {2,4,5}.
    fn figure1_graph() -> DagGraph {
        let raw = EdgeList::new(vec![
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
        ]);
        let (g, _) = clean_edges(&raw);
        orient(&g, Orientation::ById)
    }

    #[test]
    fn figure1_has_five_triangles() {
        assert_eq!(forward_merge(&figure1_graph()), 5);
    }

    #[test]
    fn all_itc_variants_agree() {
        let g = figure1_graph();
        let expected = forward_merge(&g);
        let n = g.num_vertices();
        assert_eq!(forward_merge_parallel(&g), expected);
        assert_eq!(forward_bitmap_parallel(&g), expected);
        assert_eq!(forward_parallel(&g, intersect_binsearch), expected);
        assert_eq!(
            forward_parallel(&g, |a, b| intersect_hash(a, b, 32)),
            expected
        );
        assert_eq!(
            forward_parallel(&g, |a, b| intersect_bitmap(a, b, n)),
            expected
        );
    }

    #[test]
    fn forward_parallel_passes_the_source_list_first() {
        let g = figure1_graph();
        let csr = g.csr();
        // Summing |N⁺(u)| per edge proves which list comes first.
        let first_len: u64 = csr.edge_iter().map(|(u, _)| csr.degree(u) as u64).sum();
        assert_eq!(forward_parallel(&g, |a, _| a.len() as u64), first_len);
        assert_eq!(forward_parallel(&g, intersect_binsearch), forward_merge(&g));
    }

    #[test]
    fn per_edge_supports_sum_to_total() {
        let g = figure1_graph();
        let supports = per_edge_supports(&g);
        assert_eq!(supports.len() as u64, g.num_edges());
        assert_eq!(supports.iter().sum::<u64>(), forward_merge(&g));
    }

    #[test]
    fn triangle_free_graph_counts_zero() {
        // A path 0-1-2-3.
        let raw = EdgeList::new(vec![(0, 1), (1, 2), (2, 3)]);
        let (g, _) = clean_edges(&raw);
        let d = orient(&g, Orientation::DegreeAsc);
        assert_eq!(forward_merge(&d), 0);
        let n = d.num_vertices();
        assert_eq!(forward_parallel(&d, |a, b| intersect_bitmap(a, b, n)), 0);
        assert_eq!(forward_bitmap_parallel(&d), 0);
    }

    #[test]
    fn complete_graph_k5() {
        let mut edges = Vec::new();
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                edges.push((u, v));
            }
        }
        let (g, _) = clean_edges(&EdgeList::new(edges));
        let d = orient(&g, Orientation::DegreeAsc);
        // C(5,3) = 10 triangles.
        assert_eq!(forward_merge(&d), 10);
        assert_eq!(forward_parallel(&d, |a, b| intersect_hash(a, b, 32)), 10);
        assert_eq!(forward_bitmap_parallel(&d), 10);
    }
}
