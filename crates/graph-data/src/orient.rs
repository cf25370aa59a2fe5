//! DAG orientations.
//!
//! All intersection-based counters first orient the undirected graph into
//! a DAG so that each triangle `{a, b, c}` is discovered exactly once.
//! After relabeling, every directed edge `(u, v)` satisfies `u < v` — the
//! "popular format" GroupTC's first optimization relies on (Section V).
//!
//! Two orderings matter in the paper's corpus:
//! * **ById** — keep the input order (Polak's baseline behaviour).
//! * **DegreeAsc** — relabel so vertex IDs increase with degree and
//!   orient each edge toward the higher-degree endpoint. This bounds
//!   out-degrees by O(sqrt(E)) on real graphs and is what the optimized
//!   implementations (TriCore, TRUST, GroupTC) preprocess with.
//! * **DegreeDesc** — the reverse ordering, kept for ablations.

use crate::types::{Csr, UndirGraph, VertexId};

/// Vertex-ordering rule used to build the DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Orientation {
    /// Orient edge (u,v) from min ID to max ID, no relabeling.
    ById,
    /// Relabel by ascending degree (ties by old ID), then orient by ID.
    #[default]
    DegreeAsc,
    /// Relabel by descending degree (ties by old ID), then orient by ID.
    DegreeDesc,
    /// Relabel by degeneracy (k-core peeling) order: out-degrees are
    /// bounded by the graph's degeneracy.
    KCore,
    /// Random relabeling from the given seed — the worst-case baseline
    /// the pre-processing literature compares against.
    Random(u64),
}

/// The oriented graph handed to the GPU algorithms: out-CSR where every
/// edge goes from a smaller to a larger (new) vertex ID, plus the edge
/// array used by edge-centric kernels.
#[derive(Debug, Clone)]
pub struct DagGraph {
    csr: Csr,
    /// `new_to_old[new_id] = old_id` in the cleaned graph.
    new_to_old: Vec<VertexId>,
    orientation: Orientation,
}

impl DagGraph {
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    pub fn orientation(&self) -> Orientation {
        self.orientation
    }

    pub fn num_vertices(&self) -> u32 {
        self.csr.num_vertices()
    }

    /// Number of directed DAG edges (= undirected edges of the input).
    pub fn num_edges(&self) -> u64 {
        self.csr.num_entries()
    }

    #[inline]
    pub fn out_degree(&self, v: VertexId) -> u32 {
        self.csr.degree(v)
    }

    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.csr.neighbors(v)
    }

    /// Map a relabeled vertex back to its ID in the cleaned graph.
    pub fn old_id(&self, new_id: VertexId) -> VertexId {
        self.new_to_old[new_id as usize]
    }

    /// Maximum out-degree (drives hash-table and bin sizing decisions).
    pub fn max_out_degree(&self) -> u32 {
        self.csr.max_degree()
    }

    /// Flat (src, dst) arrays for edge-centric kernels, in CSR order so
    /// consecutive edges share sources — the locality GroupTC exploits.
    pub fn edge_arrays(&self) -> (Vec<VertexId>, Vec<VertexId>) {
        let mut src = Vec::with_capacity(self.num_edges() as usize);
        let mut dst = Vec::with_capacity(self.num_edges() as usize);
        for (u, v) in self.csr.edge_iter() {
            src.push(u);
            dst.push(v);
        }
        (src, dst)
    }
}

/// Orient a cleaned undirected graph into a DAG under the given rule.
pub fn orient(g: &UndirGraph, orientation: Orientation) -> DagGraph {
    let n = g.num_vertices();
    // new_to_old[new_id] = old_id.
    let new_to_old: Vec<VertexId> = match orientation {
        Orientation::ById => (0..n).collect(),
        Orientation::DegreeAsc => {
            let mut order: Vec<VertexId> = (0..n).collect();
            order.sort_by_key(|&v| (g.degree(v), v));
            order
        }
        Orientation::DegreeDesc => {
            let mut order: Vec<VertexId> = (0..n).collect();
            order.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
            order
        }
        Orientation::KCore => crate::kcore::core_decomposition(g).order,
        Orientation::Random(seed) => {
            // Fisher–Yates with a splitmix-style generator (no rand
            // dependency needed for a baseline shuffle).
            let mut order: Vec<VertexId> = (0..n).collect();
            let mut state = seed.wrapping_add(0x9E3779B97F4A7C15);
            let mut next = || {
                state = state.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^ (z >> 31)
            };
            for i in (1..n as usize).rev() {
                let j = (next() % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
            order
        }
    };
    let mut rank = vec![0u32; n as usize];
    for (new_id, &old) in new_to_old.iter().enumerate() {
        rank[old as usize] = new_id as u32;
    }

    let mut adj: Vec<Vec<VertexId>> = vec![Vec::new(); n as usize];
    for (old_u, &nu) in rank.iter().enumerate() {
        let out = &mut adj[nu as usize];
        for &old_v in g.neighbors(old_u as VertexId) {
            let nv = rank[old_v as usize];
            if nu < nv {
                out.push(nv);
            }
        }
        out.sort_unstable();
    }
    DagGraph {
        csr: Csr::from_adjacency(&adj),
        new_to_old,
        orientation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clean::clean_edges;
    use crate::types::EdgeList;

    fn star_plus_triangle() -> UndirGraph {
        // Vertex 0 is a hub (degree 5); triangle 1-2-3.
        let raw = EdgeList::new(vec![
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4),
            (0, 5),
            (1, 2),
            (2, 3),
            (1, 3),
        ]);
        clean_edges(&raw).0
    }

    const ALL: [Orientation; 5] = [
        Orientation::ById,
        Orientation::DegreeAsc,
        Orientation::DegreeDesc,
        Orientation::KCore,
        Orientation::Random(42),
    ];

    #[test]
    fn edge_count_preserved() {
        let g = star_plus_triangle();
        for o in ALL {
            let d = orient(&g, o);
            assert_eq!(d.num_edges(), g.num_edges(), "{o:?}");
            assert_eq!(d.num_vertices(), g.num_vertices());
        }
    }

    #[test]
    fn all_edges_point_up() {
        let g = star_plus_triangle();
        for o in ALL {
            let d = orient(&g, o);
            for (u, v) in d.csr().edge_iter() {
                assert!(u < v, "{o:?}: edge ({u},{v}) not ascending");
            }
        }
    }

    #[test]
    fn kcore_orientation_bounds_out_degree_by_degeneracy() {
        let raw = crate::gen::barabasi_albert(800, 4, 0.5, 12);
        let (g, _) = clean_edges(&raw);
        let degeneracy = crate::kcore::core_decomposition(&g).degeneracy;
        let d = orient(&g, Orientation::KCore);
        assert!(
            d.max_out_degree() <= degeneracy,
            "max out-degree {} exceeds degeneracy {degeneracy}",
            d.max_out_degree()
        );
        assert_eq!(crate::cpu_ref::forward_merge(&d), {
            let asc = orient(&g, Orientation::DegreeAsc);
            crate::cpu_ref::forward_merge(&asc)
        });
    }

    #[test]
    fn random_orientation_is_seed_deterministic() {
        let g = star_plus_triangle();
        let a = orient(&g, Orientation::Random(7));
        let b = orient(&g, Orientation::Random(7));
        assert_eq!(a.csr(), b.csr());
        let c = orient(&g, Orientation::Random(8));
        // Different seed almost surely shuffles differently.
        assert_ne!(
            (0..g.num_vertices())
                .map(|v| a.old_id(v))
                .collect::<Vec<_>>(),
            (0..g.num_vertices())
                .map(|v| c.old_id(v))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn degree_asc_puts_hub_last() {
        let g = star_plus_triangle();
        let d = orient(&g, Orientation::DegreeAsc);
        // The hub (old 0, degree 5) must get the largest new ID, hence
        // out-degree 0.
        let hub_new = (0..d.num_vertices()).find(|&v| d.old_id(v) == 0).unwrap();
        assert_eq!(hub_new, d.num_vertices() - 1);
        assert_eq!(d.out_degree(hub_new), 0);
    }

    #[test]
    fn degree_desc_puts_hub_first() {
        let g = star_plus_triangle();
        let d = orient(&g, Orientation::DegreeDesc);
        let hub_new = (0..d.num_vertices()).find(|&v| d.old_id(v) == 0).unwrap();
        assert_eq!(hub_new, 0);
        assert_eq!(d.out_degree(hub_new), 5);
    }

    #[test]
    fn orientation_preserves_triangle_count() {
        let g = star_plus_triangle();
        let expected = crate::cpu_ref::node_iterator(&g);
        for o in ALL {
            let d = orient(&g, o);
            assert_eq!(crate::cpu_ref::forward_merge(&d), expected, "{o:?}");
        }
    }

    #[test]
    fn edge_arrays_match_csr_order() {
        let g = star_plus_triangle();
        let d = orient(&g, Orientation::ById);
        let (src, dst) = d.edge_arrays();
        assert_eq!(src.len() as u64, d.num_edges());
        let from_iter: Vec<_> = d.csr().edge_iter().collect();
        let from_arrays: Vec<_> = src.into_iter().zip(dst).collect();
        assert_eq!(from_iter, from_arrays);
    }
}
