//! Core graph storage types.

/// Vertex identifier. `u32` throughout: the simulated device is a 32-bit
/// word machine and all datasets in the registry are far below 4 B
/// vertices.
pub type VertexId = u32;

/// A raw (possibly dirty) edge list straight out of a parser or
/// generator: may contain self-loops, duplicates, both directions of the
/// same edge, and gaps in the vertex ID space.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeList {
    pub edges: Vec<(VertexId, VertexId)>,
}

impl EdgeList {
    pub fn new(edges: Vec<(VertexId, VertexId)>) -> Self {
        EdgeList { edges }
    }

    pub fn len(&self) -> usize {
        self.edges.len()
    }

    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Largest vertex ID + 1, i.e. the size of the raw ID space.
    pub fn id_space(&self) -> u32 {
        self.edges
            .iter()
            .map(|&(u, v)| u.max(v) + 1)
            .max()
            .unwrap_or(0)
    }
}

/// Compressed sparse row adjacency: `offsets` has `num_vertices + 1`
/// entries and `targets[offsets[v]..offsets[v+1]]` are `v`'s neighbours,
/// sorted ascending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<u32>,
    targets: Vec<VertexId>,
}

impl Csr {
    /// Build a CSR from per-vertex sorted adjacency lists.
    pub fn from_adjacency(adj: &[Vec<VertexId>]) -> Self {
        let mut offsets = Vec::with_capacity(adj.len() + 1);
        let mut targets = Vec::with_capacity(adj.iter().map(Vec::len).sum());
        offsets.push(0u32);
        for list in adj {
            debug_assert!(list.windows(2).all(|w| w[0] < w[1]), "adjacency sorted");
            targets.extend_from_slice(list);
            let total: u32 = targets
                .len()
                .try_into()
                .expect("graph exceeds u32 edge-offset space");
            offsets.push(total);
        }
        Csr { offsets, targets }
    }

    /// Build directly from raw parts (used by parsers of CSR files).
    /// Panics if the parts are inconsistent.
    pub fn from_parts(offsets: Vec<u32>, targets: Vec<VertexId>) -> Self {
        assert!(!offsets.is_empty(), "offsets must have at least one entry");
        assert_eq!(offsets[0], 0, "offsets must start at zero");
        assert_eq!(
            *offsets.last().unwrap() as usize,
            targets.len(),
            "last offset must equal target count"
        );
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be non-decreasing"
        );
        Csr { offsets, targets }
    }

    pub fn num_vertices(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of stored (directed) adjacency entries.
    pub fn num_entries(&self) -> u64 {
        self.targets.len() as u64
    }

    #[inline]
    pub fn degree(&self, v: VertexId) -> u32 {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.targets[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// Start index of `v`'s list in the flat target array.
    #[inline]
    pub fn offset(&self, v: VertexId) -> u32 {
        self.offsets[v as usize]
    }

    /// The flat offsets array (for device upload).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The flat targets array (for device upload).
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// All (source, target) pairs in CSR order.
    pub fn edge_iter(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.num_vertices()).flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Membership test via binary search (lists are sorted).
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    pub fn max_degree(&self) -> u32 {
        (0..self.num_vertices())
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }
}

/// A cleaned simple undirected graph: symmetric CSR (every edge stored in
/// both directions), no self-loops, no duplicates, no isolated vertices.
/// Produced by [`crate::clean::clean_edges`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UndirGraph {
    csr: Csr,
}

impl UndirGraph {
    /// Wrap a CSR asserted (in debug builds) to be symmetric and simple.
    pub fn from_csr(csr: Csr) -> Self {
        #[cfg(debug_assertions)]
        {
            for u in 0..csr.num_vertices() {
                for &v in csr.neighbors(u) {
                    debug_assert_ne!(u, v, "self-loop in UndirGraph");
                    debug_assert!(csr.has_edge(v, u), "asymmetric edge ({u},{v})");
                }
            }
        }
        UndirGraph { csr }
    }

    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    pub fn num_vertices(&self) -> u32 {
        self.csr.num_vertices()
    }

    /// Number of undirected edges (half the stored entries).
    pub fn num_edges(&self) -> u64 {
        self.csr.num_entries() / 2
    }

    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            return 0.0;
        }
        self.csr.num_entries() as f64 / self.num_vertices() as f64
    }

    #[inline]
    pub fn degree(&self, v: VertexId) -> u32 {
        self.csr.degree(v)
    }

    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        self.csr.neighbors(v)
    }

    /// Undirected edges with `u < v`, in lexicographic order.
    pub fn undirected_edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.csr.edge_iter().filter(|&(u, v)| u < v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_csr() -> Csr {
        // 0-1, 0-2, 1-2 symmetric.
        Csr::from_adjacency(&[vec![1, 2], vec![0, 2], vec![0, 1]])
    }

    #[test]
    fn csr_shape() {
        let c = triangle_csr();
        assert_eq!(c.num_vertices(), 3);
        assert_eq!(c.num_entries(), 6);
        assert_eq!(c.degree(0), 2);
        assert_eq!(c.neighbors(1), &[0, 2]);
        assert_eq!(c.offset(2), 4);
        assert_eq!(c.max_degree(), 2);
    }

    #[test]
    fn csr_edge_iter_and_membership() {
        let c = triangle_csr();
        let edges: Vec<_> = c.edge_iter().collect();
        assert_eq!(edges.len(), 6);
        assert!(edges.contains(&(0, 1)));
        assert!(c.has_edge(2, 0));
        assert!(!c.has_edge(0, 0));
    }

    #[test]
    fn csr_from_parts_roundtrip() {
        let c = triangle_csr();
        let c2 = Csr::from_parts(c.offsets().to_vec(), c.targets().to_vec());
        assert_eq!(c, c2);
    }

    #[test]
    #[should_panic(expected = "last offset")]
    fn csr_from_parts_validates() {
        Csr::from_parts(vec![0, 5], vec![1, 2]);
    }

    #[test]
    fn undirected_graph_counts() {
        let g = UndirGraph::from_csr(triangle_csr());
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert!((g.avg_degree() - 2.0).abs() < 1e-12);
        let ue: Vec<_> = g.undirected_edges().collect();
        assert_eq!(ue, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn edge_list_id_space() {
        let e = EdgeList::new(vec![(0, 5), (2, 1)]);
        assert_eq!(e.id_space(), 6);
        assert_eq!(e.len(), 2);
        assert!(!e.is_empty());
        assert_eq!(EdgeList::default().id_space(), 0);
    }
}
