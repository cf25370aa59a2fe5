//! Dataset statistics, used to emit Table II and the average-degree
//! series overlaid on Figure 11.

use crate::types::UndirGraph;

/// Summary statistics of a cleaned graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    pub vertices: u32,
    pub edges: u64,
    pub avg_degree: f64,
    pub max_degree: u32,
    pub degree_stddev: f64,
    /// Log2-binned degree histogram: `histogram[i]` = number of vertices
    /// with degree in `[2^i, 2^(i+1))`; `histogram[0]` covers degree 1.
    pub degree_histogram: Vec<u64>,
}

impl GraphStats {
    pub fn compute(g: &UndirGraph) -> Self {
        let n = g.num_vertices();
        let mut max_degree = 0u32;
        let mut sum = 0f64;
        let mut sum_sq = 0f64;
        let mut histogram: Vec<u64> = Vec::new();
        for v in 0..n {
            let d = g.degree(v);
            max_degree = max_degree.max(d);
            sum += d as f64;
            sum_sq += (d as f64) * (d as f64);
            if d > 0 {
                let bin = 31 - d.leading_zeros();
                if histogram.len() <= bin as usize {
                    histogram.resize(bin as usize + 1, 0);
                }
                histogram[bin as usize] += 1;
            }
        }
        let avg = if n == 0 { 0.0 } else { sum / n as f64 };
        let var = if n == 0 {
            0.0
        } else {
            (sum_sq / n as f64 - avg * avg).max(0.0)
        };
        GraphStats {
            vertices: n,
            edges: g.num_edges(),
            avg_degree: avg,
            max_degree,
            degree_stddev: var.sqrt(),
            degree_histogram: histogram,
        }
    }

    /// Heavy-tail indicator: ratio of max degree to average degree. Real
    /// power-law graphs have values in the hundreds; road networks near 2.
    pub fn skew(&self) -> f64 {
        if self.avg_degree == 0.0 {
            0.0
        } else {
            self.max_degree as f64 / self.avg_degree
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clean::clean_edges;
    use crate::types::EdgeList;

    #[test]
    fn stats_of_star() {
        // Star with hub degree 4.
        let (g, _) = clean_edges(&EdgeList::new(vec![(0, 1), (0, 2), (0, 3), (0, 4)]));
        let s = GraphStats::compute(&g);
        assert_eq!(s.vertices, 5);
        assert_eq!(s.edges, 4);
        assert_eq!(s.max_degree, 4);
        assert!((s.avg_degree - 8.0 / 5.0).abs() < 1e-12);
        // Degrees: 4 (bin 2), 1,1,1,1 (bin 0).
        assert_eq!(s.degree_histogram, vec![4, 0, 1]);
        assert!(s.skew() > 2.0);
    }

    #[test]
    fn stats_of_empty_graph() {
        let (g, _) = clean_edges(&EdgeList::default());
        let s = GraphStats::compute(&g);
        assert_eq!(s.vertices, 0);
        assert_eq!(s.avg_degree, 0.0);
        assert_eq!(s.skew(), 0.0);
        assert!(s.degree_histogram.is_empty());
    }

    #[test]
    fn regular_graph_has_zero_stddev() {
        // 4-cycle: all degrees 2.
        let (g, _) = clean_edges(&EdgeList::new(vec![(0, 1), (1, 2), (2, 3), (3, 0)]));
        let s = GraphStats::compute(&g);
        assert!(s.degree_stddev.abs() < 1e-9);
        assert_eq!(s.max_degree, 2);
    }
}
