//! Polak (2016) — "Counting triangles in large graphs on GPU".
//!
//! The GPU port of the CPU Forward algorithm (Section III-A / Figure 3):
//! **one thread per edge**, coarse-grained. The thread maps its id to an
//! edge (u, v), fetches both out-neighbour lists and merges them
//! sequentially with two pointers, bumping a local counter at every
//! match.
//!
//! Characteristics the evaluation reproduces: the least total work of the
//! corpus (a single linear merge per edge, each element loaded once) but
//! below-average warp execution efficiency (each lane's merge length is
//! `d(u) + d(v)`, so warp time is the slowest lane's) and poor coalescing
//! (each lane walks its *own* lists sequentially, so the 32 addresses a
//! warp issues per step are scattered).

use gpu_sim::{Device, DeviceMem, KernelConfig, SimError};
use graph_data::cpu_ref;

use crate::api::{AlgoMeta, Granularity, Intersection, IteratorKind, TcAlgorithm, TcOutput};
use crate::device_graph::DeviceGraph;
use crate::util::warp_reduce_add;

/// Default block size of the reference implementation.
const BLOCK_DIM: u32 = 256;

/// The Polak algorithm.
#[derive(Debug, Default, Clone, Copy)]
pub struct Polak;

impl TcAlgorithm for Polak {
    fn meta(&self) -> AlgoMeta {
        AlgoMeta {
            name: "Polak",
            reference: "Polak, IPDPSW 2016",
            year: 2016,
            iterator: IteratorKind::Edge,
            intersection: Intersection::Merge,
            granularity: Granularity::Coarse,
        }
    }

    fn count(
        &self,
        dev: &Device,
        mem: &mut DeviceMem,
        g: &DeviceGraph,
    ) -> Result<TcOutput, SimError> {
        let counter = mem.alloc_zeroed(1, "polak.counter")?;
        let grid = g.num_edges.div_ceil(BLOCK_DIM).max(1);
        let cfg = KernelConfig::new(grid, BLOCK_DIM);

        let stats = dev.launch(mem, cfg, |blk| {
            blk.phase(|lane| {
                // u64: edge-per-thread grids on billion-edge graphs
                // overflow a u32 thread id.
                let e = lane.global_tid();
                let mut local = 0u32;
                if e < g.num_edges as u64 {
                    let e = e as usize;
                    // Map tid -> edge (u, v).
                    let u = lane.ld_global(g.edge_src, e);
                    let v = lane.ld_global(g.edge_dst, e);
                    // Fetch list bounds.
                    let mut i = lane.ld_global(g.row_offsets, u as usize);
                    let u_end = lane.ld_global(g.row_offsets, u as usize + 1);
                    let mut j = lane.ld_global(g.row_offsets, v as usize);
                    let v_end = lane.ld_global(g.row_offsets, v as usize + 1);
                    // Sequential two-pointer merge.
                    if i < u_end && j < v_end {
                        let mut a = lane.ld_global(g.col_indices, i as usize);
                        let mut b = lane.ld_global(g.col_indices, j as usize);
                        loop {
                            lane.compute(1);
                            match a.cmp(&b) {
                                std::cmp::Ordering::Equal => {
                                    local += 1;
                                    i += 1;
                                    j += 1;
                                    if i >= u_end || j >= v_end {
                                        break;
                                    }
                                    a = lane.ld_global(g.col_indices, i as usize);
                                    b = lane.ld_global(g.col_indices, j as usize);
                                }
                                std::cmp::Ordering::Less => {
                                    i += 1;
                                    if i >= u_end {
                                        break;
                                    }
                                    a = lane.ld_global(g.col_indices, i as usize);
                                }
                                std::cmp::Ordering::Greater => {
                                    j += 1;
                                    if j >= v_end {
                                        break;
                                    }
                                    b = lane.ld_global(g.col_indices, j as usize);
                                }
                            }
                        }
                    }
                }
                warp_reduce_add(lane, counter, 0, local);
            });
        })?;

        let triangles = mem.read_back(counter)[0] as u64;
        mem.free(counter)?;
        Ok(TcOutput { triangles, stats })
    }

    /// Host kernel: one rayon task per vertex, sequential two-pointer
    /// merge per out-edge — the CPU Forward algorithm Polak ports.
    fn count_cpu(&self, dag: &graph_data::DagGraph) -> u64 {
        cpu_ref::forward_parallel(dag, cpu_ref::intersect_merge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_data::{clean_edges, cpu_ref, orient, EdgeList, Orientation};

    #[test]
    fn counts_figure1_graph() {
        let (g, _) = clean_edges(&EdgeList::new(vec![
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
        ]));
        let dag = orient(&g, Orientation::DegreeAsc);
        let out = Polak.run(&Device::v100(), &dag).unwrap();
        assert_eq!(out.triangles, 5);
        assert_eq!(out.triangles, cpu_ref::forward_merge(&dag));
        assert!(out.stats.counters.global_load_requests > 0);
        assert!(out.stats.kernel_cycles > 0);
    }

    #[test]
    fn empty_graph_counts_zero() {
        let (g, _) = clean_edges(&EdgeList::new(vec![(0, 1)]));
        let dag = orient(&g, Orientation::ById);
        assert_eq!(Polak.run(&Device::v100(), &dag).unwrap().triangles, 0);
    }

    #[test]
    fn exhaustive_small_graphs() {
        crate::testutil::exhaustive_small_graph_check(&Polak);
    }

    #[test]
    fn works_under_all_orientations() {
        for o in [
            Orientation::ById,
            Orientation::DegreeAsc,
            Orientation::DegreeDesc,
        ] {
            crate::testutil::assert_matches_reference(&Polak, &crate::testutil::figure1_edges(), o);
        }
    }

    #[test]
    fn metadata_matches_table1() {
        let m = Polak.meta();
        assert_eq!(m.year, 2016);
        assert_eq!(m.iterator, IteratorKind::Edge);
        assert_eq!(m.intersection, Intersection::Merge);
        assert_eq!(m.granularity, Granularity::Coarse);
    }
}
