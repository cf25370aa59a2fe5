//! Green (2014) — "Fast Triangle Counting on the GPU".
//!
//! Edge-centric, fine-grained (Section III-B / Figure 4): a group of
//! threads processes each edge using the **GPU merge path** algorithm.
//! Parallel partition lines split the merge of the two neighbour lists
//! into equal-sized sub-merges, one per thread: every thread first
//! binary-searches its cross diagonal of the merge matrix, then runs a
//! small sequential merge over its slice.
//!
//! The paper's configuration (Section IV "Program configuration"):
//! gridSize = |E|/10, blockSize = 512, 32 threads per intersection. The
//! weakness the evaluation shows: for the many low-degree edges of real
//! graphs the partition overhead (a diagonal binary search per lane)
//! exceeds the merge itself, so Green lands at the bottom of Figure 11.

use gpu_sim::{Device, DeviceMem, KernelConfig, SimError};
use graph_data::cpu_ref;

use crate::api::{AlgoMeta, Granularity, Intersection, IteratorKind, TcAlgorithm, TcOutput};
use crate::device_graph::DeviceGraph;
use crate::util::{diagonal_search, warp_reduce_add};

const BLOCK_DIM: u32 = 512;
/// Threads cooperating on one intersection (one warp).
const GROUP: u32 = 32;

/// The Green algorithm.
#[derive(Debug, Default, Clone, Copy)]
pub struct Green;

impl TcAlgorithm for Green {
    fn meta(&self) -> AlgoMeta {
        AlgoMeta {
            name: "Green",
            reference: "Green, Yalamanchili & Munguia, IA^3 2014",
            year: 2014,
            iterator: IteratorKind::Edge,
            intersection: Intersection::Merge,
            granularity: Granularity::Fine,
        }
    }

    fn count(
        &self,
        dev: &Device,
        mem: &mut DeviceMem,
        g: &DeviceGraph,
    ) -> Result<TcOutput, SimError> {
        let counter = mem.alloc_zeroed(1, "green.counter")?;
        // gridSize = |E| / 10 per the paper's best-found configuration,
        // clamped to something sane for tiny graphs.
        let grid = (g.num_edges / 10).clamp(1, 4096);
        let cfg = KernelConfig::new(grid, BLOCK_DIM);
        let groups_total = grid * (BLOCK_DIM / GROUP);

        let stats = dev.launch(mem, cfg, |blk| {
            blk.phase(|lane| {
                // Group id across the grid; lane index within the group.
                // global_tid is u64 (huge grids don't wrap), so group
                // arithmetic stays in u64 up to the edge-index cast.
                let group = lane.global_tid() / GROUP as u64;
                let lane_in_group = lane.tid() % GROUP;
                let mut local = 0u32;
                // Groups stride over the edge list.
                let mut e = group;
                while e < g.num_edges as u64 {
                    let u = lane.ld_global(g.edge_src, e as usize);
                    let v = lane.ld_global(g.edge_dst, e as usize);
                    let a_base = lane.ld_global(g.row_offsets, u as usize);
                    let a_end = lane.ld_global(g.row_offsets, u as usize + 1);
                    let b_base = lane.ld_global(g.row_offsets, v as usize);
                    let b_end = lane.ld_global(g.row_offsets, v as usize + 1);
                    let an = a_end - a_base;
                    let bn = b_end - b_base;
                    let total = an + bn;
                    if total > 0 {
                        // Partition: this lane owns merge-path segment
                        // [d0, d1).
                        let d0 = (total * lane_in_group) / GROUP;
                        let d1 = (total * (lane_in_group + 1)) / GROUP;
                        if d1 > d0 {
                            let i0 =
                                diagonal_search(lane, g.col_indices, a_base, an, b_base, bn, d0);
                            let j0 = d0 - i0;
                            // Sequential merge of the slice, counting
                            // matches. A match at (i, j) is consumed as
                            // two path steps; attribute it to the lane
                            // whose segment contains the *first* step.
                            let (mut i, mut j) = (i0, j0);
                            let mut steps = d1 - d0;
                            while steps > 0 && i < an && j < bn {
                                let av = lane.ld_global(g.col_indices, (a_base + i) as usize);
                                let bv = lane.ld_global(g.col_indices, (b_base + j) as usize);
                                lane.compute(1);
                                match av.cmp(&bv) {
                                    std::cmp::Ordering::Equal => {
                                        local += 1;
                                        i += 1;
                                        j += 1;
                                        steps = steps.saturating_sub(2);
                                    }
                                    std::cmp::Ordering::Less => {
                                        i += 1;
                                        steps -= 1;
                                    }
                                    std::cmp::Ordering::Greater => {
                                        j += 1;
                                        steps -= 1;
                                    }
                                }
                            }
                        }
                    }
                    lane.converge();
                    e += groups_total as u64;
                }
                warp_reduce_add(lane, counter, 0, local);
            });
        })?;

        let triangles = mem.read_back(counter)[0] as u64;
        mem.free(counter)?;
        Ok(TcOutput { triangles, stats })
    }

    /// Host kernel: Green's merge-path partitioning only balances device
    /// lanes; on the CPU the same work is a plain parallel forward merge.
    fn count_cpu(&self, dag: &graph_data::DagGraph) -> u64 {
        cpu_ref::forward_parallel(dag, cpu_ref::intersect_merge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use graph_data::Orientation;

    #[test]
    fn counts_figure1_graph() {
        let n = testutil::assert_matches_reference(
            &Green,
            &testutil::figure1_edges(),
            Orientation::DegreeAsc,
        );
        assert_eq!(n, 5);
    }

    #[test]
    fn exhaustive_small_graphs() {
        testutil::exhaustive_small_graph_check(&Green);
    }

    #[test]
    fn works_under_all_orientations() {
        for o in [
            Orientation::ById,
            Orientation::DegreeAsc,
            Orientation::DegreeDesc,
        ] {
            testutil::assert_matches_reference(&Green, &testutil::figure1_edges(), o);
        }
    }

    #[test]
    fn metadata_matches_table1() {
        let m = Green.meta();
        assert_eq!(m.year, 2014);
        assert_eq!(m.iterator, IteratorKind::Edge);
        assert_eq!(m.granularity, Granularity::Fine);
    }
}
