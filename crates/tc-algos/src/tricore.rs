//! TriCore (Hu, Liu & Huang, SC 2018) — "Parallel triangle counting on
//! GPUs".
//!
//! Edge-centric, fine-grained (Section III-D / Figure 6): **one warp per
//! edge**. For each edge the *longer* neighbour list becomes an implicit
//! binary-search tree; the lanes stride over the shorter list (coalesced)
//! and each key descends the tree. The top 5 levels of the tree (31
//! probe values) are cached in a per-warp shared-memory region, so the
//! hottest probes never touch DRAM.
//!
//! The evaluation-visible trade-off: the per-edge tree-top construction
//! is pure overhead on small low-degree graphs (TriCore trails Polak
//! there) but is amortized by the many cheap lookups on large
//! high-degree graphs, where TriCore is among the leaders.

use gpu_sim::{Device, DeviceMem, KernelConfig, LaneCtx, SimError};
use graph_data::cpu_ref;

use crate::api::{AlgoMeta, Granularity, Intersection, IteratorKind, TcAlgorithm, TcOutput};
use crate::device_graph::DeviceGraph;
use crate::util::warp_reduce_add;

const BLOCK_DIM: u32 = 32;
const WARPS_PER_BLOCK: u32 = BLOCK_DIM / 32;
/// Tree levels cached in shared memory (2^5 - 1 = 31 nodes).
const CACHED_LEVELS: u32 = 5;
const CACHED_NODES: u32 = (1 << CACHED_LEVELS) - 1;

/// The TriCore algorithm.
#[derive(Debug, Default, Clone, Copy)]
pub struct TriCore;

/// Load the edge's (table, keys) segment bounds; the table is the longer
/// list. Returns (table_base, table_len, keys_base, keys_len). The loads
/// are warp-uniform (every lane reads the same words), i.e. broadcasts.
fn load_edge_lists(lane: &mut LaneCtx, g: &DeviceGraph, e: usize) -> (u32, u32, u32, u32) {
    let u = lane.ld_global(g.edge_src, e);
    let v = lane.ld_global(g.edge_dst, e);
    let u_base = lane.ld_global(g.row_offsets, u as usize);
    let u_end = lane.ld_global(g.row_offsets, u as usize + 1);
    let v_base = lane.ld_global(g.row_offsets, v as usize);
    let v_end = lane.ld_global(g.row_offsets, v as usize + 1);
    let (un, vn) = (u_end - u_base, v_end - v_base);
    lane.compute(1);
    if un >= vn {
        (u_base, un, v_base, vn)
    } else {
        (v_base, vn, u_base, un)
    }
}

/// Interval of implicit-heap node `node` (1-based) in a search over
/// `[0, n)`, following the same subdivision the descent uses.
fn heap_interval(node: u32, n: u32) -> (u32, u32) {
    let depth = 31 - node.leading_zeros();
    let (mut lo, mut hi) = (0u32, n);
    for b in (0..depth).rev() {
        if lo >= hi {
            break;
        }
        let mid = lo + (hi - lo) / 2;
        if node >> b & 1 == 1 {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    (lo, hi)
}

impl TcAlgorithm for TriCore {
    fn meta(&self) -> AlgoMeta {
        AlgoMeta {
            name: "TriCore",
            reference: "Hu, Liu & Huang, SC 2018",
            year: 2018,
            iterator: IteratorKind::Edge,
            intersection: Intersection::BinSearch,
            granularity: Granularity::Fine,
        }
    }

    fn count(
        &self,
        dev: &Device,
        mem: &mut DeviceMem,
        g: &DeviceGraph,
    ) -> Result<TcOutput, SimError> {
        let counter = mem.alloc_zeroed(1, "tricore.counter")?;
        let grid = (24 * dev.config().num_sms).min(g.num_edges.max(1));
        let warps_total = grid * WARPS_PER_BLOCK;
        let rounds = g.num_edges.div_ceil(warps_total);
        let shared_words = WARPS_PER_BLOCK * CACHED_NODES;
        let cfg = KernelConfig::new(grid, BLOCK_DIM).with_shared_words(shared_words);

        let stats = dev.launch(mem, cfg, |blk| {
            let bidx = blk.block_idx();
            let mut locals = vec![0u32; BLOCK_DIM as usize];
            for round in 0..rounds {
                // Phase A: each warp caches the top of its edge's search
                // tree; lane l fills heap node l+1.
                blk.phase(|lane| {
                    let warp_global = bidx * WARPS_PER_BLOCK + lane.warp_id();
                    let e = warp_global + round * warps_total;
                    if e >= g.num_edges || lane.lane_id() >= CACHED_NODES {
                        return;
                    }
                    let (t_base, tn, _, _) = load_edge_lists(lane, g, e as usize);
                    let node = lane.lane_id() + 1;
                    let (lo, hi) = heap_interval(node, tn);
                    lane.compute(CACHED_LEVELS); // path walk address math
                    let slot = (lane.warp_id() * CACHED_NODES + lane.lane_id()) as usize;
                    if lo < hi {
                        let mid = lo + (hi - lo) / 2;
                        let val = lane.ld_global(g.col_indices, (t_base + mid) as usize);
                        lane.st_shared(slot, val);
                    } else {
                        lane.st_shared(slot, u32::MAX);
                    }
                });
                // Phase B: lanes stride over the key list and descend the
                // tiered tree.
                blk.phase(|lane| {
                    let warp_global = bidx * WARPS_PER_BLOCK + lane.warp_id();
                    let e = warp_global + round * warps_total;
                    if e >= g.num_edges {
                        return;
                    }
                    let (t_base, tn, k_base, kn) = load_edge_lists(lane, g, e as usize);
                    let warp_shared = (lane.warp_id() * CACHED_NODES) as usize;
                    let mut cnt = 0u32;
                    let mut k = lane.lane_id();
                    while k < kn {
                        let key = lane.ld_global(g.col_indices, (k_base + k) as usize);
                        // Tiered binary search.
                        let (mut lo, mut hi) = (0u32, tn);
                        let mut node = 1u32;
                        let mut depth = 0u32;
                        while lo < hi {
                            let mid = lo + (hi - lo) / 2;
                            let val = if depth < CACHED_LEVELS {
                                lane.ld_shared(warp_shared + node as usize - 1)
                            } else {
                                lane.ld_global(g.col_indices, (t_base + mid) as usize)
                            };
                            lane.compute(1);
                            match val.cmp(&key) {
                                std::cmp::Ordering::Equal => {
                                    cnt += 1;
                                    break;
                                }
                                std::cmp::Ordering::Less => {
                                    lo = mid + 1;
                                    node = 2 * node + 1;
                                }
                                std::cmp::Ordering::Greater => {
                                    hi = mid;
                                    node *= 2;
                                }
                            }
                            depth += 1;
                        }
                        lane.converge();
                        k += 32;
                    }
                    locals[lane.tid() as usize] += cnt;
                });
            }
            blk.phase(|lane| {
                warp_reduce_add(lane, counter, 0, locals[lane.tid() as usize]);
            });
        })?;

        let triangles = mem.read_back(counter)[0] as u64;
        mem.free(counter)?;
        Ok(TcOutput { triangles, stats })
    }

    /// Host kernel: binary-search intersection per edge (the tree-top
    /// cache is a device-memory optimization with no host analogue).
    fn count_cpu(&self, dag: &graph_data::DagGraph) -> u64 {
        cpu_ref::forward_parallel(dag, cpu_ref::intersect_binsearch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use graph_data::Orientation;

    #[test]
    fn heap_interval_subdivides_consistently() {
        // Root covers everything.
        assert_eq!(heap_interval(1, 10), (0, 10));
        // Children split around mid = 5.
        assert_eq!(heap_interval(2, 10), (0, 5));
        assert_eq!(heap_interval(3, 10), (6, 10));
        // Grandchild: left of left.
        let (lo, hi) = heap_interval(4, 10);
        assert_eq!((lo, hi), (0, 2));
        // Empty interval for deep nodes of a tiny array.
        let (lo, hi) = heap_interval(8, 1);
        assert!(lo >= hi);
    }

    #[test]
    fn counts_figure1_graph() {
        let n = testutil::assert_matches_reference(
            &TriCore,
            &testutil::figure1_edges(),
            Orientation::DegreeAsc,
        );
        assert_eq!(n, 5);
    }

    #[test]
    fn exhaustive_small_graphs() {
        testutil::exhaustive_small_graph_check(&TriCore);
    }

    #[test]
    fn works_under_all_orientations() {
        for o in [
            Orientation::ById,
            Orientation::DegreeAsc,
            Orientation::DegreeDesc,
        ] {
            testutil::assert_matches_reference(&TriCore, &testutil::figure1_edges(), o);
        }
    }

    #[test]
    fn metadata_matches_table1() {
        let m = TriCore.meta();
        assert_eq!(m.year, 2018);
        assert_eq!(m.intersection, Intersection::BinSearch);
        assert_eq!(m.granularity, Granularity::Fine);
    }
}
