//! H-INDEX (Pandey et al., HPEC 2019) — "Hash-indexing for parallel
//! triangle counting on GPUs".
//!
//! Edge-centric, fine-grained (Section III-G / Figure 9): **one warp per
//! edge** (the paper's evaluation only uses the warp configuration — the
//! block one produced incorrect results). Per edge, a 32-bucket hash
//! table is built from the *shorter* neighbour list; the lanes then
//! stride the longer list and probe. The table is stored **row-major**
//! ("row-order"): the i-th element of all buckets is contiguous, so
//! lanes probing different buckets at the same row coalesce. The first
//! `SHARED_ROWS` rows live in shared memory; deeper rows spill to a
//! global arena. A bucket deeper than `MAX_ROWS` is a hard failure —
//! the fixed-size table is exactly what breaks H-INDEX on the large
//! high-degree datasets (the paper's red crosses / "too many hash
//! collisions").

use gpu_sim::{Device, DeviceMem, KernelConfig, SimError};
use graph_data::cpu_ref;

use crate::api::{AlgoMeta, Granularity, Intersection, IteratorKind, TcAlgorithm, TcOutput};
use crate::device_graph::DeviceGraph;
use crate::util::warp_reduce_add;

const BLOCK_DIM: u32 = 32;
const WARPS_PER_BLOCK: u32 = BLOCK_DIM / 32;
const BUCKETS: u32 = 32;
/// Hash-table rows kept in shared memory.
const SHARED_ROWS: u32 = 4;
/// Total row capacity (shared + global arena); beyond this the
/// implementation aborts, like the original's fixed-size table.
const MAX_ROWS: u32 = 64;

/// The H-INDEX algorithm.
#[derive(Debug, Default, Clone, Copy)]
pub struct HIndex;

impl TcAlgorithm for HIndex {
    fn meta(&self) -> AlgoMeta {
        AlgoMeta {
            name: "H-INDEX",
            reference: "Pandey et al., HPEC 2019",
            year: 2019,
            iterator: IteratorKind::Edge,
            intersection: Intersection::Hash,
            granularity: Granularity::Fine,
        }
    }

    fn count(
        &self,
        dev: &Device,
        mem: &mut DeviceMem,
        g: &DeviceGraph,
    ) -> Result<TcOutput, SimError> {
        let counter = mem.alloc_zeroed(1, "hindex.counter")?;
        let grid = (24 * dev.config().num_sms).min(g.num_edges.max(1));
        let warps_total = grid * WARPS_PER_BLOCK;
        let rounds = g.num_edges.div_ceil(warps_total);
        // Per-warp shared: len[32] + SHARED_ROWS rows of 32 (row-major).
        let warp_shared_words = BUCKETS * (1 + SHARED_ROWS);
        let cfg = KernelConfig::new(grid, BLOCK_DIM)
            .with_shared_words(WARPS_PER_BLOCK * warp_shared_words);
        // Global spill arena: (MAX_ROWS - SHARED_ROWS) rows x 32 buckets
        // per concurrent warp. This is the big fixed allocation that,
        // together with deep buckets, makes H-INDEX fragile at scale.
        let arena_rows = MAX_ROWS - SHARED_ROWS;
        let arena = mem.alloc_zeroed(
            (warps_total * BUCKETS * arena_rows) as usize,
            "hindex.spill_arena",
        )?;

        let stats = dev.launch(mem, cfg, |blk| {
            let bidx = blk.block_idx();
            let mut locals = vec![0u32; BLOCK_DIM as usize];
            for round in 0..rounds {
                // Reset bucket lengths (lane l clears len[l]); a separate
                // phase so no lane's insertions race with the reset.
                blk.phase(|lane| {
                    let warp_base = (lane.warp_id() * warp_shared_words) as usize;
                    lane.st_shared(warp_base + lane.lane_id() as usize, 0);
                });
                // Build: lanes stride the shorter list and insert.
                blk.phase(|lane| {
                    let warp_global = bidx * WARPS_PER_BLOCK + lane.warp_id();
                    let e = warp_global + round * warps_total;
                    if e >= g.num_edges {
                        return;
                    }
                    let warp_base = (lane.warp_id() * warp_shared_words) as usize;
                    let (b_base, bn, _, _) = shorter_longer(lane, g, e as usize);
                    let mut i = lane.lane_id();
                    while i < bn {
                        let x = lane.ld_global(g.col_indices, (b_base + i) as usize);
                        let bucket = x % BUCKETS;
                        lane.compute(1);
                        let row = lane.atomic_add_shared(warp_base + bucket as usize, 1);
                        if row < SHARED_ROWS {
                            // Row-major shared slot.
                            let slot = warp_base + (BUCKETS + row * BUCKETS + bucket) as usize;
                            lane.st_shared(slot, x);
                        } else if row < MAX_ROWS {
                            let slot = (warp_global * BUCKETS * arena_rows
                                + (row - SHARED_ROWS) * BUCKETS
                                + bucket) as usize;
                            lane.st_global(arena, slot, x);
                        } else {
                            lane.fault(format!(
                                "H-INDEX hash bucket overflow: bucket depth > {MAX_ROWS}"
                            ));
                            return;
                        }
                        lane.converge();
                        i += 32;
                    }
                });
                // Probe: lanes stride the longer list.
                blk.phase(|lane| {
                    let warp_global = bidx * WARPS_PER_BLOCK + lane.warp_id();
                    let e = warp_global + round * warps_total;
                    if e >= g.num_edges {
                        return;
                    }
                    let warp_base = (lane.warp_id() * warp_shared_words) as usize;
                    let (_, _, q_base, qn) = shorter_longer(lane, g, e as usize);
                    let mut cnt = 0u32;
                    let mut i = lane.lane_id();
                    while i < qn {
                        let key = lane.ld_global(g.col_indices, (q_base + i) as usize);
                        let bucket = key % BUCKETS;
                        lane.compute(1);
                        let len = lane.ld_shared(warp_base + bucket as usize);
                        for row in 0..len.min(MAX_ROWS) {
                            let x = if row < SHARED_ROWS {
                                lane.ld_shared(
                                    warp_base + (BUCKETS + row * BUCKETS + bucket) as usize,
                                )
                            } else {
                                lane.ld_global(
                                    arena,
                                    (warp_global * BUCKETS * arena_rows
                                        + (row - SHARED_ROWS) * BUCKETS
                                        + bucket) as usize,
                                )
                            };
                            lane.compute(1);
                            if x == key {
                                cnt += 1;
                                break;
                            }
                        }
                        lane.converge();
                        i += 32;
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
        mem.free(arena)?;
        Ok(TcOutput { triangles, stats })
    }

    /// Host kernel: 32-bucket chained hash per edge — the same bucket
    /// count as the warp-mode shared-memory table.
    fn count_cpu(&self, dag: &graph_data::DagGraph) -> u64 {
        cpu_ref::forward_parallel(dag, |a, b| cpu_ref::intersect_hash(a, b, BUCKETS as usize))
    }
}

/// Edge list bounds with the **shorter** list first (build side) and the
/// longer second (query side) — H-INDEX's collision-reduction choice.
fn shorter_longer(lane: &mut gpu_sim::LaneCtx, g: &DeviceGraph, e: usize) -> (u32, u32, u32, u32) {
    let u = lane.ld_global(g.edge_src, e);
    let v = lane.ld_global(g.edge_dst, e);
    let u_base = lane.ld_global(g.row_offsets, u as usize);
    let u_end = lane.ld_global(g.row_offsets, u as usize + 1);
    let v_base = lane.ld_global(g.row_offsets, v as usize);
    let v_end = lane.ld_global(g.row_offsets, v as usize + 1);
    let (un, vn) = (u_end - u_base, v_end - v_base);
    lane.compute(1);
    if un <= vn {
        (u_base, un, v_base, vn)
    } else {
        (v_base, vn, u_base, un)
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
            &HIndex,
            &testutil::figure1_edges(),
            Orientation::DegreeAsc,
        );
        assert_eq!(n, 5);
    }

    #[test]
    fn exhaustive_small_graphs() {
        testutil::exhaustive_small_graph_check(&HIndex);
    }

    #[test]
    fn works_under_all_orientations() {
        for o in [
            Orientation::ById,
            Orientation::DegreeAsc,
            Orientation::DegreeDesc,
        ] {
            testutil::assert_matches_reference(&HIndex, &testutil::figure1_edges(), o);
        }
    }

    #[test]
    fn overflows_on_pathological_bucket_depth() {
        // Two hubs joined by an edge, both adjacent to 2399 common
        // vertices: the edge (0, 1)'s *shorter* out-list has ~75 entries
        // per bucket, past the table's MAX_ROWS capacity.
        use graph_data::{clean_edges, orient, EdgeList};
        let mut edges = vec![(0u32, 1u32)];
        for k in 2..2400u32 {
            edges.push((0, k));
            edges.push((1, k));
        }
        let (g, _) = clean_edges(&EdgeList::new(edges));
        let dag = orient(&g, Orientation::ById);
        let res = HIndex.run(&gpu_sim::Device::v100(), &dag);
        assert!(
            matches!(res, Err(SimError::KernelFault(_))),
            "expected bucket overflow, got {res:?}"
        );
    }

    #[test]
    fn metadata_matches_table1() {
        let m = HIndex.meta();
        assert_eq!(m.year, 2019);
        assert_eq!(m.intersection, Intersection::Hash);
    }
}
