//! Hu, Guan & Zou (2019) — "Triangle counting on GPU using fine-grained
//! task distribution".
//!
//! Vertex-centric, fine-grained (Section III-F / Figure 8 / Algorithm 1):
//! **one block per vertex**. Step 1 caches as much of the vertex's 1-hop
//! list as fits into shared memory; step 2 walks the concatenated 2-hop
//! stream with a fixed stride — each lane owns positions
//! `tid, tid + blockDim, ...` of the stream — and binary-searches every
//! 2-hop neighbour against the cached 1-hop list.
//!
//! The strided walk gives near-perfect warp efficiency and coalescing
//! (adjacent lanes touch adjacent stream members), but — as the paper's
//! profiling shows — Hu cannot flip table and keys like TriCore, so it
//! issues the *most* global loads of the corpus: every 2-hop member of
//! every vertex is a search key.

use gpu_sim::{Device, DeviceMem, KernelConfig, LaneCtx, SimError};
use graph_data::cpu_ref;

use crate::api::{AlgoMeta, Granularity, Intersection, IteratorKind, TcAlgorithm, TcOutput};
use crate::device_graph::DeviceGraph;
use crate::util::warp_reduce_add;

const BLOCK_DIM: u32 = 256;
/// Words of shared memory per block used to cache the 1-hop list (16 KB,
/// the paper's "determining appropriate block and shared memory sizes").
const CACHE_WORDS: u32 = 4096;

/// Hu's algorithm.
#[derive(Debug, Default, Clone, Copy)]
pub struct Hu;

/// Read the `i`-th (0-based) out-neighbour of the current vertex, from
/// the shared cache when it was cached, from DRAM otherwise.
#[inline]
fn read_u_entry(lane: &mut LaneCtx, g: &DeviceGraph, base: u32, cached: u32, i: u32) -> u32 {
    if i < cached {
        lane.ld_shared(i as usize)
    } else {
        lane.ld_global(g.col_indices, (base + i) as usize)
    }
}

/// Tiered binary search of `key` in the current vertex's list of length
/// `n` (prefix `cached` in shared).
fn tiered_bsearch(
    lane: &mut LaneCtx,
    g: &DeviceGraph,
    base: u32,
    cached: u32,
    n: u32,
    key: u32,
) -> bool {
    let (mut lo, mut hi) = (0u32, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let v = read_u_entry(lane, g, base, cached, mid);
        lane.compute(1);
        match v.cmp(&key) {
            std::cmp::Ordering::Equal => return true,
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
        }
    }
    false
}

impl TcAlgorithm for Hu {
    fn meta(&self) -> AlgoMeta {
        AlgoMeta {
            name: "Hu",
            reference: "Hu, Guan & Zou, ICDEW 2019",
            year: 2019,
            iterator: IteratorKind::Vertex,
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
        let counter = mem.alloc_zeroed(1, "hu.counter")?;
        let grid = g.num_vertices.clamp(1, 4 * dev.num_sms);
        let cfg = KernelConfig::new(grid, BLOCK_DIM).with_shared_words(CACHE_WORDS);

        let stats = dev.launch(mem, cfg, |blk| {
            let bidx = blk.block_idx();
            let gdim = blk.grid_dim();
            let mut locals = vec![0u32; BLOCK_DIM as usize];
            let mut u = bidx;
            while u < g.num_vertices {
                // Step 1: cache the 1-hop neighbours of u.
                blk.phase(|lane| {
                    let base = lane.ld_global(g.row_offsets, u as usize);
                    let end = lane.ld_global(g.row_offsets, u as usize + 1);
                    let n = end - base;
                    let cached = n.min(CACHE_WORDS);
                    let mut i = lane.tid();
                    while i < cached {
                        let w = lane.ld_global(g.col_indices, (base + i) as usize);
                        lane.st_shared(i as usize, w);
                        i += BLOCK_DIM;
                    }
                });
                // Step 2: Algorithm 1 — strided fine-grained search over
                // the 2-hop stream.
                blk.phase(|lane| {
                    let base = lane.ld_global(g.row_offsets, u as usize);
                    let end = lane.ld_global(g.row_offsets, u as usize + 1);
                    let un = end - base;
                    let cached = un.min(CACHE_WORDS);
                    let mut tc = 0u32;
                    let mut u_point = 0u32; // index into N(u)
                    let mut v_offset = lane.tid();
                    while u_point < un {
                        let v = read_u_entry(lane, g, base, cached, u_point);
                        let mut v_point = lane.ld_global(g.row_offsets, v as usize);
                        let mut v_deg = lane.ld_global(g.row_offsets, v as usize + 1) - v_point;
                        // Current v exhausted for this lane's offset:
                        // move to the v that contains it.
                        while u_point < un && v_offset >= v_deg {
                            lane.compute(1);
                            v_offset -= v_deg;
                            u_point += 1;
                            if u_point < un {
                                let v2 = read_u_entry(lane, g, base, cached, u_point);
                                v_point = lane.ld_global(g.row_offsets, v2 as usize);
                                v_deg = lane.ld_global(g.row_offsets, v2 as usize + 1) - v_point;
                            }
                        }
                        if u_point < un {
                            let w = lane.ld_global(g.col_indices, (v_point + v_offset) as usize);
                            if tiered_bsearch(lane, g, base, cached, un, w) {
                                tc += 1;
                            }
                        }
                        lane.converge();
                        v_offset += BLOCK_DIM;
                    }
                    locals[lane.tid() as usize] += tc;
                });
                u += gdim;
            }
            blk.phase(|lane| {
                warp_reduce_add(lane, counter, 0, locals[lane.tid() as usize]);
            });
        })?;

        let triangles = mem.read_back(counter)[0] as u64;
        mem.free(counter)?;
        Ok(TcOutput { triangles, stats })
    }

    /// Host kernel: vertex-iterator binary search (Hu's shared-memory
    /// cache is a device optimization with no host analogue).
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
    fn counts_figure1_graph() {
        let n = testutil::assert_matches_reference(
            &Hu,
            &testutil::figure1_edges(),
            Orientation::DegreeAsc,
        );
        assert_eq!(n, 5);
    }

    #[test]
    fn exhaustive_small_graphs() {
        testutil::exhaustive_small_graph_check(&Hu);
    }

    #[test]
    fn works_under_all_orientations() {
        for o in [
            Orientation::ById,
            Orientation::DegreeAsc,
            Orientation::DegreeDesc,
        ] {
            testutil::assert_matches_reference(&Hu, &testutil::figure1_edges(), o);
        }
    }
}
