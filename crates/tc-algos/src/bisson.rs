//! Bisson & Fatica (2017) — "High performance exact triangle counting on
//! GPUs".
//!
//! Vertex-centric bitmap algorithm (Section III-C / Figure 5). For every
//! vertex `u` a bitmap over the vertex-ID space marks the 1-hop
//! out-neighbours (built with atomic OR); the 2-hop lists are then
//! scanned, each member of `N(u)` handled by **one thread** walking that
//! neighbour's list and testing bits. After the scan the set bits are
//! cleared for the next vertex.
//!
//! Workload adaptation follows the published degree thresholds: blocks of
//! 512 threads per vertex when the average out-degree exceeds 38, 128
//! when it is between 3.8 and 38, and 32 below that (the paper's
//! thread-per-vertex regime is approximated by the smallest block — the
//! cooperative structure is identical, only the resource grant shrinks).
//! The bitmap lives in shared memory when the vertex count fits (the
//! graph-compaction variant of their 2018 update), which costs occupancy:
//! a 48 KB bitmap means one resident block per SM. That occupancy loss
//! plus the build/clear synchronization is exactly why Bisson sits at the
//! bottom of Figure 11.

use gpu_sim::{Device, DeviceMem, KernelConfig, SimError};
use graph_data::cpu_ref;

use crate::api::{AlgoMeta, Granularity, Intersection, IteratorKind, TcAlgorithm, TcOutput};
use crate::device_graph::DeviceGraph;
use crate::util::warp_reduce_add;

/// The Bisson algorithm.
#[derive(Debug, Default, Clone, Copy)]
pub struct Bisson;

impl TcAlgorithm for Bisson {
    fn meta(&self) -> AlgoMeta {
        AlgoMeta {
            name: "Bisson",
            reference: "Bisson & Fatica, TPDS 2017",
            year: 2017,
            iterator: IteratorKind::Vertex,
            intersection: Intersection::BitMap,
            granularity: Granularity::Coarse,
        }
    }

    fn count(
        &self,
        dev: &Device,
        mem: &mut DeviceMem,
        g: &DeviceGraph,
    ) -> Result<TcOutput, SimError> {
        let avg = g.avg_out_degree();
        let block_dim = if avg > 38.0 {
            512
        } else if avg > 3.8 {
            128
        } else {
            32
        };
        let nv = g.num_vertices;
        let bitmap_words = (nv as usize).div_ceil(32).max(1) as u32;
        // The bitmap lives in shared memory only when it is genuinely
        // small (<= 8 KB, keeping several blocks resident); otherwise it
        // goes to a per-block slot in a global arena, with the atomic
        // build/clear traffic that makes Bisson the slowest of the corpus.
        let use_shared = bitmap_words <= 2048;

        // When the bitmap does not fit in shared memory, every block gets
        // a slot in a global bitmap arena — the allocation that blows up
        // on large vertex counts.
        let grid = if use_shared {
            g.num_vertices.clamp(1, 2048)
        } else {
            g.num_vertices.clamp(1, 320)
        };
        let global_bitmaps = if use_shared {
            None
        } else {
            Some(mem.alloc_zeroed(bitmap_words as usize * grid as usize, "bisson.bitmaps")?)
        };
        let counter = mem.alloc_zeroed(1, "bisson.counter")?;

        let mut cfg = KernelConfig::new(grid, block_dim);
        if use_shared {
            cfg = cfg.with_shared_words(bitmap_words);
        }

        let stats = dev.launch(mem, cfg, |blk| {
            let bd = blk.block_dim();
            let slot_base = (blk.block_idx() as usize) * bitmap_words as usize;
            let mut locals = vec![0u32; bd as usize];
            if global_bitmaps.is_none() {
                // Shared memory starts as garbage on real hardware: clear
                // the block's bitmap once before the first build phase
                // (phase 3 re-clears the touched bits after each vertex).
                blk.phase(|lane| {
                    let mut w = lane.tid() as usize;
                    while w < bitmap_words as usize {
                        lane.st_shared(w, 0);
                        w += bd as usize;
                    }
                });
            }
            let mut u = blk.block_idx();
            while u < nv {
                // Phase 1: build the bitmap of N(u) with atomic ORs.
                blk.phase(|lane| {
                    let base = lane.ld_global(g.row_offsets, u as usize);
                    let end = lane.ld_global(g.row_offsets, u as usize + 1);
                    let mut k = base + lane.tid();
                    while k < end {
                        let w = lane.ld_global(g.col_indices, k as usize);
                        let word = (w / 32) as usize;
                        let bit = 1u32 << (w % 32);
                        match global_bitmaps {
                            Some(bufs) => {
                                lane.atomic_or_global(bufs, slot_base + word, bit);
                            }
                            None => {
                                lane.atomic_or_shared(word, bit);
                            }
                        }
                        k += bd;
                    }
                });
                // Phase 2: one thread per member of N(u) walks that
                // member's own list and tests bits.
                blk.phase(|lane| {
                    let base = lane.ld_global(g.row_offsets, u as usize);
                    let end = lane.ld_global(g.row_offsets, u as usize + 1);
                    let mut cnt = 0u32;
                    let mut k = base + lane.tid();
                    while k < end {
                        let v = lane.ld_global(g.col_indices, k as usize);
                        let v_base = lane.ld_global(g.row_offsets, v as usize);
                        let v_end = lane.ld_global(g.row_offsets, v as usize + 1);
                        for p in v_base..v_end {
                            let w = lane.ld_global(g.col_indices, p as usize);
                            let word = (w / 32) as usize;
                            lane.compute(1);
                            let bits = match global_bitmaps {
                                Some(bufs) => lane.ld_global(bufs, slot_base + word),
                                None => lane.ld_shared(word),
                            };
                            if bits >> (w % 32) & 1 == 1 {
                                cnt += 1;
                            }
                        }
                        lane.converge();
                        k += bd;
                    }
                    locals[lane.tid() as usize] += cnt;
                });
                // Phase 3: clear the bits we set.
                blk.phase(|lane| {
                    let base = lane.ld_global(g.row_offsets, u as usize);
                    let end = lane.ld_global(g.row_offsets, u as usize + 1);
                    let mut k = base + lane.tid();
                    while k < end {
                        let w = lane.ld_global(g.col_indices, k as usize);
                        let word = (w / 32) as usize;
                        let mask = !(1u32 << (w % 32));
                        match global_bitmaps {
                            Some(bufs) => {
                                lane.atomic_and_global(bufs, slot_base + word, mask);
                            }
                            None => {
                                lane.atomic_and_shared(word, mask);
                            }
                        }
                        k += bd;
                    }
                });
                u += blk.grid_dim();
            }
            blk.phase(|lane| {
                warp_reduce_add(lane, counter, 0, locals[lane.tid() as usize]);
            });
        })?;

        let triangles = mem.read_back(counter)[0] as u64;
        mem.free(counter)?;
        if let Some(bufs) = global_bitmaps {
            mem.free(bufs)?;
        }
        Ok(TcOutput { triangles, stats })
    }

    /// Host kernel: [`cpu_ref::forward_bitmap_parallel`], the GPU
    /// kernel's build/probe/clear cycle on the host. Each worker thread
    /// owns one [`cpu_ref::Bitmap`] spanning the vertex-ID space (rayon's
    /// `map_init` standing in for the per-block bitmap arena slot), marks
    /// N⁺(u) once, probes every neighbour's out-list against it, then
    /// clears only the words N⁺(u) touched.
    fn count_cpu(&self, dag: &graph_data::DagGraph) -> u64 {
        cpu_ref::forward_bitmap_parallel(dag)
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
            &Bisson,
            &testutil::figure1_edges(),
            Orientation::DegreeAsc,
        );
        assert_eq!(n, 5);
    }

    #[test]
    fn exhaustive_small_graphs() {
        testutil::exhaustive_small_graph_check(&Bisson);
    }

    #[test]
    fn works_under_all_orientations() {
        for o in [
            Orientation::ById,
            Orientation::DegreeAsc,
            Orientation::DegreeDesc,
        ] {
            testutil::assert_matches_reference(&Bisson, &testutil::figure1_edges(), o);
        }
    }
}
