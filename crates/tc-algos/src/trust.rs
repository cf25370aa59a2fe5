//! TRUST (Pandey et al., TPDS 2021) — "Triangle counting reloaded on
//! GPUs".
//!
//! Vertex-centric, fine-grained, hash-based (Section III-H / Figure 10):
//! the marriage of Hu's strided 2-hop traversal with H-INDEX's shared-
//! memory hash tables, plus a degree-driven resource heuristic:
//!
//! * out-degree > 100  → a **block** of 1024 threads and a 1024-bucket
//!   hash table per vertex;
//! * 2 ≤ out-degree ≤ 100 → a **warp** of 32 threads and a 32-bucket
//!   table;
//! * out-degree < 2 → the vertex is skipped (it cannot head a triangle).
//!
//! For each vertex `u`, the build pass hashes `N(u)` into shared memory
//! and — standing in for the original's hash-partitioned graph layout —
//! also stashes each neighbour's (offset, degree) pair there, so the
//! probe pass walks the concatenated 2-hop stream against *shared*
//! metadata: evenly strided lanes, coalesced key loads, O(1) hash
//! probes. That combination of balanced lanes and efficient memory use
//! is exactly why TRUST tops every medium/large dataset in Figure 11;
//! the same per-vertex build cost and block-sized resource grant are
//! pure overhead on small graphs — the opening GroupTC exploits.
//!
//! Buckets deeper than the shared capacity fall back to direct binary
//! search for that vertex (standing in for the original's "virtual
//! combination" handling) so the count stays exact.

use gpu_sim::{Device, DeviceMem, KernelConfig, LaneCtx, LaunchStats, SimError};
use graph_data::cpu_ref;

use crate::api::{AlgoMeta, Granularity, Intersection, IteratorKind, TcAlgorithm, TcOutput};
use crate::device_graph::DeviceGraph;
use crate::util::{bsearch_global, warp_reduce_add};

/// Degree above which a vertex gets a whole block (paper: 100).
const BLOCK_DEGREE: u32 = 100;
/// Block mode: 1024 threads, 1024 buckets, 8 rows.
const BLOCK_MODE_DIM: u32 = 1024;
const BLOCK_BUCKETS: u32 = 1024;
const BLOCK_ROWS: u32 = 8;
/// Neighbour-metadata entries cached in shared memory in block mode
/// (bounded by the 48 KB budget; longer lists spill to global offsets).
const BLOCK_META_CAP: u32 = 1500;
/// Warp mode: one warp and a 32-bucket, 8-row table per vertex; the
/// metadata cache covers the whole list (degree <= 100 by definition).
const WARP_MODE_DIM: u32 = 32;
const WARP_BUCKETS: u32 = 32;
const WARP_ROWS: u32 = 8;
const WARP_META_CAP: u32 = BLOCK_DEGREE;

/// The TRUST algorithm.
#[derive(Debug, Default, Clone, Copy)]
pub struct Trust;

impl TcAlgorithm for Trust {
    fn meta(&self) -> AlgoMeta {
        AlgoMeta {
            name: "TRUST",
            reference: "Pandey et al., TPDS 2021",
            year: 2021,
            iterator: IteratorKind::Vertex,
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
        // Host-side classification (launch planning) of every pivot.
        let mut high = Vec::new();
        let mut low = Vec::new();
        for v in 0..g.num_vertices {
            let d = g.host_out_degree(v);
            if d > BLOCK_DEGREE {
                high.push(v);
            } else if d >= 2 {
                low.push(v);
            }
        }
        let counter = mem.alloc_zeroed(1, "trust.counter")?;
        let mut stats = LaunchStats::default();

        if !high.is_empty() {
            let list = mem.alloc_from_slice(&high, "trust.high_vertices")?;
            stats += run_mode(dev, mem, g, list, high.len() as u32, counter, Mode::Block)?;
            mem.free(list)?;
        }
        if !low.is_empty() {
            let list = mem.alloc_from_slice(&low, "trust.warp_vertices")?;
            stats += run_mode(dev, mem, g, list, low.len() as u32, counter, Mode::Warp)?;
            mem.free(list)?;
        }

        let triangles = mem.read_back(counter)[0] as u64;
        mem.free(counter)?;
        Ok(TcOutput { triangles, stats })
    }

    /// Host kernel: vertex-iterator hashing with TRUST's warp/block mode
    /// switch — vertices above the block-degree threshold hash into the
    /// wide table, the rest into the 32-bucket one.
    fn count_cpu(&self, dag: &graph_data::DagGraph) -> u64 {
        cpu_ref::forward_parallel(dag, |a, b| {
            let buckets = if a.len() as u32 > BLOCK_DEGREE {
                BLOCK_BUCKETS
            } else {
                WARP_BUCKETS
            };
            cpu_ref::intersect_hash(a, b, buckets as usize)
        })
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Warp,
    Block,
}

struct ModeGeom {
    block_dim: u32,
    buckets: u32,
    rows: u32,
    meta_cap: u32,
}

impl Mode {
    fn geom(self) -> ModeGeom {
        match self {
            Mode::Warp => ModeGeom {
                block_dim: WARP_MODE_DIM,
                buckets: WARP_BUCKETS,
                rows: WARP_ROWS,
                meta_cap: WARP_META_CAP,
            },
            Mode::Block => ModeGeom {
                block_dim: BLOCK_MODE_DIM,
                buckets: BLOCK_BUCKETS,
                rows: BLOCK_ROWS,
                meta_cap: BLOCK_META_CAP,
            },
        }
    }
}

/// One launch of either mode: each block takes vertices from `list` in a
/// grid-stride loop, builds the vertex's hash table (and neighbour
/// metadata cache), then probes the 2-hop stream.
fn run_mode(
    dev: &Device,
    mem: &DeviceMem,
    g: &DeviceGraph,
    list: gpu_sim::BufId,
    n: u32,
    counter: gpu_sim::BufId,
    mode: Mode,
) -> Result<LaunchStats, SimError> {
    let geom = mode.geom();
    let ModeGeom {
        block_dim,
        buckets,
        rows,
        meta_cap,
    } = geom;
    // Shared layout: len[buckets] | elems[buckets*rows] | flag | meta.
    let flag_at = (buckets * (1 + rows)) as usize;
    let meta_at = flag_at + 1;
    let shared_words = meta_at as u32 + 2 * meta_cap;
    let grid = match mode {
        Mode::Warp => (24 * dev.config().num_sms).min(n.max(1)),
        Mode::Block => n.clamp(1, 2 * dev.config().num_sms),
    };
    let rounds = n.div_ceil(grid);
    let cfg = KernelConfig::new(grid, block_dim).with_shared_words(shared_words);

    dev.launch(mem, cfg, |blk| {
        let bidx = blk.block_idx();
        let mut locals = vec![0u32; block_dim as usize];
        for round in 0..rounds {
            let i = bidx + round * grid;
            // Clear bucket lengths and the overflow flag.
            blk.phase(|lane| {
                let mut b = lane.tid();
                while b < buckets {
                    lane.st_shared(b as usize, 0);
                    b += block_dim;
                }
                if lane.tid() == 0 {
                    lane.st_shared(flag_at, 0);
                }
            });
            // Build: hash N(u) and stash each neighbour's (base, degree).
            blk.phase(|lane| {
                if i >= n {
                    return;
                }
                let u = lane.ld_global(list, i as usize);
                let base = lane.ld_global(g.row_offsets, u as usize);
                let un = lane.ld_global(g.row_offsets, u as usize + 1) - base;
                let mut k = lane.tid();
                while k < un {
                    let x = lane.ld_global(g.col_indices, (base + k) as usize);
                    let bucket = x % buckets;
                    lane.compute(1);
                    let row = lane.atomic_add_shared(bucket as usize, 1);
                    if row < rows {
                        lane.st_shared((buckets + row * buckets + bucket) as usize, x);
                    } else {
                        lane.st_shared(flag_at, 1);
                    }
                    if k < meta_cap {
                        let vb = lane.ld_global(g.row_offsets, x as usize);
                        let vd = lane.ld_global(g.row_offsets, x as usize + 1) - vb;
                        lane.st_shared(meta_at + 2 * k as usize, vb);
                        lane.st_shared(meta_at + 2 * k as usize + 1, vd);
                    }
                    lane.converge();
                    k += block_dim;
                }
            });
            // Probe: evenly strided walk of the 2-hop stream against the
            // shared metadata and hash table.
            blk.phase(|lane| {
                if i >= n {
                    return;
                }
                let u = lane.ld_global(list, i as usize);
                let base = lane.ld_global(g.row_offsets, u as usize);
                let un = lane.ld_global(g.row_offsets, u as usize + 1) - base;
                let overflowed = lane.ld_shared(flag_at) != 0;
                let meta = |lane: &mut LaneCtx, k: u32| -> (u32, u32) {
                    if k < meta_cap {
                        (
                            lane.ld_shared(meta_at + 2 * k as usize),
                            lane.ld_shared(meta_at + 2 * k as usize + 1),
                        )
                    } else {
                        let x = lane.ld_global(g.col_indices, (base + k) as usize);
                        let vb = lane.ld_global(g.row_offsets, x as usize);
                        let vd = lane.ld_global(g.row_offsets, x as usize + 1) - vb;
                        (vb, vd)
                    }
                };
                let mut cnt = 0u32;
                let mut u_point = 0u32;
                let mut offset = lane.tid();
                while u_point < un {
                    let (mut vb, mut vd) = meta(lane, u_point);
                    while u_point < un && offset >= vd {
                        lane.compute(1);
                        offset -= vd;
                        u_point += 1;
                        if u_point < un {
                            let m = meta(lane, u_point);
                            vb = m.0;
                            vd = m.1;
                        }
                    }
                    if u_point < un {
                        let w = lane.ld_global(g.col_indices, (vb + offset) as usize);
                        let hit = if overflowed {
                            bsearch_global(lane, g.col_indices, base, base + un, w)
                        } else {
                            let bucket = w % buckets;
                            lane.compute(1);
                            let len = lane.ld_shared(bucket as usize);
                            let mut found = false;
                            for row in 0..len.min(rows) {
                                let x = lane.ld_shared((buckets + row * buckets + bucket) as usize);
                                lane.compute(1);
                                if x == w {
                                    found = true;
                                    break;
                                }
                            }
                            found
                        };
                        if hit {
                            cnt += 1;
                        }
                    }
                    lane.converge();
                    offset += block_dim;
                }
                locals[lane.tid() as usize] += cnt;
            });
        }
        blk.phase(|lane| {
            warp_reduce_add(lane, counter, 0, locals[lane.tid() as usize]);
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::run_checked;
    use crate::testutil;
    use graph_data::{clean_edges, cpu_ref, gen, orient, Orientation};

    #[test]
    fn counts_figure1_graph() {
        let n = testutil::assert_matches_reference(
            &Trust,
            &testutil::figure1_edges(),
            Orientation::DegreeAsc,
        );
        assert_eq!(n, 5);
    }

    #[test]
    fn exhaustive_small_graphs() {
        testutil::exhaustive_small_graph_check(&Trust);
    }

    #[test]
    fn works_under_all_orientations() {
        for o in [
            Orientation::ById,
            Orientation::DegreeAsc,
            Orientation::DegreeDesc,
        ] {
            testutil::assert_matches_reference(&Trust, &testutil::figure1_edges(), o);
        }
    }

    #[test]
    fn block_mode_is_exercised_on_hub_graphs() {
        // DegreeDesc orientation gives the hub an out-degree above the
        // block threshold, forcing the 1024-thread path.
        let raw = gen::barabasi_albert(600, 8, 0.4, 33);
        let (g, _) = clean_edges(&raw);
        let dag = orient(&g, Orientation::DegreeDesc);
        assert!(
            dag.max_out_degree() > BLOCK_DEGREE,
            "fixture must exceed the block threshold"
        );
        let expected = cpu_ref::forward_merge(&dag);
        assert_eq!(run_checked(&Trust, &dag).unwrap().triangles, expected);
    }

    #[test]
    fn block_mode_beyond_meta_cache_is_exact() {
        // A hub with out-degree above BLOCK_META_CAP forces the global
        // metadata fallback path.
        let mut edges = Vec::new();
        for k in 1..=(BLOCK_META_CAP + 200) {
            edges.push((0u32, k));
        }
        // A few triangles through the hub.
        for k in (1..200u32).step_by(2) {
            edges.push((k, k + 1));
        }
        let (g, _) = clean_edges(&graph_data::EdgeList::new(edges));
        let dag = orient(&g, Orientation::DegreeDesc);
        assert!(dag.max_out_degree() > BLOCK_META_CAP);
        let expected = cpu_ref::forward_merge(&dag);
        assert_eq!(run_checked(&Trust, &dag).unwrap().triangles, expected);
    }

    #[test]
    fn overflow_fallback_stays_exact() {
        // A warp-mode vertex whose bucket depth exceeds WARP_ROWS:
        // neighbours congruent mod 32 via a dense ID space.
        let mut edges = vec![];
        for k in 1..=10u32 {
            edges.push((0, 32 * k));
        }
        edges.push((32, 64));
        for i in 0..320u32 {
            edges.push((i, i + 1));
        }
        let (g, _) = clean_edges(&graph_data::EdgeList::new(edges));
        let dag = orient(&g, Orientation::ById);
        let expected = cpu_ref::forward_merge(&dag);
        assert_eq!(run_checked(&Trust, &dag).unwrap().triangles, expected);
    }

    #[test]
    fn metadata_matches_table1() {
        let m = Trust.meta();
        assert_eq!(m.year, 2021);
        assert_eq!(m.iterator, IteratorKind::Vertex);
        assert_eq!(m.intersection, Intersection::Hash);
        assert_eq!(m.granularity, Granularity::Fine);
    }
}
