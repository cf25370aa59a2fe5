//! GroupTC-H — the paper's stated future work, implemented.
//!
//! Section VI: *"The primary factor contributing to GroupTC's slightly
//! slower performance on large datasets compared to TRUST is the slower
//! search time of the binary search when compared to a hash table
//! lookup. In our upcoming research, we will focus on developing an
//! algorithm specifically designed to address this bottleneck."*
//!
//! GroupTC-H routes each edge by its intersection shape:
//!
//! * **light edges** (small search table, where a log-factor is cheap
//!   and table tops stay cached) run through the unmodified chunked
//!   GroupTC kernel, restricted to the light subset via an edge-id
//!   indirection;
//! * **heavy edges** (table of [`HASH_TABLE_MIN`]+ entries probed by
//!   [`HASH_KEYS_MIN`]+ keys — exactly where `log2(table)` dwarfs a
//!   hash lookup) go to a warp-per-edge kernel that builds a 256-bucket
//!   shared-memory hash table from the shorter side and probes with the
//!   longer, H-INDEX-style. Overflowing buckets fall back to binary
//!   search for that edge, so the count stays exact.

use gpu_sim::{Device, DeviceMem, KernelConfig, LaunchStats, SimError};
use graph_data::cpu_ref;

use crate::api::{AlgoMeta, Granularity, Intersection, IteratorKind, TcAlgorithm, TcOutput};
use crate::device_graph::DeviceGraph;
use crate::grouptc::{run_chunked, GroupTcConfig};
use crate::util::{bsearch_global, warp_reduce_add};

/// Minimum search-table length for the hash path.
pub const HASH_TABLE_MIN: u32 = 256;
/// Minimum key count for the hash path (few keys can't amortize the
/// table build).
pub const HASH_KEYS_MIN: u32 = 32;

const BUCKETS: u32 = 256;
/// Rows per bucket in shared memory; deeper buckets trigger the exact
/// binary-search fallback.
const ROWS: u32 = 16;

/// The hybrid GroupTC + hash algorithm.
#[derive(Debug, Default, Clone, Copy)]
pub struct GroupTcHybrid {
    pub config: GroupTcConfig,
}

impl GroupTcHybrid {
    pub fn new(config: GroupTcConfig) -> Self {
        GroupTcHybrid { config }
    }

    /// Host-side split (launch planning): (light edge ids, heavy edge
    /// ids) under the same table-flipping rule the kernels apply.
    pub fn split_edges(&self, g: &DeviceGraph) -> (Vec<u32>, Vec<u32>) {
        let mut light = Vec::new();
        let mut heavy = Vec::new();
        for e in 0..g.num_edges {
            let u = g.host_src[e as usize];
            let v = g.host_dst[e as usize];
            let u_end = g.host_offsets[u as usize + 1];
            let su_len = if self.config.partial_two_hop {
                u_end - (e + 1)
            } else {
                u_end - g.host_offsets[u as usize]
            };
            let v_len = g.host_out_degree(v);
            let take_u = !self.config.flip_tables || su_len * 2 >= v_len;
            let (k_len, t_len) = if take_u {
                (v_len, su_len)
            } else {
                (su_len, v_len)
            };
            if t_len >= HASH_TABLE_MIN && k_len >= HASH_KEYS_MIN {
                heavy.push(e);
            } else {
                light.push(e);
            }
        }
        (light, heavy)
    }
}

impl TcAlgorithm for GroupTcHybrid {
    fn meta(&self) -> AlgoMeta {
        AlgoMeta {
            name: "GroupTC-H",
            reference: "this reproduction; the paper's Section VI future work",
            year: 2024,
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
        let (light, heavy) = self.split_edges(g);
        let counter = mem.alloc_zeroed(1, "grouptc_h.counter")?;
        let mut stats = LaunchStats::default();
        if !light.is_empty() {
            if light.len() as u32 == g.num_edges {
                stats += run_chunked(dev, mem, g, self.config, None, counter)?;
            } else {
                let ids = mem.alloc_from_slice(&light, "grouptc_h.light_ids")?;
                stats += run_chunked(
                    dev,
                    mem,
                    g,
                    self.config,
                    Some((ids, light.len() as u32)),
                    counter,
                )?;
                mem.free(ids)?;
            }
        }
        if !heavy.is_empty() {
            let ids = mem.alloc_from_slice(&heavy, "grouptc_h.heavy_ids")?;
            stats += hash_pass(dev, mem, g, self.config, ids, heavy.len() as u32, counter)?;
            mem.free(ids)?;
        }
        let triangles = mem.read_back(counter)[0] as u64;
        mem.free(counter)?;
        Ok(TcOutput { triangles, stats })
    }

    /// Host kernel: the same light/heavy routing as the device split —
    /// edges whose search table clears the hash thresholds intersect via
    /// a chained hash, the rest via binary search.
    fn count_cpu(&self, dag: &graph_data::DagGraph) -> u64 {
        cpu_ref::forward_parallel(dag, |a, b| {
            let keys = a.len().min(b.len()) as u32;
            let table = a.len().max(b.len()) as u32;
            if table >= HASH_TABLE_MIN && keys >= HASH_KEYS_MIN {
                cpu_ref::intersect_hash(a, b, BUCKETS as usize)
            } else {
                cpu_ref::intersect_binsearch(a, b)
            }
        })
    }
}

/// Warp-per-heavy-edge hash kernel: build a 256-bucket table from the
/// shorter side in shared memory, probe with the longer side, coalesced.
fn hash_pass(
    dev: &Device,
    mem: &DeviceMem,
    g: &DeviceGraph,
    cfg: GroupTcConfig,
    edge_ids: gpu_sim::BufId,
    n_edges: u32,
    counter: gpu_sim::BufId,
) -> Result<LaunchStats, SimError> {
    let grid = (24 * dev.num_sms).min(n_edges.max(1));
    let rounds = n_edges.div_ceil(grid);
    // len[256] + ROWS rows of 256 + overflow flag.
    let shared_words = BUCKETS * (1 + ROWS) + 1;
    let overflow_flag = (BUCKETS * (1 + ROWS)) as usize;
    let launch = KernelConfig::new(grid, 32).with_shared_words(shared_words);

    // Resolve the (key, table) sides exactly as the chunked kernel does.
    let sides = move |lane: &mut gpu_sim::LaneCtx, e: u32| -> (u32, u32, u32, u32) {
        let u = lane.ld_global(g.edge_src, e as usize);
        let v = lane.ld_global(g.edge_dst, e as usize);
        let u_end = lane.ld_global(g.row_offsets, u as usize + 1);
        let (su_base, su_len) = if cfg.partial_two_hop {
            (e + 1, u_end - (e + 1))
        } else {
            let u_base = lane.ld_global(g.row_offsets, u as usize);
            (u_base, u_end - u_base)
        };
        let v_base = lane.ld_global(g.row_offsets, v as usize);
        let v_len = lane.ld_global(g.row_offsets, v as usize + 1) - v_base;
        lane.compute(1);
        let take_u = !cfg.flip_tables || su_len * 2 >= v_len;
        if take_u {
            (v_base, v_len, su_base, su_len)
        } else {
            (su_base, su_len, v_base, v_len)
        }
    };

    dev.launch(mem, launch, |blk| {
        let bidx = blk.block_idx();
        let mut locals = [0u32; 32];
        for round in 0..rounds {
            let i = bidx + round * grid;
            // Clear bucket lengths + flag.
            blk.phase(|lane| {
                let mut b = lane.tid();
                while b < BUCKETS {
                    lane.st_shared(b as usize, 0);
                    b += 32;
                }
                if lane.tid() == 0 {
                    lane.st_shared(overflow_flag, 0);
                }
            });
            // Build the table from the *table* side (the hash replaces
            // the binary search over it).
            blk.phase(|lane| {
                if i >= n_edges {
                    return;
                }
                let e = lane.ld_global(edge_ids, i as usize);
                let (_, _, t_base, t_len) = sides(lane, e);
                let mut k = lane.lane_id();
                while k < t_len {
                    let x = lane.ld_global(g.col_indices, (t_base + k) as usize);
                    let bucket = x % BUCKETS;
                    lane.compute(1);
                    let row = lane.atomic_add_shared(bucket as usize, 1);
                    if row < ROWS {
                        lane.st_shared((BUCKETS + row * BUCKETS + bucket) as usize, x);
                    } else {
                        lane.st_shared(overflow_flag, 1);
                    }
                    lane.converge();
                    k += 32;
                }
            });
            // Probe with the key side.
            blk.phase(|lane| {
                if i >= n_edges {
                    return;
                }
                let e = lane.ld_global(edge_ids, i as usize);
                let (k_base, k_len, t_base, t_len) = sides(lane, e);
                let overflowed = lane.ld_shared(overflow_flag) != 0;
                let mut cnt = 0u32;
                let mut k = lane.lane_id();
                while k < k_len {
                    let key = lane.ld_global(g.col_indices, (k_base + k) as usize);
                    let hit = if overflowed {
                        bsearch_global(lane, g.col_indices, t_base, t_base + t_len, key)
                    } else {
                        let bucket = key % BUCKETS;
                        lane.compute(1);
                        let len = lane.ld_shared(bucket as usize);
                        let mut found = false;
                        for row in 0..len.min(ROWS) {
                            let x = lane.ld_shared((BUCKETS + row * BUCKETS + bucket) as usize);
                            lane.compute(1);
                            if x == key {
                                found = true;
                                break;
                            }
                        }
                        found
                    };
                    if hit {
                        cnt += 1;
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
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{conformance, testutil};
    use graph_data::{clean_edges, cpu_ref, gen, orient, Orientation};

    #[test]
    fn exhaustive_small_graphs() {
        testutil::exhaustive_small_graph_check(&GroupTcHybrid::default());
    }

    /// A graph guaranteed to exercise the hash path: two interconnected
    /// hub clusters give edges whose flipped table exceeds the threshold.
    /// Returns the cleaned graph (for the oracle) and its DAG.
    fn heavy_fixture() -> (graph_data::UndirGraph, graph_data::DagGraph) {
        let raw = gen::barabasi_albert(4000, 40, 0.4, 99);
        let (g, _) = clean_edges(&raw);
        let dag = orient(&g, Orientation::DegreeDesc);
        (g, dag)
    }

    /// The conformance corpus never produces a heavy edge, so this is the
    /// wall that reaches the hash kernel: race detector, SimSan, SimLint
    /// and the leak check on, and sim ≡ cpu ≡ node-iterator.
    #[test]
    fn hash_path_is_exercised_and_exact() {
        let (g, dag) = heavy_fixture();
        let hybrid = GroupTcHybrid::default();
        let dev = gpu_sim::Device::v100();
        let mut mem = gpu_sim::DeviceMem::new(&dev);
        let dg = crate::device_graph::DeviceGraph::upload(&dag, &mut mem).unwrap();
        let (light, heavy) = hybrid.split_edges(&dg);
        assert!(!heavy.is_empty(), "fixture must produce heavy edges");
        assert_eq!(light.len() + heavy.len(), dg.num_edges as usize);
        let out = conformance::run_checked(&hybrid, &dag).unwrap();
        assert!(out.stats.counters.race_checks > 0);
        assert!(out.stats.counters.sanitizer_checks > 0);
        assert!(out.stats.counters.lint_checks > 0);
        let expected = cpu_ref::node_iterator(&g);
        assert_eq!(out.triangles, expected, "sim");
        assert_eq!(hybrid.count_cpu(&dag), expected, "count_cpu");
    }

    #[test]
    fn agrees_with_grouptc_everywhere() {
        for seed in [1u64, 2, 3] {
            let raw = gen::rmat(12, 40_000, 0.57, 0.19, 0.19, 0.05, seed);
            let (g, _) = clean_edges(&raw);
            let dag = orient(&g, Orientation::DegreeAsc);
            let expected = cpu_ref::forward_merge(&dag);
            assert_eq!(
                conformance::run_checked(&GroupTcHybrid::default(), &dag)
                    .unwrap()
                    .triangles,
                expected
            );
        }
    }

    #[test]
    fn split_is_stable_and_partitioning() {
        let (_, dag) = heavy_fixture();
        let dev = gpu_sim::Device::v100();
        let mut mem = gpu_sim::DeviceMem::new(&dev);
        let dg = crate::device_graph::DeviceGraph::upload(&dag, &mut mem).unwrap();
        let hybrid = GroupTcHybrid::default();
        let (l1, h1) = hybrid.split_edges(&dg);
        let (l2, h2) = hybrid.split_edges(&dg);
        assert_eq!(l1, l2);
        assert_eq!(h1, h2);
        // No edge in both lists.
        let mut all: Vec<u32> = l1.iter().chain(h1.iter()).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), dg.num_edges as usize);
    }
}
