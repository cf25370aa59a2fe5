//! GroupTC — the paper's new algorithm (Section V / Figure 14).
//!
//! Edge-centric and binary-search based, but with a basic computational
//! unit no existing method uses: an **edge chunk**. A block of `n`
//! threads processes `n` *consecutive* edges; because consecutive DAG
//! edges share sources and sit in adjacent CSR slots, every lane always
//! has comparable work — even on small low-degree graphs where TRUST's
//! block-per-vertex grant starves — and neighbouring lanes touch
//! neighbouring list members, keeping loads coalesced.
//!
//! Per chunk the block proceeds in two phases:
//!
//! 1. **Metadata caching**: lane `i` resolves chunk edge `i`'s
//!    (key-list base/length, search-table base/length) into shared
//!    memory.
//! 2. **Strided probing**: the lanes stride the chunk's concatenated key
//!    stream; each key is binary-searched in its edge's table segment.
//!
//! The three published optimizations, all individually toggleable:
//!
//! * **Partial 2-hop search** — the input is oriented so `u < v` for
//!   every edge; since a closing wedge `w` satisfies `w > v`, only the
//!   suffix of `N(u)` beyond `v` needs searching. As edge `(u,v)` *is*
//!   CSR slot `e` of `u`'s list, that suffix is simply
//!   `col_indices[e+1 .. u_end)` — no lookup needed. (The paper's
//!   example: for edge (0,8) of Figure 14, no search at all.)
//! * **Resume offsets** — a lane revisiting the same edge sees strictly
//!   increasing keys, so each search resumes from the previous hit
//!   position instead of the table start.
//! * **Table flipping** — per edge, pick `u`'s suffix or `N(v)` as the
//!   search table: binary-search cost is `keys * log(table)`, so the
//!   longer side should be the table, but `u` is favoured beyond pure
//!   length (consecutive edges share `u`, so its table stays hot in
//!   cache) unless its suffix is shorter than **half** of `N(v)` — the
//!   paper's empirical 2x rule.

use gpu_sim::{Device, DeviceMem, KernelConfig, SimError};
use graph_data::cpu_ref;

use crate::api::{AlgoMeta, Granularity, Intersection, IteratorKind, TcAlgorithm, TcOutput};
use crate::device_graph::DeviceGraph;
use crate::util::warp_reduce_add;

/// Tunable knobs (defaults = the published configuration; the toggles
/// exist for the `ablation_grouptc` study of DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupTcConfig {
    /// Threads per block = edges per chunk.
    pub chunk_size: u32,
    /// Optimization 1: search only the `N(u)` suffix beyond `v`.
    pub partial_two_hop: bool,
    /// Optimization 2: resume searches from the last hit offset.
    pub resume_offset: bool,
    /// Optimization 3: per-edge search-table choice (2x rule).
    pub flip_tables: bool,
}

impl Default for GroupTcConfig {
    fn default() -> Self {
        GroupTcConfig {
            chunk_size: 256,
            partial_two_hop: true,
            resume_offset: true,
            flip_tables: true,
        }
    }
}

/// The GroupTC algorithm.
#[derive(Debug, Default, Clone, Copy)]
pub struct GroupTc {
    pub config: GroupTcConfig,
}

impl GroupTc {
    pub fn new(config: GroupTcConfig) -> Self {
        GroupTc { config }
    }

    /// A variant with one optimization disabled (for ablations).
    pub fn without_partial_two_hop() -> Self {
        GroupTc::new(GroupTcConfig {
            partial_two_hop: false,
            ..Default::default()
        })
    }

    pub fn without_resume_offset() -> Self {
        GroupTc::new(GroupTcConfig {
            resume_offset: false,
            ..Default::default()
        })
    }

    pub fn without_flip_tables() -> Self {
        GroupTc::new(GroupTcConfig {
            flip_tables: false,
            ..Default::default()
        })
    }
}

/// Shared-memory slots per cached edge: key base, table base, table len
/// (key lengths live in the prefix-sum region).
const META: u32 = 3;

impl TcAlgorithm for GroupTc {
    fn meta(&self) -> AlgoMeta {
        AlgoMeta {
            name: "GroupTC",
            reference: "this paper, Section V",
            year: 2024,
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
        let counter = mem.alloc_zeroed(1, "grouptc.counter")?;
        let stats = run_chunked(dev, mem, g, self.config, None, counter)?;
        let triangles = mem.read_back(counter)[0] as u64;
        mem.free(counter)?;
        Ok(TcOutput { triangles, stats })
    }

    /// Host kernel: binary-search intersection per edge. The chunked
    /// group processing, resume offsets and table flipping exist to keep
    /// device lanes busy and caches hot; the host analogue is the plain
    /// parallel binary-search forward count.
    fn count_cpu(&self, dag: &graph_data::DagGraph) -> u64 {
        cpu_ref::forward_parallel(dag, cpu_ref::intersect_binsearch)
    }
}

/// The chunked GroupTC kernel, optionally restricted to an explicit
/// edge-id list (`None` = all edges in CSR order). Shared with the
/// hybrid extension, whose light-edge pass runs exactly this kernel over
/// the non-hub subset.
pub(crate) fn run_chunked(
    dev: &Device,
    mem: &DeviceMem,
    g: &DeviceGraph,
    cfg: GroupTcConfig,
    edge_ids: Option<(gpu_sim::BufId, u32)>,
    counter: gpu_sim::BufId,
) -> Result<gpu_sim::LaunchStats, SimError> {
    {
        let n = cfg.chunk_size;
        let work_items = edge_ids.map_or(g.num_edges, |(_, len)| len);
        let chunks = work_items.div_ceil(n).max(1);
        let grid = chunks.min(8 * dev.config().num_sms);
        // Shared layout: META*n edge metadata, then two n-word ping-pong
        // buffers for the key-length prefix scan.
        let scan_a = (META * n) as usize;
        let scan_b = scan_a + n as usize;
        let launch = KernelConfig::new(grid, n).with_shared_words((META + 2) * n);
        let scan_steps = n.ilog2() + u32::from(!n.is_power_of_two());

        dev.launch(mem, launch, |blk| {
            let bidx = blk.block_idx();
            let gdim = blk.grid_dim();
            let mut locals = vec![0u32; n as usize];
            let mut chunk = bidx;
            while chunk < chunks {
                let chunk_base = chunk * n;
                let chunk_len = n.min(work_items - chunk_base);
                // Phase 1: resolve this chunk's edge metadata into shared
                // memory; lane i owns edge chunk_base + i (coalesced).
                blk.phase(|lane| {
                    let i = lane.tid();
                    if i >= chunk_len {
                        // Zero key length so the scan ignores this slot.
                        lane.st_shared(scan_a + i as usize, 0);
                        return;
                    }
                    let e = match edge_ids {
                        // Hybrid subset: one indirection (coalesced).
                        Some((ids, _)) => lane.ld_global(ids, (chunk_base + i) as usize),
                        // Dense walk over the edge list.
                        None => chunk_base + i,
                    };
                    let u = lane.ld_global(g.edge_src, e as usize);
                    let v = lane.ld_global(g.edge_dst, e as usize);
                    let u_end = lane.ld_global(g.row_offsets, u as usize + 1);
                    // Partial 2-hop: the suffix of N(u) past v starts
                    // right after this edge's own CSR slot.
                    let (su_base, su_len) = if cfg.partial_two_hop {
                        (e + 1, u_end - (e + 1))
                    } else {
                        let u_base = lane.ld_global(g.row_offsets, u as usize);
                        (u_base, u_end - u_base)
                    };
                    let v_base = lane.ld_global(g.row_offsets, v as usize);
                    let v_len = lane.ld_global(g.row_offsets, v as usize + 1) - v_base;
                    lane.compute(1);
                    // Table flipping: binary-search cost is
                    // keys * log(table), so the longer side should be the
                    // table — but `u` repeats across consecutive edges,
                    // so its suffix is preferred as the table (cache
                    // reuse) unless it is outright shorter than half of
                    // N(v) (the paper's empirical 2x rule).
                    let take_u = !cfg.flip_tables || su_len * 2 >= v_len;
                    let (k_base, k_len, t_base, t_len) = if take_u {
                        (v_base, v_len, su_base, su_len)
                    } else {
                        (su_base, su_len, v_base, v_len)
                    };
                    let s = (META * i) as usize;
                    lane.st_shared(s, k_base);
                    lane.st_shared(s + 1, t_base);
                    lane.st_shared(s + 2, t_len);
                    lane.st_shared(scan_a + i as usize, k_len);
                });
                // Hillis–Steele inclusive scan of the key lengths
                // (ping-pong buffers; log2(n) barrier steps).
                let mut src = scan_a;
                let mut dst = scan_b;
                let mut d = 1u32;
                for _ in 0..scan_steps {
                    blk.phase(|lane| {
                        let i = lane.tid();
                        let mut v = lane.ld_shared(src + i as usize);
                        if i >= d {
                            v += lane.ld_shared(src + (i - d) as usize);
                        }
                        lane.compute(1);
                        lane.st_shared(dst + i as usize, v);
                    });
                    std::mem::swap(&mut src, &mut dst);
                    d <<= 1;
                }
                let prefix = src;
                // Phase 2: lanes stride the chunk's concatenated key
                // stream; each position is located via binary search on
                // the prefix array, then the key is searched in its
                // edge's table.
                blk.phase(|lane| {
                    let total = lane.ld_shared(prefix + n as usize - 1);
                    let mut cnt = 0u32;
                    let mut pos = lane.tid();
                    // Resume-offset state for the edge currently worked.
                    let mut resume_edge = u32::MAX;
                    let mut resume_lo = 0u32;
                    while pos < total {
                        // First edge whose prefix exceeds pos.
                        let (mut lo_i, mut hi_i) = (0u32, chunk_len);
                        while lo_i < hi_i {
                            let mid = lo_i + (hi_i - lo_i) / 2;
                            let p = lane.ld_shared(prefix + mid as usize);
                            lane.compute(1);
                            if p > pos {
                                hi_i = mid;
                            } else {
                                lo_i = mid + 1;
                            }
                        }
                        let e_idx = lo_i;
                        let prev = if e_idx == 0 {
                            0
                        } else {
                            lane.ld_shared(prefix + e_idx as usize - 1)
                        };
                        let k_off = pos - prev;
                        let s = (META * e_idx) as usize;
                        let k_base = lane.ld_shared(s);
                        let t_base = lane.ld_shared(s + 1);
                        let t_len = lane.ld_shared(s + 2);
                        let key = lane.ld_global(g.col_indices, (k_base + k_off) as usize);
                        // Resume from the previous stop within this edge.
                        let lo0 = if cfg.resume_offset && resume_edge == e_idx {
                            resume_lo
                        } else {
                            0
                        };
                        let (mut lo, mut hi) = (t_base + lo0, t_base + t_len);
                        let mut found = false;
                        while lo < hi {
                            let mid = lo + (hi - lo) / 2;
                            let x = lane.ld_global(g.col_indices, mid as usize);
                            lane.compute(1);
                            match x.cmp(&key) {
                                std::cmp::Ordering::Equal => {
                                    found = true;
                                    lo = mid + 1;
                                    break;
                                }
                                std::cmp::Ordering::Less => lo = mid + 1,
                                std::cmp::Ordering::Greater => hi = mid,
                            }
                        }
                        if found {
                            cnt += 1;
                        }
                        if cfg.resume_offset {
                            resume_edge = e_idx;
                            // Keys are increasing along the stream, so no
                            // later match can precede this stop point.
                            resume_lo = lo - t_base;
                        }
                        lane.converge();
                        pos += n;
                    }
                    locals[lane.tid() as usize] += cnt;
                });
                chunk += gdim;
            }
            blk.phase(|lane| {
                warp_reduce_add(lane, counter, 0, locals[lane.tid() as usize]);
            });
        })
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
            &GroupTc::default(),
            &testutil::figure1_edges(),
            Orientation::DegreeAsc,
        );
        assert_eq!(n, 5);
    }

    #[test]
    fn exhaustive_small_graphs_default_config() {
        testutil::exhaustive_small_graph_check(&GroupTc::default());
    }

    #[test]
    fn exhaustive_small_graphs_all_ablations() {
        testutil::exhaustive_small_graph_check(&GroupTc::without_partial_two_hop());
        testutil::exhaustive_small_graph_check(&GroupTc::without_resume_offset());
        testutil::exhaustive_small_graph_check(&GroupTc::without_flip_tables());
        // Everything off.
        testutil::exhaustive_small_graph_check(&GroupTc::new(GroupTcConfig {
            chunk_size: 256,
            partial_two_hop: false,
            resume_offset: false,
            flip_tables: false,
        }));
    }

    #[test]
    fn chunk_size_sweep_is_exact() {
        for chunk in [32, 64, 128, 512, 1024] {
            let algo = GroupTc::new(GroupTcConfig {
                chunk_size: chunk,
                ..Default::default()
            });
            testutil::assert_matches_reference(
                &algo,
                &testutil::figure1_edges(),
                Orientation::DegreeAsc,
            );
            testutil::assert_matches_reference(
                &algo,
                &graph_data::gen::rmat(10, 6000, 0.57, 0.19, 0.19, 0.05, 77),
                Orientation::DegreeAsc,
            );
        }
    }

    #[test]
    fn partial_two_hop_reduces_search_work() {
        use gpu_sim::Device;
        use graph_data::{clean_edges, orient};

        let raw = graph_data::gen::rmat(12, 30_000, 0.57, 0.19, 0.19, 0.05, 5);
        let (g, _) = clean_edges(&raw);
        let dag = orient(&g, Orientation::DegreeAsc);
        let dev = Device::v100();

        let with = GroupTc::default().run(&dev, &dag).unwrap();
        let without = GroupTc::without_partial_two_hop().run(&dev, &dag).unwrap();
        assert_eq!(with.triangles, without.triangles);
        assert!(
            with.stats.counters.global_load_requests < without.stats.counters.global_load_requests,
            "partial 2-hop should cut load requests ({} vs {})",
            with.stats.counters.global_load_requests,
            without.stats.counters.global_load_requests
        );
    }

    #[test]
    fn metadata_row() {
        let m = GroupTc::default().meta();
        assert_eq!(m.name, "GroupTC");
        assert_eq!(m.iterator, IteratorKind::Edge);
        assert_eq!(m.intersection, Intersection::BinSearch);
        assert_eq!(m.granularity, Granularity::Fine);
    }
}
