//! Fox et al. (2018) — "Fast and adaptive list intersections on the GPU".
//!
//! Edge-centric meta-algorithm (Section III-E / Figure 7): edges are
//! placed into **six bins** by estimated intersection workload; edges in
//! bin *n* get `2^n` cooperating threads (capped at a warp). Fox chooses
//! between merging and binary search per edge; following the paper's
//! program configuration ("the intersection method based on Bin-Search
//! is faster ... in most cases"), this kernel binary-searches every
//! edge: each lane of a group takes keys of the shorter list and
//! searches the longer one.
//!
//! The binning equalizes work *within* a warp (workload variation under
//! 2x → high warp execution efficiency), but the edges of a bin are
//! scattered across the edge list, so the lists a warp's groups touch
//! share no locality — the low memory-access efficiency the paper's
//! Figure 13(b) shows.

use gpu_sim::{Device, DeviceMem, KernelConfig, LaunchStats, SimError};
use graph_data::cpu_ref;

use crate::api::{AlgoMeta, Granularity, Intersection, IteratorKind, TcAlgorithm, TcOutput};
use crate::device_graph::DeviceGraph;
use crate::util::{bsearch_global, warp_reduce_add};

const BLOCK_DIM: u32 = 256;
const NUM_BINS: usize = 6;

/// The Fox algorithm, binary-search configuration.
#[derive(Debug, Default, Clone, Copy)]
pub struct Fox;

/// Estimated binary-search workload of an edge: each key of the shorter
/// list costs one descent of the longer one.
fn bsearch_workload(du: u32, dv: u32) -> u64 {
    let small = du.min(dv) as u64;
    let large = du.max(dv).max(1) as u64;
    small * (64 - large.leading_zeros() as u64)
}

/// Bin index for a workload: exponentially increasing thresholds; bin n
/// gets 2^n threads per edge.
fn bin_of(workload: u64) -> usize {
    // Thresholds 8, 32, 128, 512, 2048: beyond that, a full warp.
    match workload {
        0..=8 => 0,
        9..=32 => 1,
        33..=128 => 2,
        129..=512 => 3,
        513..=2048 => 4,
        _ => 5,
    }
}

impl TcAlgorithm for Fox {
    fn meta(&self) -> AlgoMeta {
        AlgoMeta {
            name: "Fox",
            reference: "Fox et al., HPEC 2018",
            year: 2018,
            iterator: IteratorKind::Edge,
            intersection: Intersection::MergeOrBinSearch,
            granularity: Granularity::Fine,
        }
    }

    fn count(
        &self,
        dev: &Device,
        mem: &mut DeviceMem,
        g: &DeviceGraph,
    ) -> Result<TcOutput, SimError> {
        // Host prepass: bin every edge by estimated binary-search
        // workload.
        let mut bins: [Vec<u32>; NUM_BINS] = Default::default();
        for e in 0..g.num_edges {
            let du = g.host_out_degree(g.host_src[e as usize]);
            let dv = g.host_out_degree(g.host_dst[e as usize]);
            bins[bin_of(bsearch_workload(du, dv))].push(e);
        }

        let counter = mem.alloc_zeroed(1, "fox.counter")?;
        let mut stats = LaunchStats::default();
        for (n, bin) in bins.iter().enumerate() {
            if bin.is_empty() {
                continue;
            }
            let edge_ids = mem.alloc_from_slice(bin, "fox.bin_edges")?;
            stats += launch_bin(dev, mem, g, edge_ids, bin.len() as u32, 1 << n, counter)?;
            mem.free(edge_ids)?;
        }

        let triangles = mem.read_back(counter)[0] as u64;
        mem.free(counter)?;
        Ok(TcOutput { triangles, stats })
    }

    /// Host kernel: Fox's per-edge choice between merge and binary
    /// search, taking whichever the workload estimates rate cheaper
    /// (merge costs `d(u) + d(v)`, binary search `min(d) * log2(max(d))`).
    /// The GPU kernel always binary-searches, and bins edges by
    /// the binary-search estimate alone; rayon schedules here, so no
    /// bins are needed.
    fn count_cpu(&self, dag: &graph_data::DagGraph) -> u64 {
        cpu_ref::forward_parallel(dag, |a, b| {
            let (du, dv) = (a.len() as u32, b.len() as u32);
            let small = du.min(dv) as u64;
            let large = u64::from(du.max(dv).max(1));
            let bsearch = small * (64 - large.leading_zeros() as u64);
            let merge = du as u64 + dv as u64;
            if bsearch < merge {
                cpu_ref::intersect_binsearch(a, b)
            } else {
                cpu_ref::intersect_merge(a, b)
            }
        })
    }
}

/// One kernel per bin: groups of `group_size` lanes, each processing one
/// (scattered) edge of the bin at a time.
fn launch_bin(
    dev: &Device,
    mem: &DeviceMem,
    g: &DeviceGraph,
    edge_ids: gpu_sim::BufId,
    n_edges: u32,
    group_size: u32,
    counter: gpu_sim::BufId,
) -> Result<LaunchStats, SimError> {
    let groups_per_block = BLOCK_DIM / group_size;
    let grid = (4 * dev.config().num_sms).min(n_edges.div_ceil(groups_per_block).max(1));
    let groups_total = grid * groups_per_block;
    let cfg = KernelConfig::new(grid, BLOCK_DIM);
    dev.launch(mem, cfg, |blk| {
        blk.phase(|lane| {
            let group = lane.global_tid() / group_size as u64;
            let lane_in_group = lane.tid() % group_size;
            let mut local = 0u32;
            let mut i = group;
            while i < n_edges as u64 {
                let e = lane.ld_global(edge_ids, i as usize);
                let u = lane.ld_global(g.edge_src, e as usize);
                let v = lane.ld_global(g.edge_dst, e as usize);
                let u_base = lane.ld_global(g.row_offsets, u as usize);
                let u_end = lane.ld_global(g.row_offsets, u as usize + 1);
                let v_base = lane.ld_global(g.row_offsets, v as usize);
                let v_end = lane.ld_global(g.row_offsets, v as usize + 1);
                let (un, vn) = (u_end - u_base, v_end - v_base);
                lane.compute(1);
                // Keys from the shorter list, search the longer.
                let (k_base, kn, t_base, t_end) = if un <= vn {
                    (u_base, un, v_base, v_end)
                } else {
                    (v_base, vn, u_base, u_end)
                };
                let mut k = lane_in_group;
                while k < kn {
                    let key = lane.ld_global(g.col_indices, (k_base + k) as usize);
                    if bsearch_global(lane, g.col_indices, t_base, t_end, key) {
                        local += 1;
                    }
                    k += group_size;
                }
                lane.converge();
                i += groups_total as u64;
            }
            warp_reduce_add(lane, counter, 0, local);
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use graph_data::Orientation;

    #[test]
    fn binning_monotone_in_workload() {
        assert_eq!(bin_of(0), 0);
        assert!(bin_of(10) >= bin_of(5));
        assert_eq!(bin_of(1 << 20), 5);
        // Workload estimate grows with both degrees.
        assert!(bsearch_workload(10, 100) > bsearch_workload(2, 100));
        assert!(bsearch_workload(10, 1000) > bsearch_workload(10, 100));
        assert_eq!(bsearch_workload(0, 5), 0);
    }

    #[test]
    fn counts_figure1_graph() {
        let n = testutil::assert_matches_reference(
            &Fox,
            &testutil::figure1_edges(),
            Orientation::DegreeAsc,
        );
        assert_eq!(n, 5);
    }

    #[test]
    fn exhaustive_small_graphs_binsearch() {
        testutil::exhaustive_small_graph_check(&Fox);
    }

    #[test]
    fn works_under_all_orientations() {
        for o in [
            Orientation::ById,
            Orientation::DegreeAsc,
            Orientation::DegreeDesc,
        ] {
            testutil::assert_matches_reference(&Fox, &testutil::figure1_edges(), o);
        }
    }

    #[test]
    fn metadata_matches_table1() {
        let m = Fox.meta();
        assert_eq!(m.year, 2018);
        assert_eq!(m.intersection, Intersection::MergeOrBinSearch);
        assert_eq!(m.granularity, Granularity::Fine);
    }
}
