//! Bader et al. (2024) — "Cover edge based novel triangle counting"
//! (arXiv 2403.02997).
//!
//! Every triangle's three vertices span at most two adjacent BFS levels,
//! so at least one of its edges is *horizontal* (both endpoints on the
//! same level): the horizontal edges form a **cover set**, and scanning
//! only them finds every triangle. The algorithm runs a linear-work BFS
//! prepass to label levels and emit the cover list, then intersects the
//! *undirected* neighbour lists of each cover edge — typically a small
//! fraction of the edge set on low-diameter graphs.
//!
//! A triangle whose three vertices share one level has three cover
//! edges; the dedup rule counts it only at its lexicographically
//! smallest one. With the cover edge normalized as `(u, v)`, `u < v`,
//! and `w` the common neighbour, that collapses to: count when `w`'s
//! level differs (the other two edges are wing edges, not cover), or
//! when `w > v` (all three horizontal, and `(u, v)` is the smallest
//! pair).
//!
//! Unlike the oriented counters, the kernel works on the symmetrized
//! graph — the BFS prepass replaces the orientation prepass, so the
//! count is identical under every [`Orientation`]. The level/cover
//! construction is host work (like Fox's workload binning); the timed
//! kernel is one coarse thread per cover edge doing a two-pointer merge.

use gpu_sim::{Device, DeviceMem, KernelConfig, SimError};
use graph_data::{DagGraph, Orientation};
use rayon::prelude::*;

use crate::api::{AlgoMeta, Granularity, Intersection, IteratorKind, TcAlgorithm, TcOutput};
use crate::device_graph::DeviceGraph;
use crate::util::warp_reduce_add;

const BLOCK_DIM: u32 = 256;

/// The cover-edge algorithm.
#[derive(Debug, Default, Clone, Copy)]
pub struct CoverEdge;

/// Host prepass output: the symmetrized CSR, per-vertex BFS levels and
/// the normalized (`src < dst`) cover-edge list.
pub struct CoverPlan {
    pub und_offsets: Vec<u32>,
    pub und_targets: Vec<u32>,
    pub levels: Vec<u32>,
    pub cover_src: Vec<u32>,
    pub cover_dst: Vec<u32>,
}

/// Build the cover plan from one direction of each undirected edge
/// (duplicate-free, no self-loops — the cleaned-graph invariants).
pub fn cover_plan(num_vertices: u32, src: &[u32], dst: &[u32]) -> CoverPlan {
    let nv = num_vertices as usize;

    // Symmetrize into a sorted undirected CSR.
    let mut deg = vec![0u32; nv];
    for (&u, &v) in src.iter().zip(dst) {
        deg[u as usize] += 1;
        deg[v as usize] += 1;
    }
    let mut und_offsets = vec![0u32; nv + 1];
    for i in 0..nv {
        und_offsets[i + 1] = und_offsets[i] + deg[i];
    }
    let mut und_targets = vec![0u32; 2 * src.len()];
    let mut cursor = und_offsets[..nv].to_vec();
    for (&u, &v) in src.iter().zip(dst) {
        und_targets[cursor[u as usize] as usize] = v;
        cursor[u as usize] += 1;
        und_targets[cursor[v as usize] as usize] = u;
        cursor[v as usize] += 1;
    }
    for i in 0..nv {
        und_targets[und_offsets[i] as usize..und_offsets[i + 1] as usize].sort_unstable();
    }

    // BFS levels, one tree per component (roots in id order).
    const UNSEEN: u32 = u32::MAX;
    let mut levels = vec![UNSEEN; nv];
    let mut queue = Vec::new();
    for root in 0..nv {
        if levels[root] != UNSEEN {
            continue;
        }
        levels[root] = 0;
        queue.clear();
        queue.push(root as u32);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head] as usize;
            head += 1;
            let next = levels[u] + 1;
            for &w in &und_targets[und_offsets[u] as usize..und_offsets[u + 1] as usize] {
                if levels[w as usize] == UNSEEN {
                    levels[w as usize] = next;
                    queue.push(w);
                }
            }
        }
    }

    // Cover set: the horizontal edges, endpoints normalized.
    let mut cover_src = Vec::new();
    let mut cover_dst = Vec::new();
    for (&u, &v) in src.iter().zip(dst) {
        if levels[u as usize] == levels[v as usize] {
            cover_src.push(u.min(v));
            cover_dst.push(u.max(v));
        }
    }

    CoverPlan {
        und_offsets,
        und_targets,
        levels,
        cover_src,
        cover_dst,
    }
}

/// Count the triangles a single cover edge `(u, v)` owns: common
/// neighbours `w` in the sorted undirected lists, filtered by the
/// lexicographic dedup rule.
fn count_cover_edge(plan: &CoverPlan, u: u32, v: u32) -> u64 {
    let a = &plan.und_targets
        [plan.und_offsets[u as usize] as usize..plan.und_offsets[u as usize + 1] as usize];
    let b = &plan.und_targets
        [plan.und_offsets[v as usize] as usize..plan.und_offsets[v as usize + 1] as usize];
    let lu = plan.levels[u as usize];
    let (mut i, mut j) = (0, 0);
    let mut count = 0u64;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                let w = a[i];
                if plan.levels[w as usize] != lu || w > v {
                    count += 1;
                }
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
        }
    }
    count
}

impl TcAlgorithm for CoverEdge {
    fn meta(&self) -> AlgoMeta {
        AlgoMeta {
            name: "CoverEdge",
            reference: "Bader et al., arXiv 2403.02997",
            year: 2024,
            iterator: IteratorKind::Edge,
            intersection: Intersection::Merge,
            granularity: Granularity::Coarse,
        }
    }

    /// The BFS prepass ignores edge direction, so orientation only
    /// changes vertex labels; plain id order skips the degree sort.
    fn preferred_orientation(&self) -> Orientation {
        Orientation::ById
    }

    fn count(
        &self,
        dev: &Device,
        mem: &mut DeviceMem,
        g: &DeviceGraph,
    ) -> Result<TcOutput, SimError> {
        // Host prepass, from the planning mirrors (CPU work — real
        // implementations run the linear BFS before the timed kernel).
        let mut plan = cover_plan(g.num_vertices, &g.host_src, &g.host_dst);
        let n_cover = plan.cover_src.len() as u32;
        if plan.cover_src.is_empty() {
            // Keep the launch non-empty on cover-free graphs (paths,
            // stars): one self-loop sentinel the kernel skips.
            plan.cover_src.push(0);
            plan.cover_dst.push(0);
        }
        if plan.und_targets.is_empty() {
            plan.und_targets.push(0);
        }
        if plan.levels.is_empty() {
            plan.levels.push(0);
        }

        let und_offsets = mem.alloc_from_slice(&plan.und_offsets, "cover.und_offsets")?;
        let und_targets = mem.alloc_from_slice(&plan.und_targets, "cover.und_targets")?;
        let levels = mem.alloc_from_slice(&plan.levels, "cover.levels")?;
        let cover_src = mem.alloc_from_slice(&plan.cover_src, "cover.src")?;
        let cover_dst = mem.alloc_from_slice(&plan.cover_dst, "cover.dst")?;
        let counter = mem.alloc_zeroed(1, "cover.counter")?;

        let n_launch = plan.cover_src.len() as u32;
        let grid = n_launch.div_ceil(BLOCK_DIM).max(1);
        let cfg = KernelConfig::new(grid, BLOCK_DIM);

        let stats = dev.launch(mem, cfg, |blk| {
            blk.phase(|lane| {
                let e = lane.global_tid();
                let mut local = 0u32;
                lane.compute(1);
                if e < n_cover as u64 {
                    let e = e as usize;
                    let u = lane.ld_global(cover_src, e);
                    let v = lane.ld_global(cover_dst, e);
                    let lu = lane.ld_global(levels, u as usize);
                    let mut i = lane.ld_global(und_offsets, u as usize);
                    let u_end = lane.ld_global(und_offsets, u as usize + 1);
                    let mut j = lane.ld_global(und_offsets, v as usize);
                    let v_end = lane.ld_global(und_offsets, v as usize + 1);
                    // Two-pointer merge of the sorted undirected lists.
                    if i < u_end && j < v_end {
                        let mut a = lane.ld_global(und_targets, i as usize);
                        let mut b = lane.ld_global(und_targets, j as usize);
                        loop {
                            lane.compute(1);
                            match a.cmp(&b) {
                                std::cmp::Ordering::Equal => {
                                    let lw = lane.ld_global(levels, a as usize);
                                    if lw != lu || a > v {
                                        local += 1;
                                    }
                                    i += 1;
                                    j += 1;
                                    if i >= u_end || j >= v_end {
                                        break;
                                    }
                                    a = lane.ld_global(und_targets, i as usize);
                                    b = lane.ld_global(und_targets, j as usize);
                                }
                                std::cmp::Ordering::Less => {
                                    i += 1;
                                    if i >= u_end {
                                        break;
                                    }
                                    a = lane.ld_global(und_targets, i as usize);
                                }
                                std::cmp::Ordering::Greater => {
                                    j += 1;
                                    if j >= v_end {
                                        break;
                                    }
                                    b = lane.ld_global(und_targets, j as usize);
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
        mem.free(cover_dst)?;
        mem.free(cover_src)?;
        mem.free(levels)?;
        mem.free(und_targets)?;
        mem.free(und_offsets)?;
        Ok(TcOutput { triangles, stats })
    }

    /// Host kernel: the same BFS/cover prepass, then one rayon task per
    /// cover edge merging the undirected lists.
    fn count_cpu(&self, dag: &DagGraph) -> u64 {
        let (src, dst) = dag.edge_arrays();
        let plan = cover_plan(dag.num_vertices(), &src, &dst);
        (0..plan.cover_src.len() as u32)
            .into_par_iter()
            .map(|e| {
                count_cover_edge(
                    &plan,
                    plan.cover_src[e as usize],
                    plan.cover_dst[e as usize],
                )
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use graph_data::{clean_edges, cpu_ref, orient, EdgeList};

    #[test]
    fn bfs_levels_differ_by_at_most_one_across_edges() {
        let edges = graph_data::gen::rmat(7, 600, 0.45, 0.22, 0.22, 0.11, 5);
        let (g, _) = clean_edges(&edges);
        let dag = orient(&g, Orientation::ById);
        let (src, dst) = dag.edge_arrays();
        let plan = cover_plan(dag.num_vertices(), &src, &dst);
        for (&u, &v) in src.iter().zip(&dst) {
            let (lu, lv) = (plan.levels[u as usize], plan.levels[v as usize]);
            assert!(lu.abs_diff(lv) <= 1, "edge ({u},{v}): levels {lu},{lv}");
        }
    }

    #[test]
    fn cover_set_is_the_horizontal_edges_and_normalized() {
        let (g, _) = clean_edges(&testutil::figure1_edges());
        let dag = orient(&g, Orientation::ById);
        let (src, dst) = dag.edge_arrays();
        let plan = cover_plan(dag.num_vertices(), &src, &dst);
        let horizontal = src
            .iter()
            .zip(&dst)
            .filter(|&(&u, &v)| plan.levels[u as usize] == plan.levels[v as usize])
            .count();
        assert_eq!(plan.cover_src.len(), horizontal);
        for (&u, &v) in plan.cover_src.iter().zip(&plan.cover_dst) {
            assert!(u < v);
            assert_eq!(plan.levels[u as usize], plan.levels[v as usize]);
        }
    }

    #[test]
    fn counts_figure1_graph() {
        let n = testutil::assert_matches_reference(
            &CoverEdge,
            &testutil::figure1_edges(),
            Orientation::DegreeAsc,
        );
        assert_eq!(n, 5);
    }

    #[test]
    fn exhaustive_small_graphs() {
        testutil::exhaustive_small_graph_check(&CoverEdge);
    }

    #[test]
    fn works_under_all_orientations() {
        for o in [
            Orientation::ById,
            Orientation::DegreeAsc,
            Orientation::DegreeDesc,
        ] {
            testutil::assert_matches_reference(&CoverEdge, &testutil::figure1_edges(), o);
        }
    }

    #[test]
    fn cover_free_graph_still_burns_cycles() {
        // A path has no horizontal edges at all: the sentinel keeps the
        // launch alive so the runner's dead-kernel check stays meaningful.
        let (g, _) = clean_edges(&EdgeList::new(vec![(0, 1), (1, 2), (2, 3)]));
        let dag = orient(&g, Orientation::ById);
        let out = CoverEdge.run(&Device::v100(), &dag).unwrap();
        assert_eq!(out.triangles, 0);
        assert!(out.stats.kernel_cycles > 0);
    }

    #[test]
    fn cpu_kernel_matches_oracle_on_generators() {
        for (label, edges) in [
            (
                "rmat",
                graph_data::gen::rmat(8, 2500, 0.57, 0.19, 0.19, 0.05, 41),
            ),
            ("er", graph_data::gen::erdos_renyi(150, 900, 42)),
            ("ws", graph_data::gen::watts_strogatz(180, 6, 0.1, 43)),
        ] {
            let (g, _) = clean_edges(&edges);
            let expected = cpu_ref::node_iterator(&g);
            let dag = orient(&g, Orientation::ById);
            assert_eq!(CoverEdge.count_cpu(&dag), expected, "{label}");
        }
    }

    #[test]
    fn metadata_row() {
        let m = CoverEdge.meta();
        assert_eq!(m.year, 2024);
        assert_eq!(m.iterator, IteratorKind::Edge);
        assert_eq!(m.intersection, Intersection::Merge);
        assert_eq!(m.granularity, Granularity::Coarse);
    }
}
