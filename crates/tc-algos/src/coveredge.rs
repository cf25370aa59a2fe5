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
//!
//! The prepass ([`cover_plan`]) is linear, like Bader's: it reads the
//! oriented CSR in place, builds the undirected CSR in one counting pass
//! (every DAG edge points up, so in-list then out-list is already
//! sorted), runs one BFS and emits the cover list in CSR order.
//!
//! The native twin keeps the cover edges and the dedup rule but not the
//! merge. On power-law graphs a hub owns many cover edges, so merging
//! once per cover edge re-reads the hub's list each time. The twin
//! instead marks each vertex's list in a bitmap once and probes the
//! lists of the cover edges that vertex owns, as Bisson's twin does.

use gpu_sim::{Device, DeviceMem, KernelConfig, SimError};
use graph_data::{cpu_ref::Bitmap, DagGraph, Orientation};
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

/// Build the cover plan from the oriented CSR (`offsets`, `targets`):
/// sorted out-lists whose every edge goes from a smaller id to a larger
/// one, duplicate-free and loop-free — the [`DagGraph`] invariants under
/// every [`Orientation`].
///
/// Vertex `x`'s undirected list is then its in-list (all `< x`) followed
/// by its out-list (all `> x`). The in-lists come out of one counting
/// pass over the edges, each filled from its end in descending source
/// order, so every list is sorted without a sort and without a copy of
/// the edge list. The cover list comes out in CSR order, each edge
/// already normalized (`src < dst`).
pub fn cover_plan(offsets: &[u32], targets: &[u32]) -> CoverPlan {
    let nv = offsets.len().saturating_sub(1);
    let out_list = |u: usize| &targets[offsets[u] as usize..offsets[u + 1] as usize];

    // Count in-degrees, then lay the lists out: copy each out-list to the
    // end of its vertex's range and leave `und_offsets[x]` at the end of
    // the in-list, the cursor of the pass below.
    let mut und_offsets = vec![0u32; nv + 1];
    for &v in targets {
        und_offsets[v as usize] += 1;
    }
    assert!(
        targets.len() <= (u32::MAX / 2) as usize,
        "cover_plan: {} DAG edges need {} undirected entries, past the u32 offsets",
        targets.len(),
        2 * targets.len() as u64
    );
    let mut und_targets = vec![0u32; 2 * targets.len()];
    let mut end = 0;
    for x in 0..nv {
        let out = out_list(x);
        end += und_offsets[x] + out.len() as u32;
        und_offsets[x] = end - out.len() as u32;
        und_targets[und_offsets[x] as usize..end as usize].copy_from_slice(out);
    }
    und_offsets[nv] = end;
    // In-lists, back to front: each cursor ends at its list's start.
    for u in (0..nv).rev() {
        for &v in out_list(u) {
            debug_assert!(u < v as usize, "oriented edge ({u},{v}) points down");
            let cursor = &mut und_offsets[v as usize];
            *cursor -= 1;
            und_targets[*cursor as usize] = u as u32;
        }
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

    // Cover set: the horizontal edges, in CSR order.
    let mut cover_src = Vec::new();
    let mut cover_dst = Vec::new();
    for u in 0..nv {
        for &v in out_list(u) {
            if levels[u] == levels[v as usize] {
                cover_src.push(u as u32);
                cover_dst.push(v);
            }
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
        let mut plan = cover_plan(&g.host_offsets, &g.host_dst);
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

    /// Host kernel: the same BFS/cover prepass, read straight from the
    /// DAG's CSR, then one rayon task per vertex with Bisson's
    /// build/probe/clear bitmap cycle. Vertex `x` owns each cover edge
    /// `(x, y)` whose other end ranks below it by `(undirected degree,
    /// id)`. It marks its own undirected list once, probes the list of
    /// every `y` it owns against the bitmap, applies the kernel's dedup
    /// rule with `v = max(x, y)` and clears the bits again. So a hub's
    /// list is marked once instead of merged once per cover edge.
    fn count_cpu(&self, dag: &DagGraph) -> u64 {
        let csr = dag.csr();
        let plan = cover_plan(csr.offsets(), csr.targets());
        let und = |x: usize| {
            &plan.und_targets[plan.und_offsets[x] as usize..plan.und_offsets[x + 1] as usize]
        };
        let rank = |x: usize| (und(x).len(), x);
        let id_space = plan.levels.len() as u32;
        (0..id_space)
            .into_par_iter()
            .map_init(
                || Bitmap::new(id_space),
                |bits, x| {
                    let x = x as usize;
                    let (nx, lx) = (und(x), plan.levels[x]);
                    let mut marked = false;
                    let mut local = 0u64;
                    for &y in nx {
                        let y = y as usize;
                        if plan.levels[y] != lx || rank(y) >= rank(x) {
                            continue;
                        }
                        if !marked {
                            bits.mark(nx);
                            marked = true;
                        }
                        let v = x.max(y) as u32;
                        for &w in und(y) {
                            if bits.contains(w) && (plan.levels[w as usize] != lx || w > v) {
                                local += 1;
                            }
                        }
                    }
                    if marked {
                        bits.unmark(nx);
                    }
                    local
                },
            )
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use graph_data::{clean_edges, cpu_ref, orient, EdgeList};

    /// The prepass as first written: symmetrize one direction of each
    /// undirected edge with a degree count and a cursor per vertex, sort
    /// every list, BFS, then normalize each horizontal edge. It is the
    /// oracle for the CSR-built [`cover_plan`].
    fn symmetrize_and_sort(num_vertices: u32, src: &[u32], dst: &[u32]) -> CoverPlan {
        let nv = num_vertices as usize;
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
        let mut levels = vec![u32::MAX; nv];
        let mut queue = Vec::new();
        for root in 0..nv {
            if levels[root] != u32::MAX {
                continue;
            }
            levels[root] = 0;
            queue.clear();
            queue.push(root as u32);
            let mut head = 0;
            while head < queue.len() {
                let u = queue[head] as usize;
                head += 1;
                for &w in &und_targets[und_offsets[u] as usize..und_offsets[u + 1] as usize] {
                    if levels[w as usize] == u32::MAX {
                        levels[w as usize] = levels[u] + 1;
                        queue.push(w);
                    }
                }
            }
        }
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

    /// The sim kernel's per-cover-edge two-pointer merge in host form:
    /// the common neighbours `w` of the normalized cover edge `(u, v)`
    /// in the sorted undirected lists, filtered by the dedup rule. It is
    /// the oracle for the bitmap twin.
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

    fn plan_of(dag: &DagGraph) -> CoverPlan {
        cover_plan(dag.csr().offsets(), dag.csr().targets())
    }

    #[test]
    fn csr_built_plan_equals_the_symmetrize_and_sort_oracle() {
        let mut cases = vec![
            ("empty", EdgeList::new(vec![])),
            ("one edge", EdgeList::new(vec![(0, 1)])),
        ];
        cases.extend(generator_cases());
        for (label, edges) in cases {
            let (g, _) = clean_edges(&edges);
            for o in [
                Orientation::ById,
                Orientation::DegreeAsc,
                Orientation::DegreeDesc,
            ] {
                let dag = orient(&g, o);
                let (src, dst) = dag.edge_arrays();
                let want = symmetrize_and_sort(dag.num_vertices(), &src, &dst);
                let got = plan_of(&dag);
                assert_eq!(got.und_offsets, want.und_offsets, "{label} {o:?}");
                assert_eq!(got.und_targets, want.und_targets, "{label} {o:?}");
                assert_eq!(got.levels, want.levels, "{label} {o:?}");
                assert_eq!(got.cover_src, want.cover_src, "{label} {o:?}");
                assert_eq!(got.cover_dst, want.cover_dst, "{label} {o:?}");
            }
        }
    }

    fn generator_cases() -> [(&'static str, EdgeList); 3] {
        [
            (
                "rmat",
                graph_data::gen::rmat(8, 2500, 0.57, 0.19, 0.19, 0.05, 41),
            ),
            ("er", graph_data::gen::erdos_renyi(150, 900, 42)),
            ("ws", graph_data::gen::watts_strogatz(180, 6, 0.1, 43)),
        ]
    }

    #[test]
    fn twin_equals_the_per_cover_edge_merge() {
        let mut cases = generator_cases().to_vec();
        cases.push((
            "hub-heavy rmat",
            graph_data::gen::rmat(10, 8000, 0.57, 0.19, 0.19, 0.05, 42),
        ));
        for (label, edges) in cases {
            let (g, _) = clean_edges(&edges);
            let expected = cpu_ref::node_iterator(&g);
            for o in [
                Orientation::ById,
                Orientation::DegreeAsc,
                Orientation::DegreeDesc,
            ] {
                let dag = orient(&g, o);
                let plan = plan_of(&dag);
                let merged: u64 = plan
                    .cover_src
                    .iter()
                    .zip(&plan.cover_dst)
                    .map(|(&u, &v)| count_cover_edge(&plan, u, v))
                    .sum();
                assert_eq!(merged, expected, "{label} {o:?}: merge vs node iterator");
                assert_eq!(
                    CoverEdge.count_cpu(&dag),
                    merged,
                    "{label} {o:?}: twin vs merge"
                );
            }
        }
    }

    #[test]
    fn bfs_levels_differ_by_at_most_one_across_edges() {
        let edges = graph_data::gen::rmat(7, 600, 0.45, 0.22, 0.22, 0.11, 5);
        let (g, _) = clean_edges(&edges);
        let dag = orient(&g, Orientation::ById);
        let (src, dst) = dag.edge_arrays();
        let plan = plan_of(&dag);
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
        let plan = plan_of(&dag);
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
}
