//! The framework-facing algorithm interface: every counter in this crate
//! implements [`TcAlgorithm`], and `tc-core`'s runner and backends drive
//! them through it alone. [`TcAlgorithm::run`] is the one way a counter
//! runs on a graph: upload, count, free and the leak check.

use gpu_sim::{Device, DeviceMem, LaunchStats, SimError};
use graph_data::{DagGraph, Orientation};

use crate::device_graph::DeviceGraph;

/// How an implementation generates the neighbour lists (Section II-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IteratorKind {
    Vertex,
    Edge,
}

/// Which intersection primitive the implementation uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intersection {
    Merge,
    BinSearch,
    Hash,
    BitMap,
    /// Fox switches between merge and binary search per edge.
    MergeOrBinSearch,
}

/// Whether one thread processes a whole edge/vertex (coarse) or several
/// threads cooperate on one (fine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    Coarse,
    Fine,
}

/// The Table I row describing an implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlgoMeta {
    pub name: &'static str,
    pub reference: &'static str,
    pub year: u16,
    pub iterator: IteratorKind,
    pub intersection: Intersection,
    pub granularity: Granularity,
}

/// Result of a full triangle-count run: the exact count plus the merged
/// launch statistics of every kernel the implementation issued.
#[derive(Debug, Clone)]
pub struct TcOutput {
    pub triangles: u64,
    pub stats: LaunchStats,
}

/// A GPU triangle-counting implementation under test. The counters
/// under evaluation all live in this crate, and [`crate::all_algorithms`]
/// is the one list the framework sweeps.
pub trait TcAlgorithm: Sync {
    /// Short display name (Table I / figure legend).
    fn name(&self) -> &'static str {
        self.meta().name
    }

    /// Taxonomy row (Table I).
    fn meta(&self) -> AlgoMeta;

    /// The orientation this implementation preprocesses with. Defaults to
    /// degree-ascending relabeling (what the optimized codes use).
    fn preferred_orientation(&self) -> Orientation {
        Orientation::DegreeAsc
    }

    /// Count the triangles of an uploaded DAG. Implementations allocate
    /// their own auxiliary device structures from `mem` (and free them),
    /// so out-of-memory failures surface exactly like the red crosses in
    /// Figure 11.
    fn count(
        &self,
        dev: &Device,
        mem: &mut DeviceMem,
        g: &DeviceGraph,
    ) -> Result<TcOutput, SimError>;

    /// Count the triangles of `dag` on a fresh memory image of `dev`:
    /// upload the graph, count, free the graph and leak-check the image,
    /// so a counter that abandons a scratch buffer fails with
    /// [`SimError::Sanitizer`] (leak) whatever analyses `dev` runs.
    fn run(&self, dev: &Device, dag: &DagGraph) -> Result<TcOutput, SimError> {
        let mut mem = DeviceMem::new(dev);
        let dg = DeviceGraph::upload(dag, &mut mem)?;
        let out = self.count(dev, &mut mem, &dg)?;
        dg.free(&mut mem)?;
        mem.leak_check()?;
        Ok(out)
    }

    /// Count the triangles of the same oriented DAG natively on the
    /// host: a rayon-parallel CPU kernel mirroring the implementation's
    /// iterator/intersection strategy, usually as the intersection it
    /// passes to [`graph_data::cpu_ref::forward_parallel`]. This is the
    /// `Backend::Cpu` execution path — it models nothing (no cycles, no
    /// counters), it just produces the exact count at wall-clock speed.
    ///
    /// The default is the parallel Forward merge reference; every
    /// registered algorithm overrides it with its strategy-matched
    /// kernel. A panic here is isolated by the runner's CPU backend as
    /// `RunOutcome::Failed`, mirroring how device-side faults poison
    /// only their own sweep cell.
    fn count_cpu(&self, dag: &DagGraph) -> u64 {
        graph_data::cpu_ref::forward_merge_parallel(dag)
    }
}
