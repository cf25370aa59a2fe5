//! # tc-algos — every triangle counter under evaluation
//!
//! Re-implementations, against the [`gpu_sim`] substrate, of every
//! intersection-based triangle-counting implementation the paper
//! evaluates (Table I), the paper's own GroupTC (Section V), the
//! cover-edge algorithm of Bader et al., and GroupTC-H, this
//! reproduction's take on the paper's Section VI future work:
//!
//! | Module             | Name      | Year | Iterator | Intersection     | Granularity |
//! |--------------------|-----------|------|----------|------------------|-------------|
//! | [`green`]          | Green     | 2014 | edge     | Merge (merge path) | fine      |
//! | [`polak`]          | Polak     | 2016 | edge     | Merge            | coarse      |
//! | [`bisson`]         | Bisson    | 2017 | vertex   | BitMap           | coarse      |
//! | [`tricore`]        | TriCore   | 2018 | edge     | Binary search    | fine        |
//! | [`fox`]            | Fox       | 2018 | edge     | Merge/Bin-search | fine        |
//! | [`hu`]             | Hu        | 2019 | vertex   | Binary search    | fine        |
//! | [`hindex`]         | H-INDEX   | 2019 | edge     | Hash             | fine        |
//! | [`trust`]          | TRUST     | 2021 | vertex   | Hash             | fine        |
//! | [`grouptc`]        | GroupTC   | 2024 | edge     | Binary search    | fine        |
//! | [`coveredge`]      | CoverEdge | 2024 | edge     | Merge            | coarse      |
//! | [`grouptc_hybrid`] | GroupTC-H | 2024 | edge     | Hash/Bin-search  | fine        |
//!
//! Each implements [`TcAlgorithm`] — both the simulated kernel
//! (`count`) and a native rayon host kernel (`count_cpu`, one
//! [`graph_data::cpu_ref::forward_parallel`] instance per strategy,
//! except H-INDEX, TRUST and Bisson, which each call
//! [`graph_data::cpu_ref::forward_bitmap_parallel`], and CoverEdge's
//! cover pass, which probes the same per-worker
//! [`graph_data::cpu_ref::Bitmap`] instead of merging; Polak and Green
//! keep the trait's default merge) that the
//! framework's `CpuBackend` and the differential CPU ≡ sim conformance
//! wall execute. [`all_algorithms`] returns the first ten rows in
//! order; GroupTC-H is run by name where it is studied.

pub mod api;
pub mod bisson;
pub mod conformance;
pub mod coveredge;
pub mod device_graph;
pub mod fox;
pub mod green;
pub mod grouptc;
pub mod grouptc_hybrid;
pub mod hindex;
pub mod hu;
pub mod polak;
pub mod registry;
pub mod tricore;
pub mod trust;
pub mod util;

// Exposed (not cfg(test)-gated) so the crate's own integration tests and the
// workspace integration tests reuse the same fixtures.
pub mod testutil;

pub use api::{AlgoMeta, Granularity, Intersection, IteratorKind, TcAlgorithm, TcOutput};
pub use device_graph::DeviceGraph;
pub use grouptc::{GroupTc, GroupTcConfig};
pub use grouptc_hybrid::GroupTcHybrid;
pub use registry::{algorithm_by_name, all_algorithms};
