//! # graph-data — graph substrate for the TC-Compare reproduction
//!
//! Everything the paper's evaluation framework needs around the GPU
//! kernels themselves:
//!
//! * [`types`] — CSR storage and the cleaned undirected graph type. The
//!   whole pipeline runs on resident CSRs: even the largest Table II
//!   stand-in prepares in well under 100 MB.
//! * [`clean`] — the paper's data-cleaning pipeline (drop self-loops,
//!   duplicate edges and isolated vertices; Section IV "Datasets").
//! * [`orient`](mod@orient) — DAG orientations (by ID, by degree) used by the
//!   intersection-based counters so each triangle is found exactly once.
//! * [`io`] — SNAP text and binary edge-list formats plus auto-detection
//!   (the paper's "data transformation tools").
//! * [`gen`] — synthetic graph generators (RMAT, Barabási–Albert with
//!   triad formation, Erdős–Rényi, 2-D road grids, Watts–Strogatz).
//! * [`datasets`] — the 19-dataset registry mirroring Table II with
//!   scaled-down synthetic stand-ins.
//! * [`cpu_ref`] — exact CPU triangle counters (merge, binary-search,
//!   hash, bitmap, node-iterator, matrix-multiplication and
//!   subgraph-matching baselines) used as ground truth.

pub mod clean;
pub mod cpu_ref;
pub mod datasets;
pub mod gen;
pub mod io;
pub mod kcore;
pub mod orient;
pub mod stats;
pub mod types;

pub use clean::{clean_edges, CleanReport};
pub use datasets::{DatasetSpec, SizeClass, TABLE2_DATASETS};
pub use kcore::{core_decomposition, CoreDecomposition};
pub use orient::{orient, DagGraph, Orientation};
pub use stats::GraphStats;
pub use types::{Csr, EdgeList, UndirGraph, VertexId};
