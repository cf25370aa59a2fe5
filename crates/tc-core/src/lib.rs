//! # tc-core — the unified evaluation framework
//!
//! [`framework`] is the testing framework of the paper's Section IV:
//! the dataset preparation pipeline, the two execution backends
//! ([`SimBackend`] and [`CpuBackend`]), the one sweep-driver pair that
//! produces every figure's underlying matrix, report formatting, CSV
//! and the paper-claim checks. It implements no counter itself: every algorithm, GroupTC included,
//! lives in `tc-algos` behind [`tc_algos::all_algorithms`], and every
//! simulated cell runs it through `TcAlgorithm::run`.

pub mod framework;

pub use framework::backend::{Backend, CpuBackend, SimBackend};
pub use framework::runner::{
    run_matrix, run_matrix_parallel, PreparedDataset, RunOutcome, RunRecord,
};
// The repository benchmark (`perfbench/`) imports the registry from this
// path and is kept unchanged, so the framework re-exports it.
pub use tc_algos::all_algorithms;
