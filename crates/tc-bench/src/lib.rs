//! # tc-bench — benchmark harness
//!
//! One `tc` binary regenerates every table and figure of the paper (see
//! DESIGN.md's experiment index) and runs the benchmark, lint and pin
//! tools, one subcommand each:
//!
//! ```sh
//! cargo run --release -p tc-bench -- <command> [args...]
//! ```
//!
//! Its subcommands share [`sweep`], which runs the evaluation matrix and
//! returns the records the figures are printed from, and one argument
//! parser, [`cli::Args`]. Dataset selection is the same everywhere:
//! Table II names, `--small` (the small class) or `--medium` (small +
//! medium), each command with its own default.

pub mod bench_json;
pub mod cli;

use gpu_sim::Device;
use graph_data::DatasetSpec;
use tc_algos::api::TcAlgorithm;
use tc_core::framework::backend::SimBackend;
use tc_core::framework::runner::{run_matrix, run_matrix_parallel, RunRecord};

/// Run the given algorithms over the given datasets on a simulated V100.
///
/// By default cells are fanned out across a rayon pool; `serial` runs
/// them one at a time instead (for debugging, or to minimize peak memory
/// on huge sweeps). The records come back in the same deterministic
/// (dataset-major) order either way, and a faulting implementation
/// records `Failed` for its own cell without taking the rest of the
/// sweep down.
pub fn sweep(
    algos: &[Box<dyn TcAlgorithm>],
    datasets: &[DatasetSpec],
    serial: bool,
) -> Vec<RunRecord> {
    let dev = Device::v100();
    let backends = [&SimBackend { dev: &dev } as _];
    if serial {
        run_matrix(&backends, algos, datasets)
    } else {
        run_matrix_parallel(&backends, algos, datasets)
    }
}

/// Progress note to stderr so long sweeps show life.
pub fn eprint_progress(what: &str) {
    eprintln!("[tc-bench] {what}");
}
