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

use bench_json::LintCell;
use gpu_sim::{Device, SimError};
use graph_data::{clean_edges, orient, DatasetSpec};
use tc_algos::all_algorithms;
use tc_algos::api::{TcAlgorithm, TcOutput};
use tc_algos::conformance::generator_cases;
use tc_core::framework::backend::Backend;
use tc_core::framework::runner::{run_matrix, run_matrix_parallel, RunRecord};

/// Run the given algorithms over the given datasets on `backend` (the
/// paper's figures use a `SimBackend` on a V100).
///
/// By default cells are fanned out across a rayon pool; `serial` runs
/// them one at a time instead (for debugging, or to minimize peak memory
/// on huge sweeps). The records come back in the same deterministic
/// (dataset-major) order either way, and a faulting implementation
/// records `Failed` for its own cell without taking the rest of the
/// sweep down.
pub fn sweep(
    backend: &dyn Backend,
    algos: &[Box<dyn TcAlgorithm>],
    datasets: &[DatasetSpec],
    serial: bool,
) -> Vec<RunRecord> {
    if serial {
        run_matrix(backend, algos, datasets)
    } else {
        run_matrix_parallel(backend, algos, datasets)
    }
}

/// The SimLint diagnostic wall: every registry algorithm over the full
/// conformance corpus on a V100 with lints forced on, one
/// leak-checked [`TcAlgorithm::run`] per (algorithm, case) in
/// registry-major order; each corpus graph is cleaned once and oriented
/// per algorithm. `tc lint_sweep` renders these cells as
/// `LINT_sim.json` with [`bench_json::render_lint`].
pub fn lint_wall() -> Vec<LintCell> {
    let dev = Device::v100().with_lints();
    let cases: Vec<_> = generator_cases()
        .into_iter()
        .map(|c| (c.name, clean_edges(&c.edges).0))
        .collect();
    let mut cells = Vec::new();
    for algo in all_algorithms() {
        for (case, g) in &cases {
            let dag = orient(g, algo.preferred_orientation());
            cells.push(match algo.run(&dev, &dag) {
                // A zero-launch degenerate run carries no report;
                // serialize it as a clean cell.
                Ok(out) => {
                    LintCell::from_report(algo.name(), case, &out.stats.lint.unwrap_or_default())
                }
                Err(e) => LintCell::from_error(algo.name(), case, &e.to_string()),
            });
        }
    }
    cells
}

/// The conformance cases the replay-equivalence pins cover: one
/// representative per generator family keeps the suite in test budget.
const PINNED_CASES: [&str; 3] = ["er-dense", "rmat-skewed", "road-grid"];

/// The replay-equivalence cells in pin order: every registry algorithm
/// on each of the `PINNED_CASES` (case-major), one leak-checked
/// [`TcAlgorithm::run`] on `dev` under its preferred orientation, as
/// `(algorithm, case, outcome)`.
/// `tc pin_replay_snapshots` prints these cells as
/// `tests/replay_equivalence/pins.rs`, and the replay-equivalence tests
/// compare them with it. Each cell runs when it is pulled, so a caller
/// can stop at the first failure.
pub fn pinned_cells(
    dev: &Device,
) -> impl Iterator<Item = (&'static str, &'static str, Result<TcOutput, SimError>)> + '_ {
    let algos = all_algorithms();
    let cases: Vec<_> = generator_cases()
        .into_iter()
        .filter(|c| PINNED_CASES.contains(&c.name))
        .map(|c| (c.name, clean_edges(&c.edges).0))
        .collect();
    (0..cases.len() * algos.len()).map(move |i| {
        let ((case, g), algo) = (&cases[i / algos.len()], &algos[i % algos.len()]);
        let dag = orient(g, algo.preferred_orientation());
        (algo.name(), *case, algo.run(dev, &dag))
    })
}

/// Progress note to stderr so long sweeps show life.
pub fn eprint_progress(what: &str) {
    eprintln!("[tc-bench] {what}");
}
