//! The SimLint diagnostic wall: every registry algorithm over the full
//! conformance corpus with lints forced on, serialized as
//! `LINT_sim.json` (see `lint_json` for the schema and gate semantics).
//!
//! ```text
//! lint_sweep                         # print the JSON document to stdout
//! lint_sweep --out LINT_sim.json     # write (refresh the snapshot)
//! lint_sweep --check-snapshot [PATH] # regress against the committed
//!                                    # snapshot (default LINT_sim.json):
//!                                    # advisory diffs print to stderr,
//!                                    # rule-level regressions exit 1
//! ```

use gpu_sim::{Device, DeviceMem, LintReport};
use graph_data::{clean_edges, orient};
use tc_algos::all_algorithms;
use tc_algos::conformance::generator_cases;
use tc_algos::device_graph::DeviceGraph;

use tc_bench::lint_json::{compare_snapshot, render, LintCell};

/// Run one (algorithm × case) cell and collect its merged lint report.
fn run_cells() -> Vec<LintCell> {
    let dev = Device::v100().with_lints();
    let cases = generator_cases();
    let mut cells = Vec::new();
    for algo in all_algorithms() {
        for case in &cases {
            let (g, _) = clean_edges(&case.edges);
            let dag = orient(&g, algo.preferred_orientation());
            let mut mem = DeviceMem::new(&dev);
            let cell = match DeviceGraph::upload(&dag, &mut mem)
                .and_then(|dg| algo.count(&dev, &mut mem, &dg))
            {
                Ok(out) => {
                    // A zero-launch degenerate run carries no report;
                    // serialize it as a clean cell.
                    let report = out.stats.lint.unwrap_or_else(LintReport::default);
                    LintCell::from_report(algo.name(), case.name, &report)
                }
                Err(e) => LintCell::from_error(algo.name(), case.name, &e.to_string()),
            };
            cells.push(cell);
        }
    }
    cells
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let text = {
        tc_bench::eprint_progress("lint_sweep: running the registry over the conformance corpus");
        let cells = run_cells();
        let findings: usize = cells.iter().map(|c| c.diags.len()).sum();
        let clean = cells.iter().filter(|c| c.is_clean()).count();
        tc_bench::eprint_progress(&format!(
            "lint_sweep: {} cells, {clean} clean, {findings} findings",
            cells.len()
        ));
        render("V100", &cells)
    };

    match args.first().map(String::as_str) {
        None => print!("{text}"),
        Some("--out") => {
            let path = args.get(1).map(String::as_str).unwrap_or("LINT_sim.json");
            std::fs::write(path, &text).unwrap_or_else(|e| {
                eprintln!("lint_sweep: cannot write {path}: {e}");
                std::process::exit(2);
            });
            tc_bench::eprint_progress(&format!("lint_sweep: wrote {path}"));
        }
        Some("--check-snapshot") => {
            let path = args.get(1).map(String::as_str).unwrap_or("LINT_sim.json");
            let baseline = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("lint_sweep: cannot read snapshot {path}: {e}");
                std::process::exit(2);
            });
            let cells = tc_bench::lint_json::validate(&text).expect("own document validates");
            let report = compare_snapshot(&baseline, &cells).unwrap_or_else(|e| {
                eprintln!("lint_sweep: {e}");
                std::process::exit(2);
            });
            for a in &report.advisories {
                eprintln!("advisory: {a}");
            }
            for f in &report.failures {
                eprintln!("FAILURE: {f}");
            }
            eprintln!(
                "lint_sweep: {} cells compared, {} advisories, {} failures",
                report.compared,
                report.advisories.len(),
                report.failures.len()
            );
            if !report.passed() {
                std::process::exit(1);
            }
        }
        Some(other) => {
            eprintln!("lint_sweep: unknown option `{other}`");
            eprintln!("usage: lint_sweep [--out [PATH] | --check-snapshot [PATH]]");
            std::process::exit(2);
        }
    }
}
