//! Measurement-only overlay for interleaved A/B perf comparisons:
//! serial sweeps over the selected datasets, per-cell minimum wall time
//! across `--reps` repetitions. Run it alternately from two builds (the
//! A side and the B side) on one machine and compare the emitted
//! schema-v1 bench JSON — wall times from different machines are never
//! comparable, which is why this tool exists separately from
//! `bench_sweep` and refuses statistically meaningless rep counts.
//!
//! ```sh
//! cargo run --release -p tc-bench --bin ab_sweep -- \
//!     [dataset-name... | --small | --medium] [--reps N] \
//!     [--algos NAME[,NAME...]] [--bench-json PATH]
//! ```
//!
//! Per-cell results go to stdout as CSV
//! (`algorithm,dataset,wall_ms,kernel_cycles`); `--bench-json` writes
//! the same cells as a schema-v1 file (see `tc_bench::bench_json`) so
//! the two sides of an A/B run are machine-comparable.

use std::time::Instant;

use tc_algos::all_algorithms;
use tc_bench::bench_json::{self, BenchCell};
use tc_bench::{datasets_from_args, eprint_progress, sweep_serial};

fn main() -> Result<(), String> {
    let mut reps: u32 = 3;
    let mut json_path: Option<String> = None;
    let mut algo_filter: Option<Vec<String>> = None;
    let mut dataset_args: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--reps" => {
                reps = args
                    .next()
                    .ok_or("--reps needs a value")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?;
            }
            "--algos" => {
                let list = args.next().ok_or("--algos needs a comma-separated list")?;
                algo_filter = Some(list.split(',').map(|s| s.trim().to_string()).collect());
            }
            "--bench-json" => {
                json_path = Some(args.next().ok_or("--bench-json needs a path")?);
            }
            other => dataset_args.push(other.to_string()),
        }
    }
    if reps < 3 {
        return Err(format!(
            "--reps {reps} is too few for an A/B comparison: a single wall-time \
             sample is dominated by scheduler and cache noise, and the per-cell \
             minimum only sheds it with at least 3 repetitions (pass --reps 3 \
             or more)"
        ));
    }
    if dataset_args.is_empty() {
        dataset_args.push("Wiki-Talk".to_string());
    }
    let datasets = datasets_from_args(&dataset_args)?;

    let mut algos = all_algorithms();
    if let Some(names) = &algo_filter {
        let known: Vec<String> = algos.iter().map(|a| a.name().to_string()).collect();
        for name in names {
            if !known.iter().any(|k| k.eq_ignore_ascii_case(name)) {
                return Err(format!(
                    "unknown algorithm `{name}` (registered: {})",
                    known.join(", ")
                ));
            }
        }
        algos.retain(|a| names.iter().any(|n| n.eq_ignore_ascii_case(a.name())));
    }

    eprint_progress(&format!(
        "ab_sweep: {} algorithms x {} datasets, {reps} reps, serial",
        algos.len(),
        datasets.len(),
    ));
    let total_started = Instant::now();
    let mut cells = BenchCell::from_records(&sweep_serial(&algos, &datasets));
    for rep in 1..reps {
        eprint_progress(&format!("rep {}/{reps}", rep + 1));
        BenchCell::merge_min_wall(&mut cells, &sweep_serial(&algos, &datasets));
    }
    let total_wall_ms = total_started.elapsed().as_secs_f64() * 1e3;

    for c in &cells {
        println!(
            "{},{},{:.3},{}",
            c.algorithm, c.dataset, c.wall_ms, c.kernel_cycles
        );
    }
    if let Some(path) = json_path {
        let text = bench_json::render("V100", reps, total_wall_ms, &cells);
        bench_json::validate(&text).map_err(|e| format!("internal: emitted bad JSON: {e}"))?;
        std::fs::write(&path, &text).map_err(|e| format!("write {path}: {e}"))?;
        eprint_progress(&format!("wrote {path}"));
    }
    Ok(())
}
