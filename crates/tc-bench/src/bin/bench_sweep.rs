//! Sweep microbenchmark: host wall-clock time of the evaluation engine.
//!
//! Runs every registered algorithm over the selected datasets
//! (default: Wiki-Talk, the medium R-MAT stand-in) `--reps` times and
//! reports, per cell, the best host wall time plus the modelled kernel
//! cycles. This measures the *simulator's* speed — the bottleneck of the
//! full Table III sweep — not the modelled device time, which is
//! deterministic and pinned by the snapshot tests.
//!
//! ```sh
//! cargo run --release -p tc-bench --bin bench_sweep -- \
//!     [dataset-name... | --small | --medium] [--serial] [--reps N] \
//!     [--backend sim|cpu|both] [--devices N] \
//!     [--bench-json PATH] [--check-baseline PATH]
//! ```
//!
//! `--backend` selects the execution substrate: `sim` (default) runs the
//! cycle-modelled simulator, `cpu` runs each algorithm's native rayon
//! host kernel (kernel cycles report 0 — the CPU path models nothing),
//! and `both` sweeps the two back to back for a differential wall-clock
//! comparison. Mixed-backend JSON output tags every record with its
//! backend; pure-sim output keeps the historical schema.
//!
//! `--devices N` (default 1) runs the sim backend partitioned over N
//! simulated devices (see `tc_core::framework::partitioned`); cycle
//! figures are then per-cell makespans. At the default `--devices 1`
//! every code path, record and output byte is identical to builds
//! without the flag.
//!
//! `--bench-json` writes the machine-readable trajectory file (see
//! `tc_bench::bench_json`); committing it as `BENCH_sim.json` records the
//! perf baseline future PRs regress against. `--check-baseline` regresses
//! this run against such a committed file: any overlapping cell whose
//! deterministic `kernel_cycles` exceeds the baseline by more than 25%
//! fails the run (exit 1); wall-clock drift is reported as advisory only,
//! because host timing varies across machines. This is the CI
//! bench-smoke regression gate.

use std::time::Instant;

use gpu_sim::Device;
use tc_algos::all_algorithms;
use tc_bench::bench_json::{self, BenchCell};
use tc_bench::{datasets_from_args, eprint_progress};
use tc_core::framework::backend::{Backend, CpuBackend, SimBackend};
use tc_core::framework::partitioned::PartitionedSimBackend;
use tc_core::framework::runner::{run_matrix, run_matrix_parallel, RunRecord};

fn main() -> Result<(), String> {
    let mut reps: u32 = 3;
    let mut serial = false;
    let mut backend_arg = "sim".to_string();
    let mut devices: u32 = 1;
    let mut json_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut dataset_args: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--serial" => serial = true,
            "--backend" => {
                backend_arg = args.next().ok_or("--backend needs sim|cpu|both")?;
            }
            "--devices" => {
                devices = args
                    .next()
                    .ok_or("--devices needs a value")?
                    .parse()
                    .map_err(|e| format!("--devices: {e}"))?;
                if devices == 0 {
                    return Err("--devices must be at least 1".to_string());
                }
            }
            "--reps" => {
                reps = args
                    .next()
                    .ok_or("--reps needs a value")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?;
                if reps == 0 {
                    return Err("--reps must be at least 1".to_string());
                }
            }
            "--bench-json" => {
                json_path = Some(args.next().ok_or("--bench-json needs a path")?);
            }
            "--check-baseline" => {
                baseline_path = Some(args.next().ok_or("--check-baseline needs a path")?);
            }
            other => dataset_args.push(other.to_string()),
        }
    }
    if dataset_args.is_empty() {
        dataset_args.push("Wiki-Talk".to_string());
    }
    let datasets = datasets_from_args(&dataset_args)?;
    let algos = all_algorithms();
    let dev = Device::v100();
    let sim = SimBackend { dev: &dev };
    let part = PartitionedSimBackend {
        dev: &dev,
        num_devices: devices,
    };
    // `--devices 1` stays on the plain sim backend so its records and
    // JSON are byte-identical to builds without the flag.
    let sim_backend: &dyn Backend = if devices > 1 { &part } else { &sim };
    let backends: Vec<&dyn Backend> = match backend_arg.as_str() {
        "sim" => vec![sim_backend],
        "cpu" => vec![&CpuBackend],
        "both" => vec![sim_backend, &CpuBackend],
        other => return Err(format!("--backend must be sim|cpu|both, got `{other}`")),
    };
    let mode = if serial { "serial" } else { "parallel" };
    eprint_progress(&format!(
        "bench_sweep: {} algorithms x {} datasets x {} backend(s) ({backend_arg}), \
         {reps} rep(s), {mode}",
        algos.len(),
        datasets.len(),
        backends.len(),
    ));

    let run = |label: &str| -> Vec<RunRecord> {
        let started = Instant::now();
        let records = if serial {
            run_matrix(&backends, &algos, &datasets)
        } else {
            run_matrix_parallel(&backends, &algos, &datasets)
        };
        eprint_progress(&format!(
            "{label}: {:.1} ms",
            started.elapsed().as_secs_f64() * 1e3
        ));
        records
    };

    let total_started = Instant::now();
    let first = run("rep 1");
    let mut cells = BenchCell::from_records(&first);
    for rep in 1..reps {
        let records = run(&format!("rep {}", rep + 1));
        BenchCell::merge_min_wall(&mut cells, &records);
    }
    let total_wall_ms = total_started.elapsed().as_secs_f64() * 1e3;

    let multi = backends.len() > 1;
    println!(
        "{:<12} {:<18} {:<7} {:>10} {:>14} {:>9}",
        "algorithm",
        "dataset",
        if multi { "backend" } else { "" },
        "wall ms",
        "kernel cycles",
        "outcome"
    );
    for c in &cells {
        println!(
            "{:<12} {:<18} {:<7} {:>10.3} {:>14} {:>9}",
            c.algorithm,
            c.dataset,
            if multi { c.backend } else { "" },
            c.wall_ms,
            c.kernel_cycles,
            if c.outcome == "ok" && c.verified {
                "ok"
            } else {
                c.outcome
            }
        );
    }
    let sweep_wall: f64 = cells.iter().map(|c| c.wall_ms).sum();
    println!("best-rep sweep wall (sum of cells): {sweep_wall:.1} ms");
    println!("total harness wall ({reps} reps):   {total_wall_ms:.1} ms");

    if let Some(path) = json_path {
        let text = bench_json::render("V100", reps, total_wall_ms, &cells);
        bench_json::validate(&text).map_err(|e| format!("internal: emitted bad JSON: {e}"))?;
        std::fs::write(&path, &text).map_err(|e| format!("write {path}: {e}"))?;
        eprint_progress(&format!("wrote {path}"));
    }

    if let Some(path) = baseline_path {
        let baseline =
            std::fs::read_to_string(&path).map_err(|e| format!("read baseline {path}: {e}"))?;
        let report = bench_json::compare_to_baseline(&baseline, &cells, 0.25)
            .map_err(|e| format!("baseline check against {path}: {e}"))?;
        for adv in &report.advisories {
            eprint_progress(&format!("advisory: {adv}"));
        }
        if report.passed() {
            eprint_progress(&format!(
                "baseline check vs {path}: {} cell(s) within the +25% kernel-cycle band",
                report.compared,
            ));
        } else {
            for f in &report.failures {
                eprintln!("REGRESSION: {f}");
            }
            return Err(format!(
                "baseline check vs {path} failed: {} regression(s) in {} compared cell(s)",
                report.failures.len(),
                report.compared,
            ));
        }
    }
    Ok(())
}
