//! The benchmark, lint and scaling gates CI runs, and the replay pin
//! generator, one `tc` subcommand each.

use std::io::Write;
use std::time::Instant;

use gpu_sim::{Device, DeviceMem, LintReport};
use graph_data::{clean_edges, orient};
use tc_algos::all_algorithms;
use tc_algos::conformance::generator_cases;
use tc_algos::device_graph::DeviceGraph;
use tc_bench::bench_json::{self, BenchCell, GateReport, LintCell};
use tc_bench::cli::{Args, Error};
use tc_bench::eprint_progress;
use tc_core::framework::backend::{Backend, CpuBackend, SimBackend};
use tc_core::framework::partitioned::{run_partitioned, PartitionedSimBackend};
use tc_core::framework::runner::{
    run_matrix, run_matrix_parallel, PreparedDataset, RunOutcome, RunRecord,
};

/// Parse the value of option `name` as a positive integer.
fn positive(name: &str, value: &str) -> Result<u32, String> {
    match value.trim().parse::<u32>() {
        Ok(0) => Err(format!("`{name}` must be at least 1")),
        Ok(n) => Ok(n),
        Err(e) => Err(format!("`{name}`: {e}")),
    }
}

fn read(path: &str) -> Result<String, Error> {
    std::fs::read_to_string(path).map_err(|e| Error::Failed(format!("read {path}: {e}")))
}

/// Print a gate's advisories and failures to stderr, and fail the
/// command unless it passed.
fn gate(what: &str, report: &GateReport) -> Result<(), Error> {
    for a in &report.advisories {
        eprintln!("advisory: {a}");
    }
    for f in &report.failures {
        eprintln!("FAILURE: {f}");
    }
    eprintln!(
        "{what}: {} cells compared, {} advisories, {} failures",
        report.compared,
        report.advisories.len(),
        report.failures.len()
    );
    if report.passed() {
        Ok(())
    } else {
        Err(Error::Failed(format!("{what} failed")))
    }
}

/// Sweep microbenchmark: host wall-clock time of the evaluation engine.
///
/// Runs every registered algorithm over the selected datasets (default:
/// Wiki-Talk, the medium R-MAT stand-in) `--reps` times and reports, per
/// cell, the best host wall time plus the modelled kernel cycles. This
/// measures the *simulator's* speed, not the modelled device time, which
/// is deterministic and pinned by the snapshot tests.
///
/// `--backend` selects the execution substrate: `sim` (default) runs the
/// cycle-modelled simulator, `cpu` runs each algorithm's native rayon
/// host kernel (kernel cycles report 0), and `both` sweeps the two back
/// to back. `--devices N` (default 1) runs the sim backend partitioned
/// over N simulated devices; cycle figures are then per-cell makespans.
///
/// `--bench-json` writes the schema-v1 trajectory file (committed as
/// `BENCH_sim.json`). `--check-baseline` regresses this run against such
/// a file: any overlapping cell whose deterministic `kernel_cycles`
/// exceeds the baseline by more than 25% fails the run; wall-clock drift
/// is advisory only. This is the CI bench-smoke regression gate.
pub fn bench_sweep(mut args: Args) -> Result<(), Error> {
    let serial = args.flag("--serial");
    let reps = match args.value("--reps")? {
        Some(v) => positive("--reps", &v)?,
        None => 3,
    };
    let backend_arg = args
        .value("--backend")?
        .unwrap_or_else(|| "sim".to_string());
    let devices = match args.value("--devices")? {
        Some(v) => positive("--devices", &v)?,
        None => 1,
    };
    let json_path = args.value("--bench-json")?;
    let baseline_path = args.value("--check-baseline")?;
    let datasets = args.datasets(&["Wiki-Talk"])?;
    args.finish()?;

    let algos = all_algorithms();
    let dev = Device::v100();
    let sim = SimBackend { dev: &dev };
    let part = PartitionedSimBackend {
        dev: &dev,
        num_devices: devices,
    };
    // `--devices 1` stays on the plain sim backend so its records and
    // JSON are byte-identical to runs without the flag.
    let sim_backend: &dyn Backend = if devices > 1 { &part } else { &sim };
    let backends: Vec<&dyn Backend> = match backend_arg.as_str() {
        "sim" => vec![sim_backend],
        "cpu" => vec![&CpuBackend],
        "both" => vec![sim_backend, &CpuBackend],
        other => {
            return Err(Error::Usage(format!(
                "`--backend` must be sim|cpu|both, got `{other}`"
            )))
        }
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
    let mut cells = BenchCell::from_records(&run("rep 1"));
    for rep in 1..reps {
        BenchCell::merge_min_wall(&mut cells, &run(&format!("rep {}", rep + 1)));
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
        bench_json::validate(&text)
            .map_err(|e| Error::Failed(format!("internal: emitted bad JSON: {e}")))?;
        crate::write_file(&path, |f| f.write_all(text.as_bytes()))?;
    }
    if let Some(path) = baseline_path {
        let report = bench_json::compare_to_baseline(&read(&path)?, &cells, 0.25)
            .map_err(|e| Error::Failed(format!("baseline check against {path}: {e}")))?;
        gate(
            &format!("baseline check vs {path} (+25% kernel-cycle band)"),
            &report,
        )?;
    }
    Ok(())
}

/// The SimLint diagnostic wall: every registry algorithm over the full
/// conformance corpus with lints forced on, rendered as `LINT_sim.json`
/// (see `bench_json` for the schema and gate semantics).
///
/// With no option the document goes to stdout; `--out [PATH]` writes it
/// (default `LINT_sim.json`, refreshing the snapshot);
/// `--check-snapshot [PATH]` regresses it against the committed
/// snapshot: advisory diffs print to stderr, rule-level regressions
/// exit 1.
pub fn lint_sweep(mut args: Args) -> Result<(), Error> {
    let out = args.flag("--out");
    let check = args.flag("--check-snapshot");
    if out && check {
        return Err(Error::Usage(
            "pass `--out` or `--check-snapshot`, not both".to_string(),
        ));
    }
    let path = (out || check).then(|| {
        args.positional()
            .unwrap_or_else(|| "LINT_sim.json".to_string())
    });
    args.finish()?;

    eprint_progress("lint_sweep: running the registry over the conformance corpus");
    let dev = Device::v100().with_lints();
    let cases = generator_cases();
    let mut cells = Vec::new();
    for algo in all_algorithms() {
        for case in &cases {
            let (g, _) = clean_edges(&case.edges);
            let dag = orient(&g, algo.preferred_orientation());
            let mut mem = DeviceMem::new(&dev);
            cells.push(
                match DeviceGraph::upload(&dag, &mut mem)
                    .and_then(|dg| algo.count(&dev, &mut mem, &dg))
                {
                    // A zero-launch degenerate run carries no report;
                    // serialize it as a clean cell.
                    Ok(out) => LintCell::from_report(
                        algo.name(),
                        case.name,
                        &out.stats.lint.unwrap_or_else(LintReport::default),
                    ),
                    Err(e) => LintCell::from_error(algo.name(), case.name, &e.to_string()),
                },
            );
        }
    }
    let findings: usize = cells.iter().map(|c| c.diags.len()).sum();
    let clean = cells.iter().filter(|c| c.is_clean()).count();
    eprint_progress(&format!(
        "lint_sweep: {} cells, {clean} clean, {findings} findings",
        cells.len()
    ));
    let text = bench_json::render_lint("V100", &cells);

    match path {
        None => print!("{text}"),
        Some(path) if out => crate::write_file(&path, |f| f.write_all(text.as_bytes()))?,
        Some(path) => {
            let report = bench_json::compare_snapshot(&read(&path)?, &cells)
                .map_err(|e| Error::Failed(format!("snapshot check against {path}: {e}")))?;
            gate(&format!("lint snapshot check vs {path}"), &report)?;
        }
    }
    Ok(())
}

/// Strong-scaling sweep: every registered algorithm partitioned over
/// 1..=8 simulated devices on one dataset (default Wiki-Talk),
/// reporting per-cell makespan cycles, speedup over the first device
/// count and interconnect traffic, as a GitHub-flavoured markdown table
/// (ready to paste into EXPERIMENTS.md). `--per-device` appends, for the
/// largest device count, a per-device breakdown of kernel vs link
/// cycles. Counts are verified against the CPU reference at every
/// device count; a cell that fails or miscounts fails the run.
pub fn scale_sweep(mut args: Args) -> Result<(), Error> {
    let devices_list: Vec<u32> = match args.value("--devices-list")? {
        Some(list) => list
            .split(',')
            .map(|n| positive("--devices-list", n))
            .collect::<Result<_, _>>()?,
        None => vec![1, 2, 4, 8],
    };
    let per_device = args.flag("--per-device");
    let spec = args.datasets(&["Wiki-Talk"])?[0];
    args.finish()?;

    let algos = all_algorithms();
    let dev = Device::v100();
    eprint_progress(&format!(
        "scale_sweep: {} algorithms x devices {:?} on {}",
        algos.len(),
        devices_list,
        spec.name
    ));
    let data = PreparedDataset::prepare(&spec);
    let largest = *devices_list.iter().max().expect("non-empty list");

    println!("### Strong scaling on {} (V100 link model)\n", spec.name);
    let header: Vec<String> = devices_list
        .iter()
        .map(|n| format!("{n} dev (cycles / speedup / link MB)"))
        .collect();
    println!("| algorithm | {} |", header.join(" | "));
    println!("|---|{}", "---|".repeat(devices_list.len()));

    let mut any_failed = false;
    let mut largest_breakdown: Vec<String> = Vec::new();
    for algo in &algos {
        let mut row = format!("| {} ", algo.name());
        let mut baseline: Option<u64> = None;
        for &n in &devices_list {
            let rec = run_partitioned(&dev, algo.as_ref(), &data, n);
            match &rec.outcome {
                RunOutcome::Ok {
                    verified: true,
                    kernel_cycles,
                    ..
                } => {
                    let cycles = *kernel_cycles;
                    let base = *baseline.get_or_insert(cycles);
                    let speedup = base as f64 / cycles.max(1) as f64;
                    let link_mb = rec
                        .partition
                        .as_ref()
                        .map(|p| p.total_link_bytes as f64 / 1e6)
                        .unwrap_or(0.0);
                    row.push_str(&format!("| {cycles} / {speedup:.2}x / {link_mb:.2} "));
                    if per_device && n == largest {
                        for d in rec.partition.iter().flat_map(|p| &p.per_device) {
                            largest_breakdown.push(format!(
                                "| {} | {} | {} | {} | {} |",
                                algo.name(),
                                d.device,
                                d.kernel_cycles,
                                d.link_cycles,
                                d.link_bytes
                            ));
                        }
                    }
                }
                RunOutcome::Ok { .. } => {
                    any_failed = true;
                    row.push_str("| MISCOUNT ");
                }
                RunOutcome::Failed(e) => {
                    any_failed = true;
                    eprint_progress(&format!("{} x{n}: {e}", algo.name()));
                    row.push_str("| FAILED ");
                }
            }
        }
        row.push('|');
        println!("{row}");
    }

    if per_device && !largest_breakdown.is_empty() {
        println!("\n#### Per-device breakdown at {largest} devices\n");
        println!("| algorithm | device | kernel cycles | link cycles | link bytes |");
        println!("|---|---|---|---|---|");
        for line in &largest_breakdown {
            println!("{line}");
        }
    }

    if any_failed {
        return Err(Error::Failed(
            "one or more cells failed or miscounted".to_string(),
        ));
    }
    Ok(())
}

/// The conformance cases the replay-equivalence test pins (one
/// representative per generator family keeps the suite in test budget).
const PINNED_CASES: [&str; 3] = ["er-dense", "rmat-skewed", "road-grid"];

/// Regenerates the pinned `LaunchStats` table for the cross-engine
/// equivalence test (`tests/replay_equivalence.rs`): every registered
/// algorithm over the pinned conformance graphs, on a plain benchmark
/// V100 (race detector and SimSan off). The simulator is deterministic,
/// so these values are exact. Re-pin *only* when a change to the memory
/// system, the replay rules or a kernel is intentional:
///
/// ```sh
/// cargo run --release -p tc-bench -- pin_replay_snapshots \
///     > tests/replay_equivalence/pins.rs
/// ```
pub fn pin_replay_snapshots(args: Args) -> Result<(), Error> {
    args.finish()?;
    let dev = Device::v100();
    let algos = all_algorithms();
    let cases = generator_cases();

    println!("// Generated by `cargo run --release -p tc-bench -- pin_replay_snapshots`.");
    println!("// Exact LaunchStats of every registered algorithm on the pinned");
    println!("// conformance graphs (plain V100, detector and sanitizer off).");
    println!("pub const PINS: &[Pin] = &[");
    for case in cases.iter().filter(|c| PINNED_CASES.contains(&c.name)) {
        let (g, _) = clean_edges(&case.edges);
        for algo in &algos {
            let dag = orient(&g, algo.preferred_orientation());
            let mut mem = DeviceMem::new(&dev);
            let out = DeviceGraph::upload(&dag, &mut mem)
                .and_then(|dg| algo.count(&dev, &mut mem, &dg))
                .map_err(|e| {
                    Error::Failed(format!("{} failed on {}: {e}", algo.name(), case.name))
                })?;
            let s = &out.stats;
            let c = &s.counters;
            println!("    Pin {{");
            println!("        algorithm: {:?},", algo.name());
            println!("        case: {:?},", case.name);
            println!("        triangles: {},", out.triangles);
            println!("        kernel_cycles: {},", s.kernel_cycles);
            println!("        total_block_cycles: {},", s.total_block_cycles);
            println!("        blocks: {},", s.blocks);
            println!("        counters: ProfileCounters {{");
            for (name, v) in [
                ("global_load_requests", c.global_load_requests),
                ("gld_transactions", c.gld_transactions),
                ("dram_load_sectors", c.dram_load_sectors),
                ("global_store_requests", c.global_store_requests),
                ("gst_transactions", c.gst_transactions),
                ("global_atomic_requests", c.global_atomic_requests),
                ("dram_atomic_sectors", c.dram_atomic_sectors),
                ("shared_load_requests", c.shared_load_requests),
                ("shared_store_requests", c.shared_store_requests),
                ("shared_atomic_requests", c.shared_atomic_requests),
                ("compute_slots", c.compute_slots),
                ("issued_slots", c.issued_slots),
                ("active_thread_slots", c.active_thread_slots),
                // The plain device runs no checks.
                ("race_checks", 0),
                ("races_detected", 0),
                ("sanitizer_checks", 0),
                ("sanitizer_reports", 0),
                ("lint_checks", 0),
            ] {
                println!("            {name}: {v},");
            }
            println!("        }},");
            println!("    }},");
        }
    }
    println!("];");
    Ok(())
}
