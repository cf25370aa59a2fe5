//! The benchmark and lint gates CI runs, and the replay pin
//! generator, one `tc` subcommand each. The bench and lint documents and
//! the replay pins are checked by regenerating them and diffing the
//! bytes against the committed files.

use std::io::Write;
use std::time::Instant;

use gpu_sim::Device;
use tc_algos::all_algorithms;
use tc_bench::bench_json::{self, BenchCell};
use tc_bench::cli::{Args, Error};
use tc_bench::eprint_progress;
use tc_core::framework::backend::{Backend, CpuBackend, SimBackend};
use tc_core::framework::runner::{run_matrix, run_matrix_parallel, RunRecord};

/// Parse the value of option `name` as a positive integer.
fn positive(name: &str, value: &str) -> Result<u32, String> {
    match value.trim().parse::<u32>() {
        Ok(0) => Err(format!("`{name}` must be at least 1")),
        Ok(n) => Ok(n),
        Err(e) => Err(format!("`{name}`: {e}")),
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
/// to back.
///
/// `--bench-json` writes the modelled results (committed as
/// `BENCH_sim.json`; CI diffs a fresh Wiki-Talk document against it).
/// A cell that fails, or whose count disagrees with the CPU reference
/// (`MISCOUNT`), fails the run after the table and the document are
/// written.
pub fn bench_sweep(mut args: Args) -> Result<(), Error> {
    let serial = args.flag("--serial");
    let reps = match args.value("--reps")? {
        Some(v) => positive("--reps", &v)?,
        None => 3,
    };
    let backend_arg = args
        .value("--backend")?
        .unwrap_or_else(|| "sim".to_string());
    let json_path = args.value("--bench-json")?;
    let datasets = args.datasets(&["Wiki-Talk"])?;
    args.finish()?;

    let algos = all_algorithms();
    let dev = Device::v100();
    let sim = SimBackend { dev: &dev };
    let backends: Vec<&dyn Backend> = match backend_arg.as_str() {
        "sim" => vec![&sim],
        "cpu" => vec![&CpuBackend],
        "both" => vec![&sim, &CpuBackend],
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
            c.label()
        );
    }
    let sweep_wall: f64 = cells.iter().map(|c| c.wall_ms).sum();
    println!("best-rep sweep wall (sum of cells): {sweep_wall:.1} ms");
    println!("total harness wall ({reps} reps):   {total_wall_ms:.1} ms");

    if let Some(path) = json_path {
        let text = bench_json::render("V100", &cells);
        crate::write_file(&path, |f| f.write_all(text.as_bytes()))?;
    }
    if cells.iter().any(|c| !c.verified) {
        return Err(Error::Failed(
            "one or more cells failed or miscounted".to_string(),
        ));
    }
    Ok(())
}

/// The SimLint diagnostic wall: every registry algorithm over the full
/// conformance corpus with lints forced on, rendered as `LINT_sim.json`
/// on stdout (see `bench_json` for the schema). CI diffs it against the
/// committed file; redirect it over that file to refresh the pin.
pub fn lint_sweep(args: Args) -> Result<(), Error> {
    args.finish()?;

    eprint_progress("lint_sweep: running the registry over the conformance corpus");
    let cells = tc_bench::lint_wall();
    let findings: usize = cells.iter().map(|c| c.diags.len()).sum();
    let clean = cells.iter().filter(|c| c.is_clean()).count();
    eprint_progress(&format!(
        "lint_sweep: {} cells, {clean} clean, {findings} findings",
        cells.len()
    ));
    print!("{}", bench_json::render_lint("V100", &cells));
    Ok(())
}

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

    println!("// Generated by `cargo run --release -p tc-bench -- pin_replay_snapshots`.");
    println!("// Exact LaunchStats of every registered algorithm on the pinned");
    println!("// conformance graphs (plain V100, detector and sanitizer off).");
    println!("pub const PINS: &[Pin] = &[");
    for (algo, case, out) in tc_bench::pinned_cells(&dev) {
        let out = out.map_err(|e| Error::Failed(format!("{algo} failed on {case}: {e}")))?;
        let s = &out.stats;
        let c = &s.counters;
        println!("    Pin {{");
        println!("        algorithm: {:?},", algo);
        println!("        case: {:?},", case);
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
    println!("];");
    Ok(())
}
