//! The benchmark sweep and the pin writer, one `tc` subcommand each.

use std::io::Write;
use std::time::Instant;

use gpu_sim::Device;
use tc_algos::all_algorithms;
use tc_bench::cli::{Args, Error};
use tc_bench::eprint_progress;
use tc_bench::pins::PIN_FILES;
use tc_core::framework::backend::{Backend, CpuBackend, SimBackend};
use tc_core::framework::runner::{RunOutcome, RunRecord};

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
/// `--backend` selects the execution substrate of the sweep: `sim`
/// (default) runs the cycle-modelled simulator, `cpu` runs each
/// algorithm's native rayon host kernel (kernel cycles report 0). To
/// compare the two, run the command once per backend. A cell that
/// fails, or whose count disagrees with the CPU reference (`MISCOUNT`),
/// fails the run after the table is printed.
pub fn bench_sweep(mut args: Args) -> Result<(), Error> {
    let serial = args.flag("--serial");
    let reps = match args.value("--reps")? {
        Some(v) => positive("--reps", &v)?,
        None => 3,
    };
    let backend_arg = args.value("--backend")?;
    let datasets = args.datasets(&["Wiki-Talk"])?;
    args.finish()?;

    let algos = all_algorithms();
    let dev = Device::v100();
    let sim = SimBackend { dev: &dev };
    let (backend, device): (&dyn Backend, &str) = match backend_arg.as_deref() {
        None | Some("sim") => (&sim, "V100"),
        Some("cpu") => (&CpuBackend, "cpu"),
        Some(other) => {
            return Err(Error::Usage(format!(
                "`--backend` must be sim|cpu, got `{other}`"
            )))
        }
    };
    let mode = if serial { "serial" } else { "parallel" };
    eprint_progress(&format!(
        "bench_sweep: {} algorithms x {} datasets on {device}, {reps} rep(s), {mode}",
        algos.len(),
        datasets.len(),
    ));

    let run = |label: &str| -> Vec<RunRecord> {
        let started = Instant::now();
        let records = tc_bench::sweep(backend, &algos, &datasets, serial);
        eprint_progress(&format!(
            "{label}: {:.1} ms",
            started.elapsed().as_secs_f64() * 1e3
        ));
        records
    };

    let total_started = Instant::now();
    // Every rep runs the same matrix in the same order; each cell keeps
    // its best (minimum) wall time, the least-noisy estimate of the
    // engine's speed.
    let mut records = run("rep 1");
    for rep in 1..reps {
        for (best, r) in records.iter_mut().zip(run(&format!("rep {}", rep + 1))) {
            best.wall = best.wall.min(r.wall);
        }
    }
    let total_wall_ms = total_started.elapsed().as_secs_f64() * 1e3;

    println!(
        "{:<12} {:<18} {:>10} {:>14} {:>9}",
        "algorithm", "dataset", "wall ms", "kernel cycles", "outcome"
    );
    for r in &records {
        println!(
            "{:<12} {:<18} {:>10.3} {:>14} {:>9}",
            r.algorithm,
            r.dataset,
            r.wall.as_secs_f64() * 1e3,
            r.kernel_cycles().unwrap_or(0),
            label(r)
        );
    }
    let sweep_wall: f64 = records.iter().map(|r| r.wall.as_secs_f64() * 1e3).sum();
    println!("best-rep sweep wall (sum of cells): {sweep_wall:.1} ms");
    println!("total harness wall ({reps} reps):   {total_wall_ms:.1} ms");

    if !records.iter().all(RunRecord::is_verified) {
        return Err(Error::Failed(
            "one or more cells failed or miscounted".to_string(),
        ));
    }
    Ok(())
}

/// The outcome column of `tc bench_sweep`: `ok`, `failed`, or
/// `MISCOUNT` for a cell that ran but disagrees with the CPU reference.
fn label(r: &RunRecord) -> &'static str {
    match r.outcome {
        RunOutcome::Failed(_) => "failed",
        _ if r.is_verified() => "ok",
        _ => "MISCOUNT",
    }
}

/// Write every committed pin ([`PIN_FILES`]) to its path under the
/// current directory, which is the repo root. A pin whose render fails
/// is left as it is, and the command fails after the others are written.
pub fn pins(args: Args) -> Result<(), Error> {
    args.finish()?;
    let mut failed = Vec::new();
    for pin in PIN_FILES {
        match (pin.render)() {
            Ok(text) => crate::write_file(pin.path, |f| f.write_all(text.as_bytes()))?,
            Err(e) => {
                eprint_progress(&format!("{}: {e}", pin.path));
                failed.push(pin.path);
            }
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(Error::Failed(format!("could not render {failed:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn record(outcome: RunOutcome) -> RunRecord {
        RunRecord {
            algorithm: "Polak".to_string(),
            dataset: "tiny-rmat",
            outcome,
            wall: Duration::from_millis(1),
        }
    }

    #[test]
    fn failed_and_miscounted_cells_are_labelled() {
        let ok = |verified| RunOutcome::Ok {
            triangles: 7,
            kernel_cycles: 42,
            counters: Default::default(),
            verified,
        };
        let failed = RunOutcome::Failed(gpu_sim::SimError::KernelFault("x".into()));
        let labels = [ok(true), ok(false), failed].map(|o| label(&record(o)));
        assert_eq!(labels, ["ok", "MISCOUNT", "failed"]);
    }
}
