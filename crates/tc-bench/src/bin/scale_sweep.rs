//! Strong-scaling sweep: every registered algorithm partitioned over
//! 1..=8 simulated devices on one dataset, reporting per-cell makespan
//! cycles, speedup over the 1-device baseline and interconnect traffic.
//!
//! ```sh
//! cargo run --release -p tc-bench --bin scale_sweep -- \
//!     [dataset-name] [--devices-list 1,2,4,8] [--per-device]
//! ```
//!
//! Output is a GitHub-flavoured markdown table (ready to paste into
//! EXPERIMENTS.md). `--per-device` appends, for the largest device
//! count, a per-device breakdown of kernel vs link cycles — the view
//! that shows where the interconnect model starts to dominate.
//!
//! The counts are verified against the CPU reference at every device
//! count; a cell that fails to verify renders as `FAILED` and the run
//! exits non-zero.

use gpu_sim::Device;
use tc_algos::all_algorithms;
use tc_bench::{datasets_from_args, eprint_progress};
use tc_core::framework::partitioned::run_partitioned;
use tc_core::framework::runner::{PreparedDataset, RunOutcome};

fn main() -> Result<(), String> {
    let mut devices_list: Vec<u32> = vec![1, 2, 4, 8];
    let mut per_device = false;
    let mut dataset_args: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--devices-list" => {
                let spec = args.next().ok_or("--devices-list needs e.g. 1,2,4,8")?;
                devices_list = spec
                    .split(',')
                    .map(|t| {
                        t.trim()
                            .parse::<u32>()
                            .map_err(|e| format!("--devices-list: {e}"))
                    })
                    .collect::<Result<_, _>>()?;
                if devices_list.is_empty() || devices_list.contains(&0) {
                    return Err("--devices-list needs positive device counts".to_string());
                }
            }
            "--per-device" => per_device = true,
            other => dataset_args.push(other.to_string()),
        }
    }
    if dataset_args.is_empty() {
        dataset_args.push("Wiki-Talk".to_string());
    }
    let datasets = datasets_from_args(&dataset_args)?;
    let spec = datasets
        .first()
        .ok_or("scale_sweep needs exactly one dataset")?;
    let algos = all_algorithms();
    let dev = Device::v100();
    eprint_progress(&format!(
        "scale_sweep: {} algorithms x devices {:?} on {}",
        algos.len(),
        devices_list,
        spec.name
    ));
    let data = PreparedDataset::prepare(spec);

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
                    if per_device && n == *devices_list.iter().max().unwrap() {
                        if let Some(p) = &rec.partition {
                            for d in &p.per_device {
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
        println!(
            "\n#### Per-device breakdown at {} devices\n",
            devices_list.iter().max().unwrap()
        );
        println!("| algorithm | device | kernel cycles | link cycles | link bytes |");
        println!("|---|---|---|---|---|");
        for line in &largest_breakdown {
            println!("{line}");
        }
    }

    if any_failed {
        return Err("one or more cells failed or miscounted".to_string());
    }
    Ok(())
}
