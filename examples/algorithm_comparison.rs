//! Mini Figure 11: run all ten algorithms on one dataset and print a
//! comparison of modelled time, profiling counters, and correctness —
//! the unified framework as a downstream user would drive it.
//!
//! ```sh
//! cargo run --release --example algorithm_comparison [dataset-name]
//! ```

use tc_compare::algos::all_algorithms;
use tc_compare::core::framework::report::{cycles_to_ms, Table};
use tc_compare::core::{Backend, PreparedDataset, RunOutcome, SimBackend};
use tc_compare::graph::DatasetSpec;
use tc_compare::sim::Device;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "Email-EuAll".to_string());
    let spec = DatasetSpec::by_name(&name)
        .ok_or_else(|| format!("unknown dataset `{name}` (see Table II)"))?;
    eprintln!("preparing {} stand-in...", spec.name);
    let data = PreparedDataset::prepare(spec);
    println!(
        "dataset {}: {} vertices, {} edges, {} triangles (CPU reference)",
        spec.name, data.stats.vertices, data.stats.edges, data.ground_truth
    );

    let device = Device::v100();
    let sim = SimBackend { dev: &device };
    let mut t = Table::new(&[
        "algorithm",
        "triangles",
        "ok",
        "time (ms)",
        "load reqs",
        "warp eff %",
        "tx/req",
    ]);
    for algo in all_algorithms() {
        eprintln!("running {}...", algo.name());
        let rec = sim.run(algo.as_ref(), &data);
        match rec.outcome {
            RunOutcome::Ok {
                triangles,
                kernel_cycles,
                counters,
                verified,
            } => {
                t.row(vec![
                    rec.algorithm,
                    triangles.to_string(),
                    if verified { "yes" } else { "MISMATCH" }.to_string(),
                    format!("{:.3}", cycles_to_ms(kernel_cycles)),
                    counters.global_load_requests.to_string(),
                    format!("{:.1}", counters.warp_execution_efficiency() * 100.0),
                    format!("{:.2}", counters.gld_transactions_per_request()),
                ]);
            }
            RunOutcome::Failed(e) => {
                t.row(vec![
                    rec.algorithm,
                    "-".into(),
                    format!("FAILED: {e}"),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
            }
        }
    }
    println!("{}", t.render());
    Ok(())
}
