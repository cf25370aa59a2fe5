//! V100 vs RTX 4090: the paper's footnote 2 reports that the RTX 4090
//! results track the V100 ones. This example runs the top contenders on
//! both simulated devices and prints the ratio — more SMs and a bigger
//! L1 shift absolute numbers, the ordering stays put.
//!
//! ```sh
//! cargo run --release --example device_comparison [dataset-name]
//! ```

use tc_compare::algos::{polak::Polak, tricore::TriCore, trust::Trust};
use tc_compare::algos::{GroupTc, TcAlgorithm};
use tc_compare::core::framework::report::{cycles_to_ms, Table};
use tc_compare::graph::{orient, DatasetSpec};
use tc_compare::sim::Device;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "Soc-Slashdot0922".to_string());
    let spec = DatasetSpec::by_name(&name)
        .ok_or_else(|| format!("unknown dataset `{name}` (see Table II)"))?;
    eprintln!("building {} stand-in...", spec.name);
    let graph = spec.build();

    let algos: Vec<Box<dyn TcAlgorithm>> = vec![
        Box::new(Polak),
        Box::new(TriCore),
        Box::new(Trust),
        Box::new(GroupTc::default()),
    ];
    let devices = [("V100", Device::v100()), ("RTX4090", Device::rtx4090())];

    let mut t = Table::new(&["algorithm", "V100 ms", "RTX4090 ms", "ratio"]);
    for algo in &algos {
        let dag = orient(&graph, algo.preferred_orientation());
        let mut times = Vec::new();
        for (dev_name, dev) in &devices {
            let out = algo.run(dev, &dag)?;
            eprintln!(
                "{} on {}: {} triangles",
                algo.name(),
                dev_name,
                out.triangles
            );
            times.push(cycles_to_ms(out.stats.kernel_cycles));
        }
        t.row(vec![
            algo.name().to_string(),
            format!("{:.3}", times[0]),
            format!("{:.3}", times[1]),
            format!("{:.2}x", times[0] / times[1].max(1e-12)),
        ]);
    }
    println!("{}", t.render());
    Ok(())
}
