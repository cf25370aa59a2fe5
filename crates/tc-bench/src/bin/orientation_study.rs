//! Pre-processing study (Section II-B): the paper lists "ordering based
//! on node IDs, degree, k-coreness, random ordering" as the common
//! choices but leaves the comparison out for page limits. This bench
//! fills that gap: the three headline algorithms under all five
//! orientations the library implements, with the DAG's maximum
//! out-degree (the quantity orientations exist to control) alongside the
//! modelled time.
//!
//! ```sh
//! cargo run --release -p tc-bench --bin orientation_study [dataset...]
//! ```

use std::time::Instant;

use gpu_sim::{Device, DeviceMem};
use graph_data::Orientation;
use tc_algos::api::TcAlgorithm;
use tc_algos::device_graph::DeviceGraph;
use tc_algos::{polak::Polak, trust::Trust, GroupTc};
use tc_core::framework::report::{cycles_to_ms, Table};
use tc_core::framework::runner::PreparedDataset;

const ORIENTATIONS: [Orientation; 5] = [
    Orientation::ById,
    Orientation::DegreeAsc,
    Orientation::DegreeDesc,
    Orientation::KCore,
    Orientation::Random(7),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let datasets = if args.is_empty() {
        tc_bench::datasets_from_args(&["Email-EuAll".into(), "Soc-Slashdot0922".into()]).unwrap()
    } else {
        tc_bench::datasets_from_args(&args).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    };
    let algos: Vec<Box<dyn TcAlgorithm>> = vec![
        Box::new(Polak),
        Box::new(Trust),
        Box::new(GroupTc::default()),
    ];
    let dev = Device::v100();

    for spec in &datasets {
        tc_bench::eprint_progress(&format!("building {}", spec.name));
        let started = Instant::now();
        // PreparedDataset precomputes the three standard orientations
        // (ById, DegreeAsc, DegreeDesc) once; KCore and Random are
        // oriented on the fly by `dag()`.
        let data = PreparedDataset::prepare(spec);
        let expected = data.ground_truth;
        let mut t = Table::new(&[
            "orientation",
            "max out-deg",
            "Polak ms",
            "TRUST ms",
            "GroupTC ms",
        ]);
        for o in ORIENTATIONS {
            let dag = data.dag(o);
            let mut row = vec![format!("{o:?}"), dag.max_out_degree().to_string()];
            for algo in &algos {
                let mut mem = DeviceMem::new(&dev);
                let dg = DeviceGraph::upload(&dag, &mut mem).expect("upload");
                match algo.count(&dev, &mut mem, &dg) {
                    Ok(out) => {
                        assert_eq!(
                            out.triangles,
                            expected,
                            "{} under {o:?} miscounted",
                            algo.name()
                        );
                        row.push(format!("{:.3}", cycles_to_ms(out.stats.kernel_cycles)));
                    }
                    Err(e) => row.push(format!("x ({e})")),
                }
            }
            t.row(row);
        }
        tc_bench::eprint_progress(&format!(
            "{}: {:.2}s host wall",
            spec.name,
            started.elapsed().as_secs_f64()
        ));
        println!(
            "PRE-PROCESSING STUDY: {} ({} triangles)",
            spec.name, expected
        );
        println!("{}", t.render());
    }
}
