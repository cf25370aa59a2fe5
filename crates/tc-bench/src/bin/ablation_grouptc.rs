//! Ablation bench for GroupTC's design choices (DESIGN.md experiment
//! index): each of the three Section V optimizations toggled off
//! individually, plus a chunk-size sweep — all verified-exact runs.

use tc_algos::api::TcAlgorithm;
use tc_algos::{GroupTc, GroupTcConfig};
use tc_core::framework::report::{extract, wall_summary, MatrixView};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let datasets = if args.is_empty() {
        tc_bench::datasets_from_args(&["--medium".to_string()]).unwrap()
    } else {
        tc_bench::datasets_from_args(&args).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    };

    // Named variants: the display name comes from meta(), so wrap each in
    // a renaming shim.
    struct Named(&'static str, GroupTc);
    impl TcAlgorithm for Named {
        fn name(&self) -> &'static str {
            self.0
        }
        fn meta(&self) -> tc_algos::api::AlgoMeta {
            self.1.meta()
        }
        fn count(
            &self,
            dev: &gpu_sim::Device,
            mem: &mut gpu_sim::DeviceMem,
            g: &tc_algos::device_graph::DeviceGraph,
        ) -> Result<tc_algos::api::TcOutput, gpu_sim::SimError> {
            self.1.count(dev, mem, g)
        }
    }

    let algos: Vec<Box<dyn TcAlgorithm>> = vec![
        Box::new(Named("full", GroupTc::default())),
        Box::new(Named("no-partial-2hop", GroupTc::without_partial_two_hop())),
        Box::new(Named("no-resume", GroupTc::without_resume_offset())),
        Box::new(Named("no-flip", GroupTc::without_flip_tables())),
        Box::new(Named(
            "chunk-64",
            GroupTc::new(GroupTcConfig {
                chunk_size: 64,
                ..Default::default()
            }),
        )),
        Box::new(Named(
            "chunk-1024",
            GroupTc::new(GroupTcConfig {
                chunk_size: 1024,
                ..Default::default()
            }),
        )),
    ];
    let records = tc_bench::sweep(&algos, &datasets);
    eprintln!("[tc-bench] {}", wall_summary(&records, 3));
    assert!(
        records.iter().all(|r| r.is_verified()),
        "every ablation variant must stay exact"
    );
    let view = MatrixView::new(&records);
    println!(
        "{}",
        view.render_figure("GroupTC ablations (modelled ms)", extract::time_ms)
    );
    println!(
        "{}",
        view.render_figure(
            "GroupTC ablations (global load requests)",
            extract::load_requests
        )
    );
}
