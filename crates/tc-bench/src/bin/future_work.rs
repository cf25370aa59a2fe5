//! The paper's Section VI future work, measured: GroupTC-H (hash tables
//! for heavy intersections, chunked binary search for the rest) against
//! plain GroupTC and TRUST — the bottleneck it was designed to remove.

use tc_algos::api::TcAlgorithm;
use tc_algos::trust::Trust;
use tc_algos::{GroupTc, GroupTcHybrid};
use tc_core::framework::report::{extract, format_sig, MatrixView, Table};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let datasets = tc_bench::datasets_from_args(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

    let algos: Vec<Box<dyn TcAlgorithm>> = vec![
        Box::new(Trust),
        Box::new(GroupTc::default()),
        Box::new(GroupTcHybrid::default()),
    ];
    let records = tc_bench::sweep(&algos, &datasets);
    assert!(
        records.iter().all(|r| r.is_verified()),
        "all counts must verify"
    );
    let view = MatrixView::new(&records);
    println!(
        "{}",
        view.render_figure(
            "FUTURE WORK: TRUST vs GroupTC vs GroupTC-H (modelled ms)",
            extract::time_ms
        )
    );

    let mut t = Table::new(&["dataset", "GroupTC-H vs GroupTC", "GroupTC-H vs TRUST"]);
    for spec in &datasets {
        let h = view.value("GroupTC-H", spec.name, extract::time_ms);
        let cell = |base: Option<f64>| match (base, h) {
            (Some(b), Some(hh)) if hh > 0.0 => format!("{}x", format_sig(b / hh)),
            _ => "x".to_string(),
        };
        let plain = view.value("GroupTC", spec.name, extract::time_ms);
        let trust = view.value("TRUST", spec.name, extract::time_ms);
        t.row(vec![spec.name.to_string(), cell(plain), cell(trust)]);
    }
    println!("GroupTC-H speedups:");
    println!("{}", t.render());
}
