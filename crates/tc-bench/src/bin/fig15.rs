//! Regenerates Figure 15: GroupTC vs Polak vs TRUST running time on all
//! datasets, plus the speedup summary the paper quotes (GroupTC vs Polak
//! 1.03–3.83x on 17/19, 0.85x/0.96x on the two smallest; vs TRUST
//! 1.09–2.92x on small/medium, 0.94–1.01x on large).

use tc_algos::api::TcAlgorithm;
use tc_algos::{polak::Polak, trust::Trust, GroupTc};
use tc_core::framework::report::{extract, format_sig, MatrixView, Table};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let datasets = tc_bench::datasets_from_args(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

    let algos: Vec<Box<dyn TcAlgorithm>> = vec![
        Box::new(Polak),
        Box::new(Trust),
        Box::new(GroupTc::default()),
    ];
    let records = tc_bench::sweep(&algos, &datasets);
    let view = MatrixView::new(&records);
    println!(
        "{}",
        view.render_figure(
            "FIGURE 15: GroupTC vs Polak vs TRUST (modelled ms)",
            extract::time_ms
        )
    );

    let mut t = Table::new(&["dataset", "class", "vs Polak", "vs TRUST"]);
    for spec in &datasets {
        let group = view.value("GroupTC", spec.name, extract::time_ms);
        let polak = view.value("Polak", spec.name, extract::time_ms);
        let trust = view.value("TRUST", spec.name, extract::time_ms);
        let cell = |base: Option<f64>| match (base, group) {
            (Some(b), Some(g)) if g > 0.0 => format!("{}x", format_sig(b / g)),
            _ => "x".to_string(),
        };
        t.row(vec![
            spec.name.to_string(),
            format!("{:?}", spec.size_class),
            cell(polak),
            cell(trust),
        ]);
    }
    println!("GroupTC speedups (paper: vs Polak up to 3.83x, vs TRUST up to 2.92x,");
    println!("0.94-1.01x on large):");
    println!("{}", t.render());
}
