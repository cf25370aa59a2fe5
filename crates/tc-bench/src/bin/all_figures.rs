//! One full evaluation sweep printing every figure (11, 12, 13a, 13b and
//! the Figure 15 subset with speedups) from a single run — the cheapest
//! way to regenerate the whole evaluation section.

use tc_algos::all_algorithms;
use tc_core::framework::report::{extract, format_sig, wall_summary, MatrixView, Table};
use tc_core::framework::runner::RunOutcome;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Optional `--csv <path>`: dump the raw matrix for external plotting.
    let csv_path = args.iter().position(|a| a == "--csv").map(|i| {
        let mut it = args.drain(i..i + 2);
        it.next();
        it.next().expect("--csv needs a path")
    });
    // Optional `--timed-csv <path>`: same matrix plus the measured
    // host_wall_ms column (not deterministic across runs).
    let timed_csv_path = args.iter().position(|a| a == "--timed-csv").map(|i| {
        let mut it = args.drain(i..i + 2);
        it.next();
        it.next().expect("--timed-csv needs a path")
    });
    // Optional `--serial`: run cells one at a time instead of fanning
    // out over the rayon pool. The records are identical either way.
    let serial = args
        .iter()
        .position(|a| a == "--serial")
        .map(|i| args.remove(i))
        .is_some();
    let datasets = tc_bench::datasets_from_args(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

    tc_bench::eprint_progress(&format!(
        "running 9 algorithms x {} datasets ({})",
        datasets.len(),
        if serial { "serial" } else { "parallel" }
    ));
    let records = if serial {
        tc_bench::sweep_serial(&all_algorithms(), &datasets)
    } else {
        tc_bench::full_sweep(&datasets)
    };
    eprintln!("[tc-bench] {}", wall_summary(&records, 5));

    // Verification summary first: every successful run must be exact.
    let unverified: Vec<_> = records
        .iter()
        .filter(|r| {
            matches!(
                r.outcome,
                RunOutcome::Ok {
                    verified: false,
                    ..
                }
            )
        })
        .collect();
    assert!(
        unverified.is_empty(),
        "unverified counts: {:?}",
        unverified
            .iter()
            .map(|r| (&r.algorithm, r.dataset))
            .collect::<Vec<_>>()
    );
    let failures: Vec<_> = records
        .iter()
        .filter(|r| matches!(r.outcome, RunOutcome::Failed(_)))
        .map(|r| format!("{} on {}", r.algorithm, r.dataset))
        .collect();
    eprintln!(
        "[tc-bench] {} cells, {} failures (red crosses): {:?}",
        records.len(),
        failures.len(),
        failures
    );

    if let Some(path) = csv_path {
        let f = std::fs::File::create(&path).expect("create csv");
        tc_core::framework::csv::write_records(std::io::BufWriter::new(f), &records)
            .expect("write csv");
        eprintln!("[tc-bench] wrote {path}");
    }
    if let Some(path) = timed_csv_path {
        let f = std::fs::File::create(&path).expect("create timed csv");
        tc_core::framework::csv::write_records_timed(std::io::BufWriter::new(f), &records)
            .expect("write timed csv");
        eprintln!("[tc-bench] wrote {path}");
    }

    let view = MatrixView::new(&records);
    println!(
        "{}",
        view.render_figure(
            "FIGURE 11: total running time (modelled ms)",
            extract::time_ms
        )
    );
    println!(
        "{}",
        view.render_figure("FIGURE 12: global load requests", extract::load_requests)
    );
    println!(
        "{}",
        view.render_figure(
            "FIGURE 13(a): warp_execution_efficiency (%)",
            extract::warp_efficiency
        )
    );
    println!(
        "{}",
        view.render_figure("FIGURE 13(b): gld_transactions_per_request", extract::tpr)
    );

    // Figure 15 digest from the same sweep.
    let mut t = Table::new(&["dataset", "class", "GroupTC vs Polak", "GroupTC vs TRUST"]);
    for spec in &datasets {
        let group = view.value("GroupTC", spec.name, extract::time_ms);
        let cell = |base: Option<f64>| match (base, group) {
            (Some(b), Some(g)) if g > 0.0 => format!("{}x", format_sig(b / g)),
            _ => "x".to_string(),
        };
        let polak = view.value("Polak", spec.name, extract::time_ms);
        let trust = view.value("TRUST", spec.name, extract::time_ms);
        t.row(vec![
            spec.name.to_string(),
            format!("{:?}", spec.size_class),
            cell(polak),
            cell(trust),
        ]);
    }
    println!("FIGURE 15 digest: GroupTC speedups");
    println!("{}", t.render());

    let claims = tc_core::framework::claims::check_claims(&view, &datasets);
    println!("{}", tc_core::framework::claims::render_claims(&claims));
}
