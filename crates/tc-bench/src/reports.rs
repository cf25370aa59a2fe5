//! The paper's tables, figures and studies, one `tc` subcommand each.

use std::time::Instant;

use gpu_sim::{Device, DeviceMem};
use graph_data::{cpu_ref, orient, GraphStats, Orientation};
use rayon::prelude::*;
use tc_algos::all_algorithms;
use tc_algos::api::{Granularity, Intersection, IteratorKind, TcAlgorithm};
use tc_algos::device_graph::DeviceGraph;
use tc_algos::{polak::Polak, trust::Trust, GroupTc, GroupTcConfig, GroupTcHybrid};
use tc_bench::cli::{self, Args, Error};
use tc_bench::{eprint_progress, sweep};
use tc_core::framework::report::{
    cycles_to_ms, extract, format_sig, human_count, wall_summary, MatrixView, Table,
};
use tc_core::framework::runner::{PreparedDataset, RunOutcome, RunRecord};
use tc_core::framework::{claims, csv};

/// Table I: the taxonomy of major ITC algorithms on GPUs (reference,
/// year, iterator, intersection method, granularity), plus the GroupTC
/// and CoverEdge rows.
pub fn table1(args: Args) -> Result<(), Error> {
    args.finish()?;
    let mut t = Table::new(&[
        "Name",
        "Year",
        "Iterator",
        "Intersection",
        "Granularity",
        "Reference",
    ]);
    for algo in all_algorithms() {
        let m = algo.meta();
        t.row(vec![
            m.name.to_string(),
            m.year.to_string(),
            match m.iterator {
                IteratorKind::Vertex => "vertex",
                IteratorKind::Edge => "edge",
            }
            .to_string(),
            match m.intersection {
                Intersection::Merge => "Merge",
                Intersection::BinSearch => "Bin-Search",
                Intersection::Hash => "Hash",
                Intersection::BitMap => "BitMap",
                Intersection::MergeOrBinSearch => "Merge/Bin-Search",
            }
            .to_string(),
            match m.granularity {
                Granularity::Coarse => "coarse",
                Granularity::Fine => "fine",
            }
            .to_string(),
            m.reference.to_string(),
        ]);
    }
    println!("TABLE I: MAJOR ITC ALGORITHMS ON GPUS (+ GroupTC)");
    println!("{}", t.render());
    Ok(())
}

/// `f()` and its host wall time in milliseconds.
fn timed_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed().as_secs_f64() * 1e3)
}

/// Table II: the datasets with vertex count, edge count and average
/// degree, for both the paper's SNAP originals and the synthetic
/// stand-ins this reproduction runs, so the scale substitution is
/// visible at a glance. The "stand-in deg" column is Figure 11's
/// average-degree overlay.
pub fn table2(mut args: Args) -> Result<(), Error> {
    let datasets = args.datasets(&[])?;
    args.finish()?;

    // Generator runs are independent, so build the stand-ins across the
    // rayon pool; collect() keeps the rows in Table II order.
    let started = Instant::now();
    let stats: Vec<(GraphStats, f64)> = datasets
        .par_iter()
        .map(|spec| timed_ms(|| GraphStats::compute(&spec.build())))
        .collect();

    let mut t = Table::new(&[
        "dataset",
        "paper V",
        "paper E",
        "paper deg",
        "stand-in V",
        "stand-in E",
        "stand-in deg",
        "max deg",
        "build ms",
    ]);
    for (spec, (s, build_ms)) in datasets.iter().zip(&stats) {
        t.row(vec![
            spec.name.to_string(),
            human_count(spec.paper_vertices),
            human_count(spec.paper_edges),
            format!("{:.1}", spec.paper_avg_degree),
            human_count(s.vertices as u64),
            human_count(s.edges),
            format!("{:.1}", s.avg_degree),
            s.max_degree.to_string(),
            format!("{build_ms:.1}"),
        ]);
    }
    eprint_progress(&format!(
        "built {} datasets in {:.2}s",
        datasets.len(),
        started.elapsed().as_secs_f64()
    ));
    println!("TABLE II: DATASETS (paper SNAP originals vs synthetic stand-ins)");
    println!("{}", t.render());
    Ok(())
}

/// `base / ours` as a speedup cell, or `x` when either run failed.
fn speedup_cell(base: Option<f64>, ours: Option<f64>) -> String {
    match (base, ours) {
        (Some(b), Some(o)) if o > 0.0 => format!("{}x", format_sig(b / o)),
        _ => "x".to_string(),
    }
}

/// One full evaluation sweep printing every figure (11, 12, 13a, 13b
/// and the Figure 15 speedups) and the claim checks — the cheapest way
/// to regenerate the whole evaluation section. `--csv` dumps the raw
/// matrix for external plotting; `--timed-csv` adds the measured (not
/// deterministic) `host_wall_ms` column; `--serial` runs one cell at a
/// time, with identical records.
pub fn all_figures(mut args: Args) -> Result<(), Error> {
    let csv_path = args.value("--csv")?;
    let timed_csv_path = args.value("--timed-csv")?;
    let serial = args.flag("--serial");
    let datasets = args.datasets(&[])?;
    args.finish()?;

    let algos = all_algorithms();
    eprint_progress(&format!(
        "running {} algorithms x {} datasets ({})",
        algos.len(),
        datasets.len(),
        if serial { "serial" } else { "parallel" }
    ));
    let records = sweep(&algos, &datasets, serial);
    eprintln!("[tc-bench] {}", wall_summary(&records, 5));

    // Verification summary first: every successful run must be exact.
    let label = |r: &&RunRecord| format!("{} on {}", r.algorithm, r.dataset);
    let (failures, unverified): (Vec<_>, Vec<_>) = records
        .iter()
        .filter(|r| !r.is_verified())
        .partition(|r| matches!(r.outcome, RunOutcome::Failed(_)));
    if !unverified.is_empty() {
        let cells: Vec<String> = unverified.iter().map(label).collect();
        return Err(Error::Failed(format!("unverified counts: {cells:?}")));
    }
    let failures: Vec<String> = failures.iter().map(label).collect();
    eprintln!(
        "[tc-bench] {} cells, {} failures (red crosses): {:?}",
        records.len(),
        failures.len(),
        failures
    );

    if let Some(path) = csv_path {
        crate::write_file(&path, |f| csv::write_records(f, &records))?;
    }
    if let Some(path) = timed_csv_path {
        crate::write_file(&path, |f| csv::write_records_timed(f, &records))?;
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
        let time = |algo| view.value(algo, spec.name, extract::time_ms);
        let group = time("GroupTC");
        t.row(vec![
            spec.name.to_string(),
            format!("{:?}", spec.size_class),
            speedup_cell(time("Polak"), group),
            speedup_cell(time("TRUST"), group),
        ]);
    }
    println!("FIGURE 15 digest: GroupTC speedups");
    println!("{}", t.render());

    let checks = claims::check_claims(&view, &datasets);
    println!("{}", claims::render_claims(&checks));
    Ok(())
}

/// A registry algorithm under a display name of its own.
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
        dev: &Device,
        mem: &mut DeviceMem,
        g: &DeviceGraph,
    ) -> Result<tc_algos::api::TcOutput, gpu_sim::SimError> {
        self.1.count(dev, mem, g)
    }
}

/// Ablation bench for GroupTC's design choices (DESIGN.md experiment
/// index): each of the three Section V optimizations toggled off
/// individually, plus a chunk-size sweep — all verified-exact runs.
pub fn ablation_grouptc(mut args: Args) -> Result<(), Error> {
    let datasets = args.datasets(&["--medium"])?;
    args.finish()?;

    let chunk = |chunk_size| {
        GroupTc::new(GroupTcConfig {
            chunk_size,
            ..Default::default()
        })
    };
    let algos: Vec<Box<dyn TcAlgorithm>> = vec![
        Box::new(Named("full", GroupTc::default())),
        Box::new(Named("no-partial-2hop", GroupTc::without_partial_two_hop())),
        Box::new(Named("no-resume", GroupTc::without_resume_offset())),
        Box::new(Named("no-flip", GroupTc::without_flip_tables())),
        Box::new(Named("chunk-64", chunk(64))),
        Box::new(Named("chunk-1024", chunk(1024))),
    ];
    let records = sweep(&algos, &datasets, false);
    eprintln!("[tc-bench] {}", wall_summary(&records, 3));
    if !records.iter().all(|r| r.is_verified()) {
        return Err(Error::Failed(
            "every ablation variant must stay exact".to_string(),
        ));
    }
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
    Ok(())
}

/// Section II background experiment (Figure 1 / Wang et al.
/// comparison): the intersection approach vs the matrix-multiplication
/// and subgraph-matching baselines — showing why the paper (and the
/// field) focuses on intersection: the other two do unavoidable
/// redundant work.
pub fn background_approaches(mut args: Args) -> Result<(), Error> {
    let datasets = args.datasets(&["--small"])?;
    args.finish()?;

    let mut t = Table::new(&[
        "dataset",
        "triangles",
        "intersection ms",
        "matmul ms",
        "subgraph ms",
    ]);
    for spec in &datasets {
        eprint_progress(&format!("running {}", spec.name));
        let g = spec.build();
        let dag = orient(&g, Orientation::DegreeAsc);

        let (itc, itc_ms) = timed_ms(|| cpu_ref::forward_merge(&dag));
        let (mm, mm_ms) = timed_ms(|| cpu_ref::matmul_count(&g));
        let (sg, sg_ms) = timed_ms(|| cpu_ref::subgraph_match(&g));

        if itc != mm || itc != sg {
            return Err(Error::Failed(format!(
                "{}: approaches disagree (intersection {itc}, matmul {mm}, subgraph {sg})",
                spec.name
            )));
        }
        t.row(vec![
            spec.name.to_string(),
            itc.to_string(),
            format!("{itc_ms:.1}"),
            format!("{mm_ms:.1}"),
            format!("{sg_ms:.1}"),
        ]);
    }
    println!("SECTION II BACKGROUND: three TC approaches (CPU, same counts)");
    println!("{}", t.render());
    Ok(())
}

/// The paper's Section VI future work, measured: GroupTC-H (hash tables
/// for heavy intersections, chunked binary search for the rest) against
/// plain GroupTC and TRUST — the bottleneck it was designed to remove.
pub fn future_work(mut args: Args) -> Result<(), Error> {
    let datasets = args.datasets(&[])?;
    args.finish()?;

    let algos: Vec<Box<dyn TcAlgorithm>> = vec![
        Box::new(Trust),
        Box::new(GroupTc::default()),
        Box::new(GroupTcHybrid::default()),
    ];
    let records = sweep(&algos, &datasets, false);
    if !records.iter().all(|r| r.is_verified()) {
        return Err(Error::Failed("all counts must verify".to_string()));
    }
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
        let time = |algo| view.value(algo, spec.name, extract::time_ms);
        let h = time("GroupTC-H");
        t.row(vec![
            spec.name.to_string(),
            speedup_cell(time("GroupTC"), h),
            speedup_cell(time("TRUST"), h),
        ]);
    }
    println!("GroupTC-H speedups:");
    println!("{}", t.render());
    Ok(())
}

/// Pre-processing study (Section II-B): the paper lists "ordering based
/// on node IDs, degree, k-coreness, random ordering" as the common
/// choices but leaves the comparison out for page limits. This fills
/// that gap: the three headline algorithms under all five orientations
/// the library implements, with the DAG's maximum out-degree (the
/// quantity orientations exist to control) alongside the modelled time.
pub fn orientation_study(mut args: Args) -> Result<(), Error> {
    let datasets = args.datasets(&["Email-EuAll", "Soc-Slashdot0922"])?;
    args.finish()?;

    let algos: Vec<Box<dyn TcAlgorithm>> = vec![
        Box::new(Polak),
        Box::new(Trust),
        Box::new(GroupTc::default()),
    ];
    let dev = Device::v100();

    for spec in &datasets {
        eprint_progress(&format!("building {}", spec.name));
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
        for o in [
            Orientation::ById,
            Orientation::DegreeAsc,
            Orientation::DegreeDesc,
            Orientation::KCore,
            Orientation::Random(7),
        ] {
            let dag = data.dag(o);
            let mut row = vec![format!("{o:?}"), dag.max_out_degree().to_string()];
            for algo in &algos {
                let mut mem = DeviceMem::new(&dev);
                match DeviceGraph::upload(&dag, &mut mem)
                    .and_then(|dg| algo.count(&dev, &mut mem, &dg))
                {
                    Ok(out) if out.triangles != expected => {
                        return Err(Error::Failed(format!(
                            "{} under {o:?} on {} miscounted: {} != {expected}",
                            algo.name(),
                            spec.name,
                            out.triangles
                        )));
                    }
                    Ok(out) => row.push(format!("{:.3}", cycles_to_ms(out.stats.kernel_cycles))),
                    Err(e) => row.push(format!("x ({e})")),
                }
            }
            t.row(row);
        }
        eprint_progress(&format!(
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
    Ok(())
}

/// Profiling utility: a one-line counter digest per algorithm on a
/// single dataset — handy when calibrating the cost model. `--algos`
/// keeps only the named registry entries.
pub fn diag(mut args: Args) -> Result<(), Error> {
    let algos = match args.value("--algos")? {
        Some(list) => cli::algorithms(&list)?,
        None => all_algorithms(),
    };
    let datasets = args.datasets(&["Com-Lj"])?;
    args.finish()?;
    let [spec] = datasets[..] else {
        return Err(Error::Usage(format!(
            "takes one dataset, got {}",
            datasets.len()
        )));
    };

    let dev = Device::v100();
    let g = spec.build();
    for algo in algos {
        let dag = orient(&g, algo.preferred_orientation());
        let mut mem = DeviceMem::new(&dev);
        match DeviceGraph::upload(&dag, &mut mem).and_then(|dg| algo.count(&dev, &mut mem, &dg)) {
            Ok(out) => {
                let c = out.stats.counters;
                let sectors = c.dram_load_sectors + c.gst_transactions + c.global_atomic_requests;
                println!(
                    "{:<9} cyc={:>9} blkcyc={:>11} bw_floor={:>9} reqs={:>9} tx={:>9} dram={:>9} eff={:>5.1}% tpr={:>5.2} atom={:>8} sh={:>9} slots={:>10}",
                    algo.name(), out.stats.kernel_cycles, out.stats.total_block_cycles,
                    sectors / 20, c.global_load_requests, c.gld_transactions,
                    c.dram_load_sectors,
                    c.warp_execution_efficiency() * 100.0, c.gld_transactions_per_request(),
                    c.global_atomic_requests,
                    c.shared_load_requests + c.shared_store_requests + c.shared_atomic_requests,
                    c.issued_slots
                );
            }
            Err(e) => println!("{:<9} FAILED: {e}", algo.name()),
        }
    }
    Ok(())
}
