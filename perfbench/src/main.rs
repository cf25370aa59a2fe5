//! The repository benchmark. One workload per invocation:
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim-powerlaw --seed 103 --seconds 25 --trace 0
//! ```
//!
//! Every cell runs all ten registered algorithms one at a time and is
//! checked: the count must equal the ground truth, the analysis counters
//! must match the workload, and every deterministic output must repeat
//! exactly across passes. The last stdout line is one JSON object with
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics taken
//! from host spans (`--trace 1`); the spans are also written as Chrome
//! trace-event JSON under `perfbench/out/`. Any violation exits 1.

mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use gpu_sim::{Device, DeviceMem, ProfileCounters};
use graph_data::{cpu_ref, orient, DatasetSpec, GraphStats, Orientation};
use tc_algos::api::TcAlgorithm;
use tc_algos::device_graph::DeviceGraph;
use tc_core::{all_algorithms, Backend, PreparedDataset, RunOutcome};

use trace::Tracer;
use workloads::{backend, plain_device, Exec, Workload, WORKLOADS};

/// `PreparedDataset::prepare` calls per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Untraced passes per run at least, so every cell is compared with a
/// repetition of itself even when `--seconds` is shorter than two passes.
const MIN_PASSES: usize = 2;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 25.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = value.parse::<f64>().map_err(|e| bad(&e))?,
            "--trace" => trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!("--seconds {seconds}: not a duration"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or_else(|| workload.default_seed()),
        seconds: Duration::from_secs_f64(seconds),
        trace,
    })
}

/// The deterministic outputs of one cell. The native path models
/// nothing, so there only `triangles` is non-zero.
#[derive(Debug, Clone, Default, PartialEq)]
struct Outcome {
    triangles: u64,
    kernel_cycles: u64,
    counters: ProfileCounters,
}

fn outcome_of(outcome: &RunOutcome) -> Result<Outcome, String> {
    match outcome {
        RunOutcome::Ok {
            triangles,
            kernel_cycles,
            counters,
            ..
        } => Ok(Outcome {
            triangles: *triangles,
            kernel_cycles: *kernel_cycles,
            counters: *counters,
        }),
        RunOutcome::Failed(e) => Err(e.to_string()),
    }
}

/// Counts cells and the ones that failed, did not verify, ran under the
/// wrong analyses, or changed a deterministic output since the first
/// time the same algorithm ran.
struct Checker {
    exec: Exec,
    ground_truth: u64,
    names: Vec<&'static str>,
    reference: Vec<Option<Outcome>>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn new(exec: Exec, ground_truth: u64, algos: &[Box<dyn TcAlgorithm>]) -> Self {
        Checker {
            exec,
            ground_truth,
            names: algos.iter().map(|a| a.name()).collect(),
            reference: vec![None; algos.len()],
            attempted: 0,
            failed: 0,
        }
    }

    fn check(&mut self, algo: usize, got: Result<Outcome, String>) {
        self.attempted += 1;
        if let Err(problem) = self.problem(algo, got) {
            self.failed += 1;
            eprintln!("[perfbench] FAILED {}: {problem}", self.names[algo]);
        }
    }

    fn problem(&mut self, algo: usize, got: Result<Outcome, String>) -> Result<(), String> {
        let got = got?;
        if got.triangles != self.ground_truth {
            return Err(format!(
                "counted {} triangles, ground truth is {}",
                got.triangles, self.ground_truth
            ));
        }
        let c = &got.counters;
        let checks = [c.race_checks, c.sanitizer_checks, c.lint_checks];
        let analysed = self.exec == Exec::SimChecked;
        if checks.iter().any(|&n| (n > 0) != analysed) {
            return Err(format!(
                "race/sanitizer/lint checks {checks:?} on a workload with analyses {}",
                if analysed { "on" } else { "off" }
            ));
        }
        match &self.reference[algo] {
            Some(first) if *first != got => Err(format!(
                "deterministic output changed between repetitions: {first:?} then {got:?}"
            )),
            Some(_) => Ok(()),
            None => {
                self.reference[algo] = Some(got);
                Ok(())
            }
        }
    }

    /// Counts a check that is not one algorithm's cell.
    fn verify(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("[perfbench] FAILED: {}", problem());
        }
    }

    fn modelled_cycles(&self) -> u64 {
        self.reference
            .iter()
            .flatten()
            .map(|o| o.kernel_cycles)
            .sum()
    }

    /// FNV-1a over every reference output, so separate processes (a
    /// traced and an untraced run, or two commits) can be compared.
    fn digest(&self) -> u64 {
        let text = format!("{:?}", self.reference);
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Prepares the dataset `SETUP_REPS` times, keeping the last result;
/// returns it with the time and the ground truth of each repetition.
fn setup(spec: &DatasetSpec) -> (PreparedDataset, Vec<f64>, Vec<u64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut data: Option<PreparedDataset> = None;
    let mut truths = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        drop(data.take()); // free the previous copy before building the next
        let t = Instant::now();
        let d = PreparedDataset::prepare(spec);
        times.push(t.elapsed().as_secs_f64());
        truths.push(d.ground_truth);
        data = Some(d);
    }
    (data.expect("SETUP_REPS > 0"), times, truths)
}

/// One untraced pass: every algorithm once through `Backend::run`,
/// appending each cell's wall time to `secs[algo]`.
fn untraced_pass(
    backend: &dyn Backend,
    algos: &[Box<dyn TcAlgorithm>],
    data: &PreparedDataset,
    checker: &mut Checker,
    secs: &mut [Vec<f64>],
) {
    for (i, algo) in algos.iter().enumerate() {
        let t = Instant::now();
        let rec = backend.run(algo.as_ref(), data);
        secs[i].push(t.elapsed().as_secs_f64());
        checker.check(i, outcome_of(&rec.outcome));
    }
}

/// The time to run every cell once: the sum over cells of each cell's
/// median across passes, so a stall in one pass moves only its own cell.
fn sweep_secs(per_cell: &[Vec<f64>]) -> f64 {
    per_cell.iter().map(|s| median(s)).sum()
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

type Metric = (String, f64, &'static str);

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    (name.into(), value, unit)
}

fn result_json(correct: bool, checker: &Checker, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checker.attempted,
        checker.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let spec = w.spec(args.seed);
    let algos = all_algorithms();
    let dev = w.device();
    eprintln!(
        "[perfbench] {} ({} recipe, seed {}, held-out seed {}), {} threads",
        w.name,
        w.dataset,
        args.seed,
        w.held_out_seed,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    let (checker, metrics) = if args.trace {
        traced_run(&args, &spec, &algos, dev.as_ref())
    } else {
        untraced_run(&args, &spec, &algos, dev.as_ref())
    };

    println!(
        "workload {} seed {}: {} cells, {} failed (cells_failed_frac {}), modelled_mcycles {}, outputs digest {:016x}",
        w.name,
        args.seed,
        checker.attempted,
        checker.failed,
        ratio(checker.failed as f64, checker.attempted as f64),
        checker.modelled_cycles() as f64 / 1e6,
        checker.digest()
    );
    let correct = checker.failed == 0;
    println!("{}", result_json(correct, &checker, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// End-to-end metrics, tracing off.
fn untraced_run(
    args: &Args,
    spec: &DatasetSpec,
    algos: &[Box<dyn TcAlgorithm>],
    dev: Option<&Device>,
) -> (Checker, Vec<Metric>) {
    let (data, setup_times, truths) = setup(spec);
    let mut checker = Checker::new(args.workload.exec, data.ground_truth, algos);
    checker.verify(truths.iter().all(|&t| t == data.ground_truth), || {
        format!("ground truth changed across prepares: {truths:?}")
    });

    let backend = backend(dev);
    let start = Instant::now();
    let mut cells = vec![Vec::new(); algos.len()];
    let mut passes = 0;
    while passes < MIN_PASSES || start.elapsed() < args.seconds {
        untraced_pass(backend.as_ref(), algos, &data, &mut checker, &mut cells);
        passes += 1;
    }
    eprintln!(
        "[perfbench] {passes} passes; cell times (s): {cells:?}; prepares (s): {setup_times:?}"
    );
    let metrics = vec![
        metric("sweep_s", sweep_secs(&cells), "s"),
        metric("setup_s", median(&setup_times), "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    (checker, metrics)
}

/// Span indices of one traced cell.
struct CellSpans {
    cell: usize,
    upload: Option<usize>,
    count: usize,
}

/// One cell composed from the layer calls, each inside its own span:
/// `DeviceGraph::upload` and `TcAlgorithm::count` on a fresh device
/// memory, or `TcAlgorithm::count_cpu` when `dev` is `None`.
fn traced_cell(
    tr: &mut Tracer,
    cell: u32,
    algo: &dyn TcAlgorithm,
    data: &PreparedDataset,
    dev: Option<&Device>,
) -> (Result<Outcome, String>, CellSpans) {
    let ((out, upload, count), cell_span) =
        tr.span(&format!("cell:{}", algo.name()), Some(cell), |tr| {
            let dag = data.dag(algo.preferred_orientation());
            let Some(dev) = dev else {
                let (triangles, count) =
                    tr.span("TcAlgorithm::count_cpu", None, |_| algo.count_cpu(&dag));
                let out = Outcome {
                    triangles,
                    ..Outcome::default()
                };
                return (Ok(out), None, count);
            };
            let mut mem = DeviceMem::new(dev);
            let (uploaded, upload) = tr.span("DeviceGraph::upload", None, |_| {
                DeviceGraph::upload(&dag, &mut mem)
            });
            let (out, count) = tr.span("TcAlgorithm::count", None, |_| {
                uploaded.and_then(|g| algo.count(dev, &mut mem, &g))
            });
            let out = out.map_err(|e| e.to_string()).map(|o| Outcome {
                triangles: o.triangles,
                kernel_cycles: o.stats.kernel_cycles,
                counters: o.stats.counters,
            });
            (out, Some(upload), count)
        });
    let spans = CellSpans {
        cell: cell_span,
        upload,
        count,
    };
    (out, spans)
}

/// Per-algorithm span durations collected over the rounds of a traced run.
#[derive(Default, Clone)]
struct Samples {
    cell: Vec<f64>,
    count: Vec<f64>,
    upload: Vec<f64>,
    overhead: Vec<f64>,
    native: Vec<f64>,
    plain: Vec<f64>,
}

/// Per-layer metrics from host spans and the returned `LaunchStats`.
fn traced_run(
    args: &Args,
    spec: &DatasetSpec,
    algos: &[Box<dyn TcAlgorithm>],
    dev: Option<&Device>,
) -> (Checker, Vec<Metric>) {
    let exec = args.workload.exec;
    let mut tr = Tracer::new();

    // Set-up, stage by stage, then the prepare call the cells use.
    let ((stats, truth, stage_ids), _) = tr.span("setup", None, |tr| {
        let (graph, build) = tr.span("DatasetSpec::build", None, |_| spec.build());
        let (stats, st) = tr.span("GraphStats::compute", None, |_| GraphStats::compute(&graph));
        let mut orients = Vec::new();
        let mut asc = None;
        for o in [
            Orientation::ById,
            Orientation::DegreeAsc,
            Orientation::DegreeDesc,
        ] {
            let (dag, id) = tr.span(&format!("orient({o:?})"), None, |_| orient(&graph, o));
            orients.push(id);
            if o == Orientation::DegreeAsc {
                asc = Some(dag);
            }
        }
        let asc = asc.expect("DegreeAsc is among the orientations");
        let (truth, gt) = tr.span("cpu_ref::forward_merge_parallel", None, |_| {
            cpu_ref::forward_merge_parallel(&asc)
        });
        (stats, truth, (build, st, orients, gt))
    });
    let (data, _) = tr.span("PreparedDataset::prepare", None, |_| {
        PreparedDataset::prepare(spec)
    });
    let mut checker = Checker::new(exec, data.ground_truth, algos);
    checker.verify(truth == data.ground_truth && stats == data.stats, || {
        "staged set-up disagrees with PreparedDataset::prepare".into()
    });

    let backend = backend(dev);
    let plain = plain_device();
    let mut samples = vec![Samples::default(); algos.len()];
    let mut untraced = vec![Vec::new(); algos.len()];
    let mut cell = 0u32;
    let start = Instant::now();
    let mut round = 0;
    while round == 0 || start.elapsed() < args.seconds {
        // Alternate which pass goes first, so drift hits both alike.
        for traced_now in [round % 2 == 1, round % 2 == 0] {
            if !traced_now {
                // One span for the whole pass, none per call inside it.
                tr.span("untraced pass: Backend::run", None, |_| {
                    untraced_pass(backend.as_ref(), algos, &data, &mut checker, &mut untraced)
                });
                continue;
            }
            tr.span("traced pass", None, |tr| {
                for (i, algo) in algos.iter().enumerate() {
                    cell += 1;
                    let (out, s) = traced_cell(tr, cell, algo.as_ref(), &data, dev);
                    checker.check(i, out);
                    let count = tr.get(s.count).secs();
                    let upload = s.upload.map_or(0.0, |u| tr.get(u).secs());
                    let cell = tr.get(s.cell).secs();
                    let smp = &mut samples[i];
                    smp.cell.push(cell);
                    smp.count.push(count);
                    smp.upload.push(upload);
                    smp.overhead.push(cell - count - upload);
                }
            });
        }
        if dev.is_some() {
            // The native twin on the same DAGs, and for the checked
            // workload the same cells on the plain simulator.
            tr.span("compare", None, |tr| {
                for (i, algo) in algos.iter().enumerate() {
                    cell += 1;
                    let (out, s) = traced_cell(tr, cell, algo.as_ref(), &data, None);
                    let ok = out.as_ref().map(|o| o.triangles).ok() == Some(data.ground_truth);
                    checker.verify(ok, || format!("{} native twin: {out:?}", algo.name()));
                    samples[i].native.push(tr.get(s.count).secs());
                    if exec != Exec::SimChecked {
                        continue;
                    }
                    cell += 1;
                    let (out, s) = traced_cell(tr, cell, algo.as_ref(), &data, Some(&plain));
                    let want = checker.reference[i]
                        .as_ref()
                        .map(|o| (o.triangles, o.kernel_cycles));
                    let got = out.as_ref().ok().map(|o| (o.triangles, o.kernel_cycles));
                    checker.verify(got.is_some() && got == want, || {
                        format!("{} plain vs checked: {got:?} vs {want:?}", algo.name())
                    });
                    samples[i].plain.push(tr.get(s.count).secs());
                }
            });
        }
        round += 1;
    }

    let path = format!(
        "{}/out/{}-seed{}.trace.json",
        env!("CARGO_MANIFEST_DIR"),
        args.workload.name,
        args.seed
    );
    let written = std::fs::create_dir_all(format!("{}/out", env!("CARGO_MANIFEST_DIR")))
        .and_then(|()| std::fs::write(&path, tr.chrome_json()));
    match written {
        Ok(()) => eprintln!("[perfbench] trace events: {path}"),
        Err(e) => checker.verify(false, || format!("writing {path}: {e}")),
    }

    let (build, st, orients, gt) = stage_ids;
    let mut m = vec![
        metric("graph_data.build_s", tr.get(build).secs(), "s"),
        metric("graph_data.stats_s", tr.get(st).secs(), "s"),
        metric(
            "graph_data.orient_s",
            orients.iter().map(|&o| tr.get(o).secs()).sum(),
            "s",
        ),
        metric("graph_data.ground_truth_s", tr.get(gt).secs(), "s"),
        metric("graph_data.edges", data.stats.edges as f64, "count"),
        metric(
            "graph_data.max_degree",
            data.stats.max_degree as f64,
            "count",
        ),
        metric("graph_data.triangles", data.ground_truth as f64, "count"),
    ];
    let sum_medians =
        |f: fn(&Samples) -> &Vec<f64>| -> f64 { samples.iter().map(|s| median(f(s))).sum() };
    m.push(metric("tc_algos.upload_s", sum_medians(|s| &s.upload), "s"));

    // Simulator layer: zero on the native workload, which bypasses it.
    let on_sim = dev.is_some();
    let outcomes: Vec<Outcome> = checker
        .reference
        .iter()
        .map(|o| o.clone().unwrap_or_default())
        .collect();
    let sim_secs = |s: &Samples| if on_sim { median(&s.count) } else { 0.0 };
    let mut total = ProfileCounters::default();
    for o in &outcomes {
        total += o.counters;
    }
    let count_total: f64 = samples.iter().map(sim_secs).sum();
    for (a, s) in algos.iter().zip(&samples) {
        m.push(metric(
            format!("gpu_sim.count_s.{}", a.name()),
            sim_secs(s),
            "s",
        ));
    }
    m.push(metric("gpu_sim.count_s.total", count_total, "s"));
    for (a, o) in algos.iter().zip(&outcomes) {
        let slots = o.counters.issued_slots as f64;
        m.push(metric(
            format!("gpu_sim.issued_slots.{}", a.name()),
            slots,
            "count",
        ));
    }
    m.push(metric(
        "gpu_sim.issued_slots.total",
        total.issued_slots as f64,
        "count",
    ));
    for ((a, o), s) in algos.iter().zip(&outcomes).zip(&samples) {
        let ns = ratio(sim_secs(s) * 1e9, o.counters.issued_slots as f64);
        m.push(metric(
            format!("gpu_sim.ns_per_slot.{}", a.name()),
            ns,
            "ns",
        ));
    }
    let ns_total = ratio(count_total * 1e9, total.issued_slots as f64);
    m.push(metric("gpu_sim.ns_per_slot.total", ns_total, "ns"));
    for (a, o) in algos.iter().zip(&outcomes) {
        let cycles = o.kernel_cycles as f64;
        m.push(metric(
            format!("gpu_sim.kernel_cycles.{}", a.name()),
            cycles,
            "count",
        ));
    }
    m.push(metric(
        "gpu_sim.modelled_mcycles",
        checker.modelled_cycles() as f64 / 1e6,
        "Mcycles",
    ));
    let (eff, tpr) = if on_sim {
        (
            total.warp_execution_efficiency(),
            total.gld_transactions_per_request(),
        )
    } else {
        (0.0, 0.0)
    };
    m.push(metric("gpu_sim.warp_efficiency", eff, "frac"));
    m.push(metric("gpu_sim.gld_transactions_per_request", tpr, "count"));
    m.push(metric(
        "gpu_sim.race_checks",
        total.race_checks as f64,
        "count",
    ));
    m.push(metric(
        "gpu_sim.sanitizer_checks",
        total.sanitizer_checks as f64,
        "count",
    ));
    m.push(metric(
        "gpu_sim.lint_checks",
        total.lint_checks as f64,
        "count",
    ));
    let plain_total = sum_medians(|s| &s.plain);
    m.push(metric(
        "gpu_sim.analysis_overhead_x",
        ratio(count_total, plain_total),
        "x",
    ));

    // Native twin: the workload's own cells on native-powerlaw, the
    // compare phase on the sim workloads.
    let native_secs = |s: &Samples| median(if on_sim { &s.native } else { &s.count });
    for (a, s) in algos.iter().zip(&samples) {
        m.push(metric(
            format!("tc_algos.cpu_count_s.{}", a.name()),
            native_secs(s),
            "s",
        ));
    }
    let native_total: f64 = samples.iter().map(native_secs).sum();
    m.push(metric("tc_algos.cpu_count_s.total", native_total, "s"));
    m.push(metric(
        "tc_core.cell_overhead_s",
        sum_medians(|s| &s.overhead),
        "s",
    ));
    m.push(metric(
        "tc_core.cells_failed_frac",
        ratio(checker.failed as f64, checker.attempted as f64),
        "frac",
    ));

    // Sim over native, always against the plain simulator.
    let plain_secs = |s: &Samples| match exec {
        Exec::Sim => median(&s.count),
        Exec::SimChecked => median(&s.plain),
        Exec::Native => 0.0,
    };
    for (a, s) in algos.iter().zip(&samples) {
        let r = ratio(plain_secs(s), native_secs(s));
        m.push(metric(format!("sim_over_native.{}", a.name()), r, "x"));
    }
    let plain_sum: f64 = samples.iter().map(plain_secs).sum();
    m.push(metric(
        "sim_over_native.total",
        ratio(plain_sum, native_total),
        "x",
    ));
    let traced = sum_medians(|s| &s.cell);
    let untraced = sweep_secs(&untraced);
    m.push(metric(
        "trace.overhead_frac",
        ratio(traced, untraced) - 1.0,
        "frac",
    ));
    eprintln!("[perfbench] {round} rounds; traced sweep {traced} s, untraced {untraced} s");
    (checker, m)
}
