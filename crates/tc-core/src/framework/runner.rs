//! The evaluation runner: prepares a dataset once, then runs any set of
//! algorithms on it — each through `TcAlgorithm::run` on a fresh device
//! memory image that is leak-checked afterwards, under its own preferred
//! orientation — verifying every GPU count against the CPU reference. This produces the raw matrix behind Figures 11, 12, 13
//! and 15.
//!
//! One sweep-driver pair runs every execution [`Backend`]:
//! [`run_matrix`] (serial, dataset-major) and [`run_matrix_parallel`],
//! which fans the (dataset x backend x algorithm) cells over a thread
//! pool and returns records in the exact same order. Every cell is built
//! by `run_cell`, the single fault boundary: device faults and panics
//! alike become [`RunOutcome::Failed`] in their own cell instead of
//! aborting the sweep.

use std::borrow::Cow;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use gpu_sim::{ProfileCounters, SimError};
use graph_data::{cpu_ref, orient, DagGraph, DatasetSpec, GraphStats, Orientation, UndirGraph};
use tc_algos::all_algorithms;
use tc_algos::api::TcAlgorithm;

use rayon::prelude::*;

use crate::framework::backend::Backend;

/// A dataset after the preparation pipeline: generated (or loaded),
/// cleaned, with statistics, ground truth, and oriented variants cached.
///
/// Every orientation a registered algorithm prefers is precomputed at
/// preparation time, so running a cell needs only `&self` — which is
/// what lets [`run_matrix_parallel`] share one prepared dataset across
/// concurrent cells.
pub struct PreparedDataset {
    pub spec: DatasetSpec,
    pub graph: UndirGraph,
    pub stats: GraphStats,
    /// Exact triangle count from the parallel CPU reference.
    pub ground_truth: u64,
    oriented: HashMap<Orientation, DagGraph>,
}

impl PreparedDataset {
    /// Run the pipeline for one Table II dataset.
    pub fn prepare(spec: &DatasetSpec) -> Self {
        let graph = spec.build();
        Self::from_graph(*spec, graph)
    }

    /// Wrap an already-cleaned graph (used by the examples and tests).
    /// The orientations precomputed are the ones the registered
    /// algorithms prefer; any other (a study's `DegreeDesc`, `KCore` or
    /// `Random`) stays available through [`PreparedDataset::dag`]'s
    /// compute-on-demand fallback.
    pub fn from_graph(spec: DatasetSpec, graph: UndirGraph) -> Self {
        let stats = GraphStats::compute(&graph);
        let reference = orient(&graph, Orientation::DegreeAsc);
        let ground_truth = cpu_ref::forward_merge_parallel(&reference);
        let mut oriented = HashMap::new();
        oriented.insert(Orientation::DegreeAsc, reference);
        for algo in all_algorithms() {
            let o = algo.preferred_orientation();
            oriented.entry(o).or_insert_with(|| orient(&graph, o));
        }
        PreparedDataset {
            spec,
            graph,
            stats,
            ground_truth,
            oriented,
        }
    }

    /// The DAG under `o`. Precomputed orientations (the ones registered
    /// algorithms prefer) are served borrowed; anything else
    /// is oriented on the fly, so the method needs only `&self` and a
    /// prepared dataset can be shared across concurrent runner cells.
    pub fn dag(&self, o: Orientation) -> Cow<'_, DagGraph> {
        match self.oriented.get(&o) {
            Some(d) => Cow::Borrowed(d),
            None => Cow::Owned(orient(&self.graph, o)),
        }
    }
}

/// How one (algorithm, dataset) cell ended.
#[derive(Debug, Clone)]
pub enum RunOutcome {
    Ok {
        triangles: u64,
        /// Modelled kernel time in device cycles (the Figure 11/15
        /// y-axis).
        kernel_cycles: u64,
        counters: ProfileCounters,
        /// Whether the count matched the CPU reference.
        verified: bool,
    },
    /// The implementation failed to run — a red cross in Figure 11.
    Failed(SimError),
}

/// One cell of the evaluation matrix.
#[derive(Debug, Clone)]
pub struct RunRecord {
    pub algorithm: String,
    pub dataset: &'static str,
    /// Which execution backend produced the cell (`"sim"` or `"cpu"`,
    /// see [`crate::framework::backend`]). Single-backend sweeps are all
    /// `"sim"` and their CSV emission is unchanged by this field.
    pub backend: &'static str,
    pub outcome: RunOutcome,
    /// Host wall-clock time spent simulating this cell (upload, kernels
    /// and verification). Unlike `outcome` this is measured, not
    /// modelled: it varies run to run and is deliberately excluded from
    /// the deterministic CSV emission.
    pub wall: Duration,
}

impl RunRecord {
    pub fn kernel_cycles(&self) -> Option<u64> {
        match &self.outcome {
            RunOutcome::Ok { kernel_cycles, .. } => Some(*kernel_cycles),
            RunOutcome::Failed(_) => None,
        }
    }

    pub fn counters(&self) -> Option<&ProfileCounters> {
        match &self.outcome {
            RunOutcome::Ok { counters, .. } => Some(counters),
            RunOutcome::Failed(_) => None,
        }
    }

    pub fn is_verified(&self) -> bool {
        matches!(self.outcome, RunOutcome::Ok { verified: true, .. })
    }
}

/// Build one cell's record around `body`, which runs the cell and
/// returns its outcome.
///
/// This is every backend's fault boundary. Device faults already come
/// back as `Err` values; a panic anywhere in `body` — a host kernel, a
/// simulated kernel closure, a host-side accessor — is caught here and
/// recorded as `Failed(KernelFault("<backend> kernel panicked: …"))`,
/// so the caller's sweep continues.
pub(crate) fn run_cell(
    backend: &'static str,
    algo: &dyn TcAlgorithm,
    data: &PreparedDataset,
    body: impl FnOnce() -> RunOutcome,
) -> RunRecord {
    let started = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(body)).unwrap_or_else(|payload| {
        let msg = if let Some(s) = payload.downcast_ref::<&str>() {
            s.to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "unknown panic payload".to_string()
        };
        let fault = SimError::KernelFault(format!("{backend} kernel panicked: {msg}"));
        RunOutcome::Failed(fault)
    });
    let wall = started.elapsed();
    RunRecord {
        algorithm: algo.name().to_string(),
        dataset: data.spec.name,
        backend,
        outcome,
        wall,
    }
}

/// The evaluation sweep, serially: dataset-major, then backend, then
/// algorithm — so one prepared dataset serves every backend before it is
/// dropped. Returns one record per cell.
pub fn run_matrix(
    backends: &[&dyn Backend],
    algos: &[Box<dyn TcAlgorithm>],
    datasets: &[DatasetSpec],
) -> Vec<RunRecord> {
    let mut records = Vec::with_capacity(backends.len() * algos.len() * datasets.len());
    for spec in datasets {
        let data = PreparedDataset::prepare(spec);
        for backend in backends {
            for algo in algos {
                records.push(backend.run(algo.as_ref(), &data));
            }
        }
    }
    records
}

/// The evaluation sweep, parallel: datasets are prepared concurrently,
/// then every (dataset x backend x algorithm) cell is fanned over the
/// thread pool. Records come back in exactly [`run_matrix`]'s order, and
/// because the simulator is deterministic the modelled outcomes are
/// identical to the serial sweep's — only the measured
/// [`RunRecord::wall`] fields differ.
pub fn run_matrix_parallel(
    backends: &[&dyn Backend],
    algos: &[Box<dyn TcAlgorithm>],
    datasets: &[DatasetSpec],
) -> Vec<RunRecord> {
    let prepared: Vec<PreparedDataset> =
        datasets.par_iter().map(PreparedDataset::prepare).collect();
    let cells: Vec<(usize, usize, usize)> = (0..datasets.len())
        .flat_map(|d| {
            (0..backends.len()).flat_map(move |b| (0..algos.len()).map(move |a| (d, b, a)))
        })
        .collect();
    cells
        .into_par_iter()
        .map(|(d, b, a)| backends[b].run(algos[a].as_ref(), &prepared[d]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::backend::SimBackend;
    use gpu_sim::Device;
    use graph_data::datasets::{GenSpec, SizeClass};
    use tc_algos::device_graph::DeviceGraph;

    fn tiny_spec() -> DatasetSpec {
        DatasetSpec {
            name: "tiny-rmat",
            paper_vertices: 0,
            paper_edges: 0,
            paper_avg_degree: 0.0,
            size_class: SizeClass::Small,
            gen: GenSpec::Rmat {
                scale: 10,
                raw_edges: 8000,
            },
            seed: 7,
        }
    }

    #[test]
    fn all_nine_algorithms_verify_on_tiny_dataset() {
        let dev = Device::v100();
        let algos = all_algorithms();
        let data = PreparedDataset::prepare(&tiny_spec());
        assert!(data.ground_truth > 0, "fixture should contain triangles");
        for algo in &algos {
            let rec = SimBackend { dev: &dev }.run(algo.as_ref(), &data);
            match &rec.outcome {
                RunOutcome::Ok {
                    verified,
                    triangles,
                    ..
                } => {
                    assert!(
                        verified,
                        "{}: counted {} expected {}",
                        rec.algorithm, triangles, data.ground_truth
                    );
                }
                RunOutcome::Failed(e) => panic!("{} failed: {e}", rec.algorithm),
            }
        }
    }

    #[test]
    fn run_matrix_shape() {
        let dev = Device::v100();
        let algos = all_algorithms();
        let specs = [tiny_spec()];
        let records = run_matrix(&[&SimBackend { dev: &dev }], &algos, &specs);
        assert_eq!(records.len(), algos.len());
        assert!(records.iter().all(|r| r.is_verified()));
        assert!(records.iter().all(|r| r.kernel_cycles().unwrap() > 0));
        assert!(records.iter().all(|r| r.counters().is_some()));
    }

    #[test]
    fn oriented_variants_cached() {
        let data = PreparedDataset::prepare(&tiny_spec());
        // Every orientation a registered algorithm prefers is
        // precomputed, so `dag` serves it borrowed from shared state; any
        // other orientation, `DegreeDesc` included, falls back to
        // computing an owned DAG on the fly.
        for algo in all_algorithms() {
            let o = algo.preferred_orientation();
            assert!(
                matches!(data.dag(o), Cow::Borrowed(_)),
                "{o:?} should be precomputed for {}",
                algo.name()
            );
        }
        assert!(matches!(data.dag(Orientation::DegreeDesc), Cow::Owned(_)));
        assert!(matches!(data.dag(Orientation::Random(3)), Cow::Owned(_)));
        let e1 = data.dag(Orientation::ById).num_edges();
        let e2 = data.dag(Orientation::DegreeAsc).num_edges();
        assert_eq!(e1, e2);
    }

    #[test]
    fn parallel_matrix_matches_serial() {
        let dev = Device::v100();
        let algos = all_algorithms();
        let specs = [tiny_spec()];
        let serial = run_matrix(&[&SimBackend { dev: &dev }], &algos, &specs);
        let parallel = run_matrix_parallel(&[&SimBackend { dev: &dev }], &algos, &specs);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.algorithm, p.algorithm);
            assert_eq!(s.dataset, p.dataset);
            match (&s.outcome, &p.outcome) {
                (
                    RunOutcome::Ok {
                        triangles: st,
                        kernel_cycles: sc,
                        counters: sk,
                        verified: sv,
                    },
                    RunOutcome::Ok {
                        triangles: pt,
                        kernel_cycles: pc,
                        counters: pk,
                        verified: pv,
                    },
                ) => {
                    assert_eq!(st, pt, "{}", s.algorithm);
                    assert_eq!(sc, pc, "{}", s.algorithm);
                    assert_eq!(sk, pk, "{}", s.algorithm);
                    assert_eq!(sv, pv, "{}", s.algorithm);
                }
                (a, b) => panic!("outcome mismatch for {}: {a:?} vs {b:?}", s.algorithm),
            }
        }
    }

    /// An "implementation" that reads past its edge buffer, like a real
    /// kernel with an off-by-one: the sweep must record the fault and
    /// keep going.
    struct OobAlgo;

    impl tc_algos::api::TcAlgorithm for OobAlgo {
        fn meta(&self) -> tc_algos::api::AlgoMeta {
            tc_algos::api::AlgoMeta {
                name: "oob-probe",
                reference: "synthetic fault probe",
                year: 2024,
                iterator: tc_algos::api::IteratorKind::Edge,
                intersection: tc_algos::api::Intersection::Merge,
                granularity: tc_algos::api::Granularity::Coarse,
            }
        }

        fn count(
            &self,
            dev: &Device,
            mem: &mut gpu_sim::DeviceMem,
            dg: &DeviceGraph,
        ) -> Result<tc_algos::api::TcOutput, SimError> {
            let edges = dg.num_edges as usize;
            let dst = dg.edge_dst;
            let stats = dev.launch(mem, gpu_sim::KernelConfig::new(4, 128), move |blk| {
                blk.phase(move |lane| {
                    // Off-by-a-lot: indexes way past the edge list.
                    let _ = lane.ld_global(dst, edges + lane.global_tid() as usize);
                });
            })?;
            Ok(tc_algos::api::TcOutput {
                triangles: 0,
                stats,
            })
        }
    }

    /// An "implementation" with a missing-barrier bug: every lane stores
    /// its tid to shared slot 0, then reads it back in the same phase.
    struct RacyAlgo;

    impl tc_algos::api::TcAlgorithm for RacyAlgo {
        fn meta(&self) -> tc_algos::api::AlgoMeta {
            tc_algos::api::AlgoMeta {
                name: "racy-probe",
                reference: "synthetic race probe",
                year: 2024,
                iterator: tc_algos::api::IteratorKind::Edge,
                intersection: tc_algos::api::Intersection::Hash,
                granularity: tc_algos::api::Granularity::Fine,
            }
        }

        fn count(
            &self,
            dev: &Device,
            mem: &mut gpu_sim::DeviceMem,
            _dg: &DeviceGraph,
        ) -> Result<tc_algos::api::TcOutput, SimError> {
            let cfg = gpu_sim::KernelConfig::new(1, 64).with_shared_words(1);
            let stats = dev.launch(mem, cfg, |blk| {
                blk.phase(|lane| {
                    lane.st_shared(0, lane.tid());
                    lane.ld_shared(0);
                });
            })?;
            Ok(tc_algos::api::TcOutput {
                triangles: 0,
                stats,
            })
        }
    }

    /// An "implementation" that consumes a scratch buffer it never
    /// initialized — the bug class cuda-memcheck's initcheck exists for.
    struct UninitAlgo;

    impl tc_algos::api::TcAlgorithm for UninitAlgo {
        fn meta(&self) -> tc_algos::api::AlgoMeta {
            tc_algos::api::AlgoMeta {
                name: "uninit-probe",
                reference: "synthetic sanitizer probe",
                year: 2024,
                iterator: tc_algos::api::IteratorKind::Vertex,
                intersection: tc_algos::api::Intersection::BitMap,
                granularity: tc_algos::api::Granularity::Coarse,
            }
        }

        fn count(
            &self,
            dev: &Device,
            mem: &mut gpu_sim::DeviceMem,
            _dg: &DeviceGraph,
        ) -> Result<tc_algos::api::TcOutput, SimError> {
            let scratch = mem.alloc_uninit(64, "scratch")?;
            let sums = mem.alloc_zeroed(1, "sums")?;
            let stats = dev.launch(mem, gpu_sim::KernelConfig::new(1, 32), move |blk| {
                blk.phase(move |lane| {
                    // Missing init pass: `scratch` is still garbage here.
                    let v = lane.ld_global(scratch, lane.tid() as usize);
                    lane.atomic_add_global(sums, 0, v);
                });
            })?;
            mem.free(scratch)?;
            mem.free(sums)?;
            Ok(tc_algos::api::TcOutput {
                triangles: 0,
                stats,
            })
        }
    }

    /// An "implementation" that returns without freeing the scratch
    /// buffer its one kernel wrote: the leak check `TcAlgorithm::run`
    /// ends with must fail the cell, whatever analyses the device runs.
    struct LeakyAlgo;

    impl tc_algos::api::TcAlgorithm for LeakyAlgo {
        fn meta(&self) -> tc_algos::api::AlgoMeta {
            tc_algos::api::AlgoMeta {
                name: "leaky-probe",
                reference: "synthetic leak probe",
                year: 2024,
                iterator: tc_algos::api::IteratorKind::Vertex,
                intersection: tc_algos::api::Intersection::Merge,
                granularity: tc_algos::api::Granularity::Coarse,
            }
        }

        fn count(
            &self,
            dev: &Device,
            mem: &mut gpu_sim::DeviceMem,
            _dg: &DeviceGraph,
        ) -> Result<tc_algos::api::TcOutput, SimError> {
            let scratch = mem.alloc_zeroed(32, "leaky.scratch")?;
            let stats = dev.launch(mem, gpu_sim::KernelConfig::new(1, 32), move |blk| {
                blk.phase(move |lane| lane.st_global(scratch, lane.tid() as usize, 1));
            })?;
            // Missing: mem.free(scratch).
            Ok(tc_algos::api::TcOutput {
                triangles: 0,
                stats,
            })
        }
    }

    #[test]
    fn leaked_buffer_surfaces_as_failed_cell_and_csv_row() {
        // A plain device: the leak check runs on every simulated cell,
        // not only under SimSan.
        let dev = Device::v100();
        let data = PreparedDataset::prepare(&tiny_spec());
        let rec = SimBackend { dev: &dev }.run(&LeakyAlgo, &data);
        match &rec.outcome {
            RunOutcome::Failed(SimError::Sanitizer { kind, buffer, .. }) => {
                assert_eq!(*kind, gpu_sim::SanitizerKind::Leak);
                assert_eq!(buffer, "leaky.scratch");
            }
            other => panic!("expected Failed(Sanitizer(leak)), got {other:?}"),
        }
        let mut out = Vec::new();
        crate::framework::csv::write_records(&mut out, &[rec]).unwrap();
        let text = String::from_utf8(out).unwrap();
        let row = text.lines().last().unwrap();
        assert!(row.starts_with("leaky-probe,"), "row: {row}");
        assert!(row.contains("\"failed: sanitizer: leak"), "row: {row}");
    }

    /// An "implementation" with a divergent barrier: odd lanes skip the
    /// `sync_threads` their even siblings arrive at — on hardware the
    /// block hangs; under SimLint's verifier the launch must fail.
    struct DivergentAlgo;

    impl tc_algos::api::TcAlgorithm for DivergentAlgo {
        fn meta(&self) -> tc_algos::api::AlgoMeta {
            tc_algos::api::AlgoMeta {
                name: "divergent-probe",
                reference: "synthetic barrier probe",
                year: 2024,
                iterator: tc_algos::api::IteratorKind::Edge,
                intersection: tc_algos::api::Intersection::Merge,
                granularity: tc_algos::api::Granularity::Fine,
            }
        }

        fn count(
            &self,
            dev: &Device,
            mem: &mut gpu_sim::DeviceMem,
            _dg: &DeviceGraph,
        ) -> Result<tc_algos::api::TcOutput, SimError> {
            let stats = dev.launch(mem, gpu_sim::KernelConfig::new(1, 64), |blk| {
                blk.phase(|lane| {
                    lane.compute(1);
                    if lane.tid() % 2 == 0 {
                        lane.sync_threads();
                    }
                });
            })?;
            Ok(tc_algos::api::TcOutput {
                triangles: 0,
                stats,
            })
        }
    }

    #[test]
    fn barrier_divergence_surfaces_as_failed_cell_and_csv_row() {
        // On a lint-forced device the sweep must isolate the divergent
        // cell as Failed(BarrierDivergence) with the structured Diag
        // intact, and the CSV row must carry the diagnostic — while
        // every registered algorithm still verifies on the same device.
        let dev = Device::v100().with_lints();
        let mut algos = all_algorithms();
        algos.push(Box::new(DivergentAlgo));
        let data = PreparedDataset::prepare(&tiny_spec());
        let records: Vec<RunRecord> = algos
            .iter()
            .map(|a| SimBackend { dev: &dev }.run(a.as_ref(), &data))
            .collect();
        let divergent = records.last().unwrap();
        match &divergent.outcome {
            RunOutcome::Failed(SimError::BarrierDivergence(d)) => {
                assert_eq!(d.rule, gpu_sim::LintRule::BarrierDivergence);
                assert_eq!(d.block, Some(0));
            }
            other => panic!("expected Failed(BarrierDivergence), got {other:?}"),
        }
        assert!(
            records[..records.len() - 1].iter().all(|r| r.is_verified()),
            "the registered algorithms must verify under SimLint"
        );
        let mut out = Vec::new();
        crate::framework::csv::write_records(&mut out, &records).unwrap();
        let text = String::from_utf8(out).unwrap();
        let row = text.lines().last().unwrap();
        assert!(row.starts_with("divergent-probe,"), "row: {row}");
        assert!(row.contains("\"failed: barrier divergence"), "row: {row}");
    }

    #[test]
    fn sanitizer_report_surfaces_as_failed_cell_and_csv_row() {
        // On a sanitizer-forced device the sweep must isolate the buggy
        // cell as Failed(Sanitizer) with the kind intact, and the CSV
        // row must carry the diagnostic — while every registered
        // algorithm still verifies on the same device.
        let dev = Device::v100().with_sanitizer();
        let mut algos = all_algorithms();
        algos.push(Box::new(UninitAlgo));
        let data = PreparedDataset::prepare(&tiny_spec());
        let records: Vec<RunRecord> = algos
            .iter()
            .map(|a| SimBackend { dev: &dev }.run(a.as_ref(), &data))
            .collect();
        let buggy = records.last().unwrap();
        match &buggy.outcome {
            RunOutcome::Failed(SimError::Sanitizer { kind, buffer, .. }) => {
                assert_eq!(*kind, gpu_sim::SanitizerKind::UninitRead);
                assert_eq!(buffer, "scratch");
            }
            other => panic!("expected Failed(Sanitizer), got {other:?}"),
        }
        assert!(
            records[..records.len() - 1].iter().all(|r| r.is_verified()),
            "the registered algorithms must verify under SimSan"
        );
        let mut out = Vec::new();
        crate::framework::csv::write_records(&mut out, &records).unwrap();
        let text = String::from_utf8(out).unwrap();
        let row = text.lines().last().unwrap();
        assert!(row.starts_with("uninit-probe,"), "row: {row}");
        assert!(
            row.contains("\"failed: sanitizer: uninit-read"),
            "row: {row}"
        );
    }

    #[test]
    fn data_race_surfaces_as_failed_cell_and_csv_row() {
        // On a race-forced device the sweep must isolate the racy cell as
        // Failed(DataRace) — not abort, not report a bogus count — and
        // the CSV row must carry the diagnostic.
        let dev = Device::v100().with_race_detection();
        let mut algos = all_algorithms();
        algos.push(Box::new(RacyAlgo));
        let data = PreparedDataset::prepare(&tiny_spec());
        let records: Vec<RunRecord> = algos
            .iter()
            .map(|a| SimBackend { dev: &dev }.run(a.as_ref(), &data))
            .collect();
        let racy = records.last().unwrap();
        assert!(
            matches!(racy.outcome, RunOutcome::Failed(SimError::DataRace { .. })),
            "expected Failed(DataRace), got {:?}",
            racy.outcome
        );
        assert!(
            records[..records.len() - 1].iter().all(|r| r.is_verified()),
            "the registered algorithms must verify under the detector"
        );
        let mut out = Vec::new();
        crate::framework::csv::write_records(&mut out, &records).unwrap();
        let text = String::from_utf8(out).unwrap();
        let row = text.lines().last().unwrap();
        assert!(row.starts_with("racy-probe,"), "row: {row}");
        assert!(row.contains("\"failed: data race"), "row: {row}");
    }

    #[test]
    fn faulting_algorithm_is_isolated() {
        let dev = Device::v100();
        let mut algos = all_algorithms();
        algos.push(Box::new(OobAlgo));
        let specs = [tiny_spec()];
        let records = run_matrix_parallel(&[&SimBackend { dev: &dev }], &algos, &specs);
        assert_eq!(records.len(), algos.len());
        let failed: Vec<&RunRecord> = records
            .iter()
            .filter(|r| matches!(r.outcome, RunOutcome::Failed(_)))
            .collect();
        assert_eq!(failed.len(), 1, "only the probe fails");
        assert_eq!(failed[0].algorithm, "oob-probe");
        assert!(matches!(
            failed[0].outcome,
            RunOutcome::Failed(SimError::MemoryFault { .. })
        ));
        assert!(
            records
                .iter()
                .filter(|r| r.algorithm != "oob-probe")
                .all(|r| r.is_verified()),
            "healthy cells still verify"
        );
    }
}
