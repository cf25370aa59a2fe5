//! Execution backends: the same registry, prepared datasets and record
//! surface, running either on the cycle-modelled simulator or natively
//! on the host.
//!
//! A [`Backend`] turns one (algorithm, dataset) cell into a
//! [`RunRecord`]. [`SimBackend`] runs [`TcAlgorithm::run`], which
//! uploads, counts, frees and leak-checks, on one simulated device;
//! [`CpuBackend`] executes the algorithm's rayon host kernel
//! ([`TcAlgorithm::count_cpu`]) with the same preferred-orientation
//! pipeline. Both build their records through the runner's single fault
//! boundary, so a panicking kernel — host or simulated — becomes
//! [`RunOutcome::Failed`] in its own cell, exactly like a device memory
//! fault, instead of tearing down the sweep. The sweep drivers
//! ([`crate::framework::runner::run_matrix`] and
//! [`crate::framework::runner::run_matrix_parallel`]) take any slice of
//! backends.
//!
//! What the CPU path deliberately does *not* model: cycles, profiling
//! counters, occupancy — its records carry `kernel_cycles: 0` and
//! default counters. It exists to serve exact counts at wall-clock
//! speed (ROADMAP item 4) and to act as a differential twin for the
//! simulator; only [`RunRecord::wall`] is meaningful for its timing.

use gpu_sim::{Device, SimError};
use tc_algos::api::TcAlgorithm;

use crate::framework::runner::{run_cell, PreparedDataset, RunOutcome, RunRecord};

/// An execution substrate for evaluation cells.
pub trait Backend: Sync {
    /// Run one algorithm on one prepared dataset, fault-isolated.
    fn run(&self, algo: &dyn TcAlgorithm, data: &PreparedDataset) -> RunRecord;
}

/// The cycle-modelled SIMT simulator backend (the default everywhere).
/// A cell is [`TcAlgorithm::run`] on the preferred orientation, its
/// count verified against the dataset's ground truth. A device fault, a
/// leaked buffer or a panic becomes [`RunOutcome::Failed`] in this cell
/// alone.
///
/// A successful count on a graph with edges must have cost at least one
/// modelled cycle; only the empty graph may report a zero-cycle kernel.
/// An algorithm that "succeeds" without doing modelled work has broken
/// instrumentation, and recording it as failed keeps downstream
/// `kernel_cycles > 0` assumptions honest.
pub struct SimBackend<'d> {
    pub dev: &'d Device,
}

impl Backend for SimBackend<'_> {
    fn run(&self, algo: &dyn TcAlgorithm, data: &PreparedDataset) -> RunRecord {
        run_cell("sim", algo, data, || {
            let dag = data.dag(algo.preferred_orientation());
            let out = match algo.run(self.dev, &dag) {
                Ok(out) => out,
                Err(e) => return RunOutcome::Failed(e),
            };
            if out.stats.kernel_cycles == 0 && dag.num_edges() > 0 {
                return RunOutcome::Failed(SimError::KernelFault(format!(
                    "{} reported zero kernel cycles on a non-empty graph",
                    algo.name()
                )));
            }
            RunOutcome::Ok {
                triangles: out.triangles,
                kernel_cycles: out.stats.kernel_cycles,
                counters: out.stats.counters,
                verified: out.triangles == data.ground_truth,
            }
        })
    }
}

/// The native host backend: rayon kernels, no device model. A cell runs
/// the algorithm's host kernel on its preferred orientation and verifies
/// the count; a panic in the kernel surfaces as [`RunOutcome::Failed`]
/// with the panic message, and the caller's sweep continues.
#[derive(Debug, Default, Clone, Copy)]
pub struct CpuBackend;

impl Backend for CpuBackend {
    fn run(&self, algo: &dyn TcAlgorithm, data: &PreparedDataset) -> RunRecord {
        run_cell("cpu", algo, data, || {
            let triangles = algo.count_cpu(&data.dag(algo.preferred_orientation()));
            RunOutcome::Ok {
                triangles,
                // The CPU path models nothing: no cycles, no counters.
                kernel_cycles: 0,
                counters: Default::default(),
                verified: triangles == data.ground_truth,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::runner::{run_matrix, run_matrix_parallel};
    use gpu_sim::{DeviceMem, LaunchStats};
    use graph_data::datasets::{DatasetSpec, GenSpec, SizeClass};
    use tc_algos::all_algorithms;
    use tc_algos::api::{AlgoMeta, Granularity, Intersection, IteratorKind, TcOutput};
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
    fn cpu_backend_verifies_every_registered_algorithm() {
        let data = PreparedDataset::prepare(&tiny_spec());
        assert!(data.ground_truth > 0);
        for algo in all_algorithms() {
            let rec = CpuBackend.run(algo.as_ref(), &data);
            assert_eq!(rec.backend, "cpu");
            assert!(
                rec.is_verified(),
                "{}: cpu outcome {:?}",
                rec.algorithm,
                rec.outcome
            );
            assert_eq!(rec.kernel_cycles(), Some(0), "cpu cells model no cycles");
        }
    }

    /// Kernels that panic — the host one and a simulated lane closure:
    /// the probe for fault-isolation parity across backends.
    struct PanickyAlgo;

    impl TcAlgorithm for PanickyAlgo {
        fn meta(&self) -> AlgoMeta {
            AlgoMeta {
                name: "panic-probe",
                reference: "synthetic kernel fault probe",
                year: 2024,
                iterator: IteratorKind::Edge,
                intersection: Intersection::Merge,
                granularity: Granularity::Coarse,
            }
        }

        fn count(
            &self,
            dev: &Device,
            mem: &mut DeviceMem,
            _g: &DeviceGraph,
        ) -> Result<TcOutput, SimError> {
            let stats = dev.launch(mem, gpu_sim::KernelConfig::new(8, 32), |blk| {
                blk.phase(|lane| {
                    if lane.global_tid() == 100 {
                        panic!("deliberate sim-kernel bug");
                    }
                    lane.compute(1);
                });
            })?;
            Ok(TcOutput {
                triangles: 0,
                stats,
            })
        }

        fn count_cpu(&self, _dag: &graph_data::DagGraph) -> u64 {
            panic!("deliberate host-kernel bug");
        }
    }

    #[test]
    fn panicking_cpu_kernel_is_isolated_as_failed() {
        let mut algos = all_algorithms();
        algos.push(Box::new(PanickyAlgo));
        let backends: [&dyn Backend; 1] = [&CpuBackend];
        let specs = [tiny_spec()];
        // The panic must not tear down the parallel sweep.
        let records = run_matrix_parallel(&backends, &algos, &specs);
        assert_eq!(records.len(), algos.len());
        let failed = records.last().unwrap();
        assert_eq!(failed.algorithm, "panic-probe");
        match &failed.outcome {
            RunOutcome::Failed(SimError::KernelFault(msg)) => {
                assert!(
                    msg.contains("cpu kernel panicked: deliberate host-kernel bug"),
                    "msg: {msg}"
                );
            }
            other => panic!("expected Failed(KernelFault), got {other:?}"),
        }
        assert!(
            records[..records.len() - 1].iter().all(|r| r.is_verified()),
            "healthy cpu cells still verify"
        );
    }

    #[test]
    fn panicking_sim_kernel_is_isolated_as_failed() {
        let dev = Device::v100();
        let mut algos = all_algorithms();
        algos.push(Box::new(PanickyAlgo));
        let backends: [&dyn Backend; 1] = [&SimBackend { dev: &dev }];
        let specs = [tiny_spec()];
        // The panic unwinds out of a block worker inside `Device::launch`;
        // it must not tear down the parallel sweep either.
        let records = run_matrix_parallel(&backends, &algos, &specs);
        assert_eq!(records.len(), algos.len());
        let failed = records.last().unwrap();
        assert_eq!(
            (failed.algorithm.as_str(), failed.backend),
            ("panic-probe", "sim")
        );
        match &failed.outcome {
            RunOutcome::Failed(SimError::KernelFault(msg)) => {
                assert!(
                    msg.contains("sim kernel panicked: deliberate sim-kernel bug"),
                    "msg: {msg}"
                );
            }
            other => panic!("expected Failed(KernelFault), got {other:?}"),
        }
        assert!(
            records[..records.len() - 1].iter().all(|r| r.is_verified()),
            "healthy sim cells still verify"
        );
    }

    #[test]
    fn multi_backend_sweep_order_and_parity() {
        let dev = Device::v100();
        let backends: [&dyn Backend; 2] = [&SimBackend { dev: &dev }, &CpuBackend];
        let algos = all_algorithms();
        let specs = [tiny_spec()];
        let serial = run_matrix(&backends, &algos, &specs);
        let parallel = run_matrix_parallel(&backends, &algos, &specs);
        assert_eq!(serial.len(), 2 * algos.len());
        assert_eq!(serial.len(), parallel.len());
        // Backend-major within a dataset: sim block, then cpu block.
        for (i, r) in serial.iter().enumerate() {
            let expect = if i < algos.len() { "sim" } else { "cpu" };
            assert_eq!(r.backend, expect, "record {i}");
            assert_eq!(r.algorithm, algos[i % algos.len()].name());
            assert!(r.is_verified(), "{} on {}", r.algorithm, r.backend);
        }
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.algorithm, p.algorithm);
            assert_eq!(s.backend, p.backend);
            assert_eq!(s.is_verified(), p.is_verified());
        }
        // Sim and cpu agree on every triangle count.
        for (s, c) in serial[..algos.len()].iter().zip(&serial[algos.len()..]) {
            match (&s.outcome, &c.outcome) {
                (RunOutcome::Ok { triangles: st, .. }, RunOutcome::Ok { triangles: ct, .. }) => {
                    assert_eq!(st, ct, "{}", s.algorithm)
                }
                (a, b) => panic!("outcome mismatch for {}: {a:?} vs {b:?}", s.algorithm),
            }
        }
    }

    #[test]
    fn sim_backend_equals_the_algorithm_run() {
        let dev = Device::v100();
        let data = PreparedDataset::prepare(&tiny_spec());
        let algo = &all_algorithms()[0];
        let direct = algo
            .run(&dev, &data.dag(algo.preferred_orientation()))
            .unwrap();
        let via = SimBackend { dev: &dev }.run(algo.as_ref(), &data);
        match &via.outcome {
            RunOutcome::Ok {
                triangles,
                kernel_cycles,
                counters,
                verified: true,
            } => {
                assert_eq!(*triangles, direct.triangles);
                assert_eq!(*kernel_cycles, direct.stats.kernel_cycles);
                assert_eq!(*counters, direct.stats.counters);
            }
            other => panic!("expected a verified cell, got {other:?}"),
        }
    }

    /// An "implementation" that succeeds without launching anything:
    /// default `LaunchStats`, zero modelled cycles.
    struct ZeroCycleProbe;

    impl TcAlgorithm for ZeroCycleProbe {
        fn meta(&self) -> AlgoMeta {
            AlgoMeta {
                name: "zero-cycle-probe",
                reference: "synthetic instrumentation probe",
                year: 2024,
                iterator: IteratorKind::Edge,
                intersection: Intersection::Merge,
                granularity: Granularity::Coarse,
            }
        }

        fn count(
            &self,
            _dev: &Device,
            _mem: &mut DeviceMem,
            _dg: &DeviceGraph,
        ) -> Result<TcOutput, SimError> {
            Ok(TcOutput {
                triangles: 0,
                stats: LaunchStats::default(),
            })
        }
    }

    #[test]
    fn zero_cycle_success_fails_on_one_device() {
        let dev = Device::v100();
        let data = PreparedDataset::prepare(&tiny_spec());
        let rec = SimBackend { dev: &dev }.run(&ZeroCycleProbe, &data);
        match &rec.outcome {
            RunOutcome::Failed(SimError::KernelFault(msg)) => {
                assert!(msg.contains("zero kernel cycles"), "{msg}")
            }
            other => panic!("expected a zero-cycle fault, got {other:?}"),
        }
    }
}
