//! Multi-device partitioned execution: the TRUST-style 2-D tiling of
//! [`tc_algos::partition`] run over N simulated devices, with an
//! interconnect cost model folded into the cycle totals.
//!
//! Every simulated device holds the **whole** graph (each kernel may
//! probe any adjacency list) and a [`PartitionPlan`] narrows only its
//! *work* ranges, so per-device counts are exact splits of the
//! single-device count — `Σ_d triangles_d == triangles` for every
//! algorithm, every graph, every N. A real multi-GPU deployment instead
//! pulls remote adjacency lists over NVLink/PCIe; that traffic is what
//! [`PartitionPlan::remote_bytes_by_tile`] estimates and
//! [`gpu_sim::CostModel::link_transfer_cycles`] prices. Per-device
//! totals are `kernel_cycles + link_cycles`, and the modelled makespan
//! is their maximum — devices run concurrently, so the slowest one sets
//! the figure-of-merit, exactly how the strong-scaling plots in the
//! multi-GPU literature are drawn.
//!
//! The devices are simulated **serially** on fresh
//! [`gpu_sim::DeviceMem`] images; determinism is inherited from the
//! simulator, so an N-device sweep is reproducible cycle-for-cycle.

use gpu_sim::{Device, LaunchStats, SimError};
use tc_algos::api::TcAlgorithm;
use tc_algos::device_graph::DeviceGraph;
use tc_algos::partition::PartitionPlan;

use crate::framework::backend::Backend;
use crate::framework::runner::{run_cell, PreparedDataset, RunOutcome, RunRecord};

/// One simulated device's share of a partitioned run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceStats {
    pub device: u32,
    /// Triangles rooted in this device's work range.
    pub triangles: u64,
    /// Modelled kernel cycles on this device alone.
    pub kernel_cycles: u64,
    /// Interconnect bytes pulled from remote tiles.
    pub link_bytes: u64,
    /// Those bytes priced by the device's link model.
    pub link_cycles: u64,
}

impl DeviceStats {
    /// Kernel plus interconnect — this device's contribution to the
    /// makespan.
    pub fn total_cycles(&self) -> u64 {
        self.kernel_cycles + self.link_cycles
    }
}

/// Aggregate of a partitioned run, attached to [`RunRecord::partition`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionStats {
    pub num_devices: u32,
    pub per_device: Vec<DeviceStats>,
    /// `max_d (kernel_cycles_d + link_cycles_d)` — devices run
    /// concurrently, so the slowest sets the modelled wall time.
    pub makespan_cycles: u64,
    /// Total bytes crossing the interconnect, all devices.
    pub total_link_bytes: u64,
}

/// Run one algorithm over `num_devices` simulated devices and verify the
/// summed count: the one simulator cell body. With `num_devices <= 1` it
/// is [`run_on_dataset`](crate::framework::runner::run_on_dataset): full
/// work ranges, no plan, no link charges, and `partition: None`.
///
/// A successful count on a graph with edges must have cost at least one
/// modelled cycle, summed over the devices; only the empty graph may
/// report a zero-cycle kernel. An algorithm that "succeeds" without
/// doing modelled work has broken instrumentation, and recording it as
/// failed keeps downstream `kernel_cycles > 0` assumptions honest.
pub fn run_partitioned(
    dev: &Device,
    algo: &dyn TcAlgorithm,
    data: &PreparedDataset,
    num_devices: u32,
) -> RunRecord {
    run_cell("sim", algo, data, || {
        let dag = data.dag(algo.preferred_orientation());
        // Only a split run needs a plan, and the host edge list its link
        // model reads.
        let split = (num_devices > 1).then(|| {
            let plan = PartitionPlan::balanced(dag.csr().offsets(), num_devices);
            (plan, dag.edge_arrays().1)
        });
        let mut per_device = Vec::new();
        let mut triangles = 0u64;
        let mut agg = LaunchStats::default();
        for d in 0..num_devices.max(1) as usize {
            // Each device is a fresh memory image: nothing carries over.
            let mut mem = gpu_sim::DeviceMem::new(dev);
            let outcome = DeviceGraph::upload(&dag, &mut mem).and_then(|mut dg| {
                if let Some((plan, _)) = &split {
                    let (lo, hi) = plan.pivot_range(d);
                    dg.restrict_to_pivots(lo, hi);
                }
                algo.count(dev, &mut mem, &dg)
            });
            let out = match outcome {
                Ok(out) => out,
                Err(e) => return (RunOutcome::Failed(e), None),
            };
            if let Some((plan, host_dst)) = &split {
                let link_bytes = plan.remote_bytes(dag.csr().offsets(), host_dst, d);
                per_device.push(DeviceStats {
                    device: d as u32,
                    triangles: out.triangles,
                    kernel_cycles: out.stats.kernel_cycles,
                    link_bytes,
                    link_cycles: dev.config().cost.link_transfer_cycles(link_bytes),
                });
            }
            triangles += out.triangles;
            agg += out.stats;
        }
        if agg.kernel_cycles == 0 && dag.num_edges() > 0 {
            let fault = SimError::KernelFault(format!(
                "{} reported zero kernel cycles on a non-empty graph",
                algo.name()
            ));
            return (RunOutcome::Failed(fault), None);
        }

        let partition = split.map(|_| PartitionStats {
            num_devices,
            makespan_cycles: per_device
                .iter()
                .map(DeviceStats::total_cycles)
                .max()
                .unwrap_or(0),
            total_link_bytes: per_device.iter().map(|d| d.link_bytes).sum(),
            per_device,
        });
        let outcome = RunOutcome::Ok {
            triangles,
            // The headline cycle figure of a partitioned cell is its
            // makespan: concurrent devices, slowest wins.
            kernel_cycles: partition
                .as_ref()
                .map_or(agg.kernel_cycles, |p| p.makespan_cycles),
            counters: agg.counters,
            verified: triangles == data.ground_truth,
        };
        (outcome, partition)
    })
}

/// The N-device sim backend: [`run_partitioned`] behind the common
/// [`Backend`] surface, so multi-device sweeps reuse the common matrix
/// drivers unchanged.
pub struct PartitionedSimBackend<'d> {
    pub dev: &'d Device,
    pub num_devices: u32,
}

impl Backend for PartitionedSimBackend<'_> {
    fn run(&self, algo: &dyn TcAlgorithm, data: &PreparedDataset) -> RunRecord {
        run_partitioned(self.dev, algo, data, self.num_devices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::runner::run_on_dataset;
    use graph_data::datasets::{DatasetSpec, GenSpec, SizeClass};
    use tc_algos::all_algorithms;

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
    fn partitioned_counts_match_single_device_for_all_algorithms() {
        let dev = Device::v100();
        let data = PreparedDataset::prepare(&tiny_spec());
        for algo in all_algorithms() {
            let single = run_on_dataset(&dev, algo.as_ref(), &data);
            for n in [2u32, 4] {
                let multi = run_partitioned(&dev, algo.as_ref(), &data, n);
                assert!(
                    multi.is_verified(),
                    "{} x{n}: {:?}",
                    multi.algorithm,
                    multi.outcome
                );
                let p = multi.partition.as_ref().unwrap();
                assert_eq!(p.num_devices, n);
                assert_eq!(p.per_device.len(), n as usize);
                let sum: u64 = p.per_device.iter().map(|d| d.triangles).sum();
                match &single.outcome {
                    RunOutcome::Ok { triangles, .. } => assert_eq!(sum, *triangles),
                    other => panic!("single-device failed: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn one_device_run_is_exactly_the_runner_path() {
        let dev = Device::v100();
        let data = PreparedDataset::prepare(&tiny_spec());
        let algos = all_algorithms();
        let direct = run_on_dataset(&dev, algos[0].as_ref(), &data);
        let via = run_partitioned(&dev, algos[0].as_ref(), &data, 1);
        assert!(via.partition.is_none(), "no partition stats at N=1");
        assert_eq!(via.kernel_cycles(), direct.kernel_cycles());
        match (&via.outcome, &direct.outcome) {
            (
                RunOutcome::Ok {
                    triangles: a,
                    counters: ca,
                    ..
                },
                RunOutcome::Ok {
                    triangles: b,
                    counters: cb,
                    ..
                },
            ) => {
                assert_eq!(a, b);
                assert_eq!(ca, cb);
            }
            (a, b) => panic!("outcome mismatch: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn link_charges_fold_into_makespan() {
        let dev = Device::v100();
        let data = PreparedDataset::prepare(&tiny_spec());
        let algos = all_algorithms();
        let rec = run_partitioned(&dev, algos[0].as_ref(), &data, 4);
        let p = rec.partition.as_ref().unwrap();
        assert!(p.total_link_bytes > 0, "a connected graph must ship bytes");
        for ds in &p.per_device {
            if ds.link_bytes > 0 {
                assert_eq!(
                    ds.link_cycles,
                    dev.config().cost.link_transfer_cycles(ds.link_bytes)
                );
                assert!(ds.link_cycles > dev.config().cost.link_latency);
            }
            assert!(ds.total_cycles() <= p.makespan_cycles);
        }
        assert_eq!(
            p.makespan_cycles,
            p.per_device
                .iter()
                .map(DeviceStats::total_cycles)
                .max()
                .unwrap()
        );
        // The record's headline cycles are the makespan.
        assert_eq!(rec.kernel_cycles(), Some(p.makespan_cycles));
    }

    /// An "implementation" that succeeds without launching anything:
    /// default `LaunchStats`, zero modelled cycles.
    struct ZeroCycleProbe;

    impl TcAlgorithm for ZeroCycleProbe {
        fn meta(&self) -> tc_algos::api::AlgoMeta {
            tc_algos::api::AlgoMeta {
                name: "zero-cycle-probe",
                reference: "synthetic instrumentation probe",
                year: 2024,
                iterator: tc_algos::api::IteratorKind::Edge,
                intersection: tc_algos::api::Intersection::Merge,
                granularity: tc_algos::api::Granularity::Coarse,
            }
        }

        fn count(
            &self,
            _dev: &Device,
            _mem: &mut gpu_sim::DeviceMem,
            _dg: &DeviceGraph,
        ) -> Result<tc_algos::api::TcOutput, SimError> {
            Ok(tc_algos::api::TcOutput {
                triangles: 0,
                stats: LaunchStats::default(),
            })
        }
    }

    #[test]
    fn zero_cycle_success_fails_on_one_device_and_on_many() {
        let dev = Device::v100();
        let data = PreparedDataset::prepare(&tiny_spec());
        for rec in [
            run_on_dataset(&dev, &ZeroCycleProbe, &data),
            run_partitioned(&dev, &ZeroCycleProbe, &data, 2),
        ] {
            match &rec.outcome {
                RunOutcome::Failed(SimError::KernelFault(msg)) => {
                    assert!(msg.contains("zero kernel cycles"), "{msg}")
                }
                other => panic!("expected a zero-cycle fault, got {other:?}"),
            }
            assert!(rec.partition.is_none());
        }
    }

    #[test]
    fn backend_surface_matches_direct_call() {
        let dev = Device::v100();
        let data = PreparedDataset::prepare(&tiny_spec());
        let algos = all_algorithms();
        let backend = PartitionedSimBackend {
            dev: &dev,
            num_devices: 2,
        };
        let via = backend.run(algos[1].as_ref(), &data);
        let direct = run_partitioned(&dev, algos[1].as_ref(), &data, 2);
        assert_eq!(via.backend, "sim");
        assert_eq!(via.kernel_cycles(), direct.kernel_cycles());
        assert_eq!(via.partition, direct.partition);
    }
}
