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
//! The devices are simulated **serially**, each through
//! [`run_on_pivots`] on a fresh [`gpu_sim::DeviceMem`] image, so every
//! device's graph is freed and its image leak-checked; determinism is
//! inherited from the simulator, so an N-device sweep is reproducible
//! cycle-for-cycle.

use gpu_sim::{Device, LaunchStats, SimError};
use tc_algos::api::{run_on_pivots, TcAlgorithm};
use tc_algos::partition::PartitionPlan;

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
/// is [`SimBackend`](crate::framework::backend::SimBackend)'s cell:
/// exactly [`TcAlgorithm::run`] on the preferred orientation, no plan,
/// no link charges, and `partition: None`. A device fault, a leaked
/// buffer or a panic becomes [`RunOutcome::Failed`] in this cell alone.
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
            // Each device is a fresh memory image holding the whole graph;
            // a split narrows its work to the device's pivot range.
            let (lo, hi) = split
                .as_ref()
                .map_or((0, dag.num_vertices()), |(plan, _)| plan.pivot_range(d));
            let out = match run_on_pivots(algo, dev, &dag, lo..hi) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use graph_data::datasets::{DatasetSpec, GenSpec, SizeClass};
    use tc_algos::all_algorithms;
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
    fn partitioned_counts_match_single_device_for_all_algorithms() {
        let dev = Device::v100();
        let data = PreparedDataset::prepare(&tiny_spec());
        for algo in all_algorithms() {
            let single = run_partitioned(&dev, algo.as_ref(), &data, 1);
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
    fn one_device_cell_is_exactly_the_algorithm_run() {
        let dev = Device::v100();
        let data = PreparedDataset::prepare(&tiny_spec());
        let algo = &all_algorithms()[0];
        let direct = algo
            .run(&dev, &data.dag(algo.preferred_orientation()))
            .unwrap();
        let via = run_partitioned(&dev, algo.as_ref(), &data, 1);
        assert!(via.partition.is_none(), "no partition stats at N=1");
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
            run_partitioned(&dev, &ZeroCycleProbe, &data, 1),
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
}
