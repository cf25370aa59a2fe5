//! The partitioned multi-device wall: for every registry entry and
//! every conformance graph, the N-device count must equal the
//! single-device count exactly at N ∈ {2, 4, 8}, with the race detector
//! and SimSan forced on, and per-device stats must be an exact split
//! (triangles sum, link charges only off-diagonal).

use tc_compare::algos::all_algorithms;
use tc_compare::algos::conformance::generator_cases;
use tc_compare::core::framework::partitioned::run_partitioned;
use tc_compare::core::framework::runner::{PreparedDataset, RunOutcome};
use tc_compare::core::{Backend, SimBackend};
use tc_compare::graph::clean_edges;
use tc_compare::graph::datasets::{DatasetSpec, GenSpec, SizeClass};
use tc_compare::sim::Device;

/// Conformance cases wrapped as prepared datasets (the partitioned
/// runner's input type).
fn prepared_cases() -> Vec<PreparedDataset> {
    generator_cases()
        .into_iter()
        .map(|case| {
            let (g, _) = clean_edges(&case.edges);
            let spec = DatasetSpec {
                name: case.name,
                paper_vertices: 0,
                paper_edges: 0,
                paper_avg_degree: 0.0,
                size_class: SizeClass::Small,
                gen: GenSpec::Rmat {
                    scale: 1,
                    raw_edges: 0,
                },
                seed: 0,
            };
            PreparedDataset::from_graph(spec, g)
        })
        .collect()
}

#[test]
fn n_device_counts_equal_single_device_for_every_registry_entry() {
    // Race detector and SimSan live on every launch of every device.
    let dev = Device::v100().with_race_detection().with_sanitizer();
    let algos = all_algorithms();
    assert_eq!(algos.len(), 10, "the registry should hold ten algorithms");
    for data in prepared_cases() {
        for algo in &algos {
            let single = SimBackend { dev: &dev }.run(algo.as_ref(), &data);
            let expected = match &single.outcome {
                RunOutcome::Ok { triangles, .. } => *triangles,
                RunOutcome::Failed(e) => {
                    panic!(
                        "{} single-device failed on {}: {e}",
                        single.algorithm, data.spec.name
                    )
                }
            };
            assert_eq!(expected, data.ground_truth, "{}", single.algorithm);
            for n in [2u32, 4, 8] {
                let multi = run_partitioned(&dev, algo.as_ref(), &data, n);
                match &multi.outcome {
                    RunOutcome::Ok {
                        triangles,
                        verified,
                        ..
                    } => {
                        assert_eq!(
                            *triangles, expected,
                            "{} x{n} on {} disagrees with single-device",
                            multi.algorithm, data.spec.name
                        );
                        assert!(verified);
                    }
                    RunOutcome::Failed(e) => panic!(
                        "{} x{n} failed on {}: {e}",
                        multi.algorithm,
                        data.spec.name,
                        e = e
                    ),
                }
                let p = multi.partition.as_ref().expect("partition stats at N>1");
                assert_eq!(p.num_devices, n);
                assert_eq!(p.per_device.len(), n as usize);
                let sum: u64 = p.per_device.iter().map(|d| d.triangles).sum();
                assert_eq!(
                    sum, expected,
                    "{} x{n}: split must be exact",
                    multi.algorithm
                );
                assert_eq!(
                    p.makespan_cycles,
                    p.per_device
                        .iter()
                        .map(|d| d.kernel_cycles + d.link_cycles)
                        .max()
                        .unwrap()
                );
            }
        }
    }
}

#[test]
fn one_device_partitioned_run_carries_no_partition_stats() {
    let dev = Device::v100();
    let algos = all_algorithms();
    let data = &prepared_cases()[0];
    let direct = SimBackend { dev: &dev }.run(algos[0].as_ref(), data);
    let via = run_partitioned(&dev, algos[0].as_ref(), data, 1);
    assert!(via.partition.is_none());
    assert_eq!(via.kernel_cycles(), direct.kernel_cycles());
}
