//! Cross-algorithm integration tests at the crate level: pairwise
//! agreement on structured and random graphs, resource-failure modes,
//! stats sanity, and host-kernel exactness for every registered
//! implementation (and GroupTC-H's host kernel).

use gpu_sim::{Device, DeviceMem, SimError};
use graph_data::{clean_edges, cpu_ref, gen, orient, EdgeList, Orientation};
use tc_algos::device_graph::DeviceGraph;
use tc_algos::{all_algorithms, GroupTcHybrid, TcAlgorithm};

fn fixtures() -> Vec<(&'static str, EdgeList)> {
    vec![
        ("rmat", gen::rmat(11, 14_000, 0.57, 0.19, 0.19, 0.05, 71)),
        ("ba-clustered", gen::barabasi_albert(1_200, 6, 0.7, 72)),
        ("ws-lattice", gen::watts_strogatz(900, 4, 0.05, 73)),
        ("road", gen::road_grid(35, 35, 0.8, 0.2, 74)),
        ("er", gen::erdos_renyi(900, 5_000, 75)),
    ]
}

#[test]
fn all_registered_algorithms_agree_on_every_fixture() {
    let dev = Device::v100();
    for (name, raw) in fixtures() {
        let (g, _) = clean_edges(&raw);
        let expected = {
            let dag = orient(&g, Orientation::DegreeAsc);
            cpu_ref::forward_merge(&dag)
        };
        for algo in all_algorithms() {
            let dag = orient(&g, algo.preferred_orientation());
            // `run` leak-checks: auxiliary allocations must all have
            // been released.
            let out = algo
                .run(&dev, &dag)
                .unwrap_or_else(|e| panic!("{} failed on {name}: {e}", algo.name()));
            assert_eq!(out.triangles, expected, "{} wrong on {name}", algo.name());
        }
    }
}

#[test]
fn every_algorithm_reports_work_proportional_stats() {
    let dev = Device::v100();
    let (small, _) = clean_edges(&gen::rmat(10, 5_000, 0.57, 0.19, 0.19, 0.05, 81));
    let (large, _) = clean_edges(&gen::rmat(13, 40_000, 0.57, 0.19, 0.19, 0.05, 81));
    for algo in all_algorithms() {
        let run = |g: &graph_data::UndirGraph| {
            let dag = orient(g, algo.preferred_orientation());
            algo.run(&dev, &dag).unwrap().stats
        };
        let s = run(&small);
        let l = run(&large);
        assert!(
            l.counters.global_load_requests > s.counters.global_load_requests,
            "{}: more edges must mean more loads",
            algo.name()
        );
        assert!(
            l.total_block_cycles > s.total_block_cycles,
            "{}: more edges must mean more work",
            algo.name()
        );
    }
}

#[test]
fn algorithms_fail_cleanly_when_auxiliary_memory_does_not_fit() {
    // A device just big enough for the graph but not for the big
    // auxiliary structures some algorithms allocate.
    let (g, _) = clean_edges(&gen::rmat(12, 30_000, 0.57, 0.19, 0.19, 0.05, 91));
    let dag = orient(&g, Orientation::DegreeAsc);
    let graph_words = (dag.csr().offsets().len() + 3 * dag.csr().targets().len()) as u64;
    let dev = Device::with_memory_words(graph_words + 256);
    let mut failures = 0;
    for algo in all_algorithms() {
        let mut mem = DeviceMem::new(&dev);
        let dg = DeviceGraph::upload(&dag, &mut mem).unwrap();
        match algo.count(&dev, &mut mem, &dg) {
            Ok(out) => {
                // Algorithms with small aux footprints still succeed and
                // must still be exact.
                assert_eq!(
                    out.triangles,
                    cpu_ref::forward_merge(&dag),
                    "{}",
                    algo.name()
                );
            }
            Err(SimError::OutOfMemory { .. }) => failures += 1,
            Err(e) => panic!("{}: unexpected error {e}", algo.name()),
        }
    }
    assert!(
        failures > 0,
        "at least the arena-hungry implementations should OOM (red crosses)"
    );
}

/// Every registered algorithm plus GroupTC-H: the set whose `count_cpu`
/// serves `CpuBackend` cells.
fn host_kernels() -> Vec<Box<dyn TcAlgorithm>> {
    let mut algos = all_algorithms();
    algos.push(Box::new(GroupTcHybrid::default()));
    algos
}

#[test]
fn all_host_kernels_agree_with_the_oracle() {
    for (label, edges) in [
        ("rmat", gen::rmat(8, 2500, 0.57, 0.19, 0.19, 0.05, 31)),
        ("er", gen::erdos_renyi(150, 900, 32)),
        ("ba", gen::barabasi_albert(200, 5, 0.5, 33)),
        // Hub-heavy: its hubs span many bitmap words and cross TRUST's
        // warp/block split (out-degree 100), checked below.
        ("rmat-hub", gen::rmat(11, 16_000, 0.6, 0.18, 0.18, 0.04, 34)),
    ] {
        let (g, _) = clean_edges(&edges);
        let expected = cpu_ref::node_iterator(&g);
        for o in [
            Orientation::ById,
            Orientation::DegreeAsc,
            Orientation::DegreeDesc,
        ] {
            let dag = orient(&g, o);
            if label == "rmat-hub" && o == Orientation::ById {
                let csr = dag.csr();
                let max_out = (0..csr.num_vertices()).map(|u| csr.degree(u)).max();
                assert!(max_out > Some(100), "max out-degree {max_out:?}");
            }
            for algo in host_kernels() {
                assert_eq!(
                    algo.count_cpu(&dag),
                    expected,
                    "{} on {label} {o:?}",
                    algo.name()
                );
            }
        }
    }
}

#[test]
fn empty_graph_counts_zero_on_every_kernel() {
    let (g, _) = clean_edges(&EdgeList::new(vec![(0, 1)]));
    let dag = orient(&g, Orientation::ById);
    for algo in host_kernels() {
        assert_eq!(algo.count_cpu(&dag), 0, "{}", algo.name());
    }
}
