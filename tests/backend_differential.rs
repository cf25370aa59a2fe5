//! The differential CPU ≡ sim wall: for every registry entry (all ten
//! algorithms, cover-edge included) and every conformance graph, the
//! native host kernel, the simulated kernel and the independent
//! `cpu_ref::node_iterator` oracle must produce the same count — with
//! the sim side running under forced race detection, SimSan and SimLint,
//! plus the per-run leak check (that is what `run_checked` does).
//!
//! This is the acceptance gate for the backend split: the CPU execution
//! path is born behind the same wall the sim path already lives behind,
//! so a host kernel can never drift from the algorithm it mirrors
//! without a red test naming the exact generator one-liner.

use tc_compare::algos::conformance::{generator_cases, run_checked};
use tc_compare::core::{all_algorithms, Backend, CpuBackend, PreparedDataset, SimBackend};
use tc_compare::graph::datasets::{DatasetSpec, GenSpec, SizeClass};
use tc_compare::graph::{clean_edges, cpu_ref, orient};
use tc_compare::sim::Device;

#[test]
fn cpu_and_sim_agree_with_the_oracle_on_every_conformance_graph() {
    let algos = all_algorithms();
    assert_eq!(algos.len(), 10, "the registry should hold ten algorithms");
    for case in generator_cases() {
        let (g, _) = clean_edges(&case.edges);
        let expected = cpu_ref::node_iterator(&g);
        for algo in &algos {
            let dag = orient(&g, algo.preferred_orientation());
            // Sim side: race detection + SimSan forced on, leak-checked.
            let sim = run_checked(algo.as_ref(), &dag).unwrap_or_else(|e| {
                panic!(
                    "{} failed on `{}`: {e}\n  reproduce with: let edges = {};",
                    algo.name(),
                    case.name,
                    case.repro
                )
            });
            assert!(
                sim.stats.counters.race_checks > 0 && sim.stats.counters.sanitizer_checks > 0,
                "{} on `{}`: detector/sanitizer not live",
                algo.name(),
                case.name
            );
            // Host side: the algorithm's native rayon kernel.
            let cpu = algo.count_cpu(&dag);
            assert_eq!(
                sim.triangles,
                expected,
                "{} (sim) disagrees with the oracle on `{}`\n  reproduce with: let edges = {};",
                algo.name(),
                case.name,
                case.repro
            );
            assert_eq!(
                cpu,
                expected,
                "{} (cpu) disagrees with the oracle on `{}`\n  reproduce with: let edges = {};",
                algo.name(),
                case.name,
                case.repro
            );
        }
    }
}

#[test]
fn cpu_backend_reuses_the_prepared_pipeline() {
    // One prepared dataset serves both backends: same orientation cache,
    // same ground truth, no per-backend re-preparation.
    let spec = DatasetSpec {
        name: "backend-shared-prep",
        paper_vertices: 0,
        paper_edges: 0,
        paper_avg_degree: 0.0,
        size_class: SizeClass::Small,
        gen: GenSpec::Rmat {
            scale: 8,
            raw_edges: 2000,
        },
        seed: 13,
    };
    let data = PreparedDataset::prepare(&spec);
    let dev = Device::v100();
    for algo in all_algorithms() {
        let sim = SimBackend { dev: &dev }.run(algo.as_ref(), &data);
        let cpu = CpuBackend.run(algo.as_ref(), &data);
        match (&sim.outcome, &cpu.outcome) {
            (
                tc_compare::core::RunOutcome::Ok { triangles: st, .. },
                tc_compare::core::RunOutcome::Ok { triangles: ct, .. },
            ) => {
                assert_eq!(st, ct, "{}", sim.algorithm);
                assert_eq!(*ct, data.ground_truth, "{}", sim.algorithm);
            }
            (a, b) => panic!("{}: {a:?} vs {b:?}", sim.algorithm),
        }
    }
}
