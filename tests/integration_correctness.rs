//! Cross-crate integration: every GPU algorithm must produce the exact
//! CPU-reference triangle count on real-shaped datasets, under its own
//! preferred preprocessing — the property the whole evaluation rests on.

use tc_compare::algos::all_algorithms;
use tc_compare::core::{Backend, PreparedDataset, RunOutcome, SimBackend};
use tc_compare::graph::datasets::GenSpec;
use tc_compare::graph::{DatasetSpec, SizeClass};
use tc_compare::sim::Device;

/// Paste-able description of the failing fixture: the generator
/// parameters plus seed reconstruct the graph exactly.
fn repro(s: &DatasetSpec) -> String {
    format!("regenerate with: {:?} at seed {}", s.gen, s.seed)
}

fn spec(name: &'static str, gen: GenSpec, seed: u64) -> DatasetSpec {
    DatasetSpec {
        name,
        paper_vertices: 0,
        paper_edges: 0,
        paper_avg_degree: 0.0,
        size_class: SizeClass::Small,
        gen,
        seed,
    }
}

/// Reduced-size cousins of each Table II generator family.
fn fixture_specs() -> Vec<DatasetSpec> {
    vec![
        spec(
            "it-rmat",
            GenSpec::Rmat {
                scale: 12,
                raw_edges: 30_000,
            },
            1,
        ),
        spec(
            "it-er",
            GenSpec::Er {
                n: 4_000,
                raw_edges: 16_000,
            },
            2,
        ),
        spec(
            "it-ba",
            GenSpec::Ba {
                n: 3_000,
                m: 5,
                p_triad: 0.6,
            },
            3,
        ),
        spec(
            "it-grid",
            GenSpec::Grid {
                rows: 60,
                cols: 60,
                keep: 0.8,
                diag: 0.05,
            },
            4,
        ),
    ]
}

#[test]
fn all_algorithms_exact_on_all_generator_families() {
    let dev = Device::v100();
    let algos = all_algorithms();
    for s in fixture_specs() {
        let data = PreparedDataset::prepare(&s);
        assert!(data.stats.edges > 1000, "{}: fixture too small", s.name);
        for algo in &algos {
            let rec = SimBackend { dev: &dev }.run(algo.as_ref(), &data);
            match rec.outcome {
                RunOutcome::Ok {
                    triangles,
                    verified,
                    ..
                } => assert!(
                    verified,
                    "{} on {}: counted {triangles}, expected {}\n  {}",
                    rec.algorithm,
                    s.name,
                    data.ground_truth,
                    repro(&s)
                ),
                RunOutcome::Failed(e) => {
                    panic!(
                        "{} failed on {}: {e}\n  {}",
                        rec.algorithm,
                        s.name,
                        repro(&s)
                    )
                }
            }
        }
    }
}

#[test]
fn smallest_table2_dataset_verifies_for_everyone() {
    let dev = Device::v100();
    let spec = DatasetSpec::by_name("As-Caida").unwrap();
    let data = PreparedDataset::prepare(spec);
    assert!(data.ground_truth > 0);
    for algo in all_algorithms() {
        let rec = SimBackend { dev: &dev }.run(algo.as_ref(), &data);
        assert!(rec.is_verified(), "{} not verified", rec.algorithm);
    }
}

#[test]
fn profiling_counters_are_sane_for_every_algorithm() {
    let dev = Device::v100();
    let s = spec(
        "sanity",
        GenSpec::Rmat {
            scale: 11,
            raw_edges: 15_000,
        },
        9,
    );
    let data = PreparedDataset::prepare(&s);
    for algo in all_algorithms() {
        let rec = SimBackend { dev: &dev }.run(algo.as_ref(), &data);
        let c = rec
            .counters()
            .unwrap_or_else(|| panic!("{} failed\n  {}", rec.algorithm, repro(&s)));
        let eff = c.warp_execution_efficiency();
        assert!(
            (0.0..=1.0).contains(&eff),
            "{}: efficiency {eff} out of range",
            rec.algorithm
        );
        assert!(c.global_load_requests > 0, "{}: no loads?", rec.algorithm);
        assert!(
            c.gld_transactions_per_request() >= 0.0,
            "{}: negative tpr",
            rec.algorithm
        );
        assert!(
            c.active_thread_slots <= c.issued_slots * 32,
            "{}: active threads exceed slot capacity",
            rec.algorithm
        );
        assert!(rec.kernel_cycles().unwrap() > 0);
    }
}

#[test]
fn runs_are_deterministic() {
    let dev = Device::v100();
    let s = spec(
        "det",
        GenSpec::Ba {
            n: 1_000,
            m: 4,
            p_triad: 0.5,
        },
        11,
    );
    for algo in all_algorithms() {
        let d1 = PreparedDataset::prepare(&s);
        let d2 = PreparedDataset::prepare(&s);
        let r1 = SimBackend { dev: &dev }.run(algo.as_ref(), &d1);
        let r2 = SimBackend { dev: &dev }.run(algo.as_ref(), &d2);
        match (&r1.outcome, &r2.outcome) {
            (
                RunOutcome::Ok {
                    kernel_cycles: k1,
                    counters: c1,
                    ..
                },
                RunOutcome::Ok {
                    kernel_cycles: k2,
                    counters: c2,
                    ..
                },
            ) => {
                assert_eq!(k1, k2, "{}: cycles not deterministic", r1.algorithm);
                assert_eq!(c1, c2, "{}: counters not deterministic", r1.algorithm);
            }
            other => panic!(
                "{}: unexpected outcomes {other:?}\n  {}",
                r1.algorithm,
                repro(&s)
            ),
        }
    }
}

#[test]
fn graph_upload_fails_cleanly_on_tiny_device() {
    use tc_compare::algos::DeviceGraph;
    use tc_compare::graph::{orient, Orientation};
    use tc_compare::sim::{DeviceMem, SimError};

    let s = spec(
        "oom",
        GenSpec::Rmat {
            scale: 11,
            raw_edges: 20_000,
        },
        13,
    );
    let g = s.build();
    let dag = orient(&g, Orientation::DegreeAsc);
    let dev = Device::with_memory_words(100);
    let mut mem = DeviceMem::new(&dev);
    assert!(matches!(
        DeviceGraph::upload(&dag, &mut mem),
        Err(SimError::OutOfMemory { .. })
    ));
}
