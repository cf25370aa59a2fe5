//! Tentpole integration tests: the parallel evaluation sweep must be
//! indistinguishable from the serial one on the wire (byte-identical
//! deterministic CSV), and a faulting implementation must cost exactly
//! its own cell, never the sweep.

use tc_compare::algos::all_algorithms;
use tc_compare::algos::api::{AlgoMeta, Granularity, Intersection, IteratorKind, TcOutput};
use tc_compare::algos::DeviceGraph;
use tc_compare::core::framework::csv::write_records;
use tc_compare::core::{run_matrix, run_matrix_parallel, RunOutcome, RunRecord, SimBackend};
use tc_compare::graph::datasets::GenSpec;
use tc_compare::graph::{DatasetSpec, SizeClass};
use tc_compare::sim::{Device, DeviceMem, KernelConfig, SimError};

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

/// The same reduced four-generator-family fixture the correctness suite
/// uses: one dataset per Table II generator.
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
fn parallel_matrix_matches_serial_record_for_record() {
    let dev = Device::v100();
    let algos = all_algorithms();
    let specs = fixture_specs();
    let serial = run_matrix(&SimBackend { dev: &dev }, &algos, &specs);
    let parallel = run_matrix_parallel(&SimBackend { dev: &dev }, &algos, &specs);
    assert_eq!(serial.len(), algos.len() * specs.len());
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
                assert_eq!(st, pt, "{} / {}", s.algorithm, s.dataset);
                assert_eq!(sc, pc, "{} / {}", s.algorithm, s.dataset);
                assert_eq!(sk, pk, "{} / {}", s.algorithm, s.dataset);
                assert_eq!((sv, pv), (&true, &true), "{} / {}", s.algorithm, s.dataset);
            }
            (a, b) => panic!("{} / {}: {a:?} vs {b:?}", s.algorithm, s.dataset),
        }
    }

    // The deterministic CSV — the artifact figures are plotted from —
    // must be byte-identical between the two sweeps.
    let mut serial_csv = Vec::new();
    write_records(&mut serial_csv, &serial).unwrap();
    let mut parallel_csv = Vec::new();
    write_records(&mut parallel_csv, &parallel).unwrap();
    assert_eq!(serial_csv, parallel_csv, "CSV not byte-identical");
}

/// A deliberately broken "implementation" whose kernel reads past the
/// end of the edge-destination buffer on every lane.
struct OobAlgo;

impl tc_compare::algos::api::TcAlgorithm for OobAlgo {
    fn meta(&self) -> AlgoMeta {
        AlgoMeta {
            name: "oob-probe",
            reference: "synthetic fault probe",
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
        dg: &DeviceGraph,
    ) -> Result<TcOutput, SimError> {
        let edges = dg.num_edges as usize;
        let dst = dg.edge_dst;
        let stats = dev.launch(mem, KernelConfig::new(4, 128), move |blk| {
            blk.phase(move |lane| {
                let _ = lane.ld_global(dst, edges + lane.global_tid() as usize);
            });
        })?;
        Ok(TcOutput {
            triangles: 0,
            stats,
        })
    }
}

#[test]
fn faulting_algorithm_yields_failed_cells_while_sweep_continues() {
    let dev = Device::v100();
    let mut algos = all_algorithms();
    algos.push(Box::new(OobAlgo));
    let specs = fixture_specs();
    let records = run_matrix_parallel(&SimBackend { dev: &dev }, &algos, &specs);
    assert_eq!(records.len(), algos.len() * specs.len());

    let failed: Vec<&RunRecord> = records
        .iter()
        .filter(|r| matches!(r.outcome, RunOutcome::Failed(_)))
        .collect();
    // The probe fails on every dataset — one Failed record per fixture —
    // and nothing else does.
    assert_eq!(failed.len(), specs.len());
    for f in &failed {
        assert_eq!(f.algorithm, "oob-probe");
        match &f.outcome {
            RunOutcome::Failed(SimError::MemoryFault { index, len, .. }) => {
                assert!(index >= len, "fault should be out of bounds");
            }
            other => panic!("expected MemoryFault, got {other:?}"),
        }
    }
    assert!(
        records
            .iter()
            .filter(|r| r.algorithm != "oob-probe")
            .all(|r| r.is_verified()),
        "healthy cells must still verify"
    );
}
