//! The three workloads and the only place the benchmark builds devices
//! and backends. When the simulator's analysis toggles or the sweep
//! driver change shape, the helpers below are the lines to edit.

use gpu_sim::Device;
use graph_data::DatasetSpec;
use tc_core::{Backend, CpuBackend, SimBackend};

/// How a workload executes its cells.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    /// `gpu-sim` with no analyses.
    Sim,
    /// `gpu-sim` with race detection, SimSan and SimLint forced on.
    SimChecked,
    /// The algorithms' native host kernels (`count_cpu`).
    Native,
}

pub struct Workload {
    pub name: &'static str,
    /// The Table II recipe the input is generated from.
    pub dataset: &'static str,
    pub exec: Exec,
    /// A seed never used while tuning the benchmark, kept for
    /// re-checking later performance claims.
    pub held_out_seed: u64,
}

/// Why each workload exists is recorded in `perfbench/README.md`.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "sim-powerlaw",
        dataset: "Email-EuAll",
        exec: Exec::Sim,
        held_out_seed: 9103,
    },
    Workload {
        name: "sim-uniform-checked",
        dataset: "P2p-Gnutella31",
        exec: Exec::SimChecked,
        held_out_seed: 9102,
    },
    Workload {
        name: "native-powerlaw",
        dataset: "Wiki-Talk",
        exec: Exec::Native,
        held_out_seed: 9109,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    fn recipe(&self) -> &'static DatasetSpec {
        DatasetSpec::by_name(self.dataset).expect("workload datasets are Table II names")
    }

    /// The Table II seed of the workload's recipe.
    pub fn default_seed(&self) -> u64 {
        self.recipe().seed
    }

    /// The workload's input recipe with its generator seed replaced.
    pub fn spec(&self, seed: u64) -> DatasetSpec {
        DatasetSpec {
            seed,
            ..*self.recipe()
        }
    }

    /// The device the workload's sim cells run on; `None` when native.
    pub fn device(&self) -> Option<Device> {
        match self.exec {
            Exec::Sim => Some(plain_device()),
            Exec::SimChecked => Some(checked_device()),
            Exec::Native => None,
        }
    }
}

pub fn plain_device() -> Device {
    Device::v100()
}

/// Every analysis on, as conformance runs them.
pub fn checked_device() -> Device {
    Device::v100()
        .with_race_detection()
        .with_sanitizer()
        .with_lints()
}

pub fn sim_backend(dev: &Device) -> SimBackend<'_> {
    SimBackend { dev }
}

pub fn native_backend() -> CpuBackend {
    CpuBackend
}

/// The backend a workload's cells run through: the simulator on `dev`,
/// or the native host kernels when there is no device.
pub fn backend(dev: Option<&Device>) -> Box<dyn Backend + '_> {
    match dev {
        Some(d) => Box::new(sim_backend(d)),
        None => Box::new(native_backend()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_data::datasets::GenSpec;
    use tc_core::{all_algorithms, Backend, PreparedDataset, RunOutcome};

    /// A tiny skewed recipe, small enough for the checked simulator.
    fn tiny(seed: u64) -> DatasetSpec {
        DatasetSpec {
            seed,
            gen: GenSpec::Rmat {
                scale: 9,
                raw_edges: 2_000,
            },
            ..*DatasetSpec::by_name("Email-EuAll").unwrap()
        }
    }

    #[test]
    fn seeds_change_the_graph_and_every_algorithm_verifies_on_both() {
        let a = PreparedDataset::prepare(&tiny(1));
        let b = PreparedDataset::prepare(&tiny(2));
        assert_ne!(a.graph.csr().targets(), b.graph.csr().targets());
        assert!(a.ground_truth > 0 && b.ground_truth > 0);

        let plain = plain_device();
        let checked = checked_device();
        for data in [&a, &b] {
            for algo in all_algorithms() {
                for (dev, analysed) in [(&plain, false), (&checked, true)] {
                    let rec = sim_backend(dev).run(algo.as_ref(), data);
                    assert!(
                        rec.is_verified(),
                        "{} on sim: {:?}",
                        algo.name(),
                        rec.outcome
                    );
                    let c = rec.counters().unwrap();
                    let checks = [c.race_checks, c.sanitizer_checks, c.lint_checks];
                    assert_eq!(
                        checks.iter().all(|&n| n > 0),
                        analysed,
                        "{}: analysis counters {checks:?}",
                        algo.name()
                    );
                    if !analysed {
                        assert_eq!(checks, [0, 0, 0], "{}", algo.name());
                    }
                }
                let rec = native_backend().run(algo.as_ref(), data);
                assert!(
                    matches!(rec.outcome, RunOutcome::Ok { verified: true, .. }),
                    "{} on cpu: {:?}",
                    algo.name(),
                    rec.outcome
                );
            }
        }
    }
}
