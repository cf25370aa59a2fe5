//! The two committed JSON pin files, rendered by hand (the build has
//! no serde).
//!
//! * `BENCH_sim.json` — the simulator's modelled results on the bench
//!   matrix. `tc bench_sweep --bench-json PATH` writes, per (algorithm ×
//!   dataset) cell, the outcome, the modelled kernel cycles and whether
//!   the count matched the CPU reference. Host wall time is measured,
//!   not modelled, so it goes to the command's stdout table and never
//!   into the document.
//! * `LINT_sim.json` — the per-algorithm diagnostic wall. `tc lint_sweep`
//!   runs every registry algorithm over the conformance corpus with
//!   SimLint forced on and prints the merged [`LintReport`] of each
//!   (algorithm × dataset) cell: which algorithms are lint-clean, which
//!   carry known findings, and exactly what those findings say.
//!
//! Both documents depend only on deterministic modelled results, so each
//! is pinned by its bytes: regenerate it and `diff` it against the
//! committed file (CI does; `tests/lint_wall.rs` does the same for the
//! wall). To refresh a pin after an intentional change, redirect the
//! command's output over the committed file and commit the diff. Both
//! formats are flat, one record per line, so that diff shows per-cell
//! drift:
//!
//! ```json
//! {
//!   "schema_version": 2,
//!   "device": "V100",
//!   "records": [
//!     {"algorithm": "Polak", "dataset": "Wiki-Talk", "outcome": "ok", "kernel_cycles": 123456, "verified": true},
//!     ...
//!   ]
//! }
//! ```
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "device": "V100",
//!   "records": [
//!     {"algorithm": "GroupTC", "dataset": "er-dense", "outcome": "ok", "clean": false, "diags": [
//!       {"rule": "atomic-contention", "pc_hint": "phase 1, `sums`[0]", "detail": "..."}
//!     ]},
//!     ...
//!   ]
//! }
//! ```

use gpu_sim::LintReport;
use tc_core::framework::runner::{RunOutcome, RunRecord};

/// One (algorithm × dataset) cell of the benchmark matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCell {
    pub algorithm: String,
    pub dataset: String,
    /// Execution backend (`"sim"` or `"cpu"`). Serialized only when a
    /// document mixes backends, so a pure-sim `BENCH_sim.json` has no
    /// `backend` field.
    pub backend: &'static str,
    /// `"ok"` or `"failed"`.
    pub outcome: &'static str,
    /// Best (minimum over reps) host wall-clock time simulating the cell.
    /// Printed by `tc bench_sweep`, never rendered into the document.
    pub wall_ms: f64,
    /// Modelled kernel cycles (0 for failed cells; deterministic).
    pub kernel_cycles: u64,
    /// Whether the GPU count matched the CPU reference.
    pub verified: bool,
}

impl BenchCell {
    /// Fold one sweep's records into cells (first rep), or merge a later
    /// rep into existing cells by taking the per-cell minimum wall time.
    pub fn from_records(records: &[RunRecord]) -> Vec<BenchCell> {
        records
            .iter()
            .map(|r| {
                let (outcome, kernel_cycles, verified) = match &r.outcome {
                    RunOutcome::Ok {
                        kernel_cycles,
                        verified,
                        ..
                    } => ("ok", *kernel_cycles, *verified),
                    RunOutcome::Failed(_) => ("failed", 0, false),
                };
                BenchCell {
                    algorithm: r.algorithm.clone(),
                    dataset: r.dataset.to_string(),
                    backend: r.backend,
                    outcome,
                    wall_ms: r.wall.as_secs_f64() * 1e3,
                    kernel_cycles,
                    verified,
                }
            })
            .collect()
    }

    /// Merge another rep of the *same* matrix: keep the minimum wall time
    /// per cell (the least-noisy estimate of the engine's speed).
    pub fn merge_min_wall(cells: &mut [BenchCell], rep: &[RunRecord]) {
        assert_eq!(cells.len(), rep.len(), "reps must run the same matrix");
        for (cell, r) in cells.iter_mut().zip(rep) {
            debug_assert_eq!(cell.algorithm, r.algorithm);
            debug_assert_eq!(cell.backend, r.backend);
            cell.wall_ms = cell.wall_ms.min(r.wall.as_secs_f64() * 1e3);
        }
    }

    /// The outcome column of `tc bench_sweep`: `ok`, `failed`, or
    /// `MISCOUNT` for a cell that ran but disagrees with the CPU
    /// reference.
    pub fn label(&self) -> &'static str {
        match (self.outcome, self.verified) {
            ("ok", true) => "ok",
            ("ok", false) => "MISCOUNT",
            (outcome, _) => outcome,
        }
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A pin document: the header, then the records, one per line (a lint
/// record's diags take one line each), so plain `diff` shows per-cell
/// drift between two files.
fn document(schema_version: u32, device: &str, records: &[String]) -> String {
    format!(
        "{{\n  \"schema_version\": {schema_version},\n  \"device\": \"{}\",\n  \"records\": [\n{}{}  ]\n}}\n",
        escape(device),
        records.join(",\n"),
        if records.is_empty() { "" } else { "\n" },
    )
}

/// Render the full `BENCH_sim.json` document (schema version 2: modelled
/// fields only).
pub fn render(device: &str, cells: &[BenchCell]) -> String {
    let multi_backend = cells.iter().any(|c| c.backend != "sim");
    let records: Vec<String> = cells
        .iter()
        .map(|c| {
            let backend = if multi_backend {
                format!("\"backend\": \"{}\", ", c.backend)
            } else {
                String::new()
            };
            format!(
                "    {{\"algorithm\": \"{}\", \"dataset\": \"{}\", {}\"outcome\": \"{}\", \
                 \"kernel_cycles\": {}, \"verified\": {}}}",
                escape(&c.algorithm),
                escape(&c.dataset),
                backend,
                c.outcome,
                c.kernel_cycles,
                c.verified,
            )
        })
        .collect();
    document(2, device, &records)
}

// ---------------------------------------------------------------------
// LINT_sim.json (the SimLint diagnostic wall).
// ---------------------------------------------------------------------

/// One serialized diagnostic (the stable triple of a
/// [`Diag`](gpu_sim::Diag); block/lane witnesses are launch-local and
/// stay out of the golden file).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintDiagRecord {
    pub rule: String,
    pub pc_hint: String,
    pub detail: String,
}

/// One (algorithm × dataset) cell of the diagnostic wall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintCell {
    pub algorithm: String,
    pub dataset: String,
    /// `"ok"` or `"failed"` (a fatal diagnostic or any other
    /// `SimError` poisons the cell).
    pub outcome: &'static str,
    /// The failure message when `outcome == "failed"`, else empty.
    pub error: String,
    pub diags: Vec<LintDiagRecord>,
}

impl LintCell {
    /// A successful cell from the launch's merged report (the report's
    /// own ordering is already stable: rule, then site, then detail).
    pub fn from_report(algorithm: &str, dataset: &str, report: &LintReport) -> LintCell {
        LintCell {
            algorithm: algorithm.to_string(),
            dataset: dataset.to_string(),
            outcome: "ok",
            error: String::new(),
            diags: report
                .diags
                .iter()
                .map(|d| LintDiagRecord {
                    rule: d.rule.as_str().to_string(),
                    pc_hint: d.pc_hint.clone(),
                    detail: d.detail.clone(),
                })
                .collect(),
        }
    }

    /// A poisoned cell (fatal diagnostic or other simulator error).
    pub fn from_error(algorithm: &str, dataset: &str, error: &str) -> LintCell {
        LintCell {
            algorithm: algorithm.to_string(),
            dataset: dataset.to_string(),
            outcome: "failed",
            error: error.to_string(),
            diags: Vec::new(),
        }
    }

    pub fn is_clean(&self) -> bool {
        self.outcome == "ok" && self.diags.is_empty()
    }
}

/// Render the full `LINT_sim.json` document. One diag per line, so a
/// plain `diff` of two snapshots shows exactly which findings moved.
pub fn render_lint(device: &str, cells: &[LintCell]) -> String {
    let records: Vec<String> = cells
        .iter()
        .map(|c| {
            let error = if c.outcome == "failed" {
                format!(" \"error\": \"{}\",", escape(&c.error))
            } else {
                String::new()
            };
            let diags: Vec<String> = c
                .diags
                .iter()
                .map(|d| {
                    format!(
                        "      {{\"rule\": \"{}\", \"pc_hint\": \"{}\", \"detail\": \"{}\"}}",
                        escape(&d.rule),
                        escape(&d.pc_hint),
                        escape(&d.detail),
                    )
                })
                .collect();
            format!(
                "    {{\"algorithm\": \"{}\", \"dataset\": \"{}\", \"outcome\": \"{}\",{} \
                 \"clean\": {}, \"diags\": [{}]}}",
                escape(&c.algorithm),
                escape(&c.dataset),
                c.outcome,
                error,
                c.is_clean(),
                if diags.is_empty() {
                    String::new()
                } else {
                    format!("\n{}\n    ", diags.join(",\n"))
                },
            )
        })
        .collect();
    document(1, device, &records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn cell(algo: &str, wall: f64) -> BenchCell {
        BenchCell {
            algorithm: algo.to_string(),
            dataset: "tiny-rmat".to_string(),
            backend: "sim",
            outcome: "ok",
            wall_ms: wall,
            kernel_cycles: 42,
            verified: true,
        }
    }

    fn record(outcome: RunOutcome) -> RunRecord {
        RunRecord {
            algorithm: "Polak".to_string(),
            dataset: "tiny-rmat",
            backend: "sim",
            outcome,
            partition: None,
            wall: Duration::from_millis(2),
        }
    }

    #[test]
    fn render_emits_only_modelled_fields() {
        let text = render("V100", &[cell("Polak", 1.25)]);
        assert_eq!(
            text,
            "{\n  \"schema_version\": 2,\n  \"device\": \"V100\",\n  \"records\": [\n    \
             {\"algorithm\": \"Polak\", \"dataset\": \"tiny-rmat\", \"outcome\": \"ok\", \
             \"kernel_cycles\": 42, \"verified\": true}\n  ]\n}\n"
        );
        // Host wall time is measured, so two runs of one matrix that
        // differ only in it render identically.
        assert_eq!(text, render("V100", &[cell("Polak", 99.0)]));
        assert_eq!(
            render("V100", &[]),
            "{\n  \"schema_version\": 2,\n  \"device\": \"V100\",\n  \"records\": [\n  ]\n}\n"
        );
    }

    #[test]
    fn backend_field_appears_only_in_mixed_documents() {
        let pure = render("V100", &[cell("Polak", 1.0)]);
        assert!(!pure.contains("\"backend\""));
        let mut c = cell("Polak", 2.0);
        c.backend = "cpu";
        let mixed = render("V100", &[cell("Polak", 1.0), c]);
        assert!(mixed.contains("\"backend\": \"sim\""));
        assert!(mixed.contains("\"backend\": \"cpu\""));
    }

    #[test]
    fn strings_are_escaped() {
        let mut c = cell("we\"ird\\name", 0.5);
        c.dataset = "line\nbreak".to_string();
        let text = render("V100", &[c]);
        assert!(text.contains(r#"{"algorithm": "we\"ird\\name", "dataset": "line\nbreak", "#));
    }

    #[test]
    fn label_names_failed_and_miscounted_cells() {
        let ok = |verified| RunOutcome::Ok {
            triangles: 7,
            kernel_cycles: 42,
            counters: Default::default(),
            verified,
        };
        let failed = RunOutcome::Failed(gpu_sim::SimError::KernelFault("x".into()));
        let cells = BenchCell::from_records(&[record(ok(true)), record(ok(false)), record(failed)]);
        let labels: Vec<&str> = cells.iter().map(BenchCell::label).collect();
        assert_eq!(labels, ["ok", "MISCOUNT", "failed"]);
    }

    #[test]
    fn merge_min_wall_takes_per_cell_minimum() {
        let mut cells = vec![cell("Polak", 5.0)];
        let rep = vec![record(RunOutcome::Failed(gpu_sim::SimError::KernelFault(
            "x".into(),
        )))];
        BenchCell::merge_min_wall(&mut cells, &rep);
        assert!((cells[0].wall_ms - 2.0).abs() < 1e-9);
    }

    #[test]
    fn failed_lint_cells_carry_the_error_and_are_not_clean() {
        let c = LintCell::from_error("Hu", "road-grid", "barrier divergence in block 3");
        assert!(!c.is_clean());
        let text = render_lint("V100", &[c]);
        assert!(text.contains(
            r#"{"algorithm": "Hu", "dataset": "road-grid", "outcome": "failed", "error": "barrier divergence in block 3", "clean": false, "diags": []}"#
        ));
        assert!(text.starts_with("{\n  \"schema_version\": 1,\n"));
    }
}
