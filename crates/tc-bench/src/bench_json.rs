//! The two committed JSON pin files, rendered by hand (the build has
//! no serde).
//!
//! * `BENCH_sim.json` — the simulator's modelled results on the bench
//!   matrix. `tc bench_sweep --bench-json PATH` writes, per (algorithm ×
//!   dataset) cell, the outcome, the modelled kernel cycles and whether
//!   the count matched the CPU reference. A document holds one sweep
//!   on one backend, which its `"device"` header names: `"V100"` for
//!   the simulator, `"cpu"` for the native host kernels. Host wall time
//!   is measured, not modelled, so it goes to the command's stdout table
//!   and never into the document.
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

/// The outcome column of `tc bench_sweep`: `ok`, `failed`, or
/// `MISCOUNT` for a cell that ran but disagrees with the CPU reference.
pub fn label(r: &RunRecord) -> &'static str {
    match r.outcome {
        RunOutcome::Failed(_) => "failed",
        _ if r.is_verified() => "ok",
        _ => "MISCOUNT",
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
/// fields only) of one sweep on `device`. A failed cell renders
/// `"kernel_cycles": 0` and `"verified": false`.
pub fn render(device: &str, records: &[RunRecord]) -> String {
    let records: Vec<String> = records
        .iter()
        .map(|r| {
            let outcome = match r.outcome {
                RunOutcome::Ok { .. } => "ok",
                RunOutcome::Failed(_) => "failed",
            };
            format!(
                "    {{\"algorithm\": \"{}\", \"dataset\": \"{}\", \"outcome\": \"{}\", \
                 \"kernel_cycles\": {}, \"verified\": {}}}",
                escape(&r.algorithm),
                escape(r.dataset),
                outcome,
                r.kernel_cycles().unwrap_or(0),
                r.is_verified(),
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

    fn ok(verified: bool) -> RunOutcome {
        RunOutcome::Ok {
            triangles: 7,
            kernel_cycles: 42,
            counters: Default::default(),
            verified,
        }
    }

    fn record(algorithm: &str, outcome: RunOutcome, wall_ms: u64) -> RunRecord {
        RunRecord {
            algorithm: algorithm.to_string(),
            dataset: "tiny-rmat",
            outcome,
            wall: Duration::from_millis(wall_ms),
        }
    }

    #[test]
    fn render_emits_only_modelled_fields() {
        let text = render("V100", &[record("Polak", ok(true), 1)]);
        assert_eq!(
            text,
            "{\n  \"schema_version\": 2,\n  \"device\": \"V100\",\n  \"records\": [\n    \
             {\"algorithm\": \"Polak\", \"dataset\": \"tiny-rmat\", \"outcome\": \"ok\", \
             \"kernel_cycles\": 42, \"verified\": true}\n  ]\n}\n"
        );
        // Host wall time is measured, so two runs of one matrix that
        // differ only in it render identically.
        assert_eq!(text, render("V100", &[record("Polak", ok(true), 99)]));
        assert_eq!(
            render("V100", &[]),
            "{\n  \"schema_version\": 2,\n  \"device\": \"V100\",\n  \"records\": [\n  ]\n}\n"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let mut r = record("we\"ird\\name", ok(true), 1);
        r.dataset = "line\nbreak";
        let text = render("cpu", &[r]);
        assert!(text.contains("\"device\": \"cpu\""));
        assert!(text.contains(r#"{"algorithm": "we\"ird\\name", "dataset": "line\nbreak", "#));
    }

    #[test]
    fn failed_and_miscounted_cells_are_labelled_and_unverified() {
        let failed = RunOutcome::Failed(gpu_sim::SimError::KernelFault("x".into()));
        let records = [
            record("Polak", ok(true), 1),
            record("Polak", ok(false), 1),
            record("Polak", failed, 1),
        ];
        let labels: Vec<&str> = records.iter().map(label).collect();
        assert_eq!(labels, ["ok", "MISCOUNT", "failed"]);
        let text = render("V100", &records[2..]);
        assert!(text.contains(r#""outcome": "failed", "kernel_cycles": 0, "verified": false}"#));
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
