//! Every committed pin file, behind one table.
//!
//! The reproduction's evidence is its deterministic modelled outputs, so
//! each is pinned by its bytes. [`PIN_FILES`] names every pinned file and
//! the function that renders it; `tc pins` writes them all, and
//! `tests/pins.rs` renders them all and compares each with the committed
//! bytes. To refresh a pin after an intentional change, run `tc pins` at
//! the repo root and commit the diff. Every format is flat, one record
//! per line, so that diff shows per-cell drift:
//!
//! * `tests/replay_equivalence/pins.rs` — the exact `LaunchStats` of
//!   every registry algorithm on the [`pinned_cells`](crate::pinned_cells),
//!   as a Rust table that `tests/replay_equivalence.rs` includes.
//! * `LINT_sim.json` — the per-algorithm SimLint diagnostic wall: the
//!   merged [`LintReport`] of every (algorithm × conformance case) cell
//!   of [`lint_wall`](crate::lint_wall), rendered by hand (the build has
//!   no serde):
//!
//!   ```json
//!   {
//!     "schema_version": 1,
//!     "device": "V100",
//!     "records": [
//!       {"algorithm": "GroupTC", "dataset": "er-dense", "outcome": "ok", "clean": false, "diags": [
//!         {"rule": "atomic-contention", "pc_hint": "phase 1, `sums`[0]", "detail": "..."}
//!       ]},
//!       ...
//!     ]
//!   }
//!   ```
//! * `SWEEP_sim.csv` — the evaluation sweep on a V100 over As-Caida,
//!   P2p-Gnutella31 and Wiki-Talk, in the deterministic CSV
//!   `tc all_figures --csv` writes: per cell the modelled cycles,
//!   counters and verification.

use gpu_sim::{Device, LintReport};
use graph_data::DatasetSpec;
use tc_algos::all_algorithms;
use tc_core::framework::backend::SimBackend;
use tc_core::framework::csv::write_records;
use tc_core::framework::runner::RunOutcome;

/// One committed pin: its path relative to the repo root, and the
/// function that renders its bytes (or names the cell that failed).
pub struct PinFile {
    pub path: &'static str,
    pub render: fn() -> Result<String, String>,
}

/// Every committed pin, in the order `tc pins` writes them.
pub const PIN_FILES: &[PinFile] = &[
    PinFile {
        path: "tests/replay_equivalence/pins.rs",
        render: render_replay_pins,
    },
    PinFile {
        path: "LINT_sim.json",
        render: || Ok(render_lint(&crate::lint_wall())),
    },
    PinFile {
        path: "SWEEP_sim.csv",
        render: render_sweep,
    },
];

/// The exact `LaunchStats` table of `tests/replay_equivalence/pins.rs`:
/// every [`pinned_cells`](crate::pinned_cells) cell on a plain V100
/// (race detector, SimSan and SimLint off).
fn render_replay_pins() -> Result<String, String> {
    let mut out = String::from(
        "// Generated by `cargo run --release -p tc-bench -- pins`.\n\
         // Exact LaunchStats of every registered algorithm on the pinned\n\
         // conformance graphs (plain V100, detector and sanitizer off).\n\
         pub const PINS: &[Pin] = &[\n",
    );
    for (algo, case, run) in crate::pinned_cells(&Device::v100()) {
        let run = run.map_err(|e| format!("{algo} failed on {case}: {e}"))?;
        let s = &run.stats;
        // Every counter field, so a counter added to the struct is
        // pinned too.
        let counters = format!("{:#?}", s.counters).replace('\n', "\n        ");
        out.push_str(&format!(
            "    Pin {{\n        algorithm: {algo:?},\n        case: {case:?},\n        \
             triangles: {},\n        kernel_cycles: {},\n        total_block_cycles: {},\n        \
             blocks: {},\n        counters: {counters},\n    }},\n",
            run.triangles, s.kernel_cycles, s.total_block_cycles, s.blocks,
        ));
    }
    out.push_str("];\n");
    Ok(out)
}

/// The evaluation sweep as the deterministic CSV. A failed or
/// unverified cell fails the render, naming the cell.
fn render_sweep() -> Result<String, String> {
    // The two smallest Table II stand-ins, whose rows are what
    // `tc all_figures As-Caida P2p-Gnutella31 --csv` writes, and
    // Wiki-Talk, the medium R-MAT stand-in `tc bench_sweep` times.
    let datasets: Vec<DatasetSpec> = ["As-Caida", "P2p-Gnutella31", "Wiki-Talk"]
        .iter()
        .map(|name| *DatasetSpec::by_name(name).expect("a Table II dataset"))
        .collect();
    let dev = Device::v100();
    let sim = SimBackend { dev: &dev };
    let records = crate::sweep(&sim, &all_algorithms(), &datasets, false);
    if let Some(r) = records.iter().find(|r| !r.is_verified()) {
        return Err(match &r.outcome {
            RunOutcome::Failed(e) => format!("{} failed on {}: {e}", r.algorithm, r.dataset),
            RunOutcome::Ok { .. } => format!("{} miscounted on {}", r.algorithm, r.dataset),
        });
    }
    let mut csv = Vec::new();
    write_records(&mut csv, &records).map_err(|e| format!("render the sweep CSV: {e}"))?;
    String::from_utf8(csv).map_err(|e| format!("the sweep CSV is not UTF-8: {e}"))
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

/// Render the full `LINT_sim.json` document: the header, then one record
/// per cell and one diag per line, so a plain `diff` of two snapshots
/// shows exactly which findings moved.
pub fn render_lint(cells: &[LintCell]) -> String {
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
    format!(
        "{{\n  \"schema_version\": 1,\n  \"device\": \"V100\",\n  \"records\": [\n{}{}  ]\n}}\n",
        records.join(",\n"),
        if records.is_empty() { "" } else { "\n" },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        let c = LintCell::from_error("we\"ird\\name", "line\nbreak", "tab\there");
        let text = render_lint(&[c]);
        assert!(text.contains(
            r#"{"algorithm": "we\"ird\\name", "dataset": "line\nbreak", "outcome": "failed", "error": "tab\u0009here","#
        ));
        assert_eq!(
            render_lint(&[]),
            "{\n  \"schema_version\": 1,\n  \"device\": \"V100\",\n  \"records\": [\n  ]\n}\n"
        );
    }

    #[test]
    fn failed_lint_cells_carry_the_error_and_are_not_clean() {
        let c = LintCell::from_error("Hu", "road-grid", "barrier divergence in block 3");
        assert!(!c.is_clean());
        let text = render_lint(&[c]);
        assert!(text.contains(
            r#"{"algorithm": "Hu", "dataset": "road-grid", "outcome": "failed", "error": "barrier divergence in block 3", "clean": false, "diags": []}"#
        ));
        assert!(text.starts_with("{\n  \"schema_version\": 1,\n"));
    }
}
