//! `LINT_sim.json` — the per-algorithm diagnostic wall.
//!
//! The `lint_sweep` binary runs every registry algorithm over the
//! conformance corpus with SimLint forced on and serializes the merged
//! [`LintReport`] of each (algorithm × dataset)
//! cell. The committed file is a *golden snapshot* of the registry's
//! performance-lint findings: which algorithms are lint-clean, which
//! carry known findings, and exactly what those findings say.
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "device": "V100",
//!   "records": [
//!     {"algorithm": "GroupTC", "dataset": "er-dense", "outcome": "ok",
//!      "clean": false, "diags": [
//!       {"rule": "atomic-contention", "pc_hint": "phase 1, `sums`[0]",
//!        "detail": "..."}
//!     ]},
//!     ...
//!   ]
//! }
//! ```
//!
//! [`compare_snapshot`] is the CI gate: a **new rule** appearing for a
//! cell, a **per-rule count increase**, or a previously-ok cell failing
//! outright are hard failures; message drift at constant counts, rules
//! *disappearing* (an improvement — refresh the snapshot), and cells
//! with no baseline counterpart are advisory. Like `bench_json` this is
//! dependency-free: hand-rendered JSON, re-parsed by the same minimal
//! parser.

use gpu_sim::{LintReport, LintRule};

use crate::bench_json::{escape, parse, Json};

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

    fn count(&self, rule: &str) -> usize {
        self.diags.iter().filter(|d| d.rule == rule).count()
    }
}

/// Render the full `LINT_sim.json` document. One diag per line, so a
/// plain `diff` of two snapshots shows exactly which findings moved.
pub fn render(device: &str, cells: &[LintCell]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema_version\": 1,\n");
    out.push_str(&format!("  \"device\": \"{}\",\n", escape(device)));
    out.push_str("  \"records\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 == cells.len() { "" } else { "," };
        let error = if c.outcome == "failed" {
            format!(" \"error\": \"{}\",", escape(&c.error))
        } else {
            String::new()
        };
        out.push_str(&format!(
            "    {{\"algorithm\": \"{}\", \"dataset\": \"{}\", \"outcome\": \"{}\",{} \
             \"clean\": {}, \"diags\": [",
            escape(&c.algorithm),
            escape(&c.dataset),
            c.outcome,
            error,
            c.is_clean(),
        ));
        if c.diags.is_empty() {
            out.push_str(&format!("]}}{comma}\n"));
        } else {
            out.push('\n');
            for (j, d) in c.diags.iter().enumerate() {
                let dcomma = if j + 1 == c.diags.len() { "" } else { "," };
                out.push_str(&format!(
                    "      {{\"rule\": \"{}\", \"pc_hint\": \"{}\", \"detail\": \"{}\"}}{}\n",
                    escape(&d.rule),
                    escape(&d.pc_hint),
                    escape(&d.detail),
                    dcomma,
                ));
            }
            out.push_str(&format!("    ]}}{comma}\n"));
        }
    }
    out.push_str("  ]\n}\n");
    out
}

/// Validate a `LINT_sim.json` document against schema version 1 and
/// return the parsed cells. The rule vocabulary is closed (the
/// [`LintRule::ALL`] names), and the redundant `clean` flag must agree
/// with the diags it summarizes.
pub fn validate(text: &str) -> Result<Vec<LintCell>, String> {
    let doc = parse(text)?;
    let version = doc
        .get("schema_version")
        .and_then(Json::as_num)
        .ok_or("missing numeric `schema_version`")?;
    if version != 1.0 {
        return Err(format!("unsupported schema_version {version}"));
    }
    doc.get("device")
        .and_then(Json::as_str)
        .ok_or("missing string `device`")?;
    let records = doc
        .get("records")
        .and_then(Json::as_arr)
        .ok_or("missing array `records`")?;
    let mut cells = Vec::with_capacity(records.len());
    for (i, r) in records.iter().enumerate() {
        let ctx = |what: &str| format!("record {i}: {what}");
        let algorithm = r
            .get("algorithm")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("missing string `algorithm`"))?;
        let dataset = r
            .get("dataset")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("missing string `dataset`"))?;
        let outcome = match r.get("outcome").and_then(Json::as_str) {
            Some("ok") => "ok",
            Some("failed") => "failed",
            Some(other) => return Err(ctx(&format!("bad outcome `{other}`"))),
            None => return Err(ctx("missing string `outcome`")),
        };
        let error = r
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        let diags = r
            .get("diags")
            .and_then(Json::as_arr)
            .ok_or_else(|| ctx("missing array `diags`"))?;
        let mut parsed = Vec::with_capacity(diags.len());
        for (j, d) in diags.iter().enumerate() {
            let dctx = |what: &str| ctx(&format!("diag {j}: {what}"));
            let rule = d
                .get("rule")
                .and_then(Json::as_str)
                .ok_or_else(|| dctx("missing string `rule`"))?;
            if !LintRule::ALL.iter().any(|r| r.as_str() == rule) {
                return Err(dctx(&format!("unknown rule `{rule}`")));
            }
            let pc_hint = d
                .get("pc_hint")
                .and_then(Json::as_str)
                .ok_or_else(|| dctx("missing string `pc_hint`"))?;
            let detail = d
                .get("detail")
                .and_then(Json::as_str)
                .ok_or_else(|| dctx("missing string `detail`"))?;
            parsed.push(LintDiagRecord {
                rule: rule.to_string(),
                pc_hint: pc_hint.to_string(),
                detail: detail.to_string(),
            });
        }
        let cell = LintCell {
            algorithm: algorithm.to_string(),
            dataset: dataset.to_string(),
            outcome,
            error,
            diags: parsed,
        };
        match r.get("clean") {
            Some(Json::Bool(b)) if *b == cell.is_clean() => {}
            Some(Json::Bool(_)) => return Err(ctx("`clean` disagrees with `diags`/`outcome`")),
            _ => return Err(ctx("missing boolean `clean`")),
        }
        cells.push(cell);
    }
    Ok(cells)
}

/// Result of regressing a fresh lint sweep against the committed
/// snapshot. `failures` is what CI gates on; `advisories` print for a
/// human to triage.
#[derive(Debug, Default)]
pub struct SnapshotReport {
    /// Rule-level regressions: a rule newly firing for a cell, a
    /// per-rule finding count increasing, or a baseline-ok cell failing.
    pub failures: Vec<String>,
    /// Non-gating drift: message/site changes at constant counts, rules
    /// that stopped firing (refresh the snapshot), cells without a
    /// baseline counterpart on either side.
    pub advisories: Vec<String>,
    /// Number of (algorithm × dataset) cells present on both sides.
    pub compared: usize,
}

impl SnapshotReport {
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Compare a fresh sweep's cells against a committed `LINT_sim.json`.
pub fn compare_snapshot(baseline_text: &str, cells: &[LintCell]) -> Result<SnapshotReport, String> {
    let baseline = validate(baseline_text).map_err(|e| format!("baseline: {e}"))?;
    let mut report = SnapshotReport::default();
    for cell in cells {
        let label = format!("{} / {}", cell.algorithm, cell.dataset);
        let Some(base) = baseline
            .iter()
            .find(|b| b.algorithm == cell.algorithm && b.dataset == cell.dataset)
        else {
            report
                .advisories
                .push(format!("{label}: no baseline cell (new coverage?)"));
            continue;
        };
        report.compared += 1;
        if base.outcome == "ok" && cell.outcome != "ok" {
            report
                .failures
                .push(format!("{label}: was lint-ok, now fails: {}", cell.error));
            continue;
        }
        for rule in LintRule::ALL {
            let rule = rule.as_str();
            let (now, was) = (cell.count(rule), base.count(rule));
            if now > was {
                report.failures.push(format!(
                    "{label}: `{rule}` findings {was} -> {now} — a lint regression \
                     (or refresh LINT_sim.json if the new finding is understood)"
                ));
            } else if now < was {
                report.advisories.push(format!(
                    "{label}: `{rule}` findings {was} -> {now} — an improvement; \
                     refresh LINT_sim.json to pin it"
                ));
            }
        }
        if cell.count_map_matches(base) && cell.diags != base.diags {
            report.advisories.push(format!(
                "{label}: finding text/site drifted at constant counts — \
                 refresh LINT_sim.json if intentional"
            ));
        }
    }
    for base in &baseline {
        if !cells
            .iter()
            .any(|c| c.algorithm == base.algorithm && c.dataset == base.dataset)
        {
            report.advisories.push(format!(
                "{} / {}: baseline cell not exercised by this sweep",
                base.algorithm, base.dataset
            ));
        }
    }
    if report.compared == 0 {
        return Err(
            "no (algorithm × dataset) cell overlaps the snapshot — nothing to check".to_string(),
        );
    }
    Ok(report)
}

impl LintCell {
    fn count_map_matches(&self, other: &LintCell) -> bool {
        LintRule::ALL
            .iter()
            .all(|r| self.count(r.as_str()) == other.count(r.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: &str, hint: &str) -> LintDiagRecord {
        LintDiagRecord {
            rule: rule.to_string(),
            pc_hint: hint.to_string(),
            detail: format!("detail for {rule} at {hint}"),
        }
    }

    fn cell(algo: &str, diags: Vec<LintDiagRecord>) -> LintCell {
        LintCell {
            algorithm: algo.to_string(),
            dataset: "er-dense".to_string(),
            outcome: "ok",
            error: String::new(),
            diags,
        }
    }

    #[test]
    fn render_roundtrips_through_validate() {
        let cells = vec![
            cell("Polak", vec![]),
            cell(
                "GroupTC",
                vec![
                    diag("atomic-contention", "phase 1, `sums`[0]"),
                    diag("low-occupancy", "phase 2"),
                ],
            ),
        ];
        let text = render("V100", &cells);
        let parsed = validate(&text).unwrap();
        assert_eq!(parsed, cells);
        assert!(parsed[0].is_clean());
        assert!(!parsed[1].is_clean());
    }

    #[test]
    fn failed_cells_carry_the_error_and_are_not_clean() {
        let c = LintCell::from_error("Hu", "road-grid", "barrier divergence in block 3");
        let text = render("V100", std::slice::from_ref(&c));
        assert!(text.contains("\"error\": \"barrier divergence in block 3\""));
        assert_eq!(validate(&text).unwrap(), vec![c]);
    }

    #[test]
    fn rule_vocabulary_is_closed() {
        let text = render("V100", &[cell("Polak", vec![diag("made-up-rule", "x")])]);
        assert!(validate(&text).unwrap_err().contains("unknown rule"));
    }

    #[test]
    fn clean_flag_must_agree_with_diags() {
        let text = render("V100", &[cell("Polak", vec![])]);
        let lying = text.replace("\"clean\": true", "\"clean\": false");
        assert!(validate(&lying).unwrap_err().contains("disagrees"));
    }

    #[test]
    fn new_rule_and_count_increase_fail_the_gate() {
        let baseline = render("V100", &[cell("Polak", vec![diag("low-occupancy", "p2")])]);
        // A rule the baseline never saw for this cell: hard failure.
        let now = vec![cell(
            "Polak",
            vec![diag("low-occupancy", "p2"), diag("bank-conflict", "s0")],
        )];
        let report = compare_snapshot(&baseline, &now).unwrap();
        assert!(!report.passed());
        assert!(report.failures[0].contains("bank-conflict"));
        // Same rule, one more finding: also a failure.
        let now = vec![cell(
            "Polak",
            vec![diag("low-occupancy", "p2"), diag("low-occupancy", "p3")],
        )];
        let report = compare_snapshot(&baseline, &now).unwrap();
        assert!(!report.passed());
        assert!(report.failures[0].contains("1 -> 2"));
    }

    #[test]
    fn disappearing_rules_and_text_drift_are_advisory() {
        let baseline = render("V100", &[cell("Polak", vec![diag("low-occupancy", "p2")])]);
        // The finding went away: advisory (refresh the snapshot).
        let report = compare_snapshot(&baseline, &[cell("Polak", vec![])]).unwrap();
        assert!(report.passed(), "failures: {:?}", report.failures);
        assert!(report.advisories.iter().any(|a| a.contains("improvement")));
        // Same counts, different site: advisory drift.
        let report = compare_snapshot(
            &baseline,
            &[cell("Polak", vec![diag("low-occupancy", "p9")])],
        )
        .unwrap();
        assert!(report.passed(), "failures: {:?}", report.failures);
        assert!(report.advisories.iter().any(|a| a.contains("drifted")));
    }

    #[test]
    fn ok_cell_turning_failed_fails_the_gate() {
        let baseline = render("V100", &[cell("Polak", vec![])]);
        let now = vec![LintCell::from_error("Polak", "er-dense", "boom")];
        let report = compare_snapshot(&baseline, &now).unwrap();
        assert!(!report.passed());
        assert!(report.failures[0].contains("now fails"));
    }

    #[test]
    fn non_overlapping_sweeps_are_an_error() {
        let baseline = render("V100", &[cell("Polak", vec![])]);
        let err = compare_snapshot(&baseline, &[cell("TRUST", vec![])]).unwrap_err();
        assert!(err.contains("overlaps"), "err: {err}");
    }

    #[test]
    fn identical_sweeps_pass_with_no_advisories() {
        let cells = vec![
            cell("Polak", vec![]),
            cell("GroupTC", vec![diag("atomic-contention", "p1")]),
        ];
        let baseline = render("V100", &cells);
        let report = compare_snapshot(&baseline, &cells).unwrap();
        assert!(report.passed());
        assert!(report.advisories.is_empty(), "{:?}", report.advisories);
        assert_eq!(report.compared, 2);
    }
}
