//! The two committed JSON gate files and their one dependency-free
//! reader.
//!
//! * `BENCH_sim.json` — the simulator's perf-trajectory file. The sweep
//!   microbenchmark (`tc bench_sweep`) emits one document per run: host
//!   wall-clock time and modelled cycles for every (algorithm × dataset)
//!   cell, plus enough metadata to compare runs across commits. Modelled
//!   kernel cycles are deterministic and pinned by tests; host wall time
//!   is what bounds how fast the Table III sweep can run.
//! * `LINT_sim.json` — the per-algorithm diagnostic wall. `tc lint_sweep`
//!   runs every registry algorithm over the conformance corpus with
//!   SimLint forced on and serializes the merged [`LintReport`] of each
//!   (algorithm × dataset) cell: which algorithms are lint-clean, which
//!   carry known findings, and exactly what those findings say.
//!
//! Both formats are deliberately flat, one record per line, so a plain
//! `diff` of two files shows per-cell drift without a JSON library:
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "device": "V100",
//!   "reps": 3,
//!   "total_wall_ms": 1234.5,
//!   "records": [
//!     {"algorithm": "Polak", "dataset": "Wiki-Talk", "outcome": "ok",
//!      "wall_ms": 17.3, "kernel_cycles": 123456, "verified": true},
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
//! The emitters hand-render the JSON; [`validate`] and [`validate_lint`]
//! re-parse it with a minimal recursive-descent parser and share one
//! header check (`schema_version` 1, a string `device`, an array
//! `records`). Each file has a CI gate that returns one [`GateReport`]:
//! [`compare_to_baseline`] (kernel cycles within a +25% band) and
//! [`compare_snapshot`] (no new lint rule, no per-rule count increase).

use gpu_sim::{LintReport, LintRule};
use tc_core::framework::runner::{RunOutcome, RunRecord};

/// One (algorithm × dataset) cell of the benchmark matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCell {
    pub algorithm: String,
    pub dataset: String,
    /// Execution backend (`"sim"` or `"cpu"`). Serialized only when a
    /// document mixes backends, so pure-sim `BENCH_sim.json` files keep
    /// their historical shape.
    pub backend: &'static str,
    /// `"ok"` or `"failed"`.
    pub outcome: &'static str,
    /// Best (minimum over reps) host wall-clock time simulating the cell.
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

/// A gate document: the shared header, the `extra` header lines, then
/// the records, one per line (a lint record's diags take one line each),
/// so plain `diff` shows per-cell drift between two files.
fn document(device: &str, extra: &str, records: &[String]) -> String {
    format!(
        "{{\n  \"schema_version\": 1,\n  \"device\": \"{}\",\n{extra}  \"records\": [\n{}{}  ]\n}}\n",
        escape(device),
        records.join(",\n"),
        if records.is_empty() { "" } else { "\n" },
    )
}

/// Render the full `BENCH_sim.json` document.
pub fn render(device: &str, reps: u32, total_wall_ms: f64, cells: &[BenchCell]) -> String {
    // The backend field only appears in mixed-backend documents, so a
    // pure-sim BENCH_sim.json stays diffable against historical files.
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
                 \"wall_ms\": {:.3}, \"kernel_cycles\": {}, \"verified\": {}}}",
                escape(&c.algorithm),
                escape(&c.dataset),
                backend,
                c.outcome,
                c.wall_ms,
                c.kernel_cycles,
                c.verified,
            )
        })
        .collect();
    let extra = format!("  \"reps\": {reps},\n  \"total_wall_ms\": {total_wall_ms:.3},\n");
    document(device, &extra, &records)
}

// ---------------------------------------------------------------------
// Minimal JSON parser (validation only — the build has no serde).
// ---------------------------------------------------------------------

/// A parsed JSON value, just rich enough to validate the schema.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Field `key` of an object as a string, or an error naming it.
    fn str_at(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing string `{key}`"))
    }

    fn num_at(&self, key: &str) -> Result<f64, String> {
        self.get(key)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("missing numeric `{key}`"))
    }

    fn arr_at(&self, key: &str) -> Result<&[Json], String> {
        self.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("missing array `{key}`"))
    }

    fn bool_at(&self, key: &str) -> Result<bool, String> {
        match self.get(key) {
            Some(Json::Bool(b)) => Ok(*b),
            _ => Err(format!("missing boolean `{key}`")),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &str) -> String {
        format!("JSON parse error at byte {}: {what}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\n' || b == b'\r' || b == b'\t' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, lit: &str, val: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(val)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid utf-8"))?,
                    );
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut kv = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(kv));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            kv.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(kv));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

/// Parse a JSON document.
fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

/// Parse a gate document and check the header both schemas share:
/// `schema_version` 1, a string `device` and an array `records`.
fn parse_header(text: &str) -> Result<Json, String> {
    let doc = parse(text)?;
    let version = doc.num_at("schema_version")?;
    if version != 1.0 {
        return Err(format!("unsupported schema_version {version}"));
    }
    doc.str_at("device")?;
    doc.arr_at("records")?;
    Ok(doc)
}

/// Validate a `BENCH_sim.json` document against schema version 1 and
/// return the number of records. Used by tests and the CI bench-smoke
/// job; any missing key or mistyped field is an error.
pub fn validate(text: &str) -> Result<usize, String> {
    let doc = parse_header(text)?;
    doc.num_at("reps")?;
    doc.num_at("total_wall_ms")?;
    let records = doc.arr_at("records")?;
    for (i, r) in records.iter().enumerate() {
        let ctx = |what: &str| format!("record {i}: {what}");
        r.str_at("algorithm").map_err(|e| ctx(&e))?;
        r.str_at("dataset").map_err(|e| ctx(&e))?;
        if r.get("backend").is_some() && !matches!(r.str_at("backend"), Ok("sim" | "cpu")) {
            return Err(ctx("`backend`, when present, must be \"sim\" or \"cpu\""));
        }
        let outcome = r.str_at("outcome").map_err(|e| ctx(&e))?;
        if outcome != "ok" && outcome != "failed" {
            return Err(ctx(&format!("bad outcome `{outcome}`")));
        }
        let wall = r.num_at("wall_ms").map_err(|e| ctx(&e))?;
        if !wall.is_finite() || wall < 0.0 {
            return Err(ctx("wall_ms must be finite and non-negative"));
        }
        r.num_at("kernel_cycles").map_err(|e| ctx(&e))?;
        r.bool_at("verified").map_err(|e| ctx(&e))?;
    }
    Ok(records.len())
}

// ---------------------------------------------------------------------
// Baseline comparison (the CI regression gate).
// ---------------------------------------------------------------------

/// Result of regressing a fresh sweep against a committed gate file
/// (`BENCH_sim.json` or `LINT_sim.json`).
///
/// `failures` is what CI gates on; `advisories` is context a human reads
/// when triaging.
#[derive(Debug, Default)]
pub struct GateReport {
    /// Hard failures: a kernel-cycle regression beyond the tolerance
    /// band, a lint rule newly firing for a cell or a per-rule finding
    /// count increasing, or a cell that was ok in the baseline failing
    /// now.
    pub failures: Vec<String>,
    /// Informational findings that must not fail the build: wall-clock
    /// drift (host timing is noisy on shared runners), cycle *drops* and
    /// rules that stopped firing (an intentional change should refresh
    /// the file), lint message/site drift at constant counts, and cells
    /// missing on either side.
    pub advisories: Vec<String>,
    /// Number of (algorithm × dataset) cells present on both sides.
    pub compared: usize,
}

impl GateReport {
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// The report, or an error when no cell overlapped the baseline
    /// `file` (a gate that compared nothing must not pass).
    fn overlapping(self, file: &str) -> Result<GateReport, String> {
        if self.compared == 0 {
            return Err(format!(
                "no (algorithm × dataset) cell overlaps the {file} — nothing to check"
            ));
        }
        Ok(self)
    }
}

/// Compare a fresh sweep's cells against a committed `BENCH_sim.json`.
///
/// Modelled `kernel_cycles` are deterministic, so for every cell present
/// in both runs the current value may exceed the baseline by at most
/// `tolerance` (0.25 = +25%) before the comparison **fails** — the band
/// absorbs intentional small cost-model recalibrations while catching
/// the "accidentally made every kernel slower" class of regression.
/// Cycle *decreases* and host wall-clock drift of any size are reported
/// as advisories only. Baseline cells absent from the current run are
/// ignored (a smoke run may sweep a subset of the baseline matrix), but
/// at least one cell must overlap or the comparison is an error.
pub fn compare_to_baseline(
    baseline_text: &str,
    cells: &[BenchCell],
    tolerance: f64,
) -> Result<GateReport, String> {
    validate(baseline_text).map_err(|e| format!("baseline: {e}"))?;
    let doc = parse(baseline_text)?;
    let records = doc.arr_at("records")?;

    let mut report = GateReport::default();
    for cell in cells {
        let base = records.iter().find(|r| {
            r.str_at("algorithm") == Ok(&cell.algorithm)
                && r.str_at("dataset") == Ok(&cell.dataset)
                && r.str_at("backend").unwrap_or("sim") == cell.backend
        });
        let label = format!("{} / {} [{}]", cell.algorithm, cell.dataset, cell.backend);
        let Some(base) = base else {
            report
                .advisories
                .push(format!("{label}: no baseline cell (new coverage?)"));
            continue;
        };
        report.compared += 1;

        if base.str_at("outcome") == Ok("ok") && cell.outcome != "ok" {
            report
                .failures
                .push(format!("{label}: baseline ran ok but this sweep failed"));
            continue;
        }

        let base_cycles = base.num_at("kernel_cycles").unwrap_or(0.0);
        if base_cycles > 0.0 {
            let ratio = cell.kernel_cycles as f64 / base_cycles;
            if ratio > 1.0 + tolerance {
                report.failures.push(format!(
                    "{label}: kernel_cycles {} vs baseline {} ({:+.1}% > +{:.0}% band)",
                    cell.kernel_cycles,
                    base_cycles as u64,
                    (ratio - 1.0) * 100.0,
                    tolerance * 100.0,
                ));
            } else if cell.kernel_cycles as f64 != base_cycles {
                report.advisories.push(format!(
                    "{label}: kernel_cycles {} vs baseline {} ({:+.1}%, within band) \
                     — refresh BENCH_sim.json if the model change is intentional",
                    cell.kernel_cycles,
                    base_cycles as u64,
                    (ratio - 1.0) * 100.0,
                ));
            }
        }

        let base_wall = base.num_at("wall_ms").unwrap_or(0.0);
        if base_wall > 0.0 && cell.wall_ms > 0.0 {
            let ratio = cell.wall_ms / base_wall;
            if (ratio - 1.0).abs() > 0.10 {
                report.advisories.push(format!(
                    "{label}: wall {:.1} ms vs baseline {:.1} ms ({:+.0}%, advisory — \
                     host timing is machine-dependent)",
                    cell.wall_ms,
                    base_wall,
                    (ratio - 1.0) * 100.0,
                ));
            }
        }
    }
    report.overlapping("baseline")
}

// ---------------------------------------------------------------------
// LINT_sim.json (the SimLint diagnostic wall and its snapshot gate).
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

    fn count(&self, rule: &str) -> usize {
        self.diags.iter().filter(|d| d.rule == rule).count()
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
    document(device, "", &records)
}

/// Validate a `LINT_sim.json` document against schema version 1 and
/// return the parsed cells. The rule vocabulary is closed (the
/// [`LintRule::ALL`] names), and the redundant `clean` flag must agree
/// with the diags it summarizes.
pub fn validate_lint(text: &str) -> Result<Vec<LintCell>, String> {
    let doc = parse_header(text)?;
    let records = doc.arr_at("records")?;
    let mut cells = Vec::with_capacity(records.len());
    for (i, r) in records.iter().enumerate() {
        let ctx = |what: &str| format!("record {i}: {what}");
        let outcome = match r.str_at("outcome").map_err(|e| ctx(&e))? {
            "ok" => "ok",
            "failed" => "failed",
            other => return Err(ctx(&format!("bad outcome `{other}`"))),
        };
        let mut diags = Vec::new();
        for (j, d) in r.arr_at("diags").map_err(|e| ctx(&e))?.iter().enumerate() {
            let dctx = |what: &str| ctx(&format!("diag {j}: {what}"));
            let rule = d.str_at("rule").map_err(|e| dctx(&e))?;
            if !LintRule::ALL.iter().any(|r| r.as_str() == rule) {
                return Err(dctx(&format!("unknown rule `{rule}`")));
            }
            diags.push(LintDiagRecord {
                rule: rule.to_string(),
                pc_hint: d.str_at("pc_hint").map_err(|e| dctx(&e))?.to_string(),
                detail: d.str_at("detail").map_err(|e| dctx(&e))?.to_string(),
            });
        }
        let cell = LintCell {
            algorithm: r.str_at("algorithm").map_err(|e| ctx(&e))?.to_string(),
            dataset: r.str_at("dataset").map_err(|e| ctx(&e))?.to_string(),
            outcome,
            error: r.str_at("error").unwrap_or("").to_string(),
            diags,
        };
        if r.bool_at("clean").map_err(|e| ctx(&e))? != cell.is_clean() {
            return Err(ctx("`clean` disagrees with `diags`/`outcome`"));
        }
        cells.push(cell);
    }
    Ok(cells)
}

/// Compare a fresh sweep's cells against a committed `LINT_sim.json`.
///
/// A **new rule** appearing for a cell, a **per-rule count increase**,
/// or a previously-ok cell failing outright are hard failures; message
/// drift at constant counts, rules *disappearing* (an improvement —
/// refresh the snapshot), and cells with no counterpart on either side
/// are advisory.
pub fn compare_snapshot(baseline_text: &str, cells: &[LintCell]) -> Result<GateReport, String> {
    let baseline = validate_lint(baseline_text).map_err(|e| format!("baseline: {e}"))?;
    let mut report = GateReport::default();
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
        let mut counts_moved = false;
        for rule in LintRule::ALL {
            let rule = rule.as_str();
            let (now, was) = (cell.count(rule), base.count(rule));
            counts_moved |= now != was;
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
        if !counts_moved && cell.diags != base.diags {
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
    report.overlapping("snapshot")
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn render_roundtrips_through_validate() {
        let cells = vec![cell("Polak", 1.25), cell("TRUST", 3.5)];
        let text = render("V100", 3, 12.0, &cells);
        assert_eq!(validate(&text).unwrap(), 2);
    }

    #[test]
    fn backend_field_appears_only_in_mixed_documents() {
        // Pure sim: no backend key anywhere (historical shape).
        let pure = render("V100", 1, 1.0, &[cell("Polak", 1.0)]);
        assert!(!pure.contains("\"backend\""));
        // Mixed: every record is tagged, and it still validates.
        let mut c = cell("Polak", 2.0);
        c.backend = "cpu";
        let mixed = render("V100", 1, 3.0, &[cell("Polak", 1.0), c]);
        assert!(mixed.contains("\"backend\": \"sim\""));
        assert!(mixed.contains("\"backend\": \"cpu\""));
        assert_eq!(validate(&mixed).unwrap(), 2);
        // A bogus backend value is rejected.
        let bad = mixed.replace("\"backend\": \"cpu\"", "\"backend\": \"gpu\"");
        assert!(validate(&bad).unwrap_err().contains("backend"));
    }

    #[test]
    fn baseline_matching_is_backend_aware() {
        // Baseline holds a sim cell; a cpu cell with the same name must
        // not be compared against it.
        let mut c = cell("Polak", 10.0);
        c.backend = "cpu";
        c.kernel_cycles = 0;
        let err = compare_to_baseline(&baseline_text(), &[c], 0.25).unwrap_err();
        assert!(err.contains("overlaps"), "err: {err}");
    }

    #[test]
    fn empty_matrix_is_valid() {
        let text = render("V100", 1, 0.0, &[]);
        assert_eq!(validate(&text).unwrap(), 0);
    }

    #[test]
    fn missing_fields_are_rejected() {
        let bad = r#"{"schema_version": 1, "device": "V100", "reps": 1,
                      "total_wall_ms": 1.0,
                      "records": [{"algorithm": "Polak"}]}"#;
        let err = validate(bad).unwrap_err();
        assert!(err.contains("dataset"), "err: {err}");
        assert!(validate("{").is_err());
        assert!(validate(r#"{"schema_version": 2}"#).is_err());
    }

    #[test]
    fn outcome_vocabulary_is_closed() {
        let bad = r#"{"schema_version": 1, "device": "V100", "reps": 1,
                      "total_wall_ms": 1.0,
                      "records": [{"algorithm": "a", "dataset": "d",
                                   "outcome": "maybe", "wall_ms": 1.0,
                                   "kernel_cycles": 1, "verified": true}]}"#;
        assert!(validate(bad).unwrap_err().contains("bad outcome"));
    }

    #[test]
    fn escaping_survives_the_roundtrip() {
        let mut c = cell("we\"ird\\name", 0.5);
        c.dataset = "line\nbreak".to_string();
        let text = render("V100", 1, 0.5, &[c]);
        let doc = parse(&text).unwrap();
        let rec = &doc.get("records").unwrap().as_arr().unwrap()[0];
        assert_eq!(
            rec.get("algorithm").unwrap().as_str(),
            Some("we\"ird\\name")
        );
        assert_eq!(rec.get("dataset").unwrap().as_str(), Some("line\nbreak"));
    }

    fn baseline_text() -> String {
        let mut base = cell("Polak", 10.0);
        base.kernel_cycles = 1000;
        render("V100", 3, 10.0, &[base])
    }

    #[test]
    fn baseline_gate_passes_within_band_and_flags_drift() {
        let mut c = cell("Polak", 10.5);
        c.kernel_cycles = 1100; // +10%: inside the +25% band
        let report = compare_to_baseline(&baseline_text(), &[c], 0.25).unwrap();
        assert!(report.passed(), "failures: {:?}", report.failures);
        assert_eq!(report.compared, 1);
        // In-band drift of a deterministic counter is still surfaced.
        assert!(report.advisories.iter().any(|a| a.contains("within band")));
    }

    #[test]
    fn baseline_gate_fails_on_cycle_regression_beyond_band() {
        let mut c = cell("Polak", 10.0);
        c.kernel_cycles = 1300; // +30%: outside the +25% band
        let report = compare_to_baseline(&baseline_text(), &[c], 0.25).unwrap();
        assert!(!report.passed());
        assert!(report.failures[0].contains("kernel_cycles"));
    }

    #[test]
    fn baseline_gate_treats_improvements_and_wall_drift_as_advisory() {
        let mut c = cell("Polak", 30.0); // 3x the baseline wall: advisory only
        c.kernel_cycles = 500; // 2x faster: advisory only
        let report = compare_to_baseline(&baseline_text(), &[c], 0.25).unwrap();
        assert!(report.passed(), "failures: {:?}", report.failures);
        assert!(report.advisories.iter().any(|a| a.contains("wall")));
    }

    #[test]
    fn baseline_gate_fails_when_an_ok_cell_starts_failing() {
        let mut c = cell("Polak", 10.0);
        c.outcome = "failed";
        c.kernel_cycles = 0;
        let report = compare_to_baseline(&baseline_text(), &[c], 0.25).unwrap();
        assert!(!report.passed());
        assert!(report.failures[0].contains("failed"));
    }

    #[test]
    fn baseline_gate_needs_at_least_one_overlapping_cell() {
        let c = cell("TRUST", 1.0); // baseline only has Polak
        let err = compare_to_baseline(&baseline_text(), &[c], 0.25).unwrap_err();
        assert!(err.contains("overlaps"), "err: {err}");
        // ...but extra cells alongside an overlapping one are fine.
        let mut polak = cell("Polak", 10.0);
        polak.kernel_cycles = 1000;
        let report =
            compare_to_baseline(&baseline_text(), &[cell("TRUST", 1.0), polak], 0.25).unwrap();
        assert!(report.passed());
        assert_eq!(report.compared, 1);
        assert!(report.advisories.iter().any(|a| a.contains("no baseline")));
    }

    #[test]
    fn merge_min_wall_takes_per_cell_minimum() {
        use std::time::Duration;
        use tc_core::framework::runner::{RunOutcome, RunRecord};
        let mut cells = vec![cell("Polak", 5.0)];
        let rep = vec![RunRecord {
            algorithm: "Polak".to_string(),
            dataset: "tiny-rmat",
            backend: "sim",
            outcome: RunOutcome::Failed(gpu_sim::SimError::KernelFault("x".into())),
            partition: None,
            wall: Duration::from_millis(2),
        }];
        BenchCell::merge_min_wall(&mut cells, &rep);
        assert!((cells[0].wall_ms - 2.0).abs() < 1e-9);
    }
}

#[cfg(test)]
mod lint_tests {
    use super::{
        compare_snapshot, render_lint as render, validate_lint as validate, LintCell,
        LintDiagRecord,
    };

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
