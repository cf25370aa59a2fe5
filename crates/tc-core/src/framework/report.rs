//! Report formatting: ASCII tables and per-figure series extraction from
//! a run matrix. The `tc` report commands (crate `tc-bench`) print
//! exactly the rows/series the paper's tables and figures report.

use std::collections::BTreeMap;

use crate::framework::runner::{RunOutcome, RunRecord};

/// V100 boost clock, used only to render modelled cycles as a familiar
/// "milliseconds" scale.
pub const V100_CLOCK_GHZ: f64 = 1.38;

/// Render modelled device cycles as milliseconds at the V100 clock.
pub fn cycles_to_ms(cycles: u64) -> f64 {
    cycles as f64 / (V100_CLOCK_GHZ * 1e6)
}

/// Human-readable count with K/M/B suffix (Table II style).
pub fn human_count(n: u64) -> String {
    match n {
        0..=999 => n.to_string(),
        1_000..=999_999 => format!("{:.1}K", n as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}M", n as f64 / 1e6),
        _ => format!("{:.1}B", n as f64 / 1e9),
    }
}

/// Minimal fixed-width ASCII table builder.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| -> String {
            let mut s = String::new();
            for i in 0..cols {
                if i > 0 {
                    s.push_str("  ");
                }
                // Left-align the first column, right-align the rest.
                if i == 0 {
                    s.push_str(&format!("{:<width$}", cells[i], width = widths[i]));
                } else {
                    s.push_str(&format!("{:>width$}", cells[i], width = widths[i]));
                }
            }
            s
        };
        let mut out = line(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row));
            out.push('\n');
        }
        out
    }
}

/// A run matrix reorganized for figure emission: values addressable by
/// (algorithm, dataset).
pub struct MatrixView {
    cells: BTreeMap<(String, &'static str), RunOutcome>,
    pub algorithms: Vec<String>,
    pub datasets: Vec<&'static str>,
}

impl MatrixView {
    pub fn new(records: &[RunRecord]) -> Self {
        let mut cells = BTreeMap::new();
        let mut algorithms = Vec::new();
        let mut datasets = Vec::new();
        for r in records {
            if !algorithms.contains(&r.algorithm) {
                algorithms.push(r.algorithm.clone());
            }
            if !datasets.contains(&r.dataset) {
                datasets.push(r.dataset);
            }
            cells.insert((r.algorithm.clone(), r.dataset), r.outcome.clone());
        }
        MatrixView {
            cells,
            algorithms,
            datasets,
        }
    }

    pub fn outcome(&self, algo: &str, dataset: &str) -> Option<&RunOutcome> {
        self.cells
            .iter()
            .find(|((a, d), _)| a == algo && *d == dataset)
            .map(|(_, o)| o)
    }

    /// A numeric cell via an extractor; `None` for failed cells (the
    /// figure's red crosses).
    pub fn value<F: Fn(&RunOutcome) -> Option<f64>>(
        &self,
        algo: &str,
        dataset: &str,
        f: F,
    ) -> Option<f64> {
        self.outcome(algo, dataset).and_then(f)
    }

    /// Render one figure: rows = algorithms, columns = datasets, with a
    /// per-cell extractor; failed cells print as `x` (the red crosses).
    pub fn render_figure<F>(&self, title: &str, extract: F) -> String
    where
        F: Fn(&RunOutcome) -> Option<f64>,
    {
        let mut header = vec!["algorithm"];
        header.extend(self.datasets.iter().copied());
        let mut t = Table::new(&header);
        for algo in &self.algorithms {
            let mut row = vec![algo.clone()];
            for ds in &self.datasets {
                let cell = match self.outcome(algo, ds) {
                    Some(o) => match extract(o) {
                        Some(v) => format_sig(v),
                        None => "x".to_string(),
                    },
                    None => "-".to_string(),
                };
                row.push(cell);
            }
            t.row(row);
        }
        format!("{title}\n{}", t.render())
    }
}

/// Compact significant-figure formatting for figure cells.
pub fn format_sig(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Summarize the measured host wall time of a sweep: total simulation
/// time plus the slowest cells (the ones worth parallelizing over). The
/// numbers are measured, not modelled — they vary run to run and are for
/// operator feedback, not for figures.
pub fn wall_summary(records: &[RunRecord], slowest: usize) -> String {
    let total: f64 = records.iter().map(|r| r.wall.as_secs_f64()).sum();
    let mut by_wall: Vec<&RunRecord> = records.iter().collect();
    by_wall.sort_by_key(|r| std::cmp::Reverse(r.wall));
    let mut out = format!(
        "host wall time: {:.2}s across {} cells",
        total,
        records.len()
    );
    for r in by_wall.iter().take(slowest) {
        out.push_str(&format!(
            "\n  {:>8.1} ms  {} / {}",
            r.wall.as_secs_f64() * 1e3,
            r.algorithm,
            r.dataset
        ));
    }
    out
}

/// Extractors for the standard figures.
pub mod extract {
    use super::RunOutcome;

    /// Figure 11/15: modelled kernel time in ms.
    pub fn time_ms(o: &RunOutcome) -> Option<f64> {
        match o {
            RunOutcome::Ok { kernel_cycles, .. } => Some(super::cycles_to_ms(*kernel_cycles)),
            RunOutcome::Failed(_) => None,
        }
    }

    /// Figure 12: global load requests.
    pub fn load_requests(o: &RunOutcome) -> Option<f64> {
        match o {
            RunOutcome::Ok { counters, .. } => Some(counters.global_load_requests as f64),
            RunOutcome::Failed(_) => None,
        }
    }

    /// Figure 13(a): warp execution efficiency (%).
    pub fn warp_efficiency(o: &RunOutcome) -> Option<f64> {
        match o {
            RunOutcome::Ok { counters, .. } => Some(counters.warp_execution_efficiency() * 100.0),
            RunOutcome::Failed(_) => None,
        }
    }

    /// Figure 13(b): global-load transactions per request.
    pub fn tpr(o: &RunOutcome) -> Option<f64> {
        match o {
            RunOutcome::Ok { counters, .. } => Some(counters.gld_transactions_per_request()),
            RunOutcome::Failed(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::ProfileCounters;

    fn ok_record(algo: &str, dataset: &'static str, cycles: u64) -> RunRecord {
        RunRecord {
            algorithm: algo.to_string(),
            dataset,
            outcome: RunOutcome::Ok {
                triangles: 1,
                kernel_cycles: cycles,
                counters: ProfileCounters::default(),
                verified: true,
            },
            wall: std::time::Duration::from_millis(cycles),
        }
    }

    #[test]
    fn human_counts() {
        assert_eq!(human_count(999), "999");
        assert_eq!(human_count(43_000), "43.0K");
        assert_eq!(human_count(2_400_000), "2.4M");
        assert_eq!(human_count(1_800_000_000), "1.8B");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "12345".into()]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].starts_with("long-name"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn table_rejects_malformed_rows() {
        Table::new(&["a", "b"]).row(vec!["only-one".into()]);
    }

    #[test]
    fn matrix_view_organizes_and_renders() {
        let records = vec![
            ok_record("Polak", "ds1", 1000),
            ok_record("TRUST", "ds1", 500),
            RunRecord {
                algorithm: "H-INDEX".into(),
                dataset: "ds1",
                outcome: RunOutcome::Failed(gpu_sim::SimError::KernelFault("boom".into())),
                wall: std::time::Duration::ZERO,
            },
        ];
        let view = MatrixView::new(&records);
        assert_eq!(view.algorithms, vec!["Polak", "TRUST", "H-INDEX"]);
        assert_eq!(view.datasets, vec!["ds1"]);
        let fig = view.render_figure("Figure 11", extract::time_ms);
        assert!(fig.contains("Figure 11"));
        assert!(fig.contains('x'), "failed cell renders as a red cross");
        let polak = view.value("Polak", "ds1", extract::time_ms).unwrap();
        let trust = view.value("TRUST", "ds1", extract::time_ms).unwrap();
        assert!(polak > trust);
    }

    #[test]
    fn wall_summary_totals_and_ranks() {
        let records = vec![
            ok_record("Polak", "ds1", 1000),
            ok_record("TRUST", "ds1", 3000),
        ];
        let s = wall_summary(&records, 1);
        assert!(s.contains("4.00s across 2 cells"), "summary: {s}");
        // Only the slowest cell is listed.
        assert!(s.contains("TRUST"));
        assert!(!s.contains("Polak"));
    }

    #[test]
    fn format_sig_ranges() {
        assert_eq!(format_sig(0.0), "0");
        assert_eq!(format_sig(12345.0), "12345");
        assert_eq!(format_sig(56.78), "56.8");
        assert_eq!(format_sig(1.2345), "1.234");
    }
}
