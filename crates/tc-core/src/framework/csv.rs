//! CSV emission of a run matrix — one row per (algorithm, dataset) cell
//! with all profiling counters, so the figures can be re-plotted with
//! external tooling.

use std::io::{self, Write};

use crate::framework::report::cycles_to_ms;
use crate::framework::runner::{RunOutcome, RunRecord};

/// The one column list. `$backend` splices the `backend` column in after
/// `dataset` and `$timed` appends `host_wall_ms`; a macro, so that every
/// header stays a `&str` constant.
macro_rules! header {
    ($($backend:literal)?; $($timed:literal)?) => {
        concat!(
            "algorithm,dataset,",
            $($backend,)?
            "status,triangles,verified,kernel_cycles,time_ms,global_load_requests,\
             gld_transactions,gld_transactions_per_request,dram_load_sectors,\
             global_store_requests,global_atomic_requests,warp_execution_efficiency,\
             shared_requests,issued_slots",
            $($timed)?
        )
    };
}

/// Column header of [`write_records`].
pub const CSV_HEADER: &str = header!(;);
/// Header of [`write_records_timed`]: [`CSV_HEADER`] plus the measured
/// host wall-clock column.
pub const CSV_TIMED_HEADER: &str = header!(; ",host_wall_ms");
/// [`CSV_HEADER`] with the `backend` column, emitted only when a record
/// set mixes backends (see [`is_multi_backend`]).
pub const CSV_BACKEND_HEADER: &str = header!("backend,";);
/// [`CSV_TIMED_HEADER`] with the `backend` column.
pub const CSV_BACKEND_TIMED_HEADER: &str = header!("backend,"; ",host_wall_ms");

/// Whether a record set needs the `backend` column: any non-`"sim"`
/// cell. Pure sim sweeps — everything written before backends existed —
/// keep their exact historical shape, byte for byte.
pub fn is_multi_backend(records: &[RunRecord]) -> bool {
    records.iter().any(|r| r.backend != "sim")
}

/// Write the matrix as CSV. Failed cells carry the error in `status` and
/// empty numeric fields. Only modelled quantities are emitted, so the
/// output is byte-identical between serial and parallel sweeps of the
/// same inputs.
pub fn write_records<W: Write>(w: W, records: &[RunRecord]) -> io::Result<()> {
    write_rows(w, records, false)
}

/// Like [`write_records`], with a trailing `host_wall_ms` column holding
/// the measured per-cell simulation wall time. This variant is NOT
/// deterministic across runs — use it for throughput reporting, and
/// [`write_records`] for comparable artifacts.
pub fn write_records_timed<W: Write>(w: W, records: &[RunRecord]) -> io::Result<()> {
    write_rows(w, records, true)
}

/// The one row writer: the header, then one row per record, with the
/// `backend` column when the set mixes backends and `host_wall_ms` when
/// `timed`. The modelled part of a row is the same either way.
fn write_rows<W: Write>(mut w: W, records: &[RunRecord], timed: bool) -> io::Result<()> {
    let backend = is_multi_backend(records);
    let header = match (backend, timed) {
        (false, false) => CSV_HEADER,
        (false, true) => CSV_TIMED_HEADER,
        (true, false) => CSV_BACKEND_HEADER,
        (true, true) => CSV_BACKEND_TIMED_HEADER,
    };
    writeln!(w, "{header}")?;
    for r in records {
        write!(w, "{},{},", r.algorithm, r.dataset)?;
        if backend {
            write!(w, "{},", r.backend)?;
        }
        match &r.outcome {
            RunOutcome::Ok {
                triangles,
                kernel_cycles,
                counters: c,
                verified,
            } => write!(
                w,
                "ok,{},{},{},{:.6},{},{},{:.4},{},{},{},{:.4},{},{}",
                triangles,
                verified,
                kernel_cycles,
                cycles_to_ms(*kernel_cycles),
                c.global_load_requests,
                c.gld_transactions,
                c.gld_transactions_per_request(),
                c.dram_load_sectors,
                c.global_store_requests,
                c.global_atomic_requests,
                c.warp_execution_efficiency(),
                c.shared_load_requests + c.shared_store_requests + c.shared_atomic_requests,
                c.issued_slots,
            )?,
            // Errors may contain commas; quote the field.
            RunOutcome::Failed(e) => write!(
                w,
                "\"failed: {}\",,,,,,,,,,,,,",
                e.to_string().replace('"', "'"),
            )?,
        }
        if timed {
            write!(w, ",{:.3}", r.wall.as_secs_f64() * 1e3)?;
        }
        writeln!(w)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::ProfileCounters;

    fn records() -> Vec<RunRecord> {
        vec![
            RunRecord {
                algorithm: "Polak".into(),
                dataset: "ds",
                backend: "sim",
                outcome: RunOutcome::Ok {
                    triangles: 42,
                    kernel_cycles: 1380,
                    counters: ProfileCounters {
                        global_load_requests: 10,
                        gld_transactions: 25,
                        issued_slots: 12,
                        active_thread_slots: 384,
                        ..Default::default()
                    },
                    verified: true,
                },
                wall: std::time::Duration::from_millis(12),
            },
            RunRecord {
                algorithm: "H-INDEX".into(),
                dataset: "ds",
                backend: "sim",
                outcome: RunOutcome::Failed(gpu_sim::SimError::KernelFault(
                    "overflow, with comma".into(),
                )),
                wall: std::time::Duration::from_millis(3),
            },
        ]
    }

    #[test]
    fn csv_shape_and_content() {
        let mut out = Vec::new();
        write_records(&mut out, &records()).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], CSV_HEADER);
        let ok_cells: Vec<&str> = lines[1].split(',').collect();
        assert_eq!(ok_cells[0], "Polak");
        assert_eq!(ok_cells[2], "ok");
        assert_eq!(ok_cells[3], "42");
        assert_eq!(ok_cells[9], "2.5000"); // tpr
        assert!(lines[2].contains("\"failed:"));
        // Header column count matches data column count.
        assert_eq!(lines[0].split(',').count(), ok_cells.len());
    }

    #[test]
    fn failed_rows_have_full_column_count() {
        let mut out = Vec::new();
        write_records(&mut out, &records()).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // The quoted status field contains a comma, so count raw commas:
        // 15 separators + 1 inside the quoted error message.
        assert_eq!(lines[2].matches(',').count(), 16);
    }

    #[test]
    fn timed_csv_appends_wall_column() {
        let mut out = Vec::new();
        write_records_timed(&mut out, &records()).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], CSV_TIMED_HEADER);
        assert!(lines[0].ends_with(",host_wall_ms"));
        assert!(lines[1].ends_with(",12.000"), "line: {}", lines[1]);
        assert!(lines[2].ends_with(",3.000"), "line: {}", lines[2]);
        // The modelled prefix is byte-identical to the deterministic CSV.
        let mut plain = Vec::new();
        write_records(&mut plain, &records()).unwrap();
        let plain = String::from_utf8(plain).unwrap();
        for (timed, plain) in lines[1..].iter().zip(plain.lines().skip(1)) {
            assert!(timed.starts_with(plain));
        }
    }

    #[test]
    fn mixed_backends_gain_the_backend_column() {
        let mut recs = records();
        recs[0].backend = "cpu";
        let mut out = Vec::new();
        write_records(&mut out, &recs).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], CSV_BACKEND_HEADER);
        assert!(
            lines[1].starts_with("Polak,ds,cpu,ok,"),
            "line: {}",
            lines[1]
        );
        assert!(
            lines[2].starts_with("H-INDEX,ds,sim,"),
            "line: {}",
            lines[2]
        );
        assert_eq!(
            lines[0].split(',').count(),
            lines[1].split(',').count(),
            "header arity matches rows"
        );
        let mut timed = Vec::new();
        write_records_timed(&mut timed, &recs).unwrap();
        let timed = String::from_utf8(timed).unwrap();
        assert!(timed.starts_with(CSV_BACKEND_TIMED_HEADER));
        assert!(timed.contains("Polak,ds,cpu,ok,"));
    }

    #[test]
    fn pure_sim_sweeps_stay_byte_identical() {
        // The legacy single-backend shape, pinned: no backend column, no
        // reordering — artifacts written before backends existed diff
        // clean against artifacts written now.
        let mut out = Vec::new();
        write_records(&mut out, &records()).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text.lines().next().unwrap(),
            "algorithm,dataset,status,triangles,verified,kernel_cycles,time_ms,\
global_load_requests,gld_transactions,gld_transactions_per_request,dram_load_sectors,\
global_store_requests,global_atomic_requests,warp_execution_efficiency,shared_requests,\
issued_slots"
        );
        assert!(
            text.contains("Polak,ds,ok,42,true,1380,0.001000,10,25,2.5000,0,0,0,1.0000,0,12"),
            "csv: {text}"
        );
        assert!(!text.contains("backend"));
    }

    #[test]
    fn time_ms_matches_clock() {
        let mut out = Vec::new();
        write_records(&mut out, &records()).unwrap();
        let text = String::from_utf8(out).unwrap();
        // 1380 cycles at 1.38 GHz = exactly 1 microsecond = 0.001 ms.
        assert!(text.contains("0.001000"));
    }
}
