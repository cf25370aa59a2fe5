//! The committed bench pin (`BENCH_sim.json`, written by
//! `tc bench_sweep Wiki-Talk --bench-json`) must stay complete: one ok,
//! verified Wiki-Talk record per registered algorithm, and nothing
//! measured. CI regenerates the document and diffs its bytes against
//! this file, so a host-time field in it could never match.

use tc_compare::algos::all_algorithms;

#[test]
fn committed_bench_baseline_is_valid_and_complete() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_sim.json");
    let text = std::fs::read_to_string(path).expect("BENCH_sim.json is committed at the repo root");
    assert!(
        !text.contains("wall_ms"),
        "BENCH_sim.json is pinned by its bytes; host wall time does not belong in it"
    );
    let records: Vec<&str> = text
        .lines()
        .filter(|l| l.trim_start().starts_with("{\"algorithm\": "))
        .collect();
    let algos = all_algorithms();
    assert_eq!(
        records.len(),
        algos.len(),
        "one baseline record per registered algorithm"
    );
    for algo in &algos {
        let needle = format!(
            "{{\"algorithm\": \"{}\", \"dataset\": \"Wiki-Talk\"",
            algo.name()
        );
        let rec = records
            .iter()
            .find(|l| l.trim_start().starts_with(&needle))
            .unwrap_or_else(|| panic!("no Wiki-Talk baseline record for {}", algo.name()));
        assert!(
            rec.contains("\"outcome\": \"ok\"") && rec.contains("\"verified\": true"),
            "{} baseline must be a verified ok run: {rec}",
            algo.name()
        );
    }
}
