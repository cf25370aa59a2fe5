//! The committed perf baseline (`BENCH_sim.json`, written by
//! `tc-bench --bin bench_sweep --bench-json`) must stay parseable and
//! complete: schema v1, one verified record per registered algorithm on
//! the baseline dataset. Future PRs regress their sweep numbers against
//! this file, so CI fails fast if it rots.

use tc_compare::algos::all_algorithms;

#[test]
fn committed_bench_baseline_is_valid_and_complete() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_sim.json");
    let text = std::fs::read_to_string(path).expect("BENCH_sim.json is committed at the repo root");
    let records = tc_bench::bench_json::validate(&text).expect("schema v1");
    let algos = all_algorithms();
    assert_eq!(
        records,
        algos.len(),
        "one baseline record per registered algorithm"
    );
    // Every algorithm appears by name with a verified ok outcome (the
    // validator already type-checked every field).
    for algo in &algos {
        let needle = format!(
            "{{\"algorithm\": \"{}\", \"dataset\": \"Wiki-Talk\"",
            algo.name()
        );
        let rec = text
            .lines()
            .find(|l| l.trim_start().starts_with(&needle))
            .unwrap_or_else(|| panic!("no Wiki-Talk baseline record for {}", algo.name()));
        assert!(
            rec.contains("\"outcome\": \"ok\"") && rec.contains("\"verified\": true"),
            "{} baseline must be a verified ok run: {rec}",
            algo.name()
        );
    }
}
