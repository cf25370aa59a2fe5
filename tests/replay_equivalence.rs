//! Cross-engine equivalence: every registered algorithm, replayed on the
//! pinned conformance graphs, must produce **byte-identical**
//! `LaunchStats` to the pinned table in `replay_equivalence/pins.rs`.
//!
//! The pins were captured from the pre-arena, one-`Op`-per-instruction
//! execution engine and survived the streaming rewrite (run-length-encoded
//! compute runs, per-worker `BlockScratch` arenas, small-array sector and
//! bank passes) unchanged — that equivalence is exactly what this test
//! locks. Any drift means the replay rules or the memory system changed;
//! re-pin deliberately with `cargo run --release -p tc-bench -- pins`
//! at the repo root, which rewrites every committed pin (`tests/pins.rs`
//! checks that the pins file is exactly what it writes).

use tc_compare::algos::TcOutput;
use tc_compare::sim::{Device, ProfileCounters};

/// One pinned launch: the exact modelled outcome of `algorithm` on
/// `case`.
pub struct Pin {
    pub algorithm: &'static str,
    pub case: &'static str,
    pub triangles: u64,
    pub kernel_cycles: u64,
    pub total_block_cycles: u64,
    pub blocks: u64,
    pub counters: ProfileCounters,
}

include!("replay_equivalence/pins.rs");

/// Run every pinned cell on `dev` (the pin tool's own cell loop) and
/// hand each outcome, with its pin and a context string, to `check`.
/// Asserts every pin was exercised, in pin order.
fn for_each_pinned_cell(dev: &Device, mut check: impl FnMut(&Pin, &TcOutput, &str)) {
    let mut checked = 0;
    for (algorithm, case, out) in tc_bench::pinned_cells(dev) {
        let ctx = format!("{algorithm} on {case}");
        let out = out.unwrap_or_else(|e| panic!("{ctx} failed: {e}"));
        let pin = PINS
            .get(checked)
            .filter(|p| p.algorithm == algorithm && p.case == case)
            .unwrap_or_else(|| panic!("pin {checked} is not {ctx}"));
        check(pin, &out, &ctx);
        checked += 1;
    }
    // Every pin was exercised: 10 algorithms x 3 graphs.
    assert_eq!(checked, PINS.len());
    assert_eq!(checked, 30);
}

/// The pinned fields other than the counters.
fn assert_pinned_outcome(pin: &Pin, out: &TcOutput, ctx: &str) {
    assert_eq!(out.triangles, pin.triangles, "triangles drifted: {ctx}");
    assert_eq!(
        out.stats.kernel_cycles, pin.kernel_cycles,
        "kernel_cycles drifted: {ctx}"
    );
    assert_eq!(
        out.stats.total_block_cycles, pin.total_block_cycles,
        "total_block_cycles drifted: {ctx}"
    );
    assert_eq!(out.stats.blocks, pin.blocks, "blocks drifted: {ctx}");
}

#[test]
fn every_algorithm_replays_bit_identically_to_the_pinned_engine() {
    for_each_pinned_cell(&Device::v100(), |pin, out, ctx| {
        assert_pinned_outcome(pin, out, ctx);
        assert_eq!(out.stats.counters, pin.counters, "counters drifted: {ctx}");
    });
}

/// The same cells with the race detector, SimSan and SimLint all on:
/// every analysis only observes, so the modelled outcome must equal the
/// plain pin once the analyses' own check counters are masked out, and
/// each analysis must have actually run.
#[test]
fn every_algorithm_replays_bit_identically_under_every_check() {
    let dev = Device::v100()
        .with_race_detection()
        .with_sanitizer()
        .with_lints();
    for_each_pinned_cell(&dev, |pin, out, ctx| {
        assert_pinned_outcome(pin, out, ctx);
        let c = &out.stats.counters;
        assert!(c.race_checks > 0, "race detector did not run: {ctx}");
        assert!(c.sanitizer_checks > 0, "SimSan did not run: {ctx}");
        assert!(c.lint_checks > 0, "SimLint did not run: {ctx}");
        assert!(out.stats.lint.is_some(), "no LintReport attached: {ctx}");
        let masked = ProfileCounters {
            race_checks: 0,
            sanitizer_checks: 0,
            lint_checks: 0,
            ..*c
        };
        assert_eq!(masked, pin.counters, "counters drifted: {ctx}");
    });
}
