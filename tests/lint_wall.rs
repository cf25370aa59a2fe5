//! SimLint's findings, pinned on the tier-1 path.
//!
//! The diagnostic wall (`LINT_sim.json`, written by `tc lint_sweep`) must
//! be reproduced byte for byte, and every advisory rule — including the
//! ones no registry kernel trips on the conformance corpus — must keep
//! its exact `pc_hint` and detail text.

use tc_compare::sim::{Device, DeviceMem, KernelConfig, LintRule};

#[test]
fn lint_sweep_reproduces_the_committed_wall() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/LINT_sim.json");
    let committed =
        std::fs::read_to_string(path).expect("LINT_sim.json is committed at the repo root");
    let text = tc_bench::bench_json::render_lint("V100", &tc_bench::lint_wall());
    for (i, (got, want)) in text.lines().zip(committed.lines()).enumerate() {
        assert_eq!(got, want, "LINT_sim.json line {} differs", i + 1);
    }
    assert_eq!(text, committed, "LINT_sim.json differs in length");
}

/// One two-block launch whose six phases each trip one advisory rule:
/// scattered loads, scattered stores, a global atomic hot spot, a shared
/// atomic hot spot, a 32-way bank conflict and a one-lane compute tail.
/// Both blocks tie on every worst slot, so each witness site is block
/// 0's.
#[test]
fn every_advisory_rule_keeps_its_exact_text() {
    const SCATTER: usize = 16;
    let dev = Device::v100().with_lints();
    let mut mem = DeviceMem::new(&dev);
    // Lane `g` of scatter step `k` touches word `8 + 8g + 512k`: one
    // 32-byte sector per lane, so every request moves 32 sectors.
    let words = 8 + 512 * SCATTER;
    let g = mem.alloc_zeroed(words, "g").unwrap();
    let out = mem.alloc_zeroed(words, "out").unwrap();
    let hits = mem.alloc_zeroed(4, "hits").unwrap();
    let cfg = KernelConfig::new(2, 32).with_shared_words(32 * 32 + 4);
    let scattered = |gt: usize, k: usize| 8 + 8 * gt + 512 * k;
    let stats = dev
        .launch(&mem, cfg, |blk| {
            blk.phase(|lane| {
                let gt = lane.global_tid() as usize;
                for k in 0..SCATTER {
                    lane.ld_global(g, scattered(gt, k));
                }
            });
            blk.phase(|lane| {
                let gt = lane.global_tid() as usize;
                for k in 0..SCATTER {
                    lane.st_global(out, scattered(gt, k), k as u32);
                }
            });
            blk.phase(|lane| {
                lane.atomic_add_global(hits, 2, 1);
            });
            blk.phase(|lane| {
                lane.atomic_add_shared(3, 1);
            });
            blk.phase(|lane| {
                let t = lane.tid() as usize;
                lane.ld_shared(32 * t + 1);
                lane.ld_shared(t);
            });
            blk.phase(|lane| {
                if lane.tid() == 0 {
                    lane.compute(300);
                }
            });
        })
        .unwrap();
    let report = stats.lint.expect("the device runs lints");
    let got: Vec<(LintRule, &str, &str)> = report
        .diags
        .iter()
        .map(|d| (d.rule, d.pc_hint.as_str(), d.detail.as_str()))
        .collect();
    assert_eq!(
        got,
        [
            (
                LintRule::UncoalescedGlobal,
                "phase 1, `g`[8]",
                "global loads average 32.0 transactions/request over 32 requests \
                 (worst slot touched 32 sectors)"
            ),
            (
                LintRule::UncoalescedGlobal,
                "phase 2, `out`[8]",
                "global stores average 32.0 transactions/request over 32 requests \
                 (worst slot touched 32 sectors)"
            ),
            (
                LintRule::BankConflict,
                "phase 5, shared[1]",
                "shared-memory slots serialize up to 32-way across banks; \
                 conflict-way histogram: 1-way x2, 32-way x2"
            ),
            (
                LintRule::AtomicContention,
                "phase 3, `hits`[2]",
                "global atomics serialize up to 32-deep on a single address (2 requests)"
            ),
            (
                LintRule::AtomicContention,
                "phase 4, shared[3]",
                "shared atomics serialize up to 32-deep on a single address (2 requests)"
            ),
            (
                LintRule::LowOccupancy,
                "phase 6",
                "warp execution efficiency 0.03 (600 active thread-slots over 600 issued slots)"
            ),
        ]
    );
    assert!(report
        .diags
        .iter()
        .all(|d| d.block.is_none() && d.lanes.is_none()));
}
