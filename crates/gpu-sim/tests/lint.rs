//! SimLint seeded-bug wall: one deliberately broken kernel per lint
//! rule, each caught with the *right* rule, plus a clean twin for every
//! bug proving the thresholds do not flag idiomatic code. Also pins the
//! toggle semantics: lints are off by default, per-launch via
//! [`KernelConfig::with_lints`], per-device via [`Device::with_lints`],
//! and the barrier-divergence rule is fatal while the performance rules
//! are advisory findings on [`LaunchStats::lint`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use gpu_sim::{Device, DeviceMem, KernelConfig, LintRule, SimError};

/// A linted launch on a fresh V100 with a scratch buffer of `words`.
fn device_and_buffer(words: usize) -> (Device, DeviceMem, gpu_sim::BufId) {
    let dev = Device::v100();
    let mut mem = DeviceMem::new(&dev);
    let buf = mem.alloc_zeroed(words, "scratch").unwrap();
    (dev, mem, buf)
}

// ---------------------------------------------------------------------
// Rule 1: barrier divergence (fatal)
// ---------------------------------------------------------------------

#[test]
fn divergent_barrier_is_a_fatal_barrier_divergence() {
    let (dev, mem, _) = device_and_buffer(1);
    let cfg = KernelConfig::new(1, 32).with_lints(true);
    // The classic bug: half the block takes a branch that skips the
    // barrier the other half arrives at. On hardware the arrived lanes
    // wait forever.
    let err = dev
        .launch(&mem, cfg, |blk| {
            blk.phase(|lane| {
                if lane.tid() < 16 {
                    lane.sync_threads();
                }
            });
        })
        .unwrap_err();
    match err {
        SimError::BarrierDivergence(d) => {
            assert_eq!(d.rule, LintRule::BarrierDivergence);
            assert_eq!(d.block, Some(0));
            assert!(d.pc_hint.contains("phase 1"), "pc_hint: {}", d.pc_hint);
            assert!(
                d.detail.contains("wait at the barrier forever"),
                "detail: {}",
                d.detail
            );
            let (arrived, strayed) = d.lanes.expect("witness lanes");
            assert!(arrived < 16, "witness {arrived} must have arrived");
            assert!(strayed >= 16, "stray {strayed} must have skipped");
        }
        other => panic!("expected BarrierDivergence, got {other:?}"),
    }
}

#[test]
fn uniform_barrier_arrivals_are_clean() {
    let (dev, mem, _) = device_and_buffer(1);
    let cfg = KernelConfig::new(2, 64).with_lints(true);
    let stats = dev
        .launch(&mem, cfg, |blk| {
            blk.phase(|lane| {
                lane.compute(1);
                lane.sync_threads();
                lane.compute(1);
                lane.sync_threads();
            });
        })
        .unwrap();
    let report = stats.lint.expect("lints on => report attached");
    assert_eq!(report.count(LintRule::BarrierDivergence), 0);
    assert!(stats.counters.lint_checks > 0, "verifier must have run");
}

#[test]
fn retire_while_siblings_wait_at_a_barrier_is_divergence() {
    let (dev, mem, _) = device_and_buffer(1);
    let cfg = KernelConfig::new(1, 32).with_lints(true);
    let err = dev
        .launch(&mem, cfg, |blk| {
            blk.phase(|lane| {
                if lane.tid() == 0 {
                    // Exits the kernel while the other 31 lanes arrive
                    // at the barrier below and wait for it.
                    lane.retire();
                    return;
                }
                lane.sync_threads();
            });
        })
        .unwrap_err();
    match err {
        SimError::BarrierDivergence(d) => {
            assert!(d.detail.contains("retired"), "detail: {}", d.detail);
            assert_eq!(d.lanes.map(|(_, stray)| stray), Some(0));
        }
        other => panic!("expected BarrierDivergence, got {other:?}"),
    }
}

#[test]
fn clean_early_retire_skips_later_phases_without_divergence() {
    let (dev, mem, buf) = device_and_buffer(2);
    let cfg = KernelConfig::new(1, 32).with_lints(true);
    // Lanes 16.. retire in a phase that places no barrier after their
    // exit: legal, and the retired lanes must sit out phase 2 entirely.
    let stats = dev
        .launch(&mem, cfg, |blk| {
            blk.phase(|lane| {
                lane.atomic_add_global(buf, 0, 1);
                if lane.tid() >= 16 {
                    lane.retire();
                }
            });
            blk.phase(|lane| {
                lane.sync_threads();
                lane.atomic_add_global(buf, 1, 1);
            });
        })
        .unwrap();
    let report = stats.lint.expect("report attached");
    assert_eq!(report.count(LintRule::BarrierDivergence), 0);
    assert_eq!(mem.read_back(buf)[0], 32, "phase 1 ran every lane");
    assert_eq!(mem.read_back(buf)[1], 16, "phase 2 skipped retired lanes");
}

// ---------------------------------------------------------------------
// Rule 2: uncoalesced global access
// ---------------------------------------------------------------------

/// 16 blocks so the per-site request floor (16) is met in one phase.
const STRIDE_BLOCKS: u32 = 16;

#[test]
fn strided_loads_are_flagged_uncoalesced_at_the_access_site() {
    let (dev, mem, buf) = device_and_buffer(32 * 32);
    let cfg = KernelConfig::new(STRIDE_BLOCKS, 32).with_lints(true);
    // Stride-32 words = one 32-byte sector per lane: 32 transactions per
    // request, the textbook uncoalesced scan.
    let stats = dev
        .launch(&mem, cfg, |blk| {
            blk.phase(|lane| {
                lane.ld_global(buf, lane.tid() as usize * 32);
            });
        })
        .unwrap();
    let report = stats.lint.expect("report attached");
    assert_eq!(report.count(LintRule::UncoalescedGlobal), 1);
    let diag = report
        .diags
        .iter()
        .find(|d| d.rule == LintRule::UncoalescedGlobal)
        .unwrap();
    assert!(
        diag.pc_hint.contains("`scratch`"),
        "site must name the buffer: {}",
        diag.pc_hint
    );
    assert!(
        diag.detail.contains("32.0 transactions/request"),
        "detail: {}",
        diag.detail
    );
}

#[test]
fn coalesced_loads_are_clean() {
    let (dev, mem, buf) = device_and_buffer(32);
    let cfg = KernelConfig::new(STRIDE_BLOCKS, 32).with_lints(true);
    // Consecutive words: 4 sectors per 32-lane request, well under the
    // 8.0 transactions/request threshold.
    let stats = dev
        .launch(&mem, cfg, |blk| {
            blk.phase(|lane| {
                lane.ld_global(buf, lane.tid() as usize);
            });
        })
        .unwrap();
    let report = stats.lint.expect("report attached");
    assert_eq!(report.count(LintRule::UncoalescedGlobal), 0);
}

// ---------------------------------------------------------------------
// Rule 3: shared-memory bank conflicts
// ---------------------------------------------------------------------

#[test]
fn stride_32_shared_stencil_is_flagged_as_bank_conflict() {
    let (dev, mem, _) = device_and_buffer(1);
    let cfg = KernelConfig::new(1, 32)
        .with_shared_words(32 * 32)
        .with_lints(true);
    // Column-major access of a 32x32 shared tile: every lane lands in
    // bank 0, a 32-way serialization.
    let stats = dev
        .launch(&mem, cfg, |blk| {
            blk.phase(|lane| {
                lane.st_shared(lane.tid() as usize * 32, 1);
            });
        })
        .unwrap();
    let report = stats.lint.expect("report attached");
    assert_eq!(report.count(LintRule::BankConflict), 1);
    let diag = report
        .diags
        .iter()
        .find(|d| d.rule == LintRule::BankConflict)
        .unwrap();
    assert!(
        diag.detail.contains("32-way"),
        "histogram must show the worst way: {}",
        diag.detail
    );
    assert!(
        diag.pc_hint.contains("shared["),
        "pc_hint: {}",
        diag.pc_hint
    );
}

#[test]
fn stride_1_shared_access_is_clean() {
    let (dev, mem, _) = device_and_buffer(1);
    let cfg = KernelConfig::new(1, 32)
        .with_shared_words(32)
        .with_lints(true);
    let stats = dev
        .launch(&mem, cfg, |blk| {
            blk.phase(|lane| {
                lane.st_shared(lane.tid() as usize, 1);
            });
        })
        .unwrap();
    let report = stats.lint.expect("report attached");
    assert_eq!(report.count(LintRule::BankConflict), 0);
}

// ---------------------------------------------------------------------
// Rule 4: atomic contention
// ---------------------------------------------------------------------

#[test]
fn single_address_atomic_storm_is_flagged() {
    let (dev, mem, buf) = device_and_buffer(32);
    let cfg = KernelConfig::new(1, 32).with_lints(true);
    // All 32 lanes hammer one counter word: 32-deep serialization.
    let stats = dev
        .launch(&mem, cfg, |blk| {
            blk.phase(|lane| {
                lane.atomic_add_global(buf, 0, 1);
            });
        })
        .unwrap();
    let report = stats.lint.expect("report attached");
    assert_eq!(report.count(LintRule::AtomicContention), 1);
    let diag = report
        .diags
        .iter()
        .find(|d| d.rule == LintRule::AtomicContention)
        .unwrap();
    assert!(
        diag.pc_hint.contains("`scratch`"),
        "site must name the buffer: {}",
        diag.pc_hint
    );
    assert_eq!(mem.read_back(buf)[0], 32, "the adds still landed");
}

#[test]
fn spread_atomics_are_clean() {
    let (dev, mem, buf) = device_and_buffer(32);
    let cfg = KernelConfig::new(1, 32).with_lints(true);
    let stats = dev
        .launch(&mem, cfg, |blk| {
            blk.phase(|lane| {
                lane.atomic_add_global(buf, lane.tid() as usize, 1);
            });
        })
        .unwrap();
    let report = stats.lint.expect("report attached");
    assert_eq!(report.count(LintRule::AtomicContention), 0);
}

// ---------------------------------------------------------------------
// Rule 5: low occupancy
// ---------------------------------------------------------------------

#[test]
fn single_lane_doing_all_the_work_is_flagged_low_occupancy() {
    let (dev, mem, _) = device_and_buffer(1);
    let cfg = KernelConfig::new(1, 32).with_lints(true);
    // One lane grinds through 300 instructions while 31 siblings idle:
    // 300 issued slots, 300 active-thread slots, efficiency ~0.03.
    let stats = dev
        .launch(&mem, cfg, |blk| {
            blk.phase(|lane| {
                if lane.tid() == 0 {
                    lane.compute(300);
                }
            });
        })
        .unwrap();
    let report = stats.lint.expect("report attached");
    assert_eq!(report.count(LintRule::LowOccupancy), 1);
}

#[test]
fn balanced_compute_is_clean() {
    let (dev, mem, _) = device_and_buffer(1);
    let cfg = KernelConfig::new(1, 32).with_lints(true);
    let stats = dev
        .launch(&mem, cfg, |blk| {
            blk.phase(|lane| {
                lane.compute(300);
            });
        })
        .unwrap();
    let report = stats.lint.expect("report attached");
    assert_eq!(report.count(LintRule::LowOccupancy), 0);
}

// ---------------------------------------------------------------------
// Toggle semantics
// ---------------------------------------------------------------------

#[test]
fn lints_are_off_by_default() {
    let (dev, mem, buf) = device_and_buffer(32 * 32);
    // The strided seeded bug again, but without the toggle: no report,
    // no checks, and the divergent-barrier kernel below even *passes*
    // (the verifier is not running).
    let stats = dev
        .launch(&mem, KernelConfig::new(STRIDE_BLOCKS, 32), |blk| {
            blk.phase(|lane| {
                lane.ld_global(buf, lane.tid() as usize * 32);
            });
        })
        .unwrap();
    assert!(stats.lint.is_none());
    assert_eq!(stats.counters.lint_checks, 0);

    let divergent = dev.launch(&mem, KernelConfig::new(1, 32), |blk| {
        blk.phase(|lane| {
            if lane.tid() < 16 {
                lane.sync_threads();
            }
        });
    });
    assert!(divergent.is_ok(), "verifier off => no fatal diagnosis");
}

#[test]
fn device_level_force_lints_covers_internal_launches() {
    let dev = Device::v100().with_lints();
    let mut mem = DeviceMem::new(&dev);
    let buf = mem.alloc_zeroed(32 * 32, "scratch").unwrap();
    // Plain KernelConfig — the device flag alone must engage the pass,
    // exactly like force_race_detection / force_sanitizer.
    let stats = dev
        .launch(&mem, KernelConfig::new(STRIDE_BLOCKS, 32), |blk| {
            blk.phase(|lane| {
                lane.ld_global(buf, lane.tid() as usize * 32);
            });
        })
        .unwrap();
    let report = stats.lint.expect("force_lints => report attached");
    assert_eq!(report.count(LintRule::UncoalescedGlobal), 1);
    assert!(stats.counters.lint_checks > 0);
}

#[test]
fn perf_lints_are_advisory_and_stable_across_accumulation() {
    let (dev, mem, buf) = device_and_buffer(32);
    let cfg = KernelConfig::new(1, 32).with_lints(true);
    let kernel = |blk: &mut gpu_sim::BlockCtx<'_>| {
        blk.phase(|lane| {
            lane.atomic_add_global(buf, 0, 1);
        });
    };
    // Advisory: the launch succeeds despite the finding.
    let mut a = dev.launch(&mem, cfg, kernel).unwrap();
    let b = dev.launch(&mem, cfg, kernel).unwrap();
    assert_eq!(a.lint, b.lint, "deterministic report");
    // Accumulating two identical launches dedups identical diagnostics
    // (stable ordering is part of the report contract).
    let report_before = a.lint.clone().unwrap();
    a += b;
    assert_eq!(a.lint.unwrap(), report_before);
}

/// Blocks finish in whatever order the host workers reach them, and the
/// launch folds each block's observations as it finishes. With every
/// block's worst uncoalesced load tied at 32 sectors but on a
/// block-specific address, only the lowest-block tie-break keeps the
/// witness (and the rendered `pc_hint`) independent of that order.
#[test]
fn tied_worst_slots_name_block_zero_in_any_finish_order() {
    const BLOCKS: u32 = 256;
    const BLOCK_WORDS: usize = 1024;
    const BASE: usize = 64;
    /// Later blocks block 0 waits for: each host worker runs its blocks
    /// one at a time, so once this many kernel bodies have returned,
    /// all but (workers - 1) of those blocks have also been folded.
    const HEAD_START: usize = 64;
    let (dev, mem, buf) = device_and_buffer(BASE + BLOCKS as usize * BLOCK_WORDS);
    let dev = dev.with_lints();
    let cfg = KernelConfig::new(BLOCKS, 32);
    let others_done = AtomicUsize::new(0);
    let kernel = |blk: &mut gpu_sim::BlockCtx<'_>| {
        let b = blk.block_idx();
        if b == 0 {
            // Hold block 0 back until later blocks have been folded, so a
            // first-to-arrive fold would keep one of their witnesses. The
            // deadline covers a single-worker host, where block 0 runs
            // first and nothing else can make progress.
            let deadline = Instant::now() + Duration::from_millis(200);
            while others_done.load(Ordering::SeqCst) < HEAD_START && Instant::now() < deadline {
                std::thread::yield_now();
            }
        }
        let base = BASE + b as usize * BLOCK_WORDS;
        blk.phase(move |lane| {
            // Stride-32 words: one sector per lane, 32 per request.
            lane.ld_global(buf, base + lane.tid() as usize * 32);
        });
        if b != 0 {
            others_done.fetch_add(1, Ordering::SeqCst);
        }
    };
    let launch = || {
        others_done.store(0, Ordering::SeqCst);
        dev.launch(&mem, cfg, kernel).unwrap().lint.unwrap()
    };
    let first = launch();
    let diag = first
        .diags
        .iter()
        .find(|d| d.rule == LintRule::UncoalescedGlobal)
        .expect("uncoalesced finding");
    assert_eq!(diag.pc_hint, format!("phase 1, `scratch`[{BASE}]"));
    assert!(
        diag.detail.contains("worst slot touched 32 sectors"),
        "detail: {}",
        diag.detail
    );
    for _ in 0..4 {
        assert_eq!(launch(), first, "report must not depend on finish order");
    }
}
