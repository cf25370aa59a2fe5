//! SimSan negative-test suite: five deliberately buggy kernels, each
//! caught with the correct [`SanitizerKind`], each paired with a clean
//! twin proving the diagnostic does not fire on the correct version of
//! the same access pattern.

use gpu_sim::{Device, DeviceMem, KernelConfig, SanitizerKind, SimError};

fn sanitized() -> Device {
    Device::v100().with_sanitizer()
}

fn expect_kind(err: SimError, want: SanitizerKind) -> (String, usize, Option<u32>) {
    match err {
        SimError::Sanitizer {
            kind,
            buffer,
            word,
            lane,
            ..
        } => {
            assert_eq!(kind, want, "wrong sanitizer kind");
            (buffer, word, lane)
        }
        other => panic!("expected Sanitizer({want}), got {other}"),
    }
}

// --- 1. uninit read (global) ---------------------------------------------

#[test]
fn reading_an_uninit_global_word_is_caught() {
    let dev = sanitized();
    let mut mem = DeviceMem::new(&dev);
    let buf = mem.alloc_uninit(64, "scratch").unwrap();
    let sink = mem.alloc_zeroed(64, "sink").unwrap();
    let err = dev
        .launch(&mem, KernelConfig::new(1, 32), |blk| {
            blk.phase(|lane| {
                // Bug: consumes `scratch` before anything defined it.
                let v = lane.ld_global(buf, lane.tid() as usize);
                lane.st_global(sink, lane.tid() as usize, v);
            });
        })
        .unwrap_err();
    let (buffer, word, lane) = expect_kind(err, SanitizerKind::UninitRead);
    assert_eq!(buffer, "scratch");
    assert_eq!(word, 0);
    assert_eq!(lane, Some(0));
}

#[test]
fn clean_twin_writes_before_reading_uninit_memory() {
    let dev = sanitized();
    let mut mem = DeviceMem::new(&dev);
    let buf = mem.alloc_uninit(64, "scratch").unwrap();
    let sink = mem.alloc_zeroed(64, "sink").unwrap();
    let stats = dev
        .launch(&mem, KernelConfig::new(1, 32), |blk| {
            blk.phase(|lane| {
                lane.st_global(buf, lane.tid() as usize, lane.tid());
            });
            blk.phase(|lane| {
                let v = lane.ld_global(buf, lane.tid() as usize);
                lane.st_global(sink, lane.tid() as usize, v);
            });
        })
        .unwrap();
    assert!(stats.counters.sanitizer_checks > 0);
    assert_eq!(stats.counters.sanitizer_reports, 0);
    assert_eq!(mem.read_back(sink)[5], 5);
}

// --- 2. use-after-free through a reused extent ---------------------------

#[test]
fn dangling_read_after_extent_reuse_is_caught() {
    let dev = sanitized();
    let mut mem = DeviceMem::new(&dev);
    let stale = mem.alloc_from_slice(&[7; 64], "old").unwrap();
    mem.free(stale).unwrap();
    // Same-size allocation lands on the freed extent: without the
    // sanitizer, the stale handle would silently read `new`'s bytes.
    let fresh = mem.alloc_from_slice(&[9; 64], "new").unwrap();
    assert_eq!(mem.read_back(fresh)[0], 9);
    let err = dev
        .launch(&mem, KernelConfig::new(1, 32), |blk| {
            blk.phase(|lane| {
                lane.ld_global(stale, lane.tid() as usize);
            });
        })
        .unwrap_err();
    let (buffer, _, lane) = expect_kind(err, SanitizerKind::UseAfterFree);
    assert_eq!(buffer, "old (freed)");
    assert_eq!(lane, Some(0));
}

#[test]
fn clean_twin_uses_the_live_handle_for_the_reused_extent() {
    let dev = sanitized();
    let mut mem = DeviceMem::new(&dev);
    let stale = mem.alloc_from_slice(&[7; 64], "old").unwrap();
    mem.free(stale).unwrap();
    let fresh = mem.alloc_from_slice(&[9; 64], "new").unwrap();
    let sink = mem.alloc_zeroed(1, "sink").unwrap();
    let stats = dev
        .launch(&mem, KernelConfig::new(1, 32), |blk| {
            blk.phase(|lane| {
                let v = lane.ld_global(fresh, lane.tid() as usize);
                lane.atomic_add_global(sink, 0, v);
            });
        })
        .unwrap();
    assert_eq!(stats.counters.sanitizer_reports, 0);
    assert_eq!(mem.read_back(sink)[0], 32 * 9);
}

// --- 3. redzone / padding probe ------------------------------------------

#[test]
fn off_by_one_into_alignment_padding_is_caught_as_redzone() {
    let dev = sanitized();
    let mut mem = DeviceMem::new(&dev);
    // 60 words pad to a 64-word extent: words 60..64 are redzone.
    let buf = mem.alloc_zeroed(60, "counts").unwrap();
    let err = dev
        .launch(&mem, KernelConfig::new(1, 32), |blk| {
            blk.phase(|lane| {
                if lane.tid() == 0 {
                    // The classic off-by-one: index == len.
                    lane.st_global(buf, 60, 1);
                }
            });
        })
        .unwrap_err();
    let (buffer, word, lane) = expect_kind(err, SanitizerKind::Redzone);
    assert_eq!(buffer, "counts");
    assert_eq!(word, 60);
    assert_eq!(lane, Some(0));
}

#[test]
fn clean_twin_stays_inside_the_buffer_and_far_oob_is_a_memory_fault() {
    let dev = sanitized();
    let mut mem = DeviceMem::new(&dev);
    let buf = mem.alloc_zeroed(60, "counts").unwrap();
    let stats = dev
        .launch(&mem, KernelConfig::new(1, 32), |blk| {
            blk.phase(|lane| {
                lane.st_global(buf, 59, 1);
            });
        })
        .unwrap();
    assert_eq!(stats.counters.sanitizer_reports, 0);
    // Past the padding is a wild access, not a redzone hit: the plain
    // bounds check owns the diagnostic even with the sanitizer on.
    let err = dev
        .launch(&mem, KernelConfig::new(1, 32), |blk| {
            blk.phase(|lane| {
                lane.ld_global(buf, 10_000 + lane.tid() as usize);
            });
        })
        .unwrap_err();
    assert!(matches!(err, SimError::MemoryFault { .. }), "got {err}");
}

// --- 4. double-free -------------------------------------------------------

#[test]
fn double_free_is_caught_and_single_free_is_not() {
    let dev = sanitized();
    let mut mem = DeviceMem::new(&dev);
    let buf = mem.alloc_zeroed(16, "tmp").unwrap();
    mem.free(buf).unwrap(); // clean twin: the first free succeeds
    let err = mem.free(buf).unwrap_err();
    let (buffer, _, lane) = expect_kind(err, SanitizerKind::DoubleFree);
    assert_eq!(buffer, "tmp (freed)");
    assert_eq!(lane, None);
}

// --- 5. dangling copy-back ------------------------------------------------

#[test]
fn copy_back_through_a_freed_handle_is_caught() {
    let dev = sanitized();
    let mut mem = DeviceMem::new(&dev);
    let result = mem.alloc_from_slice(&[41, 42], "result").unwrap();
    mem.free(result).unwrap();
    // Reuse the extent so the dangling copy-back would otherwise observe
    // unrelated live data.
    let _other = mem.alloc_from_slice(&[1, 2], "other").unwrap();
    let err = mem.try_read_back(result).unwrap_err();
    let (buffer, _, lane) = expect_kind(err, SanitizerKind::UseAfterFree);
    assert_eq!(buffer, "result (freed)");
    assert_eq!(lane, None);
}

#[test]
fn clean_twin_copies_back_before_freeing() {
    let dev = sanitized();
    let mut mem = DeviceMem::new(&dev);
    let result = mem.alloc_from_slice(&[41, 42], "result").unwrap();
    assert_eq!(mem.try_read_back(result).unwrap(), vec![41, 42]);
    mem.free(result).unwrap();
    assert!(mem.leak_check().is_ok());
}

// --- shared memory: uninit reads CUDA would see as garbage ----------------

#[test]
fn reading_unwritten_shared_memory_is_caught() {
    let dev = sanitized();
    let mut mem = DeviceMem::new(&dev);
    let sink = mem.alloc_zeroed(32, "sink").unwrap();
    let err = dev
        .launch(
            &mem,
            KernelConfig::new(1, 32).with_shared_words(64),
            |blk| {
                blk.phase(|lane| {
                    // Bug: the simulator zero-fills shared memory, real
                    // hardware does not — this read is garbage on a GPU.
                    let v = lane.ld_shared(lane.tid() as usize);
                    lane.st_global(sink, lane.tid() as usize, v);
                });
            },
        )
        .unwrap_err();
    let (buffer, word, lane) = expect_kind(err, SanitizerKind::UninitRead);
    assert_eq!(buffer, "shared");
    assert_eq!(word, 0);
    assert_eq!(lane, Some(0));
}

#[test]
fn clean_twin_initializes_shared_before_the_barrier() {
    let dev = sanitized();
    let mut mem = DeviceMem::new(&dev);
    let sink = mem.alloc_zeroed(32, "sink").unwrap();
    let stats = dev
        .launch(
            &mem,
            KernelConfig::new(1, 32).with_shared_words(64),
            |blk| {
                blk.phase(|lane| {
                    lane.st_shared(lane.tid() as usize, lane.tid() + 1);
                });
                blk.phase(|lane| {
                    let v = lane.ld_shared(lane.tid() as usize);
                    lane.st_global(sink, lane.tid() as usize, v);
                });
            },
        )
        .unwrap();
    assert!(stats.counters.sanitizer_checks > 0);
    assert_eq!(stats.counters.sanitizer_reports, 0);
    assert_eq!(mem.read_back(sink)[31], 32);
}

// --- toggles and counters -------------------------------------------------

#[test]
fn sanitizer_is_off_by_default_and_toggles_per_device() {
    let dev = Device::v100();
    let mut mem = DeviceMem::new(&dev);
    let buf = mem.alloc_uninit(32, "raw").unwrap();
    // Off: the uninit read sails through (deterministic garbage).
    let stats = dev
        .launch(&mem, KernelConfig::new(1, 32), |blk| {
            blk.phase(|lane| {
                lane.ld_global(buf, lane.tid() as usize);
            });
        })
        .unwrap();
    assert_eq!(stats.counters.sanitizer_checks, 0);
    // On (a sanitized device over the same memory): the same kernel is
    // refused.
    let err = dev
        .clone()
        .with_sanitizer()
        .launch(&mem, KernelConfig::new(1, 32), |blk| {
            blk.phase(|lane| {
                lane.ld_global(buf, lane.tid() as usize);
            });
        })
        .unwrap_err();
    expect_kind(err, SanitizerKind::UninitRead);
}

#[test]
fn reports_poison_only_the_faulting_block() {
    let dev = sanitized();
    let mut mem = DeviceMem::new(&dev);
    let raw = mem.alloc_uninit(4, "raw").unwrap();
    let counts = mem.alloc_zeroed(4, "counts").unwrap();
    // Block 2 trips the sanitizer; the healthy blocks' work must land,
    // exactly like the MemoryFault / DataRace poisoning contract.
    let err = dev
        .launch(&mem, KernelConfig::new(4, 32), |blk| {
            let b = blk.block_idx() as usize;
            blk.phase(move |lane| {
                if lane.tid() == 0 {
                    if lane.block_idx() == 2 {
                        lane.ld_global(raw, 0);
                        lane.atomic_add_global(counts, b, 1); // dropped
                    } else {
                        lane.atomic_add_global(counts, b, 1);
                    }
                }
            });
        })
        .unwrap_err();
    expect_kind(err, SanitizerKind::UninitRead);
    assert_eq!(mem.read_back(counts), vec![1, 1, 0, 1]);
}
