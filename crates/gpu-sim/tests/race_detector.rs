//! Barrier-semantics coverage for the phase-based data-race detector:
//! known-racy toy kernels must fail with [`SimError::DataRace`], and
//! their barrier-synchronized twins must pass with a nonzero
//! `race_checks` count proving the detector actually ran.

use gpu_sim::{Device, DeviceMem, KernelConfig, RaceKind, SimError};

/// The classic missing-barrier bug: every lane stores its tid to a
/// shared slot and immediately reads its *neighbour's* slot in the same
/// phase. The simulator's sequential lane order would happily return
/// deterministic garbage; the detector must refuse.
fn racy_neighbour_exchange(blk: &mut gpu_sim::BlockCtx<'_>) {
    blk.phase(|lane| {
        let tid = lane.tid();
        let n = lane.block_dim();
        lane.st_shared(tid as usize, tid * 10);
        // Missing __syncthreads() here.
        let neighbour = ((tid + 1) % n) as usize;
        lane.ld_shared(neighbour);
    });
}

/// The corrected twin: producers and consumers separated by a barrier
/// (phase boundary).
fn synced_neighbour_exchange(blk: &mut gpu_sim::BlockCtx<'_>) {
    blk.phase(|lane| {
        let tid = lane.tid();
        lane.st_shared(tid as usize, tid * 10);
    });
    blk.phase(|lane| {
        let tid = lane.tid();
        let n = lane.block_dim();
        let neighbour = ((tid + 1) % n) as usize;
        let v = lane.ld_shared(neighbour);
        assert_eq!(v, ((tid + 1) % n) * 10);
    });
}

#[test]
fn racy_kernel_fails_with_data_race() {
    let dev = Device::v100().with_race_detection();
    let mem = DeviceMem::new(&dev);
    let cfg = KernelConfig::new(1, 32).with_shared_words(32);
    let err = dev.launch(&mem, cfg, racy_neighbour_exchange).unwrap_err();
    match err {
        SimError::DataRace {
            kind,
            lanes,
            pc_hint,
            ..
        } => {
            assert_eq!(kind, RaceKind::SharedReadWrite);
            assert_ne!(lanes.0, lanes.1, "conflict must involve two lanes");
            assert!(pc_hint.contains("phase 1"), "bad hint: {pc_hint}");
        }
        other => panic!("expected DataRace, got {other}"),
    }
}

#[test]
fn synchronized_twin_passes_and_was_actually_checked() {
    let dev = Device::v100().with_race_detection();
    let mem = DeviceMem::new(&dev);
    let cfg = KernelConfig::new(2, 32).with_shared_words(32);
    let stats = dev.launch(&mem, cfg, synced_neighbour_exchange).unwrap();
    assert!(
        stats.counters.race_checks > 0,
        "detector must have inspected the accesses"
    );
}

#[test]
fn write_after_foreign_read_is_caught_regardless_of_lane_order() {
    // Lane 0 reads slot 5 first; lane 1 writes it later in the same
    // phase. Hardware could have ordered the write before the read, so
    // this must race even though the simulated order looks harmless.
    let dev = Device::v100().with_race_detection();
    let mem = DeviceMem::new(&dev);
    let cfg = KernelConfig::new(1, 2).with_shared_words(8);
    let err = dev
        .launch(&mem, cfg, |blk| {
            blk.phase(|lane| {
                if lane.tid() == 0 {
                    lane.ld_shared(5);
                } else {
                    lane.st_shared(5, 42);
                }
            });
        })
        .unwrap_err();
    assert!(
        matches!(
            err,
            SimError::DataRace {
                kind: RaceKind::SharedReadWrite,
                lanes: (0, 1),
                ..
            }
        ),
        "got {err}"
    );
}

#[test]
fn conflicting_shared_writes_race_but_same_value_flags_do_not() {
    let dev = Device::v100().with_race_detection();
    let mem = DeviceMem::new(&dev);
    let cfg = KernelConfig::new(1, 32).with_shared_words(4);

    // Many lanes raising the same flag: the benign idiom must pass.
    dev.launch(&mem, cfg, |blk| {
        blk.phase(|lane| {
            lane.st_shared(0, 1);
        });
    })
    .unwrap();

    // Distinct values: schedule-dependent on hardware, must fail.
    let err = dev
        .launch(&mem, cfg, |blk| {
            blk.phase(|lane| {
                let v = lane.tid();
                lane.st_shared(0, v);
            });
        })
        .unwrap_err();
    assert!(matches!(
        err,
        SimError::DataRace {
            kind: RaceKind::SharedWriteWrite,
            ..
        }
    ));
}

#[test]
fn shared_atomics_are_exempt_but_mixing_with_plain_stores_races() {
    let dev = Device::v100().with_race_detection();
    let mem = DeviceMem::new(&dev);
    let cfg = KernelConfig::new(1, 64).with_shared_words(2);

    // All lanes atomicAdd one slot: fine.
    dev.launch(&mem, cfg, |blk| {
        blk.phase(|lane| {
            lane.atomic_add_shared(0, 1);
        });
    })
    .unwrap();

    // Half the lanes atomicAdd, one lane plain-stores: race.
    let err = dev
        .launch(&mem, cfg, |blk| {
            blk.phase(|lane| {
                if lane.tid() == 7 {
                    lane.st_shared(0, 999);
                } else {
                    lane.atomic_add_shared(0, 1);
                }
            });
        })
        .unwrap_err();
    assert!(matches!(err, SimError::DataRace { .. }), "got {err}");
}

#[test]
fn plain_global_stores_race_within_a_block_but_atomics_do_not() {
    let dev = Device::v100().with_race_detection();
    let mut mem = DeviceMem::new(&dev);
    let buf = mem.alloc_zeroed(4, "accum").unwrap();
    let cfg = KernelConfig::new(1, 32);

    // atomicAdd from every lane: exempt.
    dev.launch(&mem, cfg, |blk| {
        blk.phase(|lane| {
            lane.atomic_add_global(buf, 0, 1);
        });
    })
    .unwrap();
    assert_eq!(mem.read_back(buf)[0], 32);

    // Plain stores of distinct values to one word from every lane: the
    // CUDA bug the atomics were avoiding.
    let err = dev
        .launch(&mem, cfg, |blk| {
            blk.phase(|lane| {
                let v = lane.tid() + 1;
                lane.st_global(buf, 1, v);
            });
        })
        .unwrap_err();
    match err {
        SimError::DataRace { kind, pc_hint, .. } => {
            assert_eq!(kind, RaceKind::GlobalWriteWrite);
            assert!(pc_hint.contains("`accum`[1]"), "bad hint: {pc_hint}");
        }
        other => panic!("expected DataRace, got {other}"),
    }
}

#[test]
fn detection_off_by_default_and_costs_nothing() {
    let dev = Device::v100();
    let mem = DeviceMem::new(&dev);
    // Default device: the racy kernel runs to completion (the
    // pre-detector behaviour benchmarks rely on) and no checks happen.
    let cfg = KernelConfig::new(1, 32).with_shared_words(32);
    let stats = dev.launch(&mem, cfg, racy_neighbour_exchange).unwrap();
    assert_eq!(stats.counters.race_checks, 0);
}

#[test]
fn race_error_message_is_actionable() {
    let dev = Device::v100().with_race_detection();
    let mem = DeviceMem::new(&dev);
    let cfg = KernelConfig::new(1, 4).with_shared_words(8);
    let err = dev.launch(&mem, cfg, racy_neighbour_exchange).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("data race"), "{msg}");
    assert!(msg.contains("shared word"), "{msg}");
    assert!(msg.contains("phase 1"), "{msg}");
}
