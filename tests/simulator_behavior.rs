//! Integration tests of the simulator's modelled hardware effects as
//! observed *through* the public API — the behaviours the paper's
//! profiling analysis depends on.

use tc_compare::sim::{
    BlockCtx, BufId, Device, DeviceMem, KernelConfig, LaneCtx, ProfileCounters, RaceKind, SimError,
};

#[test]
fn coalesced_loads_beat_scattered_loads() {
    let dev = Device::v100();
    let mut mem = DeviceMem::new(&dev);
    let data = mem.alloc_zeroed(32 * 1024, "data").unwrap();

    // Coalesced: lane i reads word i.
    let coalesced = dev
        .launch(&mem, KernelConfig::new(1, 32), |blk| {
            blk.phase(|lane| {
                let i = lane.tid() as usize;
                lane.ld_global(data, i);
            });
        })
        .unwrap();
    // Scattered: lane i reads word i * 1024.
    let scattered = dev
        .launch(&mem, KernelConfig::new(1, 32), |blk| {
            blk.phase(|lane| {
                let i = lane.tid() as usize;
                lane.ld_global(data, i * 1024);
            });
        })
        .unwrap();

    assert_eq!(coalesced.counters.global_load_requests, 1);
    assert_eq!(scattered.counters.global_load_requests, 1);
    assert!(
        scattered.counters.gld_transactions > 4 * coalesced.counters.gld_transactions,
        "scattered {} vs coalesced {}",
        scattered.counters.gld_transactions,
        coalesced.counters.gld_transactions
    );
    assert!(scattered.total_block_cycles > coalesced.total_block_cycles);
}

/// Launches `kernel` on blocks of at most one warp and checks that the
/// launch's block cycles are its counters priced once. With one warp per
/// block a phase costs its one warp, so the sum over blocks and phases
/// is linear in the summed counters: the identity is exact, and it fails
/// if the replay counts a slot that the price misses.
fn priced_once<F>(dev: &Device, mem: &DeviceMem, cfg: KernelConfig, kernel: F) -> ProfileCounters
where
    F: Fn(&mut BlockCtx<'_>) + Sync,
{
    assert!(cfg.block_dim <= 32, "one warp per block");
    let stats = dev.launch(mem, cfg, kernel).unwrap();
    assert_eq!(stats.total_block_cycles, dev.cost.cycles(&stats.counters));
    stats.counters
}

#[test]
fn one_warp_blocks_cost_exactly_their_priced_counters() {
    let dev = Device::v100();
    let mut mem = DeviceMem::new(&dev);
    let words: Vec<u32> = (0..32 * 1024).collect();
    let data = mem.alloc_from_slice(&words, "data").unwrap();
    let hot = mem.alloc_zeroed(1, "hot").unwrap();

    // A divergent merge: each of 20 lanes merges two sorted runs whose
    // lengths depend on the lane, re-joining after every step.
    let c = priced_once(&dev, &mem, KernelConfig::new(3, 20), |blk| {
        blk.phase(|lane| {
            let base = lane.tid() as usize * 512;
            let (n, m) = (1 + lane.tid() as usize % 7, 3 + lane.tid() as usize % 5);
            let (mut i, mut j) = (0, 0);
            while i < n && j < m {
                let (a, b) = (
                    lane.ld_global(data, base + i),
                    lane.ld_global(data, base + 256 + j),
                );
                lane.compute(2);
                if a <= b {
                    i += 1;
                } else {
                    j += 1;
                }
                lane.converge();
            }
        });
    });
    assert!(c.warp_execution_efficiency() < 1.0, "{c:?}");

    // Scattered loads, one sector per lane (a stride of 9 sectors keeps
    // the 32 sectors apart in each warp's L1 slice): the first load of a
    // sector misses, re-reads hit, and a slot where odd lanes move on to
    // a fresh sector mixes hits and misses.
    let c = priced_once(&dev, &mem, KernelConfig::new(2, 32), |blk| {
        blk.phase(|lane| {
            let base = lane.tid() as usize * 72;
            for k in 0..4 {
                lane.ld_global(data, base + k);
            }
            lane.ld_global(data, base + 8 * (lane.tid() as usize % 2));
        });
    });
    assert!(c.global_load_miss_requests > 0, "{c:?}");
    assert!(
        c.global_load_miss_requests < c.global_load_requests,
        "{c:?}"
    );
    assert!(c.dram_load_sectors < c.gld_transactions, "{c:?}");

    // A 32-way bank conflict on a store and, a barrier later, on a load.
    let cfg = KernelConfig::new(2, 32).with_shared_words(32 * 32);
    let c = priced_once(&dev, &mem, cfg, |blk| {
        blk.phase(|lane| lane.st_shared(lane.tid() as usize * 32, lane.tid()));
        blk.phase(|lane| {
            lane.ld_shared(lane.tid() as usize * 32);
        });
    });
    assert_eq!(c.shared_bank_conflicts, 2 * 2 * 31);

    // Colliding atomics: every lane hits one global word, and groups of
    // eight lanes hit one of four shared words.
    let cfg = KernelConfig::new(2, 32).with_shared_words(4);
    let c = priced_once(&dev, &mem, cfg, |blk| {
        blk.phase(|lane| {
            lane.atomic_add_global(hot, 0, 1);
            lane.atomic_add_shared(lane.tid() as usize % 4, 1);
        });
    });
    assert_eq!(c.global_atomic_collisions, 2 * 31);
    assert_eq!(c.shared_atomic_collisions, 2 * 7);
}

#[test]
fn imbalanced_lanes_depress_warp_efficiency() {
    let dev = Device::v100();
    let mem = DeviceMem::new(&dev);

    let balanced = dev
        .launch(&mem, KernelConfig::new(1, 32), |blk| {
            blk.phase(|lane| lane.compute(100));
        })
        .unwrap();
    let imbalanced = dev
        .launch(&mem, KernelConfig::new(1, 32), |blk| {
            blk.phase(|lane| {
                // Lane i does i*8 work: classic power-law style skew.
                let n = lane.tid() * 8;
                lane.compute(n.max(1));
            });
        })
        .unwrap();

    assert!(balanced.counters.warp_execution_efficiency() > 0.99);
    let eff = imbalanced.counters.warp_execution_efficiency();
    assert!(eff < 0.7, "skewed lanes should stall the warp (eff {eff})");
}

#[test]
fn sequential_scan_hits_the_l1_model() {
    let dev = Device::v100();
    let mut mem = DeviceMem::new(&dev);
    let data = mem.alloc_zeroed(4096, "data").unwrap();

    // One lane scanning 1024 consecutive words: 128 sectors of DRAM
    // traffic (and 128 wavefronts), not 1024.
    let scan = dev
        .launch(&mem, KernelConfig::new(1, 1), |blk| {
            blk.phase(|lane| {
                for i in 0..1024 {
                    lane.ld_global(data, i);
                }
            });
        })
        .unwrap();
    assert_eq!(scan.counters.global_load_requests, 1024);
    assert_eq!(
        scan.counters.gld_transactions, 1024,
        "one wavefront per request"
    );
    assert_eq!(
        scan.counters.dram_load_sectors, 128,
        "7 of 8 words hit the L1 model"
    );
}

#[test]
fn bandwidth_floor_binds_massively_parallel_traffic() {
    let dev = Device::v100();
    let mut mem = DeviceMem::new(&dev);
    let data = mem.alloc_zeroed(1 << 20, "data").unwrap();

    // 4096 blocks x 256 lanes, each loading one scattered word: traffic
    // = ~1M sectors; compute makespan is tiny but DRAM can only deliver
    // ~20 sectors/cycle.
    let stats = dev
        .launch(&mem, KernelConfig::new(4096, 256), |blk| {
            let b = blk.block_idx();
            blk.phase(|lane| {
                let idx = ((lane.global_tid() * 2654435761 + b as u64) % (1 << 20)) as usize;
                lane.ld_global(data, idx);
            });
        })
        .unwrap();
    let sectors = stats.counters.gld_transactions;
    assert!(
        stats.kernel_cycles >= sectors / 20,
        "kernel {} cycles cannot beat the {}-sector DRAM floor",
        stats.kernel_cycles,
        sectors
    );
}

#[test]
fn atomics_serialize_on_hot_addresses() {
    let dev = Device::v100();
    let mut mem = DeviceMem::new(&dev);
    let hot = mem.alloc_zeroed(32, "hot").unwrap();

    let contended = dev
        .launch(&mem, KernelConfig::new(1, 32), |blk| {
            blk.phase(|lane| {
                lane.atomic_add_global(hot, 0, 1);
            });
        })
        .unwrap();
    let spread = dev
        .launch(&mem, KernelConfig::new(1, 32), |blk| {
            blk.phase(|lane| {
                lane.atomic_add_global(hot, lane.tid() as usize, 1);
            });
        })
        .unwrap();
    assert_eq!(mem.read_back(hot)[0], 32 + 1);
    assert!(contended.total_block_cycles > spread.total_block_cycles);
}

#[test]
fn shared_memory_values_cross_phases() {
    let dev = Device::v100();
    let mut mem = DeviceMem::new(&dev);
    let out = mem.alloc_zeroed(64, "out").unwrap();
    let cfg = KernelConfig::new(1, 64).with_shared_words(64);
    dev.launch(&mem, cfg, |blk| {
        blk.phase(|lane| {
            let t = lane.tid();
            lane.st_shared(t as usize, t * t);
        });
        blk.phase(|lane| {
            // Read a *different* lane's value: only legal across the
            // barrier.
            let t = lane.tid() as usize;
            let peer = (t + 13) % 64;
            let v = lane.ld_shared(peer);
            lane.st_global(out, t, v);
        });
    })
    .unwrap();
    let vals = mem.read_back(out);
    for (t, v) in vals.iter().enumerate().take(64) {
        let peer = ((t + 13) % 64) as u32;
        assert_eq!(*v, peer * peer);
    }
}

#[test]
fn occupancy_affects_kernel_time() {
    let dev = Device::v100();
    let mem = DeviceMem::new(&dev);
    // Same per-block work; the 48 KB-shared variant fits 1 block/SM
    // instead of many, so 800 blocks take more waves.
    let work = |blk: &mut tc_compare::sim::BlockCtx| {
        blk.phase(|lane| lane.compute(1000));
    };
    let dense = dev.launch(&mem, KernelConfig::new(800, 64), work).unwrap();
    let starved = dev
        .launch(
            &mem,
            KernelConfig::new(800, 64).with_shared_words(48 * 1024 / 4),
            work,
        )
        .unwrap();
    assert!(starved.kernel_cycles > 2 * dense.kernel_cycles);
}

/// A lane-side out-of-bounds shared access faults like a global one: the
/// block is poisoned and the launch returns `MemoryFault` on `"shared"`,
/// on the plain device and under every analysis.
#[test]
fn out_of_bounds_shared_access_is_a_memory_fault() {
    let checked = Device::v100()
        .with_race_detection()
        .with_sanitizer()
        .with_lints();
    type Access = fn(&mut LaneCtx<'_, '_>, usize);
    let accesses: [(&str, Access); 3] = [
        ("load", |lane, idx| {
            lane.ld_shared(idx);
        }),
        ("store", |lane, idx| lane.st_shared(idx, 1)),
        ("atomic", |lane, idx| {
            lane.atomic_add_shared(idx, 1);
        }),
    ];
    for dev in [Device::v100(), checked] {
        let mem = DeviceMem::new(&dev);
        for (what, access) in accesses {
            let cfg = KernelConfig::new(1, 32).with_shared_words(8);
            let err = dev
                .launch(&mem, cfg, |blk| {
                    blk.phase(|lane| access(lane, 8 + lane.tid() as usize));
                })
                .expect_err(what);
            assert_eq!(
                err,
                SimError::MemoryFault {
                    buffer: "shared".to_string(),
                    index: 8,
                    len: 8
                },
                "{what}"
            );
        }
    }
}

/// Every atomic returns the previous word, applies its own operation and
/// issues exactly one atomic request in its address space, identically
/// with and without race detection and SimSan.
#[test]
fn each_atomic_returns_the_old_word_and_applies_its_operation() {
    type Atomic = fn(&mut LaneCtx<'_, '_>, BufId, u32) -> u32;
    const INIT: u32 = 0b1100;
    const OPERAND: u32 = 0b1010;
    let table: [(&str, bool, Atomic, u32); 6] = [
        (
            "add_global",
            false,
            |l, b, v| l.atomic_add_global(b, 0, v),
            INIT + OPERAND,
        ),
        (
            "or_global",
            false,
            |l, b, v| l.atomic_or_global(b, 0, v),
            INIT | OPERAND,
        ),
        (
            "and_global",
            false,
            |l, b, v| l.atomic_and_global(b, 0, v),
            INIT & OPERAND,
        ),
        (
            "add_shared",
            true,
            |l, _, v| l.atomic_add_shared(0, v),
            INIT + OPERAND,
        ),
        (
            "or_shared",
            true,
            |l, _, v| l.atomic_or_shared(0, v),
            INIT | OPERAND,
        ),
        (
            "and_shared",
            true,
            |l, _, v| l.atomic_and_shared(0, v),
            INIT & OPERAND,
        ),
    ];
    let checked = Device::v100().with_race_detection().with_sanitizer();
    for (name, shared, atomic, expected) in table {
        let run = |dev: &Device| {
            let mut mem = DeviceMem::new(dev);
            let word = mem.alloc_from_slice(&[INIT], "word").unwrap();
            // out[0]: the returned old word; out[1]: the word afterwards.
            let out = mem.alloc_zeroed(2, "out").unwrap();
            let cfg = KernelConfig::new(1, 1).with_shared_words(1);
            let stats = dev
                .launch(&mem, cfg, |blk| {
                    blk.phase(|lane| lane.st_shared(0, INIT));
                    blk.phase(|lane| {
                        let old = atomic(lane, word, OPERAND);
                        lane.st_global(out, 0, old);
                    });
                    blk.phase(|lane| {
                        let after = if shared {
                            lane.ld_shared(0)
                        } else {
                            lane.ld_global(word, 0)
                        };
                        lane.st_global(out, 1, after);
                    });
                })
                .unwrap();
            (mem.read_back(out), stats)
        };
        let (plain_out, plain) = run(&Device::v100());
        assert_eq!(plain_out, vec![INIT, expected], "{name}");
        let c = &plain.counters;
        let requests = (c.global_atomic_requests, c.shared_atomic_requests);
        assert_eq!(requests, if shared { (0, 1) } else { (1, 0) }, "{name}");

        let (checked_out, mut checked) = run(&checked);
        assert_eq!(checked_out, plain_out, "{name}");
        let c = &mut checked.counters;
        assert!(c.race_checks > 0 && c.sanitizer_checks > 0, "{name}");
        (c.race_checks, c.sanitizer_checks) = (0, 0);
        assert_eq!(checked, plain, "{name}");
    }
}

/// Exact check counts, and the three record-side analyses' independence.
/// One race-free, SimSan-clean kernel touches every hook — global and
/// shared loads, stores and atomics, a silent shared store,
/// `add_global_untraced`, `sync_threads` and `retire` — over three
/// phases, and runs under all eight combinations of race detection,
/// SimSan and SimLint. Results, cycles and every other counter must not
/// move; each check counter must equal its hand count when its analysis
/// is on and be 0 when it is off.
#[test]
fn check_counts_are_exact_and_analyses_are_independent() {
    const GRID: u32 = 2;
    const BD: u32 = 64;
    let input: Vec<u32> = (0..GRID * BD).map(|i| i * 7 + 3).collect();
    let run = |race: bool, san: bool, lint: bool| {
        let mut dev = Device::v100();
        if race {
            dev = dev.with_race_detection();
        }
        if san {
            dev = dev.with_sanitizer();
        }
        if lint {
            dev = dev.with_lints();
        }
        let mut mem = DeviceMem::new(&dev);
        let g = mem.alloc_from_slice(&input, "g").unwrap();
        let out = mem.alloc_zeroed(input.len(), "out").unwrap();
        let hits = mem.alloc_zeroed(1, "hits").unwrap();
        let sum = mem.alloc_zeroed(1, "sum").unwrap();
        let bd = BD as usize;
        let cfg = KernelConfig::new(GRID, BD).with_shared_words(BD + 1);
        let stats = dev
            .launch(&mem, cfg, |blk| {
                blk.phase(|lane| {
                    let (t, gt) = (lane.tid() as usize, lane.global_tid() as usize);
                    let v = lane.ld_global(g, gt);
                    lane.st_shared(t, v);
                    // Every lane stores the zero-filled word's own value:
                    // a silent store, so no write/write race.
                    lane.st_shared(bd, 0);
                    lane.sync_threads();
                    lane.st_global(out, gt, v + 1);
                    lane.atomic_add_global(hits, 0, 1);
                    lane.add_global_untraced(sum, 0, v);
                });
                blk.phase(|lane| {
                    let t = lane.tid() as usize;
                    let peer = lane.ld_shared((t + 1) % bd);
                    lane.atomic_add_shared(bd, peer & 1);
                    lane.sync_threads();
                    if t % 2 == 1 {
                        lane.retire();
                    }
                });
                blk.phase(|lane| {
                    // Odd lanes retired in phase 2 and skip this phase.
                    let gt = lane.global_tid() as usize;
                    let x = lane.ld_global(out, gt);
                    lane.sync_threads();
                    lane.st_global(out, gt, 2 * x);
                });
            })
            .unwrap();
        (
            stats,
            mem.read_back(out),
            mem.read_back(hits),
            mem.read_back(sum),
        )
    };

    // Per block: phase 1 has 64 lanes x (ld_global, st_shared x2,
    // st_global) plain accesses plus one global atomic and one untraced
    // add each; phase 2 has 64 x (ld_shared, shared atomic); phase 3 has
    // 32 x (ld_global, st_global). Global atomics are SimSan-only.
    let race_checks = GRID as u64 * (64 * 4 + 64 * 2 + 32 * 2);
    let sanitizer_checks = race_checks + GRID as u64 * 64 * 2;
    // SimLint: 64 + 64 + 32 barrier arrivals, 3 phase ends plus the
    // kernel-end barrier, and one replay observation per memory slot of
    // each of the 2 warps (5 in phase 1, 2 each in phases 2 and 3).
    let lint_checks = GRID as u64 * ((64 + 64 + 32) + (3 + 1) + 2 * (5 + 2 + 2));

    let (base, out, hits, sum) = run(false, false, false);
    let expected_out: Vec<u32> = input
        .iter()
        .enumerate()
        .map(|(i, v)| if i % 2 == 0 { 2 * (v + 1) } else { v + 1 })
        .collect();
    assert_eq!(out, expected_out);
    assert_eq!(hits, vec![GRID * BD]);
    assert_eq!(sum, vec![input.iter().sum::<u32>()]);
    for mask in 0..8u32 {
        let (race, san, lint) = (mask & 1 != 0, mask & 2 != 0, mask & 4 != 0);
        let (stats, o, h, s) = run(race, san, lint);
        let what = format!("race={race} san={san} lint={lint}");
        assert_eq!((&o, &h, &s), (&out, &hits, &sum), "{what}");
        assert_eq!(stats.kernel_cycles, base.kernel_cycles, "{what}");
        assert_eq!(stats.total_block_cycles, base.total_block_cycles, "{what}");
        assert_eq!(stats.lint.is_some(), lint, "{what}");
        let c = stats.counters;
        assert_eq!(c.race_checks, if race { race_checks } else { 0 }, "{what}");
        assert_eq!(
            c.sanitizer_checks,
            if san { sanitizer_checks } else { 0 },
            "{what}"
        );
        assert_eq!(c.lint_checks, if lint { lint_checks } else { 0 }, "{what}");
        let unchecked = ProfileCounters {
            race_checks: 0,
            sanitizer_checks: 0,
            lint_checks: 0,
            ..c
        };
        assert_eq!(unchecked, base.counters, "{what}");
    }
}

/// A global-memory race through the lane path. 256 lanes of one block
/// each plain-read 64 distinct words in phase 1 (16,384 words, so the
/// detector's global table grows several times mid-phase), then lane
/// 200 stores a new value to the first word lane 3 read. In the same
/// phase that is a read/write race naming both lanes and the word;
/// after a barrier it is clean.
#[test]
fn global_race_through_the_lane_path() {
    const BD: u32 = 256;
    const READS: usize = 64;
    let dev = Device::v100().with_race_detection();
    let run = |store_phase: u32| {
        let mut mem = DeviceMem::new(&dev);
        let input: Vec<u32> = (0..BD * READS as u32).collect();
        let data = mem.alloc_from_slice(&input, "data").unwrap();
        let cfg = KernelConfig::new(1, BD);
        let result = dev.launch(&mem, cfg, |blk| {
            for phase in 1..=2 {
                blk.phase(|lane| {
                    let t = lane.tid() as usize;
                    if phase == 1 {
                        for j in 0..READS {
                            lane.ld_global(data, t * READS + j);
                        }
                    }
                    if phase == store_phase && t == 200 {
                        lane.st_global(data, 3 * READS, u32::MAX);
                    }
                });
            }
        });
        (result, mem.read_back(data)[3 * READS])
    };

    let (racy, _) = run(1);
    assert_eq!(
        racy.expect_err("same-phase store"),
        SimError::DataRace {
            addr: 4 * 3 * READS as u64,
            kind: RaceKind::GlobalReadWrite,
            lanes: (3, 200),
            pc_hint: "phase 1, `data`[192]".to_string(),
        }
    );

    let (clean, stored) = run(2);
    let c = clean.expect("store after the barrier").counters;
    assert_eq!(c.race_checks, BD as u64 * READS as u64 + 1);
    assert_eq!(stored, u32::MAX);
}
