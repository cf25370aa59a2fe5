use std::sync::Mutex;

use crate::counters::{LaunchStats, ProfileCounters};
use crate::exec::{run_block, BlockCtx, BlockScratch, KernelConfig};
use crate::lint::{build_report, LintObserver};
use crate::mem::DeviceMem;
use crate::schedule::schedule_blocks;
use crate::{CostModel, SimError};

use rayon::prelude::*;

/// The analyses a device runs on every launch. All are off by default,
/// so benchmark launches pay ~zero cost (one predictable branch per
/// access). A device-wide switch also covers the launches that
/// algorithms configure internally, which is how the conformance suite,
/// the lint pin and the test fixtures run every kernel checked. None of
/// them perturbs results: counters and cycles are byte-identical with
/// any set of checks on or off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checks {
    /// The phase-based data-race detector (see `gpu_sim::race`).
    pub race: bool,
    /// SimSan (see `gpu_sim::sanitize`): shadow tracking for
    /// uninit-read, use-after-free and redzone accesses.
    pub san: bool,
    /// SimLint (see `gpu_sim::lint`): the barrier-divergence verifier
    /// plus the performance lints that watch the replay stream.
    pub lint: bool,
}

/// The simulated GPU: its static geometry, cost model and analyses.
/// Cheap to construct; owns no memory (see [`DeviceMem`]).
#[derive(Debug, Clone)]
pub struct Device {
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Maximum resident threads per SM (occupancy limit).
    pub max_threads_per_sm: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Shared memory per block, in 4-byte words.
    pub shared_mem_words: u32,
    /// L1 data cache per SM, in 32-byte sectors (V100: 128 KB).
    pub l1_sectors_per_sm: u32,
    /// Global memory capacity, in 4-byte words.
    pub global_mem_words: u64,
    /// The analyses every launch on this device runs under.
    pub checks: Checks,
    pub cost: CostModel,
}

impl Device {
    /// A Tesla V100 scaled for simulation, the paper's platform: the
    /// card has 80 SMs, 48 KB shared memory per block and 16 GB of HBM2.
    /// We keep the SM and shared-memory geometry exact and scale global
    /// memory down by the same ~256x factor as the datasets (Table II
    /// stand-ins), so the algorithms that exhaust a real V100 on the
    /// largest graphs exhaust the simulated one on the largest stand-ins.
    pub fn v100() -> Self {
        Device {
            num_sms: 80,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            shared_mem_words: 48 * 1024 / 4,
            l1_sectors_per_sm: 128 * 1024 / 32,
            global_mem_words: 16 * 1024 * 1024, // 64 MiB => 16 GB / 256
            checks: Checks::default(),
            cost: CostModel::v100(),
        }
    }

    /// A device with custom global-memory capacity (for tests).
    pub fn with_memory_words(words: u64) -> Self {
        Device {
            global_mem_words: words,
            ..Device::v100()
        }
    }

    /// Run the data-race detector on every launch on this device.
    pub fn with_race_detection(mut self) -> Self {
        self.checks.race = true;
        self
    }

    /// Run SimSan on every launch on this device.
    pub fn with_sanitizer(mut self) -> Self {
        self.checks.san = true;
        self
    }

    /// Run SimLint on every launch on this device.
    pub fn with_lints(mut self) -> Self {
        self.checks.lint = true;
        self
    }

    /// How many blocks of the given configuration can be resident on one
    /// SM at a time (the CUDA occupancy calculation, simplified to the
    /// thread, block and shared-memory limits).
    pub fn resident_blocks_per_sm(&self, cfg: &KernelConfig) -> u32 {
        let by_threads = self.max_threads_per_sm / cfg.block_dim.max(1);
        let by_shared = self
            .shared_mem_words
            .checked_div(cfg.shared_words)
            .unwrap_or(self.max_blocks_per_sm);
        by_threads.min(by_shared).min(self.max_blocks_per_sm).max(1)
    }

    /// Launch a kernel: run `cfg.grid_dim` independent blocks (in parallel
    /// on the host), then wave-schedule their cycle counts across the SMs
    /// to produce the modelled kernel time.
    ///
    /// The kernel closure is invoked once per block with a fresh
    /// [`BlockCtx`]; it structures the block's work into barrier-separated
    /// phases via [`BlockCtx::phase`].
    pub fn launch<F>(
        &self,
        mem: &DeviceMem,
        cfg: KernelConfig,
        kernel: F,
    ) -> Result<LaunchStats, SimError>
    where
        F: Fn(&mut BlockCtx<'_>) + Sync,
    {
        if cfg.block_dim == 0 || cfg.grid_dim == 0 {
            return Err(SimError::InvalidLaunch(format!(
                "grid {} x block {} must be non-zero",
                cfg.grid_dim, cfg.block_dim
            )));
        }
        if cfg.block_dim > 1024 {
            return Err(SimError::InvalidLaunch(format!(
                "block dim {} exceeds the 1024-thread limit",
                cfg.block_dim
            )));
        }
        if cfg.shared_words > self.shared_mem_words {
            return Err(SimError::SharedMemoryExceeded {
                requested_words: cfg.shared_words,
                available_words: self.shared_mem_words,
            });
        }

        // Each block runs independently; each rayon worker carries one
        // BlockScratch arena across every block it simulates, so the
        // steady-state replay loop allocates nothing. Under SimLint each
        // block folds its observations into `lint_acc` as it finishes;
        // the fold is order-independent (commutative sums, lowest-block
        // witness on ties), so the report is deterministic regardless of
        // rayon scheduling and only one accumulator outlives its block.
        let lint_acc = self
            .checks
            .lint
            .then(|| Mutex::new(LintObserver::default()));
        let per_block = (0..cfg.grid_dim)
            .into_par_iter()
            .map_init(
                || BlockScratch::new(self.checks),
                |scratch, block_idx| {
                    run_block(
                        self,
                        mem,
                        &cfg,
                        block_idx,
                        &kernel,
                        scratch,
                        lint_acc.as_ref(),
                    )
                },
            )
            .collect::<Result<Vec<(u64, ProfileCounters)>, SimError>>()?;

        let mut counters = ProfileCounters::default();
        let mut cycles = Vec::with_capacity(per_block.len());
        for (c, pc) in per_block {
            cycles.push(c);
            counters += pc;
        }
        let lint = lint_acc.map(|acc| {
            let obs = acc
                .into_inner()
                .expect("a block panicked while folding SimLint observations");
            build_report(&obs, mem)
        });

        let parallel_slots = (self.num_sms * self.resident_blocks_per_sm(&cfg)) as usize;
        let compute_cycles = schedule_blocks(&cycles, parallel_slots);
        let kernel_cycles = compute_cycles.max(self.cost.dram_floor_cycles(&counters));
        Ok(LaunchStats {
            kernel_cycles,
            total_block_cycles: cycles.iter().sum(),
            blocks: cfg.grid_dim as u64,
            counters,
            lint,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_limited_by_threads() {
        let dev = Device::v100();
        let cfg = KernelConfig::new(1, 1024);
        assert_eq!(dev.resident_blocks_per_sm(&cfg), 2);
    }

    #[test]
    fn occupancy_limited_by_block_cap() {
        let dev = Device::v100();
        let cfg = KernelConfig::new(1, 32);
        assert_eq!(dev.resident_blocks_per_sm(&cfg), 32);
    }

    #[test]
    fn occupancy_limited_by_shared_memory() {
        let dev = Device::v100();
        // Whole 48 KB per block => 1 resident block.
        let cfg = KernelConfig::new(1, 64).with_shared_words(48 * 1024 / 4);
        assert_eq!(dev.resident_blocks_per_sm(&cfg), 1);
    }

    #[test]
    fn lane_oob_access_fails_launch_without_panicking() {
        let dev = Device::v100();
        let mut mem = DeviceMem::new(&dev);
        let buf = mem.alloc_zeroed(8, "small").unwrap();
        // Every lane reads past the end: the launch must return a
        // structured MemoryFault naming the buffer, not abort.
        let err = dev
            .launch(&mem, KernelConfig::new(2, 32), |blk| {
                blk.phase(|lane| {
                    lane.ld_global(buf, 8 + lane.tid() as usize);
                });
            })
            .unwrap_err();
        match err {
            SimError::MemoryFault { buffer, index, len } => {
                assert_eq!(buffer, "small");
                assert_eq!(len, 8);
                assert!(index >= 8);
            }
            other => panic!("expected MemoryFault, got {other:?}"),
        }
    }

    #[test]
    fn faulted_block_poisons_only_itself() {
        let dev = Device::v100();
        let mut mem = DeviceMem::new(&dev);
        let buf = mem.alloc_zeroed(4, "counts").unwrap();
        // Block 3 faults; the others each add 1 to their own counter
        // before the launch reports the fault. The healthy blocks' work
        // must still have landed (blocks are independent, like CUDA).
        let err = dev
            .launch(&mem, KernelConfig::new(4, 32), |blk| {
                let b = blk.block_idx() as usize;
                blk.phase(move |lane| {
                    if lane.tid() == 0 {
                        if lane.block_idx() == 3 {
                            lane.ld_global(buf, 999);
                            // Poisoned: these must all be dropped.
                            lane.st_global(buf, 0, 77);
                            lane.atomic_add_global(buf, 1, 77);
                        } else {
                            lane.atomic_add_global(buf, b, 1);
                        }
                    }
                });
            })
            .unwrap_err();
        assert!(matches!(err, SimError::MemoryFault { .. }));
        assert_eq!(mem.read_back(buf), vec![1, 1, 1, 0]);
    }

    #[test]
    fn scattered_atomics_hit_the_bandwidth_floor_by_sectors() {
        // 2048 blocks fit in one V100 wave (80 SMs x 32 resident), so
        // compute_cycles is one block's worth while atomic DRAM traffic
        // scales with the grid — the bandwidth floor binds.
        let dev = Device::v100();
        let mut mem = DeviceMem::new(&dev);
        let grid = 2048u32;
        let buf = mem.alloc_zeroed(grid as usize * 32 * 8, "targets").unwrap();
        // Scattered: every lane atomics its own 32-byte sector.
        let scattered = dev
            .launch(&mem, KernelConfig::new(grid, 32), |blk| {
                blk.phase(|lane| {
                    let idx = lane.global_tid() as usize * 8;
                    lane.atomic_add_global(buf, idx, 1);
                });
            })
            .unwrap();
        // Same-sector: all 32 lanes of a block hammer one word.
        let same = dev
            .launch(&mem, KernelConfig::new(grid, 32), |blk| {
                blk.phase(|lane| {
                    let idx = lane.block_idx() as usize * 8;
                    lane.atomic_add_global(buf, idx, 1);
                });
            })
            .unwrap();
        // One warp-slot each way, but 32x the DRAM sector traffic when
        // scattered. Counting *requests* in the floor (the old bug) saw
        // both launches as identical traffic.
        assert_eq!(scattered.counters.global_atomic_requests, grid as u64);
        assert_eq!(same.counters.global_atomic_requests, grid as u64);
        assert_eq!(scattered.counters.dram_atomic_sectors, grid as u64 * 32);
        assert_eq!(same.counters.dram_atomic_sectors, grid as u64);
        // Scattered is floor-bound at exactly ceil(sectors / 20): 65536
        // sectors -> 3277 cycles (truncation would say 3276).
        let cost = dev.cost;
        let d = cost.dram_sectors_per_cycle;
        assert_eq!(
            scattered.kernel_cycles,
            (grid as u64 * 32).div_ceil(d),
            "bandwidth floor must bind for scattered atomics"
        );
        assert_eq!(
            scattered.kernel_cycles,
            cost.dram_floor_cycles(&scattered.counters)
        );
        // Same-sector is compute-bound on its 32-deep collisions.
        assert!(same.kernel_cycles > same.counters.dram_atomic_sectors.div_ceil(d));
    }

    #[test]
    fn bandwidth_cycles_round_up_partial_sectors() {
        // Zero out every latency cost so the bandwidth floor is the only
        // term left; a 4-sector load then takes ceil(4/20) = 1 cycle.
        // The old truncating division modelled a free kernel.
        let mut dev = Device::v100();
        dev.cost = CostModel {
            compute: 0,
            global_hit: 0,
            l1_wavefront: 0,
            global_issue: 0,
            global_sector: 0,
            shared_access: 0,
            shared_conflict: 0,
            global_atomic: 0,
            global_atomic_conflict: 0,
            shared_atomic: 0,
            shared_atomic_conflict: 0,
            dram_sectors_per_cycle: 20,
        };
        let mut mem = DeviceMem::new(&dev);
        let buf = mem.alloc_zeroed(32, "v").unwrap();
        let stats = dev
            .launch(&mem, KernelConfig::new(1, 32), |blk| {
                blk.phase(|lane| {
                    lane.ld_global(buf, lane.tid() as usize);
                });
            })
            .unwrap();
        assert_eq!(stats.counters.dram_load_sectors, 4);
        assert_eq!(stats.kernel_cycles, 1);
    }

    /// Each host worker recycles one set of race, SimSan and barrier
    /// tables across the blocks it runs. Only the last block misbehaves,
    /// after its worker has run earlier blocks that touched the same
    /// state, and each finding must still be reported, with
    /// block-local phase numbers.
    #[test]
    fn recycled_analysis_state_is_block_local() {
        const GRID: u32 = 64;
        const LAST: u32 = GRID - 1;
        let dev = Device::v100();
        let mem = DeviceMem::new(&dev);
        let cfg = KernelConfig::new(GRID, 32).with_shared_words(8);

        // SimSan: every other block writes shared[5] before reading it;
        // the last block reads it uninitialized.
        let err = dev
            .clone()
            .with_sanitizer()
            .launch(&mem, cfg, |blk| {
                let last = blk.block_idx() == LAST;
                blk.phase(|lane| {
                    if lane.tid() == 0 && !last {
                        lane.st_shared(5, 1);
                    }
                });
                blk.phase(|lane| {
                    if lane.tid() == 0 {
                        lane.ld_shared(5);
                    }
                });
            })
            .unwrap_err();
        match err {
            SimError::Sanitizer { kind, pc_hint, .. } => {
                assert_eq!(kind, crate::SanitizerKind::UninitRead);
                assert_eq!(pc_hint, "phase 2, shared[5]");
            }
            other => panic!("expected an uninit-read report, got {other:?}"),
        }

        // Race detector: only the last block races, in its second phase.
        let err = dev
            .clone()
            .with_race_detection()
            .launch(&mem, cfg, |blk| {
                let last = blk.block_idx() == LAST;
                blk.phase(|lane| lane.st_shared(lane.tid() as usize % 8, 1));
                blk.phase(|lane| {
                    if last && lane.tid() < 2 {
                        lane.st_shared(3, 2 + lane.tid());
                    }
                });
            })
            .unwrap_err();
        match err {
            SimError::DataRace { lanes, pc_hint, .. } => {
                assert_eq!(lanes, (0, 1));
                assert_eq!(pc_hint, "phase 2, shared[3]");
            }
            other => panic!("expected a data race, got {other:?}"),
        }

        // Barrier verifier: lane 5 retires early everywhere but in the
        // last block, where it skips the barrier its siblings reach.
        let err = dev
            .clone()
            .with_lints()
            .launch(&mem, cfg, |blk| {
                let last = blk.block_idx() == LAST;
                blk.phase(|lane| {
                    if lane.tid() == 5 && !last {
                        lane.retire();
                    }
                });
                blk.phase(|lane| {
                    if lane.tid() != 5 {
                        lane.sync_threads();
                    }
                });
            })
            .unwrap_err();
        match err {
            SimError::BarrierDivergence(d) => {
                assert_eq!(d.block, Some(LAST));
                assert_eq!(d.pc_hint, "phase 2");
                assert_eq!(d.lanes.map(|(_, stray)| stray), Some(5));
            }
            other => panic!("expected barrier divergence, got {other:?}"),
        }
    }

    #[test]
    fn invalid_launches_rejected() {
        let dev = Device::v100();
        let mem = DeviceMem::new(&dev);
        assert!(matches!(
            dev.launch(&mem, KernelConfig::new(0, 32), |_| {}),
            Err(SimError::InvalidLaunch(_))
        ));
        assert!(matches!(
            dev.launch(&mem, KernelConfig::new(1, 2048), |_| {}),
            Err(SimError::InvalidLaunch(_))
        ));
        let huge_shared = KernelConfig::new(1, 32).with_shared_words(1 << 20);
        assert!(matches!(
            dev.launch(&mem, huge_shared, |_| {}),
            Err(SimError::SharedMemoryExceeded { .. })
        ));
    }
}
