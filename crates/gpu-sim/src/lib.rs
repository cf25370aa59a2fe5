//! # gpu-sim — a deterministic SIMT GPU simulator
//!
//! This crate stands in for the CUDA runtime and an NVIDIA GPU in the
//! reproduction of *"A Comparative Study of Intersection-Based Triangle
//! Counting Algorithms on GPUs"*. Kernels are written as ordinary Rust
//! closures against a [`LaneCtx`] API; they execute **eagerly** against real
//! data (so results are exact) while recording a per-lane *operation trace*.
//! The traces of the 32 lanes of a warp are then replayed in lockstep to
//! account for the three hardware effects the paper analyses:
//!
//! 1. **Total amount of work** — every global/shared access and compute step
//!    is counted.
//! 2. **Workload imbalance** — lanes whose traces are shorter than their
//!    warp siblings' sit idle, lowering `warp_execution_efficiency`
//!    (average active lanes per issued warp instruction / 32), exactly the
//!    SIMD divergence stall the paper describes.
//! 3. **Memory access pattern** — the addresses a warp issues in one step
//!    are grouped into 32-byte sectors; scattered per-lane scans touch ~32
//!    sectors per request while strided cooperative probing touches 1-2,
//!    reproducing `gld_transactions_per_request`.
//!
//! A [`CostModel`] converts issued slots into cycles and a wave scheduler
//! maps blocks onto streaming multiprocessors, yielding a kernel "time"
//! that is deterministic and hardware-independent.
//!
//! ## Execution model
//!
//! A launch is a grid of independent blocks (run in parallel with rayon,
//! mirroring CUDA's independence guarantee). A block runs as a sequence of
//! **phases** separated by `__syncthreads()`-equivalent barriers
//! ([`BlockCtx::phase`]). Within a phase each lane runs to completion in
//! lane order, so cooperative fill-then-use of shared memory across a
//! barrier is deterministic. Reading a value another lane wrote in the
//! *same* phase is a data race in CUDA and is unsupported here too: the
//! phase-based race detector (see [`race`](crate::RaceKind) and
//! [`Device::with_race_detection`]) turns such conflicts into
//! [`SimError::DataRace`] failures instead of silently reporting whichever
//! interleaving the sequential lane order happened to produce.
//!
//! ```
//! use gpu_sim::{Device, DeviceMem, KernelConfig};
//!
//! let dev = Device::v100();
//! let mut mem = DeviceMem::new(&dev);
//! let input = mem.alloc_from_slice(&[1, 2, 3, 4], "input").unwrap();
//! let output = mem.alloc_zeroed(4, "output").unwrap();
//!
//! let cfg = KernelConfig::new(1, 32);
//! let stats = dev.launch(&mem, cfg, |blk| {
//!     blk.phase(|lane| {
//!         let tid = lane.tid() as usize;
//!         if tid < 4 {
//!             let x = lane.ld_global(input, tid);
//!             lane.st_global(output, tid, x * 10);
//!         }
//!     });
//! }).unwrap();
//!
//! assert_eq!(mem.read_back(output), vec![10, 20, 30, 40]);
//! assert!(stats.counters.global_load_requests > 0);
//! ```

mod cost;
mod counters;
mod device;
mod error;
mod exec;
mod lint;
mod mem;
mod race;
mod sanitize;
mod schedule;
mod trace;

pub use cost::CostModel;
pub use counters::{LaunchStats, ProfileCounters};
pub use device::{Checks, Device, DeviceConfig};
pub use error::SimError;
pub use exec::{global_thread_id, BlockCtx, BlockScratch, KernelConfig, LaneCtx};
pub use lint::{Diag, LintConfig, LintReport, LintRule};
pub use mem::{BufId, DeviceMem};
pub use race::RaceKind;
pub use sanitize::SanitizerKind;
pub use schedule::schedule_blocks;
pub use trace::Op;

/// Number of lanes in a warp, the fundamental SIMT execution unit.
pub const WARP_SIZE: usize = 32;

/// Bytes per DRAM sector; a warp-level load that touches `k` distinct
/// sectors performs `k` transactions (the `gld_transactions_per_request`
/// numerator).
pub const SECTOR_BYTES: u64 = 32;

/// Number of shared-memory banks (word-interleaved, as on Volta/Ada).
pub const SHARED_BANKS: usize = 32;
