use std::fmt;

use crate::lint::Diag;
use crate::race::RaceKind;
use crate::sanitize::SanitizerKind;

/// Errors surfaced by the simulator.
///
/// `OutOfMemory` is load-bearing for the reproduction: several of the
/// published implementations fail on the largest datasets (the red crosses
/// in Figure 11 of the paper), and they fail here the same way — by asking
/// the device for more global memory than it has.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A device-memory allocation exceeded remaining capacity.
    OutOfMemory {
        /// Human-readable tag of the buffer that failed to allocate.
        what: String,
        /// Words requested by the failing allocation.
        requested_words: u64,
        /// Words still available on the device.
        available_words: u64,
    },
    /// A kernel required more shared memory per block than the device has.
    SharedMemoryExceeded {
        requested_words: u32,
        available_words: u32,
    },
    /// A kernel was launched with an invalid configuration.
    InvalidLaunch(String),
    /// The kernel itself reported a failure (e.g. a hash-table overflow in
    /// an implementation with fixed-size buckets).
    KernelFault(String),
    /// A kernel lane accessed a device buffer or its block's shared
    /// memory out of bounds. Unlike a host-side out-of-bounds access (a
    /// harness bug, which panics), a lane-side fault is attributed to
    /// the implementation under test: the faulting block poisons itself,
    /// the launch returns this error, and an evaluation sweep records
    /// the cell as failed and moves on.
    MemoryFault {
        /// Debug name of the buffer that was accessed (`"shared"` for
        /// shared memory).
        buffer: String,
        /// The out-of-bounds word index.
        index: usize,
        /// The buffer's length in words.
        len: usize,
    },
    /// The race detector (see `gpu_sim::race`) caught two lanes of one
    /// block touching the same word between two barriers, at least one
    /// of them with a plain (non-atomic) write. On real hardware the
    /// outcome would be schedule-dependent; the launch fails instead of
    /// silently reporting whichever interleaving the simulator picked.
    DataRace {
        /// Shared-memory word index or global byte address, per `kind`.
        addr: u64,
        /// Address space and conflict flavour.
        kind: RaceKind,
        /// The two conflicting lanes' thread indices within the block,
        /// in the order the accesses were simulated.
        lanes: (u32, u32),
        /// Where the conflict was observed (barrier-phase number and the
        /// humanized address), for correlating with kernel source.
        pc_hint: String,
    },
    /// SimSan (see `gpu_sim::sanitize`) caught a memory-state bug:
    /// uninit-read, use-after-free, redzone hit, double-free or a leak.
    /// Lane-side reports poison the block like `MemoryFault`/`DataRace`;
    /// host-side reports (double-free, dangling copy-back, leak) come
    /// straight from the `DeviceMem` call that detected them.
    Sanitizer {
        /// What went wrong.
        kind: SanitizerKind,
        /// Debug name of the buffer involved (`"shared"` for per-block
        /// shared memory; the live buffer names for a leak).
        buffer: String,
        /// Word offset of the offending access within the buffer (for a
        /// leak: the words still allocated).
        word: usize,
        /// The accessing lane's thread index, or `None` for host-side
        /// reports.
        lane: Option<u32>,
        /// Where the report was raised (barrier-phase number and the
        /// humanized address, or the host operation).
        pc_hint: String,
    },
    /// SimLint's barrier-divergence verifier (see `gpu_sim::lint`)
    /// caught live lanes of one block disagreeing on reaching an
    /// explicit barrier ([`LaneCtx::sync_threads`](crate::LaneCtx::sync_threads))
    /// within a phase — a lane retired or branched past a barrier its
    /// siblings wait at. On real hardware this hangs the block, so like
    /// [`SimError::DataRace`] it is fatal: the block poisons itself and
    /// the launch fails with the structured diagnostic.
    BarrierDivergence(Diag),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::OutOfMemory {
                what,
                requested_words,
                available_words,
            } => write!(
                f,
                "device out of memory allocating `{what}`: requested {requested_words} words, \
                 {available_words} available"
            ),
            SimError::SharedMemoryExceeded {
                requested_words,
                available_words,
            } => write!(
                f,
                "shared memory exceeded: requested {requested_words} words/block, \
                 device provides {available_words}"
            ),
            SimError::InvalidLaunch(msg) => write!(f, "invalid launch: {msg}"),
            SimError::KernelFault(msg) => write!(f, "kernel fault: {msg}"),
            SimError::MemoryFault { buffer, index, len } => write!(
                f,
                "device memory fault: `{buffer}`[{index}] out of bounds (len {len})"
            ),
            SimError::DataRace {
                addr,
                kind,
                lanes,
                pc_hint,
            } => write!(
                f,
                "data race: {kind} conflict at {} {addr} between lanes {} and {} ({pc_hint})",
                if kind.is_shared() {
                    "shared word"
                } else {
                    "global byte address"
                },
                lanes.0,
                lanes.1,
            ),
            SimError::Sanitizer {
                kind,
                buffer,
                word,
                lane,
                pc_hint,
            } => {
                write!(f, "sanitizer: {kind} on `{buffer}`[{word}]")?;
                if let Some(l) = lane {
                    write!(f, " by lane {l}")?;
                }
                write!(f, " ({pc_hint})")
            }
            SimError::BarrierDivergence(d) => {
                write!(f, "barrier divergence")?;
                if let Some(b) = d.block {
                    write!(f, " in block {b}")?;
                }
                write!(f, ": {} ({})", d.detail, d.pc_hint)
            }
        }
    }
}

impl std::error::Error for SimError {}
