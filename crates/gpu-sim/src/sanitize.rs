//! SimSan — shadow-state device-memory sanitizer.
//!
//! The race detector (see `gpu_sim::race`) covers cross-lane conflicts;
//! this module covers the *other* family of silent memory bugs a
//! deterministic simulator would otherwise mask:
//!
//! * **uninit-read** — a lane reads (or atomically updates, which reads)
//!   a word that was never written. Global buffers from
//!   [`DeviceMem::alloc_zeroed`](crate::DeviceMem::alloc_zeroed) and
//!   [`DeviceMem::alloc_from_slice`](crate::DeviceMem::alloc_from_slice)
//!   are born `Init` (the host defined every word);
//!   [`DeviceMem::alloc_uninit`](crate::DeviceMem::alloc_uninit) — the
//!   honest `cudaMalloc` analog — is born `Uninit` per word. Per-block
//!   shared memory is *always* born `Uninit` at launch, exactly like
//!   CUDA shared memory: the simulator zero-fills it for determinism,
//!   but a kernel that reads it before writing it is wrong on hardware.
//! * **use-after-free** — any access through a freed
//!   [`BufId`](crate::BufId). Buffer slots are never recycled, so a
//!   stale handle is caught even after the first-fit allocator has
//!   handed the underlying extent to a new buffer (the case where an
//!   unsanitized run silently reads *another buffer's bytes*).
//! * **redzone** — an access landing in the 256-byte alignment padding
//!   between a buffer's last word and the end of its extent. Such an
//!   index is out of bounds either way; the sanitizer names it a
//!   redzone hit because "one past the end, into the padding" is the
//!   signature of an off-by-one, not a wild pointer.
//! * **double-free** / **leak** — host-side allocator misuse, reported
//!   by [`DeviceMem::free`](crate::DeviceMem::free) and
//!   [`DeviceMem::leak_check`](crate::DeviceMem::leak_check) (these two
//!   are always on; they are accounting-integrity checks, not per-launch
//!   instrumentation).
//!
//! The per-word shadow lattice is `Unallocated → Uninit → Init → Freed`
//! (plus `Redzone` for padding): a word is promoted to `Init` by any
//! store, atomic RMW or host fill — promotion happens even on
//! unsanitized launches, so enabling the sanitizer later never
//! false-positives on state written while it was off.
//!
//! Like race detection, lane-side checking is off by default and is
//! enabled per device ([`Device::with_sanitizer`](crate::Device::with_sanitizer)).
//! A report poisons the block exactly like `MemoryFault`/`DataRace` and
//! surfaces as [`SimError::Sanitizer`](crate::SimError::Sanitizer);
//! `sanitizer_checks` lands in
//! [`ProfileCounters`](crate::ProfileCounters). Checks never touch the
//! lane traces, the L1 model or the cost model, so a sanitizer-clean
//! kernel produces byte-identical counters and cycle counts with the
//! sanitizer on or off (modulo `sanitizer_checks` itself).

use std::fmt;

use crate::lint::SourceLoc;
use crate::race::Access;
use crate::SimError;

/// What a sanitizer report is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SanitizerKind {
    /// A lane read (or atomically updated) a word that was never
    /// written: a garbage value on real hardware.
    UninitRead,
    /// An access — lane- or host-side — through a freed `BufId`.
    UseAfterFree,
    /// An access into the 256-byte alignment padding past a buffer's
    /// last word (the classic off-by-one landing zone).
    Redzone,
    /// The host freed the same `BufId` twice.
    DoubleFree,
    /// Device buffers were still allocated at the end-of-run leak check.
    Leak,
}

impl fmt::Display for SanitizerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SanitizerKind::UninitRead => "uninit-read",
            SanitizerKind::UseAfterFree => "use-after-free",
            SanitizerKind::Redzone => "redzone",
            SanitizerKind::DoubleFree => "double-free",
            SanitizerKind::Leak => "leak",
        };
        f.write_str(s)
    }
}

/// Where a global word sits in the shadow lattice, as probed by
/// `Buffer::shadow_state` (`gpu_sim::mem`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShadowState {
    /// The word holds a host- or kernel-defined value.
    Init,
    /// The word was allocated but never written.
    Uninit,
    /// The index lands in the alignment padding of a live buffer.
    Redzone,
    /// The buffer was freed; the slot is retired for good.
    Freed,
    /// Past even the padding: not the sanitizer's case — the ordinary
    /// bounds check reports it as `MemoryFault`.
    OutOfBounds,
}

/// Per-block sanitizer state: the shared-memory shadow (global shadow
/// lives with the buffers in `DeviceMem`) plus running statistics. One
/// tracker lives in each worker's `BlockScratch` and is
/// [`reset`](Self::reset) per block, so the shadow keeps its capacity.
#[derive(Debug, Default)]
pub(crate) struct SanTracker {
    /// Shared memory is born `Uninit` every launch; a `true` here means
    /// some lane of this block has stored the word.
    shared_init: Vec<bool>,
    /// Accesses vetted (the evidence a run actually ran sanitized).
    pub checks: u64,
}

impl SanTracker {
    #[cfg(test)]
    fn new(shared_words: usize) -> Self {
        let mut t = SanTracker::default();
        t.reset(shared_words);
        t
    }

    /// Start a new block with `shared_words` words of shared memory, all
    /// born `Uninit`, and zeroed statistics. Nothing resets at a barrier:
    /// initialization in an earlier phase covers reads in later ones.
    pub fn reset(&mut self, shared_words: usize) {
        self.shared_init.clear();
        self.shared_init.resize(shared_words, false);
        self.checks = 0;
    }

    /// Check one shared-memory access in barrier phase `phase`.
    /// Out-of-range indices are skipped so the ordinary bounds handling
    /// reports them.
    pub fn check_shared(
        &mut self,
        lane: u32,
        idx: usize,
        access: Access,
        phase: u64,
    ) -> Option<SimError> {
        let init = self.shared_init.get_mut(idx)?;
        self.checks += 1;
        if access.reads() && !*init {
            return Some(SimError::Sanitizer {
                kind: SanitizerKind::UninitRead,
                buffer: "shared".to_string(),
                word: idx,
                lane: Some(lane),
                pc_hint: SourceLoc::Shared { phase, idx }.to_string(),
            });
        }
        // Any store or RMW defines the word from here on.
        if access != Access::Read {
            *init = true;
        }
        None
    }

    /// Check one global-memory access against the word's shadow state
    /// (probed by the caller from `DeviceMem`). Init-promotion on writes
    /// is the memory's job — it happens sanitizer-on or -off.
    pub fn check_global(
        &mut self,
        lane: u32,
        state: ShadowState,
        buffer: &str,
        idx: usize,
        access: Access,
        phase: u64,
    ) -> Option<SimError> {
        if matches!(state, ShadowState::OutOfBounds) {
            return None;
        }
        self.checks += 1;
        let kind = match state {
            ShadowState::Freed => SanitizerKind::UseAfterFree,
            ShadowState::Redzone => SanitizerKind::Redzone,
            ShadowState::Uninit if access.reads() => SanitizerKind::UninitRead,
            _ => return None,
        };
        Some(SimError::Sanitizer {
            kind,
            buffer: buffer.to_string(),
            word: idx,
            lane: Some(lane),
            pc_hint: SourceLoc::Global { phase, buffer, idx }.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: Access = Access::Write {
        changes_value: true,
    };

    #[test]
    fn shared_is_born_uninit_and_writes_promote() {
        let mut t = SanTracker::new(4);
        let err = t.check_shared(3, 2, Access::Read, 1).unwrap();
        match err {
            SimError::Sanitizer {
                kind,
                buffer,
                word,
                lane,
                ..
            } => {
                assert_eq!(kind, SanitizerKind::UninitRead);
                assert_eq!(buffer, "shared");
                assert_eq!(word, 2);
                assert_eq!(lane, Some(3));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(t.check_shared(0, 1, W, 1).is_none());
        assert!(t.check_shared(5, 1, Access::Read, 1).is_none());
        assert_eq!(t.checks, 3);
    }

    #[test]
    fn shared_atomic_on_uninit_word_reads_garbage() {
        let mut t = SanTracker::new(2);
        assert!(matches!(
            t.check_shared(0, 0, Access::Atomic, 1),
            Some(SimError::Sanitizer {
                kind: SanitizerKind::UninitRead,
                ..
            })
        ));
        // After a store, atomics are fine.
        assert!(t.check_shared(0, 1, W, 1).is_none());
        assert!(t.check_shared(1, 1, Access::Atomic, 1).is_none());
    }

    #[test]
    fn shared_init_survives_barriers() {
        let mut t = SanTracker::new(1);
        assert!(t.check_shared(0, 0, W, 1).is_none());
        assert!(t.check_shared(1, 0, Access::Read, 2).is_none());
    }

    #[test]
    fn shared_out_of_range_defers_to_bounds_handling() {
        let mut t = SanTracker::new(2);
        assert!(t.check_shared(0, 99, Access::Read, 1).is_none());
        assert_eq!(t.checks, 0);
    }

    #[test]
    fn global_state_maps_to_kinds() {
        let mut t = SanTracker::new(0);
        assert!(t
            .check_global(0, ShadowState::Init, "b", 0, Access::Read, 1)
            .is_none());
        assert!(matches!(
            t.check_global(1, ShadowState::Uninit, "b", 1, Access::Read, 1),
            Some(SimError::Sanitizer {
                kind: SanitizerKind::UninitRead,
                ..
            })
        ));
        assert!(matches!(
            t.check_global(2, ShadowState::Freed, "b", 0, W, 1),
            Some(SimError::Sanitizer {
                kind: SanitizerKind::UseAfterFree,
                ..
            })
        ));
        assert!(matches!(
            t.check_global(3, ShadowState::Redzone, "b", 7, Access::Read, 1),
            Some(SimError::Sanitizer {
                kind: SanitizerKind::Redzone,
                ..
            })
        ));
    }

    #[test]
    fn global_uninit_write_is_fine_and_oob_is_not_ours() {
        let mut t = SanTracker::new(0);
        assert!(t
            .check_global(0, ShadowState::Uninit, "b", 0, W, 1)
            .is_none());
        assert!(t
            .check_global(0, ShadowState::OutOfBounds, "b", 999, Access::Read, 1)
            .is_none());
        assert_eq!(t.checks, 1, "out-of-bounds is not a sanitizer check");
    }
}
