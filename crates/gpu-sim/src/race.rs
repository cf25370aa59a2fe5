//! Phase-based data-race detection.
//!
//! The simulator runs the lanes of a block *sequentially* within each
//! barrier-delimited phase, so kernels that would be nondeterministic on
//! real SIMT hardware (two lanes touching the same word between two
//! `__syncthreads()`, at least one of them writing) still produce one
//! deterministic answer here — silently masking a real CUDA bug. This
//! module records every shared-memory access (and every *plain*, i.e.
//! non-atomic, global access) a block performs within the current phase
//! and flags conflicting accesses by different lanes, regardless of the
//! order the simulator happened to execute them in:
//!
//! * **write/write** — two lanes plain-store different values to the same
//!   word in one phase (last-writer-wins would be schedule-dependent on
//!   hardware);
//! * **read/write** — one lane plain-stores a word another lane reads in
//!   the same phase (the reader could observe either value). Detection is
//!   symmetric: a read executed *before* the conflicting write is still
//!   reported, because hardware could have ordered the write first.
//!
//! Two exemptions keep common, genuinely benign GPU idioms quiet:
//!
//! * **Atomics synchronize with each other.** Any number of lanes may RMW
//!   the same word atomically; mixing an atomic with a plain access from
//!   another lane is still a race.
//! * **Silent stores are benign.** A store whose value equals the word's
//!   current content (e.g. many lanes raising the same overflow flag to
//!   `1`) cannot change what any racing reader observes and is ignored,
//!   matching the "multiple same-value writers" idiom the kernels in this
//!   workspace were written against.
//!
//! Scope: conflicts are detected *within one block*. Cross-block global
//! races cannot be ordered by `__syncthreads()` at all and are outside
//! the phase model (blocks execute on independent rayon workers); the
//! kernels under test only communicate across blocks through atomics,
//! which are exempt by design.
//!
//! Detection is off by default (a launch pays ~zero cost: one branch per
//! access) and is enabled for every launch on a device via
//! [`Device::with_race_detection`](crate::Device::with_race_detection).
//! A detected race poisons the block like a memory fault and surfaces as
//! [`SimError::DataRace`].

use std::collections::HashMap;
use std::fmt;

use crate::lint::SourceLoc;
use crate::SimError;

/// Classification of a detected conflict: which address space, and
/// whether the conflicting pair was write/write or read/write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceKind {
    /// Two lanes plain-stored different values to one shared word.
    SharedWriteWrite,
    /// One lane plain-stored a shared word another lane read (or
    /// atomically updated) in the same phase.
    SharedReadWrite,
    /// Two lanes of one block plain-stored different values to one
    /// global word without an atomic.
    GlobalWriteWrite,
    /// One lane of a block plain-stored a global word another lane of
    /// the same block read in the same phase.
    GlobalReadWrite,
}

impl RaceKind {
    /// Whether the conflicting address is a shared-memory word index
    /// (true) or a global byte address (false).
    pub fn is_shared(self) -> bool {
        matches!(self, RaceKind::SharedWriteWrite | RaceKind::SharedReadWrite)
    }
}

impl fmt::Display for RaceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RaceKind::SharedWriteWrite => "shared-memory write/write",
            RaceKind::SharedReadWrite => "shared-memory read/write",
            RaceKind::GlobalWriteWrite => "global-memory write/write",
            RaceKind::GlobalReadWrite => "global-memory read/write",
        };
        f.write_str(s)
    }
}

/// One lane access, as seen by the detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Access {
    Read,
    /// A plain store; `changes_value` is false for silent stores (the
    /// stored value equals the word's current content), which are benign.
    Write {
        changes_value: bool,
    },
    /// An atomic RMW: synchronizes with other atomics, conflicts with
    /// plain accesses from other lanes.
    Atomic,
}

/// Sentinel: no lane recorded.
const NO_LANE: u32 = u32::MAX;

/// Per-word access record for the current phase. `epoch` stamps which
/// phase the record belongs to, so per-phase (and per-block) reset is
/// O(1) instead of O(shared words).
#[derive(Debug, Clone, Copy)]
struct SlotState {
    epoch: u64,
    /// Up to two distinct lanes that plain-read the word this phase
    /// (two suffice: any write conflicts with a reader other than the
    /// writing lane, and with two distinct readers recorded one of them
    /// always qualifies).
    readers: [u32; 2],
    /// The lane that exclusively plain-stored the word this phase.
    writer: u32,
    /// The first lane that atomically updated the word this phase.
    atomic: u32,
}

impl SlotState {
    const FRESH: SlotState = SlotState {
        epoch: 0,
        readers: [NO_LANE; 2],
        writer: NO_LANE,
        atomic: NO_LANE,
    };

    fn reset(&mut self, epoch: u64) {
        *self = SlotState::FRESH;
        self.epoch = epoch;
    }

    /// Record `access` by `lane` and return the conflicting lane plus
    /// whether the conflict is read/write (`true`) or write/write
    /// (`false`), if any.
    fn check(&mut self, lane: u32, access: Access) -> Option<(u32, bool)> {
        match access {
            Access::Read => {
                if self.writer != NO_LANE && self.writer != lane {
                    return Some((self.writer, true));
                }
                if self.readers[0] == NO_LANE {
                    self.readers[0] = lane;
                } else if self.readers[0] != lane && self.readers[1] == NO_LANE {
                    self.readers[1] = lane;
                }
                None
            }
            Access::Write { changes_value } => {
                if !changes_value {
                    // Silent store: cannot be observed by any racing
                    // reader or writer.
                    return None;
                }
                if self.writer != NO_LANE && self.writer != lane {
                    return Some((self.writer, false));
                }
                if self.atomic != NO_LANE && self.atomic != lane {
                    return Some((self.atomic, false));
                }
                if let Some(&r) = self.readers.iter().find(|&&r| r != NO_LANE && r != lane) {
                    return Some((r, true));
                }
                self.writer = lane;
                None
            }
            Access::Atomic => {
                if self.writer != NO_LANE && self.writer != lane {
                    return Some((self.writer, false));
                }
                if let Some(&r) = self.readers.iter().find(|&&r| r != NO_LANE && r != lane) {
                    return Some((r, true));
                }
                if self.atomic == NO_LANE {
                    self.atomic = lane;
                }
                None
            }
        }
    }
}

/// The per-block race detector: shared-word and global-word access
/// tables for the current barrier phase, plus running statistics. One
/// tracker lives in each worker's `BlockScratch` and is
/// [`reset`](Self::reset) per block, so its tables keep their capacity.
#[derive(Debug, Default)]
pub(crate) struct RaceTracker {
    /// Current phase number within the block (1-based), for diagnostics.
    phase: u64,
    /// Stamp of the current phase in the slot tables. Unlike `phase` it
    /// keeps counting across the blocks a tracker serves, so a new block
    /// or phase invalidates every slot without touching it (0 marks
    /// untouched slots).
    epoch: u64,
    /// Dense table over the block's shared words, epoch-stamped.
    shared: Vec<SlotState>,
    /// Sparse table over the global byte addresses the block touched
    /// with plain accesses this phase.
    global: HashMap<u64, SlotState>,
    /// Conflict checks performed (one per tracked access).
    pub checks: u64,
    /// Races found (the block poisons on the first, so 0 or 1).
    pub races: u64,
}

impl RaceTracker {
    #[cfg(test)]
    fn new(shared_words: usize) -> Self {
        let mut t = RaceTracker::default();
        t.reset(shared_words);
        t
    }

    /// Start a new block with `shared_words` words of shared memory:
    /// phase 1, no access records, zeroed statistics.
    pub fn reset(&mut self, shared_words: usize) -> &mut Self {
        self.phase = 1;
        self.epoch += 1;
        self.shared.resize(shared_words, SlotState::FRESH);
        self.global.clear();
        self.checks = 0;
        self.races = 0;
        self
    }

    /// Advance past a barrier: all access records of the finished phase
    /// become irrelevant.
    pub fn end_phase(&mut self) {
        self.phase += 1;
        self.epoch += 1;
        self.global.clear();
    }

    /// Check one shared-memory access. Returns the error to poison the
    /// block with on conflict.
    pub fn check_shared(&mut self, lane: u32, idx: usize, access: Access) -> Option<SimError> {
        self.checks += 1;
        let slot = &mut self.shared[idx];
        if slot.epoch != self.epoch {
            slot.reset(self.epoch);
        }
        let (other, read_write) = slot.check(lane, access)?;
        self.races += 1;
        let kind = if read_write {
            RaceKind::SharedReadWrite
        } else {
            RaceKind::SharedWriteWrite
        };
        Some(SimError::DataRace {
            addr: idx as u64,
            kind,
            lanes: (other, lane),
            pc_hint: SourceLoc::Shared {
                phase: self.phase,
                idx,
            }
            .to_string(),
        })
    }

    /// Check one plain global-memory access (`addr` is the flat byte
    /// address; `buffer`/`idx` only feed the diagnostic).
    pub fn check_global(
        &mut self,
        lane: u32,
        addr: u64,
        buffer: &str,
        idx: usize,
        access: Access,
    ) -> Option<SimError> {
        self.checks += 1;
        let slot = self.global.entry(addr).or_insert(SlotState::FRESH);
        if slot.epoch != self.epoch {
            slot.reset(self.epoch);
        }
        let (other, read_write) = slot.check(lane, access)?;
        self.races += 1;
        let kind = if read_write {
            RaceKind::GlobalReadWrite
        } else {
            RaceKind::GlobalWriteWrite
        };
        Some(SimError::DataRace {
            addr,
            kind,
            lanes: (other, lane),
            pc_hint: SourceLoc::Global {
                phase: self.phase,
                buffer,
                idx,
            }
            .to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: Access = Access::Write {
        changes_value: true,
    };
    const SILENT: Access = Access::Write {
        changes_value: false,
    };

    #[test]
    fn same_lane_never_conflicts() {
        let mut t = RaceTracker::new(4);
        assert!(t.check_shared(3, 0, W).is_none());
        assert!(t.check_shared(3, 0, Access::Read).is_none());
        assert!(t.check_shared(3, 0, W).is_none());
        assert!(t.check_shared(3, 0, Access::Atomic).is_none());
        assert_eq!(t.races, 0);
        assert_eq!(t.checks, 4);
    }

    #[test]
    fn foreign_read_after_write_is_a_race() {
        let mut t = RaceTracker::new(4);
        assert!(t.check_shared(0, 2, W).is_none());
        let err = t.check_shared(1, 2, Access::Read).unwrap();
        match err {
            SimError::DataRace {
                addr, kind, lanes, ..
            } => {
                assert_eq!(addr, 2);
                assert_eq!(kind, RaceKind::SharedReadWrite);
                assert_eq!(lanes, (0, 1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn foreign_write_after_read_is_a_race_too() {
        // The symmetric case the eager writer-table approach missed: the
        // read executes first, the conflicting write later.
        let mut t = RaceTracker::new(4);
        assert!(t.check_shared(5, 1, Access::Read).is_none());
        let err = t.check_shared(9, 1, W).unwrap();
        assert!(matches!(
            err,
            SimError::DataRace {
                kind: RaceKind::SharedReadWrite,
                lanes: (5, 9),
                ..
            }
        ));
    }

    #[test]
    fn conflicting_writes_race_but_silent_stores_do_not() {
        let mut t = RaceTracker::new(4);
        assert!(t.check_shared(0, 0, W).is_none());
        assert!(t.check_shared(1, 0, SILENT).is_none(), "same-value store");
        assert!(matches!(
            t.check_shared(2, 0, W),
            Some(SimError::DataRace {
                kind: RaceKind::SharedWriteWrite,
                ..
            })
        ));
    }

    #[test]
    fn atomics_synchronize_with_each_other_but_not_with_plain_ops() {
        let mut t = RaceTracker::new(4);
        assert!(t.check_shared(0, 3, Access::Atomic).is_none());
        assert!(t.check_shared(1, 3, Access::Atomic).is_none());
        // Plain write racing the atomics.
        assert!(matches!(
            t.check_shared(2, 3, W),
            Some(SimError::DataRace {
                kind: RaceKind::SharedWriteWrite,
                ..
            })
        ));
    }

    #[test]
    fn read_of_atomically_updated_word_is_a_race() {
        let mut t = RaceTracker::new(4);
        assert!(t.check_shared(7, 0, Access::Atomic).is_none());
        // Another lane's atomic after a foreign plain read conflicts.
        let mut t2 = RaceTracker::new(4);
        assert!(t2.check_shared(0, 0, Access::Read).is_none());
        assert!(matches!(
            t2.check_shared(1, 0, Access::Atomic),
            Some(SimError::DataRace {
                kind: RaceKind::SharedReadWrite,
                ..
            })
        ));
        drop(t);
    }

    #[test]
    fn barrier_clears_conflicts() {
        let mut t = RaceTracker::new(4);
        assert!(t.check_shared(0, 2, W).is_none());
        t.end_phase();
        // Lane 1 may read what lane 0 wrote before the barrier...
        assert!(t.check_shared(1, 2, Access::Read).is_none());
        // ...but a conflicting write in the *new* phase races with that
        // new read, proving the fresh phase tracks its own accesses.
        assert!(t.check_shared(2, 2, W).is_some());
        assert_eq!(t.races, 1);
    }

    #[test]
    fn global_addresses_tracked_sparsely() {
        let mut t = RaceTracker::new(0);
        assert!(t.check_global(0, 4096, "buf", 0, W).is_none());
        let err = t.check_global(1, 4096, "buf", 0, W).unwrap();
        match err {
            SimError::DataRace {
                addr,
                kind,
                lanes,
                pc_hint,
            } => {
                assert_eq!(addr, 4096);
                assert_eq!(kind, RaceKind::GlobalWriteWrite);
                assert_eq!(lanes, (0, 1));
                assert!(pc_hint.contains("`buf`[0]"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
