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
//! Both record tables are epoch-stamped, so a barrier empties them in
//! O(1): shared words live in a dense table indexed by word, global
//! words in an open-addressing table keyed by byte address.
//!
//! Detection is off by default (a launch pays ~zero cost: one branch per
//! access) and is enabled for every launch on a device via
//! [`Device::with_race_detection`](crate::Device::with_race_detection).
//! A detected race poisons the block like a memory fault and surfaces as
//! [`SimError::DataRace`].

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

/// One lane access, as seen by the race detector and SimSan.
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

impl Access {
    /// Whether the access observes the word's current value. Atomics
    /// both read and write, so SimSan counts them as reads of
    /// uninitialized state.
    pub(crate) fn reads(self) -> bool {
        matches!(self, Access::Read | Access::Atomic)
    }
}

/// Sentinel: no lane recorded. Lane ids fit a `u16` because
/// `Device::launch` rejects blocks of more than 1024 lanes.
const NO_LANE: u16 = u16::MAX;

/// Per-word access record for the current phase. `epoch` stamps which
/// phase the record belongs to, so per-phase (and per-block) reset is
/// O(1) instead of O(words): a record from an older epoch reads as
/// fresh (see [`RaceTracker::epoch`]).
#[derive(Debug, Clone, Copy)]
struct SlotState {
    epoch: u64,
    /// Up to two distinct lanes that plain-read the word this phase
    /// (two suffice: any write conflicts with a reader other than the
    /// writing lane, and with two distinct readers recorded one of them
    /// always qualifies).
    readers: [u16; 2],
    /// The lane that exclusively plain-stored the word this phase.
    writer: u16,
    /// The first lane that atomically updated the word this phase.
    atomic: u16,
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
    fn check(&mut self, lane: u16, access: Access) -> Option<(u16, bool)> {
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

/// One bucket of [`WordTable`]: a global byte address and its record
/// (24 bytes).
#[derive(Debug, Clone, Copy)]
struct Bucket {
    addr: u64,
    state: SlotState,
}

const _: () = assert!(std::mem::size_of::<Bucket>() <= 24);

/// The global words a block plain-accessed in the current phase: an
/// open-addressing table keyed by byte address, hashed with one
/// multiply and probed linearly. A bucket whose record is from another
/// epoch is empty, so a new phase empties the table without touching
/// it. Within one epoch nothing is deleted, so every probe chain is
/// unbroken and a lookup stops at the first empty bucket. The table
/// keeps its capacity across phases and blocks; it doubles when the
/// current epoch's records would pass 3/4 of it, and only those
/// records move.
#[derive(Debug, Default)]
struct WordTable {
    /// A power of two buckets (or none before the first insert).
    buckets: Vec<Bucket>,
    /// The epoch `live` counts.
    epoch: u64,
    /// Buckets holding a record of `epoch`.
    live: usize,
}

impl WordTable {
    /// Bucket count of the first allocation.
    const MIN_BUCKETS: usize = 64;

    /// The record of `addr` in `epoch`, inserted fresh if the epoch has
    /// none yet. `epoch` is never 0 (the stamp of unused buckets) and
    /// never moves backwards.
    fn slot(&mut self, addr: u64, epoch: u64) -> &mut SlotState {
        debug_assert!(epoch >= self.epoch && epoch != 0);
        if epoch != self.epoch {
            self.epoch = epoch;
            self.live = 0;
        }
        let mut i = match self.probe(addr) {
            Ok(i) => return &mut self.buckets[i].state,
            Err(i) => i,
        };
        if (self.live + 1) * 4 > self.buckets.len() * 3 {
            self.grow();
            i = self.probe(addr).unwrap_err();
        }
        self.live += 1;
        let b = &mut self.buckets[i];
        b.addr = addr;
        b.state.reset(epoch);
        &mut b.state
    }

    /// `Ok` with the bucket holding `addr`'s current record, or `Err`
    /// with the empty bucket ending its probe chain (`Err(0)` in an
    /// unallocated table).
    #[inline]
    fn probe(&self, addr: u64) -> Result<usize, usize> {
        let n = self.buckets.len();
        if n == 0 {
            return Err(0);
        }
        let mut i = home(addr, n);
        loop {
            let b = &self.buckets[i];
            if b.state.epoch != self.epoch {
                return Err(i);
            }
            if b.addr == addr {
                return Ok(i);
            }
            i = (i + 1) & (n - 1);
        }
    }

    /// Double the bucket count, re-inserting the current epoch's
    /// records and dropping the stale ones.
    #[cold]
    fn grow(&mut self) {
        let n = (2 * self.buckets.len()).max(Self::MIN_BUCKETS);
        let empty = Bucket {
            addr: 0,
            state: SlotState::FRESH,
        };
        let old = std::mem::replace(&mut self.buckets, vec![empty; n]);
        for b in old.into_iter().filter(|b| b.state.epoch == self.epoch) {
            let i = self.probe(b.addr).unwrap_err();
            self.buckets[i] = b;
        }
    }
}

/// The per-block race detector: shared-word and global-word access
/// tables for the current barrier phase, plus running statistics. One
/// tracker lives in each worker's `BlockScratch` and is
/// [`reset`](Self::reset) per block, so its tables keep their capacity.
/// Both tables are epoch-stamped, so a barrier or a new block costs one
/// increment of [`epoch`](Self::epoch).
#[derive(Debug, Default)]
pub(crate) struct RaceTracker {
    /// Stamp of the current phase in the slot tables. Unlike the
    /// checker's phase number it keeps counting across the blocks a
    /// tracker serves, so a new block or phase invalidates every slot
    /// without touching it (0 marks untouched slots).
    epoch: u64,
    /// Dense table over the block's shared words.
    shared: Vec<SlotState>,
    /// Sparse table over the global byte addresses the block touched
    /// with plain accesses this phase.
    global: WordTable,
    /// Conflict checks performed (one per tracked access).
    pub checks: u64,
}

impl RaceTracker {
    #[cfg(test)]
    fn new(shared_words: usize) -> Self {
        let mut t = RaceTracker::default();
        t.reset(shared_words);
        t
    }

    /// Start a new block with `shared_words` words of shared memory: no
    /// access records, zeroed statistics.
    pub fn reset(&mut self, shared_words: usize) {
        self.end_phase();
        self.shared.resize(shared_words, SlotState::FRESH);
        self.checks = 0;
    }

    /// Advance past a barrier: all access records of the finished phase
    /// become irrelevant.
    pub fn end_phase(&mut self) {
        self.epoch += 1;
    }

    /// Check one shared-memory access in barrier phase `phase`. Returns
    /// the error to poison the block with on conflict.
    pub fn check_shared(
        &mut self,
        lane: u32,
        idx: usize,
        access: Access,
        phase: u64,
    ) -> Option<SimError> {
        self.checks += 1;
        let slot = &mut self.shared[idx];
        if slot.epoch != self.epoch {
            slot.reset(self.epoch);
        }
        let (other, read_write) = slot.check(lane_id(lane), access)?;
        let kind = if read_write {
            RaceKind::SharedReadWrite
        } else {
            RaceKind::SharedWriteWrite
        };
        Some(SimError::DataRace {
            addr: idx as u64,
            kind,
            lanes: (other.into(), lane),
            pc_hint: SourceLoc::Shared { phase, idx }.to_string(),
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
        phase: u64,
    ) -> Option<SimError> {
        self.checks += 1;
        let slot = self.global.slot(addr, self.epoch);
        let (other, read_write) = slot.check(lane_id(lane), access)?;
        let kind = if read_write {
            RaceKind::GlobalReadWrite
        } else {
            RaceKind::GlobalWriteWrite
        };
        Some(SimError::DataRace {
            addr,
            kind,
            lanes: (other.into(), lane),
            pc_hint: SourceLoc::Global { phase, buffer, idx }.to_string(),
        })
    }
}

/// The home bucket of `addr` in a table of `n` (a power of two)
/// buckets. Fibonacci hashing: the multiply mixes every address bit
/// into the high bits, which pick the bucket.
#[inline]
fn home(addr: u64, n: usize) -> usize {
    (addr.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - n.trailing_zeros())) as usize
}

/// A lane's id in the `u16` slot fields (see [`NO_LANE`]).
#[inline]
fn lane_id(lane: u32) -> u16 {
    debug_assert!(lane < u32::from(NO_LANE), "lane {lane} exceeds a block");
    lane as u16
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
        assert!(t.check_shared(3, 0, W, 1).is_none());
        assert!(t.check_shared(3, 0, Access::Read, 1).is_none());
        assert!(t.check_shared(3, 0, W, 1).is_none());
        assert!(t.check_shared(3, 0, Access::Atomic, 1).is_none());
        assert_eq!(t.checks, 4);
    }

    #[test]
    fn foreign_read_after_write_is_a_race() {
        let mut t = RaceTracker::new(4);
        assert!(t.check_shared(0, 2, W, 1).is_none());
        let err = t.check_shared(1, 2, Access::Read, 1).unwrap();
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
        assert!(t.check_shared(5, 1, Access::Read, 1).is_none());
        let err = t.check_shared(9, 1, W, 1).unwrap();
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
        assert!(t.check_shared(0, 0, W, 1).is_none());
        assert!(
            t.check_shared(1, 0, SILENT, 1).is_none(),
            "same-value store"
        );
        assert!(matches!(
            t.check_shared(2, 0, W, 1),
            Some(SimError::DataRace {
                kind: RaceKind::SharedWriteWrite,
                ..
            })
        ));
    }

    #[test]
    fn atomics_synchronize_with_each_other_but_not_with_plain_ops() {
        let mut t = RaceTracker::new(4);
        assert!(t.check_shared(0, 3, Access::Atomic, 1).is_none());
        assert!(t.check_shared(1, 3, Access::Atomic, 1).is_none());
        // Plain write racing the atomics.
        assert!(matches!(
            t.check_shared(2, 3, W, 1),
            Some(SimError::DataRace {
                kind: RaceKind::SharedWriteWrite,
                ..
            })
        ));
    }

    #[test]
    fn read_of_atomically_updated_word_is_a_race() {
        let mut t = RaceTracker::new(4);
        assert!(t.check_shared(7, 0, Access::Atomic, 1).is_none());
        // Another lane's atomic after a foreign plain read conflicts.
        let mut t2 = RaceTracker::new(4);
        assert!(t2.check_shared(0, 0, Access::Read, 1).is_none());
        assert!(matches!(
            t2.check_shared(1, 0, Access::Atomic, 1),
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
        assert!(t.check_shared(0, 2, W, 1).is_none());
        t.end_phase();
        // Lane 1 may read what lane 0 wrote before the barrier...
        assert!(t.check_shared(1, 2, Access::Read, 1).is_none());
        // ...but a conflicting write in the *new* phase races with that
        // new read, proving the fresh phase tracks its own accesses.
        assert!(matches!(
            t.check_shared(2, 2, W, 1),
            Some(SimError::DataRace { lanes: (1, 2), .. })
        ));
    }

    #[test]
    fn global_addresses_tracked_sparsely() {
        let mut t = RaceTracker::new(0);
        assert!(t.check_global(0, 4096, "buf", 0, W, 1).is_none());
        let err = t.check_global(1, 4096, "buf", 0, W, 1).unwrap();
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

    /// Two addresses with the same home bucket in a table of `n`.
    fn colliding_pair(n: usize) -> (u64, u64) {
        let a = 4096;
        let b = (1..)
            .map(|k| a + 4 * k)
            .find(|&b| home(b, n) == home(a, n))
            .unwrap();
        (a, b)
    }

    #[test]
    fn colliding_keys_share_one_probe_chain() {
        let mut t = RaceTracker::new(0);
        let (a, b) = colliding_pair(WordTable::MIN_BUCKETS);
        assert!(t.check_global(0, a, "buf", 0, Access::Read, 1).is_none());
        assert!(t.check_global(1, b, "buf", 1, W, 1).is_none());
        let g = &t.global;
        let n = g.buckets.len();
        assert_eq!(n, WordTable::MIN_BUCKETS);
        let h = home(a, n);
        assert_eq!(g.probe(a), Ok(h));
        assert_eq!(g.probe(b), Ok((h + 1) % n));
        assert_eq!(g.live, 2);
        // The two records stay apart: lane 1's write to `b` did not
        // touch `a`, whose reader still conflicts with a foreign store.
        assert!(matches!(
            t.check_global(2, a, "buf", 0, W, 1),
            Some(SimError::DataRace {
                kind: RaceKind::GlobalReadWrite,
                lanes: (0, 2),
                ..
            })
        ));
    }

    #[test]
    fn stale_epoch_bucket_counts_as_empty() {
        let mut t = RaceTracker::new(0);
        let (a, b) = colliding_pair(WordTable::MIN_BUCKETS);
        assert!(t.check_global(0, a, "buf", 0, W, 1).is_none());
        let h = home(a, t.global.buckets.len());
        t.end_phase();
        // After the barrier `a`'s bucket is empty: `b` lands in it.
        assert!(t.check_global(1, b, "buf", 1, Access::Read, 2).is_none());
        assert_eq!(t.global.buckets[h].addr, b);
        assert_eq!(t.global.live, 1);
        assert_eq!(t.global.probe(b), Ok(h));
        assert!(t.global.probe(a).is_err());
        // Lane 1 may read what lane 0 wrote before the barrier, and the
        // re-inserted `b` keeps its new reader.
        assert!(t.check_global(1, a, "buf", 0, Access::Read, 2).is_none());
        assert!(matches!(
            t.check_global(3, b, "buf", 1, W, 2),
            Some(SimError::DataRace {
                kind: RaceKind::GlobalReadWrite,
                lanes: (1, 3),
                ..
            })
        ));
    }

    #[test]
    fn growth_keeps_current_records_and_drops_stale_ones() {
        let mut t = RaceTracker::new(0);
        let addr = |k: u64| (1 << 20) + 4 * k;
        for k in 0..40 {
            assert!(t.check_global(0, addr(k), "old", 0, W, 1).is_none());
        }
        assert_eq!(t.global.buckets.len(), WordTable::MIN_BUCKETS);
        t.end_phase();
        // 100 records pass 3/4 of 64 and of 128 buckets: two growths.
        for k in 100..200 {
            let err = t.check_global(k as u32, addr(k), "new", 0, Access::Read, 2);
            assert!(err.is_none());
        }
        let g = &t.global;
        assert_eq!(g.buckets.len(), 256);
        assert_eq!(g.live, 100);
        let stamped = |epoch| g.buckets.iter().filter(|b| b.state.epoch == epoch).count();
        assert_eq!((stamped(t.epoch - 1), stamped(t.epoch)), (0, 100));
        for k in 100..200 {
            let i = g.probe(addr(k)).unwrap();
            assert_eq!(g.buckets[i].state.readers, [k as u16, NO_LANE]);
        }
        for k in 0..40 {
            assert!(g.probe(addr(k)).is_err());
        }
    }

    #[test]
    fn largest_lane_round_trips() {
        let mut t = RaceTracker::new(1);
        assert!(t.check_global(1023, 64, "buf", 16, W, 1).is_none());
        let err = t.check_global(5, 64, "buf", 16, Access::Read, 1);
        assert!(matches!(
            err,
            Some(SimError::DataRace {
                kind: RaceKind::GlobalReadWrite,
                lanes: (1023, 5),
                ..
            })
        ));
        assert!(t.check_shared(1022, 0, Access::Read, 1).is_none());
        assert!(matches!(
            t.check_shared(1023, 0, W, 1),
            Some(SimError::DataRace {
                kind: RaceKind::SharedReadWrite,
                lanes: (1022, 1023),
                ..
            })
        ));
    }

    /// Not a correctness test: a timing probe for the global word
    /// table. Run with
    /// `cargo test --release -p gpu-sim microbench -- --nocapture --ignored`.
    #[test]
    #[ignore]
    fn microbench_race_global_table() {
        const WORDS: u64 = 16 * 1024;
        const PHASES: u64 = 200;
        fn time(t: &mut RaceTracker, what: &str, addr: impl Fn(u64) -> u64) {
            let t0 = std::time::Instant::now();
            for phase in 1..=PHASES {
                for k in 0..WORDS {
                    let lane = (k % 256) as u32;
                    let err = t.check_global(lane, addr(k), "buf", 0, Access::Read, phase);
                    assert!(err.is_none());
                }
                t.end_phase();
            }
            let dt = t0.elapsed();
            let n = PHASES * WORDS;
            let ns = dt.as_nanos() as f64 / n as f64;
            println!("race table, {what}: {n} checks in {dt:?} -> {ns:.1} ns/check");
        }
        let mut t = RaceTracker::new(0);
        time(&mut t, "16k distinct words per phase", |k| 4 * k);
        time(&mut t, "one word per phase", |_| 4096);
    }
}
