//! The per-block checker: the race detector (`gpu_sim::race`), SimSan
//! (`gpu_sim::sanitize`) and both halves of SimLint (`gpu_sim::lint`)
//! behind one per-block hook. The rules live in their modules; this one
//! routes each recorded access to the enabled analyses, hands SimLint's
//! observer to the replay, and keeps the one phase counter every
//! `pc_hint` names. A global access arrives with its resolved `Buffer`,
//! so one buffer resolution serves every analysis.

use std::sync::atomic::Ordering;
use std::sync::Mutex;

use crate::counters::ProfileCounters;
use crate::device::Checks;
use crate::lint::{BarrierLint, LintObserver};
use crate::mem::Buffer;
use crate::race::{Access, RaceTracker};
use crate::sanitize::SanTracker;
use crate::SimError;

/// The analyses of one block. One checker lives in each worker's
/// `BlockScratch` and is [`reset`](Self::reset) per block, so its tables
/// keep their capacity. An analysis the device does not enable is never
/// reset or consulted, so its statistics stay 0.
///
/// SimLint's two halves both live here: the barrier verifier on the
/// record side and the performance observer the replay feeds. One
/// `Checks::lint` test, one reset and one block-end fold cover both.
#[derive(Default)]
pub(crate) struct BlockChecker {
    checks: Checks,
    /// Current barrier phase within the block (1-based).
    phase: u64,
    race: RaceTracker,
    san: SanTracker,
    barrier: BarrierLint,
    lint: LintObserver,
}

impl BlockChecker {
    pub(crate) fn new(checks: Checks) -> Self {
        BlockChecker {
            checks,
            ..BlockChecker::default()
        }
    }

    /// Start a new block with `shared_words` words of shared memory and
    /// `block_dim` lanes: phase 1, no records, zeroed statistics. `None`
    /// when the device runs no record-side analysis, so a plain launch
    /// skips the checker with one test per access.
    pub(crate) fn reset(&mut self, shared_words: usize, block_dim: u32) -> Option<&mut Self> {
        let Checks { race, san, lint } = self.checks;
        if !(race || san || lint) {
            return None;
        }
        self.phase = 1;
        if race {
            self.race.reset(shared_words);
        }
        if san {
            self.san.reset(shared_words);
        }
        if lint {
            self.barrier.reset(block_dim);
            self.lint.reset();
        }
        Some(self)
    }

    /// SimLint's performance observer, for the replay to show every slot
    /// it charges; `None` unless the device enables lints.
    pub(crate) fn observer(&mut self) -> Option<&mut LintObserver> {
        self.checks.lint.then_some(&mut self.lint)
    }

    /// Vet lane `lane`'s access to shared word `idx`; `val` is the word a
    /// store writes. SimSan runs first and the first finding wins. An
    /// out-of-range index is left to the access, which faults.
    pub(crate) fn shared(
        &mut self,
        lane: u32,
        shared: &[u32],
        idx: usize,
        access: Access,
        val: u32,
    ) -> Option<SimError> {
        let phase = self.phase;
        if self.checks.san {
            let err = self.san.check_shared(lane, idx, access, phase);
            if err.is_some() {
                return err;
            }
        }
        if self.checks.race {
            let cur = *shared.get(idx)?;
            let access = silent_store(access, || cur, val);
            return self.race.check_shared(lane, idx, access, phase);
        }
        None
    }

    /// Vet lane `lane`'s access to word `idx` of `buf` like
    /// [`shared`](Self::shared), before the access runs, so that SimSan
    /// names redzone and freed-buffer hits instead of a bare
    /// `MemoryFault`. Global atomics are SimSan's alone. `buf` is the
    /// lane's resolved buffer: the shadow probe, the byte address and
    /// the word all come from it, with no buffer-table lookup.
    pub(crate) fn global(
        &mut self,
        lane: u32,
        buf: &Buffer,
        idx: usize,
        access: Access,
        val: u32,
    ) -> Option<SimError> {
        let (name, phase) = (buf.name(), self.phase);
        if self.checks.san {
            let state = buf.shadow_state(idx);
            let err = self.san.check_global(lane, state, name, idx, access, phase);
            if err.is_some() {
                return err;
            }
        }
        if self.checks.race && access != Access::Atomic {
            let word = buf.word(idx)?;
            let access = silent_store(access, || word.load(Ordering::Relaxed), val);
            let addr = buf.addr_of(idx);
            return self.race.check_global(lane, addr, name, idx, access, phase);
        }
        None
    }

    /// Lane `tid` reached an explicit barrier.
    #[inline(never)]
    pub(crate) fn arrive(&mut self, tid: u32) {
        if self.checks.lint {
            self.barrier.arrive(tid);
        }
    }

    /// Lane `tid` exited the kernel.
    #[inline(never)]
    pub(crate) fn retire(&mut self, tid: u32) {
        if self.checks.lint {
            self.barrier.retire(tid, self.phase);
        }
    }

    /// Close the phase of block `block`, whose replay charged `counters`
    /// (handed to SimLint's observer). Returns the barrier verifier's
    /// finding, unless the block has already `faulted`: a fault cuts the
    /// phase short mid-warp, so the lanes that never ran would look
    /// divergent, and the original fault wins.
    pub(crate) fn end_phase(
        &mut self,
        block: u32,
        counters: &ProfileCounters,
        faulted: bool,
    ) -> Option<SimError> {
        if self.checks.race {
            self.race.end_phase();
        }
        let mut err = None;
        if self.checks.lint {
            self.lint.end_phase(counters);
            err = self.barrier.end_phase(block, self.phase);
        }
        self.phase += 1;
        err.filter(|_| !faulted)
    }

    /// Block `block` completed with counters `c`: add its check
    /// statistics to them, and fold SimLint's observations into the
    /// launch's accumulator `lint_acc` (`Some` exactly when the device
    /// enables lints).
    pub(crate) fn finish(
        &self,
        block: u32,
        c: &mut ProfileCounters,
        lint_acc: Option<&Mutex<LintObserver>>,
    ) {
        c.race_checks += self.race.checks;
        c.sanitizer_checks += self.san.checks;
        c.lint_checks += self.barrier.checks;
        if let Some(acc) = lint_acc {
            // The observer saw every memory slot the replay issued.
            c.lint_checks += c.issued_slots - c.compute_slots;
            // The lock is held only for the fold, which never panics on
            // valid observers; a poisoned lock is a simulator bug.
            acc.lock()
                .expect("a block panicked while folding SimLint observations")
                .fold(&self.lint, block);
        }
    }
}

/// `access` against a word whose value `cur` reads, where a store
/// writes `val`: a store of the current value is silent (see
/// [`Access::Write`]). Only a store reads the word.
fn silent_store(mut access: Access, cur: impl FnOnce() -> u32, val: u32) -> Access {
    if let Access::Write { changes_value } = &mut access {
        *changes_value = cur() != val;
    }
    access
}
