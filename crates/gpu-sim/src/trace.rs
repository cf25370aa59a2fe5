/// One recorded lane operation (the *logical* view).
///
/// Lanes append one op per simulated instruction — except arithmetic,
/// which is *run-length encoded*: `Compute(n)` stands for `n` consecutive
/// arithmetic instructions. The warp replayer aligns the traces of the 32
/// lanes of a warp step-by-step and charges each step according to the
/// [`crate::CostModel`]; compute runs are consumed in `min`-run batches
/// that are bit-identical to stepping one instruction at a time (see
/// `replay_warp`). Addresses are byte addresses in the flat device
/// address space (global) or word indices (shared).
///
/// In memory each op is a single `PackedOp` word, not this enum: the
/// trace streams are the simulator's dominant memory traffic (billions
/// of op units on a medium-graph sweep), and 8 bytes/op instead of the
/// enum's padded 16 halves what the record and replay loops pull
/// through the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Global-memory load of one 4-byte word at the given byte address.
    GLoad(u64),
    /// Global load served by the lane's recently-touched sectors (L1
    /// spatial reuse — e.g. the next element of a sequential scan). Counts
    /// as part of the warp's load request but adds no DRAM transaction.
    GLoadHit(u64),
    /// Global-memory store of one 4-byte word.
    GStore(u64),
    /// Global-memory atomic read-modify-write.
    GAtomic(u64),
    /// Shared-memory load at the given word index.
    SLoad(u32),
    /// Shared-memory store.
    SStore(u32),
    /// Shared-memory atomic read-modify-write.
    SAtomic(u32),
    /// A run of `n >= 1` consecutive arithmetic/logic instructions
    /// (comparisons, adds, address math...). `LaneTrace::push_compute`
    /// merges adjacent runs, so a merge loop that calls
    /// `lane.compute(1)` per iteration between loads still records one
    /// word per run rather than one per instruction.
    Compute(u32),
    /// Warp-reconvergence marker (`__syncwarp` / the implicit branch
    /// re-join at the bottom of a loop): lanes that reach it wait for
    /// every other lane, re-aligning the lockstep replay. Costs nothing
    /// by itself; the cost is the stall of the lanes that arrive early.
    Converge,
}

// Tag order is load-bearing: the replay gather loop treats every tag
// below `TAG_COMPUTE` as a memory op and uses the tag directly as the
// index of its per-kind address list, so the seven memory kinds must
// stay contiguous from zero.
pub(crate) const TAG_GLOAD: u64 = 0;
pub(crate) const TAG_GLOAD_HIT: u64 = 1;
pub(crate) const TAG_GSTORE: u64 = 2;
pub(crate) const TAG_GATOMIC: u64 = 3;
pub(crate) const TAG_SLOAD: u64 = 4;
pub(crate) const TAG_SSTORE: u64 = 5;
pub(crate) const TAG_SATOMIC: u64 = 6;
pub(crate) const TAG_COMPUTE: u64 = 7;
pub(crate) const TAG_CONVERGE: u64 = 8;

/// One trace word: `payload << 4 | tag`. 60 payload bits hold any
/// simulated device address (device memory is orders of magnitude
/// smaller), a shared word index, or a compute run length. Compute runs
/// merge by adding `n << 4` directly to the word; the run length reads
/// back modulo 2^32, exactly the wrapping the unpacked `u32` run had.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedOp(u64);

impl PackedOp {
    #[inline]
    pub fn pack(op: Op) -> Self {
        let (tag, payload) = match op {
            Op::GLoad(a) => (TAG_GLOAD, a),
            Op::GLoadHit(a) => (TAG_GLOAD_HIT, a),
            Op::GStore(a) => (TAG_GSTORE, a),
            Op::GAtomic(a) => (TAG_GATOMIC, a),
            Op::SLoad(i) => (TAG_SLOAD, i as u64),
            Op::SStore(i) => (TAG_SSTORE, i as u64),
            Op::SAtomic(i) => (TAG_SATOMIC, i as u64),
            Op::Compute(n) => (TAG_COMPUTE, n as u64),
            Op::Converge => (TAG_CONVERGE, 0),
        };
        debug_assert!(payload < 1 << 60, "address beyond the packed range");
        PackedOp(payload << 4 | tag)
    }

    /// The raw packed word (`payload << 4 | tag`). The replay gather
    /// loop dispatches on the tag bits and shifts the payload in place
    /// rather than materializing an [`Op`] per trace word.
    #[inline]
    pub(crate) fn word(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn unpack(self) -> Op {
        let payload = self.0 >> 4;
        match self.0 & 0xf {
            TAG_GLOAD => Op::GLoad(payload),
            TAG_GLOAD_HIT => Op::GLoadHit(payload),
            TAG_GSTORE => Op::GStore(payload),
            TAG_GATOMIC => Op::GAtomic(payload),
            TAG_SLOAD => Op::SLoad(payload as u32),
            TAG_SSTORE => Op::SStore(payload as u32),
            TAG_SATOMIC => Op::SAtomic(payload as u32),
            TAG_COMPUTE => Op::Compute(payload as u32),
            TAG_CONVERGE => Op::Converge,
            tag => unreachable!("corrupt trace word: tag {tag}"),
        }
    }
}

/// The recorded instruction stream of one lane within one phase.
#[derive(Debug, Default, Clone)]
pub struct LaneTrace {
    pub ops: Vec<PackedOp>,
}

impl LaneTrace {
    /// Build a trace from logical ops.
    #[cfg(test)]
    pub fn from_ops(ops: &[Op]) -> Self {
        LaneTrace {
            ops: ops.iter().map(|&op| PackedOp::pack(op)).collect(),
        }
    }

    #[inline]
    pub fn push(&mut self, op: Op) {
        self.ops.push(PackedOp::pack(op));
    }

    /// Record `n` arithmetic instructions, merging with a trailing
    /// compute run so adjacent arithmetic collapses into one trace word.
    /// `n == 0` records nothing (the `Compute(n)` invariant is `n >= 1`).
    #[inline]
    pub fn push_compute(&mut self, n: u32) {
        if n == 0 {
            return;
        }
        if let Some(last) = self.ops.last_mut() {
            if last.0 & 0xf == TAG_COMPUTE {
                last.0 += (n as u64) << 4;
                return;
            }
        }
        self.ops.push(PackedOp::pack(Op::Compute(n)));
    }

    /// Whether the lane recorded no ops.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    pub fn clear(&mut self) {
        self.ops.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn logical(t: &LaneTrace) -> Vec<Op> {
        t.ops.iter().map(|w| w.unpack()).collect()
    }

    #[test]
    fn push_compute_merges_adjacent_runs() {
        let mut t = LaneTrace::default();
        t.push_compute(1);
        t.push_compute(3);
        assert_eq!(logical(&t), vec![Op::Compute(4)]);
        t.push(Op::GLoad(0));
        t.push_compute(2);
        t.push_compute(0); // no-op
        assert_eq!(
            logical(&t),
            vec![Op::Compute(4), Op::GLoad(0), Op::Compute(2)]
        );
    }

    #[test]
    fn pack_round_trips_every_variant() {
        for op in [
            Op::GLoad(0),
            Op::GLoad((1 << 40) + 12),
            Op::GLoadHit(652),
            Op::GStore(96),
            Op::GAtomic(1 << 59 | 4),
            Op::SLoad(0),
            Op::SStore(u32::MAX),
            Op::SAtomic(31),
            Op::Compute(1),
            Op::Compute(u32::MAX),
            Op::Converge,
        ] {
            assert_eq!(PackedOp::pack(op).unpack(), op);
        }
    }
}
