use crate::counters::ProfileCounters;

/// Cycle costs charged per issued warp-instruction slot.
///
/// Slot costs are *visible-latency* scale (what a dependent instruction
/// chain experiences after intra-warp overlap), not raw throughput: a
/// merge whose next load depends on the previous comparison pays the
/// cache round-trip each step, which is exactly why Polak's long
/// straggler lanes dominate warp time on large graphs. Device-level
/// latency hiding across warps is modelled by the block-level wave
/// scheduler plus the DRAM bandwidth floor, so the absolute values
/// matter less than the ratios; they are loosely calibrated to a Tesla
/// V100 (cheap ALU, ~30-cycle L1, a few hundred cycles to DRAM, 32-byte
/// sectors on the wire).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cycles per arithmetic warp instruction.
    pub compute: u64,
    /// Cycles for a global load slot fully served by the L1 model.
    pub global_hit: u64,
    /// Extra cycles per additional L1 wavefront: a divergent request
    /// touching k sectors occupies the LSU/L1 pipe for ~k cycles even
    /// when every sector hits.
    pub l1_wavefront: u64,
    /// Base cycles for a global load/store slot that misses to DRAM.
    pub global_issue: u64,
    /// Additional cycles per 32-byte DRAM sector transferred.
    pub global_sector: u64,
    /// Cycles per shared-memory access slot (conflict-free).
    pub shared_access: u64,
    /// Extra cycles per additional shared-memory bank conflict way.
    pub shared_conflict: u64,
    /// Base cycles per global atomic slot.
    pub global_atomic: u64,
    /// Extra cycles per same-address collision way of a global atomic.
    pub global_atomic_conflict: u64,
    /// Base cycles per shared atomic slot.
    pub shared_atomic: u64,
    /// Extra cycles per same-address collision way of a shared atomic.
    pub shared_atomic_conflict: u64,
    /// Device-wide DRAM bandwidth: 32-byte sectors the memory system can
    /// deliver per cycle (V100: ~900 GB/s at 1.38 GHz ≈ 20 sectors).
    /// Kernel time is floored at [`CostModel::dram_floor_cycles`] —
    /// triangle counting is memory-bound, as the paper stresses.
    pub dram_sectors_per_cycle: u64,
}

impl CostModel {
    /// V100-flavoured defaults.
    pub const fn v100() -> Self {
        CostModel {
            compute: 2,
            global_hit: 30,
            l1_wavefront: 2,
            global_issue: 150,
            global_sector: 16,
            shared_access: 25,
            shared_conflict: 8,
            global_atomic: 120,
            global_atomic_conflict: 40,
            shared_atomic: 30,
            shared_atomic_conflict: 10,
            dram_sectors_per_cycle: 20,
        }
    }

    /// RTX 4090 (Ada)-flavoured costs, scaled off [`CostModel::v100`]
    /// with the same single-clock-domain convention (kernel time is
    /// reported by `cycles_to_ms` at the V100 reference clock, so the
    /// higher boost clock of Ada is folded into cheaper slots here):
    ///
    /// * ALU and shared memory are markedly cheaper — Ada's ~2.5 GHz
    ///   boost clock and 128 KB unified L1/shared per SM cut both the
    ///   visible ALU latency and the shared round-trip roughly in half
    ///   relative to the 1.38 GHz reference clock.
    /// * L1 hits are cheaper and divergent wavefronts drain faster (the
    ///   4090's L1 bandwidth per SM is about twice Volta's).
    /// * DRAM round-trip latency in reference cycles stays V100-like
    ///   (GDDR6X latency is no better than HBM2), but the *bandwidth*
    ///   floor is looser: ~1 TB/s at the reference clock is ~24 sectors
    ///   per cycle, and the 72 MB L2 absorbs enough re-reads that the
    ///   effective sectors-per-cycle the floor sees is higher still; we
    ///   use 28.
    /// * Atomics benefit from the larger L2 slice count: cheaper base
    ///   cost and milder same-address serialization.
    pub const fn rtx4090() -> Self {
        CostModel {
            compute: 1,
            global_hit: 18,
            l1_wavefront: 1,
            global_issue: 140,
            global_sector: 12,
            shared_access: 12,
            shared_conflict: 4,
            global_atomic: 80,
            global_atomic_conflict: 24,
            shared_atomic: 16,
            shared_atomic_conflict: 6,
            dram_sectors_per_cycle: 28,
        }
    }

    /// Cost of a global load slot addressing `total_sectors` distinct
    /// sectors of which `miss_sectors` went to DRAM: the L1 pipe
    /// serializes one wavefront per sector (even on hits), and any miss
    /// adds the DRAM round-trip plus per-sector transfer.
    #[inline]
    pub fn global_load_slot(&self, total_sectors: u64, miss_sectors: u64) -> u64 {
        let l1 = self.global_hit + self.l1_wavefront * total_sectors.saturating_sub(1);
        if miss_sectors == 0 {
            l1
        } else {
            l1 + self.global_issue + self.global_sector * miss_sectors
        }
    }

    /// Cost of a global store slot writing `sectors` sectors
    /// (write-through; no hit path). Every store writes at least one.
    #[inline]
    pub fn global_slot(&self, sectors: u64) -> u64 {
        self.global_issue + self.global_sector * sectors
    }

    /// Cost of a shared load/store slot with a `ways`-way bank conflict
    /// (`ways == 1` means conflict-free).
    #[inline]
    pub fn shared_slot(&self, ways: u64) -> u64 {
        self.shared_access + self.shared_conflict * ways.saturating_sub(1)
    }

    /// Cost of a global atomic slot whose worst single-address collision
    /// depth within the warp is `depth`.
    #[inline]
    pub fn global_atomic_slot(&self, depth: u64) -> u64 {
        self.global_atomic + self.global_atomic_conflict * depth.max(1).saturating_sub(1)
    }

    /// Cost of a shared atomic slot.
    #[inline]
    pub fn shared_atomic_slot(&self, depth: u64) -> u64 {
        self.shared_atomic + self.shared_atomic_conflict * depth.max(1).saturating_sub(1)
    }

    /// The DRAM bandwidth floor of a launch that moved `c`'s traffic: no
    /// kernel finishes faster than DRAM delivers its sectors, however
    /// much SM-level parallelism hides latency. Load misses, store
    /// transactions and atomic *sectors* count (scattered atomics move a
    /// sector per lane), and a partial trailing sector still occupies a
    /// full delivery cycle.
    pub fn dram_floor_cycles(&self, c: &ProfileCounters) -> u64 {
        let sectors = c.dram_load_sectors + c.gst_transactions + c.dram_atomic_sectors;
        sectors.div_ceil(self.dram_sectors_per_cycle.max(1))
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::v100()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesced_load_cheaper_than_scattered() {
        let m = CostModel::v100();
        assert!(m.global_load_slot(1, 1) < m.global_load_slot(32, 32));
    }

    #[test]
    fn l1_hits_are_much_cheaper_than_misses() {
        let m = CostModel::v100();
        assert!(m.global_load_slot(1, 0) * 4 < m.global_load_slot(1, 1));
    }

    #[test]
    fn conflict_free_shared_is_base_cost() {
        let m = CostModel::v100();
        assert_eq!(m.shared_slot(1), m.shared_access);
        assert_eq!(m.shared_slot(0), m.shared_access);
        assert!(m.shared_slot(4) > m.shared_slot(1));
    }

    #[test]
    fn atomic_collision_depth_scales_cost() {
        let m = CostModel::v100();
        assert_eq!(m.global_atomic_slot(0), m.global_atomic);
        assert_eq!(m.global_atomic_slot(1), m.global_atomic);
        assert!(m.global_atomic_slot(32) > m.global_atomic_slot(1));
        assert!(m.shared_atomic_slot(8) > m.shared_atomic_slot(1));
    }

    #[test]
    fn shared_cheaper_than_global_miss() {
        let m = CostModel::v100();
        assert!(m.shared_slot(1) < m.global_slot(1));
    }

    #[test]
    fn rtx4090_is_a_distinct_faster_model() {
        let v = CostModel::v100();
        let a = CostModel::rtx4090();
        assert_ne!(a, v);
        // Ada: cheaper ALU/shared/L1, looser bandwidth floor...
        assert!(a.compute < v.compute);
        assert!(a.shared_slot(1) < v.shared_slot(1));
        assert!(a.global_load_slot(4, 0) < v.global_load_slot(4, 0));
        assert!(a.dram_sectors_per_cycle > v.dram_sectors_per_cycle);
        assert!(a.global_atomic_slot(32) < v.global_atomic_slot(32));
        // ...but no miracle on DRAM round-trip latency.
        assert!(a.global_issue >= v.global_issue * 9 / 10);
    }
}
