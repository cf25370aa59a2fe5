//! The cycle price of a replay. Every constant of [`CostModel`] is a
//! price per counted event: the replay only counts ([`ProfileCounters`]),
//! and [`CostModel::cycles`] prices a finished warp once, as the sum of
//! each constant times the counter it multiplies. Each field's doc names
//! that counter.

use crate::counters::ProfileCounters;

/// Cycle prices per counted event.
///
/// Prices are *visible-latency* scale (what a dependent instruction
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
    /// Cycles per arithmetic warp instruction (`compute_slots`).
    pub compute: u64,
    /// Cycles per global load slot, the L1 round-trip every load pays
    /// (`global_load_requests`).
    pub global_hit: u64,
    /// Cycles per L1 wavefront beyond a load's first
    /// (`gld_transactions − global_load_requests`): a divergent request
    /// touching k sectors occupies the LSU/L1 pipe for ~k cycles even
    /// when every sector hits.
    pub l1_wavefront: u64,
    /// Cycles per DRAM round-trip: a load slot with any L1 miss, or a
    /// store slot (`global_load_miss_requests + global_store_requests`).
    pub global_issue: u64,
    /// Cycles per 32-byte sector moved to or from DRAM by a load or a
    /// store (`dram_load_sectors + gst_transactions`).
    pub global_sector: u64,
    /// Cycles per shared load or store slot
    /// (`shared_load_requests + shared_store_requests`).
    pub shared_access: u64,
    /// Cycles per extra bank-conflict way (`shared_bank_conflicts`).
    pub shared_conflict: u64,
    /// Cycles per global atomic slot (`global_atomic_requests`).
    pub global_atomic: u64,
    /// Cycles per serialized same-address update of a global atomic
    /// (`global_atomic_collisions`).
    pub global_atomic_conflict: u64,
    /// Cycles per shared atomic slot (`shared_atomic_requests`).
    pub shared_atomic: u64,
    /// Cycles per serialized same-address update of a shared atomic
    /// (`shared_atomic_collisions`).
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

    /// The cycles of the slots counted in `c`: each price times the
    /// counter it multiplies. Every slot's price is linear in that
    /// slot's counts, so pricing a warp's summed counters once equals
    /// summing its slots' prices. A load slot addresses at least one
    /// sector, so `gld_transactions ≥ global_load_requests`.
    pub fn cycles(&self, c: &ProfileCounters) -> u64 {
        self.compute * c.compute_slots
            + self.global_hit * c.global_load_requests
            + self.l1_wavefront * (c.gld_transactions - c.global_load_requests)
            + self.global_issue * (c.global_load_miss_requests + c.global_store_requests)
            + self.global_sector * (c.dram_load_sectors + c.gst_transactions)
            + self.shared_access * (c.shared_load_requests + c.shared_store_requests)
            + self.shared_conflict * c.shared_bank_conflicts
            + self.global_atomic * c.global_atomic_requests
            + self.global_atomic_conflict * c.global_atomic_collisions
            + self.shared_atomic * c.shared_atomic_requests
            + self.shared_atomic_conflict * c.shared_atomic_collisions
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

#[cfg(test)]
mod tests {
    use super::*;

    /// One global load slot addressing `sectors` sectors, `misses` of
    /// them L1 misses.
    fn load(sectors: u64, misses: u64) -> ProfileCounters {
        ProfileCounters {
            global_load_requests: 1,
            gld_transactions: sectors,
            dram_load_sectors: misses,
            global_load_miss_requests: u64::from(misses > 0),
            ..Default::default()
        }
    }

    /// One global store slot writing `sectors` sectors.
    fn store(sectors: u64) -> ProfileCounters {
        ProfileCounters {
            global_store_requests: 1,
            gst_transactions: sectors,
            ..Default::default()
        }
    }

    /// One shared load slot with a `ways`-way bank conflict.
    fn shared(ways: u64) -> ProfileCounters {
        ProfileCounters {
            shared_load_requests: 1,
            shared_bank_conflicts: ways.saturating_sub(1),
            ..Default::default()
        }
    }

    /// One global atomic slot of collision depth `depth`.
    fn global_atomic(depth: u64) -> ProfileCounters {
        ProfileCounters {
            global_atomic_requests: 1,
            global_atomic_collisions: depth.saturating_sub(1),
            ..Default::default()
        }
    }

    /// One shared atomic slot of collision depth `depth`.
    fn shared_atomic(depth: u64) -> ProfileCounters {
        ProfileCounters {
            shared_atomic_requests: 1,
            shared_atomic_collisions: depth.saturating_sub(1),
            ..Default::default()
        }
    }

    #[test]
    fn coalesced_load_cheaper_than_scattered() {
        let m = CostModel::v100();
        assert!(m.cycles(&load(1, 1)) < m.cycles(&load(32, 32)));
    }

    #[test]
    fn l1_hits_are_much_cheaper_than_misses() {
        let m = CostModel::v100();
        assert!(m.cycles(&load(1, 0)) * 4 < m.cycles(&load(1, 1)));
    }

    #[test]
    fn conflict_free_shared_is_base_cost() {
        let m = CostModel::v100();
        assert_eq!(m.cycles(&shared(1)), m.shared_access);
        assert_eq!(m.cycles(&shared(0)), m.shared_access);
        assert!(m.cycles(&shared(4)) > m.cycles(&shared(1)));
    }

    #[test]
    fn atomic_collision_depth_scales_cost() {
        let m = CostModel::v100();
        assert_eq!(m.cycles(&global_atomic(0)), m.global_atomic);
        assert_eq!(m.cycles(&global_atomic(1)), m.global_atomic);
        assert!(m.cycles(&global_atomic(32)) > m.cycles(&global_atomic(1)));
        assert!(m.cycles(&shared_atomic(8)) > m.cycles(&shared_atomic(1)));
    }

    #[test]
    fn shared_cheaper_than_global_miss() {
        let m = CostModel::v100();
        assert!(m.cycles(&shared(1)) < m.cycles(&store(1)));
    }

    #[test]
    fn summed_slots_price_as_the_sum_of_their_prices() {
        let m = CostModel::v100();
        let slots = [
            load(3, 2),
            load(5, 0),
            store(2),
            shared(4),
            global_atomic(7),
            shared_atomic(3),
            ProfileCounters {
                compute_slots: 9,
                ..Default::default()
            },
        ];
        let mut sum = ProfileCounters::default();
        for s in slots {
            sum += s;
        }
        let priced: u64 = slots.iter().map(|s| m.cycles(s)).sum();
        assert_eq!(m.cycles(&sum), priced);
        assert_eq!(m.cycles(&ProfileCounters::default()), 0);
    }
}
