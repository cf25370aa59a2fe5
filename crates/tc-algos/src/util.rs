//! Kernel-side helpers shared by the implementations: warp reduction of
//! per-lane triangle counts and traced binary search over device-resident
//! sorted neighbour lists.

use gpu_sim::{BufId, LaneCtx};

/// Number of shuffle steps in a 32-lane tree reduction.
const SHFL_STEPS: u32 = 5;

/// Warp-reduce `value` and add it to `counter[idx]`.
///
/// Models what every published kernel does at the end: a
/// `__shfl_down_sync` tree reduction (5 steps, all lanes active) followed
/// by a single `atomicAdd` from lane 0. The *value* contributed by every
/// lane is applied exactly (via the untraced backchannel) so counts stay
/// correct, while the modeled cost is one atomic per warp rather than 32
/// serialized ones.
pub fn warp_reduce_add(lane: &mut LaneCtx, counter: BufId, idx: usize, value: u32) {
    lane.compute(SHFL_STEPS);
    if lane.lane_id() == 0 {
        lane.atomic_add_global(counter, idx, value);
    } else {
        lane.add_global_untraced(counter, idx, value);
    }
}

/// Traced binary search for `key` in the sorted global segment
/// `col[lo..hi)`. Each probe costs one global load plus one comparison.
pub fn bsearch_global(lane: &mut LaneCtx, col: BufId, mut lo: u32, mut hi: u32, key: u32) -> bool {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let v = lane.ld_global(col, mid as usize);
        lane.compute(1);
        match v.cmp(&key) {
            std::cmp::Ordering::Equal => return true,
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
        }
    }
    false
}

/// Binary search along cross-diagonal `d` of the merge matrix of
/// `a[0..an)` x `b[0..bn)`: returns `i` such that merging
/// `a[..i]`/`b[..d-i]` consumes exactly the first `d` elements of the
/// merge path. Each probe loads one element of each list.
pub fn diagonal_search(
    lane: &mut LaneCtx,
    col: BufId,
    a_base: u32,
    an: u32,
    b_base: u32,
    bn: u32,
    d: u32,
) -> u32 {
    let mut lo = d.saturating_sub(bn);
    let mut hi = d.min(an);
    while lo < hi {
        let i = lo + (hi - lo) / 2;
        let j = d - i - 1;
        // Compare a[i] against b[d - i - 1].
        let av = lane.ld_global(col, (a_base + i) as usize);
        let bv = lane.ld_global(col, (b_base + j) as usize);
        lane.compute(1);
        if av < bv {
            lo = i + 1;
        } else {
            hi = i;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{Device, DeviceMem, KernelConfig};

    #[test]
    fn warp_reduce_add_is_exact_and_cheap() {
        let dev = Device::v100();
        let mut mem = DeviceMem::new(&dev);
        let counter = mem.alloc_zeroed(1, "counter").unwrap();
        let stats = dev
            .launch(&mem, KernelConfig::new(1, 64), |blk| {
                blk.phase(|lane| {
                    let v = lane.tid();
                    warp_reduce_add(lane, counter, 0, v);
                });
            })
            .unwrap();
        // Sum of 0..64.
        assert_eq!(mem.read_back(counter)[0], (0..64).sum::<u32>());
        // Two warps -> exactly two atomic requests.
        assert_eq!(stats.counters.global_atomic_requests, 2);
    }

    #[test]
    fn bsearch_global_finds_all_and_only_members() {
        let dev = Device::v100();
        let mut mem = DeviceMem::new(&dev);
        let data: Vec<u32> = vec![2, 3, 5, 7, 11, 13, 17, 19];
        let buf = mem.alloc_from_slice(&data, "sorted").unwrap();
        let hits = mem.alloc_zeroed(25, "hits").unwrap();
        dev.launch(&mem, KernelConfig::new(1, 32), |blk| {
            blk.phase(|lane| {
                let key = lane.tid();
                if key < 25 && bsearch_global(lane, buf, 0, 8, key) {
                    lane.st_global(hits, key as usize, 1);
                }
            });
        })
        .unwrap();
        let hit = mem.read_back(hits);
        for k in 0..25u32 {
            assert_eq!(hit[k as usize] == 1, data.contains(&k), "key {k}");
        }
    }
}
