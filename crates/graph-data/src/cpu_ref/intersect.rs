//! The four list-intersection primitives of Section II-B (Merge, Binary
//! Search, Hash, BitMap) as plain CPU routines. Each returns the size of
//! the intersection of two strictly-ascending lists. The GPU kernels
//! re-implement these against the simulator; these copies are the oracle
//! the property tests compare against.

use std::cell::RefCell;

use crate::types::VertexId;

/// Two-pointer merge intersection (the Forward/Polak primitive).
pub fn intersect_merge(a: &[VertexId], b: &[VertexId]) -> u64 {
    let mut count = 0u64;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Binary-search intersection: each element of the shorter list is looked
/// up in the longer one (the TriCore/Hu primitive).
pub fn intersect_binsearch(a: &[VertexId], b: &[VertexId]) -> u64 {
    let (keys, table) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    keys.iter()
        .filter(|k| table.binary_search(k).is_ok())
        .count() as u64
}

/// A chained hash set of one strictly-ascending vertex list, the table
/// of the hash primitive that the H-INDEX, TRUST and GroupTC-H kernels
/// use. Of the host twins only GroupTC-H's hashes, through
/// [`intersect_hash`]; the others mark a [`Bitmap`].
///
/// The table is flat: a counting sort of the list into one array of
/// bucket starts and one array of slots, where bucket `k` is
/// `slots[starts[k]..starts[k + 1]]`. A rebuild reuses both arrays and
/// never shrinks them, so once they have grown to the longest list and
/// the widest table a build allocates nothing. The bucket count is
/// rounded up to a power of two (GroupTC-H's 256 already is), so a
/// mask picks the bucket; no count depends on the hash.
/// Buckets and the chain scan per probe are those of the GPU kernels,
/// minus their shared-memory layout.
#[derive(Debug, Default)]
pub struct HashTable {
    starts: Vec<u32>,
    slots: Vec<VertexId>,
    mask: usize,
}

impl HashTable {
    /// An empty table, holding no list until the first [`build`](Self::build).
    pub const fn new() -> Self {
        HashTable {
            starts: Vec::new(),
            slots: Vec::new(),
            mask: 0,
        }
    }

    /// Replace the table's contents with `list`, hashed into `buckets`
    /// buckets.
    pub fn build(&mut self, list: &[VertexId], buckets: usize) {
        let buckets = buckets.max(1).next_power_of_two();
        self.mask = buckets - 1;
        let starts = &mut self.starts;
        // Count each bucket's size, prefix-sum the counts into bucket
        // ends, then place every element by decrementing its bucket's
        // end: once all are placed, each end has become its start.
        starts.clear();
        starts.resize(buckets + 1, 0);
        for &x in list {
            starts[x as usize & self.mask] += 1;
        }
        let mut end = 0;
        for s in starts.iter_mut() {
            end += *s;
            *s = end;
        }
        if self.slots.len() < list.len() {
            self.slots.resize(list.len(), 0);
        }
        for &x in list {
            let s = &mut starts[x as usize & self.mask];
            *s -= 1;
            self.slots[*s as usize] = x;
        }
    }

    /// Whether the last built list holds `x`. Panics before the first
    /// [`build`](Self::build).
    #[inline]
    pub fn contains(&self, x: VertexId) -> bool {
        let k = x as usize & self.mask;
        self.slots[self.starts[k] as usize..self.starts[k + 1] as usize].contains(&x)
    }
}

/// Hash intersection with `buckets` chained buckets (the H-INDEX and
/// GroupTC-H kernels' primitive, and the GroupTC-H host twin's): the
/// shorter list builds a [`HashTable`] and the longer one probes it. The
/// table lives in a per-thread scratch that every call reuses, so once
/// it has grown to a thread's largest lists a call allocates nothing.
pub fn intersect_hash(a: &[VertexId], b: &[VertexId], buckets: usize) -> u64 {
    let (build, probe) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    HASH_TABLE.with(|table| {
        let table = &mut *table.borrow_mut();
        table.build(build, buckets);
        probe.iter().filter(|&&x| table.contains(x)).count() as u64
    })
}

thread_local! {
    /// `intersect_hash`'s table.
    static HASH_TABLE: RefCell<HashTable> = const { RefCell::new(HashTable::new()) };
}

/// A bitmap over the vertex-ID space, one bit per id: the table of the
/// Bisson primitive and the scratch of the bitmap host twins.
///
/// A caller keeps one per worker, marks a list, tests ids against it and
/// unmarks the same list, which clears only the words that list touched.
/// So a mark/unmark cycle costs the list's length, not the id space, and
/// the bitmap is all zeros again between cycles.
#[derive(Debug)]
pub struct Bitmap {
    words: Vec<u32>,
}

impl Bitmap {
    /// An all-zero bitmap for the ids `0..id_space`.
    pub fn new(id_space: u32) -> Self {
        Bitmap {
            words: vec![0; (id_space as usize).div_ceil(32)],
        }
    }

    /// Set the bit of every id in `list`.
    #[inline]
    pub fn mark(&mut self, list: &[VertexId]) {
        for &x in list {
            self.words[x as usize / 32] |= 1 << (x % 32);
        }
    }

    /// Whether `x`'s bit is set.
    #[inline]
    pub fn contains(&self, x: VertexId) -> bool {
        self.words[x as usize / 32] >> (x % 32) & 1 == 1
    }

    /// Clear the bit of every id in `list`. Unmarking the list last
    /// marked leaves the bitmap all zeros.
    #[inline]
    pub fn unmark(&mut self, list: &[VertexId]) {
        for &x in list {
            self.words[x as usize / 32] &= !(1 << (x % 32));
        }
    }
}

/// Bitmap intersection (the Bisson primitive): mark one list in a bitmap
/// spanning the vertex-ID space, then test the other.
pub fn intersect_bitmap(a: &[VertexId], b: &[VertexId], id_space: u32) -> u64 {
    let mut bits = Bitmap::new(id_space);
    bits.mark(a);
    b.iter().filter(|&&x| bits.contains(x)).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: &[u32] = &[1, 3, 5, 7, 9];
    const B: &[u32] = &[2, 3, 4, 7, 10, 12];

    #[test]
    fn all_primitives_agree_on_example() {
        assert_eq!(intersect_merge(A, B), 2);
        assert_eq!(intersect_binsearch(A, B), 2);
        assert_eq!(intersect_hash(A, B, 4), 2);
        assert_eq!(intersect_bitmap(A, B, 13), 2);
    }

    #[test]
    fn empty_lists() {
        assert_eq!(intersect_merge(&[], B), 0);
        assert_eq!(intersect_binsearch(A, &[]), 0);
        assert_eq!(intersect_hash(&[], &[], 8), 0);
        assert_eq!(intersect_bitmap(&[], B, 13), 0);
    }

    #[test]
    fn identical_lists() {
        assert_eq!(intersect_merge(A, A), A.len() as u64);
        assert_eq!(intersect_binsearch(A, A), A.len() as u64);
        assert_eq!(intersect_hash(A, A, 2), A.len() as u64);
        assert_eq!(intersect_bitmap(A, A, 10), A.len() as u64);
    }

    #[test]
    fn single_bucket_hash_degenerates_to_scan() {
        assert_eq!(intersect_hash(A, B, 1), 2);
    }

    /// Pseudo-random strictly-ascending list of about `len` ids below
    /// `len * 4`.
    fn ascending(len: u32, seed: u32) -> Vec<u32> {
        (0..len * 4)
            .filter(|&x| {
                (x ^ seed.wrapping_mul(0x9E37_79B9)).wrapping_mul(2_654_435_761) >> 30 == 0
            })
            .collect()
    }

    #[test]
    fn hash_table_reuse_across_bucket_counts_and_lengths() {
        // The per-thread table grows and shrinks its live region between
        // calls; stale slots and starts must never leak into a count.
        for (buckets, len) in [(1024, 3000), (32, 40), (7, 500), (1, 9), (1024, 5)] {
            for seed in 0..4 {
                let a = ascending(len, seed);
                let b = ascending(len + 17 * seed, seed + 1);
                assert_eq!(
                    intersect_hash(&a, &b, buckets),
                    intersect_merge(&a, &b),
                    "buckets {buckets}, len {len}, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn hash_table_rebuild_forgets_the_previous_list() {
        let mut table = HashTable::new();
        table.build(&ascending(500, 3), 1024);
        table.build(A, 32);
        for x in 0..2000 {
            assert_eq!(table.contains(x), A.contains(&x), "{x}");
        }
    }

    #[test]
    fn bitmap_unmark_forgets_the_previous_list() {
        // The long list spans many words; the short one straddles the
        // boundary between words 0 and 1 and ends in the last word.
        let long = ascending(500, 3);
        let short: &[u32] = &[0, 30, 31, 32, 33, 63, 64, 1999];
        let mut bits = Bitmap::new(2000);
        bits.mark(&long);
        assert!(long.iter().all(|&x| bits.contains(x)));
        bits.unmark(&long);
        bits.mark(short);
        for x in 0..2000 {
            assert_eq!(bits.contains(x), short.contains(&x), "{x}");
        }
        bits.unmark(short);
        assert!(bits.words.iter().all(|&w| w == 0));
    }

    /// Not a correctness test: host cost of one hash probe at the two ends
    /// of the callers' bucket counts. Run with
    /// `cargo test --release -p graph-data microbench -- --nocapture --ignored`.
    #[test]
    #[ignore]
    fn microbench_intersect_hash() {
        let a = ascending(40, 1);
        let b = ascending(400, 2);
        for buckets in [32, 1024] {
            let calls = 200_000;
            let start = std::time::Instant::now();
            let mut found = 0;
            for _ in 0..calls {
                found += intersect_hash(std::hint::black_box(&a), &b, buckets);
            }
            let ns = start.elapsed().as_nanos() as f64 / (calls * b.len()) as f64;
            println!("intersect_hash {buckets:>4} buckets: {ns:.2} ns/probe ({found})");
        }
    }

    #[test]
    fn disjoint_lists() {
        let c: &[u32] = &[100, 200];
        assert_eq!(intersect_merge(A, c), 0);
        assert_eq!(intersect_binsearch(A, c), 0);
        assert_eq!(intersect_hash(A, c, 8), 0);
        assert_eq!(intersect_bitmap(A, c, 201), 0);
    }
}
