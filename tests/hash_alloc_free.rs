//! The hash primitive allocates nothing per call: the GroupTC-H host
//! twin calls `intersect_hash` once per heavy DAG edge, so a per-call
//! table allocation would be paid up to hundreds of thousands of times
//! per count. A counting global allocator checks it on the calling
//! thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tc_compare::graph::cpu_ref;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation and reallocation made
/// by the current thread.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees carry over. The count lives in a const-initialised
// thread-local `Cell` with no destructor: bumping it never allocates,
// re-enters the allocator or fails during thread teardown.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn intersect_hash_allocates_nothing_after_warm_up() {
    let a: Vec<u32> = (0..600).map(|x| x * 3).collect();
    let b: Vec<u32> = (0..900).map(|x| x * 2).collect();
    let expected = cpu_ref::intersect_merge(&a, &b);
    // One warm-up call at the widest table and the longest build side.
    assert_eq!(cpu_ref::intersect_hash(&a, &b, 1024), expected);

    let before = allocations();
    for i in 0..1000 {
        let buckets = [32, 256, 1024][i % 3];
        let len = 1 + i % a.len();
        let found = cpu_ref::intersect_hash(&a[..len], &b, buckets);
        assert_eq!(found, cpu_ref::intersect_merge(&a[..len], &b));
    }
    assert_eq!(
        allocations() - before,
        0,
        "intersect_hash allocated after its warm-up call"
    );
}

#[test]
fn hash_table_rebuild_allocates_nothing_after_warm_up() {
    let a: Vec<u32> = (0..600).map(|x| x * 3).collect();
    let mut table = cpu_ref::HashTable::new();
    // One warm-up build at the widest table and the longest list.
    table.build(&a, 1024);

    let before = allocations();
    for i in 0..1000 {
        let len = 1 + i % a.len();
        table.build(&a[..len], [32, 256, 1024][i % 3]);
        assert!(table.contains(a[len - 1]) && !table.contains(1));
    }
    assert_eq!(
        allocations() - before,
        0,
        "HashTable::build allocated after its warm-up build"
    );
}
