//! Minimal, dependency-free stand-in for the `rayon` crate.
//!
//! The build environment has no crates.io access, so the workspace vendors
//! the slice of the rayon API it uses: `into_par_iter()` / `par_iter()`
//! over ranges, vectors and slices, with `map`, `sum` and `collect`.
//! Execution fans items over `std::thread::scope` workers that pull
//! indices from a shared atomic cursor (dynamic load balancing, like
//! rayon's work stealing at a coarser grain), and results are always
//! returned **in input order**, so parallel sweeps stay deterministic.
//!
//! A process-wide worker budget keeps nested parallelism (a parallel
//! sweep whose every cell launches a block-parallel kernel) from spawning
//! quadratically many threads: inner `par_*` calls that find the budget
//! exhausted just run inline on the caller's thread.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParallelIterator};
}

/// Live workers across every concurrently-executing `par_*` call.
static ACTIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// A claim on [`ACTIVE_WORKERS`], released on drop — so a worker panic
/// unwinding out of a `par_*` call still returns the budget, instead of
/// leaving every later call in the process to run inline.
struct WorkerBudget(usize);

impl WorkerBudget {
    fn claim(workers: usize) -> Self {
        ACTIVE_WORKERS.fetch_add(workers, Ordering::Relaxed);
        WorkerBudget(workers)
    }
}

impl Drop for WorkerBudget {
    fn drop(&mut self) {
        ACTIVE_WORKERS.fetch_sub(self.0, Ordering::Relaxed);
    }
}

/// Number of worker threads the host offers.
pub fn current_num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run `f` over `items`, in parallel when the thread budget allows,
/// returning results in input order.
fn par_map_vec<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    par_map_init_vec(items, || (), |(), item| f(item))
}

/// [`par_map_vec`] with per-worker state: every worker thread calls
/// `init` exactly once and threads the value mutably through each item it
/// processes (the inline fallback uses a single state for all items).
/// This is what backs rayon's `map_init` — the gpu-sim block executor
/// uses it to recycle one scratch arena per worker across blocks.
fn par_map_init_vec<T, S, R, I, F>(items: Vec<T>, init: I, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let budget = current_num_threads().saturating_sub(ACTIVE_WORKERS.load(Ordering::Relaxed));
    let workers = budget.min(n);
    if workers <= 1 {
        let mut state = init();
        return items.into_iter().map(|item| f(&mut state, item)).collect();
    }
    let _claim = WorkerBudget::claim(workers);
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let panicked = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut state = init();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let item = slots[i]
                            .lock()
                            .expect("rayon shim: item slot poisoned")
                            .take()
                            .expect("rayon shim: item taken twice");
                        let out = f(&mut state, item);
                        *results[i].lock().expect("rayon shim: result slot poisoned") = Some(out);
                    }
                })
            })
            .collect();
        // Join every worker explicitly so a panic payload survives: like
        // rayon, re-raise the original panic on the caller's thread.
        let mut first = None;
        for h in handles {
            if let Err(payload) = h.join() {
                first.get_or_insert(payload);
            }
        }
        first
    });
    if let Some(payload) = panicked {
        std::panic::resume_unwind(payload);
    }
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("rayon shim: result slot poisoned")
                .expect("rayon shim: worker skipped an item")
        })
        .collect()
}

/// A to-be-parallelized sequence of items.
pub struct ParIter<T> {
    items: Vec<T>,
}

/// A [`ParIter`] with a pending per-item transform; the transform runs on
/// the worker threads.
pub struct ParMap<T, F> {
    items: Vec<T>,
    f: F,
}

/// A [`ParIter`] with a pending per-item transform that also threads a
/// per-worker state value (rayon's `map_init`).
pub struct ParMapInit<T, I, F> {
    items: Vec<T>,
    init: I,
    f: F,
}

impl<T: Send> ParIter<T> {
    pub fn map<R, F>(self, f: F) -> ParMap<T, F>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Like [`map`](Self::map), but each worker thread first builds a
    /// state value with `init` and reuses it (by `&mut`) across every
    /// item that worker processes.
    pub fn map_init<S, R, I, F>(self, init: I, f: F) -> ParMapInit<T, I, F>
    where
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, T) -> R + Sync,
    {
        ParMapInit {
            items: self.items,
            init,
            f,
        }
    }
}

pub trait IntoParallelIterator {
    type Item: Send;
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

/// `.par_iter()` on collections, yielding `&T` items.
pub trait IntoParallelRefIterator<'a> {
    type Item: Send + 'a;
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

macro_rules! impl_range_par_iter {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for core::ops::Range<$t> {
            type Item = $t;
            fn into_par_iter(self) -> ParIter<$t> {
                ParIter { items: self.collect() }
            }
        }
    )*};
}

impl_range_par_iter!(u32, u64, usize, i32, i64);

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// Consumer operations shared by [`ParIter`] and [`ParMap`].
pub trait ParallelIterator: Sized {
    type Item: Send;

    /// Execute, producing the items in input order.
    fn run(self) -> Vec<Self::Item>;

    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item>,
    {
        self.run().into_iter().sum()
    }

    fn collect<C>(self) -> C
    where
        C: FromIterator<Self::Item>,
    {
        self.run().into_iter().collect()
    }
}

impl<T: Send> ParallelIterator for ParIter<T> {
    type Item = T;

    fn run(self) -> Vec<T> {
        self.items
    }
}

impl<T, R, F> ParallelIterator for ParMap<T, F>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    type Item = R;

    fn run(self) -> Vec<R> {
        par_map_vec(self.items, self.f)
    }
}

impl<T, S, R, I, F> ParallelIterator for ParMapInit<T, I, F>
where
    T: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> R + Sync,
{
    type Item = R;

    fn run(self) -> Vec<R> {
        par_map_init_vec(self.items, self.init, self.f)
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn range_map_sum() {
        let s: u64 = (0u32..1000).into_par_iter().map(|i| i as u64).sum();
        assert_eq!(s, 499_500);
    }

    #[test]
    fn collect_preserves_input_order() {
        let v: Vec<usize> = (0usize..512).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v, (0..512).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn collect_into_result_short_circuits_on_err() {
        let r: Result<Vec<u32>, String> = (0u32..100)
            .into_par_iter()
            .map(|i| {
                if i == 42 {
                    Err("boom".to_string())
                } else {
                    Ok(i)
                }
            })
            .collect();
        assert_eq!(r, Err("boom".to_string()));
        let ok: Result<Vec<u32>, String> = (0u32..10).into_par_iter().map(Ok).collect();
        assert_eq!(ok.unwrap().len(), 10);
    }

    #[test]
    fn par_iter_over_slice_refs() {
        let data = vec![1u64, 2, 3, 4];
        let s: u64 = data.par_iter().map(|&x| x * 10).sum();
        assert_eq!(s, 100);
    }

    #[test]
    fn map_init_reuses_state_and_preserves_order() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static INITS: AtomicUsize = AtomicUsize::new(0);
        let v: Vec<usize> = (0usize..256)
            .into_par_iter()
            .map_init(
                || {
                    INITS.fetch_add(1, Ordering::Relaxed);
                    Vec::<usize>::new()
                },
                |scratch, i| {
                    // The scratch must arrive empty of *our* marker: each
                    // item clears what it wrote, proving reuse is safe.
                    assert!(scratch.is_empty());
                    scratch.push(i);
                    let out = scratch[0] * 2;
                    scratch.clear();
                    out
                },
            )
            .collect();
        assert_eq!(v, (0..256).map(|i| i * 2).collect::<Vec<_>>());
        // One init per worker (or one inline), never one per item.
        assert!(INITS.load(Ordering::Relaxed) <= super::current_num_threads().max(1));
    }

    #[test]
    fn worker_panic_propagates_and_returns_the_budget() {
        let caught = std::panic::catch_unwind(|| {
            (0u32..64)
                .into_par_iter()
                .map(|i| {
                    if i == 7 {
                        panic!("deliberate worker panic");
                    }
                    i
                })
                .collect::<Vec<u32>>()
        });
        let payload = caught.expect_err("the worker panic must reach the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"deliberate worker panic"),
            "the original payload is re-raised"
        );
        // Concurrent tests may hold workers for a moment, but a leaked
        // claim never comes back: the budget must drain to zero.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while super::ACTIVE_WORKERS.load(std::sync::atomic::Ordering::Relaxed) != 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "worker budget leaked after a panic"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    #[test]
    fn nested_parallelism_does_not_deadlock() {
        let total: u64 = (0u32..8)
            .into_par_iter()
            .map(|i| {
                (0u32..100)
                    .into_par_iter()
                    .map(|j| (i + j) as u64)
                    .sum::<u64>()
            })
            .sum();
        let expected: u64 = (0..8u64)
            .map(|i| (0..100u64).map(|j| i + j).sum::<u64>())
            .sum();
        assert_eq!(total, expected);
    }
}
