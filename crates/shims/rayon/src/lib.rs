//! Minimal, dependency-free stand-in for the `rayon` crate.
//!
//! The build environment has no crates.io access, so the workspace vendors
//! the slice of the rayon API it uses: `into_par_iter()` / `par_iter()`
//! over ranges, vectors and slices, with `map`, `sum` and `collect`.
//! Execution fans items over `std::thread::scope` workers that claim
//! contiguous chunks of about `n / (workers × 1024)` items from a shared
//! queue (dynamic load balancing, like rayon's work stealing at a coarser
//! grain; calls of up to `1024 × workers` items are claimed one item at a
//! time). A claim is one lock of the shared queue; a chunk's items move
//! out together and its results come back as one run, so no item carries
//! a lock or an allocation of its own.
//! Results are always returned **in input order**, and `sum` adds its
//! per-chunk partials in chunk order, so parallel sweeps stay
//! deterministic.
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

/// Chunks each worker claims, on average, from one call's items: enough
/// that the dearest chunk of a skewed workload is a small share of a
/// worker's time, few enough that a claim costs nothing next to its items.
const CHUNKS_PER_WORKER: usize = 1024;

/// Items per claim when `workers` share `n` items: one for any
/// `n <= CHUNKS_PER_WORKER × workers`, so a sweep's cells and a launch's
/// blocks still balance item by item.
fn chunk_len(n: usize, workers: usize) -> usize {
    n.div_ceil(workers.max(1) * CHUNKS_PER_WORKER).max(1)
}

/// Run `items` in contiguous chunks, in parallel when the thread budget
/// allows. Each worker calls `init` once and hands every chunk it claims
/// to `fold`, which appends that chunk's outputs to the worker's run. The
/// runs come back concatenated in chunk order, i.e. in input order. The
/// inline fallback folds all items as one chunk with a single state.
fn par_chunks<T, S, X, I, F>(mut items: Vec<T>, init: I, fold: F) -> Vec<X>
where
    T: Send,
    X: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, std::vec::Drain<'_, T>, &mut Vec<X>) + Sync,
{
    let n = items.len();
    let budget = current_num_threads().saturating_sub(ACTIVE_WORKERS.load(Ordering::Relaxed));
    let workers = budget.min(n);
    if workers <= 1 {
        let mut out = Vec::new();
        if n > 0 {
            fold(&mut init(), items.drain(..), &mut out);
        }
        return out;
    }
    let _claim = WorkerBudget::claim(workers);
    let chunk = chunk_len(n, workers);
    // The queue lock is the cursor: a claim moves one chunk's items into
    // the worker's own buffer and notes where the chunk starts.
    let queue = Mutex::new(items.into_iter());
    let joined = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut state = init();
                    let mut buf = Vec::with_capacity(chunk);
                    // (chunk start, outputs it appended to `out`).
                    let mut runs = Vec::new();
                    let mut out = Vec::new();
                    loop {
                        let start = {
                            let mut q = queue.lock().expect("rayon shim: item queue poisoned");
                            let start = n - q.len();
                            buf.extend(q.by_ref().take(chunk));
                            start
                        };
                        if buf.is_empty() {
                            break;
                        }
                        let before = out.len();
                        fold(&mut state, buf.drain(..), &mut out);
                        runs.push((start, out.len() - before));
                    }
                    (runs, out)
                })
            })
            .collect();
        // Join every worker explicitly so a panic payload survives: like
        // rayon, re-raise the original panic on the caller's thread.
        let mut done = Vec::with_capacity(workers);
        let mut first = None;
        for h in handles {
            match h.join() {
                Ok(run) => done.push(run),
                Err(payload) => {
                    first.get_or_insert(payload);
                }
            }
        }
        first.map_or(Ok(done), Err)
    });
    let done = joined.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
    // Each worker claimed its chunks in ascending order, so a merge by
    // chunk start restores input order.
    let mut runs: Vec<_> = done
        .into_iter()
        .map(|(runs, out)| (runs.into_iter(), out.into_iter()))
        .collect();
    let mut merged = Vec::with_capacity(runs.iter().map(|(_, outs)| outs.len()).sum());
    while let Some((chunks, outs)) = runs
        .iter_mut()
        .filter(|(chunks, _)| !chunks.as_slice().is_empty())
        .min_by_key(|(chunks, _)| chunks.as_slice()[0].0)
    {
        let (_, len) = chunks.next().expect("rayon shim: the filter kept a chunk");
        merged.extend(outs.by_ref().take(len));
    }
    merged
}

/// Run `f` over `items` with per-worker state: every worker thread calls
/// `init` exactly once and threads the value mutably through each item it
/// processes (the inline fallback uses a single state for all items),
/// returning results in input order. This is what backs rayon's
/// `map_init` — the gpu-sim block executor uses it to recycle one scratch
/// arena per worker across blocks.
fn par_map_init_vec<T, S, R, I, F>(items: Vec<T>, init: I, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> R + Sync,
{
    par_chunks(items, init, |state, chunk, out| {
        out.extend(chunk.map(|item| f(state, item)));
    })
}

/// [`par_map_init_vec`] summed: each chunk reduces on the worker that ran
/// it, and the caller adds the partials in chunk order, so no per-item
/// result outlives its chunk.
fn par_sum_init<T, S, R, I, F, Total>(items: Vec<T>, init: I, f: F) -> Total
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> R + Sync,
    Total: Send + std::iter::Sum<R> + std::iter::Sum<Total>,
{
    par_chunks(items, init, |state, chunk, out| {
        out.push(chunk.map(|item| f(state, item)).sum::<Total>());
    })
    .into_iter()
    .sum()
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

    /// Sum the items. Transforms reduce each chunk on its worker and add
    /// the partials in chunk order, so an exact sum (every caller's `u64`)
    /// is the serial one whatever the schedule.
    fn sum<S>(self) -> S
    where
        S: Send + std::iter::Sum<Self::Item> + std::iter::Sum<S>,
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
        par_map_init_vec(self.items, || (), |(), item| (self.f)(item))
    }

    fn sum<S>(self) -> S
    where
        S: Send + std::iter::Sum<R> + std::iter::Sum<S>,
    {
        par_sum_init(self.items, || (), |(), item| (self.f)(item))
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

    fn sum<Total>(self) -> Total
    where
        Total: Send + std::iter::Sum<R> + std::iter::Sum<Total>,
    {
        par_sum_init(self.items, self.init, self.f)
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

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

    /// Large enough that every worker claims chunks of many items on any
    /// host with fewer than 49 cores.
    const MANY: usize = 100_000;

    #[test]
    fn chunk_len_is_one_up_to_a_thousand_and_twenty_four_items_per_worker() {
        for workers in 1..=8 {
            for n in [0, 1, 1024 * workers] {
                assert_eq!(super::chunk_len(n, workers), 1, "n {n}, workers {workers}");
            }
            assert_eq!(super::chunk_len(1024 * workers + 1, workers), 2);
        }
        assert_eq!(super::chunk_len(MANY, 2), 49);
    }

    /// Cheap, but dear enough that a second worker starts before the
    /// first has drained [`MANY`] items.
    fn mix(i: usize) -> u64 {
        (0..32u64).fold(i as u64, |h, k| h.wrapping_mul(31).wrapping_add(k)) % 1_000_003
    }

    /// Repeat `call` until its items ran on at least two workers and
    /// return that run's value. `call` bumps its counter the first time
    /// each worker maps an item (see [`first_item`]). Concurrent tests
    /// may hold the worker budget for a moment, so a call may run inline;
    /// a budget that never comes back fails the deadline. A one-core host
    /// keeps the first run.
    fn on_two_workers<R>(call: impl Fn(&AtomicUsize) -> R) -> R {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let busy = AtomicUsize::new(0);
            let out = call(&busy);
            if busy.into_inner() >= 2 || super::current_num_threads() < 2 {
                return out;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "no call ran on two workers"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// Count this worker in `busy` on its first item.
    fn first_item(seen: &mut bool, busy: &AtomicUsize) {
        if !*seen {
            *seen = true;
            busy.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn chunked_collect_and_sum_match_the_serial_result() {
        let serial: Vec<u64> = (0..MANY).map(mix).collect();
        let v: Vec<u64> = on_two_workers(|busy| {
            (0..MANY)
                .into_par_iter()
                .map_init(
                    || false,
                    |seen, i| {
                        first_item(seen, busy);
                        mix(i)
                    },
                )
                .collect()
        });
        assert_eq!(v, serial);
        let s: u64 = on_two_workers(|busy| {
            (0..MANY)
                .into_par_iter()
                .map_init(
                    || false,
                    |seen, i| {
                        first_item(seen, busy);
                        mix(i)
                    },
                )
                .sum()
        });
        assert_eq!(s, serial.iter().sum::<u64>());
        assert_eq!(
            (0..MANY).into_par_iter().map(mix).collect::<Vec<_>>(),
            serial
        );
        assert_eq!(
            (0..MANY).into_par_iter().map(mix).sum::<u64>(),
            serial.iter().sum::<u64>()
        );
    }

    #[test]
    fn chunked_map_init_calls_init_once_per_worker() {
        let (v, inits): (Vec<usize>, _) = on_two_workers(|busy| {
            let inits = AtomicUsize::new(0);
            let v = (0..MANY)
                .into_par_iter()
                .map_init(
                    || {
                        inits.fetch_add(1, Ordering::Relaxed);
                        (std::thread::current().id(), false)
                    },
                    |(owner, seen), i| {
                        first_item(seen, busy);
                        // A state never leaves the worker that built it.
                        assert_eq!(*owner, std::thread::current().id());
                        i + 1
                    },
                )
                .collect();
            (v, inits.into_inner())
        });
        assert_eq!(v, (1..=MANY).collect::<Vec<_>>());
        assert!(
            (1..=super::current_num_threads()).contains(&inits),
            "{inits} inits"
        );
    }

    #[test]
    fn panic_in_a_chunk_is_re_raised_and_later_calls_run_in_parallel() {
        let caught = std::panic::catch_unwind(|| {
            (0..MANY)
                .into_par_iter()
                .map(|i| {
                    if i == 54_321 {
                        panic!("deliberate chunk panic");
                    }
                    i
                })
                .collect::<Vec<usize>>()
        });
        let payload = caught.expect_err("the worker panic must reach the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"deliberate chunk panic")
        );
        // A leaked budget claim never comes back, so no later call could
        // fan out again.
        let s: u64 = on_two_workers(|busy| {
            (0..MANY)
                .into_par_iter()
                .map_init(
                    || false,
                    |seen, i| {
                        first_item(seen, busy);
                        i as u64
                    },
                )
                .sum()
        });
        assert_eq!(s, (0..MANY as u64).sum::<u64>());
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
