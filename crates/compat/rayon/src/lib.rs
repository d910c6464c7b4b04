//! Offline stand-in for the subset of `rayon` this workspace uses.
//!
//! The build environment has no crates.io access, so this crate provides
//! the rayon API shape — `par_iter().map(..).collect()`, plus
//! `ThreadPoolBuilder`/`ThreadPool::install` for bounding worker counts —
//! implemented over `std::thread::scope` with a shared work queue
//! (atomic index claim) for load balance under uneven item costs.
//! Results are collected in input order, so `collect` is deterministic
//! regardless of worker count, matching rayon's indexed parallel
//! iterators. When network access is available, replace the `path`
//! dependency with the real `rayon`; call sites compile unchanged.
//!
//! # One process-wide worker budget
//!
//! Real rayon runs every parallel operation — nested ones included — on
//! one global pool, so nesting never oversubscribes the host. This shim
//! gets the same property from a [`budget`] of `available_parallelism −
//! 1` **helper tokens** shared by the whole process. A `collect` over
//! `n` items leases up to `n − 1` tokens (fewer if the installed pool is
//! smaller, none if none are idle), spawns one helper thread per token,
//! and drains the work queue on the calling thread alongside them. With
//! no idle token the call simply runs inline. Every running thread is
//! therefore either a caller or a token holder, and a nested operation
//! started while the host is busy costs no extra thread.
//!
//! [`ThreadPool::install`] stays an *upper bound* on a call's width, so a
//! one-thread pool is still the serial reference. Tokens come back
//! through a drop guard when their helper exits, panics included.

use std::cell::{Cell, UnsafeCell};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

pub mod prelude {
    //! Traits that make `.par_iter()` available on slices and vectors.
    pub use crate::IntoParallelRefIterator;
}

thread_local! {
    /// Worker-count override installed by [`ThreadPool::install`] for the
    /// duration of a closure on the current thread (and inherited by the
    /// helpers that thread leases).
    static INSTALLED_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The machine's available parallelism: the one place the host size is
/// read.
fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Number of worker threads parallel operations started from this thread
/// may use: the installed pool's size, or the machine's parallelism.
pub fn current_num_threads() -> usize {
    INSTALLED_THREADS
        .with(|t| t.get())
        .unwrap_or_else(host_threads)
}

/// Run `op` with `threads` as the current thread's installed bound,
/// restoring the previous bound afterwards (unwinding included).
fn with_installed<R>(threads: Option<usize>, op: impl FnOnce() -> R) -> R {
    let prev = INSTALLED_THREADS.with(|t| t.replace(threads));
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            INSTALLED_THREADS.with(|t| t.set(self.0));
        }
    }
    let _restore = Restore(prev);
    op()
}

pub mod budget {
    //! The process-wide helper-token budget behind every parallel
    //! operation (see the crate docs).
    //!
    //! This module is the one piece of shim-only API: registry rayon
    //! shares its global pool implicitly. Code that runs its own lanes
    //! on scoped threads (the region scheduler's seed and reconcile
    //! lanes) leases its helpers here so that it shares the same budget
    //! as `collect`. With registry rayon, `lease(n)` becomes "spawn `n`
    //! helpers".

    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::OnceLock;

    /// Idle helper tokens, initialized to `available_parallelism − 1`
    /// (the calling thread is the first worker). The count publishes no
    /// data — a helper's work is ordered by its scope's join — so every
    /// access is `Relaxed`; read-modify-writes on one atomic stay exact.
    fn idle() -> &'static AtomicUsize {
        static IDLE: OnceLock<AtomicUsize> = OnceLock::new();
        IDLE.get_or_init(|| AtomicUsize::new(super::host_threads() - 1))
    }

    /// Take up to `want` idle tokens without waiting; the result may be
    /// empty. Each [`Helper`] returns its token when dropped.
    pub fn lease(want: usize) -> Vec<Helper> {
        let idle = idle();
        let mut cur = idle.load(Ordering::Relaxed);
        let taken = loop {
            let take = want.min(cur);
            if take == 0 {
                return Vec::new();
            }
            match idle.compare_exchange_weak(cur, cur - take, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break take,
                Err(now) => cur = now,
            }
        };
        let installed = super::INSTALLED_THREADS.with(|t| t.get());
        (0..taken).map(|_| Helper { installed }).collect()
    }

    /// Tokens idle right now (a snapshot; other threads lease and
    /// return concurrently).
    #[cfg(test)]
    pub(crate) fn idle_helpers() -> usize {
        idle().load(Ordering::Relaxed)
    }

    /// One leased helper token. Move it into the helper thread and
    /// [`run`](Helper::run) the helper's work through it.
    #[derive(Debug)]
    pub struct Helper {
        /// The lessor's installed bound, inherited by the helper thread
        /// as if it were a worker of the lessor's pool.
        installed: Option<usize>,
    }

    impl Helper {
        /// Run `work` as this helper: under the lessor's installed
        /// bound, returning the token when `work` ends or unwinds.
        pub fn run<R>(self, work: impl FnOnce() -> R) -> R {
            super::with_installed(self.installed, work)
        }
    }

    impl Drop for Helper {
        fn drop(&mut self) {
            idle().fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder with the default (machine-sized) worker count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the worker count; `0` means the machine's parallelism.
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Build the pool. Never fails in this stand-in; the `Result` matches
    /// the real rayon signature.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: if self.num_threads == 0 {
                host_threads()
            } else {
                self.num_threads
            },
        })
    }
}

/// Error type for [`ThreadPoolBuilder::build`] (never produced here).
pub struct ThreadPoolBuildError;

impl fmt::Debug for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ThreadPoolBuildError")
    }
}

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// A bounded worker pool. Unlike real rayon this holds no threads; it
/// only records the most workers a parallel operation run under
/// [`install`](ThreadPool::install) may use. The threads themselves come
/// from the process-wide [`budget`].
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Run `op` with this pool's worker count governing any parallel
    /// iterators it executes on the current thread.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        with_installed(Some(self.num_threads), op)
    }

    /// This pool's worker count.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }
}

/// `.par_iter()` on shared slices, mirroring
/// `rayon::iter::IntoParallelRefIterator`.
pub trait IntoParallelRefIterator<'data> {
    /// Element type yielded by reference.
    type Item: Sync + 'data;

    /// A parallel iterator over `&self`.
    fn par_iter(&'data self) -> ParIter<'data, Self::Item>;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = T;

    fn par_iter(&'data self) -> ParIter<'data, T> {
        ParIter { items: self }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Item = T;

    fn par_iter(&'data self) -> ParIter<'data, T> {
        ParIter { items: self }
    }
}

/// Parallel iterator over a slice.
#[derive(Debug)]
pub struct ParIter<'data, T> {
    items: &'data [T],
}

impl<'data, T: Sync> ParIter<'data, T> {
    /// Map every element through `f` in parallel.
    pub fn map<R, F>(self, f: F) -> ParMap<'data, T, F>
    where
        R: Send,
        F: Fn(&'data T) -> R + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }
}

/// The result of [`ParIter::map`]; consumed by [`ParMap::collect`].
pub struct ParMap<'data, T, F> {
    items: &'data [T],
    f: F,
}

impl<T, F> fmt::Debug for ParMap<'_, T, F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ParMap")
            .field("len", &self.items.len())
            .finish()
    }
}

impl<'data, T, R, F> ParMap<'data, T, F>
where
    T: Sync,
    R: Send,
    F: Fn(&'data T) -> R + Sync,
{
    /// Evaluate the map and collect the results **in input order** —
    /// deterministic for any thread count.
    ///
    /// The call's width is the installed pool's size (or the host's),
    /// capped by the item count; it leases up to `width − 1` helper
    /// tokens from the process-wide [`budget`] and runs inline when it
    /// gets none. Work distribution is a shared queue (one atomic
    /// fetch-add per item) drained by the helpers *and* the calling
    /// thread, not static chunking, so a straggler item — a long
    /// time-travel region next to short ones, say — only occupies the
    /// worker that claimed it while the rest keep draining the queue.
    /// This mirrors rayon's work-stealing balance closely enough for the
    /// region-sized tasks this workspace runs. Only the *claim order* is
    /// racy; results land in their input slot, so `collect` stays
    /// deterministic. Each helper returns its token as soon as it finds
    /// the queue empty, so a straggler's own nested operations can use
    /// it.
    ///
    /// A panicking item stops further claims and re-raises its original
    /// payload on the calling thread once every helper has exited.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        let len = self.items.len();
        let width = current_num_threads().min(len);
        let helpers = budget::lease(width.saturating_sub(1));
        if helpers.is_empty() {
            return self.items.iter().map(&self.f).collect();
        }
        let slots = Slots::new(len);
        let next = AtomicUsize::new(0);
        let f = &self.f;
        let items = self.items;
        let drain = || {
            // On unwind, park the queue at its end so no worker claims
            // another item of a call that is already failing.
            struct StopOnPanic<'a>(&'a AtomicUsize, usize);
            impl Drop for StopOnPanic<'_> {
                fn drop(&mut self) {
                    if std::thread::panicking() {
                        self.0.store(self.1, Ordering::Relaxed);
                    }
                }
            }
            let _stop = StopOnPanic(&next, len);
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= len {
                    break;
                }
                // SAFETY: the fetch-add hands index `i` to exactly one
                // worker, so this is the only writer of slot `i`.
                unsafe { slots.put(i, f(&items[i])) };
            }
        };
        let drain = &drain;
        std::thread::scope(|scope| {
            let handles: Vec<_> = helpers
                .into_iter()
                .map(|helper| scope.spawn(move || helper.run(drain)))
                .collect();
            let own = std::panic::catch_unwind(std::panic::AssertUnwindSafe(drain));
            // Join every helper before re-raising, and keep the first
            // payload (the caller's, else a helper's) instead of scope's
            // generic "a scoped thread panicked".
            let mut panic = own.err();
            for handle in handles {
                if let Err(payload) = handle.join() {
                    panic.get_or_insert(payload);
                }
            }
            if let Some(payload) = panic {
                std::panic::resume_unwind(payload);
            }
        });
        slots.into_values().collect()
    }
}

/// Per-index result slots shared across workers. The atomic queue in
/// [`ParMap::collect`] guarantees each index is claimed by exactly one
/// worker, which makes the disjoint unsynchronized writes sound.
struct Slots<R> {
    cells: Vec<UnsafeCell<Option<R>>>,
}

// SAFETY: workers only touch disjoint cells (one claimed index each),
// and the scope join forms a happens-before edge to the reader.
unsafe impl<R: Send> Sync for Slots<R> {}

impl<R> Slots<R> {
    fn new(len: usize) -> Self {
        let mut cells = Vec::with_capacity(len);
        cells.resize_with(len, || UnsafeCell::new(None));
        Slots { cells }
    }

    /// Write the result for index `i`.
    ///
    /// # Safety
    ///
    /// The caller must be the sole writer of index `i`, with no
    /// concurrent reader.
    unsafe fn put(&self, i: usize, value: R) {
        // SAFETY: the cell pointer comes from a live UnsafeCell in
        // `self.cells`, and the caller's contract (sole writer, no
        // concurrent reader of index `i`) rules out aliasing.
        unsafe { *self.cells[i].get() = Some(value) };
    }

    fn into_values(self) -> impl Iterator<Item = R> {
        self.cells
            .into_iter()
            .map(|c| c.into_inner().expect("every slot filled by a worker"))
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{budget, host_threads, ThreadPoolBuilder};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Mutex, MutexGuard, PoisonError};
    use std::time::{Duration, Instant};

    /// The budget is process-global and the harness runs tests on
    /// concurrent threads: every test here holds this lock so that
    /// token counts and widths are this test's alone.
    fn exclusive() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Run a `collect` over `width` items that each wait (up to a
    /// generous deadline) for all `width` items to be in flight at
    /// once: true only if the call really ran `width` wide.
    fn runs_full_width(width: usize) -> bool {
        let arrived = AtomicUsize::new(0);
        let items: Vec<usize> = (0..width).collect();
        let met: Vec<bool> = items
            .par_iter()
            .map(|_| {
                arrived.fetch_add(1, Ordering::SeqCst);
                // lint:allow(no-wallclock): the clock only bounds how long a failing test waits; no result depends on it
                let start = Instant::now();
                while arrived.load(Ordering::SeqCst) < width {
                    if start.elapsed() > Duration::from_secs(5) {
                        return false;
                    }
                    std::thread::yield_now();
                }
                true
            })
            .collect();
        met.into_iter().all(|m| m)
    }

    #[test]
    fn a_panicking_item_returns_every_helper_token() {
        let _x = exclusive();
        let full = budget::idle_helpers();
        assert_eq!(full, host_threads() - 1);
        let caller = std::thread::current().id();
        let input: Vec<u64> = (0..64).collect();
        // Panic on the calling thread, then on a helper thread; both
        // are caught outside `collect`, the way the fault guard
        // (`fault::run_unit_guarded`) catches a unit's panic.
        for on_caller in [true, false] {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _: Vec<u64> = input
                    .par_iter()
                    .map(|&x| {
                        std::thread::sleep(Duration::from_micros(200));
                        let here = std::thread::current().id() == caller;
                        if x >= 3 && (here == on_caller || full == 0) {
                            std::panic::panic_any(format!("item {x} dies"));
                        }
                        x
                    })
                    .collect();
            }));
            if let Err(payload) = caught {
                // The item's own payload, not a generic join error.
                let msg = payload.downcast_ref::<String>().expect("String payload");
                assert!(msg.ends_with("dies"), "{msg}");
            } else {
                // Only possible when no helper claimed an item at all.
                assert!(!on_caller, "the caller always claims items");
            }
            assert_eq!(budget::idle_helpers(), full, "on_caller={on_caller}");
            // A leaked token would silently narrow every later call.
            assert!(runs_full_width(host_threads()), "on_caller={on_caller}");
        }
    }

    #[test]
    fn nested_collects_never_oversubscribe_the_host() {
        let _x = exclusive();
        let in_flight = AtomicUsize::new(0);
        let high_water = AtomicUsize::new(0);
        let outer: Vec<u64> = (0..8).collect();
        let sums: Vec<u64> = outer
            .par_iter()
            .map(|&o| {
                let inner: Vec<u64> = (0..8).map(|i| o * 8 + i).collect();
                let leaves: Vec<u64> = inner
                    .par_iter()
                    .map(|&x| {
                        let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                        high_water.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_micros(300));
                        in_flight.fetch_sub(1, Ordering::SeqCst);
                        x
                    })
                    .collect();
                leaves.iter().sum()
            })
            .collect();
        let reference: Vec<u64> = (0..8).map(|o| (0..8).map(|i| o * 8 + i).sum()).collect();
        assert_eq!(sums, reference);
        let high = high_water.load(Ordering::SeqCst);
        assert!(
            (1..=host_threads()).contains(&high),
            "{high} leaves in flight on {} threads",
            host_threads()
        );
        assert_eq!(budget::idle_helpers(), host_threads() - 1);
    }

    #[test]
    fn a_one_thread_pool_runs_inline_on_the_caller() {
        let _x = exclusive();
        let caller = std::thread::current().id();
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let input: Vec<u64> = (0..32).collect();
        let here: Vec<bool> = pool.install(|| {
            input
                .par_iter()
                .map(|_| std::thread::current().id() == caller)
                .collect()
        });
        assert!(here.into_iter().all(|h| h));
    }

    #[test]
    fn helpers_inherit_the_installed_bound() {
        let _x = exclusive();
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let input: Vec<u64> = (0..16).collect();
        let bounds: Vec<usize> = pool.install(|| {
            input
                .par_iter()
                .map(|_| {
                    std::thread::sleep(Duration::from_micros(200));
                    super::current_num_threads()
                })
                .collect()
        });
        assert!(bounds.into_iter().all(|b| b == 2));
    }

    #[test]
    fn collect_preserves_input_order() {
        let _x = exclusive();
        let input: Vec<u64> = (0..1000).collect();
        let doubled: Vec<u64> = input.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn result_is_identical_across_worker_counts() {
        let _x = exclusive();
        let input: Vec<u64> = (0..257).collect();
        let reference: Vec<u64> = input.iter().map(|&x| x * x).collect();
        for threads in [1, 2, 3, 8] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let got: Vec<u64> = pool.install(|| input.par_iter().map(|&x| x * x).collect());
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn install_restores_previous_worker_count() {
        let _x = exclusive();
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let before = super::current_num_threads();
        pool.install(|| assert_eq!(super::current_num_threads(), 3));
        assert_eq!(super::current_num_threads(), before);
    }

    #[test]
    fn empty_input_collects_empty() {
        let _x = exclusive();
        let input: Vec<u64> = Vec::new();
        let out: Vec<u64> = input.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn work_queue_handles_many_more_items_than_workers() {
        let _x = exclusive();
        // Far more items than workers, with wildly uneven per-item cost:
        // the queue must hand out every index exactly once and results
        // must still land in input order.
        let input: Vec<u64> = (0..10_007).collect();
        let reference: Vec<u64> = input.iter().map(|&x| x.wrapping_mul(x) ^ 7).collect();
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let got: Vec<u64> = pool.install(|| {
            input
                .par_iter()
                .map(|&x| {
                    if x % 1000 == 0 {
                        // Straggler items: ~1k spins to skew claim order.
                        std::hint::black_box((0..1_000).sum::<u64>());
                    }
                    x.wrapping_mul(x) ^ 7
                })
                .collect()
        });
        assert_eq!(got, reference);
    }
}
