//! The region-parallel execution runtime.
//!
//! The paper's central observation is that time-traveling removes the
//! sequential dependency between sampling units: each detailed region's
//! explore→warm→measure chain is a pure function of the (position
//! addressable) execution and the region plan, so regions can be
//! evaluated in any order — and therefore in parallel. [`RegionScheduler`]
//! is the runtime for that observation: it partitions a strategy's
//! sampling plan into per-region **units**, fans the units out across
//! rayon workers, and hands the results back **in plan order** so the
//! strategy's reduction (and hence its [`StrategyReport`]) is
//! byte-identical for every worker count.
//!
//! Two unit shapes cover all five strategies:
//!
//! * [`run_units`](RegionScheduler::run_units) — fully independent
//!   units. CoolSim (per-region watchpoint profiling), MRRL (per-region
//!   reuse-latency windows), checkpoint evaluation (restore + measure)
//!   and DeLorean (Scout → Explorers → Analyst per region) each own
//!   their cursor slices and per-region state outright, so every region
//!   is one independent unit.
//! * [`run_seeded`](RegionScheduler::run_seeded) — units seeded by a
//!   sequential carried-state lane. SMARTS-style functional warming
//!   *cannot* decouple regions completely: the hierarchy state at a
//!   region's warming boundary depends on every access before it. The
//!   seed pass runs in plan order on a producer lane (cumulatively
//!   warming one hierarchy and handing each unit a
//!   [`fork`](delorean_cache::Hierarchy::fork) of it), while the
//!   measure bodies fan out across the remaining workers as their seeds
//!   become available — a producer/consumer pipeline over the bounded
//!   channel shim, mirroring the paper's OS-pipe pass pipeline at region
//!   granularity. When the pipe is full the lane runs the oldest queued
//!   body itself rather than wait, so it never idles and a dead helper
//!   can never wedge it.
//!
//! The speculative warm lane adds a third shape,
//! [`run_speculative`](RegionScheduler::run_speculative): a plan-order
//! reconciler on the calling thread, with helpers speculating on the
//! regions ahead of it. Each region is claimed once, by whoever gets to
//! it first, and the reconciler never waits for a region no helper has
//! started. The fault-isolated `_isolated` entry points wrap the same
//! seeded and speculative lanes rather than copying them.
//!
//! A scheduler's worker count is an *upper bound*. Every extra thread
//! is a helper token leased from the rayon shim's process-wide
//! [`budget`](rayon::budget), the same budget nested `par_iter` calls
//! draw on, and the calling thread always works too: it runs the seed
//! lane or the reconciler itself. A scheduler started while the host is
//! already busy (inside a batch-executor cell, say) gets no tokens and
//! takes the sequential interleave path, so nesting never
//! oversubscribes the host.
//!
//! Determinism contract: unit bodies must be pure functions of
//! `(unit index, region, seed)`. The scheduler never lets the worker
//! count influence what a unit computes — only *when* it computes it —
//! and reduces results by unit index, so `workers = 1` and `workers = N`
//! produce bitwise-equal outputs (asserted for all five strategies by
//! `tests/determinism.rs`).
//!
//! [`StrategyReport`]: crate::StrategyReport

use crate::config::Region;
use crossbeam::channel::{bounded, Sender, TrySendError};
use delorean_trace::fault::{self, FaultPolicy, FaultSite, UnitFailure, UnitFault};
use rayon::prelude::*;
use rayon::{budget, ThreadPoolBuilder};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, TryLockError};

/// The scheduler lost unit results it cannot explain: a worker
/// terminated before sending, outside the fault-isolated paths that
/// would have classified the failure. Raised as a typed panic payload
/// (via `std::panic::panic_any`) so the report names exactly which
/// units are missing instead of the old anonymous
/// `expect("every unit completed")`.
#[derive(Debug)]
pub struct LostUnits {
    /// Plan indices of the units whose results never arrived.
    pub units: Vec<u32>,
}

impl std::fmt::Display for LostUnits {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "region scheduler lost the result of unit(s) {:?}: a worker \
             terminated before sending (body panicked or was killed); run \
             the plan through an *_isolated entry point to capture the \
             per-unit fault instead",
            self.units
        )
    }
}

impl std::error::Error for LostUnits {}

/// Split guarded per-unit results into plan-ordered slots and the list
/// of quarantined failures.
fn split_results<R>(results: Vec<Result<R, UnitFailure>>) -> (Vec<Option<R>>, Vec<UnitFailure>) {
    let mut out = Vec::with_capacity(results.len());
    let mut failures = Vec::new();
    for res in results {
        match res {
            Ok(r) => out.push(Some(r)),
            Err(f) => {
                out.push(None);
                failures.push(f);
            }
        }
    }
    (out, failures)
}

/// How much of a speculation task to run, decided by who claims the
/// region (see [`RegionScheduler::run_speculative`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SpecForm {
    /// A helper claimed the region ahead of the chain: speculate in
    /// full, so a commit can adopt the result without redoing the work.
    Full,
    /// The reconciler reached the region before any helper: do only what
    /// the commit decision needs (for the warm lane, the proxy's digest),
    /// since the chain does the region's work in place right after.
    Light,
}

/// Fans a region plan's independent units out across workers and
/// collects results in plan order.
///
/// The worker count is fixed at construction and bounds how many
/// threads one call may use; how many it gets depends on the
/// process-wide budget's idle tokens at the time. Results never depend
/// on either, so harness code is free to pick any bound.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RegionScheduler {
    workers: usize,
}

impl RegionScheduler {
    /// A scheduler fanning units across `workers` workers (clamped ≥ 1).
    pub fn new(workers: usize) -> Self {
        RegionScheduler {
            workers: workers.max(1),
        }
    }

    /// The sequential scheduler: one worker, units in plan order. This is
    /// the reference execution the determinism tests compare against.
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// A scheduler sized to the host's available parallelism (the
    /// installed pool's size when called inside
    /// [`ThreadPool::install`](rayon::ThreadPool::install)).
    pub fn host() -> Self {
        Self::new(rayon::current_num_threads())
    }

    /// This scheduler's worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Evaluate one fully independent unit per region, in parallel, and
    /// return the results in plan order.
    ///
    /// `unit` must be a pure function of `(index, region)` (plus
    /// captured immutable context); the scheduler guarantees the output
    /// vector is identical for every worker count.
    pub fn run_units<R: Send>(
        &self,
        regions: &[Region],
        unit: impl Fn(u32, &Region) -> R + Sync,
    ) -> Vec<R> {
        // The shim's `collect` runs inline when it leases no helper.
        let jobs: Vec<(u32, &Region)> = regions
            .iter()
            .enumerate()
            .map(|(i, r)| (i as u32, r))
            .collect();
        // Building a pool per call is free with the offline rayon shim
        // (its ThreadPool holds no threads — it only records the width
        // bound). If the shim is swapped for the registry rayon, hoist
        // the pool into the scheduler to avoid per-call thread churn.
        ThreadPoolBuilder::new()
            .num_threads(self.workers)
            .build()
            // lint:allow(no-unwrap): the offline rayon shim's pool build is infallible; with registry rayon a failure here is unrecoverable
            .expect("region worker pool")
            .install(|| jobs.par_iter().map(|&(i, r)| unit(i, r)).collect())
    }

    /// Helper tokens for a lane-plus-helpers call over `n` units: up to
    /// `workers − 1` (one per unit at most), none for a sequential
    /// scheduler or a single unit, and only as many as are idle.
    fn lease_helpers(&self, n: usize) -> Vec<budget::Helper> {
        if self.workers <= 1 || n <= 1 {
            return Vec::new();
        }
        budget::lease((self.workers - 1).min(n))
    }

    /// Evaluate units whose seeds come off a sequential carried-state
    /// lane: `seed` runs in plan order (it may fold mutable state across
    /// calls — the cumulative warm hierarchy), `body` runs on any worker
    /// once its unit's seed exists. Results come back in plan order.
    ///
    /// When it leases helpers, the calling thread runs the seed lane and
    /// bodies drain from a bounded channel on the helpers, so seed
    /// production overlaps body evaluation — the region-granular
    /// analogue of the paper's pass pipeline. Whenever the channel is
    /// full the lane runs the oldest queued body itself instead of
    /// blocking, and once the lane is done the calling thread drains
    /// bodies too; a body that panics on a helper therefore fails the
    /// run (at the latest when the lane meets a full queue) instead of
    /// hanging it. With one worker, or no idle helper, the two
    /// interleave exactly like the classic sequential driver: seed(0),
    /// body(0), seed(1), body(1), …
    pub fn run_seeded<S: Send, R: Send>(
        &self,
        regions: &[Region],
        mut seed: impl FnMut(u32, &Region) -> S,
        body: impl Fn(u32, &Region, S) -> R + Sync,
    ) -> Vec<R> {
        let n = regions.len();
        let helpers = self.lease_helpers(n);
        if helpers.is_empty() {
            return regions
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    let s = seed(i as u32, r);
                    body(i as u32, r, s)
                })
                .collect();
        }
        // The seed channel's bound is the pipeline depth: the seed lane
        // may run at most one seed per helper ahead of the slowest body,
        // modeling a finite pipe buffer.
        let (seed_tx, seed_rx) = bounded::<(u32, S)>(helpers.len().max(2));
        let (done_tx, done_rx) = bounded::<(u32, R)>(n);
        let seed_rx = Mutex::new(seed_rx);
        // lint:allow(no-unwrap): a poisoned lock means a sibling worker panicked; propagating is the only sound recovery
        let queue = || seed_rx.lock().expect("seed channel lock");
        let run_body = |(i, s): (u32, S), done_tx: &Sender<(u32, R)>| {
            // The done channel holds every unit, so this never blocks.
            let _ = done_tx.send((i, body(i, &regions[i as usize], s)));
        };
        let consume = |done_tx: Sender<(u32, R)>| loop {
            // Hold the lock for the receive only: the guard must drop
            // before the body runs, or every other consumer (and the
            // lane's `try_lock`) would wait for that body. `recv` ends
            // once the seed lane is done and the queue drained.
            let msg = queue().recv();
            let Ok(msg) = msg else { return };
            run_body(msg, &done_tx);
        };
        let consume = &consume;
        std::thread::scope(|scope| {
            for helper in helpers {
                let done_tx = done_tx.clone();
                scope.spawn(move || helper.run(|| consume(done_tx)));
            }
            for (i, r) in regions.iter().enumerate() {
                let mut msg = (i as u32, seed(i as u32, r));
                // A full queue means every helper is busy (or dead): run
                // the oldest queued body here instead of blocking on the
                // send, so a helper's panic can never wedge the lane.
                while let Err(TrySendError::Full(back)) = seed_tx.try_send(msg) {
                    msg = back;
                    // Never wait for the lock: a helper holding it is
                    // mid-receive and about to make room.
                    let oldest = match seed_rx.try_lock() {
                        Ok(rx) => rx.try_recv().ok(),
                        // A receiver keeps no invariant a panic could break.
                        Err(TryLockError::Poisoned(rx)) => rx.into_inner().try_recv().ok(),
                        Err(TryLockError::WouldBlock) => None,
                    };
                    match oldest {
                        Some(oldest) => run_body(oldest, &done_tx),
                        None => std::thread::yield_now(),
                    }
                }
            }
            drop(seed_tx);
            consume(done_tx);
            let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
            for (i, out) in done_rx.iter() {
                slots[i as usize] = Some(out);
            }
            // A missing slot means a consumer died before reporting; name
            // the units instead of failing anonymously (the fault-isolated
            // paths below classify the failure rather than panicking).
            let mut lost = Vec::new();
            let mut out = Vec::with_capacity(n);
            for (i, s) in slots.into_iter().enumerate() {
                match s {
                    Some(r) => out.push(r),
                    None => lost.push(i as u32),
                }
            }
            if !lost.is_empty() {
                std::panic::panic_any(LostUnits { units: lost });
            }
            out
        })
    }

    /// Evaluate **speculative** units, speculating only where a helper
    /// runs ahead of the chain.
    ///
    /// `reconcile` runs on the calling thread **in plan order**, folding
    /// the sequential carried state and deciding commit vs re-measure for
    /// each unit. Regions are claimed in plan order, once each:
    ///
    /// * a helper (leased for `workers − 1`) claims the next unclaimed
    ///   region and runs `spec` on it in [`SpecForm::Full`] — an
    ///   independent speculation with no chain dependency, which is the
    ///   entire point of the speculative warm lane;
    /// * when the reconciler reaches a region no helper has claimed, it
    ///   claims the region itself and runs `spec` in [`SpecForm::Light`]:
    ///   only the part `reconcile` needs to decide the commit, because the
    ///   chain is about to do the region's work in place anyway. It never
    ///   waits for a helper that has not started.
    ///
    /// Out-of-order full speculations are buffered until the reconciler
    /// catches up, so `reconcile(i, …)` always observes units `0..i`
    /// already reconciled — exactly the sequential fold. With one worker,
    /// or no idle helper, every region is light and the two interleave:
    /// spec(0), reconcile(0), spec(1), …
    ///
    /// Determinism contract: `spec` must be a pure function of
    /// `(index, region, form)`, and what `reconcile` returns (and every
    /// commit/miss decision) must not depend on the form or on *when* a
    /// speculation arrived — then the outputs are bitwise identical for
    /// every worker count.
    pub fn run_speculative<S: Send, R>(
        &self,
        regions: &[Region],
        spec: impl Fn(u32, &Region, SpecForm) -> S + Sync,
        mut reconcile: impl FnMut(u32, &Region, S) -> R,
    ) -> Vec<R> {
        let n = regions.len();
        let helpers = self.lease_helpers(n);
        // The next unclaimed region. Helpers claim with `fetch_add`, the
        // reconciler with a compare-exchange on exactly the region it
        // needs; every region below it is already claimed. Results travel
        // through the channel, so `Relaxed` suffices.
        let next = AtomicUsize::new(0);
        let (done_tx, done_rx) = bounded::<(u32, S)>(n.max(1));
        let (spec, next) = (&spec, &next);
        std::thread::scope(|scope| {
            for helper in helpers {
                let done_tx = done_tx.clone();
                scope.spawn(move || {
                    helper.run(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return;
                        }
                        let s = spec(i as u32, &regions[i], SpecForm::Full);
                        if done_tx.send((i as u32, s)).is_err() {
                            return; // reconciler gone (it panicked)
                        }
                    })
                });
            }
            drop(done_tx);
            let mut pending: Vec<Option<S>> = (0..n).map(|_| None).collect();
            let mut out = Vec::with_capacity(n);
            for (k, region) in regions.iter().enumerate() {
                let iu = k as u32;
                let s = if let Some(s) = pending[k].take() {
                    s
                } else if next
                    .compare_exchange(k, k + 1, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    spec(iu, region, SpecForm::Light)
                } else {
                    // A helper claimed `k`: its full speculation is on
                    // the way (buffer any later ones that overtake it).
                    loop {
                        // lint:allow(no-unwrap): the channel only closes once every helper exited, so the helper that claimed `k` panicked; propagating is the only sound recovery
                        let (i, s) = done_rx.recv().expect("every speculation must arrive");
                        if i == iu {
                            break s;
                        }
                        pending[i as usize] = Some(s);
                    }
                };
                out.push(reconcile(iu, region, s));
            }
            out
        })
    }

    /// [`run_units`](Self::run_units) with **panic isolation**: each
    /// unit body runs inside
    /// [`fault::run_unit_guarded`] — a panic (or injected fault at the
    /// [`FaultSite::UnitEntry`] site) is caught and classified, the
    /// unit is retried up to the policy's budget, and exhaustion
    /// quarantines the unit instead of unwinding the run.
    ///
    /// Returns plan-ordered result slots (`None` = quarantined) plus
    /// the plan-ordered failure list. A fully clean run returns all
    /// `Some` with no failures, and its results are bitwise identical
    /// to [`run_units`](Self::run_units) at every worker count —
    /// isolation is pure scheduling, never semantics.
    ///
    /// `unit` must stay a pure function of `(index, region)`: retries
    /// re-enter it from the top, which is only sound because it owns no
    /// carried state.
    pub fn run_units_isolated<R: Send>(
        &self,
        regions: &[Region],
        policy: &FaultPolicy,
        unit: impl Fn(u32, &Region) -> R + Sync,
    ) -> (Vec<Option<R>>, Vec<UnitFailure>) {
        let guarded = |i: u32, r: &Region| -> Result<R, UnitFailure> {
            fault::run_unit_guarded(i, policy, || {
                fault::hit(FaultSite::UnitEntry, u64::from(i));
                unit(i, r)
            })
        };
        split_results(self.run_units(regions, guarded))
    }

    /// [`run_seeded`](Self::run_seeded) with **panic isolation**.
    ///
    /// The two lanes fail differently:
    ///
    /// * **Body** failures are local. Each body runs guarded with a
    ///   [`FaultSite::UnitEntry`] injection site and retries from a
    ///   fresh [`Clone`] of its seed (which is why `S: Clone` here);
    ///   exhaustion quarantines that unit alone — the seed lane has
    ///   already moved past it.
    /// * **Seed** failures poison the chain. A failed seed call leaves
    ///   the carried state (the cumulative warm hierarchy) half-mutated,
    ///   so it is *not* retried: unit *i* is quarantined with its
    ///   classified fault and every unit after it with
    ///   [`UnitFault::ChainPoisoned`], without calling `seed` again.
    ///   Seeds carry no injection site for the same reason — injected
    ///   faults must stay recoverable.
    ///
    /// Built on [`run_seeded`](Self::run_seeded) itself (a unit's seed is
    /// its guarded outcome), so a fully clean run's results are bitwise
    /// identical to the plain lane's at every worker count.
    pub fn run_seeded_isolated<S: Send + Clone, R: Send>(
        &self,
        regions: &[Region],
        policy: &FaultPolicy,
        mut seed: impl FnMut(u32, &Region) -> S,
        body: impl Fn(u32, &Region, S) -> R + Sync,
    ) -> (Vec<Option<R>>, Vec<UnitFailure>) {
        let seed_once = FaultPolicy { retry_budget: 0 };
        let mut poisoned: Option<u32> = None;
        let guarded_seed = |i: u32, r: &Region| -> Result<S, UnitFailure> {
            if let Some(upstream) = poisoned {
                return Err(UnitFailure {
                    unit: i,
                    attempts: 0,
                    fault: UnitFault::ChainPoisoned { upstream },
                });
            }
            fault::run_unit_guarded(i, &seed_once, || seed(i, r))
                .inspect_err(|_| poisoned = Some(i))
        };
        let guarded_body = |i: u32, r: &Region, s: Result<S, UnitFailure>| {
            let s = s?;
            fault::run_unit_guarded(i, policy, || {
                fault::hit(FaultSite::UnitEntry, u64::from(i));
                body(i, r, s.clone())
            })
        };
        split_results(self.run_seeded(regions, guarded_seed, guarded_body))
    }

    /// [`run_speculative`](Self::run_speculative) with **panic
    /// isolation**, through the same claim loop.
    ///
    /// Speculation bodies are free to die: a `spec` failure (after its
    /// guarded retries at the [`FaultSite::UnitEntry`] site) simply
    /// degrades that unit's speculation to `None`, and the reconciler —
    /// which receives `Option<S>` — takes its miss path and redoes the
    /// unit from the true carried state. **Spec faults therefore never
    /// quarantine anything**; they only cost modeled speedup.
    ///
    /// The reconciler is the chain: each call is preceded by a guarded
    /// [`FaultSite::ReconcilerCommit`] gate (injected faults fire here,
    /// *before* any chain mutation, so they are retryable), and the
    /// `reconcile` call itself runs caught-but-unretried — a genuine
    /// reconciler panic may have half-mutated the carried state, so it
    /// quarantines unit *i* and poisons every later unit. Once the chain
    /// is poisoned, `spec` is no longer called: any later claim yields
    /// `None` at once.
    ///
    /// A fully clean run's results are bitwise identical to
    /// [`run_speculative`](Self::run_speculative) at every worker count.
    pub fn run_speculative_isolated<S: Send, R>(
        &self,
        regions: &[Region],
        policy: &FaultPolicy,
        spec: impl Fn(u32, &Region, SpecForm) -> S + Sync,
        mut reconcile: impl FnMut(u32, &Region, Option<S>) -> R,
    ) -> (Vec<Option<R>>, Vec<UnitFailure>) {
        let reconcile_once = FaultPolicy { retry_budget: 0 };
        // The first unit whose reconcile failed. Shared with the spec
        // side so that nothing speculates for a unit the chain will
        // quarantine anyway.
        let poisoned = OnceLock::<u32>::new();
        let guarded_spec = |i: u32, r: &Region, form: SpecForm| -> Option<S> {
            if poisoned.get().is_some() {
                return None;
            }
            fault::run_unit_guarded(i, policy, || {
                fault::hit(FaultSite::UnitEntry, u64::from(i));
                spec(i, r, form)
            })
            .ok()
        };
        let guarded_reconcile = |i: u32, r: &Region, s: Option<S>| -> Result<R, UnitFailure> {
            if let Some(&upstream) = poisoned.get() {
                return Err(UnitFailure {
                    unit: i,
                    attempts: 0,
                    fault: UnitFault::ChainPoisoned { upstream },
                });
            }
            // Injection gate first: it faults before reconcile mutates
            // anything, so the retry loop is sound here...
            fault::run_unit_guarded(i, policy, || {
                fault::hit(FaultSite::ReconcilerCommit, u64::from(i))
            })
            .and_then(|()| {
                // ...but the reconcile body itself gets exactly one attempt.
                let mut slot = Some(s);
                fault::run_unit_guarded(i, &reconcile_once, || {
                    reconcile(i, r, slot.take().flatten())
                })
            })
            .inspect_err(|_| {
                let _ = poisoned.set(i);
            })
        };
        split_results(self.run_speculative(regions, guarded_spec, guarded_reconcile))
    }
}

impl Default for RegionScheduler {
    /// The sequential scheduler — parallelism is always an explicit
    /// opt-in (via [`RegionScheduler::new`] or a runner's
    /// `with_region_workers`).
    fn default() -> Self {
        Self::sequential()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SamplingConfig;
    use delorean_trace::Scale;

    fn regions(n: u32) -> Vec<Region> {
        SamplingConfig::for_scale(Scale::tiny())
            .with_regions(n)
            .plan()
            .regions
    }

    #[test]
    fn independent_units_come_back_in_plan_order() {
        let rs = regions(7);
        let reference: Vec<u64> = rs.iter().map(|r| r.start_instr * 3).collect();
        for workers in [1, 2, 4, 8] {
            let got = RegionScheduler::new(workers).run_units(&rs, |_, r| r.start_instr * 3);
            assert_eq!(got, reference, "workers={workers}");
        }
    }

    #[test]
    fn seeded_units_see_the_sequential_fold() {
        let rs = regions(6);
        // The seed lane folds a running sum; every worker count must
        // observe the same per-unit prefix.
        let reference: Vec<u64> = {
            let mut acc = 0u64;
            rs.iter()
                .map(|r| {
                    acc += r.start_instr;
                    acc
                })
                .collect()
        };
        for workers in [1, 2, 3, 8] {
            let mut acc = 0u64;
            let got = RegionScheduler::new(workers).run_seeded(
                &rs,
                move |_, r| {
                    acc += r.start_instr;
                    acc
                },
                |_, _, s| s,
            );
            assert_eq!(got, reference, "workers={workers}");
        }
    }

    #[test]
    fn a_panicking_body_fails_the_seeded_lane_instead_of_hanging() {
        // Every body dies. Whichever thread runs one first panics; the
        // seed lane must never wait forever on a full queue whose
        // helpers are gone.
        let (tx, rx) = std::sync::mpsc::channel();
        let run = std::thread::spawn(move || {
            let rs = regions(12);
            let outcome = std::panic::catch_unwind(|| {
                RegionScheduler::new(4).run_seeded(
                    &rs,
                    |i, _| i,
                    |i, _, _| -> u32 { std::panic::panic_any(format!("body {i} dies")) },
                )
            });
            let _ = tx.send(outcome.is_err());
        });
        let panicked = rx
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("run_seeded hung after a body panicked");
        assert!(panicked, "a dead body must fail the run");
        run.join()
            .expect("the watchdog's runner thread catches the panic");
    }

    #[test]
    fn seeded_bodies_overlap_when_a_helper_is_leased() {
        // The lane holds seed 1 back until a body has started, so with a
        // helper the first body runs there. That body then waits for a
        // second one, which only the lane can start, from its full
        // queue. A consumer that kept the queue locked while its body
        // ran would leave the first body waiting out its timeout alone.
        use std::sync::atomic::AtomicBool;
        use std::sync::Condvar;
        let rs = regions(8);
        let caller = std::thread::current().id();
        let started = (Mutex::new(0usize), Condvar::new());
        let (sequential, paired) = (AtomicBool::new(false), AtomicBool::new(true));
        let got = RegionScheduler::new(3).run_seeded(
            &rs,
            |i, _| {
                if i == 1 {
                    let (lock, cv) = &started;
                    let n = lock.lock().expect("rendezvous lock");
                    drop(cv.wait_while(n, |n| *n == 0).expect("rendezvous lock"));
                }
                i
            },
            |_, _, s| {
                let (lock, cv) = &started;
                let mut n = lock.lock().expect("rendezvous lock");
                *n += 1;
                cv.notify_all();
                // The caller running the first body means the budget
                // leased no helper: the run is the sequential interleave,
                // where no two bodies can overlap.
                if *n == 1 && std::thread::current().id() == caller {
                    sequential.store(true, Ordering::Relaxed);
                }
                if *n == 1 && !sequential.load(Ordering::Relaxed) {
                    let (n, wait) = cv
                        .wait_timeout_while(n, std::time::Duration::from_secs(60), |n| *n < 2)
                        .expect("rendezvous lock");
                    drop(n);
                    if wait.timed_out() {
                        paired.store(false, Ordering::Relaxed);
                    }
                }
                s
            },
        );
        assert_eq!(got, (0..8).collect::<Vec<u32>>());
        if !sequential.into_inner() {
            assert!(
                paired.into_inner(),
                "the lane never ran a body while a helper's body was in flight"
            );
        }
    }

    #[test]
    fn speculation_claims_each_region_once_and_runs_light_without_helpers() {
        let rs = regions(9);
        for workers in [1, 2, 4, 8] {
            let (calls, light) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let got = RegionScheduler::new(workers).run_speculative(
                &rs,
                |i, _, form| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    if form == SpecForm::Light {
                        light.fetch_add(1, Ordering::Relaxed);
                    }
                    i
                },
                |i, _, s| {
                    assert_eq!(i, s, "workers={workers}: speculation of another unit");
                    s
                },
            );
            assert_eq!(got, (0..9).collect::<Vec<u32>>(), "workers={workers}");
            assert_eq!(calls.into_inner(), 9, "workers={workers}");
            if workers == 1 {
                assert_eq!(light.into_inner(), 9, "no helper, so every region is light");
            }
        }
    }

    #[test]
    fn worker_count_is_clamped_and_reported() {
        assert_eq!(RegionScheduler::new(0).workers(), 1);
        assert_eq!(RegionScheduler::new(5).workers(), 5);
        assert_eq!(RegionScheduler::sequential().workers(), 1);
        assert_eq!(RegionScheduler::default(), RegionScheduler::sequential());
        assert!(RegionScheduler::host().workers() >= 1);
    }

    #[test]
    fn speculative_units_reconcile_in_plan_order() {
        let rs = regions(6);
        // The reconciler folds a running product over (index, spec value);
        // any arrival order must yield the sequential fold.
        let reference: Vec<u64> = {
            let mut acc = 1u64;
            rs.iter()
                .enumerate()
                .map(|(i, r)| {
                    acc = acc.wrapping_mul(r.start_instr + i as u64 + 2);
                    acc
                })
                .collect()
        };
        for workers in [1, 2, 3, 8] {
            let mut acc = 1u64;
            let got = RegionScheduler::new(workers).run_speculative(
                &rs,
                |i, r, _| r.start_instr + u64::from(i) + 2,
                |_, _, s| {
                    acc = acc.wrapping_mul(s);
                    acc
                },
            );
            assert_eq!(got, reference, "workers={workers}");
        }
    }

    #[test]
    fn isolated_units_match_plain_results_when_clean() {
        let rs = regions(7);
        let reference: Vec<u64> = rs.iter().map(|r| r.start_instr * 3).collect();
        let policy = FaultPolicy::default();
        for workers in [1, 2, 4, 8] {
            let (got, failures) =
                RegionScheduler::new(workers)
                    .run_units_isolated(&rs, &policy, |_, r| r.start_instr * 3);
            assert!(failures.is_empty(), "workers={workers}");
            let got: Vec<u64> = got.into_iter().flatten().collect();
            assert_eq!(got, reference, "workers={workers}");
        }
    }

    #[test]
    fn a_poisonous_unit_is_quarantined_with_its_attempts() {
        let rs = regions(5);
        let policy = FaultPolicy { retry_budget: 1 };
        for workers in [1, 4] {
            let (got, failures) =
                RegionScheduler::new(workers).run_units_isolated(&rs, &policy, |i, _| {
                    if i == 2 {
                        std::panic::panic_any("unit 2 always dies".to_string());
                    }
                    u64::from(i)
                });
            assert_eq!(got.len(), 5);
            assert!(got[2].is_none(), "workers={workers}");
            assert_eq!(got.iter().filter(|s| s.is_some()).count(), 4);
            assert_eq!(failures.len(), 1);
            assert_eq!(failures[0].unit, 2);
            assert_eq!(failures[0].attempts, 2);
            assert!(matches!(
                failures[0].fault,
                UnitFault::Panicked { ref message } if message.contains("unit 2")
            ));
        }
    }

    #[test]
    fn seeded_isolation_keeps_the_sequential_fold_when_clean() {
        let rs = regions(6);
        let reference: Vec<u64> = {
            let mut acc = 0u64;
            rs.iter()
                .map(|r| {
                    acc += r.start_instr;
                    acc
                })
                .collect()
        };
        let policy = FaultPolicy::default();
        for workers in [1, 2, 3, 8] {
            let mut acc = 0u64;
            let (got, failures) = RegionScheduler::new(workers).run_seeded_isolated(
                &rs,
                &policy,
                move |_, r| {
                    acc += r.start_instr;
                    acc
                },
                |_, _, s| s,
            );
            assert!(failures.is_empty(), "workers={workers}");
            let got: Vec<u64> = got.into_iter().flatten().collect();
            assert_eq!(got, reference, "workers={workers}");
        }
    }

    #[test]
    fn a_dead_seed_poisons_the_rest_of_the_chain() {
        let rs = regions(5);
        let policy = FaultPolicy::default();
        for workers in [1, 3] {
            let (got, failures) = RegionScheduler::new(workers).run_seeded_isolated(
                &rs,
                &policy,
                |i, _| {
                    if i == 2 {
                        std::panic::panic_any("seed 2 dies".to_string());
                    }
                    u64::from(i)
                },
                |_, _, s| s,
            );
            assert_eq!(
                got.iter().map(|s| s.is_some()).collect::<Vec<_>>(),
                [true, true, false, false, false],
                "workers={workers}"
            );
            assert_eq!(failures.len(), 3, "workers={workers}");
            assert_eq!(failures[0].unit, 2);
            // Seeds are never retried: the chain state is unusable.
            assert_eq!(failures[0].attempts, 1);
            for (f, unit) in failures[1..].iter().zip([3u32, 4]) {
                assert_eq!(f.unit, unit);
                assert_eq!(f.attempts, 0);
                assert!(matches!(f.fault, UnitFault::ChainPoisoned { upstream: 2 }));
            }
        }
    }

    #[test]
    fn a_dead_body_quarantines_only_its_own_unit() {
        let rs = regions(5);
        let policy = FaultPolicy { retry_budget: 0 };
        for workers in [1, 3] {
            let (got, failures) = RegionScheduler::new(workers).run_seeded_isolated(
                &rs,
                &policy,
                |i, _| u64::from(i),
                |i, _, s| {
                    if i == 1 {
                        std::panic::panic_any("body 1 dies".to_string());
                    }
                    s
                },
            );
            assert_eq!(
                got.iter().map(|s| s.is_some()).collect::<Vec<_>>(),
                [true, false, true, true, true],
                "workers={workers}"
            );
            assert_eq!(failures.len(), 1);
            assert_eq!(failures[0].unit, 1);
        }
    }

    #[test]
    fn dead_speculations_degrade_to_the_miss_path() {
        let rs = regions(6);
        let policy = FaultPolicy { retry_budget: 0 };
        // Reference: the reconciler's fold where every unit takes the
        // miss path value when its speculation is unavailable.
        let reference: Vec<u64> = rs
            .iter()
            .enumerate()
            .map(|(i, r)| {
                if i == 3 {
                    r.start_instr + 1_000 // miss path
                } else {
                    r.start_instr
                }
            })
            .collect();
        for workers in [1, 2, 8] {
            let (got, failures) = RegionScheduler::new(workers).run_speculative_isolated(
                &rs,
                &policy,
                |i, r, _| {
                    if i == 3 {
                        std::panic::panic_any("spec 3 dies".to_string());
                    }
                    r.start_instr
                },
                |_, r, s: Option<u64>| s.unwrap_or(r.start_instr + 1_000),
            );
            // Spec faults never quarantine.
            assert!(failures.is_empty(), "workers={workers}");
            let got: Vec<u64> = got.into_iter().flatten().collect();
            assert_eq!(got, reference, "workers={workers}");
        }
    }

    #[test]
    fn a_dead_reconciler_poisons_downstream_units() {
        let rs = regions(5);
        let policy = FaultPolicy::default();
        for workers in [1, 3] {
            let late_specs = AtomicUsize::new(0);
            let (got, failures) = RegionScheduler::new(workers).run_speculative_isolated(
                &rs,
                &policy,
                |i, _, _| {
                    if i > 2 {
                        late_specs.fetch_add(1, Ordering::Relaxed);
                    }
                    u64::from(i)
                },
                |i, _, s: Option<u64>| {
                    if i == 2 {
                        std::panic::panic_any("reconcile 2 dies".to_string());
                    }
                    s.unwrap_or(0)
                },
            );
            assert_eq!(
                got.iter().map(|s| s.is_some()).collect::<Vec<_>>(),
                [true, true, false, false, false],
                "workers={workers}"
            );
            assert_eq!(failures.len(), 3);
            assert_eq!(failures[0].unit, 2);
            assert_eq!(failures[0].attempts, 1);
            assert!(matches!(
                failures[2].fault,
                UnitFault::ChainPoisoned { upstream: 2 }
            ));
            if workers == 1 {
                // Without helpers every claim follows the reconcile
                // before it, so nothing after the poison speculates.
                assert_eq!(late_specs.into_inner(), 0);
            }
        }
    }

    #[test]
    fn empty_and_single_region_plans_work() {
        let rs = regions(1);
        let got = RegionScheduler::new(4).run_units(&rs, |i, _| i);
        assert_eq!(got, vec![0]);
        let got = RegionScheduler::new(4).run_seeded(&rs, |i, _| i, |_, _, s| s);
        assert_eq!(got, vec![0]);
        let none: Vec<Region> = Vec::new();
        let got: Vec<u32> = RegionScheduler::new(4).run_units(&none, |i, _| i);
        assert!(got.is_empty());
    }
}
