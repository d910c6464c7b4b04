//! The unified strategy-execution interface.
//!
//! Every warming strategy in the workspace — SMARTS, CoolSim, MRRL,
//! checkpointed warming and DeLorean itself — implements
//! [`SamplingStrategy`], so harness code (the parallel batch executor in
//! `delorean_bench`, the experiment drivers, integration tests) can hold
//! a `Box<dyn SamplingStrategy>` and run any mix of strategies through
//! one code path.
//!
//! A strategy returns a [`StrategyReport`]: the strategy-agnostic
//! [`SimulationReport`] every comparison is built on, plus optional
//! strategy-specific *extras* (DeLorean attaches its time-traveling
//! statistics and DSW classification counters; checkpointed warming its
//! storage footprint). Extras are type-erased so this crate does not
//! need to know downstream types; consumers recover them with
//! [`StrategyReport::extras`] or [`StrategyReport::split`].

use crate::config::RegionPlan;
use crate::driver::RegionUnit;
use crate::report::SimulationReport;
use delorean_trace::fault::{self, FaultPolicy, UnitFailure};
use delorean_trace::Workload;
use std::any::Any;
use std::fmt;
use std::ops::{Deref, Range};

/// A sampled-simulation warming strategy, executable through a trait
/// object.
///
/// Implementations must be deterministic pure functions of
/// `(self, workload, plan)`: the batch executor runs strategies from
/// worker threads in arbitrary order and asserts that results are
/// byte-identical to serial execution. An implementation must provide
/// [`name`](SamplingStrategy::name) and
/// [`run_with_workers`](SamplingStrategy::run_with_workers); every other
/// method has a default built on them.
///
/// # Example
///
/// Any mix of strategies runs through one trait-object code path:
///
/// ```
/// use delorean_cache::MachineConfig;
/// use delorean_sampling::{MrrlRunner, SamplingConfig, SamplingStrategy, SmartsRunner};
/// use delorean_trace::{spec_workload, Scale};
///
/// let scale = Scale::tiny();
/// let machine = MachineConfig::for_scale(scale);
/// let plan = SamplingConfig::for_scale(scale).with_regions(1).plan();
/// let w = spec_workload("hmmer", scale, 1).unwrap();
///
/// let strategies: Vec<Box<dyn SamplingStrategy>> = vec![
///     Box::new(SmartsRunner::new(machine)),
///     Box::new(MrrlRunner::new(machine)),
/// ];
/// for s in &strategies {
///     let report = s.run(&w, &plan);
///     assert_eq!(report.strategy, s.name());
///     assert!(report.cpi() > 0.0);
///     // Scheduling is not semantics: any worker count, same bytes.
///     let parallel = s.run_with_workers(&w, &plan, 4);
///     assert_eq!(parallel.report, report.report);
/// }
/// ```
pub trait SamplingStrategy: Send + Sync {
    /// Stable lowercase identifier (`"smarts"`, `"coolsim"`, `"mrrl"`,
    /// `"checkpoint"`, `"delorean"`); also the `strategy` field of the
    /// returned report.
    fn name(&self) -> &str;

    /// Run the full sampled simulation over `plan`'s regions: provided
    /// as [`run_with_workers`](SamplingStrategy::run_with_workers) at
    /// the runner's own count
    /// ([`internal_parallelism`](SamplingStrategy::internal_parallelism)).
    /// Override it only to wrap the call (tracing, say), never to run
    /// differently.
    fn run(&self, workload: &dyn Workload, plan: &RegionPlan) -> StrategyReport {
        self.run_with_workers(workload, plan, self.internal_parallelism())
    }

    /// Run with an explicit region-scheduler worker count, overriding
    /// whatever the runner was configured with. **Required**, since
    /// [`run`](SamplingStrategy::run) defaults to it.
    ///
    /// The determinism contract makes this a pure scheduling knob: the
    /// returned report must be byte-identical for every `workers` value
    /// (`tests/determinism.rs` asserts it for all five strategies); a
    /// single-threaded strategy ignores `workers`. The run is unguarded:
    /// it traverses no fault-injection site and catches no panic, so a
    /// harness guarding whole runs (the batch executor's isolated
    /// matrix, the shard worker) strikes each cell exactly once
    /// (`tests/fault_injection.rs` pins this).
    fn run_with_workers(
        &self,
        workload: &dyn Workload,
        plan: &RegionPlan,
        workers: usize,
    ) -> StrategyReport;

    /// Run with **panic isolation and deterministic retry**: unit
    /// faults are caught, retried within `policy`'s budget, and
    /// quarantined on exhaustion, so the run always completes with a
    /// typed [`PartialReport`] instead of unwinding.
    ///
    /// The contract mirrors
    /// [`run_with_workers`](SamplingStrategy::run_with_workers): on a
    /// fully clean run (no faults, or only faults that retries
    /// absorbed) the returned report must be **bitwise identical** to
    /// the plain run at every worker count — isolation is scheduling,
    /// never semantics (`tests/fault_injection.rs` pins this for all
    /// five strategies).
    ///
    /// The built-in strategies run the same execution body as
    /// [`run_with_workers`](SamplingStrategy::run_with_workers), with
    /// the `RegionScheduler` lanes guarding each unit; the default
    /// guards the whole run as a single unit (one retryable fault
    /// domain — sound because strategies are pure functions of their
    /// inputs). Strategy extras are not carried by partial reports.
    fn run_isolated(
        &self,
        workload: &dyn Workload,
        plan: &RegionPlan,
        workers: usize,
        policy: &FaultPolicy,
    ) -> PartialReport {
        match fault::run_unit_guarded(0, policy, || {
            self.run_with_workers(workload, plan, workers).into_report()
        }) {
            Ok(report) => PartialReport {
                report,
                quarantined: Vec::new(),
            },
            Err(failure) => PartialReport::whole_run_lost(workload, self.name(), failure),
        }
    }

    /// Evaluate the plan regions with `span` indices as standalone
    /// [`RegionUnit`]s, or `None` if this strategy does not decompose.
    ///
    /// This is the shard layer's unit-granular lease surface: a
    /// strategy whose regions are **fully independent** (the unit body
    /// is a pure function of `(index, region)` and the chained lane is
    /// empty — CoolSim, MRRL) returns the exact units its in-process
    /// [`run`](SamplingStrategy::run) would produce for that span, so
    /// a broker may fan spans across processes and fold them with
    /// [`reduce_region_units`](crate::reduce_region_units) into a
    /// report bitwise identical to the in-process one. Strategies with
    /// carried state between regions (SMARTS's warm chain, checkpoint
    /// preparation, DeLorean's multi-pass cost structure) return
    /// `None` (the default) and are leased as whole cells instead.
    ///
    /// `span` is clamped to the plan; an empty clamped span yields an
    /// empty vector, not `None`.
    fn run_unit_span(
        &self,
        workload: &dyn Workload,
        plan: &RegionPlan,
        span: Range<u32>,
    ) -> Option<Vec<RegionUnit>> {
        let _ = (workload, plan, span);
        None
    }

    /// Most threads one [`run`](SamplingStrategy::run) call may use
    /// (1 for single-threaded strategies; the configured region-worker
    /// count for scheduler-backed runners). An informational hint only:
    /// the threads beyond the caller are leased from the rayon shim's
    /// process-wide budget, which is what keeps nested parallelism from
    /// oversubscribing the host, so no executor needs to size itself by
    /// this value.
    fn internal_parallelism(&self) -> usize {
        1
    }
}

/// The outcome of a fault-isolated run
/// ([`SamplingStrategy::run_isolated`]): the report assembled from
/// every unit that completed, plus the plan-ordered list of units that
/// exhausted their retries and were quarantined.
///
/// A clean run has an empty quarantine list and a report bitwise
/// identical to the plain (non-isolated) run's; a partial run's report
/// simply omits the quarantined regions (its `regions` vector and cost
/// units skip them, while `covered_instrs` still describes the full
/// sampling design).
#[derive(Debug)]
pub struct PartialReport {
    /// The report over the units that completed.
    pub report: SimulationReport,
    /// Units that exhausted their retry budget (or were chain-poisoned
    /// by one that did), in plan order. Empty for a clean run.
    pub quarantined: Vec<UnitFailure>,
}

impl PartialReport {
    /// Whether every unit completed (the report is a full run).
    pub fn is_complete(&self) -> bool {
        self.quarantined.is_empty()
    }

    /// The report, discarding the quarantine list.
    pub fn into_report(self) -> SimulationReport {
        self.report
    }

    /// A run whose one fault domain covering every region failed: an
    /// empty report, quarantined behind `failure`.
    pub(crate) fn whole_run_lost(
        workload: &dyn Workload,
        strategy: &str,
        failure: UnitFailure,
    ) -> Self {
        PartialReport {
            report: SimulationReport {
                workload: workload.name().to_string(),
                strategy: strategy.to_string(),
                ..Default::default()
            },
            quarantined: vec![failure],
        }
    }
}

impl From<(StrategyReport, Vec<UnitFailure>)> for PartialReport {
    /// A guarded execution's report (its extras dropped) and quarantine
    /// list.
    fn from((report, quarantined): (StrategyReport, Vec<UnitFailure>)) -> Self {
        PartialReport {
            report: report.into_report(),
            quarantined,
        }
    }
}

impl fmt::Debug for dyn SamplingStrategy + '_ {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SamplingStrategy")
            .field("name", &self.name())
            .finish()
    }
}

/// The outcome of one [`SamplingStrategy::run`]: the comparable report
/// plus optional type-erased strategy extras.
///
/// Dereferences to [`SimulationReport`], so metric helpers (`cpi()`,
/// `speedup_vs(..)`, …) are available directly.
pub struct StrategyReport {
    /// The strategy-agnostic report (CPI/MPKI per region, host cost).
    pub report: SimulationReport,
    extras: Option<Box<dyn Any + Send + Sync>>,
}

impl StrategyReport {
    /// A report without extras.
    pub fn new(report: SimulationReport) -> Self {
        StrategyReport {
            report,
            extras: None,
        }
    }

    /// Attach strategy-specific extras.
    pub fn with_extras<T: Any + Send + Sync>(mut self, extras: T) -> Self {
        self.extras = Some(Box::new(extras));
        self
    }

    /// Borrow the extras, if present and of type `T`.
    pub fn extras<T: Any>(&self) -> Option<&T> {
        self.extras.as_ref()?.downcast_ref::<T>()
    }

    /// Split into the plain report and the extras, if of type `T`.
    /// Extras of a different type are dropped.
    pub fn split<T: Any>(self) -> (SimulationReport, Option<T>) {
        let extras = self
            .extras
            .and_then(|b| (b as Box<dyn Any>).downcast::<T>().ok())
            .map(|b| *b);
        (self.report, extras)
    }

    /// Discard any extras and return the plain report.
    pub fn into_report(self) -> SimulationReport {
        self.report
    }
}

impl From<SimulationReport> for StrategyReport {
    fn from(report: SimulationReport) -> Self {
        StrategyReport::new(report)
    }
}

impl Deref for StrategyReport {
    type Target = SimulationReport;

    fn deref(&self) -> &SimulationReport {
        &self.report
    }
}

impl fmt::Debug for StrategyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StrategyReport")
            .field("report", &self.report)
            .field("has_extras", &self.extras.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Extra(u32);

    fn report() -> SimulationReport {
        SimulationReport {
            workload: "w".into(),
            strategy: "s".into(),
            ..Default::default()
        }
    }

    #[test]
    fn extras_round_trip_by_type() {
        let r = StrategyReport::new(report()).with_extras(Extra(7));
        assert_eq!(r.extras::<Extra>(), Some(&Extra(7)));
        assert_eq!(r.extras::<String>(), None);
        let (rep, extra) = r.split::<Extra>();
        assert_eq!(rep.strategy, "s");
        assert_eq!(extra, Some(Extra(7)));
    }

    #[test]
    fn deref_exposes_report_metrics() {
        let r = StrategyReport::new(report());
        assert_eq!(r.workload, "w");
        assert_eq!(r.regions.len(), 0);
    }

    #[test]
    fn split_with_wrong_type_drops_extras() {
        let r = StrategyReport::new(report()).with_extras(Extra(7));
        let (_, extra) = r.split::<String>();
        assert_eq!(extra, None);
    }
}
