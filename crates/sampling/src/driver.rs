//! Per-unit scaffolding and input-ordered reduction for sampling
//! strategies.
//!
//! Every warming strategy evaluates the same skeleton per detailed
//! region: charge host cost for the warm-up work, run detailed warming
//! plus the measured region against a strategy-specific outcome source,
//! and record the region result. Under the region-parallel runtime
//! ([`RegionScheduler`](crate::RegionScheduler)) that skeleton is one
//! **unit**: [`UnitDriver`] owns a single region's clock and result, and
//! [`reduce_region_units`] folds the finished units back into a
//! [`SimulationReport`] **in plan order** — so the assembled report (its
//! `f64` cost sums included) is bitwise identical for every worker
//! count, and the sequential driver is simply the scheduler at one
//! worker.

use crate::config::{Region, RegionPlan};
use crate::report::{RegionReport, SimulationReport};
use crate::run_region_detailed;
use crate::scheduler::RegionScheduler;
use crate::strategy::StrategyReport;
use delorean_cache::Hierarchy;
use delorean_cpu::{OutcomeSource, TimingConfig};
use delorean_trace::fault::{FaultPolicy, UnitFailure};
use delorean_trace::{MemAccess, Workload};
use delorean_virt::{CostModel, HostClock, RunCost, WorkKind};
use std::ops::Range;

/// Drives one region unit: its parallel-lane cost clock, the detailed
/// simulation of its region, and the unit result.
#[derive(Debug)]
pub(crate) struct UnitDriver<'a> {
    workload: &'a dyn Workload,
    timing: &'a TimingConfig,
    cost: &'a CostModel,
    clock: HostClock,
    collected: u64,
}

impl<'a> UnitDriver<'a> {
    /// A driver for one unit, with an empty clock.
    pub fn new(workload: &'a dyn Workload, timing: &'a TimingConfig, cost: &'a CostModel) -> Self {
        UnitDriver {
            workload,
            timing,
            cost,
            clock: HostClock::new(),
            collected: 0,
        }
    }

    /// Charge `instrs` instructions of `kind` work to the unit clock.
    pub fn charge_work(&mut self, kind: WorkKind, instrs: u64) {
        self.clock.charge(self.cost.instr_seconds(kind, instrs));
    }

    /// Charge raw host seconds (per-event costs such as traps).
    pub fn charge_seconds(&mut self, seconds: f64) {
        self.clock.charge(seconds);
    }

    /// Count reuse distances collected during warm-up (Figure 6).
    pub fn record_collected(&mut self, n: u64) {
        self.collected += n;
    }

    /// Charge the detailed span (warming + measured region, at face
    /// value), run it against `source`, and finish the unit.
    pub fn measure_region(mut self, region: &Region, source: &mut dyn OutcomeSource) -> RegionUnit {
        let span = region.detailed.end.saturating_sub(region.warming.start);
        self.clock
            .charge(self.cost.instr_seconds(WorkKind::Detailed, span));
        let result = run_region_detailed(self.workload, region, self.timing, source);
        RegionUnit {
            report: RegionReport {
                region: region.index,
                detailed: result,
            },
            seconds: self.clock.seconds(),
            collected: self.collected,
        }
    }

    /// [`measure_region`](Self::measure_region) with every data access
    /// simulated on `hierarchy`, which ends in the state the region's
    /// accesses leave behind.
    pub fn measure_on(self, region: &Region, hierarchy: &mut Hierarchy) -> RegionUnit {
        let mut source = |a: &MemAccess, now: u64| hierarchy.access_data(a.pc, a.line(), now);
        self.measure_region(region, &mut source)
    }
}

/// The one execution body of a strategy whose regions are fully
/// independent units (CoolSim, MRRL): fan `unit` out under the region
/// scheduler at `workers`, optionally fault-guarded, and fold the
/// completed units in plan order.
pub(crate) fn execute_independent(
    workload: &dyn Workload,
    plan: &RegionPlan,
    strategy: &str,
    workers: usize,
    guard: Option<&FaultPolicy>,
    unit: impl Fn(u32, &Region) -> RegionUnit + Sync,
) -> (StrategyReport, Vec<UnitFailure>) {
    let (units, quarantined) = RegionScheduler::new(workers).run_units(&plan.regions, guard, unit);
    let report = reduce_region_units(workload.name(), plan, strategy, &[], units);
    (report.into(), quarantined)
}

/// The units of the plan regions in `span` (clamped to the plan), each
/// a standalone evaluation of `unit` — the shard lease surface of the
/// fully independent strategies.
pub(crate) fn units_in_span(
    plan: &RegionPlan,
    span: Range<u32>,
    unit: impl Fn(u32, &Region) -> RegionUnit,
) -> Vec<RegionUnit> {
    let hi = (span.end as usize).min(plan.regions.len());
    let lo = (span.start as usize).min(hi);
    plan.regions[lo..hi]
        .iter()
        .map(|r| unit(r.index, r))
        .collect()
}

/// The finished output of one region unit.
///
/// This is the serialization boundary of the region-parallel runtime:
/// a unit is a plain value — region result, parallel-lane seconds,
/// collected reuse distances — so decomposable strategies can evaluate
/// units anywhere (another thread, another process, another host) and
/// ship them back for the plan-ordered fold
/// ([`reduce_region_units`]). Producing units out of order, in
/// batches, or redundantly never changes the folded report.
#[derive(Clone, Debug, PartialEq)]
pub struct RegionUnit {
    /// The measured region result.
    pub report: RegionReport,
    /// Parallel-lane host seconds this unit consumed.
    pub seconds: f64,
    /// Reuse distances the unit collected.
    pub collected: u64,
}

/// Fold finished units (plus optional per-unit chained-lane seconds)
/// into the final report, in plan order — the one fold every strategy
/// built on [`RegionUnit`]s shares, in process or across the shard
/// layer.
///
/// `chained` holds the sequential carried-state lane's per-unit cost
/// (empty for strategies whose regions are fully independent). The fold
/// charges `chained[i]` then `units[i].seconds` for each region in
/// order, so the resulting pass total has one fixed `f64` summation
/// tree regardless of how the units were scheduled — or in which
/// process they ran: for fully independent strategies (CoolSim, MRRL),
/// feeding this the units of
/// [`SamplingStrategy::run_unit_span`](crate::SamplingStrategy::run_unit_span)
/// over the whole plan yields a report **bitwise identical** to
/// [`SamplingStrategy::run`](crate::SamplingStrategy::run).
///
/// `None` slots are quarantined holes (units a fault guard gave up on),
/// skipped entirely — no region report, no cost unit, no chained
/// charge. `covered_instrs` intentionally stays the full plan's figure:
/// the report still describes the same sampling design, and the
/// caller's [`PartialReport`](crate::PartialReport) names exactly which
/// units are missing from it.
pub fn reduce_region_units(
    workload_name: &str,
    plan: &RegionPlan,
    strategy: &str,
    chained: &[f64],
    units: Vec<Option<RegionUnit>>,
) -> SimulationReport {
    let mut clock = HostClock::new();
    let mut cost = RunCost::new(plan.regions.len() as u64);
    let mut regions = Vec::with_capacity(units.len());
    let mut collected = 0u64;
    for (i, unit) in units.into_iter().enumerate() {
        let Some(unit) = unit else { continue };
        let chain = chained.get(i).copied().unwrap_or(0.0);
        clock.charge(chain);
        clock.charge(unit.seconds);
        cost.push_unit(unit.report.region, chain, unit.seconds);
        collected += unit.collected;
        regions.push(unit.report);
    }
    cost.push(strategy, clock);
    SimulationReport {
        workload: workload_name.to_string(),
        strategy: strategy.into(),
        regions,
        collected_reuse_distances: collected,
        cost,
        covered_instrs: plan.represented_instrs(),
    }
}
