//! SMARTS: sampled simulation with functional warming.
//!
//! The reference methodology (Wunderlich et al., ISCA 2003): between
//! detailed regions, *every* memory access is run through the simulated
//! cache hierarchy so that cache state is always perfectly warm. Accurate
//! and storage-free, but slow — the cost model charges every warm-up
//! instruction at functional-simulation speed, which is why the paper
//! measures SMARTS at 1.3 MIPS.

use crate::config::{Region, RegionPlan};
use crate::driver::{reduce_region_units, RegionUnit, UnitDriver};
use crate::proxy::{ProxyStateSource, SpeculationExtras};
use crate::scheduler::{RegionScheduler, SpecForm};
use crate::strategy::{PartialReport, SamplingStrategy, StrategyReport};
use delorean_cache::{Hierarchy, MachineConfig};
use delorean_cpu::TimingConfig;
use delorean_trace::fault::{FaultPolicy, UnitFailure};
use delorean_trace::Workload;
use delorean_virt::{CostModel, HostClock, SpecUnit, WorkKind};

/// The SMARTS (functional warming) runner.
#[derive(Clone, Debug)]
pub struct SmartsRunner {
    machine: MachineConfig,
    timing: TimingConfig,
    cost: CostModel,
    workers: usize,
    proxy: Option<ProxyStateSource>,
}

impl SmartsRunner {
    /// A runner with Table 1 timing and the paper-host cost model.
    pub fn new(machine: MachineConfig) -> Self {
        SmartsRunner {
            machine,
            timing: TimingConfig::table1(),
            cost: CostModel::paper_host(),
            workers: 1,
            proxy: None,
        }
    }

    /// Run SMARTS through the **speculative warm lane**, with this
    /// proxy source, attaching [`SpeculationExtras`] to the report.
    ///
    /// Every region is a speculation task: build a proxy of the chain
    /// state at the region's boundary (see [`ProxyStateSource`]) and
    /// record its digest. The reconciler advances the true carried state
    /// in plan order and commits a region when its digest equals the
    /// proxy's — the start states were behaviourally identical.
    ///
    /// Speculation runs only ahead of the chain. A region a helper
    /// claims first is speculated in full: the helper also warms and
    /// measures in place from the proxy, so on a commit the chain adopts
    /// that measurement *and its end state* and skips the region's warm
    /// work entirely (the source of the modeled speedup), and on a miss
    /// the chain re-warms and re-measures from the true state. A region
    /// the reconciler reaches first is speculated light: only the proxy
    /// and its digest, then the chain warms and measures in place exactly
    /// like plain SMARTS. So without helpers (one worker, or a host
    /// already busy) the lane costs plain SMARTS plus the proxy digests.
    ///
    /// Either way every unit's chained charge is `chain_step`'s —
    /// identical arithmetic to the sequential path — so the
    /// [`SimulationReport`](crate::SimulationReport) is bitwise identical
    /// to sequential SMARTS at every worker count and for every proxy
    /// source (pinned by `tests/determinism.rs`): speculation is a
    /// scheduling strategy, not a semantic one. The commit flags come
    /// from the same digest comparison in both forms and the outcome
    /// seconds are plan arithmetic, so the [`SpeculationExtras`] are
    /// identical at every worker count too; from them
    /// [`RunCost::speculative_wallclock`](delorean_virt::RunCost::speculative_wallclock)
    /// models the lane's wall-clock.
    ///
    /// Under [`run_isolated`](SamplingStrategy::run_isolated), spec tasks
    /// whose retries are exhausted degrade to the reconciler's miss path
    /// (full redo from the true chain state — never a quarantine), while
    /// reconciler-commit faults are retried at the injection gate and
    /// genuine reconciler deaths poison the rest of the chain.
    pub fn with_speculation(mut self, proxy: ProxyStateSource) -> Self {
        self.proxy = Some(proxy);
        self
    }

    /// Override the timing configuration.
    pub fn with_timing(mut self, timing: TimingConfig) -> Self {
        self.timing = timing;
        self
    }

    /// Override the host cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Set the region-scheduler worker count [`run`] uses. Results are
    /// byte-identical for every value.
    ///
    /// [`run`]: SamplingStrategy::run
    pub fn with_region_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// The one execution body behind every entry point, unguarded or
    /// under a fault `guard`. Functional warming is a **chained lane** —
    /// a region's boundary state depends on every access before it — so
    /// one [`SpecChain`] walks it in plan order, on one of three
    /// schedules that all charge each unit `chain_step`'s seconds and so
    /// produce the same report bytes (`tests/determinism.rs`):
    ///
    /// * **In place** (one worker, no guard): warm and measure on the
    ///   chain's own hierarchy — no copy, one pass over the span.
    /// * **Fork and replay** (several workers, or a guard): the seed lane
    ///   hands each measure body a [`Hierarchy::fork`] of the boundary
    ///   state, then replays the measured span functionally, which leaves
    ///   the chain bit-identical to an in-place measurement because
    ///   `simulate_detailed` issues exactly the span's `(pc, line, index)`
    ///   data accesses. The replay is charged on every schedule, so the
    ///   cost accounting ignores the worker count. A guard always forks:
    ///   a fault mid-way through an in-place measurement would leave the
    ///   chain unrecoverable, while a forked body retries from a clone.
    /// * **Speculative**: see [`with_speculation`](Self::with_speculation).
    fn execute(
        &self,
        workload: &dyn Workload,
        plan: &RegionPlan,
        workers: usize,
        guard: Option<&FaultPolicy>,
    ) -> (StrategyReport, Vec<UnitFailure>) {
        let positions = &chain_positions(plan, workload.mem_period());
        let mut chain = SpecChain::new(self, workload, plan, positions);
        let scheduler = RegionScheduler::new(workers);
        let (units, quarantined) = match self.proxy {
            Some(proxy) => scheduler.run_speculative(
                &plan.regions,
                guard,
                |i, region: &Region, form| {
                    self.speculate(workload, plan, positions, proxy, i, region, form)
                },
                |i, region: &Region, s| chain.reconcile(i, region, s),
            ),
            None if workers <= 1 && guard.is_none() => {
                let units = (0..)
                    .zip(&plan.regions)
                    .map(|(i, region)| Some(chain.reconcile(i, region, None)))
                    .collect();
                (units, Vec::new())
            }
            None => scheduler.run_seeded(
                &plan.regions,
                guard,
                |i, region: &Region| chain.fork(i, region),
                |_, region: &Region, mut warm: Hierarchy| {
                    UnitDriver::new(workload, &self.timing, &self.cost)
                        .measure_on(region, &mut warm)
                },
            ),
        };
        let SpecChain {
            chained, outcomes, ..
        } = chain;
        let report = reduce_region_units(workload.name(), plan, self.name(), &chained, units);
        let report = match self.proxy {
            Some(proxy) => {
                StrategyReport::new(report).with_extras(SpeculationExtras { proxy, outcomes })
            }
            None => report.into(),
        };
        (report, quarantined)
    }

    /// One speculation task: build the proxy state for region `i`'s
    /// boundary and record its digest; in [`SpecForm::Full`] also warm
    /// and measure in place from it. A pure function of
    /// `(i, region, form)`, which is what makes it safe for a guarded
    /// lane to retry from the top.
    #[allow(clippy::too_many_arguments)] // the run's fixed context, then the unit's coordinates
    fn speculate(
        &self,
        workload: &dyn Workload,
        plan: &RegionPlan,
        positions: &[u64],
        proxy: ProxyStateSource,
        i: u32,
        region: &Region,
        form: SpecForm,
    ) -> Speculation {
        let p = workload.mem_period();
        let mult = plan.config.work_multiplier();
        let ctx = crate::proxy::ProxyContext {
            machine: &self.machine,
            cost: &self.cost,
            workload,
            p,
            mult,
        };
        let at = positions[i as usize];
        let prev = if i == 0 { 0 } else { positions[i as usize - 1] };
        let (mut h, proxy_seconds) = proxy.build(&ctx, at, prev);
        let digest = h.state_digest();
        let ahead = (form == SpecForm::Full).then(|| {
            let step = chain_step(&self.cost, workload, region, at, p, mult);
            h.warm_range(workload, step.warm);
            // Measure in place: the shared access core mutates the
            // hierarchy through the measured span exactly as the chain's
            // functional replay would, so `h` ends at the next boundary's
            // state.
            let unit =
                UnitDriver::new(workload, &self.timing, &self.cost).measure_on(region, &mut h);
            (h, unit)
        });
        Speculation {
            digest,
            proxy_seconds,
            ahead,
        }
    }
}

/// One region's speculation: the proxy digest, the proxy's modeled
/// seconds, and — for a full speculation — the end state to adopt on a
/// commit with the unit measured from the proxy.
struct Speculation {
    digest: u64,
    proxy_seconds: f64,
    ahead: Option<(Hierarchy, RegionUnit)>,
}

/// SMARTS's true warm chain, advanced in plan order by every schedule:
/// the reconciler (in place, adopting committed speculations), the
/// in-place loop, or the fork-and-replay seed lane. Each step charges
/// `chain_step`'s seconds to `chained`.
struct SpecChain<'a> {
    runner: &'a SmartsRunner,
    workload: &'a dyn Workload,
    /// Chain position at each region boundary (see [`chain_positions`]).
    positions: &'a [u64],
    p: u64,
    mult: u64,
    hierarchy: Hierarchy,
    pos_access: u64,
    /// Chained-lane seconds per reconciled unit.
    chained: Vec<f64>,
    /// Speculation outcome per reconciled unit.
    outcomes: Vec<SpecUnit>,
}

impl<'a> SpecChain<'a> {
    fn new(
        runner: &'a SmartsRunner,
        workload: &'a dyn Workload,
        plan: &RegionPlan,
        positions: &'a [u64],
    ) -> Self {
        SpecChain {
            runner,
            workload,
            positions,
            p: workload.mem_period(),
            mult: plan.config.work_multiplier(),
            hierarchy: Hierarchy::new(&runner.machine),
            pos_access: 0,
            chained: Vec::with_capacity(plan.regions.len()),
            outcomes: Vec::with_capacity(plan.regions.len()),
        }
    }

    /// Region `i`'s chain step, its seconds charged to the chained lane.
    fn step(&mut self, i: u32, region: &Region) -> ChainStep {
        debug_assert_eq!(self.pos_access, self.positions[i as usize]);
        let step = chain_step(
            &self.runner.cost,
            self.workload,
            region,
            self.pos_access,
            self.p,
            self.mult,
        );
        self.chained.push(step.seconds);
        step
    }

    /// Advance over region `i` by fork and replay: warm to the
    /// boundary, fork the state for the unit's measure body, then replay
    /// the measured span functionally so the chain ends where an
    /// in-place measurement would leave it.
    fn fork(&mut self, i: u32, region: &Region) -> Hierarchy {
        let step = self.step(i, region);
        self.hierarchy.warm_range(self.workload, step.warm);
        let unit_state = self.hierarchy.fork();
        self.hierarchy.warm_range(self.workload, step.measured);
        self.pos_access = step.next_pos;
        unit_state
    }

    /// Reconcile region `i`: commit on a digest match, adopting a full
    /// speculation's end state and unit; otherwise — a miss, a light
    /// speculation, or one that faulted out (`None`) — warm and measure
    /// in place. The chain arithmetic is identical on every path, which
    /// is why neither the form nor spec faults can move the report.
    fn reconcile(&mut self, i: u32, region: &Region, s: Option<Speculation>) -> RegionUnit {
        let SmartsRunner { timing, cost, .. } = self.runner;
        let workload = self.workload;
        let step = self.step(i, region);
        let (committed, proxy_seconds, ahead) = match s {
            Some(s) => (
                self.hierarchy.state_digest() == s.digest,
                s.proxy_seconds,
                s.ahead,
            ),
            None => (false, 0.0, None),
        };
        let unit = match ahead {
            Some((end_state, unit)) if committed => {
                self.hierarchy.copy_state_from(&end_state);
                unit
            }
            _ => {
                self.hierarchy.warm_range(workload, step.warm);
                UnitDriver::new(workload, timing, cost).measure_on(region, &mut self.hierarchy)
            }
        };
        self.pos_access = step.next_pos;
        self.outcomes.push(SpecUnit {
            unit: i,
            committed,
            proxy_seconds,
            speculative_seconds: proxy_seconds + step.seconds + unit.seconds,
        });
        unit
    }
}

/// Chain access positions at each region boundary — pure plan
/// arithmetic, so neither the worker count nor speculation outcomes can
/// shift them.
fn chain_positions(plan: &RegionPlan, p: u64) -> Vec<u64> {
    let mut positions = Vec::with_capacity(plan.regions.len());
    let mut pos = 0u64;
    for region in &plan.regions {
        positions.push(pos);
        pos = region.detailed.end / p;
    }
    positions
}

impl SamplingStrategy for SmartsRunner {
    fn name(&self) -> &str {
        "smarts"
    }

    /// SMARTS in place at one worker, by fork and replay on several, or
    /// through the speculative warm lane when
    /// [`with_speculation`](SmartsRunner::with_speculation) set a proxy;
    /// the report is the same bytes on every path.
    fn run_with_workers(
        &self,
        workload: &dyn Workload,
        plan: &RegionPlan,
        workers: usize,
    ) -> StrategyReport {
        self.execute(workload, plan, workers, None).0
    }

    /// The same execution with per-unit panic isolation. Without
    /// speculation it always forks and replays — even at one worker —
    /// so that measure bodies retry from a cloned seed and the chain
    /// stays pristine.
    fn run_isolated(
        &self,
        workload: &dyn Workload,
        plan: &RegionPlan,
        workers: usize,
        policy: &FaultPolicy,
    ) -> PartialReport {
        self.execute(workload, plan, workers, Some(policy)).into()
    }

    fn internal_parallelism(&self) -> usize {
        self.workers
    }
}

/// One warm-chain step's boundary and charge arithmetic.
struct ChainStep {
    /// Access range of the functional warm span (chain position up to
    /// the detailed-warming boundary).
    warm: std::ops::Range<u64>,
    /// Access range the detailed simulator will issue for this region
    /// (detailed warming + measured region) — the span the decomposed
    /// chain replays functionally.
    measured: std::ops::Range<u64>,
    /// Chain position after this region.
    next_pos: u64,
    /// Chained-lane seconds: the warm span at represented magnitude
    /// plus the replay at face value.
    seconds: f64,
}

/// Compute one region's chain step. Every SMARTS schedule (in place,
/// fork and replay, speculative) takes its boundaries and charges from
/// this one function, which is what keeps their reports
/// byte-identical by construction.
fn chain_step(
    cost: &CostModel,
    workload: &dyn Workload,
    region: &Region,
    pos_access: u64,
    p: u64,
    mult: u64,
) -> ChainStep {
    let mut chain = HostClock::new();
    let warm_end_access = region.warming.start / p;
    let span = warm_end_access.saturating_sub(pos_access);
    chain.charge(cost.instr_seconds(WorkKind::Functional, span * p * mult));
    let measured = workload.access_index_at_instr(region.warming.start)
        ..workload.access_index_at_instr(region.detailed.end);
    chain.charge(cost.instr_seconds(
        WorkKind::Functional,
        measured.end.saturating_sub(measured.start) * p,
    ));
    ChainStep {
        warm: pos_access..warm_end_access,
        measured,
        next_pos: region.detailed.end / p,
        seconds: chain.seconds(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SamplingConfig;
    use delorean_trace::{spec_workload, Scale};

    fn quick_plan() -> RegionPlan {
        SamplingConfig::for_scale(Scale::tiny())
            .with_regions(3)
            .plan()
    }

    #[test]
    fn produces_region_results_and_cost() {
        let w = spec_workload("hmmer", Scale::tiny(), 1).unwrap();
        let report =
            SmartsRunner::new(MachineConfig::for_scale(Scale::tiny())).run(&w, &quick_plan());
        assert_eq!(report.regions.len(), 3);
        assert!(report.cpi() > 0.0);
        assert!(report.cost.total_resources() > 0.0);
        assert_eq!(report.strategy, "smarts");
        assert_eq!(report.collected_reuse_distances, 0);
        assert!(report.extras::<()>().is_none());
    }

    #[test]
    fn warm_caches_make_hot_workloads_fast() {
        // bwaves is hot-set dominated: with full functional warming, most
        // region accesses must be L1 hits and CPI must be near base.
        let w = spec_workload("bwaves", Scale::tiny(), 1).unwrap();
        let report =
            SmartsRunner::new(MachineConfig::for_scale(Scale::tiny())).run(&w, &quick_plan());
        let t = report.total();
        let l1_rate = t.level_counts[0] as f64 / t.mem_accesses as f64;
        assert!(l1_rate > 0.8, "bwaves L1 hit rate {l1_rate}");
        assert!(report.cpi() < 1.5, "bwaves CPI {}", report.cpi());
    }

    #[test]
    fn speed_is_dominated_by_functional_warming() {
        let w = spec_workload("hmmer", Scale::tiny(), 1).unwrap();
        let plan = quick_plan();
        let report = SmartsRunner::new(MachineConfig::for_scale(Scale::tiny())).run(&w, &plan);
        // Effective speed must be within 2× of raw functional speed.
        let mips = report.mips_pipelined();
        assert!(
            mips > 0.6 && mips < 3.0,
            "SMARTS speed should sit near functional-simulation speed, got {mips}"
        );
    }

    #[test]
    fn speculative_reports_are_bitwise_sequential() {
        let w = spec_workload("hmmer", Scale::tiny(), 1).unwrap();
        let plan = quick_plan();
        let machine = MachineConfig::for_scale(Scale::tiny());
        let runner = SmartsRunner::new(machine);
        let sequential = runner.run(&w, &plan);
        for proxy in [
            ProxyStateSource::Cold,
            ProxyStateSource::NearestBoundary,
            ProxyStateSource::StatModel,
            ProxyStateSource::Poisoned,
        ] {
            for workers in [1usize, 4] {
                let spec = runner
                    .clone()
                    .with_speculation(proxy)
                    .run_with_workers(&w, &plan, workers);
                assert_eq!(
                    spec.report,
                    sequential.report,
                    "proxy {} workers {workers}",
                    proxy.name()
                );
            }
        }
    }

    #[test]
    fn statmodel_proxy_commits_on_hmmer() {
        let w = spec_workload("hmmer", Scale::tiny(), 1).unwrap();
        let plan = quick_plan();
        let machine = MachineConfig::for_scale(Scale::tiny());
        let spec = SmartsRunner::new(machine)
            .with_speculation(ProxyStateSource::StatModel)
            .run_with_workers(&w, &plan, 4);
        let extras = spec.extras::<SpeculationExtras>().expect("extras");
        assert!(
            extras.hit_rate() > 0.5,
            "statmodel hit rate {} on hmmer",
            extras.hit_rate()
        );
        let speedup = spec.report.cost.speculative_speedup(4, &extras.outcomes);
        assert!(speedup > 1.0, "modeled speedup {speedup}");
    }

    #[test]
    fn poisoned_proxy_never_commits_but_still_reports_sequential() {
        let w = spec_workload("mcf", Scale::tiny(), 1).unwrap();
        let plan = quick_plan();
        let machine = MachineConfig::for_scale(Scale::tiny());
        let spec = SmartsRunner::new(machine)
            .with_speculation(ProxyStateSource::Poisoned)
            .run_with_workers(&w, &plan, 4);
        let extras = spec.extras::<SpeculationExtras>().expect("extras");
        assert_eq!(extras.hits(), 0, "poison must never commit");
        let sequential = SmartsRunner::new(machine).run(&w, &plan);
        assert_eq!(spec.report, sequential.report);
    }

    #[test]
    fn with_speculation_routes_the_strategy_entry_points() {
        let w = spec_workload("hmmer", Scale::tiny(), 1).unwrap();
        let plan = quick_plan();
        let machine = MachineConfig::for_scale(Scale::tiny());
        let runner = SmartsRunner::new(machine)
            .with_speculation(ProxyStateSource::Cold)
            .with_region_workers(2);
        let report = runner.run(&w, &plan);
        assert!(report.extras::<SpeculationExtras>().is_some());
        assert_eq!(
            report.report,
            SmartsRunner::new(machine).run(&w, &plan).report
        );
    }

    #[test]
    fn determinism_across_runs() {
        let w = spec_workload("namd", Scale::tiny(), 1).unwrap();
        let r1 = SmartsRunner::new(MachineConfig::for_scale(Scale::tiny())).run(&w, &quick_plan());
        let r2 = SmartsRunner::new(MachineConfig::for_scale(Scale::tiny())).run(&w, &quick_plan());
        assert_eq!(r1.cpi(), r2.cpi());
        assert_eq!(r1.total(), r2.total());
    }
}
