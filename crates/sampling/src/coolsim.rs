//! CoolSim: randomized statistical warming (RSW).
//!
//! The state of the art the paper improves on (Nikoleris et al., SAMOS
//! 2016). Instead of warming caches, CoolSim samples *random* reuse
//! distances in the warm-up interval with page-protection watchpoints,
//! builds per-PC reuse profiles, and statistically predicts hit/miss for
//! each access of the detailed region that misses the lukewarm cache.
//!
//! The configuration here is the paper's "best possible" adaptive
//! schedule (§6): sample one memory location every 40 k memory
//! instructions during the first 750 M instructions of the interval, one
//! every 20 k for the next 200 M, and one every 10 k for the last 50 M —
//! denser sampling closer to the region, where reuses matter most.
//!
//! Two modeled inefficiencies are the point of comparison with DeLorean:
//! most sampled reuses belong to PCs that never appear in the detailed
//! region (wasted traps), and PCs *in* the region may end up with no
//! samples at all, forcing a pessimistic miss default (the source of
//! CoolSim's CPI overestimation for soplex and GemsFDTD in Figures 9/10).

use crate::config::{Region, RegionPlan};
use crate::driver::{execute_independent, units_in_span, RegionUnit, UnitDriver};
use crate::strategy::{PartialReport, SamplingStrategy, StrategyReport};
use delorean_cache::{Hierarchy, MachineConfig, MemLevel};
use delorean_cpu::TimingConfig;
use delorean_statmodel::per_pc::{PcPrediction, PcProfiles};
use delorean_trace::fault::FaultPolicy;
use delorean_trace::{
    CounterRng, InterestFilter, LineMap, MemAccess, Scale, Workload, CURSOR_BATCH,
};
use delorean_virt::{CostModel, Trap, WatchSet, WorkKind};
use serde::{Deserialize, Serialize};

/// One phase of the adaptive sampling schedule.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedulePhase {
    /// Share of the warm-up interval, in per mille (phases are laid out in
    /// order from the interval start).
    pub span_permille: u32,
    /// Sampling period: one sample per this many instructions.
    pub period_instrs: u64,
}

/// CoolSim configuration.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoolSimConfig {
    /// Adaptive schedule phases, covering the interval in order.
    pub schedule: Vec<SchedulePhase>,
    /// Seed for sampling decisions.
    pub seed: u64,
}

impl CoolSimConfig {
    /// The paper's best adaptive configuration, scaled.
    pub fn for_scale(scale: Scale) -> Self {
        CoolSimConfig {
            schedule: vec![
                SchedulePhase {
                    span_permille: 750,
                    period_instrs: scale.sample_period(40_000),
                },
                SchedulePhase {
                    span_permille: 200,
                    period_instrs: scale.sample_period(20_000),
                },
                SchedulePhase {
                    span_permille: 50,
                    period_instrs: scale.sample_period(10_000),
                },
            ],
            seed: 0xc001_517e,
        }
    }

    /// Sampling period (in accesses) at `offset` accesses into an interval
    /// of `len` accesses, given the workload's instructions-per-access.
    fn period_at(&self, offset: u64, len: u64, mem_period: u64) -> u64 {
        let mut acc = 0u64;
        let pos_permille = (offset * 1000).checked_div(len).unwrap_or(0);
        for ph in &self.schedule {
            acc += ph.span_permille as u64;
            if pos_permille < acc {
                return (ph.period_instrs / mem_period).max(1);
            }
        }
        // Past the declared schedule: keep the densest (last) phase.
        self.schedule
            .last()
            .map(|p| (p.period_instrs / mem_period).max(1))
            .unwrap_or(1)
    }
}

/// The CoolSim (randomized statistical warming) runner.
#[derive(Clone, Debug)]
pub struct CoolSimRunner {
    machine: MachineConfig,
    timing: TimingConfig,
    cost: CostModel,
    config: CoolSimConfig,
    workers: usize,
}

impl CoolSimRunner {
    /// A runner with Table 1 timing, paper-host costs and the scaled
    /// adaptive schedule.
    pub fn new(machine: MachineConfig, config: CoolSimConfig) -> Self {
        CoolSimRunner {
            machine,
            timing: TimingConfig::table1(),
            cost: CostModel::paper_host(),
            config,
            workers: 1,
        }
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

    /// Set the region-scheduler worker count [`run`] uses. CoolSim's
    /// regions are fully independent (per-region watchpoint profiles and
    /// a fresh lukewarm hierarchy), so every region is one parallel
    /// unit; results are byte-identical for every value.
    ///
    /// [`run`]: SamplingStrategy::run
    pub fn with_region_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// The per-region unit body. A pure function of `(index, region)` —
    /// each call owns its watchpoint set, pending-sample map, per-PC
    /// profiles and lukewarm hierarchy outright, and sampling decisions
    /// come from a stateless counter RNG — so a guarded unit may retry
    /// it from the top.
    fn region_unit<'a>(
        &'a self,
        workload: &'a dyn Workload,
        plan: &RegionPlan,
    ) -> impl Fn(u32, &Region) -> RegionUnit + Sync + 'a {
        let p = workload.mem_period();
        let mult = plan.config.work_multiplier();
        let rng = CounterRng::new(self.config.seed);
        let spacing = plan.config.spacing_instrs;
        let llc_lines = self.machine.hierarchy.llc.lines();
        let trap_seconds = self.cost.trap_seconds;

        move |_i: u32, region: &Region| {
            let mut driver = UnitDriver::new(workload, &self.timing, &self.cost);
            // --- Profile the warm-up interval with random watchpoints. ---
            let interval = region.warmup_interval(spacing);
            let first = interval.start.div_ceil(p);
            let last = interval.end / p;
            let len = last.saturating_sub(first);
            let mut profiles = PcProfiles::new();
            let mut watch = WatchSet::new();
            let mut pending: LineMap<u64> = LineMap::new();
            // Interest prefilter over the watched pages: the dominant
            // unwatched access is one hashed bit probe; the exact page
            // table decides only on a filter hit.
            let mut filter = InterestFilter::with_capacity_for(1024);

            // The interval runs under VFF (charged at represented
            // magnitude); traps are charged per event at face value. The
            // scan consumes cursor-filled slices directly — the watch
            // classification is the whole loop body, so there is no
            // per-access closure boundary left.
            driver.charge_work(WorkKind::Vff, len * p * mult);
            let mut cursor = workload.cursor(first..last);
            let mut batch = Vec::with_capacity(CURSOR_BATCH);
            while cursor.fill(&mut batch, CURSOR_BATCH) > 0 {
                for a in &batch {
                    let k = a.index;
                    if filter.contains_page(a.page()) {
                        match watch.classify(a) {
                            Trap::None => {}
                            Trap::FalsePositive => driver.charge_seconds(trap_seconds),
                            Trap::Hit(line) => {
                                driver.charge_seconds(trap_seconds);
                                if let Some(set_at) = pending.remove(line) {
                                    // Reuse found: distance is the accesses
                                    // strictly between; attributed to the
                                    // reusing PC.
                                    profiles.record(a.pc, k - set_at - 1, 1.0);
                                    driver.record_collected(1);
                                    watch.unwatch_line(line);
                                    filter.remove_page(line.page());
                                }
                            }
                        }
                    }
                    // Random sampling decision at the schedule's current
                    // rate.
                    let period = self.config.period_at(k - first, len, p);
                    if rng.chance_one_in(k, period) && !pending.contains(a.line()) {
                        pending.insert(a.line(), k);
                        watch.watch_line(a.line());
                        filter.insert_page(a.page());
                    }
                }
            }
            // Unresolved samples: reuse longer than the remaining interval.
            // CoolSim has no better information than "very long"; attribute
            // cold weight to the sampled access's PC.
            for (line, set_at) in pending.drain() {
                let pc = workload.access_at(set_at).pc;
                profiles.record_cold(pc, 1.0);
                watch.unwatch_line(line);
            }

            // --- Lukewarm detailed warming + statistically-warmed region. ---
            let mut lukewarm = Hierarchy::new(&self.machine);
            let mut source = |a: &MemAccess, now: u64| {
                let simulated = lukewarm.access_data(a.pc, a.line(), now);
                if simulated != MemLevel::Memory {
                    return simulated;
                }
                // Missed the lukewarm hierarchy: ask the statistical model
                // whether a perfectly warm cache would have hit.
                match profiles.predict(a.pc, llc_lines) {
                    PcPrediction::Hit => MemLevel::Llc,
                    // No samples for this PC: predict pessimistically.
                    PcPrediction::Miss | PcPrediction::NoData => MemLevel::Memory,
                }
            };
            driver.measure_region(region, &mut source)
        }
    }
}

impl SamplingStrategy for CoolSimRunner {
    fn name(&self) -> &str {
        "coolsim"
    }

    /// CoolSim under the region scheduler: every region is one fully
    /// independent unit — it owns its watchpoint set, pending-sample
    /// map, per-PC profiles and lukewarm hierarchy outright, and the
    /// sampling decisions come from a stateless counter-based RNG — so
    /// the whole plan fans out with no carried lane at all.
    fn run_with_workers(
        &self,
        workload: &dyn Workload,
        plan: &RegionPlan,
        workers: usize,
    ) -> StrategyReport {
        let unit = self.region_unit(workload, plan);
        execute_independent(workload, plan, self.name(), workers, None, unit).0
    }

    /// CoolSim with per-unit panic isolation: the same independent unit
    /// body, retried from the top on a fault and quarantined on
    /// exhaustion.
    fn run_isolated(
        &self,
        workload: &dyn Workload,
        plan: &RegionPlan,
        workers: usize,
        policy: &FaultPolicy,
    ) -> PartialReport {
        let unit = self.region_unit(workload, plan);
        execute_independent(workload, plan, self.name(), workers, Some(policy), unit).into()
    }

    /// CoolSim decomposes fully: the unit body is a pure function of
    /// `(index, region)`, so any span of plan regions evaluates
    /// anywhere and folds back bitwise identically.
    fn run_unit_span(
        &self,
        workload: &dyn Workload,
        plan: &RegionPlan,
        span: std::ops::Range<u32>,
    ) -> Option<Vec<RegionUnit>> {
        Some(units_in_span(plan, span, self.region_unit(workload, plan)))
    }

    fn internal_parallelism(&self) -> usize {
        self.workers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SamplingConfig, SmartsRunner};
    use delorean_trace::spec_workload;

    fn quick_plan() -> RegionPlan {
        SamplingConfig::for_scale(Scale::tiny())
            .with_regions(3)
            .plan()
    }

    fn runner() -> CoolSimRunner {
        CoolSimRunner::new(
            MachineConfig::for_scale(Scale::tiny()),
            CoolSimConfig::for_scale(Scale::tiny()),
        )
    }

    #[test]
    fn schedule_gets_denser_toward_the_region() {
        let cfg = CoolSimConfig::for_scale(Scale::paper());
        let p = 3;
        let len = 1_000_000;
        let early = cfg.period_at(0, len, p);
        let mid = cfg.period_at(800_000, len, p);
        let late = cfg.period_at(990_000, len, p);
        assert!(early > mid && mid > late, "{early} {mid} {late}");
        assert_eq!(early, 40_000 / 3);
    }

    #[test]
    fn collects_reuse_distances() {
        let w = spec_workload("hmmer", Scale::tiny(), 1).unwrap();
        let report = runner().run(&w, &quick_plan());
        assert!(
            report.collected_reuse_distances > 10,
            "collected {}",
            report.collected_reuse_distances
        );
    }

    #[test]
    fn is_faster_than_smarts() {
        let w = spec_workload("hmmer", Scale::tiny(), 1).unwrap();
        let plan = quick_plan();
        let cool = runner().run(&w, &plan);
        let smarts = SmartsRunner::new(MachineConfig::for_scale(Scale::tiny())).run(&w, &plan);
        assert!(
            cool.speedup_vs(&smarts) > 2.0,
            "speedup {}",
            cool.speedup_vs(&smarts)
        );
    }

    #[test]
    fn cpi_is_in_the_reference_ballpark() {
        let w = spec_workload("bwaves", Scale::tiny(), 1).unwrap();
        let plan = quick_plan();
        let cool = runner().run(&w, &plan);
        let smarts = SmartsRunner::new(MachineConfig::for_scale(Scale::tiny())).run(&w, &plan);
        let err = cool.cpi_error_vs(&smarts);
        assert!(
            err < 0.5,
            "CoolSim error {err} (cool {} vs ref {})",
            cool.cpi(),
            smarts.cpi()
        );
    }

    #[test]
    fn deterministic() {
        let w = spec_workload("namd", Scale::tiny(), 1).unwrap();
        let plan = quick_plan();
        let a = runner().run(&w, &plan);
        let b = runner().run(&w, &plan);
        assert_eq!(a.cpi(), b.cpi());
        assert_eq!(a.collected_reuse_distances, b.collected_reuse_distances);
    }
}
