//! MRRL: adaptive functional warming (Haskins & Skadron, §7 related
//! work).
//!
//! Memory Reference Reuse Latency warming shortens functional warming
//! instead of replacing it: profile the distribution of *reuse latencies*
//! (instructions between consecutive references to the same line), pick
//! the warming window that covers a target percentile, and only
//! functionally warm that window before each region — fast-forwarding the
//! rest.
//!
//! It sits between SMARTS and the statistical strategies: cheaper than
//! full functional warming, but it still simulates *every* access inside
//! the chosen window — the inherent limitation the paper's §7 calls out
//! ("even though the interval is shortened, these techniques still need
//! to simulate all of them").

use crate::config::{Region, RegionPlan};
use crate::driver::{execute_independent, units_in_span, RegionUnit, UnitDriver};
use crate::strategy::{PartialReport, SamplingStrategy, StrategyReport};
use delorean_cache::{Hierarchy, MachineConfig};
use delorean_cpu::TimingConfig;
use delorean_statmodel::LogHistogram;
use delorean_trace::fault::FaultPolicy;
use delorean_trace::{LineMap, Workload, WorkloadExt};
use delorean_virt::{CostModel, WorkKind};

/// The MRRL adaptive-functional-warming runner.
#[derive(Clone, Debug)]
pub struct MrrlRunner {
    machine: MachineConfig,
    timing: TimingConfig,
    cost: CostModel,
    workers: usize,
    /// Reuse-latency coverage target (the original work uses ~99.9%).
    pub percentile: f64,
    /// Accesses profiled per region to estimate the latency distribution.
    pub profile_accesses: u64,
}

impl MrrlRunner {
    /// A runner with Table 1 timing, paper-host costs and 99.9% coverage.
    pub fn new(machine: MachineConfig) -> Self {
        MrrlRunner {
            machine,
            timing: TimingConfig::table1(),
            cost: CostModel::paper_host(),
            workers: 1,
            percentile: 0.999,
            profile_accesses: 50_000,
        }
    }

    /// Set the region-scheduler worker count [`run`] uses. MRRL warms a
    /// fresh hierarchy over a per-region window, so every region is one
    /// independent parallel unit; results are byte-identical for every
    /// value.
    ///
    /// [`run`]: SamplingStrategy::run
    pub fn with_region_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Override the coverage percentile.
    pub fn with_percentile(mut self, percentile: f64) -> Self {
        self.percentile = percentile.clamp(0.5, 1.0);
        self
    }

    /// Override the host cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Estimate the warming window (in instructions) covering the target
    /// percentile of reuse latencies near `around_access`.
    fn warming_window(&self, workload: &dyn Workload, around_access: u64) -> u64 {
        let p = workload.mem_period();
        let start = around_access.saturating_sub(self.profile_accesses);
        let mut hist = LogHistogram::new();
        let mut last: LineMap<u64> = LineMap::new();
        workload.for_each_access(start..around_access, |a| {
            if let Some(prev) = last.insert(a.line(), a.index) {
                hist.add((a.index - prev) * p, 1.0);
            }
        });
        if hist.is_empty() {
            return self.profile_accesses * p;
        }
        hist.quantile(self.percentile)
    }

    /// The per-region unit body: a pure function of `(index, region)` —
    /// the fast-forward skip comes from the *plan*, and each unit warms
    /// its own fresh hierarchy — so a guarded unit may retry it from the
    /// top.
    fn region_unit<'a>(
        &'a self,
        workload: &'a dyn Workload,
        plan: &'a RegionPlan,
    ) -> impl Fn(u32, &Region) -> RegionUnit + Sync + 'a {
        let p = workload.mem_period();
        let mult = plan.config.work_multiplier();

        move |i: u32, region: &Region| {
            let mut driver = UnitDriver::new(workload, &self.timing, &self.cost);
            let prev_end = if i == 0 {
                0
            } else {
                plan.regions[i as usize - 1].detailed.end
            };
            // Pick this region's warming window from local reuse latencies
            // (profiling cost: functional over the profile slice).
            let region_first = workload.access_index_at_instr(region.detailed.start);
            driver.charge_work(WorkKind::Functional, self.profile_accesses * p);
            let window = self
                .warming_window(workload, region_first)
                .clamp(p, region.warming.start);

            // Fast-forward to the window, then functionally warm a FRESH
            // hierarchy (state before the window is assumed covered by the
            // percentile choice).
            let warm_start = region.warming.start.saturating_sub(window);
            let skip = warm_start.saturating_sub(prev_end);
            driver.charge_work(WorkKind::Vff, skip * mult);
            driver.charge_work(WorkKind::Functional, window * mult);
            let mut hierarchy = Hierarchy::new(&self.machine);
            let from = workload.access_index_at_instr(warm_start);
            let to = workload.access_index_at_instr(region.warming.start);
            hierarchy.warm_range(workload, from..to);

            driver.measure_on(region, &mut hierarchy)
        }
    }
}

impl SamplingStrategy for MrrlRunner {
    fn name(&self) -> &str {
        "mrrl"
    }

    /// MRRL under the region scheduler: each region profiles its own
    /// reuse latencies and warms a **fresh** hierarchy over its own
    /// window, and the fast-forward skip is derived from the *plan*
    /// (the previous region's end), not from execution state — so every
    /// region is one independent parallel unit.
    fn run_with_workers(
        &self,
        workload: &dyn Workload,
        plan: &RegionPlan,
        workers: usize,
    ) -> StrategyReport {
        let unit = self.region_unit(workload, plan);
        execute_independent(workload, plan, self.name(), workers, None, unit).0
    }

    /// MRRL with per-unit panic isolation: the same independent unit
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

    /// MRRL decomposes fully: the unit body is a pure function of
    /// `(index, region)` — the fast-forward skip comes from the *plan*
    /// (the previous region's end), never from execution state — so
    /// any span of plan regions evaluates anywhere and folds back
    /// bitwise identically.
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
    use delorean_trace::{spec_workload, Scale};

    fn setup() -> (impl Workload, MachineConfig, RegionPlan) {
        let scale = Scale::tiny();
        (
            spec_workload("hmmer", scale, 1).unwrap(),
            MachineConfig::for_scale(scale),
            SamplingConfig::for_scale(scale).with_regions(3).plan(),
        )
    }

    #[test]
    fn mrrl_is_faster_than_smarts_and_roughly_accurate() {
        let (w, machine, plan) = setup();
        let smarts = SmartsRunner::new(machine).run(&w, &plan);
        let mrrl = MrrlRunner::new(machine).run(&w, &plan);
        assert!(
            mrrl.speedup_vs(&smarts) > 1.0,
            "speedup {}",
            mrrl.speedup_vs(&smarts)
        );
        let err = mrrl.cpi_error_vs(&smarts);
        assert!(err < 0.25, "MRRL error {err}");
    }

    #[test]
    fn lower_percentile_means_shorter_warming() {
        let (w, machine, plan) = setup();
        let strict = MrrlRunner::new(machine).with_percentile(0.999);
        let loose = MrrlRunner::new(machine).with_percentile(0.5);
        let region_first = w.access_index_at_instr(plan.regions[0].detailed.start);
        let ws = strict.warming_window(&w, region_first);
        let wl = loose.warming_window(&w, region_first);
        assert!(wl <= ws, "loose {wl} > strict {ws}");
    }

    #[test]
    fn percentile_is_clamped() {
        let (_, machine, _) = setup();
        let r = MrrlRunner::new(machine).with_percentile(7.0);
        assert_eq!(r.percentile, 1.0);
        let r = MrrlRunner::new(machine).with_percentile(0.0);
        assert_eq!(r.percentile, 0.5);
    }
}
