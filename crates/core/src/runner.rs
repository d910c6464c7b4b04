//! The end-to-end DeLorean runner.

use crate::analyst::{run_analyst, AnalystInput};
use crate::config::DeLoreanConfig;
use crate::dsw::DswCounts;
use crate::explorer::{pending_from_keyset, run_explorer, PendingKey};
use crate::scout::scout_region;
use crate::stats::TtStats;
use crate::MAX_EXPLORERS;
use delorean_cache::MachineConfig;
use delorean_cpu::TimingConfig;
use delorean_sampling::{
    FaultPolicy, PartialReport, Region, RegionPlan, RegionReport, RegionScheduler,
    SamplingStrategy, SimulationReport, StrategyReport, UnitFailure,
};
use delorean_trace::Workload;
use delorean_virt::{CostModel, HostClock, RunCost, WorkKind};

/// Result of a DeLorean run: the strategy-comparable report plus the
/// time-traveling statistics behind Figures 6–8.
#[derive(Clone, Debug)]
pub struct DeLoreanOutput {
    /// CPI/MPKI/cost report, directly comparable with the baselines.
    pub report: SimulationReport,
    /// Key-set, explorer and trap statistics.
    pub stats: TtStats,
    /// DSW classification counters summed over regions.
    pub dsw_counts: DswCounts,
}

/// Strategy extras attached by [`DeLoreanRunner`]'s
/// [`SamplingStrategy::run`]: the time-traveling statistics and DSW
/// classification counters behind Figures 6–8.
#[derive(Clone, Debug, PartialEq)]
pub struct DeLoreanExtras {
    /// Key-set, explorer and trap statistics.
    pub stats: TtStats,
    /// DSW classification counters summed over regions.
    pub dsw_counts: DswCounts,
}

impl From<DeLoreanOutput> for StrategyReport {
    fn from(out: DeLoreanOutput) -> Self {
        StrategyReport::new(out.report).with_extras(DeLoreanExtras {
            stats: out.stats,
            dsw_counts: out.dsw_counts,
        })
    }
}

impl TryFrom<StrategyReport> for DeLoreanOutput {
    type Error = &'static str;

    /// Recover the full output from a trait-object run. Fails only if the
    /// report did not come from a DeLorean strategy.
    fn try_from(report: StrategyReport) -> Result<Self, Self::Error> {
        let (report, extras) = report.split::<DeLoreanExtras>();
        let extras = extras.ok_or("report carries no DeLorean extras")?;
        Ok(DeLoreanOutput {
            report,
            stats: extras.stats,
            dsw_counts: extras.dsw_counts,
        })
    }
}

/// Per-region artifacts produced by the warming passes (Scout +
/// Explorers); consumed by one or more Analysts.
#[derive(Clone, Debug)]
pub(crate) struct RegionArtifacts {
    pub region: Region,
    pub input: AnalystInput,
    pub keys: u64,
    pub engaged: u64,
    pub resolved_by: [u64; MAX_EXPLORERS],
    pub cold_keys: u64,
    pub vicinity_samples: u64,
    pub false_positive_traps: u64,
    pub true_hit_traps: u64,
}

/// Run Scout + Explorers for one region, charging the per-pass clocks.
#[allow(clippy::too_many_arguments)]
pub(crate) fn warm_region(
    workload: &dyn Workload,
    machine: &MachineConfig,
    cost: &CostModel,
    config: &DeLoreanConfig,
    region: &Region,
    prev_end_instr: u64,
    work_multiplier: u64,
    scout_clock: &mut HostClock,
    explorer_clocks: &mut [HostClock],
) -> RegionArtifacts {
    let scout = scout_region(
        workload,
        machine,
        cost,
        scout_clock,
        region,
        prev_end_instr,
        work_multiplier,
    );
    scout_clock.charge(cost.transfer_seconds);

    let deepest_window = *config
        .explorer_windows_instrs
        .last()
        // lint:allow(no-unwrap): run() validates the config before any region work, so windows are non-empty
        .expect("validated config has windows")
        / workload.mem_period().max(1);
    let mut artifacts = RegionArtifacts {
        region: region.clone(),
        input: AnalystInput {
            assoc: scout.assoc,
            warming_miss_as_hit: config.warming_miss_as_hit,
            censoring_horizon_accesses: deepest_window,
            ..Default::default()
        },
        keys: scout.keyset.len() as u64,
        engaged: 0,
        resolved_by: [0; MAX_EXPLORERS],
        cold_keys: 0,
        vicinity_samples: 0,
        false_positive_traps: 0,
        true_hit_traps: 0,
    };
    let mut pending: Vec<PendingKey> = pending_from_keyset(&scout.keyset);
    let interval = region.warming.start.saturating_sub(prev_end_instr);

    for (k, (&window, clock)) in config
        .explorer_windows_instrs
        .iter()
        .zip(explorer_clocks.iter_mut())
        .enumerate()
    {
        if pending.is_empty() {
            // Not engaged: the pass still advances over the interval.
            clock.charge(cost.instr_seconds(WorkKind::Vff, interval * work_multiplier));
            continue;
        }
        artifacts.engaged += 1;
        let prev_window = if k == 0 {
            0
        } else {
            config.explorer_windows_instrs[k - 1]
        };
        // VFF the part of the interval the exclusive profiling slice does
        // not cover.
        let vff_part = interval.saturating_sub(window - prev_window);
        clock.charge(cost.instr_seconds(WorkKind::Vff, vff_part * work_multiplier));
        let out = run_explorer(
            workload,
            cost,
            clock,
            k,
            window,
            prev_window,
            region,
            &pending,
            config.vicinity_period_accesses,
            config.seed,
            work_multiplier,
        );
        clock.charge(cost.transfer_seconds);
        artifacts.resolved_by[k] += out.resolved.len() as u64;
        for (line, rd) in out.resolved {
            artifacts.input.key_rds.insert(line, rd);
        }
        artifacts.input.vicinity.merge(&out.vicinity);
        artifacts.vicinity_samples += out.vicinity_count;
        artifacts.false_positive_traps += out.scan.false_positives;
        artifacts.true_hit_traps += out.scan.true_hits;
        pending = out.remaining;
    }
    artifacts.cold_keys = pending.len() as u64;
    artifacts
}

/// The DeLorean (DSW + TT) sampled-simulation runner.
#[derive(Clone, Debug)]
pub struct DeLoreanRunner {
    machine: MachineConfig,
    timing: TimingConfig,
    cost: CostModel,
    config: DeLoreanConfig,
    workers: usize,
}

impl DeLoreanRunner {
    /// A runner with Table 1 timing and paper-host costs.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    pub fn new(machine: MachineConfig, config: DeLoreanConfig) -> Self {
        // lint:allow(no-unwrap): documented # Panics contract — the runner refuses to start on an invalid config
        config.validate().expect("invalid DeLorean config");
        // DeLorean has always run multi-threaded by default (the TT pass
        // pipeline used one thread per pass); the region scheduler keeps
        // that default with the same thread footprint — explorers +
        // Scout + Analyst — capped by the host. Safe because worker count
        // never changes results. It is only an upper bound: the extra
        // threads come from the rayon shim's process-wide budget, so a
        // run inside a busy batch executor takes what is idle and cannot
        // oversubscribe the host.
        let workers = RegionScheduler::host()
            .workers()
            .min(config.explorer_windows_instrs.len() + 2);
        DeLoreanRunner {
            machine,
            timing: TimingConfig::table1(),
            cost: CostModel::paper_host(),
            config,
            workers,
        }
    }

    /// Set the region-scheduler worker count [`SamplingStrategy::run`]
    /// uses (default: the host's available parallelism, capped at the
    /// pass-pipeline footprint of explorers + 2). Time-traveling makes
    /// every region's Scout → Explorers → Analyst chain an independent
    /// unit (the paper's core claim), so the whole plan fans out;
    /// results are byte-identical for every value.
    pub fn with_region_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
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

    /// The machine this runner simulates.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The methodology configuration.
    pub fn config(&self) -> &DeLoreanConfig {
        &self.config
    }

    /// The timing configuration.
    pub fn timing(&self) -> &TimingConfig {
        &self.timing
    }

    /// The host cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Run all passes serially in one thread: the region scheduler at
    /// one worker, and the reference execution every other mode —
    /// region-parallel at any worker count, pass-pipelined
    /// ([`run_pipelined`](crate::pipeline::run_pipelined)) — must
    /// reproduce.
    pub fn run_serial(&self, workload: &dyn Workload, plan: &RegionPlan) -> DeLoreanOutput {
        self.execute(workload, plan, 1, None).0
    }

    /// The one execution body behind every entry point, unguarded or
    /// under a fault `guard`. Time-traveling makes each region's
    /// Scout → Explorer chain → Analyst an independent unit (`prev_end`
    /// — the previous region's detailed end — comes from the *plan*, not
    /// from execution state), so units fan out across `workers` and
    /// reduce in plan order: the report, statistics and DSW counts are
    /// byte-identical for every worker count. Under a guard each unit is
    /// retried from the top and quarantined on budget exhaustion; a
    /// clean guarded run reduces exactly the same unit sequence.
    fn execute(
        &self,
        workload: &dyn Workload,
        plan: &RegionPlan,
        workers: usize,
        guard: Option<&FaultPolicy>,
    ) -> (DeLoreanOutput, Vec<UnitFailure>) {
        let (units, quarantined) = RegionScheduler::new(workers).run_units(
            &plan.regions,
            guard,
            self.region_output(workload, plan),
        );
        (self.reduce_outputs(workload, plan, units), quarantined)
    }

    /// The per-region unit body: Scout → Explorer chain → Analyst over
    /// one region, with all pass clocks local to the unit. A pure
    /// function of `(index, region)`, so a guarded unit may retry it
    /// from the top.
    fn region_output<'a>(
        &'a self,
        workload: &'a dyn Workload,
        plan: &'a RegionPlan,
    ) -> impl Fn(u32, &Region) -> RegionOutput + Sync + 'a {
        let mult = plan.config.work_multiplier();
        let n_explorers = self.config.explorer_windows_instrs.len();

        move |i: u32, region: &Region| {
            let prev_end = if i == 0 {
                0
            } else {
                plan.regions[i as usize - 1].detailed.end
            };
            let mut scout_clock = HostClock::new();
            let mut explorer_clocks = vec![HostClock::new(); n_explorers];
            let mut analyst_clock = HostClock::new();
            let artifacts = warm_region(
                workload,
                &self.machine,
                &self.cost,
                &self.config,
                region,
                prev_end,
                mult,
                &mut scout_clock,
                &mut explorer_clocks,
            );
            let analyst = run_analyst(
                workload,
                &self.machine,
                &self.timing,
                &self.cost,
                &mut analyst_clock,
                region,
                &artifacts.input,
                mult,
            );
            RegionOutput {
                report: RegionReport {
                    region: region.index,
                    detailed: analyst.detailed,
                },
                artifacts,
                counts: analyst.counts,
                scout_seconds: scout_clock.seconds(),
                explorer_seconds: explorer_clocks.iter().map(|c| c.seconds()).collect(),
                analyst_seconds: analyst_clock.seconds(),
            }
        }
    }

    /// Input-ordered reduction: fold per-pass clocks, statistics and
    /// DSW counts region by region, so the assembled output (f64 sums
    /// included) has one fixed shape for every worker count. Quarantined
    /// units arrive as `None` and contribute nothing — no pass seconds,
    /// no cost unit, no statistics.
    fn reduce_outputs(
        &self,
        workload: &dyn Workload,
        plan: &RegionPlan,
        units: Vec<Option<RegionOutput>>,
    ) -> DeLoreanOutput {
        let n_explorers = self.config.explorer_windows_instrs.len();
        let mut scout_clock = HostClock::new();
        let mut explorer_clocks = vec![HostClock::new(); n_explorers];
        let mut analyst_clock = HostClock::new();
        let mut stats = TtStats::default();
        let mut dsw_counts = DswCounts::default();
        let mut regions = Vec::with_capacity(plan.regions.len());
        let mut cost = RunCost::new(plan.regions.len() as u64);
        for unit in units {
            let Some(unit) = unit else { continue };
            scout_clock.charge(unit.scout_seconds);
            for (clock, s) in explorer_clocks.iter_mut().zip(&unit.explorer_seconds) {
                clock.charge(*s);
            }
            analyst_clock.charge(unit.analyst_seconds);
            let mut unit_clock = HostClock::new();
            unit_clock.charge(unit.scout_seconds);
            for s in &unit.explorer_seconds {
                unit_clock.charge(*s);
            }
            unit_clock.charge(unit.analyst_seconds);
            cost.push_unit(unit.report.region, 0.0, unit_clock.seconds());
            accumulate(&mut stats, &unit.artifacts);
            dsw_counts.merge(&unit.counts);
            regions.push(unit.report);
        }

        cost.push("scout", scout_clock);
        for (k, c) in explorer_clocks.into_iter().enumerate() {
            cost.push(format!("explorer-{}", k + 1), c);
        }
        cost.push("analyst", analyst_clock);
        let report = SimulationReport {
            workload: workload.name().to_string(),
            strategy: "delorean".into(),
            regions,
            collected_reuse_distances: stats.collected_reuse_distances(),
            cost,
            covered_instrs: plan.represented_instrs(),
        };
        DeLoreanOutput {
            report,
            stats,
            dsw_counts,
        }
    }
}

/// One region unit's complete output, reduced in plan order by
/// [`DeLoreanRunner`]'s execution body.
struct RegionOutput {
    report: RegionReport,
    artifacts: RegionArtifacts,
    counts: DswCounts,
    scout_seconds: f64,
    explorer_seconds: Vec<f64>,
    analyst_seconds: f64,
}

impl SamplingStrategy for DeLoreanRunner {
    fn name(&self) -> &str {
        "delorean"
    }

    /// Run region-parallel at `workers` (the provided
    /// [`run`](SamplingStrategy::run) uses the configured count, see
    /// [`DeLoreanRunner::with_region_workers`]). The time-traveling
    /// statistics and DSW counters ride along as [`DeLoreanExtras`];
    /// recover the full [`DeLoreanOutput`] with
    /// `TryFrom<StrategyReport>`. The §3.2-faithful pass pipeline is
    /// still available as
    /// [`run_pipelined`](crate::pipeline::run_pipelined).
    fn run_with_workers(
        &self,
        workload: &dyn Workload,
        plan: &RegionPlan,
        workers: usize,
    ) -> StrategyReport {
        self.execute(workload, plan, workers, None).0.into()
    }

    /// Region-parallel with per-unit panic isolation; the
    /// time-traveling extras are dropped here, as partial reports carry
    /// no extras.
    fn run_isolated(
        &self,
        workload: &dyn Workload,
        plan: &RegionPlan,
        workers: usize,
        policy: &FaultPolicy,
    ) -> PartialReport {
        let (out, quarantined) = self.execute(workload, plan, workers, Some(policy));
        PartialReport {
            report: out.report,
            quarantined,
        }
    }

    /// The configured region-scheduler worker count.
    fn internal_parallelism(&self) -> usize {
        self.workers
    }
}

/// Fold one region's artifacts into the run statistics.
pub(crate) fn accumulate(stats: &mut TtStats, artifacts: &RegionArtifacts) {
    stats.regions += 1;
    stats.keys_per_region.push(artifacts.keys);
    for (a, b) in stats
        .resolved_by_explorer
        .iter_mut()
        .zip(&artifacts.resolved_by)
    {
        *a += b;
    }
    stats.cold_keys += artifacts.cold_keys;
    stats.engaged_sum += artifacts.engaged;
    stats.vicinity_samples += artifacts.vicinity_samples;
    stats.false_positive_traps += artifacts.false_positive_traps;
    stats.true_hit_traps += artifacts.true_hit_traps;
}

#[cfg(test)]
mod tests {
    use super::*;
    use delorean_sampling::{SamplingConfig, SmartsRunner};
    use delorean_trace::{spec_workload, Scale};

    fn quick_plan() -> RegionPlan {
        SamplingConfig::for_scale(Scale::tiny())
            .with_regions(3)
            .plan()
    }

    fn runner() -> DeLoreanRunner {
        DeLoreanRunner::new(
            MachineConfig::for_scale(Scale::tiny()),
            DeLoreanConfig::for_scale(Scale::tiny()),
        )
    }

    #[test]
    fn serial_run_produces_complete_output() {
        let w = spec_workload("hmmer", Scale::tiny(), 1).unwrap();
        let out = runner().run_serial(&w, &quick_plan());
        assert_eq!(out.report.regions.len(), 3);
        assert_eq!(out.stats.regions, 3);
        assert!(out.report.cpi() > 0.0);
        assert_eq!(out.report.strategy, "delorean");
        // Keys were found and (mostly) resolved.
        assert!(out.stats.total_keys() > 0);
        assert!(out.stats.collected_reuse_distances() > 0);
    }

    #[test]
    fn accuracy_close_to_smarts_reference() {
        let w = spec_workload("bwaves", Scale::tiny(), 1).unwrap();
        let plan = quick_plan();
        let delorean = runner().run_serial(&w, &plan);
        let smarts = SmartsRunner::new(MachineConfig::for_scale(Scale::tiny())).run(&w, &plan);
        let err = delorean.report.cpi_error_vs(&smarts);
        assert!(
            err < 0.30,
            "DeLorean CPI {} vs SMARTS {} (err {err})",
            delorean.report.cpi(),
            smarts.cpi()
        );
    }

    #[test]
    fn faster_than_smarts() {
        let w = spec_workload("hmmer", Scale::tiny(), 1).unwrap();
        let plan = quick_plan();
        let delorean = runner().run_serial(&w, &plan);
        let smarts = SmartsRunner::new(MachineConfig::for_scale(Scale::tiny())).run(&w, &plan);
        let speedup = delorean.report.speedup_vs(&smarts);
        assert!(speedup > 5.0, "speedup {speedup}");
    }

    #[test]
    fn explorer_engagement_is_bounded() {
        let w = spec_workload("hmmer", Scale::tiny(), 1).unwrap();
        let out = runner().run_serial(&w, &quick_plan());
        let avg = out.stats.avg_explorers_engaged();
        assert!((0.0..=4.0).contains(&avg), "avg explorers {avg}");
    }

    #[test]
    fn serial_is_deterministic() {
        let w = spec_workload("namd", Scale::tiny(), 1).unwrap();
        let plan = quick_plan();
        let a = runner().run_serial(&w, &plan);
        let b = runner().run_serial(&w, &plan);
        assert_eq!(a.report.cpi(), b.report.cpi());
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.dsw_counts, b.dsw_counts);
    }
}
