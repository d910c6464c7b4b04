//! Checkpointed warming (CW): the TurboSMARTS / Live-points family.
//!
//! The paper's §7 contrasts DeLorean with checkpoint-based warming:
//! snapshot the microarchitectural state before each detailed region once,
//! then reuse the snapshots for later evaluation runs. CW is fast after
//! the (expensive, functional-warming) preparation run and exactly as
//! accurate as SMARTS — but it pays storage per region and the
//! checkpoints are invalidated by *any* software change and by hardware
//! changes to the structures they capture, which is precisely why the
//! paper pursues statistical warming instead.
//!
//! This module reproduces the trade-off quantitatively: preparation cost,
//! per-region storage (Live-points-style valid-lines serialization — the
//! paper cites 142 KiB per Live point vs 20–100 MiB per Flex point), and
//! evaluation-run speed including checkpoint load time.

use crate::config::{Region, RegionPlan};
use crate::driver::{reduce_region_units, UnitDriver};
use crate::proxy::{ProxyStateSource, SpeculationExtras};
use crate::report::SimulationReport;
use crate::scheduler::{RegionScheduler, SpecForm};
use crate::strategy::{PartialReport, SamplingStrategy, StrategyReport};
use delorean_cache::{Hierarchy, HierarchySnapshot, MachineConfig};
use delorean_cpu::TimingConfig;
use delorean_trace::fault::{self, FaultPolicy, UnitFailure};
use delorean_trace::Workload;
use delorean_virt::{CostModel, HostClock, SpecUnit, WorkKind};

/// The checkpoints of one (workload, plan, machine) combination.
#[derive(Clone, Debug)]
pub struct CheckpointSet {
    pub(crate) snapshots: Vec<HierarchySnapshot>,
    /// Host seconds spent producing the checkpoints (one functional-
    /// warming pass over the whole program).
    pub preparation_seconds: f64,
}

impl CheckpointSet {
    /// Number of checkpoints (= regions).
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// `true` if no checkpoints were captured.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// Total storage across all regions, bytes.
    pub fn storage_bytes(&self) -> u64 {
        self.snapshots.iter().map(|s| s.storage_bytes()).sum()
    }
}

/// Strategy extras attached by [`CheckpointWarmingRunner`]'s
/// [`SamplingStrategy::run`]: the preparation-run trade-off the
/// evaluation report deliberately excludes.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointExtras {
    /// Total checkpoint storage, bytes.
    pub storage_bytes: u64,
    /// Host seconds of the preparation (functional-warming) run.
    pub preparation_seconds: f64,
}

/// Checkpointed-warming runner: prepare once, evaluate cheaply.
#[derive(Clone, Debug)]
pub struct CheckpointWarmingRunner {
    machine: MachineConfig,
    timing: TimingConfig,
    cost: CostModel,
    workers: usize,
    /// Modeled checkpoint-load bandwidth (2009-era disk, bytes/second).
    pub load_bytes_per_second: f64,
}

impl CheckpointWarmingRunner {
    /// A runner with Table 1 timing and paper-host costs.
    pub fn new(machine: MachineConfig) -> Self {
        CheckpointWarmingRunner {
            machine,
            timing: TimingConfig::table1(),
            cost: CostModel::paper_host(),
            workers: 1,
            load_bytes_per_second: 100.0e6,
        }
    }

    /// Override the host cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Set the region-scheduler worker count evaluation runs use.
    /// Checkpoint **evaluation** is embarrassingly region-parallel —
    /// each unit restores its own snapshot — while the preparation pass
    /// stays a sequential warm chain; results are byte-identical for
    /// every value.
    pub fn with_region_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// The preparation run: functional warming across the whole program,
    /// snapshotting the hierarchy at each region's warming start.
    ///
    /// This costs as much as one SMARTS run minus the detailed regions —
    /// checkpointing only pays off when the snapshots are reused.
    pub fn prepare(&self, workload: &dyn Workload, plan: &RegionPlan) -> CheckpointSet {
        self.prepare_chain(workload, plan, None, 1).0
    }

    /// The preparation run through the **speculative warm lane**: the
    /// warm chain between snapshots is the same chain SMARTS walks, so
    /// the same protocol applies — each region's speculation builds a
    /// proxy of the chain state at its boundary and digests it; the
    /// reconciler advances the true state and commits on a digest match.
    ///
    /// As in SMARTS's speculative lane
    /// ([`SmartsRunner::with_speculation`](crate::SmartsRunner::with_speculation)),
    /// speculation runs only ahead of the chain. A helper that claims a
    /// region first also warms the proxy over the region's span and
    /// snapshots it, and a commit adopts that snapshot and end state. A
    /// region the reconciler reaches first gets only the proxy digest,
    /// and the chain warms and snapshots in place exactly like
    /// [`prepare`](Self::prepare) — the same chain step. Without helpers
    /// the lane therefore costs `prepare` plus the proxy digests, and its
    /// snapshots equal `prepare`'s byte for byte.
    ///
    /// One wrinkle: [`Hierarchy::snapshot`] drains the MSHRs, so the
    /// chain state at every boundary after the first is post-drain. The
    /// speculation mirrors that by draining its proxy before digesting,
    /// keeping the comparison apples-to-apples.
    ///
    /// A snapshot adopted from a helper may differ from the sequentially
    /// prepared one in *dead* bytes (absolute recency stamps) — but
    /// storage accounting (valid lines) and every evaluation run built on
    /// it are functions of the live state only, so `preparation_seconds`,
    /// [`CheckpointSet::storage_bytes`] and the evaluation
    /// [`SimulationReport`] are all identical to sequential preparation
    /// (pinned by `tests/determinism.rs`), and so are the
    /// [`SpeculationExtras`] at every worker count.
    pub fn prepare_speculative(
        &self,
        workload: &dyn Workload,
        plan: &RegionPlan,
        proxy: ProxyStateSource,
        workers: usize,
    ) -> (CheckpointSet, SpeculationExtras) {
        let (set, outcomes) = self.prepare_chain(workload, plan, Some(proxy), workers);
        (set, SpeculationExtras { proxy, outcomes })
    }

    /// The one preparation body: walk the warm chain in plan order,
    /// snapshotting at each region's warming start — in place, or
    /// reconciling `proxy` speculations when one is given.
    fn prepare_chain(
        &self,
        workload: &dyn Workload,
        plan: &RegionPlan,
        proxy: Option<ProxyStateSource>,
        workers: usize,
    ) -> (CheckpointSet, Vec<SpecUnit>) {
        let p = workload.mem_period();
        let mult = plan.config.work_multiplier();
        let mut positions = Vec::with_capacity(plan.regions.len());
        let mut pos = 0u64;
        for region in &plan.regions {
            positions.push(pos);
            pos = region.warming.start / p;
        }
        let positions = &positions;

        struct Speculation {
            digest: u64,
            proxy_seconds: f64,
            /// A full speculation's end state and snapshot.
            ahead: Option<(Hierarchy, HierarchySnapshot)>,
        }

        let mut hierarchy = Hierarchy::new(&self.machine);
        let mut pos_access = 0u64;
        let mut clock = HostClock::new();
        let mut outcomes: Vec<SpecUnit> = Vec::with_capacity(plan.regions.len());
        // The chain step: charge the warm span, then commit on a digest
        // match (adopting a full speculation's end state and snapshot)
        // or — on a miss, a light speculation, or none at all — warm and
        // snapshot in place.
        let mut step = |i: u32, region: &Region, s: Option<Speculation>| -> HierarchySnapshot {
            debug_assert_eq!(pos_access, positions[i as usize]);
            let warm_end = region.warming.start / p;
            let span = warm_end.saturating_sub(pos_access);
            let seconds = self
                .cost
                .instr_seconds(WorkKind::Functional, span * p * mult);
            clock.charge(seconds);
            let (committed, proxy_seconds, ahead) = match s {
                Some(s) => {
                    // drain_mshrs is idempotent on the already-drained
                    // chain (and a no-op on the cold start), so digesting
                    // after it matches the speculation's comparison point.
                    hierarchy.drain_mshrs();
                    (
                        hierarchy.state_digest() == s.digest,
                        s.proxy_seconds,
                        s.ahead,
                    )
                }
                None => (false, 0.0, None),
            };
            let snapshot = match ahead {
                Some((end_state, snapshot)) if committed => {
                    hierarchy.copy_state_from(&end_state);
                    snapshot
                }
                _ => {
                    hierarchy.warm_range(workload, pos_access..warm_end);
                    hierarchy.snapshot()
                }
            };
            pos_access = warm_end;
            outcomes.push(SpecUnit {
                unit: i,
                committed,
                proxy_seconds,
                speculative_seconds: proxy_seconds + seconds,
            });
            snapshot
        };

        let snapshots = match proxy {
            None => (0..)
                .zip(&plan.regions)
                .map(|(i, region)| step(i, region, None))
                .collect(),
            Some(proxy) => {
                let ctx = crate::proxy::ProxyContext {
                    machine: &self.machine,
                    cost: &self.cost,
                    workload,
                    p,
                    mult,
                };
                let spec = |i: u32, region: &Region, form: SpecForm| -> Speculation {
                    let at = positions[i as usize];
                    let prev = if i == 0 { 0 } else { positions[i as usize - 1] };
                    let (mut h, proxy_seconds) = proxy.build(&ctx, at, prev);
                    // The chain drained its MSHRs when it snapshotted at `at`.
                    h.drain_mshrs();
                    let digest = h.state_digest();
                    let ahead = (form == SpecForm::Full).then(|| {
                        h.warm_range(workload, at..region.warming.start / p);
                        let snapshot = h.snapshot();
                        (h, snapshot)
                    });
                    Speculation {
                        digest,
                        proxy_seconds,
                        ahead,
                    }
                };
                let (snapshots, _) =
                    RegionScheduler::new(workers).run_speculative(&plan.regions, None, spec, step);
                snapshots.into_iter().flatten().collect()
            }
        };
        let set = CheckpointSet {
            snapshots,
            preparation_seconds: clock.seconds(),
        };
        (set, outcomes)
    }

    /// An evaluation run from existing checkpoints: load, detailed-warm,
    /// simulate, region-parallel at the configured worker count (every
    /// region unit restores its own snapshot into its own hierarchy).
    /// Accuracy is identical to SMARTS by construction (the state is the
    /// real functional-warming state).
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint count does not match the plan.
    pub fn run_with(
        &self,
        checkpoints: &CheckpointSet,
        workload: &dyn Workload,
        plan: &RegionPlan,
    ) -> SimulationReport {
        self.evaluate(checkpoints, workload, plan, self.workers, None)
            .0
            .into_report()
    }

    /// The one execution body behind every entry point: prepare (a
    /// sequential warm chain), then evaluate (region-parallel at
    /// `workers`), unguarded or under a fault `guard`.
    ///
    /// Preparation runs over a locally owned hierarchy — a pure function
    /// of the workload and plan — so under a guard the *whole* prepare
    /// step is one retryable unit; if it never completes, no region has a
    /// snapshot and the run is quarantined behind unit 0. Evaluation
    /// units restore independent snapshots and are retried and
    /// quarantined individually.
    fn execute(
        &self,
        workload: &dyn Workload,
        plan: &RegionPlan,
        workers: usize,
        guard: Option<&FaultPolicy>,
    ) -> (StrategyReport, Vec<UnitFailure>) {
        let checkpoints = match guard {
            None => self.prepare(workload, plan),
            Some(policy) => {
                match fault::run_unit_guarded(0, policy, || self.prepare(workload, plan)) {
                    Ok(set) => set,
                    Err(failure) => {
                        let lost = PartialReport::whole_run_lost(workload, self.name(), failure);
                        return (lost.report.into(), lost.quarantined);
                    }
                }
            }
        };
        let (report, quarantined) = self.evaluate(&checkpoints, workload, plan, workers, guard);
        let extras = CheckpointExtras {
            storage_bytes: checkpoints.storage_bytes(),
            preparation_seconds: checkpoints.preparation_seconds,
        };
        (report.with_extras(extras), quarantined)
    }

    /// Evaluate `checkpoints` over the plan: each region unit restores
    /// its snapshot into a fresh hierarchy, then detailed-warms and
    /// measures — a pure function of `(index, region)` given the
    /// checkpoint set, so a guarded unit may retry from the top.
    fn evaluate(
        &self,
        checkpoints: &CheckpointSet,
        workload: &dyn Workload,
        plan: &RegionPlan,
        workers: usize,
        guard: Option<&FaultPolicy>,
    ) -> (StrategyReport, Vec<UnitFailure>) {
        assert_eq!(
            checkpoints.len(),
            plan.regions.len(),
            "checkpoint/plan mismatch"
        );
        let unit = |i: u32, region: &Region| {
            let mut driver = UnitDriver::new(workload, &self.timing, &self.cost);
            let snap = &checkpoints.snapshots[i as usize];
            // Load the checkpoint from storage.
            driver.charge_seconds(snap.storage_bytes() as f64 / self.load_bytes_per_second);
            let mut hierarchy = Hierarchy::new(&self.machine);
            hierarchy.restore(snap);
            // Detailed warming + region on the restored state.
            driver.measure_on(region, &mut hierarchy)
        };
        let (units, quarantined) =
            RegionScheduler::new(workers).run_units(&plan.regions, guard, unit);
        let report = reduce_region_units(workload.name(), plan, self.name(), &[], units);
        (report.into(), quarantined)
    }
}

impl SamplingStrategy for CheckpointWarmingRunner {
    fn name(&self) -> &str {
        "checkpoint"
    }

    /// Prepare (sequential warm chain) and evaluate (region-parallel at
    /// `workers`) in one call. The returned report covers the
    /// **evaluation run only** (checkpointing's selling point); the
    /// preparation cost and storage footprint — the trade-off against
    /// statistical warming — ride along as [`CheckpointExtras`].
    fn run_with_workers(
        &self,
        workload: &dyn Workload,
        plan: &RegionPlan,
        workers: usize,
    ) -> StrategyReport {
        self.execute(workload, plan, workers, None).0
    }

    /// Checkpointed warming with per-unit panic isolation: the whole
    /// preparation is one guarded, retryable unit, and each evaluation
    /// unit is retried and quarantined individually.
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
    fn checkpoint_accuracy_matches_smarts_exactly() {
        let (w, machine, plan) = setup();
        let runner = CheckpointWarmingRunner::new(machine);
        let checkpoints = runner.prepare(&w, &plan);
        let cw = runner.run_with(&checkpoints, &w, &plan);
        let smarts = SmartsRunner::new(machine).run(&w, &plan);
        // CW restores the exact functional-warming state, so region
        // results are identical, not merely close.
        assert_eq!(cw.total(), smarts.total());
    }

    #[test]
    fn checkpoints_cost_storage() {
        let (w, machine, plan) = setup();
        let runner = CheckpointWarmingRunner::new(machine);
        let checkpoints = runner.prepare(&w, &plan);
        assert_eq!(checkpoints.len(), 3);
        assert!(!checkpoints.is_empty());
        // Later regions have warmer caches, so storage is non-trivial.
        assert!(
            checkpoints.storage_bytes() > 1_000,
            "storage {}",
            checkpoints.storage_bytes()
        );
        assert!(checkpoints.preparation_seconds > 0.0);
    }

    #[test]
    fn evaluation_runs_are_fast_after_preparation() {
        let (w, machine, plan) = setup();
        let runner = CheckpointWarmingRunner::new(machine);
        let checkpoints = runner.prepare(&w, &plan);
        let cw = runner.run_with(&checkpoints, &w, &plan);
        // The evaluation run avoids all functional warming: orders of
        // magnitude cheaper than preparation.
        assert!(
            cw.cost.serial_wallclock() * 10.0 < checkpoints.preparation_seconds,
            "eval {} vs prep {}",
            cw.cost.serial_wallclock(),
            checkpoints.preparation_seconds
        );
    }

    #[test]
    fn strategy_run_is_prepare_plus_eval_with_extras() {
        let (w, machine, plan) = setup();
        let runner = CheckpointWarmingRunner::new(machine);
        let via_trait = runner.run(&w, &plan);
        let checkpoints = runner.prepare(&w, &plan);
        let direct = runner.run_with(&checkpoints, &w, &plan);
        assert_eq!(via_trait.total(), direct.total());
        let extras = via_trait.extras::<CheckpointExtras>().expect("extras");
        assert_eq!(extras.storage_bytes, checkpoints.storage_bytes());
        assert_eq!(extras.preparation_seconds, checkpoints.preparation_seconds);
    }

    #[test]
    fn speculative_preparation_matches_sequential() {
        let (w, machine, plan) = setup();
        let runner = CheckpointWarmingRunner::new(machine);
        let sequential = runner.prepare(&w, &plan);
        let seq_eval = runner.run_with(&sequential, &w, &plan);
        for proxy in [
            ProxyStateSource::Cold,
            ProxyStateSource::StatModel,
            ProxyStateSource::Poisoned,
        ] {
            for workers in [1usize, 4] {
                let (set, extras) = runner.prepare_speculative(&w, &plan, proxy, workers);
                assert_eq!(set.len(), sequential.len());
                assert_eq!(set.preparation_seconds, sequential.preparation_seconds);
                assert_eq!(set.storage_bytes(), sequential.storage_bytes());
                let eval = runner.run_with(&set, &w, &plan);
                assert_eq!(eval, seq_eval, "proxy {} workers {workers}", proxy.name());
                if proxy == ProxyStateSource::Poisoned {
                    assert_eq!(extras.hits(), 0);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "checkpoint/plan mismatch")]
    fn mismatched_plan_is_rejected() {
        let (w, machine, plan) = setup();
        let runner = CheckpointWarmingRunner::new(machine);
        let checkpoints = runner.prepare(&w, &plan);
        let other = SamplingConfig::for_scale(Scale::tiny())
            .with_regions(5)
            .plan();
        let _ = runner.run_with(&checkpoints, &w, &other);
    }
}
