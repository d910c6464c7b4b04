//! Proxy state sources for the speculative warm lane.
//!
//! SMARTS's warm chain is sequential because the hierarchy at a region
//! boundary depends on every access before it. The speculative lane
//! breaks the chain by *guessing* that state: each region's speculation
//! builds a cheap **proxy** of the hierarchy at its chain position and
//! records the proxy's [`Hierarchy::state_digest`]. A sequential
//! reconciler compares the digest against the true carried state and
//! commits the region on a match, so the final report is bitwise
//! identical to sequential SMARTS either way.
//!
//! Speculation runs only ahead of the chain. A helper thread that
//! claims a region before the reconciler reaches it also warms and
//! measures from the proxy, so a commit adopts that measurement and a
//! miss re-measures from the true state. A region the reconciler
//! reaches first only gets its proxy digest; the chain then warms and
//! measures in place, like plain SMARTS. Without helpers — one worker,
//! or a host whose cores are all busy — the lane therefore costs plain
//! SMARTS plus the proxy digests, never a second warm-and-measure.
//!
//! A proxy source must be a **deterministic function of
//! `(workload, plan, region index)`** — never of runtime timing —
//! so the commit/miss pattern (and with it the modeled speedup and the
//! speculation extras) is identical at every worker count.

use delorean_cache::{Hierarchy, MachineConfig};
use delorean_statmodel::plan_warm_window;
use delorean_trace::{LineAddr, Pc, Workload, WorkloadExt};
use delorean_virt::{CostModel, SpecUnit, WorkKind};

/// Accesses probed per LLC line when sizing a statmodel-directed window.
const STATMODEL_PROBE_PER_LINE: u64 = 8;

/// Safety margin multiplying the critical reuse distance: the window
/// must also converge the L1 recency state and the MSHR/no-pressure
/// corners the LLC-level critical distance underestimates (empirically,
/// hmmer-class workloads need ~7× their critical distance; 8 adds slack
/// without eroding the win — the window stays ~25× shorter than the
/// blind prefix at demo scale).
const STATMODEL_MARGIN: u64 = 8;

/// A line address no synthetic workload ever touches — the poisoned
/// proxy's sentinel.
const POISON_LINE: u64 = u64::MAX - 1;

/// Where a speculative worker gets its starting hierarchy state.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ProxyStateSource {
    /// A cold hierarchy. Free to build; commits exactly the regions
    /// whose true boundary state happens to be cold (always region 0).
    Cold,
    /// Warm from cold over the span since the nearest preceding region
    /// boundary — a deterministic stand-in for "resume from the nearest
    /// completed true state" that keeps the commit pattern independent
    /// of runtime completion order.
    NearestBoundary,
    /// Statmodel-directed window: probe the reuse behaviour just before
    /// the boundary, invert it into the critical reuse distance for the
    /// LLC ([`delorean_statmodel::plan_warm_window`]), and warm only
    /// that window from cold — the DeLorean thesis (directed beats
    /// blind) applied to the warm chain itself.
    StatModel,
    /// A deliberately wrong proxy (a sentinel line is planted after
    /// construction), guaranteeing a digest mismatch for every region.
    /// Exists for tests: reconciliation must re-measure everything and
    /// still produce the sequential report.
    Poisoned,
}

impl ProxyStateSource {
    /// Stable lowercase identifier for reports and bench JSON.
    pub fn name(&self) -> &'static str {
        match self {
            ProxyStateSource::Cold => "cold",
            ProxyStateSource::NearestBoundary => "nearest-boundary",
            ProxyStateSource::StatModel => "statmodel",
            ProxyStateSource::Poisoned => "poisoned",
        }
    }

    /// Build the proxy hierarchy approximating the warm chain at access
    /// position `pos`, with `prev_pos` the nearest preceding region
    /// boundary. Returns the hierarchy plus the modeled host seconds of
    /// building it (the context's `p`/`mult` convert spans to
    /// represented instructions, exactly like the chain's own charges).
    pub(crate) fn build(
        &self,
        ctx: &ProxyContext<'_>,
        pos: u64,
        prev_pos: u64,
    ) -> (Hierarchy, f64) {
        let ProxyContext {
            machine,
            cost,
            workload,
            p,
            mult,
        } = *ctx;
        let mut h = Hierarchy::new(machine);
        match self {
            ProxyStateSource::Cold => (h, 0.0),
            ProxyStateSource::NearestBoundary => {
                let span = pos.saturating_sub(prev_pos);
                h.warm_range(workload, prev_pos..pos);
                (h, cost.instr_seconds(WorkKind::Functional, span * p * mult))
            }
            ProxyStateSource::StatModel => {
                let llc_lines = machine.hierarchy.llc.lines();
                let probe_len = (llc_lines * STATMODEL_PROBE_PER_LINE).min(pos);
                let mut probe: Vec<LineAddr> = Vec::with_capacity(probe_len as usize);
                workload.for_each_access(pos - probe_len..pos, |a| probe.push(a.line()));
                let plan = plan_warm_window(&probe, llc_lines, pos, STATMODEL_MARGIN);
                h.warm_range(workload, pos - plan.window..pos);
                // The probe is a near-native scan (watchpoint-style);
                // only the window is warmed at functional speed.
                let seconds = cost.instr_seconds(WorkKind::Vff, probe_len * p * mult)
                    + cost.instr_seconds(WorkKind::Functional, plan.window * p * mult);
                (h, seconds)
            }
            ProxyStateSource::Poisoned => {
                h.access_data(Pc(0), LineAddr(POISON_LINE), 0);
                (h, 0.0)
            }
        }
    }
}

/// Everything a proxy build needs that does not vary per region: the
/// machine, the cost model, the workload and the span-to-instruction
/// conversion factors (`p` = memory period, `mult` = plan work
/// multiplier).
#[derive(Copy, Clone)]
pub(crate) struct ProxyContext<'a> {
    pub machine: &'a MachineConfig,
    pub cost: &'a CostModel,
    pub workload: &'a dyn Workload,
    pub p: u64,
    pub mult: u64,
}

/// Speculation statistics attached to a speculative run's
/// [`StrategyReport`](crate::StrategyReport) — kept *outside* the
/// [`SimulationReport`](crate::SimulationReport) so the report stays
/// bitwise identical to the sequential run's.
#[derive(Clone, Debug, PartialEq)]
pub struct SpeculationExtras {
    /// The proxy source the run speculated from.
    pub proxy: ProxyStateSource,
    /// Per-region outcome, in plan order — feeds
    /// [`RunCost::speculative_wallclock`](delorean_virt::RunCost::speculative_wallclock).
    pub outcomes: Vec<SpecUnit>,
}

impl SpeculationExtras {
    /// Number of regions whose speculative measurement was committed.
    pub fn hits(&self) -> usize {
        self.outcomes.iter().filter(|o| o.committed).count()
    }

    /// Fraction of regions committed (1.0 for an empty plan).
    pub fn hit_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            1.0
        } else {
            self.hits() as f64 / self.outcomes.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SamplingStrategy;
    use delorean_trace::{spec_workload, AccessCursor, BranchModel, MemAccess, Scale};
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn proxy_sources_have_stable_names() {
        assert_eq!(ProxyStateSource::Cold.name(), "cold");
        assert_eq!(ProxyStateSource::NearestBoundary.name(), "nearest-boundary");
        assert_eq!(ProxyStateSource::StatModel.name(), "statmodel");
        assert_eq!(ProxyStateSource::Poisoned.name(), "poisoned");
    }

    #[test]
    fn statmodel_proxy_converges_to_the_chain_state() {
        let scale = Scale::tiny();
        let w = spec_workload("hmmer", scale, 1).unwrap();
        let machine = MachineConfig::for_scale(scale);
        let cost = CostModel::paper_host();
        let pos = 60_000u64;
        let mut chain = Hierarchy::new(&machine);
        chain.warm_range(&w, 0..pos);
        let ctx = ProxyContext {
            machine: &machine,
            cost: &cost,
            workload: &w,
            p: 3,
            mult: 4000,
        };
        let (proxy, seconds) = ProxyStateSource::StatModel.build(&ctx, pos, 30_000);
        assert_eq!(proxy.state_digest(), chain.state_digest());
        // The directed window is a small fraction of the blind prefix.
        let blind = cost.instr_seconds(WorkKind::Functional, pos * 3 * 4000);
        assert!(seconds < blind / 2.0, "directed {seconds} vs blind {blind}");
    }

    #[test]
    fn cold_proxy_is_free_and_cold() {
        let scale = Scale::tiny();
        let w = spec_workload("mcf", scale, 1).unwrap();
        let machine = MachineConfig::for_scale(scale);
        let cost = CostModel::paper_host();
        let ctx = ProxyContext {
            machine: &machine,
            cost: &cost,
            workload: &w,
            p: 3,
            mult: 1,
        };
        let (proxy, seconds) = ProxyStateSource::Cold.build(&ctx, 50_000, 0);
        assert_eq!(seconds, 0.0);
        assert_eq!(
            proxy.state_digest(),
            Hierarchy::new(&machine).state_digest()
        );
    }

    #[test]
    fn poisoned_proxy_never_matches_cold_or_warm_state() {
        let scale = Scale::tiny();
        let w = spec_workload("hmmer", scale, 1).unwrap();
        let machine = MachineConfig::for_scale(scale);
        let cost = CostModel::paper_host();
        let ctx = ProxyContext {
            machine: &machine,
            cost: &cost,
            workload: &w,
            p: 3,
            mult: 1,
        };
        let (proxy, _) = ProxyStateSource::Poisoned.build(&ctx, 0, 0);
        assert_ne!(
            proxy.state_digest(),
            Hierarchy::new(&machine).state_digest(),
            "poison must differ from cold"
        );
        let mut warm = Hierarchy::new(&machine);
        warm.warm_range(&w, 0..10_000);
        assert_ne!(proxy.state_digest(), warm.state_digest());
    }

    /// A workload that counts every access it hands out, through
    /// `access_at` and through its cursors.
    struct Counting<W> {
        inner: W,
        served: AtomicU64,
    }

    impl<W: Workload> Counting<W> {
        fn new(inner: W) -> Self {
            Counting {
                inner,
                served: AtomicU64::new(0),
            }
        }

        /// Accesses served since the last call.
        fn take(&self) -> u64 {
            self.served.swap(0, Ordering::Relaxed)
        }
    }

    struct CountingCursor<'a> {
        inner: Box<dyn AccessCursor + 'a>,
        served: &'a AtomicU64,
    }

    impl AccessCursor for CountingCursor<'_> {
        fn position(&self) -> u64 {
            self.inner.position()
        }

        fn end(&self) -> u64 {
            self.inner.end()
        }

        fn fill(&mut self, out: &mut Vec<MemAccess>, max: usize) -> usize {
            let n = self.inner.fill(out, max);
            self.served.fetch_add(n as u64, Ordering::Relaxed);
            n
        }
    }

    impl<W: Workload> Workload for Counting<W> {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn mem_period(&self) -> u64 {
            self.inner.mem_period()
        }

        fn access_at(&self, k: u64) -> MemAccess {
            self.served.fetch_add(1, Ordering::Relaxed);
            self.inner.access_at(k)
        }

        fn branch_model(&self) -> BranchModel {
            self.inner.branch_model()
        }

        fn cursor<'a>(&'a self, range: std::ops::Range<u64>) -> Box<dyn AccessCursor + 'a> {
            Box::new(CountingCursor {
                inner: self.inner.cursor(range),
                served: &self.served,
            })
        }
    }

    /// Accesses the StatModel proxies of a chain with these region
    /// boundary positions stream.
    fn proxy_accesses(
        w: &Counting<impl Workload>,
        machine: &MachineConfig,
        positions: &[u64],
    ) -> u64 {
        let cost = CostModel::paper_host();
        let ctx = ProxyContext {
            machine,
            cost: &cost,
            workload: w,
            p: w.mem_period(),
            mult: 1,
        };
        w.take();
        for (i, &at) in positions.iter().enumerate() {
            let prev = if i == 0 { 0 } else { positions[i - 1] };
            ProxyStateSource::StatModel.build(&ctx, at, prev);
        }
        w.take()
    }

    fn speculation_setup(
        input: &str,
    ) -> (Counting<impl Workload>, MachineConfig, crate::RegionPlan) {
        let scale = Scale::tiny();
        (
            Counting::new(spec_workload(input, scale, 7).unwrap()),
            MachineConfig::for_scale(scale),
            crate::SamplingConfig::for_scale(scale)
                .with_regions(4)
                .plan(),
        )
    }

    #[test]
    fn speculative_smarts_without_helpers_costs_plain_plus_proxies() {
        // hmmer's proxies commit and mcf's miss: a lane that speculated
        // in full without a helper would stream a miss's warm-and-measure
        // twice.
        let (mut commits, mut misses) = (0, 0);
        for input in ["hmmer", "mcf"] {
            let (w, machine, plan) = speculation_setup(input);
            let p = w.mem_period();
            let mut positions = vec![0];
            positions.extend(plan.regions.iter().map(|r| r.detailed.end / p));
            positions.pop();
            let proxies = proxy_accesses(&w, &machine, &positions);
            assert!(proxies > 0);

            let runner = crate::SmartsRunner::new(machine);
            let plain = runner.run_with_workers(&w, &plan, 1);
            let plain_accesses = w.take();
            let light =
                runner.run_speculative_with_workers(&w, &plan, ProxyStateSource::StatModel, 1);
            let light_accesses = w.take();
            assert!(
                light_accesses <= plain_accesses + proxies,
                "{input}: light lane streamed {light_accesses} accesses, \
                 plain SMARTS {plain_accesses} + proxies {proxies}"
            );
            assert_eq!(light.report, plain.report, "{input}");

            let helped =
                runner.run_speculative_with_workers(&w, &plan, ProxyStateSource::StatModel, 4);
            let extras = light.extras::<SpeculationExtras>().expect("extras");
            assert_eq!(
                Some(extras),
                helped.extras::<SpeculationExtras>(),
                "{input}: extras depend on who speculated"
            );
            assert_eq!(helped.report, plain.report, "{input}");
            commits += extras.hits();
            misses += extras.outcomes.len() - extras.hits();
        }
        assert!(
            commits > 0 && misses > 0,
            "{commits} commits, {misses} misses"
        );
    }

    #[test]
    fn speculative_preparation_without_helpers_is_prepare_plus_proxies() {
        let (w, machine, plan) = speculation_setup("hmmer");
        let p = w.mem_period();
        let mut positions = vec![0];
        positions.extend(plan.regions.iter().map(|r| r.warming.start / p));
        positions.pop();
        let proxies = proxy_accesses(&w, &machine, &positions);

        let runner = crate::CheckpointWarmingRunner::new(machine);
        let plain = runner.prepare(&w, &plan);
        let plain_accesses = w.take();
        let (light, light_extras) =
            runner.prepare_speculative(&w, &plan, ProxyStateSource::StatModel, 1);
        let light_accesses = w.take();
        assert!(
            light_accesses <= plain_accesses + proxies,
            "light lane streamed {light_accesses} accesses, prepare {plain_accesses} + proxies {proxies}"
        );
        // The chain never adopts a proxy's state, so even the dead bytes
        // of every snapshot match.
        assert_eq!(light.snapshots, plain.snapshots);
        assert_eq!(light.preparation_seconds, plain.preparation_seconds);

        let (helped, helped_extras) =
            runner.prepare_speculative(&w, &plan, ProxyStateSource::StatModel, 4);
        assert_eq!(
            light_extras, helped_extras,
            "extras depend on who speculated"
        );
        assert_eq!(helped.storage_bytes(), plain.storage_bytes());
        assert_eq!(helped.preparation_seconds, plain.preparation_seconds);
    }

    #[test]
    fn extras_count_hits() {
        let outcomes = vec![
            SpecUnit {
                unit: 0,
                committed: true,
                proxy_seconds: 0.0,
                speculative_seconds: 1.0,
            },
            SpecUnit {
                unit: 1,
                committed: false,
                proxy_seconds: 0.0,
                speculative_seconds: 1.0,
            },
        ];
        let e = SpeculationExtras {
            proxy: ProxyStateSource::Cold,
            outcomes,
        };
        assert_eq!(e.hits(), 1);
        assert!((e.hit_rate() - 0.5).abs() < 1e-12);
    }
}
