//! Sampled-simulation framework: the strategy execution layer and the
//! paper's baselines.
//!
//! * [`SamplingStrategy`] / [`StrategyReport`] — the unified interface
//!   every warming strategy implements; harness code executes any mix of
//!   strategies through `Box<dyn SamplingStrategy>` trait objects (the
//!   parallel batch executor lives in `delorean_bench`).
//! * [`SamplingConfig`] / [`RegionPlan`] — where the detailed regions sit
//!   (§5: 10 regions spread 1 B instructions apart, 10 k-instruction
//!   regions, 30 k instructions of detailed warming before each).
//! * [`SmartsRunner`] — SMARTS: functional warming of *every* memory
//!   access between regions. Slow, but the accuracy **reference** for
//!   every figure.
//! * [`CoolSimRunner`] — CoolSim: randomized statistical warming with the
//!   paper's best adaptive schedule (sample 1/40 k memory instructions for
//!   the first 75% of the interval, 1/20 k for the next 20%, 1/10 k for
//!   the last 5%), per-PC reuse profiles, and statistical hit/miss
//!   prediction in the detailed region.
//! * [`CheckpointWarmingRunner`] — checkpointed warming (TurboSMARTS /
//!   Live points, §7): exact SMARTS state restored from per-region
//!   snapshots; fast after preparation but storage-bound and invalidated
//!   by software changes.
//! * [`MrrlRunner`] — adaptive functional warming (MRRL, §7): shortens
//!   the warming window to a reuse-latency percentile.
//! * [`SimulationReport`] — per-region and aggregate CPI/MPKI plus cost
//!   accounting, shared with DeLorean so every strategy is compared with
//!   identical metrics.
//!
//! The shared per-region scaffolding (cost clock, detailed tail, report
//! assembly) lives in the private `driver` module; strategies implement
//! only the warming work that actually differs between them.
//!
//! All five strategies execute through the **region-parallel runtime**:
//! [`RegionScheduler`] partitions a plan into per-region units — fully
//! independent for CoolSim/MRRL/checkpoint-evaluation/DeLorean, seeded
//! off a sequential warm lane for SMARTS/checkpoint-preparation — fans
//! them across a worker pool, and reduces results in plan order, so
//! every report is byte-identical for every worker count. Per-unit
//! costs are recorded on the report
//! ([`RunCost::units`](delorean_virt::RunCost::units)), from which
//! [`RunCost::region_parallel_wallclock`](delorean_virt::RunCost::region_parallel_wallclock)
//! models wallclock at any worker count.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod checkpoint;
mod config;
mod coolsim;
mod driver;
pub mod metrics;
mod mrrl;
mod proxy;
mod report;
mod scheduler;
mod smarts;
mod strategy;

pub use checkpoint::{CheckpointExtras, CheckpointSet, CheckpointWarmingRunner};
pub use config::{Region, RegionPlan, SamplingConfig};
pub use coolsim::{CoolSimConfig, CoolSimRunner};
pub use driver::{reduce_region_units, RegionUnit};
pub use mrrl::MrrlRunner;
pub use proxy::{ProxyStateSource, SpeculationExtras};
pub use report::{RegionReport, SimulationReport};
pub use scheduler::{LostUnits, RegionScheduler, Slots, SpecForm};
pub use smarts::SmartsRunner;
pub use strategy::{PartialReport, SamplingStrategy, StrategyReport};

// Fault-isolation vocabulary, re-exported so harness code can configure
// retry budgets and inspect quarantines without a direct trace-crate
// dependency.
pub use delorean_trace::fault::{FaultPolicy, UnitFailure, UnitFault};

use delorean_cpu::{
    simulate_detailed, DetailedResult, OutcomeSource, TimingConfig, TournamentPredictor,
};
use delorean_trace::Workload;

/// Run one region's detailed warming + detailed simulation with a fresh
/// pipeline (predictor) and an arbitrary outcome source.
///
/// This is the shared tail of every strategy: 30 k instructions of
/// detailed warm-up (which builds the *lukewarm* cache state inside
/// `source`) followed by the measured detailed region.
pub fn run_region_detailed(
    workload: &dyn Workload,
    region: &Region,
    timing: &TimingConfig,
    source: &mut dyn OutcomeSource,
) -> DetailedResult {
    let mut predictor = TournamentPredictor::new();
    let _warm = simulate_detailed(
        workload,
        region.warming.clone(),
        timing,
        &mut predictor,
        source,
    );
    simulate_detailed(
        workload,
        region.detailed.clone(),
        timing,
        &mut predictor,
        source,
    )
}
