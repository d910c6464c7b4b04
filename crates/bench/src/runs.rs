//! The parallel strategy-execution layer of the experiment harness.
//!
//! [`BatchExecutor`] fans a `&[Box<dyn SamplingStrategy>]` × workload
//! matrix out across worker threads: every (strategy, workload) cell is
//! an independent, deterministic region evaluation, so cells execute in
//! any order and results are collected back in input order — output is
//! byte-identical for any worker count (asserted by
//! `tests/strategy_layer.rs`). All experiment drivers and the
//! `run_all`/figure binaries funnel through this one code path.

use crate::journal::{decode_cell, encode_cell, sweep_tag, CELL_ENTRY_KIND};
use crate::options::ExpOptions;
use delorean_cache::MachineConfig;
use delorean_core::{DeLoreanConfig, DeLoreanOutput, DeLoreanRunner};
use delorean_sampling::{
    CoolSimConfig, CoolSimRunner, FaultPolicy, RegionPlan, SamplingConfig, SamplingStrategy,
    SimulationReport, SmartsRunner, StrategyReport, UnitFailure,
};
use delorean_trace::fault::{self, FaultSite};
use delorean_trace::{spec2006, JournalError, JournalWriter, Scale, Workload};
use rayon::prelude::*;
use rayon::ThreadPoolBuilder;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Executes (strategy × workload) batches on a worker pool.
///
/// The default executor runs one cell per core. Cells and the region
/// workers inside them share the rayon shim's process-wide
/// [`budget`](rayon::budget) of helper threads: a cell that fans its
/// regions out gets only the helpers idle at that moment, and none
/// while every core already runs a cell, so nesting never
/// oversubscribes the host; a nested call that starts after other cells
/// finish gets the cores they freed. [`with_threads`] bounds the cell
/// pool explicitly (1 = serial reference execution, used by the
/// determinism tests), and [`with_region_workers`] overrides every
/// cell's region-worker count via
/// [`SamplingStrategy::run_with_workers`]. Both knobs are pure
/// scheduling — results are byte-identical whatever the composition.
///
/// [`with_threads`]: BatchExecutor::with_threads
/// [`with_region_workers`]: BatchExecutor::with_region_workers
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchExecutor {
    threads: Option<usize>,
    region_workers: Option<usize>,
}

impl BatchExecutor {
    /// An executor using the machine's full parallelism.
    pub fn new() -> Self {
        Self::default()
    }

    /// An executor bounded to `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        BatchExecutor {
            threads: Some(threads.max(1)),
            region_workers: None,
        }
    }

    /// Run every cell's region units on up to `workers` region-scheduler
    /// workers, overriding each strategy's own configuration. The cell
    /// pool keeps its size; region workers come out of the shared
    /// budget.
    pub fn with_region_workers(mut self, workers: usize) -> Self {
        self.region_workers = Some(workers.max(1));
        self
    }

    /// Run every strategy over every workload; `result[w][s]` is strategy
    /// `s` on workload `w`. Cells run in parallel; the result layout is
    /// input-ordered and independent of the worker count.
    pub fn run_matrix<W: Workload>(
        &self,
        strategies: &[Box<dyn SamplingStrategy>],
        workloads: &[W],
        plan: &RegionPlan,
    ) -> Vec<Vec<StrategyReport>> {
        let jobs: Vec<(&dyn SamplingStrategy, &W)> = workloads
            .iter()
            .flat_map(|w| strategies.iter().map(move |s| (s.as_ref(), w)))
            .collect();
        let mut cells = self.run_cells(jobs, plan).into_iter();
        workloads
            .iter()
            .map(|_| cells.by_ref().take(strategies.len()).collect())
            .collect()
    }

    /// Run one strategy over every workload, in parallel.
    pub fn run_strategy_over<W: Workload>(
        &self,
        strategy: &dyn SamplingStrategy,
        workloads: &[W],
        plan: &RegionPlan,
    ) -> Vec<StrategyReport> {
        self.run_cells(workloads.iter().map(|w| (strategy, w)).collect(), plan)
    }

    /// Run every strategy on one workload, in parallel.
    pub fn run_strategies<W: Workload>(
        &self,
        strategies: &[Box<dyn SamplingStrategy>],
        workload: &W,
        plan: &RegionPlan,
    ) -> Vec<StrategyReport> {
        self.run_cells(
            strategies.iter().map(|s| (s.as_ref(), workload)).collect(),
            plan,
        )
    }

    /// Run every strategy over every workload with **per-cell panic
    /// isolation**: each cell is guarded, retried within `policy`'s
    /// budget, and quarantined (a `None` slot plus a typed failure) on
    /// exhaustion — a faulting cell never takes the sweep down with it.
    /// On a clean run every slot is `Some` and each report is bitwise
    /// identical to [`run_matrix`](BatchExecutor::run_matrix)'s.
    pub fn run_matrix_isolated<W: Workload>(
        &self,
        strategies: &[Box<dyn SamplingStrategy>],
        workloads: &[W],
        plan: &RegionPlan,
        policy: &FaultPolicy,
    ) -> MatrixRun {
        // lint:allow(no-unwrap): None journal path cannot produce a journal error
        self.run_matrix_durable(strategies, workloads, plan, policy, None)
            .expect("isolated run without a journal cannot fail to open one")
    }

    /// Like [`run_matrix_isolated`](BatchExecutor::run_matrix_isolated),
    /// with a **durable journal**: each completed cell's reduced report
    /// is appended (checksummed) to `journal` the moment it finishes, so
    /// a killed sweep loses at most the cells in flight. If `journal`
    /// already exists it is *resumed*: its valid prefix (torn tails are
    /// truncated) restores completed cells verbatim and only missing
    /// cells execute, so a resumed sweep's matrix is `==` an
    /// uninterrupted one's. The journal is bound to the sweep's
    /// configuration by tag ([`sweep_tag`](crate::journal::sweep_tag));
    /// resuming with a different strategy set, workload list or plan is
    /// a hard [`JournalError::TagMismatch`].
    ///
    /// Journaled cells carry no strategy extras — only the
    /// [`SimulationReport`] is durable.
    pub fn run_matrix_journaled<W: Workload>(
        &self,
        strategies: &[Box<dyn SamplingStrategy>],
        workloads: &[W],
        plan: &RegionPlan,
        policy: &FaultPolicy,
        journal: &Path,
    ) -> Result<MatrixRun, JournalError> {
        self.run_matrix_durable(strategies, workloads, plan, policy, Some(journal))
    }

    /// The shared isolated/durable matrix engine.
    fn run_matrix_durable<W: Workload>(
        &self,
        strategies: &[Box<dyn SamplingStrategy>],
        workloads: &[W],
        plan: &RegionPlan,
        policy: &FaultPolicy,
        journal: Option<&Path>,
    ) -> Result<MatrixRun, JournalError> {
        // Flat cell list, workload-major: cell = w * strategies + s.
        let jobs: Vec<(&dyn SamplingStrategy, &W)> = workloads
            .iter()
            .flat_map(|w| strategies.iter().map(move |s| (s.as_ref(), w)))
            .collect();

        // Restore journaled cells (resume) or start a fresh journal.
        let mut restored: Vec<Option<SimulationReport>> = (0..jobs.len()).map(|_| None).collect();
        let writer = match journal {
            Some(path) => {
                let names: Vec<&str> = workloads.iter().map(|w| w.name()).collect();
                let tag = sweep_tag(strategies, &names, plan);
                let writer = if path.exists() {
                    let (writer, prefix) = JournalWriter::resume(path, tag)?;
                    for entry in prefix {
                        if entry.kind != CELL_ENTRY_KIND {
                            continue;
                        }
                        if let Some((cell, report)) = decode_cell(&entry.payload) {
                            if let Some(slot) = restored.get_mut(cell as usize) {
                                *slot = Some(report);
                            }
                        }
                    }
                    writer
                } else {
                    JournalWriter::create(path, tag)?
                };
                Some(Mutex::new(writer))
            }
            None => None,
        };
        let resumed_cells = restored.iter().filter(|r| r.is_some()).count();

        // Execute the missing cells, each as one guarded, retryable
        // fault unit; append to the journal the moment a cell completes
        // (completion order is racy, but entries are keyed by cell
        // index, so the resume assembly below is order-independent).
        let pending: Vec<(u32, &dyn SamplingStrategy, &W)> = jobs
            .iter()
            .enumerate()
            .filter(|&(cell, _)| restored[cell].is_none())
            .map(|(cell, &(s, w))| (cell as u32, s, w))
            .collect();
        let executed_cells = pending.len();
        let region_workers = self.region_workers;
        let journal_faults = AtomicUsize::new(0);
        let executed: Vec<(u32, Result<StrategyReport, UnitFailure>)> = self.pool().install(|| {
            pending
                .par_iter()
                .map(|&(cell, strategy, workload)| {
                    let result = fault::run_unit_guarded(cell, policy, || {
                        fault::hit(FaultSite::UnitEntry, u64::from(cell));
                        match region_workers {
                            Some(n) => strategy.run_with_workers(workload, plan, n),
                            None => strategy.run(workload, plan),
                        }
                    });
                    if let (Some(writer), Ok(report)) = (writer.as_ref(), result.as_ref()) {
                        // A failed append must never unwind through
                        // the run it records: the cell's result
                        // stays in memory, it is just not durable.
                        let payload = encode_cell(cell, &report.report);
                        let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);
                        if w.append(CELL_ENTRY_KIND, &payload).is_err() {
                            journal_faults.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    (cell, result)
                })
                .collect()
        });

        // Assemble in cell order: journaled cells verbatim (no extras),
        // executed cells with their extras, quarantined cells as None.
        let mut slots: Vec<Option<StrategyReport>> = restored
            .into_iter()
            .map(|r| r.map(StrategyReport::new))
            .collect();
        let mut quarantined = Vec::new();
        for (cell, result) in executed {
            match result {
                Ok(report) => slots[cell as usize] = Some(report),
                Err(failure) => quarantined.push(failure),
            }
        }
        let mut rows = Vec::with_capacity(workloads.len());
        let mut it = slots.into_iter();
        for _ in workloads {
            rows.push(it.by_ref().take(strategies.len()).collect());
        }
        Ok(MatrixRun {
            matrix: rows,
            quarantined,
            resumed_cells,
            executed_cells,
            journal_faults: journal_faults.into_inner(),
        })
    }

    /// Evaluate a flat list of (strategy, workload) cells on the pool.
    fn run_cells<W: Workload>(
        &self,
        jobs: Vec<(&dyn SamplingStrategy, &W)>,
        plan: &RegionPlan,
    ) -> Vec<StrategyReport> {
        let region_workers = self.region_workers;
        self.pool().install(|| {
            jobs.par_iter()
                .map(|&(strategy, workload)| match region_workers {
                    Some(n) => strategy.run_with_workers(workload, plan, n),
                    None => strategy.run(workload, plan),
                })
                .collect()
        })
    }

    /// The cell pool: `with_threads`' bound, else the host (`0`).
    fn pool(&self) -> rayon::ThreadPool {
        ThreadPoolBuilder::new()
            .num_threads(self.threads.unwrap_or(0))
            .build()
            .expect("worker pool")
    }
}

/// The outcome of a fault-isolated (optionally journaled) matrix run.
///
/// `matrix[w][s]` mirrors [`BatchExecutor::run_matrix`]'s layout with
/// `None` marking quarantined cells. The counters distinguish where
/// results came from: `resumed_cells` were restored verbatim from the
/// journal, `executed_cells` ran this time.
#[derive(Debug)]
pub struct MatrixRun {
    /// Workload-major cell results; `None` where the cell exhausted its
    /// retry budget.
    pub matrix: Vec<Vec<Option<StrategyReport>>>,
    /// Typed failures of quarantined cells, in cell order (the failure's
    /// `unit` is the flat cell index `w * strategies + s`).
    pub quarantined: Vec<UnitFailure>,
    /// Cells restored from the journal's valid prefix.
    pub resumed_cells: usize,
    /// Cells executed (not restored) in this run.
    pub executed_cells: usize,
    /// Journal appends that failed (the cell result is in memory but
    /// not durable); 0 outside fault-injection harnesses.
    pub journal_faults: usize,
}

impl MatrixRun {
    /// Whether every cell completed.
    pub fn is_complete(&self) -> bool {
        self.quarantined.is_empty()
    }

    /// The plain reports, if the run is complete.
    pub fn into_reports(self) -> Option<Vec<Vec<SimulationReport>>> {
        self.matrix
            .into_iter()
            .map(|row| row.into_iter().map(|c| Some(c?.into_report())).collect())
            .collect()
    }
}

/// Results of the three headline strategies on one workload.
#[derive(Clone, Debug)]
pub struct StrategyOutputs {
    /// SMARTS (functional warming) — the reference.
    pub smarts: SimulationReport,
    /// CoolSim (randomized statistical warming).
    pub coolsim: SimulationReport,
    /// DeLorean (directed statistical warming + time traveling).
    pub delorean: DeLoreanOutput,
}

/// One benchmark's comparison entry.
#[derive(Clone, Debug)]
pub struct BenchmarkComparison {
    /// Workload name.
    pub name: String,
    /// Per-strategy results.
    pub outputs: StrategyOutputs,
}

/// The headline strategy set behind Figures 5–10: SMARTS reference,
/// CoolSim baseline, DeLorean — as trait objects for the executor.
pub fn headline_strategies(scale: Scale, machine: MachineConfig) -> Vec<Box<dyn SamplingStrategy>> {
    vec![
        Box::new(SmartsRunner::new(machine)),
        Box::new(CoolSimRunner::new(machine, CoolSimConfig::for_scale(scale))),
        Box::new(DeLoreanRunner::new(
            machine,
            DeLoreanConfig::for_scale(scale),
        )),
    ]
}

/// The region plan for a set of options.
pub fn plan_for(opts: &ExpOptions) -> RegionPlan {
    let mut cfg = SamplingConfig::for_scale(opts.scale);
    if let Some(r) = opts.regions {
        cfg = cfg.with_regions(r);
    }
    cfg.plan()
}

/// Group one workload's headline-strategy reports (executor order) into
/// named outputs. Each cell's self-reported strategy name is checked so
/// a reorder of [`headline_strategies`] fails loudly instead of
/// silently swapping the reference and baseline columns.
fn group_outputs(reports: Vec<StrategyReport>) -> StrategyOutputs {
    let mut it = reports.into_iter();
    let mut named = |expected: &str| {
        let report = it.next().expect("headline cell");
        assert_eq!(
            report.strategy, expected,
            "headline_strategies order changed without updating group_outputs"
        );
        report
    };
    let smarts = named("smarts").into_report();
    let coolsim = named("coolsim").into_report();
    let delorean = named("delorean").try_into().expect("delorean extras");
    StrategyOutputs {
        smarts,
        coolsim,
        delorean,
    }
}

/// Run the three-strategy comparison over the (filtered) suite: the full
/// strategy × workload matrix through the batch executor.
pub fn compare_all(opts: &ExpOptions, llc_paper_bytes: u64) -> Vec<BenchmarkComparison> {
    let plan = plan_for(opts);
    let machine =
        MachineConfig::for_scale(opts.scale).with_llc_paper_bytes(opts.scale, llc_paper_bytes);
    let strategies = headline_strategies(opts.scale, machine);
    let workloads: Vec<_> = spec2006(opts.scale, opts.seed)
        .into_iter()
        .filter(|w| opts.selected(w.name()))
        .collect();
    let matrix = BatchExecutor::new().run_matrix(&strategies, &workloads, &plan);
    workloads
        .iter()
        .zip(matrix)
        .map(|(w, reports)| BenchmarkComparison {
            name: w.name().to_string(),
            outputs: group_outputs(reports),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_comparison_produces_all_strategies() {
        let opts = ExpOptions {
            filter: Some("bwaves".into()),
            ..ExpOptions::tiny()
        };
        let rows = compare_all(&opts, 8 << 20);
        assert_eq!(rows.len(), 1);
        let o = &rows[0].outputs;
        assert!(o.smarts.cpi() > 0.0);
        assert!(o.coolsim.cpi() > 0.0);
        assert!(o.delorean.report.cpi() > 0.0);
    }

    #[test]
    fn filter_selects_subset() {
        let opts = ExpOptions {
            filter: Some("lbm".into()),
            ..ExpOptions::tiny()
        };
        let rows = compare_all(&opts, 8 << 20);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].name, "lbm");
    }

    #[test]
    fn region_workers_compose_without_changing_results() {
        let opts = ExpOptions {
            filter: Some("bwaves".into()),
            ..ExpOptions::tiny()
        };
        let plan = plan_for(&opts);
        let machine = MachineConfig::for_scale(opts.scale);
        let strategies = headline_strategies(opts.scale, machine);
        let workloads: Vec<_> = spec2006(opts.scale, opts.seed)
            .into_iter()
            .filter(|w| opts.selected(w.name()))
            .collect();
        let reference = BatchExecutor::with_threads(1).run_matrix(&strategies, &workloads, &plan);
        for (threads, region_workers) in [(1, 4), (2, 2), (4, 1)] {
            let composed = BatchExecutor::with_threads(threads)
                .with_region_workers(region_workers)
                .run_matrix(&strategies, &workloads, &plan);
            for (rrow, crow) in reference.iter().zip(&composed) {
                for (r, c) in rrow.iter().zip(crow) {
                    assert_eq!(
                        r.report, c.report,
                        "{}×{} changed {}/{}",
                        threads, region_workers, r.workload, r.strategy
                    );
                }
            }
        }
    }

    #[test]
    fn matrix_layout_is_workload_major() {
        let opts = ExpOptions {
            filter: Some("m".into()), // several workloads contain an 'm'
            ..ExpOptions::tiny()
        };
        let plan = plan_for(&opts);
        let machine = MachineConfig::for_scale(opts.scale);
        let strategies = headline_strategies(opts.scale, machine);
        let workloads: Vec<_> = spec2006(opts.scale, opts.seed)
            .into_iter()
            .filter(|w| opts.selected(w.name()))
            .take(2)
            .collect();
        let matrix = BatchExecutor::new().run_matrix(&strategies, &workloads, &plan);
        assert_eq!(matrix.len(), workloads.len());
        for (w, row) in workloads.iter().zip(&matrix) {
            assert_eq!(row.len(), strategies.len());
            for (s, cell) in strategies.iter().zip(row) {
                assert_eq!(cell.workload, w.name());
                assert_eq!(cell.strategy, s.name());
            }
        }
    }

    /// Counts probe bodies in flight across every thread of a run and
    /// keeps the high-water mark.
    #[derive(Default)]
    struct InFlight {
        now: AtomicUsize,
        high: AtomicUsize,
    }

    impl InFlight {
        fn leaf(&self) -> u64 {
            let now = self.now.fetch_add(1, Ordering::SeqCst) + 1;
            self.high.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(300));
            self.now.fetch_sub(1, Ordering::SeqCst);
            1
        }
    }

    /// A strategy whose cell first runs every nested parallel shape —
    /// scheduler units, seeded and speculative lanes at 4 workers each,
    /// and a `par_iter` inside a `par_iter` — then the wrapped one.
    struct NestedProbe {
        inner: Box<dyn SamplingStrategy>,
        in_flight: std::sync::Arc<InFlight>,
    }

    impl SamplingStrategy for NestedProbe {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn run_with_workers(
            &self,
            workload: &dyn Workload,
            plan: &RegionPlan,
            workers: usize,
        ) -> StrategyReport {
            let probe = &*self.in_flight;
            let regions = &plan.regions;
            let sched = delorean_sampling::RegionScheduler::new(4);
            let leaves = |(slots, _): delorean_sampling::Slots<u64>| slots.into_iter().flatten();
            let units = leaves(sched.run_units(regions, None, |_, _| probe.leaf()));
            let seeded = leaves(sched.run_seeded(
                regions,
                None,
                |_, _| probe.leaf(),
                |_, _, s| s + probe.leaf(),
            ));
            let spec = leaves(sched.run_speculative(
                regions,
                None,
                |_, _, _| probe.leaf(),
                |_, _, s| s.unwrap_or(0) + probe.leaf(),
            ));
            let nested: Vec<u64> = regions
                .par_iter()
                .map(|_| {
                    let leaves: Vec<u64> = regions.par_iter().map(|_| probe.leaf()).collect();
                    leaves.iter().sum()
                })
                .collect();
            let n = regions.len() as u64;
            assert_eq!(units.sum::<u64>(), n);
            assert_eq!(seeded.sum::<u64>(), 2 * n);
            assert_eq!(spec.sum::<u64>(), 2 * n);
            assert_eq!(nested.iter().sum::<u64>(), n * n);
            self.inner.run_with_workers(workload, plan, workers)
        }
    }

    #[test]
    fn nested_parallelism_never_oversubscribes_the_host() {
        let opts = ExpOptions {
            regions: Some(6),
            ..ExpOptions::tiny()
        };
        let plan = plan_for(&opts);
        let machine = MachineConfig::for_scale(opts.scale);
        let in_flight = std::sync::Arc::new(InFlight::default());
        let strategies: Vec<Box<dyn SamplingStrategy>> = headline_strategies(opts.scale, machine)
            .into_iter()
            .map(|inner| {
                Box::new(NestedProbe {
                    inner,
                    in_flight: in_flight.clone(),
                }) as Box<dyn SamplingStrategy>
            })
            .collect();
        let workloads: Vec<_> = spec2006(opts.scale, opts.seed)
            .into_iter()
            .take(2)
            .collect();
        let matrix = BatchExecutor::new().run_matrix(&strategies, &workloads, &plan);
        assert_eq!(matrix.len(), 2);
        let host = rayon::current_num_threads();
        let high = in_flight.high.load(Ordering::SeqCst);
        assert!(
            (1..=host).contains(&high),
            "{high} probe bodies in flight on a {host}-thread host"
        );
    }
}
