//! Outside-in tracing wrappers: a [`SamplingStrategy`] wrapper that
//! opens one span per matrix cell, and a [`Workload`] wrapper, handed
//! to the wrapped strategy in place of the cell's input, that times
//! every `AccessCursor::fill` and counts every `access_at`.
//!
//! Both forward every trait method unchanged, so a traced cell's report
//! is bitwise identical to an untraced one (the benchmark checks it).

use crate::probe;
use crate::spans::Recorder;
use delorean_sampling::{
    FaultPolicy, PartialReport, RegionPlan, RegionUnit, SamplingStrategy, StrategyReport,
};
use delorean_trace::{AccessCursor, BranchModel, MemAccess, Workload};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Individual fill spans kept per cell; fills beyond this still count
/// in the cell's totals (a demo-scale SMARTS cell makes ~10^5 fills).
const FILL_SPANS_PER_CELL: u64 = 256;

/// What one traced cell did.
#[derive(Clone, Debug)]
pub struct CellRecord {
    /// Strategy column label (`smarts`, `smarts_spec`, ...).
    pub label: String,
    /// Cell wall seconds.
    pub cell_s: f64,
    /// Seconds spent inside `AccessCursor::fill`.
    pub fill_s: f64,
    /// Accesses produced by fills.
    pub accesses: u64,
    /// `access_at` calls.
    pub access_at_calls: u64,
}

/// Shared state of a traced sweep.
#[derive(Debug)]
pub struct Tracer {
    /// The span recorder.
    pub rec: Arc<Recorder>,
    /// Parent span of every cell (the sweep span).
    pub parent: Option<u64>,
    cells: Mutex<Vec<CellRecord>>,
}

impl Tracer {
    /// A tracer whose cell spans hang under `parent`.
    pub fn new(rec: Arc<Recorder>, parent: Option<u64>) -> Arc<Tracer> {
        Arc::new(Tracer {
            rec,
            parent,
            cells: Mutex::new(Vec::new()),
        })
    }

    /// Every finished cell, in completion order.
    pub fn cells(&self) -> Vec<CellRecord> {
        self.cells
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// A strategy wrapper: one cell span per run call.
pub struct TracedStrategy {
    inner: Box<dyn SamplingStrategy>,
    label: String,
    tracer: Arc<Tracer>,
}

impl TracedStrategy {
    /// Wrap `inner`, reporting its cells under column `label`.
    pub fn wrap(
        inner: Box<dyn SamplingStrategy>,
        label: &str,
        tracer: &Arc<Tracer>,
    ) -> Box<dyn SamplingStrategy> {
        Box::new(TracedStrategy {
            inner,
            label: label.to_string(),
            tracer: Arc::clone(tracer),
        })
    }

    fn cell<R>(&self, workload: &dyn Workload, body: impl FnOnce(&dyn Workload) -> R) -> R {
        let rec = &self.tracer.rec;
        let span = rec.next_id();
        let counted = CellWorkload {
            inner: workload,
            rec: Arc::clone(rec),
            span,
            fill_ns: AtomicU64::new(0),
            fills: AtomicU64::new(0),
            accesses: AtomicU64::new(0),
            access_at: AtomicU64::new(0),
        };
        let t0 = probe::now();
        let out = body(&counted);
        let t1 = probe::now();
        let fill_s = counted.fill_ns.load(Ordering::Relaxed) as f64 * 1e-9;
        let accesses = counted.accesses.load(Ordering::Relaxed);
        let access_at_calls = counted.access_at.load(Ordering::Relaxed);
        rec.push(
            span,
            self.tracer.parent,
            "cell",
            format!("{} {}", self.label, workload.name()),
            t0,
            t1,
            vec![
                ("fill_s", fill_s),
                ("fills", counted.fills.load(Ordering::Relaxed) as f64),
                ("accesses", accesses as f64),
                ("access_at_calls", access_at_calls as f64),
            ],
        );
        self.tracer
            .cells
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(CellRecord {
                label: self.label.clone(),
                cell_s: (t1 - t0).as_secs_f64(),
                fill_s,
                accesses,
                access_at_calls,
            });
        out
    }
}

impl SamplingStrategy for TracedStrategy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn run(&self, workload: &dyn Workload, plan: &RegionPlan) -> StrategyReport {
        self.cell(workload, |w| self.inner.run(w, plan))
    }

    fn run_with_workers(
        &self,
        workload: &dyn Workload,
        plan: &RegionPlan,
        workers: usize,
    ) -> StrategyReport {
        self.cell(workload, |w| self.inner.run_with_workers(w, plan, workers))
    }

    fn run_isolated(
        &self,
        workload: &dyn Workload,
        plan: &RegionPlan,
        workers: usize,
        policy: &FaultPolicy,
    ) -> PartialReport {
        self.cell(workload, |w| {
            self.inner.run_isolated(w, plan, workers, policy)
        })
    }

    fn run_unit_span(
        &self,
        workload: &dyn Workload,
        plan: &RegionPlan,
        span: Range<u32>,
    ) -> Option<Vec<RegionUnit>> {
        self.inner.run_unit_span(workload, plan, span)
    }

    fn internal_parallelism(&self) -> usize {
        self.inner.internal_parallelism()
    }
}

/// The per-cell input wrapper.
struct CellWorkload<'w> {
    inner: &'w dyn Workload,
    rec: Arc<Recorder>,
    span: u64,
    fill_ns: AtomicU64,
    fills: AtomicU64,
    accesses: AtomicU64,
    access_at: AtomicU64,
}

impl Workload for CellWorkload<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn mem_period(&self) -> u64 {
        self.inner.mem_period()
    }

    fn access_at(&self, k: u64) -> MemAccess {
        self.access_at.fetch_add(1, Ordering::Relaxed);
        self.inner.access_at(k)
    }

    fn branch_model(&self) -> BranchModel {
        self.inner.branch_model()
    }

    fn accesses_in_instrs(&self, instrs: u64) -> u64 {
        self.inner.accesses_in_instrs(instrs)
    }

    fn access_index_at_instr(&self, instr: u64) -> u64 {
        self.inner.access_index_at_instr(instr)
    }

    fn instr_of_access(&self, k: u64) -> u64 {
        self.inner.instr_of_access(k)
    }

    fn cursor<'a>(&'a self, range: Range<u64>) -> Box<dyn AccessCursor + 'a> {
        Box::new(TimedCursor {
            inner: self.inner.cursor(range),
            cell: self,
        })
    }
}

/// Times each `fill` of the wrapped cursor.
struct TimedCursor<'a> {
    inner: Box<dyn AccessCursor + 'a>,
    cell: &'a CellWorkload<'a>,
}

impl AccessCursor for TimedCursor<'_> {
    fn position(&self) -> u64 {
        self.inner.position()
    }

    fn end(&self) -> u64 {
        self.inner.end()
    }

    fn fill(&mut self, out: &mut Vec<MemAccess>, max: usize) -> usize {
        let t0 = probe::now();
        let n = self.inner.fill(out, max);
        let t1 = probe::now();
        let cell = self.cell;
        let nth = cell.fills.fetch_add(1, Ordering::Relaxed);
        cell.fill_ns
            .fetch_add((t1 - t0).as_nanos() as u64, Ordering::Relaxed);
        cell.accesses.fetch_add(n as u64, Ordering::Relaxed);
        if nth < FILL_SPANS_PER_CELL {
            cell.rec
                .record(Some(cell.span), "fill", "fill".to_string(), t0, t1);
        }
        n
    }

    fn remaining(&self) -> u64 {
        self.inner.remaining()
    }
}
