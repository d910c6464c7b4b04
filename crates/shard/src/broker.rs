//! The shard broker: leases sweep cells to attached workers and
//! reduces their results into a [`MatrixRun`].
//!
//! One scheduler thread owns all state; per-worker reader threads only
//! forward decoded frames (or a hang-up) into its event channel, so
//! there is no shared mutable state to lock. The scheduler wakes on
//! events or on a fixed tick ([`BrokerConfig::lease_tick`]) to age
//! outstanding leases — deadlines are counted in ticks, never read
//! from a wall clock, so the broker obeys the workspace's no-wallclock
//! discipline.
//!
//! # Determinism
//!
//! Scheduling is never semantics. Whatever the worker count, kill
//! pattern, or delivery order:
//!
//! * results land in **cell-indexed slots** and are assembled in plan
//!   order, exactly like the in-process executor;
//! * duplicate deliveries dedup on the slot (first result wins; both
//!   are bitwise identical anyway, being pure functions of the cell);
//! * failure retries are counted **per cell** (`attempt` rides the
//!   lease so worker-side injected faults are pure in
//!   `(cell, attempt)`), making the quarantined set independent of
//!   scheduling;
//! * worker deaths and lease expiries are *lease losses*, tracked
//!   separately from failures — a lost lease re-leases at the same
//!   attempt number and cannot perturb the quarantine decision.
//!
//! Completed cells are journaled verbatim
//! ([`delorean_bench::journal::encode_cell`] bytes under the same tag
//! the in-process executor uses), so broker restarts resume from the
//! journal's valid prefix — in either direction between a shard run
//! and [`run_matrix_journaled`](delorean_bench::BatchExecutor::run_matrix_journaled).

use crate::codec::decode_units;
use crate::spec::strategy_decomposes;
use crate::wire::{self, Message, WireError, WireFault, WIRE_VERSION};
use crate::{ShardError, SweepSpec};
use delorean_bench::journal::{decode_cell, encode_cell, CELL_ENTRY_KIND};
use delorean_bench::MatrixRun;
use delorean_sampling::{
    reduce_region_units, FaultPolicy, RegionPlan, RegionUnit, StrategyReport, UnitFailure,
    UnitFault,
};
use delorean_trace::JournalWriter;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

/// Broker tuning knobs.
#[derive(Copy, Clone, Debug)]
pub struct BrokerConfig {
    /// Per-cell deterministic-failure retry discipline: a cell whose
    /// attempts reach [`FaultPolicy::max_attempts`] is quarantined.
    pub policy: FaultPolicy,
    /// Lease re-issues a cell survives from worker deaths or expiries
    /// before being quarantined as timed out. Losses are scheduling,
    /// not determinism, so this budget is generous by default.
    pub lease_loss_budget: u32,
    /// Scheduler wake-up period for lease aging.
    pub lease_tick: Duration,
    /// Ticks an outstanding lease lives before expiring.
    pub lease_ticks: u32,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            policy: FaultPolicy::default(),
            lease_loss_budget: 16,
            lease_tick: Duration::from_millis(250),
            lease_ticks: 240,
        }
    }
}

/// One job submission: the sweep, plus durability and halting knobs.
#[derive(Clone, Debug)]
pub struct JobRequest {
    /// The sweep to run.
    pub spec: SweepSpec,
    /// Journal path: created fresh, or **resumed** if the file exists
    /// (its valid prefix restores completed cells verbatim).
    pub journal: Option<PathBuf>,
    /// Halt after this many newly-executed cell completions — the
    /// broker stops leasing, drains in-flight work, and returns a
    /// partial [`ShardRun`] with [`halted`](ShardRun::halted) set.
    /// Together with `journal`, this simulates a broker kill: a fresh
    /// broker resuming the same journal finishes the sweep.
    pub cell_budget: Option<usize>,
}

impl JobRequest {
    /// A plain run-to-completion request.
    pub fn new(spec: SweepSpec) -> JobRequest {
        JobRequest {
            spec,
            journal: None,
            cell_budget: None,
        }
    }

    /// Journal completed cells to (or resume from) `path`.
    pub fn with_journal(mut self, path: PathBuf) -> JobRequest {
        self.journal = Some(path);
        self
    }

    /// Halt after `n` newly-executed completions.
    pub fn with_cell_budget(mut self, n: usize) -> JobRequest {
        self.cell_budget = Some(n);
        self
    }
}

/// The outcome of one shard job.
#[derive(Debug)]
pub struct ShardRun {
    /// The matrix, bit-compatible with the in-process executor's
    /// [`MatrixRun`] (quarantined cells are `None` slots with typed
    /// failures in cell order).
    pub run: MatrixRun,
    /// `true` if a [`cell_budget`](JobRequest::cell_budget) halted the
    /// job before completion.
    pub halted: bool,
    /// Leases lost to worker deaths or deadline expiries (scheduling
    /// noise — never affects result bytes or the quarantined set).
    pub lease_losses: usize,
}

/// Handle to a submitted job.
#[derive(Debug)]
pub struct JobTicket {
    rx: Receiver<Result<ShardRun, ShardError>>,
}

impl JobTicket {
    /// Block until the job finishes (or the broker shuts down).
    pub fn wait(self) -> Result<ShardRun, ShardError> {
        match self.rx.recv() {
            Ok(outcome) => outcome,
            Err(_) => Err(ShardError::BrokerClosed),
        }
    }
}

/// The shard broker: accepts jobs from any number of clients, leases
/// cells to attached workers, reduces plan-ordered matrices.
#[derive(Debug)]
pub struct Broker {
    tx: Sender<Event>,
    thread: Option<JoinHandle<()>>,
}

impl Broker {
    /// Start a broker with its scheduler thread.
    pub fn new(config: BrokerConfig) -> Broker {
        let (tx, rx) = channel();
        let scheduler_tx = tx.clone();
        let thread = std::thread::spawn(move || Scheduler::new(config, scheduler_tx, rx).run());
        Broker {
            tx,
            thread: Some(thread),
        }
    }

    /// Attach a worker over a byte-stream transport (child stdio, a
    /// Unix socket, an in-process pipe pair).
    pub fn attach(&self, read: impl Read + Send + 'static, write: impl Write + Send + 'static) {
        let _ = self.tx.send(Event::Attach(Box::new(read), Box::new(write)));
    }

    /// Submit a job; returns immediately with a ticket. Any number of
    /// clients may submit concurrently — jobs share the worker pool.
    pub fn submit(&self, request: JobRequest) -> JobTicket {
        let (reply, rx) = channel();
        let _ = self.tx.send(Event::Submit(Box::new(request), reply));
        JobTicket { rx }
    }

    /// Submit and wait: the shard-side equivalent of
    /// [`BatchExecutor::run_matrix`](delorean_bench::BatchExecutor::run_matrix).
    pub fn run_matrix(&self, spec: SweepSpec) -> Result<ShardRun, ShardError> {
        self.submit(JobRequest::new(spec)).wait()
    }

    /// Shut down: workers get a `Shutdown` frame, unfinished tickets
    /// resolve to [`ShardError::BrokerClosed`].
    pub fn shutdown(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        let _ = self.tx.send(Event::Shutdown);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Broker {
    fn drop(&mut self) {
        self.finish();
    }
}

enum Event {
    Attach(Box<dyn Read + Send>, Box<dyn Write + Send>),
    Submit(Box<JobRequest>, Sender<Result<ShardRun, ShardError>>),
    FromWorker(usize, Message),
    WorkerGone(usize),
    Shutdown,
}

/// A leased work item: a whole cell, or one region-span part of a
/// decomposed cell.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct WorkItem {
    cell: u32,
    part: Option<u32>,
}

struct LeaseSlot {
    job: u32,
    item: WorkItem,
}

struct WorkerSlot {
    writer: Option<Box<dyn Write + Send>>,
    announced: Vec<u32>,
    lease: Option<LeaseSlot>,
    ticks_left: u32,
}

struct SpanParts {
    bounds: Vec<(u32, u32)>,
    units: Vec<Option<Vec<RegionUnit>>>,
}

struct CellState {
    fail_attempts: u32,
    lease_losses: u32,
    quarantined: Option<UnitFailure>,
    parts: Option<SpanParts>,
}

struct JobState {
    spec: SweepSpec,
    spec_bytes: Vec<u8>,
    plan: RegionPlan,
    slots: Vec<Option<StrategyReport>>,
    cells: Vec<CellState>,
    pending: VecDeque<WorkItem>,
    outstanding: usize,
    journal: Option<JournalWriter>,
    journal_faults: usize,
    resumed_cells: usize,
    executed_cells: usize,
    completions: usize,
    budget: Option<usize>,
    halted: bool,
    lease_losses: usize,
    reply: Option<Sender<Result<ShardRun, ShardError>>>,
}

struct Scheduler {
    config: BrokerConfig,
    tx: Sender<Event>,
    rx: Receiver<Event>,
    workers: Vec<WorkerSlot>,
    jobs: Vec<JobState>,
}

impl Scheduler {
    fn new(config: BrokerConfig, tx: Sender<Event>, rx: Receiver<Event>) -> Scheduler {
        Scheduler {
            config,
            tx,
            rx,
            workers: Vec::new(),
            jobs: Vec::new(),
        }
    }

    fn run(mut self) {
        loop {
            match self.rx.recv_timeout(self.config.lease_tick) {
                Ok(Event::Shutdown) | Err(RecvTimeoutError::Disconnected) => break,
                Ok(event) => self.handle(event),
                Err(RecvTimeoutError::Timeout) => self.tick(),
            }
            self.dispatch();
        }
        for slot in &mut self.workers {
            if let Some(mut writer) = slot.writer.take() {
                let _ = wire::send(&mut *writer, &Message::Shutdown);
            }
        }
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::Attach(read, write) => self.attach(read, write),
            Event::Submit(request, reply) => self.submit(*request, reply),
            Event::FromWorker(idx, msg) => self.worker_message(idx, msg),
            Event::WorkerGone(idx) => self.worker_gone(idx),
            Event::Shutdown => {}
        }
    }

    fn attach(&mut self, read: Box<dyn Read + Send>, write: Box<dyn Write + Send>) {
        let idx = self.workers.len();
        self.workers.push(WorkerSlot {
            writer: Some(write),
            announced: Vec::new(),
            lease: None,
            ticks_left: 0,
        });
        let tx = self.tx.clone();
        std::thread::spawn(move || read_loop(idx, read, tx));
    }

    fn submit(&mut self, request: JobRequest, reply: Sender<Result<ShardRun, ShardError>>) {
        let spec = request.spec;
        if let Err(e) = spec.validate() {
            let _ = reply.send(Err(e));
            return;
        }
        let plan = spec.plan();
        let n_cells = spec.n_cells();
        let mut slots: Vec<Option<StrategyReport>> = (0..n_cells).map(|_| None).collect();
        let mut resumed_cells = 0usize;
        let journal = match request.journal {
            Some(path) => {
                let tag = spec.tag(&plan);
                let opened = if path.exists() {
                    JournalWriter::resume(&path, tag).map(|(writer, prefix)| {
                        for entry in prefix {
                            if entry.kind != CELL_ENTRY_KIND {
                                continue;
                            }
                            if let Some((cell, report)) = decode_cell(&entry.payload) {
                                if let Some(slot) = slots.get_mut(cell as usize) {
                                    if slot.is_none() {
                                        resumed_cells += 1;
                                    }
                                    *slot = Some(StrategyReport::new(report));
                                }
                            }
                        }
                        writer
                    })
                } else {
                    JournalWriter::create(&path, tag)
                };
                match opened {
                    Ok(writer) => Some(writer),
                    Err(e) => {
                        let _ = reply.send(Err(ShardError::Journal(e)));
                        return;
                    }
                }
            }
            None => None,
        };
        let mut cells = Vec::with_capacity(n_cells);
        let mut pending = VecDeque::new();
        for cell in 0..n_cells as u32 {
            let open = slots[cell as usize].is_none();
            let parts = match spec.split_regions {
                Some(k) if open && strategy_decomposes(spec.strategy_name(cell)) => {
                    let k = k.max(1) as usize;
                    let n = plan.regions.len();
                    let bounds: Vec<(u32, u32)> = (0..n)
                        .step_by(k)
                        .map(|lo| (lo as u32, (lo + k).min(n) as u32))
                        .collect();
                    Some(SpanParts {
                        units: vec![None; bounds.len()],
                        bounds,
                    })
                }
                _ => None,
            };
            if open {
                match &parts {
                    Some(p) => {
                        for part in 0..p.bounds.len() as u32 {
                            pending.push_back(WorkItem {
                                cell,
                                part: Some(part),
                            });
                        }
                    }
                    None => pending.push_back(WorkItem { cell, part: None }),
                }
            }
            cells.push(CellState {
                fail_attempts: 0,
                lease_losses: 0,
                quarantined: None,
                parts,
            });
        }
        let job_idx = self.jobs.len();
        self.jobs.push(JobState {
            spec_bytes: spec.encode(),
            spec,
            plan,
            slots,
            cells,
            pending,
            outstanding: 0,
            journal,
            journal_faults: 0,
            resumed_cells,
            executed_cells: 0,
            completions: 0,
            budget: request.cell_budget,
            halted: false,
            lease_losses: 0,
            reply: Some(reply),
        });
        // A resumed journal may already cover the whole matrix.
        self.try_finish(job_idx);
    }

    fn worker_message(&mut self, idx: usize, msg: Message) {
        match msg {
            Message::Hello { version } => {
                if version != WIRE_VERSION {
                    self.worker_gone(idx);
                }
            }
            Message::CellDone {
                job, cell, report, ..
            } => self.cell_done(idx, job, cell, report),
            Message::SpanDone {
                job,
                cell,
                lo,
                hi,
                units,
                ..
            } => self.span_done(idx, job, cell, lo, hi, units),
            Message::CellFailed {
                job, cell, fault, ..
            } => self.cell_failed(idx, job, cell, fault),
            // Broker-role messages from a confused peer are ignored.
            Message::Job { .. } | Message::Lease { .. } | Message::Shutdown => {}
        }
    }

    /// Clear `idx`'s lease if it matches `(job, cell)`; returns the
    /// leased item for requeueing. `None` means the delivery is stale
    /// (duplicate, or the lease already expired/re-leased elsewhere).
    fn take_lease(&mut self, idx: usize, job: u32, cell: u32) -> Option<WorkItem> {
        let slot = self.workers.get_mut(idx)?;
        let matches = slot
            .lease
            .as_ref()
            .is_some_and(|l| l.job == job && l.item.cell == cell);
        if !matches {
            return None;
        }
        let lease = slot.lease.take()?;
        if let Some(j) = self.jobs.get_mut(lease.job as usize) {
            j.outstanding = j.outstanding.saturating_sub(1);
        }
        Some(lease.item)
    }

    fn cell_done(&mut self, idx: usize, job: u32, cell: u32, report_bytes: Vec<u8>) {
        let item = self.take_lease(idx, job, cell);
        let job_idx = job as usize;
        let accepted = {
            let Some(j) = self.jobs.get_mut(job_idx) else {
                return;
            };
            if j.reply.is_none() {
                return;
            }
            let Some(slot) = j.slots.get(cell as usize) else {
                return;
            };
            if slot.is_some() || j.cells[cell as usize].quarantined.is_some() {
                // Duplicate delivery or post-quarantine straggler: the
                // first result (or the quarantine decision) stands.
                return;
            }
            match decode_cell(&report_bytes) {
                Some((c, report)) if c == cell => {
                    j.slots[cell as usize] = Some(StrategyReport::new(report));
                    j.executed_cells += 1;
                    j.completions += 1;
                    if let Some(writer) = j.journal.as_mut() {
                        // The wire payload IS the journal payload:
                        // append it verbatim, bit for bit.
                        if writer.append(CELL_ENTRY_KIND, &report_bytes).is_err() {
                            j.journal_faults += 1;
                        }
                    }
                    true
                }
                _ => false,
            }
        };
        if accepted {
            self.check_halt(job_idx);
            self.try_finish(job_idx);
        } else if let Some(item) = item {
            // A result that checksummed clean on the wire but does not
            // decode as this cell is a worker defect: count it as a
            // failed attempt so a persistent offender quarantines.
            self.fail_item(
                job,
                item,
                WireFault {
                    kind: 0,
                    aux: 0,
                    detail: format!("cell {cell} returned an undecodable report"),
                },
            );
        }
    }

    fn span_done(&mut self, idx: usize, job: u32, cell: u32, lo: u32, hi: u32, units: Vec<u8>) {
        let item = self.take_lease(idx, job, cell);
        let job_idx = job as usize;
        enum SpanOutcome {
            Stored,
            Completed,
            Bad,
            Stale,
        }
        let outcome = {
            let Some(j) = self.jobs.get_mut(job_idx) else {
                return;
            };
            if j.reply.is_none() {
                return;
            }
            let stale = j
                .slots
                .get(cell as usize)
                .map(|s| s.is_some())
                .unwrap_or(true)
                || j.cells[cell as usize].quarantined.is_some();
            if stale {
                SpanOutcome::Stale
            } else {
                let decoded =
                    decode_units(&units).filter(|u| u.len() == (hi.saturating_sub(lo)) as usize);
                let parts = j.cells[cell as usize].parts.as_mut();
                match (parts, decoded) {
                    (Some(parts), Some(decoded)) => {
                        match parts.bounds.iter().position(|&(l, h)| l == lo && h == hi) {
                            Some(p) if parts.units[p].is_none() => {
                                parts.units[p] = Some(decoded);
                                if parts.units.iter().all(Option::is_some) {
                                    // All spans landed: fold in plan
                                    // order, exactly like the
                                    // in-process reduce.
                                    let mut all = Vec::with_capacity(j.plan.regions.len());
                                    for u in &mut parts.units {
                                        if let Some(span_units) = u.take() {
                                            for unit in span_units {
                                                all.push(Some(unit));
                                            }
                                        }
                                    }
                                    let report = reduce_region_units(
                                        j.spec.workload_name(cell),
                                        &j.plan,
                                        j.spec.strategy_name(cell),
                                        &[],
                                        all,
                                    );
                                    let bytes = encode_cell(cell, &report);
                                    j.slots[cell as usize] = Some(StrategyReport::new(report));
                                    j.executed_cells += 1;
                                    j.completions += 1;
                                    if let Some(writer) = j.journal.as_mut() {
                                        if writer.append(CELL_ENTRY_KIND, &bytes).is_err() {
                                            j.journal_faults += 1;
                                        }
                                    }
                                    SpanOutcome::Completed
                                } else {
                                    SpanOutcome::Stored
                                }
                            }
                            // Duplicate span delivery: first wins.
                            Some(_) => SpanOutcome::Stale,
                            None => SpanOutcome::Bad,
                        }
                    }
                    _ => SpanOutcome::Bad,
                }
            }
        };
        match outcome {
            SpanOutcome::Completed => {
                self.check_halt(job_idx);
                self.try_finish(job_idx);
            }
            SpanOutcome::Stored | SpanOutcome::Stale => {}
            SpanOutcome::Bad => {
                if let Some(item) = item {
                    self.fail_item(
                        job,
                        item,
                        WireFault {
                            kind: 0,
                            aux: 0,
                            detail: format!("cell {cell} span {lo}..{hi} returned bad units"),
                        },
                    );
                }
            }
        }
    }

    fn cell_failed(&mut self, idx: usize, job: u32, cell: u32, fault: WireFault) {
        // Only a failure matching a live lease advances the attempt
        // counter — stale duplicates must not perturb the
        // deterministic quarantine decision.
        let Some(item) = self.take_lease(idx, job, cell) else {
            return;
        };
        let resolved = {
            let Some(j) = self.jobs.get(job as usize) else {
                return;
            };
            j.reply.is_none()
                || j.slots
                    .get(cell as usize)
                    .map(|s| s.is_some())
                    .unwrap_or(true)
                || j.cells[cell as usize].quarantined.is_some()
        };
        if !resolved {
            self.fail_item(job, item, fault);
        }
    }

    /// Count one failed attempt against `item`'s cell: requeue within
    /// the policy budget, quarantine on exhaustion.
    fn fail_item(&mut self, job: u32, item: WorkItem, fault: WireFault) {
        let max_attempts = self.config.policy.max_attempts();
        let job_idx = job as usize;
        let quarantined = {
            let Some(j) = self.jobs.get_mut(job_idx) else {
                return;
            };
            let Some(cell_state) = j.cells.get_mut(item.cell as usize) else {
                return;
            };
            cell_state.fail_attempts += 1;
            if cell_state.fail_attempts >= max_attempts {
                cell_state.quarantined = Some(UnitFailure {
                    unit: item.cell,
                    attempts: cell_state.fail_attempts,
                    fault: fault.to_unit_fault(),
                });
                // Sibling span parts of a quarantined cell are dead
                // work: drop them from the queue (in-flight ones are
                // ignored on arrival).
                j.pending.retain(|it| it.cell != item.cell);
                true
            } else {
                j.pending.push_back(item);
                false
            }
        };
        if quarantined {
            self.try_finish(job_idx);
        }
    }

    fn worker_gone(&mut self, idx: usize) {
        let Some(slot) = self.workers.get_mut(idx) else {
            return;
        };
        slot.writer = None;
        if let Some(lease) = slot.lease.take() {
            self.lease_lost(lease);
        }
    }

    /// A lease died with its worker (or expired): re-lease the item at
    /// the *same* attempt number, or quarantine past the loss budget.
    fn lease_lost(&mut self, lease: LeaseSlot) {
        let job_idx = lease.job as usize;
        let budget = self.config.lease_loss_budget;
        let quarantined = {
            let Some(j) = self.jobs.get_mut(job_idx) else {
                return;
            };
            j.outstanding = j.outstanding.saturating_sub(1);
            if j.reply.is_none() {
                return;
            }
            j.lease_losses += 1;
            let cell = lease.item.cell as usize;
            let done = j.slots.get(cell).map(|s| s.is_some()).unwrap_or(true)
                || j.cells[cell].quarantined.is_some();
            if done {
                false
            } else {
                let cell_state = &mut j.cells[cell];
                cell_state.lease_losses += 1;
                if cell_state.lease_losses > budget {
                    cell_state.quarantined = Some(UnitFailure {
                        unit: lease.item.cell,
                        attempts: cell_state.fail_attempts,
                        fault: UnitFault::Timeout,
                    });
                    j.pending.retain(|it| it.cell != lease.item.cell);
                    true
                } else {
                    j.pending.push_back(lease.item);
                    false
                }
            }
        };
        // A halted job waiting on in-flight leases may now be
        // drained; a quarantine may complete the matrix.
        let _ = quarantined;
        self.try_finish(job_idx);
    }

    /// Age outstanding leases by one tick; expire the overdue.
    fn tick(&mut self) {
        for idx in 0..self.workers.len() {
            let expired = {
                let slot = &mut self.workers[idx];
                if slot.lease.is_none() {
                    false
                } else if slot.ticks_left == 0 {
                    true
                } else {
                    slot.ticks_left -= 1;
                    false
                }
            };
            if expired {
                // The worker stays attached (it may just be slow —
                // its late result is still pure and acceptable), but
                // the item re-leases elsewhere.
                if let Some(lease) = self.workers[idx].lease.take() {
                    self.lease_lost(lease);
                }
            }
        }
    }

    fn check_halt(&mut self, job_idx: usize) {
        let Some(j) = self.jobs.get_mut(job_idx) else {
            return;
        };
        if let Some(budget) = j.budget {
            if j.completions >= budget {
                j.halted = true;
            }
        }
    }

    fn try_finish(&mut self, job_idx: usize) {
        let ready = {
            let Some(j) = self.jobs.get(job_idx) else {
                return;
            };
            if j.reply.is_none() {
                return;
            }
            let resolved = j
                .slots
                .iter()
                .zip(&j.cells)
                .all(|(slot, cell)| slot.is_some() || cell.quarantined.is_some());
            resolved || (j.halted && j.outstanding == 0)
        };
        if !ready {
            return;
        }
        let Some(j) = self.jobs.get_mut(job_idx) else {
            return;
        };
        let n_strategies = j.spec.strategies.len().max(1);
        let slots = std::mem::take(&mut j.slots);
        let mut quarantined = Vec::new();
        for cell in &mut j.cells {
            if let Some(failure) = cell.quarantined.take() {
                quarantined.push(failure);
            }
        }
        let mut matrix = Vec::with_capacity(j.spec.workloads.len());
        let mut it = slots.into_iter();
        for _ in 0..j.spec.workloads.len() {
            matrix.push(it.by_ref().take(n_strategies).collect());
        }
        // Close the journal before replying so a successor broker can
        // reopen the file immediately.
        j.journal = None;
        j.pending.clear();
        let run = ShardRun {
            run: MatrixRun {
                matrix,
                quarantined,
                resumed_cells: j.resumed_cells,
                executed_cells: j.executed_cells,
                journal_faults: j.journal_faults,
            },
            halted: j.halted,
            lease_losses: j.lease_losses,
        };
        if let Some(reply) = j.reply.take() {
            let _ = reply.send(Ok(run));
        }
    }

    /// Hand pending items to idle workers until one side runs out.
    fn dispatch(&mut self) {
        loop {
            let Some(widx) = self
                .workers
                .iter()
                .position(|w| w.writer.is_some() && w.lease.is_none())
            else {
                return;
            };
            let Some(job_idx) = self
                .jobs
                .iter()
                .position(|j| j.reply.is_some() && !j.halted && !j.pending.is_empty())
            else {
                return;
            };
            let Some(item) = self.jobs[job_idx].pending.pop_front() else {
                continue;
            };
            let job = job_idx as u32;
            let attempt = self.jobs[job_idx]
                .cells
                .get(item.cell as usize)
                .map(|c| c.fail_attempts)
                .unwrap_or(0);
            let span = item.part.and_then(|p| {
                self.jobs[job_idx].cells[item.cell as usize]
                    .parts
                    .as_ref()
                    .and_then(|parts| parts.bounds.get(p as usize).copied())
            });
            let announce = if self.workers[widx].announced.contains(&job) {
                None
            } else {
                Some(Message::Job {
                    job,
                    spec: self.jobs[job_idx].spec_bytes.clone(),
                })
            };
            let mut sent = true;
            if let Some(msg) = announce {
                sent = self.send_to(widx, &msg);
                if sent {
                    self.workers[widx].announced.push(job);
                }
            }
            if sent {
                sent = self.send_to(
                    widx,
                    &Message::Lease {
                        job,
                        cell: item.cell,
                        attempt,
                        span,
                    },
                );
            }
            if sent {
                let slot = &mut self.workers[widx];
                slot.lease = Some(LeaseSlot { job, item });
                slot.ticks_left = self.config.lease_ticks;
                self.jobs[job_idx].outstanding += 1;
            } else {
                // Dead transport: detach the worker, requeue the item
                // at the front (no attempt consumed — the lease never
                // existed).
                self.jobs[job_idx].pending.push_front(item);
                self.workers[widx].writer = None;
            }
        }
    }

    fn send_to(&mut self, idx: usize, msg: &Message) -> bool {
        let Some(slot) = self.workers.get_mut(idx) else {
            return false;
        };
        let Some(writer) = slot.writer.as_mut() else {
            return false;
        };
        wire::send(&mut **writer, msg).is_ok()
    }
}

/// Per-worker reader thread: forwards frames to the scheduler until
/// the stream ends (cleanly or not — either way the worker is gone).
fn read_loop(idx: usize, mut read: Box<dyn Read + Send>, tx: Sender<Event>) {
    loop {
        match wire::recv(&mut *read) {
            Ok(Some(msg)) => {
                if tx.send(Event::FromWorker(idx, msg)).is_err() {
                    return;
                }
            }
            Ok(None) => {
                let _ = tx.send(Event::WorkerGone(idx));
                return;
            }
            Err(WireError::Io(_)) | Err(_) => {
                let _ = tx.send(Event::WorkerGone(idx));
                return;
            }
        }
    }
}
