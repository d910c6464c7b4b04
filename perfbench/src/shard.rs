//! `shard-sweep` plumbing: the stdio worker entry point, a worker pool
//! attached to a library-driven `Broker`, and — in traced runs — a
//! relay between the broker and each worker's stdio that times
//! `wire::recv` / `wire::send` on every frame and the lease round trips.

use crate::probe;
use crate::spans::Recorder;
use crate::workloads::{Cell, Sweep};
use delorean_shard::wire::{self, Message};
use delorean_shard::{worker_loop, Broker, BrokerConfig, JobRequest, SweepSpec, WorkerOptions};
use delorean_trace::{Scale, SPEC2006_NAMES};
use std::io::{Cursor, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `shard-sweep` detailed regions per cell.
pub const SHARD_REGIONS: u32 = 3;
/// Region-span lease size for decomposable strategies.
pub const SHARD_SPLIT: u32 = 5;

/// The `shard-sweep` job: every SPEC input × every strategy, tiny scale.
pub fn sweep_spec(seed: u64) -> SweepSpec {
    SweepSpec::new(Scale::tiny(), SHARD_REGIONS)
        .with_workloads(&SPEC2006_NAMES)
        .with_strategies(&delorean_shard::STRATEGY_NAMES)
        .with_suite_seed(seed)
        .with_split_regions(SHARD_SPLIT)
}

/// Serve leases over stdio until the broker hangs up (`--worker`).
pub fn serve_worker() -> ExitCode {
    match worker_loop(
        std::io::stdin(),
        std::io::stdout(),
        &WorkerOptions::default(),
    ) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench worker: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Relay counters and the per-worker lease state.
#[derive(Debug)]
pub struct RelayStats {
    rec: Arc<Recorder>,
    /// Span every lease span hangs under (the traced sweep).
    pub sweep_span: AtomicU64,
    frames: AtomicU64,
    bytes: AtomicU64,
    wire_ns: AtomicU64,
    leases: Mutex<Vec<LeaseState>>,
}

#[derive(Debug, Default)]
struct LeaseState {
    open: Option<(Instant, u64)>,
    rtts: Vec<f64>,
}

/// What the relay measured.
#[derive(Debug, Default)]
pub struct RelayReport {
    /// Frames relayed, both directions.
    pub frames: u64,
    /// Frame bytes relayed (headers included).
    pub bytes: u64,
    /// Seconds inside `wire::recv` + `wire::send`.
    pub wire_s: f64,
    /// Lease round trips per worker, seconds.
    pub rtts: Vec<Vec<f64>>,
}

impl RelayStats {
    /// Fresh counters for `workers` workers.
    pub fn new(rec: Arc<Recorder>, workers: usize) -> Arc<RelayStats> {
        Arc::new(RelayStats {
            rec,
            sweep_span: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            wire_ns: AtomicU64::new(0),
            leases: Mutex::new((0..workers).map(|_| LeaseState::default()).collect()),
        })
    }

    /// Zero the counters (call before the traced sweep).
    pub fn reset(&self) {
        self.frames.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
        self.wire_ns.store(0, Ordering::Relaxed);
        for l in self
            .leases
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter_mut()
        {
            l.rtts.clear();
        }
    }

    /// Snapshot the counters.
    pub fn report(&self) -> RelayReport {
        RelayReport {
            frames: self.frames.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            wire_s: self.wire_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            rtts: self
                .leases
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .map(|l| l.rtts.clone())
                .collect(),
        }
    }

    /// Relay one frame: decode it with `wire::recv`, re-encode it with
    /// `wire::send` (both timed), forward the bytes. Returns the
    /// message, or `None` at a clean hang-up.
    fn relay_frame(
        &self,
        from: &mut dyn Read,
        to: &mut dyn Write,
        worker: usize,
        down: bool,
    ) -> Result<Option<Message>, String> {
        let Some((kind, payload)) = wire::read_frame(from).map_err(|e| e.to_string())? else {
            return Ok(None);
        };
        let arrived = probe::now();
        let mut raw = Vec::with_capacity(payload.len() + 16);
        wire::write_frame(&mut raw, kind, &payload).map_err(|e| e.to_string())?;
        let t0 = probe::now();
        let msg = wire::recv(&mut raw.as_slice())
            .map_err(|e| e.to_string())?
            .ok_or("empty frame")?;
        let mut out = Vec::with_capacity(raw.len());
        wire::send(&mut out, &msg).map_err(|e| e.to_string())?;
        let t1 = probe::now();
        to.write_all(&out).map_err(|e| e.to_string())?;
        to.flush().map_err(|e| e.to_string())?;
        self.frames.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(raw.len() as u64, Ordering::Relaxed);
        self.wire_ns
            .fetch_add((t1 - t0).as_nanos() as u64, Ordering::Relaxed);

        let is_reply = matches!(
            msg,
            Message::CellDone { .. } | Message::SpanDone { .. } | Message::CellFailed { .. }
        );
        let mut parent = None;
        {
            let mut leases = self.leases.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(state) = leases.get_mut(worker) {
                if down && matches!(msg, Message::Lease { .. }) {
                    let id = self.rec.next_id();
                    state.open = Some((arrived, id));
                    parent = Some(id);
                } else if is_reply {
                    if let Some((leased, id)) = state.open.take() {
                        state.rtts.push((arrived - leased).as_secs_f64());
                        let sweep = self.sweep_span.load(Ordering::Relaxed);
                        let (name, args) = match &msg {
                            Message::CellDone { cell, .. } => ("cell", *cell),
                            Message::SpanDone { cell, .. } => ("span", *cell),
                            Message::CellFailed { cell, .. } => ("failed", *cell),
                            _ => ("lease", 0),
                        };
                        self.rec.push(
                            id,
                            (sweep != 0).then_some(sweep),
                            "lease",
                            format!("lease {name} {args} w{worker}"),
                            leased,
                            arrived,
                            vec![("worker", worker as f64)],
                        );
                        parent = Some(id);
                    }
                }
            }
        }
        let dir = if down { "send" } else { "recv" };
        self.rec.record(
            parent,
            "frame",
            format!("{dir} {}", message_name(&msg)),
            t0,
            t1,
        );
        Ok(Some(msg))
    }
}

fn message_name(msg: &Message) -> &'static str {
    match msg {
        Message::Hello { .. } => "hello",
        Message::Job { .. } => "job",
        Message::Lease { .. } => "lease",
        Message::CellDone { .. } => "cell_done",
        Message::SpanDone { .. } => "span_done",
        Message::CellFailed { .. } => "cell_failed",
        Message::Shutdown => "shutdown",
    }
}

/// Worker processes attached to a broker.
pub struct Pool {
    broker: Option<Broker>,
    children: Vec<Child>,
    relays: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Spawn `workers` copies of this executable in worker mode, wait
    /// for each `Hello`, and attach them to a fresh broker — directly,
    /// or through timing relays when `relay` is given.
    pub fn spawn(workers: usize, relay: Option<&Arc<RelayStats>>) -> Result<Pool, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut pool = Pool {
            broker: Some(Broker::new(BrokerConfig::default())),
            children: Vec::new(),
            relays: Vec::new(),
        };
        let mut pipes: Vec<(ChildStdin, ChildStdout)> = Vec::new();
        for _ in 0..workers {
            let mut child = Command::new(&exe)
                .arg("--worker")
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| format!("spawn worker: {e}"))?;
            let io = child.stdin.take().zip(child.stdout.take());
            pool.children.push(child);
            pipes.push(io.ok_or("worker without stdio pipes")?);
        }
        for (i, (stdin, mut stdout)) in pipes.into_iter().enumerate() {
            let (kind, payload) = wire::read_frame(&mut stdout)
                .map_err(|e| format!("worker hello: {e}"))?
                .ok_or("worker hung up before hello")?;
            let mut hello = Vec::new();
            wire::write_frame(&mut hello, kind, &payload).map_err(|e| e.to_string())?;
            let Some(broker) = pool.broker.as_ref() else {
                return Err("broker gone".to_string());
            };
            match relay {
                None => broker.attach(Cursor::new(hello).chain(stdout), stdin),
                Some(stats) => {
                    let (near, far) = UnixStream::pair().map_err(|e| format!("socketpair: {e}"))?;
                    let near_read = near.try_clone().map_err(|e| e.to_string())?;
                    broker.attach(near_read, near);
                    let far_read = far.try_clone().map_err(|e| e.to_string())?;
                    pool.relays.push(spawn_relay(
                        stats,
                        i,
                        Cursor::new(hello).chain(stdout),
                        far,
                        false,
                    ));
                    pool.relays
                        .push(spawn_relay(stats, i, far_read, stdin, true));
                }
            }
        }
        Ok(pool)
    }

    /// One sweep: a fresh journal at `journal`, submit, wait.
    pub fn sweep(&self, spec: &SweepSpec, journal: &Path) -> Result<Sweep, String> {
        let _ = std::fs::remove_file(journal);
        let broker = self.broker.as_ref().ok_or("broker gone")?;
        let t0 = probe::now();
        let run = broker
            .submit(JobRequest::new(spec.clone()).with_journal(journal.to_path_buf()))
            .wait()
            .map_err(|e| format!("shard job: {e}"))?;
        let wall_s = probe::since(t0);
        let retries = run
            .run
            .quarantined
            .iter()
            .map(|f| u64::from(f.attempts.saturating_sub(1)))
            .sum();
        let mut cells = Vec::new();
        for (input, row) in spec.workloads.iter().zip(run.run.matrix) {
            for (label, report) in spec.strategies.iter().zip(row) {
                cells.push(Cell {
                    label: label.clone(),
                    input: input.clone(),
                    report,
                });
            }
        }
        Ok(Sweep {
            cells,
            wall_s,
            lease_losses: run.lease_losses,
            retries,
        })
    }

    /// Peak RSS of each live worker, MiB.
    pub fn worker_peak_rss_mib(&self) -> Result<Vec<f64>, String> {
        self.children
            .iter()
            .map(|c| probe::peak_rss_mib(Some(c.id())))
            .collect()
    }

    /// Shut the broker down, wait for every worker and relay thread.
    pub fn finish(mut self) -> Result<(), String> {
        self.stop()
    }

    fn stop(&mut self) -> Result<(), String> {
        if let Some(broker) = self.broker.take() {
            broker.shutdown();
        }
        let mut result = Ok(());
        for child in &mut self.children {
            let deadline = probe::now() + Duration::from_secs(10);
            loop {
                match child.try_wait() {
                    Ok(Some(status)) if status.success() => break,
                    Ok(Some(status)) => {
                        result = Err(format!("worker exited with {status}"));
                        break;
                    }
                    Ok(None) if probe::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5))
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        result = Err("worker did not exit after shutdown".to_string());
                        break;
                    }
                }
            }
        }
        self.children.clear();
        for relay in self.relays.drain(..) {
            if relay.join().is_err() {
                result = Err("relay thread panicked".to_string());
            }
        }
        result
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

fn spawn_relay(
    stats: &Arc<RelayStats>,
    worker: usize,
    mut from: impl Read + Send + 'static,
    mut to: impl Write + Send + 'static,
    down: bool,
) -> JoinHandle<()> {
    let stats = Arc::clone(stats);
    std::thread::spawn(move || loop {
        match stats.relay_frame(&mut from, &mut to, worker, down) {
            Ok(Some(Message::Shutdown)) | Ok(None) => break,
            Ok(Some(_)) => {}
            Err(e) => {
                eprintln!("perfbench relay: {e}");
                break;
            }
        }
    })
}
