//! Run orchestration: the untraced end-to-end run, the traced run, and
//! the per-layer probes that time library calls from outside.

use crate::probe::{self, median, quantile};
use crate::shard::{self, Pool, RelayStats};
use crate::spans::Recorder;
use crate::traced::{CellRecord, TracedStrategy, Tracer};
use crate::workloads::{self, Matrix, Sweep};
use crate::{Args, Outcome};
use delorean_bench::journal::{encode_cell, CELL_ENTRY_KIND};
use delorean_bench::BatchExecutor;
use delorean_cache::{Hierarchy, MachineConfig};
use delorean_core::DeLoreanExtras;
use delorean_cpu::TimingConfig;
use delorean_sampling::{
    run_region_detailed, FaultPolicy, RegionPlan, SamplingStrategy, SpeculationExtras,
};
use delorean_trace::fault::run_unit_guarded;
use delorean_trace::{JournalReader, JournalWriter, MemAccess, Workload};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// An untraced run times its set-up in bursts, one before every sweep,
/// so `setup_s` (the median of all of them) samples the same host
/// conditions as the sweeps. A burst sets up at least once, then again
/// while under `BURST_S` seconds, at most `BURST_MAX` times.
const BURST_S: f64 = 0.2;
const BURST_MAX: usize = 20;
/// Fewest timed sweeps per untraced run, whatever `--seconds` says, so
/// the cross-sweep report check always has a pair to compare.
const MIN_SWEEPS: usize = 2;
/// Empty-body calls timed for `fault.guard_ns`.
const GUARD_CALLS: u32 = 100_000;
/// Strategy labels the per-strategy metrics are reported for.
const LABELS: [&str; 6] = [
    "smarts",
    "checkpoint",
    "smarts_spec",
    "delorean",
    "coolsim",
    "mrrl",
];
/// Labels with a modeled-vs-measured speedup against SMARTS.
const VS_SMARTS: [&str; 4] = ["checkpoint", "delorean", "coolsim", "mrrl"];

/// Every per-layer metric name with its unit. A traced run reports all
/// of them; a layer the workload does not cross reads 0.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |n: &str, u: &'static str| v.push((n.to_string(), u));
    add("trace.fill_s", "s");
    add("trace.accesses", "count");
    add("trace.maccess_per_s", "Macc/s");
    for l in LABELS {
        add(&format!("trace.fill_s.{l}"), "s");
    }
    add("trace.access_at_calls", "count");
    add("trace.tile_pack_s", "s");
    add("trace.tile_open_s", "s");
    add("trace.tile_bytes", "B");
    add("cache.warm_s", "s");
    add("cache.warm_maccess_per_s", "Macc/s");
    add("cache.llc_mpki", "MPKI");
    add("cpu.detailed_s", "s");
    add("cpu.detailed_kips", "kinstr/s");
    add("bench.self_s.delorean", "s");
    add("bench.self_s.coolsim", "s");
    add("core.keys", "count");
    add("core.cold_keys", "count");
    add("core.explorers_engaged", "count");
    add("core.trap_precision", "ratio");
    for l in LABELS {
        add(&format!("statmodel.reuse_collected.{l}"), "count");
    }
    add("sampling.spec_commit_ratio", "ratio");
    add("sampling.spec_work_ratio", "ratio");
    for l in LABELS {
        add(&format!("bench.cell_s.{l}"), "s");
    }
    add("bench.cell_s_p50", "s");
    add("bench.cell_s_max", "s");
    add("bench.idle_s", "s");
    add("bench.cpu_s", "s");
    for l in VS_SMARTS {
        add(&format!("virt.modeled_speedup.{l}"), "x");
        add(&format!("bench.measured_speedup.{l}"), "x");
        add(&format!("virt.model_gap.{l}"), "x");
    }
    add("virt.modeled_spec_speedup", "x");
    add("bench.measured_spec_speedup", "x");
    add("fault.guard_ns", "ns");
    add("fault.retries", "count");
    add("fault.quarantined", "count");
    add("journal.entries", "count");
    add("journal.bytes", "B");
    add("journal.append_us", "us");
    add("shard.spawn_s", "s");
    add("shard.lease_rtt_ms_p50", "ms");
    add("shard.lease_rtt_ms_p90", "ms");
    add("shard.worker_idle_s", "s");
    add("shard.frames", "count");
    add("shard.wire_bytes", "B");
    add("shard.wire_s", "s");
    add("shard.lease_losses", "count");
    add("shard.overhead_s", "s");
    add("cpi_err_pct", "%");
    add("trace_overhead_pct", "%");
    v
}

/// Run one invocation.
pub fn run(args: &Args, data: &Path) -> Result<Outcome, String> {
    std::fs::create_dir_all(data).map_err(|e| format!("create {}: {e}", data.display()))?;
    match (args.workload.as_str(), args.trace) {
        ("warm-chain", trace) => {
            let (pack_s, tile_bytes) = workloads::pack_tiles(data, args.seed)?;
            eprintln!("perfbench: tiles ready ({tile_bytes} B, packed in {pack_s:.3} s)");
            let setup = || workloads::warm_chain(data, args.seed);
            if trace {
                let mut layers = Layers::default();
                layers.set(
                    "trace.tile_pack_s",
                    workloads::last_pack_seconds(data, args.seed),
                );
                layers.set("trace.tile_bytes", tile_bytes as f64);
                traced_in_process(args, data, setup, spec_matches_plain, layers, true)
            } else {
                untraced_in_process(args, setup, spec_matches_plain)
            }
        }
        ("directed", false) => {
            untraced_in_process(args, || workloads::directed(args.seed), |_, _| {})
        }
        ("directed", true) => traced_in_process(
            args,
            data,
            || workloads::directed(args.seed),
            |_, _| {},
            Layers::default(),
            false,
        ),
        ("shard-sweep", false) => untraced_shard(args, data),
        ("shard-sweep", true) => traced_shard(args, data),
        (other, _) => Err(format!("unknown workload {other:?}")),
    }
}

/// `warm-chain`'s extra check: speculation must not change a report.
fn spec_matches_plain(sweep: &Sweep, out: &mut Outcome) {
    for input in workloads::WARM_CHAIN_INPUTS {
        let plain = sweep.report("smarts", input);
        let spec = sweep.report("smarts_spec", input);
        out.check(plain.is_some() && plain == spec, || {
            format!("speculative SMARTS != SMARTS on {input}")
        });
    }
}

/// Repeat `sweep` until `seconds` have passed (and at least
/// [`MIN_SWEEPS`] ran); checks every sweep against the first.
fn measure(
    seconds: f64,
    out: &mut Outcome,
    mut sweep: impl FnMut() -> Result<Sweep, String>,
) -> Result<Vec<Sweep>, String> {
    let t0 = probe::now();
    let mut sweeps: Vec<Sweep> = Vec::new();
    while sweeps.len() < MIN_SWEEPS || probe::since(t0) < seconds {
        let s = sweep()?;
        eprintln!(
            "perfbench: sweep {} wall {:.4} s, {:.4} sim MIPS",
            sweeps.len(),
            s.wall_s,
            s.sim_mips()
        );
        sweeps.push(s);
    }
    let first = sweeps[0].digest();
    out.digest = first;
    for (i, s) in sweeps.iter().enumerate() {
        out.attempted += s.attempted();
        out.failed += s.failed();
        out.check(s.failed() == 0, || {
            format!(
                "sweep {i}: {} of {} cells missing",
                s.failed(),
                s.attempted()
            )
        });
        out.check(s.digest() == first, || {
            format!("sweep {i}: reports differ from sweep 0")
        });
    }
    Ok(sweeps)
}

/// [`measure`] once more after a traced sweep, checking the reports
/// still match the first untraced ones.
fn measure_again(
    out: &mut Outcome,
    sweep: impl FnMut() -> Result<Sweep, String>,
) -> Result<Vec<Sweep>, String> {
    let digest = out.digest;
    let sweeps = measure(0.0, out, sweep)?;
    out.check(out.digest == digest, || {
        "untraced reports changed after the traced sweep".to_string()
    });
    out.digest = digest;
    Ok(sweeps)
}

/// Median wall of the untraced sweeps on both sides of a traced one.
fn median_wall(before: &[Sweep], after: &[Sweep]) -> f64 {
    let walls: Vec<f64> = before.iter().chain(after).map(|s| s.wall_s).collect();
    median(&walls)
}

/// [`measure`] with a burst of timed set-ups before every sweep; the
/// previous set-up is discarded first, so only one is ever alive, and
/// each sweep runs on the burst's last one. Returns the sweeps, every
/// set-up time and the last set-up.
fn measure_with_setups<T>(
    seconds: f64,
    out: &mut Outcome,
    setup: impl Fn() -> Result<T, String>,
    discard: fn(T) -> Result<(), String>,
    sweep: impl Fn(&T) -> Result<Sweep, String>,
) -> Result<(Vec<Sweep>, Vec<f64>, T), String> {
    let mut setups = Vec::new();
    let mut current: Option<T> = None;
    let sweeps = measure(seconds, out, || {
        if let Some(old) = current.take() {
            discard(old)?;
        }
        let fresh = setup_burst(&setup, discard, &mut setups)?;
        let result = sweep(&fresh);
        current = Some(fresh);
        result
    })?;
    let last = current.ok_or_else(|| "no set-up ran".to_string())?;
    Ok((sweeps, setups, last))
}

/// One burst of timed set-ups (see [`BURST_S`]); every result but the
/// last goes to `discard`, untimed.
fn setup_burst<T>(
    setup: &impl Fn() -> Result<T, String>,
    discard: fn(T) -> Result<(), String>,
    times: &mut Vec<f64>,
) -> Result<T, String> {
    let started = probe::now();
    let mut n = 0;
    let mut kept: Option<T> = None;
    while kept.is_none() || (n < BURST_MAX && probe::since(started) < BURST_S) {
        if let Some(old) = kept.take() {
            discard(old)?;
        }
        let t0 = probe::now();
        kept = Some(setup()?);
        times.push(probe::since(t0));
        n += 1;
    }
    kept.ok_or_else(|| "no set-up ran".to_string())
}

/// The end-to-end metrics every untraced run reports.
fn end_to_end(
    out: &mut Outcome,
    setups: &[f64],
    sweeps: &[Sweep],
    peak_rss: f64,
) -> Result<(), String> {
    for (c, r) in sweeps[0].reports() {
        eprintln!(
            "perfbench: cell {:<12} {:<10} CPI {:.6}",
            c.label,
            c.input,
            r.cpi()
        );
    }
    let mips: Vec<f64> = sweeps.iter().map(Sweep::sim_mips).collect();
    out.metric("sim_mips", median(&mips), "MIPS");
    out.metric("setup_s", median(setups), "s");
    out.metric("peak_rss_mib", peak_rss, "MiB");
    let cpi_err = sweeps[0].cpi_err_pct()?;
    eprintln!("perfbench: cpi_err_pct {cpi_err:.6} % (deterministic for the seed)");
    out.cpi_err_pct = Some(cpi_err);
    Ok(())
}

fn untraced_in_process<W: Workload>(
    args: &Args,
    setup: impl Fn() -> Result<Matrix<W>, String>,
    checks: fn(&Sweep, &mut Outcome),
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (sweeps, setups, matrix) = measure_with_setups(
        args.seconds,
        &mut out,
        setup,
        |m| {
            drop(m);
            Ok(())
        },
        |m| Ok(m.sweep(None)),
    )?;
    drop(matrix);
    checks(&sweeps[0], &mut out);
    end_to_end(&mut out, &setups, &sweeps, probe::peak_rss_mib(None)?)?;
    Ok(out)
}

fn untraced_shard(args: &Args, data: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let spec = shard::sweep_spec(args.seed);
    let journal = data.join("shard-sweep.journal");
    let setup = || -> Result<Pool, String> {
        spec.validate().map_err(|e| e.to_string())?;
        Pool::spawn(probe::parallelism(), None)
    };
    let (sweeps, setups, pool) =
        measure_with_setups(args.seconds, &mut out, setup, Pool::finish, |p| {
            p.sweep(&spec, &journal)
        })?;
    let mut rss = probe::peak_rss_mib(None)?;
    for w in pool.worker_peak_rss_mib()? {
        rss = rss.max(w);
    }
    pool.finish()?;
    end_to_end(&mut out, &setups, &sweeps, rss)?;
    Ok(out)
}

/// Per-layer metric values, every name present.
#[derive(Debug)]
struct Layers(BTreeMap<String, f64>);

impl Default for Layers {
    fn default() -> Self {
        Layers(
            per_layer_names()
                .into_iter()
                .map(|(n, _)| (n, 0.0))
                .collect(),
        )
    }
}

impl Layers {
    fn set(&mut self, name: &str, value: f64) {
        // `+ 0.0` folds the -0.0 of an empty float sum into 0.
        self.0.insert(name.to_string(), value + 0.0);
    }

    fn emit(self, out: &mut Outcome) {
        for (name, unit) in per_layer_names() {
            let v = self.0.get(&name).copied().unwrap_or(0.0);
            out.metric(name, v, unit);
        }
    }
}

fn traced_in_process<W: Workload>(
    args: &Args,
    data: &Path,
    setup: impl Fn() -> Result<Matrix<W>, String>,
    checks: fn(&Sweep, &mut Outcome),
    mut layers: Layers,
    tiles: bool,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let rec = Arc::new(Recorder::new(args.seed));
    let t0 = probe::now();
    let matrix = setup()?;
    let setup_end = probe::now();
    rec.record(
        None,
        "setup",
        format!("setup {}", args.workload),
        t0,
        setup_end,
    );
    if tiles {
        layers.set("trace.tile_open_s", (setup_end - t0).as_secs_f64());
    }
    let before = measure(args.seconds / 2.0, &mut out, || Ok(matrix.sweep(None)))?;

    let sweep_id = rec.next_id();
    let tracer = Tracer::new(Arc::clone(&rec), Some(sweep_id));
    let cpu0 = probe::cpu_seconds()?;
    let t0 = probe::now();
    let sweep = matrix.sweep(Some(&tracer));
    let t1 = probe::now();
    let cpu_s = probe::cpu_seconds()? - cpu0;
    rec.push(
        sweep_id,
        None,
        "sweep",
        format!("traced sweep {}", args.workload),
        t0,
        t1,
        Vec::new(),
    );
    out.attempted += sweep.attempted();
    out.failed += sweep.failed();
    out.check(sweep.digest() == out.digest, || {
        "traced reports differ from untraced reports".to_string()
    });
    checks(&sweep, &mut out);
    let after = measure_again(&mut out, || Ok(matrix.sweep(None)))?;
    let base_wall = median_wall(&before, &after);
    layers.set(
        "trace_overhead_pct",
        (sweep.wall_s - base_wall) / base_wall * 100.0,
    );
    layers.set("bench.cpu_s", cpu_s);
    layers.set("cpi_err_pct", sweep.cpi_err_pct()?);
    cell_layers(&mut layers, &sweep, &tracer.cells(), sweep.wall_s);

    let inputs: Vec<&dyn Workload> = matrix.inputs.iter().map(|w| w as &dyn Workload).collect();
    cache_layer(&mut layers, &rec, &inputs, &matrix.plan, &matrix.machine);
    cpu_layer(&mut layers, &rec, &inputs, &matrix.plan, &matrix.machine);
    fault_layer(&mut layers, &sweep);
    journal_layer(&mut layers, &rec, data, &sweep)?;
    write_spans(&rec, data, args)?;
    layers.emit(&mut out);
    Ok(out)
}

fn traced_shard(args: &Args, data: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    let rec = Arc::new(Recorder::new(args.seed));
    let spec = shard::sweep_spec(args.seed);
    let journal = data.join("shard-sweep.journal");
    let workers = probe::parallelism();

    // Untraced baseline shard sweeps (more follow the traced sweep, on
    // the same pool), then the same matrix in process.
    let untraced = Pool::spawn(workers, None)?;
    let before = measure(args.seconds / 2.0, &mut out, || {
        untraced.sweep(&spec, &journal)
    })?;
    let strategies = spec.build_strategies().map_err(|e| e.to_string())?;
    let inputs = spec.build_workloads().map_err(|e| e.to_string())?;
    let plan = spec.plan();
    let t0 = probe::now();
    let local = BatchExecutor::new().run_matrix_isolated(
        &strategies,
        &inputs,
        &plan,
        &FaultPolicy::default(),
    );
    let local_wall = probe::since(t0);
    let local_sweep = matrix_sweep(&spec, local, local_wall);
    out.check(local_sweep.digest() == out.digest, || {
        "shard matrix differs from the in-process run_matrix_isolated matrix".to_string()
    });

    // Traced in-process pair: cell and fill spans, layer counts.
    let pair_id = rec.next_id();
    let tracer = Tracer::new(Arc::clone(&rec), Some(pair_id));
    let wrapped: Vec<Box<dyn SamplingStrategy>> = spec
        .build_strategies()
        .map_err(|e| e.to_string())?
        .into_iter()
        .zip(&spec.strategies)
        .map(|(s, label)| TracedStrategy::wrap(s, label, &tracer))
        .collect();
    let cpu0 = probe::cpu_seconds()?;
    let t0 = probe::now();
    let traced_local =
        BatchExecutor::new().run_matrix_isolated(&wrapped, &inputs, &plan, &FaultPolicy::default());
    let t1 = probe::now();
    layers.set("bench.cpu_s", probe::cpu_seconds()? - cpu0);
    rec.push(
        pair_id,
        None,
        "sweep",
        "traced in-process pair".to_string(),
        t0,
        t1,
        Vec::new(),
    );
    let pair = matrix_sweep(&spec, traced_local, (t1 - t0).as_secs_f64());
    out.check(pair.digest() == out.digest, || {
        "traced in-process reports differ from the shard matrix".to_string()
    });
    cell_layers(&mut layers, &pair, &tracer.cells(), pair.wall_s);

    // Traced shard sweep through the relays.
    let stats = RelayStats::new(Arc::clone(&rec), workers);
    let t0 = probe::now();
    let pool = Pool::spawn(workers, Some(&stats))?;
    let t1 = probe::now();
    rec.record(None, "setup", "spawn workers".to_string(), t0, t1);
    layers.set("shard.spawn_s", (t1 - t0).as_secs_f64());
    stats.reset();
    let sweep_id = rec.next_id();
    stats
        .sweep_span
        .store(sweep_id, std::sync::atomic::Ordering::Relaxed);
    let t0 = probe::now();
    let sweep = pool.sweep(&spec, &journal)?;
    let t1 = probe::now();
    rec.push(
        sweep_id,
        None,
        "sweep",
        "traced shard sweep".to_string(),
        t0,
        t1,
        Vec::new(),
    );
    let relay = stats.report();
    pool.finish()?;
    out.attempted += sweep.attempted();
    out.failed += sweep.failed();
    out.check(sweep.digest() == out.digest, || {
        "traced shard reports differ from untraced".to_string()
    });
    let after = measure_again(&mut out, || untraced.sweep(&spec, &journal))?;
    untraced.finish()?;
    let base_wall = median_wall(&before, &after);
    layers.set("shard.overhead_s", base_wall - local_wall);
    layers.set(
        "trace_overhead_pct",
        (sweep.wall_s - base_wall) / base_wall * 100.0,
    );
    let rtts: Vec<f64> = relay.rtts.iter().flatten().copied().collect();
    layers.set("shard.lease_rtt_ms_p50", quantile(&rtts, 0.5) * 1e3);
    layers.set("shard.lease_rtt_ms_p90", quantile(&rtts, 0.9) * 1e3);
    let idle: f64 = relay
        .rtts
        .iter()
        .map(|w| (sweep.wall_s - w.iter().sum::<f64>()).max(0.0))
        .sum();
    layers.set("shard.worker_idle_s", idle);
    layers.set("shard.frames", relay.frames as f64);
    layers.set("shard.wire_bytes", relay.bytes as f64);
    layers.set("shard.wire_s", relay.wire_s);
    layers.set("shard.lease_losses", sweep.lease_losses as f64);
    layers.set("cpi_err_pct", sweep.cpi_err_pct()?);

    let inputs_dyn: Vec<&dyn Workload> = inputs.iter().map(|w| w as &dyn Workload).collect();
    let machine = spec.machine();
    cache_layer(&mut layers, &rec, &inputs_dyn, &plan, &machine);
    cpu_layer(&mut layers, &rec, &inputs_dyn, &plan, &machine);
    fault_layer(&mut layers, &sweep);
    journal_layer(&mut layers, &rec, data, &sweep)?;
    // The broker's own journal of the traced sweep.
    let written = JournalReader::open(&journal, None).map_err(|e| format!("read journal: {e}"))?;
    layers.set("journal.entries", written.entries.len() as f64);
    layers.set(
        "journal.bytes",
        std::fs::metadata(&journal)
            .map_err(|e| e.to_string())?
            .len() as f64,
    );
    write_spans(&rec, data, args)?;
    layers.emit(&mut out);
    Ok(out)
}

/// A `MatrixRun` as a [`Sweep`] labelled by the spec's names.
fn matrix_sweep(
    spec: &delorean_shard::SweepSpec,
    run: delorean_bench::MatrixRun,
    wall_s: f64,
) -> Sweep {
    let retries = run
        .quarantined
        .iter()
        .map(|f| u64::from(f.attempts.saturating_sub(1)))
        .sum();
    let mut cells = Vec::new();
    for (input, row) in spec.workloads.iter().zip(run.matrix) {
        for (label, report) in spec.strategies.iter().zip(row) {
            cells.push(workloads::Cell {
                label: label.clone(),
                input: input.clone(),
                report,
            });
        }
    }
    Sweep {
        cells,
        wall_s,
        lease_losses: 0,
        retries,
    }
}

/// Layer metrics derived from cell spans and report extras.
fn cell_layers(layers: &mut Layers, sweep: &Sweep, cells: &[CellRecord], wall_s: f64) {
    let sum = |label: Option<&str>, f: &dyn Fn(&CellRecord) -> f64| -> f64 {
        cells
            .iter()
            .filter(|c| label.is_none_or(|l| c.label == l))
            .map(f)
            .sum()
    };
    let fill_s = sum(None, &|c| c.fill_s);
    let accesses = sum(None, &|c| c.accesses as f64);
    layers.set("trace.fill_s", fill_s);
    layers.set("trace.accesses", accesses);
    layers.set("trace.maccess_per_s", accesses / fill_s.max(1e-12) / 1e6);
    layers.set(
        "trace.access_at_calls",
        sum(None, &|c| c.access_at_calls as f64),
    );
    for l in LABELS {
        layers.set(&format!("trace.fill_s.{l}"), sum(Some(l), &|c| c.fill_s));
        layers.set(&format!("bench.cell_s.{l}"), sum(Some(l), &|c| c.cell_s));
    }
    for l in ["delorean", "coolsim"] {
        layers.set(
            &format!("bench.self_s.{l}"),
            sum(Some(l), &|c| c.cell_s - c.fill_s),
        );
    }
    let cell_times: Vec<f64> = cells.iter().map(|c| c.cell_s).collect();
    layers.set("bench.cell_s_p50", median(&cell_times));
    layers.set(
        "bench.cell_s_max",
        cell_times.iter().copied().fold(0.0, f64::max),
    );
    layers.set(
        "bench.idle_s",
        probe::parallelism() as f64 * wall_s - cell_times.iter().sum::<f64>(),
    );
    let smarts_s = sum(Some("smarts"), &|c| c.cell_s);
    let spec_s = sum(Some("smarts_spec"), &|c| c.cell_s);
    if spec_s > 0.0 {
        layers.set("bench.measured_spec_speedup", smarts_s / spec_s);
        let spec_acc = sum(Some("smarts_spec"), &|c| c.accesses as f64);
        let plain_acc = sum(Some("smarts"), &|c| c.accesses as f64);
        layers.set("sampling.spec_work_ratio", spec_acc / plain_acc.max(1.0));
    }

    // Report-derived counts.
    let mut keys = 0u64;
    let mut cold = 0u64;
    let mut engaged = 0u64;
    let mut traps = (0u64, 0u64);
    let mut spec = (0usize, 0usize);
    let mut spec_speedups = Vec::new();
    let mut mpki = Vec::new();
    let mut modeled: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut reuse: BTreeMap<&str, u64> = BTreeMap::new();
    for c in &sweep.cells {
        let Some(r) = &c.report else { continue };
        *reuse.entry(label_key(&c.label)).or_default() += r.report.collected_reuse_distances;
        if let Some(x) = r.extras::<DeLoreanExtras>() {
            keys += x.stats.total_keys();
            cold += x.stats.cold_keys;
            engaged += x.stats.engaged_sum;
            traps.0 += x.stats.true_hit_traps;
            traps.1 += x.stats.false_positive_traps;
        }
        if let Some(x) = r.extras::<SpeculationExtras>() {
            spec.0 += x.hits();
            spec.1 += x.outcomes.len();
            spec_speedups.push(
                r.report
                    .cost
                    .speculative_speedup(probe::parallelism(), &x.outcomes),
            );
        }
        if c.label == "smarts" {
            mpki.push(r.report.llc_mpki());
        } else if let Some(reference) = sweep.report("smarts", &c.input) {
            modeled
                .entry(label_key(&c.label))
                .or_default()
                .push(r.report.speedup_vs(reference));
        }
    }
    layers.set("core.keys", keys as f64);
    layers.set("core.cold_keys", cold as f64);
    layers.set("core.explorers_engaged", engaged as f64);
    if traps.0 + traps.1 > 0 {
        layers.set(
            "core.trap_precision",
            traps.0 as f64 / (traps.0 + traps.1) as f64,
        );
    }
    for l in LABELS {
        layers.set(
            &format!("statmodel.reuse_collected.{l}"),
            reuse.get(l).copied().unwrap_or(0) as f64,
        );
    }
    if spec.1 > 0 {
        layers.set("sampling.spec_commit_ratio", spec.0 as f64 / spec.1 as f64);
        layers.set("virt.modeled_spec_speedup", geomean(&spec_speedups));
    }
    if !mpki.is_empty() {
        layers.set(
            "cache.llc_mpki",
            mpki.iter().sum::<f64>() / mpki.len() as f64,
        );
    }
    for l in VS_SMARTS {
        let Some(m) = modeled.get(l) else { continue };
        let own = sum(Some(l), &|c| c.cell_s);
        let m = geomean(m);
        let measured = if own > 0.0 { smarts_s / own } else { 0.0 };
        layers.set(&format!("virt.modeled_speedup.{l}"), m);
        layers.set(&format!("bench.measured_speedup.{l}"), measured);
        if measured > 0.0 {
            layers.set(&format!("virt.model_gap.{l}"), m / measured);
        }
    }
}

fn label_key(label: &str) -> &'static str {
    LABELS
        .iter()
        .copied()
        .find(|l| *l == label)
        .unwrap_or("other")
}

fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.max(1e-300).ln()).sum::<f64>() / v.len() as f64).exp()
}

/// Replay each input's SMARTS warm chain through
/// `Hierarchy::warm_slice`, timing only that call.
fn cache_layer(
    layers: &mut Layers,
    rec: &Recorder,
    inputs: &[&dyn Workload],
    plan: &RegionPlan,
    machine: &MachineConfig,
) {
    const BATCH: usize = 256;
    let mut warm_s = 0.0;
    let mut accesses = 0u64;
    let t_all = probe::now();
    let mut buf: Vec<MemAccess> = Vec::with_capacity(BATCH);
    for w in inputs {
        let mut h = Hierarchy::new(machine);
        let end = w.accesses_in_instrs(plan.total_instrs());
        let mut cursor = w.cursor(0..end);
        while cursor.fill(&mut buf, BATCH) > 0 {
            let t0 = probe::now();
            h.warm_slice(&buf);
            warm_s += probe::since(t0);
            accesses += buf.len() as u64;
        }
    }
    rec.record(
        None,
        "probe",
        "cache warm_slice replay".to_string(),
        t_all,
        probe::now(),
    );
    layers.set("cache.warm_s", warm_s);
    layers.set(
        "cache.warm_maccess_per_s",
        accesses as f64 / warm_s.max(1e-12) / 1e6,
    );
}

/// Time the detailed model (`run_region_detailed` → `simulate_detailed`)
/// over every plan region of every input, on a cold hierarchy.
fn cpu_layer(
    layers: &mut Layers,
    rec: &Recorder,
    inputs: &[&dyn Workload],
    plan: &RegionPlan,
    machine: &MachineConfig,
) {
    let timing = TimingConfig::table1();
    let mut detailed_s = 0.0;
    let mut instrs = 0u64;
    let t_all = probe::now();
    for w in inputs {
        for region in &plan.regions {
            let mut h = Hierarchy::new(machine);
            let mut source = |a: &MemAccess, now: u64| h.access_data(a.pc, a.line(), now);
            let t0 = probe::now();
            let result = run_region_detailed(*w, region, &timing, &mut source);
            detailed_s += probe::since(t0);
            std::hint::black_box(result);
            instrs += region.detailed.end - region.warming.start;
        }
    }
    rec.record(
        None,
        "probe",
        "cpu detailed regions".to_string(),
        t_all,
        probe::now(),
    );
    layers.set("cpu.detailed_s", detailed_s);
    layers.set(
        "cpu.detailed_kips",
        instrs as f64 / detailed_s.max(1e-12) / 1e3,
    );
}

/// Fault guard cost on an empty body, plus the sweep's failure counts.
fn fault_layer(layers: &mut Layers, sweep: &Sweep) {
    let policy = FaultPolicy::default();
    let t0 = probe::now();
    for i in 0..GUARD_CALLS {
        let _ = std::hint::black_box(run_unit_guarded(i, &policy, || std::hint::black_box(i)));
    }
    layers.set(
        "fault.guard_ns",
        probe::since(t0) / f64::from(GUARD_CALLS) * 1e9,
    );
    layers.set("fault.retries", sweep.retries as f64);
    layers.set("fault.quarantined", sweep.failed() as f64);
}

/// Append the sweep's `encode_cell` bytes to a fresh journal, timing
/// each `JournalWriter::append`.
fn journal_layer(
    layers: &mut Layers,
    rec: &Recorder,
    data: &Path,
    sweep: &Sweep,
) -> Result<(), String> {
    let path = data.join("probe.journal");
    let mut writer =
        JournalWriter::create(&path, 0x7065_7266).map_err(|e| format!("journal: {e}"))?;
    let mut append_s = 0.0;
    let mut entries = 0u64;
    let t_all = probe::now();
    for (i, c) in sweep.cells.iter().enumerate() {
        let Some(r) = &c.report else { continue };
        let payload = encode_cell(i as u32, &r.report);
        let t0 = probe::now();
        writer
            .append(CELL_ENTRY_KIND, &payload)
            .map_err(|e| format!("journal append: {e}"))?;
        append_s += probe::since(t0);
        entries += 1;
    }
    drop(writer);
    rec.record(
        None,
        "probe",
        "journal appends".to_string(),
        t_all,
        probe::now(),
    );
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    let _ = std::fs::remove_file(&path);
    layers.set("journal.entries", entries as f64);
    layers.set("journal.bytes", bytes as f64);
    layers.set(
        "journal.append_us",
        append_s / (entries.max(1)) as f64 * 1e6,
    );
    Ok(())
}

fn write_spans(rec: &Recorder, data: &Path, args: &Args) -> Result<(), String> {
    let spans = rec.spans();
    let path = data.join(format!("spans-{}.json", args.workload));
    std::fs::write(&path, rec.chrome_json(&spans))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!(
        "perfbench: {} spans written to {}",
        spans.len(),
        path.display()
    );
    Ok(())
}
