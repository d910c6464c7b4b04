//! The benchmark's three workloads.
//!
//! Each one is a strategy × input matrix the library runs through a
//! public entry point. The input seed feeds only `spec_workload` /
//! `spec2006` (the suite seed of the synthetic SPEC generators); the
//! library never sees anything else of the benchmark's choosing.
//!
//! # `warm-chain`
//!
//! SMARTS, checkpoint warming and SMARTS with
//! `ProxyStateSource::StatModel` speculation at `available_parallelism`
//! region workers over `hmmer`,
//! `mcf` and `povray` at demo scale on the Table-1 machine (8 MiB LLC),
//! read from tile files through `TiledTrace` (the production ingest
//! path), via `BatchExecutor::new().run_matrix`.
//!
//! * Why: the blind functional-warming chain is the cost the paper
//!   removes. Tile decode is a small share of a SMARTS cell, so `cache`
//!   warming dominates, with the speculative reconcile alongside.
//!   Speculation commits every region on `hmmer` and few on `mcf`, so
//!   that mechanism is both exercised and bypassed.
//! * Should stress: `cache` (warm chain), `sampling` (speculation,
//!   reconcile), `trace` tile decode and `TiledTrace::open` (set-up).
//! * Should not stress: synthetic generation, `shard`, the journal.
//! * Tiles are packed once per seed before the first run (users pack a
//!   trace once and sweep it many times); every run's `setup_s` pays
//!   for `TiledTrace::open` and its verify pass.
//!
//! # `directed`
//!
//! SMARTS (the accuracy reference), DeLorean, CoolSim and MRRL over
//! synthetic `mcf`, `GemsFDTD` and `soplex` at demo scale with the
//! 512 MiB paper-scale LLC, default configs as
//! `delorean_shard::build_strategy` builds them, via
//! `BatchExecutor::new().run_matrix`.
//!
//! * Why: the paper's big-cache case, where Explorers travel far. The
//!   working set relative to the modeled LLC is the opposite of
//!   `warm-chain`'s.
//! * Should stress: synthetic generation (`trace`), `core` / `statmodel`
//!   (Scout, Explorers, Analyst, watchpoints, StatStack reuse).
//!   Warming is only SMARTS's share.
//! * Should not stress: tiles, speculation, `shard`, the journal.
//!
//! # `shard-sweep`
//!
//! The full 24-input suite × all five strategies at tiny scale, through
//! a library-driven `Broker` with `BrokerConfig::default()`, one stdio
//! worker process per core, a journal and region-span leases.
//!
//! * Why: many small cells, where fixed per-cell costs and the unscaled
//!   40 k detailed instructions per region dominate — the reverse of
//!   the streaming-bound in-process workloads. The only workload that
//!   crosses the fault guard, the wire, lease round trips and journal
//!   appends.
//! * Should stress: `shard` (spawn, wire, leases), `cpu` (detailed
//!   model), the fault guard and journal appends.
//! * Should not stress: tiles, speculation, long warm chains.
//! * The broker is driven through the library, not the `shard-broker`
//!   CLI, so the benchmark owns worker stdio and can relay it.

use crate::probe;
use crate::traced::{TracedStrategy, Tracer};
use delorean_bench::journal::encode_cell;
use delorean_bench::BatchExecutor;
use delorean_cache::MachineConfig;
use delorean_sampling::{
    CheckpointWarmingRunner, ProxyStateSource, RegionPlan, SamplingConfig, SamplingStrategy,
    SimulationReport, SmartsRunner, StrategyReport,
};
use delorean_trace::{pack_workload, spec_workload, Scale, TiledTrace, Workload};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The workload names, in the order the benchmark documents them.
pub const NAMES: [&str; 3] = ["warm-chain", "directed", "shard-sweep"];

/// `warm-chain` inputs.
pub const WARM_CHAIN_INPUTS: [&str; 3] = ["hmmer", "mcf", "povray"];
/// `warm-chain` detailed regions (spacing 10 M instructions at demo
/// scale, so the chain streams ~`regions × 3.4 M` accesses per input).
pub const WARM_CHAIN_REGIONS: u32 = 4;

/// `directed` inputs.
pub const DIRECTED_INPUTS: [&str; 3] = ["mcf", "GemsFDTD", "soplex"];
/// `directed` strategies, as `build_strategy` names them.
pub const DIRECTED_STRATEGIES: [&str; 4] = ["smarts", "delorean", "coolsim", "mrrl"];
/// `directed` detailed regions.
pub const DIRECTED_REGIONS: u32 = 3;
/// `directed` paper-scale LLC.
pub const DIRECTED_LLC_BYTES: u64 = 512 << 20;

/// Strategy labels that claim SMARTS-level accuracy; `cpi_err_pct`
/// averages over their cells.
pub const ACCURATE: [&str; 3] = ["delorean", "checkpoint", "smarts_spec"];

/// One finished matrix cell.
#[derive(Debug)]
pub struct Cell {
    /// Strategy column label.
    pub label: String,
    /// Input name.
    pub input: String,
    /// The report, with extras where the path keeps them; `None` for a
    /// quarantined or missing cell.
    pub report: Option<StrategyReport>,
}

/// One sweep of a workload's matrix.
#[derive(Debug)]
pub struct Sweep {
    /// Workload-major cells.
    pub cells: Vec<Cell>,
    /// Host wall seconds of the sweep.
    pub wall_s: f64,
    /// Leases lost to worker deaths or expiries (shard only).
    pub lease_losses: usize,
    /// Quarantined cells' retry counts (attempts beyond the first).
    pub retries: u64,
}

impl Sweep {
    /// Cells attempted.
    pub fn attempted(&self) -> usize {
        self.cells.len()
    }

    /// Cells without a report.
    pub fn failed(&self) -> usize {
        self.cells.iter().filter(|c| c.report.is_none()).count()
    }

    /// Σ `covered_instrs` over completed cells.
    pub fn covered_instrs(&self) -> u64 {
        self.reports().map(|(_, r)| r.covered_instrs).sum()
    }

    /// Simulated instructions per host second, in millions.
    pub fn sim_mips(&self) -> f64 {
        self.covered_instrs() as f64 / self.wall_s.max(1e-9) / 1e6
    }

    /// `(cell, report)` of every completed cell.
    pub fn reports(&self) -> impl Iterator<Item = (&Cell, &SimulationReport)> {
        self.cells
            .iter()
            .filter_map(|c| c.report.as_ref().map(|r| (c, &r.report)))
    }

    /// The report of `label` on `input`.
    pub fn report(&self, label: &str, input: &str) -> Option<&SimulationReport> {
        self.reports()
            .find(|(c, _)| c.label == label && c.input == input)
            .map(|(_, r)| r)
    }

    /// FNV-1a over every cell's journal encoding (bit-exact reports);
    /// missing cells fold a marker, so they change the digest too.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (i, c) in self.cells.iter().enumerate() {
            fold(c.label.as_bytes());
            match &c.report {
                Some(r) => fold(&encode_cell(i as u32, &r.report)),
                None => fold(b"missing"),
            }
        }
        h
    }

    /// Mean |CPI − SMARTS CPI| ÷ SMARTS CPI × 100 over the cells of the
    /// [`ACCURATE`] strategies.
    pub fn cpi_err_pct(&self) -> Result<f64, String> {
        let mut errs = Vec::new();
        for (c, r) in self.reports() {
            if !ACCURATE.contains(&c.label.as_str()) {
                continue;
            }
            let reference = self
                .report("smarts", &c.input)
                .ok_or_else(|| format!("no SMARTS reference for {}", c.input))?;
            errs.push((r.cpi() - reference.cpi()).abs() / reference.cpi() * 100.0);
        }
        if errs.is_empty() {
            return Err("no accuracy cells".to_string());
        }
        Ok(errs.iter().sum::<f64>() / errs.len() as f64)
    }
}

/// An in-process strategy × input matrix run by `BatchExecutor`.
pub struct Matrix<W> {
    /// Strategy column labels.
    pub labels: Vec<&'static str>,
    build: Box<dyn Fn() -> Vec<Box<dyn SamplingStrategy>>>,
    strategies: Vec<Box<dyn SamplingStrategy>>,
    /// The inputs.
    pub inputs: Vec<W>,
    /// The sampling plan.
    pub plan: RegionPlan,
    /// The modeled machine.
    pub machine: MachineConfig,
}

impl<W: Workload> Matrix<W> {
    fn new(
        labels: Vec<&'static str>,
        build: Box<dyn Fn() -> Vec<Box<dyn SamplingStrategy>>>,
        inputs: Vec<W>,
        plan: RegionPlan,
        machine: MachineConfig,
    ) -> Result<Matrix<W>, String> {
        let strategies = build();
        if strategies.len() != labels.len() {
            return Err(format!(
                "built {} strategies for {} columns",
                strategies.len(),
                labels.len()
            ));
        }
        Ok(Matrix {
            labels,
            build,
            strategies,
            inputs,
            plan,
            machine,
        })
    }

    /// One sweep through `BatchExecutor::new().run_matrix`; with a
    /// tracer, every strategy is wrapped so each cell records spans.
    pub fn sweep(&self, tracer: Option<&Arc<Tracer>>) -> Sweep {
        let traced: Vec<Box<dyn SamplingStrategy>>;
        let strategies = match tracer {
            None => &self.strategies,
            Some(t) => {
                traced = (self.build)()
                    .into_iter()
                    .zip(&self.labels)
                    .map(|(s, label)| TracedStrategy::wrap(s, label, t))
                    .collect();
                &traced
            }
        };
        let t0 = probe::now();
        let matrix = BatchExecutor::new().run_matrix(strategies, &self.inputs, &self.plan);
        let wall_s = probe::since(t0);
        let mut cells = Vec::new();
        for (input, row) in self.inputs.iter().zip(matrix) {
            for (label, report) in self.labels.iter().zip(row) {
                cells.push(Cell {
                    label: label.to_string(),
                    input: input.name().to_string(),
                    report: Some(report),
                });
            }
        }
        Sweep {
            cells,
            wall_s,
            lease_losses: 0,
            retries: 0,
        }
    }
}

/// The `warm-chain` plan and machine.
pub fn warm_chain_config() -> (Scale, RegionPlan, MachineConfig) {
    let scale = Scale::demo();
    let plan = SamplingConfig::for_scale(scale)
        .with_regions(WARM_CHAIN_REGIONS)
        .plan();
    (scale, plan, MachineConfig::for_scale(scale))
}

/// Where `warm-chain` keeps its tiles for `seed`.
pub fn tile_dir(data: &Path, seed: u64) -> PathBuf {
    data.join(format!("tiles-s{seed}-r{WARM_CHAIN_REGIONS}"))
}

/// Pack the `warm-chain` inputs for `seed` unless a finished pack is
/// already there; other seeds' packs are removed to bound disk use.
/// Returns `(seconds spent packing, bytes on disk)`; seconds are 0 when
/// the pack was reused.
pub fn pack_tiles(data: &Path, seed: u64) -> Result<(f64, u64), String> {
    let dir = tile_dir(data, seed);
    let done = dir.join("complete");
    std::fs::create_dir_all(data).map_err(|e| format!("create {}: {e}", data.display()))?;
    if let Ok(entries) = std::fs::read_dir(data) {
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            if path != dir && name.to_string_lossy().starts_with("tiles-") {
                let _ = std::fs::remove_dir_all(&path);
            }
        }
    }
    let mut bytes = 0u64;
    if done.exists() {
        for name in WARM_CHAIN_INPUTS {
            bytes += std::fs::metadata(dir.join(format!("{name}.dlt")))
                .map_err(|e| format!("stat tile {name}: {e}"))?
                .len();
        }
        return Ok((0.0, bytes));
    }
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let (scale, plan, _) = warm_chain_config();
    let t0 = probe::now();
    for name in WARM_CHAIN_INPUTS {
        let w = spec_workload(name, scale, seed).ok_or(format!("unknown input {name}"))?;
        let span = w.accesses_in_instrs(plan.total_instrs()) + 1;
        let summary = pack_workload(&w, 0..span, dir.join(format!("{name}.dlt")))
            .map_err(|e| format!("pack {name}: {e}"))?;
        bytes += summary.bytes;
    }
    let pack_s = probe::since(t0);
    std::fs::write(&done, format!("{pack_s}\n")).map_err(|e| format!("mark pack complete: {e}"))?;
    Ok((pack_s, bytes))
}

/// Seconds the finished pack for `seed` took, as recorded beside it.
pub fn last_pack_seconds(data: &Path, seed: u64) -> f64 {
    std::fs::read_to_string(tile_dir(data, seed).join("complete"))
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0.0)
}

/// The `warm-chain` strategies, in label order.
fn warm_chain_strategies(machine: MachineConfig) -> Vec<Box<dyn SamplingStrategy>> {
    vec![
        Box::new(SmartsRunner::new(machine)),
        Box::new(CheckpointWarmingRunner::new(machine)),
        Box::new(
            SmartsRunner::new(machine)
                .with_speculation(ProxyStateSource::StatModel)
                .with_region_workers(probe::parallelism()),
        ),
    ]
}

/// Set up `warm-chain` over packed tiles: open (and verify) every tile
/// file and build the strategies.
pub fn warm_chain(data: &Path, seed: u64) -> Result<Matrix<TiledTrace>, String> {
    let (_, plan, machine) = warm_chain_config();
    let dir = tile_dir(data, seed);
    let inputs = WARM_CHAIN_INPUTS
        .iter()
        .map(|name| {
            TiledTrace::open(dir.join(format!("{name}.dlt")))
                .map_err(|e| format!("open tile {name}: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Matrix::new(
        vec!["smarts", "checkpoint", "smarts_spec"],
        Box::new(move || warm_chain_strategies(machine)),
        inputs,
        plan,
        machine,
    )
}

/// The `directed` plan and machine.
pub fn directed_config() -> (Scale, RegionPlan, MachineConfig) {
    let scale = Scale::demo();
    let plan = SamplingConfig::for_scale(scale)
        .with_regions(DIRECTED_REGIONS)
        .plan();
    let machine = MachineConfig::for_scale(scale).with_llc_paper_bytes(scale, DIRECTED_LLC_BYTES);
    (scale, plan, machine)
}

/// Set up `directed`: generate the synthetic inputs and build the
/// strategies as the shard layer's `build_strategy` does.
pub fn directed(seed: u64) -> Result<Matrix<delorean_trace::PhasedWorkload>, String> {
    let (scale, plan, machine) = directed_config();
    let inputs = DIRECTED_INPUTS
        .iter()
        .map(|name| spec_workload(name, scale, seed).ok_or(format!("unknown input {name}")))
        .collect::<Result<Vec<_>, _>>()?;
    // A name `build_strategy` rejects leaves a column short, which
    // `Matrix::new` refuses.
    let build = move || -> Vec<Box<dyn SamplingStrategy>> {
        DIRECTED_STRATEGIES
            .iter()
            .filter_map(|name| delorean_shard::build_strategy(name, scale, machine).ok())
            .collect()
    };
    Matrix::new(
        DIRECTED_STRATEGIES.to_vec(),
        Box::new(build),
        inputs,
        plan,
        machine,
    )
}
