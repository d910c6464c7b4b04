//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <warm-chain|directed|shard-sweep> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it sweeps the workload's matrix repeatedly for
//! `--seconds`, setting it up afresh in a timed burst before every sweep
//! (the median set-up is `setup_s`), checks the outputs, and prints the
//! end-to-end metrics. With `--trace 1` it sets up once, makes untraced
//! baseline sweeps for half of `--seconds`, one traced sweep, two more
//! untraced sweeps and the per-layer probes, and prints the per-layer
//! metrics; the spans go to `.perfbench/spans-<workload>.json` (Chrome
//! trace-event JSON). Either way the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, and the exit code is
//! nonzero when any output check fails.
//!
//! Run it from the repository root (it keeps packed tiles, journals and
//! span files under `.perfbench/`):
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload directed --seed 1 --seconds 12 --trace 0
//! ```
//!
//! `perfbench --worker` is the shard worker the benchmark spawns for
//! `shard-sweep`: it serves leases over stdio.

mod json;
mod layers;
mod probe;
mod shard;
mod spans;
mod traced;
mod workloads;

use json::Json;
use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement seconds.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--worker" {
            return Ok(None);
        }
        let value = args.next().ok_or(format!("{arg} needs a value"))?;
        match arg.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {:?}",
            workloads::NAMES
        ));
    }
    Ok(Some(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(0.0),
        trace: trace.ok_or("--trace is required")?,
    }))
}

/// One reported metric.
#[derive(Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Cells attempted over the run's sweeps.
    pub attempted: usize,
    /// Cells without a report.
    pub failed: usize,
    /// Output-check failures (empty when correct).
    pub errors: Vec<String>,
    /// Digest of the workload's reports.
    pub digest: u64,
    /// Mean CPI error of the SMARTS-accurate cells against SMARTS, %
    /// (deterministic for a seed; printed on the record line).
    pub cpi_err_pct: Option<f64>,
}

impl Outcome {
    /// Add a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Record an output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return shard::serve_worker(),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let data = PathBuf::from(".perfbench");
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} | host: {} cores, {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        probe::parallelism(),
        probe::cpu_model(),
    );
    let outcome = match layers::run(&args, &data) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "perfbench: report_digest {} {:016x}",
        args.workload, outcome.digest
    );
    for e in &outcome.errors {
        eprintln!("perfbench: CHECK FAILED: {e}");
    }
    for m in &outcome.metrics {
        eprintln!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let correct = outcome.errors.is_empty();
    let metrics = Json::Obj(
        outcome
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect(),
    );
    let record = Json::obj([
        ("workload", Json::str(&args.workload)),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        (
            "available_parallelism",
            Json::Int(probe::parallelism() as u64),
        ),
        ("cpu_model", Json::str(probe::cpu_model())),
        (
            "report_digest",
            Json::str(format!("{:016x}", outcome.digest)),
        ),
        (
            "cpi_err_pct",
            outcome
                .cpi_err_pct
                .map_or(Json::Str("n/a".into()), Json::Num),
        ),
    ]);
    println!("{}", record.render());
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(outcome.attempted as u64)),
        ("failed", Json::Int(outcome.failed as u64)),
        ("metrics", metrics),
    ]);
    println!("{}", line.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
