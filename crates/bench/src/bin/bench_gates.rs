//! Host-timed gates between two *live* code paths, best of a few
//! repeats, on the quick cells the per-PR bench bins ran in CI:
//!
//! 1. streaming cursors generate ≥ 1.5× faster than `access_at`
//!    (geomean over five phased workloads);
//! 2. the best flat explorer loop on hmmer scans ≥ 0.6× as fast as
//!    indexed generation produces accesses;
//! 3. warming from a tile file runs ≥ 0.90× the in-memory warm loop
//!    (geomean over the nine warm-loop cells).
//!
//! Each gate also asserts that its two paths agree. Takes no flags;
//! exits 1 after printing every gate that failed.

use delorean_bench::cells::{
    warm_machines, warmed_state, ExplorerCase, CELL_WORKLOADS, WARM_ACCESSES,
};
use delorean_cache::{Hierarchy, MachineConfig};
use delorean_trace::{
    pack_workload, spec_workload, AccessCursor, IndexedCursor, Scale, TiledTrace, Workload,
    CURSOR_BATCH,
};
use std::ops::Range;
use std::time::Instant;

/// Best wall time of `repeats` runs of `f`, with the last run's result.
fn best_of<T>(repeats: u32, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::MAX;
    let mut out = None;
    for _ in 0..repeats {
        let t = Instant::now();
        let value = f();
        best = best.min(t.elapsed().as_secs_f64());
        out = Some(value);
    }
    (best.max(1e-12), out.expect("at least one repeat"))
}

fn geomean(values: &[f64]) -> f64 {
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Report a gate: `Ok` when `value` reaches `bar`.
fn gate(what: &str, value: f64, bar: f64) -> Result<String, String> {
    let line = format!("{what} {value:.2}x (gate >= {bar}x)");
    if value >= bar {
        Ok(line)
    } else {
        Err(line)
    }
}

/// Drain a cursor, folding a checksum so generation cannot be optimized
/// away.
fn drain(mut cursor: Box<dyn AccessCursor + '_>) -> u64 {
    let mut buf = Vec::with_capacity(CURSOR_BATCH);
    let mut acc = 0u64;
    while cursor.fill(&mut buf, CURSOR_BATCH) > 0 {
        for a in &buf {
            acc ^= a
                .addr
                .0
                .wrapping_add(a.pc.0)
                .rotate_left((a.index % 63) as u32);
        }
    }
    acc
}

/// Accesses per second of indexed (`access_at`) and streaming
/// generation over `range`, asserting both fold the same checksum.
fn generation_rates(w: &dyn Workload, range: Range<u64>, repeats: u32) -> (f64, f64) {
    let n = (range.end - range.start) as f64;
    let (indexed_s, indexed) = best_of(repeats, || {
        drain(Box::new(IndexedCursor::new(w, range.clone())))
    });
    let (streaming_s, streaming) = best_of(repeats, || drain(w.cursor(range.clone())));
    assert_eq!(
        indexed,
        streaming,
        "{}: streaming diverged from access_at",
        w.name()
    );
    (n / indexed_s, n / streaming_s)
}

fn streaming_gate() -> Result<String, String> {
    let mut speedups = Vec::new();
    for name in ["bwaves", "perlbench", "lbm", "mcf", "GemsFDTD"] {
        let w = spec_workload(name, Scale::demo(), 42).unwrap();
        let (indexed, streaming) = generation_rates(&w, 1_000..201_000, 1);
        eprintln!(
            "generation {name:<10} {:>6.1} Macc/s indexed  {:>6.1} Macc/s streaming",
            indexed / 1e6,
            streaming / 1e6
        );
        speedups.push(streaming / indexed);
    }
    gate("streaming vs indexed generation", geomean(&speedups), 1.5)
}

fn explorer_gate() -> Result<String, String> {
    let w = spec_workload("hmmer", Scale::demo(), 1).unwrap();
    let mut best_flat = 0.0f64;
    for case in ExplorerCase::for_workload(&w, Scale::demo()) {
        let (seconds, _) = best_of(2, || case.run(&w));
        let rate = case.span(&w) as f64 / seconds;
        eprintln!(
            "explorer   hmmer {:<16} {:>6.1} Macc/s",
            case.stage,
            rate / 1e6
        );
        best_flat = best_flat.max(rate);
    }
    let (indexed, _) = generation_rates(&w, 1_000..201_000, 2);
    eprintln!("generation hmmer {:>6.1} Macc/s indexed", indexed / 1e6);
    gate(
        "flat explorer loop vs indexed generation",
        best_flat / indexed,
        0.6,
    )
}

/// Warm a fresh hierarchy over the warm-loop range, best of 2; returns
/// accesses per second and the warmed state.
fn warm_rate(w: &dyn Workload, machine: &MachineConfig) -> (f64, Vec<u64>) {
    let mut best = f64::MAX;
    let mut h = Hierarchy::new(machine);
    for _ in 0..2 {
        h = Hierarchy::new(machine);
        let t = Instant::now();
        h.warm_range(w, 0..WARM_ACCESSES);
        best = best.min(t.elapsed().as_secs_f64());
    }
    (WARM_ACCESSES as f64 / best, warmed_state(&h))
}

fn tile_gate() -> Result<String, String> {
    let mut ratios = Vec::new();
    for name in CELL_WORKLOADS {
        let w = spec_workload(name, Scale::demo(), 1).unwrap();
        let path = std::env::temp_dir().join(format!(
            "delorean-bench-gates-{}-{name}.dlt",
            std::process::id()
        ));
        pack_workload(&w, 0..WARM_ACCESSES, &path).expect("pack tile file");
        let tiled = TiledTrace::open(&path).expect("open tile file");
        for (label, machine) in warm_machines(Scale::demo()) {
            let (batched, reference) = warm_rate(&w, &machine);
            let (from_tiles, state) = warm_rate(&tiled, &machine);
            assert_eq!(reference, state, "{name}/{label}: tiled warming diverged");
            eprintln!(
                "warm loop  {name:<7} {label:<9} {:>6.1} Macc/s batched  {:>6.1} Macc/s tiled",
                batched / 1e6,
                from_tiles / 1e6
            );
            ratios.push(from_tiles / batched);
        }
        std::fs::remove_file(&path).expect("remove tile file");
    }
    gate("tiled vs batched warm loop", geomean(&ratios), 0.90)
}

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("bench_gates takes no flags");
        std::process::exit(2);
    }
    let mut failed = false;
    for result in [streaming_gate(), explorer_gate(), tile_gate()] {
        match result {
            Ok(line) => eprintln!("PASS {line}"),
            Err(line) => {
                eprintln!("FAIL {line}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
