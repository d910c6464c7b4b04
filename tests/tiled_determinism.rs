//! Tiled-ingest determinism: every sampling strategy must produce a
//! bit-identical report whether its accesses come from the synthetic
//! workload or from the packed on-disk tile file — through the sync and
//! streaming cursors, at any region-scheduler worker count. This is the
//! PR 6 counterpart of the worker-count determinism contract.

use delorean::cache::Hierarchy;
use delorean::prelude::*;
use delorean::trace::pack_workload_with;
use std::path::PathBuf;

fn strategies(machine: MachineConfig, scale: Scale) -> Vec<Box<dyn SamplingStrategy>> {
    vec![
        Box::new(SmartsRunner::new(machine)),
        Box::new(CoolSimRunner::new(machine, CoolSimConfig::for_scale(scale))),
        Box::new(MrrlRunner::new(machine)),
        Box::new(CheckpointWarmingRunner::new(machine)),
        Box::new(DeLoreanRunner::new(
            machine,
            DeLoreanConfig::for_scale(scale),
        )),
    ]
}

fn pack_span(w: &dyn Workload, plan: &RegionPlan, tag: &str) -> PathBuf {
    let span = w.accesses_in_instrs(plan.total_instrs()) + 1;
    let path = std::env::temp_dir().join(format!(
        "delorean-tiled-determinism-{}-{tag}.dlt",
        std::process::id()
    ));
    pack_workload(w, 0..span, &path).expect("pack plan span");
    path
}

#[test]
fn all_five_strategies_match_in_memory_runs_bit_for_bit() {
    let scale = Scale::tiny();
    let machine = MachineConfig::for_scale(scale);
    let plan = SamplingConfig::for_scale(scale).with_regions(3).plan();
    let w = spec_workload("hmmer", scale, 42).unwrap();
    let path = pack_span(&w, &plan, "strategies");
    let tiled = TiledTrace::open(&path).unwrap();
    let tiled_streaming = tiled.clone().with_streaming(true);

    for s in strategies(machine, scale) {
        let reference = s.run(&w, &plan);
        let from_tiles = s.run(&tiled, &plan);
        let from_stream = s.run(&tiled_streaming, &plan);
        assert_eq!(
            reference.report,
            from_tiles.report,
            "{}: tiled run diverged from in-memory",
            s.name()
        );
        assert_eq!(
            reference.report,
            from_stream.report,
            "{}: streaming tiled run diverged from in-memory",
            s.name()
        );
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn tiled_sources_keep_the_worker_count_determinism_contract() {
    // RegionScheduler units ask the workload for per-region cursor
    // slices; the tile file must serve those seeks identically at any
    // parallelism.
    let scale = Scale::tiny();
    let machine = MachineConfig::for_scale(scale);
    let plan = SamplingConfig::for_scale(scale).with_regions(4).plan();
    let w = spec_workload("soplex", scale, 42).unwrap();
    let path = pack_span(&w, &plan, "workers");
    let tiled = TiledTrace::open(&path).unwrap();

    for s in strategies(machine, scale) {
        let sequential = s.run_with_workers(&w, &plan, 1);
        for workers in [2, 4] {
            let parallel = s.run_with_workers(&tiled, &plan, workers);
            assert_eq!(
                sequential.report,
                parallel.report,
                "{} diverged on tiled source at {workers} workers",
                s.name()
            );
        }
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn tiled_warming_is_bit_identical_to_in_memory() {
    // Below the strategies: warming from the sync and the streaming tile
    // cursor leaves the counters and full snapshot of in-memory warming.
    let w = spec_workload("mcf", Scale::tiny(), 5).unwrap();
    let machine = MachineConfig::for_scale(Scale::tiny());
    let path = std::env::temp_dir().join(format!(
        "delorean-tiled-determinism-{}-warm.dlt",
        std::process::id()
    ));
    let summary = pack_workload_with(&w, 0..30_000, &path, 512).unwrap();
    assert_eq!(summary.records, 30_000);

    let mut reference = Hierarchy::new(&machine);
    reference.warm_range(&w, 0..30_000);
    let reference_snapshot = reference.snapshot();
    for streaming in [false, true] {
        let tiled = TiledTrace::open(&path).unwrap().with_streaming(streaming);
        let mut candidate = Hierarchy::new(&machine);
        candidate.warm_range(&tiled, 0..30_000);
        // Snapshots quiesce outstanding MSHRs, so both sides are
        // snapshotted before their counters are compared.
        assert_eq!(reference_snapshot, candidate.snapshot(), "{streaming}");
        assert_eq!(reference.stats(), candidate.stats(), "{streaming}");
        assert_eq!(reference.l1d().stats(), candidate.l1d().stats());
        assert_eq!(reference.llc().stats(), candidate.llc().stats());
    }
    std::fs::remove_file(&path).unwrap();
}
