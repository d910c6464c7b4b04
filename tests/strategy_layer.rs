//! The SamplingStrategy execution layer: trait-object dispatch must be
//! invisible (byte-identical reports vs direct runner calls) and the
//! parallel batch executor must be deterministic for any worker count.

use delorean::prelude::*;

fn scale() -> Scale {
    Scale::tiny()
}

fn plan() -> RegionPlan {
    SamplingConfig::for_scale(scale()).with_regions(3).plan()
}

/// All five strategies as boxed trait objects on one machine.
fn strategies(machine: MachineConfig) -> Vec<Box<dyn SamplingStrategy>> {
    vec![
        Box::new(SmartsRunner::new(machine)),
        Box::new(CoolSimRunner::new(
            machine,
            CoolSimConfig::for_scale(scale()),
        )),
        Box::new(MrrlRunner::new(machine)),
        Box::new(CheckpointWarmingRunner::new(machine)),
        Box::new(DeLoreanRunner::new(
            machine,
            DeLoreanConfig::for_scale(scale()),
        )),
    ]
}

/// Byte-identical comparison: the full Debug rendering covers every
/// field, including cost passes and floating-point metrics.
fn fingerprint(report: &SimulationReport) -> String {
    format!("{report:?}")
}

#[test]
fn trait_object_dispatch_is_byte_identical_to_direct_calls() {
    let machine = MachineConfig::for_scale(scale());
    let plan = plan();
    let w = spec_workload("hmmer", scale(), 42).unwrap();

    // Direct calls on the concrete runner types...
    let direct = [
        SmartsRunner::new(machine).run(&w, &plan).into_report(),
        CoolSimRunner::new(machine, CoolSimConfig::for_scale(scale()))
            .run(&w, &plan)
            .into_report(),
        MrrlRunner::new(machine).run(&w, &plan).into_report(),
        CheckpointWarmingRunner::new(machine)
            .run(&w, &plan)
            .into_report(),
        DeLoreanRunner::new(machine, DeLoreanConfig::for_scale(scale()))
            .run(&w, &plan)
            .into_report(),
    ];

    // ...must match dispatch through Box<dyn SamplingStrategy> exactly.
    for (boxed, direct) in strategies(machine).iter().zip(&direct) {
        let via_trait = boxed.run(&w, &plan).into_report();
        assert_eq!(via_trait.strategy, boxed.name());
        assert_eq!(
            fingerprint(&via_trait),
            fingerprint(direct),
            "trait dispatch changed the result of {}",
            boxed.name()
        );
    }
}

#[test]
fn batch_executor_is_deterministic_across_thread_counts() {
    let machine = MachineConfig::for_scale(scale());
    let plan = plan();
    let strategies = strategies(machine);
    let workloads: Vec<_> = ["bwaves", "mcf"]
        .iter()
        .map(|n| spec_workload(n, scale(), 42).unwrap())
        .collect();

    let serial = BatchExecutor::with_threads(1).run_matrix(&strategies, &workloads, &plan);
    for threads in [2, 3, 8] {
        let parallel =
            BatchExecutor::with_threads(threads).run_matrix(&strategies, &workloads, &plan);
        assert_eq!(parallel.len(), serial.len());
        for (srow, prow) in serial.iter().zip(&parallel) {
            for (s, p) in srow.iter().zip(prow) {
                assert_eq!(
                    fingerprint(s),
                    fingerprint(p),
                    "threads={threads} changed {}/{}",
                    s.workload,
                    s.strategy
                );
            }
        }
    }
}

#[test]
fn batch_executor_matches_direct_trait_calls() {
    let machine = MachineConfig::for_scale(scale());
    let plan = plan();
    let strategies = strategies(machine);
    let workloads: Vec<_> = ["namd", "lbm"]
        .iter()
        .map(|n| spec_workload(n, scale(), 42).unwrap())
        .collect();

    let matrix = BatchExecutor::new().run_matrix(&strategies, &workloads, &plan);
    for (w, row) in workloads.iter().zip(&matrix) {
        for (s, cell) in strategies.iter().zip(row) {
            let direct = s.run(w, &plan);
            assert_eq!(fingerprint(cell), fingerprint(&direct));
        }
    }
}

#[test]
fn executor_preserves_strategy_extras() {
    let machine = MachineConfig::for_scale(scale());
    let plan = plan();
    let strategies = strategies(machine);
    let w = spec_workload("gamess", scale(), 42).unwrap();
    let reports = BatchExecutor::new().run_strategies(&strategies, &w, &plan);

    // Checkpoint extras: storage + preparation cost.
    let cw = reports[3]
        .extras::<delorean::sampling::CheckpointExtras>()
        .expect("checkpoint extras survive the executor");
    assert!(cw.storage_bytes > 0);
    assert!(cw.preparation_seconds > 0.0);

    // DeLorean extras: TT stats + DSW counts, recoverable as an output.
    let delorean = reports.into_iter().nth(4).unwrap();
    let out: DeLoreanOutput = delorean.try_into().expect("delorean extras");
    assert_eq!(out.stats.regions, plan.regions.len() as u64);

    // Baselines carry no extras.
    let smarts = SmartsRunner::new(machine).run(&w, &plan);
    assert!(smarts.extras::<DeLoreanExtras>().is_none());
}

#[test]
fn pipelined_trait_run_matches_serial_oracle() {
    // The serial runner is the oracle: the trait entry point (pipelined,
    // multi-threaded) must reproduce it exactly.
    let machine = MachineConfig::for_scale(scale());
    let plan = plan();
    let runner = DeLoreanRunner::new(machine, DeLoreanConfig::for_scale(scale()));
    let w = spec_workload("zeusmp", scale(), 42).unwrap();
    let serial = runner.run_serial(&w, &plan);
    let piped: DeLoreanOutput = runner.run(&w, &plan).try_into().unwrap();
    assert_eq!(fingerprint(&serial.report), fingerprint(&piped.report));
    assert_eq!(serial.stats, piped.stats);
    assert_eq!(serial.dsw_counts, piped.dsw_counts);
}

#[test]
fn default_executor_matches_the_serial_matrix_under_nested_parallelism() {
    // The default executor runs one cell per core while DeLorean (host
    // region workers) and speculative SMARTS (2 region workers) lease
    // their own helpers from the same budget: still pure scheduling.
    let machine = MachineConfig::for_scale(scale());
    let plan = SamplingConfig::for_scale(scale()).with_regions(4).plan();
    let mut strategies = strategies(machine);
    strategies.push(Box::new(
        SmartsRunner::new(machine)
            .with_speculation(ProxyStateSource::StatModel)
            .with_region_workers(2),
    ));
    let workloads: Vec<_> = ["mcf", "hmmer", "soplex"]
        .iter()
        .map(|n| spec_workload(n, scale(), 42).unwrap())
        .collect();

    let serial = BatchExecutor::with_threads(1).run_matrix(&strategies, &workloads, &plan);
    let default = BatchExecutor::new().run_matrix(&strategies, &workloads, &plan);
    for (srow, drow) in serial.iter().zip(&default) {
        for (s, d) in srow.iter().zip(drow) {
            assert_eq!(s.strategy, d.strategy);
            assert_eq!(
                fingerprint(s),
                fingerprint(d),
                "the default executor changed {}/{}",
                s.workload,
                s.strategy
            );
        }
    }
}
