//! Golden report digests: the cells the old per-PR bench bins checked
//! against verbatim replicas of older code, pinned as `u64` digests. A
//! strategy cell digests `journal::encode_cell(0, &report)`, which
//! round-trips every `SimulationReport` field bit for bit; warm-loop and
//! explorer cells digest the warmed state and what the analyst consumes.
//! The same cells assert the two modeled gates the old bins enforced.
//!
//! The digests were blessed on a commit where every replica oracle still
//! passed, so a mismatch means a report changed. Only a change that
//! *intends* to change reports may re-bless one: copy the `actual` value
//! from the failure message into the table and record why in CHANGES.md.

use delorean::cache::Hierarchy;
use delorean::prelude::*;
use delorean::shard::{build_strategy, STRATEGY_NAMES};
use delorean::trace::tile::tile_checksum;
use delorean::trace::PhasedWorkload;
use delorean_bench::cells::{
    warm_machines, warmed_state, ExplorerCase, CELL_WORKLOADS, WARM_ACCESSES,
};
use delorean_bench::journal::encode_cell;

/// Region-parallel runtime cells: hmmer at demo scale, 4 regions, at
/// 1/2/4/8 workers. The third column is the 1.7× gate's baseline: the
/// modeled serial seconds (IEEE-754 bits) of the sequential drivers the
/// region scheduler replaced. They charged one running clock, so their
/// sums differ from today's per-unit `RunCost` in the last bits (SMARTS
/// by 0.004%).
const REGION_PARALLEL: [(&str, u64, u64); 5] = [
    ("smarts", 0x2213_92a9_fbdd_8f4a, 0x40a6_3e74_fdf3_b645),
    ("coolsim", 0xa75f_3dc7_f1c8_ad68, 0x405b_deaa_5071_2491),
    ("mrrl", 0x4fa3_cf12_1146_be19, 0x401f_e529_4c1c_01ba),
    ("checkpoint", 0x9b6e_a22f_aa45_ab39, 0x3fe9_9b03_fce4_c28e),
    ("delorean", 0xe48c_150d_775a_9037, 0x403a_484b_adb0_9d98),
];

/// Speculative warm lane cells: hmmer on the demo machine, 4 regions.
/// `chained` is plain SMARTS; each proxy cell folds its report with the
/// per-region speculation outcomes.
const SPECULATIVE: [(&str, u64); 4] = [
    ("chained", 0x2213_92a9_fbdd_8f4a),
    ("cold", 0x7eab_babf_9e0a_1895),
    ("nearest-boundary", 0xb77f_48e8_f691_84df),
    ("statmodel", 0x7c69_da5b_fbbc_d818),
];

/// All five strategies over hmmer at demo scale, 1 region, from the
/// synthetic source and from a packed tile file of the plan's span.
const STRATEGY_TABLE: [(&str, u64); 5] = [
    ("smarts", 0x6164_7e42_9aa9_4c93),
    ("coolsim", 0x9b2e_6f5b_ee4a_4893),
    ("mrrl", 0x2d87_1ccc_59e8_36ac),
    ("checkpoint", 0x7ec9_d3c7_325c_c133),
    ("delorean", 0x41ca_bde8_37cf_f01d),
];

/// Functional warming of 400 000 accesses into a fresh hierarchy.
const WARM_LOOP: [(&str, u64); 9] = [
    ("hmmer/table1", 0xd304_66ac_1535_4590),
    ("hmmer/prefetch", 0xd2f4_3313_90a1_cc46),
    ("hmmer/llc-2mb", 0x23d2_cdf3_e8ff_4f76),
    ("povray/table1", 0x1119_00dc_8d99_0d99),
    ("povray/prefetch", 0x8ef5_e410_5d3b_fd54),
    ("povray/llc-2mb", 0xd16d_7fbf_a376_666b),
    ("mcf/table1", 0xbb42_1692_a7f8_74b9),
    ("mcf/prefetch", 0x5b89_f15d_2bda_fab5),
    ("mcf/llc-2mb", 0x581d_d7c1_69f8_5aa7),
];

/// VDP explorer windows over region 1 of a 2-region demo plan, at the
/// key densities of the real chain, vicinity period 2 000 accesses.
const EXPLORER: [(&str, u64); 6] = [
    ("hmmer/explorer2-vdp", 0x1984_b5f6_59f6_fffc),
    ("hmmer/explorer1-dense", 0xf9e9_2aa4_9f3f_502f),
    ("povray/explorer2-vdp", 0x2780_f3c7_85b2_6355),
    ("povray/explorer1-dense", 0xf9ed_6f5c_3dbd_9ef8),
    ("mcf/explorer2-vdp", 0x68c9_007b_817d_5c76),
    ("mcf/explorer1-dense", 0x8d6c_7463_d3ce_8223),
];

/// Digest of every `SimulationReport` field.
fn report_digest(report: &SimulationReport) -> u64 {
    tile_checksum(&encode_cell(0, report))
}

/// Digest of a flat list of words.
fn words_digest(words: &[u64]) -> u64 {
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    tile_checksum(&bytes)
}

/// Compare computed digests with a golden table, cell by cell, and fail
/// with every mismatching cell named next to both digests.
fn check(group: &str, golden: &[(&str, u64)], actual: &[(String, u64)]) {
    let names: Vec<&str> = actual.iter().map(|(n, _)| n.as_str()).collect();
    let golden_names: Vec<&str> = golden.iter().map(|&(n, _)| n).collect();
    assert_eq!(golden_names, names, "{group}: cell list changed");
    let mismatches: Vec<String> = golden
        .iter()
        .zip(actual)
        .filter(|((_, want), (_, got))| want != got)
        .map(|((name, want), (_, got))| {
            format!("  cell `{group}/{name}`: golden {want:#018x}, actual {got:#018x}")
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "{group}: {} of {} golden digests changed:\n{}",
        mismatches.len(),
        golden.len(),
        mismatches.join("\n")
    );
}

/// hmmer (seed 1) at demo scale with a `regions`-region plan.
fn hmmer_demo(regions: u32) -> (PhasedWorkload, RegionPlan) {
    let plan = SamplingConfig::for_scale(Scale::demo())
        .with_regions(regions)
        .plan();
    (spec_workload("hmmer", Scale::demo(), 1).unwrap(), plan)
}

fn strategy(name: &str) -> Box<dyn SamplingStrategy> {
    build_strategy(name, Scale::demo(), MachineConfig::for_scale(Scale::demo())).unwrap()
}

/// Run `s` at 1/2/4/8 region workers; the report and any speculation
/// outcomes must be bitwise identical at each.
fn run_at_every_worker_count(
    s: &dyn SamplingStrategy,
    w: &dyn Workload,
    plan: &RegionPlan,
) -> StrategyReport {
    let run = s.run_with_workers(w, plan, 1);
    for workers in [2, 4, 8] {
        let other = s.run_with_workers(w, plan, workers);
        assert_eq!(
            (&run.report, run.extras::<SpeculationExtras>()),
            (&other.report, other.extras::<SpeculationExtras>()),
            "{}: workers={workers} changed the run",
            s.name()
        );
    }
    run
}

#[test]
fn region_parallel_cells_match_their_digests_and_the_modeled_gate() {
    let (w, plan) = hmmer_demo(4);
    let mut actual = Vec::new();
    let mut log_speedups = Vec::new();
    for (name, (_, _, bits)) in STRATEGY_NAMES.iter().zip(REGION_PARALLEL) {
        let report = run_at_every_worker_count(&*strategy(name), &w, &plan).into_report();
        log_speedups.push((f64::from_bits(bits) / report.cost.region_parallel_wallclock(4)).ln());
        actual.push((name.to_string(), report_digest(&report)));
    }
    let golden: Vec<_> = REGION_PARALLEL.iter().map(|&(n, d, _)| (n, d)).collect();
    check("region-parallel/hmmer", &golden, &actual);

    let modeled = (log_speedups.iter().sum::<f64>() / log_speedups.len() as f64).exp();
    assert!(
        modeled >= 1.7,
        "modeled geomean speedup {modeled:.3}x at 4 workers is below the 1.7x gate"
    );
}

#[test]
fn speculative_cells_match_their_digests_and_the_modeled_gate() {
    let (w, plan) = hmmer_demo(4);
    let machine = MachineConfig::for_scale(Scale::demo());
    let chained = SmartsRunner::new(machine).run_with_workers(&w, &plan, 1);
    let mut actual = vec![("chained".to_string(), report_digest(&chained.report))];
    let mut statmodel_speedup = 0.0;
    for proxy in [
        ProxyStateSource::Cold,
        ProxyStateSource::NearestBoundary,
        ProxyStateSource::StatModel,
    ] {
        let runner = SmartsRunner::new(machine).with_speculation(proxy);
        let run = run_at_every_worker_count(&runner, &w, &plan);
        assert_eq!(
            chained.report,
            run.report,
            "{}: speculation changed the report",
            proxy.name()
        );
        let outcomes = &run.extras::<SpeculationExtras>().unwrap().outcomes;
        let mut words = vec![report_digest(&run.report)];
        for o in outcomes {
            words.extend([
                u64::from(o.unit),
                u64::from(o.committed),
                o.proxy_seconds.to_bits(),
                o.speculative_seconds.to_bits(),
            ]);
        }
        actual.push((proxy.name().to_string(), words_digest(&words)));
        if proxy == ProxyStateSource::StatModel {
            statmodel_speedup = chained.report.cost.region_parallel_wallclock(1)
                / run.report.cost.speculative_wallclock(4, outcomes);
        }
    }
    check("speculative/hmmer", &SPECULATIVE, &actual);
    assert!(
        statmodel_speedup >= 1.15,
        "statmodel speculative speedup {statmodel_speedup:.3}x at 4 workers is below the 1.15x gate"
    );
}

#[test]
fn strategy_table_matches_its_digests_from_synthetic_and_tiled_sources() {
    let (w, plan) = hmmer_demo(1);
    // Pack the plan's whole instruction span so no strategy reads past
    // the end of the file and the reports stay bit-comparable.
    let span = w.accesses_in_instrs(plan.total_instrs()) + 1;
    let path = std::env::temp_dir().join(format!(
        "delorean-golden-reports-{}.dlt",
        std::process::id()
    ));
    pack_workload(&w, 0..span, &path).unwrap();
    let tiled = TiledTrace::open(&path).unwrap();
    let mut actual = Vec::new();
    for name in STRATEGY_NAMES {
        let s = strategy(name);
        let report = s.run(&w, &plan).into_report();
        assert_eq!(
            report,
            s.run(&tiled, &plan).into_report(),
            "{name}: tiled run diverged"
        );
        actual.push((name.to_string(), report_digest(&report)));
    }
    std::fs::remove_file(&path).unwrap();
    check("strategy-table/hmmer", &STRATEGY_TABLE, &actual);
}

#[test]
fn warm_loop_cells_match_their_digests() {
    let mut actual = Vec::new();
    for name in CELL_WORKLOADS {
        let w = spec_workload(name, Scale::demo(), 1).unwrap();
        for (label, machine) in warm_machines(Scale::demo()) {
            let mut h = Hierarchy::new(&machine);
            h.warm_range(&w, 0..WARM_ACCESSES);
            actual.push((format!("{name}/{label}"), words_digest(&warmed_state(&h))));
        }
    }
    check("warm-loop", &WARM_LOOP, &actual);
}

#[test]
fn explorer_cases_match_their_digests() {
    let mut actual = Vec::new();
    for name in CELL_WORKLOADS {
        let w = spec_workload(name, Scale::demo(), 1).unwrap();
        for case in ExplorerCase::for_workload(&w, Scale::demo()) {
            // Everything the analyst consumes: resolved keys (sorted),
            // the remaining key count, and the vicinity profile.
            let out = case.run(&w);
            let mut resolved = out.resolved.clone();
            resolved.sort_unstable();
            let mut words: Vec<u64> = resolved.iter().flat_map(|&(l, d)| [l.0, d]).collect();
            words.extend([
                out.remaining.len() as u64,
                out.vicinity_count,
                out.vicinity.total_weight().to_bits(),
            ]);
            for lines in [64u64, 1024, 65_536] {
                words.push(out.vicinity.stack_distance(lines).to_bits());
            }
            actual.push((format!("{name}/{}", case.stage), words_digest(&words)));
        }
    }
    check("explorer", &EXPLORER, &actual);
}
