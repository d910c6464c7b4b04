//! Warm-loop and explorer cells shared by `bench_gates`, which times
//! them, and the root `tests/golden_reports.rs`, which pins their
//! results.

use delorean_cache::{Hierarchy, MachineConfig};
use delorean_core::explorer::{pending_from_keyset, run_explorer, ExplorerOutcome, PendingKey};
use delorean_core::scout::scout_region;
use delorean_core::DeLoreanConfig;
use delorean_sampling::{Region, SamplingConfig};
use delorean_trace::{Scale, Workload};
use delorean_virt::{CostModel, HostClock};

/// Workloads of the warm-loop and explorer cells (seed 1, demo scale).
pub const CELL_WORKLOADS: [&str; 3] = ["hmmer", "povray", "mcf"];

/// Accesses warmed into a fresh hierarchy per warm-loop cell.
pub const WARM_ACCESSES: u64 = 400_000;

/// The warm-loop machines: Table 1, the stride prefetcher on, and a
/// 2 MiB LLC (heavier MSHR churn and evictions).
pub fn warm_machines(scale: Scale) -> [(&'static str, MachineConfig); 3] {
    let table1 = MachineConfig::for_scale(scale);
    [
        ("table1", table1),
        ("prefetch", table1.with_prefetch(true)),
        ("llc-2mb", table1.with_llc_paper_bytes(scale, 2 << 20)),
    ]
}

/// A warmed hierarchy's [`Hierarchy::state_digest`] followed by every
/// hierarchy, L1-D and LLC statistics counter.
pub fn warmed_state(h: &Hierarchy) -> Vec<u64> {
    let s = h.stats();
    let mut words = vec![
        h.state_digest(),
        s.l1d_hits,
        s.mshr_hits,
        s.llc_hits,
        s.memory,
        s.l1i_misses,
        s.prefetches_issued,
        s.prefetches_nullified,
    ];
    for c in [h.l1d().stats(), h.llc().stats()] {
        words.extend([c.hits, c.misses, c.evictions]);
    }
    words
}

/// One VDP explorer window over region 1 of a 2-region plan, at a key
/// density of the real DSW chain.
#[derive(Clone, Debug)]
pub struct ExplorerCase {
    /// `explorer2-vdp` (sparse keys) or `explorer1-dense` (every key).
    pub stage: &'static str,
    /// The region whose pre-history is scanned.
    pub region: Region,
    /// Pending key watchpoints.
    pub pending: Vec<PendingKey>,
    /// Window length in instructions.
    pub window_instrs: u64,
}

impl ExplorerCase {
    /// Explorer-2's window watching the keys Explorer-1 left unresolved
    /// (every 16th Scout key if none), and Explorer-1's window watching
    /// every Scout key.
    pub fn for_workload(workload: &dyn Workload, scale: Scale) -> [ExplorerCase; 2] {
        let machine = MachineConfig::for_scale(scale);
        let windows = DeLoreanConfig::for_scale(scale).explorer_windows_instrs;
        let cost = CostModel::paper_host();
        let plan = SamplingConfig::for_scale(scale).with_regions(2).plan();
        let region = plan.regions[1].clone();
        let mut clock = HostClock::new();
        let scout = scout_region(workload, &machine, &cost, &mut clock, &region, 0, 1);
        let all = pending_from_keyset(&scout.keyset);
        let e1 = run_explorer(
            workload, &cost, &mut clock, 0, windows[0], 0, &region, &all, 5_000, 7, 1,
        );
        let sparse = if e1.remaining.is_empty() {
            all.iter().copied().step_by(16).collect()
        } else {
            e1.remaining
        };
        let case = |stage, pending, window: u64| ExplorerCase {
            stage,
            region: region.clone(),
            pending,
            window_instrs: window.min(region.start_instr),
        };
        [
            case("explorer2-vdp", sparse, windows[1]),
            case("explorer1-dense", all, windows[0]),
        ]
    }

    /// Accesses the window scans.
    pub fn span(&self, workload: &dyn Workload) -> u64 {
        let start = self.region.start_instr.saturating_sub(self.window_instrs);
        workload.access_index_at_instr(self.region.start_instr)
            - workload.access_index_at_instr(start)
    }

    /// Run the window with VDP probes, vicinity period 2 000 accesses.
    pub fn run(&self, workload: &dyn Workload) -> ExplorerOutcome {
        run_explorer(
            workload,
            &CostModel::paper_host(),
            &mut HostClock::new(),
            1,
            self.window_instrs,
            0,
            &self.region,
            &self.pending,
            2_000,
            7,
            1,
        )
    }
}
