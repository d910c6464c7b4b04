//! Per-crate lint policy: which rules bind where.
//!
//! The workspace's determinism contract is not uniform — the hot
//! simulation crates must be order-deterministic and panic-free, the
//! bench harness is *supposed* to read wall clocks, and the compat
//! shims mirror third-party APIs whose panicking contracts they cannot
//! change. This module encodes that split in one place so every rule
//! asks the same question: *does this rule bind for this file?*

/// Policy group of a crate.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CrateKind {
    /// Hot simulation crates carrying the determinism contract:
    /// `delorean_trace`, `delorean_cache`, `delorean_core`,
    /// `delorean_statmodel`, `delorean_sampling`, `delorean_virt`.
    Hot,
    /// Library crates outside the per-access hot path (`delorean_cpu`,
    /// the root `delorean` facade, `delorean_lint`'s own library).
    Lib,
    /// The measurement harness (`delorean_bench`): wall clocks and
    /// `expect` on I/O are its job.
    Bench,
    /// Offline stand-ins for third-party crates (`crates/compat/*`):
    /// they mirror external API contracts, including panics, but still
    /// carry the safety-comment contract.
    Compat,
}

/// Which compilation class a `.rs` file belongs to within its crate.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FileClass {
    /// `src/` library code (minus `src/bin/`).
    Lib,
    /// `src/bin/` or a single-file binary target.
    Bin,
    /// `tests/` integration tests.
    Tests,
    /// `benches/` benchmarks.
    Benches,
    /// `examples/`.
    Examples,
}

impl FileClass {
    /// Human-readable name used in the JSON report.
    pub fn name(self) -> &'static str {
        match self {
            FileClass::Lib => "lib",
            FileClass::Bin => "bin",
            FileClass::Tests => "tests",
            FileClass::Benches => "benches",
            FileClass::Examples => "examples",
        }
    }
}

/// Classify a package name into its policy group.
pub fn crate_kind(package: &str) -> CrateKind {
    match package {
        "delorean_trace" | "delorean_cache" | "delorean_core" | "delorean_statmodel"
        | "delorean_sampling" | "delorean_virt" => CrateKind::Hot,
        "delorean_bench" => CrateKind::Bench,
        // The compat shims keep their upstream names.
        "serde" | "serde_derive" | "crossbeam" | "rayon" | "criterion" | "memmap2" => {
            CrateKind::Compat
        }
        _ => CrateKind::Lib,
    }
}

/// The crates whose float accumulation must flow through the fixed
/// summation-tree helpers (`sampling::reduce_region_units` feeding
/// `virt::HostClock`/`RunCost`): everything that aggregates *across*
/// region units. `delorean_statmodel` is exempt — its float math is
/// per-access model arithmetic evaluated in a fixed sequential order,
/// never a cross-worker reduction.
pub fn float_accum_binds(package: &str) -> bool {
    matches!(
        package,
        "delorean_sampling" | "delorean_core" | "delorean_virt"
    )
}

/// The crates whose integer casts must be provably lossless or go
/// through `delorean_trace::cast` helpers: the two per-access hot-path
/// crates where a silent truncation corrupts simulation state rather
/// than a report string.
pub fn lossy_cast_binds(package: &str) -> bool {
    matches!(package, "delorean_trace" | "delorean_cache")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups() {
        assert_eq!(crate_kind("delorean_trace"), CrateKind::Hot);
        assert_eq!(crate_kind("delorean_cpu"), CrateKind::Lib);
        assert_eq!(crate_kind("delorean"), CrateKind::Lib);
        assert_eq!(crate_kind("delorean_bench"), CrateKind::Bench);
        assert_eq!(crate_kind("memmap2"), CrateKind::Compat);
        assert!(float_accum_binds("delorean_virt"));
        assert!(!float_accum_binds("delorean_statmodel"));
        assert!(lossy_cast_binds("delorean_cache"));
        assert!(!lossy_cast_binds("delorean_core"));
    }
}
