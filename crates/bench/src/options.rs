//! Experiment options and a dependency-free CLI argument parser.

use delorean_trace::{Scale, SPEC2006_NAMES};

/// Options shared by every experiment binary.
#[derive(Clone, Debug)]
pub struct ExpOptions {
    /// Experiment scale (default: demo).
    pub scale: Scale,
    /// Workload suite seed.
    pub seed: u64,
    /// Restrict the suite to names containing this substring.
    pub filter: Option<String>,
    /// Override the region count.
    pub regions: Option<u32>,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            scale: Scale::demo(),
            seed: 42,
            filter: None,
            regions: None,
        }
    }
}

impl ExpOptions {
    /// Quick options for tests: tiny scale, 3 regions.
    pub fn tiny() -> Self {
        ExpOptions {
            scale: Scale::tiny(),
            regions: Some(3),
            ..Default::default()
        }
    }

    /// Parse from `std::env::args`-style strings:
    /// `--scale demo|tiny|paper`, `--seed N`, `--filter NAME`,
    /// `--regions N`.
    ///
    /// # Errors
    ///
    /// Returns a usage message on unknown flags, malformed values, or a
    /// `--filter` that matches no SPEC CPU2006 workload name.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut opts = ExpOptions::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value =
                |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
            match flag.as_str() {
                "--scale" => {
                    opts.scale = match value("--scale")?.as_str() {
                        "paper" => Scale::paper(),
                        "demo" => Scale::demo(),
                        "tiny" => Scale::tiny(),
                        other => return Err(format!("unknown scale '{other}'")),
                    };
                }
                "--seed" => {
                    opts.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("bad seed: {e}"))?;
                }
                "--filter" => opts.filter = Some(value("--filter")?),
                "--regions" => {
                    opts.regions = Some(
                        value("--regions")?
                            .parse()
                            .map_err(|e| format!("bad region count: {e}"))?,
                    );
                }
                other => {
                    return Err(format!(
                        "unknown flag '{other}'; supported: --scale demo|tiny|paper, \
                         --seed N, --filter NAME, --regions N"
                    ))
                }
            }
        }
        if !SPEC2006_NAMES.iter().any(|name| opts.selected(name)) {
            return Err(format!(
                "--filter '{}' matches no workload; valid names: {}",
                opts.filter.as_deref().unwrap_or_default(),
                SPEC2006_NAMES.join(", ")
            ));
        }
        Ok(opts)
    }

    /// Parse the process arguments, exiting with a usage message on error.
    pub fn from_env() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }

    /// `true` if `name` passes the filter.
    pub fn selected(&self, name: &str) -> bool {
        match self.filter.as_deref() {
            None => true,
            Some(f) => name.contains(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ExpOptions, String> {
        ExpOptions::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.scale, Scale::demo());
        assert_eq!(o.seed, 42);
        assert!(o.selected("anything"));
    }

    #[test]
    fn full_flags() {
        let o = parse(&[
            "--scale",
            "tiny",
            "--seed",
            "7",
            "--filter",
            "lbm",
            "--regions",
            "4",
        ])
        .unwrap();
        assert_eq!(o.scale, Scale::tiny());
        assert_eq!(o.seed, 7);
        assert!(o.selected("lbm"));
        assert!(!o.selected("mcf"));
        assert_eq!(o.regions, Some(4));
    }

    #[test]
    fn rejects_unknown() {
        assert!(parse(&["--nope"]).is_err());
        assert!(parse(&["--scale", "giant"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "abc"]).is_err());
        assert!(parse(&["--filter", "nosuch"]).is_err());
    }
}
