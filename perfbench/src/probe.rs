//! Host probes: the monotonic clock, resident-set high-water marks,
//! process CPU time and the host record printed with every run.
//!
//! All host clock reads of the benchmark go through [`now`], so the
//! one `no-wallclock` waiver below covers them.

use std::time::Instant;

/// Read the host monotonic clock.
pub fn now() -> Instant {
    // lint:allow(no-wallclock): the benchmark times the library from outside; no clock reading feeds a simulated report
    Instant::now()
}

/// Seconds since `t`.
pub fn since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Resident-set high-water mark (`VmHWM`) of a process, in MiB.
/// `pid` `None` reads this process.
pub fn peak_rss_mib(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kib: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .map_err(|e| format!("{path}: VmHWM: {e}"))?;
            return Ok(kib / 1024.0);
        }
    }
    Err(format!("{path}: no VmHWM line"))
}

/// User plus system CPU seconds this process has used, all threads.
///
/// `/proc/self/stat` counts in clock ticks; Linux fixes `USER_HZ` at
/// 100 on every architecture the repository builds for.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("read /proc/self/stat: {e}"))?;
    // The command name may hold spaces; fields resume after its `)`.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After `)`: state is field 3 overall, so utime (14) and stime (15)
    // sit at offsets 11 and 12.
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .ok_or("short /proc/self/stat")?
            .parse::<f64>()
            .map_err(|e| format!("/proc/self/stat: {e}"))
    };
    Ok((tick(11)? + tick(12)?) / 100.0)
}

/// Worker threads the host offers this process.
pub fn parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The first `model name` in `/proc/cpuinfo`, or `"unknown"`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Median of `values` (mean of the middle pair for even counts); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}
