//! Host and provenance facts printed with every result.

use mlss_core::simd::Backend;

/// `nproc`, as the standard library sees it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The active SIMD backend, with the `MLSS_SIMD` override if one is set.
pub fn simd() -> String {
    let active = format!("{:?}", Backend::active());
    match std::env::var("MLSS_SIMD") {
        Ok(v) => format!("{active} (MLSS_SIMD={v})"),
        Err(_) => format!("{active} (MLSS_SIMD unset)"),
    }
}

/// The source revision: `DURABENCH_REV` when the launcher found a git
/// checkout, `unknown` otherwise.
pub fn rev() -> String {
    std::env::var("DURABENCH_REV")
        .ok()
        .filter(|r| !r.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Jiffies the machine's CPUs have spent in total and stolen by the
/// hypervisor (the `cpu` line of `/proc/stat`).
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((fields.iter().sum(), *fields.get(7)?))
}

/// `_SC_CLK_TCK` from `<unistd.h>` (Linux).
const SC_CLK_TCK: i32 = 2;

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// CPU time (user + system, all threads) process `pid` has used, in
/// seconds. Time the hypervisor stole is not charged to it.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name, from field 3 (state).
    let rest: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    let utime: u64 = rest.get(11)?.parse().ok()?;
    let stime: u64 = rest.get(12)?.parse().ok()?;
    // SAFETY: sysconf reads a configuration value and has no
    // preconditions.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    (ticks > 0).then(|| (utime + stime) as f64 / ticks as f64)
}

/// Peak resident set (VmHWM) of process `pid`, in MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
