//! Host facts: memory high-water marks and the core count.

/// Peak resident set size (`VmHWM`) in MiB of this process (`None`) or of
/// another process on the host.
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        None => "/proc/self/status".to_string(),
        Some(pid) => format!("/proc/{pid}/status"),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
