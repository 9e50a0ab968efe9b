//! Host facts and peak resident memory.

use std::fs;

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one), in
/// MiB; `None` when `/proc` does not have it.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s, then 14
/// `long` fields, the first of which is `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// The largest peak resident set among the child processes this process
/// has waited for, in MiB.
pub fn children_peak_rss_mb() -> Option<f64> {
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value with the layout of Linux's
    // 64-bit `struct rusage` (144 bytes), which is all `getrusage` writes.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    (rc == 0 && usage.maxrss > 0).then(|| usage.maxrss as f64 / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Host name and CPU model, for the result record.
pub fn host() -> String {
    let name = fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown cpu".into());
    format!("{name} ({cpu})")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_probes_read_real_values() {
        assert!(peak_rss_mb("self").is_some_and(|m| m > 0.0));
        let status = std::process::Command::new("true")
            .status()
            .expect("spawn true");
        assert!(status.success());
        assert!(children_peak_rss_mb().is_some_and(|m| m > 0.0));
    }
}
