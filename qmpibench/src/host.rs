//! Host facts recorded with every result, CPU pinning, and the `/proc`
//! readings (resident memory and CPU time of this process and its
//! `qworker` children).

use std::fs;

const CPU_SET_WORDS: usize = 16; // glibc's cpu_set_t: 1024 bits
const SC_CLK_TCK: i32 = 2;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// CPUs the calling thread may run on.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..CPU_SET_WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Confines the calling thread, and every thread and child process it
/// starts afterwards, to `cpu`. Returns whether the kernel accepted it.
pub fn pin_to(cpu: usize) -> bool {
    if cpu >= CPU_SET_WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size (`VmHWM`) of a process in KiB.
pub fn peak_rss_kib(pid: u32) -> u64 {
    fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Fields of `/proc/<pid>/stat` after the command name.
fn stat_fields(pid: u32) -> Option<Vec<String>> {
    let s = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let after = &s[s.rfind(')')? + 2..];
    Some(after.split_whitespace().map(str::to_string).collect())
}

/// Live child processes of this process whose command is `qworker`.
pub fn qworker_children() -> Vec<u32> {
    let me = std::process::id().to_string();
    let Ok(dir) = fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut pids: Vec<u32> = dir
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&pid| {
            let comm = fs::read_to_string(format!("/proc/{pid}/comm")).unwrap_or_default();
            comm.trim() == "qworker"
                && stat_fields(pid).is_some_and(|f| f.get(1).map(String::as_str) == Some(&me))
        })
        .collect();
    pids.sort_unstable();
    pids
}

/// User plus system CPU time of a process, in milliseconds.
pub fn cpu_ms(pid: u32) -> f64 {
    // SAFETY: sysconf only reads a configuration value.
    let ticks_per_s = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
    stat_fields(pid)
        .and_then(|f| {
            // utime and stime are fields 14 and 15 of stat; the slice
            // starts at field 3 (state).
            let utime: f64 = f.get(11)?.parse().ok()?;
            let stime: f64 = f.get(12)?.parse().ok()?;
            Some((utime + stime) * 1000.0 / ticks_per_s)
        })
        .unwrap_or(0.0)
}

/// Peak resident memory of this process plus its live `qworker` children,
/// in MiB.
pub fn peak_rss_mb() -> f64 {
    let children: u64 = qworker_children().into_iter().map(peak_rss_kib).sum();
    (peak_rss_kib(std::process::id()) + children) as f64 / 1024.0
}
