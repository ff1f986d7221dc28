//! Process-wide CPU time and peak memory, read from `/proc/self`.

use std::fs;

/// CPU time (user + system) consumed so far by every thread of this
/// process, live or exited, in nanoseconds: `utime + stime` from
/// `/proc/self/stat`.
///
/// The kernel reports these in clock ticks of 10 ms, so one short call
/// is timed too coarsely; callers sum many calls, over which the
/// truncation errors cancel.
///
/// # Errors
///
/// Fails when the file cannot be read or parsed.
pub fn cpu_ns() -> Result<u64, String> {
    let text =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // Fields after the parenthesized command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let fields: Vec<&str> = text
        .rfind(')')
        .map(|end| text[end + 1..].split_whitespace().collect())
        .unwrap_or_default();
    let ticks = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .ok_or_else(|| format!("/proc/self/stat: no field {}", i + 3))
    };
    Ok((ticks(11)? + ticks(12)?) * (1_000_000_000 / USER_HZ))
}

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`,
/// fixed at 100 by the Linux ABI).
const USER_HZ: u64 = 100;

/// The process's peak resident set size (`VmHWM`) in MiB.
///
/// # Errors
///
/// Fails when `/proc/self/status` cannot be read or has no `VmHWM`.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work() {
        let before = cpu_ns().expect("cpu time readable");
        let mut x = 0u64;
        for i in 0..200_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu_ns().expect("cpu time readable") > before);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib().expect("VmHWM readable") > 0.0);
    }
}
