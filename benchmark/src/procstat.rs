//! What the kernel knows about this process: CPU time, peak memory,
//! usable cores. Linux `/proc` only — the benchmark's reference box.

use std::time::Duration;

/// `/proc` reports CPU time in clock ticks of `USER_HZ`, which Linux
/// fixes at 100 on every architecture it exposes it for.
const TICKS_PER_SEC: u64 = 100;

/// User + system CPU time of this process and of every descendant it has
/// waited for (`utime + stime + cutime + cstime` of `/proc/self/stat`).
/// Resolution is one tick (10 ms).
pub fn cpu_time() -> std::io::Result<Duration> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    parse_stat_cpu(&stat)
        .ok_or_else(|| std::io::Error::other("unparseable /proc/self/stat"))
        .map(|ticks| Duration::from_millis(ticks * 1000 / TICKS_PER_SEC))
}

/// Sum of fields 14–17 of a `/proc/<pid>/stat` line. The command name
/// (field 2) may contain spaces and parentheses, so fields are counted
/// from the *last* `)`.
fn parse_stat_cpu(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime is field 14.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut sum = 0u64;
    for _ in 0..4 {
        sum += fields.next()?.parse::<u64>().ok()?;
    }
    Some(sum)
}

fn status_kib(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()
}

/// Peak resident set of this process in KiB (`VmHWM`), 0 when `/proc`
/// does not say.
pub fn peak_rss_kib() -> u64 {
    status_kib("VmHWM:").unwrap_or(0)
}

/// Current resident set of this process in KiB (`VmRSS`), 0 when `/proc`
/// does not say.
pub fn rss_kib() -> u64 {
    status_kib("VmRSS:").unwrap_or(0)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_fields_survive_hostile_command_names() {
        let line = "4242 (a b) c) R 1 2 3 4 5 6 7 8 9 10 11 22 33 44 0 0 0";
        assert_eq!(parse_stat_cpu(line), Some(11 + 22 + 33 + 44));
        assert_eq!(parse_stat_cpu("1 (x) R 1 2"), None);
        assert_eq!(parse_stat_cpu("garbage"), None);
    }

    #[test]
    fn this_process_has_cpu_time_memory_and_a_core() {
        assert!(cpu_time().is_ok());
        // Other tests allocate meanwhile: read the peak after the level.
        let rss = rss_kib();
        assert!(rss > 0 && peak_rss_kib() >= rss);
        assert!(nproc() >= 1);
    }
}
