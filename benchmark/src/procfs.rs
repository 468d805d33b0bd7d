//! Host memory and CPU readings from `/proc/self`.
//!
//! Parsing is separate from reading so it can be tested on fixed text; a
//! missing or unparsable file yields `None` and the metric is reported as
//! absent instead of as a made-up number.

/// Kernel clock ticks per second for `/proc/self/stat` times. `USER_HZ` is
/// 100 on every Linux ABI; reading it properly needs `sysconf`, which std
/// does not expose.
const TICKS_PER_SECOND: f64 = 100.0;

/// The value of a `Key:   123 kB` line of `/proc/self/status`, in KiB.
fn status_kib(status: &str, key: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?;
    let mut fields = rest.split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

/// Peak resident set size in MiB: `VmHWM`, or the current `VmRSS` on a
/// kernel that does not report the high-water mark.
pub fn parse_peak_rss_mib(status: &str) -> Option<f64> {
    let kib = status_kib(status, "VmHWM").or_else(|| status_kib(status, "VmRSS"))?;
    Some(kib as f64 / 1024.0)
}

/// User plus system CPU seconds from the text of `/proc/self/stat`.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    // The command name (field 2) may contain spaces and parentheses; the
    // numeric fields start after the last ')'. utime and stime are fields
    // 14 and 15, i.e. the 12th and 13th after the command.
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SECOND)
}

/// Nanoseconds this task has spent on a CPU: the first field of
/// `/proc/self/schedstat`. Time the hypervisor gave to another guest
/// (steal) is not in it, unlike in wall-clock time.
pub fn parse_on_cpu_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_whitespace().next()?.parse().ok()
}

/// Seconds this task has spent on a CPU since it started: from
/// `schedstat` (nanoseconds), else from `stat` (10 ms ticks).
pub fn on_cpu_seconds() -> Option<f64> {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    read("/proc/self/schedstat")
        .and_then(|s| parse_on_cpu_ns(&s))
        .map(|ns| ns as f64 / 1e9)
        .or_else(|| parse_cpu_seconds(&read("/proc/self/stat")?))
}

pub fn peak_rss_mib() -> Option<f64> {
    parse_peak_rss_mib(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tteraheap-benchm\nVmPeak:\t  204800 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40960 kB\nThreads:\t1\n";

    #[test]
    fn peak_rss_prefers_the_high_water_mark() {
        assert_eq!(parse_peak_rss_mib(STATUS), Some(50.0));
    }

    #[test]
    fn peak_rss_falls_back_to_current_rss() {
        let no_hwm = STATUS.replace("VmHWM", "VmXXX");
        assert_eq!(parse_peak_rss_mib(&no_hwm), Some(40.0));
    }

    #[test]
    fn malformed_status_is_absent() {
        assert_eq!(parse_peak_rss_mib(""), None);
        assert_eq!(parse_peak_rss_mib("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_peak_rss_mib("VmHWM:\t12 pages\n"), None);
        // A key that merely starts with the name is not the key.
        assert_eq!(parse_peak_rss_mib("VmHWMx:\t12 kB\n"), None);
    }

    #[test]
    fn cpu_seconds_skips_a_hostile_command_name() {
        let stat = "4242 (bench (v2) x) R 1 4242 4242 0 -1 4194304 900 0 0 0 150 25 0 0 20 0 1 0 100 1000 10";
        assert_eq!(parse_cpu_seconds(stat), Some(1.75));
    }

    #[test]
    fn on_cpu_time_is_the_first_schedstat_field() {
        assert_eq!(
            parse_on_cpu_ns("3301529000 4457014 17\n"),
            Some(3_301_529_000)
        );
        assert_eq!(parse_on_cpu_ns(""), None);
        assert_eq!(parse_on_cpu_ns("soon 1 2"), None);
    }

    #[test]
    fn malformed_stat_is_absent() {
        assert_eq!(parse_cpu_seconds(""), None);
        assert_eq!(parse_cpu_seconds("1 (x) R 1 2 3"), None);
        assert_eq!(parse_cpu_seconds("1 (x) R 1 2 3 4 5 6 7 8 9 10 u s"), None);
    }

    #[test]
    fn live_readings_are_plausible_or_absent() {
        // On Linux both files exist; elsewhere both readings are absent.
        if let Some(mib) = peak_rss_mib() {
            assert!(mib > 0.0);
        }
        if let Some(s) = on_cpu_seconds() {
            assert!(s >= 0.0);
        }
    }
}
