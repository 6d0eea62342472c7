//! Process CPU time, peak memory and thread count from `/proc/self`.

/// `USER_HZ`, the unit of the CPU fields in `/proc/<pid>/stat`. The
/// kernel fixes it at 100 for every user-space ABI Linux supports.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds from the text of `/proc/<pid>/stat`.
/// Fields are counted after the `)` closing the command name, which may
/// itself hold spaces or parentheses.
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the name: state(3) ppid(4) ... utime(14) stime(15).
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / CLOCK_TICKS_PER_S)
}

/// A `kB` field such as `VmHWM:` or a count such as `Threads:` from the
/// text of `/proc/<pid>/status`.
pub fn parse_status_field(status: &str, field: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// CPU seconds this process has used so far, on all threads.
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat_cpu_s(&stat).expect("parse /proc/self/stat")
}

fn status(field: &str) -> u64 {
    let text = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_status_field(&text, field).unwrap_or_else(|| panic!("no {field} in /proc/self/status"))
}

/// Peak resident set size so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    status("VmHWM") as f64 / 1024.0
}

/// Threads this process runs right now.
pub fn threads() -> u64 {
    status("Threads")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_fields_after_odd_command_name() {
        let stat = "4242 (perf bench) (x)) S 1 4242 4242 0 -1 4194560 2000 0 0 0 \
                    350 125 0 0 20 0 9 0 12345 1000000 500 18446744073709551615";
        assert_eq!(parse_stat_cpu_s(stat), Some(4.75));
        assert_eq!(parse_stat_cpu_s("12 (x) S 1"), None);
        assert_eq!(parse_stat_cpu_s("no parens"), None);
    }

    #[test]
    fn status_fields() {
        let status = "Name:\tperfbench\nVmPeak:\t  812345 kB\nVmHWM:\t   204800 kB\n\
                      VmRSS:\t   102400 kB\nThreads:\t17\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(204_800));
        assert_eq!(parse_status_field(status, "Threads"), Some(17));
        assert_eq!(parse_status_field(status, "VmSwap"), None);
    }

    #[test]
    fn live_process_reads() {
        assert!(cpu_s() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(threads() >= 1);
    }
}
