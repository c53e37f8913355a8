//! Process counters from `/proc/self`.

/// Clock ticks per second for `/proc/<pid>/stat` CPU times. Linux fixes
/// `USER_HZ` at 100 on every architecture it exports to user space.
const USER_HZ: f64 = 100.0;

/// CPU time and page faults of this process so far.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Usage {
    /// User CPU seconds.
    pub user_s: f64,
    /// Kernel CPU seconds.
    pub sys_s: f64,
    /// Minor page faults.
    pub minor_faults: u64,
}

impl Usage {
    /// Reads `/proc/self/stat`; zeros where it cannot be read.
    pub fn now() -> Self {
        std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| parse_stat(&s))
            .unwrap_or_default()
    }

    /// The usage accrued since `earlier`.
    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults.saturating_sub(earlier.minor_faults),
        }
    }
}

/// Parses the fields after the command name, which may itself hold
/// spaces and parentheses: minflt is field 10, utime 14, stime 15.
fn parse_stat(stat: &str) -> Option<Usage> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state).
    let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    Some(Usage {
        minor_faults: field(10)?,
        user_s: field(14)? as f64 / USER_HZ,
        sys_s: field(15)? as f64 / USER_HZ,
    })
}

/// Peak resident set size (`VmHWM`) in MB; 0 where it cannot be read.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the peak resident set size to the current one, so a later
/// [`peak_rss_mb`] covers only what ran after the call. Returns whether
/// the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// CPU time the hypervisor gave other guests while this machine wanted
/// it (`steal` in `/proc/stat`), in seconds summed over cores.
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s.lines().next()?.strip_prefix("cpu ")?;
            cpu.split_whitespace().nth(7)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / USER_HZ)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_skips_odd_command_names() {
        let line = "42 (a (b) c) S 1 2 3 4 5 6 777 8 9 10 250 130 0 0 20 0 1 0 100";
        let u = parse_stat(line).unwrap();
        assert_eq!(u.minor_faults, 777);
        assert_eq!(u.user_s, 2.5);
        assert_eq!(u.sys_s, 1.3);
    }

    #[test]
    fn this_process_has_counters() {
        assert!(peak_rss_mb() > 0.0);
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        let with_big = peak_rss_mb();
        drop(big);
        if reset_peak_rss() {
            assert!(
                peak_rss_mb() < with_big - 32.0,
                "the reset drops the old peak"
            );
        }
        let u = Usage::now();
        assert!(u.minor_faults > 0);
        assert!(nproc() >= 1);
    }
}
