//! Resource accounting from `/proc`, for this process and the worker
//! processes it spawned (found by parent pid), so that the in-process and
//! the TCP workloads are charged alike.

use std::fs;

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`. Fixed at 100
/// on Linux for every architecture this runs on.
const TICKS_PER_S: f64 = 100.0;

/// Cumulative counters of a set of processes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    pub user_ms: f64,
    pub sys_ms: f64,
    pub minor_faults: u64,
    pub vol_ctxsw: u64,
    pub invol_ctxsw: u64,
}

impl Usage {
    pub fn cpu_ms(&self) -> f64 {
        self.user_ms + self.sys_ms
    }

    /// `self − earlier`, field by field.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_ms: self.user_ms - earlier.user_ms,
            sys_ms: self.sys_ms - earlier.sys_ms,
            minor_faults: self.minor_faults.saturating_sub(earlier.minor_faults),
            vol_ctxsw: self.vol_ctxsw.saturating_sub(earlier.vol_ctxsw),
            invol_ctxsw: self.invol_ctxsw.saturating_sub(earlier.invol_ctxsw),
        }
    }
}

/// Fields of `/proc/<pid>/stat` after the parenthesised command name
/// (which may itself contain spaces); index 0 is the state, so `ppid` is 1,
/// `minflt` 7, `utime` 11, `stime` 12.
fn stat_fields(stat: &str) -> Vec<&str> {
    stat.rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default()
}

fn status_value(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// This process followed by its live children.
pub fn process_tree() -> Vec<u32> {
    let me = std::process::id();
    let mut pids = vec![me];
    let Ok(dir) = fs::read_dir("/proc") else {
        return pids;
    };
    for entry in dir.flatten() {
        let Some(pid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        let Ok(stat) = fs::read_to_string(format!("/proc/{pid}/stat")) else {
            continue;
        };
        if stat_fields(&stat).get(1).and_then(|p| p.parse().ok()) == Some(me) {
            pids.push(pid);
        }
    }
    pids
}

/// Sums CPU time, faults and context switches over `pids`. Context switches
/// are per thread in `/proc`, so every task of every process is visited.
pub fn usage(pids: &[u32]) -> Usage {
    let mut u = Usage::default();
    for pid in pids {
        if let Ok(stat) = fs::read_to_string(format!("/proc/{pid}/stat")) {
            let f = stat_fields(&stat);
            let num = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
            u.minor_faults += num(7);
            u.user_ms += num(11) as f64 * 1000.0 / TICKS_PER_S;
            u.sys_ms += num(12) as f64 * 1000.0 / TICKS_PER_S;
        }
        let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) else {
            continue;
        };
        for task in tasks.flatten() {
            if let Ok(status) = fs::read_to_string(task.path().join("status")) {
                u.vol_ctxsw += status_value(&status, "voluntary_ctxt_switches").unwrap_or(0);
                u.invol_ctxsw += status_value(&status, "nonvoluntary_ctxt_switches").unwrap_or(0);
            }
        }
    }
    u
}

/// Live threads across `pids`.
pub fn threads(pids: &[u32]) -> u64 {
    pids.iter()
        .filter_map(|pid| fs::read_to_string(format!("/proc/{pid}/status")).ok())
        .filter_map(|s| status_value(&s, "Threads"))
        .sum()
}

/// Σ peak resident set (`VmHWM`) over `pids`, MiB.
pub fn rss_peak_mib(pids: &[u32]) -> f64 {
    pids.iter()
        .filter_map(|pid| fs::read_to_string(format!("/proc/{pid}/status")).ok())
        .filter_map(|s| status_value(&s, "VmHWM"))
        .sum::<u64>() as f64
        / 1024.0
}

pub fn kernel_release() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_survives_spaces_in_the_command_name() {
        let stat = "123 (my (odd) name) S 77 123 123 0 -1 4194304 10 0 5 0 42 17 0 0 20 0 3 0";
        let f = stat_fields(stat);
        assert_eq!(f[0], "S");
        assert_eq!(f[1], "77");
        assert_eq!(f[7], "10");
        assert_eq!((f[11], f[12]), ("42", "17"));
    }

    #[test]
    fn status_values_are_found_by_exact_key() {
        let status = "Name:\tx\nVmHWM:\t  2048 kB\nThreads:\t7\nvoluntary_ctxt_switches:\t12\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(status_value(status, "VmHWM"), Some(2048));
        assert_eq!(status_value(status, "Threads"), Some(7));
        assert_eq!(status_value(status, "voluntary_ctxt_switches"), Some(12));
        assert_eq!(status_value(status, "nonvoluntary_ctxt_switches"), Some(3));
        assert_eq!(status_value(status, "VmRSS"), None);
    }

    #[test]
    fn own_process_is_measurable() {
        let pids = process_tree();
        assert_eq!(pids[0], std::process::id());
        assert!(threads(&pids) >= 1);
        assert!(rss_peak_mib(&pids) > 0.0);
        let a = usage(&pids);
        let b = usage(&pids);
        assert!(b.cpu_ms() >= a.cpu_ms());
    }
}
