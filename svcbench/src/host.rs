//! Host facts read from procfs and the checkout: peak resident set,
//! process CPU time, steal time and the source revision. Every reader
//! degrades to a zero or `"unknown"` reading off Linux instead of
//! failing the run.

use std::fs;
use std::path::Path;

/// `/proc` reports process CPU time in USER_HZ ticks, which Linux fixes
/// at 100 per second on every architecture.
const NS_PER_TICK: u64 = 10_000_000;

/// Peak resident set of this process (`VmHWM`), in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .unwrap_or(0);
    (kib * 1024) as f64 / 1e6
}

/// CPU time of the whole process, in nanoseconds: the sum of every
/// live thread's scheduler run time (`/proc/self/task/*/schedstat`),
/// which is exact to the nanosecond, or the process's user plus system
/// ticks where the kernel keeps no schedstat. Threads that have exited
/// are missing from the sum, so compare readings taken while the same
/// threads live.
pub fn process_cpu_ns() -> u64 {
    let tasks = fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .flatten();
    let mut sum = 0u64;
    for t in tasks {
        let Ok(s) = fs::read_to_string(t.path().join("schedstat")) else {
            return process_ticks_ns();
        };
        sum += s
            .split_whitespace()
            .next()
            .and_then(|x| x.parse::<u64>().ok())
            .unwrap_or(0);
    }
    if sum == 0 {
        process_ticks_ns()
    } else {
        sum
    }
}

/// User plus system CPU time of the whole process (every thread, live
/// or exited) from `/proc/self/stat`, at USER_HZ resolution.
fn process_ticks_ns() -> u64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name: state is the first,
    // utime the 12th and stime the 13th.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0;
    };
    let f: Vec<u64> = rest
        .split_whitespace()
        .skip(1)
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    match (f.get(10), f.get(11)) {
        (Some(u), Some(s)) => (u + s) * NS_PER_TICK,
        _ => 0,
    }
}

/// Aggregate CPU tick counters of the host (`/proc/stat`), for the
/// steal-time share of an interval.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTicks {
    total: u64,
    steal: u64,
}

impl CpuTicks {
    /// Reads the host-wide counters now.
    pub fn now() -> CpuTicks {
        let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return CpuTicks::default();
        };
        // user nice system idle iowait irq softirq steal (guest time is
        // already inside user).
        let v: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .map(|x| x.parse().unwrap_or(0))
            .collect();
        CpuTicks {
            total: v.iter().sum(),
            steal: v.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of host CPU time stolen by the hypervisor between `self`
    /// and `later`.
    pub fn steal_share(&self, later: &CpuTicks) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// Worker threads the host offers (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The build profile this binary was compiled with.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The git revision of the checkout in the working directory, read from
/// `.git` there without searching parent directories; `"unknown"` in an
/// exported tree.
pub fn git_revision() -> String {
    let git = Path::new(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = fs::read_to_string(git.join(name)) {
        return rev.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, r) = l.split_once(' ')?;
                (r == name).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// SHA-256 over the path and contents of every file under `crates/`,
/// in sorted path order: identifies the measured program where no git
/// metadata exists. First 16 hex digits.
pub fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = fs::read_dir(dir) else { return };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    if files.is_empty() {
        return "unknown".into();
    }
    files.sort();
    let mut h = komodo_crypto::Sha256::new();
    for f in files {
        h.update(f.to_string_lossy().as_bytes());
        h.update(&fs::read(&f).unwrap_or_default());
    }
    let d = h.finish();
    format!("{:08x}{:08x}", d.0[0], d.0[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn procfs_readings_are_live() {
        if !Path::new("/proc/self/stat").exists() {
            return;
        }
        assert!(peak_rss_mb() > 0.0);
        let before = process_cpu_ns();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 60 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(7));
        }
        std::hint::black_box(x);
        assert!(process_cpu_ns() > before, "60 ms of spinning shows as CPU");
        assert!(process_ticks_ns() > 0);
        let a = CpuTicks::now();
        let share = a.steal_share(&CpuTicks::now());
        assert!((0.0..=1.0).contains(&share));
    }
}
