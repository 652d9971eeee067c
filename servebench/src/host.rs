//! The host each run measured on, and how much of its CPU time the
//! hypervisor stole during a window — so a slow run can be traced to the
//! host rather than to the program.

use std::process::Command;

/// Static host fingerprint, printed with every run.
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
}

impl Host {
    pub fn probe() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|v| !v.is_empty())
            .unwrap_or_else(|| "unknown".into());
        Host { nproc, cpu_model, rustc }
    }
}

/// glibc's `cpu_set_t`: 1024 bits.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, lowest first.
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    let cpus: Vec<usize> =
        (0..MASK_WORDS * 64).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1).collect();
    if cpus.is_empty() {
        return Err("empty CPU affinity mask".into());
    }
    Ok(cpus)
}

/// Restrict thread `tid` (0: the calling thread) to `cpu`. Threads and
/// processes it starts afterwards inherit the restriction.
///
/// The benchmark and its daemon share one CPU. On a two-vCPU guest the
/// kernel's wake-affine placement otherwise flips a closed request loop
/// between a same-CPU mode and a cross-CPU mode about three times slower,
/// at random moments within a run, and the figures measure the flip.
pub fn pin(tid: i32, cpu: usize) -> Result<(), String> {
    let mut one = [0u64; MASK_WORDS];
    *one.get_mut(cpu / 64).ok_or_else(|| format!("cpu {cpu} is out of range"))? = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed.
    if unsafe { sched_setaffinity(tid, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity({tid}): {}", std::io::Error::last_os_error()));
    }
    Ok(())
}

/// Move every thread of process `pid`, and the calling thread, to `cpu`.
pub fn move_to(pid: u32, cpu: usize) -> Result<(), String> {
    let tasks = std::fs::read_dir(format!("/proc/{pid}/task"))
        .map_err(|e| format!("threads of {pid}: {e}"))?;
    for task in tasks.flatten() {
        if let Some(tid) = task.file_name().to_str().and_then(|t| t.parse().ok()) {
            pin(tid, cpu)?;
        }
    }
    pin(0, cpu)
}

/// Aggregate CPU jiffies from the first line of `/proc/stat`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CpuTimes {
    pub steal: u64,
    pub total: u64,
}

impl CpuTimes {
    /// Read the counters of `/proc/stat` line `label` (`cpu` for all
    /// CPUs, `cpu<n>` for one) now; zeros where `/proc/stat` is absent.
    pub fn now(label: &str) -> CpuTimes {
        std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| parse_cpu_line(&s, label))
            .unwrap_or_default()
    }

    /// Share of all CPU time between `self` and `later` that was stolen.
    pub fn steal_share(&self, later: &CpuTimes) -> f64 {
        let total = later.total.saturating_sub(self.total);
        let steal = later.steal.saturating_sub(self.steal);
        if total == 0 {
            0.0
        } else {
            steal as f64 / total as f64
        }
    }
}

/// Parse the `/proc/stat` line `<label> user nice system idle iowait irq
/// softirq steal ...`. Guest time is already inside `user`, so the total is
/// the first eight fields.
pub fn parse_cpu_line(stat: &str, label: &str) -> Option<CpuTimes> {
    let line = stat.lines().find(|l| l.split_whitespace().next() == Some(label))?;
    let fields: Vec<u64> =
        line.split_whitespace().skip(1).take(8).map(|f| f.parse().ok()).collect::<Option<_>>()?;
    let steal = *fields.get(7).unwrap_or(&0);
    Some(CpuTimes { steal, total: fields.iter().sum() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_comes_from_the_named_cpu_line() {
        let stat = "cpu  100 0 50 800 10 0 0 40 7 0\ncpu1 1 2 3 4 0 0 0 5\ncpu10 9 9 9 9\n";
        let a = parse_cpu_line(stat, "cpu1").unwrap();
        assert_eq!(a, CpuTimes { steal: 5, total: 15 });
        assert_eq!(parse_cpu_line(stat, "cpu").unwrap(), CpuTimes { steal: 40, total: 1000 });
        let b = parse_cpu_line("cpu1 6 2 3 4 0 0 0 10\n", "cpu1").unwrap();
        assert!((a.steal_share(&b) - 5.0 / 10.0).abs() < 1e-12);
        assert_eq!(b.steal_share(&b), 0.0);
        // Older kernels print fewer fields: no steal column reads as 0.
        assert_eq!(
            parse_cpu_line("cpu0 1 2 3 4\n", "cpu0").unwrap(),
            CpuTimes { steal: 0, total: 10 }
        );
        assert!(parse_cpu_line(stat, "cpu2").is_none());
    }
}
