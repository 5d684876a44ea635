//! Host and configuration facts stamped on every result, so a number is
//! never quoted without the core count and backend that produced it.

use silofuse_core::nn::{backend, simd};
use std::path::Path;

/// What the result was measured on and with.
#[derive(Debug, Clone)]
pub struct HostFacts {
    /// Cores this process may run on (what `nproc` reports).
    pub host_cpus: usize,
    /// Backend name, worker count, SIMD level and precision the program
    /// reports; the benchmark never changes them.
    pub backend: &'static str,
    pub threads: usize,
    pub simd: &'static str,
    pub precision: &'static str,
    pub seed: u64,
    /// Commit of the checkout, or `unknown` outside a git work tree.
    pub commit: String,
    /// Every `SILOFUSE_*` environment override in effect, sorted.
    pub env_overrides: Vec<(String, String)>,
}

impl HostFacts {
    pub fn collect(seed: u64) -> Self {
        let mut env_overrides: Vec<(String, String)> =
            std::env::vars().filter(|(k, _)| k.starts_with("SILOFUSE_")).collect();
        env_overrides.sort();
        Self {
            host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            backend: backend::name(),
            threads: backend::threads(),
            simd: simd::level().name(),
            precision: backend::precision().name(),
            seed,
            commit: commit_of(Path::new(".")),
            env_overrides,
        }
    }

    /// One line of `key=value` pairs.
    pub fn render(&self) -> String {
        let env = if self.env_overrides.is_empty() {
            "none".to_string()
        } else {
            self.env_overrides.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(",")
        };
        format!(
            "host_cpus={} backend={} threads={} simd={} precision={} seed={} commit={} env={}",
            self.host_cpus,
            self.backend,
            self.threads,
            self.simd,
            self.precision,
            self.seed,
            self.commit,
            env
        )
    }
}

/// The commit `root/.git` points at, read from the files git keeps there
/// (no `git` process, nothing read outside `root`).
fn commit_of(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process in MiB: the `VmHWM` line of
/// `/proc/self/status`, NaN where there is no such line.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status").map_or(f64::NAN, |status| vm_hwm_mib(&status))
}

/// Seconds the hypervisor has taken from this machine's CPUs since boot
/// (the `steal` column of `/proc/stat`, in 1/100 s), NaN where unknown.
/// Its growth during a run says how much of the run's noise came from
/// other machines sharing the host.
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat").map_or(f64::NAN, |stat| steal_of(&stat))
}

fn steal_of(stat: &str) -> f64 {
    stat.lines()
        .find_map(|line| line.strip_prefix("cpu "))
        .and_then(|fields| fields.split_whitespace().nth(7))
        .and_then(|ticks| ticks.parse::<f64>().ok())
        .map_or(f64::NAN, |ticks| ticks / 100.0)
}

/// `VmHWM` (kB) of a `/proc/<pid>/status` text, in MiB.
fn vm_hwm_mib(status: &str) -> f64 {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_comes_from_vm_hwm() {
        let status =
            "Name:\tpipebench\nVmPeak:\t  300000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(vm_hwm_mib(status), 50.0);
        assert!(vm_hwm_mib("Name:\tpipebench\n").is_nan());
        #[cfg(target_os = "linux")]
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn steal_is_the_eighth_cpu_column() {
        let stat = "cpu  640663 0 42215 2531541 12307 0 2591 12408 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n";
        assert_eq!(steal_of(stat), 124.08);
        assert!(steal_of("intr 1 2 3\n").is_nan());
    }
}
