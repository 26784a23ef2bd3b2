//! Run metadata printed with every result: host CPU, caches, threads,
//! ranks, seed and source revision.

use std::path::Path;

/// Host and run description.
#[derive(Debug, Clone)]
pub struct Meta {
    /// CPU model string.
    pub cpu_model: String,
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// Vector ISA extensions the CPU reports.
    pub isa: Vec<&'static str>,
    /// L2 cache bytes per core (0 = unknown).
    pub l2_bytes: u64,
    /// L3 cache bytes (0 = unknown).
    pub l3_bytes: u64,
    /// Worker threads per process (element pool or rank threads).
    pub threads: usize,
    /// Ranks of the distributed world (1 = serial).
    pub ranks: usize,
    /// Seed the inputs were generated from.
    pub seed: u64,
    /// Source revision, read from `.git` when the tree is a checkout.
    pub git_commit: String,
}

impl Meta {
    /// Probe the host.
    pub fn probe(root: &Path, seed: u64, threads: usize, ranks: usize) -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']))
            })
            .unwrap_or("unknown")
            .to_string();
        Meta {
            cpu_model,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            isa: isa_flags(),
            l2_bytes: cache_bytes(2),
            l3_bytes: cache_bytes(3),
            threads,
            ranks,
            seed,
            git_commit: git_commit(root),
        }
    }

    /// More busy threads than CPUs.
    pub fn oversubscribed(&self) -> bool {
        self.threads > self.nproc
    }

    /// Human-readable block, one `key: value` per line.
    pub fn lines(&self, workload: &str, working_set_bytes: u64) -> Vec<String> {
        let ratio = |c: u64| {
            if c == 0 {
                "n/a".to_string()
            } else {
                format!("{:.1}x", working_set_bytes as f64 / c as f64)
            }
        };
        vec![
            format!("workload: {workload}"),
            format!("seed: {}", self.seed),
            format!("git_commit: {}", self.git_commit),
            format!("cpu: {}", self.cpu_model),
            format!("nproc: {}", self.nproc),
            format!("isa: {}", self.isa.join(" ")),
            format!("l2_bytes: {}  l3_bytes: {}", self.l2_bytes, self.l3_bytes),
            format!(
                "threads: {}  ranks: {}  oversubscribed: {}",
                self.threads,
                self.ranks,
                self.oversubscribed()
            ),
            format!(
                "working_set_bytes (computed): {working_set_bytes}  = {} of L2, {} of L3",
                ratio(self.l2_bytes),
                ratio(self.l3_bytes)
            ),
        ]
    }
}

fn isa_flags() -> Vec<&'static str> {
    #[cfg(target_arch = "x86_64")]
    {
        let mut v = Vec::new();
        if std::arch::is_x86_feature_detected!("sse4.2") {
            v.push("sse4.2");
        }
        if std::arch::is_x86_feature_detected!("avx") {
            v.push("avx");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            v.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            v.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            v.push("avx512f");
        }
        v
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Vec::new()
    }
}

/// Size of the unified or data cache at `level` as the kernel reports it
/// for CPU 0 (0 when unknown).
fn cache_bytes(level: u32) -> u64 {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    for i in 0..8 {
        let dir = base.join(format!("index{i}"));
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).unwrap_or_default();
        if read("level").trim() != level.to_string() || read("type").trim() == "Instruction" {
            continue;
        }
        let size = read("size");
        let size = size.trim();
        let (num, mult) = match size.strip_suffix('K') {
            Some(n) => (n, 1024),
            None => match size.strip_suffix('M') {
                Some(n) => (n, 1024 * 1024),
                None => (size, 1),
            },
        };
        return num.parse::<u64>().map_or(0, |n| n * mult);
    }
    0
}

/// Commit of the tree at `root`, resolved from `.git/HEAD` without
/// running git ("unknown" outside a git checkout).
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .map(|l| l[..40.min(l.len())].to_string())
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

/// Host-wide CPU time counters (total, steal) from `/proc/stat`, in
/// clock ticks; zeros when unavailable. Two readings bracket a run to show
/// how much CPU the hypervisor gave to other guests meanwhile.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().next().and_then(|l| l.strip_prefix("cpu ")) else {
        return (0, 0);
    };
    let v: Vec<u64> = line
        .split_whitespace()
        .filter_map(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal (guest time is
    // already inside user).
    (v.iter().take(8).sum(), v.get(7).copied().unwrap_or(0))
}

/// Peak resident set of this process (VmHWM), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
