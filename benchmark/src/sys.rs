//! What the benchmark reads from the machine: CPU time, resident memory,
//! a fixed calibration kernel, and the provenance of a run.

use std::path::Path;
use std::time::Instant;

/// `USER_HZ`: the unit of the CPU-time fields in `/proc/<pid>/stat`. Linux
/// fixes it at 100 for every architecture this workspace builds on.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds of this process and of the children it has
/// reaped, from `/proc/self/stat` (fields `utime stime cutime cstime`).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields are counted from
    // the closing parenthesis.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let ticks: f64 = after
        .split_whitespace()
        .skip(11)
        .take(4)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / TICKS_PER_SECOND
}

/// Wall and CPU seconds since `start`.
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Self {
            wall: Instant::now(),
            cpu: cpu_seconds(),
        }
    }

    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    pub fn cpu_s(&self) -> f64 {
        cpu_seconds() - self.cpu
    }
}

/// `VmHWM` of this process in bytes.
pub fn peak_rss_bytes() -> u64 {
    soup_obs::series::peak_rss_bytes().unwrap_or(0)
}

/// Return the allocator's free pages to the kernel. After set-up and the
/// warm-up rep, how much freed memory glibc keeps mapped differs from run
/// to run by tens of MiB, which would otherwise sit under every later
/// reading of resident memory.
pub fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointer and touches only the
        // allocator's own free lists, under the allocator's locks.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Restart the `VmHWM` high-water mark at the current resident size, so the
/// peak reported for the timed reps is not the peak of set-up. Where the
/// kernel refuses, the mark keeps covering the whole process.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// A fixed amount of arithmetic and memory traffic, timed. It runs before
/// every rep: when it slows down by the same factor as the rep, the machine
/// got slower, not the code. The buffers live as long as the run, so the
/// kernel adds a constant to resident memory and not a spike to its peak.
pub struct Calibration {
    x: Vec<f32>,
    y: Vec<f32>,
    z: Vec<f32>,
}

impl Calibration {
    const FMA_ITERS: usize = 12_000_000;
    /// Three 4 MiB arrays: past the per-core caches.
    const STREAM_LEN: usize = 1 << 20;
    const STREAM_PASSES: usize = 12;

    pub fn new() -> Self {
        Self {
            x: vec![1.0; Self::STREAM_LEN],
            y: vec![2.0; Self::STREAM_LEN],
            z: vec![0.0; Self::STREAM_LEN],
        }
    }

    pub fn run_ms(&mut self) -> f64 {
        let start = Instant::now();
        // Eight independent multiply-add chains: throughput-bound, no memory.
        let mut acc = [1.0f32, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7];
        let (a, b) = (
            std::hint::black_box(0.999_9f32),
            std::hint::black_box(1e-4f32),
        );
        for _ in 0..Self::FMA_ITERS {
            for v in &mut acc {
                *v = *v * a + b;
            }
        }
        std::hint::black_box(acc);
        // A triad over the three arrays: bandwidth-bound.
        for pass in 0..Self::STREAM_PASSES {
            let s = pass as f32;
            for ((zi, xi), yi) in self.z.iter_mut().zip(&self.x).zip(&self.y) {
                *zi = xi + s * yi;
            }
            std::hint::black_box(&mut self.z);
        }
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// Bytes of every file below `dir`.
pub fn tree_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => tree_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Where the numbers of a run came from.
pub struct Provenance {
    pub commit: String,
    pub cpu_model: String,
    pub nproc: usize,
    pub rustc: &'static str,
    pub profile: &'static str,
    pub opt_level: &'static str,
    pub target: &'static str,
    pub rustflags: &'static str,
}

impl Provenance {
    pub fn collect(repo_root: &Path) -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Self {
            commit: read_commit(repo_root),
            cpu_model,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env!("BENCH_RUSTC"),
            profile: env!("BENCH_PROFILE"),
            opt_level: env!("BENCH_OPT_LEVEL"),
            target: env!("BENCH_TARGET"),
            rustflags: env!("BENCH_RUSTFLAGS"),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"commit\":{:?},\"cpu_model\":{:?},\"nproc\":{},\"rustc\":{:?},\"profile\":{:?},\
             \"opt_level\":{:?},\"target\":{:?},\"rustflags\":{:?}}}",
            self.commit,
            self.cpu_model,
            self.nproc,
            self.rustc,
            self.profile,
            self.opt_level,
            self.target,
            self.rustflags
        )
    }
}

/// The checked-out commit, read from `.git` without running git. A source
/// tree exported without its `.git` directory has no commit to report.
fn read_commit(repo_root: &Path) -> String {
    let git = repo_root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (no .git)".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("unknown ({reference})")),
    }
}
