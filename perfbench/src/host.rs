//! What the benchmark reads about the machine and its own process:
//! host metadata, CPU time and context switches, peak resident memory,
//! and the memcpy roofline the kernel GB/s figures are read against.

use crate::stats::median;
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads /proc and getrusage as laid out on 64-bit Linux");

/// The machine and build a result was measured on, as a JSON object.
pub fn metadata_json(seed: u64) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown".to_string(), |s| s.trim().replace('"', "'"));
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    format!(
        "{{\"nproc\":{},\"cpu_model\":\"{cpu_model}\",\"kernel\":\"{kernel}\",\"rustc\":\"{}\",\"commit\":\"{}\",\"seed\":{seed}}}",
        nproc(),
        env!("PERFBENCH_RUSTC_VERSION"),
        git_commit(),
    )
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, or "unknown" outside a git work tree. Git is
/// asked only when the current directory is the root of one, so a
/// checkout nested inside some other repository is not misreported.
fn git_commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string())
}

/// Process-wide resource counters, threads that have exited included.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// Voluntary + involuntary context switches.
    pub ctx_switches: u64,
}

impl std::ops::Sub for Usage {
    type Output = Usage;
    fn sub(self, rhs: Usage) -> Usage {
        Usage {
            cpu_s: self.cpu_s - rhs.cpu_s,
            ctx_switches: self.ctx_switches.saturating_sub(rhs.ctx_switches),
        }
    }
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const NVCSW: usize = 12;
const NIVCSW: usize = 13;

pub fn usage() -> Usage {
    let mut r = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        longs: [0; 14],
    };
    // SAFETY: `r` is a live, writable `struct rusage` with the 64-bit
    // Linux layout (checked by the compile_error above), and
    // RUSAGE_SELF is a valid `who`; getrusage writes only into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    Usage {
        cpu_s: secs(&r.ru_utime) + secs(&r.ru_stime),
        ctx_switches: (r.longs[NVCSW] + r.longs[NIVCSW]) as u64,
    }
}

/// Reset the process's peak-resident-set mark, so `peak_rss_mib` covers
/// only what runs after this call. Where the kernel does not allow it,
/// the peak covers the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (VmHWM) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Bytes copied by one memcpy probe: the size of the byte-bound
/// workload's model, so the roofline is read at the kernels' own size.
pub const MEMCPY_BYTES: usize = 25 << 20;

/// `copy_from_slice` throughput in GB/s (bytes copied, counted once),
/// median of `reps` copies after one untimed copy that faults the pages in.
pub fn memcpy_gbps(reps: usize) -> f64 {
    let src = vec![0x5au8; MEMCPY_BYTES];
    let mut dst = vec![0u8; MEMCPY_BYTES];
    dst.copy_from_slice(&src);
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
            t.elapsed().as_secs_f64()
        })
        .collect();
    MEMCPY_BYTES as f64 / median(&times) / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_counts_cpu_burned_by_exited_threads() {
        let before = usage();
        std::thread::spawn(|| {
            let t = Instant::now();
            let mut x = 0u64;
            while t.elapsed().as_millis() < 50 {
                x = black_box(x.wrapping_add(1));
            }
        })
        .join()
        .expect("spinner thread panicked");
        let spent = usage() - before;
        assert!(spent.cpu_s >= 0.03, "cpu {}", spent.cpu_s);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib() > 0.0);
    }
}
