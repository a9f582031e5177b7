//! Child processes: guarded spawning, signals, and `/proc` readings.

use std::io;
use std::process::{Child, Command, ExitStatus};
use std::time::{Duration, Instant};

const SIGTERM: i32 = 15;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

/// A spawned child that is killed and reaped if it is dropped while
/// still running, so no exit path of the benchmark leaves a process
/// behind.
pub struct Guarded {
    child: Option<Child>,
}

impl Guarded {
    pub fn spawn(cmd: &mut Command) -> io::Result<Guarded> {
        Ok(Guarded {
            child: Some(cmd.spawn()?),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("child present").id()
    }

    pub fn try_wait(&mut self) -> io::Result<Option<ExitStatus>> {
        self.child.as_mut().expect("child present").try_wait()
    }

    /// Wait for exit and release the guard.
    pub fn wait(mut self) -> io::Result<ExitStatus> {
        self.child.take().expect("child present").wait()
    }

    /// Ask the child to stop with SIGTERM and wait up to `limit` for it;
    /// kill it if it does not stop in time.
    pub fn terminate(mut self, limit: Duration) -> io::Result<ExitStatus> {
        let mut child = self.child.take().expect("child present");
        // SAFETY: `kill(2)` takes plain integers; the pid belongs to our
        // own unreaped child, so it cannot have been recycled.
        unsafe { kill(child.id() as i32, SIGTERM) };
        let deadline = Instant::now() + limit;
        loop {
            if let Some(status) = child.try_wait()? {
                return Ok(status);
            }
            if Instant::now() >= deadline {
                let _ = child.kill();
                return child.wait();
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Guarded {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A `kB` field of `/proc/<pid>/status`, such as `VmHWM` (peak resident
/// set). `None` once the process is gone.
pub fn status_kb(pid: u32, field: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Peak resident memory of this process, in MiB.
pub fn self_peak_mb() -> f64 {
    status_kb(std::process::id(), "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Direct children of `pid`'s main thread.
pub fn children(pid: u32) -> Vec<u32> {
    std::fs::read_to_string(format!("/proc/{pid}/task/{pid}/children"))
        .map(|s| {
            s.split_whitespace()
                .filter_map(|p| p.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

/// The host a run was measured on.
pub struct Host {
    pub nproc: usize,
    pub cpu: String,
}

pub fn host() -> Host {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Host {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu,
    }
}

/// Work units per second of a fixed compute kernel run on `threads`
/// threads — the host's speed right now. Shared hosts drift: on the
/// 2-vCPU VM this benchmark was calibrated on, the same grid ran 38%
/// faster ten minutes after a slow spell. Scaling throughput by this
/// speed removes most of that: with a CPU hog on one of the two vCPUs,
/// raw grid throughput fell by 24–34% and the scaled figure by under 10%.
pub fn host_speed(threads: usize) -> f64 {
    const UNITS: u64 = 1 << 23;
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut x = 1.0f64;
                for i in 0..UNITS {
                    x = (x * 1.000_001 + (i as f64).sqrt()) % 1e6;
                }
                std::hint::black_box(x)
            });
        }
    });
    (threads as u64 * UNITS) as f64 / t.elapsed().as_secs_f64()
}

/// [`host_speed`] of the host the benchmark was calibrated on.
const REFERENCE_SPEED: f64 = 3.2e8;

/// `raw` throughput scaled to the reference host's speed, given the
/// [`host_speed`] samples taken during the run and the share of the
/// workload's wall time that scales with CPU speed (`exponent`: 1 for
/// pure computation); the raw figure and the speed go into the run
/// record.
pub fn at_reference_speed(
    raw: f64,
    speeds: &[f64],
    exponent: f64,
    out: &mut crate::Outcome,
) -> f64 {
    let speed = crate::stats::median(speeds);
    out.info("trials_per_s.raw", raw, "trials/s");
    out.info("host_speed", speed, "units/s");
    raw * (REFERENCE_SPEED / speed).powf(exponent)
}

/// The checked-out git revision, read from `.git` without running git;
/// `"unknown"` outside a git checkout.
pub fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
    }
}
