//! Host fingerprint and drift diagnostics, read from `/proc`.
//!
//! A set of runs whose steal time or CPU-to-wall ratio moved can then
//! be told apart from a real change in the program.

use sfence_harness::Json;
use std::path::Path;
use std::time::Instant;

/// Clock ticks per second of `/proc/stat` and `/proc/self/stat`
/// (`USER_HZ`, 100 on every Linux ABI).
const TICKS_PER_S: f64 = 100.0;

/// Where the host and build came from.
pub fn fingerprint(repo_root: &Path) -> Json {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj()
        .field("nproc", nproc)
        .field("cpu_model", cpu_model)
        .field("rustc", env!("PERFSUITE_RUSTC"))
        .field("profile", env!("PERFSUITE_PROFILE"))
        .field("git", git_revision(repo_root))
}

/// The checked-out commit, read from `.git` without running git; a
/// source checkout without history reports `unknown`.
fn git_revision(repo_root: &Path) -> String {
    let git = repo_root.join(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(git.join("packed-refs")).map(|packed| {
                    packed
                        .lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
    }
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(0.0);
    kb / 1024.0
}

/// Host-wide steal ticks so far (`/proc/stat`, first `cpu` line).
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|text| {
            text.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// User plus system ticks this process has used.
fn cpu_ticks() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|text| {
            // Fields after the parenthesised command name; utime and
            // stime are fields 14 and 15 of the whole line.
            let rest = &text[text.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some(f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?)
        })
        .unwrap_or(0)
}

/// Wall, process CPU and host steal time across one measured region.
pub struct Drift {
    wall: Instant,
    cpu: u64,
    steal: u64,
}

impl Drift {
    pub fn start() -> Drift {
        Drift {
            wall: Instant::now(),
            cpu: cpu_ticks(),
            steal: steal_ticks(),
        }
    }

    pub fn finish(&self) -> Json {
        let wall_s = self.wall.elapsed().as_secs_f64();
        let cpu_s = cpu_ticks().saturating_sub(self.cpu) as f64 / TICKS_PER_S;
        let steal_s = steal_ticks().saturating_sub(self.steal) as f64 / TICKS_PER_S;
        Json::obj()
            .field("wall_s", wall_s)
            .field("process_cpu_s", cpu_s)
            .field("host_steal_s", steal_s)
    }
}

/// CPU time the calling thread has run, in ns (`schedstat`).
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}
