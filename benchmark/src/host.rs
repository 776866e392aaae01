//! What the host says about itself: a calibration loop, on-CPU time,
//! peak memory, and the toolchain — so a host slowdown is not read as a
//! program slowdown.

use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

const CHASE_SLOTS: usize = 1 << 19; // 4 MiB of u64: past L2, inside L3
const CHASE_STEPS: usize = 1 << 20;
const ALU_STEPS: u64 = 1 << 22;

/// A fixed ALU loop plus a fixed pointer chase; returns nanoseconds per
/// step (both loops' steps pooled). The same code runs before and after
/// the measured phases.
pub fn calibrate() -> f64 {
    // One cycle through all slots (Sattolo's shuffle with a fixed LCG),
    // so the chase cannot settle into a short loop.
    let mut next: Vec<u64> = (0..CHASE_SLOTS as u64).collect();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..CHASE_SLOTS).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % i;
        next.swap(i, j);
    }
    let start = Instant::now();
    let mut at = 0u64;
    for _ in 0..CHASE_STEPS {
        at = next[at as usize];
    }
    let mut acc = black_box(at);
    for i in 0..ALU_STEPS {
        acc = acc.rotate_left(7) ^ i.wrapping_mul(0x2545_F491_4F6C_DD1D);
    }
    black_box(acc);
    start.elapsed().as_nanos() as f64 / (CHASE_STEPS as u64 + ALU_STEPS) as f64
}

/// Nanoseconds this process's threads have spent on a CPU so far: the
/// first field of every `/proc/self/task/*/schedstat`. Threads that
/// have already exited are not counted, so callers difference it only
/// across phases whose threads outlive the phase.
pub fn on_cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Peak resident set (`VmHWM`) in MiB; 0 where `/proc` does not say.
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

fn first_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `rustc -V`, or `unknown`.
pub fn rustc_version() -> String {
    first_line(Command::new("rustc").arg("-V")).unwrap_or_else(|| "unknown".into())
}

/// The checkout's git revision (`-dirty` when the tree differs), or
/// `unknown` when the checkout is not a git repository.
pub fn git_revision(repo_root: &Path) -> String {
    if !repo_root.join(".git").exists() {
        return "unknown".into();
    }
    let git = |args: &[&str]| first_line(Command::new("git").arg("-C").arg(repo_root).args(args));
    match git(&["rev-parse", "HEAD"]) {
        Some(rev) => match git(&["status", "--porcelain"]) {
            Some(s) if !s.is_empty() => format!("{rev}-dirty"),
            _ => rev,
        },
        None => "unknown".into(),
    }
}

/// A CPU set as the kernel's bit mask: bit `c % 64` of word `c / 64`.
pub type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
mod affinity {
    use super::CpuSet;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn get() -> Option<CpuSet> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: pid 0 names the calling thread; `set` is writable for
        // exactly the `cpusetsize` bytes passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
        (rc == 0).then_some(set)
    }

    pub fn set(set: &CpuSet) -> bool {
        // SAFETY: pid 0 names the calling thread; `set` is readable for
        // exactly the `cpusetsize` bytes passed.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    use super::CpuSet;

    pub fn get() -> Option<CpuSet> {
        None
    }

    pub fn set(_: &CpuSet) -> bool {
        false
    }
}

/// Restricts the calling thread, and every thread it spawns from now
/// on, to `set`.
pub fn allow_cpus(set: &CpuSet) -> bool {
    affinity::set(set)
}

/// Pins the calling thread — and so every thread spawned after — to
/// the highest-numbered CPU it is allowed on, leaving CPU 0 to
/// interrupts and to whatever else the host runs. Returns that CPU and
/// the set the thread was allowed before; `None` where the host has no
/// such call or refuses it (the run then floats, and says so).
///
/// One core for generator, reactor and executor alike: on a two-core
/// sandbox a request otherwise crosses cores four times, and whether
/// the scheduler happens to co-locate the threads moves round-trip time
/// fivefold (27 µs against 130 µs) between otherwise identical runs.
/// On one core throughput is the reciprocal of the whole path's CPU
/// cost and latency carries no cross-core wake-up.
pub fn pin_to_last_cpu() -> Option<(usize, CpuSet)> {
    let before = affinity::get()?;
    let cpu = (0..before.len() * 64)
        .rev()
        .find(|c| before[c / 64] >> (c % 64) & 1 == 1)?;
    let mut only: CpuSet = [0; 16];
    only[cpu / 64] = 1 << (cpu % 64);
    affinity::set(&only).then_some((cpu, before))
}
