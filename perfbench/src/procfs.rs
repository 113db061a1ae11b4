//! The Linux counters the benchmark measures each layer with from outside
//! the program: process CPU time, host steal, per-thread run and run-queue
//! time (`/proc/self/task/*/schedstat`), loopback bytes and peak RSS.

use std::fs;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux /proc counters and needs a 64-bit Linux target");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// `USER_HZ`: the unit of the tick columns of `/proc/stat`, 100 on every
/// Linux architecture the benchmark builds for.
const USER_HZ: f64 = 100.0;

/// CPU seconds consumed by every thread of this process, exited ones
/// included, at nanosecond resolution.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the C layout of
    // 64-bit Linux (checked by the `compile_error!` above), and
    // `clock_gettime` writes nothing but that struct.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is supported on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Seconds the hypervisor ran something else while this VM's vCPUs wanted
/// to run, summed over all CPUs (the `steal` column of `/proc/stat`).
pub fn steal_s() -> f64 {
    let stat = fs::read_to_string("/proc/stat").expect("/proc/stat is readable");
    let cpu = stat.lines().next().expect("/proc/stat has a cpu line");
    // cpu user nice system idle iowait irq softirq steal ...
    let steal: u64 = cpu
        .split_whitespace()
        .nth(8)
        .and_then(|v| v.parse().ok())
        .expect("/proc/stat cpu line has a steal column");
    steal as f64 / USER_HZ
}

/// Peak resident set size of the process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM");
    kb / 1024.0
}

/// `(run_ns, wait_ns)` of the calling thread: time on a CPU and time
/// runnable but waiting for one.
pub fn thread_schedstat() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/thread-self/schedstat")
        .expect("/proc/thread-self/schedstat is readable");
    let mut v = stat.split_whitespace().map(|v| v.parse().unwrap_or(0));
    (v.next().unwrap_or(0), v.next().unwrap_or(0))
}

/// Bytes sent over the loopback interface, both directions and TCP/IP
/// headers included. `send(2)` bypasses the per-thread `wchar` counter, so
/// socket bytes are counted at the interface.
pub fn loopback_bytes() -> u64 {
    let dev = fs::read_to_string("/proc/self/net/dev").expect("/proc/self/net/dev is readable");
    dev.lines()
        .find_map(|l| l.trim_start().strip_prefix("lo:"))
        .and_then(|v| v.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .expect("/proc/self/net/dev lists the loopback interface")
}

/// One thread's counters at one instant.
#[derive(Debug, Clone)]
pub struct Task {
    pub tid: u32,
    pub name: String,
    /// Time on a CPU (`sum_exec_runtime`), ns.
    pub run_ns: u64,
    /// Time runnable but waiting for a CPU (`run_delay`), ns.
    pub wait_ns: u64,
}

/// Counters of every live thread of this process. A thread that exits
/// between the directory listing and the reads is skipped.
pub fn tasks() -> Vec<Task> {
    let mut out = Vec::new();
    let entries = fs::read_dir("/proc/self/task").expect("/proc/self/task is readable");
    for entry in entries.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let dir = entry.path();
        let (Ok(comm), Ok(sched)) = (
            fs::read_to_string(dir.join("comm")),
            fs::read_to_string(dir.join("schedstat")),
        ) else {
            continue;
        };
        let mut sched = sched.split_whitespace().map(|v| v.parse().unwrap_or(0));
        out.push(Task {
            tid,
            name: comm.trim().to_string(),
            run_ns: sched.next().unwrap_or(0),
            wait_ns: sched.next().unwrap_or(0),
        });
    }
    out
}

/// The thread roles the benchmark attributes cost to, by thread name.
pub const ROLES: [&str; 5] = ["producer", "net", "shard", "accept", "other"];

/// The role of a thread: the benchmark names its own producer threads
/// `bench-producer-*`; the server names its threads `ldp-conn-*`,
/// `ldp-shard-*` and `ldp-accept`. Everything else — the main thread and
/// the attack pipeline's workers — is `other`.
pub fn role(name: &str) -> &'static str {
    if name.starts_with("bench-producer") {
        "producer"
    } else if name.starts_with("ldp-conn") {
        "net"
    } else if name.starts_with("ldp-shard") {
        "shard"
    } else if name.starts_with("ldp-accept") {
        "accept"
    } else {
        "other"
    }
}

/// Per-role deltas between two samples of [`tasks`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RoleDelta {
    pub run_ns: u64,
    pub wait_ns: u64,
}

/// Sums, per role, what each thread alive at `after` did since `before`
/// (a thread born in between counts from zero).
pub fn role_deltas(before: &[Task], after: &[Task]) -> [(&'static str, RoleDelta); 5] {
    let mut out = ROLES.map(|r| (r, RoleDelta::default()));
    for t in after {
        let base = before.iter().find(|b| b.tid == t.tid);
        let slot = &mut out
            .iter_mut()
            .find(|(r, _)| *r == role(&t.name))
            .expect("role() returns a member of ROLES")
            .1;
        slot.run_ns += t.run_ns.saturating_sub(base.map_or(0, |b| b.run_ns));
        slot.wait_ns += t.wait_ns.saturating_sub(base.map_or(0, |b| b.wait_ns));
    }
    out
}
