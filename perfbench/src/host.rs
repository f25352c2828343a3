//! Process and host facts: CPU time, peak RSS, and the host block every
//! result is printed beside (a 1-core number must never be compared
//! silently with a 2-core one).

use std::path::Path;

use max_crypto::AesBackend;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time of the whole process (every thread, including
/// threads that already exited), in seconds.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the C layout
    // (`repr(C)`, two 64-bit fields on 64-bit Linux), and the clock id is
    // a constant the kernel always supports for the calling process.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: u64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib as f64 / 1024.0
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit checked out in the working directory, read straight from
/// `.git` (no subprocess, no search above the checkout); `unavailable`
/// when the tree is not a git checkout.
fn git_rev() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unavailable".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                line.strip_suffix(reference)
                    .map(|rev| rev.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unavailable".to_string())
}

/// The host block as one JSON object.
pub fn host_json() -> String {
    format!(
        "{{\"nproc\": {}, \"aes_backend\": \"{}\", \"git_rev\": \"{}\", \"rustc\": \"{}\", \"profile\": \"{}\", \"opt_level\": \"{}\"}}",
        nproc(),
        AesBackend::active().label(),
        git_rev(),
        env!("PERFBENCH_RUSTC_VERSION"),
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_OPT_LEVEL"),
    )
}
