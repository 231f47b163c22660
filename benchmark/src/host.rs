//! What the host lends the benchmark: CPU time, resident memory, core
//! count, load, and a calibration loop that shows when the host itself got
//! slower or faster while a workload ran.

use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the pipeline benchmark reads Linux /proc and the 64-bit clock_gettime ABI");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Words in a CPU mask handed to the kernel: room for 1024 CPUs.
const MASK_WORDS: usize = 16;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// CPU time (user + system) consumed by every thread of this process, in
/// nanoseconds. `/proc/self/stat` counts in 10 ms ticks, too coarse for a
/// 300 ms repetition, hence the direct `clock_gettime` declaration.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the layout of
    // the 64-bit Linux ABI (two 64-bit fields), which the cfg gate above
    // guarantees; the call writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

fn status_kib(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{field} missing from /proc/self/status"))
}

/// Peak resident set of this process so far (`VmHWM`), bytes.
pub fn peak_rss_bytes() -> u64 {
    status_kib("VmHWM:") * 1024
}

/// Resident set of this process now (`VmRSS`), bytes.
pub fn rss_bytes() -> u64 {
    status_kib("VmRSS:") * 1024
}

/// Cores the benchmark may use; generator threads and connections never
/// exceed it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The first two CPUs this process was allowed to run on when first asked,
/// if there were two. Ask before pinning anything.
pub fn two_cpus() -> Option<(usize, usize)> {
    static CPUS: std::sync::OnceLock<Option<(usize, usize)>> = std::sync::OnceLock::new();
    *CPUS.get_or_init(|| {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is writable and exactly the `cpusetsize` bytes the
        // call is told it may fill; pid 0 is the calling thread.
        let rc = unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return None;
        }
        let mut allowed = (0..MASK_WORDS * 64).filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1);
        Some((allowed.next()?, allowed.next()?))
    })
}

/// Restricts the calling thread, and every thread it spawns from now on, to
/// `cpu`. A refusal is ignored: placement is then the scheduler's, as it
/// would have been.
pub fn pin_thread_to(cpu: usize) {
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is readable and exactly `cpusetsize` bytes long; pid 0
    // is the calling thread. The call changes scheduling only.
    unsafe { sched_setaffinity(0, size_of_val(&mask), mask.as_ptr()) };
}

/// The 1-minute load average, or a negative value where unreadable.
pub fn load_1min() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(-1.0)
}

/// Times a fixed integer loop and returns nanoseconds per iteration: the
/// best of several passes, so that it reads the host's speed rather than one
/// pre-emption or a core still waking from an idle workload. Run before and
/// after a workload, the two values bracket it.
pub fn calib_ns_per_iter() -> f64 {
    const ITERS: u64 = 4_000_000;
    (0..12)
        .map(|_| {
            let t0 = Instant::now();
            let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15u64);
            for i in 0..ITERS {
                // A dependent multiply-xor chain: nothing to vectorise or
                // hoist, one iteration costs the same on every pass.
                x = (x ^ i).wrapping_mul(0x100_0000_01b3);
            }
            std::hint::black_box(x);
            t0.elapsed().as_nanos() as f64 / ITERS as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// The commit the benchmark was built from, when the checkout is a git
/// repository; results from an exported tree say "unknown".
pub fn commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    let id = id.trim();
    if id.len() >= 7 && id.bytes().all(|b| b.is_ascii_hexdigit()) {
        id.to_string()
    } else {
        "unknown".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let a = process_cpu_ns();
        let c = calib_ns_per_iter();
        let b = process_cpu_ns();
        assert!(c > 0.0 && c.is_finite());
        assert!(b > a, "burning CPU must advance the process CPU clock");
    }

    #[test]
    fn peak_rss_is_at_least_current_rss() {
        assert!(peak_rss_bytes() >= rss_bytes() / 2);
        assert!(rss_bytes() > 0);
    }
}
