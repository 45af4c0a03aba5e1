//! Host context recorded with every result, and process-level readings.
//!
//! Time figures that a gate holds are CPU times (`clock_gettime` on the
//! thread or process CPU clock). On a paravirtualised guest the kernel
//! leaves out the time the hypervisor gave the CPU to another tenant, so a
//! host that steals CPU from the benchmark does not make the program look
//! slower.

use std::path::Path;
use std::time::Duration;

/// Hardware threads available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The integer kernel's active dispatch tier (`scalar`, `simd`, …).
pub fn dispatch() -> &'static str {
    eventor_fixed::kernel::batch::active().name()
}

/// The source revision the benchmark runs on: the commit `.git/HEAD` names
/// under the working directory, else `unknown` (a plain source export
/// carries no revision).
pub fn revision() -> String {
    read_git_head(Path::new(".git")).unwrap_or_else(|| "unknown".to_string())
}

fn read_git_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec`.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time the calling thread has used.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time all threads of the process have used, ended ones included.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Resets the peak resident set size to the current one, so that a later
/// [`peak_rss_mb`] is the peak of what ran since.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work_and_not_with_sleep() {
        let (t0, p0) = (thread_cpu(), process_cpu());
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let busy = thread_cpu() - t0;
        assert!(busy > Duration::from_millis(1), "{busy:?} ({x})");
        assert!(process_cpu() - p0 >= busy);
        let t1 = thread_cpu();
        std::thread::sleep(Duration::from_millis(50));
        assert!(thread_cpu() - t1 < Duration::from_millis(10));
    }

    #[test]
    fn the_peak_resets_to_the_current_size() {
        let big = vec![1u8; 64 << 20];
        let peak = peak_rss_mb();
        assert!(
            peak >= 64.0,
            "{peak} ({})",
            big.iter().map(|&b| b as usize).sum::<usize>()
        );
        drop(big);
        reset_peak_rss().expect("clear_refs");
        assert!(peak_rss_mb() < peak - 32.0);
    }
}
