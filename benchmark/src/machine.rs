//! The one CPU the benchmark runs on, and the time the hypervisor withheld
//! it.
//!
//! The box is a virtual machine with two CPUs on a shared host. Left to the
//! scheduler, a request's chain of thread hand-offs crosses CPUs by chance:
//! each crossing wakes a halted virtual CPU through the host, which took
//! 10 µs or 90 µs depending on the minute, and ten-second runs of
//! `wire_plain` spread 10 % where runs confined to one CPU spread 3 %. So
//! the whole process — load generator, door, workers — is confined to one
//! CPU, like an edge device that runs the app and the model on one core.
//! Not CPU 0: it also serves the machine's interrupts, and runs confined to
//! it spread twice as wide.
//!
//! Confinement also makes the hypervisor's interference measurable: the
//! kernel counts, per CPU, the time the host withheld it while it had work
//! (`steal` in `/proc/stat`), and with one CPU that is exactly the time
//! taken out of the workload. The kernel already leaves it out of task CPU
//! clocks (`CONFIG_PARAVIRT_TIME_ACCOUNTING`); [`stolen`] lets the segment
//! clock leave it out of elapsed time too.

use std::sync::OnceLock;
use std::time::Duration;

/// A kernel `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

static CPU: OnceLock<usize> = OnceLock::new();

/// Confines the process to the last CPU it may run on and returns that CPU.
/// Called before any thread is spawned, so every thread inherits the mask.
pub fn confine() -> usize {
    *CPU.get_or_init(|| {
        let mut allowed: CpuSet = [0; 16];
        // SAFETY: the kernel writes at most the size passed into the mask,
        // which lives across the call; pid 0 is the calling thread.
        let rc =
            unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
        assert_eq!(rc, 0, "sched_getaffinity failed");
        let cpu = (0..allowed.len() * 64)
            .rev()
            .find(|cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)
            .expect("the process may run on some CPU");
        let mut only: CpuSet = [0; 16];
        only[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: the kernel reads the mask, which lives across the call,
        // and changes the calling thread's affinity only.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&only), only.as_ptr()) };
        assert_eq!(rc, 0, "sched_setaffinity failed");
        cpu
    })
}

/// Clock ticks per second in `/proc/stat` (`USER_HZ`, fixed on Linux).
const TICKS_PER_S: u32 = 100;

/// Time the hypervisor has withheld the benchmark's CPU so far while it had
/// work to do. Zero on a machine that reports no steal time.
pub fn stolen() -> Duration {
    let cpu = confine();
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let ticks: u32 = stat
        .lines()
        .find_map(|l| l.strip_prefix(&format!("cpu{cpu} ")))
        .and_then(|l| l.split_whitespace().nth(7))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    Duration::from_secs(1) * ticks / TICKS_PER_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confines_to_one_cpu_and_reads_its_steal_clock() {
        let cpu = confine();
        assert_eq!(confine(), cpu);
        let mut now: CpuSet = [0; 16];
        // SAFETY: as in `confine`.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&now), now.as_mut_ptr()) };
        assert_eq!(rc, 0);
        assert_eq!(now.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        assert!(stolen() <= stolen());
    }
}
