//! What one segment of fixed work yields, and the clocks it is read from.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::machine::stolen;
use crate::stats::{percentile, sorted};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU time the whole process has consumed so far: every thread, live or
/// already joined, so the load generator and a background writer thread are
/// both in it.
pub fn process_cpu() -> Duration {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` (two C longs on 64-bit
    // Linux, the only platform this benchmark runs on) and the clock id is
    // a constant the kernel defines; the call writes `ts` and nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// The process's resident-set high-water mark (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Times a fixed integer loop. Run between segments, it says how fast the
/// machine itself was at that moment, independent of the program under test.
pub fn spin_ms() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    for _ in 0..2_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    ms(start.elapsed())
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One segment: a fixed number of operations, timed as a unit.
#[derive(Debug, Default)]
pub struct Segment {
    pub ops: usize,
    pub failed: usize,
    pub wall: Duration,
    /// How much of `wall` the hypervisor withheld the CPU.
    pub stolen: Duration,
    pub cpu: Duration,
    /// Per-operation latency, ms.
    pub latency_ms: Vec<f64>,
    /// Open loop only: how late each request left the generator, ms.
    pub late_ms: Vec<f64>,
    /// Open loop: operations per second follow the schedule's clock, not
    /// the machine's speed, so throughput is reported as the clock read it.
    pub paced: bool,
}

/// Runs `body` as one segment, reading the wall, CPU and steal clocks
/// around it. `body` returns (latencies, lateness, failures).
pub fn segment(ops: usize, body: impl FnOnce() -> (Vec<f64>, Vec<f64>, usize)) -> Segment {
    let stolen0 = stolen();
    let cpu0 = process_cpu();
    let start = Instant::now();
    let (latency_ms, late_ms, failed) = body();
    let wall = start.elapsed();
    Segment {
        ops,
        failed,
        wall,
        stolen: stolen().saturating_sub(stolen0).min(wall),
        cpu: process_cpu().saturating_sub(cpu0),
        latency_ms,
        late_ms,
        paced: false,
    }
}

/// The steal clock ticks every 10 ms, and the host takes the CPU away for
/// about that long at a time.
const STEAL_TICK_MS: f64 = 10.0;

/// Each segment's value of one statistic; the reported number is the
/// median of these. The timed ones are in the units of the machine's
/// reference state, whatever phase the shared box was in ([`crate::probe`],
/// [`crate::machine`]); the `raw_` series are what the clocks read.
#[derive(Debug, Default)]
pub struct PerSegment {
    pub throughput_ops_s: Vec<f64>,
    pub latency_p50_ms: Vec<f64>,
    pub latency_p90_ms: Vec<f64>,
    pub cpu_ms_per_op: Vec<f64>,
    pub raw_throughput_ops_s: Vec<f64>,
    pub raw_latency_p50_ms: Vec<f64>,
    pub raw_latency_p99_ms: Vec<f64>,
    pub late_p99_ms: Vec<f64>,
    pub slowdown: Vec<f64>,
    pub steal_share: Vec<f64>,
    /// Latency samples behind each segment's percentiles.
    pub samples_per_segment: usize,
    pub attempted: usize,
    pub failed: usize,
}

impl PerSegment {
    /// Books one segment, measured while the CPU ran `slowdown` times slower
    /// than in its reference state.
    ///
    /// * Throughput counts the time the CPU was the benchmark's: elapsed
    ///   time less what the hypervisor withheld, shortened by the slowdown.
    /// * CPU time per operation is divided by the slowdown; the kernel has
    ///   already left withheld time out of it.
    /// * Latencies are divided by the slowdown. Operations at least as long
    ///   as a slice the host withholds each carry their share of every slice,
    ///   so theirs also shrink by the share of the busy time (CPU time plus
    ///   withheld time) that was withheld; a slice lengthens the few short
    ///   operations it lands in and leaves the median one alone.
    pub fn push(&mut self, seg: &Segment, slowdown: f64) {
        let lat = sorted(&seg.latency_ms);
        let at = |p| percentile(&lat, p).unwrap_or(0.0);
        let raw_throughput = seg.ops as f64 / seg.wall.as_secs_f64();
        let ours = (seg.wall - seg.stolen).as_secs_f64();
        self.throughput_ops_s.push(if seg.paced {
            raw_throughput
        } else {
            seg.ops as f64 / ours * slowdown
        });
        let busy = seg.cpu + seg.stolen;
        let withheld = if at(50.0) >= STEAL_TICK_MS && !busy.is_zero() {
            seg.stolen.as_secs_f64() / busy.as_secs_f64()
        } else {
            0.0
        };
        self.latency_p50_ms
            .push(at(50.0) * (1.0 - withheld) / slowdown);
        self.latency_p90_ms
            .push(at(90.0) * (1.0 - withheld) / slowdown);
        self.cpu_ms_per_op
            .push(ms(seg.cpu) / seg.ops as f64 / slowdown);
        self.raw_throughput_ops_s.push(raw_throughput);
        self.raw_latency_p50_ms.push(at(50.0));
        self.raw_latency_p99_ms.push(at(99.0));
        self.late_p99_ms
            .extend(percentile(&sorted(&seg.late_ms), 99.0));
        self.slowdown.push(slowdown);
        self.steal_share
            .push(seg.stolen.as_secs_f64() / seg.wall.as_secs_f64());
        self.samples_per_segment = lat.len();
        self.attempted += seg.ops;
        self.failed += seg.failed;
    }

    pub fn segments(&self) -> usize {
        self.throughput_ops_s.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_segment_statistics_of_a_known_segment() {
        let seg = Segment {
            ops: 10,
            failed: 1,
            wall: Duration::from_millis(500),
            stolen: Duration::ZERO,
            cpu: Duration::from_millis(20),
            latency_ms: (1..=10).rev().map(f64::from).collect(),
            late_ms: vec![],
            paced: false,
        };
        let mut per = PerSegment::default();
        per.push(&seg, 1.0);
        assert_eq!(per.throughput_ops_s, vec![20.0]);
        assert_eq!(per.latency_p50_ms, vec![5.0]);
        assert_eq!(per.latency_p90_ms, vec![9.0]);
        assert_eq!(per.cpu_ms_per_op, vec![2.0]);
        assert!(per.late_p99_ms.is_empty());
        assert_eq!((per.attempted, per.failed, per.segments()), (10, 1, 1));
        // The same segment on a machine running at half speed: twice the
        // reference throughput, half the reference times; a paced segment's
        // throughput is the schedule's and stays.
        per.push(&seg, 2.0);
        per.push(&Segment { paced: true, ..seg }, 2.0);
        assert_eq!(per.throughput_ops_s, vec![20.0, 40.0, 20.0]);
        assert_eq!(per.latency_p50_ms, vec![5.0, 2.5, 2.5]);
        assert_eq!(per.cpu_ms_per_op, vec![2.0, 1.0, 1.0]);
        assert_eq!(per.raw_throughput_ops_s, vec![20.0; 3]);
        assert_eq!(per.raw_latency_p50_ms, vec![5.0; 3]);
    }

    #[test]
    fn withheld_time_is_taken_out_of_elapsed_time_and_of_long_operations() {
        // A fifth of the half second withheld; the CPU busy the rest.
        let with = |latency_ms| Segment {
            ops: 10,
            wall: Duration::from_millis(500),
            stolen: Duration::from_millis(100),
            cpu: Duration::from_millis(400),
            latency_ms,
            ..Segment::default()
        };
        let short = with((1..=10).map(f64::from).collect());
        let long = with((1..=10).map(|v| f64::from(v) * 10.0).collect());
        let mut per = PerSegment::default();
        per.push(&short, 1.0);
        per.push(&long, 1.0);
        assert_eq!(per.throughput_ops_s, vec![25.0, 25.0]);
        assert_eq!(per.raw_throughput_ops_s, vec![20.0, 20.0]);
        assert_eq!(per.cpu_ms_per_op, vec![40.0, 40.0]);
        // Millisecond operations keep their median; 50 ms ones lose a fifth.
        assert_eq!(per.latency_p50_ms, vec![5.0, 40.0]);
        assert_eq!(per.latency_p90_ms, vec![9.0, 72.0]);
        assert_eq!(per.steal_share, vec![0.2, 0.2]);
    }

    #[test]
    fn process_cpu_advances_with_work() {
        let before = process_cpu();
        spin_ms();
        assert!(process_cpu() > before);
        assert!(peak_rss_mb() > 0.0);
    }
}
