//! How fast the CPU is right now, read between segments from fixed work of
//! the benchmark's own.
//!
//! The box is a small virtual machine on a shared host. Its speed moves in
//! phases of seconds to minutes with what the host's other tenants do: the
//! same arithmetic loop took 0.67, 0.89 or 1.3 ms depending on the minute,
//! and ten runs of one workload, taken over the same 40 minutes, spread
//! 10-20 % on every timed metric. A phase covers whole runs, so no statistic
//! within a run sees through it; but the probes below slow down with the
//! workloads (run to run, log time against log probe time correlated 0.83 to
//! 0.97 on all four), so dividing a segment's times by the slowdown the
//! probes read around it takes the phases out: the same runs then spread
//! 2-8 % (see README, "Noise").
//!
//! Two probes, for the two ways a tenant next door slows this one down while
//! it runs: vectorised arithmetic over operands that fit the core's own
//! caches (a busy sibling hyperthread), and a walk over more memory than
//! those caches hold (a busy last-level cache and memory bus). The third
//! way, taking the CPU away altogether, the kernel counts itself
//! ([`crate::machine::stolen`]). Neither probe calls into the program under
//! test, so no change to the program can move them.

use std::hint::black_box;
use std::time::Instant;

use crate::measure::ms;

/// Side of the arithmetic probe's square matrices: the three of them take
/// 108 KB, resident in the core's caches like a layer's weights and
/// activations.
const N: usize = 96;
const MATMUL_PASSES: usize = 12;
/// 16 MB of `u64`: several times the core's own caches.
const HEAP_WORDS: usize = 2 << 20;
/// `u64`s per cache line: the walk reads one word of each line.
const LINE_WORDS: usize = 8;

/// What each probe reads in the box's usual state (the median of 1 100
/// readings over 25 minutes). Only their constancy matters: they set the
/// unit reported times are in, not which of two programs is faster.
const COMPUTE_REFERENCE_MS: f64 = 0.86;
const MEMORY_REFERENCE_MS: f64 = 0.65;

/// One reading of both probes, ms.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub compute_ms: f64,
    pub memory_ms: f64,
}

impl Sample {
    /// How many times slower than its reference state the machine ran: the
    /// geometric mean of the two probes' slowdowns.
    pub fn slowdown(&self) -> f64 {
        slowdown_of(self.compute_ms, self.memory_ms)
    }
}

fn slowdown_of(compute_ms: f64, memory_ms: f64) -> f64 {
    (compute_ms / COMPUTE_REFERENCE_MS * memory_ms / MEMORY_REFERENCE_MS).sqrt()
}

/// The slowdown over a segment: the mean of the readings before and after.
pub fn slowdown_between(before: &Sample, after: &Sample) -> f64 {
    (before.slowdown() + after.slowdown()) / 2.0
}

/// `c += a × b`, the inner loop running along rows of `b` and `c` so the
/// compiler vectorises it.
fn matmul(a: &[f32], b: &[f32], c: &mut [f32]) {
    for i in 0..N {
        for k in 0..N {
            let aik = a[i * N + k];
            let (row_b, row_c) = (&b[k * N..(k + 1) * N], &mut c[i * N..(i + 1) * N]);
            for (cj, bj) in row_c.iter_mut().zip(row_b) {
                *cj += aik * bj;
            }
        }
    }
}

/// The probes' operands.
pub struct Probes {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    heap: Vec<u64>,
}

impl Probes {
    pub fn new() -> Probes {
        let ramp = |scale: f32| (0..N * N).map(|i| (i % 13) as f32 * scale).collect();
        Probes {
            a: ramp(1e-3),
            b: ramp(2e-3),
            c: vec![0.0; N * N],
            heap: vec![1; HEAP_WORDS],
        }
    }

    /// Each probe several times over (about 12 ms in all); the fastest of a
    /// probe's timings is its reading: what the CPU does between
    /// interruptions, which are counted on their own.
    pub fn sample(&mut self) -> Sample {
        let mut compute = [0.0; 8];
        for slot in &mut compute {
            let start = Instant::now();
            for _ in 0..MATMUL_PASSES {
                matmul(black_box(&self.a), black_box(&self.b), &mut self.c);
            }
            black_box(&self.c);
            *slot = ms(start.elapsed());
            self.c.fill(0.0);
        }
        let mut memory = [0.0; 5];
        for slot in &mut memory {
            let start = Instant::now();
            let sum: u64 = black_box(&self.heap).iter().step_by(LINE_WORDS).sum();
            black_box(sum);
            *slot = ms(start.elapsed());
        }
        Sample {
            compute_ms: compute.into_iter().fold(f64::INFINITY, f64::min),
            memory_ms: memory.into_iter().fold(f64::INFINITY, f64::min),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_geometric_mean_of_the_probes() {
        let reference = Sample {
            compute_ms: COMPUTE_REFERENCE_MS,
            memory_ms: MEMORY_REFERENCE_MS,
        };
        assert!((reference.slowdown() - 1.0).abs() < 1e-12);
        // Arithmetic four times slower, memory as usual: twice slower.
        let busy_core = Sample {
            compute_ms: 4.0 * COMPUTE_REFERENCE_MS,
            ..reference
        };
        assert!((busy_core.slowdown() - 2.0).abs() < 1e-12);
        assert!((slowdown_between(&reference, &busy_core) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn probes_do_their_work() {
        let mut probes = Probes::new();
        let sample = probes.sample();
        assert!(sample.compute_ms > 0.0 && sample.memory_ms > 0.0);
        // Every pass accumulates into `c` and the sample clears it.
        assert!(probes.c.iter().all(|v| *v == 0.0));
        matmul(&probes.a, &probes.b, &mut probes.c);
        let expected: f32 = (0..N).map(|k| probes.a[k] * probes.b[k * N]).sum();
        assert!((probes.c[0] - expected).abs() < 1e-4);
    }
}
