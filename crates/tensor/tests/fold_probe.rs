//! A repeatable timing probe of the two statistics folds the offline replay
//! runs per layer: `normalized_rmse` over an edge/reference pair and
//! `TensorStats::of` over one tensor, on frame-sized inputs. The 16 640
//! elements are one frame pair's layer outputs of `mini_mobilenet_v2@24`;
//! 4 096 and 1 000 are one large and one small layer. For each size it
//! prints the minimum and the median over 200 folds (after 20 warm-ups), in
//! nanoseconds per element.
//!
//! Ignored by default — it asserts nothing and its numbers are the host's:
//!
//! ```text
//! cargo test --release -p mlexray-tensor --test fold_probe -- --ignored --nocapture
//! ```
//!
//! Pin it to one core (`taskset -c 1`) and compare builds in one session.

use std::hint::black_box;
use std::time::{Duration, Instant};

use mlexray_tensor::{normalized_rmse, TensorStats};

const SIZES: [usize; 3] = [16_640, 4_096, 1_000];
const WARMUPS: usize = 20;
const FOLDS: usize = 200;

/// `(minimum, median)` ns per element of `fold` over `len` elements.
fn time(len: usize, mut fold: impl FnMut() -> f32) -> (f64, f64) {
    let mut samples: Vec<Duration> = (0..WARMUPS + FOLDS)
        .map(|_| {
            let start = Instant::now();
            black_box(fold());
            start.elapsed()
        })
        .skip(WARMUPS)
        .collect();
    samples.sort();
    let per = |d: Duration| d.as_secs_f64() * 1e9 / len as f64;
    (per(samples[0]), per(samples[FOLDS / 2]))
}

#[test]
#[ignore = "timing probe: run with --ignored --nocapture"]
fn fold_time_per_element() {
    for len in SIZES {
        let reference: Vec<f32> = (0..len).map(|i| (i as f32 * 0.0173).sin() * 3.0).collect();
        let edge: Vec<f32> = reference
            .iter()
            .enumerate()
            .map(|(i, v)| v + (i as f32 * 0.61).cos() * 1e-3)
            .collect();
        let (min, p50) = time(len, || {
            normalized_rmse(black_box(&edge), black_box(&reference))
        });
        println!(
            "normalized_rmse  {len:>6} elements  min {min:>6.3} ns/elem  p50 {p50:>6.3} ns/elem"
        );
        let (min, p50) = time(len, || TensorStats::of(black_box(&reference)).std);
        println!(
            "TensorStats::of  {len:>6} elements  min {min:>6.3} ns/elem  p50 {p50:>6.3} ns/elem"
        );
    }
}
