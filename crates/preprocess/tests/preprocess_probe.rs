//! A repeatable timing probe of the image preprocessing the offline replay
//! runs once per frame pair: the canonical MobileNet configuration
//! (area-average resize, RGB, `[-1, 1]`) on a 60×60 camera frame to 24×24,
//! the `replay_validate` shape, and on 224×224 to 96×96. For each shape it
//! prints the minimum and the median over 2 000 calls (after 50 warm-ups)
//! of `ImagePreprocessConfig::apply`, of `resize` and of `image_to_tensor`
//! on their own, in nanoseconds per output byte (one byte, or one float, per
//! output channel value).
//!
//! Ignored by default — it asserts nothing and its numbers are the host's:
//!
//! ```text
//! cargo test --release -p mlexray-preprocess --test preprocess_probe -- --ignored --nocapture
//! ```
//!
//! Pin it to one core (`taskset -c 1`) and compare two builds by
//! alternating their binaries: a shared host drifts by tens of percent
//! between runs minutes apart.

use std::hint::black_box;
use std::time::{Duration, Instant};

use mlexray_preprocess::{
    image_to_tensor, resize, ChannelOrder, Image, ImagePreprocessConfig, ResizeMethod,
};

const SHAPES: [(usize, usize); 2] = [(60, 24), (224, 96)];
const WARMUPS: usize = 50;
const CALLS: usize = 2_000;

/// A frame of hashed bytes: every byte value, no runs a resize could skip.
fn frame(side: usize) -> Image {
    let data = (0..side * side * Image::CHANNELS)
        .map(|i| ((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8)
        .collect();
    Image::from_raw(side, side, ChannelOrder::Rgb, data).unwrap()
}

/// `(minimum, median)` ns per output byte of `call`, which writes `bytes`.
fn time<T>(bytes: usize, mut call: impl FnMut() -> T) -> (f64, f64) {
    let mut samples: Vec<Duration> = (0..WARMUPS + CALLS)
        .map(|_| {
            let start = Instant::now();
            black_box(call());
            start.elapsed()
        })
        .skip(WARMUPS)
        .collect();
    samples.sort();
    let per = |d: Duration| d.as_secs_f64() * 1e9 / bytes as f64;
    (per(samples[0]), per(samples[CALLS / 2]))
}

#[test]
#[ignore = "timing probe: run with --ignored --nocapture"]
fn preprocess_time_per_output_byte() {
    for (side, target) in SHAPES {
        let img = frame(side);
        let cfg = ImagePreprocessConfig::mobilenet_style(target, target);
        let resized = resize(&img, target, target, ResizeMethod::AreaAverage).unwrap();
        let bytes = resized.data().len();
        let stages: [(&str, (f64, f64)); 3] = [
            ("apply", time(bytes, || cfg.apply(black_box(&img)).unwrap())),
            (
                "resize",
                time(bytes, || {
                    resize(black_box(&img), target, target, cfg.resize).unwrap()
                }),
            ),
            (
                "image_to_tensor",
                time(bytes, || {
                    image_to_tensor(black_box(&resized), cfg.channel_order, cfg.normalization)
                        .unwrap()
                }),
            ),
        ];
        for (stage, (min, p50)) in stages {
            println!(
                "{stage:<15} {side:>3}x{side:<3} -> {target:>2}x{target:<2}  \
                 min {min:>6.3} ns/byte  p50 {p50:>6.3} ns/byte  \
                 (min {:>7.2} us)",
                min * bytes as f64 / 1e3
            );
        }
    }
}
