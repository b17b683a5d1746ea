//! The per-pixel preprocessing the one-pass code replaced, kept as its
//! bitwise oracle: resizing through `pixel`/`set_pixel` with `f32` tap sums
//! and `f32::round`, and normalization through a channel-reordered copy of
//! the image.

use mlexray_tensor::{Shape, Tensor};

use crate::ResizeMethod;
use crate::{rotate, ChannelOrder, Image, ImagePreprocessConfig, NormalizationScheme, Rotation};

fn nearest(src: &Image, dst: &mut Image) {
    let sx = src.width() as f32 / dst.width() as f32;
    let sy = src.height() as f32 / dst.height() as f32;
    for y in 0..dst.height() {
        let yy = ((y as f32 + 0.5) * sy) as usize;
        let yy = yy.min(src.height() - 1);
        for x in 0..dst.width() {
            let xx = ((x as f32 + 0.5) * sx) as usize;
            let xx = xx.min(src.width() - 1);
            dst.set_pixel(x, y, src.pixel(xx, yy));
        }
    }
}

fn bilinear(src: &Image, dst: &mut Image) {
    let sx = src.width() as f32 / dst.width() as f32;
    let sy = src.height() as f32 / dst.height() as f32;
    for y in 0..dst.height() {
        let fy = ((y as f32 + 0.5) * sy - 0.5).max(0.0);
        let y0 = (fy as usize).min(src.height() - 1);
        let y1 = (y0 + 1).min(src.height() - 1);
        let wy = fy - y0 as f32;
        for x in 0..dst.width() {
            let fx = ((x as f32 + 0.5) * sx - 0.5).max(0.0);
            let x0 = (fx as usize).min(src.width() - 1);
            let x1 = (x0 + 1).min(src.width() - 1);
            let wx = fx - x0 as f32;
            let mut px = [0u8; 3];
            for (c, out) in px.iter_mut().enumerate() {
                let p00 = src.pixel(x0, y0)[c] as f32;
                let p10 = src.pixel(x1, y0)[c] as f32;
                let p01 = src.pixel(x0, y1)[c] as f32;
                let p11 = src.pixel(x1, y1)[c] as f32;
                let top = p00 + (p10 - p00) * wx;
                let bot = p01 + (p11 - p01) * wx;
                *out = (top + (bot - top) * wy).round().clamp(0.0, 255.0) as u8;
            }
            dst.set_pixel(x, y, px);
        }
    }
}

fn area_average(src: &Image, dst: &mut Image) {
    let sx = src.width() as f32 / dst.width() as f32;
    let sy = src.height() as f32 / dst.height() as f32;
    let spans: Vec<(usize, usize)> = (0..dst.width())
        .map(|x| {
            let x_lo = (x as f32 * sx).floor() as usize;
            let x_hi = (((x + 1) as f32 * sx).ceil() as usize)
                .min(src.width())
                .max(x_lo + 1);
            (x_lo, x_hi)
        })
        .collect();
    let row_len = src.width() * Image::CHANNELS;
    for y in 0..dst.height() {
        let y_lo = (y as f32 * sy).floor() as usize;
        let y_hi = (((y + 1) as f32 * sy).ceil() as usize)
            .min(src.height())
            .max(y_lo + 1);
        let rows = &src.data()[y_lo * row_len..y_hi * row_len];
        for (x, &(x_lo, x_hi)) in spans.iter().enumerate() {
            let mut acc = [0f32; 3];
            let mut count = 0f32;
            for row in rows.chunks_exact(row_len) {
                let taps = &row[x_lo * Image::CHANNELS..x_hi * Image::CHANNELS];
                for p in taps.chunks_exact(Image::CHANNELS) {
                    for c in 0..3 {
                        acc[c] += p[c] as f32;
                    }
                    count += 1.0;
                }
            }
            let px = [
                (acc[0] / count).round().clamp(0.0, 255.0) as u8,
                (acc[1] / count).round().clamp(0.0, 255.0) as u8,
                (acc[2] / count).round().clamp(0.0, 255.0) as u8,
            ];
            dst.set_pixel(x, y, px);
        }
    }
}

fn resize(img: &Image, width: usize, height: usize, method: ResizeMethod) -> Image {
    if width == img.width() && height == img.height() {
        return img.clone();
    }
    let mut out = Image::solid(width, height, [0, 0, 0]).relabeled(img.order());
    match method {
        ResizeMethod::Nearest => nearest(img, &mut out),
        ResizeMethod::Bilinear => bilinear(img, &mut out),
        ResizeMethod::AreaAverage => area_average(img, &mut out),
    }
    out
}

fn image_to_tensor(img: &Image, wanted: ChannelOrder, scheme: NormalizationScheme) -> Tensor {
    let img = img.to_order(wanted);
    let (w, h) = (img.width(), img.height());
    let mut data = Vec::with_capacity(w * h * 3);
    for y in 0..h {
        for x in 0..w {
            for (c, &v) in img.pixel(x, y).iter().enumerate() {
                data.push(scheme.apply_byte(v, c));
            }
        }
    }
    Tensor::from_f32(Shape::nhwc(1, h, w, 3), data).expect("valid image")
}

/// [`ImagePreprocessConfig::apply`], per pixel.
fn apply(cfg: &ImagePreprocessConfig, img: &Image) -> Tensor {
    let rotated = rotate(img, cfg.rotation);
    let resized = resize(&rotated, cfg.target_width, cfg.target_height, cfg.resize);
    image_to_tensor(&resized, cfg.channel_order, cfg.normalization)
}

mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::resize::{round_in_range, round_to_u8};

    const METHODS: [ResizeMethod; 3] = [
        ResizeMethod::Nearest,
        ResizeMethod::Bilinear,
        ResizeMethod::AreaAverage,
    ];
    const SCHEMES: [NormalizationScheme; 4] = [
        NormalizationScheme::ZeroToOne,
        NormalizationScheme::MinusOneToOne,
        NormalizationScheme::MeanStd {
            mean: [0.406, 0.456, 0.485],
            std: [0.225, 0.224, 0.229],
        },
        NormalizationScheme::RawByte,
    ];
    const ORDERS: [ChannelOrder; 2] = [ChannelOrder::Rgb, ChannelOrder::Bgr];
    /// Methods × schemes × model orders × (labelled, relabeled) × rotations.
    const COMBOS: usize = 3 * 4 * 2 * 2 * 4;

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_f32().unwrap().iter().map(|v| v.to_bits()).collect()
    }

    fn frame(width: usize, height: usize, seed: u64) -> Image {
        let data = (0..width * height * 3)
            .map(|i| ((i as u64 ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8)
            .collect();
        Image::from_raw(width, height, ChannelOrder::Rgb, data).unwrap()
    }

    /// Runs combination `combo` on `src` both ways and compares the bits.
    fn check(src: &Image, target: (usize, usize), combo: usize) {
        let (method, rest) = (METHODS[combo % 3], combo / 3);
        let (normalization, rest) = (SCHEMES[rest % 4], rest / 4);
        let (channel_order, rest) = (ORDERS[rest % 2], rest / 2);
        let (relabel, rest) = (rest % 2 == 1, rest / 2);
        let rotation = Rotation::ALL[rest % 4];
        let cfg = ImagePreprocessConfig {
            target_width: target.0,
            target_height: target.1,
            resize: method,
            channel_order,
            normalization,
            rotation,
        };
        // A relabeled frame is the §2 channel bug: bytes kept, label swapped.
        let img = if relabel {
            src.relabeled(ChannelOrder::Bgr)
        } else {
            src.clone()
        };
        let got = cfg.apply(&img).unwrap();
        let want = apply(&cfg, &img);
        assert_eq!(got.shape(), want.shape(), "{cfg:?} relabel={relabel}");
        assert!(
            bits(&got) == bits(&want),
            "{}x{} {cfg:?} relabel={relabel}",
            src.width(),
            src.height()
        );
    }

    #[test]
    fn every_combination_matches_the_oracle_on_awkward_sizes() {
        let sizes = [
            ((60, 60), (24, 24)),
            ((60, 40), (24, 17)),
            ((37, 53), (16, 9)),
            ((13, 7), (5, 3)),
            ((7, 13), (10, 20)),
            ((5, 5), (7, 3)),
            ((64, 1), (9, 1)),
            ((1, 31), (1, 4)),
            ((1, 1), (3, 2)),
        ];
        for (i, ((w, h), target)) in sizes.into_iter().enumerate() {
            let src = frame(w, h, i as u64);
            for combo in 0..COMBOS {
                check(&src, target, combo);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn apply_matches_the_per_pixel_oracle_bitwise(
            width in 1usize..=97,
            height in 1usize..=97,
            target_width in 1usize..=97,
            target_height in 1usize..=97,
            seed in 0u64..u64::MAX,
            combo in 0usize..COMBOS,
        ) {
            check(&frame(width, height, seed), (target_width, target_height), combo);
        }
    }

    /// Both rounding helpers against `f32::round` then the clamp: the
    /// general one everywhere, the in-range one on `[0, 255]`, where every
    /// area-average quotient lies.
    fn assert_rounds_like_f32_round(q: f32) {
        let want = q.round().clamp(0.0, 255.0) as u8;
        assert_eq!(round_to_u8(q), want, "{q:?} ({:#010x})", q.to_bits());
        if (0.0..=255.0).contains(&q) {
            assert_eq!(round_in_range(q), want, "{q:?} ({:#010x})", q.to_bits());
        }
    }

    #[test]
    fn rounding_matches_f32_round_then_clamp() {
        // Every area-average quotient of up to 64 taps, and of 255, 65 535
        // and 65 793 taps — the last the most whose byte sums stay below
        // 2²⁴.
        for n in (1..=64u32).chain([255, 65_535, 65_793]) {
            for k in 0..=255 * n {
                assert_rounds_like_f32_round(k as f32 / n as f32);
            }
        }
        // The half-way points and their neighbours one ulp either side.
        for i in -2..=300 {
            let half = i as f32 + 0.5;
            for q in [
                half,
                f32::from_bits(half.to_bits() - 1),
                f32::from_bits(half.to_bits() + 1),
            ] {
                assert_rounds_like_f32_round(q);
            }
        }
        let specials = [
            0.0,
            -0.0,
            -f32::MIN_POSITIVE,
            -0.3,
            -0.5,
            -0.7,
            -1.5,
            -255.5,
            -1e10,
            f32::MIN,
            255.49998,
            254.5,
            2_147_483_520.0,
            2_147_483_648.0,
            4_294_967_296.0,
            1e20,
            f32::MAX,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
        ];
        for q in specials {
            assert_rounds_like_f32_round(q);
        }
    }
}
