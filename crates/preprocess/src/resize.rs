use serde::{Deserialize, Serialize};

use crate::{Image, PreprocessError, Result};

/// Image resampling algorithm.
///
/// Training pipelines for the classification models in §4.3 downscale with
/// area averaging; a deployment that defaults to bilinear resampling aliases
/// high-frequency content and silently costs 1–3 % top-1 accuracy (the
/// "tf.image.resize stole 60 days of my life" bug class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ResizeMethod {
    /// Nearest-neighbour sampling (fast, heavy aliasing).
    Nearest,
    /// Bilinear interpolation without an anti-aliasing prefilter.
    Bilinear,
    /// Box/area averaging over the source footprint of each output pixel.
    AreaAverage,
}

/// Resizes an image to `target_width x target_height` with the given method.
///
/// # Errors
///
/// Returns [`PreprocessError::InvalidImage`] when a target dimension is zero.
pub fn resize(
    img: &Image,
    target_width: usize,
    target_height: usize,
    method: ResizeMethod,
) -> Result<Image> {
    if target_width == 0 || target_height == 0 {
        return Err(PreprocessError::InvalidImage(
            "zero-sized resize target".into(),
        ));
    }
    if target_width == img.width() && target_height == img.height() {
        return Ok(img.clone());
    }
    let mut out = Image::solid(target_width, target_height, [0, 0, 0]).relabeled(img.order());
    match method {
        ResizeMethod::Nearest => nearest(img, &mut out),
        ResizeMethod::Bilinear => bilinear(img, &mut out),
        ResizeMethod::AreaAverage => area_average(img, &mut out),
    }
    Ok(out)
}

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
        // Half-pixel centres, clamped to the valid sample grid.
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
    // Every output row uses the same source column spans.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_resize_is_clone() {
        let img = Image::checkerboard(4, 4, [255, 255, 255], [0, 0, 0]);
        let out = resize(&img, 4, 4, ResizeMethod::Bilinear).unwrap();
        assert_eq!(img, out);
    }

    #[test]
    fn zero_target_rejected() {
        let img = Image::solid(4, 4, [1, 2, 3]);
        assert!(resize(&img, 0, 4, ResizeMethod::Nearest).is_err());
    }

    #[test]
    fn area_average_preserves_mean_of_checkerboard() {
        // Downscaling a 1-px checkerboard by 2 with area averaging lands on
        // the mean (~127/128); nearest keeps extremes — the aliasing the
        // paper's resize assertion catches.
        let img = Image::checkerboard(8, 8, [255, 255, 255], [0, 0, 0]);
        let area = resize(&img, 4, 4, ResizeMethod::AreaAverage).unwrap();
        let near = resize(&img, 4, 4, ResizeMethod::Nearest).unwrap();
        let p = area.pixel(0, 0);
        assert!(
            p[0] >= 126 && p[0] <= 129,
            "area average should blend: {p:?}"
        );
        let q = near.pixel(0, 0);
        assert!(q[0] == 0 || q[0] == 255, "nearest should alias: {q:?}");
    }

    /// The per-tap loop `area_average` replaced — column spans recomputed
    /// on every row, every tap through `pixel()` — kept as its oracle.
    fn area_average_per_tap(src: &Image, dst: &mut Image) {
        let sx = src.width() as f32 / dst.width() as f32;
        let sy = src.height() as f32 / dst.height() as f32;
        for y in 0..dst.height() {
            let y_lo = (y as f32 * sy).floor() as usize;
            let y_hi = (((y + 1) as f32 * sy).ceil() as usize)
                .min(src.height())
                .max(y_lo + 1);
            for x in 0..dst.width() {
                let x_lo = (x as f32 * sx).floor() as usize;
                let x_hi = (((x + 1) as f32 * sx).ceil() as usize)
                    .min(src.width())
                    .max(x_lo + 1);
                let mut acc = [0f32; 3];
                let mut count = 0f32;
                for yy in y_lo..y_hi {
                    for xx in x_lo..x_hi {
                        let p = src.pixel(xx, yy);
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

    #[test]
    fn area_average_matches_the_per_tap_loop_on_awkward_sizes() {
        // Non-square sources and targets, non-integer ratios both ways,
        // up- and down-scaling, single-row/column extremes.
        let sizes = [
            ((60, 60), (24, 24)),
            ((60, 40), (24, 17)),
            ((37, 53), (16, 9)),
            ((13, 7), (5, 3)),
            ((7, 13), (10, 20)),
            ((5, 5), (7, 3)),
            ((64, 1), (9, 1)),
            ((1, 31), (1, 4)),
            ((100, 3), (33, 2)),
        ];
        for ((w, h), (tw, th)) in sizes {
            let data: Vec<u8> = (0..w * h * 3)
                .map(|i| ((i * 2_654_435_761usize) >> 7) as u8)
                .collect();
            let src = Image::from_raw(w, h, crate::ChannelOrder::Rgb, data).unwrap();
            let mut expected = Image::solid(tw, th, [0, 0, 0]);
            area_average_per_tap(&src, &mut expected);
            let got = resize(&src, tw, th, ResizeMethod::AreaAverage).unwrap();
            assert_eq!(got, expected, "{w}x{h} -> {tw}x{th}");
        }
    }

    #[test]
    fn upscale_solid_stays_solid() {
        let img = Image::solid(2, 2, [9, 10, 11]);
        for method in [
            ResizeMethod::Nearest,
            ResizeMethod::Bilinear,
            ResizeMethod::AreaAverage,
        ] {
            let out = resize(&img, 5, 3, method).unwrap();
            assert_eq!(out.width(), 5);
            assert_eq!(out.height(), 3);
            for y in 0..3 {
                for x in 0..5 {
                    assert_eq!(out.pixel(x, y), [9, 10, 11], "{method:?}");
                }
            }
        }
    }

    #[test]
    fn methods_differ_on_textured_downscale() {
        let img = Image::checkerboard(16, 16, [255, 0, 0], [0, 0, 255]);
        let a = resize(&img, 5, 5, ResizeMethod::AreaAverage).unwrap();
        let b = resize(&img, 5, 5, ResizeMethod::Bilinear).unwrap();
        assert_ne!(a, b, "area and bilinear should disagree on aliased content");
    }
}
