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
    let mut out = Image::blank(target_width, target_height, img.order());
    match method {
        ResizeMethod::Nearest => nearest(img, &mut out),
        ResizeMethod::Bilinear => bilinear(img, &mut out),
        ResizeMethod::AreaAverage => area_average(img, &mut out),
    }
    Ok(out)
}

/// Exactly `q.round().clamp(0.0, 255.0) as u8` for every `f32` (NaN and
/// negatives give 0, anything from 254.5 up gives 255), without the libm
/// `round` call: `q - t` is exact for the truncation `t`, so comparing it
/// with one half rounds half away from zero as `f32::round` does. The
/// comparison feeds an add, not a branch: on image data it is a coin flip.
#[inline]
pub(crate) fn round_to_u8(q: f32) -> u8 {
    let t = q as i32; // saturating; NaN truncates to 0
    let up = i32::from(q - t as f32 >= 0.5); // never for a negative q
    (t.clamp(0, 255) + up).min(255) as u8
}

fn nearest(src: &Image, dst: &mut Image) {
    const C: usize = Image::CHANNELS;
    let (sw, sh) = (src.width(), src.height());
    let sx = sw as f32 / dst.width() as f32;
    let sy = sh as f32 / dst.height() as f32;
    let columns: Vec<usize> = (0..dst.width())
        .map(|x| (((x as f32 + 0.5) * sx) as usize).min(sw - 1))
        .collect();
    let row_len = dst.width() * C;
    for (y, out) in dst.data_mut().chunks_exact_mut(row_len).enumerate() {
        let yy = (((y as f32 + 0.5) * sy) as usize).min(sh - 1);
        let row = &src.data()[yy * sw * C..(yy + 1) * sw * C];
        for (px, &xx) in out.chunks_exact_mut(C).zip(&columns) {
            px.copy_from_slice(&row[xx * C..(xx + 1) * C]);
        }
    }
}

/// The two neighbouring source samples of each output coordinate along one
/// axis and the weight of the second: half-pixel centres, clamped to the
/// valid sample grid.
fn bilinear_taps(src_len: usize, dst_len: usize) -> Vec<(usize, usize, f32)> {
    let scale = src_len as f32 / dst_len as f32;
    (0..dst_len)
        .map(|i| {
            let f = ((i as f32 + 0.5) * scale - 0.5).max(0.0);
            let lo = (f as usize).min(src_len - 1);
            (lo, (lo + 1).min(src_len - 1), f - lo as f32)
        })
        .collect()
}

fn bilinear(src: &Image, dst: &mut Image) {
    const C: usize = Image::CHANNELS;
    let src_row = src.width() * C;
    let columns = bilinear_taps(src.width(), dst.width());
    let rows = bilinear_taps(src.height(), dst.height());
    let row_len = dst.width() * C;
    for (out, &(y0, y1, wy)) in dst.data_mut().chunks_exact_mut(row_len).zip(&rows) {
        let r0 = &src.data()[y0 * src_row..(y0 + 1) * src_row];
        let r1 = &src.data()[y1 * src_row..(y1 + 1) * src_row];
        for (px, &(x0, x1, wx)) in out.chunks_exact_mut(C).zip(&columns) {
            for (c, v) in px.iter_mut().enumerate() {
                let p00 = r0[x0 * C + c] as f32;
                let p10 = r0[x1 * C + c] as f32;
                let p01 = r1[x0 * C + c] as f32;
                let p11 = r1[x1 * C + c] as f32;
                let top = p00 + (p10 - p00) * wx;
                let bot = p01 + (p11 - p01) * wx;
                *v = round_to_u8(top + (bot - top) * wy);
            }
        }
    }
}

/// The source span `[lo, hi)` each output coordinate averages along one
/// axis: at least one sample, never past the edge.
fn area_spans(src_len: usize, dst_len: usize) -> Vec<(usize, usize)> {
    let scale = src_len as f32 / dst_len as f32;
    (0..dst_len)
        .map(|i| {
            let lo = (i as f32 * scale).floor() as usize;
            let hi = (((i + 1) as f32 * scale).ceil() as usize)
                .min(src_len)
                .max(lo + 1);
            (lo, hi)
        })
        .collect()
}

/// Box average: each output row first sums its source rows into an integer
/// column buffer, then each output pixel adds its span of columns. The
/// integer sum is exact; so is a per-tap `f32` running sum while it stays
/// below 2²⁴ (fewer than 65 793 taps per output pixel), so up to there
/// `sum / taps` and the rounded byte are bitwise what per-tap `f32`
/// accumulation gives.
fn area_average(src: &Image, dst: &mut Image) {
    const C: usize = Image::CHANNELS;
    let src_row = src.width() * C;
    let columns = area_spans(src.width(), dst.width());
    let rows = area_spans(src.height(), dst.height());
    let mut sums = vec![0u32; src_row];
    let row_len = dst.width() * C;
    for (out, &(y_lo, y_hi)) in dst.data_mut().chunks_exact_mut(row_len).zip(&rows) {
        sums.fill(0);
        for row in src.data()[y_lo * src_row..y_hi * src_row].chunks_exact(src_row) {
            for (sum, &v) in sums.iter_mut().zip(row) {
                *sum += u32::from(v);
            }
        }
        for (px, &(x_lo, x_hi)) in out.chunks_exact_mut(C).zip(&columns) {
            let taps = ((y_hi - y_lo) * (x_hi - x_lo)) as f32;
            let mut acc = [0u32; C];
            for col in sums[x_lo * C..x_hi * C].chunks_exact(C) {
                for (a, &s) in acc.iter_mut().zip(col) {
                    *a += s;
                }
            }
            for (v, a) in px.iter_mut().zip(acc) {
                *v = round_to_u8(a as f32 / taps);
            }
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
