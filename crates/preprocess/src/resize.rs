//! Image resampling. The area average — the canonical resize of every
//! model family here — runs each output row as whole-row passes the
//! baseline (SSE2) build vectorizes: the source rows of its span summed
//! into one row of `u16` column sums, each pixel's columns added four
//! lanes at a time, one divide per lane, and a rounding in plain lane
//! arithmetic that is exact on the quotient's `[0, 255]` range. Spans wider
//! than four columns, or sums past `u16`, take a per-pixel loop over `u32`
//! sums. Every byte is the per-tap `f32` definition's, to the bit.

use std::ops::{Add, AddAssign};

use serde::{Deserialize, Serialize};

use crate::{Image, PreprocessError, Result};

const C: usize = Image::CHANNELS;

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
/// Returns [`PreprocessError::InvalidImage`] when a target dimension is zero
/// or `target_width * target_height * 3` overflows `usize`.
pub fn resize(
    img: &Image,
    target_width: usize,
    target_height: usize,
    method: ResizeMethod,
) -> Result<Image> {
    let len = target_len(target_width, target_height)?;
    if target_width == img.width() && target_height == img.height() {
        return Ok(img.clone());
    }
    let resample = |fill: fn(&Image, &mut Image)| {
        let mut out = Image::blank(target_width, target_height, img.order())?;
        fill(img, &mut out);
        Ok(out)
    };
    match method {
        ResizeMethod::Nearest => resample(nearest),
        ResizeMethod::Bilinear => resample(bilinear),
        ResizeMethod::AreaAverage => {
            let mut data = Vec::with_capacity(len);
            area_average(img, target_width, target_height, |bytes| {
                data.extend_from_slice(bytes)
            });
            Image::from_raw(target_width, target_height, img.order(), data)
        }
    }
}

/// The byte count of a `width x height` resize target.
///
/// # Errors
///
/// Returns [`PreprocessError::InvalidImage`] when a dimension is zero or
/// the byte count overflows `usize`.
pub(crate) fn target_len(width: usize, height: usize) -> Result<usize> {
    if width == 0 || height == 0 {
        return Err(PreprocessError::InvalidImage(
            "zero-sized resize target".into(),
        ));
    }
    Image::byte_len(width, height)
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

/// `q.round() as u8` for a `q` in `[0, 255]` — every area-average quotient
/// lies there — in plain lane arithmetic that vectorizes: adding 2²³
/// rounds `q` to the nearest integer, ties to even, because from 2²³ on an
/// `f32`'s ulp is one, and that integer is the sum's low mantissa bits.
/// `q` minus it is exact, and is one half exactly at the ties the even
/// rounding took down, which rounding half away from zero takes up.
#[inline(always)]
pub(crate) fn round_in_range(q: f32) -> u8 {
    debug_assert!((0.0..=255.0).contains(&q), "{q} is outside [0, 255]");
    const TWO_23: f32 = 8_388_608.0;
    let m = q + TWO_23;
    let even = m.to_bits() - TWO_23.to_bits();
    let tie = u32::from(q - (m - TWO_23) == 0.5);
    (even + tie) as u8
}

fn nearest(src: &Image, dst: &mut Image) {
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

/// The source span `[lo, hi)` output coordinate `i` averages along an axis
/// of `src_len` samples scaled by `scale`: `floor(i · scale)` up to
/// `ceil((i + 1) · scale)`, at least one sample, never past the edge. The
/// products are non-negative, so `as usize` is the floor, and the ceiling
/// is one more exactly where that floor falls short of the product: the
/// libm spans without a libm call.
#[inline]
fn area_span(i: usize, scale: f32, src_len: usize) -> (usize, usize) {
    let lo = (i as f32 * scale) as usize;
    let end = (i + 1) as f32 * scale;
    let floor = end as usize;
    let hi = floor + usize::from((floor as f32) < end);
    (lo, hi.min(src_len).max(lo + 1))
}

/// Output pixels an area-average row rounds, and hands on, at a time: the
/// whole row of a model-input-sized target.
const BLOCK: usize = 64;

/// Box average of `src` to `width x height`, handed to `emit` in output
/// order, each output row in blocks of at most [`BLOCK`] pixels.
///
/// Every byte is `round(sum / taps)` of the integer sum of the pixel's
/// source footprint, rounded half away from zero. The sum is exact; so is a
/// per-tap `f32` running sum while it stays below 2²⁴ (fewer than 65 793
/// taps per output pixel), so up to there the quotient and the byte are
/// bitwise what per-tap `f32` accumulation gives.
///
/// Each output row runs as whole-row passes over one row of column sums:
/// the source rows of its span added lane by lane, then each pixel's
/// columns, then the divides and the rounding. When no pixel spans more
/// than four columns (a downscale by up to 3×: 60 → 24 and 224 → 96 alike)
/// and the sums fit `u16` lanes, [`narrow_rows`] adds a pixel's channels
/// four lanes at a time in a loop of constant width, and the quotients
/// round as one vector run ([`round_in_range`]); otherwise [`general_rows`]
/// walks each pixel's own span.
pub(crate) fn area_average(src: &Image, width: usize, height: usize, emit: impl FnMut(&[u8])) {
    let sx = src.width() as f32 / width as f32;
    let sy = src.height() as f32 / height as f32;
    let tallest = (0..height)
        .map(|y| area_span(y, sy, src.height()))
        .map(|(lo, hi)| hi - lo)
        .max()
        .unwrap_or(1);
    let spans: Vec<(usize, usize)> = (0..width).map(|x| area_span(x, sx, src.width())).collect();
    let widest = spans.iter().map(|(lo, hi)| hi - lo).max().unwrap_or(1);
    let rows = (height, sy);
    if tallest.saturating_mul(widest).saturating_mul(255) > usize::from(u16::MAX) {
        return general_rows(src, &spans, rows, emit);
    }
    match widest {
        1 => narrow_rows::<1>(src, &spans, rows, emit),
        2 => narrow_rows::<2>(src, &spans, rows, emit),
        3 => narrow_rows::<3>(src, &spans, rows, emit),
        4 => narrow_rows::<4>(src, &spans, rows, emit),
        _ => general_rows(src, &spans, rows, emit),
    }
}

/// Output row `y`'s column sums into `sums`: lane `e` of the result is the
/// sum of byte `e` over the source rows `y` spans, added two rows a pass.
/// Returns the row count.
#[inline(always)]
fn column_sums<S>(src: &Image, y: usize, sy: f32, sums: &mut [S]) -> usize
where
    S: Copy + From<u8> + Add<Output = S> + AddAssign,
{
    let src_row = src.width() * C;
    let (y_lo, y_hi) = area_span(y, sy, src.height());
    let (first, rest) = src.data()[y_lo * src_row..y_hi * src_row].split_at(src_row);
    let mut rest = rest.chunks_exact(src_row);
    match rest.next() {
        Some(second) => {
            for ((sum, &a), &b) in sums.iter_mut().zip(first).zip(second) {
                *sum = S::from(a) + S::from(b);
            }
        }
        None => {
            for (sum, &a) in sums.iter_mut().zip(first) {
                *sum = S::from(a);
            }
        }
    }
    while let Some(row) = rest.next() {
        match rest.next() {
            Some(next) => {
                for ((sum, &a), &b) in sums.iter_mut().zip(row).zip(next) {
                    *sum += S::from(a) + S::from(b);
                }
            }
            None => {
                for (sum, &a) in sums.iter_mut().zip(row) {
                    *sum += S::from(a);
                }
            }
        }
    }
    y_hi - y_lo
}

/// Every output row of a resize whose pixels span at most `W` columns, with
/// sums that fit `u16` lanes. A pixel's `C` channel sums come from one
/// four-lane add per column of its span, done as one `u64` add — no lane
/// carries into the next, since none passes `u16::MAX`; the fourth lane,
/// the next column's first channel or slack, is dropped — and land side by
/// side in one output row of sums. That row then divides by each lane's
/// tap count and rounds as one run of vector lanes.
fn narrow_rows<const W: usize>(
    src: &Image,
    spans: &[(usize, usize)],
    (height, sy): (usize, f32),
    mut emit: impl FnMut(&[u8]),
) {
    /// Lanes `0..4` of `lanes` as one `u64`, lane 0 lowest.
    #[inline(always)]
    fn load(lanes: &[u16]) -> u64 {
        lanes[..4]
            .iter()
            .rev()
            .fold(0, |word, &lane| word << 16 | u64::from(lane))
    }
    let src_row = src.width() * C;
    let out_row = spans.len() * C;
    // The column sums of a source row, with slack for a last pixel's reads
    // past its span; the sums of an output row; the span width of each of
    // its lanes.
    let mut scratch = vec![0u16; src_row + W * C + 2 * out_row];
    let (sums, rest) = scratch.split_at_mut(src_row + W * C);
    let (acc, widths) = rest.split_at_mut(out_row);
    for (lanes, &(lo, hi)) in widths.chunks_exact_mut(C).zip(spans) {
        lanes.fill((hi - lo) as u16);
    }
    let mut bytes = [0u8; BLOCK * C];
    for y in 0..height {
        let rows = column_sums(src, y, sy, sums) as f32;
        for (px, &(lo, hi)) in acc.chunks_exact_mut(C).zip(spans) {
            let columns = &sums[lo * C..][..W * C + 1];
            let word = (0..W).fold(0u64, |word, j| {
                word + if lo + j < hi {
                    load(&columns[j * C..])
                } else {
                    0
                }
            });
            for (i, lane) in px.iter_mut().enumerate() {
                *lane = (word >> (16 * i)) as u16;
            }
        }
        for (block, widths) in acc.chunks(BLOCK * C).zip(widths.chunks(BLOCK * C)) {
            let bytes = &mut bytes[..block.len()];
            for ((byte, &a), &w) in bytes.iter_mut().zip(block).zip(widths) {
                // `rows · w` is at most 257, so the `f32` product is exact.
                *byte = round_in_range(f32::from(a) / (rows * f32::from(w)));
            }
            emit(bytes);
        }
    }
}

/// Every output row of a resize whose pixels span more than four columns,
/// or whose sums pass `u16` lanes, in `u32` lanes: each pixel walks its
/// own span.
fn general_rows(
    src: &Image,
    spans: &[(usize, usize)],
    (height, sy): (usize, f32),
    mut emit: impl FnMut(&[u8]),
) {
    let mut sums = vec![0u32; src.width() * C];
    let mut bytes = [0u8; BLOCK * C];
    for y in 0..height {
        let rows = column_sums(src, y, sy, &mut sums);
        for block in spans.chunks(BLOCK) {
            let bytes = &mut bytes[..block.len() * C];
            for (px, &(x_lo, x_hi)) in bytes.chunks_exact_mut(C).zip(block) {
                let taps = (rows * (x_hi - x_lo)) as f32;
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
            emit(bytes);
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
    fn a_target_whose_size_overflows_is_rejected() {
        // 2^62 · 4 · 3 bytes wrap to 0: refused before any allocation.
        let img = Image::solid(4, 4, [1, 2, 3]);
        for method in [
            ResizeMethod::Nearest,
            ResizeMethod::Bilinear,
            ResizeMethod::AreaAverage,
        ] {
            let err = resize(&img, 1 << 62, 4, method).unwrap_err();
            assert!(matches!(err, PreprocessError::InvalidImage(_)), "{err:?}");
        }
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
            // Spans of three and four columns side by side.
            ((224, 224), (96, 96)),
            // 49 × 21-tap spans: sums past `u16` lanes.
            ((97, 61), (2, 3)),
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
