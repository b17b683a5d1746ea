//! Byte → float conversion. A scheme that ignores the channel (every one
//! but `MeanStd`) converts a run of bytes in one vector pass of its own
//! formula and swaps channels afterwards; `MeanStd` reads each byte through
//! a per-channel table. Either way every float is bitwise
//! `NormalizationScheme::apply_byte` of its byte.

use serde::{Deserialize, Serialize};

use mlexray_tensor::{Shape, Tensor};

use crate::{ChannelOrder, Image, Result};

/// Numerical conversion from 8-bit pixels to model-input floats.
///
/// §2: "if the network expects `[-1.0, 1.0]` and the conversion produces
/// `[0.0, 1.0]`, it will just appear as a washed-out image" — recognition
/// keeps *somewhat* working with a large silent accuracy loss (§4.3 measures
/// up to 20 %). Each Keras model family uses a different scheme (MobileNet:
/// `[-1,1]`; DenseNet: `[0,1]`; VGG: BGR mean subtraction), which is why this
/// is an enum rather than a constant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NormalizationScheme {
    /// `v / 255` → `[0, 1]`.
    ZeroToOne,
    /// `v / 127.5 - 1` → `[-1, 1]` (MobileNet family).
    MinusOneToOne,
    /// `(v / 255 - mean[c]) / std[c]` per channel (ImageNet-style).
    MeanStd {
        /// Per-channel mean in `[0,1]` units.
        mean: [f32; 3],
        /// Per-channel standard deviation in `[0,1]` units.
        std: [f32; 3],
    },
    /// Raw byte values as floats, `[0, 255]` (the "forgot to scale" bug).
    RawByte,
}

impl NormalizationScheme {
    /// Applies the scheme to one byte value in channel `c`.
    #[inline]
    pub fn apply_byte(&self, v: u8, c: usize) -> f32 {
        let v = v as f32;
        match *self {
            NormalizationScheme::ZeroToOne => v / 255.0,
            NormalizationScheme::MinusOneToOne => v / 127.5 - 1.0,
            NormalizationScheme::MeanStd { mean, std } => (v / 255.0 - mean[c]) / std[c],
            NormalizationScheme::RawByte => v,
        }
    }

    /// Nominal output range of the scheme (used by the normalization-range
    /// assertion to diagnose mismatches).
    pub fn nominal_range(&self) -> (f32, f32) {
        match *self {
            NormalizationScheme::ZeroToOne => (0.0, 1.0),
            NormalizationScheme::MinusOneToOne => (-1.0, 1.0),
            NormalizationScheme::MeanStd { mean, std } => {
                let lo = (0..3)
                    .map(|c| (0.0 - mean[c]) / std[c])
                    .fold(f32::INFINITY, f32::min);
                let hi = (0..3)
                    .map(|c| (1.0 - mean[c]) / std[c])
                    .fold(f32::NEG_INFINITY, f32::max);
                (lo, hi)
            }
            NormalizationScheme::RawByte => (0.0, 255.0),
        }
    }
}

/// Converts an image to a `[1, H, W, 3]` float tensor in the given channel
/// order with the given normalization.
///
/// The image's *labelled* order is trusted: a mislabeled image (see
/// [`Image::relabeled`]) flows through unchanged, exactly like the real bug.
///
/// Every element is bitwise `scheme.apply_byte(v, c)` of the byte `v` that
/// lands in channel `c` once the bytes are in `wanted` order: one vector
/// pass of the scheme's formula when it ignores the channel, a per-channel
/// table for `MeanStd`.
///
/// # Errors
///
/// Propagates tensor construction errors (cannot occur for valid images).
pub fn image_to_tensor(
    img: &Image,
    wanted: ChannelOrder,
    scheme: NormalizationScheme,
) -> Result<Tensor> {
    let mut data = Vec::with_capacity(img.data().len());
    Normalizer::new(scheme, img.order(), wanted).extend(&mut data, img.data());
    Ok(Tensor::from_f32(
        Shape::nhwc(1, img.height(), img.width(), Image::CHANNELS),
        data,
    )?)
}

/// How one image's bytes become model-input floats, worked out once per
/// image and applied to any run of its whole pixels.
pub(crate) enum Normalizer {
    /// A scheme that ignores the channel (`ZeroToOne`, `MinusOneToOne`,
    /// `RawByte`): its formula over every byte in one vector pass, then —
    /// when the stored order is not the wanted one — the first and last
    /// float of each pixel swapped, which is the same as swapping the bytes
    /// first.
    Flat {
        scheme: NormalizationScheme,
        swap: bool,
    },
    /// `MeanStd`, which reads the channel: its 3 × 256 values tabulated and
    /// each byte read through the table of the channel it lands in, channel
    /// order being a swap of the index rather than a copy of the bytes.
    PerChannel {
        table: Box<[[f32; 256]; Image::CHANNELS]>,
        /// Which stored byte feeds output channel 0 and 2.
        first: usize,
        last: usize,
    },
}

impl Normalizer {
    /// The conversion of bytes stored in `stored` order to `scheme` floats
    /// in `wanted` order.
    pub(crate) fn new(
        scheme: NormalizationScheme,
        stored: ChannelOrder,
        wanted: ChannelOrder,
    ) -> Self {
        let swap = stored != wanted;
        if !matches!(scheme, NormalizationScheme::MeanStd { .. }) {
            return Normalizer::Flat { scheme, swap };
        }
        let mut table = Box::new([[0f32; 256]; Image::CHANNELS]);
        for (c, row) in table.iter_mut().enumerate() {
            for (v, out) in row.iter_mut().enumerate() {
                *out = scheme.apply_byte(v as u8, c);
            }
        }
        let (first, last) = if swap { (2, 0) } else { (0, 2) };
        Normalizer::PerChannel { table, first, last }
    }

    /// Appends the floats of `bytes`, whole pixels in the stored order, to
    /// `out` in the wanted order.
    pub(crate) fn extend(&self, out: &mut Vec<f32>, bytes: &[u8]) {
        /// `formula` of every byte, in a loop the compiler vectorizes.
        #[inline(always)]
        fn each(out: &mut Vec<f32>, bytes: &[u8], formula: impl Fn(u8) -> f32) {
            out.extend(bytes.iter().map(|&v| formula(v)));
        }
        debug_assert_eq!(bytes.len() % Image::CHANNELS, 0);
        match *self {
            Normalizer::Flat { scheme, swap } => {
                let start = out.len();
                // Each arm names its scheme, so `apply_byte`'s match folds
                // away and only the formula is left in the loop.
                match scheme {
                    NormalizationScheme::ZeroToOne => each(out, bytes, |v| {
                        NormalizationScheme::ZeroToOne.apply_byte(v, 0)
                    }),
                    NormalizationScheme::MinusOneToOne => each(out, bytes, |v| {
                        NormalizationScheme::MinusOneToOne.apply_byte(v, 0)
                    }),
                    // `new` makes only channel-free schemes flat: this is `RawByte`.
                    scheme => each(out, bytes, |v| scheme.apply_byte(v, 0)),
                }
                if swap {
                    for px in out[start..].chunks_exact_mut(Image::CHANNELS) {
                        px.swap(0, 2);
                    }
                }
            }
            Normalizer::PerChannel {
                ref table,
                first,
                last,
            } => {
                out.reserve(bytes.len());
                for px in bytes.chunks_exact(Image::CHANNELS) {
                    out.extend_from_slice(&[
                        table[0][px[first] as usize],
                        table[1][px[1] as usize],
                        table[2][px[last] as usize],
                    ]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schemes_map_extremes() {
        assert_eq!(NormalizationScheme::ZeroToOne.apply_byte(0, 0), 0.0);
        assert_eq!(NormalizationScheme::ZeroToOne.apply_byte(255, 0), 1.0);
        assert_eq!(NormalizationScheme::MinusOneToOne.apply_byte(0, 0), -1.0);
        assert_eq!(NormalizationScheme::MinusOneToOne.apply_byte(255, 0), 1.0);
        assert_eq!(NormalizationScheme::RawByte.apply_byte(255, 0), 255.0);
    }

    #[test]
    fn mean_std_is_per_channel() {
        let s = NormalizationScheme::MeanStd {
            mean: [0.5, 0.0, 0.0],
            std: [0.5, 1.0, 1.0],
        };
        assert_eq!(s.apply_byte(255, 0), 1.0);
        assert_eq!(s.apply_byte(255, 1), 1.0);
        assert_eq!(s.apply_byte(0, 0), -1.0);
    }

    #[test]
    fn nominal_ranges() {
        assert_eq!(
            NormalizationScheme::MinusOneToOne.nominal_range(),
            (-1.0, 1.0)
        );
        let (lo, hi) = NormalizationScheme::MeanStd {
            mean: [0.5; 3],
            std: [0.25; 3],
        }
        .nominal_range();
        assert_eq!((lo, hi), (-2.0, 2.0));
    }

    #[test]
    fn tensor_layout_is_nhwc() {
        let mut img = Image::solid(2, 1, [0, 0, 0]);
        img.set_pixel(1, 0, [255, 0, 0]);
        let t = image_to_tensor(&img, ChannelOrder::Rgb, NormalizationScheme::ZeroToOne).unwrap();
        assert_eq!(t.shape().dims(), &[1, 1, 2, 3]);
        let d = t.as_f32().unwrap();
        assert_eq!(&d[0..3], &[0.0, 0.0, 0.0]);
        assert_eq!(&d[3..6], &[1.0, 0.0, 0.0]);
    }

    #[test]
    fn wanted_order_converts_bytes() {
        let img = Image::solid(1, 1, [255, 0, 0]); // red, RGB-labelled
        let t = image_to_tensor(&img, ChannelOrder::Bgr, NormalizationScheme::ZeroToOne).unwrap();
        // In BGR order red lands in the last channel.
        assert_eq!(t.as_f32().unwrap(), &[0.0, 0.0, 1.0]);
    }
}
