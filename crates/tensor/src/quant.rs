use serde::{Deserialize, Serialize};

use crate::TensorError;

/// Affine quantization parameters attached to integer tensors.
///
/// Follows the TFLite full-integer scheme the paper debugs:
/// `real = scale * (quantized - zero_point)`. Activations use asymmetric
/// per-tensor `u8` parameters; weights use symmetric `i8` parameters, either
/// per-tensor or per-channel (one scale per output channel, the distinction
/// §2 of the paper calls out as accuracy-critical after batch-norm folding).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum QuantParams {
    /// One `(scale, zero_point)` pair for the whole tensor.
    PerTensor {
        /// Real-value step represented by one integer step.
        scale: f32,
        /// Integer value that represents real 0.0.
        zero_point: i32,
    },
    /// One `(scale, zero_point)` pair per slice along `axis`.
    PerChannel {
        /// Per-channel scales (length = dimension of `axis`).
        scales: Vec<f32>,
        /// Per-channel zero points (length = dimension of `axis`).
        zero_points: Vec<i32>,
        /// The axis that carries the channels.
        axis: usize,
    },
}

impl QuantParams {
    /// Per-tensor parameters chosen for real range `[min, max]` mapped onto
    /// unsigned 8-bit integers, as in Eqn. (1) of the paper.
    ///
    /// The range is nudged to always contain 0.0 so that zero is exactly
    /// representable (a TFLite requirement for padded ops).
    pub fn from_min_max_u8(min: f32, max: f32) -> Self {
        let min = min.min(0.0);
        let max = max.max(0.0).max(min + f32::EPSILON);
        let scale = (max - min) / 255.0;
        let zero_point = (-min / scale).round().clamp(0.0, 255.0) as i32;
        QuantParams::PerTensor { scale, zero_point }
    }

    /// Symmetric per-tensor parameters for signed 8-bit weights:
    /// `scale = max(|min|, |max|) / 127`, zero point 0.
    pub fn symmetric_i8(min: f32, max: f32) -> Self {
        let amax = min.abs().max(max.abs()).max(f32::EPSILON);
        QuantParams::PerTensor {
            scale: amax / 127.0,
            zero_point: 0,
        }
    }

    /// Symmetric per-channel parameters for signed 8-bit weights.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidQuantization`] if `ranges` is empty.
    pub fn symmetric_i8_per_channel(
        ranges: &[(f32, f32)],
        axis: usize,
    ) -> Result<Self, TensorError> {
        if ranges.is_empty() {
            return Err(TensorError::InvalidQuantization(
                "empty channel range list".into(),
            ));
        }
        let scales = ranges
            .iter()
            .map(|&(lo, hi)| lo.abs().max(hi.abs()).max(f32::EPSILON) / 127.0)
            .collect::<Vec<_>>();
        let zero_points = vec![0; ranges.len()];
        Ok(QuantParams::PerChannel {
            scales,
            zero_points,
            axis,
        })
    }

    /// `(scale, zero_point)` for channel `c` (per-tensor params ignore `c`).
    ///
    /// # Panics
    ///
    /// Panics if `c` exceeds the number of per-channel entries.
    #[inline]
    pub fn for_channel(&self, c: usize) -> (f32, i32) {
        match self {
            QuantParams::PerTensor { scale, zero_point } => (*scale, *zero_point),
            QuantParams::PerChannel {
                scales,
                zero_points,
                ..
            } => (scales[c], zero_points[c]),
        }
    }

    /// The per-tensor `(scale, zero_point)`; per-channel params return the
    /// first channel's pair (useful for diagnostics only).
    pub fn scalar(&self) -> (f32, i32) {
        self.for_channel(0)
    }

    /// True when the parameters are per-channel.
    pub fn is_per_channel(&self) -> bool {
        matches!(self, QuantParams::PerChannel { .. })
    }
}

/// Quantizes one real value to `u8` with the given affine parameters. A
/// tiny scale sends the quantized step to the `i32` range's end (`as`
/// saturates); the zero point is added in `i64`, so it cannot overflow and
/// out of range clamps to the nearer end.
#[inline]
pub fn affine_quantize_u8(value: f32, scale: f32, zero_point: i32) -> u8 {
    affine_quantize(value, scale, zero_point).clamp(0, 255) as u8
}

/// Quantizes one real value to `i8` with the given affine parameters; out
/// of range clamps as in [`affine_quantize_u8`].
#[inline]
pub fn affine_quantize_i8(value: f32, scale: f32, zero_point: i32) -> i8 {
    affine_quantize(value, scale, zero_point).clamp(-128, 127) as i8
}

/// `round(value / scale) + zero_point`, unclamped, with the step saturated
/// to `i32` and the sum taken in `i64`.
#[inline]
fn affine_quantize(value: f32, scale: f32, zero_point: i32) -> i64 {
    (value / scale).round() as i32 as i64 + zero_point as i64
}

/// Reconstructs the real value of a quantized integer, Eqn. (2) of the paper.
#[inline]
pub fn affine_dequantize(q: i32, scale: f32, zero_point: i32) -> f32 {
    scale * (q - zero_point) as f32
}

/// Streaming min/max observer used during quantization calibration.
///
/// Feeding a "representative dataset" through the model and recording each
/// tensor's range is exactly the scale-calibration step §2 warns about:
/// an outlier inflates the scale, a tiny dataset clips normal values.
///
/// # Example
///
/// ```
/// use mlexray_tensor::MinMaxObserver;
///
/// let mut obs = MinMaxObserver::new();
/// obs.observe(&[-0.5, 2.0, 0.25]);
/// assert_eq!(obs.range(), Some((-0.5, 2.0)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MinMaxObserver {
    min: Option<f32>,
    max: Option<f32>,
    count: usize,
}

impl MinMaxObserver {
    /// Creates an empty observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds a batch of values into the running range.
    pub fn observe(&mut self, values: &[f32]) {
        for &v in values {
            if v.is_nan() {
                continue;
            }
            self.min = Some(self.min.map_or(v, |m| m.min(v)));
            self.max = Some(self.max.map_or(v, |m| m.max(v)));
        }
        self.count += values.len();
    }

    /// The observed `(min, max)`, or `None` if nothing was observed.
    pub fn range(&self) -> Option<(f32, f32)> {
        Some((self.min?, self.max?))
    }

    /// Number of values observed so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Converts the observed range into asymmetric `u8` activation params.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidQuantization`] if nothing was observed.
    pub fn to_u8_params(&self) -> Result<QuantParams, TensorError> {
        let (min, max) = self
            .range()
            .ok_or_else(|| TensorError::InvalidQuantization("no values observed".into()))?;
        Ok(QuantParams::from_min_max_u8(min, max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u8_params_cover_zero() {
        let p = QuantParams::from_min_max_u8(0.5, 2.0);
        let (scale, zp) = p.scalar();
        // min is nudged down to 0.0 so zero is representable.
        assert_eq!(zp, 0);
        assert!((scale - 2.0 / 255.0).abs() < 1e-6);
    }

    #[test]
    fn quantize_roundtrip_within_half_step() {
        let p = QuantParams::from_min_max_u8(-1.0, 1.0);
        let (scale, zp) = p.scalar();
        for &v in &[-1.0f32, -0.5, 0.0, 0.3, 0.999] {
            let q = affine_quantize_u8(v, scale, zp);
            let r = affine_dequantize(q as i32, scale, zp);
            assert!((r - v).abs() <= scale * 0.5 + 1e-6, "v={v} r={r}");
        }
    }

    #[test]
    fn quantize_clamps_out_of_range() {
        let p = QuantParams::from_min_max_u8(-1.0, 1.0);
        let (scale, zp) = p.scalar();
        assert_eq!(affine_quantize_u8(100.0, scale, zp), 255);
        assert_eq!(affine_quantize_u8(-100.0, scale, zp), 0);
        // At a scale so small that `value / scale` passes `i32`, adding the
        // zero point neither overflows nor wraps to the other end.
        let (scale, zp) = (1e-30, 128);
        assert_eq!(affine_quantize_u8(1.0, scale, zp), 255);
        assert_eq!(affine_quantize_u8(-1.0, scale, zp), 0);
        assert_eq!(affine_quantize_i8(1.0, scale, zp), 127);
        assert_eq!(affine_quantize_i8(-1.0, scale, zp), -128);
    }

    #[test]
    fn symmetric_weights_have_zero_zero_point() {
        let p = QuantParams::symmetric_i8(-0.3, 0.7);
        let (scale, zp) = p.scalar();
        assert_eq!(zp, 0);
        assert!((scale - 0.7 / 127.0).abs() < 1e-7);
    }

    #[test]
    fn per_channel_lookup() {
        let p = QuantParams::symmetric_i8_per_channel(&[(-1.0, 1.0), (-2.0, 0.5)], 3).unwrap();
        assert!(p.is_per_channel());
        assert!((p.for_channel(1).0 - 2.0 / 127.0).abs() < 1e-7);
    }

    #[test]
    fn observer_tracks_range_and_ignores_nan() {
        let mut obs = MinMaxObserver::new();
        assert!(obs.to_u8_params().is_err());
        obs.observe(&[1.0, f32::NAN, -3.0]);
        assert_eq!(obs.range(), Some((-3.0, 1.0)));
        let (scale, _) = obs.to_u8_params().unwrap().scalar();
        assert!((scale - 4.0 / 255.0).abs() < 1e-6);
    }

    #[test]
    fn outlier_inflates_scale() {
        // The §2 calibration pathology: one outlier coarsens resolution.
        let mut clean = MinMaxObserver::new();
        clean.observe(&[-1.0, 1.0]);
        let mut dirty = MinMaxObserver::new();
        dirty.observe(&[-1.0, 1.0, 40.0]);
        let (s_clean, _) = clean.to_u8_params().unwrap().scalar();
        let (s_dirty, _) = dirty.to_u8_params().unwrap().scalar();
        assert!(s_dirty > 10.0 * s_clean);
    }
}
