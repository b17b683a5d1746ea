use serde::{Deserialize, Serialize};

use crate::{affine_quantize_i8, affine_quantize_u8, QuantParams, Result, Shape, TensorError};

/// Element type of a [`Tensor`].
///
/// These are the four dtypes of TFLite full-integer quantization: `f32`
/// activations/weights, asymmetric `u8` activations, symmetric `i8` weights
/// and `i32` biases/accumulators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DType {
    /// 32-bit IEEE float.
    F32,
    /// Unsigned 8-bit integer (asymmetric quantized activations).
    U8,
    /// Signed 8-bit integer (symmetric quantized weights).
    I8,
    /// Signed 32-bit integer (biases, accumulators).
    I32,
}

impl DType {
    /// Size in bytes of one element.
    pub fn byte_size(self) -> usize {
        match self {
            DType::F32 | DType::I32 => 4,
            DType::U8 | DType::I8 => 1,
        }
    }
}

/// Backing storage of a [`Tensor`], one contiguous row-major buffer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TensorData {
    /// 32-bit float buffer.
    F32(Vec<f32>),
    /// Unsigned 8-bit buffer.
    U8(Vec<u8>),
    /// Signed 8-bit buffer.
    I8(Vec<i8>),
    /// Signed 32-bit buffer.
    I32(Vec<i32>),
}

impl TensorData {
    /// Number of elements in the buffer.
    pub fn len(&self) -> usize {
        match self {
            TensorData::F32(v) => v.len(),
            TensorData::U8(v) => v.len(),
            TensorData::I8(v) => v.len(),
            TensorData::I32(v) => v.len(),
        }
    }

    /// True when the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The dtype of this buffer.
    pub fn dtype(&self) -> DType {
        match self {
            TensorData::F32(_) => DType::F32,
            TensorData::U8(_) => DType::U8,
            TensorData::I8(_) => DType::I8,
            TensorData::I32(_) => DType::I32,
        }
    }
}

/// A contiguous, row-major n-dimensional tensor.
///
/// Integer tensors may carry [`QuantParams`] describing how their values map
/// back to reals; [`Tensor::to_f32_vec`] applies that mapping, which is the
/// reconstruction ML-EXray's per-layer drift analysis compares against the
/// float reference pipeline.
///
/// # Example
///
/// ```
/// use mlexray_tensor::{Tensor, Shape, QuantParams};
///
/// let t = Tensor::from_f32(Shape::vector(4), vec![-1.0, 0.0, 0.5, 1.0])?;
/// let q = t.quantize_to_u8(&QuantParams::from_min_max_u8(-1.0, 1.0))?;
/// let back = q.to_f32_vec();
/// assert!((back[3] - 1.0).abs() < 0.01);
/// # Ok::<(), mlexray_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: TensorData,
    quant: Option<QuantParams>,
}

impl Tensor {
    /// Refuses a buffer of `len` elements for `shape` unless the shape's
    /// element count is exactly `len` — and a shape whose element count
    /// overflows a `usize`, which no buffer can match.
    fn check_len(shape: &Shape, len: usize) -> Result<()> {
        match shape.checked_num_elements() {
            Some(expected) if expected == len => Ok(()),
            Some(expected) => Err(TensorError::LengthMismatch {
                expected,
                actual: len,
            }),
            None => Err(TensorError::InvalidShape(format!(
                "{shape} has more elements than a usize can count"
            ))),
        }
    }

    /// Creates an `f32` tensor from a buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the buffer does not have
    /// exactly `shape.num_elements()` entries.
    pub fn from_f32(shape: Shape, data: Vec<f32>) -> Result<Self> {
        Self::check_len(&shape, data.len())?;
        Ok(Tensor {
            shape,
            data: TensorData::F32(data),
            quant: None,
        })
    }

    /// Creates a `u8` tensor with quantization parameters.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] on a buffer/shape mismatch.
    pub fn from_u8(shape: Shape, data: Vec<u8>, quant: QuantParams) -> Result<Self> {
        Self::check_len(&shape, data.len())?;
        Ok(Tensor {
            shape,
            data: TensorData::U8(data),
            quant: Some(quant),
        })
    }

    /// Creates an `i8` tensor with quantization parameters.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] on a buffer/shape mismatch.
    pub fn from_i8(shape: Shape, data: Vec<i8>, quant: QuantParams) -> Result<Self> {
        Self::check_len(&shape, data.len())?;
        Ok(Tensor {
            shape,
            data: TensorData::I8(data),
            quant: Some(quant),
        })
    }

    /// Creates an `i32` tensor (bias) with quantization parameters.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] on a buffer/shape mismatch.
    pub fn from_i32(shape: Shape, data: Vec<i32>, quant: Option<QuantParams>) -> Result<Self> {
        Self::check_len(&shape, data.len())?;
        Ok(Tensor {
            shape,
            data: TensorData::I32(data),
            quant,
        })
    }

    /// [`Tensor::zeros`], where the allocator may refuse the buffer: a
    /// shape no machine holds is an error, not an aborted process.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AllocationRefused`] when the allocator refuses
    /// the buffer, and [`TensorError::InvalidShape`] when its element count
    /// overflows a `usize`.
    pub fn try_zeros(dtype: DType, shape: Shape) -> Result<Self> {
        let len = shape.checked_num_elements().ok_or_else(|| {
            TensorError::InvalidShape(format!("{shape} overflows the address space"))
        })?;
        let data = match dtype {
            DType::F32 => TensorData::F32(Vec::new()),
            DType::U8 => TensorData::U8(Vec::new()),
            DType::I8 => TensorData::I8(Vec::new()),
            DType::I32 => TensorData::I32(Vec::new()),
        };
        let mut tensor = Tensor {
            shape,
            data,
            quant: None,
        };
        tensor.fit_len(len)?;
        Ok(tensor)
    }

    /// Sets the buffer's length to `len`, truncating it or extending it
    /// with zeros; an allocation that must grow grows to exactly `len`.
    fn fit_len(&mut self, len: usize) -> Result<()> {
        fn fit<T: Clone + Default>(v: &mut Vec<T>, len: usize, dtype: DType) -> Result<()> {
            v.try_reserve_exact(len.saturating_sub(v.len()))
                .map_err(|_| TensorError::AllocationRefused {
                    elements: len,
                    dtype,
                })?;
            v.resize(len, T::default());
            Ok(())
        }
        let dtype = self.dtype();
        match &mut self.data {
            TensorData::F32(v) => fit(v, len, dtype),
            TensorData::U8(v) => fit(v, len, dtype),
            TensorData::I8(v) => fit(v, len, dtype),
            TensorData::I32(v) => fit(v, len, dtype),
        }
    }

    /// Creates a zero-filled tensor of the given dtype.
    pub fn zeros(dtype: DType, shape: Shape) -> Self {
        let n = shape.num_elements();
        let data = match dtype {
            DType::F32 => TensorData::F32(vec![0.0; n]),
            DType::U8 => TensorData::U8(vec![0; n]),
            DType::I8 => TensorData::I8(vec![0; n]),
            DType::I32 => TensorData::I32(vec![0; n]),
        };
        Tensor {
            shape,
            data,
            quant: None,
        }
    }

    /// Creates an `f32` tensor filled with `value`.
    pub fn filled_f32(shape: Shape, value: f32) -> Self {
        let n = shape.num_elements();
        Tensor {
            shape,
            data: TensorData::F32(vec![value; n]),
            quant: None,
        }
    }

    /// Creates a rank-0 `f32` scalar.
    pub fn scalar_f32(value: f32) -> Self {
        Tensor {
            shape: Shape::scalar(),
            data: TensorData::F32(vec![value]),
            quant: None,
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The tensor's dtype.
    pub fn dtype(&self) -> DType {
        self.data.dtype()
    }

    /// Quantization parameters, if this is a quantized tensor.
    pub fn quant(&self) -> Option<&QuantParams> {
        self.quant.as_ref()
    }

    /// Attaches (or replaces) quantization parameters.
    pub fn set_quant(&mut self, quant: Option<QuantParams>) {
        self.quant = quant;
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Storage footprint in bytes (element data only).
    pub fn byte_size(&self) -> usize {
        self.len() * self.dtype().byte_size()
    }

    /// Raw storage access.
    pub fn data(&self) -> &TensorData {
        &self.data
    }

    fn dtype_err(&self, expected: DType) -> TensorError {
        TensorError::DTypeMismatch {
            expected,
            actual: self.dtype(),
        }
    }

    /// Borrows the buffer as `f32`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DTypeMismatch`] for non-`f32` tensors.
    pub fn as_f32(&self) -> Result<&[f32]> {
        match &self.data {
            TensorData::F32(v) => Ok(v),
            _ => Err(self.dtype_err(DType::F32)),
        }
    }

    /// Mutably borrows the buffer as `f32`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DTypeMismatch`] for non-`f32` tensors.
    pub fn as_f32_mut(&mut self) -> Result<&mut [f32]> {
        let err = self.dtype_err(DType::F32);
        match &mut self.data {
            TensorData::F32(v) => Ok(v),
            _ => Err(err),
        }
    }

    /// Borrows the buffer as `u8`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DTypeMismatch`] for non-`u8` tensors.
    pub fn as_u8(&self) -> Result<&[u8]> {
        match &self.data {
            TensorData::U8(v) => Ok(v),
            _ => Err(self.dtype_err(DType::U8)),
        }
    }

    /// Mutably borrows the buffer as `u8`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DTypeMismatch`] for non-`u8` tensors.
    pub fn as_u8_mut(&mut self) -> Result<&mut [u8]> {
        let err = self.dtype_err(DType::U8);
        match &mut self.data {
            TensorData::U8(v) => Ok(v),
            _ => Err(err),
        }
    }

    /// Borrows the buffer as `i8`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DTypeMismatch`] for non-`i8` tensors.
    pub fn as_i8(&self) -> Result<&[i8]> {
        match &self.data {
            TensorData::I8(v) => Ok(v),
            _ => Err(self.dtype_err(DType::I8)),
        }
    }

    /// Mutably borrows the buffer as `i8`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DTypeMismatch`] for non-`i8` tensors.
    pub fn as_i8_mut(&mut self) -> Result<&mut [i8]> {
        let err = self.dtype_err(DType::I8);
        match &mut self.data {
            TensorData::I8(v) => Ok(v),
            _ => Err(err),
        }
    }

    /// Mutably borrows the buffer as `i32`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DTypeMismatch`] for non-`i32` tensors.
    pub fn as_i32_mut(&mut self) -> Result<&mut [i32]> {
        let err = self.dtype_err(DType::I32);
        match &mut self.data {
            TensorData::I32(v) => Ok(v),
            _ => Err(err),
        }
    }

    /// Borrows the buffer as `i32`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DTypeMismatch`] for non-`i32` tensors.
    pub fn as_i32(&self) -> Result<&[i32]> {
        match &self.data {
            TensorData::I32(v) => Ok(v),
            _ => Err(self.dtype_err(DType::I32)),
        }
    }

    /// Reconstructs real values for any dtype, applying quantization
    /// parameters where present (Eqn. 2 of the paper). Per-channel parameters
    /// are honoured along their axis.
    pub fn to_f32_vec(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.len()];
        self.dequantize_into(&mut out);
        out
    }

    /// [`Tensor::to_f32_vec`] into a caller's buffer: writes the real value
    /// of every element to `out`, which must hold exactly [`Tensor::len`]
    /// values.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()`.
    pub fn dequantize_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.len(), "dequantize_into: length mismatch");
        match &self.data {
            TensorData::F32(v) => out.copy_from_slice(v),
            TensorData::U8(v) => self.dequantize_ints(v.iter().map(|&x| x as i32), out),
            TensorData::I8(v) => self.dequantize_ints(v.iter().map(|&x| x as i32), out),
            TensorData::I32(v) => self.dequantize_ints(v.iter().copied(), out),
        }
    }

    fn dequantize_ints(&self, ints: impl Iterator<Item = i32>, out: &mut [f32]) {
        let pairs = out.iter_mut().zip(ints);
        match &self.quant {
            None => pairs.for_each(|(o, q)| *o = q as f32),
            Some(QuantParams::PerTensor { scale, zero_point }) => {
                pairs.for_each(|(o, q)| *o = scale * (q - zero_point) as f32)
            }
            Some(QuantParams::PerChannel {
                scales,
                zero_points,
                axis,
            }) => {
                let strides = self.shape.strides();
                let dim = self.shape.dims().get(*axis).copied().unwrap_or(1);
                let stride = strides.get(*axis).copied().unwrap_or(1);
                for (i, (o, q)) in pairs.enumerate() {
                    let c = (i / stride) % dim;
                    *o = scales[c] * (q - zero_points[c]) as f32;
                }
            }
        }
    }

    /// Quantizes an `f32` tensor to `u8` with the given per-tensor params.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DTypeMismatch`] for non-`f32` sources and
    /// [`TensorError::InvalidQuantization`] for per-channel params (activations
    /// are always per-tensor in this scheme).
    pub fn quantize_to_u8(&self, params: &QuantParams) -> Result<Tensor> {
        let src = self.as_f32()?;
        let (scale, zp) = match params {
            QuantParams::PerTensor { scale, zero_point } => (*scale, *zero_point),
            QuantParams::PerChannel { .. } => {
                return Err(TensorError::InvalidQuantization(
                    "u8 activations require per-tensor parameters".into(),
                ))
            }
        };
        let data = src
            .iter()
            .map(|&v| affine_quantize_u8(v, scale, zp))
            .collect();
        Tensor::from_u8(self.shape.clone(), data, params.clone())
    }

    /// Quantizes an `f32` tensor to `i8` (weights), honouring per-channel
    /// parameters along their axis.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DTypeMismatch`] for non-`f32` sources.
    pub fn quantize_to_i8(&self, params: &QuantParams) -> Result<Tensor> {
        let src = self.as_f32()?;
        let data = match params {
            QuantParams::PerTensor { scale, zero_point } => src
                .iter()
                .map(|&v| affine_quantize_i8(v, *scale, *zero_point))
                .collect(),
            QuantParams::PerChannel {
                scales,
                zero_points,
                axis,
            } => {
                let strides = self.shape.strides();
                let dim = self.shape.dims().get(*axis).copied().unwrap_or(1);
                let stride = strides.get(*axis).copied().unwrap_or(1);
                src.iter()
                    .enumerate()
                    .map(|(i, &v)| {
                        let c = (i / stride) % dim;
                        affine_quantize_i8(v, scales[c], zero_points[c])
                    })
                    .collect()
            }
        };
        Tensor::from_i8(self.shape.clone(), data, params.clone())
    }

    /// Returns a tensor viewing the same data under a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if element counts differ.
    pub fn reshape(&self, shape: Shape) -> Result<Tensor> {
        Self::check_len(&shape, self.len())?;
        Ok(Tensor {
            shape,
            data: self.data.clone(),
            quant: self.quant.clone(),
        })
    }

    /// Gives the buffer a new shape of the same element count **in place**,
    /// its values untouched and no allocation made once the dims' own
    /// storage has held a shape of that rank — what lets an interpreter
    /// hand one activation buffer on from a dead tensor to the next
    /// tensor of its size. Quantization parameters are unaffected.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] (or
    /// [`TensorError::InvalidShape`] for a count that overflows a `usize`)
    /// when `shape` does not hold exactly this tensor's element count; the
    /// tensor is then left as it was.
    pub fn set_shape(&mut self, shape: &Shape) -> Result<()> {
        Self::check_len(shape, self.len())?;
        self.shape.assign(shape);
        Ok(())
    }

    /// Re-shapes the tensor **in place** to `n` along its batch (first)
    /// dimension, truncating the buffer or extending it with zeros. The
    /// buffer's allocation is never released and grows to exactly the
    /// largest size asked for, so a tensor cycled through batch sizes
    /// reallocates only when it exceeds every size it has held before —
    /// what lets an interpreter keep one set of activation buffers for all
    /// batch sizes. Quantization parameters are unaffected.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidShape`] for rank-0 tensors and for `n`
    /// frames whose element count overflows a `usize`, and
    /// [`TensorError::AllocationRefused`] when the allocator refuses to
    /// grow the buffer; the tensor is then left as it was.
    pub fn resize_batch(&mut self, n: usize) -> Result<()> {
        let Some((_, frame)) = self.shape.dims().split_first() else {
            return Err(TensorError::InvalidShape(
                "scalar has no batch dimension".into(),
            ));
        };
        let len = frame
            .iter()
            .try_fold(n, |len, &d| len.checked_mul(d))
            .ok_or_else(|| {
                TensorError::InvalidShape(format!(
                    "{n} frames of {} overflow the address space",
                    self.shape
                ))
            })?;
        self.fit_len(len)?;
        self.shape.set_batch(n)
    }

    /// `f32` value at NHWC coordinates (convenience for tests and examples).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DTypeMismatch`] for non-`f32` tensors and
    /// [`TensorError::RankMismatch`] for non-4D tensors.
    pub fn at_nhwc(&self, n: usize, h: usize, w: usize, c: usize) -> Result<f32> {
        if self.shape.rank() != 4 {
            return Err(TensorError::RankMismatch {
                expected: 4,
                actual: self.shape.rank(),
            });
        }
        let idx = self.shape.offset_nhwc(n, h, w, c);
        Ok(self.as_f32()?[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `[65536; 4]` has 2^64 elements: the unchecked product wraps to 0 in
    /// a release build, which an empty buffer would match.
    #[test]
    fn a_shape_whose_element_count_overflows_is_refused() {
        let huge = Shape::new(vec![65536; 4]);
        assert_eq!(huge.checked_num_elements(), None);
        assert_eq!(
            Shape::new(vec![65536; 3]).checked_num_elements(),
            Some(1 << 48)
        );
        assert!(matches!(
            Tensor::from_f32(huge.clone(), Vec::new()),
            Err(TensorError::InvalidShape(_))
        ));
        assert!(Tensor::from_i32(huge, Vec::new(), None).is_err());
    }

    #[test]
    fn length_is_validated() {
        assert!(Tensor::from_f32(Shape::vector(3), vec![0.0; 4]).is_err());
    }

    #[test]
    fn dtype_access_checks() {
        let t = Tensor::zeros(DType::U8, Shape::vector(2));
        assert!(t.as_f32().is_err());
        assert!(t.as_u8().is_ok());
    }

    #[test]
    fn quantize_dequantize_roundtrip() {
        let t = Tensor::from_f32(Shape::vector(5), vec![-1.0, -0.5, 0.0, 0.5, 1.0]).unwrap();
        let p = QuantParams::from_min_max_u8(-1.0, 1.0);
        let q = t.quantize_to_u8(&p).unwrap();
        let r = q.to_f32_vec();
        let (scale, _) = p.scalar();
        for (a, b) in t.as_f32().unwrap().iter().zip(&r) {
            assert!((a - b).abs() <= scale * 0.5 + 1e-6);
        }
    }

    #[test]
    fn per_channel_weight_roundtrip() {
        // Shape [2, 1, 1, 2] = two output channels with very different scales,
        // the §2 per-tensor-vs-per-channel scenario.
        let t =
            Tensor::from_f32(Shape::nhwc(2, 1, 1, 2), vec![100.0, -100.0, 0.01, -0.01]).unwrap();
        let p =
            QuantParams::symmetric_i8_per_channel(&[(-100.0, 100.0), (-0.01, 0.01)], 0).unwrap();
        let q = t.quantize_to_i8(&p).unwrap();
        let r = q.to_f32_vec();
        assert!((r[0] - 100.0).abs() < 1.0);
        assert!(
            (r[2] - 0.01).abs() < 0.001,
            "small channel keeps resolution: {}",
            r[2]
        );

        // Per-tensor squashes the small channel to zero.
        let pt = QuantParams::symmetric_i8(-100.0, 100.0);
        let qt = t.quantize_to_i8(&pt).unwrap();
        let rt = qt.to_f32_vec();
        assert_eq!(rt[2], 0.0, "per-tensor scale crushes the small channel");
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_f32(Shape::nhwc(1, 2, 2, 1), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let r = t.reshape(Shape::vector(4)).unwrap();
        assert_eq!(r.as_f32().unwrap(), &[1.0, 2.0, 3.0, 4.0]);
        assert!(t.reshape(Shape::vector(5)).is_err());
    }

    #[test]
    fn resize_batch_reshapes_in_place_and_keeps_its_allocation() {
        let mut t = Tensor::from_f32(Shape::nhwc(1, 1, 2, 1), vec![1.0, 2.0]).unwrap();
        t.resize_batch(3).unwrap();
        assert_eq!(t.shape(), &Shape::nhwc(3, 1, 2, 1));
        assert_eq!(t.as_f32().unwrap(), &[1.0, 2.0, 0.0, 0.0, 0.0, 0.0]);
        let grown = t.as_f32().unwrap().as_ptr();
        t.resize_batch(1).unwrap();
        assert_eq!(t.as_f32().unwrap(), &[1.0, 2.0]);
        t.resize_batch(3).unwrap();
        assert_eq!(
            t.as_f32().unwrap().as_ptr(),
            grown,
            "regrowth within capacity must not reallocate"
        );
        assert!(Tensor::scalar_f32(1.0).resize_batch(2).is_err());
    }

    #[test]
    fn set_shape_keeps_values_and_checks_the_count() {
        let mut t = Tensor::from_f32(Shape::nhwc(1, 2, 2, 1), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        t.set_shape(&Shape::nhwc(1, 1, 2, 2)).unwrap();
        assert_eq!(t.shape(), &Shape::nhwc(1, 1, 2, 2));
        t.set_shape(&Shape::matrix(2, 2)).unwrap();
        assert_eq!(t.shape(), &Shape::matrix(2, 2));
        assert_eq!(t.as_f32().unwrap(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(
            t.set_shape(&Shape::vector(5)).unwrap_err(),
            TensorError::LengthMismatch {
                expected: 5,
                actual: 4
            }
        );
        assert!(t.set_shape(&Shape::new(vec![usize::MAX, 2])).is_err());
        assert_eq!(
            t.shape(),
            &Shape::matrix(2, 2),
            "a refused shape changes nothing"
        );
    }

    /// A buffer no machine holds — `2^59` `f32`, `2^61` bytes — is a typed
    /// refusal, not an aborted process, and a refused growth leaves the
    /// tensor as it was.
    #[test]
    fn a_buffer_no_machine_holds_is_refused() {
        let huge = 1usize << 59;
        assert_eq!(
            Tensor::try_zeros(DType::F32, Shape::vector(huge)).unwrap_err(),
            TensorError::AllocationRefused {
                elements: huge,
                dtype: DType::F32
            }
        );
        let zeros = Tensor::try_zeros(DType::U8, Shape::matrix(2, 3)).unwrap();
        assert_eq!(zeros, Tensor::zeros(DType::U8, Shape::matrix(2, 3)));
        let mut t = Tensor::from_f32(Shape::matrix(1, 2), vec![1.0, 2.0]).unwrap();
        let err = t.resize_batch(huge).unwrap_err();
        assert!(
            matches!(err, TensorError::AllocationRefused { .. }),
            "{err}"
        );
        assert!(t.resize_batch(usize::MAX).is_err());
        assert_eq!(
            t,
            Tensor::from_f32(Shape::matrix(1, 2), vec![1.0, 2.0]).unwrap()
        );
    }

    #[test]
    fn at_nhwc_reads_expected_cell() {
        let t = Tensor::from_f32(
            Shape::nhwc(1, 2, 2, 2),
            vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
        )
        .unwrap();
        assert_eq!(t.at_nhwc(0, 1, 0, 1).unwrap(), 5.0);
        let v = Tensor::zeros(DType::F32, Shape::vector(4));
        assert!(v.at_nhwc(0, 0, 0, 0).is_err());
    }

    #[test]
    fn byte_size_accounts_for_dtype() {
        assert_eq!(Tensor::zeros(DType::F32, Shape::vector(10)).byte_size(), 40);
        assert_eq!(Tensor::zeros(DType::I8, Shape::vector(10)).byte_size(), 10);
    }
}
