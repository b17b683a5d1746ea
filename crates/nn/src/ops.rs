use mlexray_tensor::{DType, Shape};
use serde::{Deserialize, Serialize};

use crate::analysis::LintCode;
use crate::graph::TensorDef;

/// Spatial padding policy for convolution and pooling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Padding {
    /// Output spatial size = ceil(input / stride); zero-pads as needed.
    Same,
    /// No padding; output = floor((input - kernel) / stride) + 1.
    Valid,
}

/// Activation function, either fused into a compute op (the TFLite
/// "fused activation" the converter produces) or standalone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Activation {
    /// Identity.
    None,
    /// `max(0, x)`.
    Relu,
    /// `min(6, max(0, x))` (MobileNet family).
    Relu6,
    /// `x * relu6(x + 3) / 6` (MobileNet v3).
    HardSwish,
    /// `relu6(x + 3) / 6` (MobileNet v3 squeeze-excite gate).
    HardSigmoid,
    /// Logistic sigmoid.
    Sigmoid,
    /// Gaussian error linear unit, tanh approximation (BERT family).
    Gelu,
}

impl Activation {
    /// Applies the activation to one value.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::None => x,
            Activation::Relu => x.max(0.0),
            Activation::Relu6 => x.clamp(0.0, 6.0),
            Activation::HardSwish => x * ((x + 3.0).clamp(0.0, 6.0)) / 6.0,
            Activation::HardSigmoid => ((x + 3.0).clamp(0.0, 6.0)) / 6.0,
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Gelu => {
                let c = (2.0f32 / std::f32::consts::PI).sqrt();
                0.5 * x * (1.0 + (c * (x + 0.044715 * x * x * x)).tanh())
            }
        }
    }

    /// [`Activation::apply`] to every value of `values`, with the `match`
    /// taken once instead of per value: each arm is a plain loop over one
    /// formula, which the compiler vectorizes.
    #[inline(always)]
    pub(crate) fn apply_in_place(self, values: &mut [f32]) {
        #[inline(always)]
        fn each(values: &mut [f32], act: Activation) {
            for v in values {
                *v = act.apply(*v);
            }
        }
        match self {
            Activation::None => {}
            Activation::Relu => each(values, Activation::Relu),
            Activation::Relu6 => each(values, Activation::Relu6),
            Activation::HardSwish => each(values, Activation::HardSwish),
            Activation::HardSigmoid => each(values, Activation::HardSigmoid),
            Activation::Sigmoid => each(values, Activation::Sigmoid),
            Activation::Gelu => each(values, Activation::Gelu),
        }
    }

    /// [`Activation::apply`] of every value of `x` into `out`, in one pass
    /// with the `match` taken once, as in [`Activation::apply_in_place`];
    /// `None` is a plain copy.
    ///
    /// # Panics
    ///
    /// If `x` and `out` differ in length.
    #[inline(always)]
    pub(crate) fn apply_into(self, x: &[f32], out: &mut [f32]) {
        #[inline(always)]
        fn each(x: &[f32], out: &mut [f32], act: Activation) {
            for (o, &v) in out.iter_mut().zip(x) {
                *o = act.apply(v);
            }
        }
        assert_eq!(x.len(), out.len());
        match self {
            Activation::None => out.copy_from_slice(x),
            Activation::Relu => each(x, out, Activation::Relu),
            Activation::Relu6 => each(x, out, Activation::Relu6),
            Activation::HardSwish => each(x, out, Activation::HardSwish),
            Activation::HardSigmoid => each(x, out, Activation::HardSigmoid),
            Activation::Sigmoid => each(x, out, Activation::Sigmoid),
            Activation::Gelu => each(x, out, Activation::Gelu),
        }
    }

    /// Real-valued output clamp implied by the activation, used to clamp
    /// quantized outputs (`None` means unbounded).
    pub fn clamp_bounds(self) -> Option<(f32, f32)> {
        match self {
            Activation::Relu => Some((0.0, f32::INFINITY)),
            Activation::Relu6 => Some((0.0, 6.0)),
            Activation::HardSigmoid | Activation::Sigmoid => Some((0.0, 1.0)),
            _ => None,
        }
    }
}

/// The operation performed by a graph node.
///
/// This is the TFLite-style op inventory needed by every model in the paper's
/// evaluation: the CNN families (MobileNet v1/v2/v3, ResNet50 v2, Inception
/// v3, DenseNet-121, SSD), the audio CNN, NNLM embedding averaging and a small
/// transformer encoder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OpKind {
    /// 2-D convolution, weights `[out_c, kh, kw, in_c]`, optional bias.
    Conv2d {
        /// Spatial stride (same for H and W).
        stride: usize,
        /// Padding policy.
        padding: Padding,
        /// Fused activation.
        activation: Activation,
    },
    /// Depthwise 2-D convolution, weights `[1, kh, kw, c]`.
    DepthwiseConv2d {
        /// Spatial stride.
        stride: usize,
        /// Padding policy.
        padding: Padding,
        /// Fused activation.
        activation: Activation,
    },
    /// Fully connected layer, input `[n, in]`, weights `[out, in]`.
    FullyConnected {
        /// Fused activation.
        activation: Activation,
    },
    /// Average pooling over a window. MobileNet v3's squeeze-excite blocks
    /// use this op (with a global window); this is the op whose quantized
    /// kernel the paper found broken (§4.4).
    AveragePool2d {
        /// Pool window height.
        pool_h: usize,
        /// Pool window width.
        pool_w: usize,
        /// Spatial stride.
        stride: usize,
        /// Padding policy.
        padding: Padding,
    },
    /// Max pooling over a window.
    MaxPool2d {
        /// Pool window height.
        pool_h: usize,
        /// Pool window width.
        pool_w: usize,
        /// Spatial stride.
        stride: usize,
        /// Padding policy.
        padding: Padding,
    },
    /// Global reduce-mean over all axes except batch and last (NHWC → `[n, c]`,
    /// `[n, t, d]` → `[n, d]`). This is TFLite's `Mean` — a *different op*
    /// from `AveragePool2d`, which is why MobileNet v2 (Mean) survives
    /// quantization while v3 (AveragePool2d) does not in Fig. 5.
    Mean,
    /// Element-wise addition; rhs may broadcast from `[..tail..]`.
    Add {
        /// Fused activation.
        activation: Activation,
    },
    /// Element-wise multiplication; rhs may be a scalar or `[n,1,1,c]` gate.
    Mul,
    /// Concatenation along an axis.
    Concat {
        /// The concatenation axis.
        axis: usize,
    },
    /// Zero padding of the two spatial axes of an NHWC tensor.
    Pad {
        /// Rows added at the top.
        top: usize,
        /// Rows added at the bottom.
        bottom: usize,
        /// Columns added at the left.
        left: usize,
        /// Columns added at the right.
        right: usize,
    },
    /// Softmax over the last axis.
    Softmax,
    /// Standalone activation node (pre-conversion graphs).
    Act(Activation),
    /// Inference-style batch normalization with constant
    /// `gamma, beta, mean, variance` inputs (folded away by conversion).
    BatchNorm {
        /// Numerical-stability epsilon.
        epsilon: f32,
    },
    /// Layer normalization over the last axis with `gamma, beta` inputs.
    LayerNorm {
        /// Numerical-stability epsilon.
        epsilon: f32,
    },
    /// 2-D matrix multiplication `[m, k] x [k, n]` (or `[n, k]` transposed).
    MatMul {
        /// Treat the second operand as `[n, k]` and multiply by its transpose.
        transpose_b: bool,
    },
    /// Embedding lookup: `i32` ids `[n, l]` + table `[v, d]` → `[n, l, d]`.
    Embedding,
    /// Reshape to an explicit target shape (element count preserved).
    Reshape {
        /// Target dimensions.
        dims: Vec<usize>,
    },
    /// `f32 → u8` quantization boundary (inserted by the quantizer).
    Quantize,
    /// `u8 → f32` dequantization boundary.
    Dequantize,
}

impl OpKind {
    /// The per-layer-type label used by Table 4 of the paper.
    pub fn type_label(&self) -> &'static str {
        match self {
            OpKind::Conv2d { .. } => "Conv",
            OpKind::DepthwiseConv2d { .. } => "D-Conv",
            OpKind::FullyConnected { .. } => "FC",
            OpKind::AveragePool2d { .. } => "AvgPool",
            OpKind::MaxPool2d { .. } => "MaxPool",
            OpKind::Mean => "Mean",
            OpKind::Add { .. } => "Add",
            OpKind::Mul => "Mul",
            OpKind::Concat { .. } => "Concat",
            OpKind::Pad { .. } => "Pad",
            OpKind::Softmax => "Softmax",
            OpKind::Act(_) => "Act",
            OpKind::BatchNorm { .. } => "BatchNorm",
            OpKind::LayerNorm { .. } => "LayerNorm",
            OpKind::MatMul { .. } => "MatMul",
            OpKind::Embedding => "Embedding",
            OpKind::Reshape { .. } => "Reshape",
            OpKind::Quantize => "Quantize",
            OpKind::Dequantize => "Dequantize",
        }
    }

    /// The fused activation carried by this op, if any.
    pub fn fused_activation(&self) -> Option<Activation> {
        match self {
            OpKind::Conv2d { activation, .. }
            | OpKind::DepthwiseConv2d { activation, .. }
            | OpKind::FullyConnected { activation }
            | OpKind::Add { activation } => Some(*activation),
            _ => None,
        }
    }

    /// Derives the shape and dtype of this op's output from its operands
    /// (node-input order: data first, then weights/bias), or says how the
    /// operands break the op's contract. This is the one place an op's
    /// output is derived: [`crate::GraphBuilder`]'s typed methods, the
    /// quantizer and the lint's shape pass (`EX101`–`EX104`) all call it.
    ///
    /// # Errors
    ///
    /// The [`Violation`] of the first contract clause the operands break:
    /// arity, ranks, the data dtype (which selects the kernel family —
    /// `u8` data runs the quantized kernel, `f32` the float one), then the
    /// op's geometry, including sizes that overflow a `usize`.
    pub(crate) fn infer_output(
        &self,
        operands: &[&TensorDef],
    ) -> Result<(Shape, DType), Violation> {
        const FQ: [DType; 2] = [DType::F32, DType::U8];
        let n = operands.len();
        let arity = |lo: usize, hi: usize| {
            if n < lo || n > hi {
                return invalid(format!("expected {lo}..={hi} inputs, got {n}"));
            }
            Ok(())
        };
        let shape = |i: usize| operands[i].shape();
        let dims = |i: usize| operands[i].shape().dims();
        let bad_rank = |i: usize, want: &str| -> Violation {
            let msg = format!(
                "operand '{}' must have rank {want}, has rank {}",
                operands[i].name(),
                shape(i).rank()
            );
            (LintCode::OperandInvalid, Some(i), msg)
        };
        let want_rank = |i: usize, rank: usize| {
            if shape(i).rank() != rank {
                return Err(bad_rank(i, &rank.to_string()));
            }
            Ok(())
        };
        let data_dtype = |allowed: &[DType]| {
            let dt = operands[0].dtype();
            if allowed.contains(&dt) {
                return Ok(dt);
            }
            let msg = format!(
                "no {} kernel accepts {dt:?} data (supported: {allowed:?})",
                self.type_label()
            );
            Err((LintCode::UnsupportedDType, Some(0), msg))
        };
        let operand_dtype = |i: usize, what: &str| match operands[i].dtype() {
            DType::F32 => Ok(()),
            dt => Err((
                LintCode::UnsupportedDType,
                None,
                format!("{what} must be f32, is {dt:?}"),
            )),
        };
        let window = |kh: usize, kw: usize, stride: usize, padding: Padding, what: &str| {
            let (oh, ow) = (
                conv_out_size(dims(0)[1], kh, stride, padding),
                conv_out_size(dims(0)[2], kw, stride, padding),
            );
            if oh == 0 || ow == 0 {
                return invalid(format!("{what} larger than input under Valid padding"));
            }
            Ok((oh, ow))
        };

        match self {
            OpKind::Conv2d {
                stride, padding, ..
            }
            | OpKind::DepthwiseConv2d {
                stride, padding, ..
            } => {
                arity(2, 3)?;
                want_rank(0, 4)?;
                want_rank(1, 4)?;
                let dt = data_dtype(&FQ)?;
                let (in_c, ws) = (dims(0)[3], dims(1));
                let (out_c, out_what) = if matches!(self, OpKind::Conv2d { .. }) {
                    if ws[3] != in_c {
                        return invalid(format!("weight in_c {} != input channels {in_c}", ws[3]));
                    }
                    (ws[0], "out_c")
                } else {
                    if ws[0] != 1 {
                        return invalid("depthwise weights must be [1, kh, kw, c]");
                    }
                    if ws[3] != in_c {
                        return invalid(format!(
                            "weight channels {} != input channels {in_c}",
                            ws[3]
                        ));
                    }
                    (ws[3], "channels")
                };
                if *stride == 0 {
                    return invalid("stride must be positive");
                }
                if operands
                    .get(2)
                    .is_some_and(|b| b.shape().num_elements() != out_c)
                {
                    return invalid(format!("bias length must equal {out_what} {out_c}"));
                }
                let (oh, ow) = window(ws[1], ws[2], *stride, *padding, "kernel")?;
                Ok((Shape::nhwc(dims(0)[0], oh, ow, out_c), dt))
            }
            OpKind::FullyConnected { .. } => {
                arity(2, 3)?;
                want_rank(0, 2)?;
                want_rank(1, 2)?;
                let dt = data_dtype(&FQ)?;
                let (is_, ws) = (dims(0), dims(1));
                if ws[1] != is_[1] {
                    return invalid(format!("weight in {} != input features {}", ws[1], is_[1]));
                }
                if operands
                    .get(2)
                    .is_some_and(|b| b.shape().num_elements() != ws[0])
                {
                    return invalid(format!("bias length must equal out features {}", ws[0]));
                }
                Ok((Shape::matrix(is_[0], ws[0]), dt))
            }
            OpKind::AveragePool2d {
                pool_h,
                pool_w,
                stride,
                padding,
            }
            | OpKind::MaxPool2d {
                pool_h,
                pool_w,
                stride,
                padding,
            } => {
                arity(1, 1)?;
                want_rank(0, 4)?;
                let dt = data_dtype(&FQ)?;
                if *pool_h == 0 || *pool_w == 0 || *stride == 0 {
                    return invalid("pool window and stride must be positive");
                }
                let (oh, ow) = window(*pool_h, *pool_w, *stride, *padding, "pool window")?;
                Ok((Shape::nhwc(dims(0)[0], oh, ow, dims(0)[3]), dt))
            }
            OpKind::Mean => {
                arity(1, 1)?;
                let dt = data_dtype(&FQ)?;
                match dims(0) {
                    [n, .., c] => Ok((Shape::matrix(*n, *c), dt)),
                    _ => invalid("Mean requires rank >= 2"),
                }
            }
            OpKind::Add { .. } | OpKind::Mul => {
                arity(2, 2)?;
                let dt = data_dtype(&FQ)?;
                let (a, b) = (shape(0), shape(1));
                let fits = if matches!(self, OpKind::Add { .. }) {
                    a.dims().ends_with(b.dims())
                } else {
                    let gate = matches!((a.dims(), b.dims()),
                        ([n, _, _, c], [bn, 1, 1, bc]) if n == bn && c == bc);
                    b == a || b.num_elements() == 1 || gate
                };
                if !fits {
                    return invalid(format!("cannot broadcast {b} onto {a}"));
                }
                Ok((a.clone(), dt))
            }
            OpKind::Concat { axis } => {
                arity(1, usize::MAX)?;
                let dt = data_dtype(&FQ)?;
                let first = dims(0);
                if *axis >= first.len() {
                    return invalid("concat axis out of range");
                }
                let mut axis_sum = 0usize;
                for def in operands {
                    let s = def.shape().dims();
                    if s.len() != first.len() {
                        return invalid("concat rank mismatch");
                    }
                    if (0..s.len()).any(|d| d != *axis && s[d] != first[d]) {
                        return invalid("concat off-axis dimension mismatch");
                    }
                    axis_sum = match axis_sum.checked_add(s[*axis]) {
                        Some(sum) => sum,
                        None => return invalid("concat axis length overflows usize"),
                    };
                }
                let mut out = first.to_vec();
                out[*axis] = axis_sum;
                Ok((Shape::new(out), dt))
            }
            OpKind::Pad {
                top,
                bottom,
                left,
                right,
            } => {
                arity(1, 1)?;
                want_rank(0, 4)?;
                let dt = data_dtype(&FQ)?;
                let s = dims(0);
                let grow = |x: usize, a: usize, b: usize| x.checked_add(a)?.checked_add(b);
                let out = grow(s[1], *top, *bottom)
                    .zip(grow(s[2], *left, *right))
                    .map(|(h, w)| Shape::nhwc(s[0], h, w, s[3]))
                    .filter(|out| out.checked_num_elements().is_some());
                match out {
                    Some(out) => Ok((out, dt)),
                    None => invalid(format!(
                        "padding {top}/{bottom}/{left}/{right} of {} overflows usize",
                        shape(0)
                    )),
                }
            }
            OpKind::Softmax => {
                arity(1, 1)?;
                data_dtype(&[DType::F32])?;
                Ok((shape(0).clone(), DType::F32))
            }
            OpKind::Act(_) => {
                arity(1, 1)?;
                let dt = data_dtype(&FQ)?;
                Ok((shape(0).clone(), dt))
            }
            OpKind::BatchNorm { .. } | OpKind::LayerNorm { .. } => {
                let (count, mismatch) = match self {
                    OpKind::BatchNorm { .. } => (5, "batch-norm vectors must match channels"),
                    _ => (3, "layer-norm vectors must match last axis"),
                };
                arity(count, count)?;
                data_dtype(&[DType::F32])?;
                let Some(&last) = dims(0).last() else {
                    return Err(bad_rank(0, ">= 1"));
                };
                if operands[1..]
                    .iter()
                    .any(|v| v.shape().num_elements() != last)
                {
                    return invalid(mismatch);
                }
                Ok((shape(0).clone(), DType::F32))
            }
            OpKind::MatMul { transpose_b } => {
                arity(2, 2)?;
                want_rank(0, 2)?;
                want_rank(1, 2)?;
                data_dtype(&[DType::F32])?;
                operand_dtype(1, "matmul rhs")?;
                let (sa, sb) = (dims(0), dims(1));
                let (k_b, n) = if *transpose_b {
                    (sb[1], sb[0])
                } else {
                    (sb[0], sb[1])
                };
                if sa[1] != k_b {
                    return invalid("inner dimensions must agree");
                }
                Ok((Shape::matrix(sa[0], n), DType::F32))
            }
            OpKind::Embedding => {
                arity(2, 2)?;
                want_rank(0, 2)?;
                want_rank(1, 2)?;
                data_dtype(&[DType::I32])?;
                operand_dtype(1, "embedding table")?;
                Ok((
                    Shape::new(vec![dims(0)[0], dims(0)[1], dims(1)[1]]),
                    DType::F32,
                ))
            }
            OpKind::Reshape { dims: target } => {
                arity(1, 1)?;
                let target = Shape::new(target.clone());
                match target.checked_num_elements() {
                    Some(n) if Some(n) == shape(0).checked_num_elements() => {
                        Ok((target, operands[0].dtype()))
                    }
                    _ => invalid(format!("cannot reshape {} to {target}", shape(0))),
                }
            }
            OpKind::Quantize => {
                arity(1, 1)?;
                data_dtype(&[DType::F32])?;
                Ok((shape(0).clone(), DType::U8))
            }
            OpKind::Dequantize => {
                arity(1, 1)?;
                data_dtype(&[DType::U8])?;
                Ok((shape(0).clone(), DType::F32))
            }
        }
    }
}

/// How operands break an op's contract ([`OpKind::infer_output`]): the lint
/// code, the index of the operand at fault (`None` when the fault lies in
/// the op's arity or geometry rather than one operand) and the message.
pub(crate) type Violation = (LintCode, Option<usize>, String);

fn invalid<T>(message: impl Into<String>) -> Result<T, Violation> {
    Err((LintCode::OperandInvalid, None, message.into()))
}

/// Computes the output spatial size of a windowed op.
pub(crate) fn conv_out_size(input: usize, kernel: usize, stride: usize, padding: Padding) -> usize {
    match padding {
        Padding::Same => input.div_ceil(stride),
        Padding::Valid => {
            if input < kernel {
                0
            } else {
                (input - kernel) / stride + 1
            }
        }
    }
}

/// Total leading zero-padding (top/left) for `Same` padding, TFLite style.
pub(crate) fn same_pad_before(input: usize, kernel: usize, stride: usize) -> usize {
    let out = input.div_ceil(stride);
    let total = ((out - 1) * stride + kernel).saturating_sub(input);
    total / 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activation_values() {
        assert_eq!(Activation::Relu.apply(-1.0), 0.0);
        assert_eq!(Activation::Relu6.apply(9.0), 6.0);
        assert_eq!(Activation::HardSwish.apply(-3.0), 0.0);
        assert_eq!(Activation::HardSwish.apply(3.0), 3.0);
        assert_eq!(Activation::HardSigmoid.apply(3.0), 1.0);
        assert_eq!(Activation::HardSigmoid.apply(-3.0), 0.0);
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-6);
        assert!(Activation::Gelu.apply(3.0) > 2.9);
        assert!(Activation::Gelu.apply(-3.0).abs() < 0.01);
    }

    #[test]
    fn conv_out_sizes() {
        assert_eq!(conv_out_size(8, 3, 1, Padding::Same), 8);
        assert_eq!(conv_out_size(8, 3, 2, Padding::Same), 4);
        assert_eq!(conv_out_size(8, 3, 1, Padding::Valid), 6);
        assert_eq!(conv_out_size(8, 3, 2, Padding::Valid), 3);
        assert_eq!(conv_out_size(2, 3, 1, Padding::Valid), 0);
    }

    #[test]
    fn same_padding_amount() {
        // 8 wide, kernel 3, stride 1 -> pad 1 before.
        assert_eq!(same_pad_before(8, 3, 1), 1);
        // stride 2: out 4, total pad = 3*2+... = (3*2+3-8)=1 -> 0 before.
        assert_eq!(same_pad_before(8, 3, 2), 0);
    }

    #[test]
    fn labels_match_table4() {
        assert_eq!(
            OpKind::DepthwiseConv2d {
                stride: 1,
                padding: Padding::Same,
                activation: Activation::None
            }
            .type_label(),
            "D-Conv"
        );
        assert_eq!(OpKind::Mean.type_label(), "Mean");
        assert_eq!(OpKind::Quantize.type_label(), "Quantize");
    }
}
