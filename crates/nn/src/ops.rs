use serde::{Deserialize, Serialize};

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
