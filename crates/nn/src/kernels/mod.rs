//! Kernel implementations, both float and quantized, for every kernel
//! flavor.
//!
//! The dispatch rule mirrors TFLite: `(op, dtype, flavor)` selects an
//! implementation, and — as with a TFLite `OpResolver` — the float choice is
//! resolved **once**, when the interpreter is built ([`FloatKernels`]), not
//! per node. Each float GEMM-family op (`Conv2d`, `FullyConnected`) has
//! one implementation per summation tree:
//!
//! * the **reference** kernels (`conv::conv2d_f32`, `fc::fc_f32`), the
//!   oracle: one sequential accumulator per output value, seeded with the
//!   bias. What is sequential is each value's *sum*, not the loop nest —
//!   `conv2d_f32` advances the independent sums of eight output channels
//!   side by side over weight panels the interpreter packs once
//!   (`pack_weight_panels`), changing no bit; the one-sum-at-a-time loops it
//!   and the reference depthwise replaced live on in `conv`'s tests as the
//!   oracle's oracle;
//! * the **optimized** flavor's blocked-4 cell ([`KernelFlavor::Optimized`]:
//!   four striped partial sums, `(s0 + s1) + (s2 + s3) + rest + bias`),
//!   run over an im2col matrix against the *same* packed panels, a panel's
//!   worth of cells side by side; the interpreter packs the constant
//!   `Conv2d` and `FullyConnected` weights of this flavor too;
//! * the **SIMD** flavor's `Lanes8` tiles ([`KernelFlavor::Simd`]: the
//!   8-lane virtual-SIMD dot) over the row-major weights.
//!
//! The last two are the two chain rules of one tile driver ([`gemm`]'s
//! `float_gemm`). They reassociate the float sum — the benign source of the
//! small checkpoint-vs-mobile drift in Fig. 5 — and all three run the same
//! code at every batch size, so `invoke_batch` is bitwise-identical to
//! sequential `invoke`s by construction.
//!
//! Float `DepthwiseConv2d` has one native kernel, shared by all three
//! flavors (`conv::dwconv_f32_channels`: every channel is its own sequential
//! sum, so there is nothing to reassociate). The edge emulator adds a third,
//! reference-structured family (`*_emulated`); the injected defects of
//! [`KernelBugs`] live in the quantized depthwise/pool kernels and the
//! `Lanes8` K-tail.
//!
//! The native float kernels — reference `Conv2d`, optimized `Conv2d` / FC,
//! the shared depthwise — run at the host's vector width: each body is
//! written once and compiled twice (`native_kernel!`), for the x86-64
//! baseline and for AVX2+FMA, and the interpreter's engine
//! ([`gemm::active_engine`]) picks the build. Both builds compute the same
//! bits (Rust never fuses a multiply and an add on its own: the unfused
//! kernels multiply, round, add in both), so the engine contract of the
//! [`gemm`] module covers the native flavors as it covers `Lanes8`, whose
//! fused tile runs inlined in the AVX2+FMA build and as its scalar mirror
//! in the baseline.
//!
//! Every kernel writes into an arena-provided output slot (`&mut Tensor`,
//! preallocated from the interpreter's `MemoryPlan`), and the float im2col
//! matrix and the BatchNorm denominators live in the plan-sized scratch.
//! The reference and optimized flavors hold a second, panel-ordered copy of
//! their constant float weights (≈ 8 KB for `mini_mobilenet_v2`), packed
//! when the interpreter is built; a weight operand that is a runtime tensor
//! is packed on each invoke into a buffer the interpreter keeps. So
//! steady-state float execution under the reference, optimized and SIMD
//! flavors makes no heap allocation per node — measured, not self-reported:
//! `tests/alloc_steady_state.rs` counts calls into the global allocator and
//! holds a warmed `invoke` to the same count on 7 nodes as on 62. What
//! still allocates per node, all outside those paths: `gemm::conv2d_q_simd`
//! (its `u8` patch matrix, for non-1×1 windows), `conv::conv2d_f32_emulated`
//! (its tap-offset list), `act_q` (a 256-entry lookup table) and
//! `dequantize` (a float copy of the input); and the interpreter spills the
//! operand list of a node with more than five inputs (only `Concat` can
//! have them).
//!
//! The element-wise float kernels (`Add`, `Mul`, `BatchNorm`) have no
//! flavor: every backend runs the same row-walking loops — the broadcast is
//! resolved by walking the lhs in rhs-sized rows, never by a `%` or `/` per
//! element.

/// Defines a native float kernel whose body is written once and compiled
/// twice: for the x86-64 baseline (SSE2, four lanes) and once more under
/// `#[target_feature(enable = "avx2", enable = "fma")]` (eight lanes). The
/// defined function takes the `gemm::Engine` to run on before the body's
/// own arguments; `Avx2Fma` runs the AVX2+FMA build, and an `Engine` holds
/// `Avx2Fma` only where both features were detected.
///
/// Enabling `fma` moves no bit: Rust never contracts `a + x * w` into a
/// fused multiply-add, so an unfused body still rounds every product
/// before adding it, exactly as the baseline build does. It is there for
/// the one fused body, the Simd GEMM, whose `vfmadd` intrinsics inline into
/// this build. `fn name[build](..)` names a `gemm::SimdEngine` argument of
/// the body that is the build it runs in — `Avx2Fma` in the AVX2+FMA one,
/// `Scalar` in the baseline — a constant in each, so a `match` on it folds
/// away.
macro_rules! native_kernel {
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $body:block
    ) => {
        native_kernel! {
            $(#[$attr])*
            $vis fn $name[_]($($arg: $ty),*) $body
        }
    };
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident[$build:tt]($($arg:ident: $ty:ty),* $(,)?) $body:block
    ) => {
        $(#[$attr])*
        #[allow(clippy::too_many_arguments)]
        $vis fn $name(engine: $crate::kernels::gemm::Engine, $($arg: $ty),*) {
            #[inline(always)]
            fn body($build: $crate::kernels::gemm::SimdEngine, $($arg: $ty),*) $body

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2", enable = "fma")]
            fn avx2_fma($($arg: $ty),*) {
                body($crate::kernels::gemm::SimdEngine::Avx2Fma, $($arg),*)
            }

            match engine.get() {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: an `Engine` holds `Avx2Fma` only after AVX2 and
                // FMA were detected on this CPU.
                $crate::kernels::gemm::SimdEngine::Avx2Fma => unsafe { avx2_fma($($arg),*) },
                _ => body($crate::kernels::gemm::SimdEngine::Scalar, $($arg),*),
            }
        }
    };
}

mod conv;
mod elementwise;
mod fc;
pub mod gemm;
mod pool;
mod window;

use mlexray_tensor::{DType, QuantParams, Tensor, TensorData};

pub(crate) use conv::pack_weight_panels;

use crate::graph::{Node, TensorDef};
use crate::ops::{Activation, OpKind};
use crate::resolver::{AccumOrder, EdgeNumerics, KernelBugs, KernelFlavor, RequantMode};
use crate::{NnError, Result};
use gemm::{Engine, Reduction};

/// Which implementation family the float GEMM-family ops (`Conv2d`,
/// `DepthwiseConv2d`, `FullyConnected`) run — `(flavor, numerics)` resolved
/// once per interpreter.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FloatKernels {
    /// Reference kernels: one sequential sum per output value.
    Reference,
    /// Reference loop structure under emulated edge numerics (whatever the
    /// flavor).
    Emulated(EdgeNumerics),
    /// im2col, then blocked-4 cells over packed weight panels.
    Blocked4,
    /// im2col, then 8-lane virtual-SIMD micro-kernel tiles over the
    /// row-major weights; `skip_k_tail` injects the K-tail defect.
    Lanes8 { skip_k_tail: bool },
}

impl FloatKernels {
    pub(crate) fn resolve(
        flavor: KernelFlavor,
        numerics: Option<EdgeNumerics>,
        bugs: &KernelBugs,
    ) -> Self {
        match (numerics, flavor) {
            (Some(numerics), _) => FloatKernels::Emulated(numerics),
            (None, KernelFlavor::Reference) => FloatKernels::Reference,
            (None, KernelFlavor::Optimized) => FloatKernels::Blocked4,
            (None, KernelFlavor::Simd) => FloatKernels::Lanes8 {
                skip_k_tail: bugs.simd_gemm_k_tail_skip,
            },
        }
    }

    /// The [`gemm`] chain rule of the Optimized (`Blocked4`, over
    /// [`node_panels`]) or Simd (`Lanes8`) kernels over `weights`.
    fn reduction<'a>(
        self,
        packed: Option<&'a [f32]>,
        runtime: &'a mut Vec<f32>,
        weights: &'a Tensor,
    ) -> Result<Reduction<'a>> {
        Ok(match self {
            FloatKernels::Lanes8 { skip_k_tail } => Reduction::Lanes8 {
                w: weights.as_f32()?,
                skip_k_tail,
            },
            _ => Reduction::Blocked4(node_panels(packed, runtime, weights)?),
        })
    }

    /// Whether these kernels read `op`'s float weights as
    /// [`pack_weight_panels`] lays them out: the reference `Conv2d`, and the
    /// optimized `Conv2d` and `FullyConnected`.
    pub(crate) fn reads_panels(self, op: &OpKind) -> bool {
        match self {
            FloatKernels::Reference => matches!(op, OpKind::Conv2d { .. }),
            FloatKernels::Blocked4 => {
                matches!(op, OpKind::Conv2d { .. } | OpKind::FullyConnected { .. })
            }
            FloatKernels::Emulated(_) | FloatKernels::Lanes8 { .. } => false,
        }
    }
}

/// Per-invoke execution context threaded through the dispatch: the resolved
/// float kernels and the engine their native builds run on, the flavor
/// (quantized dispatch), the emulated numerics, injected defects and the
/// plan-sized f32 scratch buffer.
pub(crate) struct KernelCtx<'a> {
    pub float: FloatKernels,
    pub flavor: KernelFlavor,
    /// Emulated edge-runtime numerics; `None` runs native arithmetic.
    pub numerics: Option<EdgeNumerics>,
    pub bugs: &'a KernelBugs,
    /// Which build of the native float kernels runs: `Avx2Fma` the AVX2
    /// one, `Scalar` the baseline (same bits).
    pub engine: Engine,
    /// Scratch reused across nodes; capacity is reserved at plan time so
    /// `resize` never reallocates in steady state.
    pub scratch: &'a mut Vec<f32>,
    /// The node's weights in [`pack_weight_panels`] order: `Some` for a
    /// node whose kernel [reads panels](FloatKernels::reads_panels) and
    /// whose weights are a graph constant, packed when the interpreter was
    /// built.
    pub panels: Option<&'a [f32]>,
    /// Where such a kernel packs weights that are a runtime tensor, on every
    /// invoke; grows to the largest such operand and then stays.
    pub runtime_panels: &'a mut Vec<f32>,
}

impl KernelCtx<'_> {
    /// Requantization multiplier precision for this invoke's quantized
    /// kernels.
    fn requant_mode(&self) -> RequantMode {
        self.numerics.map(|n| n.requant).unwrap_or_default()
    }
}

/// `weights` in [`pack_weight_panels`] order: the copy packed at build, or
/// else packed now into `runtime`.
fn node_panels<'a>(
    packed: Option<&'a [f32]>,
    runtime: &'a mut Vec<f32>,
    weights: &Tensor,
) -> Result<&'a [f32]> {
    match packed {
        Some(packed) => Ok(packed),
        None => {
            pack_weight_panels(weights, runtime)?;
            Ok(runtime)
        }
    }
}

/// Executes one node given resolved input tensors, the output slot
/// definition (per-frame shape, dtype, quantization) and the preallocated
/// output slot, whose leading dimension is stacked to the invoke's batch
/// size — kernels read the batch from their operands, never from `out_def`.
pub(crate) fn execute_node(
    node: &Node,
    inputs: &[&Tensor],
    out_def: &TensorDef,
    out: &mut Tensor,
    ctx: &mut KernelCtx<'_>,
) -> Result<()> {
    let quantized = inputs
        .first()
        .map(|t| t.dtype() == DType::U8)
        .unwrap_or(false);
    let flavor = ctx.flavor;
    let requant = ctx.requant_mode();
    let result = match (&node.op, quantized) {
        (
            &OpKind::Conv2d {
                stride,
                padding,
                activation,
            },
            false,
        ) => match ctx.float {
            FloatKernels::Reference => {
                let panels = node_panels(ctx.panels, ctx.runtime_panels, inputs[1])?;
                conv::conv2d_f32(
                    ctx.engine, inputs, panels, out_def, stride, padding, activation, out,
                )
            }
            FloatKernels::Emulated(numerics) => conv::conv2d_f32_emulated(
                inputs,
                out_def,
                stride,
                padding,
                activation,
                &numerics,
                ctx.scratch,
                out,
            ),
            FloatKernels::Blocked4 | FloatKernels::Lanes8 { .. } => {
                let reduction = ctx
                    .float
                    .reduction(ctx.panels, ctx.runtime_panels, inputs[1])?;
                gemm::conv2d_f32_gemm(
                    ctx.engine,
                    reduction,
                    inputs,
                    out_def,
                    stride,
                    padding,
                    activation,
                    ctx.scratch,
                    out,
                )
            }
        },
        (
            &OpKind::Conv2d {
                stride,
                padding,
                activation,
            },
            true,
        ) => {
            let kernel = if flavor == KernelFlavor::Simd {
                gemm::conv2d_q_simd
            } else {
                conv::conv2d_q
            };
            kernel(
                node, inputs, out_def, stride, padding, activation, requant, out,
            )
        }
        (
            &OpKind::DepthwiseConv2d {
                stride,
                padding,
                activation,
            },
            false,
        ) => match ctx.float {
            FloatKernels::Reference | FloatKernels::Blocked4 | FloatKernels::Lanes8 { .. } => {
                conv::dwconv_f32_channels(
                    ctx.engine, inputs, out_def, stride, padding, activation, out,
                )
            }
            FloatKernels::Emulated(numerics) => conv::dwconv_f32_emulated(
                inputs,
                out_def,
                stride,
                padding,
                activation,
                &numerics,
                ctx.scratch,
                out,
            ),
        },
        (
            &OpKind::DepthwiseConv2d {
                stride,
                padding,
                activation,
            },
            true,
        ) => conv::dwconv_q(
            node, inputs, out_def, stride, padding, activation, flavor, ctx.bugs, requant, out,
        ),
        (&OpKind::FullyConnected { activation }, false) => match ctx.float {
            FloatKernels::Reference => fc::fc_f32(inputs, out_def, activation, out),
            FloatKernels::Emulated(numerics) => {
                fc::fc_f32_emulated(inputs, out_def, activation, &numerics, out)
            }
            FloatKernels::Blocked4 | FloatKernels::Lanes8 { .. } => {
                let reduction = ctx
                    .float
                    .reduction(ctx.panels, ctx.runtime_panels, inputs[1])?;
                gemm::fc_f32_gemm(ctx.engine, reduction, inputs, out_def, activation, out)
            }
        },
        (&OpKind::FullyConnected { activation }, true) => {
            let kernel = if flavor == KernelFlavor::Simd {
                gemm::fc_q_simd
            } else {
                fc::fc_q
            };
            kernel(node, inputs, out_def, activation, requant, out)
        }
        (&OpKind::MatMul { transpose_b }, _) => fc::matmul_f32(inputs, out_def, transpose_b, out),
        (
            &OpKind::AveragePool2d {
                pool_h,
                pool_w,
                stride,
                padding,
            },
            false,
        ) => pool::avgpool_f32(inputs, out_def, pool_h, pool_w, stride, padding, out),
        (
            &OpKind::AveragePool2d {
                pool_h,
                pool_w,
                stride,
                padding,
            },
            true,
        ) => pool::avgpool_q(
            node, inputs, out_def, pool_h, pool_w, stride, padding, ctx.bugs, requant, out,
        ),
        (
            &OpKind::MaxPool2d {
                pool_h,
                pool_w,
                stride,
                padding,
            },
            false,
        ) => pool::maxpool_f32(inputs, out_def, pool_h, pool_w, stride, padding, out),
        (
            &OpKind::MaxPool2d {
                pool_h,
                pool_w,
                stride,
                padding,
            },
            true,
        ) => pool::maxpool_q(
            node, inputs, out_def, pool_h, pool_w, stride, padding, requant, out,
        ),
        (OpKind::Mean, false) => pool::mean_f32(inputs, out_def, out),
        (OpKind::Mean, true) => pool::mean_q(node, inputs, out_def, requant, out),
        (&OpKind::Add { activation }, false) => {
            elementwise::add_f32(inputs, out_def, activation, out)
        }
        (&OpKind::Add { activation }, true) => {
            elementwise::add_q(node, inputs, out_def, activation, out)
        }
        (OpKind::Mul, false) => elementwise::mul_f32(inputs, out_def, out),
        (OpKind::Mul, true) => elementwise::mul_q(node, inputs, out_def, out),
        (&OpKind::Concat { axis }, _) => elementwise::concat(node, inputs, out_def, axis, out),
        (
            &OpKind::Pad {
                top,
                bottom,
                left,
                right,
            },
            _,
        ) => elementwise::pad(node, inputs, out_def, top, bottom, left, right, out),
        (OpKind::Softmax, false) => elementwise::softmax_f32(inputs, out_def, out),
        (OpKind::Softmax, true) => Err(unsupported(node, "quantized softmax (insert Dequantize)")),
        (&OpKind::Act(act), false) => elementwise::act_f32(inputs, out_def, act, out),
        (&OpKind::Act(act), true) => elementwise::act_q(node, inputs, out_def, act, out),
        (&OpKind::BatchNorm { epsilon }, false) => {
            elementwise::batch_norm_f32(inputs, out_def, epsilon, ctx.scratch, out)
        }
        (&OpKind::LayerNorm { epsilon }, false) => {
            elementwise::layer_norm_f32(inputs, out_def, epsilon, out)
        }
        (OpKind::Embedding, _) => elementwise::embedding_f32(inputs, out_def, out),
        (OpKind::Reshape { .. }, _) => elementwise::reshape(inputs, out),
        (OpKind::Quantize, _) => elementwise::quantize(node, inputs, out_def, out),
        (OpKind::Dequantize, _) => elementwise::dequantize(inputs, out_def, out),
        (op, true) => Err(unsupported(node, &format!("quantized {}", op.type_label()))),
    };
    // The emulator's flush-to-zero knob models ARM's default FTZ mode at
    // node granularity: every float output has its subnormals flushed before
    // the next op can read them.
    if result.is_ok() && ctx.numerics.is_some_and(|n| n.flush_to_zero) {
        if let TensorData::F32(_) = out.data() {
            for v in out.as_f32_mut()? {
                if v.is_subnormal() {
                    *v = 0.0f32.copysign(*v);
                }
            }
        }
    }
    result
}

/// Emulated GEMM-family reduction: `n` (value, weight) terms addressed by
/// `term`, folded under the emulator's accumulation order and multiply-add
/// contraction, starting from `init`.
///
/// With the faithful configuration ([`AccumOrder::Sequential`], split
/// multiply-add) this is exactly the reference kernels' arithmetic.
#[inline]
pub(crate) fn emulated_dot(
    init: f32,
    n: usize,
    term: impl Fn(usize) -> (f32, f32),
    numerics: &EdgeNumerics,
) -> f32 {
    let fma = numerics.fused_multiply_add;
    let step = |acc: f32, i: usize| -> f32 {
        let (a, b) = term(i);
        if fma {
            a.mul_add(b, acc)
        } else {
            acc + a * b
        }
    };
    match numerics.accumulation {
        AccumOrder::Sequential => (0..n).fold(init, step),
        AccumOrder::Reversed => (0..n).rev().fold(init, step),
        AccumOrder::Lanes8 => {
            // `init` (the bias) seeds lane 0, as a real lane reduction would
            // fold the bias into one accumulator register.
            let mut lanes = [0.0f32; 8];
            lanes[0] = init;
            for i in 0..n {
                lanes[i % 8] = step(lanes[i % 8], i);
            }
            ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
                + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
        }
    }
}

pub(crate) fn unsupported(node: &Node, what: &str) -> NnError {
    NnError::InvalidOp {
        node: node.name.clone(),
        reason: format!("unsupported: {what}"),
    }
}

/// Extracts per-tensor `(scale, zero_point)` from a runtime tensor.
pub(crate) fn qparams_of(node: &Node, t: &Tensor) -> Result<(f32, i32)> {
    match t.quant() {
        Some(QuantParams::PerTensor { scale, zero_point }) => Ok((*scale, *zero_point)),
        Some(QuantParams::PerChannel { .. }) => Err(NnError::InvalidOp {
            node: node.name.clone(),
            reason: "expected per-tensor quantization on activation".into(),
        }),
        None => Err(NnError::InvalidOp {
            node: node.name.clone(),
            reason: "missing quantization parameters".into(),
        }),
    }
}

/// Extracts the output `(scale, zero_point)` from the output slot definition.
pub(crate) fn out_qparams(node: &Node, out_def: &TensorDef) -> Result<(f32, i32)> {
    match out_def.quant() {
        Some(QuantParams::PerTensor { scale, zero_point }) => Ok((*scale, *zero_point)),
        _ => Err(NnError::InvalidOp {
            node: node.name.clone(),
            reason: "missing per-tensor quantization on output".into(),
        }),
    }
}

/// Quantized clamp bounds implied by a fused activation.
pub(crate) fn act_qbounds(act: Activation, scale: f32, zp: i32) -> (i32, i32) {
    let (mut lo, mut hi) = (0i32, 255i32);
    if let Some((rlo, rhi)) = act.clamp_bounds() {
        lo = lo.max(zp + (rlo / scale).round() as i32);
        if rhi.is_finite() {
            hi = hi.min(zp + (rhi / scale).round() as i32);
        }
    }
    (lo, hi.max(lo))
}

/// Requantizes an `i32` accumulator to `u8` with real multiplier `m`, at the
/// multiplier precision the execution context dictates
/// ([`RequantMode::Double`] is the native arithmetic; [`RequantMode::Single`]
/// is the emulator's reduced-precision knob).
#[inline]
pub(crate) fn requantize(
    acc: i32,
    m: f64,
    zp_out: i32,
    qlo: i32,
    qhi: i32,
    mode: RequantMode,
) -> u8 {
    let scaled = match mode {
        RequantMode::Double => (m * acc as f64).round() as i32,
        RequantMode::Single => ((m as f32) * acc as f32).round() as i32,
    };
    (zp_out + scaled).clamp(qlo, qhi) as u8
}

/// Whether `out` holds a whole number of frames of `out_def`'s shape (the
/// definition is per frame; the slot is stacked to the invoke's batch size).
fn holds_whole_frames(out: &Tensor, out_def: &TensorDef) -> bool {
    out.len()
        .is_multiple_of(out_def.shape().num_elements().max(1))
}

/// Borrows a float output slot, checking it matches the slot definition.
pub(crate) fn f32_slot<'a>(out: &'a mut Tensor, out_def: &TensorDef) -> Result<&'a mut [f32]> {
    debug_assert!(holds_whole_frames(out, out_def));
    Ok(out.as_f32_mut()?)
}

/// Borrows a quantized (`u8`) output slot. The slot's quantization
/// parameters were attached from the slot definition when the arena was
/// planned, matching what `out_qparams` reads.
pub(crate) fn u8_slot<'a>(out: &'a mut Tensor, out_def: &TensorDef) -> Result<&'a mut [u8]> {
    debug_assert!(holds_whole_frames(out, out_def));
    Ok(out.as_u8_mut()?)
}

/// Every activation, for the kernel unit tests.
#[cfg(test)]
pub(crate) const ACTIVATIONS: [Activation; 7] = [
    Activation::None,
    Activation::Relu,
    Activation::Relu6,
    Activation::HardSwish,
    Activation::HardSigmoid,
    Activation::Sigmoid,
    Activation::Gelu,
];

/// Deterministic test values in `[-1.5, 1.5)` (xorshift64*), shared by the
/// kernel unit tests.
#[cfg(test)]
pub(crate) fn det_f32(seed: u64, n: usize) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            let bits = s.wrapping_mul(0x2545_F491_4F6C_DD1D);
            ((bits >> 40) as f32 / (1u64 << 24) as f32) * 3.0 - 1.5
        })
        .collect()
}
