//! Fully-connected and matrix-multiplication kernels.
//!
//! Every kernel treats the leading dimension as the batch, so a stacked
//! N-frame invoke runs as one `[N*n, in] x [out, in]^T` GEMM.

use mlexray_tensor::{QuantParams, Tensor};

use crate::graph::{Node, TensorDef};
use crate::kernels::{
    act_qbounds, emulated_dot, f32_slot, out_qparams, qparams_of, requantize, u8_slot,
};
use crate::ops::Activation;
use crate::resolver::{EdgeNumerics, RequantMode};
use crate::Result;

/// Reference float fully-connected layer, `[n, in] x [out, in]^T`: one
/// sequential accumulator per output feature. The optimized and SIMD flavors
/// run [`fc_f32_gemm`](super::gemm::fc_f32_gemm).
pub(crate) fn fc_f32(
    inputs: &[&Tensor],
    out_def: &TensorDef,
    activation: Activation,
    out_t: &mut Tensor,
) -> Result<()> {
    let x = inputs[0].as_f32()?;
    let w = inputs[1].as_f32()?;
    let bias = inputs.get(2).map(|t| t.as_f32()).transpose()?;
    let in_f = inputs[1].shape().dims()[1];
    let out_f = inputs[1].shape().dims()[0];
    let batch = inputs[0].shape().dims()[0];
    let out = f32_slot(out_t, out_def)?;
    for n in 0..batch {
        let xrow = &x[n * in_f..(n + 1) * in_f];
        for o in 0..out_f {
            let wrow = &w[o * in_f..(o + 1) * in_f];
            let mut acc = 0.0f32;
            for i in 0..in_f {
                acc += xrow[i] * wrow[i];
            }
            out[n * out_f + o] = activation.apply(acc + bias.map_or(0.0, |b| b[o]));
        }
    }
    Ok(())
}

/// Edge-emulated float fully-connected layer: each row reduction runs under
/// the emulator's numerics. The faithful configuration matches [`fc_f32`]
/// bitwise.
pub(crate) fn fc_f32_emulated(
    inputs: &[&Tensor],
    out_def: &TensorDef,
    activation: Activation,
    numerics: &EdgeNumerics,
    out_t: &mut Tensor,
) -> Result<()> {
    let x = inputs[0].as_f32()?;
    let w = inputs[1].as_f32()?;
    let bias = inputs.get(2).map(|t| t.as_f32()).transpose()?;
    let in_f = inputs[1].shape().dims()[1];
    let out_f = inputs[1].shape().dims()[0];
    let batch = inputs[0].shape().dims()[0];
    let out = f32_slot(out_t, out_def)?;
    for n in 0..batch {
        let xrow = &x[n * in_f..(n + 1) * in_f];
        for o in 0..out_f {
            let wrow = &w[o * in_f..(o + 1) * in_f];
            let acc = emulated_dot(0.0, in_f, |i| (xrow[i], wrow[i]), numerics);
            out[n * out_f + o] = activation.apply(acc + bias.map(|b| b[o]).unwrap_or(0.0));
        }
    }
    Ok(())
}

/// Quantized fully-connected layer.
pub(crate) fn fc_q(
    node: &Node,
    inputs: &[&Tensor],
    out_def: &TensorDef,
    activation: Activation,
    requant: RequantMode,
    out_t: &mut Tensor,
) -> Result<()> {
    let input = inputs[0];
    let weights = inputs[1];
    let bias = inputs.get(2).map(|t| t.as_i32()).transpose()?;
    let (s_in, zp_in) = qparams_of(node, input)?;
    let (s_out, zp_out) = out_qparams(node, out_def)?;
    let wq = weights.quant().cloned().unwrap_or(QuantParams::PerTensor {
        scale: 1.0,
        zero_point: 0,
    });
    let x = input.as_u8()?;
    let w = weights.as_i8()?;
    let in_f = weights.shape().dims()[1];
    let out_f = weights.shape().dims()[0];
    let batch = input.shape().dims()[0];
    let (qlo, qhi) = act_qbounds(activation, s_out, zp_out);
    let out = u8_slot(out_t, out_def)?;
    for n in 0..batch {
        for o in 0..out_f {
            let mut acc: i32 = bias.map(|b| b[o]).unwrap_or(0);
            for i in 0..in_f {
                acc += (x[n * in_f + i] as i32 - zp_in) * w[o * in_f + i] as i32;
            }
            let m = (s_in as f64) * (wq.for_channel(o).0 as f64) / (s_out as f64);
            out[n * out_f + o] = requantize(acc, m, zp_out, qlo, qhi, requant);
        }
    }
    Ok(())
}

/// Float 2-D matrix multiplication (used by the transformer encoder).
pub(crate) fn matmul_f32(
    inputs: &[&Tensor],
    out_def: &TensorDef,
    transpose_b: bool,
    out_t: &mut Tensor,
) -> Result<()> {
    let a = inputs[0].as_f32()?;
    let b = inputs[1].as_f32()?;
    let sa = inputs[0].shape().dims();
    let sb = inputs[1].shape().dims();
    let (m, k) = (sa[0], sa[1]);
    let n = if transpose_b { sb[0] } else { sb[1] };
    let out = f32_slot(out_t, out_def)?;
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            if transpose_b {
                for p in 0..k {
                    acc += a[i * k + p] * b[j * k + p];
                }
            } else {
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
            }
            out[i * n + j] = acc;
        }
    }
    Ok(())
}
