//! Element-wise, normalization, reshape and quantization-boundary kernels.
//! Outputs are laid out batch-major, so stacked batches run natively.

use mlexray_tensor::{Tensor, TensorData};

use crate::graph::{Node, TensorDef};
use crate::kernels::{f32_slot, out_qparams, qparams_of, u8_slot};
use crate::ops::Activation;
use crate::Result;

/// Float addition with trailing-suffix broadcast of the rhs.
pub(crate) fn add_f32(
    inputs: &[&Tensor],
    out_def: &TensorDef,
    activation: Activation,
    out_t: &mut Tensor,
) -> Result<()> {
    let a = inputs[0].as_f32()?;
    let b = inputs[1].as_f32()?;
    let blen = b.len().max(1);
    let out = f32_slot(out_t, out_def)?;
    for (i, (o, &x)) in out.iter_mut().zip(a).enumerate() {
        *o = activation.apply(x + b[i % blen]);
    }
    Ok(())
}

/// Quantized addition: dequantize both sides, add, requantize to the output
/// parameters (TFLite performs the same rescaling, in fixed point).
pub(crate) fn add_q(
    node: &Node,
    inputs: &[&Tensor],
    out_def: &TensorDef,
    activation: Activation,
    out_t: &mut Tensor,
) -> Result<()> {
    let (s_a, zp_a) = qparams_of(node, inputs[0])?;
    let (s_b, zp_b) = qparams_of(node, inputs[1])?;
    let (s_out, zp_out) = out_qparams(node, out_def)?;
    let a = inputs[0].as_u8()?;
    let b = inputs[1].as_u8()?;
    let blen = b.len().max(1);
    let out = u8_slot(out_t, out_def)?;
    for (i, (o, &x)) in out.iter_mut().zip(a).enumerate() {
        let ra = s_a * (x as i32 - zp_a) as f32;
        let rb = s_b * (b[i % blen] as i32 - zp_b) as f32;
        let r = activation.apply(ra + rb);
        *o = (zp_out + (r / s_out).round() as i32).clamp(0, 255) as u8;
    }
    Ok(())
}

fn mul_rhs_index(lhs: &Tensor, rhs: &Tensor, i: usize) -> usize {
    if rhs.len() == 1 {
        return 0;
    }
    if rhs.len() == lhs.len() {
        return i;
    }
    // [n,1,1,c] gate against [n,h,w,c].
    let d = lhs.shape().dims();
    let c = d[3];
    let n = i / (d[1] * d[2] * c);
    let ch = i % c;
    n * c + ch
}

/// Float multiplication: same shape, scalar, or `[n,1,1,c]` gate.
pub(crate) fn mul_f32(inputs: &[&Tensor], out_def: &TensorDef, out_t: &mut Tensor) -> Result<()> {
    let a = inputs[0].as_f32()?;
    let b = inputs[1].as_f32()?;
    let out = f32_slot(out_t, out_def)?;
    for (i, (o, &x)) in out.iter_mut().zip(a).enumerate() {
        *o = x * b[mul_rhs_index(inputs[0], inputs[1], i)];
    }
    Ok(())
}

/// Quantized multiplication via dequantize-multiply-requantize.
pub(crate) fn mul_q(
    node: &Node,
    inputs: &[&Tensor],
    out_def: &TensorDef,
    out_t: &mut Tensor,
) -> Result<()> {
    let (s_a, zp_a) = qparams_of(node, inputs[0])?;
    let (s_b, zp_b) = qparams_of(node, inputs[1])?;
    let (s_out, zp_out) = out_qparams(node, out_def)?;
    let a = inputs[0].as_u8()?;
    let b = inputs[1].as_u8()?;
    let out = u8_slot(out_t, out_def)?;
    for (i, (o, &x)) in out.iter_mut().zip(a).enumerate() {
        let rb = s_b * (b[mul_rhs_index(inputs[0], inputs[1], i)] as i32 - zp_b) as f32;
        let r = s_a * (x as i32 - zp_a) as f32 * rb;
        *o = (zp_out + (r / s_out).round() as i32).clamp(0, 255) as u8;
    }
    Ok(())
}

/// Standalone float activation.
pub(crate) fn act_f32(
    inputs: &[&Tensor],
    out_def: &TensorDef,
    act: Activation,
    out_t: &mut Tensor,
) -> Result<()> {
    let x = inputs[0].as_f32()?;
    let out = f32_slot(out_t, out_def)?;
    for (o, &v) in out.iter_mut().zip(x) {
        *o = act.apply(v);
    }
    Ok(())
}

/// Standalone quantized activation via dequantize-apply-requantize (TFLite
/// implements these as 256-entry lookup tables with the same semantics).
pub(crate) fn act_q(
    node: &Node,
    inputs: &[&Tensor],
    out_def: &TensorDef,
    act: Activation,
    out_t: &mut Tensor,
) -> Result<()> {
    let (s_in, zp_in) = qparams_of(node, inputs[0])?;
    let (s_out, zp_out) = out_qparams(node, out_def)?;
    // Build the 256-entry LUT, as the real runtime does.
    let lut: Vec<u8> = (0..256)
        .map(|q| {
            let r = act.apply(s_in * (q - zp_in) as f32);
            (zp_out + (r / s_out).round() as i32).clamp(0, 255) as u8
        })
        .collect();
    let x = inputs[0].as_u8()?;
    let out = u8_slot(out_t, out_def)?;
    for (o, &q) in out.iter_mut().zip(x) {
        *o = lut[q as usize];
    }
    Ok(())
}

/// Spatial zero padding (quantized tensors pad with the zero point).
#[allow(clippy::too_many_arguments)]
pub(crate) fn pad(
    node: &Node,
    inputs: &[&Tensor],
    out_def: &TensorDef,
    top: usize,
    bottom: usize,
    left: usize,
    right: usize,
    out_t: &mut Tensor,
) -> Result<()> {
    let _ = (bottom, right);
    let input = inputs[0];
    let d = input.shape().dims();
    let (n, h, w, c) = (d[0], d[1], d[2], d[3]);
    let od = out_def.shape().dims();
    let (oh, ow) = (od[1], od[2]);
    match input.as_f32() {
        Ok(x) => {
            let out = f32_slot(out_t, out_def)?;
            out.iter_mut().for_each(|v| *v = 0.0);
            for b in 0..n {
                for y in 0..h {
                    for xx in 0..w {
                        let src = ((b * h + y) * w + xx) * c;
                        let dst = ((b * oh + y + top) * ow + xx + left) * c;
                        out[dst..dst + c].copy_from_slice(&x[src..src + c]);
                    }
                }
            }
            Ok(())
        }
        Err(_) => {
            let (_, zp) = out_qparams(node, out_def)?;
            let x = inputs[0].as_u8()?;
            let out = u8_slot(out_t, out_def)?;
            out.iter_mut().for_each(|v| *v = zp.clamp(0, 255) as u8);
            for b in 0..n {
                for y in 0..h {
                    for xx in 0..w {
                        let src = ((b * h + y) * w + xx) * c;
                        let dst = ((b * oh + y + top) * ow + xx + left) * c;
                        out[dst..dst + c].copy_from_slice(&x[src..src + c]);
                    }
                }
            }
            Ok(())
        }
    }
}

/// Concatenation along an axis; quantized inputs are requantized to the
/// output parameters while copying.
pub(crate) fn concat(
    node: &Node,
    inputs: &[&Tensor],
    out_def: &TensorDef,
    axis: usize,
    out_t: &mut Tensor,
) -> Result<()> {
    let out_dims = out_def.shape().dims().to_vec();
    let outer: usize = out_dims[..axis].iter().product::<usize>().max(1);
    let inner: usize = out_dims[axis + 1..].iter().product::<usize>().max(1);
    let quantized = inputs[0].dtype() == mlexray_tensor::DType::U8;
    if quantized {
        let (s_out, zp_out) = out_qparams(node, out_def)?;
        let out = u8_slot(out_t, out_def)?;
        let mut axis_off = 0usize;
        let out_axis = out_dims[axis];
        for t in inputs {
            let (s_in, zp_in) = qparams_of(node, t)?;
            let x = t.as_u8()?;
            let a = t.shape().dims()[axis];
            for o in 0..outer {
                for ai in 0..a {
                    for ii in 0..inner {
                        let src = (o * a + ai) * inner + ii;
                        let dst = (o * out_axis + axis_off + ai) * inner + ii;
                        let r = s_in * (x[src] as i32 - zp_in) as f32;
                        out[dst] = (zp_out + (r / s_out).round() as i32).clamp(0, 255) as u8;
                    }
                }
            }
            axis_off += a;
        }
        Ok(())
    } else {
        let out = f32_slot(out_t, out_def)?;
        let mut axis_off = 0usize;
        let out_axis = out_dims[axis];
        for t in inputs {
            let x = t.as_f32()?;
            let a = t.shape().dims()[axis];
            for o in 0..outer {
                for ai in 0..a {
                    let src = (o * a + ai) * inner;
                    let dst = (o * out_axis + axis_off + ai) * inner;
                    out[dst..dst + inner].copy_from_slice(&x[src..src + inner]);
                }
            }
            axis_off += a;
        }
        Ok(())
    }
}

/// Softmax over the last axis.
pub(crate) fn softmax_f32(
    inputs: &[&Tensor],
    out_def: &TensorDef,
    out_t: &mut Tensor,
) -> Result<()> {
    let x = inputs[0].as_f32()?;
    let dims = inputs[0].shape().dims();
    let last = dims[dims.len() - 1];
    let rows = x.len() / last.max(1);
    let out = f32_slot(out_t, out_def)?;
    for r in 0..rows {
        let row = &x[r * last..(r + 1) * last];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for (i, &v) in row.iter().enumerate() {
            let e = (v - max).exp();
            out[r * last + i] = e;
            sum += e;
        }
        for v in &mut out[r * last..(r + 1) * last] {
            *v /= sum;
        }
    }
    Ok(())
}

/// Inference-style batch normalization over the channel (last) axis.
pub(crate) fn batch_norm_f32(
    inputs: &[&Tensor],
    out_def: &TensorDef,
    epsilon: f32,
    out_t: &mut Tensor,
) -> Result<()> {
    let x = inputs[0].as_f32()?;
    let gamma = inputs[1].as_f32()?;
    let beta = inputs[2].as_f32()?;
    let mean = inputs[3].as_f32()?;
    let var = inputs[4].as_f32()?;
    let c = gamma.len();
    let out = f32_slot(out_t, out_def)?;
    for (i, (o, &v)) in out.iter_mut().zip(x).enumerate() {
        let ch = i % c;
        *o = gamma[ch] * (v - mean[ch]) / (var[ch] + epsilon).sqrt() + beta[ch];
    }
    Ok(())
}

/// Layer normalization over the last axis.
pub(crate) fn layer_norm_f32(
    inputs: &[&Tensor],
    out_def: &TensorDef,
    epsilon: f32,
    out_t: &mut Tensor,
) -> Result<()> {
    let x = inputs[0].as_f32()?;
    let gamma = inputs[1].as_f32()?;
    let beta = inputs[2].as_f32()?;
    let d = gamma.len();
    let rows = x.len() / d.max(1);
    let out = f32_slot(out_t, out_def)?;
    for r in 0..rows {
        let row = &x[r * d..(r + 1) * d];
        let mean = row.iter().sum::<f32>() / d as f32;
        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
        let inv = 1.0 / (var + epsilon).sqrt();
        for (i, &v) in row.iter().enumerate() {
            out[r * d + i] = gamma[i] * (v - mean) * inv + beta[i];
        }
    }
    Ok(())
}

/// Embedding lookup; out-of-range ids clamp to the table (the `<unk>`
/// convention lives in the preprocessing layer, not here).
pub(crate) fn embedding_f32(
    inputs: &[&Tensor],
    out_def: &TensorDef,
    out_t: &mut Tensor,
) -> Result<()> {
    let ids = inputs[0].as_i32()?;
    let table = inputs[1].as_f32()?;
    let d = inputs[1].shape().dims()[1];
    let v = inputs[1].shape().dims()[0];
    let out = f32_slot(out_t, out_def)?;
    for (i, &id) in ids.iter().enumerate() {
        let id = (id.max(0) as usize).min(v - 1);
        out[i * d..(i + 1) * d].copy_from_slice(&table[id * d..(id + 1) * d]);
    }
    Ok(())
}

/// Reshape: same data, new shape (any dtype). Keeps the *input's*
/// quantization parameters on the output slot, matching the semantics of a
/// data-preserving view.
pub(crate) fn reshape(inputs: &[&Tensor], out_t: &mut Tensor) -> Result<()> {
    let input = inputs[0];
    match input.data() {
        TensorData::F32(src) => out_t.as_f32_mut()?.copy_from_slice(src),
        TensorData::U8(src) => out_t.as_u8_mut()?.copy_from_slice(src),
        TensorData::I8(src) => out_t.as_i8_mut()?.copy_from_slice(src),
        TensorData::I32(src) => out_t.as_i32_mut()?.copy_from_slice(src),
    }
    out_t.set_quant(input.quant().cloned());
    Ok(())
}

/// The `f32 → u8` quantization boundary inserted by the quantizer.
pub(crate) fn quantize(
    node: &Node,
    inputs: &[&Tensor],
    out_def: &TensorDef,
    out_t: &mut Tensor,
) -> Result<()> {
    let (scale, zp) = out_qparams(node, out_def)?;
    let x = inputs[0].as_f32()?;
    let out = u8_slot(out_t, out_def)?;
    for (o, &v) in out.iter_mut().zip(x) {
        *o = (zp + (v / scale).round() as i32).clamp(0, 255) as u8;
    }
    Ok(())
}

/// The `u8 → f32` dequantization boundary.
pub(crate) fn dequantize(
    inputs: &[&Tensor],
    out_def: &TensorDef,
    out_t: &mut Tensor,
) -> Result<()> {
    let values = inputs[0].to_f32_vec();
    let out = f32_slot(out_t, out_def)?;
    out.copy_from_slice(&values);
    Ok(())
}
