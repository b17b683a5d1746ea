//! Pooling and reduction kernels, including the injectable quantized
//! AveragePool2D defect of §4.4. All loops are batch-outer, so stacked
//! batches run natively.

use mlexray_tensor::Tensor;

use crate::graph::{Node, TensorDef};
use crate::kernels::window::WindowGeom;
use crate::kernels::{f32_slot, out_qparams, qparams_of, requantize, u8_slot};
use crate::ops::Padding;
use crate::resolver::{KernelBugs, RequantMode};
use crate::Result;

/// Float average pooling over the in-bounds part of each window.
pub(crate) fn avgpool_f32(
    inputs: &[&Tensor],
    out_def: &TensorDef,
    pool_h: usize,
    pool_w: usize,
    stride: usize,
    padding: Padding,
    out_t: &mut Tensor,
) -> Result<()> {
    let x = inputs[0].as_f32()?;
    let g = WindowGeom::new(inputs[0], out_def, pool_h, pool_w, stride, padding);
    let out = f32_slot(out_t, out_def)?;
    for cell in g.cells() {
        for ch in 0..g.c {
            let (mut acc, mut count) = (0.0f32, 0usize);
            for (_, pixel) in g.taps(&cell) {
                acc += x[pixel * g.c + ch];
                count += 1;
            }
            out[cell.index * g.c + ch] = acc / count.max(1) as f32;
        }
    }
    Ok(())
}

/// Float max pooling.
pub(crate) fn maxpool_f32(
    inputs: &[&Tensor],
    out_def: &TensorDef,
    pool_h: usize,
    pool_w: usize,
    stride: usize,
    padding: Padding,
    out_t: &mut Tensor,
) -> Result<()> {
    let x = inputs[0].as_f32()?;
    let g = WindowGeom::new(inputs[0], out_def, pool_h, pool_w, stride, padding);
    let out = f32_slot(out_t, out_def)?;
    for cell in g.cells() {
        for ch in 0..g.c {
            out[cell.index * g.c + ch] = g
                .taps(&cell)
                .map(|(_, pixel)| x[pixel * g.c + ch])
                .fold(f32::NEG_INFINITY, f32::max);
        }
    }
    Ok(())
}

/// Float global reduce-mean: `[n, ..., c] → [n, c]`.
pub(crate) fn mean_f32(inputs: &[&Tensor], out_def: &TensorDef, out_t: &mut Tensor) -> Result<()> {
    let x = inputs[0].as_f32()?;
    let dims = inputs[0].shape().dims();
    let n = dims[0];
    let c = dims[dims.len() - 1];
    let mid: usize = dims[1..dims.len() - 1].iter().product::<usize>().max(1);
    let out = f32_slot(out_t, out_def)?;
    out.iter_mut().for_each(|v| *v = 0.0);
    for b in 0..n {
        for m in 0..mid {
            let base = (b * mid + m) * c;
            for ch in 0..c {
                out[b * c + ch] += x[base + ch];
            }
        }
        for ch in 0..c {
            out[b * c + ch] /= mid as f32;
        }
    }
    Ok(())
}

/// Quantized average pooling. When [`KernelBugs::avgpool_double_division`] is
/// set (both resolvers — it is an op-spec defect), the accumulator is divided
/// by the pool area twice, collapsing outputs toward quantized zero: the
/// constant-output failure that zeroes MobileNet v3 in Fig. 5.
#[allow(clippy::too_many_arguments)]
pub(crate) fn avgpool_q(
    node: &Node,
    inputs: &[&Tensor],
    out_def: &TensorDef,
    pool_h: usize,
    pool_w: usize,
    stride: usize,
    padding: Padding,
    bugs: &KernelBugs,
    requant: RequantMode,
    out_t: &mut Tensor,
) -> Result<()> {
    let input = inputs[0];
    let (s_in, zp_in) = qparams_of(node, input)?;
    let (s_out, zp_out) = out_qparams(node, out_def)?;
    let x = input.as_u8()?;
    let g = WindowGeom::new(input, out_def, pool_h, pool_w, stride, padding);
    let out = u8_slot(out_t, out_def)?;
    let m = (s_in as f64) / (s_out as f64);
    let buggy = bugs.avgpool_double_division && pool_h * pool_w >= 16;
    for cell in g.cells() {
        for ch in 0..g.c {
            let (mut acc, mut count) = (0i32, 0i32);
            for (_, pixel) in g.taps(&cell) {
                acc += x[pixel * g.c + ch] as i32;
                count += 1;
            }
            let count = count.max(1);
            let avg_q = if buggy {
                // Injected defect: divides by the area twice.
                (acc / count) / count
            } else {
                // Rounded average in the quantized domain.
                (acc + count / 2) / count
            };
            out[cell.index * g.c + ch] = requantize(avg_q - zp_in, m, zp_out, 0, 255, requant);
        }
    }
    Ok(())
}

/// Quantized max pooling (correct in both resolvers).
#[allow(clippy::too_many_arguments)]
pub(crate) fn maxpool_q(
    node: &Node,
    inputs: &[&Tensor],
    out_def: &TensorDef,
    pool_h: usize,
    pool_w: usize,
    stride: usize,
    padding: Padding,
    requant: RequantMode,
    out_t: &mut Tensor,
) -> Result<()> {
    let input = inputs[0];
    let (s_in, zp_in) = qparams_of(node, input)?;
    let (s_out, zp_out) = out_qparams(node, out_def)?;
    let x = input.as_u8()?;
    let g = WindowGeom::new(input, out_def, pool_h, pool_w, stride, padding);
    let m = (s_in as f64) / (s_out as f64);
    let out = u8_slot(out_t, out_def)?;
    for cell in g.cells() {
        for ch in 0..g.c {
            // An empty window (unreachable with SAME/VALID geometry) pools to 0.
            let best = g
                .taps(&cell)
                .map(|(_, pixel)| x[pixel * g.c + ch] as i32)
                .max()
                .unwrap_or(0);
            out[cell.index * g.c + ch] = requantize(best - zp_in, m, zp_out, 0, 255, requant);
        }
    }
    Ok(())
}

/// Quantized global reduce-mean (TFLite `Mean`, correct — which is why
/// MobileNet v1/v2 survive quantization in Fig. 5 while v3's `AveragePool2d`
/// does not).
pub(crate) fn mean_q(
    node: &Node,
    inputs: &[&Tensor],
    out_def: &TensorDef,
    requant: RequantMode,
    out_t: &mut Tensor,
) -> Result<()> {
    let input = inputs[0];
    let (s_in, zp_in) = qparams_of(node, input)?;
    let (s_out, zp_out) = out_qparams(node, out_def)?;
    let x = input.as_u8()?;
    let dims = input.shape().dims();
    let n = dims[0];
    let c = dims[dims.len() - 1];
    let mid: usize = dims[1..dims.len() - 1].iter().product::<usize>().max(1);
    let m = (s_in as f64) / (s_out as f64);
    let out = u8_slot(out_t, out_def)?;
    for b in 0..n {
        for ch in 0..c {
            let mut acc: i64 = 0;
            for mi in 0..mid {
                acc += x[(b * mid + mi) * c + ch] as i64;
            }
            let avg = ((acc + (mid as i64) / 2) / mid as i64) as i32;
            out[b * c + ch] = requantize(avg - zp_in, m, zp_out, 0, 255, requant);
        }
    }
    Ok(())
}
