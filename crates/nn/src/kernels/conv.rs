//! Convolution kernels that walk the kernel window per output cell: the
//! float **reference** kernels ([`conv2d_f32`], [`dwconv_f32`] — the oracle
//! every faster float path is compared against), their edge-emulated twins,
//! the channel-vectorized depthwise kernel the optimized and SIMD flavors
//! share, and the quantized kernels with the injected optimized-depthwise
//! defect of §4.4. The optimized and SIMD float `Conv2d` is the im2col +
//! GEMM kernel in [`gemm`](super::gemm). Every window loop here is
//! [`WindowGeom::taps`].

use mlexray_tensor::{QuantParams, Tensor};

use crate::graph::{Node, TensorDef};
use crate::kernels::window::WindowGeom;
use crate::kernels::{
    act_qbounds, emulated_dot, f32_slot, out_qparams, qparams_of, requantize, u8_slot,
};
use crate::ops::{Activation, Padding};
use crate::resolver::{EdgeNumerics, KernelBugs, KernelFlavor, RequantMode};
use crate::Result;

/// Reference float 2-D convolution: naive loops, one sequential accumulator
/// per output value, seeded with the bias.
pub(crate) fn conv2d_f32(
    inputs: &[&Tensor],
    out_def: &TensorDef,
    stride: usize,
    padding: Padding,
    activation: Activation,
    out_t: &mut Tensor,
) -> Result<()> {
    let (input, weights) = (inputs[0], inputs[1]);
    let bias = inputs.get(2).map(|t| t.as_f32()).transpose()?;
    let x = input.as_f32()?;
    let w = weights.as_f32()?;
    let ws = weights.shape().dims();
    let (out_c, kh, kw) = (ws[0], ws[1], ws[2]);
    let g = WindowGeom::new(input, out_def, kh, kw, stride, padding);
    let out = f32_slot(out_t, out_def)?;
    let ksize = g.patch_len();

    for cell in g.cells() {
        for oc in 0..out_c {
            let mut acc = bias.map_or(0.0, |b| b[oc]);
            for (tap, pixel) in g.taps(&cell) {
                let xs = &x[pixel * g.c..][..g.c];
                let ws = &w[oc * ksize + tap * g.c..][..g.c];
                for ic in 0..g.c {
                    acc += xs[ic] * ws[ic];
                }
            }
            out[cell.index * out_c + oc] = activation.apply(acc);
        }
    }
    Ok(())
}

/// Edge-emulated float convolution: per-cell tap gathering (reference loop
/// structure, so any batch size runs natively) with the reduction folded
/// under the emulator's numerics — accumulation order, multiply-add
/// contraction. Taps are gathered in the reference kernel's `(ky, kx, ic)`
/// order, so the faithful configuration is bitwise-identical to
/// [`conv2d_f32`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv2d_f32_emulated(
    inputs: &[&Tensor],
    out_def: &TensorDef,
    stride: usize,
    padding: Padding,
    activation: Activation,
    numerics: &EdgeNumerics,
    scratch: &mut Vec<f32>,
    out_t: &mut Tensor,
) -> Result<()> {
    let (input, weights) = (inputs[0], inputs[1]);
    let bias = inputs.get(2).map(|t| t.as_f32()).transpose()?;
    let x = input.as_f32()?;
    let w = weights.as_f32()?;
    let ws = weights.shape().dims();
    let (out_c, kh, kw) = (ws[0], ws[1], ws[2]);
    let g = WindowGeom::new(input, out_def, kh, kw, stride, padding);
    let out = f32_slot(out_t, out_def)?;
    let ksize = g.patch_len();
    // Weight offsets of the gathered taps, relative to an output channel's
    // weight row (the validity pattern is shared across output channels).
    let mut offsets: Vec<usize> = Vec::with_capacity(ksize);

    for cell in g.cells() {
        scratch.clear();
        offsets.clear();
        for (tap, pixel) in g.taps(&cell) {
            scratch.extend_from_slice(&x[pixel * g.c..][..g.c]);
            offsets.extend(tap * g.c..(tap + 1) * g.c);
        }
        for oc in 0..out_c {
            let wrow = &w[oc * ksize..][..ksize];
            let acc = emulated_dot(
                bias.map_or(0.0, |b| b[oc]),
                scratch.len(),
                |i| (scratch[i], wrow[offsets[i]]),
                numerics,
            );
            out[cell.index * out_c + oc] = activation.apply(acc);
        }
    }
    Ok(())
}

/// Reference float depthwise 2-D convolution: each channel is an
/// independent sequential sum over its window in `(ky, kx)` order, seeded
/// with the bias.
pub(crate) fn dwconv_f32(
    inputs: &[&Tensor],
    out_def: &TensorDef,
    stride: usize,
    padding: Padding,
    activation: Activation,
    out_t: &mut Tensor,
) -> Result<()> {
    let (input, weights) = (inputs[0], inputs[1]);
    let bias = inputs.get(2).map(|t| t.as_f32()).transpose()?;
    let x = input.as_f32()?;
    let w = weights.as_f32()?;
    let ws = weights.shape().dims();
    let (kh, kw, c) = (ws[1], ws[2], ws[3]);
    let g = WindowGeom::new(input, out_def, kh, kw, stride, padding);
    let out = f32_slot(out_t, out_def)?;

    for cell in g.cells() {
        let taps = g.taps(&cell);
        for ch in 0..c {
            let mut acc = bias.map_or(0.0, |b| b[ch]);
            for (tap, pixel) in taps.clone() {
                acc += x[pixel * c + ch] * w[tap * c + ch];
            }
            out[cell.index * c + ch] = activation.apply(acc);
        }
    }
    Ok(())
}

/// Optimized and SIMD float depthwise convolution: taps outer, channels
/// inner, so the inner loop runs over contiguous NHWC channels — which the
/// compiler vectorizes as vertical multiply + add — while each channel's sum
/// accumulates in its output slot. Every channel still adds its taps in
/// `(ky, kx)` order onto the bias with **unfused** multiply-adds (Rust never
/// contracts `a + x * w` into an FMA), so outputs are bitwise-identical to
/// [`dwconv_f32`] in every flavor and on every host.
pub(crate) fn dwconv_f32_channels(
    inputs: &[&Tensor],
    out_def: &TensorDef,
    stride: usize,
    padding: Padding,
    activation: Activation,
    out_t: &mut Tensor,
) -> Result<()> {
    let (input, weights) = (inputs[0], inputs[1]);
    let bias = inputs.get(2).map(|t| t.as_f32()).transpose()?;
    let x = input.as_f32()?;
    let w = weights.as_f32()?;
    let ws = weights.shape().dims();
    let (kh, kw, c) = (ws[1], ws[2], ws[3]);
    let g = WindowGeom::new(input, out_def, kh, kw, stride, padding);
    let out = f32_slot(out_t, out_def)?;

    for cell in g.cells() {
        let acc = &mut out[cell.index * c..][..c];
        match bias {
            Some(b) => acc.copy_from_slice(b),
            None => acc.fill(0.0),
        }
        for (tap, pixel) in g.taps(&cell) {
            let (xs, ws) = (&x[pixel * c..][..c], &w[tap * c..][..c]);
            for ch in 0..c {
                acc[ch] += xs[ch] * ws[ch];
            }
        }
        for v in acc {
            *v = activation.apply(*v);
        }
    }
    Ok(())
}

/// Edge-emulated float depthwise convolution: taps gathered per output cell
/// and channel in the reference `(ky, kx)` order, reduced under the
/// emulator's numerics. The faithful configuration is bitwise-identical to
/// [`dwconv_f32`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn dwconv_f32_emulated(
    inputs: &[&Tensor],
    out_def: &TensorDef,
    stride: usize,
    padding: Padding,
    activation: Activation,
    numerics: &EdgeNumerics,
    scratch: &mut Vec<f32>,
    out_t: &mut Tensor,
) -> Result<()> {
    let (input, weights) = (inputs[0], inputs[1]);
    let bias = inputs.get(2).map(|t| t.as_f32()).transpose()?;
    let x = input.as_f32()?;
    let w = weights.as_f32()?;
    let ws = weights.shape().dims();
    let (kh, kw, c) = (ws[1], ws[2], ws[3]);
    let g = WindowGeom::new(input, out_def, kh, kw, stride, padding);
    let out = f32_slot(out_t, out_def)?;

    for cell in g.cells() {
        for ch in 0..c {
            // Interleaved (value, weight) tap pairs.
            scratch.clear();
            for (tap, pixel) in g.taps(&cell) {
                scratch.extend([x[pixel * c + ch], w[tap * c + ch]]);
            }
            let acc = emulated_dot(
                bias.map_or(0.0, |b| b[ch]),
                scratch.len() / 2,
                |i| (scratch[2 * i], scratch[2 * i + 1]),
                numerics,
            );
            out[cell.index * c + ch] = activation.apply(acc);
        }
    }
    Ok(())
}

pub(super) fn weight_scale(q: &QuantParams, c: usize) -> f32 {
    q.for_channel(c).0
}

/// Quantized 2-D convolution (both scalar flavors compute identical i32
/// math; padding taps are skipped, which equals adding `(zp - zp) * w`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv2d_q(
    node: &Node,
    inputs: &[&Tensor],
    out_def: &TensorDef,
    stride: usize,
    padding: Padding,
    activation: Activation,
    requant: RequantMode,
    out_t: &mut Tensor,
) -> Result<()> {
    let (input, weights) = (inputs[0], inputs[1]);
    let bias = inputs.get(2).map(|t| t.as_i32()).transpose()?;
    let (s_in, zp_in) = qparams_of(node, input)?;
    let (s_out, zp_out) = out_qparams(node, out_def)?;
    let wq = weights.quant().cloned().unwrap_or(QuantParams::PerTensor {
        scale: 1.0,
        zero_point: 0,
    });
    let x = input.as_u8()?;
    let w = weights.as_i8()?;
    let ws = weights.shape().dims();
    let (out_c, kh, kw) = (ws[0], ws[1], ws[2]);
    let g = WindowGeom::new(input, out_def, kh, kw, stride, padding);
    let (qlo, qhi) = act_qbounds(activation, s_out, zp_out);
    let out = u8_slot(out_t, out_def)?;
    let ksize = g.patch_len();

    for cell in g.cells() {
        for oc in 0..out_c {
            let mut acc: i32 = bias.map_or(0, |b| b[oc]);
            for (tap, pixel) in g.taps(&cell) {
                let xs = &x[pixel * g.c..][..g.c];
                let ws = &w[oc * ksize + tap * g.c..][..g.c];
                for ic in 0..g.c {
                    acc += (xs[ic] as i32 - zp_in) * ws[ic] as i32;
                }
            }
            let m = (s_in as f64) * (weight_scale(&wq, oc) as f64) / (s_out as f64);
            out[cell.index * out_c + oc] = requantize(acc, m, zp_out, qlo, qhi, requant);
        }
    }
    Ok(())
}

/// Quantized depthwise convolution. The optimized flavor carries the
/// injectable i16-accumulator defect (§4.4): products are accumulated into a
/// wrapping 16-bit register, overflowing on realistic activations.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dwconv_q(
    node: &Node,
    inputs: &[&Tensor],
    out_def: &TensorDef,
    stride: usize,
    padding: Padding,
    activation: Activation,
    flavor: KernelFlavor,
    bugs: &KernelBugs,
    requant: RequantMode,
    out_t: &mut Tensor,
) -> Result<()> {
    let (input, weights) = (inputs[0], inputs[1]);
    let bias = inputs.get(2).map(|t| t.as_i32()).transpose()?;
    let (s_in, zp_in) = qparams_of(node, input)?;
    let (s_out, zp_out) = out_qparams(node, out_def)?;
    let wq = weights.quant().cloned().unwrap_or(QuantParams::PerTensor {
        scale: 1.0,
        zero_point: 0,
    });
    let x = input.as_u8()?;
    let w = weights.as_i8()?;
    let ws = weights.shape().dims();
    let (kh, kw, c) = (ws[1], ws[2], ws[3]);
    let g = WindowGeom::new(input, out_def, kh, kw, stride, padding);
    let (qlo, qhi) = act_qbounds(activation, s_out, zp_out);
    let buggy = flavor == KernelFlavor::Optimized && bugs.optimized_dwconv_i16_accumulator;
    let out = u8_slot(out_t, out_def)?;

    for cell in g.cells() {
        for ch in 0..c {
            let mut acc: i32 = 0;
            let mut acc16: i16 = 0;
            for (tap, pixel) in g.taps(&cell) {
                let prod = (x[pixel * c + ch] as i32 - zp_in) * w[tap * c + ch] as i32;
                if buggy {
                    // Injected defect: the optimized kernel pre-scales
                    // products into the Q13 domain of its 16-bit SIMD lane
                    // and accumulates with wrapping arithmetic...
                    acc16 = acc16.wrapping_add((prod << 2) as i16);
                } else {
                    acc += prod;
                }
            }
            if buggy {
                // ...and forgets to scale back down before the bias.
                acc = acc16 as i32 >> 2;
            }
            let total = acc + bias.map_or(0, |b| b[ch]);
            let m = (s_in as f64) * (weight_scale(&wq, ch) as f64) / (s_out as f64);
            out[cell.index * c + ch] = requantize(total, m, zp_out, qlo, qhi, requant);
        }
    }
    Ok(())
}
