//! Convolution kernels that walk the kernel window per output cell: the
//! float **reference** `Conv2d` ([`conv2d_f32`] — the oracle every faster
//! float path is compared against), the edge-emulated twins, the
//! channel-vectorized depthwise kernel every native flavor shares, and the
//! quantized kernels with the injected optimized-depthwise defect of §4.4.
//! The optimized and SIMD float `Conv2d` is the im2col + GEMM kernel in
//! [`gemm`](super::gemm). Every window loop here is [`WindowGeom::taps`] or
//! its row form, [`WindowGeom::row_taps`].
//!
//! What makes the reference kernels the oracle is their **sum**, not their
//! loop nest: every output value is one accumulator seeded with the bias
//! that adds its window's products one at a time in `(ky, kx, ic)` order,
//! with an unfused multiply-then-add (Rust never contracts `a + x * w`) and
//! padding taps skipped rather than added as `0 · w`. The sums of different
//! output values share nothing, so which of them advance side by side is
//! free: [`conv2d_f32`] runs eight output-channel chains at a time over
//! weights packed once into panels, [`dwconv_f32_channels`] runs a whole
//! output row's channels tap by tap. The one-accumulator-at-a-time loops
//! they replaced are kept verbatim in this module's tests, which hold both
//! kernels to them bit for bit — under the baseline build and the AVX2 one.

use mlexray_tensor::{QuantParams, Tensor};

use crate::graph::{Node, TensorDef};
use crate::kernels::gemm::Engine;
use crate::kernels::window::{Cell, WindowGeom};
use crate::kernels::{
    act_qbounds, emulated_dot, f32_slot, out_qparams, qparams_of, requantize, u8_slot,
};
use crate::ops::{Activation, Padding};
use crate::resolver::{EdgeNumerics, KernelBugs, KernelFlavor, RequantMode};
use crate::Result;

/// The `(first channel, width)` of each output-channel panel of `out_c`
/// channels: as many 8-wide panels as fit, then 4-wide, then single
/// channels for the ragged tail.
pub(super) fn weight_panels(out_c: usize) -> impl Iterator<Item = (usize, usize)> {
    let mut next = 0;
    std::iter::from_fn(move || {
        let width = match out_c - next {
            0 => return None,
            1..=3 => 1,
            4..=7 => 4,
            _ => 8,
        };
        next += width;
        Some((next - width, width))
    })
}

/// Lays `[out_c, k]` weights — a `Conv2d`'s `[out_c, kh, kw, in_c]`
/// (`k = kh·kw·in_c`), a `FullyConnected`'s `[out, in]` — out as the panel
/// kernels read them: each panel of [`weight_panels`] is `[k][width]`
/// contiguous and the panel of channel `oc0` starts at `oc0 · k`, so
/// `packed` ends up as long as the weights. `packed`'s capacity is reused.
pub(crate) fn pack_weight_panels(weights: &Tensor, packed: &mut Vec<f32>) -> Result<()> {
    let w = weights.as_f32()?;
    let out_c = weights.shape().dims()[0];
    let ksize = w.len() / out_c.max(1);
    packed.clear();
    packed.reserve_exact(w.len());
    for (oc0, width) in weight_panels(out_c) {
        let rows = &w[oc0 * ksize..][..width * ksize];
        for k in 0..ksize {
            packed.extend((0..width).map(|lane| rows[lane * ksize + k]));
        }
    }
    Ok(())
}

/// One output cell of one `W`-channel panel: `W` independent sequential
/// sums, each seeded with its bias and adding its `(ky, kx, ic)` products in
/// order, before the activation. `W` is a const so the chains live in
/// registers.
#[inline(always)]
fn conv2d_panel_chains<const W: usize>(
    g: &WindowGeom,
    cell: &Cell,
    x: &[f32],
    panel: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
) {
    let mut acc = [0.0f32; W];
    if let Some(bias) = bias {
        acc.copy_from_slice(bias);
    }
    for (tap, pixel) in g.taps(cell) {
        let xs = &x[pixel * g.c..][..g.c];
        let ws = &panel[tap * g.c * W..][..g.c * W];
        for (&xv, wv) in xs.iter().zip(ws.chunks_exact(W)) {
            for lane in 0..W {
                acc[lane] += xv * wv[lane];
            }
        }
    }
    out.copy_from_slice(&acc);
}

native_kernel! {
    /// The reference `Conv2d` over `x`: per output cell, per panel, the
    /// panel's chains, then the cell's activation in one pass.
    fn conv2d_panel_cells(
        g: &WindowGeom,
        x: &[f32],
        panels: &[f32],
        out_c: usize,
        bias: Option<&[f32]>,
        activation: Activation,
        out: &mut [f32],
    ) {
        let ksize = g.patch_len();
        for cell in g.cells() {
            let out = &mut out[cell.index * out_c..][..out_c];
            for (oc0, width) in weight_panels(out_c) {
                let panel = &panels[oc0 * ksize..][..width * ksize];
                let bias = bias.map(|b| &b[oc0..oc0 + width]);
                let out = &mut out[oc0..oc0 + width];
                match width {
                    8 => conv2d_panel_chains::<8>(g, &cell, x, panel, bias, out),
                    4 => conv2d_panel_chains::<4>(g, &cell, x, panel, bias, out),
                    _ => conv2d_panel_chains::<1>(g, &cell, x, panel, bias, out),
                }
            }
            activation.apply_in_place(out);
        }
    }
}

/// Reference float 2-D convolution over `panels`, the weights as
/// [`pack_weight_panels`] lays them out (`inputs[1]` is read for its shape
/// only): one sequential accumulator per output value, seeded with the
/// bias, a panel's worth of them advancing side by side, in `engine`'s
/// build.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv2d_f32(
    engine: Engine,
    inputs: &[&Tensor],
    panels: &[f32],
    out_def: &TensorDef,
    stride: usize,
    padding: Padding,
    activation: Activation,
    out_t: &mut Tensor,
) -> Result<()> {
    let (input, weights) = (inputs[0], inputs[1]);
    let bias = inputs.get(2).map(|t| t.as_f32()).transpose()?;
    let ws = weights.shape().dims();
    let (out_c, kh, kw) = (ws[0], ws[1], ws[2]);
    let g = WindowGeom::new(input, out_def, kh, kw, stride, padding);
    let (x, out) = (input.as_f32()?, f32_slot(out_t, out_def)?);
    conv2d_panel_cells(engine, &g, x, panels, out_c, bias, activation, out);
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

/// `acc[ch] += x[ch] · w[ch]` over one pixel's channels: `[f32; 8]`
/// chunks, then the remainder, each an unfused multiply then add.
#[inline(always)]
fn madd_channels(acc: &mut [f32], x: &[f32], w: &[f32]) {
    let (acc8, acc_rest) = acc.as_chunks_mut::<8>();
    let (x8, x_rest) = x.as_chunks::<8>();
    let (w8, w_rest) = w.as_chunks::<8>();
    for ((acc, x), w) in acc8.iter_mut().zip(x8).zip(w8) {
        for l in 0..8 {
            acc[l] += x[l] * w[l];
        }
    }
    for ((acc, x), w) in acc_rest.iter_mut().zip(x_rest).zip(w_rest) {
        *acc += x * w;
    }
}

native_kernel! {
    /// The depthwise convolution of `x` by `w: [kh·kw, c]`, one output row
    /// at a time: seed the row with the bias, then tap by tap in `(ky, kx)`
    /// order add the tap's products onto every cell of the row it lands in
    /// bounds for, then activate the row in one pass.
    fn dwconv_rows(
        g: &WindowGeom,
        x: &[f32],
        w: &[f32],
        bias: Option<&[f32]>,
        activation: Activation,
        out: &mut [f32],
    ) {
        let c = g.c;
        let step = g.stride() * c;
        for row in g.rows() {
            let out = &mut out[row.index * c..][..g.out_width() * c];
            match bias {
                Some(b) => {
                    for ox in 0..g.out_width() {
                        out[ox * c..][..c].copy_from_slice(b);
                    }
                }
                None => out.fill(0.0),
            }
            for (tap, cells, pixel) in g.row_taps(&row) {
                let w = &w[tap * c..][..c];
                let x = &x[pixel * c..];
                for (i, ox) in cells.enumerate() {
                    madd_channels(&mut out[ox * c..][..c], &x[i * step..][..c], w);
                }
            }
            activation.apply_in_place(out);
        }
    }
}

/// Float depthwise convolution of every native flavor, the reference
/// included, in `engine`'s build: output row by output row, taps outer,
/// the row's cells next, contiguous NHWC channels inner — which the
/// compiler vectorizes as vertical multiply + add — while each channel's
/// sum accumulates in its output slot. Every channel is still an
/// independent sequential sum that adds its in-bounds taps in `(ky, kx)`
/// order onto the bias with **unfused** multiply-adds (Rust never contracts
/// `a + x * w` into an FMA), so outputs are the reference bits in every
/// flavor, on every host and in both builds.
pub(crate) fn dwconv_f32_channels(
    engine: Engine,
    inputs: &[&Tensor],
    out_def: &TensorDef,
    stride: usize,
    padding: Padding,
    activation: Activation,
    out_t: &mut Tensor,
) -> Result<()> {
    let (input, weights) = (inputs[0], inputs[1]);
    let bias = inputs.get(2).map(|t| t.as_f32()).transpose()?;
    let ws = weights.shape().dims();
    let g = WindowGeom::new(input, out_def, ws[1], ws[2], stride, padding);
    let out = f32_slot(out_t, out_def)?;
    dwconv_rows(
        engine,
        &g,
        input.as_f32()?,
        weights.as_f32()?,
        bias,
        activation,
        out,
    );
    Ok(())
}

/// Edge-emulated float depthwise convolution: taps gathered per output cell
/// and channel in the reference `(ky, kx)` order, reduced under the
/// emulator's numerics. The faithful configuration is bitwise-identical to
/// [`dwconv_f32_channels`].
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

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::kernels::gemm::SimdEngine;
    use crate::kernels::ACTIVATIONS;
    use crate::ops::conv_out_size;
    use crate::{BackendSpec, GraphBuilder, Interpreter};
    use mlexray_tensor::{DType, Shape};

    /// The reference float `Conv2d` as it ran before the panels: naive loops,
    /// one sequential accumulator per output value, seeded with the bias. Body
    /// verbatim — the oracle [`conv2d_f32`] is held to.
    fn conv2d_f32_naive(
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

    /// The reference float depthwise convolution as it ran before it shared
    /// [`dwconv_f32_channels`]: each channel is an independent sequential sum
    /// over its window in `(ky, kx)` order, seeded with the bias. Body verbatim.
    fn dwconv_f32_naive(
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

    const KERNEL_SIDES: [usize; 5] = [1, 2, 3, 5, 7];
    /// Every mix of 8-, 4- and 1-wide panels, and none of some.
    const OUT_CHANNELS: [usize; 13] = [1, 2, 3, 4, 5, 7, 8, 9, 12, 13, 16, 24, 33];

    /// What a case's values are drawn from.
    #[derive(Clone, Copy)]
    enum Values {
        /// Hundredths in `[-100, 100]` and both zeros.
        Tame,
        /// Also subnormals and finite floats of every exponent, so sums
        /// overflow to `±∞` and cancel to `NaN` on their own.
        Finite,
        /// Also `±∞` and `NaN` operands.
        Any,
    }

    /// xorshift64*; `state` is never zero.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state >> 12;
        *state ^= *state << 25;
        *state ^= *state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn draw(state: &mut u64, values: Values, n: usize) -> Vec<f32> {
        (0..n)
            .map(|_| {
                let r = next(state);
                let bits = (r >> 32) as u32;
                let tame = (bits % 20_001) as f32 / 100.0 - 100.0;
                match (r % 32, values) {
                    (0, _) => 0.0,
                    (1, _) => -0.0,
                    (2, Values::Finite | Values::Any) => f32::from_bits(bits & 0x807f_ffff),
                    (3..=8, Values::Finite | Values::Any) if f32::from_bits(bits).is_finite() => {
                        f32::from_bits(bits)
                    }
                    (9, Values::Any) => f32::INFINITY,
                    (10, Values::Any) => f32::NEG_INFINITY,
                    (11, Values::Any) => f32::NAN,
                    _ => tame,
                }
            })
            .collect()
    }

    /// One kernel call's operands and attributes.
    struct Case {
        input: Tensor,
        weights: Tensor,
        bias: Option<Tensor>,
        out_def: TensorDef,
        stride: usize,
        padding: Padding,
        activation: Activation,
    }

    impl Case {
        /// `weights` is `[out_c, kh, kw, in_c]` (or `[1, kh, kw, c]` with
        /// `depthwise`); `x`, `w` and `bias` fill the operands in order.
        #[allow(clippy::too_many_arguments)]
        fn new(
            input: [usize; 4],
            weights: [usize; 4],
            depthwise: bool,
            stride: usize,
            padding: Padding,
            activation: Activation,
            mut fill: impl FnMut(usize) -> Vec<f32>,
            with_bias: bool,
        ) -> Case {
            let out_c = if depthwise { weights[3] } else { weights[0] };
            let out_shape = Shape::nhwc(
                input[0],
                conv_out_size(input[1], weights[1], stride, padding),
                conv_out_size(input[2], weights[2], stride, padding),
                out_c,
            );
            let tensor = |dims: &[usize], fill: &mut dyn FnMut(usize) -> Vec<f32>| {
                let shape = Shape::new(dims.to_vec());
                let values = fill(shape.num_elements());
                Tensor::from_f32(shape, values).unwrap()
            };
            Case {
                input: tensor(&input, &mut fill),
                weights: tensor(&weights, &mut fill),
                bias: with_bias.then(|| tensor(&[out_c], &mut fill)),
                out_def: TensorDef::Activation {
                    name: "out".into(),
                    shape: out_shape,
                    dtype: DType::F32,
                    quant: None,
                },
                stride,
                padding,
                activation,
            }
        }

        /// The output of `kernel`, called with this case's attributes.
        fn run(
            &self,
            kernel: impl FnOnce(
                &[&Tensor],
                &TensorDef,
                usize,
                Padding,
                Activation,
                &mut Tensor,
            ) -> Result<()>,
        ) -> Vec<f32> {
            let mut operands = vec![&self.input, &self.weights];
            operands.extend(&self.bias);
            let mut out = Tensor::zeros(DType::F32, self.out_def.shape().clone());
            kernel(
                &operands,
                &self.out_def,
                self.stride,
                self.padding,
                self.activation,
                &mut out,
            )
            .unwrap();
            out.as_f32().unwrap().to_vec()
        }

        /// [`conv2d_f32`] over this case's weights packed, in `engine`'s
        /// build.
        fn conv2d_panels(&self, engine: Engine) -> Vec<f32> {
            let mut panels = Vec::new();
            pack_weight_panels(&self.weights, &mut panels).unwrap();
            self.run(|inputs, out_def, stride, padding, activation, out| {
                conv2d_f32(
                    engine, inputs, &panels, out_def, stride, padding, activation, out,
                )
            })
        }

        /// [`dwconv_f32_channels`] in `engine`'s build.
        fn depthwise(&self, engine: Engine) -> Vec<f32> {
            self.run(|inputs, out_def, stride, padding, activation, out| {
                dwconv_f32_channels(engine, inputs, out_def, stride, padding, activation, out)
            })
        }
    }

    /// The baseline build and — where this CPU has it — the AVX2 one.
    fn builds() -> [Engine; 2] {
        [SimdEngine::Scalar, SimdEngine::Avx2Fma].map(Engine::runnable)
    }

    /// Bit for bit, except that two `NaN`s are one value: `fadd` is
    /// commutative to LLVM, so which operand's payload a `NaN + NaN` keeps
    /// was never pinned.
    fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}: output {i} is {g:e} ({:08x}), the naive loop says {w:e} ({:08x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    #[test]
    fn panels_cover_every_channel_once_widest_first() {
        for out_c in 0..=40 {
            let panels: Vec<_> = weight_panels(out_c).collect();
            let mut next = 0;
            for &(oc0, width) in &panels {
                assert_eq!(oc0, next);
                assert!(matches!(width, 8 | 4 | 1));
                next += width;
            }
            assert_eq!(next, out_c);
            assert!(panels.windows(2).all(|p| p[0].1 >= p[1].1));
            assert!(panels.iter().filter(|p| p.1 == 4).count() <= 1);
            assert!(panels.iter().filter(|p| p.1 == 1).count() <= 3);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(360))]

        /// Non-square windows, strides 1–3, SAME and VALID, ragged channel
        /// counts on both sides, stacked batches, every activation, with and
        /// without bias, over all three value classes: the reference
        /// `Conv2d` over its panels, and — same geometry, `in_c` channels —
        /// the depthwise kernel every native flavor now runs, each in both
        /// builds, against the loop the reference flavor ran before.
        #[test]
        fn reference_float_convs_are_the_naive_loops_bitwise(
            kh in 0usize..KERNEL_SIDES.len(),
            kw in 0usize..KERNEL_SIDES.len(),
            extra_h in 0usize..4,
            extra_w in 0usize..4,
            stride in 1usize..=3,
            same in 0u8..2,
            in_c in 1usize..=40,
            out_c in 0usize..OUT_CHANNELS.len(),
            batch in 1usize..=3,
            with_bias in 0u8..2,
            activation in 0usize..ACTIVATIONS.len(),
            values in 0u8..3,
            seed in 1u64..=u64::MAX,
        ) {
            let (kh, kw, out_c) = (KERNEL_SIDES[kh], KERNEL_SIDES[kw], OUT_CHANNELS[out_c]);
            let padding = if same == 1 { Padding::Same } else { Padding::Valid };
            let values = [Values::Tame, Values::Finite, Values::Any][values as usize];
            let mut state = seed;
            let mut case = |weights: [usize; 4], depthwise: bool| Case::new(
                [batch, kh + extra_h, kw + extra_w, in_c],
                weights,
                depthwise,
                stride,
                padding,
                ACTIVATIONS[activation],
                |n| draw(&mut state, values, n),
                with_bias == 1,
            );
            let what = format!(
                "{kh}x{kw}/{stride} {padding:?} {in_c}->{out_c} x{batch} bias={with_bias} {:?} \
                 seed {seed}",
                ACTIVATIONS[activation]
            );
            let conv = case([out_c, kh, kw, in_c], false);
            let depthwise = case([1, kh, kw, in_c], true);
            let (conv_want, depthwise_want) =
                (conv.run(conv2d_f32_naive), depthwise.run(dwconv_f32_naive));
            for engine in builds() {
                let what = format!("{engine:?} {what}");
                assert_same_bits(&conv.conv2d_panels(engine), &conv_want, &what);
                assert_same_bits(
                    &depthwise.depthwise(engine),
                    &depthwise_want,
                    &format!("depthwise {what}"),
                );
            }
        }
    }

    /// A `-0.0` bias under products that are all `-0.0` stays `-0.0`; adding
    /// a padding tap as `0 · w` would add a `+0.0` and flip the border cells
    /// to `+0.0`. Padding taps are skipped.
    #[test]
    fn skipped_padding_keeps_a_negative_zero_sum() {
        for (stride, out_c) in [(1, 13), (2, 13), (1, 8), (3, 5)] {
            let mut operand = 0;
            let case = Case::new(
                [2, 5, 4, 3],
                [out_c, 3, 3, 3],
                false,
                stride,
                Padding::Same,
                Activation::None,
                |n| {
                    operand += 1;
                    // x = -0.0, w > 0 (so every product is -0.0), bias = -0.0.
                    let value = if operand == 2 { 0.75 } else { -0.0 };
                    vec![value; n]
                },
                true,
            );
            for engine in builds() {
                let got = case.conv2d_panels(engine);
                assert!(got.iter().all(|v| v.to_bits() == (-0.0f32).to_bits()));
                assert_same_bits(&got, &case.run(conv2d_f32_naive), "negative zeros");
            }
        }
    }

    /// A weight operand that is a runtime tensor is packed on every invoke,
    /// by the interpreter, through the same pack function and kernel: the
    /// second invoke's other weights must not meet the first's panels.
    #[test]
    fn runtime_weights_are_packed_afresh_on_every_invoke() {
        let (input, weights) = ([1, 5, 6, 3], [13, 3, 3, 3]);
        let mut b = GraphBuilder::new("runtime-weights");
        let x = b.input("x", Shape::new(input.to_vec()));
        let w = b.input("w", Shape::new(weights.to_vec()));
        let y = b
            .conv2d("conv", x, w, None, 2, Padding::Same, Activation::Relu)
            .unwrap();
        b.output(y);
        let graph = b.finish().unwrap();
        let mut interp = Interpreter::new(&graph, BackendSpec::reference()).unwrap();
        assert!(!interp.is_batchable(), "runtime weights cannot stack");

        let mut state = 7;
        let mut outputs = Vec::new();
        for invoke in 0..2 {
            let case = Case::new(
                input,
                weights,
                false,
                2,
                Padding::Same,
                Activation::Relu,
                |n| draw(&mut state, Values::Tame, n),
                false,
            );
            let out = interp
                .invoke(&[case.input.clone(), case.weights.clone()])
                .unwrap();
            let got = out[0].as_f32().unwrap().to_vec();
            assert_same_bits(
                &got,
                &case.run(conv2d_f32_naive),
                &format!("invoke {invoke}"),
            );
            outputs.push(got);
        }
        assert_ne!(outputs[0], outputs[1]);
    }
}
