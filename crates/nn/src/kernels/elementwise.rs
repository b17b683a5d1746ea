//! Element-wise, normalization, reshape and quantization-boundary kernels.
//! Outputs are laid out batch-major, so stacked batches run natively.

use mlexray_tensor::{affine_quantize_u8, Tensor, TensorData};

use crate::graph::{Node, TensorDef};
use crate::kernels::gemm::Engine;
use crate::kernels::{f32_slot, out_qparams, qparams_of, room, u8_slot};
use crate::ops::Activation;
use crate::Result;

native_kernel! {
    /// `out = activation(a + b)`, `a` walked in `b`-length rows, each row
    /// activated in one pass as soon as it is written.
    fn add_rows(a: &[f32], b: &[f32], activation: Activation, out: &mut [f32]) {
        let blen = b.len().max(1);
        for (out_row, a_row) in out.chunks_mut(blen).zip(a.chunks(blen)) {
            for ((o, &x), &y) in out_row.iter_mut().zip(a_row).zip(b) {
                *o = x + y;
            }
            activation.apply_in_place(out_row);
        }
    }
}

/// Float addition with trailing-suffix broadcast of the rhs, in `engine`'s
/// build: the lhs is walked in rhs-length rows, so the broadcast costs no
/// index arithmetic.
pub(crate) fn add_f32(
    engine: Engine,
    inputs: &[&Tensor],
    out_def: &TensorDef,
    activation: Activation,
    out_t: &mut Tensor,
) -> Result<()> {
    let a = inputs[0].as_f32()?;
    let b = inputs[1].as_f32()?;
    let out = f32_slot(out_t, out_def)?;
    add_rows(engine, a, b, activation, out);
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
        *o = affine_quantize_u8(r, s_out, zp_out);
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

native_kernel! {
    /// `out = a · b` for a scalar `b`, a `b` shaped like `a`, or a
    /// `[n, 1, 1, c]` gate `b` over `a`'s `frame`-long frames of `c`-long
    /// rows — one loop per rhs shape, none of which computes an index per
    /// element.
    fn mul_rows(a: &[f32], b: &[f32], frame: usize, c: usize, out: &mut [f32]) {
        if let [scalar] = *b {
            for (o, &x) in out.iter_mut().zip(a) {
                *o = x * scalar;
            }
        } else if b.len() == a.len() {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = x * y;
            }
        } else {
            let frames = out.chunks_mut(frame).zip(a.chunks(frame));
            for ((out_frame, a_frame), gate) in frames.zip(b.chunks(c)) {
                for (out_row, a_row) in out_frame.chunks_mut(c).zip(a_frame.chunks(c)) {
                    for ((o, &x), &g) in out_row.iter_mut().zip(a_row).zip(gate) {
                        *o = x * g;
                    }
                }
            }
        }
    }
}

/// Float multiplication in `engine`'s build: same shape, scalar, or
/// `[n,1,1,c]` gate against `[n,h,w,c]` (one gate row per frame).
pub(crate) fn mul_f32(
    engine: Engine,
    inputs: &[&Tensor],
    out_def: &TensorDef,
    out_t: &mut Tensor,
) -> Result<()> {
    let a = inputs[0].as_f32()?;
    let b = inputs[1].as_f32()?;
    let (frame, c) = match inputs[0].shape().dims() {
        &[_, h, w, c] => ((h * w * c).max(1), c.max(1)),
        _ => (1, 1),
    };
    let out = f32_slot(out_t, out_def)?;
    mul_rows(engine, a, b, frame, c, out);
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
        *o = affine_quantize_u8(r, s_out, zp_out);
    }
    Ok(())
}

native_kernel! {
    /// `out = act(x)`, in one pass.
    fn act_rows(x: &[f32], act: Activation, out: &mut [f32]) {
        act.apply_into(x, out);
    }
}

/// Standalone float activation, in `engine`'s build.
pub(crate) fn act_f32(
    engine: Engine,
    inputs: &[&Tensor],
    out_def: &TensorDef,
    act: Activation,
    out_t: &mut Tensor,
) -> Result<()> {
    let x = inputs[0].as_f32()?;
    let out = f32_slot(out_t, out_def)?;
    act_rows(engine, x, act, out);
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
    let lut: [u8; 256] = std::array::from_fn(|q| {
        let r = act.apply(s_in * (q as i32 - zp_in) as f32);
        affine_quantize_u8(r, s_out, zp_out)
    });
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
    // The slot, not its definition, carries the stacked batch dimension.
    let out_dims = out_t.shape().dims();
    let outer: usize = out_dims[..axis].iter().product::<usize>().max(1);
    let inner: usize = out_dims[axis + 1..].iter().product::<usize>().max(1);
    let out_axis = out_dims[axis];
    let quantized = inputs[0].dtype() == mlexray_tensor::DType::U8;
    if quantized {
        let (s_out, zp_out) = out_qparams(node, out_def)?;
        let out = u8_slot(out_t, out_def)?;
        let mut axis_off = 0usize;
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
                        out[dst] = affine_quantize_u8(r, s_out, zp_out);
                    }
                }
            }
            axis_off += a;
        }
        Ok(())
    } else {
        let out = f32_slot(out_t, out_def)?;
        let mut axis_off = 0usize;
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

native_kernel! {
    /// `out = γ · (x − μ) / d + β` over `x`'s channel rows, the reference
    /// formula's five operations in their order.
    fn batch_norm_rows(
        x: &[f32],
        gamma: &[f32],
        beta: &[f32],
        mean: &[f32],
        denom: &[f32],
        out: &mut [f32],
    ) {
        let c = gamma.len().max(1);
        for (out_row, x_row) in out.chunks_mut(c).zip(x.chunks(c)) {
            let params = gamma.iter().zip(beta).zip(mean).zip(denom);
            for ((o, &v), (((&g, &b), &m), &d)) in out_row.iter_mut().zip(x_row).zip(params) {
                *o = g * (v - m) / d + b;
            }
        }
    }
}

/// Inference-style batch normalization over the channel (last) axis, in
/// `engine`'s build. The per-channel denominators `sqrt(var + ε)` are
/// computed once per node into `scratch` (grown through [`room`]), then
/// every channel row is normalized with the reference formula's five
/// operations in their order — the division stays a division, so the loop
/// vectorizes without moving a bit.
pub(crate) fn batch_norm_f32(
    engine: Engine,
    inputs: &[&Tensor],
    out_def: &TensorDef,
    epsilon: f32,
    scratch: &mut Vec<f32>,
    out_t: &mut Tensor,
) -> Result<()> {
    let x = inputs[0].as_f32()?;
    let gamma = inputs[1].as_f32()?;
    let beta = inputs[2].as_f32()?;
    let mean = inputs[3].as_f32()?;
    let var = inputs[4].as_f32()?;
    let denom = room(scratch, var.len())?;
    denom.extend(var.iter().map(|v| (v + epsilon).sqrt()));
    let out = f32_slot(out_t, out_def)?;
    batch_norm_rows(engine, x, gamma, beta, mean, denom, out);
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
        *o = affine_quantize_u8(v, scale, zp);
    }
    Ok(())
}

/// The `u8 → f32` dequantization boundary.
pub(crate) fn dequantize(
    inputs: &[&Tensor],
    out_def: &TensorDef,
    out_t: &mut Tensor,
) -> Result<()> {
    inputs[0].dequantize_into(f32_slot(out_t, out_def)?);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::gemm::SimdEngine;
    use crate::kernels::{det_f32, ACTIVATIONS};
    use mlexray_tensor::{DType, Shape};

    /// Every engine's build: the baseline and — where this CPU has it —
    /// the AVX2 one, which an `Avx512` engine runs too.
    fn builds() -> [Engine; 3] {
        SimdEngine::ALL.map(Engine::runnable)
    }

    /// Deterministic values salted with the ones the formulas are touchiest
    /// about: both zeros, subnormals, and the clamp edge of `Relu6`.
    fn values(seed: u64, n: usize) -> Vec<f32> {
        const SPECIAL: [f32; 6] = [0.0, -0.0, 1e-40, -3e-39, 6.0, -1.5e-38];
        let mut values = det_f32(seed, n);
        for (i, v) in values.iter_mut().enumerate().skip(3).step_by(7) {
            *v = SPECIAL[(i / 7 + seed as usize) % SPECIAL.len()];
        }
        values
    }

    fn tensor(dims: &[usize], seed: u64) -> Tensor {
        let shape = Shape::new(dims.to_vec());
        let data = values(seed, shape.num_elements());
        Tensor::from_f32(shape, data).unwrap()
    }

    /// Runs `kernel` into a NaN-poisoned slot shaped like `like` and returns
    /// the output bits.
    fn run(like: &Tensor, kernel: impl FnOnce(&TensorDef, &mut Tensor) -> Result<()>) -> Vec<u32> {
        let def = TensorDef::Activation {
            name: "out".into(),
            shape: like.shape().clone(),
            dtype: DType::F32,
            quant: None,
        };
        let mut out = Tensor::filled_f32(like.shape().clone(), f32::NAN);
        kernel(&def, &mut out).unwrap();
        out.as_f32().unwrap().iter().map(|v| v.to_bits()).collect()
    }

    fn bits(values: impl Iterator<Item = f32>) -> Vec<u32> {
        values.map(f32::to_bits).collect()
    }

    /// Every `[n, h, w, c]` the suite walks: channel counts below, at and
    /// off every vector width, odd spatial sizes, one frame and three.
    fn shapes() -> impl Iterator<Item = [usize; 4]> {
        [1usize, 3, 8, 13, 32]
            .into_iter()
            .flat_map(|c| [1usize, 3].map(|n| [n, 3, 5, c]))
    }

    /// The per-element formula `batch_norm_f32` replaced: channel by `%`, a
    /// square root and a division for every element.
    #[test]
    fn batch_norm_matches_the_per_element_formula() {
        for dims in shapes() {
            let c = dims[3];
            let x = tensor(&dims, 1);
            let [gamma, beta, mean] = [2, 3, 4].map(|seed| tensor(&[c], seed));
            // Variances are non-negative; channel 0 has none at all.
            let mut var: Vec<f32> = values(5, c).iter().map(|v| v.abs()).collect();
            var[0] = 0.0;
            let var = Tensor::from_f32(Shape::vector(c), var).unwrap();
            let epsilon = 1e-3;
            let mut scratch = Vec::with_capacity(c);
            let [g, b, m, v] = [&gamma, &beta, &mean, &var].map(|t| t.as_f32().unwrap());
            let want = bits(x.as_f32().unwrap().iter().enumerate().map(|(i, &x)| {
                let ch = i % c;
                g[ch] * (x - m[ch]) / (v[ch] + epsilon).sqrt() + b[ch]
            }));
            for engine in builds() {
                let got = run(&x, |def, out| {
                    batch_norm_f32(
                        engine,
                        &[&x, &gamma, &beta, &mean, &var],
                        def,
                        epsilon,
                        &mut scratch,
                        out,
                    )
                });
                assert_eq!(got, want, "{engine:?} BatchNorm over {dims:?}");
            }
        }
    }

    /// `add_f32` against `b[i % blen]`, for a channel-vector rhs, a
    /// frame-shaped rhs and a same-shape rhs, under every activation in
    /// both builds.
    #[test]
    fn broadcast_add_matches_the_per_element_formula() {
        for dims in shapes() {
            let a = tensor(&dims, 6);
            for rhs in [&dims[3..], &dims[1..], &dims[..]] {
                let b = tensor(rhs, 7);
                for (activation, engine) in ACTIVATIONS
                    .into_iter()
                    .flat_map(|act| builds().map(|engine| (act, engine)))
                {
                    let got = run(&a, |def, out| {
                        add_f32(engine, &[&a, &b], def, activation, out)
                    });
                    let (av, bv) = (a.as_f32().unwrap(), b.as_f32().unwrap());
                    let want = av
                        .iter()
                        .enumerate()
                        .map(|(i, &x)| activation.apply(x + bv[i % bv.len()]));
                    assert_eq!(
                        got,
                        bits(want),
                        "{engine:?} {activation:?} Add of {rhs:?} onto {dims:?}"
                    );
                }
            }
        }
    }

    /// `mul_f32`'s three loops against `mul_rhs_index`, the per-element index
    /// (two divisions) they replaced and `mul_q` still uses, in both builds.
    #[test]
    fn mul_matches_the_per_element_index_in_all_three_shapes() {
        for dims in shapes() {
            let a = tensor(&dims, 8);
            let gate = [dims[0], 1, 1, dims[3]];
            for rhs in [&[1usize][..], &dims[..], &gate[..]] {
                let b = tensor(rhs, 9);
                let (av, bv) = (a.as_f32().unwrap(), b.as_f32().unwrap());
                let want = av
                    .iter()
                    .enumerate()
                    .map(|(i, &x)| x * bv[mul_rhs_index(&a, &b, i)]);
                let want = bits(want);
                for engine in builds() {
                    let got = run(&a, |def, out| mul_f32(engine, &[&a, &b], def, out));
                    assert_eq!(got, want, "{engine:?} Mul of {rhs:?} onto {dims:?}");
                }
            }
        }
    }

    /// `act_f32` against [`Activation::apply`] per element, for every
    /// activation in both builds.
    #[test]
    fn act_matches_the_per_element_formula() {
        for dims in shapes() {
            let x = tensor(&dims, 10);
            for activation in ACTIVATIONS {
                let want = bits(x.as_f32().unwrap().iter().map(|&v| activation.apply(v)));
                for engine in builds() {
                    let got = run(&x, |def, out| act_f32(engine, &[&x], def, activation, out));
                    assert_eq!(got, want, "{engine:?} {activation:?} over {dims:?}");
                }
            }
        }
    }
}
