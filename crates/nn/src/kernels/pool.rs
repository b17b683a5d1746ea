//! Pooling and reduction kernels, including the injectable quantized
//! AveragePool2D defect of §4.4. All loops are batch-outer, so stacked
//! batches run natively.

use mlexray_tensor::Tensor;

use crate::graph::{Node, TensorDef};
use crate::kernels::gemm::Engine;
use crate::kernels::window::WindowGeom;
use crate::kernels::{f32_slot, out_qparams, qparams_of, requantize, u8_slot};
use crate::ops::Padding;
use crate::resolver::RequantMode;
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

/// Float global reduce-mean: `[n, ..., c] → [n, c]`. Each frame's output
/// row starts at `0.0` and adds the frame's channel rows in order, one
/// whole row at a time, then every channel divides by the row count: each
/// channel's sum is its own sequential one, so the row-at-a-time walk
/// changes which sums advance together, not a bit.
pub(crate) fn mean_f32(
    engine: Engine,
    inputs: &[&Tensor],
    out_def: &TensorDef,
    out_t: &mut Tensor,
) -> Result<()> {
    let x = inputs[0].as_f32()?;
    let dims = inputs[0].shape().dims();
    let c = dims[dims.len() - 1];
    let mid: usize = dims[1..dims.len() - 1].iter().product::<usize>().max(1);
    let out = f32_slot(out_t, out_def)?;
    mean_rows(engine, x, c, mid, out);
    Ok(())
}

native_kernel! {
    /// `out[b] = (Σ_m x[b, m]) / mid` over `[n, mid, c]` rows, channel by
    /// channel: [`mean_f32`]'s loop.
    fn mean_rows(x: &[f32], c: usize, mid: usize, out: &mut [f32]) {
        if c == 0 {
            return;
        }
        for (sums, frame) in out.chunks_exact_mut(c).zip(x.chunks_exact(mid * c)) {
            sums.fill(0.0);
            for row in frame.chunks_exact(c) {
                for (sum, &v) in sums.iter_mut().zip(row) {
                    *sum += v;
                }
            }
            for sum in sums {
                *sum /= mid as f32;
            }
        }
    }
}

/// Quantized average pooling. `double_division` injects the defect of
/// `KernelBugs::avgpool_double_division` (every flavor — it is an op-spec
/// defect): windows of area ≥ 16 divide the accumulator by the area twice,
/// collapsing outputs toward quantized zero: the constant-output failure
/// that zeroes MobileNet v3 in Fig. 5.
#[allow(clippy::too_many_arguments)]
pub(crate) fn avgpool_q(
    node: &Node,
    inputs: &[&Tensor],
    out_def: &TensorDef,
    pool_h: usize,
    pool_w: usize,
    stride: usize,
    padding: Padding,
    double_division: bool,
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
    let buggy = double_division && pool_h * pool_w >= 16;
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

#[cfg(test)]
mod tests {
    use mlexray_tensor::{DType, Shape};

    use super::*;
    use crate::kernels::det_f32;
    use crate::kernels::gemm::SimdEngine;

    /// The float global mean before it added whole channel rows: an
    /// indexed `+=` per element into a zeroed output, then a division per
    /// channel. Body verbatim — the oracle [`mean_f32`] is held to.
    fn mean_per_element(inputs: &[&Tensor], out_def: &TensorDef, out_t: &mut Tensor) -> Result<()> {
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

    /// Rank-2 inputs (`mid = 1`) and spatial ones, channel counts on and
    /// off the vector widths, batches 1–3, over stale output slots: the
    /// row-at-a-time mean in both builds against the per-element loop, bit
    /// for bit (every NaN one pattern). Specials are planted so that
    /// channels sum to `−0.0`, to `±∞`, to NaN from `∞ − ∞`, and carry a
    /// NaN from one input.
    #[test]
    fn mean_rows_are_the_per_element_loop_bitwise() {
        let specials = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        for batch in 1..=3usize {
            for spatial in [&[][..], &[1, 1][..], &[1, 3][..], &[2, 2][..], &[3, 5][..]] {
                for c in [1usize, 3, 7, 8, 9, 13, 17] {
                    let mut dims = vec![batch];
                    dims.extend_from_slice(spatial);
                    dims.push(c);
                    let shape = Shape::new(dims.clone());
                    let mut values = det_f32((batch * 100 + c) as u64, shape.num_elements());
                    let per_frame = shape.num_elements() / batch;
                    for (i, v) in values.iter_mut().enumerate() {
                        let (ch, frame) = (i % c, i / per_frame);
                        match (ch + frame) % 4 {
                            // A channel of `−0.0`s: from the `+0.0` seed
                            // it sums to `+0.0`, from a `−0.0` one to
                            // `−0.0`.
                            0 => *v = -0.0,
                            1 if i % 3 == 0 => *v = specials[(i / 3) % specials.len()],
                            _ => {}
                        }
                    }
                    let input = Tensor::from_f32(shape, values).unwrap();
                    let out_def = TensorDef::Activation {
                        name: "mean".into(),
                        shape: Shape::matrix(1, c),
                        dtype: DType::F32,
                        quant: None,
                    };
                    let fresh = || Tensor::filled_f32(Shape::matrix(batch, c), 7.5);
                    let mut want = fresh();
                    mean_per_element(&[&input], &out_def, &mut want).unwrap();
                    let bits = |t: &Tensor| -> Vec<u32> {
                        let v = t.as_f32().unwrap();
                        v.iter()
                            .map(|v| if v.is_nan() { u32::MAX } else { v.to_bits() })
                            .collect()
                    };
                    for engine in SimdEngine::ALL {
                        let mut got = fresh();
                        mean_f32(Engine::runnable(engine), &[&input], &out_def, &mut got).unwrap();
                        assert_eq!(bits(&got), bits(&want), "{engine:?} {dims:?}");
                    }
                }
            }
        }
    }
}
