//! Float fully-connected and matrix-multiplication kernels; the quantized
//! fully-connected layer of every flavor is [`fc_q`](super::gemm::fc_q).
//!
//! Every kernel treats the leading dimension as the batch, so a stacked
//! N-frame invoke runs as one `[N*n, in] x [out, in]^T` GEMM.

use mlexray_tensor::Tensor;

use crate::graph::TensorDef;
use crate::kernels::gemm::Engine;
use crate::kernels::{f32_slot, Chain, Ordered};
use crate::ops::Activation;
use crate::resolver::EdgeNumerics;
use crate::Result;

native_kernel! {
    /// `[batch, in_f] x [out_f, in_f]^T` under `chain`: each output
    /// feature's sum starts at `+0.0`, takes its row's products in walk
    /// order, and adds the bias after, before the activation.
    fn fc_rows<C: Chain>(
        chain: C,
        x: &[f32],
        w: &[f32],
        dims: (usize, usize, usize),
        bias: Option<&[f32]>,
        activation: Activation,
        out: &mut [f32],
    ) {
        let (batch, in_f, out_f) = dims;
        for n in 0..batch {
            let xrow = &x[n * in_f..(n + 1) * in_f];
            for o in 0..out_f {
                let wrow = &w[o * in_f..(o + 1) * in_f];
                let mut acc = chain.seed(0.0);
                for i in Ordered(C::REVERSED, 0..in_f) {
                    acc = chain.step(acc, xrow[i], wrow[i]);
                }
                let bias = bias.map_or(0.0, |b| b[o]);
                out[n * out_f + o] = activation.apply(chain.finish(acc) + bias);
            }
        }
    }
}

/// Reference float fully-connected layer, `[n, in] x [out, in]^T`, in
/// `engine`'s build: one sum per output feature under `numerics`'
/// [`Chain`] (faithful: one sequential accumulator). The optimized and
/// SIMD flavors run [`fc_f32_gemm`](super::gemm::fc_f32_gemm).
pub(crate) fn fc_f32(
    engine: Engine,
    numerics: EdgeNumerics,
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
    let dims = (batch, in_f, out_f);
    with_chain!(numerics, chain => fc_rows(engine, chain, x, w, dims, bias, activation, out));
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

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::kernels::conv::tests::{assert_same_bits, builds, draw, Values};
    use crate::kernels::{emulated_dot, every_chain, ACTIVATIONS};
    use mlexray_tensor::{DType, Shape};

    /// The edge emulator's float fully-connected layer as it ran before the
    /// reference rows took its numerics: each row reduction folded under
    /// [`emulated_dot`]. Body verbatim — the oracle every [`Chain`] of
    /// [`fc_f32`] is held to.
    fn fc_f32_emulated(
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

    /// Runs `kernel` on `[batch, in_f] x [out_f, in_f]^T` operands.
    fn run(
        operands: &[Tensor],
        activation: Activation,
        kernel: impl FnOnce(&[&Tensor], &TensorDef, Activation, &mut Tensor) -> Result<()>,
    ) -> Vec<f32> {
        let shape = Shape::matrix(operands[0].shape().dims()[0], operands[1].shape().dims()[0]);
        let out_def = TensorDef::Activation {
            name: "out".into(),
            shape: shape.clone(),
            dtype: DType::F32,
            quant: None,
        };
        let mut out = Tensor::zeros(DType::F32, shape);
        let inputs: Vec<&Tensor> = operands.iter().collect();
        kernel(&inputs, &out_def, activation, &mut out).unwrap();
        out.as_f32().unwrap().to_vec()
    }

    /// Every [`Chain`] of [`fc_f32`], in both builds, against
    /// [`fc_f32_emulated`] under the same numerics.
    fn assert_every_chain_is_the_gather_loop(
        operands: &[Tensor],
        activation: Activation,
        what: &str,
    ) {
        for numerics in every_chain() {
            let want = run(operands, activation, |inputs, out_def, act, out| {
                fc_f32_emulated(inputs, out_def, act, &numerics, out)
            });
            for engine in builds() {
                let got = run(operands, activation, |inputs, out_def, act, out| {
                    fc_f32(engine, numerics, inputs, out_def, act, out)
                });
                let what = format!(
                    "{:?} fma={} {engine:?} {what}",
                    numerics.accumulation, numerics.fused_multiply_add
                );
                assert_same_bits(&got, &want, &what);
            }
        }
    }

    /// `[batch, in_f]` inputs, `[out_f, in_f]` weights and — `bias` 1 —
    /// a drawn bias or — 2 — a `-0.0` one, drawn from `values`.
    fn operands(
        (batch, in_f, out_f): (usize, usize, usize),
        bias: u8,
        values: Values,
        seed: u64,
    ) -> Vec<Tensor> {
        let mut state = seed;
        let mut tensor = |shape: Shape| {
            let values = draw(&mut state, values, shape.num_elements());
            Tensor::from_f32(shape, values).unwrap()
        };
        let mut operands = vec![
            tensor(Shape::matrix(batch, in_f)),
            tensor(Shape::matrix(out_f, in_f)),
        ];
        match bias {
            1 => operands.push(tensor(Shape::vector(out_f))),
            2 => operands.push(Tensor::from_f32(Shape::vector(out_f), vec![-0.0; out_f]).unwrap()),
            _ => {}
        }
        operands
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Every edge-emulator chain of the reference fully-connected
        /// layer — each `AccumOrder`, split and fused — in both builds,
        /// against the gather loop the emulator ran before: rows of 0–40
        /// inputs (every lane phase of `Lanes8`, and none), 1–33 outputs,
        /// stacked batches, no bias, a drawn bias or a `-0.0` one, every
        /// activation, over all three value classes.
        #[test]
        fn every_chain_is_the_gather_loop_bitwise(
            in_f in 0usize..=40,
            out_f in 1usize..=33,
            batch in 1usize..=3,
            bias in 0u8..3,
            activation in 0usize..ACTIVATIONS.len(),
            values in 0u8..3,
            seed in 1u64..=u64::MAX,
        ) {
            let values = [Values::Tame, Values::Finite, Values::Any][values as usize];
            let operands = operands((batch, in_f, out_f), bias, values, seed);
            let activation = ACTIVATIONS[activation];
            let what = format!("{in_f}->{out_f} x{batch} bias={bias} {activation:?} seed {seed}");
            assert_every_chain_is_the_gather_loop(&operands, activation, &what);
        }
    }

    /// The fully-connected heads of every mini family at 32×32 and of
    /// `mobilenet_v2` at 64×64, width 0.25 (`in_f` inputs, 8 classes, with
    /// bias), under each value class.
    #[test]
    fn zoo_heads_under_every_chain_are_the_gather_loop_bitwise() {
        for in_f in [16, 24, 32, 320] {
            for (i, values) in [Values::Tame, Values::Finite, Values::Any]
                .into_iter()
                .enumerate()
            {
                let operands = operands((1, in_f, 8), 1, values, in_f as u64 + i as u64);
                let what = format!("zoo head {in_f}->8, value class {i}");
                assert_every_chain_is_the_gather_loop(&operands, Activation::None, &what);
            }
        }
    }
}
