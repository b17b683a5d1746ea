//! Post-training full-integer quantization (§2, Eqns. 1–2): calibration over
//! a representative dataset, symmetric i8 weights (per-channel or
//! per-tensor), asymmetric u8 activations, i32 biases.

use std::collections::HashMap;

use mlexray_tensor::{DType, MinMaxObserver, QuantParams, Shape, Tensor};

use crate::backend::BackendSpec;
use crate::graph::{Graph, GraphBuilder, TensorId};
use crate::interpreter::Interpreter;
use crate::model::{Model, ModelVariant};
use crate::ops::OpKind;
use crate::{NnError, Result};

/// Per-tensor value ranges observed while replaying a representative dataset
/// through the float model.
#[derive(Debug, Clone, Default)]
pub struct Calibration {
    ranges: Vec<MinMaxObserver>,
    samples: usize,
}

impl Calibration {
    /// Number of calibration samples replayed.
    pub fn sample_count(&self) -> usize {
        self.samples
    }

    /// Observed range of a tensor slot.
    pub fn range(&self, id: TensorId) -> Option<(f32, f32)> {
        self.ranges.get(id.0).and_then(MinMaxObserver::range)
    }

    fn u8_params(&self, id: TensorId) -> Result<QuantParams> {
        let (min, max) = self.range(id).ok_or_else(|| {
            NnError::Quantization(format!("tensor {} was never calibrated", id.0))
        })?;
        Ok(QuantParams::from_min_max_u8(min, max))
    }
}

/// Replays `samples` through the float graph, recording the min/max of every
/// activation — the scale-calibration step whose dataset-quality pitfalls §2
/// describes (outliers inflate scales; tiny datasets clip real values).
///
/// # Errors
///
/// Propagates interpreter errors; requires at least one sample.
pub fn calibrate<'a>(
    graph: &Graph,
    samples: impl IntoIterator<Item = &'a [Tensor]>,
) -> Result<Calibration> {
    // Every activation is read after its invoke: each keeps its own buffer.
    let mut interp = Interpreter::preserving(graph, BackendSpec::optimized())?;
    let mut ranges = vec![MinMaxObserver::new(); graph.tensors().len()];
    let mut count = 0usize;
    for sample in samples {
        for (&id, t) in graph.inputs().iter().zip(sample) {
            if t.dtype() == DType::F32 {
                ranges[id.0].observe(t.as_f32()?);
            }
        }
        interp.invoke(sample)?;
        for node in graph.nodes() {
            if let Some(v) = interp.tensor_value(node.output) {
                if v.dtype() == DType::F32 {
                    ranges[node.output.0].observe(v.as_f32()?);
                }
            }
        }
        count += 1;
    }
    if count == 0 {
        return Err(NnError::Quantization(
            "calibration requires at least one sample".into(),
        ));
    }
    Ok(Calibration {
        ranges,
        samples: count,
    })
}

/// Options controlling weight quantization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantizationOptions {
    /// Per-channel symmetric weight scales (TFLite default for conv). §2:
    /// per-tensor scales can squash whole channels to zero after batch-norm
    /// folding; both modes are implemented so the ablation can show it.
    pub per_channel_weights: bool,
}

impl Default for QuantizationOptions {
    fn default() -> Self {
        QuantizationOptions {
            per_channel_weights: true,
        }
    }
}

/// Per-channel `(min, max)` ranges of a weight tensor along `axis`.
fn channel_ranges(t: &Tensor, axis: usize) -> Result<Vec<(f32, f32)>> {
    let data = t.as_f32()?;
    let dims = t.shape().dims();
    let stride: usize = dims[axis + 1..].iter().product::<usize>().max(1);
    let n = dims[axis];
    let mut ranges = vec![(f32::INFINITY, f32::NEG_INFINITY); n];
    for (i, &v) in data.iter().enumerate() {
        let c = (i / stride) % n;
        ranges[c].0 = ranges[c].0.min(v);
        ranges[c].1 = ranges[c].1.max(v);
    }
    Ok(ranges)
}

fn weight_axis(op: &OpKind) -> usize {
    match op {
        OpKind::DepthwiseConv2d { .. } => 3,
        _ => 0,
    }
}

/// Quantizes a weight constant symmetrically to i8.
fn quantize_weights(t: &Tensor, axis: usize, per_channel: bool) -> Result<Tensor> {
    let params = if per_channel {
        QuantParams::symmetric_i8_per_channel(&channel_ranges(t, axis)?, axis)?
    } else {
        let data = t.as_f32()?;
        let (mut lo, mut hi) = (0.0f32, 0.0f32);
        for &v in data {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        QuantParams::symmetric_i8(lo, hi)
    };
    Ok(t.quantize_to_i8(&params)?)
}

/// Quantizes a float bias vector to i32 with per-channel scale `s_in * s_w_c`.
fn quantize_bias(bias: &Tensor, s_in: f32, wq: &QuantParams) -> Result<Tensor> {
    let data = bias.as_f32()?;
    let q: Vec<i32> = data
        .iter()
        .enumerate()
        .map(|(c, &v)| {
            let s = s_in * wq.for_channel(c).0;
            (v / s).round() as i32
        })
        .collect();
    Ok(Tensor::from_i32(Shape::vector(q.len()), q, None)?)
}

fn scalar_params(q: &QuantParams) -> (f32, i32) {
    q.scalar()
}

/// Converts a calibrated float model into a fully-integer-quantized model:
/// `Quantize` boundary at each input, u8 activations with calibrated ranges,
/// symmetric i8 weights, i32 biases, and a `Dequantize` boundary before
/// softmax and at every quantized output.
///
/// # Errors
///
/// Returns [`NnError::Quantization`] for uncalibrated tensors or ops with no
/// quantized kernel (batch-norm must be folded by conversion first), and
/// [`NnError::InvalidOp`] for a node whose quantized operands break its
/// op's contract (every output is derived by the same rule the lint checks).
///
/// # Example
///
/// ```no_run
/// use mlexray_nn::{calibrate, quantize_model, Model, QuantizationOptions};
/// use mlexray_tensor::Tensor;
/// # fn get_mobile() -> Model { unimplemented!() }
/// # fn rep_dataset() -> Vec<Vec<Tensor>> { unimplemented!() }
/// let mobile = get_mobile();
/// let samples = rep_dataset();
/// let calib = calibrate(&mobile.graph, samples.iter().map(Vec::as_slice))?;
/// let quant = quantize_model(&mobile, &calib, QuantizationOptions::default())?;
/// # Ok::<(), mlexray_nn::NnError>(())
/// ```
pub fn quantize_model(
    model: &Model,
    calib: &Calibration,
    options: QuantizationOptions,
) -> Result<Model> {
    let graph = &model.graph;
    let mut b = GraphBuilder::new(format!("{}_int8", graph.name()));
    // Old tensor id -> new tensor id (activations and inputs).
    let mut map: HashMap<usize, TensorId> = HashMap::new();
    // Quant params assigned to mapped (u8) tensors.
    let mut qparams: HashMap<usize, QuantParams> = HashMap::new();

    for &in_id in graph.inputs() {
        let def = graph.tensor(in_id);
        if def.dtype() != DType::F32 {
            return Err(NnError::Quantization(format!(
                "input '{}' is not float; only float graphs can be quantized",
                def.name()
            )));
        }
        let f = b.input(def.name().to_string(), def.shape().clone());
        let params = calib.u8_params(in_id)?;
        let q = b.push_op(
            format!("{}_quantize", def.name()),
            OpKind::Quantize,
            vec![f],
            Some(params.clone()),
        )?;
        map.insert(in_id.0, q);
        qparams.insert(q.0, params);
    }

    let mapped = |map: &HashMap<usize, TensorId>, id: TensorId| -> Result<TensorId> {
        map.get(&id.0).copied().ok_or_else(|| {
            NnError::Quantization(format!("tensor {} has no quantized mapping", id.0))
        })
    };

    // Every supported op but softmax runs its quantized kernel: the same op
    // over mapped (u8) inputs, with the calibrated output parameters.
    for node in graph.nodes() {
        let inputs = match &node.op {
            OpKind::Conv2d { .. }
            | OpKind::DepthwiseConv2d { .. }
            | OpKind::FullyConnected { .. } => {
                let x = mapped(&map, node.inputs[0])?;
                let w_const = graph
                    .tensor(node.inputs[1])
                    .as_constant()
                    .ok_or_else(|| NnError::Quantization("weights must be constant".into()))?;
                let axis = weight_axis(&node.op);
                let wq = quantize_weights(w_const, axis, options.per_channel_weights)?;
                let wq_params = wq.quant().cloned().expect("quantized weights carry params");
                let w = b.constant(format!("{}:wq", node.name), wq);
                let mut inputs = vec![x, w];
                if let Some(&b_id) = node.inputs.get(2) {
                    let bias_const = graph
                        .tensor(b_id)
                        .as_constant()
                        .ok_or_else(|| NnError::Quantization("bias must be constant".into()))?;
                    let (s_in, _) = scalar_params(
                        qparams
                            .get(&x.0)
                            .ok_or_else(|| NnError::Quantization("input params missing".into()))?,
                    );
                    let bq = quantize_bias(bias_const, s_in, &wq_params)?;
                    inputs.push(b.constant(format!("{}:bq", node.name), bq));
                }
                inputs
            }
            OpKind::Softmax => {
                // Softmax has no quantized kernel: dequantize, then run it in
                // float.
                let x = mapped(&map, node.inputs[0])?;
                let dq_name = format!("{}_dequantize", node.name);
                let d = b.push_op(dq_name, OpKind::Dequantize, vec![x], None)?;
                let s = b.push_op(node.name.clone(), OpKind::Softmax, vec![d], None)?;
                map.insert(node.output.0, s);
                continue;
            }
            OpKind::AveragePool2d { .. }
            | OpKind::MaxPool2d { .. }
            | OpKind::Mean
            | OpKind::Pad { .. }
            | OpKind::Reshape { .. }
            | OpKind::Act(_) => vec![mapped(&map, node.inputs[0])?],
            OpKind::Add { .. } | OpKind::Mul => {
                let x = mapped(&map, node.inputs[0])?;
                // The rhs may be an activation or a (rare) float constant
                // such as an attention scale; constants are quantized inline.
                let y = match map.get(&node.inputs[1].0) {
                    Some(&id) => id,
                    None => {
                        let c = graph
                            .tensor(node.inputs[1])
                            .as_constant()
                            .ok_or_else(|| NnError::Quantization("rhs missing mapping".into()))?;
                        let data = c.as_f32()?;
                        let (mut lo, mut hi) = (0.0f32, 0.0f32);
                        for &v in data {
                            lo = lo.min(v);
                            hi = hi.max(v);
                        }
                        let p = QuantParams::from_min_max_u8(lo, hi);
                        let qc = c.quantize_to_u8(&p)?;
                        b.constant(format!("{}:rhs_q", node.name), qc)
                    }
                };
                vec![x, y]
            }
            OpKind::Concat { .. } => node
                .inputs
                .iter()
                .map(|&id| mapped(&map, id))
                .collect::<Result<Vec<_>>>()?,
            other => {
                return Err(NnError::Quantization(format!(
                    "op {} has no quantized kernel (convert the model first)",
                    other.type_label()
                )));
            }
        };
        let params = calib.u8_params(node.output)?;
        let out = b.push_op(
            node.name.clone(),
            node.op.clone(),
            inputs,
            Some(params.clone()),
        )?;
        map.insert(node.output.0, out);
        qparams.insert(out.0, params);
    }

    for &out_id in graph.outputs() {
        let new_id = mapped(&map, out_id)?;
        let final_id = if b.dtype_of(new_id) == DType::U8 {
            let name = format!("{}_output_dequantize", graph.tensor(out_id).name());
            b.push_op(name, OpKind::Dequantize, vec![new_id], None)?
        } else {
            new_id
        };
        b.output(final_id);
    }

    let graph = b.finish()?;
    Ok(Model {
        graph,
        family: model.family.clone(),
        variant: ModelVariant::Quantized,
    })
}

/// Convenience accessor: the quantization parameters the quantizer assigned
/// to a node's output in a quantized graph, if any.
pub fn output_params(graph: &Graph, node_name: &str) -> Option<QuantParams> {
    graph
        .node_by_name(node_name)
        .and_then(|(_, n)| graph.tensor(n.output).quant().cloned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendSpec;
    use crate::graph::GraphBuilder;
    use crate::interpreter::Interpreter;
    use crate::ops::{Activation, Padding};
    use mlexray_tensor::Shape;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// A small conv -> mean -> fc -> softmax float model.
    fn float_model(seed: u64) -> Model {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new("m");
        let x = b.input("x", Shape::nhwc(1, 6, 6, 3));
        let w1 = b.constant(
            "w1",
            mlexray_tensor::he_normal(Shape::new(vec![8, 3, 3, 3]), 27, &mut rng).unwrap(),
        );
        let c1 = b
            .conv2d("conv1", x, w1, None, 1, Padding::Same, Activation::Relu6)
            .unwrap();
        let m = b.mean("gap", c1).unwrap();
        let w2 = b.constant(
            "w2",
            mlexray_tensor::he_normal(Shape::matrix(4, 8), 8, &mut rng).unwrap(),
        );
        let bias = b.constant(
            "b2",
            Tensor::from_f32(Shape::vector(4), vec![0.1, -0.1, 0.2, 0.0]).unwrap(),
        );
        let fc = b
            .fully_connected("fc", m, w2, Some(bias), Activation::None)
            .unwrap();
        let sm = b.softmax("softmax", fc).unwrap();
        b.output(sm);
        Model {
            graph: b.finish().unwrap(),
            family: "test".into(),
            variant: ModelVariant::MobileFloat,
        }
    }

    fn samples(seed: u64, n: usize) -> Vec<Vec<Tensor>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let data: Vec<f32> = (0..108).map(|_| rng.gen_range(-1.0..1.0)).collect();
                vec![Tensor::from_f32(Shape::nhwc(1, 6, 6, 3), data).unwrap()]
            })
            .collect()
    }

    #[test]
    fn calibration_covers_all_activations() {
        let m = float_model(1);
        let s = samples(2, 4);
        let calib = calibrate(&m.graph, s.iter().map(Vec::as_slice)).unwrap();
        assert_eq!(calib.sample_count(), 4);
        for node in m.graph.nodes() {
            assert!(calib.range(node.output).is_some(), "node {}", node.name);
        }
        assert!(calibrate(&m.graph, std::iter::empty()).is_err());
    }

    #[test]
    fn quantized_model_tracks_float_model() {
        let m = float_model(1);
        let s = samples(2, 16);
        let calib = calibrate(&m.graph, s.iter().map(Vec::as_slice)).unwrap();
        let q = quantize_model(&m, &calib, QuantizationOptions::default()).unwrap();
        assert_eq!(q.variant, ModelVariant::Quantized);

        let mut fi = Interpreter::new(&m.graph, BackendSpec::optimized()).unwrap();
        let mut qi = Interpreter::new(&q.graph, BackendSpec::optimized()).unwrap();
        let mut max_err = 0.0f32;
        for sample in samples(7, 8) {
            let a = fi.invoke(&sample).unwrap();
            let b = qi.invoke(&sample).unwrap();
            for (u, v) in a[0].as_f32().unwrap().iter().zip(b[0].as_f32().unwrap()) {
                max_err = max_err.max((u - v).abs());
            }
        }
        assert!(
            max_err < 0.12,
            "softmax outputs should track closely, err {max_err}"
        );
    }

    #[test]
    fn per_tensor_mode_also_runs() {
        let m = float_model(1);
        let s = samples(2, 8);
        let calib = calibrate(&m.graph, s.iter().map(Vec::as_slice)).unwrap();
        let q = quantize_model(
            &m,
            &calib,
            QuantizationOptions {
                per_channel_weights: false,
            },
        )
        .unwrap();
        let mut qi = Interpreter::new(&q.graph, BackendSpec::optimized()).unwrap();
        let out = qi.invoke(&samples(3, 1)[0]).unwrap();
        let p: f32 = out[0].as_f32().unwrap().iter().sum();
        assert!((p - 1.0).abs() < 1e-3);
    }

    #[test]
    fn checkpoint_with_bn_rejected() {
        // Graphs containing BatchNorm cannot be quantized directly.
        let mut rng = SmallRng::seed_from_u64(4);
        let mut b = GraphBuilder::new("bn");
        let x = b.input("x", Shape::nhwc(1, 4, 4, 2));
        let w = b.constant(
            "w",
            mlexray_tensor::he_normal(Shape::new(vec![2, 1, 1, 2]), 2, &mut rng).unwrap(),
        );
        let c = b
            .conv2d("c", x, w, None, 1, Padding::Same, Activation::None)
            .unwrap();
        let ones = Tensor::from_f32(Shape::vector(2), vec![1.0, 1.0]).unwrap();
        let g = b.constant("g", ones.clone());
        let be = b.constant("be", ones.clone());
        let me = b.constant("me", ones.clone());
        let va = b.constant("va", ones);
        let bn = b.batch_norm("bn", c, g, be, me, va, 1e-3).unwrap();
        b.output(bn);
        let model = Model {
            graph: b.finish().unwrap(),
            family: "bn".into(),
            variant: ModelVariant::MobileFloat,
        };
        let s = samples(2, 2);
        // Samples have the wrong shape for this graph; build matching ones.
        let mut rng = SmallRng::seed_from_u64(5);
        let s2: Vec<Vec<Tensor>> = (0..2)
            .map(|_| {
                let data: Vec<f32> = (0..32).map(|_| rng.gen_range(-1.0..1.0)).collect();
                vec![Tensor::from_f32(Shape::nhwc(1, 4, 4, 2), data).unwrap()]
            })
            .collect();
        let _ = s;
        let calib = calibrate(&model.graph, s2.iter().map(Vec::as_slice)).unwrap();
        let err = quantize_model(&model, &calib, QuantizationOptions::default());
        assert!(matches!(err, Err(NnError::Quantization(_))));
    }
}
