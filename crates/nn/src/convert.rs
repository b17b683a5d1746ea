//! Checkpoint → mobile conversion: batch-norm folding and activation fusion.
//!
//! This is the "convert ML checkpoints to executable versions" step of §2.
//! The converted graph computes the same function with fewer nodes; any
//! accuracy difference against the checkpoint comes only from float
//! summation-order differences in the optimized kernels (§4.4 observes 1–2 %
//! on real models).

use std::collections::HashMap;

use mlexray_tensor::{Shape, Tensor};

use crate::graph::{Node, TensorId};
use crate::model::{Model, ModelVariant};
use crate::ops::{Activation, OpKind};
use crate::{NnError, Result};

fn is_fusable_conv(op: &OpKind) -> bool {
    matches!(
        op,
        OpKind::Conv2d {
            activation: Activation::None,
            ..
        } | OpKind::DepthwiseConv2d {
            activation: Activation::None,
            ..
        } | OpKind::FullyConnected {
            activation: Activation::None
        }
    )
}

fn set_activation(op: &mut OpKind, act: Activation) {
    match op {
        OpKind::Conv2d { activation, .. }
        | OpKind::DepthwiseConv2d { activation, .. }
        | OpKind::FullyConnected { activation }
        | OpKind::Add { activation } => *activation = act,
        _ => unreachable!("set_activation on non-fusable op"),
    }
}

/// Per-output-channel index of a weight element, given the op kind.
fn weight_channel(op: &OpKind, shape: &[usize], flat: usize) -> usize {
    match op {
        // [out_c, kh, kw, in_c]: channel is the leading axis.
        OpKind::Conv2d { .. } => flat / (shape[1] * shape[2] * shape[3]),
        // [1, kh, kw, c]: channel is the trailing axis.
        OpKind::DepthwiseConv2d { .. } => flat % shape[3],
        // [out, in].
        OpKind::FullyConnected { .. } => flat / shape[1],
        _ => unreachable!(),
    }
}

/// Converts a checkpoint model into its mobile (deployment) form: folds
/// batch normalization into the preceding conv/depthwise-conv/FC and fuses
/// standalone ReLU/ReLU6 nodes into the preceding op's fused activation.
///
/// # Errors
///
/// Returns [`NnError::Conversion`] if the input is not a checkpoint or a
/// batch-norm has no foldable producer, and propagates validation errors.
///
/// # Example
///
/// ```no_run
/// use mlexray_nn::{convert_to_mobile, Model};
/// # fn get_model() -> Model { unimplemented!() }
/// let checkpoint = get_model();
/// let mobile = convert_to_mobile(&checkpoint)?;
/// assert!(mobile.graph.layer_count() <= checkpoint.graph.layer_count());
/// # Ok::<(), mlexray_nn::NnError>(())
/// ```
pub fn convert_to_mobile(model: &Model) -> Result<Model> {
    if model.variant != ModelVariant::Checkpoint {
        return Err(NnError::Conversion(format!(
            "expected a checkpoint model, got {}",
            model.variant
        )));
    }
    let mut graph = model.graph.clone();

    // Consumer counts decide whether a producer's output may be rewired.
    let mut consumers = vec![0usize; graph.tensors().len()];
    for node in graph.nodes() {
        for id in &node.inputs {
            consumers[id.0] += 1;
        }
    }
    for &out in graph.outputs() {
        consumers[out.0] += 1;
    }

    let old_nodes: Vec<Node> = graph.nodes().to_vec();
    let mut new_nodes: Vec<Node> = Vec::with_capacity(old_nodes.len());
    // Producer of each tensor id within `new_nodes`.
    let mut producer: HashMap<usize, usize> = HashMap::new();

    for node in old_nodes {
        let fold_target = producer
            .get(&node.inputs[0].0)
            .copied()
            .filter(|&p| consumers[node.inputs[0].0] == 1 && is_fusable_conv(&new_nodes[p].op));
        match (&node.op, fold_target) {
            (OpKind::BatchNorm { epsilon }, Some(p)) => {
                fold_batch_norm(&mut graph, &mut new_nodes, p, &node, *epsilon)?;
                producer.insert(node.output.0, p);
            }
            (OpKind::Act(act @ (Activation::Relu | Activation::Relu6)), Some(p)) => {
                set_activation(&mut new_nodes[p].op, *act);
                new_nodes[p].output = node.output;
                producer.insert(node.output.0, p);
            }
            (OpKind::BatchNorm { .. }, None) => {
                return Err(NnError::Conversion(format!(
                    "batch-norm '{}' has no foldable producer",
                    node.name
                )));
            }
            _ => {
                producer.insert(node.output.0, new_nodes.len());
                new_nodes.push(node);
            }
        }
    }

    *graph.nodes_mut() = new_nodes;
    // Fusion rewires producers and folding retires BN parameter constants;
    // drop the orphaned slots so derived graphs stay hygiene-lint clean.
    graph.compact_tensors();
    graph.set_name(format!("{}_mobile", model.graph.name()));
    graph.validate()?;
    Ok(Model {
        graph,
        family: model.family.clone(),
        variant: ModelVariant::MobileFloat,
    })
}

/// Folds `BN(conv(x))` into the convolution's weights and bias.
fn fold_batch_norm(
    graph: &mut crate::graph::Graph,
    new_nodes: &mut [Node],
    p: usize,
    bn: &Node,
    epsilon: f32,
) -> Result<()> {
    let read_const = |graph: &crate::graph::Graph, id: TensorId| -> Result<Vec<f32>> {
        graph
            .tensor(id)
            .as_constant()
            .ok_or_else(|| NnError::Conversion("batch-norm parameter is not constant".into()))
            .and_then(|t| Ok(t.as_f32()?.to_vec()))
    };
    let gamma = read_const(graph, bn.inputs[1])?;
    let beta = read_const(graph, bn.inputs[2])?;
    let mean = read_const(graph, bn.inputs[3])?;
    let var = read_const(graph, bn.inputs[4])?;
    let scale: Vec<f32> = gamma
        .iter()
        .zip(&var)
        .map(|(&g, &v)| g / (v + epsilon).sqrt())
        .collect();

    let conv = &new_nodes[p];
    let w_id = conv.inputs[1];
    let op = conv.op.clone();
    let w_shape: Vec<usize> = graph.tensor(w_id).shape().dims().to_vec();

    // Scale weights per output channel.
    let mut w = read_const(graph, w_id)?;
    for (i, v) in w.iter_mut().enumerate() {
        *v *= scale[weight_channel(&op, &w_shape, i)];
    }
    let folded_w = Tensor::from_f32(Shape::new(w_shape), w)?;
    if let Some(def) = graph.tensors_mut().get_mut(w_id.0) {
        *def = crate::graph::TensorDef::Constant {
            name: format!("{}:folded", graph_tensor_name(def)),
            tensor: folded_w,
        };
    }

    // Fold bias: b' = (b - mean) * scale + beta.
    let old_bias = match conv.inputs.get(2) {
        Some(&b_id) => read_const(graph, b_id)?,
        None => vec![0.0; scale.len()],
    };
    let new_bias: Vec<f32> = old_bias
        .iter()
        .zip(&scale)
        .zip(mean.iter().zip(&beta))
        .map(|((&b, &s), (&m, &bt))| (b - m) * s + bt)
        .collect();
    let bias_tensor = Tensor::from_f32(Shape::vector(new_bias.len()), new_bias)?;
    let bias_id = {
        graph.tensors_mut().push(crate::graph::TensorDef::Constant {
            name: format!("{}:folded_bias", bn.name),
            tensor: bias_tensor,
        });
        TensorId(graph.tensors().len() - 1)
    };
    let conv = &mut new_nodes[p];
    if conv.inputs.len() >= 3 {
        conv.inputs[2] = bias_id;
    } else {
        conv.inputs.push(bias_id);
    }
    conv.output = bn.output;
    Ok(())
}

fn graph_tensor_name(def: &crate::graph::TensorDef) -> String {
    def.name().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendSpec;
    use crate::graph::GraphBuilder;
    use crate::interpreter::Interpreter;
    use crate::ops::Padding;
    use mlexray_tensor::{DType, Shape};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// conv (no act) -> BN -> ReLU6 checkpoint graph.
    fn checkpoint_model(seed: u64) -> Model {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new("ckpt");
        let x = b.input("x", Shape::nhwc(1, 5, 5, 2));
        let w = b.constant(
            "w",
            mlexray_tensor::he_normal(Shape::new(vec![4, 3, 3, 2]), 18, &mut rng).unwrap(),
        );
        let y = b
            .conv2d("conv", x, w, None, 1, Padding::Same, Activation::None)
            .unwrap();
        let gamma = b.constant(
            "gamma",
            Tensor::from_f32(Shape::vector(4), vec![1.1, 0.9, 1.3, 0.7]).unwrap(),
        );
        let beta = b.constant(
            "beta",
            Tensor::from_f32(Shape::vector(4), vec![0.1, -0.2, 0.0, 0.3]).unwrap(),
        );
        let mean = b.constant(
            "mean",
            Tensor::from_f32(Shape::vector(4), vec![0.05, -0.1, 0.2, 0.0]).unwrap(),
        );
        let var = b.constant(
            "var",
            Tensor::from_f32(Shape::vector(4), vec![0.5, 1.5, 1.0, 2.0]).unwrap(),
        );
        let bn = b.batch_norm("bn", y, gamma, beta, mean, var, 1e-3).unwrap();
        let act = b.activation("relu6", bn, Activation::Relu6).unwrap();
        b.output(act);
        Model::checkpoint(b.finish().unwrap(), "test")
    }

    #[test]
    fn conversion_shrinks_and_preserves_function() {
        let ckpt = checkpoint_model(3);
        let mobile = convert_to_mobile(&ckpt).unwrap();
        assert_eq!(mobile.variant, ModelVariant::MobileFloat);
        assert_eq!(ckpt.graph.layer_count(), 3);
        assert_eq!(mobile.graph.layer_count(), 1, "BN and ReLU6 folded away");

        let mut rng = SmallRng::seed_from_u64(9);
        let data: Vec<f32> = (0..50).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let input = Tensor::from_f32(Shape::nhwc(1, 5, 5, 2), data).unwrap();

        let mut i1 = Interpreter::new(&ckpt.graph, BackendSpec::reference()).unwrap();
        let mut i2 = Interpreter::new(&mobile.graph, BackendSpec::reference()).unwrap();
        let a = i1.invoke(std::slice::from_ref(&input)).unwrap();
        let b = i2.invoke(std::slice::from_ref(&input)).unwrap();
        for (u, v) in a[0].as_f32().unwrap().iter().zip(b[0].as_f32().unwrap()) {
            assert!((u - v).abs() < 1e-4, "{u} vs {v}");
        }
    }

    #[test]
    fn non_checkpoint_rejected() {
        let ckpt = checkpoint_model(3);
        let mobile = convert_to_mobile(&ckpt).unwrap();
        assert!(convert_to_mobile(&mobile).is_err());
    }

    #[test]
    fn bn_without_conv_producer_rejected() {
        let mut b = GraphBuilder::new("bad");
        let x = b.input("x", Shape::nhwc(1, 2, 2, 2));
        let ones = |b: &mut GraphBuilder, n: &str| {
            b.constant(
                n,
                Tensor::from_f32(Shape::vector(2), vec![1.0, 1.0]).unwrap(),
            )
        };
        let gamma = ones(&mut b, "g");
        let beta = ones(&mut b, "b");
        let mean = ones(&mut b, "m");
        let var = ones(&mut b, "v");
        let bn = b.batch_norm("bn", x, gamma, beta, mean, var, 1e-3).unwrap();
        b.output(bn);
        let model = Model::checkpoint(b.finish().unwrap(), "bad");
        assert!(convert_to_mobile(&model).is_err());
    }

    #[test]
    fn fusion_keeps_dtype_and_shape() {
        let ckpt = checkpoint_model(5);
        let mobile = convert_to_mobile(&ckpt).unwrap();
        let out_id = mobile.graph.outputs()[0];
        assert_eq!(mobile.graph.tensor(out_id).dtype(), DType::F32);
        assert_eq!(mobile.graph.tensor(out_id).shape().dims(), &[1, 5, 5, 4]);
    }
}
