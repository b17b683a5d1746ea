//! The training loop: softmax cross-entropy over the split-activation graph,
//! minibatch gradient accumulation, and a JSON weight cache.

use std::collections::HashMap;
use std::path::Path;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use mlexray_nn::{BackendSpec, Interpreter, Model, OpKind, TensorId};
use mlexray_tensor::Tensor;

use crate::backward::{backward_node, Grads};
use crate::optimizer::{Optimizer, OptimizerKind};
use crate::{Result, TrainError};

/// One labelled training/evaluation sample: the model's input tensors plus a
/// class label.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Input tensors, matching the model's input interface.
    pub inputs: Vec<Tensor>,
    /// Ground-truth class.
    pub label: usize,
}

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Passes over the data.
    pub epochs: usize,
    /// Gradient-accumulation minibatch size.
    pub batch_size: usize,
    /// Starting learning rate.
    pub lr: f32,
    /// Per-epoch learning-rate multiplier.
    pub lr_decay: f32,
    /// Optimizer family.
    pub optimizer: OptimizerKind,
    /// Shuffle seed.
    pub shuffle_seed: u64,
    /// Print per-epoch progress to stderr.
    pub verbose: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 8,
            batch_size: 16,
            lr: 0.01,
            lr_decay: 0.85,
            optimizer: OptimizerKind::adam_default(),
            shuffle_seed: 0,
            verbose: false,
        }
    }
}

/// Summary of a finished training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Mean loss of the final epoch.
    pub final_loss: f32,
    /// Optimizer steps applied.
    pub steps: usize,
}

fn check_classifier(model: &Model) -> Result<()> {
    match model.graph.nodes().last() {
        Some(node) if matches!(node.op, OpKind::Softmax) => Ok(()),
        _ => Err(TrainError::BadClassifier(
            "training expects a graph ending in Softmax (cross-entropy loss)".into(),
        )),
    }
}

/// Trains a model in place and returns it with trained weights, plus a
/// report. The model must end in a `Softmax` node; the loss is cross-entropy.
///
/// # Errors
///
/// Returns [`TrainError::BadClassifier`] for non-classifier graphs,
/// [`TrainError::UnsupportedOp`] for ops with no backward pass, and
/// propagates forward-pass errors.
pub fn train(model: Model, data: &[Sample], cfg: &TrainConfig) -> Result<(Model, TrainReport)> {
    if data.is_empty() || cfg.epochs == 0 || cfg.batch_size == 0 {
        return Err(TrainError::InvalidConfig(
            "need non-empty data, epochs > 0 and batch_size > 0".into(),
        ));
    }
    check_classifier(&model)?;
    let mut tgraph = model.graph.split_fused_activations();
    let softmax_idx = tgraph.nodes().len() - 1;
    let mut opt = Optimizer::new(cfg.optimizer, cfg.lr);
    let mut rng = SmallRng::seed_from_u64(cfg.shuffle_seed);
    let mut order: Vec<usize> = (0..data.len()).collect();
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);

    for epoch in 0..cfg.epochs {
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0f64;
        for chunk in order.chunks(cfg.batch_size) {
            let mut batch_grads: HashMap<usize, Vec<f32>> = HashMap::new();
            {
                let mut interp = Interpreter::new(&tgraph, BackendSpec::optimized())?;
                let scale = 1.0 / chunk.len() as f32;
                for &idx in chunk {
                    let sample = &data[idx];
                    let outputs = interp.invoke(&sample.inputs)?;
                    let probs = outputs[0].as_f32()?;
                    let p = probs
                        .get(sample.label)
                        .copied()
                        .ok_or_else(|| TrainError::BadClassifier("label out of range".into()))?;
                    epoch_loss += -(p.max(1e-9).ln()) as f64;

                    // d(CE)/d(logits) = probs - onehot; seeded at the
                    // softmax node's input.
                    let softmax = &tgraph.nodes()[softmax_idx];
                    let mut seed: Vec<f32> = probs.iter().map(|&v| v * scale).collect();
                    seed[sample.label] -= scale;
                    let mut grads = Grads::new();
                    grads.add(softmax.inputs[0], seed);

                    let get = |id: TensorId| -> &Tensor {
                        interp.tensor_value(id).expect("forward value present")
                    };
                    for node in tgraph.nodes()[..softmax_idx].iter().rev() {
                        let Some(gout) = grads.take(node.output) else {
                            continue;
                        };
                        backward_node(node, &get, &gout, &mut grads)?;
                    }
                    for (id, g) in grads.drain() {
                        match batch_grads.get_mut(&id) {
                            Some(acc) => {
                                for (a, b) in acc.iter_mut().zip(&g) {
                                    *a += b;
                                }
                            }
                            None => {
                                batch_grads.insert(id, g);
                            }
                        }
                    }
                }
            }
            opt.step(&mut tgraph, &batch_grads)?;
        }
        let mean = (epoch_loss / data.len() as f64) as f32;
        epoch_losses.push(mean);
        if cfg.verbose {
            eprintln!("epoch {epoch}: loss {mean:.4} (lr {:.5})", opt.lr());
        }
        opt.set_lr(opt.lr() * cfg.lr_decay);
    }

    // Copy trained constants back into the original (fused) graph; constant
    // slot ids are preserved by split_fused_activations.
    let mut out = model;
    let const_ids: Vec<usize> = out
        .graph
        .tensors()
        .iter()
        .enumerate()
        .filter(|(_, d)| d.as_constant().is_some())
        .map(|(i, _)| i)
        .collect();
    for id in const_ids {
        let trained = tgraph
            .tensor(TensorId(id))
            .as_constant()
            .expect("split preserves constants")
            .clone();
        out.graph.set_constant(TensorId(id), trained)?;
    }
    let report = TrainReport {
        final_loss: epoch_losses.last().copied().unwrap_or(f32::NAN),
        epoch_losses,
        steps: opt.steps(),
    };
    Ok((out, report))
}

/// Computes the cross-entropy loss and the gradients of every constant for
/// a single sample — the building block of the training loop, exposed for
/// gradient inspection and verification (see `tests/gradcheck.rs`).
///
/// Returned gradients are keyed by the constant's tensor-slot id in the
/// *original* model graph.
///
/// # Errors
///
/// Same conditions as [`train`].
pub fn gradients(model: &Model, sample: &Sample) -> Result<(f32, HashMap<usize, Vec<f32>>)> {
    check_classifier(model)?;
    let tgraph = model.graph.split_fused_activations();
    let softmax_idx = tgraph.nodes().len() - 1;
    let mut interp = Interpreter::new(&tgraph, BackendSpec::optimized())?;
    let outputs = interp.invoke(&sample.inputs)?;
    let probs = outputs[0].as_f32()?;
    let p = probs
        .get(sample.label)
        .copied()
        .ok_or_else(|| TrainError::BadClassifier("label out of range".into()))?;
    let loss = -(p.max(1e-9).ln());

    let softmax = &tgraph.nodes()[softmax_idx];
    let mut seed: Vec<f32> = probs.to_vec();
    seed[sample.label] -= 1.0;
    let mut grads = Grads::new();
    grads.add(softmax.inputs[0], seed);
    let get = |id: TensorId| -> &Tensor { interp.tensor_value(id).expect("forward value") };
    for node in tgraph.nodes()[..softmax_idx].iter().rev() {
        let Some(gout) = grads.take(node.output) else {
            continue;
        };
        backward_node(node, &get, &gout, &mut grads)?;
    }
    let const_grads = grads
        .drain()
        .into_iter()
        .filter(|(id, _)| {
            model
                .graph
                .tensors()
                .get(*id)
                .and_then(|d| d.as_constant())
                .is_some()
        })
        .collect();
    Ok((loss, const_grads))
}

/// Predicted class (argmax of the first output) for one sample.
///
/// # Errors
///
/// Propagates forward-pass errors.
pub fn predict(interp: &mut Interpreter<'_>, inputs: &[Tensor]) -> Result<usize> {
    let outputs = interp.invoke(inputs)?;
    let probs = outputs[0].as_f32()?;
    Ok(probs
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0))
}

/// Top-1 accuracy of a model over labelled samples.
///
/// # Errors
///
/// Propagates forward-pass errors.
pub fn evaluate(model: &Model, data: &[Sample]) -> Result<f32> {
    if data.is_empty() {
        return Ok(0.0);
    }
    let mut interp = Interpreter::new(&model.graph, BackendSpec::optimized())?;
    let mut correct = 0usize;
    for sample in data {
        if predict(&mut interp, &sample.inputs)? == sample.label {
            correct += 1;
        }
    }
    Ok(correct as f32 / data.len() as f32)
}

/// Loads trained weights from `cache` if present; otherwise builds the model
/// with `build`, trains it, and saves it to `cache`. This is how the
/// benchmark binaries avoid re-training on every invocation.
///
/// # Errors
///
/// Propagates build/train/serialization errors.
pub fn train_or_load(
    cache: &Path,
    build: impl FnOnce() -> mlexray_nn::Result<Model>,
    data: &[Sample],
    cfg: &TrainConfig,
) -> Result<Model> {
    if cache.exists() {
        return Model::load_json(cache).map_err(|e| TrainError::Cache(e.to_string()));
    }
    let model = build()?;
    let (trained, _) = train(model, data, cfg)?;
    if let Some(parent) = cache.parent() {
        std::fs::create_dir_all(parent).map_err(|e| TrainError::Cache(e.to_string()))?;
    }
    trained
        .save_json(cache)
        .map_err(|e| TrainError::Cache(e.to_string()))?;
    Ok(trained)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlexray_nn::{Activation, GraphBuilder, Padding};
    use mlexray_tensor::Shape;
    use rand::Rng;

    /// Tiny conv + fc classifier on a linearly separable 2-class problem:
    /// class 0 images are dark, class 1 images are bright.
    fn toy_model(seed: u64) -> Model {
        let mut nb = mlexray_models::NetBuilder::new("toy", seed);
        let x = nb.b.input("x", Shape::nhwc(1, 4, 4, 1));
        let c = nb
            .conv_act("c", x, 2, 3, 2, Padding::Same, Activation::Relu)
            .unwrap();
        let out = nb.mean_fc_softmax(c, 2).unwrap();
        nb.b.output(out);
        Model::checkpoint(nb.b.finish().unwrap(), "toy")
    }

    fn toy_data(n: usize, seed: u64) -> Vec<Sample> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let label = i % 2;
                let base = if label == 0 { -0.6 } else { 0.6 };
                let data: Vec<f32> = (0..16)
                    .map(|_| base + rng.gen_range(-0.3f32..0.3))
                    .collect();
                Sample {
                    inputs: vec![Tensor::from_f32(Shape::nhwc(1, 4, 4, 1), data).unwrap()],
                    label,
                }
            })
            .collect()
    }

    #[test]
    fn training_reduces_loss_and_learns() {
        let data = toy_data(64, 3);
        let cfg = TrainConfig {
            epochs: 12,
            batch_size: 8,
            lr: 0.05,
            ..Default::default()
        };
        let (trained, report) = train(toy_model(1), &data, &cfg).unwrap();
        assert!(
            report.epoch_losses[0] > report.final_loss,
            "{:?}",
            report.epoch_losses
        );
        let acc = evaluate(&trained, &toy_data(32, 9)).unwrap();
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn rejects_bad_inputs() {
        let data = toy_data(4, 1);
        assert!(train(toy_model(1), &[], &TrainConfig::default()).is_err());
        let cfg = TrainConfig {
            epochs: 0,
            ..Default::default()
        };
        assert!(train(toy_model(1), &data, &cfg).is_err());

        // Graph not ending in softmax.
        let mut b = GraphBuilder::new("nosoftmax");
        let x = b.input("x", Shape::nhwc(1, 4, 4, 1));
        let m = b.mean("m", x).unwrap();
        b.output(m);
        let model = Model::checkpoint(b.finish().unwrap(), "nosoftmax");
        let bad_data = vec![Sample {
            inputs: vec![Tensor::filled_f32(Shape::nhwc(1, 4, 4, 1), 0.0)],
            label: 0,
        }];
        assert!(matches!(
            train(model, &bad_data, &TrainConfig::default()),
            Err(TrainError::BadClassifier(_))
        ));
    }

    #[test]
    fn cache_roundtrip() {
        let dir = std::env::temp_dir().join(format!("mlexray-trainer-{}", std::process::id()));
        let cache = dir.join("toy.json");
        let _ = std::fs::remove_file(&cache);
        let data = toy_data(16, 2);
        let cfg = TrainConfig {
            epochs: 2,
            ..Default::default()
        };
        let a = train_or_load(&cache, || Ok(toy_model(1)), &data, &cfg).unwrap();
        assert!(cache.exists());
        let b = train_or_load(&cache, || panic!("must load from cache"), &data, &cfg).unwrap();
        assert_eq!(a, b);
        std::fs::remove_dir_all(&dir).ok();
    }
}
