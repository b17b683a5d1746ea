//! The per-layer differential debugger: §4.4's cross-runtime comparison as
//! a first-class subsystem.
//!
//! A differential run replays the same frames through interpreters built
//! from two [`BackendSpec`]s (specs, so every replay worker can build its
//! own instance), aligns the two per-layer
//! [`mlexray_nn::LayerRecord`] streams by node name, computes per-layer
//! drift with the §3.4 normalized-rMSE metric
//! ([`crate::validate::per_layer_drift`]), and reports the **first
//! divergent layer** in execution order.
//!
//! When [`DifferentialOptions::bisect`] is set, the debugger then confirms
//! the localization: it re-runs the graph prefix under the *reference*
//! backend to obtain trusted inputs for the suspect node, re-executes that
//! node **in isolation** under both backends on those identical inputs, and
//! classifies the divergence as op-local (the defect is in that operator —
//! localization confirmed) or propagated (inherited from upstream
//! numerics).
//!
//! Both runs go through the sharded replay engine ([`crate::replay`]):
//! frames are partitioned into shards, workers each own a private backend
//! instance, and per-shard records merge deterministically — the resulting
//! [`DifferentialReport`] is byte-identical across worker counts and
//! micro-batch settings (pinned by `crates/core/tests/differential_replay.rs`).

use mlexray_nn::{BackendSpec, Graph, GraphBuilder, LayerObserver, LayerRecord, TensorDef};
use mlexray_tensor::{normalized_rmse, Tensor};

use crate::log::{layer_output_key, LogRecord, LogSet, LogValue};
use crate::monitor::MonitorConfig;
use crate::pipeline::{ImagePipeline, LabeledFrame};
use crate::replay::{replay_sharded, run_sharded, shard_partition, ReplayOptions};
use crate::validate::drift::{per_layer_drift, LayerDrift};
use crate::validate::report::{
    BisectionOutcome, BisectionVerdict, DifferentialReport, DifferentialVerdict, DivergentLayer,
};
use crate::{ExrayError, Result};

/// Tuning for a differential run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DifferentialOptions {
    /// A layer counts as divergent when its **worst-frame** normalized rMSE
    /// exceeds this. The default (`1e-4`) sits above the benign
    /// summation-order drift between kernel flavors and far below any real
    /// defect; pass `0.0` to demand bitwise equivalence.
    pub threshold: f32,
    /// Confirm the localization by isolated re-execution of the first
    /// divergent op on reference-prefix inputs.
    pub bisect: bool,
    /// Sharding/micro-batch tuning for the two replay passes. The monitor
    /// configuration is ignored — differential runs always capture full
    /// per-layer tensors.
    pub replay: ReplayOptions,
}

impl Default for DifferentialOptions {
    fn default() -> Self {
        DifferentialOptions {
            threshold: 1e-4,
            bisect: true,
            replay: ReplayOptions::default(),
        }
    }
}

impl DifferentialOptions {
    /// Bitwise-strict options: any value-level difference in any layer
    /// output on any frame counts as divergence (including NaN/Inf on one
    /// side only; differences confined to the sign of zero do not score).
    pub fn bitwise() -> Self {
        DifferentialOptions {
            threshold: 0.0,
            ..Default::default()
        }
    }
}

/// Streams per-layer outputs of a backend run into globally-numbered log
/// records (frame = `base + in-batch index`), capturing full tensors.
struct LayerLogCapture {
    base: u64,
    records: Vec<LogRecord>,
}

impl LayerObserver for LayerLogCapture {
    fn on_layer(&mut self, record: &LayerRecord<'_>) {
        self.records.push(LogRecord {
            frame: self.base + record.batch as u64,
            key: layer_output_key(record.name),
            value: LogValue::of_tensor(record.output, true),
        });
    }
}

/// Replays `frames` through a backend built from `spec` on the sharded
/// worker pool, returning the merged per-layer log set. Worker count and
/// micro-batching cannot change the result: layer values are
/// batching-invariant (the `batch_equivalence` suite pins this) and shards
/// merge sorted by start frame.
fn run_backend_sharded(
    graph: &Graph,
    spec: BackendSpec,
    frames: &[Vec<Tensor>],
    replay: &ReplayOptions,
) -> Result<LogSet> {
    let partition = shard_partition(frames.len(), replay.shard_frames);
    let lease = replay.lease_workers(partition.len());
    let workers = lease.cores();
    let micro_batch = replay.micro_batch.max(1);
    let chunks = run_sharded(
        &partition,
        workers,
        replay.effective_queue_depth(workers),
        || spec.build(graph).map_err(ExrayError::from),
        |backend, shard| -> Result<Vec<LogRecord>> {
            let mut capture = LayerLogCapture {
                base: 0,
                records: Vec::new(),
            };
            for (i, chunk) in frames[shard.clone()].chunks(micro_batch).enumerate() {
                capture.base = (shard.start + i * micro_batch) as u64;
                let refs: Vec<&[Tensor]> = chunk.iter().map(Vec::as_slice).collect();
                backend.invoke_batch_observed(&refs, &mut capture)?;
            }
            Ok(capture.records)
        },
    )?;
    Ok(LogSet::new(
        chunks.into_iter().flat_map(|(_, r)| r).collect(),
    ))
}

/// Runs the full differential debugger over a graph: both backends replay
/// `frames` (each frame is one input set) through the sharded replay
/// engine, per-layer drift localizes the first divergent layer, and — with
/// [`DifferentialOptions::bisect`] — an isolated re-execution of that op on
/// reference-prefix inputs confirms whether the defect is op-local.
///
/// # Errors
///
/// Propagates backend construction and execution errors.
pub fn diff_backends(
    graph: &Graph,
    baseline: BackendSpec,
    candidate: BackendSpec,
    frames: &[Vec<Tensor>],
    options: &DifferentialOptions,
) -> Result<DifferentialReport> {
    let baseline_logs = run_backend_sharded(graph, baseline, frames, &options.replay)?;
    let candidate_logs = run_backend_sharded(graph, candidate, frames, &options.replay)?;
    let static_findings = mlexray_nn::analysis::analyze(graph).diagnostics;
    let mut report = localize(
        baseline.label().to_string(),
        candidate.label().to_string(),
        &baseline_logs,
        &candidate_logs,
        frames.len(),
        options.threshold,
    );
    report.static_findings = static_findings;
    if options.bisect {
        if let Some(divergent) = report.first_divergent.clone() {
            let inputs = &frames[divergent.worst_frame as usize];
            report.bisection = Some(bisect(
                graph,
                baseline,
                candidate,
                inputs,
                &divergent,
                prefix_max(&report.drift, divergent.index),
                options.threshold,
            )?);
        }
    }
    Ok(report)
}

/// Differential run over two image pipelines (the replay-engine shape used
/// by deployment validation): both pipelines replay the frames sharded with
/// full per-layer capture, and localization proceeds as in
/// [`diff_backends`]. Bisection runs when both pipelines deploy the *same*
/// graph (cross-variant comparisons localize but cannot isolate an op on
/// shared inputs); the suspect frame is preprocessed through the baseline
/// pipeline's (canonical) configuration.
///
/// # Errors
///
/// Propagates pipeline and backend errors.
pub fn diff_image_pipelines(
    baseline: &ImagePipeline,
    candidate: &ImagePipeline,
    frames: &[LabeledFrame],
    options: &DifferentialOptions,
) -> Result<DifferentialReport> {
    let mut replay = options.replay;
    replay.monitor = MonitorConfig::offline_validation();
    let (baseline_logs, _) = replay_sharded(baseline, frames, &replay)?;
    let (candidate_logs, _) = replay_sharded(candidate, frames, &replay)?;
    let baseline_spec = BackendSpec::of_options(baseline.options);
    let candidate_spec = BackendSpec::of_options(candidate.options);
    let mut report = localize(
        baseline_spec.label().to_string(),
        candidate_spec.label().to_string(),
        &baseline_logs,
        &candidate_logs,
        frames.len(),
        options.threshold,
    );
    if options.bisect && baseline.model.graph == candidate.model.graph {
        if let Some(divergent) = report.first_divergent.clone() {
            let image = &frames[divergent.worst_frame as usize].image;
            let inputs = vec![baseline.preprocess.apply(image)?];
            report.bisection = Some(bisect(
                &baseline.model.graph,
                baseline_spec,
                candidate_spec,
                &inputs,
                &divergent,
                prefix_max(&report.drift, divergent.index),
                options.threshold,
            )?);
        }
    }
    Ok(report)
}

/// Worst per-layer `max_nrmse` over the layers before `index` — the prefix
/// agreement backing a localization.
fn prefix_max(drift: &[LayerDrift], index: usize) -> f32 {
    drift
        .iter()
        .take_while(|d| d.index != index)
        .map(|d| d.max_nrmse)
        .fold(0.0, f32::max)
}

/// Drift computation + first-divergent localization over two merged log
/// sets. Drift entries are re-indexed densely in execution order (the raw
/// key enumeration skips latency keys).
fn localize(
    baseline_label: String,
    candidate_label: String,
    baseline_logs: &LogSet,
    candidate_logs: &LogSet,
    frames: usize,
    threshold: f32,
) -> DifferentialReport {
    let mut drift = per_layer_drift(candidate_logs, baseline_logs);
    for (i, d) in drift.iter_mut().enumerate() {
        d.index = i;
    }
    // Localization re-scores each layer with the non-finite-robust metric
    // rather than trusting the drift aggregate: a NaN/Inf produced by one
    // backend poisons `mean_nrmse` (NaN) while `f32::max` silently drops it
    // from `max_nrmse`, so a plain `max_nrmse > threshold` scan would
    // report the exact defect class this debugger exists for as Equivalent.
    let first_divergent = drift.iter().find_map(|d| {
        let (frame, score) = worst_frame_score(candidate_logs, baseline_logs, &d.key);
        (score > threshold).then(|| DivergentLayer {
            index: d.index,
            layer: d.layer_name().to_string(),
            mean_nrmse: d.mean_nrmse,
            max_nrmse: score,
            worst_frame: frame,
        })
    });
    let verdict = if first_divergent.is_some() {
        DifferentialVerdict::Diverged
    } else {
        DifferentialVerdict::Equivalent
    };
    DifferentialReport {
        baseline: baseline_label,
        candidate: candidate_label,
        frames,
        threshold,
        drift,
        first_divergent,
        bisection: None,
        static_findings: Vec::new(),
        verdict,
    }
}

/// Divergence score of one layer on one frame: exactly `0.0` for
/// bitwise-identical values (identical NaNs included), `+inf` when the
/// values differ and either side carries a non-finite element (NaN/Inf
/// divergence must never score below any threshold), normalized rMSE
/// otherwise. Sign-of-zero-only differences score `0.0`.
fn frame_score(candidate: &[f32], baseline: &[f32]) -> f32 {
    if candidate.len() == baseline.len()
        && candidate
            .iter()
            .zip(baseline)
            .all(|(c, b)| c.to_bits() == b.to_bits())
    {
        return 0.0;
    }
    let nrmse = normalized_rmse(candidate, baseline);
    if nrmse.is_finite() {
        nrmse
    } else {
        f32::INFINITY
    }
}

/// The worst [`frame_score`] for `key` across the compared frames, with the
/// frame it occurred on (ties resolve to the lowest frame — deterministic
/// whatever order the shards merged in).
fn worst_frame_score(candidate: &LogSet, baseline: &LogSet, key: &str) -> (u64, f32) {
    let frames = candidate.frame_count().min(baseline.frame_count());
    let mut worst = (0u64, f32::NEG_INFINITY);
    for frame in 0..frames {
        let (Some(c), Some(b)) = (candidate.get(frame, key), baseline.get(frame, key)) else {
            continue;
        };
        let (Some(cv), Some(bv)) = (c.value.values(), b.value.values()) else {
            continue;
        };
        if cv.len() != bv.len() {
            continue;
        }
        let score = frame_score(cv, bv);
        if score > worst.1 {
            worst = (frame, score);
        }
    }
    (worst.0, worst.1.max(0.0))
}

/// Captures every node's output tensor (typed, quantized) during a
/// single-frame prefix replay.
#[derive(Default)]
struct PrefixCapture {
    outputs: Vec<Option<Tensor>>,
}

impl LayerObserver for PrefixCapture {
    fn on_layer(&mut self, record: &LayerRecord<'_>) {
        if self.outputs.len() <= record.index {
            self.outputs.resize(record.index + 1, None);
        }
        self.outputs[record.index] = Some(record.output.clone());
    }
}

/// The bisection pass: re-runs the graph prefix under the **reference**
/// backend to obtain trusted inputs for the divergent node, then executes
/// that node in isolation under both specs on those identical inputs.
fn bisect(
    graph: &Graph,
    baseline: BackendSpec,
    candidate: BackendSpec,
    frame_inputs: &[Tensor],
    divergent: &DivergentLayer,
    prefix_max_nrmse: f32,
    threshold: f32,
) -> Result<BisectionOutcome> {
    // Trusted prefix activations: the frame replayed under the reference
    // backend (ML-EXray's known-correct runtime), whatever the baseline of
    // the differential run was.
    let mut prefix = PrefixCapture::default();
    BackendSpec::reference()
        .build(graph)?
        .invoke_observed(frame_inputs, &mut prefix)?;

    let node = graph
        .node_by_name(&divergent.layer)
        .map(|(_, n)| n)
        .ok_or_else(|| {
            ExrayError::Validation(format!(
                "divergent layer '{}' not present in the graph",
                divergent.layer
            ))
        })?;

    // Isolate the node: constants inline, runtime operands become graph
    // inputs fed with the reference-prefix values.
    let mut b = GraphBuilder::new(format!("isolated/{}", node.name));
    let mut mapped = Vec::with_capacity(node.inputs.len());
    let mut isolated_inputs = Vec::new();
    for &id in &node.inputs {
        let def = graph.tensor(id);
        match def.as_constant() {
            Some(t) => mapped.push(b.constant(def.name(), t.clone())),
            None => {
                let value = if let Some(pos) = graph.inputs().iter().position(|&gid| gid == id) {
                    frame_inputs[pos].clone()
                } else {
                    let producer = graph
                        .nodes()
                        .iter()
                        .position(|n| n.output == id)
                        .and_then(|i| prefix.outputs.get(i).cloned().flatten())
                        .ok_or_else(|| {
                            ExrayError::Validation(format!(
                                "no captured value for operand '{}' of '{}'",
                                def.name(),
                                node.name
                            ))
                        })?;
                    producer
                };
                mapped.push(b.input_typed(
                    def.name(),
                    def.shape().clone(),
                    def.dtype(),
                    def.quant().cloned(),
                ));
                isolated_inputs.push(value);
            }
        }
    }
    let out_def: &TensorDef = graph.tensor(node.output);
    let out = b.push_node(
        node.name.clone(),
        node.op.clone(),
        mapped,
        out_def.shape().clone(),
        out_def.dtype(),
        out_def.quant().cloned(),
    );
    b.output(out);
    let isolated = b.finish()?;

    let run = |spec: BackendSpec| -> Result<Vec<f32>> {
        let outputs = spec.build(&isolated)?.invoke(&isolated_inputs)?;
        Ok(outputs[0].to_f32_vec())
    };
    let a = run(baseline)?;
    let c = run(candidate)?;
    // Same non-finite-robust scoring as localization: identical NaNs agree
    // (score 0), differing values with a NaN/Inf on either side diverge
    // unconditionally.
    let isolated_nrmse = frame_score(&c, &a);
    Ok(BisectionOutcome {
        layer: divergent.layer.clone(),
        frame: divergent.worst_frame,
        isolated_nrmse,
        prefix_max_nrmse,
        verdict: if isolated_nrmse > threshold {
            BisectionVerdict::OpLocal
        } else {
            BisectionVerdict::Propagated
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlexray_nn::{Activation, EdgeNumerics, KernelBugs, Padding};
    use mlexray_tensor::Shape;

    fn conv_chain() -> Graph {
        let mut b = GraphBuilder::new("chain");
        let x = b.input("x", Shape::nhwc(1, 5, 5, 2));
        let w1 = b.constant(
            "w1",
            Tensor::from_f32(
                Shape::new(vec![3, 3, 3, 2]),
                (0..54).map(|i| (i as f32 * 0.13).sin() * 0.5).collect(),
            )
            .unwrap(),
        );
        let c1 = b
            .conv2d("conv1", x, w1, None, 1, Padding::Same, Activation::Relu)
            .unwrap();
        let w2 = b.constant(
            "w2",
            Tensor::from_f32(
                Shape::new(vec![2, 1, 1, 3]),
                (0..6).map(|i| (i as f32 * 0.41).cos() * 0.6).collect(),
            )
            .unwrap(),
        );
        let c2 = b
            .conv2d("conv2", c1, w2, None, 1, Padding::Same, Activation::None)
            .unwrap();
        b.output(c2);
        b.finish().unwrap()
    }

    fn frames(n: usize) -> Vec<Vec<Tensor>> {
        (0..n)
            .map(|i| {
                vec![Tensor::from_f32(
                    Shape::nhwc(1, 5, 5, 2),
                    (0..50)
                        .map(|j| ((i * 50 + j) as f32 * 0.17).sin())
                        .collect(),
                )
                .unwrap()]
            })
            .collect()
    }

    #[test]
    fn identical_specs_are_equivalent_bitwise() {
        let g = conv_chain();
        let report = diff_backends(
            &g,
            BackendSpec::optimized(),
            BackendSpec::optimized(),
            &frames(3),
            &DifferentialOptions::bitwise(),
        )
        .unwrap();
        assert!(report.is_equivalent());
        assert!(report.first_divergent.is_none());
        assert!(report.bisection.is_none());
        assert_eq!(report.drift.len(), 2);
    }

    #[test]
    fn flavors_diverge_bitwise_but_not_at_tolerance() {
        let g = conv_chain();
        let strict = diff_backends(
            &g,
            BackendSpec::reference(),
            BackendSpec::optimized(),
            &frames(3),
            &DifferentialOptions::bitwise(),
        )
        .unwrap();
        // Blocked vs sequential summation differs bitwise on the multi-tap
        // conv1 reduction...
        assert_eq!(strict.verdict, DifferentialVerdict::Diverged);
        // ...but is benign at the default reassociation tolerance.
        let tolerant = diff_backends(
            &g,
            BackendSpec::reference(),
            BackendSpec::optimized(),
            &frames(3),
            &DifferentialOptions::default(),
        )
        .unwrap();
        assert!(tolerant.is_equivalent(), "{tolerant}");
    }

    #[test]
    fn emulator_divergence_localizes_to_first_gemm_layer() {
        let g = conv_chain();
        let numerics = EdgeNumerics {
            accumulation: mlexray_nn::AccumOrder::Reversed,
            ..EdgeNumerics::faithful()
        };
        let report = diff_backends(
            &g,
            BackendSpec::reference(),
            BackendSpec::emulator(numerics),
            &frames(3),
            &DifferentialOptions::bitwise(),
        )
        .unwrap();
        assert_eq!(report.verdict, DifferentialVerdict::Diverged);
        assert_eq!(report.divergent_layer(), Some("conv1"));
        let bisection = report.bisection.expect("bisect defaults on");
        assert_eq!(bisection.verdict, BisectionVerdict::OpLocal);
        assert_eq!(bisection.layer, "conv1");
    }

    /// Non-finite divergence must be flagged, not silently dropped:
    /// `normalized_rmse` goes NaN on NaN/Inf inputs, `f32::max` drops NaN
    /// from the drift aggregate, and `NaN > threshold` is false — so the
    /// naive scan would report a poisoned layer as Equivalent.
    #[test]
    fn nan_divergence_is_flagged_not_silently_equivalent() {
        use crate::log::{LogRecord, LogValue};
        let record = |key: &str, values: Vec<f32>| LogRecord {
            frame: 0,
            key: key.into(),
            value: LogValue::TensorFull {
                shape: Shape::vector(values.len()),
                values,
            },
        };
        let baseline = LogSet::new(vec![
            record("layer/a/output", vec![1.0, 2.0]),
            record("layer/b/output", vec![1.0, 2.0]),
        ]);
        let candidate = LogSet::new(vec![
            record("layer/a/output", vec![1.0, 2.0]),
            record("layer/b/output", vec![f32::NAN, 2.0]),
        ]);
        let report = localize("base".into(), "cand".into(), &baseline, &candidate, 1, 0.0);
        assert_eq!(report.verdict, DifferentialVerdict::Diverged);
        assert_eq!(report.divergent_layer(), Some("b"));
        assert_eq!(report.first_divergent.unwrap().max_nrmse, f32::INFINITY);

        // Identical NaNs are agreement; sign-of-zero-only differences do
        // not score; differing values with an Inf diverge unconditionally.
        assert_eq!(frame_score(&[f32::NAN, 1.0], &[f32::NAN, 1.0]), 0.0);
        assert_eq!(frame_score(&[0.0], &[-0.0]), 0.0);
        assert_eq!(frame_score(&[f32::INFINITY], &[1.0]), f32::INFINITY);
    }

    #[test]
    fn report_renders_and_roundtrips_verdict() {
        let g = conv_chain();
        let report = diff_backends(
            &g,
            BackendSpec::reference(),
            BackendSpec::reference(),
            &frames(2),
            &DifferentialOptions::default(),
        )
        .unwrap();
        let text = report.to_string();
        assert!(text.contains("differential report"), "{text}");
        assert!(text.contains("verdict: Equivalent"), "{text}");
    }

    #[test]
    fn empty_frames_produce_an_empty_equivalent_report() {
        let g = conv_chain();
        let report = diff_backends(
            &g,
            BackendSpec::reference(),
            BackendSpec::optimized(),
            &[],
            &DifferentialOptions::default(),
        )
        .unwrap();
        assert!(report.is_equivalent());
        assert_eq!(report.frames, 0);
        assert!(report.drift.is_empty());
    }

    /// An injected quantized defect must be confirmed op-local by the
    /// bisection pass (not just flagged by drift).
    #[test]
    fn injected_avgpool_bug_bisected_as_op_local() {
        use mlexray_nn::OpKind;
        use mlexray_tensor::{DType, QuantParams};
        let mut b = GraphBuilder::new("qpool");
        let x = b.input_typed(
            "x",
            Shape::nhwc(1, 4, 4, 2),
            DType::U8,
            Some(QuantParams::PerTensor {
                scale: 0.04,
                zero_point: 12,
            }),
        );
        let y = b.push_node(
            "ap",
            OpKind::AveragePool2d {
                pool_h: 4,
                pool_w: 4,
                stride: 4,
                padding: Padding::Valid,
            },
            vec![x],
            Shape::nhwc(1, 1, 1, 2),
            DType::U8,
            Some(QuantParams::PerTensor {
                scale: 0.04,
                zero_point: 12,
            }),
        );
        b.output(y);
        let g = b.finish().unwrap();
        let frames: Vec<Vec<Tensor>> = (0..2)
            .map(|i| {
                vec![Tensor::from_u8(
                    Shape::nhwc(1, 4, 4, 2),
                    (0..32).map(|j| (200 - (i * 32 + j)) as u8).collect(),
                    QuantParams::PerTensor {
                        scale: 0.04,
                        zero_point: 12,
                    },
                )
                .unwrap()]
            })
            .collect();
        let report = diff_backends(
            &g,
            BackendSpec::optimized(),
            BackendSpec::Optimized {
                bugs: KernelBugs {
                    avgpool_double_division: true,
                    ..KernelBugs::none()
                },
            },
            &frames,
            &DifferentialOptions::bitwise(),
        )
        .unwrap();
        assert_eq!(report.divergent_layer(), Some("ap"));
        assert_eq!(report.bisection.unwrap().verdict, BisectionVerdict::OpLocal);
    }
}
