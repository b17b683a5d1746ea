//! The per-layer differential debugger: §4.4's cross-runtime comparison as
//! a first-class subsystem.
//!
//! A differential run replays the same frames through interpreters built
//! from two [`BackendSpec`]s **in lockstep**: per micro-batch chunk the
//! baseline runs first into a reusable capture, then the candidate runs
//! with an observer that folds each of its layer outputs against the
//! captured one ([`DriftFold`], the §3.4 normalized-rMSE metric) the moment
//! it is produced. A worker holds one chunk of baseline layer outputs,
//! overwritten by the next; the run holds four bytes per (layer, frame); no
//! log record is built. The fold yields per-layer drift and the **first
//! divergent layer** in execution order.
//!
//! When [`DifferentialOptions::bisect`] is set, the debugger then confirms
//! the localization: it re-runs the frame under the *reference* backend to
//! obtain trusted operands for the suspect node, re-executes that node **in
//! isolation** — one [`execute_node_with`] call per spec, on the process's
//! engine, with the spec's injected defects and emulated numerics — on
//! those identical operands, and classifies the divergence as op-local (the
//! defect is in that operator — localization confirmed) or propagated
//! (inherited from upstream numerics).
//!
//! The run goes through the sharded replay engine ([`crate::replay`]):
//! frames are partitioned into shards, workers each own a private pair of
//! backend instances, and per-shard folds concatenate in start-frame order
//! — the resulting [`DifferentialReport`] is byte-identical across worker
//! counts and micro-batch settings (pinned by
//! `crates/core/tests/differential_replay.rs`).

use std::borrow::Cow;

use mlexray_nn::simd::{active_engine, execute_node_with};
use mlexray_nn::{BackendSpec, Graph, Interpreter};
use mlexray_tensor::Tensor;

use crate::pipeline::{ImagePipeline, LabeledFrame};
use crate::replay::ReplayOptions;
use crate::validate::drift::{frame_scores, ChunkCapture, DriftFold, LockstepFold, NodeMap};
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
    /// Sharding/micro-batch tuning for the replay. The monitor
    /// configuration is ignored — differential runs always compare full
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

/// One chunk's model inputs, frame by frame: the baseline's, and the
/// candidate's when they differ (`None`: the candidate takes the baseline's).
type ChunkInputs<'c> = (Cow<'c, [Vec<Tensor>]>, Option<Vec<Vec<Tensor>>>);

/// Replays `frames` through a baseline and a candidate `(graph, spec)` in
/// lockstep on the sharded worker pool and returns the run's fold: per
/// micro-batch chunk, `inputs` gives each side its model inputs, the
/// baseline runs into the worker's [`ChunkCapture`] and the candidate folds
/// against it ([`LockstepFold`]) at global frame numbers. Worker count and
/// micro-batching cannot change the result: layer values are
/// batching-invariant (the `batch_equivalence` suite pins this) and shard
/// folds concatenate sorted by start frame.
fn fold_lockstep<F: Sync>(
    baseline: (&Graph, BackendSpec),
    candidate: (&Graph, BackendSpec),
    nodes: &NodeMap,
    frames: &[F],
    replay: &ReplayOptions,
    inputs: impl Fn(&[F]) -> Result<ChunkInputs<'_>> + Sync,
) -> Result<DriftFold> {
    let micro_batch = replay.micro_batch.max(1);
    let (run, _stats) = replay.run(
        frames.len(),
        || {
            Ok((
                baseline.1.build(baseline.0)?,
                candidate.1.build(candidate.0)?,
                ChunkCapture::new(nodes, micro_batch),
            ))
        },
        |(baseline, candidate, capture), shard| -> Result<DriftFold> {
            let mut fold = DriftFold::default();
            for (i, chunk) in frames[shard.clone()].chunks(micro_batch).enumerate() {
                let (baseline_inputs, candidate_inputs) = inputs(chunk)?;
                let baseline_refs = frame_refs(&baseline_inputs);
                baseline.invoke_batch_observed(&baseline_refs, capture)?;
                let candidate_refs = candidate_inputs
                    .as_deref()
                    .map_or(baseline_refs, frame_refs);
                let base = (shard.start + i * micro_batch) as u64;
                let mut lockstep = LockstepFold::new(capture, base, &mut fold);
                candidate.invoke_batch_observed(&candidate_refs, &mut lockstep)?;
            }
            Ok(fold)
        },
        |shards| {
            let mut run = DriftFold::default();
            for shard in shards {
                run.absorb(shard);
            }
            run
        },
    )?;
    Ok(run)
}

/// Each frame's inputs as the slice a batched invoke takes.
fn frame_refs(inputs: &[Vec<Tensor>]) -> Vec<&[Tensor]> {
    inputs.iter().map(Vec::as_slice).collect()
}

/// Runs the full differential debugger over a graph: both backends replay
/// `frames` (each frame is one input set) in lockstep through the sharded
/// replay engine, per-layer drift localizes the first divergent layer, and
/// — with [`DifferentialOptions::bisect`] — an isolated re-execution of
/// that op on reference-prefix inputs confirms whether the defect is
/// op-local.
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
    let fold = fold_lockstep(
        (graph, baseline),
        (graph, candidate),
        &NodeMap::by_name(graph, graph, 1),
        frames,
        &options.replay,
        |chunk: &[Vec<Tensor>]| Ok((Cow::Borrowed(chunk), None)),
    )?;
    let static_findings = mlexray_nn::analysis::analyze(graph).diagnostics;
    let mut report = localize(
        baseline.label().to_string(),
        candidate.label().to_string(),
        &fold,
        frames.len(),
        options.threshold,
    );
    report.static_findings = static_findings;
    if options.bisect {
        if let Some(divergent) = report.first_divergent.clone() {
            let inputs = &frames[divergent.worst_frame as usize];
            let outcome = bisect(graph, baseline, candidate, inputs, &divergent, &report)?;
            report.bisection = Some(outcome);
        }
    }
    Ok(report)
}

/// Differential run over two image pipelines (the replay-engine shape used
/// by deployment validation): both pipelines replay the frames sharded and
/// in lockstep, each through its own preprocessing (once for both when the
/// configurations are equal) — the two may deploy different graph variants,
/// so layers are matched by name, as [`DriftFold::of_logs`] matches them —
/// and localization proceeds as in [`diff_backends`]. Bisection runs when
/// both pipelines deploy the *same* graph (cross-variant comparisons
/// localize but cannot isolate an op on shared inputs); the suspect frame is
/// preprocessed through the baseline pipeline's (canonical) configuration.
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
    let (baseline_graph, candidate_graph) = (&baseline.model.graph, &candidate.model.graph);
    let shared_input = baseline.preprocess == candidate.preprocess;
    let preprocess =
        |pipeline: &ImagePipeline, chunk: &[LabeledFrame]| -> Result<Vec<Vec<Tensor>>> {
            let apply = |f: &LabeledFrame| Ok(vec![pipeline.preprocess.apply(&f.image)?]);
            chunk.iter().map(apply).collect()
        };
    let fold = fold_lockstep(
        (baseline_graph, baseline.backend),
        (candidate_graph, candidate.backend),
        &NodeMap::by_name(baseline_graph, candidate_graph, 1),
        frames,
        &options.replay,
        |chunk: &[LabeledFrame]| {
            let candidate_inputs = match shared_input {
                true => None,
                false => Some(preprocess(candidate, chunk)?),
            };
            Ok((Cow::Owned(preprocess(baseline, chunk)?), candidate_inputs))
        },
    )?;
    let mut report = localize(
        baseline.backend.label().to_string(),
        candidate.backend.label().to_string(),
        &fold,
        frames.len(),
        options.threshold,
    );
    if options.bisect && baseline.model.graph == candidate.model.graph {
        if let Some(divergent) = report.first_divergent.clone() {
            let image = &frames[divergent.worst_frame as usize].image;
            let inputs = [baseline.preprocess.apply(image)?];
            let graph = &baseline.model.graph;
            let outcome = bisect(
                graph,
                baseline.backend,
                candidate.backend,
                &inputs,
                &divergent,
                &report,
            )?;
            report.bisection = Some(outcome);
        }
    }
    Ok(report)
}

/// Drift + first-divergent localization, both read from one fold. Drift
/// entries are re-indexed densely in execution order (the fold's indices
/// are node or log-key positions, with gaps).
///
/// Localization goes by each layer's worst *robust* frame score, never by
/// the mean: a NaN/Inf produced by one backend makes `mean_nrmse` NaN, and
/// `NaN > threshold` is false — a mean-based scan would report the exact
/// defect class this debugger exists for as Equivalent.
fn localize(
    baseline_label: String,
    candidate_label: String,
    fold: &DriftFold,
    frames: usize,
    threshold: f32,
) -> DifferentialReport {
    let mut drift = fold.drift();
    let first_divergent = drift.iter().position(|d| d.max_nrmse > threshold).map(|i| {
        let d = &drift[i];
        DivergentLayer {
            index: i,
            layer: d.layer_name().to_string(),
            mean_nrmse: d.mean_nrmse,
            max_nrmse: d.max_nrmse,
            worst_frame: fold.worst(d.index).map_or(0, |(frame, _)| frame),
        }
    });
    for (i, d) in drift.iter_mut().enumerate() {
        d.index = i;
    }
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

/// The bisection pass: re-runs the graph under the **reference** backend to
/// obtain trusted operands for the divergent node, then executes that node
/// in isolation under both specs on those identical operands.
fn bisect(
    graph: &Graph,
    baseline: BackendSpec,
    candidate: BackendSpec,
    frame_inputs: &[Tensor],
    divergent: &DivergentLayer,
    report: &DifferentialReport,
) -> Result<BisectionOutcome> {
    let (id, node) = graph.node_by_name(&divergent.layer).ok_or_else(|| {
        ExrayError::Validation(format!(
            "divergent layer '{}' not present in the graph",
            divergent.layer
        ))
    })?;
    // Trusted operands: the frame replayed under the reference backend
    // (ML-EXray's known-correct runtime), whatever the baseline of the
    // differential run was. It is built preserving, so every tensor stays
    // readable after the invoke and the node's operands — graph constants,
    // the frame's own staged inputs, reference-prefix activations — are
    // read in place.
    let mut prefix = Interpreter::preserving(graph, BackendSpec::reference())?;
    prefix.invoke(frame_inputs)?;
    let operands = node
        .inputs
        .iter()
        .map(|&operand| prefix.tensor_value(operand))
        .collect::<Option<Vec<&Tensor>>>()
        .ok_or_else(|| ExrayError::Validation(format!("no operands for '{}'", divergent.layer)))?;
    let run = |spec: BackendSpec| -> Result<Vec<f32>> {
        let output = execute_node_with(active_engine(), spec, graph, id, &operands)?;
        Ok(output.to_f32_vec())
    };
    let a = run(baseline)?;
    let c = run(candidate)?;
    // Same non-finite-robust scoring as localization: identical NaNs agree
    // (score 0), differing values with a NaN/Inf on either side diverge
    // unconditionally.
    let (_, isolated_nrmse) = frame_scores(&c, &a);
    Ok(BisectionOutcome {
        layer: divergent.layer.clone(),
        frame: divergent.worst_frame,
        isolated_nrmse,
        // How clean the prefix agreement backing the localization is.
        prefix_max_nrmse: report.drift[..divergent.index]
            .iter()
            .fold(0.0, |max, d| max.max(d.max_nrmse)),
        verdict: if isolated_nrmse > report.threshold {
            BisectionVerdict::OpLocal
        } else {
            BisectionVerdict::Propagated
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlexray_nn::{Activation, EdgeNumerics, GraphBuilder, KernelBugs, Padding};
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
        use crate::log::{LogRecord, LogSet, LogValue};
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
        let fold = DriftFold::of_logs(&candidate, &baseline);
        let report = localize("base".into(), "cand".into(), &fold, 1, 0.0);
        assert_eq!(report.verdict, DifferentialVerdict::Diverged);
        assert_eq!(report.divergent_layer(), Some("b"));
        assert_eq!(report.first_divergent.unwrap().max_nrmse, f32::INFINITY);

        // Identical NaNs are agreement; sign-of-zero-only differences do
        // not score; differing values with an Inf diverge unconditionally.
        assert_eq!(frame_scores(&[f32::NAN, 1.0], &[f32::NAN, 1.0]).1, 0.0);
        assert_eq!(frame_scores(&[0.0], &[-0.0]).1, 0.0);
        assert_eq!(frame_scores(&[f32::INFINITY], &[1.0]).1, f32::INFINITY);
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
            BackendSpec::optimized().with_bugs(KernelBugs {
                avgpool_double_division: true,
                ..KernelBugs::none()
            }),
            &frames,
            &DifferentialOptions::bitwise(),
        )
        .unwrap();
        assert_eq!(report.divergent_layer(), Some("ap"));
        assert_eq!(report.bisection.unwrap().verdict, BisectionVerdict::OpLocal);
    }
}
