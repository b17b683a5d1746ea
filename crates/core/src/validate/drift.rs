//! Per-layer output drift: the normalized-rMSE analysis of §3.4 that
//! produces Fig. 6 and localizes error-prone ops.
//!
//! Everything reads one accumulator, the [`DriftFold`]: it sees each (layer,
//! frame) pair of tensors once and keeps four bytes of it; [`LayerDrift`],
//! the suspects, `quantization_drift` and the differential debugger's
//! first-divergent localization are all derived from what it kept.
//!
//! A fold is fed from two finished log sets ([`DriftFold::of_logs`]) or in
//! lockstep, with no log record built: per micro-batch chunk the baseline
//! interpreter's observer copies each compared layer output into a reused
//! [`ChunkCapture`], then the candidate's [`LockstepFold`] folds each of its
//! layer outputs against the captured one while it is hot. A [`NodeMap`]
//! says which nodes the two sides compare. The differential debugger and
//! `replay_validate_sharded` both run this one pair.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};

use mlexray_nn::{Graph, LayerObserver, LayerRecord};
use mlexray_tensor::{normalized_rmse, Tensor};

use crate::log::{layer_output_key, LogSet};

/// Drift of one layer between the edge and reference pipelines, aggregated
/// over frames.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerDrift {
    /// Position of the layer's output key among the edge logs' `layer/`
    /// keys: execution order when only outputs are logged, stepping by 2
    /// when each output is followed by its latency key. Differential reports
    /// renumber their layers densely from 0.
    pub index: usize,
    /// Layer log key (`layer/<name>/output`).
    pub key: String,
    /// Mean normalized rMSE over compared frames.
    pub mean_nrmse: f32,
    /// Worst-frame normalized rMSE; `+inf` when on some frame the two sides
    /// differ and either carries a NaN/Inf (never dropped, as a NaN would be).
    pub max_nrmse: f32,
    /// Number of frames compared.
    pub frames: usize,
}

impl LayerDrift {
    /// The bare layer name (strips the `layer/` prefix and `/output`
    /// suffix).
    pub fn layer_name(&self) -> &str {
        self.key
            .strip_prefix("layer/")
            .and_then(|s| s.strip_suffix("/output"))
            .unwrap_or(&self.key)
    }

    /// What thresholds and rankings read: the mean — or `+inf` for a layer
    /// that diverged non-finitely, whose NaN mean compares below everything.
    pub fn severity(&self) -> f32 {
        if self.max_nrmse.is_finite() {
            self.mean_nrmse
        } else {
            f32::INFINITY
        }
    }
}

#[derive(Debug, Clone)]
struct LayerFold {
    key: String,
    /// Each compared frame's nRMSE, in the order the mean sums them.
    nrmse: Vec<f32>,
    /// The worst robust score and its frame. A later frame must beat it
    /// strictly: ties stay with the lowest frame.
    worst: (u64, f32),
}

/// The per-layer drift accumulator, keyed by [`LayerDrift::index`].
/// Feed it the moment both sides of a layer exist ([`DriftFold::fold`]) or
/// from two finished log sets ([`DriftFold::of_logs`]); per-shard folds
/// concatenate with [`DriftFold::absorb`]. Fold (and absorb) each layer's
/// frames in ascending order: the mean is summed in that order.
#[derive(Debug, Clone, Default)]
pub struct DriftFold {
    layers: BTreeMap<usize, LayerFold>,
}

impl DriftFold {
    fn layer_mut(&mut self, index: usize, key: impl FnOnce() -> String) -> &mut LayerFold {
        self.layers.entry(index).or_insert_with(|| LayerFold {
            key: key(),
            nrmse: Vec::new(),
            worst: (0, f32::NEG_INFINITY),
        })
    }

    /// Scores one layer's output on one frame (`frame_scores`). `index`
    /// identifies the layer and orders it; `key` names it on first sight. Pairs of unequal length are not comparable and are skipped.
    pub fn fold(
        &mut self,
        index: usize,
        key: impl FnOnce() -> String,
        frame: u64,
        candidate: &[f32],
        baseline: &[f32],
    ) {
        if candidate.len() != baseline.len() {
            return;
        }
        let (nrmse, score) = frame_scores(candidate, baseline);
        let layer = self.layer_mut(index, key);
        layer.nrmse.push(nrmse);
        if score > layer.worst.1 {
            layer.worst = (frame, score);
        }
    }

    /// Appends a later shard's fold: absorb shards in start-frame order.
    pub fn absorb(&mut self, later: DriftFold) {
        for (index, shard) in later.layers {
            let layer = self.layer_mut(index, || shard.key);
            layer.nrmse.extend(shard.nrmse);
            if shard.worst.1 > layer.worst.1 {
                layer.worst = shard.worst;
            }
        }
    }

    /// The fold of two finished log sets, matching layers *by name* (graph
    /// variants insert/remove nodes, so indices don't align — names are
    /// stable across conversion and quantization in this stack). Layers
    /// appearing in only one pipeline (e.g. `Quantize` boundaries) are
    /// skipped, as are frames where either side logged only summaries.
    /// Each side is indexed once; of two records with the same `(frame,
    /// key)` the first counts.
    pub fn of_logs(edge: &LogSet, reference: &LogSet) -> DriftFold {
        let frames = edge.frame_count().min(reference.frame_count());
        let (edge_outputs, reference_outputs) = (layer_outputs(edge), layer_outputs(reference));
        let mut fold = DriftFold::default();
        let keys = edge.keys_with_prefix("layer/").into_iter().enumerate();
        for (index, key) in keys.filter(|(_, key)| key.ends_with("/output")) {
            for frame in 0..frames {
                let at = (frame, key);
                let pair = (edge_outputs.get(&at), reference_outputs.get(&at));
                if let (Some(Some(ev)), Some(Some(rv))) = pair {
                    fold.fold(index, || key.to_string(), frame, ev, rv);
                }
            }
        }
        fold
    }

    /// The frame of a layer's worst robust score, with the score.
    pub fn worst(&self, index: usize) -> Option<(u64, f32)> {
        self.layers.get(&index).map(|l| l.worst)
    }

    /// Per-layer drift in `index` order.
    pub fn drift(&self) -> Vec<LayerDrift> {
        let drift = self.layers.iter().map(|(&index, l)| {
            let sum = l.nrmse.iter().fold(0.0, |sum, &v| sum + v as f64);
            LayerDrift {
                index,
                key: l.key.clone(),
                mean_nrmse: (sum / l.nrmse.len() as f64) as f32,
                max_nrmse: l.worst.1,
                frames: l.nrmse.len(),
            }
        });
        drift.collect()
    }
}

/// One equal-length pair's `(nrmse, robust score)`. The score is exactly
/// `0.0` for bitwise-identical values (identical NaNs included), `+inf` when
/// the values differ and either side carries a NaN/Inf (that must never
/// score below a threshold), the nRMSE otherwise (so `0.0` for ±0 alone).
pub(crate) fn frame_scores(candidate: &[f32], baseline: &[f32]) -> (f32, f32) {
    let nrmse = normalized_rmse(candidate, baseline);
    // Finite values that agree bitwise have an nRMSE of exactly 0.0, so only
    // a non-finite result needs the second walk.
    let mut pairs = candidate.iter().zip(baseline);
    let score = if nrmse.is_finite() {
        nrmse
    } else if pairs.all(|(c, b)| c.to_bits() == b.to_bits()) {
        0.0
    } else {
        f32::INFINITY
    };
    (nrmse, score)
}

/// Every `(frame, key)`'s first `layer/*/output` record: its values, `None` for a summary.
fn layer_outputs(logs: &LogSet) -> HashMap<(u64, &str), Option<&[f32]>> {
    let mut index = HashMap::new();
    for r in logs.records() {
        if r.key.starts_with("layer/") && r.key.ends_with("/output") {
            index
                .entry((r.frame, r.key.as_str()))
                .or_insert(r.value.values());
        }
    }
    index
}

/// A layer output as the real values both sides are compared in: float
/// tensors are read in place, quantized ones dequantized (as logs are).
fn real_values(tensor: &Tensor) -> Cow<'_, [f32]> {
    match tensor.as_f32() {
        Ok(values) => Cow::Borrowed(values),
        Err(_) => Cow::Owned(tensor.to_f32_vec()),
    }
}

/// Which nodes of a baseline and a candidate graph a lockstep fold
/// compares: each compared pair shares one capture slot.
#[derive(Debug, Clone)]
pub(crate) struct NodeMap {
    /// The slot each baseline node is captured in; `None` when no candidate
    /// node compares with it.
    baseline: Vec<Option<usize>>,
    /// The slot each candidate node is compared with; `None` for a node the
    /// baseline lacks.
    candidate: Vec<Option<usize>>,
    /// Candidate node `i` folds at index `i * stride`.
    stride: usize,
    slots: usize,
}

impl NodeMap {
    /// Two graphs matched *by name*, as [`DriftFold::of_logs`] matches keys
    /// (conversion and quantization insert and remove nodes, so two graph
    /// variants' indices don't align): the first node of each name on each
    /// side; nodes only one side has (e.g. `Quantize` boundaries) are
    /// skipped. On one graph every node compares with itself. Candidate
    /// node `i` folds at `i * stride` — with `stride` `1 + layer_latency`,
    /// the position of its output key among the candidate's `layer/` log
    /// keys.
    pub(crate) fn by_name(baseline: &Graph, candidate: &Graph, stride: usize) -> Self {
        let mut first: HashMap<&str, usize> = HashMap::new();
        for (i, node) in baseline.nodes().iter().enumerate() {
            first.entry(node.name.as_str()).or_insert(i);
        }
        let mut map = NodeMap {
            baseline: vec![None; baseline.nodes().len()],
            candidate: vec![None; candidate.nodes().len()],
            stride,
            slots: 0,
        };
        for (i, node) in candidate.nodes().iter().enumerate() {
            // `remove`: a later candidate node of the same name finds none.
            if let Some(j) = first.remove(node.name.as_str()) {
                map.baseline[j] = Some(map.slots);
                map.candidate[i] = Some(map.slots);
                map.slots += 1;
            }
        }
        map
    }
}

/// The baseline's compared layer outputs of one micro-batch chunk, one
/// buffer per (slot, in-chunk frame) at `slot * width + frame`, reused chunk
/// to chunk.
pub(crate) struct ChunkCapture<'m> {
    nodes: &'m NodeMap,
    width: usize,
    outputs: Vec<Vec<f32>>,
}

impl<'m> ChunkCapture<'m> {
    /// An empty capture for chunks of up to `width` frames.
    pub(crate) fn new(nodes: &'m NodeMap, width: usize) -> Self {
        ChunkCapture {
            nodes,
            width,
            outputs: vec![Vec::new(); nodes.slots * width],
        }
    }
}

impl LayerObserver for ChunkCapture<'_> {
    fn on_layer(&mut self, record: &LayerRecord<'_>) {
        if let Some(slot) = self.nodes.baseline[record.index] {
            let buffer = &mut self.outputs[slot * self.width + record.batch];
            buffer.clear();
            buffer.extend_from_slice(&real_values(record.output));
        }
    }
}

/// The candidate's observer: folds each layer output against the baseline's
/// captured one while both are hot (`candidate`, `baseline` in
/// [`DriftFold::fold`]'s order).
pub(crate) struct LockstepFold<'a> {
    baseline: &'a ChunkCapture<'a>,
    /// Frame number of the chunk's first frame.
    base: u64,
    fold: &'a mut DriftFold,
}

impl<'a> LockstepFold<'a> {
    /// Folds a chunk whose first frame is `base` against `baseline`.
    pub(crate) fn new(baseline: &'a ChunkCapture<'a>, base: u64, fold: &'a mut DriftFold) -> Self {
        LockstepFold {
            baseline,
            base,
            fold,
        }
    }
}

impl LayerObserver for LockstepFold<'_> {
    fn on_layer(&mut self, record: &LayerRecord<'_>) {
        let capture = self.baseline;
        let Some(slot) = capture.nodes.candidate[record.index] else {
            return;
        };
        let baseline = &capture.outputs[slot * capture.width + record.batch];
        let index = record.index * capture.nodes.stride;
        let key = || layer_output_key(record.name);
        let frame = self.base + record.batch as u64;
        self.fold
            .fold(index, key, frame, &real_values(record.output), baseline);
    }
}

/// Per-layer normalized rMSE between two log sets: [`DriftFold::of_logs`]
/// read as [`DriftFold::drift`].
pub fn per_layer_drift(edge: &LogSet, reference: &LogSet) -> Vec<LayerDrift> {
    DriftFold::of_logs(edge, reference).drift()
}

/// Layers whose mean drift exceeds `threshold` — the suspects list. A
/// non-finite layer is over any threshold ([`LayerDrift::severity`]).
pub fn layers_above(drifts: &[LayerDrift], threshold: f32) -> Vec<&LayerDrift> {
    drifts.iter().filter(|d| d.severity() > threshold).collect()
}

/// The first layer whose drift jumps by more than `factor` over the running
/// maximum of all earlier layers — "a jump of rMSE after a particular op can
/// indicate an error in that op" (§3.4).
pub fn first_drift_jump(drifts: &[LayerDrift], factor: f32) -> Option<&LayerDrift> {
    let mut running_max = 0.0f32;
    for d in drifts {
        if running_max > 0.0 && d.mean_nrmse > running_max * factor {
            return Some(d);
        }
        if running_max == 0.0 && d.mean_nrmse > 0.05 {
            // A jump from (near-)zero is also a jump.
            return Some(d);
        }
        running_max = running_max.max(d.mean_nrmse);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{LogRecord, LogValue};
    use mlexray_tensor::Shape;

    fn tensor_record(frame: u64, key: &str, values: Vec<f32>) -> LogRecord {
        LogRecord {
            frame,
            key: key.into(),
            value: LogValue::TensorFull {
                shape: Shape::vector(values.len()),
                values,
            },
        }
    }

    fn logsets() -> (LogSet, LogSet) {
        let reference = LogSet::new(vec![
            tensor_record(0, "layer/a/output", vec![0.0, 1.0]),
            tensor_record(0, "layer/b/output", vec![0.0, 2.0]),
        ]);
        let edge = LogSet::new(vec![
            tensor_record(0, "layer/a/output", vec![0.0, 1.0]),
            tensor_record(0, "layer/b/output", vec![2.0, 0.0]),
        ]);
        (edge, reference)
    }

    #[test]
    fn drift_is_zero_for_identical_layers() {
        let (edge, reference) = logsets();
        let drifts = per_layer_drift(&edge, &reference);
        assert_eq!(drifts.len(), 2);
        assert_eq!(drifts[0].mean_nrmse, 0.0);
        assert!(drifts[1].mean_nrmse > 0.5);
        assert_eq!(drifts[1].layer_name(), "b");
    }

    #[test]
    fn suspects_and_jumps() {
        let (edge, reference) = logsets();
        let drifts = per_layer_drift(&edge, &reference);
        let suspects = layers_above(&drifts, 0.1);
        assert_eq!(suspects.len(), 1);
        assert_eq!(suspects[0].layer_name(), "b");
        let jump = first_drift_jump(&drifts, 3.0).unwrap();
        assert_eq!(jump.layer_name(), "b");
    }

    #[test]
    fn mismatched_layers_skipped() {
        let reference = LogSet::new(vec![tensor_record(0, "layer/a/output", vec![1.0])]);
        let edge = LogSet::new(vec![
            tensor_record(0, "layer/a/output", vec![1.0]),
            tensor_record(0, "layer/only_edge/output", vec![1.0]),
        ]);
        let drifts = per_layer_drift(&edge, &reference);
        assert_eq!(drifts.len(), 1);
    }

    #[test]
    fn no_jump_in_flat_profile() {
        let drifts = vec![
            LayerDrift {
                index: 0,
                key: "layer/a/output".into(),
                mean_nrmse: 0.01,
                max_nrmse: 0.01,
                frames: 1,
            },
            LayerDrift {
                index: 1,
                key: "layer/b/output".into(),
                mean_nrmse: 0.012,
                max_nrmse: 0.02,
                frames: 1,
            },
        ];
        assert!(first_drift_jump(&drifts, 3.0).is_none());
    }
}
