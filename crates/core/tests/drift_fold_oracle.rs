//! The drift fold against the code it replaced. The log-scanning
//! `per_layer_drift` double loop and the differential debugger's
//! `worst_frame_score` are kept here, verbatim, as oracles; random log-set
//! pairs — missing layers, summary-only records, length mismatches,
//! duplicate `(frame, key)` records, unequal frame counts, interleaved
//! latency keys, shuffled record order, planted NaN/Inf/±0 — must produce
//! the same `LayerDrift`s and the same `(worst_frame, score)`s **bitwise**.
//!
//! The one deliberate difference: `LayerDrift::max_nrmse` is now the worst
//! *robust* score, so on a layer with a non-finite frame it is held to the
//! `worst_frame_score` oracle instead of the NaN-dropping `f32::max` one.

use proptest::prelude::*;

use mlexray_core::{per_layer_drift, DriftFold, LayerDrift, LogRecord, LogSet, LogValue};
use mlexray_tensor::{normalized_rmse, Shape, TensorStats};

fn oracle_per_layer_drift(edge: &LogSet, reference: &LogSet) -> Vec<LayerDrift> {
    let frames = edge.frame_count().min(reference.frame_count());
    let mut drifts = Vec::new();
    for (index, key) in edge.keys_with_prefix("layer/").iter().enumerate() {
        if !key.ends_with("/output") {
            continue;
        }
        let mut sum = 0.0f64;
        let mut max = 0.0f32;
        let mut compared = 0usize;
        for frame in 0..frames {
            let (Some(e), Some(r)) = (edge.get(frame, key), reference.get(frame, key)) else {
                continue;
            };
            let (Some(ev), Some(rv)) = (e.value.values(), r.value.values()) else {
                continue;
            };
            if ev.len() != rv.len() {
                continue;
            }
            let nrmse = normalized_rmse(ev, rv);
            sum += nrmse as f64;
            max = max.max(nrmse);
            compared += 1;
        }
        if compared > 0 {
            drifts.push(LayerDrift {
                index,
                key: (*key).to_string(),
                mean_nrmse: (sum / compared as f64) as f32,
                max_nrmse: max,
                frames: compared,
            });
        }
    }
    drifts
}

fn oracle_frame_score(candidate: &[f32], baseline: &[f32]) -> f32 {
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

fn oracle_worst_frame_score(candidate: &LogSet, baseline: &LogSet, key: &str) -> (u64, f32) {
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
        let score = oracle_frame_score(cv, bv);
        if score > worst.1 {
            worst = (frame, score);
        }
    }
    (worst.0, worst.1.max(0.0))
}

/// A word stream the generator decodes structure from.
struct Words<'a> {
    words: &'a [u32],
    at: usize,
}

impl Words<'_> {
    fn next(&mut self) -> u32 {
        let w = self.words[self.at % self.words.len()];
        self.at += 1;
        // Cycling the stream must not repeat decisions.
        w.rotate_left((self.at / self.words.len()) as u32 * 7)
    }

    fn below(&mut self, n: u32) -> u32 {
        self.next() % n
    }

    fn chance(&mut self, percent: u32) -> bool {
        self.below(100) < percent
    }
}

/// What both sides would log for `(layer, frame)` if nothing went wrong —
/// which, on some pairs, includes a NaN both sides agree on.
fn base_values(layer: usize, frame: u64, len: usize) -> Vec<f32> {
    let mut values: Vec<f32> = (0..len)
        .map(|i| ((layer * 31 + i) as f32 * 0.37 + frame as f32 * 1.3).sin() * (1.0 + layer as f32))
        .collect();
    if (layer as u64 + frame) % 4 == 3 {
        values[len / 2] = f32::NAN;
    }
    values
}

fn tensor(frame: u64, key: &str, values: Vec<f32>) -> LogRecord {
    LogRecord {
        frame,
        key: key.into(),
        value: LogValue::TensorFull {
            shape: Shape::vector(values.len()),
            values,
        },
    }
}

/// One side's log set. `perturb` is the share of layer outputs that deviate
/// from the base values (the other share is bitwise what the other side
/// logs, unless that side deviated).
fn side(w: &mut Words<'_>, layers: usize, frames: u64, perturb: u32) -> LogSet {
    let mut records = Vec::new();
    for frame in 0..frames {
        if w.chance(50) {
            records.push(LogRecord {
                frame,
                key: "inference/latency_ns".into(),
                value: LogValue::LatencyNs(w.next() as u64),
            });
        }
        for layer in 0..layers {
            let output = format!("layer/l{layer}/output");
            let latency = format!("layer/l{layer}/latency_ns");
            if w.chance(60) {
                records.push(LogRecord {
                    frame,
                    key: latency,
                    value: LogValue::LatencyNs(w.next() as u64),
                });
            }
            if w.chance(12) {
                continue; // this side never logged the layer on this frame
            }
            let copies = if w.chance(15) { 2 } else { 1 };
            for _ in 0..copies {
                if w.chance(8) {
                    records.push(LogRecord {
                        frame,
                        key: output.clone(),
                        value: LogValue::TensorSummary(TensorStats::of(&[1.0, 2.0])),
                    });
                    continue;
                }
                let len = if w.chance(8) { 5 } else { 3 + layer * 7 };
                let mut values = base_values(layer, frame, len);
                if w.chance(perturb) {
                    for v in &mut values {
                        *v += (w.below(2001) as f32 - 1000.0) * 1e-4;
                    }
                }
                if w.chance(15) {
                    let special = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0]
                        [w.below(5) as usize];
                    let at = w.below(values.len() as u32) as usize;
                    values[at] = special;
                }
                records.push(tensor(frame, &output, values));
            }
        }
    }
    // Logs need not arrive in frame order, nor layers in execution order.
    for _ in 0..w.below(4) {
        if records.len() > 1 {
            let (a, b) = (
                w.below(records.len() as u32) as usize,
                w.below(records.len() as u32) as usize,
            );
            records.swap(a, b);
        }
    }
    LogSet::new(records)
}

/// A value's bit pattern — every NaN as one pattern: Rust leaves the sign
/// and payload of a NaN *result* unspecified, and an optimized build does
/// pick a different operand's than an unoptimized one.
fn value_bits(v: f32) -> u32 {
    if v.is_nan() {
        f32::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

fn bits(d: &LayerDrift) -> (usize, &str, u32, u32, usize) {
    (
        d.index,
        d.key.as_str(),
        value_bits(d.mean_nrmse),
        value_bits(d.max_nrmse),
        d.frames,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn fold_matches_the_log_scanning_oracles_bitwise(
        words in prop::collection::vec(0u32..=u32::MAX, 48..256),
        layers in 1usize..5,
        edge_frames in 1u64..6,
        reference_frames in 1u64..6,
    ) {
        let mut w = Words { words: &words, at: 0 };
        let edge = side(&mut w, layers, edge_frames, 60);
        let reference = side(&mut w, layers, reference_frames, 10);

        let fold = DriftFold::of_logs(&edge, &reference);
        let drift = fold.drift();
        let expected = oracle_per_layer_drift(&edge, &reference);
        prop_assert_eq!(drift.len(), expected.len());
        for (got, want) in drift.iter().zip(&expected) {
            let (frame, score) = oracle_worst_frame_score(&edge, &reference, &want.key);
            let mut want = want.clone();
            if !want.mean_nrmse.is_finite() {
                // Some frame was non-finite: the old maximum dropped it.
                want.max_nrmse = score;
            }
            prop_assert_eq!(bits(got), bits(&want));
            prop_assert_eq!(got.max_nrmse.to_bits(), score.to_bits());
            let worst = fold.worst(got.index).map(|(frame, score)| (frame, score.to_bits()));
            prop_assert_eq!(worst, Some((frame, score.to_bits())));
        }
        let direct = per_layer_drift(&edge, &reference);
        prop_assert_eq!(
            direct.iter().map(bits).collect::<Vec<_>>(),
            drift.iter().map(bits).collect::<Vec<_>>()
        );
    }
}

/// Folding shard by shard and absorbing in start order is folding the whole
/// run: the lockstep differential engine's merge rule.
#[test]
fn absorbed_shard_folds_equal_one_fold() {
    let frames = 7u64;
    let layers = 3usize;
    let pair = |layer: usize, frame: u64| {
        let baseline: Vec<f32> = (0..9)
            .map(|i| ((layer * 9 + i) as f32 * 0.41 + frame as f32).cos())
            .collect();
        let candidate: Vec<f32> = baseline
            .iter()
            .enumerate()
            .map(|(i, v)| v + ((frame as usize + i) % 3) as f32 * 1e-3)
            .collect();
        (candidate, baseline)
    };
    let feed = |fold: &mut DriftFold, range: std::ops::Range<u64>| {
        for frame in range {
            for layer in 0..layers {
                let (candidate, baseline) = pair(layer, frame);
                fold.fold(
                    layer * 2,
                    || format!("layer/l{layer}/output"),
                    frame,
                    &candidate,
                    &baseline,
                );
            }
        }
    };
    let mut whole = DriftFold::default();
    feed(&mut whole, 0..frames);
    let mut merged = DriftFold::default();
    for range in [0..3, 3..6, 6..7] {
        let mut shard = DriftFold::default();
        feed(&mut shard, range);
        merged.absorb(shard);
    }
    assert_eq!(merged.drift(), whole.drift());
    for layer in 0..layers {
        assert_eq!(merged.worst(layer * 2), whole.worst(layer * 2));
    }
    assert_eq!(whole.drift().len(), layers);
    assert_eq!(whole.worst(1), None, "layer 1 was never folded");
}
