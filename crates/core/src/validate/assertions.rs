//! The assertion framework (§3.2/§3.4): built-in root-cause checks for the
//! §2 bug classes plus user-defined assertions.
//!
//! An assertion inspects the edge and reference logs and reports whether its
//! bug class is present. `Fail` means *the bug was detected* (with a
//! diagnostic), `Pass` means the check ran and found nothing, `Skipped`
//! means the logs lacked the data the check needs.

use std::cell::OnceCell;

use mlexray_tensor::{allclose, Shape, TensorStats};

use crate::log::{LogSet, LogValue, KEY_MODEL_OUTPUT, KEY_PREPROCESS_OUTPUT};
use crate::validate::drift::{layers_above, per_layer_drift, LayerDrift};
use crate::validate::latency::{per_layer_latency, stragglers};

/// Result status of one assertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssertionStatus {
    /// Check ran; bug not present.
    Pass,
    /// Check ran; bug detected.
    Fail,
    /// Logs lacked the needed records.
    Skipped,
}

/// Outcome of one assertion.
#[derive(Debug, Clone, PartialEq)]
pub struct AssertionOutcome {
    /// Assertion name.
    pub name: String,
    /// Status.
    pub status: AssertionStatus,
    /// Human-readable diagnostic.
    pub detail: String,
}

impl AssertionOutcome {
    fn pass(name: &str, detail: impl Into<String>) -> Self {
        AssertionOutcome {
            name: name.into(),
            status: AssertionStatus::Pass,
            detail: detail.into(),
        }
    }

    fn fail(name: &str, detail: impl Into<String>) -> Self {
        AssertionOutcome {
            name: name.into(),
            status: AssertionStatus::Fail,
            detail: detail.into(),
        }
    }

    fn skipped(name: &str, detail: impl Into<String>) -> Self {
        AssertionOutcome {
            name: name.into(),
            status: AssertionStatus::Skipped,
            detail: detail.into(),
        }
    }
}

/// What an assertion sees: both pipelines' logs, and the per-layer drift
/// between them, computed once by whoever asks first (the validator for its
/// report, or an assertion in a context built by hand) — or folded while
/// the logs were made, by [`crate::replay_validate_sharded`], whose logs
/// hold no `layer/*/output` records.
#[derive(Debug, Clone)]
pub struct ValidationContext<'a> {
    /// Edge (instrumented app) logs.
    pub edge: &'a LogSet,
    /// Reference pipeline logs.
    pub reference: &'a LogSet,
    drift: OnceCell<Vec<LayerDrift>>,
}

impl<'a> ValidationContext<'a> {
    /// A context over a pair of log sets.
    pub fn new(edge: &'a LogSet, reference: &'a LogSet) -> Self {
        ValidationContext {
            edge,
            reference,
            drift: OnceCell::new(),
        }
    }

    /// A context whose per-layer drift was folded while its logs were made
    /// (the logs need not hold the layer outputs).
    pub(crate) fn with_drift(
        edge: &'a LogSet,
        reference: &'a LogSet,
        drift: Vec<LayerDrift>,
    ) -> Self {
        ValidationContext {
            edge,
            reference,
            drift: OnceCell::from(drift),
        }
    }

    /// [`per_layer_drift`] of the edge logs against the reference logs, or
    /// the drift the context was made with.
    pub fn drift(&self) -> &[LayerDrift] {
        let compute = || per_layer_drift(self.edge, self.reference);
        self.drift.get_or_init(compute)
    }
}

/// A root-cause check over a pair of log sets.
pub trait Assertion: Send + Sync {
    /// Display name.
    fn name(&self) -> &str;

    /// Runs the check.
    fn check(&self, ctx: &ValidationContext<'_>) -> AssertionOutcome;
}

/// Fetches matching full preprocess-output tensors of a frame.
fn preprocess_pair<'a>(
    ctx: &ValidationContext<'a>,
    frame: u64,
) -> Option<(&'a Shape, &'a [f32], &'a [f32])> {
    let e = ctx.edge.get(frame, KEY_PREPROCESS_OUTPUT)?;
    let r = ctx.reference.get(frame, KEY_PREPROCESS_OUTPUT)?;
    let (LogValue::TensorFull { shape, values: ev }, LogValue::TensorFull { values: rv, .. }) =
        (&e.value, &r.value)
    else {
        return None;
    };
    (ev.len() == rv.len()).then_some((shape, ev.as_slice(), rv.as_slice()))
}

const CLOSE_RTOL: f32 = 1e-3;
const CLOSE_ATOL: f32 = 1e-3;

/// Swaps the first and last channel of an NHWC buffer.
fn swap_channels(shape: &Shape, values: &[f32]) -> Option<Vec<f32>> {
    let c = shape.channels()?;
    if c < 3 {
        return None;
    }
    let mut out = values.to_vec();
    for px in out.chunks_exact_mut(c) {
        px.swap(0, 2);
    }
    Some(out)
}

/// Rotates the spatial grid of an NHWC buffer clockwise by 90°·turns.
fn rotate_values(shape: &Shape, values: &[f32], turns: usize) -> Option<Vec<f32>> {
    let (h, w, c) = (shape.height()?, shape.width()?, shape.channels()?);
    if turns % 2 == 1 && h != w {
        return None; // 90°/270° change the shape unless square.
    }
    let mut cur = values.to_vec();
    let (mut ch, mut cw) = (h, w);
    for _ in 0..turns % 4 {
        let mut next = vec![0.0f32; cur.len()];
        // (y, x) -> (x, ch-1-y) for one clockwise turn.
        for y in 0..ch {
            for x in 0..cw {
                for k in 0..c {
                    next[(x * ch + (ch - 1 - y)) * c + k] = cur[(y * cw + x) * c + k];
                }
            }
        }
        cur = next;
        std::mem::swap(&mut ch, &mut cw);
    }
    Some(cur)
}

/// Least-squares fit `edge ≈ a * reference + b`; returns `(a, b, rms_resid)`.
fn linear_fit(edge: &[f32], reference: &[f32]) -> (f32, f32, f32) {
    let n = edge.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for (&y, &x) in edge.iter().zip(reference) {
        sx += x as f64;
        sy += y as f64;
        sxx += (x as f64) * (x as f64);
        sxy += (x as f64) * (y as f64);
    }
    let denom = n * sxx - sx * sx;
    let (a, b) = if denom.abs() < 1e-12 {
        (1.0, (sy - sx) / n)
    } else {
        let a = (n * sxy - sx * sy) / denom;
        ((a), (sy - a * sx) / n)
    };
    let mut resid = 0.0f64;
    for (&y, &x) in edge.iter().zip(reference) {
        let d = y as f64 - (a * x as f64 + b);
        resid += d * d;
    }
    ((a) as f32, b as f32, ((resid / n).sqrt()) as f32)
}

/// Detects RGB↔BGR channel-extraction bugs (§2): if the edge preprocessing
/// output matches the reference *after* swapping channels, the arrangement
/// is wrong.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChannelArrangementAssertion;

impl Assertion for ChannelArrangementAssertion {
    fn name(&self) -> &str {
        "channel_arrangement"
    }

    fn check(&self, ctx: &ValidationContext<'_>) -> AssertionOutcome {
        let Some((shape, edge, reference)) = preprocess_pair(ctx, 0) else {
            return AssertionOutcome::skipped(self.name(), "no full preprocess outputs logged");
        };
        if allclose(edge, reference, CLOSE_RTOL, CLOSE_ATOL) {
            return AssertionOutcome::pass(self.name(), "preprocess outputs match");
        }
        let Some(swapped) = swap_channels(shape, edge) else {
            return AssertionOutcome::pass(self.name(), "not a multi-channel tensor");
        };
        if allclose(&swapped, reference, CLOSE_RTOL, CLOSE_ATOL) {
            return AssertionOutcome::fail(
                self.name(),
                "channel arrangement mismatch: edge output matches reference after BGR->RGB swap",
            );
        }
        // Bugs compose (§2: "multiple issues can exist together"); try the
        // swap combined with each rotation.
        for turns in 1..4 {
            if let Some(candidate) = rotate_values(shape, &swapped, turns) {
                if allclose(&candidate, reference, CLOSE_RTOL, CLOSE_ATOL) {
                    return AssertionOutcome::fail(
                        self.name(),
                        format!(
                            "channel arrangement mismatch (combined with a {}° rotation)",
                            90 * turns
                        ),
                    );
                }
            }
        }
        AssertionOutcome::pass(self.name(), "difference is not a channel swap")
    }
}

/// Detects normalization-scale bugs (§2): fits `edge ≈ a·reference + b`; a
/// tight linear fit with non-identity coefficients means the numerical
/// conversion used the wrong scale (e.g. `[0,1]` vs `[-1,1]`, raw bytes).
/// Also covers the audio spectrogram-normalization mismatch of Fig. 4(c).
#[derive(Debug, Clone, Copy, Default)]
pub struct NormalizationRangeAssertion;

impl Assertion for NormalizationRangeAssertion {
    fn name(&self) -> &str {
        "normalization_range"
    }

    fn check(&self, ctx: &ValidationContext<'_>) -> AssertionOutcome {
        let Some((_, edge, reference)) = preprocess_pair(ctx, 0) else {
            return AssertionOutcome::skipped(self.name(), "no full preprocess outputs logged");
        };
        if allclose(edge, reference, CLOSE_RTOL, CLOSE_ATOL) {
            return AssertionOutcome::pass(self.name(), "preprocess outputs match");
        }
        let (a, b, resid) = linear_fit(edge, reference);
        let ref_stats = TensorStats::of(reference);
        let scale = ref_stats.range().max(1e-6);
        let identity = (a - 1.0).abs() < 0.02 && b.abs() < 0.02 * scale;
        if !identity && resid < 0.02 * scale {
            AssertionOutcome::fail(
                self.name(),
                format!(
                    "normalization mismatch: edge ≈ {a:.3} * reference + {b:.3} \
                     (reference range [{:.2}, {:.2}])",
                    ref_stats.min, ref_stats.max
                ),
            )
        } else {
            AssertionOutcome::pass(self.name(), "difference is not a global affine rescale")
        }
    }
}

/// Detects disoriented input (§2): if the edge output matches the reference
/// after un-rotating by 90°/180°/270°, the capture orientation is wrong.
#[derive(Debug, Clone, Copy, Default)]
pub struct OrientationAssertion;

impl Assertion for OrientationAssertion {
    fn name(&self) -> &str {
        "orientation"
    }

    fn check(&self, ctx: &ValidationContext<'_>) -> AssertionOutcome {
        let Some((shape, edge, reference)) = preprocess_pair(ctx, 0) else {
            return AssertionOutcome::skipped(self.name(), "no full preprocess outputs logged");
        };
        if allclose(edge, reference, CLOSE_RTOL, CLOSE_ATOL) {
            return AssertionOutcome::pass(self.name(), "preprocess outputs match");
        }
        for turns in 1..4 {
            if let Some(rotated) = rotate_values(shape, edge, turns) {
                if allclose(&rotated, reference, CLOSE_RTOL, CLOSE_ATOL) {
                    return AssertionOutcome::fail(
                        self.name(),
                        format!(
                            "input disoriented: edge output matches reference after {}° rotation",
                            90 * turns
                        ),
                    );
                }
                // Composed with a channel swap (§2's stacked-bug case).
                if let Some(candidate) = swap_channels(shape, &rotated) {
                    if allclose(&candidate, reference, CLOSE_RTOL, CLOSE_ATOL) {
                        return AssertionOutcome::fail(
                            self.name(),
                            format!(
                                "input disoriented: matches reference after {}° rotation \
                                 combined with a channel swap",
                                90 * turns
                            ),
                        );
                    }
                }
            }
        }
        AssertionOutcome::pass(self.name(), "difference is not a rotation")
    }
}

/// Heuristically flags resampling-function mismatches (§2): preprocess
/// outputs that differ mildly with matching global statistics, after channel
/// / normalization / orientation are ruled out, point at the resizer.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResizeFunctionAssertion;

impl Assertion for ResizeFunctionAssertion {
    fn name(&self) -> &str {
        "resize_function"
    }

    fn check(&self, ctx: &ValidationContext<'_>) -> AssertionOutcome {
        let Some((shape, edge, reference)) = preprocess_pair(ctx, 0) else {
            return AssertionOutcome::skipped(self.name(), "no full preprocess outputs logged");
        };
        if allclose(edge, reference, CLOSE_RTOL, CLOSE_ATOL) {
            return AssertionOutcome::pass(self.name(), "preprocess outputs match");
        }
        // Rule out the structured causes first.
        let channel = ChannelArrangementAssertion.check(ctx).status == AssertionStatus::Fail;
        let norm = NormalizationRangeAssertion.check(ctx).status == AssertionStatus::Fail;
        let orient = OrientationAssertion.check(ctx).status == AssertionStatus::Fail;
        if channel || norm || orient {
            return AssertionOutcome::pass(self.name(), "explained by another preprocessing bug");
        }
        let _ = shape;
        let es = TensorStats::of(edge);
        let rs = TensorStats::of(reference);
        let scale = rs.range().max(1e-6);
        let mean_close = (es.mean - rs.mean).abs() < 0.05 * scale;
        let nrmse = mlexray_tensor::normalized_rmse(edge, reference);
        if mean_close && nrmse < 0.35 {
            AssertionOutcome::fail(
                self.name(),
                format!(
                    "likely resampling mismatch: outputs differ (nRMSE {nrmse:.3}) while global \
                     statistics agree (mean {:.3} vs {:.3})",
                    es.mean, rs.mean
                ),
            )
        } else {
            AssertionOutcome::pass(self.name(), "difference too large for a resize mismatch")
        }
    }
}

/// Flags quantization/op defects: layers whose normalized rMSE against the
/// reference exceeds a threshold (§4.4's per-layer diagnosis).
#[derive(Debug, Clone, Copy)]
pub struct QuantizationDriftAssertion {
    /// Drift threshold (the paper treats ~0.1 as suspicious).
    pub threshold: f32,
}

impl Default for QuantizationDriftAssertion {
    fn default() -> Self {
        QuantizationDriftAssertion { threshold: 0.15 }
    }
}

impl Assertion for QuantizationDriftAssertion {
    fn name(&self) -> &str {
        "quantization_drift"
    }

    fn check(&self, ctx: &ValidationContext<'_>) -> AssertionOutcome {
        let drifts = ctx.drift();
        if drifts.is_empty() {
            return AssertionOutcome::skipped(self.name(), "no comparable per-layer outputs");
        }
        let suspects = layers_above(drifts, self.threshold);
        if suspects.is_empty() {
            return AssertionOutcome::pass(
                self.name(),
                format!(
                    "all {} compared layers below nRMSE {}",
                    drifts.len(),
                    self.threshold
                ),
            );
        }
        // Over a threshold means not NaN: the order is total.
        let mut worst = suspects.clone();
        worst.sort_by(|a, b| b.severity().total_cmp(&a.severity()));
        let list: Vec<String> = worst
            .iter()
            .take(3)
            .map(|d| {
                if d.max_nrmse.is_finite() {
                    format!("{} (nRMSE {:.3})", d.layer_name(), d.mean_nrmse)
                } else {
                    format!("{} (non-finite output)", d.layer_name())
                }
            })
            .collect();
        AssertionOutcome::fail(
            self.name(),
            format!(
                "{} error-prone layer(s); worst: {}",
                suspects.len(),
                list.join(", ")
            ),
        )
    }
}

/// Flags invalid/constant model output (§4.4: "0% accuracy with invalid or
/// constant output"): the edge output barely varies across frames while the
/// reference output does.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConstantOutputAssertion;

fn output_spread(logs: &LogSet) -> Option<f32> {
    let outs = logs.all(KEY_MODEL_OUTPUT);
    if outs.len() < 2 {
        return None;
    }
    // Mean abs deviation between consecutive frame outputs.
    let mut spread = 0.0f32;
    let mut n = 0usize;
    for pair in outs.windows(2) {
        let (Some(a), Some(b)) = (pair[0].value.values(), pair[1].value.values()) else {
            // Fall back to summary statistics.
            let (Some(sa), Some(sb)) = (pair[0].value.stats(), pair[1].value.stats()) else {
                continue;
            };
            spread += (sa.mean - sb.mean).abs() + (sa.max - sb.max).abs();
            n += 1;
            continue;
        };
        if a.len() == b.len() {
            spread += a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f32>() / a.len() as f32;
            n += 1;
        }
    }
    (n > 0).then(|| spread / n as f32)
}

impl Assertion for ConstantOutputAssertion {
    fn name(&self) -> &str {
        "constant_output"
    }

    fn check(&self, ctx: &ValidationContext<'_>) -> AssertionOutcome {
        let (Some(edge), Some(reference)) = (output_spread(ctx.edge), output_spread(ctx.reference))
        else {
            return AssertionOutcome::skipped(self.name(), "need model outputs over >= 2 frames");
        };
        if reference > 1e-5 && edge < reference * 0.01 {
            AssertionOutcome::fail(
                self.name(),
                format!(
                    "model output is (near-)constant across frames: spread {edge:.2e} vs \
                     reference {reference:.2e}"
                ),
            )
        } else {
            AssertionOutcome::pass(self.name(), "output varies with input")
        }
    }
}

/// Fails when mean end-to-end latency exceeds a budget.
#[derive(Debug, Clone, Copy)]
pub struct LatencyBudgetAssertion {
    /// Budget in milliseconds.
    pub budget_ms: f64,
}

impl Assertion for LatencyBudgetAssertion {
    fn name(&self) -> &str {
        "latency_budget"
    }

    fn check(&self, ctx: &ValidationContext<'_>) -> AssertionOutcome {
        let lats = ctx.edge.inference_latencies();
        if lats.is_empty() {
            return AssertionOutcome::skipped(self.name(), "no latency records");
        }
        let mean_ms = lats.iter().sum::<u64>() as f64 / lats.len() as f64 / 1e6;
        if mean_ms > self.budget_ms {
            AssertionOutcome::fail(
                self.name(),
                format!(
                    "mean latency {mean_ms:.2} ms exceeds budget {} ms",
                    self.budget_ms
                ),
            )
        } else {
            AssertionOutcome::pass(self.name(), format!("mean latency {mean_ms:.2} ms"))
        }
    }
}

/// Fails when any layer consumes more than a share of total latency —
/// the §4.5 straggler finder.
#[derive(Debug, Clone, Copy)]
pub struct StragglerLayerAssertion {
    /// Share threshold in (0, 1].
    pub share: f64,
}

impl Assertion for StragglerLayerAssertion {
    fn name(&self) -> &str {
        "straggler_layer"
    }

    fn check(&self, ctx: &ValidationContext<'_>) -> AssertionOutcome {
        let lat = per_layer_latency(ctx.edge);
        if lat.is_empty() {
            return AssertionOutcome::skipped(self.name(), "no per-layer latency records");
        }
        let found = stragglers(&lat, self.share);
        if found.is_empty() {
            AssertionOutcome::pass(self.name(), "no straggler layers")
        } else {
            let list: Vec<String> = found
                .iter()
                .take(3)
                .map(|l| format!("{} ({:.1}%)", l.layer_name(), l.share * 100.0))
                .collect();
            AssertionOutcome::fail(
                self.name(),
                format!("straggler layer(s): {}", list.join(", ")),
            )
        }
    }
}

/// Fails when peak activation memory exceeds a budget.
#[derive(Debug, Clone, Copy)]
pub struct MemoryBudgetAssertion {
    /// Budget in bytes.
    pub budget_bytes: u64,
}

impl Assertion for MemoryBudgetAssertion {
    fn name(&self) -> &str {
        "memory_budget"
    }

    fn check(&self, ctx: &ValidationContext<'_>) -> AssertionOutcome {
        let peaks: Vec<u64> = ctx
            .edge
            .all(crate::log::KEY_INFERENCE_MEMORY)
            .into_iter()
            .filter_map(|r| match r.value {
                LogValue::Bytes(b) => Some(b),
                _ => None,
            })
            .collect();
        match peaks.iter().max() {
            None => AssertionOutcome::skipped(self.name(), "no memory records"),
            Some(&peak) if peak > self.budget_bytes => AssertionOutcome::fail(
                self.name(),
                format!(
                    "peak activation memory {peak} B exceeds budget {} B",
                    self.budget_bytes
                ),
            ),
            Some(&peak) => {
                AssertionOutcome::pass(self.name(), format!("peak activation memory {peak} B"))
            }
        }
    }
}

/// A user-defined assertion from a closure — the §3.2 interface for custom
/// domain checks (lane distance, spectrogram sanity, ...), typically well
/// under 10 LoC.
pub struct FnAssertion {
    name: String,
    f: Box<dyn Fn(&ValidationContext<'_>) -> AssertionOutcome + Send + Sync>,
}

impl FnAssertion {
    /// Wraps a closure as an assertion.
    pub fn new(
        name: impl Into<String>,
        f: impl Fn(&ValidationContext<'_>) -> AssertionOutcome + Send + Sync + 'static,
    ) -> Self {
        FnAssertion {
            name: name.into(),
            f: Box::new(f),
        }
    }

    /// Builds a failing outcome (helper for closures).
    pub fn failed(name: &str, detail: impl Into<String>) -> AssertionOutcome {
        AssertionOutcome::fail(name, detail)
    }

    /// Builds a passing outcome (helper for closures).
    pub fn passed(name: &str, detail: impl Into<String>) -> AssertionOutcome {
        AssertionOutcome::pass(name, detail)
    }
}

impl Assertion for FnAssertion {
    fn name(&self) -> &str {
        &self.name
    }

    fn check(&self, ctx: &ValidationContext<'_>) -> AssertionOutcome {
        (self.f)(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::LogRecord;

    fn preprocess_logs(edge_vals: Vec<f32>, ref_vals: Vec<f32>, shape: Shape) -> (LogSet, LogSet) {
        let edge = LogSet::new(vec![LogRecord {
            frame: 0,
            key: KEY_PREPROCESS_OUTPUT.into(),
            value: LogValue::TensorFull {
                shape: shape.clone(),
                values: edge_vals,
            },
        }]);
        let reference = LogSet::new(vec![LogRecord {
            frame: 0,
            key: KEY_PREPROCESS_OUTPUT.into(),
            value: LogValue::TensorFull {
                shape,
                values: ref_vals,
            },
        }]);
        (edge, reference)
    }

    #[test]
    fn channel_assertion_catches_swap() {
        // 1x1x2x3: two pixels, channels reversed on the edge side.
        let reference = vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6];
        let edge = vec![0.3, 0.2, 0.1, 0.6, 0.5, 0.4];
        let (e, r) = preprocess_logs(edge, reference, Shape::nhwc(1, 1, 2, 3));
        let ctx = ValidationContext::new(&e, &r);
        let out = ChannelArrangementAssertion.check(&ctx);
        assert_eq!(out.status, AssertionStatus::Fail, "{}", out.detail);
        // And the normalization assertion must NOT fire on a channel swap.
        assert_eq!(
            NormalizationRangeAssertion.check(&ctx).status,
            AssertionStatus::Pass
        );
    }

    #[test]
    fn normalization_assertion_catches_rescale() {
        // Reference in [-1,1]; edge in [0,1]: edge = 0.5*ref + 0.5.
        let reference: Vec<f32> = vec![-1.0, -0.5, 0.0, 0.5, 1.0, 0.25];
        let edge: Vec<f32> = reference.iter().map(|v| 0.5 * v + 0.5).collect();
        let (e, r) = preprocess_logs(edge, reference, Shape::nhwc(1, 1, 2, 3));
        let ctx = ValidationContext::new(&e, &r);
        let out = NormalizationRangeAssertion.check(&ctx);
        assert_eq!(out.status, AssertionStatus::Fail, "{}", out.detail);
        assert!(out.detail.contains("0.5"), "{}", out.detail);
    }

    #[test]
    fn orientation_assertion_catches_rotation() {
        // 2x2 grid, 1 channel; edge rotated 90° cw relative to reference.
        // reference = [[1,2],[3,4]]; rotating it 90° cw gives [[3,1],[4,2]].
        // The edge pipeline saw a rotated capture, so un-rotating the edge by
        // another 90° must match: edge = rotate_cw(reference) by 3 turns = ccw.
        let reference = vec![1.0, 2.0, 3.0, 4.0];
        let edge = vec![2.0, 4.0, 1.0, 3.0];
        let (e, r) = preprocess_logs(edge, reference, Shape::nhwc(1, 2, 2, 1));
        let ctx = ValidationContext::new(&e, &r);
        let out = OrientationAssertion.check(&ctx);
        assert_eq!(out.status, AssertionStatus::Fail, "{}", out.detail);
    }

    /// The §2 stacked-bug case end to end: a 90° capture whose channels
    /// are also swapped, on a square frame, names both bugs in full.
    #[test]
    fn stacked_rotation_and_channel_bugs_name_each_other() {
        use mlexray_preprocess::{ChannelOrder, Image, ImagePreprocessConfig, PreprocessBug};
        let data = (0..16 * 16 * 3).map(|i| (i * 37 % 251) as u8).collect();
        let frame = Image::from_raw(16, 16, ChannelOrder::Rgb, data).unwrap();
        let reference = ImagePreprocessConfig::mobilenet_style(8, 8);
        let edge = reference
            .with_bug(PreprocessBug::Rotation)
            .with_bug(PreprocessBug::Channel);
        let values = |cfg: &ImagePreprocessConfig| cfg.apply(&frame).unwrap().to_f32_vec();
        let (e, r) = preprocess_logs(values(&edge), values(&reference), Shape::nhwc(1, 8, 8, 3));
        let ctx = ValidationContext::new(&e, &r);
        let orientation = OrientationAssertion.check(&ctx);
        assert_eq!(orientation.status, AssertionStatus::Fail);
        assert_eq!(
            orientation.detail,
            "input disoriented: matches reference after 270° rotation \
             combined with a channel swap"
        );
        let channel = ChannelArrangementAssertion.check(&ctx);
        assert_eq!(channel.status, AssertionStatus::Fail);
        assert_eq!(
            channel.detail,
            "channel arrangement mismatch (combined with a 270° rotation)"
        );
    }

    #[test]
    fn assertions_pass_on_identical_logs() {
        let vals = vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6];
        let (e, r) = preprocess_logs(vals.clone(), vals, Shape::nhwc(1, 1, 2, 3));
        let ctx = ValidationContext::new(&e, &r);
        for a in [
            &ChannelArrangementAssertion as &dyn Assertion,
            &NormalizationRangeAssertion,
            &OrientationAssertion,
            &ResizeFunctionAssertion,
        ] {
            assert_eq!(a.check(&ctx).status, AssertionStatus::Pass, "{}", a.name());
        }
    }

    #[test]
    fn assertions_skip_without_data() {
        let e = LogSet::default();
        let r = LogSet::default();
        let ctx = ValidationContext::new(&e, &r);
        assert_eq!(
            ChannelArrangementAssertion.check(&ctx).status,
            AssertionStatus::Skipped
        );
        assert_eq!(
            LatencyBudgetAssertion { budget_ms: 1.0 }.check(&ctx).status,
            AssertionStatus::Skipped
        );
    }

    #[test]
    fn constant_output_detection() {
        let mk = |vals: Vec<Vec<f32>>| {
            LogSet::new(
                vals.into_iter()
                    .enumerate()
                    .map(|(i, v)| LogRecord {
                        frame: i as u64,
                        key: KEY_MODEL_OUTPUT.into(),
                        value: LogValue::TensorFull {
                            shape: Shape::vector(v.len()),
                            values: v,
                        },
                    })
                    .collect(),
            )
        };
        let edge = mk(vec![vec![0.5, 0.5], vec![0.5, 0.5], vec![0.5, 0.5]]);
        let reference = mk(vec![vec![0.9, 0.1], vec![0.2, 0.8], vec![0.6, 0.4]]);
        let ctx = ValidationContext::new(&edge, &reference);
        assert_eq!(
            ConstantOutputAssertion.check(&ctx).status,
            AssertionStatus::Fail
        );
        let ctx_ok = ValidationContext::new(&reference, &reference);
        assert_eq!(
            ConstantOutputAssertion.check(&ctx_ok).status,
            AssertionStatus::Pass
        );
    }

    #[test]
    fn fn_assertion_runs_closure() {
        let a = FnAssertion::new("custom", |_ctx| {
            FnAssertion::failed("custom", "lane distance exceeded")
        });
        let e = LogSet::default();
        let ctx = ValidationContext::new(&e, &e);
        let out = a.check(&ctx);
        assert_eq!(out.status, AssertionStatus::Fail);
        assert_eq!(a.name(), "custom");
    }
}
