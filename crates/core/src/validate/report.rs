//! The Figure-2 deployment-validation flow: accuracy match → per-layer
//! scrutiny → root-cause assertions, producing a single report.
//!
//! Reports come in two granularities: [`DeploymentValidator::validate`]
//! produces one [`ValidationReport`] over a full pair of log sets, while
//! the sharded replay engine ([`crate::replay`]) validates each frame shard
//! independently ([`DeploymentValidator::validate_shard`]) and merges the
//! per-shard results deterministically
//! ([`DeploymentValidator::merge_shards`]): the merged report depends only
//! on the shard partition, never on worker count or thread interleaving.

use std::collections::HashMap;
use std::fmt;

use crate::log::LogSet;
use crate::validate::assertions::{
    Assertion, AssertionOutcome, AssertionStatus, ChannelArrangementAssertion,
    ConstantOutputAssertion, NormalizationRangeAssertion, OrientationAssertion,
    QuantizationDriftAssertion, ResizeFunctionAssertion, ValidationContext,
};
use crate::validate::drift::{first_drift_jump, layers_above, LayerDrift};

/// Side-by-side accuracy of the two pipelines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyComparison {
    /// Edge top-1 accuracy (None when no labelled decisions were logged).
    pub edge: Option<f32>,
    /// Reference top-1 accuracy.
    pub reference: Option<f32>,
}

impl AccuracyComparison {
    /// Accuracy drop `reference - edge`, when both sides are known.
    pub fn drop(&self) -> Option<f32> {
        Some(self.reference? - self.edge?)
    }
}

/// Final verdict of a validation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// No significant deviation found.
    Healthy,
    /// Deployment issues detected; see the report body.
    Degraded,
}

/// Everything the validator found.
#[derive(Debug, Clone)]
pub struct ValidationReport {
    /// Accuracy comparison (step 1 of Fig. 2).
    pub accuracy: AccuracyComparison,
    /// Per-layer drift, in execution order (step 2).
    pub drift: Vec<LayerDrift>,
    /// Names of layers flagged as error-prone.
    pub suspect_layers: Vec<String>,
    /// Assertion outcomes (step 3).
    pub outcomes: Vec<AssertionOutcome>,
    /// Overall verdict.
    pub verdict: Verdict,
}

impl ValidationReport {
    /// Outcomes of failed (bug-detected) assertions.
    pub fn failures(&self) -> Vec<&AssertionOutcome> {
        self.outcomes
            .iter()
            .filter(|o| o.status == AssertionStatus::Fail)
            .collect()
    }

    /// Convenience: root-cause strings of all failed assertions.
    pub fn root_causes(&self) -> Vec<String> {
        self.failures()
            .iter()
            .map(|o| format!("{}: {}", o.name, o.detail))
            .collect()
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== ML-EXray deployment validation report ===")?;
        match (self.accuracy.edge, self.accuracy.reference) {
            (Some(e), Some(r)) => writeln!(
                f,
                "accuracy: edge {:.1}% vs reference {:.1}% (drop {:+.1} pp)",
                e * 100.0,
                r * 100.0,
                (r - e) * 100.0
            )?,
            _ => writeln!(f, "accuracy: not available (no labelled decisions logged)")?,
        }
        if !self.suspect_layers.is_empty() {
            writeln!(f, "error-prone layers: {}", self.suspect_layers.join(", "))?;
        }
        for o in &self.outcomes {
            let tag = match o.status {
                AssertionStatus::Pass => "PASS",
                AssertionStatus::Fail => "FAIL",
                AssertionStatus::Skipped => "SKIP",
            };
            writeln!(f, "  [{tag}] {}: {}", o.name, o.detail)?;
        }
        write!(f, "verdict: {:?}", self.verdict)
    }
}

/// Verdict of a cross-backend differential run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DifferentialVerdict {
    /// No layer exceeded the divergence threshold on any frame.
    Equivalent,
    /// At least one layer diverged; see
    /// [`DifferentialReport::first_divergent`].
    Diverged,
}

/// The first layer (in execution order) whose output diverged between the
/// two backends.
#[derive(Debug, Clone, PartialEq)]
pub struct DivergentLayer {
    /// Execution-order index among the compared layers.
    pub index: usize,
    /// Node display name.
    pub layer: String,
    /// Mean normalized rMSE over frames.
    pub mean_nrmse: f32,
    /// Worst-frame normalized rMSE.
    pub max_nrmse: f32,
    /// The frame with the worst divergence (ties resolve to the lowest
    /// frame, keeping the report deterministic).
    pub worst_frame: u64,
}

/// What the bisection pass concluded about the first divergent layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BisectionVerdict {
    /// Re-executing the suspect op in isolation on reference-produced
    /// inputs still diverges: the defect is *in* that operator. Localization
    /// confirmed.
    OpLocal,
    /// The isolated re-execution agrees: the divergence observed at this
    /// layer was inherited from upstream numerics rather than an op-local
    /// defect.
    Propagated,
}

/// Result of the bisection pass: the first divergent layer re-executed in
/// isolation, with its inputs taken from a reference-backend replay of the
/// graph prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct BisectionOutcome {
    /// The layer re-executed.
    pub layer: String,
    /// The frame the isolation ran on ([`DivergentLayer::worst_frame`]).
    pub frame: u64,
    /// Normalized rMSE between the two backends' outputs for the isolated
    /// op on identical (reference-prefix) inputs.
    pub isolated_nrmse: f32,
    /// Worst per-layer `max_nrmse` over the layers *before* the divergent
    /// one — how clean the prefix agreement backing the localization is.
    pub prefix_max_nrmse: f32,
    /// The conclusion.
    pub verdict: BisectionVerdict,
}

/// Everything a per-layer differential run of two execution backends over
/// the same frames produces: per-layer drift, the first-divergent-layer
/// localization, and (optionally) the bisection confirmation.
///
/// The report is a pure function of the two backends, the frames and the
/// options — byte-identical (via [`std::fmt::Display`] or [`PartialEq`])
/// however many replay workers produced it and whatever micro-batch setting
/// they ran with.
#[derive(Debug, Clone, PartialEq)]
pub struct DifferentialReport {
    /// Baseline backend label.
    pub baseline: String,
    /// Candidate backend label.
    pub candidate: String,
    /// Frames compared.
    pub frames: usize,
    /// Per-layer divergence threshold (worst-frame normalized rMSE).
    pub threshold: f32,
    /// Per-layer drift in execution order (reusing the §3.4 metric).
    pub drift: Vec<LayerDrift>,
    /// The localization, when any layer diverged.
    pub first_divergent: Option<DivergentLayer>,
    /// The bisection confirmation, when requested and a layer diverged.
    pub bisection: Option<BisectionOutcome>,
    /// Pre-attach static findings from the graph analyzer
    /// ([`mlexray_nn::analysis::analyze`]): anything the linter can prove
    /// without running a frame, surfaced alongside the dynamic drift so a
    /// statically-detectable bug is never chased dynamically.
    pub static_findings: Vec<mlexray_nn::analysis::Diagnostic>,
    /// Overall verdict.
    pub verdict: DifferentialVerdict,
}

impl DifferentialReport {
    /// True when no layer diverged.
    pub fn is_equivalent(&self) -> bool {
        self.verdict == DifferentialVerdict::Equivalent
    }

    /// Name of the first divergent layer, if any.
    pub fn divergent_layer(&self) -> Option<&str> {
        self.first_divergent.as_ref().map(|d| d.layer.as_str())
    }
}

impl fmt::Display for DifferentialReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== ML-EXray differential report ===")?;
        writeln!(
            f,
            "backends: {} (baseline) vs {} (candidate), {} frames, threshold {:e}",
            self.baseline, self.candidate, self.frames, self.threshold
        )?;
        for d in &self.drift {
            writeln!(
                f,
                "  layer {:>3} {:<24} mean {:e}  max {:e}",
                d.index,
                d.layer_name(),
                d.mean_nrmse,
                d.max_nrmse
            )?;
        }
        match &self.first_divergent {
            Some(d) => writeln!(
                f,
                "first divergent: #{} '{}' (max nrmse {:e} @ frame {})",
                d.index, d.layer, d.max_nrmse, d.worst_frame
            )?,
            None => writeln!(f, "first divergent: none")?,
        }
        if let Some(b) = &self.bisection {
            writeln!(
                f,
                "bisection: '{}' isolated on frame {} -> nrmse {:e} (prefix max {:e}): {:?}",
                b.layer, b.frame, b.isolated_nrmse, b.prefix_max_nrmse, b.verdict
            )?;
        }
        // Only rendered when present, so reports from paths that skip the
        // static pass stay byte-identical to their historical form.
        if !self.static_findings.is_empty() {
            writeln!(f, "static findings ({}):", self.static_findings.len())?;
            for d in &self.static_findings {
                writeln!(f, "  {d}")?;
            }
        }
        write!(f, "verdict: {:?}", self.verdict)
    }
}

/// The deployment validator: holds thresholds and the assertion suite, and
/// drives the Fig. 2 flow over a pair of log sets.
pub struct DeploymentValidator {
    /// Accuracy drop (fraction) above which the deployment counts as
    /// degraded.
    pub accuracy_tolerance: f32,
    /// Normalized-rMSE threshold for flagging a layer.
    pub drift_threshold: f32,
    assertions: Vec<Box<dyn Assertion>>,
}

impl Default for DeploymentValidator {
    fn default() -> Self {
        Self::new()
    }
}

impl DeploymentValidator {
    /// A validator with the built-in assertion suite: channel arrangement,
    /// normalization range, orientation, resize heuristic, quantization
    /// drift and constant-output detection.
    pub fn new() -> Self {
        DeploymentValidator {
            accuracy_tolerance: 0.02,
            drift_threshold: 0.15,
            assertions: vec![
                Box::new(ChannelArrangementAssertion),
                Box::new(NormalizationRangeAssertion),
                Box::new(OrientationAssertion),
                Box::new(ResizeFunctionAssertion),
                Box::new(QuantizationDriftAssertion::default()),
                Box::new(ConstantOutputAssertion),
            ],
        }
    }

    /// A validator with no built-ins (build your own suite).
    pub fn empty() -> Self {
        DeploymentValidator {
            accuracy_tolerance: 0.02,
            drift_threshold: 0.15,
            assertions: Vec::new(),
        }
    }

    /// Adds an assertion (built-in or user-defined).
    #[must_use]
    pub fn with_assertion(mut self, assertion: impl Assertion + 'static) -> Self {
        self.assertions.push(Box::new(assertion));
        self
    }

    /// Number of registered assertions.
    pub fn assertion_count(&self) -> usize {
        self.assertions.len()
    }

    /// Runs the Fig. 2 flow: (1) compare accuracy, (2) per-layer drift when
    /// degraded or on request, (3) all assertions for root-cause analysis.
    pub fn validate(&self, edge: &LogSet, reference: &LogSet) -> ValidationReport {
        let accuracy = AccuracyComparison {
            edge: edge.accuracy(),
            reference: reference.accuracy(),
        };
        // The context computes the drift once; the report and the
        // quantization-drift assertion read the same values.
        let ctx = ValidationContext::new(edge, reference);
        let drift = ctx.drift().to_vec();
        let outcomes = self.assertions.iter().map(|a| a.check(&ctx)).collect();
        self.report(accuracy, drift, outcomes)
    }

    /// Suspects and verdict over the parts of a report. Shared by
    /// [`Self::validate`] and [`Self::merge_shards`], so sharded and
    /// unsharded reports can never diverge on either.
    fn report(
        &self,
        accuracy: AccuracyComparison,
        drift: Vec<LayerDrift>,
        outcomes: Vec<AssertionOutcome>,
    ) -> ValidationReport {
        let degraded_accuracy = accuracy.drop().is_some_and(|d| d > self.accuracy_tolerance);
        let any_failed = outcomes.iter().any(|o| o.status == AssertionStatus::Fail);
        ValidationReport {
            accuracy,
            suspect_layers: self.suspect_layers(&drift),
            drift,
            outcomes,
            verdict: if degraded_accuracy || any_failed {
                Verdict::Degraded
            } else {
                Verdict::Healthy
            },
        }
    }

    /// The suspect-layer heuristic of the Fig. 2 flow: layers over the
    /// drift threshold, falling back to the first drift *jump* (§3.4) when
    /// nothing crosses it outright.
    fn suspect_layers(&self, drift: &[LayerDrift]) -> Vec<String> {
        let mut suspects: Vec<String> = layers_above(drift, self.drift_threshold)
            .iter()
            .map(|d| d.layer_name().to_string())
            .collect();
        if suspects.is_empty() {
            if let Some(jump) = first_drift_jump(drift, 5.0) {
                if jump.mean_nrmse > self.drift_threshold / 3.0 {
                    suspects.push(jump.layer_name().to_string());
                }
            }
        }
        suspects
    }
}

/// Labelled-decision tallies of one pipeline over one shard — the mergeable
/// form of an accuracy figure (a plain mean of shard accuracies would weight
/// small shards too heavily).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecisionTally {
    /// Decisions whose prediction matched the label.
    pub correct: u64,
    /// Decisions carrying a ground-truth label.
    pub labelled: u64,
}

impl DecisionTally {
    /// Tallies the labelled decisions of a log set.
    pub fn of(logs: &LogSet) -> Self {
        let mut tally = DecisionTally::default();
        for (_, predicted, label) in logs.decisions() {
            if let Some(label) = label {
                tally.labelled += 1;
                if predicted == label {
                    tally.correct += 1;
                }
            }
        }
        tally
    }

    /// Top-1 accuracy, or `None` without labelled decisions.
    pub fn accuracy(&self) -> Option<f32> {
        (self.labelled > 0).then(|| self.correct as f32 / self.labelled as f32)
    }

    fn add(&mut self, other: DecisionTally) {
        self.correct += other.correct;
        self.labelled += other.labelled;
    }
}

/// The validation result of one frame shard, carrying everything the
/// deterministic merge needs (tallies and weighted drift rather than only
/// the shard-local means).
#[derive(Debug, Clone)]
pub struct ShardValidation {
    /// Global index of the shard's first frame.
    pub start_frame: u64,
    /// Number of frames the shard covers.
    pub frames: u64,
    /// Edge-side decision tallies.
    pub edge_decisions: DecisionTally,
    /// Reference-side decision tallies.
    pub reference_decisions: DecisionTally,
    /// The shard-local report (assertions ran against this shard's frames
    /// only).
    pub report: ValidationReport,
}

struct DriftAccumulator {
    index: usize,
    key: String,
    weighted_sum: f64,
    max_nrmse: f32,
    frames: usize,
}

impl DeploymentValidator {
    /// Validates one shard's (shard-local) log pair, producing the mergeable
    /// per-shard result the sharded replay engine collects.
    pub fn validate_shard(
        &self,
        start_frame: u64,
        edge: &LogSet,
        reference: &LogSet,
    ) -> ShardValidation {
        let report = self.validate(edge, reference);
        ShardValidation {
            start_frame,
            frames: edge.frame_count().max(reference.frame_count()),
            edge_decisions: DecisionTally::of(edge),
            reference_decisions: DecisionTally::of(reference),
            report,
        }
    }

    /// Merges per-shard validations into one report, deterministically:
    /// shards are ordered by `start_frame` before merging, so the result is
    /// a pure function of the shard partition — byte-identical however many
    /// workers produced the shards and however their execution interleaved.
    ///
    /// Merge rules: accuracies re-aggregate from decision tallies; per-layer
    /// drift means are frame-weighted; an assertion fails overall if it
    /// failed in *any* shard (its diagnostic cites the first failing shard),
    /// passes if it ran anywhere without failing, and is skipped only if
    /// every shard skipped it.
    pub fn merge_shards(&self, shards: &[ShardValidation]) -> ValidationReport {
        let mut ordered: Vec<&ShardValidation> = shards.iter().collect();
        ordered.sort_by_key(|s| s.start_frame);

        let mut edge_tally = DecisionTally::default();
        let mut reference_tally = DecisionTally::default();
        let mut drift_order: Vec<String> = Vec::new();
        let mut drift_acc: HashMap<String, DriftAccumulator> = HashMap::new();
        let mut outcome_order: Vec<String> = Vec::new();
        let mut outcomes: HashMap<String, AssertionOutcome> = HashMap::new();

        for shard in &ordered {
            edge_tally.add(shard.edge_decisions);
            reference_tally.add(shard.reference_decisions);
            for d in &shard.report.drift {
                let acc = drift_acc.entry(d.key.clone()).or_insert_with(|| {
                    drift_order.push(d.key.clone());
                    DriftAccumulator {
                        index: d.index,
                        key: d.key.clone(),
                        weighted_sum: 0.0,
                        max_nrmse: 0.0,
                        frames: 0,
                    }
                });
                acc.weighted_sum += d.mean_nrmse as f64 * d.frames as f64;
                acc.max_nrmse = acc.max_nrmse.max(d.max_nrmse);
                acc.frames += d.frames;
            }
            for o in &shard.report.outcomes {
                let rank = |s: AssertionStatus| match s {
                    AssertionStatus::Fail => 2,
                    AssertionStatus::Pass => 1,
                    AssertionStatus::Skipped => 0,
                };
                // Cite the failing shard whenever there is more than one —
                // including when the failing shard is the first to register
                // this assertion.
                let cited = |o: &AssertionOutcome| {
                    let mut out = o.clone();
                    if o.status == AssertionStatus::Fail && shards.len() > 1 {
                        out.detail = format!("shard@{}: {}", shard.start_frame, o.detail);
                    }
                    out
                };
                match outcomes.get_mut(&o.name) {
                    None => {
                        outcome_order.push(o.name.clone());
                        outcomes.insert(o.name.clone(), cited(o));
                    }
                    Some(merged) if rank(o.status) > rank(merged.status) => {
                        *merged = cited(o);
                    }
                    Some(_) => {}
                }
            }
        }

        let drift: Vec<LayerDrift> = drift_order
            .iter()
            .map(|key| {
                let acc = &drift_acc[key];
                LayerDrift {
                    index: acc.index,
                    key: acc.key.clone(),
                    mean_nrmse: (acc.weighted_sum / acc.frames.max(1) as f64) as f32,
                    max_nrmse: acc.max_nrmse,
                    frames: acc.frames,
                }
            })
            .collect();
        let accuracy = AccuracyComparison {
            edge: edge_tally.accuracy(),
            reference: reference_tally.accuracy(),
        };
        let outcomes = outcome_order
            .iter()
            .map(|name| outcomes[name].clone())
            .collect();
        self.report(accuracy, drift, outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{LogRecord, LogValue, KEY_DECISION};

    fn decisions(correct: usize, total: usize) -> LogSet {
        LogSet::new(
            (0..total)
                .map(|i| LogRecord {
                    frame: i as u64,
                    key: KEY_DECISION.into(),
                    value: LogValue::Decision {
                        predicted: if i < correct { 1 } else { 0 },
                        label: Some(1),
                    },
                })
                .collect(),
        )
    }

    #[test]
    fn healthy_when_accuracies_match() {
        let v = DeploymentValidator::new();
        let edge = decisions(9, 10);
        let reference = decisions(9, 10);
        let report = v.validate(&edge, &reference);
        assert_eq!(report.verdict, Verdict::Healthy);
        assert_eq!(report.accuracy.drop(), Some(0.0));
    }

    #[test]
    fn degraded_on_accuracy_drop() {
        let v = DeploymentValidator::new();
        let edge = decisions(5, 10);
        let reference = decisions(9, 10);
        let report = v.validate(&edge, &reference);
        assert_eq!(report.verdict, Verdict::Degraded);
        let text = report.to_string();
        assert!(text.contains("drop"), "{text}");
    }

    #[test]
    fn merge_shards_reaggregates_accuracy_from_tallies() {
        let v = DeploymentValidator::new();
        // Shard sizes differ: a naive mean of shard accuracies would give
        // (1.0 + 0.0) / 2 = 0.5; the tally-weighted truth is 8/10.
        let big = v.validate_shard(0, &decisions(8, 8), &decisions(8, 8));
        let small = v.validate_shard(8, &decisions(0, 2), &decisions(0, 2));
        let merged = v.merge_shards(&[small, big]);
        assert_eq!(merged.accuracy.edge, Some(0.8));
        assert_eq!(merged.accuracy.drop(), Some(0.0));
        assert_eq!(merged.verdict, Verdict::Healthy);
    }

    #[test]
    fn merge_shards_is_order_independent() {
        let v = DeploymentValidator::new();
        let a = v.validate_shard(0, &decisions(3, 4), &decisions(4, 4));
        let b = v.validate_shard(4, &decisions(1, 4), &decisions(4, 4));
        let forward = v.merge_shards(&[a.clone(), b.clone()]);
        let backward = v.merge_shards(&[b, a]);
        assert_eq!(forward.to_string(), backward.to_string());
        // 4/8 vs 8/8 is a 0.5 drop: degraded.
        assert_eq!(forward.verdict, Verdict::Degraded);
    }

    #[test]
    fn merge_shards_fail_dominates_and_cites_shard() {
        use crate::validate::assertions::FnAssertion;
        let v = DeploymentValidator::empty();
        let fail_report = |start: u64, fails: bool| {
            let validator = DeploymentValidator::empty().with_assertion(FnAssertion::new(
                "domain",
                move |_| {
                    if fails {
                        FnAssertion::failed("domain", "tripped")
                    } else {
                        FnAssertion::passed("domain", "ok")
                    }
                },
            ));
            validator.validate_shard(start, &decisions(1, 1), &decisions(1, 1))
        };
        let merged = v.merge_shards(&[fail_report(0, false), fail_report(4, true)]);
        assert_eq!(merged.outcomes.len(), 1);
        assert_eq!(merged.outcomes[0].status, AssertionStatus::Fail);
        assert!(
            merged.outcomes[0].detail.contains("shard@4"),
            "{}",
            merged.outcomes[0].detail
        );
        assert_eq!(merged.verdict, Verdict::Degraded);
        // The citation must also appear when the *first* shard to register
        // the assertion is the failing one.
        let merged = v.merge_shards(&[fail_report(0, true), fail_report(4, false)]);
        assert!(
            merged.outcomes[0].detail.contains("shard@0"),
            "{}",
            merged.outcomes[0].detail
        );
    }

    /// A layer that outputs NaN must not pass: its mean drift is NaN, and
    /// `NaN > threshold` is false everywhere a threshold is read.
    #[test]
    fn non_finite_layer_is_suspect_and_fails_quantization_drift() {
        use mlexray_tensor::Shape;
        let layer = |key: &str, values: Vec<f32>| LogRecord {
            frame: 0,
            key: key.into(),
            value: LogValue::TensorFull {
                shape: Shape::vector(values.len()),
                values,
            },
        };
        let reference = LogSet::new(vec![
            layer("layer/a/output", vec![1.0, 2.0]),
            layer("layer/b/output", vec![1.0, 2.0]),
        ]);
        let poisoned = LogSet::new(vec![
            layer("layer/a/output", vec![1.0, 2.0]),
            layer("layer/b/output", vec![f32::NAN, 2.0]),
        ]);
        let v = DeploymentValidator::new();
        let report = v.validate(&poisoned, &reference);
        assert_eq!(report.verdict, Verdict::Degraded, "{report}");
        assert_eq!(report.suspect_layers, ["b"]);
        assert!(report.drift[1].mean_nrmse.is_nan());
        assert_eq!(report.drift[1].max_nrmse, f32::INFINITY);
        let text = report.to_string();
        assert!(
            text.contains(
                "[FAIL] quantization_drift: 1 error-prone layer(s); worst: b (non-finite output)"
            ),
            "{text}"
        );
        // It survives the shard merge, next to a clean shard.
        let merged = v.merge_shards(&[
            v.validate_shard(0, &reference, &reference),
            v.validate_shard(1, &poisoned, &reference),
        ]);
        assert_eq!(merged.verdict, Verdict::Degraded, "{merged}");
        assert_eq!(merged.suspect_layers, ["b"]);

        // Finite inputs render exactly as before.
        let finite = v.validate(&reference, &reference).to_string();
        assert!(
            finite.contains("[PASS] quantization_drift: all 2 compared layers below nRMSE 0.15"),
            "{finite}"
        );
        assert!(finite.ends_with("verdict: Healthy"), "{finite}");
    }

    #[test]
    fn custom_assertion_participates() {
        use crate::validate::assertions::FnAssertion;
        let v = DeploymentValidator::empty()
            .with_assertion(FnAssertion::new("always_fail", |_| {
                FnAssertion::failed("always_fail", "domain check tripped")
            }));
        assert_eq!(v.assertion_count(), 1);
        let logs = decisions(1, 1);
        let report = v.validate(&logs, &logs);
        assert_eq!(report.verdict, Verdict::Degraded);
        assert_eq!(report.root_causes().len(), 1);
    }
}
