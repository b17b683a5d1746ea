//! Deployment validation (§3.4): accuracy comparison, per-layer output
//! drift, per-layer latency analysis, the assertion framework and the
//! Figure-2 debugging flow.

mod assertions;
mod differential;
mod drift;
mod latency;
mod online;
mod report;

pub use assertions::{
    Assertion, AssertionOutcome, AssertionStatus, ChannelArrangementAssertion,
    ConstantOutputAssertion, FnAssertion, LatencyBudgetAssertion, MemoryBudgetAssertion,
    NormalizationRangeAssertion, OrientationAssertion, QuantizationDriftAssertion,
    ResizeFunctionAssertion, StragglerLayerAssertion, ValidationContext,
};
pub use differential::{diff_backends, diff_image_pipelines, DifferentialOptions};
pub use drift::{first_drift_jump, layers_above, per_layer_drift, DriftFold, LayerDrift};
pub use latency::{compare_layer_latency, per_layer_latency, stragglers, LayerLatency};
pub use online::{DriftAlarm, OnlineValidator, OnlineValidatorConfig, OnlineValidatorStats};
pub use report::{
    AccuracyComparison, BisectionOutcome, BisectionVerdict, DecisionTally, DeploymentValidator,
    DifferentialReport, DifferentialVerdict, DivergentLayer, ShardValidation, ValidationReport,
    Verdict,
};
