//! # ML-EXray: visibility into ML deployment on the edge
//!
//! The paper's contribution, reproduced in Rust: an end-to-end framework
//! that instruments edge ML inference pipelines at layer-level granularity,
//! replays the same data through a known-correct *reference pipeline*, and
//! compares the two log streams to localize deployment bugs.
//!
//! The three components of §3:
//!
//! 1. **Instrumentation & logging** — [`Monitor`] (the EdgeML Monitor) with
//!    `on_inference_start/stop`, `on_sensor_start/stop`, custom tensor/value
//!    logging and a per-layer [`mlexray_nn::LayerObserver`] hook;
//!    [`LogSink`]s buffer in memory or persist JSONL.
//! 2. **Reference pipelines & playback** — [`ReferencePipeline`] replays
//!    frames through canonical preprocessing and a chosen model variant
//!    under debugging-grade reference kernels. The [`replay`] module shards
//!    the replay-validate loop across worker threads (each with its own
//!    interpreter) and merges per-shard logs and reports deterministically;
//!    [`ChannelSink`] moves log persistence off the inference threads
//!    through a bounded shared buffer into a batching writer thread.
//! 3. **Deployment validation** — [`DeploymentValidator`] drives the Fig. 2
//!    flow: accuracy comparison, per-layer normalized-rMSE drift
//!    ([`per_layer_drift`]), per-layer latency analysis, and a suite of
//!    built-in + user-defined [`Assertion`]s for root-cause analysis. The
//!    §4.4 cross-runtime technique is [`diff_backends`] /
//!    [`diff_image_pipelines`]: interpreters built from two
//!    [`mlexray_nn::BackendSpec`]s replay the same frames over the sharded
//!    engine, the first divergent layer is localized from per-layer drift,
//!    and a bisection pass confirms whether the defect is op-local
//!    ([`DifferentialReport`]).
//!
//! # Instrumenting an app (≤ 5 LoC, Table 1)
//!
//! ```
//! use mlexray_core::{Monitor, MonitorConfig};
//!
//! let monitor = Monitor::new(MonitorConfig::default());
//! monitor.on_inference_start();
//! // interpreter.invoke_observed(&inputs, &mut monitor.layer_observer())
//! monitor.on_inference_stop();
//! assert_eq!(monitor.frames_logged(), 1);
//! ```
//!
//! # Writing an assertion (≤ 10 LoC, §3.2)
//!
//! ```
//! use mlexray_core::{FnAssertion, ValidationContext};
//!
//! let channel_check = FnAssertion::new("my_check", |ctx: &ValidationContext<'_>| {
//!     if ctx.edge.frame_count() == ctx.reference.frame_count() {
//!         FnAssertion::passed("my_check", "frame counts match")
//!     } else {
//!         FnAssertion::failed("my_check", "pipelines saw different frame counts")
//!     }
//! });
//! ```

#![warn(missing_docs)]

pub mod budget;
mod error;
mod log;
mod monitor;
mod parallel;
mod pipeline;
mod reference;
pub mod replay;
mod sink;
pub mod trace;
mod validate;

pub use budget::{available_cores, machine_parallelism, reserve_cores, reserve_up_to, CoreLease};
pub use error::ExrayError;
pub use log::{
    layer_latency_key, layer_output_key, LogRecord, LogSet, LogValue, SensorReading, KEY_DECISION,
    KEY_INFERENCE_LATENCY, KEY_INFERENCE_MEMORY, KEY_MODEL_INPUT, KEY_MODEL_OUTPUT,
    KEY_PREPROCESS_OUTPUT,
};
pub use monitor::{LayerCapture, Monitor, MonitorConfig, MonitorLayerObserver};
pub use parallel::{
    invoke_batch_parallel, InvokeLayerRecord, ParallelInvoke, ParallelInvokeOptions,
};
pub use pipeline::{
    AudioPipeline, AudioRunner, ImagePipeline, ImageRunner, LabeledFrame, TextPipeline, TextRunner,
};
pub use reference::{collect_logs, ReferencePipeline};
pub use replay::{
    replay_sharded, replay_sharded_to_sink, replay_validate_sharded, shard_partition,
    ReplayOptions, ReplayStats, ShardedValidation,
};
pub use sink::{
    ChannelSink, ChannelSinkConfig, JsonlFileSink, LogSink, MemorySink, OverflowPolicy,
    SinkBackpressure, TeeSink,
};
pub use trace::{
    chrome_trace_json, span_id_for, trace_id_for, trace_report, Span, SpanRing, SpanStage,
    StageBreakdown, Trace, TraceContext, TraceCounters, TraceHub, TraceProfiler,
};
pub use validate::{
    compare_layer_latency, diff_backends, diff_image_pipelines, first_drift_jump, layers_above,
    per_layer_drift, per_layer_latency, stragglers, AccuracyComparison, Assertion,
    AssertionOutcome, AssertionStatus, BisectionOutcome, BisectionVerdict,
    ChannelArrangementAssertion, ConstantOutputAssertion, DecisionTally, DeploymentValidator,
    DifferentialOptions, DifferentialReport, DifferentialVerdict, DivergentLayer, DriftAlarm,
    DriftFold, FnAssertion, LatencyBudgetAssertion, LayerDrift, LayerLatency,
    MemoryBudgetAssertion, NormalizationRangeAssertion, OnlineValidator, OnlineValidatorConfig,
    OnlineValidatorStats, OrientationAssertion, QuantizationDriftAssertion,
    ResizeFunctionAssertion, ShardValidation, StragglerLayerAssertion, ValidationContext,
    ValidationReport, Verdict,
};

/// Result alias used throughout the core crate.
pub type Result<T> = std::result::Result<T, ExrayError>;
