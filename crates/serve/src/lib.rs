//! # mlexray-serve: online inference serving with always-on EXray
//! visibility
//!
//! Everything below this crate runs *offline*: the replay engine shards a
//! recorded playback set, the validator compares two finished log streams.
//! This crate is the missing operational layer — an in-process service that
//! accepts **live** requests and keeps the ML-EXray instrumentation on
//! while it serves them:
//!
//! ```text
//!          ┌────────────────────────── InferenceService ─────────────────────────┐
//! client ─▶ submit ─▶ admission ─▶ bounded queue ─▶ workers: coalesce ────────▶ invoke_batch
//!   ▲                 control        (per model)     (full | callers in | window)  │
//!   │                    │                 │                                       │
//!   │             not accepting,    deadline passed                          batch failed
//!   │               queue full        at the pop                                   │
//!   │                    └─────────────────┴─────▶ refuse ◀────────────────────────┤
//!   │                       (one book moved, forced trace, typed Rejection)        │
//!   │                                                 │                            ▼
//!   └── PendingResponse ◀─────────────────────────────┴────────────── per-request reply
//!
//!            sampled requests ──▶ per-layer records ──▶ ChannelSink (async telemetry)
//!                      └────────▶ OnlineValidator reservoir ──▶ drift_check()
//!                                                               (diff vs reference backend)
//! ```
//!
//! * [`ModelRegistry`] — named models ([`mlexray_models::by_name`] zoo
//!   lookups or arbitrary graphs), each bound to the
//!   [`mlexray_nn::BackendSpec`] it serves under.
//! * [`InferenceService`] — per-model worker pools (private interpreters, a
//!   global [`ServiceConfig::core_budget`] so pools compose with replay
//!   sharding) over bounded MPMC queues with a dynamic batching scheduler:
//!   a batch leader coalesces followers for up to [`BatchPolicy::window`]
//!   (derivable from an `mlexray-edgesim` device latency model) and stacks
//!   them into one [`mlexray_nn::Interpreter::invoke_batch`] call. Results
//!   are bitwise-identical to sequential invokes, whatever the coalescing.
//!   The leader stops early when nobody is left who could join: every
//!   closed-loop caller attached to the model (each RPC connection is one)
//!   already has a request in the system.
//! * **Admission control** — queue-depth caps, per-request deadlines and a
//!   drain-then-stop shutdown. Every request that ends without an answer
//!   ends in one function (`refuse` in the diagram): it moves exactly one
//!   book, force-traces the anomaly and builds the typed [`Rejection`] —
//!   never a silent drop, and [`ModelStats::is_balanced`] pins the books.
//! * **Always-on monitoring** — every `sample_every`-th request streams
//!   per-layer telemetry through the configured [`mlexray_core::LogSink`]
//!   and feeds a rolling [`mlexray_core::OnlineValidator`];
//!   [`InferenceService::drift_check`] replays that reservoir against the
//!   reference backend and raises localized drift alarms without stopping
//!   the service.
//! * **Production metrics** — the [`metrics`] module: bounded lock-free
//!   latency histograms (O(1) memory in request count), a unified
//!   [`Collect`](metrics::Collect) registry over the serve pools, the log
//!   sinks and the RPC session layer, and Prometheus text exposition
//!   served through the wire protocol's `Metrics` verb.
//!
//! # Example
//!
//! ```
//! use mlexray_serve::{
//!     BatchPolicy, InferenceService, ModelRegistry, MonitorPolicy, ServiceConfig,
//! };
//! use mlexray_nn::BackendSpec;
//! use mlexray_tensor::{Shape, Tensor};
//!
//! let registry = ModelRegistry::new();
//! registry
//!     .register_zoo("mini_mobilenet_v2", 24, 8, 1, BackendSpec::optimized())
//!     .unwrap();
//! let service = InferenceService::start(
//!     &registry,
//!     ServiceConfig {
//!         workers_per_model: 1,
//!         batch: BatchPolicy::windowed(4, std::time::Duration::from_micros(200)),
//!         monitor: MonitorPolicy::off(),
//!         ..Default::default()
//!     },
//!     None,
//! )
//! .unwrap();
//! let input = Tensor::filled_f32(Shape::nhwc(1, 24, 24, 3), 0.1);
//! let pending = service.submit("mini_mobilenet_v2", vec![input]).unwrap();
//! let response = pending.wait().unwrap();
//! assert_eq!(response.outputs.len(), 1);
//! let report = service.shutdown();
//! assert!(report.models[0].is_balanced());
//! ```

#![warn(missing_docs)]

mod batcher;
mod error;
pub mod metrics;
mod queue;
mod registry;
mod request;
pub mod rpc;
mod service;
mod stats;
mod tracing;
mod worker;

pub use batcher::BatchPolicy;
pub use error::{Result, ServeError};
pub use registry::{ModelRegistry, ServedModel};
pub use request::{InferResponse, PendingResponse, RejectReason, Rejection, ServeResult};
pub use service::{InferenceService, MonitorPolicy, ServeReport, ServiceConfig, TracePolicy};
pub use stats::ModelStats;
