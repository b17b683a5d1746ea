//! # ML-EXray (Rust reproduction)
//!
//! Facade crate re-exporting the entire ML-EXray workspace under one roof.
//! ML-EXray ("Visibility into ML Deployment on the Edge", MLSYS 2022) is a
//! cloud-to-edge deployment-validation framework: it instruments edge ML
//! inference pipelines at layer-level granularity, replays the same data
//! through a reference pipeline, and compares the two log streams to localize
//! deployment bugs — preprocessing mistakes, quantization defects and
//! sub-optimal kernels.
//!
//! The workspace layering (bottom-up):
//!
//! * [`tensor`] — shapes, f32/u8/i8/i32 tensors, quantization parameters.
//! * [`preprocess`] — image/audio/text sensor preprocessing (and its bugs).
//! * [`nn`] — a TFLite-like graph interpreter with reference/optimized
//!   kernels, conversion and full-integer quantization.
//! * [`datasets`] — deterministic synthetic datasets.
//! * [`models`] — the model zoo (MobileNet v1/v2/v3, ResNet, Inception,
//!   DenseNet, SSD, audio CNN, text models).
//! * [`trainer`] — a minimal training engine for the mini models.
//! * [`edgesim`] — Pixel-class device simulation (latency/memory/storage).
//! * [`core`] — ML-EXray itself: the EdgeML Monitor, reference pipelines,
//!   deployment validation, per-layer drift analysis and assertions.
//! * [`serve`] — the online serving layer: multi-model registry, dynamic
//!   micro-batching scheduler, admission control and always-on monitoring.
//!
//! # Quickstart
//!
//! ```
//! use mlexray::core::{Monitor, MonitorConfig};
//!
//! let monitor = Monitor::new(MonitorConfig::default());
//! monitor.on_inference_start();
//! // ... interpreter invoke would go here ...
//! monitor.on_inference_stop();
//! assert_eq!(monitor.frames_logged(), 1);
//! ```

pub use mlexray_core as core;
pub use mlexray_datasets as datasets;
pub use mlexray_edgesim as edgesim;
pub use mlexray_models as models;
pub use mlexray_nn as nn;
pub use mlexray_preprocess as preprocess;
pub use mlexray_serve as serve;
pub use mlexray_tensor as tensor;
pub use mlexray_trainer as trainer;

/// Workspace version string.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
