//! Benchmark harness regenerating every table and figure of the ML-EXray
//! paper.
//!
//! Each experiment lives in [`experiments`] as a function returning the
//! formatted table/series it reproduces; the `src/bin/*` binaries are thin
//! wrappers (`cargo run -p mlexray-bench --release --bin fig5`). Each
//! experiment module's docs name the paper artifact it regenerates; README's
//! *Reproducing the paper's tables and figures* section lists the binaries.
//!
//! Set `MLEXRAY_QUICK=1` to shrink datasets/models for smoke runs (used by
//! the integration tests); trained mini models are cached under
//! `target/mlexray-cache/` so repeated invocations skip training.

#![warn(missing_docs)]

pub mod experiments;
pub mod support;
