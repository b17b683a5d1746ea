//! Deterministic synthetic datasets for the ML-EXray reproduction.
//!
//! The paper evaluates on ImageNet, COCO, Speech Commands and IMDB — none of
//! which ship with this reproduction. Instead, each task gets a procedurally
//! generated stand-in whose classes are constructed so that the §4.3
//! preprocessing bugs matter with the same *severity ordering* the paper
//! measures: rotation ≫ normalization ≳ channel ≫ resize.
//!
//! * [`synth_image`] — 8-class images mixing orientation-, brightness-,
//!   color- and texture-defined classes (ImageNet stand-in).
//! * [`synth_detect`] — scenes of colored shapes with boxes (COCO stand-in).
//! * [`synth_audio`] — tones/chirps/noise keywords (Speech-Commands stand-in).
//! * [`synth_text`] — templated sentiment sentences (IMDB stand-in).
//!
//! All generators are seeded and deterministic, so the edge and the
//! reference pipeline replay byte-identical frames (§3.3): the replay
//! engine takes the frames as a slice (`mlexray_core::replay_sharded`).

#![warn(missing_docs)]

mod error;
pub mod synth_audio;
pub mod synth_detect;
pub mod synth_image;
pub mod synth_text;

pub use error::DatasetError;

/// Result alias used throughout the datasets crate.
pub type Result<T> = std::result::Result<T, DatasetError>;
