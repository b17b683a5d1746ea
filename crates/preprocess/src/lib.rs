//! Sensor preprocessing for edge ML pipelines.
//!
//! ML-EXray (§2) identifies preprocessing as the most error-prone stage of an
//! edge deployment: channel extraction, resizing, numerical conversion and
//! orientation for images; spectrogram generation and normalization for audio;
//! tokenization for text. This crate implements each of those stages — both
//! the *correct* variants used by reference pipelines and the realistic
//! *mismatched* variants (e.g. bilinear vs area-average resizing, `[0,1]` vs
//! `[-1,1]` normalization, RGB vs BGR ordering) whose silent accuracy impact
//! the paper quantifies in §4.3.
//!
//! # Example
//!
//! ```
//! use mlexray_preprocess::{Image, ImagePreprocessConfig, ChannelOrder,
//!                          NormalizationScheme, ResizeMethod};
//!
//! let img = Image::checkerboard(8, 8, [255, 0, 0], [0, 0, 255]);
//! let cfg = ImagePreprocessConfig {
//!     target_height: 4,
//!     target_width: 4,
//!     resize: ResizeMethod::AreaAverage,
//!     channel_order: ChannelOrder::Rgb,
//!     normalization: NormalizationScheme::MinusOneToOne,
//!     rotation: mlexray_preprocess::Rotation::None,
//! };
//! let tensor = cfg.apply(&img)?;
//! assert_eq!(tensor.shape().dims(), &[1, 4, 4, 3]);
//! # Ok::<(), mlexray_preprocess::PreprocessError>(())
//! ```

#![warn(missing_docs)]

mod audio;
mod color;
mod error;
mod geometry;
mod image;
mod normalize;
#[cfg(test)]
mod oracle;
mod pipeline;
mod resize;
mod text;

pub use audio::{
    fft_magnitude, hann_window, AudioPreprocessConfig, Spectrogram, SpectrogramNormalization,
};
pub use color::{ChannelOrder, YuvImage, YuvStandard};
pub use error::PreprocessError;
pub use geometry::{center_crop, flip_horizontal, flip_vertical, rotate, Rotation};
pub use image::Image;
pub use normalize::{image_to_tensor, NormalizationScheme};
pub use pipeline::{ImagePreprocessConfig, PreprocessBug};
pub use resize::{resize, ResizeMethod};
pub use text::{TextPreprocessConfig, Tokenizer, Vocabulary};
pub use text::{PAD_ID, UNK_ID};

/// Result alias used throughout the preprocess crate.
pub type Result<T> = std::result::Result<T, PreprocessError>;
