use serde::{Deserialize, Serialize};

use mlexray_tensor::Tensor;

use crate::{
    normalize::image_to_tensor, resize, rotate, ChannelOrder, Image, NormalizationScheme,
    ResizeMethod, Result, Rotation,
};

/// The full image-preprocessing stage of an inference pipeline.
///
/// A deployment bug is, concretely, a field of this struct that differs from
/// the model's canonical configuration; ML-EXray's built-in assertions each
/// target one field.
///
/// # Example
///
/// ```
/// use mlexray_preprocess::*;
///
/// let canonical = ImagePreprocessConfig::mobilenet_style(16, 16);
/// // The §2 normalization bug: deploy with [0,1] instead of [-1,1].
/// let buggy = ImagePreprocessConfig {
///     normalization: NormalizationScheme::ZeroToOne,
///     ..canonical.clone()
/// };
/// assert_ne!(canonical, buggy);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImagePreprocessConfig {
    /// Model input height.
    pub target_height: usize,
    /// Model input width.
    pub target_width: usize,
    /// Resampling method used to reach the target size.
    pub resize: ResizeMethod,
    /// Channel order the model expects.
    pub channel_order: ChannelOrder,
    /// Numerical conversion applied to bytes.
    pub normalization: NormalizationScheme,
    /// Rotation applied to the captured frame before resizing (models are
    /// trained with `Rotation::None`; anything else emulates a disoriented
    /// capture).
    pub rotation: Rotation,
}

impl ImagePreprocessConfig {
    /// The MobileNet-family canonical configuration: area-average resize,
    /// RGB, `[-1, 1]` normalization, upright orientation.
    pub fn mobilenet_style(height: usize, width: usize) -> Self {
        ImagePreprocessConfig {
            target_height: height,
            target_width: width,
            resize: ResizeMethod::AreaAverage,
            channel_order: ChannelOrder::Rgb,
            normalization: NormalizationScheme::MinusOneToOne,
            rotation: Rotation::None,
        }
    }

    /// The DenseNet-style configuration: `[0, 1]` normalization.
    pub fn densenet_style(height: usize, width: usize) -> Self {
        ImagePreprocessConfig {
            normalization: NormalizationScheme::ZeroToOne,
            ..Self::mobilenet_style(height, width)
        }
    }

    /// VGG-style configuration: BGR order with ImageNet mean/std.
    pub fn vgg_style(height: usize, width: usize) -> Self {
        ImagePreprocessConfig {
            channel_order: ChannelOrder::Bgr,
            normalization: NormalizationScheme::MeanStd {
                mean: [0.406, 0.456, 0.485],
                std: [0.225, 0.224, 0.229],
            },
            ..Self::mobilenet_style(height, width)
        }
    }

    /// Runs the pipeline: rotate (sensor orientation) → resize → channel
    /// arrangement + numerical conversion, producing a `[1, H, W, 3]` tensor.
    ///
    /// # Errors
    ///
    /// Propagates resize/conversion errors.
    pub fn apply(&self, img: &Image) -> Result<Tensor> {
        // An upright capture is read where it lies, not copied.
        let rotated;
        let oriented = match self.rotation {
            Rotation::None => img,
            rotation => {
                rotated = rotate(img, rotation);
                &rotated
            }
        };
        let resized = resize(oriented, self.target_width, self.target_height, self.resize)?;
        image_to_tensor(&resized, self.channel_order, self.normalization)
    }

    /// Returns this config with one field replaced by a buggy variant, for
    /// experiment sweeps. `bug` names follow the paper's Figure 4 legend.
    pub fn with_bug(&self, bug: PreprocessBug) -> Self {
        let mut cfg = self.clone();
        match bug {
            PreprocessBug::Resize => {
                cfg.resize = match self.resize {
                    ResizeMethod::AreaAverage => ResizeMethod::Bilinear,
                    _ => ResizeMethod::AreaAverage,
                };
            }
            PreprocessBug::Channel => {
                cfg.channel_order = match self.channel_order {
                    ChannelOrder::Rgb => ChannelOrder::Bgr,
                    ChannelOrder::Bgr => ChannelOrder::Rgb,
                };
            }
            PreprocessBug::Normalization => {
                cfg.normalization = match self.normalization {
                    NormalizationScheme::MinusOneToOne => NormalizationScheme::ZeroToOne,
                    _ => NormalizationScheme::MinusOneToOne,
                };
            }
            PreprocessBug::Rotation => {
                cfg.rotation = Rotation::Deg90;
            }
        }
        cfg
    }
}

/// The four preprocessing-bug families benchmarked in Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PreprocessBug {
    /// Wrong resampling algorithm.
    Resize,
    /// Swapped channel arrangement.
    Channel,
    /// Mismatched normalization scale.
    Normalization,
    /// Disoriented input (90° rotation).
    Rotation,
}

impl PreprocessBug {
    /// All bug families in the severity order Figure 4 reports.
    pub const ALL: [PreprocessBug; 4] = [
        PreprocessBug::Resize,
        PreprocessBug::Channel,
        PreprocessBug::Normalization,
        PreprocessBug::Rotation,
    ];

    /// Display label matching the paper's figure legend.
    pub fn label(self) -> &'static str {
        match self {
            PreprocessBug::Resize => "Resize",
            PreprocessBug::Channel => "Channel",
            PreprocessBug::Normalization => "Normalization",
            PreprocessBug::Rotation => "Rotation",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_produces_model_input() {
        let img = Image::checkerboard(32, 24, [200, 30, 10], [10, 30, 200]);
        let cfg = ImagePreprocessConfig::mobilenet_style(8, 8);
        let t = cfg.apply(&img).unwrap();
        assert_eq!(t.shape().dims(), &[1, 8, 8, 3]);
        let d = t.as_f32().unwrap();
        assert!(d.iter().all(|v| (-1.0..=1.0).contains(v)));
    }

    #[test]
    fn each_bug_changes_exactly_one_field() {
        let base = ImagePreprocessConfig::mobilenet_style(8, 8);
        for bug in PreprocessBug::ALL {
            let buggy = base.with_bug(bug);
            assert_ne!(base, buggy, "{bug:?} must alter the config");
            let mut diffs = 0;
            diffs += (base.resize != buggy.resize) as u32;
            diffs += (base.channel_order != buggy.channel_order) as u32;
            diffs += (base.normalization != buggy.normalization) as u32;
            diffs += (base.rotation != buggy.rotation) as u32;
            assert_eq!(diffs, 1, "{bug:?} must alter exactly one field");
        }
    }

    #[test]
    fn normalization_bug_shifts_output_range() {
        let img = Image::solid(8, 8, [0, 0, 0]);
        let base = ImagePreprocessConfig::mobilenet_style(8, 8);
        let good = base.apply(&img).unwrap();
        let bad = base
            .with_bug(PreprocessBug::Normalization)
            .apply(&img)
            .unwrap();
        assert_eq!(good.as_f32().unwrap()[0], -1.0);
        assert_eq!(bad.as_f32().unwrap()[0], 0.0);
    }

    #[test]
    fn rotation_bug_moves_content() {
        let mut img = Image::solid(8, 8, [0, 0, 0]);
        img.set_pixel(0, 0, [255, 255, 255]);
        let base = ImagePreprocessConfig::mobilenet_style(8, 8);
        let good = base.apply(&img).unwrap();
        let bad = base.with_bug(PreprocessBug::Rotation).apply(&img).unwrap();
        assert_ne!(good.as_f32().unwrap(), bad.as_f32().unwrap());
    }
}
