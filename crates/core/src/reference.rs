//! Reference pipelines and data playback (§3.3).
//!
//! A reference pipeline replays the *same frames* the edge app saw through a
//! *known-correct* configuration: the model family's canonical preprocessing
//! and a chosen model variant (checkpoint, converted float, quantized) under
//! the debugging-grade reference kernels. Its logs are the baseline every
//! validation compares against.

use mlexray_nn::{BackendSpec, Model};
use mlexray_preprocess::ImagePreprocessConfig;

use crate::log::LogSet;
use crate::monitor::{Monitor, MonitorConfig};
use crate::pipeline::{ImagePipeline, LabeledFrame};
use crate::Result;

/// A known-correct replay pipeline for image tasks.
#[derive(Debug, Clone)]
pub struct ReferencePipeline {
    pipeline: ImagePipeline,
}

impl ReferencePipeline {
    /// Builds a reference pipeline from a model and its canonical
    /// preprocessing. Reference kernels (`RefOpResolver`) are used so that
    /// optimized-kernel defects cannot contaminate the baseline — the §4.4
    /// debugging technique.
    pub fn new(model: Model, canonical: ImagePreprocessConfig) -> Self {
        ReferencePipeline {
            pipeline: ImagePipeline::new(model, canonical).with_backend(BackendSpec::reference()),
        }
    }

    /// Builds a reference pipeline that runs the optimized kernels instead:
    /// a same-runtime baseline. Replaying the canonical configuration on the
    /// runtime the edge app deploys leaves preprocessing and the model
    /// variant as the only differences, with no flavor-to-flavor summation
    /// drift underneath them — at the price of trusting that runtime's
    /// kernels. It is not the faster choice: on the mini families the
    /// reference kernels are as quick.
    pub fn with_optimized_kernels(model: Model, canonical: ImagePreprocessConfig) -> Self {
        ReferencePipeline {
            pipeline: ImagePipeline::new(model, canonical).with_backend(BackendSpec::optimized()),
        }
    }

    /// The underlying pipeline (for inspection).
    pub fn pipeline(&self) -> &ImagePipeline {
        &self.pipeline
    }

    /// Replays frames with full per-layer capture, producing the reference
    /// log set.
    ///
    /// # Errors
    ///
    /// Propagates pipeline errors.
    pub fn replay(&self, frames: &[LabeledFrame]) -> Result<LogSet> {
        collect_logs(&self.pipeline, frames, MonitorConfig::offline_validation())
    }
}

/// Convenience: runs any image pipeline over frames and returns its logs —
/// the edge-side counterpart of [`ReferencePipeline::replay`].
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn collect_logs(
    pipeline: &ImagePipeline,
    frames: &[LabeledFrame],
    config: MonitorConfig,
) -> Result<LogSet> {
    let monitor = Monitor::new(config);
    let mut runner = pipeline.runner()?;
    runner.run(frames, &monitor)?;
    Ok(monitor.take_logs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlexray_nn::{Activation, Padding};
    use mlexray_preprocess::Image;
    use mlexray_tensor::{Shape, Tensor};

    fn model() -> Model {
        let mut b = mlexray_nn::GraphBuilder::new("m");
        let x = b.input("image", Shape::nhwc(1, 4, 4, 3));
        let w = b.constant("w", Tensor::filled_f32(Shape::new(vec![2, 1, 1, 3]), 0.3));
        let c = b
            .conv2d("conv", x, w, None, 1, Padding::Same, Activation::Relu)
            .unwrap();
        let m = b.mean("gap", c).unwrap();
        let s = b.softmax("softmax", m).unwrap();
        b.output(s);
        Model::checkpoint(b.finish().unwrap(), "m")
    }

    #[test]
    fn replay_produces_per_layer_logs() {
        let frames = vec![
            LabeledFrame::new(Image::solid(8, 8, [10, 200, 30]), Some(0)),
            LabeledFrame::new(Image::solid(8, 8, [240, 10, 90]), Some(1)),
        ];
        let reference =
            ReferencePipeline::new(model(), ImagePreprocessConfig::mobilenet_style(4, 4));
        let logs = reference.replay(&frames).unwrap();
        assert_eq!(logs.frame_count(), 2);
        assert!(logs.get(0, "layer/conv/output").is_some());
        assert!(logs.get(1, "layer/softmax/output").is_some());
    }

    #[test]
    fn edge_and_reference_agree_when_configs_match() {
        let frames = vec![LabeledFrame::new(
            Image::solid(8, 8, [100, 150, 200]),
            Some(0),
        )];
        let canonical = ImagePreprocessConfig::mobilenet_style(4, 4);
        let reference = ReferencePipeline::new(model(), canonical.clone());
        let ref_logs = reference.replay(&frames).unwrap();
        let edge = ImagePipeline::new(model(), canonical);
        let edge_logs = collect_logs(&edge, &frames, MonitorConfig::offline_validation()).unwrap();
        let a = ref_logs
            .get(0, "layer/softmax/output")
            .unwrap()
            .value
            .values()
            .unwrap();
        let b = edge_logs
            .get(0, "layer/softmax/output")
            .unwrap()
            .value
            .values()
            .unwrap();
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-5);
        }
    }
}
