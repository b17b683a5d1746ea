//! Instrumentable inference pipelines: the "edge app" side of ML-EXray.
//!
//! A pipeline couples a preprocessing configuration with a model and a
//! backend spec. Its runner executes frames while reporting telemetry
//! to a [`Monitor`] — preprocessing output, model I/O, per-layer details
//! (per the monitor's capture mode), latency, memory and the final decision.
//! An image frame is a micro-batch of one: [`ImageRunner::classify`] is
//! [`ImageRunner::classify_batch`] over one frame, so one code path logs
//! every image frame, however many share an invoke.

use std::time::Instant;

use mlexray_nn::{BackendSpec, Interpreter, LayerObserver, LayerRecord, Model};
use mlexray_preprocess::{
    AudioPreprocessConfig, Image, ImagePreprocessConfig, TextPreprocessConfig, Vocabulary,
};
use mlexray_tensor::{Shape, Tensor};

use crate::log::{
    layer_latency_key, layer_output_key, LogValue, KEY_MODEL_INPUT, KEY_MODEL_OUTPUT,
    KEY_PREPROCESS_OUTPUT,
};
use crate::monitor::{LayerCapture, Monitor, MonitorConfig};
use crate::Result;

/// A recorded frame: the raw sensor image plus ground truth when known.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledFrame {
    /// The captured image.
    pub image: Image,
    /// Ground-truth class, if the frame came from a labelled dataset.
    pub label: Option<usize>,
}

impl LabeledFrame {
    /// Labels a raw image.
    pub fn new(image: Image, label: Option<usize>) -> Self {
        LabeledFrame { image, label }
    }
}

fn argmax(values: &[f32]) -> usize {
    values
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// An image-classification app: preprocessing + model + backend spec.
#[derive(Debug, Clone)]
pub struct ImagePipeline {
    /// Preprocessing stage (the §4.3 bug surface).
    pub preprocess: ImagePreprocessConfig,
    /// The deployed model.
    pub model: Model,
    /// Kernel flavor and bug injection.
    pub backend: BackendSpec,
}

impl ImagePipeline {
    /// Builds a pipeline on the default (optimized, bug-free) backend.
    pub fn new(model: Model, preprocess: ImagePreprocessConfig) -> Self {
        ImagePipeline {
            preprocess,
            model,
            backend: BackendSpec::optimized(),
        }
    }

    /// Overrides the backend spec (reference kernels, injected bugs).
    pub fn with_backend(mut self, backend: BackendSpec) -> Self {
        self.backend = backend;
        self
    }

    /// Prepares a reusable runner (weights are materialized once).
    ///
    /// # Errors
    ///
    /// Propagates graph validation errors.
    pub fn runner(&self) -> Result<ImageRunner<'_>> {
        Ok(ImageRunner {
            pipeline: self,
            interp: Interpreter::new(&self.model.graph, self.backend)?,
        })
    }
}

/// Executes an [`ImagePipeline`] frame by frame.
#[derive(Debug)]
pub struct ImageRunner<'p> {
    pipeline: &'p ImagePipeline,
    interp: Interpreter<'p>,
}

impl ImageRunner<'_> {
    /// Classifies one frame, streaming telemetry into `monitor`: a
    /// [`ImageRunner::classify_batch`] of one.
    ///
    /// # Errors
    ///
    /// Propagates preprocessing and execution errors.
    pub fn classify(&mut self, frame: &LabeledFrame, monitor: &Monitor) -> Result<usize> {
        let predictions = self.classify_batch(std::slice::from_ref(frame), monitor)?;
        Ok(predictions[0])
    }

    /// Classifies a micro-batch of frames with **one** interpreter invoke
    /// ([`mlexray_nn::Interpreter::invoke_batch_observed`]), then logs the
    /// collected telemetry into `monitor` frame by frame: per frame the
    /// preprocess output and model input, each layer's output (and latency)
    /// at the monitor's capture depth, the model output, memory, the
    /// decision and the latency — the records the Table 1 instrumentation
    /// (`on_inference_start`, an invoke observed by
    /// [`Monitor::layer_observer`], `on_inference_stop`) logs, in the same
    /// order. Layer outputs are bitwise-identical at every batch size;
    /// per-frame latency is the invoke's latency divided by the batch size,
    /// and per-frame memory the plan's peak divided by the frames the arena
    /// held at once.
    ///
    /// # Errors
    ///
    /// Propagates preprocessing and execution errors.
    pub fn classify_batch(
        &mut self,
        frames: &[LabeledFrame],
        monitor: &Monitor,
    ) -> Result<Vec<usize>> {
        let inputs = self.preprocess(frames)?;
        self.classify_inputs(frames, &inputs, monitor, None)
    }

    /// The model inputs of `frames`: the pipeline's preprocessing, one
    /// tensor per frame.
    pub(crate) fn preprocess(&self, frames: &[LabeledFrame]) -> Result<Vec<Tensor>> {
        frames
            .iter()
            .map(|f| self.pipeline.preprocess.apply(&f.image).map_err(Into::into))
            .collect()
    }

    /// [`ImageRunner::classify_batch`] after preprocessing: `inputs[b]` is
    /// frame `b`'s model input, logged as its preprocess output and model
    /// input. A caller whose other pipeline preprocesses the same way hands
    /// both runners the same tensors. With a `layer_tap`, each layer record
    /// goes to the tap instead of being logged as a `layer/*/output`
    /// record; everything else is logged as without it.
    pub(crate) fn classify_inputs(
        &mut self,
        frames: &[LabeledFrame],
        inputs: &[Tensor],
        monitor: &Monitor,
        layer_tap: Option<&mut dyn LayerObserver>,
    ) -> Result<Vec<usize>> {
        debug_assert_eq!(frames.len(), inputs.len());
        if frames.is_empty() {
            return Ok(Vec::new());
        }
        let config = monitor.config();
        let mut collector = BatchCollector {
            config,
            per_frame: vec![Vec::new(); frames.len()],
            layer_tap,
        };
        let started = Instant::now();
        let refs: Vec<&[Tensor]> = inputs.iter().map(std::slice::from_ref).collect();
        let outputs = self.interp.invoke_batch_observed(&refs, &mut collector)?;
        let share_ns = (started.elapsed().as_nanos() as u64) / frames.len() as u64;
        let stats = self.interp.last_stats();
        let mut predictions = Vec::with_capacity(frames.len());
        for (b, frame) in frames.iter().enumerate() {
            monitor.log_tensor(KEY_PREPROCESS_OUTPUT, &inputs[b]);
            monitor.log_tensor(KEY_MODEL_INPUT, &inputs[b]);
            for (key, value) in std::mem::take(&mut collector.per_frame[b]) {
                monitor.emit(key, value);
            }
            let output = &outputs[b][0];
            let predicted = argmax(&output.to_f32_vec());
            monitor.log_tensor(KEY_MODEL_OUTPUT, output);
            if let Some(stats) = stats {
                // Per-frame attribution: the arena held `arena_frames`
                // frames at once (1 on the per-frame path).
                monitor
                    .log_memory((stats.peak_activation_bytes / stats.arena_frames.max(1)) as u64);
            }
            monitor.log_decision(predicted, frame.label);
            monitor.log_latency_ns(share_ns);
            predictions.push(predicted);
        }
        Ok(predictions)
    }

    /// Classifies a playback sequence, returning the predictions.
    ///
    /// # Errors
    ///
    /// Propagates per-frame errors.
    pub fn run(&mut self, frames: &[LabeledFrame], monitor: &Monitor) -> Result<Vec<usize>> {
        frames.iter().map(|f| self.classify(f, monitor)).collect()
    }
}

/// Collects per-frame layer records during an invoke so they can be logged
/// into the monitor grouped by frame. Each record is kept as the key and
/// value the monitor logs — outputs rendered at capture depth immediately,
/// so `Stats` capture never retains full activation copies — unless a
/// layer tap takes the outputs instead.
struct BatchCollector<'t> {
    config: MonitorConfig,
    per_frame: Vec<Vec<(String, LogValue)>>,
    layer_tap: Option<&'t mut dyn LayerObserver>,
}

impl LayerObserver for BatchCollector<'_> {
    fn on_layer(&mut self, record: &LayerRecord<'_>) {
        let records = &mut self.per_frame[record.batch];
        match self.layer_tap.as_deref_mut() {
            Some(tap) => tap.on_layer(record),
            None => {
                let full = self.config.per_layer == LayerCapture::Full;
                let value = LogValue::of_tensor(record.output, full);
                records.push((layer_output_key(record.name), value));
            }
        }
        if self.config.layer_latency {
            records.push((
                layer_latency_key(record.name),
                LogValue::LatencyNs(record.latency.as_nanos() as u64),
            ));
        }
    }

    fn enabled(&self) -> bool {
        self.config.per_layer != LayerCapture::None
    }
}

/// An audio-keyword app: STFT preprocessing + spectrogram CNN.
#[derive(Debug, Clone)]
pub struct AudioPipeline {
    /// STFT + normalization stage (the Fig. 4c bug surface).
    pub preprocess: AudioPreprocessConfig,
    /// The deployed model.
    pub model: Model,
    /// Kernel flavor and bug injection.
    pub backend: BackendSpec,
}

impl AudioPipeline {
    /// Builds a pipeline on the default backend.
    pub fn new(model: Model, preprocess: AudioPreprocessConfig) -> Self {
        AudioPipeline {
            preprocess,
            model,
            backend: BackendSpec::optimized(),
        }
    }

    /// Prepares a reusable runner.
    ///
    /// # Errors
    ///
    /// Propagates graph validation errors.
    pub fn runner(&self) -> Result<AudioRunner<'_>> {
        Ok(AudioRunner {
            pipeline: self,
            interp: Interpreter::new(&self.model.graph, self.backend)?,
        })
    }
}

/// Executes an [`AudioPipeline`] clip by clip.
#[derive(Debug)]
pub struct AudioRunner<'p> {
    pipeline: &'p AudioPipeline,
    interp: Interpreter<'p>,
}

impl AudioRunner<'_> {
    /// Classifies one waveform.
    ///
    /// # Errors
    ///
    /// Propagates preprocessing and execution errors.
    pub fn classify(
        &mut self,
        waveform: &[f32],
        label: Option<usize>,
        monitor: &Monitor,
    ) -> Result<usize> {
        let spec = self.pipeline.preprocess.apply(waveform)?;
        let input = spec.to_tensor()?;
        monitor.log_tensor(KEY_PREPROCESS_OUTPUT, &input);
        monitor.on_inference_start();
        let outputs = self
            .interp
            .invoke_observed(std::slice::from_ref(&input), &mut monitor.layer_observer())?;
        let predicted = argmax(&outputs[0].to_f32_vec());
        monitor.log_tensor(KEY_MODEL_OUTPUT, &outputs[0]);
        monitor.log_decision(predicted, label);
        monitor.on_inference_stop();
        Ok(predicted)
    }
}

/// A text-classification app: tokenizer + vocabulary + embedding model.
#[derive(Debug, Clone)]
pub struct TextPipeline {
    /// Tokenization stage (the Appendix A case-mismatch surface).
    pub preprocess: TextPreprocessConfig,
    /// Token vocabulary.
    pub vocab: Vocabulary,
    /// The deployed model.
    pub model: Model,
    /// Kernel flavor and bug injection.
    pub backend: BackendSpec,
}

impl TextPipeline {
    /// Builds a pipeline on the default backend.
    pub fn new(model: Model, preprocess: TextPreprocessConfig, vocab: Vocabulary) -> Self {
        TextPipeline {
            preprocess,
            vocab,
            model,
            backend: BackendSpec::optimized(),
        }
    }

    /// Prepares a reusable runner.
    ///
    /// # Errors
    ///
    /// Propagates graph validation errors.
    pub fn runner(&self) -> Result<TextRunner<'_>> {
        Ok(TextRunner {
            pipeline: self,
            interp: Interpreter::new(&self.model.graph, self.backend)?,
        })
    }
}

/// Executes a [`TextPipeline`] document by document.
#[derive(Debug)]
pub struct TextRunner<'p> {
    pipeline: &'p TextPipeline,
    interp: Interpreter<'p>,
}

impl TextRunner<'_> {
    /// Classifies one document.
    ///
    /// # Errors
    ///
    /// Propagates preprocessing and execution errors.
    pub fn classify(
        &mut self,
        text: &str,
        label: Option<usize>,
        monitor: &Monitor,
    ) -> Result<usize> {
        let ids = self
            .pipeline
            .preprocess
            .encode(text, &self.pipeline.vocab)?;
        let data: Vec<i32> = ids.iter().map(|&i| i as i32).collect();
        let input = Tensor::from_i32(Shape::matrix(1, data.len()), data, None)?;
        monitor.log_tensor(KEY_PREPROCESS_OUTPUT, &input);
        monitor.on_inference_start();
        let outputs = self
            .interp
            .invoke_observed(std::slice::from_ref(&input), &mut monitor.layer_observer())?;
        let predicted = argmax(&outputs[0].to_f32_vec());
        monitor.log_tensor(KEY_MODEL_OUTPUT, &outputs[0]);
        monitor.log_decision(predicted, label);
        monitor.on_inference_stop();
        Ok(predicted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::LogRecord;
    use mlexray_nn::{Activation, Padding};
    use mlexray_preprocess::ChannelOrder;

    fn tiny_image_model() -> Model {
        let mut b = mlexray_nn::GraphBuilder::new("tiny");
        let x = b.input("image", Shape::nhwc(1, 4, 4, 3));
        let w = b.constant("w", Tensor::filled_f32(Shape::new(vec![2, 1, 1, 3]), 0.5));
        let c = b
            .conv2d("conv", x, w, None, 1, Padding::Same, Activation::Relu)
            .unwrap();
        let m = b.mean("gap", c).unwrap();
        let s = b.softmax("softmax", m).unwrap();
        b.output(s);
        Model::checkpoint(b.finish().unwrap(), "tiny")
    }

    #[test]
    fn image_pipeline_logs_everything() {
        let model = tiny_image_model();
        let pp = ImagePreprocessConfig {
            target_height: 4,
            target_width: 4,
            channel_order: ChannelOrder::Rgb,
            ..ImagePreprocessConfig::mobilenet_style(4, 4)
        };
        let pipeline = ImagePipeline::new(model, pp);
        let mut runner = pipeline.runner().unwrap();
        let monitor = Monitor::new(MonitorConfig {
            per_layer: LayerCapture::Full,
            full_io: true,
            layer_latency: true,
        });
        let frame = LabeledFrame::new(Image::solid(8, 8, [128, 0, 255]), Some(1));
        let pred = runner.classify(&frame, &monitor).unwrap();
        assert!(pred < 2);
        let logs = monitor.take_logs();
        assert!(logs.get(0, KEY_PREPROCESS_OUTPUT).is_some());
        assert!(logs.get(0, KEY_MODEL_OUTPUT).is_some());
        assert!(logs.get(0, "layer/conv/output").is_some());
        assert_eq!(logs.inference_latencies().len(), 1);
        assert!(logs.accuracy().is_some());
    }

    #[test]
    fn run_processes_all_frames() {
        let model = tiny_image_model();
        let pipeline = ImagePipeline::new(model, ImagePreprocessConfig::mobilenet_style(4, 4));
        let mut runner = pipeline.runner().unwrap();
        let monitor = Monitor::new(MonitorConfig::runtime());
        let frames: Vec<LabeledFrame> = (0..3)
            .map(|i| LabeledFrame::new(Image::solid(8, 8, [i * 40, 100, 200]), Some(0)))
            .collect();
        let preds = runner.run(&frames, &monitor).unwrap();
        assert_eq!(preds.len(), 3);
        assert_eq!(monitor.frames_logged(), 3);
    }

    /// A non-scalar constant `Mul` rhs makes the graph batch-unsafe, so
    /// `classify_batch` exercises `invoke_batch`'s per-frame fallback.
    fn non_batchable_model() -> Model {
        let mut b = mlexray_nn::GraphBuilder::new("fallback");
        let x = b.input("image", Shape::nhwc(1, 4, 4, 3));
        let w = b.constant("w", Tensor::filled_f32(Shape::new(vec![2, 1, 1, 3]), 0.5));
        let c = b
            .conv2d("conv", x, w, None, 1, Padding::Same, Activation::Relu)
            .unwrap();
        let gate = b.constant(
            "gate",
            Tensor::from_f32(Shape::nhwc(1, 1, 1, 2), vec![0.5, 2.0]).unwrap(),
        );
        let g = b.mul("gated", c, gate).unwrap();
        let m = b.mean("gap", g).unwrap();
        let s = b.softmax("softmax", m).unwrap();
        b.output(s);
        Model::checkpoint(b.finish().unwrap(), "fallback")
    }

    /// Per-frame memory attribution must not depend on whether
    /// `classify_batch` ran the stacked path or the per-frame fallback:
    /// logged memory must equal what frame-by-frame `classify` logs.
    #[test]
    fn classify_batch_memory_matches_per_frame_on_fallback() {
        let frames: Vec<LabeledFrame> = (0..4)
            .map(|i| LabeledFrame::new(Image::solid(8, 8, [i * 30, 90, 210]), Some(0)))
            .collect();
        for model in [tiny_image_model(), non_batchable_model()] {
            let pipeline = ImagePipeline::new(model, ImagePreprocessConfig::mobilenet_style(4, 4));

            let mut per_frame = pipeline.runner().unwrap();
            let baseline = Monitor::new(MonitorConfig::runtime());
            for frame in &frames {
                per_frame.classify(frame, &baseline).unwrap();
            }
            let baseline_memory: Vec<_> = baseline
                .take_logs()
                .all(crate::log::KEY_INFERENCE_MEMORY)
                .into_iter()
                .map(|r| r.value.clone())
                .collect();

            let mut batched = pipeline.runner().unwrap();
            let monitor = Monitor::new(MonitorConfig::runtime());
            batched.classify_batch(&frames, &monitor).unwrap();
            let batched_memory: Vec<_> = monitor
                .take_logs()
                .all(crate::log::KEY_INFERENCE_MEMORY)
                .into_iter()
                .map(|r| r.value.clone())
                .collect();

            assert_eq!(baseline_memory.len(), frames.len());
            assert_eq!(
                batched_memory,
                baseline_memory,
                "per-frame memory attribution diverged for '{}'",
                batched.pipeline.model.graph.name()
            );
        }
    }

    /// The Table 1 instrumentation of one frame, spelled out: the
    /// preprocess and model-input records, then `on_inference_start` → an
    /// invoke observed by the monitor's layer observer → output, memory and
    /// decision → `on_inference_stop`.
    fn classify_instrumented(
        pipeline: &ImagePipeline,
        interp: &mut Interpreter<'_>,
        frame: &LabeledFrame,
        monitor: &Monitor,
    ) -> usize {
        let input = pipeline.preprocess.apply(&frame.image).unwrap();
        monitor.log_tensor(KEY_PREPROCESS_OUTPUT, &input);
        monitor.log_tensor(KEY_MODEL_INPUT, &input);
        monitor.on_inference_start();
        let outputs = interp
            .invoke_observed(std::slice::from_ref(&input), &mut monitor.layer_observer())
            .unwrap();
        let predicted = argmax(&outputs[0].to_f32_vec());
        monitor.log_tensor(KEY_MODEL_OUTPUT, &outputs[0]);
        monitor.log_memory(interp.last_stats().unwrap().peak_activation_bytes as u64);
        monitor.log_decision(predicted, frame.label);
        monitor.on_inference_stop();
        predicted
    }

    /// `classify` is a batch of one, and logs record for record what the
    /// Table 1 instrumentation logs — same keys, frames and order, values
    /// bit for bit except wall-clock latencies — at every capture depth,
    /// with and without layer latencies and full I/O, on the stacked and on
    /// the per-frame-fallback graph alike.
    #[test]
    fn a_frame_logs_what_the_table1_instrumentation_logs() {
        let frames: Vec<LabeledFrame> = (0..3)
            .map(|i| LabeledFrame::new(Image::solid(8, 8, [i * 70, 120, 30]), Some(1)))
            .collect();
        // Debug renders every float in its shortest round-tripping form, so
        // equal renderings are equal bits (NaN payloads aside).
        let bits = |r: &LogRecord| match r.value {
            LogValue::LatencyNs(_) => (r.frame, r.key.clone(), "latency".to_string()),
            ref value => (r.frame, r.key.clone(), format!("{value:?}")),
        };
        for model in [tiny_image_model(), non_batchable_model()] {
            let pipeline = ImagePipeline::new(model, ImagePreprocessConfig::mobilenet_style(4, 4));
            for per_layer in [LayerCapture::None, LayerCapture::Stats, LayerCapture::Full] {
                for (layer_latency, full_io) in
                    [(false, false), (false, true), (true, false), (true, true)]
                {
                    let config = MonitorConfig {
                        per_layer,
                        full_io,
                        layer_latency,
                    };
                    let what = format!("{} {config:?}", pipeline.model.graph.name());
                    let (by_hand, by_runner) = (Monitor::new(config), Monitor::new(config));
                    let mut interp =
                        Interpreter::new(&pipeline.model.graph, pipeline.backend).unwrap();
                    let mut runner = pipeline.runner().unwrap();
                    for frame in &frames {
                        let want = classify_instrumented(&pipeline, &mut interp, frame, &by_hand);
                        assert_eq!(runner.classify(frame, &by_runner).unwrap(), want, "{what}");
                    }
                    let want: Vec<_> = by_hand.take_logs().records().iter().map(bits).collect();
                    let got: Vec<_> = by_runner.take_logs().records().iter().map(bits).collect();
                    let layers = want.iter().filter(|r| r.1.starts_with("layer/")).count();
                    assert_eq!(layers > 0, per_layer != LayerCapture::None, "{what}");
                    assert_eq!(got, want, "{what}");
                }
            }
        }
    }
}
