//! The EdgeML Monitor (§3.2): the instrumentation object both the edge app
//! and the reference pipeline instantiate.
//!
//! The API mirrors the paper's C++/Java snippets:
//!
//! ```text
//! MLEXray->on_inf_start();
//! TfLiteStatus s = m_interpreter->Invoke();
//! MLEXray->on_inf_stop(&m_interpreter);
//! ```
//!
//! becomes
//!
//! ```
//! # use mlexray_core::{Monitor, MonitorConfig};
//! let monitor = Monitor::new(MonitorConfig::default());
//! monitor.on_inference_start();
//! // interpreter invoke...
//! monitor.on_inference_stop();
//! assert_eq!(monitor.frames_logged(), 1);
//! ```

use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use mlexray_nn::{LayerObserver, LayerRecord};
use mlexray_tensor::Tensor;

use crate::log::{
    layer_latency_key, layer_output_key, LogRecord, LogValue, SensorReading, KEY_DECISION,
    KEY_INFERENCE_LATENCY, KEY_INFERENCE_MEMORY,
};
use crate::sink::{LogSink, MemorySink};

/// How much of each layer output the monitor captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LayerCapture {
    /// Per-layer logging disabled (cheap runtime default; Table 2 overhead).
    #[default]
    None,
    /// Compact statistics per layer.
    Stats,
    /// Full tensor dumps per layer (offline validation; Tables 3/5).
    Full,
}

/// Monitor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MonitorConfig {
    /// Per-layer capture mode.
    pub per_layer: LayerCapture,
    /// Capture full tensors (rather than stats) for explicitly logged
    /// tensors such as preprocessing outputs.
    pub full_io: bool,
    /// Record per-layer latency alongside outputs.
    pub layer_latency: bool,
}

impl MonitorConfig {
    /// The offline-validation configuration: full per-layer dumps with
    /// latencies (expensive; §4.2 measures tens of seconds and tens of MB on
    /// device).
    pub fn offline_validation() -> Self {
        MonitorConfig {
            per_layer: LayerCapture::Full,
            full_io: true,
            layer_latency: true,
        }
    }

    /// The lightweight always-on configuration (§4.2: ≤3 ms, ~0.4 KB/frame).
    pub fn runtime() -> Self {
        MonitorConfig {
            per_layer: LayerCapture::None,
            full_io: false,
            layer_latency: false,
        }
    }
}

/// The EdgeML Monitor: collects default inference logs (latency, memory,
/// decisions), optional per-layer telemetry, custom key-value logs and
/// peripheral-sensor readings, and forwards everything to a [`LogSink`].
pub struct Monitor {
    config: MonitorConfig,
    sink: Arc<dyn LogSink>,
    memory: Option<Arc<MemorySink>>,
    frame: Mutex<u64>,
    inference_start: Mutex<Option<Instant>>,
    sensor_start: Mutex<Option<Instant>>,
}

impl std::fmt::Debug for Monitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Monitor")
            .field("config", &self.config)
            .field("frame", &*self.frame.lock())
            .finish_non_exhaustive()
    }
}

impl Monitor {
    /// Creates a monitor backed by an in-memory sink (drain it with
    /// [`Monitor::take_logs`]).
    pub fn new(config: MonitorConfig) -> Self {
        let memory = Arc::new(MemorySink::new());
        Monitor {
            config,
            sink: memory.clone(),
            memory: Some(memory),
            frame: Mutex::new(0),
            inference_start: Mutex::new(None),
            sensor_start: Mutex::new(None),
        }
    }

    /// Creates a monitor writing to a custom sink (e.g. a
    /// [`crate::JsonlFileSink`]).
    pub fn with_sink(config: MonitorConfig, sink: Arc<dyn LogSink>) -> Self {
        Monitor {
            config,
            sink,
            memory: None,
            frame: Mutex::new(0),
            inference_start: Mutex::new(None),
            sensor_start: Mutex::new(None),
        }
    }

    /// Rebases the frame counter so the next inference logs as frame
    /// `first_frame`. Sharded replay workers use this to emit globally
    /// numbered records directly, so per-shard logs merge without rewriting.
    #[must_use]
    pub fn starting_at(self, first_frame: u64) -> Self {
        *self.frame.lock() = first_frame;
        self
    }

    /// The monitor's configuration.
    pub fn config(&self) -> MonitorConfig {
        self.config
    }

    /// The current frame (inference) index.
    pub fn current_frame(&self) -> u64 {
        *self.frame.lock()
    }

    /// Number of completed inferences.
    pub fn frames_logged(&self) -> u64 {
        self.current_frame()
    }

    /// Bytes logged so far.
    pub fn bytes_logged(&self) -> u64 {
        self.sink.bytes_written()
    }

    fn emit(&self, key: String, value: LogValue) {
        let frame = *self.frame.lock();
        self.sink.write(LogRecord { frame, key, value });
    }

    /// Marks the start of one inference.
    pub fn on_inference_start(&self) {
        *self.inference_start.lock() = Some(Instant::now());
    }

    /// Marks the end of one inference: logs wall-clock latency and advances
    /// the frame counter.
    pub fn on_inference_stop(&self) {
        if let Some(start) = self.inference_start.lock().take() {
            self.emit(
                KEY_INFERENCE_LATENCY.to_string(),
                LogValue::LatencyNs(start.elapsed().as_nanos() as u64),
            );
        }
        *self.frame.lock() += 1;
    }

    /// Overrides the latency of the current frame (used when latency comes
    /// from a simulated device rather than the wall clock).
    pub fn log_latency_ns(&self, ns: u64) {
        *self.inference_start.lock() = None;
        self.emit(KEY_INFERENCE_LATENCY.to_string(), LogValue::LatencyNs(ns));
        *self.frame.lock() += 1;
    }

    /// Logs peak activation memory of the current frame.
    pub fn log_memory(&self, bytes: u64) {
        self.emit(KEY_INFERENCE_MEMORY.to_string(), LogValue::Bytes(bytes));
    }

    /// Logs a tensor under a custom key (preprocessing outputs, custom
    /// function I/O). Capture depth follows `config.full_io`.
    pub fn log_tensor(&self, key: &str, tensor: &Tensor) {
        self.emit(
            key.to_string(),
            LogValue::of_tensor(tensor, self.config.full_io),
        );
    }

    /// Logs an arbitrary value under a custom key.
    pub fn log_value(&self, key: &str, value: LogValue) {
        self.emit(key.to_string(), value);
    }

    /// Logs a classification decision (with ground truth when replaying a
    /// labelled dataset).
    pub fn log_decision(&self, predicted: usize, label: Option<usize>) {
        self.emit(
            KEY_DECISION.to_string(),
            LogValue::Decision { predicted, label },
        );
    }

    /// Marks the start of a sensor-capture window.
    pub fn on_sensor_start(&self) {
        *self.sensor_start.lock() = Some(Instant::now());
    }

    /// Marks the end of a sensor-capture window and logs its duration.
    pub fn on_sensor_stop(&self) {
        if let Some(start) = self.sensor_start.lock().take() {
            self.emit(
                "sensor/capture_latency_ns".to_string(),
                LogValue::LatencyNs(start.elapsed().as_nanos() as u64),
            );
        }
    }

    /// Logs a peripheral-sensor reading.
    pub fn log_sensor(&self, reading: SensorReading) {
        self.emit("sensor/reading".to_string(), LogValue::Sensor(reading));
    }

    /// Returns a [`LayerObserver`] that streams per-layer telemetry into
    /// this monitor — attach it to
    /// [`mlexray_nn::Interpreter::invoke_observed`]. Instrumenting an app is
    /// these two lines plus start/stop, which is how ML-EXray keeps
    /// instrumentation under 5 LoC (Table 1).
    pub fn layer_observer(&self) -> MonitorLayerObserver<'_> {
        MonitorLayerObserver { monitor: self }
    }

    /// Drains buffered records (memory-sink monitors only).
    ///
    /// # Panics
    ///
    /// Panics if the monitor was built over a custom sink.
    pub fn take_logs(&self) -> crate::log::LogSet {
        let memory = self
            .memory
            .as_ref()
            .expect("take_logs requires the default in-memory sink");
        crate::log::LogSet::new(memory.drain())
    }

    /// Snapshots buffered records without draining (memory-sink monitors
    /// only).
    ///
    /// # Panics
    ///
    /// Panics if the monitor was built over a custom sink.
    pub fn snapshot_logs(&self) -> crate::log::LogSet {
        let memory = self
            .memory
            .as_ref()
            .expect("snapshot_logs requires the default in-memory sink");
        crate::log::LogSet::new(memory.snapshot())
    }
}

/// Adapter streaming interpreter layer records into a [`Monitor`].
pub struct MonitorLayerObserver<'m> {
    monitor: &'m Monitor,
}

impl LayerObserver for MonitorLayerObserver<'_> {
    fn on_layer(&mut self, record: &LayerRecord<'_>) {
        let capture = self.monitor.config.per_layer;
        if capture == LayerCapture::None {
            return;
        }
        let full = capture == LayerCapture::Full;
        self.monitor.emit(
            layer_output_key(record.name),
            LogValue::of_tensor(record.output, full),
        );
        if self.monitor.config.layer_latency {
            self.monitor.emit(
                layer_latency_key(record.name),
                LogValue::LatencyNs(record.latency.as_nanos() as u64),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlexray_tensor::Shape;

    #[test]
    fn inference_cycle_logs_latency_and_advances_frames() {
        let m = Monitor::new(MonitorConfig::default());
        m.on_inference_start();
        m.on_inference_stop();
        m.on_inference_start();
        m.on_inference_stop();
        assert_eq!(m.frames_logged(), 2);
        let logs = m.take_logs();
        assert_eq!(logs.inference_latencies().len(), 2);
    }

    #[test]
    fn custom_tensor_and_sensor_logging() {
        let m = Monitor::new(MonitorConfig {
            full_io: true,
            ..Default::default()
        });
        let t = Tensor::from_f32(Shape::vector(2), vec![1.0, 2.0]).unwrap();
        m.log_tensor("preprocess/output", &t);
        m.log_sensor(SensorReading::Orientation { degrees: 90 });
        m.on_inference_stop();
        let logs = m.take_logs();
        let rec = logs.get(0, "preprocess/output").unwrap();
        assert_eq!(rec.value.values(), Some(&[1.0, 2.0][..]));
        assert!(logs.get(0, "sensor/reading").is_some());
    }

    #[test]
    fn layer_observer_respects_capture_mode() {
        use mlexray_nn::{Activation, BackendSpec, GraphBuilder, Interpreter, Padding};
        let mut b = GraphBuilder::new("g");
        let x = b.input("x", Shape::nhwc(1, 2, 2, 1));
        let w = b.constant("w", Tensor::filled_f32(Shape::new(vec![1, 1, 1, 1]), 2.0));
        let y = b
            .conv2d("double", x, w, None, 1, Padding::Same, Activation::None)
            .unwrap();
        b.output(y);
        let g = b.finish().unwrap();

        for (capture, expect_layers) in [(LayerCapture::None, false), (LayerCapture::Full, true)] {
            let m = Monitor::new(MonitorConfig {
                per_layer: capture,
                layer_latency: true,
                full_io: false,
            });
            let mut interp = Interpreter::new(&g, BackendSpec::optimized()).unwrap();
            m.on_inference_start();
            interp
                .invoke_observed(
                    &[Tensor::filled_f32(Shape::nhwc(1, 2, 2, 1), 1.0)],
                    &mut m.layer_observer(),
                )
                .unwrap();
            m.on_inference_stop();
            let logs = m.take_logs();
            assert_eq!(
                logs.get(0, "layer/double/output").is_some(),
                expect_layers,
                "{capture:?}"
            );
        }
    }

    #[test]
    fn decision_logging_feeds_accuracy() {
        let m = Monitor::new(MonitorConfig::default());
        m.log_decision(1, Some(1));
        m.on_inference_stop();
        m.log_decision(0, Some(1));
        m.on_inference_stop();
        assert_eq!(m.take_logs().accuracy(), Some(0.5));
    }

    #[test]
    fn bytes_logged_grows() {
        let m = Monitor::new(MonitorConfig::offline_validation());
        assert_eq!(m.bytes_logged(), 0);
        m.log_tensor("k", &Tensor::filled_f32(Shape::vector(100), 0.0));
        assert!(m.bytes_logged() > 400);
    }
}
