//! The ML-EXray telemetry data model (§3.2): key-value records covering
//! input/output tensors, performance metrics and peripheral sensors.

use serde::{Deserialize, Serialize};

use mlexray_tensor::{Shape, Tensor, TensorStats};

/// Key of the end-to-end inference latency record.
pub const KEY_INFERENCE_LATENCY: &str = "inference/latency_ns";
/// Key of the peak activation-memory record.
pub const KEY_INFERENCE_MEMORY: &str = "inference/peak_activation_bytes";
/// Key of the classification-decision record.
pub const KEY_DECISION: &str = "inference/decision";
/// Key of the preprocessing-stage output tensor.
pub const KEY_PREPROCESS_OUTPUT: &str = "preprocess/output";
/// Key of the model input tensor.
pub const KEY_MODEL_INPUT: &str = "model/input";
/// Key of the model output tensor.
pub const KEY_MODEL_OUTPUT: &str = "model/output";

/// Builds the per-layer output key for a node (name-based so that edge and
/// reference pipelines match layers across graph variants).
pub fn layer_output_key(name: &str) -> String {
    format!("layer/{name}/output")
}

/// Builds the per-layer latency key for a node.
pub fn layer_latency_key(name: &str) -> String {
    format!("layer/{name}/latency_ns")
}

/// A peripheral-sensor reading (§3.2's third telemetry class): context that
/// can explain degraded input quality.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SensorReading {
    /// Device orientation in degrees clockwise from upright.
    Orientation {
        /// 0, 90, 180 or 270 for the four device postures.
        degrees: u16,
    },
    /// Linear acceleration magnitude (shake/motion blur proxy).
    Motion {
        /// m/s².
        magnitude: f32,
    },
    /// Ambient light level.
    AmbientLight {
        /// Lux.
        lux: f32,
    },
}

/// The payload of one log record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LogValue {
    /// A full tensor dump (dequantized to f32) — the offline-validation mode.
    TensorFull {
        /// Tensor shape.
        shape: Shape,
        /// Row-major values.
        values: Vec<f32>,
    },
    /// A compact tensor summary — the cheap runtime mode.
    TensorSummary(TensorStats),
    /// A scalar metric.
    Scalar(f64),
    /// Free-form text.
    Text(String),
    /// A latency measurement.
    LatencyNs(u64),
    /// A byte count (memory, storage).
    Bytes(u64),
    /// A peripheral-sensor reading.
    Sensor(SensorReading),
    /// A classification decision, with the ground-truth label when the frame
    /// came from a labelled playback source.
    Decision {
        /// Argmax class.
        predicted: usize,
        /// Ground truth, if known.
        label: Option<usize>,
    },
}

impl LogValue {
    /// Captures a tensor, fully or as a summary. Quantized tensors are
    /// dequantized so edge logs compare directly against float references;
    /// the summary of an `f32` tensor is folded over its buffer in place.
    pub fn of_tensor(tensor: &Tensor, full: bool) -> LogValue {
        if full {
            return LogValue::TensorFull {
                shape: tensor.shape().clone(),
                values: tensor.to_f32_vec(),
            };
        }
        LogValue::TensorSummary(match tensor.as_f32() {
            Ok(values) => TensorStats::of(values),
            Err(_) => TensorStats::of(&tensor.to_f32_vec()),
        })
    }

    /// The full values, when this record carries them.
    pub fn values(&self) -> Option<&[f32]> {
        match self {
            LogValue::TensorFull { values, .. } => Some(values),
            _ => None,
        }
    }

    /// The tensor statistics, computed on demand for full dumps.
    pub fn stats(&self) -> Option<TensorStats> {
        match self {
            LogValue::TensorFull { values, .. } => Some(TensorStats::of(values)),
            LogValue::TensorSummary(s) => Some(*s),
            _ => None,
        }
    }

    /// Approximate serialized size in bytes (drives the storage accounting
    /// of Tables 2/3/5).
    pub fn byte_size(&self) -> u64 {
        match self {
            LogValue::TensorFull { values, shape } => (values.len() * 4 + shape.rank() * 8) as u64,
            LogValue::TensorSummary(_) => 24,
            LogValue::Scalar(_) | LogValue::LatencyNs(_) | LogValue::Bytes(_) => 8,
            LogValue::Text(t) => t.len() as u64,
            LogValue::Sensor(_) => 8,
            LogValue::Decision { .. } => 16,
        }
    }
}

/// One telemetry record: frame sequence number, key, payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogRecord {
    /// Frame (inference) sequence number.
    pub frame: u64,
    /// Hierarchical key ("layer/conv1/output", "inference/latency_ns", ...).
    pub key: String,
    /// Payload.
    pub value: LogValue,
}

impl LogRecord {
    /// Approximate serialized size in bytes.
    pub fn byte_size(&self) -> u64 {
        self.key.len() as u64 + 12 + self.value.byte_size()
    }
}

/// An in-memory, queryable collection of log records — what the offline
/// validator consumes from either pipeline.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LogSet {
    records: Vec<LogRecord>,
}

impl LogSet {
    /// Wraps a record list.
    pub fn new(records: Vec<LogRecord>) -> Self {
        LogSet { records }
    }

    /// All records.
    pub fn records(&self) -> &[LogRecord] {
        &self.records
    }

    /// Consumes the set, yielding its records (the sharded replay merge
    /// concatenates per-shard records without cloning).
    pub fn into_records(self) -> Vec<LogRecord> {
        self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of distinct frames.
    pub fn frame_count(&self) -> u64 {
        self.records.iter().map(|r| r.frame + 1).max().unwrap_or(0)
    }

    /// Total approximate byte size of all records.
    pub fn byte_size(&self) -> u64 {
        self.records.iter().map(LogRecord::byte_size).sum()
    }

    /// The record with `key` in `frame`, if any.
    pub fn get(&self, frame: u64, key: &str) -> Option<&LogRecord> {
        self.records
            .iter()
            .find(|r| r.frame == frame && r.key == key)
    }

    /// All records with `key`, ordered by frame.
    pub fn all(&self, key: &str) -> Vec<&LogRecord> {
        let mut v: Vec<&LogRecord> = self.records.iter().filter(|r| r.key == key).collect();
        v.sort_by_key(|r| r.frame);
        v
    }

    /// Distinct keys matching a prefix, in first-seen order (e.g. all
    /// `layer/` keys).
    pub fn keys_with_prefix(&self, prefix: &str) -> Vec<&str> {
        let mut seen = Vec::new();
        for r in &self.records {
            if r.key.starts_with(prefix) && !seen.contains(&r.key.as_str()) {
                seen.push(r.key.as_str());
            }
        }
        seen
    }

    /// Per-frame classification decisions `(frame, predicted, label)`.
    pub fn decisions(&self) -> Vec<(u64, usize, Option<usize>)> {
        self.all(KEY_DECISION)
            .into_iter()
            .filter_map(|r| match r.value {
                LogValue::Decision { predicted, label } => Some((r.frame, predicted, label)),
                _ => None,
            })
            .collect()
    }

    /// Top-1 accuracy over decisions carrying labels, or `None` if no
    /// labelled decisions were logged.
    pub fn accuracy(&self) -> Option<f32> {
        let labelled: Vec<(usize, usize)> = self
            .decisions()
            .into_iter()
            .filter_map(|(_, p, l)| l.map(|l| (p, l)))
            .collect();
        if labelled.is_empty() {
            return None;
        }
        let correct = labelled.iter().filter(|(p, l)| p == l).count();
        Some(correct as f32 / labelled.len() as f32)
    }

    /// End-to-end latencies in ns, ordered by frame.
    pub fn inference_latencies(&self) -> Vec<u64> {
        self.all(KEY_INFERENCE_LATENCY)
            .into_iter()
            .filter_map(|r| match r.value {
                LogValue::LatencyNs(ns) => Some(ns),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(frame: u64, key: &str, value: LogValue) -> LogRecord {
        LogRecord {
            frame,
            key: key.into(),
            value,
        }
    }

    #[test]
    fn logset_queries() {
        let set = LogSet::new(vec![
            record(0, KEY_INFERENCE_LATENCY, LogValue::LatencyNs(100)),
            record(1, KEY_INFERENCE_LATENCY, LogValue::LatencyNs(200)),
            record(0, "layer/conv1/output", LogValue::Scalar(1.0)),
        ]);
        assert_eq!(set.frame_count(), 2);
        assert_eq!(set.inference_latencies(), vec![100, 200]);
        assert_eq!(set.keys_with_prefix("layer/"), vec!["layer/conv1/output"]);
        assert!(set.get(0, "layer/conv1/output").is_some());
        assert!(set.get(1, "layer/conv1/output").is_none());
    }

    #[test]
    fn accuracy_from_decisions() {
        let set = LogSet::new(vec![
            record(
                0,
                KEY_DECISION,
                LogValue::Decision {
                    predicted: 1,
                    label: Some(1),
                },
            ),
            record(
                1,
                KEY_DECISION,
                LogValue::Decision {
                    predicted: 0,
                    label: Some(1),
                },
            ),
            record(
                2,
                KEY_DECISION,
                LogValue::Decision {
                    predicted: 2,
                    label: None,
                },
            ),
        ]);
        assert_eq!(set.accuracy(), Some(0.5));
        assert_eq!(LogSet::default().accuracy(), None);
    }

    #[test]
    fn tensor_capture_modes() {
        let t = Tensor::from_f32(Shape::vector(3), vec![1.0, 2.0, 3.0]).unwrap();
        let big = Tensor::filled_f32(Shape::vector(64), 0.5);
        let full = LogValue::of_tensor(&t, true);
        assert_eq!(full.values(), Some(&[1.0, 2.0, 3.0][..]));
        let summary = LogValue::of_tensor(&t, false);
        assert!(summary.values().is_none());
        assert_eq!(summary.stats().unwrap().max, 3.0);
        // Full dumps dominate summaries for any non-trivial tensor.
        let big_full = LogValue::of_tensor(&big, true);
        let big_summary = LogValue::of_tensor(&big, false);
        assert!(big_full.byte_size() > big_summary.byte_size());
        // A summary is the fold over the (dequantized) values, whether it
        // walked the tensor's own buffer or a dequantized copy.
        use mlexray_tensor::QuantParams;
        let quantized = t
            .quantize_to_u8(&QuantParams::from_min_max_u8(0.0, 3.0))
            .unwrap();
        for tensor in [&t, &quantized] {
            assert_eq!(
                LogValue::of_tensor(tensor, false),
                LogValue::TensorSummary(TensorStats::of(&tensor.to_f32_vec()))
            );
        }
    }

    #[test]
    fn quantized_tensors_log_dequantized() {
        use mlexray_tensor::QuantParams;
        let t = Tensor::from_f32(Shape::vector(2), vec![0.0, 1.0]).unwrap();
        let q = t
            .quantize_to_u8(&QuantParams::from_min_max_u8(0.0, 1.0))
            .unwrap();
        let v = LogValue::of_tensor(&q, true);
        let vals = v.values().unwrap();
        assert!((vals[1] - 1.0).abs() < 0.01);
    }
}
