//! The JSON the workspace writes, pinned byte for byte.
//!
//! * Every [`LogValue`] and [`SensorReading`] variant has one literal JSONL
//!   line, recorded from the `Value`-tree printer the direct writer
//!   replaced: string escapes (`"`, `\`, `\n`, `\u0001`, non-ASCII), `-0.0`,
//!   `1e30`, an `f32` widened to `f64`, non-finite floats as `null`,
//!   `u64::MAX`, and a decision with and without its label.
//! * A log holding NaN or ±∞ reads back, with NaN in those fields.
//! * The other documents (a zoo model's graph, a lint report, a Chrome
//!   trace) are in canonical form — parsing and printing them again gives
//!   the same bytes — and deserialize back to what was written.

use std::path::PathBuf;

use mlexray_core::{
    chrome_trace_json, JsonlFileSink, LogRecord, LogSink, LogValue, SensorReading, Span, SpanStage,
    Trace,
};
use mlexray_models::{MiniFamily, ZooModel};
use mlexray_nn::analysis::{analyze, Diagnostic, LintCode, LintReport};
use mlexray_nn::Graph;
use mlexray_tensor::{Shape, TensorStats};

fn record(frame: u64, key: &str, value: LogValue) -> LogRecord {
    LogRecord {
        frame,
        key: key.to_string(),
        value,
    }
}

/// One record per pinned line, in [`PINNED_LINES`] order.
fn pinned_records() -> Vec<LogRecord> {
    vec![
        record(
            0,
            "layer/conv \"1\"\\out\n\u{1}é/output",
            LogValue::TensorFull {
                shape: Shape::new(vec![2, 3]),
                values: vec![-0.0, 0.1, 1e30, f32::NAN, f32::INFINITY, f32::NEG_INFINITY],
            },
        ),
        record(
            1,
            "layer/conv1/output",
            LogValue::TensorSummary(TensorStats::of(&[1.0, f32::NAN])),
        ),
        record(2, "metric/scalar", LogValue::Scalar(1e30)),
        record(3, "metric/negative_zero", LogValue::Scalar(-0.0)),
        record(4, "metric/inf", LogValue::Scalar(f64::NEG_INFINITY)),
        record(
            5,
            "note",
            LogValue::Text("quote \" backslash \\ newline \n tab \t cr \r ctrl \u{1} µ 🦀".into()),
        ),
        record(
            u64::MAX,
            "inference/latency_ns",
            LogValue::LatencyNs(u64::MAX),
        ),
        record(6, "inference/peak_activation_bytes", LogValue::Bytes(4096)),
        record(
            7,
            "sensor/orientation",
            LogValue::Sensor(SensorReading::Orientation { degrees: 270 }),
        ),
        record(
            8,
            "sensor/motion",
            LogValue::Sensor(SensorReading::Motion { magnitude: 0.1 }),
        ),
        record(
            9,
            "sensor/light",
            LogValue::Sensor(SensorReading::AmbientLight { lux: 1e30 }),
        ),
        record(
            10,
            "inference/decision",
            LogValue::Decision {
                predicted: 3,
                label: None,
            },
        ),
        record(
            11,
            "inference/decision",
            LogValue::Decision {
                predicted: 7,
                label: Some(2),
            },
        ),
    ]
}

/// The line each of [`pinned_records`] writes.
const PINNED_LINES: [&str; 13] = [
    r#"{"frame":0,"key":"layer/conv \"1\"\\out\n\u0001é/output","value":{"TensorFull":{"shape":[2,3],"values":[-0.0,0.10000000149011612,1000000015047466200000000000000.0,null,null,null]}}}"#,
    r#"{"frame":1,"key":"layer/conv1/output","value":{"TensorSummary":{"min":1.0,"max":1.0,"mean":null,"std":0.0,"l2":null,"count":2}}}"#,
    r#"{"frame":2,"key":"metric/scalar","value":{"Scalar":1000000000000000000000000000000.0}}"#,
    r#"{"frame":3,"key":"metric/negative_zero","value":{"Scalar":-0.0}}"#,
    r#"{"frame":4,"key":"metric/inf","value":{"Scalar":null}}"#,
    r#"{"frame":5,"key":"note","value":{"Text":"quote \" backslash \\ newline \n tab \t cr \r ctrl \u0001 µ 🦀"}}"#,
    r#"{"frame":18446744073709551615,"key":"inference/latency_ns","value":{"LatencyNs":18446744073709551615}}"#,
    r#"{"frame":6,"key":"inference/peak_activation_bytes","value":{"Bytes":4096}}"#,
    r#"{"frame":7,"key":"sensor/orientation","value":{"Sensor":{"Orientation":{"degrees":270}}}}"#,
    r#"{"frame":8,"key":"sensor/motion","value":{"Sensor":{"Motion":{"magnitude":0.10000000149011612}}}}"#,
    r#"{"frame":9,"key":"sensor/light","value":{"Sensor":{"AmbientLight":{"lux":1000000015047466200000000000000.0}}}}"#,
    r#"{"frame":10,"key":"inference/decision","value":{"Decision":{"predicted":3,"label":null}}}"#,
    r#"{"frame":11,"key":"inference/decision","value":{"Decision":{"predicted":7,"label":2}}}"#,
];

/// What [`chrome_trace_json`] makes of [`sample_traces`].
const PINNED_CHROME_TRACE: &str = r#"{"traceEvents":[{"name":"request","cat":"serve","ph":"X","ts":0.0,"dur":6.33,"pid":"mini_v2 \"edge\"","tid":"feed000000000001","args":{"trace_id":"feed000000000001","span_id":"0000000000000001","parent_span_id":"0000000000000000","flavor":2,"arg_a":4,"arg_b":18446744073709551615}},{"name":"batch_form","cat":"serve","ph":"X","ts":1.5,"dur":0.3,"pid":"mini_v2 \"edge\"","tid":"feed000000000001","args":{"trace_id":"feed000000000001","span_id":"0000000000000002","parent_span_id":"0000000000000001","flavor":2,"arg_a":4,"arg_b":18446744073709551615}},{"name":"layer","cat":"serve","ph":"X","ts":2.001,"dur":0.001,"pid":"mini_v2 \"edge\"","tid":"feed000000000001","args":{"trace_id":"feed000000000001","span_id":"0000000000000003","parent_span_id":"0000000000000001","flavor":2,"arg_a":4,"arg_b":18446744073709551615,"layer":4}}],"displayTimeUnit":"ms"}"#;

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mlexray-json-format-{}-{name}", std::process::id()))
}

/// Asserts `json` is what the printer makes of its own parse.
fn assert_canonical(label: &str, json: &str) {
    let value = serde_json::parse_value(json).unwrap_or_else(|e| panic!("{label}: {e}"));
    let printed = serde_json::to_string(&value).unwrap();
    assert!(printed == json, "{label}: not in canonical form");
}

#[test]
fn every_log_value_and_sensor_variant_writes_its_pinned_line() {
    let records = pinned_records();
    for (record, pin) in records.iter().zip(PINNED_LINES) {
        assert_eq!(serde_json::to_string(record).unwrap(), pin);
        assert_canonical(&record.key, pin);
    }
    let expected: String = PINNED_LINES.iter().map(|l| format!("{l}\n")).collect();

    // One batch, and the same records one write at a time.
    let path = scratch("pins.jsonl");
    let sink = JsonlFileSink::create(&path).unwrap();
    sink.write_batch(records.clone());
    sink.flush().unwrap();
    assert_eq!(std::fs::read_to_string(&path).unwrap(), expected);
    assert_eq!(sink.bytes_written(), expected.len() as u64);

    let sink = JsonlFileSink::create(&path).unwrap();
    for record in records {
        sink.write(record);
    }
    sink.flush().unwrap();
    assert_eq!(std::fs::read_to_string(&path).unwrap(), expected);
    assert_eq!(sink.bytes_written(), expected.len() as u64);
    std::fs::remove_file(&path).ok();
}

/// Non-finite floats are written as `null` and read back as NaN (so ±∞
/// come back as NaN); a `null` optional still reads back as `None`.
#[test]
fn a_log_with_non_finite_floats_reads_back() {
    let path = scratch("non_finite.jsonl");
    let sink = JsonlFileSink::create(&path).unwrap();
    sink.write_batch(pinned_records());
    sink.flush().unwrap();
    let back = JsonlFileSink::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(back.len(), PINNED_LINES.len());

    match &back[0].value {
        LogValue::TensorFull { values, .. } => {
            assert_eq!(values[..3], [-0.0, 0.1, 1e30]);
            assert!(values[0].is_sign_negative());
            assert!(values[3..].iter().all(|v| v.is_nan()));
        }
        other => panic!("expected TensorFull, got {other:?}"),
    }
    match &back[1].value {
        LogValue::TensorSummary(stats) => {
            assert_eq!(
                (stats.min, stats.max, stats.std, stats.count),
                (1.0, 1.0, 0.0, 2)
            );
            assert!(stats.mean.is_nan() && stats.l2.is_nan());
        }
        other => panic!("expected TensorSummary, got {other:?}"),
    }
    assert!(matches!(back[4].value, LogValue::Scalar(v) if v.is_nan()));
    assert_eq!(
        back[11].value,
        LogValue::Decision {
            predicted: 3,
            label: None
        }
    );
    // Every finite record comes back as it was written.
    let records = pinned_records();
    for i in [2, 3, 5, 6, 7, 8, 9, 10, 11, 12] {
        assert_eq!(back[i], records[i], "record {i}");
    }
}

fn sample_traces() -> Vec<Trace> {
    let span = |stage: SpanStage, span_id: u64, parent: u64, start_ns: u64, dur_ns: u64| Span {
        trace_id: 0xfeed_0000_0000_0001,
        span_id,
        parent_span_id: parent,
        stage,
        flavor: 2,
        model: 0,
        start_ns,
        dur_ns,
        arg_a: 4,
        arg_b: u64::MAX,
    };
    vec![Trace {
        trace_id: 0xfeed_0000_0000_0001,
        model: "mini_v2 \"edge\"".to_string(),
        spans: vec![
            span(SpanStage::Request, 1, 0, 0, 6_330),
            span(SpanStage::BatchForm, 2, 1, 1_500, 300),
            span(SpanStage::Layer, 3, 1, 2_001, 1),
        ],
    }]
}

#[test]
fn chrome_trace_is_pinned_and_canonical() {
    let json = chrome_trace_json(&sample_traces());
    assert_eq!(json, PINNED_CHROME_TRACE);
    assert_canonical("chrome trace", &json);
    assert_canonical("empty chrome trace", &chrome_trace_json(&[]));
}

#[test]
fn zoo_model_json_is_canonical_and_round_trips() {
    let model = ZooModel::Mini(MiniFamily::MiniV2).build(32, 10, 1).unwrap();
    let json = serde_json::to_string(&model).unwrap();
    assert_canonical("model", &json);
    assert!(serde_json::from_str::<mlexray_nn::Model>(&json).unwrap() == model);

    let json = serde_json::to_string(&model.graph).unwrap();
    assert_canonical("graph", &json);
    assert!(serde_json::from_str::<Graph>(&json).unwrap() == model.graph);
}

#[test]
fn lint_report_json_is_canonical_and_round_trips() {
    let model = ZooModel::Mini(MiniFamily::MiniV1).build(32, 10, 1).unwrap();
    let mut report: LintReport = analyze(&model.graph);
    report.diagnostics.push(
        Diagnostic::new(LintCode::DeadActivation, "slot \"t3\" is\nnever read\\")
            .with_node("conv µ1"),
    );
    report
        .diagnostics
        .push(Diagnostic::new(LintCode::UnusedInput, "").with_tensor("input"));
    let json = report.to_json();
    assert_canonical("lint report", &json);
    assert_eq!(serde_json::from_str::<LintReport>(&json).unwrap(), report);
    assert!(json.contains(r#"{"code":"EX501","severity":"Warn","node":"conv µ1","tensor":null,"message":"slot \"t3\" is\nnever read\\"}"#));
}
