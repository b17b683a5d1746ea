//! Integration tests for the Figure-2 validation flow at the core-crate
//! level, using hand-built log sets (no models required): report rendering,
//! verdict logic, and latency comparison across pipelines.

use mlexray_core::{
    compare_layer_latency, per_layer_latency, stragglers, Assertion, DeploymentValidator,
    LatencyBudgetAssertion, LogRecord, LogSet, LogValue, MemoryBudgetAssertion, ValidationContext,
    Verdict, KEY_DECISION, KEY_INFERENCE_LATENCY, KEY_INFERENCE_MEMORY,
};
use mlexray_tensor::Shape;

fn decision(frame: u64, predicted: usize, label: usize) -> LogRecord {
    LogRecord {
        frame,
        key: KEY_DECISION.into(),
        value: LogValue::Decision {
            predicted,
            label: Some(label),
        },
    }
}

fn latency(frame: u64, ns: u64) -> LogRecord {
    LogRecord {
        frame,
        key: KEY_INFERENCE_LATENCY.into(),
        value: LogValue::LatencyNs(ns),
    }
}

fn layer(frame: u64, name: &str, values: Vec<f32>, lat_ns: u64) -> Vec<LogRecord> {
    vec![
        LogRecord {
            frame,
            key: format!("layer/{name}/output"),
            value: LogValue::TensorFull {
                shape: Shape::vector(values.len()),
                values,
            },
        },
        LogRecord {
            frame,
            key: format!("layer/{name}/latency_ns"),
            value: LogValue::LatencyNs(lat_ns),
        },
    ]
}

#[test]
fn report_renders_all_sections() {
    let mut edge_records = vec![decision(0, 0, 1), decision(1, 1, 1), latency(0, 2_000_000)];
    edge_records.extend(layer(0, "conv1", vec![1.0, 2.0], 500_000));
    edge_records.extend(layer(0, "broken", vec![9.0, -9.0], 1_500_000));
    let edge = LogSet::new(edge_records);

    let mut ref_records = vec![decision(0, 1, 1), decision(1, 1, 1), latency(0, 1_000_000)];
    ref_records.extend(layer(0, "conv1", vec![1.0, 2.0], 400_000));
    ref_records.extend(layer(0, "broken", vec![0.5, 0.6], 300_000));
    let reference = LogSet::new(ref_records);

    let report = DeploymentValidator::new().validate(&edge, &reference);
    assert_eq!(report.verdict, Verdict::Degraded);
    assert_eq!(report.suspect_layers, vec!["broken".to_string()]);
    let text = report.to_string();
    assert!(
        text.contains("accuracy: edge 50.0% vs reference 100.0%"),
        "{text}"
    );
    assert!(text.contains("error-prone layers: broken"), "{text}");
    assert!(text.contains("verdict: Degraded"), "{text}");
}

#[test]
fn latency_and_memory_budget_assertions() {
    let edge = LogSet::new(vec![
        latency(0, 80_000_000),
        LogRecord {
            frame: 0,
            key: KEY_INFERENCE_MEMORY.into(),
            value: LogValue::Bytes(10_000_000),
        },
    ]);
    let reference = LogSet::default();
    let ctx = ValidationContext::new(&edge, &reference);

    let tight = LatencyBudgetAssertion { budget_ms: 50.0 }.check(&ctx);
    assert_eq!(tight.status, mlexray_core::AssertionStatus::Fail);
    let loose = LatencyBudgetAssertion { budget_ms: 100.0 }.check(&ctx);
    assert_eq!(loose.status, mlexray_core::AssertionStatus::Pass);

    let mem_fail = MemoryBudgetAssertion {
        budget_bytes: 1_000_000,
    }
    .check(&ctx);
    assert_eq!(mem_fail.status, mlexray_core::AssertionStatus::Fail);
    let mem_ok = MemoryBudgetAssertion {
        budget_bytes: 100_000_000,
    }
    .check(&ctx);
    assert_eq!(mem_ok.status, mlexray_core::AssertionStatus::Pass);
}

#[test]
fn cross_pipeline_latency_comparison_finds_slow_kernels() {
    // The §4.5 scenario: the same layers, two devices/resolvers.
    let mut edge_records = Vec::new();
    let mut ref_records = Vec::new();
    for f in 0..3 {
        edge_records.extend(layer(f, "conv", vec![0.0], 200_000_000));
        edge_records.extend(layer(f, "mean", vec![0.0], 1_000_000));
        ref_records.extend(layer(f, "conv", vec![0.0], 1_000_000));
        ref_records.extend(layer(f, "mean", vec![0.0], 900_000));
    }
    let edge = LogSet::new(edge_records);
    let reference = LogSet::new(ref_records);

    let cmp = compare_layer_latency(&edge, &reference);
    let conv = cmp.iter().find(|(n, _, _, _)| n == "conv").unwrap();
    assert!(
        conv.3 > 100.0,
        "conv should be flagged as ~200x slower, ratio {}",
        conv.3
    );
    let mean = cmp.iter().find(|(n, _, _, _)| n == "mean").unwrap();
    assert!(mean.3 < 2.0);

    let lat = per_layer_latency(&edge);
    let s = stragglers(&lat, 0.5);
    assert_eq!(s.len(), 1);
    assert_eq!(s[0].layer_name(), "conv");
}

#[test]
fn validator_without_accuracy_still_uses_assertions() {
    // No decisions logged anywhere: the verdict must come from assertions.
    let edge = LogSet::new(vec![latency(0, 1_000_000)]);
    let reference = LogSet::new(vec![latency(0, 1_000_000)]);
    let report = DeploymentValidator::new().validate(&edge, &reference);
    assert_eq!(report.accuracy.edge, None);
    assert_eq!(report.verdict, Verdict::Healthy);
    let text = report.to_string();
    assert!(text.contains("not available"), "{text}");
}
