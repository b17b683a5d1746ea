//! The metric tables (the same names, units and bounds `BENCHMARK.json`
//! declares) and how a run's readings are printed and stamped.

use std::process::Command;

use serde_json::Value;

/// End-to-end metrics: name, unit, whether lower is better, and the share
/// of the baseline median by which the metric may worsen before `compare`
/// calls it a regression.
pub const END_TO_END: [(&str, &str, bool, f64); 6] = [
    ("setup_s", "s", true, 0.25),
    ("throughput_ops_s", "op/s", false, 0.25),
    ("latency_p50_ms", "ms", true, 0.25),
    ("latency_p90_ms", "ms", true, 0.25),
    ("cpu_ms_per_op", "ms", true, 0.25),
    ("peak_rss_mb", "MB", true, 0.1),
];

/// Per-layer metrics: name and unit. Prefix = module the reading is taken
/// from, through its public items only.
pub const PER_LAYER: [(&str, &str); 87] = [
    ("serve.rpc.encode_request_us", "us"),
    ("serve.rpc.decode_request_us", "us"),
    ("serve.rpc.encode_response_us", "us"),
    ("serve.rpc.decode_response_us", "us"),
    ("serve.rpc.status_roundtrip_us", "us"),
    ("serve.rpc.infer_roundtrip_us", "us"),
    ("serve.rpc.sealed_roundtrip_us", "us"),
    ("serve.rpc.self_us", "us"),
    ("serve.rpc.bytes_sent_per_op", "B"),
    ("serve.rpc.bytes_received_per_op", "B"),
    ("serve.rpc.errors_sent", "count"),
    ("serve.rpc.start_ms", "ms"),
    ("serve.register_ms", "ms"),
    ("serve.start_ms", "ms"),
    ("serve.drain_ms", "ms"),
    ("serve.submit_wait_us", "us"),
    ("serve.self_us", "us"),
    ("serve.mean_batch", "count"),
    ("serve.max_batch", "count"),
    ("serve.shed", "count"),
    ("serve.failed", "count"),
    ("serve.books_balanced", "count"),
    ("serve.stage_admission_us", "us"),
    ("serve.stage_queue_wait_us", "us"),
    ("serve.stage_batch_form_us", "us"),
    ("serve.stage_exec_us", "us"),
    ("serve.stage_respond_us", "us"),
    ("serve.stage_total_us", "us"),
    ("serve.stage_residual_share", "ratio"),
    ("nn.build_ms", "ms"),
    ("nn.invoke_us", "us"),
    ("nn.invoke_batch_us_per_frame", "us"),
    ("nn.observed_invoke_us", "us"),
    ("nn.conv_share", "ratio"),
    ("nn.dwconv_share", "ratio"),
    ("nn.fc_share", "ratio"),
    ("nn.other_share", "ratio"),
    ("nn.macs_per_frame", "count"),
    ("nn.macs_per_us", "1/us"),
    ("nn.arena_bytes", "B"),
    ("nn.peak_activation_bytes", "B"),
    ("nn.allocations_per_invoke", "count"),
    ("preprocess.apply_us", "us"),
    ("core.pipeline.classify_edge_us", "us"),
    ("core.pipeline.classify_reference_us", "us"),
    ("core.monitor.capture_us", "us"),
    ("core.monitor.records_per_frame", "count"),
    ("core.monitor.log_bytes_per_frame", "B"),
    ("core.validate.shard_us_per_frame", "us"),
    ("core.validate.merge_us", "us"),
    ("core.replay.job_ms", "ms"),
    ("core.replay.self_share", "ratio"),
    ("core.sink.log_us", "us"),
    ("core.sink.records_per_op", "count"),
    ("core.sink.bytes_per_op", "B"),
    ("core.sink.blocked", "count"),
    ("core.sink.dropped", "count"),
    ("core.sink.flush_ms", "ms"),
    ("core.trace.spans_per_op", "count"),
    ("core.trace.dropped_spans", "count"),
    ("core.trace.collect_ms", "ms"),
    ("core.online.drift_check_ms", "ms"),
    ("core.online.sampled_share", "ratio"),
    ("datasets.frames_gen_ms", "ms"),
    ("models.build_ms", "ms"),
    ("loadgen.warmup_ms", "ms"),
    ("loadgen.throughput_ops_s", "op/s"),
    ("loadgen.latency_p50_ms", "ms"),
    ("loadgen.latency_p99_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.segments", "count"),
    ("loadgen.ops", "count"),
    ("loadgen.connections", "count"),
    ("loadgen.fail_share", "ratio"),
    ("loadgen.walked_op_us", "us"),
    ("loadgen.unattributed_us", "us"),
    ("loadgen.walk_ops", "count"),
    ("loadgen.walk_glue_us", "us"),
    ("loadgen.trace_overhead_share", "ratio"),
    ("loadgen.throughput_iqr_share", "ratio"),
    ("loadgen.latency_p50_iqr_share", "ratio"),
    ("machine.spin_ms_p50", "ms"),
    ("machine.spin_spread", "ratio"),
    ("machine.steal_share", "ratio"),
    ("machine.slowdown", "ratio"),
    ("machine.probe_compute_ms", "ms"),
    ("machine.probe_memory_ms", "ms"),
];

fn stdout_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where a number came from: enough to refuse comparing records that were
/// not taken the same way.
pub fn provenance(seed: u64, seconds: u64, rounds: usize) -> Value {
    let text = |s: Option<String>| Value::String(s.unwrap_or_else(|| "unknown".into()));
    Value::Object(vec![
        // The acceptance driver's checkout is not a git repository.
        (
            "commit".into(),
            text(stdout_of("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc".into(), text(stdout_of("rustc", &["-V"]))),
        ("profile".into(), Value::String("release".into())),
        (
            "nproc".into(),
            Value::UInt(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        (
            "simd_engine".into(),
            Value::String(format!("{:?}", mlexray_nn::simd::active_engine())),
        ),
        ("seed".into(), Value::UInt(seed)),
        ("seconds".into(), Value::UInt(seconds)),
        ("rounds".into(), Value::UInt(rounds as u64)),
    ])
}

/// `{"value": v, "unit": u}` entries in table order.
pub fn metrics_value(readings: &[(&str, &str, f64)]) -> Value {
    Value::Object(
        readings
            .iter()
            .map(|(name, unit, value)| {
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("value".into(), Value::Float(*value)),
                        ("unit".into(), Value::String(unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

pub fn print_table(readings: &[(&str, &str, f64)]) {
    for (name, unit, value) in readings {
        println!("  {name:<40} {value:>16.4} {unit}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the acceptance driver reads; the tables
    /// above are what the binary prints. They must name the same metrics.
    #[test]
    fn tables_match_benchmark_json() {
        let declared = serde_json::parse_value(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            let Some(Value::Array(items)) = declared.get(key) else {
                panic!("{key} missing");
            };
            items
                .iter()
                .map(|m| match (m.get("name"), m.get("unit")) {
                    (Some(Value::String(n)), Some(Value::String(u))) => (n.clone(), u.clone()),
                    _ => panic!("metric without name/unit"),
                })
                .collect()
        };
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.0.to_string(), m.1.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.0.to_string(), m.1.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layers);
        let Some(Value::Array(items)) = declared.get("end_to_end") else {
            unreachable!()
        };
        for (item, m) in items.iter().zip(END_TO_END) {
            assert_eq!(item.get("bound"), Some(&Value::Float(m.3)), "{}", m.0);
            let better = if m.2 { "lower" } else { "higher" };
            assert_eq!(item.get("better"), Some(&Value::String(better.into())));
        }
    }
}
