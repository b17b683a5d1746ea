//! Integration coverage for the new concurrency surface: the sharded
//! replay-validate engine's determinism guarantee, its lockstep drift fold
//! against the logs it no longer writes, and the `ChannelSink`'s
//! losslessness under multi-writer contention.

use std::sync::{Arc, Mutex};

use mlexray_core::{
    machine_parallelism, per_layer_drift, replay_sharded, replay_sharded_to_sink,
    replay_validate_sharded, reserve_cores, AssertionStatus, ChannelSink, ChannelSinkConfig,
    DeploymentValidator, FnAssertion, ImagePipeline, LabeledFrame, LayerCapture, LayerDrift,
    LogRecord, LogSet, LogSink, LogValue, MemorySink, Monitor, MonitorConfig, ReferencePipeline,
    ReplayOptions, ShardValidation, KEY_PREPROCESS_OUTPUT,
};
use mlexray_nn::{
    calibrate, convert_to_mobile, quantize_model, Activation, BackendSpec, GraphBuilder,
    KernelBugs, Model, Padding, QuantizationOptions,
};
use mlexray_preprocess::{Image, ImagePreprocessConfig, PreprocessBug};
use mlexray_tensor::{Shape, Tensor};

fn tiny_model() -> Model {
    let mut b = GraphBuilder::new("tiny");
    let x = b.input("image", Shape::nhwc(1, 6, 6, 3));
    let w = b.constant("w", Tensor::filled_f32(Shape::new(vec![4, 3, 3, 3]), 0.11));
    let c = b
        .conv2d("conv", x, w, None, 1, Padding::Same, Activation::Relu)
        .unwrap();
    let m = b.mean("gap", c).unwrap();
    let s = b.softmax("softmax", m).unwrap();
    b.output(s);
    Model::checkpoint(b.finish().unwrap(), "tiny")
}

fn frames(n: usize) -> Vec<LabeledFrame> {
    (0..n)
        .map(|i| {
            let rgb = [
                (i * 23 % 256) as u8,
                (i * 91 % 256) as u8,
                (255 - i * 17 % 256) as u8,
            ];
            LabeledFrame::new(Image::solid(12, 12, rgb), Some(i % 4))
        })
        .collect()
}

fn pipeline() -> ImagePipeline {
    ImagePipeline::new(tiny_model(), ImagePreprocessConfig::mobilenet_style(6, 6))
}

/// Strips wall-clock-dependent records so log sets from different runs can
/// be compared for semantic equality.
fn deterministic_records(records: &[LogRecord]) -> Vec<LogRecord> {
    records
        .iter()
        .filter(|r| !r.key.ends_with("latency_ns"))
        .cloned()
        .collect()
}

#[test]
fn sharded_replay_matches_worker_counts_and_frame_order() {
    let pipeline = pipeline();
    let frames = frames(13);
    let mut baseline: Option<Vec<LogRecord>> = None;
    for workers in [1usize, 2, 4] {
        let options = ReplayOptions {
            workers,
            shard_frames: 3,
            ..Default::default()
        };
        let (logs, stats) = replay_sharded(&pipeline, &frames, &options).unwrap();
        assert_eq!(logs.frame_count(), 13);
        assert_eq!(stats.frames, 13);
        assert_eq!(stats.shards, 5);
        // Merged records must be globally frame-ordered regardless of which
        // worker replayed which shard.
        let frames_seen: Vec<u64> = logs.records().iter().map(|r| r.frame).collect();
        let mut sorted = frames_seen.clone();
        sorted.sort();
        assert_eq!(frames_seen, sorted, "workers={workers}");
        let stripped = deterministic_records(logs.records());
        match &baseline {
            None => baseline = Some(stripped),
            Some(expected) => assert_eq!(expected, &stripped, "workers={workers}"),
        }
    }
}

#[test]
fn sharded_validation_report_is_identical_across_worker_counts() {
    let pipeline = pipeline();
    let reference = ReferencePipeline::with_optimized_kernels(
        tiny_model(),
        ImagePreprocessConfig::mobilenet_style(6, 6),
    );
    let validator = DeploymentValidator::new();
    let frames = frames(10);
    let mut rendered: Option<String> = None;
    for workers in [1usize, 2, 4] {
        let options = ReplayOptions {
            workers,
            shard_frames: 4,
            ..Default::default()
        };
        let result =
            replay_validate_sharded(&pipeline, &reference, &frames, &validator, &options).unwrap();
        assert_eq!(result.shards.len(), 3);
        assert_eq!(result.stats.frames, 10);
        let text = result.report.to_string();
        match &rendered {
            None => rendered = Some(text),
            Some(expected) => assert_eq!(
                expected, &text,
                "merged report must be byte-identical at workers={workers}"
            ),
        }
    }
}

/// `workers: 0` sizes the pool from the global core ledger: never more
/// workers than shards, squeezed to one when another pool holds every core,
/// and the merged logs do not depend on what was granted.
#[test]
fn elastic_pool_sizes_itself_from_the_core_ledger() {
    let pipeline = pipeline();
    let frames = frames(6);
    let elastic = ReplayOptions {
        workers: 0,
        shard_frames: 2,
        ..Default::default()
    };
    let (_, stats) = replay_sharded(&pipeline, &frames, &elastic).unwrap();
    assert!(
        (1..=3).contains(&stats.workers),
        "never more workers than shards: {}",
        stats.workers
    );

    let hog = reserve_cores(machine_parallelism() * 2);
    let (squeezed, stats) = replay_sharded(&pipeline, &frames, &elastic).unwrap();
    drop(hog);
    assert_eq!(stats.workers, 1, "no headroom left under the hog lease");

    let one_worker = ReplayOptions {
        workers: 1,
        ..elastic
    };
    let (explicit, _) = replay_sharded(&pipeline, &frames, &one_worker).unwrap();
    assert_eq!(
        deterministic_records(squeezed.records()),
        deterministic_records(explicit.records()),
        "pressure must not change the merged logs"
    );
}

#[test]
fn sharded_replay_propagates_worker_errors() {
    // A pipeline whose preprocess target mismatches the model input shape
    // fails inside the workers; the error must surface, not hang the queue.
    let broken = ImagePipeline::new(tiny_model(), ImagePreprocessConfig::mobilenet_style(5, 5));
    let err = replay_sharded(&broken, &frames(8), &ReplayOptions::with_workers(2));
    assert!(err.is_err());
}

#[test]
fn channel_sink_loses_nothing_under_multiwriter_contention() {
    let inner = Arc::new(MemorySink::new());
    let sink = Arc::new(ChannelSink::new(
        inner.clone(),
        ChannelSinkConfig {
            capacity: 16, // small on purpose: force blocking backpressure
            batch_records: 8,
            ..Default::default()
        },
    ));
    let writers = 8usize;
    let per_writer = 400u64;
    std::thread::scope(|scope| {
        for w in 0..writers {
            let sink = sink.clone();
            scope.spawn(move || {
                for i in 0..per_writer {
                    sink.write(LogRecord {
                        frame: w as u64 * per_writer + i,
                        key: format!("writer/{w}"),
                        value: LogValue::Scalar(i as f64),
                    });
                }
            });
        }
    });
    let stats = sink.close();
    let expected = writers as u64 * per_writer;
    assert_eq!(stats.enqueued, expected);
    assert_eq!(stats.dropped, 0);
    assert_eq!(stats.persisted, expected);
    // Every record made it through exactly once: no loss, no duplication.
    let records = inner.snapshot();
    assert_eq!(records.len(), expected as usize);
    let mut seen: Vec<u64> = records.iter().map(|r| r.frame).collect();
    seen.sort();
    seen.dedup();
    assert_eq!(seen.len(), expected as usize, "duplicated records detected");
}

#[test]
fn sharded_replay_streams_through_channel_sink() {
    let pipeline = pipeline();
    let frames = frames(9);
    let inner = Arc::new(MemorySink::new());
    let sink = Arc::new(ChannelSink::new(
        inner.clone(),
        ChannelSinkConfig {
            capacity: 8,
            batch_records: 4,
            ..Default::default()
        },
    ));
    let options = ReplayOptions {
        workers: 3,
        shard_frames: 2,
        monitor: MonitorConfig::runtime(),
        ..Default::default()
    };
    let stats = replay_sharded_to_sink(
        &pipeline,
        &frames,
        &options,
        sink.clone() as Arc<dyn LogSink>,
    )
    .unwrap();
    assert_eq!(stats.frames, 9);
    let sink_stats = sink.close();
    assert_eq!(sink_stats.dropped, 0);
    assert_eq!(sink_stats.enqueued, sink_stats.persisted);
    // All 9 frames are represented in the persisted stream, each exactly
    // once per record key (runtime config logs latency + decision per frame).
    let records = inner.snapshot();
    let mut decision_frames: Vec<u64> = records
        .iter()
        .filter(|r| r.key == mlexray_core::KEY_DECISION)
        .map(|r| r.frame)
        .collect();
    decision_frames.sort();
    assert_eq!(decision_frames, (0..9).collect::<Vec<u64>>());
}

/// Intra-shard micro-batching must not change what gets logged: the merged
/// log set of a micro-batched replay equals the frame-by-frame replay
/// record for record (modulo wall-clock latency values), and the merged
/// validation report renders byte-identically.
#[test]
fn micro_batched_replay_is_bitwise_equivalent_to_per_frame() {
    let pipeline = pipeline();
    let frames = frames(13);
    let baseline_options = ReplayOptions {
        workers: 2,
        shard_frames: 4,
        micro_batch: 1,
        ..Default::default()
    };
    let (baseline_logs, _) = replay_sharded(&pipeline, &frames, &baseline_options).unwrap();
    for micro_batch in [2usize, 4, 8] {
        let options = ReplayOptions {
            micro_batch,
            ..baseline_options
        };
        let (logs, stats) = replay_sharded(&pipeline, &frames, &options).unwrap();
        assert_eq!(stats.frames, frames.len());
        assert_eq!(
            deterministic_records(logs.records()),
            deterministic_records(baseline_logs.records()),
            "micro_batch={micro_batch} changed logged values"
        );
    }
}

/// The full replay-validate loop with micro-batching: merged report must be
/// byte-identical to the per-frame run (drift math sees the same bits).
#[test]
fn micro_batched_validate_report_matches_per_frame() {
    let model = tiny_model();
    let preprocess = ImagePreprocessConfig::mobilenet_style(6, 6);
    let edge = ImagePipeline::new(model.clone(), preprocess.clone());
    let reference = ReferencePipeline::with_optimized_kernels(model, preprocess);
    let validator = DeploymentValidator::new();
    let frames = frames(10);
    let mut rendered: Option<String> = None;
    for micro_batch in [1usize, 4] {
        let options = ReplayOptions {
            workers: 2,
            shard_frames: 4,
            micro_batch,
            ..Default::default()
        };
        let result =
            replay_validate_sharded(&edge, &reference, &frames, &validator, &options).unwrap();
        let text = result.report.to_string();
        match &rendered {
            None => rendered = Some(text),
            Some(expected) => assert_eq!(
                expected, &text,
                "micro_batch={micro_batch} changed the merged report"
            ),
        }
    }
}

/// Each side's logs exactly as `replay_validate_sharded` hands them to the
/// validator, shard by shard (one worker, so in shard order).
fn validated_logs(
    edge: &ImagePipeline,
    reference: &ReferencePipeline,
    frames: &[LabeledFrame],
    options: &ReplayOptions,
) -> Vec<(LogSet, LogSet)> {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let capture = seen.clone();
    let validator =
        DeploymentValidator::empty().with_assertion(FnAssertion::new("capture", move |ctx| {
            let pair = (ctx.edge.clone(), ctx.reference.clone());
            capture.lock().unwrap().push(pair);
            FnAssertion::passed("capture", "logs captured")
        }));
    replay_validate_sharded(edge, reference, frames, &validator, options).unwrap();
    let logs = std::mem::take(&mut *seen.lock().unwrap());
    logs
}

/// What `pipeline` logs for each shard when it runs on its own: a fresh
/// monitor per shard, `classify_batch` per micro-batch.
fn classify_batch_logs(
    pipeline: &ImagePipeline,
    frames: &[LabeledFrame],
    options: &ReplayOptions,
) -> Vec<LogSet> {
    let mut runner = pipeline.runner().unwrap();
    frames
        .chunks(options.shard_frames)
        .map(|shard| {
            let monitor = Monitor::new(options.monitor);
            for chunk in shard.chunks(options.micro_batch) {
                runner.classify_batch(chunk, &monitor).unwrap();
            }
            monitor.take_logs()
        })
        .collect()
}

/// Key, frame and order of every record, with its value's bits (Debug
/// renders each float in its shortest round-tripping form) except for
/// wall-clock latencies.
fn record_bits(logs: &LogSet) -> Vec<(u64, String, String)> {
    logs.records()
        .iter()
        .map(|r| match r.value {
            LogValue::LatencyNs(_) => (r.frame, r.key.clone(), "latency".into()),
            ref value => (r.frame, r.key.clone(), format!("{value:?}")),
        })
        .collect()
}

/// `logs` without its `layer/*/output` records: what the validate path logs
/// under full capture, which folds the layer outputs instead.
fn without_layer_outputs(logs: &LogSet) -> LogSet {
    let is_output = |r: &LogRecord| r.key.starts_with("layer/") && r.key.ends_with("/output");
    LogSet::new(
        logs.records()
            .iter()
            .filter(|r| !is_output(r))
            .cloned()
            .collect(),
    )
}

/// With equal preprocessing configs the worker preprocesses each frame once
/// and hands both runners the same tensors; with a preprocessing bug each
/// side preprocesses on its own. Either way, each side logs record for
/// record what its pipeline's own `classify_batch` run logs — minus the
/// `layer/*/output` records, which full capture folds instead of logging —
/// at every micro-batch size, in one shard or several.
#[test]
fn replay_validate_logs_what_each_pipeline_logs_on_its_own() {
    let model = tiny_model();
    let canonical = ImagePreprocessConfig::mobilenet_style(6, 6);
    let reference = ReferencePipeline::new(model.clone(), canonical.clone());
    let frames = frames(7);
    for (edge_preprocess, shared) in [
        (canonical.clone(), true),
        (canonical.with_bug(PreprocessBug::Channel), false),
    ] {
        let edge = ImagePipeline::new(model.clone(), edge_preprocess);
        for micro_batch in [1usize, 3] {
            for shard_frames in [frames.len(), 3] {
                let options = ReplayOptions {
                    workers: 1,
                    shard_frames,
                    micro_batch,
                    ..Default::default()
                };
                let what =
                    format!("shared={shared} micro_batch={micro_batch} shard={shard_frames}");
                let got = validated_logs(&edge, &reference, &frames, &options);
                let edge_want = classify_batch_logs(&edge, &frames, &options);
                let reference_want = classify_batch_logs(reference.pipeline(), &frames, &options);
                assert_eq!(got.len(), frames.len().div_ceil(shard_frames), "{what}");
                for (i, (edge_logs, reference_logs)) in got.iter().enumerate() {
                    let (edge_want, reference_want) = (&edge_want[i], &reference_want[i]);
                    assert!(!edge_want.keys_with_prefix("layer/").is_empty(), "{what}");
                    let edge_want = without_layer_outputs(edge_want);
                    let reference_want = without_layer_outputs(reference_want);
                    assert_eq!(record_bits(edge_logs), record_bits(&edge_want), "{what}");
                    assert_eq!(
                        record_bits(reference_logs),
                        record_bits(&reference_want),
                        "{what}"
                    );
                    let inputs =
                        |logs: &LogSet| format!("{:?}", logs.get(0, KEY_PREPROCESS_OUTPUT));
                    assert_eq!(
                        inputs(edge_logs) == inputs(reference_logs),
                        shared,
                        "{what}"
                    );
                }
            }
        }
    }
}

/// Every drift value as its bit pattern.
fn drift_bits(drift: &[LayerDrift]) -> Vec<(usize, String, u32, u32, usize)> {
    drift
        .iter()
        .map(|d| {
            let bits = (d.mean_nrmse.to_bits(), d.max_nrmse.to_bits());
            (d.index, d.key.clone(), bits.0, bits.1, d.frames)
        })
        .collect()
}

/// The edge/reference pairs the fold oracle runs over: a shared input, a
/// channel-swap preprocessing bug (each side preprocesses on its own), and
/// a quantized edge on optimized kernels with the paper's injected defects
/// against the float `mobile` reference — two graph variants, so the edge's
/// `Quantize`/`Dequantize` boundaries have no reference counterpart and
/// layers match by name, not by index.
fn oracle_pairs(frames: &[LabeledFrame]) -> Vec<(&'static str, ImagePipeline, ReferencePipeline)> {
    let model = tiny_model();
    let canonical = ImagePreprocessConfig::mobilenet_style(6, 6);
    let mobile = convert_to_mobile(&model).unwrap();
    let inputs: Vec<Vec<Tensor>> = frames
        .iter()
        .map(|f| vec![canonical.apply(&f.image).unwrap()])
        .collect();
    let calib = calibrate(&mobile.graph, inputs.iter().map(Vec::as_slice)).unwrap();
    let quant = quantize_model(&mobile, &calib, QuantizationOptions::default()).unwrap();
    assert!(quant.graph.nodes().len() > mobile.graph.nodes().len());
    let paper_2021 = BackendSpec::optimized().with_bugs(KernelBugs::paper_2021());
    let reference = ReferencePipeline::new(model.clone(), canonical.clone());
    vec![
        (
            "shared",
            ImagePipeline::new(model.clone(), canonical.clone()),
            reference.clone(),
        ),
        (
            "channel",
            ImagePipeline::new(model, canonical.with_bug(PreprocessBug::Channel)),
            reference,
        ),
        (
            "quantized",
            ImagePipeline::new(quant, canonical.clone()).with_backend(paper_2021),
            ReferencePipeline::new(mobile, canonical),
        ),
    ]
}

/// The drift `replay_validate_sharded` folds in lockstep is the drift of
/// the logs it no longer writes: each shard's `report.drift` equals
/// `per_layer_drift` over that shard's full-capture `classify_batch` logs
/// bitwise (index, key, mean and max bits, frames), each shard validation
/// equals `validate_shard` over those logs, and the merged report equals
/// their merge — with and without layer latencies, at micro-batch 1 and 3,
/// over several shard sizes and on 1 and 2 workers.
#[test]
fn folded_drift_equals_the_drift_of_the_full_logs() {
    let frames = frames(7);
    let validator = DeploymentValidator::new();
    for (name, edge, reference) in oracle_pairs(&frames) {
        for layer_latency in [false, true] {
            for micro_batch in [1usize, 3] {
                for shard_frames in [frames.len(), 3, 2] {
                    for workers in [1usize, 2] {
                        let options = ReplayOptions {
                            workers,
                            shard_frames,
                            micro_batch,
                            monitor: MonitorConfig {
                                layer_latency,
                                ..MonitorConfig::offline_validation()
                            },
                            ..Default::default()
                        };
                        let what = format!(
                            "{name} latency={layer_latency} micro_batch={micro_batch} \
                             shard={shard_frames} workers={workers}"
                        );
                        let got = replay_validate_sharded(
                            &edge, &reference, &frames, &validator, &options,
                        )
                        .unwrap();
                        let edge_logs = classify_batch_logs(&edge, &frames, &options);
                        let reference_logs =
                            classify_batch_logs(reference.pipeline(), &frames, &options);
                        let want: Vec<ShardValidation> = (0..edge_logs.len())
                            .map(|i| {
                                let start = (i * shard_frames) as u64;
                                validator.validate_shard(start, &edge_logs[i], &reference_logs[i])
                            })
                            .collect();
                        assert_eq!(got.shards.len(), want.len(), "{what}");
                        for (i, (got, want)) in got.shards.iter().zip(&want).enumerate() {
                            let oracle = per_layer_drift(&edge_logs[i], &reference_logs[i]);
                            assert!(!oracle.is_empty(), "{what}");
                            assert_eq!(
                                drift_bits(&got.report.drift),
                                drift_bits(&oracle),
                                "{what} shard {i}"
                            );
                            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what} shard {i}");
                        }
                        let merged = validator.merge_shards(&want);
                        assert_eq!(got.report.to_string(), merged.to_string(), "{what}");
                        assert_eq!(drift_bits(&got.report.drift), drift_bits(&merged.drift));
                    }
                }
            }
        }
    }
}

/// Below full capture nothing is folded and the logs are what they were:
/// under `Stats` each side logs its layer summaries (so
/// `quantization_drift`, with no layer values to compare, stays skipped),
/// under `None` no layer record at all — record for record what
/// `classify_batch` logs, and every shard validation is `validate_shard`'s
/// over those logs.
#[test]
fn below_full_capture_nothing_is_folded() {
    let frames = frames(7);
    let validator = DeploymentValidator::new();
    for (name, edge, reference) in oracle_pairs(&frames) {
        for per_layer in [LayerCapture::Stats, LayerCapture::None] {
            for layer_latency in [false, true] {
                let options = ReplayOptions {
                    workers: 1,
                    shard_frames: 3,
                    micro_batch: 2,
                    monitor: MonitorConfig {
                        per_layer,
                        full_io: true,
                        layer_latency,
                    },
                    ..Default::default()
                };
                let what = format!("{name} {:?}", options.monitor);
                let got = replay_validate_sharded(&edge, &reference, &frames, &validator, &options)
                    .unwrap();
                let seen = validated_logs(&edge, &reference, &frames, &options);
                let edge_logs = classify_batch_logs(&edge, &frames, &options);
                let reference_logs = classify_batch_logs(reference.pipeline(), &frames, &options);
                for (i, shard) in got.shards.iter().enumerate() {
                    let (edge_want, reference_want) = (&edge_logs[i], &reference_logs[i]);
                    let layer_keys = edge_want.keys_with_prefix("layer/").len();
                    assert_eq!(layer_keys > 0, per_layer == LayerCapture::Stats, "{what}");
                    assert_eq!(record_bits(&seen[i].0), record_bits(edge_want), "{what}");
                    assert_eq!(
                        record_bits(&seen[i].1),
                        record_bits(reference_want),
                        "{what}"
                    );
                    let want =
                        validator.validate_shard(shard.start_frame, edge_want, reference_want);
                    assert_eq!(format!("{shard:?}"), format!("{want:?}"), "{what}");
                    assert!(shard.report.drift.is_empty(), "{what}");
                    let quantization_drift = shard
                        .report
                        .outcomes
                        .iter()
                        .find(|o| o.name == "quantization_drift")
                        .unwrap();
                    assert_eq!(
                        quantization_drift.status,
                        AssertionStatus::Skipped,
                        "{what}"
                    );
                }
            }
        }
    }
}
