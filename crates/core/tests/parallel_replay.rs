//! Integration coverage for the new concurrency surface: the sharded
//! replay-validate engine's determinism guarantee and the `ChannelSink`'s
//! losslessness under multi-writer contention.

use std::sync::Arc;

use mlexray_core::{
    machine_parallelism, replay_sharded, replay_sharded_to_sink, replay_validate_sharded,
    reserve_cores, ChannelSink, ChannelSinkConfig, DeploymentValidator, ImagePipeline,
    LabeledFrame, LogRecord, LogSink, LogValue, MemorySink, MonitorConfig, ReferencePipeline,
    ReplayOptions,
};
use mlexray_nn::{Activation, GraphBuilder, Model, Padding};
use mlexray_preprocess::{Image, ImagePreprocessConfig};
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
