//! Batching figure (beyond the paper): batched in-interpreter inference
//! versus single invokes on the MobileNet zoo model, plus intra-shard
//! micro-batching in the replay engine.
//!
//! PR 2 parallelized the replay-validate loop *across* frames; this
//! experiment sweeps the next axis — batching *within* one interpreter
//! invoke (`Interpreter::invoke_batch` over a preplanned buffer arena).
//! Single and batched invokes run the same kernels (whole-batch im2col +
//! blocked GEMM convolutions at every batch size), so the sweep shows only
//! what stacking amortizes — per-invoke dispatch and weight-matrix
//! streaming — not a kernel gap, and no speedup bar is enforced. Outputs
//! are bitwise-identical to sequential invokes (pinned by the
//! `batch_equivalence` property suite); the figure re-asserts that on every
//! run.

use std::time::Instant;

use mlexray_core::{replay_sharded, MonitorConfig, ReplayOptions};
use mlexray_datasets::{InMemoryPlayback, PlaybackSource};
use mlexray_models::{canonical_preprocess, full_model, mini_model, FullFamily, MiniFamily};
use mlexray_nn::{BackendSpec, Interpreter};
use mlexray_tensor::{Shape, Tensor};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::support::{format_table, image_split, record_json_artifact, Scale};

/// Batch sizes the sweep measures (1 = the single-invoke baseline).
pub const BATCH_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// One row of the batch sweep.
#[derive(Debug, Clone, Copy)]
pub struct BatchingPoint {
    /// Frames stacked per invoke.
    pub batch: usize,
    /// Frames per second through `invoke_batch`.
    pub frames_per_sec: f64,
    /// Throughput relative to the single-invoke baseline.
    pub speedup: f64,
}

/// Machine-readable results backing the rendered figure.
#[derive(Debug, Clone)]
pub struct BatchingResult {
    /// The sweep, in [`BATCH_SWEEP`] order.
    pub points: Vec<BatchingPoint>,
    /// Whether every batched output matched its sequential twin bitwise.
    pub bitwise_identical: bool,
    /// Planned arena bytes of the single-invoke plan.
    pub arena_bytes: usize,
    /// What per-node allocation would have held live instead.
    pub unshared_bytes: usize,
    /// Steady-state buffer allocations per single invoke.
    pub allocations_per_invoke: usize,
    /// Replay-engine throughput at `micro_batch = 1` (frames/s).
    pub replay_fps_per_frame: f64,
    /// Replay-engine throughput at `micro_batch = 8` (frames/s).
    pub replay_fps_micro_batched: f64,
}

fn mobilenet_samples(scale: &Scale, count: usize) -> Vec<Vec<Tensor>> {
    let mut rng = SmallRng::seed_from_u64(2026);
    let shape = Shape::nhwc(1, scale.full_input, scale.full_input, 3);
    (0..count)
        .map(|_| {
            let data: Vec<f32> = (0..shape.num_elements())
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            vec![Tensor::from_f32(shape.clone(), data).expect("length matches")]
        })
        .collect()
}

/// Runs the sweep and returns structured results (the smoke test asserts on
/// these; `run` renders them).
pub fn measure(scale: &Scale) -> BatchingResult {
    let frames = 16usize;
    let model = full_model(
        FullFamily::MobileNetV2,
        scale.full_input,
        10,
        scale.full_width,
        7,
    )
    .expect("mobilenet zoo model builds");
    let samples = mobilenet_samples(scale, frames);
    let mut interp =
        Interpreter::new(&model.graph, BackendSpec::optimized()).expect("model validates");

    // Warm the arena and record the sequential baseline outputs.
    let sequential: Vec<Vec<Tensor>> = samples
        .iter()
        .map(|s| interp.invoke(s).expect("invoke succeeds"))
        .collect();
    let allocations_per_invoke = interp.last_stats().expect("stats after invoke").allocations;
    let arena_bytes = interp.memory_plan().arena_bytes();
    let unshared_bytes = interp.memory_plan().unshared_bytes();

    let mut bitwise_identical = true;
    let mut points = Vec::new();
    let mut base_fps = 0.0f64;
    for batch in BATCH_SWEEP {
        let reps = 3usize;
        let started = Instant::now();
        for _ in 0..reps {
            for chunk in samples.chunks(batch) {
                let refs: Vec<&[Tensor]> = chunk.iter().map(Vec::as_slice).collect();
                interp.invoke_batch(&refs).expect("batched invoke succeeds");
            }
        }
        let elapsed = started.elapsed().as_secs_f64();
        // Equality check outside the timed region, once per batch size.
        for (chunk_idx, chunk) in samples.chunks(batch).enumerate() {
            let refs: Vec<&[Tensor]> = chunk.iter().map(Vec::as_slice).collect();
            let outs = interp.invoke_batch(&refs).expect("batched invoke succeeds");
            for (i, out) in outs.iter().enumerate() {
                bitwise_identical &= out == &sequential[chunk_idx * batch + i];
            }
        }
        let fps = (reps * frames) as f64 / elapsed.max(1e-9);
        if batch == 1 {
            base_fps = fps;
        }
        points.push(BatchingPoint {
            batch,
            frames_per_sec: fps,
            speedup: if base_fps > 0.0 { fps / base_fps } else { 0.0 },
        });
    }

    // The same lever applied end-to-end: the sharded replay engine draining
    // each shard in micro-batches (mini model, runtime monitoring).
    let family = MiniFamily::MiniV2;
    let model = mini_model(
        family,
        scale.input,
        mlexray_datasets::synth_image::NUM_CLASSES,
        7,
    )
    .expect("mini model builds");
    let pipeline =
        mlexray_core::ImagePipeline::new(model, canonical_preprocess(family.name(), scale.input));
    let (_, test) = image_split(scale);
    // Drain the playback source the way a micro-batching worker does:
    // shard by shard, each shard in micro-batch chunks.
    let source = InMemoryPlayback::new(test);
    let replay_frames: Vec<mlexray_core::LabeledFrame> = source
        .shards(8)
        .into_iter()
        .flat_map(|shard| {
            source
                .read_micro_batches(shard, 8)
                .expect("playback source reads")
        })
        .flatten()
        .map(|s| mlexray_core::LabeledFrame::new(s.image, Some(s.label)))
        .collect();
    let replay_fps = |micro_batch: usize| -> f64 {
        let options = ReplayOptions {
            workers: 2,
            shard_frames: 8,
            micro_batch,
            monitor: MonitorConfig::runtime(),
            ..Default::default()
        };
        let (_, stats) =
            replay_sharded(&pipeline, &replay_frames, &options).expect("replay succeeds");
        stats.frames_per_sec()
    };
    let replay_fps_per_frame = replay_fps(1);
    let replay_fps_micro_batched = replay_fps(8);

    BatchingResult {
        points,
        bitwise_identical,
        arena_bytes,
        unshared_bytes,
        allocations_per_invoke,
        replay_fps_per_frame,
        replay_fps_micro_batched,
    }
}

/// Runs the full batching figure.
pub fn run(scale: &Scale) -> String {
    run_measured(scale).1
}

/// Like [`run`], but also hands back the structured sweep for assertions,
/// and records it as a machine-readable JSON artifact
/// (`fig_batching_metrics.json`).
pub fn run_measured(scale: &Scale) -> (BatchingResult, String) {
    let result = measure(scale);
    let quick = *scale == Scale::quick();
    let mut metrics = vec![
        (
            "bitwise_identical".to_string(),
            serde::Value::Bool(result.bitwise_identical),
        ),
        (
            "arena_bytes".to_string(),
            serde::Value::UInt(result.arena_bytes as u64),
        ),
        (
            "unshared_bytes".to_string(),
            serde::Value::UInt(result.unshared_bytes as u64),
        ),
        (
            "allocations_per_invoke".to_string(),
            serde::Value::UInt(result.allocations_per_invoke as u64),
        ),
        (
            "replay_fps_per_frame".to_string(),
            serde::Value::Float(result.replay_fps_per_frame),
        ),
        (
            "replay_fps_micro_batched".to_string(),
            serde::Value::Float(result.replay_fps_micro_batched),
        ),
    ];
    for point in &result.points {
        metrics.push((
            format!("fps_batch_{}", point.batch),
            serde::Value::Float(point.frames_per_sec),
        ));
        metrics.push((
            format!("speedup_batch_{}", point.batch),
            serde::Value::Float(point.speedup),
        ));
    }
    record_json_artifact(
        "fig_batching_metrics",
        quick,
        &serde::Value::Object(metrics),
    );
    let rows: Vec<Vec<String>> = result
        .points
        .iter()
        .map(|p| {
            vec![
                p.batch.to_string(),
                format!("{:.1}", p.frames_per_sec),
                format!("{:.2}x", p.speedup),
            ]
        })
        .collect();
    let table = format_table(&["Batch", "Frames/s", "Speedup"], &rows);
    let rendered = format!(
        "Fig B: batched in-interpreter inference (mobilenet_v2 zoo model)\n{}\nbatched outputs \
         bitwise-identical to sequential invokes: {}\narena plan: {} KB planned vs {} KB \
         unshared ({} allocations/invoke steady state)\n\nreplay engine, micro-batch 8 vs per-frame: \
         {:.1} vs {:.1} frames/s\n",
        table,
        result.bitwise_identical,
        result.arena_bytes / 1024,
        result.unshared_bytes / 1024,
        result.allocations_per_invoke,
        result.replay_fps_micro_batched,
        result.replay_fps_per_frame,
    );
    (result, rendered)
}
