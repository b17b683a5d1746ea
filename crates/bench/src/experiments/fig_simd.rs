//! SIMD figure (beyond the paper): the SIMD-tiled GEMM backend versus the
//! optimized scalar kernels on the MobileNet zoo model at batch 8, plus
//! intra-invoke data parallelism — one `invoke_batch` split across workers
//! drawn from the global core budget.
//!
//! PR 9's two levers measured together: (1) the cache-blocked, runtime-
//! dispatched SIMD GEMM behind conv/depthwise/fc (AVX2+FMA where available,
//! a bitwise-identical scalar mirror everywhere else), and (2)
//! `invoke_batch_parallel`, which shards one batched invoke across
//! core-budget workers with byte-identical outputs at every worker count
//! (pinned by the `parallel_invoke` determinism suite). The figure
//! re-asserts both correctness contracts on every run, so the speedups it
//! reports are free of numeric drift.

use std::time::Instant;

use mlexray_core::{invoke_batch_parallel, machine_parallelism, ParallelInvokeOptions};
use mlexray_models::{full_model, FullFamily};
use mlexray_nn::{BackendSpec, Interpreter, KernelBugs, KernelFlavor};
use mlexray_tensor::{Shape, Tensor};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::support::{format_table, record_json_artifact, Scale};

/// Frames stacked per invoke (the `fig_batching` sweet spot).
pub const BATCH: usize = 8;

/// Worker counts the parallel-invoke sweep measures.
pub const WORKER_SWEEP: [usize; 3] = [1, 2, 4];

/// One row of the parallel-invoke sweep.
#[derive(Debug, Clone, Copy)]
pub struct SimdPoint {
    /// Workers splitting the batched invoke.
    pub workers: usize,
    /// Frames per second through `invoke_batch_parallel`.
    pub frames_per_sec: f64,
    /// Throughput relative to the sequential SIMD batched baseline.
    pub speedup_vs_simd: f64,
}

/// Machine-readable results backing the rendered figure.
#[derive(Debug, Clone)]
pub struct SimdResult {
    /// Batched throughput of the optimized scalar kernels (frames/s).
    pub scalar_fps: f64,
    /// Batched throughput of the SIMD backend (frames/s).
    pub simd_fps: f64,
    /// `simd_fps / scalar_fps`.
    pub simd_speedup: f64,
    /// The parallel-invoke sweep, in [`WORKER_SWEEP`] order.
    pub points: Vec<SimdPoint>,
    /// Best parallel SIMD throughput over the scalar batching baseline.
    pub combined_speedup: f64,
    /// Worst relative deviation of SIMD outputs from the scalar kernels.
    pub max_rel_err: f32,
    /// Whether every parallel output matched the sequential SIMD batched
    /// invoke bitwise, at every worker count.
    pub parallel_bitwise_identical: bool,
    /// `machine_parallelism()` — the strict parallel bars only apply on
    /// hosts with real cores to scale onto.
    pub machine_cores: usize,
}

fn mobilenet_samples(scale: &Scale, count: usize) -> Vec<Vec<Tensor>> {
    let mut rng = SmallRng::seed_from_u64(2027);
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

/// Runs the measurement and returns structured results (the smoke test
/// asserts on these; `run` renders them).
pub fn measure(scale: &Scale) -> SimdResult {
    let frames = 4 * BATCH;
    let reps = 2usize;
    let model = full_model(
        FullFamily::MobileNetV2,
        scale.full_input,
        10,
        scale.full_width,
        7,
    )
    .expect("mobilenet zoo model builds");
    let samples = mobilenet_samples(scale, frames);

    // Batched throughput of one kernel flavor through the interpreter:
    // outputs captured once untimed (arena warmup doubles as the capture
    // pass), then `reps` timed passes over the whole frame set.
    let run_flavor = |flavor: KernelFlavor| -> (Vec<Vec<Tensor>>, f64) {
        let options = BackendSpec {
            flavor,
            bugs: KernelBugs::none(),
            numerics: None,
        };
        let mut interp = Interpreter::new(&model.graph, options).expect("model validates");
        let mut outputs = Vec::with_capacity(frames);
        for chunk in samples.chunks(BATCH) {
            let refs: Vec<&[Tensor]> = chunk.iter().map(Vec::as_slice).collect();
            outputs.extend(interp.invoke_batch(&refs).expect("batched invoke succeeds"));
        }
        let started = Instant::now();
        for _ in 0..reps {
            for chunk in samples.chunks(BATCH) {
                let refs: Vec<&[Tensor]> = chunk.iter().map(Vec::as_slice).collect();
                interp.invoke_batch(&refs).expect("batched invoke succeeds");
            }
        }
        let fps = (reps * frames) as f64 / started.elapsed().as_secs_f64().max(1e-9);
        (outputs, fps)
    };
    let (scalar_outputs, scalar_fps) = run_flavor(KernelFlavor::Optimized);
    let (simd_outputs, simd_fps) = run_flavor(KernelFlavor::Simd);

    // The figure's drift guard: both flavors sit within per-op tolerance of
    // the reference kernels (pinned by goldens + property suites); here the
    // end-to-end deviation between them must stay small through the whole
    // model.
    let mut max_rel_err = 0.0f32;
    for (a, b) in scalar_outputs.iter().zip(&simd_outputs) {
        for (x, y) in a.iter().zip(b) {
            for (v, w) in x.to_f32_vec().into_iter().zip(y.to_f32_vec()) {
                max_rel_err = max_rel_err.max((v - w).abs() / v.abs().max(1.0));
            }
        }
    }

    // Intra-invoke parallelism: the same 32 frames, shard_frames = BATCH so
    // every worker drains whole batch-8 invokes — the same grouping as the
    // sequential baseline, so outputs must match it bitwise.
    let spec = BackendSpec::simd();
    let mut points = Vec::new();
    let mut parallel_bitwise_identical = true;
    let mut best_fps = 0.0f64;
    for workers in WORKER_SWEEP {
        let options = ParallelInvokeOptions {
            workers,
            shard_frames: BATCH,
            queue_depth: 0,
            capture_layers: false,
        };
        let run = invoke_batch_parallel(&model.graph, &spec, &samples, &options)
            .expect("parallel invoke succeeds");
        parallel_bitwise_identical &= run.outputs == simd_outputs;
        let started = Instant::now();
        for _ in 0..reps {
            invoke_batch_parallel(&model.graph, &spec, &samples, &options)
                .expect("parallel invoke succeeds");
        }
        let fps = (reps * frames) as f64 / started.elapsed().as_secs_f64().max(1e-9);
        best_fps = best_fps.max(fps);
        points.push(SimdPoint {
            workers,
            frames_per_sec: fps,
            speedup_vs_simd: if simd_fps > 0.0 { fps / simd_fps } else { 0.0 },
        });
    }

    SimdResult {
        scalar_fps,
        simd_fps,
        simd_speedup: if scalar_fps > 0.0 {
            simd_fps / scalar_fps
        } else {
            0.0
        },
        points,
        combined_speedup: if scalar_fps > 0.0 {
            best_fps / scalar_fps
        } else {
            0.0
        },
        max_rel_err,
        parallel_bitwise_identical,
        machine_cores: machine_parallelism(),
    }
}

/// Runs the full SIMD figure.
pub fn run(scale: &Scale) -> String {
    run_measured(scale).1
}

/// Like [`run`], but also hands back the structured results for assertions,
/// and records them as a machine-readable JSON artifact
/// (`fig_simd_metrics.json`).
pub fn run_measured(scale: &Scale) -> (SimdResult, String) {
    let result = measure(scale);
    let quick = *scale == Scale::quick();
    let mut metrics = vec![
        (
            "scalar_fps".to_string(),
            serde::Value::Float(result.scalar_fps),
        ),
        ("simd_fps".to_string(), serde::Value::Float(result.simd_fps)),
        (
            "simd_speedup".to_string(),
            serde::Value::Float(result.simd_speedup),
        ),
        (
            "combined_speedup".to_string(),
            serde::Value::Float(result.combined_speedup),
        ),
        (
            "max_rel_err".to_string(),
            serde::Value::Float(f64::from(result.max_rel_err)),
        ),
        (
            "parallel_bitwise_identical".to_string(),
            serde::Value::Bool(result.parallel_bitwise_identical),
        ),
        (
            "machine_cores".to_string(),
            serde::Value::UInt(result.machine_cores as u64),
        ),
    ];
    for point in &result.points {
        metrics.push((
            format!("parallel_fps_workers_{}", point.workers),
            serde::Value::Float(point.frames_per_sec),
        ));
        metrics.push((
            format!("parallel_speedup_workers_{}", point.workers),
            serde::Value::Float(point.speedup_vs_simd),
        ));
    }
    record_json_artifact("fig_simd_metrics", quick, &serde::Value::Object(metrics));
    let rows: Vec<Vec<String>> = result
        .points
        .iter()
        .map(|p| {
            vec![
                p.workers.to_string(),
                format!("{:.1}", p.frames_per_sec),
                format!("{:.2}x", p.speedup_vs_simd),
            ]
        })
        .collect();
    let table = format_table(&["Workers", "Frames/s", "vs simd seq"], &rows);
    let rendered = format!(
        "Fig S: SIMD GEMM backend + parallel invoke (mobilenet_v2 zoo model, batch {BATCH})\n\
         scalar optimized: {:.1} frames/s\nsimd backend:     {:.1} frames/s ({:.2}x over scalar)\n\
         {}\ncombined best-parallel-simd over scalar baseline: {:.2}x ({} cores)\n\
         simd within tolerance of scalar kernels: {} (max rel err {:.2e})\n\
         parallel outputs bitwise-identical to sequential simd: {}\n",
        result.scalar_fps,
        result.simd_fps,
        result.simd_speedup,
        table,
        result.combined_speedup,
        result.machine_cores,
        result.max_rel_err <= 1e-2,
        result.max_rel_err,
        result.parallel_bitwise_identical,
    );
    (result, rendered)
}
