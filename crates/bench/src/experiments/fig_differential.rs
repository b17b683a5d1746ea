//! Differential-debugging figure (beyond the paper): localization accuracy
//! and overhead of the cross-backend per-layer differential debugger on the
//! zoo models.
//!
//! Four scenarios exercise the §4.4 loop end to end:
//!
//! 1. **clean** — the reference spec vs the optimized spec on quantized
//!    MobileNetV2: quantized kernels are flavor-identical, so the report
//!    must be bitwise clean (the debugger's false-positive floor).
//! 2. **dwconv-bug** — the injected optimized quantized-depthwise
//!    i16-accumulator defect: the debugger must report the *first*
//!    depthwise layer as first-divergent and bisect it op-local.
//! 3. **avgpool-bug** — the injected quantized average-pool double-division
//!    defect on MobileNetV3-Small (the family with `AveragePool2d` heads):
//!    first eligible (window area >= 16) pool layer, op-local.
//! 4. **edge-emulator** — float MobileNetV2 against the Pixel-4 emulator
//!    numerics: reassociation must first surface at a GEMM-family layer.
//!
//! Overhead compares the full differential run (two sharded replays with
//! full per-layer capture + drift + bisection) against one uninstrumented
//! inference pass over the same frames.

use std::time::Instant;

use mlexray_core::{diff_backends, BisectionVerdict, DifferentialOptions, ReplayOptions};
use mlexray_datasets::synth_image::{generate, SynthImageSpec};
use mlexray_edgesim::DeviceProfile;
use mlexray_models::{canonical_preprocess, zoo, FullFamily};
use mlexray_nn::{
    calibrate, convert_to_mobile, quantize_model, BackendSpec, Graph, Interpreter, KernelBugs,
    Model, OpKind, QuantizationOptions,
};
use mlexray_tensor::Tensor;

use crate::support::{format_table, Scale};

/// One differential scenario's outcome.
#[derive(Debug, Clone)]
pub struct DifferentialScenario {
    /// Scenario name.
    pub name: &'static str,
    /// The layer the scenario expects as first-divergent (`None` = the run
    /// must be clean).
    pub expected: Option<String>,
    /// The layer the debugger reported (`None` = equivalent).
    pub localized: Option<String>,
    /// Whether the report matched the expectation exactly.
    pub hit: bool,
    /// Bisection confirmed the divergence op-local (when one ran).
    pub op_local: Option<bool>,
    /// Worst per-layer normalized rMSE of the run.
    pub max_nrmse: f32,
    /// Wall-clock of the differential run, ms.
    pub elapsed_ms: f64,
}

/// Machine-readable results backing the rendered figure.
#[derive(Debug, Clone)]
pub struct DifferentialResult {
    /// All scenarios, in presentation order.
    pub scenarios: Vec<DifferentialScenario>,
    /// Fraction of scenarios whose report matched the expectation.
    pub localization_accuracy: f64,
    /// Differential-run cost relative to one uninstrumented inference pass
    /// over the same frames.
    pub overhead_factor: f64,
    /// Frames per differential run.
    pub frames: usize,
}

fn first_layer(graph: &Graph, pred: impl Fn(&OpKind) -> bool) -> String {
    graph
        .nodes()
        .iter()
        .find(|n| pred(&n.op))
        .map(|n| n.name.clone())
        .expect("zoo model contains the expected op")
}

fn zoo_frames(scale: &Scale, family: &str, count: usize) -> Vec<Vec<Tensor>> {
    let canonical = canonical_preprocess(family, scale.full_input);
    generate(SynthImageSpec {
        resolution: scale.full_input,
        count,
        seed: 33,
    })
    .expect("frames")
    .iter()
    .map(|f| vec![canonical.apply(&f.image).expect("preprocess")])
    .collect()
}

fn quantized_zoo(scale: &Scale, family: FullFamily, frames: &[Vec<Tensor>]) -> Model {
    let ckpt = zoo::full_model(family, scale.full_input, 10, scale.full_width, 13)
        .expect("zoo model builds");
    let mobile = convert_to_mobile(&ckpt).expect("conversion");
    let calib = calibrate(&mobile.graph, frames.iter().map(Vec::as_slice)).expect("calibration");
    quantize_model(&mobile, &calib, QuantizationOptions::default()).expect("quantization")
}

fn scenario(
    name: &'static str,
    graph: &Graph,
    baseline: BackendSpec,
    candidate: BackendSpec,
    frames: &[Vec<Tensor>],
    expected: Option<String>,
) -> DifferentialScenario {
    let options = DifferentialOptions {
        threshold: 0.0,
        bisect: true,
        replay: ReplayOptions {
            workers: 2,
            shard_frames: 2,
            ..Default::default()
        },
    };
    let started = Instant::now();
    let report =
        diff_backends(graph, baseline, candidate, frames, &options).expect("differential run");
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    let localized = report.divergent_layer().map(str::to_string);
    DifferentialScenario {
        name,
        hit: localized == expected,
        expected,
        localized,
        op_local: report
            .bisection
            .as_ref()
            .map(|b| b.verdict == BisectionVerdict::OpLocal),
        max_nrmse: report.drift.iter().map(|d| d.max_nrmse).fold(0.0, f32::max),
        elapsed_ms,
    }
}

/// Runs the sweep and returns structured results (the smoke test asserts on
/// these; `run` renders them).
pub fn measure(scale: &Scale) -> DifferentialResult {
    let frames_n = 4usize;
    let v2_frames = zoo_frames(scale, "mobilenet_v2", frames_n);
    let v2_quant = quantized_zoo(scale, FullFamily::MobileNetV2, &v2_frames);
    let first_dw = first_layer(&v2_quant.graph, |op| {
        matches!(op, OpKind::DepthwiseConv2d { .. })
    });

    let mut scenarios = Vec::new();
    scenarios.push(scenario(
        "clean (ref vs opt, int8 v2)",
        &v2_quant.graph,
        BackendSpec::reference(),
        BackendSpec::optimized(),
        &v2_frames,
        None,
    ));
    scenarios.push(scenario(
        "dwconv-bug (int8 v2)",
        &v2_quant.graph,
        BackendSpec::reference(),
        BackendSpec::optimized().with_bugs(KernelBugs {
            optimized_dwconv_i16_accumulator: true,
            ..KernelBugs::none()
        }),
        &v2_frames,
        Some(first_dw),
    ));

    let v3_frames = zoo_frames(scale, "mobilenet_v3_small", frames_n);
    let v3_quant = quantized_zoo(scale, FullFamily::MobileNetV3Small, &v3_frames);
    let first_big_pool = first_layer(
        &v3_quant.graph,
        |op| matches!(op, OpKind::AveragePool2d { pool_h, pool_w, .. } if pool_h * pool_w >= 16),
    );
    scenarios.push(scenario(
        "avgpool-bug (int8 v3)",
        &v3_quant.graph,
        BackendSpec::reference(),
        BackendSpec::reference().with_bugs(KernelBugs {
            avgpool_double_division: true,
            ..KernelBugs::none()
        }),
        &v3_frames,
        Some(first_big_pool),
    ));

    // Edge-emulator numerics on the float model: reassociation surfaces at
    // the first GEMM-family reduction.
    let v2_mobile = convert_to_mobile(
        &zoo::full_model(
            FullFamily::MobileNetV2,
            scale.full_input,
            10,
            scale.full_width,
            13,
        )
        .expect("zoo model builds"),
    )
    .expect("conversion");
    let first_gemm = first_layer(&v2_mobile.graph, |op| {
        matches!(
            op,
            OpKind::Conv2d { .. } | OpKind::DepthwiseConv2d { .. } | OpKind::FullyConnected { .. }
        )
    });
    scenarios.push(scenario(
        "edge-emulator (float v2, pixel4)",
        &v2_mobile.graph,
        BackendSpec::reference(),
        DeviceProfile::pixel4().emulator_spec(),
        &v2_frames,
        Some(first_gemm),
    ));

    // Overhead baseline: one uninstrumented inference pass over the frames.
    let mut interp = Interpreter::new(&v2_quant.graph, BackendSpec::optimized())
        .expect("quantized model validates");
    let started = Instant::now();
    for frame in &v2_frames {
        interp.invoke(frame).expect("invoke succeeds");
    }
    let single_pass_ms = started.elapsed().as_secs_f64() * 1e3;
    let diff_ms = scenarios
        .iter()
        .find(|s| s.name.starts_with("clean"))
        .map(|s| s.elapsed_ms)
        .unwrap_or(0.0);

    let hits = scenarios.iter().filter(|s| s.hit).count();
    DifferentialResult {
        localization_accuracy: hits as f64 / scenarios.len() as f64,
        overhead_factor: if single_pass_ms > 0.0 {
            diff_ms / single_pass_ms
        } else {
            0.0
        },
        frames: frames_n,
        scenarios,
    }
}

/// Runs the full differential figure.
pub fn run(scale: &Scale) -> String {
    run_measured(scale).1
}

/// Like [`run`], but also hands back the structured results for assertions.
pub fn run_measured(scale: &Scale) -> (DifferentialResult, String) {
    let result = measure(scale);
    let rows: Vec<Vec<String>> = result
        .scenarios
        .iter()
        .map(|s| {
            vec![
                s.name.to_string(),
                s.expected.clone().unwrap_or_else(|| "-".into()),
                s.localized.clone().unwrap_or_else(|| "-".into()),
                if s.hit { "yes" } else { "NO" }.to_string(),
                match s.op_local {
                    Some(true) => "op-local".into(),
                    Some(false) => "propagated".into(),
                    None => "-".to_string(),
                },
                format!("{:.2e}", s.max_nrmse),
                format!("{:.0}", s.elapsed_ms),
            ]
        })
        .collect();
    let table = format_table(
        &[
            "Scenario",
            "Expected layer",
            "First divergent",
            "Hit",
            "Bisection",
            "Max nRMSE",
            "ms",
        ],
        &rows,
    );
    let rendered = format!(
        "Fig D: per-layer differential debugging across execution backends (zoo models)\n{}\n\
         localization accuracy: {:.0}% over {} scenarios ({} frames each)\n\
         differential overhead vs one uninstrumented pass: {:.1}x\n",
        table,
        result.localization_accuracy * 100.0,
        result.scenarios.len(),
        result.frames,
        result.overhead_factor,
    );
    (result, rendered)
}
