//! Rendered-report goldens: the `ValidationReport`s and `DifferentialReport`s
//! of `mini_mobilenet_v2@24` over a fixed synthetic frame set, with every
//! `LayerDrift` additionally pinned as bit patterns. The golden text was
//! recorded from the log-scanning validator (PR 19) before the drift fold
//! replaced it, so any last-ulp movement in a drift value, a reordered
//! suspect list or a reworded diagnostic shows up as a diff here.
//!
//! The same golden must hold under native SIMD dispatch and under
//! `MLEXRAY_SIMD=scalar` (`scripts/ci-local.sh kernel-simd` runs both). On a
//! mismatch the test writes what it rendered next to the build so the two
//! files can be diffed.

use std::fmt::Write as _;
use std::path::Path;

use mlexray_core::{
    diff_backends, replay_validate_sharded, DeploymentValidator, DifferentialOptions,
    DifferentialReport, ImagePipeline, LabeledFrame, LayerDrift, ReferencePipeline, ReplayOptions,
    ShardedValidation,
};
use mlexray_datasets::synth_image::{self, SynthImageSpec, NUM_CLASSES};
use mlexray_models::{by_name, canonical_preprocess};
use mlexray_nn::{
    calibrate, convert_to_mobile, quantize_model, BackendSpec, KernelBugs, KernelFlavor, Model,
    QuantizationOptions,
};
use mlexray_preprocess::{ImagePreprocessConfig, PreprocessBug};
use mlexray_tensor::Tensor;

const MODEL: &str = "mini_mobilenet_v2";
const INPUT: usize = 24;
const CAMERA: usize = 60;
const FRAMES: usize = 12;

fn frames() -> Vec<LabeledFrame> {
    synth_image::generate(SynthImageSpec {
        resolution: CAMERA,
        count: FRAMES,
        seed: 7,
    })
    .unwrap()
    .into_iter()
    .map(|s| LabeledFrame::new(s.image, Some(s.label)))
    .collect()
}

fn tensors(frames: &[LabeledFrame], canonical: &ImagePreprocessConfig) -> Vec<Vec<Tensor>> {
    frames
        .iter()
        .map(|f| vec![canonical.apply(&f.image).unwrap()])
        .collect()
}

/// Two shards of eight and four frames, one worker: the merged report is a
/// function of the partition only.
fn replay_options() -> ReplayOptions {
    ReplayOptions {
        workers: 1,
        shard_frames: 8,
        ..Default::default()
    }
}

fn drift_bits(out: &mut String, drift: &[LayerDrift]) {
    for d in drift {
        writeln!(
            out,
            "  drift #{} {} mean={:08x} max={:08x} frames={}",
            d.index,
            d.key,
            d.mean_nrmse.to_bits(),
            d.max_nrmse.to_bits(),
            d.frames
        )
        .unwrap();
    }
}

fn render_validation(out: &mut String, title: &str, result: &ShardedValidation) {
    writeln!(out, "## validate: {title}").unwrap();
    writeln!(out, "{}", result.report).unwrap();
    drift_bits(out, &result.report.drift);
    for shard in &result.shards {
        writeln!(
            out,
            "-- shard@{} ({} frames)",
            shard.start_frame, shard.frames
        )
        .unwrap();
        writeln!(out, "{}", shard.report).unwrap();
    }
    writeln!(out).unwrap();
}

fn render_differential(out: &mut String, title: &str, report: &DifferentialReport) {
    writeln!(out, "## differential: {title}").unwrap();
    writeln!(out, "{report}").unwrap();
    drift_bits(out, &report.drift);
    if let Some(d) = &report.first_divergent {
        writeln!(
            out,
            "  first_divergent #{} {} mean={:08x} max={:08x} frame={}",
            d.index,
            d.layer,
            d.mean_nrmse.to_bits(),
            d.max_nrmse.to_bits(),
            d.worst_frame
        )
        .unwrap();
    }
    writeln!(out).unwrap();
}

fn quantized(checkpoint: &Model, calibration: &[Vec<Tensor>]) -> (Model, Model) {
    let mobile = convert_to_mobile(checkpoint).unwrap();
    let calib = calibrate(&mobile.graph, calibration.iter().map(Vec::as_slice)).unwrap();
    let quant = quantize_model(&mobile, &calib, QuantizationOptions::default()).unwrap();
    (mobile, quant)
}

fn render_all() -> String {
    let mut out = String::new();
    let frames = frames();
    let canonical = canonical_preprocess(MODEL, INPUT);
    let model = by_name(MODEL)
        .unwrap()
        .build(INPUT, NUM_CLASSES, 1)
        .unwrap();
    let inputs = tensors(&frames, &canonical);
    let (mobile, quant) = quantized(&model, &inputs);
    let validator = DeploymentValidator::new();
    let options = replay_options();

    let reference = ReferencePipeline::new(model.clone(), canonical.clone());
    let validate = |edge: &ImagePipeline, reference: &ReferencePipeline| {
        replay_validate_sharded(edge, reference, &frames, &validator, &options).unwrap()
    };
    render_validation(
        &mut out,
        "clean",
        &validate(
            &ImagePipeline::new(model.clone(), canonical.clone()),
            &reference,
        ),
    );
    for bug in PreprocessBug::ALL {
        let edge = ImagePipeline::new(model.clone(), canonical.with_bug(bug));
        render_validation(&mut out, &format!("{bug:?}"), &validate(&edge, &reference));
    }
    let buggy_kernels = BackendSpec {
        flavor: KernelFlavor::Optimized,
        bugs: KernelBugs::paper_2021(),
        numerics: None,
    };
    render_validation(
        &mut out,
        "quantized, optimized kernels + paper_2021",
        &validate(
            &ImagePipeline::new(quant.clone(), canonical.clone()).with_backend(buggy_kernels),
            &ReferencePipeline::new(mobile, canonical.clone()),
        ),
    );

    let differential = DifferentialOptions {
        replay: options,
        ..DifferentialOptions::bitwise()
    };
    for (title, graph, candidate) in [
        (
            "reference vs optimized",
            &model.graph,
            BackendSpec::optimized(),
        ),
        ("reference vs simd", &model.graph, BackendSpec::simd()),
        (
            "reference vs optimized + paper_2021 (quantized)",
            &quant.graph,
            BackendSpec::optimized().with_bugs(KernelBugs::paper_2021()),
        ),
    ] {
        let report = diff_backends(
            graph,
            BackendSpec::reference(),
            candidate,
            &inputs,
            &differential,
        )
        .unwrap();
        render_differential(&mut out, title, &report);
    }
    out
}

#[test]
fn rendered_reports_match_the_golden() {
    let actual = render_all();
    let golden = include_str!("golden_reports.txt");
    if actual == golden {
        return;
    }
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_reports.actual.txt");
    std::fs::write(&path, &actual).unwrap();
    let line = actual
        .lines()
        .zip(golden.lines())
        .position(|(a, g)| a != g)
        .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
    panic!(
        "rendered reports differ from crates/core/tests/golden_reports.txt at line {}:\n  \
         golden: {:?}\n  actual: {:?}\nthis run's rendering was written to {}",
        line + 1,
        golden.lines().nth(line),
        actual.lines().nth(line),
        path.display()
    );
}
