//! The §4.4 debugging session: a quantized MobileNetv3-style model returns
//! constant output on device. Per-layer drift analysis pinpoints the
//! quantized `AveragePool2d` op; switching resolvers shows the defect is in
//! the op itself, not the optimization.
//!
//! Run with: `cargo run --release --example quantization_debug`

use mlexray::core::{
    collect_logs, first_drift_jump, per_layer_drift, DeploymentValidator, ImagePipeline,
    LabeledFrame, MonitorConfig,
};
use mlexray::datasets::synth_image::{self, SynthImageSpec};
use mlexray::models::{canonical_preprocess, mini_model, MiniFamily};
use mlexray::nn::{
    calibrate, convert_to_mobile, quantize_model, BackendSpec, KernelBugs, KernelFlavor,
    QuantizationOptions,
};
use mlexray::trainer::{train, Sample, TrainConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let input = 24;
    let canonical = canonical_preprocess("mini_mobilenet_v3", input);
    let data = synth_image::generate(SynthImageSpec {
        resolution: 60,
        count: 320,
        seed: 2,
    })?;
    let samples: Vec<Sample> = data
        .iter()
        .map(|s| {
            Ok(Sample {
                inputs: vec![canonical.apply(&s.image)?],
                label: s.label,
            })
        })
        .collect::<Result<_, Box<dyn std::error::Error>>>()?;
    println!("training mini MobileNetV3 (SE blocks + AveragePool2d head)...");
    let ckpt = mini_model(MiniFamily::MiniV3, input, synth_image::NUM_CLASSES, 9)?;
    let (ckpt, _) = train(
        ckpt,
        &samples,
        &TrainConfig {
            epochs: 5,
            ..Default::default()
        },
    )?;

    // Deployment: convert, calibrate on a representative dataset, quantize.
    let mobile = convert_to_mobile(&ckpt)?;
    let rep: Vec<Vec<mlexray::tensor::Tensor>> =
        samples.iter().take(32).map(|s| s.inputs.clone()).collect();
    let calib = calibrate(&mobile.graph, rep.iter().map(Vec::as_slice))?;
    let quant = quantize_model(&mobile, &calib, QuantizationOptions::default())?;
    println!(
        "quantized: {} layers, {:.0} KB of weights (was {:.0} KB)",
        quant.graph.layer_count(),
        quant.graph.param_bytes() as f64 / 1024.0,
        mobile.graph.param_bytes() as f64 / 1024.0
    );

    // The device runs the 2021 engine with its two kernel defects.
    let frames: Vec<LabeledFrame> = synth_image::generate(SynthImageSpec {
        resolution: 60,
        count: 12,
        seed: 55,
    })?
    .into_iter()
    .map(|s| LabeledFrame::new(s.image, Some(s.label)))
    .collect();
    let reference_logs = collect_logs(
        &ImagePipeline::new(mobile, canonical.clone()),
        &frames,
        MonitorConfig::offline_validation(),
    )?;

    for (label, flavor) in [
        ("OpResolver", KernelFlavor::Optimized),
        ("RefOpResolver", KernelFlavor::Reference),
    ] {
        let edge = ImagePipeline::new(quant.clone(), canonical.clone()).with_backend(BackendSpec {
            flavor,
            bugs: KernelBugs::paper_2021(),
            numerics: None,
        });
        let edge_logs = collect_logs(&edge, &frames, MonitorConfig::offline_validation())?;
        let report = DeploymentValidator::new().validate(&edge_logs, &reference_logs);
        println!("\n--- edge engine: {label} ---");
        println!(
            "accuracy: edge {:.1}% vs reference {:.1}%",
            report.accuracy.edge.unwrap_or(0.0) * 100.0,
            report.accuracy.reference.unwrap_or(0.0) * 100.0
        );
        let drifts = per_layer_drift(&edge_logs, &reference_logs);
        if let Some(jump) = first_drift_jump(&drifts, 3.0) {
            println!(
                "first drift jump at layer '{}' (nRMSE {:.3}) -> inspect that op's kernel",
                jump.layer_name(),
                jump.mean_nrmse
            );
        }
        for cause in report.root_causes() {
            println!("  {cause}");
        }
    }
    println!(
        "\nconclusion: the drift jump appears at the squeeze-excite AveragePool2d in BOTH\n\
         resolvers -> the quantized op itself is broken (the paper's second TFLite bug)."
    );
    Ok(())
}
