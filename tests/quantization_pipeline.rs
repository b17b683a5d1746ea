//! Integration: the full deployment chain (checkpoint → convert → calibrate
//! → quantize) and the §4.4 debugging story — per-layer drift localizes the
//! injected kernel defects to the right ops.

use mlexray::core::{
    collect_logs, first_drift_jump, per_layer_drift, ImagePipeline, MonitorConfig,
};
use mlexray::datasets::synth_image::{self, SynthImageSpec};
use mlexray::models::{canonical_preprocess, mini_model, MiniFamily};
use mlexray::nn::{
    calibrate, convert_to_mobile, quantize_model, BackendSpec, KernelBugs, KernelFlavor, Model,
    QuantizationOptions,
};
use mlexray::trainer::{evaluate, train, Sample, TrainConfig};

const INPUT: usize = 16;
const RES: usize = 40;

fn setup(family: MiniFamily, seed: u64) -> (Model, Model, Vec<Sample>) {
    let canonical = canonical_preprocess(family.name(), INPUT);
    let data = synth_image::generate(SynthImageSpec {
        resolution: RES,
        count: 128,
        seed,
    })
    .unwrap();
    let samples: Vec<Sample> = data
        .iter()
        .map(|s| Sample {
            inputs: vec![canonical.apply(&s.image).unwrap()],
            label: s.label,
        })
        .collect();
    let model = mini_model(family, INPUT, synth_image::NUM_CLASSES, 5).unwrap();
    let (ckpt, _) = train(
        model,
        &samples,
        &TrainConfig {
            epochs: 3,
            ..Default::default()
        },
    )
    .unwrap();
    let mobile = convert_to_mobile(&ckpt).unwrap();
    let rep: Vec<Vec<mlexray::tensor::Tensor>> =
        samples.iter().take(24).map(|s| s.inputs.clone()).collect();
    let calib = calibrate(&mobile.graph, rep.iter().map(Vec::as_slice)).unwrap();
    let quant = quantize_model(&mobile, &calib, QuantizationOptions::default()).unwrap();
    (mobile, quant, samples)
}

fn acc(model: &Model, data: &[Sample], options: BackendSpec) -> f32 {
    use mlexray::nn::Interpreter;
    let mut interp = Interpreter::new(&model.graph, options).unwrap();
    let mut correct = 0;
    for s in data {
        let out = interp.invoke(&s.inputs).unwrap();
        let p = out[0].to_f32_vec();
        let pred = p
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        if pred == s.label {
            correct += 1;
        }
    }
    correct as f32 / data.len() as f32
}

#[test]
fn clean_quantization_preserves_accuracy() {
    let (mobile, quant, samples) = setup(MiniFamily::MiniV2, 9);
    let test = &samples[64..];
    let float_acc = evaluate(&mobile, test).unwrap();
    let quant_acc = acc(&quant, test, BackendSpec::optimized());
    assert!(
        (float_acc - quant_acc).abs() < 0.12,
        "clean int8 should track float: {float_acc} vs {quant_acc}"
    );
}

#[test]
fn dwconv_defect_only_hits_the_optimized_resolver() {
    let (_, quant, samples) = setup(MiniFamily::MiniV2, 10);
    let test = &samples[64..];
    let bugs = KernelBugs::paper_2021();
    let broken = acc(
        &quant,
        test,
        BackendSpec {
            flavor: KernelFlavor::Optimized,
            bugs,
            numerics: None,
        },
    );
    let reference = acc(
        &quant,
        test,
        BackendSpec {
            flavor: KernelFlavor::Reference,
            bugs,
            numerics: None,
        },
    );
    assert!(
        reference > broken + 0.2,
        "RefOpResolver should sidestep the optimized dwconv defect: {broken} vs {reference}"
    );
}

#[test]
fn avgpool_defect_hits_both_resolvers_on_v3() {
    let (_, quant, samples) = setup(MiniFamily::MiniV3, 11);
    let test = &samples[64..];
    let clean = acc(&quant, test, BackendSpec::optimized());
    let bugs = KernelBugs::paper_2021();
    for flavor in [KernelFlavor::Optimized, KernelFlavor::Reference] {
        let broken = acc(
            &quant,
            test,
            BackendSpec {
                flavor,
                bugs,
                numerics: None,
            },
        );
        // At this smoke scale the clean int8 accuracy is itself modest, so
        // assert a collapse to (near-)chance rather than an absolute drop.
        assert!(
            broken < clean - 0.1 && broken <= 0.25,
            "{flavor:?}: v3 should collapse under the avgpool defect ({broken} vs clean {clean})"
        );
    }
}

#[test]
fn drift_analysis_localizes_the_defective_ops() {
    // v2 + optimized resolver: the first drift jump lands on a depthwise conv.
    let (mobile, quant, _) = setup(MiniFamily::MiniV2, 12);
    let canonical = canonical_preprocess("mini_mobilenet_v2", INPUT);
    let frames: Vec<mlexray::core::LabeledFrame> = synth_image::generate(SynthImageSpec {
        resolution: RES,
        count: 4,
        seed: 90,
    })
    .unwrap()
    .into_iter()
    .map(|s| mlexray::core::LabeledFrame::new(s.image, Some(s.label)))
    .collect();
    let reference_logs = collect_logs(
        &ImagePipeline::new(mobile, canonical.clone()),
        &frames,
        MonitorConfig::offline_validation(),
    )
    .unwrap();
    let edge_logs = collect_logs(
        &ImagePipeline::new(quant, canonical).with_backend(BackendSpec {
            flavor: KernelFlavor::Optimized,
            bugs: KernelBugs::paper_2021(),
            numerics: None,
        }),
        &frames,
        MonitorConfig::offline_validation(),
    )
    .unwrap();
    let drifts = per_layer_drift(&edge_logs, &reference_logs);
    let jump = first_drift_jump(&drifts, 3.0).expect("a drift jump must exist");
    assert!(
        jump.layer_name().contains("dw"),
        "the jump should localize to a depthwise conv, got '{}'",
        jump.layer_name()
    );
}

#[test]
fn per_tensor_weights_lose_accuracy_on_imbalanced_channels() {
    // §2's per-tensor vs per-channel discussion: per-channel must never be
    // meaningfully worse, and is usually better.
    let (mobile, _, samples) = setup(MiniFamily::MiniV1, 13);
    let test = &samples[64..];
    let rep: Vec<Vec<mlexray::tensor::Tensor>> =
        samples.iter().take(24).map(|s| s.inputs.clone()).collect();
    let calib = calibrate(&mobile.graph, rep.iter().map(Vec::as_slice)).unwrap();
    let per_channel = quantize_model(
        &mobile,
        &calib,
        QuantizationOptions {
            per_channel_weights: true,
        },
    )
    .unwrap();
    let per_tensor = quantize_model(
        &mobile,
        &calib,
        QuantizationOptions {
            per_channel_weights: false,
        },
    )
    .unwrap();
    let pc = acc(&per_channel, test, BackendSpec::optimized());
    let pt = acc(&per_tensor, test, BackendSpec::optimized());
    assert!(
        pc + 0.05 >= pt,
        "per-channel {pc} should not trail per-tensor {pt}"
    );
}
