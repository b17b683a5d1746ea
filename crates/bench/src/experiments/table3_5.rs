//! Tables 3 and 5: offline per-layer validation overhead — layer count,
//! parameters, logging latency, memory and log storage — for the five
//! full-size models, in int8 (Table 3) and float32 (Table 5) form.

use mlexray_datasets::synth_image::{generate, SynthImageSpec};
use mlexray_edgesim::{DeviceProfile, Processor, SimulatedDevice};
use mlexray_models::{canonical_preprocess, zoo, FullFamily};
use mlexray_nn::{
    calibrate, convert_to_mobile, quantize_model, BackendSpec, Model, QuantizationOptions,
};

use crate::support::{format_table, Scale};

/// Per-byte cost of formatting + persisting one logged byte on the device
/// (calibrated so full-size per-layer dumps land in the paper's
/// tens-of-seconds regime).
const LOGGING_NS_PER_BYTE: f64 = 300.0;

/// The five models of the paper's Tables 3/5, in row order.
const FAMILIES: [FullFamily; 5] = [
    FullFamily::MobileNetV1,
    FullFamily::MobileNetV2,
    FullFamily::ResNet50V2,
    FullFamily::InceptionV3,
    FullFamily::DenseNet121,
];

/// Table 3: int8 models.
pub fn run_int8(scale: &Scale) -> String {
    format!(
        "Table 3: offline validation overhead, quantized int8 models (input {})\n{}",
        scale.full_input,
        table(scale, true)
    )
}

/// Table 5: float32 models.
pub fn run_float(scale: &Scale) -> String {
    format!(
        "Table 5: offline validation overhead, float32 models (input {})\n{}",
        scale.full_input,
        table(scale, false)
    )
}

fn prepare(family: FullFamily, scale: &Scale, int8: bool) -> (Model, usize) {
    let ckpt = zoo::full_model(family, scale.full_input, 1000, scale.full_width, 11)
        .expect("model builds");
    // The paper's "Layer #" column counts checkpoint-level layers.
    let ckpt_layers = ckpt.graph.layer_count();
    let mobile = convert_to_mobile(&ckpt).expect("conversion");
    if !int8 {
        return (mobile, ckpt_layers);
    }
    let canonical = canonical_preprocess(family.name(), scale.full_input);
    let calib_frames = generate(SynthImageSpec {
        resolution: scale.full_input,
        count: 2,
        seed: 5,
    })
    .expect("frames");
    let samples: Vec<Vec<mlexray_tensor::Tensor>> = calib_frames
        .iter()
        .map(|f| vec![canonical.apply(&f.image).expect("preprocess")])
        .collect();
    let calib = calibrate(&mobile.graph, samples.iter().map(Vec::as_slice)).expect("calibration");
    (
        quantize_model(&mobile, &calib, QuantizationOptions::default()).expect("quantization"),
        ckpt_layers,
    )
}

fn table(scale: &Scale, int8: bool) -> String {
    let device = SimulatedDevice::new(DeviceProfile::pixel4(), Processor::Cpu);
    let frame = generate(SynthImageSpec {
        resolution: scale.full_input,
        count: 1,
        seed: 9,
    })
    .expect("frame")
    .remove(0);
    let mut rows = Vec::new();
    for family in FAMILIES {
        let (model, ckpt_layers) = prepare(family, scale, int8);
        let canonical = canonical_preprocess(family.name(), scale.full_input);
        let tensor = canonical.apply(&frame.image).expect("preprocess");
        let run = device
            .run(&model.graph, &[tensor], BackendSpec::optimized())
            .expect("sim run");
        let log_bytes = run.per_layer_log_bytes();
        // Per-layer validation latency = inference + log formatting/persist.
        let latency_s = (run.total_ns
            + LOGGING_NS_PER_BYTE * log_bytes as f64
            + device.profile().storage_write_ns(log_bytes))
            / 1e9;
        rows.push(vec![
            family.name().to_string(),
            format!("{ckpt_layers} ({})", run.layers.len()),
            format!("{:.1}M", model.graph.param_count() as f64 / 1e6),
            format!("{latency_s:.0}"),
            format!("{:.0}", run.peak_activation_bytes as f64 / 1e6),
            format!("{:.0}", log_bytes as f64 / 1e6),
        ]);
    }
    format_table(
        &[
            "Model",
            "Layer # (deployed)",
            "Param #",
            "Lat (sec)",
            "Mem (MB)",
            "Disk (MB)",
        ],
        &rows,
    )
}
