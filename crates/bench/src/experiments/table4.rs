//! Table 4: latency by layer type of MobileNetV2 — Mobile (float),
//! Mobile Quant, Mobile Quant Ref on the simulated Pixel 4, plus the Mobile
//! column on the x86 emulator.

use std::collections::BTreeMap;

use mlexray_datasets::synth_image::{generate, SynthImageSpec};
use mlexray_edgesim::{DeviceProfile, Processor, SimulatedDevice};
use mlexray_models::{canonical_preprocess, zoo, FullFamily};
use mlexray_nn::{
    calibrate, convert_to_mobile, quantize_model, BackendSpec, KernelFlavor, QuantizationOptions,
};

use crate::support::{format_table, Scale};

/// Runs the Table 4 measurement.
pub fn run(scale: &Scale) -> String {
    let ckpt = zoo::full_model(
        FullFamily::MobileNetV2,
        scale.full_input,
        1000,
        scale.full_width,
        13,
    )
    .expect("model builds");
    let mobile = convert_to_mobile(&ckpt).expect("conversion");
    let canonical = canonical_preprocess("mobilenet_v2", scale.full_input);
    let frames = generate(SynthImageSpec {
        resolution: scale.full_input,
        count: 2,
        seed: 21,
    })
    .expect("frames");
    let samples: Vec<Vec<mlexray_tensor::Tensor>> = frames
        .iter()
        .map(|f| vec![canonical.apply(&f.image).expect("preprocess")])
        .collect();
    let calib = calibrate(&mobile.graph, samples.iter().map(Vec::as_slice)).expect("calibration");
    let quant =
        quantize_model(&mobile, &calib, QuantizationOptions::default()).expect("quantization");

    let pixel4 = SimulatedDevice::new(DeviceProfile::pixel4(), Processor::Cpu);
    let emulator = SimulatedDevice::new(DeviceProfile::x86_emulator(), Processor::Cpu);
    let input = samples[0][0].clone();

    let columns: Vec<(&str, _)> = vec![
        (
            "Mobile (ms)",
            pixel4
                .run(
                    &mobile.graph,
                    std::slice::from_ref(&input),
                    BackendSpec::optimized(),
                )
                .expect("run"),
        ),
        (
            "Mobile Quant (ms)",
            pixel4
                .run(
                    &quant.graph,
                    std::slice::from_ref(&input),
                    BackendSpec::optimized(),
                )
                .expect("run"),
        ),
        (
            "Mobile Quant Ref (ms)",
            pixel4
                .run(
                    &quant.graph,
                    std::slice::from_ref(&input),
                    BackendSpec {
                        flavor: KernelFlavor::Reference,
                        ..BackendSpec::optimized()
                    },
                )
                .expect("run"),
        ),
        (
            "Emulator(x86) Mobile (ms)",
            emulator
                .run(
                    &mobile.graph,
                    std::slice::from_ref(&input),
                    BackendSpec::optimized(),
                )
                .expect("run"),
        ),
    ];

    // Aggregate per layer type; collect counts from the first column.
    let mut per_type: BTreeMap<&'static str, (usize, Vec<f64>)> = BTreeMap::new();
    for (ci, (_, run)) in columns.iter().enumerate() {
        for (label, count, ns) in run.latency_by_op_label() {
            let entry = per_type
                .entry(label)
                .or_insert((0, vec![0.0; columns.len()]));
            if ci == 0 || entry.0 == 0 {
                entry.0 = count;
            }
            entry.1[ci] += ns / 1e6;
        }
    }
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut type_rows: Vec<(&str, (usize, Vec<f64>))> = per_type.into_iter().collect();
    // Order by the float column, descending — the paper's presentation.
    type_rows.sort_by(|a, b| b.1 .1[0].partial_cmp(&a.1 .1[0]).unwrap());
    for (label, (count, ms)) in &type_rows {
        let mut row = vec![format!("{label}({count})")];
        row.extend(ms.iter().map(|v| {
            if *v == 0.0 {
                "-".to_string()
            } else {
                format!("{v:.1}")
            }
        }));
        rows.push(row);
    }
    let mut totals = vec!["Total".to_string()];
    for ci in 0..columns.len() {
        let t: f64 = type_rows.iter().map(|(_, (_, ms))| ms[ci]).sum();
        totals.push(format!("{t:.1}"));
    }
    rows.push(totals);

    format!(
        "Table 4: latency by layer type, MobileNetV2 @{} (simulated devices)\n{}",
        scale.full_input,
        format_table(
            &[
                "Layer type (count)",
                "Mobile (ms)",
                "Mobile Quant (ms)",
                "Mobile Quant Ref (ms)",
                "Emulator(x86) Mobile (ms)"
            ],
            &rows
        )
    )
}
