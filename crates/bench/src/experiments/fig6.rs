//! Figure 6: per-layer normalized rMSE of the quantized model against the
//! float baseline, for MobileNet v2 (left panel) and v3 (right panel), under
//! both op resolvers with the 2021 defects active.
//!
//! Expected shape: v2's `OpResolver` curve spikes at the first depthwise
//! convolution (the optimized-kernel defect) while its `RefOpResolver` curve
//! stays low; v3 shows drift peaks at every squeeze-excite `AveragePool2d`
//! in *both* curves (the op-spec defect).

use mlexray_core::{collect_logs, per_layer_drift, ImagePipeline, MonitorConfig};
use mlexray_models::{canonical_preprocess, MiniFamily};
use mlexray_nn::{
    calibrate, convert_to_mobile, quantize_model, BackendSpec, KernelBugs, KernelFlavor,
    QuantizationOptions,
};

use crate::support::{format_table, image_split, to_frames, to_samples, trained_mini, Scale};

/// Runs both panels.
pub fn run(scale: &Scale) -> String {
    format!(
        "Figure 6: per-layer normalized rMSE, quantized vs float baseline\n\n\
         MobileNet v2 panel:\n{}\nMobileNet v3 panel:\n{}",
        panel(MiniFamily::MiniV2, scale),
        panel(MiniFamily::MiniV3, scale)
    )
}

/// One panel: drift series under both resolvers.
pub fn panel(family: MiniFamily, scale: &Scale) -> String {
    let (train_imgs, test_imgs) = image_split(scale);
    let checkpoint = trained_mini(family, scale);
    let canonical = canonical_preprocess(family.name(), scale.input);
    let mobile = convert_to_mobile(&checkpoint).expect("conversion");
    let calib_inputs: Vec<Vec<mlexray_tensor::Tensor>> =
        to_samples(&train_imgs[..train_imgs.len().min(48)], &canonical)
            .into_iter()
            .map(|s| s.inputs)
            .collect();
    let calib =
        calibrate(&mobile.graph, calib_inputs.iter().map(Vec::as_slice)).expect("calibration");
    let quant =
        quantize_model(&mobile, &calib, QuantizationOptions::default()).expect("quantization");

    let frames = to_frames(&test_imgs[..test_imgs.len().min(8)]);
    let reference_pipeline = ImagePipeline::new(mobile, canonical.clone());
    let reference_logs = collect_logs(
        &reference_pipeline,
        &frames,
        MonitorConfig::offline_validation(),
    )
    .expect("reference replay");

    let mut series: Vec<(String, Vec<(String, f32)>)> = Vec::new();
    for (label, flavor) in [
        ("OpResolver", KernelFlavor::Optimized),
        ("RefOpResolver", KernelFlavor::Reference),
    ] {
        let edge_pipeline =
            ImagePipeline::new(quant.clone(), canonical.clone()).with_backend(BackendSpec {
                flavor,
                bugs: KernelBugs::paper_2021(),
                numerics: None,
            });
        let edge_logs = collect_logs(&edge_pipeline, &frames, MonitorConfig::offline_validation())
            .expect("edge replay");
        let drifts = per_layer_drift(&edge_logs, &reference_logs);
        series.push((
            label.to_string(),
            drifts
                .iter()
                .map(|d| (d.layer_name().to_string(), d.mean_nrmse))
                .collect(),
        ));
    }

    // Merge the two series by layer name (they share the quantized graph).
    let names: Vec<String> = series[0].1.iter().map(|(n, _)| n.clone()).collect();
    let mut rows = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let opt = series[0].1.get(i).map(|(_, v)| *v).unwrap_or(f32::NAN);
        let refv = series[1]
            .1
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(f32::NAN);
        rows.push(vec![
            format!("{i:2}"),
            name.clone(),
            format!("{opt:.4}"),
            format!("{refv:.4}"),
        ]);
    }
    format_table(
        &["#", "layer", "nRMSE (OpResolver)", "nRMSE (RefOpResolver)"],
        &rows,
    )
}
