//! Figure 5: top-1 accuracy across deployment stages — Reference
//! (checkpoint), Mobile (converted float), Mobile Quant (optimized kernels)
//! and Mobile Quant Ref (reference kernels) — with the 2021 kernel defects
//! active on the quantized engine.
//!
//! Expected shape (paper §4.4): models with depthwise convolutions collapse
//! under `Mobile Quant` (optimized dwconv defect) but survive
//! `Mobile Quant Ref`; MobileNet v3 collapses under *both* (quantized
//! average-pool defect); families without those ops survive everywhere
//! within a few percent.

use mlexray_models::{canonical_preprocess, MiniFamily};
use mlexray_nn::{
    calibrate, convert_to_mobile, quantize_model, BackendSpec, KernelBugs, KernelFlavor,
    QuantizationOptions,
};

use crate::experiments::accuracy_with_backend;
use crate::support::{format_table, image_split, to_samples, trained_mini, Scale};

/// Runs the Figure 5 sweep.
pub fn run(scale: &Scale) -> String {
    let (train_imgs, test_imgs) = image_split(scale);
    let mut rows = Vec::new();
    for family in MiniFamily::ALL {
        let checkpoint = trained_mini(family, scale);
        let canonical = canonical_preprocess(family.name(), scale.input);
        let test = to_samples(&test_imgs, &canonical);
        let calib_samples: Vec<Vec<mlexray_tensor::Tensor>> =
            to_samples(&train_imgs[..train_imgs.len().min(48)], &canonical)
                .into_iter()
                .map(|s| s.inputs)
                .collect();

        let mobile = convert_to_mobile(&checkpoint).expect("conversion");
        let calib =
            calibrate(&mobile.graph, calib_samples.iter().map(Vec::as_slice)).expect("calibration");
        let quant =
            quantize_model(&mobile, &calib, QuantizationOptions::default()).expect("quantization");

        let reference = accuracy_with_backend(&checkpoint, &test, BackendSpec::reference());
        let mobile_acc = accuracy_with_backend(&mobile, &test, BackendSpec::optimized());
        let quant_opt = accuracy_with_backend(
            &quant,
            &test,
            BackendSpec {
                flavor: KernelFlavor::Optimized,
                bugs: KernelBugs::paper_2021(),
                numerics: None,
            },
        );
        let quant_ref = accuracy_with_backend(
            &quant,
            &test,
            BackendSpec {
                flavor: KernelFlavor::Reference,
                bugs: KernelBugs::paper_2021(),
                numerics: None,
            },
        );
        rows.push(vec![
            family.label().to_string(),
            format!("{:.1}", reference * 100.0),
            format!("{:.1}", mobile_acc * 100.0),
            format!("{:.1}", quant_opt * 100.0),
            format!("{:.1}", quant_ref * 100.0),
        ]);
    }
    format!(
        "Figure 5: top-1 accuracy by deployment stage (KernelBugs::paper_2021 on the edge engine)\n{}",
        format_table(
            &["Model", "Reference", "Mobile", "Mobile Quant", "Mobile Quant Ref"],
            &rows
        )
    )
}
