//! Replay/equivalence suite for the differential debugger: a differential
//! run over the sharded replay engine must produce a `DifferentialReport`
//! that is **byte-identical** across worker counts and micro-batch settings
//! — both the structured value and its rendered form. Layer tensors are
//! batching-invariant (pinned by the nn `batch_equivalence` suite) and the
//! shard merge is ordered, so the report is a pure function of (backends,
//! frames, partition).

use mlexray_core::{
    diff_backends, diff_image_pipelines, BisectionVerdict, DifferentialOptions, DifferentialReport,
    ImagePipeline, LabeledFrame, ReplayOptions,
};
use mlexray_nn::{
    calibrate, quantize_model, Activation, BackendSpec, EdgeNumerics, Graph, GraphBuilder,
    KernelBugs, KernelFlavor, Model, ModelVariant, Padding, QuantizationOptions,
};
use mlexray_preprocess::{Image, ImagePreprocessConfig};
use mlexray_tensor::{Shape, Tensor};

/// Deterministic pseudo-random values (no RNG dependency in this crate's
/// dev-deps; mirrors the golden generator's xorshift).
fn det(n: usize, seed: u64, lo: f32, hi: f32) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            lo + ((s >> 40) as f32 / (1u64 << 24) as f32) * (hi - lo)
        })
        .collect()
}

/// A small but multi-op float graph: conv -> depthwise -> add(shift) ->
/// pool -> mean -> fc head.
fn float_graph() -> (Graph, Shape) {
    let in_shape = Shape::nhwc(1, 6, 6, 3);
    let mut b = GraphBuilder::new("diffgraph");
    let x = b.input("x", in_shape.clone());
    let w1 = b.constant(
        "w1",
        Tensor::from_f32(Shape::new(vec![4, 3, 3, 3]), det(108, 11, -0.5, 0.5)).unwrap(),
    );
    let c1 = b
        .conv2d("conv1", x, w1, None, 1, Padding::Same, Activation::Relu)
        .unwrap();
    let wd = b.constant(
        "wd",
        Tensor::from_f32(Shape::new(vec![1, 3, 3, 4]), det(36, 12, -0.5, 0.5)).unwrap(),
    );
    let d = b
        .depthwise_conv2d("dw", c1, wd, None, 1, Padding::Same, Activation::HardSwish)
        .unwrap();
    let shift = b.constant(
        "shift",
        Tensor::from_f32(Shape::vector(4), det(4, 13, -0.2, 0.2)).unwrap(),
    );
    let a = b.add("add", d, shift, Activation::None).unwrap();
    let p = b.avg_pool2d("pool", a, 2, 2, 2, Padding::Same).unwrap();
    let m = b.mean("gap", p).unwrap();
    let wf = b.constant(
        "wf",
        Tensor::from_f32(Shape::matrix(3, 4), det(12, 14, -0.6, 0.6)).unwrap(),
    );
    let f = b
        .fully_connected("fc", m, wf, None, Activation::None)
        .unwrap();
    b.output(f);
    (b.finish().unwrap(), in_shape)
}

fn float_frames(shape: &Shape, n: usize) -> Vec<Vec<Tensor>> {
    (0..n)
        .map(|i| {
            vec![Tensor::from_f32(
                shape.clone(),
                det(shape.num_elements(), 100 + i as u64, -1.0, 1.0),
            )
            .unwrap()]
        })
        .collect()
}

/// The (workers, micro_batch) grid every report must be invariant over.
const GRID: [(usize, usize); 5] = [(1, 1), (2, 1), (4, 1), (2, 3), (4, 8)];

fn reports_over_grid(
    graph: &Graph,
    baseline: BackendSpec,
    candidate: BackendSpec,
    frames: &[Vec<Tensor>],
    threshold: f32,
) -> Vec<DifferentialReport> {
    GRID.iter()
        .map(|&(workers, micro_batch)| {
            let options = DifferentialOptions {
                threshold,
                bisect: true,
                replay: ReplayOptions {
                    workers,
                    shard_frames: 4,
                    micro_batch,
                    ..Default::default()
                },
            };
            diff_backends(graph, baseline, candidate, frames, &options).unwrap()
        })
        .collect()
}

fn assert_all_identical(reports: &[DifferentialReport]) {
    let rendered: Vec<String> = reports.iter().map(|r| r.to_string()).collect();
    for (i, (report, text)) in reports.iter().zip(&rendered).enumerate().skip(1) {
        assert_eq!(
            report, &reports[0],
            "report {i} (workers/micro-batch grid) differs structurally"
        );
        assert_eq!(
            text, &rendered[0],
            "report {i} differs byte-wise in rendered form"
        );
    }
}

/// Clean cross-flavor run: equivalent at reassociation tolerance, and the
/// report (including every drift value) is identical across the grid.
#[test]
fn clean_report_identical_across_workers_and_micro_batch() {
    let (graph, shape) = float_graph();
    let frames = float_frames(&shape, 13);
    let reports = reports_over_grid(
        &graph,
        BackendSpec::reference(),
        BackendSpec::optimized(),
        &frames,
        1e-4,
    );
    assert!(reports[0].is_equivalent(), "{}", reports[0]);
    assert_all_identical(&reports);
}

/// Emulated-numerics divergence: localization and bisection outcomes are
/// identical across the grid, bitwise.
#[test]
fn diverged_report_identical_across_workers_and_micro_batch() {
    let (graph, shape) = float_graph();
    let frames = float_frames(&shape, 13);
    let numerics = EdgeNumerics {
        accumulation: mlexray_nn::AccumOrder::Lanes8,
        fused_multiply_add: true,
        ..EdgeNumerics::faithful()
    };
    let reports = reports_over_grid(
        &graph,
        BackendSpec::reference(),
        BackendSpec::emulator(numerics),
        &frames,
        0.0,
    );
    assert!(!reports[0].is_equivalent());
    assert_eq!(
        reports[0].divergent_layer(),
        Some("conv1"),
        "reassociation must first surface at the first GEMM reduction:\n{}",
        reports[0]
    );
    assert!(reports[0].bisection.is_some());
    assert_all_identical(&reports);
}

/// Quantized graph with the injected optimized-dwconv defect: the
/// differential run localizes the buggy layer, bisection confirms it
/// op-local, and the whole report is grid-invariant.
#[test]
fn injected_bug_report_identical_across_workers_and_micro_batch() {
    let (graph, shape) = float_graph();
    let frames = float_frames(&shape, 9);
    let calib = calibrate(&graph, frames.iter().map(Vec::as_slice)).unwrap();
    let model = Model {
        graph,
        family: "diff".into(),
        variant: ModelVariant::MobileFloat,
    };
    let quant = quantize_model(&model, &calib, QuantizationOptions::default()).unwrap();
    let reports = reports_over_grid(
        &quant.graph,
        BackendSpec::reference(),
        BackendSpec::optimized().with_bugs(KernelBugs {
            optimized_dwconv_i16_accumulator: true,
            ..KernelBugs::none()
        }),
        &frames,
        0.0,
    );
    let report = &reports[0];
    assert_eq!(
        report.divergent_layer(),
        Some("dw"),
        "the injected dwconv defect must localize to the dwconv layer:\n{report}"
    );
    assert_eq!(
        report.bisection.as_ref().unwrap().verdict,
        BisectionVerdict::OpLocal
    );
    assert_all_identical(&reports);
}

/// The pipeline-level entry point (over the real replay engine and image
/// preprocessing) is grid-invariant too.
#[test]
fn pipeline_differential_identical_across_workers() {
    let (graph, _) = float_graph();
    // Re-home the graph behind a 6x6 RGB preprocessing pipeline.
    let model = Model::checkpoint(graph, "diff");
    let canonical = ImagePreprocessConfig::mobilenet_style(6, 6);
    let baseline = ImagePipeline::new(model.clone(), canonical.clone());
    let candidate = ImagePipeline::new(model, canonical).with_backend(BackendSpec {
        flavor: KernelFlavor::Reference,
        bugs: KernelBugs::none(),
        numerics: Some(EdgeNumerics {
            accumulation: mlexray_nn::AccumOrder::Reversed,
            ..EdgeNumerics::faithful()
        }),
    });
    let frames: Vec<LabeledFrame> = (0..11)
        .map(|i| {
            LabeledFrame::new(
                Image::solid(8, 8, [(i * 23 % 256) as u8, (i * 57 % 256) as u8, 200]),
                Some(0),
            )
        })
        .collect();
    let reports: Vec<DifferentialReport> = GRID
        .iter()
        .map(|&(workers, micro_batch)| {
            let options = DifferentialOptions {
                threshold: 0.0,
                bisect: true,
                replay: ReplayOptions {
                    workers,
                    shard_frames: 4,
                    micro_batch,
                    ..Default::default()
                },
            };
            diff_image_pipelines(&baseline, &candidate, &frames, &options).unwrap()
        })
        .collect();
    assert!(!reports[0].is_equivalent());
    assert_eq!(reports[0].divergent_layer(), Some("conv1"));
    assert!(
        reports[0].bisection.is_some(),
        "same-graph pipelines must bisect"
    );
    assert_all_identical(&reports);
}
