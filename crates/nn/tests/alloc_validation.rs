//! What validation holds while it runs, measured by the counting
//! `#[global_allocator]`: a differential run's peak must not grow with the
//! number of frames it compares (an online drift check's cost cannot depend
//! on its reservoir), and a sharded replay-validate run must peak at about
//! one shard's logs, not the whole playback set's.
//!
//! One `#[test]` in a file of its own, so no other test thread allocates
//! while the counters are being read.

use mlexray_core::{
    diff_backends, replay_sharded, replay_validate_sharded, DeploymentValidator,
    DifferentialOptions, ImagePipeline, LabeledFrame, ReferencePipeline, ReplayOptions,
};
use mlexray_nn::{Activation, BackendSpec, GraphBuilder, Model, Padding};
use mlexray_preprocess::{Image, ImagePreprocessConfig};
use mlexray_tensor::{Shape, Tensor};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::peak_bytes_over;

const SIDE: usize = 24;

/// conv 3×3 → depthwise → conv 1×1 → mean → softmax over a `SIDE × SIDE`
/// RGB input: three 12-channel activation maps dominate every log.
fn model() -> Model {
    let wave = |n: usize, k: f32| (0..n).map(|i| (i as f32 * k).sin() * 0.3).collect();
    let mut b = GraphBuilder::new("alloc");
    let x = b.input("image", Shape::nhwc(1, SIDE, SIDE, 3));
    let w = b.constant(
        "w",
        Tensor::from_f32(Shape::new(vec![12, 3, 3, 3]), wave(324, 0.37)).unwrap(),
    );
    let conv = b
        .conv2d("conv", x, w, None, 1, Padding::Same, Activation::Relu)
        .unwrap();
    let wd = b.constant(
        "wd",
        Tensor::from_f32(Shape::new(vec![1, 3, 3, 12]), wave(108, 0.53)).unwrap(),
    );
    let dw = b
        .depthwise_conv2d("dw", conv, wd, None, 1, Padding::Same, Activation::Relu6)
        .unwrap();
    let wp = b.constant(
        "wp",
        Tensor::from_f32(Shape::new(vec![12, 1, 1, 12]), wave(144, 0.71)).unwrap(),
    );
    let project = b
        .conv2d("project", dw, wp, None, 1, Padding::Same, Activation::None)
        .unwrap();
    let gap = b.mean("gap", project).unwrap();
    let softmax = b.softmax("softmax", gap).unwrap();
    b.output(softmax);
    Model::checkpoint(b.finish().unwrap(), "alloc")
}

fn frames(n: usize) -> Vec<LabeledFrame> {
    (0..n)
        .map(|i| {
            let rgb = [(i * 23 % 256) as u8, (i * 91 % 256) as u8, 200];
            LabeledFrame::new(Image::solid(SIDE + 8, SIDE + 8, rgb), Some(i % 4))
        })
        .collect()
}

/// One worker, frame by frame, shards of eight.
fn replay_options() -> ReplayOptions {
    ReplayOptions {
        workers: 1,
        shard_frames: 8,
        micro_batch: 1,
        ..Default::default()
    }
}

#[test]
fn validation_peaks_do_not_grow_with_the_frame_count() {
    let model = model();
    let preprocess = ImagePreprocessConfig::mobilenet_style(SIDE, SIDE);
    let frames = frames(64);

    // (1) diff_backends: 64 frames peak where 8 frames peak.
    let inputs: Vec<Vec<Tensor>> = frames
        .iter()
        .map(|f| vec![preprocess.apply(&f.image).unwrap()])
        .collect();
    let options = DifferentialOptions {
        replay: replay_options(),
        ..Default::default()
    };
    let diff = |n: usize| {
        let (peak, report) = peak_bytes_over(|| {
            diff_backends(
                &model.graph,
                BackendSpec::reference(),
                BackendSpec::optimized(),
                &inputs[..n],
                &options,
            )
            .unwrap()
        });
        assert!(report.is_equivalent(), "{report}");
        assert_eq!(report.frames, n);
        peak
    };
    diff(8); // Lazy process-wide state (dispatch tables, the core ledger).
    let (few, many) = (diff(8), diff(64));
    assert!(
        many.abs_diff(few) * 10 <= few,
        "diff_backends peaked at {many} B over 64 frames but {few} B over 8"
    );

    // (2) replay_validate_sharded: eight shards peak near one shard's logs.
    let edge = ImagePipeline::new(model.clone(), preprocess.clone());
    let reference = ReferencePipeline::new(model, preprocess);
    let options = replay_options();
    let shard_logs = |pipeline: &ImagePipeline| {
        let (logs, _) = replay_sharded(pipeline, &frames[..8], &options).unwrap();
        logs.byte_size() as usize
    };
    let one_shard = shard_logs(&edge) + shard_logs(reference.pipeline());
    let validator = DeploymentValidator::new();
    let (peak, result) = peak_bytes_over(|| {
        replay_validate_sharded(&edge, &reference, &frames, &validator, &options).unwrap()
    });
    assert_eq!(result.shards.len(), 8);
    assert!(
        peak <= 2 * one_shard,
        "replay_validate_sharded peaked at {peak} B over 8 shards; one shard's two log sets \
         are {one_shard} B"
    );
}
