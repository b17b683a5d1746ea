//! Whole-model oracle for the reference float kernels: on every zoo family,
//! `BackendSpec::reference()` must be **bitwise** the faithful edge
//! emulator, whose `*_emulated` kernels are per-cell gather loops that share
//! no code with the reference `Conv2d`'s packed panels or the
//! channel-vectorized depthwise kernel. `backend_differential` pins the same
//! equivalence on random graphs; this pins it on the architectures the
//! experiments run — ragged channel counts, strides, residual and dense
//! concatenations, squeeze-excite gates — stacked and unstacked.
//!
//! The reference kernels run their AVX2 build where the engine is AVX2+FMA
//! and their baseline build under `MLEXRAY_SIMD=scalar`; both compute the
//! same bits, so the suite must hold either way (`scripts/ci-local.sh
//! kernel-simd`).

use mlexray_core::{diff_backends, DifferentialOptions, ReplayOptions};
use mlexray_datasets::synth_image::{self, SynthImageSpec, NUM_CLASSES};
use mlexray_models::{by_name, MiniFamily, ZooModel};
use mlexray_nn::{BackendSpec, EdgeNumerics};
use mlexray_tensor::Tensor;

const FRAMES: usize = 4;

fn frames(zoo: ZooModel, input: usize) -> Vec<Vec<Tensor>> {
    let canonical = zoo.canonical_preprocess(input);
    synth_image::generate(SynthImageSpec {
        resolution: 2 * input,
        count: FRAMES,
        seed: 24,
    })
    .unwrap()
    .iter()
    .map(|sample| vec![canonical.apply(&sample.image).unwrap()])
    .collect()
}

/// `micro_batch` 1 runs every frame alone; 3 stacks three and leaves one.
fn assert_reference_is_the_faithful_emulator(zoo: ZooModel, input: usize, width: f32) {
    let model = zoo.build_scaled(input, NUM_CLASSES, width, 24).unwrap();
    let frames = frames(zoo, input);
    for micro_batch in [1, 3] {
        let options = DifferentialOptions {
            replay: ReplayOptions {
                workers: 1,
                micro_batch,
                ..Default::default()
            },
            ..DifferentialOptions::bitwise()
        };
        let report = diff_backends(
            &model.graph,
            BackendSpec::reference(),
            BackendSpec::emulator(EdgeNumerics::faithful()),
            &frames,
            &options,
        )
        .unwrap();
        assert_eq!(report.frames, FRAMES);
        assert_eq!(report.drift.len(), model.graph.nodes().len());
        assert!(
            report.is_equivalent() && report.drift.iter().all(|d| d.max_nrmse == 0.0),
            "{}@{input} ×{width}, micro_batch {micro_batch}: reference left the faithful \
             emulator:\n{report}",
            zoo.name()
        );
    }
}

#[test]
fn reference_is_the_faithful_emulator_on_every_mini_family() {
    for family in MiniFamily::ALL {
        assert_reference_is_the_faithful_emulator(ZooModel::Mini(family), 32, 1.0);
    }
}

#[test]
fn reference_is_the_faithful_emulator_on_mobilenet_v2_quarter_width() {
    assert_reference_is_the_faithful_emulator(by_name("mobilenet_v2").unwrap(), 64, 0.25);
}
