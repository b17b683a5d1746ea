//! Figure 4: ML application performance degraded by preprocessing bugs.
//!
//! (a) image-classification top-1 accuracy per model family under one
//! injected bug at a time (resize / channel / normalization / rotation);
//! (b) object-detection mAP@0.5 under the same bugs;
//! (c) audio-keyword accuracy under spectrogram-normalization mismatch
//! between two training pipelines.

use mlexray_datasets::{synth_audio, synth_detect};
use mlexray_models::{audio::mini_audio_cnn, canonical_preprocess, ssd, MiniFamily};
use mlexray_nn::{BackendSpec, Interpreter};
use mlexray_preprocess::{AudioPreprocessConfig, PreprocessBug, SpectrogramNormalization};
use mlexray_trainer::{evaluate, train_or_load, Sample, TrainConfig};

use crate::support::{cache_dir, format_table, image_split, to_samples, trained_mini, Scale};

/// Runs all three panels.
pub fn run(scale: &Scale) -> String {
    format!(
        "Figure 4 (a): image classification, top-1 accuracy under preprocessing bugs\n{}\n\
         Figure 4 (b): object detection, mAP@0.5 under preprocessing bugs\n{}\n\
         Figure 4 (c): audio keywords, accuracy under spectrogram normalization mismatch\n{}",
        classification(scale),
        detection(scale),
        audio(scale)
    )
}

/// Panel (a): per-family accuracy, one bug per column.
pub fn classification(scale: &Scale) -> String {
    let (_, test_imgs) = image_split(scale);
    let mut rows = Vec::new();
    for family in MiniFamily::ALL {
        let model = trained_mini(family, scale);
        let canonical = canonical_preprocess(family.name(), scale.input);
        let mut cells = vec![family.label().to_string()];
        let baseline = evaluate(&model, &to_samples(&test_imgs, &canonical)).expect("eval");
        cells.push(format!("{:.1}", baseline * 100.0));
        for bug in PreprocessBug::ALL {
            let cfg = canonical.with_bug(bug);
            let acc = evaluate(&model, &to_samples(&test_imgs, &cfg)).expect("eval");
            cells.push(format!("{:.1}", acc * 100.0));
        }
        rows.push(cells);
    }
    format_table(
        &[
            "Model",
            "Mobile",
            "Resize",
            "Channel",
            "Normalization",
            "Rotation",
        ],
        &rows,
    )
}

/// Panel (b): mini-SSD mAP@0.5 per bug (rotation is not part of the paper's
/// detection figure; channel, normalization and resize are).
pub fn detection(scale: &Scale) -> String {
    let input = 32usize;
    let model = ssd::mini_ssd(input).expect("ssd builds");
    let scenes = synth_detect::generate(synth_detect::SynthDetectSpec {
        resolution: 64,
        count: scale.test_n.min(160),
        max_objects: 3,
        seed: 99,
    })
    .expect("scenes generate");
    let canonical = canonical_preprocess("mini_ssd", input);
    let mut row = vec!["Mini-SSD".to_string()];
    let mut header = vec!["Model", "Mobile", "Resize", "Channel", "Normalization"];
    header.truncate(5);
    for cfg in [
        canonical.clone(),
        canonical.with_bug(PreprocessBug::Resize),
        canonical.with_bug(PreprocessBug::Channel),
        canonical.with_bug(PreprocessBug::Normalization),
    ] {
        let mut interp = Interpreter::new(&model.graph, BackendSpec::optimized()).expect("valid");
        let mut all_dets = Vec::new();
        let mut all_gt = Vec::new();
        for scene in &scenes {
            let tensor = cfg.apply(&scene.image).expect("preprocess");
            let out = interp.invoke(&[tensor]).expect("inference");
            let dets = ssd::nms(ssd::decode(&out[0], 0.5), 0.5);
            all_dets.push(dets);
            all_gt.push(
                scene
                    .objects
                    .iter()
                    .map(|o| {
                        let (x0, y0, x1, y1) = o.corners();
                        ssd::GtBox {
                            x0,
                            y0,
                            x1,
                            y1,
                            class: o.class,
                        }
                    })
                    .collect::<Vec<_>>(),
            );
        }
        let map = ssd::mean_average_precision(&all_dets, &all_gt, 0.5, 2);
        row.push(format!("{:.1}", map * 100.0));
    }
    format_table(&header, &[row])
}

fn audio_samples(
    data: &[synth_audio::LabeledWaveform],
    cfg: &AudioPreprocessConfig,
) -> Vec<Sample> {
    data.iter()
        .map(|w| Sample {
            inputs: vec![cfg
                .apply(&w.samples)
                .expect("spectrogram")
                .to_tensor()
                .expect("tensor")],
            label: w.label,
        })
        .collect()
}

/// Panel (c): two speech models from different training pipelines, each
/// evaluated with the correct and the mismatched spectrogram normalization.
pub fn audio(scale: &Scale) -> String {
    let (train, test) =
        synth_audio::train_test_split(scale.train_n.min(320), scale.test_n.min(240), 404)
            .expect("audio split");
    let frames = (synth_audio::WAVEFORM_LEN - 64) / 32 + 1;
    let norms = [
        ("log", SpectrogramNormalization::LogMagnitude),
        ("standardized", SpectrogramNormalization::LogStandardized),
    ];
    let mut rows = Vec::new();
    for (i, (name, norm)) in norms.iter().enumerate() {
        let cfg = AudioPreprocessConfig {
            normalization: *norm,
            ..AudioPreprocessConfig::speech_default()
        };
        let other = AudioPreprocessConfig {
            normalization: norms[1 - i].1,
            ..AudioPreprocessConfig::speech_default()
        };
        let cache = cache_dir().join(format!(
            "audio_{name}_n{}_e{}.json",
            scale.train_n.min(320),
            scale.epochs
        ));
        let tc = TrainConfig {
            epochs: scale.epochs,
            batch_size: 16,
            lr: 0.01,
            ..Default::default()
        };
        let model = train_or_load(
            &cache,
            || mini_audio_cnn(frames, 33, synth_audio::NUM_CLASSES, 5),
            &audio_samples(&train, &cfg),
            &tc,
        )
        .expect("audio training converges");
        let good = evaluate(&model, &audio_samples(&test, &cfg)).expect("eval");
        let bad = evaluate(&model, &audio_samples(&test, &other)).expect("eval");
        rows.push(vec![
            format!("speech_model_{name}"),
            format!("{:.1}", good * 100.0),
            format!("{:.1}", bad * 100.0),
        ]);
    }
    format_table(&["Model", "Matched norm", "Mismatched norm"], &rows)
}
