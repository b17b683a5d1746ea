//! Figure 3: summary matrix — tasks × models × injected issues, and which
//! ML-EXray assertion caught each one.

use mlexray_core::{
    collect_logs, AudioPipeline, DeploymentValidator, ImagePipeline, LogSet, Monitor,
    MonitorConfig, ValidationReport,
};
use mlexray_datasets::{synth_audio, synth_text};
use mlexray_models::{canonical_preprocess, ssd, text::nnlm, MiniFamily};
use mlexray_nn::{
    calibrate, convert_to_mobile, quantize_model, BackendSpec, KernelBugs, KernelFlavor,
    QuantizationOptions,
};
use mlexray_preprocess::{
    AudioPreprocessConfig, PreprocessBug, SpectrogramNormalization, TextPreprocessConfig,
    Tokenizer, Vocabulary,
};

use crate::support::{format_table, image_split, to_frames, to_samples, trained_mini, Scale};

fn detected(report: &ValidationReport) -> String {
    let causes: Vec<String> = report.failures().iter().map(|o| o.name.clone()).collect();
    if causes.is_empty() {
        "NOT DETECTED".to_string()
    } else {
        causes.join(", ")
    }
}

/// Runs every task with one injected issue and reports which assertion fired.
pub fn run(scale: &Scale) -> String {
    let mut rows = Vec::new();
    let validator = DeploymentValidator::new();
    let (train_imgs, test_imgs) = image_split(scale);
    let frames = to_frames(&test_imgs[..test_imgs.len().min(6)]);

    // --- Image classification: each preprocessing bug on mini MobileNetV2.
    let model = trained_mini(MiniFamily::MiniV2, scale);
    let canonical = canonical_preprocess("mini_mobilenet_v2", scale.input);
    let reference_logs = collect_logs(
        &ImagePipeline::new(model.clone(), canonical.clone()),
        &frames,
        MonitorConfig::offline_validation(),
    )
    .expect("reference replay");
    for bug in PreprocessBug::ALL {
        let edge = ImagePipeline::new(model.clone(), canonical.with_bug(bug));
        let edge_logs =
            collect_logs(&edge, &frames, MonitorConfig::offline_validation()).expect("edge run");
        let report = validator.validate(&edge_logs, &reference_logs);
        rows.push(vec![
            "image classification".into(),
            "MobileNetv2".into(),
            format!("preprocessing: {}", bug.label().to_lowercase()),
            detected(&report),
        ]);
    }

    // --- Object detection: channel bug on the mini-SSD pipeline.
    {
        let ssd_model = ssd::mini_ssd(32).expect("ssd");
        let ssd_pre = canonical_preprocess("mini_ssd", 32);
        let reference = collect_logs(
            &ImagePipeline::new(ssd_model.clone(), ssd_pre.clone()),
            &frames,
            MonitorConfig::offline_validation(),
        )
        .expect("reference");
        let edge = collect_logs(
            &ImagePipeline::new(ssd_model, ssd_pre.with_bug(PreprocessBug::Channel)),
            &frames,
            MonitorConfig::offline_validation(),
        )
        .expect("edge");
        let report = validator.validate(&edge, &reference);
        rows.push(vec![
            "object detection".into(),
            "Mini-SSD".into(),
            "preprocessing: channel".into(),
            detected(&report),
        ]);
    }

    // --- Audio: spectrogram normalization mismatch.
    {
        let frames_n = (synth_audio::WAVEFORM_LEN - 64) / 32 + 1;
        let audio_model =
            mlexray_models::audio::mini_audio_cnn(frames_n, 33, synth_audio::NUM_CLASSES, 5)
                .expect("audio model");
        let clips = synth_audio::generate(synth_audio::SynthAudioSpec { count: 4, seed: 31 })
            .expect("clips");
        let run_clips = |cfg: AudioPreprocessConfig| -> LogSet {
            let pipeline = AudioPipeline::new(audio_model.clone(), cfg);
            let monitor = Monitor::new(MonitorConfig::offline_validation());
            let mut runner = pipeline.runner().expect("runner");
            for clip in &clips {
                runner
                    .classify(&clip.samples, Some(clip.label), &monitor)
                    .expect("classify");
            }
            monitor.take_logs()
        };
        let reference = run_clips(AudioPreprocessConfig::speech_default());
        let edge = run_clips(AudioPreprocessConfig {
            normalization: SpectrogramNormalization::LogStandardized,
            ..AudioPreprocessConfig::speech_default()
        });
        let report = validator.validate(&edge, &reference);
        rows.push(vec![
            "speech recognition".into(),
            "AudioCNN".into(),
            "preprocessing: spectrogram normalization".into(),
            detected(&report),
        ]);
    }

    // --- Text: tokenizer case mismatch via a 6-line custom assertion.
    {
        let vocab = Vocabulary::build(synth_text::full_vocabulary());
        let text_model = nnlm(vocab.len(), 16, 16, 2, 8).expect("nnlm");
        let reviews = synth_text::generate(synth_text::SynthTextSpec {
            count: 4,
            ..Default::default()
        })
        .expect("reviews");
        let run_docs = |tok: Tokenizer| -> LogSet {
            let pipeline = mlexray_core::TextPipeline::new(
                text_model.clone(),
                TextPreprocessConfig {
                    tokenizer: tok,
                    max_len: 16,
                },
                vocab.clone(),
            );
            let monitor = Monitor::new(MonitorConfig::offline_validation());
            let mut runner = pipeline.runner().expect("runner");
            for r in &reviews {
                runner
                    .classify(&r.text, Some(r.label), &monitor)
                    .expect("classify");
            }
            monitor.take_logs()
        };
        let reference = run_docs(Tokenizer::default());
        let edge = run_docs(Tokenizer {
            lowercase: false,
            strip_punctuation: true,
        });
        // The user-defined assertion of §3.2: compare token-id streams.
        let custom = mlexray_core::FnAssertion::new("token_ids_match", |ctx| {
            let (Some(e), Some(r)) = (
                ctx.edge.get(0, mlexray_core::KEY_PREPROCESS_OUTPUT),
                ctx.reference.get(0, mlexray_core::KEY_PREPROCESS_OUTPUT),
            ) else {
                return mlexray_core::FnAssertion::passed("token_ids_match", "no data");
            };
            if e.value.values() == r.value.values() {
                mlexray_core::FnAssertion::passed("token_ids_match", "identical token ids")
            } else {
                mlexray_core::FnAssertion::failed(
                    "token_ids_match",
                    "tokenization differs between pipelines (case handling?)",
                )
            }
        });
        let v = DeploymentValidator::empty().with_assertion(custom);
        let report = v.validate(&edge, &reference);
        rows.push(vec![
            "text sentiment".into(),
            "NNLM".into(),
            "preprocessing: tokenizer case".into(),
            detected(&report),
        ]);
    }

    // --- Quantization defects on MobileNetv3 (the §4.4 discovery).
    {
        let v3 = trained_mini(MiniFamily::MiniV3, scale);
        let canonical3 = canonical_preprocess("mini_mobilenet_v3", scale.input);
        let mobile = convert_to_mobile(&v3).expect("conversion");
        let calib_inputs: Vec<Vec<mlexray_tensor::Tensor>> =
            to_samples(&train_imgs[..24], &canonical3)
                .into_iter()
                .map(|s| s.inputs)
                .collect();
        let calib =
            calibrate(&mobile.graph, calib_inputs.iter().map(Vec::as_slice)).expect("calibration");
        let quant =
            quantize_model(&mobile, &calib, QuantizationOptions::default()).expect("quantization");
        let reference = collect_logs(
            &ImagePipeline::new(mobile, canonical3.clone()),
            &frames,
            MonitorConfig::offline_validation(),
        )
        .expect("reference");
        let edge = collect_logs(
            &ImagePipeline::new(quant, canonical3).with_backend(BackendSpec {
                flavor: KernelFlavor::Reference,
                bugs: KernelBugs::paper_2021(),
                numerics: None,
            }),
            &frames,
            MonitorConfig::offline_validation(),
        )
        .expect("edge");
        let report = validator.validate(&edge, &reference);
        rows.push(vec![
            "image classification".into(),
            "MobileNetv3 (int8)".into(),
            "quantized AveragePool2d defect".into(),
            detected(&report),
        ]);
    }

    // --- Latency: straggler layers under the reference resolver.
    {
        let edge = collect_logs(
            &ImagePipeline::new(model.clone(), canonical.clone())
                .with_backend(BackendSpec::reference()),
            &frames[..2],
            MonitorConfig::offline_validation(),
        )
        .expect("edge");
        let v = DeploymentValidator::empty()
            .with_assertion(mlexray_core::StragglerLayerAssertion { share: 0.12 });
        let report = v.validate(&edge, &reference_logs);
        rows.push(vec![
            "image classification".into(),
            "MobileNetv2 (RefOpResolver)".into(),
            "sub-optimal kernel latency".into(),
            detected(&report),
        ]);
    }

    format!(
        "Figure 3: tasks, models, injected issues and the assertions that caught them\n{}",
        format_table(&["Task", "Model", "Injected issue", "Detected by"], &rows)
    )
}
