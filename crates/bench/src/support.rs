//! Shared experiment plumbing: dataset/model preparation, weight caching and
//! table formatting.

use std::path::PathBuf;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use mlexray_core::LabeledFrame;
use mlexray_datasets::synth_image::{self, LabeledImage};
use mlexray_models::{canonical_preprocess, mini_model, MiniFamily};
use mlexray_nn::Model;
use mlexray_preprocess::ImagePreprocessConfig;
use mlexray_trainer::{train_or_load, Sample, TrainConfig};

/// Experiment scale knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Mini-model input resolution.
    pub input: usize,
    /// Sensor-frame resolution.
    pub frame_res: usize,
    /// Training-set size.
    pub train_n: usize,
    /// Test-set size.
    pub test_n: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Full-size model input resolution (Tables 2–5).
    pub full_input: usize,
    /// Full-size model width multiplier.
    pub full_width: f32,
}

impl Scale {
    /// The default experiment scale (any run without `MLEXRAY_QUICK=1`).
    pub fn default_scale() -> Self {
        Scale {
            input: 24,
            // A non-integer downscale ratio (60 -> 24) keeps bilinear and
            // area-average resampling genuinely different; exact 2x ratios
            // make them coincide and would erase the Fig. 4 resize bug.
            frame_res: 60,
            train_n: 480,
            test_n: 320,
            epochs: 8,
            full_input: 224,
            full_width: 1.0,
        }
    }

    /// Reduced scale for smoke tests (`MLEXRAY_QUICK=1`).
    pub fn quick() -> Self {
        Scale {
            input: 16,
            frame_res: 40,
            train_n: 96,
            test_n: 64,
            epochs: 3,
            full_input: 64,
            full_width: 0.25,
        }
    }

    /// Reads `MLEXRAY_QUICK` from the environment.
    pub fn from_env() -> Self {
        if std::env::var("MLEXRAY_QUICK")
            .map(|v| v == "1")
            .unwrap_or(false)
        {
            Self::quick()
        } else {
            Self::default_scale()
        }
    }
}

/// The shared weight-cache directory (under `target/`).
pub fn cache_dir() -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    PathBuf::from(target).join("mlexray-cache")
}

/// The directory experiment artifacts are written to:
/// `$CARGO_TARGET_DIR/experiment-artifacts`, falling back to the workspace
/// `target/` (resolved from this crate's manifest, so the path is stable no
/// matter which directory tests run from — CI uploads it per PR).
pub fn artifact_dir() -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("target")
        });
    target.join("experiment-artifacts")
}

/// Records one experiment's rendered output as a JSON artifact
/// (`<artifact_dir>/<name>.json`) so every CI run leaves an inspectable
/// perf/accuracy trajectory. `quick_scale` is declared by the caller — it
/// must reflect the [`Scale`] the experiment actually ran at, not the
/// environment (smoke tests always run quick, whatever `MLEXRAY_QUICK`
/// says). Returns the path written.
///
/// # Panics
///
/// Panics on filesystem failures — artifacts exist to be inspected, so
/// writing them silently failing would defeat the point.
pub fn record_artifact(name: &str, quick_scale: bool, output: &str) -> PathBuf {
    #[derive(serde::Serialize)]
    struct Artifact {
        experiment: String,
        quick_scale: bool,
        output: String,
    }
    let dir = artifact_dir();
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string(&Artifact {
        experiment: name.to_string(),
        quick_scale,
        output: output.to_string(),
    })
    .expect("artifact serializes");
    std::fs::write(&path, json).expect("write artifact");
    path
}

/// Deterministic train/test image split used by every image experiment.
pub fn image_split(scale: &Scale) -> (Vec<LabeledImage>, Vec<LabeledImage>) {
    synth_image::train_test_split(scale.frame_res, scale.train_n, scale.test_n, 2026)
        .expect("valid split spec")
}

/// Converts labelled images to training samples under a preprocessing
/// configuration.
pub fn to_samples(images: &[LabeledImage], cfg: &ImagePreprocessConfig) -> Vec<Sample> {
    images
        .iter()
        .map(|s| Sample {
            inputs: vec![cfg.apply(&s.image).expect("valid image")],
            label: s.label,
        })
        .collect()
}

/// Converts labelled images into pipeline frames.
pub fn to_frames(images: &[LabeledImage]) -> Vec<LabeledFrame> {
    images
        .iter()
        .map(|s| LabeledFrame::new(s.image.clone(), Some(s.label)))
        .collect()
}

/// Contrast/brightness augmentation (`a*x + b`): gives the minis the mild
/// photometric robustness ImageNet models have, so the normalization bug
/// degrades accuracy (Fig. 4) instead of flooring it at chance.
pub fn augment(samples: &[Sample], seed: u64) -> Vec<Sample> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(samples.len() * 2);
    for s in samples {
        out.push(s.clone());
        let b = rng.gen_range(-0.35..0.45f32);
        // Per-channel gains add mild hue robustness on top of the global
        // contrast jitter, softening (not erasing) the channel-swap bug.
        let gains = [
            rng.gen_range(0.55..1.15f32),
            rng.gen_range(0.55..1.15f32),
            rng.gen_range(0.55..1.15f32),
        ];
        let jittered = s
            .inputs
            .iter()
            .map(|t| {
                let channels = t.shape().channels().unwrap_or(1).max(1);
                let data: Vec<f32> = t
                    .to_f32_vec()
                    .into_iter()
                    .enumerate()
                    .map(|(i, v)| gains[(i % channels) % 3] * v + b)
                    .collect();
                mlexray_tensor::Tensor::from_f32(t.shape().clone(), data).expect("same shape")
            })
            .collect();
        out.push(Sample {
            inputs: jittered,
            label: s.label,
        });
    }
    out
}

/// Trains (or loads from cache) a mini model on the synthetic image task
/// with its family's canonical preprocessing.
pub fn trained_mini(family: MiniFamily, scale: &Scale) -> Model {
    let cache = cache_dir().join(format!(
        "{}_i{}_r{}_n{}_e{}.json",
        family.name(),
        scale.input,
        scale.frame_res,
        scale.train_n,
        scale.epochs
    ));
    let (train_imgs, _) = image_split(scale);
    let cfg = canonical_preprocess(family.name(), scale.input);
    let data = augment(&to_samples(&train_imgs, &cfg), 1234);
    let tc = TrainConfig {
        epochs: scale.epochs,
        batch_size: 16,
        lr: 0.01,
        ..Default::default()
    };
    train_or_load(
        &cache,
        || mini_model(family, scale.input, synth_image::NUM_CLASSES, 7),
        &data,
        &tc,
    )
    .expect("training converges on the synthetic task")
}

/// Formats an aligned text table.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<String>, widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(0)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(
        headers.iter().map(|s| s.to_string()).collect(),
        &widths,
    ));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.clone(), &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_formatting_aligns() {
        let t = format_table(
            &["model", "acc"],
            &[
                vec!["mobilenet_v2".into(), "0.91".into()],
                vec!["v3".into(), "0.88".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("model"));
        assert!(lines[2].starts_with("mobilenet_v2"));
    }

    #[test]
    fn scales() {
        assert!(Scale::quick().train_n < Scale::default_scale().train_n);
    }
}
