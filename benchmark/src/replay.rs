//! `replay_validate`: the paper's offline loop. Every frame runs through
//! the edge pipeline (optimized kernels) and the reference pipeline (true
//! reference kernels) under full-tensor capture, and the two log streams
//! are validated shard by shard.

use std::path::Path;
use std::time::Instant;

use mlexray_core::{
    replay_validate_sharded, DeploymentValidator, ImagePipeline, LabeledFrame, MonitorConfig,
    ReferencePipeline, ReplayOptions, Verdict,
};
use mlexray_datasets::synth_image::NUM_CLASSES;
use mlexray_models::{by_name, canonical_preprocess};

use crate::inputs;
use crate::measure::{ms, segment, Segment};
use crate::workload::{timed, Kind, Layers, Workload};

const MODEL: &str = "mini_mobilenet_v2";
const INPUT: usize = 24;
const CAMERA: usize = 60;
/// Jobs per segment. A job replays the whole 64-frame set (~45 ms), so a
/// segment is 640 frame pairs.
const SEGMENT_JOBS: usize = 10;
const WARMUP_JOBS: usize = 2;

/// One worker: an elastic lease took whatever cores the ledger had free and
/// made identical runs differ by half; sharded scaling is not what this
/// workload measures.
pub fn options() -> ReplayOptions {
    ReplayOptions {
        workers: 1,
        shard_frames: 8,
        queue_depth: 0,
        micro_batch: 1,
        monitor: MonitorConfig::offline_validation(),
    }
}

pub struct Replay {
    pub edge: ImagePipeline,
    pub reference: ReferencePipeline,
    pub frames: Vec<LabeledFrame>,
    pub validator: DeploymentValidator,
    /// The first job's rendered report; every later job must repeat it.
    first_report: Option<String>,
    failed_outside: usize,
}

impl Replay {
    /// One replay-validate job over the whole frame set. Returns its wall
    /// time in ms and whether the oracle accepted it.
    pub fn job(&mut self) -> (f64, bool) {
        let start = Instant::now();
        let result = replay_validate_sharded(
            &self.edge,
            &self.reference,
            &self.frames,
            &self.validator,
            &options(),
        );
        let took = ms(start.elapsed());
        let ok = match result {
            Ok(v) => {
                let rendered = v.report.to_string();
                let first = self.first_report.get_or_insert_with(|| rendered.clone());
                v.report.verdict == Verdict::Healthy && *first == rendered
            }
            Err(_) => false,
        };
        (took, ok)
    }

    fn jobs(&mut self, n: usize) -> (Vec<f64>, usize) {
        let results: Vec<(f64, bool)> = (0..n).map(|_| self.job()).collect();
        let failed = results.iter().filter(|r| !r.1).count();
        (results.into_iter().map(|r| r.0).collect(), failed)
    }
}

impl Workload for Replay {
    fn setup(_kind: Kind, seed: u64, _out: &Path) -> (Self, Layers) {
        let mut phases = Layers::new();
        let (frames, took) = timed(|| inputs::frames(seed, CAMERA));
        phases.insert("datasets.frames_gen_ms", ms(took));
        let canonical = canonical_preprocess(MODEL, INPUT);
        let ((edge, reference), took) = timed(|| {
            let model = by_name(MODEL)
                .expect("zoo knows the model")
                .build(INPUT, NUM_CLASSES, 1)
                .expect("zoo model builds");
            (
                ImagePipeline::new(model.clone(), canonical.clone()),
                ReferencePipeline::new(model, canonical),
            )
        });
        phases.insert("models.build_ms", ms(took));
        let mut w = Replay {
            edge,
            reference,
            frames,
            validator: DeploymentValidator::new(),
            first_report: None,
            failed_outside: 0,
        };
        let ((_, failed), took) = timed(|| w.jobs(WARMUP_JOBS));
        w.failed_outside += failed;
        phases.insert("loadgen.warmup_ms", ms(took));
        (w, phases)
    }

    /// Throughput and CPU are per frame pair; latency is per job, which is
    /// what the user of a batch validation waits for.
    fn segment(&mut self) -> Segment {
        segment(SEGMENT_JOBS * self.frames.len(), || {
            let (latency, failed) = self.jobs(SEGMENT_JOBS);
            // A failed job fails every frame pair in it.
            (latency, Vec::new(), failed * self.frames.len())
        })
    }

    fn finish(self) -> (usize, Layers) {
        let mut layers = Layers::new();
        layers.insert("loadgen.connections", 1.0);
        (self.failed_outside * self.frames.len(), layers)
    }
}
