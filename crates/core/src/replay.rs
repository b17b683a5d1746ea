//! Sharded parallel replay-validate: the monitor-replay-validate loop of
//! the paper, scaled across cores.
//!
//! The single-threaded flow ([`crate::ReferencePipeline::replay`] +
//! [`crate::DeploymentValidator::validate`]) costs N sequential inferences
//! for an N-frame playback set. This module partitions the recorded frames
//! (a `&[LabeledFrame]`) into fixed-size frame shards, lets `std::thread`
//! workers claim shard indices from a shared cursor — each worker owning its
//! *own* [`mlexray_nn::Interpreter`] instances, so no kernel state is
//! shared — and merges the per-shard results deterministically. A worker
//! runs its shard through [`ImageRunner::classify_batch`] in chunks of
//! [`ReplayOptions::micro_batch`] frames; a frame is a batch of one. The
//! validate flow preprocesses each chunk once when the edge and reference
//! configurations agree, and hands both runners the same inputs.
//!
//! # What is held, and for how long
//!
//! [`replay_sharded`] returns logs: it keeps every shard's records and
//! merges them. [`replay_validate_sharded`] returns a verdict: a worker
//! holds one shard's two [`LogSet`]s while it validates them and drops both
//! before it claims the next shard, so the run's footprint is `workers ×` one
//! shard's logs however long the playback set is. Under
//! [`LayerCapture::Full`] those logs hold no layer outputs: the worker folds
//! them in lockstep instead (see [`replay_validate_sharded`]), holding one
//! micro-batch chunk of reference layer outputs, overwritten by the next,
//! and four bytes per (layer, frame).
//!
//! # Determinism
//!
//! The shard partition depends only on the frame count and
//! [`ReplayOptions::shard_frames`], never on the worker count. Workers claim
//! shards dynamically, but every shard's result carries its start frame and
//! the merge sorts by it, so the merged [`LogSet`] (excluding wall-clock
//! latency values) and the merged [`ValidationReport`] are identical for
//! `workers = 1, 2, 4, ...` over the same partition.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mlexray_nn::LayerObserver;

use crate::log::{LogRecord, LogSet};
use crate::monitor::{LayerCapture, Monitor, MonitorConfig};
use crate::pipeline::{ImagePipeline, ImageRunner, LabeledFrame};
use crate::reference::ReferencePipeline;
use crate::sink::LogSink;
use crate::validate::drift::{ChunkCapture, DriftFold, LockstepFold, NodeMap};
use crate::validate::{DeploymentValidator, ShardValidation, ValidationContext, ValidationReport};
use crate::Result;

/// Tuning for a sharded replay run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayOptions {
    /// Worker threads. `0` sizes the pool elastically from the global
    /// [`crate::budget`] ledger (machine parallelism minus whatever other
    /// pools have reserved); an explicit count is honored verbatim and
    /// recorded in the ledger for the run's duration.
    pub workers: usize,
    /// Frames per shard. Fixes the shard partition — keep it constant when
    /// comparing runs across worker counts, or the merged drift/report
    /// arithmetic changes with it.
    pub shard_frames: usize,
    /// Has no effect: workers claim shard indices from a shared cursor, so
    /// there is no queue to size. The field stays only so that struct
    /// literals which set it still compile; it goes once `ReplayOptions`
    /// has a constructor for them.
    pub queue_depth: usize,
    /// Frames stacked into one batched interpreter invoke *within* a shard
    /// (intra-shard micro-batching): each shard runs in chunks of this many
    /// frames through [`crate::ImageRunner::classify_batch`] (`0` counts as
    /// `1`). Logged tensor values are bitwise-identical at every size; only
    /// wall-clock-derived records (latency, per-frame memory attribution)
    /// change.
    pub micro_batch: usize,
    /// Monitor configuration each worker instruments its frames with.
    /// [`replay_validate_sharded`] folds `Full` layer outputs into the
    /// per-layer drift instead of logging them; every other record is
    /// logged as configured. A custom assertion that reads `layer/*/output`
    /// records runs [`DeploymentValidator::validate`] over
    /// [`replay_sharded`] logs.
    pub monitor: MonitorConfig,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            workers: 0,
            shard_frames: 8,
            queue_depth: 0,
            micro_batch: 1,
            monitor: MonitorConfig::offline_validation(),
        }
    }
}

impl ReplayOptions {
    /// A run with an explicit worker count and otherwise default tuning.
    pub fn with_workers(workers: usize) -> Self {
        ReplayOptions {
            workers,
            ..Default::default()
        }
    }

    /// The one shard plan behind every sharded run: partitions `n_frames`
    /// by [`ReplayOptions::shard_frames`], takes the run's core lease —
    /// elastic against the global [`crate::budget`] ledger for
    /// `workers == 0`, an exact (ledger-recorded) claim otherwise, never
    /// more workers than shards, held until the merge is done so concurrent
    /// pools size themselves around this run — runs `work` over the shards
    /// on that many threads, which claim shard indices from a shared cursor
    /// (each worker builds its private state with `init` on the first shard
    /// it claims), and hands the per-shard results, in frame order, to
    /// `merge`.
    pub(crate) fn run<S, T: Send, R>(
        &self,
        n_frames: usize,
        init: impl Fn() -> Result<S> + Sync,
        work: impl Fn(&mut S, Range<usize>) -> Result<T> + Sync,
        merge: impl FnOnce(Vec<T>) -> R,
    ) -> Result<(R, ReplayStats)> {
        let started = Instant::now();
        let partition = shard_partition(n_frames, self.shard_frames);
        let cap = partition.len().max(1);
        let lease = if self.workers == 0 {
            crate::budget::reserve_up_to(cap)
        } else {
            crate::budget::reserve_cores(self.workers.min(cap))
        };
        let workers = lease.cores();
        let merged = merge(run_sharded(&partition, workers, init, work)?);
        let stats = ReplayStats {
            frames: n_frames,
            shards: partition.len(),
            workers,
            elapsed: started.elapsed(),
        };
        Ok((merged, stats))
    }
}

/// Wall-clock accounting of one sharded replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayStats {
    /// Frames replayed (frame *pairs* for the validate flow, which runs the
    /// edge and reference pipelines per frame).
    pub frames: usize,
    /// Shards in the partition.
    pub shards: usize,
    /// Worker threads actually spawned.
    pub workers: usize,
    /// End-to-end wall-clock time, including the merge.
    pub elapsed: Duration,
}

impl ReplayStats {
    /// Replay throughput in frames per second.
    pub fn frames_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.frames as f64 / secs
        }
    }
}

/// Drives one worker's shard through its runner in micro-batches of
/// `micro_batch` stacked frames per interpreter invoke (`0` counts as `1`:
/// a frame is a batch of one).
fn run_frames(
    runner: &mut ImageRunner<'_>,
    frames: &[LabeledFrame],
    monitor: &Monitor,
    micro_batch: usize,
) -> Result<()> {
    for chunk in frames.chunks(micro_batch.max(1)) {
        runner.classify_batch(chunk, monitor)?;
    }
    Ok(())
}

/// The contiguous frame ranges `[0, n)` is split into: every shard holds
/// `shard_frames` frames except a shorter tail. This partition is the unit
/// of work distribution *and* of per-shard validation.
fn shard_partition(frames: usize, shard_frames: usize) -> Vec<Range<usize>> {
    let size = shard_frames.max(1);
    (0..frames.div_ceil(size))
        .map(|i| i * size..((i + 1) * size).min(frames))
        .collect()
}

/// Runs `work` over the shard partition on `workers` threads and collects
/// each shard's output, sorted by start frame. Workers claim shard indices
/// from one shared cursor; a worker that fails (`Err` or panic) stops the
/// claims, so the others end with the shard they hold. Each worker lazily
/// builds its own state (interpreter instances) via `init` on the first
/// shard it claims, so workers that never win a shard never pay for
/// construction. A worker's panic is re-raised here with its own payload.
fn run_sharded<T: Send, S>(
    partition: &[Range<usize>],
    workers: usize,
    init: impl Fn() -> Result<S> + Sync,
    work: impl Fn(&mut S, Range<usize>) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    let cursor = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let claim = || match stop.load(Ordering::Relaxed) {
        true => None,
        false => partition.get(cursor.fetch_add(1, Ordering::Relaxed)),
    };
    let worker = || -> Result<Vec<(usize, T)>> {
        // Stops the claims however this worker exits: `Err` return *or* a
        // panic inside `init` / `work`. After a normal exit every shard has
        // been claimed (or a failure stopped the claims), so it changes
        // nothing.
        struct StopOnExit<'a>(&'a AtomicBool);
        impl Drop for StopOnExit<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        let _guard = StopOnExit(&stop);
        let mut shards = std::iter::from_fn(claim);
        let Some(first) = shards.next() else {
            return Ok(Vec::new());
        };
        let mut state = init()?;
        let mut produced = Vec::new();
        for shard in std::iter::once(first).chain(shards) {
            produced.push((shard.start, work(&mut state, shard.clone())?));
        }
        Ok(produced)
    };
    let mut chunks: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        let mut all = Vec::new();
        let mut first_err = None;
        for handle in handles {
            match handle.join() {
                Ok(Ok(produced)) => all.extend(produced),
                Ok(Err(e)) => first_err = first_err.or(Some(e)),
                // The scope joins the remaining workers (the claims are
                // stopped, so each ends with its current shard) before this
                // unwinds.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        first_err.map_or(Ok(all), Err)
    })?;
    chunks.sort_by_key(|(start, _)| *start);
    Ok(chunks.into_iter().map(|(_, value)| value).collect())
}

/// Replays `frames` through `pipeline` on a sharded worker pool, returning
/// the merged log set (frames globally numbered, in frame order) and the
/// run's throughput accounting.
///
/// # Errors
///
/// Propagates the first pipeline error any worker hits.
pub fn replay_sharded(
    pipeline: &ImagePipeline,
    frames: &[LabeledFrame],
    options: &ReplayOptions,
) -> Result<(LogSet, ReplayStats)> {
    let monitor_config = options.monitor;
    let micro_batch = options.micro_batch;
    options.run(
        frames.len(),
        || pipeline.runner(),
        |runner, shard| -> Result<Vec<LogRecord>> {
            let monitor = Monitor::new(monitor_config).starting_at(shard.start as u64);
            run_frames(runner, &frames[shard], &monitor, micro_batch)?;
            Ok(monitor.take_logs().into_records())
        },
        |shards| LogSet::new(shards.into_iter().flatten().collect()),
    )
}

/// Like [`replay_sharded`], but streams records into `sink` instead of
/// buffering per-shard log sets — the fleet-telemetry shape, where a
/// [`crate::ChannelSink`] moves persistence off all worker threads at once.
/// Records arrive at the sink in worker interleaving order (their `frame`
/// fields are still globally numbered).
///
/// # Errors
///
/// Propagates the first pipeline error any worker hits.
pub fn replay_sharded_to_sink(
    pipeline: &ImagePipeline,
    frames: &[LabeledFrame],
    options: &ReplayOptions,
    sink: Arc<dyn LogSink>,
) -> Result<ReplayStats> {
    let monitor_config = options.monitor;
    let micro_batch = options.micro_batch;
    let ((), stats) = options.run(
        frames.len(),
        || pipeline.runner(),
        |runner, shard| -> Result<()> {
            let monitor =
                Monitor::with_sink(monitor_config, sink.clone()).starting_at(shard.start as u64);
            run_frames(runner, &frames[shard], &monitor, micro_batch)
        },
        |_| (),
    )?;
    Ok(stats)
}

/// Everything a sharded replay-validate run produces. The logs behind it
/// are gone by the time it returns (see the module docs); a caller that
/// wants them runs [`replay_sharded`].
#[derive(Debug, Clone)]
pub struct ShardedValidation {
    /// The deterministic merge of all per-shard reports.
    pub report: ValidationReport,
    /// Per-shard validations, sorted by start frame (shard-level triage:
    /// which stretch of the playback set tripped which assertion).
    pub shards: Vec<ShardValidation>,
    /// Throughput accounting (frame pairs: each frame ran both pipelines).
    pub stats: ReplayStats,
}

/// The paper's full loop, sharded: replays every frame through both the
/// edge pipeline and the reference pipeline, validates each shard locally,
/// and merges the per-shard reports deterministically (see the module
/// docs).
///
/// Each worker owns one edge interpreter and one reference interpreter for
/// its whole lifetime and runs its shard through both, micro-batch by
/// micro-batch. When the two preprocessing configurations are equal, each
/// frame is preprocessed once and both runners take the same input tensors
/// (each monitor still logs its `preprocess/output` and `model/input`);
/// otherwise each side preprocesses on its own. Per-shard assertion checks
/// run against shard-local frame numbering, so every shard gets first-frame
/// assertion coverage.
///
/// Under [`LayerCapture::Full`] no `layer/*/output` record is logged: per
/// chunk the reference runner copies each layer output the edge also has
/// (matched by name, as [`crate::DriftFold::of_logs`] matches keys) into a
/// reused capture, and the edge runner folds each of its layer outputs
/// against it while it is hot. The shard's drift is bit for bit
/// [`crate::per_layer_drift`] over the full logs, and every other record is
/// logged as [`ImageRunner::classify_batch`] logs it.
///
/// # Errors
///
/// Propagates the first pipeline error any worker hits.
pub fn replay_validate_sharded(
    edge: &ImagePipeline,
    reference: &ReferencePipeline,
    frames: &[LabeledFrame],
    validator: &DeploymentValidator,
    options: &ReplayOptions,
) -> Result<ShardedValidation> {
    let monitor_config = options.monitor;
    let micro_batch = options.micro_batch.max(1);
    let reference_pipeline = reference.pipeline();
    // Equal configurations compute equal tensors: preprocess each frame once
    // and hand the reference runner the edge's inputs.
    let shared_input = edge.preprocess == reference_pipeline.preprocess;
    let fold_layers = monitor_config.per_layer == LayerCapture::Full;
    // Each edge node folds at its output key's position among the edge
    // logs' `layer/` keys, as `DriftFold::of_logs` numbers it.
    let stride = 1 + monitor_config.layer_latency as usize;
    let nodes = NodeMap::by_name(&reference_pipeline.model.graph, &edge.model.graph, stride);
    let ((report, shards), stats) = options.run(
        frames.len(),
        || {
            let capture = ChunkCapture::new(&nodes, micro_batch);
            Ok((edge.runner()?, reference_pipeline.runner()?, capture))
        },
        |(edge_runner, reference_runner, capture), shard| -> Result<ShardValidation> {
            let start = shard.start as u64;
            // Shard-local frame numbering (0..len) so assertions that
            // inspect frame 0 run against every shard, not just the first.
            let edge_monitor = Monitor::new(monitor_config);
            let reference_monitor = Monitor::new(monitor_config);
            let mut fold = DriftFold::default();
            for (i, chunk) in frames[shard].chunks(micro_batch).enumerate() {
                let edge_inputs = edge_runner.preprocess(chunk)?;
                let reference_inputs = match shared_input {
                    true => None,
                    false => Some(reference_runner.preprocess(chunk)?),
                };
                let reference_inputs = reference_inputs.as_deref().unwrap_or(&edge_inputs);
                let tap = fold_layers.then_some(&mut *capture as &mut dyn LayerObserver);
                reference_runner.classify_inputs(
                    chunk,
                    reference_inputs,
                    &reference_monitor,
                    tap,
                )?;
                let mut lockstep = LockstepFold::new(capture, (i * micro_batch) as u64, &mut fold);
                let tap = fold_layers.then_some(&mut lockstep as &mut dyn LayerObserver);
                edge_runner.classify_inputs(chunk, &edge_inputs, &edge_monitor, tap)?;
            }
            let (edge_logs, reference_logs) =
                (edge_monitor.take_logs(), reference_monitor.take_logs());
            let ctx = ValidationContext::with_drift(&edge_logs, &reference_logs, fold.drift());
            Ok(validator.validate_shard_in(start, &ctx))
        },
        |shards| (validator.merge_shards(&shards), shards),
    )?;
    Ok(ShardedValidation {
        report,
        shards,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_all_frames_without_overlap() {
        for (n, size) in [(0usize, 4usize), (1, 4), (7, 4), (8, 4), (9, 4), (10, 1)] {
            let shards = shard_partition(n, size);
            let covered: usize = shards.iter().map(|s| s.len()).sum();
            assert_eq!(covered, n, "n={n} size={size}");
            for pair in shards.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
            }
            if n > 0 {
                assert_eq!(shards[0].start, 0);
                assert_eq!(shards.last().unwrap().end, n);
            }
        }
    }

    /// A worker's panic reaches the caller with the worker's own payload.
    #[test]
    fn worker_panic_resumes_with_its_payload() {
        let options = ReplayOptions {
            workers: 1,
            shard_frames: 1,
            ..Default::default()
        };
        let unwound = std::panic::catch_unwind(|| {
            options.run(
                16,
                || Ok(()),
                |(), shard| {
                    if shard.start == 1 {
                        panic!("boom");
                    }
                    Ok(shard.start)
                },
                |shards| shards,
            )
        });
        let payload = unwound.expect_err("the worker's panic must unwind the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
    }

    /// 64 one-frame shards on two workers. The first shard to start fails,
    /// by `Err` or by panic; every other shard waits until that failure is
    /// recorded, then counts itself. The caller gets the failure, and the
    /// claims stop with it: only a shard another worker already holds (at
    /// most `workers - 1`) completes after it.
    #[test]
    fn a_failure_stops_the_claims() {
        const WORKERS: usize = 2;
        let options = ReplayOptions {
            workers: WORKERS,
            shard_frames: 1,
            ..Default::default()
        };
        for panics in [false, true] {
            let started = AtomicUsize::new(0);
            let failed = AtomicBool::new(false);
            let completed = AtomicUsize::new(0);
            let outcome = std::panic::catch_unwind(|| {
                options.run(
                    64,
                    || Ok(()),
                    |(), shard| {
                        if started.fetch_add(1, Ordering::SeqCst) == 0 {
                            failed.store(true, Ordering::SeqCst);
                            if panics {
                                panic!("first shard");
                            }
                            return Err(crate::ExrayError::Validation("first shard".into()));
                        }
                        while !failed.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                        // The failing worker stops the claims on its way out.
                        std::thread::sleep(Duration::from_millis(50));
                        completed.fetch_add(1, Ordering::SeqCst);
                        Ok(shard.start)
                    },
                    |shards| shards,
                )
            });
            match (panics, outcome) {
                (true, Err(payload)) => {
                    assert_eq!(payload.downcast_ref::<&str>(), Some(&"first shard"));
                }
                (false, Ok(Err(crate::ExrayError::Validation(reason)))) => {
                    assert_eq!(reason, "first shard");
                }
                (_, other) => panic!("panics={panics}: the failure was lost: {other:?}"),
            }
            let completed = completed.into_inner();
            assert!(
                completed < WORKERS,
                "panics={panics}: {completed} shards completed after the failure"
            );
        }
    }
}
