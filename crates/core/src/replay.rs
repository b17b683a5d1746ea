//! Sharded parallel replay-validate: the monitor-replay-validate loop of
//! the paper, scaled across cores.
//!
//! The single-threaded flow ([`crate::ReferencePipeline::replay`] +
//! [`crate::DeploymentValidator::validate`]) costs N sequential inferences
//! for an N-frame playback set. This module partitions the playback source
//! into fixed-size frame shards, feeds them through a small bounded SPMC
//! work queue to `std::thread` workers — each owning its *own*
//! [`mlexray_nn::Interpreter`] instances, so no kernel state is shared —
//! and merges the per-shard results deterministically.
//!
//! # What is held, and for how long
//!
//! [`replay_sharded`] returns logs: it keeps every shard's records and
//! merges them. [`replay_validate_sharded`] returns a verdict: a worker
//! holds one shard's two [`LogSet`]s while it validates them and drops both
//! before it pulls the next shard, so the run's footprint is `workers ×` one
//! shard's logs however long the playback set is.
//!
//! # Determinism
//!
//! The shard partition depends only on the frame count and
//! [`ReplayOptions::shard_frames`], never on the worker count. Workers pull
//! shards dynamically, but every shard's result carries its start frame and
//! the merge sorts by it, so the merged [`LogSet`] (excluding wall-clock
//! latency values) and the merged [`ValidationReport`] are identical for
//! `workers = 1, 2, 4, ...` over the same partition.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::log::{LogRecord, LogSet};
use crate::monitor::{Monitor, MonitorConfig};
use crate::pipeline::{ImagePipeline, ImageRunner, LabeledFrame};
use crate::reference::ReferencePipeline;
use crate::sink::LogSink;
use crate::validate::{DeploymentValidator, ShardValidation, ValidationReport};
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
    /// Bounded work-queue depth. `0` means `2 × workers`.
    pub queue_depth: usize,
    /// Frames stacked into one batched interpreter invoke *within* a shard
    /// (intra-shard micro-batching). `0` or `1` runs frame by frame; larger
    /// values execute each shard in chunks of this many frames through
    /// [`crate::ImageRunner::classify_batch`]. Logged tensor values are
    /// bitwise-identical either way; only wall-clock-derived records
    /// (latency, per-frame memory attribution) change shape.
    pub micro_batch: usize,
    /// Monitor configuration each worker instruments its frames with.
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
    /// pools size themselves around this run — sizes the bounded queue,
    /// runs `work` over the shards on that many threads (each worker builds
    /// its private state with `init` on the first shard it claims) and
    /// hands the per-shard results, in frame order, to `merge`.
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
        let queue_depth = if self.queue_depth == 0 {
            workers * 2
        } else {
            self.queue_depth
        };
        let merged = merge(run_sharded(&partition, workers, queue_depth, init, work)?);
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

/// Drives one worker's shard through its runner, frame by frame or in
/// micro-batches of `micro_batch` stacked frames per interpreter invoke.
fn run_frames(
    runner: &mut ImageRunner<'_>,
    frames: &[LabeledFrame],
    monitor: &Monitor,
    micro_batch: usize,
) -> Result<()> {
    if micro_batch > 1 {
        for chunk in frames.chunks(micro_batch) {
            runner.classify_batch(chunk, monitor)?;
        }
    } else {
        for frame in frames {
            runner.classify(frame, monitor)?;
        }
    }
    Ok(())
}

/// The contiguous frame ranges `[0, n)` is split into: every shard holds
/// `shard_frames` frames except a shorter tail. This partition is the unit
/// of work distribution *and* of per-shard validation.
pub fn shard_partition(frames: usize, shard_frames: usize) -> Vec<Range<usize>> {
    let size = shard_frames.max(1);
    (0..frames.div_ceil(size))
        .map(|i| i * size..((i + 1) * size).min(frames))
        .collect()
}

/// A small bounded SPMC work queue: one producer pushes shards (blocking
/// when the queue is full, which bounds memory no matter how large the
/// playback set is), many workers pop. Closing wakes everyone; workers close
/// the queue on every exit path (error *and* panic, via a drop guard) so the
/// producer never deadlocks on a full queue with no consumers left.
struct ShardQueue<T> {
    state: Mutex<ShardQueueState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

struct ShardQueueState<T> {
    items: VecDeque<T>,
    capacity: usize,
    closed: bool,
}

impl<T> ShardQueue<T> {
    fn new(capacity: usize) -> Self {
        ShardQueue {
            state: Mutex::new(ShardQueueState {
                items: VecDeque::new(),
                capacity: capacity.max(1),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Blocks while full; returns `false` (dropping the item) once closed.
    fn push(&self, item: T) -> bool {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if state.closed {
                return false;
            }
            if state.items.len() < state.capacity {
                state.items.push_back(item);
                self.not_empty.notify_one();
                return true;
            }
            state = self.not_full.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Blocks until an item is available; `None` once closed and drained.
    fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(item) = state.items.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .not_empty
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    fn close(&self) {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// Runs `work` over the shard partition on `workers` threads and collects
/// each shard's output, sorted by start frame. Each worker lazily builds its
/// own state (interpreter instances) via `init` on the first shard it claims,
/// so workers that never win a shard never pay for construction. A worker's
/// panic is re-raised here with its own payload.
fn run_sharded<T: Send, S>(
    partition: &[Range<usize>],
    workers: usize,
    queue_depth: usize,
    init: impl Fn() -> Result<S> + Sync,
    work: impl Fn(&mut S, Range<usize>) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    let queue: ShardQueue<Range<usize>> = ShardQueue::new(queue_depth);
    let mut chunks: Vec<(usize, T)> = std::thread::scope(|scope| {
        let queue = &queue;
        let init = &init;
        let work = &work;
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || -> Result<Vec<(usize, T)>> {
                    // Close the queue however this worker exits — Err return
                    // *or* panic inside init/work. Without this, a panicking
                    // worker leaves the producer parked forever on a full
                    // queue instead of letting the scope propagate the
                    // panic. (Closing after a normal drain is a no-op.)
                    struct CloseOnExit<'q, Q>(&'q ShardQueue<Q>);
                    impl<Q> Drop for CloseOnExit<'_, Q> {
                        fn drop(&mut self) {
                            self.0.close();
                        }
                    }
                    let _guard = CloseOnExit(queue);
                    let mut state: Option<S> = None;
                    let mut produced = Vec::new();
                    while let Some(shard) = queue.pop() {
                        let start = shard.start;
                        if state.is_none() {
                            state = Some(init()?);
                        }
                        match work(state.as_mut().expect("state built above"), shard) {
                            Ok(value) => produced.push((start, value)),
                            // The CloseOnExit guard unblocks the producer
                            // and the other workers on the way out.
                            Err(e) => return Err(e),
                        }
                    }
                    Ok(produced)
                })
            })
            .collect();
        for shard in partition {
            if !queue.push(shard.clone()) {
                break; // A worker failed and closed the queue.
            }
        }
        queue.close();
        let mut all = Vec::new();
        let mut first_err = None;
        for handle in handles {
            match handle.join() {
                Ok(Ok(produced)) => all.extend(produced),
                Ok(Err(e)) => first_err = first_err.or(Some(e)),
                // The scope joins the remaining workers (the queue is
                // closed, so they drain and exit) before this unwinds.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(all),
        }
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
/// its whole lifetime; per-shard assertion checks run against shard-local
/// frame numbering, so every shard gets first-frame assertion coverage.
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
    let micro_batch = options.micro_batch;
    let reference_pipeline = reference.pipeline();
    let ((report, shards), stats) = options.run(
        frames.len(),
        || Ok((edge.runner()?, reference_pipeline.runner()?)),
        |(edge_runner, reference_runner), shard| -> Result<ShardValidation> {
            let start = shard.start as u64;
            let shard_frames = &frames[shard];
            // Shard-local frame numbering (0..len) so assertions that
            // inspect frame 0 run against every shard, not just the first.
            let edge_monitor = Monitor::new(monitor_config);
            let reference_monitor = Monitor::new(monitor_config);
            run_frames(edge_runner, shard_frames, &edge_monitor, micro_batch)?;
            run_frames(
                reference_runner,
                shard_frames,
                &reference_monitor,
                micro_batch,
            )?;
            let edge_logs = edge_monitor.take_logs();
            let reference_logs = reference_monitor.take_logs();
            Ok(validator.validate_shard(start, &edge_logs, &reference_logs))
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

    /// A worker's panic reaches the caller with the worker's own payload,
    /// and the producer is not left parked on the full queue.
    #[test]
    fn worker_panic_resumes_with_its_payload() {
        let options = ReplayOptions {
            workers: 1,
            shard_frames: 1,
            queue_depth: 1,
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

    #[test]
    fn queue_is_bounded_and_fifo() {
        let queue = ShardQueue::new(2);
        assert!(queue.push(1));
        assert!(queue.push(2));
        assert_eq!(queue.pop(), Some(1));
        assert_eq!(queue.pop(), Some(2));
        queue.close();
        assert_eq!(queue.pop(), None);
        assert!(!queue.push(3), "push after close must be rejected");
    }

    #[test]
    fn queue_blocks_producer_at_capacity() {
        let queue = Arc::new(ShardQueue::new(1));
        assert!(queue.push(0));
        let q = queue.clone();
        let producer = std::thread::spawn(move || q.push(1));
        // The producer must be parked on the full queue until we pop.
        std::thread::sleep(Duration::from_millis(20));
        assert!(!producer.is_finished(), "bounded queue failed to block");
        assert_eq!(queue.pop(), Some(0));
        assert!(producer.join().unwrap());
        assert_eq!(queue.pop(), Some(1));
    }
}
