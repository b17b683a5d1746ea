//! Intra-invoke data parallelism: the frames of one `invoke_batch` split
//! across workers drawn from the global [`crate::budget`] ledger.
//!
//! The sharded replay engine parallelizes *across* playback frames; this
//! module parallelizes *within* one batched invoke. The frame list is cut
//! into contiguous shards ([`crate::shard_partition`] — the partition
//! depends only on the frame count and shard size, never on the worker
//! count), each worker builds its own private backend from the
//! [`mlexray_nn::BackendSpec`] (share-nothing, like every pool in this
//! codebase), invokes its shards batched, and the merge reassembles
//! outputs in frame order.
//!
//! # Determinism
//!
//! Per-frame results are independent of batching — the nn crate's
//! `batch_equivalence` property suite pins `invoke_batch == invoke`
//! bitwise per flavor, including the SIMD backend — so the merged outputs
//! are **byte-identical** for `workers = 1, 2, 4, ...` and identical to a
//! single sequential `invoke_batch` over the same frames. Captured layer
//! records are globally frame-numbered and canonically ordered (node
//! execution index, then frame), which makes the merged record stream
//! equal to the sequential observer's stream too; only wall-clock
//! latencies vary run to run. The `parallel_invoke` integration suite
//! pins both invariants.

use std::time::Duration;

use mlexray_nn::{BackendSpec, Graph, LayerObserver, LayerRecord};
use mlexray_tensor::Tensor;

use crate::replay::ReplayOptions;
use crate::{ExrayError, Result};

/// Tuning for one parallel batched invoke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelInvokeOptions {
    /// Worker threads. `0` sizes the pool elastically from the global
    /// core budget ([`crate::budget::reserve_up_to`]); an explicit count
    /// is honored verbatim (and recorded in the ledger for the run's
    /// duration, so concurrent replay/serve pools see the pressure).
    pub workers: usize,
    /// Frames per shard — one shard is one batched interpreter invoke on
    /// one worker. Fixes the shard partition independently of the worker
    /// count.
    pub shard_frames: usize,
    /// Bounded work-queue depth. `0` means `2 × workers`.
    pub queue_depth: usize,
    /// Capture per-layer records (globally frame-numbered, canonically
    /// ordered) alongside the outputs. Off by default: capturing clones
    /// every layer output of every frame.
    pub capture_layers: bool,
}

impl Default for ParallelInvokeOptions {
    fn default() -> Self {
        ParallelInvokeOptions {
            workers: 0,
            shard_frames: 8,
            queue_depth: 0,
            capture_layers: false,
        }
    }
}

impl ParallelInvokeOptions {
    /// A run with an explicit worker count and otherwise default tuning.
    pub fn with_workers(workers: usize) -> Self {
        ParallelInvokeOptions {
            workers,
            ..Default::default()
        }
    }
}

/// One captured per-layer record of a parallel invoke — the owned,
/// globally-frame-numbered form of [`mlexray_nn::LayerRecord`].
#[derive(Debug, Clone)]
pub struct InvokeLayerRecord {
    /// Global frame index within the invoked batch.
    pub frame: usize,
    /// Execution index of the node.
    pub index: usize,
    /// Node display name.
    pub name: String,
    /// Op type label (`"Conv"`, `"FC"`, ...).
    pub op: &'static str,
    /// The node's output tensor for this frame.
    pub output: Tensor,
    /// Per-frame MAC estimate for the node.
    pub macs: u64,
    /// Wall-clock share of the node's kernel latency attributed to this
    /// frame. Excluded from [`InvokeLayerRecord::content`]: latency is
    /// the one field that legitimately varies across worker counts.
    pub latency: Duration,
}

impl InvokeLayerRecord {
    /// The record's deterministic content — everything except wall-clock
    /// latency. Two runs of the same frames agree on this projection
    /// byte-for-byte whatever the worker count.
    pub fn content(&self) -> (usize, usize, &str, &str, &Tensor, u64) {
        (
            self.frame,
            self.index,
            self.name.as_str(),
            self.op,
            &self.output,
            self.macs,
        )
    }
}

/// Everything one parallel batched invoke produces.
#[derive(Debug, Clone)]
pub struct ParallelInvoke {
    /// Per-frame outputs, in frame order — byte-identical to a sequential
    /// `invoke_batch` over the same frames.
    pub outputs: Vec<Vec<Tensor>>,
    /// Captured layer records (empty unless
    /// [`ParallelInvokeOptions::capture_layers`]), sorted by (node
    /// execution index, frame) — the sequential observer's order.
    pub records: Vec<InvokeLayerRecord>,
    /// Worker threads the run actually used.
    pub workers: usize,
    /// Shards in the partition.
    pub shards: usize,
    /// End-to-end wall-clock time, including the merge.
    pub elapsed: Duration,
}

impl ParallelInvoke {
    /// Invoke throughput in frames per second.
    pub fn frames_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.outputs.len() as f64 / secs
        }
    }
}

/// Observer that owns its records, rebased to global frame numbers.
struct RecordCapture {
    base: usize,
    enabled: bool,
    records: Vec<InvokeLayerRecord>,
}

impl LayerObserver for RecordCapture {
    fn on_layer(&mut self, record: &LayerRecord<'_>) {
        self.records.push(InvokeLayerRecord {
            frame: self.base + record.batch,
            index: record.index,
            name: record.name.to_string(),
            op: record.op.type_label(),
            output: record.output.clone(),
            macs: record.macs,
            latency: record.latency,
        });
    }

    fn enabled(&self) -> bool {
        self.enabled
    }
}

/// Runs one batched invoke with its frames sharded across a worker pool
/// sized by the global core budget. Each worker owns a private backend
/// built from `spec`; outputs merge in frame order. See the module docs
/// for the determinism contract.
///
/// # Errors
///
/// Propagates backend construction and interpreter errors (the first any
/// worker hits).
pub fn invoke_batch_parallel(
    graph: &Graph,
    spec: &BackendSpec,
    frames: &[Vec<Tensor>],
    options: &ParallelInvokeOptions,
) -> Result<ParallelInvoke> {
    let plan = ReplayOptions {
        workers: options.workers,
        shard_frames: options.shard_frames,
        queue_depth: options.queue_depth,
        ..ReplayOptions::default()
    };
    let capture = options.capture_layers;
    let ((outputs, records), stats) = plan.run(
        frames.len(),
        || spec.build(graph).map_err(ExrayError::from),
        |backend, shard| -> Result<(Vec<Vec<Tensor>>, Vec<InvokeLayerRecord>)> {
            let refs: Vec<&[Tensor]> = frames[shard.clone()].iter().map(Vec::as_slice).collect();
            let mut observer = RecordCapture {
                base: shard.start,
                enabled: capture,
                records: Vec::new(),
            };
            let outputs = backend.invoke_batch_observed(&refs, &mut observer)?;
            Ok((outputs, observer.records))
        },
        |shards| {
            let mut outputs = Vec::with_capacity(frames.len());
            let mut records = Vec::new();
            for (shard_outputs, shard_records) in shards {
                outputs.extend(shard_outputs);
                records.extend(shard_records);
            }
            // Canonical order = the sequential observer's order: each node
            // in execution order emits its whole batch of frames.
            records.sort_by_key(|r| (r.index, r.frame));
            (outputs, records)
        },
    )?;
    Ok(ParallelInvoke {
        outputs,
        records,
        workers: stats.workers,
        shards: stats.shards,
        elapsed: stats.elapsed,
    })
}
