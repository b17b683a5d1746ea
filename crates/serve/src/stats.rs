//! Per-model serving accounting: exact request bookkeeping plus bounded
//! latency histograms.
//!
//! Latency is accounted in a fixed-footprint [`LatencyHistogram`] — memory
//! is O(1) in the request count and recording a completion is lock-free —
//! so the books stay cheap enough to leave on in production forever.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use crate::batcher::CloseReason;
use crate::metrics::{HistogramSnapshot, LatencyHistogram};
use crate::request::RejectReason;

/// Internal live counters of one model's serving pool. Every admitted
/// request increments exactly one terminal counter (`completed`,
/// `shed_deadline` or `failed`); every refused submit increments exactly
/// one of the shed-at-admission counters — so the books balance once the
/// pool has drained.
#[derive(Debug, Default)]
pub(crate) struct ModelCounters {
    pub(crate) offered: AtomicU64,
    pub(crate) admitted: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) shed_queue_full: AtomicU64,
    pub(crate) shed_deadline: AtomicU64,
    pub(crate) shed_shutdown: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) batched_frames: AtomicU64,
    /// `batches`, split by what closed each one ([`CloseReason::index`]).
    pub(crate) batch_closes: [AtomicU64; CloseReason::ALL.len()],
    pub(crate) max_batch: AtomicUsize,
    pub(crate) sampled: AtomicU64,
    /// End-to-end (queue + execution) latency of completed requests.
    latency: LatencyHistogram,
    /// Backend execution latency per frame, when the backend reports it.
    exec_latency: LatencyHistogram,
}

impl ModelCounters {
    /// Account one completed request. Lock-free: a few atomic adds, no
    /// mutex and no allocation on the serving hot path.
    pub(crate) fn record_completion(&self, total: Duration) {
        self.completed.fetch_add(1, Ordering::AcqRel);
        self.latency.record(total.as_nanos() as u64);
    }

    /// Account one request that ends without an answer — the one map from
    /// a typed reason to the book it moves.
    pub(crate) fn count_refusal(&self, reason: &RejectReason) {
        let book = match reason {
            RejectReason::QueueFull { .. } => &self.shed_queue_full,
            RejectReason::DeadlineExpired { .. } => &self.shed_deadline,
            RejectReason::ShuttingDown => &self.shed_shutdown,
            RejectReason::ExecutionFailed { .. } => &self.failed,
            // Not a pool's to count: no pool exists, or it is gone.
            RejectReason::UnknownModel | RejectReason::ChannelClosed => return,
        };
        book.fetch_add(1, Ordering::AcqRel);
    }

    /// Account the backend-reported per-frame execution latency.
    pub(crate) fn record_exec_latency(&self, per_frame: Duration) {
        self.exec_latency.record(per_frame.as_nanos() as u64);
    }

    pub(crate) fn record_batch(&self, size: usize, close: CloseReason) {
        self.batches.fetch_add(1, Ordering::AcqRel);
        self.batch_closes[close.index()].fetch_add(1, Ordering::AcqRel);
        self.batched_frames.fetch_add(size as u64, Ordering::AcqRel);
        self.max_batch.fetch_max(size, Ordering::AcqRel);
    }

    /// A bounded copy of the end-to-end latency distribution.
    pub(crate) fn latency_snapshot(&self) -> HistogramSnapshot {
        self.latency.snapshot()
    }

    /// A bounded copy of the backend execution-latency distribution.
    pub(crate) fn exec_latency_snapshot(&self) -> HistogramSnapshot {
        self.exec_latency.snapshot()
    }

    /// A point-in-time reading of the books.
    ///
    /// Each counter is loaded independently with no global lock, so a
    /// snapshot taken while requests are in flight may observe a request
    /// in transition (e.g. admitted but not yet terminal) and
    /// [`ModelStats::is_balanced`] can transiently report `false` on a
    /// live service. Balance is guaranteed only once the pool has drained
    /// — assert it on the [`ServeReport`](crate::ServeReport) returned by
    /// shutdown, not on a live reading. Percentiles are histogram
    /// estimates, high by at most one bucket width (≤ 12.5% relative).
    pub(crate) fn snapshot(&self, model: &str, workers: usize) -> ModelStats {
        let latency = self.latency.snapshot();
        ModelStats {
            model: model.to_string(),
            workers,
            offered: self.offered.load(Ordering::Acquire),
            admitted: self.admitted.load(Ordering::Acquire),
            completed: self.completed.load(Ordering::Acquire),
            shed_queue_full: self.shed_queue_full.load(Ordering::Acquire),
            shed_deadline: self.shed_deadline.load(Ordering::Acquire),
            shed_shutdown: self.shed_shutdown.load(Ordering::Acquire),
            failed: self.failed.load(Ordering::Acquire),
            batches: self.batches.load(Ordering::Acquire),
            batched_frames: self.batched_frames.load(Ordering::Acquire),
            max_batch: self.max_batch.load(Ordering::Acquire),
            sampled: self.sampled.load(Ordering::Acquire),
            p50: Duration::from_nanos(latency.quantile(0.50)),
            p95: Duration::from_nanos(latency.quantile(0.95)),
            p99: Duration::from_nanos(latency.quantile(0.99)),
        }
    }
}

/// A point-in-time reading of one model's serving counters.
///
/// Counters are read independently (live-read semantics): on a live
/// service a reading may catch a request mid-transition, so
/// [`ModelStats::is_balanced`] is guaranteed only for readings taken
/// after the pool drained (the [`ServeReport`](crate::ServeReport) from
/// shutdown). Latency percentiles are bounded-histogram estimates, high
/// by at most one bucket width (≤ 12.5% relative error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelStats {
    /// The model name.
    pub model: String,
    /// Worker threads serving this model.
    pub workers: usize,
    /// Submit calls that reached this model (admitted + refused).
    pub offered: u64,
    /// Requests admitted to the queue.
    pub admitted: u64,
    /// Requests answered with outputs.
    pub completed: u64,
    /// Refused at admission: queue at capacity.
    pub shed_queue_full: u64,
    /// Shed at dequeue: deadline already passed.
    pub shed_deadline: u64,
    /// Refused at admission: service shutting down.
    pub shed_shutdown: u64,
    /// Answered with an execution error.
    pub failed: u64,
    /// Batched invokes executed.
    pub batches: u64,
    /// Frames carried by those invokes.
    pub batched_frames: u64,
    /// Largest coalesced batch observed.
    pub max_batch: usize,
    /// Requests that ran with deep EXray capture.
    pub sampled: u64,
    /// Median end-to-end latency of completed requests (histogram
    /// estimate).
    pub p50: Duration,
    /// 95th-percentile end-to-end latency (histogram estimate).
    pub p95: Duration,
    /// 99th-percentile end-to-end latency (histogram estimate).
    pub p99: Duration,
}

impl ModelStats {
    /// Requests shed for any reason (queue-full + deadline + shutdown +
    /// execution failure).
    pub fn shed(&self) -> u64 {
        self.shed_queue_full + self.shed_deadline + self.shed_shutdown + self.failed
    }

    /// Shed fraction of everything offered.
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed() as f64 / self.offered as f64
        }
    }

    /// Mean coalesced batch size.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_frames as f64 / self.batches as f64
        }
    }

    /// The bookkeeping invariants every drained service must satisfy:
    /// every offer is accounted exactly once, terminally. Only guaranteed
    /// for post-drain readings — a live reading may transiently observe a
    /// request between counters.
    pub fn is_balanced(&self) -> bool {
        self.offered == self.admitted + self.shed_queue_full + self.shed_shutdown
            && self.admitted == self.completed + self.shed_deadline + self.failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::LatencyHistogram as Hist;

    /// Assert a histogram percentile estimate against its exact value:
    /// never below, and high by at most the exact value's bucket width.
    fn assert_within_one_bucket(estimate: Duration, exact_ns: u64) {
        let (_, high) = Hist::bucket_bounds_of(exact_ns);
        let estimate = estimate.as_nanos() as u64;
        assert!(
            estimate >= exact_ns && estimate <= high,
            "estimate {estimate} outside [{exact_ns}, {high}]"
        );
    }

    #[test]
    fn percentiles_and_balance() {
        let counters = ModelCounters::default();
        counters.offered.store(10, Ordering::Release);
        counters.admitted.store(8, Ordering::Release);
        counters.shed_queue_full.store(2, Ordering::Release);
        for ms in [1u64, 2, 3, 4, 5, 6, 7] {
            counters.record_completion(Duration::from_millis(ms));
        }
        counters.shed_deadline.store(1, Ordering::Release);
        counters.record_batch(3, CloseReason::Window);
        counters.record_batch(5, CloseReason::Full);
        let stats = counters.snapshot("m", 2);
        assert!(stats.is_balanced(), "{stats:?}");
        // Exact sorted percentiles of [1..7]ms are 4ms (p50) and 7ms
        // (p99); the histogram estimate may exceed them by at most one
        // bucket width.
        assert_within_one_bucket(stats.p50, Duration::from_millis(4).as_nanos() as u64);
        assert_within_one_bucket(stats.p99, Duration::from_millis(7).as_nanos() as u64);
        assert_eq!(stats.shed(), 3);
        assert!((stats.shed_rate() - 0.3).abs() < 1e-9);
        assert!((stats.mean_batch() - 4.0).abs() < 1e-9);
        assert_eq!(stats.max_batch, 5);
    }

    #[test]
    fn empty_snapshot_is_zeroed_not_panicking() {
        let stats = ModelCounters::default().snapshot("m", 1);
        assert_eq!(stats.p50, Duration::ZERO);
        assert_eq!(stats.shed_rate(), 0.0);
        assert_eq!(stats.mean_batch(), 0.0);
        assert!(stats.is_balanced());
    }

    #[test]
    fn completion_accounting_is_bounded_in_memory() {
        let counters = ModelCounters::default();
        counters.record_completion(Duration::from_micros(10));
        let before = counters.latency.footprint_bytes();
        for i in 0..10_000u64 {
            counters.record_completion(Duration::from_nanos(1_000 + i * 97));
        }
        assert_eq!(
            counters.latency.footprint_bytes(),
            before,
            "latency accounting must not grow with request count"
        );
        assert_eq!(counters.completed.load(Ordering::Acquire), 10_001);
    }
}
