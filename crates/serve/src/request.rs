//! Request/response surface of the service: what a client submits, what it
//! gets back, and the typed rejection taxonomy of admission control.

use std::fmt;
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mlexray_core::TraceContext;
use mlexray_tensor::Tensor;

/// Why the service refused (or shed) a request. Every shed path produces
/// one of these — a request is *never* silently dropped: it either
/// completes or its client receives the typed reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The named model is not registered.
    UnknownModel,
    /// The model's bounded request queue was at capacity (load shedding at
    /// admission — the backpressure signal an upstream load balancer acts
    /// on).
    QueueFull {
        /// Queue depth observed at rejection time.
        depth: usize,
    },
    /// The request's deadline had already passed when a worker dequeued it
    /// (shed before spending compute on an answer nobody is waiting for).
    DeadlineExpired {
        /// How far past the deadline the dequeue happened.
        missed_by: Duration,
    },
    /// The service is shutting down and no longer admits work.
    ShuttingDown,
    /// The batched invoke itself failed (graph/input mismatch).
    ExecutionFailed {
        /// Rendered execution error.
        detail: String,
    },
    /// The response channel was closed without an answer — only reachable
    /// when the service is torn down abnormally (a worker panic).
    ChannelClosed,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::UnknownModel => write!(f, "unknown model"),
            RejectReason::QueueFull { depth } => {
                write!(f, "queue full at depth {depth}")
            }
            RejectReason::DeadlineExpired { missed_by } => {
                write!(f, "deadline expired {missed_by:?} before dequeue")
            }
            RejectReason::ShuttingDown => write!(f, "service shutting down"),
            RejectReason::ExecutionFailed { detail } => {
                write!(f, "execution failed: {detail}")
            }
            RejectReason::ChannelClosed => write!(f, "response channel closed"),
        }
    }
}

/// A typed per-request rejection: which model, which request, why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejection {
    /// The model the request targeted.
    pub model: String,
    /// The request's admission id (`0` for submit-time rejections that
    /// never received one).
    pub request_id: u64,
    /// Why the request was shed.
    pub reason: RejectReason,
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "request {} on '{}' rejected: {}",
            self.request_id, self.model, self.reason
        )
    }
}

impl std::error::Error for Rejection {}

/// A completed inference.
#[derive(Debug, Clone, PartialEq)]
pub struct InferResponse {
    /// Admission id of the request.
    pub request_id: u64,
    /// Model output tensors — bitwise-identical to a sequential
    /// `Interpreter::invoke` of the same inputs, whatever batch the request
    /// was coalesced into (the `batch_equivalence` property suite pins this
    /// for the underlying engine).
    pub outputs: Vec<Tensor>,
    /// End-to-end latency: admission → response (queueing + coalescing
    /// window + execution).
    pub total_latency: Duration,
    /// This request's share of the batched invoke's execution time
    /// (`invoke latency / batch size`).
    pub exec_latency: Duration,
    /// How many coalesced requests shared the batched invoke.
    pub batch_size: usize,
    /// Whether deep EXray capture (per-layer logging + validator sampling)
    /// ran for this request.
    pub sampled: bool,
}

/// What a client ultimately receives for one submitted request.
pub type ServeResult = Result<InferResponse, Rejection>;

/// One admitted request as it travels through the queue to a worker.
/// Inputs are shared, not owned: the zero-copy sealed-tensor path
/// re-submits one long-lived `Arc` any number of times, and the one-shot
/// path wraps its owned inputs in a fresh `Arc` at submit.
pub(crate) struct InferRequest {
    pub(crate) id: u64,
    pub(crate) inputs: Arc<Vec<Tensor>>,
    pub(crate) deadline: Option<Instant>,
    pub(crate) admitted_at: Instant,
    pub(crate) sampled: bool,
    /// Wire-propagated or admission-minted trace identity; `None` when the
    /// service runs with tracing off.
    pub(crate) trace: Option<TraceContext>,
    /// Submitted by an attached closed-loop caller, so counted on the
    /// model's caller ledger until answered (see [`crate::batcher`]).
    pub(crate) from_caller: bool,
    pub(crate) reply: SyncSender<ServeResult>,
}

/// The client's handle to an in-flight request.
#[derive(Debug)]
pub struct PendingResponse {
    pub(crate) model: String,
    pub(crate) request_id: u64,
    pub(crate) rx: Receiver<ServeResult>,
}

impl PendingResponse {
    /// Admission id of the request.
    pub fn id(&self) -> u64 {
        self.request_id
    }

    /// The model the request targeted.
    pub fn model(&self) -> &str {
        &self.model
    }

    /// Blocks until the service answers. Returns
    /// [`RejectReason::ChannelClosed`] only if the service died without
    /// responding (a worker panic) — in normal operation, including
    /// shutdown, every admitted request is answered.
    pub fn wait(self) -> ServeResult {
        match self.rx.recv() {
            Ok(result) => result,
            Err(_) => Err(Rejection {
                model: self.model,
                request_id: self.request_id,
                reason: RejectReason::ChannelClosed,
            }),
        }
    }

    /// Non-blocking poll: `None` while the request is still in flight.
    pub fn try_wait(&self) -> Option<ServeResult> {
        match self.rx.try_recv() {
            Ok(result) => Some(result),
            Err(std::sync::mpsc::TryRecvError::Empty) => None,
            Err(std::sync::mpsc::TryRecvError::Disconnected) => Some(Err(Rejection {
                model: self.model.clone(),
                request_id: self.request_id,
                reason: RejectReason::ChannelClosed,
            })),
        }
    }
}
