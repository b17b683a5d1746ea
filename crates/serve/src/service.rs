//! The inference service: per-model worker pools over dynamic
//! micro-batching queues, with admission control and always-on EXray
//! monitoring.
//!
//! # Data path
//!
//! ```text
//! submit() ──try_push──▶ bounded queue ──pop──▶ worker: shed what expired in
//!    │                                            the queue, coalesce until
//!    │ typed Rejection                            full | every caller in |
//!    ▼ (QueueFull / ShuttingDown)                 window, invoke_batch, reply
//! ```
//!
//! Batch formation — the leader/follower loop, its close-or-wait rule and
//! the per-model caller ledger that lets a leader stop waiting for
//! followers that cannot come — lives in [`crate::batcher`]. This module
//! keeps the ledger's two ordering rules: a request from an attached
//! caller is counted into the system *before* it is pushed
//! (`submit_from`), and a batch is counted out *before* its first reply
//! is sent (`run_batch`, `shed_expired`); the batcher's module docs say
//! what breaks otherwise.
//!
//! Each worker owns a private backend built from the model's
//! [`BackendSpec`] — the same share-nothing discipline as the sharded
//! replay engine, and the two compose: the service's worker pools are
//! capped by [`ServiceConfig::core_budget`], defaulting to the machine
//! parallelism the replay engine also sizes against.
//!
//! # Shared inputs
//!
//! Requests travel as [`std::sync::Arc`]`<Vec<Tensor>>`: a caller that
//! holds a long-lived input (the RPC layer's sealed-tensor arenas) submits
//! the same allocation any number of times via
//! [`InferenceService::submit_shared`] without copying tensor data — the
//! worker lends the arena-held tensors to `invoke_batch` by reference.
//! [`InferenceService::submit`] wraps owned inputs in a fresh `Arc`, so the
//! one-shot path pays a pointer, not a copy.
//!
//! # Monitoring
//!
//! Every `sample_every`-th admitted request runs with deep EXray capture:
//! its per-layer outputs stream into the configured [`LogSink`] (an
//! [`mlexray_core::ChannelSink`] moves that off the worker threads), and
//! its inputs feed the model's rolling [`OnlineValidator`] reservoir.
//! [`InferenceService::drift_check`] replays that reservoir against the
//! reference backend via the §4.4 differential debugger — drift alarms
//! with a localized first divergent layer, raised without stopping the
//! service.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use mlexray_core::{
    available_cores, layer_output_key, reserve_cores, span_id_for, trace_id_for, CoreLease,
    DriftAlarm, LogRecord, LogSink, LogValue, OnlineValidator, OnlineValidatorConfig,
    OnlineValidatorStats, Span, SpanRing, SpanStage, TraceContext, TraceHub, KEY_INFERENCE_LATENCY,
};
use mlexray_nn::{BackendSpec, ExecutionBackend, LayerObserver, LayerRecord};
use mlexray_tensor::Tensor;

use crate::batcher::{form_batch, AttachedCaller, BatchPolicy, CallerLedger, CloseReason};
use crate::queue::{PushRefusal, RequestQueue};
use crate::registry::{ModelRegistry, ServedModel};
use crate::request::{InferRequest, InferResponse, PendingResponse, RejectReason, Rejection};
use crate::stats::{ModelCounters, ModelStats};
use crate::{Result, ServeError};

/// The always-on monitoring policy of a service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorPolicy {
    /// Deep-capture sampling period: every `sample_every`-th admitted
    /// request per model streams per-layer telemetry and feeds the online
    /// validator. `0` disables deep capture.
    pub sample_every: u64,
    /// Log per-request end-to-end latency to the sink for *every* completed
    /// request (the lightweight §4.2 always-on telemetry).
    pub log_latency: bool,
    /// Capture full tensors (not stats) for sampled per-layer records.
    pub full_capture: bool,
    /// Rolling-reservoir configuration for the per-model
    /// [`OnlineValidator`]; `None` disables online drift checks.
    pub validator: Option<OnlineValidatorConfig>,
}

impl Default for MonitorPolicy {
    fn default() -> Self {
        MonitorPolicy {
            sample_every: 0,
            log_latency: true,
            full_capture: false,
            validator: None,
        }
    }
}

impl MonitorPolicy {
    /// Monitoring disabled entirely.
    pub fn off() -> Self {
        MonitorPolicy {
            sample_every: 0,
            log_latency: false,
            full_capture: false,
            validator: None,
        }
    }

    /// Deep capture every `n`-th request with a default online validator.
    pub fn sampled(n: u64) -> Self {
        MonitorPolicy {
            sample_every: n,
            log_latency: true,
            full_capture: false,
            validator: Some(OnlineValidatorConfig::default()),
        }
    }
}

/// The end-to-end tracing policy: deterministic every-Nth sampling per
/// model, plus the always-sample rule — sheds, deadline misses and drift
/// alarms are force-traced regardless of the clock so anomalies are never
/// unobserved (see `docs/tracing.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracePolicy {
    /// Trace every `every`-th admitted request per model. `0` disables the
    /// span pipeline entirely (no hub, no rings, no per-request cost).
    pub every: u64,
    /// Capacity (spans) of each per-thread ring buffer.
    pub ring_capacity: usize,
    /// How many completed traces the hub retains for the `Trace` verb.
    pub completed_capacity: usize,
}

impl Default for TracePolicy {
    fn default() -> Self {
        Self::off()
    }
}

impl TracePolicy {
    /// Tracing disabled: no hub is created and requests carry no context.
    pub fn off() -> Self {
        TracePolicy {
            every: 0,
            ring_capacity: mlexray_core::trace::DEFAULT_RING_CAPACITY,
            completed_capacity: mlexray_core::trace::DEFAULT_COMPLETED_CAPACITY,
        }
    }

    /// Trace every `n`-th request per model with default ring sizing.
    pub fn sampled(n: u64) -> Self {
        TracePolicy {
            every: n,
            ..Self::off()
        }
    }
}

/// Service-wide tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Bounded request-queue capacity per model — the admission-control
    /// backstop: a submit finding the queue at this depth is refused with
    /// [`RejectReason::QueueFull`].
    pub queue_capacity: usize,
    /// Worker threads requested per model (each owns a private backend).
    pub workers_per_model: usize,
    /// Global cap on worker threads across all models, so serving pools
    /// compose with the replay engine's sharding instead of oversubscribing
    /// cores. `0` means the unreserved headroom of the process-global
    /// [`mlexray_core::budget`] ledger (machine parallelism minus whatever
    /// replay runs and parallel invokes currently hold). Every model still
    /// gets at least one worker, and each spawned pool registers its
    /// workers on the same ledger for its lifetime. Explicit values are
    /// honored verbatim.
    pub core_budget: usize,
    /// Dynamic-batching policy.
    pub batch: BatchPolicy,
    /// Deadline applied to requests submitted without an explicit one.
    pub default_deadline: Option<Duration>,
    /// Start with worker pools paused (admission continues; nothing is
    /// dequeued until [`InferenceService::resume`]) — maintenance windows
    /// and deterministic load tests.
    pub start_paused: bool,
    /// Monitoring policy.
    pub monitor: MonitorPolicy,
    /// End-to-end tracing policy.
    pub trace: TracePolicy,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 64,
            workers_per_model: 1,
            core_budget: 0,
            batch: BatchPolicy::default(),
            default_deadline: None,
            start_paused: false,
            monitor: MonitorPolicy::default(),
            trace: TracePolicy::off(),
        }
    }
}

/// Final accounting of a drained service ([`InferenceService::shutdown`]).
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Per-model counters, sorted by model name. For every model,
    /// [`ModelStats::is_balanced`] holds: each offered request was
    /// completed or shed with a typed reason — never silently dropped.
    pub models: Vec<ModelStats>,
    /// Per-model online-validator counters (models with validation on).
    pub validators: Vec<(String, OnlineValidatorStats)>,
    /// Bytes the telemetry sink persisted, when one was configured.
    pub sink_bytes: Option<u64>,
}

struct ModelServer {
    entry: Arc<ServedModel>,
    queue: Arc<RequestQueue<InferRequest>>,
    counters: Arc<ModelCounters>,
    /// The model's closed-loop callers (see [`crate::batcher`]).
    ledger: Arc<CallerLedger>,
    validator: Option<Arc<OnlineValidator>>,
    workers: Vec<JoinHandle<()>>,
    worker_count: usize,
    next_id: AtomicU64,
    sample_clock: AtomicU64,
    /// Deterministic trace-sampling clock (same optimistic-tick-with-
    /// rollback discipline as `sample_clock`).
    trace_clock: AtomicU64,
    /// The model's interned span tag ([`TraceHub::intern_model`]).
    model_tag: u16,
    /// The pool's claim on the global core ledger, released when the pool
    /// drains (so replay/parallel-invoke runs see serving pressure).
    lease: Option<CoreLease>,
}

/// The in-process inference service: spawn it over a [`ModelRegistry`],
/// submit requests from any thread, shut it down for the final accounting.
/// See the module docs for the data path.
///
/// Models can also be added *after* start via
/// [`InferenceService::add_model`] — the door the RPC `Load` verb walks
/// through — each new model receiving its own worker pool under the same
/// global core budget.
pub struct InferenceService {
    servers: RwLock<BTreeMap<String, ModelServer>>,
    accepting: Arc<AtomicBool>,
    sink: Option<Arc<dyn LogSink>>,
    config: ServiceConfig,
    /// The span pipeline, present when [`TracePolicy::every`] > 0.
    trace_hub: Option<Arc<TraceHub>>,
    /// Worker-thread budget still unspent (feeds [`Self::add_model`]).
    budget_left: AtomicUsize,
}

impl std::fmt::Debug for InferenceService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InferenceService")
            .field("models", &self.servers.read().keys().collect::<Vec<_>>())
            .field("accepting", &self.accepting.load(Ordering::Acquire))
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl InferenceService {
    /// Spawns worker pools for every model currently in `registry`.
    /// `sink` receives the always-on telemetry stream (wrap a
    /// [`mlexray_core::ChannelSink`] around it to move persistence off the
    /// worker threads).
    ///
    /// # Errors
    ///
    /// Propagates trial backend builds; rejects an empty registry.
    pub fn start(
        registry: &ModelRegistry,
        config: ServiceConfig,
        sink: Option<Arc<dyn LogSink>>,
    ) -> Result<Self> {
        let entries = registry.snapshot();
        if entries.is_empty() {
            return Err(ServeError::Config(
                "cannot serve an empty model registry".into(),
            ));
        }
        let budget = if config.core_budget == 0 {
            // Size against the global core ledger, not the raw machine: a
            // concurrent sharded replay (or parallel invoke) holding cores
            // shrinks the serving budget instead of being oversubscribed.
            available_cores()
        } else {
            config.core_budget
        };
        let trace_hub = (config.trace.every > 0).then(|| {
            Arc::new(TraceHub::new(
                config.trace.ring_capacity,
                config.trace.completed_capacity,
            ))
        });
        let service = InferenceService {
            servers: RwLock::new(BTreeMap::new()),
            accepting: Arc::new(AtomicBool::new(true)),
            sink,
            config,
            trace_hub,
            budget_left: AtomicUsize::new(budget),
        };
        for entry in entries {
            let server = service.spawn_server(entry)?;
            let name = server.entry.name().to_string();
            service.servers.write().insert(name, server);
        }
        Ok(service)
    }

    /// Builds one model's worker pool, drawing threads from the remaining
    /// core budget (every model still gets at least one worker).
    fn spawn_server(&self, entry: Arc<ServedModel>) -> Result<ModelServer> {
        // Validate the spec builds before any worker relies on it.
        entry.spec().build(entry.graph())?;
        let remaining = self.budget_left.load(Ordering::Acquire);
        let workers = self.config.workers_per_model.min(remaining.max(1)).max(1);
        self.budget_left
            .store(remaining.saturating_sub(workers), Ordering::Release);
        // Register the pool on the global ledger for its lifetime.
        let lease = reserve_cores(workers);
        let queue = Arc::new(RequestQueue::new(
            self.config.queue_capacity,
            self.config.start_paused,
        ));
        let counters = Arc::new(ModelCounters::default());
        let ledger = Arc::new(CallerLedger::default());
        let validator = self
            .config
            .monitor
            .validator
            .filter(|_| self.config.monitor.sample_every > 0)
            .map(|cfg| Arc::new(OnlineValidator::new(cfg)));
        let model_tag = self
            .trace_hub
            .as_ref()
            .map(|hub| hub.intern_model(entry.name()))
            .unwrap_or(0);
        let flavor = flavor_tag(&entry.spec());
        let handles = (0..workers)
            .map(|i| {
                let ctx = WorkerCtx {
                    entry: entry.clone(),
                    queue: queue.clone(),
                    counters: counters.clone(),
                    ledger: ledger.clone(),
                    validator: validator.clone(),
                    sink: self.sink.clone(),
                    batch: self.config.batch,
                    monitor: self.config.monitor,
                    hub: self.trace_hub.clone(),
                    model_tag,
                    flavor,
                };
                std::thread::Builder::new()
                    .name(format!("mlexray-serve-{}-{i}", entry.name()))
                    .spawn(move || worker_loop(ctx))
                    .expect("spawn serving worker")
            })
            .collect();
        Ok(ModelServer {
            entry,
            queue,
            counters,
            ledger,
            validator,
            workers: handles,
            worker_count: workers,
            next_id: AtomicU64::new(0),
            sample_clock: AtomicU64::new(0),
            trace_clock: AtomicU64::new(0),
            model_tag,
            lease: Some(lease),
        })
    }

    /// Adds a model to a *running* service, spawning a fresh worker pool
    /// for it under the remaining core budget. Returns `false` (and leaves
    /// the running pool untouched) when a model of the same name is already
    /// served — re-loading an already-served name is idempotent, not an
    /// error, so concurrent RPC sessions can both `Load` the same family.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] once shutdown has begun; otherwise propagates
    /// the trial backend build.
    pub fn add_model(&self, entry: Arc<ServedModel>) -> Result<bool> {
        if !self.accepting.load(Ordering::Acquire) {
            return Err(ServeError::Config(
                "cannot add a model to a draining service".into(),
            ));
        }
        if self.servers.read().contains_key(entry.name()) {
            return Ok(false);
        }
        let name = entry.name().to_string();
        let server = self.spawn_server(entry)?;
        let displaced = {
            let mut servers = self.servers.write();
            match servers.entry(name) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(server);
                    None
                }
                // Lost a registration race: keep the incumbent, retire the
                // pool we just spawned.
                std::collections::btree_map::Entry::Occupied(_) => Some(server),
            }
        };
        if let Some(mut loser) = displaced {
            loser.queue.close();
            for handle in loser.workers.drain(..) {
                let _ = handle.join();
            }
            return Ok(false);
        }
        Ok(true)
    }

    /// The service's configuration.
    pub fn config(&self) -> ServiceConfig {
        self.config
    }

    /// Names of the served models, sorted.
    pub fn models(&self) -> Vec<String> {
        self.servers.read().keys().cloned().collect()
    }

    /// Whether the service still admits new requests (false once drain has
    /// begun) — the readiness signal the RPC `Status` verb reports.
    pub fn is_accepting(&self) -> bool {
        self.accepting.load(Ordering::Acquire)
    }

    /// Submits a request under the default deadline policy.
    ///
    /// # Errors
    ///
    /// A typed [`Rejection`] when admission control refuses the request
    /// (unknown model, queue full, shutting down).
    pub fn submit(
        &self,
        model: &str,
        inputs: Vec<Tensor>,
    ) -> std::result::Result<PendingResponse, Rejection> {
        self.submit_shared(model, Arc::new(inputs), self.config.default_deadline)
    }

    /// Submits a request with an explicit deadline (`None` = no deadline,
    /// overriding any configured default). The deadline is enforced at
    /// dequeue: a request whose deadline passed while queued is shed with
    /// [`RejectReason::DeadlineExpired`] instead of burning compute.
    ///
    /// # Errors
    ///
    /// A typed [`Rejection`] when admission control refuses the request.
    pub fn submit_with_deadline(
        &self,
        model: &str,
        inputs: Vec<Tensor>,
        deadline: Option<Duration>,
    ) -> std::result::Result<PendingResponse, Rejection> {
        self.submit_shared(model, Arc::new(inputs), deadline)
    }

    /// Submits a request whose inputs the caller keeps alive elsewhere —
    /// the zero-copy path: the `Arc` is cloned, the tensor data is not.
    /// The RPC layer's sealed-tensor arenas re-submit one upload this way
    /// any number of times; workers lend the shared tensors to
    /// `invoke_batch` by reference.
    ///
    /// # Errors
    ///
    /// A typed [`Rejection`] when admission control refuses the request.
    pub fn submit_shared(
        &self,
        model: &str,
        inputs: Arc<Vec<Tensor>>,
        deadline: Option<Duration>,
    ) -> std::result::Result<PendingResponse, Rejection> {
        self.submit_shared_traced(model, inputs, deadline, None)
    }

    /// [`InferenceService::submit_shared`] with a caller-provided
    /// [`TraceContext`] — the RPC layer passes the wire-propagated context
    /// of a v3 `Infer` frame here so a client-sampled request keeps its
    /// trace identity across the network hop. `None` falls back to the
    /// service's own deterministic every-Nth sampling clock. Ignored
    /// entirely when the service runs with [`TracePolicy::off`].
    ///
    /// # Errors
    ///
    /// A typed [`Rejection`] when admission control refuses the request.
    /// Refusals are *force-traced*: a shed request always produces a
    /// completed trace with a [`SpanStage::Shed`] span, whatever the
    /// sampling clock said, so anomalies are never unobserved.
    pub fn submit_shared_traced(
        &self,
        model: &str,
        inputs: Arc<Vec<Tensor>>,
        deadline: Option<Duration>,
        wire: Option<TraceContext>,
    ) -> std::result::Result<PendingResponse, Rejection> {
        self.submit_from(None, model, inputs, deadline, wire)
    }

    /// Declares a closed-loop caller of `model` — one that submits through
    /// [`Self::submit_from`], one request at a time, waiting for each
    /// answer — until the guard drops. `None` for a model not served.
    pub(crate) fn attach_caller(&self, model: &str) -> Option<AttachedCaller> {
        self.servers.read().get(model).map(|s| s.ledger.attach())
    }

    /// [`Self::submit_shared_traced`], optionally on behalf of an attached
    /// caller: its request is counted on the model's caller ledger from
    /// before it is queued until just before it is answered, which lets a
    /// batch leader stop waiting for followers once every attached caller
    /// is accounted for. `caller` must come from [`Self::attach_caller`] on
    /// the same `model`.
    pub(crate) fn submit_from(
        &self,
        caller: Option<&AttachedCaller>,
        model: &str,
        inputs: Arc<Vec<Tensor>>,
        deadline: Option<Duration>,
        wire: Option<TraceContext>,
    ) -> std::result::Result<PendingResponse, Rejection> {
        let entered_at = Instant::now();
        let servers = self.servers.read();
        let Some(server) = servers.get(model) else {
            return Err(Rejection {
                model: model.to_string(),
                request_id: 0,
                reason: RejectReason::UnknownModel,
            });
        };
        let offered_tick = server.counters.offered.fetch_add(1, Ordering::AcqRel);
        if !self.accepting.load(Ordering::Acquire) {
            server.counters.shed_shutdown.fetch_add(1, Ordering::AcqRel);
            if let Some(hub) = &self.trace_hub {
                // No admission id exists yet: mint the forced shed trace
                // from the offered tick in a disjoint id namespace.
                let trace = wire.unwrap_or_else(|| {
                    TraceContext::sampled(trace_id_for(model, offered_tick) | (1 << 63))
                });
                hub.note_forced();
                emit_shed_trace(
                    hub,
                    &trace,
                    server.model_tag,
                    entered_at,
                    SHED_CODE_SHUTDOWN,
                    0,
                );
            }
            return Err(Rejection {
                model: model.to_string(),
                request_id: 0,
                reason: RejectReason::ShuttingDown,
            });
        }
        let id = server.next_id.fetch_add(1, Ordering::AcqRel);
        let sample_every = self.config.monitor.sample_every;
        // Sampling ticks over *admitted* requests, not submit attempts —
        // the tick is taken optimistically and rolled back on refusal, so
        // sustained queue-full bursts cannot starve the monitoring stream
        // (ids themselves are identity and may skip).
        let sample_tick =
            (sample_every > 0).then(|| server.sample_clock.fetch_add(1, Ordering::AcqRel));
        let sampled = sample_tick.is_some_and(|tick| tick % sample_every == 0);
        // Trace sampling: a wire context wins (the caller already decided);
        // otherwise the per-model deterministic clock ticks, with the same
        // optimistic-tick-with-rollback discipline as `sample_clock`.
        let trace_every = self.config.trace.every;
        let mut trace_tick = None;
        let trace = self.trace_hub.as_ref().map(|_| {
            wire.unwrap_or_else(|| {
                let tick = server.trace_clock.fetch_add(1, Ordering::AcqRel);
                trace_tick = Some(tick);
                TraceContext {
                    trace_id: trace_id_for(model, id),
                    parent_span_id: 0,
                    sampled: tick % trace_every == 0,
                }
            })
        });
        let (reply, rx) = sync_channel(1);
        let request = InferRequest {
            id,
            inputs,
            deadline: deadline.map(|d| Instant::now() + d),
            admitted_at: entered_at,
            sampled,
            trace,
            from_caller: caller.is_some(),
            reply,
        };
        // Ordering rule 1 of `crate::batcher`: counted in before the push.
        if let Some(caller) = caller {
            debug_assert!(caller.is_on(&server.ledger), "attached to another model");
            server.ledger.enter();
        }
        let refusal = match server.queue.try_push(request) {
            Ok(_) => {
                server.counters.admitted.fetch_add(1, Ordering::AcqRel);
                if let (Some(hub), Some(t)) = (&self.trace_hub, trace) {
                    if t.sampled {
                        hub.note_sampled();
                        let start_ns = hub.ns_of(entered_at);
                        hub.shared_ring().push(&Span {
                            trace_id: t.trace_id,
                            span_id: span_id_for(t.trace_id, SpanStage::Admission, 0),
                            parent_span_id: span_id_for(t.trace_id, SpanStage::Request, 0),
                            stage: SpanStage::Admission,
                            flavor: 0,
                            model: server.model_tag,
                            start_ns,
                            dur_ns: hub.now_ns().saturating_sub(start_ns),
                            arg_a: 0,
                            arg_b: 0,
                        });
                    }
                }
                return Ok(PendingResponse {
                    model: model.to_string(),
                    request_id: id,
                    rx,
                });
            }
            Err(refusal) => refusal,
        };
        if caller.is_some() {
            server.ledger.leave(1);
        }
        if sample_tick.is_some() {
            server.sample_clock.fetch_sub(1, Ordering::AcqRel);
        }
        if trace_tick.is_some() {
            server.trace_clock.fetch_sub(1, Ordering::AcqRel);
        }
        let (reason, shed_code, shed_detail) = match refusal {
            PushRefusal::Full(_, depth) => {
                server
                    .counters
                    .shed_queue_full
                    .fetch_add(1, Ordering::AcqRel);
                (
                    RejectReason::QueueFull { depth },
                    SHED_CODE_QUEUE_FULL,
                    depth as u64,
                )
            }
            PushRefusal::Closed(_) => {
                server.counters.shed_shutdown.fetch_add(1, Ordering::AcqRel);
                (RejectReason::ShuttingDown, SHED_CODE_SHUTDOWN, 0)
            }
        };
        if let (Some(hub), Some(t)) = (&self.trace_hub, trace) {
            // Always-sample-on-shed: the trace is forced whatever the
            // sampling clock decided.
            hub.note_forced();
            emit_shed_trace(
                hub,
                &t,
                server.model_tag,
                entered_at,
                shed_code,
                shed_detail,
            );
        }
        Err(Rejection {
            model: model.to_string(),
            request_id: id,
            reason,
        })
    }

    /// The span pipeline's hub, when the service runs with tracing on
    /// ([`TracePolicy::every`] > 0).
    pub fn trace_hub(&self) -> Option<&Arc<TraceHub>> {
        self.trace_hub.as_ref()
    }

    /// A snapshot of a model's end-to-end latency histogram — the exact
    /// books the attribution profiler's per-request root spans must
    /// reconcile against.
    pub fn latency_histogram(&self, model: &str) -> Option<crate::metrics::HistogramSnapshot> {
        self.servers
            .read()
            .get(model)
            .map(|s| s.counters.latency_snapshot())
    }

    /// Current queue depth of a model.
    pub fn queue_depth(&self, model: &str) -> Option<usize> {
        self.servers.read().get(model).map(|s| s.queue.len())
    }

    /// A live reading of a model's counters. Counters are loaded
    /// independently with no lock, so a reading taken while requests are
    /// in flight can catch one mid-transition —
    /// [`ModelStats::is_balanced`] is only guaranteed for the post-drain
    /// report from [`InferenceService::shutdown`].
    pub fn stats(&self, model: &str) -> Option<ModelStats> {
        self.servers
            .read()
            .get(model)
            .map(|s| s.counters.snapshot(model, s.worker_count))
    }

    /// Holds every worker pool (admission continues; queues fill).
    pub fn pause(&self) {
        for server in self.servers.read().values() {
            server.queue.pause();
        }
    }

    /// Releases paused worker pools.
    pub fn resume(&self) {
        for server in self.servers.read().values() {
            server.queue.resume();
        }
    }

    /// Runs an online drift check for `model`: replays its validator
    /// reservoir (sampled live traffic) through the model's serving backend
    /// and the trusted reference backend via the differential debugger.
    /// `Ok(None)` while the reservoir is below its minimum occupancy or
    /// validation is disabled. Never touches the worker interpreters — the
    /// service keeps serving while the check runs.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] for unknown names; otherwise propagates
    /// differential-run errors.
    pub fn drift_check(&self, model: &str) -> Result<Option<DriftAlarm>> {
        let servers = self.servers.read();
        let server = servers
            .get(model)
            .ok_or_else(|| ServeError::UnknownModel(model.to_string()))?;
        let Some(validator) = &server.validator else {
            return Ok(None);
        };
        let check_start = Instant::now();
        let alarm = validator.check(
            server.entry.graph(),
            BackendSpec::reference(),
            server.entry.spec(),
        )?;
        if let (Some(hub), Some(_)) = (&self.trace_hub, &alarm) {
            // Always-sample-on-drift-alarm: a raised alarm produces a
            // forced trace carrying the offload's cost, so the anomaly is
            // visible in the span stream, not only in the drift books.
            hub.note_forced();
            let checks = server.counters.offered.load(Ordering::Acquire);
            let trace_id = trace_id_for(model, checks) | (1 << 62);
            let root = span_id_for(trace_id, SpanStage::Request, 0);
            let start_ns = hub.ns_of(check_start);
            let end_ns = hub.now_ns();
            hub.shared_ring().push(&Span {
                trace_id,
                span_id: span_id_for(trace_id, SpanStage::DriftCheck, 0),
                parent_span_id: root,
                stage: SpanStage::DriftCheck,
                flavor: 0,
                model: server.model_tag,
                start_ns,
                dur_ns: end_ns.saturating_sub(start_ns),
                arg_a: 1,
                arg_b: 0,
            });
            hub.shared_ring().push(&Span {
                trace_id,
                span_id: root,
                parent_span_id: 0,
                stage: SpanStage::Request,
                flavor: 0,
                model: server.model_tag,
                start_ns,
                dur_ns: end_ns.saturating_sub(start_ns),
                arg_a: 0,
                arg_b: 0,
            });
        }
        Ok(alarm)
    }

    /// The online validator's counters for `model`, when validation is on.
    pub fn validator_stats(&self, model: &str) -> Option<OnlineValidatorStats> {
        self.servers
            .read()
            .get(model)?
            .validator
            .as_ref()
            .map(|v| v.stats())
    }

    /// Stops admission, drains every queue, joins every worker and returns
    /// the final accounting. Deterministic: every request admitted before
    /// the call completes (or sheds on its deadline) before this returns,
    /// and the report's books balance per model.
    pub fn shutdown(self) -> ServeReport {
        self.drain()
    }

    /// Like [`InferenceService::shutdown`], but callable through a shared
    /// reference: the RPC front door drains the service while its
    /// connection handlers still hold it, answering their in-flight
    /// requests before the sockets close. Idempotent — a second call finds
    /// closed queues and no workers left to join, and just re-snapshots the
    /// books.
    pub fn drain(&self) -> ServeReport {
        self.accepting.store(false, Ordering::Release);
        {
            let servers = self.servers.read();
            for server in servers.values() {
                // close() overrides pause, so a paused service still
                // drains.
                server.queue.close();
            }
        }
        // Take the worker handles under the write lock, but join them
        // outside it: a worker answering its last requests must not be able
        // to dead-lock against a reader of the map.
        let handles: Vec<JoinHandle<()>> = {
            let mut servers = self.servers.write();
            // Return each pool's cores to the global ledger as it drains.
            for server in servers.values_mut() {
                server.lease.take();
            }
            servers
                .values_mut()
                .flat_map(|s| s.workers.drain(..))
                .collect()
        };
        for handle in handles {
            let _ = handle.join();
        }
        if let Some(sink) = &self.sink {
            let _ = sink.flush();
        }
        if let Some(hub) = &self.trace_hub {
            // Final collector pass: every span the drained workers emitted
            // is folded into completed traces before the books are read.
            hub.collect();
        }
        let servers = self.servers.read();
        ServeReport {
            models: servers
                .iter()
                .map(|(name, s)| s.counters.snapshot(name, s.worker_count))
                .collect(),
            validators: servers
                .iter()
                .filter_map(|(name, s)| s.validator.as_ref().map(|v| (name.clone(), v.stats())))
                .collect(),
            sink_bytes: self.sink.as_ref().map(|s| s.bytes_written()),
        }
    }
}

/// The serve-side metrics source: a scrape walks the live model map and
/// emits each model's books, queue/worker gauges and bounded latency
/// histograms under stable `mlexray_serve_*` names (see
/// `docs/metrics.md`). Counter readings follow the live-read semantics of
/// [`InferenceService::stats`]; they match the drained books exactly once
/// the service has quiesced.
impl crate::metrics::Collect for InferenceService {
    fn collect(&self, out: &mut crate::metrics::MetricsBuilder) {
        let servers = self.servers.read();
        for (name, server) in servers.iter() {
            let counters = &server.counters;
            let model = &[("model", name.as_str())];
            out.counter(
                "mlexray_serve_requests_offered_total",
                "Submit calls that reached the model (admitted + refused).",
                model,
                counters.offered.load(Ordering::Acquire),
            );
            out.counter(
                "mlexray_serve_requests_admitted_total",
                "Requests admitted to the model's queue.",
                model,
                counters.admitted.load(Ordering::Acquire),
            );
            out.counter(
                "mlexray_serve_requests_completed_total",
                "Requests answered with outputs.",
                model,
                counters.completed.load(Ordering::Acquire),
            );
            out.counter(
                "mlexray_serve_requests_failed_total",
                "Requests answered with an execution error.",
                model,
                counters.failed.load(Ordering::Acquire),
            );
            for (reason, value) in [
                (
                    "queue_full",
                    counters.shed_queue_full.load(Ordering::Acquire),
                ),
                ("deadline", counters.shed_deadline.load(Ordering::Acquire)),
                ("shutdown", counters.shed_shutdown.load(Ordering::Acquire)),
            ] {
                out.counter(
                    "mlexray_serve_requests_shed_total",
                    "Requests shed, by typed reason.",
                    &[("model", name.as_str()), ("reason", reason)],
                    value,
                );
            }
            out.counter(
                "mlexray_serve_batches_total",
                "Coalesced batch invokes executed.",
                model,
                counters.batches.load(Ordering::Acquire),
            );
            for reason in CloseReason::ALL {
                out.counter(
                    "mlexray_serve_batch_closes_total",
                    "Coalesced batch invokes executed, by what closed the batch.",
                    &[("model", name.as_str()), ("reason", reason.label())],
                    counters.batch_closes[reason.index()].load(Ordering::Acquire),
                );
            }
            out.counter(
                "mlexray_serve_batched_frames_total",
                "Frames carried by coalesced batches.",
                model,
                counters.batched_frames.load(Ordering::Acquire),
            );
            out.counter(
                "mlexray_serve_sampled_total",
                "Requests that ran with deep EXray capture.",
                model,
                counters.sampled.load(Ordering::Acquire),
            );
            out.gauge(
                "mlexray_serve_max_batch_frames",
                "Largest coalesced batch observed.",
                model,
                counters.max_batch.load(Ordering::Acquire) as f64,
            );
            out.gauge(
                "mlexray_serve_queue_depth",
                "Requests currently queued for the model.",
                model,
                server.queue.len() as f64,
            );
            for (state, value) in [
                ("attached", server.ledger.attached()),
                ("in_system", server.ledger.in_system()),
            ] {
                out.gauge(
                    "mlexray_serve_callers",
                    "Closed-loop callers of the model: attached, and with a request in the system.",
                    &[("model", name.as_str()), ("state", state)],
                    value as f64,
                );
            }
            out.gauge(
                "mlexray_serve_workers",
                "Worker threads serving the model.",
                model,
                server.worker_count as f64,
            );
            out.histogram(
                "mlexray_serve_request_latency_seconds",
                "End-to-end latency (queue + execution) of completed requests.",
                model,
                counters.latency_snapshot(),
            );
            out.histogram(
                "mlexray_serve_exec_latency_seconds",
                "Backend-reported per-frame execution latency.",
                model,
                counters.exec_latency_snapshot(),
            );
        }
    }
}

impl Drop for InferenceService {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Shed codes carried in [`SpanStage::Shed`] spans (`arg_a`).
pub(crate) const SHED_CODE_QUEUE_FULL: u64 = 1;
pub(crate) const SHED_CODE_DEADLINE: u64 = 2;
pub(crate) const SHED_CODE_SHUTDOWN: u64 = 3;
pub(crate) const SHED_CODE_FAILED: u64 = 4;

/// Maps a backend spec to the span flavor tag (SIMD-vs-scalar attribution
/// comes free on every `exec`/`layer` span).
fn flavor_tag(spec: &BackendSpec) -> u8 {
    match spec.label() {
        "reference" => 0,
        "optimized" => 1,
        "simd" => 2,
        _ => 3,
    }
}

/// Emits the forced two-span trace of a shed request (a [`SpanStage::Shed`]
/// marker plus the terminal root) into the hub's shared ring.
fn emit_shed_trace(
    hub: &TraceHub,
    trace: &TraceContext,
    model_tag: u16,
    started_at: Instant,
    shed_code: u64,
    shed_detail: u64,
) {
    let root = span_id_for(trace.trace_id, SpanStage::Request, 0);
    let start_ns = hub.ns_of(started_at);
    let end_ns = hub.now_ns();
    hub.shared_ring().push(&Span {
        trace_id: trace.trace_id,
        span_id: span_id_for(trace.trace_id, SpanStage::Shed, 0),
        parent_span_id: root,
        stage: SpanStage::Shed,
        flavor: 0,
        model: model_tag,
        start_ns: end_ns,
        dur_ns: 0,
        arg_a: shed_code,
        arg_b: shed_detail,
    });
    hub.shared_ring().push(&Span {
        trace_id: trace.trace_id,
        span_id: root,
        parent_span_id: trace.parent_span_id,
        stage: SpanStage::Request,
        flavor: 0,
        model: model_tag,
        start_ns,
        dur_ns: end_ns.saturating_sub(start_ns),
        arg_a: 0,
        arg_b: 0,
    });
}

struct WorkerCtx {
    entry: Arc<ServedModel>,
    queue: Arc<RequestQueue<InferRequest>>,
    counters: Arc<ModelCounters>,
    ledger: Arc<CallerLedger>,
    validator: Option<Arc<OnlineValidator>>,
    sink: Option<Arc<dyn LogSink>>,
    batch: BatchPolicy,
    monitor: MonitorPolicy,
    hub: Option<Arc<TraceHub>>,
    model_tag: u16,
    flavor: u8,
}

/// Streams sampled frames' per-layer records out of a batched invoke.
/// Frames whose request was not sampled produce nothing. When a frame of
/// the batch is trace-sampled, its per-layer `(index, latency, macs)`
/// stream is collected once (layer latencies are per-frame shares,
/// identical across the batch) and fanned out as `layer` spans to every
/// traced request afterwards.
struct SampledCapture {
    request_ids: Vec<u64>,
    sampled: Vec<bool>,
    full: bool,
    log: bool,
    records: Vec<LogRecord>,
    trace_frame: Option<usize>,
    trace_layers: Vec<(u32, u64, u64)>,
}

impl LayerObserver for SampledCapture {
    /// Only deep-monitored frames read layer outputs; trace-only frames
    /// consume `(index, latency, macs)` and skip the per-frame view copy,
    /// so span capture costs timer reads, not activation copies.
    fn wants_output(&self, batch: usize) -> bool {
        self.log && self.sampled[batch]
    }

    fn on_layer(&mut self, record: &LayerRecord<'_>) {
        if Some(record.batch) == self.trace_frame {
            self.trace_layers.push((
                record.index as u32,
                record.latency.as_nanos() as u64,
                record.macs,
            ));
        }
        if !self.log || !self.sampled[record.batch] {
            return;
        }
        self.records.push(LogRecord {
            frame: self.request_ids[record.batch],
            key: layer_output_key(record.name),
            value: LogValue::of_tensor(record.output, self.full),
        });
    }
}

fn worker_loop(ctx: WorkerCtx) {
    let mut backend = ctx
        .entry
        .spec()
        .build(ctx.entry.graph())
        .expect("spec validated at service start");
    // One fixed-footprint span ring per worker thread, registered with the
    // hub for its lifetime; pushes after this never allocate.
    let ring = ctx.hub.as_ref().map(|hub| hub.register_ring());
    while let Some(batch) = form_batch(&ctx.queue, ctx.batch, &ctx.ledger, |request, popped_at| {
        shed_expired(&ctx, ring.as_deref(), request, popped_at)
    }) {
        run_batch(
            &ctx,
            ring.as_deref(),
            backend.as_mut(),
            batch.members,
            batch.close,
        );
    }
}

/// Deadline enforcement at dequeue: a request whose deadline had passed
/// when a worker popped it is answered with the typed shed reason instead
/// of burning compute.
fn shed_expired(
    ctx: &WorkerCtx,
    ring: Option<&SpanRing>,
    request: InferRequest,
    popped_at: Instant,
) {
    ctx.counters.shed_deadline.fetch_add(1, Ordering::AcqRel);
    let missed_by = request
        .deadline
        .map(|d| popped_at.duration_since(d))
        .unwrap_or_default();
    if let (Some(hub), Some(ring), Some(t)) = (&ctx.hub, ring, request.trace) {
        // Always-sample-on-deadline-miss: the forced trace carries the
        // queue wait that ate the deadline.
        hub.note_forced();
        let admitted_ns = hub.ns_of(request.admitted_at);
        let popped_ns = hub.ns_of(popped_at);
        ring.push(&Span {
            trace_id: t.trace_id,
            span_id: span_id_for(t.trace_id, SpanStage::QueueWait, 0),
            parent_span_id: span_id_for(t.trace_id, SpanStage::Request, 0),
            stage: SpanStage::QueueWait,
            flavor: 0,
            model: ctx.model_tag,
            start_ns: admitted_ns,
            dur_ns: popped_ns.saturating_sub(admitted_ns),
            arg_a: 0,
            arg_b: 0,
        });
        emit_shed_trace(
            hub,
            &t,
            ctx.model_tag,
            request.admitted_at,
            SHED_CODE_DEADLINE,
            missed_by.as_nanos() as u64,
        );
    }
    // Ordering rule 2 of `crate::batcher`: counted out before the reply.
    if request.from_caller {
        ctx.ledger.leave(1);
    }
    let _ = request.reply.send(Err(Rejection {
        model: ctx.entry.name().to_string(),
        request_id: request.id,
        reason: RejectReason::DeadlineExpired { missed_by },
    }));
}

fn run_batch(
    ctx: &WorkerCtx,
    ring: Option<&SpanRing>,
    backend: &mut dyn ExecutionBackend,
    requests: Vec<(InferRequest, Instant)>,
    close: CloseReason,
) {
    let formed_at = Instant::now();
    let leader_id = requests[0].0.id;
    let inputs: Vec<&[Tensor]> = requests.iter().map(|(r, _)| r.inputs.as_slice()).collect();
    let traced = |r: &InferRequest| r.trace.is_some_and(|t| t.sampled);
    let deep_monitor = ctx.sink.is_some() && requests.iter().any(|(r, _)| r.sampled);
    // Per-layer span collection rides the same observed invoke as deep
    // monitoring; either alone is enough to pay the observer.
    let trace_frame = ring
        .and(Some(()))
        .and_then(|()| requests.iter().position(|(r, _)| traced(r)));
    let result = if deep_monitor || trace_frame.is_some() {
        let mut capture = SampledCapture {
            request_ids: requests.iter().map(|(r, _)| r.id).collect(),
            sampled: requests.iter().map(|(r, _)| r.sampled).collect(),
            full: ctx.monitor.full_capture,
            log: deep_monitor,
            records: Vec::new(),
            trace_frame,
            trace_layers: Vec::new(),
        };
        backend
            .invoke_batch_observed(&inputs, &mut capture)
            .map(|outputs| (outputs, capture.records, capture.trace_layers))
    } else {
        backend
            .invoke_batch(&inputs)
            .map(|o| (o, Vec::new(), Vec::new()))
    };
    let exec_ended = Instant::now();
    // Ordering rule 2 of `crate::batcher`: the whole batch is counted out
    // before its first reply, on the failure path too.
    ctx.ledger
        .leave(requests.iter().filter(|(r, _)| r.from_caller).count());
    match result {
        Ok((outputs, layer_records, trace_layers)) => {
            let size = requests.len();
            ctx.counters.record_batch(size, close);
            let exec_latency = backend
                .last_stats()
                .map(|s| s.per_frame_latency())
                .unwrap_or_default();
            if !exec_latency.is_zero() {
                ctx.counters.record_exec_latency(exec_latency);
            }
            let mut telemetry = layer_records;
            for ((request, popped_at), outputs) in requests.into_iter().zip(outputs) {
                let mut drift_ns = None;
                if request.sampled {
                    ctx.counters.sampled.fetch_add(1, Ordering::AcqRel);
                    if let Some(validator) = &ctx.validator {
                        let observe_start = Instant::now();
                        validator.observe(request.inputs.as_slice());
                        drift_ns = Some((observe_start, Instant::now()));
                    }
                }
                let total_latency = request.admitted_at.elapsed();
                if ctx.monitor.log_latency && ctx.sink.is_some() {
                    telemetry.push(LogRecord {
                        frame: request.id,
                        key: KEY_INFERENCE_LATENCY.to_string(),
                        value: LogValue::LatencyNs(total_latency.as_nanos() as u64),
                    });
                }
                ctx.counters.record_completion(total_latency);
                if let (Some(hub), Some(ring), Some(t)) = (&ctx.hub, ring, request.trace) {
                    if t.sampled {
                        emit_request_spans(RequestSpans {
                            hub,
                            ring,
                            trace: &t,
                            model_tag: ctx.model_tag,
                            flavor: ctx.flavor,
                            admitted_at: request.admitted_at,
                            popped_at,
                            formed_at,
                            exec_ended,
                            batch_size: size as u64,
                            close,
                            leader_id,
                            total_latency,
                            trace_layers: &trace_layers,
                            drift_ns,
                        });
                    }
                }
                let _ = request.reply.send(Ok(InferResponse {
                    request_id: request.id,
                    outputs,
                    total_latency,
                    exec_latency,
                    batch_size: size,
                    sampled: request.sampled,
                }));
            }
            if let Some(sink) = &ctx.sink {
                if !telemetry.is_empty() {
                    sink.write_batch(telemetry);
                }
            }
        }
        Err(error) => {
            let detail = error.to_string();
            for (request, _) in requests {
                ctx.counters.failed.fetch_add(1, Ordering::AcqRel);
                if let (Some(hub), Some(t)) = (&ctx.hub, request.trace) {
                    // Failures are anomalies: force-traced like sheds.
                    hub.note_forced();
                    emit_shed_trace(
                        hub,
                        &t,
                        ctx.model_tag,
                        request.admitted_at,
                        SHED_CODE_FAILED,
                        0,
                    );
                }
                let _ = request.reply.send(Err(Rejection {
                    model: ctx.entry.name().to_string(),
                    request_id: request.id,
                    reason: RejectReason::ExecutionFailed {
                        detail: detail.clone(),
                    },
                }));
            }
        }
    }
}

struct RequestSpans<'a> {
    hub: &'a TraceHub,
    ring: &'a SpanRing,
    trace: &'a TraceContext,
    model_tag: u16,
    flavor: u8,
    admitted_at: Instant,
    popped_at: Instant,
    formed_at: Instant,
    exec_ended: Instant,
    batch_size: u64,
    close: CloseReason,
    leader_id: u64,
    total_latency: Duration,
    trace_layers: &'a [(u32, u64, u64)],
    drift_ns: Option<(Instant, Instant)>,
}

/// Emits the full span chain of one completed traced request: queue wait,
/// batch formation, execution, per-layer kernels, drift-check offload,
/// respond, and — last, because its arrival completes the trace — the
/// terminal root whose duration is *exactly* the latency recorded into the
/// model's bounded histogram (the profiler reconciles against those books).
fn emit_request_spans(s: RequestSpans<'_>) {
    let t = s.trace;
    let root = span_id_for(t.trace_id, SpanStage::Request, 0);
    let admitted_ns = s.hub.ns_of(s.admitted_at);
    let popped_ns = s.hub.ns_of(s.popped_at);
    let formed_ns = s.hub.ns_of(s.formed_at);
    let exec_end_ns = s.hub.ns_of(s.exec_ended);
    let span = |stage, index, start_ns: u64, end_ns: u64, flavor, arg_a, arg_b| Span {
        trace_id: t.trace_id,
        span_id: span_id_for(t.trace_id, stage, index),
        parent_span_id: root,
        stage,
        flavor,
        model: s.model_tag,
        start_ns,
        dur_ns: end_ns.saturating_sub(start_ns),
        arg_a,
        arg_b,
    };
    s.ring.push(&span(
        SpanStage::QueueWait,
        0,
        admitted_ns,
        popped_ns,
        0,
        0,
        0,
    ));
    s.ring.push(&span(
        SpanStage::BatchForm,
        0,
        popped_ns,
        formed_ns,
        // Not a kernel flavor here: what closed the batch.
        s.close as u8,
        s.batch_size,
        s.leader_id,
    ));
    s.ring.push(&span(
        SpanStage::Exec,
        0,
        formed_ns,
        exec_end_ns,
        s.flavor,
        s.batch_size,
        0,
    ));
    // Layer spans are laid end to end from the invoke start; each carries
    // its per-frame latency share, layer index and MAC estimate.
    let mut layer_cursor = formed_ns;
    for (index, latency_ns, macs) in s.trace_layers {
        s.ring.push(&span(
            SpanStage::Layer,
            u64::from(*index),
            layer_cursor,
            layer_cursor + latency_ns,
            s.flavor,
            u64::from(*index),
            *macs,
        ));
        layer_cursor += latency_ns;
    }
    if let Some((start, end)) = s.drift_ns {
        let start_ns = s.hub.ns_of(start);
        s.ring.push(&span(
            SpanStage::DriftCheck,
            0,
            start_ns,
            s.hub.ns_of(end),
            0,
            0,
            0,
        ));
    }
    let respond_end_ns = s.hub.now_ns();
    s.ring.push(&span(
        SpanStage::Respond,
        0,
        exec_end_ns,
        respond_end_ns,
        0,
        0,
        0,
    ));
    let mut terminal = span(
        SpanStage::Request,
        0,
        admitted_ns,
        admitted_ns,
        0,
        s.batch_size,
        0,
    );
    terminal.span_id = root;
    terminal.parent_span_id = t.parent_span_id;
    terminal.dur_ns = s.total_latency.as_nanos() as u64;
    s.ring.push(&terminal);
}
