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
//! Admission lives here; the worker side of the picture is
//! [`crate::worker`], the spans both sides write are [`crate::tracing`],
//! and the two share one [`ModelPool`] per model. Every request that ends
//! without an answer — refused at admission, expired in the queue, failed
//! in its batch — ends in [`ModelPool::refuse`], which moves exactly one
//! book, force-traces the anomaly and builds the typed [`Rejection`].
//!
//! Batch formation — the leader/follower loop, its close-or-wait rule and
//! the per-model caller ledger that lets a leader stop waiting for
//! followers that cannot come — lives in [`crate::batcher`]. Of the
//! ledger's two ordering rules this module keeps the first: a request from
//! an attached caller is counted into the system *before* it is pushed
//! (`submit_from`); the worker keeps the second. The batcher's module docs
//! say what breaks otherwise.
//!
//! Each worker owns a private interpreter built from the model's
//! [`BackendSpec`] — the same share-nothing discipline as the sharded
//! replay engine, and the two compose: the service's worker pools are
//! capped by [`ServiceConfig::core_budget`], defaulting to the machine
//! parallelism the replay engine also sizes against.
//!
//! # Shared inputs
//!
//! Requests travel as [`std::sync::Arc`]`<Vec<Tensor>>`: the RPC layer,
//! which holds long-lived inputs in its sealed-tensor arenas, submits the
//! same allocation any number of times without copying tensor data — the
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
    available_cores, reserve_cores, trace_id_for, CoreLease, DriftAlarm, LogSink, OnlineValidator,
    OnlineValidatorConfig, OnlineValidatorStats, SpanRing, SpanStage, TraceContext, TraceHub,
};
use mlexray_nn::BackendSpec;
use mlexray_tensor::Tensor;

use crate::batcher::{AttachedCaller, BatchPolicy, CallerLedger, CloseReason};
use crate::queue::{PushRefusal, RequestQueue};
use crate::registry::{ModelRegistry, ServedModel};
use crate::request::{InferRequest, PendingResponse, RejectReason, Rejection};
use crate::stats::{ModelCounters, ModelStats};
use crate::tracing::{SpanWriter, DRIFT_TRACE_IDS, SHED_TRACE_IDS};
use crate::worker::worker_loop;
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

/// Everything one model's admission path and its workers share.
pub(crate) struct ModelPool {
    pub(crate) entry: Arc<ServedModel>,
    pub(crate) queue: RequestQueue<InferRequest>,
    pub(crate) counters: ModelCounters,
    /// The model's closed-loop callers (see [`crate::batcher`]).
    pub(crate) ledger: Arc<CallerLedger>,
    pub(crate) validator: Option<OnlineValidator>,
    pub(crate) sink: Option<Arc<dyn LogSink>>,
    pub(crate) config: ServiceConfig,
    /// The span pipeline, present when [`TracePolicy::every`] > 0.
    pub(crate) hub: Option<Arc<TraceHub>>,
    /// The model's interned span tag ([`TraceHub::intern_model`]).
    model_tag: u16,
    /// The span flavor tag of the model's [`BackendSpec`].
    pub(crate) flavor: u8,
    worker_count: usize,
    next_id: AtomicU64,
    sample_clock: AtomicU64,
    /// Deterministic trace-sampling clock (same optimistic-tick-with-
    /// rollback discipline as `sample_clock`).
    trace_clock: AtomicU64,
}

impl ModelPool {
    /// The span writer of one request: into `ring` (the hub's shared ring
    /// when the thread has none of its own), under `trace`. `None` when the
    /// service does not trace or the request carries no context.
    pub(crate) fn spans<'a>(
        &'a self,
        ring: Option<&'a SpanRing>,
        trace: Option<TraceContext>,
    ) -> Option<SpanWriter<'a>> {
        Some(SpanWriter::new(
            self.hub.as_deref()?,
            ring,
            trace?,
            self.model_tag,
        ))
    }

    /// The one way a request ends without an answer: counts `reason` on the
    /// book it belongs to, force-traces it (always-sample-on-anomaly, on the
    /// hub's shared ring) and builds the typed [`Rejection`] — which the
    /// caller returns or sends on the request's reply channel. Leaving the
    /// caller ledger stays with the caller: when depends on where.
    pub(crate) fn refuse(
        &self,
        trace: Option<TraceContext>,
        started_at: Instant,
        request_id: u64,
        reason: RejectReason,
    ) -> Rejection {
        self.counters.count_refusal(&reason);
        if let Some(spans) = self.spans(None, trace) {
            spans.shed(started_at, &reason);
        }
        Rejection {
            model: self.entry.name().to_string(),
            request_id,
            reason,
        }
    }
}

struct ModelServer {
    pool: Arc<ModelPool>,
    workers: Vec<JoinHandle<()>>,
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
            let name = entry.name().to_string();
            let server = service.spawn_server(entry)?;
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
        let monitor = self.config.monitor;
        let pool = Arc::new(ModelPool {
            queue: RequestQueue::new(self.config.queue_capacity, self.config.start_paused),
            counters: ModelCounters::default(),
            ledger: Arc::new(CallerLedger::default()),
            validator: monitor
                .validator
                .filter(|_| monitor.sample_every > 0)
                .map(OnlineValidator::new),
            sink: self.sink.clone(),
            config: self.config,
            hub: self.trace_hub.clone(),
            model_tag: self
                .trace_hub
                .as_ref()
                .map_or(0, |hub| hub.intern_model(entry.name())),
            flavor: flavor_tag(&entry.spec()),
            worker_count: workers,
            next_id: AtomicU64::new(0),
            sample_clock: AtomicU64::new(0),
            trace_clock: AtomicU64::new(0),
            entry,
        });
        let workers = (0..workers)
            .map(|i| {
                let pool = pool.clone();
                std::thread::Builder::new()
                    .name(format!("mlexray-serve-{}-{i}", pool.entry.name()))
                    .spawn(move || worker_loop(pool))
                    .expect("spawn serving worker")
            })
            .collect();
        Ok(ModelServer {
            pool,
            workers,
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
            loser.pool.queue.close();
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

    /// Submits a request with no deadline ([`Self::submit_with_deadline`]
    /// is the one way to give one).
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
        self.submit_from(None, model, Arc::new(inputs), None, None)
    }

    /// Submits a request with an explicit deadline (`None` = no deadline).
    /// The deadline is enforced at dequeue: a request whose deadline passed
    /// while queued is shed with [`RejectReason::DeadlineExpired`] instead
    /// of burning compute.
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
        self.submit_from(None, model, Arc::new(inputs), deadline, None)
    }

    /// Declares a closed-loop caller of `model` — one that submits through
    /// [`Self::submit_from`], one request at a time, waiting for each
    /// answer — until the guard drops. `None` for a model not served.
    pub(crate) fn attach_caller(&self, model: &str) -> Option<AttachedCaller> {
        self.servers
            .read()
            .get(model)
            .map(|s| s.pool.ledger.attach())
    }

    /// The one implementation behind [`Self::submit`],
    /// [`Self::submit_with_deadline`] and the RPC door.
    ///
    /// `inputs` are shared, not copied: the door's sealed-tensor arenas
    /// re-submit one upload any number of times, and workers lend the
    /// shared tensors to `invoke_batch` by reference.
    ///
    /// `caller`, when given, must come from [`Self::attach_caller`] on the
    /// same `model`: its request is counted on the model's caller ledger
    /// from before it is queued until just before it is answered, which
    /// lets a batch leader stop waiting for followers once every attached
    /// caller is accounted for.
    ///
    /// `wire` is a caller-provided [`TraceContext`] — the door passes the
    /// context an `Infer` frame carried, so a client-sampled request keeps
    /// its trace identity across the network hop. `None` falls back to the
    /// service's own deterministic every-Nth sampling clock. Ignored
    /// entirely when the service runs with [`TracePolicy::off`].
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
        let Some(pool) = servers.get(model).map(|s| &s.pool) else {
            return Err(Rejection {
                model: model.to_string(),
                request_id: 0,
                reason: RejectReason::UnknownModel,
            });
        };
        let offered_tick = pool.counters.offered.fetch_add(1, Ordering::AcqRel);
        if !self.accepting.load(Ordering::Acquire) {
            // No admission id exists yet: the forced shed trace mints its
            // identity from the offered tick, in a disjoint id namespace.
            let trace = wire.unwrap_or_else(|| {
                TraceContext::sampled(trace_id_for(model, offered_tick) | SHED_TRACE_IDS)
            });
            return Err(pool.refuse(Some(trace), entered_at, 0, RejectReason::ShuttingDown));
        }
        let id = pool.next_id.fetch_add(1, Ordering::AcqRel);
        let sample_every = self.config.monitor.sample_every;
        // Sampling ticks over *admitted* requests, not submit attempts —
        // the tick is taken optimistically and rolled back on refusal, so
        // sustained queue-full bursts cannot starve the monitoring stream
        // (ids themselves are identity and may skip).
        let sample_tick =
            (sample_every > 0).then(|| pool.sample_clock.fetch_add(1, Ordering::AcqRel));
        let sampled = sample_tick.is_some_and(|tick| tick % sample_every == 0);
        // Trace sampling: a wire context wins (the caller already decided);
        // otherwise the per-model deterministic clock ticks, with the same
        // optimistic-tick-with-rollback discipline as `sample_clock`.
        let trace_every = self.config.trace.every;
        let mut trace_tick = None;
        let trace = self.trace_hub.as_ref().map(|_| {
            wire.unwrap_or_else(|| {
                let tick = pool.trace_clock.fetch_add(1, Ordering::AcqRel);
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
            debug_assert!(caller.is_on(&pool.ledger), "attached to another model");
            pool.ledger.enter();
        }
        let refusal = match pool.queue.try_push(request) {
            Ok(_) => {
                pool.counters.admitted.fetch_add(1, Ordering::AcqRel);
                if let Some(spans) = pool.spans(None, trace).filter(|s| s.sampled()) {
                    spans.hub.note_sampled();
                    spans.timed(SpanStage::Admission, entered_at, Instant::now());
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
            pool.ledger.leave(1);
        }
        if sample_tick.is_some() {
            pool.sample_clock.fetch_sub(1, Ordering::AcqRel);
        }
        if trace_tick.is_some() {
            pool.trace_clock.fetch_sub(1, Ordering::AcqRel);
        }
        let reason = match refusal {
            PushRefusal::Full(_, depth) => RejectReason::QueueFull { depth },
            PushRefusal::Closed(_) => RejectReason::ShuttingDown,
        };
        Err(pool.refuse(trace, entered_at, id, reason))
    }

    /// One door-side span (RPC decode / response encode) of a sampled
    /// wire-propagated trace, on the hub's shared ring. No-op when the
    /// service runs with tracing off — the wire context still rides the
    /// request untraced.
    pub(crate) fn door_span(
        &self,
        trace: TraceContext,
        model: &str,
        stage: SpanStage,
        started: Instant,
        ended: Instant,
    ) {
        if let Some(hub) = &self.trace_hub {
            SpanWriter::new(hub, None, trace, hub.intern_model(model)).timed(stage, started, ended);
        }
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
            .map(|s| s.pool.counters.latency_snapshot())
    }

    /// Current queue depth of a model.
    pub fn queue_depth(&self, model: &str) -> Option<usize> {
        self.servers.read().get(model).map(|s| s.pool.queue.len())
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
            .map(|s| s.pool.counters.snapshot(model, s.pool.worker_count))
    }

    /// Holds every worker pool (admission continues; queues fill).
    pub fn pause(&self) {
        for server in self.servers.read().values() {
            server.pool.queue.pause();
        }
    }

    /// Releases paused worker pools.
    pub fn resume(&self) {
        for server in self.servers.read().values() {
            server.pool.queue.resume();
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
        let pool = &servers
            .get(model)
            .ok_or_else(|| ServeError::UnknownModel(model.to_string()))?
            .pool;
        let Some(validator) = &pool.validator else {
            return Ok(None);
        };
        let check_start = Instant::now();
        let alarm = validator.check(
            pool.entry.graph(),
            BackendSpec::reference(),
            pool.entry.spec(),
        )?;
        if alarm.is_some() {
            // Always-sample-on-drift-alarm: a raised alarm produces a
            // forced trace carrying the offload's cost, so the anomaly is
            // visible in the span stream, not only in the drift books.
            let checks = pool.counters.offered.load(Ordering::Acquire);
            let trace = TraceContext::sampled(trace_id_for(model, checks) | DRIFT_TRACE_IDS);
            if let Some(spans) = pool.spans(None, Some(trace)) {
                spans.hub.note_forced();
                let (start_ns, end_ns) = (spans.hub.ns_of(check_start), spans.hub.now_ns());
                spans.child(SpanStage::DriftCheck, 0, start_ns, end_ns, 0, 1, 0);
                spans.root(start_ns, end_ns.saturating_sub(start_ns), 0);
            }
        }
        Ok(alarm)
    }

    /// The online validator's counters for `model`, when validation is on.
    pub fn validator_stats(&self, model: &str) -> Option<OnlineValidatorStats> {
        self.servers
            .read()
            .get(model)?
            .pool
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
                server.pool.queue.close();
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
                .map(|(name, s)| s.pool.counters.snapshot(name, s.pool.worker_count))
                .collect(),
            validators: servers
                .iter()
                .filter_map(|(name, s)| {
                    let validator = s.pool.validator.as_ref()?;
                    Some((name.clone(), validator.stats()))
                })
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
            let pool = &server.pool;
            let counters = &pool.counters;
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
                pool.queue.len() as f64,
            );
            for (state, value) in [
                ("attached", pool.ledger.attached()),
                ("in_system", pool.ledger.in_system()),
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
                pool.worker_count as f64,
            );
            if let Some(validator) = &pool.validator {
                let stats = validator.stats();
                for (series, help, value) in [
                    (
                        "mlexray_validator_observed_total",
                        "Sampled request inputs offered to the online validator's reservoir.",
                        stats.observed,
                    ),
                    (
                        "mlexray_validator_checks_total",
                        "Online drift checks that ran (the reservoir held enough frames).",
                        stats.checks,
                    ),
                    (
                        "mlexray_validator_alarms_total",
                        "Online drift checks that raised an alarm.",
                        stats.alarms,
                    ),
                ] {
                    out.counter(series, help, model, value);
                }
                out.gauge(
                    "mlexray_validator_reservoir_frames",
                    "Frames currently held in the online validator's reservoir.",
                    model,
                    validator.sampled_frames() as f64,
                );
                out.gauge(
                    "mlexray_validator_last_check_seconds",
                    "Wall-clock cost of the most recent online drift check that ran.",
                    model,
                    validator.last_check().as_secs_f64(),
                );
            }
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
