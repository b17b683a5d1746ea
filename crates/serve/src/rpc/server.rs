//! The framed TCP server: thread-per-connection over the existing MPMC
//! queues — no async runtime, no new dependencies.
//!
//! # Lifecycle
//!
//! ```text
//! accept loop ──▶ connection thread: read frame ▶ decode ▶ dispatch ▶ reply
//!                   │  Seal ──▶ session arena (Arc<Vec<Tensor>>)
//!                   │  Infer ─▶ InferenceService::submit_from (zero-copy;
//!                   │           the session is a declared closed-loop caller)
//!                   └─ Load ──▶ registry (lint gate) + service.add_model
//! ```
//!
//! Graceful drain ([`RpcServer::shutdown`]) runs in phases: (1) new
//! connections are answered with a [`ErrorCode::ShuttingDown`] error frame
//! and closed, and new work on existing connections is refused the same
//! way; (2) the inference service drains — every already-admitted request
//! completes (or sheds on its deadline) and its connection receives the
//! reply; (3) connection threads and the acceptor are joined. In-flight
//! work finishes, new work is refused, nothing hangs.

use std::collections::BTreeMap;
use std::io::{BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use mlexray_core::{chrome_trace_json, LogRecord, LogSink, LogValue, SpanStage, TraceContext};
use mlexray_nn::{Graph, Model, NnError};
use mlexray_tensor::{Tensor, TensorError};

use crate::batcher::AttachedCaller;
use crate::metrics::{Collect, MetricsBuilder, MetricsRegistry};
use crate::rpc::wire::{
    self, ErrorCode, InferPayload, LoadSource, ModelStatus, RpcRequest, RpcResponse, SealHandle,
    StatusReply, WireError, WireInferResponse,
};
use crate::{
    InferenceService, ModelRegistry, RejectReason, Rejection, ServeError, ServeReport, ServedModel,
};

/// Tuning of the RPC front door.
#[derive(Debug, Clone)]
pub struct RpcServerConfig {
    /// Upper bound on one frame's payload; larger announcements are
    /// refused with [`ErrorCode::PayloadTooLarge`] before allocation.
    pub max_frame_len: u32,
    /// Bearer-token table: token → tenant. `Some` makes `Hello` mandatory
    /// before any verb other than `Status`; `None` serves anonymously.
    pub tokens: Option<BTreeMap<String, String>>,
    /// Per-session cap on bytes sealed in the arena.
    pub max_sealed_bytes: u64,
    /// Socket read-timeout granularity — how often an idle connection
    /// thread re-checks the drain/stop flags.
    pub poll_interval: Duration,
    /// How long a *started* frame may take to finish arriving before the
    /// connection is declared truncated.
    pub frame_timeout: Duration,
}

impl Default for RpcServerConfig {
    fn default() -> Self {
        RpcServerConfig {
            max_frame_len: wire::DEFAULT_MAX_FRAME_LEN,
            tokens: None,
            max_sealed_bytes: 256 * 1024 * 1024,
            poll_interval: Duration::from_millis(25),
            frame_timeout: Duration::from_secs(5),
        }
    }
}

/// Final accounting of a stopped RPC server.
#[derive(Debug, Clone)]
pub struct RpcReport {
    /// The drained inference service's books (per-model, balanced).
    pub serve: ServeReport,
    /// Connections accepted and served.
    pub connections_accepted: u64,
    /// Connections refused at the door: during drain with `ShuttingDown`,
    /// or with `Internal` when no thread could be started to serve them.
    pub connections_refused: u64,
    /// Request frames answered with a success response.
    pub requests_served: u64,
    /// Error frames sent (protocol + admission failures).
    pub errors_sent: u64,
    /// Bytes read off client sockets (frames + length prefixes).
    pub bytes_in: u64,
    /// Bytes written to client sockets.
    pub bytes_out: u64,
}

struct Inner {
    /// Shared so the service doubles as a [`Collect`] source in `metrics`.
    service: Arc<InferenceService>,
    registry: ModelRegistry,
    config: RpcServerConfig,
    sink: Option<Arc<dyn LogSink>>,
    metrics: MetricsRegistry,
    /// Per-(tenant, verb, outcome) request counts for the exposition. Off
    /// the latency-critical path: only touched once per RPC frame.
    verb_counters: Mutex<BTreeMap<(String, String, String), u64>>,
    draining: AtomicBool,
    stopping: AtomicBool,
    open_connections: AtomicU32,
    connections_accepted: AtomicU64,
    connections_refused: AtomicU64,
    requests_served: AtomicU64,
    errors_sent: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    sealed_bytes: AtomicU64,
    conn_handles: Mutex<Vec<JoinHandle<()>>>,
}

/// The RPC door's own metrics source. Holds a weak reference: `Inner` owns
/// the registry that owns the collectors, so a strong reference here would
/// cycle and leak the whole server.
struct DoorMetrics(Weak<Inner>);

impl Collect for DoorMetrics {
    fn collect(&self, out: &mut MetricsBuilder) {
        let Some(inner) = self.0.upgrade() else {
            return;
        };
        out.counter(
            "mlexray_rpc_connections_accepted_total",
            "Connections accepted and served.",
            &[],
            inner.connections_accepted.load(Ordering::Acquire),
        );
        out.counter(
            "mlexray_rpc_connections_refused_total",
            "Connections refused during drain.",
            &[],
            inner.connections_refused.load(Ordering::Acquire),
        );
        out.counter(
            "mlexray_rpc_requests_served_total",
            "Request frames answered with a success response.",
            &[],
            inner.requests_served.load(Ordering::Acquire),
        );
        out.counter(
            "mlexray_rpc_errors_sent_total",
            "Error frames sent (protocol + admission failures).",
            &[],
            inner.errors_sent.load(Ordering::Acquire),
        );
        out.counter(
            "mlexray_rpc_bytes_in_total",
            "Bytes read off client sockets.",
            &[],
            inner.bytes_in.load(Ordering::Acquire),
        );
        out.counter(
            "mlexray_rpc_bytes_out_total",
            "Bytes written to client sockets.",
            &[],
            inner.bytes_out.load(Ordering::Acquire),
        );
        out.gauge(
            "mlexray_rpc_open_connections",
            "Currently open client connections.",
            &[],
            f64::from(inner.open_connections.load(Ordering::Acquire)),
        );
        out.gauge(
            "mlexray_rpc_sealed_bytes",
            "Bytes currently sealed across all session arenas.",
            &[],
            inner.sealed_bytes.load(Ordering::Acquire) as f64,
        );
        for ((tenant, verb, outcome), count) in inner.verb_counters.lock().iter() {
            out.counter(
                "mlexray_rpc_requests_total",
                "RPC requests by tenant, verb and outcome.",
                &[
                    ("tenant", tenant.as_str()),
                    ("verb", verb.as_str()),
                    ("outcome", outcome.as_str()),
                ],
                *count,
            );
        }
    }
}

/// The RPC front door over an [`InferenceService`]. Binds a TCP listener
/// (always ask for port `0` in tests and read [`RpcServer::local_addr`]
/// back), serves the wire protocol of [`crate::rpc::wire`], and owns both
/// the service and the registry so the `Load` verb can grow the model set
/// at runtime.
pub struct RpcServer {
    inner: Arc<Inner>,
    acceptor: Option<JoinHandle<()>>,
    addr: SocketAddr,
}

impl std::fmt::Debug for RpcServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RpcServer")
            .field("addr", &self.addr)
            .field("draining", &self.inner.draining.load(Ordering::Acquire))
            .finish_non_exhaustive()
    }
}

impl RpcServer {
    /// Binds `addr` (use `127.0.0.1:0` for an ephemeral port) and starts
    /// the accept loop. Takes ownership of the service and its registry;
    /// both come back out through [`RpcServer::shutdown`]'s report.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] when the bind fails.
    pub fn start(
        addr: impl ToSocketAddrs,
        service: InferenceService,
        registry: ModelRegistry,
        config: RpcServerConfig,
        sink: Option<Arc<dyn LogSink>>,
    ) -> crate::Result<Self> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| ServeError::Config(format!("rpc bind failed: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| ServeError::Config(format!("rpc local_addr failed: {e}")))?;
        let inner = Arc::new(Inner {
            service: Arc::new(service),
            registry,
            config,
            sink,
            metrics: MetricsRegistry::new(),
            verb_counters: Mutex::new(BTreeMap::new()),
            draining: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
            open_connections: AtomicU32::new(0),
            connections_accepted: AtomicU64::new(0),
            connections_refused: AtomicU64::new(0),
            requests_served: AtomicU64::new(0),
            errors_sent: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            sealed_bytes: AtomicU64::new(0),
            conn_handles: Mutex::new(Vec::new()),
        });
        // The serve pools and the door itself feed every `Metrics` scrape;
        // callers can register more sources (e.g. a ChannelSink) through
        // `RpcServer::metrics`.
        inner.metrics.register(inner.service.clone());
        inner
            .metrics
            .register(Arc::new(DoorMetrics(Arc::downgrade(&inner))));
        // When the service traces, its span pipeline joins the scrape too:
        // sampler counters, drop/evict totals, per-stage attribution.
        if let Some(hub) = inner.service.trace_hub() {
            inner.metrics.register(hub.clone());
        }
        let acceptor = {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("mlexray-rpc-accept".into())
                .spawn(move || accept_loop(inner, listener))
                .map_err(|e| ServeError::Config(format!("spawn acceptor: {e}")))?
        };
        Ok(RpcServer {
            inner,
            acceptor: Some(acceptor),
            addr: local,
        })
    }

    /// The bound address (the assigned port when started on port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The inference service behind the door.
    pub fn service(&self) -> &InferenceService {
        self.inner.service.as_ref()
    }

    /// The metrics registry the `Metrics` verb renders. The serve pools
    /// and the RPC door are pre-registered; callers may add further
    /// [`Collect`] sources (e.g. the telemetry
    /// [`ChannelSink`](mlexray_core::ChannelSink)) so one scrape covers
    /// the whole deployment.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// The registry the `Load` verb registers into.
    pub fn registry(&self) -> &ModelRegistry {
        &self.inner.registry
    }

    /// Begins graceful drain *without* stopping: new connections and new
    /// work are refused with `ShuttingDown`, while requests already
    /// admitted keep running and their connections stay open to receive
    /// the replies. [`RpcServer::shutdown`] completes the stop.
    pub fn begin_drain(&self) {
        self.inner.draining.store(true, Ordering::Release);
    }

    /// Drains and stops: refuses new work, completes everything already
    /// admitted, joins every thread, and returns the final accounting.
    pub fn shutdown(mut self) -> RpcReport {
        self.halt()
    }

    fn halt(&mut self) -> RpcReport {
        let inner = &self.inner;
        inner.draining.store(true, Ordering::Release);
        // Phase 2: drain the service — every admitted request is answered,
        // unblocking any connection thread parked in PendingResponse::wait.
        let serve = inner.service.drain();
        // Phase 3: stop the loops. The self-connect unblocks an acceptor
        // parked in accept().
        inner.stopping.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *inner.conn_handles.lock());
        for handle in handles {
            let _ = handle.join();
        }
        RpcReport {
            serve,
            connections_accepted: inner.connections_accepted.load(Ordering::Acquire),
            connections_refused: inner.connections_refused.load(Ordering::Acquire),
            requests_served: inner.requests_served.load(Ordering::Acquire),
            errors_sent: inner.errors_sent.load(Ordering::Acquire),
            bytes_in: inner.bytes_in.load(Ordering::Acquire),
            bytes_out: inner.bytes_out.load(Ordering::Acquire),
        }
    }
}

impl Drop for RpcServer {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.halt();
        }
    }
}

fn accept_loop(inner: Arc<Inner>, listener: TcpListener) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if inner.stopping.load(Ordering::Acquire) {
                break;
            }
            continue;
        };
        if inner.stopping.load(Ordering::Acquire) {
            break;
        }
        if inner.draining.load(Ordering::Acquire) {
            let message = "server is draining; not accepting connections";
            refuse(&inner, &stream, ErrorCode::ShuttingDown, message.into());
            continue;
        }
        admit(&inner, stream, |builder, run| builder.spawn(run));
    }
}

/// A connection's thread body, as [`admit`] hands it to its spawner.
type ConnectionThread = Box<dyn FnOnce() + Send>;

/// Serves `stream` on a thread of its own, started by `spawn`, and counts
/// it as accepted. When no thread can be started the connection is refused
/// instead — the open count restored, a typed [`ErrorCode::Internal`] frame
/// sent — and the acceptor carries on.
fn admit(
    inner: &Arc<Inner>,
    stream: TcpStream,
    spawn: impl FnOnce(std::thread::Builder, ConnectionThread) -> std::io::Result<JoinHandle<()>>,
) {
    inner.open_connections.fetch_add(1, Ordering::AcqRel);
    // The acceptor is the count's only writer.
    let conn_id = inner.connections_accepted.load(Ordering::Acquire) + 1;
    let (conn_inner, stream) = (inner.clone(), Arc::new(stream));
    let conn_stream = stream.clone();
    let run: ConnectionThread = Box::new(move || {
        handle_connection(&conn_inner, &conn_stream, conn_id);
        // Closed before it stops counting as open.
        drop(conn_stream);
        conn_inner.open_connections.fetch_sub(1, Ordering::AcqRel);
    });
    let builder = std::thread::Builder::new().name(format!("mlexray-rpc-conn-{conn_id}"));
    match spawn(builder, run) {
        Ok(handle) => {
            // The connection's thread is now the stream's only holder.
            drop(stream);
            inner.connections_accepted.fetch_add(1, Ordering::AcqRel);
            let mut handles = inner.conn_handles.lock();
            // Reap before pushing: a finished thread left unjoined keeps its
            // stack mapped for the life of the server.
            for finished in handles.extract_if(.., |h| h.is_finished()) {
                let _ = finished.join();
            }
            handles.push(handle);
        }
        Err(e) => {
            inner.open_connections.fetch_sub(1, Ordering::AcqRel);
            let message = format!("could not start a connection thread: {e}");
            refuse(inner, &stream, ErrorCode::Internal, message);
        }
    }
}

/// Refuses a connection at the door: counts it and answers one typed error
/// frame, unprompted, so the client learns why instead of seeing a bare
/// reset.
fn refuse(inner: &Inner, stream: &TcpStream, code: ErrorCode, message: String) {
    inner.connections_refused.fetch_add(1, Ordering::AcqRel);
    send_error(inner, stream, 0, code, message, String::new());
}

/// Per-connection session state: who the peer is and what it has sealed.
/// The arena maps handles to shared tensor sets — `Infer` by handle clones
/// the `Arc`, never the tensors.
struct Session {
    tenant: Option<String>,
    arena: BTreeMap<SealHandle, Arc<Vec<Tensor>>>,
    next_handle: SealHandle,
    arena_bytes: u64,
    /// This connection's standing declaration, per model it has sent an
    /// `Infer` to, that it is a closed-loop caller: `handle_infer` blocks
    /// on each answer, so the connection never has two requests in the
    /// system (see [`crate::batcher`]). Dropped with the session, however
    /// the connection ends.
    attached: BTreeMap<String, AttachedCaller>,
}

enum ReadEnd {
    /// Buffer filled.
    Frame,
    /// EOF at a frame boundary before any byte: the client hung up cleanly.
    CleanClose,
    /// EOF or stall part-way through a frame.
    Truncated,
    /// The server is stopping.
    Stopped,
    /// Unrecoverable socket error.
    Failed,
}

/// Fills `buf` from the socket, polling at the configured read timeout so
/// the thread notices stop requests, and bounding how long a started frame
/// may dribble in.
fn read_polled(reader: &mut impl Read, buf: &mut [u8], inner: &Inner, mid_frame: bool) -> ReadEnd {
    let mut filled = 0usize;
    let mut deadline = if mid_frame {
        Some(Instant::now() + inner.config.frame_timeout)
    } else {
        None
    };
    loop {
        if inner.stopping.load(Ordering::Acquire) {
            return ReadEnd::Stopped;
        }
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 && !mid_frame {
                    ReadEnd::CleanClose
                } else {
                    ReadEnd::Truncated
                }
            }
            Ok(n) => {
                filled += n;
                if filled == buf.len() {
                    return ReadEnd::Frame;
                }
                deadline.get_or_insert_with(|| Instant::now() + inner.config.frame_timeout);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if let Some(d) = deadline {
                    if Instant::now() >= d {
                        return ReadEnd::Truncated;
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return ReadEnd::Failed,
        }
    }
}

/// Writes a response frame, accounting bytes; write failures are swallowed
/// (a peer that disconnected mid-`Infer` simply never reads its reply —
/// the server must not care).
fn send_response(inner: &Inner, stream: &TcpStream, id: u64, response: &RpcResponse) {
    if matches!(response, RpcResponse::Error { .. }) {
        inner.errors_sent.fetch_add(1, Ordering::AcqRel);
    }
    let mut writer = stream;
    // The frame cap is a *request* defense; responses (tensor outputs) are
    // whatever the model produced, so write without the cap.
    if let Ok(wrote) = wire::write_response(&mut writer, id, response, u32::MAX) {
        inner.bytes_out.fetch_add(wrote, Ordering::AcqRel);
    }
}

fn send_error(
    inner: &Inner,
    stream: &TcpStream,
    id: u64,
    code: ErrorCode,
    message: String,
    detail: String,
) {
    send_response(
        inner,
        stream,
        id,
        &RpcResponse::Error {
            code,
            message,
            detail,
        },
    );
}

fn log_request(inner: &Inner, conn_id: u64, session: &Session, verb: &str, outcome: &str) {
    if let Some(sink) = &inner.sink {
        // Same label `record_verb` uses for the exposition — the telemetry
        // stream and `mlexray_rpc_requests_total` must agree on who an
        // unauthenticated peer is.
        let tenant = session.tenant.as_deref().unwrap_or("anonymous");
        sink.write(LogRecord {
            frame: conn_id,
            key: format!("rpc/{verb}"),
            value: LogValue::Text(format!("tenant={tenant} outcome={outcome}")),
        });
    }
}

/// A connection's socket read buffer: a 32 × 32 RGB `Infer` frame arrives
/// in one `read`.
const READ_BUFFER_BYTES: usize = 16 * 1024;

/// Capacity a connection's frame buffer keeps between frames: a larger
/// frame (a `Load` of a big graph, a large `Seal`) is read into a buffer
/// released once it is served, so an idle connection holds at most this.
const RETAINED_FRAME_BYTES: usize = 1 << 20;

fn handle_connection(inner: &Arc<Inner>, stream: &TcpStream, conn_id: u64) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(inner.config.poll_interval));
    let mut session = Session {
        tenant: None,
        arena: BTreeMap::new(),
        next_handle: 1,
        arena_bytes: 0,
        attached: BTreeMap::new(),
    };
    // One `read` takes in as much as the socket holds — a whole frame,
    // prefix and payload, when it has arrived — and every payload is copied
    // out into this one buffer.
    let mut reader = BufReader::with_capacity(READ_BUFFER_BYTES, stream);
    let mut payload = Vec::new();
    loop {
        let mut len_buf = [0u8; 4];
        match read_polled(&mut reader, &mut len_buf, inner, false) {
            ReadEnd::Frame => {}
            ReadEnd::CleanClose | ReadEnd::Stopped | ReadEnd::Failed => break,
            ReadEnd::Truncated => {
                send_error(
                    inner,
                    stream,
                    0,
                    ErrorCode::Truncated,
                    "stream ended mid-frame".into(),
                    String::new(),
                );
                break;
            }
        }
        let len = u32::from_le_bytes(len_buf);
        if len > inner.config.max_frame_len {
            // Refuse before allocating; the stream cannot be resynced past
            // an unread payload, so close.
            send_error(
                inner,
                stream,
                0,
                ErrorCode::PayloadTooLarge,
                format!(
                    "frame of {len} bytes exceeds the {}-byte cap",
                    inner.config.max_frame_len
                ),
                String::new(),
            );
            break;
        }
        payload.clear();
        payload.resize(len as usize, 0);
        match read_polled(&mut reader, &mut payload, inner, true) {
            ReadEnd::Frame => {}
            ReadEnd::CleanClose | ReadEnd::Stopped | ReadEnd::Failed => break,
            ReadEnd::Truncated => {
                send_error(
                    inner,
                    stream,
                    0,
                    ErrorCode::Truncated,
                    "stream ended mid-frame".into(),
                    String::new(),
                );
                break;
            }
        }
        inner.bytes_in.fetch_add(4 + len as u64, Ordering::AcqRel);
        let decode_started = Instant::now();
        match wire::decode_request(&payload) {
            Ok(frame) => {
                let decoded_at = Instant::now();
                if !dispatch(
                    inner,
                    stream,
                    &mut session,
                    conn_id,
                    frame,
                    (decode_started, decoded_at),
                ) {
                    break;
                }
            }
            Err(err) => {
                let id = match &err {
                    WireError::UnknownKind { id, .. } => *id,
                    _ => 0,
                };
                // Bad magic means the stream is not framed by this
                // protocol at all — close. Unknown verbs / versions /
                // malformed bodies leave framing intact, so the
                // connection survives for the client's next try.
                let fatal = matches!(err, WireError::BadMagic(_));
                send_error(
                    inner,
                    stream,
                    id,
                    err.code(),
                    err.to_string(),
                    String::new(),
                );
                if fatal {
                    break;
                }
            }
        }
        if payload.capacity() > RETAINED_FRAME_BYTES {
            payload = Vec::new();
        }
    }
    inner
        .sealed_bytes
        .fetch_sub(session.arena_bytes, Ordering::AcqRel);
}

/// Serves one decoded request; returns `false` to close the connection.
/// `decode_span` brackets the wire decode of this frame, feeding the
/// `rpc_decode` span of traced infers.
fn dispatch(
    inner: &Arc<Inner>,
    stream: &TcpStream,
    session: &mut Session,
    conn_id: u64,
    frame: wire::RequestFrame,
    decode_span: (Instant, Instant),
) -> bool {
    let id = frame.id;
    let verb = frame.request.verb();
    // Token-table servers require an authenticated session for everything
    // except the handshake itself and health probes.
    let needs_auth = inner.config.tokens.is_some()
        && session.tenant.is_none()
        && !matches!(frame.request, RpcRequest::Hello { .. } | RpcRequest::Status);
    if needs_auth {
        log_request(inner, conn_id, session, verb, "unauthenticated");
        record_verb(inner, session, verb, "unauthenticated");
        send_error(
            inner,
            stream,
            id,
            ErrorCode::Unauthenticated,
            "session must Hello with a known token first".into(),
            String::new(),
        );
        return true;
    }
    // A sampled wire-propagated trace gets door-side spans too: the frame
    // decode that already happened, and the response encode further down.
    let door_trace = match &frame.request {
        RpcRequest::Infer {
            model,
            trace: Some(t),
            ..
        } if t.sampled => Some((*t, model.clone())),
        _ => None,
    };
    if let Some((t, model)) = &door_trace {
        let (started, ended) = decode_span;
        inner
            .service
            .door_span(*t, model, SpanStage::RpcDecode, started, ended);
    }
    let reply = match frame.request {
        RpcRequest::Hello { token } => handle_hello(inner, session, token),
        RpcRequest::Load { spec, source } => handle_load(inner, spec, source),
        RpcRequest::Seal { tensors } => handle_seal(inner, session, tensors),
        RpcRequest::Infer {
            model,
            payload,
            deadline_ms,
            trace,
        } => handle_infer(inner, session, &model, payload, deadline_ms, trace),
        RpcRequest::Unseal { handle } => handle_unseal(inner, session, handle),
        RpcRequest::Status => Ok(handle_status(inner, session)),
        // Like Status, Metrics keeps answering during drain — drain is
        // exactly when an operator wants to watch the books settle.
        RpcRequest::Metrics => Ok(handle_metrics(inner)),
        // Trace answers during drain for the same reason: the spans of the
        // final admitted requests are exactly what an operator wants.
        RpcRequest::Trace { max } => Ok(handle_trace(inner, max)),
    };
    match reply {
        Ok(response) => {
            inner.requests_served.fetch_add(1, Ordering::AcqRel);
            log_request(inner, conn_id, session, verb, "ok");
            record_verb(inner, session, verb, "ok");
            let encode_started = Instant::now();
            send_response(inner, stream, id, &response);
            if let Some((t, model)) = &door_trace {
                let ended = Instant::now();
                inner
                    .service
                    .door_span(*t, model, SpanStage::RespondEncode, encode_started, ended);
            }
        }
        Err((code, message, detail)) => {
            log_request(inner, conn_id, session, verb, &code.to_string());
            record_verb(inner, session, verb, &code.to_string());
            send_error(inner, stream, id, code, message, detail);
        }
    }
    true
}

/// Bumps the per-(tenant, verb, outcome) request counter feeding
/// `mlexray_rpc_requests_total`.
fn record_verb(inner: &Inner, session: &Session, verb: &str, outcome: &str) {
    let tenant = session.tenant.clone().unwrap_or_else(|| "anonymous".into());
    *inner
        .verb_counters
        .lock()
        .entry((tenant, verb.to_string(), outcome.to_string()))
        .or_insert(0) += 1;
}

type VerbResult = Result<RpcResponse, (ErrorCode, String, String)>;

fn handle_hello(inner: &Inner, session: &mut Session, token: String) -> VerbResult {
    let tenant = match &inner.config.tokens {
        Some(table) => table.get(&token).cloned().ok_or_else(|| {
            (
                ErrorCode::Unauthenticated,
                "unknown token".into(),
                String::new(),
            )
        })?,
        None if token.is_empty() => "anonymous".to_string(),
        None => token,
    };
    session.tenant = Some(tenant.clone());
    Ok(RpcResponse::Hello { tenant })
}

fn serve_error_to_wire(error: ServeError) -> (ErrorCode, String, String) {
    match error {
        ServeError::LintFailed { model, report } => (
            ErrorCode::LintRejected,
            format!("model '{model}' rejected by static analysis"),
            report.to_json(),
        ),
        ServeError::UnknownModel(name) => (
            ErrorCode::UnknownModel,
            format!("unknown model '{name}'"),
            String::new(),
        ),
        ServeError::Nn(e @ NnError::Tensor(TensorError::AllocationRefused { .. })) => (
            ErrorCode::ResourceExhausted,
            format!("model rejected: {e}"),
            String::new(),
        ),
        ServeError::Nn(e) => (
            ErrorCode::Malformed,
            format!("model rejected: {e}"),
            String::new(),
        ),
        other => (ErrorCode::Internal, other.to_string(), String::new()),
    }
}

fn handle_load(inner: &Inner, spec: wire::WireSpec, source: LoadSource) -> VerbResult {
    if inner.draining.load(Ordering::Acquire) {
        return Err((
            ErrorCode::ShuttingDown,
            "server is draining".into(),
            String::new(),
        ));
    }
    let name = match &source {
        LoadSource::Zoo { family, .. } => family.clone(),
        LoadSource::GraphJson { name, .. } => name.clone(),
    };
    // Idempotent fast path: the name is already behind a worker pool.
    if inner.service.models().contains(&name) {
        return Ok(RpcResponse::Load {
            model: name,
            existing: true,
        });
    }
    let entry: Arc<ServedModel> = match source {
        LoadSource::Zoo {
            family,
            input,
            classes,
            seed,
        } => inner
            .registry
            .register_zoo(
                &family,
                input as usize,
                classes as usize,
                seed,
                spec.to_backend(),
            )
            .map_err(serve_error_to_wire)?,
        LoadSource::GraphJson { name, json } => {
            // Accept a serialized Model, or a bare Graph promoted to a
            // checkpoint — the exray-lint gate then runs inside
            // ServedModel::new on either.
            let model = match serde_json::from_str::<Model>(&json) {
                Ok(model) => model,
                Err(_) => match serde_json::from_str::<Graph>(&json) {
                    Ok(graph) => Model::checkpoint(graph, &name),
                    Err(e) => {
                        return Err((
                            ErrorCode::Malformed,
                            format!("payload parses as neither Model nor Graph: {e}"),
                            String::new(),
                        ))
                    }
                },
            };
            inner
                .registry
                .register_model(&name, model, spec.to_backend())
                .map_err(serve_error_to_wire)?
        }
    };
    let added = inner
        .service
        .add_model(entry)
        .map_err(serve_error_to_wire)?;
    Ok(RpcResponse::Load {
        model: name,
        existing: !added,
    })
}

fn handle_seal(inner: &Inner, session: &mut Session, tensors: Vec<Tensor>) -> VerbResult {
    if inner.draining.load(Ordering::Acquire) {
        return Err((
            ErrorCode::ShuttingDown,
            "server is draining".into(),
            String::new(),
        ));
    }
    let bytes: u64 = tensors.iter().map(|t| t.byte_size() as u64).sum();
    if session.arena_bytes + bytes > inner.config.max_sealed_bytes {
        return Err((
            ErrorCode::SealLimitExceeded,
            format!(
                "sealing {bytes} bytes would exceed the {}-byte session arena",
                inner.config.max_sealed_bytes
            ),
            String::new(),
        ));
    }
    let handle = session.next_handle;
    session.next_handle += 1;
    session.arena.insert(handle, Arc::new(tensors));
    session.arena_bytes += bytes;
    inner.sealed_bytes.fetch_add(bytes, Ordering::AcqRel);
    Ok(RpcResponse::Seal { handle, bytes })
}

fn rejection_to_wire(rejection: Rejection) -> (ErrorCode, String, String) {
    let message = rejection.to_string();
    let code = match rejection.reason {
        RejectReason::UnknownModel => ErrorCode::UnknownModel,
        RejectReason::QueueFull { .. } => ErrorCode::QueueFull,
        RejectReason::DeadlineExpired { .. } => ErrorCode::DeadlineExpired,
        RejectReason::ShuttingDown => ErrorCode::ShuttingDown,
        RejectReason::BadInput { .. } => ErrorCode::BadInput,
        RejectReason::ExecutionFailed { .. } => ErrorCode::ExecutionFailed,
        RejectReason::ChannelClosed => ErrorCode::Internal,
    };
    (code, message, String::new())
}

fn handle_infer(
    inner: &Inner,
    session: &mut Session,
    model: &str,
    payload: InferPayload,
    deadline_ms: u32,
    trace: Option<TraceContext>,
) -> VerbResult {
    if inner.draining.load(Ordering::Acquire) {
        return Err((
            ErrorCode::ShuttingDown,
            "server is draining".into(),
            String::new(),
        ));
    }
    // Zero-copy dispatch: sealed inputs are the arena's Arc, cloned by
    // pointer; inline inputs were decoded once off the wire and wrapped.
    let inputs: Arc<Vec<Tensor>> = match payload {
        InferPayload::Tensors(tensors) => Arc::new(tensors),
        InferPayload::Sealed(handle) => session.arena.get(&handle).cloned().ok_or_else(|| {
            (
                ErrorCode::UnknownHandle,
                format!("handle {handle} is not sealed in this session"),
                String::new(),
            )
        })?,
    };
    let deadline = (deadline_ms > 0).then(|| Duration::from_millis(u64::from(deadline_ms)));
    // Attach on the first Infer to a model; an unknown model has no ledger
    // and takes the plain path to its typed refusal.
    if !session.attached.contains_key(model) {
        if let Some(caller) = inner.service.attach_caller(model) {
            session.attached.insert(model.to_string(), caller);
        }
    }
    let pending = inner
        .service
        .submit_from(session.attached.get(model), model, inputs, deadline, trace)
        .map_err(rejection_to_wire)?;
    // Blocking here is what makes the connection closed-loop: the batcher
    // relies on this thread not reading another frame until the answer.
    let response = pending.wait().map_err(rejection_to_wire)?;
    Ok(RpcResponse::Infer(WireInferResponse {
        request_id: response.request_id,
        outputs: response.outputs,
        total_latency_us: response.total_latency.as_micros() as u64,
        exec_latency_us: response.exec_latency.as_micros() as u64,
        batch_size: response.batch_size as u32,
        sampled: response.sampled,
    }))
}

fn handle_unseal(inner: &Inner, session: &mut Session, handle: SealHandle) -> VerbResult {
    let Some(tensors) = session.arena.remove(&handle) else {
        return Err((
            ErrorCode::UnknownHandle,
            format!("handle {handle} is not sealed in this session"),
            String::new(),
        ));
    };
    let freed: u64 = tensors.iter().map(|t| t.byte_size() as u64).sum();
    session.arena_bytes -= freed;
    inner.sealed_bytes.fetch_sub(freed, Ordering::AcqRel);
    Ok(RpcResponse::Unseal { freed_bytes: freed })
}

fn handle_status(inner: &Inner, session: &Session) -> RpcResponse {
    let draining = inner.draining.load(Ordering::Acquire);
    let models = inner
        .service
        .models()
        .into_iter()
        .filter_map(|name| {
            let stats = inner.service.stats(&name)?;
            Some(ModelStatus {
                name: name.clone(),
                // Saturate, never truncate: a queue deeper than u32::MAX
                // must not report as nearly empty.
                queue_depth: inner
                    .service
                    .queue_depth(&name)
                    .map_or(0, |depth| u32::try_from(depth).unwrap_or(u32::MAX)),
                offered: stats.offered,
                completed: stats.completed,
            })
        })
        .collect();
    // Status never requires authentication, so on token-table servers an
    // unauthenticated probe must only see its own session's arena usage,
    // not the server-global figure.
    let sealed_bytes = if inner.config.tokens.is_some() && session.tenant.is_none() {
        session.arena_bytes
    } else {
        inner.sealed_bytes.load(Ordering::Acquire)
    };
    // Trace visibility: how much the sampler admitted and whether the ring
    // pipeline ever lost a span. Zeros when tracing is off.
    let (dropped_spans, trace_sampled) = match inner.service.trace_hub() {
        Some(hub) => {
            hub.collect();
            let counters = hub.counters();
            (counters.dropped_spans, counters.sampled)
        }
        None => (0, 0),
    };
    RpcResponse::Status(StatusReply {
        ready: !draining && inner.service.is_accepting(),
        draining,
        open_connections: inner.open_connections.load(Ordering::Acquire),
        sealed_bytes,
        models,
        dropped_spans,
        trace_sampled,
    })
}

fn handle_metrics(inner: &Inner) -> RpcResponse {
    RpcResponse::Metrics {
        exposition: inner.metrics.render(),
    }
}

/// Answers the `Trace` verb: drains the span pipeline and renders the
/// retained completed traces as Chrome-trace JSON (Perfetto-loadable).
/// With tracing off the reply is an empty — still loadable — document, not
/// an error: a scraper should not have to know the service's trace policy.
fn handle_trace(inner: &Inner, max: u32) -> RpcResponse {
    let Some(hub) = inner.service.trace_hub() else {
        return RpcResponse::Trace {
            json: chrome_trace_json(&[]),
            traces: 0,
            dropped_spans: 0,
        };
    };
    let traces = hub.take_completed(max as usize);
    RpcResponse::Trace {
        json: chrome_trace_json(&traces),
        traces: traces.len() as u32,
        dropped_spans: hub.counters().dropped_spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceConfig;
    use mlexray_nn::BackendSpec;

    /// The acceptor joins connection threads that have finished, so what a
    /// long-lived server holds is bounded by the connections open at once,
    /// not by the connections ever accepted.
    #[test]
    fn finished_connection_threads_are_reaped() {
        let registry = ModelRegistry::new();
        registry
            .register_zoo("mini_mobilenet_v2", 24, 8, 1, BackendSpec::reference())
            .unwrap();
        let service = InferenceService::start(&registry, ServiceConfig::default(), None).unwrap();
        let config = RpcServerConfig {
            poll_interval: Duration::from_millis(1),
            ..Default::default()
        };
        let server = RpcServer::start("127.0.0.1:0", service, registry, config, None).unwrap();
        let inner = &server.inner;
        for _ in 0..200 {
            drop(TcpStream::connect(server.local_addr()).unwrap());
        }
        while inner.connections_accepted.load(Ordering::Acquire) < 200
            || inner.open_connections.load(Ordering::Acquire) > 0
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Two more: a connection is counted before the acceptor reaps, so
        // once the second is counted the first's reaping pass is over.
        let _open = [(); 2].map(|()| TcpStream::connect(server.local_addr()).unwrap());
        while inner.connections_accepted.load(Ordering::Acquire) < 202 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // A thread that has just lowered the gauge may not read as finished
        // yet, hence a bound and not 2.
        let held = inner.conn_handles.lock().len();
        assert!(held < 10, "{held} handles held after 202 connections");
        server.shutdown();
    }

    /// A connection whose thread cannot start is refused like one at a
    /// draining door — counted as refused, not accepted, the open count
    /// restored, a typed frame sent — only with [`ErrorCode::Internal`]; the
    /// door keeps serving.
    #[test]
    fn a_connection_thread_that_cannot_start_is_refused_typed() {
        let registry = ModelRegistry::new();
        registry
            .register_zoo("mini_mobilenet_v2", 24, 8, 1, BackendSpec::reference())
            .unwrap();
        let service = InferenceService::start(&registry, ServiceConfig::default(), None).unwrap();
        let server =
            RpcServer::start("127.0.0.1:0", service, registry, Default::default(), None).unwrap();
        let inner = &server.inner;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let counts = || {
            [
                &inner.connections_accepted,
                &inner.connections_refused,
                &inner.errors_sent,
            ]
            .map(|c| c.load(Ordering::Acquire))
        };
        let before = counts();
        let open = inner.open_connections.load(Ordering::Acquire);

        admit(inner, stream, |_, _| {
            Err(std::io::Error::other("no threads left"))
        });

        let [accepted, refused, errors] = before;
        assert_eq!(counts(), [accepted, refused + 1, errors + 1]);
        assert_eq!(inner.open_connections.load(Ordering::Acquire), open);
        let payload = wire::read_frame(&mut client, u32::MAX).unwrap().unwrap();
        match wire::decode_response(&payload).unwrap().response {
            RpcResponse::Error { code, message, .. } => {
                assert_eq!(code, ErrorCode::Internal);
                assert!(message.contains("no threads left"), "{message}");
            }
            other => panic!("expected an error frame, got {other:?}"),
        }
        let mut next = crate::rpc::RpcClient::connect(server.local_addr()).unwrap();
        assert!(next.status().unwrap().ready);
        drop(next);
        server.shutdown();
    }
}
