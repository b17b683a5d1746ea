//! The wire protocol of the RPC front door.
//!
//! # Frame layout
//!
//! Every message travels as one *frame* on the TCP stream:
//!
//! ```text
//! [ len: u32 LE ][ payload: len bytes ]
//! payload = [ magic: u16 LE ][ version: u8 ][ kind: u8 ][ id: u64 LE ][ body ]
//! ```
//!
//! `len` counts the payload only (not itself) and is bounded by the
//! server's configured maximum — an oversized announcement is answered
//! with a [`ErrorCode::PayloadTooLarge`] error frame and the connection is
//! closed, *before* any allocation of the announced size. `id` is a
//! client-chosen correlation id echoed verbatim on the response.
//!
//! All integers are little-endian. Strings are `u32` length + UTF-8
//! bytes. Tensors use the codec described on [`RpcRequest::Seal`].
//!
//! # Versioning rules
//!
//! `magic` pins the protocol family; `version` the revision, and exactly
//! one revision ([`VERSION`]) is spoken. A server answers a frame whose
//! magic it does not recognize with [`ErrorCode::BadMagic`] and closes (the
//! stream cannot be trusted to be framed at all); any other version gets
//! [`ErrorCode::UnsupportedVersion`] but keeps the connection (framing is
//! intact, the client may retry in the version the error names). Body
//! layouts never change within a version — new verbs require a version
//! bump.
//!
//! The full byte-level specification lives in `docs/wire-protocol.md`.

use std::fmt;
use std::io::{self, Read, Write};

use mlexray_core::TraceContext;
use mlexray_nn::BackendSpec;
use mlexray_tensor::{DType, QuantParams, Shape, Tensor};

/// Protocol magic: `"XR"` little-endian, first on every frame payload.
pub const MAGIC: u16 = 0x5852;
/// The protocol revision, and the only one spoken: a frame at any other
/// version is refused with `UnsupportedVersion`. (Version 2 added the
/// `Metrics` verb, kind 7; version 3 the optional trace-context extension
/// on `Infer` bodies, the `Trace` verb, kind 8, and the trace counters on
/// `Status` replies.)
pub const VERSION: u8 = 3;
/// Default upper bound on one frame's payload length (32 MiB).
pub const DEFAULT_MAX_FRAME_LEN: u32 = 32 * 1024 * 1024;

/// A server-issued reference to tensors sealed in a session's arena:
/// upload once via [`RpcRequest::Seal`], then re-infer any number of times
/// by handle — 8 bytes on the wire instead of the tensors.
pub type SealHandle = u64;

const KIND_HELLO: u8 = 1;
const KIND_LOAD: u8 = 2;
const KIND_SEAL: u8 = 3;
const KIND_INFER: u8 = 4;
const KIND_UNSEAL: u8 = 5;
const KIND_STATUS: u8 = 6;
const KIND_METRICS: u8 = 7;
const KIND_TRACE: u8 = 8;
const RESP_BIT: u8 = 0x80;
const KIND_ERROR: u8 = 0xFF;

/// Typed failure codes carried by [`RpcResponse::Error`] frames. The
/// numeric values are wire-stable: codes are only ever appended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Frame payload did not start with the protocol magic; the stream is
    /// not speaking this protocol and the connection closes.
    BadMagic,
    /// Recognized magic, unknown protocol revision.
    UnsupportedVersion,
    /// Recognized header, unknown verb for this revision.
    UnknownVerb,
    /// The body did not decode under the verb's schema.
    Malformed,
    /// Announced payload length exceeded the server's frame cap.
    PayloadTooLarge,
    /// The connection died (or went silent) mid-frame.
    Truncated,
    /// The verb requires an authenticated session (`Hello` first, with a
    /// token the server knows).
    Unauthenticated,
    /// The named model is not served.
    UnknownModel,
    /// The [`SealHandle`] is not (or no longer) sealed in this session.
    UnknownHandle,
    /// Sealing would exceed the per-session arena budget.
    SealLimitExceeded,
    /// `Load` was refused by static analysis; `detail` carries the full
    /// lint report as JSON.
    LintRejected,
    /// Admission control shed the request: the model's queue was full.
    QueueFull,
    /// The request's deadline expired before a worker dequeued it.
    DeadlineExpired,
    /// The server is draining and no longer admits work.
    ShuttingDown,
    /// The batched invoke itself failed.
    ExecutionFailed,
    /// Any other server-side failure.
    Internal,
}

impl ErrorCode {
    /// Wire value.
    pub fn as_u16(self) -> u16 {
        match self {
            ErrorCode::BadMagic => 1,
            ErrorCode::UnsupportedVersion => 2,
            ErrorCode::UnknownVerb => 3,
            ErrorCode::Malformed => 4,
            ErrorCode::PayloadTooLarge => 5,
            ErrorCode::Truncated => 6,
            ErrorCode::Unauthenticated => 7,
            ErrorCode::UnknownModel => 8,
            ErrorCode::UnknownHandle => 9,
            ErrorCode::SealLimitExceeded => 10,
            ErrorCode::LintRejected => 11,
            ErrorCode::QueueFull => 12,
            ErrorCode::DeadlineExpired => 13,
            ErrorCode::ShuttingDown => 14,
            ErrorCode::ExecutionFailed => 15,
            ErrorCode::Internal => 16,
        }
    }

    /// Decodes a wire value (unknown values collapse to
    /// [`ErrorCode::Internal`] so old clients survive new codes).
    pub fn from_u16(value: u16) -> Self {
        match value {
            1 => ErrorCode::BadMagic,
            2 => ErrorCode::UnsupportedVersion,
            3 => ErrorCode::UnknownVerb,
            4 => ErrorCode::Malformed,
            5 => ErrorCode::PayloadTooLarge,
            6 => ErrorCode::Truncated,
            7 => ErrorCode::Unauthenticated,
            8 => ErrorCode::UnknownModel,
            9 => ErrorCode::UnknownHandle,
            10 => ErrorCode::SealLimitExceeded,
            11 => ErrorCode::LintRejected,
            12 => ErrorCode::QueueFull,
            13 => ErrorCode::DeadlineExpired,
            14 => ErrorCode::ShuttingDown,
            15 => ErrorCode::ExecutionFailed,
            _ => ErrorCode::Internal,
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrorCode::BadMagic => "bad-magic",
            ErrorCode::UnsupportedVersion => "unsupported-version",
            ErrorCode::UnknownVerb => "unknown-verb",
            ErrorCode::Malformed => "malformed",
            ErrorCode::PayloadTooLarge => "payload-too-large",
            ErrorCode::Truncated => "truncated",
            ErrorCode::Unauthenticated => "unauthenticated",
            ErrorCode::UnknownModel => "unknown-model",
            ErrorCode::UnknownHandle => "unknown-handle",
            ErrorCode::SealLimitExceeded => "seal-limit-exceeded",
            ErrorCode::LintRejected => "lint-rejected",
            ErrorCode::QueueFull => "queue-full",
            ErrorCode::DeadlineExpired => "deadline-expired",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::ExecutionFailed => "execution-failed",
            ErrorCode::Internal => "internal",
        };
        f.write_str(name)
    }
}

/// The backend a wire `Load` binds the model to. Only the clean specs are
/// wire-expressible — defect injection stays a local, test-only affair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireSpec {
    /// The trusted reference backend.
    Reference,
    /// The optimized serving backend.
    Optimized,
    /// The SIMD-tiled GEMM backend (runtime feature dispatch with a
    /// bitwise-identical scalar fallback, so the tag means the same
    /// numerics on every host).
    Simd,
}

impl WireSpec {
    /// The [`BackendSpec`] this wire value selects.
    pub fn to_backend(self) -> BackendSpec {
        match self {
            WireSpec::Reference => BackendSpec::reference(),
            WireSpec::Optimized => BackendSpec::optimized(),
            WireSpec::Simd => BackendSpec::simd(),
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            WireSpec::Reference => 0,
            WireSpec::Optimized => 1,
            WireSpec::Simd => 2,
        }
    }

    fn from_u8(value: u8) -> Result<Self, WireError> {
        match value {
            0 => Ok(WireSpec::Reference),
            1 => Ok(WireSpec::Optimized),
            2 => Ok(WireSpec::Simd),
            other => Err(WireError::Malformed(format!(
                "unknown backend spec tag {other}"
            ))),
        }
    }
}

/// What a `Load` builds the model from.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadSource {
    /// A zoo family built server-side (the model is never on the wire).
    Zoo {
        /// Family name (`mini_mobilenet_v2`, ...) — also the serving name.
        family: String,
        /// Input resolution.
        input: u32,
        /// Classifier width.
        classes: u32,
        /// Weight seed.
        seed: u64,
    },
    /// A JSON-serialized `Model` (or bare `Graph`) uploaded by the client.
    GraphJson {
        /// The serving name to register under.
        name: String,
        /// The serialized artifact.
        json: String,
    },
}

/// How an `Infer` supplies its inputs.
#[derive(Debug, Clone, PartialEq)]
pub enum InferPayload {
    /// Inline tensors, uploaded with this request.
    Tensors(Vec<Tensor>),
    /// A handle to tensors sealed earlier in this session — 8 bytes on the
    /// wire, zero copies on the server.
    Sealed(SealHandle),
}

/// A client → server message.
///
/// The tensor codec (used by `Seal` and inline `Infer`): `u32` count, then
/// per tensor `dtype:u8` (0=f32 1=u8 2=i8 3=i32), `rank:u8`,
/// `rank × dim:u32`, a quantization tag (`0` none; `1` per-tensor:
/// `scale:f32 zero_point:i32`; `2` per-channel: `axis:u32 n:u32 n×scale:f32
/// n×zero_point:i32`), then `u32` data byte length + raw little-endian
/// element bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum RpcRequest {
    /// Opens (or re-keys) the session: presents a bearer token the server
    /// maps to a tenant. Required before other verbs when the server runs
    /// with a token table.
    Hello {
        /// Bearer token (empty = anonymous, where the server allows it).
        token: String,
    },
    /// Loads a model into the running service — the verb `exray-lint`
    /// gates: a graph carrying Deny diagnostics is refused with
    /// [`ErrorCode::LintRejected`] and the report in the error detail.
    Load {
        /// Backend to serve under.
        spec: WireSpec,
        /// Where the model comes from.
        source: LoadSource,
    },
    /// Uploads tensors into the session arena; the reply's [`SealHandle`]
    /// re-infers against them without re-uploading.
    Seal {
        /// The tensors to seal (one inference's inputs).
        tensors: Vec<Tensor>,
    },
    /// Runs one inference.
    Infer {
        /// Serving name of the model.
        model: String,
        /// Inline tensors or a sealed handle.
        payload: InferPayload,
        /// Per-request deadline in milliseconds (`0` = none).
        deadline_ms: u32,
        /// The trace-context extension: a caller-propagated trace
        /// identity the server carries through the whole serving path.
        /// `None` leaves sampling to the server's own deterministic clock.
        trace: Option<TraceContext>,
    },
    /// Releases a sealed handle's tensors.
    Unseal {
        /// The handle to release.
        handle: SealHandle,
    },
    /// Health/readiness probe; also the graceful-drain observability verb.
    Status,
    /// Scrapes the server's metrics registry: the reply carries the full
    /// Prometheus text exposition (serve books, latency histograms, sink
    /// backpressure, RPC session counters). Answered during drain;
    /// requires authentication when the server runs with a token table.
    Metrics,
    /// Takes up to `max` recently completed traces from the span pipeline
    /// as Chrome-trace-format JSON. Like `Metrics`, answered during drain
    /// — tracing is exactly what you want from a draining server. A server
    /// running with tracing off answers an empty document, not an error.
    Trace {
        /// Most traces to return (`0` = all currently retained).
        max: u32,
    },
}

impl RpcRequest {
    fn kind(&self) -> u8 {
        match self {
            RpcRequest::Hello { .. } => KIND_HELLO,
            RpcRequest::Load { .. } => KIND_LOAD,
            RpcRequest::Seal { .. } => KIND_SEAL,
            RpcRequest::Infer { .. } => KIND_INFER,
            RpcRequest::Unseal { .. } => KIND_UNSEAL,
            RpcRequest::Status => KIND_STATUS,
            RpcRequest::Metrics => KIND_METRICS,
            RpcRequest::Trace { .. } => KIND_TRACE,
        }
    }

    /// The verb's lowercase name (request-log keys, error messages).
    pub fn verb(&self) -> &'static str {
        match self {
            RpcRequest::Hello { .. } => "hello",
            RpcRequest::Load { .. } => "load",
            RpcRequest::Seal { .. } => "seal",
            RpcRequest::Infer { .. } => "infer",
            RpcRequest::Unseal { .. } => "unseal",
            RpcRequest::Status => "status",
            RpcRequest::Metrics => "metrics",
            RpcRequest::Trace { .. } => "trace",
        }
    }
}

/// One completed inference as reported over the wire (the subset of
/// [`crate::InferResponse`] that serializes).
#[derive(Debug, Clone, PartialEq)]
pub struct WireInferResponse {
    /// The service's admission id (not the frame correlation id).
    pub request_id: u64,
    /// Output tensors — bitwise-identical to an in-process submit.
    pub outputs: Vec<Tensor>,
    /// End-to-end service latency (admission → reply), microseconds.
    pub total_latency_us: u64,
    /// This request's share of the batched invoke, microseconds.
    pub exec_latency_us: u64,
    /// Batch the request was coalesced into.
    pub batch_size: u32,
    /// Whether deep EXray capture ran for this request.
    pub sampled: bool,
}

/// One model's row in a [`StatusReply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelStatus {
    /// Serving name.
    pub name: String,
    /// Current queue depth.
    pub queue_depth: u32,
    /// Requests offered since start.
    pub offered: u64,
    /// Requests completed since start.
    pub completed: u64,
}

/// The `Status` verb's reply: readiness, drain state and per-model load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatusReply {
    /// True while the server admits new work (the readiness signal).
    pub ready: bool,
    /// True once graceful drain has begun.
    pub draining: bool,
    /// Currently open client connections.
    pub open_connections: u32,
    /// Bytes currently sealed across all session arenas.
    pub sealed_bytes: u64,
    /// Per-model load, sorted by name.
    pub models: Vec<ModelStatus>,
    /// Spans the span pipeline dropped (ring overwrites, torn reads,
    /// pending-trace evictions) — bounded tracing sheds under pressure,
    /// but the shed is always visible here. `0` when tracing is off.
    pub dropped_spans: u64,
    /// Requests the trace sampler selected (every-Nth clock plus forced
    /// anomaly samples). `0` when tracing is off.
    pub trace_sampled: u64,
}

/// The `Trace` verb's reply as the typed client surfaces it
/// ([`RpcClient::trace`](crate::rpc::RpcClient::trace)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceReply {
    /// Chrome-trace-format JSON — write to a file and load in Perfetto or
    /// `chrome://tracing`. An empty event list when tracing is off.
    pub json: String,
    /// How many traces the document carries.
    pub traces: u32,
    /// The span pipeline's dropped-span counter at reply time.
    pub dropped_spans: u64,
}

/// A server → client message. Every response echoes the request's
/// correlation id; the kind is the request's kind with the high bit set,
/// or [`RpcResponse::Error`]'s dedicated kind.
#[derive(Debug, Clone, PartialEq)]
pub enum RpcResponse {
    /// `Hello` accepted; the tenant the token mapped to.
    Hello {
        /// Resolved tenant name.
        tenant: String,
    },
    /// `Load` succeeded (or found the model already serving).
    Load {
        /// The serving name.
        model: String,
        /// True when the name was already served and the existing pool was
        /// kept (re-loading is idempotent).
        existing: bool,
    },
    /// `Seal` succeeded.
    Seal {
        /// The handle that now re-infers against the sealed tensors.
        handle: SealHandle,
        /// Bytes of tensor data sealed.
        bytes: u64,
    },
    /// `Infer` completed.
    Infer(WireInferResponse),
    /// `Unseal` released the handle.
    Unseal {
        /// Bytes of tensor data released.
        freed_bytes: u64,
    },
    /// `Status` report.
    Status(StatusReply),
    /// `Metrics` scrape: the Prometheus text exposition.
    Metrics {
        /// Rendered exposition (format 0.0.4); see `docs/metrics.md`.
        exposition: String,
    },
    /// `Trace` reply: recently completed traces, ready for Perfetto
    /// ([`RpcClient::trace`](crate::rpc::RpcClient::trace) lifts this into
    /// a [`TraceReply`]).
    Trace {
        /// Chrome-trace-format JSON (`{"traceEvents":[...]}`); an empty
        /// event list when the server runs with tracing off.
        json: String,
        /// How many traces the document carries.
        traces: u32,
        /// The pipeline's dropped-span counter at reply time.
        dropped_spans: u64,
    },
    /// The request failed; see [`ErrorCode`] for the taxonomy.
    Error {
        /// Typed failure code.
        code: ErrorCode,
        /// Human-readable summary.
        message: String,
        /// Machine-readable context (the lint report JSON for
        /// [`ErrorCode::LintRejected`]; empty otherwise).
        detail: String,
    },
}

impl RpcResponse {
    fn kind(&self) -> u8 {
        match self {
            RpcResponse::Hello { .. } => KIND_HELLO | RESP_BIT,
            RpcResponse::Load { .. } => KIND_LOAD | RESP_BIT,
            RpcResponse::Seal { .. } => KIND_SEAL | RESP_BIT,
            RpcResponse::Infer(_) => KIND_INFER | RESP_BIT,
            RpcResponse::Unseal { .. } => KIND_UNSEAL | RESP_BIT,
            RpcResponse::Status(_) => KIND_STATUS | RESP_BIT,
            RpcResponse::Metrics { .. } => KIND_METRICS | RESP_BIT,
            RpcResponse::Trace { .. } => KIND_TRACE | RESP_BIT,
            RpcResponse::Error { .. } => KIND_ERROR,
        }
    }
}

/// A decoded request frame: correlation id + verb.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestFrame {
    /// Client-chosen correlation id, echoed on the response.
    pub id: u64,
    /// The verb.
    pub request: RpcRequest,
}

/// A decoded response frame: correlation id + payload.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseFrame {
    /// Correlation id of the request this answers.
    pub id: u64,
    /// The payload.
    pub response: RpcResponse,
}

/// Why a frame failed to read or decode.
#[derive(Debug)]
pub enum WireError {
    /// Transport failure.
    Io(io::Error),
    /// Payload did not start with [`MAGIC`].
    BadMagic(u16),
    /// Unknown protocol revision.
    UnsupportedVersion(u8),
    /// Unknown verb/response kind. The correlation id is preserved when
    /// the header up to it decoded, so the server can still address its
    /// error frame.
    UnknownKind {
        /// The unrecognized kind byte.
        kind: u8,
        /// Correlation id from the offending frame.
        id: u64,
    },
    /// Body bytes did not match the verb's schema.
    Malformed(String),
    /// Announced frame length exceeds the configured cap.
    FrameTooLarge {
        /// Announced payload length.
        len: u32,
        /// Configured cap.
        max: u32,
    },
    /// The stream ended (or went silent) mid-frame.
    Truncated,
}

impl WireError {
    /// The [`ErrorCode`] a server reports for this failure.
    pub fn code(&self) -> ErrorCode {
        match self {
            WireError::Io(_) => ErrorCode::Internal,
            WireError::BadMagic(_) => ErrorCode::BadMagic,
            WireError::UnsupportedVersion(_) => ErrorCode::UnsupportedVersion,
            WireError::UnknownKind { .. } => ErrorCode::UnknownVerb,
            WireError::Malformed(_) => ErrorCode::Malformed,
            WireError::FrameTooLarge { .. } => ErrorCode::PayloadTooLarge,
            WireError::Truncated => ErrorCode::Truncated,
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io: {e}"),
            WireError::BadMagic(found) => {
                write!(f, "bad magic {found:#06x} (expected {MAGIC:#06x})")
            }
            WireError::UnsupportedVersion(found) => {
                write!(
                    f,
                    "unsupported protocol version {found} (speaking {VERSION})"
                )
            }
            WireError::UnknownKind { kind, .. } => write!(f, "unknown frame kind {kind:#04x}"),
            WireError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            WireError::Truncated => write!(f, "stream truncated mid-frame"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Byte-level encoding
// ---------------------------------------------------------------------------

#[derive(Default)]
struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn put_quant(&mut self, quant: Option<&QuantParams>) {
        match quant {
            None => self.put_u8(0),
            Some(QuantParams::PerTensor { scale, zero_point }) => {
                self.put_u8(1);
                self.put_f32(*scale);
                self.put_i32(*zero_point);
            }
            Some(QuantParams::PerChannel {
                scales,
                zero_points,
                axis,
            }) => {
                self.put_u8(2);
                self.put_u32(*axis as u32);
                self.put_u32(scales.len() as u32);
                for s in scales {
                    self.put_f32(*s);
                }
                for z in zero_points {
                    self.put_i32(*z);
                }
            }
        }
    }

    fn put_tensor(&mut self, tensor: &Tensor) {
        let dtype = match tensor.dtype() {
            DType::F32 => 0u8,
            DType::U8 => 1,
            DType::I8 => 2,
            DType::I32 => 3,
        };
        self.put_u8(dtype);
        let dims = tensor.shape().dims();
        self.put_u8(dims.len() as u8);
        for d in dims {
            self.put_u32(*d as u32);
        }
        self.put_quant(tensor.quant());
        match tensor.dtype() {
            DType::F32 => {
                let data = tensor.as_f32().expect("dtype matched");
                self.put_u32((data.len() * 4) as u32);
                for v in data {
                    self.put_f32(*v);
                }
            }
            DType::U8 => {
                let data = tensor.as_u8().expect("dtype matched");
                self.put_u32(data.len() as u32);
                self.buf.extend_from_slice(data);
            }
            DType::I8 => {
                let data = tensor.as_i8().expect("dtype matched");
                self.put_u32(data.len() as u32);
                for v in data {
                    self.buf.push(*v as u8);
                }
            }
            DType::I32 => {
                let data = tensor.as_i32().expect("dtype matched");
                self.put_u32((data.len() * 4) as u32);
                for v in data {
                    self.put_i32(*v);
                }
            }
        }
    }

    fn put_tensors(&mut self, tensors: &[Tensor]) {
        self.put_u32(tensors.len() as u32);
        for t in tensors {
            self.put_tensor(t);
        }
    }
}

struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Malformed(format!(
                "body ends {} bytes short",
                n - self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn take_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn take_u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn take_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn take_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn take_f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn take_i32(&mut self) -> Result<i32, WireError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a length-prefixed UTF-8 string, validating the claimed length
    /// against the bytes actually present before allocating.
    fn take_str(&mut self) -> Result<String, WireError> {
        let len = self.take_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Malformed("string is not UTF-8".into()))
    }

    fn take_quant(&mut self) -> Result<Option<QuantParams>, WireError> {
        match self.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(QuantParams::PerTensor {
                scale: self.take_f32()?,
                zero_point: self.take_i32()?,
            })),
            2 => {
                let axis = self.take_u32()? as usize;
                let n = self.take_u32()? as usize;
                if self.remaining() < n * 8 {
                    return Err(WireError::Malformed(
                        "per-channel parameter count exceeds body".into(),
                    ));
                }
                let mut scales = Vec::with_capacity(n);
                for _ in 0..n {
                    scales.push(self.take_f32()?);
                }
                let mut zero_points = Vec::with_capacity(n);
                for _ in 0..n {
                    zero_points.push(self.take_i32()?);
                }
                Ok(Some(QuantParams::PerChannel {
                    scales,
                    zero_points,
                    axis,
                }))
            }
            other => Err(WireError::Malformed(format!(
                "unknown quantization tag {other}"
            ))),
        }
    }

    fn take_tensor(&mut self) -> Result<Tensor, WireError> {
        let dtype = match self.take_u8()? {
            0 => DType::F32,
            1 => DType::U8,
            2 => DType::I8,
            3 => DType::I32,
            other => return Err(WireError::Malformed(format!("unknown dtype tag {other}"))),
        };
        let rank = self.take_u8()? as usize;
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(self.take_u32()? as usize);
        }
        let shape = Shape::new(dims);
        let quant = self.take_quant()?;
        let data_len = self.take_u32()? as usize;
        let data = self.take(data_len)?;
        let element = dtype.byte_size();
        if !data_len.is_multiple_of(element) {
            return Err(WireError::Malformed(format!(
                "data length {data_len} is not a multiple of the {element}-byte element"
            )));
        }
        let tensor = match dtype {
            DType::F32 => {
                let values = data
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                    .collect();
                Tensor::from_f32(shape, values)
            }
            DType::U8 => {
                let quant = quant.ok_or_else(|| {
                    WireError::Malformed("u8 tensor requires quantization parameters".into())
                })?;
                Tensor::from_u8(shape, data.to_vec(), quant)
            }
            DType::I8 => {
                let quant = quant.ok_or_else(|| {
                    WireError::Malformed("i8 tensor requires quantization parameters".into())
                })?;
                Tensor::from_i8(shape, data.iter().map(|b| *b as i8).collect(), quant)
            }
            DType::I32 => {
                let values = data
                    .chunks_exact(4)
                    .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
                    .collect();
                Tensor::from_i32(shape, values, quant)
            }
        };
        tensor.map_err(|e| WireError::Malformed(format!("tensor rejected: {e}")))
    }

    fn take_tensors(&mut self) -> Result<Vec<Tensor>, WireError> {
        let count = self.take_u32()? as usize;
        // A tensor costs at least 8 bytes on the wire; reject impossible
        // counts before reserving anything.
        if count > self.remaining() / 8 {
            return Err(WireError::Malformed(format!(
                "tensor count {count} exceeds body"
            )));
        }
        let mut tensors = Vec::with_capacity(count);
        for _ in 0..count {
            tensors.push(self.take_tensor()?);
        }
        Ok(tensors)
    }

    fn expect_end(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Malformed(format!(
                "{} trailing bytes after body",
                self.remaining()
            )));
        }
        Ok(())
    }
}

fn header(kind: u8, id: u64) -> ByteWriter {
    let mut w = ByteWriter::default();
    w.put_u16(MAGIC);
    w.put_u8(VERSION);
    w.put_u8(kind);
    w.put_u64(id);
    w
}

/// Reads magic/version/kind/id off a payload. Unknown kinds are *not*
/// rejected here — [`decode_request`]/[`decode_response`] police the kind
/// against their own tables.
fn decode_header(payload: &[u8]) -> Result<(u8, u64, ByteReader<'_>), WireError> {
    let mut r = ByteReader::new(payload);
    let magic = r.take_u16().map_err(|_| WireError::Truncated)?;
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = r.take_u8().map_err(|_| WireError::Truncated)?;
    if version != VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let kind = r.take_u8().map_err(|_| WireError::Truncated)?;
    let id = r.take_u64().map_err(|_| WireError::Truncated)?;
    Ok((kind, id, r))
}

/// Encodes a request into a frame payload (header included, length prefix
/// not — [`write_frame`] adds that).
pub fn encode_request(id: u64, request: &RpcRequest) -> Vec<u8> {
    let mut w = header(request.kind(), id);
    match request {
        RpcRequest::Hello { token } => w.put_str(token),
        RpcRequest::Load { spec, source } => {
            w.put_u8(spec.as_u8());
            match source {
                LoadSource::Zoo {
                    family,
                    input,
                    classes,
                    seed,
                } => {
                    w.put_u8(0);
                    w.put_str(family);
                    w.put_u32(*input);
                    w.put_u32(*classes);
                    w.put_u64(*seed);
                }
                LoadSource::GraphJson { name, json } => {
                    w.put_u8(1);
                    w.put_str(name);
                    w.put_str(json);
                }
            }
        }
        RpcRequest::Seal { tensors } => w.put_tensors(tensors),
        RpcRequest::Infer {
            model,
            payload,
            deadline_ms,
            trace,
        } => {
            w.put_str(model);
            w.put_u32(*deadline_ms);
            match payload {
                InferPayload::Tensors(tensors) => {
                    w.put_u8(0);
                    w.put_tensors(tensors);
                }
                InferPayload::Sealed(handle) => {
                    w.put_u8(1);
                    w.put_u64(*handle);
                }
            }
            // Trace-context extension: a presence flag, then the context.
            match trace {
                Some(t) => {
                    w.put_u8(1);
                    w.put_u64(t.trace_id);
                    w.put_u64(t.parent_span_id);
                    w.put_u8(u8::from(t.sampled));
                }
                None => w.put_u8(0),
            }
        }
        RpcRequest::Unseal { handle } => w.put_u64(*handle),
        RpcRequest::Status | RpcRequest::Metrics => {}
        RpcRequest::Trace { max } => w.put_u32(*max),
    }
    w.buf
}

/// Decodes a request frame payload.
///
/// # Errors
///
/// The full [`WireError`] taxonomy; see the module docs for which errors
/// keep the connection alive.
pub fn decode_request(payload: &[u8]) -> Result<RequestFrame, WireError> {
    let (kind, id, mut r) = decode_header(payload)?;
    let request = match kind {
        KIND_HELLO => RpcRequest::Hello {
            token: r.take_str()?,
        },
        KIND_LOAD => {
            let spec = WireSpec::from_u8(r.take_u8()?)?;
            let source = match r.take_u8()? {
                0 => LoadSource::Zoo {
                    family: r.take_str()?,
                    input: r.take_u32()?,
                    classes: r.take_u32()?,
                    seed: r.take_u64()?,
                },
                1 => LoadSource::GraphJson {
                    name: r.take_str()?,
                    json: r.take_str()?,
                },
                other => {
                    return Err(WireError::Malformed(format!(
                        "unknown load source tag {other}"
                    )))
                }
            };
            RpcRequest::Load { spec, source }
        }
        KIND_SEAL => RpcRequest::Seal {
            tensors: r.take_tensors()?,
        },
        KIND_INFER => {
            let model = r.take_str()?;
            let deadline_ms = r.take_u32()?;
            let payload = match r.take_u8()? {
                0 => InferPayload::Tensors(r.take_tensors()?),
                1 => InferPayload::Sealed(r.take_u64()?),
                other => {
                    return Err(WireError::Malformed(format!(
                        "unknown infer payload tag {other}"
                    )))
                }
            };
            let trace = match r.take_u8()? {
                0 => None,
                1 => Some(TraceContext {
                    trace_id: r.take_u64()?,
                    parent_span_id: r.take_u64()?,
                    sampled: r.take_u8()? != 0,
                }),
                other => {
                    return Err(WireError::Malformed(format!(
                        "unknown trace-context tag {other}"
                    )))
                }
            };
            RpcRequest::Infer {
                model,
                payload,
                deadline_ms,
                trace,
            }
        }
        KIND_UNSEAL => RpcRequest::Unseal {
            handle: r.take_u64()?,
        },
        KIND_STATUS => RpcRequest::Status,
        KIND_METRICS => RpcRequest::Metrics,
        KIND_TRACE => RpcRequest::Trace { max: r.take_u32()? },
        other => return Err(WireError::UnknownKind { kind: other, id }),
    };
    r.expect_end()?;
    Ok(RequestFrame { id, request })
}

/// Encodes a response into a frame payload.
pub fn encode_response(id: u64, response: &RpcResponse) -> Vec<u8> {
    let mut w = header(response.kind(), id);
    match response {
        RpcResponse::Hello { tenant } => w.put_str(tenant),
        RpcResponse::Load { model, existing } => {
            w.put_str(model);
            w.put_u8(u8::from(*existing));
        }
        RpcResponse::Seal { handle, bytes } => {
            w.put_u64(*handle);
            w.put_u64(*bytes);
        }
        RpcResponse::Infer(infer) => {
            w.put_u64(infer.request_id);
            w.put_u64(infer.total_latency_us);
            w.put_u64(infer.exec_latency_us);
            w.put_u32(infer.batch_size);
            w.put_u8(u8::from(infer.sampled));
            w.put_tensors(&infer.outputs);
        }
        RpcResponse::Unseal { freed_bytes } => w.put_u64(*freed_bytes),
        RpcResponse::Status(status) => {
            w.put_u8(u8::from(status.ready));
            w.put_u8(u8::from(status.draining));
            w.put_u32(status.open_connections);
            w.put_u64(status.sealed_bytes);
            w.put_u32(status.models.len() as u32);
            for m in &status.models {
                w.put_str(&m.name);
                w.put_u32(m.queue_depth);
                w.put_u64(m.offered);
                w.put_u64(m.completed);
            }
            w.put_u64(status.dropped_spans);
            w.put_u64(status.trace_sampled);
        }
        RpcResponse::Metrics { exposition } => w.put_str(exposition),
        RpcResponse::Trace {
            json,
            traces,
            dropped_spans,
        } => {
            w.put_str(json);
            w.put_u32(*traces);
            w.put_u64(*dropped_spans);
        }
        RpcResponse::Error {
            code,
            message,
            detail,
        } => {
            w.put_u16(code.as_u16());
            w.put_str(message);
            w.put_str(detail);
        }
    }
    w.buf
}

/// Decodes a response frame payload.
///
/// # Errors
///
/// The full [`WireError`] taxonomy.
pub fn decode_response(payload: &[u8]) -> Result<ResponseFrame, WireError> {
    let (kind, id, mut r) = decode_header(payload)?;
    let response = match kind {
        k if k == KIND_HELLO | RESP_BIT => RpcResponse::Hello {
            tenant: r.take_str()?,
        },
        k if k == KIND_LOAD | RESP_BIT => RpcResponse::Load {
            model: r.take_str()?,
            existing: r.take_u8()? != 0,
        },
        k if k == KIND_SEAL | RESP_BIT => RpcResponse::Seal {
            handle: r.take_u64()?,
            bytes: r.take_u64()?,
        },
        k if k == KIND_INFER | RESP_BIT => {
            let request_id = r.take_u64()?;
            let total_latency_us = r.take_u64()?;
            let exec_latency_us = r.take_u64()?;
            let batch_size = r.take_u32()?;
            let sampled = r.take_u8()? != 0;
            let outputs = r.take_tensors()?;
            RpcResponse::Infer(WireInferResponse {
                request_id,
                outputs,
                total_latency_us,
                exec_latency_us,
                batch_size,
                sampled,
            })
        }
        k if k == KIND_UNSEAL | RESP_BIT => RpcResponse::Unseal {
            freed_bytes: r.take_u64()?,
        },
        k if k == KIND_STATUS | RESP_BIT => {
            let ready = r.take_u8()? != 0;
            let draining = r.take_u8()? != 0;
            let open_connections = r.take_u32()?;
            let sealed_bytes = r.take_u64()?;
            let count = r.take_u32()? as usize;
            if count > r.remaining() / 4 {
                return Err(WireError::Malformed(format!(
                    "model count {count} exceeds body"
                )));
            }
            let mut models = Vec::with_capacity(count);
            for _ in 0..count {
                models.push(ModelStatus {
                    name: r.take_str()?,
                    queue_depth: r.take_u32()?,
                    offered: r.take_u64()?,
                    completed: r.take_u64()?,
                });
            }
            RpcResponse::Status(StatusReply {
                ready,
                draining,
                open_connections,
                sealed_bytes,
                models,
                dropped_spans: r.take_u64()?,
                trace_sampled: r.take_u64()?,
            })
        }
        k if k == KIND_METRICS | RESP_BIT => RpcResponse::Metrics {
            exposition: r.take_str()?,
        },
        k if k == KIND_TRACE | RESP_BIT => RpcResponse::Trace {
            json: r.take_str()?,
            traces: r.take_u32()?,
            dropped_spans: r.take_u64()?,
        },
        KIND_ERROR => RpcResponse::Error {
            code: ErrorCode::from_u16(r.take_u16()?),
            message: r.take_str()?,
            detail: r.take_str()?,
        },
        other => return Err(WireError::UnknownKind { kind: other, id }),
    };
    r.expect_end()?;
    Ok(ResponseFrame { id, response })
}

/// Writes one length-prefixed frame; returns the bytes put on the wire
/// (payload + 4-byte prefix).
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] when the payload exceeds `max`; transport
/// errors as [`WireError::Io`].
pub fn write_frame(w: &mut impl Write, payload: &[u8], max: u32) -> Result<u64, WireError> {
    let len = payload.len();
    if len > max as usize {
        return Err(WireError::FrameTooLarge {
            len: len as u32,
            max,
        });
    }
    w.write_all(&(len as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(len as u64 + 4)
}

/// Blocking frame read for clients: returns the payload, or `None` on a
/// clean EOF at a frame boundary.
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] before reading an over-announced payload;
/// [`WireError::Truncated`] when the stream ends mid-frame.
pub fn read_frame(r: &mut impl Read, max: u32) -> Result<Option<Vec<u8>>, WireError> {
    let mut len_buf = [0u8; 4];
    match r.read(&mut len_buf) {
        Ok(0) => return Ok(None),
        Ok(n) => {
            if n < 4 {
                r.read_exact(&mut len_buf[n..])
                    .map_err(|_| WireError::Truncated)?;
            }
        }
        Err(e) => return Err(WireError::Io(e)),
    }
    let len = u32::from_le_bytes(len_buf);
    if len > max {
        return Err(WireError::FrameTooLarge { len, max });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    })?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tensors() -> Vec<Tensor> {
        vec![
            Tensor::from_f32(
                Shape::new(vec![2, 3]),
                vec![1.0, -2.5, 0.0, 3.25, 4.0, -0.125],
            )
            .unwrap(),
            Tensor::from_u8(
                Shape::new(vec![4]),
                vec![0, 128, 200, 255],
                QuantParams::PerTensor {
                    scale: 0.02,
                    zero_point: 128,
                },
            )
            .unwrap(),
            Tensor::from_i8(
                Shape::new(vec![2, 2]),
                vec![-128, -1, 0, 127],
                QuantParams::PerChannel {
                    scales: vec![0.1, 0.2],
                    zero_points: vec![0, 0],
                    axis: 0,
                },
            )
            .unwrap(),
            Tensor::from_i32(Shape::new(vec![3]), vec![-1, 0, i32::MAX], None).unwrap(),
        ]
    }

    #[test]
    fn requests_round_trip() {
        let requests = vec![
            RpcRequest::Hello {
                token: "secret".into(),
            },
            RpcRequest::Load {
                spec: WireSpec::Optimized,
                source: LoadSource::Zoo {
                    family: "mini_mobilenet_v2".into(),
                    input: 24,
                    classes: 8,
                    seed: 7,
                },
            },
            RpcRequest::Load {
                spec: WireSpec::Reference,
                source: LoadSource::GraphJson {
                    name: "uploaded".into(),
                    json: "{\"graph\":{}}".into(),
                },
            },
            RpcRequest::Load {
                spec: WireSpec::Simd,
                source: LoadSource::Zoo {
                    family: "mini_mobilenet_v2".into(),
                    input: 24,
                    classes: 8,
                    seed: 7,
                },
            },
            RpcRequest::Seal {
                tensors: sample_tensors(),
            },
            RpcRequest::Infer {
                model: "m".into(),
                payload: InferPayload::Tensors(sample_tensors()),
                deadline_ms: 250,
                trace: None,
            },
            RpcRequest::Infer {
                model: "m".into(),
                payload: InferPayload::Sealed(42),
                deadline_ms: 0,
                trace: Some(TraceContext {
                    trace_id: 0xDEAD_BEEF_CAFE_F00D,
                    parent_span_id: 77,
                    sampled: true,
                }),
            },
            RpcRequest::Unseal { handle: 42 },
            RpcRequest::Status,
            RpcRequest::Metrics,
            RpcRequest::Trace { max: 16 },
        ];
        for (i, request) in requests.into_iter().enumerate() {
            let id = 1000 + i as u64;
            let payload = encode_request(id, &request);
            let frame = decode_request(&payload).expect("round trip");
            assert_eq!(frame.id, id);
            assert_eq!(frame.request, request);
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = vec![
            RpcResponse::Hello {
                tenant: "edge-lab".into(),
            },
            RpcResponse::Load {
                model: "m".into(),
                existing: true,
            },
            RpcResponse::Seal {
                handle: 9,
                bytes: 1 << 20,
            },
            RpcResponse::Infer(WireInferResponse {
                request_id: 5,
                outputs: sample_tensors(),
                total_latency_us: 1234,
                exec_latency_us: 567,
                batch_size: 4,
                sampled: true,
            }),
            RpcResponse::Unseal { freed_bytes: 4096 },
            RpcResponse::Status(StatusReply {
                ready: true,
                draining: false,
                open_connections: 3,
                sealed_bytes: 8192,
                models: vec![ModelStatus {
                    name: "m".into(),
                    queue_depth: 2,
                    offered: 100,
                    completed: 98,
                }],
                dropped_spans: 12,
                trace_sampled: 345,
            }),
            RpcResponse::Metrics {
                exposition: "# TYPE up gauge\nup 1\n".into(),
            },
            RpcResponse::Trace {
                json: "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}".into(),
                traces: 0,
                dropped_spans: 3,
            },
            RpcResponse::Error {
                code: ErrorCode::LintRejected,
                message: "model rejected".into(),
                detail: "{\"diagnostics\":[]}".into(),
            },
        ];
        for (i, response) in responses.into_iter().enumerate() {
            let id = 2000 + i as u64;
            let payload = encode_response(id, &response);
            let frame = decode_response(&payload).expect("round trip");
            assert_eq!(frame.id, id);
            assert_eq!(frame.response, response);
        }
    }

    #[test]
    fn header_errors_are_typed() {
        let mut payload = encode_request(1, &RpcRequest::Status);
        payload[0] = 0x00; // break the magic
        assert!(matches!(
            decode_request(&payload),
            Err(WireError::BadMagic(_))
        ));

        let mut payload = encode_request(1, &RpcRequest::Status);
        payload[2] = 99; // future version
        assert!(matches!(
            decode_request(&payload),
            Err(WireError::UnsupportedVersion(99))
        ));

        let mut payload = encode_request(1, &RpcRequest::Status);
        payload[2] = 2; // the retired revision: refused like any other
        assert!(matches!(
            decode_request(&payload),
            Err(WireError::UnsupportedVersion(2))
        ));

        let mut payload = encode_request(7, &RpcRequest::Status);
        payload[3] = 0x7E; // unknown verb — id must survive
        match decode_request(&payload) {
            Err(WireError::UnknownKind { kind: 0x7E, id: 7 }) => {}
            other => panic!("expected UnknownKind with id, got {other:?}"),
        }
    }

    #[test]
    fn malformed_bodies_are_rejected_not_panicked() {
        // Truncated body.
        let payload = encode_request(
            1,
            &RpcRequest::Seal {
                tensors: sample_tensors(),
            },
        );
        for cut in [13, payload.len() / 2, payload.len() - 1] {
            assert!(matches!(
                decode_request(&payload[..cut]),
                Err(WireError::Malformed(_) | WireError::Truncated)
            ));
        }
        // Trailing garbage after a valid body.
        let mut payload = encode_request(1, &RpcRequest::Unseal { handle: 3 });
        payload.push(0xAB);
        assert!(matches!(
            decode_request(&payload),
            Err(WireError::Malformed(_))
        ));
        // Absurd tensor count cannot trigger a giant allocation.
        let mut w = ByteWriter::default();
        w.put_u16(MAGIC);
        w.put_u8(VERSION);
        w.put_u8(KIND_SEAL);
        w.put_u64(1);
        w.put_u32(u32::MAX);
        assert!(matches!(
            decode_request(&w.buf),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn frame_io_round_trips_and_caps() {
        let payload = encode_request(3, &RpcRequest::Status);
        let mut buf = Vec::new();
        let wrote = write_frame(&mut buf, &payload, DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(wrote as usize, payload.len() + 4);
        let mut cursor = io::Cursor::new(buf);
        let read = read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .expect("one frame");
        assert_eq!(read, payload);
        assert!(read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .is_none());

        // Writer refuses oversized payloads; reader refuses oversized
        // announcements without allocating.
        assert!(matches!(
            write_frame(&mut Vec::new(), &payload, 4),
            Err(WireError::FrameTooLarge { .. })
        ));
        let mut announce = io::Cursor::new(u32::MAX.to_le_bytes().to_vec());
        assert!(matches!(
            read_frame(&mut announce, 1024),
            Err(WireError::FrameTooLarge { .. })
        ));
    }
}
