//! A blocking loopback client for the RPC front door — what the
//! load-generator, the CI smoke and the robustness tests drive.

use std::fmt;
use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use mlexray_core::TraceContext;
use mlexray_tensor::Tensor;

use crate::rpc::wire::{
    self, ErrorCode, InferPayload, LoadSource, RpcRequest, RpcResponse, SealHandle, StatusReply,
    TraceReply, WireError, WireInferResponse, WireSpec,
};

/// A client-side RPC failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server's bytes did not decode (or the stream truncated).
    Wire(WireError),
    /// The server answered with a typed error frame.
    Server {
        /// The typed failure code.
        code: ErrorCode,
        /// Human-readable summary.
        message: String,
        /// Machine-readable context (lint report JSON for
        /// [`ErrorCode::LintRejected`]).
        detail: String,
    },
    /// The server answered with the wrong response kind, a mismatched
    /// correlation id, or closed before replying.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Wire(e) => write!(f, "wire: {e}"),
            ClientError::Server { code, message, .. } => write!(f, "server [{code}]: {message}"),
            ClientError::Protocol(msg) => write!(f, "protocol: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl ClientError {
    /// The server-reported [`ErrorCode`], when this is a typed refusal.
    pub fn server_code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Server { code, .. } => Some(*code),
            _ => None,
        }
    }
}

/// Client-side result alias.
pub type ClientResult<T> = Result<T, ClientError>;

/// A blocking session against an [`crate::rpc::RpcServer`]: one TCP
/// connection, one request in flight at a time, byte accounting for
/// bytes-moved comparisons (`bytes_sent` / `bytes_received`).
pub struct RpcClient {
    stream: TcpStream,
    /// The read side of `stream`: one `read` takes in a whole reply.
    reader: BufReader<TcpStream>,
    next_id: u64,
    max_frame_len: u32,
    bytes_sent: u64,
    bytes_received: u64,
}

impl fmt::Debug for RpcClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RpcClient")
            .field("peer", &self.stream.peer_addr().ok())
            .field("next_id", &self.next_id)
            .finish_non_exhaustive()
    }
}

impl RpcClient {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn connect(addr: impl ToSocketAddrs) -> ClientResult<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(RpcClient {
            reader: BufReader::new(stream.try_clone()?),
            stream,
            next_id: 1,
            // Responses carry model outputs of unbounded size; the client
            // accepts anything the server sends.
            max_frame_len: u32::MAX,
            bytes_sent: 0,
            bytes_received: 0,
        })
    }

    /// Bytes this session has put on the wire (frames + prefixes) — the
    /// upload cost a sealed handle amortizes away.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Bytes this session has read off the wire.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received
    }

    /// Sends one request and reads its response, enforcing correlation-id
    /// echo.
    ///
    /// # Errors
    ///
    /// Transport, decode, or protocol failures. A server error *frame* is
    /// returned as `Ok` — the typed verbs below lift it to
    /// [`ClientError::Server`].
    pub fn roundtrip(&mut self, request: &RpcRequest) -> ClientResult<RpcResponse> {
        let id = self.next_id;
        self.next_id += 1;
        self.bytes_sent += wire::write_request(&mut self.stream, id, request, self.max_frame_len)?;
        let reply = wire::read_frame(&mut self.reader, self.max_frame_len)?
            .ok_or_else(|| ClientError::Protocol("server closed before replying".into()))?;
        self.bytes_received += reply.len() as u64 + 4;
        let frame = wire::decode_response(&reply)?;
        // Error frames for protocol-level failures may carry id 0 when the
        // server could not attribute the frame; everything else must echo.
        if frame.id != id && !matches!(frame.response, RpcResponse::Error { .. }) {
            return Err(ClientError::Protocol(format!(
                "response id {} does not echo request id {id}",
                frame.id
            )));
        }
        Ok(frame.response)
    }

    fn expect<T>(
        response: RpcResponse,
        pick: impl FnOnce(RpcResponse) -> Result<T, RpcResponse>,
    ) -> ClientResult<T> {
        match pick(response) {
            Ok(value) => Ok(value),
            Err(RpcResponse::Error {
                code,
                message,
                detail,
            }) => Err(ClientError::Server {
                code,
                message,
                detail,
            }),
            Err(other) => Err(ClientError::Protocol(format!(
                "unexpected response kind: {other:?}"
            ))),
        }
    }

    /// Opens the session under a bearer token; returns the tenant the
    /// server resolved it to.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`ErrorCode::Unauthenticated`] for
    /// unknown tokens.
    pub fn hello(&mut self, token: &str) -> ClientResult<String> {
        let response = self.roundtrip(&RpcRequest::Hello {
            token: token.to_string(),
        })?;
        Self::expect(response, |r| match r {
            RpcResponse::Hello { tenant } => Ok(tenant),
            other => Err(other),
        })
    }

    /// Loads a zoo family into the served model set. Returns
    /// `(model, existing)`.
    ///
    /// # Errors
    ///
    /// Typed server refusals ([`ErrorCode::LintRejected`],
    /// [`ErrorCode::UnknownModel`], ...).
    pub fn load_zoo(
        &mut self,
        family: &str,
        input: u32,
        classes: u32,
        seed: u64,
        spec: WireSpec,
    ) -> ClientResult<(String, bool)> {
        let response = self.roundtrip(&RpcRequest::Load {
            spec,
            source: LoadSource::Zoo {
                family: family.to_string(),
                input,
                classes,
                seed,
            },
        })?;
        Self::expect(response, |r| match r {
            RpcResponse::Load { model, existing } => Ok((model, existing)),
            other => Err(other),
        })
    }

    /// Uploads a JSON-serialized `Model`/`Graph` and serves it under
    /// `name`. Returns `(model, existing)`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`ErrorCode::LintRejected`] (lint
    /// report JSON in `detail`) when static analysis denies the graph.
    pub fn load_graph_json(
        &mut self,
        name: &str,
        json: &str,
        spec: WireSpec,
    ) -> ClientResult<(String, bool)> {
        let response = self.roundtrip(&RpcRequest::Load {
            spec,
            source: LoadSource::GraphJson {
                name: name.to_string(),
                json: json.to_string(),
            },
        })?;
        Self::expect(response, |r| match r {
            RpcResponse::Load { model, existing } => Ok((model, existing)),
            other => Err(other),
        })
    }

    /// Seals tensors into the session arena; the returned handle re-infers
    /// against them for 8 bytes a request.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::SealLimitExceeded`] past the arena budget.
    pub fn seal(&mut self, tensors: Vec<Tensor>) -> ClientResult<SealHandle> {
        let response = self.roundtrip(&RpcRequest::Seal { tensors })?;
        Self::expect(response, |r| match r {
            RpcResponse::Seal { handle, .. } => Ok(handle),
            other => Err(other),
        })
    }

    /// One inference with inline tensor upload.
    ///
    /// # Errors
    ///
    /// Typed admission refusals ([`ErrorCode::QueueFull`],
    /// [`ErrorCode::DeadlineExpired`], ...).
    pub fn infer(
        &mut self,
        model: &str,
        tensors: Vec<Tensor>,
        deadline: Option<Duration>,
    ) -> ClientResult<WireInferResponse> {
        self.infer_payload(model, InferPayload::Tensors(tensors), deadline, None)
    }

    /// One inference carrying a caller-minted trace context (wire v3): the
    /// server threads `trace` through its whole serving path and, when
    /// `trace.sampled` and the service traces, the request's spans show up
    /// under the caller's `trace_id` in [`RpcClient::trace`] documents.
    ///
    /// # Errors
    ///
    /// Typed admission refusals, as [`RpcClient::infer`].
    pub fn infer_traced(
        &mut self,
        model: &str,
        tensors: Vec<Tensor>,
        deadline: Option<Duration>,
        trace: TraceContext,
    ) -> ClientResult<WireInferResponse> {
        self.infer_payload(model, InferPayload::Tensors(tensors), deadline, Some(trace))
    }

    /// One inference against sealed tensors.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownHandle`] for stale handles; typed admission
    /// refusals otherwise.
    pub fn infer_sealed(
        &mut self,
        model: &str,
        handle: SealHandle,
        deadline: Option<Duration>,
    ) -> ClientResult<WireInferResponse> {
        self.infer_payload(model, InferPayload::Sealed(handle), deadline, None)
    }

    fn infer_payload(
        &mut self,
        model: &str,
        payload: InferPayload,
        deadline: Option<Duration>,
        trace: Option<TraceContext>,
    ) -> ClientResult<WireInferResponse> {
        let deadline_ms = deadline.map(|d| d.as_millis().max(1) as u32).unwrap_or(0);
        let response = self.roundtrip(&RpcRequest::Infer {
            model: model.to_string(),
            payload,
            deadline_ms,
            trace,
        })?;
        Self::expect(response, |r| match r {
            RpcResponse::Infer(infer) => Ok(infer),
            other => Err(other),
        })
    }

    /// Releases a sealed handle; returns the bytes freed.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownHandle`] when the handle was never sealed or
    /// already unsealed.
    pub fn unseal(&mut self, handle: SealHandle) -> ClientResult<u64> {
        let response = self.roundtrip(&RpcRequest::Unseal { handle })?;
        Self::expect(response, |r| match r {
            RpcResponse::Unseal { freed_bytes } => Ok(freed_bytes),
            other => Err(other),
        })
    }

    /// Health/readiness probe.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures.
    pub fn status(&mut self) -> ClientResult<StatusReply> {
        let response = self.roundtrip(&RpcRequest::Status)?;
        Self::expect(response, |r| match r {
            RpcResponse::Status(status) => Ok(status),
            other => Err(other),
        })
    }

    /// `Metrics`: scrape the server's Prometheus text exposition. Keeps
    /// answering during drain; requires an authenticated session when the
    /// server runs with a token table.
    ///
    /// # Errors
    ///
    /// Transport, wire, or server-reported errors.
    pub fn metrics(&mut self) -> ClientResult<String> {
        let response = self.roundtrip(&RpcRequest::Metrics)?;
        Self::expect(response, |r| match r {
            RpcResponse::Metrics { exposition } => Ok(exposition),
            other => Err(other),
        })
    }

    /// `Trace`: take up to `max` recently completed traces (`0` = all
    /// retained) as a Chrome-trace JSON document. Keeps answering during
    /// drain, like `Metrics`. A server with tracing off answers an empty
    /// document — never an error.
    ///
    /// # Errors
    ///
    /// Transport, wire, or server-reported errors.
    pub fn trace(&mut self, max: u32) -> ClientResult<TraceReply> {
        let response = self.roundtrip(&RpcRequest::Trace { max })?;
        Self::expect(response, |r| match r {
            RpcResponse::Trace {
                json,
                traces,
                dropped_spans,
            } => Ok(TraceReply {
                json,
                traces,
                dropped_spans,
            }),
            other => Err(other),
        })
    }

    /// The underlying stream (robustness tests poke raw bytes through it).
    /// The typed verbs read replies through a buffer of their own, which
    /// holds no bytes between round trips: the server sends one reply per
    /// request.
    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }
}
