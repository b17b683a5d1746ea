//! # The RPC front door: a zero-copy session protocol over framed TCP
//!
//! Everything else in this crate is in-process. This module is the
//! network-facing door: a length-prefixed-frame TCP server
//! ([`RpcServer`]) speaking a small versioned wire protocol
//! ([`wire`]) over the existing worker pools — thread-per-connection,
//! `std::net` only, no async runtime.
//!
//! ```text
//! client ── Hello(token) ─▶ tenant        (auth, when a token table is set)
//!        ── Load(zoo | graph JSON) ─▶     exray-lint gate, then a worker pool
//!        ── Seal(tensors) ─▶ SealHandle   upload once …
//!        ── Infer(model, handle) ─▶ outputs   … re-infer for 8 bytes/request
//!        ── Unseal(handle)                release the arena entry
//!        ── Status ─▶ readiness, drain state, per-model load
//!        ── Metrics ─▶ Prometheus text exposition
//!        ── Trace ─▶ Chrome-trace JSON of recent sampled requests
//! ```
//!
//! The *seal* verbs are the point: a client uploads an input once,
//! receives a [`wire::SealHandle`], and every subsequent `Infer` against
//! that handle moves 8 bytes instead of the tensors. On the server the
//! sealed tensors live in a per-session arena as `Arc<Vec<Tensor>>`; the
//! service is handed the `Arc` and its workers lend the tensors to
//! `invoke_batch` by reference — zero copies end to end.
//! The `fig_rpc` experiment records the resulting bytes-moved and p95
//! gap.
//!
//! Operational middleware rides on the same loop: per-connection
//! token→tenant identification, structured request logging through the
//! configured [`mlexray_core::LogSink`], a `Status` readiness/health
//! verb, and graceful connection drain composing with the service's
//! drain-then-stop shutdown (see [`RpcServer::shutdown`]).

pub mod client;
pub mod server;
pub mod wire;

pub use client::{ClientError, ClientResult, RpcClient};
pub use server::{RpcReport, RpcServer, RpcServerConfig};
pub use wire::{
    ErrorCode, InferPayload, LoadSource, ModelStatus, RpcRequest, RpcResponse, SealHandle,
    StatusReply, TraceReply, WireError, WireInferResponse, WireSpec,
};
