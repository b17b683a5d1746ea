//! RPC figure (beyond the paper): the framed-TCP front door under 32
//! concurrent sessions, measuring what the `Seal` verb buys.
//!
//! Two measured passes over identical per-session frames, both answered
//! bitwise-identically to in-process `InferenceService` submits:
//!
//! 1. **upload** — every `Infer` carries its input tensors inline, so each
//!    request re-uploads the full frame;
//! 2. **sealed** — each session seals its frame once into the server-side
//!    session arena, then re-infers by [`SealHandle`] — the steady-state
//!    request moves a fixed few dozen bytes whatever the tensor size, and
//!    the server lends the sealed tensors to `invoke_batch` by reference
//!    (no per-request copy).
//!
//! The figure reports client-measured latency percentiles and the exact
//! bytes each pass moved to the server; the smoke test pins
//! `sealed < upload` on bytes structurally. The saving is bytes, not
//! time: at these tensor sizes the skipped upload is microseconds of a
//! round trip, so the two passes' latencies are reported, not ranked.
//!
//! [`SealHandle`]: mlexray_serve::rpc::SealHandle

use std::time::{Duration, Instant};

use mlexray_models::{full_model, FullFamily};
use mlexray_nn::BackendSpec;
use mlexray_serve::rpc::{RpcClient, RpcServer, RpcServerConfig, SealHandle};
use mlexray_serve::{BatchPolicy, InferenceService, ModelRegistry, MonitorPolicy, ServiceConfig};
use mlexray_tensor::{Shape, Tensor};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::support::{format_table, record_json_artifact, Scale};

/// Concurrent TCP sessions (the acceptance floor).
pub const SESSIONS: usize = 32;
/// Timed `Infer` rounds per session, per pass.
pub const ROUNDS: usize = 4;

/// Machine-readable results backing the rendered figure (also written as a
/// structured JSON artifact, `fig_rpc_metrics.json`).
#[derive(Debug, Clone)]
pub struct RpcResult {
    /// Concurrent sessions driven ([`SESSIONS`]).
    pub sessions: usize,
    /// Timed rounds per session per pass ([`ROUNDS`]).
    pub rounds: usize,
    /// Bytes moved to the server per request, upload pass.
    pub upload_bytes_per_req: f64,
    /// Bytes moved to the server per request, sealed pass (handle only).
    pub sealed_bytes_per_req: f64,
    /// `upload_bytes_per_req / sealed_bytes_per_req`.
    pub bytes_ratio: f64,
    /// Median client-measured latency of the upload pass, ms.
    pub upload_p50_ms: f64,
    /// 95th-percentile latency of the upload pass, ms.
    pub upload_p95_ms: f64,
    /// Median latency of the sealed pass, ms.
    pub sealed_p50_ms: f64,
    /// 95th-percentile latency of the sealed pass, ms.
    pub sealed_p95_ms: f64,
    /// `sealed_p95_ms / upload_p95_ms` (reported, not ranked: the passes
    /// differ by microseconds of upload, inside scheduler noise).
    pub p95_ratio: f64,
    /// Requests per second through the door, upload pass.
    pub upload_fps: f64,
    /// Requests per second through the door, sealed pass.
    pub sealed_fps: f64,
    /// Every wire response matched its in-process twin bitwise.
    pub bitwise_identical: bool,
    /// The serve-side books balanced exactly (no silent drops).
    pub balanced: bool,
    /// TCP connections the server accepted (one per session).
    pub connections_accepted: u64,
    /// Requests the server answered across all verbs.
    pub requests_served: u64,
}

fn session_frames(scale: &Scale) -> Vec<Vec<Tensor>> {
    let shape = Shape::nhwc(1, scale.full_input, scale.full_input, 3);
    (0..SESSIONS)
        .map(|c| {
            let mut rng = SmallRng::seed_from_u64(9000 + c as u64);
            let data: Vec<f32> = (0..shape.num_elements())
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            vec![Tensor::from_f32(shape.clone(), data).expect("length matches")]
        })
        .collect()
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

struct PassOutcome {
    wall_s: f64,
    latencies_ms: Vec<f64>,
    bytes_sent: u64,
    ok: bool,
}

/// Drives every session concurrently (one OS thread per live connection)
/// through `f`, which returns that session's timed latencies and whether
/// every response matched ground truth. Bytes are the wire total the pass
/// moved client→server, read off the clients' own accounting.
fn drive_sessions<F>(clients: &mut [RpcClient], f: F) -> PassOutcome
where
    F: Fn(usize, &mut RpcClient) -> (Vec<f64>, bool) + Sync,
{
    let bytes_before: u64 = clients.iter().map(RpcClient::bytes_sent).sum();
    let started = Instant::now();
    let per_session: Vec<(Vec<f64>, bool)> = std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| scope.spawn(move || f(i, client)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let bytes_after: u64 = clients.iter().map(RpcClient::bytes_sent).sum();
    let mut latencies_ms: Vec<f64> = per_session
        .iter()
        .flat_map(|(l, _)| l.iter().copied())
        .collect();
    latencies_ms.sort_by(f64::total_cmp);
    PassOutcome {
        wall_s,
        latencies_ms,
        bytes_sent: bytes_after - bytes_before,
        ok: per_session.iter().all(|(_, ok)| *ok),
    }
}

/// Runs the passes and returns structured results (the smoke test asserts
/// on these; `run` renders them).
pub fn measure(scale: &Scale) -> RpcResult {
    let model = full_model(
        FullFamily::MobileNetV2,
        scale.full_input,
        10,
        scale.full_width,
        7,
    )
    .expect("mobilenet zoo model builds");
    let registry = ModelRegistry::new();
    registry
        .register_model("mobilenet_v2", model, BackendSpec::optimized())
        .expect("spec builds");
    let service = InferenceService::start(
        &registry,
        ServiceConfig {
            workers_per_model: 2,
            core_budget: 2,
            queue_capacity: SESSIONS * 2,
            batch: BatchPolicy::windowed(8, Duration::from_micros(200)),
            monitor: MonitorPolicy::off(),
            ..Default::default()
        },
        None,
    )
    .expect("service starts");

    // Ground truth straight through the very service the server will own:
    // one in-process submit per session frame, before the door opens.
    let frames = session_frames(scale);
    let expected: Vec<Vec<Tensor>> = frames
        .iter()
        .map(|f| {
            service
                .submit("mobilenet_v2", f.clone())
                .expect("queue fits the ground-truth pass")
                .wait()
                .expect("no deadlines")
                .outputs
        })
        .collect();

    let server = RpcServer::start(
        "127.0.0.1:0",
        service,
        registry,
        RpcServerConfig::default(),
        None,
    )
    .expect("server binds an ephemeral port");
    let addr = server.local_addr();

    let mut clients: Vec<RpcClient> = (0..SESSIONS)
        .map(|_| RpcClient::connect(addr).expect("loopback connect"))
        .collect();
    let frames = &frames;
    let expected = &expected;

    // Untimed warm-up: one inline infer per session (arena + cache warmth;
    // the timed passes must not pay first-touch costs unevenly).
    let warm = drive_sessions(&mut clients, |i, client| {
        let reply = client
            .infer("mobilenet_v2", frames[i].clone(), None)
            .expect("warmup infer succeeds");
        (Vec::new(), reply.outputs == expected[i])
    });

    // Pass 1 — upload: every request re-uploads the session's frame.
    let upload = drive_sessions(&mut clients, |i, client| {
        let mut lat = Vec::with_capacity(ROUNDS);
        let mut ok = true;
        for _ in 0..ROUNDS {
            let started = Instant::now();
            let reply = client
                .infer("mobilenet_v2", frames[i].clone(), None)
                .expect("upload infer succeeds");
            lat.push(started.elapsed().as_secs_f64() * 1e3);
            ok &= reply.outputs == expected[i];
        }
        (lat, ok)
    });

    // Seal (untimed, not counted in the sealed pass's bytes): one upload
    // per session into the server-side arena.
    let handles: Vec<SealHandle> = std::thread::scope(|scope| {
        let spawned: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| scope.spawn(move || client.seal(frames[i].clone()).expect("seal")))
            .collect();
        spawned
            .into_iter()
            .map(|h| h.join().expect("seal thread"))
            .collect()
    });
    let handles = &handles;

    // Pass 2 — sealed: re-infer by handle; each request moves ~30 bytes
    // and the server lends the arena tensors to the batcher by reference.
    let sealed = drive_sessions(&mut clients, |i, client| {
        let mut lat = Vec::with_capacity(ROUNDS);
        let mut ok = true;
        for _ in 0..ROUNDS {
            let started = Instant::now();
            let reply = client
                .infer_sealed("mobilenet_v2", handles[i], None)
                .expect("sealed infer succeeds");
            lat.push(started.elapsed().as_secs_f64() * 1e3);
            ok &= reply.outputs == expected[i];
        }
        (lat, ok)
    });

    for (client, handle) in clients.iter_mut().zip(handles) {
        client.unseal(*handle).expect("unseal frees the arena");
    }
    drop(clients);
    let report = server.shutdown();

    let requests = (SESSIONS * ROUNDS) as f64;
    let upload_bytes_per_req = upload.bytes_sent as f64 / requests;
    let sealed_bytes_per_req = sealed.bytes_sent as f64 / requests;
    let upload_p95_ms = percentile(&upload.latencies_ms, 0.95);
    let sealed_p95_ms = percentile(&sealed.latencies_ms, 0.95);
    RpcResult {
        sessions: SESSIONS,
        rounds: ROUNDS,
        upload_bytes_per_req,
        sealed_bytes_per_req,
        bytes_ratio: upload_bytes_per_req / sealed_bytes_per_req.max(1.0),
        upload_p50_ms: percentile(&upload.latencies_ms, 0.50),
        upload_p95_ms,
        sealed_p50_ms: percentile(&sealed.latencies_ms, 0.50),
        sealed_p95_ms,
        p95_ratio: sealed_p95_ms / upload_p95_ms.max(1e-9),
        upload_fps: requests / upload.wall_s.max(1e-9),
        sealed_fps: requests / sealed.wall_s.max(1e-9),
        bitwise_identical: warm.ok && upload.ok && sealed.ok,
        balanced: report.serve.models.iter().all(|m| m.is_balanced()),
        connections_accepted: report.connections_accepted,
        requests_served: report.requests_served,
    }
}

/// Runs the full RPC figure.
pub fn run(scale: &Scale) -> String {
    run_measured(scale).1
}

/// Like [`run`], but also hands back the structured results for assertions,
/// and records them as a machine-readable JSON artifact
/// (`fig_rpc_metrics.json`).
pub fn run_measured(scale: &Scale) -> (RpcResult, String) {
    let result = measure(scale);
    let quick = *scale == Scale::quick();
    record_json_artifact(
        "fig_rpc_metrics",
        quick,
        &serde::Value::Object(vec![
            (
                "sessions".into(),
                serde::Value::UInt(result.sessions as u64),
            ),
            ("rounds".into(), serde::Value::UInt(result.rounds as u64)),
            (
                "upload_bytes_per_req".into(),
                serde::Value::Float(result.upload_bytes_per_req),
            ),
            (
                "sealed_bytes_per_req".into(),
                serde::Value::Float(result.sealed_bytes_per_req),
            ),
            (
                "bytes_ratio".into(),
                serde::Value::Float(result.bytes_ratio),
            ),
            (
                "upload_p50_ms".into(),
                serde::Value::Float(result.upload_p50_ms),
            ),
            (
                "upload_p95_ms".into(),
                serde::Value::Float(result.upload_p95_ms),
            ),
            (
                "sealed_p50_ms".into(),
                serde::Value::Float(result.sealed_p50_ms),
            ),
            (
                "sealed_p95_ms".into(),
                serde::Value::Float(result.sealed_p95_ms),
            ),
            ("p95_ratio".into(), serde::Value::Float(result.p95_ratio)),
            ("upload_fps".into(), serde::Value::Float(result.upload_fps)),
            ("sealed_fps".into(), serde::Value::Float(result.sealed_fps)),
            (
                "bitwise_identical".into(),
                serde::Value::Bool(result.bitwise_identical),
            ),
            ("balanced".into(), serde::Value::Bool(result.balanced)),
            (
                "connections_accepted".into(),
                serde::Value::UInt(result.connections_accepted),
            ),
            (
                "requests_served".into(),
                serde::Value::UInt(result.requests_served),
            ),
        ]),
    );

    let rows = vec![
        vec![
            "upload (tensors inline)".to_string(),
            format!("{:.0}", result.upload_bytes_per_req),
            format!("{:.2}", result.upload_p50_ms),
            format!("{:.2}", result.upload_p95_ms),
            format!("{:.1}", result.upload_fps),
        ],
        vec![
            "sealed (re-infer by handle)".to_string(),
            format!("{:.0}", result.sealed_bytes_per_req),
            format!("{:.2}", result.sealed_p50_ms),
            format!("{:.2}", result.sealed_p95_ms),
            format!("{:.1}", result.sealed_fps),
        ],
    ];
    let table = format_table(
        &["Infer mode", "Bytes/req", "p50 ms", "p95 ms", "Req/s"],
        &rows,
    );
    let rendered = format!(
        "Fig R: RPC front door (mobilenet_v2 zoo model, {} sessions x {} rounds)\n{}\n\
         sealed re-infer moves 1/{:.0} of the upload bytes; p95 ratio {:.2}\n\
         wire responses bitwise-identical to in-process submits: {}\n\
         serve books balanced: {} ({} connections, {} requests served)\n",
        result.sessions,
        result.rounds,
        table,
        result.bytes_ratio,
        result.p95_ratio,
        result.bitwise_identical,
        result.balanced,
        result.connections_accepted,
        result.requests_served,
    );
    (result, rendered)
}
