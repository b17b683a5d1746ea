//! `rpc-loadgen`: an open-loop load generator for the RPC front door.
//!
//! The datasets [`TrafficGenerator`] paces seeded Poisson arrivals from a
//! looping synthetic playback set through the target model's canonical
//! preprocessing; the arrivals are spread round-robin over a pool of
//! concurrent TCP sessions, each submitting over the wire and measuring
//! end-to-end latency. Typed server refusals (queue-full, deadline,
//! drain) are counted as shed, never as failures.
//!
//! With no target address, the tool starts its own loopback server on an
//! ephemeral port over the `mini_mobilenet_v2` zoo model — a self-contained
//! smoke CI runs on every PR. Against an external server it first issues an
//! idempotent zoo `Load`, so the target model always exists.
//!
//! With `--metrics`, a dedicated session scrapes the `Metrics` verb
//! while the load runs — every exposition must parse — and once the load
//! (and, on the loopback server, the drain) completes, a final scrape is
//! held against the drained books counter for counter.
//!
//! With `--trace`, the loopback server runs with the span pipeline on:
//! every fourth arrival carries a client-minted wire trace context
//! (protocol v3), requests parked in a held queue past their deadlines
//! force always-sample-on-shed traces, and the final `Trace` round-trip must
//! return Chrome-trace JSON that parses and contains the full span chain
//! (`rpc_decode` → `queue_wait` → `exec` → `respond_encode`) plus the
//! forced `shed` spans.
//!
//! Environment knobs:
//!
//! | variable | default | meaning |
//! |---|---|---|
//! | `MLEXRAY_RPC_ADDR` | _(loopback)_ | target `host:port`; unset = spawn in-process server |
//! | `MLEXRAY_RPC_TOKEN` | _(none)_ | auth token sent via `Hello` |
//! | `MLEXRAY_LOADGEN_SESSIONS` | 8 | concurrent TCP sessions |
//! | `MLEXRAY_LOADGEN_REQUESTS` | 64 | total paced arrivals |
//! | `MLEXRAY_LOADGEN_RATE_HZ` | 40 | mean Poisson arrival rate |
//! | `MLEXRAY_LOADGEN_DEADLINE_MS` | _(none)_ | per-request deadline |

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use mlexray_bench::support::Scale;
use mlexray_core::{trace_id_for, TraceContext};
use mlexray_datasets::synth_image::{self, SynthImageSpec};
use mlexray_datasets::{InMemoryPlayback, TrafficGenerator};
use mlexray_models::canonical_preprocess;
use mlexray_nn::BackendSpec;
use mlexray_serve::metrics::{parse_exposition, sample};
use mlexray_serve::rpc::{ErrorCode, RpcClient, RpcServer, RpcServerConfig, WireSpec};
use mlexray_serve::{
    BatchPolicy, InferenceService, ModelRegistry, MonitorPolicy, ServiceConfig, TracePolicy,
};
use mlexray_tensor::Tensor;

const MODEL: &str = "mini_mobilenet_v2";
const ZOO_SEED: u64 = 1;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Shed vs hard failure: typed load-control refusals are expected under an
/// open loop and land in the shed column.
fn is_shed(code: ErrorCode) -> bool {
    matches!(
        code,
        ErrorCode::QueueFull | ErrorCode::DeadlineExpired | ErrorCode::ShuttingDown
    )
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

#[derive(Default)]
struct SessionTally {
    latencies_ms: Vec<f64>,
    completed: u64,
    shed: u64,
    failed: u64,
    bytes_sent: u64,
    bytes_received: u64,
}

fn main() {
    let scale = Scale::from_env();
    let sessions = env_usize("MLEXRAY_LOADGEN_SESSIONS", 8).max(1);
    let requests = env_usize("MLEXRAY_LOADGEN_REQUESTS", 64).max(1);
    let rate_hz = env_f64("MLEXRAY_LOADGEN_RATE_HZ", 40.0).max(0.1);
    let deadline = std::env::var("MLEXRAY_LOADGEN_DEADLINE_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .map(Duration::from_millis);
    let token = std::env::var("MLEXRAY_RPC_TOKEN").ok();
    // `--metrics`: scrape the Prometheus exposition while the load runs
    // and hold the final scrape against the drained books.
    let metrics_mode = std::env::args().any(|a| a == "--metrics");
    // `--trace`: wire-propagated trace contexts on every fourth arrival,
    // a forced-shed burst, and a `Trace` round-trip held to the full
    // span chain (loopback only; external targets just get the scrape).
    let trace_mode = std::env::args().any(|a| a == "--trace");

    // No target address: stand up a loopback server on an ephemeral port.
    let (addr, loopback) = match std::env::var("MLEXRAY_RPC_ADDR") {
        Ok(addr) => (addr, None),
        Err(_) => {
            let registry = ModelRegistry::new();
            registry
                .register_zoo(
                    MODEL,
                    scale.input,
                    synth_image::NUM_CLASSES,
                    ZOO_SEED,
                    BackendSpec::optimized(),
                )
                .expect("zoo model builds");
            let service = InferenceService::start(
                &registry,
                ServiceConfig {
                    workers_per_model: 2,
                    core_budget: 2,
                    queue_capacity: sessions * 4,
                    batch: BatchPolicy::windowed(8, Duration::from_micros(200)),
                    monitor: MonitorPolicy::off(),
                    // Under --trace only wire-carried contexts and forced
                    // anomalies sample (the service clock practically
                    // never fires), so the trace set is client-determined.
                    trace: if trace_mode {
                        TracePolicy {
                            completed_capacity: 256,
                            ..TracePolicy::sampled(1_000_000)
                        }
                    } else {
                        TracePolicy::off()
                    },
                    ..Default::default()
                },
                None,
            )
            .expect("service starts");
            let server = RpcServer::start(
                "127.0.0.1:0",
                service,
                registry,
                RpcServerConfig::default(),
                None,
            )
            .expect("loopback server binds an ephemeral port");
            (server.local_addr().to_string(), Some(server))
        }
    };

    let mut clients: Vec<RpcClient> = (0..sessions)
        .map(|_| RpcClient::connect(addr.as_str()).expect("connect to RPC server"))
        .collect();
    if let Some(token) = &token {
        for client in &mut clients {
            client.hello(token).expect("token accepted");
        }
    }
    // Idempotent zoo load: guarantees the model exists on external targets
    // and is a no-op (`existing = true`) against the loopback server.
    clients[0]
        .load_zoo(
            MODEL,
            scale.input as u32,
            synth_image::NUM_CLASSES as u32,
            ZOO_SEED,
            WireSpec::Optimized,
        )
        .expect("zoo load accepted");

    // Paced arrivals: Poisson inter-arrival times over a looping synthetic
    // playback set, preprocessed the way the model expects.
    let playback = InMemoryPlayback::new(
        synth_image::generate(SynthImageSpec {
            resolution: scale.frame_res,
            count: 16,
            seed: 99,
        })
        .expect("valid spec"),
    );
    let preprocess = canonical_preprocess(MODEL, scale.input);
    let arrivals: Vec<(Duration, Tensor)> = TrafficGenerator::new(playback, rate_hz)
        .poisson(7)
        .take(requests)
        .map(|arrival| {
            let input = preprocess
                .apply(&arrival.frame.image)
                .expect("canonical preprocessing runs");
            (arrival.at, input)
        })
        .collect();

    println!(
        "rpc-loadgen: {requests} arrivals @ {rate_hz:.1} req/s over {sessions} sessions -> {addr}"
    );
    // The scraper runs on its own session so a slow infer can't block a
    // scrape (the protocol is one request in flight per connection).
    let mut scraper = metrics_mode.then(|| {
        let mut client = RpcClient::connect(addr.as_str()).expect("scraper connects");
        if let Some(token) = &token {
            client.hello(token).expect("token accepted");
        }
        client
    });
    let stop_scraper = AtomicBool::new(false);
    let started = Instant::now();
    let (tallies, live_scrapes): (Vec<SessionTally>, u64) = std::thread::scope(|scope| {
        let arrivals = &arrivals;
        let stop = &stop_scraper;
        let scraper_handle = scraper.as_mut().map(|client| {
            scope.spawn(move || {
                let mut scrapes = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let text = client.metrics().expect("Metrics answers under load");
                    parse_exposition(&text).expect("exposition parses under load");
                    scrapes += 1;
                    std::thread::sleep(Duration::from_millis(20));
                }
                scrapes
            })
        });
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(s, client)| {
                scope.spawn(move || {
                    let mut tally = SessionTally::default();
                    let bytes_out0 = client.bytes_sent();
                    let bytes_in0 = client.bytes_received();
                    for (i, (at, input)) in arrivals.iter().enumerate().skip(s).step_by(sessions) {
                        if let Some(wait) = at.checked_sub(started.elapsed()) {
                            std::thread::sleep(wait); // open loop: pace the offer
                        }
                        let sent = Instant::now();
                        // Under --trace every fourth arrival carries a
                        // client-minted wire context, exercising the v3
                        // propagation path end to end.
                        let outcome = if trace_mode && i % 4 == 0 {
                            let context =
                                TraceContext::sampled(trace_id_for("rpc-loadgen", i as u64));
                            client.infer_traced(MODEL, vec![input.clone()], deadline, context)
                        } else {
                            client.infer(MODEL, vec![input.clone()], deadline)
                        };
                        match outcome {
                            Ok(_) => {
                                tally.latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                                tally.completed += 1;
                            }
                            Err(e) => match e.server_code() {
                                Some(code) if is_shed(code) => tally.shed += 1,
                                _ => tally.failed += 1,
                            },
                        }
                    }
                    tally.bytes_sent = client.bytes_sent() - bytes_out0;
                    tally.bytes_received = client.bytes_received() - bytes_in0;
                    tally
                })
            })
            .collect();
        let tallies = handles
            .into_iter()
            .map(|h| h.join().expect("session thread"))
            .collect();
        stop.store(true, Ordering::Release);
        let scrapes = scraper_handle.map_or(0, |h| h.join().expect("scraper thread"));
        (tallies, scrapes)
    });
    let elapsed = started.elapsed().as_secs_f64();

    let mut latencies: Vec<f64> = tallies
        .iter()
        .flat_map(|t| t.latencies_ms.iter().copied())
        .collect();
    latencies.sort_by(f64::total_cmp);
    let completed: u64 = tallies.iter().map(|t| t.completed).sum();
    let shed: u64 = tallies.iter().map(|t| t.shed).sum();
    let failed: u64 = tallies.iter().map(|t| t.failed).sum();
    let bytes_sent: u64 = tallies.iter().map(|t| t.bytes_sent).sum();
    let bytes_received: u64 = tallies.iter().map(|t| t.bytes_received).sum();

    let status = clients[0].status().expect("status answers");
    println!(
        "completed {completed}  shed {shed}  failed {failed}  \
         ({:.1} req/s achieved, {:.1}s wall)",
        completed as f64 / elapsed.max(1e-9),
        elapsed,
    );
    println!(
        "latency p50 {:.2} ms  p95 {:.2} ms  p99 {:.2} ms",
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.95),
        percentile(&latencies, 0.99),
    );
    println!("wire bytes: {bytes_sent} sent, {bytes_received} received");
    println!(
        "server status: ready={} models={} sealed_bytes={} \
         trace_sampled={} dropped_spans={}",
        status.ready,
        status.models.len(),
        status.sealed_bytes,
        status.trace_sampled,
        status.dropped_spans,
    );
    // --trace, loopback: force always-sample-on-shed traces with
    // already-expired deadlines (enforced at dequeue, so the shed is
    // deterministic), on a dedicated session kept alive past the load.
    let mut tracer = (trace_mode && loopback.is_some()).then(|| {
        let mut client = RpcClient::connect(addr.as_str()).expect("tracer connects");
        if let Some(token) = &token {
            client.hello(token).expect("token accepted");
        }
        client
    });
    if let (Some(_), Some(server)) = (&tracer, &loopback) {
        // The wire carries whole milliseconds, so an already-expired
        // deadline is not expressible — instead the workers are held while
        // four sessions each park a 1 ms-deadline request in the queue (a
        // session blocks on its `Infer`, so one each), the deadlines lapse,
        // and the release sheds every one of them at dequeue.
        const SHED_SESSIONS: usize = 4;
        let frame = &arrivals[0].1;
        let service = server.service();
        service.pause();
        let deadline_sheds: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..SHED_SESSIONS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut client =
                            RpcClient::connect(addr.as_str()).expect("shed session connects");
                        if let Some(token) = &token {
                            client.hello(token).expect("token accepted");
                        }
                        let result =
                            client.infer(MODEL, vec![frame.clone()], Some(Duration::from_millis(1)));
                        matches!(result, Err(e) if e.server_code() == Some(ErrorCode::DeadlineExpired))
                    })
                })
                .collect();
            while service.queue_depth(MODEL) != Some(SHED_SESSIONS) {
                std::thread::sleep(Duration::from_millis(1));
            }
            std::thread::sleep(Duration::from_millis(5));
            service.resume();
            handles
                .into_iter()
                .map(|h| usize::from(h.join().expect("shed session thread")))
                .sum()
        });
        assert_eq!(
            deadline_sheds, SHED_SESSIONS,
            "every request whose deadline lapsed in the held queue must be shed"
        );
        println!("trace: forced {deadline_sheds} deadline sheds for always-sampling");
    }
    // --trace, external target: the Trace verb must still answer with
    // parseable Chrome-trace JSON (the export may be empty — sampling is
    // the target's policy, and deliberate sheds are not ours to force).
    if trace_mode && loopback.is_none() {
        let reply = clients[0].trace(0).expect("Trace verb answers");
        serde_json::parse_value(&reply.json).expect("Chrome-trace JSON parses");
        println!(
            "trace: external target exported {} traces ({} B JSON, {} spans dropped)",
            reply.traces,
            reply.json.len(),
            reply.dropped_spans,
        );
    }
    drop(clients);

    if let Some(server) = loopback {
        if let Some(mut scraper) = scraper.take() {
            // Drain the books, then hold the final exposition against them
            // counter for counter (Metrics keeps answering during drain).
            server.begin_drain();
            let drained = server.service().drain();
            let books = drained
                .models
                .iter()
                .find(|m| m.model == MODEL)
                .expect("loopback model books")
                .clone();
            let text = scraper.metrics().expect("Metrics answers during drain");
            let samples = parse_exposition(&text).expect("final exposition parses");
            let labels = &[("model", MODEL)][..];
            let series = |name: &str| {
                sample(&samples, name, labels).unwrap_or_else(|| panic!("missing series {name}"))
                    as u64
            };
            assert_eq!(
                series("mlexray_serve_requests_offered_total"),
                books.offered
            );
            assert_eq!(
                series("mlexray_serve_requests_admitted_total"),
                books.admitted
            );
            assert_eq!(
                series("mlexray_serve_requests_completed_total"),
                books.completed
            );
            assert_eq!(series("mlexray_serve_requests_failed_total"), books.failed);
            assert_eq!(books.completed, completed, "books vs client-side tally");
            println!(
                "metrics: {live_scrapes} live scrapes parsed; final exposition \
                 {} B, {} series, counters match the drained books",
                text.len(),
                samples.len(),
            );
        }
        if let Some(mut tracer) = tracer.take() {
            // The Trace round-trip: the export must parse as Chrome-trace
            // JSON and contain the full span chain of the wire-traced
            // requests plus the forced shed traces.
            let reply = tracer.trace(0).expect("Trace verb answers");
            let doc = serde_json::parse_value(&reply.json).expect("Chrome-trace JSON parses");
            let events = match doc.get("traceEvents") {
                Some(serde_json::Value::Array(events)) => events,
                _ => panic!("Trace export has no traceEvents array"),
            };
            let has = |name: &str| {
                events.iter().any(|e| {
                    matches!(e.get("name"),
                        Some(serde_json::Value::String(n)) if n == name)
                })
            };
            for name in [
                "request",
                "rpc_decode",
                "admission",
                "queue_wait",
                "batch_form",
                "exec",
                "respond",
                "respond_encode",
            ] {
                assert!(has(name), "span chain missing `{name}` in the Trace export");
            }
            assert!(
                has("shed"),
                "forced deadline sheds must be always-sampled into the export"
            );
            assert!(reply.traces > 0, "wire-traced requests must export");
            println!(
                "trace: {} traces exported ({} B JSON, {} events, {} spans dropped); \
                 full span chain + forced sheds present",
                reply.traces,
                reply.json.len(),
                events.len(),
                reply.dropped_spans,
            );
        }
        let report = server.shutdown();
        let balanced = report.serve.models.iter().all(|m| m.is_balanced());
        println!(
            "loopback server: {} connections, {} requests served, books balanced: {balanced}",
            report.connections_accepted, report.requests_served,
        );
        assert!(balanced, "loopback books must balance");
        assert_eq!(failed, 0, "loadgen saw hard failures");
        assert_eq!(completed + shed, requests as u64, "arrivals unaccounted");
    } else if let Some(mut scraper) = scraper.take() {
        // External target: no books to drain here — the final scrape must
        // still parse as a valid exposition.
        let text = scraper.metrics().expect("final scrape answers");
        let samples = parse_exposition(&text).expect("final exposition parses");
        println!(
            "metrics: {live_scrapes} live scrapes parsed; final exposition {} B, {} series",
            text.len(),
            samples.len(),
        );
    }
}
