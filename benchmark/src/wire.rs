//! `wire_plain` / `wire_monitored`: a closed loop of TCP clients against a
//! loopback `RpcServer`, each `infer` uploading its tensor inline.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use mlexray_serve::rpc::{RpcClient, RpcServer, RpcServerConfig};
use mlexray_tensor::Tensor;

use crate::inputs::FRAMES;
use crate::measure::{ms, segment, Segment};
use crate::serving::{self, serve_counts, ServingSpec};
use crate::workload::{same_bits, timed, Kind, Layers, Workload};

/// Two callers that each wait for their reply: with one worker behind the
/// door they keep it busy without building a queue, and the batcher always
/// has a second request it may coalesce.
const CONNECTIONS: usize = 2;
/// Operations per segment, over all connections (~0.45 s of work).
const SEGMENT_OPS: usize = 1000;
const WARMUP_OPS_PER_CONNECTION: usize = 200;

/// One connection and where it is in the frame set.
struct Caller {
    client: RpcClient,
    cursor: usize,
}

pub struct Wire {
    spec: ServingSpec,
    server: RpcServer,
    callers: Vec<Caller>,
    inputs: Arc<Vec<Tensor>>,
    expected: Arc<Vec<Vec<Tensor>>>,
    sink: Option<Arc<mlexray_core::ChannelSink>>,
    sink_path: std::path::PathBuf,
    ops: usize,
    failed_outside: usize,
}

/// Starts the door over an already running service.
pub fn open_door(served: serving::Served) -> RpcServer {
    let sink = served.dyn_sink();
    RpcServer::start(
        "127.0.0.1:0",
        served.service,
        served.registry,
        RpcServerConfig::default(),
        sink,
    )
    .expect("door binds a loopback port")
}

/// `n` closed-loop inline-upload `infer`s on one connection. Returns the
/// latencies (ms) and how many answers were errors or failed the oracle.
fn drive(
    caller: &mut Caller,
    model: &str,
    inputs: &[Tensor],
    expected: &[Vec<Tensor>],
    n: usize,
) -> (Vec<f64>, usize) {
    let mut latency = Vec::with_capacity(n);
    let mut failed = 0;
    for _ in 0..n {
        let k = caller.cursor % FRAMES;
        caller.cursor += 1;
        let upload = vec![inputs[k].clone()];
        let sent = Instant::now();
        let reply = caller.client.infer(model, upload, None);
        latency.push(ms(sent.elapsed()));
        if !matches!(&reply, Ok(r) if same_bits(&r.outputs, &expected[k])) {
            failed += 1;
        }
    }
    (latency, failed)
}

impl Wire {
    /// All connections run `per_connection` ops concurrently.
    fn run(&mut self, per_connection: usize) -> (Vec<f64>, usize) {
        let (model, inputs, expected) = (self.spec.model, &self.inputs, &self.expected);
        let results: Vec<(Vec<f64>, usize)> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .callers
                .iter_mut()
                .map(|c| s.spawn(move || drive(c, model, inputs, expected, per_connection)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread does not panic"))
                .collect()
        });
        self.ops += per_connection * CONNECTIONS;
        let failed = results.iter().map(|r| r.1).sum();
        (results.into_iter().flat_map(|r| r.0).collect(), failed)
    }
}

impl Workload for Wire {
    fn setup(kind: Kind, seed: u64, out: &Path) -> (Self, Layers) {
        let sink_path = out.join(format!("{}.telemetry.jsonl", kind.name()));
        let spec = ServingSpec::of(kind);
        let (served, mut phases) = serving::start(kind, seed, &sink_path, spec.trace());
        let (inputs, expected, sink) = (
            served.inputs.clone(),
            served.expected.clone(),
            served.sink.clone(),
        );
        let ((server, callers), took) = timed(|| {
            let server = open_door(served);
            let callers = (0..CONNECTIONS)
                .map(|c| Caller {
                    client: RpcClient::connect(server.local_addr()).expect("client connects"),
                    // Spread the connections over the frame set.
                    cursor: c * FRAMES / CONNECTIONS,
                })
                .collect();
            (server, callers)
        });
        phases.insert("serve.rpc.start_ms", ms(took));
        let mut wire = Wire {
            spec,
            server,
            callers,
            inputs,
            expected,
            sink,
            sink_path,
            ops: 0,
            failed_outside: 0,
        };
        let ((_, failed), took) = timed(|| wire.run(WARMUP_OPS_PER_CONNECTION));
        wire.failed_outside += failed;
        phases.insert("loadgen.warmup_ms", ms(took));
        (wire, phases)
    }

    fn segment(&mut self) -> Segment {
        segment(SEGMENT_OPS, || {
            let (latency, failed) = self.run(SEGMENT_OPS / CONNECTIONS);
            (latency, Vec::new(), failed)
        })
    }

    /// What an operator's probe does while the service runs: an online
    /// drift check and a trace scrape. A raised alarm on healthy kernels is
    /// an output mismatch.
    fn between(&mut self) -> Vec<(&'static str, f64)> {
        if !self.spec.monitored {
            return Vec::new();
        }
        let service = self.server.service();
        let (alarm, drift) = timed(|| service.drift_check(self.spec.model));
        if !matches!(alarm, Ok(Some(a)) if !a.raised) {
            self.failed_outside += 1;
        }
        let hub = service.trace_hub().expect("monitored service traces");
        let ((), collect) = timed(|| hub.collect());
        vec![
            ("core.online.drift_check_ms", ms(drift)),
            ("core.trace.collect_ms", ms(collect)),
        ]
    }

    fn finish(self) -> (usize, Layers) {
        let mut layers = Layers::new();
        let ops = self.ops as f64;
        let sent: u64 = self.callers.iter().map(|c| c.client.bytes_sent()).sum();
        let received: u64 = self.callers.iter().map(|c| c.client.bytes_received()).sum();
        layers.insert("serve.rpc.bytes_sent_per_op", sent as f64 / ops);
        layers.insert("serve.rpc.bytes_received_per_op", received as f64 / ops);
        layers.insert("loadgen.connections", CONNECTIONS as f64);
        let trace = self.server.service().trace_hub().cloned();
        drop(self.callers);
        let (report, took) = timed(|| self.server.shutdown());
        layers.insert("serve.drain_ms", ms(took));
        layers.insert("serve.rpc.errors_sent", report.errors_sent as f64);
        let mut failed = self.failed_outside + serve_counts(&report.serve, &mut layers);
        if let Some(hub) = trace {
            let counters = hub.counters();
            let retained = hub.take_completed(0);
            let spans: usize = retained.iter().map(|t| t.spans.len()).sum();
            let per_trace = spans as f64 / retained.len().max(1) as f64;
            layers.insert(
                "core.trace.spans_per_op",
                counters.completed as f64 * per_trace / ops,
            );
            layers.insert("core.trace.dropped_spans", counters.dropped_spans as f64);
        }
        if let Some(sink) = self.sink {
            let ((), took) = timed(|| sink.flush().expect("telemetry flushes"));
            layers.insert("core.sink.flush_ms", ms(took));
            let stats = sink.close();
            layers.insert("core.sink.records_per_op", stats.enqueued as f64 / ops);
            layers.insert(
                "core.sink.bytes_per_op",
                mlexray_core::LogSink::bytes_written(sink.as_ref()) as f64 / ops,
            );
            layers.insert("core.sink.blocked", stats.blocked as f64);
            layers.insert("core.sink.dropped", stats.dropped as f64);
            // Lossless by policy: a dropped or unpersisted record is a miss.
            if stats.dropped > 0 || stats.persisted != stats.enqueued {
                failed += 1;
            }
            let _ = std::fs::remove_file(&self.sink_path);
        }
        (failed, layers)
    }
}
