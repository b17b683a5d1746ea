//! End-to-end proof of the span pipeline: sampled traces carry the full
//! stage chain, the profiler's root-span total reconciles with the latency
//! histogram, a slow batch is attributed to batch formation, structure is
//! deterministic across runs and worker counts, sheds are force-traced,
//! wire-propagated contexts survive the network
//! hop, and the anonymous-tenant label is consistent between the telemetry
//! stream and the metrics exposition.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use mlexray_core::{MemorySink, SpanStage, TraceContext};
use mlexray_nn::{Activation, BackendSpec, GraphBuilder, Model, Padding};
use mlexray_serve::rpc::{ErrorCode, RpcClient, RpcServer, RpcServerConfig};
use mlexray_serve::{
    BatchPolicy, InferenceService, ModelRegistry, MonitorPolicy, RejectReason, Rejection,
    ServiceConfig, TracePolicy,
};
use mlexray_tensor::{Shape, Tensor};

fn serving_model(name: &str) -> Model {
    let mut b = GraphBuilder::new(name);
    let x = b.input("x", Shape::nhwc(1, 8, 8, 3));
    let w = b.constant(
        "w",
        Tensor::from_f32(
            Shape::new(vec![4, 3, 3, 3]),
            (0..108).map(|i| (i as f32 * 0.173).sin() * 0.3).collect(),
        )
        .unwrap(),
    );
    let c = b
        .conv2d("conv", x, w, None, 2, Padding::Same, Activation::Relu)
        .unwrap();
    let m = b.mean("gap", c).unwrap();
    let s = b.softmax("softmax", m).unwrap();
    b.output(s);
    Model::checkpoint(b.finish().unwrap(), name)
}

fn frame_input(seed: usize) -> Vec<Tensor> {
    vec![Tensor::from_f32(
        Shape::nhwc(1, 8, 8, 3),
        (0..192)
            .map(|j| ((seed * 192 + j) as f32 * 0.0137).sin())
            .collect(),
    )
    .unwrap()]
}

fn traced_registry() -> ModelRegistry {
    let registry = ModelRegistry::new();
    registry
        .register_model("m", serving_model("m"), BackendSpec::optimized())
        .unwrap();
    registry
}

fn traced_config(workers: usize, every: u64) -> ServiceConfig {
    ServiceConfig {
        queue_capacity: 256,
        workers_per_model: workers,
        batch: BatchPolicy::windowed(4, Duration::from_micros(200)),
        monitor: MonitorPolicy::off(),
        trace: TracePolicy {
            every,
            completed_capacity: 256,
            ..TracePolicy::sampled(every)
        },
        ..Default::default()
    }
}

/// Submits frames `0..count` to model `m`, then waits every response out.
fn serve(service: &InferenceService, count: usize) {
    let pendings: Vec<_> = (0..count)
        .map(|i| service.submit("m", frame_input(i)).unwrap())
        .collect();
    for pending in pendings {
        pending.wait().unwrap();
    }
}

#[test]
fn sampled_traces_carry_the_full_stage_chain() {
    let registry = traced_registry();
    let service = InferenceService::start(&registry, traced_config(1, 1), None).unwrap();
    serve(&service, 6);
    let hub = service.trace_hub().expect("tracing on").clone();
    let traces = hub.take_completed(0);
    assert_eq!(traces.len(), 6, "every request traced at 1/1 sampling");
    for trace in &traces {
        let root = trace.root().expect("terminal request span");
        assert_eq!(trace.model, "m");
        for stage in [
            SpanStage::Admission,
            SpanStage::QueueWait,
            SpanStage::BatchForm,
            SpanStage::Exec,
            SpanStage::Respond,
        ] {
            let span = trace
                .stage(stage)
                .unwrap_or_else(|| panic!("missing {} span", stage.name()));
            assert_eq!(span.parent_span_id, root.span_id, "{}", stage.name());
        }
        // Per-layer kernel spans, flavor-tagged with the serving backend
        // (optimized = 1), one per graph layer.
        let layers: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.stage == SpanStage::Layer)
            .collect();
        assert!(!layers.is_empty(), "deep capture ran for the traced frame");
        assert!(layers.iter().all(|s| s.flavor == 1));
        // Stage spans nest inside the root's window.
        let end = root.start_ns + root.dur_ns;
        assert!(trace
            .spans
            .iter()
            .all(|s| s.stage == SpanStage::Request || s.start_ns + s.dur_ns <= end + 1_000_000));
    }
    // The export parses and carries one event per span.
    let json = mlexray_core::chrome_trace_json(&traces);
    let doc = serde_json::parse_value(&json).expect("chrome-trace JSON parses");
    let events = match doc.get("traceEvents") {
        Some(serde_json::Value::Array(events)) => events,
        other => panic!("expected traceEvents array, got {other:?}"),
    };
    let spans: usize = traces.iter().map(|t| t.spans.len()).sum();
    assert_eq!(events.len(), spans);
    let counters = hub.counters();
    assert_eq!(counters.sampled, 6);
    assert_eq!(counters.completed, 6);
    assert_eq!(counters.dropped_spans, 0);
    service.shutdown();
}

#[test]
fn profiler_root_total_reconciles_with_latency_histogram() {
    let registry = traced_registry();
    let service = InferenceService::start(&registry, traced_config(2, 1), None).unwrap();
    serve(&service, 24);
    let hist = service.latency_histogram("m").expect("model served");
    let hub = service.trace_hub().expect("tracing on").clone();
    let report = service.drain();
    assert!(report.models.iter().all(|m| m.is_balanced()), "{report:?}");

    let traces = hub.take_completed(0);
    let json = mlexray_core::chrome_trace_json(&traces);
    let doc = serde_json::parse_value(&json).expect("chrome-trace JSON parses");
    assert!(
        matches!(doc.get("traceEvents"), Some(serde_json::Value::Array(events)) if !events.is_empty()),
        "the export carries events"
    );
    // The root span is the recorded completion duration, so the two
    // totals agree within the histogram's one sub-bucket (1/8) of width.
    let breakdown = hub.profile().model("m").cloned().unwrap_or_default();
    assert_eq!(breakdown.traces, 24);
    assert_eq!(hist.count(), 24);
    let diff = breakdown.total_ns.abs_diff(hist.sum_nanos());
    assert!(
        diff as f64 <= hist.sum_nanos() as f64 / 8.0,
        "profiler {} ns vs histogram {} ns",
        breakdown.total_ns,
        hist.sum_nanos()
    );
}

#[test]
fn slow_batch_is_attributed_to_batch_formation() {
    // A 120 ms window that 4 requests cannot fill parks every request in
    // batch formation; the profiler must put the time there, not on exec.
    let registry = traced_registry();
    let config = ServiceConfig {
        batch: BatchPolicy::windowed(8, Duration::from_millis(120)),
        ..traced_config(1, 1)
    };
    let service = InferenceService::start(&registry, config, None).unwrap();
    serve(&service, 4);
    let hub = service.trace_hub().expect("tracing on").clone();
    let report = service.drain();
    assert!(report.models.iter().all(|m| m.is_balanced()), "{report:?}");
    let slow = hub.profile().model("m").cloned().unwrap_or_default();
    assert_eq!(slow.traces, 4);
    assert!(
        slow.batch_wait_ns > slow.exec_ns,
        "batch formation {} ns vs exec {} ns",
        slow.batch_wait_ns,
        slow.exec_ns
    );
}

/// One seeded workload pass; returns the sampled trace-id set and the
/// sorted timestamp-free structures.
fn workload_structures(workers: usize) -> (BTreeSet<u64>, Vec<String>) {
    let registry = traced_registry();
    let service = InferenceService::start(&registry, traced_config(workers, 4), None).unwrap();
    serve(&service, 40);
    let hub = service.trace_hub().unwrap().clone();
    let traces = hub.take_completed(0);
    let ids: BTreeSet<u64> = traces.iter().map(|t| t.trace_id).collect();
    let mut structures: Vec<String> = traces.iter().map(|t| t.structure()).collect();
    structures.sort();
    service.shutdown();
    (ids, structures)
}

#[test]
fn trace_structure_is_deterministic_across_runs_and_worker_counts() {
    let (ids_a, structures_a) = workload_structures(1);
    let (ids_b, structures_b) = workload_structures(1);
    let (ids_c, structures_c) = workload_structures(3);
    assert_eq!(ids_a.len(), 10, "40 requests at 1/4 sampling");
    // Same run twice: identical trace-id set and byte-identical structure.
    assert_eq!(ids_a, ids_b);
    assert_eq!(structures_a, structures_b);
    // Different worker count: scheduling changes, structure must not.
    assert_eq!(ids_a, ids_c);
    assert_eq!(structures_a, structures_c);
}

#[test]
fn queue_full_and_deadline_sheds_are_force_traced() {
    let registry = traced_registry();
    // Sampling clock says "almost never" — only the forced anomaly path
    // may produce these traces.
    let config = ServiceConfig {
        queue_capacity: 2,
        start_paused: true,
        ..traced_config(1, 1_000_000)
    };
    let service = InferenceService::start(&registry, config, None).unwrap();
    // Paused workers: fill the queue, then overflow it.
    let queued: Vec<_> = (0..2)
        .map(|i| {
            service
                .submit_with_deadline("m", frame_input(i), Some(Duration::from_millis(1)))
                .unwrap()
        })
        .collect();
    let overflow = service
        .submit_with_deadline("m", frame_input(9), None)
        .unwrap_err();
    assert!(matches!(overflow.reason, RejectReason::QueueFull { .. }));
    // Let the queued deadlines lapse before the workers wake.
    std::thread::sleep(Duration::from_millis(20));
    service.resume();
    for pending in queued {
        let err = pending.wait().unwrap_err();
        assert!(matches!(err.reason, RejectReason::DeadlineExpired { .. }));
    }
    let hub = service.trace_hub().unwrap().clone();
    let traces = hub.take_completed(0);
    let shed_codes: Vec<u64> = traces
        .iter()
        .filter_map(|t| t.stage(SpanStage::Shed))
        .map(|s| s.arg_a)
        .collect();
    // Code 1 = queue-full (admission side), code 2 = deadline (worker side).
    assert!(
        shed_codes.contains(&1),
        "queue-full shed traced: {shed_codes:?}"
    );
    assert!(
        shed_codes.contains(&2),
        "deadline shed traced: {shed_codes:?}"
    );
    let counters = hub.counters();
    assert!(counters.forced >= 3, "all three sheds forced: {counters:?}");
    service.shutdown();
}

/// Every way a peer can make a request end without an answer, as one
/// table. Whatever the reason, the caller gets the typed `Rejection`,
/// exactly one book moves and the drained books balance, and — with the
/// sampling clock at "almost never" — one forced trace completes whose
/// `Shed` span carries the code `docs/tracing.md` documents. (A failed
/// invoke, code 4, is no longer reachable from a request's tensors, which
/// admission checks: `service::tests` drives it past admission.)
#[test]
fn every_refusal_is_typed_counted_once_and_force_traced() {
    type Provoke = fn(&InferenceService) -> Rejection;
    let table: [(u64, Provoke); 4] = [
        (1, |service| {
            service.pause();
            let queued = service.submit("m", frame_input(1)).unwrap();
            let overflow = service.submit("m", frame_input(2)).unwrap_err();
            service.resume();
            queued.wait().unwrap();
            overflow
        }),
        (2, |service| {
            service.pause();
            let queued = service
                .submit_with_deadline("m", frame_input(1), Some(Duration::from_millis(1)))
                .unwrap();
            std::thread::sleep(Duration::from_millis(20));
            service.resume();
            queued.wait().unwrap_err()
        }),
        (3, |service| {
            service.drain();
            service.submit("m", frame_input(1)).unwrap_err()
        }),
        (5, |service| {
            let wrong_shape = vec![Tensor::filled_f32(Shape::nhwc(1, 4, 4, 3), 0.5)];
            service.submit("m", wrong_shape).unwrap_err()
        }),
    ];
    for (code, provoke) in table {
        let config = ServiceConfig {
            queue_capacity: 1,
            ..traced_config(1, 1_000_000)
        };
        let service = InferenceService::start(&traced_registry(), config, None).unwrap();
        let hub = service.trace_hub().unwrap().clone();
        // Tick 0 of the sampling clock is a hit: spend it on a request that
        // completes, so only the forced path can trace what follows.
        service.submit("m", frame_input(0)).unwrap().wait().unwrap();
        assert_eq!(hub.take_completed(0).len(), 1);
        let forced_before = hub.counters().forced;

        let rejection = provoke(&service);
        let typed = match rejection.reason {
            RejectReason::QueueFull { .. } => 1,
            RejectReason::DeadlineExpired { .. } => 2,
            RejectReason::ShuttingDown => 3,
            RejectReason::ExecutionFailed { .. } => 4,
            RejectReason::BadInput { .. } => 5,
            _ => 0,
        };
        assert_eq!(typed, code, "{rejection}");
        let report = service.drain();
        let stats = &report.models[0];
        let books = [
            stats.shed_queue_full,
            stats.shed_deadline,
            stats.shed_shutdown,
            stats.failed,
            stats.shed_bad_input,
        ];
        let mut only_its_own = [0; 5];
        only_its_own[code as usize - 1] = 1;
        assert_eq!(books, only_its_own, "{rejection}");
        assert!(stats.is_balanced(), "{stats:?}");
        assert_eq!(hub.counters().forced, forced_before + 1, "{rejection}");
        let traces = hub.take_completed(0);
        assert_eq!(traces.len(), 1, "{rejection}");
        let root = traces[0].root().expect("terminal request span");
        let shed = traces[0].stage(SpanStage::Shed).expect("shed span");
        assert_eq!(shed.arg_a, code, "{rejection}");
        assert_eq!(shed.parent_span_id, root.span_id);
        assert_eq!(
            root.parent_span_id, 0,
            "an in-process request has no parent"
        );
    }
}

fn start_traced_server(every: u64, sink: Option<Arc<dyn mlexray_core::LogSink>>) -> RpcServer {
    let registry = traced_registry();
    let service = InferenceService::start(&registry, traced_config(1, every), None).unwrap();
    RpcServer::start(
        "127.0.0.1:0",
        service,
        registry,
        RpcServerConfig {
            poll_interval: Duration::from_millis(5),
            ..Default::default()
        },
        sink,
    )
    .unwrap()
}

#[test]
fn wire_trace_context_propagates_end_to_end() {
    let server = start_traced_server(1_000_000, None);
    let mut client = RpcClient::connect(server.local_addr()).unwrap();
    // The caller mints the identity; the server's sampling clock (set to
    // practically-never) must not matter.
    let minted = TraceContext::sampled(0xA11C_E000_0000_0042);
    client
        .infer_traced("m", frame_input(1), None, minted)
        .unwrap();
    let reply = client.trace(0).unwrap();
    assert!(reply.traces >= 1, "wire-sampled request produced a trace");
    let id_hex = format!("{:016x}", minted.trace_id);
    assert!(reply.json.contains(&id_hex), "caller's trace id survives");
    // Door-side spans joined the same trace.
    for name in ["rpc_decode", "respond_encode", "exec", "queue_wait"] {
        assert!(
            reply.json.contains(&format!("\"name\":\"{name}\"")),
            "missing {name} event in {}",
            reply.json
        );
    }
    let status = client.status().unwrap();
    assert!(status.trace_sampled >= 1, "sampler counter on Status");
    server.shutdown();
}

#[test]
fn trace_verb_answers_during_drain_like_metrics() {
    let server = start_traced_server(1, None);
    let mut client = RpcClient::connect(server.local_addr()).unwrap();
    client.infer("m", frame_input(3), None).unwrap();
    server.begin_drain();
    // New work is refused…
    let err = client.infer("m", frame_input(4), None).unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::ShuttingDown));
    // …but Trace (like Metrics) keeps answering on the open session.
    let reply = client.trace(0).unwrap();
    assert!(reply.traces >= 1);
    assert!(client
        .metrics()
        .unwrap()
        .contains("mlexray_trace_sampled_total"));
    server.shutdown();
}

#[test]
fn status_counters_and_anonymous_tenant_label_agree() {
    let sink = Arc::new(MemorySink::new());
    let server = start_traced_server(1, Some(sink.clone()));
    let mut client = RpcClient::connect(server.local_addr()).unwrap();
    // No Hello: the session is anonymous everywhere it is accounted.
    client.infer("m", frame_input(5), None).unwrap();
    let status = client.status().unwrap();
    assert!(status.trace_sampled >= 1, "Status carries sampler counter");
    let exposition = client.metrics().unwrap();
    assert!(
        exposition.contains("tenant=\"anonymous\""),
        "exposition labels the anonymous tenant"
    );
    // The structured request log uses the same label — not "-", not "".
    let records = sink.snapshot();
    let rpc_lines: Vec<&str> = records
        .iter()
        .filter(|r| r.key.starts_with("rpc/"))
        .filter_map(|r| match &r.value {
            mlexray_core::LogValue::Text(text) => Some(text.as_str()),
            _ => None,
        })
        .collect();
    assert!(!rpc_lines.is_empty(), "door logged the session's requests");
    assert!(
        rpc_lines.iter().all(|l| l.contains("tenant=anonymous")),
        "log records agree with the exposition: {rpc_lines:?}"
    );
    server.shutdown();
}
