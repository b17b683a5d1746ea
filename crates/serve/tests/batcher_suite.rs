//! The batch leader's close-or-wait rule, proven through the service and
//! through the RPC door: closed-loop door sessions stop paying a window
//! nobody can fill, a quiet session restores it, every failure path leaves
//! the caller ledger at zero, and the wait for followers no longer sheds
//! the requests it is holding.
//!
//! Windows here are 20–200 ms and margins are coarse, so the timing
//! assertions hold on a loaded 2-core box. The ledger is read the way an
//! operator reads it: the `mlexray_serve_callers` gauges and the
//! `mlexray_serve_batch_closes_total` counters of the metrics exposition.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use mlexray_core::SpanStage;
use mlexray_nn::{Activation, BackendSpec, GraphBuilder, Model, Padding};
use mlexray_serve::metrics::{parse_exposition, sample};
use mlexray_serve::rpc::{
    wire, ErrorCode, InferPayload, RpcClient, RpcRequest, RpcServer, RpcServerConfig,
};
use mlexray_serve::{
    BatchPolicy, InferenceService, ModelRegistry, MonitorPolicy, RejectReason, ServiceConfig,
    TracePolicy,
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

fn start_service(config: ServiceConfig) -> (InferenceService, ModelRegistry) {
    let registry = ModelRegistry::new();
    registry
        .register_model("m", serving_model("m"), BackendSpec::optimized())
        .unwrap();
    let service = InferenceService::start(
        &registry,
        ServiceConfig {
            monitor: MonitorPolicy::off(),
            ..config
        },
        None,
    )
    .unwrap();
    (service, registry)
}

fn start_server(config: ServiceConfig) -> RpcServer {
    let (service, registry) = start_service(config);
    RpcServer::start(
        "127.0.0.1:0",
        service,
        registry,
        RpcServerConfig {
            poll_interval: Duration::from_millis(5),
            ..Default::default()
        },
        None,
    )
    .unwrap()
}

/// `(attached, in_system)` of model "m", from the gauges.
fn callers(server: &RpcServer) -> (u64, u64) {
    let samples = parse_exposition(&server.metrics().render()).expect("valid exposition");
    let read = |state| {
        sample(
            &samples,
            "mlexray_serve_callers",
            &[("model", "m"), ("state", state)],
        )
        .expect("caller gauge present") as u64
    };
    (read("attached"), read("in_system"))
}

/// Batches of model "m" by what closed them.
struct Closes {
    full: u64,
    callers_in: u64,
    window: u64,
    drained: u64,
}

impl Closes {
    fn read(server: &RpcServer) -> Closes {
        let samples = parse_exposition(&server.metrics().render()).expect("valid exposition");
        let read = |reason| {
            sample(
                &samples,
                "mlexray_serve_batch_closes_total",
                &[("model", "m"), ("reason", reason)],
            )
            .expect("close counter present") as u64
        };
        Closes {
            full: read("full"),
            callers_in: read("callers_in"),
            window: read("window"),
            drained: read("drained"),
        }
    }

    fn total(&self) -> u64 {
        self.full + self.callers_in + self.window + self.drained
    }
}

/// Polls an observable condition (never a bare sleep), failing loudly
/// instead of hanging.
fn wait_until(what: &str, condition: impl Fn() -> bool) {
    let give_up = Instant::now() + Duration::from_secs(10);
    while !condition() {
        assert!(Instant::now() < give_up, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Every session detached, nothing counted in the system, balanced books.
fn assert_settles(server: RpcServer) {
    wait_until("the caller ledger reads zero", || {
        callers(&server) == (0, 0)
    });
    let report = server.shutdown();
    for stats in &report.serve.models {
        assert!(stats.is_balanced(), "unbalanced books: {stats:?}");
    }
}

/// `sessions` closed-loop clients, `per_session` inline `Infer`s each, all
/// started together; returns the wall time of the whole run. Each client
/// hangs up as soon as it is done — one that lingered would be the quiet
/// attached session of test (ii) to those still running.
fn closed_loop(server: &RpcServer, sessions: usize, per_session: usize) -> Duration {
    let addr = server.local_addr();
    let clients: Vec<RpcClient> = (0..sessions)
        .map(|_| RpcClient::connect(addr).unwrap())
        .collect();
    let started = Instant::now();
    std::thread::scope(|scope| {
        for (c, mut client) in clients.into_iter().enumerate() {
            scope.spawn(move || {
                for i in 0..per_session {
                    let reply = client.infer("m", frame_input(c * 100 + i), None).unwrap();
                    assert_eq!(reply.outputs.len(), 1);
                }
            });
        }
    });
    started.elapsed()
}

/// The satellite bug: the wait for followers used to be judged against the
/// deadline only after it ended, so a 200 ms window shed every request
/// with a shorter deadline on an idle service. Now the wait ends at the
/// member's deadline and the request runs.
#[test]
fn the_follower_wait_does_not_shed_the_request_it_holds() {
    let (service, _registry) = start_service(ServiceConfig {
        batch: BatchPolicy::windowed(4, Duration::from_millis(200)),
        ..Default::default()
    });
    let started = Instant::now();
    let response = service
        .submit_with_deadline("m", frame_input(0), Some(Duration::from_millis(20)))
        .unwrap()
        .wait()
        .expect("a worker popped the request in time, so it runs");
    let took = started.elapsed();
    assert_eq!(response.batch_size, 1);
    assert!(
        took < Duration::from_millis(150),
        "the wait must end at the 20 ms deadline, not the 200 ms window: {took:?}"
    );
    let report = service.shutdown();
    let stats = &report.models[0];
    assert_eq!((stats.completed, stats.shed_deadline), (1, 0), "{stats:?}");
    assert!(stats.is_balanced(), "{stats:?}");
}

/// A follower that is already expired when popped is shed without joining,
/// and does not hold up the live leader's batch.
#[test]
fn an_expired_follower_is_shed_without_joining() {
    let (service, _registry) = start_service(ServiceConfig {
        batch: BatchPolicy::windowed(4, Duration::ZERO),
        start_paused: true,
        ..Default::default()
    });
    let live = service.submit("m", frame_input(0)).unwrap();
    let doomed = service
        .submit_with_deadline("m", frame_input(1), Some(Duration::from_millis(1)))
        .unwrap();
    std::thread::sleep(Duration::from_millis(5));
    service.resume();
    assert_eq!(live.wait().unwrap().batch_size, 1);
    let rejection = doomed.wait().unwrap_err();
    assert!(matches!(
        rejection.reason,
        RejectReason::DeadlineExpired { .. }
    ));
    assert!(service.shutdown().models[0].is_balanced());
}

/// A traced request's `batch_form` span says what closed its batch, in
/// the `flavor` byte: 1 full, 3 window (2 callers-in needs the door; 4
/// drained needs a shutdown race).
#[test]
fn batch_form_spans_carry_the_close_reason() {
    for (batch, code) in [
        (BatchPolicy::single(), 1),
        (BatchPolicy::windowed(4, Duration::from_millis(2)), 3),
    ] {
        let (service, _registry) = start_service(ServiceConfig {
            batch,
            trace: TracePolicy::sampled(1),
            ..Default::default()
        });
        service.submit("m", frame_input(0)).unwrap().wait().unwrap();
        let traces = service.trace_hub().unwrap().take_completed(0);
        let span = traces[0].stage(SpanStage::BatchForm).expect("batch_form");
        assert_eq!(span.flavor, code, "{batch:?}");
        service.shutdown();
    }
}

/// (i) Two closed-loop sessions can never fill `max_batch = 4`; the leader
/// must see that both are in the system and close at once instead of
/// sleeping 100 ms per batch (30 batches: at least 3 s before the ledger).
#[test]
fn closed_loop_sessions_do_not_pay_a_window_nobody_can_fill() {
    let server = start_server(ServiceConfig {
        workers_per_model: 1,
        batch: BatchPolicy::windowed(4, Duration::from_millis(100)),
        ..Default::default()
    });
    let took = closed_loop(&server, 2, 30);
    assert!(
        took < Duration::from_millis(1500),
        "60 infers took {took:?}"
    );
    let closes = Closes::read(&server);
    let stats = server.service().stats("m").unwrap();
    assert_eq!(stats.completed, 60, "{stats:?}");
    assert_eq!(closes.total(), stats.batches, "every batch has a reason");
    assert!(
        closes.callers_in * 10 >= stats.batches * 8,
        "almost every batch closes because both callers are in: {} of {}",
        closes.callers_in,
        stats.batches
    );
    assert!(
        stats.mean_batch() >= 1.5 && stats.max_batch == 2,
        "the pair still coalesces: {stats:?}"
    );
    assert_settles(server);
}

/// (ii) The case the ledger deliberately leaves out: a session that stays
/// connected but goes quiet keeps `in_system < attached`, so the window
/// comes back — never worse than before the ledger, but no better until
/// the session leaves.
#[test]
fn a_quiet_attached_session_restores_the_window() {
    let window = Duration::from_millis(20);
    let server = start_server(ServiceConfig {
        workers_per_model: 1,
        batch: BatchPolicy::windowed(4, window),
        ..Default::default()
    });
    let mut quiet = RpcClient::connect(server.local_addr()).unwrap();
    quiet.infer("m", frame_input(999), None).unwrap();
    assert_eq!(callers(&server), (1, 0));

    let before = Closes::read(&server);
    let took = closed_loop(&server, 2, 10);
    let during = Closes::read(&server);
    assert_eq!(
        during.callers_in, before.callers_in,
        "with the quiet session attached, two callers in are not all callers"
    );
    assert!(
        during.window - before.window >= 10,
        "every batch waits out the window again"
    );
    assert!(took >= window * 10, "{took:?}");

    // The session leaves; the pair is all there is, and is fast again.
    drop(quiet);
    wait_until("the quiet session detaches", || callers(&server).0 == 0);
    closed_loop(&server, 2, 10);
    let after = Closes::read(&server);
    assert!(
        after.callers_in - during.callers_in >= 8,
        "callers-in closes resume once the quiet session is gone"
    );
    assert_settles(server);
}

/// (iii-a) A client that drops its socket mid-`Infer`: the request is
/// answered into the void, counted out, and the session detaches.
#[test]
fn a_socket_dropped_mid_infer_leaves_the_ledger_at_zero() {
    let server = start_server(ServiceConfig {
        start_paused: true,
        ..Default::default()
    });
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let payload = wire::encode_request(
        1,
        &RpcRequest::Infer {
            model: "m".into(),
            payload: InferPayload::Tensors(frame_input(0)),
            deadline_ms: 0,
            trace: None,
        },
    );
    stream
        .write_all(&(payload.len() as u32).to_le_bytes())
        .unwrap();
    stream.write_all(&payload).unwrap();
    wait_until("the request is queued", || {
        server.service().queue_depth("m") == Some(1)
    });
    assert_eq!(callers(&server), (1, 1));
    drop(stream);
    server.service().resume();
    assert_settles(server);
}

/// (iii-b) A `QueueFull` refusal undoes its own count and nobody else's.
#[test]
fn a_queue_full_refusal_leaves_the_ledger_at_zero() {
    let server = start_server(ServiceConfig {
        queue_capacity: 1,
        start_paused: true,
        ..Default::default()
    });
    let addr = server.local_addr();
    let admitted = std::thread::spawn(move || {
        let mut client = RpcClient::connect(addr).unwrap();
        client.infer("m", frame_input(0), None).unwrap();
    });
    wait_until("the first request is queued", || {
        server.service().queue_depth("m") == Some(1)
    });
    let mut refused = RpcClient::connect(addr).unwrap();
    let err = refused.infer("m", frame_input(1), None).unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::QueueFull));
    assert_eq!(
        callers(&server),
        (2, 1),
        "the refused caller stays attached but is not in the system"
    );
    server.service().resume();
    admitted.join().unwrap();
    drop(refused);
    assert_settles(server);
}

/// (iii-c) A deadline shed is counted out like a completion.
#[test]
fn a_deadline_shed_leaves_the_ledger_at_zero() {
    let server = start_server(ServiceConfig {
        start_paused: true,
        ..Default::default()
    });
    let addr = server.local_addr();
    let shed = std::thread::spawn(move || {
        let mut client = RpcClient::connect(addr).unwrap();
        let err = client
            .infer("m", frame_input(0), Some(Duration::from_millis(5)))
            .unwrap_err();
        assert_eq!(err.server_code(), Some(ErrorCode::DeadlineExpired));
    });
    wait_until("the request is queued", || {
        server.service().queue_depth("m") == Some(1)
    });
    std::thread::sleep(Duration::from_millis(10));
    server.service().resume();
    shed.join().unwrap();
    assert_settles(server);
}

/// (iii-d) A batch whose invoke fails is counted out before its error
/// replies; the session stays attached and keeps working.
#[test]
fn an_execution_failure_leaves_the_ledger_at_zero() {
    let server = start_server(ServiceConfig::default());
    let mut client = RpcClient::connect(server.local_addr()).unwrap();
    let bad = vec![Tensor::from_f32(Shape::new(vec![1, 3]), vec![1.0, 2.0, 3.0]).unwrap()];
    let err = client.infer("m", bad, None).unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::ExecutionFailed));
    assert_eq!(callers(&server), (1, 0));
    client.infer("m", frame_input(0), None).unwrap();
    assert_eq!(callers(&server), (1, 0));
    drop(client);
    assert_settles(server);
}

/// (iv) Two workers: a caller whose request sits in the *other* worker's
/// batch is in the system all the same, so neither worker waits for it.
#[test]
fn callers_in_another_workers_batch_count_as_in_the_system() {
    let server = start_server(ServiceConfig {
        workers_per_model: 2,
        core_budget: 2,
        queue_capacity: 256,
        batch: BatchPolicy::windowed(4, Duration::from_millis(100)),
        ..Default::default()
    });
    assert_eq!(server.service().stats("m").unwrap().workers, 2);
    let took = closed_loop(&server, 2, 30);
    assert!(
        took < Duration::from_millis(1500),
        "60 infers took {took:?}"
    );
    let closes = Closes::read(&server);
    let stats = server.service().stats("m").unwrap();
    assert_eq!(stats.completed, 60, "{stats:?}");
    assert!(
        closes.callers_in * 10 >= stats.batches * 8,
        "almost every batch closes because both callers are in: {} of {}",
        closes.callers_in,
        stats.batches
    );
    assert_settles(server);
}
