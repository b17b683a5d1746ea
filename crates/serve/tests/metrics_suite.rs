//! The metrics pipeline's acceptance proof: histogram quantile estimates
//! stay within one bucket of exact sorted-Vec percentiles across random
//! latency distributions, the footprint stays constant under a million
//! recorded completions, and the wire `Metrics` verb returns a valid
//! Prometheus exposition whose counters match the drained `ServeReport`
//! books exactly.
//!
//! Every server binds `127.0.0.1:0` — no fixed ports, parallel-CI safe.
#![recursion_limit = "512"]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mlexray_core::{ChannelSink, ChannelSinkConfig, LogSink, MemorySink};
use mlexray_nn::{Activation, BackendSpec, GraphBuilder, Model, Padding};
use mlexray_serve::metrics::{parse_exposition, sample, LatencyHistogram};
use mlexray_serve::rpc::{ErrorCode, RpcClient, RpcServer, RpcServerConfig};
use mlexray_serve::{BatchPolicy, InferenceService, ModelRegistry, MonitorPolicy, ServiceConfig};
use mlexray_tensor::{Shape, Tensor};
use proptest::prelude::*;

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

/// Feeds `values` through a [`LatencyHistogram`] and checks p50/p95/p99
/// estimates against the exact sorted-Vec order statistics: the estimate
/// must never fall below the exact percentile, and must exceed it by at
/// most the exact value's bucket width (the "one bucket's relative
/// error" bound the histogram design guarantees).
fn check_quantiles_within_one_bucket(mut values: Vec<u64>) -> Result<(), String> {
    let hist = LatencyHistogram::new();
    for &v in &values {
        hist.record(v);
    }
    values.sort_unstable();
    let snap = hist.snapshot();
    for p in [0.50, 0.95, 0.99] {
        let estimate = snap.quantile(p);
        let rank = ((values.len() as f64) * p).ceil() as usize;
        let exact = values[rank.clamp(1, values.len()) - 1];
        let (_, high) = LatencyHistogram::bucket_bounds_of(exact);
        if estimate < exact || estimate > high {
            return Err(format!(
                "p{p}: estimate {estimate} outside [{exact}, {high}]"
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// p50/p95/p99 within one bucket's relative error of the exact
    /// sorted-Vec percentiles, across random latency vectors spanning
    /// microseconds to tens of seconds.
    #[test]
    fn quantiles_match_exact_percentiles_on_random_distributions(
        values in prop::collection::vec(1_000u64..50_000_000_000, 1..400)
    ) {
        let verdict = check_quantiles_within_one_bucket(values);
        prop_assert!(verdict.is_ok(), "{:?}", verdict);
    }

    /// Same bound on a bimodal mixture (fast-path cluster + slow tail) —
    /// the shape that most stresses rank-walking across sparse buckets.
    #[test]
    fn quantiles_hold_on_bimodal_mixtures(
        fast in prop::collection::vec(10_000u64..200_000, 1..200),
        slow in prop::collection::vec(80_000_000u64..4_000_000_000, 1..60)
    ) {
        let values = fast.iter().chain(slow.iter()).copied().collect();
        let verdict = check_quantiles_within_one_bucket(values);
        prop_assert!(verdict.is_ok(), "{:?}", verdict);
    }
}

/// The bounded-memory guarantee: the footprint after one million recorded
/// completions is byte-identical to the footprint after one.
#[test]
fn footprint_constant_after_one_million_records() {
    let hist = LatencyHistogram::new();
    hist.record(1);
    let footprint = hist.footprint_bytes();
    for i in 0..1_000_000u64 {
        // Spread across the full range so every octave gets traffic.
        hist.record((i % 61) * 1_000 + (i * 2_654_435_761 % 1_000_000_000));
    }
    assert_eq!(hist.count(), 1_000_001);
    assert_eq!(
        hist.footprint_bytes(),
        footprint,
        "histogram footprint must be O(1) in request count"
    );
    // For contrast: the old Vec<u64> accounting would hold 8 MB by now.
    assert!(
        footprint < 8 * 1024,
        "footprint {footprint} B unexpectedly large"
    );
}

/// The wire-level acceptance criterion: `Metrics` over the RPC door
/// returns a valid Prometheus exposition whose serve counters match the
/// drained `ServeReport` books exactly (offered = admitted + sheds,
/// admitted = completed + deadline-shed + failed), with the sink and RPC
/// door series present. The scrape happens after drain began — the verb
/// must keep answering while the server winds down. A second session
/// scrapes while the load runs, and every exposition it gets must parse.
#[test]
fn wire_metrics_matches_drained_books_exactly() {
    let registry = ModelRegistry::new();
    registry
        .register_model("m", serving_model("m"), BackendSpec::optimized())
        .unwrap();
    let service = InferenceService::start(
        &registry,
        ServiceConfig {
            workers_per_model: 1,
            batch: BatchPolicy::windowed(4, Duration::from_micros(200)),
            // Every request feeds the online validator, so its series have
            // books to be held to.
            monitor: MonitorPolicy::sampled(1),
            ..Default::default()
        },
        None,
    )
    .unwrap();
    // One ChannelSink serves both as the RPC request log and as a
    // registered metrics source, so the scrape covers sink backpressure.
    let channel: Arc<ChannelSink> = Arc::new(ChannelSink::new(
        Arc::new(MemorySink::new()),
        ChannelSinkConfig::default(),
    ));
    let sink: Arc<dyn LogSink> = channel.clone();
    let server = RpcServer::start(
        "127.0.0.1:0",
        service,
        registry,
        RpcServerConfig {
            poll_interval: Duration::from_millis(5),
            ..Default::default()
        },
        Some(sink),
    )
    .unwrap();
    server.metrics().register(channel.clone());
    let addr = server.local_addr();

    let scraping = Arc::new(AtomicBool::new(true));
    let scrapes = Arc::new(AtomicUsize::new(0));
    let scraper = {
        let (scraping, scrapes) = (scraping.clone(), scrapes.clone());
        std::thread::spawn(move || {
            let mut c = RpcClient::connect(addr).unwrap();
            while scraping.load(Ordering::Acquire) {
                let exposition = c.metrics().expect("Metrics answers under load");
                parse_exposition(&exposition).expect("valid exposition under load");
                scrapes.fetch_add(1, Ordering::Release);
            }
        })
    };

    let mut client = RpcClient::connect(addr).unwrap();
    const COMPLETED: usize = 6;
    for i in 0..COMPLETED {
        let reply = client.infer("m", frame_input(i), None).unwrap();
        assert_eq!(reply.outputs.len(), 1);
    }
    // Force deterministic deadline sheds: hold the workers, admit two
    // short-deadline requests (one per connection — the client blocks per
    // request), let the deadlines lapse, release.
    server.service().pause();
    let shed_clients: Vec<_> = (0..2)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = RpcClient::connect(addr).unwrap();
                match c.infer("m", frame_input(100 + i), Some(Duration::from_millis(5))) {
                    Err(e) if e.server_code() == Some(ErrorCode::DeadlineExpired) => {}
                    other => panic!("expected deadline shed, got {other:?}"),
                }
            })
        })
        .collect();
    // Resume only after both requests sit in the queue and their deadlines
    // have lapsed — no timing luck involved.
    while server.service().queue_depth("m") != Some(2) {
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(10));
    // At least one scrape completes while both requests sit in the queue.
    let seen = scrapes.load(Ordering::Acquire);
    // (A scraper that died on a bad exposition ends the wait; its panic
    // surfaces at the join below.)
    while scrapes.load(Ordering::Acquire) == seen && !scraper.is_finished() {
        std::thread::sleep(Duration::from_millis(1));
    }
    server.service().resume();
    for handle in shed_clients {
        handle.join().unwrap();
    }
    scraping.store(false, Ordering::Release);
    scraper.join().unwrap();
    assert!(scrapes.load(Ordering::Acquire) >= 1);

    // One online drift check over the six completed frames.
    let alarm = server.service().drift_check("m").unwrap();
    assert!(alarm.is_some_and(|alarm| !alarm.raised));

    // Drain, then scrape over the wire: Metrics answers during drain.
    server.begin_drain();
    let report = server.service().drain();
    let books = report
        .models
        .iter()
        .find(|m| m.model == "m")
        .expect("model books")
        .clone();
    assert!(books.is_balanced(), "{books:?}");

    let exposition = client.metrics().expect("Metrics answers during drain");
    let samples = parse_exposition(&exposition).expect("valid Prometheus exposition");
    let m = &[("model", "m")][..];
    let get = |name: &str, labels: &[(&str, &str)]| -> u64 {
        sample(&samples, name, labels).unwrap_or_else(|| panic!("missing series {name}")) as u64
    };
    // Exact equality with the drained books, counter by counter.
    type ExpectedSeries<'a> = (&'a str, Vec<(&'a str, &'a str)>, u64);
    let expected: Vec<ExpectedSeries> = vec![
        (
            "mlexray_serve_requests_offered_total",
            m.to_vec(),
            books.offered,
        ),
        (
            "mlexray_serve_requests_admitted_total",
            m.to_vec(),
            books.admitted,
        ),
        (
            "mlexray_serve_requests_completed_total",
            m.to_vec(),
            books.completed,
        ),
        (
            "mlexray_serve_requests_failed_total",
            m.to_vec(),
            books.failed,
        ),
        (
            "mlexray_serve_requests_shed_total",
            vec![("model", "m"), ("reason", "queue_full")],
            books.shed_queue_full,
        ),
        (
            "mlexray_serve_requests_shed_total",
            vec![("model", "m"), ("reason", "deadline")],
            books.shed_deadline,
        ),
        (
            "mlexray_serve_requests_shed_total",
            vec![("model", "m"), ("reason", "shutdown")],
            books.shed_shutdown,
        ),
        ("mlexray_serve_batches_total", m.to_vec(), books.batches),
        (
            "mlexray_serve_batched_frames_total",
            m.to_vec(),
            books.batched_frames,
        ),
    ];
    for (name, labels, want) in &expected {
        let got = get(name, labels);
        assert_eq!(
            got, *want,
            "{name}{labels:?}: exposition {got} != books {want}"
        );
    }
    // The online validator's series are its own counters.
    let validator = server.service().validator_stats("m").expect("validator on");
    assert_eq!(
        (validator.observed, validator.checks, validator.alarms),
        (COMPLETED as u64, 1, 0)
    );
    assert_eq!(
        (
            get("mlexray_validator_observed_total", m),
            get("mlexray_validator_checks_total", m),
            get("mlexray_validator_alarms_total", m),
        ),
        (validator.observed, validator.checks, validator.alarms)
    );
    // The balance identities hold inside the exposition itself.
    let offered = get("mlexray_serve_requests_offered_total", m);
    let admitted = get("mlexray_serve_requests_admitted_total", m);
    let completed = get("mlexray_serve_requests_completed_total", m);
    let failed = get("mlexray_serve_requests_failed_total", m);
    let shed_q = get(
        "mlexray_serve_requests_shed_total",
        &[("model", "m"), ("reason", "queue_full")],
    );
    let shed_d = get(
        "mlexray_serve_requests_shed_total",
        &[("model", "m"), ("reason", "deadline")],
    );
    let shed_s = get(
        "mlexray_serve_requests_shed_total",
        &[("model", "m"), ("reason", "shutdown")],
    );
    assert_eq!(offered, admitted + shed_q + shed_s);
    assert_eq!(admitted, completed + shed_d + failed);
    assert_eq!(completed, COMPLETED as u64);
    assert_eq!(shed_d, 2);
    // Every executed batch was closed by exactly one reason.
    let closes: u64 = ["full", "callers_in", "window", "drained"]
        .iter()
        .map(|reason| {
            get(
                "mlexray_serve_batch_closes_total",
                &[("model", "m"), ("reason", reason)],
            )
        })
        .sum();
    assert_eq!(closes, books.batches);
    // The drained service holds no request, and the shed clients hung up;
    // only this scraping session is still an attached caller.
    let in_system = get(
        "mlexray_serve_callers",
        &[("model", "m"), ("state", "in_system")],
    );
    assert_eq!(in_system, 0);

    // The latency histogram counts every completion and parses as a
    // well-formed Prometheus histogram (parse_exposition already checked
    // cumulativity and the +Inf == _count invariant).
    assert_eq!(
        get("mlexray_serve_request_latency_seconds_count", m),
        books.completed
    );

    // The RPC door's own books and the sink series are in the same scrape.
    let anon_infer_ok = sample(
        &samples,
        "mlexray_rpc_requests_total",
        &[
            ("tenant", "anonymous"),
            ("verb", "infer"),
            ("outcome", "ok"),
        ],
    )
    .expect("per-tenant verb counter present");
    assert_eq!(anon_infer_ok as u64, COMPLETED as u64);
    let enqueued = sample(&samples, "mlexray_sink_enqueued_total", &[])
        .expect("sink backpressure series present");
    assert!(
        enqueued > 0.0,
        "request log writes must reach the sink series"
    );

    let rpc_report = server.shutdown();
    for stats in &rpc_report.serve.models {
        assert!(stats.is_balanced(), "unbalanced books: {stats:?}");
    }
}

/// Token-table servers: `Metrics` is not a pre-auth verb (the exposition
/// is server-global), and pre-auth `Status` reports only the session's
/// own arena bytes — never the server-global figure.
#[test]
fn metrics_requires_auth_and_preauth_status_is_session_scoped() {
    let mut tokens = BTreeMap::new();
    tokens.insert("tok-edge".to_string(), "edge-lab".to_string());
    let registry = ModelRegistry::new();
    registry
        .register_model("m", serving_model("m"), BackendSpec::optimized())
        .unwrap();
    let service = InferenceService::start(
        &registry,
        ServiceConfig {
            monitor: MonitorPolicy::off(),
            ..Default::default()
        },
        None,
    )
    .unwrap();
    let server = RpcServer::start(
        "127.0.0.1:0",
        service,
        registry,
        RpcServerConfig {
            tokens: Some(tokens),
            poll_interval: Duration::from_millis(5),
            ..Default::default()
        },
        None,
    )
    .unwrap();
    let addr = server.local_addr();

    // An authenticated session seals tensors: global sealed bytes > 0.
    let mut authed = RpcClient::connect(addr).unwrap();
    authed.hello("tok-edge").unwrap();
    authed.seal(frame_input(0)).unwrap();
    assert!(authed.status().unwrap().sealed_bytes > 0);

    // A fresh unauthenticated session: Metrics is refused...
    let mut anon = RpcClient::connect(addr).unwrap();
    let err = anon.metrics().unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::Unauthenticated));
    // ...and Status shows the session's own (empty) arena, not the
    // server-global sealed bytes.
    let status = anon.status().unwrap();
    assert_eq!(
        status.sealed_bytes, 0,
        "pre-auth Status must not leak global sealed bytes"
    );

    // After Hello, the same session sees the global figure and can scrape.
    anon.hello("tok-edge").unwrap();
    let status = anon.status().unwrap();
    assert!(status.sealed_bytes > 0);
    let exposition = anon.metrics().unwrap();
    let samples = parse_exposition(&exposition).expect("valid exposition");
    let refused = sample(
        &samples,
        "mlexray_rpc_requests_total",
        &[
            ("tenant", "anonymous"),
            ("verb", "metrics"),
            ("outcome", "unauthenticated"),
        ],
    )
    .expect("unauthenticated scrape counted");
    assert_eq!(refused as u64, 1);

    server.shutdown();
}
