//! The traced pass: an outside-in walk of the layers a workload passes
//! through. One thread replays operations sequentially through each
//! layer's public entry point — the door, a twin in-process service, a
//! private backend, the codec functions — wrapping every call in a span.
//! All layers are visited within each operation, so they see the same
//! machine-speed phases and their differences mean something.

use std::path::Path;
use std::time::{Duration, Instant};

use mlexray_core::{
    ChannelSink, ChannelSinkConfig, LogRecord, LogSink, LogValue, Monitor, MonitorConfig,
    StageBreakdown, KEY_INFERENCE_LATENCY,
};
use mlexray_nn::{BackendSpec, BoxedBackend, LayerObserver, LayerRecord, OpKind};
use mlexray_serve::rpc::{wire as codec, InferPayload, RpcClient, RpcRequest, RpcResponse};
use mlexray_serve::rpc::{RpcServer, WireInferResponse};
use mlexray_serve::TracePolicy;
use mlexray_tensor::Tensor;

use crate::inputs::FRAMES;
use crate::measure::{ms, us};
use crate::replay::Replay;
use crate::serving::{self, Served};
use crate::spans::{self_times_ns, Recorder};
use crate::stats::median;
use crate::wire::open_door;
use crate::workload::{same_bits, timed, Kind, Layers, Workload};

/// Fewest operations a walk replays, however slow the machine.
const MIN_OPS: u64 = FRAMES as u64;

/// A timing-only layer observer: per-op-kind latency and MACs, no outputs.
#[derive(Default)]
struct KindTimer {
    conv: Duration,
    dwconv: Duration,
    fc: Duration,
    other: Duration,
    macs: u64,
    frames: u64,
}

impl LayerObserver for KindTimer {
    fn on_layer(&mut self, record: &LayerRecord<'_>) {
        let slot = match record.op {
            OpKind::Conv2d { .. } => &mut self.conv,
            OpKind::DepthwiseConv2d { .. } => &mut self.dwconv,
            OpKind::FullyConnected { .. } => &mut self.fc,
            _ => &mut self.other,
        };
        *slot += record.latency;
        self.macs += record.macs;
        if record.index == 0 {
            self.frames += 1;
        }
    }

    fn wants_output(&self, _batch: usize) -> bool {
        false
    }
}

/// What the walk found, besides the spans.
pub struct Walked {
    pub layers: Layers,
    pub ops: u64,
    pub failed: usize,
}

fn p50(rec: &Recorder, name: &str) -> f64 {
    median(&rec.durations_us(name))
}

/// Walks the `nn` layer for one input: plain, observed and (every fourth
/// op) batched invokes on a private backend.
fn walk_nn(
    rec: &mut Recorder,
    root: usize,
    op: u64,
    backend: &mut BoxedBackend<'_>,
    timer: &mut KindTimer,
    inputs: &[Tensor],
    k: usize,
) -> Vec<Tensor> {
    let input = std::slice::from_ref(&inputs[k]);
    let out = rec
        .within("nn.invoke", Some(root), op, || backend.invoke(input))
        .expect("private backend invokes");
    rec.within("nn.observed_invoke", Some(root), op, || {
        backend.invoke_observed(input, timer)
    })
    .expect("observed invoke succeeds");
    if op % 4 == 3 {
        let batch: Vec<&[Tensor]> = (0..4)
            .map(|j| std::slice::from_ref(&inputs[(k + j) % inputs.len()]))
            .collect();
        rec.within("nn.invoke_batch", Some(root), op, || {
            backend.invoke_batch(&batch)
        })
        .expect("batched invoke succeeds");
    }
    out
}

/// Folds the `nn` spans and the observer's books into `layers`.
fn nn_layers(
    rec: &Recorder,
    timer: &KindTimer,
    backend: &mut BoxedBackend<'_>,
    input: &Tensor,
    build_ms: f64,
    layers: &mut Layers,
) {
    layers.insert("nn.build_ms", build_ms);
    layers.insert("nn.invoke_us", p50(rec, "nn.invoke"));
    layers.insert(
        "nn.invoke_batch_us_per_frame",
        p50(rec, "nn.invoke_batch") / 4.0,
    );
    layers.insert("nn.observed_invoke_us", p50(rec, "nn.observed_invoke"));
    let total = (timer.conv + timer.dwconv + timer.fc + timer.other).as_secs_f64();
    for (name, part) in [
        ("nn.conv_share", timer.conv),
        ("nn.dwconv_share", timer.dwconv),
        ("nn.fc_share", timer.fc),
        ("nn.other_share", timer.other),
    ] {
        layers.insert(name, part.as_secs_f64() / total);
    }
    let macs = timer.macs as f64 / timer.frames as f64;
    layers.insert("nn.macs_per_frame", macs);
    layers.insert("nn.macs_per_us", macs / p50(rec, "nn.invoke"));
    backend
        .invoke(std::slice::from_ref(input))
        .expect("private backend invokes");
    let stats = backend.last_stats().expect("an invoke just ran");
    layers.insert("nn.arena_bytes", stats.arena_bytes as f64);
    layers.insert(
        "nn.peak_activation_bytes",
        stats.peak_activation_bytes as f64,
    );
    layers.insert("nn.allocations_per_invoke", stats.allocations as f64);
}

/// Median of five backend builds (plan + arena), ms.
fn build_ms(spec: BackendSpec, graph: &mlexray_nn::Graph) -> f64 {
    let builds: Vec<f64> = (0..5)
        .map(|_| ms(timed(|| spec.build(graph).expect("backend builds")).1))
        .collect();
    median(&builds)
}

/// The program's own stage budget, per traced request, from the profiled
/// twin's `TraceHub::profile()`.
fn stage_layers(b: &StageBreakdown, layers: &mut Layers) {
    let per = |ns: u64| ns as f64 / 1e3 / b.traces.max(1) as f64;
    let stages = [
        ("serve.stage_admission_us", b.admission_ns),
        ("serve.stage_queue_wait_us", b.queue_ns),
        ("serve.stage_batch_form_us", b.batch_wait_ns),
        ("serve.stage_exec_us", b.exec_ns),
        ("serve.stage_respond_us", b.respond_ns),
    ];
    let sum: u64 = stages.iter().map(|s| s.1).sum();
    for (name, ns) in stages {
        layers.insert(name, per(ns));
    }
    layers.insert("serve.stage_total_us", per(b.total_ns));
    layers.insert(
        "serve.stage_residual_share",
        b.total_ns.abs_diff(sum) as f64 / b.total_ns.max(1) as f64,
    );
}

/// `burst` in-process requests through `served`, submitted together the way
/// the workload's generator does; true if every reply matched the oracle.
fn submit_wait(served: &Served, k: usize, burst: usize) -> bool {
    let frames = (0..burst).map(|j| (k + j) % FRAMES);
    let pending: Vec<_> = frames
        .clone()
        .map(|f| {
            served
                .service
                .submit(served.spec.model, vec![served.inputs[f].clone()])
        })
        .collect();
    pending.into_iter().zip(frames).all(|(p, f)| {
        matches!(p.map(|p| p.wait()), Ok(Ok(r)) if same_bits(&r.outputs, &served.expected[f]))
    })
}

/// The door as the workload runs it, with one connection and every frame
/// sealed once.
struct DoorWalk {
    server: RpcServer,
    client: RpcClient,
    handles: Vec<u64>,
}

impl DoorWalk {
    /// One inline-upload `infer`; true if the reply matched the oracle.
    fn infer(&mut self, model: &str, input: &Tensor, expected: &[Tensor]) -> bool {
        let reply = self.client.infer(model, vec![input.clone()], None);
        matches!(&reply, Ok(r) if same_bits(&r.outputs, expected))
    }

    /// Walks `serve.rpc` for one frame: the codec functions on the frames
    /// this workload really sends, then the door's fixed cost (`status`),
    /// the whole stack (`infer`) and the same without the upload (sealed).
    /// Returns how many calls failed or missed the oracle.
    #[allow(clippy::too_many_arguments)]
    fn walk(
        &mut self,
        rec: &mut Recorder,
        root: usize,
        op: u64,
        model: &str,
        k: usize,
        input: &Tensor,
        expected: &[Tensor],
    ) -> usize {
        let request = RpcRequest::Infer {
            model: model.to_string(),
            payload: InferPayload::Tensors(vec![input.clone()]),
            deadline_ms: 0,
            trace: None,
        };
        let frame = rec.within("serve.rpc.encode_request", Some(root), op, || {
            codec::encode_request(op, &request)
        });
        rec.within("serve.rpc.decode_request", Some(root), op, || {
            codec::decode_request(&frame)
        })
        .expect("own request frame decodes");
        let response = RpcResponse::Infer(WireInferResponse {
            request_id: op,
            outputs: expected.to_vec(),
            total_latency_us: 900,
            exec_latency_us: 400,
            batch_size: 1,
            sampled: false,
        });
        let frame = rec.within("serve.rpc.encode_response", Some(root), op, || {
            codec::encode_response(op, &response)
        });
        rec.within("serve.rpc.decode_response", Some(root), op, || {
            codec::decode_response(&frame)
        })
        .expect("own response frame decodes");
        let status = rec.within("serve.rpc.status_roundtrip", Some(root), op, || {
            self.client.status()
        });
        let inline = rec.within("serve.rpc.infer_roundtrip", Some(root), op, || {
            self.infer(model, input, expected)
        });
        let sealed = rec.within("serve.rpc.sealed_roundtrip", Some(root), op, || {
            self.client.infer_sealed(model, self.handles[k], None)
        });
        let sealed = matches!(&sealed, Ok(r) if same_bits(&r.outputs, expected));
        usize::from(status.is_err()) + usize::from(!inline) + usize::from(!sealed)
    }
}

fn walk_serving(kind: Kind, seed: u64, out: &Path, budget: Duration, rec: &mut Recorder) -> Walked {
    let file = |tag: &str| out.join(format!("{}.walk.{tag}.jsonl", kind.name()));
    let on_wire = kind != Kind::ServeBatch;
    // serve_batch's unit of work is a burst; the wire clients send singles.
    let burst = if on_wire {
        1
    } else {
        crate::serve_batch::BURST
    };
    // Twin service: the workload's own configuration, reached in process.
    let (twin, _) = serving::start(
        kind,
        seed,
        &file("twin"),
        serving::ServingSpec::of(kind).trace(),
    );
    // Profiled twin: every request traced, for the program's stage budget.
    let (profiled, _) = serving::start(kind, seed, &file("profiled"), TracePolicy::sampled(1));
    let spec = twin.spec;
    let (inputs, expected) = (twin.inputs.clone(), twin.expected.clone());
    let mut door = on_wire.then(|| {
        let (served, _) = serving::start(kind, seed, &file("door"), spec.trace());
        let server = open_door(served);
        let mut client = RpcClient::connect(server.local_addr()).expect("client connects");
        let handles = inputs
            .iter()
            .map(|t| client.seal(vec![t.clone()]).expect("frame seals"))
            .collect();
        DoorWalk {
            server,
            client,
            handles,
        }
    });
    let log_sink = spec.monitored.then(|| {
        ChannelSink::jsonl(&file("sink"), ChannelSinkConfig::default())
            .expect("telemetry file opens")
    });
    let entry = twin.entry.clone();
    let nn_build_ms = build_ms(spec.backend, entry.graph());
    let mut backend = spec.backend.build(entry.graph()).expect("backend builds");
    let mut timer = KindTimer::default();
    let hub = profiled
        .service
        .trace_hub()
        .cloned()
        .expect("profiled twin traces");

    let mut untraced_us = Vec::new();
    let mut failed = 0;
    let started = Instant::now();
    let mut op = 0u64;
    while op < MIN_OPS || started.elapsed() < budget {
        let k = op as usize % FRAMES;
        // The whole operation once with the recorder out of the way: the
        // difference to its traced twin is what tracing costs. Whichever
        // of the two runs second finds warm caches, so they take turns.
        let mut untraced = |door: &mut Option<DoorWalk>| {
            let (ok, took) = timed(|| match door {
                Some(door) => door.infer(spec.model, &inputs[k], &expected[k]),
                None => submit_wait(&twin, k, burst),
            });
            untraced_us.push(us(took));
            usize::from(!ok)
        };
        if op.is_multiple_of(2) {
            failed += untraced(&mut door);
        }
        let root = rec.open("op", None, op);
        if let Some(door) = &mut door {
            failed += door.walk(rec, root, op, spec.model, k, &inputs[k], &expected[k]);
        }
        let ok = rec.within("serve.submit_wait", Some(root), op, || {
            submit_wait(&twin, k, burst)
        });
        failed += usize::from(!ok);
        let ok = rec.within("serve.stage_probe", Some(root), op, || {
            submit_wait(&profiled, k, burst)
        });
        failed += usize::from(!ok);
        let outputs = walk_nn(rec, root, op, &mut backend, &mut timer, &inputs, k);
        failed += usize::from(!same_bits(&outputs, &expected[k]));
        if let Some(sink) = &log_sink {
            let record = LogRecord {
                frame: op,
                key: KEY_INFERENCE_LATENCY.to_string(),
                value: LogValue::LatencyNs(900_000),
            };
            rec.within("core.sink.log", Some(root), op, || sink.write(record));
        }
        rec.close(root);
        if op % 2 == 1 {
            failed += untraced(&mut door);
        }
        // Fold the profiled twin's spans before its rings wrap.
        if op % 16 == 15 {
            hub.collect();
        }
        op += 1;
    }

    let mut layers = Layers::new();
    for (metric, span) in [
        ("serve.rpc.encode_request_us", "serve.rpc.encode_request"),
        ("serve.rpc.decode_request_us", "serve.rpc.decode_request"),
        ("serve.rpc.encode_response_us", "serve.rpc.encode_response"),
        ("serve.rpc.decode_response_us", "serve.rpc.decode_response"),
        (
            "serve.rpc.status_roundtrip_us",
            "serve.rpc.status_roundtrip",
        ),
        ("serve.rpc.infer_roundtrip_us", "serve.rpc.infer_roundtrip"),
        (
            "serve.rpc.sealed_roundtrip_us",
            "serve.rpc.sealed_roundtrip",
        ),
        ("serve.submit_wait_us", "serve.submit_wait"),
        ("core.sink.log_us", "core.sink.log"),
    ] {
        layers.insert(metric, p50(rec, span));
    }
    nn_layers(
        rec,
        &timer,
        &mut backend,
        &inputs[0],
        nn_build_ms,
        &mut layers,
    );
    let submit = layers["serve.submit_wait_us"];
    let exec = if burst == 1 {
        layers["nn.invoke_us"]
    } else {
        burst as f64 * layers["nn.invoke_batch_us_per_frame"]
    };
    layers.insert("serve.self_us", submit - exec);
    let whole = if on_wire {
        let infer = layers["serve.rpc.infer_roundtrip_us"];
        layers.insert("serve.rpc.self_us", infer - submit);
        infer
    } else {
        submit
    };
    layers.insert("loadgen.walked_op_us", whole);
    layers.insert(
        "loadgen.trace_overhead_share",
        (whole - median(&untraced_us)) / median(&untraced_us),
    );
    let profile = hub.profile();
    stage_layers(
        profile
            .model(spec.model)
            .expect("profiled twin served the model"),
        &mut layers,
    );

    drop(backend);
    if let Some(door) = door {
        drop(door.client);
        failed += usize::from(door.server.shutdown().errors_sent > 0);
    }
    for served in [twin, profiled] {
        let report = served.service.shutdown();
        failed += usize::from(!report.models[0].is_balanced());
    }
    drop(log_sink);
    for tag in ["twin", "profiled", "door", "sink"] {
        let _ = std::fs::remove_file(file(tag));
    }
    Walked {
        layers,
        ops: op,
        failed,
    }
}

fn walk_replay(seed: u64, out: &Path, budget: Duration, rec: &mut Recorder) -> Walked {
    let (mut w, _) = Replay::setup(Kind::ReplayValidate, seed, out);
    // The walk borrows the pipelines while `w.job()` needs `w` whole.
    let (edge, reference) = (w.edge.clone(), w.reference.clone());
    let frames = w.frames.clone();
    let inputs = crate::inputs::tensors(&frames, &edge.preprocess);
    let mut edge_runner = edge.runner().expect("edge runner builds");
    let mut reference_runner = reference
        .pipeline()
        .runner()
        .expect("reference runner builds");
    // Fresh monitors per shard, as a replay worker has: frame numbers stay
    // shard-local and the logs never outgrow a shard.
    let monitors = || {
        let offline = MonitorConfig::offline_validation();
        (
            Monitor::new(offline),
            Monitor::new(offline),
            Monitor::new(MonitorConfig::runtime()),
        )
    };
    let (mut edge_monitor, mut reference_monitor, mut runtime_monitor) = monitors();
    let graph = &reference.pipeline().model.graph;
    let nn_build_ms = build_ms(BackendSpec::reference(), graph);
    let mut backend = BackendSpec::reference()
        .build(graph)
        .expect("backend builds");
    let mut timer = KindTimer::default();

    let shard_frames = crate::replay::options().shard_frames;
    let mut shards = Vec::new();
    let (mut records, mut log_bytes, mut logged_frames) = (0usize, 0u64, 0usize);
    let mut untraced_us = Vec::new();
    let mut failed = 0;
    let started = Instant::now();
    let mut op = 0u64;
    while op < MIN_OPS || started.elapsed() < budget {
        let k = op as usize % FRAMES;
        let frame = &frames[k];
        let root = rec.open("op", None, op);
        rec.within("preprocess.apply", Some(root), op, || {
            edge.preprocess.apply(&frame.image)
        })
        .expect("frame preprocesses");
        let seen = [
            rec.within("core.pipeline.classify_edge", Some(root), op, || {
                edge_runner.classify(frame, &edge_monitor)
            }),
            rec.within(
                "core.pipeline.classify_edge_runtime",
                Some(root),
                op,
                || edge_runner.classify(frame, &runtime_monitor),
            ),
            rec.within("core.pipeline.classify_reference", Some(root), op, || {
                reference_runner.classify(frame, &reference_monitor)
            }),
        ];
        failed += seen.iter().filter(|r| r.is_err()).count();
        walk_nn(rec, root, op, &mut backend, &mut timer, &inputs, k);
        rec.close(root);
        op += 1;
        if (op as usize).is_multiple_of(shard_frames) {
            // One shard's worth of logs is in the monitors: validate it the
            // way a replay worker does.
            let (edge_logs, reference_logs) =
                (edge_monitor.take_logs(), reference_monitor.take_logs());
            (edge_monitor, reference_monitor, runtime_monitor) = monitors();
            records += edge_logs.len();
            log_bytes += edge_logs.byte_size();
            logged_frames += shard_frames;
            shards.push(rec.within("core.validate.shard", None, op, || {
                w.validator.validate_shard(0, &edge_logs, &reference_logs)
            }));
        }
        if (op as usize).is_multiple_of(FRAMES) {
            rec.within("core.validate.merge", None, op, || {
                w.validator.merge_shards(&shards)
            });
            shards.clear();
            let (took, ok) = w.job();
            untraced_us.push(took * 1e3);
            failed += usize::from(!ok);
            let (_, ok) = rec.within("core.replay.job", None, op, || w.job());
            failed += usize::from(!ok);
        }
    }

    let mut layers = Layers::new();
    for (metric, span) in [
        ("preprocess.apply_us", "preprocess.apply"),
        (
            "core.pipeline.classify_edge_us",
            "core.pipeline.classify_edge",
        ),
        (
            "core.pipeline.classify_reference_us",
            "core.pipeline.classify_reference",
        ),
        ("core.validate.merge_us", "core.validate.merge"),
    ] {
        layers.insert(metric, p50(rec, span));
    }
    nn_layers(
        rec,
        &timer,
        &mut backend,
        &inputs[0],
        nn_build_ms,
        &mut layers,
    );
    layers.insert(
        "core.monitor.capture_us",
        layers["core.pipeline.classify_edge_us"] - p50(rec, "core.pipeline.classify_edge_runtime"),
    );
    layers.insert(
        "core.monitor.records_per_frame",
        records as f64 / logged_frames as f64,
    );
    layers.insert(
        "core.monitor.log_bytes_per_frame",
        log_bytes as f64 / logged_frames as f64,
    );
    let shard_us = p50(rec, "core.validate.shard");
    layers.insert(
        "core.validate.shard_us_per_frame",
        shard_us / shard_frames as f64,
    );
    let job_us = p50(rec, "core.replay.job");
    layers.insert("core.replay.job_ms", job_us / 1e3);
    let parts = FRAMES as f64
        * (layers["core.pipeline.classify_edge_us"]
            + layers["core.pipeline.classify_reference_us"])
        + (FRAMES / shard_frames) as f64 * shard_us
        + layers["core.validate.merge_us"];
    layers.insert("core.replay.self_share", 1.0 - parts / job_us);
    layers.insert("loadgen.walked_op_us", job_us);
    layers.insert(
        "loadgen.trace_overhead_share",
        (job_us - median(&untraced_us)) / median(&untraced_us),
    );
    Walked {
        layers,
        ops: op,
        failed,
    }
}

/// Walks `kind`'s layers for about `budget`, recording spans into `rec`.
pub fn walk(kind: Kind, seed: u64, out: &Path, budget: Duration, rec: &mut Recorder) -> Walked {
    let mut walked = match kind {
        Kind::ReplayValidate => walk_replay(seed, out, budget, rec),
        _ => walk_serving(kind, seed, out, budget, rec),
    };
    let selfs = self_times_ns(&rec.spans);
    let glue: Vec<f64> = rec
        .spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == "op")
        .map(|(_, ns)| ns as f64 / 1e3)
        .collect();
    walked.layers.insert("loadgen.walk_glue_us", median(&glue));
    walked.layers.insert("loadgen.walk_ops", walked.ops as f64);
    walked
}
