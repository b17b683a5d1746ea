//! Set-up shared by the three serving workloads and the layer walk: seeded
//! inputs, the zoo model, its oracle outputs, and a running service pinned
//! to one worker.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use mlexray_core::{ChannelSink, ChannelSinkConfig, LogSink};
use mlexray_datasets::synth_image::NUM_CLASSES;
use mlexray_models::{by_name, canonical_preprocess};
use mlexray_nn::BackendSpec;
use mlexray_serve::{
    BatchPolicy, InferenceService, ModelRegistry, MonitorPolicy, ServeReport, ServedModel,
    ServiceConfig, TracePolicy,
};
use mlexray_tensor::Tensor;

use crate::inputs;
use crate::measure::ms;
use crate::workload::{oracle, timed, Kind, Layers};

/// Camera resolution of the serving workloads' synthetic frames.
const CAMERA: usize = 64;
/// Weights are part of the program under test, not of the workload's
/// inputs, so their seed is fixed.
const WEIGHT_SEED: u64 = 1;

/// What a serving workload serves, and how.
#[derive(Debug, Clone, Copy)]
pub struct ServingSpec {
    pub model: &'static str,
    pub input: usize,
    pub backend: BackendSpec,
    pub batch: BatchPolicy,
    pub monitored: bool,
}

impl ServingSpec {
    pub fn of(kind: Kind) -> ServingSpec {
        match kind {
            Kind::WirePlain | Kind::WireMonitored => ServingSpec {
                model: "mini_mobilenet_v2",
                input: 32,
                backend: BackendSpec::optimized(),
                batch: BatchPolicy::windowed(4, Duration::from_micros(200)),
                monitored: kind == Kind::WireMonitored,
            },
            Kind::ServeBatch => ServingSpec {
                model: "mobilenet_v2",
                input: 48,
                backend: BackendSpec::simd(),
                batch: BatchPolicy::windowed(8, Duration::from_micros(500)),
                monitored: false,
            },
            Kind::ReplayValidate => unreachable!("replay_validate serves nothing"),
        }
    }

    /// One worker on one core: the process is confined to one CPU
    /// ([`crate::machine`]), and an elastic pool would make throughput depend
    /// on what else holds the core ledger.
    pub fn config(&self, trace: TracePolicy) -> ServiceConfig {
        ServiceConfig {
            workers_per_model: 1,
            core_budget: 1,
            batch: self.batch,
            monitor: if self.monitored {
                MonitorPolicy::sampled(4)
            } else {
                MonitorPolicy::off()
            },
            trace,
            ..Default::default()
        }
    }

    /// The tracing the workload itself runs with.
    pub fn trace(&self) -> TracePolicy {
        if self.monitored {
            TracePolicy::sampled(16)
        } else {
            TracePolicy::off()
        }
    }
}

/// A running service with everything needed to load it and check it.
pub struct Served {
    pub spec: ServingSpec,
    pub service: InferenceService,
    pub registry: ModelRegistry,
    pub entry: Arc<ServedModel>,
    pub inputs: Arc<Vec<Tensor>>,
    pub expected: Arc<Vec<Vec<Tensor>>>,
    pub sink: Option<Arc<ChannelSink>>,
}

impl Served {
    pub fn dyn_sink(&self) -> Option<Arc<dyn LogSink>> {
        self.sink.clone().map(|s| s as Arc<dyn LogSink>)
    }
}

/// Generates inputs, builds and registers the model and starts the service.
/// `sink_path` is where a monitored workload's telemetry goes. Returns the
/// timed phases alongside.
pub fn start(kind: Kind, seed: u64, sink_path: &Path, trace: TracePolicy) -> (Served, Layers) {
    let spec = ServingSpec::of(kind);
    let mut phases = Layers::new();
    let (inputs, took) = timed(|| {
        let frames = inputs::frames(seed, CAMERA);
        inputs::tensors(&frames, &canonical_preprocess(spec.model, spec.input))
    });
    phases.insert("datasets.frames_gen_ms", ms(took));
    let (model, took) = timed(|| {
        by_name(spec.model)
            .expect("zoo knows the model")
            .build(spec.input, NUM_CLASSES, WEIGHT_SEED)
            .expect("zoo model builds")
    });
    phases.insert("models.build_ms", ms(took));
    let expected = oracle(&model.graph, spec.backend, &inputs);
    let registry = ModelRegistry::new();
    let (entry, took) = timed(|| {
        registry
            .register_model(spec.model, model, spec.backend)
            .expect("model passes lint and trial build")
    });
    phases.insert("serve.register_ms", ms(took));
    let sink = spec.monitored.then(|| {
        Arc::new(
            ChannelSink::jsonl(sink_path, ChannelSinkConfig::default())
                .expect("telemetry file opens"),
        )
    });
    let dyn_sink = sink.clone().map(|s| s as Arc<dyn LogSink>);
    let (service, took) = timed(|| {
        InferenceService::start(&registry, spec.config(trace), dyn_sink).expect("service starts")
    });
    phases.insert("serve.start_ms", ms(took));
    let served = Served {
        spec,
        service,
        registry,
        entry,
        inputs: Arc::new(inputs),
        expected: Arc::new(expected),
        sink,
    };
    (served, phases)
}

/// Reads the drained books of the one served model into `layers`; returns 1
/// if they do not balance.
pub fn serve_counts(report: &ServeReport, layers: &mut Layers) -> usize {
    let stats = &report.models[0];
    layers.insert("serve.mean_batch", stats.mean_batch());
    layers.insert("serve.max_batch", stats.max_batch as f64);
    layers.insert("serve.shed", (stats.shed() - stats.failed) as f64);
    layers.insert("serve.failed", stats.failed as f64);
    layers.insert(
        "serve.books_balanced",
        f64::from(u8::from(stats.is_balanced())),
    );
    if stats.completed > 0 {
        layers.insert(
            "core.online.sampled_share",
            stats.sampled as f64 / stats.completed as f64,
        );
    }
    usize::from(!stats.is_balanced())
}
