//! `trace-report`: renders the latency-attribution profiler over a short
//! self-contained serving run — the operator's view of "where did the
//! latency go" (queue wait vs batch formation vs execution vs the hottest
//! layers), plus a Chrome-trace export loadable in Perfetto.
//!
//! The tool stands up the `mini_mobilenet_v2` zoo model in-process with
//! every request traced, pushes a paced workload plus a deliberately slow
//! half-empty batch, drains, and prints [`mlexray_core::trace_report`].
//! The sampled traces are also exported as Chrome-trace JSON under
//! `target/experiment-artifacts/trace_report_chrome.json`. The run ends by
//! asserting that the drained serving books balance.
//!
//! ```text
//! MLEXRAY_QUICK=1 cargo run --release -p mlexray-bench --bin trace_report
//! ```

use std::time::Duration;

use mlexray_bench::support::{artifact_dir, Scale};
use mlexray_datasets::synth_image;
use mlexray_nn::BackendSpec;
use mlexray_serve::{
    BatchPolicy, InferenceService, ModelRegistry, MonitorPolicy, ServiceConfig, TracePolicy,
};
use mlexray_tensor::{Shape, Tensor};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const MODEL: &str = "mini_mobilenet_v2";
/// Paced requests served before the slow batch.
const REQUESTS: usize = 32;
/// Hottest layers per model in the report table.
const TOP_K: usize = 5;

fn main() {
    let scale = Scale::from_env();

    let registry = ModelRegistry::new();
    registry
        .register_zoo(
            MODEL,
            scale.input,
            synth_image::NUM_CLASSES,
            1,
            BackendSpec::optimized(),
        )
        .expect("zoo model builds");
    let service = InferenceService::start(
        &registry,
        ServiceConfig {
            workers_per_model: 2,
            core_budget: 2,
            queue_capacity: REQUESTS,
            batch: BatchPolicy::windowed(4, Duration::from_micros(200)),
            monitor: MonitorPolicy::off(),
            trace: TracePolicy {
                completed_capacity: 64,
                ..TracePolicy::sampled(1)
            },
            ..Default::default()
        },
        None,
    )
    .expect("service starts");

    let shape = Shape::nhwc(1, scale.input, scale.input, 3);
    let mut rng = SmallRng::seed_from_u64(20_260_808);
    let frames: Vec<Tensor> = (0..16)
        .map(|_| {
            let data: Vec<f32> = (0..shape.num_elements())
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            Tensor::from_f32(shape.clone(), data).expect("length matches")
        })
        .collect();

    // Paced waves, so the batcher coalesces real batches.
    let mut offered = 0usize;
    let mut wave = Vec::new();
    while offered < REQUESTS {
        let burst = 8.min(REQUESTS - offered);
        for k in 0..burst {
            let input = frames[(offered + k) % frames.len()].clone();
            if let Ok(pending) = service.submit(MODEL, vec![input]) {
                wave.push(pending);
            }
        }
        offered += burst;
        for pending in wave.drain(..) {
            let _ = pending.wait();
        }
    }
    // One deliberately slow half-empty batch, so the report has a visible
    // batch-formation column to attribute.
    let slow = service
        .submit(MODEL, vec![frames[0].clone()])
        .expect("slow request admitted");
    let _ = slow.wait();

    let hub = service.trace_hub().expect("tracing on").clone();
    let report = service.drain();

    let traces = hub.take_completed(0);
    let chrome = mlexray_core::chrome_trace_json(&traces);
    let dir = artifact_dir();
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    let chrome_path = dir.join("trace_report_chrome.json");
    std::fs::write(&chrome_path, &chrome).expect("write Chrome-trace export");

    let profiler = hub.profile();
    let counters = hub.counters();
    println!("{}", mlexray_core::trace_report(&profiler, TOP_K));
    println!(
        "traces: {} sampled, {} forced, {} completed, {} spans dropped, {} evicted",
        counters.sampled,
        counters.forced,
        counters.completed,
        counters.dropped_spans,
        counters.evicted_traces,
    );
    println!(
        "chrome export: {} traces -> {} ({} B; load in chrome://tracing or Perfetto)",
        traces.len(),
        chrome_path.display(),
        chrome.len(),
    );
    let balanced = report.models.iter().all(|m| m.is_balanced());
    println!("books balanced: {balanced}");
    assert!(balanced, "serving books must balance");
}
