//! A pool's worker threads: form a batch, run it, answer every member.
//!
//! Each worker owns a private interpreter built from the model's
//! [`BackendSpec`](mlexray_nn::BackendSpec) and, when the service traces, a
//! span ring of its own. Everything else it touches — queue, books, caller
//! ledger, validator, sink — is the [`ModelPool`] admission also holds.
//! This is where ordering rule 2 of [`crate::batcher`] is kept: a batch is
//! counted out of the ledger *before* its first reply is sent.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use mlexray_core::{
    layer_output_key, LogRecord, LogValue, SpanRing, SpanStage, KEY_INFERENCE_LATENCY,
};
use mlexray_nn::{Interpreter, LayerObserver, LayerRecord};
use mlexray_tensor::Tensor;

use crate::batcher::{form_batch, CloseReason};
use crate::request::{InferRequest, InferResponse, RejectReason};
use crate::service::ModelPool;

/// Streams sampled frames' per-layer records out of a batched invoke.
/// Frames whose request was not sampled produce nothing. When a frame of
/// the batch is trace-sampled, its per-layer `(index, latency, macs)`
/// stream is collected once (layer latencies are per-frame shares,
/// identical across the batch) and fanned out as `layer` spans to every
/// traced request afterwards.
struct SampledCapture {
    request_ids: Vec<u64>,
    sampled: Vec<bool>,
    full: bool,
    log: bool,
    records: Vec<LogRecord>,
    trace_frame: Option<usize>,
    trace_layers: Vec<(u32, u64, u64)>,
}

impl LayerObserver for SampledCapture {
    /// Only deep-monitored frames read layer outputs; trace-only frames
    /// consume `(index, latency, macs)` and skip the per-frame view copy,
    /// so span capture costs timer reads, not activation copies.
    fn wants_output(&self, batch: usize) -> bool {
        self.log && self.sampled[batch]
    }

    fn on_layer(&mut self, record: &LayerRecord<'_>) {
        if Some(record.batch) == self.trace_frame {
            self.trace_layers.push((
                record.index as u32,
                record.latency.as_nanos() as u64,
                record.macs,
            ));
        }
        if !self.log || !self.sampled[record.batch] {
            return;
        }
        self.records.push(LogRecord {
            frame: self.request_ids[record.batch],
            key: layer_output_key(record.name),
            value: LogValue::of_tensor(record.output, self.full),
        });
    }
}

pub(crate) fn worker_loop(pool: Arc<ModelPool>) {
    let mut backend = pool
        .entry
        .spec()
        .build(pool.entry.graph())
        .expect("spec validated at service start");
    // One fixed-footprint span ring per worker thread, registered with the
    // hub for its lifetime; pushes after this never allocate.
    let ring = pool.hub.as_ref().map(|hub| hub.register_ring());
    let ring = ring.as_deref();
    while let Some(batch) = form_batch(
        &pool.queue,
        pool.config.batch,
        &pool.ledger,
        |request, popped_at| shed_expired(&pool, ring, request, popped_at),
    ) {
        run_batch(&pool, ring, &mut backend, batch.members, batch.close);
    }
}

/// Deadline enforcement at dequeue: a request whose deadline had passed
/// when a worker popped it is answered with the typed shed reason instead
/// of burning compute.
fn shed_expired(
    pool: &ModelPool,
    ring: Option<&SpanRing>,
    request: InferRequest,
    popped_at: Instant,
) {
    let missed_by = request
        .deadline
        .map(|d| popped_at.duration_since(d))
        .unwrap_or_default();
    if let Some(spans) = pool.spans(ring, request.trace) {
        // The forced trace carries the queue wait that ate the deadline.
        spans.timed(SpanStage::QueueWait, request.admitted_at, popped_at);
    }
    let rejection = pool.refuse(
        request.trace,
        request.admitted_at,
        request.id,
        RejectReason::DeadlineExpired { missed_by },
    );
    // Ordering rule 2 of `crate::batcher`: counted out before the reply.
    if request.from_caller {
        pool.ledger.leave(1);
    }
    let _ = request.reply.send(Err(rejection));
}

fn run_batch(
    pool: &ModelPool,
    ring: Option<&SpanRing>,
    backend: &mut Interpreter<'_>,
    requests: Vec<(InferRequest, Instant)>,
    close: CloseReason,
) {
    let formed_at = Instant::now();
    let size = requests.len();
    let leader_id = requests[0].0.id;
    let inputs: Vec<&[Tensor]> = requests.iter().map(|(r, _)| r.inputs.as_slice()).collect();
    let traced = |r: &InferRequest| r.trace.is_some_and(|t| t.sampled);
    let deep_monitor = pool.sink.is_some() && requests.iter().any(|(r, _)| r.sampled);
    // Per-layer span collection rides the same observed invoke as deep
    // monitoring; either alone is enough to pay the observer.
    let trace_frame = ring.and_then(|_| requests.iter().position(|(r, _)| traced(r)));
    let result = if deep_monitor || trace_frame.is_some() {
        let mut capture = SampledCapture {
            request_ids: requests.iter().map(|(r, _)| r.id).collect(),
            sampled: requests.iter().map(|(r, _)| r.sampled).collect(),
            full: pool.config.monitor.full_capture,
            log: deep_monitor,
            records: Vec::new(),
            trace_frame,
            trace_layers: Vec::new(),
        };
        backend
            .invoke_batch_observed(&inputs, &mut capture)
            .map(|outputs| (outputs, capture.records, capture.trace_layers))
    } else {
        backend
            .invoke_batch(&inputs)
            .map(|o| (o, Vec::new(), Vec::new()))
    };
    let exec_ended = Instant::now();
    // Ordering rule 2 of `crate::batcher`: the whole batch is counted out
    // before its first reply, on the failure path too.
    pool.ledger
        .leave(requests.iter().filter(|(r, _)| r.from_caller).count());
    let (outputs, mut telemetry, trace_layers) = match result {
        Ok(done) => done,
        Err(error) => {
            let detail = error.to_string();
            for (request, _) in requests {
                let reason = RejectReason::ExecutionFailed {
                    detail: detail.clone(),
                };
                let rejection = pool.refuse(request.trace, request.admitted_at, request.id, reason);
                let _ = request.reply.send(Err(rejection));
            }
            return;
        }
    };
    pool.counters.record_batch(size, close);
    let exec_latency = backend
        .last_stats()
        .map(|s| s.per_frame_latency())
        .unwrap_or_default();
    if !exec_latency.is_zero() {
        pool.counters.record_exec_latency(exec_latency);
    }
    for ((request, popped_at), outputs) in requests.into_iter().zip(outputs) {
        let mut drift_check = None;
        if request.sampled {
            pool.counters.sampled.fetch_add(1, Ordering::AcqRel);
            if let Some(validator) = &pool.validator {
                let observe_start = Instant::now();
                validator.observe(&request.inputs);
                drift_check = Some((observe_start, Instant::now()));
            }
        }
        let total_latency = request.admitted_at.elapsed();
        if pool.config.monitor.log_latency && pool.sink.is_some() {
            telemetry.push(LogRecord {
                frame: request.id,
                key: KEY_INFERENCE_LATENCY.to_string(),
                value: LogValue::LatencyNs(total_latency.as_nanos() as u64),
            });
        }
        pool.counters.record_completion(total_latency);
        // The full chain of a completed traced request: queue wait, batch
        // formation, execution, per-layer kernels, drift-check offload,
        // respond, and the root whose duration is *exactly* the latency
        // recorded into the model's bounded histogram (the profiler
        // reconciles against those books).
        if let Some(spans) = pool.spans(ring, request.trace).filter(|s| s.sampled()) {
            let [popped_ns, formed_ns, exec_end_ns] =
                [popped_at, formed_at, exec_ended].map(|at| spans.hub.ns_of(at));
            let (frames, flavor) = (size as u64, pool.flavor);
            spans.timed(SpanStage::QueueWait, request.admitted_at, popped_at);
            // A `batch_form` span's flavor byte says what closed the batch.
            let closed_by = close as u8;
            spans.child(
                SpanStage::BatchForm,
                0,
                popped_ns,
                formed_ns,
                closed_by,
                frames,
                leader_id,
            );
            spans.child(
                SpanStage::Exec,
                0,
                formed_ns,
                exec_end_ns,
                flavor,
                frames,
                0,
            );
            // Layer spans are laid end to end from the invoke start; each
            // carries its per-frame latency share, layer index and MAC
            // estimate.
            let mut cursor = formed_ns;
            for &(index, latency_ns, macs) in &trace_layers {
                let (index, end) = (u64::from(index), cursor + latency_ns);
                spans.child(SpanStage::Layer, index, cursor, end, flavor, index, macs);
                cursor = end;
            }
            if let Some((start, end)) = drift_check {
                spans.timed(SpanStage::DriftCheck, start, end);
            }
            spans.timed(SpanStage::Respond, exec_ended, Instant::now());
            let admitted_ns = spans.hub.ns_of(request.admitted_at);
            spans.root(admitted_ns, total_latency.as_nanos() as u64, frames);
        }
        let _ = request.reply.send(Ok(InferResponse {
            request_id: request.id,
            outputs,
            total_latency,
            exec_latency,
            batch_size: size,
            sampled: request.sampled,
        }));
    }
    if let Some(sink) = &pool.sink {
        if !telemetry.is_empty() {
            sink.write_batch(telemetry);
        }
    }
}
