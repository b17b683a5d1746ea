//! End-to-end request tracing: a lock-free, bounded span pipeline.
//!
//! The aggregate view ([`crate`]'s monitor + the serve crate's bounded
//! histograms) answers *how slow*; this module answers *where* and *why*.
//! A sampled request carries a [`TraceContext`] from admission (or from
//! the wire) through every serving stage, and each stage emits one typed
//! [`Span`] into a fixed-footprint [`SpanRing`] — the same discipline as
//! the bounded latency histograms: relaxed atomics, no allocation on the
//! hot path, overwrite-oldest with an explicit dropped-span counter,
//! never an unbounded buffer and never a silent loss.
//!
//! ```text
//! emitters (workers, admission, RPC threads)
//!    │ SpanRing::push — atomic claim + 8 relaxed word stores
//!    ▼
//! per-thread SpanRing (2^k slots, seqlock-validated, overwrite-oldest)
//!    │ TraceHub::collect — drains every ring, groups by trace_id
//!    ▼
//! pending traces ──terminal span──▶ completed ring ──▶ Chrome-trace JSON
//!                                        │
//!                                        └──▶ TraceProfiler (per-model,
//!                                             per-stage attribution)
//! ```
//!
//! # Determinism
//!
//! Trace ids ([`trace_id_for`]) and span ids ([`span_id_for`]) are pure
//! functions of the model name, the admission id and the stage — never of
//! wall-clock time or thread identity. The *structure* of a sampled trace
//! (its stage set, ids and parent links — [`Trace::structure`]) is
//! therefore byte-identical across runs and across worker counts; only
//! the timestamps differ.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use serde::Value;

/// Spans are 8 little-endian `u64` words in ring slots — fixed size so the
/// ring footprint is a compile-time function of its capacity.
pub const SPAN_WORDS: usize = 8;

/// Default per-ring capacity (slots). Sizing math: a fully traced request
/// on a ~60-layer model emits ~66 spans; at 1/16 sampling a 4096-slot ring
/// absorbs ~1000 requests between collector drains before overwriting.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// Default bound on retained completed traces.
pub const DEFAULT_COMPLETED_CAPACITY: usize = 64;

/// Bound on traces waiting for their terminal span; beyond it the oldest
/// pending trace is evicted (counted, never silently lost).
const PENDING_CAPACITY: usize = 1024;

/// The wire-propagated per-request trace identity: minted at admission or
/// received in the `Infer` frame's v3 trace-context extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Stable trace identity ([`trace_id_for`] when minted locally).
    pub trace_id: u64,
    /// The caller's span this request continues (`0` = root).
    pub parent_span_id: u64,
    /// Whether spans are recorded for this request. Anomalies (sheds,
    /// deadline misses, drift alarms) force this on regardless of the
    /// sampling clock so they are never unobserved.
    pub sampled: bool,
}

impl TraceContext {
    /// An unsampled context (spans are skipped, identity still travels).
    pub fn unsampled(trace_id: u64) -> Self {
        TraceContext {
            trace_id,
            parent_span_id: 0,
            sampled: false,
        }
    }

    /// A sampled root context.
    pub fn sampled(trace_id: u64) -> Self {
        TraceContext {
            trace_id,
            parent_span_id: 0,
            sampled: true,
        }
    }
}

/// The typed stages of the span taxonomy (`docs/tracing.md`). Wire- and
/// structure-stable: values are only ever appended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum SpanStage {
    /// The root span covering the whole request (admission → reply). Its
    /// arrival completes the trace.
    Request = 1,
    /// RPC frame decode (wire-traced requests only).
    RpcDecode = 2,
    /// Admission control: submit entry → queue push decision.
    Admission = 3,
    /// Queue wait: admission → a worker dequeued the request.
    QueueWait = 4,
    /// Batch formation: dequeue → the leader stopped gathering followers.
    /// `arg_a` = batch size, `arg_b` = the batch leader's request id,
    /// `flavor` = what closed the batch (1 full, 2 callers-in, 3 window,
    /// 4 drained).
    BatchForm = 5,
    /// The batched `invoke`. `arg_a` = batch size.
    Exec = 6,
    /// One kernel, derived from the `LayerObserver` record. `arg_a` =
    /// layer index, `arg_b` = MACs; `flavor` tags the kernel dispatch.
    Layer = 7,
    /// Drift-check offload (validator observe / differential replay).
    /// `arg_a` = 1 when a drift alarm was raised.
    DriftCheck = 8,
    /// Worker-side reply: execution end → response sent.
    Respond = 9,
    /// RPC response encode + socket write (wire-traced requests only).
    RespondEncode = 10,
    /// The request was shed. `arg_a` = shed code (1 queue-full,
    /// 2 deadline, 3 shutdown, 4 failed), `arg_b` = detail (missed-by ns
    /// for deadline sheds, queue depth for queue-full).
    Shed = 11,
}

impl SpanStage {
    /// Stable lowercase name (Chrome-trace event name, metric label).
    pub fn name(self) -> &'static str {
        match self {
            SpanStage::Request => "request",
            SpanStage::RpcDecode => "rpc_decode",
            SpanStage::Admission => "admission",
            SpanStage::QueueWait => "queue_wait",
            SpanStage::BatchForm => "batch_form",
            SpanStage::Exec => "exec",
            SpanStage::Layer => "layer",
            SpanStage::DriftCheck => "drift_check",
            SpanStage::Respond => "respond",
            SpanStage::RespondEncode => "respond_encode",
            SpanStage::Shed => "shed",
        }
    }

    /// Decodes a wire/ring value.
    pub fn from_u8(value: u8) -> Option<Self> {
        Some(match value {
            1 => SpanStage::Request,
            2 => SpanStage::RpcDecode,
            3 => SpanStage::Admission,
            4 => SpanStage::QueueWait,
            5 => SpanStage::BatchForm,
            6 => SpanStage::Exec,
            7 => SpanStage::Layer,
            8 => SpanStage::DriftCheck,
            9 => SpanStage::Respond,
            10 => SpanStage::RespondEncode,
            11 => SpanStage::Shed,
            _ => return None,
        })
    }
}

/// One typed span: plain data, 64 bytes, no heap — what lands in a ring
/// slot and what a completed [`Trace`] is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// This span's id ([`span_id_for`]).
    pub span_id: u64,
    /// Parent span (`0` = the trace root's parent, i.e. none).
    pub parent_span_id: u64,
    /// The stage.
    pub stage: SpanStage,
    /// Kernel-flavor tag for [`SpanStage::Layer`]/[`SpanStage::Exec`]
    /// spans (0 reference, 1 optimized, 2 simd, 3 edge); the batch-close
    /// reason for [`SpanStage::BatchForm`]; 0 otherwise.
    pub flavor: u8,
    /// Interned model tag ([`TraceHub::intern_model`]).
    pub model: u16,
    /// Start, nanoseconds since the hub's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Stage-specific argument (see [`SpanStage`]).
    pub arg_a: u64,
    /// Second stage-specific argument.
    pub arg_b: u64,
}

impl Span {
    fn pack(&self) -> [u64; SPAN_WORDS] {
        let meta = (self.stage as u64) | ((self.flavor as u64) << 8) | ((self.model as u64) << 16);
        [
            self.trace_id,
            self.span_id,
            self.parent_span_id,
            meta,
            self.start_ns,
            self.dur_ns,
            self.arg_a,
            self.arg_b,
        ]
    }

    fn unpack(words: &[u64; SPAN_WORDS]) -> Option<Span> {
        let stage = SpanStage::from_u8((words[3] & 0xFF) as u8)?;
        Some(Span {
            trace_id: words[0],
            span_id: words[1],
            parent_span_id: words[2],
            stage,
            flavor: ((words[3] >> 8) & 0xFF) as u8,
            model: ((words[3] >> 16) & 0xFFFF) as u16,
            start_ns: words[4],
            dur_ns: words[5],
            arg_a: words[6],
            arg_b: words[7],
        })
    }
}

/// Deterministic trace identity: a pure function of the model name and
/// the per-model admission id — byte-identical across runs, worker counts
/// and hosts for the same workload.
pub fn trace_id_for(model: &str, request_id: u64) -> u64 {
    // FNV-1a over the model name, finished through splitmix64 with the
    // request id so consecutive ids land far apart.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in model.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    splitmix64(hash ^ request_id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Deterministic span identity within a trace: a pure function of the
/// trace id, the stage and a per-stage index (the layer index for
/// [`SpanStage::Layer`], 0 elsewhere).
pub fn span_id_for(trace_id: u64, stage: SpanStage, index: u64) -> u64 {
    splitmix64(trace_id ^ ((stage as u64) << 56) ^ index.wrapping_mul(0xD134_2543_DE82_EF95))
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

struct Slot {
    /// Publication sequence: `index + 1` once the slot holds the span
    /// pushed at `index`; 0 while a writer is mid-store. Readers validate
    /// before *and* after copying the words, so a torn read is detected
    /// and counted dropped instead of surfacing garbage.
    seq: AtomicU64,
    words: [AtomicU64; SPAN_WORDS],
}

/// A fixed-footprint span ring: `2^k` slots, lock-free push (one atomic
/// claim + nine relaxed stores), overwrite-oldest when full. Readers
/// ([`TraceHub::collect`]) detect overwritten and torn slots via the slot
/// sequence and account them to the dropped-span counter — spans are
/// bounded in memory and *counted* when lost, never silently gone.
pub struct SpanRing {
    slots: Box<[Slot]>,
    mask: u64,
    /// Total spans ever pushed (the claim counter).
    head: AtomicU64,
}

impl std::fmt::Debug for SpanRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanRing")
            .field("capacity", &self.slots.len())
            .field("pushed", &self.head.load(Ordering::Acquire))
            .finish()
    }
}

impl SpanRing {
    /// A ring with `capacity` slots (rounded up to a power of two, min 8).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(8).next_power_of_two();
        let slots = (0..capacity)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                words: std::array::from_fn(|_| AtomicU64::new(0)),
            })
            .collect();
        SpanRing {
            slots,
            mask: capacity as u64 - 1,
            head: AtomicU64::new(0),
        }
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total spans ever pushed.
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// The ring's constant memory footprint in bytes — independent of how
    /// many spans have passed through (the serve figure asserts this stays
    /// byte-identical across 100k+ requests).
    pub fn footprint_bytes(&self) -> usize {
        size_of::<Self>() + self.slots.len() * size_of::<Slot>()
    }

    /// Pushes one span; never blocks, never allocates, never fails — when
    /// the ring is full the oldest un-drained span is overwritten and the
    /// collector accounts it dropped.
    pub fn push(&self, span: &Span) {
        let index = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(index & self.mask) as usize];
        // Claim: readers seeing 0 skip the slot.
        slot.seq.store(0, Ordering::Release);
        for (word, value) in slot.words.iter().zip(span.pack()) {
            word.store(value, Ordering::Relaxed);
        }
        // Publish.
        slot.seq.store(index + 1, Ordering::Release);
    }

    /// Drains spans pushed since `cursor` into `out`. Returns the new
    /// cursor and how many spans were dropped (overwritten before this
    /// drain, or torn by a concurrent wrap-around writer).
    pub fn drain_from(&self, cursor: u64, out: &mut Vec<Span>) -> (u64, u64) {
        let head = self.head.load(Ordering::Acquire);
        let capacity = self.slots.len() as u64;
        let start = cursor.max(head.saturating_sub(capacity));
        let mut dropped = start - cursor;
        for index in start..head {
            let slot = &self.slots[(index & self.mask) as usize];
            if slot.seq.load(Ordering::Acquire) != index + 1 {
                dropped += 1;
                continue;
            }
            let mut words = [0u64; SPAN_WORDS];
            for (value, word) in words.iter_mut().zip(slot.words.iter()) {
                *value = word.load(Ordering::Relaxed);
            }
            // Re-validate: a writer lapping us mid-copy bumps (or zeroes)
            // the sequence, exposing the tear.
            if slot.seq.load(Ordering::Acquire) != index + 1 {
                dropped += 1;
                continue;
            }
            match Span::unpack(&words) {
                Some(span) => out.push(span),
                None => dropped += 1,
            }
        }
        (head, dropped)
    }
}

/// A completed trace: every span observed for one `trace_id`, sorted by
/// deterministic span id (structure order, not time order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// The trace identity.
    pub trace_id: u64,
    /// Model name (resolved from the interned tag of the root span).
    pub model: String,
    /// The spans, sorted by `(stage, span_id)`.
    pub spans: Vec<Span>,
}

impl Trace {
    /// The root [`SpanStage::Request`] span.
    pub fn root(&self) -> Option<&Span> {
        self.spans.iter().find(|s| s.stage == SpanStage::Request)
    }

    /// The first span of `stage`, if present.
    pub fn stage(&self, stage: SpanStage) -> Option<&Span> {
        self.spans.iter().find(|s| s.stage == stage)
    }

    /// Sum of durations over spans of `stage`.
    pub fn stage_ns(&self, stage: SpanStage) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| s.dur_ns)
            .sum()
    }

    /// The timestamp-free structural rendering the determinism suite
    /// compares byte-for-byte: stage names, ids, parent links, model and
    /// flavor tags and the stage args that are workload-determined (layer
    /// index / MACs) — everything except wall-clock timestamps and
    /// scheduling-dependent batch geometry.
    pub fn structure(&self) -> String {
        let mut out = format!("trace {:016x} model {}\n", self.trace_id, self.model);
        for span in &self.spans {
            let (arg_a, arg_b) = match span.stage {
                // Batch size and leader id depend on how requests happened
                // to coalesce — scheduling, not structure.
                SpanStage::BatchForm | SpanStage::Exec | SpanStage::Request => (0, 0),
                // Missed-by ns / queue depth are timing artifacts.
                SpanStage::Shed => (span.arg_a, 0),
                _ => (span.arg_a, span.arg_b),
            };
            // So is what closed the batch, which `batch_form` carries in
            // place of a kernel flavor.
            let flavor = match span.stage {
                SpanStage::BatchForm => 0,
                _ => span.flavor,
            };
            out.push_str(&format!(
                "  {} id {:016x} parent {:016x} flavor {} arg_a {} arg_b {}\n",
                span.stage.name(),
                span.span_id,
                span.parent_span_id,
                flavor,
                arg_a,
                arg_b,
            ));
        }
        out
    }
}

/// Per-model, per-stage latency attribution folded from completed traces
/// — the online answer to "where did the p99 go": queue wait vs batch
/// formation vs execution vs per-layer kernels.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageBreakdown {
    /// Completed request traces folded in.
    pub traces: u64,
    /// Shed traces folded in.
    pub sheds: u64,
    /// Total admission-span nanoseconds.
    pub admission_ns: u64,
    /// Total queue-wait nanoseconds.
    pub queue_ns: u64,
    /// Total batch-formation nanoseconds.
    pub batch_wait_ns: u64,
    /// Total execution nanoseconds.
    pub exec_ns: u64,
    /// Total worker-respond nanoseconds.
    pub respond_ns: u64,
    /// Total root-span (end-to-end) nanoseconds.
    pub total_ns: u64,
    /// Per-layer kernel nanoseconds, by layer index.
    pub per_layer_ns: BTreeMap<u32, u64>,
}

impl StageBreakdown {
    fn fold(&mut self, trace: &Trace) {
        if trace.stage(SpanStage::Shed).is_some() {
            self.sheds += 1;
        } else {
            self.traces += 1;
        }
        self.admission_ns += trace.stage_ns(SpanStage::Admission);
        self.queue_ns += trace.stage_ns(SpanStage::QueueWait);
        self.batch_wait_ns += trace.stage_ns(SpanStage::BatchForm);
        self.exec_ns += trace.stage_ns(SpanStage::Exec);
        self.respond_ns += trace.stage_ns(SpanStage::Respond);
        self.total_ns += trace.stage_ns(SpanStage::Request);
        for span in trace.spans.iter().filter(|s| s.stage == SpanStage::Layer) {
            *self.per_layer_ns.entry(span.arg_a as u32).or_insert(0) += span.dur_ns;
        }
    }

    /// The `k` hottest layers as `(layer_index, total_ns)`, hottest first.
    pub fn top_layers(&self, k: usize) -> Vec<(u32, u64)> {
        let mut layers: Vec<(u32, u64)> = self
            .per_layer_ns
            .iter()
            .map(|(index, ns)| (*index, *ns))
            .collect();
        layers.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        layers.truncate(k);
        layers
    }
}

/// The latency-attribution profiler: folds every completed trace into a
/// per-model [`StageBreakdown`].
#[derive(Debug, Clone, Default)]
pub struct TraceProfiler {
    per_model: BTreeMap<String, StageBreakdown>,
}

impl TraceProfiler {
    /// Folds one completed trace.
    pub fn fold(&mut self, trace: &Trace) {
        self.per_model
            .entry(trace.model.clone())
            .or_default()
            .fold(trace);
    }

    /// The per-model breakdowns, sorted by model name.
    pub fn breakdowns(&self) -> impl Iterator<Item = (&str, &StageBreakdown)> {
        self.per_model.iter().map(|(name, b)| (name.as_str(), b))
    }

    /// One model's breakdown.
    pub fn model(&self, name: &str) -> Option<&StageBreakdown> {
        self.per_model.get(name)
    }
}

/// Renders a profiler as the `trace_report` attribution table: one row
/// per model with mean per-stage latencies and the top-`k` layers.
pub fn trace_report(profiler: &TraceProfiler, top_k: usize) -> String {
    let mut out = String::from(
        "model                        traces  sheds  queue(ms)  batch(ms)  exec(ms)  total(ms)  top layers (idx:ms)\n",
    );
    for (model, b) in profiler.breakdowns() {
        let n = b.traces.max(1) as f64;
        let ms = |ns: u64| ns as f64 / n / 1e6;
        let layers = b
            .top_layers(top_k)
            .iter()
            .map(|(idx, ns)| format!("{idx}:{:.3}", *ns as f64 / n / 1e6))
            .collect::<Vec<_>>()
            .join(" ");
        out.push_str(&format!(
            "{model:<28} {:>6} {:>6} {:>10.3} {:>10.3} {:>9.3} {:>10.3}  {layers}\n",
            b.traces,
            b.sheds,
            ms(b.queue_ns),
            ms(b.batch_wait_ns),
            ms(b.exec_ns),
            ms(b.total_ns),
        ));
    }
    out
}

struct CollectorState {
    /// Drain cursor per registered ring (parallel to `TraceHub::rings`).
    cursors: Vec<u64>,
    pending: BTreeMap<u64, Vec<Span>>,
    /// First-seen order of pending trace ids, for bounded eviction.
    order: VecDeque<u64>,
    completed: VecDeque<Trace>,
    profiler: TraceProfiler,
    scratch: Vec<Span>,
}

/// Counter snapshot of a hub ([`TraceHub::counters`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCounters {
    /// Requests sampled by the every-Nth clock.
    pub sampled: u64,
    /// Anomalies force-sampled (sheds, deadline misses, drift alarms).
    pub forced: u64,
    /// Traces completed (terminal span observed).
    pub completed: u64,
    /// Spans dropped: overwritten in a ring before collection, torn by a
    /// wrap-around race, or evicted with an incomplete pending trace.
    pub dropped_spans: u64,
    /// Pending traces evicted before their terminal span arrived.
    pub evicted_traces: u64,
}

/// The span pipeline's shared half: hands emitters their rings, drains
/// them into complete traces, folds the profiler and exports Chrome-trace
/// JSON. One hub per [`InferenceService`](../../mlexray_serve) instance.
pub struct TraceHub {
    epoch: Instant,
    ring_capacity: usize,
    completed_capacity: usize,
    rings: Mutex<Vec<Arc<SpanRing>>>,
    /// Ring 0, shared by threads that emit rarely (admission sheds, RPC
    /// decode/encode, drift checks) — multi-writer pushes are safe, the
    /// claim counter serializes slot ownership.
    shared: Arc<SpanRing>,
    models: Mutex<Vec<String>>,
    state: Mutex<CollectorState>,
    sampled: AtomicU64,
    forced: AtomicU64,
    completed_total: AtomicU64,
    dropped: AtomicU64,
    evicted: AtomicU64,
}

impl std::fmt::Debug for TraceHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceHub")
            .field("rings", &self.rings.lock().len())
            .field("counters", &self.counters())
            .finish_non_exhaustive()
    }
}

impl TraceHub {
    /// A hub whose rings hold `ring_capacity` spans each and whose
    /// completed-trace store holds `completed_capacity` traces.
    pub fn new(ring_capacity: usize, completed_capacity: usize) -> Self {
        let shared = Arc::new(SpanRing::new(ring_capacity));
        TraceHub {
            epoch: Instant::now(),
            ring_capacity,
            completed_capacity: completed_capacity.max(1),
            rings: Mutex::new(vec![shared.clone()]),
            shared,
            models: Mutex::new(Vec::new()),
            state: Mutex::new(CollectorState {
                cursors: Vec::new(),
                pending: BTreeMap::new(),
                order: VecDeque::new(),
                completed: VecDeque::new(),
                profiler: TraceProfiler::default(),
                scratch: Vec::new(),
            }),
            sampled: AtomicU64::new(0),
            forced: AtomicU64::new(0),
            completed_total: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// Nanoseconds from the hub's epoch to `instant` (saturating at 0 for
    /// instants before the epoch).
    pub fn ns_of(&self, instant: Instant) -> u64 {
        instant
            .checked_duration_since(self.epoch)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0)
    }

    /// Nanoseconds from the hub's epoch to now.
    pub fn now_ns(&self) -> u64 {
        self.ns_of(Instant::now())
    }

    /// Registers a fresh per-thread ring (worker threads call this once at
    /// spawn; registration allocates, pushes never do).
    pub fn register_ring(&self) -> Arc<SpanRing> {
        let ring = Arc::new(SpanRing::new(self.ring_capacity));
        self.rings.lock().push(ring.clone());
        ring
    }

    /// The shared ring for threads that emit rarely (admission-shed,
    /// RPC decode/encode, drift-check spans).
    pub fn shared_ring(&self) -> &Arc<SpanRing> {
        &self.shared
    }

    /// Interns a model name, returning its stable span tag. Tag order
    /// follows interning order (model-map order at service start), so
    /// tags are deterministic for a deterministic model set.
    pub fn intern_model(&self, name: &str) -> u16 {
        let mut models = self.models.lock();
        if let Some(index) = models.iter().position(|m| m == name) {
            return index as u16;
        }
        models.push(name.to_string());
        (models.len() - 1) as u16
    }

    /// Resolves an interned tag back to the model name.
    pub fn model_name(&self, tag: u16) -> String {
        self.models
            .lock()
            .get(tag as usize)
            .cloned()
            .unwrap_or_else(|| format!("model#{tag}"))
    }

    /// Account one sampling-clock hit.
    pub fn note_sampled(&self) {
        self.sampled.fetch_add(1, Ordering::Relaxed);
    }

    /// Account one force-sampled anomaly.
    pub fn note_forced(&self) {
        self.forced.fetch_add(1, Ordering::Relaxed);
    }

    /// Counter snapshot.
    pub fn counters(&self) -> TraceCounters {
        TraceCounters {
            sampled: self.sampled.load(Ordering::Acquire),
            forced: self.forced.load(Ordering::Acquire),
            completed: self.completed_total.load(Ordering::Acquire),
            dropped_spans: self.dropped.load(Ordering::Acquire),
            evicted_traces: self.evicted.load(Ordering::Acquire),
        }
    }

    /// The pipeline's total ring footprint in bytes: constant once every
    /// emitter thread has registered, however many spans flow through.
    pub fn footprint_bytes(&self) -> usize {
        self.rings.lock().iter().map(|r| r.footprint_bytes()).sum()
    }

    /// Drains every ring, groups spans into pending traces, and promotes
    /// traces whose terminal [`SpanStage::Request`] span arrived into the
    /// bounded completed store. All spans drained in one pass attach
    /// before completion is decided, so intra-pass arrival order does not
    /// matter.
    pub fn collect(&self) {
        let rings: Vec<Arc<SpanRing>> = self.rings.lock().clone();
        let mut state = self.state.lock();
        state.cursors.resize(rings.len(), 0);
        let mut spans = std::mem::take(&mut state.scratch);
        spans.clear();
        let mut dropped = 0u64;
        for (ring, cursor) in rings.iter().zip(state.cursors.iter_mut()) {
            let (next, lost) = ring.drain_from(*cursor, &mut spans);
            *cursor = next;
            dropped += lost;
        }
        if dropped > 0 {
            self.dropped.fetch_add(dropped, Ordering::AcqRel);
        }
        let mut terminal: Vec<u64> = Vec::new();
        for span in spans.drain(..) {
            let id = span.trace_id;
            let fresh = !state.pending.contains_key(&id);
            if fresh {
                state.order.push_back(id);
            }
            state.pending.entry(id).or_default().push(span);
            if span.stage == SpanStage::Request {
                terminal.push(id);
            }
        }
        state.scratch = spans;
        for id in terminal {
            let Some(mut trace_spans) = state.pending.remove(&id) else {
                continue;
            };
            state.order.retain(|t| *t != id);
            trace_spans.sort_by_key(|s| (s.stage, s.span_id, s.start_ns));
            trace_spans.dedup_by_key(|s| (s.stage, s.span_id, s.start_ns, s.dur_ns));
            let model_tag = trace_spans
                .iter()
                .find(|s| s.stage == SpanStage::Request)
                .map(|s| s.model)
                .unwrap_or(0);
            let trace = Trace {
                trace_id: id,
                model: self.model_name(model_tag),
                spans: trace_spans,
            };
            state.profiler.fold(&trace);
            state.completed.push_back(trace);
            self.completed_total.fetch_add(1, Ordering::AcqRel);
            while state.completed.len() > self.completed_capacity {
                state.completed.pop_front();
            }
        }
        // Bound the pending store: a trace that never terminates (its
        // terminal span was overwritten) must not leak — evict oldest,
        // counting both the trace and its spans as dropped.
        while state.pending.len() > PENDING_CAPACITY {
            let Some(oldest) = state.order.pop_front() else {
                break;
            };
            if let Some(spans) = state.pending.remove(&oldest) {
                self.evicted.fetch_add(1, Ordering::AcqRel);
                self.dropped.fetch_add(spans.len() as u64, Ordering::AcqRel);
            }
        }
    }

    /// Collects, then takes up to `max` most-recent completed traces
    /// (oldest first; `max == 0` means all currently retained).
    pub fn take_completed(&self, max: usize) -> Vec<Trace> {
        self.collect();
        let mut state = self.state.lock();
        let keep = if max == 0 {
            0
        } else {
            state.completed.len().saturating_sub(max)
        };
        let taken: Vec<Trace> = state.completed.drain(keep..).collect();
        taken
    }

    /// Collects, then clones the per-model attribution profiler.
    pub fn profile(&self) -> TraceProfiler {
        self.collect();
        self.state.lock().profiler.clone()
    }
}

/// Renders traces as Chrome-trace-format JSON (the "JSON Array Format"
/// with a `traceEvents` wrapper) loadable by `chrome://tracing` and
/// Perfetto. Timestamps are microseconds (`ts`/`dur` floats), events are
/// complete (`"ph":"X"`); the trace id becomes the `tid` so one request's
/// spans share a track, and the model name the `pid` row.
pub fn chrome_trace_json(traces: &[Trace]) -> String {
    let mut events = Vec::new();
    for trace in traces {
        for span in &trace.spans {
            let mut args = vec![
                (
                    "trace_id".to_string(),
                    Value::String(format!("{:016x}", span.trace_id)),
                ),
                (
                    "span_id".to_string(),
                    Value::String(format!("{:016x}", span.span_id)),
                ),
                (
                    "parent_span_id".to_string(),
                    Value::String(format!("{:016x}", span.parent_span_id)),
                ),
                ("flavor".to_string(), Value::UInt(u64::from(span.flavor))),
                ("arg_a".to_string(), Value::UInt(span.arg_a)),
                ("arg_b".to_string(), Value::UInt(span.arg_b)),
            ];
            if span.stage == SpanStage::Layer {
                args.push(("layer".to_string(), Value::UInt(span.arg_a)));
            }
            events.push(Value::Object(vec![
                ("name".to_string(), Value::String(span.stage.name().into())),
                ("cat".to_string(), Value::String("serve".into())),
                ("ph".to_string(), Value::String("X".into())),
                (
                    "ts".to_string(),
                    Value::Float(span.start_ns as f64 / 1_000.0),
                ),
                (
                    "dur".to_string(),
                    Value::Float(span.dur_ns as f64 / 1_000.0),
                ),
                ("pid".to_string(), Value::String(trace.model.clone())),
                (
                    "tid".to_string(),
                    Value::String(format!("{:016x}", span.trace_id)),
                ),
                ("args".to_string(), Value::Object(args)),
            ]));
        }
    }
    let document = Value::Object(vec![
        ("traceEvents".to_string(), Value::Array(events)),
        (
            "displayTimeUnit".to_string(),
            Value::String("ms".to_string()),
        ),
    ]);
    serde_json::to_string(&document).expect("trace document serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace_id: u64, stage: SpanStage, index: u64) -> Span {
        Span {
            trace_id,
            span_id: span_id_for(trace_id, stage, index),
            parent_span_id: span_id_for(trace_id, SpanStage::Request, 0),
            stage,
            flavor: 1,
            model: 3,
            start_ns: 100 + index,
            dur_ns: 50,
            arg_a: index,
            arg_b: 7,
        }
    }

    #[test]
    fn span_words_round_trip() {
        let original = span(0xDEAD_BEEF, SpanStage::Layer, 12);
        let unpacked = Span::unpack(&original.pack()).expect("valid stage");
        assert_eq!(unpacked, original);
        assert!(Span::unpack(&[0, 0, 0, 0xF0, 0, 0, 0, 0]).is_none());
    }

    #[test]
    fn ids_are_deterministic_and_distinct() {
        assert_eq!(trace_id_for("m", 7), trace_id_for("m", 7));
        assert_ne!(trace_id_for("m", 7), trace_id_for("m", 8));
        assert_ne!(trace_id_for("m", 7), trace_id_for("n", 7));
        let t = trace_id_for("m", 7);
        assert_ne!(
            span_id_for(t, SpanStage::Exec, 0),
            span_id_for(t, SpanStage::Layer, 0)
        );
        assert_ne!(
            span_id_for(t, SpanStage::Layer, 0),
            span_id_for(t, SpanStage::Layer, 1)
        );
    }

    #[test]
    fn ring_drains_in_order() {
        let ring = SpanRing::new(16);
        for i in 0..10 {
            ring.push(&span(1, SpanStage::Layer, i));
        }
        let mut out = Vec::new();
        let (cursor, dropped) = ring.drain_from(0, &mut out);
        assert_eq!(cursor, 10);
        assert_eq!(dropped, 0);
        assert_eq!(out.len(), 10);
        assert_eq!(out[3].arg_a, 3);
        // Nothing new: a second drain is empty.
        let (cursor, dropped) = ring.drain_from(cursor, &mut out);
        assert_eq!((cursor, dropped), (10, 0));
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let ring = SpanRing::new(8);
        let before = ring.footprint_bytes();
        for i in 0..100 {
            ring.push(&span(1, SpanStage::Layer, i));
        }
        assert_eq!(
            ring.footprint_bytes(),
            before,
            "ring footprint must not grow with span count"
        );
        let mut out = Vec::new();
        let (cursor, dropped) = ring.drain_from(0, &mut out);
        assert_eq!(cursor, 100);
        assert_eq!(dropped, 92, "100 pushed into 8 slots → 92 overwritten");
        assert_eq!(out.len(), 8);
        // The survivors are the newest 8, in push order.
        assert_eq!(out[0].arg_a, 92);
        assert_eq!(out[7].arg_a, 99);
        assert_eq!(out.len() as u64 + dropped, ring.pushed());
    }

    #[test]
    fn ring_capacity_rounds_to_power_of_two() {
        assert_eq!(SpanRing::new(0).capacity(), 8);
        assert_eq!(SpanRing::new(100).capacity(), 128);
        assert_eq!(SpanRing::new(4096).capacity(), 4096);
    }

    fn emit_request_chain(hub: &TraceHub, ring: &SpanRing, model: &str, request_id: u64) -> u64 {
        let trace_id = trace_id_for(model, request_id);
        let tag = hub.intern_model(model);
        let root = span_id_for(trace_id, SpanStage::Request, 0);
        for (stage, dur) in [
            (SpanStage::Admission, 10),
            (SpanStage::QueueWait, 1000),
            (SpanStage::BatchForm, 300),
            (SpanStage::Exec, 5000),
            (SpanStage::Respond, 20),
        ] {
            ring.push(&Span {
                trace_id,
                span_id: span_id_for(trace_id, stage, 0),
                parent_span_id: root,
                stage,
                flavor: 1,
                model: tag,
                start_ns: 0,
                dur_ns: dur,
                arg_a: 0,
                arg_b: 0,
            });
        }
        ring.push(&Span {
            trace_id,
            span_id: root,
            parent_span_id: 0,
            stage: SpanStage::Request,
            flavor: 0,
            model: tag,
            start_ns: 0,
            dur_ns: 6330,
            arg_a: 0,
            arg_b: 0,
        });
        trace_id
    }

    #[test]
    fn hub_assembles_completed_traces_and_profiles() {
        let hub = TraceHub::new(64, 8);
        let ring = hub.register_ring();
        let t1 = emit_request_chain(&hub, &ring, "m", 1);
        let t2 = emit_request_chain(&hub, &ring, "m", 2);
        // An incomplete trace (no terminal span) stays pending.
        ring.push(&span(trace_id_for("m", 3), SpanStage::QueueWait, 0));
        let traces = hub.take_completed(0);
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].trace_id, t1);
        assert_eq!(traces[1].trace_id, t2);
        assert_eq!(traces[0].model, "m");
        assert_eq!(traces[0].spans.len(), 6);
        assert_eq!(traces[0].stage_ns(SpanStage::Exec), 5000);
        let profile = hub.profile();
        let breakdown = profile.model("m").expect("model profiled");
        assert_eq!(breakdown.traces, 2);
        assert_eq!(breakdown.queue_ns, 2000);
        assert_eq!(breakdown.exec_ns, 10000);
        assert_eq!(breakdown.total_ns, 12660);
        assert_eq!(hub.counters().completed, 2);
        // take_completed drains: a second take returns nothing new.
        assert!(hub.take_completed(0).is_empty());
    }

    #[test]
    fn hub_counts_ring_overwrites_as_dropped() {
        let hub = TraceHub::new(8, 4);
        let ring = hub.register_ring();
        for i in 0..50 {
            ring.push(&span(trace_id_for("m", i), SpanStage::QueueWait, 0));
        }
        hub.collect();
        assert_eq!(hub.counters().dropped_spans, 42);
    }

    #[test]
    fn completed_store_is_bounded() {
        let hub = TraceHub::new(1 << 12, 4);
        let ring = hub.register_ring();
        for i in 0..20 {
            emit_request_chain(&hub, &ring, "m", i);
        }
        let traces = hub.take_completed(0);
        assert_eq!(traces.len(), 4, "completed store keeps the newest 4");
        assert_eq!(hub.counters().completed, 20);
        assert_eq!(traces[3].trace_id, trace_id_for("m", 19));
    }

    #[test]
    fn take_completed_respects_max() {
        let hub = TraceHub::new(1 << 12, 16);
        let ring = hub.register_ring();
        for i in 0..10 {
            emit_request_chain(&hub, &ring, "m", i);
        }
        let traces = hub.take_completed(3);
        assert_eq!(traces.len(), 3);
        assert_eq!(traces[2].trace_id, trace_id_for("m", 9));
        // The untaken 7 remain for the next take.
        assert_eq!(hub.take_completed(0).len(), 7);
    }

    #[test]
    fn structure_is_timestamp_free() {
        let hub = TraceHub::new(64, 8);
        let ring = hub.register_ring();
        emit_request_chain(&hub, &ring, "m", 1);
        let a = hub.take_completed(0).remove(0);
        // Same chain, different timestamps.
        let hub2 = TraceHub::new(64, 8);
        let ring2 = hub2.register_ring();
        let trace_id = trace_id_for("m", 1);
        let tag = hub2.intern_model("m");
        let root = span_id_for(trace_id, SpanStage::Request, 0);
        for (stage, dur, start) in [
            (SpanStage::Admission, 99, 7),
            (SpanStage::QueueWait, 1, 70),
            (SpanStage::BatchForm, 2, 700),
            (SpanStage::Exec, 3, 7000),
            (SpanStage::Respond, 4, 70000),
            (SpanStage::Request, 5, 0),
        ] {
            ring2.push(&Span {
                trace_id,
                span_id: span_id_for(trace_id, stage, 0),
                parent_span_id: if stage == SpanStage::Request { 0 } else { root },
                stage,
                flavor: if stage == SpanStage::Request { 0 } else { 1 },
                model: tag,
                start_ns: start,
                dur_ns: dur,
                arg_a: 0,
                arg_b: 0,
            });
        }
        let b = hub2.take_completed(0).remove(0);
        assert_eq!(a.structure(), b.structure());
    }

    #[test]
    fn chrome_export_parses_and_carries_every_span() {
        let hub = TraceHub::new(64, 8);
        let ring = hub.register_ring();
        emit_request_chain(&hub, &ring, "mini_mobilenet_v2", 1);
        let traces = hub.take_completed(0);
        let json = chrome_trace_json(&traces);
        let value: Value = serde_json::parse_value(&json).expect("chrome trace JSON parses");
        let events = match value.get("traceEvents") {
            Some(Value::Array(events)) => events,
            other => panic!("expected traceEvents array, got {other:?}"),
        };
        assert_eq!(events.len(), 6);
        for event in events {
            for key in ["name", "cat", "ph", "ts", "dur", "pid", "tid", "args"] {
                assert!(event.get(key).is_some(), "event missing {key}: {event:?}");
            }
            assert_eq!(event.get("ph"), Some(&Value::String("X".into())));
        }
        let names: Vec<&Value> = events.iter().filter_map(|e| e.get("name")).collect();
        assert!(names.contains(&&Value::String("queue_wait".into())));
        assert!(names.contains(&&Value::String("request".into())));
    }

    #[test]
    fn trace_report_renders_per_model_rows() {
        let hub = TraceHub::new(1 << 10, 8);
        let ring = hub.register_ring();
        emit_request_chain(&hub, &ring, "m", 1);
        let profile = hub.profile();
        let report = trace_report(&profile, 3);
        assert!(report.contains("m"));
        assert!(report.lines().count() >= 2);
    }

    #[test]
    fn concurrent_pushes_never_lose_accounting() {
        let hub = Arc::new(TraceHub::new(256, 8));
        let mut handles = Vec::new();
        for thread in 0..4u64 {
            let hub = hub.clone();
            handles.push(std::thread::spawn(move || {
                let ring = hub.register_ring();
                for i in 0..5_000u64 {
                    ring.push(&Span {
                        trace_id: trace_id_for("m", thread * 10_000 + i),
                        span_id: 1,
                        parent_span_id: 0,
                        stage: SpanStage::QueueWait,
                        flavor: 0,
                        model: 0,
                        start_ns: i,
                        dur_ns: 1,
                        arg_a: 0,
                        arg_b: 0,
                    });
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        hub.collect();
        let counters = hub.counters();
        // Pending traces hold the drained spans (bounded): eviction keeps
        // the pending store at its cap, and drained + dropped accounts for
        // every push.
        let pending_spans: u64 = {
            // 20k pushes, 4 rings of 256: most are overwritten.
            counters.dropped_spans
        };
        assert!(pending_spans >= 20_000 - 4 * 256 - 1024);
    }
}
