//! Unified metrics facade for the serving stack: bounded latency
//! histograms, a counter/gauge/histogram registry, and Prometheus text
//! exposition.
//!
//! ML-EXray's thesis is that deployment visibility must be cheap enough to
//! leave on in production. This module is the production half of that
//! bargain for the serving stack:
//!
//! * [`LatencyHistogram`] — a fixed-footprint, log-scaled bucket histogram.
//!   Recording is a handful of relaxed atomic adds (lock-free, wait-free on
//!   every mainstream ISA), the footprint is constant no matter how many
//!   values are recorded, and quantiles are estimated from bucket
//!   boundaries with a guaranteed error of at most one bucket width
//!   (≤ 12.5% relative with the default layout).
//! * [`Collect`] / [`MetricsRegistry`] — the facade. Every stats-bearing
//!   subsystem (the serve worker pools and batcher via
//!   [`InferenceService`](crate::InferenceService), the async log sinks via
//!   [`ChannelSink`](mlexray_core::ChannelSink), the RPC session layer)
//!   implements [`Collect`] and registers with one [`MetricsRegistry`];
//!   scraping walks the sources and renders one coherent exposition.
//! * [`render_families`] / [`parse_exposition`] — Prometheus text
//!   exposition format out, and a strict validating parser used by tests
//!   and the load generator's `--metrics` scrape mode.
//!
//! The RPC front door serves the rendered exposition through the wire
//! protocol's `Metrics` verb (see `docs/wire-protocol.md`); metric names
//! and label schemes are documented in `docs/metrics.md` and are stable.
//!
//! ```
//! use mlexray_serve::metrics::{LatencyHistogram, MetricsBuilder, render_families,
//!     parse_exposition, sample};
//!
//! let hist = LatencyHistogram::new();
//! for ms in [2u64, 3, 5, 8] {
//!     hist.record(ms * 1_000_000);
//! }
//! let mut out = MetricsBuilder::new();
//! out.counter("demo_requests_total", "Requests seen.", &[("model", "m")], 4);
//! out.histogram(
//!     "demo_latency_seconds",
//!     "End-to-end latency.",
//!     &[("model", "m")],
//!     hist.snapshot(),
//! );
//! let text = render_families(&out.finish());
//! let samples = parse_exposition(&text).expect("valid exposition");
//! assert_eq!(sample(&samples, "demo_requests_total", &[("model", "m")]), Some(4.0));
//! assert_eq!(sample(&samples, "demo_latency_seconds_count", &[("model", "m")]), Some(4.0));
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Sub-bucket resolution: each power-of-two octave is split into
/// `2^SUB_BITS` linear sub-buckets, bounding the relative bucket width by
/// `1 / 2^SUB_BITS` (12.5%).
const SUB_BITS: u32 = 3;

/// Linear sub-buckets per power-of-two octave.
const SUBS_PER_OCTAVE: usize = 1 << SUB_BITS;

/// Total bucket count covering the full `u64` nanosecond range. Values
/// `0..8` get exact unit buckets; everything above lands in one of 8
/// sub-buckets per octave up to `u64::MAX`.
pub const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUBS_PER_OCTAVE;

/// Bucket index for a recorded value (linear-log mapping).
fn bucket_index(value: u64) -> usize {
    if value < SUBS_PER_OCTAVE as u64 {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    let shift = msb - SUB_BITS;
    let sub = ((value >> shift) as usize) & (SUBS_PER_OCTAVE - 1);
    ((msb - SUB_BITS + 1) as usize) * SUBS_PER_OCTAVE + sub
}

/// Inclusive `[low, high]` value range covered by bucket `index`.
fn bucket_range(index: usize) -> (u64, u64) {
    if index < SUBS_PER_OCTAVE {
        return (index as u64, index as u64);
    }
    let base = (index / SUBS_PER_OCTAVE) as u32;
    let sub = (index % SUBS_PER_OCTAVE) as u64;
    let shift = base - 1;
    let low = (SUBS_PER_OCTAVE as u64 + sub) << shift;
    (low, low + (1u64 << shift) - 1)
}

/// A fixed-footprint, log-scaled latency histogram.
///
/// Values (nanoseconds) are mapped to one of [`BUCKETS`] buckets: exact
/// unit buckets below `2^SUB_BITS`, then `2^SUB_BITS` linear sub-buckets
/// per power-of-two octave (an HdrHistogram-style linear-log layout). The
/// memory footprint is constant — [`LatencyHistogram::footprint_bytes`]
/// does not change no matter how many values are recorded — and
/// [`LatencyHistogram::record`] is a few relaxed atomic adds, so the
/// serving hot path never takes a lock to account a completion.
///
/// Quantile estimates read the upper bound of the bucket holding the
/// requested rank; because bucket assignment is monotone in the value, the
/// exact order statistic lies inside that same bucket, so the estimate is
/// high by at most one bucket width (≤ 1/8 relative error).
pub struct LatencyHistogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count.load(Ordering::Acquire))
            .field("sum", &self.sum.load(Ordering::Acquire))
            .field("buckets", &self.buckets.len())
            .finish()
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// A new empty histogram with the fixed bucket layout.
    pub fn new() -> Self {
        Self {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one value (nanoseconds). Lock-free: three relaxed atomic
    /// adds, no allocation, no mutex — safe on the serving hot path.
    pub fn record(&self, nanos: u64) {
        self.buckets[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(nanos, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Values recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Acquire)
    }

    /// Heap + inline footprint in bytes. Constant: independent of how many
    /// values have been recorded (the bounded-memory guarantee).
    pub fn footprint_bytes(&self) -> usize {
        size_of::<Self>() + self.buckets.len() * size_of::<AtomicU64>()
    }

    /// A point-in-time copy of the bucket counts. Each bucket is read
    /// independently (no global lock), so a snapshot taken while recorders
    /// are live may straddle concurrent records; totals are exact once the
    /// recorders have quiesced.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Acquire))
                .collect(),
            count: self.count.load(Ordering::Acquire),
            sum: self.sum.load(Ordering::Acquire),
        }
    }

    /// The inclusive `[low, high]` bounds of the bucket `value` falls in —
    /// the error budget a quantile estimate near `value` may consume.
    pub fn bucket_bounds_of(value: u64) -> (u64, u64) {
        bucket_range(bucket_index(value))
    }
}

/// An owned copy of a [`LatencyHistogram`]'s state: fixed-size regardless
/// of how many values were recorded. Snapshots from different models can
/// be merged to aggregate latency distributions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: Box<[u64]>,
    count: u64,
    sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// An empty snapshot (all buckets zero).
    pub fn empty() -> Self {
        Self {
            counts: vec![0u64; BUCKETS].into_boxed_slice(),
            count: 0,
            sum: 0,
        }
    }

    /// Total values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values (nanoseconds).
    pub fn sum_nanos(&self) -> u64 {
        self.sum
    }

    /// Estimate the `p`-quantile (`0.0 < p <= 1.0`) in nanoseconds.
    ///
    /// Uses the same rank convention as a sorted-`Vec` percentile
    /// (`ceil(count * p)` clamped to `[1, count]`) and returns the upper
    /// bound of the bucket containing that rank, so the estimate is always
    /// `>=` the exact order statistic and high by at most one bucket width.
    /// Returns 0 for an empty snapshot.
    pub fn quantile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * p).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &bucket) in self.counts.iter().enumerate() {
            seen += bucket;
            if seen >= rank {
                return bucket_range(index).1;
            }
        }
        bucket_range(BUCKETS - 1).1
    }

    /// Merge another snapshot into this one (bucket-wise add): aggregates
    /// latency distributions across models or scrapes.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Iterate the non-empty buckets as `(upper_bound_ns, cumulative_count)`
    /// pairs in ascending bucket order — the shape Prometheus histogram
    /// exposition wants.
    pub fn cumulative_nonzero(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut cumulative = 0u64;
        self.counts.iter().enumerate().filter_map(move |(i, &c)| {
            if c == 0 {
                None
            } else {
                cumulative += c;
                Some((bucket_range(i).1, cumulative))
            }
        })
    }
}

/// The kind of a metric family, in Prometheus terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing count.
    Counter,
    /// Point-in-time value that may go up or down.
    Gauge,
    /// Bucketed distribution with `_bucket`/`_sum`/`_count` series.
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One sample value: a scalar (counter/gauge) or a histogram snapshot.
#[derive(Debug, Clone)]
pub enum SampleValue {
    /// Counter or gauge value.
    Scalar(f64),
    /// Histogram distribution.
    Histogram(HistogramSnapshot),
}

/// One labelled sample within a metric family.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Label pairs in render order.
    pub labels: Vec<(String, String)>,
    /// The sample's value.
    pub value: SampleValue,
}

/// A named metric family: every sample shares the name, help text and kind.
#[derive(Debug, Clone)]
pub struct MetricFamily {
    /// Metric name (must match `[a-zA-Z_:][a-zA-Z0-9_:]*`).
    pub name: String,
    /// One-line help text.
    pub help: String,
    /// Counter, gauge, or histogram.
    pub kind: MetricKind,
    /// The labelled samples.
    pub samples: Vec<Sample>,
}

/// Accumulates metric families during a [`Collect`] pass, grouping samples
/// by family name while preserving first-seen family order.
#[derive(Debug, Default)]
pub struct MetricsBuilder {
    families: Vec<MetricFamily>,
}

impl MetricsBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, name: &str, help: &str, kind: MetricKind, sample: Sample) {
        debug_assert!(valid_metric_name(name), "invalid metric name {name:?}");
        if let Some(family) = self.families.iter_mut().find(|f| f.name == name) {
            debug_assert_eq!(family.kind, kind, "metric {name} registered with two kinds");
            family.samples.push(sample);
        } else {
            self.families.push(MetricFamily {
                name: name.to_string(),
                help: help.to_string(),
                kind,
                samples: vec![sample],
            });
        }
    }

    /// Add a counter sample.
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        self.push(
            name,
            help,
            MetricKind::Counter,
            Sample {
                labels: own_labels(labels),
                value: SampleValue::Scalar(value as f64),
            },
        );
    }

    /// Add a gauge sample.
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.push(
            name,
            help,
            MetricKind::Gauge,
            Sample {
                labels: own_labels(labels),
                value: SampleValue::Scalar(value),
            },
        );
    }

    /// Add a histogram sample from a snapshot.
    pub fn histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        snapshot: HistogramSnapshot,
    ) {
        self.push(
            name,
            help,
            MetricKind::Histogram,
            Sample {
                labels: own_labels(labels),
                value: SampleValue::Histogram(snapshot),
            },
        );
    }

    /// The accumulated families, in first-seen order.
    pub fn finish(self) -> Vec<MetricFamily> {
        self.families
    }
}

fn own_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
        .collect()
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// A metrics source. Implemented by every stats-bearing subsystem
/// ([`InferenceService`](crate::InferenceService), the RPC session layer,
/// [`ChannelSink`](mlexray_core::ChannelSink)); a scrape walks each
/// registered source and concatenates the families it emits.
pub trait Collect: Send + Sync {
    /// Emit this source's current metric families into `out`.
    fn collect(&self, out: &mut MetricsBuilder);
}

/// A registry of [`Collect`] sources; one per RPC front door. Scraping
/// gathers every source into one exposition with stable family ordering
/// (registration order, then emission order within a source).
#[derive(Default)]
pub struct MetricsRegistry {
    sources: Mutex<Vec<Arc<dyn Collect>>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("sources", &self.sources.lock().len())
            .finish()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a metrics source. Sources are scraped in registration
    /// order; registering the same source twice duplicates its families.
    pub fn register(&self, source: Arc<dyn Collect>) {
        self.sources.lock().push(source);
    }

    /// Collect every registered source into metric families.
    pub fn gather(&self) -> Vec<MetricFamily> {
        let sources: Vec<Arc<dyn Collect>> = self.sources.lock().clone();
        let mut out = MetricsBuilder::new();
        for source in &sources {
            source.collect(&mut out);
        }
        out.finish()
    }

    /// Gather and render the Prometheus text exposition.
    pub fn render(&self) -> String {
        render_families(&self.gather())
    }
}

/// Implemented for the async log sink so its backpressure books join the
/// exposition: register a [`ChannelSink`](mlexray_core::ChannelSink) with
/// the registry and every scrape reports `mlexray_sink_*` counters.
impl Collect for mlexray_core::ChannelSink {
    fn collect(&self, out: &mut MetricsBuilder) {
        for (name, help, value) in self.stats().export() {
            out.counter(&format!("mlexray_sink_{name}_total"), help, &[], value);
        }
    }
}

/// Implemented for the span-pipeline hub so the latency-attribution
/// profiler and the pipeline's own health counters join the exposition:
/// register the service's [`TraceHub`](mlexray_core::TraceHub) and every
/// scrape reports `mlexray_trace_*` counters plus the per-model per-stage
/// attribution totals (`docs/tracing.md`). A scrape runs a collector pass,
/// so the profiler is current as of the scrape.
impl Collect for mlexray_core::TraceHub {
    fn collect(&self, out: &mut MetricsBuilder) {
        let profile = self.profile();
        let counters = self.counters();
        out.counter(
            "mlexray_trace_sampled_total",
            "Requests sampled into the span pipeline by the every-Nth clock.",
            &[],
            counters.sampled,
        );
        out.counter(
            "mlexray_trace_forced_total",
            "Anomalies force-traced (sheds, deadline misses, drift alarms).",
            &[],
            counters.forced,
        );
        out.counter(
            "mlexray_trace_completed_total",
            "Traces completed (terminal span observed).",
            &[],
            counters.completed,
        );
        out.counter(
            "mlexray_trace_dropped_spans_total",
            "Spans overwritten, torn or evicted before collection — bounded \
             rings drop under pressure, but always count what they drop.",
            &[],
            counters.dropped_spans,
        );
        out.counter(
            "mlexray_trace_evicted_traces_total",
            "Pending traces evicted before their terminal span arrived.",
            &[],
            counters.evicted_traces,
        );
        out.gauge(
            "mlexray_trace_ring_bytes",
            "Total fixed footprint of the registered span rings.",
            &[],
            self.footprint_bytes() as f64,
        );
        for (model, breakdown) in profile.breakdowns() {
            let model_label = &[("model", model)];
            out.counter(
                "mlexray_trace_traces_total",
                "Completed request traces folded into the profiler.",
                model_label,
                breakdown.traces,
            );
            out.counter(
                "mlexray_trace_shed_traces_total",
                "Completed shed traces folded into the profiler.",
                model_label,
                breakdown.sheds,
            );
            for (stage, nanos) in [
                ("admission", breakdown.admission_ns),
                ("queue_wait", breakdown.queue_ns),
                ("batch_form", breakdown.batch_wait_ns),
                ("exec", breakdown.exec_ns),
                ("respond", breakdown.respond_ns),
                ("total", breakdown.total_ns),
            ] {
                out.counter(
                    "mlexray_trace_stage_ns_total",
                    "Attributed nanoseconds per serving stage over traced requests.",
                    &[("model", model), ("stage", stage)],
                    nanos,
                );
            }
        }
    }
}

fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

fn render_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (key, value) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(key);
        out.push_str("=\"");
        out.push_str(&escape_label_value(value));
        out.push('"');
    }
    if let Some((key, value)) = extra {
        if !first {
            out.push(',');
        }
        out.push_str(key);
        out.push_str("=\"");
        out.push_str(value);
        out.push('"');
    }
    out.push('}');
}

fn fmt_seconds(nanos: u64) -> String {
    // Render with enough precision that distinct bucket bounds stay
    // distinct, then trim trailing zeros for readability.
    let mut s = format!("{:.9}", nanos as f64 / 1e9);
    while s.ends_with('0') {
        s.pop();
    }
    if s.ends_with('.') {
        s.push('0');
    }
    s
}

/// Render metric families as Prometheus text exposition (format 0.0.4).
///
/// Histograms emit cumulative `_bucket{le="<seconds>"}` rows for the
/// non-empty buckets plus the mandatory `le="+Inf"` row, then `_sum`
/// (seconds) and `_count`. Omitting empty buckets keeps the exposition
/// compact and remains valid: the series is still cumulative and monotone.
pub fn render_families(families: &[MetricFamily]) -> String {
    let mut out = String::new();
    for family in families {
        out.push_str("# HELP ");
        out.push_str(&family.name);
        out.push(' ');
        out.push_str(&family.help);
        out.push('\n');
        out.push_str("# TYPE ");
        out.push_str(&family.name);
        out.push(' ');
        out.push_str(family.kind.as_str());
        out.push('\n');
        for sample in &family.samples {
            match &sample.value {
                SampleValue::Scalar(value) => {
                    out.push_str(&family.name);
                    render_labels(&mut out, &sample.labels, None);
                    out.push(' ');
                    out.push_str(&format!("{value}"));
                    out.push('\n');
                }
                SampleValue::Histogram(snapshot) => {
                    for (upper_ns, cumulative) in snapshot.cumulative_nonzero() {
                        out.push_str(&family.name);
                        out.push_str("_bucket");
                        render_labels(
                            &mut out,
                            &sample.labels,
                            Some(("le", &fmt_seconds(upper_ns))),
                        );
                        out.push(' ');
                        out.push_str(&format!("{cumulative}"));
                        out.push('\n');
                    }
                    out.push_str(&family.name);
                    out.push_str("_bucket");
                    render_labels(&mut out, &sample.labels, Some(("le", "+Inf")));
                    out.push(' ');
                    out.push_str(&format!("{}", snapshot.count()));
                    out.push('\n');
                    out.push_str(&family.name);
                    out.push_str("_sum");
                    render_labels(&mut out, &sample.labels, None);
                    out.push(' ');
                    out.push_str(&format!("{}", snapshot.sum_nanos() as f64 / 1e9));
                    out.push('\n');
                    out.push_str(&family.name);
                    out.push_str("_count");
                    render_labels(&mut out, &sample.labels, None);
                    out.push(' ');
                    out.push_str(&format!("{}", snapshot.count()));
                    out.push('\n');
                }
            }
        }
    }
    out
}

/// Parse and validate a Prometheus text exposition.
///
/// Checks `# HELP` / `# TYPE` structure, metric-name syntax, label syntax,
/// numeric sample values, that every sample belongs to a family announced
/// by a preceding `# TYPE`, and that histogram `_bucket` series are
/// cumulative (non-decreasing) with the `le="+Inf"` bucket equal to the
/// family's `_count`. Returns a map from canonical sample key —
/// `name{labels}` with labels sorted by key — to value. Used by the test
/// suites and `fig_metrics` to prove a scrape is well-formed.
pub fn parse_exposition(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut samples = BTreeMap::new();
    // Family name -> declared type.
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    // (base series key minus `le`) -> last cumulative bucket value seen.
    let mut last_bucket: BTreeMap<String, f64> = BTreeMap::new();
    // (base series key minus `le`) -> value of the le="+Inf" bucket.
    let mut inf_buckets: BTreeMap<String, f64> = BTreeMap::new();
    for (number, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        let lineno = number + 1;
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.splitn(2, ' ');
            let name = parts.next().unwrap_or_default();
            let kind = parts
                .next()
                .ok_or(format!("line {lineno}: TYPE without kind"))?;
            if !valid_metric_name(name) {
                return Err(format!("line {lineno}: invalid metric name {name:?}"));
            }
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(format!("line {lineno}: unknown metric type {kind:?}"));
            }
            types.insert(name.to_string(), kind.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP and comments carry no constraints we check.
        }
        let (name, labels, value) = parse_sample_line(line, lineno)?;
        let family = histogram_family(&name, &types);
        if !types.contains_key(family) {
            return Err(format!(
                "line {lineno}: sample {name:?} precedes its # TYPE declaration"
            ));
        }
        let mut sorted = labels.clone();
        sorted.sort();
        if name.ends_with("_bucket") && types.get(family).map(String::as_str) == Some("histogram") {
            let le = sorted
                .iter()
                .find(|(k, _)| k == "le")
                .map(|(_, v)| v.clone())
                .ok_or(format!("line {lineno}: histogram bucket without le label"))?;
            let base: Vec<(String, String)> =
                sorted.iter().filter(|(k, _)| k != "le").cloned().collect();
            let series = canonical_key(&name, &base);
            if let Some(previous) = last_bucket.get(&series) {
                if value < *previous {
                    return Err(format!(
                        "line {lineno}: histogram {series} buckets not cumulative \
                         ({value} after {previous})"
                    ));
                }
            }
            last_bucket.insert(series.clone(), value);
            if le == "+Inf" {
                last_bucket.remove(&series);
                inf_buckets.insert(series, value);
            }
        }
        let key = canonical_key(&name, &sorted);
        samples.insert(key, value);
    }
    // Validate +Inf bucket == _count for every histogram series.
    for (series, inf) in &inf_buckets {
        // `series` is `<family>_bucket{base}`; derive `<family>_count{base}`.
        let count_key = series.replacen("_bucket", "_count", 1);
        match samples.get(&count_key) {
            Some(count) if (*count - inf).abs() < 0.5 => {}
            Some(count) => {
                return Err(format!(
                    "histogram {series}: le=\"+Inf\" bucket {inf} != _count {count}"
                ))
            }
            None => return Err(format!("histogram {series}: missing _count series")),
        }
    }
    Ok(samples)
}

/// The family name a sample line belongs to: strips `_bucket`/`_sum`/
/// `_count` when the remainder is a declared histogram.
fn histogram_family<'a>(name: &'a str, types: &BTreeMap<String, String>) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if types.get(base).map(String::as_str) == Some("histogram") {
                return base;
            }
        }
    }
    name
}

fn canonical_key(name: &str, sorted_labels: &[(String, String)]) -> String {
    if sorted_labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::from(name);
    out.push('{');
    for (i, (k, v)) in sorted_labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_label_value(v));
        out.push('"');
    }
    out.push('}');
    out
}

/// A sample line decomposed into metric name, label pairs and value.
type ParsedSample = (String, Vec<(String, String)>, f64);

/// Split one sample line into `(name, labels, value)`.
fn parse_sample_line(line: &str, lineno: usize) -> Result<ParsedSample, String> {
    let (series, value_text) = match line.rfind('}') {
        Some(close) => {
            let (series, rest) = line.split_at(close + 1);
            (series, rest.trim())
        }
        None => {
            let mut parts = line.splitn(2, ' ');
            let series = parts.next().unwrap_or_default();
            let rest = parts
                .next()
                .ok_or(format!("line {lineno}: sample without value"))?;
            (series, rest.trim())
        }
    };
    let value: f64 = if value_text == "+Inf" {
        f64::INFINITY
    } else {
        value_text
            .split_whitespace()
            .next()
            .unwrap_or_default()
            .parse()
            .map_err(|_| format!("line {lineno}: bad sample value {value_text:?}"))?
    };
    let (name, labels) = match series.find('{') {
        Some(open) => {
            if !series.ends_with('}') {
                return Err(format!("line {lineno}: unterminated label set"));
            }
            let name = &series[..open];
            let body = &series[open + 1..series.len() - 1];
            (name.to_string(), parse_labels(body, lineno)?)
        }
        None => (series.to_string(), Vec::new()),
    };
    if !valid_metric_name(&name) {
        return Err(format!("line {lineno}: invalid metric name {name:?}"));
    }
    Ok((name, labels, value))
}

fn parse_labels(body: &str, lineno: usize) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or(format!("line {lineno}: label without '='"))?;
        let key = rest[..eq].trim().to_string();
        if key.is_empty() || !valid_metric_name(&key) {
            return Err(format!("line {lineno}: invalid label name {key:?}"));
        }
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return Err(format!("line {lineno}: label value not quoted"));
        }
        let mut value = String::new();
        let mut chars = after[1..].char_indices();
        let mut consumed = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, escaped)) => value.push(escaped),
                    None => return Err(format!("line {lineno}: dangling escape")),
                },
                '"' => {
                    consumed = Some(i + 2); // opening quote + this index
                    break;
                }
                other => value.push(other),
            }
        }
        let consumed = consumed.ok_or(format!("line {lineno}: unterminated label value"))?;
        labels.push((key, value));
        rest = after[consumed..].trim_start_matches(',').trim_start();
    }
    Ok(labels)
}

/// Look up a parsed sample by name and (unordered) labels. Convenience for
/// tests and the loadgen scrape mode over [`parse_exposition`] output.
pub fn sample(map: &BTreeMap<String, f64>, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
    let mut owned: Vec<(String, String)> = own_labels(labels);
    owned.sort();
    map.get(&canonical_key(name, &owned)).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_mapping_is_monotone_and_tight() {
        // Every value maps to a bucket whose range contains it, and the
        // mapping is monotone non-decreasing.
        let probes: Vec<u64> = (0..64)
            .flat_map(|shift: u32| {
                let base = 1u64 << shift;
                [base.saturating_sub(1), base, base.saturating_add(base / 3)]
            })
            .collect();
        let mut last = 0usize;
        let mut sorted = probes.clone();
        sorted.sort_unstable();
        for v in sorted {
            let index = bucket_index(v);
            let (low, high) = bucket_range(index);
            assert!(
                low <= v && v <= high,
                "value {v} outside bucket [{low}, {high}]"
            );
            assert!(index >= last, "mapping not monotone at {v}");
            assert!(index < BUCKETS);
            last = index;
        }
        // Relative bucket width stays within 1/8 for values >= 8.
        for v in [100u64, 1_000, 50_000, 1_000_000, 123_456_789, u64::MAX / 7] {
            let (low, high) = bucket_range(bucket_index(v));
            assert!(
                ((high - low) as f64) / (low as f64) <= 1.0 / SUBS_PER_OCTAVE as f64 + 1e-12,
                "bucket too wide at {v}: [{low}, {high}]"
            );
        }
    }

    #[test]
    fn quantiles_track_exact_percentiles_within_one_bucket() {
        let hist = LatencyHistogram::new();
        let mut values: Vec<u64> = (1..=1000u64).map(|i| i * i * 37 + 11).collect();
        for &v in &values {
            hist.record(v);
        }
        values.sort_unstable();
        let snap = hist.snapshot();
        for p in [0.5, 0.95, 0.99, 1.0] {
            let rank = ((values.len() as f64) * p).ceil() as usize;
            let exact = values[rank.clamp(1, values.len()) - 1];
            let estimate = snap.quantile(p);
            let (_, high) = LatencyHistogram::bucket_bounds_of(exact);
            assert!(
                estimate >= exact && estimate <= high,
                "p{p}: estimate {estimate} not in [{exact}, {high}]"
            );
        }
    }

    #[test]
    fn footprint_is_constant_under_load() {
        let hist = LatencyHistogram::new();
        let before = hist.footprint_bytes();
        for i in 0..100_000u64 {
            hist.record(i * 997 + 13);
        }
        assert_eq!(hist.footprint_bytes(), before);
        assert_eq!(hist.count(), 100_000);
    }

    #[test]
    fn snapshots_merge_bucketwise() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        for v in [5u64, 100, 10_000] {
            a.record(v);
        }
        for v in [7u64, 100, 1_000_000] {
            b.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count(), 6);
        assert_eq!(merged.sum_nanos(), 5 + 100 + 10_000 + 7 + 100 + 1_000_000);
        // Median of the merged distribution sits in 100's bucket.
        assert_eq!(
            merged.quantile(0.5),
            LatencyHistogram::bucket_bounds_of(100).1
        );
    }

    #[test]
    fn render_and_parse_round_trip() {
        let hist = LatencyHistogram::new();
        for ms in [1u64, 2, 2, 3, 40] {
            hist.record(ms * 1_000_000);
        }
        let mut builder = MetricsBuilder::new();
        builder.counter(
            "t_requests_total",
            "Requests.",
            &[("model", "m"), ("tenant", "edge \"a\"")],
            42,
        );
        builder.gauge("t_depth", "Depth.", &[], 3.5);
        builder.histogram(
            "t_latency_seconds",
            "Latency.",
            &[("model", "m")],
            hist.snapshot(),
        );
        let text = render_families(&builder.finish());
        let parsed = parse_exposition(&text).expect("round-trip parses");
        assert_eq!(
            sample(
                &parsed,
                "t_requests_total",
                &[("tenant", "edge \"a\""), ("model", "m")]
            ),
            Some(42.0)
        );
        assert_eq!(sample(&parsed, "t_depth", &[]), Some(3.5));
        assert_eq!(
            sample(&parsed, "t_latency_seconds_count", &[("model", "m")]),
            Some(5.0)
        );
        let sum = sample(&parsed, "t_latency_seconds_sum", &[("model", "m")]).unwrap();
        assert!((sum - 0.048).abs() < 1e-9, "sum {sum}");
    }

    #[test]
    fn parser_rejects_malformed_expositions() {
        for (text, why) in [
            ("orphan_total 3\n", "sample before TYPE"),
            ("# TYPE x counter\nx{l=\"v\" 3\n", "unterminated labels"),
            ("# TYPE x counter\nx nope\n", "non-numeric value"),
            ("# TYPE x wat\n", "unknown type"),
            (
                "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n",
                "non-cumulative buckets",
            ),
            (
                "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\n",
                "missing _count",
            ),
        ] {
            assert!(parse_exposition(text).is_err(), "accepted {why}: {text:?}");
        }
    }

    #[test]
    fn registry_gathers_sources_in_registration_order() {
        struct Fixed(&'static str);
        impl Collect for Fixed {
            fn collect(&self, out: &mut MetricsBuilder) {
                out.counter(self.0, "Fixed.", &[], 1);
            }
        }
        let registry = MetricsRegistry::new();
        registry.register(Arc::new(Fixed("first_total")));
        registry.register(Arc::new(Fixed("second_total")));
        let families = registry.gather();
        assert_eq!(families.len(), 2);
        assert_eq!(families[0].name, "first_total");
        assert_eq!(families[1].name, "second_total");
        let parsed = parse_exposition(&registry.render()).unwrap();
        assert_eq!(sample(&parsed, "second_total", &[]), Some(1.0));
    }
}
