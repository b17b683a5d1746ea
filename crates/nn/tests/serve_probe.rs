//! A repeatable timing probe of the `serve_batch` workload model:
//! `mobilenet_v2@48` (8 classes) under the Simd flavor, four frames stacked
//! into one `invoke_batch` — what the serving batcher hands the
//! interpreter for one burst. It prints the engine the process runs, the
//! median and the minimum over 60 invokes (after 5 warm-ups) of the whole
//! invoke, and of each op kind's summed node time, read by a timing-only
//! `LayerObserver`. `Conv` is split three ways: the stem (the one windowed
//! `Conv2d`, node 0) on its own, as `conv_probe` prints it; `Conv k≤64`,
//! the other nodes whose reduction the narrow-panel rule takes
//! (`simd::NARROW_K`; it runs them on the AVX-512 engine only); and
//! `Conv k>64`, the rest.
//!
//! Ignored by default — it asserts nothing and its numbers are the host's:
//!
//! ```text
//! cargo test --release -p mlexray-nn --test serve_probe -- --ignored --nocapture
//! ```
//!
//! Pin it to one core (`taskset -c 1`) and compare builds in one session:
//! shared hosts drift by tens of percent between runs minutes apart.
//! `MLEXRAY_SIMD=scalar` times the baseline builds.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mlexray_models::by_name;
use mlexray_nn::simd::NARROW_K;
use mlexray_nn::{BackendSpec, Graph, Interpreter, LayerObserver, LayerRecord, Node, OpKind};
use mlexray_tensor::{Shape, Tensor};

const SIDE: usize = 48;
const CLASSES: usize = 8;
const BATCH: usize = 4;
const WARMUPS: usize = 5;
const INVOKES: usize = 60;

/// Sums one invoke's node latency per kind — [`kind_of`] each node — a
/// batched invoke reports each frame's share of a node, so the sum over
/// frames is the node's time.
struct KindTime<'a> {
    kinds: &'a [&'static str],
    time: BTreeMap<&'static str, Duration>,
}

impl LayerObserver for KindTime<'_> {
    fn on_layer(&mut self, record: &LayerRecord<'_>) {
        *self.time.entry(self.kinds[record.index]).or_default() += record.latency;
    }

    fn wants_output(&self, _batch: usize) -> bool {
        false
    }
}

/// What a node is timed as: its op's label, but a `Conv2d` as the stem (a
/// window that is not pointwise), or by whether its reduction `kh·kw·in_c`
/// is narrow enough for the panel rule.
fn kind_of(graph: &Graph, node: &Node) -> &'static str {
    let OpKind::Conv2d { .. } = node.op else {
        return node.op.type_label();
    };
    let dims = graph.tensor(node.inputs[1]).shape().dims();
    match (dims[1] * dims[2], dims[1] * dims[2] * dims[3]) {
        (taps, _) if taps > 1 => "stem",
        (_, k) if k <= NARROW_K => "Conv k≤64",
        _ => "Conv k>64",
    }
}

fn frame(seed: usize) -> Vec<Tensor> {
    let n = SIDE * SIDE * 3;
    let values = (0..n)
        .map(|i| ((i + 97 * seed) as f32 * 0.0173).sin())
        .collect();
    vec![Tensor::from_f32(Shape::nhwc(1, SIDE, SIDE, 3), values).unwrap()]
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `(median, minimum)` of `samples`, in µs.
fn median_min(samples: &mut [Duration]) -> (f64, f64) {
    samples.sort();
    (micros(samples[samples.len() / 2]), micros(samples[0]))
}

#[test]
#[ignore = "timing probe: run with --ignored --nocapture"]
fn op_kind_time_on_the_serve_batch_model() {
    let model = by_name("mobilenet_v2")
        .unwrap()
        .build(SIDE, CLASSES, 1)
        .unwrap();
    let node_kinds: Vec<_> = model
        .graph
        .nodes()
        .iter()
        .map(|node| kind_of(&model.graph, node))
        .collect();
    let mut interp = Interpreter::new(&model.graph, BackendSpec::simd()).unwrap();
    let frames: Vec<Vec<Tensor>> = (0..BATCH).map(frame).collect();
    let batch: Vec<&[Tensor]> = frames.iter().map(Vec::as_slice).collect();
    println!(
        "mobilenet_v2@{SIDE}, Simd flavor, batch {BATCH}, {INVOKES} invokes after \
         {WARMUPS} warm-ups, engine {}",
        mlexray_nn::simd::active_engine().label()
    );
    let mut whole = Vec::new();
    let mut kinds: BTreeMap<&'static str, Vec<Duration>> = BTreeMap::new();
    for i in 0..WARMUPS + INVOKES {
        let mut observer = KindTime {
            kinds: &node_kinds,
            time: BTreeMap::new(),
        };
        let start = Instant::now();
        interp.invoke_batch_observed(&batch, &mut observer).unwrap();
        if i >= WARMUPS {
            whole.push(start.elapsed());
            for (kind, took) in observer.time {
                kinds.entry(kind).or_default().push(took);
            }
        }
    }
    let (p50, min) = median_min(&mut whole);
    println!("invoke     p50 {p50:>8.1} µs  min {min:>8.1} µs");
    for (kind, samples) in &mut kinds {
        let (p50, min) = median_min(samples);
        println!("{kind:<10} p50 {p50:>8.1} µs  min {min:>8.1} µs");
    }
}
