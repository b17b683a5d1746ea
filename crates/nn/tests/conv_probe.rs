//! A repeatable timing probe of the two `mini_mobilenet_v2` (8 classes)
//! workload models at batch 1: `@24`, the `replay_validate` model, under
//! the reference and the optimized flavors — the two sides of the offline
//! replay — and `@32`, the `wire_plain` model, under the optimized flavor
//! it serves with. For each it prints the median and the minimum over 60
//! invokes (after 5 warm-ups) of the whole invoke and of each op kind's
//! summed node time, read by a timing-only `LayerObserver`, and of the
//! stem — the first node, the one 3×3 `Conv2d` — on its own.
//!
//! Ignored by default — it asserts nothing and its numbers are the host's:
//!
//! ```text
//! cargo test --release -p mlexray-nn --test conv_probe -- --ignored --nocapture
//! ```
//!
//! Pin it to one core (`taskset -c 1`) and compare builds in one session:
//! shared hosts drift by tens of percent between runs minutes apart.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mlexray_models::by_name;
use mlexray_nn::{BackendSpec, Interpreter, KernelFlavor, LayerObserver, LayerRecord, Model};
use mlexray_tensor::{Shape, Tensor};

const CLASSES: usize = 8;
const WARMUPS: usize = 5;
const INVOKES: usize = 60;

/// Sums one invoke's node latency per op kind, and keeps the stem's (node
/// 0) as a kind of its own.
#[derive(Default)]
struct KindTime(BTreeMap<&'static str, Duration>);

impl LayerObserver for KindTime {
    fn on_layer(&mut self, record: &LayerRecord<'_>) {
        *self.0.entry(record.op.type_label()).or_default() += record.latency;
        if record.index == 0 {
            self.0.insert("stem", record.latency);
        }
    }

    fn wants_output(&self, _batch: usize) -> bool {
        false
    }
}

fn frame(side: usize) -> Vec<Tensor> {
    let n = side * side * 3;
    let values = (0..n).map(|i| (i as f32 * 0.0173).sin()).collect();
    vec![Tensor::from_f32(Shape::nhwc(1, side, side, 3), values).unwrap()]
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `(median, minimum)` of `samples`, in µs.
fn median_min(samples: &mut [Duration]) -> (f64, f64) {
    samples.sort();
    (micros(samples[samples.len() / 2]), micros(samples[0]))
}

fn probe(model: &Model, side: usize, flavor: KernelFlavor) {
    let spec = BackendSpec {
        flavor,
        ..BackendSpec::reference()
    };
    let mut interp = Interpreter::new(&model.graph, spec).unwrap();
    let input = frame(side);
    let mut whole = Vec::new();
    let mut kinds: BTreeMap<&'static str, Vec<Duration>> = BTreeMap::new();
    for i in 0..WARMUPS + INVOKES {
        let mut observer = KindTime::default();
        let start = Instant::now();
        interp.invoke_observed(&input, &mut observer).unwrap();
        if i >= WARMUPS {
            whole.push(start.elapsed());
            for (kind, took) in observer.0 {
                kinds.entry(kind).or_default().push(took);
            }
        }
    }
    let (p50, min) = median_min(&mut whole);
    let flavor = format!("@{side} {flavor:?}");
    println!("{flavor:<13} invoke     p50 {p50:>7.1} µs  min {min:>7.1} µs");
    for (kind, samples) in &mut kinds {
        let (p50, min) = median_min(samples);
        println!("{flavor:<13} {kind:<10} p50 {p50:>7.1} µs  min {min:>7.1} µs");
    }
}

#[test]
#[ignore = "timing probe: run with --ignored --nocapture"]
fn op_kind_time_on_mini_mobilenet_v2() {
    println!(
        "mini_mobilenet_v2, batch 1, {INVOKES} invokes after {WARMUPS} warm-ups, \
         SIMD engine {:?}",
        mlexray_nn::simd::active_engine()
    );
    let sides = [
        (24, &[KernelFlavor::Reference, KernelFlavor::Optimized][..]),
        (32, &[KernelFlavor::Optimized][..]),
    ];
    for (side, flavors) in sides {
        let model = by_name("mini_mobilenet_v2")
            .unwrap()
            .build(side, CLASSES, 1)
            .unwrap();
        for &flavor in flavors {
            probe(&model, side, flavor);
        }
    }
}
