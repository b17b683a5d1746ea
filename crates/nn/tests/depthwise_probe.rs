//! A repeatable timing probe of the depthwise kernels: `mobilenet_v2@48`
//! ×1.0 at batch 1, float (converted) and int8 (quantized) twins, each under
//! the reference, optimized and SIMD flavors. For each it prints the median
//! and the minimum over 30 invokes (after 3 warm-ups) of the whole invoke and
//! of the summed `DepthwiseConv2d` node time, read by a timing-only
//! `LayerObserver`.
//!
//! Ignored by default — it asserts nothing and its numbers are the host's:
//!
//! ```text
//! cargo test --release -p mlexray-nn --test depthwise_probe -- --ignored --nocapture
//! ```
//!
//! Pin it to one core (`taskset -c 1`) and compare builds in one session:
//! shared hosts drift by tens of percent between runs minutes apart.

use std::time::{Duration, Instant};

use mlexray_models::by_name;
use mlexray_nn::{
    calibrate, convert_to_mobile, quantize_model, BackendSpec, Interpreter, KernelFlavor,
    LayerObserver, LayerRecord, Model, OpKind, QuantizationOptions,
};
use mlexray_tensor::{Shape, Tensor};

const SIDE: usize = 48;
const WARMUPS: usize = 3;
const INVOKES: usize = 30;

/// Sums the latency of the depthwise nodes of one invoke.
#[derive(Default)]
struct DepthwiseTime(Duration);

impl LayerObserver for DepthwiseTime {
    fn on_layer(&mut self, record: &LayerRecord<'_>) {
        if matches!(record.op, OpKind::DepthwiseConv2d { .. }) {
            self.0 += record.latency;
        }
    }

    fn wants_output(&self, _batch: usize) -> bool {
        false
    }
}

fn frame(seed: usize) -> Vec<Tensor> {
    let n = SIDE * SIDE * 3;
    let values = (0..n)
        .map(|i| ((seed * n + i) as f32 * 0.0173).sin())
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

fn probe(label: &str, model: &Model, flavor: KernelFlavor) {
    let spec = BackendSpec {
        flavor,
        ..BackendSpec::reference()
    };
    let mut interp = Interpreter::new(&model.graph, spec).unwrap();
    let input = frame(1);
    let (mut whole, mut depthwise) = (Vec::new(), Vec::new());
    for i in 0..WARMUPS + INVOKES {
        let mut observer = DepthwiseTime::default();
        let start = Instant::now();
        interp.invoke_observed(&input, &mut observer).unwrap();
        if i >= WARMUPS {
            whole.push(start.elapsed());
            depthwise.push(observer.0);
        }
    }
    let (whole_p50, whole_min) = median_min(&mut whole);
    let (dw_p50, dw_min) = median_min(&mut depthwise);
    let flavor = format!("{flavor:?}");
    println!(
        "{label:<5} {flavor:<9}  invoke p50 {whole_p50:>8.0} µs  min {whole_min:>8.0} µs  \
         depthwise p50 {dw_p50:>8.0} µs  min {dw_min:>8.0} µs"
    );
}

#[test]
#[ignore = "timing probe: run with --ignored --nocapture"]
fn depthwise_time_on_mobilenet_v2_48() {
    let checkpoint = by_name("mobilenet_v2").unwrap().build(SIDE, 10, 7).unwrap();
    let mobile = convert_to_mobile(&checkpoint).unwrap();
    let rep: Vec<Vec<Tensor>> = (0..8).map(frame).collect();
    let calib = calibrate(&mobile.graph, rep.iter().map(Vec::as_slice)).unwrap();
    let quant = quantize_model(&mobile, &calib, QuantizationOptions::default()).unwrap();
    println!(
        "mobilenet_v2@{SIDE} x1.0, batch 1, {INVOKES} invokes after {WARMUPS} warm-ups, \
         SIMD engine {:?}",
        mlexray_nn::simd::active_engine()
    );
    for flavor in [
        KernelFlavor::Reference,
        KernelFlavor::Optimized,
        KernelFlavor::Simd,
    ] {
        probe("float", &mobile, flavor);
        probe("int8", &quant, flavor);
    }
}
