//! Simulated execution: real interpreter, simulated clock.

use std::time::Duration;

use mlexray_nn::{BackendSpec, Graph, Interpreter, LayerObserver, LayerRecord, NnError};
use mlexray_tensor::{DType, Tensor};

use crate::cost::{DtypeClass, OpCategory};
use crate::profile::{DeviceProfile, Processor};

/// One simulated layer execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SimLayer {
    /// Node name.
    pub name: String,
    /// Table-4 style op label ("Conv", "D-Conv", ...).
    pub op_label: &'static str,
    /// Cost category.
    pub category: OpCategory,
    /// Work estimate (MACs or elements, per category).
    pub macs: u64,
    /// Simulated latency in nanoseconds.
    pub sim_ns: f64,
    /// Output tensor size in bytes (what per-layer logging would write).
    pub output_bytes: u64,
}

/// The result of one simulated inference.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRun {
    /// Per-layer simulated executions, in order.
    pub layers: Vec<SimLayer>,
    /// Total simulated latency in nanoseconds.
    pub total_ns: f64,
    /// Model outputs (computed by the real kernels).
    pub outputs: Vec<Tensor>,
    /// Peak live activation bytes during the run.
    pub peak_activation_bytes: usize,
    /// Constant (weight) bytes of the model.
    pub model_bytes: usize,
}

impl SimRun {
    /// Total simulated latency in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns / 1e6
    }

    /// Sums simulated latency by op label, descending — the rows of Table 4.
    pub fn latency_by_op_label(&self) -> Vec<(&'static str, usize, f64)> {
        let mut acc: Vec<(&'static str, usize, f64)> = Vec::new();
        for layer in &self.layers {
            match acc.iter_mut().find(|(l, _, _)| *l == layer.op_label) {
                Some(entry) => {
                    entry.1 += 1;
                    entry.2 += layer.sim_ns;
                }
                None => acc.push((layer.op_label, 1, layer.sim_ns)),
            }
        }
        acc.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
        acc
    }

    /// Total bytes a full per-layer dump of this run would write (the
    /// offline-validation storage column of Tables 3/5).
    pub fn per_layer_log_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.output_bytes).sum()
    }
}

/// A device executing models under a calibrated cost model.
#[derive(Debug, Clone)]
pub struct SimulatedDevice {
    profile: DeviceProfile,
    processor: Processor,
}

struct CostObserver<'p> {
    profile: &'p DeviceProfile,
    processor: Processor,
    flavor: mlexray_nn::KernelFlavor,
    layers: Vec<SimLayer>,
}

impl LayerObserver for CostObserver<'_> {
    fn on_layer(&mut self, record: &LayerRecord<'_>) {
        let dtype = if record.output.dtype() == DType::U8 {
            DtypeClass::Quant
        } else {
            DtypeClass::Float
        };
        let category = OpCategory::of(record.op);
        let table = self.profile.table(dtype, self.flavor, self.processor);
        let sim_ns = table.cost_ns(category, record.macs);
        self.layers.push(SimLayer {
            name: record.name.to_string(),
            op_label: record.op.type_label(),
            category,
            macs: record.macs,
            sim_ns,
            output_bytes: record.output.byte_size() as u64,
        });
    }
}

impl SimulatedDevice {
    /// Creates a device from a profile and target processor.
    pub fn new(profile: DeviceProfile, processor: Processor) -> Self {
        SimulatedDevice { profile, processor }
    }

    /// The device profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// The processor models run on.
    pub fn processor(&self) -> Processor {
        self.processor
    }

    /// Runs one inference, returning real outputs with simulated timing.
    ///
    /// # Errors
    ///
    /// Propagates interpreter errors.
    pub fn run(
        &self,
        graph: &Graph,
        inputs: &[Tensor],
        spec: BackendSpec,
    ) -> Result<SimRun, NnError> {
        let mut interp = Interpreter::new(graph, spec)?;
        let mut observer = CostObserver {
            profile: &self.profile,
            processor: self.processor,
            flavor: spec.flavor,
            layers: Vec::with_capacity(graph.layer_count()),
        };
        let outputs = interp.invoke_observed(inputs, &mut observer)?;
        let total_ns = observer.layers.iter().map(|l| l.sim_ns).sum();
        let stats = interp.last_stats().expect("stats recorded after invoke");
        Ok(SimRun {
            layers: observer.layers,
            total_ns,
            outputs,
            peak_activation_bytes: stats.peak_activation_bytes,
            model_bytes: graph.param_bytes(),
        })
    }

    /// Predicted wall-clock of one single-frame invoke of `graph` on this
    /// device, in nanoseconds (the cost-model sum over one simulated run).
    ///
    /// # Errors
    ///
    /// Propagates interpreter errors.
    pub fn predicted_invoke_ns(
        &self,
        graph: &Graph,
        inputs: &[Tensor],
        spec: BackendSpec,
    ) -> Result<f64, NnError> {
        Ok(self.run(graph, inputs, spec)?.total_ns)
    }

    /// The dynamic-batching coalescing window this device's latency model
    /// suggests for `graph`: half of one predicted invoke — a request never
    /// waits longer to fill a batch than ~50% of the compute it is about to
    /// pay anyway — clamped to `[50 µs, 20 ms]` so degenerate cost models
    /// can't produce zero-coalescing or unbounded-tail windows.
    ///
    /// # Errors
    ///
    /// Propagates interpreter errors.
    pub fn suggested_batch_window(
        &self,
        graph: &Graph,
        inputs: &[Tensor],
        spec: BackendSpec,
    ) -> Result<Duration, NnError> {
        let ns = self.predicted_invoke_ns(graph, inputs, spec)? * 0.5;
        let clamped = ns.clamp(50_000.0, 20_000_000.0);
        Ok(Duration::from_nanos(clamped as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlexray_nn::{Activation, GraphBuilder, Padding};
    use mlexray_tensor::{he_normal, Shape};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn small_graph() -> Graph {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut b = GraphBuilder::new("g");
        let x = b.input("x", Shape::nhwc(1, 16, 16, 3));
        let w = b.constant(
            "w",
            he_normal(Shape::new(vec![8, 3, 3, 3]), 27, &mut rng).unwrap(),
        );
        let c = b
            .conv2d("conv", x, w, None, 2, Padding::Same, Activation::Relu6)
            .unwrap();
        let m = b.mean("gap", c).unwrap();
        let s = b.softmax("softmax", m).unwrap();
        b.output(s);
        b.finish().unwrap()
    }

    #[test]
    fn run_produces_layers_and_latency() {
        let device = SimulatedDevice::new(DeviceProfile::pixel4(), Processor::Cpu);
        let g = small_graph();
        let x = Tensor::filled_f32(Shape::nhwc(1, 16, 16, 3), 0.1);
        let run = device.run(&g, &[x], BackendSpec::optimized()).unwrap();
        assert_eq!(run.layers.len(), 3);
        assert!(run.total_ns > 0.0);
        assert!(run.per_layer_log_bytes() > 0);
        assert_eq!(run.outputs.len(), 1);
    }

    #[test]
    fn reference_flavor_is_slower() {
        let device = SimulatedDevice::new(DeviceProfile::pixel4(), Processor::Cpu);
        let g = small_graph();
        let x = Tensor::filled_f32(Shape::nhwc(1, 16, 16, 3), 0.1);
        let opt = device
            .run(&g, std::slice::from_ref(&x), BackendSpec::optimized())
            .unwrap();
        let reference = device.run(&g, &[x], BackendSpec::reference()).unwrap();
        assert!(reference.total_ns > opt.total_ns * 5.0);
    }

    #[test]
    fn gpu_is_faster_for_float() {
        let g = small_graph();
        let x = Tensor::filled_f32(Shape::nhwc(1, 16, 16, 3), 0.1);
        let cpu = SimulatedDevice::new(DeviceProfile::pixel4(), Processor::Cpu)
            .run(&g, std::slice::from_ref(&x), BackendSpec::optimized())
            .unwrap();
        let gpu = SimulatedDevice::new(DeviceProfile::pixel4(), Processor::Gpu)
            .run(&g, &[x], BackendSpec::optimized())
            .unwrap();
        assert!(gpu.total_ns < cpu.total_ns);
    }

    #[test]
    fn batch_window_tracks_the_cost_model_within_clamps() {
        let device = SimulatedDevice::new(DeviceProfile::pixel4(), Processor::Cpu);
        let g = small_graph();
        let x = Tensor::filled_f32(Shape::nhwc(1, 16, 16, 3), 0.1);
        let opt = device
            .suggested_batch_window(&g, std::slice::from_ref(&x), BackendSpec::optimized())
            .unwrap();
        let reference = device
            .suggested_batch_window(&g, std::slice::from_ref(&x), BackendSpec::reference())
            .unwrap();
        // Slower predicted invokes buy longer coalescing windows...
        assert!(reference >= opt, "{reference:?} vs {opt:?}");
        // ...but both stay inside the tail-latency clamp.
        for window in [opt, reference] {
            assert!(window >= Duration::from_micros(50), "{window:?}");
            assert!(window <= Duration::from_millis(20), "{window:?}");
        }
        let predicted = device
            .predicted_invoke_ns(&g, &[x], BackendSpec::optimized())
            .unwrap();
        assert!(predicted > 0.0);
    }

    #[test]
    fn latency_by_label_sums_everything() {
        let device = SimulatedDevice::new(DeviceProfile::pixel4(), Processor::Cpu);
        let g = small_graph();
        let x = Tensor::filled_f32(Shape::nhwc(1, 16, 16, 3), 0.1);
        let run = device.run(&g, &[x], BackendSpec::optimized()).unwrap();
        let by_label = run.latency_by_op_label();
        let sum: f64 = by_label.iter().map(|(_, _, ns)| ns).sum();
        assert!((sum - run.total_ns).abs() < 1e-6);
    }
}
