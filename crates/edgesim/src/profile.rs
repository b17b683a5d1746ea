//! Device profiles: the Pixel 4, Pixel 3 and x86-emulator targets of the
//! paper's evaluation.

use serde::{Deserialize, Serialize};

use crate::cost::{
    pixel4_float_optimized, pixel4_float_reference, pixel4_quant_optimized, pixel4_quant_reference,
    x86_float_optimized, x86_quant_optimized, CostTable, DtypeClass,
};
use mlexray_nn::{AccumOrder, BackendSpec, EdgeNumerics, KernelFlavor, RequantMode};

/// Which processor executes the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Processor {
    /// Big-core CPU.
    Cpu,
    /// Mobile GPU (float only; quantized layers fall back to CPU costs, as
    /// TFLite GPU delegates do).
    Gpu,
}

/// A simulated edge device: cost tables for each (dtype, flavor) pair plus
/// GPU, storage and instrumentation characteristics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceProfile {
    /// Display name.
    pub name: String,
    /// Float kernels, optimized resolver.
    pub float_optimized: CostTable,
    /// Float kernels, reference resolver.
    pub float_reference: CostTable,
    /// Quantized kernels, optimized resolver.
    pub quant_optimized: CostTable,
    /// Quantized kernels, reference resolver.
    pub quant_reference: CostTable,
    /// Float-kernel speedup of the GPU over the CPU (`None` = no GPU).
    /// Table 2: Adreno 640 runs MobileNetV2 ~7.7x faster than the Pixel-4
    /// CPU.
    pub gpu_float_speedup: Option<f64>,
    /// SD-card write throughput, ns per byte.
    pub storage_ns_per_byte: f64,
    /// Fixed per-frame latency of the EdgeML Monitor on the CPU (log
    /// formatting + buffer management), ns. Table 2 measures ~1.4 ms.
    pub monitor_fixed_ns_cpu: f64,
    /// Fixed per-frame monitor latency when the model runs on the GPU
    /// (adds a device→host sync). Table 2 measures ~2.4 ms.
    pub monitor_fixed_ns_gpu: f64,
    /// Marginal monitor cost per logged byte, ns.
    pub monitor_ns_per_byte: f64,
    /// The device runtime's kernel numerics, for
    /// [`mlexray_nn::BackendSpec::emulator`]: how this target's arithmetic
    /// deviates from the reference kernels.
    pub numerics: EdgeNumerics,
}

impl DeviceProfile {
    /// Pixel 4 (Snapdragon 855, Adreno 640) — the paper's primary device.
    pub fn pixel4() -> Self {
        DeviceProfile {
            name: "Pixel 4".into(),
            float_optimized: pixel4_float_optimized(),
            float_reference: pixel4_float_reference(),
            quant_optimized: pixel4_quant_optimized(),
            quant_reference: pixel4_quant_reference(),
            gpu_float_speedup: Some(7.7),
            storage_ns_per_byte: 8.0,
            monitor_fixed_ns_cpu: 1_200_000.0,
            monitor_fixed_ns_gpu: 2_300_000.0,
            monitor_ns_per_byte: 0.5,
            // NEON codegen: lane-reduced sums, FMA contraction, FTZ on by
            // default, fixed-point (single-precision) requantization.
            numerics: EdgeNumerics {
                accumulation: AccumOrder::Lanes8,
                fused_multiply_add: true,
                flush_to_zero: true,
                requant: RequantMode::Single,
            },
        }
    }

    /// Pixel 3 (Snapdragon 845, Adreno 630): ~1.22x the Pixel-4 CPU latency
    /// and a slower GPU (Table 2: 28.4 ms vs 16.7 ms).
    pub fn pixel3() -> Self {
        let p4 = Self::pixel4();
        DeviceProfile {
            name: "Pixel 3".into(),
            float_optimized: p4.float_optimized.scaled(1.22),
            float_reference: p4.float_reference.scaled(1.22),
            quant_optimized: p4.quant_optimized.scaled(1.22),
            quant_reference: p4.quant_reference.scaled(1.22),
            gpu_float_speedup: Some(5.5),
            storage_ns_per_byte: 10.0,
            monitor_fixed_ns_cpu: 1_300_000.0,
            monitor_fixed_ns_gpu: 1_600_000.0,
            monitor_ns_per_byte: 0.6,
            // Older NEON pipeline: lane reduction and FTZ, but no FMA
            // contraction in the hot kernels of its runtime build.
            numerics: EdgeNumerics {
                accumulation: AccumOrder::Lanes8,
                fused_multiply_add: false,
                flush_to_zero: true,
                requant: RequantMode::Single,
            },
        }
    }

    /// x86 Android emulator for a Pixel 4: no ARM-specific kernels, so
    /// convolutions are dramatically slower (Table 4's last column), and no
    /// GPU delegate.
    pub fn x86_emulator() -> Self {
        DeviceProfile {
            name: "Emulator(x86)".into(),
            float_optimized: x86_float_optimized(),
            float_reference: x86_float_optimized().scaled(120.0),
            quant_optimized: x86_quant_optimized(),
            quant_reference: x86_quant_optimized().scaled(150.0),
            gpu_float_speedup: None,
            storage_ns_per_byte: 2.0,
            monitor_fixed_ns_cpu: 400_000.0,
            monitor_fixed_ns_gpu: 400_000.0,
            monitor_ns_per_byte: 0.2,
            // Scalar x86 fallback kernels: reversed unrolled tails, no FMA,
            // denormals preserved (SSE default), double-precision requant.
            numerics: EdgeNumerics {
                accumulation: AccumOrder::Reversed,
                fused_multiply_add: false,
                flush_to_zero: false,
                requant: RequantMode::Double,
            },
        }
    }

    /// The cost table for a (dtype, flavor) pair on the given processor.
    pub fn table(
        &self,
        dtype: DtypeClass,
        flavor: KernelFlavor,
        processor: Processor,
    ) -> CostTable {
        // The device cost tables predate the SIMD resolver; until a profile
        // ships dedicated SIMD timings, model it with the optimized-kernel
        // costs (both are the device's "fast path").
        let base = match (dtype, flavor) {
            (DtypeClass::Float, KernelFlavor::Optimized | KernelFlavor::Simd) => {
                self.float_optimized
            }
            (DtypeClass::Float, KernelFlavor::Reference) => self.float_reference,
            (DtypeClass::Quant, KernelFlavor::Optimized | KernelFlavor::Simd) => {
                self.quant_optimized
            }
            (DtypeClass::Quant, KernelFlavor::Reference) => self.quant_reference,
        };
        match (processor, dtype, self.gpu_float_speedup) {
            (Processor::Gpu, DtypeClass::Float, Some(speedup)) => base.scaled(1.0 / speedup),
            // Quantized layers fall back to the CPU under a GPU delegate.
            _ => base,
        }
    }

    /// Monitor per-frame overhead in ns for a given processor and logged
    /// byte volume (Table 2's instrumentation overhead).
    pub fn monitor_overhead_ns(&self, processor: Processor, logged_bytes: u64) -> f64 {
        let fixed = match processor {
            Processor::Cpu => self.monitor_fixed_ns_cpu,
            Processor::Gpu => self.monitor_fixed_ns_gpu,
        };
        fixed + self.monitor_ns_per_byte * logged_bytes as f64
    }

    /// ns needed to persist `bytes` to the device's storage.
    pub fn storage_write_ns(&self, bytes: u64) -> f64 {
        self.storage_ns_per_byte * bytes as f64
    }

    /// The backend spec emulating this device's runtime numerics — the
    /// "suspect pipeline" side of a cross-runtime differential run.
    pub fn emulator_spec(&self) -> BackendSpec {
        BackendSpec::emulator(self.numerics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pixel3_is_slower_than_pixel4() {
        let p3 = DeviceProfile::pixel3();
        let p4 = DeviceProfile::pixel4();
        assert!(p3.float_optimized.conv > p4.float_optimized.conv);
    }

    #[test]
    fn gpu_accelerates_float_only() {
        let p4 = DeviceProfile::pixel4();
        let cpu = p4.table(DtypeClass::Float, KernelFlavor::Optimized, Processor::Cpu);
        let gpu = p4.table(DtypeClass::Float, KernelFlavor::Optimized, Processor::Gpu);
        assert!(gpu.conv < cpu.conv / 5.0);
        let qcpu = p4.table(DtypeClass::Quant, KernelFlavor::Optimized, Processor::Cpu);
        let qgpu = p4.table(DtypeClass::Quant, KernelFlavor::Optimized, Processor::Gpu);
        assert_eq!(qcpu, qgpu, "quantized layers fall back to CPU");
    }

    #[test]
    fn emulator_has_no_gpu() {
        let em = DeviceProfile::x86_emulator();
        assert!(em.gpu_float_speedup.is_none());
        let cpu = em.table(DtypeClass::Float, KernelFlavor::Optimized, Processor::Cpu);
        let gpu = em.table(DtypeClass::Float, KernelFlavor::Optimized, Processor::Gpu);
        assert_eq!(cpu, gpu);
    }

    #[test]
    fn profiles_map_to_distinct_emulator_numerics() {
        let p4 = DeviceProfile::pixel4();
        let p3 = DeviceProfile::pixel3();
        let em = DeviceProfile::x86_emulator();
        assert_ne!(p4.numerics, p3.numerics);
        assert_ne!(p4.numerics, em.numerics);
        assert!(
            !p4.numerics.is_faithful(),
            "a real device target must deviate from reference arithmetic"
        );
        assert_eq!(
            p4.emulator_spec(),
            BackendSpec::emulator(p4.numerics),
            "emulator spec must carry the profile's numerics"
        );
    }

    #[test]
    fn monitor_overhead_matches_table2_scale() {
        let p4 = DeviceProfile::pixel4();
        let cpu = p4.monitor_overhead_ns(Processor::Cpu, 420);
        let gpu = p4.monitor_overhead_ns(Processor::Gpu, 420);
        // ~1.4 ms on CPU, ~2.4 ms on GPU in the paper.
        assert!((1.0e6..2.0e6).contains(&cpu), "{cpu}");
        assert!(gpu > cpu);
    }
}
