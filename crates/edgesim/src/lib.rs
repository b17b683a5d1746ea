//! Edge-device simulation for the ML-EXray reproduction.
//!
//! The paper's latency numbers come from Pixel 4 / Pixel 3 phones and an x86
//! Android emulator — hardware this reproduction does not have. In its
//! place this crate provides *calibrated cost models*: the real interpreter
//! executes the real graph (so outputs, shapes, memory and log sizes are
//! genuine), while per-layer latency is computed from a per-op-category
//! ns/MAC table calibrated against Table 4 of the paper (MobileNetV2 on
//! Pixel 4, all four kernel/dtype combinations, plus the x86 emulator
//! column).
//!
//! What the calibration preserves — and what the experiments rely on:
//!
//! * quantized models are faster than float on device CPUs;
//! * the reference resolver is 2–3 orders of magnitude slower than the
//!   optimized one, dominated by convolutions;
//! * depthwise convolutions are disproportionately expensive in float;
//! * the x86 emulator is much slower than the phone for convolutions
//!   (ARM-specific optimizations don't carry over) while being fine on
//!   reductions.
//!
//! # Example
//!
//! ```
//! use mlexray_edgesim::{DeviceProfile, Processor, SimulatedDevice};
//!
//! let device = SimulatedDevice::new(DeviceProfile::pixel4(), Processor::Cpu);
//! assert_eq!(device.profile().name, "Pixel 4");
//! ```

#![warn(missing_docs)]

mod cost;
mod device;
mod profile;

pub use cost::{CostTable, DtypeClass, OpCategory};
pub use device::{SimLayer, SimRun, SimulatedDevice};
pub use profile::{DeviceProfile, Processor};
