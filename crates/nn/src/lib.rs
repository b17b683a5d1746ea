//! A TFLite-like neural-network graph interpreter built for deployment
//! debugging.
//!
//! This crate is the execution substrate of the ML-EXray reproduction: a
//! dataflow [`Graph`] of TFLite-style ops, an [`Interpreter`] with per-layer
//! observation hooks (the surface ML-EXray's EdgeML Monitor instruments),
//! *reference* and *optimized* kernel flavors mirroring TFLite's two op
//! resolvers, checkpoint→mobile [conversion](convert_to_mobile) (batch-norm
//! folding, activation fusion) and post-training full-integer
//! [quantization](quantize_model) with dataset calibration. The [`analysis`]
//! module is the static complement: a multi-pass linter that proves shape,
//! dtype, quantization, memory-plan and batchability safety from the graph
//! alone, before a model ever runs.
//!
//! Two injectable kernel defects ([`KernelBugs`]) reproduce the real TFLite
//! bugs the paper discovered in §4.4: a broken optimized quantized
//! `DepthwiseConv2D` and a broken quantized `AveragePool2D`. Both are off by
//! default.
//!
//! There is one engine, the [`Interpreter`], and one [`BackendSpec`] struct
//! whose four constructors say which kernels it resolves at build:
//! `reference()` and `optimized()` are the two scalar kernel flavors,
//! `simd()` dispatches the runtime-feature-detected virtual-SIMD GEMM
//! micro-kernels of the [`simd`] module (AVX2/FMA on x86_64, a
//! bitwise-identical scalar mirror elsewhere), and `emulator(numerics)`
//! reproduces a foreign edge runtime's numerics ([`EdgeNumerics`]: GEMM
//! accumulation order, fused multiply-add, flush-to-zero denormals,
//! reduced-precision requantization) — the substrate of `mlexray-core`'s
//! per-layer differential debugger.
//!
//! # Example
//!
//! ```
//! use mlexray_nn::{GraphBuilder, Interpreter, BackendSpec, Activation, Padding};
//! use mlexray_tensor::{Shape, Tensor};
//!
//! let mut b = GraphBuilder::new("demo");
//! let x = b.input("x", Shape::nhwc(1, 4, 4, 1));
//! let w = b.constant("w", Tensor::filled_f32(Shape::new(vec![1, 3, 3, 1]), 1.0 / 9.0));
//! let y = b.conv2d("blur", x, w, None, 1, Padding::Same, Activation::None)?;
//! b.output(y);
//! let graph = b.finish()?;
//!
//! let mut interp = Interpreter::new(&graph, BackendSpec::optimized())?;
//! let out = interp.invoke(&[Tensor::filled_f32(Shape::nhwc(1, 4, 4, 1), 9.0)])?;
//! assert!((out[0].as_f32()?[5] - 9.0).abs() < 1e-4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod analysis;
mod backend;
mod convert;
mod error;
pub mod golden;
mod graph;
mod interpreter;
mod kernels;
mod model;
mod ops;
mod plan;
mod quantize;
mod resolver;

pub use backend::{BackendSpec, BoxedBackend};
pub use convert::convert_to_mobile;
pub use error::NnError;
pub use graph::{Graph, GraphBuilder, Node, NodeId, TensorDef, TensorId};
pub use interpreter::{Interpreter, InvokeStats, LayerObserver, LayerRecord, NullObserver};
pub use kernels::gemm as simd;
pub use model::{Model, ModelVariant};
pub use ops::{Activation, OpKind, Padding};
pub use plan::{MemoryPlan, PlannedTensor};
pub use quantize::{calibrate, output_params, quantize_model, Calibration, QuantizationOptions};
pub use resolver::{AccumOrder, EdgeNumerics, KernelBugs, KernelFlavor, RequantMode};

/// Result alias used throughout the nn crate.
pub type Result<T> = std::result::Result<T, NnError>;
