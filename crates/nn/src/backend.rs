//! Pluggable execution backends: the multi-runtime surface of §4.4.
//!
//! ML-EXray's central debugging technique replays the same frames through a
//! known-correct runtime and a suspect runtime, then compares per-layer
//! outputs. That only works if "runtime" is a first-class, swappable
//! abstraction — this module provides it. [`ExecutionBackend`] is the
//! execution surface (single and batched invokes with per-layer
//! observation); the [`Interpreter`] is the shared engine behind all four
//! implementations:
//!
//! * [`ReferenceBackend`] — the debugging-grade reference kernels
//!   (TFLite's `RefOpResolver`): naive loops, canonical summation order.
//! * [`OptimizedBackend`] — the production kernels (`OpResolver`): blocked
//!   accumulation, whole-batch im2col GEMM, and the surface the injected
//!   [`KernelBugs`] live in.
//! * [`SimdBackend`] — the raw-speed kernels (`SimdOpResolver`): the
//!   runtime-feature-dispatched virtual-SIMD GEMM of `kernels::gemm`
//!   (AVX2/FMA on x86_64, a bitwise-identical scalar mirror elsewhere)
//!   behind the im2col conv, depthwise and fully-connected paths, with a
//!   true i8×i8→i32 quantized batched GEMM.
//! * [`EdgeEmulatorBackend`] — reproduces a *different* edge runtime's
//!   numerics ([`EdgeNumerics`]): configurable GEMM accumulation order,
//!   fused multiply-add contraction, flush-to-zero denormals, and
//!   reduced-precision requantization. Device profiles in `mlexray-edgesim`
//!   map real targets to these knobs.
//!
//! [`BackendSpec`] is the serializable, copyable description of a backend —
//! what crosses thread boundaries in the sharded differential debugger,
//! where every worker builds its own backend instance from the spec.

use serde::{Deserialize, Serialize};

use mlexray_tensor::Tensor;

use crate::graph::Graph;
use crate::interpreter::{
    Interpreter, InterpreterOptions, InvokeStats, LayerObserver, NullObserver,
};
use crate::resolver::{EdgeNumerics, KernelBugs, KernelFlavor};
use crate::Result;

/// A pluggable model-execution runtime: everything the replay and
/// differential-debugging layers need from "something that runs the graph".
///
/// All implementations guarantee per-frame results independent of batching
/// (the `batch_equivalence` property suite pins this for the underlying
/// engine), so callers may freely micro-batch.
pub trait ExecutionBackend: Send {
    /// Short display name ("reference", "optimized", "edge-emulator").
    fn label(&self) -> &'static str;

    /// The interpreter options this backend executes under.
    fn options(&self) -> InterpreterOptions;

    /// The graph being executed.
    fn graph(&self) -> &Graph;

    /// Runs one frame, reporting every executed node to `observer`.
    ///
    /// # Errors
    ///
    /// Propagates interpreter errors.
    fn invoke_observed(
        &mut self,
        inputs: &[Tensor],
        observer: &mut dyn LayerObserver,
    ) -> Result<Vec<Tensor>>;

    /// Runs a batch of frames (stacked where the graph allows), reporting
    /// per-frame layer records to `observer`.
    ///
    /// # Errors
    ///
    /// Propagates interpreter errors.
    fn invoke_batch_observed(
        &mut self,
        batch: &[&[Tensor]],
        observer: &mut dyn LayerObserver,
    ) -> Result<Vec<Vec<Tensor>>>;

    /// Statistics of the most recent invoke, if any.
    fn last_stats(&self) -> Option<InvokeStats>;

    /// Runs one frame without observation.
    ///
    /// # Errors
    ///
    /// Propagates interpreter errors.
    fn invoke(&mut self, inputs: &[Tensor]) -> Result<Vec<Tensor>> {
        self.invoke_observed(inputs, &mut NullObserver)
    }

    /// Runs a batch without observation.
    ///
    /// # Errors
    ///
    /// Propagates interpreter errors.
    fn invoke_batch(&mut self, batch: &[&[Tensor]]) -> Result<Vec<Vec<Tensor>>> {
        self.invoke_batch_observed(batch, &mut NullObserver)
    }
}

/// A boxed backend bound to a graph's lifetime — what [`BackendSpec::build`]
/// hands out and what per-worker replay state stores.
pub type BoxedBackend<'g> = Box<dyn ExecutionBackend + 'g>;

macro_rules! delegate_backend {
    ($ty:ident, $label:expr) => {
        impl ExecutionBackend for $ty<'_> {
            fn label(&self) -> &'static str {
                $label
            }

            fn options(&self) -> InterpreterOptions {
                self.interp.options()
            }

            fn graph(&self) -> &Graph {
                self.interp.graph()
            }

            fn invoke_observed(
                &mut self,
                inputs: &[Tensor],
                observer: &mut dyn LayerObserver,
            ) -> Result<Vec<Tensor>> {
                self.interp.invoke_observed(inputs, observer)
            }

            fn invoke_batch_observed(
                &mut self,
                batch: &[&[Tensor]],
                observer: &mut dyn LayerObserver,
            ) -> Result<Vec<Vec<Tensor>>> {
                self.interp.invoke_batch_observed(batch, observer)
            }

            fn last_stats(&self) -> Option<InvokeStats> {
                self.interp.last_stats()
            }
        }
    };
}

/// The known-correct baseline: reference kernels, canonical arithmetic.
#[derive(Debug)]
pub struct ReferenceBackend<'g> {
    interp: Interpreter<'g>,
}

impl<'g> ReferenceBackend<'g> {
    /// Prepares a reference backend for `graph`.
    ///
    /// # Errors
    ///
    /// Propagates graph-validation errors.
    pub fn new(graph: &'g Graph) -> Result<Self> {
        Self::with_bugs(graph, KernelBugs::none())
    }

    /// A reference backend with injected defects (op-spec bugs like the
    /// quantized average-pool defect fire in *both* resolvers).
    ///
    /// # Errors
    ///
    /// Propagates graph-validation errors.
    pub fn with_bugs(graph: &'g Graph, bugs: KernelBugs) -> Result<Self> {
        Ok(ReferenceBackend {
            interp: Interpreter::new(
                graph,
                InterpreterOptions {
                    flavor: KernelFlavor::Reference,
                    bugs,
                    numerics: None,
                },
            )?,
        })
    }
}

delegate_backend!(ReferenceBackend, "reference");

/// The production runtime: optimized kernels (im2col + blocked-dot GEMM).
#[derive(Debug)]
pub struct OptimizedBackend<'g> {
    interp: Interpreter<'g>,
}

impl<'g> OptimizedBackend<'g> {
    /// Prepares an optimized backend for `graph`.
    ///
    /// # Errors
    ///
    /// Propagates graph-validation errors.
    pub fn new(graph: &'g Graph) -> Result<Self> {
        Self::with_bugs(graph, KernelBugs::none())
    }

    /// An optimized backend with injected defects active.
    ///
    /// # Errors
    ///
    /// Propagates graph-validation errors.
    pub fn with_bugs(graph: &'g Graph, bugs: KernelBugs) -> Result<Self> {
        Ok(OptimizedBackend {
            interp: Interpreter::new(
                graph,
                InterpreterOptions {
                    flavor: KernelFlavor::Optimized,
                    bugs,
                    numerics: None,
                },
            )?,
        })
    }
}

delegate_backend!(OptimizedBackend, "optimized");

/// The raw-speed runtime: SIMD-tiled GEMM kernels with one-time runtime
/// feature dispatch (`kernels::gemm`). Float GEMM outputs differ from the
/// scalar flavors only by benign accumulation-order drift; quantized
/// outputs are bitwise-identical to the reference kernels.
#[derive(Debug)]
pub struct SimdBackend<'g> {
    interp: Interpreter<'g>,
}

impl<'g> SimdBackend<'g> {
    /// Prepares a SIMD backend for `graph`.
    ///
    /// # Errors
    ///
    /// Propagates graph-validation errors.
    pub fn new(graph: &'g Graph) -> Result<Self> {
        Self::with_bugs(graph, KernelBugs::none())
    }

    /// A SIMD backend with injected defects active (this is where the
    /// test-only K-tail tile-boundary defect lives).
    ///
    /// # Errors
    ///
    /// Propagates graph-validation errors.
    pub fn with_bugs(graph: &'g Graph, bugs: KernelBugs) -> Result<Self> {
        Ok(SimdBackend {
            interp: Interpreter::new(
                graph,
                InterpreterOptions {
                    flavor: KernelFlavor::Simd,
                    bugs,
                    numerics: None,
                },
            )?,
        })
    }
}

delegate_backend!(SimdBackend, "simd");

/// An emulated foreign edge runtime: the interpreter's kernels with the
/// numeric deviations of [`EdgeNumerics`] applied — the "suspect pipeline"
/// side of a cross-runtime differential run when no real second runtime is
/// available.
#[derive(Debug)]
pub struct EdgeEmulatorBackend<'g> {
    interp: Interpreter<'g>,
}

impl<'g> EdgeEmulatorBackend<'g> {
    /// Prepares an emulator backend with the given numerics.
    ///
    /// # Errors
    ///
    /// Propagates graph-validation errors.
    pub fn new(graph: &'g Graph, numerics: EdgeNumerics) -> Result<Self> {
        Self::with_bugs(graph, numerics, KernelBugs::none())
    }

    /// An emulator backend with injected defects active on top of the
    /// emulated numerics.
    ///
    /// # Errors
    ///
    /// Propagates graph-validation errors.
    pub fn with_bugs(graph: &'g Graph, numerics: EdgeNumerics, bugs: KernelBugs) -> Result<Self> {
        Self::with_flavor(graph, numerics, bugs, KernelFlavor::Reference)
    }

    /// An emulator backend with an explicit structural kernel flavor.
    ///
    /// Emulated numerics fully specify the GEMM-family float arithmetic,
    /// but the flavor still selects the kernel family for the arms
    /// emulation does not replace — in particular it gates the optimized
    /// quantized-depthwise defect of [`KernelBugs`]. Pipeline-derived specs
    /// preserve it so bisection re-executes the op under the *same* engine
    /// the replay ran.
    ///
    /// # Errors
    ///
    /// Propagates graph-validation errors.
    pub fn with_flavor(
        graph: &'g Graph,
        numerics: EdgeNumerics,
        bugs: KernelBugs,
        flavor: KernelFlavor,
    ) -> Result<Self> {
        Ok(EdgeEmulatorBackend {
            interp: Interpreter::new(
                graph,
                InterpreterOptions {
                    flavor,
                    bugs,
                    numerics: Some(numerics),
                },
            )?,
        })
    }

    /// The emulated numerics configuration.
    pub fn numerics(&self) -> EdgeNumerics {
        self.interp
            .options()
            .numerics
            .expect("emulator backends always carry numerics")
    }
}

delegate_backend!(EdgeEmulatorBackend, "edge-emulator");

/// A copyable, serializable description of a backend: which runtime to
/// build, with which injected defects and (for the emulator) which numerics.
/// The sharded differential debugger sends specs across worker threads and
/// builds one backend instance per worker.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BackendSpec {
    /// [`ReferenceBackend`].
    Reference {
        /// Injected defects (op-spec bugs fire here too).
        bugs: KernelBugs,
    },
    /// [`OptimizedBackend`].
    Optimized {
        /// Injected defects.
        bugs: KernelBugs,
    },
    /// [`SimdBackend`].
    Simd {
        /// Injected defects.
        bugs: KernelBugs,
    },
    /// [`EdgeEmulatorBackend`].
    EdgeEmulator {
        /// Emulated numerics.
        numerics: EdgeNumerics,
        /// Injected defects.
        bugs: KernelBugs,
        /// Structural kernel flavor for the arms emulation does not replace
        /// (gates the optimized-only quantized-depthwise defect).
        flavor: KernelFlavor,
    },
}

impl BackendSpec {
    /// The clean reference baseline.
    pub fn reference() -> Self {
        BackendSpec::Reference {
            bugs: KernelBugs::none(),
        }
    }

    /// The clean production runtime.
    pub fn optimized() -> Self {
        BackendSpec::Optimized {
            bugs: KernelBugs::none(),
        }
    }

    /// The clean SIMD runtime.
    pub fn simd() -> Self {
        BackendSpec::Simd {
            bugs: KernelBugs::none(),
        }
    }

    /// A clean emulator with the given numerics (reference kernel
    /// structure).
    pub fn emulator(numerics: EdgeNumerics) -> Self {
        BackendSpec::EdgeEmulator {
            numerics,
            bugs: KernelBugs::none(),
            flavor: KernelFlavor::Reference,
        }
    }

    /// The spec equivalent of raw interpreter options (how pipeline-level
    /// callers, which carry [`InterpreterOptions`], enter the backend
    /// world). Lossless: `spec.options()` round-trips.
    pub fn of_options(options: InterpreterOptions) -> Self {
        match (options.numerics, options.flavor) {
            (Some(numerics), flavor) => BackendSpec::EdgeEmulator {
                numerics,
                bugs: options.bugs,
                flavor,
            },
            (None, KernelFlavor::Reference) => BackendSpec::Reference { bugs: options.bugs },
            (None, KernelFlavor::Optimized) => BackendSpec::Optimized { bugs: options.bugs },
            (None, KernelFlavor::Simd) => BackendSpec::Simd { bugs: options.bugs },
        }
    }

    /// The interpreter options this spec resolves to.
    pub fn options(&self) -> InterpreterOptions {
        match *self {
            BackendSpec::Reference { bugs } => InterpreterOptions {
                flavor: KernelFlavor::Reference,
                bugs,
                numerics: None,
            },
            BackendSpec::Optimized { bugs } => InterpreterOptions {
                flavor: KernelFlavor::Optimized,
                bugs,
                numerics: None,
            },
            BackendSpec::Simd { bugs } => InterpreterOptions {
                flavor: KernelFlavor::Simd,
                bugs,
                numerics: None,
            },
            BackendSpec::EdgeEmulator {
                numerics,
                bugs,
                flavor,
            } => InterpreterOptions {
                flavor,
                bugs,
                numerics: Some(numerics),
            },
        }
    }

    /// Display name of the backend this spec builds.
    pub fn label(&self) -> &'static str {
        match self {
            BackendSpec::Reference { .. } => "reference",
            BackendSpec::Optimized { .. } => "optimized",
            BackendSpec::Simd { .. } => "simd",
            BackendSpec::EdgeEmulator { .. } => "edge-emulator",
        }
    }

    /// Builds the backend for `graph`.
    ///
    /// # Errors
    ///
    /// Propagates graph-validation errors.
    pub fn build<'g>(&self, graph: &'g Graph) -> Result<BoxedBackend<'g>> {
        Ok(match *self {
            BackendSpec::Reference { bugs } => Box::new(ReferenceBackend::with_bugs(graph, bugs)?),
            BackendSpec::Optimized { bugs } => Box::new(OptimizedBackend::with_bugs(graph, bugs)?),
            BackendSpec::Simd { bugs } => Box::new(SimdBackend::with_bugs(graph, bugs)?),
            BackendSpec::EdgeEmulator {
                numerics,
                bugs,
                flavor,
            } => Box::new(EdgeEmulatorBackend::with_flavor(
                graph, numerics, bugs, flavor,
            )?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::ops::{Activation, Padding};
    use crate::resolver::AccumOrder;
    use mlexray_tensor::Shape;

    fn graph() -> Graph {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", Shape::nhwc(1, 4, 4, 2));
        let w = b.constant(
            "w",
            Tensor::from_f32(
                Shape::new(vec![2, 3, 3, 2]),
                (0..36).map(|i| (i as f32 * 0.37).sin() * 0.4).collect(),
            )
            .unwrap(),
        );
        let y = b
            .conv2d("conv", x, w, None, 1, Padding::Same, Activation::Relu)
            .unwrap();
        b.output(y);
        b.finish().unwrap()
    }

    fn input() -> Tensor {
        Tensor::from_f32(
            Shape::nhwc(1, 4, 4, 2),
            (0..32).map(|i| (i as f32 * 0.61).cos()).collect(),
        )
        .unwrap()
    }

    #[test]
    fn specs_build_their_backends() {
        let g = graph();
        for (spec, label) in [
            (BackendSpec::reference(), "reference"),
            (BackendSpec::optimized(), "optimized"),
            (BackendSpec::simd(), "simd"),
            (
                BackendSpec::emulator(EdgeNumerics::faithful()),
                "edge-emulator",
            ),
        ] {
            let mut backend = spec.build(&g).unwrap();
            assert_eq!(backend.label(), label);
            assert_eq!(spec.label(), label);
            let out = backend.invoke(&[input()]).unwrap();
            assert_eq!(out.len(), 1);
            assert!(backend.last_stats().is_some());
            assert_eq!(BackendSpec::of_options(spec.options()), spec);
        }
    }

    /// Pipeline-derived specs must not lose the kernel flavor under
    /// emulation: the optimized-only quantized-depthwise defect is gated on
    /// it, so dropping it would make bisection re-execute a bugged op in a
    /// defect-free engine and misclassify it as propagated.
    #[test]
    fn of_options_preserves_emulator_flavor() {
        let options = InterpreterOptions {
            flavor: KernelFlavor::Optimized,
            bugs: KernelBugs::paper_2021(),
            numerics: Some(EdgeNumerics::faithful()),
        };
        let spec = BackendSpec::of_options(options);
        assert_eq!(spec.options(), options, "of_options must round-trip");
        assert_eq!(spec.label(), "edge-emulator");
    }

    #[test]
    fn faithful_emulator_matches_reference_bitwise() {
        let g = graph();
        let x = input();
        let a = BackendSpec::reference()
            .build(&g)
            .unwrap()
            .invoke(std::slice::from_ref(&x))
            .unwrap();
        let b = BackendSpec::emulator(EdgeNumerics::faithful())
            .build(&g)
            .unwrap()
            .invoke(std::slice::from_ref(&x))
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn emulated_batch_matches_sequential() {
        let g = graph();
        let numerics = EdgeNumerics {
            accumulation: AccumOrder::Lanes8,
            fused_multiply_add: true,
            ..EdgeNumerics::faithful()
        };
        let mut backend = BackendSpec::emulator(numerics).build(&g).unwrap();
        let samples: Vec<Vec<Tensor>> = (0..3)
            .map(|i| {
                vec![Tensor::from_f32(
                    Shape::nhwc(1, 4, 4, 2),
                    (0..32)
                        .map(|j| ((i * 32 + j) as f32 * 0.23).sin())
                        .collect(),
                )
                .unwrap()]
            })
            .collect();
        let sequential: Vec<Vec<Tensor>> =
            samples.iter().map(|s| backend.invoke(s).unwrap()).collect();
        let refs: Vec<&[Tensor]> = samples.iter().map(Vec::as_slice).collect();
        let batched = backend.invoke_batch(&refs).unwrap();
        assert_eq!(batched, sequential);
    }
}
