//! Backend specs: the multi-runtime surface of §4.4.
//!
//! ML-EXray's central debugging technique replays the same frames through a
//! known-correct runtime and a suspect runtime, then compares per-layer
//! outputs. Here "runtime" is one engine — the [`Interpreter`] — whose
//! kernels are resolved once, at build, from its [`InterpreterOptions`]
//! (TFLite's `OpResolver` idea). A [`BackendSpec`] names one of the four
//! kernel configurations that engine runs under:
//!
//! * [`BackendSpec::Reference`] — the debugging-grade reference kernels
//!   (TFLite's `RefOpResolver`): naive loops, canonical summation order.
//! * [`BackendSpec::Optimized`] — the production kernels (`OpResolver`):
//!   blocked accumulation, whole-batch im2col GEMM, and the surface the
//!   injected [`KernelBugs`] live in.
//! * [`BackendSpec::Simd`] — the raw-speed kernels (`SimdOpResolver`): the
//!   runtime-feature-dispatched virtual-SIMD GEMM of `kernels::gemm`
//!   (AVX2/FMA on x86_64, a bitwise-identical scalar mirror elsewhere)
//!   behind the im2col conv, depthwise and fully-connected paths, with a
//!   true i8×i8→i32 quantized batched GEMM. Float GEMM outputs differ from
//!   the scalar flavors only by benign accumulation-order drift; quantized
//!   outputs are bitwise-identical to the reference kernels.
//! * [`BackendSpec::EdgeEmulator`] — reproduces a *different* edge
//!   runtime's numerics ([`EdgeNumerics`]): configurable GEMM accumulation
//!   order, fused multiply-add contraction, flush-to-zero denormals, and
//!   reduced-precision requantization — the "suspect pipeline" side of a
//!   cross-runtime differential run when no real second runtime is
//!   available. Device profiles in `mlexray-edgesim` map real targets to
//!   these knobs.
//!
//! The spec is the serializable, copyable description — what crosses thread
//! boundaries in the sharded differential debugger, where every worker
//! builds its own interpreter from it. All four guarantee per-frame results
//! independent of batching (the `batch_equivalence` property suite pins
//! this for the engine), so callers may freely micro-batch.

use serde::{Deserialize, Serialize};

use crate::graph::Graph;
use crate::interpreter::{Interpreter, InterpreterOptions};
use crate::resolver::{EdgeNumerics, KernelBugs, KernelFlavor};
use crate::Result;

/// What [`BackendSpec::build`] hands out: the interpreter itself. The alias
/// survives only because `benchmark/` names the type.
pub type BoxedBackend<'g> = Interpreter<'g>;

/// A copyable, serializable description of a backend: which kernels the
/// interpreter resolves, with which injected defects and (for the emulator)
/// which numerics. The sharded differential debugger sends specs across
/// worker threads and builds one interpreter per worker.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BackendSpec {
    /// The known-correct baseline: reference kernels, canonical arithmetic.
    Reference {
        /// Injected defects (op-spec bugs like the quantized average-pool
        /// defect fire in *both* scalar resolvers).
        bugs: KernelBugs,
    },
    /// The production runtime: optimized kernels (im2col + blocked-dot
    /// GEMM).
    Optimized {
        /// Injected defects.
        bugs: KernelBugs,
    },
    /// The raw-speed runtime: SIMD-tiled GEMM kernels with one-time runtime
    /// feature dispatch.
    Simd {
        /// Injected defects (this is where the test-only K-tail
        /// tile-boundary defect lives).
        bugs: KernelBugs,
    },
    /// An emulated foreign edge runtime: the interpreter's kernels with the
    /// numeric deviations of [`EdgeNumerics`] applied.
    EdgeEmulator {
        /// Emulated numerics.
        numerics: EdgeNumerics,
        /// Injected defects, active on top of the emulated numerics.
        bugs: KernelBugs,
        /// Structural kernel flavor. Emulated numerics fully specify the
        /// GEMM-family float arithmetic, but the flavor still selects the
        /// kernel family for the arms emulation does not replace — in
        /// particular it gates the optimized-only quantized-depthwise
        /// defect of [`KernelBugs`]. Pipeline-derived specs preserve it so
        /// bisection re-executes the op under the *same* engine the replay
        /// ran.
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

    /// Builds the interpreter for `graph` under this spec's options.
    ///
    /// # Errors
    ///
    /// Propagates graph-validation errors.
    pub fn build<'g>(&self, graph: &'g Graph) -> Result<Interpreter<'g>> {
        Interpreter::new(graph, self.options())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::ops::{Activation, Padding};
    use crate::resolver::AccumOrder;
    use mlexray_tensor::{Shape, Tensor};

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
