//! Backend specs: the multi-runtime surface of §4.4.
//!
//! ML-EXray's central debugging technique replays the same frames through a
//! known-correct runtime and a suspect runtime, then compares per-layer
//! outputs. Here "runtime" is one engine — the [`Interpreter`] — whose
//! kernels are resolved once, at build, from its [`BackendSpec`] (TFLite's
//! `OpResolver` idea). A spec is one struct — kernel flavor, injected
//! defects, optional emulated numerics — and its four constructors name the
//! four configurations that engine runs under:
//!
//! * [`BackendSpec::reference`] — the debugging-grade reference kernels
//!   (TFLite's `RefOpResolver`): naive loops, canonical summation order.
//! * [`BackendSpec::optimized`] — the production kernels (`OpResolver`):
//!   blocked accumulation, whole-batch im2col GEMM, and the surface the
//!   injected [`KernelBugs`] live in.
//! * [`BackendSpec::simd`] — the raw-speed kernels (`SimdOpResolver`): the
//!   runtime-feature-dispatched virtual-SIMD GEMM of `kernels::gemm`
//!   (AVX2/FMA on x86_64, a bitwise-identical scalar mirror elsewhere)
//!   behind the im2col conv, depthwise and fully-connected paths, with a
//!   true i8×i8→i32 quantized batched GEMM. Float GEMM outputs differ from
//!   the scalar flavors only by benign accumulation-order drift; quantized
//!   outputs are bitwise-identical to the reference kernels.
//! * [`BackendSpec::emulator`] — reproduces a *different* edge runtime's
//!   numerics ([`EdgeNumerics`]): configurable GEMM accumulation order,
//!   fused multiply-add contraction, flush-to-zero denormals, and
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
use crate::interpreter::Interpreter;
use crate::resolver::{EdgeNumerics, KernelBugs, KernelFlavor};
use crate::Result;

/// What [`BackendSpec::build`] hands out: the interpreter itself. The alias
/// survives only because `benchmark/` names the type.
pub type BoxedBackend<'g> = Interpreter<'g>;

/// A copyable, serializable description of a backend: which kernels the
/// interpreter resolves, with which injected defects and (for the emulator)
/// which numerics. The sharded differential debugger sends specs across
/// worker threads and builds one interpreter per worker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct BackendSpec {
    /// Kernel family (TFLite `OpResolver` vs `RefOpResolver`). Emulated
    /// numerics fully specify the GEMM-family float arithmetic, but the
    /// flavor still selects the kernel family for the arms emulation does
    /// not replace — in particular it gates the optimized-only
    /// quantized-depthwise defect of [`KernelBugs`].
    pub flavor: KernelFlavor,
    /// Injected kernel defects (off by default). Op-spec bugs like the
    /// quantized average-pool defect fire in *both* scalar flavors; the
    /// test-only K-tail tile-boundary defect lives in the SIMD flavor.
    pub bugs: KernelBugs,
    /// Emulated edge-runtime numerics. `None` (the default) runs the
    /// flavor's native arithmetic; `Some` routes GEMM-family float kernels
    /// through the emulated accumulator, applies the configured
    /// requantization precision to quantized kernels, and optionally flushes
    /// subnormal outputs to zero after every node.
    pub numerics: Option<EdgeNumerics>,
}

impl BackendSpec {
    /// The known-correct baseline: reference kernels, no bugs.
    pub fn reference() -> Self {
        BackendSpec {
            flavor: KernelFlavor::Reference,
            ..Self::default()
        }
    }

    /// The production runtime: optimized kernels (im2col + blocked-dot
    /// GEMM), no bugs. This is the `Default`.
    pub fn optimized() -> Self {
        Self::default()
    }

    /// The raw-speed runtime: SIMD-tiled GEMM kernels with one-time runtime
    /// feature dispatch, no bugs.
    pub fn simd() -> Self {
        BackendSpec {
            flavor: KernelFlavor::Simd,
            ..Self::default()
        }
    }

    /// An emulated foreign edge runtime: the given numerics over reference
    /// kernel structure, no bugs.
    pub fn emulator(numerics: EdgeNumerics) -> Self {
        BackendSpec {
            numerics: Some(numerics),
            ..Self::reference()
        }
    }

    /// This spec with `bugs` injected (on top of any emulated numerics).
    pub fn with_bugs(self, bugs: KernelBugs) -> Self {
        BackendSpec { bugs, ..self }
    }

    /// Display name of the backend this spec builds.
    pub fn label(&self) -> &'static str {
        match (self.numerics, self.flavor) {
            (Some(_), _) => "edge-emulator",
            (None, KernelFlavor::Reference) => "reference",
            (None, KernelFlavor::Optimized) => "optimized",
            (None, KernelFlavor::Simd) => "simd",
        }
    }

    /// Builds the interpreter for `graph` under this spec.
    ///
    /// # Errors
    ///
    /// Propagates graph-validation errors.
    pub fn build<'g>(&self, graph: &'g Graph) -> Result<Interpreter<'g>> {
        Interpreter::new(graph, *self)
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
            assert_eq!(backend.spec(), spec);
        }
    }

    /// An emulated spec keeps the kernel flavor it was given: the
    /// optimized-only quantized-depthwise defect is gated on it, so dropping
    /// it would make bisection re-execute a bugged op in a defect-free
    /// engine and misclassify it as propagated.
    #[test]
    fn emulated_spec_preserves_flavor() {
        let spec = BackendSpec {
            flavor: KernelFlavor::Optimized,
            bugs: KernelBugs::paper_2021(),
            numerics: Some(EdgeNumerics::faithful()),
        };
        let g = graph();
        assert_eq!(spec.build(&g).unwrap().spec(), spec);
        assert_eq!(spec.label(), "edge-emulator");
    }

    #[test]
    fn spec_says_what_it_builds() {
        for (flavor, label) in [
            (KernelFlavor::Reference, "reference"),
            (KernelFlavor::Optimized, "optimized"),
            (KernelFlavor::Simd, "simd"),
        ] {
            let native = BackendSpec {
                flavor,
                ..BackendSpec::default()
            };
            assert_eq!(native.label(), label);
            let emulated = BackendSpec {
                numerics: Some(EdgeNumerics::faithful()),
                ..native
            };
            assert_eq!(emulated.label(), "edge-emulator");

            let bugged = emulated.with_bugs(KernelBugs::paper_2021());
            assert_eq!(
                bugged,
                BackendSpec {
                    bugs: KernelBugs::paper_2021(),
                    ..emulated
                }
            );
        }
        assert_eq!(BackendSpec::default(), BackendSpec::optimized());
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
