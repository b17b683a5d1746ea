//! Kernel implementations, both float and quantized, for every kernel
//! flavor.
//!
//! The dispatch rule mirrors TFLite: `(op, dtype, flavor)` selects an
//! implementation, and — as with a TFLite `OpResolver` — every choice the
//! [`BackendSpec`] makes is resolved **once**, when the interpreter is built
//! ([`Kernels`]: the float family, the requantization precision, the
//! flush-to-zero knob and the two injected quantized defects), not per node;
//! no kernel reads the flavor, the numerics or the [`KernelBugs`]. Each float
//! GEMM-family op (`Conv2d`, `FullyConnected`) has one implementation per
//! summation tree:
//!
//! * the **reference** kernels (`conv::conv2d_f32`, `fc::fc_f32`), the
//!   oracle: one sequential accumulator per output value, seeded with the
//!   bias. What is sequential is each value's *sum*, not the loop nest —
//!   `conv2d_f32` advances the independent sums of eight output channels of
//!   a group of adjacent output cells (six in the AVX2+FMA build, four in
//!   the baseline) side by side over weight panels the interpreter packs
//!   once (`pack_weight_panels`), each weight loaded once for the group;
//!   grouped cells have the same window runs, so each sum keeps its seed,
//!   term order and rounding and no bit changes. The one-sum-at-a-time
//!   loops it and the reference depthwise replaced live on in `conv`'s
//!   tests as the oracle's oracle. The edge emulator *is* these kernels:
//!   each reference walk takes its sum's arithmetic as a [`Chain`] type,
//!   and the emulator's [`EdgeNumerics`] pick another instance of the same
//!   walk;
//! * the **optimized** flavor's blocked-4 cell ([`KernelFlavor::Optimized`]:
//!   four striped partial sums, `(s0 + s1) + (s2 + s3) + rest + bias`),
//!   run over the cells' windows — read in place from a zero-bordered copy
//!   of the input through tap offsets the kernel writes from its own
//!   window geometry — against the *same* packed panels, a panel's worth
//!   of cells side by side; the interpreter packs the constant `Conv2d` and
//!   `FullyConnected` weights of this flavor too;
//! * the **SIMD** flavor's `Lanes8` tiles ([`KernelFlavor::Simd`]: the
//!   8-lane virtual-SIMD dot) over the row-major weights — or, in the
//!   AVX-512 build, where a `Conv2d`'s reduction is at most
//!   [`gemm::NARROW_K`] long, over 16-channel panels the interpreter packs
//!   once — their windows read in place as the optimized flavor reads
//!   them, on every engine.
//!
//! The last two are the two chain rules of one tile driver ([`gemm`]'s
//! `float_gemm`). They reassociate the float sum — the benign source of the
//! small checkpoint-vs-mobile drift in Fig. 5 — and all three run the same
//! code at every batch size, so `invoke_batch` is bitwise-identical to
//! sequential `invoke`s by construction.
//!
//! Float `DepthwiseConv2d` has one native kernel, shared by all three
//! flavors (`conv::dwconv_f32_channels`: every channel is its own sequential
//! sum, so there is nothing to reassociate). It walks each output row in
//! groups of adjacent cells whose windows have every column in bounds
//! (three, then two in the AVX2+FMA build, two in the baseline; any other
//! cell alone), the group's channel sums held in registers in 16- and
//! 8-wide blocks and then one by one, sharing each weight load, the nine
//! taps of an unclipped 3×3 window unrolled. Grouping changes which sums
//! advance together, not any sum's taps or their order. Quantized
//! `DepthwiseConv2d` runs the same walk, one cell at a time, over exact
//! `i32` sums (`conv::dwconv_q`); the optimized flavor's wrapping-`i16`
//! defect is a second instantiation of it, chosen by [`Kernels::resolve`],
//! not a branch in its loop, and the float kernel runs the emulator's
//! chains. The injected defects of [`KernelBugs`] live in the quantized
//! depthwise/pool kernels and the `Lanes8` K-tail.
//!
//! Quantized `Conv2d` and `FullyConnected` have one kernel each, shared by
//! every flavor (`gemm::conv2d_q`, `gemm::fc_q`): one exact `i32` dot per
//! output value — a window read in place as the runs of a copy of the
//! input whose border holds the input zero point — requantized through
//! the same [`Requant`] as the int8 depthwise. Integer sums are the same in any order, so the scalar loops
//! the reference and optimized flavors used to run — kept verbatim in
//! `gemm`'s tests as the oracle — return the same bits.
//!
//! The native kernels — reference and optimized `Conv2d` / FC, the int8
//! `Conv2d` / FC, the shared float and the int8 depthwise, the float `Add`,
//! `Mul`, `Act`, `BatchNorm` and `Mean` — run at the host's vector width:
//! each body is written once and compiled twice (`native_kernel!`), for the
//! x86-64 baseline and for AVX2+FMA, and the interpreter's engine
//! ([`gemm::active_engine`]) picks the build. Both builds compute the same
//! bits (Rust never fuses a multiply and an add on its own: the unfused
//! kernels multiply, round, add in both), so the engine contract of the
//! [`gemm`] module covers the native flavors as it covers `Lanes8`, whose
//! fused tile runs inlined in the AVX2+FMA build and as its scalar mirror
//! in the baseline — and the emulator's fused chains, whose exact
//! `f32::mul_add` is one `vfmadd` in the one and a libm call in the other.
//! The Simd GEMM alone has a third build, under AVX-512F as well
//! (`native_kernel!`'s opt-in `fn name[build + avx512]` form), in which
//! its tile holds four rows × eight channels in `zmm` registers, or, on a
//! narrow reduction, three rows × sixteen channels of packed panels; the
//! engine ladder `Avx512` → `Avx2Fma` → `Scalar` runs every other kernel's
//! AVX2+FMA build on an AVX-512 host. `native_kernel!` is the only way a
//! kernel reaches AVX2 or AVX-512: no kernel has a `#[target_feature]` of
//! its own, and the CI lint leg fails on one, and on an AVX-512 intrinsic
//! or a CPU feature probe outside `gemm.rs`.
//!
//! Every kernel writes into an arena-provided output slot (`&mut Tensor`,
//! preallocated from the interpreter's `MemoryPlan`, which plans runtime
//! tensors only). What a kernel keeps besides — the zero-bordered input a
//! float `Conv2d` reads its windows from, its tap offsets, the int8
//! `Conv2d`'s input bordered with the zero point, the int8 kernels'
//! per-channel requant multipliers, BatchNorm's denominators, a runtime
//! weight operand packed as panels — lives in the interpreter's one
//! [`Scratch`], and this module is its one home: each buffer starts empty
//! and is grown by the kernel that needs it, to the length its operands
//! and window geometry give, through one fallible rule ([`room`]), so a
//! buffer the allocator refuses is a typed refusal, never an abort; it
//! then keeps the capacity of the largest it has held.
//! The reference and optimized flavors and the emulator hold a second,
//! panel-ordered copy of their constant float weights (≈ 8 KB for
//! `mini_mobilenet_v2`), packed through the same rule when the interpreter
//! is built, and so does the SIMD flavor on an AVX-512 engine for its
//! narrow `Conv2d` weights (≈ 0.5 MB for `mobilenet_v2@48`); a weight
//! operand that is a runtime tensor is packed on each invoke into the
//! scratch. So steady-state float execution, and quantized
//! `Conv2d`, `DepthwiseConv2d`, `FullyConnected` and `Act`, under every
//! flavor and the emulator make no heap allocation per node — measured,
//! not self-reported: `tests/alloc_steady_state.rs` counts calls into the
//! global allocator and holds a warmed `invoke` to the same count on 7
//! nodes as on 62, float and quantized. The one per-node allocation left:
//! the interpreter spills the operand list of a node with more than five
//! inputs (only `Concat` can have them).
//!
//! The element-wise float kernels (`Add`, `Mul`, `Act`, `BatchNorm`) have
//! no flavor: every backend runs the same row-walking loops — the broadcast
//! is resolved by walking the lhs in rhs-sized rows, never by a `%` or `/`
//! per element, and an activation runs as one pass over each written row.
//! Each is one IEEE operation per element, which rounds the same at any
//! vector width, so their two builds compute the same bits.

/// Defines a native kernel whose body is written once and compiled
/// twice: for the x86-64 baseline (SSE2, four lanes) and once more under
/// `#[target_feature(enable = "avx2", enable = "fma")]` (eight lanes). The
/// defined function takes the `gemm::Engine` to run on before the body's
/// own arguments; `Avx2Fma` and `Avx512` run the AVX2+FMA build, and an
/// `Engine` holds either only where AVX2 and FMA were detected.
///
/// Enabling `fma` moves no bit: Rust never contracts `a + x * w` into a
/// fused multiply-add, so an unfused body still rounds every product
/// before adding it, exactly as the baseline build does. It is there for
/// the one fused body, the Simd GEMM, whose `vfmadd` intrinsics inline into
/// this build. `fn name[build](..)` names a `gemm::SimdEngine` argument of
/// the body that is the build it runs in — `Avx2Fma` in the AVX2+FMA one,
/// `Scalar` in the baseline — a constant in each, so a `match` on it folds
/// away. `fn name<C: Chain>(..)` makes every build generic over one type.
///
/// `fn name[build + avx512](..)` (or `fn name<X: Bound>[build + avx512]`)
/// opts into a third build, under `#[target_feature(enable = "avx512f",
/// enable = "avx2", enable = "fma")]`, which an `Avx512` engine runs and in
/// which `build` is `Avx512`. Only the Simd GEMM (`gemm::lanes8_gemm`,
/// generic over how it reads its rows) opts in: its `zmm` tiles are
/// written for that build. Every other kernel keeps two builds, so a body
/// that does not name the third never meets `build == Avx512`.
macro_rules! native_kernel {
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident$(<$g:ident: $b:path>)?($($arg:ident: $ty:ty),* $(,)?) $body:block
    ) => {
        native_kernel! {
            $(#[$attr])*
            $vis fn $name$(<$g: $b>)?[_]($($arg: $ty),*) $body
        }
    };
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident$(<$g:ident: $b:path>)?[$build:tt]($($arg:ident: $ty:ty),* $(,)?)
            $body:block
    ) => {
        native_kernel! {
            @builds avx2_fma {}
            $(#[$attr])*
            $vis fn $name$(<$g: $b>)?[$build]($($arg: $ty),*) $body
        }
    };
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident$(<$g:ident: $b:path>)?[$build:tt + avx512]($($arg:ident: $ty:ty),* $(,)?)
            $body:block
    ) => {
        native_kernel! {
            @builds avx512 {
                #[cfg(target_arch = "x86_64")]
                #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
                fn avx512$(<$g: $b>)?($($arg: $ty),*) {
                    body$(::<$g>)?($crate::kernels::gemm::SimdEngine::Avx512, $($arg),*)
                }
            }
            $(#[$attr])*
            $vis fn $name$(<$g: $b>)?[$build]($($arg: $ty),*) $body
        }
    };
    // `$wide` is the build an `Avx512` engine runs: the AVX2+FMA one, or
    // `avx512`, one of the `$extra` items.
    (
        @builds $wide:ident { $($extra:item)* }
        $(#[$attr:meta])*
        $vis:vis fn $name:ident$(<$g:ident: $b:path>)?[$build:tt]($($arg:ident: $ty:ty),*)
            $body:block
    ) => {
        $(#[$attr])*
        #[allow(clippy::too_many_arguments)]
        $vis fn $name$(<$g: $b>)?(engine: $crate::kernels::gemm::Engine, $($arg: $ty),*) {
            #[inline(always)]
            fn body$(<$g: $b>)?($build: $crate::kernels::gemm::SimdEngine, $($arg: $ty),*) $body

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2", enable = "fma")]
            fn avx2_fma$(<$g: $b>)?($($arg: $ty),*) {
                body$(::<$g>)?($crate::kernels::gemm::SimdEngine::Avx2Fma, $($arg),*)
            }

            $($extra)*

            match engine.get() {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: an `Engine` holds `Avx512` only after AVX-512F,
                // AVX2 and FMA were detected on this CPU.
                $crate::kernels::gemm::SimdEngine::Avx512 => unsafe {
                    $wide$(::<$g>)?($($arg),*)
                },
                #[cfg(target_arch = "x86_64")]
                // SAFETY: an `Engine` holds `Avx2Fma` only after AVX2 and
                // FMA were detected on this CPU.
                $crate::kernels::gemm::SimdEngine::Avx2Fma => unsafe {
                    avx2_fma$(::<$g>)?($($arg),*)
                },
                _ => body$(::<$g>)?($crate::kernels::gemm::SimdEngine::Scalar, $($arg),*),
            }
        }
    };
}

/// Runs `$body` with `$chain` bound to the [`Chain`] that `$numerics`'
/// accumulation order and multiply-add name: one `match`, each arm its own
/// monomorphized instance of the body, so no loop reads the numerics.
macro_rules! with_chain {
    ($numerics:expr, $chain:ident => $body:expr) => {{
        use $crate::kernels::{Serial as S, Striped};
        use $crate::resolver::AccumOrder as O;
        let n: $crate::resolver::EdgeNumerics = $numerics;
        with_chain!(@arms (n.accumulation, n.fused_multiply_add), $chain => $body;
            (O::Sequential, false) => S::<false, false>, (O::Sequential, true) => S::<false, true>,
            (O::Reversed, false) => S::<true, false>, (O::Reversed, true) => S::<true, true>,
            (O::Lanes8, false) => Striped::<false>, (O::Lanes8, true) => Striped::<true>)
    }};
    (@arms $on:expr, $chain:ident => $body:expr; $($arm:pat => $ty:expr),+) => {
        match $on { $($arm => { let $chain = $ty; $body })+ }
    };
}

mod conv;
mod elementwise;
mod fc;
pub mod gemm;
mod pool;
mod window;

use mlexray_tensor::{DType, QuantParams, Shape, Tensor, TensorData, TensorError};

pub(crate) use conv::pack_weight_panels;
use conv::QuantDepthwise;

use crate::backend::BackendSpec;
use crate::graph::{Node, TensorDef};
use crate::ops::{Activation, OpKind};
#[cfg(any(test, doc))]
use crate::resolver::AccumOrder;
#[cfg(doc)]
use crate::resolver::KernelBugs;
use crate::resolver::{EdgeNumerics, KernelFlavor, RequantMode};
use crate::{NnError, Result};
use gemm::{Engine, Reduction};

/// Every kernel choice a [`BackendSpec`] makes, resolved once when the
/// interpreter is built — the `OpResolver` choice — so that no node of any
/// invoke reads the flavor, the numerics or the injected defects.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Kernels {
    /// The float GEMM-family kernels.
    pub float: FloatKernels,
    /// Requantization multiplier precision of the quantized kernels.
    pub requant: RequantMode,
    /// Flush subnormal float outputs to zero after every node.
    pub flush_to_zero: bool,
    /// The quantized depthwise kernel: exact, or accumulating in a
    /// wrapping `i16` ([`KernelBugs::optimized_dwconv_i16_accumulator`],
    /// optimized flavor only).
    pub quant_depthwise: QuantDepthwise,
    /// The quantized average pool divides twice
    /// ([`KernelBugs::avgpool_double_division`], every flavor).
    pub avgpool_double_division: bool,
}

impl Kernels {
    pub(crate) fn resolve(spec: &BackendSpec) -> Self {
        let BackendSpec {
            flavor,
            bugs,
            numerics,
        } = *spec;
        let float = match (numerics, flavor) {
            (Some(numerics), _) => FloatKernels::Reference(numerics),
            (None, KernelFlavor::Reference) => FloatKernels::Reference(EdgeNumerics::faithful()),
            (None, KernelFlavor::Optimized) => FloatKernels::Blocked4,
            (None, KernelFlavor::Simd) => FloatKernels::Lanes8 {
                skip_k_tail: bugs.simd_gemm_k_tail_skip,
            },
        };
        Kernels {
            float,
            requant: numerics.map(|n| n.requant).unwrap_or_default(),
            flush_to_zero: numerics.is_some_and(|n| n.flush_to_zero),
            quant_depthwise: if flavor == KernelFlavor::Optimized
                && bugs.optimized_dwconv_i16_accumulator
            {
                QuantDepthwise::WrappingI16
            } else {
                QuantDepthwise::Exact
            },
            avgpool_double_division: bugs.avgpool_double_division,
        }
    }
}

/// Which implementation family the float GEMM-family ops (`Conv2d`,
/// `DepthwiseConv2d`, `FullyConnected`) run: the part of [`Kernels`] that
/// `(flavor, numerics)` decide.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FloatKernels {
    /// Reference kernels: one sum per output value under the numerics'
    /// [`Chain`] — the faithful one, or an edge emulator's (whatever the
    /// flavor).
    Reference(EdgeNumerics),
    /// Blocked-4 cells over packed weight panels, each `Conv2d` window read
    /// in place from a zero-bordered input.
    Blocked4,
    /// 8-lane virtual-SIMD micro-kernel tiles over the row-major weights
    /// (or, on a narrow reduction in the AVX-512 build, over packed
    /// panels), each `Conv2d` window read in place from a zero-bordered
    /// input; `skip_k_tail` injects the K-tail defect.
    Lanes8 { skip_k_tail: bool },
}

impl FloatKernels {
    /// The [`gemm`] chain rule of the Optimized (`Blocked4`, over
    /// [`node_panels`]) or Simd (`Lanes8`, over the panels too where
    /// [`reads_panels`](Self::reads_panels)) kernels over the weights of
    /// `op`, in `engine`'s build.
    fn reduction<'a>(
        self,
        engine: Engine,
        op: &OpKind,
        packed: Option<&'a [f32]>,
        runtime: &'a mut Vec<f32>,
        weights: &'a Tensor,
    ) -> Result<Reduction<'a>> {
        Ok(match self {
            FloatKernels::Lanes8 { skip_k_tail } => Reduction::Lanes8 {
                w: weights.as_f32()?,
                panels: self
                    .reads_panels(engine, op, weights.shape())
                    .then(|| node_panels(self, packed, runtime, weights))
                    .transpose()?,
                skip_k_tail,
            },
            _ => Reduction::Blocked4(node_panels(self, packed, runtime, weights)?),
        })
    }

    /// Whether these kernels, in `engine`'s build, read `op`'s float
    /// weights, shaped `weights`, packed ([`pack`](Self::pack)): the
    /// reference `Conv2d`, the optimized `Conv2d` and `FullyConnected`, and
    /// in the AVX-512 build the Simd `Conv2d` whose reduction is at most
    /// [`gemm::NARROW_K`] long.
    pub(crate) fn reads_panels(self, engine: Engine, op: &OpKind, weights: &Shape) -> bool {
        let conv = matches!(op, OpKind::Conv2d { .. });
        match self {
            FloatKernels::Reference(_) => conv,
            FloatKernels::Blocked4 => conv || matches!(op, OpKind::FullyConnected { .. }),
            FloatKernels::Lanes8 { .. } => {
                let k: usize = weights.dims().iter().skip(1).product();
                conv && engine.get() == gemm::SimdEngine::Avx512 && k <= gemm::NARROW_K
            }
        }
    }

    /// `weights` laid out as these kernels read them where they
    /// [read panels](Self::reads_panels): [`gemm::pack_lanes8_panels`] for
    /// the Simd kernels, [`pack_weight_panels`] for the others.
    pub(crate) fn pack(self, weights: &Tensor, packed: &mut Vec<f32>) -> Result<()> {
        match self {
            FloatKernels::Lanes8 { .. } => gemm::pack_lanes8_panels(weights, packed),
            _ => pack_weight_panels(weights, packed),
        }
    }
}

/// How a float output value of a reference walk (`Conv2d`, the shared
/// depthwise, FC) sums its in-bounds `(x, w)` terms, visited in `(ky, kx,
/// ic)` order (last to first when `REVERSED`), padding skipped: from
/// `seed(bias)`, by `step`, worth `finish` at the end. `Serial<false,
/// false>` is the reference arithmetic, the others the emulator's orders.
pub(crate) trait Chain: Copy {
    type Acc: Copy;
    /// Walk each value's terms last to first.
    const REVERSED: bool = false;

    fn seed(self, bias: f32) -> Self::Acc;
    fn step(self, acc: Self::Acc, x: f32, w: f32) -> Self::Acc;
    fn finish(self, acc: Self::Acc) -> f32;
}

/// One accumulator ([`AccumOrder::Sequential`], or
/// [`AccumOrder::Reversed`] when `BACKWARD`) taking `acc + x · w`, rounded
/// twice or — `FMA` — once, fused (Rust never fuses the split form).
#[derive(Clone, Copy)]
pub(crate) struct Serial<const BACKWARD: bool, const FMA: bool>;

impl<const BACKWARD: bool, const FMA: bool> Chain for Serial<BACKWARD, FMA> {
    type Acc = f32;
    const REVERSED: bool = BACKWARD;

    #[inline(always)]
    fn seed(self, bias: f32) -> f32 {
        bias
    }

    #[inline(always)]
    fn step(self, acc: f32, x: f32, w: f32) -> f32 {
        if FMA {
            x.mul_add(w, acc)
        } else {
            acc + x * w
        }
    }

    #[inline(always)]
    fn finish(self, acc: f32) -> f32 {
        acc
    }
}

/// Eight accumulators striped over the term index, the seed in lane 0
/// ([`AccumOrder::Lanes8`]), folded pairwise at the end: `((l0 + l1) +
/// (l2 + l3)) + ((l4 + l5) + (l6 + l7))`. A sum is its lanes, rotated so the
/// next term's lane is first (no lane index is a variable), and its count.
#[derive(Clone, Copy)]
pub(crate) struct Striped<const FMA: bool>;

impl<const FMA: bool> Chain for Striped<FMA> {
    type Acc = ([f32; 8], usize);

    #[inline(always)]
    fn seed(self, bias: f32) -> ([f32; 8], usize) {
        ([bias, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], 0)
    }

    #[inline(always)]
    fn step(self, (l, n): ([f32; 8], usize), x: f32, w: f32) -> ([f32; 8], usize) {
        let first = Serial::<false, FMA>.step(l[0], x, w);
        ([l[1], l[2], l[3], l[4], l[5], l[6], l[7], first], n + 1)
    }

    #[inline(always)]
    fn finish(self, (mut l, n): ([f32; 8], usize)) -> f32 {
        l.rotate_right(n % 8);
        ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
    }
}

/// Its items first to last, or — when the flag, a chain's `REVERSED` and
/// so a constant in each instance of a walk, is set — last to first.
struct Ordered<I>(bool, I);

impl<I: DoubleEndedIterator> Iterator for Ordered<I> {
    type Item = I::Item;

    #[inline(always)]
    fn next(&mut self) -> Option<I::Item> {
        if self.0 {
            self.1.next_back()
        } else {
            self.1.next()
        }
    }
}

/// The working buffers the kernels keep across nodes and invokes, so that
/// a warmed invoke allocates none: each starts empty and is grown through
/// [`room`] by the kernel that needs it, then keeps the capacity of the
/// largest it has held.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// The zero-bordered input a windowed float `Conv2d` reads its windows
    /// from (`WindowGeom::bordered_len`), or BatchNorm's
    /// per-channel denominators.
    floats: Vec<f32>,
    /// A windowed float `Conv2d`'s tap offsets, from its own geometry.
    taps: Vec<usize>,
    /// The int8 `Conv2d`'s bordered input, its border the input zero point.
    bordered_q: Vec<u8>,
    /// The int8 kernels' per-channel requant multipliers ([`Requant`]).
    multipliers: Vec<f64>,
    /// A weight operand that is a runtime tensor, packed on every invoke as
    /// a kernel that [reads panels](FloatKernels::reads_panels) reads it.
    runtime_panels: Vec<f32>,
}

/// The one way a kernel grows a buffer it keeps: empties `buf` and makes
/// room in it for `len` elements, a no-op once it has held that many. A
/// length the allocator refuses is [`TensorError::AllocationRefused`], its
/// bytes counted as `U8` elements, never an aborted process.
pub(crate) fn room<T>(buf: &mut Vec<T>, len: usize) -> Result<&mut Vec<T>> {
    buf.clear();
    buf.try_reserve_exact(len)
        .map_err(|_| TensorError::AllocationRefused {
            elements: len.saturating_mul(size_of::<T>()),
            dtype: DType::U8,
        })?;
    Ok(buf)
}

/// Per-invoke execution context threaded through the dispatch: the resolved
/// kernels, the engine their native builds run on and the buffers they
/// keep.
pub(crate) struct KernelCtx<'a> {
    pub kernels: Kernels,
    /// Which build of the native kernels runs: `Avx512` the Simd GEMM's
    /// AVX-512 one and every other kernel's AVX2 one, `Avx2Fma` the AVX2
    /// ones, `Scalar` the baseline (same bits).
    pub engine: Engine,
    /// What the kernels keep across nodes and invokes.
    pub scratch: &'a mut Scratch,
    /// The node's weights in [`pack_weight_panels`] order: `Some` for a
    /// node whose kernel [reads panels](FloatKernels::reads_panels) and
    /// whose weights are a graph constant, packed when the interpreter was
    /// built.
    pub panels: Option<&'a [f32]>,
}

/// `weights` as `float` [packs](FloatKernels::pack) them: the copy packed
/// at build, or else packed now into `runtime`.
fn node_panels<'a>(
    float: FloatKernels,
    packed: Option<&'a [f32]>,
    runtime: &'a mut Vec<f32>,
    weights: &Tensor,
) -> Result<&'a [f32]> {
    match packed {
        Some(packed) => Ok(packed),
        None => {
            float.pack(weights, runtime)?;
            Ok(runtime)
        }
    }
}

/// Executes one node given resolved input tensors, the output slot
/// definition (per-frame shape, dtype, quantization) and the preallocated
/// output slot, whose leading dimension is stacked to the invoke's batch
/// size — kernels read the batch from their operands, never from `out_def`.
pub(crate) fn execute_node(
    node: &Node,
    inputs: &[&Tensor],
    out_def: &TensorDef,
    out: &mut Tensor,
    ctx: &mut KernelCtx<'_>,
) -> Result<()> {
    let quantized = inputs
        .first()
        .map(|t| t.dtype() == DType::U8)
        .unwrap_or(false);
    let Kernels {
        float,
        requant,
        flush_to_zero,
        quant_depthwise,
        avgpool_double_division: div_twice,
    } = ctx.kernels;
    let (engine, packed) = (ctx.engine, ctx.panels);
    let Scratch {
        floats,
        taps,
        bordered_q,
        multipliers,
        runtime_panels,
    } = &mut *ctx.scratch;
    let result = match (&node.op, quantized) {
        (
            &OpKind::Conv2d {
                stride,
                padding,
                activation,
            },
            false,
        ) => match float {
            FloatKernels::Reference(numerics) => {
                let panels = node_panels(float, packed, runtime_panels, inputs[1])?;
                conv::conv2d_f32(
                    engine, numerics, inputs, panels, out_def, stride, padding, activation, out,
                )
            }
            FloatKernels::Blocked4 | FloatKernels::Lanes8 { .. } => {
                let reduction =
                    float.reduction(engine, &node.op, packed, runtime_panels, inputs[1])?;
                gemm::conv2d_f32_gemm(
                    engine, reduction, inputs, out_def, stride, padding, activation, floats, taps,
                    out,
                )
            }
        },
        (
            &OpKind::Conv2d {
                stride,
                padding,
                activation,
            },
            true,
        ) => gemm::conv2d_q(
            engine,
            node,
            inputs,
            out_def,
            stride,
            padding,
            activation,
            requant,
            bordered_q,
            multipliers,
            out,
        ),
        (
            &OpKind::DepthwiseConv2d {
                stride,
                padding,
                activation,
            },
            false,
        ) => {
            let numerics = match float {
                FloatKernels::Reference(numerics) => numerics,
                _ => EdgeNumerics::faithful(),
            };
            conv::dwconv_f32_channels(
                engine, numerics, inputs, out_def, stride, padding, activation, out,
            )
        }
        (
            &OpKind::DepthwiseConv2d {
                stride,
                padding,
                activation,
            },
            true,
        ) => conv::dwconv_q(
            quant_depthwise,
            engine,
            node,
            inputs,
            out_def,
            stride,
            padding,
            activation,
            requant,
            multipliers,
            out,
        ),
        (&OpKind::FullyConnected { activation }, false) => match float {
            FloatKernels::Reference(numerics) => {
                fc::fc_f32(engine, numerics, inputs, out_def, activation, out)
            }
            FloatKernels::Blocked4 | FloatKernels::Lanes8 { .. } => {
                let reduction =
                    float.reduction(engine, &node.op, packed, runtime_panels, inputs[1])?;
                gemm::fc_f32_gemm(engine, reduction, inputs, out_def, activation, out)
            }
        },
        (&OpKind::FullyConnected { activation }, true) => gemm::fc_q(
            engine,
            node,
            inputs,
            out_def,
            activation,
            requant,
            multipliers,
            out,
        ),
        (&OpKind::MatMul { transpose_b }, _) => fc::matmul_f32(inputs, out_def, transpose_b, out),
        (
            &OpKind::AveragePool2d {
                pool_h,
                pool_w,
                stride,
                padding,
            },
            false,
        ) => pool::avgpool_f32(inputs, out_def, pool_h, pool_w, stride, padding, out),
        (
            &OpKind::AveragePool2d {
                pool_h,
                pool_w,
                stride,
                padding,
            },
            true,
        ) => pool::avgpool_q(
            node, inputs, out_def, pool_h, pool_w, stride, padding, div_twice, requant, out,
        ),
        (
            &OpKind::MaxPool2d {
                pool_h,
                pool_w,
                stride,
                padding,
            },
            false,
        ) => pool::maxpool_f32(inputs, out_def, pool_h, pool_w, stride, padding, out),
        (
            &OpKind::MaxPool2d {
                pool_h,
                pool_w,
                stride,
                padding,
            },
            true,
        ) => pool::maxpool_q(
            node, inputs, out_def, pool_h, pool_w, stride, padding, requant, out,
        ),
        (OpKind::Mean, false) => pool::mean_f32(engine, inputs, out_def, out),
        (OpKind::Mean, true) => pool::mean_q(node, inputs, out_def, requant, out),
        (&OpKind::Add { activation }, false) => {
            elementwise::add_f32(engine, inputs, out_def, activation, out)
        }
        (&OpKind::Add { activation }, true) => {
            elementwise::add_q(node, inputs, out_def, activation, out)
        }
        (OpKind::Mul, false) => elementwise::mul_f32(engine, inputs, out_def, out),
        (OpKind::Mul, true) => elementwise::mul_q(node, inputs, out_def, out),
        (&OpKind::Concat { axis }, _) => elementwise::concat(node, inputs, out_def, axis, out),
        (
            &OpKind::Pad {
                top,
                bottom,
                left,
                right,
            },
            _,
        ) => elementwise::pad(node, inputs, out_def, top, bottom, left, right, out),
        (OpKind::Softmax, false) => elementwise::softmax_f32(inputs, out_def, out),
        (OpKind::Softmax, true) => Err(unsupported(node, "quantized softmax (insert Dequantize)")),
        (&OpKind::Act(act), false) => elementwise::act_f32(engine, inputs, out_def, act, out),
        (&OpKind::Act(act), true) => elementwise::act_q(node, inputs, out_def, act, out),
        (&OpKind::BatchNorm { epsilon }, false) => {
            elementwise::batch_norm_f32(engine, inputs, out_def, epsilon, floats, out)
        }
        (&OpKind::LayerNorm { epsilon }, false) => {
            elementwise::layer_norm_f32(inputs, out_def, epsilon, out)
        }
        (OpKind::Embedding, _) => elementwise::embedding_f32(inputs, out_def, out),
        (OpKind::Reshape { .. }, _) => elementwise::reshape(inputs, out),
        (OpKind::Quantize, _) => elementwise::quantize(node, inputs, out_def, out),
        (OpKind::Dequantize, _) => elementwise::dequantize(inputs, out_def, out),
        (op, true) => Err(unsupported(node, &format!("quantized {}", op.type_label()))),
    };
    // The emulator's flush-to-zero knob models ARM's default FTZ mode at
    // node granularity: every float output has its subnormals flushed before
    // the next op can read them.
    if result.is_ok() && flush_to_zero {
        if let TensorData::F32(_) = out.data() {
            for v in out.as_f32_mut()? {
                if v.is_subnormal() {
                    *v = 0.0f32.copysign(*v);
                }
            }
        }
    }
    result
}

pub(crate) fn unsupported(node: &Node, what: &str) -> NnError {
    NnError::InvalidOp {
        node: node.name.clone(),
        reason: format!("unsupported: {what}"),
    }
}

/// Extracts a `u8` activation's per-tensor `(scale, zero_point)`, the one
/// place every quantized kernel reads them. A zero point outside `0..=255`
/// is no `u8` value — the bordered input could not pad with it, and the
/// int8 dot would wrap it in `i16` — so it is refused: input quantization
/// arrives from outside the program (a caller's tensor, the wire) unchecked.
pub(crate) fn qparams_of(node: &Node, t: &Tensor) -> Result<(f32, i32)> {
    match t.quant() {
        Some(&QuantParams::PerTensor { scale, zero_point }) if (0..=255).contains(&zero_point) => {
            Ok((scale, zero_point))
        }
        Some(QuantParams::PerTensor { zero_point, .. }) => Err(NnError::InvalidOp {
            node: node.name.clone(),
            reason: format!("activation zero point {zero_point} is outside 0..=255"),
        }),
        Some(QuantParams::PerChannel { .. }) => Err(NnError::InvalidOp {
            node: node.name.clone(),
            reason: "expected per-tensor quantization on activation".into(),
        }),
        None => Err(NnError::InvalidOp {
            node: node.name.clone(),
            reason: "missing quantization parameters".into(),
        }),
    }
}

/// Extracts the output `(scale, zero_point)` from the output slot definition.
pub(crate) fn out_qparams(node: &Node, out_def: &TensorDef) -> Result<(f32, i32)> {
    match out_def.quant() {
        Some(QuantParams::PerTensor { scale, zero_point }) => Ok((*scale, *zero_point)),
        _ => Err(NnError::InvalidOp {
            node: node.name.clone(),
            reason: "missing per-tensor quantization on output".into(),
        }),
    }
}

/// Quantized clamp bounds implied by a fused activation. A tiny positive
/// output scale sends a bound's quantized value to the `i32` range's end
/// (`as` saturates); adding the zero point saturates too.
pub(crate) fn act_qbounds(act: Activation, scale: f32, zp: i32) -> (i32, i32) {
    let (mut lo, mut hi) = (0i32, 255i32);
    if let Some((rlo, rhi)) = act.clamp_bounds() {
        lo = lo.max(zp.saturating_add((rlo / scale).round() as i32));
        if rhi.is_finite() {
            hi = hi.min(zp.saturating_add((rhi / scale).round() as i32));
        }
    }
    (lo, hi.max(lo))
}

/// Requantizes an `i32` accumulator to `u8` with real multiplier `m`, at the
/// multiplier precision the execution context dictates
/// ([`RequantMode::Double`] is the native arithmetic; [`RequantMode::Single`]
/// is the emulator's reduced-precision knob). A scaled value beyond `i32`
/// saturates, and adding the zero point cannot overflow: out of range
/// clamps to `qlo` or `qhi`, never wraps to the other end.
#[inline]
pub(crate) fn requantize(
    acc: i32,
    m: f64,
    zp_out: i32,
    qlo: i32,
    qhi: i32,
    mode: RequantMode,
) -> u8 {
    let scaled = match mode {
        RequantMode::Double => (m * acc as f64).round() as i32,
        RequantMode::Single => ((m as f32) * acc as f32).round() as i32,
    };
    // In `i64` the sum cannot overflow, and clamping it there is clamping
    // the saturated `i32` sum: `qlo` and `qhi` are `i32`s.
    (zp_out as i64 + scaled as i64).clamp(qlo as i64, qhi as i64) as u8
}

/// The output side of an int8 `Conv2d`, `DepthwiseConv2d` or
/// `FullyConnected` node: each output channel's bias and requantization
/// multiplier `s_in · s_w[ch] / s_out`, computed once per node, and the
/// output zero point, clamp and multiplier precision.
pub(crate) struct Requant<'a> {
    pub bias: Option<&'a [i32]>,
    pub multipliers: &'a [f64],
    pub zp_out: i32,
    pub qlo: i32,
    pub qhi: i32,
    pub mode: RequantMode,
}

impl<'a> Requant<'a> {
    /// Node `node`'s, over the `channels` output channels of its weights
    /// `inputs[1]`, the multipliers written into `multipliers` ([`room`]).
    pub(crate) fn new(
        node: &Node,
        inputs: &[&'a Tensor],
        out_def: &TensorDef,
        channels: usize,
        activation: Activation,
        mode: RequantMode,
        multipliers: &'a mut Vec<f64>,
    ) -> Result<Self> {
        let bias = inputs.get(2).map(|t| t.as_i32()).transpose()?;
        let (s_in, _) = qparams_of(node, inputs[0])?;
        let (s_out, zp_out) = out_qparams(node, out_def)?;
        let (qlo, qhi) = act_qbounds(activation, s_out, zp_out);
        let w_scale = |ch| inputs[1].quant().map_or(1.0, |q| conv::weight_scale(q, ch));
        let multipliers = room(multipliers, channels)?;
        multipliers
            .extend((0..channels).map(|ch| (s_in as f64) * (w_scale(ch) as f64) / (s_out as f64)));
        Ok(Requant {
            bias,
            multipliers,
            zp_out,
            qlo,
            qhi,
            mode,
        })
    }

    /// Channel `ch`'s output code for the sum `acc`, its bias added.
    #[inline(always)]
    pub(crate) fn value(&self, ch: usize, acc: i32) -> u8 {
        let acc = self.bias.map_or(0, |b| b[ch]) + acc;
        requantize(
            acc,
            self.multipliers[ch],
            self.zp_out,
            self.qlo,
            self.qhi,
            self.mode,
        )
    }
}

/// Whether `out` holds a whole number of frames of `out_def`'s shape (the
/// definition is per frame; the slot is stacked to the invoke's batch size).
fn holds_whole_frames(out: &Tensor, out_def: &TensorDef) -> bool {
    out.len()
        .is_multiple_of(out_def.shape().num_elements().max(1))
}

/// Borrows a float output slot, checking it matches the slot definition.
pub(crate) fn f32_slot<'a>(out: &'a mut Tensor, out_def: &TensorDef) -> Result<&'a mut [f32]> {
    debug_assert!(holds_whole_frames(out, out_def));
    Ok(out.as_f32_mut()?)
}

/// Borrows a quantized (`u8`) output slot. The slot's quantization
/// parameters were attached from the slot definition when the arena was
/// planned, matching what `out_qparams` reads.
pub(crate) fn u8_slot<'a>(out: &'a mut Tensor, out_def: &TensorDef) -> Result<&'a mut [u8]> {
    debug_assert!(holds_whole_frames(out, out_def));
    Ok(out.as_u8_mut()?)
}

/// The edge emulator's per-element reduction as its gather kernels ran it
/// before the reference walks took its chains: `n` (value, weight) terms
/// addressed by `term`, folded under the emulator's accumulation order and
/// multiply-add contraction, starting from `init`. Body verbatim — the
/// oracle of every [`Chain`].
#[cfg(test)]
pub(crate) fn emulated_dot(
    init: f32,
    n: usize,
    term: impl Fn(usize) -> (f32, f32),
    numerics: &EdgeNumerics,
) -> f32 {
    let fma = numerics.fused_multiply_add;
    let step = |acc: f32, i: usize| -> f32 {
        let (a, b) = term(i);
        if fma {
            a.mul_add(b, acc)
        } else {
            acc + a * b
        }
    };
    match numerics.accumulation {
        AccumOrder::Sequential => (0..n).fold(init, step),
        AccumOrder::Reversed => (0..n).rev().fold(init, step),
        AccumOrder::Lanes8 => {
            // `init` (the bias) seeds lane 0, as a real lane reduction would
            // fold the bias into one accumulator register.
            let mut lanes = [0.0f32; 8];
            lanes[0] = init;
            for i in 0..n {
                lanes[i % 8] = step(lanes[i % 8], i);
            }
            ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
                + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
        }
    }
}

/// Every float chain the emulator can ask for — each [`AccumOrder`], split
/// and fused — as the numerics that name it, for the kernel unit tests.
#[cfg(test)]
pub(crate) fn every_chain() -> impl Iterator<Item = EdgeNumerics> {
    [
        AccumOrder::Sequential,
        AccumOrder::Reversed,
        AccumOrder::Lanes8,
    ]
    .into_iter()
    .flat_map(|accumulation| {
        [false, true].map(|fused_multiply_add| EdgeNumerics {
            accumulation,
            fused_multiply_add,
            ..EdgeNumerics::faithful()
        })
    })
}

/// Every activation, for the kernel unit tests.
#[cfg(test)]
pub(crate) const ACTIVATIONS: [Activation; 7] = [
    Activation::None,
    Activation::Relu,
    Activation::Relu6,
    Activation::HardSwish,
    Activation::HardSigmoid,
    Activation::Sigmoid,
    Activation::Gelu,
];

/// Deterministic test values in `[-1.5, 1.5)` (xorshift64*), shared by the
/// kernel unit tests.
#[cfg(test)]
pub(crate) fn det_f32(seed: u64, n: usize) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            let bits = s.wrapping_mul(0x2545_F491_4F6C_DD1D);
            ((bits >> 40) as f32 / (1u64 << 24) as f32) * 3.0 - 1.5
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODES: [RequantMode; 2] = [RequantMode::Double, RequantMode::Single];

    /// `4 · 2^30` is past `i32::MAX`: the scaled value saturates, and adding
    /// the zero point must saturate too rather than wrap to `qlo`; the same
    /// at the negative end.
    #[test]
    fn requantize_saturates_past_the_i32_range() {
        for mode in MODES {
            assert_eq!(requantize(1 << 30, 4.0, 128, 0, 255, mode), 255, "{mode:?}");
            assert_eq!(requantize(1 << 30, 4.0, 128, 3, 200, mode), 200, "{mode:?}");
            assert_eq!(requantize(-(1 << 30), 4.0, -1, 7, 255, mode), 7, "{mode:?}");
            assert_eq!(
                requantize(i32::MAX, 1.0, i32::MAX, 0, 255, mode),
                255,
                "{mode:?}"
            );
            assert_eq!(
                requantize(i32::MIN, 1.0, i32::MIN, 9, 255, mode),
                9,
                "{mode:?}"
            );
        }
    }

    /// In range, the sum is the plain one.
    #[test]
    fn requantize_rounds_scales_and_clamps_in_range() {
        for mode in MODES {
            assert_eq!(requantize(100, 0.5, 10, 0, 255, mode), 60, "{mode:?}");
            assert_eq!(requantize(-100, 0.5, 10, 0, 255, mode), 0, "{mode:?}");
            assert_eq!(requantize(-100, 0.25, 128, 0, 255, mode), 103, "{mode:?}");
            assert_eq!(requantize(1000, 1.0, 0, 0, 255, mode), 255, "{mode:?}");
        }
    }

    /// A positive scale too small for any finite bound passes the scale
    /// check (`EX201`); the bounds then saturate instead of overflowing.
    #[test]
    fn act_qbounds_saturate_under_a_tiny_scale() {
        let tiny = f32::MIN_POSITIVE;
        assert_eq!(act_qbounds(Activation::Relu6, tiny, 128), (128, 255));
        assert_eq!(act_qbounds(Activation::Sigmoid, tiny, 255), (255, 255));
        assert_eq!(
            act_qbounds(Activation::Relu, tiny, i32::MAX),
            (i32::MAX, i32::MAX)
        );
        assert_eq!(act_qbounds(Activation::Relu6, tiny, -5), (0, 255));
        assert_eq!(act_qbounds(Activation::None, tiny, 128), (0, 255));
    }

    /// In range, the bounds are the quantized clamp bounds.
    #[test]
    fn act_qbounds_quantize_the_clamp_bounds() {
        assert_eq!(act_qbounds(Activation::Relu6, 6.0 / 255.0, 0), (0, 255));
        assert_eq!(act_qbounds(Activation::Relu6, 0.05, 10), (10, 130));
        assert_eq!(act_qbounds(Activation::Relu, 0.1, 20), (20, 255));
        assert_eq!(act_qbounds(Activation::HardSigmoid, 0.01, 100), (100, 200));
    }
}
