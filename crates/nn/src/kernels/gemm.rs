//! The im2col + GEMM kernels behind the
//! [`KernelFlavor::Optimized`] and [`KernelFlavor::Simd`] flavors, the
//! runtime-feature-dispatched engines beneath them, and the engine-explicit
//! entry points the cross-engine test suites pin those engines with.
//!
//! # One im2col, two reductions
//!
//! There is one whole-batch `im2col` (generic over the element type: `f32`
//! for the float convolutions, `u8` for the quantized SIMD one); float
//! `FullyConnected` passes its activations as the matrix. What reduces a
//! matrix row against the weights is the flavor's, because each flavor's
//! summation tree is pinned by its goldens:
//!
//! * **Optimized — the blocked-4 cell.** Four partial sums striped over the
//!   index (multiply, then add — never fused), a sequential remainder, then
//!   `(s0 + s1) + (s2 + s3) + rest + bias`. The `out_c` cells of one matrix
//!   row share nothing, so they advance side by side: the weights are packed
//!   once into the output-channel panels the reference `Conv2d` reads
//!   (`pack_weight_panels`), and every row meets every 8-, 4- or 1-wide
//!   panel as four `[f32; W]` striped chains — the cell, `W` outputs at a
//!   time (`blocked4_panels`).
//! * **Simd — `Lanes8` tiles.** `gemm_bias_act` walks the row-major
//!   weights in `ROW_TILE`-row tiles and asks `Lanes8::tile` for
//!   `MR × 4` blocks of cells (`1 × 4`, `MR × 1`, `1 × 1` on the ragged
//!   edges): `M · N` accumulator chains in flight, each weight vector loaded
//!   once for all `M` rows. Every cell of every shape is the micro-kernel's
//!   one dot, so the tile shape never moves a bit.
//!
//! The reference kernels in `conv.rs` / `fc.rs` are the oracle both are
//! tested against.
//!
//! # Native builds at the host's vector width
//!
//! The x86-64 baseline the crate compiles for is SSE2: four `f32` lanes.
//! The float kernels of the three native flavors — the blocked-4 panels
//! here, the reference `Conv2d` panel chains and the shared depthwise kernel
//! in `conv.rs` — are each written once, as an `#[inline(always)]` body
//! (`native_kernel!` in `kernels/mod.rs`), and compiled twice: for the
//! baseline, and once more under `#[target_feature(enable = "avx2")]`,
//! which runs when the checked `Engine` says `Avx2Fma`. `fma` is *not*
//! enabled for them: every product is rounded before it is added, as Rust
//! writes `a + x * w`, so the AVX2 build performs the same operations in
//! the same order on eight lanes and returns the baseline build's bits.
//! `MLEXRAY_SIMD=scalar` runs the baseline build.
//!
//! # The dual-engine contract
//!
//! The `Lanes8` and quantized dots are defined in terms of one canonical
//! "8-lane virtual SIMD" arithmetic, implemented twice:
//!
//! * an **AVX2/FMA** engine (x86_64 only, behind one-time runtime feature
//!   detection), and
//! * a **scalar mirror** that performs the *same* per-lane operations in the
//!   same order with [`f32::mul_add`] (IEEE-754 fused multiply-add, exactly
//!   what `vfmadd` computes).
//!
//! The two engines are **bitwise identical** by construction: per-lane FMA
//! (`_mm256_fmadd_ps` ≡ `f32::mul_add` lane by lane), a fixed-order
//! horizontal reduction `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`, and a
//! sequential fused tail. The AVX2 engine reduces four accumulators at once
//! without leaving the registers, with `hadd` — but only in the one order
//! that *is* that tree (two rounds of `hadd` pair the lanes exactly as
//! written above, then the low half is added to the high half); any other
//! horizontal shuffle would reassociate the sum. Consequently the engine
//! choice never changes a single output bit: golden records made on an AVX2
//! machine verify on any host, and the CI forced-scalar run
//! (`MLEXRAY_SIMD=scalar`) must match the feature-dispatched run exactly.
//! Quantized kernels accumulate in exact `i32` arithmetic, where any
//! summation order is identical — they are bitwise-equal to the *reference*
//! kernels too.
//!
//! Feature detection runs **once** per process ([`OnceLock`]); per-call
//! dispatch is a single atomic load. `MLEXRAY_SIMD=scalar` in the
//! environment forces the scalar engine (the CI fallback leg); tests that
//! need both engines in one process use the engine-explicit entry points
//! ([`dot_f32_with`], [`dot_q8_with`], [`execute_node_with`]) instead of
//! mutating the environment. Those honour a request for
//! [`SimdEngine::Avx2Fma`] only where the CPU really has AVX2+FMA —
//! independent of the override — and otherwise run the mirror, so no caller
//! can reach the intrinsics on a CPU without them.

use std::sync::OnceLock;

use mlexray_tensor::{QuantParams, Shape, Tensor};

use crate::graph::{Graph, Node, NodeId, TensorDef};
use crate::kernels::conv::{weight_panels, weight_scale};
use crate::kernels::window::WindowGeom;
use crate::kernels::{
    act_qbounds, execute_node, f32_slot, out_qparams, qparams_of, requantize, u8_slot,
    FloatKernels, KernelCtx,
};
use crate::ops::{Activation, Padding};
use crate::plan::MemoryPlan;
use crate::resolver::{KernelBugs, KernelFlavor, RequantMode};
use crate::Result;

/// Vector width of the canonical virtual-SIMD arithmetic (f32 lanes).
pub const SIMD_LANES: usize = 8;

/// The instruction engine backing the SIMD kernels.
///
/// Both engines compute bit-identical results (see the module docs); the
/// enum only selects how fast the bits are produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdEngine {
    /// 256-bit AVX2 + FMA intrinsics (x86_64, runtime-detected).
    Avx2Fma,
    /// The portable scalar mirror of the same arithmetic.
    Scalar,
}

impl SimdEngine {
    /// Stable label for logs and benchmark artifacts.
    pub fn label(self) -> &'static str {
        match self {
            SimdEngine::Avx2Fma => "avx2+fma",
            SimdEngine::Scalar => "scalar",
        }
    }
}

/// The engine the SIMD kernels dispatch to on this host.
///
/// Detection runs once per process and is cached; `MLEXRAY_SIMD=scalar`
/// forces the scalar mirror regardless of CPU features.
pub fn active_engine() -> SimdEngine {
    static ENGINE: OnceLock<SimdEngine> = OnceLock::new();
    *ENGINE.get_or_init(detect_engine)
}

fn detect_engine() -> SimdEngine {
    if std::env::var_os("MLEXRAY_SIMD").is_some_and(|v| v == "scalar") {
        return SimdEngine::Scalar;
    }
    Engine::runnable(SimdEngine::Avx2Fma).get()
}

/// A [`SimdEngine`] checked against this CPU — the one form in which an
/// engine reaches a kernel, so `Avx2Fma` inside an `Engine` means AVX2 and
/// FMA were detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Engine(SimdEngine);

impl Engine {
    /// `engine` where this CPU can run it, whatever `MLEXRAY_SIMD` says;
    /// else the scalar mirror and the baseline builds (same bits either
    /// way).
    pub(crate) fn runnable(engine: SimdEngine) -> Self {
        if avx2_fma_available() {
            Engine(engine)
        } else {
            Engine(SimdEngine::Scalar)
        }
    }

    /// This process's engine, [`active_engine`].
    pub(crate) fn active() -> Self {
        Engine(active_engine())
    }

    pub(crate) fn get(self) -> SimdEngine {
        self.0
    }
}

/// Whether this CPU can run the AVX2+FMA engine, whatever `MLEXRAY_SIMD`
/// says (std caches the CPUID probe, so this is one atomic load).
fn avx2_fma_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

// ---------------------------------------------------------------------------
// The Simd flavor's micro-kernel
// ---------------------------------------------------------------------------

/// The [`KernelFlavor::Simd`] micro-kernel: the canonical 8-lane
/// virtual-SIMD dot — 8 fused multiply-add lanes striped over the index,
/// fixed-order lane reduction, sequential fused tail — under an explicit
/// engine, with the injectable K-tail defect.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lanes8 {
    engine: Engine,
    skip_k_tail: bool,
}

impl Lanes8 {
    /// `engine` is honoured only if this CPU can run it; asking for
    /// `Avx2Fma` elsewhere gets the bitwise-identical scalar mirror.
    pub(crate) fn new(engine: SimdEngine, bugs: &KernelBugs) -> Self {
        Lanes8 {
            engine: Engine::runnable(engine),
            skip_k_tail: bugs.simd_gemm_k_tail_skip,
        }
    }

    /// The `M × N` dot products of matrix rows `a` against weight rows `b`
    /// (all of one length): `M · N` independent accumulator chains in
    /// flight, each weight vector loaded once for all `M` rows. Every cell
    /// is bitwise-identical to the `M = N = 1` result on the same pair, so
    /// tiling never changes a bit.
    #[inline]
    fn tile<const M: usize, const N: usize>(self, a: [&[f32]; M], b: [&[f32]; N]) -> [[f32; N]; M] {
        debug_assert!(a.iter().chain(&b).all(|row| row.len() == a[0].len()));
        let len = k_len(a[0].len(), self.skip_k_tail);
        let (a, b) = (a.map(|a| &a[..len]), b.map(|b| &b[..len]));
        match self.engine.get() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: an `Engine` holds `Avx2Fma` only after AVX2 and FMA
            // were detected on this CPU, and every row of `a` and `b` was
            // just sliced to exactly `len` elements.
            SimdEngine::Avx2Fma => unsafe { tile_avx2(len, a, b) },
            _ => a.map(|a| b.map(|b| dot_f32_scalar(a, b))),
        }
    }
}

/// Canonical virtual-SIMD dot product under an explicit engine. Public so
/// test suites can pin the two engines against each other in one process;
/// on a CPU without AVX2+FMA both engines run the scalar mirror.
pub fn dot_f32_with(engine: SimdEngine, a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    Lanes8::new(engine, &KernelBugs::none()).tile([a], [b])[0][0]
}

/// Logical reduction length for the f32 GEMM paths: the injected
/// tile-boundary defect skips the last element of the K-loop remainder —
/// but only when K is not a multiple of the vector width, exactly the shape
/// a hand-unrolled remainder loop gets wrong.
fn k_len(k: usize, skip_k_tail: bool) -> usize {
    if skip_k_tail && !k.is_multiple_of(SIMD_LANES) {
        k - 1
    } else {
        k
    }
}

fn dot_f32_scalar(a: &[f32], b: &[f32]) -> f32 {
    let mut lanes = [0.0f32; SIMD_LANES];
    let chunks = a.len() / SIMD_LANES;
    for i in 0..chunks {
        let o = i * SIMD_LANES;
        for (l, acc) in lanes.iter_mut().enumerate() {
            *acc = a[o + l].mul_add(b[o + l], *acc);
        }
    }
    let mut sum = reduce8(lanes);
    for i in chunks * SIMD_LANES..a.len() {
        sum = a[i].mul_add(b[i], sum);
    }
    sum
}

/// The canonical lane reduction: a fixed binary tree, never reassociated.
#[inline]
fn reduce8(l: [f32; 8]) -> f32 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// The AVX2+FMA engine's `M × N` tile: `M · N` `ymm` accumulators that stay
/// in registers across the K loop.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA, and every row of `a` and `b` must hold
/// at least `k` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn tile_avx2<const M: usize, const N: usize>(
    k: usize,
    a: [&[f32]; M],
    b: [&[f32]; N],
) -> [[f32; N]; M] {
    use std::arch::x86_64::*;
    let mut acc = [[_mm256_setzero_ps(); N]; M];
    let chunks = k / SIMD_LANES;
    for i in 0..chunks {
        let o = i * SIMD_LANES;
        let vb = b.map(|b| _mm256_loadu_ps(b.as_ptr().add(o)));
        for (acc, a) in acc.iter_mut().zip(a) {
            let va = _mm256_loadu_ps(a.as_ptr().add(o));
            for (acc, vb) in acc.iter_mut().zip(vb) {
                *acc = _mm256_fmadd_ps(va, vb, *acc);
            }
        }
    }
    let mut out = [[0.0f32; N]; M];
    for (out, acc) in out.iter_mut().zip(acc) {
        if N == 4 {
            // `reduce8` of four accumulators at once, in registers. Within
            // each 128-bit half `hadd(x, y)` is `[x0+x1, x2+x3, y0+y1,
            // y2+y3]`, so two rounds leave `(l0+l1)+(l2+l3)` of accumulator
            // `n` in lane `n` of the low half and `(l4+l5)+(l6+l7)` in lane
            // `n` of the high half; low + high is the canonical tree.
            let h = _mm256_hadd_ps(
                _mm256_hadd_ps(acc[0], acc[1]),
                _mm256_hadd_ps(acc[2], acc[3]),
            );
            let sums = _mm_add_ps(_mm256_castps256_ps128(h), _mm256_extractf128_ps(h, 1));
            let mut lanes = [0.0f32; 4];
            _mm_storeu_ps(lanes.as_mut_ptr(), sums);
            out.copy_from_slice(&lanes);
        } else {
            for (sum, acc) in out.iter_mut().zip(acc) {
                let mut lanes = [0.0f32; SIMD_LANES];
                _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
                *sum = reduce8(lanes);
            }
        }
    }
    for i in chunks * SIMD_LANES..k {
        for (out, a) in out.iter_mut().zip(a) {
            for (sum, b) in out.iter_mut().zip(b) {
                *sum = a[i].mul_add(b[i], *sum);
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// i8 × i8 → i32 dot micro-kernel
// ---------------------------------------------------------------------------

/// Integer dot product over zero-point-corrected `u8` activations and `i8`
/// weights, accumulating in exact `i32` — bitwise-identical under any
/// engine (and to the reference kernels), absent overflow. Public for the
/// cross-engine test suites; on a CPU without AVX2 both engines run the
/// scalar loop.
pub fn dot_q8_with(engine: SimdEngine, a: &[u8], zp: i32, w: &[i8]) -> i32 {
    assert_eq!(a.len(), w.len());
    match Engine::runnable(engine).get() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `runnable` yields `Avx2Fma` only after detecting AVX2 on
        // this CPU, and the lengths were just checked equal.
        SimdEngine::Avx2Fma => unsafe { dot_q8_avx2(a, zp, w) },
        _ => a
            .iter()
            .zip(w)
            .map(|(&a, &w)| (a as i32 - zp) * w as i32)
            .sum(),
    }
}

/// # Safety
///
/// The CPU must support AVX2, and `w` must be at least as long as `a`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_q8_avx2(a: &[u8], zp: i32, w: &[i8]) -> i32 {
    use std::arch::x86_64::*;
    // 16 MACs per iteration: widen u8→i16 / i8→i16, subtract the zero
    // point in i16 (exact: 0..=255 minus −255..=255 fits), then madd pairs
    // into i32. Integer arithmetic is associative, so the lane order does
    // not matter for bit-equality with the scalar mirror.
    let vzp = _mm256_set1_epi16(zp as i16);
    let mut acc = _mm256_setzero_si256();
    let chunks = a.len() / 16;
    for i in 0..chunks {
        let o = i * 16;
        let va = _mm256_cvtepu8_epi16(_mm_loadu_si128(a.as_ptr().add(o) as *const _));
        let vw = _mm256_cvtepi8_epi16(_mm_loadu_si128(w.as_ptr().add(o) as *const _));
        let vx = _mm256_sub_epi16(va, vzp);
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(vx, vw));
    }
    let mut lanes = [0i32; 8];
    _mm256_storeu_si256(lanes.as_mut_ptr() as *mut _, acc);
    let mut sum: i32 = lanes.iter().sum();
    for i in chunks * 16..a.len() {
        sum += (a[i] as i32 - zp) * w[i] as i32;
    }
    sum
}

// ---------------------------------------------------------------------------
// im2col and the two reductions
// ---------------------------------------------------------------------------

/// Elements of the patch matrix [`im2col`] materializes for `g` (0 for a
/// pointwise window, which reads the input in place).
fn im2col_len(g: &WindowGeom) -> usize {
    if g.is_pointwise() {
        0
    } else {
        g.cell_count() * g.patch_len()
    }
}

/// Whole-batch im2col: the `[cells, kh·kw·c]` patch matrix of `x`, built in
/// `scratch` with padding taps left at `fill` — or `x` itself, copy-free,
/// for 1×1 stride-1 windows (the bulk of MobileNet-family MACs).
fn im2col<'a, T: Copy>(g: &WindowGeom, x: &'a [T], fill: T, scratch: &'a mut Vec<T>) -> &'a [T] {
    if g.is_pointwise() {
        return x;
    }
    // The float scratch is reserved once from the memory plan; growing it
    // here would mean the planner under-reserved.
    debug_assert!(scratch.capacity() >= im2col_len(g));
    let ksize = g.patch_len();
    scratch.clear();
    scratch.resize(im2col_len(g), fill);
    for cell in g.cells() {
        let row = &mut scratch[cell.index * ksize..][..ksize];
        for (tap, pixel) in g.taps(&cell) {
            row[tap * g.c..][..g.c].copy_from_slice(&x[pixel * g.c..][..g.c]);
        }
    }
    scratch
}

/// Output rows sharing one weight fetch: large enough to amortize streaming
/// the weights, small enough that a tile of matrix rows stays
/// cache-resident. Both reductions walk the matrix in tiles of this many
/// rows.
const ROW_TILE: usize = 16;

/// The blocked-4 cells of matrix rows `a` against the `W` output channels
/// of one panel (`[k][W]`, as [`pack_weight_panels`] lays it out), into
/// `out[m · out_c..][..W]` for row `m`, before the activation: per cell,
/// four partial sums striped over the index, `s_l += a[4i + l] · w[4i + l]`,
/// a sequential remainder from `0.0`, then `(s0 + s1) + (s2 + s3) + rest +
/// bias` — a missing bias adds a `0.0`, as it always has. `M` and `W` are
/// consts, so the `M · 4 · W` chains live in registers and each weight
/// vector is loaded once for all `M` rows.
///
/// [`pack_weight_panels`]: super::conv::pack_weight_panels
#[inline(always)]
fn blocked4_chains<const M: usize, const W: usize>(
    a: [&[f32]; M],
    panel: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    out_c: usize,
) {
    let k = a[0].len();
    let chunks = k / 4;
    let a = a.map(|a| &a[..k]);
    let (w_body, w_rest) = panel.split_at(chunks * 4 * W);
    let mut s = [[[0.0f32; W]; 4]; M];
    for (i, w) in w_body.chunks_exact(4 * W).enumerate() {
        let x: [[f32; 4]; M] = std::array::from_fn(|m| {
            *<&[f32; 4]>::try_from(&a[m][i * 4..][..4]).expect("a four-element slice")
        });
        for l in 0..4 {
            let w = &w[l * W..][..W];
            for (s, x) in s.iter_mut().zip(&x) {
                for j in 0..W {
                    s[l][j] += x[l] * w[j];
                }
            }
        }
    }
    for (m, (s, a)) in s.iter().zip(a).enumerate() {
        let mut rest = [0.0f32; W];
        for (&a, w) in a[chunks * 4..].iter().zip(w_rest.chunks_exact(W)) {
            for j in 0..W {
                rest[j] += a * w[j];
            }
        }
        for (j, o) in out[m * out_c..][..W].iter_mut().enumerate() {
            let bias = bias.map_or(0.0, |b| b[j]);
            *o = (s[0][j] + s[1][j]) + (s[2][j] + s[3][j]) + rest[j] + bias;
        }
    }
}

native_kernel! {
    /// The Optimized float GEMM: `out[r, oc] = activation(cell(matrix[r],
    /// w[oc]) + bias[oc])` — the blocked-4 cell of [`blocked4_chains`] —
    /// over `matrix: [rows, k]`, the `[out_c, k]` weights as
    /// [`pack_weight_panels`](super::conv::pack_weight_panels) lays them
    /// out, and `out: [rows, out_c]`. A tile of [`ROW_TILE`] rows meets each
    /// panel in turn, [`MR`] rows at a time and then the odd row, so the
    /// panel stays cache-resident across the tile; the activation is one
    /// pass over the tile's outputs.
    fn blocked4_panels(
        matrix: &[f32],
        panels: &[f32],
        k: usize,
        out_c: usize,
        bias: Option<&[f32]>,
        activation: Activation,
        out: &mut [f32],
    ) {
        #[inline(always)]
        fn rows<const M: usize>(
            matrix: &[f32],
            r: usize,
            k: usize,
            panel: &[f32],
            width: usize,
            bias: Option<&[f32]>,
            out: &mut [f32],
            out_c: usize,
        ) {
            let a: [&[f32]; M] = std::array::from_fn(|m| &matrix[(r + m) * k..][..k]);
            match width {
                8 => blocked4_chains::<M, 8>(a, panel, bias, out, out_c),
                4 => blocked4_chains::<M, 4>(a, panel, bias, out, out_c),
                _ => blocked4_chains::<M, 1>(a, panel, bias, out, out_c),
            }
        }
        let rows_total = out.len() / out_c;
        for r0 in (0..rows_total).step_by(ROW_TILE) {
            let end = (r0 + ROW_TILE).min(rows_total);
            for (oc0, width) in weight_panels(out_c) {
                let panel = &panels[oc0 * k..][..width * k];
                let bias = bias.map(|b| &b[oc0..oc0 + width]);
                let mut r = r0;
                while r + MR <= end {
                    let out = &mut out[r * out_c + oc0..];
                    rows::<MR>(matrix, r, k, panel, width, bias, out, out_c);
                    r += MR;
                }
                while r < end {
                    let out = &mut out[r * out_c + oc0..];
                    rows::<1>(matrix, r, k, panel, width, bias, out, out_c);
                    r += 1;
                }
            }
            activation.apply_in_place(&mut out[r0 * out_c..end * out_c]);
        }
    }
}

/// Matrix rows per [`Lanes8`] tile and per [`blocked4_panels`] step, chosen
/// by measurement. `Lanes8`: `MR × 4` accumulators, the four weight vectors
/// and a matrix vector must fit the sixteen vector registers, eight chains
/// are what two FMA ports × four cycles of latency need, and 2 divides
/// [`ROW_TILE`]. `Conv` time on `mobilenet_v2@48` as a multiple of the
/// untouched depthwise kernel's in the same run (three interleaved rounds on
/// a shared 2-vCPU AVX2 host whose speed drifted ± 40 % between runs; the
/// ratio held), SIMD flavor, batch 4: `MR` 1 → 5.4–6.2, **2 → 3.9–4.6**,
/// 3 → 4.9–5.8, 4 → 5.7–6.2 (the 1 × 4 tile this replaced: 5.1). Blocked-4
/// panels, GMAC/s of the AVX2 build on five GEMM shapes of the zoo
/// (`rows × k × out_c` from `256 × 24 × 144` to `36 × 576 × 160`): one row
/// 17–26, **two 21–29**, three 21–32, four 21–30 — and the baseline build,
/// whose sixteen `xmm` registers two rows of `4 × 8` chains already fill,
/// 13–15 for one row, 10–13 for two and 3 for three.
const MR: usize = 2;

/// The operands of one [`gemm_bias_act`] call, shared by every block of it.
struct Gemm<'a> {
    kernel: Lanes8,
    matrix: &'a [f32],
    w: &'a [f32],
    bias: Option<&'a [f32]>,
    k: usize,
    out_c: usize,
    activation: Activation,
}

impl Gemm<'_> {
    /// Output rows `r..r + M` × channels `oc..oc + N`: one micro-kernel tile
    /// and the bias + activation epilogue.
    #[inline]
    fn block<const M: usize, const N: usize>(&self, r: usize, oc: usize, out: &mut [f32]) {
        let k = self.k;
        let accs = self.kernel.tile::<M, N>(
            std::array::from_fn(|i| &self.matrix[(r + i) * k..][..k]),
            std::array::from_fn(|j| &self.w[(oc + j) * k..][..k]),
        );
        for (i, accs) in accs.iter().enumerate() {
            let row = &mut out[(r + i) * self.out_c + oc..][..N];
            for (j, (o, acc)) in row.iter_mut().zip(accs).enumerate() {
                let bias = self.bias.map_or(0.0, |b| b[oc + j]);
                *o = self.activation.apply(acc + bias);
            }
        }
    }

    /// `N` output channels from `oc` over the rows of one tile: [`MR`] rows
    /// at a time, then the odd rows singly.
    #[inline]
    fn strip<const N: usize>(&self, rows: std::ops::Range<usize>, oc: usize, out: &mut [f32]) {
        let mut r = rows.start;
        while r + MR <= rows.end {
            self.block::<MR, N>(r, oc, out);
            r += MR;
        }
        while r < rows.end {
            self.block::<1, N>(r, oc, out);
            r += 1;
        }
    }
}

/// The Simd float GEMM: `out[r, oc] = activation(matrix[r] · w[oc] +
/// bias[oc])` over `matrix: [rows, k]`, `w: [out_c, k]`, `out: [rows,
/// out_c]`, tiled [`ROW_TILE`] rows × 4 output channels and walked in
/// [`MR`]` × 4` micro-kernel tiles (`1 × 4`, `MR × 1` and `1 × 1` on the
/// ragged edges). Tiling only reorders *which* cell is computed when — each
/// cell's arithmetic is the micro-kernel's single dot.
fn gemm_bias_act(
    kernel: Lanes8,
    matrix: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    k: usize,
    activation: Activation,
    out: &mut [f32],
) {
    let out_c = w.len() / k;
    let rows = out.len() / out_c;
    let gemm = Gemm {
        kernel,
        matrix,
        w,
        bias,
        k,
        out_c,
        activation,
    };
    for r0 in (0..rows).step_by(ROW_TILE) {
        let tile = r0..(r0 + ROW_TILE).min(rows);
        let mut oc = 0usize;
        while oc + 4 <= out_c {
            gemm.strip::<4>(tile.clone(), oc, out);
            oc += 4;
        }
        while oc < out_c {
            gemm.strip::<1>(tile.clone(), oc, out);
            oc += 1;
        }
    }
}

/// What reduces a float GEMM's matrix rows against the weights.
pub(crate) enum Reduction<'a> {
    /// The Optimized flavor: blocked-4 cells over the weights packed as
    /// panels, run by the engine's native build.
    Blocked4(Engine, &'a [f32]),
    /// The Simd flavor: [`Lanes8`] tiles over the row-major weights.
    Lanes8(Lanes8),
}

impl Reduction<'_> {
    /// `out = activation(matrix · weightsᵀ + bias)`, `k` the reduction
    /// length.
    fn run(
        self,
        matrix: &[f32],
        weights: &Tensor,
        k: usize,
        bias: Option<&[f32]>,
        activation: Activation,
        out: &mut [f32],
    ) -> Result<()> {
        match self {
            Reduction::Blocked4(engine, panels) => {
                let out_c = weights.shape().dims()[0];
                blocked4_panels(engine, matrix, panels, k, out_c, bias, activation, out);
            }
            Reduction::Lanes8(kernel) => {
                gemm_bias_act(kernel, matrix, weights.as_f32()?, bias, k, activation, out)
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Kernel entry points (dispatched from `execute_node`)
// ---------------------------------------------------------------------------

/// Optimized / SIMD float convolution: whole-batch [`im2col`], then the
/// flavor's [`Reduction`]. Handles any batch size natively, so `invoke` and
/// `invoke_batch` run the same code.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv2d_f32_gemm(
    reduction: Reduction<'_>,
    inputs: &[&Tensor],
    out_def: &TensorDef,
    stride: usize,
    padding: Padding,
    activation: Activation,
    scratch: &mut Vec<f32>,
    out_t: &mut Tensor,
) -> Result<()> {
    let (input, weights) = (inputs[0], inputs[1]);
    let bias = inputs.get(2).map(|t| t.as_f32()).transpose()?;
    let ws = weights.shape().dims();
    let g = WindowGeom::new(input, out_def, ws[1], ws[2], stride, padding);
    let matrix = im2col(&g, input.as_f32()?, 0.0, scratch);
    let out = f32_slot(out_t, out_def)?;
    reduction.run(matrix, weights, g.patch_len(), bias, activation, out)
}

/// Optimized / SIMD float fully-connected layer, `[n, in] x [out, in]^T`:
/// the flavor's [`Reduction`] with the activations as the matrix.
pub(crate) fn fc_f32_gemm(
    reduction: Reduction<'_>,
    inputs: &[&Tensor],
    out_def: &TensorDef,
    activation: Activation,
    out_t: &mut Tensor,
) -> Result<()> {
    let bias = inputs.get(2).map(|t| t.as_f32()).transpose()?;
    let in_f = inputs[1].shape().dims()[1];
    let out = f32_slot(out_t, out_def)?;
    reduction.run(inputs[0].as_f32()?, inputs[1], in_f, bias, activation, out)
}

/// SIMD quantized convolution: whole-batch `u8` [`im2col`] — padding taps
/// are filled with the input zero point, so they contribute exactly
/// `(zp - zp) * w == 0`, matching the reference kernel's skip — then an
/// i8×i8→i32 batched GEMM. Integer accumulation is exact, so outputs are
/// bitwise-identical to [`conv2d_q`](super::conv::conv2d_q) in every flavor
/// and engine.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv2d_q_simd(
    node: &Node,
    inputs: &[&Tensor],
    out_def: &TensorDef,
    stride: usize,
    padding: Padding,
    activation: Activation,
    requant: RequantMode,
    out_t: &mut Tensor,
) -> Result<()> {
    let engine = active_engine();
    let (input, weights) = (inputs[0], inputs[1]);
    let bias = inputs.get(2).map(|t| t.as_i32()).transpose()?;
    let (s_in, zp_in) = qparams_of(node, input)?;
    let (s_out, zp_out) = out_qparams(node, out_def)?;
    let wq = weights.quant().cloned().unwrap_or(QuantParams::PerTensor {
        scale: 1.0,
        zero_point: 0,
    });
    let w = weights.as_i8()?;
    let ws = weights.shape().dims();
    let (out_c, kh, kw) = (ws[0], ws[1], ws[2]);
    let g = WindowGeom::new(input, out_def, kh, kw, stride, padding);
    let (qlo, qhi) = act_qbounds(activation, s_out, zp_out);
    let out = u8_slot(out_t, out_def)?;
    let ksize = g.patch_len();
    let rows = g.cell_count();
    // The memory plan reserves no u8 scratch: non-pointwise quantized SIMD
    // convolutions allocate their patch matrix per node.
    let mut patches = Vec::with_capacity(im2col_len(&g));
    let fill = zp_in.clamp(0, 255) as u8;
    let matrix = im2col(&g, input.as_u8()?, fill, &mut patches);

    for r0 in (0..rows).step_by(ROW_TILE) {
        let r1 = (r0 + ROW_TILE).min(rows);
        for oc in 0..out_c {
            let wrow = &w[oc * ksize..(oc + 1) * ksize];
            let b = bias.map_or(0, |b| b[oc]);
            let m = (s_in as f64) * (weight_scale(&wq, oc) as f64) / (s_out as f64);
            for r in r0..r1 {
                let acc = b + dot_q8_with(engine, &matrix[r * ksize..(r + 1) * ksize], zp_in, wrow);
                out[r * out_c + oc] = requantize(acc, m, zp_out, qlo, qhi, requant);
            }
        }
    }
    Ok(())
}

/// SIMD quantized fully-connected layer: i8×i8→i32 row reductions, exact
/// and bitwise-identical to [`fc_q`](super::fc::fc_q).
pub(crate) fn fc_q_simd(
    node: &Node,
    inputs: &[&Tensor],
    out_def: &TensorDef,
    activation: Activation,
    requant: RequantMode,
    out_t: &mut Tensor,
) -> Result<()> {
    let engine = active_engine();
    let input = inputs[0];
    let weights = inputs[1];
    let bias = inputs.get(2).map(|t| t.as_i32()).transpose()?;
    let (s_in, zp_in) = qparams_of(node, input)?;
    let (s_out, zp_out) = out_qparams(node, out_def)?;
    let wq = weights.quant().cloned().unwrap_or(QuantParams::PerTensor {
        scale: 1.0,
        zero_point: 0,
    });
    let x = input.as_u8()?;
    let w = weights.as_i8()?;
    let in_f = weights.shape().dims()[1];
    let out_f = weights.shape().dims()[0];
    let batch = input.shape().dims()[0];
    let (qlo, qhi) = act_qbounds(activation, s_out, zp_out);
    let out = u8_slot(out_t, out_def)?;
    for n in 0..batch {
        let xrow = &x[n * in_f..(n + 1) * in_f];
        for o in 0..out_f {
            let acc = bias.map_or(0, |b| b[o])
                + dot_q8_with(engine, xrow, zp_in, &w[o * in_f..(o + 1) * in_f]);
            let m = (s_in as f64) * (wq.for_channel(o).0 as f64) / (s_out as f64);
            out[n * out_f + o] = requantize(acc, m, zp_out, qlo, qhi, requant);
        }
    }
    Ok(())
}

/// Runs node `node` of `graph` under `flavor` (native numerics, no injected
/// defect) on an explicit engine and returns its output. `operands` are the
/// node's inputs in order, constants included, stacked to any batch.
/// Public so test suites can pin the AVX2 build of every native float
/// kernel against its baseline build in one process, as [`dot_f32_with`]
/// pins the dot: `Avx2Fma` is honoured only where the CPU has it, whatever
/// `MLEXRAY_SIMD` says, and runs the baseline build elsewhere. Weights are
/// packed on the call, as the interpreter packs a runtime weight operand.
///
/// # Errors
///
/// Returns what the kernel returns for operands that do not fit the node.
///
/// # Panics
///
/// If `node` is not a node of `graph` or `operands` is empty.
pub fn execute_node_with(
    engine: SimdEngine,
    flavor: KernelFlavor,
    graph: &Graph,
    node: NodeId,
    operands: &[&Tensor],
) -> Result<Tensor> {
    let node = &graph.nodes()[node.0];
    let lead = |dims: &[usize]| dims.first().copied().unwrap_or(1).max(1);
    let frames =
        lead(operands[0].shape().dims()) / lead(graph.tensor(node.inputs[0]).shape().dims());
    let out_def = graph.tensor(node.output);
    let mut dims = out_def.shape().dims().to_vec();
    if let Some(n) = dims.first_mut() {
        *n *= frames;
    }
    let mut out = Tensor::zeros(out_def.dtype(), Shape::new(dims));
    out.set_quant(out_def.quant().cloned());
    let mut scratch = Vec::with_capacity(MemoryPlan::for_graph(graph, frames)?.scratch_elems());
    let (engine, bugs) = (Engine::runnable(engine), KernelBugs::none());
    let mut ctx = KernelCtx {
        float: FloatKernels::resolve(flavor, None, &bugs, engine),
        flavor,
        numerics: None,
        bugs: &bugs,
        engine,
        scratch: &mut scratch,
        panels: None,
        runtime_panels: &mut Vec::new(),
    };
    execute_node(node, operands, out_def, &mut out, &mut ctx)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::conv::pack_weight_panels;
    use crate::kernels::det_f32;

    /// Runs on every host: without AVX2+FMA (or under `MLEXRAY_SIMD=scalar`,
    /// which the explicit-engine entry points ignore) asking for `Avx2Fma`
    /// must fall back to the mirror instead of executing unsupported code.
    #[test]
    fn engines_agree_bitwise_on_f32_dots() {
        for len in [0, 1, 3, 7, 8, 9, 15, 16, 17, 27, 64, 129, 1000] {
            let a = det_f32(len as u64 + 1, len);
            let b = det_f32(len as u64 + 2, len);
            let fast = dot_f32_with(SimdEngine::Avx2Fma, &a, &b);
            let mirror = dot_f32_scalar(&a, &b);
            assert_eq!(
                fast.to_bits(),
                mirror.to_bits(),
                "engine divergence at len {len}: {fast} vs {mirror}"
            );
            assert_eq!(
                dot_f32_with(SimdEngine::Scalar, &a, &b).to_bits(),
                mirror.to_bits()
            );
        }
    }

    #[test]
    fn engines_agree_bitwise_on_q8_dots() {
        for len in [0, 1, 5, 15, 16, 17, 31, 32, 33, 100, 1000] {
            let a: Vec<u8> = (0..len).map(|i| (i * 37 % 256) as u8).collect();
            let w: Vec<i8> = (0..len)
                .map(|i| ((i * 53 % 255) as i16 - 127) as i8)
                .collect();
            for zp in [0, 7, 128, 255] {
                assert_eq!(
                    dot_q8_with(SimdEngine::Avx2Fma, &a, zp, &w),
                    dot_q8_with(SimdEngine::Scalar, &a, zp, &w),
                    "q8 engine divergence at len {len}, zp {zp}"
                );
            }
        }
    }

    /// The blocked-4 cell as `Blocked4::tile` computed it, one dot at a
    /// time before the panels: four striped accumulators, a sequential
    /// remainder, `(s0 + s1) + (s2 + s3) + rest`. Body verbatim, `M = N = 1`.
    fn blocked4_dot(a: &[f32], b: &[f32]) -> f32 {
        let k = a.len();
        let mut s = [0.0f32; 4];
        let chunks = k / 4;
        for i in 0..chunks {
            let o = i * 4;
            for l in 0..4 {
                s[l] += a[o + l] * b[o + l];
            }
        }
        let mut rest = 0.0f32;
        for i in chunks * 4..k {
            rest += a[i] * b[i];
        }
        (s[0] + s[1]) + (s[2] + s[3]) + rest
    }

    /// The packed-panel Optimized GEMM against one blocked-4 dot plus bias
    /// per cell, as the tiled driver ran it, on shapes ragged in every
    /// dimension — rows across the [`ROW_TILE`] boundary, every 8/4/1 panel
    /// mix, K with and without a remainder — under both engines' builds,
    /// with and without bias (a missing bias still adds `0.0`, which turns
    /// a `-0.0` cell into `+0.0`).
    #[test]
    fn blocked4_panels_are_the_per_cell_dots_bitwise() {
        for (rows, out_c, k) in [(19, 13, 13), (1, 8, 4), (2, 7, 17), (33, 24, 9), (3, 1, 1)] {
            let matrix = det_f32(1, rows * k);
            let mut w = det_f32(2, out_c * k);
            // A `-0.0` cell: row 0 against channel 0 is all `-0.0` products.
            w[..k].fill(-0.0);
            let matrix: Vec<f32> = matrix
                .iter()
                .enumerate()
                .map(|(i, &v)| if i < k { v.abs() } else { v })
                .collect();
            let weights = Tensor::from_f32(Shape::matrix(out_c, k), w.clone()).unwrap();
            let mut panels = Vec::new();
            pack_weight_panels(&weights, &mut panels).unwrap();
            let bias = det_f32(3, out_c);
            for bias in [None, Some(bias.as_slice())] {
                for engine in [SimdEngine::Avx2Fma, SimdEngine::Scalar] {
                    let act = Activation::Relu6;
                    let mut out = vec![f32::NAN; rows * out_c];
                    let engine = Engine::runnable(engine);
                    blocked4_panels(engine, &matrix, &panels, k, out_c, bias, act, &mut out);
                    for r in 0..rows {
                        for oc in 0..out_c {
                            let dot = blocked4_dot(&matrix[r * k..][..k], &w[oc * k..][..k]);
                            let want = act.apply(dot + bias.map_or(0.0, |b| b[oc]));
                            assert_eq!(
                                out[r * out_c + oc].to_bits(),
                                want.to_bits(),
                                "{engine:?} cell ({r}, {oc}) of {rows}x{out_c}, K {k}, bias {}",
                                bias.is_some()
                            );
                        }
                    }
                }
            }
        }
    }

    /// The tiled driver against one micro-kernel dot per cell, on a shape
    /// ragged in every tiled dimension — 19 rows (∤ 16, an odd row inside
    /// the last tile), 7 output channels (∤ 4), K = 13 (∤ 4, ∤ 8) — and on
    /// matrices of one row (no `MR` pair at all) and two (exactly one).
    #[test]
    fn gemm_driver_matches_per_cell_dots_on_ragged_shapes() {
        let kernel = Lanes8::new(active_engine(), &KernelBugs::none());
        for rows in [19, 1, 2] {
            let (out_c, k) = (7, 13);
            let matrix = det_f32(1, rows * k);
            let w = det_f32(2, out_c * k);
            let bias = det_f32(3, out_c);
            let mut out = vec![f32::NAN; rows * out_c];
            let act = Activation::Relu;
            gemm_bias_act(kernel, &matrix, &w, Some(&bias), k, act, &mut out);
            for r in 0..rows {
                for oc in 0..out_c {
                    let [[dot]] = kernel.tile([&matrix[r * k..][..k]], [&w[oc * k..][..k]]);
                    assert_eq!(
                        out[r * out_c + oc].to_bits(),
                        act.apply(dot + bias[oc]).to_bits(),
                        "cell ({r}, {oc}) of {rows} rows"
                    );
                }
            }
        }
    }

    /// `tile::<M, N>` on rows `a[..M]` × `b[..N]`, flattened row-major.
    fn tile_bits<const M: usize, const N: usize>(
        kernel: Lanes8,
        a: &[Vec<f32>],
        b: &[Vec<f32>],
    ) -> Vec<u32> {
        let tile = kernel.tile::<M, N>(
            std::array::from_fn(|i| a[i].as_slice()),
            std::array::from_fn(|j| b[j].as_slice()),
        );
        tile.iter().flatten().map(|v| v.to_bits()).collect()
    }

    /// Every `(M, N)` the driver instantiates, as `(M, N, bits)`.
    fn driver_tiles(
        kernel: Lanes8,
        a: &[Vec<f32>],
        b: &[Vec<f32>],
    ) -> Vec<(usize, usize, Vec<u32>)> {
        vec![
            (MR, 4, tile_bits::<MR, 4>(kernel, a, b)),
            (1, 4, tile_bits::<1, 4>(kernel, a, b)),
            (MR, 1, tile_bits::<MR, 1>(kernel, a, b)),
            (1, 1, tile_bits::<1, 1>(kernel, a, b)),
        ]
    }

    /// Every cell of every tile shape equals the `tile::<1, 1>` result on the
    /// same pair of rows.
    fn assert_tiles_match_single_dots(kernel: Lanes8, a: &[Vec<f32>], b: &[Vec<f32>], what: &str) {
        for (m, n, bits) in driver_tiles(kernel, a, b) {
            for i in 0..m {
                for j in 0..n {
                    let [[dot]] = kernel.tile([a[i].as_slice()], [b[j].as_slice()]);
                    assert_eq!(
                        bits[i * n + j],
                        dot.to_bits(),
                        "{what}: cell ({i}, {j}) of tile {m}x{n} diverged from its single dot"
                    );
                }
            }
        }
    }

    #[test]
    fn x4_matches_single_row_dots() {
        for k in [0, 1, 7, 8, 9, 17, 65, 144] {
            let a: Vec<Vec<f32>> = (0..MR as u64).map(|r| det_f32(9 + r, k)).collect();
            let b: Vec<Vec<f32>> = (0..4).map(|r| det_f32(100 + r, k)).collect();
            for skip in [false, true] {
                let bugs = KernelBugs {
                    simd_gemm_k_tail_skip: skip,
                    ..KernelBugs::none()
                };
                let fast = Lanes8::new(SimdEngine::Avx2Fma, &bugs);
                let mirror = Lanes8::new(SimdEngine::Scalar, &bugs);
                let what = format!("K {k}, tail skip {skip}");
                assert_tiles_match_single_dots(fast, &a, &b, &format!("Avx2Fma, {what}"));
                assert_tiles_match_single_dots(mirror, &a, &b, &format!("Scalar, {what}"));
                assert_eq!(
                    driver_tiles(fast, &a, &b),
                    driver_tiles(mirror, &a, &b),
                    "engines diverged at {what}"
                );
            }
        }
    }

    /// The in-register lane reduction against `reduce8` on lanes the tree's
    /// order matters for: with K = 8 and unit weights each accumulator lane
    /// holds exactly one input, so the tile's value *is* the reduction.
    #[test]
    fn in_register_reduction_is_the_canonical_tree() {
        let specials: [[f32; 8]; 5] = [
            [-0.0; 8],
            [-0.0, 0.0, -0.0, -0.0, 0.0, -0.0, -0.0, -0.0],
            [1.0, f32::INFINITY, -2.5, 3.0, 1e30, -1e30, 0.5, -0.0],
            [
                f32::NEG_INFINITY,
                1.0,
                2.0,
                3.0,
                f32::NEG_INFINITY,
                4.0,
                5.0,
                6.0,
            ],
            [1.5, -2.0, f32::NAN, 1e-40, 7.0, -0.0, 3.0, 1e38],
        ];
        let ones = vec![vec![1.0f32; 8]; 4];
        let none = KernelBugs::none();
        for (n, lanes) in specials.iter().enumerate() {
            // A different rotation of the lanes in each of the MR rows.
            let a: Vec<Vec<f32>> = (0..MR)
                .map(|r| (0..8).map(|l| lanes[(l + 3 * r) % 8]).collect())
                .collect();
            let fast = Lanes8::new(SimdEngine::Avx2Fma, &none);
            let mirror = Lanes8::new(SimdEngine::Scalar, &none);
            assert_tiles_match_single_dots(fast, &a, &ones, &format!("special lanes {n}"));
            assert_eq!(
                driver_tiles(fast, &a, &ones),
                driver_tiles(mirror, &a, &ones),
                "engines diverged on special lanes {n}"
            );
            let expect = reduce8(std::array::from_fn(|l| a[0][l].mul_add(1.0, 0.0)));
            let [[got, ..]] = fast.tile::<1, 4>(
                [a[0].as_slice()],
                std::array::from_fn(|j| ones[j].as_slice()),
            );
            assert_eq!(got.to_bits(), expect.to_bits(), "special lanes {n}");
        }
    }

    #[test]
    fn k_tail_bug_fires_only_on_ragged_k() {
        assert_eq!(k_len(16, true), 16, "aligned K must be untouched");
        assert_eq!(k_len(17, true), 16, "ragged K drops its last element");
        assert_eq!(k_len(17, false), 17);
    }

    #[test]
    fn detection_is_cached_and_labelled() {
        let e = active_engine();
        assert_eq!(e, active_engine());
        assert!(["avx2+fma", "scalar"].contains(&e.label()));
    }
}
