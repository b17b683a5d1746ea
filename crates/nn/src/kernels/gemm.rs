//! The im2col + GEMM kernels behind the
//! [`KernelFlavor::Optimized`] and [`KernelFlavor::Simd`] flavors, the
//! runtime-feature-dispatched engines beneath them, and the engine-explicit
//! entry points the cross-engine test suites pin those engines with.
//!
//! # One im2col, one tile driver, two chain rules
//!
//! There is one whole-batch `im2col` (generic over the element type: `f32`
//! for the float convolutions, `u8` for the quantized SIMD one); float
//! `FullyConnected` passes its activations as the matrix. One driver,
//! `float_gemm`, walks the matrix for both float flavors — `ROW_TILE`-row
//! tiles × column strips × `MR` rows, then the odd row — adds the bias,
//! and applies the activation once per tile. What sums `M` matrix rows
//! against one strip is the flavor's chain rule, because each flavor's
//! summation tree is pinned by its goldens:
//!
//! * **Optimized — the blocked-4 cell.** Four partial sums striped over the
//!   index (multiply, then add — never fused), a sequential remainder, then
//!   `(s0 + s1) + (s2 + s3) + rest + bias`. The cells of one matrix row
//!   share nothing, so they advance side by side: the weights are packed
//!   once into the output-channel panels the reference `Conv2d` reads
//!   (`pack_weight_panels`), and every row meets every 8-, 4- or 1-wide
//!   panel as four `[f32; W]` striped chains.
//! * **Simd — `Lanes8` tiles** over strips of four row-major weight rows
//!   (one on the ragged edge), unpacked: `MR × 4` accumulator chains in
//!   flight (`1 × 4`, `MR × 1`, `1 × 1` on the ragged edges), each weight
//!   vector loaded once for all rows. Every cell of every shape is the
//!   micro-kernel's one dot, so the tile shape never moves a bit.
//!
//! The reference kernels in `conv.rs` / `fc.rs` are the oracle both are
//! tested against.
//!
//! # Native builds at the host's vector width
//!
//! The x86-64 baseline the crate compiles for is SSE2: four `f32` lanes.
//! The float kernels of the three native flavors — the GEMM driver here
//! with both its rules, the reference `Conv2d` panel chains and the shared
//! depthwise kernel in `conv.rs` — are each written once, as an
//! `#[inline(always)]` body (`native_kernel!` in `kernels/mod.rs`), and
//! compiled twice: for the baseline, and once more under
//! `#[target_feature(enable = "avx2", enable = "fma")]`, which runs when
//! the checked `Engine` says `Avx2Fma`. Enabling `fma` moves no bit of an
//! unfused kernel: Rust never contracts `a + x * w`, so every product is
//! still rounded before it is added, and the AVX2+FMA build performs the
//! same operations in the same order on eight lanes and returns the
//! baseline build's bits. The one fused kernel, the `Lanes8` tile, runs its
//! intrinsics inlined into that build — driver, tile and epilogue one
//! function, no call per tile — and the baseline build runs its scalar
//! mirror. `MLEXRAY_SIMD=scalar` runs the baseline build.
//!
//! # The dual-engine contract
//!
//! The `Lanes8` and quantized dots are defined in terms of one canonical
//! "8-lane virtual SIMD" arithmetic, implemented twice:
//!
//! * an **AVX2/FMA** engine (x86_64 only, behind one-time runtime feature
//!   detection; the float tile is compiled only into the AVX2+FMA build,
//!   which only an `Engine` holding `Avx2Fma` enters, so the build it is
//!   inlined into is what makes its intrinsics safe to run), and
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

/// Canonical virtual-SIMD dot product under an explicit engine — 8 fused
/// multiply-add lanes striped over the index, fixed-order lane reduction,
/// sequential fused tail — run as one row × one channel of the Simd
/// `float_gemm`, through the build serving runs. Public so test suites
/// can pin the two engines against each other in one process; on a CPU
/// without AVX2+FMA both engines run the scalar mirror.
///
/// # Panics
///
/// If `a` and `b` differ in length.
pub fn dot_f32_with(engine: SimdEngine, a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    let (engine, k, skip_k_tail) = (Engine::runnable(engine), a.len(), false);
    let mut out = [0.0];
    // A `-0.0` bias is the identity of addition: the cell is the dot's bits.
    let (lanes8, bias) = (Reduction::Lanes8 { w: b, skip_k_tail }, Some(&[-0.0][..]));
    float_gemm(engine, lanes8, a, k, 1, bias, Activation::None, &mut out);
    out[0]
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

/// The AVX2+FMA engine's `M × N` tile: the dots of the first `k` elements
/// of the `M` rows of `a` and the `N` rows of `b`, rows `stride` apart, in
/// `M · N` `ymm` accumulators that stay in registers across the K loop. Not
/// a `#[target_feature]` function of its own, so that it inlines into
/// [`float_gemm`]'s AVX2+FMA build — the only caller — and its intrinsics
/// compile to the instructions in place.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA. The AVX2+FMA build of
/// `native_kernel!` runs only for an `Engine` holding `Avx2Fma`, so this
/// holds wherever that build calls it. (Every load is within the `k`
/// elements each row was sliced to.)
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn tile_avx2<const M: usize, const N: usize>(
    a: &[f32],
    b: &[f32],
    stride: usize,
    k: usize,
) -> [[f32; N]; M] {
    use std::arch::x86_64::*;
    let a: [&[f32]; M] = std::array::from_fn(|m| &a[m * stride..][..k]);
    let b: [&[f32]; N] = std::array::from_fn(|j| &b[j * stride..][..k]);
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
/// cache-resident.
const ROW_TILE: usize = 16;

/// Matrix rows per step of the tile driver's AVX2+FMA build, chosen by
/// measurement. `Lanes8`: `MR × 4` accumulators, the four weight vectors
/// and a matrix vector must fit the sixteen `ymm` registers, and 2 divides
/// [`ROW_TILE`]. The 35 `Conv2d` layers of `mobilenet_v2@48` at batch 4
/// (62 MMAC, the first one's im2col included), Simd flavor, best of 30
/// invokes in three interleaved rounds on a shared 2-vCPU AVX2 host: `MR` 1
/// → 11.0–15.1 MAC/ns, **2 → 19.5–19.7**, 3 → 15.5–16.6, 4 → 11.4–11.7.
/// Blocked-4 panels, GMAC/s on five GEMM shapes of the zoo (`rows × k ×
/// out_c` from `256 × 24 × 144` to `36 × 576 × 160`): one row 17–26, **two
/// 21–29**, three 21–32, four 21–30. The baseline build steps one row at a
/// time: two rows of `4 × 8` blocked-4 chains overfill its sixteen `xmm`
/// registers (the same `Conv2d` layers, Optimized flavor, forced scalar:
/// one row 5.8–6.3 ms, two 7.2–7.7).
const MR: usize = 2;

/// What reduces a float GEMM's matrix rows against the weights: the chain
/// rule [`float_gemm`] drives.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Reduction<'a> {
    /// The Optimized flavor: blocked-4 cells over the weights packed as
    /// panels.
    Blocked4(&'a [f32]),
    /// The Simd flavor: `Lanes8` tiles over the row-major `[out_c, k]`
    /// weights `w`; `skip_k_tail` injects the K-tail defect of
    /// [`KernelBugs::simd_gemm_k_tail_skip`].
    Lanes8 { w: &'a [f32], skip_k_tail: bool },
}

native_kernel! {
    /// The float GEMM of the Optimized and Simd flavors: `out[r, oc] =
    /// activation(sum(matrix[r], weights[oc]) + bias[oc])` over
    /// `matrix: [rows, k]` and `out: [rows, out_c]`, the sum the
    /// `reduction`'s; a missing bias adds `0.0`, which turns a `-0.0` sum
    /// into `+0.0`. A tile of [`ROW_TILE`] rows meets each column strip in
    /// turn, [`MR`] rows at a time (one in the baseline build) and then the
    /// odd row, so the strip stays cache-resident across the tile; the
    /// activation is one pass over the tile. Tiling only reorders which sum
    /// is computed when.
    fn float_gemm[build](
        reduction: Reduction<'_>,
        matrix: &[f32],
        k: usize,
        out_c: usize,
        bias: Option<&[f32]>,
        activation: Activation,
        out: &mut [f32],
    ) {
        match reduction {
            Reduction::Blocked4(panels) => {
                let rule = Blocked4Panels { panels, k };
                walk_tiles(rule, build, matrix, k, out_c, bias, activation, out);
            }
            Reduction::Lanes8 { w, skip_k_tail } => {
                let len = k_len(k, skip_k_tail);
                let rule = Lanes8Tiles { build, w, k, len };
                walk_tiles(rule, build, matrix, k, out_c, bias, activation, out);
            }
        }
    }
}

/// How a [`float_gemm`] reduces matrix rows against the weights.
trait ChainRule: Copy {
    /// The `(first channel, width)` of each column strip of `out_c`.
    fn strips(self, out_c: usize) -> impl Iterator<Item = (usize, usize)>;

    /// The sums of the `M` rows of `k` elements in `a` against channels
    /// `oc0..oc0 + W`, before the bias.
    fn sums<const M: usize, const W: usize>(self, a: &[f32], oc0: usize) -> [[f32; W]; M];
}

/// The one walk behind [`float_gemm`], whatever the chain rule, in
/// `build` — which steps [`MR`] rows at a time only in the AVX2+FMA build.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn walk_tiles<R: ChainRule>(
    rule: R,
    build: SimdEngine,
    matrix: &[f32],
    k: usize,
    out_c: usize,
    bias: Option<&[f32]>,
    activation: Activation,
    out: &mut [f32],
) {
    /// `sums + bias` into `out[m · out_c..][..W]` for row `m`.
    #[inline(always)]
    fn store<const M: usize, const W: usize>(
        sums: [[f32; W]; M],
        bias: Option<&[f32]>,
        out: &mut [f32],
        out_c: usize,
    ) {
        for (m, sums) in sums.iter().enumerate() {
            for (j, (o, sum)) in out[m * out_c..][..W].iter_mut().zip(sums).enumerate() {
                *o = sum + bias.map_or(0.0, |b| b[j]);
            }
        }
    }
    #[inline(always)]
    fn rows<R: ChainRule, const M: usize>(
        rule: R,
        a: &[f32],
        (oc0, width): (usize, usize),
        bias: Option<&[f32]>,
        out: &mut [f32],
        out_c: usize,
    ) {
        match width {
            8 => store(rule.sums::<M, 8>(a, oc0), bias, out, out_c),
            4 => store(rule.sums::<M, 4>(a, oc0), bias, out, out_c),
            _ => store(rule.sums::<M, 1>(a, oc0), bias, out, out_c),
        }
    }
    let rows_total = out.len().checked_div(out_c).unwrap_or(0);
    for r0 in (0..rows_total).step_by(ROW_TILE) {
        let end = (r0 + ROW_TILE).min(rows_total);
        for (oc0, width) in rule.strips(out_c) {
            let bias = bias.map(|b| &b[oc0..oc0 + width]);
            let mut r = r0;
            while build == SimdEngine::Avx2Fma && r + MR <= end {
                let (a, out) = (&matrix[r * k..][..MR * k], &mut out[r * out_c + oc0..]);
                rows::<R, MR>(rule, a, (oc0, width), bias, out, out_c);
                r += MR;
            }
            while r < end {
                let (a, out) = (&matrix[r * k..][..k], &mut out[r * out_c + oc0..]);
                rows::<R, 1>(rule, a, (oc0, width), bias, out, out_c);
                r += 1;
            }
        }
        activation.apply_in_place(&mut out[r0 * out_c..end * out_c]);
    }
}

/// The Optimized rule: every cell is four partial sums striped over the
/// index, `s_l += a[4i + l] · w[4i + l]` (multiply, then add — never
/// fused), a sequential remainder from `0.0`, then `(s0 + s1) + (s2 + s3) +
/// rest`, over the 8-, 4- and 1-wide panels of `[k][width]` that
/// `pack_weight_panels` lays out. `M` and `W` are consts, so the
/// `M · 4 · W` chains live in registers and each weight vector is loaded
/// once for all `M` rows.
#[derive(Clone, Copy)]
struct Blocked4Panels<'a> {
    panels: &'a [f32],
    k: usize,
}

impl ChainRule for Blocked4Panels<'_> {
    fn strips(self, out_c: usize) -> impl Iterator<Item = (usize, usize)> {
        weight_panels(out_c)
    }

    #[inline(always)]
    fn sums<const M: usize, const W: usize>(self, a: &[f32], oc0: usize) -> [[f32; W]; M] {
        let k = self.k;
        let chunks = k / 4;
        let a: [&[f32]; M] = std::array::from_fn(|m| &a[m * k..][..k]);
        let (w_body, w_rest) = self.panels[oc0 * k..][..W * k].split_at(chunks * 4 * W);
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
        let mut sums = [[0.0f32; W]; M];
        for ((sums, s), a) in sums.iter_mut().zip(&s).zip(a) {
            let mut rest = [0.0f32; W];
            for (&a, w) in a[chunks * 4..].iter().zip(w_rest.chunks_exact(W)) {
                for j in 0..W {
                    rest[j] += a * w[j];
                }
            }
            for j in 0..W {
                sums[j] = (s[0][j] + s[1][j]) + (s[2][j] + s[3][j]) + rest[j];
            }
        }
        sums
    }
}

/// The Simd rule: micro-kernel tiles over strips of four row-major weight
/// rows (single rows on the ragged edge), unpacked. Every cell is bitwise
/// the one-row, one-channel dot on the same pair, so the tile shape never
/// moves a bit — nor would the 8-wide tile the driver can name but these
/// strips never ask for.
#[derive(Clone, Copy)]
struct Lanes8Tiles<'a> {
    /// The build this rule is compiled into: `Avx2Fma` runs [`tile_avx2`],
    /// anything else the scalar mirror.
    build: SimdEngine,
    w: &'a [f32],
    k: usize,
    /// The reduction length, [`k_len`] of `k`.
    len: usize,
}

impl ChainRule for Lanes8Tiles<'_> {
    fn strips(self, out_c: usize) -> impl Iterator<Item = (usize, usize)> {
        let fours = out_c - out_c % 4;
        let ones = (fours..out_c).map(|oc| (oc, 1));
        (0..fours).step_by(4).map(|oc| (oc, 4)).chain(ones)
    }

    #[inline(always)]
    fn sums<const M: usize, const W: usize>(self, a: &[f32], oc0: usize) -> [[f32; W]; M] {
        let (k, len) = (self.k, self.len);
        let (a, w) = (&a[..M * k], &self.w[oc0 * k..][..W * k]);
        match self.build {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `build` is `Avx2Fma` only in `float_gemm`'s AVX2+FMA
            // build, which runs only for an `Engine` holding `Avx2Fma`, so
            // AVX2 and FMA were detected on this CPU.
            SimdEngine::Avx2Fma => unsafe { tile_avx2::<M, W>(a, w, k, len) },
            _ => std::array::from_fn(|m| {
                std::array::from_fn(|j| dot_f32_scalar(&a[m * k..][..len], &w[j * k..][..len]))
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// Kernel entry points (dispatched from `execute_node`)
// ---------------------------------------------------------------------------

/// Optimized / SIMD float convolution: whole-batch [`im2col`], then the
/// flavor's [`Reduction`] in `engine`'s build of [`float_gemm`]. Handles any
/// batch size natively, so `invoke` and `invoke_batch` run the same code.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv2d_f32_gemm(
    engine: Engine,
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
    let k = g.patch_len();
    float_gemm(engine, reduction, matrix, k, ws[0], bias, activation, out);
    Ok(())
}

/// Optimized / SIMD float fully-connected layer, `[n, in] x [out, in]^T`:
/// the flavor's [`Reduction`] with the activations as the matrix.
pub(crate) fn fc_f32_gemm(
    engine: Engine,
    reduction: Reduction<'_>,
    inputs: &[&Tensor],
    out_def: &TensorDef,
    activation: Activation,
    out_t: &mut Tensor,
) -> Result<()> {
    let bias = inputs.get(2).map(|t| t.as_f32()).transpose()?;
    let (matrix, ws) = (inputs[0].as_f32()?, inputs[1].shape().dims());
    let out = f32_slot(out_t, out_def)?;
    float_gemm(
        engine, reduction, matrix, ws[1], ws[0], bias, activation, out,
    );
    Ok(())
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
        float: FloatKernels::resolve(flavor, None, &bugs),
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
    use crate::kernels::{det_f32, ACTIVATIONS};

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
                    let (engine, blocked4) =
                        (Engine::runnable(engine), Reduction::Blocked4(&panels));
                    float_gemm(engine, blocked4, &matrix, k, out_c, bias, act, &mut out);
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

    const ENGINES: [SimdEngine; 2] = [SimdEngine::Avx2Fma, SimdEngine::Scalar];

    /// The Simd GEMM of the rows of `a` against the rows of `b` as output
    /// channels, row-major, as bit patterns.
    fn lanes8_gemm(
        engine: SimdEngine,
        skip_k_tail: bool,
        a: &[&[f32]],
        b: &[&[f32]],
        bias: Option<&[f32]>,
        act: Activation,
    ) -> Vec<u32> {
        let (matrix, w, k, out_c) = (a.concat(), b.concat(), a[0].len(), b.len());
        let mut out = vec![f32::NAN; a.len() * out_c];
        let (engine, lanes8) = (
            Engine::runnable(engine),
            Reduction::Lanes8 { w: &w, skip_k_tail },
        );
        float_gemm(engine, lanes8, &matrix, k, out_c, bias, act, &mut out);
        out.iter().map(|v| v.to_bits()).collect()
    }

    /// The bare dots of [`lanes8_gemm`]: a `-0.0` bias, the identity of
    /// addition, and no activation.
    fn lanes8_dots(engine: SimdEngine, skip_k_tail: bool, a: &[&[f32]], b: &[&[f32]]) -> Vec<u32> {
        let bias = vec![-0.0; b.len()];
        lanes8_gemm(engine, skip_k_tail, a, b, Some(&bias), Activation::None)
    }

    /// The tile driver against a one-row, one-channel run of it per cell —
    /// the micro-kernel's one dot — plus bias, through the activation, on
    /// shapes ragged in every tiled dimension: 19 rows (∤ 16, an odd row
    /// inside the last tile), 7 output channels (∤ 4), one row (no `MR` pair
    /// at all) and two (exactly one); K ∈ {1, 7, 8, 9, 13, 17}, with and
    /// without the K-tail defect; both engines, every activation, with and
    /// without bias. Row 0 against channel 0 is a `-0.0` dot (every product
    /// rounds to a negative zero), which a missing bias turns into `+0.0`.
    #[test]
    fn gemm_driver_matches_per_cell_dots_on_ragged_shapes() {
        let out_c = 7;
        for (rows, k) in [19, 1, 2]
            .into_iter()
            .flat_map(|r| [1, 7, 8, 9, 13, 17].map(|k| (r, k)))
        {
            let (mut matrix, mut w) = (det_f32(1, rows * k), det_f32(2, out_c * k));
            matrix[..k].fill(1e-30);
            w[..k].fill(-1e-30);
            let (a, b): (Vec<&[f32]>, Vec<&[f32]>) =
                (matrix.chunks(k).collect(), w.chunks(k).collect());
            let bias = det_f32(3, out_c);
            for (engine, skip) in ENGINES.into_iter().flat_map(|e| [(e, false), (e, true)]) {
                let what = format!("{engine:?}, {rows} rows, K {k}, tail skip {skip}");
                let dots: Vec<f32> = (0..rows * out_c)
                    .map(|i| {
                        f32::from_bits(
                            lanes8_dots(engine, skip, &[a[i / out_c]], &[b[i % out_c]])[0],
                        )
                    })
                    .collect();
                if k_len(k, skip) > 0 {
                    assert_eq!(dots[0].to_bits(), (-0.0f32).to_bits(), "{what}");
                }
                for (act, bias) in ACTIVATIONS
                    .into_iter()
                    .flat_map(|act| [(act, None), (act, Some(&bias[..]))])
                {
                    let got = lanes8_gemm(engine, skip, &a, &b, bias, act);
                    for (i, (&got, dot)) in got.iter().zip(&dots).enumerate() {
                        let (r, oc) = (i / out_c, i % out_c);
                        let want = act.apply(dot + bias.map_or(0.0, |b| b[oc]));
                        let with = bias.is_some();
                        assert_eq!(
                            got,
                            want.to_bits(),
                            "{what}, {act:?}, bias {with}: cell ({r}, {oc})"
                        );
                    }
                }
            }
        }
    }

    /// Every tile shape the driver instantiates — `MR × 4`, `1 × 4`, `MR × 1`
    /// and `1 × 1`, as runs of that many rows and channels — cell for cell
    /// against the `1 × 1` run on the same pair of rows, in both engines,
    /// which must agree. Returns the `Avx2Fma` bits of each shape.
    fn assert_tiles_match_single_dots(
        skip: bool,
        a: &[Vec<f32>],
        b: &[Vec<f32>],
        what: &str,
    ) -> Vec<Vec<u32>> {
        let a: Vec<&[f32]> = a.iter().map(Vec::as_slice).collect();
        let b: Vec<&[f32]> = b.iter().map(Vec::as_slice).collect();
        let tiles = [(MR, 4), (1, 4), (MR, 1), (1, 1)].map(|(m, n)| {
            let runs = ENGINES.map(|engine| lanes8_dots(engine, skip, &a[..m], &b[..n]));
            assert_eq!(runs[0], runs[1], "{what}: engines diverged on tile {m}x{n}");
            for (i, &bits) in runs[0].iter().enumerate() {
                let dot = lanes8_dots(ENGINES[0], skip, &[a[i / n]], &[b[i % n]])[0];
                let (r, c) = (i / n, i % n);
                assert_eq!(
                    bits, dot,
                    "{what}: cell ({r}, {c}) of tile {m}x{n} diverged from its single dot"
                );
            }
            runs[0].clone()
        });
        tiles.to_vec()
    }

    #[test]
    fn x4_matches_single_row_dots() {
        for k in [0, 1, 7, 8, 9, 17, 65, 144] {
            let a: Vec<Vec<f32>> = (0..MR as u64).map(|r| det_f32(9 + r, k)).collect();
            let b: Vec<Vec<f32>> = (0..4).map(|r| det_f32(100 + r, k)).collect();
            for skip in [false, true] {
                assert_tiles_match_single_dots(skip, &a, &b, &format!("K {k}, tail skip {skip}"));
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
        for (n, lanes) in specials.iter().enumerate() {
            // A different rotation of the lanes in each of the MR rows.
            let a: Vec<Vec<f32>> = (0..MR)
                .map(|r| (0..8).map(|l| lanes[(l + 3 * r) % 8]).collect())
                .collect();
            let what = format!("special lanes {n}");
            let tiles = assert_tiles_match_single_dots(false, &a, &ones, &what);
            let expect = reduce8(std::array::from_fn(|l| a[0][l].mul_add(1.0, 0.0)));
            // Cell (0, 0) of the 1 × 4 tile: the four-accumulator `hadd` path.
            assert_eq!(tiles[1][0], expect.to_bits(), "{what}");
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
