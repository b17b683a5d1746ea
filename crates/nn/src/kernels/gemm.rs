//! The im2col + GEMM kernels behind the
//! [`KernelFlavor::Optimized`](crate::KernelFlavor::Optimized) and
//! [`KernelFlavor::Simd`](crate::KernelFlavor::Simd) flavors, and the
//! runtime-feature-dispatched SIMD engines beneath the latter.
//!
//! # One driver, two micro-kernels
//!
//! There is one whole-batch `im2col` (generic over the element type: `f32`
//! for the float convolutions, `u8` for the quantized SIMD one) and one
//! tiled float GEMM loop, `gemm_bias_act`, generic — statically dispatched —
//! over a `MicroKernel`, whose single entry point `tile::<M, N>` reduces `M`
//! matrix rows against `N` weight rows: `M · N` accumulator chains in flight
//! (one chain cannot hide a multiply-add's latency), each weight vector
//! loaded once for all `M` rows. The driver asks for `MR × 4` tiles and
//! `1 × 4`, `MR × 1`, `1 × 1` on the ragged edges; every cell of every shape
//! is the micro-kernel's one dot, so the tile shape never moves a bit.
//! `Blocked4` (four striped accumulators per cell, multiply then add) is the
//! optimized flavor; `Lanes8` (the 8-lane virtual-SIMD dot below) is the
//! SIMD flavor. Float `Conv2d` and `FullyConnected` in both flavors are that
//! driver; the reference kernels in `conv.rs` / `fc.rs` are the oracle it is
//! tested against.
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
//! ([`dot_f32_with`], [`dot_q8_with`]) instead of mutating the environment.
//! Those honour a request for [`SimdEngine::Avx2Fma`] only where the CPU
//! really has AVX2+FMA — independent of the override — and otherwise run the
//! mirror, so no caller can reach the intrinsics on a CPU without them.

use std::sync::OnceLock;

use mlexray_tensor::{QuantParams, Tensor};

use crate::graph::{Node, TensorDef};
use crate::kernels::conv::weight_scale;
use crate::kernels::window::WindowGeom;
use crate::kernels::{act_qbounds, f32_slot, out_qparams, qparams_of, requantize, u8_slot};
use crate::ops::{Activation, Padding};
use crate::resolver::{KernelBugs, RequantMode};
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
    runnable(SimdEngine::Avx2Fma)
}

// ---------------------------------------------------------------------------
// Float micro-kernels: how a block of matrix rows is reduced against a block
// of weight rows
// ---------------------------------------------------------------------------

/// A float GEMM micro-kernel — the reduction [`gemm_bias_act`] is generic
/// over.
pub(crate) trait MicroKernel: Copy {
    /// The `M × N` dot products of matrix rows `a` against weight rows `b`
    /// (all of one length): `M · N` independent accumulator chains in
    /// flight, each weight vector loaded once for all `M` rows. Every cell
    /// is bitwise-identical to the `M = N = 1` result on the same pair, so
    /// tiling never changes a bit.
    fn tile<const M: usize, const N: usize>(self, a: [&[f32]; M], b: [&[f32]; N]) -> [[f32; N]; M];
}

/// The [`KernelFlavor::Optimized`](crate::KernelFlavor::Optimized)
/// micro-kernel: four partial accumulators striped over the index plus a
/// sequential remainder, combined as `(s0 + s1) + (s2 + s3) + rest`. This
/// summation order differs from the reference kernels' single sequential
/// accumulator — the benign float drift between the two resolvers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Blocked4;

impl MicroKernel for Blocked4 {
    #[inline]
    fn tile<const M: usize, const N: usize>(self, a: [&[f32]; M], b: [&[f32]; N]) -> [[f32; N]; M] {
        let k = a[0].len();
        // Every row re-sliced to the one length: the stripe loop then carries
        // a single bounds check per four-element step.
        let (a, b) = (a.map(|row| &row[..k]), b.map(|row| &row[..k]));
        let stripe = |row: &[f32], o: usize| -> [f32; 4] {
            *<&[f32; 4]>::try_from(&row[o..o + 4]).expect("a four-element slice")
        };
        let mut s = [[[0.0f32; 4]; N]; M];
        let chunks = k / 4;
        for i in 0..chunks {
            let o = i * 4;
            let bs = b.map(|b| stripe(b, o));
            for (s, a) in s.iter_mut().zip(a) {
                let a = stripe(a, o);
                for (s, b) in s.iter_mut().zip(&bs) {
                    for l in 0..4 {
                        s[l] += a[l] * b[l];
                    }
                }
            }
        }
        // Codegen barrier, not arithmetic: the horizontal sums below would
        // otherwise seed LLVM's SLP vectorizer *across the N outputs*, which
        // transposes every weight stripe inside the loop above (measured:
        // the 2 × 4 tile then runs 1.7 × slower than the old 1 × 4 one).
        // Materializing the accumulators first leaves that loop as `M · N`
        // four-lane multiply + add chains over plain vector loads.
        let s = std::hint::black_box(s);
        let mut rest = [[0.0f32; N]; M];
        for i in chunks * 4..k {
            for (rest, a) in rest.iter_mut().zip(a) {
                for (r, b) in rest.iter_mut().zip(b) {
                    *r += a[i] * b[i];
                }
            }
        }
        std::array::from_fn(|m| {
            std::array::from_fn(|n| {
                let s = s[m][n];
                (s[0] + s[1]) + (s[2] + s[3]) + rest[m][n]
            })
        })
    }
}

/// The [`KernelFlavor::Simd`](crate::KernelFlavor::Simd) micro-kernel: the
/// canonical 8-lane virtual-SIMD dot — 8 fused multiply-add lanes striped
/// over the index, fixed-order lane reduction, sequential fused tail — under
/// an explicit engine, with the injectable K-tail defect.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lanes8 {
    /// Private so that `Avx2Fma` can only get here through [`Lanes8::new`],
    /// which has checked the CPU for it.
    engine: SimdEngine,
    skip_k_tail: bool,
}

impl Lanes8 {
    /// `engine` is honoured only if this CPU can run it; asking for
    /// `Avx2Fma` elsewhere gets the bitwise-identical scalar mirror.
    pub(crate) fn new(engine: SimdEngine, bugs: &KernelBugs) -> Self {
        Lanes8 {
            engine: runnable(engine),
            skip_k_tail: bugs.simd_gemm_k_tail_skip,
        }
    }
}

impl MicroKernel for Lanes8 {
    #[inline]
    fn tile<const M: usize, const N: usize>(self, a: [&[f32]; M], b: [&[f32]; N]) -> [[f32; N]; M] {
        debug_assert!(a.iter().chain(&b).all(|row| row.len() == a[0].len()));
        let len = k_len(a[0].len(), self.skip_k_tail);
        let (a, b) = (a.map(|a| &a[..len]), b.map(|b| &b[..len]));
        match self.engine {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `self.engine` went through `runnable` in `Lanes8::new`,
            // so AVX2 and FMA were detected on this CPU, and every row of
            // `a` and `b` was just sliced to exactly `len` elements.
            SimdEngine::Avx2Fma => unsafe { tile_avx2(len, a, b) },
            _ => a.map(|a| b.map(|b| dot_f32_scalar(a, b))),
        }
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

/// The engine that will actually execute a request for `engine`: `Avx2Fma`
/// only where the CPU has it, else the scalar mirror (same bits either way).
fn runnable(engine: SimdEngine) -> SimdEngine {
    if avx2_fma_available() {
        engine
    } else {
        SimdEngine::Scalar
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
    match runnable(engine) {
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
// im2col and the tiled GEMM driver
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

/// Output rows sharing one weight fetch per GEMM tile: large enough to
/// amortize streaming the weight matrix, small enough that a tile of matrix
/// rows stays cache-resident.
const ROW_TILE: usize = 16;

/// Matrix rows per micro-kernel call, chosen by measurement: `MR × 4`
/// accumulators, the four weight vectors and a matrix vector must fit the
/// sixteen vector registers, eight chains are what two FMA ports × four
/// cycles of latency need, and 2 divides [`ROW_TILE`]. `Conv` time on
/// `mobilenet_v2@48` as a multiple of the untouched depthwise kernel's in
/// the same run (three interleaved rounds on a shared 2-vCPU AVX2 host whose
/// speed drifted ± 40 % between runs; the ratio held), SIMD flavor, batch 4:
/// `MR` 1 → 5.4–6.2, **2 → 3.9–4.6**, 3 → 4.9–5.8, 4 → 5.7–6.2 (the 1 × 4
/// tile this replaced: 5.1); the optimized flavor orders the same way
/// (7.2–7.6, **5.8–6.5**, 7.4–8.5, 8.1–9.7).
const MR: usize = 2;

/// The operands of one [`gemm_bias_act`] call, shared by every block of it.
struct Gemm<'a, K> {
    kernel: K,
    matrix: &'a [f32],
    w: &'a [f32],
    bias: Option<&'a [f32]>,
    k: usize,
    out_c: usize,
    activation: Activation,
}

impl<K: MicroKernel> Gemm<'_, K> {
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

/// The one float GEMM loop: `out[r, oc] = activation(matrix[r] · w[oc] +
/// bias[oc])` over `matrix: [rows, k]`, `w: [out_c, k]`, `out: [rows,
/// out_c]`, tiled [`ROW_TILE`] rows × 4 output channels and walked in
/// [`MR`]` × 4` micro-kernel tiles (`1 × 4`, `MR × 1` and `1 × 1` on the
/// ragged edges). Tiling only reorders *which* cell is computed when — each
/// cell's arithmetic is the micro-kernel's single dot.
fn gemm_bias_act<K: MicroKernel>(
    kernel: K,
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

// ---------------------------------------------------------------------------
// Kernel entry points (dispatched from `execute_node`)
// ---------------------------------------------------------------------------

/// Optimized / SIMD float convolution: whole-batch [`im2col`] then
/// [`gemm_bias_act`] under the flavor's micro-kernel. Handles any batch size
/// natively, so `invoke` and `invoke_batch` run the same code.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv2d_f32_gemm<K: MicroKernel>(
    kernel: K,
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
    let ksize = g.patch_len();
    let out = f32_slot(out_t, out_def)?;
    gemm_bias_act(
        kernel,
        matrix,
        weights.as_f32()?,
        bias,
        ksize,
        activation,
        out,
    );
    Ok(())
}

/// Optimized / SIMD float fully-connected layer, `[n, in] x [out, in]^T`:
/// [`gemm_bias_act`] with the activations as the matrix.
pub(crate) fn fc_f32_gemm<K: MicroKernel>(
    kernel: K,
    inputs: &[&Tensor],
    out_def: &TensorDef,
    activation: Activation,
    out_t: &mut Tensor,
) -> Result<()> {
    let bias = inputs.get(2).map(|t| t.as_f32()).transpose()?;
    let in_f = inputs[1].shape().dims()[1];
    let out = f32_slot(out_t, out_def)?;
    gemm_bias_act(
        kernel,
        inputs[0].as_f32()?,
        inputs[1].as_f32()?,
        bias,
        in_f,
        activation,
        out,
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

#[cfg(test)]
mod tests {
    use super::*;
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

    /// The tiled driver against one micro-kernel dot per cell, on a shape
    /// ragged in every tiled dimension — 19 rows (∤ 16, an odd row inside
    /// the last tile), 7 output channels (∤ 4), K = 13 (∤ 4, ∤ 8) — and on
    /// matrices of one row (no `MR` pair at all) and two (exactly one).
    #[test]
    fn gemm_driver_matches_per_cell_dots_on_ragged_shapes() {
        fn check<K: MicroKernel>(kernel: K) {
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
        check(Blocked4);
        check(Lanes8::new(active_engine(), &KernelBugs::none()));
    }

    /// `tile::<M, N>` on rows `a[..M]` × `b[..N]`, flattened row-major.
    fn tile_bits<K: MicroKernel, const M: usize, const N: usize>(
        kernel: K,
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
    fn driver_tiles<K: MicroKernel>(
        kernel: K,
        a: &[Vec<f32>],
        b: &[Vec<f32>],
    ) -> Vec<(usize, usize, Vec<u32>)> {
        vec![
            (MR, 4, tile_bits::<K, MR, 4>(kernel, a, b)),
            (1, 4, tile_bits::<K, 1, 4>(kernel, a, b)),
            (MR, 1, tile_bits::<K, MR, 1>(kernel, a, b)),
            (1, 1, tile_bits::<K, 1, 1>(kernel, a, b)),
        ]
    }

    /// Every cell of every tile shape equals the `tile::<1, 1>` result on the
    /// same pair of rows.
    fn assert_tiles_match_single_dots<K: MicroKernel>(
        kernel: K,
        a: &[Vec<f32>],
        b: &[Vec<f32>],
        what: &str,
    ) {
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
            assert_tiles_match_single_dots(Blocked4, &a, &b, &format!("Blocked4, K {k}"));
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
