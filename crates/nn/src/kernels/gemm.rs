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
//! over a `MicroKernel`: how one matrix row is reduced against one or four
//! weight rows. `Blocked4` (four striped scalar accumulators) is the
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
//! horizontal reduction `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))` (never
//! `hadd`), and a sequential fused tail. Consequently the engine choice never
//! changes a single output bit: golden records made on an AVX2 machine
//! verify on any host, and the CI forced-scalar run (`MLEXRAY_SIMD=scalar`)
//! must match the feature-dispatched run exactly. Quantized kernels
//! accumulate in exact `i32` arithmetic, where any summation order is
//! identical — they are bitwise-equal to the *reference* kernels too.
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
// Float micro-kernels: how one matrix row is reduced against weight rows
// ---------------------------------------------------------------------------

/// A float GEMM micro-kernel — the reduction [`gemm_bias_act`] is generic
/// over.
pub(crate) trait MicroKernel: Copy {
    /// `N` dot products sharing the left-hand row `a` (loaded once, `N`
    /// independent accumulator chains in flight). Each result is
    /// bitwise-identical to the `N = 1` result on the same pair, so tiling
    /// output channels never changes a bit.
    fn dots<const N: usize>(self, a: &[f32], b: [&[f32]; N]) -> [f32; N];
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
    fn dots<const N: usize>(self, a: &[f32], b: [&[f32]; N]) -> [f32; N] {
        debug_assert!(b.iter().all(|b| b.len() == a.len()));
        let mut s = [[0.0f32; 4]; N];
        let chunks = a.len() / 4;
        for i in 0..chunks {
            let o = i * 4;
            let (a0, a1, a2, a3) = (a[o], a[o + 1], a[o + 2], a[o + 3]);
            for (s, b) in s.iter_mut().zip(b) {
                s[0] += a0 * b[o];
                s[1] += a1 * b[o + 1];
                s[2] += a2 * b[o + 2];
                s[3] += a3 * b[o + 3];
            }
        }
        let mut rest = [0.0f32; N];
        for i in chunks * 4..a.len() {
            for (r, b) in rest.iter_mut().zip(b) {
                *r += a[i] * b[i];
            }
        }
        std::array::from_fn(|k| (s[k][0] + s[k][1]) + (s[k][2] + s[k][3]) + rest[k])
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
    fn dots<const N: usize>(self, a: &[f32], b: [&[f32]; N]) -> [f32; N] {
        debug_assert!(b.iter().all(|b| b.len() == a.len()));
        let len = k_len(a.len(), self.skip_k_tail);
        let (a, b) = (&a[..len], b.map(|b| &b[..len]));
        match self.engine {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `self.engine` went through `runnable` in `Lanes8::new`,
            // so AVX2 and FMA were detected on this CPU, and every row was
            // just sliced to `a`'s length.
            SimdEngine::Avx2Fma => unsafe { dots_avx2(a, b) },
            _ => b.map(|b| dot_f32_scalar(a, b)),
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
    Lanes8::new(engine, &KernelBugs::none()).dots(a, [b])[0]
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

/// # Safety
///
/// The CPU must support AVX2 and FMA, and every row of `b` must be at least
/// as long as `a`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dots_avx2<const N: usize>(a: &[f32], b: [&[f32]; N]) -> [f32; N] {
    use std::arch::x86_64::*;
    let mut acc = [_mm256_setzero_ps(); N];
    let chunks = a.len() / SIMD_LANES;
    for i in 0..chunks {
        let o = i * SIMD_LANES;
        let va = _mm256_loadu_ps(a.as_ptr().add(o));
        for (acc, b) in acc.iter_mut().zip(b) {
            *acc = _mm256_fmadd_ps(va, _mm256_loadu_ps(b.as_ptr().add(o)), *acc);
        }
    }
    let mut out = [0.0f32; N];
    for (sum, acc) in out.iter_mut().zip(acc) {
        let mut lanes = [0.0f32; SIMD_LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        *sum = reduce8(lanes);
    }
    for i in chunks * SIMD_LANES..a.len() {
        for (sum, b) in out.iter_mut().zip(b) {
            *sum = a[i].mul_add(b[i], *sum);
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

/// The one float GEMM loop: `out[r, oc] = activation(matrix[r] · w[oc] +
/// bias[oc])` over `matrix: [rows, k]`, `w: [out_c, k]`, `out: [rows,
/// out_c]`, tiled [`ROW_TILE`] rows × 4 output channels around the
/// micro-kernel `kernel`. Tiling only reorders *which* cell is computed
/// when — each cell's arithmetic is the micro-kernel's single dot.
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
    let wrow = |oc: usize| &w[oc * k..][..k];
    let bias_at = |oc: usize| bias.map_or(0.0, |b| b[oc]);
    for r0 in (0..rows).step_by(ROW_TILE) {
        let tile = r0..(r0 + ROW_TILE).min(rows);
        let mut oc = 0usize;
        while oc + 4 <= out_c {
            let ws: [&[f32]; 4] = std::array::from_fn(|j| wrow(oc + j));
            let b: [f32; 4] = std::array::from_fn(|j| bias_at(oc + j));
            for r in tile.clone() {
                let accs = kernel.dots(&matrix[r * k..][..k], ws);
                for j in 0..4 {
                    out[r * out_c + oc + j] = activation.apply(accs[j] + b[j]);
                }
            }
            oc += 4;
        }
        while oc < out_c {
            for r in tile.clone() {
                let [acc] = kernel.dots(&matrix[r * k..][..k], [wrow(oc)]);
                out[r * out_c + oc] = activation.apply(acc + bias_at(oc));
            }
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

    fn det_f32(seed: u64, n: usize) -> Vec<f32> {
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
    /// ragged in every tiled dimension: 19 rows (∤ 16), 7 output channels
    /// (∤ 4), K = 13 (∤ 4, ∤ 8).
    #[test]
    fn gemm_driver_matches_per_cell_dots_on_ragged_shapes() {
        fn check<K: MicroKernel>(kernel: K) {
            let (rows, out_c, k) = (19, 7, 13);
            let matrix = det_f32(1, rows * k);
            let w = det_f32(2, out_c * k);
            let bias = det_f32(3, out_c);
            let mut out = vec![f32::NAN; rows * out_c];
            let act = Activation::Relu;
            gemm_bias_act(kernel, &matrix, &w, Some(&bias), k, act, &mut out);
            for r in 0..rows {
                for oc in 0..out_c {
                    let [dot] = kernel.dots(&matrix[r * k..][..k], [&w[oc * k..][..k]]);
                    assert_eq!(
                        out[r * out_c + oc].to_bits(),
                        act.apply(dot + bias[oc]).to_bits(),
                        "cell ({r}, {oc})"
                    );
                }
            }
        }
        check(Blocked4);
        check(Lanes8::new(active_engine(), &KernelBugs::none()));
    }

    #[test]
    fn x4_matches_single_row_dots() {
        let engine = active_engine();
        let kernel = Lanes8::new(engine, &KernelBugs::none());
        for len in [1, 8, 17, 65] {
            let a = det_f32(9, len);
            let rows: Vec<Vec<f32>> = (0..4).map(|r| det_f32(100 + r, len)).collect();
            let x4 = kernel.dots(&a, [&rows[0], &rows[1], &rows[2], &rows[3]]);
            for k in 0..4 {
                assert_eq!(
                    x4[k].to_bits(),
                    dot_f32_with(engine, &a, &rows[k]).to_bits(),
                    "x4 lane {k} diverged at len {len}"
                );
            }
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
