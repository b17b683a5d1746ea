//! The GEMM kernels — the float `Conv2d` and `FullyConnected` of the
//! [`Optimized`](crate::KernelFlavor::Optimized) and
//! [`Simd`](crate::KernelFlavor::Simd) flavors, and the
//! quantized ones of every flavor — the runtime-feature-dispatched engines
//! beneath them, and the engine-explicit entry points the cross-engine test
//! suites pin those engines with.
//!
//! # One tile walk, three chain rules, one way to read a window
//!
//! No kernel here builds a patch matrix. Both `FullyConnected` layers, and
//! a pointwise `Conv2d` (1×1, stride 1), reduce their input as the matrix
//! itself; every other `Conv2d` reads its windows in place (below). One
//! walk, `walk_tiles`, drives the float GEMM of both flavors —
//! `ROW_TILE`-row tiles × column strips × a few rows at a time, as the rule
//! steps (`ChainRule::strip`: `MR`, then the odd row; four rows first
//! across the Simd rule's eight-wide strips in its AVX-512 build;
//! `PANEL_MR` for the panels) — adds the bias, and applies the activation
//! once per tile; it and every chain rule are generic over how a matrix
//! row is read (`MatrixRows`: a row-major matrix, or a convolution's
//! windows). What sums `M` matrix rows against one strip is the flavor's
//! chain rule, because each flavor's summation tree is pinned by its
//! goldens:
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
//!   vector loaded once for all rows; in the AVX-512 build, strips of eight
//!   rows first, four matrix rows at a time (below). Every cell of every
//!   shape is the micro-kernel's one dot, so the tile shape never moves a
//!   bit.
//! * **Simd on narrow reductions — `Lanes8` panels.** Where `k = kh·kw·in_c`
//!   is at most [`NARROW_K`], the AVX-512 build reads a `Conv2d`'s weights
//!   packed once into 16-channel panels `[k][16]` (`pack_lanes8_panels`)
//!   and puts the channels, not the virtual lanes, in the vector lanes
//!   (below): the same dot per cell, with no horizontal reduction.
//!
//! The reference kernels in `conv.rs` / `fc.rs` are the oracle both are
//! tested against.
//!
//! # Windows read in place
//!
//! A patch (im2col) matrix would copy every window — `kh · kw` taps of `c`
//! floats per output cell — into a matrix row. A windowed float `Conv2d`
//! copies the input once instead, row by row, into a zero-bordered buffer
//! of `n × ((oh − 1)·s + kh) × ((ow − 1)·s + kw) × c` — the input plus the
//! padding its windows reach, kept in the interpreter's scratch on every
//! engine — and reads tap `p` of row `r` at `origin(r) + tap_offset[p]`,
//! the tap offsets written on every call from the same `WindowGeom` into a
//! buffer kept there too. Element `p` of a window then holds exactly what
//! element `p` of its im2col row would hold, the input or a `0.0`, and
//! every chain rule meets the same terms in the same order; the im2col
//! matrix survives only in this module's tests, as the oracle every
//! windowed kernel is held to bit for bit. Padding taps are still
//! multiplied and added as `0.0 · w`, not skipped: a `±∞` or NaN weight on
//! a padding tap makes the cell NaN (`0 · ∞` is NaN) as it would in a
//! matrix row, and no partial sum drops or gains a zero term. A rule reads
//! a row a few elements at a time (`RowRead::chunk`): a slice of a matrix
//! row, or a window's taps gathered into registers, across window rows.
//!
//! The quantized `Conv2d` and `FullyConnected` are one kernel each for
//! every flavor (`conv2d_q`, `fc_q`): one exact `i32` dot per output value
//! against the row-major `i8` weights, output channel by output channel,
//! each channel's requantization multiplier computed once per node. A
//! windowed `Conv2d` borders its `u8` input with the input zero point and
//! reads each window as its `kh` contiguous runs of `kw · in_c` bytes, each
//! run an exact dot against the matching segment of the weight row; a
//! plain matrix row is the one-run case. The output loop is one native body
//! (`q8_gemm`), entered once per node, and its dot is plain integer Rust
//! that both builds vectorize (`pmaddwd` in the baseline, `vpmaddwd` in the
//! AVX2 one). The scalar loops the reference and optimized flavors ran
//! before are kept verbatim in this module's tests, which hold both kernels
//! to them bit for bit.
//!
//! # Native builds at the host's vector width
//!
//! The x86-64 baseline the crate compiles for is SSE2: four `f32` lanes.
//! The kernels of the three native flavors — the float GEMM drivers here
//! with both their rules, the int8 GEMM, the reference `Conv2d` panel
//! chains and the shared depthwise kernel in `conv.rs` — are each written
//! once, as an `#[inline(always)]` body (`native_kernel!` in
//! `kernels/mod.rs`), and compiled twice: for the baseline, and once more
//! under `#[target_feature(enable = "avx2", enable = "fma")]`, which runs
//! when the checked `Engine` says `Avx2Fma` or `Avx512`. Enabling `fma`
//! moves no bit of an unfused kernel: Rust never contracts `a + x * w`, so
//! every product is still rounded before it is added, and the AVX2+FMA
//! build performs the same operations in the same order on eight lanes
//! and returns the baseline build's bits. The fused kernel, the Simd
//! rule's `lanes8_gemm` (generic over how it reads its rows, like the
//! Optimized `blocked4_gemm`), runs its intrinsics inlined into that build
//! — driver, tile and epilogue one function, no call per tile — and the
//! baseline build runs the scalar mirror. It alone opts into a third
//! build, under `avx512f` as well, which an `Avx512` engine runs; the
//! Optimized rule is a kernel of its own, so the Optimized convolutions
//! keep their two builds.
//! `MLEXRAY_SIMD=scalar` runs the baseline build.
//!
//! # Three builds, one contract
//!
//! The `Lanes8` tiles are the one intrinsic kernel left. Their dot is
//! defined in terms of one canonical "8-lane virtual SIMD" arithmetic,
//! implemented three times:
//!
//! * an **AVX-512F** engine and an **AVX2/FMA** engine (x86_64 only, behind
//!   one-time runtime feature detection; each float tile is compiled only
//!   into its own build, which only an `Engine` holding that engine enters,
//!   so the build it is inlined into is what makes its intrinsics safe to
//!   run), and
//! * a **scalar mirror** that performs the *same* per-lane operations in the
//!   same order with [`f32::mul_add`] (IEEE-754 fused multiply-add, exactly
//!   what `vfmadd` computes).
//!
//! The engines are **bitwise identical** by construction: per-lane FMA
//! (`_mm256_fmadd_ps` and `_mm512_fmadd_ps` ≡ `f32::mul_add` lane by lane),
//! a fixed-order horizontal reduction `((l0+l1)+(l2+l3)) +
//! ((l4+l5)+(l6+l7))`, and a sequential fused tail. The AVX2 engine
//! reduces four accumulators at once without leaving the registers, with
//! `hadd` — but only in the one order that *is* that tree (two rounds of
//! `hadd` pair the lanes exactly as written above, then the low half is
//! added to the high half); any other horizontal shuffle would reassociate
//! the sum. The AVX-512 tile (`tile_avx512`) is four matrix rows × eight
//! channels: each row's four `zmm` accumulators hold channel `p` in the
//! low 256 bits and channel `p + 4` in the high, fed per 8-element chunk
//! by one 256→512-bit broadcast of the row chunk and two 256-bit weight
//! loads joined per channel pair — so the row-major weights need no
//! packing, and no second copy of them is kept. Its reduction is the same
//! tree: `hadd` does not exist at 512 bits, but `shuffle_ps(x, y, 0x88) +
//! shuffle_ps(x, y, 0xDD)` is its pairing within each 128-bit lane, lower
//! operand first; two rounds of it leave `(l0+l1)+(l2+l3)` and
//! `(l4+l5)+(l6+l7)` of every channel in separate 128-bit lanes, and one
//! lane shuffle plus one add sums them low + high, leaving the eight
//! channels in order in one `ymm`. Its K tail is one `ymm` fused
//! multiply-add per element across the eight channels — lane `j` the
//! scalar tail's `a[i] · b[j][i] + sum`, in the same order. On a shared
//! 2-vCPU AVX-512 host a loop of independent FMAs peaks at about 43 MAC/ns
//! in `ymm` and 86 in `zmm` (two 512-bit FMA ports); the AVX2 tile reached
//! 27–32 MAC/ns on wide `k`, and 12–24 on the narrow `k` of 16–32 where
//! its per-cell reductions dominate.
//!
//! On those narrow `k` the `zmm` tile's three-round shuffle tree still
//! costs as many vector operations per row as the two to eight fused
//! multiply-adds per lane it reduces. The panel tile (`panel_avx512`)
//! turns the layout around: a virtual lane is a register and a channel is
//! a vector lane. Each of `M` rows keeps eight `zmm` accumulators;
//! accumulator `l` takes elements `l, l + 8, …` of the row, each broadcast
//! to all sixteen lanes, times the panel's sixteen weights of that element,
//! by `_mm512_fmadd_ps` in index order from `+0.0` — so vector lane `c` of
//! accumulator `l` performs exactly the operations of lane `l` of
//! `lanes8_dot` for channel `c`. `reduce8`'s tree is then seven
//! *vertical* adds, `((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7))`,
//! one per tree node for all sixteen channels at once, and the K tail is
//! one fused multiply-add per element to `len` (so the `skip_k_tail`
//! defect fires as before). The ragged channel edge is zero-padded in the
//! panel and masked off at the store. Every lane performs one cell's
//! canonical operations in order, so no output bit can move. On wide `k`
//! the row-major tile stays: its reduction is spread over many fused
//! multiply-adds, and it loads three vectors for every four of them, where
//! the panel tile, which broadcasts every element of every row, loads four
//! for every three — see [`NARROW_K`] for where that crosses over. The
//! AVX2+FMA and baseline builds keep `tile_avx2` and the scalar mirror:
//! the interpreter packs the panels only for an AVX-512 engine, and the
//! rule's own mirror (`Lanes8Panels::cells`, one cell at a time) serves the
//! engine-explicit test entry points and the property suites.
//!
//! Consequently the engine choice never
//! changes a single output bit: golden records made on an AVX2 or AVX-512
//! machine verify on any host, and the CI forced-scalar run
//! (`MLEXRAY_SIMD=scalar`) must match the feature-dispatched run exactly.
//! The int8 dot needs no mirror: it is a portable body that both builds
//! vectorize, accumulating in exact `i32` arithmetic, where any summation
//! order is identical, so it is bitwise-equal to the scalar oracle loops in
//! either build.
//!
//! Feature detection runs **once** per process ([`OnceLock`]), here and
//! nowhere else in the crate; per-call dispatch is a single atomic load.
//! The engines form a ladder — `Avx512` needs AVX-512F, AVX2 and FMA,
//! `Avx2Fma` the last two — and the process runs the highest rung the CPU
//! has. `MLEXRAY_SIMD=scalar` in the environment forces the scalar engine
//! (the CI fallback leg); tests that need every engine in one process use
//! the engine-explicit entry points ([`dot_f32_with`],
//! [`execute_node_with`]) instead of mutating the environment. Those honour
//! a request for an engine only where the CPU really has it — independent
//! of the override — and otherwise run the next rung down, so no caller can
//! reach intrinsics on a CPU without them.

use std::sync::OnceLock;

use mlexray_tensor::{Shape, Tensor};

use crate::backend::BackendSpec;
use crate::graph::{Graph, Node, NodeId, TensorDef};
use crate::kernels::conv::weight_panels;
use crate::kernels::window::{BorderedSteps, WindowGeom, WindowRuns};
use crate::kernels::{
    execute_node, f32_slot, qparams_of, room, u8_slot, KernelCtx, Kernels, Requant, Scratch,
};
use crate::ops::{Activation, Padding};
use crate::resolver::RequantMode;
use crate::Result;

/// Vector width of the canonical virtual-SIMD arithmetic (f32 lanes).
pub const SIMD_LANES: usize = 8;

/// The instruction engine backing the SIMD kernels.
///
/// Every engine computes bit-identical results (see the module docs); the
/// enum only selects how fast the bits are produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdEngine {
    /// 512-bit AVX-512F intrinsics for the Simd flavor's GEMM, the
    /// AVX2+FMA builds for every other native kernel (x86_64,
    /// runtime-detected).
    Avx512,
    /// 256-bit AVX2 + FMA intrinsics (x86_64, runtime-detected).
    Avx2Fma,
    /// The portable scalar mirror of the same arithmetic.
    Scalar,
}

impl SimdEngine {
    /// Every engine, widest first: what a test that pins the builds
    /// against each other iterates.
    pub const ALL: [SimdEngine; 3] = [SimdEngine::Avx512, SimdEngine::Avx2Fma, SimdEngine::Scalar];

    /// Stable label for logs and benchmark artifacts.
    pub fn label(self) -> &'static str {
        match self {
            SimdEngine::Avx512 => "avx512f",
            SimdEngine::Avx2Fma => "avx2+fma",
            SimdEngine::Scalar => "scalar",
        }
    }

    /// Its rung on the fallback ladder `Avx512` → `Avx2Fma` → `Scalar`:
    /// an engine runs everything a lower rung needs.
    fn rung(self) -> u8 {
        match self {
            SimdEngine::Avx512 => 2,
            SimdEngine::Avx2Fma => 1,
            SimdEngine::Scalar => 0,
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
    cpu_engine()
}

/// A [`SimdEngine`] checked against this CPU — the one form in which an
/// engine reaches a kernel, so `Avx512` inside an `Engine` means AVX-512F,
/// AVX2 and FMA were detected, and `Avx2Fma` that AVX2 and FMA were.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Engine(SimdEngine);

impl Engine {
    /// `engine` where this CPU can run it, whatever `MLEXRAY_SIMD` says;
    /// else the next rung down the ladder `Avx512` → `Avx2Fma` → `Scalar`
    /// that it can (same bits on every rung).
    pub(crate) fn runnable(engine: SimdEngine) -> Self {
        let cpu = cpu_engine();
        Engine(if engine.rung() <= cpu.rung() {
            engine
        } else {
            cpu
        })
    }

    /// This process's engine, [`active_engine`].
    pub(crate) fn active() -> Self {
        Engine(active_engine())
    }

    pub(crate) fn get(self) -> SimdEngine {
        self.0
    }
}

/// The widest engine this CPU can run, whatever `MLEXRAY_SIMD` says:
/// `Avx512` with AVX-512F, AVX2 and FMA, `Avx2Fma` with the last two. The
/// one place the crate probes the CPU, once per process.
fn cpu_engine() -> SimdEngine {
    static CPU: OnceLock<SimdEngine> = OnceLock::new();
    *CPU.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            match (has!("avx2") && has!("fma"), has!("avx512f")) {
                (true, true) => SimdEngine::Avx512,
                (true, false) => SimdEngine::Avx2Fma,
                (false, _) => SimdEngine::Scalar,
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            SimdEngine::Scalar
        }
    })
}

// ---------------------------------------------------------------------------
// The Simd flavor's micro-kernel
// ---------------------------------------------------------------------------

/// Canonical virtual-SIMD dot product under an explicit engine — 8 fused
/// multiply-add lanes striped over the index, fixed-order lane reduction,
/// sequential fused tail — run as one row × one channel of the Simd
/// `float_gemm`, through the build serving runs. Public so test suites
/// can pin the engines against each other in one process; a request for
/// an engine this CPU lacks runs the next rung down the ladder.
///
/// # Panics
///
/// If `a` and `b` differ in length.
pub fn dot_f32_with(engine: SimdEngine, a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    let (engine, k, skip_k_tail) = (Engine::runnable(engine), a.len(), false);
    let mut out = [0.0];
    // A `-0.0` bias is the identity of addition: the cell is the dot's bits.
    let lanes8 = Reduction::Lanes8 {
        w: b,
        panels: None,
        skip_k_tail,
    };
    let (rows, bias) = (Dense { matrix: a, k }, Some(&[-0.0][..]));
    float_gemm(engine, lanes8, rows, 1, bias, Activation::None, &mut out);
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

/// The canonical dot of the first `len` elements of row `a` and of `b`,
/// the scalar mirror of the `Lanes8` tiles: eight fused multiply-add lanes
/// striped over the index, [`reduce8`], then a sequential fused tail.
fn lanes8_dot<R: RowRead>(a: R, b: &[f32], len: usize) -> f32 {
    let mut lanes = [0.0f32; SIMD_LANES];
    let chunks = len / SIMD_LANES;
    for i in 0..chunks {
        let (x, w) = (a.chunk::<SIMD_LANES>(i), &b[i * SIMD_LANES..][..SIMD_LANES]);
        for ((acc, x), w) in lanes.iter_mut().zip(x).zip(w) {
            *acc = x.mul_add(*w, *acc);
        }
    }
    let mut sum = reduce8(lanes);
    for (p, w) in b[..len].iter().enumerate().skip(chunks * SIMD_LANES) {
        sum = a.at(p).mul_add(*w, sum);
    }
    sum
}

/// The canonical lane reduction: a fixed binary tree, never reassociated.
#[inline]
fn reduce8(l: [f32; 8]) -> f32 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// The AVX2+FMA engine's `M × N` tile: the dots of the first `len`
/// elements of the `M` rows `a` and of the `N` rows of `b`, `stride` apart,
/// in `M · N` `ymm` accumulators that stay in registers across the K loop.
/// A row is read eight elements at a time ([`RowRead::chunk`]) into one
/// register. Not a `#[target_feature]` function of its own, so that it
/// inlines into [`lanes8_gemm`]'s AVX2+FMA build — the only caller — and
/// its intrinsics compile to the instructions in place.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA. The AVX2+FMA build of
/// `native_kernel!` runs only for an `Engine` holding `Avx2Fma`, so this
/// holds wherever that build calls it. Every row of `a` must hold at least
/// `len` elements: the tile reads them unchecked
/// ([`RowRead::chunk_unchecked`]), eight at a time and then the tail one at
/// a time. (Every weight load is within the `len` elements each row of `b`
/// was sliced to.)
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn tile_avx2<R: RowRead, const M: usize, const N: usize>(
    a: [R; M],
    b: &[f32],
    stride: usize,
    len: usize,
) -> [[f32; N]; M] {
    use std::arch::x86_64::*;
    let b: [&[f32]; N] = std::array::from_fn(|j| &b[j * stride..][..len]);
    let mut acc = [[_mm256_setzero_ps(); N]; M];
    let chunks = len / SIMD_LANES;
    for i in 0..chunks {
        let o = i * SIMD_LANES;
        let vb = b.map(|b| _mm256_loadu_ps(b.as_ptr().add(o)));
        for (acc, a) in acc.iter_mut().zip(a) {
            let va = _mm256_loadu_ps(a.chunk_unchecked::<SIMD_LANES>(i).as_ptr());
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
    for i in chunks * SIMD_LANES..len {
        for (out, a) in out.iter_mut().zip(a) {
            let a = a.chunk_unchecked::<1>(i)[0];
            for (sum, b) in out.iter_mut().zip(b) {
                *sum = a.mul_add(b[i], *sum);
            }
        }
    }
    out
}

/// The AVX-512F engine's `M × 8` tile: the dots of the first `len`
/// elements of the `M` rows `a` and of the eight rows of `b`, `stride`
/// apart. Each row keeps four `zmm` accumulators; accumulator `p` holds the
/// eight lanes of channel `p` in its low half and those of channel `p + 4`
/// in its high half, so each 8-element chunk is one broadcast of the row
/// chunk to both halves, two 256-bit weight loads joined per channel pair
/// (the row-major weights need no packing) and four fused multiply-adds
/// per row — lane `l` of every cell the lane `l` of [`tile_avx2`]'s. The
/// reduction is `reduce8`'s tree in registers: two rounds of pairwise sums
/// within each 128-bit lane (`hadd`'s pairing, built from two shuffles,
/// lower operand first), then the 128-bit lane of low-half sums plus the
/// lane of high-half sums, which leaves the eight channels in order in one
/// `ymm`. The K tail adds one fused multiply-add per element across the
/// eight channels: lane `j` takes `a[i] · b[j][i] + sum`, the scalar
/// tail's operation on cell `j`, in the same order. `N` must be 8; it is a
/// parameter so that the tile fits [`ChainRule::sums`]. Inlines into
/// [`lanes8_gemm`]'s AVX-512 build, its only caller.
///
/// # Safety
///
/// The CPU must support AVX-512F, AVX2 and FMA. The AVX-512 build of
/// `native_kernel!` runs only for an `Engine` holding `Avx512`, so this
/// holds wherever that build calls it. Every row of `a` must hold at least
/// `len` elements, as for [`tile_avx2`]. (Every weight load is within the
/// `len` elements each row of `b` was sliced to.)
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn tile_avx512<R: RowRead, const M: usize, const N: usize>(
    a: [R; M],
    b: &[f32],
    stride: usize,
    len: usize,
) -> [[f32; N]; M] {
    use std::arch::x86_64::*;
    assert_eq!(N, 8, "the zmm tile is eight channels wide");
    let b: [&[f32]; N] = std::array::from_fn(|j| &b[j * stride..][..len]);
    let mut acc = [[_mm512_setzero_ps(); 4]; M];
    let chunks = len / SIMD_LANES;
    for i in 0..chunks {
        let o = i * SIMD_LANES;
        // Written out: an `array::from_fn` closure stayed a call in the
        // one-row tile, compiled without AVX-512.
        macro_rules! pair {
            ($p:expr) => {{
                let low = _mm256_loadu_ps(b[$p].as_ptr().add(o));
                let high = _mm256_castps_pd(_mm256_loadu_ps(b[$p + 4].as_ptr().add(o)));
                let low = _mm512_castps_pd(_mm512_castps256_ps512(low));
                _mm512_castpd_ps(_mm512_insertf64x4::<1>(low, high))
            }};
        }
        let vb = [pair!(0), pair!(1), pair!(2), pair!(3)];
        for (acc, a) in acc.iter_mut().zip(a) {
            let va = _mm256_loadu_pd(a.chunk_unchecked::<SIMD_LANES>(i).as_ptr().cast());
            let va = _mm512_castpd_ps(_mm512_broadcast_f64x4(va));
            for (acc, vb) in acc.iter_mut().zip(vb) {
                *acc = _mm512_fmadd_ps(va, vb, *acc);
            }
        }
    }
    // Within each 128-bit lane, `[x0 + x1, x2 + x3, y0 + y1, y2 + y3]`.
    macro_rules! hadd {
        ($x:expr, $y:expr) => {{
            let (x, y) = ($x, $y);
            _mm512_add_ps(
                _mm512_shuffle_ps::<0x88>(x, y),
                _mm512_shuffle_ps::<0xDD>(x, y),
            )
        }};
    }
    let mut out = [[0.0f32; N]; M];
    for ((out, acc), a) in out.iter_mut().zip(acc).zip(a) {
        // Lane `j` of the four 128-bit lanes of `h`: `(l0+l1)+(l2+l3)` of
        // channel `j`, `(l4+l5)+(l6+l7)` of channel `j`, then the same of
        // channel `j + 4`. Low-half sums plus high-half sums is the tree.
        let h = hadd!(hadd!(acc[0], acc[1]), hadd!(acc[2], acc[3]));
        let low = _mm512_shuffle_f32x4::<0b10_00_10_00>(h, h);
        let high = _mm512_shuffle_f32x4::<0b11_01_11_01>(h, h);
        let mut sums = _mm512_castps512_ps256(_mm512_add_ps(low, high));
        #[allow(clippy::needless_range_loop)] // `i` indexes eight weight rows
        for i in chunks * SIMD_LANES..len {
            let w = _mm256_setr_ps(
                b[0][i], b[1][i], b[2][i], b[3][i], b[4][i], b[5][i], b[6][i], b[7][i],
            );
            sums = _mm256_fmadd_ps(_mm256_set1_ps(a.chunk_unchecked::<1>(i)[0]), w, sums);
        }
        _mm256_storeu_ps(out.as_mut_ptr(), sums);
    }
    out
}

/// The AVX-512F engine's panel tile: `M` matrix rows against one
/// [`PANEL`]-channel panel `[k][16]` ([`pack_lanes8_panels`]), each channel
/// a vector lane. Every row keeps eight `zmm` accumulators, one per virtual
/// lane of the canonical dot: accumulator `l` takes elements `l, l + 8, …`
/// of the row, broadcast, times the panel's row of that element, by one
/// fused multiply-add each, in index order from `+0.0` — so vector lane `c`
/// of accumulator `l` is exactly lane `l` of [`lanes8_dot`] for channel
/// `c`. `reduce8`'s tree is then seven vertical adds, and the K tail one
/// fused multiply-add per element up to `len`, again channel-wise, each
/// panel row loaded once for all `M` rows. The sum plus `bias` (`+0.0`
/// where there is none) goes to the first `width` channels of each row's
/// `out[m · out_c..]`, which `mask` holds; the other lanes are not stored.
///
/// # Safety
///
/// The CPU must support AVX-512F. The AVX-512 build of `native_kernel!`
/// runs only for an `Engine` holding `Avx512`, so this holds wherever that
/// build calls it. (Every panel load lies within the `len` panel rows
/// `panel` is sliced to, and the masked stores touch only the `width`
/// elements each row of `out` is sliced to, `mask` having `width` bits.)
#[cfg(target_arch = "x86_64")]
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn panel_avx512<R: RowRead, const M: usize>(
    a: [R; M],
    panel: &[f32],
    len: usize,
    (mask, width): (std::arch::x86_64::__mmask16, usize),
    bias: std::arch::x86_64::__m512,
    out: &mut [f32],
    out_c: usize,
) {
    use std::arch::x86_64::*;
    debug_assert_eq!(u32::from(mask).count_ones() as usize, width);
    let panel = &panel[..len * PANEL];
    let mut acc = [[_mm512_setzero_ps(); SIMD_LANES]; M];
    let chunks = len / SIMD_LANES;
    for (i, w) in panel.chunks_exact(SIMD_LANES * PANEL).enumerate() {
        // No closure here: one stays a call compiled without AVX-512.
        let mut x = [[0.0f32; SIMD_LANES]; M];
        for (x, a) in x.iter_mut().zip(a) {
            *x = a.chunk(i);
        }
        for l in 0..SIMD_LANES {
            let w = _mm512_loadu_ps(w[l * PANEL..][..PANEL].as_ptr());
            for (acc, x) in acc.iter_mut().zip(&x) {
                acc[l] = _mm512_fmadd_ps(_mm512_set1_ps(x[l]), w, acc[l]);
            }
        }
    }
    let mut sums = [_mm512_setzero_ps(); M];
    for (sum, acc) in sums.iter_mut().zip(&acc) {
        // `((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))`, lane-wise.
        let low = _mm512_add_ps(_mm512_add_ps(acc[0], acc[1]), _mm512_add_ps(acc[2], acc[3]));
        let high = _mm512_add_ps(_mm512_add_ps(acc[4], acc[5]), _mm512_add_ps(acc[6], acc[7]));
        *sum = _mm512_add_ps(low, high);
    }
    // The tail element by element, each panel row loaded once for every row.
    for p in chunks * SIMD_LANES..len {
        let w = _mm512_loadu_ps(panel[p * PANEL..][..PANEL].as_ptr());
        for (sum, a) in sums.iter_mut().zip(a) {
            *sum = _mm512_fmadd_ps(_mm512_set1_ps(a.at(p)), w, *sum);
        }
    }
    for (m, sum) in sums.into_iter().enumerate() {
        let out = &mut out[m * out_c..][..width];
        _mm512_mask_storeu_ps(out.as_mut_ptr(), mask, _mm512_add_ps(sum, bias));
    }
}

// ---------------------------------------------------------------------------
// The tile walk and its chain rules
// ---------------------------------------------------------------------------

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
/// one row 5.8–6.3 ms, two 7.2–7.7). The `Lanes8` rule's AVX-512 build
/// steps four rows across its eight-wide strips first: `4 × 4` `zmm`
/// accumulators, four weight pairs and a row chunk take 21 of its 32
/// `zmm` registers. Its four-wide strips keep `MR`: `avx512f` alone gives
/// 256-bit instructions no more than the sixteen `ymm` registers. The
/// narrow-panel rule ([`Lanes8Panels`]) does not step by `MR`: its AVX-512
/// build takes [`PANEL_MR`] rows a step, its scalar mirror one.
const MR: usize = 2;

/// The longest reduction the Simd flavor runs as `Lanes8Panels`: the
/// AVX-512 build packs a `Conv2d`'s constant weights into 16-channel
/// panels only where `k = kh · kw · in_c` is at most this. Fixed by
/// measurement on `mobilenet_v2@48`, batch 4, per node, minimum of 60
/// invokes under `taskset -c 1` on a shared 2-vCPU AVX-512 host, row-major
/// `zmm` tile → panel tile (`rows × k × out_c`): the stem `2304 × 27 × 32`
/// 122.9 → 48.7 µs (its im2col included, then gone), `2304 × 16 × 96`
/// 103.8 → 69.9, `576 × 24 × 144` 45.6–46.2 → 30.7–34.0, `144 × 32 × 192`
/// 17.3–18.1 → 12.9–14.6, `36 × 64 × 384` 15.6–16.6 → 14.7–15.6; with the
/// threshold raised to 160, `36 × 96 × 576` tied (32.6 → 32.4),
/// `16 × 160 × 960` tied (42.5 → 42.0–42.6) and `576 × 144 × 24` lost
/// (25.7 → 35.6, a ragged 24-channel edge). So the gain ends between 64
/// and 96, where no layer of the zoo's MobileNets falls; 64 holds the
/// panels of `mobilenet_v2@48` to ≈ 0.5 MB, where 96 would add 0.66 MB for
/// nothing measurable.
pub const NARROW_K: usize = 64;

/// Output channels per [`Lanes8Panels`] panel: the `f32` lanes of a `zmm`.
const PANEL: usize = 16;

/// Matrix rows per step of [`panel_avx512`]: eight `zmm` accumulators a
/// row, so three rows take 24 of the 32 registers beside the panel row (the
/// broadcast element is the fused multiply-add's memory operand). On the
/// narrow layers of `mobilenet_v2@48` (min of 60, `taskset -c 1`): two rows
/// 13.9–76.5 µs, **three 12.9–70.8**, four (which spills) 16.2–88.1, from
/// `144 × 32 × 192` to `2304 × 16 × 96`.
const PANEL_MR: usize = 3;

/// What reduces a float GEMM's matrix rows against the weights: the chain
/// rule [`float_gemm`] drives.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Reduction<'a> {
    /// The Optimized flavor: blocked-4 cells over the weights packed as
    /// panels.
    Blocked4(&'a [f32]),
    /// The Simd flavor: `Lanes8` tiles over the row-major `[out_c, k]`
    /// weights `w` — or, given `panels` ([`pack_lanes8_panels`]), the
    /// [`Lanes8Panels`] rule over those; `skip_k_tail` injects the K-tail
    /// defect of [`KernelBugs::simd_gemm_k_tail_skip`].
    Lanes8 {
        w: &'a [f32],
        panels: Option<&'a [f32]>,
        skip_k_tail: bool,
    },
}

/// Lays a `Conv2d`'s `[out_c, kh, kw, in_c]` weights (`k = kh·kw·in_c`)
/// out as [`Lanes8Panels`] reads them: panel `s` holds channels `16s..16s +
/// 16` as `[k][16]`, so element `p` of channel `16s + c` lies at `16s · k +
/// 16p + c`, and the channels past `out_c` are zero. `packed` grows
/// through [`room`].
pub(crate) fn pack_lanes8_panels(weights: &Tensor, packed: &mut Vec<f32>) -> Result<()> {
    let w = weights.as_f32()?;
    let out_c = weights.shape().dims()[0];
    let k = w.len() / out_c.max(1);
    let packed = room(packed, out_c.div_ceil(PANEL) * PANEL * k)?;
    for oc0 in (0..out_c).step_by(PANEL) {
        for p in 0..k {
            packed
                .extend((oc0..oc0 + PANEL).map(|oc| if oc < out_c { w[oc * k + p] } else { 0.0 }));
        }
    }
    Ok(())
}

/// The float GEMM of the Optimized and Simd flavors: `out[r, oc] =
/// activation(sum(row r, weights[oc]) + bias[oc])` over the rows of `rows`
/// and `out: [rows, out_c]`, the sum the `reduction`'s; a missing bias
/// adds `0.0`, which turns a `-0.0` sum into `+0.0`. Each rule is a native
/// kernel of its own ([`blocked4_gemm`], [`lanes8_gemm`]), so that only the
/// Simd one has an AVX-512 build.
#[allow(clippy::too_many_arguments)]
fn float_gemm<X: MatrixRows>(
    engine: Engine,
    reduction: Reduction<'_>,
    rows: X,
    out_c: usize,
    bias: Option<&[f32]>,
    activation: Activation,
    out: &mut [f32],
) {
    match reduction {
        Reduction::Blocked4(panels) => {
            blocked4_gemm(engine, panels, rows, out_c, bias, activation, out)
        }
        Reduction::Lanes8 {
            w,
            panels,
            skip_k_tail,
        } => lanes8_gemm(
            engine,
            w,
            panels,
            skip_k_tail,
            rows,
            out_c,
            bias,
            activation,
            out,
        ),
    }
}

native_kernel! {
    /// [`float_gemm`]'s Optimized rule, [`Blocked4Panels`], over rows read
    /// however they are stored. A tile of [`ROW_TILE`] rows meets each
    /// column strip in turn, [`MR`] rows at a time (one in the baseline
    /// build) and then the odd row, so the strip stays cache-resident
    /// across the tile; the activation is one pass over the tile. Tiling
    /// only reorders which sum is computed when.
    fn blocked4_gemm<X: MatrixRows>[build](
        panels: &[f32],
        rows: X,
        out_c: usize,
        bias: Option<&[f32]>,
        activation: Activation,
        out: &mut [f32],
    ) {
        let rule = Blocked4Panels { panels, k: rows.k() };
        walk_tiles(rule, build, rows, out_c, bias, activation, out);
    }
}

native_kernel! {
    /// [`float_gemm`]'s Simd rule, with an AVX-512 build: given `panels`,
    /// [`Lanes8Panels`] over them; else [`Lanes8Tiles`] over the row-major
    /// `w`, whose AVX-512 build runs strips eight channels wide, then four,
    /// then one, an eight-wide strip four rows at a time ([`tile_avx512`]),
    /// then [`MR`], then one, and the narrower strips [`tile_avx2`]; its
    /// AVX2+FMA build walks as the Optimized rule does. Every cell is the
    /// same dot in every build, under either rule, however its row is
    /// read.
    fn lanes8_gemm<X: MatrixRows>[build + avx512](
        w: &[f32],
        panels: Option<&[f32]>,
        skip_k_tail: bool,
        rows: X,
        out_c: usize,
        bias: Option<&[f32]>,
        activation: Activation,
        out: &mut [f32],
    ) {
        let (k, len) = (rows.k(), k_len(rows.k(), skip_k_tail));
        match panels {
            Some(panels) => {
                let rule = Lanes8Panels { panels, k, len };
                walk_tiles(rule, build, rows, out_c, bias, activation, out);
            }
            None => {
                let rule = Lanes8Tiles { build, w, k, len };
                walk_tiles(rule, build, rows, out_c, bias, activation, out);
            }
        }
    }
}

/// How [`walk_tiles`] reads the rows of the matrix it reduces, a tile of
/// [`ROW_TILE`] rows at a time.
trait MatrixRows: Copy {
    /// One row, as a chain rule reads it.
    type Row: RowRead;

    /// Elements per row.
    fn k(self) -> usize;

    /// What finding the rows of one tile takes, worked out once per tile.
    type Tile;

    /// The tile of rows `first..end`.
    fn tile(self, first: usize, end: usize) -> Self::Tile;

    /// Rows `i..i + M` of `tile`.
    fn rows<const M: usize>(self, tile: &Self::Tile, i: usize) -> [Self::Row; M];
}

/// How a chain rule reads the elements of one matrix row.
trait RowRead: Copy {
    /// Elements `N·i..N·i + N`.
    fn chunk<const N: usize>(self, i: usize) -> [f32; N];

    /// [`RowRead::chunk`], unchecked where the row is a slice: what the
    /// intrinsic tiles read a row with.
    ///
    /// # Safety
    ///
    /// `N·i + N` must not pass the row's length.
    #[inline(always)]
    unsafe fn chunk_unchecked<const N: usize>(self, i: usize) -> [f32; N] {
        self.chunk(i)
    }

    /// Element `p`.
    fn at(self, p: usize) -> f32;
}

/// A row-major `[rows, k]` matrix: a pointwise convolution's input or a
/// fully-connected layer's activations.
#[derive(Clone, Copy)]
struct Dense<'a> {
    matrix: &'a [f32],
    k: usize,
}

impl<'a> MatrixRows for Dense<'a> {
    type Row = &'a [f32];
    /// The tile's first row.
    type Tile = usize;

    #[inline(always)]
    fn k(self) -> usize {
        self.k
    }

    #[inline(always)]
    fn tile(self, first: usize, _end: usize) -> usize {
        first
    }

    #[inline(always)]
    fn rows<const M: usize>(self, first: &usize, i: usize) -> [&'a [f32]; M] {
        let k = self.k;
        let rows = &self.matrix[(first + i) * k..][..M * k];
        std::array::from_fn(|m| &rows[m * k..][..k])
    }
}

impl RowRead for &[f32] {
    #[inline(always)]
    fn chunk<const N: usize>(self, i: usize) -> [f32; N] {
        *<&[f32; N]>::try_from(&self[i * N..][..N]).expect("an N-element slice")
    }

    /// Checked, the wide pointwise layers of `mobilenet_v2@48` (batch 4,
    /// AVX-512 engine, `serve_probe`'s `Conv k>64`) ran 755 µs against 706.
    #[inline(always)]
    unsafe fn chunk_unchecked<const N: usize>(self, i: usize) -> [f32; N] {
        debug_assert!(N * i + N <= self.len());
        // SAFETY: the caller keeps `N·i + N` within the slice.
        unsafe { *self.as_ptr().add(N * i).cast::<[f32; N]>() }
    }

    #[inline(always)]
    fn at(self, p: usize) -> f32 {
        self[p]
    }
}

/// The windows of a convolution's output cells `0..cells`, read in place:
/// cell `r`'s window starts at its origin in the zero-bordered input
/// `bordered` ([`WindowGeom::border`]), and its element `p` lies `taps[p]`
/// further on ([`WindowGeom::tap_offsets`]). Built only by
/// [`Windows::new`], which proves every such read in bounds.
#[derive(Clone, Copy)]
struct Windows<'a> {
    bordered: &'a [f32],
    taps: &'a [usize],
    steps: BorderedSteps,
    cells: usize,
}

impl<'a> Windows<'a> {
    /// The windows of cells `0..cells`, once [`windows_inside`] has proved
    /// that every read [`Tapped`] makes of them lies inside `bordered`.
    ///
    /// # Panics
    ///
    /// When a read would land outside `bordered`: a geometry whose tap
    /// offsets or cell steps do not fit its bordered input.
    fn new(bordered: &'a [f32], taps: &'a [usize], steps: BorderedSteps, cells: usize) -> Self {
        assert!(
            windows_inside(bordered.len(), taps, steps, cells),
            "windows of {cells} cells reach past a bordered input of {} elements",
            bordered.len()
        );
        Windows {
            bordered,
            taps,
            steps,
            cells,
        }
    }
}

/// Whether every read of the windows of cells `0..cells` lies below `len`:
/// no origin passes [`BorderedSteps::origin_bound`] and no tap offset passes
/// the largest in `taps`, so it is enough that their sum, computed without
/// overflow, does not reach `len`. With no cell or no tap there is no read.
fn windows_inside(len: usize, taps: &[usize], steps: BorderedSteps, cells: usize) -> bool {
    let (Some(&reach), Some(last)) = (taps.iter().max(), cells.checked_sub(1)) else {
        return true;
    };
    steps
        .origin_bound(last)
        .and_then(|origin| origin.checked_add(reach))
        .is_some_and(|end| end < len)
}

impl<'a> MatrixRows for Windows<'a> {
    type Row = Tapped<'a>;
    /// Where each of the tile's windows starts in the bordered input.
    type Tile = [usize; ROW_TILE];

    #[inline(always)]
    fn k(self) -> usize {
        self.taps.len()
    }

    #[inline(always)]
    fn tile(self, first: usize, end: usize) -> [usize; ROW_TILE] {
        // The proof in `new` covers cells `0..cells` only.
        assert!(end <= self.cells, "cells {first}..{end} of {}", self.cells);
        let mut origins = [0; ROW_TILE];
        for (slot, origin) in origins[..end - first]
            .iter_mut()
            .zip(self.steps.origins(first))
        {
            *slot = origin;
        }
        origins
    }

    #[inline(always)]
    fn rows<const M: usize>(self, origins: &[usize; ROW_TILE], i: usize) -> [Tapped<'a>; M] {
        std::array::from_fn(|m| Tapped {
            x: &self.bordered[origins[i + m]..],
            taps: self.taps,
        })
    }
}

/// One cell's window in the bordered input: element `p` is `x[taps[p]]`,
/// `x` starting at the cell's origin. Made only by [`Windows::rows`], from
/// origins of cells [`Windows::new`] proved every tap of in bounds, so a
/// read checks the tap index but not the read it leads to.
#[derive(Clone, Copy)]
struct Tapped<'a> {
    x: &'a [f32],
    taps: &'a [usize],
}

impl Tapped<'_> {
    /// `x[t]` for a tap offset `t` of this window.
    #[inline(always)]
    fn read(self, t: usize) -> f32 {
        debug_assert!(t < self.x.len());
        // SAFETY: `t` is an element of `taps`, so at most its largest, and
        // `x` starts at the origin of a cell below `Windows::cells`, so at
        // most `BorderedSteps::origin_bound`; `Windows::new` asserted that
        // their sum lies inside the bordered input `x` is the tail of, so
        // `t < x.len()`.
        unsafe { *self.x.get_unchecked(t) }
    }
}

impl RowRead for Tapped<'_> {
    #[inline(always)]
    fn chunk<const N: usize>(self, i: usize) -> [f32; N] {
        let taps = <&[usize; N]>::try_from(&self.taps[i * N..][..N]).expect("N taps");
        taps.map(|t| self.read(t))
    }

    #[inline(always)]
    fn at(self, p: usize) -> f32 {
        self.read(self.taps[p])
    }
}

/// How a [`float_gemm`] reduces matrix rows read through `X` against the
/// weights.
trait ChainRule<X: MatrixRows>: Copy {
    /// The `(first channel, width)` of each column strip of `out_c`.
    fn strips(self, out_c: usize) -> impl Iterator<Item = (usize, usize)>;

    /// Rows `i..i + M` of `tile` against the strip `(oc0, width)`: each sum
    /// plus its channel's `bias` (`0.0` without one) into `out`, where row
    /// `m`'s channels `oc0..` start at `m · out_c`.
    #[allow(clippy::too_many_arguments)]
    fn cells<const M: usize>(
        self,
        rows: X,
        tile: &X::Tile,
        i: usize,
        strip: (usize, usize),
        bias: Option<&[f32]>,
        out: &mut [f32],
        out_c: usize,
    );

    /// Rows `r0..end` of `tile` against one strip, in `build`: [`MR`] rows
    /// at a time in the AVX2+FMA build, one in the baseline, and in the
    /// AVX-512 build four rows at a time across an eight-wide strip first;
    /// then the odd row.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn strip(
        self,
        build: SimdEngine,
        at: (X, &X::Tile, usize),
        end: usize,
        strip: (usize, usize),
        bias: Option<&[f32]>,
        out: &mut [f32],
        out_c: usize,
    ) {
        let mut r = at.2;
        if build == SimdEngine::Avx512 && strip.1 == 8 {
            r = run::<X, Self, 4>(self, at, (r, end), strip, bias, out, out_c);
        }
        if build != SimdEngine::Scalar {
            r = run::<X, Self, MR>(self, at, (r, end), strip, bias, out, out_c);
        }
        run::<X, Self, 1>(self, at, (r, end), strip, bias, out, out_c);
    }
}

/// Rows `r..` of the tile starting at row `r0` against one strip, `M` at a
/// time while `M` more fit before `end`; returns the first row left.
#[inline(always)]
fn run<X: MatrixRows, R: ChainRule<X>, const M: usize>(
    rule: R,
    (rows, tile, r0): (X, &X::Tile, usize),
    (mut r, end): (usize, usize),
    strip: (usize, usize),
    bias: Option<&[f32]>,
    out: &mut [f32],
    out_c: usize,
) -> usize {
    while r + M <= end {
        let out = &mut out[r * out_c + strip.0..];
        rule.cells::<M>(rows, tile, r - r0, strip, bias, out, out_c);
        r += M;
    }
    r
}

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

/// The one walk behind every float GEMM kernel here, whatever the chain
/// rule and however it reads a row, in `build`: a tile of [`ROW_TILE`]
/// rows meets each column strip in turn, as the rule steps through its
/// rows ([`ChainRule::strip`]), so the strip stays cache-resident across
/// the tile; the activation is one pass over the tile.
#[inline(always)]
fn walk_tiles<X: MatrixRows, R: ChainRule<X>>(
    rule: R,
    build: SimdEngine,
    rows: X,
    out_c: usize,
    bias: Option<&[f32]>,
    activation: Activation,
    out: &mut [f32],
) {
    let rows_total = out.len().checked_div(out_c).unwrap_or(0);
    for r0 in (0..rows_total).step_by(ROW_TILE) {
        let end = (r0 + ROW_TILE).min(rows_total);
        let tile = rows.tile(r0, end);
        for strip in rule.strips(out_c) {
            let bias = bias.map(|b| &b[strip.0..strip.0 + strip.1]);
            rule.strip(build, (rows, &tile, r0), end, strip, bias, out, out_c);
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
/// once for all `M` rows. It reads rows however they are stored.
#[derive(Clone, Copy)]
struct Blocked4Panels<'a> {
    panels: &'a [f32],
    k: usize,
}

impl<X: MatrixRows> ChainRule<X> for Blocked4Panels<'_> {
    fn strips(self, out_c: usize) -> impl Iterator<Item = (usize, usize)> {
        weight_panels(out_c)
    }

    #[inline(always)]
    fn cells<const M: usize>(
        self,
        rows: X,
        tile: &X::Tile,
        i: usize,
        (oc0, width): (usize, usize),
        bias: Option<&[f32]>,
        out: &mut [f32],
        out_c: usize,
    ) {
        match width {
            8 => store(self.sums::<X, M, 8>(rows, tile, i, oc0), bias, out, out_c),
            4 => store(self.sums::<X, M, 4>(rows, tile, i, oc0), bias, out, out_c),
            _ => store(self.sums::<X, M, 1>(rows, tile, i, oc0), bias, out, out_c),
        }
    }
}

impl Blocked4Panels<'_> {
    /// The sums of rows `i..i + M` of `tile` against channels
    /// `oc0..oc0 + W`, before the bias.
    #[inline(always)]
    fn sums<X: MatrixRows, const M: usize, const W: usize>(
        self,
        rows: X,
        tile: &X::Tile,
        i: usize,
        oc0: usize,
    ) -> [[f32; W]; M] {
        let (k, a) = (self.k, rows.rows::<M>(tile, i));
        let chunks = k / 4;
        let (w_body, w_rest) = self.panels[oc0 * k..][..W * k].split_at(chunks * 4 * W);
        let mut s = [[[0.0f32; W]; 4]; M];
        for (i, w) in w_body.chunks_exact(4 * W).enumerate() {
            let x: [[f32; 4]; M] = a.map(|a| a.chunk(i));
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
            for (p, w) in (chunks * 4..k).zip(w_rest.chunks_exact(W)) {
                let a = a.at(p);
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

/// The Simd rule: micro-kernel tiles over strips of row-major weight rows,
/// unpacked — eight wide in the AVX-512 build, then four, then single
/// rows on the ragged edge. Every cell is bitwise the one-row, one-channel
/// dot on the same pair, so the tile shape never moves a bit. It reads rows
/// however they are stored: a tile takes eight elements of a row at a time
/// ([`RowRead::chunk`]), a slice of a matrix row or a window's taps
/// gathered from the bordered input.
#[derive(Clone, Copy)]
struct Lanes8Tiles<'a> {
    /// The build this rule is compiled into: `Avx512` runs [`tile_avx512`]
    /// on eight-wide strips and [`tile_avx2`] on the rest, `Avx2Fma`
    /// [`tile_avx2`], and `Scalar` the scalar mirror.
    build: SimdEngine,
    w: &'a [f32],
    k: usize,
    /// The reduction length, [`k_len`] of `k`.
    len: usize,
}

impl<X: MatrixRows> ChainRule<X> for Lanes8Tiles<'_> {
    fn strips(self, out_c: usize) -> impl Iterator<Item = (usize, usize)> {
        let eights = match self.build {
            SimdEngine::Avx512 => out_c - out_c % 8,
            _ => 0,
        };
        // `eights` is a multiple of four, so the four-wide strips end where
        // they would without it.
        let fours = out_c - out_c % 4;
        let wide = (0..eights).step_by(8).map(|oc| (oc, 8));
        let four = (eights..fours).step_by(4).map(|oc| (oc, 4));
        wide.chain(four).chain((fours..out_c).map(|oc| (oc, 1)))
    }

    #[inline(always)]
    fn cells<const M: usize>(
        self,
        rows: X,
        tile: &X::Tile,
        i: usize,
        (oc0, width): (usize, usize),
        bias: Option<&[f32]>,
        out: &mut [f32],
        out_c: usize,
    ) {
        let a = rows.rows::<M>(tile, i);
        match width {
            8 => store(self.sums::<X::Row, M, 8>(a, oc0), bias, out, out_c),
            4 => store(self.sums::<X::Row, M, 4>(a, oc0), bias, out, out_c),
            _ => store(self.sums::<X::Row, M, 1>(a, oc0), bias, out, out_c),
        }
    }
}

impl Lanes8Tiles<'_> {
    /// The sums of rows `a` against channels `oc0..oc0 + W`, before the
    /// bias.
    #[inline(always)]
    fn sums<R: RowRead, const M: usize, const W: usize>(
        self,
        a: [R; M],
        oc0: usize,
    ) -> [[f32; W]; M] {
        let (k, len) = (self.k, self.len);
        let w = &self.w[oc0 * k..][..W * k];
        match self.build {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `build` is `Avx512` only in `lanes8_gemm`'s AVX-512
            // build, which runs only for an `Engine` holding `Avx512`, so
            // AVX-512F, AVX2 and FMA were detected on this CPU. Each row of
            // `a` holds `k = MatrixRows::k` elements — `Dense::rows` slices
            // every row to its `k`, and a `Tapped` row checks its own tap
            // reads — and `lanes8_gemm` sets `len = k_len(k, _) ≤ k`.
            SimdEngine::Avx512 if W == 8 => unsafe { tile_avx512::<R, M, W>(a, w, k, len) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `build` is `Avx2Fma` or `Avx512` only in a build that
            // runs for an `Engine` holding one of them, so AVX2 and FMA
            // were detected on this CPU; the rows as above.
            SimdEngine::Avx2Fma | SimdEngine::Avx512 => unsafe { tile_avx2(a, w, k, len) },
            _ => a.map(|a| std::array::from_fn(|j| lanes8_dot(a, &w[j * k..], len))),
        }
    }
}

/// The Simd rule on narrow reductions: the same dot per cell as
/// [`Lanes8Tiles`], over the weights packed as [`PANEL`]-channel panels
/// ([`pack_lanes8_panels`]) and with the channels in the vector lanes
/// instead of the virtual lanes: [`panel_avx512`] in the AVX-512 build,
/// [`PANEL_MR`] rows at a time, then one; elsewhere its scalar mirror, one
/// cell at a time. It reads rows however they are stored, so a windowed
/// convolution reads its windows in place.
#[derive(Clone, Copy)]
struct Lanes8Panels<'a> {
    panels: &'a [f32],
    k: usize,
    /// The reduction length, [`k_len`] of `k`.
    len: usize,
}

impl<X: MatrixRows> ChainRule<X> for Lanes8Panels<'_> {
    fn strips(self, out_c: usize) -> impl Iterator<Item = (usize, usize)> {
        (0..out_c)
            .step_by(PANEL)
            .map(move |oc| (oc, PANEL.min(out_c - oc)))
    }

    #[inline(always)]
    fn strip(
        self,
        build: SimdEngine,
        at: (X, &X::Tile, usize),
        end: usize,
        strip: (usize, usize),
        bias: Option<&[f32]>,
        out: &mut [f32],
        out_c: usize,
    ) {
        #[cfg(target_arch = "x86_64")]
        if build == SimdEngine::Avx512 {
            // SAFETY: `build` is `Avx512` only in the AVX-512 build of
            // `lanes8_gemm`, which runs only for an `Engine` holding
            // `Avx512`, so AVX-512F was detected.
            unsafe { self.strip_avx512(at, end, strip, bias, out, out_c) };
            return;
        }
        run::<X, Self, 1>(self, at, (at.2, end), strip, bias, out, out_c);
    }

    /// The scalar mirror of [`panel_avx512`], one cell at a time: the
    /// operations of [`lanes8_dot`] down each panel column.
    #[inline(always)]
    fn cells<const M: usize>(
        self,
        rows: X,
        tile: &X::Tile,
        i: usize,
        (oc0, width): (usize, usize),
        bias: Option<&[f32]>,
        out: &mut [f32],
        out_c: usize,
    ) {
        let (a, len) = (rows.rows::<M>(tile, i), self.len);
        let panel = &self.panels[oc0 * self.k..][..PANEL * self.k];
        for (m, a) in a.into_iter().enumerate() {
            let out = &mut out[m * out_c..][..width];
            for (c, o) in out.iter_mut().enumerate() {
                let mut lanes = [0.0f32; SIMD_LANES];
                let chunks = len / SIMD_LANES;
                for p in 0..chunks * SIMD_LANES {
                    let lane = &mut lanes[p % SIMD_LANES];
                    *lane = a.at(p).mul_add(panel[p * PANEL + c], *lane);
                }
                let mut sum = reduce8(lanes);
                for p in chunks * SIMD_LANES..len {
                    sum = a.at(p).mul_add(panel[p * PANEL + c], sum);
                }
                *o = sum + bias.map_or(0.0, |b| b[c]);
            }
        }
    }
}

impl Lanes8Panels<'_> {
    /// [`ChainRule::strip`] in the AVX-512 build: rows `r0..end` of `tile`
    /// against one panel, [`PANEL_MR`] rows a step and then one at a time,
    /// through [`panel_avx512`], with the panel, the mask of its `width`
    /// channels and the bias vector worked out once for the strip.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn strip_avx512<X: MatrixRows>(
        self,
        (rows, tile, r0): (X, &X::Tile, usize),
        end: usize,
        (oc0, width): (usize, usize),
        bias: Option<&[f32]>,
        out: &mut [f32],
        out_c: usize,
    ) {
        use std::arch::x86_64::*;
        let panel = &self.panels[oc0 * self.k..][..PANEL * self.k];
        // The masked stores write `width` channels: the mask must hold
        // exactly that many bits.
        assert!((1..=PANEL).contains(&width), "a strip of {width} channels");
        let mask = (u32::MAX >> (32 - width)) as __mmask16;
        let bias = match bias {
            Some(b) => _mm512_maskz_loadu_ps(mask, b[..width].as_ptr()),
            None => _mm512_setzero_ps(),
        };
        let (len, lanes) = (self.len, (mask, width));
        let mut r = r0;
        while r + PANEL_MR <= end {
            let (a, out) = (
                rows.rows::<PANEL_MR>(tile, r - r0),
                &mut out[r * out_c + oc0..],
            );
            panel_avx512::<X::Row, PANEL_MR>(a, panel, len, lanes, bias, out, out_c);
            r += PANEL_MR;
        }
        for r in r..end {
            let (a, out) = (rows.rows::<1>(tile, r - r0), &mut out[r * out_c + oc0..]);
            panel_avx512::<X::Row, 1>(a, panel, len, lanes, bias, out, out_c);
        }
    }
}

// ---------------------------------------------------------------------------
// Kernel entry points (dispatched from `execute_node`)
// ---------------------------------------------------------------------------

/// Optimized / SIMD float convolution in `engine`'s build: the flavor's
/// [`Reduction`] over the windows of the output cells. A pointwise window
/// reads the input itself as the matrix; every other window is read in
/// place from a zero-bordered copy of the input in `scratch`, through tap
/// offsets ([`WindowGeom::tap_offsets`]) written into `taps` from the same
/// geometry, both grown through [`room`]. Handles any batch size natively,
/// so `invoke` and `invoke_batch` run the same code.
///
/// # Errors
///
/// What the operands' accessors and [`room`] return.
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
    taps: &mut Vec<usize>,
    out_t: &mut Tensor,
) -> Result<()> {
    let (input, weights) = (inputs[0], inputs[1]);
    let bias = inputs.get(2).map(|t| t.as_f32()).transpose()?;
    let ws = weights.shape().dims();
    let g = WindowGeom::new(input, out_def, ws[1], ws[2], stride, padding);
    let (x, out_c) = (input.as_f32()?, ws[0]);
    let out = f32_slot(out_t, out_def)?;
    if g.is_pointwise() {
        let k = g.patch_len();
        let rows = Dense { matrix: x, k };
        float_gemm(engine, reduction, rows, out_c, bias, activation, out);
        return Ok(());
    }
    room(taps, g.patch_len())?.extend(g.tap_offsets());
    g.border(x, 0.0, scratch)?;
    let cells = out.len().checked_div(out_c).unwrap_or(0);
    let rows = Windows::new(scratch, taps, g.bordered_steps(), cells);
    float_gemm(engine, reduction, rows, out_c, bias, activation, out);
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
    let rows = Dense { matrix, k: ws[1] };
    float_gemm(engine, reduction, rows, ws[0], bias, activation, out);
    Ok(())
}

/// The quantized `Conv2d` of every flavor: [`q8_gemm`] over the windows of
/// the output cells. A pointwise window reads the input itself as the
/// matrix; every other window is read in place from a copy of the input
/// into `bordered` whose border holds the input zero point, so a padding
/// tap adds `(zp − zp) · w = 0` — what the oracle's skipped tap adds.
/// `bordered` and `multipliers` grow through [`room`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv2d_q(
    engine: Engine,
    node: &Node,
    inputs: &[&Tensor],
    out_def: &TensorDef,
    stride: usize,
    padding: Padding,
    activation: Activation,
    requant: RequantMode,
    bordered: &mut Vec<u8>,
    multipliers: &mut Vec<f64>,
    out_t: &mut Tensor,
) -> Result<()> {
    let (input, ws) = (inputs[0], inputs[1].shape().dims());
    let g = WindowGeom::new(input, out_def, ws[1], ws[2], stride, padding);
    // `qparams_of` admits only zero points a `u8` holds.
    let (_, zp_in) = qparams_of(node, input)?;
    let x = input.as_u8()?;
    let rows = if g.is_pointwise() {
        ByteRows::matrix(x, g.patch_len())
    } else {
        g.border(x, zp_in as u8, bordered)?;
        ByteRows {
            x: bordered,
            steps: g.bordered_steps(),
            runs: g.bordered_runs(),
        }
    };
    let rq = Requant::new(
        node,
        inputs,
        out_def,
        ws[0],
        activation,
        requant,
        multipliers,
    )?;
    let (w, out) = (inputs[1].as_i8()?, u8_slot(out_t, out_def)?);
    q8_gemm(engine, rows, zp_in, w, &rq, out);
    Ok(())
}

/// The quantized `FullyConnected` of every flavor, `[n, in] x [out, in]^T`:
/// [`q8_gemm`] with the activations as the matrix.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fc_q(
    engine: Engine,
    node: &Node,
    inputs: &[&Tensor],
    out_def: &TensorDef,
    activation: Activation,
    requant: RequantMode,
    multipliers: &mut Vec<f64>,
    out_t: &mut Tensor,
) -> Result<()> {
    let (input, ws) = (inputs[0], inputs[1].shape().dims());
    let (_, zp_in) = qparams_of(node, input)?;
    let rq = Requant::new(
        node,
        inputs,
        out_def,
        ws[0],
        activation,
        requant,
        multipliers,
    )?;
    let (w, out) = (inputs[1].as_i8()?, u8_slot(out_t, out_def)?);
    let rows = ByteRows::matrix(input.as_u8()?, ws[1]);
    q8_gemm(engine, rows, zp_in, w, &rq, out);
    Ok(())
}

/// The `u8` rows [`q8_gemm`] reduces: row `r` is `runs`, read from cell
/// `r`'s origin in `x` ([`BorderedSteps::origins`]) — a convolution's
/// window in its bordered input, or one run of `k` bytes, a row of a plain
/// `[rows, k]` matrix ([`ByteRows::matrix`]).
#[derive(Clone, Copy)]
struct ByteRows<'a> {
    x: &'a [u8],
    steps: BorderedSteps,
    runs: WindowRuns,
}

impl<'a> ByteRows<'a> {
    fn matrix(x: &'a [u8], k: usize) -> Self {
        let (steps, runs) = BorderedSteps::matrix(k);
        ByteRows { x, steps, runs }
    }
}

native_kernel! {
    /// `out[r, oc] = rq.value(oc, Σ_p (row_r[p] − zp_in) · w[oc, p])` over
    /// the rows of `rows` and the row-major `[out_c, k]` weights `w`, output
    /// channel by output channel. Each run of a row is an exact dot against
    /// the matching segment of the weight row: plain integer Rust — an
    /// `i16` difference times an `i8` weight, widened to `i32` and summed —
    /// which both builds vectorize. An integer sum is exact in any order,
    /// so every build, and any split of a row into runs, returns the scalar
    /// loop's bits.
    fn q8_gemm(
        rows: ByteRows<'_>,
        zp_in: i32,
        w: &[i8],
        rq: &Requant<'_>,
        out: &mut [u8],
    ) {
        // `qparams_of` admits only zero points a `u8` holds, so the
        // difference `0..=255` minus `0..=255` fits an `i16`.
        let (zp, out_c) = (zp_in as i16, rq.multipliers.len());
        let ByteRows { x, steps, runs } = rows;
        let (cells, k) = (out.len().checked_div(out_c).unwrap_or(0), runs.count * runs.len);
        for oc in 0..out_c {
            let w = &w[oc * k..][..k];
            for (r, origin) in steps.origins(0).take(cells).enumerate() {
                let mut dot = 0i32;
                for (j, w) in w.chunks_exact(runs.len.max(1)).enumerate() {
                    let a = &x[origin + j * runs.step..][..runs.len];
                    dot += a
                        .iter()
                        .zip(w)
                        .map(|(&a, &w)| i32::from(a as i16 - zp) * i32::from(w))
                        .sum::<i32>();
                }
                out[r * out_c + oc] = rq.value(oc, dot);
            }
        }
    }
}

/// Runs node `node` of `graph` in isolation under `spec` — its flavor,
/// injected [`KernelBugs`](crate::KernelBugs) and emulated numerics,
/// resolved through `Kernels::resolve` as the interpreter resolves them —
/// on an explicit engine, and returns its output. `operands` are the node's
/// inputs in order, constants included, stacked to any batch; on the
/// process's engine ([`active_engine`]) the bits are those an interpreter
/// under `spec` produces for the node on the same operands. The
/// differential debugger's bisection re-executes a divergent node this way,
/// and test suites pin the AVX2 and AVX-512 builds of every native kernel
/// — the quantized ones' dot included — against its baseline build in one
/// process, as [`dot_f32_with`] pins the dot: an engine is honoured only
/// where the CPU has it, whatever `MLEXRAY_SIMD` says, and runs the next
/// rung down the ladder elsewhere. Weights are packed on the call.
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
    spec: BackendSpec,
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
    let mut ctx = KernelCtx {
        kernels: Kernels::resolve(&spec),
        engine: Engine::runnable(engine),
        scratch: &mut Scratch::default(),
        panels: None,
    };
    execute_node(node, operands, out_def, &mut out, &mut ctx)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use mlexray_tensor::{DType, QuantParams};
    use proptest::prelude::*;

    use super::*;
    use crate::graph::TensorId;
    use crate::kernels::conv::{pack_weight_panels, weight_scale};
    use crate::kernels::{act_qbounds, det_f32, out_qparams, requantize, ACTIVATIONS};
    use crate::ops::{conv_out_size, OpKind};

    /// Runs on every host: without AVX-512F or AVX2+FMA (or under
    /// `MLEXRAY_SIMD=scalar`, which the explicit-engine entry points ignore)
    /// asking for a wider engine must fall down the ladder instead of
    /// executing unsupported code.
    #[test]
    fn engines_agree_bitwise_on_f32_dots() {
        for len in [0, 1, 3, 7, 8, 9, 15, 16, 17, 27, 64, 129, 1000] {
            let a = det_f32(len as u64 + 1, len);
            let b = det_f32(len as u64 + 2, len);
            let mirror = lanes8_dot(&a[..], &b, len);
            for engine in SimdEngine::ALL {
                let got = dot_f32_with(engine, &a, &b);
                assert_eq!(
                    got.to_bits(),
                    mirror.to_bits(),
                    "{engine:?} diverged at len {len}: {got} vs {mirror}"
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
                for engine in SimdEngine::ALL {
                    let act = Activation::Relu6;
                    let mut out = vec![f32::NAN; rows * out_c];
                    let (engine, blocked4) =
                        (Engine::runnable(engine), Reduction::Blocked4(&panels));
                    let dense = Dense { matrix: &matrix, k };
                    float_gemm(engine, blocked4, dense, out_c, bias, act, &mut out);
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

    /// The Simd GEMM of the rows of `a` against the rows of `b` as output
    /// channels, row-major, as bit patterns.
    fn lanes8_bits(
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
            Reduction::Lanes8 {
                w: &w,
                panels: None,
                skip_k_tail,
            },
        );
        let rows = Dense { matrix: &matrix, k };
        float_gemm(engine, lanes8, rows, out_c, bias, act, &mut out);
        out.iter().map(|v| v.to_bits()).collect()
    }

    /// The bare dots of [`lanes8_bits`]: a `-0.0` bias, the identity of
    /// addition, and no activation.
    fn lanes8_dots(engine: SimdEngine, skip_k_tail: bool, a: &[&[f32]], b: &[&[f32]]) -> Vec<u32> {
        let bias = vec![-0.0; b.len()];
        lanes8_bits(engine, skip_k_tail, a, b, Some(&bias), Activation::None)
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
            for (engine, skip) in SimdEngine::ALL
                .into_iter()
                .flat_map(|e| [(e, false), (e, true)])
            {
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
                    let got = lanes8_bits(engine, skip, &a, &b, bias, act);
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

    /// Every tile shape the driver instantiates — `4 × 8`, `MR × 8` and
    /// `1 × 8` (the AVX-512 build's `zmm` tiles), `4 × 4`, `MR × 4`, `1 × 4`,
    /// `4 × 1`, `MR × 1` and `1 × 1`, as runs of that many rows and
    /// channels — cell for cell against the `1 × 1` run on the same pair of
    /// rows, in every engine, which must agree. Returns the bits of each
    /// shape.
    fn assert_tiles_match_single_dots(
        skip: bool,
        a: &[Vec<f32>],
        b: &[Vec<f32>],
        what: &str,
    ) -> Vec<Vec<u32>> {
        let a: Vec<&[f32]> = a.iter().map(Vec::as_slice).collect();
        let b: Vec<&[f32]> = b.iter().map(Vec::as_slice).collect();
        TILES
            .map(|(m, n)| {
                let runs = SimdEngine::ALL.map(|e| lanes8_dots(e, skip, &a[..m], &b[..n]));
                for (engine, run) in SimdEngine::ALL.iter().zip(&runs) {
                    let first = SimdEngine::ALL[0];
                    assert_eq!(
                        run, &runs[0],
                        "{what}: {engine:?} ≠ {first:?} on tile {m}x{n}"
                    );
                }
                for (i, &bits) in runs[0].iter().enumerate() {
                    let dot = lanes8_dots(SimdEngine::ALL[0], skip, &[a[i / n]], &[b[i % n]])[0];
                    let (r, c) = (i / n, i % n);
                    assert_eq!(
                        bits, dot,
                        "{what}: cell ({r}, {c}) of tile {m}x{n} diverged from its single dot"
                    );
                }
                runs[0].clone()
            })
            .to_vec()
    }

    /// The `(rows, channels)` of [`assert_tiles_match_single_dots`].
    const TILES: [(usize, usize); 9] = [
        (4, 8),
        (MR, 8),
        (1, 8),
        (4, 4),
        (MR, 4),
        (1, 4),
        (4, 1),
        (MR, 1),
        (1, 1),
    ];

    #[test]
    fn x4_matches_single_row_dots() {
        for k in [0, 1, 7, 8, 9, 17, 65, 144] {
            let a: Vec<Vec<f32>> = (0..4).map(|r| det_f32(9 + r, k)).collect();
            let b: Vec<Vec<f32>> = (0..8).map(|r| det_f32(100 + r, k)).collect();
            for skip in [false, true] {
                assert_tiles_match_single_dots(skip, &a, &b, &format!("K {k}, tail skip {skip}"));
            }
        }
    }

    /// The in-register lane reductions against `reduce8` on lanes the
    /// tree's order matters for: with K = 8 each accumulator lane holds
    /// exactly one product, so the tile's value *is* the reduction. Channel
    /// `j`'s weights are ones but for a `-1.0` in lane `j`, so that every
    /// channel of the eight-wide `zmm` tile, wherever its lanes sit in the
    /// registers, reduces different lanes.
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
        let w: Vec<Vec<f32>> = (0..8)
            .map(|j| (0..8).map(|l| if l == j { -1.0 } else { 1.0 }).collect())
            .collect();
        for (n, lanes) in specials.iter().enumerate() {
            // A different rotation of the lanes in each of the four rows.
            let a: Vec<Vec<f32>> = (0..4)
                .map(|r| (0..8).map(|l| lanes[(l + 3 * r) % 8]).collect())
                .collect();
            let what = format!("special lanes {n}");
            let tiles = assert_tiles_match_single_dots(false, &a, &w, &what);
            let expect = |j: usize| reduce8(std::array::from_fn(|l| a[0][l].mul_add(w[j][l], 0.0)));
            // The 1 × 8 tile, the `zmm` reduction, and the 1 × 4 tile, the
            // four-accumulator `hadd` one.
            for tile in [2, 5] {
                for (j, &bits) in tiles[tile].iter().enumerate() {
                    assert_eq!(bits, expect(j).to_bits(), "{what}, channel {j}");
                }
            }
        }
    }

    /// Values of every sign, an eighth of them zeros of either sign or
    /// subnormals, for [`lanes8_builds_agree_on_every_tile_edge`].
    fn edge_values(draw: &mut Draw, n: usize) -> Vec<f32> {
        const QUIET: [f32; 4] = [0.0, -0.0, 1e-40, -3e-39];
        (0..n)
            .map(|_| match draw.bits() % 16 {
                i @ 0..=1 => QUIET[i as usize],
                i @ 2..=3 => QUIET[i as usize] * (1 + draw.bits() % 7) as f32,
                _ => draw.scale(-2.0, 2.0),
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The Simd GEMM in every engine's build against one
        /// [`lanes8_dot`] plus bias per cell: 0–21 rows (every mix of
        /// the four-, two- and one-row steps, and past the 16-row tile),
        /// 1–19 output channels (every mix of 8-, 4- and 1-wide strips), K
        /// 0–41 (every tail, and K below one chunk), with and without the
        /// K-tail defect and the bias, over ±0, subnormals and up to four
        /// planted ±∞ or NaN. As bit patterns, every NaN one pattern: which
        /// of two NaNs a fused multiply-add keeps depends on the instruction
        /// form the compiler picks.
        #[test]
        fn lanes8_builds_agree_on_every_tile_edge(
            rows in 0usize..=21,
            out_c in 1usize..=19,
            k in 0usize..=41,
            skip in 0u8..2,
            with_bias in 0u8..2,
            planted in prop::collection::vec(0usize..4096, 0..5),
            kinds in prop::collection::vec(0usize..3, 4..5),
            seed in 1u64..=u64::MAX,
        ) {
            let (skip, with_bias, mut draw) = (skip == 1, with_bias == 1, Draw(seed));
            let (mut matrix, mut w) = (edge_values(&mut draw, rows * k), edge_values(&mut draw, out_c * k));
            for (&at, &kind) in planted.iter().zip(&kinds) {
                let special = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][kind];
                match at % (matrix.len() + w.len()).max(1) {
                    i if i < matrix.len() => matrix[i] = special,
                    i if i - matrix.len() < w.len() => w[i - matrix.len()] = special,
                    _ => {}
                }
            }
            let bias = edge_values(&mut draw, out_c);
            let bias = with_bias.then_some(&bias[..]);
            let len = k_len(k, skip);
            let want: Vec<f32> = (0..rows * out_c)
                .map(|i| {
                    let (r, oc) = (i / out_c, i % out_c);
                    let dot = lanes8_dot(&matrix[r * k..][..len], &w[oc * k..], len);
                    dot + bias.map_or(0.0, |b| b[oc])
                })
                .collect();
            for engine in SimdEngine::ALL {
                let mut out = vec![7.5; rows * out_c];
                let lanes8 = Reduction::Lanes8 { w: &w, panels: None, skip_k_tail: skip };
                let engine = Engine::runnable(engine);
                let dense = Dense { matrix: &matrix, k };
                float_gemm(engine, lanes8, dense, out_c, bias, Activation::None, &mut out);
                prop_assert_eq!(
                    nan_as_one(&out),
                    nan_as_one(&want),
                    "{:?} {}x{}x{} skip {} bias {}", engine, rows, out_c, k, skip, with_bias
                );
            }
        }
    }

    /// `[out_c, k]` weights `w` packed as [`Lanes8Panels`] reads them.
    fn lanes8_panels(w: &[f32], out_c: usize, k: usize) -> Vec<f32> {
        let weights = Tensor::from_f32(Shape::matrix(out_c, k), w.to_vec()).unwrap();
        let mut panels = vec![f32::NAN; 3];
        pack_lanes8_panels(&weights, &mut panels).unwrap();
        panels
    }

    /// The reduction length the panel property draws from `(kind, any)`:
    /// below one chunk, ragged against it, [`NARROW_K`] or either side of
    /// it, or any of 0–72.
    fn panel_k(kind: usize, any: usize) -> usize {
        match kind {
            0 => any % SIMD_LANES,
            1 => SIMD_LANES * (1 + any % 8) + 3,
            2 => NARROW_K - 1 + any % 3,
            _ => any,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The Simd GEMM over narrow panels ([`Lanes8Panels`]) in every
        /// engine's build against one [`lanes8_dot`] plus bias per cell,
        /// and against the row-major rule: 0–40 rows (every mix of the
        /// three- and one-row steps, past the 16-row tile, and counts no
        /// step divides), K 0–72 (below one chunk, ragged, the threshold
        /// and either side of it), 1–40 output channels (ragged against the
        /// sixteen-wide panel, under and over one panel), with and without
        /// the K-tail defect and the bias (a missing one adds `+0.0`, which
        /// turns a `-0.0` dot into `+0.0`), over ±0, subnormals and up to
        /// four planted ±∞ or NaN, every NaN one pattern.
        #[test]
        fn lanes8_panels_are_the_canonical_dots_bitwise(
            rows in 0usize..=40,
            out_c in 1usize..=40,
            k_kind in 0usize..4,
            k_any in 0usize..=72,
            skip in 0u8..2,
            with_bias in 0u8..2,
            planted in prop::collection::vec(0usize..8192, 0..5),
            kinds in prop::collection::vec(0usize..3, 4..5),
            seed in 1u64..=u64::MAX,
        ) {
            let (skip, with_bias, mut draw) = (skip == 1, with_bias == 1, Draw(seed));
            let k = panel_k(k_kind, k_any);
            let (mut matrix, mut w) = (edge_values(&mut draw, rows * k), edge_values(&mut draw, out_c * k));
            for (&at, &kind) in planted.iter().zip(&kinds) {
                let special = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][kind];
                match at % (matrix.len() + w.len()).max(1) {
                    i if i < matrix.len() => matrix[i] = special,
                    i if i - matrix.len() < w.len() => w[i - matrix.len()] = special,
                    _ => {}
                }
            }
            let bias = edge_values(&mut draw, out_c);
            let bias = with_bias.then_some(&bias[..]);
            let len = k_len(k, skip);
            let want: Vec<f32> = (0..rows * out_c)
                .map(|i| {
                    let (r, oc) = (i / out_c, i % out_c);
                    let dot = lanes8_dot(&matrix[r * k..][..len], &w[oc * k..], len);
                    dot + bias.map_or(0.0, |b| b[oc])
                })
                .collect();
            let panels = lanes8_panels(&w, out_c, k);
            for (engine, panels) in SimdEngine::ALL
                .into_iter()
                .flat_map(|e| [(e, Some(&panels[..])), (e, None)])
            {
                let mut out = vec![7.5; rows * out_c];
                let lanes8 = Reduction::Lanes8 { w: &w, panels, skip_k_tail: skip };
                let engine = Engine::runnable(engine);
                let dense = Dense { matrix: &matrix, k };
                float_gemm(engine, lanes8, dense, out_c, bias, Activation::None, &mut out);
                prop_assert_eq!(
                    nan_as_one(&out),
                    nan_as_one(&want),
                    "{:?} panels {} {}x{}x{} skip {} bias {}",
                    engine, panels.is_some(), rows, out_c, k, skip, with_bias
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
        assert!(["avx512f", "avx2+fma", "scalar"].contains(&e.label()));
    }

    /// The quantized `Conv2d` the reference and optimized flavors ran before
    /// every flavor shared [`conv2d_q`]: one `i32` accumulator per output
    /// value, padding taps skipped, the multiplier recomputed per value.
    /// Body verbatim — the oracle [`conv2d_q`] is held to.
    #[allow(clippy::too_many_arguments)]
    fn conv2d_q_naive(
        node: &Node,
        inputs: &[&Tensor],
        out_def: &TensorDef,
        stride: usize,
        padding: Padding,
        activation: Activation,
        requant: RequantMode,
        out_t: &mut Tensor,
    ) -> Result<()> {
        let (input, weights) = (inputs[0], inputs[1]);
        let bias = inputs.get(2).map(|t| t.as_i32()).transpose()?;
        let (s_in, zp_in) = qparams_of(node, input)?;
        let (s_out, zp_out) = out_qparams(node, out_def)?;
        let wq = weights.quant().cloned().unwrap_or(QuantParams::PerTensor {
            scale: 1.0,
            zero_point: 0,
        });
        let x = input.as_u8()?;
        let w = weights.as_i8()?;
        let ws = weights.shape().dims();
        let (out_c, kh, kw) = (ws[0], ws[1], ws[2]);
        let g = WindowGeom::new(input, out_def, kh, kw, stride, padding);
        let (qlo, qhi) = act_qbounds(activation, s_out, zp_out);
        let out = u8_slot(out_t, out_def)?;
        let ksize = g.patch_len();

        for cell in g.cells() {
            for oc in 0..out_c {
                let mut acc: i32 = bias.map_or(0, |b| b[oc]);
                for (tap, pixel) in g.taps(&cell) {
                    let xs = &x[pixel * g.c..][..g.c];
                    let ws = &w[oc * ksize + tap * g.c..][..g.c];
                    for ic in 0..g.c {
                        acc += (xs[ic] as i32 - zp_in) * ws[ic] as i32;
                    }
                }
                let m = (s_in as f64) * (weight_scale(&wq, oc) as f64) / (s_out as f64);
                out[cell.index * out_c + oc] = requantize(acc, m, zp_out, qlo, qhi, requant);
            }
        }
        Ok(())
    }

    /// The quantized `FullyConnected` the reference and optimized flavors ran
    /// before every flavor shared [`fc_q`]. Body verbatim.
    fn fc_q_naive(
        node: &Node,
        inputs: &[&Tensor],
        out_def: &TensorDef,
        activation: Activation,
        requant: RequantMode,
        out_t: &mut Tensor,
    ) -> Result<()> {
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
            for o in 0..out_f {
                let mut acc: i32 = bias.map(|b| b[o]).unwrap_or(0);
                for i in 0..in_f {
                    acc += (x[n * in_f + i] as i32 - zp_in) * w[o * in_f + i] as i32;
                }
                let m = (s_in as f64) * (wq.for_channel(o).0 as f64) / (s_out as f64);
                out[n * out_f + o] = requantize(acc, m, zp_out, qlo, qhi, requant);
            }
        }
        Ok(())
    }

    /// The zero points a case is drawn with; `None` draws one.
    const ZERO_POINTS: [Option<i32>; 4] = [Some(0), Some(128), Some(255), None];

    /// Quantized operands from a xorshift64* stream; the state is never zero.
    struct Draw(u64);

    impl Draw {
        fn bits(&mut self) -> u32 {
            let s = &mut self.0;
            *s ^= *s >> 12;
            *s ^= *s << 25;
            *s ^= *s >> 27;
            (s.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as u32
        }

        /// In `[lo, hi)`.
        fn scale(&mut self, lo: f32, hi: f32) -> f32 {
            lo + (hi - lo) * (self.bits() >> 8) as f32 / (1u32 << 24) as f32
        }

        fn zero_point(&mut self, which: usize) -> i32 {
            ZERO_POINTS[which].unwrap_or_else(|| (self.bits() % 256) as i32)
        }

        /// A `[dims]` `u8` activation, codes drawn over all of `0..=255`.
        fn input(&mut self, dims: Vec<usize>, scale: f32, zero_point: i32) -> Tensor {
            let shape = Shape::new(dims);
            let codes = (0..shape.num_elements())
                .map(|_| self.bits() as u8)
                .collect();
            Tensor::from_u8(shape, codes, QuantParams::PerTensor { scale, zero_point }).unwrap()
        }

        /// `[out_c, ..]` `i8` weights over all of `-128..=127`, one scale
        /// per output channel or one for the tensor.
        fn weights(&mut self, dims: Vec<usize>, per_channel: bool) -> Tensor {
            let (shape, out_c) = (Shape::new(dims.clone()), dims[0]);
            let w = (0..shape.num_elements())
                .map(|_| self.bits() as i8)
                .collect();
            let quant = if per_channel {
                QuantParams::PerChannel {
                    scales: (0..out_c).map(|_| self.scale(0.005, 0.02)).collect(),
                    zero_points: vec![0; out_c],
                    axis: 0,
                }
            } else {
                QuantParams::PerTensor {
                    scale: self.scale(0.005, 0.02),
                    zero_point: 0,
                }
            };
            Tensor::from_i8(shape, w, quant).unwrap()
        }

        fn bias(&mut self, out_c: usize) -> Tensor {
            let b = (0..out_c).map(|_| (self.bits() as i32) >> 15).collect();
            Tensor::from_i32(Shape::vector(out_c), b, None).unwrap()
        }
    }

    /// A detached node running `op`; the kernels read only its name.
    fn q_node(op: OpKind) -> Node {
        Node {
            name: "q".into(),
            op,
            inputs: Vec::new(),
            output: TensorId(0),
        }
    }

    /// `kernel`'s `u8` output over `operands`, into a slot shaped `dims`.
    fn run_q(
        operands: &[&Tensor],
        dims: Vec<usize>,
        quant: QuantParams,
        kernel: impl FnOnce(&[&Tensor], &TensorDef, &mut Tensor) -> Result<()>,
    ) -> Vec<u8> {
        let out_def = TensorDef::Activation {
            name: "out".into(),
            shape: Shape::new(dims),
            dtype: DType::U8,
            quant: Some(quant),
        };
        let mut out = Tensor::zeros(DType::U8, out_def.shape().clone());
        kernel(operands, &out_def, &mut out).unwrap();
        out.as_u8().unwrap().to_vec()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Windows 1–7 on each side, strides 1–3, SAME and VALID, stacked
        /// batches, input and output zero points 0, 128, 255 and drawn,
        /// per-tensor and per-channel weights, with and without bias, every
        /// activation's clamp bounds and both requantization precisions: the
        /// one quantized `Conv2d` and — `kh·kw·in_c` inputs wide — the one
        /// quantized FC, each in both builds, against the loops they
        /// replaced.
        #[test]
        fn quantized_conv_and_fc_are_the_scalar_loops_bitwise(
            kh in 1usize..=7,
            kw in 1usize..=7,
            extra_h in 0usize..3,
            extra_w in 0usize..3,
            stride in 1usize..=3,
            same in 0u8..2,
            in_c in 1usize..=12,
            out_c in 1usize..=13,
            batch in 1usize..=3,
            zp_in in 0usize..ZERO_POINTS.len(),
            zp_out in 0usize..ZERO_POINTS.len(),
            per_channel in 0u8..2,
            with_bias in 0u8..2,
            activation in 0usize..ACTIVATIONS.len(),
            single in 0u8..2,
            seed in 1u64..=u64::MAX,
        ) {
            let padding = if same == 1 { Padding::Same } else { Padding::Valid };
            let requant = [RequantMode::Double, RequantMode::Single][single as usize];
            let activation = ACTIVATIONS[activation];
            let (mut draw, k) = (Draw(seed), kh * kw * in_c);
            let (s_in, zp_in) = (draw.scale(0.005, 0.05), draw.zero_point(zp_in));
            // Outputs spread over tens to hundreds of codes around the zero
            // point, so both the rounding and the clamps are exercised.
            let s_out = s_in * 0.0125 * (k as f32).sqrt() / (0.04 * draw.scale(0.1, 1.5));
            let out_quant = QuantParams::PerTensor {
                scale: s_out,
                zero_point: draw.zero_point(zp_out),
            };
            let (h, w) = (kh + extra_h, kw + extra_w);
            let conv_in = draw.input(vec![batch, h, w, in_c], s_in, zp_in);
            let conv_w = draw.weights(vec![out_c, kh, kw, in_c], per_channel == 1);
            let fc_in = draw.input(vec![batch, k], s_in, zp_in);
            let fc_w = draw.weights(vec![out_c, k], per_channel == 1);
            let bias = draw.bias(out_c);
            let with = |x, w| {
                let mut operands = vec![x, w];
                operands.extend((with_bias == 1).then_some(&bias));
                operands
            };
            let (conv_ops, fc_ops) = (with(&conv_in, &conv_w), with(&fc_in, &fc_w));
            let conv_node = q_node(OpKind::Conv2d { stride, padding, activation });
            let fc_node = q_node(OpKind::FullyConnected { activation });
            let (oh, ow) = (
                conv_out_size(h, kh, stride, padding),
                conv_out_size(w, kw, stride, padding),
            );
            let conv_dims = vec![batch, oh, ow, out_c];
            let what = format!(
                "{kh}x{kw}/{stride} {padding:?} {in_c}->{out_c} x{batch} zp {zp_in}->{:?} \
                 per_channel={per_channel} bias={with_bias} {activation:?} {requant:?} seed {seed}",
                out_quant.scalar().1
            );
            let conv_want = run_q(&conv_ops, conv_dims.clone(), out_quant.clone(), |ops, def, out| {
                conv2d_q_naive(&conv_node, ops, def, stride, padding, activation, requant, out)
            });
            let fc_want = run_q(&fc_ops, vec![batch, out_c], out_quant.clone(), |ops, def, out| {
                fc_q_naive(&fc_node, ops, def, activation, requant, out)
            });
            // Stale bytes from an earlier, larger node must not leak in.
            let (mut bordered, mut multipliers) = (vec![0xA5; 4096], vec![f64::NAN; 40]);
            for engine in SimdEngine::ALL.map(Engine::runnable) {
                let conv = run_q(&conv_ops, conv_dims.clone(), out_quant.clone(), |ops, def, out| {
                    conv2d_q(
                        engine, &conv_node, ops, def, stride, padding, activation, requant,
                        &mut bordered, &mut multipliers, out,
                    )
                });
                assert_eq!(conv, conv_want, "{engine:?} conv {what}");
                let fc = run_q(&fc_ops, vec![batch, out_c], out_quant.clone(), |ops, def, out| {
                    fc_q(engine, &fc_node, ops, def, activation, requant, &mut multipliers, out)
                });
                assert_eq!(fc, fc_want, "{engine:?} fc {what}");
            }
        }
    }

    /// `s_in · s_w / s_out = 0.5 − 2⁻⁴⁷`: exact in `f64`, `0.5` in `f32`. So
    /// an odd accumulator rounds toward zero under [`RequantMode::Double`]
    /// and away from it under [`RequantMode::Single`]: the precision must
    /// reach both kernels, which must agree with their oracles either way.
    #[test]
    fn requantization_precision_reaches_both_kernels() {
        let per_tensor = |scale, zero_point| QuantParams::PerTensor { scale, zero_point };
        let (x_quant, out_quant) = (per_tensor(1.0 + f32::EPSILON, 128), per_tensor(2.0, 128));
        let w_quant = per_tensor(1.0 - f32::EPSILON, 0);
        let every_code =
            |dims| Tensor::from_u8(Shape::new(dims), (0..=255).collect(), x_quant.clone()).unwrap();
        let unit = |dims| Tensor::from_i8(Shape::new(dims), vec![1], w_quant.clone()).unwrap();
        let (fc_in, fc_w) = (every_code(vec![256, 1]), unit(vec![1, 1]));
        let (conv_in, conv_w) = (every_code(vec![1, 16, 16, 1]), unit(vec![1, 1, 1, 1]));
        let (fc_ops, conv_ops) = ([&fc_in, &fc_w], [&conv_in, &conv_w]);
        let (conv_dims, act) = (vec![1, 16, 16, 1], Activation::None);
        let conv_node = q_node(OpKind::Conv2d {
            stride: 1,
            padding: Padding::Valid,
            activation: act,
        });
        let fc_node = q_node(OpKind::FullyConnected { activation: act });
        let mut by_mode = Vec::new();
        for requant in [RequantMode::Double, RequantMode::Single] {
            let fc_want = run_q(&fc_ops, vec![256, 1], out_quant.clone(), |ops, def, out| {
                fc_q_naive(&fc_node, ops, def, act, requant, out)
            });
            let conv_want = run_q(
                &conv_ops,
                conv_dims.clone(),
                out_quant.clone(),
                |ops, def, out| {
                    conv2d_q_naive(&conv_node, ops, def, 1, Padding::Valid, act, requant, out)
                },
            );
            assert_eq!(fc_want, conv_want, "{requant:?}");
            for engine in SimdEngine::ALL.map(Engine::runnable) {
                let fc = run_q(&fc_ops, vec![256, 1], out_quant.clone(), |ops, def, out| {
                    fc_q(
                        engine,
                        &fc_node,
                        ops,
                        def,
                        act,
                        requant,
                        &mut Vec::new(),
                        out,
                    )
                });
                assert_eq!(fc, fc_want, "{engine:?} fc {requant:?}");
                let conv = run_q(
                    &conv_ops,
                    conv_dims.clone(),
                    out_quant.clone(),
                    |ops, def, out| {
                        let (bordered, multipliers) = (&mut Vec::new(), &mut Vec::new());
                        conv2d_q(
                            engine,
                            &conv_node,
                            ops,
                            def,
                            1,
                            Padding::Valid,
                            act,
                            requant,
                            bordered,
                            multipliers,
                            out,
                        )
                    },
                );
                assert_eq!(conv, conv_want, "{engine:?} conv {requant:?}");
            }
            by_mode.push(fc_want);
        }
        assert_ne!(
            by_mode[0], by_mode[1],
            "the two precisions must disagree on odd sums"
        );
    }

    /// The int8 dot in both builds, through a `[1, len]` FC against
    /// [`fc_q_naive`], over lengths on both sides of every vector width
    /// and zero points from 0 to 255, and over the largest terms there are
    /// (every code 255, every weight −128, zero point 0). Each channel's
    /// bias cancels its exact dot to a code of 100 under a unit multiplier,
    /// so a dot that is off by any amount below 100 moves the output.
    #[test]
    fn engines_agree_bitwise_on_q8_dots() {
        let unit = |zero_point| QuantParams::PerTensor {
            scale: 1.0,
            zero_point,
        };
        let fc_node = q_node(OpKind::FullyConnected {
            activation: Activation::None,
        });
        let cases = [1, 5, 15, 16, 17, 31, 32, 33, 100, 1000]
            .into_iter()
            .flat_map(|len| {
                let a: Vec<u8> = (0..len).map(|i| (i * 37 % 256) as u8).collect();
                let w: Vec<i8> = (0..2 * len)
                    .map(|i| ((i * 53 % 255) as i16 - 127) as i8)
                    .collect();
                [0, 7, 128, 255].map(|zp| (a.clone(), w.clone(), zp))
            })
            .chain([(vec![255; 1000], vec![-128; 2000], 0)]);
        for (a, w, zp) in cases {
            let len = a.len();
            let dots: Vec<i32> = w
                .chunks(len)
                .map(|w| {
                    a.iter()
                        .zip(w)
                        .map(|(&a, &w)| (a as i32 - zp) * w as i32)
                        .sum()
                })
                .collect();
            let x = Tensor::from_u8(Shape::matrix(1, len), a, unit(zp)).unwrap();
            let w = Tensor::from_i8(Shape::matrix(2, len), w, unit(0)).unwrap();
            let bias: Vec<i32> = dots.iter().map(|dot| 100 - dot).collect();
            let bias = Tensor::from_i32(Shape::vector(2), bias, None).unwrap();
            let (operands, act, requant) = ([&x, &w, &bias], Activation::None, RequantMode::Double);
            let want = run_q(&operands, vec![1, 2], unit(0), |ops, def, out| {
                fc_q_naive(&fc_node, ops, def, act, requant, out)
            });
            assert_eq!(want, [100, 100], "len {len}, zp {zp}");
            for engine in SimdEngine::ALL.map(Engine::runnable) {
                let got = run_q(&operands, vec![1, 2], unit(0), |ops, def, out| {
                    fc_q(
                        engine,
                        &fc_node,
                        ops,
                        def,
                        act,
                        requant,
                        &mut Vec::new(),
                        out,
                    )
                });
                assert_eq!(got, want, "{engine:?} len {len}, zp {zp}");
            }
        }
    }

    /// A float `Conv2d` before it read windows in place: the whole-batch
    /// [`im2col_per_tap`] matrix, padding taps `0.0`, reduced by
    /// [`float_gemm`] under `reduction` — the oracle the windowed walks are
    /// held to. As bit patterns, every NaN one pattern.
    #[allow(clippy::too_many_arguments)]
    fn im2col_gemm(
        engine: Engine,
        reduction: Reduction<'_>,
        g: &WindowGeom,
        x: &[f32],
        out_c: usize,
        bias: Option<&[f32]>,
        act: Activation,
    ) -> Vec<u32> {
        let mut scratch = Vec::new();
        let matrix = im2col_per_tap(g, x, 0.0, &mut scratch);
        let (mut out, k) = (vec![f32::NAN; g.cell_count() * out_c], g.patch_len());
        let rows = Dense { matrix, k };
        float_gemm(engine, reduction, rows, out_c, bias, act, &mut out);
        nan_as_one(&out)
    }

    fn nan_as_one(values: &[f32]) -> Vec<u32> {
        values
            .iter()
            .map(|v| if v.is_nan() { u32::MAX } else { v.to_bits() })
            .collect()
    }

    /// The windows the windowed-conv property draws: pointwise (stride 1
    /// reads the input itself; 2 and 3 go through the bordered copy),
    /// square and one-sided.
    const WINDOWS: [(usize, usize); 5] = [(1, 1), (3, 3), (5, 5), (3, 1), (1, 3)];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The Optimized `Conv2d` reading windows in place from the
        /// zero-bordered input against the im2col path it replaced, in both
        /// builds, bit for bit: every window of [`WINDOWS`], strides 1–3,
        /// SAME and VALID, inputs down to 1×1 (under SAME most taps of a
        /// cell then lie only in the padding), 1–4 input channels (so
        /// `k mod 4` takes every value), 1–21 output channels (every mix of
        /// 8-, 4- and 1-wide panels), stacked batches, with and without
        /// bias, every activation, over stale scratch and a stale, longer tap
        /// buffer. Inputs carry `±0.0`
        /// and weights are planted with `±∞` and NaN: a padding tap is
        /// still multiplied, `0.0 · w`, and added, so a non-finite weight
        /// it meets turns the cell NaN in both paths, and a cell whose
        /// every product is a zero sums to the zero the im2col path made.
        #[test]
        fn windowed_blocked4_conv_is_the_im2col_path_bitwise(
            window in 0usize..WINDOWS.len(),
            in_h in 1usize..=9,
            in_w in 1usize..=9,
            stride in 1usize..=3,
            same in 0u8..2,
            in_c in 1usize..=4,
            out_c in 1usize..=21,
            batch in 1usize..=3,
            with_bias in 0u8..2,
            activation in 0usize..ACTIVATIONS.len(),
            planted in prop::collection::vec(0usize..4096, 0..4),
            kinds in prop::collection::vec(0usize..4, 4..5),
            seed in 1u64..=u64::MAX,
        ) {
            let (kh, kw) = WINDOWS[window];
            let padding = if same == 1 { Padding::Same } else { Padding::Valid };
            let (h, w) = match padding {
                Padding::Same => (in_h, in_w),
                Padding::Valid => (in_h.max(kh), in_w.max(kw)),
            };
            let (oh, ow) = (
                conv_out_size(h, kh, stride, padding),
                conv_out_size(w, kw, stride, padding),
            );
            let act = ACTIVATIONS[activation];
            let mut draw = Draw(seed);
            // Inputs of every sign, a quarter of them zeros of either sign.
            let x: Vec<f32> = (0..batch * h * w * in_c)
                .map(|_| match draw.bits() % 8 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => draw.scale(-2.0, 2.0),
                })
                .collect();
            let mut weights: Vec<f32> =
                (0..out_c * kh * kw * in_c).map(|_| draw.scale(-1.0, 1.0)).collect();
            let len = weights.len();
            for (&at, &kind) in planted.iter().zip(&kinds) {
                weights[at % len] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -0.0][kind];
            }
            let bias: Vec<f32> = (0..out_c).map(|_| draw.scale(-0.5, 0.5)).collect();
            let input = Tensor::from_f32(Shape::nhwc(batch, h, w, in_c), x.clone()).unwrap();
            let weights = Tensor::from_f32(Shape::new(vec![out_c, kh, kw, in_c]), weights).unwrap();
            let bias_t = Tensor::from_f32(Shape::vector(out_c), bias.clone()).unwrap();
            let mut panels = Vec::new();
            pack_weight_panels(&weights, &mut panels).unwrap();
            let out_def = TensorDef::Activation {
                name: "out".into(),
                shape: Shape::nhwc(1, oh, ow, out_c),
                dtype: DType::F32,
                quant: None,
            };
            let g = WindowGeom::new(&input, &out_def, kh, kw, stride, padding);
            let mut operands = vec![&input, &weights];
            operands.extend((with_bias == 1).then_some(&bias_t));
            let bias = (with_bias == 1).then_some(&bias[..]);
            let what = format!(
                "{kh}x{kw}/{stride} {padding:?} {h}x{w}x{in_c}->{out_c} x{batch} \
                 bias={with_bias} {act:?} planted {planted:?} {kinds:?} seed {seed}"
            );
            for engine in SimdEngine::ALL.map(Engine::runnable) {
                let blocked4 = Reduction::Blocked4(&panels);
                let want = im2col_gemm(engine, blocked4, &g, &x, out_c, bias, act);
                let mut scratch = vec![f32::NAN; g.bordered_len() + 5];
                let mut taps = vec![usize::MAX; g.patch_len() + 7];
                let mut out = Tensor::filled_f32(Shape::nhwc(batch, oh, ow, out_c), 7.5);
                conv2d_f32_gemm(
                    engine, Reduction::Blocked4(&panels), &operands, &out_def, stride, padding,
                    act, &mut scratch, &mut taps, &mut out,
                )
                .unwrap();
                prop_assert_eq!(nan_as_one(out.as_f32().unwrap()), want, "{:?} {}", engine, what);
            }
        }
    }

    /// The `(kh, kw, in_c)` the Simd windowed-conv property draws beside
    /// its narrow windows: `k` of 63, 64 and 65 — either side of
    /// [`NARROW_K`] — and past it, most with a window row `kw · in_c` that
    /// eight does not divide, so that a chunk of eight taps crosses from
    /// one window row into the next.
    const WIDE_WINDOWS: [(usize, usize, usize); 6] = [
        (3, 3, 7),
        (2, 2, 16),
        (1, 5, 13),
        (3, 1, 22),
        (3, 3, 8),
        (5, 5, 3),
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The Simd `Conv2d` reading its windows in place from the
        /// zero-bordered input — over narrow panels and as the row-major
        /// tiles (no panels) — against the im2col path, in every engine's
        /// build, bit for bit: 3×3 and 1×3 windows over 1–4 input channels
        /// and the [`WIDE_WINDOWS`], strides 1 and 2, SAME and VALID, inputs
        /// down to 1×1, 1–40 output channels (ragged against the panel and
        /// the strips), batches of 1 and 3, with and without bias and the
        /// K-tail defect, every activation, over stale scratch and a stale
        /// tap buffer, with `±0.0` inputs and `±∞` / NaN weights.
        #[test]
        fn windowed_lanes8_conv_is_the_im2col_path_bitwise(
            window in 0usize..2,
            wide in 0u8..2,
            wide_at in 0usize..WIDE_WINDOWS.len(),
            in_h in 1usize..=9,
            in_w in 1usize..=9,
            stride in 1usize..=2,
            same in 0u8..2,
            in_c in 1usize..=4,
            out_c in 1usize..=40,
            three in 0u8..2,
            with_bias in 0u8..2,
            skip in 0u8..2,
            activation in 0usize..ACTIVATIONS.len(),
            planted in prop::collection::vec(0usize..4096, 0..4),
            kinds in prop::collection::vec(0usize..4, 4..5),
            seed in 1u64..=u64::MAX,
        ) {
            let (kh, kw, in_c) = match wide {
                1 => WIDE_WINDOWS[wide_at],
                _ => ([3, 1][window], 3, in_c),
            };
            let batch = [1, 3][three as usize];
            let padding = if same == 1 { Padding::Same } else { Padding::Valid };
            let (h, w) = match padding {
                Padding::Same => (in_h, in_w),
                Padding::Valid => (in_h.max(kh), in_w.max(kw)),
            };
            let (oh, ow) = (
                conv_out_size(h, kh, stride, padding),
                conv_out_size(w, kw, stride, padding),
            );
            let (act, skip_k_tail) = (ACTIVATIONS[activation], skip == 1);
            let mut draw = Draw(seed);
            let x: Vec<f32> = (0..batch * h * w * in_c)
                .map(|_| match draw.bits() % 8 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => draw.scale(-2.0, 2.0),
                })
                .collect();
            let mut weights: Vec<f32> =
                (0..out_c * kh * kw * in_c).map(|_| draw.scale(-1.0, 1.0)).collect();
            let len = weights.len();
            for (&at, &kind) in planted.iter().zip(&kinds) {
                weights[at % len] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -0.0][kind];
            }
            let bias: Vec<f32> = (0..out_c).map(|_| draw.scale(-0.5, 0.5)).collect();
            let input = Tensor::from_f32(Shape::nhwc(batch, h, w, in_c), x.clone()).unwrap();
            let weights = Tensor::from_f32(Shape::new(vec![out_c, kh, kw, in_c]), weights).unwrap();
            let bias_t = Tensor::from_f32(Shape::vector(out_c), bias.clone()).unwrap();
            let mut panels = Vec::new();
            pack_lanes8_panels(&weights, &mut panels).unwrap();
            let out_def = TensorDef::Activation {
                name: "out".into(),
                shape: Shape::nhwc(1, oh, ow, out_c),
                dtype: DType::F32,
                quant: None,
            };
            let g = WindowGeom::new(&input, &out_def, kh, kw, stride, padding);
            let mut operands = vec![&input, &weights];
            operands.extend((with_bias == 1).then_some(&bias_t));
            let bias = (with_bias == 1).then_some(&bias[..]);
            let what = format!(
                "{kh}x{kw}/{stride} {padding:?} {h}x{w}x{in_c}->{out_c} x{batch} \
                 bias={with_bias} skip={skip} {act:?} planted {planted:?} {kinds:?} seed {seed}"
            );
            let w = weights.as_f32().unwrap();
            for engine in SimdEngine::ALL.map(Engine::runnable) {
                let tiles = Reduction::Lanes8 { w, panels: None, skip_k_tail };
                let want = im2col_gemm(engine, tiles, &g, &x, out_c, bias, act);
                for panels in [Some(&panels[..]), None] {
                    let mut scratch = vec![f32::NAN; g.bordered_len() + 5];
                    let mut taps = vec![usize::MAX; g.patch_len() + 7];
                    let mut out = Tensor::filled_f32(Shape::nhwc(batch, oh, ow, out_c), 7.5);
                    let lanes8 = Reduction::Lanes8 { w, panels, skip_k_tail };
                    conv2d_f32_gemm(
                        engine, lanes8, &operands, &out_def, stride, padding, act,
                        &mut scratch, &mut taps, &mut out,
                    )
                    .unwrap();
                    prop_assert_eq!(
                        &nan_as_one(out.as_f32().unwrap()), &want,
                        "{:?} panels {} {}", engine, panels.is_some(), what
                    );
                }
            }
        }
    }

    /// The once-per-node proof behind the Optimized `Conv2d`'s unchecked
    /// window reads: it holds for a geometry's own taps, whose last cell's
    /// last tap is the bordered input's last element, and fails — so
    /// `Windows::new` panics — once a tap reaches one element further.
    #[test]
    #[should_panic(expected = "reach past a bordered input")]
    fn windows_whose_taps_reach_past_the_bordered_input_are_refused() {
        let input = Tensor::filled_f32(Shape::nhwc(2, 5, 5, 3), 1.0);
        let out_def = TensorDef::Activation {
            name: "out".into(),
            shape: Shape::nhwc(1, 3, 3, 4),
            dtype: DType::F32,
            quant: None,
        };
        let g = WindowGeom::new(&input, &out_def, 3, 3, 2, Padding::Same);
        let mut bordered = Vec::new();
        g.border(input.as_f32().unwrap(), 0.0, &mut bordered)
            .unwrap();
        let mut taps: Vec<usize> = g.tap_offsets().collect();
        let (steps, cells) = (g.bordered_steps(), 2 * 3 * 3);
        assert!(windows_inside(bordered.len(), &taps, steps, cells));
        let bound = steps.origin_bound(cells - 1).unwrap();
        assert_eq!(bound + taps.iter().max().unwrap(), bordered.len() - 1);
        *taps.last_mut().unwrap() += 1;
        assert!(!windows_inside(bordered.len(), &taps, steps, cells));
        Windows::new(&bordered, &taps, steps, cells);
    }

    /// The whole-batch im2col matrix of `x`, `[cells, kh·kw·c]`, padding
    /// taps `fill`: one `c`-element copy per in-bounds tap — or `x` itself
    /// for a pointwise window. The oracle of every windowed float kernel:
    /// element `p` of a window read in place must be element `p` of its
    /// row here.
    fn im2col_per_tap<'a, T: Copy>(
        g: &WindowGeom,
        x: &'a [T],
        fill: T,
        scratch: &'a mut Vec<T>,
    ) -> &'a [T] {
        if g.is_pointwise() {
            return x;
        }
        let ksize = g.patch_len();
        scratch.clear();
        scratch.resize(g.cell_count() * ksize, fill);
        for cell in g.cells() {
            let row = &mut scratch[cell.index * ksize..][..ksize];
            for (tap, pixel) in g.taps(&cell) {
                row[tap * g.c..][..g.c].copy_from_slice(&x[pixel * g.c..][..g.c]);
            }
        }
        scratch
    }
}
