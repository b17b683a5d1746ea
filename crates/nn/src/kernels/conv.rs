//! Convolution kernels that walk the kernel window per output cell: the
//! float **reference** `Conv2d` ([`conv2d_f32`] — the oracle every faster
//! float path is compared against), and one depthwise walk
//! ([`depthwise_row`]) that runs the float kernel every flavor shares and
//! the int8 kernels — exact, and with the injected optimized-flavor defect
//! of §4.4. The optimized and SIMD float `Conv2d`, and the quantized
//! `Conv2d` of every flavor, are the GEMM kernels in [`gemm`](super::gemm),
//! which read their windows in place from a bordered copy of the input. Every window loop here is [`WindowGeom::taps`]
//! or its run form [`WindowGeom::runs`]; the depthwise walk also unrolls
//! the nine taps of an unclipped 3×3 window.
//!
//! What makes the reference kernels the oracle is their **sum**, not their
//! loop nest: every output value is one accumulator seeded with the bias
//! that adds its window's products one at a time in `(ky, kx, ic)` order,
//! with an unfused multiply-then-add (Rust never contracts `a + x * w`) and
//! padding taps skipped rather than added as `0 · w`. The sums of different
//! output values share nothing, so which of them advance side by side is
//! free. Both walks go along each output row in groups of adjacent cells
//! ([`WindowGeom::row_groups`]): cells whose windows have every column in
//! bounds have the same runs, their inputs `stride · c` apart, so a group
//! reads each weight once for all its cells. [`conv2d_f32`] runs a group's
//! cells × eight output channels side by side over weights packed once into
//! panels — groups of six, three, then two cells in the AVX2+FMA build, of
//! four, then two in the baseline; [`dwconv_f32_channels`] runs up to
//! sixteen channels of a group of three, then two cells (two in the
//! baseline) in registers. Border cells, and a row's end that no group fits,
//! walk alone, as does every cell of the int8 depthwise, which measured
//! slower in groups. A group changes which sums advance together, never a sum:
//! each output keeps its own accumulator, seed, term order (forward, or
//! backward for a reversed [`Chain`]) and rounding, whatever the chain. The
//! one-accumulator-at-a-time loops these walks replaced are kept verbatim
//! in this module's tests, which hold both kernels to them bit for bit —
//! under the baseline build and the AVX2 one, on drawn layers and on layers
//! that put every edge of a group on a row — as they hold the int8
//! depthwise to the per-cell loop it replaced: integer sums are exact in
//! any order. The edge emulator runs the float walks under other
//! [`Chain`]s — reversed, or striped over eight lanes; split or fused —
//! which the tests hold to the per-cell gather loops the emulator ran
//! before.

use mlexray_tensor::{QuantParams, Tensor};

use crate::graph::{Node, TensorDef};
use crate::kernels::gemm::{Engine, SimdEngine};
use crate::kernels::window::{Row, Window, WindowGeom};
use crate::kernels::{f32_slot, qparams_of, requantize, room, u8_slot, Chain, Ordered, Requant};
use crate::ops::{Activation, Padding};
use crate::resolver::{EdgeNumerics, RequantMode};
use crate::Result;

/// The `(first channel, width)` of each output-channel panel of `out_c`
/// channels: as many 8-wide panels as fit, then 4-wide, then single
/// channels for the ragged tail.
pub(super) fn weight_panels(out_c: usize) -> impl Iterator<Item = (usize, usize)> {
    let mut next = 0;
    std::iter::from_fn(move || {
        let width = match out_c - next {
            0 => return None,
            1..=3 => 1,
            4..=7 => 4,
            _ => 8,
        };
        next += width;
        Some((next - width, width))
    })
}

/// Lays `[out_c, k]` weights — a `Conv2d`'s `[out_c, kh, kw, in_c]`
/// (`k = kh·kw·in_c`), a `FullyConnected`'s `[out, in]` — out as the panel
/// kernels read them: each panel of [`weight_panels`] is `[k][width]`
/// contiguous and the panel of channel `oc0` starts at `oc0 · k`, so
/// `packed` ends up as long as the weights. `packed` grows through
/// [`room`].
pub(crate) fn pack_weight_panels(weights: &Tensor, packed: &mut Vec<f32>) -> Result<()> {
    let w = weights.as_f32()?;
    let out_c = weights.shape().dims()[0];
    let ksize = w.len() / out_c.max(1);
    let packed = room(packed, w.len())?;
    for (oc0, width) in weight_panels(out_c) {
        let rows = &w[oc0 * ksize..][..width * ksize];
        for k in 0..ksize {
            packed.extend((0..width).map(|lane| rows[lane * ksize + k]));
        }
    }
    Ok(())
}

/// What a panel's chains read: the chain, the geometry, the group's first
/// window, the input, the panel and its biases.
type PanelArgs<'a, C> = (
    C,
    &'a WindowGeom,
    &'a Window,
    &'a [f32],
    &'a [f32],
    Option<&'a [f32]>,
);

/// `N` adjacent output cells of one `W`-channel panel — a group of
/// [`WindowGeom::row_groups`], `window` its first cell's — into `out`, cell
/// `i`'s channels at `i · out_c`: `N × W` independent `chain` sums, each
/// seeded with its bias and taking its `(ky, kx, ic)` products in walk
/// order, before the activation. Each weight vector is loaded once for the
/// `N` cells. `W` and `N` are consts so the chains live in registers.
#[inline(always)]
fn conv2d_panel_chains<C: Chain, const W: usize, const N: usize>(
    (chain, g, window, x, panel, bias): PanelArgs<C>,
    out: &mut [f32],
    out_c: usize,
) {
    let mut seeds = [0.0; W];
    if let Some(bias) = bias {
        seeds.copy_from_slice(bias);
    }
    let mut acc = [seeds.map(|b| chain.seed(b)); N];
    let step = g.cell_step();
    for (at, run) in Ordered(C::REVERSED, g.runs(window)) {
        let len = run.len();
        let ws = &panel[at * W..][..len * W];
        let xs: [&[f32]; N] = std::array::from_fn(|i| &x[run.start + i * step..][..len]);
        for (t, wv) in Ordered(C::REVERSED, ws.chunks_exact(W).enumerate()) {
            for (acc, xs) in acc.iter_mut().zip(xs) {
                let xv = xs[t];
                for lane in 0..W {
                    acc[lane] = chain.step(acc[lane], xv, wv[lane]);
                }
            }
        }
    }
    for (i, acc) in acc.iter().enumerate() {
        for (o, &acc) in out[i * out_c..][..W].iter_mut().zip(acc) {
            *o = chain.finish(acc);
        }
    }
}

/// [`conv2d_panel_chains`] over a group of `n` cells, `n` one of `N`, `H`,
/// `Q` and 1.
#[inline(always)]
fn conv2d_group<C: Chain, const W: usize, const N: usize, const H: usize, const Q: usize>(
    n: usize,
    args: PanelArgs<C>,
    out: &mut [f32],
    out_c: usize,
) {
    match n {
        _ if n == N => conv2d_panel_chains::<C, W, N>(args, out, out_c),
        _ if n == H => conv2d_panel_chains::<C, W, H>(args, out, out_c),
        _ if n == Q => conv2d_panel_chains::<C, W, Q>(args, out, out_c),
        _ => conv2d_panel_chains::<C, W, 1>(args, out, out_c),
    }
}

/// The reference `Conv2d` walk in [`WindowGeom::row_groups`] of `N`, `H`
/// or `Q` cells: per output row, per group, per panel, the panel's chains;
/// then the row's activation in one pass.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn conv2d_rows<C: Chain, const N: usize, const H: usize, const Q: usize>(
    chain: C,
    g: &WindowGeom,
    x: &[f32],
    panels: &[f32],
    out_c: usize,
    bias: Option<&[f32]>,
    activation: Activation,
    out: &mut [f32],
) {
    let ksize = g.patch_len();
    for row in g.rows() {
        for (window, n) in g.row_groups(row, [N, H, Q]) {
            let out = &mut out[window.index * out_c..][..n * out_c];
            for (oc0, width) in weight_panels(out_c) {
                let panel = &panels[oc0 * ksize..][..width * ksize];
                let bias = bias.map(|b| &b[oc0..oc0 + width]);
                let (args, out) = ((chain, g, &window, x, panel, bias), &mut out[oc0..]);
                match width {
                    8 => conv2d_group::<C, 8, N, H, Q>(n, args, out, out_c),
                    4 => conv2d_group::<C, 4, N, H, Q>(n, args, out, out_c),
                    _ => conv2d_group::<C, 1, N, H, Q>(n, args, out, out_c),
                }
            }
        }
        activation.apply_in_place(&mut out[row.index * out_c..][..g.out_width() * out_c]);
    }
}

native_kernel! {
    /// The reference `Conv2d` over `x` under `chain`: [`conv2d_rows`] in
    /// groups of six adjacent cells, then three, then two in the AVX2+FMA
    /// build, and four, then two in the baseline — as many as the build's
    /// sixteen vector registers hold `× 8` chains of, with a weight vector
    /// and a broadcast input beside them; the smaller groups take the
    /// ragged end of a row. Chosen by measurement, like `gemm`'s `MR`: the
    /// reference `Conv2d` of `mini_mobilenet_v2@24` (rows of 12 and 6
    /// cells), best of 60 invokes on a shared 2-vCPU AVX2 host, AVX2+FMA
    /// build: 24.3 µs one cell at a time; groups of 4 then 2: 11.7; 8, 4, 2:
    /// 11.0; 6, 3, 2: 9.8 — at `mini_mobilenet_v2@32` (rows of 16 and 8):
    /// 42, 18.9, 16.0 and 18.2 µs. Baseline build: 35–45 µs one cell at a
    /// time, 21–26 in groups of 4 then 2, 24–27 in groups of 6, 3, 2 (at
    /// `@32`: 67–83, 36–43 and 46–49 µs). Every chain gains alike, the
    /// emulator's striped one — whose nine-word sums spill — included.
    fn conv2d_panel_cells<C: Chain>[build](
        chain: C,
        g: &WindowGeom,
        x: &[f32],
        panels: &[f32],
        out_c: usize,
        bias: Option<&[f32]>,
        activation: Activation,
        out: &mut [f32],
    ) {
        // A two-build kernel: `Avx512` engines run its AVX2+FMA build.
        match build {
            SimdEngine::Avx2Fma | SimdEngine::Avx512 => {
                conv2d_rows::<C, 6, 3, 2>(chain, g, x, panels, out_c, bias, activation, out)
            }
            SimdEngine::Scalar => {
                conv2d_rows::<C, 4, 2, 1>(chain, g, x, panels, out_c, bias, activation, out)
            }
        }
    }
}

/// Reference float 2-D convolution over `panels`, the weights as
/// [`pack_weight_panels`] lays them out (`inputs[1]` is read for its shape
/// only): one sum per output value under `numerics`' [`Chain`], seeded
/// with the bias, a group of cells' worth of a panel's worth of them
/// advancing side by side, in `engine`'s build.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv2d_f32(
    engine: Engine,
    numerics: EdgeNumerics,
    inputs: &[&Tensor],
    panels: &[f32],
    out_def: &TensorDef,
    stride: usize,
    padding: Padding,
    activation: Activation,
    out_t: &mut Tensor,
) -> Result<()> {
    let (input, weights) = (inputs[0], inputs[1]);
    let bias = inputs.get(2).map(|t| t.as_f32()).transpose()?;
    let ws = weights.shape().dims();
    let (out_c, kh, kw) = (ws[0], ws[1], ws[2]);
    let g = WindowGeom::new(input, out_def, kh, kw, stride, padding);
    let (x, out) = (input.as_f32()?, f32_slot(out_t, out_def)?);
    with_chain!(numerics, chain => {
        conv2d_panel_cells(engine, chain, &g, x, panels, out_c, bias, activation, out)
    });
    Ok(())
}

/// How one depthwise channel sum starts and takes a tap: the running sum
/// `Acc` of a channel adds the product of an input element `X` and its
/// weight `W`, its taps walked last to first when `REVERSED`. The float
/// kernel under every [`Chain`] and the two int8 kernels are one walk
/// ([`depthwise_row`]) over these.
trait DepthwiseMac: Copy {
    type X: Copy;
    type W: Copy;
    type Acc: Copy;
    const REVERSED: bool;
    /// Whether the walk advances several cells' sums side by side.
    const GROUPED: bool;

    /// The sums of channels `ch0..ch0 + B` before their first tap.
    fn seeds<const B: usize>(self, ch0: usize) -> [Self::Acc; B];
    fn mac(self, acc: Self::Acc, x: Self::X, w: Self::W) -> Self::Acc;
}

/// The float sum: `chain`'s, seeded with the channel's bias.
#[derive(Clone, Copy)]
struct FloatMac<'a, C> {
    chain: C,
    bias: Option<&'a [f32]>,
}

impl<C: Chain> DepthwiseMac for FloatMac<'_, C> {
    type X = f32;
    type W = f32;
    type Acc = C::Acc;
    const REVERSED: bool = C::REVERSED;
    const GROUPED: bool = true;

    #[inline(always)]
    fn seeds<const B: usize>(self, ch0: usize) -> [C::Acc; B] {
        let mut bias = [0.0; B];
        if let Some(b) = self.bias {
            bias.copy_from_slice(&b[ch0..ch0 + B]);
        }
        bias.map(|b| self.chain.seed(b))
    }

    #[inline(always)]
    fn mac(self, acc: C::Acc, x: f32, w: f32) -> C::Acc {
        self.chain.step(acc, x, w)
    }
}

/// The channel blocks of `c` channels as `(first channel, width)`: 16-wide
/// while they fit, then one 8-wide, then single channels.
#[inline(always)]
fn channel_blocks(c: usize) -> impl Iterator<Item = (usize, usize)> {
    let mut next = 0;
    std::iter::from_fn(move || {
        let width = match c - next {
            0 => return None,
            1..=7 => 1,
            8..=15 => 8,
            _ => 16,
        };
        next += width;
        Some((next - width, width))
    })
}

/// `acc[lane] += xs[lane] · ws[lane]` for the `B` lanes, under `mac`.
#[inline(always)]
fn mac_lanes<M: DepthwiseMac, const B: usize>(
    mac: M,
    acc: &mut [M::Acc; B],
    xs: &[M::X],
    ws: &[M::W],
) {
    let (xs, ws) = (&xs[..B], &ws[..B]);
    for lane in 0..B {
        acc[lane] = mac.mac(acc[lane], xs[lane], ws[lane]);
    }
}

/// `N` adjacent cells' `B` channels from `ch0` on — a group of
/// [`WindowGeom::row_groups`], `window` its first cell's — each cell's sums
/// handed to `emit(cell, ch0, sums)`: each channel's sum starts at its seed
/// and takes the cell's in-bounds taps in `(ky, kx)` order (or the reverse)
/// — the nine of an unclipped 3×3 window unrolled, any other window's from
/// [`WindowGeom::runs`] — the `N` cells' taps side by side, sharing each
/// weight load. `B` and `N` are consts, so the sums live in registers.
#[inline(always)]
fn depthwise_block<M: DepthwiseMac, const B: usize, const N: usize>(
    mac: M,
    g: &WindowGeom,
    window: &Window,
    x: &[M::X],
    w: &[M::W],
    ch0: usize,
    emit: &mut impl FnMut(usize, usize, &[M::Acc]),
) {
    let (c, step) = (g.c, g.cell_step());
    let mut acc = [mac.seeds::<B>(ch0); N];
    match (g.kernel(), g.unclipped_origin(window)) {
        ((3, 3), Some(origin)) => {
            let row_len = g.in_row_len();
            for ky in Ordered(M::REVERSED, 0..3) {
                let at = origin + ky * row_len + ch0;
                let xs: [&[M::X]; N] = std::array::from_fn(|i| &x[at + i * step..][..2 * c + B]);
                let ws = &w[ky * 3 * c + ch0..][..2 * c + B];
                for kx in Ordered(M::REVERSED, 0..3) {
                    for (acc, xs) in acc.iter_mut().zip(xs) {
                        mac_lanes(mac, acc, &xs[kx * c..], &ws[kx * c..]);
                    }
                }
            }
        }
        _ => {
            for (at, run) in Ordered(M::REVERSED, g.runs(window)) {
                for kx in Ordered(M::REVERSED, 0..window.cols()) {
                    let ws = &w[at + kx * c + ch0..];
                    for (i, acc) in acc.iter_mut().enumerate() {
                        mac_lanes(mac, acc, &x[run.start + i * step + kx * c + ch0..], ws);
                    }
                }
            }
        }
    }
    for (i, acc) in acc.iter().enumerate() {
        emit(window.index + i, ch0, acc);
    }
}

/// The depthwise convolution of `x` by `w: [kh·kw, c]` over one output
/// row ([`depthwise_groups`]). Float sums go in groups of three adjacent
/// cells, then two, in the AVX2+FMA build and of two in the baseline; the
/// int8 sums one cell at a time. Chosen by measurement, best of 60 invokes
/// on a shared 2-vCPU AVX2 host: the float depthwise of
/// `mini_mobilenet_v2@24` took 5.2 µs one cell at a time, 4.5 in groups of
/// two and 4.2 in groups of three then two (`@32`: 8.8, 7.6 and 6.7 µs);
/// the int8 depthwise of `mobilenet_v2@48` took
/// 564–580 µs one cell at a time and 742–770 µs in groups of three.
#[inline(always)]
fn depthwise_row<M: DepthwiseMac>(
    mac: M,
    build: SimdEngine,
    g: &WindowGeom,
    row: Row,
    x: &[M::X],
    w: &[M::W],
    emit: impl FnMut(usize, usize, &[M::Acc]),
) {
    match (M::GROUPED, build) {
        (false, _) => depthwise_groups::<M, 1, 1>(mac, g, row, x, w, emit),
        // The depthwise kernels have two builds: `Avx512` runs the AVX2 one.
        (true, SimdEngine::Avx2Fma | SimdEngine::Avx512) => {
            depthwise_groups::<M, 3, 2>(mac, g, row, x, w, emit)
        }
        (true, SimdEngine::Scalar) => depthwise_groups::<M, 2, 1>(mac, g, row, x, w, emit),
    }
}

/// [`depthwise_row`] in groups of up to `N` cells, each group channel
/// block by channel block of [`channel_blocks`] ([`depthwise_block`]): each
/// cell's block of sums goes to `emit(cell, ch0, sums)`, where `cell` is
/// the cell's flat NHW offset.
#[inline(always)]
fn depthwise_groups<M: DepthwiseMac, const N: usize, const H: usize>(
    mac: M,
    g: &WindowGeom,
    row: Row,
    x: &[M::X],
    w: &[M::W],
    mut emit: impl FnMut(usize, usize, &[M::Acc]),
) {
    for (window, n) in g.row_groups(row, [N, H]) {
        let (window, emit) = (&window, &mut emit);
        for (ch0, width) in channel_blocks(g.c) {
            match width {
                16 => depthwise_group::<M, 16, N, H>(n, mac, g, window, x, w, ch0, emit),
                8 => depthwise_group::<M, 8, N, H>(n, mac, g, window, x, w, ch0, emit),
                _ => depthwise_group::<M, 1, N, H>(n, mac, g, window, x, w, ch0, emit),
            }
        }
    }
}

/// [`depthwise_block`] over a group of `n` cells, `n` one of `N`, `H` and
/// 1.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn depthwise_group<M: DepthwiseMac, const B: usize, const N: usize, const H: usize>(
    n: usize,
    mac: M,
    g: &WindowGeom,
    window: &Window,
    x: &[M::X],
    w: &[M::W],
    ch0: usize,
    emit: &mut impl FnMut(usize, usize, &[M::Acc]),
) {
    match n {
        _ if n == N => depthwise_block::<M, B, N>(mac, g, window, x, w, ch0, emit),
        _ if n == H => depthwise_block::<M, B, H>(mac, g, window, x, w, ch0, emit),
        _ => depthwise_block::<M, B, 1>(mac, g, window, x, w, ch0, emit),
    }
}

native_kernel! {
    /// The float depthwise convolution of `x` by `w: [kh·kw, c]` under
    /// `chain`, output row by output row: the row's cells
    /// ([`depthwise_row`], each channel's sum seeded with its bias), then
    /// the row's activation in one pass.
    fn dwconv_cells<C: Chain>[build](
        chain: C,
        g: &WindowGeom,
        x: &[f32],
        w: &[f32],
        bias: Option<&[f32]>,
        activation: Activation,
        out: &mut [f32],
    ) {
        let (c, mac) = (g.c, FloatMac { chain, bias });
        for row in g.rows() {
            depthwise_row(mac, build, g, row, x, w, #[inline(always)] |cell, ch0, sums| {
                let out = &mut out[cell * c + ch0..][..sums.len()];
                for (o, &sum) in out.iter_mut().zip(sums) {
                    *o = chain.finish(sum);
                }
            });
            activation.apply_in_place(&mut out[row.index * c..][..g.out_width() * c]);
        }
    }
}

/// Float depthwise convolution of every flavor, the emulator included, in
/// `engine`'s build: in groups of adjacent cells along each output row,
/// each group's channels in 16- and 8-wide register blocks and then one by
/// one, the nine taps of an unclipped 3×3 window unrolled and any other
/// window's taps walked run by run; then one activation pass per row. Every channel is an
/// independent sum under `numerics`' [`Chain`] over its in-bounds taps in
/// `(ky, kx)` order, seeded with the bias; the faithful chain — every
/// native flavor's — adds them with **unfused** multiply-adds, so outputs
/// are the reference bits in every flavor, on every host and in both builds.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dwconv_f32_channels(
    engine: Engine,
    numerics: EdgeNumerics,
    inputs: &[&Tensor],
    out_def: &TensorDef,
    stride: usize,
    padding: Padding,
    activation: Activation,
    out_t: &mut Tensor,
) -> Result<()> {
    let (input, weights) = (inputs[0], inputs[1]);
    let bias = inputs.get(2).map(|t| t.as_f32()).transpose()?;
    let ws = weights.shape().dims();
    let g = WindowGeom::new(input, out_def, ws[1], ws[2], stride, padding);
    let out = f32_slot(out_t, out_def)?;
    let (x, w) = (input.as_f32()?, weights.as_f32()?);
    with_chain!(numerics, chain => dwconv_cells(engine, chain, &g, x, w, bias, activation, out));
    Ok(())
}

pub(super) fn weight_scale(q: &QuantParams, c: usize) -> f32 {
    q.for_channel(c).0
}

/// Which quantized depthwise kernel runs — resolved once, when the
/// interpreter is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum QuantDepthwise {
    /// Exact `i32` sums.
    Exact,
    /// The optimized flavor's injected defect (§4.4,
    /// `KernelBugs::optimized_dwconv_i16_accumulator`): products are
    /// accumulated into a wrapping 16-bit register, overflowing on
    /// realistic activations.
    WrappingI16,
}

/// An int8 depthwise channel sum: `u8` inputs less their zero point times
/// `i8` weights, and what the sum is worth before the bias.
trait QuantMac: DepthwiseMac<X = u8, W = i8> {
    fn total(acc: Self::Acc) -> i32;
}

/// The exact sum.
#[derive(Clone, Copy)]
struct ExactMac {
    zp_in: i32,
}

impl DepthwiseMac for ExactMac {
    type X = u8;
    type W = i8;
    type Acc = i32;
    const REVERSED: bool = false;
    const GROUPED: bool = false;

    #[inline(always)]
    fn seeds<const B: usize>(self, _: usize) -> [i32; B] {
        [0; B]
    }

    #[inline(always)]
    fn mac(self, acc: i32, x: u8, w: i8) -> i32 {
        acc + (x as i32 - self.zp_in) * w as i32
    }
}

impl QuantMac for ExactMac {
    #[inline(always)]
    fn total(acc: i32) -> i32 {
        acc
    }
}

/// The injected defect: the optimized kernel pre-scales products into the
/// Q13 domain of its 16-bit SIMD lane and accumulates with wrapping
/// arithmetic...
#[derive(Clone, Copy)]
struct WrappingI16Mac {
    zp_in: i32,
}

impl DepthwiseMac for WrappingI16Mac {
    type X = u8;
    type W = i8;
    type Acc = i16;
    const REVERSED: bool = false;
    const GROUPED: bool = false;

    #[inline(always)]
    fn seeds<const B: usize>(self, _: usize) -> [i16; B] {
        [0; B]
    }

    #[inline(always)]
    fn mac(self, acc: i16, x: u8, w: i8) -> i16 {
        acc.wrapping_add((((x as i32 - self.zp_in) * w as i32) << 2) as i16)
    }
}

impl QuantMac for WrappingI16Mac {
    /// ...and forgets to scale back down before the bias.
    #[inline(always)]
    fn total(acc: i16) -> i32 {
        acc as i32 >> 2
    }
}

impl Requant<'_> {
    /// Requantizes the sums of channels `ch0..` into `out`, each total plus
    /// its bias, with the precision's `match` taken once per block.
    #[inline(always)]
    fn block<M: QuantMac>(&self, ch0: usize, sums: &[M::Acc], out: &mut [u8]) {
        let mut totals = [0i32; 16];
        let totals = &mut totals[..sums.len()];
        for (lane, (t, &sum)) in totals.iter_mut().zip(sums).enumerate() {
            *t = M::total(sum) + self.bias.map_or(0, |b| b[ch0 + lane]);
        }
        let multipliers = &self.multipliers[ch0..][..sums.len()];
        let (zp, lo, hi) = (self.zp_out, self.qlo, self.qhi);
        match self.mode {
            RequantMode::Double => {
                for ((o, &t), &m) in out.iter_mut().zip(&*totals).zip(multipliers) {
                    *o = requantize(t, m, zp, lo, hi, RequantMode::Double);
                }
            }
            RequantMode::Single => {
                for ((o, &t), &m) in out.iter_mut().zip(&*totals).zip(multipliers) {
                    *o = requantize(t, m, zp, lo, hi, RequantMode::Single);
                }
            }
        }
    }
}

/// The int8 cell walk over `mac`'s sums, each block requantized as it
/// leaves the walk.
#[inline(always)]
fn dwconv_q_walk<M: QuantMac>(
    mac: M,
    build: SimdEngine,
    g: &WindowGeom,
    x: &[u8],
    w: &[i8],
    rq: &Requant,
    out: &mut [u8],
) {
    let c = g.c;
    for row in g.rows() {
        depthwise_row(
            mac,
            build,
            g,
            row,
            x,
            w,
            #[inline(always)]
            |cell, ch0, sums| {
                rq.block::<M>(ch0, sums, &mut out[cell * c + ch0..][..sums.len()]);
            },
        );
    }
}

native_kernel! {
    /// The int8 depthwise convolution of `x` by `w: [kh·kw, c]`: the float
    /// kernel's cell walk over `kind`'s sums. Each kind is its own
    /// instantiation of the walk; the `match` is taken once per node.
    fn dwconv_q_cells[build](
        g: &WindowGeom,
        x: &[u8],
        w: &[i8],
        kind: QuantDepthwise,
        zp_in: i32,
        rq: &Requant,
        out: &mut [u8],
    ) {
        match kind {
            QuantDepthwise::Exact => dwconv_q_walk(ExactMac { zp_in }, build, g, x, w, rq, out),
            QuantDepthwise::WrappingI16 => {
                dwconv_q_walk(WrappingI16Mac { zp_in }, build, g, x, w, rq, out)
            }
        }
    }
}

/// Quantized depthwise convolution of every flavor, in `engine`'s build:
/// `kind`'s kernel, over the per-channel [`Requant`] multipliers computed
/// once into `multipliers`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dwconv_q(
    kind: QuantDepthwise,
    engine: Engine,
    node: &Node,
    inputs: &[&Tensor],
    out_def: &TensorDef,
    stride: usize,
    padding: Padding,
    activation: Activation,
    requant: RequantMode,
    multipliers: &mut Vec<f64>,
    out_t: &mut Tensor,
) -> Result<()> {
    let (input, weights) = (inputs[0], inputs[1]);
    let (_, zp_in) = qparams_of(node, input)?;
    let x = input.as_u8()?;
    let w = weights.as_i8()?;
    let ws = weights.shape().dims();
    let (kh, kw, c) = (ws[1], ws[2], ws[3]);
    let g = WindowGeom::new(input, out_def, kh, kw, stride, padding);
    let rq = Requant::new(node, inputs, out_def, c, activation, requant, multipliers)?;
    let out = u8_slot(out_t, out_def)?;
    dwconv_q_cells(engine, &g, x, w, kind, zp_in, &rq, out);
    Ok(())
}

#[cfg(test)]
pub(super) mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::graph::TensorId;
    use crate::kernels::gemm::SimdEngine;
    use crate::kernels::{act_qbounds, emulated_dot, every_chain, out_qparams, ACTIVATIONS};
    use crate::ops::{conv_out_size, OpKind};
    use crate::{BackendSpec, GraphBuilder, Interpreter};
    use mlexray_tensor::{DType, Shape};

    /// The reference float `Conv2d` as it ran before the panels: naive loops,
    /// one sequential accumulator per output value, seeded with the bias. Body
    /// verbatim — the oracle [`conv2d_f32`] is held to.
    fn conv2d_f32_naive(
        inputs: &[&Tensor],
        out_def: &TensorDef,
        stride: usize,
        padding: Padding,
        activation: Activation,
        out_t: &mut Tensor,
    ) -> Result<()> {
        let (input, weights) = (inputs[0], inputs[1]);
        let bias = inputs.get(2).map(|t| t.as_f32()).transpose()?;
        let x = input.as_f32()?;
        let w = weights.as_f32()?;
        let ws = weights.shape().dims();
        let (out_c, kh, kw) = (ws[0], ws[1], ws[2]);
        let g = WindowGeom::new(input, out_def, kh, kw, stride, padding);
        let out = f32_slot(out_t, out_def)?;
        let ksize = g.patch_len();

        for cell in g.cells() {
            for oc in 0..out_c {
                let mut acc = bias.map_or(0.0, |b| b[oc]);
                for (tap, pixel) in g.taps(&cell) {
                    let xs = &x[pixel * g.c..][..g.c];
                    let ws = &w[oc * ksize + tap * g.c..][..g.c];
                    for ic in 0..g.c {
                        acc += xs[ic] * ws[ic];
                    }
                }
                out[cell.index * out_c + oc] = activation.apply(acc);
            }
        }
        Ok(())
    }

    /// The reference float depthwise convolution as it ran before it shared
    /// [`dwconv_f32_channels`]: each channel is an independent sequential sum
    /// over its window in `(ky, kx)` order, seeded with the bias. Body verbatim.
    fn dwconv_f32_naive(
        inputs: &[&Tensor],
        out_def: &TensorDef,
        stride: usize,
        padding: Padding,
        activation: Activation,
        out_t: &mut Tensor,
    ) -> Result<()> {
        let (input, weights) = (inputs[0], inputs[1]);
        let bias = inputs.get(2).map(|t| t.as_f32()).transpose()?;
        let x = input.as_f32()?;
        let w = weights.as_f32()?;
        let ws = weights.shape().dims();
        let (kh, kw, c) = (ws[1], ws[2], ws[3]);
        let g = WindowGeom::new(input, out_def, kh, kw, stride, padding);
        let out = f32_slot(out_t, out_def)?;

        for cell in g.cells() {
            let taps = g.taps(&cell);
            for ch in 0..c {
                let mut acc = bias.map_or(0.0, |b| b[ch]);
                for (tap, pixel) in taps.clone() {
                    acc += x[pixel * c + ch] * w[tap * c + ch];
                }
                out[cell.index * c + ch] = activation.apply(acc);
            }
        }
        Ok(())
    }

    /// The quantized depthwise convolution as it ran before the cell walk:
    /// per cell, per channel, a walk of the cell's taps, an `if` on the
    /// injected defect per tap and an `f64` multiplier per output value. Body
    /// verbatim — the oracle [`dwconv_q`] is held to.
    #[allow(clippy::too_many_arguments)]
    fn dwconv_q_naive(
        node: &Node,
        inputs: &[&Tensor],
        out_def: &TensorDef,
        stride: usize,
        padding: Padding,
        activation: Activation,
        i16_accumulator: bool,
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
        let (kh, kw, c) = (ws[1], ws[2], ws[3]);
        let g = WindowGeom::new(input, out_def, kh, kw, stride, padding);
        let (qlo, qhi) = act_qbounds(activation, s_out, zp_out);
        let out = u8_slot(out_t, out_def)?;

        for cell in g.cells() {
            for ch in 0..c {
                let mut acc: i32 = 0;
                let mut acc16: i16 = 0;
                for (tap, pixel) in g.taps(&cell) {
                    let prod = (x[pixel * c + ch] as i32 - zp_in) * w[tap * c + ch] as i32;
                    if i16_accumulator {
                        // Injected defect: the optimized kernel pre-scales
                        // products into the Q13 domain of its 16-bit SIMD lane
                        // and accumulates with wrapping arithmetic...
                        acc16 = acc16.wrapping_add((prod << 2) as i16);
                    } else {
                        acc += prod;
                    }
                }
                if i16_accumulator {
                    // ...and forgets to scale back down before the bias.
                    acc = acc16 as i32 >> 2;
                }
                let total = acc + bias.map_or(0, |b| b[ch]);
                let m = (s_in as f64) * (weight_scale(&wq, ch) as f64) / (s_out as f64);
                out[cell.index * c + ch] = requantize(total, m, zp_out, qlo, qhi, requant);
            }
        }
        Ok(())
    }

    /// The edge emulator's float convolution as it ran before the reference
    /// panel chains took its numerics: per-cell tap gathering with the
    /// reduction folded under [`emulated_dot`]. Body verbatim — the oracle
    /// every [`Chain`] of [`conv2d_f32`] is held to.
    #[allow(clippy::too_many_arguments)]
    fn conv2d_f32_emulated(
        inputs: &[&Tensor],
        out_def: &TensorDef,
        stride: usize,
        padding: Padding,
        activation: Activation,
        numerics: &EdgeNumerics,
        scratch: &mut Vec<f32>,
        out_t: &mut Tensor,
    ) -> Result<()> {
        let (input, weights) = (inputs[0], inputs[1]);
        let bias = inputs.get(2).map(|t| t.as_f32()).transpose()?;
        let x = input.as_f32()?;
        let w = weights.as_f32()?;
        let ws = weights.shape().dims();
        let (out_c, kh, kw) = (ws[0], ws[1], ws[2]);
        let g = WindowGeom::new(input, out_def, kh, kw, stride, padding);
        let out = f32_slot(out_t, out_def)?;
        let ksize = g.patch_len();
        // Weight offsets of the gathered taps, relative to an output channel's
        // weight row (the validity pattern is shared across output channels).
        let mut offsets: Vec<usize> = Vec::with_capacity(ksize);

        for cell in g.cells() {
            scratch.clear();
            offsets.clear();
            for (tap, pixel) in g.taps(&cell) {
                scratch.extend_from_slice(&x[pixel * g.c..][..g.c]);
                offsets.extend(tap * g.c..(tap + 1) * g.c);
            }
            for oc in 0..out_c {
                let wrow = &w[oc * ksize..][..ksize];
                let acc = emulated_dot(
                    bias.map_or(0.0, |b| b[oc]),
                    scratch.len(),
                    |i| (scratch[i], wrow[offsets[i]]),
                    numerics,
                );
                out[cell.index * out_c + oc] = activation.apply(acc);
            }
        }
        Ok(())
    }

    /// The edge emulator's float depthwise convolution as it ran before the
    /// shared cell walk took its numerics: taps gathered per output cell and
    /// channel, reduced under [`emulated_dot`]. Body verbatim — the oracle
    /// every [`Chain`] of [`dwconv_f32_channels`] is held to.
    #[allow(clippy::too_many_arguments)]
    fn dwconv_f32_emulated(
        inputs: &[&Tensor],
        out_def: &TensorDef,
        stride: usize,
        padding: Padding,
        activation: Activation,
        numerics: &EdgeNumerics,
        scratch: &mut Vec<f32>,
        out_t: &mut Tensor,
    ) -> Result<()> {
        let (input, weights) = (inputs[0], inputs[1]);
        let bias = inputs.get(2).map(|t| t.as_f32()).transpose()?;
        let x = input.as_f32()?;
        let w = weights.as_f32()?;
        let ws = weights.shape().dims();
        let (kh, kw, c) = (ws[1], ws[2], ws[3]);
        let g = WindowGeom::new(input, out_def, kh, kw, stride, padding);
        let out = f32_slot(out_t, out_def)?;

        for cell in g.cells() {
            for ch in 0..c {
                // Interleaved (value, weight) tap pairs.
                scratch.clear();
                for (tap, pixel) in g.taps(&cell) {
                    scratch.extend([x[pixel * c + ch], w[tap * c + ch]]);
                }
                let acc = emulated_dot(
                    bias.map_or(0.0, |b| b[ch]),
                    scratch.len() / 2,
                    |i| (scratch[2 * i], scratch[2 * i + 1]),
                    numerics,
                );
                out[cell.index * c + ch] = activation.apply(acc);
            }
        }
        Ok(())
    }

    const KERNEL_SIDES: [usize; 5] = [1, 2, 3, 5, 7];
    /// Every mix of 8-, 4- and 1-wide panels, and none of some.
    const OUT_CHANNELS: [usize; 13] = [1, 2, 3, 4, 5, 7, 8, 9, 12, 13, 16, 24, 33];
    /// Every mix of 16- and 8-wide depthwise channel blocks and single
    /// channels, and none of some.
    const DEPTHWISE_CHANNELS: [usize; 18] = [
        1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 40, 96,
    ];

    /// What a case's values are drawn from.
    #[derive(Clone, Copy)]
    pub(in crate::kernels) enum Values {
        /// Hundredths in `[-100, 100]` and both zeros.
        Tame,
        /// Also subnormals and finite floats of every exponent, so sums
        /// overflow to `±∞` and cancel to `NaN` on their own.
        Finite,
        /// Also `±∞` and `NaN` operands.
        Any,
    }

    /// xorshift64*; `state` is never zero.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state >> 12;
        *state ^= *state << 25;
        *state ^= *state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    pub(in crate::kernels) fn draw(state: &mut u64, values: Values, n: usize) -> Vec<f32> {
        (0..n)
            .map(|_| {
                let r = next(state);
                let bits = (r >> 32) as u32;
                let tame = (bits % 20_001) as f32 / 100.0 - 100.0;
                match (r % 32, values) {
                    (0, _) => 0.0,
                    (1, _) => -0.0,
                    (2, Values::Finite | Values::Any) => f32::from_bits(bits & 0x807f_ffff),
                    (3..=8, Values::Finite | Values::Any) if f32::from_bits(bits).is_finite() => {
                        f32::from_bits(bits)
                    }
                    (9, Values::Any) => f32::INFINITY,
                    (10, Values::Any) => f32::NEG_INFINITY,
                    (11, Values::Any) => f32::NAN,
                    _ => tame,
                }
            })
            .collect()
    }

    /// One kernel call's operands and attributes.
    struct Case {
        input: Tensor,
        weights: Tensor,
        bias: Option<Tensor>,
        out_def: TensorDef,
        stride: usize,
        padding: Padding,
        activation: Activation,
    }

    impl Case {
        /// `weights` is `[out_c, kh, kw, in_c]` (or `[1, kh, kw, c]` with
        /// `depthwise`); `x`, `w` and `bias` fill the operands in order.
        #[allow(clippy::too_many_arguments)]
        fn new(
            input: [usize; 4],
            weights: [usize; 4],
            depthwise: bool,
            stride: usize,
            padding: Padding,
            activation: Activation,
            mut fill: impl FnMut(usize) -> Vec<f32>,
            with_bias: bool,
        ) -> Case {
            let out_c = if depthwise { weights[3] } else { weights[0] };
            let out_shape = Shape::nhwc(
                input[0],
                conv_out_size(input[1], weights[1], stride, padding),
                conv_out_size(input[2], weights[2], stride, padding),
                out_c,
            );
            let tensor = |dims: &[usize], fill: &mut dyn FnMut(usize) -> Vec<f32>| {
                let shape = Shape::new(dims.to_vec());
                let values = fill(shape.num_elements());
                Tensor::from_f32(shape, values).unwrap()
            };
            Case {
                input: tensor(&input, &mut fill),
                weights: tensor(&weights, &mut fill),
                bias: with_bias.then(|| tensor(&[out_c], &mut fill)),
                out_def: TensorDef::Activation {
                    name: "out".into(),
                    shape: out_shape,
                    dtype: DType::F32,
                    quant: None,
                },
                stride,
                padding,
                activation,
            }
        }

        /// The output of `kernel`, called with this case's attributes.
        fn run(
            &self,
            kernel: impl FnOnce(
                &[&Tensor],
                &TensorDef,
                usize,
                Padding,
                Activation,
                &mut Tensor,
            ) -> Result<()>,
        ) -> Vec<f32> {
            let mut operands = vec![&self.input, &self.weights];
            operands.extend(&self.bias);
            let mut out = Tensor::zeros(DType::F32, self.out_def.shape().clone());
            kernel(
                &operands,
                &self.out_def,
                self.stride,
                self.padding,
                self.activation,
                &mut out,
            )
            .unwrap();
            out.as_f32().unwrap().to_vec()
        }

        /// [`conv2d_f32`] over this case's weights packed, under `numerics`,
        /// in `engine`'s build.
        fn conv2d_panels(&self, engine: Engine, numerics: EdgeNumerics) -> Vec<f32> {
            let mut panels = Vec::new();
            pack_weight_panels(&self.weights, &mut panels).unwrap();
            self.run(|inputs, out_def, stride, padding, activation, out| {
                conv2d_f32(
                    engine, numerics, inputs, &panels, out_def, stride, padding, activation, out,
                )
            })
        }

        /// [`dwconv_f32_channels`] under `numerics`, in `engine`'s build.
        fn depthwise(&self, engine: Engine, numerics: EdgeNumerics) -> Vec<f32> {
            self.run(|inputs, out_def, stride, padding, activation, out| {
                dwconv_f32_channels(
                    engine, numerics, inputs, out_def, stride, padding, activation, out,
                )
            })
        }

        /// The emulator's gather loop — [`conv2d_f32_emulated`], or
        /// [`dwconv_f32_emulated`] for a `depthwise` case — under
        /// `numerics`.
        fn gathered(&self, depthwise: bool, numerics: &EdgeNumerics) -> Vec<f32> {
            let oracle = if depthwise {
                dwconv_f32_emulated
            } else {
                conv2d_f32_emulated
            };
            self.run(|inputs, out_def, stride, padding, activation, out| {
                oracle(
                    inputs,
                    out_def,
                    stride,
                    padding,
                    activation,
                    numerics,
                    &mut Vec::new(),
                    out,
                )
            })
        }

        /// Every [`Chain`] of the reference walk — [`conv2d_f32`], or the
        /// shared depthwise for a `depthwise` case — in both builds,
        /// against the emulator's gather loop under the same numerics.
        fn assert_every_chain_is_the_gather_loop(&self, depthwise: bool, what: &str) {
            for numerics in every_chain() {
                let want = self.gathered(depthwise, &numerics);
                for engine in builds() {
                    let got = if depthwise {
                        self.depthwise(engine, numerics)
                    } else {
                        self.conv2d_panels(engine, numerics)
                    };
                    let what = format!(
                        "{:?} fma={} {engine:?} {what}",
                        numerics.accumulation, numerics.fused_multiply_add
                    );
                    assert_same_bits(&got, &want, &what);
                }
            }
        }
    }

    /// Every engine's build — the baseline, and where this CPU has them
    /// the AVX2 and AVX-512 ones (the latter only the Simd GEMM has; other
    /// kernels run their AVX2 build under it).
    pub(in crate::kernels) fn builds() -> [Engine; 3] {
        SimdEngine::ALL.map(Engine::runnable)
    }

    /// Bit for bit, except that two `NaN`s are one value: `fadd` is
    /// commutative to LLVM, so which operand's payload a `NaN + NaN` keeps
    /// was never pinned.
    pub(in crate::kernels) fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}: output {i} is {g:e} ({:08x}), the naive loop says {w:e} ({:08x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    #[test]
    fn panels_cover_every_channel_once_widest_first() {
        for out_c in 0..=40 {
            let panels: Vec<_> = weight_panels(out_c).collect();
            let mut next = 0;
            for &(oc0, width) in &panels {
                assert_eq!(oc0, next);
                assert!(matches!(width, 8 | 4 | 1));
                next += width;
            }
            assert_eq!(next, out_c);
            assert!(panels.windows(2).all(|p| p[0].1 >= p[1].1));
            assert!(panels.iter().filter(|p| p.1 == 4).count() <= 1);
            assert!(panels.iter().filter(|p| p.1 == 1).count() <= 3);
        }
    }

    /// One oracle case's layer: an `[n, h, w, c]` input under a `kh × kw`
    /// window at `stride` and `padding`, into `out_c` channels — a
    /// depthwise layer keeps its `c`.
    #[derive(Clone, Copy, Debug)]
    struct Geometry {
        input: [usize; 4],
        window: [usize; 2],
        stride: usize,
        padding: Padding,
        out_c: usize,
    }

    /// A case's bias.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Bias {
        Absent,
        Drawn,
        /// `-0.0` for every channel: a sum that starts from it keeps the
        /// sign of its `-0.0` products, one that starts from `+0.0` does not.
        NegativeZero,
    }

    const BIASES: [Bias; 3] = [Bias::Absent, Bias::Drawn, Bias::NegativeZero];
    const VALUES: [Values; 3] = [Values::Tame, Values::Finite, Values::Any];

    impl Geometry {
        /// A float case of this layer — a `Conv2d`, or a depthwise one —
        /// drawn from `seed`.
        fn case(
            self,
            depthwise: bool,
            bias: Bias,
            activation: Activation,
            values: Values,
            seed: u64,
        ) -> Case {
            let ([.., c], [kh, kw]) = (self.input, self.window);
            let weights = if depthwise {
                [1, kh, kw, c]
            } else {
                [self.out_c, kh, kw, c]
            };
            let mut state = seed;
            let mut case = Case::new(
                self.input,
                weights,
                depthwise,
                self.stride,
                self.padding,
                activation,
                |n| draw(&mut state, values, n),
                bias == Bias::Drawn,
            );
            if bias == Bias::NegativeZero {
                case.bias = Some(negative_zero_bias(case.out_def.shape().dims()[3]));
            }
            case
        }
    }

    /// The reference `Conv2d` over its panels, and — same geometry, `c`
    /// channels — the depthwise kernel every native flavor runs, each in
    /// both builds, against the loops the reference flavor ran before.
    fn assert_reference_convs_are_the_naive_loops(
        geometry: Geometry,
        bias: Bias,
        activation: Activation,
        values: Values,
        seed: u64,
    ) {
        let conv = geometry.case(false, bias, activation, values, seed);
        let want = conv.run(conv2d_f32_naive);
        for engine in builds() {
            let what = format!("{engine:?} {geometry:?} {bias:?} {activation:?} seed {seed}");
            let got = conv.conv2d_panels(engine, EdgeNumerics::faithful());
            assert_same_bits(&got, &want, &what);
        }
        assert_depthwise_is_the_naive_loop(geometry, bias, activation, values, seed);
    }

    /// The depthwise kernel every native flavor runs, in both builds,
    /// against the loop the reference flavor ran before.
    fn assert_depthwise_is_the_naive_loop(
        geometry: Geometry,
        bias: Bias,
        activation: Activation,
        values: Values,
        seed: u64,
    ) {
        let case = geometry.case(true, bias, activation, values, seed);
        let want = case.run(dwconv_f32_naive);
        for engine in builds() {
            let what =
                format!("depthwise {engine:?} {geometry:?} {bias:?} {activation:?} seed {seed}");
            let got = case.depthwise(engine, EdgeNumerics::faithful());
            assert_same_bits(&got, &want, &what);
        }
    }

    /// Every edge-emulator chain of the reference `Conv2d` over its panels
    /// and of the shared depthwise, in both builds, against the per-cell
    /// gather loops the emulator ran before.
    fn assert_every_chain_of_both_walks_is_the_gather_loop(
        geometry: Geometry,
        bias: Bias,
        activation: Activation,
        values: Values,
        seed: u64,
    ) {
        let what = format!("{geometry:?} {bias:?} {activation:?} seed {seed}");
        geometry
            .case(false, bias, activation, values, seed)
            .assert_every_chain_is_the_gather_loop(false, &what);
        geometry
            .case(true, bias, activation, values, seed)
            .assert_every_chain_is_the_gather_loop(true, &format!("depthwise {what}"));
    }

    /// The int8 depthwise kernels — exact and with the injected `i16`
    /// accumulator — in both builds, under both requant precisions, against
    /// the per-cell loop they replaced.
    fn assert_int8_depthwise_is_the_per_cell_loop(
        geometry: Geometry,
        with_bias: bool,
        per_channel: bool,
        activation: Activation,
        zp_in: i32,
        seed: u64,
    ) {
        let [kh, kw] = geometry.window;
        let mut state = seed;
        let case = QuantCase::new(
            geometry.input,
            (kh, kw),
            geometry.stride,
            geometry.padding,
            activation,
            zp_in,
            per_channel,
            with_bias,
            &mut state,
        );
        let (node, def) = (&case.node, &case.out_def);
        let (stride, padding, act) = (case.stride, case.padding, case.activation);
        for requant in [RequantMode::Double, RequantMode::Single] {
            for (kind, i16_accumulator) in [
                (QuantDepthwise::Exact, false),
                (QuantDepthwise::WrappingI16, true),
            ] {
                let want = case.run(|inputs, out| {
                    dwconv_q_naive(
                        node,
                        inputs,
                        def,
                        stride,
                        padding,
                        act,
                        i16_accumulator,
                        requant,
                        out,
                    )
                });
                for engine in builds() {
                    let got = case.run(|inputs, out| {
                        dwconv_q(
                            kind,
                            engine,
                            node,
                            inputs,
                            def,
                            stride,
                            padding,
                            act,
                            requant,
                            &mut Vec::new(),
                            out,
                        )
                    });
                    assert_eq!(
                        got, want,
                        "{engine:?} {kind:?} {requant:?} {geometry:?} zp_in={zp_in} \
                         bias={with_bias} per_channel={per_channel} {act:?} seed {seed}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(360))]

        /// Non-square windows, strides 1–3, SAME and VALID, rows of up to
        /// fourteen cells, ragged channel counts on both sides, stacked
        /// batches, every activation, no bias, a drawn one or a `-0.0` one,
        /// over all three value classes: [`assert_reference_convs_are_the_naive_loops`].
        #[test]
        fn reference_float_convs_are_the_naive_loops_bitwise(
            kh in 0usize..KERNEL_SIDES.len(),
            kw in 0usize..KERNEL_SIDES.len(),
            extra_h in 0usize..4,
            extra_w in 0usize..8,
            stride in 1usize..=3,
            same in 0u8..2,
            in_c in 1usize..=40,
            out_c in 0usize..OUT_CHANNELS.len(),
            batch in 1usize..=3,
            bias in 0usize..BIASES.len(),
            activation in 0usize..ACTIVATIONS.len(),
            values in 0usize..VALUES.len(),
            seed in 1u64..=u64::MAX,
        ) {
            let (kh, kw) = (KERNEL_SIDES[kh], KERNEL_SIDES[kw]);
            let geometry = Geometry {
                input: [batch, kh + extra_h, kw + extra_w, in_c],
                window: [kh, kw],
                stride,
                padding: if same == 1 { Padding::Same } else { Padding::Valid },
                out_c: OUT_CHANNELS[out_c],
            };
            assert_reference_convs_are_the_naive_loops(
                geometry, BIASES[bias], ACTIVATIONS[activation], VALUES[values], seed,
            );
        }
    }

    /// Input extents for a `k`-wide window: from one pixel up under SAME,
    /// so small inputs have no unclipped cell at all; from the window up
    /// under VALID, which has no output otherwise.
    fn input_side(k: usize, extra: usize, padding: Padding) -> usize {
        match padding {
            Padding::Same => 1 + extra,
            Padding::Valid => k + extra,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The depthwise kernel's own branches — unrolled unclipped 3×3
        /// cells, border cells walked run by run, cells grouped along a row
        /// and the ragged ends of a row's groups, 16- and 8-wide channel
        /// blocks and the single-channel tail — under strides 1–3, SAME
        /// and VALID, inputs too small for an unclipped cell, stacked
        /// batches, every activation, no bias, a drawn one or a `-0.0` one,
        /// over all three value classes: [`assert_depthwise_is_the_naive_loop`].
        /// Half the cases draw a 3×3 window.
        #[test]
        fn depthwise_blocks_and_windows_are_the_naive_loop_bitwise(
            square in 0u8..2,
            kh in 0usize..KERNEL_SIDES.len(),
            kw in 0usize..KERNEL_SIDES.len(),
            extra_h in 0usize..6,
            extra_w in 0usize..12,
            stride in 1usize..=3,
            same in 0u8..2,
            c in 0usize..DEPTHWISE_CHANNELS.len(),
            batch in 1usize..=3,
            bias in 0usize..BIASES.len(),
            activation in 0usize..ACTIVATIONS.len(),
            values in 0usize..VALUES.len(),
            seed in 1u64..=u64::MAX,
        ) {
            let (kh, kw) = if square == 1 { (3, 3) } else { (KERNEL_SIDES[kh], KERNEL_SIDES[kw]) };
            let padding = if same == 1 { Padding::Same } else { Padding::Valid };
            let (h, w) = (input_side(kh, extra_h, padding), input_side(kw, extra_w, padding));
            let geometry = Geometry {
                input: [batch, h, w, DEPTHWISE_CHANNELS[c]],
                window: [kh, kw],
                stride,
                padding,
                out_c: 0,
            };
            assert_depthwise_is_the_naive_loop(
                geometry, BIASES[bias], ACTIVATIONS[activation], VALUES[values], seed,
            );
        }
    }

    /// `-0.0` for each of `n` channels.
    fn negative_zero_bias(n: usize) -> Tensor {
        Tensor::from_f32(Shape::vector(n), vec![-0.0; n]).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Every edge-emulator chain — each `AccumOrder`, split and fused —
        /// of the reference `Conv2d` over its panels and of the shared
        /// depthwise, in both builds, against the per-cell gather loops the
        /// emulator ran before: windows 1×1 to 7×7, square or not, strides
        /// 1–3, SAME (inputs from one pixel, so smaller than the window)
        /// and VALID, rows of up to ten cells, channel counts 1–33 on both
        /// sides, stacked batches, no bias, a drawn bias or a `-0.0` one,
        /// every activation, over all three value classes (±0, subnormals,
        /// ±∞ and `NaN`).
        #[test]
        fn every_chain_is_the_gather_loop_bitwise(
            kh in 0usize..KERNEL_SIDES.len(),
            kw in 0usize..KERNEL_SIDES.len(),
            extra_h in 0usize..4,
            extra_w in 0usize..10,
            stride in 1usize..=3,
            same in 0u8..2,
            in_c in 1usize..=33,
            out_c in 1usize..=33,
            batch in 1usize..=3,
            bias in 0usize..BIASES.len(),
            activation in 0usize..ACTIVATIONS.len(),
            values in 0usize..VALUES.len(),
            seed in 1u64..=u64::MAX,
        ) {
            let (kh, kw) = (KERNEL_SIDES[kh], KERNEL_SIDES[kw]);
            let padding = if same == 1 { Padding::Same } else { Padding::Valid };
            let (h, w) = (input_side(kh, extra_h, padding), input_side(kw, extra_w, padding));
            let geometry = Geometry {
                input: [batch, h, w, in_c],
                window: [kh, kw],
                stride,
                padding,
                out_c,
            };
            assert_every_chain_of_both_walks_is_the_gather_loop(
                geometry, BIASES[bias], ACTIVATIONS[activation], VALUES[values], seed,
            );
        }
    }

    /// Layers whose output rows the grouped walks split at every kind of
    /// edge, in either build's group sizes (six, three, two and one cells
    /// in the AVX2+FMA `Conv2d`, four, two and one in the baseline; three,
    /// two, one and two, one in the depthwise).
    const GROUP_EDGES: [Geometry; 12] = {
        const fn layer(
            input: [usize; 4],
            window: [usize; 2],
            stride: usize,
            padding: Padding,
            out_c: usize,
        ) -> Geometry {
            Geometry {
                input,
                window,
                stride,
                padding,
                out_c,
            }
        }
        use Padding::{Same, Valid};
        [
            // Rows no group size divides: 17 = 6 + 6 + 3 + 2 = 4 · 4 + 1
            // cells, 11 = 6 + 3 + 2, 8 = 6 + 2; 13 = 8 + 4 + 1, 9 = 8 + 1
            // and 5 = 4 + 1 output channels.
            layer([1, 2, 17, 5], [1, 1], 1, Valid, 13),
            layer([1, 1, 11, 2], [1, 1], 1, Valid, 9),
            layer([2, 3, 8, 4], [1, 1], 1, Valid, 5),
            // Stacked frames of 7-cell rows (6 + 1, 4 + 2 + 1): a group
            // that crossed a row or a frame would read the next one's
            // pixels. 7 = 4 + 1 + 1 + 1 output channels.
            layer([3, 2, 7, 3], [1, 1], 1, Valid, 7),
            // SAME, stride 2: a clipped cell, an unclipped run, a clipped
            // cell — the odd width pads left and right, the even one only
            // right, the 5 × 5 window two columns a side.
            layer([2, 9, 9, 3], [3, 3], 2, Same, 13),
            layer([1, 10, 14, 3], [3, 3], 2, Same, 4),
            layer([1, 11, 23, 2], [5, 5], 2, Same, 5),
            // SAME 3 × 3, stride 1: border cells around 12 and 7
            // unrolled unclipped cells; 17 = 16 + 1 and 25 = 16 + 8 + 1
            // depthwise channels.
            layer([2, 5, 14, 17], [3, 3], 1, Same, 12),
            layer([1, 4, 9, 25], [3, 3], 1, Same, 1),
            // Grouped cells walked run by run: a 5 × 5 and a 3 × 1 window
            // under SAME, a 1 × 3 one at stride 3.
            layer([2, 6, 13, 9], [5, 5], 1, Same, 8),
            layer([1, 7, 19, 2], [3, 1], 2, Same, 13),
            layer([1, 3, 20, 3], [1, 3], 3, Valid, 4),
        ]
    };

    /// Every group edge under every bias and value class, through the
    /// naive-loop, gather-loop and int8 per-cell oracles.
    #[test]
    fn group_edges_are_every_oracle_bitwise() {
        for (i, &geometry) in GROUP_EDGES.iter().enumerate() {
            for (j, (bias, values)) in BIASES.into_iter().zip(VALUES).enumerate() {
                let activation = ACTIVATIONS[(i + j) % ACTIVATIONS.len()];
                let seed = (i * 3 + j) as u64 + 1;
                assert_reference_convs_are_the_naive_loops(
                    geometry, bias, activation, values, seed,
                );
                assert_every_chain_of_both_walks_is_the_gather_loop(
                    geometry, bias, activation, values, seed,
                );
                let (with_bias, per_channel) = (bias != Bias::Absent, j % 2 == 1);
                let zp_in = [0, 128, 255][j];
                assert_int8_depthwise_is_the_per_cell_loop(
                    geometry,
                    with_bias,
                    per_channel,
                    activation,
                    zp_in,
                    seed,
                );
            }
        }
    }

    /// `(depthwise, [h, w, in_c], [kh, kw], stride, out_c, bias)` of one
    /// SAME layer.
    type Layer = (bool, [usize; 3], [usize; 2], usize, usize, bool);

    /// The distinct `Conv2d` and depthwise layers of every mini family at
    /// 32×32 and of `mobilenet_v2` at 64×64, width 0.25.
    const ZOO_LAYERS: [Layer; 59] = [
        (false, [1, 1, 16], [1, 1], 1, 4, true),
        (false, [1, 1, 24], [1, 1], 1, 6, true),
        (false, [1, 1, 4], [1, 1], 1, 16, true),
        (false, [1, 1, 6], [1, 1], 1, 24, true),
        (false, [16, 16, 12], [3, 3], 1, 4, true),
        (false, [16, 16, 16], [1, 1], 1, 8, true),
        (false, [16, 16, 16], [3, 3], 1, 16, true),
        (false, [16, 16, 20], [3, 3], 2, 16, true),
        (false, [16, 16, 24], [1, 1], 1, 6, false),
        (false, [16, 16, 36], [1, 1], 1, 6, false),
        (false, [16, 16, 4], [3, 3], 1, 8, true),
        (false, [16, 16, 6], [1, 1], 1, 36, false),
        (false, [16, 16, 8], [1, 1], 1, 16, true),
        (false, [16, 16, 8], [1, 1], 1, 24, true),
        (false, [16, 16, 8], [1, 1], 1, 4, true),
        (false, [16, 16, 8], [1, 1], 1, 8, true),
        (false, [16, 16, 8], [3, 3], 1, 4, true),
        (false, [2, 2, 144], [1, 1], 1, 40, false),
        (false, [2, 2, 240], [1, 1], 1, 40, false),
        (false, [2, 2, 240], [1, 1], 1, 80, false),
        (false, [2, 2, 40], [1, 1], 1, 240, false),
        (false, [2, 2, 80], [1, 1], 1, 320, false),
        (false, [32, 32, 3], [3, 3], 2, 16, true),
        (false, [32, 32, 3], [3, 3], 2, 8, true),
        (false, [32, 32, 4], [1, 1], 1, 24, false),
        (false, [32, 32, 8], [1, 1], 1, 4, false),
        (false, [4, 4, 144], [1, 1], 1, 24, false),
        (false, [4, 4, 16], [1, 1], 1, 96, false),
        (false, [4, 4, 24], [1, 1], 1, 144, false),
        (false, [4, 4, 48], [1, 1], 1, 16, false),
        (false, [4, 4, 96], [1, 1], 1, 16, false),
        (false, [4, 4, 96], [1, 1], 1, 24, false),
        (false, [64, 64, 3], [3, 3], 2, 8, false),
        (false, [8, 8, 12], [1, 1], 1, 24, true),
        (false, [8, 8, 12], [1, 1], 1, 32, true),
        (false, [8, 8, 12], [3, 3], 1, 4, true),
        (false, [8, 8, 16], [1, 1], 1, 12, true),
        (false, [8, 8, 16], [1, 1], 1, 24, true),
        (false, [8, 8, 24], [1, 1], 1, 12, true),
        (false, [8, 8, 24], [1, 1], 1, 24, true),
        (false, [8, 8, 36], [1, 1], 1, 8, false),
        (false, [8, 8, 48], [1, 1], 1, 8, false),
        (false, [8, 8, 8], [1, 1], 1, 48, false),
        (false, [8, 8, 8], [3, 3], 1, 4, true),
        (true, [16, 16, 16], [3, 3], 1, 16, true),
        (true, [16, 16, 16], [3, 3], 2, 16, true),
        (true, [16, 16, 24], [3, 3], 2, 24, true),
        (true, [16, 16, 36], [3, 3], 1, 36, false),
        (true, [16, 16, 36], [3, 3], 2, 36, false),
        (true, [16, 16, 8], [3, 3], 1, 8, true),
        (true, [2, 2, 240], [3, 3], 1, 240, false),
        (true, [32, 32, 24], [3, 3], 2, 24, false),
        (true, [32, 32, 8], [3, 3], 1, 8, false),
        (true, [4, 4, 144], [3, 3], 1, 144, false),
        (true, [4, 4, 144], [3, 3], 2, 144, false),
        (true, [4, 4, 96], [3, 3], 1, 96, false),
        (true, [8, 8, 24], [3, 3], 1, 24, true),
        (true, [8, 8, 48], [3, 3], 1, 48, false),
        (true, [8, 8, 48], [3, 3], 2, 48, false),
    ];

    /// Every zoo layer geometry, one frame of it under each value class in
    /// turn: every chain of the reference `Conv2d` and of the shared
    /// depthwise, in both builds, against the emulator's gather loops.
    #[test]
    fn zoo_layers_under_every_chain_are_the_gather_loops_bitwise() {
        for (i, &(depthwise, [h, w, in_c], [kh, kw], stride, out_c, bias)) in
            ZOO_LAYERS.iter().enumerate()
        {
            let values = [Values::Tame, Values::Finite, Values::Any][i % 3];
            let weights = if depthwise {
                [1, kh, kw, in_c]
            } else {
                [out_c, kh, kw, in_c]
            };
            let mut state = i as u64 + 1;
            let case = Case::new(
                [1, h, w, in_c],
                weights,
                depthwise,
                stride,
                Padding::Same,
                ACTIVATIONS[i % ACTIVATIONS.len()],
                |n| draw(&mut state, values, n),
                bias,
            );
            let what = format!("zoo {h}x{w}x{in_c} {kh}x{kw}/{stride} -> {out_c}");
            case.assert_every_chain_is_the_gather_loop(depthwise, &what);
        }
    }

    /// One int8 depthwise call's operands, drawn from `state`: full-range
    /// `u8` inputs and `i8` weights (so the defect's `i16` wraps), per-tensor
    /// or per-channel weight scales, and an `i32` bias or none.
    struct QuantCase {
        node: Node,
        input: Tensor,
        weights: Tensor,
        bias: Option<Tensor>,
        out_def: TensorDef,
        stride: usize,
        padding: Padding,
        activation: Activation,
    }

    impl QuantCase {
        #[allow(clippy::too_many_arguments)]
        fn new(
            input: [usize; 4],
            (kh, kw): (usize, usize),
            stride: usize,
            padding: Padding,
            activation: Activation,
            zp_in: i32,
            per_channel: bool,
            with_bias: bool,
            state: &mut u64,
        ) -> QuantCase {
            let c = input[3];
            let scale = |state: &mut u64| (1 + next(state) % 400) as f32 / 4096.0;
            let out_shape = Shape::nhwc(
                input[0],
                conv_out_size(input[1], kh, stride, padding),
                conv_out_size(input[2], kw, stride, padding),
                c,
            );
            let x_shape = Shape::new(input.to_vec());
            let x = (0..x_shape.num_elements())
                .map(|_| next(state) as u8)
                .collect();
            let x_quant = QuantParams::PerTensor {
                scale: scale(state),
                zero_point: zp_in,
            };
            let w_shape = Shape::new(vec![1, kh, kw, c]);
            let w = (0..w_shape.num_elements())
                .map(|_| next(state) as i8)
                .collect();
            let w_quant = if per_channel {
                QuantParams::PerChannel {
                    scales: (0..c).map(|_| scale(state)).collect(),
                    zero_points: vec![0; c],
                    axis: 3,
                }
            } else {
                QuantParams::PerTensor {
                    scale: scale(state),
                    zero_point: 0,
                }
            };
            let bias = with_bias.then(|| {
                let b = (0..c)
                    .map(|_| (next(state) % 40_001) as i32 - 20_000)
                    .collect();
                Tensor::from_i32(Shape::vector(c), b, None).unwrap()
            });
            let out_quant = QuantParams::PerTensor {
                scale: scale(state) * 8.0,
                zero_point: (next(state) % 256) as i32,
            };
            QuantCase {
                node: Node {
                    name: "dw".into(),
                    op: OpKind::DepthwiseConv2d {
                        stride,
                        padding,
                        activation,
                    },
                    inputs: Vec::new(),
                    output: TensorId(0),
                },
                input: Tensor::from_u8(x_shape, x, x_quant).unwrap(),
                weights: Tensor::from_i8(w_shape, w, w_quant).unwrap(),
                bias,
                out_def: TensorDef::Activation {
                    name: "out".into(),
                    shape: out_shape,
                    dtype: DType::U8,
                    quant: Some(out_quant),
                },
                stride,
                padding,
                activation,
            }
        }

        /// The output of `kernel`, called with this case's operands.
        fn run(&self, kernel: impl FnOnce(&[&Tensor], &mut Tensor) -> Result<()>) -> Vec<u8> {
            let mut operands = vec![&self.input, &self.weights];
            operands.extend(&self.bias);
            let mut out = Tensor::zeros(DType::U8, self.out_def.shape().clone());
            out.set_quant(self.out_def.quant().cloned());
            kernel(&operands, &mut out).unwrap();
            out.as_u8().unwrap().to_vec()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The int8 depthwise kernels — exact and with the injected `i16`
        /// accumulator — in both builds, under both requant precisions and
        /// input zero points 0, 128 and 255, on the float depthwise
        /// oracle's geometries: [`assert_int8_depthwise_is_the_per_cell_loop`],
        /// the same bytes, wrapped `i16` sums included.
        #[test]
        fn int8_depthwise_is_the_per_cell_loop_bytewise(
            square in 0u8..2,
            kh in 0usize..KERNEL_SIDES.len(),
            kw in 0usize..KERNEL_SIDES.len(),
            extra_h in 0usize..6,
            extra_w in 0usize..12,
            stride in 1usize..=3,
            same in 0u8..2,
            c in 0usize..DEPTHWISE_CHANNELS.len(),
            batch in 1usize..=3,
            with_bias in 0u8..2,
            per_channel in 0u8..2,
            activation in 0usize..ACTIVATIONS.len(),
            zp_in in 0usize..3,
            seed in 1u64..=u64::MAX,
        ) {
            let (kh, kw) = if square == 1 { (3, 3) } else { (KERNEL_SIDES[kh], KERNEL_SIDES[kw]) };
            let padding = if same == 1 { Padding::Same } else { Padding::Valid };
            let (h, w) = (input_side(kh, extra_h, padding), input_side(kw, extra_w, padding));
            let geometry = Geometry {
                input: [batch, h, w, DEPTHWISE_CHANNELS[c]],
                window: [kh, kw],
                stride,
                padding,
                out_c: 0,
            };
            assert_int8_depthwise_is_the_per_cell_loop(
                geometry,
                with_bias == 1,
                per_channel == 1,
                ACTIVATIONS[activation],
                [0, 128, 255][zp_in],
                seed,
            );
        }
    }

    /// A `-0.0` bias under products that are all `-0.0` stays `-0.0`; adding
    /// a padding tap as `0 · w` would add a `+0.0` and flip the border cells
    /// to `+0.0`. Padding taps are skipped.
    #[test]
    fn skipped_padding_keeps_a_negative_zero_sum() {
        for (stride, out_c) in [(1, 13), (2, 13), (1, 8), (3, 5)] {
            let mut operand = 0;
            let case = Case::new(
                [2, 5, 4, 3],
                [out_c, 3, 3, 3],
                false,
                stride,
                Padding::Same,
                Activation::None,
                |n| {
                    operand += 1;
                    // x = -0.0, w > 0 (so every product is -0.0), bias = -0.0.
                    let value = if operand == 2 { 0.75 } else { -0.0 };
                    vec![value; n]
                },
                true,
            );
            for engine in builds() {
                let got = case.conv2d_panels(engine, EdgeNumerics::faithful());
                assert!(got.iter().all(|v| v.to_bits() == (-0.0f32).to_bits()));
                assert_same_bits(&got, &case.run(conv2d_f32_naive), "negative zeros");
            }
        }
    }

    /// A weight operand that is a runtime tensor is packed on every invoke,
    /// by the interpreter, through the same pack function and kernel: the
    /// second invoke's other weights must not meet the first's panels.
    #[test]
    fn runtime_weights_are_packed_afresh_on_every_invoke() {
        let (input, weights) = ([1, 5, 6, 3], [13, 3, 3, 3]);
        let mut b = GraphBuilder::new("runtime-weights");
        let x = b.input("x", Shape::new(input.to_vec()));
        let w = b.input("w", Shape::new(weights.to_vec()));
        let y = b
            .conv2d("conv", x, w, None, 2, Padding::Same, Activation::Relu)
            .unwrap();
        b.output(y);
        let graph = b.finish().unwrap();
        let mut interp = Interpreter::new(&graph, BackendSpec::reference()).unwrap();
        assert!(!interp.is_batchable(), "runtime weights cannot stack");

        let mut state = 7;
        let mut outputs = Vec::new();
        for invoke in 0..2 {
            let case = Case::new(
                input,
                weights,
                false,
                2,
                Padding::Same,
                Activation::Relu,
                |n| draw(&mut state, Values::Tame, n),
                false,
            );
            let out = interp
                .invoke(&[case.input.clone(), case.weights.clone()])
                .unwrap();
            let got = out[0].as_f32().unwrap().to_vec();
            assert_same_bits(
                &got,
                &case.run(conv2d_f32_naive),
                &format!("invoke {invoke}"),
            );
            outputs.push(got);
        }
        assert_ne!(outputs[0], outputs[1]);
    }
}
