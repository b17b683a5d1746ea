//! Sliding-window geometry shared by every convolution and pooling kernel:
//! the one place that resolves SAME/VALID padding, enumerates output cells
//! and clips a cell's kernel window to the input.

use std::ops::Range;

use mlexray_tensor::Tensor;

use crate::graph::TensorDef;
use crate::ops::{same_pad_before, Padding};

/// NHWC input/output extents plus the window that slides over them.
pub(super) struct WindowGeom {
    n: usize,
    in_h: usize,
    in_w: usize,
    /// Input channels.
    pub(super) c: usize,
    out_h: usize,
    out_w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad_top: usize,
    pad_left: usize,
}

/// One output position `(n, oy, ox)`; `index` is its flat NHW offset (the
/// im2col row, and the output pixel).
pub(super) struct Cell {
    pub(super) index: usize,
    n: usize,
    oy: usize,
    ox: usize,
}

/// Window offsets `k` along one axis whose input coordinate
/// `start + k - pad` lands inside `0..idim`.
fn clip(start: usize, pad: usize, kdim: usize, idim: usize) -> Range<usize> {
    pad.saturating_sub(start)..kdim.min((idim + pad).saturating_sub(start))
}

impl WindowGeom {
    pub(super) fn new(
        input: &Tensor,
        out_def: &TensorDef,
        kh: usize,
        kw: usize,
        stride: usize,
        padding: Padding,
    ) -> Self {
        let is = input.shape().dims();
        let os = out_def.shape().dims();
        let (pad_top, pad_left) = match padding {
            Padding::Same => (
                same_pad_before(is[1], kh, stride),
                same_pad_before(is[2], kw, stride),
            ),
            Padding::Valid => (0, 0),
        };
        WindowGeom {
            n: is[0],
            in_h: is[1],
            in_w: is[2],
            c: is[3],
            out_h: os[1],
            out_w: os[2],
            kh,
            kw,
            stride,
            pad_top,
            pad_left,
        }
    }

    /// Elements under one cell's whole window, padding included
    /// (`kh * kw * c`): an im2col row, and a weight row per output channel.
    pub(super) fn patch_len(&self) -> usize {
        self.kh * self.kw * self.c
    }

    /// Output cells over the whole (possibly stacked) batch.
    pub(super) fn cell_count(&self) -> usize {
        self.n * self.out_h * self.out_w
    }

    /// Every output cell, batch-outer, in output memory order.
    pub(super) fn cells(&self) -> impl Iterator<Item = Cell> + '_ {
        (0..self.cell_count()).map(move |index| Cell {
            index,
            n: index / (self.out_h * self.out_w),
            oy: index / self.out_w % self.out_h,
            ox: index % self.out_w,
        })
    }

    /// The in-bounds taps of `cell`'s window as `(tap, pixel)` pairs in
    /// `(ky, kx)` order: `tap = ky * kw + kx` indexes the kernel window,
    /// `pixel` is the flat NHW offset of the input pixel under it. Padding
    /// taps are never yielded.
    pub(super) fn taps(&self, cell: &Cell) -> impl Iterator<Item = (usize, usize)> + Clone + '_ {
        let (y0, x0) = (cell.oy * self.stride, cell.ox * self.stride);
        let frame = cell.n * self.in_h;
        let kxs = clip(x0, self.pad_left, self.kw, self.in_w);
        clip(y0, self.pad_top, self.kh, self.in_h).flat_map(move |ky| {
            let row = (frame + y0 + ky - self.pad_top) * self.in_w + x0;
            kxs.clone()
                .map(move |kx| (ky * self.kw + kx, row + kx - self.pad_left))
        })
    }

    /// A 1×1 stride-1 window: every cell reads exactly its own input pixel,
    /// so the im2col matrix *is* the input buffer.
    pub(super) fn is_pointwise(&self) -> bool {
        self.kh == 1 && self.kw == 1 && self.stride == 1
    }
}
