//! Sliding-window geometry shared by every convolution and pooling kernel:
//! the one place that resolves SAME/VALID padding, enumerates output cells
//! (or output rows) and clips a cell's kernel window (or a row's) to the
//! input.

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

/// One output row `(n, oy)`; `index` is the flat NHW offset of its first
/// cell.
pub(super) struct Row {
    pub(super) index: usize,
    n: usize,
    oy: usize,
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

    /// Output cells per output row.
    pub(super) fn out_width(&self) -> usize {
        self.out_w
    }

    pub(super) fn stride(&self) -> usize {
        self.stride
    }

    /// Every output cell, batch-outer, in output memory order.
    #[inline]
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
    #[inline]
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

    /// Every output row, batch-outer, in output memory order.
    pub(super) fn rows(&self) -> impl Iterator<Item = Row> + '_ {
        (0..self.n * self.out_h).map(move |r| Row {
            index: r * self.out_w,
            n: r / self.out_h,
            oy: r % self.out_h,
        })
    }

    /// [`WindowGeom::taps`] for a whole output row at once: the row's
    /// in-bounds taps in `(ky, kx)` order as `(tap, cells, pixel)` — tap
    /// `tap` lands inside the input for exactly the cells `ox ∈ cells` of
    /// the row, the first of them on input pixel `pixel` and each next one
    /// `stride` pixels further on. Each cell sees its taps in the order
    /// `taps` yields them; padding taps are never yielded.
    pub(super) fn row_taps(
        &self,
        row: &Row,
    ) -> impl Iterator<Item = (usize, Range<usize>, usize)> + '_ {
        let y0 = row.oy * self.stride;
        let frame = row.n * self.in_h;
        clip(y0, self.pad_top, self.kh, self.in_h).flat_map(move |ky| {
            let in_row = (frame + y0 + ky - self.pad_top) * self.in_w;
            (0..self.kw).filter_map(move |kx| {
                let cells = self.cells_in_bounds(kx);
                let pixel = in_row + cells.start * self.stride + kx;
                (!cells.is_empty()).then(|| (ky * self.kw + kx, cells, pixel - self.pad_left))
            })
        })
    }

    /// The output columns `ox` whose window column `kx` lands inside the
    /// input, `0 ≤ ox·stride + kx − pad_left < in_w`.
    fn cells_in_bounds(&self, kx: usize) -> Range<usize> {
        let first = self.pad_left.saturating_sub(kx).div_ceil(self.stride);
        let end = (self.in_w + self.pad_left)
            .saturating_sub(kx)
            .div_ceil(self.stride)
            .min(self.out_w);
        first..end.max(first)
    }

    /// A 1×1 stride-1 window: every cell reads exactly its own input pixel,
    /// so the im2col matrix *is* the input buffer.
    pub(super) fn is_pointwise(&self) -> bool {
        self.kh == 1 && self.kw == 1 && self.stride == 1
    }
}
