//! Sliding-window geometry shared by every convolution and pooling kernel:
//! the one place that resolves SAME/VALID padding, enumerates output cells
//! (or output rows) and clips a cell's kernel window (or a row's) to the
//! input — tap by tap, or as one contiguous run per window row.

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

/// One output cell's window clipped to the input, as
/// [`WindowGeom::windows`] yields it: `index` is the cell's flat NHW offset
/// (the im2col row, and the output pixel). The in-bounds part of a window
/// is a rectangle, so each in-bounds window row is one run of `len`
/// elements — its in-bounds columns × `c` channels — contiguous in the
/// NHWC input and in the cell's patch row alike.
pub(super) struct Window {
    pub(super) index: usize,
    /// The in-bounds window rows `ky`.
    kys: Range<usize>,
    /// The first in-bounds window column.
    kx0: usize,
    /// Elements per run.
    len: usize,
    /// Input offset of the first run.
    input: usize,
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

    /// [`WindowGeom::cells`] with each cell's window clipped to the input,
    /// stepping from cell to cell along each output row rather than
    /// dividing a flat index per cell.
    #[inline]
    pub(super) fn windows(&self) -> impl Iterator<Item = Window> + '_ {
        self.rows().flat_map(move |row| {
            let y0 = row.oy * self.stride;
            let kys = clip(y0, self.pad_top, self.kh, self.in_h);
            // `y0 + kys.start ≥ pad_top` by the clip, and so on for x.
            let in_row = row.n * self.in_h + y0 + kys.start - self.pad_top;
            (0..self.out_w).map(move |ox| {
                let x0 = ox * self.stride;
                let kxs = clip(x0, self.pad_left, self.kw, self.in_w);
                Window {
                    index: row.index + ox,
                    // A window with no in-bounds column has no runs.
                    kys: if kxs.is_empty() { 0..0 } else { kys.clone() },
                    kx0: kxs.start,
                    len: kxs.len() * self.c,
                    input: (in_row * self.in_w + x0 + kxs.start - self.pad_left) * self.c,
                }
            })
        })
    }

    /// `window`'s runs in `ky` order as `(at, run)`: the input elements
    /// `x[run]` are the patch row's elements `at..at + run.len()`, in
    /// `(kx, ic)` order — [`WindowGeom::taps`] one window row at a time,
    /// channels included. Padding is never yielded.
    #[inline]
    pub(super) fn runs(&self, window: &Window) -> impl Iterator<Item = (usize, Range<usize>)> {
        let (kw, c, row_len) = (self.kw, self.c, self.in_w * self.c);
        let (first, kx0, len, input) = (window.kys.start, window.kx0, window.len, window.input);
        window.kys.clone().map(move |ky| {
            let start = input + (ky - first) * row_len;
            ((ky * kw + kx0) * c, start..start + len)
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
