//! Sliding-window geometry shared by every convolution and pooling kernel:
//! the one place that resolves SAME/VALID padding, enumerates output cells
//! (alone or row by row) and clips a cell's kernel window to the input —
//! tap by tap, or as one contiguous run per window row.

use std::ops::Range;

use mlexray_tensor::Tensor;

use super::room;
use crate::graph::TensorDef;
use crate::ops::{same_pad_before, Padding};
use crate::Result;

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
/// output pixel).
pub(super) struct Cell {
    pub(super) index: usize,
    n: usize,
    oy: usize,
    ox: usize,
}

/// One output cell's window clipped to the input, as
/// [`WindowGeom::row_groups`] yields it: `index` is the cell's flat NHW
/// offset (the output pixel). The in-bounds part of a window is a
/// rectangle, so each in-bounds window row is one run of `cols · c`
/// elements — its in-bounds columns × `c` channels — contiguous in the
/// NHWC input and in the window's `(ky, kx, ic)` order alike.
pub(super) struct Window {
    pub(super) index: usize,
    /// The in-bounds window rows `ky`.
    kys: Range<usize>,
    /// The first in-bounds window column.
    kx0: usize,
    /// In-bounds window columns.
    cols: usize,
    /// Input offset of the first run.
    input: usize,
}

/// One output row `(n, oy)`; `index` is the flat NHW offset of its first
/// cell.
#[derive(Clone, Copy)]
pub(super) struct Row {
    pub(super) index: usize,
    n: usize,
    oy: usize,
}

/// Where each output cell's window starts in the bordered input
/// [`WindowGeom::border`] writes: cells lie `cell` elements apart along an
/// output row, output rows `row` apart, frames `frame` apart.
#[derive(Debug, Clone, Copy)]
pub(super) struct BorderedSteps {
    out_w: usize,
    out_h: usize,
    cell: usize,
    row: usize,
    frame: usize,
}

impl BorderedSteps {
    /// An origin that no cell `0..=last` passes ([`BorderedSteps::origins`]):
    /// each of an origin's three terms at its largest — the frame of cell
    /// `last`, the last output row, the last column — or `None` when that
    /// overflows.
    pub(super) fn origin_bound(self, last: usize) -> Option<usize> {
        let frame = last / self.out_w.checked_mul(self.out_h)?.max(1);
        frame
            .checked_mul(self.frame)?
            .checked_add(self.out_h.saturating_sub(1).checked_mul(self.row)?)?
            .checked_add(self.out_w.saturating_sub(1).checked_mul(self.cell)?)
    }

    /// The origins of the cells `first..` (flat NHW indices), in output
    /// order: one division for the first, then a step per cell.
    #[inline]
    pub(super) fn origins(self, first: usize) -> impl Iterator<Item = usize> {
        let (out_w, out_h) = (self.out_w.max(1), self.out_h.max(1));
        let q = first / out_w;
        let (mut ox, mut oy, mut n) = (first % out_w, q % out_h, q / out_h);
        std::iter::repeat_with(move || {
            let origin = n * self.frame + oy * self.row + ox * self.cell;
            ox += 1;
            if ox == out_w {
                ox = 0;
                oy += 1;
                if oy == out_h {
                    oy = 0;
                    n += 1;
                }
            }
            origin
        })
    }

    /// The rows of a plain `[rows, k]` matrix as cells, and each row as
    /// one run of `k` elements.
    pub(super) fn matrix(k: usize) -> (Self, WindowRuns) {
        let steps = BorderedSteps {
            out_w: 1,
            out_h: 1,
            cell: 0,
            row: 0,
            frame: k,
        };
        let (count, len, step) = (1, k, k);
        (steps, WindowRuns { count, len, step })
    }
}

/// Where the `kh · kw · c` elements of a window lie in the bordered input
/// [`WindowGeom::border`] writes, from its cell's origin: `count` runs of
/// `len` contiguous elements, `step` apart — a run per window row.
#[derive(Debug, Clone, Copy)]
pub(super) struct WindowRuns {
    pub(super) count: usize,
    pub(super) len: usize,
    pub(super) step: usize,
}

/// Window offsets `k` along one axis whose input coordinate
/// `start + k - pad` lands inside `0..idim`.
fn clip(start: usize, pad: usize, kdim: usize, idim: usize) -> Range<usize> {
    pad.saturating_sub(start)..kdim.min((idim + pad).saturating_sub(start))
}

impl Window {
    /// The in-bounds window columns: each run holds this many taps.
    pub(super) fn cols(&self) -> usize {
        self.cols
    }
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
    /// (`kh * kw * c`): a window, and a weight row per output channel.
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

    /// The window's `(kh, kw)`.
    pub(super) fn kernel(&self) -> (usize, usize) {
        (self.kh, self.kw)
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

    /// `row`'s cells in output order as `(window, n)`: `window` is the
    /// first of `n` adjacent cells that share its runs, the runs of cell
    /// `i` starting [`WindowGeom::cell_step`]` · i` input elements later.
    /// Cells whose windows have every column in bounds do — cells of one
    /// row clip the same window rows — and go in groups of the first of
    /// `sizes` (widest first) that the rest of that span holds; any other
    /// cell comes alone (`n = 1`), as does the span's end when no size
    /// fits. A group never leaves its row, so never its frame.
    #[inline]
    pub(super) fn row_groups<const K: usize>(
        &self,
        row: Row,
        sizes: [usize; K],
    ) -> impl Iterator<Item = (Window, usize)> + '_ {
        let y0 = row.oy * self.stride;
        let kys = clip(y0, self.pad_top, self.kh, self.in_h);
        // `y0 + kys.start ≥ pad_top` by the clip, and so on for x.
        let in_row = row.n * self.in_h + y0 + kys.start - self.pad_top;
        let unclipped = self.unclipped_cols();
        let mut ox = 0;
        std::iter::from_fn(move || {
            if ox == self.out_w {
                return None;
            }
            let x0 = ox * self.stride;
            let kxs = clip(x0, self.pad_left, self.kw, self.in_w);
            let left = if unclipped.contains(&ox) {
                unclipped.end - ox
            } else {
                0
            };
            let n = sizes.into_iter().find(|&n| n <= left).unwrap_or(1);
            let window = Window {
                index: row.index + ox,
                // A window with no in-bounds column has no runs.
                kys: if kxs.is_empty() { 0..0 } else { kys.clone() },
                kx0: kxs.start,
                cols: kxs.len(),
                input: (in_row * self.in_w + x0 + kxs.start - self.pad_left) * self.c,
            };
            ox += n;
            Some((window, n))
        })
    }

    /// The output columns whose window has every column in bounds: those
    /// with `pad_left ≤ ox · stride` and `ox · stride + kw ≤ pad_left +
    /// in_w`, one span (empty when the window is wider than the padded
    /// input).
    fn unclipped_cols(&self) -> Range<usize> {
        let end = match (self.in_w + self.pad_left).checked_sub(self.kw) {
            Some(last_x0) => (last_x0 / self.stride + 1).min(self.out_w),
            None => 0,
        };
        self.pad_left.div_ceil(self.stride).min(end)..end
    }

    /// Input elements from one cell's window to the next cell's along an
    /// output row (`stride · c`).
    pub(super) fn cell_step(&self) -> usize {
        self.stride * self.c
    }

    /// The input offset of `window`'s top-left tap when no tap of it is
    /// padding: its tap `(ky, kx)` then reads the `c` input elements from
    /// `origin + ky · in_row_len() + kx · c` on.
    #[inline]
    pub(super) fn unclipped_origin(&self, window: &Window) -> Option<usize> {
        (window.kys.len() == self.kh && window.cols == self.kw).then_some(window.input)
    }

    /// Input elements per input row (`in_w · c`).
    pub(super) fn in_row_len(&self) -> usize {
        self.in_w * self.c
    }

    /// `window`'s runs in `ky` order as `(at, run)`: the input elements
    /// `x[run]` are the window's elements `at..at + run.len()` in `(ky, kx,
    /// ic)` order — [`WindowGeom::taps`] one window row at a time, channels
    /// included. Padding is never yielded.
    #[inline]
    pub(super) fn runs(
        &self,
        window: &Window,
    ) -> impl DoubleEndedIterator<Item = (usize, Range<usize>)> {
        let (kw, c, row_len) = (self.kw, self.c, self.in_w * self.c);
        let (first, kx0, input) = (window.kys.start, window.kx0, window.input);
        let len = window.cols * c;
        window.kys.clone().map(move |ky| {
            let start = input + (ky - first) * row_len;
            ((ky * kw + kx0) * c, start..start + len)
        })
    }

    /// The per-frame `(rows, columns)` of the input the windows cover,
    /// padding included — `((oh − 1)·s + kh, (ow − 1)·s + kw)` — or
    /// `(0, 0)` when there is no output cell.
    fn bordered_dims(&self) -> (usize, usize) {
        if self.out_h == 0 || self.out_w == 0 {
            return (0, 0);
        }
        let side = |out: usize, k: usize| (out - 1) * self.stride + k;
        (side(self.out_h, self.kh), side(self.out_w, self.kw))
    }

    /// Elements of the zero-bordered input [`WindowGeom::border`] writes:
    /// `n × rows × columns × c` of [`WindowGeom::bordered_dims`].
    pub(super) fn bordered_len(&self) -> usize {
        let (rows, cols) = self.bordered_dims();
        self.n * rows * cols * self.c
    }

    /// Copies `x` into `out` as the bordered input every window reads in
    /// place: frame by frame the rows and columns the windows cover, `fill`
    /// where they lie in the padding (`0.0`, or a quantized input's zero
    /// point), the input row by row where they do not — so tap `p` of a
    /// cell's window, `tap_offsets()[p]` elements past the cell's origin
    /// ([`BorderedSteps::origins`]), holds the input under that tap, or
    /// `fill`. Input rows and columns no window reaches are left out. `out`
    /// grows through [`room`].
    ///
    /// # Errors
    ///
    /// What [`room`] returns when the allocator refuses `out`'s growth.
    pub(super) fn border<T: Copy>(&self, x: &[T], fill: T, out: &mut Vec<T>) -> Result<()> {
        let (rows, cols) = self.bordered_dims();
        let (c, len) = (self.c, self.bordered_len());
        room(out, len)?.resize(len, fill);
        // In-bounds bordered rows `pad_top..` and columns `pad_left..`.
        let ys = self.pad_top..rows.min(self.pad_top + self.in_h);
        let run = cols
            .min(self.pad_left + self.in_w)
            .saturating_sub(self.pad_left)
            * c;
        for frame in 0..self.n {
            for yb in ys.clone() {
                let from = ((frame * self.in_h + yb - self.pad_top) * self.in_w) * c;
                let to = ((frame * rows + yb) * cols + self.pad_left) * c;
                out[to..to + run].copy_from_slice(&x[from..from + run]);
            }
        }
        Ok(())
    }

    /// The runs a window is in the bordered input: a window row's `kw · c`
    /// taps are contiguous there, and window rows lie one bordered row
    /// apart.
    pub(super) fn bordered_runs(&self) -> WindowRuns {
        let (_, cols) = self.bordered_dims();
        WindowRuns {
            count: self.kh,
            len: self.kw * self.c,
            step: cols * self.c,
        }
    }

    /// The offset of each of a window's `kh · kw · c` taps from its cell's
    /// origin in the bordered input, in `(ky, kx, ic)` order, run by run
    /// ([`WindowGeom::bordered_runs`]).
    pub(super) fn tap_offsets(&self) -> impl DoubleEndedIterator<Item = usize> {
        let WindowRuns { len, step, .. } = self.bordered_runs();
        (0..self.patch_len()).map(move |p| p / len * step + p % len)
    }

    /// How far apart cells' windows start in the bordered input.
    pub(super) fn bordered_steps(&self) -> BorderedSteps {
        let (rows, cols) = self.bordered_dims();
        BorderedSteps {
            out_w: self.out_w,
            out_h: self.out_h,
            cell: self.stride * self.c,
            row: self.stride * cols * self.c,
            frame: rows * cols * self.c,
        }
    }

    /// Every output row, batch-outer, in output memory order.
    pub(super) fn rows(&self) -> impl Iterator<Item = Row> + '_ {
        (0..self.n * self.out_h).map(move |r| Row {
            index: r * self.out_w,
            n: r / self.out_h,
            oy: r % self.out_h,
        })
    }

    /// A 1×1 stride-1 window: every cell reads exactly its own input pixel,
    /// so the input buffer is the matrix of the windows, one per row.
    pub(super) fn is_pointwise(&self) -> bool {
        self.kh == 1 && self.kw == 1 && self.stride == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::conv_out_size;
    use mlexray_tensor::{DType, Shape};

    fn geometry(input: [usize; 4], k: usize, stride: usize, padding: Padding) -> WindowGeom {
        let input = Tensor::zeros(DType::F32, Shape::new(input.to_vec()));
        let dims = input.shape().dims();
        let out = TensorDef::Activation {
            name: "out".into(),
            shape: Shape::nhwc(
                dims[0],
                conv_out_size(dims[1], k, stride, padding),
                conv_out_size(dims[2], k, stride, padding),
                dims[3],
            ),
            dtype: DType::F32,
            quant: None,
        };
        WindowGeom::new(&input, &out, k, k, stride, padding)
    }

    /// Every row's groups cover its cells once, in order; a group of more
    /// than one cell is one of the sizes, never leaves the row, and its
    /// cells' own windows have the first's runs `cell_step` apart.
    #[test]
    fn row_groups_cover_each_row_with_cells_that_share_runs() {
        for padding in [Padding::Same, Padding::Valid] {
            for (k, stride) in [(1, 1), (3, 1), (3, 2), (5, 2), (7, 3)] {
                for w in 1..=20 {
                    let g = geometry([2, 3, w.max(k), 2], k, stride, padding);
                    for row in g.rows() {
                        let singles: Vec<Window> = g.row_groups(row, [1]).map(|(w, _)| w).collect();
                        assert_eq!(singles.len(), g.out_width());
                        let mut next = row.index;
                        for (window, n) in g.row_groups(row, [6, 3, 2]) {
                            assert_eq!(window.index, next);
                            assert!(matches!(n, 6 | 3 | 2 | 1));
                            next += n;
                            let first: Vec<_> = g.runs(&window).collect();
                            for (i, cell) in
                                singles[window.index - row.index..][..n].iter().enumerate()
                            {
                                let shifted = first.iter().map(|(at, r)| {
                                    (*at, r.start + i * g.cell_step()..r.end + i * g.cell_step())
                                });
                                assert!(g.runs(cell).eq(shifted), "k{k}/{stride} {padding:?} w{w}");
                            }
                        }
                        assert_eq!(next, row.index + g.out_width());
                    }
                }
            }
        }
    }
}
