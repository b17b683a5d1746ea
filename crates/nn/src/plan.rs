//! Ahead-of-time activation memory planning, TFLite arena-planner style.
//!
//! Before the first invoke, the interpreter walks the graph once and computes
//! a [`MemoryPlan`]: the byte size and lifetime of every runtime tensor
//! (graph inputs and node outputs), a greedy first-fit offset assignment that
//! lets lifetime-disjoint tensors share the same arena range, and the f32
//! scratch requirement of the float kernels (the im2col matrix; BatchNorm's
//! per-channel denominators). The interpreter then preallocates one buffer
//! per planned slot and reuses them across invokes — and, re-shaped in
//! place, across batch sizes — so steady-state execution performs no
//! per-node allocation. `InvokeStats::allocations` reports what the
//! interpreter *knows* it allocated (the output tensors); the property
//! itself is pinned from outside by the counting allocator in
//! `tests/alloc_steady_state.rs`. One plan is kept per batch size seen:
//! accounting only, no buffers hang off it.

use mlexray_tensor::Shape;

use crate::graph::{Graph, TensorDef, TensorId};
use crate::ops::{conv_out_size, OpKind};
use crate::{NnError, Result};

/// One runtime tensor's slot in the planned arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedTensor {
    /// The tensor slot this entry plans.
    pub id: TensorId,
    /// Assigned byte offset inside the arena.
    pub offset: usize,
    /// Byte size at the plan's batch factor.
    pub bytes: usize,
    /// Index of the node producing the tensor (`0` for graph inputs, which
    /// are live from the start of the invoke).
    pub first_use: usize,
    /// Index of the last node reading the tensor; graph outputs stay live
    /// through `graph.nodes().len()` (the end of the invoke).
    pub last_use: usize,
}

impl PlannedTensor {
    fn overlaps_lifetime(&self, other: &PlannedTensor) -> bool {
        self.first_use <= other.last_use && other.first_use <= self.last_use
    }
}

/// A preplanned buffer arena for one graph at one batch factor.
///
/// Offsets describe a single contiguous arena in which lifetime-disjoint
/// activations reuse the same bytes; [`MemoryPlan::arena_bytes`] is that
/// arena's size and [`MemoryPlan::peak_bytes`] the true lifetime-based peak
/// (the arena can be slightly larger because first-fit placement is not
/// optimal).
///
/// The offsets are the **layout blueprint and accounting** — what a
/// byte-backed arena (a deployment target sizing its activation memory)
/// would allocate. The interpreter itself deliberately materializes the
/// plan as one preallocated buffer *per slot*
/// ([`MemoryPlan::unshared_bytes`] resident), kept across invokes, because
/// `Interpreter::tensor_value` guarantees every intermediate activation
/// stays readable after the invoke — per-layer debugging is this project's
/// whole point, and physically overlapping dead tensors would destroy the
/// values ML-EXray's drift analysis reads. What the plan buys the
/// interpreter is the one-time preallocation (zero per-node allocation in
/// steady state), the float scratch bound, and the arena/peak figures
/// surfaced through `InvokeStats`.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryPlan {
    batch: usize,
    slots: Vec<Option<PlannedTensor>>,
    order: Vec<TensorId>,
    arena_bytes: usize,
    peak_bytes: usize,
    scratch_elems: usize,
}

/// Scales a slot shape by the plan's batch factor (the leading dimension is
/// the batch dimension for every runtime tensor in this op inventory).
pub(crate) fn batched_shape(shape: &Shape, batch: usize) -> Result<Shape> {
    if batch == 1 {
        return Ok(shape.clone());
    }
    let lead = *shape
        .dims()
        .first()
        .ok_or_else(|| NnError::InvalidGraph("rank-0 runtime tensors cannot be batched".into()))?;
    shape
        .with_batch(lead * batch)
        .map_err(|e| NnError::InvalidGraph(e.to_string()))
}

/// Elements of f32 scratch `node`'s float kernel needs: the whole-batch
/// im2col matrix of a convolution (at every batch factor, 1 included), the
/// per-channel denominators of a BatchNorm (its channel count, whatever the
/// batch), or 0 when the node needs none.
fn node_scratch_elems(graph: &Graph, node: &crate::graph::Node, batch: usize) -> usize {
    let (stride, padding) = match &node.op {
        OpKind::Conv2d {
            stride, padding, ..
        } => (stride, padding),
        OpKind::BatchNorm { .. } => {
            return node
                .inputs
                .get(4)
                .map_or(0, |&var| graph.tensor(var).shape().num_elements())
        }
        _ => return 0,
    };
    let input = graph.tensor(node.inputs[0]);
    if input.dtype() != mlexray_tensor::DType::F32 || input.shape().rank() != 4 {
        return 0;
    }
    let weights = graph.tensor(node.inputs[1]);
    let ws = weights.shape().dims();
    if ws.len() != 4 {
        return 0;
    }
    let (kh, kw, in_c) = (ws[1], ws[2], ws[3]);
    let is = input.shape().dims();
    // The 1x1 stride-1 fast path reads the input directly; everything else
    // materializes [rows, kh*kw*in_c].
    if kh == 1 && kw == 1 && *stride == 1 {
        return 0;
    }
    let oh = conv_out_size(is[1], kh, *stride, *padding);
    let ow = conv_out_size(is[2], kw, *stride, *padding);
    let rows = is[0] * batch * oh * ow;
    rows * kh * kw * in_c
}

impl MemoryPlan {
    /// Plans the arena for `graph` executed at `batch` stacked frames per
    /// invoke (`1` = the graph's natural shapes).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidGraph`] when `batch == 0` or a runtime
    /// tensor cannot carry a batch dimension.
    pub fn for_graph(graph: &Graph, batch: usize) -> Result<Self> {
        if batch == 0 {
            return Err(NnError::InvalidGraph(
                "memory plans require a positive batch factor".into(),
            ));
        }
        let horizon = graph.nodes().len();
        let mut slots: Vec<Option<PlannedTensor>> = vec![None; graph.tensors().len()];

        for (i, def) in graph.tensors().iter().enumerate() {
            let first_use = match def {
                TensorDef::Constant { .. } => continue,
                TensorDef::Input { .. } => 0,
                TensorDef::Activation { .. } => graph
                    .nodes()
                    .iter()
                    .position(|n| n.output.0 == i)
                    .unwrap_or(horizon),
            };
            let bytes = batched_shape(def.shape(), batch)?.num_elements() * def.dtype().byte_size();
            let mut last_use = graph
                .nodes()
                .iter()
                .enumerate()
                .filter(|(_, n)| n.inputs.iter().any(|id| id.0 == i))
                .map(|(j, _)| j)
                .max()
                .unwrap_or(first_use);
            if graph.outputs().iter().any(|id| id.0 == i) {
                last_use = horizon;
            }
            slots[i] = Some(PlannedTensor {
                id: TensorId(i),
                offset: 0,
                bytes,
                first_use,
                last_use,
            });
        }

        // Greedy first-fit placement, largest tensor first (ties broken by
        // slot index, so the plan is fully deterministic).
        let mut order: Vec<usize> = (0..slots.len()).filter(|&i| slots[i].is_some()).collect();
        order.sort_by_key(|&i| {
            let p = slots[i].as_ref().expect("filtered to planned slots");
            (usize::MAX - p.bytes, i)
        });
        let mut arena_bytes = 0usize;
        for &i in &order {
            let current = slots[i].expect("filtered to planned slots");
            // Ranges already placed whose lifetime overlaps this tensor's.
            let mut busy: Vec<(usize, usize)> = order
                .iter()
                .take_while(|&&j| j != i)
                .filter_map(|&j| slots[j])
                .filter(|p| p.overlaps_lifetime(&current))
                .map(|p| (p.offset, p.offset + p.bytes))
                .collect();
            busy.sort_unstable();
            let mut offset = 0usize;
            for (start, end) in busy {
                if offset + current.bytes <= start {
                    break;
                }
                offset = offset.max(end);
            }
            let placed = slots[i].as_mut().expect("filtered to planned slots");
            placed.offset = offset;
            arena_bytes = arena_bytes.max(offset + placed.bytes);
        }

        // True lifetime-based peak, for comparison with the arena size.
        let mut peak_bytes = 0usize;
        for t in 0..=horizon {
            let live: usize = slots
                .iter()
                .flatten()
                .filter(|p| p.first_use <= t && t <= p.last_use)
                .map(|p| p.bytes)
                .sum();
            peak_bytes = peak_bytes.max(live);
        }

        let scratch_elems = graph
            .nodes()
            .iter()
            .map(|n| node_scratch_elems(graph, n, batch))
            .max()
            .unwrap_or(0);

        Ok(MemoryPlan {
            batch,
            slots,
            order: order.into_iter().map(TensorId).collect(),
            arena_bytes,
            peak_bytes,
            scratch_elems,
        })
    }

    /// The batch factor the plan was computed for.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Total bytes of the planned arena (one allocation covers every
    /// activation of an invoke, with lifetime-disjoint tensors sharing).
    pub fn arena_bytes(&self) -> usize {
        self.arena_bytes
    }

    /// Peak bytes simultaneously live under the plan's lifetimes — the
    /// lower bound any arena layout must reach.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// The f32 scratch elements the float kernels need: the largest
    /// whole-batch im2col matrix in the graph, or the widest BatchNorm's
    /// channel count if that is larger.
    pub fn scratch_elems(&self) -> usize {
        self.scratch_elems
    }

    /// The planned slot for a tensor, when it is a runtime tensor
    /// (constants are baked into the model and never planned).
    pub fn slot(&self, id: TensorId) -> Option<&PlannedTensor> {
        self.slots.get(id.0).and_then(Option::as_ref)
    }

    /// Planned slots in placement order (largest first).
    pub fn slots(&self) -> impl Iterator<Item = &PlannedTensor> {
        self.order.iter().filter_map(|id| self.slots[id.0].as_ref())
    }

    /// Sum of slot sizes with no reuse at all — what per-node allocation
    /// would hold live at the end of an invoke.
    pub fn unshared_bytes(&self) -> usize {
        self.slots.iter().flatten().map(|p| p.bytes).sum()
    }

    /// Overrides one slot's arena offset, bypassing first-fit placement.
    ///
    /// Test-only hook for the lint suite: corrupting a correct plan is how
    /// `verify_plan` proves it detects aliasing, without depending on a
    /// planner bug to exist. No-op when `id` has no slot.
    #[doc(hidden)]
    pub fn force_offset(&mut self, id: TensorId, offset: usize) {
        if let Some(Some(slot)) = self.slots.get_mut(id.0) {
            slot.offset = offset;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::ops::{Activation, Padding};
    use mlexray_tensor::Tensor;

    /// A 4-deep chain of 1x1 convs: every intermediate dies one node later,
    /// so the arena should be ~2 activation buffers, not 4.
    fn chain() -> Graph {
        let mut b = GraphBuilder::new("chain");
        let mut x = b.input("x", Shape::nhwc(1, 4, 4, 2));
        for i in 0..4 {
            let w = b.constant(
                format!("w{i}"),
                Tensor::filled_f32(Shape::new(vec![2, 1, 1, 2]), 0.5),
            );
            x = b
                .conv2d(
                    format!("c{i}"),
                    x,
                    w,
                    None,
                    1,
                    Padding::Same,
                    Activation::Relu,
                )
                .unwrap();
        }
        b.output(x);
        b.finish().unwrap()
    }

    #[test]
    fn lifetimes_enable_reuse() {
        let g = chain();
        let plan = MemoryPlan::for_graph(&g, 1).unwrap();
        let one = 4 * 4 * 2 * 4; // one activation's bytes
        assert!(plan.arena_bytes() < plan.unshared_bytes());
        // Chain: input + first activation live together, later pairs reuse.
        assert_eq!(plan.peak_bytes(), 2 * one);
        assert!(plan.arena_bytes() >= plan.peak_bytes());
        assert_eq!(plan.batch(), 1);
    }

    #[test]
    fn batched_plan_scales_slot_sizes() {
        let g = chain();
        let p1 = MemoryPlan::for_graph(&g, 1).unwrap();
        let p4 = MemoryPlan::for_graph(&g, 4).unwrap();
        assert_eq!(p4.peak_bytes(), 4 * p1.peak_bytes());
        let id = g.nodes()[0].output;
        assert_eq!(p4.slot(id).unwrap().bytes, 4 * p1.slot(id).unwrap().bytes);
        assert!(MemoryPlan::for_graph(&g, 0).is_err());
    }

    #[test]
    fn placements_never_alias_live_ranges() {
        let g = chain();
        let plan = MemoryPlan::for_graph(&g, 2).unwrap();
        let placed: Vec<_> = plan.slots().collect();
        for (i, a) in placed.iter().enumerate() {
            for b in placed.iter().skip(i + 1) {
                if a.overlaps_lifetime(b) {
                    let disjoint = a.offset + a.bytes <= b.offset || b.offset + b.bytes <= a.offset;
                    assert!(disjoint, "slots {:?} and {:?} alias", a.id, b.id);
                }
            }
        }
        // Outputs stay live to the end.
        let out = plan.slot(*g.outputs().first().unwrap()).unwrap();
        assert_eq!(out.last_use, g.nodes().len());
    }

    #[test]
    fn scratch_covers_batched_im2col() {
        let mut b = GraphBuilder::new("s");
        let x = b.input("x", Shape::nhwc(1, 8, 8, 3));
        let w = b.constant("w", Tensor::filled_f32(Shape::new(vec![4, 3, 3, 3]), 0.1));
        let y = b
            .conv2d("c", x, w, None, 1, Padding::Same, Activation::None)
            .unwrap();
        b.output(y);
        let g = b.finish().unwrap();
        let plan = MemoryPlan::for_graph(&g, 2).unwrap();
        assert_eq!(plan.scratch_elems(), 2 * 8 * 8 * (3 * 3 * 3));
        // Single invokes run the same im2col, so batch 1 reserves it too.
        let single = MemoryPlan::for_graph(&g, 1).unwrap();
        assert_eq!(single.scratch_elems(), 8 * 8 * (3 * 3 * 3));
        // 1x1 convs use the direct path and need no scratch.
        assert_eq!(
            MemoryPlan::for_graph(&chain(), 8).unwrap().scratch_elems(),
            0
        );
        // A BatchNorm keeps its per-channel denominators there: its channel
        // count, whatever the batch.
        let mut b = GraphBuilder::new("bn");
        let x = b.input("x", Shape::nhwc(1, 4, 4, 24));
        let [gamma, beta, mean, var] = ["gamma", "beta", "mean", "var"]
            .map(|name| b.constant(name, Tensor::filled_f32(Shape::vector(24), 0.5)));
        let y = b.batch_norm("bn", x, gamma, beta, mean, var, 1e-3).unwrap();
        b.output(y);
        let g = b.finish().unwrap();
        for batch in [1, 8] {
            let plan = MemoryPlan::for_graph(&g, batch).unwrap();
            assert_eq!(plan.scratch_elems(), 24);
        }
    }
}
