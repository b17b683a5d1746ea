//! Ahead-of-time activation memory planning, TFLite arena-planner style.
//!
//! Before the first invoke, the interpreter walks the graph once and computes
//! a [`MemoryPlan`]: the byte size and lifetime of every runtime tensor
//! (graph inputs and node outputs), the physical buffer the interpreter runs
//! each of them in, a greedy first-fit offset assignment into one
//! contiguous arena (the layout a byte-arena deployment target would
//! allocate), and the f32 scratch requirement of the float kernels (the
//! zero-bordered input a convolution reads its windows from in place;
//! BatchNorm's per-channel denominators), which depends on the kernel
//! flavor only, never on the CPU: every engine reads windows the same way.
//!
//! Under the default [`BufferLayout::Shared`] an activation's buffer is
//! handed on, once the activation is dead, to the next activation of the
//! same dtype and element count, so the interpreter holds the plan's
//! buffers, far fewer than one per tensor;
//! [`BufferLayout::Preserving`] — the opt-in of the code that reads
//! intermediates after an invoke — gives every runtime tensor its own. The
//! interpreter allocates the plan's buffers once, up front, and reuses them
//! across invokes — and, re-shaped in place, across batch sizes — so
//! steady-state execution performs no per-node allocation.
//! `InvokeStats::allocations` reports what the interpreter *knows* it
//! allocated (the output tensors); the property itself is pinned from
//! outside by the counting allocator in `tests/alloc_steady_state.rs`. One
//! plan is kept per batch size seen: accounting only, no buffers hang off
//! it, and every batch size's plan assigns the same buffers.

use mlexray_tensor::{DType, Shape};

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
    /// The physical buffer the interpreter runs the tensor in, shared only
    /// by tensors of its dtype and byte size whose lifetimes (inclusive)
    /// are disjoint from its own.
    pub buffer: usize,
    /// Whether the buffer holds this tensor alone, so its value stays
    /// readable after the invoke: graph inputs and outputs, and every
    /// runtime tensor of a plan for `Interpreter::preserving`.
    pub kept: bool,
}

impl PlannedTensor {
    fn overlaps_lifetime(&self, other: &PlannedTensor) -> bool {
        self.first_use <= other.last_use && other.first_use <= self.last_use
    }
}

/// How a [`MemoryPlan`] maps runtime tensors onto physical buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BufferLayout {
    /// Graph inputs and outputs own their buffers; every other activation
    /// takes, when its producer runs, the buffer a dead activation of its
    /// dtype and byte size left — the one freed most recently, whose lines
    /// are still cached — or a new one. An intermediate's value is gone
    /// once its buffer is handed on, so only observers see it.
    Shared,
    /// Every runtime tensor owns its buffer ([`MemoryPlan::unshared_bytes`]
    /// held), so every intermediate stays readable after the invoke — for
    /// code that reads them then (calibration, backpropagation, bisection).
    Preserving,
}

/// A preplanned set of buffers for one graph at one batch factor.
///
/// Every runtime tensor has a slot: its byte size, its lifetime, the
/// physical buffer the interpreter runs it in ([`PlannedTensor::buffer`]:
/// dead activations hand theirs on, unless the plan is for
/// `Interpreter::preserving`) and an offset into one contiguous arena. The
/// buffers are what the interpreter holds;
/// the offsets are the **layout blueprint and accounting** — what a
/// byte-backed arena (a deployment target sizing its activation memory)
/// would allocate: [`MemoryPlan::arena_bytes`] is that arena's size and
/// [`MemoryPlan::peak_bytes`] the true lifetime-based peak (the arena can
/// be slightly larger because first-fit placement is not optimal). The
/// interpreter's buffers are shared only between tensors of one dtype and
/// byte size, never part of one buffer with part of another, so they
/// usually hold more than the arena: 1.26 MB in 42 buffers against 0.44 MB
/// for one `mobilenet_v2@48` frame (3.82 MB in 153 unshared).
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryPlan {
    batch: usize,
    layout: BufferLayout,
    slots: Vec<Option<PlannedTensor>>,
    order: Vec<TensorId>,
    /// Byte size of each physical buffer, by buffer index.
    buffers: Vec<usize>,
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
    let lead = lead.checked_mul(batch).ok_or_else(|| {
        NnError::InvalidGraph(format!(
            "{batch} frames of {shape:?} overflow the address space"
        ))
    })?;
    shape
        .with_batch(lead)
        .map_err(|e| NnError::InvalidGraph(e.to_string()))
}

/// A plan whose slot `what` has more bytes than the address space.
fn overflow(what: &str, batch: usize) -> NnError {
    NnError::InvalidGraph(format!(
        "{what} overflows the address space at batch {batch}"
    ))
}

/// What the float kernels keep in the f32 scratch for a `Conv2d` whose
/// window is not pointwise — as the flavor an interpreter runs decides
/// (`FloatKernels::conv_scratch`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConvScratch {
    /// Nothing: the reference walks read the input itself.
    Nothing,
    /// The zero-bordered input whose windows are read in place.
    Bordered,
}

/// Elements of f32 scratch `node`'s float kernel needs: for a convolution
/// what `conv` says the kernels keep (at every batch factor, 1 included),
/// the per-channel denominators of a BatchNorm (its channel count,
/// whatever the batch), or 0 when the node needs none.
fn node_scratch_elems(
    graph: &Graph,
    node: &crate::graph::Node,
    batch: usize,
    conv: ConvScratch,
) -> usize {
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
    if input.dtype() != DType::F32 || input.shape().rank() != 4 {
        return 0;
    }
    let weights = graph.tensor(node.inputs[1]);
    let ws = weights.shape().dims();
    if ws.len() != 4 {
        return 0;
    }
    let (kh, kw, in_c) = (ws[1], ws[2], ws[3]);
    let is = input.shape().dims();
    // The 1x1 stride-1 fast path reads the input directly; every other
    // window is read in place from the zero-bordered input, unless the
    // kernels read the input itself.
    if (kh == 1 && kw == 1 && *stride == 1) || conv == ConvScratch::Nothing {
        return 0;
    }
    let oh = conv_out_size(is[1], kh, *stride, *padding);
    let ow = conv_out_size(is[2], kw, *stride, *padding);
    let covered = |out: usize, k: usize| if out == 0 { 0 } else { (out - 1) * stride + k };
    is[0] * batch * covered(oh, kh) * covered(ow, kw) * in_c
}

/// Assigns every planned slot its physical buffer and returns the buffers'
/// byte sizes. A kept slot owns its buffer; every other slot is an
/// activation that takes, when its producer runs, the most recently freed
/// buffer of its dtype and byte size, or a new one. A buffer is freed after
/// the last node reading its tensor has run, so a node's operands and its
/// output never share.
fn assign_buffers(graph: &Graph, slots: &mut [Option<PlannedTensor>]) -> Vec<usize> {
    let mut buffers = Vec::new();
    let mut own = |bytes: usize| {
        buffers.push(bytes);
        buffers.len() - 1
    };
    // Freed buffers by (dtype, bytes), the most recently freed last.
    let mut free: Vec<((DType, usize), Vec<usize>)> = Vec::new();
    let mut dying: Vec<Vec<usize>> = vec![Vec::new(); graph.nodes().len()];
    let mut placed = vec![false; slots.len()];
    for (index, node) in graph.nodes().iter().enumerate() {
        let t = node.output.0;
        if let Some(slot) = slots[t].as_mut().filter(|slot| !slot.kept && !placed[t]) {
            let key = (graph.tensor(node.output).dtype(), slot.bytes);
            let reused = free
                .iter_mut()
                .find(|(k, _)| *k == key)
                .and_then(|(_, stack)| stack.pop());
            slot.buffer = reused.unwrap_or_else(|| own(slot.bytes));
            placed[t] = true;
            dying[slot.last_use.max(index)].push(t);
        }
        for u in std::mem::take(&mut dying[index]) {
            let slot = slots[u].expect("a dying tensor has a slot");
            let key = (graph.tensor(TensorId(u)).dtype(), slot.bytes);
            match free.iter_mut().find(|(k, _)| *k == key) {
                Some((_, stack)) => stack.push(slot.buffer),
                None => free.push((key, vec![slot.buffer])),
            }
        }
    }
    for (slot, placed) in slots.iter_mut().zip(placed) {
        if let Some(slot) = slot.as_mut().filter(|_| !placed) {
            slot.buffer = own(slot.bytes);
        }
    }
    buffers
}

impl MemoryPlan {
    /// Plans the arena for `graph` executed at `batch` stacked frames per
    /// invoke (`1` = the graph's natural shapes), its activations sharing
    /// buffers as [`Interpreter::new`](crate::Interpreter::new) runs them
    /// and the float scratch sized for every kernel flavor: a
    /// convolution's zero-bordered input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidGraph`] when `batch == 0` or a runtime
    /// tensor cannot carry a batch dimension.
    pub fn for_graph(graph: &Graph, batch: usize) -> Result<Self> {
        Self::for_kernels(graph, batch, ConvScratch::Bordered, BufferLayout::Shared)
    }

    /// [`MemoryPlan::for_graph`], the buffers laid out by `layout` and the
    /// float scratch reserved for what the kernels keep there for a
    /// `Conv2d`, `conv`.
    pub(crate) fn for_kernels(
        graph: &Graph,
        batch: usize,
        conv: ConvScratch,
        layout: BufferLayout,
    ) -> Result<Self> {
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
            let bytes = batched_shape(def.shape(), batch)?
                .checked_num_elements()
                .and_then(|n| n.checked_mul(def.dtype().byte_size()))
                .ok_or_else(|| overflow(def.name(), batch))?;
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
            let kept = layout == BufferLayout::Preserving
                || matches!(def, TensorDef::Input { .. })
                || last_use == horizon;
            slots[i] = Some(PlannedTensor {
                id: TensorId(i),
                offset: 0,
                bytes,
                first_use,
                last_use,
                buffer: 0,
                kept,
            });
        }
        let buffers = assign_buffers(graph, &mut slots);

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
                if offset
                    .checked_add(current.bytes)
                    .is_some_and(|e| e <= start)
                {
                    break;
                }
                offset = offset.max(end);
            }
            let placed = slots[i].as_mut().expect("filtered to planned slots");
            placed.offset = offset;
            let end = offset.checked_add(placed.bytes);
            arena_bytes = arena_bytes.max(end.ok_or_else(|| overflow("the arena", batch))?);
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
            .map(|n| node_scratch_elems(graph, n, batch, conv))
            .max()
            .unwrap_or(0);

        Ok(MemoryPlan {
            batch,
            layout,
            slots,
            buffers,
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

    /// How the plan lays runtime tensors out on buffers.
    pub(crate) fn layout(&self) -> BufferLayout {
        self.layout
    }

    /// Number of physical buffers the plan's tensors run in.
    pub(crate) fn buffer_count(&self) -> usize {
        self.buffers.len()
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
    /// zero-bordered convolution input in the graph, or the widest
    /// BatchNorm's channel count if that is larger.
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
    /// would hold live at the end of an invoke, and what a plan for
    /// `Interpreter::preserving` holds.
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

    /// Overrides one slot's buffer, bypassing the buffer assignment: the
    /// lint suite's way to prove `verify_plan` detects a shared buffer.
    /// No-op when `id` has no slot.
    #[doc(hidden)]
    pub fn force_buffer(&mut self, id: TensorId, buffer: usize) {
        if let Some(Some(slot)) = self.slots.get_mut(id.0) {
            slot.buffer = buffer;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::ops::{Activation, Padding};
    use mlexray_tensor::Tensor;

    /// Bytes of every physical buffer of `plan` together: what an
    /// interpreter running it holds for its runtime tensors.
    fn held_bytes(plan: &MemoryPlan) -> usize {
        plan.buffers.iter().sum()
    }

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
    fn dead_activations_hand_their_buffers_on() {
        let g = chain();
        let one = 4 * 4 * 2 * 4;
        let ids: Vec<TensorId> = g.nodes().iter().map(|n| n.output).collect();
        let (input, output) = (g.inputs()[0], ids[3]);
        for batch in [1, 3] {
            let plan = MemoryPlan::for_graph(&g, batch).unwrap();
            let slot = |id: TensorId| *plan.slot(id).unwrap();
            // c0 is still read when c1 is written, so they take two
            // buffers; c2 takes c0's, freed once c1 has run.
            assert_ne!(slot(ids[0]).buffer, slot(ids[1]).buffer);
            assert_eq!(slot(ids[2]).buffer, slot(ids[0]).buffer);
            // The input and the output keep buffers of their own.
            assert_eq!(plan.buffer_count(), 4);
            assert!(slot(input).kept && slot(output).kept);
            assert!(ids[..3].iter().all(|&id| !slot(id).kept));
            assert_eq!(held_bytes(&plan), 4 * one * batch);
            assert_eq!(plan.layout(), BufferLayout::Shared);
            // Every batch size assigns the same buffers.
            let first = MemoryPlan::for_graph(&g, 1).unwrap();
            for id in ids.iter().chain([&input]) {
                assert_eq!(slot(*id).buffer, first.slot(*id).unwrap().buffer);
            }

            let conv = ConvScratch::Bordered;
            let kept = MemoryPlan::for_kernels(&g, batch, conv, BufferLayout::Preserving).unwrap();
            assert_eq!(kept.buffer_count(), 5);
            assert_eq!(held_bytes(&kept), kept.unshared_bytes());
            assert!(kept.slots().all(|p| p.kept));
            assert_eq!(
                (kept.arena_bytes(), kept.peak_bytes()),
                (plan.arena_bytes(), plan.peak_bytes()),
                "the layout moves no accounting figure"
            );
        }
    }

    #[test]
    fn buffers_are_shared_only_within_one_dtype_and_size() {
        // 1x1 convs alternating 4 and 2 output channels: the wide and the
        // narrow activations never share, whatever their lifetimes.
        let mut b = GraphBuilder::new("widths");
        let mut x = b.input("x", Shape::nhwc(1, 2, 2, 2));
        for (i, (out_c, in_c)) in [(4, 2), (2, 4), (4, 2), (2, 4)].into_iter().enumerate() {
            let w = b.constant(
                format!("w{i}"),
                Tensor::filled_f32(Shape::new(vec![out_c, 1, 1, in_c]), 0.5),
            );
            x = b
                .conv2d(
                    format!("c{i}"),
                    x,
                    w,
                    None,
                    1,
                    Padding::Same,
                    Activation::None,
                )
                .unwrap();
        }
        b.output(x);
        let g = b.finish().unwrap();
        let plan = MemoryPlan::for_graph(&g, 1).unwrap();
        let slots: Vec<PlannedTensor> = g
            .nodes()
            .iter()
            .map(|n| *plan.slot(n.output).unwrap())
            .collect();
        assert_eq!(
            slots[2].buffer, slots[0].buffer,
            "wide c2 takes wide c0's buffer"
        );
        assert_ne!(slots[1].buffer, slots[0].buffer);
        for (a, b) in slots.iter().zip(&slots[1..]) {
            assert_ne!(a.buffer, b.buffer);
        }
        assert!(crate::analysis::verify_plan(&g, &plan).is_empty());
    }

    #[test]
    fn scratch_covers_the_batched_bordered_input() {
        let mut b = GraphBuilder::new("s");
        let x = b.input("x", Shape::nhwc(1, 8, 8, 3));
        let w = b.constant("w", Tensor::filled_f32(Shape::new(vec![4, 3, 3, 3]), 0.1));
        let y = b
            .conv2d("c", x, w, None, 1, Padding::Same, Activation::None)
            .unwrap();
        b.output(y);
        let g = b.finish().unwrap();
        // The bordered input of a 3 × 3 SAME window over 8 × 8 is 10 × 10
        // a frame.
        let plan = MemoryPlan::for_graph(&g, 2).unwrap();
        assert_eq!(plan.scratch_elems(), 2 * 10 * 10 * 3);
        // Single invokes read the same windows, so batch 1 reserves it too.
        let single = MemoryPlan::for_graph(&g, 1).unwrap();
        assert_eq!(single.scratch_elems(), 10 * 10 * 3);
        // Kernels that read the input itself keep nothing.
        for (keeps, elems) in [
            (ConvScratch::Bordered, 2 * 10 * 10 * 3),
            (ConvScratch::Nothing, 0),
        ] {
            let plan = MemoryPlan::for_kernels(&g, 2, keeps, BufferLayout::Shared).unwrap();
            assert_eq!(plan.scratch_elems(), elems, "{keeps:?}");
        }
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
