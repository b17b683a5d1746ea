//! Ahead-of-time activation memory planning.
//!
//! Before the first invoke, the interpreter walks the graph once and computes
//! a [`MemoryPlan`] for one frame: the byte size and lifetime of every
//! runtime tensor (graph inputs and node outputs) and the physical buffer
//! the interpreter runs each of them in. The plan knows runtime tensors
//! only — neither the kernel flavor nor any window geometry: what a kernel
//! keeps besides its output is the kernels' own scratch, which they size
//! and grow themselves.
//!
//! Under the default [`BufferLayout::Shared`] an activation's buffer is
//! handed on, once the activation is dead, to the next activation of the
//! same dtype and element count, so the interpreter holds the plan's
//! buffers, far fewer than one per tensor;
//! [`BufferLayout::Preserving`] — the opt-in of the code that reads
//! intermediates after an invoke — gives every runtime tensor its own. The
//! interpreter allocates the plan's buffers once, up front, and reuses them
//! across invokes, so steady-state execution performs no per-node
//! allocation. An invoke of N stacked frames re-fits every buffer in place
//! to N frames (the leading dimension of every runtime tensor is the
//! batch), so the plan holds no batch: its byte figures at N frames are N
//! times its one-frame figures.
//! `InvokeStats::allocations` reports what the interpreter *knows* it
//! allocated (the output tensors); the property itself is pinned from
//! outside by the counting allocator in `tests/alloc_steady_state.rs`.

use mlexray_tensor::DType;

use crate::graph::{Graph, TensorDef, TensorId};
use crate::{NnError, Result};

/// One runtime tensor's entry in the plan, for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedTensor {
    /// The tensor slot this entry plans.
    pub id: TensorId,
    /// Byte size of one frame of the tensor.
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

/// The buffers an interpreter runs one graph in, planned for one frame.
///
/// Every runtime tensor has a slot: its byte size, its lifetime and the
/// physical buffer the interpreter runs it in ([`PlannedTensor::buffer`]:
/// dead activations hand theirs on, unless the plan is for
/// `Interpreter::preserving`). The buffers are what the interpreter holds.
/// They are shared only between tensors of one dtype and byte size, never
/// part of one buffer with part of another, so they hold more than the
/// lifetime peak ([`MemoryPlan::peak_bytes`], the least a byte arena
/// could hold): 1.26 MB in 42 buffers against 0.44 MB for one
/// `mobilenet_v2@48` frame (3.82 MB in 153 unshared). An invoke of N
/// stacked frames holds N times the buffers' bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryPlan {
    slots: Vec<Option<PlannedTensor>>,
    buffer_count: usize,
    held_bytes: usize,
    peak_bytes: usize,
    unshared_bytes: usize,
}

/// A plan whose `what` has more bytes than the address space.
fn overflow(what: &str) -> NnError {
    NnError::InvalidGraph(format!("{what} overflows the address space"))
}

/// The sum of `bytes`, or an overflow of `what`.
fn total(what: &str, bytes: impl IntoIterator<Item = usize>) -> Result<usize> {
    bytes
        .into_iter()
        .try_fold(0usize, usize::checked_add)
        .ok_or_else(|| overflow(what))
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
    /// Plans the buffers of one frame of `graph`, its activations sharing
    /// them as [`Interpreter::new`](crate::Interpreter::new) runs them.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidGraph`] when a tensor's bytes, or the bytes
    /// of the tensors live together or of the buffers, overflow the address
    /// space.
    pub fn for_graph(graph: &Graph) -> Result<Self> {
        Self::for_kernels(graph, BufferLayout::Shared)
    }

    /// [`MemoryPlan::for_graph`], the buffers laid out by `layout`.
    pub(crate) fn for_kernels(graph: &Graph, layout: BufferLayout) -> Result<Self> {
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
            let bytes = def
                .shape()
                .checked_num_elements()
                .and_then(|n| n.checked_mul(def.dtype().byte_size()))
                .ok_or_else(|| overflow(def.name()))?;
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
                bytes,
                first_use,
                last_use,
                buffer: 0,
                kept,
            });
        }
        let buffers = assign_buffers(graph, &mut slots);

        let planned = || slots.iter().flatten();
        let mut peak_bytes = 0;
        for t in 0..=horizon {
            let live = planned().filter(|p| p.first_use <= t && t <= p.last_use);
            peak_bytes = peak_bytes.max(total("the live tensors", live.map(|p| p.bytes))?);
        }

        Ok(MemoryPlan {
            buffer_count: buffers.len(),
            held_bytes: total("the buffers", buffers)?,
            peak_bytes,
            unshared_bytes: total("the runtime tensors", planned().map(|p| p.bytes))?,
            slots,
        })
    }

    /// Number of physical buffers the plan's tensors run in.
    pub(crate) fn buffer_count(&self) -> usize {
        self.buffer_count
    }

    /// Bytes of every physical buffer together, a frame: what an
    /// interpreter running the plan holds for its runtime tensors.
    pub(crate) fn held_bytes(&self) -> usize {
        self.held_bytes
    }

    /// Peak bytes simultaneously live under the plan's lifetimes, a frame —
    /// the least any byte arena could hold.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// The planned slot for a tensor, when it is a runtime tensor
    /// (constants are baked into the model and never planned).
    pub fn slot(&self, id: TensorId) -> Option<&PlannedTensor> {
        self.slots.get(id.0).and_then(Option::as_ref)
    }

    /// Planned slots in tensor order.
    pub fn slots(&self) -> impl Iterator<Item = &PlannedTensor> {
        self.slots.iter().flatten()
    }

    /// Sum of slot sizes with no reuse at all, a frame — what per-node
    /// allocation would hold live at the end of an invoke, and what a plan
    /// for `Interpreter::preserving` holds.
    pub fn unshared_bytes(&self) -> usize {
        self.unshared_bytes
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
    use mlexray_tensor::{Shape, Tensor};

    /// A 4-deep chain of 1x1 convs: every intermediate dies one node later,
    /// so the activations should need ~2 buffers, not 4.
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

    /// A 3×3 stem conv → BatchNorm → Relu6 → pointwise conv → residual Add.
    fn mixed() -> Graph {
        let mut b = GraphBuilder::new("mixed");
        let x = b.input("x", Shape::nhwc(1, 6, 6, 3));
        let w = b.constant("w", Tensor::filled_f32(Shape::new(vec![8, 3, 3, 3]), 0.1));
        let stem = b
            .conv2d("stem", x, w, None, 1, Padding::Same, Activation::None)
            .unwrap();
        let [gamma, beta, mean, var] = ["gamma", "beta", "mean", "var"]
            .map(|name| b.constant(name, Tensor::filled_f32(Shape::vector(8), 0.5)));
        let bn = b
            .batch_norm("bn", stem, gamma, beta, mean, var, 1e-3)
            .unwrap();
        let act = b.activation("act", bn, Activation::Relu6).unwrap();
        let w1 = b.constant("w1", Tensor::filled_f32(Shape::new(vec![8, 1, 1, 8]), 0.2));
        let pw = b
            .conv2d("pw", act, w1, None, 1, Padding::Same, Activation::None)
            .unwrap();
        let y = b.add("add", act, pw, Activation::None).unwrap();
        b.output(y);
        b.finish().unwrap()
    }

    #[test]
    fn lifetimes_enable_reuse() {
        let g = chain();
        let plan = MemoryPlan::for_graph(&g).unwrap();
        let one = 4 * 4 * 2 * 4; // one activation's bytes
        assert!(plan.held_bytes() < plan.unshared_bytes());
        // Chain: input + first activation live together, later pairs reuse.
        assert_eq!(plan.peak_bytes(), 2 * one);
        assert!(plan.held_bytes() >= plan.peak_bytes());
    }

    /// The plan holds no batch: N stacked frames hold N times each
    /// one-frame figure. These are the figures a planner run at 3 frames
    /// computed for `mixed`, one plan per batch size: a 10 368-byte peak,
    /// 11 664 bytes of shared buffers, 18 576 bytes unshared (what the
    /// preserving buffers hold), and slots of 1 296 bytes (the input) and
    /// 3 456.
    #[test]
    fn batched_plan_scales_slot_sizes() {
        let g = mixed();
        let plan = MemoryPlan::for_graph(&g).unwrap();
        let kept = MemoryPlan::for_kernels(&g, BufferLayout::Preserving).unwrap();
        let n = 3;
        assert_eq!(n * plan.peak_bytes(), 10_368);
        assert_eq!(n * plan.held_bytes(), 11_664);
        assert_eq!(n * plan.unshared_bytes(), 18_576);
        assert_eq!(n * kept.held_bytes(), 18_576);
        let bytes: Vec<usize> = plan.slots().map(|p| n * p.bytes).collect();
        assert_eq!(bytes, [1_296, 3_456, 3_456, 3_456, 3_456, 3_456]);
    }

    #[test]
    fn placements_never_alias_live_ranges() {
        let g = mixed();
        let plan = MemoryPlan::for_graph(&g).unwrap();
        let placed: Vec<_> = plan.slots().collect();
        for (i, a) in placed.iter().enumerate() {
            for b in &placed[i + 1..] {
                let live_together = a.first_use <= b.last_use && b.first_use <= a.last_use;
                assert!(
                    !live_together || a.buffer != b.buffer,
                    "slots {:?} and {:?} alias",
                    a.id,
                    b.id
                );
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
        let plan = MemoryPlan::for_graph(&g).unwrap();
        let slot = |id: TensorId| *plan.slot(id).unwrap();
        // c0 is still read when c1 is written, so they take two buffers; c2
        // takes c0's, freed once c1 has run.
        assert_ne!(slot(ids[0]).buffer, slot(ids[1]).buffer);
        assert_eq!(slot(ids[2]).buffer, slot(ids[0]).buffer);
        // The input and the output keep buffers of their own.
        assert_eq!(plan.buffer_count(), 4);
        assert!(slot(input).kept && slot(output).kept);
        assert!(ids[..3].iter().all(|&id| !slot(id).kept));
        assert_eq!(plan.held_bytes(), 4 * one);

        let kept = MemoryPlan::for_kernels(&g, BufferLayout::Preserving).unwrap();
        assert_eq!(kept.buffer_count(), 5);
        assert_eq!(kept.held_bytes(), kept.unshared_bytes());
        assert!(kept.slots().all(|p| p.kept));
        assert_eq!(
            kept.peak_bytes(),
            plan.peak_bytes(),
            "the layout moves no lifetime"
        );
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
        let plan = MemoryPlan::for_graph(&g).unwrap();
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
}
