//! The [`Interpreter`]: a graph executed node by node over one preplanned
//! arena.
//!
//! Every invoke goes through one of two execution bodies, both over
//! `execute_graph`:
//!
//! * **stacked** — [`Interpreter::invoke_batch_observed`] on a batchable
//!   graph stacks N frames along the leading dimension and runs the graph
//!   once;
//! * **per frame** — everything else: [`Interpreter::invoke`] and
//!   [`Interpreter::invoke_observed`] (one sample), a batch of one, and the
//!   fallback for graphs or batches that cannot stack. This body is the one
//!   place a single frame is staged, executed, collected and accounted in
//!   [`InvokeStats`].

use std::time::{Duration, Instant};

#[cfg(doc)]
use mlexray_tensor::TensorError;
use mlexray_tensor::{DType, Shape, Tensor, TensorData};

use crate::backend::BackendSpec;
use crate::graph::{Graph, TensorDef, TensorId};
use crate::kernels::gemm::Engine;
use crate::kernels::{execute_node, FloatKernels, KernelCtx, Kernels, Scratch};
use crate::ops::OpKind;
use crate::plan::{BufferLayout, MemoryPlan};
use crate::{NnError, Result};

/// Everything ML-EXray's per-layer instrumentation can see about one executed
/// node: identity, op, output values, measured latency and the frame it
/// belongs to.
#[derive(Debug)]
pub struct LayerRecord<'a> {
    /// Execution index of the node.
    pub index: usize,
    /// Node display name.
    pub name: &'a str,
    /// The operation performed.
    pub op: &'a OpKind,
    /// The node's output tensor. During a batched invoke this is the
    /// per-frame view, so logging stays per-frame — unless the observer
    /// declined it via [`LayerObserver::wants_output`], in which case it
    /// is an empty placeholder the observer promised not to read.
    pub output: &'a Tensor,
    /// Index of the frame within the invoked batch (`0` for single invokes).
    pub batch: usize,
    /// Wall-clock latency of the kernel. During a batched invoke each
    /// frame's record carries its share (node latency / batch size).
    pub latency: Duration,
    /// MAC estimate for the node (drives simulated-device cost models),
    /// counted per frame.
    pub macs: u64,
}

/// Observer invoked after every node — the hook ML-EXray's EdgeML Monitor
/// (and the device simulator) attaches to.
pub trait LayerObserver {
    /// Called once per executed node per frame, in execution order.
    fn on_layer(&mut self, record: &LayerRecord<'_>);

    /// Whether the observer wants records at all. Returning `false` (as
    /// [`NullObserver`] does) lets batched invokes skip materializing
    /// per-frame output views entirely.
    fn enabled(&self) -> bool {
        true
    }

    /// Whether the observer will read [`LayerRecord::output`] for this
    /// frame of the batch. A batched invoke materializes the per-frame
    /// output view — an activation-sized copy per layer per frame — only
    /// for frames that want it; other frames still receive their records
    /// (index, latency share, MACs) with an empty placeholder output.
    /// Observers that only consume timings (e.g. span capture) override
    /// this to return `false`, keeping deep telemetry's copy cost off
    /// timing-only instrumentation.
    fn wants_output(&self, _batch: usize) -> bool {
        true
    }
}

/// A no-op observer.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl LayerObserver for NullObserver {
    fn on_layer(&mut self, _record: &LayerRecord<'_>) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// Aggregate statistics of one `invoke` / `invoke_batch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvokeStats {
    /// End-to-end wall-clock latency of the whole (possibly batched) invoke.
    pub latency: Duration,
    /// Peak bytes simultaneously live across runtime tensors (inputs +
    /// activations) under the memory plan's lifetimes: `arena_frames ×`
    /// [`MemoryPlan::peak_bytes`], the least a byte arena could hold.
    pub peak_activation_bytes: usize,
    /// Bytes of the buffers the interpreter ran the invoke's runtime tensors
    /// in, `arena_frames ×` the memory plan's buffers: the memory it holds
    /// for them. By default dead activations hand their buffers on to
    /// activations of the same dtype and size; an interpreter built with
    /// [`Interpreter::preserving`] keeps every tensor in its own buffer
    /// ([`MemoryPlan::unshared_bytes`] a frame) so
    /// [`Interpreter::tensor_value`] can expose every intermediate after the
    /// invoke. A buffer keeps the capacity of the largest batch it has run.
    pub arena_bytes: usize,
    /// Output tensors this invoke materialized: `outputs × frames`, the
    /// interpreter's own count of the buffers it handed out. It is not a
    /// measurement of the heap — arena slots are preallocated and reused,
    /// and that nothing else allocates per node is pinned by a counting
    /// allocator in `tests/alloc_steady_state.rs`, not by this field.
    pub allocations: usize,
    /// Frames executed by this invoke (1 for [`Interpreter::invoke`]).
    pub batch: usize,
    /// Frames simultaneously resident in the arena the peak/arena figures
    /// describe: `batch` when frames were stacked into one graph execution,
    /// `1` when they ran per-frame (single invokes and the non-batchable
    /// fallback). Per-frame memory attribution is
    /// `peak_activation_bytes / arena_frames`.
    pub arena_frames: usize,
}

impl InvokeStats {
    /// This invoke's latency attributed to one frame (`latency / batch`) —
    /// what a serving layer reports as per-request execution time when
    /// several coalesced requests shared one batched invoke.
    pub fn per_frame_latency(&self) -> Duration {
        self.latency / self.batch.max(1) as u32
    }

    /// This invoke's throughput in frames per second.
    pub fn frames_per_sec(&self) -> f64 {
        let secs = self.latency.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.batch as f64 / secs
        }
    }
}

/// Plans the buffers of `graph`. Debug builds re-prove them with the
/// independent verifier from the static analyzer, so a future planner bug
/// fails loudly in tests instead of silently corrupting activations in
/// release.
fn verified_plan(graph: &Graph, layout: BufferLayout) -> Result<MemoryPlan> {
    let plan = MemoryPlan::for_kernels(graph, layout)?;
    #[cfg(debug_assertions)]
    {
        let findings = crate::analysis::verify_plan(graph, &plan);
        assert!(
            findings.is_empty(),
            "memory plan failed alias verification:\n{}",
            findings
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
    Ok(plan)
}

/// The plan's physical buffers and which runtime tensor each holds.
#[derive(Debug)]
struct Buffers {
    /// One tensor per planned buffer, stacked to the invoke's frames; a
    /// node takes its output's buffer out while it runs.
    tensors: Vec<Option<Tensor>>,
    /// Each runtime tensor's buffer index (`None` for constants, which are
    /// read straight from the graph).
    of: Vec<Option<usize>>,
    /// The runtime tensor each buffer last took the shape of.
    holder: Vec<usize>,
    /// Each runtime tensor's shape stacked to the invoke's frames, which
    /// its buffer takes when the tensor's producer runs.
    shapes: Vec<Option<Shape>>,
    /// Per node, fixed at construction: its output's buffer, and whether
    /// other tensors run in that buffer too, so the output takes it over
    /// before the node runs.
    writes: Vec<(usize, bool)>,
}

impl Buffers {
    /// Tensor `id`'s value, while its buffer holds it.
    fn value(&self, id: TensorId) -> Option<&Tensor> {
        let b = self.of.get(id.0).copied().flatten()?;
        if self.holder[b] == id.0 {
            self.tensors[b].as_ref()
        } else {
            None
        }
    }

    /// A running node's operand `id`, `None` for a constant. A live
    /// operand's buffer still holds it — the plan frees a buffer only after
    /// the last node reading its tensor, which debug builds re-prove for
    /// every plan (`verified_plan`) and check here.
    fn operand(&self, id: TensorId) -> Option<&Tensor> {
        let b = self.of[id.0]?;
        debug_assert_eq!(self.holder[b], id.0, "an operand's buffer was handed on");
        self.tensors[b].as_ref()
    }

    /// Hands buffer `b` to tensor `id`: the tensor's stacked shape and its
    /// definition's quantization, the values left as they were (the
    /// producer overwrites them all).
    fn hand_to(&mut self, b: usize, id: TensorId, def: &TensorDef) -> Result<()> {
        let buffer = self.tensors[b]
            .as_mut()
            .expect("buffers are restored after every node");
        let shape = self.shapes[id.0]
            .as_ref()
            .expect("planned tensors have shapes");
        buffer.set_shape(shape)?;
        buffer.set_quant(def.quant().cloned());
        self.holder[b] = id.0;
        Ok(())
    }
}

/// The interpreter's one execution arena: the memory plan's physical
/// buffers, fitted to the frames of the current invoke, plus the kernels'
/// scratch. Buffers are re-fitted in place when the batch size changes and
/// never shrink on their own, so the arena's footprint is that of the
/// largest batch it has run, however many sizes it has seen.
#[derive(Debug)]
struct ExecState {
    /// Frames the buffers are fitted to; 0 while a re-fit the allocator
    /// refused has left them at mixed sizes.
    frames: usize,
    buffers: Buffers,
    /// What the kernels keep across nodes and invokes, each buffer empty
    /// until a node that needs it runs, then grown by its kernel to the
    /// largest it has held (constant weights are packed once, in
    /// [`packed_weight_panels`]).
    scratch: Scratch,
}

impl ExecState {
    /// A one-frame arena for `graph`: the buffers of its `plan`, each
    /// allocated here, at the shape of the first tensor it holds.
    ///
    /// # Errors
    ///
    /// [`TensorError::AllocationRefused`] when the allocator refuses a
    /// buffer: a graph no machine holds is refused, not an aborted process.
    fn new(graph: &Graph, plan: &MemoryPlan) -> Result<Self> {
        let count = graph.tensors().len();
        let mut buffers = Buffers {
            tensors: (0..plan.buffer_count()).map(|_| None).collect(),
            of: vec![None; count],
            holder: vec![0; plan.buffer_count()],
            shapes: vec![None; count],
            writes: Vec::with_capacity(graph.nodes().len()),
        };
        let mut tenants = vec![0usize; plan.buffer_count()];
        for (i, def) in graph.tensors().iter().enumerate() {
            let Some(slot) = plan.slot(TensorId(i)) else {
                continue;
            };
            tenants[slot.buffer] += 1;
            buffers.of[i] = Some(slot.buffer);
            buffers.shapes[i] = Some(def.shape().clone());
            if buffers.tensors[slot.buffer].is_none() {
                let mut buffer = Tensor::try_zeros(def.dtype(), def.shape().clone())?;
                buffer.set_quant(def.quant().cloned());
                buffers.tensors[slot.buffer] = Some(buffer);
                buffers.holder[slot.buffer] = i;
            }
        }
        for node in graph.nodes() {
            let b = buffers.of[node.output.0]
                .expect("validated graph: nodes write planned activations");
            buffers.writes.push((b, tenants[b] > 1));
        }
        Ok(ExecState {
            frames: 1,
            buffers,
            scratch: Scratch::default(),
        })
    }

    /// Fits every buffer to `frames` stacked frames — a no-op when they
    /// already hold that many. Shrinking frees nothing and regrowing within
    /// a buffer's capacity allocates nothing; added frames are zero-filled
    /// (every kernel overwrites its whole output, so their content is never
    /// read). A buffer the allocator refuses leaves the arena fitted to no
    /// frame count, so the next call re-fits every buffer.
    fn reshape(&mut self, graph: &Graph, frames: usize) -> Result<()> {
        if self.frames != frames {
            self.frames = 0;
            let lead = |id: usize| {
                let def = &graph.tensors()[id];
                let lead = def.shape().dims().first().copied().unwrap_or(1);
                lead.checked_mul(frames).ok_or_else(|| {
                    NnError::InvalidGraph(format!(
                        "{frames} frames of '{}' overflow the address space",
                        def.name()
                    ))
                })
            };
            let buffers = &mut self.buffers;
            for (buffer, &holder) in buffers.tensors.iter_mut().zip(&buffers.holder) {
                let buffer = buffer.as_mut().expect("no node is running");
                buffer.resize_batch(lead(holder)?)?;
            }
            for (id, shape) in buffers.shapes.iter_mut().enumerate() {
                if let Some(shape) = shape {
                    shape.set_batch(lead(id)?)?;
                }
            }
            self.frames = frames;
        }
        Ok(())
    }
}

/// A panel-ordered copy of the float weight operand of every node whose
/// kernel [reads panels](FloatKernels::reads_panels) on this process's
/// engine — the reference `Conv2d`, the optimized `Conv2d` and
/// `FullyConnected`, the AVX-512 build's narrow Simd `Conv2d` — when it is
/// a graph constant, by node index; empty when no node's kernel reads
/// panels.
fn packed_weight_panels(graph: &Graph, float: FloatKernels) -> Result<Vec<Option<Vec<f32>>>> {
    let (nodes, engine) = (graph.nodes(), Engine::active());
    let reads_panels = |node: &crate::graph::Node| {
        let weights = graph.tensor(*node.inputs.get(1)?);
        float
            .reads_panels(engine, &node.op, weights.shape())
            .then_some(weights)
    };
    if !nodes.iter().any(|node| reads_panels(node).is_some()) {
        return Ok(Vec::new());
    }
    nodes
        .iter()
        .map(|node| {
            reads_panels(node)
                .and_then(TensorDef::as_constant)
                .filter(|w| w.dtype() == DType::F32)
                .map(|w| {
                    let mut packed = Vec::new();
                    float.pack(w, &mut packed)?;
                    Ok(packed)
                })
                .transpose()
        })
        .collect()
}

/// Materializes frame `b` of a stacked tensor as its own tensor with the
/// per-frame `shape`.
fn frame_view(stacked: &Tensor, shape: &Shape, b: usize) -> Result<Tensor> {
    let per = shape.num_elements();
    let lo = b * per;
    let mut out = Tensor::zeros(stacked.dtype(), shape.clone());
    match stacked.data() {
        TensorData::F32(src) => out.as_f32_mut()?.copy_from_slice(&src[lo..lo + per]),
        TensorData::U8(src) => out.as_u8_mut()?.copy_from_slice(&src[lo..lo + per]),
        TensorData::I8(src) => out.as_i8_mut()?.copy_from_slice(&src[lo..lo + per]),
        TensorData::I32(src) => out.as_i32_mut()?.copy_from_slice(&src[lo..lo + per]),
    }
    out.set_quant(stacked.quant().cloned());
    Ok(out)
}

/// Widest operand list resolved on the stack (`BatchNorm`'s five).
const MAX_INLINE_INPUTS: usize = 5;

/// Copies `src`'s buffer into `dst` starting at element offset `at`.
fn copy_into_slot(dst: &mut Tensor, src: &Tensor, at: usize) -> Result<()> {
    let n = src.len();
    match src.data() {
        TensorData::F32(v) => dst.as_f32_mut()?[at..at + n].copy_from_slice(v),
        TensorData::U8(v) => dst.as_u8_mut()?[at..at + n].copy_from_slice(v),
        TensorData::I8(v) => dst.as_i8_mut()?[at..at + n].copy_from_slice(v),
        TensorData::I32(v) => dst.as_i32_mut()?[at..at + n].copy_from_slice(v),
    }
    Ok(())
}

/// Executes a [`Graph`] node by node, TFLite-interpreter style, over a
/// preplanned buffer arena ([`MemoryPlan`]): the plan's buffers are
/// allocated once, up front, and reused across invokes — and across
/// batch sizes: there is **one** arena, re-shaped in place when
/// [`Interpreter::invoke_batch`] changes the number of stacked frames, so
/// its footprint is that of the largest batch run, not the sum over every
/// size seen.
///
/// [`Interpreter::new`] shares the plan's buffers: an activation hands its
/// buffer on, once its last reader has run, to the next activation of its
/// dtype and size, so an intermediate's value is gone after the invoke —
/// every
/// [`LayerObserver`] still sees each node's output when it is produced,
/// and [`Interpreter::tensor_value`] answers for inputs, outputs and
/// constants only. [`Interpreter::preserving`] — for code that reads
/// intermediates after the invoke, as TFLite's `preserve_all_tensors` —
/// gives every runtime tensor its own buffer on the same execution path,
/// holding [`MemoryPlan::unshared_bytes`]; no output bit differs between
/// the two. With a disabled observer the node loop itself neither
/// allocates nor reads the clock; the heap allocations of a steady-state
/// invoke, float or quantized, are the returned output tensors (a node
/// with more than five inputs — only `Concat` can have them — spills its
/// operand list to the heap). The one cost of sharing the
/// arena: an invoke that stacks *more* frames than the one before it
/// zero-fills the frames it adds, one extra write pass over them.
///
/// Beside the arena, an interpreter built under the reference or the
/// optimized flavor, or as the edge emulator (which runs the reference
/// kernels under its own sums), holds a second copy of its constant float
/// weights, laid out once as the output-channel panels those kernels read —
/// the reference kernels' `Conv2d` weights, the optimized flavor's `Conv2d`
/// and `FullyConnected` weights: 7.5 KB (reference) and 8.5 KB (optimized)
/// for `mini_mobilenet_v2`, ≈ 9 MB and ≈ 14 MB for `mobilenet_v2` ×1.0.
/// The SIMD flavor on an AVX-512 engine packs its `Conv2d` weights whose
/// reduction is at most `simd::NARROW_K` long, as 16-channel panels:
/// ≈ 0.5 MB for `mobilenet_v2@48`; on any other engine it packs nothing.
///
/// # Example
///
/// ```
/// use mlexray_nn::{BackendSpec, GraphBuilder, Interpreter};
/// use mlexray_tensor::{Shape, Tensor};
///
/// let mut b = GraphBuilder::new("softmax-only");
/// let x = b.input("x", Shape::matrix(1, 3));
/// let y = b.softmax("s", x)?;
/// b.output(y);
/// let graph = b.finish()?;
///
/// let mut interp = Interpreter::new(&graph, BackendSpec::optimized())?;
/// let out = interp.invoke(&[Tensor::from_f32(Shape::matrix(1, 3), vec![0.0, 1.0, 2.0])?])?;
/// let p = out[0].as_f32()?;
/// assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Interpreter<'g> {
    graph: &'g Graph,
    spec: BackendSpec,
    /// Every kernel choice `spec` makes, resolved once here (the
    /// `OpResolver` choice) instead of per node per invoke.
    kernels: Kernels,
    /// See [`packed_weight_panels`].
    panels: Vec<Option<Vec<f32>>>,
    state: ExecState,
    /// The buffers `state` holds, planned for one frame: an invoke of N
    /// stacked frames fits each to N frames.
    plan: MemoryPlan,
    /// Whether the graph can run stacked batches (see
    /// [`Interpreter::is_batchable`]).
    batch_safe: bool,
    last_stats: Option<InvokeStats>,
}

impl<'g> Interpreter<'g> {
    /// Prepares an interpreter for a graph: validates it, computes the
    /// [`MemoryPlan`] in its shared layout and preallocates the plan's
    /// buffers, where dead activations hand theirs on.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidGraph`] if validation fails, and
    /// [`TensorError::AllocationRefused`] (as [`NnError::Tensor`]) when the
    /// allocator refuses a buffer.
    pub fn new(graph: &'g Graph, spec: BackendSpec) -> Result<Self> {
        Self::with_layout(graph, spec, BufferLayout::Shared)
    }

    /// [`Interpreter::new`], every runtime tensor in a buffer of its own
    /// ([`MemoryPlan::unshared_bytes`]), so [`Interpreter::tensor_value`]
    /// reads every intermediate of the last invoke — for code that reads
    /// them after the invoke rather than through a [`LayerObserver`].
    ///
    /// # Errors
    ///
    /// As [`Interpreter::new`].
    pub fn preserving(graph: &'g Graph, spec: BackendSpec) -> Result<Self> {
        Self::with_layout(graph, spec, BufferLayout::Preserving)
    }

    fn with_layout(graph: &'g Graph, spec: BackendSpec, layout: BufferLayout) -> Result<Self> {
        graph.validate()?;
        let kernels = Kernels::resolve(&spec);
        let plan = verified_plan(graph, layout)?;
        Ok(Interpreter {
            graph,
            spec,
            kernels,
            panels: packed_weight_panels(graph, kernels.float)?,
            state: ExecState::new(graph, &plan)?,
            plan,
            batch_safe: batch_safe(graph),
            last_stats: None,
        })
    }

    /// The spec this interpreter was built under.
    pub fn spec(&self) -> BackendSpec {
        self.spec
    }

    /// The graph being executed.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// Statistics of the most recent invoke, if any.
    pub fn last_stats(&self) -> Option<InvokeStats> {
        self.last_stats
    }

    /// The memory plan of the buffers this interpreter runs, for one frame.
    pub fn memory_plan(&self) -> &MemoryPlan {
        &self.plan
    }

    /// Whether [`Interpreter::invoke_batch`] can stack frames into one graph
    /// execution for this graph. Graphs that mix frames across the batch
    /// dimension (matrix products between activations, concatenation along
    /// axis 0, non-constant weights, gate-shaped constant multiplicands)
    /// fall back to per-frame execution inside `invoke_batch`.
    pub fn is_batchable(&self) -> bool {
        self.batch_safe
    }

    fn check_inputs(&self, inputs: &[Tensor]) -> Result<()> {
        match self.graph.input_mismatch(inputs) {
            Some(detail) => Err(NnError::InvalidInput(detail)),
            None => Ok(()),
        }
    }

    /// Copies every sample's inputs into the arena's input buffers (sample
    /// `b` lands at frame offset `b`) and resolves their quantization.
    fn stage_inputs(graph: &Graph, state: &mut ExecState, samples: &[&[Tensor]]) -> Result<()> {
        for (k, &id) in graph.inputs().iter().enumerate() {
            let def = graph.tensor(id);
            let per = def.shape().num_elements();
            let buffer = state.buffers.of[id.0].expect("inputs are always planned");
            let slot = state.buffers.tensors[buffer]
                .as_mut()
                .expect("inputs own their buffers");
            for (b, sample) in samples.iter().enumerate() {
                copy_into_slot(slot, &sample[k], b * per)?;
            }
            let first = &samples[0][k];
            let quant = if first.quant().is_some() {
                first.quant().cloned()
            } else if first.dtype() != DType::F32 {
                def.quant().cloned()
            } else {
                None
            };
            slot.set_quant(quant);
        }
        Ok(())
    }

    /// Runs every node over the staged arena. `batch_base` offsets the frame
    /// index reported to the observer (used by the per-frame fallback).
    fn execute_graph(
        graph: &Graph,
        kernels: Kernels,
        panels: &[Option<Vec<f32>>],
        state: &mut ExecState,
        observer: &mut dyn LayerObserver,
        batch_base: usize,
    ) -> Result<()> {
        let frames = state.frames;
        let observing = observer.enabled();
        // Frames whose observer declined the output view share this one
        // empty placeholder (contract: they never read it, so the dtype
        // is immaterial); unused operand positions borrow it too.
        let placeholder = Tensor::zeros(DType::F32, Shape::new([0usize; 0]));
        for (index, node) in graph.nodes().iter().enumerate() {
            let out_def = graph.tensor(node.output);
            let (out_buffer, shared) = state.buffers.writes[index];
            if shared {
                state.buffers.hand_to(out_buffer, node.output, out_def)?;
            }
            let mut out = state.buffers.tensors[out_buffer]
                .take()
                .expect("buffers are restored after every node");
            // Only an observer reads the latency, so only then is the clock
            // read.
            let node_start = observing.then(Instant::now);
            let result = {
                let buffers = &state.buffers;
                let resolve = |id: &TensorId| {
                    buffers
                        .operand(*id)
                        .or_else(|| graph.tensor(*id).as_constant())
                        .expect("validated graph guarantees def-before-use")
                };
                // Operands are resolved on the stack for every fixed-arity
                // op; only a wider `Concat` spills to the heap.
                let mut inline = [&placeholder; MAX_INLINE_INPUTS];
                let spilled: Vec<&Tensor>;
                let input_refs: &[&Tensor] = if node.inputs.len() <= MAX_INLINE_INPUTS {
                    for (operand, id) in inline.iter_mut().zip(&node.inputs) {
                        *operand = resolve(id);
                    }
                    &inline[..node.inputs.len()]
                } else {
                    spilled = node.inputs.iter().map(resolve).collect();
                    &spilled
                };
                let mut ctx = KernelCtx {
                    kernels,
                    engine: Engine::active(),
                    scratch: &mut state.scratch,
                    panels: panels.get(index).and_then(Option::as_deref),
                };
                execute_node(node, input_refs, out_def, &mut out, &mut ctx)
            };
            let latency = node_start.map_or(Duration::ZERO, |start| start.elapsed());
            state.buffers.tensors[out_buffer] = Some(out);
            result?;
            if observing {
                let macs = graph.node_macs(crate::graph::NodeId(index));
                let produced = state.buffers.tensors[out_buffer]
                    .as_ref()
                    .expect("restored above");
                if frames == 1 {
                    observer.on_layer(&LayerRecord {
                        index,
                        name: &node.name,
                        op: &node.op,
                        output: produced,
                        batch: batch_base,
                        latency,
                        macs,
                    });
                } else {
                    let per_shape = out_def.shape();
                    let share = latency / frames as u32;
                    for b in 0..frames {
                        let frame = batch_base + b;
                        let view = if observer.wants_output(frame) {
                            Some(frame_view(produced, per_shape, b)?)
                        } else {
                            None
                        };
                        observer.on_layer(&LayerRecord {
                            index,
                            name: &node.name,
                            op: &node.op,
                            output: view.as_ref().unwrap_or(&placeholder),
                            batch: frame,
                            latency: share,
                            macs,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    fn collect_outputs(graph: &Graph, state: &ExecState) -> Result<Vec<Tensor>> {
        graph
            .outputs()
            .iter()
            .map(|&id| {
                state
                    .buffers
                    .value(id)
                    .cloned()
                    .ok_or_else(|| NnError::InvalidGraph("output never produced".into()))
            })
            .collect()
    }

    /// Runs the graph and returns its outputs.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidInput`] on interface mismatches and
    /// [`NnError::InvalidOp`] if a kernel rejects its operands.
    pub fn invoke(&mut self, inputs: &[Tensor]) -> Result<Vec<Tensor>> {
        self.invoke_observed(inputs, &mut NullObserver)
    }

    /// Runs the graph, reporting every executed node to `observer`: the
    /// per-frame path of [`Interpreter::invoke_batch_observed`] run on one
    /// sample.
    ///
    /// # Errors
    ///
    /// Same as [`Interpreter::invoke`].
    pub fn invoke_observed(
        &mut self,
        inputs: &[Tensor],
        observer: &mut dyn LayerObserver,
    ) -> Result<Vec<Tensor>> {
        self.check_inputs(inputs)?;
        let mut outputs = self.invoke_batch_sequential(&[inputs], observer)?;
        Ok(outputs.pop().expect("one sample, one output set"))
    }

    /// Runs the graph once over a stacked `batch` of input sets and returns
    /// one output set per frame, in order.
    ///
    /// Frames are stacked along the batch (leading) dimension and the whole
    /// graph executes a single time over a preplanned arena. Every kernel
    /// treats the leading dimension as the batch, so this is the same code
    /// `invoke` runs and results are **bitwise-identical** to invoking each
    /// frame separately (the property suite pins this). Graphs that cannot
    /// stack frames (see [`Interpreter::is_batchable`]) — and batches whose
    /// samples carry differing quantization parameters — transparently fall
    /// back to per-frame execution.
    ///
    /// # Errors
    ///
    /// Same as [`Interpreter::invoke`], checked per sample.
    pub fn invoke_batch(&mut self, batch: &[&[Tensor]]) -> Result<Vec<Vec<Tensor>>> {
        self.invoke_batch_observed(batch, &mut NullObserver)
    }

    /// Like [`Interpreter::invoke_batch`], reporting per-frame layer records
    /// to `observer` ([`LayerRecord::batch`] carries the frame index).
    ///
    /// # Errors
    ///
    /// Same as [`Interpreter::invoke_batch`].
    pub fn invoke_batch_observed(
        &mut self,
        batch: &[&[Tensor]],
        observer: &mut dyn LayerObserver,
    ) -> Result<Vec<Vec<Tensor>>> {
        let frames = batch.len();
        if frames == 0 {
            return Ok(Vec::new());
        }
        for sample in batch {
            self.check_inputs(sample)?;
        }
        if frames == 1 || !self.batch_safe || !uniform_quant(batch) {
            return self.invoke_batch_sequential(batch, observer);
        }

        let start = Instant::now();
        self.state.reshape(self.graph, frames)?;
        let state = &mut self.state;
        Self::stage_inputs(self.graph, state, batch)?;
        Self::execute_graph(self.graph, self.kernels, &self.panels, state, observer, 0)?;

        let mut outputs = Vec::with_capacity(frames);
        let mut allocations = 0usize;
        for b in 0..frames {
            let mut per_frame = Vec::with_capacity(self.graph.outputs().len());
            for &id in self.graph.outputs() {
                let stacked = state
                    .buffers
                    .value(id)
                    .ok_or_else(|| NnError::InvalidGraph("output never produced".into()))?;
                per_frame.push(frame_view(stacked, self.graph.tensor(id).shape(), b)?);
                allocations += 1;
            }
            outputs.push(per_frame);
        }
        self.last_stats = Some(InvokeStats {
            latency: start.elapsed(),
            peak_activation_bytes: frames * self.plan.peak_bytes(),
            arena_bytes: frames * self.plan.held_bytes(),
            allocations,
            batch: frames,
            arena_frames: frames,
        });
        Ok(outputs)
    }

    /// The one per-frame execution path: single invokes, and the fallback
    /// for graphs (or batches) that cannot stack. Runs each sample through
    /// the arena at one frame, still reporting the frame index to the
    /// observer.
    fn invoke_batch_sequential(
        &mut self,
        batch: &[&[Tensor]],
        observer: &mut dyn LayerObserver,
    ) -> Result<Vec<Vec<Tensor>>> {
        let start = Instant::now();
        self.state.reshape(self.graph, 1)?;
        let mut outputs = Vec::with_capacity(batch.len());
        let mut allocations = 0usize;
        for (b, sample) in batch.iter().enumerate() {
            Self::stage_inputs(self.graph, &mut self.state, &[*sample])?;
            Self::execute_graph(
                self.graph,
                self.kernels,
                &self.panels,
                &mut self.state,
                observer,
                b,
            )?;
            let outs = Self::collect_outputs(self.graph, &self.state)?;
            allocations += outs.len();
            outputs.push(outs);
        }
        self.last_stats = Some(InvokeStats {
            latency: start.elapsed(),
            peak_activation_bytes: self.plan.peak_bytes(),
            arena_bytes: self.plan.held_bytes(),
            allocations,
            batch: batch.len(),
            arena_frames: 1,
        });
        Ok(outputs)
    }

    /// The value of a tensor after the last invoke, when it is kept: a
    /// constant, a graph input or output, or — on an interpreter built with
    /// [`Interpreter::preserving`] — any intermediate activation (useful
    /// for reading activations by id after the invoke). On an interpreter
    /// built with [`Interpreter::new`] an intermediate's buffer is handed on
    /// once the intermediate is dead, so this is `None` for it, never a
    /// stale value; read intermediates there through a [`LayerObserver`].
    /// After a stacked batched invoke the value holds all frames.
    pub fn tensor_value(&self, id: TensorId) -> Option<&Tensor> {
        match self.plan.slot(id) {
            Some(slot) if slot.kept => self.state.buffers.value(id),
            Some(_) => None,
            None => self
                .graph
                .tensors()
                .get(id.0)
                .and_then(TensorDef::as_constant),
        }
    }
}

/// All samples in a batch must agree on input quantization for stacking to
/// preserve per-frame semantics.
fn uniform_quant(batch: &[&[Tensor]]) -> bool {
    let first = batch[0];
    batch[1..].iter().all(|sample| {
        sample
            .iter()
            .zip(first)
            .all(|(a, b)| a.quant() == b.quant())
    })
}

/// Whether stacking frames along the leading dimension preserves per-frame
/// semantics for every node of `graph`. The static analyzer re-derives
/// this verdict independently ([`crate::analysis::certify_batchable`]) and
/// cross-checks it against this function.
pub(crate) fn batch_safe(graph: &Graph) -> bool {
    let constant = |id: TensorId| graph.tensor(id).as_constant().is_some();
    // A rank-1 runtime tensor's leading dimension doubles as its feature
    // dimension, so scaling it changes row-based kernels' geometry (e.g.
    // softmax over a stacked vector would normalize across frames).
    if graph
        .tensors()
        .iter()
        .any(|def| def.as_constant().is_none() && def.shape().rank() < 2)
    {
        return false;
    }
    graph.nodes().iter().all(|node| {
        // Batched execution scales every runtime tensor's leading dimension;
        // a constant data operand would be left behind.
        if node.inputs.first().map(|&id| constant(id)).unwrap_or(true) {
            return false;
        }
        match &node.op {
            // Weights *and* bias must be baked in — a runtime-computed
            // operand past inputs[0] would need stacking the kernels don't
            // apply to it.
            OpKind::Conv2d { .. }
            | OpKind::DepthwiseConv2d { .. }
            | OpKind::FullyConnected { .. }
            | OpKind::MatMul { .. }
            | OpKind::Embedding => node.inputs[1..].iter().all(|&id| constant(id)),
            OpKind::BatchNorm { .. } | OpKind::LayerNorm { .. } => {
                node.inputs[1..].iter().all(|&id| constant(id))
            }
            OpKind::Concat { axis } => *axis != 0 && node.inputs.iter().all(|&id| !constant(id)),
            OpKind::Add { .. } => {
                // Constant rhs broadcasts by trailing suffix (frame-periodic
                // under stacking); runtime rhs must batch alongside the lhs.
                constant(node.inputs[1])
                    || graph.tensor(node.inputs[1]).shape() == graph.tensor(node.inputs[0]).shape()
            }
            OpKind::Mul => {
                let lhs = graph.tensor(node.inputs[0]).shape();
                let rhs = graph.tensor(node.inputs[1]).shape();
                if constant(node.inputs[1]) {
                    // Only scalar constants index identically after stacking.
                    rhs.num_elements() == 1
                } else {
                    // Same shape, or a [n,1,1,c] gate with matching batch.
                    rhs == lhs
                        || (lhs.rank() == 4
                            && rhs.rank() == 4
                            && rhs.dims()[0] == lhs.dims()[0]
                            && rhs.dims()[1] == 1
                            && rhs.dims()[2] == 1
                            && rhs.dims()[3] == lhs.dims()[3])
                }
            }
            _ => true,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::ops::{Activation, Padding};
    use mlexray_tensor::Shape;

    fn conv_graph() -> Graph {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", Shape::nhwc(1, 3, 3, 1));
        // Identity 1x1 kernel scaled by 2.
        let w = b.constant(
            "w",
            Tensor::from_f32(Shape::new(vec![1, 1, 1, 1]), vec![2.0]).unwrap(),
        );
        let y = b
            .conv2d("c", x, w, None, 1, Padding::Same, Activation::Relu)
            .unwrap();
        b.output(y);
        b.finish().unwrap()
    }

    #[test]
    fn conv_identity_scales() {
        let g = conv_graph();
        let mut interp = Interpreter::new(&g, BackendSpec::optimized()).unwrap();
        let input = Tensor::from_f32(
            Shape::nhwc(1, 3, 3, 1),
            vec![1.0, -1.0, 2.0, 0.5, 0.0, -3.0, 1.5, 2.5, -0.5],
        )
        .unwrap();
        let out = interp.invoke(&[input]).unwrap();
        let v = out[0].as_f32().unwrap();
        assert_eq!(v[0], 2.0);
        assert_eq!(v[1], 0.0, "ReLU clips negatives");
        assert_eq!(v[2], 4.0);
        assert!(interp.last_stats().unwrap().peak_activation_bytes > 0);
        assert!(interp.last_stats().unwrap().arena_bytes > 0);
    }

    #[test]
    fn invoke_stats_attribute_latency_per_frame() {
        let stats = InvokeStats {
            latency: Duration::from_millis(8),
            peak_activation_bytes: 0,
            arena_bytes: 0,
            allocations: 0,
            batch: 4,
            arena_frames: 4,
        };
        assert_eq!(stats.per_frame_latency(), Duration::from_millis(2));
        assert!((stats.frames_per_sec() - 500.0).abs() < 1e-6);
        // Degenerate batch of 0 must not divide by zero.
        let empty = InvokeStats { batch: 0, ..stats };
        assert_eq!(empty.per_frame_latency(), Duration::from_millis(8));
        let instant = InvokeStats {
            latency: Duration::ZERO,
            ..stats
        };
        assert_eq!(instant.frames_per_sec(), 0.0);
    }

    #[test]
    fn wrong_input_shape_rejected() {
        let g = conv_graph();
        let mut interp = Interpreter::new(&g, BackendSpec::optimized()).unwrap();
        let bad = Tensor::zeros(DType::F32, Shape::nhwc(1, 2, 2, 1));
        assert!(matches!(
            interp.invoke(&[bad]),
            Err(NnError::InvalidInput(_))
        ));
        assert!(matches!(interp.invoke(&[]), Err(NnError::InvalidInput(_))));
    }

    #[test]
    fn observer_sees_every_layer() {
        struct Count(Vec<String>);
        impl LayerObserver for Count {
            fn on_layer(&mut self, r: &LayerRecord<'_>) {
                self.0.push(format!("{}:{}:{}", r.index, r.name, r.batch));
            }
        }
        let g = conv_graph();
        let mut interp = Interpreter::new(&g, BackendSpec::optimized()).unwrap();
        let mut obs = Count(Vec::new());
        let x = Tensor::zeros(DType::F32, Shape::nhwc(1, 3, 3, 1));
        interp.invoke_observed(&[x], &mut obs).unwrap();
        assert_eq!(obs.0, vec!["0:c:0"]);
    }

    #[test]
    fn flavors_agree_on_small_float_conv() {
        let g = conv_graph();
        let x = Tensor::from_f32(
            Shape::nhwc(1, 3, 3, 1),
            vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
        )
        .unwrap();
        let mut opt = Interpreter::new(&g, BackendSpec::optimized()).unwrap();
        let mut reference = Interpreter::new(&g, BackendSpec::reference()).unwrap();
        let a = opt.invoke(std::slice::from_ref(&x)).unwrap();
        let b = reference.invoke(std::slice::from_ref(&x)).unwrap();
        for (u, v) in a[0].as_f32().unwrap().iter().zip(b[0].as_f32().unwrap()) {
            assert!((u - v).abs() < 1e-5);
        }
    }

    #[test]
    fn invoke_batch_matches_sequential_invokes() {
        let g = conv_graph();
        let mut interp = Interpreter::new(&g, BackendSpec::optimized()).unwrap();
        assert!(interp.is_batchable());
        let samples: Vec<Vec<Tensor>> = (0..4)
            .map(|i| {
                vec![Tensor::from_f32(
                    Shape::nhwc(1, 3, 3, 1),
                    (0..9).map(|j| (i * 9 + j) as f32 * 0.1 - 1.7).collect(),
                )
                .unwrap()]
            })
            .collect();
        let sequential: Vec<Vec<Tensor>> =
            samples.iter().map(|s| interp.invoke(s).unwrap()).collect();
        let refs: Vec<&[Tensor]> = samples.iter().map(Vec::as_slice).collect();
        let batched = interp.invoke_batch(&refs).unwrap();
        assert_eq!(batched, sequential);
        let stats = interp.last_stats().unwrap();
        assert_eq!(stats.batch, 4);
        assert_eq!(stats.allocations, 4);
    }

    #[test]
    fn batched_observer_reports_per_frame_records() {
        struct Frames(Vec<(usize, usize, f32)>);
        impl LayerObserver for Frames {
            fn on_layer(&mut self, r: &LayerRecord<'_>) {
                self.0
                    .push((r.index, r.batch, r.output.as_f32().unwrap()[0]));
            }
        }
        let g = conv_graph();
        let mut interp = Interpreter::new(&g, BackendSpec::optimized()).unwrap();
        let samples: Vec<Vec<Tensor>> = (0..3)
            .map(|i| vec![Tensor::filled_f32(Shape::nhwc(1, 3, 3, 1), i as f32)])
            .collect();
        let refs: Vec<&[Tensor]> = samples.iter().map(Vec::as_slice).collect();
        let mut obs = Frames(Vec::new());
        interp.invoke_batch_observed(&refs, &mut obs).unwrap();
        assert_eq!(obs.0.len(), 3, "one record per frame per node");
        for (b, record) in obs.0.iter().enumerate() {
            assert_eq!(record.1, b);
            assert_eq!(record.2, 2.0 * b as f32, "per-frame view holds frame data");
        }
    }

    #[test]
    fn allocations_are_independent_of_graph_depth() {
        let build = |depth: usize| {
            let mut b = GraphBuilder::new("chain");
            let mut x = b.input("x", Shape::nhwc(1, 4, 4, 2));
            for i in 0..depth {
                let w = b.constant(
                    format!("w{i}"),
                    Tensor::filled_f32(Shape::new(vec![2, 1, 1, 2]), 0.3),
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
        };
        let input = Tensor::filled_f32(Shape::nhwc(1, 4, 4, 2), 0.5);
        let mut counts = Vec::new();
        for depth in [2usize, 8, 32] {
            let g = build(depth);
            let mut interp = Interpreter::new(&g, BackendSpec::optimized()).unwrap();
            interp.invoke(std::slice::from_ref(&input)).unwrap();
            let first = interp.last_stats().unwrap().allocations;
            interp.invoke(std::slice::from_ref(&input)).unwrap();
            let second = interp.last_stats().unwrap().allocations;
            assert_eq!(first, second, "steady state from the first invoke");
            counts.push(first);
        }
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "allocation count grew with depth: {counts:?}"
        );
    }

    #[test]
    fn arena_reuses_lifetime_disjoint_buffers() {
        let mut b = GraphBuilder::new("deep");
        let mut x = b.input("x", Shape::nhwc(1, 6, 6, 4));
        for i in 0..6 {
            let w = b.constant(
                format!("w{i}"),
                Tensor::filled_f32(Shape::new(vec![4, 1, 1, 4]), 0.2),
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
        let g = b.finish().unwrap();
        let interp = Interpreter::new(&g, BackendSpec::optimized()).unwrap();
        let plan = interp.memory_plan();
        assert!(
            plan.held_bytes() < plan.unshared_bytes(),
            "a 6-deep chain must not keep 6 live buffers"
        );
    }

    /// An invoke of N stacked frames reports N times the plan's one-frame
    /// figures: the buffers it holds and the lifetime peak, under either
    /// layout, whatever batch ran before.
    #[test]
    fn batched_stats_are_frames_times_the_plan() {
        let mut b = GraphBuilder::new("chain");
        let mut x = b.input("x", Shape::nhwc(1, 4, 4, 2));
        for i in 0..4 {
            let w = b.constant(
                format!("w{i}"),
                Tensor::filled_f32(Shape::new(vec![2, 1, 1, 2]), 0.3),
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
        let g = b.finish().unwrap();
        let frame = [Tensor::filled_f32(Shape::nhwc(1, 4, 4, 2), 0.5)];
        let builds: [for<'a> fn(&'a Graph, BackendSpec) -> Result<Interpreter<'a>>; 2] = [
            |graph, spec| Interpreter::new(graph, spec),
            |graph, spec| Interpreter::preserving(graph, spec),
        ];
        for build in builds {
            let mut interp = build(&g, BackendSpec::optimized()).unwrap();
            let (held, peak) = (
                interp.memory_plan().held_bytes(),
                interp.memory_plan().peak_bytes(),
            );
            assert!(held > peak, "the chain's buffers hold more than its peak");
            for n in [3, 1, 8, 2] {
                interp.invoke_batch(&vec![&frame[..]; n]).unwrap();
                let stats = interp.last_stats().unwrap();
                assert_eq!(stats.arena_frames, n);
                assert_eq!(stats.arena_bytes, n * held, "{n} frames");
                assert_eq!(stats.peak_activation_bytes, n * peak, "{n} frames");
            }
        }
    }
}
