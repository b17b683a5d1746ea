use serde::{Deserialize, Serialize};

use mlexray_tensor::{DType, QuantParams, Shape, Tensor};

use crate::ops::{Activation, OpKind, Padding};
use crate::{NnError, Result};

/// Identifier of a tensor slot within a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TensorId(pub usize);

/// Identifier of a node within a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NodeId(pub usize);

/// A tensor slot: graph input, baked-in constant (weights) or runtime
/// activation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TensorDef {
    /// Fed by the caller at invoke time.
    Input {
        /// Display name.
        name: String,
        /// Expected shape.
        shape: Shape,
        /// Expected dtype.
        dtype: DType,
        /// Quantization parameters for quantized inputs.
        quant: Option<QuantParams>,
    },
    /// Weights/bias baked into the model.
    Constant {
        /// Display name.
        name: String,
        /// The constant value.
        tensor: Tensor,
    },
    /// Produced by a node at runtime.
    Activation {
        /// Display name.
        name: String,
        /// Inferred shape.
        shape: Shape,
        /// Runtime dtype.
        dtype: DType,
        /// Quantization parameters for quantized activations.
        quant: Option<QuantParams>,
    },
}

impl TensorDef {
    /// Display name of the slot.
    pub fn name(&self) -> &str {
        match self {
            TensorDef::Input { name, .. }
            | TensorDef::Constant { name, .. }
            | TensorDef::Activation { name, .. } => name,
        }
    }

    /// Shape of the slot.
    pub fn shape(&self) -> &Shape {
        match self {
            TensorDef::Input { shape, .. } | TensorDef::Activation { shape, .. } => shape,
            TensorDef::Constant { tensor, .. } => tensor.shape(),
        }
    }

    /// Dtype of the slot.
    pub fn dtype(&self) -> DType {
        match self {
            TensorDef::Input { dtype, .. } | TensorDef::Activation { dtype, .. } => *dtype,
            TensorDef::Constant { tensor, .. } => tensor.dtype(),
        }
    }

    /// Quantization parameters of the slot, if any.
    pub fn quant(&self) -> Option<&QuantParams> {
        match self {
            TensorDef::Input { quant, .. } | TensorDef::Activation { quant, .. } => quant.as_ref(),
            TensorDef::Constant { tensor, .. } => tensor.quant(),
        }
    }

    /// The constant tensor, when this slot is a constant.
    pub fn as_constant(&self) -> Option<&Tensor> {
        match self {
            TensorDef::Constant { tensor, .. } => Some(tensor),
            _ => None,
        }
    }
}

/// One operation in the dataflow graph. Nodes are stored in topological
/// (execution) order and produce exactly one output tensor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Display name ("conv1", "block3/se/pool", ...).
    pub name: String,
    /// The operation.
    pub op: OpKind,
    /// Input tensor slots (data inputs first, then weights/bias).
    pub inputs: Vec<TensorId>,
    /// Output tensor slot.
    pub output: TensorId,
}

/// An immutable dataflow graph: tensors, topologically ordered nodes, and
/// designated input/output slots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Graph {
    name: String,
    tensors: Vec<TensorDef>,
    nodes: Vec<Node>,
    inputs: Vec<TensorId>,
    outputs: Vec<TensorId>,
}

impl Graph {
    /// Graph display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All tensor slots.
    pub fn tensors(&self) -> &[TensorDef] {
        &self.tensors
    }

    /// The slot behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (ids are only minted by the builder).
    pub fn tensor(&self, id: TensorId) -> &TensorDef {
        &self.tensors[id.0]
    }

    /// Nodes in execution order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Graph input slots.
    pub fn inputs(&self) -> &[TensorId] {
        &self.inputs
    }

    /// Graph output slots.
    pub fn outputs(&self) -> &[TensorId] {
        &self.outputs
    }

    /// How `inputs` fail to fit the graph's inputs — as many tensors, each
    /// of its input's per-frame shape and dtype — or `None` when they fit:
    /// the rule an interpreter applies to every frame it runs, and serving
    /// admission to every request before it joins a batch.
    pub fn input_mismatch(&self, inputs: &[Tensor]) -> Option<String> {
        if inputs.len() != self.inputs.len() {
            return Some(format!(
                "expected {} inputs, got {}",
                self.inputs.len(),
                inputs.len()
            ));
        }
        self.inputs.iter().zip(inputs).find_map(|(&id, t)| {
            let def = self.tensor(id);
            if def.shape() != t.shape() {
                Some(format!(
                    "input '{}' expects shape {}, got {}",
                    def.name(),
                    def.shape(),
                    t.shape()
                ))
            } else if def.dtype() != t.dtype() {
                Some(format!(
                    "input '{}' expects {:?}, got {:?}",
                    def.name(),
                    def.dtype(),
                    t.dtype()
                ))
            } else {
                None
            }
        })
    }

    /// Number of nodes ("layers" in the paper's Tables 3/5 counting).
    pub fn layer_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total number of weight elements across all constants.
    pub fn param_count(&self) -> usize {
        self.tensors
            .iter()
            .filter_map(TensorDef::as_constant)
            .map(Tensor::len)
            .sum()
    }

    /// Total byte size of all constants (the model file footprint).
    pub fn param_bytes(&self) -> usize {
        self.tensors
            .iter()
            .filter_map(TensorDef::as_constant)
            .map(Tensor::byte_size)
            .sum()
    }

    /// Multiply-accumulate estimate for a node, used by the device simulator's
    /// latency cost model.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node_macs(&self, id: NodeId) -> u64 {
        let node = &self.nodes[id.0];
        let out_elems = self.tensor(node.output).shape().num_elements() as u64;
        match &node.op {
            OpKind::Conv2d { .. } => {
                let w = self.tensor(node.inputs[1]).shape();
                out_elems * (w.dims()[1] * w.dims()[2] * w.dims()[3]) as u64
            }
            OpKind::DepthwiseConv2d { .. } => {
                let w = self.tensor(node.inputs[1]).shape();
                out_elems * (w.dims()[1] * w.dims()[2]) as u64
            }
            OpKind::FullyConnected { .. } => {
                let w = self.tensor(node.inputs[1]).shape();
                out_elems * w.dims()[1] as u64
            }
            OpKind::MatMul { .. } => {
                let a = self.tensor(node.inputs[0]).shape();
                out_elems * a.dims()[a.rank() - 1] as u64
            }
            OpKind::AveragePool2d { pool_h, pool_w, .. }
            | OpKind::MaxPool2d { pool_h, pool_w, .. } => out_elems * (pool_h * pool_w) as u64,
            OpKind::Mean => self.tensor(node.inputs[0]).shape().num_elements() as u64,
            _ => out_elems,
        }
    }

    /// Sum of [`Graph::node_macs`] over all nodes.
    pub fn total_macs(&self) -> u64 {
        (0..self.nodes.len())
            .map(|i| self.node_macs(NodeId(i)))
            .sum()
    }

    /// Finds a node by display name.
    pub fn node_by_name(&self, name: &str) -> Option<(NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .find(|(_, n)| n.name == name)
            .map(|(i, n)| (NodeId(i), n))
    }

    /// Mutable node access for in-crate rewrite passes (conversion).
    pub(crate) fn nodes_mut(&mut self) -> &mut Vec<Node> {
        &mut self.nodes
    }

    /// Replaces the value of a constant slot (weight updates during training,
    /// loading pre-trained weights). The new tensor must match the old
    /// tensor's shape and dtype.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidGraph`] if `id` is not a constant or the
    /// replacement is shape/dtype-incompatible.
    pub fn set_constant(&mut self, id: TensorId, tensor: Tensor) -> Result<()> {
        let def = self
            .tensors
            .get_mut(id.0)
            .ok_or_else(|| NnError::InvalidGraph(format!("no tensor slot {}", id.0)))?;
        match def {
            TensorDef::Constant { name, tensor: old } => {
                if old.shape() != tensor.shape() || old.dtype() != tensor.dtype() {
                    return Err(NnError::InvalidGraph(format!(
                        "constant '{name}' replacement must keep shape {} and dtype {:?}",
                        old.shape(),
                        old.dtype()
                    )));
                }
                *old = tensor;
                Ok(())
            }
            other => Err(NnError::InvalidGraph(format!(
                "tensor '{}' is not a constant",
                other.name()
            ))),
        }
    }

    /// Splits every fused activation into a standalone `Act` node, leaving
    /// the producing op linear. Training uses this view so pre-activation
    /// values materialize as node outputs (needed for exact gradients of
    /// non-monotonic activations like hard-swish). Constant slot ids are
    /// preserved, so weights trained on the split graph can be copied back
    /// to the original by id.
    pub fn split_fused_activations(&self) -> Graph {
        let mut g = self.clone();
        let mut new_nodes: Vec<Node> = Vec::with_capacity(g.nodes.len());
        let old_nodes = std::mem::take(&mut g.nodes);
        for mut node in old_nodes {
            let act = node.op.fused_activation().unwrap_or(Activation::None);
            if act == Activation::None {
                new_nodes.push(node);
                continue;
            }
            // Rewrite the op to be linear, writing to a fresh pre-act slot.
            match &mut node.op {
                OpKind::Conv2d { activation, .. }
                | OpKind::DepthwiseConv2d { activation, .. }
                | OpKind::FullyConnected { activation }
                | OpKind::Add { activation } => *activation = Activation::None,
                _ => {}
            }
            let final_out = node.output;
            let out_def = &g.tensors[final_out.0];
            let pre = TensorDef::Activation {
                name: format!("{}:pre_act", node.name),
                shape: out_def.shape().clone(),
                dtype: out_def.dtype(),
                quant: out_def.quant().cloned(),
            };
            g.tensors.push(pre);
            let pre_id = TensorId(g.tensors.len() - 1);
            node.output = pre_id;
            let act_node = Node {
                name: format!("{}:act", node.name),
                op: OpKind::Act(act),
                inputs: vec![pre_id],
                output: final_out,
            };
            new_nodes.push(node);
            new_nodes.push(act_node);
        }
        g.nodes = new_nodes;
        g
    }

    /// Mutable tensor-slot access for in-crate rewrite passes.
    pub(crate) fn tensors_mut(&mut self) -> &mut Vec<TensorDef> {
        &mut self.tensors
    }

    /// Renames the graph (used when conversion derives a new variant).
    pub(crate) fn set_name(&mut self, name: String) {
        self.name = name;
    }

    /// Checks structural invariants by delegating to the static analyzer's
    /// structure pass (`EX001`–`EX010`): non-empty interface, slot indices
    /// in range, topological order (every node input defined before use),
    /// single writer per activation, nodes writing only activation slots,
    /// every graph output produced by a node, unique tensor/node names, and
    /// slots whose byte size is a `usize`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidGraph`] describing the first violation
    /// (the full list is available from [`crate::analysis::analyze`]).
    pub fn validate(&self) -> Result<()> {
        crate::analysis::structural_error(self)
    }

    /// Drops every tensor slot no node, graph input or graph output
    /// references, remapping ids. In-crate rewrite passes (conversion,
    /// fusion) orphan slots when they rewire producers; compacting keeps
    /// the hygiene lints meaningful on derived graphs.
    pub(crate) fn compact_tensors(&mut self) {
        let mut used = vec![false; self.tensors.len()];
        let mut mark = |id: &TensorId| {
            if id.0 < used.len() {
                used[id.0] = true;
            }
        };
        self.inputs.iter().for_each(&mut mark);
        self.outputs.iter().for_each(&mut mark);
        for node in &self.nodes {
            node.inputs.iter().for_each(&mut mark);
            mark(&node.output);
        }
        if used.iter().all(|&u| u) {
            return;
        }
        let mut remap = vec![usize::MAX; self.tensors.len()];
        let mut kept = Vec::with_capacity(self.tensors.len());
        for (i, def) in std::mem::take(&mut self.tensors).into_iter().enumerate() {
            if used[i] {
                remap[i] = kept.len();
                kept.push(def);
            }
        }
        self.tensors = kept;
        let apply = |id: &mut TensorId| id.0 = remap[id.0];
        self.inputs.iter_mut().for_each(apply);
        self.outputs.iter_mut().for_each(apply);
        for node in &mut self.nodes {
            node.inputs.iter_mut().for_each(apply);
            apply(&mut node.output);
        }
    }
}

/// Incremental [`Graph`] constructor with builder-side shape inference.
///
/// Every typed method derives its output's shape and dtype from the one
/// per-op rule the lint's shape pass (`EX101`–`EX104`) checks graphs
/// against, and returns [`NnError::InvalidOp`], in the lint's wording, for
/// operands that rule refuses.
///
/// # Example
///
/// ```
/// use mlexray_nn::{GraphBuilder, Activation, Padding};
/// use mlexray_tensor::{Shape, Tensor};
///
/// let mut b = GraphBuilder::new("tiny");
/// let x = b.input("image", Shape::nhwc(1, 4, 4, 3));
/// let w = b.constant("w", Tensor::zeros(mlexray_tensor::DType::F32, Shape::new(vec![8, 3, 3, 3])));
/// let y = b.conv2d("conv", x, w, None, 1, Padding::Same, Activation::Relu6)?;
/// b.output(y);
/// let graph = b.finish()?;
/// assert_eq!(graph.layer_count(), 1);
/// # Ok::<(), mlexray_nn::NnError>(())
/// ```
#[derive(Debug)]
pub struct GraphBuilder {
    graph: Graph,
}

impl GraphBuilder {
    /// Starts building a graph with the given display name.
    pub fn new(name: impl Into<String>) -> Self {
        GraphBuilder {
            graph: Graph {
                name: name.into(),
                tensors: Vec::new(),
                nodes: Vec::new(),
                inputs: Vec::new(),
                outputs: Vec::new(),
            },
        }
    }

    fn push_tensor(&mut self, def: TensorDef) -> TensorId {
        self.graph.tensors.push(def);
        TensorId(self.graph.tensors.len() - 1)
    }

    /// Shape of an already-registered tensor.
    pub fn shape_of(&self, id: TensorId) -> &Shape {
        self.graph.tensor(id).shape()
    }

    /// Dtype of an already-registered tensor.
    pub fn dtype_of(&self, id: TensorId) -> DType {
        self.graph.tensor(id).dtype()
    }

    /// Registers a float graph input.
    pub fn input(&mut self, name: impl Into<String>, shape: Shape) -> TensorId {
        self.input_typed(name, shape, DType::F32, None)
    }

    /// Registers a graph input with explicit dtype and quantization.
    pub fn input_typed(
        &mut self,
        name: impl Into<String>,
        shape: Shape,
        dtype: DType,
        quant: Option<QuantParams>,
    ) -> TensorId {
        let id = self.push_tensor(TensorDef::Input {
            name: name.into(),
            shape,
            dtype,
            quant,
        });
        self.graph.inputs.push(id);
        id
    }

    /// Registers a constant (weights/bias) tensor.
    pub fn constant(&mut self, name: impl Into<String>, tensor: Tensor) -> TensorId {
        self.push_tensor(TensorDef::Constant {
            name: name.into(),
            tensor,
        })
    }

    /// Marks a tensor as a graph output.
    pub fn output(&mut self, id: TensorId) {
        self.graph.outputs.push(id);
    }

    /// Low-level node insertion with an explicit output definition, which
    /// nothing derives or checks: hand-built kernel fixtures (the golden
    /// suite's among them) declare exactly the output they test, and tests
    /// build the mis-declared graphs the lint must catch. The typed methods
    /// below derive theirs from the op rule instead.
    pub fn push_node(
        &mut self,
        name: impl Into<String>,
        op: OpKind,
        inputs: Vec<TensorId>,
        out_shape: Shape,
        out_dtype: DType,
        out_quant: Option<QuantParams>,
    ) -> TensorId {
        let name = name.into();
        let out = self.push_tensor(TensorDef::Activation {
            name: format!("{name}:out"),
            shape: out_shape,
            dtype: out_dtype,
            quant: out_quant,
        });
        self.graph.nodes.push(Node {
            name,
            op,
            inputs,
            output: out,
        });
        out
    }

    /// Adds a node whose output shape and dtype the op rule derives from
    /// `inputs` — the same rule the lint's shape pass checks graphs
    /// against. Every typed method below and the quantizer add their nodes
    /// through it; `quant` is the output's quantization.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidOp`], in the lint's wording, when the
    /// operands break the op's contract.
    pub(crate) fn push_op(
        &mut self,
        name: impl Into<String>,
        op: OpKind,
        inputs: Vec<TensorId>,
        quant: Option<QuantParams>,
    ) -> Result<TensorId> {
        let name = name.into();
        let operands: Vec<&TensorDef> = inputs.iter().map(|&id| self.graph.tensor(id)).collect();
        match op.infer_output(&operands) {
            Ok((shape, dtype)) => Ok(self.push_node(name, op, inputs, shape, dtype, quant)),
            Err((_, _, reason)) => Err(NnError::InvalidOp { node: name, reason }),
        }
    }

    /// Adds a 2-D convolution. `weights` must be `[out_c, kh, kw, in_c]`;
    /// `bias`, when present, `[out_c]`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidOp`] on rank/channel mismatches, a zero
    /// stride, a kernel larger than a `Valid`-padded input, or `input` data
    /// that is neither `f32` nor `u8`.
    #[allow(clippy::too_many_arguments)]
    pub fn conv2d(
        &mut self,
        name: impl Into<String>,
        input: TensorId,
        weights: TensorId,
        bias: Option<TensorId>,
        stride: usize,
        padding: Padding,
        activation: Activation,
    ) -> Result<TensorId> {
        let op = OpKind::Conv2d {
            stride,
            padding,
            activation,
        };
        let inputs = [input, weights].into_iter().chain(bias).collect();
        self.push_op(name, op, inputs, None)
    }

    /// Adds a depthwise 2-D convolution. `weights` must be `[1, kh, kw, c]`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidOp`] on rank/channel mismatches, a zero
    /// stride, a kernel larger than a `Valid`-padded input, or `input` data
    /// that is neither `f32` nor `u8`.
    #[allow(clippy::too_many_arguments)]
    pub fn depthwise_conv2d(
        &mut self,
        name: impl Into<String>,
        input: TensorId,
        weights: TensorId,
        bias: Option<TensorId>,
        stride: usize,
        padding: Padding,
        activation: Activation,
    ) -> Result<TensorId> {
        let op = OpKind::DepthwiseConv2d {
            stride,
            padding,
            activation,
        };
        let inputs = [input, weights].into_iter().chain(bias).collect();
        self.push_op(name, op, inputs, None)
    }

    /// Adds a fully connected layer. Input must be `[n, in]`; weights
    /// `[out, in]`; bias `[out]`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidOp`] on rank/size mismatches or `input`
    /// data that is neither `f32` nor `u8`.
    pub fn fully_connected(
        &mut self,
        name: impl Into<String>,
        input: TensorId,
        weights: TensorId,
        bias: Option<TensorId>,
        activation: Activation,
    ) -> Result<TensorId> {
        let inputs = [input, weights].into_iter().chain(bias).collect();
        self.push_op(name, OpKind::FullyConnected { activation }, inputs, None)
    }

    /// Adds an average-pooling layer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidOp`] on invalid windows, non-4D inputs or
    /// `input` data that is neither `f32` nor `u8`.
    pub fn avg_pool2d(
        &mut self,
        name: impl Into<String>,
        input: TensorId,
        pool_h: usize,
        pool_w: usize,
        stride: usize,
        padding: Padding,
    ) -> Result<TensorId> {
        let op = OpKind::AveragePool2d {
            pool_h,
            pool_w,
            stride,
            padding,
        };
        self.push_op(name, op, vec![input], None)
    }

    /// Adds a global average pool implemented as `AveragePool2d` spanning the
    /// whole feature map (MobileNet v3 squeeze-excite style), output
    /// `[n, 1, 1, c]`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidOp`] for non-4D inputs or `input` data that
    /// is neither `f32` nor `u8`.
    pub fn avg_pool_global(
        &mut self,
        name: impl Into<String>,
        input: TensorId,
    ) -> Result<TensorId> {
        // A non-4D input gets an empty window, which the rule refuses by rank.
        let (h, w) = match *self.shape_of(input).dims() {
            [_, h, w, _] => (h, w),
            _ => (0, 0),
        };
        self.avg_pool2d(name, input, h, w, 1, Padding::Valid)
    }

    /// Adds a max-pooling layer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidOp`] on invalid windows, non-4D inputs or
    /// `input` data that is neither `f32` nor `u8`.
    pub fn max_pool2d(
        &mut self,
        name: impl Into<String>,
        input: TensorId,
        pool_h: usize,
        pool_w: usize,
        stride: usize,
        padding: Padding,
    ) -> Result<TensorId> {
        let op = OpKind::MaxPool2d {
            pool_h,
            pool_w,
            stride,
            padding,
        };
        self.push_op(name, op, vec![input], None)
    }

    /// Adds a global reduce-mean (`Mean` op), `[n, ..., c] → [n, c]`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidOp`] for inputs of rank < 2 or data that is
    /// neither `f32` nor `u8`.
    pub fn mean(&mut self, name: impl Into<String>, input: TensorId) -> Result<TensorId> {
        self.push_op(name, OpKind::Mean, vec![input], None)
    }

    /// Adds element-wise addition. `rhs` may have the same shape as `lhs` or
    /// broadcast from a trailing-suffix shape (e.g. `[l, d]` onto `[n, l, d]`).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidOp`] on incompatible shapes or `lhs` data
    /// that is neither `f32` nor `u8`.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        lhs: TensorId,
        rhs: TensorId,
        activation: Activation,
    ) -> Result<TensorId> {
        self.push_op(name, OpKind::Add { activation }, vec![lhs, rhs], None)
    }

    /// Adds element-wise multiplication. `rhs` may equal `lhs` in shape, be a
    /// scalar, or be an `[n, 1, 1, c]` gate against an `[n, h, w, c]` input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidOp`] on incompatible shapes or `lhs` data
    /// that is neither `f32` nor `u8`.
    pub fn mul(
        &mut self,
        name: impl Into<String>,
        lhs: TensorId,
        rhs: TensorId,
    ) -> Result<TensorId> {
        self.push_op(name, OpKind::Mul, vec![lhs, rhs], None)
    }

    /// Adds concatenation along `axis`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidOp`] for no inputs, an axis out of range,
    /// shapes that disagree off-axis, or first-input data that is neither
    /// `f32` nor `u8`.
    pub fn concat(
        &mut self,
        name: impl Into<String>,
        inputs: &[TensorId],
        axis: usize,
    ) -> Result<TensorId> {
        self.push_op(name, OpKind::Concat { axis }, inputs.to_vec(), None)
    }

    /// Adds zero padding of the spatial axes of an NHWC tensor.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidOp`] for non-4D inputs, padded sizes that
    /// overflow `usize`, or `input` data that is neither `f32` nor `u8`.
    pub fn pad(
        &mut self,
        name: impl Into<String>,
        input: TensorId,
        top: usize,
        bottom: usize,
        left: usize,
        right: usize,
    ) -> Result<TensorId> {
        let op = OpKind::Pad {
            top,
            bottom,
            left,
            right,
        };
        self.push_op(name, op, vec![input], None)
    }

    /// Adds softmax over the last axis.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidOp`] unless `input` is `f32`: softmax has
    /// no quantized kernel (`u8` data is dequantized first).
    pub fn softmax(&mut self, name: impl Into<String>, input: TensorId) -> Result<TensorId> {
        self.push_op(name, OpKind::Softmax, vec![input], None)
    }

    /// Adds a standalone activation node (checkpoint-style graphs keep these
    /// unfused; conversion fuses them into the preceding op).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidOp`] for `input` data that is neither `f32`
    /// nor `u8`.
    pub fn activation(
        &mut self,
        name: impl Into<String>,
        input: TensorId,
        act: Activation,
    ) -> Result<TensorId> {
        self.push_op(name, OpKind::Act(act), vec![input], None)
    }

    /// Adds inference-style batch normalization with constant
    /// `gamma, beta, mean, variance` vectors over the channel axis.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidOp`] if `input` is not `f32` or has rank 0,
    /// or the vectors don't match its channel count.
    #[allow(clippy::too_many_arguments)]
    pub fn batch_norm(
        &mut self,
        name: impl Into<String>,
        input: TensorId,
        gamma: TensorId,
        beta: TensorId,
        mean: TensorId,
        variance: TensorId,
        epsilon: f32,
    ) -> Result<TensorId> {
        let inputs = vec![input, gamma, beta, mean, variance];
        self.push_op(name, OpKind::BatchNorm { epsilon }, inputs, None)
    }

    /// Adds layer normalization over the last axis with `gamma, beta`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidOp`] if `input` is not `f32` or has rank 0,
    /// or the vectors don't match its last axis.
    pub fn layer_norm(
        &mut self,
        name: impl Into<String>,
        input: TensorId,
        gamma: TensorId,
        beta: TensorId,
        epsilon: f32,
    ) -> Result<TensorId> {
        let inputs = vec![input, gamma, beta];
        self.push_op(name, OpKind::LayerNorm { epsilon }, inputs, None)
    }

    /// Adds a 2-D matrix multiplication.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidOp`] on rank or inner-dimension mismatches,
    /// or when `a` or `b` is not `f32`.
    pub fn matmul(
        &mut self,
        name: impl Into<String>,
        a: TensorId,
        b: TensorId,
        transpose_b: bool,
    ) -> Result<TensorId> {
        self.push_op(name, OpKind::MatMul { transpose_b }, vec![a, b], None)
    }

    /// Adds an embedding lookup: `i32` ids `[n, l]` + table `[v, d]`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidOp`] on rank mismatches, `ids` that are not
    /// `i32`, or a `table` that is not `f32`.
    pub fn embedding(
        &mut self,
        name: impl Into<String>,
        ids: TensorId,
        table: TensorId,
    ) -> Result<TensorId> {
        self.push_op(name, OpKind::Embedding, vec![ids, table], None)
    }

    /// Adds a reshape to explicit target dims. The output keeps `input`'s
    /// dtype and quantization.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidOp`] if element counts differ, including a
    /// target whose element count overflows `usize`.
    pub fn reshape(
        &mut self,
        name: impl Into<String>,
        input: TensorId,
        dims: Vec<usize>,
    ) -> Result<TensorId> {
        let quant = self.graph.tensor(input).quant().cloned();
        self.push_op(name, OpKind::Reshape { dims }, vec![input], quant)
    }

    /// Finalizes and validates the graph.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidGraph`] if validation fails.
    pub fn finish(self) -> Result<Graph> {
        self.graph.validate()?;
        Ok(self.graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zeros(shape: Shape) -> Tensor {
        Tensor::zeros(DType::F32, shape)
    }

    #[test]
    fn builder_infers_conv_shapes() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", Shape::nhwc(1, 8, 8, 3));
        let w = b.constant("w", zeros(Shape::new(vec![16, 3, 3, 3])));
        let y = b
            .conv2d("c", x, w, None, 2, Padding::Same, Activation::Relu6)
            .unwrap();
        assert_eq!(b.shape_of(y).dims(), &[1, 4, 4, 16]);
    }

    /// A call that breaks an op's contract is an `Err`, never a panic.
    #[test]
    fn conv_channel_mismatch_rejected() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", Shape::nhwc(1, 8, 8, 3));
        let w = b.constant("w", zeros(Shape::new(vec![16, 3, 3, 4])));
        assert!(b
            .conv2d("c", x, w, None, 1, Padding::Same, Activation::None)
            .is_err());

        let s = b.input("s", Shape::scalar());
        let v = b.constant("v", Tensor::scalar_f32(1.0));
        assert!(b.batch_norm("bn", s, v, v, v, v, 1e-3).is_err());
        assert!(b.layer_norm("ln", s, v, v, 1e-3).is_err());
        let ids = b.input_typed("ids", Shape::matrix(1, 2), DType::I32, None);
        let table = b.constant("table", Tensor::zeros(DType::I32, Shape::matrix(4, 3)));
        assert!(b.embedding("emb", ids, table).is_err());
        let table = b.constant("table_f32", zeros(Shape::matrix(4, 3)));
        assert_eq!(
            b.embedding("ok", ids, table).map(|y| b.dtype_of(y)),
            Ok(DType::F32)
        );
    }

    #[test]
    fn mean_reduces_to_batch_channels() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", Shape::nhwc(2, 8, 8, 5));
        let y = b.mean("m", x).unwrap();
        assert_eq!(b.shape_of(y).dims(), &[2, 5]);
    }

    #[test]
    fn concat_sums_axis() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", Shape::nhwc(1, 4, 4, 3));
        let y = b.input("y", Shape::nhwc(1, 4, 4, 5));
        let z = b.concat("cat", &[x, y], 3).unwrap();
        assert_eq!(b.shape_of(z).dims(), &[1, 4, 4, 8]);
        assert!(b.concat("bad", &[x, y], 1).is_err());
    }

    #[test]
    fn global_avg_pool_spans_input() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", Shape::nhwc(1, 7, 5, 8));
        let y = b.avg_pool_global("gap", x).unwrap();
        assert_eq!(b.shape_of(y).dims(), &[1, 1, 1, 8]);
    }

    #[test]
    fn finish_validates() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", Shape::nhwc(1, 4, 4, 3));
        let y = b.softmax("s", x).unwrap();
        b.output(y);
        let g = b.finish().unwrap();
        assert_eq!(g.layer_count(), 1);

        let b2 = GraphBuilder::new("empty");
        assert!(b2.finish().is_err());
    }

    #[test]
    fn param_and_mac_counting() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", Shape::nhwc(1, 8, 8, 3));
        let w = b.constant("w", zeros(Shape::new(vec![4, 3, 3, 3])));
        let bias = b.constant("b", zeros(Shape::vector(4)));
        let y = b
            .conv2d("c", x, w, Some(bias), 1, Padding::Same, Activation::None)
            .unwrap();
        b.output(y);
        let g = b.finish().unwrap();
        assert_eq!(g.param_count(), 4 * 3 * 3 * 3 + 4);
        // 8x8x4 outputs, 3*3*3 macs each.
        assert_eq!(g.node_macs(NodeId(0)), (8 * 8 * 4 * 27) as u64);
        assert_eq!(g.total_macs(), (8 * 8 * 4 * 27) as u64);
    }

    #[test]
    fn add_broadcast_rules() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", Shape::new(vec![1, 6, 8]));
        let pos = b.constant("pos", zeros(Shape::matrix(6, 8)));
        assert!(b.add("ok", x, pos, Activation::None).is_ok());
        let bad = b.constant("bad", zeros(Shape::matrix(5, 8)));
        assert!(b.add("bad", x, bad, Activation::None).is_err());
    }

    #[test]
    fn mul_gate_rules() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", Shape::nhwc(1, 4, 4, 8));
        let gate = b.input("g", Shape::nhwc(1, 1, 1, 8));
        assert!(b.mul("se", x, gate).is_ok());
        let scalar = b.constant("s", Tensor::scalar_f32(0.5));
        assert!(b.mul("scale", x, scalar).is_ok());
        let bad = b.input("b", Shape::nhwc(1, 2, 2, 8));
        assert!(b.mul("bad", x, bad).is_err());
    }

    #[test]
    fn validate_catches_use_before_def() {
        // Hand-assemble a malformed graph: node consumes the activation it
        // produces.
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", Shape::vector(4));
        let y = b.softmax("s", x).unwrap();
        b.output(y);
        let mut g = b.finish().unwrap();
        g.nodes[0].inputs = vec![g.nodes[0].output];
        assert!(g.validate().is_err());
    }
}
