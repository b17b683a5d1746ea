//! Graph-level bug injection for proving lint coverage.
//!
//! Each [`GraphMutation`] plants exactly one bug class into a clean graph —
//! the static-analysis counterpart of the `KernelBug` machinery the golden
//! and differential suites use at runtime. The lint suite applies every
//! mutation to every zoo model it fits and asserts the analyzer reports the
//! mutation's [`GraphMutation::expected_code`]; a lint that stops firing on
//! its own bug class fails the suite, not a user.
//!
//! Mutations are deliberately *minimal*: they corrupt one declaration and
//! leave the rest of the graph intact, so a finding anywhere else is a
//! false positive the suite would also catch. The operand mutations
//! (`RankZeroNorm`, `PadOverflow`, `ReshapeOverflow`) append one node whose
//! op breaks its contract over a fresh constant: inputs that once panicked
//! or wrapped inside the analyzer, which must answer them with `EX103`.

use mlexray_tensor::{QuantParams, Shape, Tensor};

use crate::graph::{Graph, Node, TensorDef, TensorId};
use crate::ops::{Activation, OpKind};

use super::LintCode;

/// One injectable bug class, mapped to the lint code that must catch it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphMutation {
    /// Set a quantized tensor's scale to a non-positive value.
    CorruptQuantScale,
    /// Move a `u8` tensor's zero point outside `[0, 255]`.
    CorruptZeroPoint,
    /// Strip a quantized tensor's parameters entirely.
    DropQuantParams,
    /// Declare an output shape the op semantics cannot produce.
    ShapeMismatch,
    /// Declare an output dtype the op semantics cannot produce.
    DTypeMismatch,
    /// Add an activation slot nothing ever consumes.
    DeadActivation,
    /// Add a constant no node references.
    UnusedConstant,
    /// Append a node no graph output depends on.
    UnreachableNode,
    /// Give two tensor slots the same display name.
    DuplicateTensorName,
    /// Append a batch norm whose data operand has rank 0 (no channel axis).
    RankZeroNorm,
    /// Append a pad whose padded height overflows `usize`.
    PadOverflow,
    /// Append a reshape whose target element count overflows `usize`.
    ReshapeOverflow,
}

impl GraphMutation {
    /// Every mutation class, in declaration order.
    pub const ALL: &'static [GraphMutation] = &[
        GraphMutation::CorruptQuantScale,
        GraphMutation::CorruptZeroPoint,
        GraphMutation::DropQuantParams,
        GraphMutation::ShapeMismatch,
        GraphMutation::DTypeMismatch,
        GraphMutation::DeadActivation,
        GraphMutation::UnusedConstant,
        GraphMutation::UnreachableNode,
        GraphMutation::DuplicateTensorName,
        GraphMutation::RankZeroNorm,
        GraphMutation::PadOverflow,
        GraphMutation::ReshapeOverflow,
    ];

    /// The lint code that must flag this mutation.
    pub fn expected_code(self) -> LintCode {
        match self {
            GraphMutation::CorruptQuantScale => LintCode::InvalidScale,
            GraphMutation::CorruptZeroPoint => LintCode::InvalidZeroPoint,
            GraphMutation::DropQuantParams => LintCode::MissingQuantParams,
            GraphMutation::ShapeMismatch => LintCode::ShapeMismatch,
            GraphMutation::DTypeMismatch => LintCode::DTypeMismatch,
            GraphMutation::DeadActivation => LintCode::DeadActivation,
            GraphMutation::UnusedConstant => LintCode::UnusedConstant,
            GraphMutation::UnreachableNode => LintCode::UnreachableNode,
            GraphMutation::DuplicateTensorName => LintCode::DuplicateTensorName,
            GraphMutation::RankZeroNorm
            | GraphMutation::PadOverflow
            | GraphMutation::ReshapeOverflow => LintCode::OperandInvalid,
        }
    }

    /// Applies the mutation to a copy of `graph`, or `None` when the graph
    /// offers no site for it (e.g. quantization mutations on a float graph).
    pub fn apply(self, graph: &Graph) -> Option<Graph> {
        let mut g = graph.clone();
        match self {
            GraphMutation::CorruptQuantScale => {
                let def = first_runtime_quant(&mut g)?;
                match runtime_quant_mut(def).expect("selected a tensor with params") {
                    QuantParams::PerTensor { scale, .. } => *scale = -1.0,
                    QuantParams::PerChannel { scales, .. } => scales[0] = f32::NAN,
                }
            }
            GraphMutation::CorruptZeroPoint => {
                let def = first_runtime_quant(&mut g)?;
                match runtime_quant_mut(def).expect("selected a tensor with params") {
                    QuantParams::PerTensor { zero_point, .. } => *zero_point = 999,
                    QuantParams::PerChannel { zero_points, .. } => zero_points[0] = 999,
                }
            }
            GraphMutation::DropQuantParams => {
                let def = first_runtime_quant(&mut g)?;
                match def {
                    TensorDef::Input { quant, .. } | TensorDef::Activation { quant, .. } => {
                        *quant = None
                    }
                    TensorDef::Constant { .. } => unreachable!("runtime tensors only"),
                }
            }
            GraphMutation::ShapeMismatch => {
                let out = g.nodes().last()?.output;
                match &mut g.tensors_mut()[out.0] {
                    TensorDef::Activation { shape, .. } => {
                        let mut dims = shape.dims().to_vec();
                        *dims.last_mut()? += 1;
                        *shape = Shape::new(dims);
                    }
                    _ => return None,
                }
            }
            GraphMutation::DTypeMismatch => {
                let out = g.nodes().last()?.output;
                match &mut g.tensors_mut()[out.0] {
                    TensorDef::Activation { dtype, quant, .. } => {
                        use mlexray_tensor::DType;
                        *dtype = if *dtype == DType::I32 {
                            DType::F32
                        } else {
                            DType::I32
                        };
                        // Keep the bug to one declaration: no stray params
                        // on the flipped dtype.
                        *quant = None;
                    }
                    _ => return None,
                }
            }
            GraphMutation::DeadActivation => {
                let template = g.tensor(*g.inputs().first()?).shape().clone();
                g.tensors_mut().push(TensorDef::Activation {
                    name: "lint:dead".into(),
                    shape: template,
                    dtype: mlexray_tensor::DType::F32,
                    quant: None,
                });
            }
            GraphMutation::UnusedConstant => {
                g.tensors_mut().push(TensorDef::Constant {
                    name: "lint:unused".into(),
                    tensor: Tensor::filled_f32(Shape::vector(4), 0.0),
                });
            }
            GraphMutation::UnreachableNode => {
                let input = *g.inputs().first()?;
                let def = g.tensor(input);
                let (shape, dtype, quant) =
                    (def.shape().clone(), def.dtype(), def.quant().cloned());
                let out = TensorId(g.tensors().len());
                g.tensors_mut().push(TensorDef::Activation {
                    name: "lint:unreachable_out".into(),
                    shape,
                    dtype,
                    quant,
                });
                g.nodes_mut().push(Node {
                    name: "lint:unreachable".into(),
                    op: OpKind::Act(Activation::Relu),
                    inputs: vec![input],
                    output: out,
                });
            }
            GraphMutation::DuplicateTensorName => {
                if g.tensors().len() < 2 {
                    return None;
                }
                let stolen = g.tensors()[0].name().to_string();
                match &mut g.tensors_mut()[1] {
                    TensorDef::Input { name, .. }
                    | TensorDef::Constant { name, .. }
                    | TensorDef::Activation { name, .. } => *name = stolen,
                }
            }
            GraphMutation::RankZeroNorm => {
                let x = Tensor::scalar_f32(1.0);
                let op = OpKind::BatchNorm { epsilon: 1e-3 };
                append_over_constant(&mut g, "lint:rank0_norm", x, op, 5, Shape::scalar());
            }
            GraphMutation::PadOverflow => {
                let x = Tensor::filled_f32(Shape::nhwc(1, 1, 1, 1), 0.0);
                let op = OpKind::Pad {
                    top: usize::MAX,
                    bottom: 1,
                    left: 0,
                    right: 0,
                };
                // The declared output is what a wrapping sum would infer.
                append_over_constant(&mut g, "lint:pad", x, op, 1, Shape::nhwc(1, 1, 1, 1));
            }
            GraphMutation::ReshapeOverflow => {
                let x = Tensor::filled_f32(Shape::vector(1), 0.0);
                let op = OpKind::Reshape {
                    dims: vec![1 << 40, 1 << 40],
                };
                append_over_constant(&mut g, "lint:reshape", x, op, 1, Shape::vector(1));
            }
        }
        Some(g)
    }
}

/// Appends a node `name` running `op` over a fresh constant `data`, passed
/// as each of its `arity` operands, with a declared `f32` output of shape
/// `out`. The op or its operand breaks the contract, not the declaration.
fn append_over_constant(
    g: &mut Graph,
    name: &str,
    data: Tensor,
    op: OpKind,
    arity: usize,
    out: Shape,
) {
    let x = TensorId(g.tensors().len());
    g.tensors_mut().push(TensorDef::Constant {
        name: format!("{name}:in"),
        tensor: data,
    });
    g.tensors_mut().push(TensorDef::Activation {
        name: format!("{name}:out"),
        shape: out,
        dtype: mlexray_tensor::DType::F32,
        quant: None,
    });
    g.nodes_mut().push(Node {
        name: name.into(),
        op,
        inputs: vec![x; arity],
        output: TensorId(x.0 + 1),
    });
}

/// The first input/activation slot carrying quantization parameters.
/// Constants are skipped: their params live inside the [`Tensor`], which
/// exposes no mutable access, and runtime tensors are where the calibration
/// bugs the paper describes actually land.
fn first_runtime_quant(g: &mut Graph) -> Option<&mut TensorDef> {
    g.tensors_mut().iter_mut().find(|def| {
        matches!(
            def,
            TensorDef::Input { quant: Some(_), .. } | TensorDef::Activation { quant: Some(_), .. }
        )
    })
}

fn runtime_quant_mut(def: &mut TensorDef) -> Option<&mut QuantParams> {
    match def {
        TensorDef::Input { quant, .. } | TensorDef::Activation { quant, .. } => quant.as_mut(),
        TensorDef::Constant { .. } => None,
    }
}
