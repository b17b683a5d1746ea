//! Pass 1: structural invariants (`EX001`–`EX010`).
//!
//! The checks [`crate::Graph::validate`] historically performed — non-empty
//! interface, slot ids in range, def-before-use topological order, single
//! writer per activation — plus the gaps folded in when validation moved
//! here: nodes must write activation slots (not inputs/constants), graph
//! outputs must actually be produced, and tensor/node display names must be
//! unique (per-layer differential debugging aligns layers by name, so a
//! duplicate silently corrupts every downstream report), and every slot's
//! byte size must be a `usize`: the shape pass, the memory plan and the
//! arena multiply it out, and a product that wraps is no size at all.

use std::collections::HashMap;

use crate::graph::{Graph, TensorDef};

use super::{Diagnostic, LintCode};

pub(super) fn check(graph: &Graph) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if graph.inputs().is_empty() {
        diags.push(Diagnostic::new(LintCode::NoInputs, "graph has no inputs"));
    }
    if graph.outputs().is_empty() {
        diags.push(Diagnostic::new(LintCode::NoOutputs, "graph has no outputs"));
    }

    let n_tensors = graph.tensors().len();
    for &id in graph.inputs() {
        if id.0 >= n_tensors {
            diags.push(Diagnostic::new(
                LintCode::MissingTensor,
                format!("graph input references missing tensor slot {}", id.0),
            ));
        }
    }

    // Def-before-use walk in execution order; inputs and constants are
    // defined from the start.
    let mut defined = vec![false; n_tensors];
    for (i, t) in graph.tensors().iter().enumerate() {
        if !matches!(t, TensorDef::Activation { .. }) {
            defined[i] = true;
        }
    }
    for node in graph.nodes() {
        for &input in &node.inputs {
            if input.0 >= n_tensors {
                diags.push(
                    Diagnostic::new(
                        LintCode::MissingTensor,
                        format!("references missing tensor slot {}", input.0),
                    )
                    .with_node(&node.name),
                );
                continue;
            }
            if !defined[input.0] {
                diags.push(
                    Diagnostic::new(
                        LintCode::UseBeforeDef,
                        format!(
                            "reads tensor '{}' before any node produces it",
                            graph.tensors()[input.0].name()
                        ),
                    )
                    .with_node(&node.name)
                    .with_tensor(graph.tensors()[input.0].name()),
                );
            }
        }
        if node.output.0 >= n_tensors {
            diags.push(
                Diagnostic::new(
                    LintCode::MissingTensor,
                    format!("writes missing tensor slot {}", node.output.0),
                )
                .with_node(&node.name),
            );
            continue;
        }
        let out_def = &graph.tensors()[node.output.0];
        if !matches!(out_def, TensorDef::Activation { .. }) {
            diags.push(
                Diagnostic::new(
                    LintCode::NonActivationOutput,
                    format!(
                        "writes into non-activation slot '{}' (inputs and constants are not producible)",
                        out_def.name()
                    ),
                )
                .with_node(&node.name)
                .with_tensor(out_def.name()),
            );
        } else if defined[node.output.0] {
            diags.push(
                Diagnostic::new(
                    LintCode::WrittenTwice,
                    format!("tensor '{}' written twice", out_def.name()),
                )
                .with_node(&node.name)
                .with_tensor(out_def.name()),
            );
        }
        defined[node.output.0] = true;
    }

    // Outputs must exist and be produced by a node or fed as a graph input.
    // A constant output is dead weight pretending to be a result; an
    // activation output nothing wrote is garbage memory.
    for &out in graph.outputs() {
        if out.0 >= n_tensors {
            diags.push(Diagnostic::new(
                LintCode::MissingTensor,
                format!("graph output references missing tensor slot {}", out.0),
            ));
            continue;
        }
        let def = &graph.tensors()[out.0];
        let produced = match def {
            TensorDef::Constant { .. } => false,
            TensorDef::Input { .. } => false,
            TensorDef::Activation { .. } => graph.nodes().iter().any(|n| n.output == out),
        };
        if !produced {
            diags.push(
                Diagnostic::new(
                    LintCode::OutputUnproduced,
                    format!("graph output '{}' is not produced by any node", def.name()),
                )
                .with_tensor(def.name()),
            );
        }
    }

    for def in graph.tensors() {
        let bytes = def.shape().checked_num_elements();
        if bytes
            .and_then(|n| n.checked_mul(def.dtype().byte_size()))
            .is_none()
        {
            diags.push(
                Diagnostic::new(
                    LintCode::SlotTooLarge,
                    format!(
                        "tensor '{}' of shape {:?} has more bytes than the address space",
                        def.name(),
                        def.shape().dims()
                    ),
                )
                .with_tensor(def.name()),
            );
        }
    }

    // Display names must be unique: the differential debugger, the trainer's
    // weight copy-back and `node_by_name` all key on them.
    let mut tensor_names: HashMap<&str, usize> = HashMap::new();
    for t in graph.tensors() {
        *tensor_names.entry(t.name()).or_insert(0) += 1;
    }
    let mut dup_tensors: Vec<&str> = tensor_names
        .iter()
        .filter(|(_, &n)| n > 1)
        .map(|(&name, _)| name)
        .collect();
    dup_tensors.sort_unstable();
    for name in dup_tensors {
        diags.push(
            Diagnostic::new(
                LintCode::DuplicateTensorName,
                format!("{} tensor slots are named '{name}'", tensor_names[name]),
            )
            .with_tensor(name),
        );
    }

    let mut node_names: HashMap<&str, usize> = HashMap::new();
    for n in graph.nodes() {
        *node_names.entry(n.name.as_str()).or_insert(0) += 1;
    }
    let mut dup_nodes: Vec<&str> = node_names
        .iter()
        .filter(|(_, &n)| n > 1)
        .map(|(&name, _)| name)
        .collect();
    dup_nodes.sort_unstable();
    for name in dup_nodes {
        diags.push(
            Diagnostic::new(
                LintCode::DuplicateNodeName,
                format!("{} nodes are named '{name}'", node_names[name]),
            )
            .with_node(name),
        );
    }

    diags
}

#[cfg(test)]
mod tests {
    use mlexray_tensor::Shape;

    use crate::analysis::{analyze, LintCode};
    use crate::{Activation, Graph, GraphBuilder, NnError};

    /// `x → Relu` over `[65536; 4]` f32 tensors: 2^64 elements each, whose
    /// byte count no `usize` holds. The builder refuses it, so it arrives
    /// as serialized JSON — as a wire `Load` delivers it.
    fn overflowing_graph_json() -> String {
        let mut b = GraphBuilder::new("overflow");
        let x = b.input("x", Shape::new(vec![1, 1, 1, 1]));
        let y = b.activation("relu", x, Activation::Relu).unwrap();
        b.output(y);
        let json = serde_json::to_string(&b.finish().unwrap()).unwrap();
        json.replace("[1,1,1,1]", "[65536,65536,65536,65536]")
    }

    #[test]
    fn a_slot_whose_byte_size_overflows_is_a_structural_deny() {
        let graph: Graph = serde_json::from_str(&overflowing_graph_json()).unwrap();
        match graph.validate() {
            Err(NnError::InvalidGraph(message)) => assert!(message.contains("EX010"), "{message}"),
            other => panic!("validate answered {other:?}"),
        }
        let report = analyze(&graph);
        assert!(report.has_code(LintCode::SlotTooLarge), "{report:?}");
        assert!(!report.is_clean());

        let mut b = GraphBuilder::new("overflow");
        let x = b.input("x", Shape::new(vec![65536; 4]));
        let y = b.activation("relu", x, Activation::Relu).unwrap();
        b.output(y);
        assert!(matches!(b.finish(), Err(NnError::InvalidGraph(_))));
    }

    /// Four live slots of 2^62 bytes each fit a `usize`, but the arena that
    /// holds them all does not: the plan check answers instead of
    /// overflowing.
    #[test]
    fn an_arena_whose_byte_size_overflows_cannot_be_planned() {
        let mut b = GraphBuilder::new("overflow");
        let mut x = b.input("x", Shape::new(vec![65536, 65536, 65536, 4096]));
        for i in 0..4 {
            x = b
                .activation(format!("relu{i}"), x, Activation::Relu)
                .unwrap();
            b.output(x);
        }
        let report = analyze(&b.finish().unwrap());
        assert!(report.has_code(LintCode::PlanSlotInvalid), "{report:?}");
    }
}
