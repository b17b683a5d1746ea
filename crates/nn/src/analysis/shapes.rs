//! Pass 2: shape & dtype inference (`EX101`–`EX104`).
//!
//! Calls the one op rule, `OpKind::infer_output`, on every node's
//! *declared* operands — the rule [`crate::GraphBuilder`] and the quantizer
//! derive their outputs from, so this pass re-derives nothing of its own —
//! and diffs the result against the declared output [`TensorDef`]. The builder's checked methods cannot produce a mismatch,
//! but the low-level escape hatches (`push_node`, serde deserialization of
//! a hand-edited artifact, in-crate rewrite passes) can, and the
//! interpreter would otherwise discover it as a corrupt read mid-invoke.
//!
//! Inference is per-node over declared input shapes, so one bad
//! declaration produces one localized finding instead of an error cascade.

use crate::graph::{Graph, TensorDef};

use super::{Diagnostic, LintCode};

pub(super) fn check(graph: &Graph) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for node in graph.nodes() {
        let operands: Vec<&TensorDef> = node.inputs.iter().map(|&id| graph.tensor(id)).collect();
        let declared = graph.tensor(node.output);
        let finding = |code: LintCode, message: String, at: &TensorDef| {
            Diagnostic::new(code, message)
                .with_node(&node.name)
                .with_tensor(at.name())
        };
        match node.op.infer_output(&operands) {
            Err((code, operand, message)) => {
                diags.push(finding(
                    code,
                    message,
                    operand.map_or(declared, |i| operands[i]),
                ));
            }
            Ok((shape, dtype)) => {
                if *declared.shape() != shape {
                    let message = format!(
                        "declared output shape {} but op semantics infer {shape}",
                        declared.shape()
                    );
                    diags.push(finding(LintCode::ShapeMismatch, message, declared));
                }
                if declared.dtype() != dtype {
                    let message = format!(
                        "declared output dtype {:?} but op semantics infer {dtype:?}",
                        declared.dtype()
                    );
                    diags.push(finding(LintCode::DTypeMismatch, message, declared));
                }
            }
        }
    }
    diags
}
