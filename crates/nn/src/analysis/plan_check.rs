//! Pass 4: memory-plan buffer verification (`EX301`–`EX302`).
//!
//! [`MemoryPlan`] runs lifetime-disjoint activations of one dtype and size
//! in one physical buffer. The planner's own tests exercise it, but a
//! checker that shares the planner's code would share its bugs; this pass
//! re-derives every runtime tensor's byte size and live range straight from
//! the graph and then proves, pairwise, that no two tensors sharing a
//! buffer are live together or differ in dtype or size, and that a kept
//! tensor (readable after the invoke) shares with none. The same verifier
//! runs (debug builds only) when an interpreter is built, so a future
//! planner regression fails loudly in tests instead of silently corrupting
//! activations in release.

use crate::graph::{Graph, TensorDef, TensorId};
use crate::plan::MemoryPlan;

use super::{Diagnostic, LintCode};

pub(super) fn check(graph: &Graph) -> Vec<Diagnostic> {
    match MemoryPlan::for_graph(graph) {
        Ok(plan) => verify_plan(graph, &plan),
        Err(e) => vec![Diagnostic::new(
            LintCode::PlanSlotInvalid,
            format!("graph cannot be planned: {e}"),
        )],
    }
}

/// Independently verifies `plan` against `graph`: every runtime tensor gets
/// exactly one slot of the right size and lifetime, and no two tensors
/// share a buffer unless they are lifetime-disjoint, of one dtype and size,
/// and neither is kept.
///
/// Returns one [`Diagnostic`] per violation; an empty vector is a proof
/// (over the re-derived lifetimes) that the buffers are safe.
pub fn verify_plan(graph: &Graph, plan: &MemoryPlan) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let horizon = graph.nodes().len();
    let name = |id: TensorId| graph.tensor(id).name();

    // Re-derive (bytes, first_use, last_use) for every runtime tensor.
    let mut expected = Vec::new();
    for (i, def) in graph.tensors().iter().enumerate() {
        let id = TensorId(i);
        let first_use = match def {
            TensorDef::Constant { .. } => {
                if plan.slot(id).is_some() {
                    diags.push(
                        Diagnostic::new(
                            LintCode::PlanSlotInvalid,
                            "constant tensor has an arena slot (constants are baked into the \
                             model)",
                        )
                        .with_tensor(name(id)),
                    );
                }
                continue;
            }
            TensorDef::Input { .. } => 0,
            TensorDef::Activation { .. } => graph
                .nodes()
                .iter()
                .position(|n| n.output == id)
                .unwrap_or(horizon),
        };
        let bytes = def
            .shape()
            .checked_num_elements()
            .and_then(|n| n.checked_mul(def.dtype().byte_size()));
        let Some(bytes) = bytes else {
            diags.push(
                Diagnostic::new(
                    LintCode::PlanSlotInvalid,
                    "slot size overflows the address space",
                )
                .with_tensor(name(id)),
            );
            continue;
        };
        let mut last_use = graph
            .nodes()
            .iter()
            .enumerate()
            .filter(|(_, n)| n.inputs.contains(&id))
            .map(|(j, _)| j)
            .max()
            .unwrap_or(first_use);
        if graph.outputs().contains(&id) {
            last_use = horizon;
        }
        expected.push((id, bytes, first_use, last_use));
    }

    // Each runtime tensor must have a slot agreeing with the re-derivation.
    let mut verified = Vec::new();
    for (id, bytes, first_use, last_use) in expected {
        let Some(slot) = plan.slot(id) else {
            diags.push(
                Diagnostic::new(
                    LintCode::PlanSlotInvalid,
                    "runtime tensor has no arena slot",
                )
                .with_tensor(name(id)),
            );
            continue;
        };
        if slot.bytes != bytes {
            diags.push(
                Diagnostic::new(
                    LintCode::PlanSlotInvalid,
                    format!("slot holds {} bytes, tensor needs {bytes}", slot.bytes),
                )
                .with_tensor(name(id)),
            );
        }
        if (slot.first_use, slot.last_use) != (first_use, last_use) {
            diags.push(
                Diagnostic::new(
                    LintCode::PlanSlotInvalid,
                    format!(
                        "slot lifetime [{}, {}] != derived lifetime [{first_use}, {last_use}]",
                        slot.first_use, slot.last_use
                    ),
                )
                .with_tensor(name(id)),
            );
        }
        // Alias-check against the *derived* lifetime, not the slot's own
        // claim — a planner that shrank a lifetime must not be able to
        // vouch for its own buffers.
        verified.push((id, *slot, first_use, last_use));
    }

    for (i, &(a_id, a, a_first, a_last)) in verified.iter().enumerate() {
        for &(b_id, b, b_first, b_last) in verified.iter().skip(i + 1) {
            if a.buffer != b.buffer {
                continue;
            }
            let live_together = a_first <= b_last && b_first <= a_last;
            if live_together || a.kept || b.kept {
                diags.push(
                    Diagnostic::new(
                        LintCode::PlanAliasOverlap,
                        format!(
                            "tensors '{}' and '{}' share buffer {} while one is live or kept",
                            name(a_id),
                            name(b_id),
                            a.buffer
                        ),
                    )
                    .with_tensor(name(a_id)),
                );
            }
            let dtype = |id: TensorId| graph.tensor(id).dtype();
            if dtype(a_id) != dtype(b_id) || a.bytes != b.bytes {
                diags.push(
                    Diagnostic::new(
                        LintCode::PlanSlotInvalid,
                        format!(
                            "tensors '{}' and '{}' share buffer {} across dtypes or sizes",
                            name(a_id),
                            name(b_id),
                            a.buffer
                        ),
                    )
                    .with_tensor(name(a_id)),
                );
            }
        }
    }
    diags
}
