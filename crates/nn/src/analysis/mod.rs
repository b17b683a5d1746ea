//! exray-lint: a multi-pass static analyzer over the [`Graph`] IR.
//!
//! Everything else in this workspace debugs a model by *running* it —
//! golden suites, per-layer differential replay, online drift validation.
//! This module is the pre-deploy complement: it proves shape, dtype,
//! quantization, memory-plan and batchability safety from the graph alone,
//! before a single frame is invoked. The serving registry runs it at
//! registration time and rejects models carrying [`Severity::Deny`]
//! diagnostics, and the `exray-lint` binary (in `mlexray-models`) lints any
//! zoo model or serialized graph from the command line.
//!
//! # Passes
//!
//! [`analyze`] runs six passes in order:
//!
//! 1. **Structure** (`EX001`–`EX010`): the topological invariants
//!    [`Graph::validate`] enforces — which now *delegates to this pass* —
//!    plus the gaps the analyzer closed: graph outputs must be produced by
//!    a node, tensor/node display names must be unique (differential
//!    debugging aligns layers by name), and every slot's byte size must be
//!    a `usize` (the later passes multiply it out). A structural Deny stops the run:
//!    later passes index tensors by id and need the graph well-formed.
//! 2. **Shape & dtype inference** (`EX101`–`EX104`): calls the one per-op
//!    rule — the same function [`crate::GraphBuilder`]'s typed methods and
//!    the quantizer derive their outputs from, so the pass re-derives
//!    nothing of its own — on every node's declared operands, and diffs
//!    the result against the declared output, catching graphs assembled
//!    through the unchecked low-level constructors or edited by hand.
//!    Operands the rule refuses (wrong rank, arity or geometry, sizes that
//!    overflow a `usize`) are `EX103`/`EX104` findings, never a panic.
//! 3. **Quantization consistency** (`EX201`–`EX208`): scale/zero-point
//!    range sanity, per-channel axis agreement, float↔quant boundary
//!    mismatches and requant-chain dtype agreement — the paper's classic
//!    edge-deployment bug class.
//! 4. **Memory-plan buffer verification** (`EX301`–`EX302`):
//!    [`verify_plan`] independently recomputes every runtime tensor's size
//!    and lifetime and proves that no buffer the interpreter runs is shared
//!    by two live tensors, by a kept one or across dtypes or sizes, so the
//!    zero-allocation arena is proven safe rather than trusted (the
//!    interpreter re-checks this under `debug_assertions` when it is
//!    built).
//! 5. **Batchability certification** (`EX401`–`EX402`):
//!    [`certify_batchable`] statically derives whether stacking frames
//!    preserves per-frame semantics and cross-checks the interpreter's own
//!    `is_batchable` claim.
//! 6. **Graph hygiene** (`EX501`–`EX504`): dead activations, unused
//!    constants, unreachable nodes, unused inputs.
//!
//! # Example
//!
//! ```
//! use mlexray_nn::analysis::{analyze, Severity};
//! use mlexray_nn::{Activation, GraphBuilder, Padding};
//! use mlexray_tensor::{Shape, Tensor};
//!
//! let mut b = GraphBuilder::new("tiny");
//! let x = b.input("x", Shape::nhwc(1, 4, 4, 2));
//! let w = b.constant("w", Tensor::filled_f32(Shape::new(vec![2, 1, 1, 2]), 0.5));
//! let y = b.conv2d("conv", x, w, None, 1, Padding::Same, Activation::Relu)?;
//! b.output(y);
//! let report = analyze(&b.finish()?);
//! assert!(report.is_clean());
//! assert_eq!(report.count(Severity::Deny), 0);
//! # Ok::<(), mlexray_nn::NnError>(())
//! ```

use std::fmt;
use std::str::FromStr;

use serde::value::{DeError, Value};
use serde::{Deserialize, Serialize};

use crate::graph::Graph;

mod batching;
mod hygiene;
pub mod mutate;
mod plan_check;
mod quantcheck;
mod shapes;
mod structure;

pub use batching::certify_batchable;
pub use plan_check::verify_plan;

/// How severe a [`Diagnostic`] is.
///
/// Ordered `Info < Warn < Deny`, so the worst severity of a report is its
/// maximum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Informational finding; never blocks anything.
    Info,
    /// Suspicious but executable; surfaced, not blocking.
    Warn,
    /// The graph is broken or unsafe to run; registration rejects it.
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        })
    }
}

macro_rules! lint_codes {
    ($($variant:ident = $code:literal, $sev:ident, $desc:literal;)+) => {
        /// Every lint the analyzer can emit, identified by a stable
        /// `EXnnn` code (serialized as that string).
        ///
        /// The hundreds digit groups codes by pass: `EX0xx` structure,
        /// `EX1xx` shape/dtype inference, `EX2xx` quantization, `EX3xx`
        /// memory plan, `EX4xx` batchability, `EX5xx` hygiene.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum LintCode {
            $(#[doc = $desc] $variant,)+
        }

        impl LintCode {
            /// Every code, in numeric order.
            pub const ALL: &'static [LintCode] = &[$(LintCode::$variant,)+];

            /// The stable `EXnnn` identifier.
            pub fn as_str(self) -> &'static str {
                match self { $(LintCode::$variant => $code,)+ }
            }

            /// The severity this code always carries.
            pub fn severity(self) -> Severity {
                match self { $(LintCode::$variant => Severity::$sev,)+ }
            }

            /// One-line description (what the lint proves).
            pub fn description(self) -> &'static str {
                match self { $(LintCode::$variant => $desc,)+ }
            }
        }

        impl FromStr for LintCode {
            type Err = String;
            fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
                match s {
                    $($code => Ok(LintCode::$variant),)+
                    other => Err(format!("unknown lint code '{other}'")),
                }
            }
        }
    };
}

lint_codes! {
    NoInputs = "EX001", Deny, "graph declares no inputs";
    NoOutputs = "EX002", Deny, "graph declares no outputs";
    MissingTensor = "EX003", Deny, "a node or interface references a tensor slot that does not exist";
    UseBeforeDef = "EX004", Deny, "a node reads an activation before any node produces it";
    WrittenTwice = "EX005", Deny, "two nodes write the same activation slot";
    NonActivationOutput = "EX006", Deny, "a node writes into an input or constant slot";
    OutputUnproduced = "EX007", Deny, "a graph output is not produced by any node";
    DuplicateTensorName = "EX008", Deny, "two tensor slots share a display name";
    DuplicateNodeName = "EX009", Deny, "two nodes share a display name";
    SlotTooLarge = "EX010", Deny, "a tensor slot holds more bytes than the address space";
    ShapeMismatch = "EX101", Deny, "a declared tensor shape disagrees with the shape inferred from op semantics";
    DTypeMismatch = "EX102", Deny, "a declared tensor dtype disagrees with the dtype inferred from op semantics";
    OperandInvalid = "EX103", Deny, "an operand's rank, arity or geometry violates the op's contract";
    UnsupportedDType = "EX104", Deny, "no kernel exists for this op at this input dtype";
    InvalidScale = "EX201", Deny, "a quantization scale is non-positive or non-finite";
    InvalidZeroPoint = "EX202", Deny, "a quantization zero point is outside its dtype's representable range";
    MissingQuantParams = "EX203", Deny, "an integer runtime tensor carries no quantization parameters";
    QuantBoundary = "EX204", Deny, "operand dtypes straddle the float/quantized boundary inconsistently";
    FloatWithQuantParams = "EX205", Warn, "a float tensor carries quantization parameters";
    PerChannelInvalid = "EX206", Deny, "per-channel parameter vectors disagree with the axis dimension";
    PerChannelOnActivation = "EX207", Deny, "a runtime tensor carries per-channel parameters (kernels require per-tensor)";
    AsymmetricWeights = "EX208", Warn, "signed weights carry a nonzero zero point (kernels assume symmetric)";
    PlanAliasOverlap = "EX301", Deny, "two lifetime-overlapping planned tensors, or a kept one, share a buffer";
    PlanSlotInvalid = "EX302", Deny, "a planned slot is missing or disagrees with independently recomputed size/lifetime";
    BatchabilityDisagreement = "EX401", Warn, "static batchability derivation disagrees with the interpreter's claim";
    NotBatchable = "EX402", Info, "the graph is certified non-batchable (frames cannot be stacked)";
    DeadActivation = "EX501", Warn, "an activation slot is never consumed and is not a graph output";
    UnusedConstant = "EX502", Warn, "a constant is referenced by no node";
    UnreachableNode = "EX503", Warn, "no graph output depends on this node";
    UnusedInput = "EX504", Warn, "a graph input is never consumed";
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for LintCode {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl Deserialize for LintCode {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::String(s) => s.parse().map_err(DeError::msg),
            other => Err(DeError::unexpected("lint code string", other)),
        }
    }
}

/// One finding: a [`LintCode`], its severity, the node/tensor it anchors to
/// (when known) and a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// The lint that fired.
    pub code: LintCode,
    /// Severity (always `code.severity()`).
    pub severity: Severity,
    /// Display name of the node the finding anchors to, when any.
    pub node: Option<String>,
    /// Display name of the tensor the finding anchors to, when any.
    pub tensor: Option<String>,
    /// What exactly is wrong.
    pub message: String,
}

impl Diagnostic {
    /// A diagnostic with no provenance.
    pub fn new(code: LintCode, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            node: None,
            tensor: None,
            message: message.into(),
        }
    }

    /// Attaches the node the finding anchors to.
    pub fn with_node(mut self, node: impl Into<String>) -> Self {
        self.node = Some(node.into());
        self
    }

    /// Attaches the tensor the finding anchors to.
    pub fn with_tensor(mut self, tensor: impl Into<String>) -> Self {
        self.tensor = Some(tensor.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code, self.severity)?;
        if let Some(node) = &self.node {
            write!(f, " node '{node}'")?;
        }
        if let Some(tensor) = &self.tensor {
            write!(f, " tensor '{tensor}'")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Everything one [`analyze`] run found over one graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LintReport {
    /// Display name of the analyzed graph.
    pub graph: String,
    /// Findings in pass order (structure first).
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Number of findings at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// True when the report carries no [`Severity::Deny`] finding — the
    /// registration gate's criterion.
    pub fn is_clean(&self) -> bool {
        self.count(Severity::Deny) == 0
    }

    /// True when some finding carries `code`.
    pub fn has_code(&self, code: LintCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// The distinct codes present, in first-seen order.
    pub fn codes(&self) -> Vec<LintCode> {
        let mut seen = Vec::new();
        for d in &self.diagnostics {
            if !seen.contains(&d.code) {
                seen.push(d.code);
            }
        }
        seen
    }

    /// The report as JSON.
    ///
    /// # Panics
    ///
    /// Never: the report contains no map with non-string keys.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("LintReport serializes infallibly")
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "graph '{}': {} deny, {} warn, {} info",
            self.graph,
            self.count(Severity::Deny),
            self.count(Severity::Warn),
            self.count(Severity::Info)
        )?;
        for d in &self.diagnostics {
            write!(f, "\n  {d}")?;
        }
        Ok(())
    }
}

/// Runs every pass over `graph` and collects the findings.
///
/// A structural [`Severity::Deny`] (pass 1) short-circuits the deeper
/// passes: they index tensors by id and require the graph well-formed. In
/// that case the report carries the structural findings only.
pub fn analyze(graph: &Graph) -> LintReport {
    let mut diagnostics = structure::check(graph);
    if diagnostics.iter().all(|d| d.severity != Severity::Deny) {
        diagnostics.extend(shapes::check(graph));
        diagnostics.extend(quantcheck::check(graph));
        diagnostics.extend(plan_check::check(graph));
        diagnostics.extend(batching::check(graph));
        diagnostics.extend(hygiene::check(graph));
    }
    LintReport {
        graph: graph.name().to_string(),
        diagnostics,
    }
}

/// The structural Deny subset as a `Result`, for [`Graph::validate`]'s
/// delegation: the first structural Deny becomes the error message.
pub(crate) fn structural_error(graph: &Graph) -> crate::Result<()> {
    match structure::check(graph)
        .into_iter()
        .find(|d| d.severity == Severity::Deny)
    {
        Some(d) => Err(crate::NnError::InvalidGraph(d.to_string())),
        None => Ok(()),
    }
}
