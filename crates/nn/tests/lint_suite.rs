//! Property suite for the static analyzer (`mlexray_nn::analysis`).
//!
//! Three obligations pin the analyzer from both sides:
//!
//! 1. **No false positives**: random `GraphBuilder` graphs — float and
//!    fully-integer quantized via the real calibration path — lint with
//!    zero Deny and zero Warn findings.
//! 2. **No false negatives**: every [`GraphMutation`] bug class, injected
//!    into a clean graph, is caught by exactly its expected lint code.
//! 3. **Plan verification is independent**: a fresh [`MemoryPlan`]
//!    verifies clean, and a plan with corrupted buffers fails
//!    [`verify_plan`] even though the planner itself produced it.

mod common;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use common::{random_graph, sample_batch};
use mlexray_nn::analysis::{
    analyze, certify_batchable, mutate::GraphMutation, verify_plan, LintCode, Severity,
};
use mlexray_nn::{
    calibrate, quantize_model, BackendSpec, Graph, Interpreter, MemoryPlan, Model, ModelVariant,
    PlannedTensor, QuantizationOptions, TensorId,
};

/// A random float graph from the shared generator.
fn float_fixture(seed: u64) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    random_graph(&mut rng).0
}

/// A random graph taken through the real quantization path: calibrate over
/// a few samples, then `quantize_model` — so the fixture carries the same
/// quant-param layout deployed int8 models do.
fn quantized_fixture(seed: u64) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (graph, in_shape) = random_graph(&mut rng);
    let samples = sample_batch(&mut rng, &in_shape, 3);
    let calib =
        calibrate(&graph, samples.iter().map(Vec::as_slice)).expect("calibration over samples");
    let model = Model {
        graph,
        family: "lint_prop".into(),
        variant: ModelVariant::MobileFloat,
    };
    quantize_model(&model, &calib, QuantizationOptions::default())
        .expect("quantizable op set")
        .graph
}

fn assert_no_deny_no_warn(graph: &Graph) {
    let report = analyze(graph);
    assert_eq!(
        report.count(Severity::Deny),
        0,
        "deny findings on a clean graph:\n{report}"
    );
    assert_eq!(
        report.count(Severity::Warn),
        0,
        "warn findings on a clean graph:\n{report}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random builder graphs carry no Deny and no Warn findings —
    /// the zero-false-positive obligation over the float op set.
    #[test]
    fn random_float_graphs_lint_clean(seed in 0u64..100_000) {
        assert_no_deny_no_warn(&float_fixture(seed));
    }
}

proptest! {
    // Calibration runs the interpreter, so fewer cases keep the suite fast.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Quantized graphs produced by the real calibrate + quantize path lint
    /// clean too: scales positive, zero points in range, boundaries
    /// consistent, weight axes right.
    #[test]
    fn random_quantized_graphs_lint_clean(seed in 0u64..100_000) {
        assert_no_deny_no_warn(&quantized_fixture(seed));
    }

    /// The static batchability certificate always agrees with the
    /// interpreter's own runtime claim — the EX401 cross-check can never
    /// fire on a builder graph.
    #[test]
    fn batchability_certificate_matches_interpreter(seed in 0u64..100_000) {
        let graph = float_fixture(seed);
        let (certified, reasons) = certify_batchable(&graph);
        let interp = Interpreter::new(&graph, BackendSpec::optimized())
            .expect("graph validates");
        prop_assert_eq!(
            certified,
            interp.is_batchable(),
            "static certificate disagrees with interpreter (reasons: {:?})",
            reasons
        );
    }
}

/// Every mutation class is caught by exactly its expected code, and the
/// Deny classes make the report unclean (so the registry gate rejects the
/// mutated model). Quantization mutations need a quantized site; every
/// mutation must fit at least one of the two fixtures.
#[test]
fn every_mutation_is_caught_by_its_expected_code() {
    let float = float_fixture(7);
    let quant = quantized_fixture(11);
    assert_no_deny_no_warn(&float);
    assert_no_deny_no_warn(&quant);

    for &mutation in GraphMutation::ALL {
        let mutated = mutation
            .apply(&quant)
            .or_else(|| mutation.apply(&float))
            .unwrap_or_else(|| panic!("no fixture offers a site for {mutation:?}"));
        let report = analyze(&mutated);
        let code = mutation.expected_code();
        assert!(
            report.has_code(code),
            "{mutation:?}: expected {code} in report:\n{report}"
        );
        if code.severity() == Severity::Deny {
            assert!(
                !report.is_clean(),
                "{mutation:?} injects a Deny bug but the report is clean"
            );
        }
    }
}

/// A mutation with no eligible site returns `None` instead of a bogus
/// graph: quantization mutations cannot fire on an all-float graph.
#[test]
fn quant_mutations_skip_float_graphs() {
    let float = float_fixture(13);
    for mutation in [
        GraphMutation::CorruptQuantScale,
        GraphMutation::CorruptZeroPoint,
        GraphMutation::DropQuantParams,
    ] {
        assert!(
            mutation.apply(&float).is_none(),
            "{mutation:?} found a quant site in a float graph"
        );
    }
}

/// A fresh plan verifies clean. Running the first node's output in the
/// input's buffer (live together) or an activation in a kept output's
/// buffer (read after the invoke) is reported as EX301; running two
/// lifetime-disjoint activations of different sizes or dtypes in one buffer
/// is reported as EX302. The verifier re-derives lifetimes and sizes
/// itself, so the corrupted plan cannot vouch for its own buffers.
#[test]
fn corrupted_plan_offsets_fail_verification() {
    let graph = float_fixture(3);
    let plan = MemoryPlan::for_graph(&graph).expect("plannable graph");
    assert!(
        verify_plan(&graph, &plan).is_empty(),
        "fresh planner output must verify clean"
    );
    let codes_after = |moved: TensorId, onto: &PlannedTensor| {
        let mut corrupted = plan.clone();
        corrupted.force_buffer(moved, onto.buffer);
        let findings = verify_plan(&graph, &corrupted);
        let codes: Vec<LintCode> = findings.iter().map(|d| d.code).collect();
        (codes, findings)
    };
    let disjoint =
        |a: &PlannedTensor, b: &PlannedTensor| a.last_use < b.first_use || b.last_use < a.first_use;

    // The first node reads the graph input and writes its output, so the
    // two tensors are live together at step 0.
    let input = plan.slot(graph.inputs()[0]).expect("input is planned");
    let (codes, findings) = codes_after(graph.nodes()[0].output, input);
    assert!(
        codes.contains(&LintCode::PlanAliasOverlap),
        "a buffer shared by live tensors must report EX301, got: {findings:?}"
    );

    // An activation dead before a graph output is written still may not
    // run in the output's buffer: the output is read after the invoke.
    let output = plan.slot(graph.outputs()[0]).expect("output is planned");
    let early = plan
        .slots()
        .find(|a| !a.kept && disjoint(a, output))
        .expect("an activation dies before the output is written");
    let (codes, findings) = codes_after(early.id, output);
    assert!(
        codes.contains(&LintCode::PlanAliasOverlap),
        "a kept buffer shared must report EX301, got: {findings:?}"
    );

    // Two activations live apart, neither kept, but of different byte
    // sizes or dtypes.
    let (a, b) = plan
        .slots()
        .filter(|a| !a.kept)
        .flat_map(|a| plan.slots().map(move |b| (a, b)))
        .find(|(a, b)| {
            let dtype = |p: &PlannedTensor| graph.tensor(p.id).dtype();
            !b.kept && disjoint(a, b) && (a.bytes != b.bytes || dtype(a) != dtype(b))
        })
        .expect("two activations of different sizes live apart");
    let (codes, findings) = codes_after(a.id, b);
    assert_eq!(
        codes,
        [LintCode::PlanSlotInvalid],
        "a buffer shared across sizes or dtypes must report EX302 alone, got: {findings:?}"
    );
}

/// Structural Deny findings short-circuit the deeper passes: a graph with
/// a duplicate tensor name reports only structure codes, never a shape or
/// quant finding computed over an ill-formed graph.
#[test]
fn structural_deny_short_circuits_deeper_passes() {
    let float = float_fixture(17);
    let mutated = GraphMutation::DuplicateTensorName
        .apply(&float)
        .expect("graphs have >= 2 tensors");
    let report = analyze(&mutated);
    assert!(report.has_code(LintCode::DuplicateTensorName));
    for d in &report.diagnostics {
        assert!(
            d.code.as_str().starts_with("EX0"),
            "deeper pass ran despite structural Deny: {d}"
        );
    }
}

/// A slot that fits a `usize` but no machine: an `f32` input of `2^59`
/// elements (`2^61` bytes) feeding a `Relu`. The lint gate has nothing to
/// deny, so building an interpreter must refuse it with a typed error, not
/// abort the process when the allocator says no.
#[test]
fn a_graph_no_machine_can_hold_is_refused_at_build() {
    use mlexray_nn::{Activation, GraphBuilder, NnError::Tensor};
    use mlexray_tensor::{DType::F32, Shape, TensorError::AllocationRefused};

    let mut b = GraphBuilder::new("huge");
    let x = b.input("x", Shape::vector(1 << 59));
    let y = b.activation("relu", x, Activation::Relu).unwrap();
    b.output(y);
    let graph = b.finish().unwrap();
    assert!(analyze(&graph).is_clean());
    let err = Interpreter::new(&graph, BackendSpec::optimized()).unwrap_err();
    let refused = AllocationRefused {
        elements: 1 << 59,
        dtype: F32,
    };
    assert_eq!(err, Tensor(refused));
}
