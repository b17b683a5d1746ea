//! Property suite for the cross-backend differential debugger: for random
//! graphs (sharing the `batch_equivalence` generators), injecting each
//! [`KernelBugs`] defect into one backend must make the debugger localize
//! **exactly** the eligible layer — and with no injected defect the report
//! must be clean — in float and fully-integer-quantized form, with the
//! defect injected under both kernel flavors.
//!
//! The debugger itself lives in `mlexray-core` (a dev-only dependency
//! cycle: core builds on this crate's backends; this suite drives the
//! debugger against them).

mod common;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use common::{random_graph, random_graph_with_site, sample_batch, BugSite};
use mlexray_core::{diff_backends, BisectionVerdict, DifferentialOptions, ReplayOptions};
use mlexray_edgesim::DeviceProfile;
use mlexray_nn::{
    calibrate, quantize_model, BackendSpec, EdgeNumerics, Graph, KernelBugs, Model, ModelVariant,
    QuantizationOptions,
};
use mlexray_tensor::Tensor;

/// Differential options for the suite: bitwise threshold, bisection on,
/// small sharded replay so the engine's merge path is exercised.
fn options(threshold: f32) -> DifferentialOptions {
    DifferentialOptions {
        threshold,
        bisect: true,
        replay: ReplayOptions {
            workers: 2,
            shard_frames: 2,
            micro_batch: 1,
            ..Default::default()
        },
    }
}

/// The defect targeting a site, and nothing else.
fn bug_for(site: BugSite) -> KernelBugs {
    match site {
        BugSite::Dwconv => KernelBugs {
            optimized_dwconv_i16_accumulator: true,
            ..KernelBugs::none()
        },
        BugSite::AvgPool16 => KernelBugs {
            avgpool_double_division: true,
            ..KernelBugs::none()
        },
        BugSite::SimdKTail => KernelBugs {
            simd_gemm_k_tail_skip: true,
            ..KernelBugs::none()
        },
    }
}

/// Quantizes a generated float graph over its own sample batch.
fn quantized(graph: Graph, samples: &[Vec<Tensor>]) -> Graph {
    let calib = calibrate(&graph, samples.iter().map(Vec::as_slice))
        .expect("calibration over the sample batch");
    let model = Model {
        graph,
        family: "prop".into(),
        variant: ModelVariant::MobileFloat,
    };
    quantize_model(&model, &calib, QuantizationOptions::default())
        .expect("quantizable op set")
        .graph
}

/// Runs one injected-defect differential and checks the localization
/// contract: if the report diverges at all, it must diverge **exactly** at
/// the target layer, and bisection must confirm the defect op-local.
/// Returns whether the defect actually fired numerically.
fn assert_localizes(
    graph: &Graph,
    baseline: BackendSpec,
    candidate: BackendSpec,
    samples: &[Vec<Tensor>],
    site: BugSite,
) -> bool {
    let report = diff_backends(graph, baseline, candidate, samples, &options(0.0))
        .expect("differential run succeeds");
    match report.divergent_layer() {
        None => false,
        Some(layer) => {
            assert_eq!(
                layer,
                site.layer_name(),
                "defect localized to the wrong layer:\n{report}"
            );
            let bisection = report
                .bisection
                .as_ref()
                .expect("bisect enabled and divergence found");
            assert_eq!(
                bisection.verdict,
                BisectionVerdict::OpLocal,
                "an injected kernel defect must be op-local:\n{report}"
            );
            assert_eq!(
                bisection.prefix_max_nrmse, 0.0,
                "quantized prefix layers are flavor-identical, so the prefix \
                 must agree bitwise:\n{report}"
            );
            true
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Quantized graphs with an eligible site: injecting each defect into
    /// each flavor either stays numerically silent or localizes exactly the
    /// target layer; with no defect the backends are bitwise-equivalent.
    #[test]
    fn quantized_injection_localizes_exactly(seed in 0u64..100_000, site_pick in 0usize..2) {
        let site = [BugSite::Dwconv, BugSite::AvgPool16][site_pick];
        let mut rng = SmallRng::seed_from_u64(seed);
        let (graph, in_shape) = random_graph_with_site(&mut rng, site);
        let samples = sample_batch(&mut rng, &in_shape, 4);
        let graph = quantized(graph, &samples);

        // Clean control: quantized kernels are flavor-identical, so the
        // cross-flavor differential must be bitwise clean.
        let clean = diff_backends(
            &graph,
            BackendSpec::reference(),
            BackendSpec::optimized(),
            &samples,
            &options(0.0),
        ).expect("clean differential");
        prop_assert!(clean.is_equivalent(), "no-bug run diverged:\n{clean}");

        let bugs = bug_for(site);
        for candidate in [
            BackendSpec::optimized().with_bugs(bugs),
            BackendSpec::reference().with_bugs(bugs),
        ] {
            let fired = assert_localizes(
                &graph,
                BackendSpec::reference(),
                candidate,
                &samples,
                site,
            );
            // The dwconv defect lives only in the optimized kernel; the
            // avgpool defect is an op-spec bug and fires in both resolvers.
            if site == BugSite::Dwconv && candidate == BackendSpec::reference().with_bugs(bugs) {
                prop_assert!(!fired, "reference kernels must ignore the dwconv defect");
            }
        }
    }

    /// Float graphs: the injected defects are quantized-only, so a bugged
    /// float candidate must stay equivalent — bitwise same-flavor, within
    /// reassociation tolerance cross-flavor. The emulator's float sums
    /// ignore the flavor and the defects: faithful numerics over the bugged
    /// optimized flavor are the reference bits, and every device profile's
    /// numerics stay within reassociation tolerance of them.
    #[test]
    fn float_graphs_stay_clean_under_injection(seed in 0u64..100_000) {
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(0xf10a7));
        let (graph, in_shape) = random_graph(&mut rng);
        let samples = sample_batch(&mut rng, &in_shape, 3);
        let bugs = KernelBugs::paper_2021();

        let same_flavor = diff_backends(
            &graph,
            BackendSpec::optimized(),
            BackendSpec::optimized().with_bugs(bugs),
            &samples,
            &options(0.0),
        ).expect("same-flavor differential");
        prop_assert!(
            same_flavor.is_equivalent(),
            "float kernels must ignore quantized defects:\n{same_flavor}"
        );

        let cross_flavor = diff_backends(
            &graph,
            BackendSpec::reference(),
            BackendSpec::optimized().with_bugs(bugs),
            &samples,
            &options(1e-4),
        ).expect("cross-flavor differential");
        prop_assert!(
            cross_flavor.is_equivalent(),
            "flavor reassociation drift crossed the benign threshold:\n{cross_flavor}"
        );

        let faithful = diff_backends(
            &graph,
            BackendSpec::reference(),
            BackendSpec {
                numerics: Some(EdgeNumerics::faithful()),
                ..BackendSpec::optimized().with_bugs(bugs)
            },
            &samples,
            &options(0.0),
        ).expect("faithful-emulator differential");
        prop_assert!(
            faithful.is_equivalent(),
            "the faithful emulator must run the reference sums whatever its flavor:\n{faithful}"
        );

        for profile in [DeviceProfile::pixel4(), DeviceProfile::pixel3(), DeviceProfile::x86_emulator()] {
            let device = diff_backends(
                &graph,
                BackendSpec::reference(),
                profile.emulator_spec().with_bugs(bugs),
                &samples,
                &options(1e-4),
            ).expect("device-emulator differential");
            prop_assert!(
                device.is_equivalent(),
                "{} numerics drifted past reassociation tolerance:\n{device}",
                profile.name
            );
        }
    }
}

/// Non-vacuity: over a deterministic seed sweep, each injected defect must
/// actually fire (diverge numerically) on a healthy fraction of generated
/// graphs — and every firing must localize to the target. Guards against
/// the property tests passing because the defects never produced a
/// different bit.
#[test]
fn injected_defects_fire_and_localize_on_generated_graphs() {
    let mut fired = [0usize; 2];
    const SEEDS: u64 = 8;
    for seed in 0..SEEDS {
        for (i, site) in [BugSite::Dwconv, BugSite::AvgPool16]
            .into_iter()
            .enumerate()
        {
            let mut rng = SmallRng::seed_from_u64(0xbead + seed);
            let (graph, in_shape) = random_graph_with_site(&mut rng, site);
            let samples = sample_batch(&mut rng, &in_shape, 4);
            let graph = quantized(graph, &samples);
            if assert_localizes(
                &graph,
                BackendSpec::reference(),
                BackendSpec::optimized().with_bugs(bug_for(site)),
                &samples,
                site,
            ) {
                fired[i] += 1;
            }
        }
    }
    assert!(
        fired[0] >= 2,
        "dwconv defect fired on only {}/{SEEDS} graphs — fixture too tame",
        fired[0]
    );
    assert!(
        fired[1] >= SEEDS as usize / 2,
        "avgpool defect fired on only {}/{SEEDS} graphs — fixture too tame",
        fired[1]
    );
}

/// The injected SIMD tile-boundary defect (an off-by-one truncation of
/// the GEMM K-loop remainder): a clean-SIMD baseline against a bugged-SIMD
/// candidate is same-flavor, so the GEMM-free prefix stays bitwise clean
/// and the debugger must localize the ragged-K target conv exactly and
/// bisect it op-local — on every generated graph, since dropping a
/// continuous random product term essentially always changes bits.
#[test]
fn simd_k_tail_bug_localizes_and_bisects_op_local() {
    const SEEDS: u64 = 8;
    let mut fired = 0usize;
    for seed in 0..SEEDS {
        let mut rng = SmallRng::seed_from_u64(0x51d0 + seed);
        let (graph, in_shape) = random_graph_with_site(&mut rng, BugSite::SimdKTail);
        let samples = sample_batch(&mut rng, &in_shape, 4);
        if assert_localizes(
            &graph,
            BackendSpec::simd(),
            BackendSpec::simd().with_bugs(bug_for(BugSite::SimdKTail)),
            &samples,
            BugSite::SimdKTail,
        ) {
            fired += 1;
        }
    }
    assert_eq!(
        fired, SEEDS as usize,
        "the K-tail truncation must fire on every ragged-K graph"
    );
}

/// The K-tail defect lives only in the SIMD GEMM: reference and optimized
/// backends carrying the flag stay bitwise-identical to their clean
/// counterparts.
#[test]
fn simd_k_tail_bug_is_inert_outside_the_simd_backend() {
    let bugs = bug_for(BugSite::SimdKTail);
    let mut rng = SmallRng::seed_from_u64(0x51df);
    let (graph, in_shape) = random_graph_with_site(&mut rng, BugSite::SimdKTail);
    let samples = sample_batch(&mut rng, &in_shape, 4);
    for (clean, bugged) in [
        (
            BackendSpec::reference(),
            BackendSpec::reference().with_bugs(bugs),
        ),
        (
            BackendSpec::optimized(),
            BackendSpec::optimized().with_bugs(bugs),
        ),
    ] {
        let report = diff_backends(&graph, clean, bugged, &samples, &options(0.0))
            .expect("differential run succeeds");
        assert!(
            report.is_equivalent(),
            "non-SIMD kernels must ignore the SIMD defect:\n{report}"
        );
    }
}

/// The emulator's non-faithful knobs must themselves be localizable: the
/// first GEMM-family layer in execution order is where reassociation first
/// surfaces.
#[test]
fn emulator_numerics_localize_to_first_gemm_layer() {
    let mut rng = SmallRng::seed_from_u64(77);
    let (graph, in_shape) = random_graph_with_site(&mut rng, BugSite::Dwconv);
    let samples = sample_batch(&mut rng, &in_shape, 3);
    let numerics = EdgeNumerics {
        accumulation: mlexray_nn::AccumOrder::Reversed,
        fused_multiply_add: true,
        ..EdgeNumerics::faithful()
    };
    let report = diff_backends(
        &graph,
        BackendSpec::reference(),
        BackendSpec::emulator(numerics),
        &samples,
        &options(0.0),
    )
    .expect("emulator differential");
    if let Some(layer) = report.divergent_layer() {
        // The first divergent layer must be a GEMM-family op (conv /
        // depthwise / fc) — reassociation cannot first appear in an
        // elementwise or pooling op.
        let (_, node) = graph.node_by_name(layer).expect("layer exists");
        let label = node.op.type_label();
        assert!(
            ["Conv", "D-Conv", "FC"].contains(&label),
            "reassociation surfaced in non-GEMM layer {layer} ({label}):\n{report}"
        );
    }
}
