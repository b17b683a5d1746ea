//! Property suite for batched in-interpreter inference: for random small
//! graphs and shapes, `invoke_batch` over N inputs must be **bitwise
//! identical** to N sequential `invoke` calls — in all three kernel
//! flavors (reference, optimized, SIMD), float and fully-integer
//! quantized, with and without the injected [`KernelBugs`] — and
//! per-frame observer records must carry the right frame index and data.
//! The SIMD flavor additionally tracks the reference flavor across random
//! graphs: within reassociation tolerance in float, bitwise in quantized
//! form (its i8×i8→i32 path is exact integer arithmetic). An interpreter
//! whose dead activations hand their buffers on runs bitwise like one that
//! keeps every tensor, node output by node output, across batch sizes.

mod common;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use common::{rand_tensor, random_dag, random_graph, sample_batch};
use mlexray_nn::{
    calibrate, quantize_model, Activation, BackendSpec, Graph, GraphBuilder, Interpreter,
    KernelBugs, KernelFlavor, LayerObserver, LayerRecord, Model, ModelVariant, Padding,
    QuantizationOptions, TensorId,
};
use mlexray_tensor::{QuantParams, Shape, Tensor, TensorData};

/// Asserts `invoke_batch` output equals sequential invokes, bitwise
/// (tensor equality covers values, shapes and quantization).
fn assert_batch_equivalence(graph: &Graph, samples: &[Vec<Tensor>], options: BackendSpec) {
    let mut interp = Interpreter::new(graph, options).expect("graph validates");
    let sequential: Vec<Vec<Tensor>> = samples
        .iter()
        .map(|s| interp.invoke(s).expect("sequential invoke"))
        .collect();
    let refs: Vec<&[Tensor]> = samples.iter().map(Vec::as_slice).collect();
    let batched = interp.invoke_batch(&refs).expect("batched invoke");
    assert_eq!(
        batched,
        sequential,
        "invoke_batch diverged from sequential invokes ({options:?}, batchable: {})",
        interp.is_batchable()
    );
    let stats = interp.last_stats().expect("stats after invoke");
    assert_eq!(stats.batch, samples.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Float graphs: batched == sequential, bitwise, in every flavor.
    #[test]
    fn float_batched_equals_sequential(seed in 0u64..100_000, n in 1usize..6) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (graph, in_shape) = random_graph(&mut rng);
        let samples = sample_batch(&mut rng, &in_shape, n);
        for flavor in [KernelFlavor::Optimized, KernelFlavor::Reference, KernelFlavor::Simd] {
            assert_batch_equivalence(
                &graph,
                &samples,
                BackendSpec { flavor, bugs: KernelBugs::none(), numerics: None },
            );
        }
    }

    /// Quantized graphs (full-integer, via calibration + quantize_model):
    /// batched == sequential, bitwise, in every flavor, with and without the
    /// injected §4.4 kernel defects.
    #[test]
    fn quantized_batched_equals_sequential(seed in 0u64..100_000, n in 1usize..5) {
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(0x5eed));
        let (graph, in_shape) = random_graph(&mut rng);
        // Calibrate over at least two samples, then invoke the first `n`.
        let samples = sample_batch(&mut rng, &in_shape, n.max(2));
        let calib = calibrate(&graph, samples.iter().map(Vec::as_slice))
            .expect("calibration over the sample batch");
        let model = Model {
            graph,
            family: "prop".into(),
            variant: ModelVariant::MobileFloat,
        };
        let quant = quantize_model(&model, &calib, QuantizationOptions::default())
            .expect("quantizable op set");
        for flavor in [KernelFlavor::Optimized, KernelFlavor::Reference, KernelFlavor::Simd] {
            for bugs in [KernelBugs::none(), KernelBugs::paper_2021()] {
                assert_batch_equivalence(
                    &quant.graph,
                    &samples[..n],
                    BackendSpec { flavor, bugs, numerics: None },
                );
            }
        }
    }

    /// SIMD flavor vs reference flavor on random graphs and batch sizes:
    /// float outputs agree within the tiled GEMM's reassociation
    /// tolerance; fully-integer-quantized outputs agree **bitwise**.
    #[test]
    fn simd_tracks_reference_across_random_graphs(seed in 0u64..100_000, n in 1usize..5) {
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(0x51d));
        let (graph, in_shape) = random_graph(&mut rng);
        let samples = sample_batch(&mut rng, &in_shape, n);

        let reference = run_batched(&graph, &samples, KernelFlavor::Reference);
        let simd = run_batched(&graph, &samples, KernelFlavor::Simd);
        for (frame, (r, s)) in reference.iter().zip(&simd).enumerate() {
            for (rt, st) in r.iter().zip(s) {
                let err = max_rel_err(rt, st);
                prop_assert!(
                    err <= 1e-4,
                    "float SIMD drifted {err:.3e} from reference at frame {frame}"
                );
            }
        }

        let calib = calibrate(&graph, samples.iter().map(Vec::as_slice))
            .expect("calibration over the sample batch");
        let model = Model {
            graph,
            family: "prop".into(),
            variant: ModelVariant::MobileFloat,
        };
        let quant = quantize_model(&model, &calib, QuantizationOptions::default())
            .expect("quantizable op set");
        prop_assert_eq!(
            run_batched(&quant.graph, &samples, KernelFlavor::Reference),
            run_batched(&quant.graph, &samples, KernelFlavor::Simd),
            "quantized SIMD must be bitwise-identical to reference"
        );
    }
}

/// A tensor as its shape, quantization and element bit patterns: equality
/// that tells `-0.0` from `0.0` and holds NaN to its bits.
type Bits = (Shape, Option<QuantParams>, Vec<u32>);

fn bits_of(t: &Tensor) -> Bits {
    let elems = match t.data() {
        TensorData::F32(v) => v.iter().map(|x| x.to_bits()).collect(),
        TensorData::U8(v) => v.iter().map(|&x| u32::from(x)).collect(),
        TensorData::I8(v) => v.iter().map(|&x| x as u32).collect(),
        TensorData::I32(v) => v.iter().map(|&x| x as u32).collect(),
    };
    (t.shape().clone(), t.quant().cloned(), elems)
}

/// Every record an observer is handed: (node, frame, output bits).
#[derive(Default)]
struct Seen(Vec<(usize, usize, Bits)>);

impl LayerObserver for Seen {
    fn on_layer(&mut self, r: &LayerRecord<'_>) {
        self.0.push((r.index, r.batch, bits_of(r.output)));
    }
}

/// `graph` quantized over a calibration on `samples`.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The default interpreter, whose dead activations hand their buffers
    /// on, and the preserving one run random graphs with residual `Add`s,
    /// `Concat`s and the non-batchable fallback — float and quantized, in
    /// every flavor, with and without the injected kernel defects —
    /// through batch sizes 3 → 1 → 8 → 2 → 8 with bitwise-equal outputs
    /// and node outputs seen by an observer; after each invoke the default
    /// answers `tensor_value` for inputs, outputs and constants only.
    #[test]
    fn shared_buffers_run_like_preserved_ones(seed in 0u64..100_000, quantize in 0u8..2) {
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(0x5a4ed));
        let (graph, in_shape) = random_dag(&mut rng);
        let samples = sample_batch(&mut rng, &in_shape, 8);
        let graph = if quantize == 1 { quantized(graph, &samples) } else { graph };
        for flavor in [KernelFlavor::Optimized, KernelFlavor::Reference, KernelFlavor::Simd] {
            for bugs in [KernelBugs::none(), KernelBugs::paper_2021()] {
                let spec = BackendSpec { flavor, bugs, numerics: None };
                let mut shared = Interpreter::new(&graph, spec).unwrap();
                let mut kept = Interpreter::preserving(&graph, spec).unwrap();
                for n in [3usize, 1, 8, 2, 8] {
                    let refs: Vec<&[Tensor]> = samples[..n].iter().map(Vec::as_slice).collect();
                    let (mut seen_shared, mut seen_kept) = (Seen::default(), Seen::default());
                    let a = shared.invoke_batch_observed(&refs, &mut seen_shared).unwrap();
                    let b = kept.invoke_batch_observed(&refs, &mut seen_kept).unwrap();
                    let frames = |outs: &[Vec<Tensor>]| -> Vec<Vec<Bits>> {
                        outs.iter().map(|f| f.iter().map(bits_of).collect()).collect()
                    };
                    prop_assert_eq!(frames(&a), frames(&b), "{:?} n {}: outputs", spec, n);
                    prop_assert_eq!(&seen_shared.0, &seen_kept.0, "{:?} n {}: observed", spec, n);
                    prop_assert_eq!(seen_shared.0.len(), graph.nodes().len() * n);
                    for (i, def) in graph.tensors().iter().enumerate() {
                        let id = TensorId(i);
                        let value = shared.tensor_value(id).map(bits_of);
                        let preserved = kept.tensor_value(id).map(bits_of);
                        prop_assert!(preserved.is_some(), "preserving keeps '{}'", def.name());
                        let io = graph.inputs().contains(&id) || graph.outputs().contains(&id);
                        if io || def.as_constant().is_some() {
                            prop_assert_eq!(value, preserved, "'{}' kept", def.name());
                        } else {
                            prop_assert!(value.is_none(), "intermediate '{}' read", def.name());
                        }
                    }
                }
            }
        }
    }
}

/// Runs one batched invoke under a flavor, returning per-frame outputs.
fn run_batched(graph: &Graph, samples: &[Vec<Tensor>], flavor: KernelFlavor) -> Vec<Vec<Tensor>> {
    let mut interp = Interpreter::new(
        graph,
        BackendSpec {
            flavor,
            bugs: KernelBugs::none(),
            numerics: None,
        },
    )
    .expect("graph validates");
    let refs: Vec<&[Tensor]> = samples.iter().map(Vec::as_slice).collect();
    interp.invoke_batch(&refs).expect("batched invoke")
}

/// Largest elementwise error of `b` against `a`, relative to `a`'s
/// magnitude (floored at 1 so tiny values compare absolutely).
fn max_rel_err(a: &Tensor, b: &Tensor) -> f32 {
    let av = a.to_f32_vec();
    let bv = b.to_f32_vec();
    assert_eq!(av.len(), bv.len(), "shape mismatch");
    av.iter()
        .zip(&bv)
        .map(|(x, y)| (x - y).abs() / x.abs().max(1.0))
        .fold(0.0, f32::max)
}

/// A squeeze-excite style gate (`Mul` with a `[n,1,1,c]` activation rhs)
/// must stay batch-safe and bitwise-equivalent.
#[test]
fn se_gate_batched_equals_sequential() {
    let mut rng = SmallRng::seed_from_u64(41);
    let mut b = GraphBuilder::new("se");
    let x = b.input("x", Shape::nhwc(1, 4, 4, 3));
    let w = b.constant("w", rand_tensor(&mut rng, Shape::new(vec![3, 1, 1, 3])));
    let trunk = b
        .conv2d("conv", x, w, None, 1, Padding::Same, Activation::Relu)
        .unwrap();
    let squeezed = b.avg_pool_global("squeeze", trunk).unwrap();
    let gated = b.mul("gate", trunk, squeezed).unwrap();
    b.output(gated);
    let g = b.finish().unwrap();
    let samples: Vec<Vec<Tensor>> = (0..4)
        .map(|_| vec![rand_tensor(&mut rng, Shape::nhwc(1, 4, 4, 3))])
        .collect();
    let interp = Interpreter::new(&g, BackendSpec::optimized()).unwrap();
    assert!(interp.is_batchable(), "SE gate must stack");
    assert_batch_equivalence(&g, &samples, BackendSpec::optimized());
}

/// Graphs that mix frames (activation × activation matmul) must *fall back*
/// to per-frame execution — and still produce identical results.
#[test]
fn matmul_graph_falls_back_but_matches() {
    let mut rng = SmallRng::seed_from_u64(42);
    let mut b = GraphBuilder::new("attn");
    let x = b.input("x", Shape::matrix(3, 4));
    let w = b.constant("w", rand_tensor(&mut rng, Shape::matrix(4, 4)));
    let q = b.matmul("q", x, w, false).unwrap();
    let scores = b.matmul("scores", q, q, true).unwrap();
    let sm = b.softmax("sm", scores).unwrap();
    b.output(sm);
    let g = b.finish().unwrap();
    let interp = Interpreter::new(&g, BackendSpec::optimized()).unwrap();
    assert!(
        !interp.is_batchable(),
        "activation-by-activation matmul must not stack frames"
    );
    let samples: Vec<Vec<Tensor>> = (0..3)
        .map(|_| vec![rand_tensor(&mut rng, Shape::matrix(3, 4))])
        .collect();
    assert_batch_equivalence(&g, &samples, BackendSpec::optimized());
}

/// Batched observers see one record per node per frame, with frame-local
/// output views identical to what sequential invokes produce.
#[test]
fn batched_observer_matches_sequential_records() {
    #[derive(Default)]
    struct Collect(Vec<(usize, usize, Vec<u32>)>);
    impl LayerObserver for Collect {
        fn on_layer(&mut self, r: &LayerRecord<'_>) {
            let bits = r.output.to_f32_vec().iter().map(|v| v.to_bits()).collect();
            self.0.push((r.index, r.batch, bits));
        }
    }

    let mut rng = SmallRng::seed_from_u64(7);
    let (graph, in_shape) = random_graph(&mut rng);
    let samples = sample_batch(&mut rng, &in_shape, 3);
    let mut interp = Interpreter::new(&graph, BackendSpec::optimized()).unwrap();

    let mut sequential = Collect::default();
    for (b, s) in samples.iter().enumerate() {
        let mut one = Collect::default();
        interp.invoke_observed(s, &mut one).unwrap();
        sequential
            .0
            .extend(one.0.into_iter().map(|(i, _, bits)| (i, b, bits)));
    }

    let refs: Vec<&[Tensor]> = samples.iter().map(Vec::as_slice).collect();
    let mut batched = Collect::default();
    interp.invoke_batch_observed(&refs, &mut batched).unwrap();

    // Sequential emits frame-major, batched emits node-major; compare as
    // sorted sets keyed by (node, frame).
    let mut a = sequential.0;
    let mut b = batched.0;
    a.sort();
    b.sort();
    assert_eq!(a, b, "per-frame observer records diverged");
}

/// A rank-1 softmax graph must not stack (its leading dimension is also its
/// feature dimension; stacking would normalize across frames) — and must
/// still match sequential invokes through the fallback.
#[test]
fn rank1_softmax_falls_back_and_matches() {
    let mut b = GraphBuilder::new("vec_softmax");
    let x = b.input("x", Shape::vector(3));
    let y = b.softmax("sm", x).unwrap();
    b.output(y);
    let g = b.finish().unwrap();
    let interp = Interpreter::new(&g, BackendSpec::optimized()).unwrap();
    assert!(
        !interp.is_batchable(),
        "rank-1 runtime tensors must not stack"
    );
    let samples: Vec<Vec<Tensor>> = (0..3)
        .map(|i| {
            vec![Tensor::from_f32(Shape::vector(3), vec![i as f32, 1.0, -(i as f32)]).unwrap()]
        })
        .collect();
    assert_batch_equivalence(&g, &samples, BackendSpec::optimized());
}

/// A runtime-computed bias (legal via the builder: only its length is
/// checked) must defeat stacking — batched kernels would apply frame 0's
/// bias to every frame.
#[test]
fn runtime_bias_falls_back_and_matches() {
    let mut rng = SmallRng::seed_from_u64(9);
    let mut b = GraphBuilder::new("dyn_bias");
    let x = b.input("x", Shape::nhwc(1, 3, 3, 2));
    let w1 = b.constant("w1", rand_tensor(&mut rng, Shape::new(vec![2, 1, 1, 2])));
    let c1 = b
        .conv2d("c1", x, w1, None, 1, Padding::Same, Activation::None)
        .unwrap();
    // Runtime bias: the per-frame channel means of c1 ([1, 2] activation).
    let bias = b.mean("bias", c1).unwrap();
    let w2 = b.constant("w2", rand_tensor(&mut rng, Shape::matrix(2, 2)));
    let m = b.mean("gap", c1).unwrap();
    let fc = b
        .fully_connected("fc", m, w2, Some(bias), Activation::None)
        .unwrap();
    b.output(fc);
    let g = b.finish().unwrap();
    let interp = Interpreter::new(&g, BackendSpec::optimized()).unwrap();
    assert!(
        !interp.is_batchable(),
        "runtime bias operands must not stack"
    );
    let samples: Vec<Vec<Tensor>> = (0..4)
        .map(|_| vec![rand_tensor(&mut rng, Shape::nhwc(1, 3, 3, 2))])
        .collect();
    assert_batch_equivalence(&g, &samples, BackendSpec::optimized());
}

/// One interpreter driven through batch sizes 3 → 1 → 8 → 2 → 8 — its single
/// arena re-shaped in place, shrinking and regrowing — must produce, at every
/// step, outputs *and* `tensor_value`s of every node bitwise-identical to an
/// interpreter that only ever ran the frames one by one. Both keep every
/// tensor readable after the invoke (built preserving).
#[test]
fn one_arena_across_batch_sizes_matches_sequential_invokes() {
    fn bits(t: &Tensor) -> Vec<u32> {
        t.to_f32_vec().iter().map(|v| v.to_bits()).collect()
    }
    let mut stacked_graphs = 0;
    for seed in 0..12u64 {
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(0xa2e4a));
        let (graph, in_shape) = random_graph(&mut rng);
        let samples = sample_batch(&mut rng, &in_shape, 8);
        for flavor in [
            KernelFlavor::Optimized,
            KernelFlavor::Reference,
            KernelFlavor::Simd,
        ] {
            let options = BackendSpec {
                flavor,
                bugs: KernelBugs::none(),
                numerics: None,
            };
            // The oracle: per sample, the outputs and every node's value.
            let mut sequential = Interpreter::preserving(&graph, options).unwrap();
            let expected: Vec<(Vec<Tensor>, Vec<Vec<u32>>)> = samples
                .iter()
                .map(|s| {
                    let outputs = sequential.invoke(s).unwrap();
                    let nodes = graph.nodes().iter();
                    let values = nodes.map(|n| bits(sequential.tensor_value(n.output).unwrap()));
                    (outputs, values.collect())
                })
                .collect();

            let mut interp = Interpreter::preserving(&graph, options).unwrap();
            stacked_graphs += usize::from(interp.is_batchable());
            for n in [3usize, 1, 8, 2, 8] {
                let refs: Vec<&[Tensor]> = samples[..n].iter().map(Vec::as_slice).collect();
                let outputs = interp.invoke_batch(&refs).unwrap();
                for (b, frame) in outputs.iter().enumerate() {
                    assert_eq!(
                        frame, &expected[b].0,
                        "seed {seed} {flavor:?} n {n} frame {b}"
                    );
                }
                // A stacked invoke leaves all n frames in each slot; the
                // per-frame fallback leaves the last frame.
                let stacked = interp.is_batchable() && n > 1;
                for (i, node) in graph.nodes().iter().enumerate() {
                    let held = bits(interp.tensor_value(node.output).unwrap());
                    let want: Vec<u32> = if stacked {
                        expected[..n].iter().flat_map(|e| e.1[i].clone()).collect()
                    } else {
                        expected[n - 1].1[i].clone()
                    };
                    assert_eq!(
                        held, want,
                        "seed {seed} {flavor:?} n {n}: tensor_value of node '{}'",
                        node.name
                    );
                }
            }
        }
    }
    assert!(stacked_graphs > 0, "no generated graph exercised stacking");
}

#[test]
fn empty_and_singleton_batches() {
    let mut rng = SmallRng::seed_from_u64(3);
    let (graph, in_shape) = random_graph(&mut rng);
    let mut interp = Interpreter::new(&graph, BackendSpec::optimized()).unwrap();
    assert!(interp.invoke_batch(&[]).unwrap().is_empty());
    let sample = vec![rand_tensor(&mut rng, in_shape)];
    let single = interp.invoke(&sample).unwrap();
    let via_batch = interp.invoke_batch(&[sample.as_slice()]).unwrap();
    assert_eq!(via_batch, vec![single]);
}
