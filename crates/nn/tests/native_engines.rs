//! Cross-engine bitwise property suite for the native float kernels: the
//! reference `Conv2d`, the optimized and Simd `Conv2d` / `FullyConnected`
//! and the depthwise kernel every native flavor shares are each one body
//! compiled twice — for the x86-64 baseline and for AVX2+FMA — and the Simd
//! GEMM once more for AVX-512F, and the builds must return the same bits;
//! so must the quantized `Conv2d` and `FullyConnected` every flavor shares,
//! whose dot has an AVX2 build and a scalar one. In one process, through the
//! engine-explicit entry point `simd::execute_node_with` (what
//! `dot_f32_with` is to the dot), every case runs each flavor under every
//! engine of `SimdEngine::ALL`, and then through an
//! `Interpreter`, which reads the process's engine and packs constant
//! weights at build and runtime weights per invoke. The entry point takes
//! the whole `BackendSpec`: under injected defects and emulated numerics it
//! must return the bits an interpreter under that spec does. The edge
//! emulator under each `mlexray-edgesim` device profile's numerics runs the
//! same bodies under its own sum chain, so its builds must agree too.
//!
//! Cases: window sides 1–5, strides 1 and 2, SAME and VALID, channel counts
//! that are no multiple of 8 (and some that are), every 8/4/1 panel mix,
//! stacked batches, weights that are a graph constant or a runtime input,
//! with and without bias, every activation, over values that include ±0,
//! subnormals, ±∞ and NaN, and reductions of length zero. On a CPU without
//! AVX-512F or AVX2 a request for that engine runs the next build down the
//! ladder and the suite still holds;
//! `scripts/ci-local.sh kernel-simd` runs it natively and under
//! `MLEXRAY_SIMD=scalar`.

use proptest::prelude::*;

use mlexray_edgesim::DeviceProfile;
use mlexray_nn::simd::{execute_node_with, SimdEngine};
use mlexray_nn::{
    AccumOrder, Activation, BackendSpec, EdgeNumerics, Graph, GraphBuilder, Interpreter,
    KernelBugs, KernelFlavor, NodeId, OpKind, Padding, RequantMode,
};
use mlexray_tensor::{DType, QuantParams, Shape, Tensor};

const ACTIVATIONS: [Activation; 7] = [
    Activation::None,
    Activation::Relu,
    Activation::Relu6,
    Activation::HardSwish,
    Activation::HardSigmoid,
    Activation::Sigmoid,
    Activation::Gelu,
];
const SIDES: [usize; 4] = [1, 2, 3, 5];
/// Every mix of 8-, 4- and 1-wide panels.
const OUT_CHANNELS: [usize; 10] = [1, 3, 4, 5, 8, 9, 12, 13, 16, 19];
const FLAVORS: [KernelFlavor; 3] = [
    KernelFlavor::Reference,
    KernelFlavor::Optimized,
    KernelFlavor::Simd,
];

/// xorshift64*; `state` is never zero.
fn next(state: &mut u64) -> u64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Hundredths in `[-100, 100]`, both zeros and — with `specials` —
/// subnormals, finite floats of every exponent (so sums overflow to `±∞`
/// and cancel to `NaN` on their own), `±∞` and `NaN`.
fn draw(state: &mut u64, specials: bool, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| {
            let r = next(state);
            let bits = (r >> 32) as u32;
            match (r % 32, specials) {
                (0, _) => 0.0,
                (1, _) => -0.0,
                (2, true) => f32::from_bits(bits & 0x807f_ffff),
                (3..=6, true) if f32::from_bits(bits).is_finite() => f32::from_bits(bits),
                (7, true) => f32::INFINITY,
                (8, true) => f32::NEG_INFINITY,
                (9, true) => f32::NAN,
                _ => (bits % 20_001) as f32 / 100.0 - 100.0,
            }
        })
        .collect()
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Conv,
    Depthwise,
    FullyConnected,
}

/// A one-node graph and one operand list per frame (graph inputs only).
struct Case {
    graph: Graph,
    /// Per frame: the data input, then the weights when they are an input.
    frames: Vec<Vec<Tensor>>,
}

impl Case {
    /// The node's operands with the frames stacked: data, weights, bias.
    fn operands(&self) -> Vec<Tensor> {
        let node = &self.graph.nodes()[0];
        let first = &self.frames[0][0];
        let mut dims = first.shape().dims().to_vec();
        dims[0] *= self.frames.len();
        let data: Vec<f32> = self
            .frames
            .iter()
            .flat_map(|f| f[0].as_f32().unwrap().to_vec())
            .collect();
        let mut operands = vec![Tensor::from_f32(Shape::new(dims), data).unwrap()];
        for (k, &id) in node.inputs.iter().enumerate().skip(1) {
            let t = match self.graph.tensor(id).as_constant() {
                Some(t) => t.clone(),
                None => self.frames[0][k].clone(),
            };
            operands.push(t);
        }
        operands
    }
}

/// `values` fills the weights, then the bias, then each frame's input.
#[allow(clippy::too_many_arguments)]
fn build(
    op: Op,
    side: (usize, usize),
    extra: usize,
    stride: usize,
    padding: Padding,
    in_c: usize,
    out_c: usize,
    batch: usize,
    runtime_weights: bool,
    with_bias: bool,
    activation: Activation,
    mut values: impl FnMut(usize) -> Vec<f32>,
) -> Case {
    let tensor = |dims: Vec<usize>, values: &mut dyn FnMut(usize) -> Vec<f32>| {
        let shape = Shape::new(dims);
        let n = shape.num_elements();
        Tensor::from_f32(shape, values(n)).unwrap()
    };
    let (kh, kw) = side;
    let (in_dims, w_dims, bias_len) = match op {
        Op::Conv => (
            vec![1, kh + extra, kw + extra + 1, in_c],
            vec![out_c, kh, kw, in_c],
            out_c,
        ),
        Op::Depthwise => (
            vec![1, kh + extra, kw + extra + 1, in_c],
            vec![1, kh, kw, in_c],
            in_c,
        ),
        Op::FullyConnected => (vec![1, in_c], vec![out_c, in_c], out_c),
    };
    let weights = tensor(w_dims.clone(), &mut values);
    let mut b = GraphBuilder::new("native-engines");
    let x = b.input("x", Shape::new(in_dims.clone()));
    let w = if runtime_weights {
        b.input("w", Shape::new(w_dims))
    } else {
        b.constant("w", weights.clone())
    };
    let bias = with_bias.then(|| b.constant("b", tensor(vec![bias_len], &mut values)));
    let y = match op {
        Op::Conv => b.conv2d("node", x, w, bias, stride, padding, activation),
        Op::Depthwise => b.depthwise_conv2d("node", x, w, bias, stride, padding, activation),
        Op::FullyConnected => b.fully_connected("node", x, w, bias, activation),
    }
    .unwrap();
    b.output(y);
    let graph = b.finish().unwrap();
    let frames = (0..batch)
        .map(|_| {
            let mut frame = vec![tensor(in_dims.clone(), &mut values)];
            frame.extend(runtime_weights.then(|| weights.clone()));
            frame
        })
        .collect();
    Case { graph, frames }
}

/// Bit for bit, except that two `NaN`s are one value: which operand's
/// payload a `NaN + NaN` keeps was never pinned.
fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{what}: output {i} is {g:e} ({:08x}) in one build, {w:e} ({:08x}) in the other",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// Every flavor, then the edge emulator under each `mlexray-edgesim`
/// device profile's numerics (Pixel 4: `Lanes8` + FMA + FTZ; Pixel 3:
/// `Lanes8` + FTZ; x86 emulator: `Reversed`).
fn specs() -> Vec<BackendSpec> {
    let flavors = FLAVORS.map(|flavor| BackendSpec {
        flavor,
        ..BackendSpec::default()
    });
    let profiles = [
        DeviceProfile::pixel4(),
        DeviceProfile::pixel3(),
        DeviceProfile::x86_emulator(),
    ];
    flavors
        .into_iter()
        .chain(profiles.iter().map(DeviceProfile::emulator_spec))
        .collect()
}

/// Both builds of every spec of [`specs`] agree, and the interpreter —
/// which packs constant weights at build, runtime weights per invoke, and
/// runs the process's engine — agrees with them. Returns each spec's
/// output.
fn assert_builds_agree(case: &Case, what: &str) -> Vec<(BackendSpec, Vec<f32>)> {
    let operands = case.operands();
    let operands: Vec<&Tensor> = operands.iter().collect();
    let mut outputs = Vec::new();
    for spec in specs() {
        let run = |engine| {
            let out = execute_node_with(engine, spec, &case.graph, NodeId(0), &operands).unwrap();
            out.as_f32().unwrap().to_vec()
        };
        let baseline = run(SimdEngine::Scalar);
        let what = format!("{spec:?} {what}");
        for engine in SimdEngine::ALL {
            assert_same_bits(&run(engine), &baseline, &format!("{engine:?} {what}"));
        }

        let mut interp = Interpreter::new(&case.graph, spec).unwrap();
        let frames: Vec<&[Tensor]> = case.frames.iter().map(Vec::as_slice).collect();
        let interpreted: Vec<f32> = interp
            .invoke_batch(&frames)
            .unwrap()
            .iter()
            .flat_map(|outs| outs[0].as_f32().unwrap().to_vec())
            .collect();
        assert_same_bits(&interpreted, &baseline, &format!("interpreter, {what}"));
        outputs.push((spec, baseline));
    }
    outputs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn native_kernels_are_bitwise_identical_in_both_builds(
        op in 0u8..3,
        kh in 0usize..SIDES.len(),
        kw in 0usize..SIDES.len(),
        extra in 0usize..4,
        stride in 1usize..=2,
        same in 0u8..2,
        in_c in 1usize..=20,
        out_c in 0usize..OUT_CHANNELS.len(),
        batch in 1usize..=3,
        runtime_weights in 0u8..2,
        with_bias in 0u8..2,
        activation in 0usize..ACTIVATIONS.len(),
        specials in 0u8..2,
        seed in 1u64..=u64::MAX,
    ) {
        let op = [Op::Conv, Op::Depthwise, Op::FullyConnected][op as usize];
        let padding = if same == 1 { Padding::Same } else { Padding::Valid };
        let (side, out_c) = ((SIDES[kh], SIDES[kw]), OUT_CHANNELS[out_c]);
        let mut state = seed;
        let case = build(
            op,
            side,
            extra,
            stride,
            padding,
            in_c,
            out_c,
            batch,
            runtime_weights == 1,
            with_bias == 1,
            ACTIVATIONS[activation],
            |n| draw(&mut state, specials == 1, n),
        );
        let what = format!(
            "{op:?} {}x{}/{stride} {padding:?} {in_c}->{out_c} x{batch} runtime_weights={runtime_weights} \
             bias={with_bias} {:?} specials={specials} seed {seed}",
            side.0, side.1, ACTIVATIONS[activation]
        );
        assert_builds_agree(&case, &what);
    }
}

/// A reduction of length zero — a `Conv2d` with no input channels, a
/// `FullyConnected` with no inputs — passes the builder and the
/// interpreter, so every flavor answers it in both builds: each output is
/// its bias, or `+0.0` without one.
#[test]
fn zero_length_reductions_return_the_bias() {
    for op in [Op::Conv, Op::FullyConnected] {
        for (runtime_weights, with_bias) in [(false, true), (true, true), (false, false)] {
            let case = build(
                op,
                (3, 3),
                1,
                1,
                Padding::Same,
                0,
                13,
                2,
                runtime_weights,
                with_bias,
                Activation::None,
                |n| (0..n).map(|i| i as f32 + 0.5).collect(),
            );
            let what = format!("{op:?}, K = 0, runtime_weights={runtime_weights} bias={with_bias}");
            for (spec, out) in assert_builds_agree(&case, &what) {
                assert!(!out.is_empty(), "{spec:?} {what}");
                for (i, v) in out.iter().enumerate() {
                    let want = if with_bias {
                        (i % 13) as f32 + 0.5
                    } else {
                        0.0
                    };
                    assert_eq!(v.to_bits(), want.to_bits(), "{spec:?} {what}: output {i}");
                }
            }
        }
    }
}

/// The sign an all-`-0.0` sum of `op` ends with under `spec`. A sum that
/// starts from the `-0.0` bias and meets only `-0.0` products stays `-0.0`;
/// one that meets a `+0.0` ends `+0.0`:
///
/// * every native flavor's depthwise, the reference `Conv2d` and the
///   emulator's `Sequential` and `Reversed` orders start `Conv2d` and
///   depthwise sums from the bias and skip padding taps: `-0.0`;
/// * the emulator's `Lanes8` seeds the bias into lane 0 only, and folding
///   in the seven `+0.0` lanes ends it `+0.0`;
/// * the blocked-4 and `Lanes8` flavors' `Conv2d`, and every FC, start
///   from `+0.0` and add the bias last: `+0.0`.
fn signed_zero_sum(op: Op, spec: BackendSpec) -> f32 {
    let from_bias = match (op, spec.numerics) {
        (Op::FullyConnected, _) => false,
        (_, Some(numerics)) => numerics.accumulation != AccumOrder::Lanes8,
        (Op::Depthwise, None) => true,
        (Op::Conv, None) => spec.flavor == KernelFlavor::Reference,
    };
    if from_bias {
        -0.0
    } else {
        0.0
    }
}

/// Positive weights, a `-0.0` bias and `-0.0` inputs make every product
/// `-0.0`, so each output's sign is decided by where its sum starts and
/// how its partial sums meet ([`signed_zero_sum`]), under every flavor and
/// emulator order. In both builds, at the border and inside.
#[test]
fn signed_zeros_survive_both_builds() {
    for op in [Op::Conv, Op::Depthwise, Op::FullyConnected] {
        for stride in [1, 2] {
            let mut operand = 0;
            let case = build(
                op,
                (3, 3),
                2,
                stride,
                Padding::Same,
                11,
                13,
                2,
                false,
                true,
                Activation::None,
                |n| {
                    operand += 1;
                    vec![if operand == 1 { 0.75 } else { -0.0 }; n]
                },
            );
            let what = format!("{op:?} -0.0 sums, stride {stride}");
            for (spec, out) in assert_builds_agree(&case, &what) {
                let want = signed_zero_sum(op, spec);
                assert!(
                    out.iter().all(|v| v.to_bits() == want.to_bits()),
                    "{spec:?} {what}: want every output {want:?}, got {out:?}"
                );
            }
        }
    }
}

/// A one-node quantized graph — `Conv2d` or `DepthwiseConv2d` with a
/// `side`×`side` SAME window, or `FullyConnected` — over 11 input channels
/// and 13 output channels (11 for depthwise), the input at zero point `zp`,
/// the weights per tensor or per output channel; and one frame of input
/// codes.
fn quantized(op: Op, side: usize, stride: usize, zp: i32, per_channel: bool) -> Case {
    let mut state = 0x9E37_79B9 ^ (zp as u64) << 8 ^ side as u64;
    let mut bits = move || (next(&mut state) >> 32) as u32;
    let in_c = 11;
    let out_c = if matches!(op, Op::Depthwise) {
        in_c
    } else {
        13
    };
    let per_tensor = |scale, zero_point| QuantParams::PerTensor { scale, zero_point };
    let (in_dims, w_dims, out_dims) = match op {
        Op::Conv | Op::Depthwise => {
            let (h, w) = (7, 6);
            let out = |n: usize| n.div_ceil(stride);
            let w_dims = match op {
                Op::Depthwise => vec![1, side, side, in_c],
                _ => vec![out_c, side, side, in_c],
            };
            (vec![1, h, w, in_c], w_dims, vec![1, out(h), out(w), out_c])
        }
        Op::FullyConnected => (vec![1, 37], vec![out_c, 37], vec![1, out_c]),
    };
    let w_shape = Shape::new(w_dims);
    let w_codes = (0..w_shape.num_elements()).map(|_| bits() as i8).collect();
    let w_quant = if per_channel {
        QuantParams::PerChannel {
            scales: (0..out_c).map(|oc| 0.005 + 0.001 * oc as f32).collect(),
            zero_points: vec![0; out_c],
            axis: 0,
        }
    } else {
        per_tensor(0.01, 0)
    };
    let bias = (0..out_c).map(|_| bits() as i32 >> 16).collect();
    let mut b = GraphBuilder::new("native-engines-quantized");
    let x_quant = per_tensor(0.02, zp);
    let x = b.input_typed(
        "x",
        Shape::new(in_dims.clone()),
        DType::U8,
        Some(x_quant.clone()),
    );
    let w = b.constant("w", Tensor::from_i8(w_shape, w_codes, w_quant).unwrap());
    let bias = b.constant(
        "b",
        Tensor::from_i32(Shape::vector(out_c), bias, None).unwrap(),
    );
    let op = match op {
        Op::Conv => OpKind::Conv2d {
            stride,
            padding: Padding::Same,
            activation: Activation::Relu6,
        },
        Op::Depthwise => OpKind::DepthwiseConv2d {
            stride,
            padding: Padding::Same,
            activation: Activation::Relu6,
        },
        Op::FullyConnected => OpKind::FullyConnected {
            activation: Activation::None,
        },
    };
    let out_quant = Some(per_tensor(0.15, 7));
    let y = b.push_node(
        "node",
        op,
        vec![x, w, bias],
        Shape::new(out_dims),
        DType::U8,
        out_quant,
    );
    b.output(y);
    let shape = Shape::new(in_dims);
    let codes = (0..shape.num_elements()).map(|_| bits() as u8).collect();
    Case {
        graph: b.finish().unwrap(),
        frames: vec![vec![Tensor::from_u8(shape, codes, x_quant).unwrap()]],
    }
}

/// Quantized `Conv2d` (3×3 SAME at strides 1 and 2, and 1×1) and
/// `FullyConnected`, input zero points 0, 128 and 255, per-tensor and
/// per-channel weights: every flavor in both builds, and the interpreter,
/// return the same bytes — one exact quantized kernel per op.
#[test]
fn quantized_kernels_are_bitwise_identical_in_both_builds_and_every_flavor() {
    let shapes = [(Op::Conv, 3, 1), (Op::Conv, 3, 2), (Op::Conv, 1, 1)];
    for (op, side, stride) in shapes.into_iter().chain([(Op::FullyConnected, 0, 1)]) {
        for (zp, per_channel) in [0, 128, 255]
            .into_iter()
            .flat_map(|zp| [(zp, false), (zp, true)])
        {
            let case = quantized(op, side, stride, zp, per_channel);
            let what = format!("{op:?} {side}x{side}/{stride} zp {zp} per_channel={per_channel}");
            let want = run_node(&case, SimdEngine::Scalar, BackendSpec::reference());
            assert!(
                want.iter().any(|&q| q != want[0]),
                "{what}: a constant output pins nothing"
            );
            for flavor in FLAVORS {
                let spec = BackendSpec {
                    flavor,
                    ..BackendSpec::default()
                };
                for engine in SimdEngine::ALL {
                    let got = run_node(&case, engine, spec);
                    assert_eq!(got, want, "{flavor:?} {engine:?} {what}");
                }
                let mut interp = Interpreter::new(&case.graph, spec).unwrap();
                let interpreted = interp.invoke(&case.frames[0]).unwrap();
                assert_eq!(
                    bit_patterns(&interpreted[0]),
                    want,
                    "interpreter, {flavor:?} {what}"
                );
            }
        }
    }
}

/// The one frame of `case` through its node under `spec` on `engine`, as
/// bit patterns: the frame's data input, then the constant weights and
/// bias.
fn run_node(case: &Case, engine: SimdEngine, spec: BackendSpec) -> Vec<u32> {
    let node = &case.graph.nodes()[0];
    let mut operands = vec![&case.frames[0][0]];
    operands.extend(
        node.inputs[1..]
            .iter()
            .map(|&id| case.graph.tensor(id).as_constant().unwrap()),
    );
    let out = execute_node_with(engine, spec, &case.graph, NodeId(0), &operands).unwrap();
    bit_patterns(&out)
}

fn bit_patterns(out: &Tensor) -> Vec<u32> {
    match out.as_f32() {
        Ok(values) => values.iter().map(|v| v.to_bits()).collect(),
        Err(_) => out.as_u8().unwrap().iter().map(|&q| u32::from(q)).collect(),
    }
}

/// A 1×1 quantized `Conv2d` over every input code whose requantization
/// multiplier, `(1 + ε)(1 − ε) / 2 = 0.5 − 2⁻⁴⁷`, is `0.5` in `f32`: odd
/// accumulators round one way under `RequantMode::Double` and the other
/// way under `RequantMode::Single`.
fn requant_sensitive_conv() -> Case {
    let per_tensor = |scale, zero_point| QuantParams::PerTensor { scale, zero_point };
    let (shape, x_quant) = (
        Shape::nhwc(1, 16, 16, 1),
        per_tensor(1.0 + f32::EPSILON, 128),
    );
    let mut b = GraphBuilder::new("requant-sensitive");
    let x = b.input_typed("x", shape.clone(), DType::U8, Some(x_quant.clone()));
    let unit = Tensor::from_i8(
        Shape::new(vec![1, 1, 1, 1]),
        vec![1],
        per_tensor(1.0 - f32::EPSILON, 0),
    );
    let w = b.constant("w", unit.unwrap());
    let op = OpKind::Conv2d {
        stride: 1,
        padding: Padding::Valid,
        activation: Activation::None,
    };
    let out_quant = Some(per_tensor(2.0, 128));
    let y = b.push_node("node", op, vec![x, w], shape.clone(), DType::U8, out_quant);
    b.output(y);
    let codes = Tensor::from_u8(shape, (0..=255).collect(), x_quant).unwrap();
    Case {
        graph: b.finish().unwrap(),
        frames: vec![vec![codes]],
    }
}

/// `execute_node_with` runs a node under the whole spec, as the interpreter
/// resolves it: injected defects and emulated numerics reach the node in
/// both builds. The paper-2021 defects on a quantized depthwise node return
/// the i16-accumulator bits; Pixel-4 numerics (`Lanes8` sums, FMA,
/// flush-to-zero, single-precision requantization) on a float and on a
/// quantized `Conv2d` return the emulator interpreter's bits. Each case is
/// one where the spec without its defects or numerics answers other bits.
#[test]
fn isolated_nodes_honour_the_whole_spec() {
    let pixel4 = BackendSpec::emulator(EdgeNumerics {
        accumulation: AccumOrder::Lanes8,
        fused_multiply_add: true,
        flush_to_zero: true,
        requant: RequantMode::Single,
    });
    let buggy = BackendSpec::optimized().with_bugs(KernelBugs::paper_2021());
    let mut state = 7;
    let float_conv = build(
        Op::Conv,
        (3, 3),
        2,
        1,
        Padding::Same,
        11,
        13,
        1,
        false,
        true,
        Activation::Relu,
        |n| draw(&mut state, false, n),
    );
    let cases = [
        (
            "paper-2021 quantized depthwise",
            quantized(Op::Depthwise, 3, 1, 128, false),
            buggy,
            BackendSpec::optimized(),
        ),
        (
            "Pixel-4 quantized conv",
            requant_sensitive_conv(),
            pixel4,
            BackendSpec::reference(),
        ),
        (
            "Pixel-4 float conv",
            float_conv,
            pixel4,
            BackendSpec::reference(),
        ),
    ];
    for (what, case, spec, without) in cases {
        let mut interp = Interpreter::new(&case.graph, spec).unwrap();
        let want = bit_patterns(&interp.invoke(&case.frames[0]).unwrap()[0]);
        assert_ne!(
            run_node(&case, SimdEngine::Scalar, without),
            want,
            "{what}: the case pins nothing"
        );
        for engine in SimdEngine::ALL {
            assert_eq!(run_node(&case, engine, spec), want, "{what}, {engine:?}");
        }
    }
}

/// The `serve_batch` model, `mobilenet_v2@48`, under the Simd flavor: a
/// whole invoke run node by node through `execute_node_with` in each
/// engine's build — on an AVX-512 host its narrow `Conv2d` layers (the
/// stem reading its windows in place, the expansions of 16–64 channels)
/// run the panel rule there and the row-major tiles in the other two —
/// agrees bit for bit with the baseline build at every node, and the
/// interpreter, which packs those panels at build on such a host, returns
/// the same output.
#[test]
fn simd_mobilenet_v2_invoke_agrees_across_builds() {
    let model = mlexray_models::by_name("mobilenet_v2")
        .unwrap()
        .build(48, 8, 1)
        .unwrap();
    let graph = &model.graph;
    let mut state = 45;
    let input = Tensor::from_f32(
        Shape::nhwc(1, 48, 48, 3),
        draw(&mut state, false, 48 * 48 * 3),
    )
    .unwrap();
    let spec = BackendSpec::simd();
    let invoke = |engine| -> Vec<Tensor> {
        let mut values: Vec<Option<Tensor>> = vec![None; graph.tensors().len()];
        values[graph.inputs()[0].0] = Some(input.clone());
        for (i, node) in graph.nodes().iter().enumerate() {
            let operands: Vec<&Tensor> = node
                .inputs
                .iter()
                .map(|&id| match graph.tensor(id).as_constant() {
                    Some(constant) => constant,
                    None => values[id.0].as_ref().expect("produced before it is read"),
                })
                .collect();
            let out = execute_node_with(engine, spec, graph, NodeId(i), &operands).unwrap();
            values[node.output.0] = Some(out);
        }
        graph
            .nodes()
            .iter()
            .map(|node| values[node.output.0].take().unwrap())
            .collect()
    };
    let baseline = invoke(SimdEngine::Scalar);
    for engine in SimdEngine::ALL {
        for (node, (got, want)) in graph
            .nodes()
            .iter()
            .zip(invoke(engine).iter().zip(&baseline))
        {
            let (got, want) = (got.as_f32().unwrap(), want.as_f32().unwrap());
            assert_same_bits(got, want, &format!("{engine:?}, node {}", node.name));
        }
    }
    let out = Interpreter::new(graph, spec)
        .unwrap()
        .invoke(&[input])
        .unwrap();
    let last = baseline.last().unwrap().as_f32().unwrap();
    assert_same_bits(out[0].as_f32().unwrap(), last, "the interpreter");
}

/// The memory plan plans runtime tensors only, never what a kernel keeps,
/// so it depends on neither the flavor nor the CPU. So the Simd flavor —
/// whose wide windowed layers (a ResNet's 3×3s, `k > 64`) once ran an
/// im2col on some engines — plans exactly what the Optimized one plans,
/// slots and buffers, for every zoo family, after a batch-4 invoke,
/// natively and under `MLEXRAY_SIMD=scalar`.
#[test]
fn the_simd_plan_is_the_optimized_plan_on_every_zoo_family() {
    use mlexray_models::{FullFamily, MiniFamily, ZooModel};
    let minis = MiniFamily::ALL.map(ZooModel::Mini);
    for family in FullFamily::ALL.map(ZooModel::Full).into_iter().chain(minis) {
        let model = family.build_scaled(32, 4, 0.25, 3).unwrap();
        let shape = model.graph.tensor(model.graph.inputs()[0]).shape();
        let frame = [Tensor::zeros(DType::F32, shape.clone())];
        let plans = [BackendSpec::simd(), BackendSpec::optimized()].map(|spec| {
            let mut interp = Interpreter::new(&model.graph, spec).unwrap();
            interp.invoke_batch(&[&frame[..]; 4]).unwrap();
            interp.memory_plan().clone()
        });
        assert_eq!(plans[0], plans[1], "{}", family.name());
    }
}
