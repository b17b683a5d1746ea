//! Cross-engine bitwise property suite for the native float kernels: the
//! reference `Conv2d`, the optimized and Simd `Conv2d` / `FullyConnected`
//! and the depthwise kernel every native flavor shares are each one body
//! compiled twice — for the x86-64 baseline and for AVX2+FMA — and the two
//! builds must return the same bits. In one process, through the engine-explicit entry
//! point `simd::execute_node_with` (what `dot_f32_with` is to the dot), every
//! case runs each flavor under both builds, and then through an
//! `Interpreter`, which reads the process's engine and packs constant
//! weights at build and runtime weights per invoke.
//!
//! Cases: window sides 1–5, strides 1 and 2, SAME and VALID, channel counts
//! that are no multiple of 8 (and some that are), every 8/4/1 panel mix,
//! stacked batches, weights that are a graph constant or a runtime input,
//! with and without bias, every activation, over values that include ±0,
//! subnormals, ±∞ and NaN, and reductions of length zero. On a CPU without
//! AVX2 both requests run the baseline build and the suite still holds;
//! `scripts/ci-local.sh kernel-simd` runs it natively and under
//! `MLEXRAY_SIMD=scalar`.

use proptest::prelude::*;

use mlexray_nn::simd::{execute_node_with, SimdEngine};
use mlexray_nn::{
    Activation, BackendSpec, Graph, GraphBuilder, Interpreter, KernelBugs, KernelFlavor, NodeId,
    Padding,
};
use mlexray_tensor::{Shape, Tensor};

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

/// Both builds of every flavor agree, and the interpreter — which packs
/// constant weights at build, runtime weights per invoke, and runs the
/// process's engine — agrees with them. Returns each flavor's output.
fn assert_builds_agree(case: &Case, what: &str) -> Vec<(KernelFlavor, Vec<f32>)> {
    let operands = case.operands();
    let operands: Vec<&Tensor> = operands.iter().collect();
    let mut outputs = Vec::new();
    for flavor in FLAVORS {
        let run = |engine| {
            let out = execute_node_with(engine, flavor, &case.graph, NodeId(0), &operands).unwrap();
            out.as_f32().unwrap().to_vec()
        };
        let avx2 = run(SimdEngine::Avx2Fma);
        let baseline = run(SimdEngine::Scalar);
        let what = format!("{flavor:?} {what}");
        assert_same_bits(&avx2, &baseline, &what);

        let spec = BackendSpec {
            flavor,
            bugs: KernelBugs::none(),
            numerics: None,
        };
        let mut interp = Interpreter::new(&case.graph, spec).unwrap();
        let frames: Vec<&[Tensor]> = case.frames.iter().map(Vec::as_slice).collect();
        let interpreted: Vec<f32> = interp
            .invoke_batch(&frames)
            .unwrap()
            .iter()
            .flat_map(|outs| outs[0].as_f32().unwrap().to_vec())
            .collect();
        assert_same_bits(&interpreted, &baseline, &format!("interpreter, {what}"));
        outputs.push((flavor, baseline));
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
            for (flavor, out) in assert_builds_agree(&case, &what) {
                assert!(!out.is_empty(), "{flavor:?} {what}");
                for (i, v) in out.iter().enumerate() {
                    let want = if with_bias {
                        (i % 13) as f32 + 0.5
                    } else {
                        0.0
                    };
                    assert_eq!(v.to_bits(), want.to_bits(), "{flavor:?} {what}: output {i}");
                }
            }
        }
    }
}

/// Positive weights, a `-0.0` bias and `-0.0` inputs make every product
/// `-0.0`, so each output's sign is decided by where its sum starts: a
/// reference `Conv2d` or depthwise sum starts from the bias and skips
/// padding taps, so it stays `-0.0`; a blocked-4, `Lanes8` or reference FC
/// sum starts from `+0.0` and adds the bias last, so it ends `+0.0`. In
/// both builds, at the border and inside.
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
            for (flavor, out) in assert_builds_agree(&case, &what) {
                let from_bias = matches!(op, Op::Depthwise)
                    || (matches!(op, Op::Conv) && flavor == KernelFlavor::Reference);
                let want = if from_bias { -0.0f32 } else { 0.0 };
                assert!(
                    out.iter().all(|v| v.to_bits() == want.to_bits()),
                    "{flavor:?} {what}: want every output {want:?}, got {out:?}"
                );
            }
        }
    }
}
