//! Shared random-graph generators for the nn integration suites
//! (`batch_equivalence` and `backend_differential`).
#![allow(dead_code)]

use rand::rngs::SmallRng;
use rand::Rng;

use mlexray_nn::{Activation, Graph, GraphBuilder, Padding};
use mlexray_tensor::{Shape, Tensor};

/// A random tensor with values in `[-1.5, 1.5)`.
pub fn rand_tensor(rng: &mut SmallRng, shape: Shape) -> Tensor {
    let n = shape.num_elements();
    let data: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.5..1.5f32)).collect();
    Tensor::from_f32(shape, data).expect("length matches")
}

/// A random fused activation.
pub fn pick_act(rng: &mut SmallRng) -> Activation {
    match rng.gen_range(0..4) {
        0 => Activation::None,
        1 => Activation::Relu,
        2 => Activation::Relu6,
        _ => Activation::HardSwish,
    }
}

/// Builds a random small image graph out of batch-safe and batch-unsafe ops
/// alike (conv, depthwise, pooling, padding, add, squeeze-excite gate, mean
/// + fc + softmax head), plus the input shape it expects.
pub fn random_graph(rng: &mut SmallRng) -> (Graph, Shape) {
    let h = rng.gen_range(4..7usize);
    let c = rng.gen_range(1..4usize);
    let in_shape = Shape::nhwc(1, h, h, c);
    let mut b = GraphBuilder::new("prop");
    let mut cur = b.input("x", in_shape.clone());
    let mut cur_c = c;
    for i in 0..rng.gen_range(1..4usize) {
        match rng.gen_range(0..7u8) {
            0 | 1 => {
                let out_c = rng.gen_range(1..5usize);
                let k = rng.gen_range(1..4usize);
                let stride = rng.gen_range(1..3usize);
                let act = pick_act(rng);
                let w = b.constant(
                    format!("w{i}"),
                    rand_tensor(rng, Shape::new(vec![out_c, k, k, cur_c])),
                );
                let bias = rng
                    .gen_bool(0.5)
                    .then(|| b.constant(format!("b{i}"), rand_tensor(rng, Shape::vector(out_c))));
                cur = b
                    .conv2d(format!("conv{i}"), cur, w, bias, stride, Padding::Same, act)
                    .expect("conv with Same padding always fits");
                cur_c = out_c;
            }
            2 => {
                let w = b.constant(
                    format!("w{i}"),
                    rand_tensor(rng, Shape::new(vec![1, 3, 3, cur_c])),
                );
                cur = b
                    .depthwise_conv2d(
                        format!("dw{i}"),
                        cur,
                        w,
                        None,
                        1,
                        Padding::Same,
                        pick_act(rng),
                    )
                    .expect("depthwise with Same padding always fits");
            }
            3 => {
                cur = b
                    .avg_pool2d(format!("ap{i}"), cur, 2, 2, 2, Padding::Same)
                    .expect("Same pooling always fits");
            }
            4 => {
                cur = b
                    .max_pool2d(format!("mp{i}"), cur, 2, 2, 2, Padding::Same)
                    .expect("Same pooling always fits");
            }
            5 => {
                cur = b
                    .pad(format!("pad{i}"), cur, 1, 0, 1, 1)
                    .expect("padding a 4-D tensor");
            }
            _ => {
                let shift = b.constant(format!("s{i}"), rand_tensor(rng, Shape::vector(cur_c)));
                cur = b
                    .add(format!("add{i}"), cur, shift, pick_act(rng))
                    .expect("suffix broadcast");
            }
        }
    }
    if rng.gen_bool(0.7) {
        let m = b.mean("gap", cur).expect("rank-4 mean");
        let classes = rng.gen_range(2..5usize);
        let w = b.constant("wfc", rand_tensor(rng, Shape::matrix(classes, cur_c)));
        let fc = b
            .fully_connected("fc", m, w, None, Activation::None)
            .expect("matching features");
        cur = b.softmax("softmax", fc).expect("softmax");
    }
    b.output(cur);
    (b.finish().expect("generated graph validates"), in_shape)
}

/// Builds a random small image graph whose activations outlive their
/// producers' successors: besides convolutions, depthwise convolutions and
/// standalone activations over any live activation, residual `Add`s of two
/// live activations and channel `Concat`s; sometimes a second graph output
/// read by later nodes, an axis-0 `Concat` that makes the graph
/// non-batchable (per-frame fallback) and activations no node reads. Plus
/// the input shape it expects. Every op has a quantized kernel.
pub fn random_dag(rng: &mut SmallRng) -> (Graph, Shape) {
    let h = rng.gen_range(3..6usize);
    let c = rng.gen_range(1..4usize);
    let in_shape = Shape::nhwc(1, h, h, c);
    let mut b = GraphBuilder::new("dag");
    let x = b.input("x", in_shape.clone());
    // Live activations and their channel counts; every op keeps h × h.
    let mut live = vec![(x, c)];
    for i in 0..rng.gen_range(2..8usize) {
        let (src, src_c) = live[rng.gen_range(0..live.len())];
        let partner = |rng: &mut SmallRng, want: Option<usize>| {
            let fits: Vec<_> = live
                .iter()
                .filter(|&&(_, pc)| want.is_none_or(|w| w == pc))
                .copied()
                .collect();
            fits[rng.gen_range(0..fits.len())]
        };
        let next = match rng.gen_range(0..5u8) {
            0 => {
                let out_c = if rng.gen_bool(0.5) {
                    src_c
                } else {
                    rng.gen_range(1..5usize)
                };
                let k = [1, 3][rng.gen_range(0..2usize)];
                let w = b.constant(
                    format!("w{i}"),
                    rand_tensor(rng, Shape::new(vec![out_c, k, k, src_c])),
                );
                let act = pick_act(rng);
                let y = b
                    .conv2d(format!("conv{i}"), src, w, None, 1, Padding::Same, act)
                    .expect("stride-1 Same conv");
                (y, out_c)
            }
            1 => {
                let w = b.constant(
                    format!("w{i}"),
                    rand_tensor(rng, Shape::new(vec![1, 3, 3, src_c])),
                );
                let act = pick_act(rng);
                let y = b
                    .depthwise_conv2d(format!("dw{i}"), src, w, None, 1, Padding::Same, act)
                    .expect("stride-1 Same depthwise");
                (y, src_c)
            }
            2 => {
                let act = [Activation::Relu, Activation::Relu6, Activation::HardSwish]
                    [rng.gen_range(0..3usize)];
                let y = b
                    .activation(format!("act{i}"), src, act)
                    .expect("standalone activation");
                (y, src_c)
            }
            3 => {
                let (other, _) = partner(rng, Some(src_c));
                let y = b
                    .add(format!("add{i}"), src, other, pick_act(rng))
                    .expect("same-shape residual add");
                (y, src_c)
            }
            _ => {
                let (other, other_c) = partner(rng, None);
                let y = b
                    .concat(format!("cat{i}"), &[src, other], 3)
                    .expect("channel concat");
                (y, src_c + other_c)
            }
        };
        live.push(next);
    }
    let (mut cur, cur_c) = *live.last().expect("the input is live");
    if rng.gen_bool(0.3) && live.len() > 2 {
        // An intermediate that is also a graph output.
        b.output(live[rng.gen_range(1..live.len() - 1)].0);
    }
    if rng.gen_bool(0.3) {
        cur = b.concat("frames", &[cur, cur], 0).expect("axis-0 concat");
    }
    if rng.gen_bool(0.6) {
        let m = b.mean("gap", cur).expect("rank-4 mean");
        let classes = rng.gen_range(2..5usize);
        let w = b.constant("wfc", rand_tensor(rng, Shape::matrix(classes, cur_c)));
        let fc = b
            .fully_connected("fc", m, w, None, Activation::None)
            .expect("matching features");
        cur = b.softmax("softmax", fc).expect("softmax");
    }
    b.output(cur);
    (b.finish().expect("generated graph validates"), in_shape)
}

/// One random input set per frame for a generated graph.
pub fn sample_batch(rng: &mut SmallRng, shape: &Shape, n: usize) -> Vec<Vec<Tensor>> {
    (0..n)
        .map(|_| vec![rand_tensor(rng, shape.clone())])
        .collect()
}

/// Which injectable kernel defect a generated graph must carry an eligible
/// site for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BugSite {
    /// A quantized depthwise convolution — the optimized i16-accumulator
    /// defect's target.
    Dwconv,
    /// A quantized `AveragePool2d` with window area >= 16 — the
    /// double-division defect's target (small windows are unaffected).
    AvgPool16,
    /// A float convolution whose reduction depth is not a multiple of the
    /// 8-wide SIMD lane count — the `simd_gemm_k_tail_skip` tile-boundary
    /// defect's target. The generated prefix is GEMM-free (no conv/fc),
    /// so under the injected defect the target is the unique
    /// first-divergent layer and the prefix stays bitwise clean.
    SimdKTail,
}

impl BugSite {
    /// Name of the target node [`random_graph_with_site`] inserts.
    pub fn layer_name(self) -> &'static str {
        match self {
            BugSite::Dwconv => "target_dw",
            BugSite::AvgPool16 => "target_ap",
            BugSite::SimdKTail => "target_conv",
        }
    }
}

/// Builds a random image graph guaranteed to contain exactly one layer
/// eligible for the given [`BugSite`] (named [`BugSite::layer_name`]), with
/// a random spatial-preserving prefix before it and the usual mean/fc
/// /softmax head after it. The prefix never contains a depthwise conv or a
/// large-window average pool, so under an injected defect the target is the
/// unique first-divergent candidate.
pub fn random_graph_with_site(rng: &mut SmallRng, site: BugSite) -> (Graph, Shape) {
    let h = rng.gen_range(8..11usize);
    let c = rng.gen_range(2..4usize);
    let in_shape = Shape::nhwc(1, h, h, c);
    let mut b = GraphBuilder::new("prop_site");
    let mut cur = b.input("x", in_shape.clone());
    let mut cur_c = c;
    // The SIMD K-tail defect fires in *any* float GEMM whose depth is
    // ragged, so its prefix must stay GEMM-free to keep the target the
    // unique first-divergent layer.
    let prefix_arms = if site == BugSite::SimdKTail {
        1..3u8
    } else {
        0..3u8
    };
    for i in 0..rng.gen_range(0..3usize) {
        match rng.gen_range(prefix_arms.clone()) {
            0 => {
                let out_c = rng.gen_range(2..5usize);
                let k = rng.gen_range(1..4usize);
                let w = b.constant(
                    format!("w{i}"),
                    rand_tensor(rng, Shape::new(vec![out_c, k, k, cur_c])),
                );
                // Stride 1 + Same keeps the spatial size >= the 4x4 the
                // avg-pool site needs.
                cur = b
                    .conv2d(
                        format!("conv{i}"),
                        cur,
                        w,
                        None,
                        1,
                        Padding::Same,
                        pick_act(rng),
                    )
                    .expect("stride-1 Same conv fits");
                cur_c = out_c;
            }
            1 => {
                cur = b
                    .max_pool2d(format!("mp{i}"), cur, 2, 2, 1, Padding::Same)
                    .expect("stride-1 Same pooling fits");
            }
            _ => {
                let shift = b.constant(format!("s{i}"), rand_tensor(rng, Shape::vector(cur_c)));
                cur = b
                    .add(format!("add{i}"), cur, shift, pick_act(rng))
                    .expect("suffix broadcast");
            }
        }
    }
    match site {
        BugSite::Dwconv => {
            // Wide weights push quantized products toward the i16 overflow
            // the injected defect wraps on.
            let w = b.constant(
                "target_w",
                rand_tensor(rng, Shape::new(vec![1, 3, 3, cur_c])),
            );
            cur = b
                .depthwise_conv2d(
                    site.layer_name(),
                    cur,
                    w,
                    None,
                    1,
                    Padding::Same,
                    Activation::None,
                )
                .expect("depthwise with Same padding fits");
        }
        BugSite::AvgPool16 => {
            cur = b
                .avg_pool2d(site.layer_name(), cur, 4, 4, 4, Padding::Valid)
                .expect("spatial size stays >= 4 through the prefix");
        }
        BugSite::SimdKTail => {
            // 3x3 over 2..4 channels: reduction depth K = 9*c ∈ {18, 27} —
            // never a multiple of the 8-wide lane count, so the SIMD GEMM
            // always takes (and, bugged, always truncates) the K tail.
            let out_c = rng.gen_range(2..5usize);
            let w = b.constant(
                "target_w",
                rand_tensor(rng, Shape::new(vec![out_c, 3, 3, cur_c])),
            );
            cur = b
                .conv2d(
                    site.layer_name(),
                    cur,
                    w,
                    None,
                    1,
                    Padding::Same,
                    Activation::None,
                )
                .expect("stride-1 Same conv fits");
            cur_c = out_c;
        }
    }
    let m = b.mean("gap", cur).expect("rank-4 mean");
    let classes = rng.gen_range(2..5usize);
    let w = b.constant("wfc", rand_tensor(rng, Shape::matrix(classes, cur_c)));
    let fc = b
        .fully_connected("fc", m, w, None, Activation::None)
        .expect("matching features");
    cur = b.softmax("softmax", fc).expect("softmax");
    b.output(cur);
    (b.finish().expect("generated graph validates"), in_shape)
}
