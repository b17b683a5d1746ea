//! What a warmed interpreter asks of the heap, measured by a counting
//! `#[global_allocator]` instead of the self-reported
//! `InvokeStats::allocations`: the allocation count of an `invoke` must not
//! depend on graph depth (no per-node operand list, no per-node BatchNorm
//! table, no per-node quantized patch matrix, depthwise requant
//! multipliers, activation lookup table or dequantized copy) — in every
//! flavor and under the edge emulator — nor on
//! whether the reference or optimized `Conv2d` packs its weights per
//! invoke, and an interpreter
//! cycled through batch sizes must hold the
//! memory of its largest batch, not the sum over every size it has seen.
//! The default interpreter, whose dead activations hand their buffers on,
//! holds less than half of what a preserving one holds on a deep stack —
//! and reports so in `InvokeStats::arena_bytes` — and a graph whose buffers
//! no machine holds is refused when the interpreter is built.
//!
//! One `#[test]` in a file of its own, so no other test thread allocates
//! while the counters are being read.

use std::sync::atomic::Ordering;

use mlexray_nn::{
    AccumOrder, Activation, BackendSpec, EdgeNumerics, Graph, GraphBuilder, Interpreter,
    KernelBugs, KernelFlavor, NnError, OpKind, Padding, RequantMode, Result,
};
use mlexray_tensor::{DType, QuantParams, Shape, Tensor, TensorError};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{ALLOCATIONS, LIVE_BYTES};

fn filled(dims: Vec<usize>, value: f32) -> Tensor {
    Tensor::filled_f32(Shape::new(dims), value)
}

/// `blocks` residual blocks of conv 3×3 (a bordered-input user) → depthwise →
/// BatchNorm → Act → Add, then Mean → FC: `5 · blocks + 2` nodes whose
/// inputs and outputs do not depend on `blocks`.
fn residual_stack(blocks: usize, side: usize, c: usize) -> Graph {
    let mut b = GraphBuilder::new("stack");
    let mut x = b.input("x", Shape::nhwc(1, side, side, c));
    for i in 0..blocks {
        let w = b.constant(format!("w{i}"), filled(vec![c, 3, 3, c], 0.01));
        let conv = b
            .conv2d(
                format!("conv{i}"),
                x,
                w,
                None,
                1,
                Padding::Same,
                Activation::None,
            )
            .unwrap();
        let dw = b.constant(format!("dw{i}"), filled(vec![1, 3, 3, c], 0.1));
        let depthwise = b
            .depthwise_conv2d(
                format!("dwconv{i}"),
                conv,
                dw,
                None,
                1,
                Padding::Same,
                Activation::None,
            )
            .unwrap();
        let [gamma, beta, mean, var] = ["gamma", "beta", "mean", "var"]
            .map(|name| b.constant(format!("{name}{i}"), filled(vec![c], 0.5)));
        let bn = b
            .batch_norm(format!("bn{i}"), depthwise, gamma, beta, mean, var, 1e-3)
            .unwrap();
        let act = b
            .activation(format!("act{i}"), bn, Activation::Relu6)
            .unwrap();
        x = b.add(format!("add{i}"), act, x, Activation::None).unwrap();
    }
    let gap = b.mean("gap", x).unwrap();
    let wfc = b.constant("wfc", filled(vec![5, c], 0.2));
    let fc = b
        .fully_connected("fc", gap, wfc, None, Activation::None)
        .unwrap();
    b.output(fc);
    b.finish().unwrap()
}

/// One 3×3 `Conv2d` over 13 output channels (an 8-, a 4- and a 1-wide
/// panel) whose weights are a graph constant, or a second graph input.
fn lone_conv(runtime_weights: bool) -> Graph {
    let mut b = GraphBuilder::new("lone-conv");
    let x = b.input("x", Shape::nhwc(1, 6, 6, 8));
    let w = if runtime_weights {
        b.input("w", Shape::new(vec![13, 3, 3, 8]))
    } else {
        b.constant("w", filled(vec![13, 3, 3, 8], 0.01))
    };
    let conv = b
        .conv2d("conv", x, w, None, 1, Padding::Same, Activation::Relu)
        .unwrap();
    b.output(conv);
    b.finish().unwrap()
}

fn per_tensor(scale: f32, zero_point: i32) -> QuantParams {
    QuantParams::PerTensor { scale, zero_point }
}

/// `blocks` quantized 3×3 `Conv2d`s (a bordered-input user each), each followed
/// by a quantized 3×3 depthwise (a requant-multiplier user), a quantized
/// `Act` (a lookup-table user) and a `Dequantize → Quantize` round trip,
/// then Mean → FC: `5 · blocks + 2` nodes whose inputs and outputs do not
/// depend on `blocks`.
fn quantized_stack(blocks: usize) -> Graph {
    let (c, q) = (8, per_tensor(0.05, 10));
    let mut b = GraphBuilder::new("quantized-stack");
    let mut x = b.input_typed(
        "x",
        Shape::nhwc(1, 6, 6, c),
        DType::U8,
        Some(per_tensor(0.02, 128)),
    );
    let weights = |dims: Vec<usize>, quant: QuantParams| {
        let shape = Shape::new(dims);
        let w = (0..shape.num_elements())
            .map(|i| (i % 7) as i8 - 3)
            .collect();
        Tensor::from_i8(shape, w, quant).unwrap()
    };
    // Per-channel scales, as the quantizer gives depthwise weights.
    let per_channel = QuantParams::PerChannel {
        scales: (0..c).map(|ch| 0.01 + ch as f32 * 1e-3).collect(),
        zero_points: vec![0; c],
        axis: 3,
    };
    for i in 0..blocks {
        let w = b.constant(
            format!("w{i}"),
            weights(vec![c, 3, 3, c], per_tensor(0.01, 0)),
        );
        let conv = OpKind::Conv2d {
            stride: 1,
            padding: Padding::Same,
            activation: Activation::Relu,
        };
        let shape = Shape::nhwc(1, 6, 6, c);
        let quant = Some(q.clone());
        x = b.push_node(
            format!("conv{i}"),
            conv,
            vec![x, w],
            shape.clone(),
            DType::U8,
            quant.clone(),
        );
        let w = weights(vec![1, 3, 3, c], per_channel.clone());
        let w = b.constant(format!("dw{i}"), w);
        let depthwise = OpKind::DepthwiseConv2d {
            stride: 1,
            padding: Padding::Same,
            activation: Activation::Relu6,
        };
        x = b.push_node(
            format!("depthwise{i}"),
            depthwise,
            vec![x, w],
            shape.clone(),
            DType::U8,
            quant.clone(),
        );
        x = b.push_node(
            format!("act{i}"),
            OpKind::Act(Activation::HardSwish),
            vec![x],
            shape.clone(),
            DType::U8,
            quant.clone(),
        );
        let real = b.push_node(
            format!("dequantize{i}"),
            OpKind::Dequantize,
            vec![x],
            shape.clone(),
            DType::F32,
            None,
        );
        x = b.push_node(
            format!("quantize{i}"),
            OpKind::Quantize,
            vec![real],
            shape,
            DType::U8,
            quant,
        );
    }
    let gap = b.push_node(
        "gap",
        OpKind::Mean,
        vec![x],
        Shape::matrix(1, c),
        DType::U8,
        Some(q.clone()),
    );
    let wfc = b.constant("wfc", weights(vec![5, c], per_tensor(0.01, 0)));
    let fc = OpKind::FullyConnected {
        activation: Activation::None,
    };
    let fc = b.push_node(
        "fc",
        fc,
        vec![gap, wfc],
        Shape::matrix(1, 5),
        DType::U8,
        Some(q),
    );
    b.output(fc);
    b.finish().unwrap()
}

fn options(flavor: KernelFlavor) -> BackendSpec {
    BackendSpec {
        flavor,
        bugs: KernelBugs::none(),
        numerics: None,
    }
}

/// The three flavors, and the edge emulator under the Pixel-4 numerics
/// (`Lanes8` sums, FMA, flush-to-zero, single-precision requantization).
fn specs() -> [BackendSpec; 4] {
    let pixel4 = BackendSpec::emulator(EdgeNumerics {
        accumulation: AccumOrder::Lanes8,
        fused_multiply_add: true,
        flush_to_zero: true,
        requant: RequantMode::Single,
    });
    [
        options(KernelFlavor::Reference),
        options(KernelFlavor::Optimized),
        options(KernelFlavor::Simd),
        pixel4,
    ]
}

/// Heap allocations performed by one warmed `invoke` of `graph`.
fn allocations_per_invoke(graph: &Graph, spec: BackendSpec, input: &[Tensor]) -> usize {
    let mut interp = Interpreter::new(graph, spec).unwrap();
    for _ in 0..2 {
        interp.invoke(input).unwrap();
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let outputs = interp.invoke(input).unwrap();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    drop(outputs);
    after - before
}

/// How an interpreter is built: [`shared`] or [`preserving`].
type Build = for<'g> fn(&'g Graph, BackendSpec) -> Result<Interpreter<'g>>;

/// [`Interpreter::new`]: dead activations hand their buffers on.
fn shared(graph: &Graph, spec: BackendSpec) -> Result<Interpreter<'_>> {
    Interpreter::new(graph, spec)
}

/// [`Interpreter::preserving`]: every tensor keeps its own buffer.
fn preserving(graph: &Graph, spec: BackendSpec) -> Result<Interpreter<'_>> {
    Interpreter::preserving(graph, spec)
}

/// Bytes an interpreter made by `build` holds after `drive` has run it
/// (outputs dropped).
fn live_bytes_after(
    graph: &Graph,
    build: Build,
    drive: impl FnOnce(&mut Interpreter<'_>),
) -> usize {
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let mut interp = build(graph, options(KernelFlavor::Simd)).unwrap();
    drive(&mut interp);
    let held = LIVE_BYTES.load(Ordering::Relaxed) - before;
    drop(interp);
    held
}

#[test]
fn warmed_invokes_allocate_outputs_only_and_one_arena_serves_every_batch_size() {
    // (1) Allocation count is independent of depth: 7 nodes against 62.
    let input = [filled(vec![1, 6, 6, 8], 0.25)];
    let (shallow, deep) = (residual_stack(1, 6, 8), residual_stack(12, 6, 8));
    assert_eq!((shallow.nodes().len(), deep.nodes().len()), (7, 62));
    for spec in specs() {
        let few = allocations_per_invoke(&shallow, spec, &input);
        let many = allocations_per_invoke(&deep, spec, &input);
        assert_eq!(
            few, many,
            "{spec:?}: a warmed invoke allocated {few} times on 7 nodes but {many} on 62"
        );
    }

    // (1b) Reference and optimized `Conv2d` weights that are a runtime
    // tensor are packed on every invoke, into a buffer the interpreter keeps:
    // a warmed invoke allocates what it does when the weights are baked in.
    let fed = [input[0].clone(), filled(vec![13, 3, 3, 8], 0.01)];
    for flavor in [KernelFlavor::Reference, KernelFlavor::Optimized] {
        let spec = options(flavor);
        let baked = allocations_per_invoke(&lone_conv(false), spec, &input);
        let packed = allocations_per_invoke(&lone_conv(true), spec, &fed);
        assert_eq!(
            baked, packed,
            "a warmed {flavor:?} invoke allocated {packed} times packing runtime weights, \
             {baked} without"
        );
    }

    // (1c) A quantized `Conv2d` builds its patch matrix, and a quantized
    // depthwise its requant multipliers, in buffers the interpreter keeps,
    // a quantized `Act` its lookup table on the stack, and a `Dequantize`
    // writes straight into its output slot, in every flavor: a warmed
    // invoke allocates as often behind one quantized block as behind
    // twelve.
    let codes: Vec<u8> = (0..6 * 6 * 8).map(|i| (i * 37 % 256) as u8).collect();
    let shape = Shape::nhwc(1, 6, 6, 8);
    let codes = [Tensor::from_u8(shape, codes, per_tensor(0.02, 128)).unwrap()];
    let (shallow, deep) = (quantized_stack(1), quantized_stack(12));
    assert_eq!((shallow.nodes().len(), deep.nodes().len()), (7, 62));
    for spec in specs() {
        let few = allocations_per_invoke(&shallow, spec, &codes);
        let many = allocations_per_invoke(&deep, spec, &codes);
        assert_eq!(
            few, many,
            "{spec:?}: a warmed quantized invoke allocated {few} times on 7 nodes but {many} \
             on 62"
        );
    }

    // (2) One arena: the ladder 1..=8, twice, ends holding what batch 8 alone
    // holds.
    let graph = residual_stack(4, 16, 16);
    let samples: Vec<Vec<Tensor>> = (0..8)
        .map(|i| vec![filled(vec![1, 16, 16, 16], i as f32 * 0.1)])
        .collect();
    let batch = |interp: &mut Interpreter<'_>, n: usize| {
        let refs: Vec<&[Tensor]> = samples[..n].iter().map(Vec::as_slice).collect();
        interp.invoke_batch(&refs).unwrap();
    };
    let single = live_bytes_after(&graph, shared, |interp| batch(interp, 1));
    let mut reported = [0; 2];
    let eight = live_bytes_after(&graph, shared, |interp| {
        batch(interp, 8);
        reported[0] = interp.last_stats().unwrap().arena_bytes;
    });
    let ladder = live_bytes_after(&graph, shared, |interp| {
        for _ in 0..2 {
            for n in 1..=8 {
                batch(interp, n);
            }
        }
    });
    assert!(
        eight > 4 * single,
        "batch 8 must dominate: {eight} vs {single}"
    );
    assert!(
        ladder.abs_diff(eight) * 20 <= eight,
        "after batches 1..=8 twice the interpreter holds {ladder} B, batch 8 alone {eight} B"
    );

    // (3) Dead activations hand their buffers on: at batch 8 the default
    // interpreter holds less than half of what one keeping every tensor
    // does, and the arena bytes each reports say the same.
    let preserved = live_bytes_after(&graph, preserving, |interp| {
        batch(interp, 8);
        reported[1] = interp.last_stats().unwrap().arena_bytes;
    });
    assert!(
        eight * 2 < preserved,
        "at batch 8 the default interpreter holds {eight} B, a preserving one {preserved} B"
    );
    assert!(
        reported[0] * 2 < reported[1],
        "at batch 8 the default interpreter reports {} B, a preserving one {} B",
        reported[0],
        reported[1]
    );

    // (4) An intermediate of 2^61 bytes — a one-pixel input padded to
    // 2^30 × 2^29 f32, then averaged back to one value — is refused when
    // the interpreter is built, by either constructor, not at its first
    // invoke; the refused request leaves the live count where it stood.
    let mut b = GraphBuilder::new("huge");
    let x = b.input("x", Shape::nhwc(1, 1, 1, 1));
    let wide = b
        .pad("wide", x, (1 << 30) - 1, 0, (1 << 29) - 1, 0)
        .unwrap();
    let y = b.mean("gap", wide).unwrap();
    b.output(y);
    let huge = b.finish().unwrap();
    let builds: [Build; 2] = [shared, preserving];
    for build in builds {
        let before = LIVE_BYTES.load(Ordering::Relaxed);
        let err = build(&huge, BackendSpec::optimized()).unwrap_err();
        let after = LIVE_BYTES.load(Ordering::Relaxed);
        assert!(
            after.abs_diff(before) < 1 << 20,
            "live bytes {before} → {after} across a refused build"
        );
        assert!(
            matches!(
                err,
                NnError::Tensor(TensorError::AllocationRefused { elements, .. })
                    if elements == 1 << 59
            ),
            "{err}"
        );
    }
}
