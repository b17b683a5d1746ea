//! What a warmed interpreter asks of the heap, measured by a counting
//! `#[global_allocator]` instead of the self-reported
//! `InvokeStats::allocations`: the allocation count of an `invoke` must not
//! depend on graph depth (no per-node operand list, no per-node BatchNorm
//! table) nor on whether the reference or optimized `Conv2d` packs its
//! weights per invoke,
//! and an interpreter cycled through batch sizes must hold the
//! memory of its largest batch, not the sum over every size it has seen.
//!
//! One `#[test]` in a file of its own, so no other test thread allocates
//! while the counters are being read.

use std::sync::atomic::Ordering;

use mlexray_nn::{
    Activation, BackendSpec, Graph, GraphBuilder, Interpreter, KernelBugs, KernelFlavor, Padding,
};
use mlexray_tensor::{Shape, Tensor};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{ALLOCATIONS, LIVE_BYTES};

fn filled(dims: Vec<usize>, value: f32) -> Tensor {
    Tensor::filled_f32(Shape::new(dims), value)
}

/// `blocks` residual blocks of conv 3×3 (an im2col user) → depthwise →
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

fn options(flavor: KernelFlavor) -> BackendSpec {
    BackendSpec {
        flavor,
        bugs: KernelBugs::none(),
        numerics: None,
    }
}

/// Heap allocations performed by one warmed `invoke` of `graph`.
fn allocations_per_invoke(graph: &Graph, flavor: KernelFlavor, input: &[Tensor]) -> usize {
    let mut interp = Interpreter::new(graph, options(flavor)).unwrap();
    for _ in 0..2 {
        interp.invoke(input).unwrap();
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let outputs = interp.invoke(input).unwrap();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    drop(outputs);
    after - before
}

/// Bytes the interpreter holds after `drive` has run it (outputs dropped).
fn live_bytes_after(graph: &Graph, drive: impl FnOnce(&mut Interpreter<'_>)) -> usize {
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let mut interp = Interpreter::new(graph, options(KernelFlavor::Simd)).unwrap();
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
    for flavor in [
        KernelFlavor::Reference,
        KernelFlavor::Optimized,
        KernelFlavor::Simd,
    ] {
        let few = allocations_per_invoke(&shallow, flavor, &input);
        let many = allocations_per_invoke(&deep, flavor, &input);
        assert_eq!(
            few, many,
            "{flavor:?}: a warmed invoke allocated {few} times on 7 nodes but {many} on 62"
        );
    }

    // (1b) Reference and optimized `Conv2d` weights that are a runtime
    // tensor are packed on every invoke, into a buffer the interpreter keeps:
    // a warmed invoke allocates what it does when the weights are baked in.
    let fed = [input[0].clone(), filled(vec![13, 3, 3, 8], 0.01)];
    for flavor in [KernelFlavor::Reference, KernelFlavor::Optimized] {
        let baked = allocations_per_invoke(&lone_conv(false), flavor, &input);
        let packed = allocations_per_invoke(&lone_conv(true), flavor, &fed);
        assert_eq!(
            baked, packed,
            "a warmed {flavor:?} invoke allocated {packed} times packing runtime weights, \
             {baked} without"
        );
    }

    // (2) One arena: the ladder 1..=8, twice, ends holding what batch 8 alone
    // holds, and releasing returns to the single-invoke footprint.
    let graph = residual_stack(4, 16, 16);
    let samples: Vec<Vec<Tensor>> = (0..8)
        .map(|i| vec![filled(vec![1, 16, 16, 16], i as f32 * 0.1)])
        .collect();
    let batch = |interp: &mut Interpreter<'_>, n: usize| {
        let refs: Vec<&[Tensor]> = samples[..n].iter().map(Vec::as_slice).collect();
        interp.invoke_batch(&refs).unwrap();
    };
    let single = live_bytes_after(&graph, |interp| batch(interp, 1));
    let eight = live_bytes_after(&graph, |interp| batch(interp, 8));
    let ladder = live_bytes_after(&graph, |interp| {
        for _ in 0..2 {
            for n in 1..=8 {
                batch(interp, n);
            }
        }
    });
    let released = live_bytes_after(&graph, |interp| {
        for n in 1..=8 {
            batch(interp, n);
        }
        interp.release_batched_arenas();
    });
    assert!(
        eight > 4 * single,
        "batch 8 must dominate: {eight} vs {single}"
    );
    assert!(
        ladder.abs_diff(eight) * 20 <= eight,
        "after batches 1..=8 twice the interpreter holds {ladder} B, batch 8 alone {eight} B"
    );
    assert!(
        released.abs_diff(single) * 20 <= single,
        "after release the interpreter holds {released} B, a single invoke {single} B"
    );
}
