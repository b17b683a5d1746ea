//! An interpreter whose re-fit to a larger batch the allocator refuses keeps
//! serving: the refused `invoke_batch` answers `AllocationRefused`, the next
//! single invoke re-fits every buffer to one frame and answers the bits a
//! fresh interpreter answers, and the same batch runs once the allocator
//! grants it. The same holds when what the allocator refuses is a buffer a
//! kernel keeps, not one the plan holds: the int8 `Conv2d`'s input bordered
//! with its zero point.
//!
//! One `#[test]` in a file of its own: the `#[global_allocator]` below
//! refuses every request over a cap while the cap is set, on every thread
//! of the binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mlexray_nn::{
    Activation, BackendSpec, Graph, GraphBuilder, Interpreter, NnError, OpKind, Padding, Result,
};
use mlexray_tensor::{DType, QuantParams, Shape, Tensor, TensorData, TensorError};

/// Largest single request the allocator grants; `usize::MAX` lifts the cap.
static CAP: AtomicUsize = AtomicUsize::new(usize::MAX);

struct Capped;

// SAFETY: every granted request is forwarded unchanged to `System`; a
// refused one returns null, which the `GlobalAlloc` contract allows.
unsafe impl GlobalAlloc for Capped {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() > CAP.load(Ordering::Relaxed) {
            return std::ptr::null_mut();
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > CAP.load(Ordering::Relaxed) {
            return std::ptr::null_mut();
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Capped = Capped;

/// `x → c0 → c1 → c2 → c → y`, pointwise convolutions over a 4×4 frame of
/// 8 channels but for `c`'s 256: 16 KiB a frame, the one buffer over
/// 100 KiB at 8 frames, and re-fitted after `c0`'s and `c1`'s.
fn chain() -> Graph {
    let mut b = GraphBuilder::new("chain");
    let mut x = b.input("x", Shape::nhwc(1, 4, 4, 8));
    for (i, (out_c, in_c)) in [(8, 8), (8, 8), (8, 8), (256, 8), (8, 256)]
        .into_iter()
        .enumerate()
    {
        let w = (0..out_c * in_c).map(|j| (j % 13) as f32 * 0.01 - 0.06);
        let w = Tensor::from_f32(Shape::new(vec![out_c, 1, 1, in_c]), w.collect()).unwrap();
        let w = b.constant(format!("w{i}"), w);
        x = b
            .conv2d(
                format!("c{i}"),
                x,
                w,
                None,
                1,
                Padding::Same,
                Activation::Relu,
            )
            .unwrap();
    }
    b.output(x);
    b.finish().unwrap()
}

/// An int8 3×3 SAME `Conv2d` over an 8×8 frame of 160 channels: its input
/// is 80 KiB staged at 8 frames, its zero-point-bordered copy 125 KiB, the
/// one buffer over 100 KiB.
fn int8_conv() -> (Graph, Tensor) {
    let per_tensor = |scale, zero_point| QuantParams::PerTensor { scale, zero_point };
    let shape = Shape::nhwc(1, 8, 8, 160);
    let mut b = GraphBuilder::new("int8-conv");
    let x = b.input_typed("x", shape.clone(), DType::U8, Some(per_tensor(0.02, 128)));
    let w = (0..8 * 3 * 3 * 160).map(|j| (j % 7) as i8 - 3).collect();
    let w = Tensor::from_i8(Shape::new(vec![8, 3, 3, 160]), w, per_tensor(0.01, 0)).unwrap();
    let w = b.constant("w", w);
    let conv = OpKind::Conv2d {
        stride: 1,
        padding: Padding::Same,
        activation: Activation::Relu,
    };
    let y = b.push_node(
        "conv",
        conv,
        vec![x, w],
        Shape::nhwc(1, 8, 8, 8),
        DType::U8,
        Some(per_tensor(0.05, 10)),
    );
    b.output(y);
    let codes = (0..shape.num_elements()).map(|i| (i * 37 % 256) as u8);
    let frame = Tensor::from_u8(shape, codes.collect(), per_tensor(0.02, 128)).unwrap();
    (b.finish().unwrap(), frame)
}

fn bits(outputs: &[Tensor]) -> Vec<u32> {
    outputs
        .iter()
        .flat_map(|t| -> Vec<u32> {
            match t.data() {
                TensorData::F32(v) => v.iter().map(|v| v.to_bits()).collect(),
                TensorData::U8(v) => v.iter().map(|&v| u32::from(v)).collect(),
                other => panic!("unexpected output {other:?}"),
            }
        })
        .collect()
}

#[test]
fn a_refused_batch_leaves_the_interpreter_serving() {
    let values = (0..4 * 4 * 8).map(|i| (i % 7) as f32 * 0.25 - 0.5);
    let float = Tensor::from_f32(Shape::nhwc(1, 4, 4, 8), values.collect()).unwrap();
    let (int8_graph, int8_frame) = int8_conv();
    for (graph, frame) in [(chain(), float), (int8_graph, int8_frame)] {
        refused_batch_leaves_serving(&graph, [frame]);
    }
}

fn refused_batch_leaves_serving(graph: &Graph, frame: [Tensor; 1]) {
    let batch = vec![&frame[..]; 8];
    let spec = BackendSpec::simd();
    let fresh = bits(
        &Interpreter::new(graph, spec)
            .unwrap()
            .invoke(&frame)
            .unwrap(),
    );

    type Build = for<'g> fn(&'g Graph, BackendSpec) -> Result<Interpreter<'g>>;
    let builds: [Build; 2] = [
        |graph, spec| Interpreter::new(graph, spec),
        |graph, spec| Interpreter::preserving(graph, spec),
    ];
    for build in builds {
        let mut interp = build(graph, spec).unwrap();
        assert_eq!(bits(&interp.invoke(&frame).unwrap()), fresh);

        CAP.store(100 << 10, Ordering::Relaxed);
        let refused = interp.invoke_batch(&batch).map(|_| ());
        CAP.store(usize::MAX, Ordering::Relaxed);
        assert!(
            matches!(
                refused,
                Err(NnError::Tensor(TensorError::AllocationRefused { .. }))
            ),
            "{refused:?}"
        );

        let again = interp
            .invoke(&frame)
            .expect("a refused batch must leave single invokes working");
        assert_eq!(bits(&again), fresh, "after the refusal");
        let outputs = interp
            .invoke_batch(&batch)
            .expect("the batch runs once the allocator grants it");
        assert_eq!(outputs.len(), 8);
        for frame in &outputs {
            assert_eq!(bits(frame), fresh, "a frame of the granted batch");
        }
    }
}
