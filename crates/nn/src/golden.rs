//! Golden kernel regression fixtures.
//!
//! One [`GoldenCase`] per `(op, dtype)` dispatch arm of the kernel layer
//! (plus the injected-bug arms): a tiny deterministic graph, deterministic
//! inputs, and the flavors the recorded output is checked against. The
//! checked-in JSON goldens under `crates/nn/goldens/` hold outputs as exact
//! bit patterns; the `golden_kernels` integration test fails on **any
//! bitwise change** to reference kernels and any **tolerance-exceeding
//! change** to optimized ones. Regenerate after an intentional kernel change
//! with `cargo run -p mlexray-nn --bin golden_gen`.
//!
//! Inputs come from a seeded xorshift generator (no external RNG), so the
//! generator binary and the test rebuild identical cases.

use std::path::PathBuf;

use serde::{Deserialize, Serialize};

use mlexray_tensor::{DType, QuantParams, Shape, Tensor, TensorData};

use crate::backend::BackendSpec;
use crate::graph::{Graph, GraphBuilder, TensorId};
use crate::interpreter::Interpreter;
use crate::ops::{Activation, OpKind, Padding};
use crate::resolver::{AccumOrder, EdgeNumerics, KernelBugs, KernelFlavor, RequantMode};
use crate::Result;

/// The directory the checked-in goldens live in.
pub fn goldens_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("goldens")
}

/// One kernel dispatch arm pinned by a golden: a deterministic graph +
/// inputs, and the `(flavor, tolerance)` pairs to verify. The golden file is
/// recorded from the **first** listed flavor; `0.0` tolerance means bitwise
/// (integer outputs always compare bitwise).
pub struct GoldenCase {
    /// File stem and display name (`conv2d_f32`, `dwconv_q_bug`, ...).
    pub name: String,
    /// Injected defects active for this case.
    pub bugs: KernelBugs,
    /// Edge-emulator numerics active for this case (`None` for the native
    /// dispatch arms).
    pub numerics: Option<EdgeNumerics>,
    /// Flavors to check against the recorded golden, with their allowed
    /// absolute deviation (scaled by `max(1, |golden|)` for f32).
    pub flavors: Vec<(KernelFlavor, f32)>,
    /// The one-node (or boundary) graph under test.
    pub graph: Graph,
    /// Deterministic invoke inputs.
    pub inputs: Vec<Tensor>,
}

impl GoldenCase {
    /// Path of this case's golden file.
    pub fn path(&self) -> PathBuf {
        goldens_dir().join(format!("{}.json", self.name))
    }

    /// Runs the case under `flavor` and returns the graph outputs.
    ///
    /// # Errors
    ///
    /// Propagates interpreter errors.
    pub fn run(&self, flavor: KernelFlavor) -> Result<Vec<Tensor>> {
        let mut interp = Interpreter::new(
            &self.graph,
            BackendSpec {
                flavor,
                bugs: self.bugs,
                numerics: self.numerics,
            },
        )?;
        interp.invoke(&self.inputs)
    }

    /// Records the golden for this case (first listed flavor).
    ///
    /// # Errors
    ///
    /// Propagates interpreter errors.
    pub fn record(&self) -> Result<GoldenRecord> {
        let outputs = self.run(self.flavors[0].0)?;
        Ok(GoldenRecord {
            name: self.name.clone(),
            outputs: outputs.iter().map(GoldenTensor::of).collect(),
        })
    }
}

/// Serialized golden: the recorded outputs of one case.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GoldenRecord {
    /// Case name (matches the file stem).
    pub name: String,
    /// Recorded graph outputs.
    pub outputs: Vec<GoldenTensor>,
}

/// One recorded tensor, stored as exact bit patterns so JSON round-trips
/// cannot lose float precision.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GoldenTensor {
    /// Element type: `"f32"`, `"u8"`, `"i8"` or `"i32"`.
    pub dtype: String,
    /// Tensor dimensions.
    pub shape: Vec<usize>,
    /// Elements: f32 as IEEE-754 bit patterns, integers widened bit-exactly.
    pub bits: Vec<u32>,
}

impl GoldenTensor {
    /// Encodes a tensor bit-exactly.
    pub fn of(t: &Tensor) -> Self {
        let (dtype, bits) = match t.data() {
            TensorData::F32(v) => ("f32", v.iter().map(|x| x.to_bits()).collect()),
            TensorData::U8(v) => ("u8", v.iter().map(|&x| x as u32).collect()),
            TensorData::I8(v) => ("i8", v.iter().map(|&x| x as u8 as u32).collect()),
            TensorData::I32(v) => ("i32", v.iter().map(|&x| x as u32).collect()),
        };
        GoldenTensor {
            dtype: dtype.to_string(),
            shape: t.shape().dims().to_vec(),
            bits,
        }
    }

    /// Compares a fresh output against this recording. `tolerance` applies
    /// to f32 elements only (0.0 = bitwise); integer elements must match
    /// exactly.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first mismatch.
    pub fn matches(&self, t: &Tensor, tolerance: f32) -> std::result::Result<(), String> {
        let fresh = GoldenTensor::of(t);
        if fresh.dtype != self.dtype {
            return Err(format!("dtype changed: {} -> {}", self.dtype, fresh.dtype));
        }
        if fresh.shape != self.shape {
            return Err(format!(
                "shape changed: {:?} -> {:?}",
                self.shape, fresh.shape
            ));
        }
        if fresh.bits.len() != self.bits.len() {
            return Err(format!(
                "length changed: {} -> {}",
                self.bits.len(),
                fresh.bits.len()
            ));
        }
        for (i, (&want, &got)) in self.bits.iter().zip(&fresh.bits).enumerate() {
            if want == got {
                continue;
            }
            if self.dtype == "f32" && tolerance > 0.0 {
                let w = f32::from_bits(want);
                let g = f32::from_bits(got);
                if (w - g).abs() <= tolerance * w.abs().max(1.0) {
                    continue;
                }
                return Err(format!(
                    "element {i}: {w} -> {g} exceeds tolerance {tolerance}"
                ));
            }
            return Err(format!(
                "element {i}: bit pattern {want:#010x} -> {got:#010x} ({})",
                if self.dtype == "f32" {
                    format!("{} -> {}", f32::from_bits(want), f32::from_bits(got))
                } else {
                    format!("{want} -> {got}")
                }
            ));
        }
        Ok(())
    }
}

/// Deterministic pseudo-random f32 values in `[lo, hi)` (xorshift64*; no
/// external RNG so the generator binary and tests agree byte-for-byte).
pub fn det_values(n: usize, seed: u64, lo: f32, hi: f32) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let u = (s >> 40) as f32 / (1u64 << 24) as f32;
            lo + u * (hi - lo)
        })
        .collect()
}

/// Deterministic pseudo-random bytes (same generator as [`det_values`]).
pub fn det_bytes(n: usize, seed: u64) -> Vec<u8> {
    det_values(n, seed, 0.0, 256.0)
        .into_iter()
        .map(|v| (v as i32).clamp(0, 255) as u8)
        .collect()
}

const BOTH_BITWISE: [(KernelFlavor, f32); 2] = [
    (KernelFlavor::Reference, 0.0),
    (KernelFlavor::Optimized, 0.0),
];

/// Reference bitwise + optimized within float tolerance (the summation-order
/// drift of blocked kernels).
const REF_BITWISE_OPT_TOL: [(KernelFlavor, f32); 2] = [
    (KernelFlavor::Reference, 0.0),
    (KernelFlavor::Optimized, 1e-4),
];

/// SIMD recorded **bitwise** — the dual-engine GEMM produces identical bits
/// whichever engine runtime dispatch picks (AVX2+FMA or the scalar mirror),
/// so these goldens are host-portable and the CI forced-scalar run
/// (`MLEXRAY_SIMD=scalar`) must reproduce them exactly — plus reference
/// within the tiled kernel's reassociation tolerance.
const SIMD_BITWISE_REF_TOL: [(KernelFlavor, f32); 2] =
    [(KernelFlavor::Simd, 0.0), (KernelFlavor::Reference, 1e-4)];

/// Arms whose SIMD arithmetic is exact (integer i8×i8→i32 GEMM) or
/// order-preserving (channel-vectorized depthwise): every flavor compares
/// bitwise against one recording.
const ALL_THREE_BITWISE: [(KernelFlavor, f32); 3] = [
    (KernelFlavor::Simd, 0.0),
    (KernelFlavor::Reference, 0.0),
    (KernelFlavor::Optimized, 0.0),
];

fn f32_input(shape: Shape, seed: u64, lo: f32, hi: f32) -> Tensor {
    let n = shape.num_elements();
    Tensor::from_f32(shape, det_values(n, seed, lo, hi)).expect("length matches")
}

fn u8_input(shape: Shape, seed: u64, scale: f32, zp: i32) -> Tensor {
    let n = shape.num_elements();
    Tensor::from_u8(
        shape,
        det_bytes(n, seed),
        QuantParams::PerTensor {
            scale,
            zero_point: zp,
        },
    )
    .expect("length matches")
}

fn pt(scale: f32, zero_point: i32) -> Option<QuantParams> {
    Some(QuantParams::PerTensor { scale, zero_point })
}

fn q_input(b: &mut GraphBuilder, name: &str, shape: Shape, scale: f32, zp: i32) -> TensorId {
    b.input_typed(name, shape, DType::U8, pt(scale, zp))
}

fn i8_weights(shape: Shape, seed: u64, amax: f32) -> Tensor {
    let f = f32_input(shape, seed, -amax, amax);
    f.quantize_to_i8(&QuantParams::symmetric_i8(-amax, amax))
        .expect("f32 weights quantize")
}

fn i8_weights_per_channel(shape: Shape, seed: u64, axis: usize) -> Tensor {
    let f = f32_input(shape.clone(), seed, -0.8, 0.8);
    let n = shape.dims()[axis];
    let ranges: Vec<(f32, f32)> = (0..n)
        .map(|c| {
            let a = 0.2 + 0.15 * c as f32;
            (-a, a)
        })
        .collect();
    f.quantize_to_i8(&QuantParams::symmetric_i8_per_channel(&ranges, axis).expect("ranges"))
        .expect("f32 weights quantize")
}

fn i32_bias(values: Vec<i32>) -> Tensor {
    let n = values.len();
    Tensor::from_i32(Shape::vector(n), values, None).expect("length matches")
}

fn case(
    name: &str,
    flavors: &[(KernelFlavor, f32)],
    bugs: KernelBugs,
    graph: Graph,
    inputs: Vec<Tensor>,
) -> GoldenCase {
    GoldenCase {
        name: name.to_string(),
        bugs,
        numerics: None,
        flavors: flavors.to_vec(),
        graph,
        inputs,
    }
}

/// A golden case running under the edge emulator's numerics (recorded and
/// checked bitwise — emulated arithmetic is deterministic per config).
fn emu_case(name: &str, numerics: EdgeNumerics, graph: Graph, inputs: Vec<Tensor>) -> GoldenCase {
    GoldenCase {
        name: name.to_string(),
        bugs: KernelBugs::none(),
        numerics: Some(numerics),
        flavors: vec![(KernelFlavor::Reference, 0.0)],
        graph,
        inputs,
    }
}

/// Builds the full golden suite: one case per kernel dispatch arm, including
/// the injected-defect arms.
///
/// # Panics
///
/// Panics if a fixture graph fails to build — the suite itself is a test
/// asset, so a broken fixture should fail loudly.
#[allow(clippy::too_many_lines)]
pub fn cases() -> Vec<GoldenCase> {
    let none = KernelBugs::none();
    let mut all = Vec::new();

    // --- float convolutions -------------------------------------------------
    {
        let mut b = GraphBuilder::new("conv2d_f32");
        let x = b.input("x", Shape::nhwc(1, 5, 5, 3));
        let w = b.constant("w", f32_input(Shape::new(vec![4, 3, 3, 3]), 11, -0.5, 0.5));
        let bias = b.constant("b", f32_input(Shape::vector(4), 12, -0.2, 0.2));
        let y = b
            .conv2d(
                "conv",
                x,
                w,
                Some(bias),
                1,
                Padding::Same,
                Activation::Relu6,
            )
            .unwrap();
        b.output(y);
        all.push(case(
            "conv2d_f32",
            &REF_BITWISE_OPT_TOL,
            none,
            b.finish().unwrap(),
            vec![f32_input(Shape::nhwc(1, 5, 5, 3), 13, -1.0, 1.0)],
        ));
    }
    {
        let mut b = GraphBuilder::new("conv2d_f32_strided");
        let x = b.input("x", Shape::nhwc(1, 6, 6, 2));
        let w = b.constant("w", f32_input(Shape::new(vec![3, 2, 2, 2]), 21, -0.6, 0.6));
        let y = b
            .conv2d("conv", x, w, None, 2, Padding::Valid, Activation::None)
            .unwrap();
        b.output(y);
        all.push(case(
            "conv2d_f32_strided",
            &REF_BITWISE_OPT_TOL,
            none,
            b.finish().unwrap(),
            vec![f32_input(Shape::nhwc(1, 6, 6, 2), 22, -1.0, 1.0)],
        ));
    }
    {
        let mut b = GraphBuilder::new("dwconv_f32");
        let x = b.input("x", Shape::nhwc(1, 5, 5, 4));
        let w = b.constant("w", f32_input(Shape::new(vec![1, 3, 3, 4]), 31, -0.5, 0.5));
        let bias = b.constant("b", f32_input(Shape::vector(4), 32, -0.1, 0.1));
        let y = b
            .depthwise_conv2d(
                "dw",
                x,
                w,
                Some(bias),
                1,
                Padding::Same,
                Activation::HardSwish,
            )
            .unwrap();
        b.output(y);
        // Depthwise float changes only loop order between flavors, so both
        // compare bitwise.
        all.push(case(
            "dwconv_f32",
            &BOTH_BITWISE,
            none,
            b.finish().unwrap(),
            vec![f32_input(Shape::nhwc(1, 5, 5, 4), 33, -1.0, 1.0)],
        ));
    }

    // --- float fully-connected / matmul ------------------------------------
    {
        let mut b = GraphBuilder::new("fc_f32");
        let x = b.input("x", Shape::matrix(2, 10));
        let w = b.constant("w", f32_input(Shape::matrix(6, 10), 41, -0.5, 0.5));
        let bias = b.constant("b", f32_input(Shape::vector(6), 42, -0.3, 0.3));
        let y = b
            .fully_connected("fc", x, w, Some(bias), Activation::Relu)
            .unwrap();
        b.output(y);
        all.push(case(
            "fc_f32",
            &REF_BITWISE_OPT_TOL,
            none,
            b.finish().unwrap(),
            vec![f32_input(Shape::matrix(2, 10), 43, -1.0, 1.0)],
        ));
    }
    {
        let mut b = GraphBuilder::new("matmul_f32");
        let x = b.input("x", Shape::matrix(3, 4));
        let w = b.constant("w", f32_input(Shape::matrix(4, 5), 51, -0.7, 0.7));
        let y = b.matmul("mm", x, w, false).unwrap();
        b.output(y);
        all.push(case(
            "matmul_f32",
            &BOTH_BITWISE,
            none,
            b.finish().unwrap(),
            vec![f32_input(Shape::matrix(3, 4), 52, -1.0, 1.0)],
        ));
    }
    {
        let mut b = GraphBuilder::new("matmul_f32_transposed");
        let x = b.input("x", Shape::matrix(3, 4));
        let w = b.constant("w", f32_input(Shape::matrix(5, 4), 53, -0.7, 0.7));
        let y = b.matmul("mmt", x, w, true).unwrap();
        b.output(y);
        all.push(case(
            "matmul_f32_transposed",
            &BOTH_BITWISE,
            none,
            b.finish().unwrap(),
            vec![f32_input(Shape::matrix(3, 4), 54, -1.0, 1.0)],
        ));
    }

    // --- float pooling / reductions -----------------------------------------
    {
        let mut b = GraphBuilder::new("avgpool_f32");
        let x = b.input("x", Shape::nhwc(1, 4, 4, 2));
        let y = b.avg_pool2d("ap", x, 2, 2, 2, Padding::Same).unwrap();
        b.output(y);
        all.push(case(
            "avgpool_f32",
            &BOTH_BITWISE,
            none,
            b.finish().unwrap(),
            vec![f32_input(Shape::nhwc(1, 4, 4, 2), 61, -1.0, 1.0)],
        ));
    }
    {
        let mut b = GraphBuilder::new("maxpool_f32");
        let x = b.input("x", Shape::nhwc(1, 4, 4, 2));
        let y = b.max_pool2d("mp", x, 2, 2, 2, Padding::Valid).unwrap();
        b.output(y);
        all.push(case(
            "maxpool_f32",
            &BOTH_BITWISE,
            none,
            b.finish().unwrap(),
            vec![f32_input(Shape::nhwc(1, 4, 4, 2), 62, -1.0, 1.0)],
        ));
    }
    {
        let mut b = GraphBuilder::new("mean_f32");
        let x = b.input("x", Shape::nhwc(1, 3, 3, 4));
        let y = b.mean("gap", x).unwrap();
        b.output(y);
        all.push(case(
            "mean_f32",
            &BOTH_BITWISE,
            none,
            b.finish().unwrap(),
            vec![f32_input(Shape::nhwc(1, 3, 3, 4), 63, -1.0, 1.0)],
        ));
    }

    // --- float elementwise / structure --------------------------------------
    {
        let mut b = GraphBuilder::new("add_f32");
        let x = b.input("x", Shape::nhwc(1, 3, 3, 2));
        let y2 = b.input("y", Shape::nhwc(1, 3, 3, 2));
        let z = b.add("add", x, y2, Activation::Relu).unwrap();
        b.output(z);
        all.push(case(
            "add_f32",
            &BOTH_BITWISE,
            none,
            b.finish().unwrap(),
            vec![
                f32_input(Shape::nhwc(1, 3, 3, 2), 71, -1.0, 1.0),
                f32_input(Shape::nhwc(1, 3, 3, 2), 72, -1.0, 1.0),
            ],
        ));
    }
    {
        let mut b = GraphBuilder::new("mul_f32");
        let x = b.input("x", Shape::nhwc(1, 3, 3, 4));
        let g = b.input("g", Shape::nhwc(1, 1, 1, 4));
        let z = b.mul("gate", x, g).unwrap();
        b.output(z);
        all.push(case(
            "mul_f32",
            &BOTH_BITWISE,
            none,
            b.finish().unwrap(),
            vec![
                f32_input(Shape::nhwc(1, 3, 3, 4), 73, -1.0, 1.0),
                f32_input(Shape::nhwc(1, 1, 1, 4), 74, 0.0, 1.0),
            ],
        ));
    }
    {
        let mut b = GraphBuilder::new("concat_f32");
        let x = b.input("x", Shape::nhwc(1, 2, 2, 2));
        let y2 = b.input("y", Shape::nhwc(1, 2, 2, 3));
        let z = b.concat("cat", &[x, y2], 3).unwrap();
        b.output(z);
        all.push(case(
            "concat_f32",
            &BOTH_BITWISE,
            none,
            b.finish().unwrap(),
            vec![
                f32_input(Shape::nhwc(1, 2, 2, 2), 81, -1.0, 1.0),
                f32_input(Shape::nhwc(1, 2, 2, 3), 82, -1.0, 1.0),
            ],
        ));
    }
    {
        let mut b = GraphBuilder::new("pad_f32");
        let x = b.input("x", Shape::nhwc(1, 2, 3, 2));
        let y = b.pad("pad", x, 1, 0, 2, 1).unwrap();
        b.output(y);
        all.push(case(
            "pad_f32",
            &BOTH_BITWISE,
            none,
            b.finish().unwrap(),
            vec![f32_input(Shape::nhwc(1, 2, 3, 2), 83, -1.0, 1.0)],
        ));
    }
    {
        let mut b = GraphBuilder::new("softmax_f32");
        let x = b.input("x", Shape::matrix(2, 5));
        let y = b.softmax("sm", x).unwrap();
        b.output(y);
        // exp() is platform-library math; pin loosely on both flavors.
        all.push(case(
            "softmax_f32",
            &[
                (KernelFlavor::Reference, 1e-6),
                (KernelFlavor::Optimized, 1e-6),
            ],
            none,
            b.finish().unwrap(),
            vec![f32_input(Shape::matrix(2, 5), 84, -4.0, 4.0)],
        ));
    }
    {
        let mut b = GraphBuilder::new("act_f32");
        let x = b.input("x", Shape::vector(16));
        let y = b.activation("hs", x, Activation::HardSwish).unwrap();
        b.output(y);
        all.push(case(
            "act_f32",
            &BOTH_BITWISE,
            none,
            b.finish().unwrap(),
            vec![f32_input(Shape::vector(16), 85, -5.0, 5.0)],
        ));
    }
    {
        let mut b = GraphBuilder::new("batch_norm_f32");
        let x = b.input("x", Shape::nhwc(1, 3, 3, 2));
        let gamma = b.constant("g", f32_input(Shape::vector(2), 91, 0.5, 1.5));
        let beta = b.constant("be", f32_input(Shape::vector(2), 92, -0.4, 0.4));
        let mean = b.constant("m", f32_input(Shape::vector(2), 93, -0.2, 0.2));
        let var = b.constant("v", f32_input(Shape::vector(2), 94, 0.5, 1.5));
        let y = b.batch_norm("bn", x, gamma, beta, mean, var, 1e-3).unwrap();
        b.output(y);
        all.push(case(
            "batch_norm_f32",
            &BOTH_BITWISE,
            none,
            b.finish().unwrap(),
            vec![f32_input(Shape::nhwc(1, 3, 3, 2), 95, -1.0, 1.0)],
        ));
    }
    {
        let mut b = GraphBuilder::new("layer_norm_f32");
        let x = b.input("x", Shape::matrix(3, 6));
        let gamma = b.constant("g", f32_input(Shape::vector(6), 96, 0.5, 1.5));
        let beta = b.constant("be", f32_input(Shape::vector(6), 97, -0.3, 0.3));
        let y = b.layer_norm("ln", x, gamma, beta, 1e-5).unwrap();
        b.output(y);
        all.push(case(
            "layer_norm_f32",
            &BOTH_BITWISE,
            none,
            b.finish().unwrap(),
            vec![f32_input(Shape::matrix(3, 6), 98, -2.0, 2.0)],
        ));
    }
    {
        let mut b = GraphBuilder::new("embedding_f32");
        let ids = b.input_typed("ids", Shape::matrix(1, 5), DType::I32, None);
        let table = b.constant("table", f32_input(Shape::matrix(7, 3), 101, -1.0, 1.0));
        let y = b.embedding("emb", ids, table).unwrap();
        b.output(y);
        all.push(case(
            "embedding_f32",
            &BOTH_BITWISE,
            none,
            b.finish().unwrap(),
            vec![Tensor::from_i32(Shape::matrix(1, 5), vec![0, 6, 3, 99, -2], None).unwrap()],
        ));
    }
    {
        let mut b = GraphBuilder::new("reshape_f32");
        let x = b.input("x", Shape::nhwc(1, 2, 2, 3));
        let y = b.reshape("rs", x, vec![1, 12]).unwrap();
        b.output(y);
        all.push(case(
            "reshape_f32",
            &BOTH_BITWISE,
            none,
            b.finish().unwrap(),
            vec![f32_input(Shape::nhwc(1, 2, 2, 3), 102, -1.0, 1.0)],
        ));
    }

    // --- quantization boundaries --------------------------------------------
    {
        let mut b = GraphBuilder::new("quantize");
        let x = b.input("x", Shape::vector(12));
        let q = b.push_node(
            "q",
            OpKind::Quantize,
            vec![x],
            Shape::vector(12),
            DType::U8,
            pt(0.05, 128),
        );
        b.output(q);
        all.push(case(
            "quantize",
            &BOTH_BITWISE,
            none,
            b.finish().unwrap(),
            vec![f32_input(Shape::vector(12), 111, -4.0, 4.0)],
        ));
    }
    {
        let mut b = GraphBuilder::new("dequantize");
        let x = q_input(&mut b, "x", Shape::vector(12), 0.04, 100);
        let y = b.push_node(
            "dq",
            OpKind::Dequantize,
            vec![x],
            Shape::vector(12),
            DType::F32,
            None,
        );
        b.output(y);
        all.push(case(
            "dequantize",
            &BOTH_BITWISE,
            none,
            b.finish().unwrap(),
            vec![u8_input(Shape::vector(12), 112, 0.04, 100)],
        ));
    }

    // --- quantized compute kernels ------------------------------------------
    {
        let mut b = GraphBuilder::new("conv2d_q");
        let x = q_input(&mut b, "x", Shape::nhwc(1, 5, 5, 3), 0.02, 128);
        let w = b.constant("w", i8_weights(Shape::new(vec![4, 3, 3, 3]), 121, 0.5));
        let bias = b.constant("b", i32_bias(vec![40, -25, 0, 12]));
        let y = b.push_node(
            "conv",
            OpKind::Conv2d {
                stride: 1,
                padding: Padding::Same,
                activation: Activation::Relu,
            },
            vec![x, w, bias],
            Shape::nhwc(1, 5, 5, 4),
            DType::U8,
            pt(0.06, 10),
        );
        b.output(y);
        all.push(case(
            "conv2d_q",
            &BOTH_BITWISE,
            none,
            b.finish().unwrap(),
            vec![u8_input(Shape::nhwc(1, 5, 5, 3), 122, 0.02, 128)],
        ));
    }
    {
        let mut b = GraphBuilder::new("conv2d_q_per_channel");
        let x = q_input(&mut b, "x", Shape::nhwc(1, 4, 4, 2), 0.03, 120);
        let w = b.constant(
            "w",
            i8_weights_per_channel(Shape::new(vec![3, 2, 2, 2]), 123, 0),
        );
        let y = b.push_node(
            "conv",
            OpKind::Conv2d {
                stride: 1,
                padding: Padding::Valid,
                activation: Activation::None,
            },
            vec![x, w],
            Shape::nhwc(1, 3, 3, 3),
            DType::U8,
            pt(0.05, 128),
        );
        b.output(y);
        all.push(case(
            "conv2d_q_per_channel",
            &BOTH_BITWISE,
            none,
            b.finish().unwrap(),
            vec![u8_input(Shape::nhwc(1, 4, 4, 2), 124, 0.03, 120)],
        ));
    }
    let dwconv_q_graph = || {
        let mut b = GraphBuilder::new("dwconv_q");
        let x = q_input(&mut b, "x", Shape::nhwc(1, 5, 5, 3), 0.05, 128);
        let w = b.constant(
            "w",
            i8_weights_per_channel(Shape::new(vec![1, 3, 3, 3]), 131, 3),
        );
        let bias = b.constant("b", i32_bias(vec![15, -10, 4]));
        let y = b.push_node(
            "dw",
            OpKind::DepthwiseConv2d {
                stride: 1,
                padding: Padding::Same,
                activation: Activation::None,
            },
            vec![x, w, bias],
            Shape::nhwc(1, 5, 5, 3),
            DType::U8,
            pt(0.1, 128),
        );
        b.output(y);
        b.finish().unwrap()
    };
    all.push(case(
        "dwconv_q",
        &BOTH_BITWISE,
        none,
        dwconv_q_graph(),
        vec![u8_input(Shape::nhwc(1, 5, 5, 3), 132, 0.05, 128)],
    ));
    // The injected optimized-dwconv i16 defect (§4.4): recorded from the
    // buggy optimized kernel; the reference kernel ignores the bug flag, so
    // only the optimized flavor is checked.
    all.push(case(
        "dwconv_q_bug",
        &[(KernelFlavor::Optimized, 0.0)],
        KernelBugs {
            optimized_dwconv_i16_accumulator: true,
            ..KernelBugs::none()
        },
        dwconv_q_graph(),
        vec![u8_input(Shape::nhwc(1, 5, 5, 3), 132, 0.05, 128)],
    ));
    {
        let mut b = GraphBuilder::new("fc_q");
        let x = q_input(&mut b, "x", Shape::matrix(2, 8), 0.03, 128);
        let w = b.constant("w", i8_weights(Shape::matrix(4, 8), 141, 0.6));
        let bias = b.constant("b", i32_bias(vec![50, -30, 10, 0]));
        let y = b.push_node(
            "fc",
            OpKind::FullyConnected {
                activation: Activation::Relu,
            },
            vec![x, w, bias],
            Shape::matrix(2, 4),
            DType::U8,
            pt(0.08, 20),
        );
        b.output(y);
        all.push(case(
            "fc_q",
            &BOTH_BITWISE,
            none,
            b.finish().unwrap(),
            vec![u8_input(Shape::matrix(2, 8), 142, 0.03, 128)],
        ));
    }
    let avgpool_q_graph = |pool: usize, name: &str| {
        let mut b = GraphBuilder::new(name);
        let x = q_input(&mut b, "x", Shape::nhwc(1, 4, 4, 2), 0.04, 128);
        let y = b.push_node(
            "ap",
            OpKind::AveragePool2d {
                pool_h: pool,
                pool_w: pool,
                stride: pool,
                padding: Padding::Valid,
            },
            vec![x],
            Shape::nhwc(1, 4 / pool, 4 / pool, 2),
            DType::U8,
            pt(0.04, 128),
        );
        b.output(y);
        b.finish().unwrap()
    };
    all.push(case(
        "avgpool_q",
        &BOTH_BITWISE,
        none,
        avgpool_q_graph(2, "avgpool_q"),
        vec![u8_input(Shape::nhwc(1, 4, 4, 2), 151, 0.04, 128)],
    ));
    // The op-spec double-division defect fires in both resolvers, on pool
    // areas >= 16 (here 4x4 = global pooling).
    all.push(case(
        "avgpool_q_bug",
        &BOTH_BITWISE,
        KernelBugs {
            avgpool_double_division: true,
            ..KernelBugs::none()
        },
        avgpool_q_graph(4, "avgpool_q_bug"),
        vec![u8_input(Shape::nhwc(1, 4, 4, 2), 151, 0.04, 128)],
    ));
    {
        let mut b = GraphBuilder::new("maxpool_q");
        let x = q_input(&mut b, "x", Shape::nhwc(1, 4, 4, 2), 0.05, 100);
        let y = b.push_node(
            "mp",
            OpKind::MaxPool2d {
                pool_h: 2,
                pool_w: 2,
                stride: 2,
                padding: Padding::Same,
            },
            vec![x],
            Shape::nhwc(1, 2, 2, 2),
            DType::U8,
            pt(0.06, 90),
        );
        b.output(y);
        all.push(case(
            "maxpool_q",
            &BOTH_BITWISE,
            none,
            b.finish().unwrap(),
            vec![u8_input(Shape::nhwc(1, 4, 4, 2), 152, 0.05, 100)],
        ));
    }
    {
        let mut b = GraphBuilder::new("mean_q");
        let x = q_input(&mut b, "x", Shape::nhwc(1, 3, 3, 2), 0.02, 128);
        let y = b.push_node(
            "mean",
            OpKind::Mean,
            vec![x],
            Shape::matrix(1, 2),
            DType::U8,
            pt(0.02, 128),
        );
        b.output(y);
        all.push(case(
            "mean_q",
            &BOTH_BITWISE,
            none,
            b.finish().unwrap(),
            vec![u8_input(Shape::nhwc(1, 3, 3, 2), 153, 0.02, 128)],
        ));
    }
    {
        let mut b = GraphBuilder::new("add_q");
        let x = q_input(&mut b, "x", Shape::nhwc(1, 3, 3, 2), 0.03, 128);
        let y2 = q_input(&mut b, "y", Shape::nhwc(1, 3, 3, 2), 0.05, 110);
        let z = b.push_node(
            "add",
            OpKind::Add {
                activation: Activation::Relu,
            },
            vec![x, y2],
            Shape::nhwc(1, 3, 3, 2),
            DType::U8,
            pt(0.07, 40),
        );
        b.output(z);
        all.push(case(
            "add_q",
            &BOTH_BITWISE,
            none,
            b.finish().unwrap(),
            vec![
                u8_input(Shape::nhwc(1, 3, 3, 2), 161, 0.03, 128),
                u8_input(Shape::nhwc(1, 3, 3, 2), 162, 0.05, 110),
            ],
        ));
    }
    {
        let mut b = GraphBuilder::new("mul_q");
        let x = q_input(&mut b, "x", Shape::nhwc(1, 3, 3, 4), 0.03, 128);
        let g = q_input(&mut b, "g", Shape::nhwc(1, 1, 1, 4), 0.004, 0);
        let z = b.push_node(
            "gate",
            OpKind::Mul,
            vec![x, g],
            Shape::nhwc(1, 3, 3, 4),
            DType::U8,
            pt(0.03, 128),
        );
        b.output(z);
        all.push(case(
            "mul_q",
            &BOTH_BITWISE,
            none,
            b.finish().unwrap(),
            vec![
                u8_input(Shape::nhwc(1, 3, 3, 4), 163, 0.03, 128),
                u8_input(Shape::nhwc(1, 1, 1, 4), 164, 0.004, 0),
            ],
        ));
    }
    {
        let mut b = GraphBuilder::new("concat_q");
        let x = q_input(&mut b, "x", Shape::nhwc(1, 2, 2, 2), 0.03, 128);
        let y2 = q_input(&mut b, "y", Shape::nhwc(1, 2, 2, 1), 0.06, 90);
        let z = b.push_node(
            "cat",
            OpKind::Concat { axis: 3 },
            vec![x, y2],
            Shape::nhwc(1, 2, 2, 3),
            DType::U8,
            pt(0.05, 115),
        );
        b.output(z);
        all.push(case(
            "concat_q",
            &BOTH_BITWISE,
            none,
            b.finish().unwrap(),
            vec![
                u8_input(Shape::nhwc(1, 2, 2, 2), 171, 0.03, 128),
                u8_input(Shape::nhwc(1, 2, 2, 1), 172, 0.06, 90),
            ],
        ));
    }
    {
        let mut b = GraphBuilder::new("pad_q");
        let x = q_input(&mut b, "x", Shape::nhwc(1, 2, 2, 2), 0.04, 77);
        let y = b.push_node(
            "pad",
            OpKind::Pad {
                top: 1,
                bottom: 1,
                left: 0,
                right: 1,
            },
            vec![x],
            Shape::nhwc(1, 4, 3, 2),
            DType::U8,
            pt(0.04, 77),
        );
        b.output(y);
        all.push(case(
            "pad_q",
            &BOTH_BITWISE,
            none,
            b.finish().unwrap(),
            vec![u8_input(Shape::nhwc(1, 2, 2, 2), 173, 0.04, 77)],
        ));
    }
    {
        let mut b = GraphBuilder::new("act_q");
        let x = q_input(&mut b, "x", Shape::vector(16), 0.05, 128);
        let y = b.push_node(
            "hs",
            OpKind::Act(Activation::HardSigmoid),
            vec![x],
            Shape::vector(16),
            DType::U8,
            pt(1.0 / 255.0, 0),
        );
        b.output(y);
        all.push(case(
            "act_q",
            &BOTH_BITWISE,
            none,
            b.finish().unwrap(),
            vec![u8_input(Shape::vector(16), 181, 0.05, 128)],
        ));
    }
    // --- SIMD GEMM dispatch arms --------------------------------------------
    // One case per arm of the SIMD backend's cache-blocked GEMM: the tiled
    // f32 windowed path (ragged K + row-tile + column-remainder coverage), the
    // 1x1 stride-1 copy-free path, the channel-vectorized depthwise path,
    // the fc path and the exact i8×i8→i32 quantized paths. SIMD goldens are
    // recorded from the SIMD flavor itself and compared bitwise: the
    // dual-engine kernels guarantee the same bits under AVX2+FMA and the
    // scalar mirror, so the `MLEXRAY_SIMD=scalar` CI rerun must reproduce
    // every one of these exactly.
    let simd_conv_graph = |name: &str| {
        // 5x5x3 input, 3x3 kernel: K = 27 (ragged lane tail), 25 output
        // rows (> the 16-row tile), 5 output channels (one 4-wide column
        // block + a remainder column).
        let mut b = GraphBuilder::new(name);
        let x = b.input("x", Shape::nhwc(1, 5, 5, 3));
        let w = b.constant("w", f32_input(Shape::new(vec![5, 3, 3, 3]), 311, -0.5, 0.5));
        let bias = b.constant("b", f32_input(Shape::vector(5), 312, -0.2, 0.2));
        let y = b
            .conv2d("conv", x, w, Some(bias), 1, Padding::Same, Activation::Relu)
            .unwrap();
        b.output(y);
        b.finish().unwrap()
    };
    let simd_conv_input = || vec![f32_input(Shape::nhwc(1, 5, 5, 3), 313, -1.0, 1.0)];
    all.push(case(
        "simd_conv2d_f32",
        &SIMD_BITWISE_REF_TOL,
        none,
        simd_conv_graph("simd_conv2d_f32"),
        simd_conv_input(),
    ));
    // The injected K-tail truncation (`simd_gemm_k_tail_skip`): recorded
    // from the bugged SIMD kernel so the defect's exact wrong bits are
    // pinned; the other flavors ignore the flag and are not checked.
    all.push(case(
        "simd_conv2d_f32_k_tail_bug",
        &[(KernelFlavor::Simd, 0.0)],
        KernelBugs {
            simd_gemm_k_tail_skip: true,
            ..KernelBugs::none()
        },
        simd_conv_graph("simd_conv2d_f32_k_tail_bug"),
        simd_conv_input(),
    ));
    {
        // 1x1 stride-1 conv: the copy-free direct arm (no bordered copy).
        // c = 8 makes K exactly one lane wide, so the vector loop runs with
        // no scalar tail.
        let mut b = GraphBuilder::new("simd_conv2d_f32_1x1");
        let x = b.input("x", Shape::nhwc(1, 4, 4, 8));
        let w = b.constant("w", f32_input(Shape::new(vec![6, 1, 1, 8]), 321, -0.6, 0.6));
        let y = b
            .conv2d("conv", x, w, None, 1, Padding::Same, Activation::None)
            .unwrap();
        b.output(y);
        all.push(case(
            "simd_conv2d_f32_1x1",
            &SIMD_BITWISE_REF_TOL,
            none,
            b.finish().unwrap(),
            vec![f32_input(Shape::nhwc(1, 4, 4, 8), 322, -1.0, 1.0)],
        ));
    }
    {
        // Depthwise: the channel-vectorized arm walks taps in the same
        // (ky, kx) order as both scalar kernels, so all three flavors are
        // bitwise-identical. c = 10 covers one 8-lane chunk plus a 2-channel
        // scalar remainder.
        let mut b = GraphBuilder::new("simd_dwconv_f32");
        let x = b.input("x", Shape::nhwc(1, 5, 5, 10));
        let w = b.constant(
            "w",
            f32_input(Shape::new(vec![1, 3, 3, 10]), 331, -0.5, 0.5),
        );
        let bias = b.constant("b", f32_input(Shape::vector(10), 332, -0.2, 0.2));
        let y = b
            .depthwise_conv2d(
                "dw",
                x,
                w,
                Some(bias),
                1,
                Padding::Same,
                Activation::HardSwish,
            )
            .unwrap();
        b.output(y);
        all.push(case(
            "simd_dwconv_f32",
            &ALL_THREE_BITWISE,
            none,
            b.finish().unwrap(),
            vec![f32_input(Shape::nhwc(1, 5, 5, 10), 333, -1.0, 1.0)],
        ));
    }
    {
        // FC through the same tiled GEMM: ragged in-features (27), 6 output
        // features (4-wide block + remainder), 3 batch rows.
        let mut b = GraphBuilder::new("simd_fc_f32");
        let x = b.input("x", Shape::matrix(3, 27));
        let w = b.constant("w", f32_input(Shape::matrix(6, 27), 341, -0.4, 0.4));
        let bias = b.constant("b", f32_input(Shape::vector(6), 342, -0.2, 0.2));
        let y = b
            .fully_connected("fc", x, w, Some(bias), Activation::Relu)
            .unwrap();
        b.output(y);
        all.push(case(
            "simd_fc_f32",
            &SIMD_BITWISE_REF_TOL,
            none,
            b.finish().unwrap(),
            vec![f32_input(Shape::matrix(3, 27), 343, -1.0, 1.0)],
        ));
    }
    {
        // Quantized conv through the i8×i8→i32 SIMD GEMM: integer dot
        // products are order-free, so SIMD is bitwise-identical to both
        // scalar flavors. Per-channel weights + bias cover the full requant
        // path behind the GEMM.
        let mut b = GraphBuilder::new("simd_conv2d_q");
        let x = q_input(&mut b, "x", Shape::nhwc(1, 5, 5, 3), 0.02, 128);
        let w = b.constant(
            "w",
            i8_weights_per_channel(Shape::new(vec![5, 3, 3, 3]), 351, 0),
        );
        let bias = b.constant("b", i32_bias(vec![40, -25, 0, 12, -8]));
        let y = b.push_node(
            "conv",
            OpKind::Conv2d {
                stride: 1,
                padding: Padding::Same,
                activation: Activation::Relu,
            },
            vec![x, w, bias],
            Shape::nhwc(1, 5, 5, 5),
            DType::U8,
            pt(0.06, 10),
        );
        b.output(y);
        all.push(case(
            "simd_conv2d_q",
            &ALL_THREE_BITWISE,
            none,
            b.finish().unwrap(),
            vec![u8_input(Shape::nhwc(1, 5, 5, 3), 352, 0.02, 128)],
        ));
    }
    {
        // Quantized fc through the same integer GEMM, ragged in-features.
        let mut b = GraphBuilder::new("simd_fc_q");
        let x = q_input(&mut b, "x", Shape::matrix(2, 27), 0.03, 128);
        let w = b.constant("w", i8_weights(Shape::matrix(6, 27), 361, 0.6));
        let bias = b.constant("b", i32_bias(vec![50, -30, 10, 0, 22, -5]));
        let y = b.push_node(
            "fc",
            OpKind::FullyConnected {
                activation: Activation::Relu,
            },
            vec![x, w, bias],
            Shape::matrix(2, 6),
            DType::U8,
            pt(0.08, 20),
        );
        b.output(y);
        all.push(case(
            "simd_fc_q",
            &ALL_THREE_BITWISE,
            none,
            b.finish().unwrap(),
            vec![u8_input(Shape::matrix(2, 27), 362, 0.03, 128)],
        ));
    }
    // --- edge-emulator numerics knobs ---------------------------------------
    // One case per knob of `EdgeNumerics`, so emulator drift is pinned as
    // bit patterns exactly like the native dispatch arms. Recorded under the
    // emulator — the reference kernels under each knob's sums; flavor is
    // structural only there — and compared bitwise: emulated arithmetic is
    // deterministic per configuration.
    {
        let emu_conv_graph = |name: &str| {
            let mut b = GraphBuilder::new(name);
            let x = b.input("x", Shape::nhwc(1, 5, 5, 3));
            let w = b.constant("w", f32_input(Shape::new(vec![4, 3, 3, 3]), 211, -0.5, 0.5));
            let bias = b.constant("b", f32_input(Shape::vector(4), 212, -0.2, 0.2));
            let y = b
                .conv2d(
                    "conv",
                    x,
                    w,
                    Some(bias),
                    1,
                    Padding::Same,
                    Activation::Relu6,
                )
                .unwrap();
            b.output(y);
            b.finish().unwrap()
        };
        let emu_conv_input = || vec![f32_input(Shape::nhwc(1, 5, 5, 3), 213, -1.0, 1.0)];
        for (suffix, numerics) in [
            ("faithful", EdgeNumerics::faithful()),
            (
                "reversed",
                EdgeNumerics {
                    accumulation: AccumOrder::Reversed,
                    ..EdgeNumerics::faithful()
                },
            ),
            (
                "lanes8",
                EdgeNumerics {
                    accumulation: AccumOrder::Lanes8,
                    ..EdgeNumerics::faithful()
                },
            ),
            (
                "fma",
                EdgeNumerics {
                    fused_multiply_add: true,
                    ..EdgeNumerics::faithful()
                },
            ),
        ] {
            let name = format!("conv2d_f32_emu_{suffix}");
            all.push(emu_case(
                &name,
                numerics,
                emu_conv_graph(&name),
                emu_conv_input(),
            ));
        }
        // Flush-to-zero: subnormal-magnitude products (1e-20 activations
        // against 1e-25 weights) survive as denormals without FTZ and
        // collapse to signed zero with it.
        let mut b = GraphBuilder::new("conv2d_f32_emu_ftz");
        let x = b.input("x", Shape::nhwc(1, 4, 4, 2));
        let w = b.constant(
            "w",
            f32_input(Shape::new(vec![2, 3, 3, 2]), 221, -3e-25, 3e-25),
        );
        let y = b
            .conv2d("conv", x, w, None, 1, Padding::Same, Activation::None)
            .unwrap();
        b.output(y);
        all.push(emu_case(
            "conv2d_f32_emu_ftz",
            EdgeNumerics {
                flush_to_zero: true,
                ..EdgeNumerics::faithful()
            },
            b.finish().unwrap(),
            vec![f32_input(Shape::nhwc(1, 4, 4, 2), 222, 1e-21, 2e-20)],
        ));
    }
    {
        let emu_dw_graph = |name: &str| {
            let mut b = GraphBuilder::new(name);
            let x = b.input("x", Shape::nhwc(1, 5, 5, 4));
            let w = b.constant("w", f32_input(Shape::new(vec![1, 3, 3, 4]), 231, -0.5, 0.5));
            let bias = b.constant("b", f32_input(Shape::vector(4), 232, -0.1, 0.1));
            let y = b
                .depthwise_conv2d(
                    "dw",
                    x,
                    w,
                    Some(bias),
                    1,
                    Padding::Same,
                    Activation::HardSwish,
                )
                .unwrap();
            b.output(y);
            b.finish().unwrap()
        };
        let emu_dw_input = || vec![f32_input(Shape::nhwc(1, 5, 5, 4), 233, -1.0, 1.0)];
        for (suffix, numerics) in [
            (
                "reversed",
                EdgeNumerics {
                    accumulation: AccumOrder::Reversed,
                    ..EdgeNumerics::faithful()
                },
            ),
            (
                "fma",
                EdgeNumerics {
                    fused_multiply_add: true,
                    ..EdgeNumerics::faithful()
                },
            ),
        ] {
            let name = format!("dwconv_f32_emu_{suffix}");
            all.push(emu_case(
                &name,
                numerics,
                emu_dw_graph(&name),
                emu_dw_input(),
            ));
        }
    }
    {
        let emu_fc_graph = |name: &str| {
            let mut b = GraphBuilder::new(name);
            let x = b.input("x", Shape::matrix(2, 10));
            let w = b.constant("w", f32_input(Shape::matrix(6, 10), 241, -0.5, 0.5));
            let bias = b.constant("b", f32_input(Shape::vector(6), 242, -0.3, 0.3));
            let y = b
                .fully_connected("fc", x, w, Some(bias), Activation::Relu)
                .unwrap();
            b.output(y);
            b.finish().unwrap()
        };
        let emu_fc_input = || vec![f32_input(Shape::matrix(2, 10), 243, -1.0, 1.0)];
        for (suffix, numerics) in [
            (
                "lanes8",
                EdgeNumerics {
                    accumulation: AccumOrder::Lanes8,
                    ..EdgeNumerics::faithful()
                },
            ),
            (
                "fma",
                EdgeNumerics {
                    fused_multiply_add: true,
                    ..EdgeNumerics::faithful()
                },
            ),
        ] {
            let name = format!("fc_f32_emu_{suffix}");
            all.push(emu_case(
                &name,
                numerics,
                emu_fc_graph(&name),
                emu_fc_input(),
            ));
        }
    }
    {
        // Reduced-precision requantization across the quantized requantizing
        // kernels: the f32 multiplier rounds differently near ties.
        let single = EdgeNumerics {
            requant: RequantMode::Single,
            ..EdgeNumerics::faithful()
        };
        {
            let mut b = GraphBuilder::new("conv2d_q_emu_requant");
            let x = q_input(&mut b, "x", Shape::nhwc(1, 5, 5, 3), 0.02, 128);
            let w = b.constant("w", i8_weights(Shape::new(vec![4, 3, 3, 3]), 251, 0.5));
            let bias = b.constant("b", i32_bias(vec![40, -25, 0, 12]));
            let y = b.push_node(
                "conv",
                OpKind::Conv2d {
                    stride: 1,
                    padding: Padding::Same,
                    activation: Activation::Relu,
                },
                vec![x, w, bias],
                Shape::nhwc(1, 5, 5, 4),
                DType::U8,
                pt(0.06, 10),
            );
            b.output(y);
            all.push(emu_case(
                "conv2d_q_emu_requant",
                single,
                b.finish().unwrap(),
                vec![u8_input(Shape::nhwc(1, 5, 5, 3), 252, 0.02, 128)],
            ));
        }
        {
            let mut b = GraphBuilder::new("dwconv_q_emu_requant");
            let x = q_input(&mut b, "x", Shape::nhwc(1, 5, 5, 3), 0.05, 128);
            let w = b.constant(
                "w",
                i8_weights_per_channel(Shape::new(vec![1, 3, 3, 3]), 253, 3),
            );
            let bias = b.constant("b", i32_bias(vec![15, -10, 4]));
            let y = b.push_node(
                "dw",
                OpKind::DepthwiseConv2d {
                    stride: 1,
                    padding: Padding::Same,
                    activation: Activation::None,
                },
                vec![x, w, bias],
                Shape::nhwc(1, 5, 5, 3),
                DType::U8,
                pt(0.1, 128),
            );
            b.output(y);
            all.push(emu_case(
                "dwconv_q_emu_requant",
                single,
                b.finish().unwrap(),
                vec![u8_input(Shape::nhwc(1, 5, 5, 3), 254, 0.05, 128)],
            ));
        }
        {
            let mut b = GraphBuilder::new("fc_q_emu_requant");
            let x = q_input(&mut b, "x", Shape::matrix(2, 8), 0.03, 128);
            let w = b.constant("w", i8_weights(Shape::matrix(4, 8), 255, 0.6));
            let bias = b.constant("b", i32_bias(vec![50, -30, 10, 0]));
            let y = b.push_node(
                "fc",
                OpKind::FullyConnected {
                    activation: Activation::Relu,
                },
                vec![x, w, bias],
                Shape::matrix(2, 4),
                DType::U8,
                pt(0.08, 20),
            );
            b.output(y);
            all.push(emu_case(
                "fc_q_emu_requant",
                single,
                b.finish().unwrap(),
                vec![u8_input(Shape::matrix(2, 8), 256, 0.03, 128)],
            ));
        }
        {
            let mut b = GraphBuilder::new("avgpool_q_emu_requant");
            let x = q_input(&mut b, "x", Shape::nhwc(1, 4, 4, 2), 0.04, 128);
            let y = b.push_node(
                "ap",
                OpKind::AveragePool2d {
                    pool_h: 2,
                    pool_w: 2,
                    stride: 2,
                    padding: Padding::Valid,
                },
                vec![x],
                Shape::nhwc(1, 2, 2, 2),
                DType::U8,
                pt(0.045, 120),
            );
            b.output(y);
            all.push(emu_case(
                "avgpool_q_emu_requant",
                single,
                b.finish().unwrap(),
                vec![u8_input(Shape::nhwc(1, 4, 4, 2), 257, 0.04, 128)],
            ));
        }
    }

    {
        let mut b = GraphBuilder::new("reshape_q");
        let x = q_input(&mut b, "x", Shape::nhwc(1, 2, 2, 2), 0.03, 99);
        let y = b.push_node(
            "rs",
            OpKind::Reshape { dims: vec![1, 8] },
            vec![x],
            Shape::matrix(1, 8),
            DType::U8,
            pt(0.03, 99),
        );
        b.output(y);
        all.push(case(
            "reshape_q",
            &BOTH_BITWISE,
            none,
            b.finish().unwrap(),
            vec![u8_input(Shape::nhwc(1, 2, 2, 2), 182, 0.03, 99)],
        ));
    }

    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn det_values_are_deterministic_and_bounded() {
        let a = det_values(64, 7, -1.0, 1.0);
        let b = det_values(64, 7, -1.0, 1.0);
        assert_eq!(a, b);
        assert!(a.iter().all(|v| (-1.0..1.0).contains(v)));
        assert_ne!(a, det_values(64, 8, -1.0, 1.0), "seed must matter");
    }

    #[test]
    fn every_case_runs_under_all_declared_flavors() {
        for case in cases() {
            for &(flavor, _) in &case.flavors {
                let out = case
                    .run(flavor)
                    .unwrap_or_else(|e| panic!("case {} failed under {flavor:?}: {e}", case.name));
                assert!(!out.is_empty(), "case {} produced no outputs", case.name);
            }
        }
    }

    /// The reference kernels must reproduce the bits the faithful emulator
    /// fixture pins — recorded when the emulator still ran gather loops of
    /// its own — and every non-faithful knob must actually move bits on its
    /// fixture — otherwise the emulator goldens pin nothing.
    #[test]
    fn emulator_knobs_are_faithful_or_observable() {
        let by_name = |name: &str| {
            cases()
                .into_iter()
                .find(|c| c.name == name)
                .unwrap_or_else(|| panic!("case {name} missing"))
        };
        let faithful = by_name("conv2d_f32_emu_faithful");
        let json = std::fs::read_to_string(faithful.path()).unwrap();
        let pinned: GoldenRecord = serde_json::from_str(&json).unwrap();
        let native = Interpreter::new(&faithful.graph, BackendSpec::reference())
            .unwrap()
            .invoke(&faithful.inputs)
            .unwrap();
        assert!(
            pinned.outputs[0].matches(&native[0], 0.0).is_ok(),
            "the reference kernels must reproduce the faithful emulator's pinned bits"
        );

        let baseline = GoldenTensor::of(&native[0]);
        for knob in [
            "conv2d_f32_emu_reversed",
            "conv2d_f32_emu_lanes8",
            "conv2d_f32_emu_fma",
        ] {
            let out = by_name(knob).run(KernelFlavor::Reference).unwrap();
            assert!(
                baseline.matches(&out[0], 0.0).is_err(),
                "{knob} produced bits identical to faithful — knob is dead"
            );
            // ...while staying numerically benign (reassociation-level).
            assert!(
                baseline.matches(&out[0], 1e-4).is_ok(),
                "{knob} drifted beyond reassociation tolerance"
            );
        }

        // FTZ: the subnormal fixture must flush every output to zero while
        // the same graph without FTZ keeps denormals alive.
        let ftz = by_name("conv2d_f32_emu_ftz");
        let flushed = ftz.run(KernelFlavor::Reference).unwrap();
        assert!(flushed[0].as_f32().unwrap().iter().all(|v| *v == 0.0));
        let kept = Interpreter::new(&ftz.graph, BackendSpec::reference())
            .unwrap()
            .invoke(&ftz.inputs)
            .unwrap();
        assert!(
            kept[0].as_f32().unwrap().iter().any(|v| *v != 0.0),
            "fixture no longer produces subnormals — FTZ golden is vacuous"
        );
    }

    #[test]
    fn golden_tensor_roundtrip_is_bit_exact() {
        let t = Tensor::from_f32(Shape::vector(3), vec![0.1, -0.0, f32::MIN_POSITIVE]).unwrap();
        let g = GoldenTensor::of(&t);
        assert!(g.matches(&t, 0.0).is_ok());
        let other = Tensor::from_f32(Shape::vector(3), vec![0.1, 0.0, f32::MIN_POSITIVE]).unwrap();
        assert!(
            g.matches(&other, 0.0).is_err(),
            "-0.0 vs 0.0 must differ bitwise"
        );
        assert!(
            g.matches(&other, 1e-6).is_ok(),
            "but sits inside any tolerance"
        );
    }
}
