use serde::{Deserialize, Serialize};

/// Which kernel implementation family the interpreter uses.
///
/// Mirrors TFLite's two built-in op resolvers (§4.4): the production
/// `OpResolver` dispatches *optimized kernels* (im2col, blocked loops), the
/// debugging `RefOpResolver` dispatches *reference kernels* (naive, easy to
/// read, orders of magnitude slower — the paper measures >200x on mobile).
/// ML-EXray leverages the pair to separate optimization bugs from
/// quantization-spec bugs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum KernelFlavor {
    /// Production kernels.
    #[default]
    Optimized,
    /// Naive reference kernels.
    Reference,
    /// SIMD-tiled kernels: GEMM-family ops run through the runtime-feature-
    /// dispatched micro-kernel in `kernels::gemm` (AVX2/FMA on x86_64, a
    /// bitwise-identical scalar mirror elsewhere); every other op shares the
    /// optimized implementations.
    Simd,
}

impl KernelFlavor {
    /// Human-readable label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            KernelFlavor::Optimized => "OpResolver",
            KernelFlavor::Reference => "RefOpResolver",
            KernelFlavor::Simd => "SimdOpResolver",
        }
    }
}

/// Injectable kernel defects reproducing the two real TFLite bugs the paper
/// discovered with per-layer drift analysis (§4.4, Figs. 5–6).
///
/// Both default to **off**; [`KernelBugs::paper_2021`] switches both on for
/// the reproduction experiments. They are a substitution: we cannot ship the
/// 2021 TFLite binaries containing the original defects, so we inject
/// numerically equivalent ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct KernelBugs {
    /// The **optimized** quantized `DepthwiseConv2D` kernel accumulates into
    /// a wrapping 16-bit register instead of 32-bit, overflowing on realistic
    /// activations. Reference kernels are unaffected — exactly the
    /// `Mobile Quant` vs `Mobile Quant Ref` discrepancy of Fig. 5 and the
    /// layer-2 rMSE spike of Fig. 6 (left).
    pub optimized_dwconv_i16_accumulator: bool,
    /// The quantized `AveragePool2D` kernel (in **both** resolvers — it is an
    /// op-spec bug, not an optimization bug) divides the accumulator by the
    /// pool area twice for windows of area >= 16 (the large-window
    /// accumulation path), collapsing outputs toward the quantized zero and
    /// yielding the constant/invalid output that zeroes MobileNet v3 accuracy
    /// in Fig. 5 and the periodic rMSE peaks of Fig. 6 (right). Small branch
    /// pools (Inception's 3x3) are unaffected, as in the paper.
    pub avgpool_double_division: bool,
    /// The **SIMD** float GEMM micro-kernel drops the last element of the
    /// K-loop remainder whenever K is not a multiple of the 8-wide vector
    /// width — the classic tile-boundary off-by-one a hand-unrolled kernel
    /// ships with. Only the [`KernelFlavor::Simd`] f32 GEMM paths (conv /
    /// fully-connected) are affected; it is a test-only knob pinning the
    /// differential debugger against tile-boundary defects.
    pub simd_gemm_k_tail_skip: bool,
}

impl KernelBugs {
    /// No injected bugs (library default).
    pub fn none() -> Self {
        KernelBugs::default()
    }

    /// The two defects active in the paper's 2021 TFLite snapshot. The SIMD
    /// tile-boundary knob stays off — it models this repo's own kernel
    /// campaign, not the paper's snapshot.
    pub fn paper_2021() -> Self {
        KernelBugs {
            optimized_dwconv_i16_accumulator: true,
            avgpool_double_division: true,
            simd_gemm_k_tail_skip: false,
        }
    }

    /// True if any defect is enabled.
    pub fn any(self) -> bool {
        self.optimized_dwconv_i16_accumulator
            || self.avgpool_double_division
            || self.simd_gemm_k_tail_skip
    }
}

/// Summation order of a float GEMM-family reduction (conv im2col rows,
/// depthwise kernel windows, fully-connected rows) under the edge emulator.
///
/// Real edge runtimes reassociate float sums freely — NEON lane reductions,
/// reversed unrolled tails, accumulator trees — and every reassociation is a
/// (benign) bit-level divergence the differential debugger must be able to
/// reproduce and pin down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum AccumOrder {
    /// One accumulator, terms added in canonical (reference-kernel) order.
    #[default]
    Sequential,
    /// One accumulator, terms added in reverse order (unrolled-tail-first
    /// codegen).
    Reversed,
    /// Eight partial accumulators striped over the term index (SIMD lane
    /// reduction), combined pairwise at the end.
    Lanes8,
}

/// Precision of the requantization multiplier applied to quantized
/// accumulators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum RequantMode {
    /// Double-precision multiplier (this crate's native kernels; TFLite's
    /// off-device reference arithmetic).
    #[default]
    Double,
    /// Single-precision multiplier — the reduced-precision fixed-point
    /// approximation many edge runtimes use, which rounds differently near
    /// ties.
    Single,
}

/// The numerics knobs of the edge-emulator backend: how an emulated edge
/// runtime's arithmetic deviates from this crate's native kernels.
///
/// The default configuration is *faithful*: sequential accumulation, split
/// multiply-add, denormals preserved, double-precision requantization —
/// bitwise-identical to the reference kernels. Each knob then introduces one
/// realistic class of cross-runtime numeric divergence; device profiles in
/// `mlexray-edgesim` bundle them per target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct EdgeNumerics {
    /// Summation order of float GEMM reductions.
    pub accumulation: AccumOrder,
    /// Contract multiply-add pairs into fused `mul_add` (FMA) instructions,
    /// which skip the intermediate rounding step.
    pub fused_multiply_add: bool,
    /// Flush subnormal float outputs to (signed) zero after every node, as
    /// ARM NEON does by default.
    pub flush_to_zero: bool,
    /// Requantization multiplier precision for quantized kernels.
    pub requant: RequantMode,
}

impl EdgeNumerics {
    /// The faithful configuration: every knob neutral. An emulator running
    /// this config is bitwise-identical to the reference kernels.
    pub fn faithful() -> Self {
        EdgeNumerics::default()
    }

    /// True when every knob is at its faithful (native-arithmetic) setting.
    pub fn is_faithful(self) -> bool {
        self == EdgeNumerics::faithful()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_clean() {
        assert!(!KernelBugs::default().any());
        assert!(KernelBugs::paper_2021().any());
        assert_eq!(KernelFlavor::default(), KernelFlavor::Optimized);
    }

    #[test]
    fn labels() {
        assert_eq!(KernelFlavor::Optimized.label(), "OpResolver");
        assert_eq!(KernelFlavor::Reference.label(), "RefOpResolver");
        assert_eq!(KernelFlavor::Simd.label(), "SimdOpResolver");
    }
}
