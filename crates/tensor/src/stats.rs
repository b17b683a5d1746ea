use serde::{Deserialize, Serialize};

/// Summary statistics of a tensor's values, the compact representation
/// ML-EXray logs when full per-layer dumps are too expensive.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TensorStats {
    /// Minimum value.
    pub min: f32,
    /// Maximum value.
    pub max: f32,
    /// Arithmetic mean.
    pub mean: f32,
    /// Population standard deviation.
    pub std: f32,
    /// L2 norm.
    pub l2: f32,
    /// Number of values summarized.
    pub count: usize,
}

impl TensorStats {
    /// Computes statistics over a value slice in one walk: `Σv` and `Σv²`
    /// add up left to right in `f64`, the extremes are order-free and ride
    /// along in eight lanes, as they do in [`normalized_rmse`]. A plain `<`
    /// / `>` never makes a NaN an extreme (as `f32::min` / `f32::max` ignore
    /// them), so an all-NaN slice keeps `min = +∞`, `max = −∞`.
    ///
    /// Empty slices produce a zeroed summary with `count == 0`.
    pub fn of(values: &[f32]) -> Self {
        const LANES: usize = 8;
        if values.is_empty() {
            return TensorStats {
                min: 0.0,
                max: 0.0,
                mean: 0.0,
                std: 0.0,
                l2: 0.0,
                count: 0,
            };
        }
        let mut sum = 0.0f64;
        let mut sq = 0.0f64;
        let mut lo = [f32::INFINITY; LANES];
        let mut hi = [f32::NEG_INFINITY; LANES];
        for block in values.chunks(LANES) {
            for (lane, &v) in block.iter().enumerate() {
                sum += v as f64;
                sq += (v as f64) * (v as f64);
                if v < lo[lane] {
                    lo[lane] = v;
                }
                if v > hi[lane] {
                    hi[lane] = v;
                }
            }
        }
        let min = lo
            .iter()
            .fold(f32::INFINITY, |m, &v| if v < m { v } else { m });
        let max = hi
            .iter()
            .fold(f32::NEG_INFINITY, |m, &v| if v > m { v } else { m });
        let n = values.len() as f64;
        let mean = sum / n;
        let var = (sq / n - mean * mean).max(0.0);
        TensorStats {
            min,
            max,
            mean: mean as f32,
            std: var.sqrt() as f32,
            l2: sq.sqrt() as f32,
            count: values.len(),
        }
    }

    /// The value range `max - min`.
    pub fn range(&self) -> f32 {
        self.max - self.min
    }
}

/// Root-mean-square error between two equally-long value slices.
///
/// # Panics
///
/// Panics if the slices differ in length (caller bug: per-layer comparisons
/// are only meaningful between identically-shaped outputs).
pub fn rmse(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "rmse requires equal-length slices");
    if a.is_empty() {
        return 0.0;
    }
    let sum: f64 = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = (x - y) as f64;
            d * d
        })
        .sum();
    ((sum / a.len() as f64).sqrt()) as f32
}

/// The paper's per-layer drift metric (§3.4): rMSE normalized by the
/// *reference* layer output scale, `rMSE / (max(ref) − min(ref))`.
///
/// A constant reference output (zero range) degenerates to the raw rMSE so a
/// drift is still reported rather than dividing by zero.
///
/// One walk over both slices. The squared differences add up left to right
/// in `f64`, exactly as [`rmse`] adds them, so the value is bitwise
/// `rmse(edge, reference) / TensorStats::of(reference).range()`; the
/// reference's extremes are order-free and ride along in eight lanes. A
/// plain `<` / `>` ignores NaNs the way `f32::min` / `f32::max` do: an
/// all-NaN reference keeps its `−∞` range and falls through to the raw rMSE.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn normalized_rmse(edge: &[f32], reference: &[f32]) -> f32 {
    const LANES: usize = 8;
    assert_eq!(
        edge.len(),
        reference.len(),
        "rmse requires equal-length slices"
    );
    if edge.is_empty() {
        return 0.0;
    }
    let mut sum = 0.0f64;
    let mut lo = [f32::INFINITY; LANES];
    let mut hi = [f32::NEG_INFINITY; LANES];
    let mut track = |x: f32, y: f32, lane: usize| {
        let d = (x - y) as f64;
        sum += d * d;
        if y < lo[lane] {
            lo[lane] = y;
        }
        if y > hi[lane] {
            hi[lane] = y;
        }
    };
    let mut edge_blocks = edge.chunks_exact(LANES);
    let mut reference_blocks = reference.chunks_exact(LANES);
    for (xs, ys) in edge_blocks.by_ref().zip(reference_blocks.by_ref()) {
        for lane in 0..LANES {
            track(xs[lane], ys[lane], lane);
        }
    }
    let tail = edge_blocks
        .remainder()
        .iter()
        .zip(reference_blocks.remainder());
    for (lane, (&x, &y)) in tail.enumerate() {
        track(x, y, lane);
    }
    let min = lo
        .iter()
        .fold(f32::INFINITY, |m, &v| if v < m { v } else { m });
    let max = hi
        .iter()
        .fold(f32::NEG_INFINITY, |m, &v| if v > m { v } else { m });
    let e = (sum / edge.len() as f64).sqrt() as f32;
    let range = max - min;
    if range > f32::EPSILON {
        e / range
    } else {
        e
    }
}

/// Element-wise closeness check, mirroring `np.allclose` with absolute and
/// relative tolerances. Used by assertion functions such as the channel
/// arrangement check in §3.2.
pub fn allclose(a: &[f32], b: &[f32], rtol: f32, atol: f32) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(&x, &y)| (x - y).abs() <= atol + rtol * y.abs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn stats_of_known_values() {
        let s = TensorStats::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.mean - 2.5).abs() < 1e-6);
        assert!((s.std - 1.118034).abs() < 1e-5);
        assert_eq!(s.count, 4);
        assert_eq!(s.range(), 3.0);
    }

    #[test]
    fn stats_of_empty() {
        let s = TensorStats::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.range(), 0.0);
    }

    /// The sequential `f32::min` / `f32::max` loop `TensorStats::of` ran
    /// before its extremes moved into lanes, kept verbatim as the oracle.
    fn sequential_stats(values: &[f32]) -> TensorStats {
        if values.is_empty() {
            return TensorStats {
                min: 0.0,
                max: 0.0,
                mean: 0.0,
                std: 0.0,
                l2: 0.0,
                count: 0,
            };
        }
        let mut min = f32::INFINITY;
        let mut max = f32::NEG_INFINITY;
        let mut sum = 0.0f64;
        let mut sq = 0.0f64;
        for &v in values {
            min = min.min(v);
            max = max.max(v);
            sum += v as f64;
            sq += (v as f64) * (v as f64);
        }
        let n = values.len() as f64;
        let mean = sum / n;
        let var = (sq / n - mean * mean).max(0.0);
        TensorStats {
            min,
            max,
            mean: mean as f32,
            std: var.sqrt() as f32,
            l2: sq.sqrt() as f32,
            count: values.len(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Lengths 0..=67 cover two full lane blocks and every tail;
        /// `picks` plants ±0, ±∞ and NaN among finite values of every
        /// exponent, and one case in eight is NaN throughout.
        #[test]
        fn stats_fold_is_the_sequential_fold(
            picks in prop::collection::vec(0u8..16, 0..68),
            bits in prop::collection::vec(0u32..=u32::MAX, 67..68),
            all_nan in 0u8..8,
        ) {
            let values: Vec<f32> = picks
                .iter()
                .zip(&bits)
                .map(|(&pick, &bits)| match pick {
                    _ if all_nan == 0 => f32::NAN,
                    0 => 0.0,
                    1 => -0.0,
                    2 => f32::INFINITY,
                    3 => f32::NEG_INFINITY,
                    4 => f32::NAN,
                    5..=9 if f32::from_bits(bits).is_finite() => f32::from_bits(bits),
                    _ => (bits % 20_001) as f32 / 100.0 - 100.0,
                })
                .collect();
            let (got, want) = (TensorStats::of(&values), sequential_stats(&values));
            prop_assert_eq!(got.count, want.count);
            // Σv and Σv² are added in the same order: every bit is kept (a
            // NaN result compares as one pattern, see `assert_same`).
            for (name, g, w) in [
                ("mean", got.mean, want.mean),
                ("std", got.std, want.std),
                ("l2", got.l2, want.l2),
            ] {
                prop_assert!(
                    g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                    "{name}: {g:e} vs {w:e} on {values:?}"
                );
            }
            // `==`, not bits: `f32::min` never said which zero it keeps.
            prop_assert!(got.min == want.min, "min {} vs {} on {values:?}", got.min, want.min);
            prop_assert!(got.max == want.max, "max {} vs {} on {values:?}", got.max, want.max);
        }
    }

    #[test]
    fn rmse_zero_for_identical() {
        let v = [0.5f32, -1.0, 2.0];
        assert_eq!(rmse(&v, &v), 0.0);
    }

    #[test]
    fn rmse_of_constant_offset() {
        let a = [1.0f32, 2.0, 3.0];
        let b = [2.0f32, 3.0, 4.0];
        assert!((rmse(&a, &b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn normalized_rmse_uses_reference_range() {
        let reference = [0.0f32, 10.0];
        let edge = [1.0f32, 11.0];
        // rMSE 1.0 over range 10.0 = 0.1
        assert!((normalized_rmse(&edge, &reference) - 0.1).abs() < 1e-6);
    }

    #[test]
    fn normalized_rmse_constant_reference_degenerates() {
        let reference = [5.0f32, 5.0];
        let edge = [6.0f32, 6.0];
        assert!((normalized_rmse(&edge, &reference) - 1.0).abs() < 1e-6);
    }

    /// The two-pass composition `normalized_rmse` replaced, kept as the
    /// oracle its bits are held to.
    fn two_pass(edge: &[f32], reference: &[f32]) -> f32 {
        let e = rmse(edge, reference);
        let range = TensorStats::of(reference).range();
        if range > f32::EPSILON {
            e / range
        } else {
            e
        }
    }

    /// Same bit pattern, or both NaN: Rust leaves the sign and payload of a
    /// NaN *result* unspecified (an optimized build may propagate a
    /// different operand's than an unoptimized one).
    fn assert_same(edge: &[f32], reference: &[f32], case: &str) {
        let (got, want) = (normalized_rmse(edge, reference), two_pass(edge, reference));
        assert!(
            got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
            "{case}: {got:e} ({:08x}) vs {want:e} ({:08x}) on {edge:?} vs {reference:?}",
            got.to_bits(),
            want.to_bits()
        );
    }

    #[test]
    fn normalized_rmse_is_bitwise_the_two_pass_composition() {
        let wave = |i: usize, k: f32| ((i as f32 + 1.0) * k).sin() * (1.0 + i as f32 * 0.37);
        // Every length through two full lane blocks and all eight tails.
        for n in 0..=67usize {
            let reference: Vec<f32> = (0..n).map(|i| wave(i, 0.61)).collect();
            let edge: Vec<f32> = (0..n)
                .map(|i| wave(i, 0.61) + wave(i, 1.7) * 1e-2)
                .collect();
            assert_same(&edge, &reference, &format!("n={n}"));
            // The same data with one special value planted at every
            // position of either side (so it lands in every lane and in the
            // tail, as the first and as the last extreme).
            for special in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0, 1e30] {
                for at in 0..n {
                    let mut planted = reference.clone();
                    planted[at] = special;
                    for (e, r) in [(&edge, &planted), (&planted, &reference)] {
                        assert_same(e, r, &format!("n={n} special={special} at={at}"));
                    }
                }
            }
        }
        let cases: [(&[f32], &[f32]); 7] = [
            (&[], &[]),
            (&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]),
            (&[1.0, 2.0], &[f32::NAN, f32::NAN]),
            (&[f32::NAN, f32::NAN], &[f32::NAN, f32::NAN]),
            (&[0.0, -0.0, 0.0], &[-0.0, 0.0, -0.0]),
            (&[f32::MAX, 1.0], &[-f32::MAX, 2.0]),
            (&[f32::INFINITY, 1.0], &[f32::INFINITY, 3.0]),
        ];
        for (edge, reference) in cases {
            assert_same(edge, reference, "special case");
        }
    }

    #[test]
    fn allclose_behaviour() {
        assert!(allclose(&[1.0, 2.0], &[1.0 + 1e-7, 2.0], 1e-5, 1e-6));
        assert!(!allclose(&[1.0, 2.0], &[1.1, 2.0], 1e-5, 1e-6));
        assert!(!allclose(&[1.0], &[1.0, 1.0], 1e-5, 1e-6));
    }
}
