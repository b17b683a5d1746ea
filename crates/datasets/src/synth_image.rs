//! The 8-class synthetic image-classification dataset (ImageNet stand-in).
//!
//! Class design rationale: each §4.3 preprocessing bug must hurt accuracy,
//! and in the paper's severity order.
//!
//! | class | content | sensitive to |
//! |-------|---------|--------------|
//! | 0 | horizontal red stripes | rotation (pairs with 1), channel |
//! | 1 | vertical red stripes | rotation (pairs with 0), channel |
//! | 2 | red disc on dark field | channel swap (red → unseen blue) |
//! | 3 | green disc on dark field | (survives channel swap) |
//! | 4 | bright field, dark square | normalization (pairs with 5) |
//! | 5 | dark field, bright square | normalization (pairs with 4) |
//! | 6 | fine gray checkerboard | resize method (aliasing) |
//! | 7 | diagonal gradient | (robust control class) |

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use mlexray_preprocess::{ChannelOrder, Image};

use crate::{DatasetError, Result};

/// Number of classes.
pub const NUM_CLASSES: usize = 8;

/// Human-readable class names.
pub const CLASS_NAMES: [&str; NUM_CLASSES] = [
    "h_red_stripes",
    "v_red_stripes",
    "red_disc",
    "green_disc",
    "bright_field",
    "dark_field",
    "fine_checker",
    "gradient",
];

/// One labelled sample: the raw "camera" frame plus its class.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledImage {
    /// The sensor-resolution RGB frame.
    pub image: Image,
    /// Ground-truth class in `0..NUM_CLASSES`.
    pub label: usize,
}

/// Generator parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynthImageSpec {
    /// Square frame resolution (the "camera" resolution, larger than the
    /// model input so resizing is actually exercised).
    pub resolution: usize,
    /// Number of samples to generate (labels cycle round-robin so classes
    /// are balanced).
    pub count: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SynthImageSpec {
    fn default() -> Self {
        SynthImageSpec {
            resolution: 64,
            count: 512,
            seed: 42,
        }
    }
}

/// Generates a balanced labelled dataset.
///
/// # Errors
///
/// Returns [`DatasetError::InvalidSpec`] for zero counts or resolutions
/// below 16 (patterns need room).
///
/// # Example
///
/// ```
/// use mlexray_datasets::synth_image::{generate, SynthImageSpec};
///
/// let data = generate(SynthImageSpec { resolution: 32, count: 16, seed: 1 })?;
/// assert_eq!(data.len(), 16);
/// assert!(data.iter().all(|s| s.label < 8));
/// # Ok::<(), mlexray_datasets::DatasetError>(())
/// ```
pub fn generate(spec: SynthImageSpec) -> Result<Vec<LabeledImage>> {
    if spec.count == 0 {
        return Err(DatasetError::InvalidSpec("count must be positive".into()));
    }
    if spec.resolution < 16 {
        return Err(DatasetError::InvalidSpec("resolution must be >= 16".into()));
    }
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let mut out = Vec::with_capacity(spec.count);
    for i in 0..spec.count {
        let label = i % NUM_CLASSES;
        out.push(LabeledImage {
            image: render(label, spec.resolution, &mut rng),
            label,
        });
    }
    Ok(out)
}

/// Renders a single sample of `label` at `res` resolution.
///
/// # Panics
///
/// Panics if `label >= NUM_CLASSES`.
pub fn render(label: usize, res: usize, rng: &mut SmallRng) -> Image {
    assert!(label < NUM_CLASSES, "label out of range");
    let mut img = match label {
        0 => stripes(res, rng, true),
        1 => stripes(res, rng, false),
        2 => disc(res, rng, [200, 40, 40]),
        3 => disc(res, rng, [40, 190, 50]),
        4 => field_square(res, rng, true),
        5 => field_square(res, rng, false),
        6 => fine_checker(res, rng),
        7 => gradient(res, rng),
        _ => unreachable!(),
    };
    add_noise(&mut img, rng, 10);
    img
}

fn jitter(rng: &mut SmallRng, v: u8, amount: i32) -> u8 {
    (v as i32 + rng.gen_range(-amount..=amount)).clamp(0, 255) as u8
}

fn stripes(res: usize, rng: &mut SmallRng, horizontal: bool) -> Image {
    let period = rng.gen_range(6..=10usize);
    let phase = rng.gen_range(0..period);
    let fg = [
        jitter(rng, 200, 25),
        jitter(rng, 40, 20),
        jitter(rng, 40, 20),
    ];
    let bg = [
        jitter(rng, 30, 15),
        jitter(rng, 30, 15),
        jitter(rng, 30, 15),
    ];
    let mut img = Image::solid(res, res, bg);
    for y in 0..res {
        for x in 0..res {
            let coord = if horizontal { y } else { x };
            if (coord + phase) % period < period / 2 {
                img.set_pixel(x, y, fg);
            }
        }
    }
    img
}

fn disc(res: usize, rng: &mut SmallRng, color: [u8; 3]) -> Image {
    let bg = [
        jitter(rng, 25, 10),
        jitter(rng, 25, 10),
        jitter(rng, 25, 10),
    ];
    let mut img = Image::solid(res, res, bg);
    let r = rng.gen_range(res / 5..res / 3) as isize;
    let cx = rng.gen_range(r..res as isize - r);
    let cy = rng.gen_range(r..res as isize - r);
    let fg = [
        jitter(rng, color[0], 20),
        jitter(rng, color[1], 20),
        jitter(rng, color[2], 20),
    ];
    for y in 0..res as isize {
        for x in 0..res as isize {
            if (x - cx) * (x - cx) + (y - cy) * (y - cy) <= r * r {
                img.set_pixel(x as usize, y as usize, fg);
            }
        }
    }
    img
}

fn field_square(res: usize, rng: &mut SmallRng, bright: bool) -> Image {
    let (field, square) = if bright {
        (jitter(rng, 215, 20), jitter(rng, 70, 20))
    } else {
        (jitter(rng, 45, 15), jitter(rng, 190, 25))
    };
    let mut img = Image::solid(res, res, [field, field, field]);
    let side = rng.gen_range(res / 6..res / 3);
    let x0 = rng.gen_range(0..res - side);
    let y0 = rng.gen_range(0..res - side);
    for y in y0..y0 + side {
        for x in x0..x0 + side {
            img.set_pixel(x, y, [square, square, square]);
        }
    }
    img
}

fn fine_checker(res: usize, rng: &mut SmallRng) -> Image {
    // 3-4 px period: visible texture that survives area-average downscaling
    // but shimmers under bilinear resampling.
    let period = rng.gen_range(3..=4usize);
    let a = jitter(rng, 170, 20);
    let b = jitter(rng, 70, 20);
    let mut img = Image::solid(res, res, [0, 0, 0]);
    for y in 0..res {
        for x in 0..res {
            let v = if (x / period + y / period) % 2 == 0 {
                a
            } else {
                b
            };
            img.set_pixel(x, y, [v, v, v]);
        }
    }
    img
}

fn gradient(res: usize, rng: &mut SmallRng) -> Image {
    let lo = rng.gen_range(10..50) as f32;
    let hi = rng.gen_range(180..240) as f32;
    let mut img = Image::solid(res, res, [0, 0, 0]);
    for y in 0..res {
        for x in 0..res {
            let t = (x + y) as f32 / (2 * (res - 1)) as f32;
            let v = (lo + (hi - lo) * t) as u8;
            img.set_pixel(x, y, [v, v, v]);
        }
    }
    img
}

fn add_noise(img: &mut Image, rng: &mut SmallRng, amplitude: i32) {
    let (w, h) = (img.width(), img.height());
    for y in 0..h {
        for x in 0..w {
            let p = img.pixel(x, y);
            img.set_pixel(
                x,
                y,
                [
                    jitter(rng, p[0], amplitude),
                    jitter(rng, p[1], amplitude),
                    jitter(rng, p[2], amplitude),
                ],
            );
        }
    }
}

/// Convenience: a train/test split with disjoint seeds.
///
/// # Errors
///
/// Propagates generator errors.
pub fn train_test_split(
    resolution: usize,
    train: usize,
    test: usize,
    seed: u64,
) -> Result<(Vec<LabeledImage>, Vec<LabeledImage>)> {
    let train_set = generate(SynthImageSpec {
        resolution,
        count: train,
        seed,
    })?;
    let test_set = generate(SynthImageSpec {
        resolution,
        count: test,
        seed: seed ^ 0x5eed,
    })?;
    Ok((train_set, test_set))
}

/// Asserts a frame is RGB as rendered (the generators always emit RGB;
/// channel bugs are injected downstream by relabeling).
pub fn is_rgb(sample: &LabeledImage) -> bool {
    sample.image.order() == ChannelOrder::Rgb
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        let spec = SynthImageSpec {
            resolution: 32,
            count: 16,
            seed: 7,
        };
        let a = generate(spec).unwrap();
        let b = generate(spec).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn labels_are_balanced() {
        let data = generate(SynthImageSpec {
            resolution: 32,
            count: 80,
            seed: 1,
        })
        .unwrap();
        let mut counts = [0usize; NUM_CLASSES];
        for s in &data {
            counts[s.label] += 1;
        }
        assert!(counts.iter().all(|&c| c == 10), "{counts:?}");
    }

    #[test]
    fn invalid_specs_rejected() {
        assert!(generate(SynthImageSpec {
            resolution: 8,
            count: 4,
            seed: 0
        })
        .is_err());
        assert!(generate(SynthImageSpec {
            resolution: 32,
            count: 0,
            seed: 0
        })
        .is_err());
    }

    #[test]
    fn stripes_have_orientation() {
        let mut rng = SmallRng::seed_from_u64(3);
        let h = render(0, 32, &mut rng);
        // Horizontal stripes: rows are nearly constant, columns vary.
        let row_var = (0..32)
            .map(|x| h.pixel(x, 4)[0] as i32)
            .fold((i32::MAX, i32::MIN), |(mn, mx): (i32, i32), v| {
                (mn.min(v), mx.max(v))
            });
        let col_var = (0..32)
            .map(|y| h.pixel(4, y)[0] as i32)
            .fold((i32::MAX, i32::MIN), |(mn, mx), v| (mn.min(v), mx.max(v)));
        assert!(
            (col_var.1 - col_var.0) > (row_var.1 - row_var.0),
            "columns should vary more than rows for horizontal stripes"
        );
    }

    #[test]
    fn discs_are_colored_correctly() {
        let mut rng = SmallRng::seed_from_u64(5);
        let red = render(2, 32, &mut rng);
        // Mean red channel should exceed mean green for the red-disc class.
        let (mut r_sum, mut g_sum) = (0u32, 0u32);
        for y in 0..32 {
            for x in 0..32 {
                let p = red.pixel(x, y);
                r_sum += p[0] as u32;
                g_sum += p[1] as u32;
            }
        }
        assert!(r_sum > g_sum);
    }

    #[test]
    fn brightness_classes_differ_in_mean() {
        let mut rng = SmallRng::seed_from_u64(6);
        let bright = render(4, 32, &mut rng);
        let dark = render(5, 32, &mut rng);
        let mean = |img: &Image| {
            let mut s = 0u32;
            for y in 0..32 {
                for x in 0..32 {
                    s += img.pixel(x, y)[0] as u32;
                }
            }
            s / (32 * 32)
        };
        assert!(mean(&bright) > 140);
        assert!(mean(&dark) < 110);
    }

    #[test]
    fn split_is_disjoint() {
        let (train, test) = train_test_split(32, 16, 16, 9).unwrap();
        assert_ne!(train, test);
        assert!(train.iter().all(is_rgb));
    }
}
