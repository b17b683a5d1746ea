//! Seeded inputs. Everything a workload feeds the program comes from here
//! and is a pure function of `--seed`; the program under test sees only the
//! generated frames and tensors.

use std::time::Duration;

use mlexray_core::LabeledFrame;
use mlexray_datasets::synth_image::{self, SynthImageSpec};
use mlexray_preprocess::ImagePreprocessConfig;
use mlexray_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Distinct frames per workload: enough that no layer can answer from a
/// one-entry memo, few enough that the oracle outputs are cheap to hold.
pub const FRAMES: usize = 64;

/// `FRAMES` synthetic camera frames at `resolution`, in a seeded order.
pub fn frames(seed: u64, resolution: usize) -> Vec<LabeledFrame> {
    let images = synth_image::generate(SynthImageSpec {
        resolution,
        count: FRAMES,
        seed,
    })
    .expect("synthetic frame spec is valid");
    let mut frames: Vec<LabeledFrame> = images
        .into_iter()
        .map(|s| LabeledFrame::new(s.image, Some(s.label)))
        .collect();
    // The generator cycles labels round-robin; shuffle so neighbouring
    // requests (and so coalesced batches) do not share a class pattern.
    frames.shuffle(&mut SmallRng::seed_from_u64(seed ^ 0x5eed_f00d));
    frames
}

/// The model-input tensors of `frames` under the family's canonical
/// preprocessing.
pub fn tensors(frames: &[LabeledFrame], preprocess: &ImagePreprocessConfig) -> Vec<Tensor> {
    frames
        .iter()
        .map(|f| {
            preprocess
                .apply(&f.image)
                .expect("canonical preprocessing accepts synthetic frames")
        })
        .collect()
}

/// One open-loop arrival: when it is due (from the segment's start) and
/// which frame it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    pub due: Duration,
    pub frame: usize,
}

/// A fixed-interval burst schedule: `bursts` bursts of `burst` requests,
/// one burst every `interval`. The timing is deliberately not random — a
/// Poisson process at this utilisation made p90 depend on which gaps the
/// seed drew — so the seed only picks the frames.
pub fn burst_schedule(seed: u64, bursts: usize, burst: usize, interval: Duration) -> Vec<Arrival> {
    let mut order: Vec<usize> = (0..FRAMES).collect();
    order.shuffle(&mut SmallRng::seed_from_u64(seed ^ 0xb0b5_7a11));
    (0..bursts * burst)
        .map(|i| Arrival {
            due: interval * (i / burst) as u32,
            frame: order[i % FRAMES],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(tensors: &[Tensor]) -> Vec<u32> {
        tensors
            .iter()
            .flat_map(|t| t.as_f32().unwrap().iter().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn input_set_is_a_pure_function_of_the_seed() {
        let pre = ImagePreprocessConfig::mobilenet_style(24, 24);
        let a = tensors(&frames(7, 32), &pre);
        let b = tensors(&frames(7, 32), &pre);
        let c = tensors(&frames(8, 32), &pre);
        assert_eq!(a.len(), FRAMES);
        assert_eq!(bytes(&a), bytes(&b));
        assert_ne!(bytes(&a), bytes(&c));
    }

    #[test]
    fn burst_schedule_is_fixed_in_time_and_seeded_in_content() {
        let interval = Duration::from_millis(50);
        let a = burst_schedule(3, 30, 4, interval);
        assert_eq!(a, burst_schedule(3, 30, 4, interval));
        let b = burst_schedule(4, 30, 4, interval);
        assert_ne!(a, b);
        assert_eq!(a.len(), 120);
        // Same due times whatever the seed; four arrivals share each.
        assert!(a.iter().zip(&b).all(|(x, y)| x.due == y.due));
        assert_eq!(a[3].due, Duration::ZERO);
        assert_eq!(a[4].due, interval);
        assert_eq!(a[119].due, interval * 29);
    }
}
