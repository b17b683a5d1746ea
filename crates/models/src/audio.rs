//! The spectrogram-classification CNN used by the speech-command experiments
//! (Fig. 4c).

use mlexray_nn::{Activation, Model, Padding, Result};
use mlexray_tensor::Shape;

use crate::blocks::NetBuilder;

/// Mini audio CNN over `[1, frames, bins, 1]` spectrograms: two strided
/// convs, global mean, FC, softmax.
///
/// # Errors
///
/// Propagates graph-construction errors.
pub fn mini_audio_cnn(frames: usize, bins: usize, classes: usize, seed: u64) -> Result<Model> {
    let mut nb = NetBuilder::new("mini_audio_cnn", seed);
    let x = nb.b.input("spectrogram", Shape::nhwc(1, frames, bins, 1));
    let c1 = nb.conv_act("conv1", x, 8, 3, 2, Padding::Same, Activation::Relu)?;
    let c2 = nb.conv_act("conv2", c1, 16, 3, 2, Padding::Same, Activation::Relu)?;
    let out = nb.mean_fc_softmax(c2, classes)?;
    nb.b.output(out);
    Ok(Model::checkpoint(nb.b.finish()?, "mini_audio_cnn"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlexray_nn::{BackendSpec, Interpreter};
    use mlexray_tensor::Tensor;

    #[test]
    fn runs_on_spectrogram_shape() {
        let m = mini_audio_cnn(32, 33, 8, 1).unwrap();
        let mut interp = Interpreter::new(&m.graph, BackendSpec::optimized()).unwrap();
        let x = Tensor::filled_f32(Shape::nhwc(1, 32, 33, 1), 0.3);
        let p = interp.invoke(&[x]).unwrap();
        let v = p[0].as_f32().unwrap();
        assert_eq!(v.len(), 8);
        assert!((v.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn is_trainable_scale() {
        let m = mini_audio_cnn(31, 33, 8, 1).unwrap();
        assert!(m.graph.param_count() < 10_000);
    }
}
