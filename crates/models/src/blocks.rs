//! Shared network-construction helpers.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use mlexray_nn::{Activation, GraphBuilder, Padding, Result, TensorId};
use mlexray_tensor::{he_normal, Shape, Tensor};

/// A [`GraphBuilder`] wrapper carrying a seeded RNG and a name counter, used
/// by every architecture builder in this crate.
///
/// Two construction styles are offered, mirroring the two model stages:
///
/// * `*_bn_act` — checkpoint style: bias-free conv + standalone BatchNorm +
///   standalone activation (what the training framework exports, and what
///   [`mlexray_nn::convert_to_mobile`] folds).
/// * `*_act` — deployment/mini style: conv with bias and fused activation.
#[derive(Debug)]
pub struct NetBuilder {
    /// The underlying graph builder.
    pub b: GraphBuilder,
    rng: SmallRng,
    counter: usize,
}

impl NetBuilder {
    /// Starts a network with a seeded weight RNG.
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        NetBuilder {
            b: GraphBuilder::new(name),
            rng: SmallRng::seed_from_u64(seed),
            counter: 0,
        }
    }

    fn next_name(&mut self, prefix: &str) -> String {
        self.counter += 1;
        format!("{prefix}_{}", self.counter)
    }

    /// He-normal weight constant.
    ///
    /// # Errors
    ///
    /// Propagates tensor construction errors.
    pub fn weight(&mut self, shape: Shape, fan_in: usize) -> Result<TensorId> {
        let name = self.next_name("w");
        let t = he_normal(shape, fan_in, &mut self.rng)?;
        Ok(self.b.constant(name, t))
    }

    /// Zero bias constant.
    pub fn zero_bias(&mut self, len: usize) -> TensorId {
        let name = self.next_name("b");
        self.b
            .constant(name, Tensor::filled_f32(Shape::vector(len), 0.0))
    }

    fn bn_params(&mut self, c: usize) -> (TensorId, TensorId, TensorId, TensorId) {
        let vec = |lo: f32, hi: f32, rng: &mut SmallRng| -> Vec<f32> {
            (0..c).map(|_| rng.gen_range(lo..hi)).collect()
        };
        let gamma = vec(0.7, 1.3, &mut self.rng);
        let beta = vec(-0.1, 0.1, &mut self.rng);
        let mean = vec(-0.1, 0.1, &mut self.rng);
        let var = vec(0.5, 1.5, &mut self.rng);
        let c_of = |tag: &str, data: Vec<f32>, s: &mut Self| {
            let name = s.next_name(tag);
            s.b.constant(
                name,
                Tensor::from_f32(Shape::vector(c), data).expect("len matches"),
            )
        };
        (
            c_of("gamma", gamma, self),
            c_of("beta", beta, self),
            c_of("mean", mean, self),
            c_of("var", var, self),
        )
    }

    /// Checkpoint-style unit: bias-free conv + BatchNorm + activation
    /// (activation omitted for `Activation::None`).
    ///
    /// # Errors
    ///
    /// Propagates graph-construction errors.
    #[allow(clippy::too_many_arguments)]
    pub fn conv_bn_act(
        &mut self,
        tag: &str,
        x: TensorId,
        out_c: usize,
        k: usize,
        stride: usize,
        padding: Padding,
        act: Activation,
    ) -> Result<TensorId> {
        let in_c = self.b.shape_of(x).dims()[3];
        let w = self.weight(Shape::new(vec![out_c, k, k, in_c]), k * k * in_c)?;
        let conv = self.b.conv2d(
            format!("{tag}/conv"),
            x,
            w,
            None,
            stride,
            padding,
            Activation::None,
        )?;
        let (g, be, m, v) = self.bn_params(out_c);
        let bn = self
            .b
            .batch_norm(format!("{tag}/bn"), conv, g, be, m, v, 1e-3)?;
        if act == Activation::None {
            Ok(bn)
        } else {
            self.b.activation(format!("{tag}/act"), bn, act)
        }
    }

    /// Checkpoint-style depthwise unit: bias-free dwconv + BatchNorm + act.
    ///
    /// # Errors
    ///
    /// Propagates graph-construction errors.
    pub fn dwconv_bn_act(
        &mut self,
        tag: &str,
        x: TensorId,
        k: usize,
        stride: usize,
        act: Activation,
    ) -> Result<TensorId> {
        let c = self.b.shape_of(x).dims()[3];
        let w = self.weight(Shape::new(vec![1, k, k, c]), k * k)?;
        let conv = self.b.depthwise_conv2d(
            format!("{tag}/dwconv"),
            x,
            w,
            None,
            stride,
            Padding::Same,
            Activation::None,
        )?;
        let (g, be, m, v) = self.bn_params(c);
        let bn = self
            .b
            .batch_norm(format!("{tag}/bn"), conv, g, be, m, v, 1e-3)?;
        if act == Activation::None {
            Ok(bn)
        } else {
            self.b.activation(format!("{tag}/act"), bn, act)
        }
    }

    /// Deployment/mini-style conv with bias and fused activation.
    ///
    /// # Errors
    ///
    /// Propagates graph-construction errors.
    #[allow(clippy::too_many_arguments)]
    pub fn conv_act(
        &mut self,
        tag: &str,
        x: TensorId,
        out_c: usize,
        k: usize,
        stride: usize,
        padding: Padding,
        act: Activation,
    ) -> Result<TensorId> {
        let in_c = self.b.shape_of(x).dims()[3];
        let w = self.weight(Shape::new(vec![out_c, k, k, in_c]), k * k * in_c)?;
        let bias = self.zero_bias(out_c);
        self.b.conv2d(tag, x, w, Some(bias), stride, padding, act)
    }

    /// Deployment/mini-style depthwise conv with bias and fused activation.
    ///
    /// # Errors
    ///
    /// Propagates graph-construction errors.
    pub fn dwconv_act(
        &mut self,
        tag: &str,
        x: TensorId,
        k: usize,
        stride: usize,
        act: Activation,
    ) -> Result<TensorId> {
        let c = self.b.shape_of(x).dims()[3];
        let w = self.weight(Shape::new(vec![1, k, k, c]), k * k)?;
        let bias = self.zero_bias(c);
        self.b
            .depthwise_conv2d(tag, x, w, Some(bias), stride, Padding::Same, act)
    }

    /// Fully connected layer with bias.
    ///
    /// # Errors
    ///
    /// Propagates graph-construction errors.
    pub fn fc(&mut self, tag: &str, x: TensorId, out: usize, act: Activation) -> Result<TensorId> {
        let in_f = self.b.shape_of(x).dims()[1];
        let w = self.weight(Shape::matrix(out, in_f), in_f)?;
        let bias = self.zero_bias(out);
        self.b.fully_connected(tag, x, w, Some(bias), act)
    }

    /// Classifier head: global mean → FC → softmax (the MobileNet v1/v2
    /// shape, using the `Mean` op that survives quantization).
    ///
    /// # Errors
    ///
    /// Propagates graph-construction errors.
    pub fn mean_fc_softmax(&mut self, x: TensorId, classes: usize) -> Result<TensorId> {
        let gap = self.b.mean("gap", x)?;
        let logits = self.fc("classifier", gap, classes, Activation::None)?;
        self.b.softmax("softmax", logits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlexray_nn::{BackendSpec, Interpreter, Model};

    #[test]
    fn builder_produces_runnable_net() {
        let mut nb = NetBuilder::new("t", 1);
        let x = nb.b.input("x", Shape::nhwc(1, 8, 8, 3));
        let c = nb
            .conv_act("c1", x, 4, 3, 2, Padding::Same, Activation::Relu6)
            .unwrap();
        let out = nb.mean_fc_softmax(c, 5).unwrap();
        nb.b.output(out);
        let model = Model::checkpoint(nb.b.finish().unwrap(), "t");
        let mut interp = Interpreter::new(&model.graph, BackendSpec::optimized()).unwrap();
        let y = interp
            .invoke(&[Tensor::filled_f32(Shape::nhwc(1, 8, 8, 3), 0.5)])
            .unwrap();
        let p = y[0].as_f32().unwrap();
        assert_eq!(p.len(), 5);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn checkpoint_units_convert() {
        let mut nb = NetBuilder::new("ckpt", 2);
        let x = nb.b.input("x", Shape::nhwc(1, 8, 8, 3));
        let c = nb
            .conv_bn_act("u1", x, 4, 3, 1, Padding::Same, Activation::Relu6)
            .unwrap();
        let d = nb.dwconv_bn_act("u2", c, 3, 1, Activation::Relu).unwrap();
        let out = nb.mean_fc_softmax(d, 3).unwrap();
        nb.b.output(out);
        let model = Model::checkpoint(nb.b.finish().unwrap(), "ckpt");
        // 2 units * 3 nodes + mean + fc + softmax = 9 nodes pre-conversion.
        assert_eq!(model.graph.layer_count(), 9);
        let mobile = mlexray_nn::convert_to_mobile(&model).unwrap();
        assert_eq!(
            mobile.graph.layer_count(),
            5,
            "BN+act folded into each conv"
        );
    }

    #[test]
    fn same_seed_same_weights() {
        let build = || {
            let mut nb = NetBuilder::new("t", 5);
            let x = nb.b.input("x", Shape::nhwc(1, 4, 4, 1));
            let c = nb
                .conv_act("c", x, 2, 3, 1, Padding::Same, Activation::None)
                .unwrap();
            nb.b.output(c);
            nb.b.finish().unwrap()
        };
        assert_eq!(build(), build());
    }
}
