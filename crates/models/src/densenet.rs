//! DenseNet-121 (full, checkpoint-style) and a mini densely-connected
//! network. Dense connectivity is the `Concat`-heavy topology of the zoo —
//! the layer-count champion of the paper's Table 3 (429 layers).

use mlexray_nn::{Activation, Model, Padding, Result, TensorId};
use mlexray_tensor::Shape;

use crate::blocks::NetBuilder;

fn scaled(c: usize, width: f32) -> usize {
    ((c as f32 * width).round() as usize).max(4)
}

/// One dense layer: bottleneck 1x1 (4k) + 3x3 (k), concatenated onto the
/// running feature map.
fn dense_layer(nb: &mut NetBuilder, tag: &str, x: TensorId, growth: usize) -> Result<TensorId> {
    let bottleneck = nb.conv_bn_act(
        &format!("{tag}/bottleneck"),
        x,
        4 * growth,
        1,
        1,
        Padding::Same,
        Activation::Relu,
    )?;
    let fresh = nb.conv_bn_act(
        &format!("{tag}/conv"),
        bottleneck,
        growth,
        3,
        1,
        Padding::Same,
        Activation::Relu,
    )?;
    nb.b.concat(format!("{tag}/concat"), &[x, fresh], 3)
}

fn transition(nb: &mut NetBuilder, tag: &str, x: TensorId) -> Result<TensorId> {
    let c = nb.b.shape_of(x).dims()[3];
    let y = nb.conv_bn_act(
        &format!("{tag}/conv"),
        x,
        c / 2,
        1,
        1,
        Padding::Same,
        Activation::Relu,
    )?;
    nb.b.avg_pool2d(format!("{tag}/pool"), y, 2, 2, 2, Padding::Valid)
}

/// Full-size DenseNet-121: blocks of 6/12/24/16 dense layers, growth 32.
///
/// # Errors
///
/// Propagates graph-construction errors (`input` must be ≥ 32).
pub fn densenet121(input: usize, classes: usize, width: f32, seed: u64) -> Result<Model> {
    let growth = scaled(32, width);
    let mut nb = NetBuilder::new("densenet121", seed);
    let x = nb.b.input("image", Shape::nhwc(1, input, input, 3));
    let mut y = nb.conv_bn_act(
        "stem",
        x,
        scaled(64, width),
        7,
        2,
        Padding::Same,
        Activation::Relu,
    )?;
    y = nb.b.max_pool2d("stem/pool", y, 3, 3, 2, Padding::Same)?;
    let blocks = [6usize, 12, 24, 16];
    for (b, &layers) in blocks.iter().enumerate() {
        for l in 0..layers {
            y = dense_layer(&mut nb, &format!("block{b}/layer{l}"), y, growth)?;
        }
        if b + 1 < blocks.len() {
            y = transition(&mut nb, &format!("transition{b}"), y)?;
        }
    }
    let out = nb.mean_fc_softmax(y, classes)?;
    nb.b.output(out);
    Ok(Model::checkpoint(nb.b.finish()?, "densenet121"))
}

/// Mini densely-connected network: two dense blocks of two layers each.
///
/// # Errors
///
/// Propagates graph-construction errors.
pub fn mini_densenet(input: usize, classes: usize, seed: u64) -> Result<Model> {
    let mut nb = NetBuilder::new("mini_densenet", seed);
    let x = nb.b.input("image", Shape::nhwc(1, input, input, 3));
    let mut y = nb.conv_act("stem", x, 8, 3, 2, Padding::Same, Activation::Relu)?;
    for b in 0..2 {
        for l in 0..2 {
            let tag = format!("block{b}/layer{l}");
            let fresh = nb.conv_act(&tag, y, 4, 3, 1, Padding::Same, Activation::Relu)?;
            y = nb.b.concat(format!("{tag}/concat"), &[y, fresh], 3)?;
        }
        if b == 0 {
            let c = nb.b.shape_of(y).dims()[3];
            y = nb.conv_act(
                "transition/conv",
                y,
                c / 2,
                1,
                1,
                Padding::Same,
                Activation::Relu,
            )?;
            y =
                nb.b.avg_pool2d("transition/pool", y, 2, 2, 2, Padding::Valid)?;
        }
    }
    let out = nb.mean_fc_softmax(y, classes)?;
    nb.b.output(out);
    Ok(Model::checkpoint(nb.b.finish()?, "mini_densenet"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlexray_nn::{BackendSpec, Interpreter};
    use mlexray_tensor::Tensor;

    #[test]
    fn full_densenet_scale() {
        let m = densenet121(32, 1000, 1.0, 1).unwrap();
        let params = m.graph.param_count();
        // Paper Table 3: 8M.
        assert!((6_000_000..11_000_000).contains(&params), "{params}");
        // Layer-count champion: paper counts 429.
        assert!(
            (380..480).contains(&m.graph.layer_count()),
            "{}",
            m.graph.layer_count()
        );
    }

    #[test]
    fn densenet_grows_channels() {
        let m = densenet121(64, 10, 0.25, 1).unwrap();
        // Find the widest concat output.
        let max_c = m
            .graph
            .nodes()
            .iter()
            .map(|n| {
                m.graph
                    .tensor(n.output)
                    .shape()
                    .dims()
                    .last()
                    .copied()
                    .unwrap_or(0)
            })
            .max()
            .unwrap();
        assert!(
            max_c > 100,
            "dense connectivity should accumulate channels: {max_c}"
        );
    }

    #[test]
    fn mini_densenet_runs() {
        let m = mini_densenet(32, 8, 7).unwrap();
        let mut interp = Interpreter::new(&m.graph, BackendSpec::optimized()).unwrap();
        let p = interp
            .invoke(&[Tensor::filled_f32(Shape::nhwc(1, 32, 32, 3), 0.1)])
            .unwrap();
        let v = p[0].as_f32().unwrap();
        assert_eq!(v.len(), 8);
        assert!((v.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }
}
