//! ResNet-50 v2 (full, checkpoint-style) and a mini residual network.
//!
//! Full-size blocks use the conv→BN→ReLU ordering so that every batch-norm
//! has a foldable convolution producer (the pre-activation ordering of the
//! original v2 paper is not foldable by TFLite-style conversion either;
//! deployed graphs look like this one).

use mlexray_nn::{Activation, Model, Padding, Result, TensorId};
use mlexray_tensor::Shape;

use crate::blocks::NetBuilder;

fn scaled(c: usize, width: f32) -> usize {
    ((c as f32 * width).round() as usize).max(4)
}

fn bottleneck(
    nb: &mut NetBuilder,
    tag: &str,
    x: TensorId,
    mid: usize,
    out_c: usize,
    stride: usize,
) -> Result<TensorId> {
    let in_c = nb.b.shape_of(x).dims()[3];
    let mut y = nb.conv_bn_act(
        &format!("{tag}/a"),
        x,
        mid,
        1,
        1,
        Padding::Same,
        Activation::Relu,
    )?;
    y = nb.conv_bn_act(
        &format!("{tag}/b"),
        y,
        mid,
        3,
        stride,
        Padding::Same,
        Activation::Relu,
    )?;
    y = nb.conv_bn_act(
        &format!("{tag}/c"),
        y,
        out_c,
        1,
        1,
        Padding::Same,
        Activation::None,
    )?;
    let shortcut = if stride != 1 || in_c != out_c {
        nb.conv_bn_act(
            &format!("{tag}/sc"),
            x,
            out_c,
            1,
            stride,
            Padding::Same,
            Activation::None,
        )?
    } else {
        x
    };
    let sum =
        nb.b.add(format!("{tag}/add"), y, shortcut, Activation::None)?;
    nb.b.activation(format!("{tag}/relu"), sum, Activation::Relu)
}

/// Full-size ResNet-50 v2.
///
/// # Errors
///
/// Propagates graph-construction errors (`input` must be ≥ 32).
pub fn resnet50_v2(input: usize, classes: usize, width: f32, seed: u64) -> Result<Model> {
    let mut nb = NetBuilder::new("resnet50_v2", seed);
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
    // (mid, out, blocks, first stride) per stage.
    let stages: [(usize, usize, usize, usize); 4] = [
        (64, 256, 3, 1),
        (128, 512, 4, 2),
        (256, 1024, 6, 2),
        (512, 2048, 3, 2),
    ];
    for (s, &(mid, out_c, blocks, stride)) in stages.iter().enumerate() {
        for b in 0..blocks {
            y = bottleneck(
                &mut nb,
                &format!("stage{s}/block{b}"),
                y,
                scaled(mid, width),
                scaled(out_c, width),
                if b == 0 { stride } else { 1 },
            )?;
        }
    }
    let out = nb.mean_fc_softmax(y, classes)?;
    nb.b.output(out);
    Ok(Model::checkpoint(nb.b.finish()?, "resnet50_v2"))
}

/// Mini residual network: two residual blocks with fused-ReLU adds.
///
/// # Errors
///
/// Propagates graph-construction errors.
pub fn mini_resnet(input: usize, classes: usize, seed: u64) -> Result<Model> {
    let mut nb = NetBuilder::new("mini_resnet", seed);
    let x = nb.b.input("image", Shape::nhwc(1, input, input, 3));
    let mut y = nb.conv_act("stem", x, 16, 3, 2, Padding::Same, Activation::Relu)?;
    for i in 0..2 {
        let tag = format!("block{i}");
        let a = nb.conv_act(
            &format!("{tag}/a"),
            y,
            16,
            3,
            1,
            Padding::Same,
            Activation::Relu,
        )?;
        let b2 = nb.conv_act(
            &format!("{tag}/b"),
            a,
            16,
            3,
            1,
            Padding::Same,
            Activation::None,
        )?;
        y = nb.b.add(format!("{tag}/add"), b2, y, Activation::Relu)?;
    }
    let out = nb.mean_fc_softmax(y, classes)?;
    nb.b.output(out);
    Ok(Model::checkpoint(nb.b.finish()?, "mini_resnet"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlexray_nn::{BackendSpec, Interpreter};
    use mlexray_tensor::Tensor;

    #[test]
    fn full_resnet_scale_matches_paper() {
        let m = resnet50_v2(32, 1000, 1.0, 1).unwrap();
        let params = m.graph.param_count();
        // Paper Table 3: 25.6M.
        assert!((20_000_000..30_000_000).contains(&params), "{params}");
        // Layer count in the ~190 region.
        assert!(
            (150..260).contains(&m.graph.layer_count()),
            "{}",
            m.graph.layer_count()
        );
    }

    #[test]
    fn mini_resnet_runs() {
        let m = mini_resnet(32, 8, 3).unwrap();
        let mut interp = Interpreter::new(&m.graph, BackendSpec::optimized()).unwrap();
        let p = interp
            .invoke(&[Tensor::filled_f32(Shape::nhwc(1, 32, 32, 3), 0.2)])
            .unwrap();
        let v = p[0].as_f32().unwrap();
        assert_eq!(v.len(), 8);
        assert!((v.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn full_resnet_converts() {
        let m = resnet50_v2(64, 10, 0.125, 2).unwrap();
        let mobile = mlexray_nn::convert_to_mobile(&m).unwrap();
        assert!(mobile.graph.layer_count() < m.graph.layer_count());
    }
}
