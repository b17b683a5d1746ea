//! MobileNet v1 / v2 / v3-small, full-size (checkpoint-style) and mini
//! (trainable) variants.
//!
//! The architectural details that matter to the paper's experiments are kept
//! faithful:
//!
//! * v1/v2 end in the **`Mean`** op; v3 ends in (and its squeeze-excite
//!   blocks contain) the **`AveragePool2d`** op. These are different TFLite
//!   ops, which is exactly why v1/v2 survive quantization in Fig. 5 while v3
//!   collapses under the broken quantized average pool.
//! * v2/v3 use inverted residual blocks with `Add`; v3 adds SE gates
//!   (`Mul`) and hard-swish.

use mlexray_nn::{Activation, Model, Padding, Result, TensorId};
use mlexray_tensor::Shape;

use crate::blocks::NetBuilder;

fn scaled(c: usize, width: f32) -> usize {
    ((c as f32 * width).round() as usize).max(4)
}

/// Full-size MobileNet v1 (checkpoint-style: conv + BN + ReLU6 units).
///
/// # Errors
///
/// Propagates graph-construction errors (e.g. `input` too small).
pub fn mobilenet_v1(input: usize, classes: usize, width: f32, seed: u64) -> Result<Model> {
    let mut nb = NetBuilder::new("mobilenet_v1", seed);
    let x = nb.b.input("image", Shape::nhwc(1, input, input, 3));
    let mut y = nb.conv_bn_act(
        "stem",
        x,
        scaled(32, width),
        3,
        2,
        Padding::Same,
        Activation::Relu6,
    )?;
    // (stride, out_channels) of the 13 depthwise-separable blocks.
    let blocks: [(usize, usize); 13] = [
        (1, 64),
        (2, 128),
        (1, 128),
        (2, 256),
        (1, 256),
        (2, 512),
        (1, 512),
        (1, 512),
        (1, 512),
        (1, 512),
        (1, 512),
        (2, 1024),
        (1, 1024),
    ];
    for (i, &(stride, out_c)) in blocks.iter().enumerate() {
        y = nb.dwconv_bn_act(&format!("block{i}/dw"), y, 3, stride, Activation::Relu6)?;
        y = nb.conv_bn_act(
            &format!("block{i}/pw"),
            y,
            scaled(out_c, width),
            1,
            1,
            Padding::Same,
            Activation::Relu6,
        )?;
    }
    let out = nb.mean_fc_softmax(y, classes)?;
    nb.b.output(out);
    Ok(Model::checkpoint(nb.b.finish()?, "mobilenet_v1"))
}

/// One v2 inverted-residual bottleneck (checkpoint-style).
fn inverted_residual(
    nb: &mut NetBuilder,
    tag: &str,
    x: TensorId,
    expand: usize,
    out_c: usize,
    stride: usize,
) -> Result<TensorId> {
    let in_c = nb.b.shape_of(x).dims()[3];
    let mut y = x;
    if expand != in_c {
        y = nb.conv_bn_act(
            &format!("{tag}/expand"),
            y,
            expand,
            1,
            1,
            Padding::Same,
            Activation::Relu6,
        )?;
    }
    y = nb.dwconv_bn_act(&format!("{tag}/dw"), y, 3, stride, Activation::Relu6)?;
    y = nb.conv_bn_act(
        &format!("{tag}/project"),
        y,
        out_c,
        1,
        1,
        Padding::Same,
        Activation::None,
    )?;
    if stride == 1 && in_c == out_c {
        y = nb.b.add(format!("{tag}/add"), x, y, Activation::None)?;
    }
    Ok(y)
}

/// Full-size MobileNet v2.
///
/// # Errors
///
/// Propagates graph-construction errors.
pub fn mobilenet_v2(input: usize, classes: usize, width: f32, seed: u64) -> Result<Model> {
    let mut nb = NetBuilder::new("mobilenet_v2", seed);
    let x = nb.b.input("image", Shape::nhwc(1, input, input, 3));
    let mut y = nb.conv_bn_act(
        "stem",
        x,
        scaled(32, width),
        3,
        2,
        Padding::Same,
        Activation::Relu6,
    )?;
    // (expansion factor, out_channels, repeats, first stride).
    let settings: [(usize, usize, usize, usize); 7] = [
        (1, 16, 1, 1),
        (6, 24, 2, 2),
        (6, 32, 3, 2),
        (6, 64, 4, 2),
        (6, 96, 3, 1),
        (6, 160, 3, 2),
        (6, 320, 1, 1),
    ];
    let mut idx = 0;
    for &(t, c, n, s) in &settings {
        for r in 0..n {
            let in_c = nb.b.shape_of(y).dims()[3];
            let stride = if r == 0 { s } else { 1 };
            y = inverted_residual(
                &mut nb,
                &format!("bneck{idx}"),
                y,
                t * in_c,
                scaled(c, width),
                stride,
            )?;
            idx += 1;
        }
    }
    y = nb.conv_bn_act(
        "head",
        y,
        scaled(1280, width),
        1,
        1,
        Padding::Same,
        Activation::Relu6,
    )?;
    let out = nb.mean_fc_softmax(y, classes)?;
    nb.b.output(out);
    Ok(Model::checkpoint(nb.b.finish()?, "mobilenet_v2"))
}

/// Squeeze-excite gate built around the `AveragePool2d` op (§4.4's culprit).
fn squeeze_excite(nb: &mut NetBuilder, tag: &str, x: TensorId) -> Result<TensorId> {
    let c = nb.b.shape_of(x).dims()[3];
    let pooled = nb.b.avg_pool_global(format!("{tag}/se/pool"), x)?;
    let reduced = nb.conv_act(
        &format!("{tag}/se/reduce"),
        pooled,
        (c / 4).max(2),
        1,
        1,
        Padding::Same,
        Activation::Relu,
    )?;
    let gate = nb.conv_act(
        &format!("{tag}/se/expand"),
        reduced,
        c,
        1,
        1,
        Padding::Same,
        Activation::HardSigmoid,
    )?;
    nb.b.mul(format!("{tag}/se/scale"), x, gate)
}

/// One v3 bottleneck with optional squeeze-excite.
#[allow(clippy::too_many_arguments)]
fn v3_bneck(
    nb: &mut NetBuilder,
    tag: &str,
    x: TensorId,
    k: usize,
    expand: usize,
    out_c: usize,
    se: bool,
    act: Activation,
    stride: usize,
) -> Result<TensorId> {
    let in_c = nb.b.shape_of(x).dims()[3];
    let mut y = x;
    if expand != in_c {
        y = nb.conv_bn_act(
            &format!("{tag}/expand"),
            y,
            expand,
            1,
            1,
            Padding::Same,
            act,
        )?;
    }
    y = nb.dwconv_bn_act(&format!("{tag}/dw"), y, k, stride, act)?;
    if se {
        y = squeeze_excite(nb, tag, y)?;
    }
    y = nb.conv_bn_act(
        &format!("{tag}/project"),
        y,
        out_c,
        1,
        1,
        Padding::Same,
        Activation::None,
    )?;
    if stride == 1 && in_c == out_c {
        y = nb.b.add(format!("{tag}/add"), x, y, Activation::None)?;
    }
    Ok(y)
}

/// Full-size MobileNet v3-small.
///
/// # Errors
///
/// Propagates graph-construction errors.
pub fn mobilenet_v3_small(input: usize, classes: usize, width: f32, seed: u64) -> Result<Model> {
    use Activation::{HardSwish as HS, Relu as RE};
    let mut nb = NetBuilder::new("mobilenet_v3_small", seed);
    let x = nb.b.input("image", Shape::nhwc(1, input, input, 3));
    let mut y = nb.conv_bn_act("stem", x, scaled(16, width), 3, 2, Padding::Same, HS)?;
    // (kernel, expansion, out, SE?, activation, stride) — the v3-small table.
    let blocks: [(usize, usize, usize, bool, Activation, usize); 11] = [
        (3, 16, 16, true, RE, 2),
        (3, 72, 24, false, RE, 2),
        (3, 88, 24, false, RE, 1),
        (5, 96, 40, true, HS, 2),
        (5, 240, 40, true, HS, 1),
        (5, 240, 40, true, HS, 1),
        (5, 120, 48, true, HS, 1),
        (5, 144, 48, true, HS, 1),
        (5, 288, 96, true, HS, 2),
        (5, 576, 96, true, HS, 1),
        (5, 576, 96, true, HS, 1),
    ];
    for (i, &(k, e, c, se, act, s)) in blocks.iter().enumerate() {
        y = v3_bneck(
            &mut nb,
            &format!("bneck{i}"),
            y,
            k,
            scaled(e, width),
            scaled(c, width),
            se,
            act,
            s,
        )?;
    }
    y = nb.conv_bn_act("head", y, scaled(576, width), 1, 1, Padding::Same, HS)?;
    // v3 pools with AveragePool2d, not Mean.
    let pooled = nb.b.avg_pool_global("final_pool", y)?;
    let pre = nb.conv_act(
        "pre_logits",
        pooled,
        scaled(1024, width),
        1,
        1,
        Padding::Same,
        HS,
    )?;
    let flat_c = nb.b.shape_of(pre).dims()[3];
    let flat = nb.b.reshape("flatten", pre, vec![1, flat_c])?;
    let logits = nb.fc("classifier", flat, classes, Activation::None)?;
    let out = nb.b.softmax("softmax", logits)?;
    nb.b.output(out);
    Ok(Model::checkpoint(nb.b.finish()?, "mobilenet_v3_small"))
}

/// Mini MobileNet v1: the depthwise-separable stack at trainable scale
/// (no batch-norm; fused activations).
///
/// # Errors
///
/// Propagates graph-construction errors.
pub fn mini_v1(input: usize, classes: usize, seed: u64) -> Result<Model> {
    let mut nb = NetBuilder::new("mini_mobilenet_v1", seed);
    let x = nb.b.input("image", Shape::nhwc(1, input, input, 3));
    let mut y = nb.conv_act("stem", x, 8, 3, 2, Padding::Same, Activation::Relu6)?;
    for (i, &(stride, out_c)) in [(1usize, 16usize), (2, 24), (1, 24)].iter().enumerate() {
        y = nb.dwconv_act(&format!("block{i}/dw"), y, 3, stride, Activation::Relu6)?;
        y = nb.conv_act(
            &format!("block{i}/pw"),
            y,
            out_c,
            1,
            1,
            Padding::Same,
            Activation::Relu6,
        )?;
    }
    let out = nb.mean_fc_softmax(y, classes)?;
    nb.b.output(out);
    Ok(Model::checkpoint(nb.b.finish()?, "mini_mobilenet_v1"))
}

fn mini_inverted_residual(
    nb: &mut NetBuilder,
    tag: &str,
    x: TensorId,
    expand: usize,
    out_c: usize,
    stride: usize,
) -> Result<TensorId> {
    let in_c = nb.b.shape_of(x).dims()[3];
    let mut y = nb.conv_act(
        &format!("{tag}/expand"),
        x,
        expand,
        1,
        1,
        Padding::Same,
        Activation::Relu6,
    )?;
    y = nb.dwconv_act(&format!("{tag}/dw"), y, 3, stride, Activation::Relu6)?;
    y = nb.conv_act(
        &format!("{tag}/project"),
        y,
        out_c,
        1,
        1,
        Padding::Same,
        Activation::None,
    )?;
    if stride == 1 && in_c == out_c {
        y = nb.b.add(format!("{tag}/add"), x, y, Activation::None)?;
    }
    Ok(y)
}

/// Mini MobileNet v2: inverted residuals with `Add` and a `Mean` head.
///
/// # Errors
///
/// Propagates graph-construction errors.
pub fn mini_v2(input: usize, classes: usize, seed: u64) -> Result<Model> {
    let mut nb = NetBuilder::new("mini_mobilenet_v2", seed);
    let x = nb.b.input("image", Shape::nhwc(1, input, input, 3));
    let mut y = nb.conv_act("stem", x, 8, 3, 2, Padding::Same, Activation::Relu6)?;
    y = mini_inverted_residual(&mut nb, "bneck0", y, 16, 8, 1)?;
    y = mini_inverted_residual(&mut nb, "bneck1", y, 24, 12, 2)?;
    y = mini_inverted_residual(&mut nb, "bneck2", y, 24, 12, 1)?;
    y = nb.conv_act("head", y, 32, 1, 1, Padding::Same, Activation::Relu6)?;
    let out = nb.mean_fc_softmax(y, classes)?;
    nb.b.output(out);
    Ok(Model::checkpoint(nb.b.finish()?, "mini_mobilenet_v2"))
}

/// Mini MobileNet v3: SE blocks (`AveragePool2d` + `Mul` gates), hard-swish,
/// and an `AveragePool2d` head — the quantization victim of Fig. 5/6.
///
/// # Errors
///
/// Propagates graph-construction errors.
pub fn mini_v3(input: usize, classes: usize, seed: u64) -> Result<Model> {
    use Activation::HardSwish as HS;
    let mut nb = NetBuilder::new("mini_mobilenet_v3", seed);
    let x = nb.b.input("image", Shape::nhwc(1, input, input, 3));
    let mut y = nb.conv_act("stem", x, 8, 3, 2, Padding::Same, HS)?;

    // Two SE bottlenecks.
    for (i, &(expand, out_c, stride)) in
        [(16usize, 12usize, 2usize), (24, 12, 1)].iter().enumerate()
    {
        let tag = format!("bneck{i}");
        let in_c = nb.b.shape_of(y).dims()[3];
        let mut z = nb.conv_act(&format!("{tag}/expand"), y, expand, 1, 1, Padding::Same, HS)?;
        z = nb.dwconv_act(&format!("{tag}/dw"), z, 3, stride, Activation::Relu)?;
        z = squeeze_excite(&mut nb, &tag, z)?;
        z = nb.conv_act(
            &format!("{tag}/project"),
            z,
            out_c,
            1,
            1,
            Padding::Same,
            Activation::None,
        )?;
        if stride == 1 && in_c == out_c {
            z = nb.b.add(format!("{tag}/add"), y, z, Activation::None)?;
        }
        y = z;
    }
    y = nb.conv_act("head", y, 32, 1, 1, Padding::Same, HS)?;
    let pooled = nb.b.avg_pool_global("final_pool", y)?;
    let flat = nb.b.reshape("flatten", pooled, vec![1, 32])?;
    let logits = nb.fc("classifier", flat, classes, Activation::None)?;
    let out = nb.b.softmax("softmax", logits)?;
    nb.b.output(out);
    Ok(Model::checkpoint(nb.b.finish()?, "mini_mobilenet_v3"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlexray_nn::{BackendSpec, Interpreter, OpKind};
    use mlexray_tensor::Tensor;

    fn run(model: &Model, input: usize) -> Vec<f32> {
        let mut interp = Interpreter::new(&model.graph, BackendSpec::optimized()).unwrap();
        let x = Tensor::filled_f32(Shape::nhwc(1, input, input, 3), 0.1);
        interp.invoke(&[x]).unwrap()[0].as_f32().unwrap().to_vec()
    }

    #[test]
    fn v1_structure() {
        let m = mobilenet_v1(64, 10, 0.25, 1).unwrap();
        // 27 conv units * 3 nodes + mean + fc + softmax.
        assert_eq!(m.graph.layer_count(), 27 * 3 + 3);
        let p = run(&m, 64);
        assert_eq!(p.len(), 10);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn v1_full_width_params_match_paper_scale() {
        let m = mobilenet_v1(32, 1000, 1.0, 1).unwrap();
        let params = m.graph.param_count();
        // Paper Table 3: 4.2M.
        assert!((3_500_000..5_500_000).contains(&params), "{params}");
    }

    #[test]
    fn v2_has_more_layers_than_v1_and_uses_mean() {
        let v1 = mobilenet_v1(64, 10, 0.25, 1).unwrap();
        let v2 = mobilenet_v2(64, 10, 0.25, 1).unwrap();
        assert!(v2.graph.layer_count() > v1.graph.layer_count());
        assert!(v2
            .graph
            .nodes()
            .iter()
            .any(|n| matches!(n.op, OpKind::Mean)));
        assert!(!v2
            .graph
            .nodes()
            .iter()
            .any(|n| matches!(n.op, OpKind::AveragePool2d { .. })));
    }

    #[test]
    fn v3_uses_avgpool_not_only_mean() {
        let v3 = mobilenet_v3_small(64, 10, 0.25, 1).unwrap();
        let avgpools = v3
            .graph
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, OpKind::AveragePool2d { .. }))
            .count();
        // 9 SE blocks + the final pool.
        assert!(avgpools >= 9, "found {avgpools} AveragePool2d nodes");
        let p = run(&v3, 64);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn minis_run_and_are_small() {
        for m in [
            mini_v1(32, 8, 1).unwrap(),
            mini_v2(32, 8, 1).unwrap(),
            mini_v3(32, 8, 1).unwrap(),
        ] {
            assert!(m.graph.param_count() < 60_000, "{} too big", m.family);
            let p = run(&m, 32);
            assert_eq!(p.len(), 8);
            assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn mini_v3_contains_se_avgpool() {
        let m = mini_v3(32, 8, 1).unwrap();
        let avgpools = m
            .graph
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, OpKind::AveragePool2d { .. }))
            .count();
        assert_eq!(avgpools, 3, "two SE pools + final pool");
    }

    #[test]
    fn full_models_convert_and_shrink() {
        let m = mobilenet_v2(64, 10, 0.25, 1).unwrap();
        let mobile = mlexray_nn::convert_to_mobile(&m).unwrap();
        assert!(mobile.graph.layer_count() < m.graph.layer_count() / 2);
    }
}
