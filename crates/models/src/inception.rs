//! Inception v3 (full, checkpoint-style, square-kernel approximation) and a
//! mini multi-branch network.
//!
//! The original's 1x7/7x1 factorized convolutions are approximated with
//! square 3x3 stacks (our kernel inventory is square); branch structure,
//! in-branch average pooling and concatenation are preserved — those are the
//! features the paper's experiments exercise.

use mlexray_nn::{Activation, Model, Padding, Result, TensorId};
use mlexray_tensor::Shape;

use crate::blocks::NetBuilder;

fn scaled(c: usize, width: f32) -> usize {
    ((c as f32 * width).round() as usize).max(4)
}

/// Inception-A style module: 1x1, 5x5, double-3x3 and pooled branches.
fn inception_a(nb: &mut NetBuilder, tag: &str, x: TensorId, width: f32) -> Result<TensorId> {
    let b1 = nb.conv_bn_act(
        &format!("{tag}/b1"),
        x,
        scaled(64, width),
        1,
        1,
        Padding::Same,
        Activation::Relu,
    )?;
    let b2a = nb.conv_bn_act(
        &format!("{tag}/b2a"),
        x,
        scaled(48, width),
        1,
        1,
        Padding::Same,
        Activation::Relu,
    )?;
    let b2 = nb.conv_bn_act(
        &format!("{tag}/b2b"),
        b2a,
        scaled(64, width),
        5,
        1,
        Padding::Same,
        Activation::Relu,
    )?;
    let b3a = nb.conv_bn_act(
        &format!("{tag}/b3a"),
        x,
        scaled(64, width),
        1,
        1,
        Padding::Same,
        Activation::Relu,
    )?;
    let b3b = nb.conv_bn_act(
        &format!("{tag}/b3b"),
        b3a,
        scaled(96, width),
        3,
        1,
        Padding::Same,
        Activation::Relu,
    )?;
    let b3 = nb.conv_bn_act(
        &format!("{tag}/b3c"),
        b3b,
        scaled(96, width),
        3,
        1,
        Padding::Same,
        Activation::Relu,
    )?;
    let pool =
        nb.b.avg_pool2d(format!("{tag}/pool"), x, 3, 3, 1, Padding::Same)?;
    let b4 = nb.conv_bn_act(
        &format!("{tag}/b4"),
        pool,
        scaled(64, width),
        1,
        1,
        Padding::Same,
        Activation::Relu,
    )?;
    nb.b.concat(format!("{tag}/concat"), &[b1, b2, b3, b4], 3)
}

/// Inception-B style module (square-kernel approximation of the 7x1/1x7
/// factorized branches).
fn inception_b(nb: &mut NetBuilder, tag: &str, x: TensorId, width: f32) -> Result<TensorId> {
    let b1 = nb.conv_bn_act(
        &format!("{tag}/b1"),
        x,
        scaled(192, width),
        1,
        1,
        Padding::Same,
        Activation::Relu,
    )?;
    let b2a = nb.conv_bn_act(
        &format!("{tag}/b2a"),
        x,
        scaled(128, width),
        1,
        1,
        Padding::Same,
        Activation::Relu,
    )?;
    let b2 = nb.conv_bn_act(
        &format!("{tag}/b2b"),
        b2a,
        scaled(192, width),
        3,
        1,
        Padding::Same,
        Activation::Relu,
    )?;
    let b3a = nb.conv_bn_act(
        &format!("{tag}/b3a"),
        x,
        scaled(128, width),
        1,
        1,
        Padding::Same,
        Activation::Relu,
    )?;
    let b3b = nb.conv_bn_act(
        &format!("{tag}/b3b"),
        b3a,
        scaled(128, width),
        3,
        1,
        Padding::Same,
        Activation::Relu,
    )?;
    let b3 = nb.conv_bn_act(
        &format!("{tag}/b3c"),
        b3b,
        scaled(192, width),
        3,
        1,
        Padding::Same,
        Activation::Relu,
    )?;
    let pool =
        nb.b.avg_pool2d(format!("{tag}/pool"), x, 3, 3, 1, Padding::Same)?;
    let b4 = nb.conv_bn_act(
        &format!("{tag}/b4"),
        pool,
        scaled(192, width),
        1,
        1,
        Padding::Same,
        Activation::Relu,
    )?;
    nb.b.concat(format!("{tag}/concat"), &[b1, b2, b3, b4], 3)
}

/// Inception-C style module.
fn inception_c(nb: &mut NetBuilder, tag: &str, x: TensorId, width: f32) -> Result<TensorId> {
    let b1 = nb.conv_bn_act(
        &format!("{tag}/b1"),
        x,
        scaled(320, width),
        1,
        1,
        Padding::Same,
        Activation::Relu,
    )?;
    let b2a = nb.conv_bn_act(
        &format!("{tag}/b2a"),
        x,
        scaled(384, width),
        1,
        1,
        Padding::Same,
        Activation::Relu,
    )?;
    let b2 = nb.conv_bn_act(
        &format!("{tag}/b2b"),
        b2a,
        scaled(768, width),
        3,
        1,
        Padding::Same,
        Activation::Relu,
    )?;
    let b3a = nb.conv_bn_act(
        &format!("{tag}/b3a"),
        x,
        scaled(448, width),
        1,
        1,
        Padding::Same,
        Activation::Relu,
    )?;
    let b3b = nb.conv_bn_act(
        &format!("{tag}/b3b"),
        b3a,
        scaled(384, width),
        3,
        1,
        Padding::Same,
        Activation::Relu,
    )?;
    let b3 = nb.conv_bn_act(
        &format!("{tag}/b3c"),
        b3b,
        scaled(768, width),
        3,
        1,
        Padding::Same,
        Activation::Relu,
    )?;
    let pool =
        nb.b.avg_pool2d(format!("{tag}/pool"), x, 3, 3, 1, Padding::Same)?;
    let b4 = nb.conv_bn_act(
        &format!("{tag}/b4"),
        pool,
        scaled(192, width),
        1,
        1,
        Padding::Same,
        Activation::Relu,
    )?;
    nb.b.concat(format!("{tag}/concat"), &[b1, b2, b3, b4], 3)
}

fn reduction(
    nb: &mut NetBuilder,
    tag: &str,
    x: TensorId,
    a: usize,
    b: usize,
    width: f32,
) -> Result<TensorId> {
    let r1 = nb.conv_bn_act(
        &format!("{tag}/r1"),
        x,
        scaled(a, width),
        3,
        2,
        Padding::Same,
        Activation::Relu,
    )?;
    let r2a = nb.conv_bn_act(
        &format!("{tag}/r2a"),
        x,
        scaled(b, width),
        1,
        1,
        Padding::Same,
        Activation::Relu,
    )?;
    let r2b = nb.conv_bn_act(
        &format!("{tag}/r2b"),
        r2a,
        scaled(b, width),
        3,
        1,
        Padding::Same,
        Activation::Relu,
    )?;
    let r2 = nb.conv_bn_act(
        &format!("{tag}/r2c"),
        r2b,
        scaled(b, width),
        3,
        2,
        Padding::Same,
        Activation::Relu,
    )?;
    let pool =
        nb.b.max_pool2d(format!("{tag}/pool"), x, 3, 3, 2, Padding::Same)?;
    nb.b.concat(format!("{tag}/concat"), &[r1, r2, pool], 3)
}

/// Full-size Inception v3 (square-kernel approximation).
///
/// # Errors
///
/// Propagates graph-construction errors (`input` must be ≥ 64).
pub fn inception_v3(input: usize, classes: usize, width: f32, seed: u64) -> Result<Model> {
    let mut nb = NetBuilder::new("inception_v3", seed);
    let x = nb.b.input("image", Shape::nhwc(1, input, input, 3));
    let mut y = nb.conv_bn_act(
        "stem/c1",
        x,
        scaled(32, width),
        3,
        2,
        Padding::Same,
        Activation::Relu,
    )?;
    y = nb.conv_bn_act(
        "stem/c2",
        y,
        scaled(32, width),
        3,
        1,
        Padding::Same,
        Activation::Relu,
    )?;
    y = nb.conv_bn_act(
        "stem/c3",
        y,
        scaled(64, width),
        3,
        1,
        Padding::Same,
        Activation::Relu,
    )?;
    y = nb.b.max_pool2d("stem/pool1", y, 3, 3, 2, Padding::Same)?;
    y = nb.conv_bn_act(
        "stem/c4",
        y,
        scaled(80, width),
        1,
        1,
        Padding::Same,
        Activation::Relu,
    )?;
    y = nb.conv_bn_act(
        "stem/c5",
        y,
        scaled(192, width),
        3,
        1,
        Padding::Same,
        Activation::Relu,
    )?;
    y = nb.b.max_pool2d("stem/pool2", y, 3, 3, 2, Padding::Same)?;
    for i in 0..3 {
        y = inception_a(&mut nb, &format!("mixedA{i}"), y, width)?;
    }
    y = reduction(&mut nb, "reductionA", y, 384, 96, width)?;
    for i in 0..4 {
        y = inception_b(&mut nb, &format!("mixedB{i}"), y, width)?;
    }
    y = reduction(&mut nb, "reductionB", y, 320, 192, width)?;
    for i in 0..2 {
        y = inception_c(&mut nb, &format!("mixedC{i}"), y, width)?;
    }
    let out = nb.mean_fc_softmax(y, classes)?;
    nb.b.output(out);
    Ok(Model::checkpoint(nb.b.finish()?, "inception_v3"))
}

/// Mini multi-branch network with an in-branch average pool and concat.
///
/// # Errors
///
/// Propagates graph-construction errors.
pub fn mini_inception(input: usize, classes: usize, seed: u64) -> Result<Model> {
    let mut nb = NetBuilder::new("mini_inception", seed);
    let x = nb.b.input("image", Shape::nhwc(1, input, input, 3));
    let y = nb.conv_act("stem", x, 8, 3, 2, Padding::Same, Activation::Relu)?;
    let b1 = nb.conv_act("mixed/b1", y, 8, 1, 1, Padding::Same, Activation::Relu)?;
    let b2a = nb.conv_act("mixed/b2a", y, 4, 1, 1, Padding::Same, Activation::Relu)?;
    let b2 = nb.conv_act("mixed/b2b", b2a, 8, 3, 1, Padding::Same, Activation::Relu)?;
    let pool = nb.b.avg_pool2d("mixed/pool", y, 3, 3, 1, Padding::Same)?;
    let b3 = nb.conv_act("mixed/b3", pool, 4, 1, 1, Padding::Same, Activation::Relu)?;
    let cat = nb.b.concat("mixed/concat", &[b1, b2, b3], 3)?;
    let head = nb.conv_act("head", cat, 16, 3, 2, Padding::Same, Activation::Relu)?;
    let out = nb.mean_fc_softmax(head, classes)?;
    nb.b.output(out);
    Ok(Model::checkpoint(nb.b.finish()?, "mini_inception"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlexray_nn::{BackendSpec, Interpreter, OpKind};
    use mlexray_tensor::Tensor;

    #[test]
    fn full_inception_scale() {
        let m = inception_v3(64, 1000, 1.0, 1).unwrap();
        let params = m.graph.param_count();
        // Paper Table 3: 23.9M; our square-kernel approximation lands nearby.
        assert!((15_000_000..32_000_000).contains(&params), "{params}");
        assert!(m.graph.layer_count() > 200, "{}", m.graph.layer_count());
    }

    #[test]
    fn inception_has_branch_avgpools() {
        let m = inception_v3(64, 10, 0.25, 1).unwrap();
        let pools = m
            .graph
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, OpKind::AveragePool2d { pool_h: 3, .. }))
            .count();
        assert_eq!(pools, 9, "A(3) + B(4) + C(2) branch pools");
    }

    #[test]
    fn mini_inception_runs() {
        let m = mini_inception(32, 8, 4).unwrap();
        let mut interp = Interpreter::new(&m.graph, BackendSpec::optimized()).unwrap();
        let p = interp
            .invoke(&[Tensor::filled_f32(Shape::nhwc(1, 32, 32, 3), 0.1)])
            .unwrap();
        let v = p[0].as_f32().unwrap();
        assert!((v.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }
}
