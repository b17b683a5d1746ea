//! Text models: the NNLM-style average-embedding classifier of Appendix A
//! and a tiny transformer encoder standing in for MobileBert.

use mlexray_nn::{Activation, GraphBuilder, Model, OpKind, Result, TensorId};
use mlexray_tensor::{he_normal, DType, Shape, Tensor};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::blocks::NetBuilder;

/// NNLM-style sentiment classifier: embedding lookup → mean over tokens →
/// FC → softmax. Trainable by the trainer crate (embedding gradients are
/// supported).
///
/// # Errors
///
/// Propagates graph-construction errors.
pub fn nnlm(
    vocab_size: usize,
    seq_len: usize,
    dim: usize,
    classes: usize,
    seed: u64,
) -> Result<Model> {
    let mut nb = NetBuilder::new("nnlm", seed);
    let ids =
        nb.b.input_typed("ids", Shape::matrix(1, seq_len), DType::I32, None);
    let table = nb.weight(Shape::matrix(vocab_size, dim), dim)?;
    let emb = nb.b.embedding("embedding", ids, table)?;
    let avg = nb.b.mean("avg_embedding", emb)?;
    let logits = nb.fc("classifier", avg, classes, Activation::None)?;
    let out = nb.b.softmax("softmax", logits)?;
    nb.b.output(out);
    Ok(Model::checkpoint(nb.b.finish()?, "nnlm"))
}

fn dense(
    b: &mut GraphBuilder,
    rng: &mut SmallRng,
    tag: &str,
    x: TensorId,
    out_dim: usize,
) -> Result<TensorId> {
    let in_dim = b.shape_of(x).dims()[1];
    let w = b.constant(
        format!("{tag}/w"),
        he_normal(Shape::matrix(in_dim, out_dim), in_dim, rng)?,
    );
    b.matmul(tag, x, w, false)
}

/// Tiny single-head transformer encoder (MobileBert stand-in): embedding +
/// positions → LayerNorm → self-attention → residual → LayerNorm → GELU FFN
/// → residual → LayerNorm → mean → FC → softmax.
///
/// Inference-only (random weights): used for op-coverage, logging and
/// latency experiments, not accuracy.
///
/// # Errors
///
/// Propagates graph-construction errors.
pub fn tiny_bert(
    vocab_size: usize,
    seq_len: usize,
    dim: usize,
    classes: usize,
    seed: u64,
) -> Result<Model> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new("tiny_bert");
    let ids = b.input_typed("ids", Shape::matrix(1, seq_len), DType::I32, None);
    let table = b.constant(
        "embedding_table",
        he_normal(Shape::matrix(vocab_size, dim), dim, &mut rng)?,
    );
    let emb = b.embedding("embedding", ids, table)?;
    let pos = b.constant(
        "positions",
        he_normal(Shape::matrix(seq_len, dim), dim, &mut rng)?,
    );
    let with_pos = b.add("add_positions", emb, pos, Activation::None)?;
    let x2 = b.reshape("to_2d", with_pos, vec![seq_len, dim])?;

    let ones = Tensor::filled_f32(Shape::vector(dim), 1.0);
    let zeros = Tensor::filled_f32(Shape::vector(dim), 0.0);
    let g0 = b.constant("ln0/gamma", ones.clone());
    let b0 = b.constant("ln0/beta", zeros.clone());
    let normed = b.layer_norm("ln0", x2, g0, b0, 1e-5)?;

    // Single-head self-attention.
    let q = dense(&mut b, &mut rng, "attn/q", normed, dim)?;
    let k = dense(&mut b, &mut rng, "attn/k", normed, dim)?;
    let v = dense(&mut b, &mut rng, "attn/v", normed, dim)?;
    let scores = b.matmul("attn/scores", q, k, true)?;
    let scale = b.constant("attn/scale", Tensor::scalar_f32(1.0 / (dim as f32).sqrt()));
    let scaled = b.mul("attn/scaled", scores, scale)?;
    let weights = b.softmax("attn/softmax", scaled)?;
    let ctx = b.matmul("attn/context", weights, v, false)?;
    let proj = dense(&mut b, &mut rng, "attn/proj", ctx, dim)?;
    let res1 = b.add("attn/residual", proj, normed, Activation::None)?;
    let g1 = b.constant("ln1/gamma", ones.clone());
    let b1 = b.constant("ln1/beta", zeros.clone());
    let n1 = b.layer_norm("ln1", res1, g1, b1, 1e-5)?;

    // GELU feed-forward.
    let ff1 = dense(&mut b, &mut rng, "ffn/expand", n1, dim * 4)?;
    let gelu = b.activation("ffn/gelu", ff1, Activation::Gelu)?;
    let ff2 = dense(&mut b, &mut rng, "ffn/project", gelu, dim)?;
    let res2 = b.add("ffn/residual", ff2, n1, Activation::None)?;
    let g2 = b.constant("ln2/gamma", ones);
    let b2 = b.constant("ln2/beta", zeros);
    let n2 = b.layer_norm("ln2", res2, g2, b2, 1e-5)?;

    let back = b.reshape("to_3d", n2, vec![1, seq_len, dim])?;
    let pooled = b.mean("pool", back)?;
    let wc = b.constant(
        "classifier/w",
        he_normal(Shape::matrix(classes, dim), dim, &mut rng)?,
    );
    let bc = b.constant(
        "classifier/b",
        Tensor::filled_f32(Shape::vector(classes), 0.0),
    );
    let logits = b.fully_connected("classifier", pooled, wc, Some(bc), Activation::None)?;
    let out = b.softmax("softmax", logits)?;
    b.output(out);
    Ok(Model::checkpoint(b.finish()?, "tiny_bert"))
}

/// Helper: encode token ids into the i32 tensor the text models expect.
///
/// # Errors
///
/// Propagates tensor construction errors.
pub fn ids_to_tensor(ids: &[usize]) -> Result<Tensor> {
    let data: Vec<i32> = ids.iter().map(|&i| i as i32).collect();
    Ok(Tensor::from_i32(Shape::matrix(1, ids.len()), data, None)?)
}

/// True if the model contains transformer-signature ops (MatMul/LayerNorm).
pub fn is_transformer(model: &Model) -> bool {
    model
        .graph
        .nodes()
        .iter()
        .any(|n| matches!(n.op, OpKind::MatMul { .. } | OpKind::LayerNorm { .. }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlexray_nn::{BackendSpec, Interpreter};

    #[test]
    fn nnlm_runs() {
        let m = nnlm(50, 8, 16, 2, 1).unwrap();
        let mut interp = Interpreter::new(&m.graph, BackendSpec::optimized()).unwrap();
        let ids = ids_to_tensor(&[2, 3, 4, 0, 0, 0, 0, 0]).unwrap();
        let p = interp.invoke(&[ids]).unwrap();
        let v = p[0].as_f32().unwrap();
        assert_eq!(v.len(), 2);
        assert!((v.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn nnlm_embeddings_are_case_path_dependent() {
        // Same text through lowercase vs cased id sequences gives different
        // outputs — the Appendix A divergence, at the model level.
        let m = nnlm(50, 4, 8, 2, 2).unwrap();
        let mut interp = Interpreter::new(&m.graph, BackendSpec::optimized()).unwrap();
        let lower = interp
            .invoke(&[ids_to_tensor(&[2, 3, 0, 0]).unwrap()])
            .unwrap();
        let cased = interp
            .invoke(&[ids_to_tensor(&[1, 1, 0, 0]).unwrap()])
            .unwrap();
        assert_ne!(lower[0].as_f32().unwrap(), cased[0].as_f32().unwrap());
    }

    #[test]
    fn tiny_bert_runs_and_is_transformer() {
        let m = tiny_bert(50, 8, 16, 2, 3).unwrap();
        assert!(is_transformer(&m));
        let mut interp = Interpreter::new(&m.graph, BackendSpec::optimized()).unwrap();
        let ids = ids_to_tensor(&[2, 3, 4, 5, 1, 0, 0, 0]).unwrap();
        let p = interp.invoke(&[ids]).unwrap();
        let v = p[0].as_f32().unwrap();
        assert!((v.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        assert!(v.iter().all(|x| x.is_finite()));
    }
}
