//! Appendix A: text sentiment under a tokenizer case mismatch — embeddings
//! diverge drastically while task accuracy stays identical (the NNLM
//! observation), plus the note that in-graph preprocessing (EfficientDet
//! style) shrinks the bug surface.

use mlexray_datasets::synth_text;
use mlexray_models::text::{ids_to_tensor, nnlm};
use mlexray_nn::{BackendSpec, Interpreter};
use mlexray_preprocess::{TextPreprocessConfig, Tokenizer, Vocabulary};
use mlexray_tensor::normalized_rmse;
use mlexray_trainer::{train_or_load, Sample, TrainConfig};

use crate::support::{cache_dir, format_table, Scale};

const SEQ_LEN: usize = 16;
const DIM: usize = 16;

fn encode(cfg: &TextPreprocessConfig, vocab: &Vocabulary, text: &str) -> Sample {
    let ids = cfg.encode(text, vocab).expect("encode");
    Sample {
        inputs: vec![ids_to_tensor(&ids).expect("tensor")],
        label: 0,
    }
}

/// Runs the Appendix A experiment.
pub fn run(scale: &Scale) -> String {
    let vocab = Vocabulary::build(synth_text::full_vocabulary());
    let (train, test) =
        synth_text::train_test_split(scale.train_n.min(320), scale.test_n.min(240), 909)
            .expect("split");
    let lowercase = TextPreprocessConfig::sentiment_default();
    let cased = TextPreprocessConfig {
        tokenizer: Tokenizer {
            lowercase: false,
            strip_punctuation: true,
        },
        max_len: SEQ_LEN,
    };

    // Train NNLM with the canonical (lowercase) pipeline.
    let data: Vec<Sample> = train
        .iter()
        .map(|r| Sample {
            label: r.label,
            ..encode(&lowercase, &vocab, &r.text)
        })
        .collect();
    let cache = cache_dir().join(format!(
        "nnlm_n{}_e{}.json",
        scale.train_n.min(320),
        scale.epochs
    ));
    let tc = TrainConfig {
        epochs: scale.epochs,
        batch_size: 16,
        lr: 0.02,
        ..Default::default()
    };
    let model = train_or_load(
        &cache,
        || nnlm(vocab.len(), SEQ_LEN, DIM, 2, 17),
        &data,
        &tc,
    )
    .expect("nnlm trains");

    // Evaluate both pipelines and measure embedding-output divergence; the
    // embedding is an intermediate read after each invoke.
    let mut interp =
        Interpreter::preserving(&model.graph, BackendSpec::optimized()).expect("valid");
    let mut results = Vec::new();
    let mut divergence = 0.0f64;
    let mut agree = 0usize;
    for cfg in [&lowercase, &cased] {
        let mut correct = 0usize;
        for r in &test {
            let s = encode(cfg, &vocab, &r.text);
            let out = interp.invoke(&s.inputs).expect("inference");
            let probs = out[0].to_f32_vec();
            let pred = usize::from(probs[1] > probs[0]);
            if pred == r.label {
                correct += 1;
            }
        }
        results.push(correct as f32 / test.len() as f32);
    }
    // Per-review embedding divergence and decision agreement.
    let (_, avg_node) = model
        .graph
        .node_by_name("avg_embedding")
        .expect("nnlm has an avg_embedding node");
    let avg_out = avg_node.output;
    for r in &test {
        let lo = encode(&lowercase, &vocab, &r.text);
        interp.invoke(&lo.inputs).expect("inference");
        let emb_lower = interp.tensor_value(avg_out).expect("value").to_f32_vec();
        let out_lower = interp
            .tensor_value(model.graph.outputs()[0])
            .expect("out")
            .to_f32_vec();
        let ca = encode(&cased, &vocab, &r.text);
        interp.invoke(&ca.inputs).expect("inference");
        let emb_cased = interp.tensor_value(avg_out).expect("value").to_f32_vec();
        let out_cased = interp
            .tensor_value(model.graph.outputs()[0])
            .expect("out")
            .to_f32_vec();
        divergence += normalized_rmse(&emb_cased, &emb_lower) as f64;
        let p_lower = usize::from(out_lower[1] > out_lower[0]);
        let p_cased = usize::from(out_cased[1] > out_cased[0]);
        agree += usize::from(p_lower == p_cased);
    }
    let divergence = divergence / test.len() as f64;
    let agreement = agree as f32 / test.len() as f32;

    let table = format_table(
        &["Pipeline", "Accuracy"],
        &[
            vec![
                "lowercase (training pipeline)".into(),
                format!("{:.1}%", results[0] * 100.0),
            ],
            vec![
                "cased (deployed pipeline)".into(),
                format!("{:.1}%", results[1] * 100.0),
            ],
        ],
    );
    format!(
        "Appendix A: NNLM sentiment under tokenizer case mismatch\n{table}\n\
         mean embedding divergence (normalized rMSE): {divergence:.3}\n\
         decision agreement between pipelines: {:.1}%\n\
         note: embeddings diverge sharply while sentiment accuracy is nearly unchanged —\n\
         per-layer output difference alone does not imply task degradation (Appendix A).\n\
         note: models that fold preprocessing into the graph (EfficientDet-style) remove\n\
         this bug surface entirely; in this stack that corresponds to running the\n\
         tokenizer inside the reference pipeline shared by both sides.\n",
        agreement * 100.0
    )
}
