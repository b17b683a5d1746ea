//! One module per paper artifact. Every `run` function returns the
//! formatted output its binary prints; each module's docs name the paper
//! table or figure it regenerates.

pub mod appendix_a;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod table1;
pub mod table2;
pub mod table3_5;
pub mod table4;

use mlexray_nn::{BackendSpec, Interpreter, Model};
use mlexray_trainer::Sample;

/// Top-1 accuracy of a model under an explicit backend spec (the
/// trainer's `evaluate` always uses optimized kernels; Fig. 5 needs all four
/// kernel/variant combinations).
pub fn accuracy_with_backend(model: &Model, data: &[Sample], backend: BackendSpec) -> f32 {
    let mut interp = Interpreter::new(&model.graph, backend).expect("model graphs validate");
    let mut correct = 0usize;
    for s in data {
        let out = interp.invoke(&s.inputs).expect("inference succeeds");
        let probs = out[0].to_f32_vec();
        let pred = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0);
        if pred == s.label {
            correct += 1;
        }
    }
    correct as f32 / data.len().max(1) as f32
}
