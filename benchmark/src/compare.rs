//! `compare A.json B.json`: holds record B against record A, one row per
//! workload and end-to-end metric, using the bounds of the metric table.

use std::path::Path;
use std::process::ExitCode;

use serde_json::Value;

use crate::report::END_TO_END;
use crate::stats::{iqr_share, median};
use crate::workload::Kind;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The runs of one side disagree by more than the bound, so a change of
    /// that size could not be told from noise.
    Unresolved,
}

/// Judges the runs of `b` against the runs of `a` for one metric.
/// `spread_counts` is false for `setup_s`, which is judged on its medians
/// alone, as the acceptance driver judges it: a run has a handful of
/// set-ups to take its median of, not sixty segments.
pub fn verdict(
    a: &[f64],
    b: &[f64],
    lower_is_better: bool,
    bound: f64,
    spread_counts: bool,
) -> Verdict {
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    if spread_counts && iqr_share(a).max(iqr_share(b)) > bound {
        // Noise wider than the bound decides nothing, unless every run of B
        // beats every run of A.
        let clean_win = b.iter().all(|y| a.iter().all(|x| better(*y, *x)));
        return if clean_win {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    let (ma, mb) = (median(a), median(b));
    let worsening = if lower_is_better { mb - ma } else { ma - mb } / ma;
    if worsening > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn runs(record: &Value, workload: &str, metric: &str) -> Result<Vec<f64>, String> {
    let values = record
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("values"));
    match values {
        Some(Value::Array(items)) if !items.is_empty() => items
            .iter()
            .map(|v| match v {
                Value::Float(f) => Ok(*f),
                Value::UInt(u) => Ok(*u as f64),
                other => Err(format!(
                    "{workload}.{metric}: {} is not a number",
                    other.kind()
                )),
            })
            .collect(),
        _ => Err(format!("{workload}.{metric}: no runs recorded")),
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::parse_value(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn rows(a: &Value, b: &Value) -> Result<bool, String> {
    let mut all_ok = true;
    for kind in Kind::ALL {
        for (metric, unit, lower, bound) in END_TO_END {
            let (ra, rb) = (runs(a, kind.name(), metric)?, runs(b, kind.name(), metric)?);
            let v = verdict(&ra, &rb, lower, bound, metric != "setup_s");
            all_ok &= v == Verdict::Ok;
            println!(
                "{:<16} {:<18} {:>12.4} -> {:>12.4} {:<5} {:>+7.1} %  (bound {:.0} %, spread {:.1} % / {:.1} %)  {}",
                kind.name(),
                metric,
                median(&ra),
                median(&rb),
                unit,
                (median(&rb) - median(&ra)) / median(&ra) * 1e2,
                bound * 1e2,
                iqr_share(&ra) * 1e2,
                iqr_share(&rb) * 1e2,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(all_ok)
}

pub fn run(a: &Path, b: &Path) -> ExitCode {
    match load(a).and_then(|a| load(b).and_then(|b| rows(&a, &b))) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("exray_bench compare: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUIET: [f64; 5] = [1.00, 1.01, 0.99, 1.00, 1.02];

    #[test]
    fn verdicts_on_synthetic_pairs() {
        let shifted = |by: f64| QUIET.map(|v| v * by);
        // Within the bound either way.
        assert_eq!(
            verdict(&QUIET, &shifted(1.05), true, 0.10, true),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&QUIET, &shifted(0.95), false, 0.08, true),
            Verdict::Ok
        );
        // Beyond it, in the bad direction only.
        assert_eq!(
            verdict(&QUIET, &shifted(1.15), true, 0.10, true),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&QUIET, &shifted(0.85), true, 0.10, true),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&QUIET, &shifted(0.85), false, 0.08, true),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&QUIET, &shifted(1.15), false, 0.08, true),
            Verdict::Ok
        );
    }

    #[test]
    fn noise_wider_than_the_bound_is_unresolved_unless_b_always_wins() {
        let noisy = [1.0, 1.3, 0.8, 1.2, 0.9];
        assert_eq!(
            verdict(&QUIET, &noisy, true, 0.10, true),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &QUIET, true, 0.10, true),
            Verdict::Unresolved
        );
        // Every run of B under every run of A: a clean win even in noise.
        let fast = noisy.map(|v| v * 0.5);
        assert_eq!(verdict(&noisy, &fast, true, 0.10, true), Verdict::Ok);
        assert_eq!(
            verdict(&fast, &noisy, true, 0.10, true),
            Verdict::Unresolved
        );
        // Judged on medians alone, the same noise decides: 1.0 against 1.0.
        assert_eq!(verdict(&QUIET, &noisy, true, 0.10, false), Verdict::Ok);
    }
}
