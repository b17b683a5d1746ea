//! `suite`: the ledger record. Every workload runs as its own child
//! process, once per round, the rounds interleaved so that a slow phase of
//! the machine cannot land on one workload; then one traced pass each.

use std::process::{Command, ExitCode, Stdio};

use serde_json::Value;

use crate::report::{provenance, END_TO_END};
use crate::stats::{iqr_share, median};
use crate::workload::Kind;
use crate::Args;

/// Runs this executable on one workload and returns its result object (the
/// last line it prints), or why there is none.
fn child(args: &Args, kind: Kind, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        // Two set-ups per child, so its `setup_s` is not a single sample.
        .args(["--workload", kind.name(), "--rounds", "2"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = serde_json::parse_value(last).map_err(|e| format!("{}: {e}", kind.name()))?;
    match (out.status.success(), result.get("correct")) {
        (true, Some(Value::Bool(true))) => Ok(result),
        _ => Err(format!("{} failed its output checks: {last}", kind.name())),
    }
}

/// `metrics.<name>.value` of a child's result object.
fn reading(result: &Value, name: &str) -> Option<f64> {
    match result.get("metrics")?.get(name)?.get("value")? {
        Value::Float(v) => Some(*v),
        Value::UInt(v) => Some(*v as f64),
        Value::Int(v) => Some(*v as f64),
        _ => None,
    }
}

pub fn run(args: &Args) -> ExitCode {
    match record(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("exray_bench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn record(args: &Args) -> Result<(), String> {
    std::fs::create_dir_all(&args.out).expect("output directory is creatable");
    let mut values = vec![vec![Vec::new(); END_TO_END.len()]; Kind::ALL.len()];
    for round in 0..args.rounds {
        for (w, kind) in Kind::ALL.into_iter().enumerate() {
            eprintln!("round {}/{} {}", round + 1, args.rounds, kind.name());
            let result = child(args, kind, false)?;
            for (m, metric) in END_TO_END.iter().enumerate() {
                values[w][m].extend(reading(&result, metric.0));
            }
        }
    }
    let mut workloads = Vec::new();
    for (w, kind) in Kind::ALL.into_iter().enumerate() {
        eprintln!("traced pass {}", kind.name());
        let traced = child(args, kind, true)?;
        println!("{}", kind.name());
        let end_to_end = END_TO_END
            .iter()
            .zip(&values[w])
            .map(|(metric, runs)| {
                println!(
                    "  {:<20} {:>14.4} {:<5} (median of {} runs, spread {:.1} %)",
                    metric.0,
                    median(runs),
                    metric.1,
                    runs.len(),
                    iqr_share(runs) * 1e2
                );
                let runs = runs.iter().map(|v| Value::Float(*v)).collect();
                let fields = vec![
                    ("unit".to_string(), Value::String(metric.1.into())),
                    ("values".to_string(), Value::Array(runs)),
                ];
                (metric.0.to_string(), Value::Object(fields))
            })
            .collect();
        workloads.push((
            kind.name().to_string(),
            Value::Object(vec![
                ("end_to_end".into(), Value::Object(end_to_end)),
                (
                    "per_layer".into(),
                    traced.get("metrics").cloned().unwrap_or(Value::Null),
                ),
            ]),
        ));
    }
    let record = Value::Object(vec![
        (
            "provenance".into(),
            provenance(args.seed, args.seconds, args.rounds),
        ),
        ("workloads".into(), Value::Object(workloads)),
    ]);
    let path = args.out.join("result.json");
    std::fs::write(
        &path,
        serde_json::to_string(&record).expect("record serializes"),
    )
    .expect("result file is writable");
    println!("wrote {}", path.display());
    Ok(())
}
