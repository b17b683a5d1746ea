//! `exray_bench`: one run of one workload (what the acceptance driver
//! calls), `suite` (all four workloads in interleaved rounds, the ledger
//! record) and `compare` (two ledger records against the bounds). See
//! `README.md`.

mod compare;
mod inputs;
mod machine;
mod measure;
mod probe;
mod replay;
mod report;
mod serve_batch;
mod serving;
mod spans;
mod stats;
mod suite;
mod walk;
mod wire;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use serde_json::Value;

use measure::PerSegment;
use stats::{iqr_share, median};
use workload::{run_round, Kind, Round};

/// Set-ups (and so measured slices) per run; `setup_s` is their median.
const ROUNDS: usize = 4;

pub struct Args {
    pub kind: Option<Kind>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub rounds: usize,
    pub out: PathBuf,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        kind: None,
        seed: 1,
        seconds: 24,
        trace: false,
        rounds: ROUNDS,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                parsed.kind =
                    Some(Kind::from_name(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.max(1),
            "--trace" => parsed.trace = number()? != 0,
            "--rounds" => parsed.rounds = number()?.max(1) as usize,
            "--out" => parsed.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(parsed)
}

fn round_of(kind: Kind, seed: u64, out: &Path, slice: Duration, per: &mut PerSegment) -> Round {
    match kind {
        Kind::WirePlain | Kind::WireMonitored => {
            run_round::<wire::Wire>(kind, seed, out, slice, per)
        }
        Kind::ServeBatch => run_round::<serve_batch::ServeBatch>(kind, seed, out, slice, per),
        Kind::ReplayValidate => run_round::<replay::Replay>(kind, seed, out, slice, per),
    }
}

type Readings = Vec<(&'static str, &'static str, f64)>;

/// What the load generator saw, beyond the end-to-end table: the tail it
/// does not gate on, what the clock read before the machine's slowdown was
/// divided out, how much the segments disagreed, and what the machine was
/// doing meanwhile.
fn loadgen_layers(per: &PerSegment, rounds: &[Round]) -> workload::Layers {
    let spins: Vec<f64> = rounds.iter().flat_map(|r| r.spin_ms.clone()).collect();
    let sorted_spins = stats::sorted(&spins);
    let spin = |p| stats::percentile(&sorted_spins, p).unwrap_or(0.0);
    let probe = |reading: fn(&probe::Sample) -> f64| {
        median(
            &rounds
                .iter()
                .flat_map(|r| r.probes.iter().map(reading))
                .collect::<Vec<_>>(),
        )
    };
    workload::Layers::from([
        ("machine.steal_share", median(&per.steal_share)),
        ("machine.slowdown", median(&per.slowdown)),
        ("machine.probe_compute_ms", probe(|s| s.compute_ms)),
        ("machine.probe_memory_ms", probe(|s| s.memory_ms)),
        (
            "loadgen.throughput_ops_s",
            median(&per.raw_throughput_ops_s),
        ),
        ("loadgen.latency_p50_ms", median(&per.raw_latency_p50_ms)),
        ("loadgen.latency_p99_ms", median(&per.raw_latency_p99_ms)),
        ("loadgen.late_p99_ms", median(&per.late_p99_ms)),
        ("loadgen.segments", per.segments() as f64),
        ("loadgen.ops", per.attempted as f64),
        (
            "loadgen.fail_share",
            per.failed as f64 / per.attempted as f64,
        ),
        (
            "loadgen.throughput_iqr_share",
            iqr_share(&per.throughput_ops_s),
        ),
        (
            "loadgen.latency_p50_iqr_share",
            iqr_share(&per.latency_p50_ms),
        ),
        ("machine.spin_ms_p50", spin(50.0)),
        (
            "machine.spin_spread",
            (spin(90.0) - spin(10.0)) / spin(50.0),
        ),
    ])
}

/// The untraced run: every span recorder off. Reports the end-to-end
/// metrics, each the median over all segments of all rounds.
fn run_untraced(args: &Args, kind: Kind) -> (usize, usize, Readings) {
    let slice = Duration::from_secs(args.seconds) / args.rounds as u32;
    let mut per = PerSegment::default();
    let rounds: Vec<Round> = (0..args.rounds)
        .map(|_| round_of(kind, args.seed, &args.out, slice, &mut per))
        .collect();
    let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    let value = |name: &str| match name {
        "setup_s" => median(&setups),
        "throughput_ops_s" => median(&per.throughput_ops_s),
        "latency_p50_ms" => median(&per.latency_p50_ms),
        "latency_p90_ms" => median(&per.latency_p90_ms),
        "cpu_ms_per_op" => median(&per.cpu_ms_per_op),
        // The first round's: later rounds re-use or fragment what the
        // allocator already holds.
        "peak_rss_mb" => rounds[0].peak_rss_mb,
        _ => unreachable!("{name} is not an end-to-end metric"),
    };
    let readings = report::END_TO_END
        .iter()
        .map(|m| (m.0, m.1, value(m.0)))
        .collect();
    println!(
        "percentiles are per segment ({} samples each); reported is the median over {} segments:",
        per.samples_per_segment,
        per.segments()
    );
    let series = |v: &[f64]| Value::Array(v.iter().map(|x| Value::Float(*x)).collect());
    let segments = Value::Object(vec![
        ("throughput_ops_s".into(), series(&per.throughput_ops_s)),
        ("latency_p50_ms".into(), series(&per.latency_p50_ms)),
        ("latency_p90_ms".into(), series(&per.latency_p90_ms)),
        ("cpu_ms_per_op".into(), series(&per.cpu_ms_per_op)),
        ("slowdown".into(), series(&per.slowdown)),
        ("steal_share".into(), series(&per.steal_share)),
        (
            "raw_throughput_ops_s".into(),
            series(&per.raw_throughput_ops_s),
        ),
        ("raw_latency_p50_ms".into(), series(&per.raw_latency_p50_ms)),
        ("setup_s".into(), series(&setups)),
    ]);
    std::fs::write(
        args.out.join(format!("{}.segments.json", kind.name())),
        serde_json::to_string(&segments).expect("segments serialize"),
    )
    .expect("segments file is writable");
    for (name, v) in loadgen_layers(&per, &rounds) {
        println!("  {name:<40} {v:>16.4}");
    }
    (per.attempted, per.failed, readings)
}

/// The traced run: one loaded round for the counts the public reports
/// give, then the layer walk with spans, written as a Chrome trace.
fn run_traced(args: &Args, kind: Kind) -> (usize, usize, Readings) {
    let total = Duration::from_secs(args.seconds);
    let mut per = PerSegment::default();
    let round = round_of(kind, args.seed, &args.out, total * 2 / 5, &mut per);
    let mut rec = spans::Recorder::new();
    let walked = walk::walk(kind, args.seed, &args.out, total * 9 / 20, &mut rec);
    let path = args.out.join(format!("{}.trace.json", kind.name()));
    std::fs::write(&path, spans::chrome_trace_json(kind.name(), &rec.spans))
        .expect("trace file is writable");
    println!("{} spans written to {}", rec.spans.len(), path.display());

    let rounds = [round];
    let mut layers = loadgen_layers(&per, &rounds);
    let [round] = rounds;
    layers.extend(round.layers);
    layers.extend(walked.layers);
    // What the loaded run's median request spent beyond the sequential walk
    // of the same operation: wake-ups and contention no outside view sees.
    layers.insert(
        "loadgen.unattributed_us",
        layers["loadgen.latency_p50_ms"] * 1e3 - layers["loadgen.walked_op_us"],
    );
    for name in layers.keys() {
        assert!(
            report::PER_LAYER.iter().any(|m| m.0 == *name),
            "{name} has no row in the per-layer table"
        );
    }
    let readings = report::PER_LAYER
        .iter()
        .map(|m| (m.0, m.1, layers.get(m.0).copied().unwrap_or(0.0)))
        .collect();
    (
        per.attempted + walked.ops as usize,
        per.failed + walked.failed,
        readings,
    )
}

/// One run of one workload; the last line printed is the result object.
fn run(args: &Args, kind: Kind) -> ExitCode {
    std::fs::create_dir_all(&args.out).expect("output directory is creatable");
    println!(
        "workload {} seed {} seconds {} trace {} on cpu {}",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        machine::confine()
    );
    let (attempted, failed, readings) = if args.trace {
        run_traced(args, kind)
    } else {
        run_untraced(args, kind)
    };
    report::print_table(&readings);
    let correct = failed == 0;
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(attempted as u64)),
        ("failed".into(), Value::UInt(failed as u64)),
        ("metrics".into(), report::metrics_value(&readings)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).expect("result serializes")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!(
            "exray_bench: refusing to measure a build with debug assertions; build --release"
        );
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let fail = |e: String| {
        eprintln!("exray_bench: {e}");
        ExitCode::from(2)
    };
    match argv.first().map(String::as_str) {
        Some("compare") => match &argv[1..] {
            [a, b] => compare::run(Path::new(a), Path::new(b)),
            _ => fail("usage: exray_bench compare A.json B.json".into()),
        },
        Some("suite") => match parse(&argv[1..]) {
            Ok(args) => suite::run(&args),
            Err(e) => fail(e),
        },
        _ => match parse(&argv) {
            Ok(args) => match args.kind {
                Some(kind) => run(&args, kind),
                None => fail("--workload is required".into()),
            },
            Err(e) => fail(e),
        },
    }
}
