//! The four workloads' shared shape: set up, warm up, run fixed-work
//! segments until the slice is spent, tear down and check the books.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use mlexray_nn::{BackendSpec, Graph};
use mlexray_tensor::Tensor;

use crate::machine::stolen;
use crate::measure::{spin_ms, PerSegment, Segment};
use crate::probe::{slowdown_between, Probes, Sample};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    WirePlain,
    WireMonitored,
    ServeBatch,
    ReplayValidate,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::WirePlain,
        Kind::WireMonitored,
        Kind::ServeBatch,
        Kind::ReplayValidate,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::WirePlain => "wire_plain",
            Kind::WireMonitored => "wire_monitored",
            Kind::ServeBatch => "serve_batch",
            Kind::ReplayValidate => "replay_validate",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Named per-layer readings (metric name → value). A name nobody sets is
/// reported as 0: the workload does not pass through that layer.
pub type Layers = BTreeMap<&'static str, f64>;

/// Runs `f`, returning its result and how long it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// The output oracle: what a direct, private backend computes for each
/// input. Every response of a serving workload must match it bit for bit.
pub fn oracle(graph: &Graph, spec: BackendSpec, inputs: &[Tensor]) -> Vec<Vec<Tensor>> {
    let mut backend = spec.build(graph).expect("oracle backend builds");
    inputs
        .iter()
        .map(|t| {
            backend
                .invoke(std::slice::from_ref(t))
                .expect("oracle invoke succeeds")
        })
        .collect()
}

/// Bitwise equality of two output sets (float payloads by bit pattern, so a
/// NaN cannot hide a mismatch).
pub fn same_bits(a: &[Tensor], b: &[Tensor]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.shape() == y.shape()
                && match (x.as_f32(), y.as_f32()) {
                    (Ok(p), Ok(q)) => p
                        .iter()
                        .map(|v| v.to_bits())
                        .eq(q.iter().map(|v| v.to_bits())),
                    _ => x == y,
                }
        })
}

/// One workload instance: everything between "process knows its seed" and
/// "books are closed".
pub trait Workload: Sized {
    /// Builds inputs, model, service and connections and runs the fixed
    /// warm-up. Returns the instance and the timed set-up phases (name →
    /// ms); their sum is the round's `setup_s`. The oracle is computed
    /// here too but is the benchmark's own cost, so it is not a phase.
    fn setup(kind: Kind, seed: u64, out: &Path) -> (Self, Layers);
    /// Runs one segment of fixed work.
    fn segment(&mut self) -> Segment;
    /// Operator work between segments (drift check, trace collection),
    /// outside the segment clock. Returns named timings in ms.
    fn between(&mut self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
    /// Tears down, checks the books, and returns the failures the oracle
    /// found outside any segment plus the counts read from public reports.
    fn finish(self) -> (usize, Layers);
}

/// What one round (one set-up, one measured slice) produced.
pub struct Round {
    /// The timed set-up phases, in seconds of the reference machine state.
    pub setup_s: f64,
    pub layers: Layers,
    pub spin_ms: Vec<f64>,
    /// One probe reading before the first segment and one after each.
    pub probes: Vec<Sample>,
    /// The process's `VmHWM` after set-up, warm-up and one operator probe.
    pub peak_rss_mb: f64,
}

/// One round of `W`: set-up, then whole segments until `slice` is spent,
/// with a reading of the machine probes on either side of each.
pub fn run_round<W: Workload>(
    kind: Kind,
    seed: u64,
    out: &Path,
    slice: Duration,
    per: &mut PerSegment,
) -> Round {
    let (stolen_before, began) = (stolen(), Instant::now());
    let (mut w, mut layers) = W::setup(kind, seed, out);
    // Set-up keeps the CPU busy throughout, so the share of it the
    // hypervisor withheld comes off its timed phases.
    let withheld = (stolen() - stolen_before).as_secs_f64() / began.elapsed().as_secs_f64();
    let setup_s = layers.values().sum::<f64>() / 1e3 * (1.0 - withheld.min(1.0));
    // One operator probe, then the high-water mark: what the program needs
    // to get ready and serve at its nominal batch size. Read any later, the
    // mark also holds the arenas of whatever batch sizes a stall made the
    // batcher coalesce (it doubles in one run out of five) and the machine
    // probes' own operands.
    w.between();
    let peak_rss_mb = crate::measure::peak_rss_mb();
    let mut probe = Probes::new();
    let mut probes = vec![probe.sample()];
    let setup_s = setup_s / probes[0].slowdown();
    let mut spins = Vec::new();
    let mut between: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let started = Instant::now();
    loop {
        let segment = w.segment();
        spins.push(spin_ms());
        probes.push(probe.sample());
        let [.., before, after] = probes[..] else {
            unreachable!("a reading on either side of the segment")
        };
        per.push(&segment, slowdown_between(&before, &after));
        for (name, v) in w.between() {
            between.entry(name).or_default().push(v);
        }
        if started.elapsed() >= slice {
            break;
        }
    }
    for (name, v) in between {
        layers.insert(name, crate::stats::median(&v));
    }
    let (extra_failed, counts) = w.finish();
    per.failed += extra_failed;
    layers.extend(counts);
    Round {
        setup_s,
        layers,
        spin_ms: spins,
        probes,
        peak_rss_mb,
    }
}
