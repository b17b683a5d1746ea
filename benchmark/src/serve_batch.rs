//! `serve_batch`: an in-process open loop. A generator thread submits
//! bursts on a fixed schedule whatever the service does; a collector
//! timestamps the replies in FIFO order. Latency runs from each request's
//! due time, so a stall is charged to every request it delays.

use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use mlexray_serve::{PendingResponse, TracePolicy};

use crate::inputs::{burst_schedule, Arrival};
use crate::measure::{ms, segment, Segment};
use crate::serving::{self, serve_counts, Served};
use crate::workload::{same_bits, timed, Kind, Layers, Workload};

/// Bursts of 4 every 50 ms: 80 requests/s, about 30 % of what the worker
/// can do, so the queue never amplifies a machine-speed phase, while each
/// burst still gives the batcher four requests to coalesce.
pub const BURST: usize = 4;
const INTERVAL: Duration = Duration::from_millis(50);
/// Bursts per segment (60 ops, 0.75 s).
const SEGMENT_BURSTS: usize = 15;

pub struct ServeBatch {
    served: Served,
    schedule: Vec<Arrival>,
    failed_outside: usize,
}

impl ServeBatch {
    /// Plays `schedule` against the service. Returns latencies from due
    /// time, generator lateness, and failures (refusals, sheds, execution
    /// errors, oracle misses).
    fn play(&self, schedule: &[Arrival]) -> (Vec<f64>, Vec<f64>, usize) {
        let served = &self.served;
        let model = served.spec.model;
        let (tx, rx) = mpsc::channel::<(Instant, usize, PendingResponse)>();
        let origin = Instant::now();
        std::thread::scope(|s| {
            let generator = s.spawn(move || {
                let mut late = Vec::with_capacity(schedule.len());
                let mut refused = 0;
                for a in schedule {
                    let upload = vec![served.inputs[a.frame].clone()];
                    let due = origin + a.due;
                    std::thread::sleep(due.saturating_duration_since(Instant::now()));
                    late.push(ms(due.elapsed()));
                    match served.service.submit(model, upload) {
                        Ok(pending) => tx.send((due, a.frame, pending)).expect("collector lives"),
                        Err(_) => refused += 1,
                    }
                }
                (late, refused)
            });
            let mut latency = Vec::with_capacity(schedule.len());
            let mut failed = 0;
            for (due, frame, pending) in rx {
                let reply = pending.wait();
                latency.push(ms(due.elapsed()));
                if !matches!(&reply, Ok(r) if same_bits(&r.outputs, &served.expected[frame])) {
                    failed += 1;
                }
            }
            let (late, refused) = generator.join().expect("generator does not panic");
            (latency, late, failed + refused)
        })
    }
}

impl Workload for ServeBatch {
    fn setup(kind: Kind, seed: u64, out: &Path) -> (Self, Layers) {
        let (served, mut phases) = serving::start(kind, seed, out, TracePolicy::off());
        let mut w = ServeBatch {
            served,
            schedule: burst_schedule(seed, SEGMENT_BURSTS, BURST, INTERVAL),
            failed_outside: 0,
        };
        // Warm up unpaced (each burst sent as soon as the last is answered),
        // so the phase measures the program and not the schedule's clock;
        // with bursts of every size the batcher may coalesce, twice over:
        // the interpreter keeps an arena per batch size it has seen, so what
        // the process holds afterwards (`peak_rss_mb`) would otherwise depend
        // on how a stall happened to split a burst of four.
        let max_batch = w.served.spec.batch.max_batch;
        let ladder: Vec<usize> = (1..=max_batch).chain(1..=max_batch).collect();
        let warmup = burst_schedule(seed, ladder.iter().sum(), 1, Duration::ZERO);
        let (failed, took) = timed(|| {
            let mut rest = &warmup[..];
            ladder
                .iter()
                .map(|size| {
                    let (burst, tail) = rest.split_at(*size);
                    rest = tail;
                    w.play(burst).2
                })
                .sum::<usize>()
        });
        w.failed_outside += failed;
        phases.insert("loadgen.warmup_ms", ms(took));
        (w, phases)
    }

    fn segment(&mut self) -> Segment {
        Segment {
            paced: true,
            ..segment(self.schedule.len(), || self.play(&self.schedule))
        }
    }

    fn finish(self) -> (usize, Layers) {
        let mut layers = Layers::new();
        layers.insert("loadgen.connections", 1.0);
        let (report, took) = timed(|| self.served.service.shutdown());
        layers.insert("serve.drain_ms", ms(took));
        let failed = self.failed_outside + serve_counts(&report, &mut layers);
        (failed, layers)
    }
}
