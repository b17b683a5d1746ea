//! Online drift validation: the always-on counterpart of the offline
//! replay-validate loop.
//!
//! A serving deployment cannot stop the world to replay a playback set —
//! but it *can* siphon a sampled fraction of live traffic into a rolling
//! reservoir and periodically replay just those frames through a trusted
//! reference backend. [`OnlineValidator`] is that reservoir plus the check:
//! [`OnlineValidator::observe`] is called from the serving hot path with
//! sampled request inputs (one reference count, nothing else), and
//! [`OnlineValidator::check`] — run from a background thread or an
//! operator's probe, never from the inference workers — feeds the reservoir
//! into the §4.4 differential debugger ([`diff_backends`]) to compare the
//! live backend against the reference and raise a [`DriftAlarm`] with the
//! first divergent layer already localized.
//!
//! The check builds its own private backend instances from the
//! [`BackendSpec`]s, so it never contends with (or perturbs) the serving
//! workers' interpreters: monitoring stays on, service stays up.
//!
//! What is held: the reservoir (at most `window` sampled input frames,
//! shared with the requests they arrived in rather than copied) for the
//! validator's lifetime, and a copy of it for the duration of a check.
//! The check itself runs both backends in lockstep and keeps no layer
//! output beyond the micro-batch chunk in flight (see
//! [`crate::validate::diff_backends`]), so its footprint does not grow with
//! the reservoir.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use mlexray_nn::{BackendSpec, Graph};
use mlexray_tensor::Tensor;

use crate::validate::differential::{diff_backends, DifferentialOptions};
use crate::validate::report::DifferentialReport;
use crate::Result;

/// Tuning for an [`OnlineValidator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineValidatorConfig {
    /// Rolling reservoir capacity in frames; older sampled frames are
    /// evicted first. Bounds the validator's memory no matter how long the
    /// service runs.
    pub window: usize,
    /// Minimum reservoir occupancy before [`OnlineValidator::check`] will
    /// run (a drift verdict over one frame is noise, not signal).
    pub min_frames: usize,
    /// Differential-run tuning for the check: divergence threshold,
    /// bisection, and replay sharding.
    pub options: DifferentialOptions,
}

impl Default for OnlineValidatorConfig {
    fn default() -> Self {
        OnlineValidatorConfig {
            window: 32,
            min_frames: 4,
            options: DifferentialOptions::default(),
        }
    }
}

/// The outcome of one online drift check.
#[derive(Debug, Clone)]
pub struct DriftAlarm {
    /// Frames the check compared (reservoir occupancy at check time).
    pub frames: usize,
    /// Whether the live backend diverged from the reference beyond the
    /// configured threshold — the rollback/page signal.
    pub raised: bool,
    /// The full differential report backing the verdict (first divergent
    /// layer, per-layer drift, bisection).
    pub report: DifferentialReport,
}

impl fmt::Display for DriftAlarm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.raised {
            write!(
                f,
                "DRIFT ALARM over {} sampled frames: first divergent layer {:?}",
                self.frames,
                self.report.divergent_layer().unwrap_or("<unknown>")
            )
        } else {
            write!(f, "no drift over {} sampled frames", self.frames)
        }
    }
}

/// Rolling counters of an [`OnlineValidator`]'s lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OnlineValidatorStats {
    /// Frames ever offered via [`OnlineValidator::observe`].
    pub observed: u64,
    /// Checks that actually ran (reservoir held at least `min_frames`).
    pub checks: u64,
    /// Checks whose alarm was raised.
    pub alarms: u64,
}

/// A rolling reservoir of sampled live-traffic frames plus the on-demand
/// differential check against a reference backend (see the module docs).
pub struct OnlineValidator {
    config: OnlineValidatorConfig,
    /// Frames are `Arc`-wrapped so the lock is only ever held for pointer
    /// moves — the deep tensor clones happen outside the critical section
    /// (serving workers sampling concurrently must not serialize on a
    /// memcpy).
    reservoir: Mutex<VecDeque<Arc<Vec<Tensor>>>>,
    observed: AtomicU64,
    checks: AtomicU64,
    alarms: AtomicU64,
    /// Wall-clock nanoseconds of the most recent check that ran.
    last_check_ns: AtomicU64,
}

impl fmt::Debug for OnlineValidator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OnlineValidator")
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl OnlineValidator {
    /// Creates an empty validator.
    pub fn new(config: OnlineValidatorConfig) -> Self {
        OnlineValidator {
            config,
            reservoir: Mutex::new(VecDeque::with_capacity(config.window.max(1))),
            observed: AtomicU64::new(0),
            checks: AtomicU64::new(0),
            alarms: AtomicU64::new(0),
            last_check_ns: AtomicU64::new(0),
        }
    }

    /// The validator's configuration.
    pub fn config(&self) -> OnlineValidatorConfig {
        self.config
    }

    /// Offers one sampled request's inputs to the rolling reservoir
    /// (evicting the oldest frame when full). Called from the serving hot
    /// path — the cost is one reference count (taken *before* the lock) and
    /// a pointer-move critical section. The reservoir shares the request's
    /// tensors: a sampled frame (a sealed upload included) stays alive
    /// until it rolls out of the `window`-frame reservoir.
    pub fn observe(&self, inputs: &Arc<Vec<Tensor>>) {
        self.observed.fetch_add(1, Ordering::AcqRel);
        let frame = inputs.clone();
        let mut reservoir = self.reservoir.lock();
        if reservoir.len() >= self.config.window.max(1) {
            reservoir.pop_front();
        }
        reservoir.push_back(frame);
    }

    /// Current reservoir occupancy.
    pub fn sampled_frames(&self) -> usize {
        self.reservoir.lock().len()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> OnlineValidatorStats {
        OnlineValidatorStats {
            observed: self.observed.load(Ordering::Acquire),
            checks: self.checks.load(Ordering::Acquire),
            alarms: self.alarms.load(Ordering::Acquire),
        }
    }

    /// What the most recent check that ran cost, end to end (zero before
    /// the first): what an operator pays each time they ask.
    pub fn last_check(&self) -> Duration {
        Duration::from_nanos(self.last_check_ns.load(Ordering::Relaxed))
    }

    /// Replays the reservoir through both backends and localizes any drift:
    /// `baseline` is the trusted reference, `live` the spec the service is
    /// actually running. Returns `None` while the reservoir holds fewer than
    /// `min_frames` frames. The reservoir is snapshotted, not drained —
    /// sampling continues concurrently, and a follow-up check sees the
    /// window as it rolled forward.
    ///
    /// # Errors
    ///
    /// Propagates backend construction and execution errors.
    pub fn check(
        &self,
        graph: &Graph,
        baseline: BackendSpec,
        live: BackendSpec,
    ) -> Result<Option<DriftAlarm>> {
        // Snapshot under the lock is Arc clones only; the owned frame
        // copies the differential run needs are materialized after release.
        let snapshot: Vec<Arc<Vec<Tensor>>> = {
            let reservoir = self.reservoir.lock();
            if reservoir.len() < self.config.min_frames.max(1) {
                return Ok(None);
            }
            reservoir.iter().cloned().collect()
        };
        let started = Instant::now();
        let frames: Vec<Vec<Tensor>> = snapshot.iter().map(|f| f.as_ref().clone()).collect();
        let report = diff_backends(graph, baseline, live, &frames, &self.config.options)?;
        let raised = !report.is_equivalent();
        self.last_check_ns
            .store(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.checks.fetch_add(1, Ordering::AcqRel);
        if raised {
            self.alarms.fetch_add(1, Ordering::AcqRel);
        }
        Ok(Some(DriftAlarm {
            frames: frames.len(),
            raised,
            report,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlexray_nn::{Activation, GraphBuilder, Padding};
    use mlexray_tensor::Shape;

    fn graph() -> Graph {
        let mut b = GraphBuilder::new("online");
        let x = b.input("x", Shape::nhwc(1, 4, 4, 2));
        let w = b.constant(
            "w",
            Tensor::from_f32(
                Shape::new(vec![2, 3, 3, 2]),
                (0..36).map(|i| (i as f32 * 0.29).sin() * 0.5).collect(),
            )
            .unwrap(),
        );
        let y = b
            .conv2d("conv", x, w, None, 1, Padding::Same, Activation::Relu)
            .unwrap();
        b.output(y);
        b.finish().unwrap()
    }

    fn frame(i: usize) -> Arc<Vec<Tensor>> {
        Arc::new(vec![Tensor::from_f32(
            Shape::nhwc(1, 4, 4, 2),
            (0..32)
                .map(|j| ((i * 32 + j) as f32 * 0.41).cos())
                .collect(),
        )
        .unwrap()])
    }

    #[test]
    fn reservoir_rolls_and_check_gates_on_min_frames() {
        let validator = OnlineValidator::new(OnlineValidatorConfig {
            window: 4,
            min_frames: 3,
            ..Default::default()
        });
        let g = graph();
        validator.observe(&frame(0));
        assert!(validator
            .check(&g, BackendSpec::reference(), BackendSpec::optimized())
            .unwrap()
            .is_none());
        for i in 1..10 {
            validator.observe(&frame(i));
        }
        assert_eq!(validator.sampled_frames(), 4, "window must bound memory");
        assert_eq!(validator.stats().observed, 10);
    }

    #[test]
    fn clean_live_backend_raises_no_alarm_at_tolerance() {
        let validator = OnlineValidator::new(OnlineValidatorConfig::default());
        let g = graph();
        for i in 0..6 {
            validator.observe(&frame(i));
        }
        let alarm = validator
            .check(&g, BackendSpec::reference(), BackendSpec::optimized())
            .unwrap()
            .expect("enough frames");
        assert!(!alarm.raised, "{alarm}");
        assert_eq!(alarm.frames, 6);
        assert_eq!(validator.stats().checks, 1);
        assert_eq!(validator.stats().alarms, 0);
        assert!(validator.last_check() > Duration::ZERO);
    }

    #[test]
    fn injected_defect_raises_a_localized_alarm() {
        let validator = OnlineValidator::new(OnlineValidatorConfig::default());
        let g = graph();
        for i in 0..6 {
            validator.observe(&frame(i));
        }
        // A live backend with the depthwise defect disabled but a poisoned
        // conv path: emulate via reversed accumulation at bitwise threshold.
        let strict = OnlineValidator::new(OnlineValidatorConfig {
            options: DifferentialOptions::bitwise(),
            ..OnlineValidatorConfig::default()
        });
        for i in 0..6 {
            strict.observe(&frame(i));
        }
        let live = BackendSpec::optimized();
        let alarm = strict
            .check(&g, BackendSpec::reference(), live)
            .unwrap()
            .expect("enough frames");
        assert!(
            alarm.raised,
            "blocked vs canonical summation differs bitwise"
        );
        assert_eq!(alarm.report.divergent_layer(), Some("conv"));
        assert!(alarm.to_string().contains("DRIFT ALARM"), "{alarm}");
        // The tolerant validator sees the same pair as clean.
        let tolerant = validator
            .check(&g, BackendSpec::reference(), live)
            .unwrap()
            .unwrap();
        assert!(!tolerant.raised);
    }
}
