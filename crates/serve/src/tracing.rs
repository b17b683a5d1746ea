//! Where the serve-side span taxonomy of `docs/tracing.md` is written: one
//! [`SpanWriter`] per traced request holds the crate's only [`Span`]
//! literals — a child of the request's root, and the root whose arrival
//! completes the trace.

use std::time::Instant;

use mlexray_core::{span_id_for, Span, SpanRing, SpanStage, TraceContext, TraceHub};

use crate::request::RejectReason;

/// Id namespace of forced shed traces minted before an admission id exists
/// (from the model's offered tick): no admitted request's trace id, which
/// is minted from its admission id, is meant to land here.
pub(crate) const SHED_TRACE_IDS: u64 = 1 << 63;
/// Id namespace of forced drift-alarm traces (minted from the offered
/// count at the check).
pub(crate) const DRIFT_TRACE_IDS: u64 = 1 << 62;

/// The code and detail a [`SpanStage::Shed`] span carries (`arg_a`,
/// `arg_b`) for each way a pool refuses a request.
fn shed_code(reason: &RejectReason) -> (u64, u64) {
    match reason {
        RejectReason::QueueFull { depth } => (1, *depth as u64),
        RejectReason::DeadlineExpired { missed_by } => (2, missed_by.as_nanos() as u64),
        RejectReason::ShuttingDown => (3, 0),
        RejectReason::ExecutionFailed { .. } => (4, 0),
        // Never a pool's refusal: no pool exists, or no caller is left.
        RejectReason::UnknownModel | RejectReason::ChannelClosed => (0, 0),
    }
}

/// Writes one request's spans: into `ring`, under `trace`, tagged `model`.
pub(crate) struct SpanWriter<'a> {
    pub(crate) hub: &'a TraceHub,
    ring: &'a SpanRing,
    trace: TraceContext,
    model: u16,
}

impl<'a> SpanWriter<'a> {
    /// A writer into `ring`, or into the hub's shared ring — the one for
    /// threads that emit rarely (admission, the door, drift checks).
    pub(crate) fn new(
        hub: &'a TraceHub,
        ring: Option<&'a SpanRing>,
        trace: TraceContext,
        model: u16,
    ) -> Self {
        SpanWriter {
            hub,
            ring: ring.unwrap_or(hub.shared_ring()),
            trace,
            model,
        }
    }

    /// Whether the sampling decision (the caller's, or the model's clock)
    /// selected this request. Forced spans are written regardless.
    pub(crate) fn sampled(&self) -> bool {
        self.trace.sampled
    }

    /// A stage span under the request's root.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn child(
        &self,
        stage: SpanStage,
        index: u64,
        start_ns: u64,
        end_ns: u64,
        flavor: u8,
        arg_a: u64,
        arg_b: u64,
    ) {
        self.ring.push(&Span {
            trace_id: self.trace.trace_id,
            span_id: span_id_for(self.trace.trace_id, stage, index),
            parent_span_id: span_id_for(self.trace.trace_id, SpanStage::Request, 0),
            stage,
            flavor,
            model: self.model,
            start_ns,
            dur_ns: end_ns.saturating_sub(start_ns),
            arg_a,
            arg_b,
        });
    }

    /// A stage span that carries nothing but its interval.
    pub(crate) fn timed(&self, stage: SpanStage, start: Instant, end: Instant) {
        self.child(
            stage,
            0,
            self.hub.ns_of(start),
            self.hub.ns_of(end),
            0,
            0,
            0,
        );
    }

    /// The terminal root. Pushed last: its arrival completes the trace.
    pub(crate) fn root(&self, start_ns: u64, dur_ns: u64, arg_a: u64) {
        self.ring.push(&Span {
            trace_id: self.trace.trace_id,
            span_id: span_id_for(self.trace.trace_id, SpanStage::Request, 0),
            parent_span_id: self.trace.parent_span_id,
            stage: SpanStage::Request,
            flavor: 0,
            model: self.model,
            start_ns,
            dur_ns,
            arg_a,
            arg_b: 0,
        });
    }

    /// The forced trace of a refused request — a [`SpanStage::Shed`] marker
    /// and the root — written whatever the sampling clock said, so an
    /// anomaly is never unobserved.
    pub(crate) fn shed(&self, started_at: Instant, reason: &RejectReason) {
        self.hub.note_forced();
        let (code, detail) = shed_code(reason);
        let (start_ns, end_ns) = (self.hub.ns_of(started_at), self.hub.now_ns());
        self.child(SpanStage::Shed, 0, end_ns, end_ns, 0, code, detail);
        self.root(start_ns, end_ns.saturating_sub(start_ns), 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The codes `docs/tracing.md` documents.
    #[test]
    fn shed_codes_are_the_documented_ones() {
        let (missed_by, detail) = (std::time::Duration::ZERO, String::new());
        let reasons = [
            RejectReason::QueueFull { depth: 0 },
            RejectReason::DeadlineExpired { missed_by },
            RejectReason::ShuttingDown,
            RejectReason::ExecutionFailed { detail },
        ];
        assert_eq!(reasons.map(|r| shed_code(&r).0), [1, 2, 3, 4]);
    }
}
