//! Batch formation: how a worker turns queued requests into one
//! `invoke_batch` call, and when it stops waiting for more.
//!
//! A worker pops a *leader*, then gathers *followers* until one of four
//! things closes the batch ([`CloseReason`]): it is full, every caller
//! that could still join is already in the system, the coalescing window
//! (or the earliest member's deadline) ran out, or the queue was closed
//! and drained. [`form_batch`] is the only leader/follower loop in the
//! crate; [`decide`] is its close-or-wait rule, a pure function so it can
//! be table-tested on invented instants.
//!
//! # The caller ledger
//!
//! A fixed window is a guess about arrivals. For one class of caller no
//! guess is needed: a connection of the RPC door blocks in
//! `PendingResponse::wait` for each `Infer`, so it never has more than one
//! request outstanding (`docs/wire-protocol.md` makes that a server
//! guarantee). Each served model therefore keeps a [`CallerLedger`] of two
//! counters — `attached`, the closed-loop callers that use the model, and
//! `in_system`, how many of them have a request admitted and not yet
//! answered. When `in_system >= attached` nobody who could join is left,
//! and the leader closes at once instead of sleeping out a window that
//! cannot fill.
//!
//! The ledger can only shorten the wait or leave it as it was. Callers
//! that never declare themselves (in-process `submit*`) leave
//! `attached == 0` and get the plain window; a caller that stays attached
//! but goes quiet keeps `in_system < attached` and restores it; a worker
//! that dies holding requests leaves `in_system` high, which shortens.
//! The ledger is read each time the leader is about to wait, not while it
//! sleeps: with several workers, a leader whose awaited request is taken
//! by another worker sleeps its window out, as it did before the ledger
//! existed.
//!
//! Two ordering rules keep the counters honest:
//!
//! 1. **`in_system` rises before the request is pushed** (and falls again
//!    if the push is refused). Raised after, a worker could pop the
//!    request, answer it and lower the counter first — an underflow — or
//!    read the ledger one short and sleep out the window it exists to
//!    skip.
//! 2. **`in_system` falls, for the whole batch, before its first reply is
//!    sent.** The reply is what frees a caller to send its next request.
//!    Lowered after (or member by member between sends), that next request
//!    can be popped by another worker while its batch-mates, answered a
//!    moment later, still read as in the system: the leader closes on a
//!    ledger that is about to be wrong, and a pair of callers degrades to
//!    alternating batches of one.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mlexray_edgesim::SimulatedDevice;
use mlexray_tensor::Tensor;

use crate::queue::{RequestQueue, TimedPop};
use crate::registry::ServedModel;
use crate::request::InferRequest;
use crate::Result;

/// How a model's workers coalesce queued requests into batched invokes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Most requests stacked into one `invoke_batch` call.
    pub max_batch: usize,
    /// The longest a batch leader waits for followers before invoking with
    /// what it has. Zero still coalesces whatever is already queued. The
    /// wait ends sooner when the earliest member's deadline comes first, or
    /// when every closed-loop caller of the model already has a request in
    /// the system.
    pub window: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 4,
            window: Duration::from_millis(1),
        }
    }
}

impl BatchPolicy {
    /// Batch-size-1 serving: every request is its own invoke (the
    /// unbatched baseline).
    pub fn single() -> Self {
        BatchPolicy {
            max_batch: 1,
            window: Duration::ZERO,
        }
    }

    /// An explicit size/window pair.
    pub fn windowed(max_batch: usize, window: Duration) -> Self {
        BatchPolicy {
            max_batch: max_batch.max(1),
            window,
        }
    }

    /// Derives the coalescing window from a simulated device's latency
    /// model ([`SimulatedDevice::suggested_batch_window`]): slower devices
    /// buy longer windows, and a request never waits longer than ~half the
    /// compute it is about to pay for.
    ///
    /// # Errors
    ///
    /// Propagates interpreter errors from the one-off costing run.
    pub fn for_device(
        max_batch: usize,
        device: &SimulatedDevice,
        entry: &ServedModel,
        sample_inputs: &[Tensor],
    ) -> Result<Self> {
        let window = device.suggested_batch_window(entry.graph(), sample_inputs, entry.spec())?;
        Ok(Self::windowed(max_batch, window))
    }
}

/// What ended a batch's wait for followers. The discriminant is the code a
/// `batch_form` span carries in its `flavor` byte (0 there means "not a
/// `batch_form` span").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum CloseReason {
    /// The batch reached `max_batch`.
    Full = 1,
    /// Every attached caller already has a request in the system.
    CallersIn = 2,
    /// The window, or the earliest member's deadline, ran out.
    Window = 3,
    /// The queue was closed and is empty.
    Drained = 4,
}

impl CloseReason {
    pub(crate) const ALL: [CloseReason; 4] = [
        CloseReason::Full,
        CloseReason::CallersIn,
        CloseReason::Window,
        CloseReason::Drained,
    ];

    /// The `reason` label of `mlexray_serve_batch_closes_total`.
    pub(crate) fn label(self) -> &'static str {
        match self {
            CloseReason::Full => "full",
            CloseReason::CallersIn => "callers_in",
            CloseReason::Window => "window",
            CloseReason::Drained => "drained",
        }
    }

    /// Position in [`CloseReason::ALL`] (and in the per-reason counters).
    pub(crate) fn index(self) -> usize {
        self as usize - 1
    }
}

/// One model's closed-loop callers and how many of them are waiting on an
/// answer. See the module docs for what it buys and the two ordering
/// rules.
///
/// Orderings: the counters publish no other data, and each rule is carried
/// by a synchronising hand-off that already exists — `enter` happens
/// before the queue's mutex hands the request to a worker, `leave` before
/// the reply channel wakes the caller — so the atomics themselves are
/// `Relaxed`.
#[derive(Debug, Default)]
pub(crate) struct CallerLedger {
    attached: AtomicUsize,
    in_system: AtomicUsize,
}

impl CallerLedger {
    /// Declares one more closed-loop caller, until the returned guard
    /// drops.
    pub(crate) fn attach(self: &Arc<Self>) -> AttachedCaller {
        self.attached.fetch_add(1, Ordering::Relaxed);
        AttachedCaller(self.clone())
    }

    /// One attached caller's request is about to be pushed.
    pub(crate) fn enter(&self) {
        self.in_system.fetch_add(1, Ordering::Relaxed);
    }

    /// `n` attached callers' requests are about to be answered (or one was
    /// refused at the queue).
    pub(crate) fn leave(&self, n: usize) {
        if n > 0 {
            self.in_system.fetch_sub(n, Ordering::Relaxed);
        }
    }

    pub(crate) fn attached(&self) -> usize {
        self.attached.load(Ordering::Relaxed)
    }

    pub(crate) fn in_system(&self) -> usize {
        self.in_system.load(Ordering::Relaxed)
    }
}

/// A closed-loop caller's standing declaration on one model's ledger:
/// it submits one request at a time and waits for each answer. Dropping it
/// (the connection ended, however it ended) detaches the caller.
#[derive(Debug)]
pub(crate) struct AttachedCaller(Arc<CallerLedger>);

impl AttachedCaller {
    /// Whether this caller is attached to `ledger` (and not another
    /// model's).
    pub(crate) fn is_on(&self, ledger: &Arc<CallerLedger>) -> bool {
        Arc::ptr_eq(&self.0, ledger)
    }
}

impl Drop for AttachedCaller {
    fn drop(&mut self) {
        self.0.attached.fetch_sub(1, Ordering::Relaxed);
    }
}

/// What the leader does next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Stop gathering (after taking anything already queued, unless full).
    Close(CloseReason),
    /// Wait for a follower until this instant.
    WaitUntil(Instant),
}

/// The close-or-wait rule, evaluated before every follower pop.
///
/// Full beats everything. Otherwise, if callers are declared and all of
/// them are in the system, nobody who could join is left: close. Otherwise
/// wait as the plain window would — but never past the earliest live
/// member's deadline, or the wait itself would shed the request.
pub(crate) fn decide(
    batch_len: usize,
    max_batch: usize,
    attached: usize,
    in_system: usize,
    now: Instant,
    window_ends: Instant,
    earliest_member_deadline: Option<Instant>,
) -> Verdict {
    if batch_len >= max_batch {
        return Verdict::Close(CloseReason::Full);
    }
    if attached > 0 && in_system >= attached {
        return Verdict::Close(CloseReason::CallersIn);
    }
    let until = earliest_member_deadline.map_or(window_ends, |d| d.min(window_ends));
    if now >= until {
        Verdict::Close(CloseReason::Window)
    } else {
        Verdict::WaitUntil(until)
    }
}

/// A formed batch: each member with the instant it was popped (never
/// empty, all live at their pop), and why the gathering stopped.
pub(crate) struct FormedBatch {
    pub(crate) members: Vec<(InferRequest, Instant)>,
    pub(crate) close: CloseReason,
}

/// Blocks for a leader, gathers followers, and returns the batch — `None`
/// once the queue is closed and drained.
///
/// Every request is judged against its deadline at the moment it is
/// popped: one that already expired goes to `shed` (with its pop instant)
/// and never joins or leads. A request already sitting in the queue is
/// always taken before a `CallersIn` or `Window` close — only a full batch
/// leaves work behind.
pub(crate) fn form_batch(
    queue: &RequestQueue<InferRequest>,
    policy: BatchPolicy,
    ledger: &CallerLedger,
    mut shed: impl FnMut(InferRequest, Instant),
) -> Option<FormedBatch> {
    let expired = |request: &InferRequest, popped_at: Instant| {
        request
            .deadline
            .is_some_and(|deadline| popped_at > deadline)
    };
    let (leader, leader_popped) = loop {
        let request = queue.pop()?;
        let popped_at = Instant::now();
        if !expired(&request, popped_at) {
            break (request, popped_at);
        }
        shed(request, popped_at);
    };
    let window_ends = leader_popped + policy.window;
    let mut earliest_deadline = leader.deadline;
    let mut members = vec![(leader, leader_popped)];
    let close = loop {
        let now = Instant::now();
        let verdict = decide(
            members.len(),
            policy.max_batch,
            ledger.attached(),
            ledger.in_system(),
            now,
            window_ends,
            earliest_deadline,
        );
        let until = match verdict {
            Verdict::Close(CloseReason::Full) => break CloseReason::Full,
            // A past instant makes `pop_until` a poll: take what is queued,
            // never sleep.
            Verdict::Close(_) => now,
            Verdict::WaitUntil(until) => until,
        };
        match queue.pop_until(until) {
            TimedPop::Popped(request) => {
                let popped_at = Instant::now();
                if expired(&request, popped_at) {
                    shed(request, popped_at);
                    continue;
                }
                if let Some(deadline) = request.deadline {
                    earliest_deadline =
                        Some(earliest_deadline.map_or(deadline, |e| e.min(deadline)));
                }
                members.push((request, popped_at));
            }
            TimedPop::Drained => break CloseReason::Drained,
            TimedPop::TimedOut => {
                break match verdict {
                    Verdict::Close(reason) => reason,
                    Verdict::WaitUntil(_) => CloseReason::Window,
                }
            }
        }
    };
    Some(FormedBatch { members, close })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::sync_channel;

    use Verdict::{Close, WaitUntil};

    /// The decision table, on invented instants: `t0` is "now" unless a
    /// row says otherwise, the window ends 10 ms later.
    #[test]
    fn decide_closes_exactly_when_nobody_can_join() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let window_ends = at(10);
        let d = |batch_len, max_batch, attached, in_system, now, deadline| {
            decide(
                batch_len,
                max_batch,
                attached,
                in_system,
                now,
                window_ends,
                deadline,
            )
        };
        let table = [
            (
                "not full, a caller still idle: wait out the window",
                d(1, 4, 2, 1, t0, None),
                WaitUntil(window_ends),
            ),
            (
                "the wait stops at the earliest member's deadline",
                d(1, 4, 2, 1, t0, Some(at(3))),
                WaitUntil(at(3)),
            ),
            (
                "a deadline beyond the window does not extend it",
                d(1, 4, 2, 1, t0, Some(at(30))),
                WaitUntil(window_ends),
            ),
            (
                "the last idle caller arrived",
                d(2, 4, 2, 2, t0, None),
                Close(CloseReason::CallersIn),
            ),
            (
                "nobody attached, whatever is counted: the plain window",
                d(3, 4, 0, 3, t0, None),
                WaitUntil(window_ends),
            ),
            (
                "nobody attached, nothing counted: the plain window",
                d(1, 4, 0, 0, t0, None),
                WaitUntil(window_ends),
            ),
            (
                "more in the system than attached (undeclared traffic counted \
                 in, or a worker died mid-batch): close, never a longer wait",
                d(1, 4, 2, 3, t0, None),
                Close(CloseReason::CallersIn),
            ),
            (
                "full beats callers-in",
                d(4, 4, 4, 4, t0, None),
                Close(CloseReason::Full),
            ),
            (
                "full beats an open window",
                d(4, 4, 8, 4, t0, None),
                Close(CloseReason::Full),
            ),
            (
                "max_batch 1 never waits",
                d(1, 1, 0, 0, t0, None),
                Close(CloseReason::Full),
            ),
            (
                "window over",
                d(2, 4, 3, 2, at(10), None),
                Close(CloseReason::Window),
            ),
            (
                "member deadline reached inside the window",
                d(2, 4, 3, 2, at(4), Some(at(4))),
                Close(CloseReason::Window),
            ),
            (
                "callers-in is reported even after the window ran out",
                d(2, 4, 2, 2, at(11), None),
                Close(CloseReason::CallersIn),
            ),
        ];
        for (what, got, want) in table {
            assert_eq!(got, want, "{what}");
        }
    }

    fn request(id: u64, deadline: Option<Instant>) -> InferRequest {
        // The reply side is dropped: these requests are formed, not run.
        let (reply, _) = sync_channel(1);
        InferRequest {
            id,
            inputs: Arc::new(Vec::new()),
            deadline,
            admitted_at: Instant::now(),
            sampled: false,
            trace: None,
            from_caller: false,
            reply,
        }
    }

    fn ids(batch: &FormedBatch) -> Vec<u64> {
        batch.members.iter().map(|(r, _)| r.id).collect()
    }

    /// A ledger that says "close now" must not strand work that is already
    /// queued; only a full batch leaves requests behind. The hour-long
    /// window would hang the test if any branch slept.
    #[test]
    fn queued_requests_are_taken_before_any_close_but_full() {
        let hour = Duration::from_secs(3600);
        let queue = RequestQueue::new(16, false);
        let ledger = Arc::new(CallerLedger::default());
        let _caller = ledger.attach();
        ledger.enter();
        for id in 0..3 {
            queue.try_push(request(id, None)).ok().unwrap();
        }
        let batch = form_batch(&queue, BatchPolicy::windowed(8, hour), &ledger, |_, _| {
            panic!("nothing expired")
        })
        .unwrap();
        assert_eq!(ids(&batch), [0, 1, 2]);
        assert_eq!(batch.close, CloseReason::CallersIn);

        for id in 0..6 {
            queue.try_push(request(id, None)).ok().unwrap();
        }
        let batch = form_batch(&queue, BatchPolicy::windowed(4, hour), &ledger, |_, _| {
            panic!("nothing expired")
        })
        .unwrap();
        assert_eq!(ids(&batch), [0, 1, 2, 3]);
        assert_eq!(batch.close, CloseReason::Full);
        assert_eq!(queue.len(), 2, "full leaves the rest for the next batch");

        // Closed queue: the remainder drains, then formation ends.
        queue.close();
        let batch = form_batch(&queue, BatchPolicy::windowed(4, hour), &ledger, |_, _| {
            panic!("nothing expired")
        })
        .unwrap();
        assert_eq!(ids(&batch), [4, 5]);
        assert_eq!(batch.close, CloseReason::Drained);
        assert!(form_batch(&queue, BatchPolicy::default(), &ledger, |_, _| {}).is_none());
    }

    /// Deadlines are judged at the pop: expired requests are shed without
    /// joining (leader or follower), live ones stay members.
    #[test]
    fn expired_requests_are_shed_at_the_pop_and_never_join() {
        let queue = RequestQueue::new(16, false);
        let ledger = CallerLedger::default();
        let past = Instant::now() - Duration::from_millis(5);
        let far = Instant::now() + Duration::from_secs(3600);
        queue.try_push(request(0, Some(past))).ok().unwrap();
        queue.try_push(request(1, Some(far))).ok().unwrap();
        queue.try_push(request(2, Some(past))).ok().unwrap();
        queue.try_push(request(3, None)).ok().unwrap();
        let mut shed = Vec::new();
        let batch = form_batch(
            &queue,
            BatchPolicy::windowed(4, Duration::ZERO),
            &ledger,
            |r, _| shed.push(r.id),
        )
        .unwrap();
        assert_eq!(shed, [0, 2]);
        assert_eq!(ids(&batch), [1, 3]);
        assert_eq!(batch.close, CloseReason::Window);
    }

    #[test]
    fn attachment_is_released_on_drop() {
        let ledger = Arc::new(CallerLedger::default());
        let a = ledger.attach();
        let b = ledger.attach();
        assert_eq!(ledger.attached(), 2);
        assert!(a.is_on(&ledger));
        ledger.enter();
        assert_eq!(ledger.in_system(), 1);
        ledger.leave(1);
        drop(a);
        drop(b);
        assert_eq!((ledger.attached(), ledger.in_system()), (0, 0));
    }
}
