//! Process-global core budget: one ledger every thread-pool-shaped
//! subsystem draws from — the sharded replay engine (and the differential
//! runs built on it) and the serve crate's per-model worker pools — so
//! concurrent subsystems *compose* instead of each
//! independently sizing itself to the whole machine and oversubscribing
//! cores.
//!
//! The ledger is deliberately simple: a single atomic count of reserved
//! cores against [`machine_parallelism`]. A reservation is a
//! [`CoreLease`]; dropping the lease returns the cores. Reservations
//! never block and never shrink to zero — every caller is granted at
//! least one core, so forward progress is unconditional even when the
//! machine is oversubscribed (the ledger then simply reports no
//! headroom to the *next* caller).
//!
//! Two reservation styles cover the callers:
//!
//! * [`reserve_cores`] — an **exact** claim for subsystems whose worker
//!   count is caller-configured (an explicit `workers` in
//!   [`crate::ReplayOptions`], the serve crate's `workers_per_model`).
//!   The claim is recorded even past the machine size, making the
//!   pressure visible to budget-aware callers.
//! * [`reserve_up_to`] — an **elastic** claim for subsystems that size
//!   themselves (`workers == 0` auto modes): the grant is whatever
//!   headroom remains, capped by the request, floored at one.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Cores currently reserved by live [`CoreLease`]s, process-wide.
static RESERVED: AtomicUsize = AtomicUsize::new(0);

/// The machine's available parallelism (always at least 1).
pub fn machine_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Cores currently reserved by live [`CoreLease`]s.
pub fn reserved_cores() -> usize {
    RESERVED.load(Ordering::Acquire)
}

/// Cores not claimed by any live lease — the headroom an auto-sizing
/// subsystem should fit itself into. Never reports below 1: a caller
/// sized by the budget can always make progress with one worker.
pub fn available_cores() -> usize {
    machine_parallelism()
        .saturating_sub(reserved_cores())
        .max(1)
}

/// A reservation against the global core budget. The cores return to the
/// ledger when the lease drops — tie the lease's lifetime to the worker
/// pool it sized.
#[derive(Debug)]
pub struct CoreLease {
    cores: usize,
}

impl CoreLease {
    /// Cores granted to this lease (always at least 1).
    pub fn cores(&self) -> usize {
        self.cores
    }
}

impl Drop for CoreLease {
    fn drop(&mut self) {
        RESERVED.fetch_sub(self.cores, Ordering::AcqRel);
    }
}

/// Reserves exactly `cores` cores (floored at 1), recording the claim in
/// the ledger even when it exceeds the current headroom — an explicit
/// worker-count configuration is honored, and the resulting pressure is
/// what elastic callers then see.
pub fn reserve_cores(cores: usize) -> CoreLease {
    let cores = cores.max(1);
    RESERVED.fetch_add(cores, Ordering::AcqRel);
    CoreLease { cores }
}

/// Reserves up to `max` cores out of the remaining headroom (both floored
/// at 1): the elastic claim auto-sizing subsystems use. Concurrent
/// reservations race on a compare-exchange loop, so two elastic callers
/// never double-count the same headroom.
pub fn reserve_up_to(max: usize) -> CoreLease {
    let max = max.max(1);
    let machine = machine_parallelism();
    loop {
        let reserved = RESERVED.load(Ordering::Acquire);
        let headroom = machine.saturating_sub(reserved).max(1);
        let grant = headroom.min(max);
        if RESERVED
            .compare_exchange(
                reserved,
                reserved + grant,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
        {
            return CoreLease { cores: grant };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test exercises the whole ledger lifecycle: the ledger is
    /// process-global, so splitting these assertions across #[test] fns
    /// would race with the harness's parallel execution.
    #[test]
    fn ledger_grants_release_and_floor() {
        let machine = machine_parallelism();
        assert!(machine >= 1);

        // Exact reservations are honored verbatim and released on drop.
        let before = reserved_cores();
        let exact = reserve_cores(3);
        assert_eq!(exact.cores(), 3);
        assert_eq!(reserved_cores(), before + 3);
        drop(exact);
        assert_eq!(reserved_cores(), before);

        // A zero request floors at one core.
        let floor = reserve_cores(0);
        assert_eq!(floor.cores(), 1);
        drop(floor);

        // An elastic reservation never exceeds the request...
        let elastic = reserve_up_to(1);
        assert_eq!(elastic.cores(), 1);
        // ...and with the whole machine claimed on top, the next elastic
        // caller still gets its guaranteed single core.
        let hog = reserve_cores(machine * 2);
        let squeezed = reserve_up_to(8);
        assert_eq!(squeezed.cores(), 1, "no headroom left, floor applies");
        assert_eq!(available_cores(), 1, "available never reports below 1");
        drop(squeezed);
        drop(hog);
        drop(elastic);
    }
}
