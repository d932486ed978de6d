//! Search control for the threaded back-end: the shared stop token, the
//! abort error, and what they mean for a parallel run.
//!
//! The token itself ([`SearchControl`]) lives in `search-serial` so the
//! serial recursions can poll it; this module re-exports it and adds the
//! parallel-side error type. The abort protocol is implemented in
//! `er::threads` (DESIGN.md §10): any worker that observes a tripped token
//! — between jobs, inside a serial-frontier batch, or from a caught panic
//! — discards its buffered outcomes, marks the search done under a
//! poison-tolerant lock, broadcasts the idle condvar so parked siblings
//! wake, and returns its counters. The coordinator then joins every
//! thread and returns [`SearchAborted`] instead of poisoning or hanging.

use std::time::Duration;

use problem_heap::ThreadCounters;

pub use search_serial::control::{
    AbortReason, CtlAccess, CtlProbe, CtlSearchResult, SearchControl, CHECK_PERIOD,
};

/// Error returned by the threaded back-end when a run stopped before the
/// root value was exact: deadline, cancellation, or a worker panic.
#[derive(Clone, Debug)]
pub struct SearchAborted {
    /// Why the run stopped.
    pub reason: AbortReason,
    /// Contention counters of every worker, including the partial work
    /// performed before the trip (aborted jobs are counted in
    /// `jobs_aborted`, never in `outcomes_applied`). A worker that died
    /// panicking contributes a default (all-zero) entry.
    pub counters: Vec<ThreadCounters>,
    /// Wall-clock duration from launch to the last join.
    pub elapsed: Duration,
}

impl SearchAborted {
    /// All workers' counters merged.
    pub fn total_counters(&self) -> ThreadCounters {
        self.counters.iter().sum()
    }
}

impl std::fmt::Display for SearchAborted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "search aborted ({}) after {:?}, {} threads joined",
            self.reason,
            self.elapsed,
            self.counters.len()
        )
    }
}

impl std::error::Error for SearchAborted {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_reason() {
        let e = SearchAborted {
            reason: AbortReason::DeadlineHit,
            counters: vec![ThreadCounters::default(); 4],
            elapsed: Duration::from_millis(12),
        };
        let s = e.to_string();
        assert!(s.contains("deadline"), "{s}");
        assert!(s.contains("4 threads"), "{s}");
    }
}
