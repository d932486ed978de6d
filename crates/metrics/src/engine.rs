//! The engine's well-known metric set.
//!
//! The search layers never see it: a threaded run counts into its own
//! per-worker `ThreadCounters`, and each owner of an [`EngineMetrics`]
//! (the session scheduler, the UCI loop, a match player) folds a run's
//! counters in once the run has returned, the way the scheduler folds
//! the shared table's counter deltas at slice boundaries (DESIGN.md §16).

use std::sync::Arc;

use crate::core::{Counter, Gauge, Histogram};
use crate::registry::{expose_text, MetricsRegistry, MetricsSnapshot};

/// The scheduler's three priority-class labels, in dense-index order
/// (matching `engine_server::Priority::index` / `::label`).
pub const CLASS_LABELS: [&str; 3] = ["interactive", "normal", "batch"];

/// The engine's well-known metric set, one registry with every series
/// the instrumented layers record into.
///
/// Construction registers everything eagerly (names are then fixed for
/// the process lifetime); the public fields are the live handles the
/// layers clone out of the `Arc<EngineMetrics>` they share.
pub struct EngineMetrics {
    /// The backing registry, for snapshots and exposition.
    pub registry: MetricsRegistry,
    /// Nodes examined by completed threaded searches.
    pub search_nodes_total: Arc<Counter>,
    /// Jobs executed by completed threaded searches.
    pub search_jobs_total: Arc<Counter>,
    /// Steal attempts across completed searches.
    pub steal_attempts_total: Arc<Counter>,
    /// Successful steals across completed searches.
    pub steal_hits_total: Arc<Counter>,
    /// Wall-clock nanoseconds summed over completed searches
    /// (nodes/sec = `search_nodes_total` / this).
    pub search_elapsed_ns_total: Arc<Counter>,
    /// Completed threaded searches.
    pub search_runs_total: Arc<Counter>,
    /// Per-acquisition heap-lock wait (nanoseconds).
    pub lock_wait_ns: Arc<Histogram>,
    /// Transposition-table probes.
    pub tt_probes_total: Arc<Counter>,
    /// Transposition-table probe hits.
    pub tt_hits_total: Arc<Counter>,
    /// Transposition-table stores.
    pub tt_stores_total: Arc<Counter>,
    /// Sampled table fill rate in `[0, 1]` (see
    /// `TranspositionTable::occupancy_sample`).
    pub tt_occupancy: Arc<Gauge>,
    /// Queued sessions per priority class (indexed like
    /// [`CLASS_LABELS`]).
    pub server_queue_depth: [Arc<Gauge>; 3],
    /// Admission-to-first-slice wait (nanoseconds).
    pub server_queue_wait_ns: Arc<Histogram>,
    /// Per-slice service latency (nanoseconds).
    pub server_slice_ns: Arc<Histogram>,
    /// Sessions shed at admission, by reason (`queue_full`,
    /// `class_full`).
    pub server_shed_queue_full_total: Arc<Counter>,
    /// Sessions shed because their class was at its admission cap.
    pub server_shed_class_full_total: Arc<Counter>,
    /// Sessions that hit their deadline and degraded to the deepest
    /// completed value.
    pub server_deadline_degraded_total: Arc<Counter>,
    /// Sessions currently holding scheduler slots.
    pub server_active_sessions: Arc<Gauge>,
    /// Depth reached per played match move.
    pub match_move_depth: Arc<Histogram>,
    /// Wall-clock nanoseconds spent per played match move.
    pub match_move_spend_ns: Arc<Histogram>,
}

impl EngineMetrics {
    /// A metric set striped for `workers` recording threads.
    pub fn new(workers: usize) -> EngineMetrics {
        let r = MetricsRegistry::new(workers);
        let qd = |class: &str| {
            r.gauge_with(
                "server_queue_depth",
                &[("class", class)],
                "Queued sessions per priority class.",
            )
        };
        EngineMetrics {
            search_nodes_total: r.counter(
                "search_nodes_total",
                "Nodes examined by completed threaded searches.",
            ),
            search_jobs_total: r.counter(
                "search_jobs_total",
                "Problem-heap jobs executed by completed searches.",
            ),
            steal_attempts_total: r.counter(
                "search_steal_attempts_total",
                "Deque steal attempts across completed searches.",
            ),
            steal_hits_total: r.counter(
                "search_steal_hits_total",
                "Successful deque steals across completed searches.",
            ),
            search_elapsed_ns_total: r.counter(
                "search_elapsed_ns_total",
                "Wall-clock nanoseconds summed over completed searches.",
            ),
            search_runs_total: r.counter("search_runs_total", "Completed threaded searches."),
            lock_wait_ns: r.histogram(
                "search_lock_wait_ns",
                "Per-acquisition problem-heap lock wait in nanoseconds.",
            ),
            tt_probes_total: r.counter("tt_probes_total", "Transposition-table probes."),
            tt_hits_total: r.counter("tt_hits_total", "Transposition-table probe hits."),
            tt_stores_total: r.counter("tt_stores_total", "Transposition-table stores."),
            tt_occupancy: r.ratio_gauge(
                "tt_occupancy_ratio",
                "Sampled transposition-table fill rate in [0, 1].",
            ),
            server_queue_depth: [
                qd(CLASS_LABELS[0]),
                qd(CLASS_LABELS[1]),
                qd(CLASS_LABELS[2]),
            ],
            server_queue_wait_ns: r.histogram(
                "server_queue_wait_ns",
                "Admission-to-first-slice wait in nanoseconds.",
            ),
            server_slice_ns: r.histogram(
                "server_slice_ns",
                "Per-slice service latency in nanoseconds.",
            ),
            server_shed_queue_full_total: r.counter(
                "server_shed_queue_full_total",
                "Sessions shed because the admission queue was full.",
            ),
            server_shed_class_full_total: r.counter(
                "server_shed_class_full_total",
                "Sessions shed because their class hit its admission cap.",
            ),
            server_deadline_degraded_total: r.counter(
                "server_deadline_degraded_total",
                "Sessions that hit their deadline and degraded gracefully.",
            ),
            server_active_sessions: r.gauge(
                "server_active_sessions",
                "Sessions currently holding scheduler slots.",
            ),
            match_move_depth: r.histogram(
                "match_move_depth",
                "Iterative-deepening depth reached per played match move.",
            ),
            match_move_spend_ns: r.histogram(
                "match_move_spend_ns",
                "Wall-clock nanoseconds spent per played match move.",
            ),
            registry: r,
        }
    }

    /// Renders the current readings as a Prometheus exposition page.
    pub fn expose(&self) -> String {
        expose_text(&self.registry.snapshot())
    }

    /// Freezes the current readings.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Nodes per second over everything recorded so far (0.0 before the
    /// first search completes).
    pub fn nodes_per_sec(&self) -> f64 {
        let ns = self.search_elapsed_ns_total.value();
        if ns == 0 {
            0.0
        } else {
            self.search_nodes_total.value() as f64 * 1e9 / ns as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_everything(m: &EngineMetrics) {
        m.lock_wait_ns.record(0, 120);
        m.search_nodes_total.add(0, 1000);
        m.search_jobs_total.add(0, 50);
        m.steal_attempts_total.add(0, 8);
        m.steal_hits_total.add(0, 3);
        m.search_elapsed_ns_total.add(0, 2_000_000);
        m.search_runs_total.inc(0);
        m.tt_probes_total.add(0, 10);
        m.tt_hits_total.add(0, 4);
        m.tt_stores_total.add(0, 6);
        m.tt_occupancy.set_ratio(0.5);
        m.server_queue_depth[1].set(3);
        m.server_queue_wait_ns.record(0, 500);
        m.server_slice_ns.record(0, 7_000);
        m.server_shed_queue_full_total.inc(0);
        m.server_deadline_degraded_total.inc(0);
        m.server_active_sessions.set(2);
        m.match_move_depth.record(0, 6);
        m.match_move_spend_ns.record(0, 9_999);
    }

    #[test]
    fn full_engine_exposition_passes_the_linter() {
        let m = EngineMetrics::new(4);
        record_everything(&m);
        let page = m.expose();
        crate::lint::check(&page).unwrap_or_else(|e| panic!("lint failed: {e}\n{page}"));
        assert!(page.contains("search_nodes_total 1000"));
        assert!(page.contains("server_queue_depth{class=\"normal\"} 3"));
        assert!(page.contains("tt_occupancy_ratio 0.5"));
    }

    #[test]
    fn nodes_per_sec_reads_the_folded_totals() {
        let m = EngineMetrics::new(1);
        assert_eq!(m.nodes_per_sec(), 0.0);
        m.search_nodes_total.add(0, 5);
        m.search_elapsed_ns_total.add(0, 10);
        assert!((m.nodes_per_sec() - 5e8).abs() < 1.0);
    }
}
