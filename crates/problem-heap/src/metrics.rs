//! Cost model and parallel-performance metrics.
//!
//! The paper ran on a Sequent Symmetry and reported wall-clock speedups;
//! this host is single-core, so all experiments measure *virtual time* in
//! simulator ticks under a cost model (DESIGN.md §2). Speedup and
//! efficiency keep the paper's definitions (§3, after Fishburn):
//!
//! ```text
//! speedup    = time of best serial algorithm / time of parallel algorithm
//! efficiency = speedup / number of processors
//! ```

use gametree::SearchStats;
use metrics::HistSnapshot;

/// Virtual costs, in ticks, of the primitive search operations. Ratios are
/// what matter: a static evaluation is several times the cost of generating
/// a node's children, as on the paper's hardware.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// Generating the children of one interior node.
    pub expand: u64,
    /// One static-evaluator call (leaf evaluation or a sorting probe).
    pub eval: u64,
    /// One exclusive access to the shared problem heap / tree ("interference
    /// loss" knob, §3.1). Zero disables contention modeling.
    pub heap_latency: u64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            expand: 2,
            eval: 8,
            heap_latency: 1,
        }
    }
}

impl CostModel {
    /// Virtual serial running time implied by a serial search's counters:
    /// expansions, leaf evaluations, and sorting evaluations all charged.
    pub fn serial_ticks(&self, stats: &SearchStats) -> u64 {
        stats.interior_nodes * self.expand + stats.eval_calls * self.eval
    }
}

/// Contention counters maintained by one worker thread of a real-thread
/// problem-heap back-end. Everything is counted locally (no shared-cache
/// traffic) and merged after the threads join. They are the one count of
/// a threaded run: traces and metric pages are views of them (DESIGN.md
/// §16), and the search's own node and ordering counts live in its
/// `SearchStats`, not here.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ThreadCounters {
    /// Times the heap/tree mutex was acquired.
    pub lock_acquisitions: u64,
    /// Lock acquisitions that performed a (possibly empty) selection batch.
    pub select_batches: u64,
    /// Jobs executed outside the lock.
    pub jobs_executed: u64,
    /// Outcomes applied to the shared tree.
    pub outcomes_applied: u64,
    /// Targeted `notify_one` wake-ups issued for parked siblings.
    pub wakeups: u64,
    /// Times this thread parked on the idle condition variable.
    pub idle_parks: u64,
    /// Lock-free steal probes against sibling deques.
    pub steal_attempts: u64,
    /// Steal probes that came back with a job.
    pub steal_hits: u64,
    /// Nanoseconds spent blocked waiting to acquire the heap mutex.
    pub lock_wait_nanos: u64,
    /// The same waits one sample per acquisition: `count` equals
    /// `lock_acquisitions` and `sum` equals `lock_wait_nanos`.
    pub lock_waits: HistSnapshot,
    /// Nanoseconds the heap mutex was held by this thread.
    pub lock_hold_nanos: u64,
    /// Child positions published into the search tree's lock-free slab
    /// while this thread held the lock: each moved in once, when its
    /// parent's move list was applied, never cloned.
    pub arena_publishes: u64,
    /// Jobs whose outcomes were discarded by the abort protocol (deadline,
    /// cancellation, or worker panic) instead of being applied.
    pub jobs_aborted: u64,
}

impl ThreadCounters {
    /// Accumulates another thread's counters into this one.
    pub fn merge(&mut self, other: &ThreadCounters) {
        self.lock_acquisitions += other.lock_acquisitions;
        self.select_batches += other.select_batches;
        self.jobs_executed += other.jobs_executed;
        self.outcomes_applied += other.outcomes_applied;
        self.wakeups += other.wakeups;
        self.idle_parks += other.idle_parks;
        self.steal_attempts += other.steal_attempts;
        self.steal_hits += other.steal_hits;
        self.lock_wait_nanos += other.lock_wait_nanos;
        self.lock_waits.merge(&other.lock_waits);
        self.lock_hold_nanos += other.lock_hold_nanos;
        self.arena_publishes += other.arena_publishes;
        self.jobs_aborted += other.jobs_aborted;
    }

    /// Mean jobs obtained per lock acquisition — the batching win the
    /// decomposed lock design exists to maximize.
    pub fn jobs_per_acquisition(&self) -> f64 {
        if self.lock_acquisitions == 0 {
            0.0
        } else {
            self.jobs_executed as f64 / self.lock_acquisitions as f64
        }
    }

    /// Lock acquisitions per executed job — the inverse contention figure
    /// the scaling experiment minimizes (lower is better).
    pub fn acquisitions_per_job(&self) -> f64 {
        if self.jobs_executed == 0 {
            0.0
        } else {
            self.lock_acquisitions as f64 / self.jobs_executed as f64
        }
    }

    /// Fraction of steal probes that returned a job, in `[0, 1]`.
    pub fn steal_hit_rate(&self) -> f64 {
        if self.steal_attempts == 0 {
            0.0
        } else {
            self.steal_hits as f64 / self.steal_attempts as f64
        }
    }

    /// Mean nanoseconds spent waiting for the mutex per acquisition.
    pub fn mean_lock_wait_nanos(&self) -> f64 {
        if self.lock_acquisitions == 0 {
            0.0
        } else {
            self.lock_wait_nanos as f64 / self.lock_acquisitions as f64
        }
    }

    /// Mean nanoseconds the mutex was *held* per acquisition — the service
    /// time that, multiplied by the acquisition rate, bounds scalability
    /// in the paper's §3.1 interference model.
    pub fn mean_lock_hold_nanos(&self) -> f64 {
        if self.lock_acquisitions == 0 {
            0.0
        } else {
            self.lock_hold_nanos as f64 / self.lock_acquisitions as f64
        }
    }
}

/// Merges every thread's counters into one total.
impl<'a> std::iter::Sum<&'a ThreadCounters> for ThreadCounters {
    fn sum<I: Iterator<Item = &'a ThreadCounters>>(iter: I) -> ThreadCounters {
        iter.fold(ThreadCounters::default(), |mut total, c| {
            total.merge(c);
            total
        })
    }
}

impl std::fmt::Display for ThreadCounters {
    /// One-line contention summary used by the bench output, e.g.
    /// `acq/job 0.14 | steal 23/410 (5.6%) | park 7/wake 5 | aborted 0 |
    /// wait 312ns/acq | hold 187ns/acq`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "acq/job {:.3} | steal {}/{} ({:.1}%) | park {}/wake {} | aborted {} | \
             wait {:.0}ns/acq | hold {:.0}ns/acq",
            self.acquisitions_per_job(),
            self.steal_hits,
            self.steal_attempts,
            self.steal_hit_rate() * 100.0,
            self.idle_parks,
            self.wakeups,
            self.jobs_aborted,
            self.mean_lock_wait_nanos(),
            self.mean_lock_hold_nanos(),
        )
    }
}

/// Outcome of one simulated parallel run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimReport {
    /// Number of simulated processors.
    pub processors: usize,
    /// Virtual time at which the computation finished.
    pub makespan: u64,
    /// Total ticks spent executing completed work items.
    pub work_ticks: u64,
    /// Total ticks the heap/tree lock was held (service time).
    pub lock_service_ticks: u64,
    /// Total ticks processors waited for the lock (interference loss).
    pub lock_wait_ticks: u64,
    /// Number of work items completed.
    pub items_completed: u64,
    /// Number of work acquisitions that found no work (starvation events).
    pub empty_polls: u64,
}

impl SimReport {
    /// Processor-ticks not accounted for by work or lock traffic: idle
    /// (starvation) time plus in-flight work abandoned at termination.
    pub fn starvation_ticks(&self) -> u64 {
        (self.processors as u64 * self.makespan)
            .saturating_sub(self.work_ticks + self.lock_service_ticks + self.lock_wait_ticks)
    }

    /// Speedup relative to a serial algorithm that took `serial_ticks`.
    /// A degenerate zero-tick run (e.g. a single-leaf tree under a free
    /// cost model) reports 0.0 rather than `inf`/`NaN`.
    pub fn speedup(&self, serial_ticks: u64) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        serial_ticks as f64 / self.makespan as f64
    }

    /// Efficiency relative to a serial algorithm that took `serial_ticks`;
    /// 0.0 for degenerate runs (zero makespan or zero processors).
    pub fn efficiency(&self, serial_ticks: u64) -> f64 {
        if self.processors == 0 {
            return 0.0;
        }
        self.speedup(serial_ticks) / self.processors as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_ticks_charges_all_components() {
        let cm = CostModel {
            expand: 2,
            eval: 8,
            heap_latency: 0,
        };
        let stats = SearchStats {
            interior_nodes: 10,
            leaf_nodes: 30,
            eval_calls: 50, // 30 leaves + 20 sorting probes
            sorts: 5,
            cutoffs: 0,
            ..SearchStats::new()
        };
        assert_eq!(cm.serial_ticks(&stats), 10 * 2 + 50 * 8);
    }

    #[test]
    fn speedup_and_efficiency() {
        let r = SimReport {
            processors: 4,
            makespan: 250,
            work_ticks: 900,
            lock_service_ticks: 40,
            lock_wait_ticks: 20,
            items_completed: 100,
            empty_polls: 3,
        };
        assert!((r.speedup(1000) - 4.0).abs() < 1e-9);
        assert!((r.efficiency(1000) - 1.0).abs() < 1e-9);
        assert_eq!(r.starvation_ticks(), 1000 - 960);
    }

    #[test]
    fn starvation_saturates_at_zero() {
        let r = SimReport {
            processors: 1,
            makespan: 10,
            work_ticks: 20, // in-flight overcount scenario
            lock_service_ticks: 0,
            lock_wait_ticks: 0,
            items_completed: 1,
            empty_polls: 0,
        };
        assert_eq!(r.starvation_ticks(), 0);
    }

    fn waits(samples: &[u64]) -> HistSnapshot {
        let mut h = HistSnapshot::default();
        for &v in samples {
            h.record(v);
        }
        h
    }

    #[test]
    fn thread_counters_merge_and_ratio() {
        let mut a = ThreadCounters {
            lock_acquisitions: 10,
            select_batches: 10,
            jobs_executed: 40,
            outcomes_applied: 40,
            wakeups: 3,
            idle_parks: 1,
            steal_attempts: 8,
            steal_hits: 2,
            lock_wait_nanos: 1000,
            lock_hold_nanos: 2000,
            arena_publishes: 12,
            jobs_aborted: 2,
            lock_waits: waits(&[400, 600]),
        };
        let b = ThreadCounters {
            lock_acquisitions: 5,
            select_batches: 4,
            jobs_executed: 10,
            outcomes_applied: 10,
            wakeups: 0,
            idle_parks: 2,
            steal_attempts: 2,
            steal_hits: 1,
            lock_wait_nanos: 500,
            lock_hold_nanos: 300,
            arena_publishes: 3,
            jobs_aborted: 1,
            lock_waits: waits(&[500]),
        };
        a.merge(&b);
        assert_eq!(a.lock_acquisitions, 15);
        assert_eq!(a.jobs_executed, 50);
        assert_eq!(a.idle_parks, 3);
        assert_eq!(a.steal_attempts, 10);
        assert_eq!(a.steal_hits, 3);
        assert_eq!(a.lock_wait_nanos, 1500);
        assert_eq!(a.lock_hold_nanos, 2300);
        assert_eq!(a.arena_publishes, 15);
        assert_eq!(a.jobs_aborted, 3);
        assert_eq!(a.lock_waits, waits(&[400, 600, 500]));
        assert!((a.jobs_per_acquisition() - 50.0 / 15.0).abs() < 1e-12);
        assert!((a.acquisitions_per_job() - 15.0 / 50.0).abs() < 1e-12);
        assert!((a.steal_hit_rate() - 0.3).abs() < 1e-12);
        assert!((a.mean_lock_wait_nanos() - 100.0).abs() < 1e-12);
        assert!((a.mean_lock_hold_nanos() - 2300.0 / 15.0).abs() < 1e-12);
        assert_eq!(ThreadCounters::default().jobs_per_acquisition(), 0.0);
        assert_eq!(ThreadCounters::default().acquisitions_per_job(), 0.0);
        assert_eq!(ThreadCounters::default().steal_hit_rate(), 0.0);
        assert_eq!(ThreadCounters::default().mean_lock_wait_nanos(), 0.0);
        assert_eq!(ThreadCounters::default().mean_lock_hold_nanos(), 0.0);
    }

    #[test]
    fn thread_counters_display_is_one_line() {
        let c = ThreadCounters {
            lock_acquisitions: 10,
            jobs_executed: 40,
            steal_attempts: 8,
            steal_hits: 2,
            lock_wait_nanos: 1000,
            lock_hold_nanos: 2500,
            idle_parks: 7,
            wakeups: 5,
            jobs_aborted: 3,
            ..ThreadCounters::default()
        };
        let s = format!("{c}");
        assert!(!s.contains('\n'));
        assert!(s.contains("acq/job 0.250"), "got: {s}");
        assert!(s.contains("steal 2/8 (25.0%)"), "got: {s}");
        assert!(s.contains("park 7/wake 5"), "got: {s}");
        assert!(s.contains("aborted 3"), "got: {s}");
        assert!(s.contains("wait 100ns/acq"), "got: {s}");
        assert!(s.contains("hold 250ns/acq"), "got: {s}");
    }

    #[test]
    fn thread_counters_display_golden_format() {
        // Pin the exact layout: downstream logs are grepped by humans and
        // scripts, so a format change must be deliberate.
        let c = ThreadCounters {
            lock_acquisitions: 10,
            jobs_executed: 40,
            steal_attempts: 8,
            steal_hits: 2,
            lock_wait_nanos: 1000,
            lock_hold_nanos: 1500,
            idle_parks: 7,
            wakeups: 5,
            jobs_aborted: 3,
            ..ThreadCounters::default()
        };
        assert_eq!(
            format!("{c}"),
            "acq/job 0.250 | steal 2/8 (25.0%) | park 7/wake 5 | aborted 3 | \
             wait 100ns/acq | hold 150ns/acq"
        );
        assert_eq!(
            format!("{}", ThreadCounters::default()),
            "acq/job 0.000 | steal 0/0 (0.0%) | park 0/wake 0 | aborted 0 | \
             wait 0ns/acq | hold 0ns/acq"
        );
    }

    #[test]
    fn zero_makespan_report_has_finite_metrics() {
        let r = SimReport {
            processors: 4,
            makespan: 0,
            work_ticks: 0,
            lock_service_ticks: 0,
            lock_wait_ticks: 0,
            items_completed: 0,
            empty_polls: 0,
        };
        assert_eq!(r.speedup(1000), 0.0);
        assert_eq!(r.efficiency(1000), 0.0);
        assert!(r.speedup(0).is_finite());
        let no_procs = SimReport { processors: 0, ..r };
        assert_eq!(no_procs.efficiency(1000), 0.0);
    }

    #[test]
    fn default_cost_model_is_eval_dominated() {
        let cm = CostModel::default();
        assert!(cm.eval > cm.expand, "static evaluation dominates expansion");
    }
}
