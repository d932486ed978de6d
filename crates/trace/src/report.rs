//! Post-run aggregation: collapse a [`TraceData`] snapshot into the
//! [`SearchReport`] figures the paper argues from — per-worker utilization,
//! lock wait/hold histograms, queue-depth samples, and (attached by the
//! caller, which owns the classification machinery) the mandatory vs
//! speculative work split per processor count.

use metrics::HistSnapshot;

use crate::event::{EventKind, TraceEvent, KIND_COUNT};
use crate::tracer::TraceData;

/// Utilization summary for one worker row.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerReport {
    /// Worker index (timeline row).
    pub index: usize,
    /// Events retained for this worker.
    pub events: u64,
    /// Events lost to ring overwrite.
    pub dropped: u64,
    /// Jobs executed (JobExecute spans).
    pub jobs: u64,
    /// Nanoseconds inside JobExecute spans.
    pub busy_ns: u64,
    /// Nanoseconds blocked on the heap mutex.
    pub lock_wait_ns: u64,
    /// Nanoseconds holding the heap mutex.
    pub lock_hold_ns: u64,
    /// Nanoseconds parked on the idle condvar.
    pub park_ns: u64,
    /// Steal probes and probes that returned a job.
    pub steal_attempts: u64,
    /// Steal probes that returned a job.
    pub steal_hits: u64,
    /// `busy_ns` over the snapshot wall time.
    pub busy_fraction: f64,
    /// `park_ns` over the snapshot wall time.
    pub park_fraction: f64,
    /// `lock_wait_ns` over the snapshot wall time.
    pub lock_wait_fraction: f64,
}

/// Queue-depth samples collapsed to summary statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueueDepthStats {
    /// Number of samples (one per refill round).
    pub samples: u64,
    /// Largest observed combined queue depth.
    pub max: u32,
    /// Mean observed depth.
    pub mean: f64,
}

/// Mandatory vs speculative node split for one processor count (the
/// paper's §3 classification; computed deterministically by the simulator
/// and attached to the report by the caller).
#[derive(Clone, Copy, Debug, Default)]
pub struct SpecSplit {
    /// Processor count the run was classified at.
    pub processors: usize,
    /// Nodes serial alpha-beta examines on this tree.
    pub mandatory: u64,
    /// Nodes the parallel run examined.
    pub examined: u64,
    /// Examined nodes inside the mandatory set.
    pub mandatory_done: u64,
    /// Examined nodes outside the mandatory set — wasted speculation.
    pub speculative: u64,
    /// Mandatory nodes the run never needed (extra cutoffs).
    pub mandatory_skipped: u64,
    /// `speculative / examined` (0.0 when nothing was examined).
    pub wasted_fraction: f64,
}

/// Everything a run's telemetry aggregates to.
#[derive(Clone, Debug, Default)]
pub struct SearchReport {
    /// Wall time covered by the snapshot, nanoseconds.
    pub wall_ns: u64,
    /// Per-worker utilization, one entry per timeline row.
    pub workers: Vec<WorkerReport>,
    /// Events per kind, indexed by `EventKind as usize`.
    pub counts: [u64; KIND_COUNT],
    /// Total events lost to ring overwrite.
    pub dropped: u64,
    /// Distribution of lock-wait span durations (nanoseconds).
    pub lock_wait: HistSnapshot,
    /// Distribution of lock-hold span durations (nanoseconds).
    pub lock_hold: HistSnapshot,
    /// Queue-depth samples.
    pub queue_depth: QueueDepthStats,
    /// Mandatory/speculative split per processor count; filled by the
    /// caller from the deterministic classifier, empty otherwise.
    pub speculation: Vec<SpecSplit>,
}

impl SearchReport {
    /// Aggregates a snapshot. The speculation table starts empty — attach
    /// classifier output with [`SearchReport::with_speculation`].
    pub fn from_data(data: &TraceData) -> SearchReport {
        let mut report = SearchReport {
            wall_ns: data.wall_ns.max(1),
            counts: data.counts(),
            dropped: data.total_dropped(),
            ..SearchReport::default()
        };
        let mut depth_sum = 0u64;
        for (index, row) in &data.workers {
            let mut w = WorkerReport {
                index: *index,
                events: row.events.len() as u64,
                dropped: row.dropped,
                ..WorkerReport::default()
            };
            for ev in &row.events {
                report.tally(ev, &mut w, &mut depth_sum);
            }
            let wall = report.wall_ns as f64;
            w.busy_fraction = w.busy_ns as f64 / wall;
            w.park_fraction = w.park_ns as f64 / wall;
            w.lock_wait_fraction = w.lock_wait_ns as f64 / wall;
            report.workers.push(w);
        }
        if report.queue_depth.samples > 0 {
            report.queue_depth.mean = depth_sum as f64 / report.queue_depth.samples as f64;
        }
        report
    }

    fn tally(&mut self, ev: &TraceEvent, w: &mut WorkerReport, depth_sum: &mut u64) {
        match ev.kind {
            EventKind::JobExecute => {
                w.jobs += 1;
                w.busy_ns += ev.dur_ns;
            }
            EventKind::LockWait => {
                w.lock_wait_ns += ev.dur_ns;
                self.lock_wait.record(ev.dur_ns);
            }
            EventKind::LockHold => {
                w.lock_hold_ns += ev.dur_ns;
                self.lock_hold.record(ev.dur_ns);
            }
            EventKind::Park => w.park_ns += ev.dur_ns,
            EventKind::StealAttempt => w.steal_attempts += 1,
            EventKind::StealHit => w.steal_hits += 1,
            EventKind::QueueDepth => {
                self.queue_depth.samples += 1;
                self.queue_depth.max = self.queue_depth.max.max(ev.arg);
                *depth_sum += ev.arg as u64;
            }
            _ => {}
        }
    }

    /// Attaches per-processor-count speculation accounting.
    pub fn with_speculation(mut self, spec: Vec<SpecSplit>) -> SearchReport {
        self.speculation = spec;
        self
    }

    /// Events recorded for `kind`.
    pub fn count_of(&self, kind: EventKind) -> u64 {
        self.counts[kind as usize]
    }

    /// Mean busy fraction across workers (0.0 with no workers).
    pub fn mean_busy_fraction(&self) -> f64 {
        if self.workers.is_empty() {
            return 0.0;
        }
        self.workers.iter().map(|w| w.busy_fraction).sum::<f64>() / self.workers.len() as f64
    }

    /// Mean park fraction across workers (0.0 with no workers).
    pub fn mean_park_fraction(&self) -> f64 {
        if self.workers.is_empty() {
            return 0.0;
        }
        self.workers.iter().map(|w| w.park_fraction).sum::<f64>() / self.workers.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::RowData;

    fn ev(kind: EventKind, ts: u64, dur: u64, arg: u32) -> TraceEvent {
        TraceEvent {
            kind,
            ts_ns: ts,
            dur_ns: dur,
            arg,
        }
    }

    #[test]
    fn report_aggregates_synthetic_rows() {
        let data = TraceData {
            workers: vec![(
                0,
                RowData {
                    events: vec![
                        ev(EventKind::LockWait, 0, 100, 0),
                        ev(EventKind::LockHold, 100, 50, 4),
                        ev(EventKind::QueueDepth, 150, 0, 6),
                        ev(EventKind::JobExecute, 150, 700, 2),
                        ev(EventKind::StealAttempt, 850, 0, 1),
                        ev(EventKind::StealHit, 850, 0, 1),
                        ev(EventKind::Park, 860, 140, 0),
                        ev(EventKind::Unpark, 1000, 0, 0),
                    ],
                    dropped: 3,
                },
            )],
            driver: RowData {
                events: vec![ev(EventKind::IdDepthStart, 0, 0, 1)],
                dropped: 0,
            },
            wall_ns: 1000,
        };
        let r = SearchReport::from_data(&data);
        assert_eq!(r.workers.len(), 1);
        let w = &r.workers[0];
        assert_eq!(w.jobs, 1);
        assert_eq!(w.busy_ns, 700);
        assert!((w.busy_fraction - 0.7).abs() < 1e-12);
        assert!((w.park_fraction - 0.14).abs() < 1e-12);
        assert_eq!(w.steal_attempts, 1);
        assert_eq!(w.steal_hits, 1);
        assert_eq!(r.dropped, 3);
        assert_eq!(r.count_of(EventKind::IdDepthStart), 1);
        assert_eq!(r.lock_wait.count, 1);
        assert_eq!(r.lock_hold.count, 1);
        assert_eq!((r.lock_wait.sum, r.lock_hold.max), (100, 50));
        assert_eq!(r.queue_depth.samples, 1);
        assert_eq!(r.queue_depth.max, 6);
        assert!((r.queue_depth.mean - 6.0).abs() < 1e-12);
        assert!((r.mean_busy_fraction() - 0.7).abs() < 1e-12);
        assert!((r.mean_park_fraction() - 0.14).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_finite() {
        let data = TraceData {
            workers: vec![],
            driver: RowData::default(),
            wall_ns: 0,
        };
        let r = SearchReport::from_data(&data);
        assert_eq!(r.mean_busy_fraction(), 0.0);
        assert_eq!(r.queue_depth.mean, 0.0);
        let r = r.with_speculation(vec![SpecSplit::default()]);
        assert_eq!(r.speculation.len(), 1);
    }
}
