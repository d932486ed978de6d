//! The session scheduler: M sessions multiplexed onto one N-worker search
//! stack with weighted-fair time slicing at depth boundaries.
//!
//! # Slicing model
//!
//! The unit of preemption is one **iterative-deepening depth step** — an
//! aspiration probe plus at most one widened re-search, run to completion
//! by [`IdStepper::step_with`]. The scheduler never aborts a slice to
//! switch sessions: a slice either completes its depth (the session's
//! anytime value advances) or trips on the session's own deadline. This
//! keeps preemption *lossless* — no partially-searched tree is ever
//! thrown away for scheduling reasons — at the cost of slice-granularity
//! latency: a session may wait for the current slice of another session
//! to finish, which early depths keep short (the tree grows geometrically
//! with depth, so early slices are microseconds).
//!
//! # Fairness
//!
//! Stride scheduling over virtual time: each session accrues
//! `vtime += slice_wall_time / weight` and the runnable session with the
//! **least** virtual time runs next, so long-run service share is
//! proportional to weight ([`Priority::weight`]). A session promoted from
//! the admission queue joins at the current minimum virtual time of the
//! active set — it neither starves (its vtime is competitive immediately)
//! nor monopolizes (it has no banked credit from its wait).
//!
//! # Admission
//!
//! At most `max_active` sessions are sliced concurrently; up to
//! `max_queued` more wait in FIFO order; submissions beyond that are shed
//! with [`Busy::QueueFull`] (and per-class caps shed with
//! [`Busy::ClassFull`]). Shedding happens at submission, never after: an
//! admitted session always produces a [`SessionResult`].
//!
//! # Degradation
//!
//! A session's deadline is armed at **submission** (queue wait counts),
//! and every slice runs under a fresh [`SearchControl`] capped at that
//! deadline — fresh per slice because trips are sticky
//! ([`SearchControl::is_tripped`]). When the deadline passes — mid-slice or while queued —
//! the session finishes with the deepest *completed* value, down to the
//! root's static evaluation if depth 1 never fit. Over-deadline sessions
//! degrade; they never error.
//!
//! # Sharing
//!
//! All sessions share one XOR-validated [`TranspositionTable`] (the
//! generation is bumped per slice, so each depth step ages prior work —
//! including other sessions' — exactly as the solo deepening drivers age
//! their own prior depths) and one [`OrderingTables`] (aged once per
//! active-set round rather than per session-depth, approximating the solo
//! cadence under interleaving). Both are value-neutral by construction —
//! equal-depth-only TT cutoffs, ordering/aspiration affect visit order
//! only — so multiplexing is **transparent**: every session's final value
//! is bit-identical to a solo fixed-depth search of its position at its
//! completed depth. `tests/transparency.rs` asserts exactly that.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use er_parallel::{
    run_er_threads_with, AbortReason, ErParallelConfig, Hooks, IdStepper, SearchControl,
};
use gametree::{GamePosition, SearchStats, Value, Window};
use metrics::{EngineMetrics, MetricsAccess};
use search_serial::OrderingTables;
use trace::{TraceAccess, TraceData, Tracer};
use tt::{TranspositionTable, TtStats, Zobrist};

use crate::session::{
    Busy, Priority, Response, SchedulerConfig, SessionId, SessionRequest, SessionResult,
};

/// Counters describing one scheduler's lifetime, for load reports.
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedulerStats {
    /// Submissions offered (admitted + shed).
    pub submitted: u64,
    /// Submissions admitted past admission control.
    pub admitted: u64,
    /// Sessions finished (every admitted session eventually finishes).
    pub finished: u64,
    /// Submissions shed with [`Busy::QueueFull`].
    pub shed_queue_full: u64,
    /// Submissions shed with [`Busy::ClassFull`].
    pub shed_class_cap: u64,
    /// Depth slices dispatched across all sessions.
    pub slices: u64,
}

impl SchedulerStats {
    /// All shed submissions.
    pub fn shed(&self) -> u64 {
        self.shed_queue_full + self.shed_class_cap
    }
}

/// An admitted session waiting in the FIFO queue.
struct Pending<P: GamePosition> {
    id: SessionId,
    req: SessionRequest<P>,
    submitted: Instant,
    deadline: Option<Instant>,
}

/// A session in the active set, holding its re-entrant deepening state.
struct Active<P: GamePosition> {
    id: SessionId,
    pos: P,
    max_depth: u32,
    priority: Priority,
    cfg: ErParallelConfig,
    ordering: bool,
    deadline: Option<Instant>,
    stepper: IdStepper,
    tracer: Option<Tracer>,
    submitted: Instant,
    first_slice: Option<Instant>,
    slices: u32,
    /// Accrued virtual time in weight-scaled nanoseconds.
    vtime: u64,
}

/// The multiplexer: admits sessions, slices the active set fairly, and
/// collects finished results. Single-threaded control loop — the
/// parallelism is *inside* each slice (the N-worker threaded search), so
/// the scheduler itself needs no locks.
pub struct SessionScheduler<P: GamePosition + Zobrist> {
    cfg: SchedulerConfig,
    table: TranspositionTable,
    ord: OrderingTables,
    queue: VecDeque<Pending<P>>,
    active: Vec<Active<P>>,
    finished: Vec<SessionResult>,
    traces: Vec<(u32, TraceData)>,
    class_admitted: [usize; 3],
    slices_since_age: usize,
    next_id: u32,
    stats: SchedulerStats,
    /// Live metric set, when attached ([`Self::attach_metrics`]); `None`
    /// keeps every recording branch cold and the scheduler identical to
    /// the unmetered build.
    metrics: Option<Arc<EngineMetrics>>,
    /// Shared-table counter readings already folded into the metric
    /// counters, so successive syncs add only the delta.
    tt_seen: TtStats,
    /// Emit an exposition snapshot every this many slices (0 = never).
    snapshot_every: u64,
    /// Collected periodic exposition pages ([`Self::take_metric_snapshots`]).
    snapshots: Vec<String>,
}

/// Buckets [`TranspositionTable::occupancy_sample`] walks per gauge
/// update: a few microseconds of sampling per slice, far below slice
/// cost, with sampling error a fill-rate gauge can absorb.
const OCCUPANCY_SAMPLE_BUCKETS: usize = 1024;

impl<P: GamePosition + Zobrist> SessionScheduler<P> {
    /// An empty scheduler with a freshly allocated shared table.
    pub fn new(cfg: SchedulerConfig) -> SessionScheduler<P> {
        assert!(cfg.threads > 0, "scheduler needs at least one worker");
        assert!(cfg.max_active > 0, "scheduler needs at least one slot");
        SessionScheduler {
            table: TranspositionTable::with_bits(cfg.tt_bits),
            ord: OrderingTables::new(),
            queue: VecDeque::new(),
            active: Vec::new(),
            finished: Vec::new(),
            traces: Vec::new(),
            class_admitted: [0; 3],
            slices_since_age: 0,
            next_id: 0,
            stats: SchedulerStats::default(),
            metrics: None,
            tt_seen: TtStats::default(),
            snapshot_every: 0,
            snapshots: Vec::new(),
            cfg,
        }
    }

    /// Attaches a live metric set: admission, slicing and the slice
    /// searches themselves record into it from here on. Detached (the
    /// default), every instrumentation branch is cold and the schedule
    /// is identical to the unmetered build.
    pub fn attach_metrics(&mut self, m: Arc<EngineMetrics>) {
        self.metrics = Some(m);
        self.tt_seen = self.table.stats();
    }

    /// The attached metric set, if any.
    pub fn metrics(&self) -> Option<&Arc<EngineMetrics>> {
        self.metrics.as_ref()
    }

    /// Emits a Prometheus exposition snapshot every `slices` slices
    /// (0 disables). Snapshots accumulate until
    /// [`Self::take_metric_snapshots`] drains them — the in-process
    /// analogue of a scraper hitting the page on an interval.
    pub fn snapshot_metrics_every(&mut self, slices: u64) {
        self.snapshot_every = slices;
    }

    /// Drains the periodic exposition snapshots collected so far.
    pub fn take_metric_snapshots(&mut self) -> Vec<String> {
        std::mem::take(&mut self.snapshots)
    }

    /// Publishes the point-in-time gauges (queue depths, active set,
    /// sampled table occupancy) and folds the shared table's counter
    /// deltas into the metric set. Cold path: runs at admission and
    /// slice boundaries, never inside a search.
    fn sync_metrics(&mut self) {
        let Some(m) = &self.metrics else { return };
        let mut depths = [0i64; 3];
        for p in &self.queue {
            depths[p.req.priority.index()] += 1;
        }
        for (g, d) in m.server_queue_depth.iter().zip(depths) {
            g.set(d);
        }
        m.server_active_sessions.set(self.active.len() as i64);
        let now = self.table.stats();
        let delta = now.since(&self.tt_seen);
        self.tt_seen = now;
        m.tt_probes_total.add(0, delta.probes);
        m.tt_hits_total.add(0, delta.hits);
        m.tt_stores_total.add(0, delta.stores);
        m.tt_occupancy
            .set_ratio(self.table.occupancy_sample(OCCUPANCY_SAMPLE_BUCKETS));
    }

    /// Offers a request to admission control. `Ok` means the session will
    /// run and eventually appear in [`Self::run_until_idle`]'s results;
    /// `Err` means it was shed and will not.
    ///
    /// The session's deadline is armed **here**: a budgeted session that
    /// waits in the queue is spending its own budget.
    pub fn submit(&mut self, req: SessionRequest<P>) -> Result<SessionId, Busy> {
        self.stats.submitted += 1;
        if self.active.len() + self.queue.len() >= self.cfg.capacity() {
            self.stats.shed_queue_full += 1;
            if let Some(m) = &self.metrics {
                m.server_shed_queue_full_total.inc(0);
            }
            return Err(Busy::QueueFull);
        }
        let class = req.priority.index();
        if self.class_admitted[class] >= self.cfg.per_class_max[class] {
            self.stats.shed_class_cap += 1;
            if let Some(m) = &self.metrics {
                m.server_shed_class_full_total.inc(0);
            }
            return Err(Busy::ClassFull(req.priority));
        }
        self.class_admitted[class] += 1;
        self.stats.admitted += 1;
        let id = SessionId(self.next_id);
        self.next_id += 1;
        let submitted = Instant::now();
        let deadline = req.budget.map(|b| submitted + b);
        self.queue.push_back(Pending {
            id,
            req,
            submitted,
            deadline,
        });
        if self.metrics.is_some() {
            self.sync_metrics();
        }
        Ok(id)
    }

    /// Sessions currently admitted (active + queued).
    pub fn admitted(&self) -> usize {
        self.active.len() + self.queue.len()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> SchedulerStats {
        self.stats
    }

    /// The shared transposition table (e.g. for a root best-move probe
    /// after a session finishes).
    pub fn table(&self) -> &TranspositionTable {
        &self.table
    }

    /// Takes the per-session trace snapshots collected so far, ready for
    /// [`trace::chrome_json_sessions`]. Empty unless
    /// [`SchedulerConfig::trace`] was set.
    pub fn drain_traces(&mut self) -> Vec<(u32, TraceData)> {
        std::mem::take(&mut self.traces)
    }

    /// Runs slices until every admitted session has finished, then returns
    /// the finished results in completion order (interleaved fairly, so
    /// *not* submission order — match up by [`SessionResult::id`]).
    pub fn run_until_idle(&mut self) -> Vec<SessionResult> {
        loop {
            self.promote();
            let Some(idx) = self.pick() else { break };
            self.slice(idx);
        }
        if self.metrics.is_some() {
            // Final sync so a scrape between batches reads the idle
            // state (zero actives, drained queues) rather than the last
            // mid-run gauge values.
            self.sync_metrics();
        }
        std::mem::take(&mut self.finished)
    }

    /// Fills free active slots from the queue head. A promoted session
    /// joins at the active set's minimum virtual time.
    fn promote(&mut self) {
        while self.active.len() < self.cfg.max_active {
            let Some(p) = self.queue.pop_front() else {
                break;
            };
            let vtime = self.active.iter().map(|s| s.vtime).min().unwrap_or(0);
            let fallback = p.req.pos.evaluate();
            self.active.push(Active {
                id: p.id,
                pos: p.req.pos,
                max_depth: p.req.max_depth,
                priority: p.req.priority,
                cfg: p.req.cfg,
                ordering: p.req.asp.ordering,
                deadline: p.deadline,
                stepper: IdStepper::new(fallback, p.req.asp),
                tracer: self.cfg.trace.then(Tracer::new),
                submitted: p.submitted,
                first_slice: None,
                slices: 0,
                vtime,
            });
        }
    }

    /// Index of the next session to slice: least virtual time, ties to the
    /// lowest id so replays are deterministic.
    fn pick(&self) -> Option<usize> {
        (0..self.active.len()).min_by_key(|&i| (self.active[i].vtime, self.active[i].id))
    }

    /// Runs one depth slice of `active[idx]`, folding the outcome into the
    /// session's stepper and finishing the session when it reached its
    /// depth, its deadline, or another abort.
    fn slice(&mut self, idx: usize) {
        let start = Instant::now();
        let sess = &mut self.active[idx];
        if sess.first_slice.is_none() {
            if let Some(m) = &self.metrics {
                m.server_queue_wait_ns.record(
                    0,
                    start.saturating_duration_since(sess.submitted).as_nanos() as u64,
                );
            }
        }
        sess.first_slice.get_or_insert(start);

        // Degenerate request: nothing to search, the fallback is the answer.
        if sess.stepper.depth_completed() >= sess.max_depth {
            self.finish(idx, start);
            return;
        }

        // A fresh control per slice (trips are sticky), capped at the
        // session's submission-armed deadline.
        let ctl = match sess.deadline {
            Some(d) => SearchControl::with_deadline(d),
            None => SearchControl::unlimited(),
        };

        // Every slice is a new shared-table generation: prior slices' work
        // (this session's and everyone else's) ages but stays probe-able.
        self.table.new_generation();
        // Shared ordering tables age once per active-set round, the
        // interleaved analogue of the solo drivers' once-per-depth cadence.
        self.slices_since_age += 1;
        if self.slices_since_age >= self.active.len() {
            self.ord.age();
            self.slices_since_age = 0;
        }
        self.stats.slices += 1;

        let sess = &mut self.active[idx];
        let depth = sess.stepper.next_depth();
        let ord = sess.ordering.then_some(&self.ord);
        let mx = self.metrics.as_deref();
        let (pos, threads, cfg) = (&sess.pos, self.cfg.threads, &sess.cfg);
        let hooks = Hooks::default().with_tt(&self.table).with_metrics(mx);
        let step = match &sess.tracer {
            Some(t) => sess.stepper.step_with(depth, &ctl, t, |d, w, c| {
                let hooks = hooks.with_ctl(c).with_tracer(t);
                slice_search(pos, d, w, threads, cfg, hooks, ord)
            }),
            None => sess.stepper.step_with(depth, &ctl, (), |d, w, c| {
                slice_search(pos, d, w, threads, cfg, hooks.with_ctl(c), ord)
            }),
        };
        sess.slices += 1;
        let slice_elapsed = start.elapsed();
        sess.vtime = sess.vtime.saturating_add(
            (slice_elapsed.as_nanos() / u128::from(sess.priority.weight()))
                .min(u128::from(u64::MAX)) as u64,
        );
        if let Some(m) = &self.metrics {
            m.server_slice_ns.record(0, slice_elapsed.as_nanos() as u64);
        }

        let done = match step {
            // Depth completed: the session finishes only once it has them
            // all. (The stepper already folded the value in.)
            Ok(_) => sess.stepper.depth_completed() >= sess.max_depth,
            // Deadline/cancel/panic: degrade to the deepest completed
            // value. The stepper recorded the reason.
            Err(_) => true,
        };
        if done {
            self.finish(idx, start);
        }
        if self.metrics.is_some() {
            self.sync_metrics();
            if self.snapshot_every > 0 && self.stats.slices.is_multiple_of(self.snapshot_every) {
                if let Some(m) = &self.metrics {
                    self.snapshots.push(m.expose());
                }
            }
        }
    }

    /// Removes `active[idx]` and records its [`SessionResult`].
    fn finish(&mut self, idx: usize, now: Instant) {
        let sess = self.active.swap_remove(idx);
        self.class_admitted[sess.priority.index()] -= 1;
        self.stats.finished += 1;
        if let Some(t) = &sess.tracer {
            self.traces.push((sess.id.0, t.snapshot()));
        }
        let r = sess.stepper.into_result();
        if let Some(m) = &self.metrics {
            if r.stopped == Some(AbortReason::DeadlineHit) {
                m.server_deadline_degraded_total.inc(0);
            }
        }
        self.finished.push(SessionResult {
            id: sess.id,
            priority: sess.priority,
            value: r.value,
            depth_completed: r.depth_completed,
            max_depth: sess.max_depth,
            nodes: r.total_nodes(),
            slices: sess.slices,
            re_searches: r.re_searches,
            window_hits: r.window_hits,
            stopped: r.stopped,
            latency: now.saturating_duration_since(sess.submitted) + now.elapsed(),
            queue_wait: sess
                .first_slice
                .unwrap_or(now)
                .saturating_duration_since(sess.submitted),
            service: r.elapsed,
            per_depth: r.per_depth,
        });
    }
}

/// One windowed fixed-depth search — the body of every slice, under the
/// slice's table, control, trace and metrics hooks. The optional shared
/// ordering tables are erased here so the caller needs no type-level
/// branching.
pub(crate) fn slice_search<P: GamePosition + Zobrist, R: TraceAccess, M: MetricsAccess>(
    pos: &P,
    depth: u32,
    window: Window,
    threads: usize,
    cfg: &ErParallelConfig,
    hooks: Hooks<&TranspositionTable, &SearchControl, R, (), M>,
    ord: Option<&OrderingTables>,
) -> Result<(Value, SearchStats), AbortReason> {
    match ord {
        Some(o) => run_er_threads_with(pos, depth, window, threads, cfg, hooks.with_ord(o)),
        None => run_er_threads_with(pos, depth, window, threads, cfg, hooks),
    }
    .map(|r| (r.value, r.stats))
    .map_err(|e| e.reason)
}

/// Runs one batch to completion on a fresh scheduler: submits every
/// request (shed ones become [`Response::Shed`]), slices until idle, and
/// returns responses **aligned with the input order**.
pub fn serve_batch<P: GamePosition + Zobrist>(
    requests: Vec<SessionRequest<P>>,
    cfg: SchedulerConfig,
) -> Vec<Response> {
    let mut sched = SessionScheduler::new(cfg);
    serve_batch_on(&mut sched, requests)
}

/// [`serve_batch`] against an existing scheduler, so successive batches
/// share its transposition table and its admission counters. Requests shed
/// by admission control are reported, not retried.
pub fn serve_batch_on<P: GamePosition + Zobrist>(
    sched: &mut SessionScheduler<P>,
    requests: Vec<SessionRequest<P>>,
) -> Vec<Response> {
    let mut slots: Vec<Response> = Vec::with_capacity(requests.len());
    let mut ids: Vec<(SessionId, usize)> = Vec::new();
    for (i, req) in requests.into_iter().enumerate() {
        match sched.submit(req) {
            Ok(id) => {
                ids.push((id, i));
                // Placeholder overwritten below; a session that somehow
                // vanished would be a scheduler bug, not a client error.
                slots.push(Response::Shed(Busy::QueueFull));
            }
            Err(b) => slots.push(Response::Shed(b)),
        }
    }
    for r in sched.run_until_idle() {
        if let Some(&(_, i)) = ids.iter().find(|(id, _)| *id == r.id) {
            slots[i] = Response::Done(r);
        }
    }
    slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn random_req(seed: u64, depth: u32) -> SessionRequest<crate::AnyPos> {
        SessionRequest::new(
            crate::AnyPos::random_root(seed, 4, 6),
            depth,
            ErParallelConfig::random_tree(2),
        )
    }

    #[test]
    fn admission_sheds_past_capacity() {
        let cfg = SchedulerConfig {
            max_active: 1,
            max_queued: 2,
            threads: 1,
            ..SchedulerConfig::default()
        };
        let mut s = SessionScheduler::new(cfg);
        for i in 0..3 {
            assert!(s.submit(random_req(i, 3)).is_ok());
        }
        assert_eq!(s.submit(random_req(9, 3)), Err(Busy::QueueFull));
        assert_eq!(s.submit(random_req(10, 3)), Err(Busy::QueueFull));
        assert_eq!(s.stats().shed_queue_full, 2);
        assert_eq!(s.stats().admitted, 3);
        let results = s.run_until_idle();
        assert_eq!(results.len(), 3, "every admitted session finishes");
        assert!(results.iter().all(|r| r.completed()));
        // Capacity freed: the scheduler admits again after draining.
        assert!(s.submit(random_req(11, 3)).is_ok());
    }

    #[test]
    fn per_class_caps_shed_independently() {
        let cfg = SchedulerConfig {
            max_active: 2,
            max_queued: 8,
            threads: 1,
            per_class_max: [usize::MAX, usize::MAX, 1],
            ..SchedulerConfig::default()
        };
        let mut s = SessionScheduler::new(cfg);
        assert!(s
            .submit(random_req(1, 3).with_priority(Priority::Batch))
            .is_ok());
        assert_eq!(
            s.submit(random_req(2, 3).with_priority(Priority::Batch)),
            Err(Busy::ClassFull(Priority::Batch))
        );
        // Other classes still have room.
        assert!(s
            .submit(random_req(3, 3).with_priority(Priority::Normal))
            .is_ok());
        assert_eq!(s.stats().shed_class_cap, 1);
        assert_eq!(s.run_until_idle().len(), 2);
    }

    #[test]
    fn expired_budget_degrades_to_the_static_fallback() {
        let mut s = SessionScheduler::new(SchedulerConfig {
            threads: 1,
            ..SchedulerConfig::default()
        });
        let pos = crate::AnyPos::random_root(42, 4, 6);
        let expect = gametree::GamePosition::evaluate(&pos);
        let req = SessionRequest::new(pos, 8, ErParallelConfig::random_tree(2))
            .with_budget(Duration::ZERO);
        s.submit(req).unwrap();
        let results = s.run_until_idle();
        assert_eq!(results.len(), 1, "degradation is a result, not an error");
        let r = &results[0];
        assert_eq!(r.stopped, Some(AbortReason::DeadlineHit));
        assert_eq!(r.depth_completed, 0);
        assert_eq!(r.value, expect, "fallback is the root's static value");
    }

    #[test]
    fn batch_responses_align_with_input_order() {
        let cfg = SchedulerConfig {
            max_active: 2,
            max_queued: 1,
            threads: 1,
            ..SchedulerConfig::default()
        };
        // Capacity 3: the 4th request is shed, and responses come back in
        // input slots regardless of completion interleaving.
        let reqs = (0..4).map(|i| random_req(i, 3)).collect();
        let out = serve_batch(reqs, cfg);
        assert_eq!(out.len(), 4);
        assert!(out[..3].iter().all(|r| r.result().is_some()));
        assert!(out[3].is_shed());
        for (i, resp) in out[..3].iter().enumerate() {
            let r = resp.result().unwrap();
            let pos = crate::AnyPos::random_root(i as u64, 4, 6);
            let solo = search_serial::alphabeta(&pos, 3, pos.order_policy());
            assert_eq!(r.value, solo.value, "session {i} must match solo search");
        }
    }

    #[test]
    fn weighted_sessions_all_finish_with_solo_values() {
        // One scheduler, three classes interleaved on one worker; every
        // value must be bit-identical to a solo fixed-depth search.
        let cfg = SchedulerConfig {
            max_active: 3,
            threads: 1,
            trace: true,
            ..SchedulerConfig::default()
        };
        let mut s = SessionScheduler::new(cfg);
        let classes = [Priority::Interactive, Priority::Normal, Priority::Batch];
        for (i, &p) in classes.iter().enumerate() {
            s.submit(random_req(i as u64, 4).with_priority(p)).unwrap();
        }
        let results = s.run_until_idle();
        assert_eq!(results.len(), 3);
        for r in &results {
            assert!(r.completed());
            assert!(r.slices >= r.max_depth, "one slice per depth at least");
            let pos = crate::AnyPos::random_root(r.id.0 as u64, 4, 6);
            let solo = search_serial::alphabeta(&pos, 4, pos.order_policy());
            assert_eq!(r.value, solo.value);
        }
        // Tracing was on: one snapshot per session, lint-clean merged export.
        let traces = s.drain_traces();
        assert_eq!(traces.len(), 3);
        let refs: Vec<(u32, &TraceData)> = traces.iter().map(|(id, d)| (*id, d)).collect();
        trace::lint::check(&trace::chrome_json_sessions(&refs)).expect("valid merged trace");
    }

    #[test]
    fn attached_metrics_record_the_serve_and_stay_transparent() {
        let cfg = SchedulerConfig {
            max_active: 2,
            max_queued: 1,
            threads: 1,
            ..SchedulerConfig::default()
        };
        // Baseline run without metrics: the observed run must return
        // bit-identical values (transparency extends to observability).
        let bare = serve_batch((0..4).map(|i| random_req(i, 3)).collect(), cfg);

        let mut s = SessionScheduler::new(cfg);
        let m = Arc::new(metrics::EngineMetrics::new(1));
        s.attach_metrics(Arc::clone(&m));
        s.snapshot_metrics_every(2);
        let observed = serve_batch_on(&mut s, (0..4).map(|i| random_req(i, 3)).collect());
        for (a, b) in bare.iter().zip(&observed) {
            match (a, b) {
                (Response::Done(x), Response::Done(y)) => assert_eq!(x.value, y.value),
                (Response::Shed(x), Response::Shed(y)) => assert_eq!(x, y),
                _ => panic!("metrics changed an admission outcome"),
            }
        }
        // The serve landed in the registry: searches ran, every admitted
        // session's first slice observed its queue wait, admission shed
        // the 4th request, and the idle scheduler holds no sessions.
        assert!(m.search_nodes_total.value() > 0);
        assert!(m.search_runs_total.value() > 0);
        assert_eq!(m.server_queue_wait_ns.snapshot().count, 3);
        assert!(m.server_slice_ns.snapshot().count >= 3);
        assert_eq!(m.server_shed_queue_full_total.value(), 1);
        assert_eq!(m.server_active_sessions.value(), 0);
        for g in &m.server_queue_depth {
            assert_eq!(g.value(), 0, "drained queues read empty");
        }
        // Periodic snapshots were taken and every page is lint-clean.
        let snaps = s.take_metric_snapshots();
        assert!(!snaps.is_empty(), "slices >= 2 with snapshot_every = 2");
        for page in &snaps {
            metrics::lint::check(page).unwrap_or_else(|e| panic!("lint failed: {e}"));
        }
        assert!(s.take_metric_snapshots().is_empty(), "take drains");
    }

    #[test]
    fn deadline_degradation_is_counted() {
        let mut s = SessionScheduler::new(SchedulerConfig {
            threads: 1,
            ..SchedulerConfig::default()
        });
        let m = Arc::new(metrics::EngineMetrics::new(1));
        s.attach_metrics(Arc::clone(&m));
        let req = random_req(42, 8).with_budget(Duration::ZERO);
        s.submit(req).unwrap();
        let results = s.run_until_idle();
        assert_eq!(results[0].stopped, Some(AbortReason::DeadlineHit));
        assert_eq!(m.server_deadline_degraded_total.value(), 1);
    }
}
