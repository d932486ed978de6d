//! Real-thread back-end for parallel ER: the work-stealing execution layer.
//!
//! The paper's implementation ran one OS process per Sequent processor
//! against a shared problem heap, and its §3.1 analysis warns that heap
//! contention is what erodes efficiency as processors are added. This
//! back-end runs one thread per (virtual) processor against the same
//! [`ErWorker`] state used by the simulator, with the critical sections
//! decomposed into three cooperating parts (DESIGN.md §9):
//!
//! * **A lock-free position arena.** Node positions live in the tree's
//!   [`PublishSlab`], keyed by node id: applying a move list moves each
//!   child position into it once, under the lock, with no clone, no
//!   per-position allocation and no refcount. The pool shares the slab, so
//!   an executor (owner or thief) reads its job's position *after*
//!   dropping the lock, and a job descriptor (`Task`) carries no position.
//! * **Per-worker deques with lock-free stealing.** Each refill lands in
//!   the worker's own bounded Chase–Lev deque ([`ws_deque`]); the owner
//!   pops lock-free, and an idle sibling *steals* from the other end
//!   before ever touching the global mutex. Only tree mutation — `apply`
//!   plus the select bookkeeping — still takes the lock.
//! * **Batch sizing from the thread count.** One worker takes a fixed
//!   [`DEFAULT_BATCH`] jobs per acquisition: with no sibling to contend
//!   with, timing feedback would only make the schedule (and so the node
//!   count) vary run to run. Above one thread each worker grows its refill
//!   batch (up to [`MAX_BATCH`] = `DEFAULT_BATCH * 2`) while lock waits
//!   are expensive relative to execution, and shrinks it (down to 1) when
//!   the queues run dry — small batches keep work fresh against the moving
//!   alpha-beta windows, large ones amortize contention.
//! * **Speculation only on starvation.** A refill tops its batch up from
//!   the primary queue alone; it may promote a speculative e-child only
//!   while its take is still empty ([`ErWorker::select`]'s `speculate`
//!   flag), as the paper's processors turn to the speculative queue only
//!   when they would otherwise idle. A lone worker is never starved while
//!   the search is live, so at one thread early choice and multiple
//!   e-nodes leave the schedule untouched.
//!
//! Each thread runs one `Worker`, whose round is a lock round (apply,
//! refill, park), an execute phase (own jobs, then stolen ones) and a batch
//! adaptation. Finishing, aborting and panicking workers all leave through
//! one stop path that sets the run's one done flag (DESIGN.md §9).
//!
//! Stealing is on whenever there is a sibling to steal from. Idle threads
//! park on a condition variable only after a failed steal sweep; a thread
//! that leaves surplus work behind wakes exactly one parked sibling
//! (`notify_one`), and `notify_all` is reserved for termination. Every
//! acquisition, wait/hold nanosecond, steal attempt, executed job,
//! wake-up and park is counted per thread ([`ThreadCounters`]) and
//! surfaced in [`ErThreadsResult`] so contention is observable, not
//! guessed at. Those counters are the run's one count: a metric set is
//! never handed to the run, and its owner folds them in afterwards with
//! [`record_run`].
//!
//! **Abort protocol** (DESIGN.md §10). Every run carries a
//! [`SearchControl`] token. Workers poll it once per scheduling round
//! (through a per-thread [`CtlProbe`]) and per node inside
//! serial-frontier jobs (the probe rides into `execute_task`); cheap
//! leaf/movegen jobs carry no check of their own — a full round of them
//! runs in microseconds, so the round-top poll bounds the latency without
//! taxing the execute hot loop the adaptive batcher times. Task execution
//! runs under
//! `catch_unwind`, so a panicking evaluator trips the token instead of
//! unwinding through the pool, and the worker loop runs under a second one
//! that catches anything escaping it. A worker that observes a trip — its
//! own or a sibling's — discards its buffered outcomes (counted as
//! `jobs_aborted`; a partial result must never reach the shared tree or
//! table), takes the stop path under a poison-tolerant lock, and returns
//! its counters (a worker that panicked contributes default ones). The
//! coordinator joins every thread and returns `Err(`[`SearchAborted`]`)` —
//! no hang, no poisoned-mutex cascade.
//!
//! On a multi-core host this achieves real speedup; on any host it
//! produces the same root value as every serial algorithm (the test suite
//! checks this). A one-thread run is reproducible to the node; above one
//! thread node counts may vary run-to-run with thread scheduling — exactly
//! the nondeterminism the deterministic simulator exists to remove.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use gametree::{GamePosition, SearchStats, Value, Window};
use metrics::EngineMetrics;
use problem_heap::{ws_deque, PublishSlab, ThreadCounters, WsOwner, WsStealer};
use trace::{EventKind, TraceAccess, Traced, WorkerTrace};
use tt::{TtAccess, TtStats};

use search_serial::control::CtlHook;
use search_serial::er::ErConfig;
use search_serial::ordering::OrdAccess;
use search_serial::Hooks;

use super::engine::{execute_task, lifted_serial_depth, ErWorker, Frontier, Outcome, Select, Task};
use super::ErParallelConfig;
use crate::control::{AbortReason, CtlProbe, SearchAborted, SearchControl};
use crate::tree::NodeId;

/// Default jobs per lock acquisition. Small enough that the work a thread
/// hoards stays fresh against the moving alpha-beta windows, large enough
/// to amortize the acquisition; see DESIGN.md §7.
pub const DEFAULT_BATCH: usize = 8;

/// Ceiling of the adaptive batch range, and the most outcomes a thread
/// buffers before flushing them to the tree.
pub const MAX_BATCH: usize = DEFAULT_BATCH * 2;

/// Per-worker deque capacity: must exceed [`MAX_BATCH`] (a refill only
/// happens into an empty deque, so `push` can never fail).
const DEQUE_CAP: usize = MAX_BATCH * 2;

/// The threaded back-end's execution settings, of which there are none:
/// the batch rule and stealing follow from the thread count alone.
///
/// The type survives only because the benchmark's adapter calls
/// [`run_er_threads_exec`] with `ThreadsConfig::default()`; once that
/// caller moves to [`run_er_threads_with`], both can go.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThreadsConfig;

/// Result of a threaded parallel ER run.
#[derive(Clone, Debug)]
pub struct ErThreadsResult {
    /// The root value.
    pub value: Value,
    /// Aggregate nodes examined across all threads.
    pub stats: SearchStats,
    /// Leaves settled from memoized static values (no evaluator call).
    pub cached_leaf_hits: u64,
    /// Wall-clock duration of the search.
    pub elapsed: std::time::Duration,
    /// Contention counters, one entry per thread.
    pub per_thread: Vec<ThreadCounters>,
    /// Transposition-table activity attributable to this run (the delta of
    /// the shared table's counters over the run) whenever a table was
    /// attached; `None` for table-free runs.
    pub tt: Option<TtStats>,
}

impl ErThreadsResult {
    /// All threads' counters merged.
    pub fn counters(&self) -> ThreadCounters {
        self.per_thread.iter().sum()
    }
}

/// Folds one threaded run into a metric set (DESIGN.md §16), once, after
/// the run returned. A completed run adds its nodes, jobs, steals and
/// wall-clock time and counts one run; every run, completed or aborted,
/// adds each worker's lock waits to that worker's histogram shard.
pub fn record_run(m: &EngineMetrics, run: &Result<ErThreadsResult, SearchAborted>) {
    let per_thread = match run {
        Ok(r) => {
            let total = r.counters();
            m.search_nodes_total.add(0, r.stats.nodes());
            m.search_jobs_total.add(0, total.jobs_executed);
            m.steal_attempts_total.add(0, total.steal_attempts);
            m.steal_hits_total.add(0, total.steal_hits);
            m.search_elapsed_ns_total
                .add(0, r.elapsed.as_nanos() as u64);
            m.search_runs_total.inc(0);
            &r.per_thread
        }
        Err(e) => &e.counters,
    };
    for (worker, c) in per_thread.iter().enumerate() {
        m.lock_wait_ns.merge(worker, &c.lock_waits);
    }
}

/// Folds a transposition table's counter delta over some span of searches
/// (probes, hits, stores) into a metric set.
pub fn record_tt(m: &EngineMetrics, delta: &TtStats) {
    m.tt_probes_total.add(0, delta.probes);
    m.tt_hits_total.add(0, delta.hits);
    m.tt_stores_total.add(0, delta.stores);
}

/// Shared state guarded by the heap mutex: the scheduler core plus the
/// parked-thread count the targeted wake-up policy needs.
struct Shared<P: GamePosition> {
    worker: ErWorker<P>,
    /// Threads currently waiting on the idle condvar. Maintained under the
    /// lock, so "is anyone parked?" is exact, not heuristic.
    parked: usize,
}

/// A job descriptor as it travels through deques: node id plus task, both
/// `Copy` (positions travel through the arena, not the deque).
type JobRef = (NodeId, Task);

/// What the workers of one run share: the problem heap, where idle workers
/// park, the tree's position slab, the deques' stealing ends, and the hooks
/// with the run's control.
struct Pool<'a, P: GamePosition, T, R, O> {
    heap: Mutex<Shared<P>>,
    idle: Condvar,
    /// The run's one done flag: the root is exact or the run is aborting.
    /// Read lock-free between jobs, so a worker holding a long deque
    /// abandons it promptly, and under the heap lock by the park loop. No
    /// wake-up is lost because every setter holds the heap lock at some
    /// point after its store and before its `notify_all`: a worker that
    /// read the flag clear under the lock is already waiting on `idle`
    /// when the broadcast comes.
    done: AtomicBool,
    /// The tree's position slab: published under the lock when a move list
    /// is applied, read lock-free by owners and thieves alike.
    positions: Arc<PublishSlab<P>>,
    stealers: Vec<WsStealer<JobRef>>,
    scfg: ErConfig,
    hooks: Hooks<T, &'a SearchControl, R, O>,
}

impl<P: GamePosition, T, R, O> Pool<'_, P, T, R, O> {
    /// Poison-tolerant lock on the heap. Job panics are caught outside the
    /// lock, so a poisoned mutex can only come from a bug in the locked
    /// bookkeeping itself; even then, recovering the guard and running the
    /// abort protocol beats cascading the panic through every sibling.
    fn lock(&self) -> MutexGuard<'_, Shared<P>> {
        self.heap.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn is_done(&self) -> bool {
        self.done.load(SeqCst)
    }

    /// Siblings to steal from and to contend with: only then does the batch
    /// adapt, so a one-thread run is reproducible to the node.
    fn contended(&self) -> bool {
        self.stealers.len() > 1
    }

    /// The one stop path, for a finished run, an aborting worker and a
    /// panicked one alike: mark the run done, take the heap lock (the
    /// lost-wakeup condition on [`Pool::done`]) and wake every parked
    /// worker. Termination is the one broadcast.
    fn stop(&self) {
        self.done.store(true, SeqCst);
        drop(self.lock());
        self.idle.notify_all();
    }
}

/// One worker thread: its deque, its recorders and the state it keeps
/// across rounds. Each round is one lock round (apply, refill, park), one
/// execute phase (own jobs, then stolen ones) and one batch adaptation.
struct Worker<'a, P: GamePosition, T, R: TraceAccess, O> {
    pool: &'a Pool<'a, P, T, R, O>,
    me: usize,
    own: WsOwner<JobRef>,
    probe: CtlProbe<'a>,
    /// Per-worker recorder: `()` when tracing is off, so every recording
    /// call compiles away and the loop is byte-identical to the untraced
    /// build.
    wtr: R::Worker,
    counters: ThreadCounters,
    /// Executed-but-unapplied outcomes, flushed at the next acquisition.
    ready: Vec<(NodeId, Outcome<P>)>,
    /// Refill staging buffer, reused every round (`pop_batch_into` style:
    /// no per-round allocation).
    take: Vec<JobRef>,
    /// Current refill-batch target.
    batch_target: usize,
    /// One free pass to skip parking and try a steal sweep instead. Granted
    /// after productive rounds and wake-ups, consumed by the skip — so a
    /// worker that keeps failing to steal parks on its next empty round
    /// instead of spinning on the lock.
    steal_pass: bool,
    /// Consecutive rounds that met the shrink condition (scarce refill on a
    /// cheap lock). Shrinking waits for two in a row: a single short refill
    /// is usually a transient (a sibling just drained the queues), and
    /// halving the batch on it doubles acquisitions for no sharing gain —
    /// idle siblings already steal from the owner's deque.
    scarce_streak: u32,
}

impl<'a, P, T, R, O> Worker<'a, P, T, R, O>
where
    P: GamePosition,
    T: TtAccess<P>,
    R: TraceAccess,
    O: OrdAccess,
{
    fn new(pool: &'a Pool<'a, P, T, R, O>, me: usize, own: WsOwner<JobRef>) -> Self {
        Worker {
            pool,
            me,
            own,
            probe: CtlProbe::new(pool.hooks.ctl),
            wtr: pool.hooks.tracer.worker(me),
            counters: ThreadCounters::default(),
            ready: Vec::with_capacity(MAX_BATCH),
            take: Vec::with_capacity(DEQUE_CAP),
            batch_target: DEFAULT_BATCH,
            steal_pass: pool.contended(),
            scarce_streak: 0,
        }
    }

    /// Runs rounds until the run is done or aborting, then stops the pool
    /// and returns this worker's counters.
    fn run(mut self) -> ThreadCounters {
        // Poll the token before flushing outcomes: once it trips, nothing
        // more may be applied to the tree.
        while self.probe.check().is_none() {
            let Some((waited, refilled)) = self.lock_round() else {
                return self.finish();
            };
            let Some((executed, execd)) = self.execute() else {
                break;
            };
            self.adapt(waited, refilled, executed, execd);
        }
        // Abort protocol: discard everything local — a partial run's
        // outcomes must not touch the tree — counting it as aborted.
        let reason = self.pool.hooks.ctl.reason().map_or(0, |r| r as u32);
        self.wtr.instant_now(EventKind::AbortTrip, reason);
        self.counters.jobs_aborted += self.ready.len() as u64;
        self.ready.clear();
        while self.own.pop().is_some() {
            self.counters.jobs_aborted += 1;
        }
        self.finish()
    }

    fn finish(self) -> ThreadCounters {
        self.pool.stop();
        self.pool.hooks.tracer.submit(self.wtr);
        self.counters
    }

    /// The locked phase: apply the buffered outcomes, refill the take, and
    /// park while the queues are dry. Returns the lock wait and the refill
    /// size, or `None` once the run is done (unexecuted deque jobs are
    /// simply abandoned; they were never counted as executed).
    fn lock_round(&mut self) -> Option<(u64, usize)> {
        let pool = self.pool;
        let waiting = Instant::now();
        let mut g = pool.lock();
        let waited = waiting.elapsed().as_nanos() as u64;
        // The hold clock runs only while the lock is held: a park releases
        // it, so each park closes one hold segment and the wake opens the
        // next.
        let mut holding = Instant::now();
        let mut held = 0u64;
        self.counters.lock_acquisitions += 1;
        self.counters.lock_wait_nanos += waited;
        self.wtr.span_at(EventKind::LockWait, waiting, waited, 0);
        let published = g.worker.positions_published();
        for (id, outcome) in self.ready.drain(..) {
            self.counters.outcomes_applied += 1;
            if g.worker.apply(id, outcome) {
                pool.done.store(true, SeqCst);
            }
        }
        self.counters.arena_publishes += (g.worker.positions_published() - published) as u64;
        while !pool.is_done() {
            self.counters.select_batches += 1;
            self.refill(&mut g.worker);
            if !self.take.is_empty() || pool.is_done() {
                break;
            }
            // Global queues are dry. Spend the steal pass — leave the lock
            // and sweep sibling deques — before committing to a park.
            let stealers = &pool.stealers;
            let mut siblings = (0..stealers.len()).filter(|&j| j != self.me);
            if self.steal_pass && siblings.any(|j| !stealers[j].is_empty()) {
                self.steal_pass = false;
                break;
            }
            held += self.hold_segment(holding, 0);
            g = self.park(g);
            holding = Instant::now();
        }
        let done = pool.is_done();
        if !done {
            // Targeted hand-off: if work remains after this refill and
            // someone is parked, wake exactly one sibling; it chain-wakes
            // the next if work remains.
            if g.parked > 0 && g.worker.work_available() {
                self.counters.wakeups += 1;
                pool.idle.notify_one();
            }
            // Sampled once per refill, under the lock (queue lengths are
            // guarded state); a no-op when tracing is off.
            let depth = g.worker.queue_len() as u32;
            self.wtr.instant(EventKind::QueueDepth, depth);
        }
        let refilled = self.take.len();
        let arg = if done { 0 } else { refilled as u32 };
        self.counters.lock_hold_nanos += held + self.hold_segment(holding, arg);
        drop(g);
        // The distribution is recorded outside the critical section, once
        // per acquisition.
        self.counters.lock_waits.record(waited);
        (!done).then_some((waited, refilled))
    }

    /// Ends a stretch of holding the lock that began at `from`: traces it
    /// as one `LockHold` span and returns its length.
    fn hold_segment(&self, from: Instant, arg: u32) -> u64 {
        let hold = from.elapsed().as_nanos() as u64;
        self.wtr.span_at(EventKind::LockHold, from, hold, arg);
        hold
    }

    /// Tops the take up to the batch target. Speculates only on
    /// starvation: once the take holds a job, an empty primary queue ends
    /// the refill instead of promoting a speculative e-child.
    fn refill(&mut self, heap: &mut ErWorker<P>) {
        while self.take.len() < self.batch_target {
            match heap.select(self.take.is_empty()) {
                Select::Job(job) => self.take.push((job.id, job.task)),
                Select::JustFinished => {
                    self.pool.done.store(true, SeqCst);
                    break;
                }
                Select::Empty => break,
            }
        }
    }

    /// Waits on the idle condvar until work appears or the run is done.
    fn park<'g>(&mut self, mut g: MutexGuard<'g, Shared<P>>) -> MutexGuard<'g, Shared<P>> {
        let pool = self.pool;
        self.counters.idle_parks += 1;
        g.parked += 1;
        let park_start = self.wtr.now_ns();
        while !pool.is_done() && !g.worker.work_available() {
            // A poisoned wait still hands the guard back; an aborting
            // sibling has set `done`, which the loop condition re-checks.
            g = pool.idle.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
        g.parked -= 1;
        let parked_ns = self.wtr.now_ns().saturating_sub(park_start);
        self.wtr.span(EventKind::Park, park_start, parked_ns, 0);
        self.wtr.instant(EventKind::Unpark, 0);
        self.steal_pass = pool.contended();
        g
    }

    /// The execute phase, entirely outside the lock: the take first, then
    /// stolen jobs until the outcome buffer justifies an acquisition.
    /// Returns the jobs executed and the nanoseconds spent, or `None` when
    /// a job produced no applicable outcome.
    fn execute(&mut self) -> Option<(u64, u64)> {
        // Reverse push so the owner pops in scheduler priority order while
        // thieves take the oldest (lowest-priority) jobs from the far end.
        for jr in self.take.drain(..).rev() {
            self.own.push(jr).expect("deque capacity exceeds max batch");
        }
        let executing = Instant::now();
        let mut executed = 0u64;
        while let Some(job) = self.next_job() {
            if !self.run_job(job) {
                return None;
            }
            executed += 1;
            if self.pool.is_done() {
                break;
            }
        }
        Some((executed, executing.elapsed().as_nanos() as u64))
    }

    /// The next job to execute: the owner's own, else (with siblings, a
    /// live run and room in the outcome buffer) one stolen lock-free.
    fn next_job(&mut self) -> Option<JobRef> {
        if let Some(jr) = self.own.pop() {
            return Some(jr);
        }
        if !self.pool.contended() || self.pool.is_done() || self.ready.len() >= MAX_BATCH {
            return None;
        }
        let threads = self.pool.stealers.len();
        for off in 1..threads {
            let j = (self.me + off) % threads;
            self.counters.steal_attempts += 1;
            self.wtr.instant(EventKind::StealAttempt, j as u32);
            if let Some(jr) = self.pool.stealers[j].steal() {
                self.counters.steal_hits += 1;
                self.wtr.instant(EventKind::StealHit, j as u32);
                return Some(jr);
            }
        }
        None
    }

    /// Executes one job lock-free: the position (when the task reads one)
    /// is borrowed from the slab — published when the node's parent's move
    /// list was applied — and the outcome is buffered for the next
    /// acquisition.
    ///
    /// Returns `false` when the job produced no applicable outcome: the
    /// control tripped inside a serial-frontier batch, or the task panicked
    /// — the panic is caught here and converted into a `WorkerPanicked`
    /// trip, so an evaluator bug aborts the run instead of poisoning the
    /// heap mutex.
    fn run_job(&mut self, (id, task): JobRef) -> bool {
        self.counters.jobs_executed += 1;
        let pool = self.pool;
        let pos: Option<&P> = task.needs_pos().then(|| {
            pool.positions
                .get(id as usize)
                .expect("a node's position is published when its id is reserved")
        });
        let hooks = pool
            .hooks
            .with_tt(Traced::new(pool.hooks.tt, &self.wtr))
            .with_ctl(&self.probe)
            .with_tracer(());
        let job_start = self.wtr.now_ns();
        let job = || execute_task(&task, pos, pool.scfg, hooks);
        let outcome = match catch_unwind(AssertUnwindSafe(job)) {
            Ok(outcome) => {
                let job_ns = self.wtr.now_ns().saturating_sub(job_start);
                let arg = task_arg(&task);
                self.wtr.span(EventKind::JobExecute, job_start, job_ns, arg);
                outcome
            }
            Err(_) => {
                pool.hooks.ctl.trip(AbortReason::WorkerPanicked);
                Outcome::Aborted
            }
        };
        if matches!(outcome, Outcome::Aborted) {
            self.counters.jobs_aborted += 1;
            return false;
        }
        self.ready.push((id, outcome));
        true
    }

    /// Adapts the batch target for the next round (above one thread only).
    fn adapt(&mut self, waited: u64, refilled: usize, executed: u64, execd: u64) {
        let contended = self.pool.contended();
        if contended && executed > 0 {
            if waited * 4 >= execd && self.batch_target < MAX_BATCH {
                // Lock waits cost >= 25% of execution: amortize harder.
                self.batch_target = (self.batch_target * 2).min(MAX_BATCH);
                self.counters.batch_grows += 1;
                self.scarce_streak = 0;
            } else if refilled * 2 < self.batch_target
                && waited * 16 < execd
                && self.batch_target > 1
            {
                // Queues are scarce and the lock is cheap: smaller batches
                // keep windows fresh. Demand the signal twice in a row
                // before paying for it (see `scarce_streak`).
                self.scarce_streak += 1;
                if self.scarce_streak >= 2 {
                    self.batch_target /= 2;
                    self.counters.batch_shrinks += 1;
                    self.scarce_streak = 0;
                }
            } else {
                self.scarce_streak = 0;
            }
        }
        if executed > 0 {
            self.steal_pass = contended;
        }
    }
}

/// Runs parallel ER with `threads` OS threads. Without an external
/// control the run can only abort if a worker panicked, which panics here.
pub fn run_er_threads<P: GamePosition>(
    pos: &P,
    depth: u32,
    threads: usize,
    cfg: &ErParallelConfig,
) -> ErThreadsResult {
    run_er_threads_with(pos, depth, Window::FULL, threads, cfg, Hooks::default())
        .unwrap_or_else(|e| panic!("threaded search aborted without a deadline: {e}"))
}

/// [`run_er_threads`] returning `Err(SearchAborted)` instead of panicking
/// when a worker panicked. The [`ThreadsConfig`] argument is ignored; see
/// its doc comment. Attach a deadline or cancellation token through
/// [`run_er_threads_with`].
pub fn run_er_threads_exec<P: GamePosition>(
    pos: &P,
    depth: u32,
    threads: usize,
    cfg: &ErParallelConfig,
    _exec: ThreadsConfig,
) -> Result<ErThreadsResult, SearchAborted> {
    run_er_threads_with(pos, depth, Window::FULL, threads, cfg, Hooks::default())
}

/// Maps a task to its trace-argument index (see [`trace::job_label`]).
fn task_arg(task: &Task) -> u32 {
    match task {
        Task::Leaf => 0,
        Task::CachedLeaf(_) => 1,
        Task::Movegen { .. } => 2,
        Task::NextChild => 3,
        Task::ExpandRest => 4,
        Task::Serial { .. } => 5,
    }
}

/// The threaded back-end under `window` with any [`Hooks`]:
///
/// * `tt` — a table every worker probes and stores through, lock-free, so
///   one worker's refutation is every other worker's ordering hint (or
///   outright answer); [`ErThreadsResult::tt`] then reports the run's
///   table activity;
/// * `ctl` — a [`SearchControl`]: the run stops early (with
///   `Err(SearchAborted)`) when its deadline passes, it is cancelled from
///   another thread, or a worker panics. Without one the run polls a local
///   unlimited token, which only a worker panic can trip;
/// * `tracer` — a [`Tracer`](trace::Tracer): every worker records its
///   activity (job spans, lock waits/holds, steals, parks, queue depths,
///   table probes and stores, abort trips) into a private bounded ring,
///   submitted when the thread joins;
/// * `ord` — shared killer/history tables ranking non-e-node children and
///   the serial frontier.
///
/// The root value is bit-identical with every hook on or off. With a
/// narrowed `window` the result is exact only if it falls strictly inside
/// it; outside it is a fail-hard bound in the failing direction, which the
/// aspiration driver detects and re-searches.
pub fn run_er_threads_with<P, T, C, R, O>(
    pos: &P,
    depth: u32,
    window: Window,
    threads: usize,
    cfg: &ErParallelConfig,
    hooks: Hooks<T, C, R, O>,
) -> Result<ErThreadsResult, SearchAborted>
where
    P: GamePosition,
    T: TtAccess<P> + Send + Sync,
    C: CtlHook,
    R: TraceAccess,
    O: OrdAccess + Send + Sync,
{
    let local = SearchControl::unlimited();
    let ctl = hooks.ctl.control().unwrap_or(&local);
    let tt_before = hooks.tt.stats();
    assert!(threads > 0);
    let (owners, stealers): (Vec<_>, Vec<_>) =
        (0..threads).map(|_| ws_deque::<JobRef>(DEQUE_CAP)).unzip();
    // Alpha-beta solves the serial frontier, lifted by the grain rule.
    let cfg = ErParallelConfig {
        serial_depth: lifted_serial_depth(pos, depth, cfg.serial_depth),
        ..*cfg
    };
    let worker = ErWorker::new(pos.clone(), depth, window, cfg, Frontier::AlphaBeta);
    let pool = Pool {
        scfg: worker.serial_cfg(),
        positions: worker.positions(),
        heap: Mutex::new(Shared { worker, parked: 0 }),
        idle: Condvar::new(),
        done: AtomicBool::new(false),
        stealers,
        hooks: hooks.with_ctl(ctl),
    };
    let start = Instant::now();

    let per_thread: Vec<ThreadCounters> = std::thread::scope(|scope| {
        let pool = &pool;
        let handles: Vec<_> = owners
            .into_iter()
            .enumerate()
            .map(|(me, own)| {
                scope.spawn(move || {
                    // A panic that escapes a job's own catch (out of the
                    // locked bookkeeping, say) ends this worker: trip the
                    // token and stop the pool, so parked siblings wake and
                    // exit instead of waiting on a search that can no
                    // longer finish. The worker contributes default
                    // counters.
                    catch_unwind(AssertUnwindSafe(|| Worker::new(pool, me, own).run()))
                        .unwrap_or_else(|_| {
                            ctl.trip(AbortReason::WorkerPanicked);
                            pool.stop();
                            ThreadCounters::default()
                        })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panics are caught in the worker"))
            .collect()
    });

    let elapsed = start.elapsed();
    let g = pool.lock();
    // A run that completed its root wins any race with a late trip: the
    // value is exact, so report it.
    if let Some(value) = g.worker.root_value {
        return Ok(ErThreadsResult {
            value,
            stats: g.worker.totals,
            cached_leaf_hits: g.worker.cached_leaf_hits,
            elapsed,
            per_thread,
            tt: pool
                .hooks
                .tt
                .stats()
                .zip(tt_before)
                .map(|(now, b)| now.since(&b)),
        });
    }
    Err(SearchAborted {
        reason: ctl.reason().unwrap_or(AbortReason::WorkerPanicked),
        counters: per_thread,
        elapsed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gametree::random::RandomTreeSpec;
    use gametree::tictactoe::TicTacToe;
    use search_serial::negmax;

    #[test]
    fn matches_negmax_single_thread() {
        let root = RandomTreeSpec::new(21, 4, 6).root();
        let r = run_er_threads(&root, 6, 1, &ErParallelConfig::random_tree(3));
        assert_eq!(r.value, negmax(&root, 6).value);
    }

    #[test]
    fn matches_negmax_many_threads() {
        for seed in 0..4 {
            let root = RandomTreeSpec::new(seed, 4, 6).root();
            let exact = negmax(&root, 6).value;
            for threads in [2usize, 4, 8] {
                let r = run_er_threads(&root, 6, threads, &ErParallelConfig::random_tree(3));
                assert_eq!(r.value, exact, "seed {seed} threads {threads}");
            }
        }
    }

    #[test]
    fn matches_negmax_at_one_and_four_threads() {
        for seed in [8, 14] {
            let root = RandomTreeSpec::new(seed, 4, 7).root();
            let exact = negmax(&root, 7).value;
            for threads in [1usize, 4] {
                let r = run_er_threads(&root, 7, threads, &ErParallelConfig::random_tree(3));
                assert_eq!(r.value, exact, "seed {seed} threads {threads}");
            }
        }
    }

    #[test]
    fn tictactoe_threaded_draw() {
        let r = run_er_threads(
            &TicTacToe::initial(),
            9,
            4,
            &ErParallelConfig::random_tree(5),
        );
        assert_eq!(r.value, Value::ZERO);
    }

    #[test]
    fn repeated_runs_agree_on_value() {
        // Node counts may differ run to run; the value never may.
        let root = RandomTreeSpec::new(33, 4, 7).root();
        let exact = negmax(&root, 7).value;
        for _ in 0..5 {
            let r = run_er_threads(&root, 7, 4, &ErParallelConfig::random_tree(3));
            assert_eq!(r.value, exact);
        }
    }

    #[test]
    fn counters_are_populated_and_consistent() {
        let root = RandomTreeSpec::new(5, 4, 7).root();
        let r = run_er_threads(&root, 7, 4, &ErParallelConfig::random_tree(3));
        assert_eq!(r.per_thread.len(), 4);
        let total = r.counters();
        assert!(total.lock_acquisitions > 0);
        assert!(total.jobs_executed > 0);
        // Every executed job's outcome is applied exactly once.
        assert_eq!(total.jobs_executed, total.outcomes_applied);
        // The lock-wait distribution holds one sample per acquisition.
        assert_eq!(total.lock_waits.count, total.lock_acquisitions);
        assert_eq!(total.lock_waits.sum, total.lock_wait_nanos);
        // Batching must beat two-acquisitions-per-job (the seed design)
        // by construction: apply and select share an acquisition.
        assert!(
            total.lock_acquisitions < 2 * total.jobs_executed + total.idle_parks,
            "fused acquisitions must undercut the per-phase locking bound"
        );
    }

    #[test]
    fn positions_reach_executors_through_the_arena() {
        // Each generated child's position is moved into the slab once, when
        // its parent's move list is applied: a job descriptor carries no
        // position, so none is cloned in the critical section.
        let root = RandomTreeSpec::new(9, 4, 8).root();
        for threads in [1usize, 4, 8] {
            let r = run_er_threads(&root, 8, threads, &ErParallelConfig::random_tree(3));
            assert!(r.counters().arena_publishes > 0, "threads {threads}");
        }
    }

    #[test]
    fn lock_timing_counters_are_populated() {
        let root = RandomTreeSpec::new(26, 4, 8).root();
        let r = run_er_threads(&root, 8, 4, &ErParallelConfig::random_tree(3));
        let c = r.counters();
        // Hold time is measured on every acquisition; it cannot be zero on
        // a run that applied thousands of outcomes.
        assert!(c.lock_hold_nanos > 0);
        assert!(c.mean_lock_wait_nanos() >= 0.0);
    }

    #[test]
    fn lock_hold_excludes_parked_time() {
        // The heap mutex admits one holder at a time, so the threads' hold
        // times are disjoint stretches of the run: their sum cannot exceed
        // the wall time. A high serial depth leaves few, long jobs, and
        // most of 8 workers park on the condvar, which releases the lock.
        let mut parks = 0;
        for seed in 0..4 {
            let root = RandomTreeSpec::new(seed, 4, 9).root();
            let r = run_er_threads(&root, 9, 8, &ErParallelConfig::random_tree(7));
            let c = r.counters();
            parks += c.idle_parks;
            assert!(
                c.lock_hold_nanos <= r.elapsed.as_nanos() as u64,
                "seed {seed}: summed hold {} ns exceeds wall {} ns",
                c.lock_hold_nanos,
                r.elapsed.as_nanos()
            );
        }
        assert!(parks > 0, "the runs must park to test anything");
    }

    #[test]
    fn adaptive_batching_adjusts_and_stays_correct() {
        let root = RandomTreeSpec::new(18, 4, 8).root();
        let exact = negmax(&root, 8).value;
        let r = run_er_threads(&root, 8, 4, &ErParallelConfig::random_tree(3));
        assert_eq!(r.value, exact);
        let c = r.counters();
        // The adaptive controller ran (its counters merged), whichever
        // direction this host's timings pushed it.
        assert_eq!(c.jobs_executed, c.outcomes_applied);
    }
}
