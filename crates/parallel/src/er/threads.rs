//! Real-thread back-end for parallel ER: the work-stealing execution layer.
//!
//! The paper's implementation ran one OS process per Sequent processor
//! against a shared problem heap, and its §3.1 analysis warns that heap
//! contention is what erodes efficiency as processors are added. This
//! back-end runs one thread per (virtual) processor against the same
//! [`ErWorker`] state used by the simulator, with the critical sections
//! decomposed into three cooperating parts (DESIGN.md §9):
//!
//! * **A lock-free position arena.** Node positions live in the tree as
//!   `Arc<P>`; when the scheduler selects a job that reads its position it
//!   *publishes* the handle into a [`PublishSlab`] — a refcount bump, not
//!   a deep clone — and the executor dereferences it *after* dropping the
//!   lock. No position byte is ever copied while the heap mutex is held
//!   ([`ThreadCounters::pos_clones_in_lock`] stays zero by construction
//!   and is asserted in the tests and the `repro scaling` experiment).
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
//! unwinding through the pool, and a drop sentinel catches anything that
//! escapes anyway. A worker that observes a trip — its own or a sibling's
//! — discards its buffered outcomes (counted as `jobs_aborted`; a partial
//! result must never reach the shared tree or table), marks the run done
//! under a poison-tolerant lock, broadcasts the idle condvar so parked
//! siblings wake, and returns its counters. The coordinator joins every
//! thread (a panicked join contributes default counters) and returns
//! `Err(`[`SearchAborted`]`)` — no hang, no poisoned-mutex cascade.
//!
//! On a multi-core host this achieves real speedup; on any host it
//! produces the same root value as every serial algorithm (the test suite
//! checks this). A one-thread run is reproducible to the node; above one
//! thread node counts may vary run-to-run with thread scheduling — exactly
//! the nondeterminism the deterministic simulator exists to remove.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use gametree::{GamePosition, SearchStats, Value, Window};
use metrics::EngineMetrics;
use problem_heap::{ws_deque, PublishSlab, ThreadCounters, WsStealer};
use trace::{EventKind, TraceAccess, Traced, WorkerTrace};
use tt::{TtAccess, TtStats};

use search_serial::control::CtlHook;
use search_serial::er::ErConfig;
use search_serial::ordering::OrdAccess;
use search_serial::Hooks;

use super::engine::{execute_task, ErWorker, Outcome, Select, Task};
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
        let mut total = ThreadCounters::default();
        for c in &self.per_thread {
            total.merge(c);
        }
        total
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

/// Shared state guarded by the heap mutex: the scheduler core plus the
/// parked-thread count the targeted wake-up policy needs.
struct Shared<P: GamePosition> {
    worker: ErWorker<P>,
    /// Threads currently waiting on the idle condvar. Maintained under the
    /// lock, so "is anyone parked?" is exact, not heuristic.
    parked: usize,
    done: bool,
}

/// A job descriptor as it travels through deques: node id plus task, both
/// `Copy` (positions travel through the arena, not the deque).
type JobRef = (NodeId, Task);

/// Unwraps a run launched without an external control: such a run can only
/// abort if a worker panicked, which the caller cannot recover from here.
fn expect_complete(r: Result<ErThreadsResult, SearchAborted>) -> ErThreadsResult {
    r.unwrap_or_else(|e| panic!("threaded search aborted without a deadline: {e}"))
}

/// Runs parallel ER with `threads` OS threads.
pub fn run_er_threads<P: GamePosition>(
    pos: &P,
    depth: u32,
    threads: usize,
    cfg: &ErParallelConfig,
) -> ErThreadsResult {
    expect_complete(run_er_threads_with(
        pos,
        depth,
        Window::FULL,
        threads,
        cfg,
        Hooks::default(),
    ))
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

/// State one worker thread keeps across rounds.
struct WorkerCtx<P: GamePosition> {
    counters: ThreadCounters,
    /// Executed-but-unapplied outcomes, flushed at the next acquisition.
    ready: Vec<(NodeId, Outcome<P>)>,
    /// Refill staging buffer, reused every round (`pop_batch_into` style:
    /// no per-round allocation).
    refill: Vec<JobRef>,
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

/// Poison-tolerant lock on the shared heap state. Worker panics are caught
/// around `execute_task` (outside the lock), so a poisoned mutex can only
/// come from a bug in the locked bookkeeping itself; even then, recovering
/// the guard and running the abort protocol beats cascading the panic
/// through every sibling and the coordinator.
fn lock_shared<P: GamePosition>(m: &Mutex<Shared<P>>) -> MutexGuard<'_, Shared<P>> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Last line of panic defense: a drop sentinel armed for the whole worker
/// loop. If a panic escapes the `catch_unwind` in [`run_job`] (e.g. out of
/// the locked `apply`/`select` bookkeeping), unwinding runs this guard,
/// which trips the token, marks the run done under a poison-tolerant lock,
/// and broadcasts the idle condvar — so parked siblings wake and exit
/// instead of waiting forever on a search that can no longer finish.
struct PanicSentinel<'a, P: GamePosition> {
    ctl: &'a SearchControl,
    shared: &'a Mutex<Shared<P>>,
    idle: &'a Condvar,
    done_flag: &'a AtomicBool,
}

impl<P: GamePosition> Drop for PanicSentinel<'_, P> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.ctl.trip(AbortReason::WorkerPanicked);
            self.done_flag.store(true, SeqCst);
            let mut g = lock_shared(self.shared);
            g.done = true;
            drop(g);
            self.idle.notify_all();
        }
    }
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
    let (tt, tr, ord) = (hooks.tt, hooks.tracer, hooks.ord);
    let tt_before = tt.stats();
    assert!(threads > 0);
    // Siblings to steal from and to contend with: only then does the batch
    // adapt, so a one-thread run is reproducible to the node.
    let contended = threads > 1;

    let shared = Mutex::new(Shared {
        worker: ErWorker::new_windowed(pos.clone(), depth, window, *cfg),
        parked: 0,
        done: false,
    });
    let idle = Condvar::new();
    // Lock-free mirror of `Shared::done`, checked between jobs so a worker
    // holding a long deque abandons it promptly at termination.
    let done_flag = AtomicBool::new(false);
    // The position arena: published under the lock (refcount bumps), read
    // lock-free by owners and thieves alike.
    let arena: PublishSlab<std::sync::Arc<P>> = PublishSlab::new();
    let scfg = ErConfig {
        order: cfg.order,
        sel: cfg.sel,
    };
    let start = Instant::now();

    let mut owners = Vec::with_capacity(threads);
    let mut stealers = Vec::with_capacity(threads);
    for _ in 0..threads {
        let (o, s) = ws_deque::<JobRef>(DEQUE_CAP);
        owners.push(o);
        stealers.push(s);
    }

    let per_thread: Vec<ThreadCounters> = std::thread::scope(|scope| {
        let shared = &shared;
        let idle = &idle;
        let done_flag = &done_flag;
        let arena = &arena;
        let stealers: &[WsStealer<JobRef>] = &stealers;
        let handles: Vec<_> = owners
            .into_iter()
            .enumerate()
            .map(|(me, mut own)| {
                scope.spawn(move || {
                    let _sentinel = PanicSentinel {
                        ctl,
                        shared,
                        idle,
                        done_flag,
                    };
                    let probe = CtlProbe::new(ctl);
                    // Per-worker recorder: `()` when tracing is off, so
                    // every recording call below compiles away and the
                    // loop is byte-identical to the untraced build.
                    let wtr = tr.worker(me);
                    let job_hooks = Hooks::default()
                        .with_tt(Traced::new(tt, &wtr))
                        .with_ctl(&probe)
                        .with_ord(ord);
                    let mut cx = WorkerCtx::<P> {
                        counters: ThreadCounters::default(),
                        ready: Vec::with_capacity(MAX_BATCH),
                        refill: Vec::with_capacity(DEQUE_CAP),
                        batch_target: DEFAULT_BATCH,
                        steal_pass: contended,
                        scarce_streak: 0,
                    };
                    let aborting = 'rounds: loop {
                        // Poll the token before flushing outcomes: once it
                        // trips, nothing more may be applied to the tree.
                        if probe.check().is_some() {
                            break 'rounds true;
                        }
                        // ---- Locked phase: apply outcomes, refill, park.
                        let waiting = Instant::now();
                        let mut g = lock_shared(shared);
                        let waited = waiting.elapsed().as_nanos() as u64;
                        let holding = Instant::now();
                        cx.counters.lock_acquisitions += 1;
                        cx.counters.lock_wait_nanos += waited;
                        wtr.span_at(EventKind::LockWait, waiting, waited, 0);
                        for (id, outcome) in cx.ready.drain(..) {
                            cx.counters.outcomes_applied += 1;
                            if g.worker.apply(id, outcome) {
                                g.done = true;
                                done_flag.store(true, SeqCst);
                            }
                        }
                        loop {
                            if g.done {
                                break;
                            }
                            cx.counters.select_batches += 1;
                            while cx.refill.len() < cx.batch_target {
                                // Speculate only on starvation: once the
                                // take holds a job, an empty primary queue
                                // ends the refill instead of promoting a
                                // speculative e-child.
                                match g.worker.select(cx.refill.is_empty()) {
                                    Select::Job(job) => {
                                        if job.task.needs_pos()
                                            && arena.publish(
                                                job.id as usize,
                                                g.worker.node_pos_shared(job.id),
                                            )
                                        {
                                            cx.counters.arena_publishes += 1;
                                        }
                                        cx.refill.push((job.id, job.task));
                                    }
                                    Select::JustFinished => {
                                        g.done = true;
                                        done_flag.store(true, SeqCst);
                                        break;
                                    }
                                    Select::Empty => break,
                                }
                            }
                            if !cx.refill.is_empty() || g.done {
                                break;
                            }
                            // Global queues are dry. Spend the steal pass —
                            // leave the lock and sweep sibling deques —
                            // before committing to a park.
                            if cx.steal_pass
                                && stealers
                                    .iter()
                                    .enumerate()
                                    .any(|(j, s)| j != me && !s.is_empty())
                            {
                                cx.steal_pass = false;
                                break;
                            }
                            cx.counters.idle_parks += 1;
                            g.parked += 1;
                            let park_start = wtr.now_ns();
                            while !g.done && !g.worker.work_available() {
                                // A poisoned wait still hands the guard
                                // back; an aborting sibling has set `done`,
                                // which the loop condition re-checks.
                                g = idle.wait(g).unwrap_or_else(PoisonError::into_inner);
                            }
                            g.parked -= 1;
                            wtr.span(
                                EventKind::Park,
                                park_start,
                                wtr.now_ns().saturating_sub(park_start),
                                0,
                            );
                            wtr.instant(EventKind::Unpark, 0);
                            cx.steal_pass = contended;
                        }
                        if g.done {
                            // Termination is the one broadcast: every
                            // parked thread must observe `done`. Unexecuted
                            // deque jobs are simply abandoned (they were
                            // never counted as executed).
                            idle.notify_all();
                            let hold = holding.elapsed().as_nanos() as u64;
                            cx.counters.lock_hold_nanos += hold;
                            wtr.span_at(EventKind::LockHold, holding, hold, 0);
                            drop(g);
                            cx.counters.lock_waits.record(waited);
                            break 'rounds false;
                        }
                        // Targeted hand-off: if work remains after this
                        // refill and someone is parked, wake exactly one
                        // sibling; it chain-wakes the next if work remains.
                        if g.parked > 0 && g.worker.work_available() {
                            cx.counters.wakeups += 1;
                            idle.notify_one();
                        }
                        let refilled = cx.refill.len();
                        if R::ENABLED {
                            // Sampled once per refill, still under the lock
                            // (queue lengths are guarded state); recording
                            // itself stays in the private ring.
                            wtr.instant(EventKind::QueueDepth, g.worker.queue_len() as u32);
                        }
                        let hold = holding.elapsed().as_nanos() as u64;
                        cx.counters.lock_hold_nanos += hold;
                        wtr.span_at(EventKind::LockHold, holding, hold, refilled as u32);
                        drop(g);
                        // The distribution is recorded outside the
                        // critical section, once per acquisition.
                        cx.counters.lock_waits.record(waited);

                        // ---- Execute phase, entirely outside the lock.
                        // Reverse push so the owner pops in scheduler
                        // priority order while thieves take the oldest
                        // (lowest-priority) jobs from the far end.
                        for jr in cx.refill.drain(..).rev() {
                            own.push(jr).expect("deque capacity exceeds max batch");
                        }
                        let executing = Instant::now();
                        let mut executed_this_round = 0u64;
                        while let Some((id, task)) = own.pop() {
                            // A `false` return means the job produced no
                            // applicable outcome: the control tripped
                            // mid-job or the task panicked (already caught
                            // and converted into a trip).
                            if !run_job(&mut cx, arena, id, &task, scfg, job_hooks, &wtr) {
                                break 'rounds true;
                            }
                            executed_this_round += 1;
                            if done_flag.load(SeqCst) {
                                break;
                            }
                        }

                        // ---- Steal phase: drain siblings lock-free until
                        // the outcome buffer justifies an acquisition.
                        if contended && !done_flag.load(SeqCst) {
                            while cx.ready.len() < MAX_BATCH {
                                let mut stolen = None;
                                for off in 1..threads {
                                    let j = (me + off) % threads;
                                    cx.counters.steal_attempts += 1;
                                    wtr.instant(EventKind::StealAttempt, j as u32);
                                    if let Some(jr) = stealers[j].steal() {
                                        cx.counters.steal_hits += 1;
                                        wtr.instant(EventKind::StealHit, j as u32);
                                        stolen = Some(jr);
                                        break;
                                    }
                                }
                                let Some((id, task)) = stolen else { break };
                                if !run_job(&mut cx, arena, id, &task, scfg, job_hooks, &wtr) {
                                    break 'rounds true;
                                }
                                executed_this_round += 1;
                                if done_flag.load(SeqCst) {
                                    break;
                                }
                            }
                        }
                        let execd = executing.elapsed().as_nanos() as u64;

                        // ---- Adapt the batch target for the next round.
                        if contended && executed_this_round > 0 {
                            if waited * 4 >= execd && cx.batch_target < MAX_BATCH {
                                // Lock waits cost >= 25% of execution:
                                // amortize harder.
                                cx.batch_target = (cx.batch_target * 2).min(MAX_BATCH);
                                cx.counters.batch_grows += 1;
                                cx.scarce_streak = 0;
                            } else if refilled * 2 < cx.batch_target
                                && waited * 16 < execd
                                && cx.batch_target > 1
                            {
                                // Queues are scarce and the lock is cheap:
                                // smaller batches keep windows fresh. Demand
                                // the signal twice in a row before paying
                                // for it (see `scarce_streak`).
                                cx.scarce_streak += 1;
                                if cx.scarce_streak >= 2 {
                                    cx.batch_target /= 2;
                                    cx.counters.batch_shrinks += 1;
                                    cx.scarce_streak = 0;
                                }
                            } else {
                                cx.scarce_streak = 0;
                            }
                        }
                        if executed_this_round > 0 {
                            cx.steal_pass = contended;
                        }
                    };
                    if aborting {
                        // Abort protocol: discard everything local (a
                        // partial run's outcomes must not touch the tree),
                        // mark the run done under a poison-tolerant lock,
                        // and wake every parked sibling.
                        wtr.instant_now(
                            EventKind::AbortTrip,
                            ctl.reason().map(|r| r as u32).unwrap_or(0),
                        );
                        cx.counters.jobs_aborted += cx.ready.len() as u64;
                        cx.ready.clear();
                        while own.pop().is_some() {
                            cx.counters.jobs_aborted += 1;
                        }
                        done_flag.store(true, SeqCst);
                        let mut g = lock_shared(shared);
                        g.done = true;
                        drop(g);
                        idle.notify_all();
                    }
                    tr.submit(wtr);
                    cx.counters
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                // A worker that died panicking already tripped the token
                // (sentinel guard); tolerate the join error and keep the
                // remaining counters.
                h.join().unwrap_or_else(|_| {
                    ctl.trip(AbortReason::WorkerPanicked);
                    ThreadCounters::default()
                })
            })
            .collect()
    });

    let elapsed = start.elapsed();
    let g = lock_shared(&shared);
    // A run that completed its root wins any race with a late trip: the
    // value is exact, so report it.
    if let Some(value) = g.worker.root_value {
        return Ok(ErThreadsResult {
            value,
            stats: g.worker.totals,
            cached_leaf_hits: g.worker.cached_leaf_hits,
            elapsed,
            per_thread,
            tt: tt.stats().zip(tt_before).map(|(now, b)| now.since(&b)),
        });
    }
    Err(SearchAborted {
        reason: ctl.reason().unwrap_or(AbortReason::WorkerPanicked),
        counters: per_thread,
        elapsed,
    })
}

/// Executes one job lock-free: the position (when the task reads one) is
/// dereferenced out of the arena — published earlier by whichever scheduler
/// round selected the job — and the outcome is buffered for the worker's
/// next acquisition.
///
/// Returns `false` when the job produced no applicable outcome: the
/// control tripped inside a serial-frontier batch, or the task panicked —
/// the panic is caught here and converted into a `WorkerPanicked` trip, so
/// an evaluator bug aborts the run instead of poisoning the heap mutex.
fn run_job<P: GamePosition, T: TtAccess<P>, W: WorkerTrace, O: OrdAccess>(
    cx: &mut WorkerCtx<P>,
    arena: &PublishSlab<std::sync::Arc<P>>,
    id: NodeId,
    task: &Task,
    scfg: ErConfig,
    hooks: Hooks<T, &CtlProbe<'_>, (), O>,
    wtr: &W,
) -> bool {
    cx.counters.jobs_executed += 1;
    let pos: Option<&P> = task.needs_pos().then(|| {
        &**arena
            .get(id as usize)
            .expect("position published before the job was queued")
    });
    let job_start = wtr.now_ns();
    let outcome = match catch_unwind(AssertUnwindSafe(|| execute_task(task, pos, scfg, hooks))) {
        Ok(outcome) => outcome,
        Err(_) => {
            hooks.ctl.control().trip(AbortReason::WorkerPanicked);
            cx.counters.jobs_aborted += 1;
            return false;
        }
    };
    wtr.span(
        EventKind::JobExecute,
        job_start,
        wtr.now_ns().saturating_sub(job_start),
        task_arg(task),
    );
    if matches!(outcome, Outcome::Aborted) {
        cx.counters.jobs_aborted += 1;
        return false;
    }
    cx.ready.push((id, outcome));
    true
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
    fn no_position_clone_under_the_lock() {
        // The acceptance invariant of the execution layer: positions reach
        // executors through the arena (refcount bumps under the lock,
        // published once per node), never by deep-cloning in the critical
        // section.
        let root = RandomTreeSpec::new(9, 4, 8).root();
        for threads in [1usize, 4, 8] {
            let r = run_er_threads(&root, 8, threads, &ErParallelConfig::random_tree(3));
            let c = r.counters();
            assert_eq!(c.pos_clones_in_lock, 0, "threads {threads}");
            assert!(c.arena_publishes > 0, "threads {threads}");
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
