//! Abort-protocol tests for the threaded back-end: injected worker panics,
//! deadlines, cancellation, and the anytime iterative-deepening driver
//! (DESIGN.md §10).
//!
//! The panic tests are the load-bearing ones: before the abort protocol, a
//! panicking worker poisoned the shared mutex and every sibling either
//! panicked on `lock().unwrap()` or parked forever. Now any injected panic
//! — in `moves()` or in the evaluator, at any node, on any thread count —
//! must come back as `Err(SearchAborted)` with every thread joined.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use er_parallel::{
    run_er_threads, run_er_threads_id, run_er_threads_with, AbortReason, AspirationConfig,
    ErParallelConfig, Hooks, SearchControl,
};
use gametree::random::RandomTreeSpec;
use gametree::{GamePosition, Value, Window};
use tt::TranspositionTable;

/// Where the injected panic fires.
#[derive(Clone, Copy, PartialEq)]
enum PanicSite {
    Moves,
    Evaluate,
}

/// Shared fuse: the N-th call to the instrumented method, counted across
/// *all* threads, panics.
struct Fuse {
    site: PanicSite,
    panic_at: u64,
    calls: AtomicU64,
}

impl Fuse {
    fn burn(&self, site: PanicSite) {
        if self.site == site && self.calls.fetch_add(1, Ordering::SeqCst) + 1 == self.panic_at {
            panic!("injected test panic");
        }
    }
}

/// A position wrapper that forwards to `inner` but panics on the fuse's
/// chosen call — simulating an engine bug deep inside a worker.
#[derive(Clone)]
struct PanicPos<P> {
    inner: P,
    fuse: Arc<Fuse>,
}

impl<P: GamePosition> PanicPos<P> {
    fn new(inner: P, site: PanicSite, panic_at: u64) -> PanicPos<P> {
        PanicPos {
            inner,
            fuse: Arc::new(Fuse {
                site,
                panic_at,
                calls: AtomicU64::new(0),
            }),
        }
    }
}

impl<P: GamePosition> GamePosition for PanicPos<P> {
    type Move = P::Move;

    fn moves_into(&self, out: &mut Vec<P::Move>) {
        self.fuse.burn(PanicSite::Moves);
        self.inner.moves_into(out)
    }

    fn play(&self, mv: &P::Move) -> PanicPos<P> {
        PanicPos {
            inner: self.inner.play(mv),
            fuse: self.fuse.clone(),
        }
    }

    fn evaluate(&self) -> Value {
        self.fuse.burn(PanicSite::Evaluate);
        self.inner.evaluate()
    }
}

/// A deep-enough tree that an early fuse always fires long before the root
/// could complete.
fn big_tree() -> RandomTreeSpec {
    RandomTreeSpec::new(11, 4, 9)
}

fn assert_clean_abort(threads: usize, site: PanicSite, serial_depth: u32) {
    let root = PanicPos::new(big_tree().root(), site, 40);
    let cfg = ErParallelConfig::random_tree(serial_depth);
    let err = run_er_threads_with(&root, 9, Window::FULL, threads, &cfg, Hooks::default())
        .expect_err("fused panic must abort the search");
    assert_eq!(err.reason, AbortReason::WorkerPanicked);
    assert_eq!(
        err.counters.len(),
        threads,
        "every thread joined and reported counters"
    );
    let totals = err.total_counters();
    assert!(
        totals.jobs_aborted >= 1,
        "the panicked job counts as aborted"
    );
    // Every executed job was either applied or explicitly discarded;
    // jobs_aborted additionally counts queued jobs drained unexecuted.
    assert!(
        totals.outcomes_applied + totals.jobs_aborted >= totals.jobs_executed,
        "applied {} + aborted {} < executed {}",
        totals.outcomes_applied,
        totals.jobs_aborted,
        totals.jobs_executed
    );
}

#[test]
fn evaluator_panic_aborts_cleanly_on_all_thread_counts() {
    for threads in [2usize, 4, 8] {
        assert_clean_abort(threads, PanicSite::Evaluate, 3);
    }
}

#[test]
fn movegen_panic_aborts_cleanly_on_all_thread_counts() {
    for threads in [2usize, 4, 8] {
        assert_clean_abort(threads, PanicSite::Moves, 3);
    }
}

#[test]
fn panic_with_zero_serial_depth_aborts_cleanly() {
    // serial_depth 0 exercises the Leaf/Movegen task panics (caught by
    // `catch_unwind` in `run_job`) rather than the serial-frontier path.
    assert_clean_abort(4, PanicSite::Evaluate, 0);
    assert_clean_abort(4, PanicSite::Moves, 0);
}

#[test]
fn repeated_panics_never_poison_subsequent_runs() {
    // Ten aborted runs in a row: each must fail cleanly, and an untouched
    // run afterwards must still produce the exact value — nothing leaks
    // across runs (the shared state is per-run, never global).
    let cfg = ErParallelConfig::random_tree(3);
    for i in 0..10 {
        let root = PanicPos::new(big_tree().root(), PanicSite::Evaluate, 20 + i);
        run_er_threads_with(&root, 9, Window::FULL, 4, &cfg, Hooks::default())
            .expect_err("fused run must abort");
    }
    let clean = run_er_threads(&big_tree().root(), 9, 4, &cfg);
    let exact = search_serial::negmax(&big_tree().root(), 9).value;
    assert_eq!(clean.value, exact);
}

#[test]
fn expired_deadline_aborts_promptly() {
    let root = big_tree().root();
    let cfg = ErParallelConfig::random_tree(3);
    let ctl = SearchControl::with_budget(Duration::ZERO);
    let start = Instant::now();
    let err = run_er_threads_with(
        &root,
        9,
        Window::FULL,
        4,
        &cfg,
        Hooks::default().with_ctl(&ctl),
    )
    .expect_err("expired deadline must abort");
    assert_eq!(err.reason, AbortReason::DeadlineHit);
    assert_eq!(err.counters.len(), 4);
    // Generous CI-safe bound: the workers observed the trip and left well
    // inside a second even though the search itself would take far longer.
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "abort took {:?}",
        start.elapsed()
    );
}

#[test]
fn midflight_deadline_aborts_with_partial_counters() {
    // A small but nonzero budget: workers get started, then the clock
    // trips mid-search. The partial work must be accounted for.
    let root = RandomTreeSpec::new(21, 4, 11).root();
    let cfg = ErParallelConfig::random_tree(2);
    let ctl = SearchControl::with_budget(Duration::from_millis(5));
    match run_er_threads_with(
        &root,
        11,
        Window::FULL,
        4,
        &cfg,
        Hooks::default().with_ctl(&ctl),
    ) {
        Err(err) => {
            assert_eq!(err.reason, AbortReason::DeadlineHit);
            assert_eq!(err.counters.len(), 4);
        }
        // On a fast host the search may legitimately finish inside 5ms; a
        // completed root always wins the race with the deadline.
        Ok(r) => {
            let exact = search_serial::negmax(&root, 11).value;
            assert_eq!(r.value, exact);
        }
    }
}

#[test]
fn cancellation_aborts_before_any_work() {
    let root = big_tree().root();
    let cfg = ErParallelConfig::random_tree(3);
    let ctl = SearchControl::unlimited();
    ctl.cancel();
    let err = run_er_threads_with(
        &root,
        9,
        Window::FULL,
        4,
        &cfg,
        Hooks::default().with_ctl(&ctl),
    )
    .expect_err("pre-cancelled control must abort");
    assert_eq!(err.reason, AbortReason::Cancelled);
    let totals = err.total_counters();
    assert_eq!(
        totals.outcomes_applied, 0,
        "no outcome applied after cancel"
    );
}

#[test]
fn id_at_full_budget_matches_fixed_depth_runs() {
    // The anytime driver's acceptance contract: under an ample deadline,
    // deepening to max_depth returns exactly what a direct fixed-depth
    // search returns, with per-depth telemetry for every iteration.
    let root = RandomTreeSpec::new(1, 4, 7).root();
    let cfg = ErParallelConfig::random_tree(3);
    let fixed = run_er_threads(&root, 7, 4, &cfg);
    let id = run_er_threads_id(&root, 7, 4, &cfg, AspirationConfig::OFF, Hooks::default());
    assert_eq!(id.value, fixed.value, "anytime value is bit-identical");
    assert_eq!(id.depth_completed, 7);
    assert!(id.stopped.is_none());
    assert_eq!(id.per_depth.len(), 7);
    for (i, d) in id.per_depth.iter().enumerate() {
        assert_eq!(d.depth, i as u32 + 1);
    }
    assert!(id.total_nodes() >= fixed.stats.nodes());
}

#[test]
fn id_tt_bumps_generation_per_depth_and_matches_fixed_depth() {
    let root = RandomTreeSpec::new(2, 4, 7).root();
    let cfg = ErParallelConfig::random_tree(3);
    let table = TranspositionTable::with_bits(14);
    assert_eq!(table.generation(), 0);
    let id = run_er_threads_id(
        &root,
        7,
        4,
        &cfg,
        AspirationConfig::OFF,
        Hooks::default().with_tt(&table),
    );
    assert_eq!(
        table.generation(),
        7,
        "one generation bump per completed depth"
    );
    assert_eq!(id.depth_completed, 7);
    let fixed = run_er_threads(&root, 7, 4, &cfg);
    assert_eq!(
        id.value, fixed.value,
        "equal-depth-only probe cutoffs keep the TT'd anytime value exact"
    );
}

#[test]
fn id_under_tiny_budget_still_returns_a_usable_value() {
    let root = RandomTreeSpec::new(3, 4, 12).root();
    let cfg = ErParallelConfig::random_tree(2);
    let ctl = SearchControl::with_budget(Duration::from_millis(10));
    let id = run_er_threads_id(
        &root,
        12,
        4,
        &cfg,
        AspirationConfig::OFF,
        Hooks::default().with_ctl(&ctl),
    );
    // Depth 12 at degree 4 cannot finish in 10ms; the driver must stop on
    // the deadline and report the deepest completed depth.
    assert_eq!(id.stopped, Some(AbortReason::DeadlineHit));
    assert!(id.depth_completed < 12);
    if id.depth_completed == 0 {
        assert_eq!(id.value, root.evaluate(), "static fallback");
    } else {
        // The reported value is the last *completed* depth's exact value.
        let check = run_er_threads(&root, id.depth_completed, 4, &cfg);
        assert_eq!(id.value, check.value);
    }
}

#[test]
fn id_with_cancelled_control_stops_immediately() {
    let root = RandomTreeSpec::new(4, 4, 8).root();
    let ctl = SearchControl::unlimited();
    ctl.cancel();
    let id = run_er_threads_id(
        &root,
        8,
        4,
        &ErParallelConfig::random_tree(3),
        AspirationConfig::OFF,
        Hooks::default().with_ctl(&ctl),
    );
    assert_eq!(id.stopped, Some(AbortReason::Cancelled));
    assert_eq!(id.depth_completed, 0);
    assert_eq!(id.value, root.evaluate());
    assert!(id.per_depth.is_empty());
}
