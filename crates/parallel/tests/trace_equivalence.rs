//! Tracing must be observation only: a threaded search with the tracer
//! hook on returns bit-identical results to the same search with it off
//! (DESIGN.md §11).
//!
//! Root *values* are compared at every thread count — they are
//! scheduling-independent. Examined-node *counts* are compared only where
//! the back-end itself is deterministic: one worker, which has no sibling
//! to steal from (multi-thread node counts vary run to run with OS
//! scheduling, traced or not). The workspace hook matrix
//! (`tests/hook_matrix.rs`) repeats these checks for every hooked entry;
//! the bounded-ring overwrite tests live in `trace::ring`.

use er_parallel::{
    run_er_threads, run_er_threads_id, run_er_threads_with, AspirationConfig, ErParallelConfig,
    Hooks,
};
use gametree::random::RandomTreeSpec;
use gametree::Window;
use proptest::prelude::*;
use search_serial::{negmax, OrderPolicy};
use trace::{EventKind, Tracer};

const THREAD_MATRIX: [usize; 4] = [1, 2, 4, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn traced_values_match_untraced_on_random_trees(
        seed in any::<u64>(),
        threads_idx in 0usize..THREAD_MATRIX.len(),
    ) {
        let threads = THREAD_MATRIX[threads_idx];
        let root = RandomTreeSpec::new(seed, 3, 5).root();
        let cfg = ErParallelConfig::random_tree(2);
        let tracer = Tracer::new();
        let traced = run_er_threads_with(&root, 5, Window::FULL, threads, &cfg, Hooks::default().with_tracer(&tracer)).expect("unlimited traced run cannot abort");
        let plain = run_er_threads(&root, 5, threads, &cfg);
        prop_assert_eq!(traced.value, plain.value);
        prop_assert_eq!(traced.value, negmax(&root, 5).value);
        let data = tracer.snapshot();
        prop_assert_eq!(data.workers.len(), threads);
        prop_assert!(data.counts()[EventKind::JobExecute as usize] > 0);
    }
}

#[test]
fn single_thread_fixed_batch_stats_are_bit_identical() {
    // One worker takes a fixed batch and has no sibling to steal from:
    // the back-end itself is deterministic, so the equivalence sharpens
    // from root values to the full stats — examined nodes, evaluator
    // calls, everything.
    for seed in [0u64, 7, 23] {
        let root = RandomTreeSpec::new(seed, 4, 7).root();
        let cfg = ErParallelConfig::random_tree(3);
        let tracer = Tracer::new();
        let traced = run_er_threads_with(
            &root,
            7,
            Window::FULL,
            1,
            &cfg,
            Hooks::default().with_tracer(&tracer),
        )
        .expect("unlimited traced run cannot abort");
        let plain = run_er_threads(&root, 7, 1, &cfg);
        assert_eq!(traced.value, plain.value, "seed {seed}");
        assert_eq!(traced.stats, plain.stats, "seed {seed}: node counts");
        assert_eq!(
            traced.cached_leaf_hits, plain.cached_leaf_hits,
            "seed {seed}"
        );
    }
}

#[test]
fn traced_tt_matches_untraced_on_othello() {
    // A real transposing game with sorted move generation, each run on its
    // own fresh table; the traced handle must also record the traffic.
    let (_, root) = othello::configs::all().remove(0);
    let cfg = ErParallelConfig::new(0, OrderPolicy::OTHELLO);
    let exact = negmax(&root, 4).value;
    for threads in [1usize, 4] {
        let traced_table = tt::TranspositionTable::with_bits(14);
        let plain_table = tt::TranspositionTable::with_bits(14);
        let tracer = Tracer::new();
        let traced = run_er_threads_with(
            &root,
            4,
            Window::FULL,
            threads,
            &cfg,
            Hooks::default().with_tt(&traced_table).with_tracer(&tracer),
        )
        .expect("unlimited traced run cannot abort");
        let plain = run_er_threads_with(
            &root,
            4,
            Window::FULL,
            threads,
            &cfg,
            Hooks::default().with_tt(&plain_table),
        )
        .expect("unlimited untraced run cannot abort");
        assert_eq!(traced.value, exact, "threads {threads}");
        assert_eq!(plain.value, exact, "threads {threads}");
        let tt_stats = traced.tt.expect("tt run reports table stats");
        let counts = tracer.snapshot().counts();
        assert!(
            counts[EventKind::TtProbe as usize] > 0,
            "threads {threads}: probes recorded"
        );
        assert!(
            counts[EventKind::TtProbe as usize] <= tt_stats.probes,
            "threads {threads}: rings retain at most what the table counted"
        );
    }
}

#[test]
fn traced_values_match_untraced_on_checkers() {
    // Forced-capture move generation with a nonzero serial frontier.
    let root = checkers::c1();
    let cfg = ErParallelConfig::new(3, OrderPolicy::OTHELLO);
    let exact = negmax(&root, 5).value;
    for threads in THREAD_MATRIX {
        let tracer = Tracer::new();
        let traced = run_er_threads_with(
            &root,
            5,
            Window::FULL,
            threads,
            &cfg,
            Hooks::default().with_tracer(&tracer),
        )
        .expect("unlimited traced run cannot abort");
        assert_eq!(traced.value, exact, "threads {threads}");
    }
}

#[test]
fn traced_deepening_matches_untraced_and_marks_depths() {
    let root = RandomTreeSpec::new(5, 4, 6).root();
    let cfg = ErParallelConfig::random_tree(3);
    let tracer = Tracer::new();
    let traced = run_er_threads_id(
        &root,
        6,
        4,
        &cfg,
        AspirationConfig::OFF,
        Hooks::default().with_tracer(&tracer),
    );
    let plain = run_er_threads_id(&root, 6, 4, &cfg, AspirationConfig::OFF, Hooks::default());
    assert_eq!(traced.value, plain.value);
    assert_eq!(traced.depth_completed, plain.depth_completed);
    assert!(traced.stopped.is_none());
    let data = tracer.snapshot();
    // The driver row brackets every completed depth.
    let c = data.counts();
    assert_eq!(c[EventKind::IdDepthStart as usize], 6);
    assert_eq!(c[EventKind::IdDepthFinish as usize], 6);
    assert!(data.driver.events.len() >= 12);
}

#[test]
fn a_table_free_run_traces_no_table_events_and_every_job() {
    // Without a table nothing is probed or stored, so the trace holds no
    // table events; a ring with room for the run's real events then keeps
    // one job span per executed job.
    let root = RandomTreeSpec::new(7, 4, 10).root();
    let tracer = Tracer::with_capacity(1 << 16);
    let run = run_er_threads_with(
        &root,
        10,
        Window::FULL,
        1,
        &ErParallelConfig::random_tree(4),
        Hooks::default().with_tracer(&tracer),
    )
    .expect("unlimited traced run cannot abort");
    let data = tracer.snapshot();
    let c = data.counts();
    assert_eq!(c[EventKind::TtProbe as usize], 0, "phantom probes");
    assert_eq!(c[EventKind::TtStore as usize], 0, "phantom stores");
    assert_eq!(data.total_dropped(), 0);
    assert_eq!(
        c[EventKind::JobExecute as usize],
        run.counters().jobs_executed
    );
}
