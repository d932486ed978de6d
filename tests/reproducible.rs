//! One thread is reproducible to the node (DESIGN.md §9): with no sibling
//! to contend with, the threaded back-end takes a fixed batch per lock
//! acquisition, so every run of a tree follows the same schedule —
//! speculative selection included — with or without a table.
//!
//! One thread also never speculates: a refill may promote a speculative
//! e-child only while its take is still empty, and a lone worker whose
//! primary queue is empty has nothing in flight, so the search is over.
//! Early choice and multiple e-nodes therefore change nothing at one
//! thread — not the value, the node counts, nor how the lock was used.
//!
//! Agreement between runs of one build says nothing about a change to the
//! schedule itself, so the one-thread fingerprints are also pinned to
//! golden constants: a refactor of the worker loop must leave them exact.
//! With a table the node count also depends on which bounds the serial
//! frontier stores.

use er_bench::experiments::REFUTATION_ONLY;
use er_bench::trees::{checkers_tree, othello_trees, random_trees, TreeSpec};
use er_search::prelude::*;
use problem_heap::CostModel;
use search_serial::SelectivityConfig;
use tt::Zobrist;

const RUNS: usize = 5;

/// Everything a run's schedule decides: the work counters and how the
/// lock was used.
type Fingerprint = (Value, SearchStats, u64, u64, u64);

fn one_thread_run<P: GamePosition + Zobrist>(
    tree: &TreeSpec<P>,
    spec: Speculation,
    table: Option<&TranspositionTable>,
) -> Fingerprint {
    let cfg = ErParallelConfig {
        serial_depth: tree.serial_depth,
        order: tree.order,
        spec,
        cost: CostModel::default(),
        sel: SelectivityConfig::OFF,
    };
    let (root, depth) = (&tree.root, tree.depth);
    let r = match table {
        Some(t) => run_er_threads_with(
            root,
            depth,
            Window::FULL,
            1,
            &cfg,
            Hooks::default().with_tt(t),
        )
        .expect("an unlimited run cannot abort"),
        None => run_er_threads(root, depth, 1, &cfg),
    };
    let c = r.counters();
    (
        r.value,
        r.stats,
        r.cached_leaf_hits,
        c.lock_acquisitions,
        c.jobs_executed,
    )
}

/// The pinned part of a fingerprint: root value, nodes, lock acquisitions
/// and jobs executed.
type Golden = (i32, u64, u64, u64);

/// Five one-thread runs without a table, then five with a fresh one each,
/// must repeat exactly and match `golden` (without, with a table).
fn assert_reproducible<P: GamePosition + Zobrist>(tree: &TreeSpec<P>, golden: [Golden; 2]) {
    for (with_table, want) in [false, true].into_iter().zip(golden) {
        let runs: Vec<Fingerprint> = (0..RUNS)
            .map(|_| {
                // A fresh table per run: a warm one would answer the second
                // run from the first's entries.
                let table = with_table.then(|| TranspositionTable::with_bits(16));
                one_thread_run(tree, Speculation::ALL, table.as_ref())
            })
            .collect();
        assert!(
            runs.iter().all(|r| *r == runs[0]),
            "{} (table {with_table}): one-thread runs differ: {runs:#?}",
            tree.name
        );
        let (value, stats, _, locks, jobs) = runs[0];
        assert_eq!(
            (value.get(), stats.nodes(), locks, jobs),
            want,
            "{} (table {with_table}): the one-thread schedule moved",
            tree.name
        );
    }
}

#[test]
fn one_thread_runs_repeat_exactly_on_r1() {
    assert_reproducible(
        &random_trees()[0],
        [(-4422, 76_029, 69, 201), (-4422, 76_029, 69, 201)],
    );
}

#[test]
fn one_thread_runs_repeat_exactly_on_r1_at_serial_depth_4() {
    // Perfbench `random`'s setting. The grain rule lifts the threaded
    // frontier from the configured 4 to 7, Table 3's setting, so the
    // schedule is exactly the one pinned above.
    let r1 = TreeSpec {
        serial_depth: 4,
        ..random_trees()[0]
    };
    assert_reproducible(&r1, [(-4422, 76_029, 69, 201), (-4422, 76_029, 69, 201)]);
}

#[test]
fn one_thread_runs_repeat_exactly_on_o1() {
    assert_reproducible(
        &othello_trees()[0],
        [(7, 60_322, 52, 113), (7, 57_298, 52, 113)],
    );
}

#[test]
fn one_thread_runs_repeat_exactly_on_c1() {
    assert_reproducible(
        &checkers_tree(),
        [(2, 105_960, 114, 445), (2, 67_869, 114, 445)],
    );
}

fn assert_no_speculation_at_one_thread<P: GamePosition + Zobrist>(tree: &TreeSpec<P>) {
    for with_table in [false, true] {
        let fresh = || with_table.then(|| TranspositionTable::with_bits(16));
        let all = one_thread_run(tree, Speculation::ALL, fresh().as_ref());
        let refutation = one_thread_run(tree, REFUTATION_ONLY, fresh().as_ref());
        assert_eq!(
            all, refutation,
            "{} (table {with_table}): the speculative queue fired at one thread",
            tree.name
        );
    }
}

#[test]
fn one_thread_never_speculates_on_r1() {
    assert_no_speculation_at_one_thread(&random_trees()[0]);
}

#[test]
fn one_thread_never_speculates_on_o1() {
    assert_no_speculation_at_one_thread(&othello_trees()[0]);
}

#[test]
fn one_thread_never_speculates_on_c1() {
    assert_no_speculation_at_one_thread(&checkers_tree());
}
