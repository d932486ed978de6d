//! One thread is reproducible to the node (DESIGN.md §9): with no sibling
//! to contend with, the threaded back-end takes a fixed batch per lock
//! acquisition, so every run of a tree follows the same schedule —
//! speculative selection included — with or without a table.

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
    table: Option<&TranspositionTable>,
) -> Fingerprint {
    let cfg = ErParallelConfig {
        serial_depth: tree.serial_depth,
        order: tree.order,
        spec: Speculation::ALL,
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

fn assert_reproducible<P: GamePosition + Zobrist>(tree: &TreeSpec<P>) {
    for with_table in [false, true] {
        let runs: Vec<Fingerprint> = (0..RUNS)
            .map(|_| {
                // A fresh table per run: a warm one would answer the second
                // run from the first's entries.
                let table = with_table.then(|| TranspositionTable::with_bits(16));
                one_thread_run(tree, table.as_ref())
            })
            .collect();
        assert!(
            runs.iter().all(|r| *r == runs[0]),
            "{} (table {with_table}): one-thread runs differ: {runs:#?}",
            tree.name
        );
    }
}

#[test]
fn one_thread_runs_repeat_exactly_on_r1() {
    assert_reproducible(&random_trees()[0]);
}

#[test]
fn one_thread_runs_repeat_exactly_on_o1() {
    assert_reproducible(&othello_trees()[0]);
}

#[test]
fn one_thread_runs_repeat_exactly_on_c1() {
    assert_reproducible(&checkers_tree());
}
