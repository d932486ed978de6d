//! Transposition-table wiring for the parallel back-ends: every runner with
//! a table attached must return the same root value as without one (and
//! as plain negamax), while the shared table's counters show it was used.

use er_parallel::{run_er_threads, run_er_threads_with, ErParallelConfig, ErThreadsResult, Hooks};
use gametree::random::RandomTreeSpec;
use gametree::tictactoe::TicTacToe;
use gametree::{GamePosition, Window};
use othello::OthelloPos;
use search_serial::negmax;
use tt::{TranspositionTable, Zobrist};

/// A full-window threaded run sharing `table`.
fn tt_run<P: GamePosition + Zobrist>(
    pos: &P,
    depth: u32,
    threads: usize,
    cfg: &ErParallelConfig,
    table: &TranspositionTable,
) -> ErThreadsResult {
    let hooks = Hooks::default().with_tt(table);
    run_er_threads_with(pos, depth, Window::FULL, threads, cfg, hooks).expect("cannot abort")
}

#[test]
fn er_threads_tt_matches_negmax_on_random_trees() {
    for seed in 0..4 {
        let root = RandomTreeSpec::new(seed, 4, 6).root();
        let exact = negmax(&root, 6).value;
        for threads in [1usize, 2, 4] {
            let table = TranspositionTable::with_bits(14);
            let r = tt_run(&root, 6, threads, &ErParallelConfig::random_tree(3), &table);
            assert_eq!(r.value, exact, "seed {seed} threads {threads}");
            let s = r.tt.expect("tt runner reports stats");
            assert!(s.probes > 0, "seed {seed}: table never probed");
        }
    }
}

#[test]
fn er_threads_tt_survives_tiny_table() {
    // A 4-entry table forces constant replacement; values must not drift.
    let root = RandomTreeSpec::new(11, 4, 7).root();
    let exact = negmax(&root, 7).value;
    let table = TranspositionTable::with_bits(2);
    for threads in [1usize, 4] {
        let r = tt_run(&root, 7, threads, &ErParallelConfig::random_tree(3), &table);
        assert_eq!(r.value, exact, "threads {threads}");
    }
}

#[test]
fn er_threads_tt_hits_on_transposing_game() {
    // Tic-tac-toe transposes heavily: the shared table must record hits
    // and the root value stays the game-theoretic draw.
    let table = TranspositionTable::with_bits(16);
    let r = tt_run(
        &TicTacToe::initial(),
        9,
        4,
        &ErParallelConfig::random_tree(5),
        &table,
    );
    assert_eq!(r.value, gametree::Value::ZERO);
    let s = r.tt.expect("tt stats");
    assert!(s.hits > 0, "no transposition hits on tic-tac-toe: {s:?}");
}

#[test]
fn er_threads_tt_matches_tt_off_on_othello() {
    let pos = OthelloPos::initial();
    let depth = 6;
    let off = run_er_threads(&pos, depth, 4, &ErParallelConfig::othello());
    let table = TranspositionTable::with_bits(18);
    let on = tt_run(&pos, depth, 4, &ErParallelConfig::othello(), &table);
    assert_eq!(on.value, off.value);
    let s = on.tt.expect("tt stats");
    assert!(s.hits > 0, "othello depth {depth} must transpose: {s:?}");
}

#[test]
fn shared_table_across_consecutive_searches_still_exact() {
    // Re-searching the same position with a warm table (new generation)
    // must reproduce the value — aged entries may only help, not corrupt.
    let pos = OthelloPos::initial();
    let table = TranspositionTable::with_bits(18);
    let cfg = ErParallelConfig::othello();
    let first = tt_run(&pos, 6, 4, &cfg, &table);
    table.new_search();
    let second = tt_run(&pos, 6, 4, &cfg, &table);
    assert_eq!(first.value, second.value);
    let s2 = second.tt.expect("tt stats");
    assert!(s2.hits > 0, "warm table must hit on the re-search: {s2:?}");
}

#[test]
fn sim_tt_is_deterministic_and_exact() {
    // The simulated back-end's job schedule is a pure function of the
    // configuration, so two TT-on runs must agree node-for-node — the
    // property `repro tt` leans on for its exact node-savings assert —
    // and a transposing game must examine *fewer* nodes with the table.
    use er_parallel::{run_er_sim, run_er_sim_with};
    let root = TicTacToe::initial();
    let cfg = ErParallelConfig::random_tree(4);
    let exact = negmax(&root, 9).value;
    for procs in [1usize, 4] {
        let off = run_er_sim(&root, 9, procs, &cfg);
        let (t1, t2) = (
            TranspositionTable::with_bits(16),
            TranspositionTable::with_bits(16),
        );
        let a = run_er_sim_with(
            &root,
            9,
            Window::FULL,
            procs,
            &cfg,
            Hooks::default().with_tt(&t1),
        );
        let b = run_er_sim_with(
            &root,
            9,
            Window::FULL,
            procs,
            &cfg,
            Hooks::default().with_tt(&t2),
        );
        assert_eq!(a.value, exact, "procs {procs}");
        assert_eq!(off.value, exact, "procs {procs}");
        assert_eq!(
            a.stats.nodes(),
            b.stats.nodes(),
            "procs {procs}: simulated TT runs must be reproducible"
        );
        assert_eq!(t1.stats().hits, t2.stats().hits, "procs {procs}");
        assert!(
            a.stats.nodes() < off.stats.nodes(),
            "procs {procs}: table must cut simulated nodes ({} vs {})",
            a.stats.nodes(),
            off.stats.nodes()
        );
        assert!(t1.stats().hits > 0, "procs {procs}: no hits recorded");
    }
}

#[test]
fn every_table_backed_threaded_run_reports_its_table_delta() {
    // The session scheduler's path: a narrowed window with shared ordering
    // tables beside the table. The report is the run's delta of the
    // table's counters, not the table's lifetime totals.
    use search_serial::OrderingTables;
    let root = OthelloPos::initial();
    let cfg = ErParallelConfig::othello();
    let table = TranspositionTable::with_bits(16);
    let ord = OrderingTables::new();
    let window = Window::new(gametree::Value::new(-40), gametree::Value::new(40));
    let hooks = Hooks::default().with_tt(&table).with_ord(&ord);
    for pass in 0..2 {
        let before = table.stats();
        let r = run_er_threads_with(&root, 5, window, 2, &cfg, hooks).expect("cannot abort");
        let report = r.tt.expect("a table-backed run reports its table");
        assert_eq!(report, table.stats().since(&before), "pass {pass}");
        assert!(report.probes > 0, "pass {pass}");
    }
    let plain = run_er_threads(&root, 5, 2, &cfg);
    assert!(plain.tt.is_none(), "a table-free run reports no table");
}
