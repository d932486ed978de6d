//! Dynamic move ordering is observation + permutation only: ordering-on
//! searches must compute bit-identical root values to ordering-off on
//! every workload at every thread count (the tables may permute children,
//! never change the negamax value), and on the Othello workload the
//! permutation must pay — the deterministic simulator counts fewer (or
//! equal) nodes with the tables on.

use er_search::prelude::*;
use gametree::random::RandomTreeSpec;
use gametree::Window;
use proptest::prelude::*;

const THREAD_MATRIX: [usize; 4] = [1, 2, 4, 8];

/// Threaded search with shared killer/history tables on; everything else
/// at defaults.
fn threaded_ord_value<P: GamePosition>(
    pos: &P,
    depth: u32,
    threads: usize,
    cfg: &ErParallelConfig,
) -> Value {
    let tables = OrderingTables::new();
    run_er_threads_with(
        pos,
        depth,
        Window::FULL,
        threads,
        cfg,
        ThreadsConfig::default(),
        Hooks::default().with_ord(&tables),
    )
    .expect("unlimited control cannot trip")
    .value
}

/// Walks `plies` pseudo-random moves from `pos` so the matrix sees many
/// distinct real-game positions, not just the canned roots.
fn playout<P: GamePosition>(pos: &P, seed: u64, plies: u32) -> P {
    let mut cur = pos.clone();
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    for _ in 0..plies {
        let kids = cur.children();
        if kids.is_empty() {
            break;
        }
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let pick = (state >> 33) as usize % kids.len();
        cur = kids[pick].clone();
    }
    cur
}

fn assert_ordering_transparent<P: GamePosition>(pos: &P, depth: u32, cfg: &ErParallelConfig) {
    let reference = negmax(pos, depth).value;
    for threads in THREAD_MATRIX {
        let off = er_parallel::run_er_threads(pos, depth, threads, cfg).value;
        assert_eq!(off, reference, "ordering-off at {threads} threads");
        let on = threaded_ord_value(pos, depth, threads, cfg);
        assert_eq!(on, reference, "ordering-on at {threads} threads");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn ordering_on_matches_off_on_random_trees(
        seed in 0u64..1_000_000,
        degree in 2u32..6,
        height in 3u32..6,
        serial_depth in 0u32..4,
    ) {
        let root = RandomTreeSpec::new(seed, degree, height).root();
        let cfg = ErParallelConfig::random_tree(serial_depth);
        assert_ordering_transparent(&root, height, &cfg);
    }

    #[test]
    fn ordering_on_matches_off_on_othello(seed in 0u64..1_000_000, plies in 0u32..8) {
        let root = playout(&othello::configs::o1(), seed, plies);
        assert_ordering_transparent(&root, 4, &ErParallelConfig::othello());
    }

    #[test]
    fn ordering_on_matches_off_on_checkers(seed in 0u64..1_000_000, plies in 0u32..10) {
        let root = playout(&CheckersPos::initial(), seed, plies);
        let cfg = ErParallelConfig {
            serial_depth: 3,
            ..ErParallelConfig::random_tree(3)
        };
        assert_ordering_transparent(&root, 6, &cfg);
    }

    #[test]
    fn per_move_aging_is_value_neutral_across_a_game_walk(
        seed in 0u64..1_000_000,
        plies in 0u32..6,
    ) {
        // The game-loop policy: one shared table set reused move after
        // move, `age_for_new_root()` between consecutive roots. Whatever
        // stale-or-fresh mixture the tables hold, every search along the
        // walk must still produce the ordering-off negamax value — the
        // per-move decay is permutation-only, like every other ordering
        // path. Exercised on both game families from one walk seed.
        let tables = OrderingTables::new();
        let cfg = ErParallelConfig::othello();
        let mut pos = playout(&othello::configs::o1(), seed, plies);
        for mv in 0..3u32 {
            if mv > 0 {
                tables.age_for_new_root();
            }
            let reference = negmax(&pos, 3).value;
            for threads in [1usize, 4] {
                let hooks = Hooks::default().with_ord(&tables);
                let exec = ThreadsConfig::default();
                let got = run_er_threads_with(&pos, 3, Window::FULL, threads, &cfg, exec, hooks)
                    .expect("unlimited control cannot trip").value;
                prop_assert_eq!(got, reference,
                    "othello move {} at {} threads", mv, threads);
            }
            let kids = pos.children();
            if kids.is_empty() { break; }
            pos = kids[0];
        }
        let cfg = ErParallelConfig { serial_depth: 3, ..ErParallelConfig::random_tree(3) };
        let mut pos = playout(&CheckersPos::initial(), seed, plies);
        for mv in 0..3u32 {
            tables.age_for_new_root(); // tables still warm from Othello: cross-family dirt
            let reference = negmax(&pos, 4).value;
            for threads in [1usize, 4] {
                let hooks = Hooks::default().with_ord(&tables);
                let exec = ThreadsConfig::default();
                let got = run_er_threads_with(&pos, 4, Window::FULL, threads, &cfg, exec, hooks)
                    .expect("unlimited control cannot trip").value;
                prop_assert_eq!(got, reference,
                    "checkers move {} at {} threads", mv, threads);
            }
            let kids = pos.children();
            if kids.is_empty() { break; }
            pos = kids[0];
        }
    }

    #[test]
    fn aspiration_driver_matches_plain_deepening(
        seed in 0u64..1_000_000,
        degree in 2u32..5,
        height in 3u32..6,
        delta in 1i32..200,
    ) {
        let root = RandomTreeSpec::new(seed, degree, height).root();
        let cfg = ErParallelConfig::random_tree(2);
        let exec = ThreadsConfig::default();
        let (off, narrow) = (AspirationConfig::OFF, AspirationConfig::narrow(delta));
        let plain = run_er_threads_id(&root, height, 2, &cfg, exec, off, Hooks::default());
        let asp = run_er_threads_id(&root, height, 2, &cfg, exec, narrow, Hooks::default());
        prop_assert_eq!(asp.value, plain.value);
        prop_assert_eq!(asp.depth_completed, plain.depth_completed);
        // Every probe either lands in its window or is re-searched once.
        prop_assert!(asp.window_hits + asp.re_searches <= u64::from(height));
    }
}

/// The node-count direction on the real Othello workload, byte-reproducible
/// by construction (the simulator is single-threaded and deterministic):
/// an iterative-deepening loop with shared, aged tables must examine no
/// more nodes than the same loop without them, at 1, 4, and 16 simulated
/// workers.
#[test]
fn sim_ordering_never_adds_nodes_on_o1() {
    let o1 = othello::configs::o1();
    let cfg = ErParallelConfig::othello();
    let max_depth = 6;
    for workers in [1usize, 4, 16] {
        let mut off = 0u64;
        for d in 1..=max_depth {
            off += run_er_sim(&o1, d, workers, &cfg).stats.nodes();
        }
        let tables = OrderingTables::new();
        let mut on = 0u64;
        for d in 1..=max_depth {
            if d > 1 {
                tables.age();
            }
            on += run_er_sim_with(
                &o1,
                d,
                Window::FULL,
                workers,
                &cfg,
                Hooks::default().with_ord(&tables),
            )
            .stats
            .nodes();
        }
        assert!(
            on <= off,
            "ordering-on examined {on} > {off} nodes at {workers} workers"
        );
    }
}
