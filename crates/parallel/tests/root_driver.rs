//! The deepening driver as the one root driver: [`IdStepper`] over serial
//! alpha-beta (aspiration and iterative deepening are the same loop), and
//! its move-choosing step's root-split contract over the threaded back-end
//! on random, Othello and checkers roots.

use checkers::CheckersPos;
use er_parallel::{
    root_split, run_er_threads_with, AbortReason, AspirationConfig, ErIdResult, ErParallelConfig,
    Hooks, IdStepper, SearchControl,
};
use gametree::arena::{leaf, node, ArenaTree, TreeSpec};
use gametree::ordered::OrderedTreeSpec;
use gametree::random::RandomTreeSpec;
use gametree::{GamePosition, SearchStats, Value, Window};
use othello::OthelloPos;
use proptest::prelude::*;
use search_serial::{alphabeta, alphabeta_with, negmax, OrderPolicy, OrderingTables};
use tt::{TranspositionTable, TtAccess};

fn arb_tree() -> impl Strategy<Value = TreeSpec> {
    let leaf_strategy = (-100i32..100).prop_map(leaf);
    leaf_strategy.prop_recursive(4, 60, 4, |inner| {
        prop::collection::vec(inner, 1..5).prop_map(node)
    })
}

/// Windowed aspiration deepening over serial alpha-beta, `1..=max_depth`,
/// with no control and the table handle `tt` (`()` for none): the loop
/// the workspace's serial drivers used to be.
fn serial_deepening<P: GamePosition, T: TtAccess<P>>(
    pos: &P,
    max_depth: u32,
    delta: i32,
    policy: OrderPolicy,
    tt: T,
) -> ErIdResult {
    let ctl = SearchControl::unlimited();
    let asp = AspirationConfig {
        delta,
        ordering: false,
    };
    let mut stepper = IdStepper::new(pos.evaluate(), asp);
    for depth in 1..=max_depth {
        stepper
            .step_with(depth, &ctl, (), |d, w, _| {
                let r = alphabeta_with(pos, d, w, policy, Hooks::default().with_tt(tt));
                Ok((r.value, r.stats))
            })
            .expect("an uncontrolled search never aborts");
    }
    stepper.into_result()
}

/// One serial alpha-beta child search for a root split.
fn serial_child<P: GamePosition>(
    kid: &P,
    depth: u32,
    w: Window,
    ctl: &SearchControl,
) -> Result<(Value, SearchStats), AbortReason> {
    let r = alphabeta_with(
        kid,
        depth,
        w,
        OrderPolicy::NATURAL,
        Hooks::default().with_ctl(ctl),
    );
    r.aborted.map_or(Ok((r.value, r.stats)), Err)
}

proptest! {
    /// Aspiration deepening is exact at every depth whatever the window.
    #[test]
    fn serial_aspiration_deepening_is_exact_at_every_depth(
        spec in arb_tree(),
        delta in 1i32..100,
    ) {
        let root = ArenaTree::root_of(&spec);
        let r = serial_deepening(&root, 5, delta, OrderPolicy::NATURAL, ());
        prop_assert_eq!(r.depth_completed, 5);
        for (i, d) in r.per_depth.iter().enumerate() {
            prop_assert_eq!(d.depth, i as u32 + 1);
            prop_assert_eq!(d.value, negmax(&root, d.depth).value, "depth {}", d.depth);
        }
    }

    /// The move-choosing step is exact at every depth, and its chosen
    /// child achieves the value it reports.
    #[test]
    fn root_split_deepening_is_exact_and_its_move_achieves_the_value(
        spec in arb_tree(),
        delta in 0i32..100,
    ) {
        let root = ArenaTree::root_of(&spec);
        let kids = root.children();
        prop_assume!(!kids.is_empty());
        let ctl = SearchControl::unlimited();
        let asp = AspirationConfig { delta, ordering: false };
        let mut stepper = IdStepper::new(root.evaluate(), asp);
        for depth in 1..=5 {
            let s = stepper
                .step_root(depth, &ctl, kids.len(), |i, d, w, c| serial_child(&kids[i], d, w, c))
                .expect("uncontrolled");
            let exact = negmax(&root, depth).value;
            prop_assert_eq!(s.value, exact, "depth {}", depth);
            let best = stepper.best_move(&kids).expect("root has moves");
            prop_assert_eq!(-negmax(&kids[best], depth - 1).value, exact, "depth {}", depth);
        }
    }
}

/// [`root_split`] over four leaf children valued, from the root's side,
/// 3, 9, 5 and 12; returns its result and the (child, window) calls.
fn split_leaves(first: usize, window: Window) -> (Value, usize, Vec<(usize, Window)>) {
    let vals = [3, 9, 5, 12];
    let mut seen = Vec::new();
    let (v, best, _) = root_split(4, first, window, |i, w| {
        seen.push((i, w));
        Ok((Value::new(-vals[i]), SearchStats::new()))
    })
    .expect("no control");
    (v, best, seen)
}

#[test]
fn root_split_raises_alpha_and_cuts_off_at_beta() {
    let (v, best, seen) = split_leaves(2, Window::FULL);
    assert_eq!((v, best), (Value::new(12), 3));
    let order: Vec<usize> = seen.iter().map(|&(i, _)| i).collect();
    assert_eq!(order, [2, 0, 1, 3], "previous best first, then natural");
    // Each child is searched under the window its predecessors left.
    assert_eq!(seen[1].1, Window::new(Value::NEG_INF, Value::new(-5)));
    assert_eq!(seen[3].1, Window::new(Value::NEG_INF, Value::new(-9)));
    // A root window whose beta is 9 stops at the child that reaches it.
    let (v, best, seen) = split_leaves(0, Window::new(Value::new(0), Value::new(9)));
    assert_eq!((v, best), (Value::new(9), 1), "fail-high at the cutoff");
    assert_eq!(seen.len(), 2, "no child after the beta cutoff");
}

#[test]
fn serial_deepening_probes_mostly_hit_on_stable_trees() {
    // On an incremental ordered tree the value barely moves between
    // depths, so most aspiration probes land inside their window.
    let root = OrderedTreeSpec::strongly_ordered(5, 4, 7).root();
    let r = serial_deepening(&root, 7, 200, OrderPolicy::ALWAYS, ());
    assert_eq!(r.value, negmax(&root, 7).value);
    assert!(
        r.window_hits >= r.re_searches,
        "most probes should hit: {} hits, {} re-searches",
        r.window_hits,
        r.re_searches
    );
}

#[test]
fn serial_deepening_costs_little_more_than_one_direct_search() {
    // Iterative deepening's classic property: the shallow iterations
    // cost little relative to the final depth.
    let root = RandomTreeSpec::new(7, 4, 7).root();
    let it = serial_deepening(&root, 7, 100, OrderPolicy::NATURAL, ());
    let direct = alphabeta(&root, 7, OrderPolicy::NATURAL);
    let ratio = it.total_nodes() as f64 / direct.stats.nodes() as f64;
    assert!(ratio < 3.0, "deepening overhead too large: {ratio:.2}");
}

#[test]
fn table_backed_serial_deepening_matches_the_table_free_one() {
    // A narrow window forces re-searches, which then run over the entries
    // their failed probe stored.
    for seed in 0..6 {
        let root = OrderedTreeSpec::strongly_ordered(seed, 4, 6).root();
        let table = TranspositionTable::with_bits(14);
        let off = serial_deepening(&root, 6, 5, OrderPolicy::ALWAYS, ());
        let on = serial_deepening(&root, 6, 5, OrderPolicy::ALWAYS, &table);
        for (a, b) in off.per_depth.iter().zip(&on.per_depth) {
            assert_eq!(a.value, b.value, "seed {seed} depth {}", a.depth);
        }
        assert_eq!(on.value, negmax(&root, 6).value, "seed {seed}");
        assert!(table.stats().stores > 0);
    }
}

/// Per-run observations of the root-split contract.
#[derive(Default)]
struct Tally {
    fail_high: u32,
    fail_low: u32,
}

/// Deepens `root` to `max_depth` with the move-choosing step over the
/// threaded back-end and checks, at every depth: the value equals
/// alpha-beta, the chosen child's negated depth−1 value equals it, and the
/// previous depth's move is searched first. Then a step cancelled
/// mid-split must keep the deepest completed depth's move.
fn check_root_split<P: GamePosition + tt::Zobrist>(
    root: &P,
    max_depth: u32,
    policy: OrderPolicy,
    cfg: &ErParallelConfig,
    threads: usize,
    asp: AspirationConfig,
    tally: &mut Tally,
) {
    let kids = root.children();
    let table = TranspositionTable::with_bits(14);
    let tables = OrderingTables::new();
    let ctl = SearchControl::unlimited();
    let child = |i: usize, d: u32, w: Window, c: &SearchControl| {
        let hooks = Hooks::default().with_tt(&table).with_ctl(c);
        let r = if asp.ordering {
            run_er_threads_with(&kids[i], d, w, threads, cfg, hooks.with_ord(&tables))
        } else {
            run_er_threads_with(&kids[i], d, w, threads, cfg, hooks)
        };
        r.map(|r| (r.value, r.stats)).map_err(|e| e.reason)
    };
    let label = format!("threads {threads} {asp:?}");
    let mut stepper = IdStepper::new(root.evaluate(), asp);
    let mut prev: Option<Value> = None;
    for depth in 1..=max_depth {
        let before = stepper.result().re_searches;
        let prev_best = stepper.best_move(&kids).expect("root has moves");
        let mut first = None;
        let s = stepper
            .step_root(depth, &ctl, kids.len(), |i, d, w, c| {
                first.get_or_insert(i);
                child(i, d, w, c)
            })
            .expect("uncontrolled");
        let exact = alphabeta(root, depth, policy).value;
        assert_eq!(s.value, exact, "{label} depth {depth}: root value");
        let best = stepper.best_move(&kids).expect("root has moves");
        let played = -alphabeta(&kids[best], depth - 1, policy).value;
        assert_eq!(played, exact, "{label} depth {depth}: chosen child");
        if depth > 1 {
            assert_eq!(first, Some(prev_best), "{label} depth {depth}: order");
        }
        // With a previous value p the probe window is (p - δ, p + δ): the
        // exact value says which way a failed probe went.
        let re = stepper.result().re_searches - before;
        match prev {
            Some(p) if asp.delta > 0 && exact.get() >= p.get() + asp.delta => {
                tally.fail_high += 1;
                assert_eq!(re, 1, "{label} depth {depth}: fail-high re-search");
            }
            Some(p) if asp.delta > 0 && exact.get() <= p.get() - asp.delta => {
                tally.fail_low += 1;
                assert_eq!(re, 1, "{label} depth {depth}: fail-low re-search");
            }
            _ => assert_eq!(re, 0, "{label} depth {depth}: no re-search"),
        }
        prev = Some(exact);
    }
    // One more depth, cancelled from inside the split after one child.
    let kept = stepper.best_move(&kids);
    let cancel = SearchControl::unlimited();
    let mut calls = 0;
    let step = stepper.step_root(max_depth + 1, &cancel, kids.len(), |i, d, w, c| {
        calls += 1;
        if calls == 2 {
            c.cancel();
        }
        child(i, d, w, c)
    });
    assert_eq!(step.unwrap_err(), AbortReason::Cancelled, "{label}");
    assert_eq!(calls, 2, "{label}: the cancel landed mid-split");
    assert_eq!(stepper.best_move(&kids), kept, "{label}: move kept");
    assert_eq!(stepper.depth_completed(), max_depth, "{label}");
    assert_eq!(stepper.value(), prev.unwrap(), "{label}: value kept");
}

#[test]
fn root_split_contract_on_random_othello_and_checkers_roots() {
    let mut tally = Tally::default();
    for threads in [1, 2] {
        for asp in [AspirationConfig::OFF, AspirationConfig::narrow(1)] {
            for seed in [3, 9] {
                let r = RandomTreeSpec::new(seed, 4, 6).root();
                let cfg = ErParallelConfig::random_tree(2);
                check_root_split(&r, 5, OrderPolicy::NATURAL, &cfg, threads, asp, &mut tally);
            }
            let o = OthelloPos::initial();
            let cfg = ErParallelConfig::othello();
            check_root_split(&o, 4, OrderPolicy::OTHELLO, &cfg, threads, asp, &mut tally);
            let c = CheckersPos::initial();
            let cfg = ErParallelConfig::random_tree(3);
            check_root_split(&c, 4, OrderPolicy::NATURAL, &cfg, threads, asp, &mut tally);
        }
    }
    assert!(
        tally.fail_high > 0,
        "the corpus must hit a fail-high re-search"
    );
    assert!(
        tally.fail_low > 0,
        "the corpus must hit a fail-low re-search"
    );
}
