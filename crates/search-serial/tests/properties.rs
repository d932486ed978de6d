//! Property tests for the serial algorithms: window soundness, pruning
//! monotonicity, and ER/alpha-beta equivalence across tree families.

use gametree::arena::{leaf, node, ArenaTree, TreeSpec};
use gametree::ordered::OrderedTreeSpec;
use gametree::random::RandomTreeSpec;
use gametree::{GamePosition, Value, Window};
use proptest::prelude::*;
use search_serial::{
    alphabeta, alphabeta_nodeep, alphabeta_pv, alphabeta_with, er_search, negmax, ErConfig, Hooks,
    OrderPolicy,
};

fn arb_tree() -> impl Strategy<Value = TreeSpec> {
    let leaf_strategy = (-100i32..100).prop_map(leaf);
    leaf_strategy.prop_recursive(4, 60, 4, |inner| {
        prop::collection::vec(inner, 1..5).prop_map(node)
    })
}

proptest! {
    #[test]
    fn er_equals_negmax_on_irregular_trees(spec in arb_tree()) {
        let root = ArenaTree::root_of(&spec);
        prop_assert_eq!(
            er_search(&root, 32, ErConfig::NATURAL).value,
            negmax(&root, 32).value
        );
    }

    #[test]
    fn alphabeta_equals_negmax_on_irregular_trees(spec in arb_tree()) {
        let root = ArenaTree::root_of(&spec);
        let exact = negmax(&root, 32).value;
        prop_assert_eq!(alphabeta(&root, 32, OrderPolicy::NATURAL).value, exact);
        prop_assert_eq!(alphabeta(&root, 32, OrderPolicy::ALWAYS).value, exact);
        prop_assert_eq!(alphabeta_nodeep(&root, 32, OrderPolicy::NATURAL).value, exact);
    }

    #[test]
    fn fail_soft_window_bounds_are_sound(
        spec in arb_tree(),
        a in -150i32..150,
        b in -150i32..150,
    ) {
        // For any NON-EMPTY window, fail-soft alpha-beta's result brackets
        // the true value from the correct side. (With alpha >= beta the
        // search degenerates to an immediate cutoff and the two bound
        // guarantees can't both apply.)
        prop_assume!(a < b);
        let root = ArenaTree::root_of(&spec);
        let exact = negmax(&root, 32).value;
        let w = Window::new(Value::new(a), Value::new(b));
        let r = alphabeta_with(&root, 32, w, OrderPolicy::NATURAL, Hooks::default()).value;
        if w.contains(exact) {
            prop_assert_eq!(r, exact, "inside the window the result is exact");
        }
        if r > w.alpha && r < w.beta {
            prop_assert_eq!(r, exact, "a result inside the window is exact");
        }
        if r >= w.beta {
            prop_assert!(exact >= r, "fail-high is a lower bound");
        }
        if r <= w.alpha {
            prop_assert!(exact <= r, "fail-low is an upper bound");
        }
    }

    #[test]
    fn pruning_never_examines_more_than_negmax(spec in arb_tree()) {
        let root = ArenaTree::root_of(&spec);
        let full = negmax(&root, 32).stats.nodes();
        prop_assert!(alphabeta(&root, 32, OrderPolicy::NATURAL).stats.nodes() <= full);
        prop_assert!(alphabeta_nodeep(&root, 32, OrderPolicy::NATURAL).stats.nodes() <= full);
        prop_assert!(er_search(&root, 32, ErConfig::NATURAL).stats.nodes() <= full);
    }

    #[test]
    fn pv_line_is_playable_and_realizes_value(spec in arb_tree()) {
        let root = ArenaTree::root_of(&spec);
        let r = alphabeta_pv(&root, 32, OrderPolicy::NATURAL);
        prop_assert_eq!(r.value, negmax(&root, 32).value);
        // The line must be legal move-by-move.
        let mut pos = root;
        for mv in &r.pv {
            prop_assert!(pos.moves().contains(mv), "illegal PV move");
            pos = pos.play(mv);
        }
        // And its endpoint realizes the root value (sign-adjusted).
        let v = pos.evaluate();
        let signed = if r.pv.len().is_multiple_of(2) { v } else { -v };
        prop_assert_eq!(signed, r.value);
    }

    #[test]
    fn random_tree_algorithms_agree(
        seed in any::<u64>(),
        degree in 2u32..5,
        height in 1u32..6,
    ) {
        let root = RandomTreeSpec::new(seed, degree, height).root();
        let exact = negmax(&root, height).value;
        prop_assert_eq!(alphabeta(&root, height, OrderPolicy::NATURAL).value, exact);
        prop_assert_eq!(er_search(&root, height, ErConfig::NATURAL).value, exact);
    }

    #[test]
    fn sorting_policy_never_changes_the_value(
        seed in any::<u64>(),
        degree in 2u32..5,
        height in 1u32..6,
        limit in 0u32..8,
    ) {
        let root = OrderedTreeSpec::strongly_ordered(seed, degree, height).root();
        let exact = negmax(&root, height).value;
        let policy = OrderPolicy { sort_ply_limit: limit };
        prop_assert_eq!(alphabeta(&root, height, policy).value, exact);
        prop_assert_eq!(er_search(&root, height, ErConfig { order: policy, ..ErConfig::NATURAL }).value, exact);
    }
}

#[test]
fn deeper_search_of_best_first_trees_is_minimal() {
    // The §2.2 statement as a sweeping check across shapes.
    use gametree::minimal::minimal_leaf_count;
    for d in 2u32..=5 {
        for h in 1u32..=6 {
            let root = OrderedTreeSpec::best_first(11, d, h).root();
            let r = alphabeta(&root, h, OrderPolicy::NATURAL);
            assert_eq!(
                r.stats.leaf_nodes,
                minimal_leaf_count(d as u64, h),
                "d={d} h={h}"
            );
        }
    }
}
