//! A search whose hooks carry an infinite-deadline control must be
//! *bit-identical* to the uncontrolled search — same root value AND same
//! instrumentation counters — on every tree. The `()` control handle is
//! statically inert, so the only way these could diverge is a
//! transcription error in the ctl recursion; these properties pin that
//! down across tree families.

use gametree::arena::{leaf, node, ArenaTree, TreeSpec};
use gametree::random::RandomTreeSpec;
use gametree::Window;
use proptest::prelude::*;
use search_serial::{
    alphabeta, alphabeta_with, er_search, er_search_with, ErConfig, Hooks, OrderPolicy,
    SearchControl,
};

const W: Window = Window::FULL;

fn arb_tree() -> impl Strategy<Value = TreeSpec> {
    let leaf_strategy = (-100i32..100).prop_map(leaf);
    leaf_strategy.prop_recursive(4, 60, 4, |inner| {
        prop::collection::vec(inner, 1..5).prop_map(node)
    })
}

proptest! {
    #[test]
    fn ctl_twins_match_on_irregular_trees(spec in arb_tree()) {
        let root = ArenaTree::root_of(&spec);
        let ctl = SearchControl::unlimited();
        let h = Hooks::default().with_ctl(&ctl);

        let r = alphabeta_with(&root, 32, W, OrderPolicy::NATURAL, 0, h);
        let base = alphabeta(&root, 32, OrderPolicy::NATURAL);
        prop_assert!(r.is_complete());
        prop_assert_eq!(r.value, base.value);
        prop_assert_eq!(r.stats, base.stats);

        let r = er_search_with(&root, 32, W, ErConfig::NATURAL, 0, h);
        let base = er_search(&root, 32, ErConfig::NATURAL);
        prop_assert!(r.is_complete());
        prop_assert_eq!(r.value, base.value);
        prop_assert_eq!(r.stats, base.stats);
    }

    #[test]
    fn ctl_twins_match_on_random_uniform_trees(
        seed in any::<u64>(),
        degree in 2u32..5,
        depth in 1u32..6,
    ) {
        let root = RandomTreeSpec::new(seed, degree, depth).root();
        let ctl = SearchControl::unlimited();
        let h = Hooks::default().with_ctl(&ctl);

        for policy in [OrderPolicy::NATURAL, OrderPolicy::ALWAYS] {
            let r = alphabeta_with(&root, depth, W, policy, 0, h);
            let base = alphabeta(&root, depth, policy);
            prop_assert_eq!(r.value, base.value);
            prop_assert_eq!(r.stats, base.stats);
        }

        let r = er_search_with(&root, depth, W, ErConfig::NATURAL, 0, h);
        let base = er_search(&root, depth, ErConfig::NATURAL);
        prop_assert_eq!(r.value, base.value);
        prop_assert_eq!(r.stats, base.stats);
    }

    #[test]
    fn expired_deadline_reports_incomplete(seed in any::<u64>()) {
        // A deadline in the past must abort (partial result flagged), and
        // the partial value must never silently masquerade as complete.
        let root = RandomTreeSpec::new(seed, 4, 6).root();
        let ctl = SearchControl::with_budget(std::time::Duration::ZERO);
        let h = Hooks::default().with_ctl(&ctl);
        let r = alphabeta_with(&root, 6, W, OrderPolicy::NATURAL, 0, h);
        prop_assert!(!r.is_complete());
        prop_assert_eq!(r.aborted, Some(search_serial::AbortReason::DeadlineHit));
    }
}

#[test]
fn cancelled_mid_fn_is_reported() {
    let root = RandomTreeSpec::new(7, 4, 6).root();
    let ctl = SearchControl::unlimited();
    let h = Hooks::default().with_ctl(&ctl);
    ctl.cancel();
    let r = er_search_with(&root, 6, W, ErConfig::NATURAL, 0, h);
    assert!(!r.is_complete());
    assert_eq!(r.aborted, Some(search_serial::AbortReason::Cancelled));
}
