//! Cross-crate equivalence: every search algorithm in the workspace —
//! serial, simulated-parallel at any processor count, and threaded —
//! computes the same root value on the same tree (DESIGN.md invariant 1).

use er_search::prelude::*;
use gametree::arena::{leaf, node, ArenaTree, TreeSpec};
use gametree::tictactoe::TicTacToe;
use proptest::prelude::*;

use er_parallel::baselines::{
    run_aspiration_guess, run_mwf, run_pv_split, run_pv_split_mw, run_root_split, run_tree_split,
    ProcShape,
};

fn all_values<P: GamePosition>(
    pos: &P,
    depth: u32,
    serial_depth: u32,
    order: OrderPolicy,
) -> Vec<(String, Value)> {
    let cost = CostModel::default();
    let cfg = ErParallelConfig {
        serial_depth,
        order,
        spec: Speculation::ALL,
        cost,
        sel: SelectivityConfig::OFF,
    };
    let mut out = vec![
        ("negmax".to_string(), negmax(pos, depth).value),
        ("alphabeta".to_string(), alphabeta(pos, depth, order).value),
        (
            "alphabeta_nodeep".to_string(),
            alphabeta_nodeep(pos, depth, order).value,
        ),
        (
            "serial ER".to_string(),
            er_search(
                pos,
                depth,
                ErConfig {
                    order,
                    sel: SelectivityConfig::OFF,
                },
            )
            .value,
        ),
    ];
    for k in [1usize, 3, 7] {
        out.push((
            format!("parallel ER k={k}"),
            run_er_sim(pos, depth, k, &cfg).value,
        ));
    }
    out.push((
        "threaded ER".to_string(),
        er_parallel::run_er_threads(pos, depth, 2, &cfg).value,
    ));
    out.push((
        "MWF".to_string(),
        run_mwf(pos, depth, 4, serial_depth, order, &cost).value,
    ));
    out.push((
        "parallel aspiration".to_string(),
        run_aspiration_guess(pos, depth, Value::ZERO, 4, 150, order, &cost).value,
    ));
    let shape = ProcShape {
        branching: 2,
        height: 2,
    };
    out.push((
        "tree-splitting".to_string(),
        run_tree_split(pos, depth, shape, order, &cost).value,
    ));
    out.push((
        "pv-splitting".to_string(),
        run_pv_split(pos, depth, shape, order, &cost).value,
    ));
    out.push((
        "pv-splitting (minimal window)".to_string(),
        run_pv_split_mw(pos, depth, shape, order, &cost).value,
    ));
    out.push((
        "root partition".to_string(),
        run_root_split(pos, depth, 4, order, &cost).value,
    ));
    out.push((
        "aspiration".to_string(),
        serial_deepening(pos, depth, 100, order, false),
    ));
    out.push((
        "iterative deepening".to_string(),
        serial_deepening(pos, depth, 50, order, true),
    ));
    out
}

/// The deepening driver over serial alpha-beta to `depth`, aspiring with
/// half-width `delta`: a whole-root search per window, or with
/// `split` the move-choosing root split.
fn serial_deepening<P: GamePosition>(
    pos: &P,
    depth: u32,
    delta: i32,
    order: OrderPolicy,
    split: bool,
) -> Value {
    let ctl = SearchControl::unlimited();
    let asp = AspirationConfig {
        delta,
        ordering: false,
    };
    let search = |p: &P, d: u32, w: Window| {
        let r = alphabeta_with(p, d, w, order, 0, Hooks::default());
        Ok((r.value, r.stats))
    };
    let kids = pos.children();
    let mut stepper = er_parallel::IdStepper::new(pos.evaluate(), asp);
    for d in 1..=depth {
        let step = if split && !kids.is_empty() {
            stepper.step_root(d, &ctl, kids.len(), |i, cd, w, _| search(&kids[i], cd, w))
        } else {
            stepper.step_with(d, &ctl, (), |d, w, _| search(pos, d, w))
        };
        step.expect("an uncontrolled search never aborts");
    }
    stepper.value()
}

fn assert_all_agree<P: GamePosition>(pos: &P, depth: u32, serial_depth: u32, order: OrderPolicy) {
    let vals = all_values(pos, depth, serial_depth, order);
    let reference = vals[0].1;
    for (name, v) in &vals {
        assert_eq!(*v, reference, "{name} disagrees with negmax");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_algorithms_agree_on_random_trees(
        seed in 0u64..1_000_000,
        degree in 2u32..6,
        height in 2u32..6,
        serial_depth in 0u32..4,
    ) {
        let root = RandomTreeSpec::new(seed, degree, height).root();
        assert_all_agree(&root, height, serial_depth, OrderPolicy::NATURAL);
    }

    #[test]
    fn all_algorithms_agree_on_ordered_trees(
        seed in 0u64..1_000_000,
        degree in 2u32..5,
        height in 2u32..6,
    ) {
        let root = OrderedTreeSpec::strongly_ordered(seed, degree, height).root();
        assert_all_agree(&root, height, 2, OrderPolicy::ALWAYS);
    }

    #[test]
    fn all_algorithms_agree_on_depth_limited_searches(
        seed in 0u64..1_000_000,
        depth in 0u32..5,
    ) {
        // The tree is deeper than the search: depth limiting must truncate
        // identically everywhere.
        let root = RandomTreeSpec::new(seed, 3, 7).root();
        assert_all_agree(&root, depth, 1, OrderPolicy::NATURAL);
    }
}

/// Builds an arbitrary irregular tree spec from a recursive strategy.
fn arb_tree() -> impl Strategy<Value = TreeSpec> {
    let leaf_strategy = (-100i32..100).prop_map(leaf);
    leaf_strategy.prop_recursive(4, 64, 5, |inner| {
        prop::collection::vec(inner, 1..5).prop_map(node)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_algorithms_agree_on_irregular_trees(spec in arb_tree()) {
        let root = ArenaTree::root_of(&spec);
        let reference = root.negamax();
        let vals = all_values(&root, 16, 2, OrderPolicy::NATURAL);
        for (name, v) in &vals {
            prop_assert_eq!(*v, reference, "{} disagrees on {:?}", name, spec);
        }
    }
}

#[test]
fn all_algorithms_agree_on_tictactoe() {
    assert_all_agree(&TicTacToe::initial(), 9, 5, OrderPolicy::NATURAL);
}

#[test]
fn all_algorithms_agree_on_othello() {
    // Shallow depth keeps the whole matrix fast.
    let pos = othello::configs::o1();
    assert_all_agree(&pos, 4, 2, OrderPolicy::OTHELLO);
}

#[test]
fn all_algorithms_agree_on_checkers() {
    let pos = checkers::c1();
    assert_all_agree(&pos, 5, 3, OrderPolicy::OTHELLO);
    // Including from the opening position, where forced captures are
    // absent at the root.
    assert_all_agree(
        &checkers::CheckersPos::initial(),
        5,
        2,
        OrderPolicy::NATURAL,
    );
}

#[test]
fn figure2a_tree_value() {
    // Paper Figure 2(a): A = 7.
    let root = ArenaTree::root_of(&node(vec![leaf(-7), node(vec![leaf(5), leaf(-9)])]));
    assert_all_agree(&root, 4, 1, OrderPolicy::NATURAL);
    assert_eq!(negmax(&root, 4).value, Value::new(7));
}
