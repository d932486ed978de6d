//! Every serial back-end with a table attached must return exactly the
//! value of the table-free search (and of plain negamax), whatever the
//! table has seen before — including entries written by *other*
//! algorithms, torn generations, and tiny tables that evict constantly.

use gametree::ordered::OrderedTreeSpec;
use gametree::tictactoe::TicTacToe;
use gametree::{Value, Window};
use search_serial::{
    alphabeta, alphabeta_with, er_search, er_search_with, negmax, negmax_with, pvs, pvs_with,
    ErConfig, Hooks, OrderPolicy,
};
use tt::TranspositionTable;

const W: Window = Window::FULL;
const ALWAYS: OrderPolicy = OrderPolicy::ALWAYS;
const NATURAL: ErConfig = ErConfig::NATURAL;

#[test]
fn all_tt_backends_agree_with_the_table_free_searches_on_ordered_trees() {
    for seed in 0..6 {
        let root = OrderedTreeSpec::strongly_ordered(seed, 4, 6).root();
        let depth = 6;
        let exact = negmax(&root, depth).value;
        let table = TranspositionTable::with_bits(14);
        let h = Hooks::default().with_tt(&table);
        assert_eq!(negmax_with(&root, depth, h).value, exact, "negmax");
        assert_eq!(
            alphabeta_with(&root, depth, W, ALWAYS, h).value,
            alphabeta(&root, depth, ALWAYS).value,
            "alphabeta seed {seed}"
        );
        assert_eq!(
            pvs_with(&root, depth, W, ALWAYS, h).value,
            pvs(&root, depth, ALWAYS).value,
            "pvs seed {seed}"
        );
        assert_eq!(
            er_search_with(&root, depth, W, NATURAL, 0, h).value,
            er_search(&root, depth, NATURAL).value,
            "er seed {seed}"
        );
        assert!(table.stats().stores > 0);
    }
}

#[test]
fn a_warm_table_replays_subtrees_from_memory() {
    // Tic-tac-toe transposes heavily: a second identical search over a warm
    // table must answer from the root entry alone.
    let p = TicTacToe::initial();
    let table = TranspositionTable::with_bits(16);
    let h = Hooks::default().with_tt(&table);
    let cold = er_search_with(&p, 9, W, NATURAL, 0, h);
    assert_eq!(cold.value, Value::ZERO);
    let warm = er_search_with(&p, 9, W, NATURAL, 0, h);
    assert_eq!(warm.value, Value::ZERO);
    assert_eq!(warm.stats.nodes(), 0, "root hit answers outright");
    let s = table.stats();
    assert!(s.hits > 0, "transpositions must hit: {s:?}");
    // Even the cold search must have cut work against the TT-off baseline.
    let off = er_search(&p, 9, NATURAL);
    assert!(
        cold.stats.nodes() < off.stats.nodes(),
        "transposition reuse must prune: {} vs {}",
        cold.stats.nodes(),
        off.stats.nodes()
    );
}

#[test]
fn a_one_bucket_table_stays_correct_under_constant_eviction() {
    // bits=2 is a single 4-way bucket: every store competes. Values must
    // still match negmax exactly.
    for seed in 0..4 {
        let root = OrderedTreeSpec::strongly_ordered(seed, 4, 5).root();
        let table = TranspositionTable::with_bits(2);
        let h = Hooks::default().with_tt(&table);
        let exact = negmax(&root, 5).value;
        assert_eq!(er_search_with(&root, 5, W, NATURAL, 0, h).value, exact);
        assert_eq!(alphabeta_with(&root, 5, W, ALWAYS, h).value, exact);
        assert_eq!(negmax_with(&root, 5, h).value, exact);
    }
}

#[test]
fn cross_algorithm_sharing_is_sound() {
    // negmax fills the table with Exact entries; every other back-end then
    // searches through those entries and must stay exact.
    let p = TicTacToe::initial();
    let table = TranspositionTable::with_bits(16);
    let h = Hooks::default().with_tt(&table);
    let exact = negmax_with(&p, 9, h).value;
    assert_eq!(exact, Value::ZERO);
    assert_eq!(
        alphabeta_with(&p, 9, W, OrderPolicy::NATURAL, h).value,
        exact
    );
    assert_eq!(pvs_with(&p, 9, W, OrderPolicy::NATURAL, h).value, exact);
    assert_eq!(er_search_with(&p, 9, W, NATURAL, 0, h).value, exact);
}

#[test]
fn generation_aging_keeps_later_searches_correct() {
    let root = OrderedTreeSpec::strongly_ordered(11, 4, 6).root();
    let table = TranspositionTable::with_bits(8);
    let exact = negmax(&root, 6).value;
    for _ in 0..5 {
        table.new_search();
        let h = Hooks::default().with_tt(&table);
        assert_eq!(er_search_with(&root, 6, W, NATURAL, 0, h).value, exact);
    }
}
