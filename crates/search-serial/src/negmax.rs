//! The negmax procedure (paper §2, Knuth & Moore 1975): full-width
//! depth-first evaluation with no pruning. The reference "ground truth" for
//! every other algorithm.

use gametree::{GamePosition, SearchStats, Value};

use crate::SearchResult;

/// Evaluates `pos` to `depth` plies by exhaustive negamax. The oracle
/// every other search is checked against, so it takes no hooks: no table,
/// control or tracer can change what it visits.
pub fn negmax<P: GamePosition>(pos: &P, depth: u32) -> SearchResult {
    let mut stats = SearchStats::new();
    let value = negmax_rec(pos, depth, &mut stats);
    SearchResult { value, stats }
}

fn negmax_rec<P: GamePosition>(pos: &P, depth: u32, stats: &mut SearchStats) -> Value {
    let moves = pos.moves();
    if depth == 0 || moves.is_empty() {
        stats.leaf_nodes += 1;
        stats.eval_calls += 1;
        return pos.evaluate();
    }
    stats.interior_nodes += 1;
    moves
        .iter()
        .map(|mv| -negmax_rec(&pos.play(mv), depth - 1, stats))
        .fold(Value::NEG_INF, Value::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gametree::arena::{leaf, node, ArenaTree};
    use gametree::random::RandomTreeSpec;
    use gametree::tictactoe::TicTacToe;

    #[test]
    fn leaf_returns_static_value() {
        let root = ArenaTree::root_of(&leaf(17));
        assert_eq!(negmax(&root, 5).value, Value::new(17));
    }

    #[test]
    fn two_level_max_of_negated_children() {
        let root = ArenaTree::root_of(&node(vec![leaf(3), leaf(-8), leaf(1)]));
        // max(-3, 8, -1) = 8.
        assert_eq!(negmax(&root, 2).value, Value::new(8));
    }

    #[test]
    fn depth_zero_truncates() {
        let root = ArenaTree::root_of(&node(vec![leaf(3)]));
        // Truncated at the root: static value of the root node (0).
        assert_eq!(negmax(&root, 0).value, Value::ZERO);
        assert_eq!(negmax(&root, 0).stats.nodes(), 1);
    }

    #[test]
    fn counts_every_node_of_a_complete_tree() {
        let spec = RandomTreeSpec::new(1, 3, 4);
        let r = negmax(&spec.root(), 4);
        // 3^0 + 3^1 + 3^2 + 3^3 interior, 3^4 leaves.
        assert_eq!(r.stats.interior_nodes, 1 + 3 + 9 + 27);
        assert_eq!(r.stats.leaf_nodes, 81);
    }

    #[test]
    fn agrees_with_arena_reference_negamax() {
        let spec = gametree::arena::node(vec![
            node(vec![leaf(4), leaf(-6), node(vec![leaf(2), leaf(2)])]),
            node(vec![leaf(-1), leaf(7)]),
            leaf(0),
        ]);
        let root = ArenaTree::root_of(&spec);
        assert_eq!(negmax(&root, 10).value, root.negamax());
    }

    #[test]
    fn tictactoe_is_a_draw() {
        let r = negmax(&TicTacToe::initial(), 9);
        assert_eq!(r.value, Value::ZERO);
        // The full game tree has a known node count: 549,946 including the
        // root (5,478 distinct states, but negmax counts tree nodes).
        assert_eq!(r.stats.nodes(), 549_946);
    }
}
