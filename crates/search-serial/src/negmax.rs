//! The negmax procedure (paper §2, Knuth & Moore 1975): full-width
//! depth-first evaluation with no pruning. The reference "ground truth" for
//! every other algorithm.

use gametree::{GamePosition, SearchStats, Value};
use trace::TraceAccess;
use tt::{Bound, TtAccess};

use crate::control::{CtlAccess, CtlHook, CtlSearchResult};
use crate::hooks::{run_serial, Hooks, SerialBody};
use crate::SearchResult;

/// Evaluates `pos` to `depth` plies by exhaustive negamax.
pub fn negmax<P: GamePosition>(pos: &P, depth: u32) -> SearchResult {
    negmax_with(pos, depth, Hooks::default()).into()
}

/// [`negmax`] with a table, a control and a tracer attached. Every node
/// value is exact, so each position is stored `Exact` at its remaining
/// depth and an equal-depth hit replays the whole subtree from memory.
/// Negamax has no window and prunes nothing, so it takes no ordering
/// tables. A run the control aborted flags itself via `aborted` and its
/// value is partial.
pub fn negmax_with<P, T, C, R>(pos: &P, depth: u32, hooks: Hooks<T, C, R>) -> CtlSearchResult
where
    P: GamePosition,
    T: TtAccess<P>,
    C: CtlHook,
    R: TraceAccess,
{
    run_serial(hooks, Negmax { pos, depth })
}

/// The negamax recursion as a [`SerialBody`].
struct Negmax<'a, P> {
    pos: &'a P,
    depth: u32,
}

impl<P: GamePosition> SerialBody<P> for Negmax<'_, P> {
    fn run<T: TtAccess<P>, C: CtlAccess>(
        self,
        tt: T,
        ctl: C,
        stats: &mut SearchStats,
    ) -> Result<Value, Value> {
        negmax_rec(self.pos, self.depth, tt, ctl, stats).ok_or(Value::NEG_INF)
    }
}

fn negmax_rec<P: GamePosition, T: TtAccess<P>, C: CtlAccess>(
    pos: &P,
    depth: u32,
    tt: T,
    ctl: C,
    stats: &mut SearchStats,
) -> Option<Value> {
    if ctl.check().is_some() {
        return None;
    }
    // Negamax has no window, so only an equal-depth Exact entry helps.
    if let Some(p) = tt.probe(pos) {
        if p.depth == depth && p.bound == Bound::Exact {
            return Some(p.value);
        }
    }
    let moves = pos.moves();
    if depth == 0 || moves.is_empty() {
        stats.leaf_nodes += 1;
        stats.eval_calls += 1;
        let v = pos.evaluate();
        tt.store(pos, depth, v, Bound::Exact, None);
        return Some(v);
    }
    stats.interior_nodes += 1;
    let mut m = Value::NEG_INF;
    let mut best = None;
    for (i, mv) in moves.iter().enumerate() {
        // An abort below propagates before any store: partial values never
        // reach the table.
        let t = -negmax_rec(&pos.play(mv), depth - 1, tt, ctl, stats)?;
        if t > m {
            m = t;
            best = Some(i as u16);
        }
    }
    tt.store(pos, depth, m, Bound::Exact, best);
    Some(m)
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
