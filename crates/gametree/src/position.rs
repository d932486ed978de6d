//! The game-position abstraction all search algorithms operate on.

use crate::value::Value;

/// A position in a two-person zero-sum game, seen from the player to move.
///
/// This is the caller-supplied interface from the paper's §6: "The caller
/// supplies a procedure for generating nodes of the game tree \[and\] a static
/// evaluation function". Search algorithms additionally take a depth limit;
/// a node is treated as terminal when the limit reaches zero or when
/// [`moves`](GamePosition::moves) is empty (game over).
pub trait GamePosition: Clone + Send + Sync {
    /// A move from this position.
    type Move: Clone + Send + Sync + std::fmt::Debug;

    /// Appends all legal moves to `out`, leaving what `out` already holds
    /// untouched. Appending none means the game is over here.
    ///
    /// This is each game's one move generator. The order of the appended
    /// moves is the engine's *natural* order; search algorithms may
    /// re-order children (e.g. by static value) according to their
    /// ordering policy. Implementations reserve exactly the room they
    /// need (`reserve_exact`) before pushing, so [`moves`](Self::moves)
    /// allocates once with exact capacity; a search that appends every
    /// node's moves to one stack keeps its own headroom instead.
    fn moves_into(&self, out: &mut Vec<Self::Move>);

    /// All legal moves in a fresh vector whose capacity equals its length.
    /// An empty vector means the game is over here.
    fn moves(&self) -> Vec<Self::Move> {
        let mut out = Vec::new();
        self.moves_into(&mut out);
        out
    }

    /// The position reached by playing `mv`.
    fn play(&self, mv: &Self::Move) -> Self;

    /// The static evaluator: a heuristic score of this position from the
    /// point of view of the player to move (paper §2). Must be finite.
    fn evaluate(&self) -> Value;

    /// Convenience: all successor positions, in natural move order.
    fn children(&self) -> Vec<Self> {
        self.moves().iter().map(|m| self.play(m)).collect()
    }

    /// Number of legal moves without materializing successor positions.
    fn degree(&self) -> usize {
        self.moves().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature hard-coded game for exercising the trait's defaults:
    /// value `n` has children `n*2` and `n*2+1` while `n < 4`.
    #[derive(Clone, Debug, PartialEq)]
    struct Doubling(i32);

    impl GamePosition for Doubling {
        type Move = i32;

        fn moves_into(&self, out: &mut Vec<i32>) {
            if self.0 < 4 {
                out.reserve_exact(2);
                out.extend([0, 1]);
            }
        }

        fn play(&self, mv: &i32) -> Doubling {
            Doubling(self.0 * 2 + mv)
        }

        fn evaluate(&self) -> Value {
            Value::new(self.0)
        }
    }

    #[test]
    fn children_follow_move_order() {
        let p = Doubling(2);
        assert_eq!(p.children(), vec![Doubling(4), Doubling(5)]);
    }

    #[test]
    fn degree_matches_move_count() {
        assert_eq!(Doubling(1).degree(), 2);
        assert_eq!(Doubling(9).degree(), 0);
    }

    #[test]
    fn terminal_positions_have_no_children() {
        assert!(Doubling(5).children().is_empty());
    }
}
