//! [`GamePosition`] implementation for Othello.

use gametree::{GamePosition, Value};

use crate::board::{square_name, Board};
use crate::eval::evaluate;

/// An Othello move: a disc placement or a forced pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Move {
    /// Place a disc on the square (0–63).
    Place(u8),
    /// Pass (legal only when the mover has no placement and the opponent
    /// does).
    Pass,
}

impl std::fmt::Display for Move {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Move::Place(sq) => write!(f, "{}", square_name(*sq)),
            Move::Pass => write!(f, "pass"),
        }
    }
}

/// An Othello position (board + side to move, implicitly "the mover").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct OthelloPos {
    /// The underlying bitboard.
    pub board: Board,
}

impl OthelloPos {
    /// The standard initial position.
    pub fn initial() -> OthelloPos {
        OthelloPos {
            board: Board::initial(),
        }
    }

    /// Wraps an arbitrary board.
    pub fn new(board: Board) -> OthelloPos {
        OthelloPos { board }
    }

    /// True when the position is tactically unstable at a depth horizon —
    /// the quiescence-extension trigger (`SelectivityConfig` in
    /// `search-serial`). Two conditions, both cheap bitboard counts:
    ///
    /// * a *forced pass* (the mover has no placement but the opponent
    ///   does): the static evaluator scores a position where the initiative
    ///   just changed hands for free, the classic horizon distortion;
    /// * a *large mobility swing* — one side has at least
    ///   [`MOBILITY_SWING_THRESHOLD`] more legal placements than the other:
    ///   mobility dominates the midgame evaluator, and lopsided mobility is
    ///   exactly where one more ply routinely flips the assessment.
    ///
    /// A finished game (neither side can move) is terminal, never unstable.
    pub fn tactically_unstable(&self) -> bool {
        let own = self.board.legal_moves().count_ones();
        let opp = self.board.swapped().legal_moves().count_ones();
        if own == 0 {
            return opp > 0;
        }
        own.abs_diff(opp) >= MOBILITY_SWING_THRESHOLD
    }
}

/// Mobility-swing threshold of [`OthelloPos::tactically_unstable`]: the
/// smallest legal-placement difference between mover and opponent that
/// counts as unstable.
pub const MOBILITY_SWING_THRESHOLD: u32 = 6;

impl GamePosition for OthelloPos {
    type Move = Move;

    fn moves_into(&self, out: &mut Vec<Move>) {
        let mut m = self.board.legal_moves();
        if m == 0 {
            // No placement: pass if the opponent can move, otherwise the
            // game is over.
            if self.board.swapped().has_moves() {
                out.reserve_exact(1);
                out.push(Move::Pass);
            }
            return;
        }
        let n = m.count_ones() as usize;
        // A fresh vector (the `moves()` case) is allocated in one step:
        // `reserve_exact` on an empty vector costs a few ns more per call.
        if out.capacity() == 0 {
            *out = Vec::with_capacity(n);
        } else {
            out.reserve_exact(n);
        }
        while m != 0 {
            out.push(Move::Place(m.trailing_zeros() as u8));
            m &= m - 1;
        }
    }

    fn play(&self, mv: &Move) -> OthelloPos {
        match mv {
            Move::Place(sq) => OthelloPos {
                board: self.board.play(*sq),
            },
            Move::Pass => OthelloPos {
                board: self.board.swapped(),
            },
        }
    }

    fn evaluate(&self) -> Value {
        evaluate(&self.board)
    }

    fn unstable(&self) -> bool {
        self.tactically_unstable()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::board::Board;

    #[test]
    fn initial_has_four_moves() {
        assert_eq!(OthelloPos::initial().moves().len(), 4);
    }

    #[test]
    fn pass_is_generated_only_when_forced() {
        // Mover has no placement; opponent does.
        let b = Board::from_str_board(
            ". . . . . . . o
             . . . . . . . o
             . . . . . . . x
             . . . . . . . .
             . . . . . . . .
             . . . . . . . .
             . . . . . . . .
             . . . . . . . .",
        );
        // x at h3 flanks nothing for the mover (x): own rays upward hit o,o
        // then the edge. Opponent (o) can play at h4 flipping h3.
        let p = OthelloPos::new(b);
        if p.board.legal_moves() == 0 && p.board.swapped().has_moves() {
            assert_eq!(p.moves(), vec![Move::Pass]);
            // Playing the pass swaps sides without changing discs.
            let q = p.play(&Move::Pass);
            assert_eq!(q.board.occupancy(), p.board.occupancy());
            assert!(q.board.has_moves());
        } else {
            panic!("test position must be a forced pass: {}", p.board.render());
        }
    }

    #[test]
    fn game_over_yields_no_moves() {
        let b = Board {
            own: u64::MAX >> 32,
            opp: u64::MAX << 32,
        };
        assert!(OthelloPos::new(b).moves().is_empty());
    }

    #[test]
    fn greedy_playout_terminates_with_legal_states() {
        // Drive a full game taking the first legal move each turn; the loop
        // must terminate (no infinite pass ping-pong) with discs <= 64.
        let mut p = OthelloPos::initial();
        let mut plies = 0;
        loop {
            let moves = p.moves();
            if moves.is_empty() {
                break;
            }
            p = p.play(&moves[0]);
            plies += 1;
            assert!(plies <= 130, "runaway game");
            assert!(p.board.own & p.board.opp == 0);
        }
        assert!(p.board.occupancy() <= 64);
        assert!(p.board.game_over());
    }

    #[test]
    fn initial_position_is_stable() {
        // Both sides have four placements: no swing, no forced pass.
        assert!(!OthelloPos::initial().tactically_unstable());
    }

    #[test]
    fn forced_pass_is_unstable() {
        let b = Board::from_str_board(
            ". . . . . . . o
             . . . . . . . o
             . . . . . . . x
             . . . . . . . .
             . . . . . . . .
             . . . . . . . .
             . . . . . . . .
             . . . . . . . .",
        );
        let p = OthelloPos::new(b);
        assert_eq!(p.board.legal_moves(), 0, "mover must be forced to pass");
        assert!(p.board.swapped().has_moves());
        assert!(p.tactically_unstable());
    }

    #[test]
    fn finished_game_is_terminal_not_unstable() {
        let b = Board {
            own: u64::MAX >> 32,
            opp: u64::MAX << 32,
        };
        assert!(!OthelloPos::new(b).tactically_unstable());
    }

    #[test]
    fn move_display_names() {
        assert_eq!(Move::Place(0).to_string(), "a1");
        assert_eq!(Move::Place(63).to_string(), "h8");
        assert_eq!(Move::Pass.to_string(), "pass");
    }
}
