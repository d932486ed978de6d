//! Tic-tac-toe, the paper's Figure 1 example.
//!
//! "The value 0 at the root indicates that the game will end in a draw if
//! each player plays optimally." The crate tests verify exactly that, and
//! every search algorithm's test suite uses this game as a small real game
//! with variable branching factor.

use crate::position::GamePosition;
use crate::value::Value;

/// The eight winning lines as 9-bit masks (rows, columns, diagonals).
const LINES: [u16; 8] = [
    0b000_000_111,
    0b000_111_000,
    0b111_000_000,
    0b001_001_001,
    0b010_010_010,
    0b100_100_100,
    0b100_010_001,
    0b001_010_100,
];

const FULL: u16 = 0b111_111_111;

/// A tic-tac-toe position. `own` holds the stones of the player to move,
/// `opp` the opponent's.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TicTacToe {
    own: u16,
    opp: u16,
}

impl TicTacToe {
    /// The empty board, X to move.
    pub fn initial() -> TicTacToe {
        TicTacToe { own: 0, opp: 0 }
    }

    /// Builds a position from a 9-character string, row by row: 'x'/'X' for
    /// the player to move, 'o'/'O' for the opponent, anything else empty.
    pub fn from_str_board(s: &str) -> TicTacToe {
        let mut own = 0u16;
        let mut opp = 0u16;
        for (i, ch) in s.chars().filter(|c| !c.is_whitespace()).take(9).enumerate() {
            match ch {
                'x' | 'X' => own |= 1 << i,
                'o' | 'O' => opp |= 1 << i,
                _ => {}
            }
        }
        TicTacToe { own, opp }
    }

    fn won(stones: u16) -> bool {
        // (clippy's `manual_contains` suggestion is wrong here: the test is
        // "some line is fully covered", not membership of a single value.)
        #[allow(clippy::manual_contains)]
        LINES.iter().any(|&l| stones & l == l)
    }

    /// True iff the opponent (who just moved) has completed a line.
    pub fn opponent_won(&self) -> bool {
        Self::won(self.opp)
    }

    /// True iff the board is full.
    pub fn full(&self) -> bool {
        (self.own | self.opp) == FULL
    }

    /// The mover's and opponent's stone bitboards (9 bits each), for
    /// hashing and display.
    pub fn bitboards(&self) -> (u16, u16) {
        (self.own, self.opp)
    }
}

impl GamePosition for TicTacToe {
    type Move = u8;

    fn moves_into(&self, out: &mut Vec<u8>) {
        // The game ends as soon as a line is completed; the side to move
        // can never itself have a line (it would have ended the game).
        if self.opponent_won() {
            return;
        }
        let occupied = self.own | self.opp;
        out.reserve_exact(9 - occupied.count_ones() as usize);
        out.extend((0..9).filter(|&i| occupied & (1 << i) == 0));
    }

    fn play(&self, mv: &u8) -> TicTacToe {
        debug_assert!((self.own | self.opp) & (1 << mv) == 0, "square occupied");
        // Sides swap: the mover's stones become the opponent's.
        TicTacToe {
            own: self.opp,
            opp: self.own | (1 << mv),
        }
    }

    /// Loss/draw/win from the mover's view: −1 if the opponent has a line,
    /// otherwise 0 (a full search only evaluates terminals, where no other
    /// outcome is possible; as a heuristic mid-game this is a null
    /// evaluator, which is fine for a solved game).
    fn evaluate(&self) -> Value {
        if self.opponent_won() {
            Value::new(-1)
        } else {
            Value::ZERO
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn negamax(p: TicTacToe) -> Value {
        let kids = p.children();
        if kids.is_empty() {
            return p.evaluate();
        }
        kids.into_iter().map(|c| -negamax(c)).max().unwrap()
    }

    #[test]
    fn figure1_optimal_play_is_a_draw() {
        assert_eq!(negamax(TicTacToe::initial()), Value::ZERO);
    }

    #[test]
    fn initial_position_has_nine_moves() {
        assert_eq!(TicTacToe::initial().moves().len(), 9);
    }

    #[test]
    fn win_detection_rows_cols_diagonals() {
        let p = TicTacToe::from_str_board("ooo......");
        assert!(p.opponent_won());
        let p = TicTacToe::from_str_board("o..o..o..");
        assert!(p.opponent_won());
        let p = TicTacToe::from_str_board("o...o...o");
        assert!(p.opponent_won());
        let p = TicTacToe::from_str_board("..o.o.o..");
        assert!(p.opponent_won());
        let p = TicTacToe::from_str_board("oo.......");
        assert!(!p.opponent_won());
    }

    #[test]
    fn finished_game_has_no_moves() {
        let p = TicTacToe::from_str_board("ooo_xx_x_");
        assert!(p.moves().is_empty());
        assert_eq!(p.evaluate(), Value::new(-1));
    }

    #[test]
    fn play_swaps_sides() {
        let p = TicTacToe::initial().play(&4);
        // After X plays the center, O to move sees X's stone as opponent's.
        assert_eq!(p.moves().len(), 8);
        assert!(!p.moves().contains(&4));
    }

    #[test]
    fn a_forced_win_is_found() {
        // X (to move) has two in a row with the third square open twice
        // over: a fork. X wins.
        //   x x .
        //   x o .
        //   o . .
        let p = TicTacToe::from_str_board("xx.xo.o..");
        assert_eq!(negamax(p), Value::new(1));
    }

    #[test]
    fn a_forced_loss_is_detected() {
        // O (the opponent of the player to move) threatens two lines; the
        // mover can block only one.
        //   o o .
        //   o x .
        //   . . x
        let p = TicTacToe::from_str_board("oo.ox...x");
        assert_eq!(negamax(p), Value::new(-1));
    }

    #[test]
    fn draw_board_evaluates_to_zero() {
        let p = TicTacToe::from_str_board("xoxxoxoxo");
        // Board arrangement without a completed line for the opponent.
        assert!(p.full());
        assert_eq!(p.evaluate(), Value::ZERO);
    }
}
