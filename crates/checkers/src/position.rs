//! [`GamePosition`] implementation and static evaluation for checkers.

use gametree::{GamePosition, Value};

use crate::board::{Board, Move};

/// A man is worth 100; a king half again as much.
const MAN: i32 = 100;
const KING: i32 = 150;
/// Losing (no legal move) scores far outside the heuristic range.
const LOSS: i32 = 100_000;

/// Quiet plies (no capture, no man move) after which the game is drawn —
/// the 40-ply analogue of the over-the-board "40 moves without progress"
/// rule. Men always advance, so any man move is progress; only kings can
/// shuffle indefinitely, and this counter is what lets king-shuffle
/// endgames legally *end* instead of cycling forever.
pub const DRAW_PLIES: u8 = 40;

/// A checkers position (board + implicit side to move + draw counter).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CheckersPos {
    /// The underlying bitboard (mover's perspective).
    pub board: Board,
    /// Consecutive plies without a capture or a man move, saturating at
    /// [`DRAW_PLIES`]. Part of the position identity (it changes both the
    /// legal continuations and the value), so it participates in `Eq`,
    /// `Hash`, and the Zobrist key.
    pub quiet_plies: u8,
}

impl CheckersPos {
    /// The standard initial position.
    pub fn initial() -> CheckersPos {
        CheckersPos {
            board: Board::initial(),
            quiet_plies: 0,
        }
    }

    /// Wraps an arbitrary board with a fresh draw counter.
    pub fn new(board: Board) -> CheckersPos {
        CheckersPos {
            board,
            quiet_plies: 0,
        }
    }

    /// True once [`DRAW_PLIES`] quiet plies have accumulated: the game is
    /// drawn, no further moves are legal.
    pub fn is_draw(&self) -> bool {
        self.quiet_plies >= DRAW_PLIES
    }

    /// True when no side can continue: drawn by the quiet-ply rule, or
    /// the mover is blocked (which loses).
    pub fn game_over(&self) -> bool {
        self.is_draw() || self.board.legal_moves().is_empty()
    }

    /// The Zobrist key of the bare board, ignoring the draw counter —
    /// repetition detection wants "same diagram, same side to move",
    /// which repeats with *increasing* counters and therefore distinct
    /// full [`tt::Zobrist`] keys.
    pub fn board_key(&self) -> u64 {
        use tt::Zobrist;
        CheckersPos::new(self.board).zobrist()
    }
}

/// Material + advancement + back-rank guard, from the mover's view.
/// A blocked player (no moves) has lost.
pub fn evaluate(board: &Board) -> Value {
    if board.legal_moves().is_empty() {
        return Value::new(-LOSS);
    }
    let material = MAN * (board.own_men.count_ones() as i32 - board.opp_men.count_ones() as i32)
        + KING * (board.own_kings.count_ones() as i32 - board.opp_kings.count_ones() as i32);

    // Advancement: men further up the board are worth a little more. Own
    // men advance toward row 7, opponent men toward row 0.
    let mut adv = 0i32;
    let mut m = board.own_men;
    while m != 0 {
        let sq = m.trailing_zeros();
        m &= m - 1;
        adv += (sq / 4) as i32;
    }
    let mut m = board.opp_men;
    while m != 0 {
        let sq = m.trailing_zeros();
        m &= m - 1;
        adv -= (7 - sq / 4) as i32;
    }

    // Keeping the back rank intact delays enemy promotion.
    let guard = (board.own_men & 0x0000_000F).count_ones() as i32
        - (board.opp_men & 0xF000_0000).count_ones() as i32;

    Value::new(material + 2 * adv + 6 * guard)
}

impl GamePosition for CheckersPos {
    type Move = Move;

    fn moves_into(&self, out: &mut Vec<Move>) {
        if !self.is_draw() {
            // Drawn: terminal, like a double-pass.
            self.board.legal_moves_into(out);
        }
    }

    fn play(&self, mv: &Move) -> CheckersPos {
        // A capture or a man move (men can only advance) is progress and
        // resets the counter; a quiet king move accrues toward the draw.
        let progress = mv.is_capture() || self.board.own_men & (1u32 << mv.from()) != 0;
        CheckersPos {
            board: self.board.play(mv),
            quiet_plies: if progress {
                0
            } else {
                (self.quiet_plies + 1).min(DRAW_PLIES)
            },
        }
    }

    fn evaluate(&self) -> Value {
        if self.is_draw() {
            return Value::ZERO; // the draw rule fires before blocked-loss
        }
        evaluate(&self.board)
    }
}

/// A reproducible mid-game benchmark position: `plies` moves of
/// deterministic self-play (one-ply greedy, rank cycling like the Othello
/// benchmark roots).
pub fn benchmark_position(plies: u32, pattern: &[usize]) -> CheckersPos {
    let mut pos = CheckersPos::initial();
    for ply in 0..plies {
        let moves = pos.moves();
        if moves.is_empty() {
            break;
        }
        let mut scored: Vec<(Value, &Move)> = moves
            .iter()
            .map(|m| (evaluate(&pos.play(m).board), m))
            .collect();
        scored.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.path.cmp(&b.1.path)));
        let rank = pattern[ply as usize % pattern.len()].min(scored.len() - 1);
        let mv = scored[rank].1.clone();
        pos = pos.play(&mv);
    }
    pos
}

/// The checkers benchmark root C1 used by the comparison experiments
/// (Fishburn's tree-splitting testbed was checkers, §4.3).
pub fn c1() -> CheckersPos {
    benchmark_position(12, &[0, 1])
}

/// A deeper middle game with kings in play.
pub fn c2() -> CheckersPos {
    benchmark_position(24, &[0, 1, 2])
}

/// An early opening position (quiet, no captures pending).
pub fn c3() -> CheckersPos {
    benchmark_position(6, &[0])
}

/// All three checkers benchmark roots.
pub fn all() -> Vec<(&'static str, CheckersPos)> {
    vec![("C1", c1()), ("C2", c2()), ("C3", c3())]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn negamax(p: CheckersPos, depth: u32) -> Value {
        let kids = p.moves();
        if depth == 0 || kids.is_empty() {
            return p.evaluate();
        }
        kids.iter()
            .map(|m| -negamax(p.play(m), depth - 1))
            .max()
            .unwrap()
    }

    #[test]
    fn initial_position_is_balanced() {
        assert_eq!(evaluate(&Board::initial()), Value::ZERO);
    }

    #[test]
    fn evaluation_is_antisymmetric_in_material() {
        let b = Board {
            own_men: 0x0000_00FF,
            own_kings: 1 << 16,
            opp_men: 0xFF00_0000,
            opp_kings: 1 << 15,
        };
        let flipped = Board {
            own_men: b.opp_men.reverse_bits(),
            own_kings: b.opp_kings.reverse_bits(),
            opp_men: b.own_men.reverse_bits(),
            opp_kings: b.own_kings.reverse_bits(),
        };
        assert_eq!(evaluate(&b), -evaluate(&flipped));
    }

    #[test]
    fn blocked_position_is_a_loss() {
        // No pieces at all: no moves, mover loses.
        let b = Board {
            own_men: 0,
            own_kings: 0,
            opp_men: 1,
            opp_kings: 0,
        };
        assert_eq!(evaluate(&b), Value::new(-100_000));
        assert!(CheckersPos::new(b).moves().is_empty());
    }

    #[test]
    fn kings_outweigh_men() {
        let king = Board {
            own_men: 0,
            own_kings: 1 << 13,
            opp_men: 1 << 18,
            opp_kings: 0,
        };
        assert!(evaluate(&king) > Value::ZERO);
    }

    #[test]
    fn shallow_search_prefers_winning_captures() {
        // Mover can capture a piece for free: 2-ply value must be positive.
        let b = Board {
            own_men: (1 << 13) | 1,
            own_kings: 0,
            opp_men: (1 << 16) | (1 << 30),
            opp_kings: 0,
        };
        let v = negamax(CheckersPos::new(b), 2);
        assert!(v > Value::ZERO, "free capture should win material: {v}");
    }

    #[test]
    fn benchmark_position_is_midgame_and_deterministic() {
        let a = c1();
        let b = c1();
        assert_eq!(a, b);
        assert!(!a.moves().is_empty());
        assert!(a.board.piece_count() >= 16, "still mid-game");
    }

    #[test]
    fn all_benchmark_positions_are_live_and_distinct() {
        let ps = all();
        assert_eq!(ps.len(), 3);
        for (name, p) in &ps {
            assert!(!p.moves().is_empty(), "{name} must have moves");
            assert!(p.board.piece_count() >= 12, "{name} not an endgame");
        }
        assert_ne!(ps[0].1, ps[1].1);
        assert_ne!(ps[0].1, ps[2].1);
        assert_ne!(ps[1].1, ps[2].1);
    }

    #[test]
    fn selfplay_terminates() {
        // With the quiet-ply draw rule, first-move self-play terminates
        // *legally*: either a side is blocked (loss) or 40 quiet plies
        // accumulate (draw). The 10_000 cap is a safety net for the
        // assertion message, not a rules substitute.
        let mut pos = CheckersPos::initial();
        let mut plies = 0;
        while !pos.moves().is_empty() {
            pos = pos.play(&pos.moves()[0]);
            plies += 1;
            assert!(plies < 10_000, "self-play must terminate under the rules");
        }
        assert!(plies > 20, "a real game lasts a while");
        assert!(
            pos.is_draw() || pos.board.legal_moves().is_empty(),
            "termination must come from the rules"
        );
        assert!(pos.game_over());
    }

    #[test]
    fn quiet_counter_tracks_progress() {
        // Two lone kings shuffling: every ply is quiet.
        let kings = CheckersPos::new(Board {
            own_men: 0,
            own_kings: 1,
            opp_men: 0,
            opp_kings: 1 << 31,
        });
        let after = kings.play(&kings.moves()[0]);
        assert_eq!(after.quiet_plies, 1, "king move is quiet");

        // A man move resets (and the initial position only has man moves).
        let start = CheckersPos {
            quiet_plies: 17,
            ..CheckersPos::initial()
        };
        let after = start.play(&start.moves()[0]);
        assert_eq!(after.quiet_plies, 0, "man move is progress");

        // A king capture also resets.
        let capture = CheckersPos {
            board: Board {
                own_men: 0,
                own_kings: 1 << 13,
                opp_men: 1 << 17,
                opp_kings: 0,
            },
            quiet_plies: 30,
        };
        let mv = capture
            .moves()
            .into_iter()
            .find(|m| m.is_capture())
            .expect("capture available");
        assert_eq!(capture.play(&mv).quiet_plies, 0, "capture is progress");
    }

    #[test]
    fn forty_quiet_plies_draw_the_game() {
        let mut pos = CheckersPos::new(Board {
            own_men: 0,
            own_kings: 1,
            opp_men: 0,
            opp_kings: 1 << 31,
        });
        for ply in 0..u32::from(DRAW_PLIES) {
            assert!(!pos.is_draw(), "not drawn at quiet ply {ply}");
            assert!(!pos.moves().is_empty(), "play continues at quiet ply {ply}");
            pos = pos.play(&pos.moves()[0]);
        }
        assert!(pos.is_draw());
        assert!(pos.game_over());
        assert!(pos.moves().is_empty(), "a drawn game has no legal moves");
        assert_eq!(pos.evaluate(), Value::ZERO, "a draw scores zero");
        // The counter saturates rather than wrapping back to live play.
        assert_eq!(pos.quiet_plies, DRAW_PLIES);
    }

    #[test]
    fn draw_counter_is_part_of_position_identity() {
        use tt::Zobrist;
        let a = CheckersPos::initial();
        let b = CheckersPos {
            quiet_plies: 5,
            ..a
        };
        assert_ne!(a, b);
        assert_ne!(a.zobrist(), b.zobrist(), "counter must split TT entries");
        assert_eq!(a.board_key(), b.board_key(), "same diagram for repetition");
        assert_eq!(a.zobrist(), a.board_key(), "zero counter folds nothing");
    }
}
