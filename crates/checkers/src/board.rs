//! English draughts (checkers) bitboards.
//!
//! The 32 dark squares are indexed 0–31: square `i` sits at row `i / 4`
//! (row 0 at the bottom, the mover's home) and column `2*(i % 4) + 1` on
//! even rows / `2*(i % 4)` on odd rows. The board is always oriented from
//! the mover's point of view — the mover's men advance toward row 7 — and
//! [`Board::play`] swaps sides and rotates the board 180° (a bit reversal)
//! so that invariant is maintained.
//!
//! Rules implemented: men move one step diagonally forward, kings one step
//! in any diagonal direction; captures jump over an adjacent enemy piece
//! to the empty square beyond and are **compulsory**; multi-jumps continue
//! while further jumps exist (a captured piece cannot be jumped twice);
//! a man promotes on reaching row 7, which ends the move. A player with
//! no legal move loses.

/// A complete move: the squares visited (`path[0]` is the origin) and the
/// mask of captured enemy pieces.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Move {
    /// Squares visited, origin first. Quiet moves have two entries;
    /// multi-jumps one per landing.
    pub path: Vec<u8>,
    /// Bitmask of captured enemy squares (pre-flip coordinates).
    pub captures: u32,
}

impl Move {
    /// Origin square.
    pub fn from(&self) -> u8 {
        self.path[0]
    }

    /// Destination square.
    pub fn to(&self) -> u8 {
        *self.path.last().expect("non-empty path")
    }

    /// True iff this move captures at least one piece.
    pub fn is_capture(&self) -> bool {
        self.captures != 0
    }
}

impl std::fmt::Display for Move {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sep = if self.is_capture() { "x" } else { "-" };
        let parts: Vec<String> = self.path.iter().map(|s| (s + 1).to_string()).collect();
        write!(f, "{}", parts.join(sep))
    }
}

/// Row (0–7, mover's home row is 0) of a square index.
#[inline]
fn row(i: u8) -> i8 {
    (i / 4) as i8
}

/// Column (0–7) of a square index.
#[inline]
fn col(i: u8) -> i8 {
    let r = i / 4;
    let c2 = i % 4;
    if r.is_multiple_of(2) {
        (2 * c2 + 1) as i8
    } else {
        (2 * c2) as i8
    }
}

/// Index of the dark square at (row, col), if it is a dark square on the
/// board.
#[inline]
fn index(r: i8, c: i8) -> Option<u8> {
    if !(0..8).contains(&r) || !(0..8).contains(&c) {
        return None;
    }
    let dark = if r % 2 == 0 { c % 2 == 1 } else { c % 2 == 0 };
    if !dark {
        return None;
    }
    Some((r * 4 + c / 2) as u8)
}

/// The four diagonal directions as (dr, dc).
const DIRS: [(i8, i8); 4] = [(1, -1), (1, 1), (-1, -1), (-1, 1)];

/// Diagonal neighbour of `i` in direction `d` (0/1 forward, 2/3 backward).
#[inline]
fn step(i: u8, d: usize) -> Option<u8> {
    let (dr, dc) = DIRS[d];
    index(row(i) + dr, col(i) + dc)
}

/// An English-draughts position from the mover's point of view.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Board {
    /// The mover's men (advance toward row 7).
    pub own_men: u32,
    /// The mover's kings.
    pub own_kings: u32,
    /// Opponent men (advance toward row 0).
    pub opp_men: u32,
    /// Opponent kings.
    pub opp_kings: u32,
}

impl Board {
    /// The standard initial position (the mover occupies rows 0–2).
    pub fn initial() -> Board {
        Board {
            own_men: 0x0000_0FFF,
            own_kings: 0,
            opp_men: 0xFFF0_0000,
            opp_kings: 0,
        }
    }

    /// All of the mover's pieces.
    #[inline]
    pub fn own(&self) -> u32 {
        self.own_men | self.own_kings
    }

    /// All opponent pieces.
    #[inline]
    pub fn opp(&self) -> u32 {
        self.opp_men | self.opp_kings
    }

    /// Empty squares.
    #[inline]
    pub fn empty(&self) -> u32 {
        !(self.own() | self.opp())
    }

    /// Directions a piece on `sq` may use: men only forward (toward row
    /// 7), kings all four.
    fn piece_dirs(&self, sq: u8) -> &'static [usize] {
        if self.own_kings & (1 << sq) != 0 {
            &[0, 1, 2, 3]
        } else {
            &[0, 1]
        }
    }

    /// Extends a jump sequence from `sq`; pushes every maximal-by-rule
    /// continuation into `out`. `captured` is the mask already jumped.
    fn extend_jumps(
        &self,
        sq: u8,
        king: bool,
        path: &mut Vec<u8>,
        captured: u32,
        out: &mut Vec<Move>,
    ) {
        let dirs: &[usize] = if king { &[0, 1, 2, 3] } else { &[0, 1] };
        let mut extended = false;
        for &d in dirs {
            let Some(over) = step(sq, d) else { continue };
            let Some(land) = step(over, d) else { continue };
            let over_bit = 1u32 << over;
            let land_bit = 1u32 << land;
            // The jumped piece must be an un-jumped enemy; the landing
            // square empty (the origin square counts as empty mid-jump).
            if self.opp() & over_bit == 0 || captured & over_bit != 0 {
                continue;
            }
            let origin_bit = 1u32 << path[0];
            let occupied = (self.own() | self.opp()) & !origin_bit & !captured;
            if occupied & land_bit != 0 {
                continue;
            }
            // A man promoting on the last row stops there (English rule).
            let promotes = !king && row(land) == 7;
            path.push(land);
            if promotes {
                out.push(Move {
                    path: path.clone(),
                    captures: captured | over_bit,
                });
            } else {
                self.extend_jumps(land, king, path, captured | over_bit, out);
            }
            path.pop();
            extended = true;
        }
        if !extended && path.len() > 1 {
            out.push(Move {
                path: path.clone(),
                captures: captured,
            });
        }
    }

    /// All legal moves for the mover. Captures are compulsory: if any
    /// jump exists, only jumps are returned.
    pub fn legal_moves(&self) -> Vec<Move> {
        let mut moves = Vec::new();
        self.legal_moves_into(&mut moves);
        moves
    }

    /// Appends [`legal_moves`](Board::legal_moves) to `out`, reserving
    /// exactly the room they take.
    pub fn legal_moves_into(&self, out: &mut Vec<Move>) {
        let mut jumps = Vec::new();
        let mut path = Vec::new();
        let mut pieces = self.own();
        while pieces != 0 {
            let sq = pieces.trailing_zeros() as u8;
            pieces &= pieces - 1;
            let king = self.own_kings & (1 << sq) != 0;
            path.clear();
            path.push(sq);
            self.extend_jumps(sq, king, &mut path, 0, &mut jumps);
        }
        if !jumps.is_empty() {
            out.reserve_exact(jumps.len());
            out.append(&mut jumps);
            return;
        }
        // At most 12 pieces with 4 directions each: stage the quiet moves
        // on the stack so `out` grows once, by their exact number.
        let mut quiet = [(0u8, 0u8); 48];
        let mut n = 0;
        let empty = self.empty();
        let mut pieces = self.own();
        while pieces != 0 {
            let sq = pieces.trailing_zeros() as u8;
            pieces &= pieces - 1;
            for &d in self.piece_dirs(sq) {
                if let Some(to) = step(sq, d) {
                    if empty & (1 << to) != 0 {
                        quiet[n] = (sq, to);
                        n += 1;
                    }
                }
            }
        }
        out.reserve_exact(n);
        out.extend(quiet[..n].iter().map(|&(sq, to)| Move {
            path: vec![sq, to],
            captures: 0,
        }));
    }

    /// Plays `mv`, returning the position with the opponent to move (board
    /// rotated 180° so the new mover also advances toward row 7).
    pub fn play(&self, mv: &Move) -> Board {
        let from_bit = 1u32 << mv.from();
        let to = mv.to();
        let to_bit = 1u32 << to;
        debug_assert!(self.own() & from_bit != 0, "no piece on origin");

        let was_king = self.own_kings & from_bit != 0;
        let promotes = !was_king && row(to) == 7;

        let mut own_men = self.own_men & !from_bit;
        let mut own_kings = self.own_kings & !from_bit;
        if was_king || promotes {
            own_kings |= to_bit;
        } else {
            own_men |= to_bit;
        }
        let opp_men = self.opp_men & !mv.captures;
        let opp_kings = self.opp_kings & !mv.captures;

        // Swap sides and rotate: bit i maps to bit 31 - i.
        Board {
            own_men: opp_men.reverse_bits(),
            own_kings: opp_kings.reverse_bits(),
            opp_men: own_men.reverse_bits(),
            opp_kings: own_kings.reverse_bits(),
        }
    }

    /// Total pieces on the board.
    pub fn piece_count(&self) -> u32 {
        (self.own() | self.opp()).count_ones()
    }

    /// ASCII rendering, row 7 (opponent's home) on top; `m`/`k` mover's
    /// man/king, `o`/`q` opponent's.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for r in (0..8i8).rev() {
            for c in 0..8i8 {
                let ch = match index(r, c) {
                    None => ' ',
                    Some(i) => {
                        let b = 1u32 << i;
                        if self.own_men & b != 0 {
                            'm'
                        } else if self.own_kings & b != 0 {
                            'k'
                        } else if self.opp_men & b != 0 {
                            'o'
                        } else if self.opp_kings & b != 0 {
                            'q'
                        } else {
                            '.'
                        }
                    }
                };
                s.push(ch);
            }
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn perft(b: &Board, depth: u32) -> u64 {
        if depth == 0 {
            return 1;
        }
        let moves = b.legal_moves();
        if moves.is_empty() {
            return 1;
        }
        moves.iter().map(|m| perft(&b.play(m), depth - 1)).sum()
    }

    #[test]
    fn square_geometry_round_trips() {
        for i in 0..32u8 {
            assert_eq!(index(row(i), col(i)), Some(i));
        }
        // Light squares are not addressable.
        assert_eq!(index(0, 0), None);
        assert_eq!(index(7, 7), None);
        assert_eq!(index(-1, 1), None);
        assert_eq!(index(8, 1), None);
    }

    #[test]
    fn initial_position_shape() {
        let b = Board::initial();
        assert_eq!(b.own().count_ones(), 12);
        assert_eq!(b.opp().count_ones(), 12);
        assert_eq!(b.own_kings | b.opp_kings, 0);
        assert_eq!(b.own() & b.opp(), 0);
    }

    /// Classic English-draughts perft from the initial position, index =
    /// depth - 1 (first capture opportunities appear inside this horizon,
    /// so the table pins the forced-capture rule as well as quiet moves).
    const PERFT_TABLE: [u64; 8] = [7, 49, 302, 1469, 7361, 36768, 179740, 845931];

    #[test]
    fn perft_matches_known_values() {
        let b = Board::initial();
        for (i, &want) in PERFT_TABLE.iter().enumerate() {
            let depth = i as u32 + 1;
            assert_eq!(perft(&b, depth), want, "perft({depth})");
        }
    }

    #[test]
    fn captures_are_compulsory() {
        // Mover man on 13 (row 3), enemy man on 17 (row 4) diagonally
        // adjacent with an empty landing: the only legal moves are jumps.
        let mut b = Board {
            own_men: 1 << 13,
            own_kings: 0,
            opp_men: 0,
            opp_kings: 0,
        };
        // Find a forward neighbour of 13 and the landing beyond it.
        let over = step(13, 0).unwrap();
        let land = step(over, 0).unwrap();
        b.opp_men = 1 << over;
        let moves = b.legal_moves();
        assert!(moves.iter().all(|m| m.is_capture()), "jumps are forced");
        assert_eq!(moves.len(), 1);
        assert_eq!(moves[0].path, vec![13, land]);
        assert_eq!(moves[0].captures, 1 << over);
    }

    #[test]
    fn multi_jump_continues() {
        // Chain two enemy men with empty landings along the up-right
        // diagonal: the jump must take both.
        let start = 0u8; // row 0, column 1
        let over1 = step(start, 1).unwrap();
        let land1 = step(over1, 1).unwrap();
        let over2 = step(land1, 1).unwrap();
        let land2 = step(over2, 1).unwrap();
        let b = Board {
            own_men: 1 << start,
            own_kings: 0,
            opp_men: (1 << over1) | (1 << over2),
            opp_kings: 0,
        };
        let moves = b.legal_moves();
        assert_eq!(moves.len(), 1, "single maximal jump line");
        assert_eq!(moves[0].path, vec![start, land1, land2]);
        assert_eq!(moves[0].captures.count_ones(), 2);
        let after = b.play(&moves[0]);
        assert_eq!(
            after.opp().count_ones(),
            1,
            "mover's piece survives, flipped"
        );
        assert_eq!(after.own().count_ones(), 0, "both enemy men are gone");
    }

    #[test]
    fn man_promotes_and_stops() {
        // A man jumping onto row 7 becomes a king and the move ends even
        // if another jump would exist.
        let start = index(5, 2).unwrap();
        let over1 = step(start, 0).unwrap(); // row 6
        let land1 = step(over1, 0).unwrap(); // row 7: promotion square
        let b = Board {
            own_men: 1 << start,
            own_kings: 0,
            opp_men: 1 << over1,
            opp_kings: 0,
        };
        let moves = b.legal_moves();
        assert_eq!(moves.len(), 1);
        assert_eq!(moves[0].to(), land1);
        let after = b.play(&moves[0]);
        // The promoted king appears on the flipped board as an opp king.
        assert_eq!(after.opp_kings.count_ones(), 1);
        assert_eq!(after.opp_men, 0);
    }

    #[test]
    fn kings_move_backward_men_do_not() {
        let sq = index(4, 3).unwrap();
        let man = Board {
            own_men: 1 << sq,
            own_kings: 0,
            opp_men: 0,
            opp_kings: 0,
        };
        let king = Board {
            own_men: 0,
            own_kings: 1 << sq,
            opp_men: 0,
            opp_kings: 0,
        };
        assert_eq!(man.legal_moves().len(), 2, "men move forward only");
        assert_eq!(king.legal_moves().len(), 4, "kings move all diagonals");
    }

    #[test]
    fn play_flips_perspective() {
        let b = Board::initial();
        let mv = &b.legal_moves()[0];
        let after = b.play(mv);
        // After the flip the new mover (previous opponent) again has 12
        // pieces advancing toward row 7 from rows 0–2.
        assert_eq!(after.own().count_ones(), 12);
        assert_eq!(after.own() & 0x0000_0FFF, 0x0000_0FFF);
    }

    #[test]
    fn blocked_player_has_no_moves() {
        // A lone man on row 7... cannot exist (it would have promoted);
        // instead block a man in a corner with enemy pieces.
        let corner = index(0, 7).unwrap(); // square 3 region
        let f = step(corner, 0); // only one forward neighbour from the edge
        let b = Board {
            own_men: 1 << corner,
            own_kings: 0,
            // Occupy the forward neighbour and its landing so neither a
            // move nor a jump is possible.
            opp_men: f.map(|x| 1u32 << x).unwrap_or(0)
                | f.and_then(|x| step(x, 0)).map(|x| 1u32 << x).unwrap_or(0)
                | f.and_then(|x| step(x, 1)).map(|x| 1u32 << x).unwrap_or(0),
            opp_kings: 0,
        };
        // Either fully blocked (no moves) or only jumps; both are fine as
        // long as no quiet move leaks through the blockade.
        assert!(b.legal_moves().iter().all(|m| m.is_capture()));
    }

    #[test]
    fn move_display_uses_standard_numbering() {
        let b = Board::initial();
        let mv = &b.legal_moves()[0];
        let s = mv.to_string();
        assert!(s.contains('-'), "quiet opening move: {s}");
    }
}
