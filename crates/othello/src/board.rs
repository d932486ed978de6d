//! Othello bitboards.
//!
//! The board is a pair of 64-bit masks, one per colour, indexed row-major
//! with a1 = bit 0 and h8 = bit 63. Move generation and disc flipping use
//! branchless Kogge–Stone parallel-prefix flood fills over the eight ray
//! directions: each direction is four shift/mask steps (one seed, one
//! serial step, two doubling steps), enough to propagate through the
//! longest possible chain of six opponent discs with no inner loop and no
//! runtime-sign shifts. The pre-optimization loop-based kernels survive in
//! [`mod@reference`] as the equivalence oracle (proptested in this module) and
//! as the "old" side of the `repro mech` before/after microbenchmarks.

/// File-A mask (the leftmost column).
const FILE_A: u64 = 0x0101_0101_0101_0101;
/// File-H mask (the rightmost column).
const FILE_H: u64 = 0x8080_8080_8080_8080;

/// Kogge–Stone flood towards increasing square index (left shift by `S`):
/// every `o` disc reachable from `gen` through consecutive `o` discs by
/// repeated `+S` steps. `o` must already exclude the column a `<< S` shift
/// would wrap into, which also keeps the doubled `<< 2S` steps wrap-free
/// (a propagator pair straddling the seam would need a wrapped member).
#[inline(always)]
fn flood_l<const S: u32>(gen: u64, o: u64) -> u64 {
    let mut t = o & (gen << S);
    t |= o & (t << S);
    let pro = o & (o << S);
    t |= pro & (t << (2 * S));
    t |= pro & (t << (2 * S));
    t
}

/// Mirror of [`flood_l`] towards decreasing square index (right shift).
#[inline(always)]
fn flood_r<const S: u32>(gen: u64, o: u64) -> u64 {
    let mut t = o & (gen >> S);
    t |= o & (t >> S);
    let pro = o & (o >> S);
    t |= pro & (t >> (2 * S));
    t |= pro & (t >> (2 * S));
    t
}

/// All-ones when `anchor` is non-zero, all-zeros otherwise, with no branch.
#[inline(always)]
fn keep_if(anchor: u64) -> u64 {
    0u64.wrapping_sub((anchor != 0) as u64)
}

/// An Othello board from the point of view of the player to move: `own`
/// holds the mover's discs, `opp` the opponent's.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Board {
    /// Discs of the player to move.
    pub own: u64,
    /// Discs of the opponent.
    pub opp: u64,
}

impl Board {
    /// The standard initial position. Black moves first; `own` is Black.
    pub fn initial() -> Board {
        Board {
            own: (1 << 28) | (1 << 35), // e4, d5
            opp: (1 << 27) | (1 << 36), // d4, e5
        }
    }

    /// Builds a board from a 64-character string, row by row from a1:
    /// 'x'/'X' = mover's disc, 'o'/'O' = opponent's, anything else empty.
    /// Whitespace is ignored.
    pub fn from_str_board(s: &str) -> Board {
        let mut own = 0u64;
        let mut opp = 0u64;
        for (i, ch) in s
            .chars()
            .filter(|c| !c.is_whitespace())
            .take(64)
            .enumerate()
        {
            match ch {
                'x' | 'X' => own |= 1 << i,
                'o' | 'O' => opp |= 1 << i,
                _ => {}
            }
        }
        Board { own, opp }
    }

    /// Mask of empty squares.
    #[inline]
    pub fn empty(&self) -> u64 {
        !(self.own | self.opp)
    }

    /// Total number of discs on the board.
    #[inline]
    pub fn occupancy(&self) -> u32 {
        (self.own | self.opp).count_ones()
    }

    /// Mask of squares where the player to move may legally place a disc.
    ///
    /// Eight unrolled Kogge–Stone floods, one per ray direction; the move
    /// square is one further step past each flooded opponent chain.
    pub fn legal_moves(&self) -> u64 {
        let own = self.own;
        let oa = self.opp & !FILE_A; // propagator for rays that step east
        let oh = self.opp & !FILE_H; // propagator for rays that step west
        let ov = self.opp; // vertical rays cannot wrap

        let mut moves = (flood_l::<1>(own, oa) & !FILE_H) << 1; // east
        moves |= (flood_r::<1>(own, oh) & !FILE_A) >> 1; // west
        moves |= flood_l::<8>(own, ov) << 8; // south
        moves |= flood_r::<8>(own, ov) >> 8; // north
        moves |= (flood_l::<9>(own, oa) & !FILE_H) << 9; // south-east
        moves |= (flood_l::<7>(own, oh) & !FILE_A) << 7; // south-west
        moves |= (flood_r::<7>(own, oa) & !FILE_H) >> 7; // north-east
        moves |= (flood_r::<9>(own, oh) & !FILE_A) >> 9; // north-west
        moves & self.empty()
    }

    /// True iff the player to move has at least one legal placement.
    #[inline]
    pub fn has_moves(&self) -> bool {
        self.legal_moves() != 0
    }

    /// True iff neither player can move: the game is over.
    pub fn game_over(&self) -> bool {
        !self.has_moves() && !self.swapped().has_moves()
    }

    /// The same position with the side to move switched (a pass).
    #[inline]
    pub fn swapped(&self) -> Board {
        Board {
            own: self.opp,
            opp: self.own,
        }
    }

    /// Mask of discs flipped by placing on `sq` (0–63). Zero iff the move
    /// is illegal. (Emptiness of `sq` is not checked here; `legal_moves`
    /// or `moves_and_flips` carry that part of legality.)
    ///
    /// Each direction floods the opponent chain adjacent to `sq`, then a
    /// branchless anchor test keeps the chain only when the square one
    /// step past its far end holds an own disc.
    pub fn flips(&self, sq: u8) -> u64 {
        debug_assert!(sq < 64);
        let placed = 1u64 << sq;
        let own = self.own;
        let oa = self.opp & !FILE_A;
        let oh = self.opp & !FILE_H;
        let ov = self.opp;

        let t = flood_l::<1>(placed, oa); // east
        let mut all = t & keep_if(((t & !FILE_H) << 1) & own);
        let t = flood_r::<1>(placed, oh); // west
        all |= t & keep_if(((t & !FILE_A) >> 1) & own);
        let t = flood_l::<8>(placed, ov); // south
        all |= t & keep_if((t << 8) & own);
        let t = flood_r::<8>(placed, ov); // north
        all |= t & keep_if((t >> 8) & own);
        let t = flood_l::<9>(placed, oa); // south-east
        all |= t & keep_if(((t & !FILE_H) << 9) & own);
        let t = flood_l::<7>(placed, oh); // south-west
        all |= t & keep_if(((t & !FILE_A) << 7) & own);
        let t = flood_r::<7>(placed, oa); // north-east
        all |= t & keep_if(((t & !FILE_H) >> 7) & own);
        let t = flood_r::<9>(placed, oh); // north-west
        all |= t & keep_if(((t & !FILE_A) >> 9) & own);
        all
    }

    /// The legal-move mask and the flip set for `sq`, in one combined pass.
    ///
    /// This is the fast path for generate-then-play loops (perft, child
    /// expansion, move validation): the eight own-disc floods answer the
    /// move mask, and the same floods double as the flip propagators — a
    /// single-bit flood from `sq` through the discs anchored in direction
    /// `-d` *is* the flip chain in direction `+d`, no anchor test needed.
    pub fn moves_and_flips(&self, sq: u8) -> (u64, u64) {
        debug_assert!(sq < 64);
        let own = self.own;
        let oa = self.opp & !FILE_A;
        let oh = self.opp & !FILE_H;
        let ov = self.opp;

        // Own-disc floods: `e` holds opponent discs anchored by an own
        // disc to their west (reachable stepping east), and so on.
        let e = flood_l::<1>(own, oa);
        let w = flood_r::<1>(own, oh);
        let s = flood_l::<8>(own, ov);
        let n = flood_r::<8>(own, ov);
        let se = flood_l::<9>(own, oa);
        let sw = flood_l::<7>(own, oh);
        let ne = flood_r::<7>(own, oa);
        let nw = flood_r::<9>(own, oh);

        let mut moves = (e & !FILE_H) << 1;
        moves |= (w & !FILE_A) >> 1;
        moves |= s << 8;
        moves |= n >> 8;
        moves |= (se & !FILE_H) << 9;
        moves |= (sw & !FILE_A) << 7;
        moves |= (ne & !FILE_H) >> 7;
        moves |= (nw & !FILE_A) >> 9;
        moves &= self.empty();

        // A flip chain extending in direction +d from `sq` is exactly the
        // run of discs anchored in direction -d, so flood through that.
        let placed = 1u64 << sq;
        let mut f = flood_l::<1>(placed, w & !FILE_A); // east flips
        f |= flood_r::<1>(placed, e & !FILE_H); // west flips
        f |= flood_l::<8>(placed, n); // south flips
        f |= flood_r::<8>(placed, s); // north flips
        f |= flood_l::<9>(placed, nw & !FILE_A); // south-east flips
        f |= flood_l::<7>(placed, ne & !FILE_H); // south-west flips
        f |= flood_r::<7>(placed, sw & !FILE_A); // north-east flips
        f |= flood_r::<9>(placed, se & !FILE_H); // north-west flips

        (moves, f)
    }

    /// Plays a placement on `sq`, returning the position with the opponent
    /// to move. Panics (in debug builds) on illegal moves; debug builds
    /// route through [`Board::moves_and_flips`] so the legality assert
    /// exercises the combined kernel, release builds take the lean
    /// [`Board::flips`] path. Both produce the identical flip set.
    pub fn play(&self, sq: u8) -> Board {
        #[cfg(debug_assertions)]
        let f = {
            let (moves, f) = self.moves_and_flips(sq);
            assert!(moves & (1u64 << sq) != 0, "illegal move {sq}");
            assert!(self.empty() & (1 << sq) != 0, "square {sq} occupied");
            f
        };
        #[cfg(not(debug_assertions))]
        let f = self.flips(sq);
        Board {
            own: self.opp & !f,
            opp: self.own | f | (1 << sq),
        }
    }

    /// Disc difference (own − opp) from the mover's point of view.
    #[inline]
    pub fn disc_diff(&self) -> i32 {
        self.own.count_ones() as i32 - self.opp.count_ones() as i32
    }

    /// ASCII rendering, rows a1–h1 first, `x` = mover, `o` = opponent.
    pub fn render(&self) -> String {
        let mut s = String::with_capacity(72);
        for r in 0..8 {
            for c in 0..8 {
                let b = 1u64 << (r * 8 + c);
                s.push(if self.own & b != 0 {
                    'x'
                } else if self.opp & b != 0 {
                    'o'
                } else {
                    '.'
                });
            }
            s.push('\n');
        }
        s
    }
}

/// Names a square in algebraic notation ("a1".."h8").
pub fn square_name(sq: u8) -> String {
    let file = (b'a' + (sq % 8)) as char;
    let rank = (b'1' + (sq / 8)) as char;
    format!("{file}{rank}")
}

/// Parses an algebraic square name.
pub fn parse_square(s: &str) -> Option<u8> {
    let bytes = s.as_bytes();
    if bytes.len() != 2 {
        return None;
    }
    let file = bytes[0].checked_sub(b'a')?;
    let rank = bytes[1].checked_sub(b'1')?;
    if file < 8 && rank < 8 {
        Some(rank * 8 + file)
    } else {
        None
    }
}

/// The pre-optimization loop-based kernels, kept verbatim as the
/// equivalence oracle. Compiled for tests (the proptests below pin the
/// branchless kernels against these on random boards) and under the
/// `reference` feature, which `er-bench` enables so `repro mech` can
/// benchmark old-vs-new on the same build.
#[cfg(any(test, feature = "reference"))]
pub mod reference {
    use super::{Board, FILE_A, FILE_H};

    /// The eight ray directions as (shift, pre-shift mask) pairs. A
    /// positive shift is a left shift, negative is right.
    const DIRECTIONS: [(i8, u64); 8] = [
        (1, !FILE_H),  // east
        (-1, !FILE_A), // west
        (8, !0),       // south (towards row 8)
        (-8, !0),      // north
        (9, !FILE_H),  // south-east
        (7, !FILE_A),  // south-west
        (-7, !FILE_H), // north-east
        (-9, !FILE_A), // north-west
    ];

    #[inline]
    fn shift(b: u64, dir: i8, mask: u64) -> u64 {
        let b = b & mask;
        if dir >= 0 {
            b << dir
        } else {
            b >> (-dir)
        }
    }

    /// Loop-based `legal_moves`: flood own discs through opponent discs
    /// five serial steps per direction.
    pub fn legal_moves(b: &Board) -> u64 {
        let empty = b.empty();
        let mut moves = 0u64;
        for &(dir, mask) in &DIRECTIONS {
            let mut t = shift(b.own, dir, mask) & b.opp;
            for _ in 0..5 {
                t |= shift(t, dir, mask) & b.opp;
            }
            moves |= shift(t, dir, mask) & empty;
        }
        moves
    }

    /// Loop-based `flips`: walk each ray until an own disc anchors it.
    pub fn flips(b: &Board, sq: u8) -> u64 {
        let placed = 1u64 << sq;
        let mut all = 0u64;
        for &(dir, mask) in &DIRECTIONS {
            let mut ray = 0u64;
            let mut t = shift(placed, dir, mask) & b.opp;
            while t != 0 {
                ray |= t;
                let next = shift(t, dir, mask);
                if next & b.own != 0 {
                    all |= ray;
                    break;
                }
                t = next & b.opp;
            }
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_position_shape() {
        let b = Board::initial();
        assert_eq!(b.occupancy(), 4);
        assert_eq!(b.own.count_ones(), 2);
        assert_eq!(b.disc_diff(), 0);
        assert!(!b.game_over());
    }

    #[test]
    fn initial_position_has_the_four_classic_moves() {
        let b = Board::initial();
        let moves = b.legal_moves();
        assert_eq!(moves.count_ones(), 4);
        for name in ["d3", "c4", "f5", "e6"] {
            let sq = parse_square(name).unwrap();
            assert!(moves & (1 << sq) != 0, "{name} must be legal");
        }
    }

    #[test]
    fn first_move_flips_exactly_one_disc() {
        let b = Board::initial();
        let sq = parse_square("d3").unwrap();
        assert_eq!(b.flips(sq).count_ones(), 1);
        let after = b.play(sq);
        assert_eq!(after.occupancy(), 5);
        // After Black's d3: Black has 4 discs, White 1; White to move.
        assert_eq!(after.own.count_ones(), 1);
        assert_eq!(after.opp.count_ones(), 4);
    }

    #[test]
    fn illegal_squares_have_no_flips() {
        let b = Board::initial();
        assert_eq!(b.flips(parse_square("a1").unwrap()), 0);
        assert_eq!(b.flips(parse_square("h8").unwrap()), 0);
    }

    #[test]
    fn no_wraparound_across_board_edges() {
        // A disc on h-file must not flip via an "east" ray wrapping to the
        // a-file of the next row.
        let b = Board::from_str_board(
            "x o . . . . . o
             . . . . . . . .
             . . . . . . . .
             . . . . . . . .
             . . . . . . . .
             . . . . . . . .
             . . . . . . . .
             . . . . . . . .",
        );
        // Placing at c1 flips b1 (o between two x... only if c1 legal).
        let moves = b.legal_moves();
        assert!(moves & (1 << 2) != 0, "c1 flips b1");
        // h1's 'o' must not make a9-style wrap squares legal.
        assert_eq!(moves & !0x7, 0, "only first-row squares may be legal");
    }

    /// Othello perft counting *positions* at each depth, passes count as
    /// moves when a player is blocked, games that end are leaves. Driven
    /// through `moves_and_flips` so the combined kernel carries the same
    /// pinned counts as `legal_moves` + `play`.
    fn perft(b: Board, depth: u32) -> u64 {
        if depth == 0 {
            return 1;
        }
        let moves = b.legal_moves();
        if moves == 0 {
            if b.game_over() {
                return 1;
            }
            return perft(b.swapped(), depth - 1);
        }
        let mut n = 0;
        let mut m = moves;
        while m != 0 {
            let sq = m.trailing_zeros() as u8;
            m &= m - 1;
            let (mf, f) = b.moves_and_flips(sq);
            assert_eq!(mf, moves, "combined kernel must agree on the move mask");
            assert_eq!(f, b.flips(sq), "combined kernel must agree on flips");
            n += perft(b.play(sq), depth - 1);
        }
        n
    }

    /// Known perft counts from the initial position, index = depth - 1.
    const PERFT_TABLE: [u64; 7] = [4, 12, 56, 244, 1396, 8200, 55092];

    #[test]
    fn perft_matches_known_values() {
        let b = Board::initial();
        for (i, &want) in PERFT_TABLE.iter().enumerate() {
            let depth = i as u32 + 1;
            assert_eq!(perft(b, depth), want, "perft({depth})");
        }
    }

    #[test]
    fn play_preserves_total_disc_identity() {
        // own' ∪ opp' = own ∪ opp ∪ {sq} and the sets stay disjoint.
        let b = Board::initial();
        let mut m = b.legal_moves();
        while m != 0 {
            let sq = m.trailing_zeros() as u8;
            m &= m - 1;
            let after = b.play(sq);
            assert_eq!(after.own & after.opp, 0, "disjoint discs");
            assert_eq!(after.own | after.opp, b.own | b.opp | (1 << sq));
        }
    }

    #[test]
    fn swapped_is_involutive() {
        let b = Board::initial().play(19);
        assert_eq!(b.swapped().swapped(), b);
    }

    #[test]
    fn full_board_is_game_over() {
        let b = Board {
            own: u64::MAX >> 32,
            opp: u64::MAX << 32,
        };
        assert!(b.game_over());
    }

    #[test]
    fn forced_pass_position() {
        // Mover ('x') has no legal move but the opponent does: not game
        // over, but x must pass.
        //   x o . . . . . .   (o can be flanked by o->? construct simply)
        let b = Board::from_str_board(
            "x x x . . . . .
             x x x . . . . .
             x x x . . . . .
             . . . . . . . .
             . . . . . . . .
             . . . . . . . .
             . . . . . . . .
             . . . . . . . .",
        );
        // All-own discs: no opponent discs to flip, so no legal move; the
        // opponent likewise has none -> game over.
        assert!(!b.has_moves());
        assert!(b.game_over());
    }

    #[test]
    fn square_names_round_trip() {
        for sq in 0..64u8 {
            assert_eq!(parse_square(&square_name(sq)), Some(sq));
        }
        assert_eq!(parse_square("i1"), None);
        assert_eq!(parse_square("a9"), None);
        assert_eq!(parse_square("a"), None);
    }

    #[test]
    fn render_shows_discs() {
        let s = Board::initial().render();
        assert_eq!(s.matches('x').count(), 2);
        assert_eq!(s.matches('o').count(), 2);
        assert_eq!(s.lines().count(), 8);
    }

    mod kernel_equivalence {
        //! The branchless kernels pinned bit-for-bit against the retained
        //! loop-based [`reference`] implementation — on arbitrary disjoint
        //! bitboards (stronger than reachability: the kernels must agree
        //! everywhere) and on random playouts from the initial position.

        use super::super::{reference, Board};
        use proptest::prelude::*;

        /// Any disjoint pair of disc sets, reachable or not.
        fn arbitrary_board(a: u64, b: u64) -> Board {
            Board {
                own: a & !b,
                opp: b & !a,
            }
        }

        fn assert_kernels_match(board: &Board) {
            let want_moves = reference::legal_moves(board);
            assert_eq!(board.legal_moves(), want_moves, "{}", board.render());
            let empty = board.empty();
            for sq in 0..64u8 {
                let want_flips = reference::flips(board, sq);
                assert_eq!(
                    board.flips(sq),
                    want_flips,
                    "flips({sq}) on\n{}",
                    board.render()
                );
                if empty & (1 << sq) != 0 {
                    let (moves, f) = board.moves_and_flips(sq);
                    assert_eq!(moves, want_moves, "moves_and_flips({sq}).0");
                    assert_eq!(f, want_flips, "moves_and_flips({sq}).1");
                }
            }
        }

        proptest! {
            #[test]
            fn match_reference_on_arbitrary_boards(a in any::<u64>(), b in any::<u64>()) {
                assert_kernels_match(&arbitrary_board(a, b));
            }

            #[test]
            fn match_reference_along_random_playouts(steps in prop::collection::vec(any::<u8>(), 0..70)) {
                let mut board = Board::initial();
                assert_kernels_match(&board);
                for &s in &steps {
                    let moves = board.legal_moves();
                    if moves == 0 {
                        if board.game_over() {
                            break;
                        }
                        board = board.swapped();
                        continue;
                    }
                    let picks = moves.count_ones();
                    let mut m = moves;
                    for _ in 0..(s as u32 % picks) {
                        m &= m - 1;
                    }
                    board = board.play(m.trailing_zeros() as u8);
                    assert_kernels_match(&board);
                }
            }
        }
    }
}
