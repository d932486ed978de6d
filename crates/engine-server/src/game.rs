//! Game-family erasure: one position type the protocol layer can hold.
//!
//! The search stack is generic over [`GamePosition`]; a *server* has to
//! hold positions of whatever family a client names at run time. [`AnyPos`]
//! is the closed enum over the workspace's families — Othello, checkers,
//! and the paper's synthetic random trees — implementing `GamePosition`
//! and [`Zobrist`] by delegation, so every search back-end, the shared
//! transposition table, and the session scheduler accept it unchanged.
//!
//! Hashes are salted per family before mixing: an Othello position and a
//! random-tree node that happen to share an inner hash must not collide in
//! the *shared* cross-session table.

use er_parallel::ErParallelConfig;
use gametree::random::{splitmix64, RandomPos, RandomTreeSpec};
use gametree::{GamePosition, Value};
use othello::OthelloPos;
use search_serial::OrderPolicy;
use tt::Zobrist;

/// A position of any supported game family.
#[derive(Clone, Copy, Debug)]
pub enum AnyPos {
    /// A synthetic uniform random tree node (paper §7's R-trees).
    Random(RandomPos),
    /// An Othello position.
    Othello(OthelloPos),
    /// A checkers position.
    Checkers(checkers::CheckersPos),
}

/// A move in whatever family the position belongs to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AnyMove {
    /// A random-tree branch index.
    Random(u32),
    /// An Othello placement or pass.
    Othello(othello::Move),
    /// A checkers move.
    Checkers(checkers::Move),
}

impl AnyPos {
    /// The standard Othello opening position.
    pub fn othello_startpos() -> AnyPos {
        AnyPos::Othello(OthelloPos::initial())
    }

    /// The checkers benchmark root (12 plies of deterministic self-play).
    pub fn checkers_startpos() -> AnyPos {
        AnyPos::Checkers(checkers::c1())
    }

    /// The root of the uniform random tree `(seed, degree, height)`.
    pub fn random_root(seed: u64, degree: u32, height: u32) -> AnyPos {
        AnyPos::Random(RandomTreeSpec::new(seed, degree, height).root())
    }

    /// Stable lowercase family name for logs and JSON.
    pub fn family(&self) -> &'static str {
        match self {
            AnyPos::Random(_) => "random",
            AnyPos::Othello(_) => "othello",
            AnyPos::Checkers(_) => "checkers",
        }
    }

    /// The paper's static child-ordering policy for this family: sorted
    /// above ply five for the real games, natural order for random trees
    /// (whose static values are uncorrelated by construction).
    pub fn order_policy(&self) -> OrderPolicy {
        match self {
            AnyPos::Random(_) => OrderPolicy::NATURAL,
            _ => OrderPolicy::OTHELLO,
        }
    }

    /// The per-family configuration of the threaded ER back-end that the
    /// UCI loop and the match engines run: the random-tree setting at
    /// serial depth 2, the paper's Othello setting, and for checkers
    /// natural order at serial depth 3.
    pub fn er_cfg(&self) -> ErParallelConfig {
        match self {
            AnyPos::Random(_) => ErParallelConfig::random_tree(2),
            AnyPos::Othello(_) => ErParallelConfig::othello(),
            AnyPos::Checkers(_) => ErParallelConfig::random_tree(3),
        }
    }

    /// Protocol label of the `idx`-th natural-order move — Othello square
    /// names (`d3`, `pass`), plain indices for the other families. Returns
    /// `None` past the end of the move list.
    pub fn move_label(&self, idx: usize) -> Option<String> {
        match self {
            AnyPos::Othello(p) => p.moves().get(idx).map(|m| m.to_string()),
            _ => (idx < self.degree()).then(|| idx.to_string()),
        }
    }

    /// Parses a protocol move token: a natural-order index for any family,
    /// or an Othello square name / `pass`.
    pub fn parse_move(&self, token: &str) -> Option<AnyMove> {
        let moves = self.moves();
        if let Ok(idx) = token.parse::<usize>() {
            return moves.get(idx).cloned();
        }
        if let AnyPos::Othello(_) = self {
            let want = if token.eq_ignore_ascii_case("pass") {
                othello::Move::Pass
            } else {
                othello::Move::Place(othello::board::parse_square(token)?)
            };
            return moves.iter().find_map(|m| match m {
                AnyMove::Othello(om) if *om == want => Some(m.clone()),
                _ => None,
            });
        }
        None
    }
}

/// Appends `p`'s moves to `out`, each wrapped by `wrap`. The family's own
/// list is one exactly-sized temporary vector.
fn wrap_moves<P: GamePosition>(p: &P, wrap: fn(P::Move) -> AnyMove, out: &mut Vec<AnyMove>) {
    let moves = p.moves();
    out.reserve_exact(moves.len());
    out.extend(moves.into_iter().map(wrap));
}

impl GamePosition for AnyPos {
    type Move = AnyMove;

    fn moves_into(&self, out: &mut Vec<AnyMove>) {
        match self {
            AnyPos::Random(p) => wrap_moves(p, AnyMove::Random, out),
            AnyPos::Othello(p) => wrap_moves(p, AnyMove::Othello, out),
            AnyPos::Checkers(p) => wrap_moves(p, AnyMove::Checkers, out),
        }
    }

    fn play(&self, mv: &AnyMove) -> AnyPos {
        match (self, mv) {
            (AnyPos::Random(p), AnyMove::Random(m)) => AnyPos::Random(p.play(m)),
            (AnyPos::Othello(p), AnyMove::Othello(m)) => AnyPos::Othello(p.play(m)),
            (AnyPos::Checkers(p), AnyMove::Checkers(m)) => AnyPos::Checkers(p.play(m)),
            _ => unreachable!("move from a different game family"),
        }
    }

    fn evaluate(&self) -> Value {
        match self {
            AnyPos::Random(p) => p.evaluate(),
            AnyPos::Othello(p) => p.evaluate(),
            AnyPos::Checkers(p) => p.evaluate(),
        }
    }

    fn degree(&self) -> usize {
        match self {
            AnyPos::Random(p) => p.degree(),
            AnyPos::Othello(p) => p.degree(),
            AnyPos::Checkers(p) => p.degree(),
        }
    }
}

/// Per-family hash salts (arbitrary odd constants).
const SALT: [u64; 3] = [
    0xa5a5_1337_0000_0001,
    0x0b5e_55ed_c0ff_ee03,
    0x7e57_ab1e_dead_0005,
];

impl Zobrist for AnyPos {
    fn zobrist(&self) -> u64 {
        let (salt, h) = match self {
            AnyPos::Random(p) => (SALT[0], p.zobrist()),
            AnyPos::Othello(p) => (SALT[1], p.zobrist()),
            AnyPos::Checkers(p) => (SALT[2], p.zobrist()),
        };
        splitmix64(h ^ salt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delegation_matches_inner_game() {
        let inner = OthelloPos::initial();
        let outer = AnyPos::othello_startpos();
        assert_eq!(outer.degree(), inner.degree());
        assert_eq!(outer.evaluate(), inner.evaluate());
        let kid = outer.play(&outer.moves()[0]);
        let inner_kid = inner.play(&inner.moves()[0]);
        assert_eq!(kid.evaluate(), inner_kid.evaluate());
    }

    #[test]
    fn family_salts_separate_equal_inner_hashes() {
        // Same inner hash, different family => different table key.
        let r = AnyPos::random_root(1, 4, 6);
        let o = AnyPos::othello_startpos();
        let c = AnyPos::checkers_startpos();
        assert_ne!(r.zobrist(), o.zobrist());
        assert_ne!(o.zobrist(), c.zobrist());
        assert_ne!(splitmix64(SALT[0]), splitmix64(SALT[1]));
    }

    #[test]
    fn othello_move_labels_parse_back() {
        let p = AnyPos::othello_startpos();
        for i in 0..p.degree() {
            let label = p.move_label(i).expect("label");
            let mv = p.parse_move(&label).expect("parses");
            assert_eq!(
                p.play(&mv).evaluate(),
                p.play(&p.moves()[i]).evaluate(),
                "label {label} must round-trip to move {i}"
            );
        }
        assert!(p.move_label(p.degree()).is_none());
        // Indices parse for every family.
        let r = AnyPos::random_root(7, 3, 4);
        assert!(r.parse_move("2").is_some());
        assert!(r.parse_move("3").is_none());
        assert!(r.parse_move("d3").is_none());
    }
}
