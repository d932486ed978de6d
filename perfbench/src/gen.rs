//! Seeded input generation. Every root and every served position is a
//! pure function of the run's seed.

use crate::adapter::{self, AnyPos, GamePosition, OthelloPos, RandomPos};

/// Plies of seeded random play from the opening to an `othello` root.
const OTHELLO_ROOT_PLIES: u32 = 20;
/// Branching factor and height of a `random` root (R1's shape).
const RANDOM_DEGREE: u32 = 4;
pub const RANDOM_HEIGHT: u32 = 10;

/// A splitmix64 stream.
#[derive(Clone, Copy, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(adapter::splitmix64(seed ^ adapter::splitmix64(stream)))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = adapter::splitmix64(self.0);
        self.0
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Plays `plies` seeded random moves from `start`. `None` if the game
/// ends on the way or at the end.
pub fn playout<P: GamePosition>(start: &P, plies: u32, rng: &mut Rng) -> Option<P> {
    let mut p = start.clone();
    for _ in 0..plies {
        let ms = adapter::moves(&p);
        if ms.is_empty() {
            return None;
        }
        p = adapter::play(&p, &ms[rng.below(ms.len())]);
    }
    (!adapter::moves(&p).is_empty()).then_some(p)
}

/// Root `i` of an `othello` run: a seeded random 20-ply playout that is
/// still in progress.
pub fn othello_root(seed: u64, i: u64) -> OthelloPos {
    let mut rng = Rng::new(seed, i);
    let start = adapter::othello_initial();
    loop {
        if let Some(p) = playout(&start, OTHELLO_ROOT_PLIES, &mut rng) {
            return p;
        }
    }
}

/// Root `i` of a `random` run: a degree-4, height-10 uniform random tree.
pub fn random_root(seed: u64, i: u64) -> RandomPos {
    adapter::random_root(Rng::new(seed, i).next(), RANDOM_DEGREE, RANDOM_HEIGHT)
}

/// Positions sampled from the trees below `roots`: each is reached by a
/// seeded random descent of 0 to `depth` plies that stops at a terminal.
pub fn tree_sample<P: GamePosition>(roots: &[P], depth: u32, n: usize, seed: u64) -> Vec<P> {
    let mut rng = Rng::new(seed, 0x7ee5);
    (0..n)
        .map(|k| {
            let mut p = roots[k % roots.len()].clone();
            for _ in 0..rng.below(depth as usize + 1) {
                let ms = adapter::moves(&p);
                if ms.is_empty() {
                    break;
                }
                p = adapter::play(&p, &ms[rng.below(ms.len())]);
            }
            p
        })
        .collect()
}

/// Client moves per served game before the client starts a new one, so
/// that a run covers many openings rather than a few long games.
const GAME_MOVES: u32 = 4;
/// Seeded random plies of a served game's opening: 6 to 10.
const OPENING_PLIES: (u32, usize) = (6, 5);

/// The game family a served client plays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    Othello,
    Checkers,
}

impl Family {
    /// Iterative-deepening depth a client asks for.
    pub fn depth(self) -> u32 {
        match self {
            Family::Othello => 7,
            Family::Checkers => 9,
        }
    }
}

/// One served client's game: a seeded opening of 6 to 10 random plies,
/// then one seeded move per reply, restarting after [`GAME_MOVES`] moves
/// or at the end of the game.
#[derive(Clone, Debug)]
pub struct ClientGame {
    pub family: Family,
    rng: Rng,
    pos: AnyPos,
    moves: u32,
}

impl ClientGame {
    pub fn new(family: Family, seed: u64, client: u64) -> ClientGame {
        let mut rng = Rng::new(seed, 0xc11e_0000 + client);
        let pos = Self::opening(family, &mut rng);
        ClientGame {
            family,
            rng,
            pos,
            moves: 0,
        }
    }

    fn opening(family: Family, rng: &mut Rng) -> AnyPos {
        loop {
            let plies = OPENING_PLIES.0 + rng.below(OPENING_PLIES.1) as u32;
            let p = match family {
                Family::Othello => {
                    playout(&adapter::othello_initial(), plies, rng).map(adapter::any_othello)
                }
                Family::Checkers => {
                    playout(&adapter::checkers_initial(), plies, rng).map(adapter::any_checkers)
                }
            };
            if let Some(p) = p {
                return p;
            }
        }
    }

    /// The position the client submits next.
    pub fn position(&self) -> AnyPos {
        self.pos
    }

    /// Plays the client's next seeded move.
    pub fn advance(&mut self) {
        self.moves += 1;
        let next = if self.moves < GAME_MOVES {
            playout(&self.pos, 1, &mut self.rng)
        } else {
            None
        };
        match next {
            Some(p) => self.pos = p,
            None => {
                self.pos = Self::opening(self.family, &mut self.rng);
                self.moves = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn othello_key(p: &OthelloPos) -> String {
        format!("{p:?}")
    }

    #[test]
    fn roots_are_pure_functions_of_the_seed() {
        for i in 0..16 {
            assert_eq!(
                othello_key(&othello_root(7, i)),
                othello_key(&othello_root(7, i))
            );
            assert_eq!(random_root(7, i), random_root(7, i));
        }
        let a: Vec<String> = (0..16).map(|i| othello_key(&othello_root(7, i))).collect();
        let b: Vec<String> = (0..16).map(|i| othello_key(&othello_root(8, i))).collect();
        assert_ne!(a, b, "another seed gives other othello roots");
        let a: Vec<RandomPos> = (0..16).map(|i| random_root(7, i)).collect();
        let b: Vec<RandomPos> = (0..16).map(|i| random_root(8, i)).collect();
        assert_ne!(a, b, "another seed gives other random roots");
    }

    #[test]
    fn roots_are_legal_and_in_progress() {
        for i in 0..64 {
            let o = othello_root(3, i);
            assert!(!adapter::moves(&o).is_empty());
            let r = random_root(3, i);
            assert_eq!(adapter::moves(&r).len(), RANDOM_DEGREE as usize);
        }
        // Legal: every othello root is reachable by replaying its own
        // seeded playout from the opening through legal moves only.
        let mut rng = Rng::new(3, 0);
        let replay = playout(&adapter::othello_initial(), OTHELLO_ROOT_PLIES, &mut rng);
        if let Some(p) = replay {
            assert_eq!(othello_key(&p), othello_key(&othello_root(3, 0)));
        }
    }

    #[test]
    fn served_games_repeat_with_the_seed_and_stay_in_progress() {
        for family in [Family::Othello, Family::Checkers] {
            let mut a = ClientGame::new(family, 11, 2);
            let mut b = ClientGame::new(family, 11, 2);
            let mut c = ClientGame::new(family, 12, 2);
            let mut differs = false;
            for _ in 0..40 {
                let (pa, pb, pc) = (a.position(), b.position(), c.position());
                assert_eq!(adapter::zobrist(&pa), adapter::zobrist(&pb));
                differs |= adapter::zobrist(&pa) != adapter::zobrist(&pc);
                assert!(
                    !adapter::moves(&pa).is_empty(),
                    "submitted positions are in progress"
                );
                assert_eq!(
                    adapter::family(&pa),
                    match family {
                        Family::Othello => "othello",
                        Family::Checkers => "checkers",
                    }
                );
                a.advance();
                b.advance();
                c.advance();
            }
            assert!(differs, "another seed gives other games");
        }
    }
}
