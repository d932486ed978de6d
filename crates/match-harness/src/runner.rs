//! Self-play matches: paired openings, color swap, W/D/L accounting.

use std::sync::Arc;

use engine_server::{AnyPos, TimeControl};
use gametree::GamePosition;
use metrics::EngineMetrics;

use crate::engine::{EngineSpec, Player};
use crate::game::{play_game, GameRecord};

/// A playable game family (random trees are bench-only: they have no
/// meaningful full-game semantics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// 8×8 Othello.
    Othello,
    /// 8×8 checkers with the 40-ply quiet draw rule.
    Checkers,
}

impl Family {
    /// Stable lowercase name for tables and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            Family::Othello => "othello",
            Family::Checkers => "checkers",
        }
    }

    /// The family's standard initial position.
    pub fn startpos(&self) -> AnyPos {
        match self {
            Family::Othello => AnyPos::othello_startpos(),
            Family::Checkers => AnyPos::Checkers(checkers::CheckersPos::initial()),
        }
    }
}

/// Match shape shared by every pairing.
#[derive(Clone, Copy, Debug)]
pub struct MatchConfig {
    /// Games per pairing (rounded up to an even number so every opening
    /// is played once with each color assignment).
    pub games: usize,
    /// Both players' time control.
    pub tc: TimeControl,
    /// log2 table size per player.
    pub tt_bits: u32,
    /// Iterative-deepening cap for the budgeted engines.
    pub max_depth: u32,
}

impl Default for MatchConfig {
    /// Eight games of 1000+10 on 2^16-entry tables.
    fn default() -> MatchConfig {
        MatchConfig {
            games: 8,
            tc: TimeControl::from_millis(1000, 10),
            tt_bits: 16,
            max_depth: 32,
        }
    }
}

/// One pairing's outcome: points, W/D/L for engine A, and every game.
#[derive(Clone, Debug)]
pub struct MatchResult {
    /// The family played.
    pub family: Family,
    /// Engine A's spec name.
    pub name_a: String,
    /// Engine B's spec name.
    pub name_b: String,
    /// Match points (win 2, draw 1) for A.
    pub points_a: u32,
    /// Match points for B.
    pub points_b: u32,
    /// A's wins / draws / losses over the match.
    pub wdl_a: (u32, u32, u32),
    /// Every game, in play order. Even indices: A moved first; odd: B.
    pub games: Vec<GameRecord>,
}

/// Deterministic opening lines for `pairs` paired games: pseudo-random
/// playouts of a few plies from the family start, seeded by the pair
/// index. Each opening is guaranteed non-terminal (a walk that dies is
/// backed off to the start position, which never is).
pub fn openings(family: Family, pairs: usize) -> Vec<AnyPos> {
    (0..pairs)
        .map(|i| {
            let plies = 2 + (i % 3) * 2; // 2, 4, 6, 2, ...
            let mut pos = family.startpos();
            let mut state = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            for _ in 0..plies {
                let kids = pos.children();
                if kids.is_empty() {
                    break;
                }
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                pos = kids[(state >> 33) as usize % kids.len()];
            }
            if pos.moves().is_empty() {
                family.startpos()
            } else {
                pos
            }
        })
        .collect()
}

/// Plays `cfg.games` games of `a` vs `b` on paired openings with color
/// swap: opening *i* is played twice, A first then B first, so
/// first-mover advantage cancels out of the totals.
pub fn run_match(family: Family, a: EngineSpec, b: EngineSpec, cfg: &MatchConfig) -> MatchResult {
    run_match_with(family, a, b, cfg, None)
}

/// [`run_match`] with an optional shared metric set: every player of
/// every game records into it (per-move depth/spend histograms, search
/// and TT counters), so one registry observes the whole match. `None`
/// plays exactly as [`run_match`] does.
pub fn run_match_with(
    family: Family,
    a: EngineSpec,
    b: EngineSpec,
    cfg: &MatchConfig,
    metrics: Option<Arc<EngineMetrics>>,
) -> MatchResult {
    let pairs = cfg.games.div_ceil(2).max(1);
    let mut result = MatchResult {
        family,
        name_a: a.name(),
        name_b: b.name(),
        points_a: 0,
        points_b: 0,
        wdl_a: (0, 0, 0),
        games: Vec::with_capacity(pairs * 2),
    };
    let fresh = |spec: EngineSpec| {
        let p = Player::new(spec, cfg.tc, cfg.tt_bits, cfg.max_depth);
        match &metrics {
            Some(m) => p.observed_by(Arc::clone(m)),
            None => p,
        }
    };
    for opening in openings(family, pairs) {
        for a_first in [true, false] {
            // Fresh players per game: each game's warmth is its own
            // (and the per-game TT hit-rate assertions stay meaningful).
            let (mut first, mut second) = if a_first {
                (fresh(a), fresh(b))
            } else {
                (fresh(b), fresh(a))
            };
            let rec = play_game(&opening, &mut first, &mut second);
            let (pf, ps) = rec.outcome.points();
            let (pa, pb) = if a_first { (pf, ps) } else { (ps, pf) };
            result.points_a += pa;
            result.points_b += pb;
            match pa {
                2 => result.wdl_a.0 += 1,
                1 => result.wdl_a.1 += 1,
                _ => result.wdl_a.2 += 1,
            }
            result.games.push(rec);
        }
    }
    result
}

/// Test-only identity helper: `AnyPos` derives no `PartialEq`, but equal
/// Zobrist keys are an adequate reproducibility check for openings.
#[cfg(test)]
trait ZobristEq {
    fn zobrist_eq(&self, other: &Self) -> bool;
}

#[cfg(test)]
impl ZobristEq for AnyPos {
    fn zobrist_eq(&self, other: &AnyPos) -> bool {
        use tt::Zobrist;
        self.zobrist() == other.zobrist()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn openings_are_deterministic_varied_and_live() {
        for family in [Family::Othello, Family::Checkers] {
            let a = openings(family, 4);
            let b = openings(family, 4);
            assert_eq!(a.len(), 4);
            for (x, y) in a.iter().zip(&b) {
                assert!(x.zobrist_eq(y), "{} openings reproduce", family.name());
            }
            for o in &a {
                assert!(!o.moves().is_empty(), "openings must be playable");
            }
        }
    }

    #[test]
    fn observed_match_records_every_move_and_keeps_the_score() {
        // The clock is deliberately generous: a depth-2 checkers search
        // finishes in microseconds, so every move completes the full
        // depth cap and the move sequence depends only on the opening —
        // a tight clock would make depth (hence the game) timing-noise
        // dependent and this identity assert flaky under test load.
        let cfg = MatchConfig {
            games: 2,
            tc: TimeControl::from_millis(5000, 50),
            tt_bits: 8,
            max_depth: 2,
        };
        let (a, b) = (EngineSpec::ErThreads { threads: 1 }, EngineSpec::SerialId);
        let bare = run_match(Family::Checkers, a, b, &cfg);
        let m = Arc::new(EngineMetrics::new(1));
        let seen = run_match_with(Family::Checkers, a, b, &cfg, Some(Arc::clone(&m)));
        // Deterministic openings + deterministic depth caps: the game
        // records agree move for move (budgets are wall-clock, so only
        // the move sequence is asserted, not elapsed times).
        assert_eq!(seen.games.len(), bare.games.len());
        for (x, y) in bare.games.iter().zip(&seen.games) {
            let mx: Vec<&str> = x.moves.iter().map(|r| r.label.as_str()).collect();
            let my: Vec<&str> = y.moves.iter().map(|r| r.label.as_str()).collect();
            assert_eq!(mx, my, "observation must not steer the game");
        }
        // One depth/spend observation per played move, search counters
        // from the threaded player, and a lint-clean exposition page.
        let total_moves: u64 = seen.games.iter().map(|g| g.moves.len() as u64).sum();
        assert_eq!(m.match_move_depth.snapshot().count, total_moves);
        assert_eq!(m.match_move_spend_ns.snapshot().count, total_moves);
        assert!(m.search_runs_total.value() > 0, "er1 played half the seats");
        metrics::lint::check(&m.expose()).expect("lint-clean page");
    }

    #[test]
    fn points_and_wdl_are_consistent() {
        let cfg = MatchConfig {
            games: 2,
            tc: TimeControl::from_millis(30, 2),
            tt_bits: 8,
            max_depth: 3,
        };
        let r = run_match(
            Family::Checkers,
            EngineSpec::FixedDepth { depth: 1 },
            EngineSpec::FixedDepth { depth: 1 },
            &cfg,
        );
        assert_eq!(r.games.len(), 2);
        let (w, d, l) = r.wdl_a;
        assert_eq!(w + d + l, 2);
        assert_eq!(r.points_a, 2 * w + d);
        assert_eq!(r.points_a + r.points_b, 4, "2 points per game");
    }
}
