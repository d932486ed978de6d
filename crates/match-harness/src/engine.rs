//! One engine's cross-move state and its move-selection back-ends.

use std::sync::Arc;
use std::time::{Duration, Instant};

use engine_server::{slice_search, AnyPos, GameClock, TimeControl, TimeManager};
use er_parallel::{
    record_tt, root_split, AbortReason, AspirationConfig, Hooks, IdStepper, SearchControl,
};
use gametree::{GamePosition, SearchStats, Value, Window};
use metrics::EngineMetrics;
use search_serial::{alphabeta_with, OrderingTables};
use tt::{TranspositionTable, TtStats};

/// Which search back-end a [`Player`] runs each move.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineSpec {
    /// Threaded ER iterative deepening with aspiration windows, warm TT
    /// and ordering tables, budgeted by the time manager.
    ErThreads {
        /// Worker threads per search.
        threads: usize,
    },
    /// Serial alpha-beta iterative deepening (no TT, no ordering state),
    /// budgeted by the time manager — the paper's serial baseline made
    /// anytime.
    SerialId,
    /// Serial alpha-beta to a fixed depth every move, ignoring the clock
    /// allotment — the fixed-node-odds baseline (its per-move node count
    /// is position-determined, not time-determined).
    FixedDepth {
        /// The fixed search depth.
        depth: u32,
    },
}

impl EngineSpec {
    /// Short display name for tables and JSON.
    pub fn name(&self) -> String {
        match self {
            EngineSpec::ErThreads { threads } => format!("er{threads}"),
            EngineSpec::SerialId => "serial-id".to_string(),
            EngineSpec::FixedDepth { depth } => format!("fixed{depth}"),
        }
    }
}

/// Everything one move decision produced, for the game record.
#[derive(Clone, Debug)]
pub struct MoveChoice {
    /// Chosen child, as a natural move index (always `< degree`).
    pub index: usize,
    /// Deepest fully-completed search depth (0 = fallback move).
    pub depth: u32,
    /// Root value at that depth, from the mover's view.
    pub value: Value,
    /// Nodes examined across all completed and partial iterations.
    pub nodes: u64,
    /// Budget the time manager allotted for this move.
    pub budget: Duration,
    /// Wall-clock the decision actually took (what the clock is charged).
    pub elapsed: Duration,
    /// This move's TT activity (counter deltas over the decision).
    pub tt: TtStats,
}

/// One engine's state across one game: spec, warm tables, clock.
pub struct Player {
    spec: EngineSpec,
    /// Iterative-deepening depth cap (a budget this small never reaches
    /// it; it bounds the loop when a position is trivially shallow).
    max_depth: u32,
    table: Arc<TranspositionTable>,
    ord: OrderingTables,
    /// The player's game clock; [`crate::play_game`] settles it after
    /// every move and declares forfeit if it empties.
    pub clock: GameClock,
    tm: TimeManager,
    asp: AspirationConfig,
    moves_made: u32,
    /// Shared metric set this player records into, when observed
    /// (per-move depth/spend histograms plus the threaded back-end's
    /// search counters). `None` keeps every decision byte-identical to
    /// an unobserved player's.
    metrics: Option<Arc<EngineMetrics>>,
}

impl Player {
    /// A fresh player: empty tables, full clock.
    pub fn new(spec: EngineSpec, tc: TimeControl, tt_bits: u32, max_depth: u32) -> Player {
        Player {
            spec,
            max_depth,
            table: Arc::new(TranspositionTable::with_bits(tt_bits)),
            ord: OrderingTables::new(),
            clock: GameClock::new(tc),
            tm: TimeManager::default(),
            asp: AspirationConfig::narrow(40),
            moves_made: 0,
            metrics: None,
        }
    }

    /// Observes this player: every move records into `m` (shared freely
    /// across players — the histograms and counters merge).
    pub fn observed_by(mut self, m: Arc<EngineMetrics>) -> Player {
        self.metrics = Some(m);
        self
    }

    /// The spec's display name.
    pub fn name(&self) -> String {
        self.spec.name()
    }

    /// Moves this player has made so far in the game.
    pub fn moves_made(&self) -> u32 {
        self.moves_made
    }

    /// Total generation bumps the player's table has seen (one per move
    /// after the first — the warmth the integration tests assert).
    pub fn table_epoch(&self) -> u64 {
        self.table.epoch()
    }

    /// Decides a move at `pos`. Returns `None` iff `pos` has no legal
    /// moves (the game loop treats that as terminal before asking).
    ///
    /// The cross-move reuse contract: the *same* table and ordering
    /// tables serve every move of the game. Between consecutive roots the
    /// table generation is bumped (old entries age but stay probe-able —
    /// the warm-TT payoff) and the ordering state takes the per-root
    /// aging (`age_for_new_root`: killers cleared, history decayed 8×).
    pub fn choose_move(&mut self, pos: &AnyPos) -> Option<MoveChoice> {
        let kids = pos.children();
        if kids.is_empty() {
            return None;
        }
        if self.moves_made > 0 {
            self.table.new_generation();
            self.ord.age_for_new_root();
        }
        let budget = self.tm.allot_for(&self.clock, pos);
        let tt_before = self.table.stats();
        let started = Instant::now();
        let (depth, value, index, nodes) = self.decide(pos, &kids, budget);
        let choice = MoveChoice {
            index,
            depth,
            value,
            nodes,
            budget,
            elapsed: started.elapsed(),
            tt: self.table.stats().since(&tt_before),
        };
        self.moves_made += 1;
        if let Some(m) = &self.metrics {
            m.match_move_depth.record(0, choice.depth as u64);
            m.match_move_spend_ns
                .record(0, choice.elapsed.as_nanos() as u64);
            record_tt(m, &choice.tt);
        }
        Some(choice)
    }

    /// Runs the spec's search over the root's children `kids` and returns
    /// the completed depth, its root value, the chosen child and the
    /// nodes examined — completed and partial iterations alike.
    ///
    /// Every spec chooses through the deepening driver's root split: the
    /// parallel region stores no root table entry, so the split owns the
    /// best move. `ErThreads` searches each child with the threaded
    /// back-end over the warm table and ordering tables; `SerialId` with
    /// serial alpha-beta under full windows across depths; `FixedDepth`
    /// is one split at its depth, ignoring the clock.
    fn decide(&self, pos: &AnyPos, kids: &[AnyPos], budget: Duration) -> (u32, Value, usize, u64) {
        let ctl = SearchControl::with_budget(budget);
        let unlimited = SearchControl::unlimited();
        let policy = pos.order_policy();
        let mut nodes = 0u64;
        // A root child sits at ply 1.
        let mut serial = |i: usize, d: u32, w: Window, c: &SearchControl| {
            let r = alphabeta_with(&kids[i], d, w, policy, 1, Hooks::default().with_ctl(c));
            nodes += r.stats.nodes();
            r.aborted.map_or(Ok((r.value, r.stats)), Err)
        };
        let (depth, value, index) = match self.spec {
            EngineSpec::ErThreads { threads } => {
                let cfg = pos.er_cfg();
                let hooks = Hooks::default().with_tt(&*self.table);
                let (ord, mx) = (Some(&self.ord), self.metrics.as_deref());
                // Depth 1 runs uncontrolled (it costs microseconds): the
                // engine always has a searched move, however small the
                // budget.
                self.deepen(pos, kids, self.asp, &unlimited, &ctl, |i, d, w, c| {
                    let r = slice_search(&kids[i], threads, &cfg, hooks, ord, mx)(d, w, c)?;
                    nodes += r.1.nodes();
                    Ok(r)
                })
            }
            EngineSpec::SerialId => {
                self.deepen(pos, kids, AspirationConfig::OFF, &ctl, &ctl, serial)
            }
            EngineSpec::FixedDepth { depth } => {
                let child_depth = depth.saturating_sub(1);
                let (value, index, _) = root_split(kids.len(), 0, Window::FULL, |i, w| {
                    serial(i, child_depth, w, &unlimited)
                })
                .expect("an uncontrolled search never aborts");
                (depth, value, index)
            }
        };
        (depth, value, index, nodes)
    }

    /// Anytime deepening up to the depth cap with a move-choosing step per
    /// depth: depth 1 under `first`, every later depth under `ctl`. A
    /// depth interrupted by the deadline is discarded whole; with none
    /// completed the move is the one-ply greedy child.
    fn deepen(
        &self,
        pos: &AnyPos,
        kids: &[AnyPos],
        asp: AspirationConfig,
        first: &SearchControl,
        ctl: &SearchControl,
        mut child: impl FnMut(
            usize,
            u32,
            Window,
            &SearchControl,
        ) -> Result<(Value, SearchStats), AbortReason>,
    ) -> (u32, Value, usize) {
        let mut stepper = IdStepper::new(pos.evaluate(), asp);
        while stepper.depth_completed() < self.max_depth {
            let depth = stepper.next_depth();
            let step_ctl = if depth <= 1 { first } else { ctl };
            if stepper
                .step_root(depth, step_ctl, kids.len(), &mut child)
                .is_err()
            {
                break;
            }
        }
        let index = stepper
            .best_move(kids)
            .expect("caller checked the root has moves");
        (stepper.depth_completed(), stepper.value(), index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use search_serial::alphabeta;

    fn tc() -> TimeControl {
        TimeControl::from_millis(200, 5)
    }

    /// The `FixedDepth` spec's decision at `pos` (it ignores the clock).
    fn fixed_depth_move(pos: &AnyPos, depth: u32) -> MoveChoice {
        let mut p = Player::new(EngineSpec::FixedDepth { depth }, tc(), 8, depth);
        p.choose_move(pos).expect("live position")
    }

    #[test]
    fn every_spec_chooses_a_legal_move_from_both_startpositions() {
        for spec in [
            EngineSpec::ErThreads { threads: 2 },
            EngineSpec::SerialId,
            EngineSpec::FixedDepth { depth: 2 },
        ] {
            for pos in [
                AnyPos::othello_startpos(),
                AnyPos::Checkers(checkers::CheckersPos::initial()),
            ] {
                let mut p = Player::new(spec, tc(), 10, 6);
                let c = p.choose_move(&pos).expect("live position");
                assert!(c.index < pos.degree(), "{spec:?} illegal index");
                assert!(c.nodes > 0 || c.depth == 0);
            }
        }
    }

    #[test]
    fn terminal_position_yields_no_move() {
        // A drawn checkers position has no legal moves.
        let mut drawn = checkers::CheckersPos::initial();
        drawn.quiet_plies = checkers::DRAW_PLIES;
        let mut p = Player::new(EngineSpec::SerialId, tc(), 8, 4);
        assert!(p.choose_move(&AnyPos::Checkers(drawn)).is_none());
    }

    #[test]
    fn warm_player_bumps_one_generation_per_subsequent_move() {
        let mut p = Player::new(EngineSpec::ErThreads { threads: 1 }, tc(), 12, 3);
        let mut pos = AnyPos::othello_startpos();
        for expected_epoch in [0u64, 1, 2] {
            let c = p.choose_move(&pos).expect("live");
            assert_eq!(p.table_epoch(), expected_epoch);
            pos = pos.play(&pos.moves()[c.index]);
        }
        assert_eq!(p.moves_made(), 3);
    }

    #[test]
    fn fixed_depth_agrees_with_solo_alphabeta_value() {
        let pos = AnyPos::othello_startpos();
        let c = fixed_depth_move(&pos, 3);
        let solo = alphabeta(&pos, 3, pos.order_policy());
        assert_eq!(c.value, solo.value, "root split must equal the oracle");
    }

    #[test]
    fn er_move_plays_an_optimal_move_not_the_greedy_fallback() {
        // Regression: the first cut of this engine read the root's best
        // move back from a TT hint the parallel region never stores, so
        // every move silently fell back to the one-ply greedy choice.
        // With a generous budget and a low depth cap the deepening loop
        // must reach the cap and play a move whose depth-capped negamax
        // value equals the alpha-beta oracle's.
        for pos in [
            AnyPos::othello_startpos(),
            AnyPos::Checkers(checkers::CheckersPos::initial()),
        ] {
            let mut p = Player::new(
                EngineSpec::ErThreads { threads: 2 },
                TimeControl::from_millis(5_000, 0),
                12,
                4,
            );
            let c = p.choose_move(&pos).expect("live position");
            assert_eq!(c.depth, 4, "budget is ample: the cap must be reached");
            let oracle = alphabeta(&pos, 4, pos.order_policy());
            assert_eq!(c.value, oracle.value, "root value must be exact");
            let kid = &pos.children()[c.index];
            let played = -alphabeta(kid, 3, pos.order_policy()).value;
            assert_eq!(played, oracle.value, "the chosen move must achieve it");
        }
    }
}
