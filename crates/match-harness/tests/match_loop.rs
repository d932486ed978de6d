//! End-to-end game-loop contract: full fixed-seed games in both families
//! at tiny budgets must be legal-only, terminate by the rules, consume
//! the clock monotonically, and show cross-move TT warmth.

use engine_server::TimeControl;
use match_harness::{openings, play_game, EngineSpec, Family, Player, TerminalKind};

fn tiny_tc() -> TimeControl {
    TimeControl::from_millis(300, 5)
}

fn warm_player() -> Player {
    Player::new(EngineSpec::ErThreads { threads: 2 }, tiny_tc(), 12, 6)
}

fn full_game_contract(family: Family) {
    let opening = openings(family, 1).remove(0);
    let mut first = warm_player();
    let mut second = warm_player();
    let rec = play_game(&opening, &mut first, &mut second);

    // Legal-move-only play, rules-based termination, no clock death.
    assert_eq!(
        rec.illegal_moves,
        0,
        "{}: illegal move played",
        family.name()
    );
    assert!(
        matches!(
            rec.terminal,
            TerminalKind::Natural | TerminalKind::Repetition
        ),
        "{}: game must end by the rules, got {:?}",
        family.name(),
        rec.terminal
    );
    assert!(
        rec.moves.len() > 8,
        "{}: a full game was played ({} moves)",
        family.name(),
        rec.moves.len()
    );

    // One generation bump per move after each player's first.
    assert_eq!(
        u64::from(first.moves_made().saturating_sub(1)),
        first.table_epoch()
    );
    assert_eq!(
        u64::from(second.moves_made().saturating_sub(1)),
        second.table_epoch()
    );

    let inc_ms = tiny_tc().increment.as_millis() as u64;
    for (i, m) in rec.moves.iter().enumerate() {
        // Monotone clock consumption: the bank moves exactly by
        // -elapsed +increment (millisecond truncation gives ±2 slack),
        // and the allotment respects the half-bank cap.
        let expected = m.clock_before_ms + inc_ms - m.elapsed_ms.min(m.clock_before_ms);
        assert!(
            m.clock_after_ms <= expected + 2 && m.clock_after_ms + 2 >= expected.saturating_sub(2),
            "{}: move {i} clock {} -> {} (elapsed {}, inc {inc_ms})",
            family.name(),
            m.clock_before_ms,
            m.clock_after_ms,
            m.elapsed_ms
        );
        assert!(
            m.budget_ms <= m.clock_before_ms.div_ceil(2),
            "{}: move {i} budget {} over half of {}",
            family.name(),
            m.budget_ms,
            m.clock_before_ms
        );

        // Warmth: every move after each player's opening move must hit
        // the table it warmed on its previous moves.
        if i >= 2 {
            assert!(
                m.tt_probes > 0,
                "{}: move {i} issued no TT probes",
                family.name()
            );
            assert!(
                m.tt_hits > 0,
                "{}: move {i} ({} probes) had zero TT hits — table not warm \
                 (completed depth {}, budget {} ms, {} nodes)",
                family.name(),
                m.tt_probes,
                m.depth,
                m.budget_ms,
                m.nodes
            );
        }
    }
}

#[test]
fn othello_full_game_is_legal_warm_and_clocked() {
    full_game_contract(Family::Othello);
}

#[test]
fn checkers_full_game_is_legal_warm_and_clocked() {
    full_game_contract(Family::Checkers);
}

#[test]
fn checkers_game_between_warm_engines_can_end_and_is_scored() {
    // Deterministic spot-check of the result plumbing: whatever the
    // outcome, points must sum to 2 and the terminal kind must be legal.
    let opening = openings(Family::Checkers, 2).remove(1);
    let mut a = warm_player();
    let mut b = warm_player();
    let rec = play_game(&opening, &mut a, &mut b);
    let (pf, ps) = rec.outcome.points();
    assert_eq!(pf + ps, 2);
    assert!(matches!(
        rec.terminal,
        TerminalKind::Natural | TerminalKind::Repetition
    ));
}
