//! The `GamePosition::moves_into` contract, for every game: appending to a
//! non-empty buffer keeps its prefix and appends exactly `moves()`, and
//! `moves()` returns a vector whose capacity equals its length.

use std::fmt::Debug;

use checkers::CheckersPos;
use engine_server::AnyPos;
use gametree::arena::{leaf, node, ArenaTree};
use gametree::ordered::OrderedTreeSpec;
use gametree::random::{splitmix64, RandomTreeSpec};
use gametree::tictactoe::TicTacToe;
use gametree::GamePosition;
use othello::OthelloPos;

/// Checks the contract at `pos`, with `prefix` already in the buffer.
fn check_at<P: GamePosition>(name: &str, pos: &P, prefix: &[P::Move])
where
    P::Move: PartialEq + Debug,
{
    let moves = pos.moves();
    assert_eq!(moves.capacity(), moves.len(), "{name}: moves() capacity");
    let mut buf = prefix.to_vec();
    pos.moves_into(&mut buf);
    assert_eq!(&buf[..prefix.len()], prefix, "{name}: prefix kept");
    assert_eq!(&buf[prefix.len()..], &moves[..], "{name}: appends moves()");
}

/// Walks seeded games from `start` to their end (at most `plies` moves),
/// checking the contract at every position on the way with the start's
/// moves as the buffer's prefix. Returns how many positions had no move.
fn walk<P: GamePosition>(name: &str, start: P, games: u64, plies: u64) -> usize
where
    P::Move: PartialEq + Debug,
{
    let prefix = start.moves();
    let mut terminals = 0;
    for seed in 0..games {
        let mut pos = start.clone();
        for ply in 0..plies {
            check_at(name, &pos, &prefix);
            let moves = pos.moves();
            if moves.is_empty() {
                terminals += 1;
                break;
            }
            let pick = splitmix64(seed << 16 ^ ply) as usize % moves.len();
            pos = pos.play(&moves[pick]);
        }
    }
    terminals
}

#[test]
fn othello_moves_into_appends_moves() {
    let ended = walk("othello", OthelloPos::initial(), 12, 80);
    assert!(ended > 0, "the walk must reach finished games");
}

#[test]
fn othello_passes_follow_the_contract() {
    // Walk until a forced pass: a one-move list, the smallest allocation.
    let mut found = false;
    for seed in 0..200 {
        let mut pos = OthelloPos::initial();
        while !pos.moves().is_empty() {
            let moves = pos.moves();
            if moves == [othello::Move::Pass] {
                check_at("othello pass", &pos, &OthelloPos::initial().moves());
                found = true;
                break;
            }
            pos = pos.play(&moves[splitmix64(seed) as usize % moves.len()]);
        }
        if found {
            break;
        }
    }
    assert!(found, "some seeded game passes");
}

#[test]
fn checkers_moves_into_appends_moves() {
    let ended = walk("checkers", CheckersPos::initial(), 12, 200);
    assert!(ended > 0, "the walk must reach finished games");
}

#[test]
fn random_and_ordered_trees_append_moves() {
    for degree in [1, 2, 3, 4, 8] {
        walk(
            "random",
            RandomTreeSpec::new(degree as u64, degree, 5).root(),
            3,
            10,
        );
        walk(
            "ordered",
            OrderedTreeSpec::strongly_ordered(3, degree, 4).root(),
            3,
            10,
        );
    }
}

#[test]
fn tictactoe_moves_into_appends_moves() {
    let ended = walk("tic-tac-toe", TicTacToe::initial(), 20, 10);
    assert_eq!(ended, 20, "every game ends within nine moves");
}

#[test]
fn arena_trees_append_moves() {
    let root = ArenaTree::root_of(&node(vec![
        leaf(3),
        node(vec![leaf(1), leaf(-2), node(vec![leaf(4)])]),
    ]));
    walk("arena", root, 6, 5);
}

#[test]
fn served_positions_append_moves() {
    walk("any othello", AnyPos::Othello(OthelloPos::initial()), 4, 80);
    walk(
        "any checkers",
        AnyPos::Checkers(CheckersPos::initial()),
        4,
        200,
    );
    walk(
        "any random",
        AnyPos::Random(RandomTreeSpec::new(3, 4, 5).root()),
        3,
        10,
    );
}
