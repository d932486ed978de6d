//! Serial aspiration search.
//!
//! Guess the root value (here: the root's static value), search with a
//! narrow window around the guess, and re-search with a half-open window if
//! the first search fails outside it. The serial counterpart of Baudet's
//! parallel aspiration algorithm (paper §4.1).

use gametree::{GamePosition, Value, Window};
use tt::{TranspositionTable, TtAccess, Zobrist};

use crate::alphabeta::alphabeta_with;
use crate::hooks::Hooks;
use crate::ordering::OrderPolicy;
use crate::SearchResult;

/// Outcome classification of one aspiration probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Probe {
    /// The value fell inside the window: exact, no re-search.
    Exact,
    /// Failed high; re-searched with `(v, +inf)`.
    FailHigh,
    /// Failed low; re-searched with `(-inf, v)`.
    FailLow,
}

/// Result of an aspiration search, including how the probe resolved.
#[derive(Clone, Debug)]
pub struct AspirationResult {
    /// The exact root value.
    pub result: SearchResult,
    /// How the initial probe resolved.
    pub probe: Probe,
}

/// Searches `pos` with an initial window of `guess ± delta`, re-searching
/// as needed. Always returns the exact value.
pub fn aspiration<P: GamePosition>(
    pos: &P,
    depth: u32,
    guess: Value,
    delta: i32,
    policy: OrderPolicy,
) -> AspirationResult {
    aspiration_on(pos, depth, guess, delta, policy, ())
}

/// [`aspiration`] sharing `table`. The table earns its keep on the
/// re-search: everything the failed probe proved is stored, so the
/// half-open re-search replays the probed subtrees from memory instead of
/// searching them again.
pub fn aspiration_tt<P: GamePosition + Zobrist>(
    pos: &P,
    depth: u32,
    guess: Value,
    delta: i32,
    policy: OrderPolicy,
    table: &TranspositionTable,
) -> AspirationResult {
    aspiration_on(pos, depth, guess, delta, policy, table)
}

/// The probe-and-re-search body shared by both aspiration entries.
fn aspiration_on<P: GamePosition, T: TtAccess<P>>(
    pos: &P,
    depth: u32,
    guess: Value,
    delta: i32,
    policy: OrderPolicy,
    tt: T,
) -> AspirationResult {
    assert!(delta > 0, "aspiration window must be non-empty");
    let search = |w: Window| alphabeta_with(pos, depth, w, policy, Hooks::default().with_tt(tt));
    let w = Window::new(
        Value::new(guess.get().saturating_sub(delta)),
        Value::new(guess.get().saturating_add(delta)),
    );
    let first = search(w);
    let mut stats = first.stats;
    let (value, probe) = if first.value >= w.beta {
        // Fail high: the true value is >= first.value.
        stats.re_searches += 1;
        let re = search(Window::new(first.value, Value::INF));
        stats.merge(&re.stats);
        (re.value, Probe::FailHigh)
    } else if first.value <= w.alpha {
        // Fail low: the true value is <= first.value.
        stats.re_searches += 1;
        let re = search(Window::new(Value::NEG_INF, first.value));
        stats.merge(&re.stats);
        (re.value, Probe::FailLow)
    } else {
        (first.value, Probe::Exact)
    };
    AspirationResult {
        result: SearchResult { value, stats },
        probe,
    }
}

/// Aspiration around the root's static value — the common usage when no
/// previous-iteration value is available.
pub fn aspiration_static<P: GamePosition>(
    pos: &P,
    depth: u32,
    delta: i32,
    policy: OrderPolicy,
) -> AspirationResult {
    let mut r = aspiration(pos, depth, pos.evaluate(), delta, policy);
    r.result.stats.eval_calls += 1; // the guess costs one evaluation
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::negmax::negmax;
    use gametree::random::RandomTreeSpec;

    #[test]
    fn always_exact_regardless_of_guess() {
        for seed in 0..8 {
            let root = RandomTreeSpec::new(seed, 4, 5).root();
            let exact = negmax(&root, 5).value;
            for guess in [-30_000, -100, 0, 100, 30_000] {
                let r = aspiration(&root, 5, Value::new(guess), 50, OrderPolicy::NATURAL);
                assert_eq!(r.result.value, exact, "seed {seed} guess {guess}");
            }
        }
    }

    #[test]
    fn exact_probe_when_guess_brackets_value() {
        let root = RandomTreeSpec::new(3, 4, 5).root();
        let exact = negmax(&root, 5).value;
        let r = aspiration(&root, 5, exact, 10, OrderPolicy::NATURAL);
        assert_eq!(r.probe, Probe::Exact);
    }

    #[test]
    fn low_guess_fails_high() {
        let root = RandomTreeSpec::new(3, 4, 5).root();
        let exact = negmax(&root, 5).value;
        let r = aspiration(
            &root,
            5,
            Value::new(exact.get() - 1000),
            10,
            OrderPolicy::NATURAL,
        );
        assert_eq!(r.probe, Probe::FailHigh);
        assert_eq!(r.result.value, exact);
    }

    #[test]
    fn high_guess_fails_low() {
        let root = RandomTreeSpec::new(3, 4, 5).root();
        let exact = negmax(&root, 5).value;
        let r = aspiration(
            &root,
            5,
            Value::new(exact.get() + 1000),
            10,
            OrderPolicy::NATURAL,
        );
        assert_eq!(r.probe, Probe::FailLow);
        assert_eq!(r.result.value, exact);
    }

    #[test]
    fn good_guess_visits_fewer_nodes_than_full_window() {
        let root = RandomTreeSpec::new(5, 4, 6).root();
        let full = crate::alphabeta::alphabeta(&root, 6, OrderPolicy::NATURAL);
        let asp = aspiration(&root, 6, full.value, 20, OrderPolicy::NATURAL);
        assert!(
            asp.result.stats.nodes() <= full.stats.nodes(),
            "{} > {}",
            asp.result.stats.nodes(),
            full.stats.nodes()
        );
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_delta_is_rejected() {
        let root = RandomTreeSpec::new(1, 2, 2).root();
        aspiration(&root, 2, Value::ZERO, 0, OrderPolicy::NATURAL);
    }
}
