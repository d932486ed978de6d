//! Parallel aspiration search (Baudet; paper §4.1).
//!
//! The alpha-beta window is divided into `k` disjoint intervals around an
//! estimate of the root value; each processor searches the whole tree with
//! its own window and exactly one of them succeeds (its window brackets
//! the true value, or it is the half-open extreme window on the correct
//! side). Processors never communicate until one finds the solution, so
//! the parallel time is simply the successful processor's serial time —
//! which is why Baudet observed speedup "limited to a maximum of 5 or 6
//! regardless of the number of processors used", and why the speedup is
//! *zero* extra on a best-first-ordered tree (every window still searches
//! the minimal tree).

use gametree::{GamePosition, SearchStats, Value, Window};
use problem_heap::CostModel;
use search_serial::ordering::OrderPolicy;
use search_serial::{alphabeta, alphabeta_with, Hooks};

/// Result of a simulated parallel aspiration run.
#[derive(Clone, Copy, Debug)]
pub struct AspirationRunResult {
    /// The exact root value.
    pub value: Value,
    /// Virtual time: the successful processor's search time (plus any
    /// boundary re-search).
    pub makespan: u64,
    /// Aggregate counters across *all* processors (nodes examined).
    pub stats: SearchStats,
}

/// Divides the value axis into `k` windows of width `step` centred on
/// `guess`: `(-inf, b_1), [b_1, b_2), ..., [b_{k-1}, +inf)`.
fn window_bounds(guess: i32, k: usize, step: i32) -> Vec<Value> {
    let mut bounds = Vec::with_capacity(k.saturating_sub(1));
    let lo = guess - step * (k as i32 - 1) / 2;
    for i in 0..k.saturating_sub(1) {
        bounds.push(Value::new(lo + step * i as i32));
    }
    bounds
}

/// Runs parallel aspiration with `k` simulated processors.
///
/// Every processor's full search is executed (their node counts all count
/// toward `stats`); the makespan is the time of the processor whose search
/// produces the exact value. If the winning probe lands exactly on a
/// window boundary, a full-window re-search is charged on top, as a real
/// implementation would.
pub fn run_aspiration<P: GamePosition>(
    pos: &P,
    depth: u32,
    k: usize,
    step: i32,
    order: OrderPolicy,
    cost: &CostModel,
) -> AspirationRunResult {
    run_aspiration_guess(pos, depth, pos.evaluate(), k, step, order, cost)
}

/// [`run_aspiration`] with an explicit estimate of the root value (e.g.
/// from a shallower search, as an iterative-deepening driver would have).
pub fn run_aspiration_guess<P: GamePosition>(
    pos: &P,
    depth: u32,
    guess: gametree::Value,
    k: usize,
    step: i32,
    order: OrderPolicy,
    cost: &CostModel,
) -> AspirationRunResult {
    assert!(k >= 1 && step > 0);
    let bounds = window_bounds(guess.get(), k, step);

    let mut total = SearchStats::new();
    total.eval_calls += 1; // the shared estimate

    let mut makespan = 0u64;
    let mut value = None;
    for i in 0..k {
        let alpha = if i == 0 {
            Value::NEG_INF
        } else {
            bounds[i - 1]
        };
        let beta = if i == k - 1 { Value::INF } else { bounds[i] };
        let w = Window::new(alpha, beta);
        let r = alphabeta_with(pos, depth, w, order, 0, Hooks::default());
        total.merge(&r.stats);
        let ticks = cost.serial_ticks(&r.stats);
        if value.is_some() {
            continue;
        }
        if w.contains(r.value) {
            value = Some(r.value);
            makespan = ticks;
        } else if r.value <= w.alpha && i == 0 {
            // The leftmost window is half-open below: a fail-low here can
            // only be the boundary value itself; confirm it.
            let re = alphabeta(pos, depth, order);
            total.merge(&re.stats);
            value = Some(re.value);
            makespan = ticks + cost.serial_ticks(&re.stats);
        } else if r.value >= w.beta && i == k - 1 {
            // Symmetric case at the rightmost window.
            let re = alphabeta(pos, depth, order);
            total.merge(&re.stats);
            value = Some(re.value);
            makespan = ticks + cost.serial_ticks(&re.stats);
        }
    }
    // The windows cover the whole axis, but a value exactly equal to an
    // interior boundary can fail both neighbouring probes; resolve with a
    // full-window search charged after the slowest probe (rare).
    let value = match value {
        Some(v) => v,
        None => {
            let re = alphabeta(pos, depth, order);
            total.merge(&re.stats);
            makespan += cost.serial_ticks(&re.stats);
            re.value
        }
    };
    AspirationRunResult {
        value,
        makespan,
        stats: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gametree::random::RandomTreeSpec;
    use search_serial::negmax;

    #[test]
    fn exact_value_for_all_processor_counts() {
        for seed in 0..5 {
            let root = RandomTreeSpec::new(seed, 4, 6).root();
            let exact = negmax(&root, 6).value;
            for k in [1usize, 2, 4, 8, 16] {
                let r = run_aspiration(
                    &root,
                    6,
                    k,
                    200,
                    OrderPolicy::NATURAL,
                    &CostModel::default(),
                );
                assert_eq!(r.value, exact, "seed {seed} k {k}");
            }
        }
    }

    #[test]
    fn narrow_window_winner_is_no_slower_than_full_search() {
        let cm = CostModel::default();
        let root = RandomTreeSpec::new(7, 4, 8).root();
        let full = search_serial::alphabeta(&root, 8, OrderPolicy::NATURAL);
        let serial = cm.serial_ticks(&full.stats);
        let r = run_aspiration(&root, 8, 8, 500, OrderPolicy::NATURAL, &cm);
        assert!(
            r.makespan <= serial,
            "a bracketing window can only prune more: {} vs {serial}",
            r.makespan
        );
    }

    #[test]
    fn speedup_saturates_with_more_processors() {
        // Baudet's plateau: k=32 gains little over k=8, because the
        // winning window's width stops shrinking usefully.
        let cm = CostModel::default();
        let root = RandomTreeSpec::new(3, 4, 8).root();
        let m8 = run_aspiration(&root, 8, 8, 200, OrderPolicy::NATURAL, &cm).makespan;
        let m32 = run_aspiration(&root, 8, 32, 200, OrderPolicy::NATURAL, &cm).makespan;
        assert!(
            m32 as f64 > m8 as f64 * 0.4,
            "aspiration cannot keep scaling: {m8} -> {m32}"
        );
    }

    #[test]
    fn total_nodes_scale_with_processor_count() {
        let cm = CostModel::default();
        let root = RandomTreeSpec::new(5, 4, 6).root();
        let n2 = run_aspiration(&root, 6, 2, 200, OrderPolicy::NATURAL, &cm)
            .stats
            .nodes();
        let n8 = run_aspiration(&root, 6, 8, 200, OrderPolicy::NATURAL, &cm)
            .stats
            .nodes();
        assert!(n8 > n2, "every processor searches the whole tree");
    }

    #[test]
    fn single_processor_is_plain_alphabeta() {
        let cm = CostModel::default();
        let root = RandomTreeSpec::new(9, 4, 6).root();
        let r = run_aspiration(&root, 6, 1, 200, OrderPolicy::NATURAL, &cm);
        let ab = search_serial::alphabeta(&root, 6, OrderPolicy::NATURAL);
        assert_eq!(r.value, ab.value);
        // k=1: the single window is (-inf, +inf) = plain alpha-beta, plus
        // the one estimate call.
        assert_eq!(r.stats.nodes(), ab.stats.nodes());
    }
}
