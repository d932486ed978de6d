//! Naive root partitioning — the strawman of the paper's introduction:
//! "A parallel algorithm that simply partitions the tree amongst the
//! available processors will search a much greater portion of the tree
//! than serial alpha-beta, resulting in low efficiency."
//!
//! Each processor takes root children round-robin and evaluates its share
//! with *full-window* serial alpha-beta — no information ever flows
//! between processors. This quantifies how much the window sharing of
//! every real algorithm (tree-splitting onward) is actually worth.

use gametree::{GamePosition, SearchStats, Value, Window};
use problem_heap::CostModel;
use search_serial::ordering::{ordered_children, OrderPolicy};
use search_serial::{alphabeta_with, Hooks};

/// Result of a naive root-partition run.
#[derive(Clone, Copy, Debug)]
pub struct RootSplitResult {
    /// The exact root value.
    pub value: Value,
    /// Virtual completion time (the most loaded processor).
    pub makespan: u64,
    /// Aggregate nodes examined.
    pub stats: SearchStats,
}

/// Runs the naive partition with `k` processors.
pub fn run_root_split<P: GamePosition>(
    pos: &P,
    depth: u32,
    k: usize,
    order: OrderPolicy,
    cost: &CostModel,
) -> RootSplitResult {
    assert!(k >= 1);
    let mut stats = SearchStats::new();
    let kids = if depth == 0 {
        Vec::new()
    } else {
        ordered_children(pos, 0, order, &mut stats)
    };
    if kids.is_empty() {
        stats.leaf_nodes += 1;
        stats.eval_calls += 1;
        return RootSplitResult {
            value: pos.evaluate(),
            makespan: cost.eval,
            stats,
        };
    }
    stats.interior_nodes += 1;

    // Round-robin assignment; each processor works through its children
    // sequentially with NO shared bounds (each child gets the full window,
    // negated for the child's point of view), searched at its real ply 1.
    let mut loads = vec![cost.expand; k];
    let mut value = Value::NEG_INF;
    for (i, child) in kids.iter().enumerate() {
        let r = alphabeta_with(child, depth - 1, Window::FULL, order, 1, Hooks::default());
        stats.merge(&r.stats);
        loads[i % k] += cost.serial_ticks(&r.stats);
        value = value.max(-r.value);
    }
    RootSplitResult {
        value,
        makespan: *loads.iter().max().expect("k >= 1"),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gametree::random::RandomTreeSpec;
    use search_serial::{alphabeta, negmax};

    #[test]
    fn matches_negmax() {
        for seed in 0..5 {
            let root = RandomTreeSpec::new(seed, 4, 6).root();
            let exact = negmax(&root, 6).value;
            for k in [1usize, 3, 16] {
                let r = run_root_split(&root, 6, k, OrderPolicy::NATURAL, &CostModel::default());
                assert_eq!(r.value, exact, "seed {seed} k {k}");
            }
        }
    }

    #[test]
    fn root_children_are_searched_at_their_real_ply() {
        // OTHELLO sorts above ply five. A child searched as if it were the
        // root would sort again at real ply 5, so the partition's counters
        // must equal the root's expansion plus one search per child
        // anchored at ply 1 — and differ from searches anchored at ply 0.
        let (_, root) = othello::configs::all().remove(0);
        let (depth, order) = (6, OrderPolicy::OTHELLO);
        let r = run_root_split(&root, depth, 4, order, &CostModel::default());
        let at_ply = |ply: u32| {
            let mut stats = SearchStats::new();
            let kids = ordered_children(&root, 0, order, &mut stats);
            stats.interior_nodes += 1;
            for kid in &kids {
                let w = Window::FULL;
                let s = alphabeta_with(kid, depth - 1, w, order, ply, Hooks::default()).stats;
                stats.merge(&s);
            }
            stats
        };
        let (real, shifted) = (at_ply(1), at_ply(0));
        assert_ne!(real.sorts, shifted.sorts, "the root must reach ply 5");
        assert_eq!(r.stats, real);
    }

    #[test]
    fn examines_far_more_nodes_than_serial_alphabeta() {
        // The introduction's claim, quantified: full-window evaluation of
        // every root child forgoes all sibling cutoffs.
        let cm = CostModel::default();
        let mut naive = 0u64;
        let mut serial = 0u64;
        for seed in 0..5 {
            let root = RandomTreeSpec::new(seed, 4, 7).root();
            naive += run_root_split(&root, 7, 4, OrderPolicy::NATURAL, &cm)
                .stats
                .nodes();
            serial += alphabeta(&root, 7, OrderPolicy::NATURAL).stats.nodes();
        }
        assert!(
            naive as f64 > serial as f64 * 1.5,
            "naive partition must waste heavily: {naive} vs {serial}"
        );
    }

    #[test]
    fn speedup_is_capped_by_wasted_work() {
        let cm = CostModel::default();
        let root = RandomTreeSpec::new(1, 4, 8).root();
        let serial = cm.serial_ticks(&alphabeta(&root, 8, OrderPolicy::NATURAL).stats);
        let r = run_root_split(&root, 8, 16, OrderPolicy::NATURAL, &cm);
        let speedup = serial as f64 / r.makespan as f64;
        assert!(
            speedup < 8.0,
            "16 processors with no sharing cannot come close to 16x: {speedup:.2}"
        );
    }

    #[test]
    fn terminal_root_is_one_evaluation() {
        let root = RandomTreeSpec::new(1, 3, 3).root();
        let r = run_root_split(&root, 0, 4, OrderPolicy::NATURAL, &CostModel::default());
        use gametree::GamePosition;
        assert_eq!(r.value, root.evaluate());
    }
}
