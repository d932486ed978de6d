//! Principal-variation splitting (Marsland & Campbell; paper §4.4).
//!
//! The candidate principal variation (the leftmost branch) is traversed
//! serially until the remaining depth equals the processor tree's height;
//! there, tree-splitting evaluates the node. Backing up, the siblings at
//! each PV level are searched with the now-established bound, each sibling
//! assigned to one of the root master's slave subtrees as it becomes free.
//! This gives most of the tree a cutoff-capable window — pv-splitting's
//! advantage over plain tree-splitting on strongly-ordered trees — at the
//! price of serializing the PV descent (the starvation that makes its
//! efficiency "drop exponentially as the number of processors is
//! increased", §4.4).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use gametree::{GamePosition, SearchStats, Value, Window};
use problem_heap::CostModel;
use search_serial::ordering::{ordered_children, OrderPolicy};

use super::tree_split::{run_tree_split_window, ProcShape, TreeSplitResult};

/// Result of a simulated pv-splitting run.
#[derive(Clone, Copy, Debug)]
pub struct PvSplitResult {
    /// The exact root value.
    pub value: Value,
    /// Virtual completion time.
    pub makespan: u64,
    /// Processors used.
    pub processors: usize,
    /// Aggregate nodes examined.
    pub stats: SearchStats,
}

struct Ctx<'a> {
    order: OrderPolicy,
    cost: &'a CostModel,
    stats: SearchStats,
    shape: ProcShape,
    /// Footnote-3 variant: verify siblings with minimal-window probes and
    /// re-search only on fail-high.
    minimal_window: bool,
}

/// Tree-splits `pos`, `ply` plies below the root, with the full processor
/// tree, as a helper that merges stats into the context and offsets time.
fn split_here<P: GamePosition>(
    ctx: &mut Ctx<'_>,
    pos: &P,
    depth: u32,
    window: Window,
    ply: u32,
    start: u64,
) -> (Value, u64) {
    let TreeSplitResult {
        value,
        makespan,
        stats,
        ..
    } = run_tree_split_window(pos, depth, window, ply, ctx.shape, ctx.order, ctx.cost);
    ctx.stats.merge(&stats);
    (value, start + makespan)
}

fn pv_rec<P: GamePosition>(
    ctx: &mut Ctx<'_>,
    pos: &P,
    depth: u32,
    window: Window,
    ply: u32,
    start: u64,
) -> (Value, u64) {
    if depth <= ctx.shape.height || depth == 0 {
        return split_here(ctx, pos, depth, window, ply, start);
    }
    let kids = ordered_children(pos, ply, ctx.order, &mut ctx.stats);
    if kids.is_empty() {
        ctx.stats.leaf_nodes += 1;
        ctx.stats.eval_calls += 1;
        return (pos.evaluate(), start + ctx.cost.eval);
    }
    ctx.stats.interior_nodes += 1;
    let t0 = start + ctx.cost.expand;

    // Descend the candidate principal variation first.
    let (v1, t1) = pv_rec(ctx, &kids[0], depth - 1, window.negate(), ply + 1, t0);
    let mut m = -v1;
    if m >= window.beta {
        ctx.stats.cutoffs += 1;
        return (m, t1);
    }

    // Search the remaining siblings with the established bound: each is
    // assigned to one of the root master's slave subtrees as it frees.
    let slave_shape = ProcShape {
        branching: ctx.shape.branching,
        height: ctx.shape.height.saturating_sub(1),
    };
    // A lone processor (height 0) has no slaves: it searches the siblings
    // itself, one at a time.
    let slaves = if ctx.shape.height == 0 {
        1
    } else {
        ctx.shape.branching
    };
    let mut pending: BinaryHeap<Reverse<(u64, usize, i64)>> = BinaryHeap::new();
    let mut next = 1usize;
    let mut seq = 0usize;
    let mut w = window.raise_alpha(m);
    for _ in 0..slaves.min(kids.len().saturating_sub(1)) {
        let (value, finish) =
            search_sibling(ctx, &kids[next], depth - 1, w, ply + 1, slave_shape, t1);
        pending.push(Reverse((finish, seq, value.get() as i64)));
        seq += 1;
        next += 1;
    }
    let mut last_end = t1;
    while let Some(Reverse((end, _, raw))) = pending.pop() {
        last_end = end;
        m = m.max(-Value::new(raw as i32));
        if m >= window.beta {
            ctx.stats.cutoffs += 1;
            return (m, end);
        }
        w = window.raise_alpha(m);
        if next < kids.len() {
            let (value, finish) =
                search_sibling(ctx, &kids[next], depth - 1, w, ply + 1, slave_shape, end);
            pending.push(Reverse((finish, seq, value.get() as i64)));
            seq += 1;
            next += 1;
        }
    }
    (m, last_end)
}

/// Searches one non-PV sibling, `ply` plies below the root, on a slave
/// subtree starting at `start`. In the minimal-window variant (§4.4
/// footnote) the sibling is first probed with the null window
/// `(alpha, alpha+1)`; only a fail-high inside the real window triggers a
/// full re-search.
fn search_sibling<P: GamePosition>(
    ctx: &mut Ctx<'_>,
    child: &P,
    depth: u32,
    w: Window,
    ply: u32,
    slave_shape: ProcShape,
    start: u64,
) -> (Value, u64) {
    let (cost, order, minimal_window) = (ctx.cost, ctx.order, ctx.minimal_window);
    let assign = start + cost.heap_latency;
    // Every tree-split below searches the same subtree, under its window.
    let mut split = |w: Window| {
        let r = run_tree_split_window(child, depth, w, ply, slave_shape, order, cost);
        ctx.stats.merge(&r.stats);
        r
    };
    if !minimal_window || !w.alpha.is_finite() {
        let r = split(w.negate());
        return (r.value, assign + r.makespan);
    }
    let null = Window::new(w.alpha, Value::new(w.alpha.get() + 1));
    let probe = split(null.negate());
    let pv = -probe.value;
    let mut finish = assign + probe.makespan;
    if pv > w.alpha && pv < w.beta {
        // Fail-high inside the window: the same slave re-searches with the
        // proven lower bound.
        let re = split(Window::new(pv, w.beta).negate());
        finish += cost.heap_latency + re.makespan;
        return (re.value, finish);
    }
    (probe.value, finish)
}

/// Runs pv-splitting over a `shape` processor tree.
pub fn run_pv_split<P: GamePosition>(
    pos: &P,
    depth: u32,
    shape: ProcShape,
    order: OrderPolicy,
    cost: &CostModel,
) -> PvSplitResult {
    run_pv_split_impl(pos, depth, shape, order, cost, false)
}

/// The §4.4 footnote variant: pv-splitting with parallel minimal-window
/// verification of the non-PV children (Marsland & Popowich).
pub fn run_pv_split_mw<P: GamePosition>(
    pos: &P,
    depth: u32,
    shape: ProcShape,
    order: OrderPolicy,
    cost: &CostModel,
) -> PvSplitResult {
    run_pv_split_impl(pos, depth, shape, order, cost, true)
}

fn run_pv_split_impl<P: GamePosition>(
    pos: &P,
    depth: u32,
    shape: ProcShape,
    order: OrderPolicy,
    cost: &CostModel,
    minimal_window: bool,
) -> PvSplitResult {
    let mut ctx = Ctx {
        order,
        cost,
        stats: SearchStats::new(),
        shape,
        minimal_window,
    };
    let (value, makespan) = pv_rec(&mut ctx, pos, depth, Window::FULL, 0, 0);
    PvSplitResult {
        value,
        makespan,
        processors: shape.processors(),
        stats: ctx.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::super::tree_split::run_tree_split;
    use super::*;
    use gametree::ordered::OrderedTreeSpec;
    use gametree::random::RandomTreeSpec;
    use search_serial::{alphabeta, negmax};

    #[test]
    fn matches_negmax() {
        for seed in 0..5 {
            let root = RandomTreeSpec::new(seed, 4, 6).root();
            let exact = negmax(&root, 6).value;
            for shape in [
                ProcShape {
                    branching: 2,
                    height: 2,
                },
                ProcShape {
                    branching: 3,
                    height: 2,
                },
            ] {
                let r = run_pv_split(&root, 6, shape, OrderPolicy::NATURAL, &CostModel::default());
                assert_eq!(r.value, exact, "seed {seed} shape {shape:?}");
            }
        }
    }

    #[test]
    fn minimal_window_variant_matches_negmax() {
        for seed in 0..5 {
            let root = RandomTreeSpec::new(seed, 4, 6).root();
            let exact = negmax(&root, 6).value;
            let r = run_pv_split_mw(
                &root,
                6,
                ProcShape {
                    branching: 2,
                    height: 2,
                },
                OrderPolicy::NATURAL,
                &CostModel::default(),
            );
            assert_eq!(r.value, exact, "seed {seed}");
        }
    }

    #[test]
    fn minimal_window_variant_probes_cheaper_on_ordered_trees() {
        // When siblings almost always fail low, null-window probes examine
        // no more nodes than bounded full searches.
        let cm = CostModel::default();
        let shape = ProcShape {
            branching: 2,
            height: 2,
        };
        let mut plain = 0u64;
        let mut mw = 0u64;
        for seed in 0..4 {
            let root = OrderedTreeSpec::strongly_ordered(seed, 4, 7).root();
            plain += run_pv_split(&root, 7, shape, OrderPolicy::ALWAYS, &cm)
                .stats
                .nodes();
            mw += run_pv_split_mw(&root, 7, shape, OrderPolicy::ALWAYS, &cm)
                .stats
                .nodes();
        }
        assert!(
            (mw as f64) < plain as f64 * 1.15,
            "minimal-window verification out of band: {mw} vs {plain}"
        );
    }

    #[test]
    fn fewer_nodes_than_tree_splitting_on_ordered_trees() {
        // pv-splitting's reason to exist: on strongly ordered trees it
        // limits speculative loss relative to plain tree-splitting.
        let cm = CostModel::default();
        let shape = ProcShape {
            branching: 2,
            height: 3,
        };
        let mut pv = 0u64;
        let mut ts = 0u64;
        for seed in 0..4 {
            let root = OrderedTreeSpec::strongly_ordered(seed, 4, 8).root();
            pv += run_pv_split(&root, 8, shape, OrderPolicy::ALWAYS, &cm)
                .stats
                .nodes();
            ts += run_tree_split(&root, 8, shape, OrderPolicy::ALWAYS, &cm)
                .stats
                .nodes();
        }
        assert!(pv < ts, "pv-splitting must prune better: {pv} vs {ts}");
    }

    #[test]
    fn one_processor_is_no_faster_than_its_own_serial_work() {
        // One processor runs every node it examines back to back, so its
        // makespan is at least the serial time of those nodes.
        let cm = CostModel::default();
        let shape = ProcShape::best_for(1);
        for seed in 0..4 {
            let root = RandomTreeSpec::new(seed, 4, 7).root();
            let ts = run_tree_split(&root, 7, shape, OrderPolicy::NATURAL, &cm);
            assert_eq!(ts.makespan, cm.serial_ticks(&ts.stats), "seed {seed}");
            let pv = run_pv_split(&root, 7, shape, OrderPolicy::NATURAL, &cm);
            let mw = run_pv_split_mw(&root, 7, shape, OrderPolicy::NATURAL, &cm);
            for (name, r) in [("pv", pv), ("pv-mw", mw)] {
                let serial = cm.serial_ticks(&r.stats);
                assert!(
                    r.makespan >= serial,
                    "{name} seed {seed}: makespan {} under serial {serial}",
                    r.makespan
                );
            }
        }
    }

    #[test]
    fn efficiency_declines_with_processor_count() {
        // Marsland & Popowich: efficiency drops steeply as processors are
        // added (the PV descent serializes).
        let cm = CostModel::default();
        let root = OrderedTreeSpec::strongly_ordered(2, 4, 8).root();
        let serial = cm.serial_ticks(&alphabeta(&root, 8, OrderPolicy::ALWAYS).stats);
        let small = run_pv_split(
            &root,
            8,
            ProcShape {
                branching: 2,
                height: 1,
            },
            OrderPolicy::ALWAYS,
            &cm,
        );
        let large = run_pv_split(
            &root,
            8,
            ProcShape {
                branching: 2,
                height: 3,
            },
            OrderPolicy::ALWAYS,
            &cm,
        );
        let eff_small = serial as f64 / small.makespan as f64 / small.processors as f64;
        let eff_large = serial as f64 / large.makespan as f64 / large.processors as f64;
        assert!(
            eff_large < eff_small,
            "efficiency must decline: {eff_small:.2} -> {eff_large:.2}"
        );
    }
}
