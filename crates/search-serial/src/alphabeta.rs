//! Alpha-beta search with deep cutoffs (paper §2.1), fail-soft.
//!
//! This is the "best serial algorithm" that speedups are measured against
//! in the paper's experiments (with child sorting per §7).

use gametree::{GamePosition, SearchStats, Value, Window};
use trace::TraceAccess;
use tt::{Bound, TtAccess};

use crate::control::{CtlAccess, CtlHook, CtlSearchResult};
use crate::hooks::{run_serial, Hooks, SerialBody};
use crate::ordering::{note_cutoff, Children, OrdAccess, OrderPolicy};
use crate::SearchResult;

/// Full-window alpha-beta evaluation of `pos` to `depth` plies.
pub fn alphabeta<P: GamePosition>(pos: &P, depth: u32, policy: OrderPolicy) -> SearchResult {
    alphabeta_with(pos, depth, Window::FULL, policy, 0, Hooks::default()).into()
}

/// Alpha-beta under `window`, starting at ply `start_ply`, with any
/// [`Hooks`]: a table (probe before expanding — an equal-depth entry can
/// answer the node outright — seed child ordering with the stored best
/// move, store on every return), a control polled at every node, a tracer,
/// and killer/history tables ranking the children the static policy left
/// unsorted. `start_ply` anchors the ordering policy's ply limit and the
/// killer slots at the global root, as in
/// [`er_search_with`](crate::er_search_with).
///
/// The result is exact if it lies strictly inside `window`. At or above
/// beta it is a fail-soft lower bound; a search that fails low returns at
/// least `window.alpha`, an upper bound, as serial ER does. Every node
/// below the root stays fail-soft. A run the control aborted flags itself
/// via `aborted` and its value is partial.
pub fn alphabeta_with<P, T, C, R, O>(
    pos: &P,
    depth: u32,
    window: Window,
    policy: OrderPolicy,
    start_ply: u32,
    hooks: Hooks<T, C, R, O>,
) -> CtlSearchResult
where
    P: GamePosition,
    T: TtAccess<P>,
    C: CtlHook,
    R: TraceAccess,
    O: OrdAccess,
{
    let ord = hooks.ord;
    run_serial(
        hooks,
        Ab {
            pos,
            depth,
            window,
            policy,
            start_ply,
            ord,
        },
    )
}

/// The alpha-beta recursion as a [`SerialBody`].
struct Ab<'a, P, O> {
    pos: &'a P,
    depth: u32,
    window: Window,
    policy: OrderPolicy,
    start_ply: u32,
    ord: O,
}

impl<P: GamePosition, O: OrdAccess> SerialBody<P> for Ab<'_, P, O> {
    fn run<T: TtAccess<P>, C: CtlAccess>(
        self,
        tt: T,
        ctl: C,
        stats: &mut SearchStats,
    ) -> Result<Value, Value> {
        let mut stack = Vec::new();
        ab_rec(
            self.pos,
            self.depth,
            self.window,
            self.start_ply,
            self.policy,
            tt,
            ctl,
            self.ord,
            &mut stack,
            stats,
        )
        .map(|v| v.max(self.window.alpha))
        .ok_or(Value::NEG_INF)
    }
}

/// Classifies a fail-soft result against the *original* window: at or above
/// beta it is a lower bound, at or below alpha an upper bound (fail-soft
/// child values bound the true value from the failing side), strictly
/// inside it is exact.
pub fn fail_soft_bound(value: Value, window: Window) -> Bound {
    if value >= window.beta {
        Bound::Lower
    } else if value <= window.alpha {
        Bound::Upper
    } else {
        Bound::Exact
    }
}

/// Free room the move stack keeps before a node appends its moves. A node
/// with at most this many moves appends without reallocating; when the
/// room runs out, `reserve` grows the stack geometrically, where
/// `moves_into`'s own exact reservation would grow it move list by move
/// list.
const MOVE_HEADROOM: usize = 32;

/// One node of the recursion. Its moves go on top of `stack`, the one move
/// stack of the whole search, and come off again on every exit: a result,
/// a table or beta cutoff, or an abort.
#[allow(clippy::too_many_arguments)]
fn ab_rec<P: GamePosition, T: TtAccess<P>, C: CtlAccess, O: OrdAccess>(
    pos: &P,
    depth: u32,
    window: Window,
    ply: u32,
    policy: OrderPolicy,
    tt: T,
    ctl: C,
    ord: O,
    stack: &mut Vec<P::Move>,
    stats: &mut SearchStats,
) -> Option<Value> {
    let base = stack.len();
    let r = ab_node(
        pos, depth, window, ply, policy, tt, ctl, ord, stack, base, stats,
    );
    stack.truncate(base);
    r
}

/// [`ab_rec`]'s body: its moves are `stack[base..]`, walked by index.
#[allow(clippy::too_many_arguments)]
fn ab_node<P: GamePosition, T: TtAccess<P>, C: CtlAccess, O: OrdAccess>(
    pos: &P,
    depth: u32,
    window: Window,
    ply: u32,
    policy: OrderPolicy,
    tt: T,
    ctl: C,
    ord: O,
    stack: &mut Vec<P::Move>,
    base: usize,
    stats: &mut SearchStats,
) -> Option<Value> {
    if ctl.check().is_some() {
        return None;
    }
    // Generated once: the terminal test and the children both read it.
    if depth > 0 {
        stack.reserve(MOVE_HEADROOM);
        pos.moves_into(stack);
    }
    if stack.len() == base {
        stats.leaf_nodes += 1;
        stats.eval_calls += 1;
        let v = pos.evaluate();
        tt.store(pos, depth, v, Bound::Exact, None);
        return Some(v);
    }
    let hint = match tt.probe(pos) {
        Some(p) => {
            if let Some(v) = p.cutoff(depth, window) {
                return Some(v);
            }
            p.hint
        }
        None => None,
    };
    stats.interior_nodes += 1;
    let (mut kids, hinted) = Children::new(pos, &stack[base..], ply, policy, ord, hint, stats);
    if hinted {
        tt.note_hint_used();
    }
    let mut m = Value::NEG_INF;
    let mut best = None;
    let mut w = window;
    while let Some((nat, child)) = kids.next(pos, &stack[base..]) {
        // An abort below propagates before any store: partial values never
        // reach the table.
        let t = -ab_rec(
            &child,
            depth - 1,
            w.negate(),
            ply + 1,
            policy,
            tt,
            ctl,
            ord,
            stack,
            stats,
        )?;
        if t > m {
            m = t;
            best = Some(nat);
        }
        w = w.raise_alpha(m);
        if m >= window.beta {
            stats.cutoffs += 1;
            note_cutoff(ord, ply, depth, nat, stats);
            tt.store(pos, depth, m, Bound::Lower, best);
            return Some(m);
        }
    }
    tt.store(pos, depth, m, fail_soft_bound(m, window), best);
    Some(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::negmax::negmax;
    use crate::ordering::{rank_children, splice_hint, OrderedChild, OrderingTables};
    use checkers::CheckersPos;
    use gametree::arena::{leaf, node, ArenaTree};
    use gametree::minimal::minimal_leaf_count;
    use gametree::ordered::OrderedTreeSpec;
    use gametree::random::{splitmix64, RandomTreeSpec};
    use gametree::tictactoe::TicTacToe;
    use othello::OthelloPos;
    use tt::{TranspositionTable, Zobrist};

    fn window<P: GamePosition>(root: &P, depth: u32, w: Window) -> Value {
        alphabeta_with(root, depth, w, OrderPolicy::NATURAL, 0, Hooks::default()).value
    }

    #[test]
    fn full_window_equals_negmax_on_random_trees() {
        for seed in 0..8 {
            let root = RandomTreeSpec::new(seed, 4, 5).root();
            let ab = alphabeta(&root, 5, OrderPolicy::NATURAL);
            let nm = negmax(&root, 5);
            assert_eq!(ab.value, nm.value, "seed {seed}");
            assert!(
                ab.stats.nodes() <= nm.stats.nodes(),
                "pruning never adds nodes"
            );
        }
    }

    #[test]
    fn shallow_cutoff_of_figure_2a() {
        // Figure 2(a): A's first child is -7 so A >= 7; B's first child is 5
        // so B >= -5 and B's remaining children are cut off.
        let root = ArenaTree::root_of(&node(vec![leaf(-7), node(vec![leaf(5), leaf(-100)])]));
        let r = alphabeta(&root, 2, OrderPolicy::NATURAL);
        assert_eq!(r.value, Value::new(7));
        // Nodes: root, leaf -7, node B, leaf 5 — the -100 leaf is pruned.
        assert_eq!(r.stats.nodes(), 4);
        assert_eq!(r.stats.cutoffs, 1);
    }

    #[test]
    fn deep_cutoff_of_figure_2b() {
        // Figure 2(b): A >= 5 from its first child; deep in the second
        // subtree, D's first child has value -5, giving D >= 5 and cutting
        // off D's remaining children via the *grandparent's* bound.
        let d_node = node(vec![leaf(-5), leaf(-100)]);
        let c_node = node(vec![leaf(9), d_node]);
        let b_node = node(vec![c_node]);
        let root = ArenaTree::root_of(&node(vec![leaf(-5), b_node]));
        let r = alphabeta(&root, 4, OrderPolicy::NATURAL);
        // The -100 leaf under D must not be visited: count visited leaves.
        assert_eq!(r.stats.leaf_nodes, 3, "leaves visited: -5, 9, -5 only");
    }

    #[test]
    fn best_first_tree_searches_exactly_the_minimal_tree() {
        // On a perfectly ordered tree, alpha-beta visits exactly
        // d^ceil(h/2) + d^floor(h/2) - 1 leaves (paper §2.2).
        for (d, h) in [(2u32, 6u32), (3, 4), (4, 4), (5, 3)] {
            let root = OrderedTreeSpec::best_first(7, d, h).root();
            let r = alphabeta(&root, h, OrderPolicy::NATURAL);
            assert_eq!(
                r.stats.leaf_nodes,
                minimal_leaf_count(d as u64, h),
                "d={d} h={h}"
            );
        }
    }

    #[test]
    fn sorting_reduces_leaf_visits_on_correlated_trees() {
        let root = OrderedTreeSpec::strongly_ordered(3, 5, 6).root();
        let unsorted = alphabeta(&root, 6, OrderPolicy::NATURAL);
        let sorted = alphabeta(&root, 6, OrderPolicy::ALWAYS);
        assert_eq!(unsorted.value, sorted.value);
        assert!(
            sorted.stats.leaf_nodes <= unsorted.stats.leaf_nodes,
            "static sorting should not hurt a correlated tree: {} vs {}",
            sorted.stats.leaf_nodes,
            unsorted.stats.leaf_nodes
        );
    }

    #[test]
    fn fail_soft_bounds_are_sound() {
        for seed in 0..10 {
            let root = RandomTreeSpec::new(seed, 3, 4).root();
            let exact = negmax(&root, 4).value;
            // A window strictly below the exact value fails high with a
            // lower bound <= exact; strictly above fails low with alpha
            // itself, an upper bound >= exact.
            let lo = Window::new(Value::new(-20_000), Value::new(exact.get() - 1));
            let hi = Window::new(Value::new(exact.get() + 1), Value::new(20_000));
            let fail_high = window(&root, 4, lo);
            let fail_low = window(&root, 4, hi);
            assert!(fail_high >= Value::new(exact.get() - 1), "seed {seed}");
            assert!(fail_high <= exact, "fail-soft lower bound exceeds exact");
            assert_eq!(fail_low, hi.alpha, "seed {seed}");
        }
    }

    #[test]
    fn start_ply_anchors_the_sorting_limit() {
        // OrderPolicy::OTHELLO sorts above ply five: a subtree searched from
        // ply five sorts nothing, the same subtree from ply 0 sorts.
        let root = RandomTreeSpec::new(4, 4, 4).root();
        let at = |ply| {
            alphabeta_with(
                &root,
                4,
                Window::FULL,
                OrderPolicy::OTHELLO,
                ply,
                Hooks::default(),
            )
        };
        let (top, deep) = (at(0), at(5));
        assert_eq!(top.value, deep.value);
        assert!(top.stats.sorts > 0);
        assert_eq!(deep.stats.sorts, 0);
        assert_eq!(deep.stats, alphabeta(&root, 4, OrderPolicy::NATURAL).stats);
    }

    #[test]
    fn window_containing_value_gives_exact_result() {
        for seed in 0..10 {
            let root = RandomTreeSpec::new(seed, 3, 4).root();
            let exact = negmax(&root, 4).value;
            let w = Window::new(Value::new(exact.get() - 5), Value::new(exact.get() + 5));
            assert_eq!(window(&root, 4, w), exact, "seed {seed}");
        }
    }

    /// The recursion before lazy children: materializes `children()` in
    /// full at every interior node, then sorts, ranks and splices the hint.
    #[allow(clippy::too_many_arguments)]
    fn reference<P: GamePosition, T: TtAccess<P>, O: OrdAccess>(
        pos: &P,
        depth: u32,
        window: Window,
        ply: u32,
        policy: OrderPolicy,
        tt: T,
        ord: O,
        stats: &mut SearchStats,
    ) -> Value {
        let children = if depth == 0 {
            Vec::new()
        } else {
            pos.children()
        };
        if children.is_empty() {
            stats.leaf_nodes += 1;
            stats.eval_calls += 1;
            let v = pos.evaluate();
            tt.store(pos, depth, v, Bound::Exact, None);
            return v;
        }
        let hint = match tt.probe(pos) {
            Some(p) => {
                if let Some(v) = p.cutoff(depth, window) {
                    return v;
                }
                p.hint
            }
            None => None,
        };
        stats.interior_nodes += 1;
        let mut kids: Vec<OrderedChild<P>> = children
            .into_iter()
            .enumerate()
            .map(|(i, pos)| OrderedChild {
                nat: i as u16,
                pos,
                static_eval: None,
            })
            .collect();
        if policy.sorts_at(ply) && kids.len() > 1 {
            for k in &mut kids {
                stats.eval_calls += 1;
                k.static_eval = Some(k.pos.evaluate());
            }
            stats.sorts += 1;
            kids.sort_by_key(|k| (k.static_eval, k.nat));
        }
        rank_children(&mut kids, ply, ord);
        if splice_hint(&mut kids, hint) {
            tt.note_hint_used();
        }
        let (mut m, mut best, mut w) = (Value::NEG_INF, None, window);
        for k in &kids {
            let t = -reference(
                &k.pos,
                depth - 1,
                w.negate(),
                ply + 1,
                policy,
                tt,
                ord,
                stats,
            );
            if t > m {
                m = t;
                best = Some(k.nat);
            }
            w = w.raise_alpha(m);
            if m >= window.beta {
                stats.cutoffs += 1;
                note_cutoff(ord, ply, depth, k.nat, stats);
                tt.store(pos, depth, m, Bound::Lower, best);
                return m;
            }
        }
        tt.store(pos, depth, m, fail_soft_bound(m, window), best);
        m
    }

    /// Runs `alphabeta_with` and the reference side by side over the full,
    /// a narrow and a null window around the root's value, each side on
    /// its own fresh table or ordering tables (shared across its three
    /// windows), and demands the same values, stats and table counters.
    fn assert_matches_reference<P: GamePosition + Zobrist>(name: &str, root: &P, depth: u32) {
        let exact = negmax(root, depth).value.get();
        let windows = [
            Window::FULL,
            Window::new(Value::new(exact - 20), Value::new(exact + 20)),
            Window::new(Value::new(exact - 1), Value::new(exact)),
        ];
        for policy in [OrderPolicy::NATURAL, OrderPolicy::OTHELLO] {
            for ply in [0, 3] {
                let case = |w: Window| format!("{name} {policy:?} ply {ply} {w:?}");
                let check = |w: Window, got: CtlSearchResult, want: Value, stats: SearchStats| {
                    assert_eq!(got.value, want.max(w.alpha), "{}", case(w));
                    assert_eq!(got.stats, stats, "{}", case(w));
                };
                let (t_new, t_ref) = (
                    TranspositionTable::with_bits(12),
                    TranspositionTable::with_bits(12),
                );
                let (o_new, o_ref) = (OrderingTables::new(), OrderingTables::new());
                for w in windows {
                    let mut s = SearchStats::new();
                    let v = reference(root, depth, w, ply, policy, (), (), &mut s);
                    let got = alphabeta_with(root, depth, w, policy, ply, Hooks::default());
                    check(w, got, v, s);

                    let mut s = SearchStats::new();
                    let v = reference(root, depth, w, ply, policy, &t_ref, (), &mut s);
                    let hooks = Hooks::default().with_tt(&t_new);
                    check(w, alphabeta_with(root, depth, w, policy, ply, hooks), v, s);
                    assert_eq!(t_new.stats(), t_ref.stats(), "{}", case(w));

                    let mut s = SearchStats::new();
                    let v = reference(root, depth, w, ply, policy, (), &o_ref, &mut s);
                    let hooks = Hooks::default().with_ord(&o_new);
                    check(w, alphabeta_with(root, depth, w, policy, ply, hooks), v, s);
                }
            }
        }
    }

    /// The position `plies` pseudo-random moves after `pos` (fewer if the
    /// game ends first).
    fn walk<P: GamePosition>(mut pos: P, seed: u64, plies: u64) -> P {
        for i in 0..plies {
            let moves = pos.moves();
            if moves.is_empty() {
                break;
            }
            let pick = splitmix64(seed ^ (i << 8)) as usize % moves.len();
            pos = pos.play(&moves[pick]);
        }
        pos
    }

    #[test]
    fn lazy_children_match_a_materializing_reference() {
        for seed in 0..3 {
            let root = RandomTreeSpec::new(seed, 4, 6).root();
            assert_matches_reference(&format!("random {seed}"), &root, 5);
        }
        for seed in 0..3 {
            let root = walk(OthelloPos::initial(), seed, 8 + 4 * seed);
            assert_matches_reference(&format!("othello {seed}"), &root, 4);
            let root = walk(CheckersPos::initial(), seed, 6 + 4 * seed);
            assert_matches_reference(&format!("checkers {seed}"), &root, 5);
        }
        // Games end inside the search: terminal nodes above the horizon.
        let root = walk(TicTacToe::initial(), 1, 2);
        assert_matches_reference("tic-tac-toe", &root, 7);
    }

    #[test]
    fn narrower_windows_never_visit_more_nodes() {
        for seed in 0..6 {
            let root = RandomTreeSpec::new(seed, 4, 4).root();
            let full = alphabeta(&root, 4, OrderPolicy::NATURAL);
            let exact = full.value.get();
            let narrow = Window::new(Value::new(exact - 1), Value::new(exact + 1));
            let r = alphabeta_with(&root, 4, narrow, OrderPolicy::NATURAL, 0, Hooks::default());
            assert!(r.stats.nodes() <= full.stats.nodes(), "seed {seed}");
        }
    }
}
