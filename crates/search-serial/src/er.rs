//! Serial ER — the paper's Figure 8.
//!
//! ER decomposes search into *evaluating* one child per node (the e-child)
//! and *refuting* the rest. For every node, `Eval_first` evaluates the
//! node's first child (recursively, by full ER); with those tentative
//! values in hand, ER sorts its children by tentative value and refutes
//! them in order via `Refute_rest`. The child refuted first is effectively
//! the e-child: its refutation is expected to fail, establishing the node's
//! value cheaply, after which the remaining refutations usually succeed
//! immediately.
//!
//! ## Pseudocode erratum
//!
//! Figure 8's `Refute_rest` begins with `value := α`, which would discard
//! the tentative value installed by `Eval_first` (the contribution of the
//! node's first child). If the first child is the node's best child and the
//! refutation fails, the returned "exact" value would be too low and the
//! parent would *overestimate* its own value. The prose (§5) makes clear
//! tentative values persist, so we implement `value := max(value, α)`.
//! This matches the worked example of Figure 7 and makes ER agree with
//! negmax on every tree (see the equivalence tests and the crate-level
//! property tests).

use gametree::{GamePosition, SearchStats, Value, Window};
use trace::TraceAccess;
use tt::{Bound, TtAccess};

use crate::control::{CtlAccess, CtlHook, CtlSearchResult};
use crate::hooks::{run_serial, Hooks, SerialBody};
use crate::ordering::{note_cutoff, rank_key, OrdAccess, OrderPolicy};
use crate::SearchResult;

/// Configuration for serial ER.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ErConfig {
    /// Ordering policy for children of *non*-e-nodes; it selects which
    /// grandchild becomes the elder grandchild. Children of e-nodes are
    /// never statically sorted — ER orders them by tentative search values
    /// instead (§7: "Successors of e-nodes were also not sorted").
    pub order: OrderPolicy,
    /// Placeholder that carries nothing. Only perfbench's adapter still
    /// names it, in its `ErConfig` literal; the next change to the
    /// benchmark deletes it together with `ErParallelConfig::sel`. Build
    /// configurations with [`ErConfig::new`].
    pub sel: (),
}

impl ErConfig {
    /// No static sorting anywhere (the paper's random-tree setting).
    pub const NATURAL: ErConfig = ErConfig::new(OrderPolicy::NATURAL);

    /// The paper's Othello setting: sort above ply five.
    pub const OTHELLO: ErConfig = ErConfig::new(OrderPolicy::OTHELLO);

    /// Serial ER under `order`.
    pub const fn new(order: OrderPolicy) -> ErConfig {
        ErConfig { order, sel: () }
    }
}

/// A node of the partially-materialized ER search tree. Children persist
/// between `Eval_first` and `Refute_rest`, carrying their tentative values.
struct ErNode<P: GamePosition> {
    pos: P,
    /// Remaining search depth below this node.
    depth: u32,
    /// Distance from the root (for the ordering policy).
    ply: u32,
    /// Index of this node in its parent's *natural* move order — the
    /// stable identity a transposition-table move hint refers to,
    /// independent of static sorting and tentative-value reordering.
    nat: u16,
    value: Value,
    done: bool,
    /// Natural index of the child that produced `value`, if a child did:
    /// the best-move hint stored with this node's table entry.
    best: Option<u16>,
    kids: Vec<ErNode<P>>,
    expanded: bool,
    /// Memoized static evaluation of `pos`, installed when the parent's
    /// sorting probe already evaluated this position — a later leaf
    /// evaluation reuses it instead of calling the evaluator again.
    static_eval: Option<Value>,
}

impl<P: GamePosition> ErNode<P> {
    fn new(pos: P, depth: u32, ply: u32) -> ErNode<P> {
        ErNode {
            pos,
            depth,
            ply,
            nat: 0,
            value: Value::NEG_INF,
            done: false,
            best: None,
            kids: Vec::new(),
            expanded: false,
            static_eval: None,
        }
    }

    /// The node's static value, from the memo when a sorting probe already
    /// paid for it, charging `stats` only for fresh evaluator calls.
    fn leaf_value(&self, stats: &mut SearchStats) -> Value {
        match self.static_eval {
            Some(v) => v,
            None => {
                stats.eval_calls += 1;
                self.pos.evaluate()
            }
        }
    }

    /// Generates this node's children once, optionally sorted by static
    /// value (ascending: likely-best first), ranked by the dynamic ordering
    /// tables (killers, then history — a stable re-sort that is the
    /// identity for the `()` handle), then splices the child whose natural
    /// index matches `hint` (a stored best move) to the front. Returns the
    /// number of children (0 for terminals and depth-limit leaves) and
    /// whether the hint matched.
    fn expand<O: OrdAccess>(
        &mut self,
        sort: bool,
        hint: Option<u16>,
        ord: O,
        stats: &mut SearchStats,
    ) -> (usize, bool) {
        let mut hint_used = false;
        if !self.expanded {
            self.expanded = true;
            if self.depth > 0 {
                let mut kids: Vec<ErNode<P>> = self
                    .pos
                    .children()
                    .into_iter()
                    .enumerate()
                    .map(|(i, c)| {
                        let mut k = ErNode::new(c, self.depth - 1, self.ply + 1);
                        k.nat = i as u16;
                        k
                    })
                    .collect();
                if !kids.is_empty() {
                    stats.interior_nodes += 1;
                    if sort && kids.len() > 1 {
                        // Evaluate once, memoize on the child, and sort on
                        // the cached (value, index) key — unstable sort made
                        // FIFO-stable by the index component.
                        for k in &mut kids {
                            stats.eval_calls += 1;
                            k.static_eval = Some(k.pos.evaluate());
                        }
                        stats.sorts += 1;
                        kids.sort_unstable_by_key(|k| (k.static_eval.unwrap(), k.nat));
                    }
                    if O::ENABLED && !sort && kids.len() > 1 {
                        // Killers/history rank only plies the static policy
                        // left unsorted (rank_children's rule). Stable:
                        // children the tables know nothing about keep their
                        // natural order. Each key is read once, so other
                        // workers updating the shared tables mid-sort cannot
                        // break the sort's total order.
                        let ply = self.ply;
                        kids.sort_by_cached_key(|k| rank_key(ord, ply, k.nat));
                    }
                    // The hinted child goes first (it refuted this node
                    // before); a rotate keeps the rest in sorted order.
                    if let Some(h) = hint {
                        if let Some(i) = kids.iter().position(|k| k.nat == h) {
                            kids[..=i].rotate_right(1);
                            hint_used = true;
                        }
                    }
                }
                self.kids = kids;
            }
        }
        (self.kids.len(), hint_used)
    }

    /// Records a finished (or cut-off) search of this node in the table.
    /// `floor` is the value the node started from (its alpha, possibly
    /// raised by a persisting tentative value): a final value above it was
    /// raised by a genuine child search inside the window and is exact; a
    /// final value still at the floor only says the true value is no
    /// larger (fail-hard upper bound). A node whose floor already reached
    /// `beta` proved nothing — no child search raised it there — so it
    /// stores nothing.
    fn store<T: TtAccess<P>>(&self, tt: T, floor: Value, beta: Value) {
        if floor >= beta {
            return;
        }
        let bound = if self.value >= beta {
            Bound::Lower
        } else if self.value > floor {
            Bound::Exact
        } else {
            Bound::Upper
        };
        tt.store(&self.pos, self.depth, self.value, bound, self.best);
    }
}

/// Evaluates `pos` to `depth` plies with serial ER.
pub fn er_search<P: GamePosition>(pos: &P, depth: u32, cfg: ErConfig) -> SearchResult {
    er_search_with(pos, depth, Window::FULL, cfg, 0, Hooks::default()).into()
}

/// Serial ER with an explicit window, a starting ply and any [`Hooks`].
///
/// The parallel engine calls this for subtrees below the serial-depth
/// threshold (paper §6): `start_ply` keeps the ordering policy's ply limit
/// anchored at the *global* root, `window` carries the dynamic alpha-beta
/// bounds known when the subtree job was taken, and the hooks carry the
/// workers' shared table, their per-thread control probe (so a deadline
/// trip is observed inside long refutation batches, not just between
/// jobs) and their shared killer/history tables. Fail-hard with respect to
/// the window (the result is exact when inside it). A run the control
/// aborted flags itself via `aborted` and its value is partial.
pub fn er_search_with<P, T, C, R, O>(
    pos: &P,
    depth: u32,
    window: Window,
    cfg: ErConfig,
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
        ErRoot {
            pos,
            depth,
            window,
            cfg,
            start_ply,
            ord,
            refute: false,
        },
    )
}

/// A whole-node serial ER search as a [`SerialBody`]: full `ER` of an
/// e-node, or (`refute`) the `Eval_first` + `Refute_rest` discipline.
struct ErRoot<'a, P, O> {
    pos: &'a P,
    depth: u32,
    window: Window,
    cfg: ErConfig,
    start_ply: u32,
    ord: O,
    refute: bool,
}

impl<P: GamePosition, O: OrdAccess> SerialBody<P> for ErRoot<'_, P, O> {
    fn run<T: TtAccess<P>, C: CtlAccess>(
        self,
        tt: T,
        ctl: C,
        stats: &mut SearchStats,
    ) -> Result<Value, Value> {
        let (alpha, beta, cfg, ord) = (self.window.alpha, self.window.beta, self.cfg, self.ord);
        let mut n = ErNode::new(self.pos.clone(), self.depth, self.start_ply);
        if !self.refute {
            return er(&mut n, alpha, beta, cfg, tt, ctl, ord, stats).ok_or(n.value);
        }
        let mut run = || -> Option<Value> {
            let mut t = eval_first(&mut n, alpha, beta, cfg, tt, ctl, ord, stats)?;
            if !n.done {
                t = refute_rest(&mut n, alpha, beta, cfg, tt, ctl, ord, stats)?;
            }
            Some(t)
        };
        run().ok_or(alpha)
    }
}

/// `ER(P, α, β)`: full evaluation of an e-node. `None` means the control
/// tripped mid-search; the node's tentative state is then meaningless and
/// nothing was stored for it.
#[allow(clippy::too_many_arguments)]
fn er<P: GamePosition, T: TtAccess<P>, C: CtlAccess, O: OrdAccess>(
    n: &mut ErNode<P>,
    alpha: Value,
    beta: Value,
    cfg: ErConfig,
    tt: T,
    ctl: C,
    ord: O,
    stats: &mut SearchStats,
) -> Option<Value> {
    if ctl.check().is_some() {
        return None;
    }
    n.value = alpha;
    let hint = match tt.probe(&n.pos) {
        Some(p) => {
            if let Some(v) = p.cutoff(n.depth, Window::new(alpha, beta)) {
                n.value = v;
                n.done = true;
                return Some(v);
            }
            p.hint
        }
        None => None,
    };
    // Children of e-nodes are neither statically sorted nor dynamically
    // ranked — every one will be examined, so only the e-child choice
    // matters, and a stored best move still goes first (it decides which
    // child becomes the e-child).
    let (d, hint_used) = n.expand(false, hint, (), stats);
    if hint_used {
        tt.note_hint_used();
    }
    if d == 0 {
        stats.leaf_nodes += 1;
        n.value = n.leaf_value(stats);
        n.done = true;
        tt.store(&n.pos, n.depth, n.value, Bound::Exact, None);
        return Some(n.value);
    }

    // Phase 1: Eval_first every child — evaluate the elder grandchildren.
    for i in 0..d {
        let bound = n.value;
        let t = -eval_first(&mut n.kids[i], -beta, -bound, cfg, tt, ctl, ord, stats)?;
        if n.kids[i].done {
            if t > n.value {
                n.value = t;
                n.best = Some(n.kids[i].nat);
            }
            if n.value >= beta {
                stats.cutoffs += 1;
                if let Some(b) = n.best {
                    note_cutoff(ord, n.ply, n.depth, b, stats);
                }
                n.done = true;
                n.store(tt, alpha, beta);
                return Some(n.value);
            }
        }
    }

    // sort(P): ascending tentative values — the child whose elder grandchild
    // was largest (i.e. whose own tentative value is smallest) is refuted
    // first; it is the de-facto e-child.
    n.kids.sort_by_key(|k| k.value);

    // Phase 2: Refute_rest each unfinished child in tentative order.
    for i in 0..d {
        if !n.kids[i].done {
            let bound = n.value;
            let t = -refute_rest(&mut n.kids[i], -beta, -bound, cfg, tt, ctl, ord, stats)?;
            if t > n.value {
                n.value = t;
                n.best = Some(n.kids[i].nat);
            }
            if n.value >= beta {
                stats.cutoffs += 1;
                if let Some(b) = n.best {
                    note_cutoff(ord, n.ply, n.depth, b, stats);
                }
                n.done = true;
                n.store(tt, alpha, beta);
                return Some(n.value);
            }
        }
    }
    n.done = true;
    n.store(tt, alpha, beta);
    Some(n.value)
}

/// `Eval_first(P, α, β)`: evaluate P's first child (an e-node, recursively
/// by ER), installing a tentative value for P. P is `done` if the bound
/// already causes a cutoff or P has a single child.
#[allow(clippy::too_many_arguments)]
fn eval_first<P: GamePosition, T: TtAccess<P>, C: CtlAccess, O: OrdAccess>(
    n: &mut ErNode<P>,
    alpha: Value,
    beta: Value,
    cfg: ErConfig,
    tt: T,
    ctl: C,
    ord: O,
    stats: &mut SearchStats,
) -> Option<Value> {
    if ctl.check().is_some() {
        return None;
    }
    n.value = alpha;
    let hint = match tt.probe(&n.pos) {
        Some(p) => {
            if let Some(v) = p.cutoff(n.depth, Window::new(alpha, beta)) {
                n.value = v;
                n.done = true;
                return Some(v);
            }
            p.hint
        }
        None => None,
    };
    // Non-e-node children are statically sorted per the ordering policy:
    // this is what selects the elder grandchild.
    let sort = cfg.order.sorts_at(n.ply);
    let (d, hint_used) = n.expand(sort, hint, ord, stats);
    if hint_used {
        tt.note_hint_used();
    }
    if d == 0 {
        stats.leaf_nodes += 1;
        n.value = n.leaf_value(stats);
        n.done = true;
        tt.store(&n.pos, n.depth, n.value, Bound::Exact, None);
        return Some(n.value);
    }
    let bound = n.value;
    let t = -er(&mut n.kids[0], -beta, -bound, cfg, tt, ctl, ord, stats)?;
    if t > n.value {
        n.value = t;
        n.best = Some(n.kids[0].nat);
    }
    n.done = n.value >= beta || d == 1;
    if n.value >= beta {
        stats.cutoffs += 1;
        if let Some(b) = n.best {
            note_cutoff(ord, n.ply, n.depth, b, stats);
        }
    }
    // A tentative (not-done) value is no search result: only settled
    // nodes — cutoff, single child, leaf — are stored.
    if n.done {
        n.store(tt, alpha, beta);
    }
    Some(n.value)
}

/// `Refute_rest(P, α, β)`: examine P's remaining children (2..d), each via
/// `Eval_first` + `Refute_rest`, until P is refuted (value ≥ β) or all
/// children are exhausted (refutation failed; the value is then exact).
#[allow(clippy::too_many_arguments)]
fn refute_rest<P: GamePosition, T: TtAccess<P>, C: CtlAccess, O: OrdAccess>(
    n: &mut ErNode<P>,
    alpha: Value,
    beta: Value,
    cfg: ErConfig,
    tt: T,
    ctl: C,
    ord: O,
    stats: &mut SearchStats,
) -> Option<Value> {
    if ctl.check().is_some() {
        return None;
    }
    // Erratum fix (see module docs): retain the tentative value.
    if alpha > n.value {
        n.value = alpha;
    }
    // The floor below which nothing raised this node's value: the store
    // classification is relative to it (at the floor, only an upper bound
    // is known — the tentative first-child contribution is already in it).
    let floor = n.value;
    let d = n.kids.len();
    for i in 1..d {
        let bound = n.value;
        let mut t = -eval_first(&mut n.kids[i], -beta, -bound, cfg, tt, ctl, ord, stats)?;
        if !n.kids[i].done {
            let bound = n.value;
            t = -refute_rest(&mut n.kids[i], -beta, -bound, cfg, tt, ctl, ord, stats)?;
        }
        if t > n.value {
            n.value = t;
            n.best = Some(n.kids[i].nat);
        }
        if n.value >= beta {
            stats.cutoffs += 1;
            if let Some(b) = n.best {
                note_cutoff(ord, n.ply, n.depth, b, stats);
            }
            n.done = true;
            n.store(tt, floor, beta);
            return Some(n.value);
        }
    }
    n.done = true;
    n.store(tt, floor, beta);
    Some(n.value)
}

/// Examines a node with the *refutation* discipline: `Eval_first` (fully
/// evaluate the first child) and, if that does not already settle the
/// node, `Refute_rest` over the remaining children — stopping at the first
/// beta cutoff. Takes the same hooks as [`er_search_with`].
///
/// This is how serial ER examines every non-first child (Figure 8's main
/// loop), and it is what the parallel engine's serial-frontier jobs run
/// for r-nodes. Running full [`er_search_with`] there instead would
/// evaluate *all* elder grandchildren up front — wasted work whenever the
/// refutation succeeds after one child, which is the common case.
pub fn er_eval_refute_with<P, T, C, R, O>(
    pos: &P,
    depth: u32,
    window: Window,
    cfg: ErConfig,
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
        ErRoot {
            pos,
            depth,
            window,
            cfg,
            start_ply,
            ord,
            refute: true,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabeta::alphabeta;
    use crate::negmax::negmax;
    use gametree::arena::{leaf, node, ArenaTree};
    use gametree::ordered::OrderedTreeSpec;
    use gametree::random::RandomTreeSpec;
    use gametree::tictactoe::TicTacToe;

    #[test]
    fn equals_negmax_on_random_trees() {
        for seed in 0..12 {
            let root = RandomTreeSpec::new(seed, 4, 5).root();
            assert_eq!(
                er_search(&root, 5, ErConfig::NATURAL).value,
                negmax(&root, 5).value,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn equals_negmax_on_wide_random_trees() {
        for seed in 0..6 {
            let root = RandomTreeSpec::new(seed, 8, 3).root();
            assert_eq!(
                er_search(&root, 3, ErConfig::NATURAL).value,
                negmax(&root, 3).value,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn equals_negmax_on_ordered_trees_with_sorting() {
        for seed in 0..6 {
            let root = OrderedTreeSpec::strongly_ordered(seed, 4, 5).root();
            assert_eq!(
                er_search(
                    &root,
                    5,
                    ErConfig {
                        order: OrderPolicy::ALWAYS,
                        ..ErConfig::NATURAL
                    }
                )
                .value,
                negmax(&root, 5).value,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn tictactoe_is_a_draw() {
        assert_eq!(
            er_search(&TicTacToe::initial(), 9, ErConfig::NATURAL).value,
            Value::ZERO
        );
    }

    #[test]
    fn prunes_relative_to_negmax() {
        for seed in 0..6 {
            let root = RandomTreeSpec::new(seed, 4, 6).root();
            let er = er_search(&root, 6, ErConfig::NATURAL);
            let nm = negmax(&root, 6);
            assert!(
                er.stats.nodes() < nm.stats.nodes(),
                "seed {seed}: ER must prune ({} vs {})",
                er.stats.nodes(),
                nm.stats.nodes()
            );
        }
    }

    #[test]
    fn first_child_contribution_is_not_lost() {
        // Regression test for the Figure 8 erratum. The root's second child
        // R has its *first* child as its best (lowest) child; the refutation
        // of R fails, and R's exact value must include the first child's
        // contribution or the root value would be overestimated.
        //
        // Root children: A (value 5 via single leaf), R with children
        // c1 (value -9: best for R... R = max(9, 2) from negation).
        let r_node = node(vec![leaf(-9), leaf(-2)]);
        // R's children values: -9 and -2; R = max(9, 2) = 9. Root's first
        // child A = 5 (leaf). Root = max(-5, -9) = -5.
        let root = ArenaTree::root_of(&node(vec![leaf(5), r_node]));
        let exact = negmax(&root, 3).value;
        assert_eq!(er_search(&root, 3, ErConfig::NATURAL).value, exact);
    }

    #[test]
    fn deep_unbalanced_tree() {
        let spec = node(vec![
            node(vec![node(vec![leaf(1), leaf(2)]), leaf(3)]),
            leaf(-4),
            node(vec![
                leaf(5),
                node(vec![leaf(-6), leaf(7), leaf(8)]),
                leaf(9),
            ]),
        ]);
        let root = ArenaTree::root_of(&spec);
        assert_eq!(
            er_search(&root, 10, ErConfig::NATURAL).value,
            negmax(&root, 10).value
        );
    }

    #[test]
    fn depth_limited_search_matches_negmax() {
        for depth in 0..=6 {
            let root = RandomTreeSpec::new(9, 3, 6).root();
            assert_eq!(
                er_search(&root, depth, ErConfig::NATURAL).value,
                negmax(&root, depth).value,
                "depth {depth}"
            );
        }
    }

    #[test]
    fn er_does_not_charge_sorting_evals_for_enode_children() {
        // With the NATURAL policy, ER performs no static-evaluator calls
        // beyond the leaf terminals (unlike sorted alpha-beta).
        let root = RandomTreeSpec::new(2, 4, 5).root();
        let r = er_search(&root, 5, ErConfig::NATURAL);
        assert_eq!(r.stats.eval_calls, r.stats.leaf_nodes);
    }

    #[test]
    fn sorting_probes_memoize_leaf_evaluations() {
        // Depth-2, degree-3 uniform tree under ALWAYS: every leaf was
        // already probed by its parent's sort, so leaf evaluation charges
        // no second evaluator call — eval_calls is exactly the probes,
        // three per sorted expansion.
        let root = RandomTreeSpec::new(6, 3, 2).root();
        let r = er_search(
            &root,
            2,
            ErConfig {
                order: OrderPolicy::ALWAYS,
                ..ErConfig::NATURAL
            },
        );
        assert!(r.stats.leaf_nodes > 0);
        assert_eq!(r.stats.eval_calls, 3 * r.stats.sorts);
        assert_eq!(r.value, negmax(&root, 2).value);
    }

    #[test]
    fn sorted_alphabeta_charges_sorting_evals() {
        // Contrast with the test above: this is the O1 anomaly's mechanism
        // (§7) — sorting costs evaluator calls on interior nodes.
        let root = RandomTreeSpec::new(2, 4, 5).root();
        let r = alphabeta(&root, 5, OrderPolicy::ALWAYS);
        assert!(r.stats.eval_calls > r.stats.leaf_nodes);
    }

    #[test]
    fn single_child_chains() {
        let spec = node(vec![node(vec![node(vec![leaf(7)])])]);
        let root = ArenaTree::root_of(&spec);
        assert_eq!(
            er_search(&root, 5, ErConfig::NATURAL).value,
            negmax(&root, 5).value
        );
    }

    #[test]
    fn ordering_tables_preserve_root_values() {
        // Killer/history ranking is pure move ordering: with the tables
        // handle passed (and warmed by a first pass) every root value must
        // be bit-identical to the plain search.
        use crate::ordering::OrderingTables;
        for seed in 0..8 {
            let root = RandomTreeSpec::new(seed, 4, 5).root();
            let plain = er_search(&root, 5, ErConfig::NATURAL).value;
            let tables = OrderingTables::new();
            for _ in 0..2 {
                let hooks = Hooks::default().with_ord(&tables);
                let r = er_search_with(&root, 5, Window::FULL, ErConfig::NATURAL, 0, hooks);
                assert_eq!(r.value, plain, "seed {seed}");
                assert!(r.aborted.is_none());
            }
        }
    }

    #[test]
    fn ordering_tables_record_cutoff_credit() {
        // A deep-enough random tree produces cutoffs; with the tables
        // shared across two passes, the second pass must classify some of
        // them as killer or history hits.
        use crate::ordering::OrderingTables;
        let root = RandomTreeSpec::new(3, 4, 6).root();
        let tables = OrderingTables::new();
        let mut second = SearchStats::new();
        for pass in 0..2 {
            let hooks = Hooks::default().with_ord(&tables);
            let r = er_search_with(&root, 6, Window::FULL, ErConfig::NATURAL, 0, hooks);
            if pass == 1 {
                second = r.stats;
            }
        }
        assert!(second.cutoffs > 0);
        assert!(
            second.killer_hits + second.history_hits > 0,
            "warmed tables must claim some cutoffs: {second:?}"
        );
    }

    #[test]
    fn plain_handle_never_counts_ordering_hits() {
        let root = RandomTreeSpec::new(3, 4, 6).root();
        let r = er_search(&root, 6, ErConfig::NATURAL);
        assert_eq!(r.stats.killer_hits, 0);
        assert_eq!(r.stats.history_hits, 0);
    }

    #[test]
    fn churning_ordering_keys_never_break_the_expansion_sort() {
        // Stand-in for other workers updating the shared tables while this
        // expansion sorts: every history read returns a fresh value. Each
        // key must be read once (a cached-key sort), so the sort cannot
        // see an inconsistent order and the value stays negamax's.
        use crate::ordering::test_support::Churn;
        let churn = Churn::default();
        for seed in 0..4 {
            let root = RandomTreeSpec::new(seed, 40, 2).root();
            let hooks = Hooks::default().with_ord(&churn);
            let r = er_search_with(&root, 2, Window::FULL, ErConfig::NATURAL, 0, hooks);
            assert_eq!(r.value, negmax(&root, 2).value, "seed {seed}");
        }
    }
}
