//! The problem-heap ER engine (paper §6).
//!
//! Each processor repeatedly takes a node from the problem heap — first
//! from the **primary queue** (scheduled work, deepest first), then from
//! the **speculative queue** (e-nodes that may receive additional
//! e-children; fewest e-children first, shallower first on ties) — and
//! processes it according to Table 1. Completions back values up the tree
//! with the `combine` procedure and trigger the Table 2 actions at the
//! deepest ancestor that still has outstanding work.
//!
//! Nodes whose remaining depth is at most the search's serial depth are
//! solved by one serial search in a single unit of work, with the dynamic
//! alpha-beta window captured when the work is taken (§6, Table 3's
//! "serial depth"). The back-end that builds the [`ErWorker`] picks that
//! search ([`Frontier`]). The simulator runs serial ER at the configured
//! `serial_depth`. The threaded back-end runs alpha-beta, and treats a
//! positive `serial_depth` as a floor: before the search starts, the grain
//! rule (`lifted_serial_depth`) lifts the frontier while the subtrees
//! below it stay small (DESIGN.md §7.2).
//!
//! The engine is split into three phases so that both back-ends share it:
//! [`ErWorker::select`] (under the heap lock: pop queues, resolve cutoffs,
//! decide the Table 1 action), [`execute_task`] (outside the lock: move
//! generation, static evaluation, serial subtree search), and
//! [`ErWorker::apply`] (under the lock: spawn children, combine values,
//! Table 2 actions). The deterministic simulator charges `execute_task`'s
//! virtual cost; the threaded back-end runs it concurrently for real.

use std::cmp::Reverse;
use std::sync::Arc;

use gametree::{GamePosition, SearchStats, Value, Window};
use problem_heap::{simulate, HeapWorker, PublishSlab, StableQueue, TakenWork};
use search_serial::alphabeta_with;
use search_serial::control::CtlHook;
use search_serial::er::{er_eval_refute_with, er_search_with, ErConfig};
use search_serial::ordering::{
    ordered_children_indexed, ordered_children_ranked, splice_hint, OrdAccess, OrderPolicy,
};
use search_serial::Hooks;
use tt::{Bound, TtAccess};

use super::{ErParallelConfig, ErRunResult};
use crate::tree::{Kind, NodeId, SearchTree, ROOT};

/// The serial search that solves serial-frontier jobs (DESIGN.md §7.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Frontier {
    /// Serial ER, the paper's choice: a fresh e-node gets a full ER
    /// evaluation, one ply below the serial depth; a fresh r-node the
    /// `Eval_first`/`Refute_rest` discipline at the serial depth.
    Er,
    /// Alpha-beta under the captured window, at the full serial depth for
    /// e-nodes and r-nodes alike: the fastest serial search (§7). The
    /// configured serial depth is a floor that the grain rule may lift.
    AlphaBeta,
}

/// Leaf budget of the grain rule: under the alpha-beta frontier a subtree
/// whose minimal alpha-beta tree has at most this many leaves is one job
/// (DESIGN.md §7.2 gives the sweep it comes from).
const GRAIN_LEAVES: u64 = 400;

/// Plies the grain rule keeps between the root and the frontier, so that
/// the heap still holds parallel work above the serial jobs.
const GRAIN_SLACK: u32 = 2;

/// Leaves of the minimal alpha-beta tree of a uniform tree of `degree` and
/// height `depth` (Knuth and Moore): `b^⌈d/2⌉ + b^⌊d/2⌋ − 1`.
fn minimal_tree_leaves(degree: u64, depth: u32) -> u64 {
    degree
        .saturating_pow(depth.div_ceil(2))
        .saturating_add(degree.saturating_pow(depth / 2))
        .saturating_sub(1)
}

/// The serial depth of an alpha-beta-frontier search with branching factor
/// `branching`, searched `depth` plies deep: the configured `floor`,
/// lifted while the next ply's minimal tree fits in [`GRAIN_LEAVES`] and
/// [`GRAIN_SLACK`] plies stay above it. A zero floor keeps every node on
/// the heap, as serial depth 0 always has.
fn grain_serial_depth(branching: usize, depth: u32, floor: u32) -> u32 {
    if floor == 0 {
        return 0;
    }
    let top = depth.saturating_sub(GRAIN_SLACK);
    let mut d = floor;
    while d < top && minimal_tree_leaves(branching as u64, d + 1) <= GRAIN_LEAVES {
        d += 1;
    }
    d
}

/// The largest move count on the first-move line from `pos`, `depth` plies
/// deep. Unlike the root's own count it does not collapse at a forced move
/// (a checkers capture, an Othello pass), and it errs towards the bushy
/// side, where the grain rule lifts less.
fn line_branching<P: GamePosition>(pos: &P, depth: u32) -> usize {
    let mut moves = Vec::new();
    let mut line = pos.clone();
    let mut branching = 0;
    for _ in 0..depth {
        moves.clear();
        line.moves_into(&mut moves);
        let Some(first) = moves.first() else { break };
        branching = branching.max(moves.len());
        line = line.play(first);
    }
    branching
}

/// The serial depth at which the threaded back-end's alpha-beta frontier
/// searches `pos` to `depth` plies: `floor` lifted by the grain rule, with
/// the branching factor read from the move counts on the first-move line.
/// The rule reads counts only, never timings, so one-thread runs repeat.
/// The line is walked only where the slack allows a lift.
pub(crate) fn lifted_serial_depth<P: GamePosition>(pos: &P, depth: u32, floor: u32) -> u32 {
    if floor == 0 || depth.saturating_sub(GRAIN_SLACK) <= floor {
        return floor;
    }
    grain_serial_depth(line_branching(pos, depth), depth, floor)
}

/// What must be computed for a taken node, outside the heap lock.
///
/// Tasks carry no position: the executor borrows the node's position from
/// the tree's slab, where it was published when the node's id was
/// reserved, and only when [`Task::needs_pos`] says the task reads it.
#[allow(missing_docs)]
#[derive(Clone, Copy, Debug)]
pub enum Task {
    /// Static-evaluate a terminal (game over or depth 0).
    Leaf,
    /// The terminal's static value is already memoized (the parent's
    /// sorting probe evaluated it): no evaluator call, no position access.
    CachedLeaf(Value),
    /// Generate (and possibly sort) the node's children. `enode` children
    /// are never statically sorted (§7). `cached` carries the node's own
    /// memoized static value for the childless-terminal case; `depth` is
    /// the node's remaining depth (transposition-table probe/store key).
    Movegen {
        ply: u32,
        depth: u32,
        enode: bool,
        cached: Option<Value>,
    },
    /// Spawn the next child of an r-node (move list already exists).
    NextChild,
    /// Spawn the remaining children of a promoted e-child.
    ExpandRest,
    /// Solve the subtree serially under the captured window with the
    /// `frontier` search. Under serial ER a fresh e-node gets a full
    /// evaluation, a fresh r-node (`refute`) the cheaper
    /// `Eval_first`/`Refute_rest` discipline; alpha-beta treats both alike.
    Serial {
        depth: u32,
        window: Window,
        ply: u32,
        refute: bool,
        frontier: Frontier,
    },
}

impl Task {
    /// True iff [`execute_task`] reads the node's position for this task;
    /// `NextChild`/`ExpandRest`/`CachedLeaf` never touch it.
    pub fn needs_pos(&self) -> bool {
        match self {
            Task::Leaf | Task::Movegen { .. } | Task::Serial { .. } => true,
            Task::CachedLeaf(_) | Task::NextChild | Task::ExpandRest => false,
        }
    }
}

/// A unit of work selected from the problem heap.
#[derive(Clone, Copy, Debug)]
pub struct Job {
    /// The node the job belongs to.
    pub id: NodeId,
    /// The computation to perform outside the lock.
    pub task: Task,
}

/// Result of [`execute_task`], applied under the lock.
#[allow(missing_docs)]
pub enum Outcome<P: GamePosition> {
    /// The node is a terminal with this static value, freshly evaluated.
    Leaf(Value),
    /// The node is a terminal whose static value was memoized — counts as
    /// an examined leaf but charges no evaluator call.
    CachedLeaf(Value),
    /// Generated children in search order, the static values computed for
    /// sorting (memoized onto the reserved children), and the evaluator
    /// calls charged for sorting. `apply` moves each position once into
    /// the tree's slab.
    Moves {
        kids: Vec<P>,
        evals: Option<Vec<Value>>,
        sort_evals: u64,
    },
    /// `NextChild` / `ExpandRest` carry no payload.
    Unit,
    /// Serial subtree result.
    Serial { value: Value, stats: SearchStats },
    /// An equal-depth `Exact` transposition-table entry answered the node
    /// before expansion: the stored value is the node's exact value.
    TtExact(Value),
    /// The search control tripped inside a serial-frontier job: the partial
    /// result was discarded and must never be applied to the tree. The
    /// worker observing this outcome starts the abort protocol instead.
    Aborted,
}

/// Outcome of trying to select work.
pub enum Select {
    /// A job to execute.
    Job(Job),
    /// The computation finished during selection (a cutoff cascade
    /// completed the root).
    JustFinished,
    /// No work available right now.
    Empty,
}

/// Executes a task. Pure with respect to the shared tree: callable outside
/// any lock. `pos` must be `Some` when [`Task::needs_pos`] holds; it is a
/// borrow into the tree's position slab, which both back-ends read
/// without holding the heap lock.
///
/// `hooks.tt` is the (possibly absent) shared transposition table: all table
/// traffic happens here, outside the heap lock. Probes can only use the
/// window-free part of an entry — an equal-depth `Exact` value (the
/// dynamic alpha-beta window lives in the tree, which this function must
/// not read) — plus the stored best move as an ordering hint; stores come
/// from the serial-frontier searches and freshly evaluated terminals.
///
/// `hooks.ctl` is the (possibly absent) abort handle: `()` for the simulator
/// (byte-identical to the pre-control code), the worker's `&CtlProbe` in
/// the threaded back-end so a deadline is observed *inside* long
/// serial-frontier refutation batches. A tripped control surfaces as
/// [`Outcome::Aborted`].
///
/// `hooks.ord` is the (possibly absent) shared killer/history handle: `()` keeps
/// every path bit-identical to the ordering-free engine; an
/// `&OrderingTables` ranks non-e-node children dynamically and collects
/// cutoff credit from the serial frontier.
pub fn execute_task<P: GamePosition, T: TtAccess<P>, C: CtlHook, O: OrdAccess>(
    task: &Task,
    pos: Option<&P>,
    cfg: ErConfig,
    hooks: Hooks<T, C, (), O>,
) -> Outcome<P> {
    let (tt, ord) = (hooks.tt, hooks.ord);
    match *task {
        Task::Leaf => {
            let pos = pos.expect("leaf task reads its position");
            if let Some(p) = tt.probe(pos) {
                if p.depth == 0 && p.bound == Bound::Exact {
                    return Outcome::CachedLeaf(p.value);
                }
            }
            let v = pos.evaluate();
            tt.store(pos, 0, v, Bound::Exact, None);
            Outcome::Leaf(v)
        }
        Task::CachedLeaf(v) => Outcome::CachedLeaf(v),
        Task::Movegen {
            ply,
            depth,
            enode,
            cached,
        } => {
            let pos = pos.expect("movegen task reads its position");
            let hint = match tt.probe(pos) {
                Some(p) => {
                    if p.depth == depth && p.bound == Bound::Exact {
                        // Exact entries need no window: the node is done
                        // before its children are even generated.
                        return Outcome::TtExact(p.value);
                    }
                    p.hint
                }
                None => None,
            };
            let mut s = SearchStats::new();
            // E-node children are never statically sorted (§7) — and never
            // dynamically ranked either: their order is immaterial because
            // every child will be examined. Non-e-node children get the
            // static policy plus killer/history ranking.
            let mut indexed = if enode {
                ordered_children_indexed(pos, ply, OrderPolicy::NATURAL, &mut s)
            } else {
                ordered_children_ranked(pos, ply, cfg.order, ord, &mut s)
            };
            if splice_hint(&mut indexed, hint) {
                tt.note_hint_used();
            }
            if indexed.is_empty() {
                match cached {
                    Some(v) => Outcome::CachedLeaf(v),
                    None => {
                        let v = pos.evaluate();
                        // A terminal's static value is its exact value at
                        // this node's remaining depth.
                        tt.store(pos, depth, v, Bound::Exact, None);
                        Outcome::Leaf(v)
                    }
                }
            } else {
                let evals = indexed
                    .iter()
                    .all(|k| k.static_eval.is_some())
                    .then(|| indexed.iter().map(|k| k.static_eval.unwrap()).collect());
                let kids = indexed.into_iter().map(|k| k.pos).collect();
                Outcome::Moves {
                    kids,
                    evals,
                    sort_evals: s.eval_calls,
                }
            }
        }
        Task::NextChild | Task::ExpandRest => Outcome::Unit,
        Task::Serial {
            depth,
            window,
            ply,
            refute,
            frontier,
        } => {
            let pos = pos.expect("serial task reads its position");
            let r = match frontier {
                Frontier::AlphaBeta => alphabeta_with(pos, depth, window, cfg.order, ply, hooks),
                Frontier::Er if refute => er_eval_refute_with(pos, depth, window, cfg, ply, hooks),
                Frontier::Er => er_search_with(pos, depth, window, cfg, ply, hooks),
            };
            if !r.is_complete() {
                return Outcome::Aborted;
            }
            Outcome::Serial {
                value: r.value,
                stats: r.stats,
            }
        }
    }
}

/// The ER problem-heap state: shared tree plus the two priority queues.
pub struct ErWorker<P: GamePosition> {
    tree: SearchTree<P>,
    /// Primary queue: deepest nodes first (key = `Reverse(ply)`).
    primary: StableQueue<Reverse<u32>, NodeId>,
    /// Speculative queue: fewest e-children first, then shallowest.
    spec: StableQueue<(u32, u32), NodeId>,
    cfg: ErParallelConfig,
    frontier: Frontier,
    /// Aggregate nodes examined / evaluator calls (Figures 12 and 13).
    pub totals: SearchStats,
    /// Leaves settled from a memoized static value instead of a fresh
    /// evaluator call (each one is an `eval` the seed engine paid twice).
    pub cached_leaf_hits: u64,
    finished: bool,
    /// Root value once finished.
    pub root_value: Option<Value>,
}

impl<P: GamePosition> ErWorker<P> {
    /// A worker ready to search `pos` to `depth` plies under the root
    /// `window` (narrowed for an aspiration probe: every dynamic window in
    /// the tree, and every serial-frontier job, inherits the bounds), with
    /// `frontier` solving the serial-frontier jobs.
    pub fn new(
        pos: P,
        depth: u32,
        window: Window,
        cfg: ErParallelConfig,
        frontier: Frontier,
    ) -> ErWorker<P> {
        let mut w = ErWorker {
            tree: SearchTree::new_windowed(pos, depth, window),
            primary: StableQueue::new(),
            spec: StableQueue::new(),
            cfg,
            frontier,
            totals: SearchStats::new(),
            cached_leaf_hits: 0,
            finished: false,
            root_value: None,
        };
        w.push_primary(ROOT);
        w
    }

    /// True once the root has combined.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// The position at node `id`, borrowed from the tree's slab.
    pub fn node_pos(&self, id: NodeId) -> &P {
        self.tree.pos(id)
    }

    /// The tree's position slab, keyed by node id: the threaded back-end's
    /// executors read it without the heap lock.
    pub fn positions(&self) -> Arc<PublishSlab<P>> {
        Arc::clone(self.tree.positions())
    }

    /// Positions published into the slab so far: the root's plus one per
    /// child of every applied move list.
    pub fn positions_published(&self) -> usize {
        self.tree.len()
    }

    /// The path key of node `id` (see [`crate::tree::child_path_key`]).
    pub fn node_path_key(&self, id: NodeId) -> u64 {
        self.tree.node(id).path_key
    }

    /// The ply of node `id` (trace labeling).
    pub fn node_ply(&self, id: NodeId) -> u32 {
        self.tree.node(id).ply
    }

    /// Remaining depth at or below which a node of `kind` sits on the
    /// serial frontier; the one place the serial depth is read. A fresh
    /// r-node goes serial at the serial depth, and so does a fresh e-node
    /// under alpha-beta. Under serial ER a fresh e-node goes one ply
    /// inside it: a full ER evaluation at the serial depth is a long,
    /// high-variance job that lengthens the critical path. An expanded
    /// e-node (a promoted e-child) refutes its remaining children one at a
    /// time from one ply inside the serial depth under either search.
    fn frontier_limit(&self, kind: Kind, expanded: bool) -> u32 {
        match kind {
            Kind::ENode if expanded || self.frontier == Frontier::Er => {
                self.cfg.serial_depth.saturating_sub(1)
            }
            _ => self.cfg.serial_depth,
        }
    }

    fn spec_enabled(&self) -> bool {
        self.cfg.spec.early_choice || self.cfg.spec.multiple_enodes
    }

    fn push_primary(&mut self, id: NodeId) {
        let n = self.tree.node_mut(id);
        debug_assert!(!n.queued, "double-queued node");
        n.queued = true;
        let ply = n.ply;
        self.primary.push(Reverse(ply), id);
    }

    fn push_spec(&mut self, id: NodeId) {
        let n = self.tree.node_mut(id);
        debug_assert!(!n.on_spec);
        n.on_spec = true;
        let key = (n.echildren, n.ply);
        self.spec.push(key, id);
    }

    /// Marks `id` done because its dynamic window is empty (it "can be cut
    /// off", §6), clamping its value into the window as fail-hard search
    /// would.
    fn cut_off(&mut self, id: NodeId) {
        let a = self.tree.window(id).alpha;
        let n = self.tree.node_mut(id);
        n.value = n.value.max(a);
        n.done = true;
        self.totals.cutoffs += 1;
    }

    /// Records that `id` has a tentative value (or is done), counting it
    /// toward its parent's elder-grandchild progress.
    fn count_elder(&mut self, id: NodeId) {
        if self.tree.node(id).elder_counted {
            return;
        }
        self.tree.node_mut(id).elder_counted = true;
        if let Some(p) = self.tree.node(id).parent {
            self.tree.node_mut(p).elder_done += 1;
        }
    }

    /// The combine procedure (§6): back `id`'s value up as far as
    /// possible, then perform the Table 2 action at the first ancestor
    /// with outstanding work.
    fn on_done(&mut self, mut id: NodeId) {
        loop {
            debug_assert!(self.tree.node(id).done);
            if id == ROOT {
                self.finished = true;
                self.root_value = Some(self.tree.node(ROOT).value);
                return;
            }
            let p = self.tree.node(id).parent.expect("non-root has parent");
            let nv = -self.tree.node(id).value;
            if nv > self.tree.node(p).value {
                self.tree.node_mut(p).value = nv;
            }
            self.tree.node_mut(p).active_children -= 1;
            self.count_elder(id);

            if self.tree.is_cut_off(p) {
                self.cut_off(p);
                id = p;
                continue;
            }
            if self.tree.node(p).fully_spawned() && self.tree.node(p).active_children == 0 {
                self.tree.node_mut(p).done = true;
                id = p;
                continue;
            }
            self.table2(p, id);
            return;
        }
    }

    /// Table 2: actions at `last_node` `p` after child `done_child`
    /// combined into it.
    fn table2(&mut self, p: NodeId, done_child: NodeId) {
        match self.tree.node(p).kind {
            Kind::RNode => {
                // Sequential refutation: generate the next child.
                let n = self.tree.node(p);
                if !n.queued && !n.in_flight && !n.fully_spawned() && n.active_children == 0 {
                    self.push_primary(p);
                }
            }
            Kind::ENode => self.enode_actions(p, Some(done_child)),
            Kind::Undecided => {
                // The done child was p's first: p now has a tentative value
                // — one more elder grandchild of p's parent is evaluated
                // (Table 2 rows 4 and 5).
                self.count_elder(p);
                if let Some(gp) = self.tree.node(p).parent {
                    if self.tree.node(gp).kind == Kind::ENode && !self.tree.node(gp).done {
                        self.enode_actions(gp, None);
                    }
                }
            }
        }
    }

    /// Table 2 rows for an e-node `p`.
    fn enode_actions(&mut self, p: NodeId, just_done: Option<NodeId>) {
        let Some(d) = self.tree.node(p).degree() else {
            return; // promoted e-child not yet expanded
        };

        // A frontier e-child evaluating child-by-child: schedule the next
        // sibling once the previous one combines.
        {
            let n = self.tree.node(p);
            if n.depth <= self.frontier_limit(Kind::ENode, true)
                && !n.queued
                && !n.in_flight
                && !n.fully_spawned()
                && n.active_children == 0
            {
                self.push_primary(p);
            }
        }

        // Row 3: the first e-child has been evaluated — start refutation of
        // the remaining children.
        if let Some(c) = just_done {
            if self.tree.node(c).kind == Kind::ENode && !self.tree.node(p).refuting {
                self.tree.node_mut(p).refuting = true;
            }
        }
        if self.tree.node(p).refuting {
            self.advance_refutation(p);
        }

        // Row 2: all elder grandchildren evaluated but no e-child selected.
        if !self.tree.node(p).echild_selected
            && !self.tree.node(p).refuting
            && self.tree.node(p).elder_done >= d
        {
            if let Some(c) = self.tree.best_candidate(p) {
                self.promote(p, c);
            }
        }

        // Row 1 (early choice) and the multiple-e-nodes rule.
        self.maybe_spec(p);
    }

    /// Converts undecided children of `p` to r-nodes and schedules them:
    /// all at once under parallel refutation, one at a time otherwise,
    /// best tentative value first in both cases.
    fn advance_refutation(&mut self, p: NodeId) {
        // The spawned children are a range of ids: nothing to clone on
        // this per-combine hot path.
        let spawned = self.tree.node(p).spawned();
        if self.cfg.spec.parallel_refutation {
            let mut undecided: Vec<(Value, NodeId)> = Vec::new();
            for c in spawned {
                let n = self.tree.node(c);
                if n.kind == Kind::Undecided && !n.done {
                    undecided.push((n.value, c));
                }
            }
            // Child ids increase in generation order, so the (value, id)
            // key reproduces the stable best-tentative-first order.
            undecided.sort_unstable_by_key(|&(v, c)| (v, c));
            for (_, c) in undecided {
                self.tree.node_mut(c).kind = Kind::RNode;
                let n = self.tree.node(c);
                if !n.queued && !n.in_flight && n.active_children == 0 {
                    self.push_primary(c);
                }
            }
        } else {
            let mut next: Option<(Value, NodeId)> = None;
            for c in spawned {
                let n = self.tree.node(c);
                if n.kind == Kind::RNode && !n.done {
                    return; // a refutation is already in progress
                }
                if n.kind == Kind::Undecided && !n.done && n.elder_counted {
                    // Strict `<` keeps the earliest-generated child on ties,
                    // matching the previous stable min_by_key.
                    if next.is_none_or(|(bv, _)| n.value < bv) {
                        next = Some((n.value, c));
                    }
                }
            }
            if let Some((_, c)) = next {
                self.tree.node_mut(c).kind = Kind::RNode;
                let n = self.tree.node(c);
                if !n.queued && !n.in_flight && n.active_children == 0 {
                    self.push_primary(c);
                }
            }
        }
    }

    /// Promotes candidate child `c` of `p` to an e-child and schedules it.
    fn promote(&mut self, p: NodeId, c: NodeId) {
        debug_assert_eq!(self.tree.node(c).kind, Kind::Undecided);
        self.tree.node_mut(c).kind = Kind::ENode;
        {
            let n = self.tree.node_mut(p);
            n.echildren += 1;
            n.echild_selected = true;
        }
        let n = self.tree.node(c);
        if !n.queued && !n.in_flight && n.active_children == 0 && !n.done {
            self.push_primary(c);
        }
    }

    /// Admits `p` to the speculative queue when the §6 conditions hold.
    fn maybe_spec(&mut self, p: NodeId) {
        if !self.spec_enabled() {
            return;
        }
        let n = self.tree.node(p);
        if n.on_spec || n.done || n.refuting {
            return;
        }
        let Some(d) = n.degree() else { return };
        let threshold = if !n.echild_selected {
            // Early choice: "as soon as all but one of the elder
            // grandchildren have been evaluated" (§6).
            self.cfg.spec.early_choice && n.elder_done + 1 >= d
        } else {
            self.cfg.spec.multiple_enodes
        };
        if threshold && self.tree.best_candidate(p).is_some() {
            self.push_spec(p);
        }
    }

    /// Selects the next job per Table 1, resolving cutoffs and dead work.
    /// Must be called under the heap lock.
    ///
    /// The primary queue is always tried first. `speculate` says whether
    /// the caller would otherwise starve: only then may an empty primary
    /// queue fall through to the speculative queue and promote an e-child
    /// (§3: speculation exists to feed processors that have nothing else).
    /// With `false` the speculative queue is never popped and an empty
    /// primary queue yields [`Select::Empty`]. The simulator takes one
    /// unit at a time, so it always passes `true`; the threaded refill
    /// passes `true` only while its take is still empty, so a batch is
    /// never topped up with speculative work no one was waiting for.
    pub fn select(&mut self, speculate: bool) -> Select {
        if self.finished {
            return Select::Empty;
        }
        loop {
            if let Some(id) = self.primary.pop() {
                self.tree.node_mut(id).queued = false;
                if self.tree.node(id).done || self.tree.is_dead(id) {
                    continue;
                }
                if self.tree.is_cut_off(id) {
                    self.cut_off(id);
                    self.on_done(id);
                    if self.finished {
                        return Select::JustFinished;
                    }
                    continue;
                }
                return Select::Job(self.job_for(id));
            }
            if speculate && self.spec_enabled() {
                if let Some(p) = self.spec.pop() {
                    self.tree.node_mut(p).on_spec = false;
                    if self.tree.node(p).done || self.tree.node(p).refuting || self.tree.is_dead(p)
                    {
                        continue;
                    }
                    if let Some(c) = self.tree.best_candidate(p) {
                        self.promote(p, c);
                        if self.cfg.spec.multiple_enodes && self.tree.best_candidate(p).is_some() {
                            self.push_spec(p);
                        }
                    }
                    continue;
                }
            }
            return Select::Empty;
        }
    }

    /// Decides the Table 1 action for a freshly taken (live) node.
    fn job_for(&mut self, id: NodeId) -> Job {
        self.tree.node_mut(id).in_flight = true;
        let node = self.tree.node(id);
        let depth = node.depth;
        let kind = node.kind;
        let expanded = node.children.is_some();

        // Serial frontier (§6, "serial depth"): solve whole subtrees in one
        // unit of work — but preserve ER's selectivity at the boundary:
        // a fresh e-node is a full serial evaluation, a fresh r-node a
        // serial refutation (its window is tight), while an *undecided*
        // node still spawns only its first child, so the frontier keeps
        // evaluating elder grandchildren before committing to children
        // (DESIGN.md §7.2).
        let at_frontier = depth > 0 && depth <= self.frontier_limit(kind, expanded);
        if at_frontier && !expanded && kind != Kind::Undecided {
            let window = self.tree.window(id);
            return Job {
                id,
                task: Task::Serial {
                    depth,
                    window,
                    ply: node.ply,
                    refute: kind == Kind::RNode,
                    frontier: self.frontier,
                },
            };
        }
        if at_frontier && expanded && kind == Kind::ENode {
            // A promoted frontier e-child: its first child is already
            // evaluated. Examine the remaining children one at a time (the
            // Refute_rest discipline), each as its own serial unit of work
            // so every sibling sees the freshest window.
            return Job {
                id,
                task: Task::NextChild,
            };
        }

        if depth == 0 {
            // A leaf whose parent sorted its moves already knows its static
            // value: settle it from the memo, no evaluator call, no
            // position copy.
            let task = match node.static_eval {
                Some(v) => Task::CachedLeaf(v),
                None => Task::Leaf,
            };
            return Job { id, task };
        }

        match kind {
            Kind::ENode | Kind::Undecided | Kind::RNode if !expanded => Job {
                id,
                task: Task::Movegen {
                    ply: node.ply,
                    depth,
                    enode: kind == Kind::ENode,
                    cached: node.static_eval,
                },
            },
            Kind::ENode => Job {
                id,
                task: Task::ExpandRest,
            },
            Kind::RNode => Job {
                id,
                task: Task::NextChild,
            },
            Kind::Undecided => {
                unreachable!("undecided node re-queued after expansion")
            }
        }
    }

    /// Virtual cost of an outcome under the configured cost model.
    pub fn cost_of(&self, outcome: &Outcome<P>) -> u64 {
        match outcome {
            Outcome::Leaf(_) => self.cfg.cost.eval,
            // A memoized leaf is a table lookup, not an evaluator call —
            // and so is a transposition-table answer.
            Outcome::CachedLeaf(_) | Outcome::TtExact(_) => 1,
            Outcome::Moves { sort_evals, .. } => {
                self.cfg.cost.expand + sort_evals * self.cfg.cost.eval
            }
            Outcome::Unit => self.cfg.cost.expand,
            Outcome::Serial { stats, .. } => self.cfg.cost.serial_ticks(stats),
            Outcome::Aborted => 0,
        }
    }

    /// Applies a completed job to the shared tree: spawn children, push
    /// queues, combine. Must be called under the heap lock. Returns `true`
    /// when the computation has finished.
    pub fn apply(&mut self, id: NodeId, outcome: Outcome<P>) -> bool {
        self.tree.node_mut(id).in_flight = false;
        match outcome {
            Outcome::Leaf(v) => {
                self.totals.leaf_nodes += 1;
                self.totals.eval_calls += 1;
                if !self.tree.is_dead(id) {
                    let n = self.tree.node_mut(id);
                    n.value = v;
                    n.done = true;
                    // Terminals have an (empty) move list conceptually;
                    // record one so fully_spawned() holds.
                    n.set_childless();
                    self.on_done(id);
                }
            }
            Outcome::CachedLeaf(v) => {
                // Same examined leaf as above, but the evaluator call was
                // already charged by the sorting probe that memoized `v`.
                self.totals.leaf_nodes += 1;
                self.cached_leaf_hits += 1;
                if !self.tree.is_dead(id) {
                    let n = self.tree.node_mut(id);
                    n.value = v;
                    n.done = true;
                    n.set_childless();
                    self.on_done(id);
                }
            }
            Outcome::Serial { value, stats } => {
                self.totals.merge(&stats);
                if !self.tree.is_dead(id) {
                    let n = self.tree.node_mut(id);
                    n.value = n.value.max(value);
                    n.done = true;
                    n.set_childless();
                    self.on_done(id);
                }
            }
            Outcome::TtExact(value) => {
                // An exact stored value settles the node without expansion;
                // like a serial-frontier hit it examines no new nodes here
                // (the table's own counters record the hit).
                if !self.tree.is_dead(id) {
                    let n = self.tree.node_mut(id);
                    n.value = n.value.max(value);
                    n.done = true;
                    n.set_childless();
                    self.on_done(id);
                }
            }
            Outcome::Moves {
                kids,
                evals,
                sort_evals,
            } => {
                self.totals.interior_nodes += 1;
                self.totals.eval_calls += sort_evals;
                self.totals.sorts += u64::from(sort_evals > 0);
                if !self.tree.is_dead(id) {
                    let kind = self.tree.node(id).kind;
                    // Children spawned later carry the evals as memoized
                    // static values.
                    self.tree.set_children(id, kids, evals);
                    match kind {
                        Kind::ENode => {
                            // Table 1 row 1: all children, undecided.
                            while !self.tree.node(id).fully_spawned() {
                                let c = self.tree.spawn_child(id, Kind::Undecided);
                                self.push_primary(c);
                            }
                        }
                        Kind::Undecided | Kind::RNode => {
                            // Table 1 rows 2–3: first child is an e-node.
                            let c = self.tree.spawn_child(id, Kind::ENode);
                            self.push_primary(c);
                        }
                    }
                }
            }
            Outcome::Aborted => {
                // Workers discard aborted outcomes before ever taking the
                // lock; nothing may apply one to the tree.
                unreachable!("aborted outcomes are discarded by the executor")
            }
            Outcome::Unit => {
                if !self.tree.is_dead(id) {
                    match self.tree.node(id).kind {
                        Kind::ENode
                            if self.tree.node(id).depth
                                <= self.frontier_limit(Kind::ENode, true) =>
                        {
                            // Frontier e-child continuation: one sibling at
                            // a time, refuted as its own serial unit.
                            if !self.tree.node(id).fully_spawned() {
                                let c = self.tree.spawn_child(id, Kind::RNode);
                                self.push_primary(c);
                            }
                        }
                        Kind::ENode => {
                            // Promoted e-child: spawn remaining children.
                            while !self.tree.node(id).fully_spawned() {
                                let c = self.tree.spawn_child(id, Kind::Undecided);
                                self.push_primary(c);
                            }
                            if self.tree.node(id).active_children == 0 {
                                self.tree.node_mut(id).done = true;
                                self.on_done(id);
                            }
                        }
                        Kind::RNode => {
                            // Table 1 row 4: next child, r-node.
                            if !self.tree.node(id).fully_spawned() {
                                let c = self.tree.spawn_child(id, Kind::RNode);
                                self.push_primary(c);
                            }
                        }
                        Kind::Undecided => unreachable!("unit task on undecided node"),
                    }
                }
            }
        }
        self.finished
    }

    /// True if a `select` call might currently produce a job.
    pub fn work_available(&self) -> bool {
        !self.finished
            && (!self.primary.is_empty() || (self.spec_enabled() && !self.spec.is_empty()))
    }

    /// Combined primary + speculative queue length (telemetry sample; the
    /// threaded back-end records it once per refill when tracing is on).
    pub fn queue_len(&self) -> usize {
        self.primary.len() + self.spec.len()
    }

    /// Ordering policy (needed by executors).
    pub fn order(&self) -> OrderPolicy {
        self.cfg.order
    }

    /// The serial-search configuration forwarded to frontier jobs: the
    /// static ordering policy.
    pub fn serial_cfg(&self) -> ErConfig {
        ErConfig::new(self.cfg.order)
    }
}

/// One executed job in a simulated run's trace (diagnostics for the
/// experiment harness).
#[derive(Clone, Copy, Debug)]
pub struct JobTrace {
    /// Virtual time the job was taken.
    pub start: u64,
    /// Virtual execution cost in ticks.
    pub cost: u64,
    /// Ply of the node the job belonged to.
    pub ply: u32,
    /// Task kind label.
    pub kind: &'static str,
}

fn task_kind(task: &Task) -> &'static str {
    match task {
        Task::Leaf => "leaf",
        Task::CachedLeaf(_) => "cached-leaf",
        Task::Movegen { .. } => "movegen",
        Task::NextChild => "next-child",
        Task::ExpandRest => "expand-rest",
        Task::Serial { .. } => "serial",
    }
}

/// Simulation adapter: `take` = select + execute (charging virtual cost),
/// `complete` = apply.
struct SimAdapter<P: GamePosition, T: TtAccess<P>, O: OrdAccess> {
    worker: ErWorker<P>,
    inflight: Vec<Option<(NodeId, Outcome<P>)>>,
    trace: Vec<JobTrace>,
    /// Path keys of every examined node, in completion order (see
    /// [`ErRunResult::examined_keys`]).
    examined_keys: Vec<u64>,
    hooks: Hooks<T, (), (), O>,
}

impl<P: GamePosition, T: TtAccess<P>, O: OrdAccess> HeapWorker for SimAdapter<P, T, O> {
    fn take(&mut self, now: u64) -> Option<TakenWork> {
        match self.worker.select(true) {
            Select::Empty => None,
            Select::JustFinished => {
                let token = self.inflight.len() as u64;
                self.inflight.push(None);
                Some(TakenWork { token, cost: 0 })
            }
            Select::Job(job) => {
                let ply = self.worker.node_ply(job.id);
                let kind = task_kind(&job.task);
                // Borrow the position straight out of the tree's slab: the
                // simulator never clones a position per job. `run_er_sim`
                // passes a table-free handle (`()`), keeping it
                // byte-for-byte deterministic against the seed runs; with
                // a table the run is still deterministic (one OS thread,
                // deterministic job order), just no longer byte-identical
                // to the table-free schedule.
                let outcome = execute_task(
                    &job.task,
                    Some(self.worker.node_pos(job.id)),
                    self.worker.serial_cfg(),
                    self.hooks,
                );
                let cost = self.worker.cost_of(&outcome);
                let token = self.inflight.len() as u64;
                self.inflight.push(Some((job.id, outcome)));
                self.trace.push(JobTrace {
                    start: now,
                    cost,
                    ply,
                    kind,
                });
                Some(TakenWork { token, cost })
            }
        }
    }

    fn complete(&mut self, token: u64, _now: u64) -> bool {
        match self.inflight[token as usize].take() {
            None => self.worker.is_finished(),
            Some((id, outcome)) => {
                // Every outcome but a spawn-only `Unit` examined its node:
                // an expansion, a leaf, or a serial or table-answered
                // subtree root.
                if !matches!(outcome, Outcome::Unit) {
                    self.examined_keys.push(self.worker.node_path_key(id));
                }
                self.worker.apply(id, outcome)
            }
        }
    }

    fn has_pending(&self) -> bool {
        self.worker.work_available()
    }
}

/// Runs parallel ER on `processors` simulated processors, returning the
/// root value, the virtual-time report, and aggregate node counts.
pub fn run_er_sim<P: GamePosition>(
    pos: &P,
    depth: u32,
    processors: usize,
    cfg: &ErParallelConfig,
) -> ErRunResult {
    run_er_sim_with(pos, depth, Window::FULL, processors, cfg, Hooks::default())
}

/// [`run_er_sim`] with an explicit root window (the aspiration driver's
/// probe) and the two hooks the simulator takes: a table shared by every
/// virtual processor, and killer/history tables ranking non-e-node
/// children and the serial frontier.
///
/// With a narrowed `window` the result is exact only inside it; outside it
/// is a fail-hard bound in the failing direction. Unlike the threaded
/// back-end the simulation stays fully deterministic with either hook on:
/// one OS thread probes, stores and updates the tables in a fixed job
/// order, so the same configuration always examines the same nodes and
/// table-on against table-off node counts compare exactly.
pub fn run_er_sim_with<P: GamePosition, T: TtAccess<P>, O: OrdAccess>(
    pos: &P,
    depth: u32,
    window: Window,
    processors: usize,
    cfg: &ErParallelConfig,
    hooks: Hooks<T, (), (), O>,
) -> ErRunResult {
    let mut adapter = SimAdapter {
        worker: ErWorker::new(pos.clone(), depth, window, *cfg, Frontier::Er),
        inflight: Vec::new(),
        trace: Vec::new(),
        examined_keys: Vec::new(),
        hooks,
    };
    let report = simulate(&mut adapter, processors, cfg.cost.heap_latency);
    ErRunResult {
        value: adapter
            .worker
            .root_value
            .expect("finished search has a root value"),
        report,
        stats: adapter.worker.totals,
        trace: adapter.trace,
        examined_keys: adapter.examined_keys,
    }
}

#[cfg(test)]
mod tests {
    use super::super::Speculation;
    use super::*;
    use gametree::arena::{leaf, node, ArenaTree};
    use gametree::random::RandomTreeSpec;
    use gametree::tictactoe::TicTacToe;
    use gametree::GamePosition;
    use search_serial::{er_search, negmax, ErConfig};

    fn cfg(serial_depth: u32) -> ErParallelConfig {
        ErParallelConfig::random_tree(serial_depth)
    }

    #[test]
    fn grain_rule_tabulated() {
        // (branching, depth, floor) -> serial depth under the alpha-beta
        // frontier.
        let table = [
            // R1's shape at perfbench `random`'s floor: 4^4 + 4^3 - 1 =
            // 319 leaves fit the budget at depth 7, 511 at depth 8 do not.
            ((4, 10, 4), 7),
            // R1 at Table 3's floor: already at the lift.
            ((4, 10, 7), 7),
            // An Othello root at depth 7, floor 5: 10^3 + 10^2 - 1 leaves
            // at depth 5 already exceed the budget.
            ((10, 7, 5), 5),
            // A low-degree Othello root: depth 6 would fit (127 leaves),
            // but the guard keeps two plies above the frontier.
            ((4, 7, 5), 5),
            ((3, 7, 1), 5),
            // A degree-1 chain: every subtree is one leaf, so only the
            // guard stops the lift.
            ((1, 10, 1), 8),
            ((1, 3, 1), 1),
            // Depth at or below the floor: the floor stands.
            ((4, 4, 4), 4),
            ((4, 3, 4), 4),
            ((4, 5, 4), 4),
            // Serial depth 0 keeps every node on the heap.
            ((4, 10, 0), 0),
            ((1, 10, 0), 0),
        ];
        for ((degree, depth, floor), want) in table {
            assert_eq!(
                grain_serial_depth(degree, depth, floor),
                want,
                "degree {degree}, depth {depth}, floor {floor}"
            );
        }
        assert_eq!(minimal_tree_leaves(4, 7), 319);
        assert_eq!(minimal_tree_leaves(4, 8), 511);
        assert_eq!(minimal_tree_leaves(1, 30), 1);
        assert_eq!(minimal_tree_leaves(u64::MAX, 40), u64::MAX - 1);
    }

    /// A root with one move above a line of `degree`-move nodes, `height`
    /// plies in all; only the first move of each node leads anywhere.
    fn forced_root(degree: usize, height: u32) -> gametree::arena::ArenaPos {
        use gametree::arena::TreeSpec;
        fn line(degree: usize, height: u32) -> TreeSpec {
            if height == 0 {
                return leaf(0);
            }
            let mut kids = vec![line(degree, height - 1)];
            kids.extend((1..degree).map(|i| leaf(i as i32)));
            node(kids)
        }
        ArenaTree::root_of(&node(vec![line(degree, height - 1)]))
    }

    #[test]
    fn lifted_depth_reads_the_branching_below_a_forced_root() {
        // A forced checkers capture searched 9 plies at floor 3, with
        // about eight moves a ply below it. The root's own count would
        // lift the frontier to 7, where each job's minimal tree has
        // 8^4 + 8^3 - 1 leaves; the first-move line gives 8 and a lift
        // to 4 (127 leaves).
        assert_eq!(grain_serial_depth(1, 9, 3), 7);
        assert_eq!(lifted_serial_depth(&forced_root(8, 9), 9, 3), 4);
        // A chain reads 1: its whole tree is the line, so a lift costs
        // nothing there.
        let chain = ArenaTree::root_of(&node(vec![node(vec![leaf(0)])]));
        assert_eq!(line_branching(&chain, 9), 1);
        // A uniform tree reads its degree: R1 at perfbench `random`'s
        // floor lifts to 7, and serial depth 0 is never lifted.
        let r1 = RandomTreeSpec::new(1, 4, 10).root();
        assert_eq!(line_branching(&r1, 10), 4);
        assert_eq!(lifted_serial_depth(&r1, 10, 4), 7);
        assert_eq!(lifted_serial_depth(&r1, 10, 0), 0);
        // No slack above the floor: the line is not read.
        let (_, o1) = othello::configs::all().remove(0);
        assert_eq!(lifted_serial_depth(&o1, 7, 5), 5);
    }

    #[test]
    fn matches_negmax_on_random_trees_all_processor_counts() {
        for seed in 0..6 {
            let root = RandomTreeSpec::new(seed, 4, 6).root();
            let exact = negmax(&root, 6).value;
            for k in [1usize, 2, 4, 16] {
                let r = run_er_sim(&root, 6, k, &cfg(3));
                assert_eq!(r.value, exact, "seed {seed} k {k}");
            }
        }
    }

    #[test]
    fn matches_negmax_with_various_serial_depths() {
        let root = RandomTreeSpec::new(11, 4, 6).root();
        let exact = negmax(&root, 6).value;
        for sd in [0u32, 1, 2, 4, 5, 6, 7] {
            let r = run_er_sim(&root, 6, 4, &cfg(sd));
            assert_eq!(r.value, exact, "serial_depth {sd}");
        }
    }

    #[test]
    fn matches_negmax_on_wide_trees() {
        for seed in 0..4 {
            let root = RandomTreeSpec::new(seed, 8, 4).root();
            let exact = negmax(&root, 4).value;
            let r = run_er_sim(&root, 4, 8, &cfg(2));
            assert_eq!(r.value, exact, "seed {seed}");
        }
    }

    #[test]
    fn all_speculation_combinations_are_correct() {
        let root = RandomTreeSpec::new(5, 4, 6).root();
        let exact = negmax(&root, 6).value;
        for bits in 0..8u32 {
            let spec = Speculation {
                parallel_refutation: bits & 1 != 0,
                multiple_enodes: bits & 2 != 0,
                early_choice: bits & 4 != 0,
            };
            let c = ErParallelConfig { spec, ..cfg(2) };
            let r = run_er_sim(&root, 6, 4, &c);
            assert_eq!(r.value, exact, "spec {spec:?}");
        }
    }

    #[test]
    fn tictactoe_parallel_draw() {
        let r = run_er_sim(&TicTacToe::initial(), 9, 8, &cfg(4));
        assert_eq!(r.value, Value::ZERO);
    }

    #[test]
    fn deterministic() {
        let root = RandomTreeSpec::new(3, 4, 7).root();
        let a = run_er_sim(&root, 7, 6, &cfg(3));
        let b = run_er_sim(&root, 7, 6, &cfg(3));
        assert_eq!(a.report, b.report);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn parallelism_reduces_makespan() {
        let root = RandomTreeSpec::new(7, 4, 8).root();
        let r1 = run_er_sim(&root, 8, 1, &cfg(4));
        let r4 = run_er_sim(&root, 8, 4, &cfg(4));
        let r16 = run_er_sim(&root, 8, 16, &cfg(4));
        assert!(
            r4.report.makespan < r1.report.makespan,
            "4 processors must beat 1: {} vs {}",
            r4.report.makespan,
            r1.report.makespan
        );
        assert!(r16.report.makespan <= r4.report.makespan);
    }

    #[test]
    fn single_processor_work_is_close_to_serial_er() {
        // k=1 parallel ER schedules the same phases as serial ER; its node
        // count should be within a modest factor.
        let root = RandomTreeSpec::new(9, 4, 8).root();
        let serial = er_search(&root, 8, ErConfig::NATURAL);
        let par = run_er_sim(&root, 8, 1, &cfg(4));
        let ratio = par.stats.nodes() as f64 / serial.stats.nodes() as f64;
        assert!(
            (0.5..1.6).contains(&ratio),
            "k=1 node count ratio {ratio:.2} (parallel {} vs serial {})",
            par.stats.nodes(),
            serial.stats.nodes()
        );
    }

    #[test]
    fn speculative_loss_grows_then_plateaus() {
        // The paper's headline shape (Figures 12/13): nodes examined grow
        // from 1 to 4 processors, then change slowly to 16.
        let root = RandomTreeSpec::new(13, 4, 8).root();
        let n1 = run_er_sim(&root, 8, 1, &cfg(4)).stats.nodes() as f64;
        let n4 = run_er_sim(&root, 8, 4, &cfg(4)).stats.nodes() as f64;
        let n16 = run_er_sim(&root, 8, 16, &cfg(4)).stats.nodes() as f64;
        assert!(n4 >= n1 * 0.99, "speculation should not shrink work");
        let grow_4_16 = n16 / n4;
        assert!(
            grow_4_16 < 2.0,
            "4→16 speculative growth should be moderate, got {grow_4_16:.2}"
        );
    }

    #[test]
    fn depth_zero_root_is_a_leaf() {
        let root = RandomTreeSpec::new(1, 4, 4).root();
        let r = run_er_sim(&root, 0, 2, &cfg(0));
        assert_eq!(r.value, root.evaluate());
        assert_eq!(r.stats.leaf_nodes, 1);
    }

    #[test]
    fn fully_serial_when_depth_below_threshold() {
        let root = RandomTreeSpec::new(2, 4, 5).root();
        let r = run_er_sim(&root, 5, 8, &cfg(10));
        assert_eq!(r.value, negmax(&root, 5).value);
        // One serial job solves everything.
        assert_eq!(r.report.items_completed, 1);
    }

    #[test]
    fn no_speculation_starves() {
        // With speculation off, most of the machine idles: starvation
        // should dominate the 16-processor run far more than with the full
        // configuration.
        let root = RandomTreeSpec::new(17, 4, 8).root();
        let none = run_er_sim(
            &root,
            8,
            16,
            &ErParallelConfig {
                spec: Speculation::NONE,
                ..cfg(4)
            },
        );
        let all = run_er_sim(&root, 8, 16, &cfg(4));
        assert!(
            none.report.makespan > all.report.makespan,
            "speculation must reduce makespan at 16 processors: {} vs {}",
            none.report.makespan,
            all.report.makespan
        );
    }
}
