//! The shared search tree of the parallel ER implementation (paper §6).
//!
//! Nodes carry the record fields of Figure 8 (`value`, `done`) plus the
//! bookkeeping the problem-heap rules of Tables 1 and 2 need: node type,
//! generated children, elder-grandchild progress, and e-child state.
//!
//! The tree is an index arena. Applying a node's move list reserves its
//! children's ids as one contiguous range, in generation order, and moves
//! each child position once into the tree's [`PublishSlab`] under its id.
//! A node holds no position and no vector: spawning a child only sets its
//! kind and bumps its parent's counters.
//!
//! Values follow the paper's combine procedure: `value` is raised only by
//! *done* children (`value := max(value, -child.value)`); tentative values
//! (an undecided child whose elder grandchild finished) live on the child
//! itself and are consulted for e-child selection, never propagated.
//!
//! Windows are dynamic: a node's `(alpha, beta)` is recomputed from the
//! current values of its ancestors, so a sibling finishing anywhere in the
//! tree immediately narrows everyone's windows. "Node can't be cut off"
//! (§6 combine) is exactly "the dynamic window is non-empty".

use std::ops::Range;
use std::sync::Arc;

use gametree::{GamePosition, Value, Window};
use problem_heap::PublishSlab;

/// Index of a node in the [`SearchTree`] arena.
pub type NodeId = u32;

/// Path key of the root node (see [`child_path_key`]).
pub const ROOT_PATH_KEY: u64 = 0x9e37_79b9_7f4a_7c15;

/// Deterministic identity of "the `index`-th ordered child of the node
/// with key `parent`": a pure function of the path from the root, so the
/// same tree node receives the same key in any algorithm that orders
/// children identically. Used to classify mandatory vs speculative work.
pub fn child_path_key(parent: u64, index: usize) -> u64 {
    gametree::random::splitmix64(parent ^ ((index as u64 + 1) << 1))
}

/// Node types from Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Evaluate node: all children will be examined.
    ENode,
    /// Refute node: children examined sequentially until one refutes it.
    RNode,
    /// Child of an e-node whose role is not yet decided; its first child
    /// (the parent's elder grandchild) is evaluated first.
    Undecided,
}

/// One node of the shared search tree. Its position lives in the tree's
/// slab under its id ([`SearchTree::pos`]).
#[derive(Clone, Debug)]
pub struct Node {
    /// Parent node, `None` for the root.
    pub parent: Option<NodeId>,
    /// Remaining search depth below this node.
    pub depth: u32,
    /// Distance from the root.
    pub ply: u32,
    /// Current type under the Table 1/2 rules.
    pub kind: Kind,
    /// Paper semantics: the running max of `-child.value` over done
    /// children (plus window clamps); `NEG_INF` until something combines.
    pub value: Value,
    /// Node finished: evaluated, refuted, or cut off.
    pub done: bool,
    /// The ids reserved for the children, in search order ("determine the
    /// child positions", done once); `None` until the move list is
    /// applied, empty for a settled terminal.
    pub children: Option<Range<NodeId>>,
    /// Memoized static evaluation of the node's position, if some earlier
    /// phase (a sorting probe in the parent's move generation) already
    /// computed it.
    pub static_eval: Option<Value>,
    /// How many children have been spawned as tree nodes: the first
    /// `next_child` ids of `children`.
    pub next_child: usize,
    /// Spawned children not yet done.
    pub active_children: usize,
    /// Children with a tentative value (elder grandchild evaluated) or
    /// already done — the e-node's elder-grandchild progress counter.
    pub elder_done: usize,
    /// Whether this node has been counted in its parent's `elder_done`.
    pub elder_counted: bool,
    /// Whether a first e-child has been selected (Table 2 rows 2/5).
    pub echild_selected: bool,
    /// Number of children promoted to e-child (speculative-queue rank).
    pub echildren: u32,
    /// Parallel refutation has started (Table 2 row 3).
    pub refuting: bool,
    /// Currently enqueued on the speculative queue.
    pub on_spec: bool,
    /// Currently enqueued on the primary queue.
    pub queued: bool,
    /// Taken from a queue with its job not yet applied. Such a node must
    /// not be re-queued (its pending outcome will drive the next step).
    pub in_flight: bool,
    /// Path identity (see [`child_path_key`]).
    pub path_key: u64,
}

impl Node {
    fn new(parent: Option<NodeId>, depth: u32, ply: u32, kind: Kind, path_key: u64) -> Node {
        Node {
            parent,
            depth,
            ply,
            kind,
            value: Value::NEG_INF,
            done: false,
            children: None,
            static_eval: None,
            next_child: 0,
            active_children: 0,
            elder_done: 0,
            elder_counted: false,
            echild_selected: false,
            echildren: 0,
            refuting: false,
            on_spec: false,
            queued: false,
            in_flight: false,
            path_key,
        }
    }

    /// Total number of children once the move list exists.
    pub fn degree(&self) -> Option<usize> {
        self.children.as_ref().map(|c| c.len())
    }

    /// True iff every child has been spawned (requires the move list).
    pub fn fully_spawned(&self) -> bool {
        matches!(self.degree(), Some(d) if self.next_child == d)
    }

    /// The spawned children's ids, in generation order.
    pub fn spawned(&self) -> Range<NodeId> {
        match &self.children {
            Some(c) => c.start..c.start + self.next_child as NodeId,
            None => 0..0,
        }
    }

    /// Settles the node as a terminal: no children, ever.
    pub fn set_childless(&mut self) {
        self.children = Some(0..0);
    }
}

/// Arena of search-tree nodes. All parallel-engine mutations go through
/// this structure; in the simulator it is accessed under the (virtual) heap
/// lock, in the threaded implementation under a real mutex.
pub struct SearchTree<P: GamePosition> {
    nodes: Vec<Node>,
    /// Every node's position, published under its id when the id is
    /// reserved and never changed after. Shared so the threaded back-end's
    /// executors read positions lock-free.
    positions: Arc<PublishSlab<P>>,
    /// Initial window at the root. [`Window::FULL`] for a plain search;
    /// an aspiration driver narrows it around the previous iteration's
    /// value so every dynamic window in the tree inherits the bounds.
    root_window: Window,
}

/// The root node's id.
pub const ROOT: NodeId = 0;

impl<P: GamePosition> SearchTree<P> {
    /// A tree containing only the root (an e-node, per the elder-grandchild
    /// strategy the root's evaluation starts with).
    pub fn new(pos: P, depth: u32) -> SearchTree<P> {
        SearchTree::new_windowed(pos, depth, Window::FULL)
    }

    /// [`SearchTree::new`] with an explicit root window (aspiration
    /// search). The result is exact only if it falls strictly inside
    /// `window`; outside it is a bound in the failing direction.
    pub fn new_windowed(pos: P, depth: u32, window: Window) -> SearchTree<P> {
        let positions = PublishSlab::new();
        positions.publish(ROOT as usize, pos);
        SearchTree {
            nodes: vec![Node::new(None, depth, 0, Kind::ENode, ROOT_PATH_KEY)],
            positions: Arc::new(positions),
            root_window: window,
        }
    }

    /// Immutable node access.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id as usize]
    }

    /// Mutable node access.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id as usize]
    }

    /// The position at node `id`.
    pub fn pos(&self, id: NodeId) -> &P {
        self.positions
            .get(id as usize)
            .expect("a node's position is published when its id is reserved")
    }

    /// The slab holding every node's position, keyed by node id.
    pub fn positions(&self) -> &Arc<PublishSlab<P>> {
        &self.positions
    }

    /// Number of node ids reserved so far, each with its position
    /// published: the root plus every generated child, spawned or not.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff the tree is empty (never: the root always exists).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Applies `id`'s move list: reserves one id per child, in the order
    /// given, each carrying its memoized static value from `evals`
    /// (aligned index-for-index, when the parent sorted) and its path key,
    /// and moves each position into the slab under its id. The children
    /// are spawned later, in order, by [`SearchTree::spawn_child`].
    pub fn set_children(&mut self, id: NodeId, kids: Vec<P>, evals: Option<Vec<Value>>) {
        let first = self.nodes.len() as NodeId;
        let p = &self.nodes[id as usize];
        let (depth, ply, key) = (p.depth - 1, p.ply + 1, p.path_key);
        for (i, pos) in kids.into_iter().enumerate() {
            let c = first + i as NodeId;
            self.positions.publish(c as usize, pos);
            let key = child_path_key(key, i);
            let mut node = Node::new(Some(id), depth, ply, Kind::Undecided, key);
            node.static_eval = evals.as_ref().map(|e| e[i]);
            self.nodes.push(node);
        }
        self.nodes[id as usize].children = Some(first..self.nodes.len() as NodeId);
    }

    /// Spawns the next un-spawned child of `parent` with the given kind.
    /// Requires the move list to exist and a child to remain.
    pub fn spawn_child(&mut self, parent: NodeId, kind: Kind) -> NodeId {
        let p = &mut self.nodes[parent as usize];
        let first = p.children.as_ref().expect("move list exists").start;
        let id = first + p.next_child as NodeId;
        debug_assert!(!p.fully_spawned(), "no child left to spawn");
        p.next_child += 1;
        p.active_children += 1;
        self.nodes[id as usize].kind = kind;
        id
    }

    /// The dynamic alpha-beta window of `id`, derived from the current
    /// values of its ancestors exactly as serial alpha-beta would pass it
    /// down: `beta(n) = -alpha(parent)`, `alpha(n) = max(value(n),
    /// -beta(parent))`, with the root's window starting at `(value, +inf)`.
    pub fn window(&self, id: NodeId) -> Window {
        // Recurse up the ancestor chain (depth bounded by the search depth)
        // rather than materializing the path: entering a node from its
        // parent swap-negates the parent's (alpha, beta), then raises alpha
        // by the node's own combined value.
        let n = &self.nodes[id as usize];
        let (mut alpha, beta) = match n.parent {
            Some(p) => {
                let pw = self.window(p);
                (-pw.beta, -pw.alpha)
            }
            None => (self.root_window.alpha, self.root_window.beta),
        };
        alpha = alpha.max(n.value);
        Window { alpha, beta }
    }

    /// "Node can be cut off" (§6): its dynamic window is empty.
    pub fn is_cut_off(&self, id: NodeId) -> bool {
        self.window(id).is_empty()
    }

    /// True iff the node or any ancestor is done — its result can no longer
    /// influence the search.
    pub fn is_dead(&self, id: NodeId) -> bool {
        let mut cur = Some(id);
        while let Some(c) = cur {
            if self.nodes[c as usize].done {
                return true;
            }
            cur = self.nodes[c as usize].parent;
        }
        false
    }

    /// The best e-child candidate: the one with the most optimistic bound
    /// for the parent, i.e. the lowest tentative value (ties: generation
    /// order, which preserves static-sort order). Allocation-free — this
    /// runs under the heap lock on every speculative-queue pop.
    pub fn best_candidate(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id as usize]
            .spawned()
            .filter(|&c| {
                let n = &self.nodes[c as usize];
                n.kind == Kind::Undecided && !n.done && n.elder_counted
            })
            .min_by_key(|&c| self.nodes[c as usize].value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gametree::arena::{leaf, node, ArenaTree};

    fn two_level() -> SearchTree<gametree::arena::ArenaPos> {
        let root = ArenaTree::root_of(&node(vec![
            node(vec![leaf(3), leaf(-2)]),
            node(vec![leaf(5), leaf(1)]),
        ]));
        SearchTree::new(root, 2)
    }

    /// Applies `id`'s move list in natural order.
    fn expand(t: &mut SearchTree<gametree::arena::ArenaPos>, id: NodeId) {
        let kids = t.pos(id).children();
        t.set_children(id, kids, None);
    }

    fn expand_all(t: &mut SearchTree<gametree::arena::ArenaPos>, id: NodeId, kind: Kind) {
        expand(t, id);
        while !t.node(id).fully_spawned() {
            t.spawn_child(id, kind);
        }
    }

    #[test]
    fn root_window_is_full() {
        let t = two_level();
        assert_eq!(t.window(ROOT), Window::FULL);
    }

    #[test]
    fn child_window_negates_parent_value() {
        let mut t = two_level();
        expand_all(&mut t, ROOT, Kind::Undecided);
        // Simulate the first child combining with value -7 (so root >= 7).
        t.node_mut(ROOT).value = Value::new(7);
        let c2 = t.node(ROOT).spawned().nth(1).unwrap();
        let w = t.window(c2);
        // Child's beta = -alpha(root) = -7.
        assert_eq!(w.beta, Value::new(-7));
        assert_eq!(w.alpha, Value::NEG_INF);
        assert!(!w.is_empty());
    }

    #[test]
    fn cutoff_when_child_value_reaches_beta() {
        let mut t = two_level();
        expand_all(&mut t, ROOT, Kind::Undecided);
        t.node_mut(ROOT).value = Value::new(7);
        let c2 = t.node(ROOT).spawned().nth(1).unwrap();
        // The child's own combined value reaches -7: refuted.
        t.node_mut(c2).value = Value::new(-7);
        assert!(t.is_cut_off(c2));
        // A lower value is not yet a cutoff.
        t.node_mut(c2).value = Value::new(-8);
        assert!(!t.is_cut_off(c2));
    }

    #[test]
    fn deep_cutoff_through_grandparent() {
        // root(value 5) -> b -> c: c's beta must reflect the root bound two
        // plies up: beta(b) = -5, alpha(c) = -beta(b) = 5; if c's value
        // reaches... rather, c's window is (5, +inf)-negated appropriately.
        let root = ArenaTree::root_of(&node(vec![node(vec![node(vec![leaf(1), leaf(2)])])]));
        let mut t = SearchTree::new(root, 3);
        expand_all(&mut t, ROOT, Kind::Undecided);
        t.node_mut(ROOT).value = Value::new(5);
        let b = t.node(ROOT).spawned().next().unwrap();
        expand(&mut t, b);
        let c = t.spawn_child(b, Kind::ENode);
        let w = t.window(c);
        // alpha(c) = -beta(b) = alpha(root) = 5: the deep bound survives.
        assert_eq!(w.alpha, Value::new(5));
        // If c's descendants establish value >= beta(c) = -alpha(b) = +inf —
        // impossible; instead a *descendant of c* at the next ply sees
        // beta = -5 and can be deep-cut.
        expand(&mut t, c);
        let d = t.spawn_child(c, Kind::Undecided);
        assert_eq!(t.window(d).beta, Value::new(-5));
        t.node_mut(d).value = Value::new(-5);
        assert!(t.is_cut_off(d), "deep cutoff via great-grandparent bound");
    }

    #[test]
    fn dead_propagates_from_ancestors() {
        let mut t = two_level();
        expand_all(&mut t, ROOT, Kind::Undecided);
        let c1 = t.node(ROOT).spawned().next().unwrap();
        expand(&mut t, c1);
        let g = t.spawn_child(c1, Kind::ENode);
        assert!(!t.is_dead(g));
        t.node_mut(c1).done = true;
        assert!(t.is_dead(g));
        assert!(t.is_dead(c1));
        assert!(!t.is_dead(ROOT));
    }

    #[test]
    fn spawn_child_bookkeeping() {
        let mut t = two_level();
        expand(&mut t, ROOT);
        assert!(!t.node(ROOT).fully_spawned());
        let a = t.spawn_child(ROOT, Kind::Undecided);
        assert_eq!(t.node(ROOT).next_child, 1);
        assert_eq!(t.node(ROOT).active_children, 1);
        assert_eq!(t.node(a).ply, 1);
        assert_eq!(t.node(a).depth, 1);
        let _b = t.spawn_child(ROOT, Kind::Undecided);
        assert!(t.node(ROOT).fully_spawned());
        assert_eq!(t.node(ROOT).active_children, 2);
    }

    #[test]
    fn a_move_list_reserves_one_contiguous_range() {
        let mut t = two_level();
        expand(&mut t, ROOT);
        let c1 = t.spawn_child(ROOT, Kind::Undecided);
        expand(&mut t, c1);
        // The root's second child was reserved before c1's children.
        let c2 = t.spawn_child(ROOT, Kind::RNode);
        assert_eq!((c1, c2), (1, 2));
        assert_eq!(t.node(c1).children, Some(3..5));
        assert_eq!(t.node(c2).kind, Kind::RNode);
        assert_eq!(t.node(c2).path_key, child_path_key(ROOT_PATH_KEY, 1));
        // Reserved ids carry their position and memoized value at once.
        let kids = t.pos(c2).children();
        t.set_children(c2, kids, Some(vec![Value::new(5), Value::new(1)]));
        assert_eq!(t.len(), 7);
        assert_eq!(t.node(6).static_eval, Some(Value::new(1)));
        assert_eq!(t.pos(6).evaluate(), Value::new(1));
        assert!(t.node(c2).spawned().is_empty());
    }

    #[test]
    fn candidate_selection_prefers_lowest_tentative() {
        let mut t = two_level();
        expand_all(&mut t, ROOT, Kind::Undecided);
        let c1 = t.node(ROOT).spawned().next().unwrap();
        let c2 = t.node(ROOT).spawned().nth(1).unwrap();
        // Both children have tentative values (elder grandchildren done).
        t.node_mut(c1).elder_counted = true;
        t.node_mut(c1).value = Value::new(-3);
        t.node_mut(c2).elder_counted = true;
        t.node_mut(c2).value = Value::new(-5);
        // c2's tentative -5 is the most optimistic for the root (-(-5)=5).
        assert_eq!(t.best_candidate(ROOT), Some(c2));
        // A done child is not a candidate.
        t.node_mut(c2).done = true;
        assert_eq!(t.best_candidate(ROOT), Some(c1));
        // Nor a promoted one.
        t.node_mut(c1).kind = Kind::ENode;
        assert_eq!(t.best_candidate(ROOT), None);
    }
}
