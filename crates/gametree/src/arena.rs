//! Explicit arena-allocated game trees.
//!
//! Synthetic and real games generate positions lazily; for unit tests,
//! hand-built example trees (like the paper's figures), and cross-checking
//! different algorithms on *identical* inputs it is convenient to have an
//! explicit tree with every node materialized.

use std::sync::Arc;

use crate::position::GamePosition;
use crate::value::Value;

/// A declarative tree description, used to hand-build test trees.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TreeSpec {
    /// A terminal with its static value.
    Leaf(i32),
    /// An interior node: a static value (used by ordering policies) and its
    /// children, in natural move order.
    Node(i32, Vec<TreeSpec>),
}

/// Shorthand for [`TreeSpec::Leaf`].
pub fn leaf(v: i32) -> TreeSpec {
    TreeSpec::Leaf(v)
}

/// Shorthand for [`TreeSpec::Node`] with a zero static value.
pub fn node(children: Vec<TreeSpec>) -> TreeSpec {
    TreeSpec::Node(0, children)
}

/// Shorthand for [`TreeSpec::Node`] with an explicit static value.
pub fn node_sv(static_value: i32, children: Vec<TreeSpec>) -> TreeSpec {
    TreeSpec::Node(static_value, children)
}

#[derive(Clone, Debug)]
struct ArenaNode {
    /// Indices of children in the arena, in move order.
    children: Vec<u32>,
    /// Leaf value for terminals; static value for interior nodes.
    value: Value,
}

/// An explicit game tree stored in an arena. Node 0 is the root.
#[derive(Clone, Debug)]
pub struct ArenaTree {
    nodes: Vec<ArenaNode>,
}

impl ArenaTree {
    /// Builds an arena from a declarative spec.
    pub fn build(spec: &TreeSpec) -> ArenaTree {
        let mut tree = ArenaTree { nodes: Vec::new() };
        tree.add(spec);
        tree
    }

    fn add(&mut self, spec: &TreeSpec) -> u32 {
        let idx = self.nodes.len() as u32;
        self.nodes.push(ArenaNode {
            children: Vec::new(),
            value: Value::ZERO,
        });
        match spec {
            TreeSpec::Leaf(v) => self.nodes[idx as usize].value = Value::new(*v),
            TreeSpec::Node(sv, children) => {
                self.nodes[idx as usize].value = Value::new(*sv);
                let kids: Vec<u32> = children.iter().map(|c| self.add(c)).collect();
                self.nodes[idx as usize].children = kids;
            }
        }
        idx
    }

    /// Materializes the tree under `pos` down to `depth` plies, recording
    /// each node's static value.
    pub fn from_position<P: GamePosition>(pos: &P, depth: u32) -> ArenaTree {
        fn rec<P: GamePosition>(tree: &mut ArenaTree, pos: &P, depth: u32) -> u32 {
            let idx = tree.nodes.len() as u32;
            tree.nodes.push(ArenaNode {
                children: Vec::new(),
                value: pos.evaluate(),
            });
            if depth > 0 {
                let kids: Vec<u32> = pos
                    .children()
                    .iter()
                    .map(|c| rec(tree, c, depth - 1))
                    .collect();
                tree.nodes[idx as usize].children = kids;
            }
            idx
        }
        let mut tree = ArenaTree { nodes: Vec::new() };
        rec(&mut tree, pos, depth);
        tree
    }

    /// Total number of nodes in the arena.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff the arena is empty (never the case for built trees).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The root as a [`GamePosition`].
    pub fn root(self: &Arc<Self>) -> ArenaPos {
        ArenaPos {
            tree: Arc::clone(self),
            node: 0,
        }
    }

    /// Builds the arena and returns its root in one step.
    pub fn root_of(spec: &TreeSpec) -> ArenaPos {
        Arc::new(ArenaTree::build(spec)).root()
    }

    /// Exact negamax value of a node (reference implementation).
    pub fn negamax(&self, node: u32) -> Value {
        let n = &self.nodes[node as usize];
        if n.children.is_empty() {
            return n.value;
        }
        n.children
            .iter()
            .map(|&c| -self.negamax(c))
            .max()
            .expect("interior node has children")
    }
}

/// A position inside an [`ArenaTree`].
#[derive(Clone, Debug)]
pub struct ArenaPos {
    tree: Arc<ArenaTree>,
    node: u32,
}

impl ArenaPos {
    /// The arena index of this node.
    pub fn index(&self) -> u32 {
        self.node
    }

    /// Exact negamax value below this node.
    pub fn negamax(&self) -> Value {
        self.tree.negamax(self.node)
    }
}

impl PartialEq for ArenaPos {
    fn eq(&self, other: &ArenaPos) -> bool {
        Arc::ptr_eq(&self.tree, &other.tree) && self.node == other.node
    }
}

impl GamePosition for ArenaPos {
    type Move = u32;

    fn moves_into(&self, out: &mut Vec<u32>) {
        let degree = self.degree();
        out.reserve_exact(degree);
        out.extend(0..degree as u32);
    }

    fn play(&self, mv: &u32) -> ArenaPos {
        ArenaPos {
            tree: Arc::clone(&self.tree),
            node: self.tree.nodes[self.node as usize].children[*mv as usize],
        }
    }

    fn evaluate(&self) -> Value {
        self.tree.nodes[self.node as usize].value
    }

    fn degree(&self) -> usize {
        self.tree.nodes[self.node as usize].children.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two-level tree from the paper's Figure 2(a): A's first child has
    /// value −7 (so A ≥ 7) and B's first child has value 5.
    fn figure2a() -> TreeSpec {
        node(vec![leaf(-7), node(vec![leaf(5), leaf(-9)])])
    }

    #[test]
    fn build_and_negamax() {
        let root = ArenaTree::root_of(&figure2a());
        // A = max(7, -B); B = max(-5, 9) = 9 => A = max(7, -9) = 7.
        assert_eq!(root.negamax(), Value::new(7));
    }

    #[test]
    fn from_position_round_trips() {
        let spec = node(vec![
            node(vec![leaf(3), leaf(-2)]),
            node(vec![leaf(10), leaf(0), leaf(-1)]),
        ]);
        let orig = ArenaTree::root_of(&spec);
        let copy = Arc::new(ArenaTree::from_position(&orig, 2)).root();
        assert_eq!(orig.negamax(), copy.negamax());
        assert_eq!(orig.degree(), copy.degree());
    }

    #[test]
    fn from_position_truncates_at_depth() {
        let spec = node(vec![node(vec![leaf(3)]), node(vec![leaf(4)])]);
        let orig = ArenaTree::root_of(&spec);
        let shallow = ArenaTree::from_position(&orig, 1);
        // Root plus its two children only.
        assert_eq!(shallow.len(), 3);
    }

    #[test]
    fn moves_and_play_traverse_children() {
        let root = ArenaTree::root_of(&figure2a());
        assert_eq!(root.moves(), vec![0, 1]);
        let b = root.play(&1);
        assert_eq!(b.moves(), vec![0, 1]);
        assert_eq!(b.play(&0).evaluate(), Value::new(5));
        assert!(b.play(&0).moves().is_empty());
    }

    #[test]
    fn static_values_are_recorded() {
        let root = ArenaTree::root_of(&node_sv(42, vec![leaf(1)]));
        assert_eq!(root.evaluate(), Value::new(42));
    }

    #[test]
    fn single_leaf_tree() {
        let root = ArenaTree::root_of(&leaf(13));
        assert!(root.moves().is_empty());
        assert_eq!(root.negamax(), Value::new(13));
    }
}
