//! Child-ordering policies and dynamic move-ordering state.
//!
//! Alpha-beta's performance "depends critically on the order in which
//! children of a node are expanded" (paper §2.2). The paper's Othello
//! experiments sort children by static value, but "sorting was not
//! performed below ply five \[and\] successors of e-nodes were also not
//! sorted" (§7). Sorting is charged its true cost: one static-evaluator
//! call per child plus the sort itself.
//!
//! On top of the static policy this module keeps *dynamic* ordering state
//! learned from the search itself — [`OrderingTables`]: per-ply killer-move
//! slots and a history table, both indexed by natural move indices (the
//! same stable identity transposition-table hints use). Searches consult it
//! through the zero-cost [`OrdAccess`] handle (`()` = off, compiled away;
//! `&OrderingTables` = on, shared across threads via relaxed atomics the
//! way workers already share the TT). Dynamic knowledge ranks exactly the
//! plies the static policy leaves unsorted — a paid-for static sort always
//! wins — making the final child order TT-hint → killers → history at
//! unsorted plies and TT-hint → static evals at sorted ones.

use std::sync::atomic::{AtomicU16, AtomicU32, Ordering as AtomicOrdering};

use gametree::{GamePosition, SearchStats, Value};

/// When to sort a node's children by static value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OrderPolicy {
    /// Sort children of nodes at ply `< sort_ply_limit` (the root is ply 0).
    /// Zero disables sorting entirely (the paper's random-tree setting).
    pub sort_ply_limit: u32,
}

impl OrderPolicy {
    /// No sorting anywhere — the paper's configuration for random trees.
    pub const NATURAL: OrderPolicy = OrderPolicy { sort_ply_limit: 0 };

    /// The paper's Othello configuration: sort above ply five.
    pub const OTHELLO: OrderPolicy = OrderPolicy { sort_ply_limit: 5 };

    /// Sort at every ply.
    pub const ALWAYS: OrderPolicy = OrderPolicy {
        sort_ply_limit: u32::MAX,
    };

    /// True iff children of a node at `ply` should be sorted.
    #[inline]
    pub fn sorts_at(&self, ply: u32) -> bool {
        ply < self.sort_ply_limit
    }
}

/// Search selectivity at the depth horizon.
///
/// When `q_extend > 0`, a node that reaches depth 0 *tactically unstable*
/// ([`GamePosition::unstable`]) is searched one more ply instead of being
/// statically evaluated, up to `q_extend` extra plies per root-to-leaf
/// path. The default ([`SelectivityConfig::OFF`]) makes the check compile
/// to the pre-extension leaf code, keeping default-off runs bit-identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SelectivityConfig {
    /// Maximum extra plies one root-to-leaf path may gain from quiescence
    /// extensions (0 disables the rule; the paper-faithful setting).
    pub q_extend: u32,
}

impl SelectivityConfig {
    /// No extensions — every horizon leaf trusts the static evaluator.
    pub const OFF: SelectivityConfig = SelectivityConfig { q_extend: 0 };

    /// Extend tactically unstable horizon leaves up to two extra plies.
    pub const QUIESCENT: SelectivityConfig = SelectivityConfig { q_extend: 2 };

    /// True iff the extension rule is active at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.q_extend > 0
    }
}

/// Plies of killer slots kept; cutoffs deeper than this are not recorded
/// (search depths in this repo are far below it).
pub const KILLER_PLIES: usize = 64;

/// Natural-move indices tracked by the history table; moves with a larger
/// natural index (none of this repo's games produce them in practice)
/// neither record nor receive history.
pub const HISTORY_SLOTS: usize = 64;

/// Saturation ceiling of one history counter.
const HISTORY_CAP: u32 = 1 << 20;

/// Dynamic move-ordering state: two killer slots per ply and one
/// saturating history counter per natural move index.
///
/// All cells are relaxed atomics, so a single `&OrderingTables` is shared
/// by every worker of a threaded search — refutation knowledge propagates
/// between workers the way the transposition table already does. Updates
/// are racy-but-benign: a lost killer insertion or history increment only
/// costs ordering quality, never correctness (any child permutation leaves
/// the negamax value unchanged).
#[derive(Debug)]
pub struct OrderingTables {
    /// Killer slots per ply, storing `nat + 1` (0 = empty). Slot 0 is the
    /// most recent killer, slot 1 the one it displaced.
    killers: [[AtomicU16; 2]; KILLER_PLIES],
    /// History counters per natural move index.
    history: [AtomicU32; HISTORY_SLOTS],
}

impl Default for OrderingTables {
    fn default() -> OrderingTables {
        OrderingTables::new()
    }
}

impl OrderingTables {
    /// Empty tables.
    pub fn new() -> OrderingTables {
        OrderingTables {
            killers: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU16::new(0))),
            history: std::array::from_fn(|_| AtomicU32::new(0)),
        }
    }

    /// Records a beta cutoff by the move with natural index `nat` at `ply`:
    /// the move becomes the ply's first killer (displacing the previous one
    /// into the second slot) and its history counter gains `depth² + 1`
    /// (deep refutations are worth more), saturating at a fixed ceiling.
    pub fn record_cutoff(&self, ply: u32, nat: u16, depth: u32) {
        if let Some(slots) = self.killers.get(ply as usize) {
            let enc = nat + 1;
            let s0 = slots[0].load(AtomicOrdering::Relaxed);
            if s0 != enc {
                slots[1].store(s0, AtomicOrdering::Relaxed);
                slots[0].store(enc, AtomicOrdering::Relaxed);
            }
        }
        if let Some(h) = self.history.get(nat as usize) {
            let inc = depth.saturating_mul(depth).saturating_add(1).min(1024);
            if h.fetch_add(inc, AtomicOrdering::Relaxed) >= HISTORY_CAP {
                h.store(HISTORY_CAP, AtomicOrdering::Relaxed);
            }
        }
    }

    /// Killer rank of `nat` at `ply`: 0 (first slot), 1 (second slot) or
    /// 2 (not a killer).
    pub fn killer_rank(&self, ply: u32, nat: u16) -> u8 {
        match self.killers.get(ply as usize) {
            Some(slots) => {
                let enc = nat + 1;
                if slots[0].load(AtomicOrdering::Relaxed) == enc {
                    0
                } else if slots[1].load(AtomicOrdering::Relaxed) == enc {
                    1
                } else {
                    2
                }
            }
            None => 2,
        }
    }

    /// Current history score of `nat`.
    pub fn history(&self, nat: u16) -> u32 {
        self.history
            .get(nat as usize)
            .map_or(0, |h| h.load(AtomicOrdering::Relaxed))
    }

    /// Ages the tables on an iterative-deepening depth bump: history
    /// counters halve (old refutations decay, recent ones keep steering),
    /// killers persist (a ply's killer usually survives a deepening step).
    pub fn age(&self) {
        for h in &self.history {
            let v = h.load(AtomicOrdering::Relaxed);
            h.store(v / 2, AtomicOrdering::Relaxed);
        }
    }

    /// Ages the tables for a *new root position* — the per-move policy of
    /// a game loop, deliberately harsher than the per-depth [`Self::age`]:
    /// killer slots are cleared outright (a killer refutes a sibling of
    /// the *old* root; at the new root every ply's position population is
    /// different, so yesterday's killers are noise, not signal) and
    /// history drops to an eighth (move-index statistics transfer across
    /// adjacent roots, but weakly — keep a whisper, forget the shouting).
    pub fn age_for_new_root(&self) {
        for slots in &self.killers {
            slots[0].store(0, AtomicOrdering::Relaxed);
            slots[1].store(0, AtomicOrdering::Relaxed);
        }
        for h in &self.history {
            let v = h.load(AtomicOrdering::Relaxed);
            h.store(v / 8, AtomicOrdering::Relaxed);
        }
    }
}

/// Zero-cost handle to optional [`OrderingTables`], mirroring the TT and
/// control handles: `()` means ordering state is off and every consultation
/// compiles away (default-off searches stay bit-identical to the
/// pre-ordering code); `&OrderingTables` consults and updates shared state.
pub trait OrdAccess: Copy {
    /// Statically known on/off switch — branches guarded by it vanish for
    /// the `()` instantiation.
    const ENABLED: bool;

    /// See [`OrderingTables::record_cutoff`].
    fn record_cutoff(self, ply: u32, nat: u16, depth: u32);

    /// See [`OrderingTables::killer_rank`].
    fn killer_rank(self, ply: u32, nat: u16) -> u8;

    /// See [`OrderingTables::history`].
    fn history(self, nat: u16) -> u32;
}

impl OrdAccess for () {
    const ENABLED: bool = false;

    #[inline]
    fn record_cutoff(self, _ply: u32, _nat: u16, _depth: u32) {}

    #[inline]
    fn killer_rank(self, _ply: u32, _nat: u16) -> u8 {
        2
    }

    #[inline]
    fn history(self, _nat: u16) -> u32 {
        0
    }
}

impl OrdAccess for &OrderingTables {
    const ENABLED: bool = true;

    #[inline]
    fn record_cutoff(self, ply: u32, nat: u16, depth: u32) {
        OrderingTables::record_cutoff(self, ply, nat, depth);
    }

    #[inline]
    fn killer_rank(self, ply: u32, nat: u16) -> u8 {
        OrderingTables::killer_rank(self, ply, nat)
    }

    #[inline]
    fn history(self, nat: u16) -> u32 {
        OrderingTables::history(self, nat)
    }
}

/// Re-sorts a child list by dynamic ordering knowledge — killers first
/// (slot order), then descending history — but **only at plies the static
/// policy left unsorted**. A statically sorted list (the children carry
/// cached evals) is returned untouched: the evaluator's position-specific
/// ranking is strictly stronger information than cross-position move-index
/// statistics, and overriding it measurably *adds* nodes on the Othello
/// workloads. The sort is stable, so children the tables know nothing
/// about keep their natural order — with empty tables this is the identity
/// permutation. Each child's key is read exactly once before sorting:
/// other workers update shared tables concurrently, and a comparison sort
/// re-reading changing keys would see no consistent total order. A no-op
/// (not even a branch) for the `()` handle.
///
/// Callers splice the TT hint *after* ranking, giving the tentpole order
/// TT-hint → killers → history at unsorted plies, and
/// TT-hint → static evals at sorted ones.
pub fn rank_children<P, O: OrdAccess>(kids: &mut [OrderedChild<P>], ply: u32, ord: O) {
    if !O::ENABLED || kids.len() < 2 || kids[0].static_eval.is_some() {
        return;
    }
    kids.sort_by_cached_key(|k| rank_key(ord, ply, k.nat));
}

/// The dynamic-ordering sort key of one child: killer rank first (0, 1, or
/// 2 for non-killers), then descending history — ascending key order puts
/// killers and history-hot moves first while equal keys (with a stable
/// sort) preserve the natural order. Shared by [`rank_children`] and the
/// ER expansion, which sorts its own node type. Only meaningful for
/// unsorted child lists; see [`rank_children`].
#[inline]
pub fn rank_key<O: OrdAccess>(ord: O, ply: u32, nat: u16) -> (u8, i64) {
    (ord.killer_rank(ply, nat), -i64::from(ord.history(nat)))
}

/// Records a beta cutoff into the ordering tables and charges the
/// killer/history hit counters: a cutoff by a current killer is a
/// `killer_hits`, by a history-ranked non-killer a `history_hits`.
/// Compiles to nothing for the `()` handle.
#[inline]
pub fn note_cutoff<O: OrdAccess>(ord: O, ply: u32, depth: u32, nat: u16, stats: &mut SearchStats) {
    if !O::ENABLED {
        return;
    }
    if ord.killer_rank(ply, nat) < 2 {
        stats.killer_hits += 1;
    } else if ord.history(nat) > 0 {
        stats.history_hits += 1;
    }
    ord.record_cutoff(ply, nat, depth);
}

/// Generates `pos`'s children in search order under `policy`, charging
/// sorting costs to `stats`.
///
/// Sorted order is ascending by the child's static value (from the child's
/// point of view): the parent prefers the child with the *lowest* value, so
/// the likely-best child comes first.
pub fn ordered_children<P: GamePosition>(
    pos: &P,
    ply: u32,
    policy: OrderPolicy,
    stats: &mut SearchStats,
) -> Vec<P> {
    ordered_children_with_evals(pos, ply, policy, stats).0
}

/// [`ordered_children`], additionally returning the static values computed
/// for sorting (aligned index-for-index with the children), or `None` when
/// the policy did not sort. Callers that will later evaluate the same
/// positions — a leaf expansion after a sorting probe — can reuse the
/// values instead of re-invoking the evaluator.
pub fn ordered_children_with_evals<P: GamePosition>(
    pos: &P,
    ply: u32,
    policy: OrderPolicy,
    stats: &mut SearchStats,
) -> (Vec<P>, Option<Vec<Value>>) {
    let kids = ordered_children_indexed(pos, ply, policy, stats);
    let sorted = kids.iter().all(|k| k.static_eval.is_some()) && kids.len() > 1;
    let evals = sorted.then(|| kids.iter().map(|k| k.static_eval.unwrap()).collect());
    (kids.into_iter().map(|k| k.pos).collect(), evals)
}

/// A child position in search order, remembering where it sat in the
/// position's *natural* move order. The natural index is the stable
/// identity a transposition-table move hint refers to: it does not depend
/// on whether (or how) this visit sorted.
#[derive(Clone, Debug)]
pub struct OrderedChild<P> {
    /// Index of this child in `pos.children()` order.
    pub nat: u16,
    /// The child position.
    pub pos: P,
    /// Static value computed for sorting, if the policy sorted here.
    pub static_eval: Option<Value>,
}

/// The single ordering pass every search shares: generates `pos`'s
/// children, sorts them (per `policy`) by static value exactly once, and
/// tags each child with its natural move index so a stored best-move hint
/// can later be spliced to the front ([`splice_hint`]) without re-sorting.
pub fn ordered_children_indexed<P: GamePosition>(
    pos: &P,
    ply: u32,
    policy: OrderPolicy,
    stats: &mut SearchStats,
) -> Vec<OrderedChild<P>> {
    ordered_children_ranked(pos, ply, policy, (), stats)
}

/// [`ordered_children_indexed`] additionally consulting dynamic ordering
/// state through `ord` ([`rank_children`] after the static sort). With the
/// `()` handle this *is* `ordered_children_indexed` — the ranking pass
/// compiles away.
pub fn ordered_children_ranked<P: GamePosition, O: OrdAccess>(
    pos: &P,
    ply: u32,
    policy: OrderPolicy,
    ord: O,
    stats: &mut SearchStats,
) -> Vec<OrderedChild<P>> {
    ordered_from_moves(pos, &pos.moves(), ply, policy, ord, stats)
}

/// [`ordered_children_ranked`] over a move list the caller already
/// generated (`moves` must be `pos.moves()`): plays each move once, then
/// sorts and ranks the children.
fn ordered_from_moves<P: GamePosition, O: OrdAccess>(
    pos: &P,
    moves: &[P::Move],
    ply: u32,
    policy: OrderPolicy,
    ord: O,
    stats: &mut SearchStats,
) -> Vec<OrderedChild<P>> {
    let mut kids: Vec<OrderedChild<P>> = moves
        .iter()
        .enumerate()
        .map(|(i, m)| OrderedChild {
            nat: i as u16,
            pos: pos.play(m),
            static_eval: None,
        })
        .collect();
    if policy.sorts_at(ply) && kids.len() > 1 {
        // Evaluate each child exactly once, then sort on the cached keys;
        // the (value, natural index) compound key makes the unstable sort
        // FIFO-stable for equal values.
        for k in &mut kids {
            stats.eval_calls += 1;
            k.static_eval = Some(k.pos.evaluate());
        }
        stats.sorts += 1;
        kids.sort_unstable_by_key(|k| (k.static_eval.unwrap(), k.nat));
    }
    rank_children(&mut kids, ply, ord);
    kids
}

/// A node's children in search order, as `(nat, child)` pairs.
///
/// A node that has nothing to reorder them by — its policy does not sort
/// here (or it has one move), no table hint and no ordering tables — keeps
/// the natural order and plays each move only when it is reached, so a
/// cutoff never pays for the siblings after it. Any other node gets the
/// ordered list of [`ordered_children_ranked`], with the hint spliced to
/// the front. The lazy order is the one that list would have had.
pub(crate) enum Children<P> {
    /// Natural order, each move played on demand: the natural index of
    /// the next move.
    Lazy(usize),
    /// Children built, sorted and ranked up front.
    Listed(std::vec::IntoIter<OrderedChild<P>>),
}

impl<P: GamePosition> Children<P> {
    /// Orders `pos`'s children from `moves`, its natural move list, under
    /// `policy` and `ord`, with `hint` first. Returns true beside the
    /// source iff the hint matched a child.
    pub(crate) fn new<O: OrdAccess>(
        pos: &P,
        moves: &[P::Move],
        ply: u32,
        policy: OrderPolicy,
        ord: O,
        hint: Option<u16>,
        stats: &mut SearchStats,
    ) -> (Children<P>, bool) {
        let sorts = policy.sorts_at(ply) && moves.len() > 1;
        if !sorts && hint.is_none() && !O::ENABLED {
            return (Children::Lazy(0), false);
        }
        let mut kids = ordered_from_moves(pos, moves, ply, policy, ord, stats);
        let hinted = splice_hint(&mut kids, hint);
        (Children::Listed(kids.into_iter()), hinted)
    }

    /// The next child of `pos`, whose natural move list `moves` is the one
    /// [`Children::new`] was given.
    #[inline]
    pub(crate) fn next(&mut self, pos: &P, moves: &[P::Move]) -> Option<(u16, P)> {
        match self {
            Children::Lazy(next) => {
                let nat = *next;
                let child = pos.play(moves.get(nat)?);
                *next += 1;
                Some((nat as u16, child))
            }
            Children::Listed(kids) => kids.next().map(|k| (k.nat, k.pos)),
        }
    }
}

/// Moves the child with natural index `hint` (if any) to the front,
/// shifting the children before it back one slot — a rotate, never a
/// second sort. Returns true iff the hint matched a child.
///
/// If the hinted natural index appears more than once — a caller merged
/// hint sources (say a killer copy already spliced to the front tying with
/// an equal-eval sibling) — the duplicates are removed so the hint move is
/// visited exactly once.
pub fn splice_hint<P>(kids: &mut Vec<OrderedChild<P>>, hint: Option<u16>) -> bool {
    let Some(h) = hint else { return false };
    match kids.iter().position(|k| k.nat == h) {
        Some(i) => {
            kids[..=i].rotate_right(1);
            // Dedup: drop any later copy of the hinted move (none exists
            // when the list came from one ordering pass, so this scan is
            // the only cost on the common path).
            kids.truncate_duplicates_of(h);
            true
        }
        None => false,
    }
}

/// Helper trait hanging the hint dedup off `Vec<OrderedChild<P>>` so
/// [`splice_hint`] reads linearly.
trait DedupHint {
    fn truncate_duplicates_of(&mut self, nat: u16);
}

impl<P> DedupHint for Vec<OrderedChild<P>> {
    fn truncate_duplicates_of(&mut self, nat: u16) {
        let mut seen = false;
        self.retain(|k| {
            if k.nat == nat {
                if seen {
                    return false;
                }
                seen = true;
            }
            true
        });
    }
}

/// Test-only ordering handles.
#[cfg(test)]
pub(crate) mod test_support {
    use std::cell::Cell;

    use super::OrdAccess;

    /// Ordering state that changes on every read — a stand-in for other
    /// workers updating shared tables while a sort runs. Counts reads.
    #[derive(Default)]
    pub(crate) struct Churn {
        pub(crate) reads: Cell<u64>,
    }

    impl OrdAccess for &Churn {
        const ENABLED: bool = true;

        fn record_cutoff(self, _ply: u32, _nat: u16, _depth: u32) {}

        fn killer_rank(self, _ply: u32, _nat: u16) -> u8 {
            2
        }

        fn history(self, nat: u16) -> u32 {
            let n = self.reads.get() + 1;
            self.reads.set(n);
            (gametree::random::splitmix64(n ^ u64::from(nat)) >> 40) as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::Churn;
    use super::*;
    use gametree::arena::{leaf, node, ArenaTree};

    #[test]
    fn natural_policy_preserves_move_order() {
        let root = ArenaTree::root_of(&node(vec![leaf(5), leaf(-3), leaf(9)]));
        let mut stats = SearchStats::new();
        let kids = ordered_children(&root, 0, OrderPolicy::NATURAL, &mut stats);
        let vals: Vec<i32> = kids.iter().map(|k| k.evaluate().get()).collect();
        assert_eq!(vals, vec![5, -3, 9]);
        assert_eq!(stats.eval_calls, 0);
        assert_eq!(stats.sorts, 0);
    }

    #[test]
    fn sorting_is_ascending_by_static_value() {
        let root = ArenaTree::root_of(&node(vec![leaf(5), leaf(-3), leaf(9)]));
        let mut stats = SearchStats::new();
        let kids = ordered_children(&root, 0, OrderPolicy::ALWAYS, &mut stats);
        let vals: Vec<i32> = kids.iter().map(|k| k.evaluate().get()).collect();
        assert_eq!(vals, vec![-3, 5, 9]);
        assert_eq!(stats.eval_calls, 3);
        assert_eq!(stats.sorts, 1);
    }

    #[test]
    fn ply_limit_gates_sorting() {
        let p = OrderPolicy { sort_ply_limit: 5 };
        assert!(p.sorts_at(0));
        assert!(p.sorts_at(4));
        assert!(!p.sorts_at(5));
        assert!(!p.sorts_at(9));
    }

    #[test]
    fn sort_is_stable_for_equal_keys() {
        let root = ArenaTree::root_of(&node(vec![leaf(1), leaf(1), leaf(0)]));
        let mut stats = SearchStats::new();
        let kids = ordered_children(&root, 0, OrderPolicy::ALWAYS, &mut stats);
        // The zero comes first; the two equal leaves keep natural order.
        assert_eq!(kids[0].evaluate().get(), 0);
        assert_eq!(kids[1].index(), 1);
        assert_eq!(kids[2].index(), 2);
    }

    #[test]
    fn with_evals_returns_aligned_cached_values() {
        let root = ArenaTree::root_of(&node(vec![leaf(5), leaf(-3), leaf(9)]));
        let mut stats = SearchStats::new();
        let (kids, evals) = ordered_children_with_evals(&root, 0, OrderPolicy::ALWAYS, &mut stats);
        let evals = evals.expect("sorting policy caches evals");
        assert_eq!(kids.len(), evals.len());
        for (k, v) in kids.iter().zip(&evals) {
            assert_eq!(k.evaluate(), *v, "cached eval must match the child");
        }
        // Without sorting there is nothing to cache.
        let (_, none) = ordered_children_with_evals(&root, 0, OrderPolicy::NATURAL, &mut stats);
        assert!(none.is_none());
    }

    #[test]
    fn indexed_children_remember_natural_positions() {
        let root = ArenaTree::root_of(&node(vec![leaf(5), leaf(-3), leaf(9)]));
        let mut stats = SearchStats::new();
        let kids = ordered_children_indexed(&root, 0, OrderPolicy::ALWAYS, &mut stats);
        // Sorted order -3, 5, 9 came from natural slots 1, 0, 2.
        let nats: Vec<u16> = kids.iter().map(|k| k.nat).collect();
        assert_eq!(nats, vec![1, 0, 2]);
    }

    #[test]
    fn splice_hint_rotates_without_disturbing_relative_order() {
        let root = ArenaTree::root_of(&node(vec![leaf(5), leaf(-3), leaf(9)]));
        let mut stats = SearchStats::new();
        let mut kids = ordered_children_indexed(&root, 0, OrderPolicy::ALWAYS, &mut stats);
        assert!(splice_hint(&mut kids, Some(2)));
        let nats: Vec<u16> = kids.iter().map(|k| k.nat).collect();
        // Hinted child 2 moves to the front; the others keep sorted order.
        assert_eq!(nats, vec![2, 1, 0]);
        // A hint that matches no child (or no hint at all) is a no-op.
        assert!(!splice_hint(&mut kids, Some(7)));
        assert!(!splice_hint(&mut kids, None));
        let nats: Vec<u16> = kids.iter().map(|k| k.nat).collect();
        assert_eq!(nats, vec![2, 1, 0]);
    }

    #[test]
    fn single_child_is_not_charged_a_sort() {
        let root = ArenaTree::root_of(&node(vec![leaf(1)]));
        let mut stats = SearchStats::new();
        ordered_children(&root, 0, OrderPolicy::ALWAYS, &mut stats);
        assert_eq!(stats.sorts, 0);
        assert_eq!(stats.eval_calls, 0);
    }

    #[test]
    fn splice_hint_deduplicates_a_double_spliced_hint() {
        // A caller that merged hint sources can present the hinted move
        // twice — e.g. a killer copy already moved to the front tying with
        // an equal-eval sibling. After splicing, the hint move must appear
        // exactly once (no double visit).
        let root = ArenaTree::root_of(&node(vec![leaf(5), leaf(5), leaf(9)]));
        let mut stats = SearchStats::new();
        let mut kids = ordered_children_indexed(&root, 0, OrderPolicy::ALWAYS, &mut stats);
        // Manufacture the duplicate: a front copy of natural move 1, which
        // ties (eval 5) with its equal-eval sibling natural move 0.
        kids.insert(0, kids[1].clone());
        let nats: Vec<u16> = kids.iter().map(|k| k.nat).collect();
        assert_eq!(nats, vec![1, 0, 1, 2]);
        assert!(splice_hint(&mut kids, Some(1)));
        let nats: Vec<u16> = kids.iter().map(|k| k.nat).collect();
        assert_eq!(nats, vec![1, 0, 2], "hint visited once, order preserved");
    }

    #[test]
    fn killer_recording_fills_two_slots_most_recent_first() {
        let t = OrderingTables::new();
        assert_eq!(t.killer_rank(3, 4), 2);
        t.record_cutoff(3, 4, 2);
        assert_eq!(t.killer_rank(3, 4), 0);
        t.record_cutoff(3, 7, 2);
        assert_eq!(t.killer_rank(3, 7), 0, "newest killer takes slot 0");
        assert_eq!(t.killer_rank(3, 4), 1, "displaced killer keeps slot 1");
        assert_eq!(t.killer_rank(2, 7), 2, "killers are per-ply");
        // Re-recording the current killer does not displace slot 1.
        t.record_cutoff(3, 7, 2);
        assert_eq!(t.killer_rank(3, 4), 1);
    }

    #[test]
    fn history_accumulates_by_depth_squared_and_ages_by_halving() {
        let t = OrderingTables::new();
        assert_eq!(t.history(5), 0);
        t.record_cutoff(0, 5, 3); // 3² + 1 = 10
        t.record_cutoff(9, 5, 1); // 1² + 1 = 2, any ply, same counter
        assert_eq!(t.history(5), 12);
        t.age();
        assert_eq!(t.history(5), 6);
        assert_eq!(t.killer_rank(0, 5), 0, "aging keeps killers");
    }

    #[test]
    fn age_for_new_root_clears_killers_and_decays_history_hard() {
        let t = OrderingTables::new();
        t.record_cutoff(3, 4, 2);
        t.record_cutoff(3, 7, 2);
        t.record_cutoff(0, 5, 3); // history 10
        t.record_cutoff(9, 5, 1); // history 12
        t.age_for_new_root();
        assert_eq!(t.killer_rank(3, 7), 2, "killers cleared for a new root");
        assert_eq!(t.killer_rank(3, 4), 2);
        assert_eq!(t.history(5), 12 / 8, "history decays by 8×");
        // Idempotent on empty state.
        let fresh = OrderingTables::new();
        fresh.age_for_new_root();
        assert_eq!(fresh.history(0), 0);
        assert_eq!(fresh.killer_rank(0, 0), 2);
    }

    #[test]
    fn out_of_range_indices_are_ignored() {
        let t = OrderingTables::new();
        t.record_cutoff(KILLER_PLIES as u32 + 1, HISTORY_SLOTS as u16 + 1, 3);
        assert_eq!(
            t.killer_rank(KILLER_PLIES as u32 + 1, HISTORY_SLOTS as u16 + 1),
            2
        );
        assert_eq!(t.history(HISTORY_SLOTS as u16 + 1), 0);
    }

    #[test]
    fn rank_children_puts_killers_first_then_history() {
        let root = ArenaTree::root_of(&node(vec![leaf(5), leaf(-3), leaf(9), leaf(0)]));
        let t = OrderingTables::new();
        t.record_cutoff(0, 2, 3); // natural move 2 is the ply-0 killer
        t.record_cutoff(1, 3, 5); // natural move 3 has history (wrong ply for killer)
        t.record_cutoff(1, 3, 5);
        let mut stats = SearchStats::new();
        let mut kids = ordered_children_ranked(&root, 0, OrderPolicy::NATURAL, &t, &mut stats);
        let nats: Vec<u16> = kids.iter().map(|k| k.nat).collect();
        // Killer 2 first; 3 boosted by history ahead of the unknowns, which
        // keep natural order.
        assert_eq!(nats, vec![2, 3, 0, 1]);
        // Splicing a TT hint afterwards puts it ahead of the killer.
        assert!(splice_hint(&mut kids, Some(1)));
        let nats: Vec<u16> = kids.iter().map(|k| k.nat).collect();
        assert_eq!(nats, vec![1, 2, 3, 0], "TT-hint → killer → history");
    }

    #[test]
    fn empty_tables_rank_is_identity() {
        let root = ArenaTree::root_of(&node(vec![leaf(5), leaf(-3), leaf(9)]));
        let t = OrderingTables::new();
        let mut stats_on = SearchStats::new();
        let on = ordered_children_ranked(&root, 0, OrderPolicy::ALWAYS, &t, &mut stats_on);
        let mut stats_off = SearchStats::new();
        let off = ordered_children_indexed(&root, 0, OrderPolicy::ALWAYS, &mut stats_off);
        let on_nats: Vec<u16> = on.iter().map(|k| k.nat).collect();
        let off_nats: Vec<u16> = off.iter().map(|k| k.nat).collect();
        assert_eq!(on_nats, off_nats);
        assert_eq!(stats_on, stats_off);
    }

    #[test]
    fn note_cutoff_classifies_killer_and_history_hits() {
        let t = OrderingTables::new();
        let mut stats = SearchStats::new();
        // First cutoff: tables empty, neither killer nor history hit.
        note_cutoff(&t, 2, 3, 6, &mut stats);
        assert_eq!((stats.killer_hits, stats.history_hits), (0, 0));
        // Same move again at the same ply: killer hit.
        note_cutoff(&t, 2, 3, 6, &mut stats);
        assert_eq!((stats.killer_hits, stats.history_hits), (1, 0));
        // Same move at another ply: not a killer there, but history knows it.
        note_cutoff(&t, 5, 3, 6, &mut stats);
        assert_eq!((stats.killer_hits, stats.history_hits), (1, 1));
        // The disabled handle records and classifies nothing.
        note_cutoff((), 2, 3, 6, &mut stats);
        assert_eq!((stats.killer_hits, stats.history_hits), (1, 1));
    }

    #[test]
    fn selectivity_off_is_disabled() {
        assert!(!SelectivityConfig::OFF.enabled());
        assert!(SelectivityConfig::QUIESCENT.enabled());
        assert_eq!(SelectivityConfig::QUIESCENT.q_extend, 2);
    }

    #[test]
    fn rank_children_reads_each_key_once_under_churning_tables() {
        // Regression: a comparison sort over keys that change between
        // reads read 48 keys for 12 children and, at 40 children, panicked
        // with "user-provided comparison function does not correctly
        // implement a total order".
        let mut stats = SearchStats::new();
        for n in [12usize, 40] {
            let root = ArenaTree::root_of(&node((0..n as i32).map(leaf).collect()));
            let churn = Churn::default();
            for round in 0..2000u64 {
                let before = churn.reads.get();
                let mut kids = ordered_children_indexed(&root, 0, OrderPolicy::NATURAL, &mut stats);
                rank_children(&mut kids, 0, &churn);
                assert_eq!(churn.reads.get() - before, n as u64, "round {round}");
                let mut nats: Vec<u16> = kids.iter().map(|k| k.nat).collect();
                nats.sort_unstable();
                assert!(nats.iter().copied().eq(0..n as u16), "a permutation");
            }
        }
    }
}
