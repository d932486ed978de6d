//! The [`TtAccess`] handle trait: how searches talk to an *optional*
//! transposition table without paying for one when it is absent.
//!
//! Search cores take a `T: TtAccess<P>` parameter. Instantiated with `()`
//! every call is a no-op the optimizer deletes — the TT-off paths compile
//! to exactly the pre-TT code, which is what keeps the deterministic
//! simulator and the seed benchmarks byte-for-byte unchanged. Instantiated
//! with `&TranspositionTable` (which requires `P: Zobrist`), probes and
//! stores hit the shared lock-free table.

use gametree::Value;

use crate::table::{Bound, Probe, TranspositionTable, TtStats};
use crate::zobrist::Zobrist;

/// A (possibly absent) transposition-table handle for positions of type
/// `P`. `Copy` so it threads through recursive searches for free.
pub trait TtAccess<P>: Copy {
    /// Statically known: a table is attached. False only for `()`, whose
    /// operations are all no-ops, so a wrapper that observes table traffic
    /// can tell there is none.
    const ENABLED: bool = true;

    /// Looks up `pos`, if a table is attached.
    fn probe(self, pos: &P) -> Option<Probe>;

    /// Records a search result for `pos`, if a table is attached.
    fn store(self, pos: &P, depth: u32, value: Value, bound: Bound, hint: Option<u16>);

    /// Counts one stored best-move hint actually applied to child ordering.
    fn note_hint_used(self);

    /// The attached table's lifetime counters; `None` without a table.
    fn stats(self) -> Option<TtStats> {
        None
    }

    /// Starts a new search generation on the attached table (see
    /// [`TranspositionTable::new_search`]); a no-op without a table.
    fn new_search(self) {}
}

/// The "no table" implementation: every operation is a no-op.
impl<P> TtAccess<P> for () {
    const ENABLED: bool = false;

    #[inline(always)]
    fn probe(self, _pos: &P) -> Option<Probe> {
        None
    }

    #[inline(always)]
    fn store(self, _pos: &P, _depth: u32, _value: Value, _bound: Bound, _hint: Option<u16>) {}

    #[inline(always)]
    fn note_hint_used(self) {}
}

impl<P: Zobrist> TtAccess<P> for &TranspositionTable {
    #[inline]
    fn probe(self, pos: &P) -> Option<Probe> {
        TranspositionTable::probe(self, pos.zobrist())
    }

    #[inline]
    fn store(self, pos: &P, depth: u32, value: Value, bound: Bound, hint: Option<u16>) {
        TranspositionTable::store(self, pos.zobrist(), depth, value, bound, hint);
    }

    #[inline]
    fn note_hint_used(self) {
        TranspositionTable::note_hint_used(self);
    }

    fn stats(self) -> Option<TtStats> {
        Some(TranspositionTable::stats(self))
    }

    fn new_search(self) {
        TranspositionTable::new_search(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gametree::random::{RandomPos, RandomTreeSpec};

    #[test]
    fn unit_handle_is_inert() {
        let pos = RandomTreeSpec::new(1, 2, 2).root();
        let tt = ();
        assert!(TtAccess::probe(tt, &pos).is_none());
        TtAccess::store(tt, &pos, 3, Value::ZERO, Bound::Exact, None);
        assert!(TtAccess::probe(tt, &pos).is_none());
    }

    #[test]
    fn table_handle_round_trips_through_zobrist() {
        let pos = RandomTreeSpec::new(1, 2, 2).root();
        let table = TranspositionTable::with_bits(8);
        let tt = &table;
        assert!(TtAccess::probe(tt, &pos).is_none());
        TtAccess::store(tt, &pos, 3, Value::new(5), Bound::Exact, Some(1));
        let p = TtAccess::probe(tt, &pos).expect("stored");
        assert_eq!(p.value, Value::new(5));
        assert_eq!(p.hint, Some(1));
        TtAccess::<RandomPos>::note_hint_used(tt);
        assert_eq!(table.stats().hint_hits, 1);
    }
}
