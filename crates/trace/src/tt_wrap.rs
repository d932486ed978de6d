//! [`Traced`]: a `TtAccess` combinator that records a [`TtProbe`] /
//! [`TtStore`] instant around every table operation of an inner handle.
//!
//! Because every search core is already generic over `T: TtAccess<P>`,
//! wrapping the handle wires TT telemetry through the threaded back-end
//! *and* the traced serial searches with zero signature changes: the wrapper
//! rides into `execute_task` and the serial-frontier searches exactly like
//! the bare handle. With the no-op worker (`()`) the recording calls
//! vanish and the wrapper compiles down to the inner handle.
//!
//! [`TtProbe`]: EventKind::TtProbe
//! [`TtStore`]: EventKind::TtStore

use gametree::Value;
use tt::{Bound, Probe, TtAccess};

use crate::event::EventKind;
use crate::tracer::WorkerTrace;

/// A [`TtAccess`] handle that records table traffic into `W`.
#[derive(Debug)]
pub struct Traced<'a, T, W> {
    inner: T,
    w: &'a W,
}

impl<T: Copy, W> Clone for Traced<'_, T, W> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T: Copy, W> Copy for Traced<'_, T, W> {}

impl<'a, T, W> Traced<'a, T, W> {
    /// Wraps `inner` so its operations are recorded into `w`.
    pub fn new(inner: T, w: &'a W) -> Traced<'a, T, W> {
        Traced { inner, w }
    }
}

impl<P, T: TtAccess<P>, W: WorkerTrace> TtAccess<P> for Traced<'_, T, W> {
    const ENABLED: bool = T::ENABLED;

    /// Records a probe only when a table is attached: wrapping the
    /// table-free `()` records nothing.
    #[inline]
    fn probe(self, pos: &P) -> Option<Probe> {
        let r = self.inner.probe(pos);
        if T::ENABLED {
            self.w.instant(EventKind::TtProbe, r.is_some() as u32);
        }
        r
    }

    #[inline]
    fn store(self, pos: &P, depth: u32, value: Value, bound: Bound, hint: Option<u16>) {
        self.inner.store(pos, depth, value, bound, hint);
        if T::ENABLED {
            self.w.instant(EventKind::TtStore, depth);
        }
    }

    #[inline]
    fn note_hint_used(self) {
        self.inner.note_hint_used();
    }

    fn stats(self) -> Option<tt::TtStats> {
        self.inner.stats()
    }

    fn new_search(self) {
        self.inner.new_search();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{TraceAccess, Tracer};
    use gametree::random::RandomTreeSpec;
    use tt::TranspositionTable;

    #[test]
    fn unit_worker_wrapper_is_inert_passthrough() {
        let pos = RandomTreeSpec::new(1, 2, 2).root();
        let table = TranspositionTable::with_bits(8);
        let w = ();
        let h = Traced::new(&table, &w);
        assert!(h.probe(&pos).is_none());
        h.store(&pos, 3, Value::new(7), Bound::Exact, None);
        let p = h.probe(&pos).expect("stored through the wrapper");
        assert_eq!(p.value, Value::new(7));
    }

    #[test]
    fn a_table_free_handle_records_nothing() {
        let pos = RandomTreeSpec::new(1, 2, 2).root();
        let tracer = Tracer::new();
        let w = (&tracer).worker(0);
        {
            let h = Traced::new((), &w);
            assert!(h.probe(&pos).is_none());
            h.store(&pos, 3, Value::new(7), Bound::Exact, None);
        }
        (&tracer).submit(w);
        let c = tracer.snapshot().counts();
        assert_eq!(c[EventKind::TtProbe as usize], 0);
        assert_eq!(c[EventKind::TtStore as usize], 0);
    }

    #[test]
    fn probes_and_stores_are_recorded() {
        let pos = RandomTreeSpec::new(1, 2, 2).root();
        let table = TranspositionTable::with_bits(8);
        let tracer = Tracer::new();
        let w = (&tracer).worker(0);
        {
            let h = Traced::new(&table, &w);
            assert!(h.probe(&pos).is_none()); // miss
            h.store(&pos, 3, Value::new(7), Bound::Exact, None);
            assert!(h.probe(&pos).is_some()); // hit
        }
        (&tracer).submit(w);
        let data = tracer.snapshot();
        let c = data.counts();
        assert_eq!(c[EventKind::TtProbe as usize], 2);
        assert_eq!(c[EventKind::TtStore as usize], 1);
        let evs = &data.workers[0].1.events;
        assert_eq!(evs[0].arg, 0, "first probe missed");
        assert_eq!(evs[2].arg, 1, "second probe hit");
    }
}
