//! The hook bundle every search entry point takes (DESIGN.md §16).
//!
//! A search can carry four optional handles: a transposition table, a
//! control token, a tracer and shared move-ordering tables. Each is a zero-cost handle whose `()` value means "off": every call
//! through it compiles away, so an all-`()` [`Hooks`] monomorphizes to the
//! bare search. One bundle replaces one public twin per combination of
//! handles — each algorithm has a single hooked entry
//! ([`alphabeta_with`](crate::alphabeta_with),
//! [`er_search_with`](crate::er_search_with), ...).
//!
//! ```
//! use gametree::random::RandomTreeSpec;
//! use gametree::Window;
//! use search_serial::{alphabeta_with, Hooks, OrderPolicy, SearchControl};
//! use tt::TranspositionTable;
//!
//! let root = RandomTreeSpec::new(3, 4, 5).root();
//! let table = TranspositionTable::with_bits(12);
//! let ctl = SearchControl::unlimited();
//! let hooks = Hooks::default().with_tt(&table).with_ctl(&ctl);
//! let r = alphabeta_with(&root, 5, Window::FULL, OrderPolicy::NATURAL, 0, hooks);
//! assert!(r.is_complete());
//! assert!(table.stats().stores > 0);
//! ```

use gametree::{SearchStats, Value};
use trace::{EventKind, TraceAccess, Traced, WorkerTrace, JOB_ARG_SEARCH};
use tt::TtAccess;

use crate::control::{CtlAccess, CtlHook, CtlSearchResult};

/// The optional handles of one search, one field per handle kind. Every
/// field defaults to `()` ("off"); the `with_*` setters each replace one.
///
/// | field     | off  | on                                   |
/// |-----------|------|--------------------------------------|
/// | `tt`      | `()` | `&TranspositionTable`                |
/// | `ctl`     | `()` | `&SearchControl` (or a `&CtlProbe`)  |
/// | `tracer`  | `()` | `&Tracer`                            |
/// | `ord`     | `()` | `&OrderingTables`                    |
///
/// An entry point accepts only the handles its back-end uses: the
/// simulator takes only a table and ordering tables. Attaching another
/// handle is a type error, not a silent no-op. Metric sets are not
/// handles: their owners fold a run's counters in after it returns.
#[derive(Clone, Copy, Debug)]
pub struct Hooks<T = (), C = (), R = (), O = ()> {
    /// Transposition table ([`TtAccess`]).
    pub tt: T,
    /// Abort control ([`CtlHook`]).
    pub ctl: C,
    /// Event tracer ([`TraceAccess`]).
    pub tracer: R,
    /// Shared killer/history tables ([`OrdAccess`](crate::OrdAccess)).
    pub ord: O,
}

/// Every handle off. The impl is for the all-`()` bundle only, so
/// `Hooks::default()` needs no type annotations.
impl Default for Hooks {
    fn default() -> Hooks {
        Hooks {
            tt: (),
            ctl: (),
            tracer: (),
            ord: (),
        }
    }
}

impl<T, C, R, O> Hooks<T, C, R, O> {
    /// Replaces the table handle.
    pub fn with_tt<T2>(self, tt: T2) -> Hooks<T2, C, R, O> {
        Hooks {
            tt,
            ctl: self.ctl,
            tracer: self.tracer,
            ord: self.ord,
        }
    }

    /// Replaces the control handle.
    pub fn with_ctl<C2>(self, ctl: C2) -> Hooks<T, C2, R, O> {
        Hooks {
            tt: self.tt,
            ctl,
            tracer: self.tracer,
            ord: self.ord,
        }
    }

    /// Replaces the tracer handle.
    pub fn with_tracer<R2>(self, tracer: R2) -> Hooks<T, C, R2, O> {
        Hooks {
            tt: self.tt,
            ctl: self.ctl,
            tracer,
            ord: self.ord,
        }
    }

    /// Replaces the ordering-tables handle.
    pub fn with_ord<O2>(self, ord: O2) -> Hooks<T, C, R, O2> {
        Hooks {
            tt: self.tt,
            ctl: self.ctl,
            tracer: self.tracer,
            ord,
        }
    }
}

/// One serial search, generic over the table and control handles the
/// driver ([`run_serial`]) prepares for it.
pub(crate) trait SerialBody<P> {
    /// Runs the search. `Err` carries the partial value of a run the
    /// control aborted.
    fn run<T: TtAccess<P>, C: CtlAccess>(
        self,
        tt: T,
        ctl: C,
        stats: &mut SearchStats,
    ) -> Result<Value, Value>;
}

/// Runs `body` under `hooks`: polls the control through a fresh
/// per-search probe, and with a tracer attached records the table traffic
/// plus one whole-search [`EventKind::JobExecute`] span (argument
/// [`JOB_ARG_SEARCH`]) and an [`EventKind::AbortTrip`] instant when the
/// control tripped, all on worker row 0. With the `()` tracer the table
/// handle is passed through unwrapped and every recording call compiles
/// away.
pub(crate) fn run_serial<P, T, C, R, O>(
    hooks: Hooks<T, C, R, O>,
    body: impl SerialBody<P>,
) -> CtlSearchResult
where
    T: TtAccess<P>,
    C: CtlHook,
    R: TraceAccess,
{
    let probe = hooks.ctl.probe();
    let ctl = C::access(&probe);
    let w = hooks.tracer.worker(0);
    let t0 = w.now_ns();
    let mut stats = SearchStats::new();
    let r = if R::ENABLED {
        body.run(Traced::new(hooks.tt, &w), ctl, &mut stats)
    } else {
        body.run(hooks.tt, ctl, &mut stats)
    };
    w.span(
        EventKind::JobExecute,
        t0,
        w.now_ns().saturating_sub(t0),
        JOB_ARG_SEARCH,
    );
    let (value, aborted) = match r {
        Ok(v) => (v, None),
        Err(v) => (v, ctl.reason()),
    };
    if let Some(reason) = aborted {
        w.instant_now(EventKind::AbortTrip, reason as u32);
    }
    hooks.tracer.submit(w);
    CtlSearchResult {
        value,
        stats,
        aborted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabeta::alphabeta_with;
    use crate::control::SearchControl;
    use crate::ordering::OrderPolicy;
    use gametree::random::RandomTreeSpec;
    use gametree::Window;
    use trace::Tracer;

    #[test]
    fn setters_replace_one_field_each() {
        let ctl = SearchControl::unlimited();
        let h = Hooks::default().with_ctl(&ctl).with_ord(7u8);
        assert!(std::ptr::eq(h.ctl, &ctl));
        assert_eq!(h.ord, 7);
        let h = h.with_tt(1u8).with_tracer(2u8);
        assert_eq!((h.tt, h.tracer, h.ord), (1, 2, 7));
    }

    #[test]
    fn traced_abort_records_the_trip() {
        let root = RandomTreeSpec::new(2, 5, 8).root();
        let ctl = SearchControl::unlimited();
        ctl.cancel();
        let tracer = Tracer::new();
        let hooks = Hooks::default().with_ctl(&ctl).with_tracer(&tracer);
        let r = alphabeta_with(&root, 8, Window::FULL, OrderPolicy::NATURAL, 0, hooks);
        assert!(r.aborted.is_some());
        let c = tracer.snapshot().counts();
        assert_eq!(c[EventKind::AbortTrip as usize], 1);
        assert_eq!(c[EventKind::JobExecute as usize], 1);
    }
}
