//! Anytime iterative deepening over the threaded ER back-end.
//!
//! A fixed-depth search under a deadline is all-or-nothing: if the budget
//! runs out mid-tree the partial value is worthless. The standard remedy
//! (Plaat, *Research Re: search & Re-search*) is iterative deepening —
//! complete depth 1, then 2, then 3… under one deadline, and when the
//! budget expires report the deepest *completed* depth. Early iterations
//! are cheap (the tree grows geometrically with depth), so the premium
//! over searching the final depth directly is small, and with a shared
//! transposition table the shallow iterations actively pay for the deep
//! ones: stored best moves steer ordering, equal-depth entries answer
//! transposed nodes outright.
//!
//! [`run_er_threads_id`] always returns a usable value: the static
//! evaluation if not even depth 1 finished, otherwise the last completed
//! root value — bit-identical to what a fixed-depth
//! [`run_er_threads`] of that depth returns, because the TT's probe cutoffs are equal-depth-only (a
//! cross-depth entry is only an ordering hint and hints never change
//! values). The `repro deadline` experiment asserts exactly that.
//!
//! [`IdStepper`] is the one deepening driver in the workspace. Callers
//! that only need a value (the session scheduler, [`run_er_threads_id`])
//! step it with [`IdStepper::step_with`]; callers that play a move (the
//! match engines, the UCI loop) step it with [`IdStepper::step_root`],
//! which searches each window as one [`root_split`] and keeps the best
//! move of the deepest completed depth. The split lives in the driver
//! because the threaded back-end stores no root table entry to read a
//! move back from.

use std::time::{Duration, Instant};

use gametree::{GamePosition, SearchStats, Value, Window};
use trace::{EventKind, TraceAccess};
use tt::TtAccess;

use search_serial::control::CtlHook;
use search_serial::{Hooks, OrderingTables};

#[cfg(doc)]
use super::threads::run_er_threads;
use super::threads::run_er_threads_with;
use super::ErParallelConfig;
use crate::control::{AbortReason, SearchControl};

/// Telemetry for one completed depth of the iterative-deepening driver.
#[derive(Clone, Copy, Debug)]
pub struct DepthResult {
    /// The completed depth.
    pub depth: u32,
    /// Exact root value at this depth.
    pub value: Value,
    /// Nodes examined by this iteration alone.
    pub nodes: u64,
    /// Wall-clock time of this iteration alone.
    pub elapsed: Duration,
}

/// Result of an anytime iterative-deepening run.
#[derive(Clone, Debug)]
pub struct ErIdResult {
    /// Root value of the deepest fully-completed iteration — the static
    /// evaluation of the root when not even depth 1 completed. Always
    /// usable, never partial.
    pub value: Value,
    /// The deepest completed depth (`0` when only the static fallback is
    /// available).
    pub depth_completed: u32,
    /// Per-depth telemetry for every completed iteration, in order.
    pub per_depth: Vec<DepthResult>,
    /// Why deepening stopped early, if it did; `None` means `max_depth`
    /// completed within budget.
    pub stopped: Option<AbortReason>,
    /// Total wall-clock time across all iterations.
    pub elapsed: Duration,
    /// Aspiration probes that landed strictly inside their narrowed window
    /// (no re-search needed). Always 0 for the full-window drivers.
    pub window_hits: u64,
    /// Widened re-searches launched after a probe failed outside its
    /// window. Always 0 for the full-window drivers.
    pub re_searches: u64,
}

impl ErIdResult {
    /// Aggregate nodes examined across all completed iterations.
    pub fn total_nodes(&self) -> u64 {
        self.per_depth.iter().map(|d| d.nodes).sum()
    }
}

/// The re-entrant core of the anytime deepening drivers: one call runs
/// exactly **one depth step** (an aspiration probe plus at most one
/// widened re-search) and folds it into the accumulated anytime state.
///
/// The in-process driver ([`run_er_threads_id`]) loops over
/// [`step_with`](Self::step_with) until `max_depth` or an abort; the
/// engine server's session scheduler instead interleaves steppers of many
/// sessions — each session keeps its `IdStepper` across slices, so
/// preemption at a depth boundary loses no work and the next slice resumes
/// exactly where deepening left off (same previous-value window, same
/// accumulated telemetry). That hand-off is what makes the driver
/// *re-entrant*: all per-session deepening state lives here, none of it in
/// the loop that happens to be driving it.
///
/// A caller that plays a move drives it with [`step_root`](Self::step_root)
/// instead: the same depth step, with each window searched as one
/// [`root_split`], and the split's choice kept as
/// [`best_move`](Self::best_move) once the step completes.
#[derive(Debug)]
pub struct IdStepper {
    asp: AspirationConfig,
    result: ErIdResult,
    prev: Option<Value>,
    /// Root child chosen by the deepest completed [`step_root`](Self::step_root).
    best: Option<usize>,
}

impl IdStepper {
    /// A stepper whose depth-0 fallback value is `fallback` (callers pass
    /// the root's static evaluation — the anytime contract promises *some*
    /// value even if not a single depth-1 step ever completes).
    pub fn new(fallback: Value, asp: AspirationConfig) -> IdStepper {
        IdStepper {
            asp,
            result: ErIdResult {
                value: fallback,
                depth_completed: 0,
                per_depth: Vec::new(),
                stopped: None,
                elapsed: Duration::ZERO,
                window_hits: 0,
                re_searches: 0,
            },
            prev: None,
            best: None,
        }
    }

    /// The deepest completed depth so far (`0` before any step).
    pub fn depth_completed(&self) -> u32 {
        self.result.depth_completed
    }

    /// The next depth a step should search.
    pub fn next_depth(&self) -> u32 {
        self.result.depth_completed + 1
    }

    /// The current anytime value: the deepest completed depth's exact root
    /// value, or the fallback before any step completed.
    pub fn value(&self) -> Value {
        self.result.value
    }

    /// Read access to the accumulated anytime result.
    pub fn result(&self) -> &ErIdResult {
        &self.result
    }

    /// Runs one depth step: an aspiration probe of `depth` (full-window
    /// when `asp.delta == 0` or no previous value exists) plus at most one
    /// widened re-search, all under `ctl`. `search` runs one fixed-depth
    /// windowed search and reports its exact root value and stats, or the
    /// abort reason.
    ///
    /// On success the step's [`DepthResult`] is returned *and* folded into
    /// the accumulated state. On abort the partial work is discarded — the
    /// accumulated value still reports the last *completed* depth — and
    /// the abort reason is recorded as [`ErIdResult::stopped`] (a later
    /// step under a fresh control token clears it; session slices retry).
    pub fn step_with<R: TraceAccess>(
        &mut self,
        depth: u32,
        ctl: &SearchControl,
        tracer: R,
        mut search: impl FnMut(u32, Window, &SearchControl) -> Result<(Value, SearchStats), AbortReason>,
    ) -> Result<DepthResult, AbortReason> {
        // Don't launch a thread pool for a step that is already doomed;
        // this also makes `stopped` exact when the deadline lands between
        // steps.
        if let Some(reason) = ctl.poll() {
            self.result.stopped = Some(reason);
            return Err(reason);
        }
        self.result.stopped = None;
        tracer.driver_instant(EventKind::IdDepthStart, depth);
        let iter_start = Instant::now();
        let window = match self.prev {
            Some(v) if self.asp.delta > 0 => Window::new(
                Value::new(v.get() - self.asp.delta),
                Value::new(v.get() + self.asp.delta),
            ),
            _ => Window::FULL,
        };
        let out = self.step_searches(depth, window, ctl, tracer, &mut search);
        let (value, nodes) = match out {
            Ok(v) => v,
            Err(reason) => {
                self.result.stopped = Some(reason);
                self.result.elapsed += iter_start.elapsed();
                return Err(reason);
            }
        };
        tracer.driver_instant(EventKind::IdDepthFinish, depth);
        self.prev = Some(value);
        self.result.value = value;
        self.result.depth_completed = depth;
        let step = DepthResult {
            depth,
            value,
            nodes,
            elapsed: iter_start.elapsed(),
        };
        self.result.per_depth.push(step);
        self.result.elapsed += step.elapsed;
        Ok(step)
    }

    /// [`step_with`](Self::step_with) for a driver that chooses a move:
    /// every window of the step is searched as one [`root_split`] over the
    /// root's `degree` children, the previous depth's best child first.
    /// `search_child(i, depth - 1, child_window, ctl)` searches child `i`
    /// and returns its value from the child's side. The split's choice
    /// replaces [`best_move`](Self::best_move) only when the whole step
    /// completes: an aborted step keeps the previous depth's move.
    pub fn step_root(
        &mut self,
        depth: u32,
        ctl: &SearchControl,
        degree: usize,
        mut search_child: impl FnMut(
            usize,
            u32,
            Window,
            &SearchControl,
        ) -> Result<(Value, SearchStats), AbortReason>,
    ) -> Result<DepthResult, AbortReason> {
        // A re-search starts from the probe's choice; only the last
        // (exact) pass of a completed step is adopted.
        let mut candidate = self.best.unwrap_or(0);
        let step = self.step_with(depth, ctl, (), |d, w, c| {
            let (value, best, stats) =
                root_split(degree, candidate, w, |i, cw| search_child(i, d - 1, cw, c))?;
            candidate = best;
            Ok((value, stats))
        });
        if step.is_ok() {
            self.best = Some(candidate);
        }
        step
    }

    /// The move to play, as a natural index into `kids` (the root's
    /// children): the choice of the deepest completed
    /// [`step_root`](Self::step_root), else the one-ply greedy child.
    /// `None` only when `kids` is empty.
    pub fn best_move<P: GamePosition>(&self, kids: &[P]) -> Option<usize> {
        self.best.or_else(|| greedy_child(kids))
    }

    /// The probe and (when it fails outside its window) the single widened
    /// re-search; returns the exact value and the nodes both passes spent.
    fn step_searches<R: TraceAccess>(
        &mut self,
        depth: u32,
        window: Window,
        ctl: &SearchControl,
        tracer: R,
        search: &mut impl FnMut(
            u32,
            Window,
            &SearchControl,
        ) -> Result<(Value, SearchStats), AbortReason>,
    ) -> Result<(Value, u64), AbortReason> {
        let (probe_value, probe_stats) = search(depth, window, ctl)?;
        let mut nodes = probe_stats.nodes();
        let failed =
            window != Window::FULL && (probe_value >= window.beta || probe_value <= window.alpha);
        let value = if failed {
            // Fail-out: open the failed side and keep the sound bound from
            // the probe on the other. The true value lies strictly inside
            // the widened window, so one re-search is exact.
            self.result.re_searches += 1;
            tracer.driver_instant(EventKind::AspirationResearch, depth);
            let re = if probe_value >= window.beta {
                Window::new(Value::new(window.beta.get() - 1), Value::INF)
            } else {
                Window::new(Value::NEG_INF, Value::new(window.alpha.get() + 1))
            };
            let (v, s) = search(depth, re, ctl)?;
            nodes += s.nodes();
            v
        } else {
            if window != Window::FULL {
                self.result.window_hits += 1;
            }
            probe_value
        };
        Ok((value, nodes))
    }

    /// Consumes the stepper, yielding the accumulated anytime result.
    /// `elapsed` is the sum of stepped wall-clock time (for a time-sliced
    /// session that is *service* time, excluding waits between slices).
    pub fn into_result(self) -> ErIdResult {
        self.result
    }
}

/// One root split: searches the root's `degree` children under `window`,
/// child `first` (`< degree`) first and the rest in natural order,
/// raising alpha after each child and cutting off once alpha reaches
/// beta. `search_child(i, child_window)` returns child `i`'s value from
/// the child's side.
///
/// Returns the root value, the child that achieved it and the merged
/// stats. A value inside `window` is exact and its child achieves it; a
/// fail-high is a lower bound and a fail-low an upper bound, whose child
/// means nothing. The first abort is returned as is.
///
/// # Panics
///
/// If `degree` is zero: a root without moves has nothing to split.
pub fn root_split(
    degree: usize,
    first: usize,
    window: Window,
    mut search_child: impl FnMut(usize, Window) -> Result<(Value, SearchStats), AbortReason>,
) -> Result<(Value, usize, SearchStats), AbortReason> {
    assert!(degree > 0, "root split of a position without moves");
    let order = std::iter::once(first).chain((0..degree).filter(|&i| i != first));
    let mut stats = SearchStats::new();
    let mut window = window;
    let mut best: Option<(Value, usize)> = None;
    for i in order {
        let (v, s) = search_child(i, window.negate())?;
        stats.merge(&s);
        let v = -v;
        if best.is_none_or(|(bv, _)| v > bv) {
            best = Some((v, i));
            window = window.raise_alpha(v);
            if window.is_empty() {
                break; // root beta cutoff
            }
        }
    }
    let (v, i) = best.expect("degree > 0");
    Ok((v, i, stats))
}

/// One-ply greedy fallback when not even depth 1 completed: the child the
/// static evaluator likes best for the mover (ties to the earliest natural
/// index, so the choice is deterministic).
fn greedy_child<P: GamePosition>(kids: &[P]) -> Option<usize> {
    // The child's view: the mover wants the minimum.
    let (i, _) = kids.iter().enumerate().min_by_key(|(_, k)| k.evaluate())?;
    Some(i)
}

/// Configuration of the aspiration-windowed deepening driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AspirationConfig {
    /// Half-width of the aspiration window centred on the previous
    /// iteration's root value. `0` disables narrowing: every depth probes
    /// the full window (useful for isolating the ordering effect).
    pub delta: i32,
    /// Share killer/history tables across iterations — aged once per depth
    /// bump — and forward them to move generation and every
    /// serial-frontier job.
    pub ordering: bool,
}

impl AspirationConfig {
    /// Neither narrowing nor dynamic ordering: the aspiration driver
    /// degenerates to the plain deepening loop.
    pub const OFF: AspirationConfig = AspirationConfig {
        delta: 0,
        ordering: false,
    };

    /// Both mechanisms on with the given window half-width.
    pub fn narrow(delta: i32) -> AspirationConfig {
        AspirationConfig {
            delta,
            ordering: true,
        }
    }
}

/// Anytime iterative deepening: searches `pos` at depths `1..=max_depth`
/// with the threaded back-end, all under the single deadline (or
/// cancellation token) carried by `hooks.ctl` — without one, a local
/// unlimited token.
///
/// Returns after the first iteration that fails to complete — or after
/// `max_depth` — with the deepest completed root value. The value of an
/// interrupted iteration is discarded entirely; it never contaminates the
/// result.
///
/// `asp` sets the two driver-owned mechanisms. With `asp.delta > 0`, depth
/// 1 runs under the full window and each later depth first probes a
/// window of `±asp.delta` around the previous depth's root value: a probe
/// that lands inside its window is exact and cheap (the narrow bounds
/// prune harder everywhere); one that fails high or low is re-searched
/// once with the failed side opened, which is exact in one pass under
/// fail-hard clamping. With `asp.ordering`, one [`OrderingTables`] owned
/// by the driver ranks children at every depth, aged at each depth bump so
/// stale credit decays — so the hooks carry no ordering tables of their
/// own. [`AspirationConfig::OFF`] is plain deepening.
///
/// With a table attached, each depth starts a new table generation
/// ([`tt::TranspositionTable::new_search`]), so earlier iterations'
/// entries age — still probe-able as move hints and equal-depth answers,
/// but losing replacement priority to fresh work. With a tracer attached,
/// each iteration's worker activity lands on the same per-worker timeline
/// rows, and the driver row records an [`EventKind::IdDepthStart`] /
/// [`EventKind::IdDepthFinish`] pair per depth, one
/// [`EventKind::AspirationResearch`] per widened re-search and an
/// [`EventKind::AbortTrip`] when deepening stops early.
pub fn run_er_threads_id<P, T, C, R>(
    pos: &P,
    max_depth: u32,
    threads: usize,
    cfg: &ErParallelConfig,
    asp: AspirationConfig,
    hooks: Hooks<T, C, R>,
) -> ErIdResult
where
    P: GamePosition,
    T: TtAccess<P> + Send + Sync,
    C: CtlHook,
    R: TraceAccess,
{
    let local = SearchControl::unlimited();
    let ctl = hooks.ctl.control().unwrap_or(&local);
    let tables = asp.ordering.then(OrderingTables::new);
    let mut stepper = IdStepper::new(pos.evaluate(), asp);
    while stepper.depth_completed() < max_depth {
        let depth = stepper.next_depth();
        // Skip the per-depth bookkeeping for a step that is already
        // doomed, so a deadline landing between steps bumps no generation.
        // It runs once per depth, before the probe — never again for the
        // re-search, so a fail-out re-searches against the same table
        // state its probe saw.
        if let Some(reason) = ctl.poll() {
            stepper.result.stopped = Some(reason);
            break;
        }
        hooks.tt.new_search();
        if depth > 1 {
            if let Some(t) = &tables {
                t.age();
            }
        }
        let step = stepper.step_with(depth, ctl, hooks.tracer, |d, w, c| {
            let hooks = hooks.with_ctl(c);
            match &tables {
                Some(t) => run_er_threads_with(pos, d, w, threads, cfg, hooks.with_ord(t)),
                None => run_er_threads_with(pos, d, w, threads, cfg, hooks),
            }
            .map(|r| (r.value, r.stats))
            .map_err(|e| e.reason)
        });
        if step.is_err() {
            break;
        }
    }
    let r = stepper.into_result();
    if let Some(reason) = r.stopped {
        hooks
            .tracer
            .driver_instant(EventKind::AbortTrip, reason as u32);
    }
    r
}
