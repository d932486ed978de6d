//! Session vocabulary: what a client submits and what it gets back.
//!
//! A *session* is one search request living inside the multiplexed server:
//! a position, a target depth, an optional wall-clock budget, and a
//! priority class. The scheduler time-slices admitted sessions at
//! iterative-deepening depth boundaries, so every session's observable
//! life is: submitted → (queued) → sliced repeatedly → finished, where
//! "finished" always carries a usable value — the deepest completed
//! depth's exact root value, or the root's static evaluation if not even
//! depth 1 fit in the budget. Over-budget sessions *degrade*, they never
//! error.

use std::time::Duration;

use er_parallel::{AbortReason, AspirationConfig, DepthResult, ErParallelConfig};
use gametree::{GamePosition, Value};

/// Admission priority class of a session.
///
/// The class sets the session's *weight* in the weighted-fair slice
/// scheduler — an `Interactive` session accrues virtual time four times
/// slower than a `Batch` session, so it receives roughly four times the
/// service rate under contention — and selects which per-class admission
/// cap applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Latency-sensitive (a human is waiting): weight 4.
    Interactive,
    /// The default class: weight 2.
    Normal,
    /// Throughput work that should yield to everything else: weight 1.
    Batch,
}

impl Priority {
    /// All classes, in index order ([`Self::index`]).
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Normal, Priority::Batch];

    /// The stride-scheduling weight: a session's virtual time advances by
    /// `slice_elapsed / weight`, so service share under contention is
    /// proportional to weight.
    pub fn weight(self) -> u32 {
        match self {
            Priority::Interactive => 4,
            Priority::Normal => 2,
            Priority::Batch => 1,
        }
    }

    /// Dense index for per-class counters.
    pub fn index(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Normal => 1,
            Priority::Batch => 2,
        }
    }

    /// Stable lowercase label for logs and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Normal => "normal",
            Priority::Batch => "batch",
        }
    }
}

/// One search request: everything the scheduler needs to run a session.
#[derive(Clone, Debug)]
pub struct SessionRequest<P: GamePosition> {
    /// The root position.
    pub pos: P,
    /// Deepen up to this depth (the session finishes early if it gets
    /// there within budget).
    pub max_depth: u32,
    /// Wall-clock budget, armed **at submission** — queue wait counts
    /// against it, so completion latency is bounded by the budget plus one
    /// slice of scheduling grace regardless of load. `None` means run to
    /// `max_depth` no matter how long it takes.
    pub budget: Option<Duration>,
    /// Admission class and fair-share weight.
    pub priority: Priority,
    /// Algorithmic knobs forwarded to every slice's threaded search.
    pub cfg: ErParallelConfig,
    /// Aspiration-window policy across this session's depth steps.
    pub asp: AspirationConfig,
}

impl<P: GamePosition> SessionRequest<P> {
    /// A `Normal`-priority, unbudgeted request with aspiration off —
    /// the configuration whose finished value is trivially comparable to
    /// a solo fixed-depth search.
    pub fn new(pos: P, max_depth: u32, cfg: ErParallelConfig) -> SessionRequest<P> {
        SessionRequest {
            pos,
            max_depth,
            budget: None,
            priority: Priority::Normal,
            cfg,
            asp: AspirationConfig::OFF,
        }
    }

    /// Sets the wall-clock budget.
    pub fn with_budget(mut self, budget: Duration) -> SessionRequest<P> {
        self.budget = Some(budget);
        self
    }

    /// Sets the priority class.
    pub fn with_priority(mut self, priority: Priority) -> SessionRequest<P> {
        self.priority = priority;
        self
    }

    /// Sets the aspiration policy.
    pub fn with_asp(mut self, asp: AspirationConfig) -> SessionRequest<P> {
        self.asp = asp;
        self
    }
}

/// Identifier of an admitted session, unique within one scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u32);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Why admission control rejected a submission. The request was **not**
/// enqueued; the caller may retry later or shed the work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Busy {
    /// Active + queued sessions already fill `max_active + max_queued`.
    QueueFull,
    /// This priority class is at its per-class admission cap.
    ClassFull(Priority),
}

impl std::fmt::Display for Busy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Busy::QueueFull => f.write_str("busy: admission queue full"),
            Busy::ClassFull(p) => write!(f, "busy: {} class at its cap", p.label()),
        }
    }
}

/// The finished state of one session.
#[derive(Clone, Debug)]
pub struct SessionResult {
    /// The session's identifier.
    pub id: SessionId,
    /// The class it ran under.
    pub priority: Priority,
    /// Root value of the deepest fully-completed depth (the root's static
    /// evaluation when not even depth 1 completed). Never partial.
    pub value: Value,
    /// The deepest completed depth.
    pub depth_completed: u32,
    /// The requested depth.
    pub max_depth: u32,
    /// Aggregate nodes across all completed depth steps.
    pub nodes: u64,
    /// Depth slices this session received (including the final, possibly
    /// aborted one).
    pub slices: u32,
    /// Aspiration re-searches across all slices.
    pub re_searches: u64,
    /// Aspiration probes that landed inside their narrowed window.
    pub window_hits: u64,
    /// Why the session stopped short of `max_depth`, if it did. `None`
    /// means `max_depth` completed. [`AbortReason::DeadlineHit`] marks
    /// graceful degradation, not an error.
    pub stopped: Option<AbortReason>,
    /// Submission → completion wall clock.
    pub latency: Duration,
    /// Submission → first slice wall clock (admission queue wait).
    pub queue_wait: Duration,
    /// Total in-slice service time (excludes waits between slices).
    pub service: Duration,
    /// Per-depth telemetry of every completed step, in order.
    pub per_depth: Vec<DepthResult>,
}

impl SessionResult {
    /// Whether the session reached its requested depth.
    pub fn completed(&self) -> bool {
        self.stopped.is_none() && self.depth_completed == self.max_depth
    }
}

/// Outcome of one request in a [`serve_batch`](crate::serve_batch) call,
/// position-aligned with the input vector.
#[derive(Clone, Debug)]
pub enum Response {
    /// The session ran (possibly degrading to a shallower depth).
    Done(SessionResult),
    /// Admission control shed the request; it never ran.
    Shed(Busy),
}

impl Response {
    /// The result, if the session ran.
    pub fn result(&self) -> Option<&SessionResult> {
        match self {
            Response::Done(r) => Some(r),
            Response::Shed(_) => None,
        }
    }

    /// Whether admission shed this request.
    pub fn is_shed(&self) -> bool {
        matches!(self, Response::Shed(_))
    }
}

/// Scheduler-level knobs: pool shape, shared-table size, and admission
/// policy.
#[derive(Clone, Copy, Debug)]
pub struct SchedulerConfig {
    /// Worker threads each slice's search runs with.
    pub threads: usize,
    /// log2 size of the shared transposition table.
    pub tt_bits: u32,
    /// Sessions time-sliced concurrently; further admitted sessions wait
    /// in FIFO order.
    pub max_active: usize,
    /// Admitted-but-waiting capacity; submissions beyond
    /// `max_active + max_queued` are shed with [`Busy::QueueFull`].
    pub max_queued: usize,
    /// Per-class admission caps, indexed by [`Priority::index`]; a class
    /// at its cap sheds with [`Busy::ClassFull`] even when the queue has
    /// room. `usize::MAX` disables a cap.
    pub per_class_max: [usize; 3],
    /// Give every session a bounded trace ring, enabling the merged
    /// session-tagged Chrome export.
    pub trace: bool,
}

impl Default for SchedulerConfig {
    /// Two workers, a 2^16-entry shared table, 4 active × 16 queued, no
    /// per-class caps, tracing off.
    fn default() -> SchedulerConfig {
        SchedulerConfig {
            threads: 2,
            tt_bits: 16,
            max_active: 4,
            max_queued: 16,
            per_class_max: [usize::MAX; 3],
            trace: false,
        }
    }
}

impl SchedulerConfig {
    /// Total sessions admission will hold at once.
    pub fn capacity(&self) -> usize {
        self.max_active.saturating_add(self.max_queued)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_order_the_classes() {
        assert!(Priority::Interactive.weight() > Priority::Normal.weight());
        assert!(Priority::Normal.weight() > Priority::Batch.weight());
        for (i, p) in Priority::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn busy_messages_name_the_cause() {
        assert_eq!(Busy::QueueFull.to_string(), "busy: admission queue full");
        assert_eq!(
            Busy::ClassFull(Priority::Batch).to_string(),
            "busy: batch class at its cap"
        );
    }

    #[test]
    fn session_ids_render_like_trace_rows() {
        assert_eq!(SessionId(7).to_string(), "s7");
    }
}
