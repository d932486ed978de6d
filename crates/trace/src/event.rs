//! The event schema: every telemetry record is one fixed-size
//! [`TraceEvent`] — a kind, an amortized monotonic timestamp, an optional
//! duration (spans only) and one 32-bit argument. Plain `Copy` structs so
//! recording is a couple of stores into a preallocated ring, never an
//! allocation.

/// Number of declared event kinds ([`EventKind::ALL`] has this length).
pub const KIND_COUNT: usize = 14;

/// The typed events the back-ends record. Span kinds carry a duration;
/// instant kinds are points in time (`dur_ns == 0`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum EventKind {
    /// Span: one job executed outside the lock (`arg` = job-kind index,
    /// see [`job_label`]).
    JobExecute = 0,
    /// Span: blocked acquiring the shared heap mutex.
    LockWait = 1,
    /// Span: holding the shared heap mutex (`arg` = jobs refilled).
    LockHold = 2,
    /// Instant: global queue depth observed at the end of a refill
    /// (`arg` = primary + speculative queue length).
    QueueDepth = 3,
    /// Instant: one lock-free steal probe against a sibling deque
    /// (`arg` = victim index).
    StealAttempt = 4,
    /// Instant: a steal probe that came back with a job (`arg` = victim).
    StealHit = 5,
    /// Span: parked on the idle condition variable.
    Park = 6,
    /// Instant: woken from a park.
    Unpark = 7,
    /// Instant: one transposition-table probe (`arg` = 1 on hit, 0 miss).
    TtProbe = 8,
    /// Instant: one transposition-table store.
    TtStore = 9,
    /// Instant: the iterative-deepening driver launched a depth
    /// (`arg` = depth).
    IdDepthStart = 10,
    /// Instant: a depth completed with an exact value (`arg` = depth).
    IdDepthFinish = 11,
    /// Instant: the abort protocol was observed tripping
    /// (`arg` = abort-reason discriminant, 0 when unknown).
    AbortTrip = 12,
    /// Instant: an aspiration probe failed outside its window and the
    /// driver launched a widened re-search (`arg` = depth).
    AspirationResearch = 13,
}

impl EventKind {
    /// Every declared kind, in discriminant order.
    pub const ALL: [EventKind; KIND_COUNT] = [
        EventKind::JobExecute,
        EventKind::LockWait,
        EventKind::LockHold,
        EventKind::QueueDepth,
        EventKind::StealAttempt,
        EventKind::StealHit,
        EventKind::Park,
        EventKind::Unpark,
        EventKind::TtProbe,
        EventKind::TtStore,
        EventKind::IdDepthStart,
        EventKind::IdDepthFinish,
        EventKind::AbortTrip,
        EventKind::AspirationResearch,
    ];

    /// Stable human-readable name (also the Chrome-trace event name).
    pub fn label(self) -> &'static str {
        match self {
            EventKind::JobExecute => "job",
            EventKind::LockWait => "lock-wait",
            EventKind::LockHold => "lock-hold",
            EventKind::QueueDepth => "queue-depth",
            EventKind::StealAttempt => "steal-attempt",
            EventKind::StealHit => "steal-hit",
            EventKind::Park => "park",
            EventKind::Unpark => "unpark",
            EventKind::TtProbe => "tt-probe",
            EventKind::TtStore => "tt-store",
            EventKind::IdDepthStart => "id-depth-start",
            EventKind::IdDepthFinish => "id-depth-finish",
            EventKind::AbortTrip => "abort-trip",
            EventKind::AspirationResearch => "aspiration-research",
        }
    }

    /// Chrome-trace category string for this kind.
    pub fn category(self) -> &'static str {
        match self {
            EventKind::JobExecute => "job",
            EventKind::LockWait | EventKind::LockHold => "lock",
            EventKind::QueueDepth => "queue",
            EventKind::StealAttempt | EventKind::StealHit => "steal",
            EventKind::Park | EventKind::Unpark => "idle",
            EventKind::TtProbe | EventKind::TtStore => "tt",
            EventKind::IdDepthStart | EventKind::IdDepthFinish | EventKind::AspirationResearch => {
                "id"
            }
            EventKind::AbortTrip => "abort",
        }
    }

    /// True for kinds recorded as durations ("X" phases in the Chrome
    /// export); false for point events ("i" phases).
    pub fn is_span(self) -> bool {
        matches!(
            self,
            EventKind::JobExecute | EventKind::LockWait | EventKind::LockHold | EventKind::Park
        )
    }
}

/// `arg` value of a [`EventKind::JobExecute`] span that covers a whole
/// serial search rather than one problem-heap task.
pub const JOB_ARG_SEARCH: u32 = 6;

/// Human label for a [`EventKind::JobExecute`] argument. Indices 0–5 are
/// the problem-heap `Task` kinds in declaration order; [`JOB_ARG_SEARCH`]
/// marks a whole serial search.
pub fn job_label(arg: u32) -> &'static str {
    match arg {
        0 => "leaf",
        1 => "cached-leaf",
        2 => "movegen",
        3 => "next-child",
        4 => "expand-rest",
        5 => "serial",
        JOB_ARG_SEARCH => "search",
        _ => "job",
    }
}

/// One recorded telemetry event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Kind of the event.
    pub kind: EventKind,
    /// Nanoseconds since the owning [`Tracer`](crate::Tracer)'s epoch.
    /// Amortized: instants may reuse the worker's last clock read.
    pub ts_ns: u64,
    /// Span duration in nanoseconds; 0 for instants.
    pub dur_ns: u64,
    /// Kind-specific argument (see each [`EventKind`] variant).
    pub arg: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_enumerated_once() {
        for (i, k) in EventKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i, "{k:?} out of declaration order");
        }
        let labels: std::collections::HashSet<_> =
            EventKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), KIND_COUNT, "labels must be distinct");
    }

    #[test]
    fn span_kinds_are_the_durable_four() {
        let spans: Vec<_> = EventKind::ALL.iter().filter(|k| k.is_span()).collect();
        assert_eq!(spans.len(), 4);
    }

    #[test]
    fn job_labels_cover_task_kinds_and_fallback() {
        assert_eq!(job_label(0), "leaf");
        assert_eq!(job_label(5), "serial");
        assert_eq!(job_label(JOB_ARG_SEARCH), "search");
        assert_eq!(job_label(99), "job");
    }
}

#[cfg(test)]
mod sizes {
    //! Layout assert, run by CI's `cargo test sizes` step: events fill the
    //! per-worker rings at search rates, so a field addition that grows
    //! the record past 24 bytes (2⅔ events per cache line) must be a
    //! deliberate decision, not an accident.

    use super::*;

    #[test]
    fn trace_event_is_24_bytes() {
        assert_eq!(std::mem::size_of::<TraceEvent>(), 24);
        assert_eq!(std::mem::size_of::<EventKind>(), 1);
    }
}
