//! Low-overhead search telemetry (DESIGN.md §11).
//!
//! The paper's evidence is observational — utilization, node counts vs
//! processors, the mandatory/speculative split — and this crate is the
//! measurement substrate that turns those claims into inspectable
//! artifacts:
//!
//! * [`EventKind`]/[`TraceEvent`] — the typed event schema (spans and
//!   instants for job execution, lock wait/hold, steals, parks, TT
//!   traffic, iterative-deepening depth boundaries, abort trips);
//! * [`EventRing`] — fixed-capacity overwrite-oldest per-worker storage:
//!   no allocation and no shared locks on the hot path;
//! * [`TraceAccess`]/[`WorkerTrace`] — the zero-cost handle pair mirroring
//!   `TtAccess`/`CtlAccess`: `()` compiles every recording call away, so
//!   trace-off builds are today's code and trace-on runs stay
//!   bit-identical in root value;
//! * [`Traced`] — a `TtAccess` combinator recording table probes/stores
//!   through any search core with zero signature changes;
//! * [`SearchReport`] — post-run aggregation: per-worker utilization
//!   fractions, lock histograms, queue-depth samples, and (attached by
//!   the classifier's caller) [`SpecSplit`] speculation accounting;
//! * [`chrome_json`] — Chrome-trace/Perfetto export, one timeline row per
//!   worker, loadable in `chrome://tracing`;
//! * [`lint::check`] — a dependency-free JSON validator so CI can verify
//!   the exported artifacts without `jq`.
//!
//! ```
//! use trace::{chrome_json, EventKind, SearchReport, TraceAccess, Tracer, WorkerTrace};
//!
//! let tracer = Tracer::new();
//! let w = (&tracer).worker(0);
//! let t0 = w.now_ns();
//! // ... do the work being measured ...
//! w.span(EventKind::JobExecute, t0, w.now_ns() - t0, 0);
//! (&tracer).submit(w);
//!
//! let data = tracer.snapshot();
//! let report = SearchReport::from_data(&data);
//! assert_eq!(report.workers.len(), 1);
//! assert_eq!(report.count_of(EventKind::JobExecute), 1);
//! trace::lint::check(&chrome_json(&data)).expect("valid Chrome trace");
//! ```

#![warn(missing_docs)]

mod chrome;
mod event;
pub mod lint;
mod report;
mod ring;
mod tracer;
mod tt_wrap;

pub use chrome::{chrome_json, chrome_json_sessions};
pub use event::{job_label, EventKind, TraceEvent, JOB_ARG_SEARCH, KIND_COUNT};
pub use report::{QueueDepthStats, SearchReport, SpecSplit, WorkerReport};
pub use ring::EventRing;
pub use tracer::{
    RowData, TraceAccess, TraceData, Tracer, WorkerTrace, WorkerTracer, AMORTIZE_PERIOD,
    DEFAULT_RING_CAPACITY,
};
pub use tt_wrap::Traced;
