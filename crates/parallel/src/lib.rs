//! Parallel game-tree search: the ER algorithm (Steinberg & Solomon,
//! ICPP 1990) and the prior algorithms it is evaluated against.
//!
//! * [`er`] — parallel ER (§5–6): problem-heap engine with primary and
//!   speculative queues, in both a deterministic-simulation back-end and a
//!   real-thread back-end;
//! * [`control`] — deadlines, cancellation and panic containment for the
//!   threaded back-end, plus the abort error it reports;
//! * [`tree`] — the shared search tree with dynamic alpha-beta windows;
//! * [`baselines`] — parallel aspiration (§4.1), mandatory-work-first
//!   (§4.2), tree-splitting (§4.3) and pv-splitting (§4.4);
//! * [`mandatory`] — mandatory vs speculative work classification (§3);
//! * [`schedule`] — textual Gantt/utilization views of simulated runs.

#![warn(missing_docs)]

pub mod baselines;
pub mod control;
pub mod er;
pub mod mandatory;
pub mod schedule;
pub mod tree;

pub use control::{AbortReason, SearchAborted, SearchControl};
pub use er::threads::{record_run, record_tt, ErThreadsResult, DEFAULT_BATCH, MAX_BATCH};
pub use er::{
    root_split, run_er_sim, run_er_sim_with, run_er_threads, run_er_threads_exec,
    run_er_threads_id, run_er_threads_with, AspirationConfig, DepthResult, ErIdResult,
    ErParallelConfig, ErRunResult, IdStepper, Speculation, ThreadsConfig,
};
pub use search_serial::Hooks;
