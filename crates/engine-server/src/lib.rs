//! Multi-session engine service layer over the ER search stack
//! (DESIGN.md §13).
//!
//! Everything below this crate searches *one* position at a time; a
//! server has many clients. This crate multiplexes M concurrent search
//! **sessions** onto one N-worker pool:
//!
//! * [`Session` vocabulary](session) — [`SessionRequest`] (position,
//!   depth, wall-clock budget, [`Priority`] class), [`SessionResult`],
//!   admission rejections ([`Busy`]);
//! * [`SessionScheduler`] — weighted-fair time slicing at
//!   iterative-deepening depth boundaries (one slice = one
//!   [`IdStepper`](er_parallel::IdStepper) depth step, so preemption
//!   never discards partial tree work), bounded-queue admission control
//!   with load shedding, and graceful degradation: an over-deadline
//!   session returns its deepest completed value, never an error;
//! * [`serve_batch`] — the one-call entry point: submit a batch, run to
//!   idle, get responses aligned with the input order;
//! * [`uci`] — a UCI-style line protocol loop (`position`, `go movetime`,
//!   `stop`, `isready`) over any `BufRead`/`Write` pair;
//! * [`AnyPos`] — game-family erasure so one server process serves
//!   Othello, checkers, and the paper's random trees from a single
//!   shared, family-salted transposition table.
//!
//! The load-bearing property is **transparency**: because the shared
//! table's cutoffs are equal-depth-only and ordering/aspiration only
//! permute visit order, a session's final value is bit-identical to a
//! solo fixed-depth search of its position — no matter how many sessions
//! it was interleaved with, at what priority, or across how many slices.
//! `tests/transparency.rs` asserts this property over random batches.
//!
//! ```
//! use engine_server::{serve_batch, AnyPos, SchedulerConfig, SessionRequest};
//! use er_parallel::ErParallelConfig;
//!
//! let reqs = (0..4u64)
//!     .map(|seed| {
//!         SessionRequest::new(
//!             AnyPos::random_root(seed, 4, 6),
//!             3,
//!             ErParallelConfig::random_tree(2),
//!         )
//!     })
//!     .collect();
//! let responses = serve_batch(reqs, SchedulerConfig::default());
//! assert!(responses.iter().all(|r| r.result().is_some()));
//! ```

#![warn(missing_docs)]

mod game;
mod scheduler;
pub mod session;
pub mod time;
pub mod uci;

pub use game::{AnyMove, AnyPos};
pub use scheduler::{serve_batch, serve_batch_on, slice_search, SchedulerStats, SessionScheduler};
pub use session::{
    Busy, Priority, Response, SchedulerConfig, SessionId, SessionRequest, SessionResult,
};
pub use time::{estimate_moves_left, GameClock, TimeControl, TimeManager};
