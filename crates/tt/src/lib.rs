//! Shared concurrent transposition table (DESIGN.md §8).
//!
//! The paper's ER algorithm re-derives bounds for positions it has already
//! seen; on Othello trees transpositions are frequent, and a shared
//! memory of completed searches is the highest-leverage caching structure
//! in the alpha-beta family. This crate supplies that memory as the first
//! cross-back-end shared-state subsystem of the workspace:
//!
//! * [`TranspositionTable`] — a fixed-size, sharded table of 4-way buckets
//!   whose entries are pairs of atomics validated by the XOR trick
//!   (`stored_key = hash ^ data`): a torn read of an entry that is being
//!   overwritten concurrently fails validation instead of yielding a
//!   plausible-but-wrong record, so probes and stores need no locks at all.
//! * [`Bound`] — `Exact` / `Lower` / `Upper` result classification, stored
//!   with the searched depth and the best-move hint.
//! * [`Zobrist`] — the hashing trait, implemented here for the synthetic
//!   trees and tic-tac-toe (the `othello` and `checkers` crates implement
//!   it for their own positions).
//! * [`TtAccess`] — the generic handle searches are written against: `()`
//!   is the zero-cost "no table" implementation, `&TranspositionTable` the
//!   real one. Search cores stay monomorphic and pay nothing when no table
//!   is attached.
//!
//! ## Probe semantics and bit-identical values
//!
//! A stored bound is only used for a cutoff when the entry's depth equals
//! the remaining search depth ([`Probe::cutoff`]). With depth-truncated
//! heuristic evaluation, a deeper entry is a *different* (usually better)
//! answer, not the same one — using it would change root values between
//! TT-on and TT-off runs. Equal-depth matching keeps every search's root
//! value bit-identical to the same search without a table, which the workspace
//! equivalence tests assert across all back-ends and worker counts.

#![warn(missing_docs)]

mod access;
mod table;
mod zobrist;

pub use access::TtAccess;
pub use table::{Bound, Probe, TranspositionTable, TtCounters, TtStats, DEFAULT_BITS};
pub use zobrist::{fold_bits, zobrist_keys, Zobrist};
