//! Serial game-tree search algorithms (paper §2 and §5).
//!
//! * [`negmax::negmax`] — exhaustive negamax (§2, ground truth);
//! * [`alphabeta::alphabeta`] — alpha-beta with deep cutoffs
//!   (§2.1), the serial baseline of the experiments;
//! * [`nodeep::alphabeta_nodeep`] — alpha-beta without
//!   deep cutoffs (§2.2), MWF's reference algorithm;
//! * [`er::er_search`] — serial ER (Figure 8).
//!
//! Alpha-beta and serial ER each have one plain full-window entry and one
//! hooked entry (`*_with`) that takes a window and a [`Hooks`] bundle
//! carrying the optional table, control, tracer and ordering handles.
//! Negamax, the oracle, takes no hooks.
//!
//! All algorithms return the same root value on the same tree (verified by
//! the cross-crate property tests in the workspace `tests/` directory).

#![warn(missing_docs)]

pub mod alphabeta;
pub mod control;
pub mod er;
pub mod hooks;
pub mod negmax;
pub mod nodeep;
pub mod ordering;

use gametree::{SearchStats, Value};

/// The value and instrumentation produced by one search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SearchResult {
    /// Root value from the point of view of the player to move.
    pub value: Value,
    /// Node and evaluator counters.
    pub stats: SearchStats,
}

pub use alphabeta::{alphabeta, alphabeta_with, fail_soft_bound};
pub use control::{
    AbortReason, CtlAccess, CtlHook, CtlProbe, CtlSearchResult, SearchControl, CHECK_PERIOD,
};
pub use er::{er_eval_refute_with, er_search, er_search_with, ErConfig};
pub use hooks::Hooks;
pub use negmax::negmax;
pub use nodeep::alphabeta_nodeep;
pub use ordering::{
    note_cutoff, ordered_children_indexed, ordered_children_ranked, rank_children, rank_key,
    splice_hint, OrdAccess, OrderPolicy, OrderedChild, OrderingTables, SelectivityConfig,
};
