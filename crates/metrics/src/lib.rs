//! Engine-wide observability: a lock-free metrics registry with
//! Prometheus text exposition (DESIGN.md §16).
//!
//! The paper's evaluation — and this repo's `results/*.json`
//! trajectory — is post-hoc: every number exists only after a run ends.
//! The running system (the multi-session server, the match loop) is a
//! black box in between. This crate closes that gap with four pieces:
//!
//! * [`core`] — the primitives: a striped relaxed-atomic [`Counter`], a
//!   [`Gauge`], and a shard-per-worker log-bucketed [`Histogram`] whose
//!   shards merge associatively into a [`HistSnapshot`] with clamped
//!   p50/p90/p99 estimation. A [`HistSnapshot`] also records on its own,
//!   so a worker can keep a private distribution and merge it in later.
//!   It is the workspace's one log₂ histogram.
//! * [`registry`] — [`MetricsRegistry`]: cold-path static registration
//!   returning `Arc` handles, point-in-time [`MetricsSnapshot`]s, and
//!   the dependency-free exposition writer [`expose_text`].
//! * [`engine`] — [`EngineMetrics`], the engine's well-known metric set.
//!   No search records into it: its owners fold each run's own counters
//!   in after the run returns, so a metric set cannot perturb a search.
//! * [`lint`] — a Prometheus text-format linter in the spirit of
//!   `trace::lint`, run over every snapshot the bench harness emits.

#![warn(missing_docs)]

pub mod core;
pub mod engine;
pub mod lint;
pub mod registry;

pub use core::{Counter, Gauge, HistSnapshot, Histogram, HIST_BUCKETS};
pub use engine::{EngineMetrics, CLASS_LABELS};
pub use registry::{expose_text, MetricsRegistry, MetricsSnapshot, SeriesSnapshot, SeriesValue};
