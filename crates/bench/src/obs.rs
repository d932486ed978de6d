//! The `repro obs` experiment: the observability acceptance gates.
//!
//! Claim under test: a metric set observes the engine and never steers
//! it. A metric set never reaches the search: its owner folds the run's
//! own counters in after the run returns (`er_parallel::record_run`). The
//! identity gate checks that exactly, at one thread, where a run repeats
//! its schedule to the node: a run folded into a metric set must equal an
//! unfolded run of the same tree in root value, `SearchStats` and every
//! untimed `ThreadCounters` field, and the folded series must equal the
//! run's own counters.
//!
//! On top of the gate, a mixed serve + match workload records into one
//! shared [`EngineMetrics`] — the scheduler's periodic exposition
//! snapshots and the final page must all pass `metrics::lint::check`
//! before anything is written to disk.

use std::sync::Arc;

use engine_server::AnyPos;
use er_parallel::{record_run, run_er_threads_with, ErParallelConfig, ErThreadsResult, Hooks};
use gametree::Window;
use match_harness::{run_match_with, EngineSpec, Family, MatchConfig};
use metrics::EngineMetrics;
use problem_heap::ThreadCounters;

use crate::json::impl_to_json;

/// Probe searches of the identity gate (random-tree seeds
/// `0..PROBE_SEEDS`).
pub const PROBE_SEEDS: u64 = 4;
/// Depth of every `repro obs` probe search.
pub const PROBE_DEPTH: u32 = 10;

/// One probe tree's off-vs-on identity evidence.
pub struct ObsProbe {
    /// Random-tree seed.
    pub seed: u64,
    /// Root value without metrics.
    pub value_off: i32,
    /// Root value with metrics attached (asserted equal).
    pub value_on: i32,
    /// Nodes examined without metrics (1 thread: deterministic).
    pub nodes_off: u64,
    /// Nodes examined with metrics attached (asserted equal).
    pub nodes_on: u64,
}

impl_to_json!(ObsProbe {
    seed,
    value_off,
    value_on,
    nodes_off,
    nodes_on
});

/// The full `repro obs` report.
pub struct ObsBench {
    /// Probe depth.
    pub probe_depth: u32,
    /// Probe count.
    pub probe_seeds: u64,
    /// Per-tree identity evidence.
    pub probes: Vec<ObsProbe>,
    /// Sessions offered to the observed scheduler.
    pub serve_sessions: usize,
    /// Sessions that completed across both waves.
    pub serve_completed: u64,
    /// Periodic exposition snapshots taken (each lint-checked).
    pub serve_snapshots: usize,
    /// Games of the observed self-play match.
    pub match_games: usize,
    /// Moves the match recorded into the per-move histograms.
    pub match_moves: u64,
    /// Nodes/sec the mixed workload's registry reports.
    pub workload_nps: f64,
    /// Final sampled table occupancy of the serve scheduler.
    pub tt_occupancy: f64,
    /// Lines of the final (lint-clean) exposition page.
    pub exposition_lines: usize,
}

impl_to_json!(ObsBench {
    probe_depth,
    probe_seeds,
    probes,
    serve_sessions,
    serve_completed,
    serve_snapshots,
    match_games,
    match_moves,
    workload_nps,
    tt_occupancy,
    exposition_lines
});

/// One probe search at one thread in the paper's configuration
/// (speculation on). A one-thread run takes a fixed batch, so its schedule
/// — speculative selection included — is reproducible to the node.
fn probe(pos: &AnyPos, depth: u32, mx: Option<&EngineMetrics>) -> ErThreadsResult {
    let cfg = ErParallelConfig::random_tree(3);
    let run = run_er_threads_with(pos, depth, Window::FULL, 1, &cfg, Hooks::default());
    if let Some(m) = mx {
        record_run(m, &run);
    }
    run.expect("an unlimited probe search cannot abort")
}

/// The counters the schedule alone decides: the timed fields (lock wait
/// and hold nanoseconds, the wait histogram) cleared.
fn untimed(c: ThreadCounters) -> ThreadCounters {
    ThreadCounters {
        lock_wait_nanos: 0,
        lock_hold_nanos: 0,
        lock_waits: Default::default(),
        ..c
    }
}

/// The identity gate over the probe set, panicking on any difference.
fn identity_gate(depth: u32) -> Vec<ObsProbe> {
    (0..PROBE_SEEDS)
        .map(|seed| {
            let pos = AnyPos::random_root(seed, 4, depth);
            let off = probe(&pos, depth, None);
            let m = EngineMetrics::new(1);
            let on = probe(&pos, depth, Some(&m));
            assert_eq!(
                off.value, on.value,
                "seed {seed}: metrics-on changed the root value"
            );
            assert_eq!(
                off.stats, on.stats,
                "seed {seed}: metrics-on changed the search stats"
            );
            let total = on.counters();
            assert_eq!(
                untimed(off.counters()),
                untimed(total.clone()),
                "seed {seed}: metrics-on changed the one-thread schedule"
            );
            assert_eq!(
                [
                    m.search_nodes_total.value(),
                    m.search_jobs_total.value(),
                    m.steal_attempts_total.value(),
                    m.steal_hits_total.value(),
                ],
                [
                    on.stats.nodes(),
                    total.jobs_executed,
                    total.steal_attempts,
                    total.steal_hits,
                ],
                "seed {seed}: folded nodes, jobs and steals differ from the run's own"
            );
            ObsProbe {
                seed,
                value_off: off.value.get(),
                value_on: on.value.get(),
                nodes_off: off.stats.nodes(),
                nodes_on: on.stats.nodes(),
            }
        })
        .collect()
}

/// Runs the identity gate plus the observed mixed workload. Returns the
/// report and the final exposition page (already lint-checked).
/// `probe_depth` is [`PROBE_DEPTH`] for the real experiment; the unit
/// tests pass a shallower tree.
pub fn obs_bench(
    sessions: usize,
    games: usize,
    threads: usize,
    probe_depth: u32,
) -> (ObsBench, String) {
    let probes = identity_gate(probe_depth);

    // One shared registry observes the whole mixed workload: a serve
    // wave with periodic snapshots, then a short self-play match whose
    // players record into the same histograms.
    let m = Arc::new(EngineMetrics::new(threads.max(1)));
    let (serve, snapshots) =
        crate::serve::serve_bench_observed(sessions, threads, 12, Some(Arc::clone(&m)), 8);
    for page in &snapshots {
        metrics::lint::check(page).expect("periodic serve snapshot must lint clean");
    }
    let match_cfg = MatchConfig {
        games,
        tc: engine_server::TimeControl::from_millis(60, 5),
        tt_bits: 12,
        max_depth: 3,
    };
    let mr = run_match_with(
        Family::Checkers,
        EngineSpec::ErThreads { threads: 1 },
        EngineSpec::SerialId,
        &match_cfg,
        Some(Arc::clone(&m)),
    );
    let match_moves: u64 = mr.games.iter().map(|g| g.moves.len() as u64).sum();
    assert_eq!(
        m.match_move_depth.snapshot().count,
        match_moves,
        "one depth observation per played move"
    );
    assert_eq!(m.match_move_spend_ns.snapshot().count, match_moves);
    assert!(m.search_runs_total.value() > 0, "the workload ran searches");

    let page = m.expose();
    metrics::lint::check(&page).expect("final exposition page must lint clean");

    let bench = ObsBench {
        probe_depth,
        probe_seeds: PROBE_SEEDS,
        probes,
        serve_sessions: sessions,
        serve_completed: serve.completed,
        serve_snapshots: snapshots.len(),
        match_games: mr.games.len(),
        match_moves,
        workload_nps: m.nodes_per_sec(),
        tt_occupancy: m.tt_occupancy.ratio(),
        exposition_lines: page.lines().count(),
    };
    (bench, page)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gates_hold_on_a_short_run() {
        let (b, page) = obs_bench(8, 2, 1, 7);
        assert_eq!(b.probes.len(), PROBE_SEEDS as usize);
        for p in &b.probes {
            assert_eq!(p.value_off, p.value_on);
            assert_eq!(p.nodes_off, p.nodes_on);
        }
        assert_eq!(b.serve_completed, 8);
        assert!(b.match_moves > 0);
        assert!(page.contains("match_move_depth_bucket"));
        crate::json::to_pretty(&b);
    }
}
