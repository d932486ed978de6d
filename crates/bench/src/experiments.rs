//! The experiments behind every table and figure of the paper's
//! evaluation (§7), plus the baseline comparison the paper's §8 lists as
//! future work and an ablation of ER's speculation mechanisms.
//!
//! Each function returns a serializable result; `repro` prints the same
//! rows/series the paper reports and writes JSON next to them.

use gametree::{GamePosition, Value};
use problem_heap::CostModel;
use search_serial::{alphabeta, er_search, ErConfig, OrderPolicy};

use crate::json::impl_to_json;

use er_parallel::baselines::{
    run_aspiration_guess, run_mwf, run_pv_split, run_tree_split, ProcShape,
};
use er_parallel::{run_er_sim, ErParallelConfig, Speculation};

use crate::trees::TreeSpec;

/// Processor counts used for every efficiency/node curve (the paper's
/// figures run 1–16).
pub const PROCESSOR_COUNTS: [usize; 9] = [1, 2, 4, 6, 8, 10, 12, 14, 16];

/// One serial algorithm's cost on a tree.
#[derive(Clone, Copy, Debug)]
pub struct SerialCost {
    /// Nodes examined.
    pub nodes: u64,
    /// Static-evaluator calls (leaves + sorting probes).
    pub evals: u64,
    /// Virtual time in ticks.
    pub ticks: u64,
    /// Root value.
    pub value: i32,
}

/// Serial reference data for a tree: alpha-beta (sorted per policy) and
/// serial ER, and the better of the two ("the fastest serial algorithm",
/// §3).
#[derive(Clone, Copy, Debug)]
pub struct SerialReference {
    /// Sorted alpha-beta with deep cutoffs.
    pub alphabeta: SerialCost,
    /// Serial ER (Figure 8).
    pub er: SerialCost,
    /// min(alphabeta.ticks, er.ticks).
    pub best_ticks: u64,
}

/// Measures both serial algorithms on a tree.
pub fn serial_reference<P: GamePosition>(spec: &TreeSpec<P>, cost: &CostModel) -> SerialReference {
    let ab = alphabeta(&spec.root, spec.depth, spec.order);
    let er = er_search(&spec.root, spec.depth, ErConfig::new(spec.order));
    assert_eq!(
        ab.value, er.value,
        "{}: serial algorithms disagree",
        spec.name
    );
    let abc = SerialCost {
        nodes: ab.stats.nodes(),
        evals: ab.stats.eval_calls,
        ticks: cost.serial_ticks(&ab.stats),
        value: ab.value.get(),
    };
    let erc = SerialCost {
        nodes: er.stats.nodes(),
        evals: er.stats.eval_calls,
        ticks: cost.serial_ticks(&er.stats),
        value: er.value.get(),
    };
    SerialReference {
        alphabeta: abc,
        er: erc,
        best_ticks: abc.ticks.min(erc.ticks),
    }
}

/// One point of an ER efficiency/node curve.
#[derive(Clone, Copy, Debug)]
pub struct ErPoint {
    /// Simulated processors.
    pub processors: usize,
    /// Speedup vs the fastest serial algorithm.
    pub speedup: f64,
    /// Efficiency = speedup / processors.
    pub efficiency: f64,
    /// Nodes examined (Figures 12/13).
    pub nodes: u64,
    /// Virtual makespan in ticks.
    pub makespan: u64,
    /// Starvation ticks (idle processor time).
    pub starvation: u64,
}

/// One tree's full ER curve (Figures 10–13 series).
#[derive(Clone, Debug)]
pub struct ErCurve {
    /// Tree name.
    pub tree: String,
    /// Serial reference costs.
    pub serial: SerialReference,
    /// "Efficiency" of serial alpha-beta relative to the fastest serial
    /// algorithm (the paper's dashed reference line; < 1 when serial ER is
    /// faster).
    pub alphabeta_efficiency: f64,
    /// The curve, one point per processor count.
    pub points: Vec<ErPoint>,
}

/// Runs parallel ER over [`PROCESSOR_COUNTS`] on one tree (one series of
/// Figures 10/11 and 12/13).
pub fn er_curve<P: GamePosition>(spec: &TreeSpec<P>, cost: &CostModel) -> ErCurve {
    let serial = serial_reference(spec, cost);
    let cfg = ErParallelConfig {
        cost: *cost,
        ..ErParallelConfig::new(spec.serial_depth, spec.order)
    };
    let points = PROCESSOR_COUNTS
        .iter()
        .map(|&k| {
            let r = run_er_sim(&spec.root, spec.depth, k, &cfg);
            assert_eq!(
                r.value.get(),
                serial.alphabeta.value,
                "{} k={k}: parallel ER value mismatch",
                spec.name
            );
            ErPoint {
                processors: k,
                speedup: r.report.speedup(serial.best_ticks),
                efficiency: r.report.efficiency(serial.best_ticks),
                nodes: r.stats.nodes(),
                makespan: r.report.makespan,
                starvation: r.report.starvation_ticks(),
            }
        })
        .collect();
    ErCurve {
        tree: spec.name.to_string(),
        serial,
        alphabeta_efficiency: serial.best_ticks as f64 / serial.alphabeta.ticks as f64,
        points,
    }
}

/// One point of a baseline-comparison curve.
#[derive(Clone, Copy, Debug)]
pub struct BaselinePoint {
    /// Processors requested (tree-shaped algorithms may use fewer; see
    /// `actual`).
    pub requested: usize,
    /// Processors actually used.
    pub actual: usize,
    /// Speedup vs the fastest serial algorithm.
    pub speedup: f64,
    /// Nodes examined.
    pub nodes: u64,
}

/// A baseline algorithm's curve on one tree.
#[derive(Clone, Debug)]
pub struct BaselineCurve {
    /// Algorithm name.
    pub algorithm: String,
    /// Tree name.
    pub tree: String,
    /// Points per processor count.
    pub points: Vec<BaselinePoint>,
}

/// Compares ER against the §4 baselines on one tree.
pub fn baseline_curves<P: GamePosition>(
    spec: &TreeSpec<P>,
    cost: &CostModel,
) -> Vec<BaselineCurve> {
    let serial = serial_reference(spec, cost);
    let sb = serial.best_ticks;
    let expected = Value::new(serial.alphabeta.value);
    let mut curves = Vec::new();

    let er_cfg = ErParallelConfig {
        cost: *cost,
        ..ErParallelConfig::new(spec.serial_depth, spec.order)
    };
    curves.push(BaselineCurve {
        algorithm: "ER".into(),
        tree: spec.name.into(),
        points: PROCESSOR_COUNTS
            .iter()
            .map(|&k| {
                let r = run_er_sim(&spec.root, spec.depth, k, &er_cfg);
                assert_eq!(r.value, expected);
                BaselinePoint {
                    requested: k,
                    actual: k,
                    speedup: r.report.speedup(sb),
                    nodes: r.stats.nodes(),
                }
            })
            .collect(),
    });

    curves.push(BaselineCurve {
        algorithm: "MWF".into(),
        tree: spec.name.into(),
        points: PROCESSOR_COUNTS
            .iter()
            .map(|&k| {
                let r = run_mwf(
                    &spec.root,
                    spec.depth,
                    k,
                    spec.serial_depth,
                    spec.order,
                    cost,
                );
                assert_eq!(r.value, expected);
                BaselinePoint {
                    requested: k,
                    actual: k,
                    speedup: sb as f64 / r.report.makespan as f64,
                    nodes: r.stats.nodes(),
                }
            })
            .collect(),
    });

    // Aspiration gets a realistic guess: the exact value of a two-ply
    // shallower search, as an iterative-deepening driver would hold.
    let guess = alphabeta(&spec.root, spec.depth.saturating_sub(2), spec.order).value;
    curves.push(BaselineCurve {
        algorithm: "Aspiration".into(),
        tree: spec.name.into(),
        points: PROCESSOR_COUNTS
            .iter()
            .map(|&k| {
                let r =
                    run_aspiration_guess(&spec.root, spec.depth, guess, k, 60, spec.order, cost);
                assert_eq!(r.value, expected);
                BaselinePoint {
                    requested: k,
                    actual: k,
                    speedup: sb as f64 / r.makespan as f64,
                    nodes: r.stats.nodes(),
                }
            })
            .collect(),
    });

    for (name, run_pv) in [("TreeSplit", false), ("PVSplit", true)] {
        curves.push(BaselineCurve {
            algorithm: name.into(),
            tree: spec.name.into(),
            points: PROCESSOR_COUNTS
                .iter()
                .map(|&k| {
                    let shape = ProcShape::best_for(k);
                    if run_pv {
                        let r = run_pv_split(&spec.root, spec.depth, shape, spec.order, cost);
                        assert_eq!(r.value, expected);
                        BaselinePoint {
                            requested: k,
                            actual: r.processors,
                            speedup: sb as f64 / r.makespan as f64,
                            nodes: r.stats.nodes(),
                        }
                    } else {
                        let r = run_tree_split(&spec.root, spec.depth, shape, spec.order, cost);
                        assert_eq!(r.value, expected);
                        BaselinePoint {
                            requested: k,
                            actual: r.processors,
                            speedup: sb as f64 / r.makespan as f64,
                            nodes: r.stats.nodes(),
                        }
                    }
                })
                .collect(),
        });
    }
    curves
}

/// One ablation configuration's curve.
#[derive(Clone, Debug)]
pub struct AblationCurve {
    /// Which mechanisms were on.
    pub config: String,
    /// Tree name.
    pub tree: String,
    /// (processors, speedup, nodes) triples.
    pub points: Vec<ErPoint>,
}

/// Ablates the three speculation mechanisms of §5 on one tree.
pub fn ablation_curves<P: GamePosition>(
    spec: &TreeSpec<P>,
    cost: &CostModel,
) -> Vec<AblationCurve> {
    let serial = serial_reference(spec, cost);
    let configs: [(&str, Speculation); 5] = [
        ("all", Speculation::ALL),
        ("none", Speculation::NONE),
        (
            "no-parallel-refutation",
            Speculation {
                parallel_refutation: false,
                ..Speculation::ALL
            },
        ),
        (
            "no-multiple-enodes",
            Speculation {
                multiple_enodes: false,
                ..Speculation::ALL
            },
        ),
        (
            "no-early-choice",
            Speculation {
                early_choice: false,
                ..Speculation::ALL
            },
        ),
    ];
    let base = ErParallelConfig {
        cost: *cost,
        ..ErParallelConfig::new(spec.serial_depth, spec.order)
    };
    configs
        .iter()
        .map(|(name, spec_flags)| {
            let cfg = ErParallelConfig {
                spec: *spec_flags,
                ..base
            };
            AblationCurve {
                config: name.to_string(),
                tree: spec.name.to_string(),
                points: [1usize, 4, 8, 16]
                    .iter()
                    .map(|&k| {
                        let r = run_er_sim(&spec.root, spec.depth, k, &cfg);
                        ErPoint {
                            processors: k,
                            speedup: r.report.speedup(serial.best_ticks),
                            efficiency: r.report.efficiency(serial.best_ticks),
                            nodes: r.stats.nodes(),
                            makespan: r.report.makespan,
                            starvation: r.report.starvation_ticks(),
                        }
                    })
                    .collect(),
            }
        })
        .collect()
}

/// Akl-style wide shallow tree where MWF exhibits its classic
/// rises-then-plateaus shape (§4.2 reports simulations on "four-ply
/// random game trees of various fixed degrees" plateauing near six).
#[derive(Clone, Debug)]
pub struct MwfPlateau {
    /// Tree degree.
    pub degree: u32,
    /// Edge-noise amplitude of the incremental tree (ordering quality).
    pub noise: i32,
    /// (processors, speedup) pairs.
    pub points: Vec<(usize, f64)>,
}

/// Reproduces Akl's MWF plateau on wide four-ply trees.
///
/// Akl's exact tree statistics are not recoverable; on fully unordered
/// uniform trees MWF's speculative phases serialize almost completely
/// (plateau near 1), while on moderately ordered incremental trees —
/// where refutations usually succeed, as they do when any reasonable
/// evaluator orders the moves — the reported shape appears: speedup rises
/// quickly, then plateaus with negligible gains past ~12 processors. Both
/// regimes are emitted.
pub fn mwf_plateau(cost: &CostModel) -> Vec<MwfPlateau> {
    let mut out = Vec::new();
    for (degree, noise) in [(16u32, 150i32), (16, 10_000)] {
        let root = gametree::ordered::OrderedTreeSpec {
            seed: 7,
            degree,
            height: 4,
            step: 100,
            noise,
        }
        .root();
        let ab = alphabeta(&root, 4, OrderPolicy::NATURAL);
        let sb = cost.serial_ticks(&ab.stats);
        let points = [1usize, 2, 4, 6, 8, 10, 12, 16, 24, 32]
            .iter()
            .map(|&k| {
                let r = run_mwf(&root, 4, k, 2, OrderPolicy::NATURAL, cost);
                assert_eq!(r.value, ab.value);
                (k, sb as f64 / r.report.makespan as f64)
            })
            .collect();
        out.push(MwfPlateau {
            degree,
            noise,
            points,
        });
    }
    out
}

/// One row of the work-classification table (`repro overhead`).
#[derive(Clone, Debug)]
pub struct OverheadRow {
    /// Tree name.
    pub tree: String,
    /// Processors.
    pub processors: usize,
    /// Serial alpha-beta's node set size (mandatory work, §3).
    pub mandatory: usize,
    /// Nodes examined by parallel ER.
    pub examined: usize,
    /// Speculative nodes (examined but not mandatory).
    pub speculative: usize,
    /// Mandatory nodes skipped via extra cutoffs.
    pub mandatory_skipped: usize,
    /// speculative / examined.
    pub speculative_fraction: f64,
}

/// Classifies parallel ER's work against serial alpha-beta's node set on
/// one tree across processor counts (forced fully in-tree; see
/// `er_parallel::mandatory`).
pub fn overhead_rows<P: GamePosition>(spec: &TreeSpec<P>, cost: &CostModel) -> Vec<OverheadRow> {
    let cfg = ErParallelConfig {
        cost: *cost,
        ..ErParallelConfig::new(0, spec.order)
    };
    [1usize, 4, 8, 16]
        .iter()
        .map(|&k| {
            let r = er_parallel::mandatory::classify_er_run(&spec.root, spec.depth, k, &cfg);
            OverheadRow {
                tree: spec.name.to_string(),
                processors: k,
                mandatory: r.mandatory,
                examined: r.examined,
                speculative: r.speculative,
                mandatory_skipped: r.mandatory_skipped,
                speculative_fraction: r.speculative_fraction(),
            }
        })
        .collect()
}

/// One row of the parameter sweep (`repro sweep`).
#[derive(Clone, Debug)]
pub struct SweepRow {
    /// Serial depth used.
    pub serial_depth: u32,
    /// Heap-lock service time in ticks.
    pub heap_latency: u64,
    /// Static-evaluation cost in ticks.
    pub eval_cost: u64,
    /// Processors.
    pub processors: usize,
    /// Speedup vs the fastest serial algorithm under the same cost model.
    pub speedup: f64,
    /// Nodes examined.
    pub nodes: u64,
}

/// Sensitivity of parallel ER to its knobs on R1: serial depth (work
/// granularity), heap-lock latency (interference), and evaluation cost
/// (leaf- vs scaffolding-dominance). The design choices DESIGN.md calls
/// out, measured.
pub fn sweep_rows() -> Vec<SweepRow> {
    let spec = &crate::trees::random_trees()[0];
    let mut rows = Vec::new();
    for eval_cost in [1u64, 8] {
        for heap_latency in [0u64, 1, 4] {
            let cost = CostModel {
                expand: 2,
                eval: eval_cost,
                heap_latency,
            };
            let serial = serial_reference(spec, &cost);
            for serial_depth in [5u32, 6, 7, 8] {
                let cfg = ErParallelConfig {
                    cost,
                    ..ErParallelConfig::new(serial_depth, spec.order)
                };
                for k in [4usize, 16] {
                    let r = run_er_sim(&spec.root, spec.depth, k, &cfg);
                    rows.push(SweepRow {
                        serial_depth,
                        heap_latency,
                        eval_cost,
                        processors: k,
                        speedup: r.report.speedup(serial.best_ticks),
                        nodes: r.stats.nodes(),
                    });
                }
            }
        }
    }
    rows
}

/// One row of the workload-characterization table (`repro ordering`).
#[derive(Clone, Debug)]
pub struct OrderingRow {
    /// Workload name.
    pub tree: String,
    /// Depth the measurement truncated at.
    pub depth: u32,
    /// Whether children were sorted by static value first.
    pub sorted: bool,
    /// Marsland first-branch-best rate (strong ordering needs >= 0.70).
    pub first_best: f64,
    /// Best-in-first-quarter rate (strong ordering needs >= 0.90).
    pub quarter_best: f64,
    /// Mean branching factor.
    pub mean_degree: f64,
    /// Meets both thresholds.
    pub strongly_ordered: bool,
}

fn ordering_row<P: GamePosition>(name: &str, root: &P, depth: u32, sorted: bool) -> OrderingRow {
    let stats = if sorted {
        gametree::analysis::measure_ordering(root, depth, |_, _, mut kids: Vec<P>| {
            kids.sort_by_key(|c| c.evaluate());
            kids
        })
    } else {
        gametree::analysis::measure_ordering(root, depth, |_, _, kids| kids)
    };
    OrderingRow {
        tree: name.to_string(),
        depth,
        sorted,
        first_best: stats.first_best_rate(),
        quarter_best: stats.quarter_best_rate(),
        mean_degree: stats.mean_degree(),
        strongly_ordered: stats.is_strongly_ordered(),
    }
}

/// Measures Marsland's §4.4 strong-ordering metric on every workload —
/// the explanation for why the algorithms separate so differently across
/// random, Othello, and checkers trees. (Exhaustive evaluation, so the
/// real-game measurements truncate at a shallower depth.)
pub fn ordering_rows() -> Vec<OrderingRow> {
    let mut rows = Vec::new();
    for t in crate::trees::random_trees() {
        // Degree^5 stays tractable for every random tree.
        let depth = t.depth.min(5);
        rows.push(ordering_row(t.name, &t.root, depth, false));
    }
    for t in crate::trees::othello_trees() {
        rows.push(ordering_row(t.name, &t.root, 4, false));
        rows.push(ordering_row(t.name, &t.root, 4, true));
    }
    let c = crate::trees::checkers_tree();
    rows.push(ordering_row(c.name, &c.root, 6, false));
    rows.push(ordering_row(c.name, &c.root, 6, true));
    rows
}

/// Primary aspiration half-width for the dynamic-ordering experiment:
/// wide enough that O1's depth-to-depth root drift stays inside every
/// window (zero re-searches), narrow enough to prune hard.
pub const DYN_ORDERING_DELTA: i32 = 40;

/// Deliberately too-tight secondary half-width: O1's early iterations
/// fail outside it, exercising the fail-high/low re-search accounting the
/// wider setting never triggers.
pub const DYN_ORDERING_DELTA_TIGHT: i32 = 25;

/// One deterministic-simulator measurement of the dynamic-ordering stack:
/// a full iterative-deepening loop over O1 at one worker count, under one
/// configuration of the {killer/history tables, aspiration windows} pair.
/// Node counts are byte-reproducible — the simulator is single-threaded
/// and seedless — so equal rows across two runs mean equal behavior, not
/// just equal summaries.
#[derive(Clone, Debug, PartialEq)]
pub struct DynOrderingRow {
    /// Table 3 tree name (O1).
    pub tree: String,
    /// Simulated workers.
    pub workers: usize,
    /// Configuration label: `baseline`, `aspiration`, `ordering`,
    /// `ordering+aspiration`, or `ordering+aspiration-tight`.
    pub config: String,
    /// Aspiration half-width (0 = full windows at every depth).
    pub delta: i32,
    /// Deepest iteration searched.
    pub max_depth: u32,
    /// Final root value — asserted identical across every configuration.
    pub value: i32,
    /// Nodes examined, summed over all iterations (and re-searches).
    pub nodes: u64,
    /// Probes that landed strictly inside their narrowed window.
    pub window_hits: u64,
    /// Widened re-searches after a probe failed high or low.
    pub re_searches: u64,
    /// Beta cutoffs by a move the tables listed as a current killer.
    pub killer_hits: u64,
    /// Beta cutoffs by a history-ranked non-killer.
    pub history_hits: u64,
    /// `nodes / baseline nodes` at the same worker count.
    pub nodes_vs_baseline: f64,
}

/// Accumulated outcome of one simulated deepening loop.
#[derive(Clone)]
struct SimIdRun {
    value: Value,
    nodes: u64,
    window_hits: u64,
    re_searches: u64,
    killer_hits: u64,
    history_hits: u64,
}

/// Runs the one deepening driver ([`er_parallel::IdStepper`]: full window
/// at depth 1, `±delta` probe after, one widened re-search on failure) over
/// the deterministic simulator, with or without shared killer/history
/// tables aged before every depth after the first. `ordering == false,
/// delta == 0` is bit-identical to the plain `run_er_sim` loop — the PR-5
/// baseline.
fn sim_id_run<P: GamePosition>(
    root: &P,
    max_depth: u32,
    workers: usize,
    cfg: &ErParallelConfig,
    ordering: bool,
    delta: i32,
) -> SimIdRun {
    use er_parallel::{run_er_sim_with, AspirationConfig, Hooks, IdStepper, SearchControl};
    use search_serial::OrderingTables;

    let tables = OrderingTables::new();
    let ctl = SearchControl::unlimited();
    let mut stepper = IdStepper::new(root.evaluate(), AspirationConfig { delta, ordering });
    let (mut killer_hits, mut history_hits) = (0, 0);
    for depth in 1..=max_depth {
        if ordering && depth > 1 {
            tables.age();
        }
        stepper
            .step_with(depth, &ctl, (), |d, w, _| {
                let r = if ordering {
                    let hooks = Hooks::default().with_ord(&tables);
                    run_er_sim_with(root, d, w, workers, cfg, hooks)
                } else {
                    run_er_sim_with(root, d, w, workers, cfg, Hooks::default())
                };
                killer_hits += r.stats.killer_hits;
                history_hits += r.stats.history_hits;
                Ok((r.value, r.stats))
            })
            .expect("an unlimited simulated step cannot abort");
    }
    let r = stepper.into_result();
    SimIdRun {
        value: r.value,
        nodes: r.total_nodes(),
        window_hits: r.window_hits,
        re_searches: r.re_searches,
        killer_hits,
        history_hits,
    }
}

/// The dynamic-ordering grid: O1 at Table 3 settings in the deterministic
/// simulator, at each requested worker count, under five configurations —
/// the PR-5 baseline, each mechanism alone, both together at the primary
/// half-width, and both at the deliberately tight half-width that forces
/// re-searches. Every configuration's final root value is asserted equal
/// to the baseline's before a row is recorded.
pub fn dyn_ordering_rows(worker_counts: &[usize]) -> Vec<DynOrderingRow> {
    let o1 = &crate::trees::othello_trees()[0];
    let cfg = ErParallelConfig::new(o1.serial_depth, o1.order);
    let configs: [(&str, bool, i32); 5] = [
        ("baseline", false, 0),
        ("aspiration", false, DYN_ORDERING_DELTA),
        ("ordering", true, 0),
        ("ordering+aspiration", true, DYN_ORDERING_DELTA),
        ("ordering+aspiration-tight", true, DYN_ORDERING_DELTA_TIGHT),
    ];
    let mut rows = Vec::new();
    for &workers in worker_counts {
        let baseline = sim_id_run(&o1.root, o1.depth, workers, &cfg, false, 0);
        for (config, ordering, delta) in configs {
            let r = if ordering || delta > 0 {
                sim_id_run(&o1.root, o1.depth, workers, &cfg, ordering, delta)
            } else {
                baseline.clone()
            };
            assert_eq!(
                r.value, baseline.value,
                "{config} at {workers} workers changed the root value"
            );
            rows.push(DynOrderingRow {
                tree: o1.name.to_string(),
                workers,
                config: config.to_string(),
                delta,
                max_depth: o1.depth,
                value: r.value.get(),
                nodes: r.nodes,
                window_hits: r.window_hits,
                re_searches: r.re_searches,
                killer_hits: r.killer_hits,
                history_hits: r.history_hits,
                nodes_vs_baseline: r.nodes as f64 / baseline.nodes.max(1) as f64,
            });
        }
    }
    rows
}

/// One threaded back-end measurement: a tree searched with real OS
/// threads at a given thread count, with the contention counters that
/// justify the decomposed-lock design.
#[derive(Clone, Debug)]
pub struct ThreadsRow {
    /// Table 3 tree name.
    pub tree: String,
    /// Search depth in plies.
    pub depth: u32,
    /// Serial depth (0 = every leaf flows through the heap, making the
    /// memoized-evaluation savings directly countable).
    pub serial_depth: u32,
    /// OS threads used.
    pub threads: usize,
    /// Root value (asserted equal to serial alpha-beta before recording).
    pub value: i32,
    /// Nodes examined (may vary with thread scheduling; the value never).
    pub nodes: u64,
    /// Static-evaluator calls actually made.
    pub eval_calls: u64,
    /// Leaves settled from memoized sorting probes — evaluator calls the
    /// seed back-end would have made twice.
    pub cached_leaf_hits: u64,
    /// Evaluator calls the seed back-end would have made for the same heap
    /// jobs: every cached-leaf hit re-charged.
    pub seed_eval_calls: u64,
    /// Mutex acquisitions across all threads.
    pub lock_acquisitions: u64,
    /// Selection batches refilled.
    pub select_batches: u64,
    /// Jobs executed outside the lock.
    pub jobs_executed: u64,
    /// Targeted `notify_one` wake-ups issued.
    pub wakeups: u64,
    /// Times a thread parked on the idle condvar.
    pub idle_parks: u64,
    /// Acquisitions the seed design (lock per select + lock per apply)
    /// would have needed for the same jobs: `2 * jobs_executed`.
    pub seed_acquisitions: u64,
    /// `seed_acquisitions / lock_acquisitions` — the contention reduction.
    pub acquisition_ratio: f64,
    /// Wall-clock milliseconds.
    pub elapsed_ms: f64,
}

impl ThreadsRow {
    /// Whether `other` followed the same schedule: equal value, node and
    /// evaluator counts, and the same use of the lock and the queues.
    pub fn same_schedule(&self, other: &ThreadsRow) -> bool {
        (
            self.value,
            self.nodes,
            self.eval_calls,
            self.cached_leaf_hits,
            self.lock_acquisitions,
            self.select_batches,
            self.jobs_executed,
        ) == (
            other.value,
            other.nodes,
            other.eval_calls,
            other.cached_leaf_hits,
            other.lock_acquisitions,
            other.select_batches,
            other.jobs_executed,
        )
    }
}

/// Parallel refutation alone: the one mechanism that never feeds the
/// speculative queue.
pub const REFUTATION_ONLY: Speculation = Speculation {
    parallel_refutation: true,
    ..Speculation::NONE
};

fn threads_row<P: GamePosition>(
    name: &str,
    root: &P,
    depth: u32,
    serial_depth: u32,
    order: OrderPolicy,
    threads: usize,
    spec: Speculation,
) -> ThreadsRow {
    let cfg = ErParallelConfig {
        spec,
        ..ErParallelConfig::new(serial_depth, order)
    };
    let r = er_parallel::run_er_threads(root, depth, threads, &cfg);
    let exact = alphabeta(root, depth, order).value;
    assert_eq!(
        r.value, exact,
        "{name}: threaded back-end disagrees with alpha-beta"
    );
    let c = r.counters();
    let seed_acquisitions = 2 * c.jobs_executed;
    ThreadsRow {
        tree: name.to_string(),
        depth,
        serial_depth,
        threads,
        value: r.value.get(),
        nodes: r.stats.nodes(),
        eval_calls: r.stats.eval_calls,
        cached_leaf_hits: r.cached_leaf_hits,
        seed_eval_calls: r.stats.eval_calls + r.cached_leaf_hits,
        lock_acquisitions: c.lock_acquisitions,
        select_batches: c.select_batches,
        jobs_executed: c.jobs_executed,
        wakeups: c.wakeups,
        idle_parks: c.idle_parks,
        seed_acquisitions,
        acquisition_ratio: seed_acquisitions as f64 / c.lock_acquisitions.max(1) as f64,
        elapsed_ms: r.elapsed.as_secs_f64() * 1e3,
    }
}

/// The threaded back-end grid.
///
/// * **R1 at Table 3 settings** (no sorting): the pure locking win —
///   `acquisition_ratio` records how far fused + batched acquisitions
///   undercut the seed's two-locks-per-job design.
/// * **O1 at Table 3 settings** (sorted above ply five): the real Othello
///   workload on real threads.
/// * **O1 at `serial_depth = 0`, reduced depth**: every leaf flows
///   through the heap, so `cached_leaf_hits` counts exactly the evaluator
///   calls the seed would have made twice — `eval_calls` vs
///   `seed_eval_calls` is the memoization win.
///
/// Each at 1 and 4 threads, with all three speculation mechanisms on.
pub fn threads_rows() -> Vec<ThreadsRow> {
    let mut rows = Vec::new();
    let r1 = &crate::trees::random_trees()[0];
    let o1 = &crate::trees::othello_trees()[0];
    for &threads in &[1usize, 4] {
        rows.push(table3_threads_row(r1, threads, Speculation::ALL));
        rows.push(table3_threads_row(o1, threads, Speculation::ALL));
        rows.push(threads_row(
            o1.name,
            &o1.root,
            5,
            0,
            o1.order,
            threads,
            Speculation::ALL,
        ));
    }
    rows
}

fn table3_threads_row<P: GamePosition>(
    tree: &TreeSpec<P>,
    threads: usize,
    spec: Speculation,
) -> ThreadsRow {
    threads_row(
        tree.name,
        &tree.root,
        tree.depth,
        tree.serial_depth,
        tree.order,
        threads,
        spec,
    )
}

/// R1 and O1 at Table 3 settings on one thread with
/// [`REFUTATION_ONLY`]. A refill takes speculative work only while its
/// take is empty, and a lone worker is never starved while the search is
/// live, so these rows must follow exactly the schedule of the
/// one-thread [`threads_rows`] entries.
pub fn one_thread_refutation_rows() -> Vec<ThreadsRow> {
    vec![
        table3_threads_row(&crate::trees::random_trees()[0], 1, REFUTATION_ONLY),
        table3_threads_row(&crate::trees::othello_trees()[0], 1, REFUTATION_ONLY),
    ]
}

/// One scaling measurement: a Table 3 tree searched by the threaded
/// back-end at one thread count.
///
/// The paper's §3.1 argument is that a single shared problem heap
/// serializes processors on its lock as they multiply; the counters here
/// measure that serial fraction on real threads as the work-stealing
/// layer (per-worker deques, steal-before-park, adaptive batch, position
/// arena) runs it.
#[derive(Clone, Debug)]
pub struct ScalingRow {
    /// Table 3 tree name.
    pub tree: String,
    /// Search depth in plies.
    pub depth: u32,
    /// Serial depth (Table 3 setting).
    pub serial_depth: u32,
    /// OS threads used.
    pub threads: usize,
    /// Independent repetitions folded into this row. OS scheduling makes
    /// any single run's counters noisy (±10% swings on a loaded host);
    /// every counter below is summed over the repetitions, so the ratios
    /// compare means over several schedules.
    pub reps: u32,
    /// Root value (asserted equal to serial alpha-beta on every rep).
    pub value: i32,
    /// Nodes examined, summed over reps (varies with thread scheduling;
    /// the value never).
    pub nodes: u64,
    /// Jobs executed outside the lock, summed over reps.
    pub jobs_executed: u64,
    /// Heap-mutex acquisitions across all threads, summed over reps.
    pub lock_acquisitions: u64,
    /// `lock_acquisitions / jobs_executed` — the contention figure of
    /// merit; lower is better.
    pub acq_per_job: f64,
    /// Steal attempts across all workers (0 at one thread).
    pub steal_attempts: u64,
    /// Steals that yielded a job.
    pub steal_hits: u64,
    /// Mean nanoseconds spent waiting for the heap mutex per acquisition.
    pub mean_lock_wait_nanos: f64,
    /// Nanoseconds the mutex was held, summed over all acquisitions.
    pub lock_hold_nanos: u64,
    /// Positions published to the lock-free arena (refcount bumps).
    pub arena_publishes: u64,
    /// Adaptive batch-size increases (0 at one thread).
    pub batch_grows: u64,
    /// Adaptive batch-size decreases (0 at one thread).
    pub batch_shrinks: u64,
    /// Wall-clock milliseconds, summed over reps.
    pub elapsed_ms: f64,
}

/// Repetitions folded into each scaling row (see [`ScalingRow::reps`]).
pub const SCALING_REPS: u32 = 3;

fn scaling_row<P: GamePosition>(tree: &TreeSpec<P>, threads: usize) -> ScalingRow {
    use problem_heap::ThreadCounters;
    let (name, root, depth, serial_depth, order) = (
        tree.name,
        &tree.root,
        tree.depth,
        tree.serial_depth,
        tree.order,
    );
    let cfg = ErParallelConfig::new(serial_depth, order);
    let exact = alphabeta(root, depth, order).value;
    let mut c = ThreadCounters::default();
    let mut nodes = 0u64;
    let mut elapsed_ms = 0.0f64;
    for _ in 0..SCALING_REPS {
        let r = er_parallel::run_er_threads(root, depth, threads, &cfg);
        assert_eq!(
            r.value, exact,
            "{name}@{threads}: threaded back-end disagrees with alpha-beta"
        );
        c.merge(&r.counters());
        nodes += r.stats.nodes();
        elapsed_ms += r.elapsed.as_secs_f64() * 1e3;
    }
    ScalingRow {
        tree: name.to_string(),
        depth,
        serial_depth,
        threads,
        reps: SCALING_REPS,
        value: exact.get(),
        nodes,
        jobs_executed: c.jobs_executed,
        lock_acquisitions: c.lock_acquisitions,
        acq_per_job: c.acquisitions_per_job(),
        steal_attempts: c.steal_attempts,
        steal_hits: c.steal_hits,
        mean_lock_wait_nanos: c.mean_lock_wait_nanos(),
        lock_hold_nanos: c.lock_hold_nanos,
        arena_publishes: c.arena_publishes,
        batch_grows: c.batch_grows,
        batch_shrinks: c.batch_shrinks,
        elapsed_ms,
    }
}

/// The scaling grid: R1 and O1 at Table 3 settings, at each requested
/// thread count.
///
/// Every row's root value is asserted against serial alpha-beta; the
/// cross-row check (steal hits) lives in `repro scaling`, which knows which
/// thread counts were requested.
pub fn scaling_rows(thread_counts: &[usize]) -> Vec<ScalingRow> {
    let r1 = &crate::trees::random_trees()[0];
    let o1 = &crate::trees::othello_trees()[0];
    let mut rows = Vec::new();
    for &threads in thread_counts {
        rows.push(scaling_row(r1, threads));
        rows.push(scaling_row(o1, threads));
    }
    rows
}

/// One row of the `deadline` experiment: the anytime iterative-deepening
/// driver under a wall-clock budget (`kind == "anytime"`), or a full-budget
/// equality check against the fixed-depth back-end (`kind == "equality"`).
#[derive(Clone, Debug)]
pub struct DeadlineRow {
    /// Table 3 tree name.
    pub tree: String,
    /// `"anytime"` (budget sweep) or `"equality"` (unlimited-budget check).
    pub kind: String,
    /// OS threads used.
    pub threads: usize,
    /// Depth ceiling handed to the driver.
    pub max_depth: u32,
    /// Wall-clock budget in milliseconds; `None` means unlimited.
    pub budget_ms: Option<f64>,
    /// Deepest fully-completed depth (0 = static fallback only).
    pub depth_completed: u32,
    /// Root value of the deepest completed depth.
    pub value: i32,
    /// Nodes examined across all completed iterations.
    pub nodes: u64,
    /// Why deepening stopped (`"deadline"`, `"cancelled"`, `"panic"`), or
    /// `None` when `max_depth` completed within budget.
    pub stopped: Option<String>,
    /// Total wall-clock time of the run.
    pub elapsed_ms: f64,
    /// How far past the budget the run kept going before every worker
    /// observed the trip and joined (0 when the budget was not exceeded).
    /// The `repro deadline` harness asserts this stays bounded.
    pub grace_ms: f64,
    /// For `"equality"` rows: the fixed-depth run's value matched exactly.
    pub matches_fixed_depth: bool,
}

fn deadline_anytime_row<P: GamePosition>(
    tree: &TreeSpec<P>,
    threads: usize,
    budget: Option<std::time::Duration>,
) -> DeadlineRow {
    use er_parallel::{run_er_threads_id, AspirationConfig, Hooks, SearchControl};
    let cfg = ErParallelConfig::new(tree.serial_depth, tree.order);
    let ctl = match budget {
        Some(b) => SearchControl::with_budget(b),
        None => SearchControl::unlimited(),
    };
    let id = run_er_threads_id(
        &tree.root,
        tree.depth,
        threads,
        &cfg,
        AspirationConfig::OFF,
        Hooks::default().with_ctl(&ctl),
    );
    let elapsed_ms = id.elapsed.as_secs_f64() * 1e3;
    let grace_ms = match budget {
        Some(b) => (elapsed_ms - b.as_secs_f64() * 1e3).max(0.0),
        None => 0.0,
    };
    DeadlineRow {
        tree: tree.name.to_string(),
        kind: "anytime".to_string(),
        threads,
        max_depth: tree.depth,
        budget_ms: budget.map(|b| b.as_secs_f64() * 1e3),
        depth_completed: id.depth_completed,
        value: id.value.get(),
        nodes: id.total_nodes(),
        stopped: id.stopped.map(|r| r.label().to_string()),
        elapsed_ms,
        grace_ms,
        matches_fixed_depth: false,
    }
}

fn deadline_equality_row<P: GamePosition>(tree: &TreeSpec<P>, threads: usize) -> DeadlineRow {
    use er_parallel::{run_er_threads, run_er_threads_id, AspirationConfig, Hooks};
    let cfg = ErParallelConfig::new(tree.serial_depth, tree.order);
    let fixed = run_er_threads(&tree.root, tree.depth, threads, &cfg);
    let id = run_er_threads_id(
        &tree.root,
        tree.depth,
        threads,
        &cfg,
        AspirationConfig::OFF,
        Hooks::default(),
    );
    assert_eq!(
        id.value, fixed.value,
        "{}: full-budget anytime value must be bit-identical to the \
         fixed-depth run",
        tree.name
    );
    assert_eq!(id.depth_completed, tree.depth, "{}: all depths", tree.name);
    assert!(id.stopped.is_none(), "{}: nothing tripped", tree.name);
    DeadlineRow {
        tree: tree.name.to_string(),
        kind: "equality".to_string(),
        threads,
        max_depth: tree.depth,
        budget_ms: None,
        depth_completed: id.depth_completed,
        value: id.value.get(),
        nodes: id.total_nodes(),
        stopped: None,
        elapsed_ms: id.elapsed.as_secs_f64() * 1e3,
        grace_ms: 0.0,
        matches_fixed_depth: true,
    }
}

/// The `deadline` experiment: an anytime profile of R1 under shrinking
/// wall-clock budgets, plus full-budget equality checks (anytime value ==
/// fixed-depth value, asserted inside) on R1, O1 and the checkers tree.
pub fn deadline_rows(threads: usize) -> Vec<DeadlineRow> {
    use std::time::Duration;
    let r1 = &crate::trees::random_trees()[0];
    let o1 = &crate::trees::othello_trees()[0];
    let c1 = crate::trees::checkers_tree();
    let mut rows = Vec::new();
    for budget_ms in [1u64, 5, 20, 100] {
        rows.push(deadline_anytime_row(
            r1,
            threads,
            Some(Duration::from_millis(budget_ms)),
        ));
    }
    rows.push(deadline_anytime_row(r1, threads, None));
    rows.push(deadline_equality_row(r1, threads));
    rows.push(deadline_equality_row(o1, threads));
    rows.push(deadline_equality_row(&c1, threads));
    rows
}

/// One transposition-table measurement: a Table 3 tree searched with the
/// shared table on (`tt_bits > 0`) or off (`tt_bits == 0`), at a given
/// worker count, by either back-end.
#[derive(Clone, Debug)]
pub struct TtRow {
    /// Which back-end ran: `"sim"` (deterministic virtual processors —
    /// node counts compare exactly) or `"threads"` (real OS threads —
    /// node counts vary with scheduling, values never).
    pub backend: String,
    /// Table 3 tree name.
    pub tree: String,
    /// Search depth in plies.
    pub depth: u32,
    /// Serial depth (Table 3 setting).
    pub serial_depth: u32,
    /// OS threads sharing the one table.
    pub threads: usize,
    /// log2 of table capacity in entries; 0 means the table is off.
    pub tt_bits: u32,
    /// Root value (asserted equal to serial alpha-beta before recording).
    pub value: i32,
    /// Nodes examined.
    pub nodes: u64,
    /// Static-evaluator calls actually made.
    pub eval_calls: u64,
    /// Table probes over the run (0 when off).
    pub probes: u64,
    /// Probes that validated an entry.
    pub hits: u64,
    /// Hits carrying an exact value.
    pub exact_hits: u64,
    /// Stored best moves spliced to the front of a child ordering.
    pub hint_hits: u64,
    /// Store calls.
    pub stores: u64,
    /// Stores overwriting a live entry.
    pub replacements: u64,
    /// Live same-generation entries evicted by a different key.
    pub collisions: u64,
    /// `hits / probes` (0 when off).
    pub hit_rate: f64,
    /// Sampled end-of-run fill rate in `[0, 1]`
    /// ([`tt::TranspositionTable::occupancy_sample`] over 1024 buckets —
    /// the same sampler the metrics gauge reads; 0 when off).
    pub occupancy: f64,
    /// Wall-clock milliseconds.
    pub elapsed_ms: f64,
}

#[allow(clippy::too_many_arguments)]
fn tt_row<P: GamePosition + tt::Zobrist>(
    backend: &str,
    name: &str,
    root: &P,
    depth: u32,
    serial_depth: u32,
    order: OrderPolicy,
    threads: usize,
    bits: u32,
) -> TtRow {
    use er_parallel::{run_er_sim_with, run_er_threads, run_er_threads_with, Hooks};
    use gametree::Window;
    let cfg = ErParallelConfig::new(serial_depth, order);
    // A fresh table per configuration keeps rows independent.
    let table = tt::TranspositionTable::with_bits(bits.max(2));
    let (value, stats, tt_stats, elapsed_ms) = match (backend, bits) {
        ("sim", 0) => {
            let r = er_parallel::run_er_sim(root, depth, threads, &cfg);
            (r.value, r.stats, tt::TtStats::default(), 0.0)
        }
        ("sim", _) => {
            let r = run_er_sim_with(
                root,
                depth,
                Window::FULL,
                threads,
                &cfg,
                Hooks::default().with_tt(&table),
            );
            (r.value, r.stats, table.stats(), 0.0)
        }
        (_, 0) => {
            let r = run_er_threads(root, depth, threads, &cfg);
            (
                r.value,
                r.stats,
                tt::TtStats::default(),
                r.elapsed.as_secs_f64() * 1e3,
            )
        }
        _ => {
            let r = run_er_threads_with(
                root,
                depth,
                Window::FULL,
                threads,
                &cfg,
                Hooks::default().with_tt(&table),
            )
            .expect("unlimited run cannot abort");
            (
                r.value,
                r.stats,
                r.tt.unwrap_or_default(),
                r.elapsed.as_secs_f64() * 1e3,
            )
        }
    };
    let exact = alphabeta(root, depth, order).value;
    assert_eq!(
        value, exact,
        "{name}: {backend} tt={bits} workers={threads} disagrees with alpha-beta"
    );
    let occupancy = if bits == 0 {
        0.0
    } else {
        table.occupancy_sample(1024)
    };
    TtRow {
        backend: backend.to_string(),
        tree: name.to_string(),
        depth,
        serial_depth,
        threads,
        tt_bits: bits,
        value: value.get(),
        nodes: stats.nodes(),
        eval_calls: stats.eval_calls,
        probes: tt_stats.probes,
        hits: tt_stats.hits,
        exact_hits: tt_stats.exact_hits,
        hint_hits: tt_stats.hint_hits,
        stores: tt_stats.stores,
        replacements: tt_stats.replacements,
        collisions: tt_stats.collisions,
        hit_rate: tt_stats.hit_rate(),
        occupancy,
        elapsed_ms,
    }
}

/// The transposition-table grid: R1 and O1 at Table 3 settings, table
/// off vs on (`bits`), each at 1, 4 and 16 workers sharing one table —
/// on both back-ends. The deterministic simulation gives exactly
/// reproducible node counts (the TT-on vs TT-off comparison); the real
/// threads give genuine concurrent-table traffic (the contention and
/// hit-rate evidence).
///
/// Random trees never transpose (their hash is the path key), so R1
/// bounds the overhead of a useless table; O1 measures the node savings
/// on a real transposing game.
pub fn tt_rows(bits: u32) -> Vec<TtRow> {
    let r1 = &crate::trees::random_trees()[0];
    let o1 = &crate::trees::othello_trees()[0];
    let mut rows = Vec::new();
    for backend in ["sim", "threads"] {
        for &b in &[0u32, bits] {
            for &threads in &[1usize, 4, 16] {
                rows.push(tt_row(
                    backend,
                    r1.name,
                    &r1.root,
                    r1.depth,
                    r1.serial_depth,
                    r1.order,
                    threads,
                    b,
                ));
                rows.push(tt_row(
                    backend,
                    o1.name,
                    &o1.root,
                    o1.depth,
                    o1.serial_depth,
                    o1.order,
                    threads,
                    b,
                ));
            }
        }
    }
    rows
}

/// One traced threaded run: R1 searched with per-worker event tracing on,
/// with the [`trace::SearchReport`] aggregates that make the run's
/// behaviour legible — utilization split, lock-wait distribution, steal
/// traffic, queue depths.
///
/// The row also attests the tentpole's zero-interference claim: the same
/// configuration is run with tracing *off* and both root values are
/// asserted bit-identical to serial alpha-beta before recording.
#[derive(Clone, Debug)]
pub struct TraceRow {
    /// Table 3 tree name.
    pub tree: String,
    /// Search depth in plies.
    pub depth: u32,
    /// OS threads used.
    pub threads: usize,
    /// Root value (asserted equal to the untraced run and to serial
    /// alpha-beta before recording).
    pub value: i32,
    /// Nodes examined by the traced run (scheduling-dependent; the value
    /// never is).
    pub nodes: u64,
    /// Events retained across all worker rings.
    pub events: u64,
    /// Events lost to ring overwrite (bounded rings never reallocate).
    pub dropped: u64,
    /// JobExecute spans recorded.
    pub jobs: u64,
    /// Mean fraction of wall time workers spent inside jobs.
    pub busy_fraction: f64,
    /// Mean fraction of wall time workers spent parked.
    pub park_fraction: f64,
    /// Mean nanoseconds per lock-wait span.
    pub mean_lock_wait_ns: f64,
    /// Largest lock-wait span observed.
    pub max_lock_wait_ns: u64,
    /// Steal probes recorded.
    pub steal_attempts: u64,
    /// Steal probes that yielded a job.
    pub steal_hits: u64,
    /// Park spans recorded.
    pub parks: u64,
    /// Largest sampled per-worker queue depth.
    pub queue_depth_max: u32,
    /// Mean sampled queue depth.
    pub queue_depth_mean: f64,
    /// Wall-clock milliseconds of the traced run.
    pub elapsed_ms: f64,
}

/// Runs R1 with tracing on at each thread count, asserting the traced and
/// untraced runs agree with serial alpha-beta, and collapses each run's
/// snapshot into a [`TraceRow`].
pub fn trace_rows(thread_counts: &[usize]) -> Vec<TraceRow> {
    use er_parallel::{run_er_threads, run_er_threads_with, Hooks};
    use gametree::Window;
    use trace::{EventKind, SearchReport, Tracer};
    let spec = &crate::trees::random_trees()[0];
    let cfg = ErParallelConfig::new(spec.serial_depth, spec.order);
    let exact = alphabeta(&spec.root, spec.depth, spec.order).value;
    thread_counts
        .iter()
        .map(|&threads| {
            let tracer = Tracer::new();
            let traced = run_er_threads_with(
                &spec.root,
                spec.depth,
                Window::FULL,
                threads,
                &cfg,
                Hooks::default().with_tracer(&tracer),
            )
            .expect("unlimited traced run cannot abort");
            let plain = run_er_threads(&spec.root, spec.depth, threads, &cfg);
            assert_eq!(
                traced.value, exact,
                "{}@{threads}: traced run disagrees with alpha-beta",
                spec.name
            );
            assert_eq!(
                plain.value, traced.value,
                "{}@{threads}: tracing changed the root value",
                spec.name
            );
            let data = tracer.snapshot();
            assert_eq!(
                data.workers.len(),
                threads,
                "{}@{threads}: one timeline row per worker",
                spec.name
            );
            let report = SearchReport::from_data(&data);
            TraceRow {
                tree: spec.name.to_string(),
                depth: spec.depth,
                threads,
                value: traced.value.get(),
                nodes: traced.stats.nodes(),
                events: data.total_events(),
                dropped: data.total_dropped(),
                jobs: report.count_of(EventKind::JobExecute),
                busy_fraction: report.mean_busy_fraction(),
                park_fraction: report.mean_park_fraction(),
                mean_lock_wait_ns: report.lock_wait.mean(),
                max_lock_wait_ns: report.lock_wait.max,
                steal_attempts: report.count_of(EventKind::StealAttempt),
                steal_hits: report.count_of(EventKind::StealHit),
                parks: report.count_of(EventKind::Park),
                queue_depth_max: report.queue_depth.max,
                queue_depth_mean: report.queue_depth.mean,
                elapsed_ms: traced.elapsed.as_secs_f64() * 1e3,
            }
        })
        .collect()
}

/// Processor counts the speculation curve is classified at. Fixed (rather
/// than following `--threads`) so the deterministic plateau assertion in
/// `repro trace` always sees the same curve.
pub const SPECULATION_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

/// The deterministic speculation curve for R1: mandatory vs speculative
/// node splits per processor count, from the simulator-backed classifier
/// (`er_parallel::mandatory::speculation_splits`). Node counts, not
/// timings — the same curve on every run.
pub fn speculation_rows() -> Vec<trace::SpecSplit> {
    let spec = &crate::trees::random_trees()[0];
    let cfg = ErParallelConfig::new(spec.serial_depth, spec.order);
    er_parallel::mandatory::speculation_splits(&spec.root, spec.depth, &SPECULATION_COUNTS, &cfg)
}

/// A Chrome-trace export with full event coverage: the timeline JSON, the
/// snapshot it came from, and its aggregate report.
#[derive(Clone, Debug)]
pub struct ChromeExport {
    /// Chrome Trace Event Format JSON (load in `chrome://tracing` or
    /// Perfetto).
    pub json: String,
    /// The snapshot the JSON renders.
    pub data: trace::TraceData,
    /// Aggregates of the same snapshot.
    pub report: trace::SearchReport,
    /// Budgeted attempts needed to cover every event kind.
    pub attempts: u32,
}

/// Produces a Chrome-trace export at `threads` workers in which **every**
/// declared event kind occurs, from three kinds of run sharing one
/// tracer: a short aspiration-windowed O1 prelude, steal-shaped shallow
/// O1 rounds, and a budgeted deepening R1 run that trips its deadline.
///
/// Most kinds appear in any threaded run; the conditional ones are each
/// forced by the run shaped for them. AspirationResearch is a driver-row
/// instant only the aspiration driver emits: a depth-3 tight-window
/// deepening of O1 yields it deterministically (the Othello root value
/// oscillates with search parity, so every probe fails out of its ±1
/// window) — and, being a deepening run, it also pins
/// IdDepthStart/Finish. StealHit is scheduling-dependent, so bounded
/// steal-rich rounds, which like every threaded run solve their serial
/// frontier with alpha-beta, repeat until one survives in a ring. AbortTrip needs a wall-clock budget sized to trip
/// the R1 run mid-search; budgets are timing-dependent, so the harness
/// retries across a spread until coverage is total — the *assertions*
/// on the returned export are about event structure, never timing
/// margins.
pub fn chrome_export(threads: usize) -> ChromeExport {
    use er_parallel::{run_er_threads_id, AspirationConfig, Hooks, SearchControl};
    use gametree::Window;
    use std::time::Duration;
    use trace::{SearchReport, Tracer};
    let spec = &crate::trees::random_trees()[0];
    let cfg = ErParallelConfig::new(spec.serial_depth, spec.order);
    const BUDGETS_MS: [u64; 12] = [40, 20, 80, 10, 160, 60, 5, 320, 100, 30, 640, 15];
    // A steal-shaped round landed a ring-surviving hit on its first try in
    // every attempt of ten 4-thread exports on a 2-vCPU host, and ~3 times
    // in 4 on a single-core one; six rounds make an all-miss attempt
    // negligible.
    const STEAL_ROUNDS: u32 = 6;
    // Worker rows merge across deepening iterations, so the export's size
    // is bounded per worker *per depth*; 2048 events each keeps the full
    // timeline a few megabytes — comfortable for chrome://tracing — while
    // the rings' overwrite-oldest policy keeps the end of every depth.
    const EXPORT_RING_CAPACITY: usize = 2048;
    let mut missing: Vec<&'static str> = Vec::new();
    let o1 = &crate::trees::othello_trees()[0];
    let o1_cfg = ErParallelConfig::new(o1.serial_depth, o1.order);
    for (i, &budget) in BUDGETS_MS.iter().enumerate() {
        let tracer = Tracer::with_capacity(EXPORT_RING_CAPACITY);
        // Driver-level kinds first: the O1 prelude's worker rows merge
        // with (and may be partly overwritten by) the R1 run's, but
        // AspirationResearch lives on the driver row, whose handful of
        // instants the ring never evicts.
        let _ = run_er_threads_id(
            &o1.root,
            3,
            threads,
            &o1_cfg,
            AspirationConfig::narrow(1),
            Hooks::default()
                .with_tt(&tt::TranspositionTable::with_bits(14))
                .with_tracer(&tracer),
        );
        // StealHit is the rarest kind on a small host: a successful
        // steal needs a thief scheduled against a victim whose deque is
        // still full, and the ring's overwrite-oldest policy then has to
        // keep the event to the end of the run. A shallow Othello search
        // over a thin serial frontier keeps the deques full of stealable
        // jobs while keeping the run short: with the alpha-beta frontier
        // at 3 a hit survived in fewer than half of 200 traced 4-thread
        // rounds, at 1 in all of them. Worker rows merge across runs, so
        // repeating it until a hit survives in some ring (bounded rounds)
        // accumulates — the budgeted run below is then responsible for
        // AbortTrip alone.
        let steal_cfg = ErParallelConfig {
            serial_depth: 1,
            ..o1_cfg
        };
        for _ in 0..STEAL_ROUNDS {
            let _ = er_parallel::run_er_threads_with(
                &o1.root,
                5,
                Window::FULL,
                threads,
                &steal_cfg,
                Hooks::default().with_tracer(&tracer),
            );
            let hit = tracer
                .snapshot()
                .all_events()
                .any(|e| e.kind == trace::EventKind::StealHit);
            if hit {
                break;
            }
        }
        let table = tt::TranspositionTable::with_bits(16);
        let ctl = SearchControl::with_budget(Duration::from_millis(budget));
        let _ = run_er_threads_id(
            &spec.root,
            spec.depth,
            threads,
            &cfg,
            AspirationConfig::OFF,
            Hooks::default()
                .with_tt(&table)
                .with_ctl(&ctl)
                .with_tracer(&tracer),
        );
        let data = tracer.snapshot();
        missing = data.kinds_missing();
        if missing.is_empty() {
            assert_eq!(
                data.workers.len(),
                threads,
                "chrome export: one timeline row per worker"
            );
            assert!(
                !data.driver.events.is_empty(),
                "chrome export: driver row records the deepening boundaries"
            );
            return ChromeExport {
                json: trace::chrome_json(&data),
                report: SearchReport::from_data(&data),
                data,
                attempts: i as u32 + 1,
            };
        }
    }
    panic!(
        "no budget in {BUDGETS_MS:?}ms produced full event coverage; \
         still missing {missing:?}"
    );
}

/// Everything `repro trace` writes to `results/trace.json`.
#[derive(Clone, Debug)]
pub struct TraceBench {
    /// Tree the traced runs searched.
    pub tree: String,
    /// Search depth in plies.
    pub depth: u32,
    /// One traced run per requested thread count.
    pub rows: Vec<TraceRow>,
    /// Deterministic mandatory/speculative split per processor count.
    pub speculation: Vec<trace::SpecSplit>,
    /// Events in the Chrome export.
    pub chrome_events: u64,
    /// Budgeted attempts the Chrome export needed for full coverage.
    pub chrome_attempts: u32,
}

impl_to_json!(SerialCost {
    nodes,
    evals,
    ticks,
    value
});
impl_to_json!(SerialReference {
    alphabeta,
    er,
    best_ticks
});
impl_to_json!(ErPoint {
    processors,
    speedup,
    efficiency,
    nodes,
    makespan,
    starvation
});
impl_to_json!(ErCurve {
    tree,
    serial,
    alphabeta_efficiency,
    points
});
impl_to_json!(BaselinePoint {
    requested,
    actual,
    speedup,
    nodes
});
impl_to_json!(BaselineCurve {
    algorithm,
    tree,
    points
});
impl_to_json!(AblationCurve {
    config,
    tree,
    points
});
impl_to_json!(MwfPlateau {
    degree,
    noise,
    points
});
impl_to_json!(OverheadRow {
    tree,
    processors,
    mandatory,
    examined,
    speculative,
    mandatory_skipped,
    speculative_fraction
});
impl_to_json!(SweepRow {
    serial_depth,
    heap_latency,
    eval_cost,
    processors,
    speedup,
    nodes
});
impl_to_json!(DynOrderingRow {
    tree,
    workers,
    config,
    delta,
    max_depth,
    value,
    nodes,
    window_hits,
    re_searches,
    killer_hits,
    history_hits,
    nodes_vs_baseline
});
impl_to_json!(OrderingRow {
    tree,
    depth,
    sorted,
    first_best,
    quarter_best,
    mean_degree,
    strongly_ordered
});
impl_to_json!(TtRow {
    backend,
    tree,
    depth,
    serial_depth,
    threads,
    tt_bits,
    value,
    nodes,
    eval_calls,
    probes,
    hits,
    exact_hits,
    hint_hits,
    stores,
    replacements,
    collisions,
    hit_rate,
    occupancy,
    elapsed_ms
});
impl_to_json!(ScalingRow {
    tree,
    depth,
    serial_depth,
    threads,
    reps,
    value,
    nodes,
    jobs_executed,
    lock_acquisitions,
    acq_per_job,
    steal_attempts,
    steal_hits,
    mean_lock_wait_nanos,
    lock_hold_nanos,
    arena_publishes,
    batch_grows,
    batch_shrinks,
    elapsed_ms
});
impl_to_json!(DeadlineRow {
    tree,
    kind,
    threads,
    max_depth,
    budget_ms,
    depth_completed,
    value,
    nodes,
    stopped,
    elapsed_ms,
    grace_ms,
    matches_fixed_depth
});
impl_to_json!(TraceRow {
    tree,
    depth,
    threads,
    value,
    nodes,
    events,
    dropped,
    jobs,
    busy_fraction,
    park_fraction,
    mean_lock_wait_ns,
    max_lock_wait_ns,
    steal_attempts,
    steal_hits,
    parks,
    queue_depth_max,
    queue_depth_mean,
    elapsed_ms
});
// `SpecSplit` lives in the trace crate; `ToJson` is this crate's trait, so
// the registration is ours to make.
impl_to_json!(trace::SpecSplit {
    processors,
    mandatory,
    examined,
    mandatory_done,
    speculative,
    mandatory_skipped,
    wasted_fraction
});
impl_to_json!(TraceBench {
    tree,
    depth,
    rows,
    speculation,
    chrome_events,
    chrome_attempts
});
impl_to_json!(ThreadsRow {
    tree,
    depth,
    serial_depth,
    threads,
    value,
    nodes,
    eval_calls,
    cached_leaf_hits,
    seed_eval_calls,
    lock_acquisitions,
    select_batches,
    jobs_executed,
    wakeups,
    idle_parks,
    seed_acquisitions,
    acquisition_ratio,
    elapsed_ms
});
