//! Regenerates every table and figure of the paper's evaluation (§7).
//!
//! ```text
//! repro table3      Table 3: the six benchmark trees
//! repro fig10       Figure 10: ER efficiency, Othello trees
//! repro fig11       Figure 11: ER efficiency, random trees
//! repro fig12       Figure 12: nodes generated, Othello trees
//! repro fig13       Figure 13: nodes generated, random trees
//! repro baselines   §4/§8: ER vs MWF / aspiration / tree-splitting /
//!                   pv-splitting, plus Akl's MWF plateau
//! repro ablation    §5: contribution of each speculation mechanism
//! repro ordering    Marsland's ordering-strength metric, plus the
//!                   dynamic killer/history + aspiration node-count
//!                   grid on O1 with its timing-free asserts (accepts
//!                   --threads 1,4,16; also writes the untracked
//!                   results/ordering_chrome.json)
//! repro threads     real-thread back-end: contention counters and
//!                   memoized-evaluation savings
//! repro tt          shared transposition table on/off across worker
//!                   counts (accepts --tt-bits N)
//! repro scaling     work-stealing execution layer across thread counts
//!                   (accepts --threads 1,2,4,8)
//! repro deadline    abort-safe search control: anytime iterative
//!                   deepening under shrinking wall-clock budgets, plus
//!                   full-budget equality vs the fixed-depth back-end
//! repro trace       search telemetry: traced threaded runs per thread
//!                   count, the deterministic speculation curve, and a
//!                   full-coverage Chrome-trace timeline (accepts
//!                   --threads 1,2,4,8; also writes the untracked
//!                   results/trace_chrome.json)
//! repro serve       multi-session engine server under load: mixed
//!                   families/priorities against fixed admission caps,
//!                   latency percentiles, shed accounting, per-class
//!                   fairness (accepts --sessions N, --threads N,
//!                   --tt-bits N)
//! repro uci         interactive UCI-style protocol loop over
//!                   stdin/stdout (try `echo "go movetime 20" |
//!                   repro uci`)
//! repro mech        mechanical-sympathy audit: branchless bitboard
//!                   kernels vs the retained loop-based reference
//!                   (median-of-samples microbench, >=1.5x speedup
//!                   asserted), perft equivalence under both kernel
//!                   sets, root-value equality across every search
//!                   back-end, and a linted traced run (accepts
//!                   --threads 1,2,4)
//! repro obs         observability gates: at one thread, metrics-on vs
//!                   metrics-off identical root values, search stats and
//!                   untimed counters, folded series equal to the run's
//!                   own counters, and a mixed serve+match workload whose
//!                   periodic exposition snapshots all pass the format
//!                   linter (accepts --sessions 16, --games 2,
//!                   --threads 2; also writes results/obs_metrics.prom)
//! repro match       repeated-game engine loop: full self-play games in
//!                   both families (warm TT + ordering state across
//!                   moves, per-move time management), ER-threads vs the
//!                   fixed-depth and anytime-serial baselines on paired
//!                   openings with color swap; gates on legality, zero
//!                   forfeits, warm-TT hits, and ER points >= the
//!                   fixed-depth baseline (accepts --games 8,
//!                   --tc 1000+10, --threads N, --tt-bits N)
//! repro all         everything above (except the interactive `uci`)
//! ```
//!
//! Results are printed as tables and written as JSON under `results/`.

use std::fs;
use std::io::Write as _;

use er_bench::experiments::{
    ablation_curves, baseline_curves, er_curve, mwf_plateau, ordering_rows, overhead_rows,
    serial_reference, sweep_rows, ErCurve, PROCESSOR_COUNTS,
};
use er_bench::trees::{degree_label, othello_trees, random_trees};
use gametree::Window;
use problem_heap::CostModel;
use search_serial::Hooks;

fn save_json<T: er_bench::json::ToJson>(name: &str, value: &T) {
    fs::create_dir_all("results").expect("create results/");
    let path = format!("results/{name}.json");
    let mut f = fs::File::create(&path).expect("create json");
    let s = er_bench::json::to_pretty(value);
    f.write_all(s.as_bytes()).expect("write json");
    println!("  -> {path}");
}

fn table3() {
    println!("\n=== Table 3: benchmark trees ===");
    println!(
        "{:<5} {:<8} {:<8} {:<13} {:<12}",
        "Name", "Type", "Degree", "Search depth", "Serial depth"
    );
    for t in random_trees() {
        println!(
            "{:<5} {:<8} {:<8} {:<13} {:<12}",
            t.name,
            "Random",
            degree_label(&t),
            format!("{} ply", t.depth),
            t.serial_depth
        );
    }
    for t in othello_trees() {
        println!(
            "{:<5} {:<8} {:<8} {:<13} {:<12}",
            t.name,
            "Othello",
            degree_label(&t),
            format!("{} ply", t.depth),
            t.serial_depth
        );
    }
    let cost = CostModel::default();
    println!("\nSerial reference costs (ticks; best = fastest serial algorithm):");
    println!(
        "{:<5} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "Name", "ab nodes", "ab ticks", "er nodes", "er ticks", "value"
    );
    let mut rows = Vec::new();
    for t in random_trees() {
        let s = serial_reference(&t, &cost);
        println!(
            "{:<5} {:>12} {:>12} {:>12} {:>12} {:>8}",
            t.name, s.alphabeta.nodes, s.alphabeta.ticks, s.er.nodes, s.er.ticks, s.er.value
        );
        rows.push((t.name.to_string(), s));
    }
    for t in othello_trees() {
        let s = serial_reference(&t, &cost);
        println!(
            "{:<5} {:>12} {:>12} {:>12} {:>12} {:>8}",
            t.name, s.alphabeta.nodes, s.alphabeta.ticks, s.er.nodes, s.er.ticks, s.er.value
        );
        rows.push((t.name.to_string(), s));
    }
    save_json("table3", &rows);
}

fn print_efficiency_figure(title: &str, curves: &[ErCurve]) {
    println!("\n=== {title} ===");
    print!("{:<6}", "procs");
    for c in curves {
        print!("{:>9}", c.tree);
    }
    println!();
    for (i, &k) in PROCESSOR_COUNTS.iter().enumerate() {
        print!("{:<6}", k);
        for c in curves {
            print!("{:>9.3}", c.points[i].efficiency);
        }
        println!();
    }
    println!("serial alpha-beta reference line (efficiency of serial alpha-beta):");
    for c in curves {
        println!("  {}: {:.3}", c.tree, c.alphabeta_efficiency);
    }
    println!("speedup at 16 processors:");
    for c in curves {
        let p16 = c.points.last().unwrap();
        println!(
            "  {}: speedup {:.2}, efficiency {:.2}",
            c.tree, p16.speedup, p16.efficiency
        );
    }
}

fn print_nodes_figure(title: &str, curves: &[ErCurve]) {
    println!("\n=== {title} ===");
    print!("{:<10}", "procs");
    for c in curves {
        print!("{:>12}", c.tree);
    }
    println!();
    print!("{:<10}", "ab(serial)");
    for c in curves {
        print!("{:>12}", c.serial.alphabeta.nodes);
    }
    println!();
    print!("{:<10}", "er(serial)");
    for c in curves {
        print!("{:>12}", c.serial.er.nodes);
    }
    println!();
    for (i, &k) in PROCESSOR_COUNTS.iter().enumerate() {
        print!("{:<10}", k);
        for c in curves {
            print!("{:>12}", c.points[i].nodes);
        }
        println!();
    }
}

fn fig(which: u32) {
    let cost = CostModel::default();
    match which {
        10 | 12 => {
            let curves: Vec<ErCurve> = othello_trees().iter().map(|t| er_curve(t, &cost)).collect();
            if which == 10 {
                print_efficiency_figure("Figure 10: efficiency of ER, Othello trees", &curves);
                save_json("fig10", &curves);
            } else {
                print_nodes_figure("Figure 12: nodes generated, Othello trees", &curves);
                save_json("fig12", &curves);
            }
        }
        11 | 13 => {
            let curves: Vec<ErCurve> = random_trees().iter().map(|t| er_curve(t, &cost)).collect();
            if which == 11 {
                print_efficiency_figure("Figure 11: efficiency of ER, random trees", &curves);
                save_json("fig11", &curves);
            } else {
                print_nodes_figure("Figure 13: nodes generated, random trees", &curves);
                save_json("fig13", &curves);
            }
        }
        _ => unreachable!(),
    }
}

fn baselines() {
    let cost = CostModel::default();
    println!("\n=== Baseline comparison (paper §4; §8 future work) ===");
    let mut all = Vec::new();
    for t in random_trees() {
        let curves = baseline_curves(&t, &cost);
        println!("\n{} — speedup vs fastest serial:", t.name);
        print!("{:<12}", "procs");
        for &k in &PROCESSOR_COUNTS {
            print!("{:>7}", k);
        }
        println!();
        for c in &curves {
            print!("{:<12}", c.algorithm);
            for p in &c.points {
                print!("{:>7.2}", p.speedup);
            }
            println!();
        }
        all.extend(curves);
    }
    // One Othello tree keeps the runtime modest while showing the
    // strongly-ordered-tree behaviour of pv-splitting and aspiration.
    let t = &othello_trees()[0];
    let curves = baseline_curves(t, &cost);
    println!("\n{} — speedup vs fastest serial:", t.name);
    print!("{:<12}", "procs");
    for &k in &PROCESSOR_COUNTS {
        print!("{:>7}", k);
    }
    println!();
    for c in &curves {
        print!("{:<12}", c.algorithm);
        for p in &c.points {
            print!("{:>7.2}", p.speedup);
        }
        println!();
    }
    all.extend(curves);
    // And Fishburn's own workload: a checkers tree (§4.3).
    let t = er_bench::trees::checkers_tree();
    let curves = baseline_curves(&t, &cost);
    println!("\n{} (checkers) — speedup vs fastest serial:", t.name);
    print!("{:<12}", "procs");
    for &k in &PROCESSOR_COUNTS {
        print!("{:>7}", k);
    }
    println!();
    for c in &curves {
        print!("{:<12}", c.algorithm);
        for p in &c.points {
            print!("{:>7.2}", p.speedup);
        }
        println!();
    }
    all.extend(curves);
    save_json("baselines", &all);

    println!("\nMWF on Akl-style wide 4-ply trees (speedup plateau, §4.2):");
    let plateau = mwf_plateau(&cost);
    for p in &plateau {
        print!("degree {:>3}:", p.degree);
        for (k, s) in &p.points {
            print!("  {k}p:{s:.2}");
        }
        println!();
    }
    save_json("mwf_plateau", &plateau);
}

fn ablation() {
    let cost = CostModel::default();
    println!("\n=== Speculation ablation (paper §5 mechanisms) ===");
    let mut all = Vec::new();
    let r1 = &random_trees()[0];
    let o1 = &othello_trees()[0];
    let runs = [ablation_curves(r1, &cost), ablation_curves(o1, &cost)];
    for curves in runs {
        println!("\n{} — speedup (nodes):", curves[0].tree);
        print!("{:<24}", "config");
        for k in [1, 4, 8, 16] {
            print!("{:>18}", format!("k={k}"));
        }
        println!();
        for c in &curves {
            print!("{:<24}", c.config);
            for p in &c.points {
                print!("{:>18}", format!("{:.2} ({})", p.speedup, p.nodes));
            }
            println!();
        }
        all.extend(curves);
    }
    save_json("ablation", &all);
}

fn overhead() {
    let cost = problem_heap::CostModel::default();
    println!("\n=== Work classification (paper §3: mandatory vs speculative) ===");
    println!("(parallel ER forced fully in-tree; mandatory = serial alpha-beta's node set)");
    let mut all = Vec::new();
    let random = er_bench::trees::random_trees();
    let othello = er_bench::trees::othello_trees();
    println!(
        "{:<5} {:>6} {:>10} {:>10} {:>12} {:>10} {:>8}",
        "tree", "procs", "mandatory", "examined", "speculative", "skipped", "spec%"
    );
    for rows in [
        overhead_rows(&random[0], &cost),
        overhead_rows(&othello[0], &cost),
    ] {
        for r in &rows {
            println!(
                "{:<5} {:>6} {:>10} {:>10} {:>12} {:>10} {:>7.1}%",
                r.tree,
                r.processors,
                r.mandatory,
                r.examined,
                r.speculative,
                r.mandatory_skipped,
                100.0 * r.speculative_fraction
            );
        }
        all.extend(rows);
    }
    save_json("overhead", &all);
}

fn sweep() {
    println!("\n=== Parameter sweep on R1 (serial depth × heap latency × eval cost) ===");
    let rows = sweep_rows();
    println!(
        "{:<6} {:>8} {:>6} {:>6} {:>9} {:>9}",
        "sdepth", "heaplat", "eval", "procs", "speedup", "nodes"
    );
    for r in &rows {
        println!(
            "{:<6} {:>8} {:>6} {:>6} {:>9.2} {:>9}",
            r.serial_depth, r.heap_latency, r.eval_cost, r.processors, r.speedup, r.nodes
        );
    }
    save_json("sweep", &rows);
}

fn gantt() {
    use er_parallel::schedule::ScheduleView;
    use er_parallel::{run_er_sim, ErParallelConfig};
    println!("\n=== Schedule view: parallel ER on R1, 16 processors ===");
    let t = &random_trees()[0];
    let cfg = ErParallelConfig::new(t.serial_depth, t.order);
    for k in [4usize, 16] {
        let r = run_er_sim(&t.root, t.depth, k, &cfg);
        let view = ScheduleView::build(&r.trace, r.report.makespan, 20);
        println!(
            "\n{} processors (makespan {}, mean utilization {:.1}):",
            k,
            r.report.makespan,
            view.mean_utilization()
        );
        print!("{}", view.render(k));
    }
}

fn ordering() {
    use er_bench::experiments::{dyn_ordering_rows, DYN_ORDERING_DELTA_TIGHT};

    let mut cli = er_bench::cli::Cli::from_env("ordering");
    let workers = cli.threads_list(&[1, 4, 16]);
    cli.finish();

    println!("\n=== Workload ordering strength (Marsland's §4.4 metric) ===");
    let strength = ordering_rows();
    println!(
        "{:<5} {:>6} {:>7} {:>11} {:>13} {:>8} {:>8}",
        "tree", "depth", "sorted", "first-best", "quarter-best", "degree", "strong?"
    );
    for r in &strength {
        println!(
            "{:<5} {:>6} {:>7} {:>10.0}% {:>12.0}% {:>8.1} {:>8}",
            r.tree,
            r.depth,
            if r.sorted { "yes" } else { "no" },
            100.0 * r.first_best,
            100.0 * r.quarter_best,
            r.mean_degree,
            if r.strongly_ordered { "yes" } else { "no" }
        );
    }

    println!("\n=== Dynamic ordering + aspiration: O1 node counts (workers {workers:?}) ===");
    let rows = dyn_ordering_rows(&workers);
    // Byte-reproducibility: the simulator is deterministic, so a second
    // run must reproduce every count exactly.
    assert_eq!(
        rows,
        dyn_ordering_rows(&workers),
        "dynamic-ordering rows must be byte-reproducible"
    );
    println!(
        "{:<26} {:>7} {:>5} {:>9} {:>8} {:>5} {:>5} {:>7} {:>7} {:>7}",
        "config",
        "workers",
        "delta",
        "nodes",
        "vs-base",
        "hits",
        "re",
        "killer",
        "history",
        "value"
    );
    for r in &rows {
        println!(
            "{:<26} {:>7} {:>5} {:>9} {:>7.1}% {:>5} {:>5} {:>7} {:>7} {:>7}",
            r.config,
            r.workers,
            r.delta,
            r.nodes,
            100.0 * r.nodes_vs_baseline,
            r.window_hits,
            r.re_searches,
            r.killer_hits,
            r.history_hits,
            r.value
        );
    }

    // Timing-free acceptance asserts (node counts, never wall clock).
    let nodes_of = |config: &str, k: usize| {
        rows.iter()
            .find(|r| r.config == config && r.workers == k)
            .map(|r| r.nodes)
            .expect("row present")
    };
    for &k in &workers {
        assert!(
            nodes_of("ordering", k) <= nodes_of("baseline", k),
            "ordering must not add nodes at {k} workers"
        );
    }
    if workers.contains(&4) {
        let base = nodes_of("baseline", 4);
        let both = nodes_of("ordering+aspiration", 4);
        assert!(
            both * 10 <= base * 9,
            "ordering+aspiration must save >= 10% of nodes at 4 workers \
             ({both} vs {base})"
        );
        println!(
            "\nordering+aspiration at 4 workers: {both} nodes vs {base} baseline \
             ({:.1}% saved)",
            100.0 * (1.0 - both as f64 / base as f64)
        );
    }

    // A traced threaded run under the deliberately tight window: the
    // aspiration re-searches must show up as driver-row trace events and
    // the Chrome export must stay well-formed.
    let o1 = othello_trees()[0];
    let cfg = er_parallel::ErParallelConfig::new(o1.serial_depth, o1.order);
    let table = tt::TranspositionTable::with_bits(16);
    // Bounded rings like the `trace` experiment's Chrome export: the
    // overwrite-oldest policy caps results/ordering_chrome.json at a few
    // megabytes however deep the aspiration driver re-searches.
    const EXPORT_RING_CAPACITY: usize = 2048;
    let tracer = trace::Tracer::with_capacity(EXPORT_RING_CAPACITY);
    let traced = er_parallel::run_er_threads_id(
        &o1.root,
        o1.depth,
        2,
        &cfg,
        er_parallel::AspirationConfig::narrow(DYN_ORDERING_DELTA_TIGHT),
        Hooks::default().with_tt(&table).with_tracer(&tracer),
    );
    let data = tracer.snapshot();
    let report = trace::SearchReport::from_data(&data);
    let researches = report.count_of(trace::EventKind::AspirationResearch);
    assert_eq!(
        researches, traced.re_searches,
        "one AspirationResearch trace event per counted re-search"
    );
    let chrome = trace::chrome_json(&data);
    trace::lint::check(&chrome).expect("aspiration Chrome trace must be valid JSON");
    fs::create_dir_all("results").expect("create results/");
    fs::write("results/ordering_chrome.json", &chrome).expect("write ordering chrome trace");
    println!(
        "\ntraced threaded run (tight ±{DYN_ORDERING_DELTA_TIGHT} window): \
         {} re-searches, {} window hits, {} trace events \
         -> results/ordering_chrome.json",
        traced.re_searches,
        traced.window_hits,
        data.total_events()
    );

    // results/ordering.json carries both sections. The trace linter
    // double-checks everything we wrote is valid JSON.
    let combined = OrderingReport {
        strength,
        dynamic: rows,
    };
    save_json("ordering", &combined);
    let pretty = er_bench::json::to_pretty(&combined);
    trace::lint::check(&pretty).expect("results/ordering.json must be valid JSON");
}

/// The two sections of `results/ordering.json`: the static
/// ordering-strength metric and the dynamic-ordering node-count grid.
struct OrderingReport {
    strength: Vec<er_bench::experiments::OrderingRow>,
    dynamic: Vec<er_bench::experiments::DynOrderingRow>,
}

impl er_bench::json::ToJson for OrderingReport {
    fn write_json(&self, out: &mut String, indent: usize) {
        er_bench::json::write_object(
            out,
            indent,
            &[("strength", &self.strength), ("dynamic", &self.dynamic)],
        );
    }
}

fn threads() {
    use er_bench::experiments::{one_thread_refutation_rows, threads_rows};
    er_bench::cli::Cli::from_env("threads").finish();
    println!("\n=== Threaded back-end: contention and memoization (R1, O1) ===");
    let rows = threads_rows();
    println!(
        "{:<5} {:>5} {:>6} {:>7} {:>8} {:>7} {:>7} {:>7} {:>9} {:>8} {:>6} {:>8}",
        "tree",
        "depth",
        "sdepth",
        "threads",
        "nodes",
        "evals",
        "cached",
        "locks",
        "seedlocks",
        "ratio",
        "parks",
        "ms"
    );
    for r in &rows {
        println!(
            "{:<5} {:>5} {:>6} {:>7} {:>8} {:>7} {:>7} {:>7} {:>9} {:>7.1}x {:>6} {:>8.1}",
            r.tree,
            r.depth,
            r.serial_depth,
            r.threads,
            r.nodes,
            r.eval_calls,
            r.cached_leaf_hits,
            r.lock_acquisitions,
            r.seed_acquisitions,
            r.acquisition_ratio,
            r.idle_parks,
            r.elapsed_ms
        );
    }
    // The acceptance bar: R1 at 4 threads must need at most half the acquisitions of the seed's
    // lock-per-select + lock-per-apply design, and the memoized O1 run
    // must make strictly fewer evaluator calls than the seed would.
    let r1 = rows
        .iter()
        .find(|r| r.tree == "R1" && r.threads == 4)
        .expect("R1 4-thread row");
    assert!(
        r1.acquisition_ratio >= 2.0,
        "R1@4 threads: expected >=2x acquisition drop, got {:.2}x",
        r1.acquisition_ratio
    );
    let o1 = rows
        .iter()
        .find(|r| r.tree == "O1" && r.serial_depth == 0 && r.threads == 4)
        .expect("O1 memo row");
    assert!(
        o1.eval_calls < o1.seed_eval_calls,
        "O1: memoization must cut evaluator calls ({} vs seed {})",
        o1.eval_calls,
        o1.seed_eval_calls
    );
    // Speculation only on starvation: one thread is never starved while
    // the search is live, so early choice and multiple e-nodes must leave
    // its schedule exactly as parallel refutation alone leaves it.
    for alone in one_thread_refutation_rows() {
        let paper = rows
            .iter()
            .find(|r| {
                r.tree == alone.tree
                    && r.threads == 1
                    && (r.depth, r.serial_depth) == (alone.depth, alone.serial_depth)
            })
            .expect("one-thread Table 3 row");
        assert!(
            paper.same_schedule(&alone),
            "{}@1 thread: speculation changed the schedule ({} nodes, {} locks) \
             against parallel refutation alone ({} nodes, {} locks)",
            alone.tree,
            paper.nodes,
            paper.lock_acquisitions,
            alone.nodes,
            alone.lock_acquisitions
        );
    }
    println!(
        "\nR1 @ 4 threads: {:.1}x fewer lock acquisitions than the \
         seed back-end; O1 (fully parallel leaves): {} of {} evaluator calls \
         served from memoized sorting probes. R1 and O1 @ 1 thread: \
         speculative queue never used (schedule identical to parallel \
         refutation alone).",
        r1.acquisition_ratio, o1.cached_leaf_hits, o1.seed_eval_calls
    );
    save_json("threads", &rows);
}

fn tt() {
    use er_bench::experiments::tt_rows;
    let mut cli = er_bench::cli::Cli::from_env("tt");
    let bits = cli.tt_bits(tt::DEFAULT_BITS);
    cli.finish();
    println!("\n=== Transposition table: R1/O1, table off vs on (2^{bits} entries) ===");
    let rows = tt_rows(bits);
    println!(
        "{:<8} {:<5} {:>5} {:>7} {:>7} {:>9} {:>8} {:>9} {:>8} {:>9} {:>7} {:>8} {:>6} {:>8}",
        "backend",
        "tree",
        "depth",
        "workers",
        "tt",
        "nodes",
        "evals",
        "probes",
        "hits",
        "hitrate",
        "exact",
        "hints",
        "fill",
        "ms"
    );
    for r in &rows {
        println!(
            "{:<8} {:<5} {:>5} {:>7} {:>7} {:>9} {:>8} {:>9} {:>8} {:>8.1}% {:>7} {:>8} {:>5.1}% {:>8.1}",
            r.backend,
            r.tree,
            r.depth,
            r.threads,
            if r.tt_bits == 0 {
                "off".to_string()
            } else {
                format!("2^{}", r.tt_bits)
            },
            r.nodes,
            r.eval_calls,
            r.probes,
            r.hits,
            100.0 * r.hit_rate,
            r.exact_hits,
            r.hint_hits,
            100.0 * r.occupancy,
            r.elapsed_ms
        );
    }
    // The issue's acceptance bar, split by what each back-end can attest
    // deterministically. Node counts: the simulated back-end executes an
    // identical job schedule every run, so TT-on vs TT-off node counts
    // compare exactly — on the transposing O1 tree the table must drop
    // total nodes at every simulated worker count. (Threaded node counts
    // drift a few percent run-to-run with OS scheduling; their rows are
    // reported above and value-checked against alpha-beta, not
    // node-compared. R1 random trees never transpose — their rows bound
    // the overhead of a useless table.)
    for workers in [1usize, 4, 16] {
        let off = rows
            .iter()
            .find(|r| {
                r.backend == "sim" && r.tree == "O1" && r.threads == workers && r.tt_bits == 0
            })
            .expect("O1 sim off row");
        let on = rows
            .iter()
            .find(|r| {
                r.backend == "sim" && r.tree == "O1" && r.threads == workers && r.tt_bits != 0
            })
            .expect("O1 sim on row");
        assert!(
            on.nodes < off.nodes,
            "O1 sim@{workers}: table must cut nodes ({} vs {} off)",
            on.nodes,
            off.nodes
        );
        println!(
            "O1 sim @ {:>2} workers: {:>8} nodes with table vs {:>8} without \
             ({:.1}% saved, hit rate {:.1}%)",
            workers,
            on.nodes,
            off.nodes,
            100.0 * (1.0 - on.nodes as f64 / off.nodes as f64),
            100.0 * on.hit_rate
        );
    }
    // Contention evidence: 16 real threads sharing one table must still
    // record hits (XOR validation admits no torn entries; see the tt
    // crate's release-mode concurrency tests).
    let o16 = rows
        .iter()
        .find(|r| r.backend == "threads" && r.tree == "O1" && r.threads == 16 && r.tt_bits != 0)
        .expect("O1 16-thread tt row");
    assert!(
        o16.hit_rate > 0.0,
        "O1@16: shared table must record hits under contention"
    );
    println!(
        "O1 threads @ 16: hit rate {:.1}% ({} hits / {} probes) with exact root value",
        100.0 * o16.hit_rate,
        o16.hits,
        o16.probes
    );
    // The occupancy sampler (shared with the metrics gauge) must see a
    // non-empty table wherever stores landed, and stay in [0, 1].
    for r in &rows {
        assert!((0.0..=1.0).contains(&r.occupancy), "fill is a ratio");
        if r.tt_bits != 0 && r.stores > 0 {
            assert!(
                r.occupancy > 0.0,
                "{} {}@{}: stores landed but the sampler saw an empty table",
                r.backend,
                r.tree,
                r.threads
            );
        }
    }
    save_json("tt", &rows);
}

fn scaling() {
    use er_bench::experiments::scaling_rows;
    let mut cli = er_bench::cli::Cli::from_env("scaling");
    let threads = cli.threads_list(&[1, 2, 4, 8]);
    cli.finish();
    println!(
        "\n=== Scaling: work-stealing layer (R1, O1; threads {threads:?}) ===\n\
         (per-worker deques + stealing + fixed refill batch + position\n\
          arena; counters summed over {} reps per row to damp scheduling\n\
          noise)",
        er_bench::experiments::SCALING_REPS
    );
    let rows = scaling_rows(&threads);
    println!(
        "{:<5} {:>7} {:>8} {:>9} {:>8} {:>7} {:>9} {:>10} {:>8}",
        "tree", "threads", "jobs", "locks", "acq/job", "steals", "stealhits", "wait ns", "ms"
    );
    for r in &rows {
        println!(
            "{:<5} {:>7} {:>8} {:>9} {:>8.3} {:>7} {:>9} {:>10.0} {:>8.1}",
            r.tree,
            r.threads,
            r.jobs_executed,
            r.lock_acquisitions,
            r.acq_per_job,
            r.steal_attempts,
            r.steal_hits,
            r.mean_lock_wait_nanos,
            r.elapsed_ms
        );
    }
    // Judged over the >=4-thread rows: a single steal is scheduling luck;
    // an aggregate of zero across every contended run means the layer is
    // dead. Per-row root values are asserted inside `scaling_rows` itself.
    // Nothing here counts position clones: the threaded back-end has none
    // to count, since each position is moved into the tree's slab once.
    if threads.iter().any(|&t| t >= 4) {
        let hits: u64 = rows
            .iter()
            .filter(|r| r.threads >= 4)
            .map(|r| r.steal_hits)
            .sum();
        assert!(
            hits > 0,
            "work stealing landed zero jobs across all >=4-thread runs"
        );
    }
    save_json("scaling", &rows);
}

fn deadline() {
    use er_bench::experiments::deadline_rows;
    let mut cli = er_bench::cli::Cli::from_env("deadline");
    let threads = cli.count("--threads", 4, 1..=64) as usize;
    cli.finish();
    println!(
        "\n=== Abort-safe control: anytime ID under deadlines (R1/O1/C1, {threads} threads) ==="
    );
    let rows = deadline_rows(threads);
    println!(
        "{:<5} {:<9} {:>7} {:>9} {:>10} {:>6} {:>10} {:>10} {:>9} {:>9} {:>7}",
        "tree",
        "kind",
        "maxd",
        "budget",
        "completed",
        "value",
        "nodes",
        "stopped",
        "ms",
        "grace",
        "match"
    );
    for r in &rows {
        println!(
            "{:<5} {:<9} {:>7} {:>9} {:>10} {:>6} {:>10} {:>10} {:>9.1} {:>9.1} {:>7}",
            r.tree,
            r.kind,
            r.max_depth,
            r.budget_ms
                .map(|b| format!("{b:.0}ms"))
                .unwrap_or_else(|| "unlim".to_string()),
            r.depth_completed,
            r.value,
            r.nodes,
            r.stopped.as_deref().unwrap_or("-"),
            r.elapsed_ms,
            r.grace_ms,
            if r.kind == "equality" {
                if r.matches_fixed_depth {
                    "yes"
                } else {
                    "NO"
                }
            } else {
                "-"
            }
        );
    }
    // The issue's acceptance bars. (1) A tripped deadline stops the run
    // with bounded grace: workers poll between jobs and inside serial
    // batches, so even on a loaded CI host the overshoot stays far under a
    // second. (2) Shrinking budgets never *increase* the completed depth
    // beyond the unlimited run's. (3) Equality rows assert bit-identical
    // values inside `deadline_rows` and report it here.
    for r in rows
        .iter()
        .filter(|r| r.stopped.as_deref() == Some("deadline"))
    {
        assert!(
            r.grace_ms < 500.0,
            "{} budget {:?}ms: deadline overshoot {:.1}ms exceeds the 500ms \
             grace bound",
            r.tree,
            r.budget_ms,
            r.grace_ms
        );
    }
    let full = rows
        .iter()
        .find(|r| r.kind == "anytime" && r.budget_ms.is_none())
        .expect("unlimited anytime row");
    assert_eq!(
        full.depth_completed, full.max_depth,
        "unlimited budget must complete every depth"
    );
    for r in rows.iter().filter(|r| r.kind == "anytime") {
        assert!(
            r.depth_completed <= full.depth_completed,
            "{:?}ms budget completed deeper than unlimited",
            r.budget_ms
        );
    }
    assert!(
        rows.iter()
            .filter(|r| r.kind == "equality")
            .all(|r| r.matches_fixed_depth),
        "every equality row must match the fixed-depth value"
    );
    println!(
        "\nall tripped deadlines stopped within 500ms of budget; full-budget \
         anytime values bit-identical to fixed-depth runs on R1, O1, C1"
    );
    save_json("deadline", &rows);
}

fn trace() {
    use er_bench::experiments::{
        chrome_export, speculation_rows, trace_rows, TraceBench, SPECULATION_COUNTS,
    };
    let mut cli = er_bench::cli::Cli::from_env("trace");
    let threads = cli.threads_list(&[1, 2, 4, 8]);
    cli.finish();
    println!("\n=== Search telemetry: traced R1 runs (threads {threads:?}) ===");
    let rows = trace_rows(&threads);
    println!(
        "{:<5} {:>7} {:>9} {:>8} {:>8} {:>6} {:>6} {:>10} {:>7} {:>9} {:>6} {:>8}",
        "tree",
        "threads",
        "events",
        "dropped",
        "jobs",
        "busy%",
        "park%",
        "lockwait",
        "steals",
        "stealhits",
        "qmax",
        "ms"
    );
    for r in &rows {
        println!(
            "{:<5} {:>7} {:>9} {:>8} {:>8} {:>5.1}% {:>5.1}% {:>8.0}ns {:>7} {:>9} {:>6} {:>8.1}",
            r.tree,
            r.threads,
            r.events,
            r.dropped,
            r.jobs,
            100.0 * r.busy_fraction,
            100.0 * r.park_fraction,
            r.mean_lock_wait_ns,
            r.steal_attempts,
            r.steal_hits,
            r.queue_depth_max,
            r.elapsed_ms
        );
    }
    // Every traced run recorded something, and the bounded rings behaved:
    // a run can drop old events, never fail. Per-row root values (traced
    // == untraced == alpha-beta) and one-timeline-row-per-worker are
    // asserted inside `trace_rows` itself.
    for r in &rows {
        assert!(r.events > 0, "{}@{}: empty trace", r.tree, r.threads);
        assert!(r.jobs > 0, "{}@{}: no job spans", r.tree, r.threads);
    }

    println!("\nSpeculation accounting (deterministic simulator classification):");
    let speculation = speculation_rows();
    println!(
        "{:>6} {:>10} {:>10} {:>12} {:>10} {:>8}",
        "procs", "mandatory", "examined", "speculative", "skipped", "wasted%"
    );
    for s in &speculation {
        println!(
            "{:>6} {:>10} {:>10} {:>12} {:>10} {:>7.1}%",
            s.processors,
            s.mandatory,
            s.examined,
            s.speculative,
            s.mandatory_skipped,
            100.0 * s.wasted_fraction
        );
    }
    // The plateau check the issue asks for, on *node counts* (the
    // classification runs on the deterministic simulator, so these are the
    // same integers on every run — no timing margins). Speculative work
    // must grow from one processor to the mid counts, and the tail of the
    // curve must flatten: the last doubling of processors may add at most
    // as many speculative nodes as the whole climb to the midpoint did.
    let spec_at = |k: usize| {
        speculation
            .iter()
            .find(|s| s.processors == k)
            .unwrap_or_else(|| panic!("missing speculation split for k={k}"))
            .speculative
    };
    let (lo, mid, hi) = (
        SPECULATION_COUNTS[0],
        SPECULATION_COUNTS[SPECULATION_COUNTS.len() / 2],
        *SPECULATION_COUNTS.last().unwrap(),
    );
    assert!(
        spec_at(mid) > spec_at(lo),
        "speculative nodes must grow {lo}->{mid} processors ({} vs {})",
        spec_at(lo),
        spec_at(mid)
    );
    let climb = spec_at(mid) - spec_at(lo);
    let tail = spec_at(hi).saturating_sub(spec_at(mid));
    assert!(
        tail <= climb,
        "speculative curve must plateau: {mid}->{hi} added {tail} nodes, \
         more than the whole {lo}->{mid} climb of {climb}"
    );
    println!(
        "plateau: +{climb} speculative nodes from {lo}->{mid} processors, \
         +{tail} from {mid}->{hi}"
    );

    println!("\nChrome-trace timeline (4-thread table-backed deepening run):");
    let chrome = chrome_export(4);
    trace::lint::check(&chrome.json).expect("chrome trace must be well-formed JSON");
    assert!(
        chrome.data.kinds_missing().is_empty(),
        "chrome export must cover every declared event kind"
    );
    println!(
        "  {} events over {} worker rows + driver, every one of the {} \
         event kinds present (coverage after {} budgeted attempt(s))",
        chrome.data.total_events(),
        chrome.data.workers.len(),
        trace::KIND_COUNT,
        chrome.attempts
    );
    fs::create_dir_all("results").expect("create results/");
    fs::write("results/trace_chrome.json", chrome.json.as_bytes())
        .expect("write results/trace_chrome.json");
    println!("  -> results/trace_chrome.json (load in chrome://tracing or Perfetto)");

    let bench = TraceBench {
        tree: rows[0].tree.clone(),
        depth: rows[0].depth,
        rows,
        speculation,
        chrome_events: chrome.data.total_events(),
        chrome_attempts: chrome.attempts,
    };
    let rendered = er_bench::json::to_pretty(&bench);
    trace::lint::check(&rendered).expect("results/trace.json must be well-formed JSON");
    save_json("trace", &bench);
}

fn serve() {
    let mut cli = er_bench::cli::Cli::from_env("serve");
    let sessions = cli.count("--sessions", 64, 1..=4096) as usize;
    let threads = cli.count("--threads", 4, 1..=64) as usize;
    let tt_bits = cli.tt_bits(16);
    cli.finish();

    println!(
        "\n=== Multi-session engine server: {sessions} sessions on {threads} \
         worker(s), caps {} active x {} queued ===",
        er_bench::serve::MAX_ACTIVE,
        er_bench::serve::MAX_QUEUED
    );
    let m = std::sync::Arc::new(metrics::EngineMetrics::new(threads));
    let (bench, snapshots) = er_bench::serve::serve_bench_observed(
        sessions,
        threads,
        tt_bits,
        Some(std::sync::Arc::clone(&m)),
        er_bench::serve::SNAPSHOT_EVERY_SLICES,
    );
    // Every periodic exposition snapshot must pass the format linter
    // before anything is written; the final page is saved for scraping.
    for page in &snapshots {
        metrics::lint::check(page).expect("periodic metrics snapshot must lint clean");
    }
    let final_page = m.expose();
    metrics::lint::check(&final_page).expect("final metrics page must lint clean");
    fs::create_dir_all("results").expect("create results/");
    fs::write("results/serve_metrics.prom", &final_page).expect("write serve_metrics.prom");
    println!(
        "metrics: {} periodic snapshots lint-clean, {:.0} nodes/s over {} \
         searches, tt occupancy {:.1}%  -> results/serve_metrics.prom",
        snapshots.len(),
        m.nodes_per_sec(),
        m.search_runs_total.value(),
        100.0 * m.tt_occupancy.ratio()
    );

    println!(
        "admitted {} / shed {} / retried-to-completion {} (errored {}, \
         solo mismatches {})",
        bench.admitted, bench.shed, bench.completed, bench.errored, bench.solo_mismatches
    );
    println!(
        "latency p50 {:.1}ms p99 {:.1}ms, p99/budget {:.3}, throughput \
         {:.1} sessions/s over {:.0}ms, {} degraded",
        bench.p50_latency_ms,
        bench.p99_latency_ms,
        bench.p99_budget_ratio,
        bench.throughput_per_s,
        bench.wall_ms,
        bench.degraded
    );
    println!(
        "{:<12} {:>6} {:>8} {:>12} {:>12} {:>7}",
        "class", "weight", "sessions", "service ms", "latency ms", "share"
    );
    for c in &bench.classes {
        println!(
            "{:<12} {:>6} {:>8} {:>12.2} {:>12.1} {:>6.1}%",
            c.class,
            c.weight,
            c.sessions,
            c.mean_service_ms,
            c.mean_latency_ms,
            100.0 * c.service_share
        );
    }
    println!(
        "fairness spread (max/min weight-normalized service): {:.2}",
        bench.fairness_spread
    );

    let rendered = er_bench::json::to_pretty(&bench);
    trace::lint::check(&rendered).expect("results/serve.json must be well-formed JSON");
    save_json("serve", &bench);
}

fn uci() {
    let mut cli = er_bench::cli::Cli::from_env("uci");
    let threads = cli.count("--threads", 2, 1..=64) as usize;
    let tt_bits = cli.tt_bits(16);
    cli.finish();
    let cfg = engine_server::uci::UciConfig {
        threads,
        tt_bits,
        ..engine_server::uci::UciConfig::default()
    };
    let stdin = std::io::stdin();
    engine_server::uci::run(stdin.lock(), std::io::stdout(), cfg).expect("protocol loop I/O");
}

fn mech() {
    use er_bench::mech::{self, MECH_CORPUS_BOARDS, MECH_MIN_SPEEDUP};

    let mut cli = er_bench::cli::Cli::from_env("mech");
    let workers = cli.threads_list(&[1, 2, 4]);
    cli.finish();

    println!("\n=== Mechanical sympathy: branchless kernels vs loop reference ===");
    let corpus = mech::board_corpus(MECH_CORPUS_BOARDS);
    let pairs = mech::check_corpus_equivalence(&corpus);
    println!(
        "corpus: {} playout boards, {pairs} (board, move) pairs; \
         legal_moves/flips/moves_and_flips all agree with the loop kernels",
        corpus.len()
    );

    let (kernels, combined) = mech::kernel_bench(&corpus);
    println!(
        "\n{:<14} {:>12} {:>14} {:>9} {:>12}",
        "kernel", "loop ns/brd", "branchless ns", "speedup", "Mboards/s"
    );
    for k in &kernels {
        println!(
            "{:<14} {:>12.1} {:>14.1} {:>8.2}x {:>12.1}",
            k.kernel, k.reference_ns, k.branchless_ns, k.speedup, k.mboards_per_sec
        );
    }
    println!("\ncombined legal_moves+flips speedup: {combined:.2}x (floor {MECH_MIN_SPEEDUP}x)");
    assert!(
        combined >= MECH_MIN_SPEEDUP,
        "branchless kernels must be >= {MECH_MIN_SPEEDUP}x the loop reference \
         on legal_moves+flips (measured {combined:.2}x)"
    );

    println!("\nperft (identical under both kernel sets):");
    let perft = mech::perft_rows(7);
    for (d, n) in &perft {
        println!("  perft({d}) = {n}");
    }

    // Root-value equality across every search back-end on the O1 tree,
    // with the threaded runs traced so the telemetry subsystem vouches
    // that real work happened (and its export stays well-formed).
    let o1 = othello_trees()[0];
    let cfg = er_parallel::ErParallelConfig::new(o1.serial_depth, o1.order);
    let scfg = search_serial::er::ErConfig::new(o1.order);
    let mut backends = Vec::new();
    let ab = search_serial::alphabeta(&o1.root, o1.depth, o1.order);
    backends.push(("alphabeta".to_string(), 1usize, ab.value));
    let er = search_serial::er_search(&o1.root, o1.depth, scfg);
    backends.push(("er-serial".to_string(), 1, er.value));
    let sim = er_parallel::run_er_sim(&o1.root, o1.depth, 4, &cfg);
    backends.push(("er-sim".to_string(), 4, sim.value));
    let tracer = trace::Tracer::new();
    for &k in &workers {
        let r = er_parallel::run_er_threads_with(
            &o1.root,
            o1.depth,
            Window::FULL,
            k,
            &cfg,
            Hooks::default().with_tracer(&tracer),
        )
        .expect("unlimited-control run cannot abort");
        backends.push(("er-threads".to_string(), k, r.value));
    }
    println!("\n{:<18} {:>7} {:>8}", "backend", "workers", "value");
    for (name, k, v) in &backends {
        println!("{name:<18} {k:>7} {v:>8}");
        assert_eq!(
            *v, ab.value,
            "{name} at {k} workers must match the serial alpha-beta root value"
        );
    }
    let data = tracer.snapshot();
    let trace_events = data.total_events();
    assert!(trace_events > 0, "traced runs must record events");
    trace::lint::check(&trace::chrome_json(&data)).expect("mech Chrome trace must be valid JSON");
    println!(
        "\nall {} back-end rows agree on root value {}",
        backends.len(),
        ab.value
    );

    let report = mech::MechReport {
        corpus_boards: corpus.len(),
        kernels,
        combined_speedup: combined,
        perft,
        backends: backends
            .into_iter()
            .map(|(backend, workers, value)| mech::MechBackendRow {
                backend,
                workers,
                value: value.get(),
            })
            .collect(),
        trace_events,
    };
    save_json("mech", &report);
    let pretty = er_bench::json::to_pretty(&report);
    trace::lint::check(&pretty).expect("results/mech.json must be valid JSON");
}

/// One `repro match` pairing, flattened for the report: W/D/L plus the
/// per-move telemetry the game loop recorded.
struct MatchPairingRow {
    family: String,
    name_a: String,
    name_b: String,
    games: usize,
    points_a: u32,
    points_b: u32,
    wins_a: u32,
    draws_a: u32,
    losses_a: u32,
    illegal_moves: u32,
    forfeits: u32,
    total_moves: usize,
    /// Telemetry rows dropped by the [`MATCH_MOVE_ROW_CAP`] (aggregates
    /// above still cover every move).
    moves_dropped: usize,
    mean_depth_a: f64,
    mean_depth_b: f64,
    /// TT hit rate over the ER engine's post-opening moves (its warmth).
    warm_hit_rate: f64,
    moves: Vec<MatchMoveRow>,
}

/// One move's telemetry in `results/match.json`.
struct MatchMoveRow {
    game: usize,
    ply: u32,
    engine: String,
    mv: String,
    depth: u32,
    value: i32,
    nodes: u64,
    budget_ms: u64,
    elapsed_ms: u64,
    clock_after_ms: u64,
    tt_probes: u64,
    tt_hits: u64,
}

impl er_bench::json::ToJson for MatchPairingRow {
    fn write_json(&self, out: &mut String, indent: usize) {
        er_bench::json::write_object(
            out,
            indent,
            &[
                ("family", &self.family),
                ("name_a", &self.name_a),
                ("name_b", &self.name_b),
                ("games", &self.games),
                ("points_a", &self.points_a),
                ("points_b", &self.points_b),
                ("wins_a", &self.wins_a),
                ("draws_a", &self.draws_a),
                ("losses_a", &self.losses_a),
                ("illegal_moves", &self.illegal_moves),
                ("forfeits", &self.forfeits),
                ("total_moves", &self.total_moves),
                ("moves_dropped", &self.moves_dropped),
                ("mean_depth_a", &self.mean_depth_a),
                ("mean_depth_b", &self.mean_depth_b),
                ("warm_hit_rate", &self.warm_hit_rate),
                ("moves", &self.moves),
            ],
        );
    }
}

impl er_bench::json::ToJson for MatchMoveRow {
    fn write_json(&self, out: &mut String, indent: usize) {
        er_bench::json::write_object(
            out,
            indent,
            &[
                ("game", &self.game),
                ("ply", &self.ply),
                ("engine", &self.engine),
                ("mv", &self.mv),
                ("depth", &self.depth),
                ("value", &self.value),
                ("nodes", &self.nodes),
                ("budget_ms", &self.budget_ms),
                ("elapsed_ms", &self.elapsed_ms),
                ("clock_after_ms", &self.clock_after_ms),
                ("tt_probes", &self.tt_probes),
                ("tt_hits", &self.tt_hits),
            ],
        );
    }
}

/// Cap on per-move telemetry rows kept per pairing in the JSON exports,
/// mirroring the bounded Chrome-export ring (`trace`'s ring capacity):
/// a long `--games` run must not grow `results/match.json` without bound.
/// The earliest rows in play order are kept; the aggregate fields
/// (`total_moves`, means, the warm-hit gate) still cover every move.
const MATCH_MOVE_ROW_CAP: usize = 2048;

/// Flattens a finished match and enforces the game-loop contract: only
/// legal moves, no clock forfeits, no ply-cap games, and nonzero TT hits
/// on every post-opening move of the warm ER engine.
fn match_pairing_row(r: &match_harness::MatchResult) -> MatchPairingRow {
    use match_harness::TerminalKind;
    let mut moves = Vec::new();
    let mut illegal = 0u32;
    let mut forfeits = 0u32;
    let mut depth_sum = [0u64; 2];
    let mut depth_n = [0u64; 2];
    let mut warm = (0u64, 0u64); // (hits, probes) on ER post-opening moves
    for (g, game) in r.games.iter().enumerate() {
        illegal += game.illegal_moves;
        if game.terminal == TerminalKind::Forfeit {
            forfeits += 1;
        }
        assert_ne!(
            game.terminal,
            TerminalKind::Capped,
            "{} game {g}: hit the safety ply cap — rules regression",
            r.family.name()
        );
        for (i, m) in game.moves.iter().enumerate() {
            // Game parity maps the mover back to an engine: even-indexed
            // games have A moving first, odd-indexed have B.
            let is_a = (g % 2 == 0) == (m.mover == 0);
            let engine = if is_a { &r.name_a } else { &r.name_b };
            let side = usize::from(!is_a);
            depth_sum[side] += u64::from(m.depth);
            depth_n[side] += 1;
            if engine.starts_with("er") && i >= 2 {
                assert!(
                    m.tt_hits > 0,
                    "{} game {g} move {i} ({engine}): zero TT hits on a \
                     post-opening move — the table is not staying warm \
                     (completed depth {}, budget {} ms, {} nodes, {} probes)",
                    r.family.name(),
                    m.depth,
                    m.budget_ms,
                    m.nodes,
                    m.tt_probes
                );
                warm.0 += m.tt_hits;
                warm.1 += m.tt_probes;
            }
            moves.push(MatchMoveRow {
                game: g,
                ply: m.ply,
                engine: engine.clone(),
                mv: m.label.clone(),
                depth: m.depth,
                value: m.value,
                nodes: m.nodes,
                budget_ms: m.budget_ms,
                elapsed_ms: m.elapsed_ms,
                clock_after_ms: m.clock_after_ms,
                tt_probes: m.tt_probes,
                tt_hits: m.tt_hits,
            });
        }
    }
    assert_eq!(illegal, 0, "{}: illegal moves played", r.family.name());
    assert_eq!(forfeits, 0, "{}: clock forfeits", r.family.name());
    let mean = |s: u64, n: u64| s as f64 / n.max(1) as f64;
    let total_moves = moves.len();
    let moves_dropped = total_moves.saturating_sub(MATCH_MOVE_ROW_CAP);
    moves.truncate(MATCH_MOVE_ROW_CAP);
    assert!(
        moves.len() <= MATCH_MOVE_ROW_CAP,
        "per-move telemetry must stay within the export cap"
    );
    MatchPairingRow {
        family: r.family.name().to_string(),
        name_a: r.name_a.clone(),
        name_b: r.name_b.clone(),
        games: r.games.len(),
        points_a: r.points_a,
        points_b: r.points_b,
        wins_a: r.wdl_a.0,
        draws_a: r.wdl_a.1,
        losses_a: r.wdl_a.2,
        illegal_moves: illegal,
        forfeits,
        total_moves,
        moves_dropped,
        mean_depth_a: mean(depth_sum[0], depth_n[0]),
        mean_depth_b: mean(depth_sum[1], depth_n[1]),
        warm_hit_rate: mean(warm.0, warm.1),
        moves,
    }
}

fn obs() {
    let mut cli = er_bench::cli::Cli::from_env("obs");
    let sessions = cli.count("--sessions", 16, 1..=4096) as usize;
    let games = cli.count("--games", 2, 2..=64) as usize;
    let threads = cli.count("--threads", 2, 1..=64) as usize;
    cli.finish();

    println!(
        "\n=== Observability gates: {} probe trees, then {sessions} sessions \
         + {games} games observed ===",
        er_bench::obs::PROBE_SEEDS
    );
    let (bench, page) =
        er_bench::obs::obs_bench(sessions, games, threads, er_bench::obs::PROBE_DEPTH);

    println!(
        "{:<6} {:>10} {:>10} {:>10} {:>10}",
        "seed", "value off", "value on", "nodes off", "nodes on"
    );
    for p in &bench.probes {
        println!(
            "{:<6} {:>10} {:>10} {:>10} {:>10}",
            p.seed, p.value_off, p.value_on, p.nodes_off, p.nodes_on
        );
    }
    println!(
        "identity gate: {} probes identical off vs on, folds exact",
        bench.probes.len()
    );
    println!(
        "mixed workload: {}/{} sessions completed, {} lint-clean snapshots, \
         {} match moves over {} games, {:.0} nodes/s recorded, tt fill \
         {:.1}%",
        bench.serve_completed,
        bench.serve_sessions,
        bench.serve_snapshots,
        bench.match_moves,
        bench.match_games,
        bench.workload_nps,
        100.0 * bench.tt_occupancy
    );

    fs::create_dir_all("results").expect("create results/");
    fs::write("results/obs_metrics.prom", &page).expect("write obs_metrics.prom");
    println!(
        "  -> results/obs_metrics.prom ({} lines)",
        bench.exposition_lines
    );
    let rendered = er_bench::json::to_pretty(&bench);
    trace::lint::check(&rendered).expect("results/obs.json must be well-formed JSON");
    save_json("obs", &bench);
}

fn match_play() {
    use match_harness::{run_match, EngineSpec, Family, MatchConfig};

    let mut cli = er_bench::cli::Cli::from_env("match");
    let games = cli.count("--games", 8, 2..=256) as usize;
    let (base_ms, inc_ms) = cli.tc((1000, 10));
    let threads = cli.count("--threads", 2, 1..=64) as usize;
    let tt_bits = cli.tt_bits(16);
    cli.finish();

    let cfg = MatchConfig {
        games,
        tc: engine_server::TimeControl::from_millis(base_ms, inc_ms),
        tt_bits,
        ..MatchConfig::default()
    };
    println!(
        "\n=== Self-play matches: {games} games/pairing at {base_ms}+{inc_ms}ms, \
         er{threads} on 2^{tt_bits}-entry tables ==="
    );

    // Two odds regimes per family. Fixed-depth ignores the clock (its
    // node count is position-determined — fixed-node odds); serial-id
    // spends the same per-move allotment as ER (fixed-time odds).
    let er = EngineSpec::ErThreads { threads };
    let pairings = [
        (er, EngineSpec::FixedDepth { depth: 2 }),
        (er, EngineSpec::SerialId),
    ];
    let mut rows = Vec::new();
    for family in [Family::Othello, Family::Checkers] {
        for (a, b) in pairings {
            let r = run_match(family, a, b, &cfg);
            rows.push(match_pairing_row(&r));
        }
    }

    println!(
        "{:<9} {:<18} {:>6} {:>5} {:>5} {:>8} {:>6} {:>7} {:>7} {:>9}",
        "family",
        "pairing",
        "games",
        "ptsA",
        "ptsB",
        "W-D-L(A)",
        "moves",
        "depthA",
        "depthB",
        "warmhit"
    );
    for r in &rows {
        println!(
            "{:<9} {:<18} {:>6} {:>5} {:>5} {:>8} {:>6} {:>7.1} {:>7.1} {:>8.1}%",
            r.family,
            format!("{} v {}", r.name_a, r.name_b),
            r.games,
            r.points_a,
            r.points_b,
            format!("{}-{}-{}", r.wins_a, r.draws_a, r.losses_a),
            r.total_moves,
            r.mean_depth_a,
            r.mean_depth_b,
            100.0 * r.warm_hit_rate
        );
    }

    // The strength-regression gate: at equal odds the warm threaded ER
    // engine must not lose the match to the fixed-depth serial baseline.
    for r in rows.iter().filter(|r| r.name_b.starts_with("fixed")) {
        assert!(
            r.points_a >= r.points_b,
            "{}: {} scored {} points vs {}'s {} — warm ER fell below the \
             fixed-depth baseline",
            r.family,
            r.name_a,
            r.points_a,
            r.name_b,
            r.points_b
        );
        println!(
            "{}: {} >= {} at equal odds ({} vs {} points) — strength gate holds",
            r.family, r.name_a, r.name_b, r.points_a, r.points_b
        );
    }

    // Export-size gate: per-move rows are capped like the Chrome-export
    // ring; anything dropped is accounted, never silently truncated.
    for r in &rows {
        assert!(
            r.moves.len() <= MATCH_MOVE_ROW_CAP,
            "{} {} v {}: {} telemetry rows exceed the {MATCH_MOVE_ROW_CAP}-row export cap",
            r.family,
            r.name_a,
            r.name_b,
            r.moves.len()
        );
        assert_eq!(r.moves.len() + r.moves_dropped, r.total_moves);
        if r.moves_dropped > 0 {
            println!(
                "{} {} v {}: kept {} of {} move rows (cap {MATCH_MOVE_ROW_CAP})",
                r.family,
                r.name_a,
                r.name_b,
                r.moves.len(),
                r.total_moves
            );
        }
    }

    save_json("match", &rows);
    let pretty = er_bench::json::to_pretty(&rows);
    trace::lint::check(&pretty).expect("results/match.json must be valid JSON");
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    match arg.as_str() {
        "table3" => table3(),
        "fig10" => fig(10),
        "fig11" => fig(11),
        "fig12" => fig(12),
        "fig13" => fig(13),
        "baselines" => baselines(),
        "ablation" => ablation(),
        "overhead" => overhead(),
        "sweep" => sweep(),
        "ordering" => ordering(),
        "gantt" => gantt(),
        "threads" => threads(),
        "tt" => tt(),
        "scaling" => scaling(),
        "deadline" => deadline(),
        "trace" => trace(),
        "serve" => serve(),
        "uci" => uci(),
        "mech" => mech(),
        "obs" => obs(),
        "match" => match_play(),
        "all" => {
            table3();
            fig(10);
            fig(11);
            fig(12);
            fig(13);
            baselines();
            ablation();
            overhead();
            sweep();
            ordering();
            gantt();
            threads();
            tt();
            scaling();
            deadline();
            trace();
            serve();
            mech();
            obs();
            match_play();
        }
        other => {
            eprintln!(
                "unknown experiment '{other}'; use \
                 table3|fig10|fig11|fig12|fig13|baselines|ablation|overhead|sweep|ordering|\
                 gantt|threads|tt|scaling|deadline|trace|serve|mech|obs|match|uci|all"
            );
            std::process::exit(2);
        }
    }
}
