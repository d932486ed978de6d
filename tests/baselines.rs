//! Cross-crate behavioural tests of the §4 baselines: each algorithm
//! reproduces the failure mode the paper cites for it.

use er_parallel::baselines::{
    run_aspiration_guess, run_mwf, run_pv_split, run_pv_split_mw, run_root_split, run_tree_split,
    ProcShape,
};
use er_search::prelude::*;

fn serial_ticks(pos: &impl GamePosition, depth: u32, order: OrderPolicy) -> u64 {
    CostModel::default().serial_ticks(&alphabeta(pos, depth, order).stats)
}

#[test]
fn aspiration_speedup_is_bounded_by_window_quality() {
    // Even with a PERFECT guess, aspiration's speedup is the ratio of the
    // full-window search to the narrow-window search — and on a best-first
    // tree that ratio is 1 ("no speedup if nodes are visited in best-first
    // order", §4.1).
    let cm = CostModel::default();
    let root = OrderedTreeSpec::best_first(3, 4, 8).root();
    let exact = alphabeta(&root, 8, OrderPolicy::NATURAL).value;
    let serial = serial_ticks(&root, 8, OrderPolicy::NATURAL);
    let r = run_aspiration_guess(&root, 8, exact, 16, 50, OrderPolicy::NATURAL, &cm);
    let speedup = serial as f64 / r.makespan as f64;
    assert!(
        speedup < 1.3,
        "best-first trees admit no aspiration speedup, got {speedup:.2}"
    );
}

#[test]
fn subtrees_below_the_root_sort_at_their_real_ply() {
    // With `sort_ply_limit: 1` only the root's children may be sorted. A
    // serial unit or split searched below the root must start at its own
    // ply, or it sorts again as if it were the root.
    let cm = CostModel::default();
    let root_only = OrderPolicy { sort_ply_limit: 1 };
    let root = OrderedTreeSpec::strongly_ordered(5, 4, 6).root();
    let shape = ProcShape {
        branching: 2,
        height: 2,
    };
    for (name, stats) in [
        ("MWF", run_mwf(&root, 6, 4, 3, root_only, &cm).stats),
        (
            "tree-splitting",
            run_tree_split(&root, 6, shape, root_only, &cm).stats,
        ),
        (
            "pv-splitting",
            run_pv_split(&root, 6, shape, root_only, &cm).stats,
        ),
        (
            "pv-splitting (minimal window)",
            run_pv_split_mw(&root, 6, shape, root_only, &cm).stats,
        ),
    ] {
        assert_eq!(stats.sorts, 1, "{name}: only the root sorts");
    }
}

#[test]
fn tree_splitting_efficiency_degrades_with_machine_size_on_ordered_trees() {
    // Fishburn's O(1/sqrt(k)): efficiency at 15 processors is well below
    // efficiency at 3 on a strongly ordered tree.
    let cm = CostModel::default();
    let root = OrderedTreeSpec::strongly_ordered(3, 4, 8).root();
    let serial = serial_ticks(&root, 8, OrderPolicy::ALWAYS);
    let eff = |shape: ProcShape| {
        let r = run_tree_split(&root, 8, shape, OrderPolicy::ALWAYS, &cm);
        serial as f64 / r.makespan as f64 / r.processors as f64
    };
    let small = eff(ProcShape {
        branching: 2,
        height: 1,
    });
    let large = eff(ProcShape {
        branching: 2,
        height: 3,
    });
    assert!(
        large < small * 0.75,
        "efficiency must fall with machine size: {small:.2} -> {large:.2}"
    );
}

#[test]
fn mwf_extra_processors_beyond_saturation_change_nothing() {
    // "Increasing the number of processors beyond 10 seems to have
    // negligible effect" (§4.2): the deterministic simulation makes this
    // exact — 24 and 48 processors produce identical makespans once the
    // phase structure saturates.
    let cm = CostModel::default();
    let root = RandomTreeSpec::new(5, 4, 8).root();
    let m24 = run_mwf(&root, 8, 24, 5, OrderPolicy::NATURAL, &cm)
        .report
        .makespan;
    let m48 = run_mwf(&root, 8, 48, 5, OrderPolicy::NATURAL, &cm)
        .report
        .makespan;
    // Identical up to heap-lock scheduling jitter from the extra pollers.
    let diff = m24.abs_diff(m48) as f64 / m24 as f64;
    assert!(
        diff < 0.001,
        "MWF saturates: extra processors only starve ({m24} vs {m48})"
    );
}

#[test]
fn root_partition_wastes_more_than_tree_splitting() {
    // The intro's strawman examines more nodes than tree-splitting, which
    // at least shares windows between siblings.
    let cm = CostModel::default();
    let mut naive = 0u64;
    let mut ts = 0u64;
    for seed in 0..4 {
        let root = RandomTreeSpec::new(seed, 4, 7).root();
        naive += run_root_split(&root, 7, 7, OrderPolicy::NATURAL, &cm)
            .stats
            .nodes();
        ts += run_tree_split(
            &root,
            7,
            ProcShape {
                branching: 2,
                height: 2,
            },
            OrderPolicy::NATURAL,
            &cm,
        )
        .stats
        .nodes();
    }
    assert!(
        naive > ts,
        "window sharing must save nodes: naive {naive} vs tree-split {ts}"
    );
}

#[test]
fn pv_splitting_prunes_at_least_as_well_as_tree_splitting_on_real_games() {
    // The pv-splitting premise on a strongly ordered real-game tree.
    let cm = CostModel::default();
    let pos = othello::configs::o1();
    let shape = ProcShape {
        branching: 2,
        height: 2,
    };
    let pv = run_pv_split(&pos, 5, shape, OrderPolicy::OTHELLO, &cm);
    let ts = run_tree_split(&pos, 5, shape, OrderPolicy::OTHELLO, &cm);
    assert_eq!(pv.value, ts.value);
    assert!(
        pv.stats.nodes() <= ts.stats.nodes(),
        "pv-splitting must prune better on O1: {} vs {}",
        pv.stats.nodes(),
        ts.stats.nodes()
    );
}

#[test]
fn er_beats_every_baseline_on_checkers_at_sixteen() {
    // The §4.3 workload head-to-head at the paper's machine size.
    let cm = CostModel::default();
    let pos = checkers::c1();
    let depth = 8;
    let order = OrderPolicy::OTHELLO;
    let ab = alphabeta(&pos, depth, order);
    let er_serial = er_search(&pos, depth, ErConfig::new(order));
    let sb = cm
        .serial_ticks(&ab.stats)
        .min(cm.serial_ticks(&er_serial.stats));

    let cfg = ErParallelConfig::new(5, order);
    let er = run_er_sim(&pos, depth, 16, &cfg);
    let er_speedup = er.report.speedup(sb);

    let mwf = sb as f64 / run_mwf(&pos, depth, 16, 5, order, &cm).report.makespan as f64;
    let shape = ProcShape::best_for(16);
    let ts = sb as f64 / run_tree_split(&pos, depth, shape, order, &cm).makespan as f64;
    let pv = sb as f64 / run_pv_split(&pos, depth, shape, order, &cm).makespan as f64;

    for (name, s) in [("MWF", mwf), ("tree-split", ts), ("pv-split", pv)] {
        assert!(
            er_speedup > s,
            "ER ({er_speedup:.2}) must beat {name} ({s:.2}) on checkers"
        );
    }
}
