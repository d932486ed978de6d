//! Compare every parallel algorithm in the library on one tree — the
//! head-to-head the paper's §8 names as future work.
//!
//! ```sh
//! cargo run --release --example compare_algorithms [seed]
//! ```

use er_parallel::baselines::{
    run_aspiration_guess, run_mwf, run_pv_split, run_tree_split, ProcShape,
};
use er_search::prelude::*;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let (degree, height, serial_depth) = (4u32, 10u32, 7u32);
    let root = RandomTreeSpec::new(seed, degree, height).root();
    let cost = CostModel::default();

    let ab = alphabeta(&root, height, OrderPolicy::NATURAL);
    let er = er_search(&root, height, ErConfig::NATURAL);
    let serial_best = cost
        .serial_ticks(&ab.stats)
        .min(cost.serial_ticks(&er.stats));
    println!(
        "random tree (seed {seed}): degree {degree}, {height} ply; fastest serial = {serial_best} ticks\n"
    );

    let er_cfg = ErParallelConfig::random_tree(serial_depth);
    let guess = alphabeta(&root, height - 2, OrderPolicy::NATURAL).value;

    println!(
        "{:<14} {:>6} {:>9} {:>9} {:>10}",
        "algorithm", "procs", "speedup", "eff", "nodes"
    );
    for k in [4usize, 8, 16] {
        let r = run_er_sim(&root, height, k, &er_cfg);
        println!(
            "{:<14} {:>6} {:>9.2} {:>9.2} {:>10}",
            "ER",
            k,
            r.report.speedup(serial_best),
            r.report.efficiency(serial_best),
            r.stats.nodes()
        );
    }
    for k in [4usize, 8, 16] {
        let r = run_mwf(&root, height, k, serial_depth, OrderPolicy::NATURAL, &cost);
        let s = serial_best as f64 / r.report.makespan as f64;
        println!(
            "{:<14} {:>6} {:>9.2} {:>9.2} {:>10}",
            "MWF",
            k,
            s,
            s / k as f64,
            r.stats.nodes()
        );
    }
    for k in [4usize, 8, 16] {
        let r = run_aspiration_guess(&root, height, guess, k, 60, OrderPolicy::NATURAL, &cost);
        let s = serial_best as f64 / r.makespan as f64;
        println!(
            "{:<14} {:>6} {:>9.2} {:>9.2} {:>10}",
            "aspiration",
            k,
            s,
            s / k as f64,
            r.stats.nodes()
        );
    }
    for k in [4usize, 8, 16] {
        let shape = ProcShape::best_for(k);
        let r = run_tree_split(&root, height, shape, OrderPolicy::NATURAL, &cost);
        let s = serial_best as f64 / r.makespan as f64;
        println!(
            "{:<14} {:>6} {:>9.2} {:>9.2} {:>10}",
            "tree-split",
            r.processors,
            s,
            s / r.processors as f64,
            r.stats.nodes()
        );
    }
    for k in [4usize, 8, 16] {
        let shape = ProcShape::best_for(k);
        let r = run_pv_split(&root, height, shape, OrderPolicy::NATURAL, &cost);
        let s = serial_best as f64 / r.makespan as f64;
        println!(
            "{:<14} {:>6} {:>9.2} {:>9.2} {:>10}",
            "pv-split",
            r.processors,
            s,
            s / r.processors as f64,
            r.stats.nodes()
        );
    }
    println!("\n(ER keeps scaling where the prior algorithms plateau — the paper's central claim)");
}
