//! Search a checkers position — Fishburn's tree-splitting workload
//! (paper §4.3) — with serial algorithms and parallel ER, then compare
//! against tree-splitting itself.
//!
//! ```sh
//! cargo run --release --example checkers_search [depth]
//! ```

use er_parallel::baselines::{run_tree_split, ProcShape};
use er_search::prelude::*;

fn main() {
    let depth: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(9);

    let pos = checkers::c1();
    println!("checkers benchmark position C1 (mover = 'm'/'k', searched to {depth} ply):");
    println!("{}", pos.board.render());
    println!("legal moves: {}", pos.moves().len());

    let cost = CostModel::default();
    let ab = alphabeta(&pos, depth, OrderPolicy::OTHELLO);
    let er = er_search(&pos, depth, ErConfig::OTHELLO);
    assert_eq!(ab.value, er.value);
    let serial_best = cost
        .serial_ticks(&ab.stats)
        .min(cost.serial_ticks(&er.stats));
    println!(
        "\nvalue {}   alpha-beta {} nodes   serial ER {} nodes",
        ab.value,
        ab.stats.nodes(),
        er.stats.nodes()
    );

    let cfg = ErParallelConfig::new(6, OrderPolicy::OTHELLO);
    println!("\nparallel ER vs tree-splitting (speedup vs fastest serial):");
    for k in [4usize, 8, 16] {
        let e = run_er_sim(&pos, depth, k, &cfg);
        assert_eq!(e.value, ab.value);
        let shape = ProcShape::best_for(k);
        let t = run_tree_split(&pos, depth, shape, OrderPolicy::OTHELLO, &cost);
        assert_eq!(t.value, ab.value);
        println!(
            "  k={k:>2}: ER {:>5.2}   tree-splitting ({}p) {:>5.2}",
            e.report.speedup(serial_best),
            t.processors,
            serial_best as f64 / t.makespan as f64
        );
    }
    println!("\n(compulsory captures make checkers trees strongly ordered — the regime");
    println!(" where ER's elder-grandchild ranking shines; see EXPERIMENTS.md)");
}
