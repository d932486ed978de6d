//! Sweep processor counts on a random tree and print the efficiency
//! curve — a single-tree version of the paper's Figure 11.
//!
//! ```sh
//! cargo run --release --example random_tree_scaling [degree] [height] [serial_depth]
//! ```

use er_search::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let degree: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);
    let height: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(10);
    let serial_depth: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(7);

    let root = RandomTreeSpec::new(1, degree, height).root();
    println!("random tree: degree {degree}, {height} ply, serial depth {serial_depth}\n");

    let cost = CostModel::default();
    let ab = alphabeta(&root, height, OrderPolicy::NATURAL);
    let er = er_search(&root, height, ErConfig::NATURAL);
    let serial_best = cost
        .serial_ticks(&ab.stats)
        .min(cost.serial_ticks(&er.stats));
    println!(
        "serial alpha-beta: {} nodes, {} ticks",
        ab.stats.nodes(),
        cost.serial_ticks(&ab.stats)
    );
    println!(
        "serial ER:         {} nodes, {} ticks",
        er.stats.nodes(),
        cost.serial_ticks(&er.stats)
    );

    let cfg = ErParallelConfig::random_tree(serial_depth);
    println!(
        "\n{:>6} {:>9} {:>11} {:>9} {:>11}",
        "procs", "speedup", "efficiency", "nodes", "starvation"
    );
    for k in [1usize, 2, 4, 6, 8, 10, 12, 14, 16, 24, 32] {
        let r = run_er_sim(&root, height, k, &cfg);
        assert_eq!(r.value, ab.value);
        println!(
            "{:>6} {:>9.2} {:>11.3} {:>9} {:>11}",
            k,
            r.report.speedup(serial_best),
            r.report.efficiency(serial_best),
            r.stats.nodes(),
            r.report.starvation_ticks()
        );
    }
    println!("\n(speedup is measured against the fastest serial algorithm, paper §3)");
}
