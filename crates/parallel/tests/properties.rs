//! Property and scenario tests for the parallel crate: value equivalence
//! across arbitrary trees, processor counts, and speculation settings, and
//! step-by-step checks of the Table 1/2 scheduling rules.

use er_parallel::er::engine::{execute_task, ErWorker, Frontier, Job, Select, Task};
use er_parallel::{run_er_sim, run_er_threads, ErParallelConfig, Speculation};
use gametree::arena::{leaf, node, ArenaTree, TreeSpec};
use gametree::random::RandomTreeSpec;
use gametree::{GamePosition, Value, Window};
use proptest::prelude::*;
use search_serial::{alphabeta, negmax, ErConfig, OrderPolicy};

/// The eight on/off combinations of §5's three speculation mechanisms.
fn all_speculations() -> impl Iterator<Item = Speculation> {
    (0u32..8).map(|bits| Speculation {
        parallel_refutation: bits & 1 != 0,
        multiple_enodes: bits & 2 != 0,
        early_choice: bits & 4 != 0,
    })
}

fn arb_tree() -> impl Strategy<Value = TreeSpec> {
    let leaf_strategy = (-100i32..100).prop_map(leaf);
    leaf_strategy.prop_recursive(4, 60, 4, |inner| {
        prop::collection::vec(inner, 1..5).prop_map(node)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sim_matches_negmax_on_irregular_trees(
        spec in arb_tree(),
        k in 1usize..20,
        bits in 0u32..8,
        serial_depth in 0u32..5,
    ) {
        let root = ArenaTree::root_of(&spec);
        let cfg = ErParallelConfig {
            spec: Speculation {
                parallel_refutation: bits & 1 != 0,
                multiple_enodes: bits & 2 != 0,
                early_choice: bits & 4 != 0,
            },
            ..ErParallelConfig::random_tree(serial_depth)
        };
        let r = run_er_sim(&root, 32, k, &cfg);
        prop_assert_eq!(r.value, negmax(&root, 32).value);
    }

    #[test]
    fn threads_match_negmax_on_random_trees(seed in any::<u64>(), serial_depth in 0u32..5) {
        // Every speculation combination at every thread count agrees with
        // negamax, at every serial depth of the 5-ply tree: the alpha-beta
        // frontier runs e-node and r-node jobs at each boundary.
        let root = RandomTreeSpec::new(seed, 3, 5).root();
        let exact = negmax(&root, 5).value;
        for spec in all_speculations() {
            let cfg = ErParallelConfig { spec, ..ErParallelConfig::random_tree(serial_depth) };
            for threads in [1usize, 2, 4, 8] {
                let r = run_er_threads(&root, 5, threads, &cfg);
                prop_assert_eq!(
                    r.value, exact, "{:?} at {} threads, serial depth {}", spec, threads, serial_depth
                );
            }
        }
    }

    #[test]
    fn examined_keys_are_unique(seed in any::<u64>(), k in 1usize..10) {
        // Each tree node is examined at most once per run.
        let root = RandomTreeSpec::new(seed, 3, 5).root();
        let r = run_er_sim(&root, 5, k, &ErParallelConfig::random_tree(0));
        let mut keys = r.examined_keys.clone();
        keys.sort_unstable();
        let before = keys.len();
        keys.dedup();
        prop_assert_eq!(keys.len(), before, "duplicate examined node");
    }
}

/// Executes `job` and applies its outcome; `true` once the root is done.
fn complete<P: GamePosition>(w: &mut ErWorker<P>, job: &Job, cfg: &ErParallelConfig) -> bool {
    let pos = job.task.needs_pos().then(|| w.node_pos(job.id).clone());
    let outcome = execute_task(
        &job.task,
        pos.as_ref(),
        ErConfig::new(cfg.order),
        search_serial::Hooks::default(),
    );
    w.apply(job.id, outcome)
}

/// Drives an ErWorker synchronously, returning the label sequence of the
/// first `limit` jobs (a deterministic schedule at k=1).
fn drive_labels<P: GamePosition>(
    pos: &P,
    depth: u32,
    cfg: ErParallelConfig,
    limit: usize,
) -> Vec<&'static str> {
    let mut w = ErWorker::new(pos.clone(), depth, Window::FULL, cfg, Frontier::Er);
    let mut labels = Vec::new();
    while labels.len() < limit {
        match w.select(true) {
            Select::Empty | Select::JustFinished => break,
            Select::Job(job) => {
                labels.push(match &job.task {
                    Task::Leaf => "leaf",
                    Task::CachedLeaf(_) => "cached-leaf",
                    Task::Movegen { enode: true, .. } => "movegen-e",
                    Task::Movegen { enode: false, .. } => "movegen",
                    Task::NextChild => "next-child",
                    Task::ExpandRest => "expand-rest",
                    Task::Serial { refute: false, .. } => "serial-eval",
                    Task::Serial { refute: true, .. } => "serial-refute",
                });
                if complete(&mut w, &job, &cfg) {
                    break;
                }
            }
        }
    }
    labels
}

#[test]
fn table1_schedule_starts_with_root_expansion_then_undecided_children() {
    // Root is an e-node: its movegen is unsorted ("movegen-e"); its
    // children are undecided, each generating its first child (an e-node
    // chain) — the elder-grandchild machinery of §5.
    let root = RandomTreeSpec::new(5, 3, 4).root();
    let labels = drive_labels(&root, 4, ErParallelConfig::random_tree(0), 3);
    assert_eq!(labels[0], "movegen-e", "Table 1 row 1 at the root");
    assert_eq!(
        labels[1], "movegen",
        "undecided child generates first child"
    );
    // Deepest-first: the freshly spawned e-node grandchild goes next.
    assert_eq!(labels[2], "movegen-e", "elder grandchild expands as e-node");
}

#[test]
fn serial_frontier_jobs_have_the_right_discipline() {
    // With serial_depth = 3 on a 4-ply tree: the root expands, its
    // undecided children spawn elder grandchildren at depth 2 <= 2 (the
    // e-node serial limit is serial_depth - 1), which run as serial
    // evaluations.
    let root = RandomTreeSpec::new(5, 3, 4).root();
    let labels = drive_labels(&root, 4, ErParallelConfig::random_tree(3), 6);
    assert_eq!(labels[0], "movegen-e");
    assert!(
        labels.contains(&"serial-eval"),
        "elder grandchildren run as serial evaluations: {labels:?}"
    );
}

#[test]
fn alphabeta_frontier_takes_fresh_enodes_at_the_full_serial_depth() {
    // A 4-ply root at serial depth 4: serial ER keeps an e-node one ply
    // inside its evaluation limit, so it expands the root; alpha-beta
    // solves the whole root in one serial job.
    let root = RandomTreeSpec::new(5, 3, 4).root();
    let cfg = ErParallelConfig::random_tree(4);
    for frontier in [Frontier::Er, Frontier::AlphaBeta] {
        let mut w = ErWorker::new(root, 4, Window::FULL, cfg, frontier);
        let Select::Job(job) = w.select(true) else {
            panic!("the root is the first job");
        };
        let serial = matches!(job.task, Task::Serial { frontier: f, .. } if f == frontier);
        assert_eq!(serial, frontier == Frontier::AlphaBeta, "{:?}", job.task);
    }
}

#[test]
fn grain_lifted_frontier_matches_the_oracle() {
    // Degree-4 random trees of height 8-10 at serial depths 0-4: every
    // positive floor is lifted (to 6, 7 and 7 by height); 0 keeps every
    // node on the heap. Eight threads oversubscribe a small host.
    for (seed, height) in [(21u64, 8u32), (22, 9), (23, 10)] {
        let root = RandomTreeSpec::new(seed, 4, height).root();
        let exact = alphabeta(&root, height, OrderPolicy::NATURAL).value;
        if height == 8 {
            assert_eq!(exact, negmax(&root, height).value);
        }
        for serial_depth in 0..=4 {
            let cfg = ErParallelConfig::random_tree(serial_depth);
            for threads in [1usize, 2, 4, 8] {
                let r = run_er_threads(&root, height, threads, &cfg);
                assert_eq!(
                    r.value, exact,
                    "height {height}, serial depth {serial_depth}, {threads} threads"
                );
            }
        }
    }
    let (_, othello) = othello::configs::all().remove(0);
    let checkers = checkers::c1();
    let o = alphabeta(&othello, 6, OrderPolicy::OTHELLO).value;
    let c = alphabeta(&checkers, 7, OrderPolicy::OTHELLO).value;
    for serial_depth in 1..=4 {
        let cfg = ErParallelConfig {
            order: OrderPolicy::OTHELLO,
            ..ErParallelConfig::random_tree(serial_depth)
        };
        for threads in [1usize, 2, 4, 8] {
            let at = format!("serial depth {serial_depth}, {threads} threads");
            assert_eq!(run_er_threads(&othello, 6, threads, &cfg).value, o, "{at}");
            assert_eq!(run_er_threads(&checkers, 7, threads, &cfg).value, c, "{at}");
        }
    }
}

#[test]
fn refutation_jobs_appear_after_the_echild_evaluates() {
    let root = RandomTreeSpec::new(5, 3, 6).root();
    let labels = drive_labels(&root, 6, ErParallelConfig::random_tree(3), 200);
    assert!(
        labels.contains(&"serial-refute"),
        "r-node frontier jobs must use the refute discipline: {labels:?}"
    );
    // Refutes only appear after at least one evaluation completed.
    let first_refute = labels.iter().position(|&l| l == "serial-refute").unwrap();
    let first_eval = labels.iter().position(|&l| l == "serial-eval").unwrap();
    assert!(first_eval < first_refute);
}

#[test]
fn speculative_queue_is_popped_only_when_asked() {
    // Run the worker like a four-processor heap: take with `select(false)`
    // until the primary queue runs dry, then complete the oldest job. The
    // first time the primary queue is empty while the speculative queue
    // still holds an e-node, `select(false)` must keep answering `Empty`
    // and `select(true)` must promote an e-child and hand out its job.
    let root = RandomTreeSpec::new(5, 3, 6).root();
    let cfg = ErParallelConfig::random_tree(0);
    let mut w = ErWorker::new(root, 6, Window::FULL, cfg, Frontier::Er);
    let mut pending = std::collections::VecDeque::new();
    loop {
        let mut dry = false;
        while pending.len() < 4 {
            match w.select(false) {
                Select::Job(job) => pending.push_back(job),
                Select::Empty => {
                    dry = true;
                    break;
                }
                Select::JustFinished => panic!("finished before the speculative queue was used"),
            }
        }
        if dry && w.work_available() {
            break;
        }
        let job = pending.pop_front().expect("work in flight");
        assert!(
            !complete(&mut w, &job, &cfg),
            "finished before the speculative queue was used"
        );
    }
    assert!(matches!(w.select(false), Select::Empty));
    assert!(
        w.work_available(),
        "select(false) left the speculative queue"
    );
    assert!(matches!(w.select(true), Select::Job(_)));
}

#[test]
fn trivial_roots_finish_in_one_job() {
    // A bare leaf.
    let root = ArenaTree::root_of(&leaf(9));
    let r = run_er_sim(&root, 4, 4, &ErParallelConfig::random_tree(2));
    assert_eq!(r.value, Value::new(9));
    assert_eq!(r.report.items_completed, 1);

    // A single-child chain still terminates promptly.
    let chain = ArenaTree::root_of(&node(vec![node(vec![leaf(-3)])]));
    let r = run_er_sim(&chain, 8, 4, &ErParallelConfig::random_tree(0));
    assert_eq!(r.value, Value::new(-3));
}

#[test]
fn threads_full_matrix_matches_negmax() {
    // {1,2,4,8} threads on one fixed irregular tree: every thread count
    // agrees with negamax.
    let root = RandomTreeSpec::new(77, 4, 6).root();
    let exact = negmax(&root, 6).value;
    for threads in [1usize, 2, 4, 8] {
        let r = run_er_threads(&root, 6, threads, &ErParallelConfig::random_tree(3));
        assert_eq!(r.value, exact, "threads {threads}");
    }
}

#[test]
fn threads_match_negmax_on_shallow_othello() {
    // O1's root at reduced depth: a real game with sorting (OTHELLO policy),
    // so the memoized-evaluation path is exercised under real threads.
    let (_, root) = othello::configs::all().remove(0);
    // serial_depth 0: every leaf flows through the heap's depth-0 path, so
    // the memoized static evaluations are observable as cached-leaf hits.
    let cfg = ErParallelConfig::new(0, search_serial::OrderPolicy::OTHELLO);
    let exact = negmax(&root, 4).value;
    for threads in [1usize, 2, 4, 8] {
        let r = run_er_threads(&root, 4, threads, &cfg);
        assert_eq!(r.value, exact, "threads {threads}");
        assert!(
            r.cached_leaf_hits > 0,
            "sorted Othello search must settle some leaves from cache"
        );
    }
}

#[test]
fn threads_match_negmax_on_shallow_checkers() {
    // C1's root at reduced depth, with forced-capture move generation.
    let root = checkers::c1();
    let cfg = ErParallelConfig::new(3, search_serial::OrderPolicy::OTHELLO);
    let exact = negmax(&root, 5).value;
    for threads in [1usize, 2, 4, 8] {
        let r = run_er_threads(&root, 5, threads, &cfg);
        assert_eq!(r.value, exact, "threads {threads}");
    }
}

#[test]
fn echild_selection_prefers_best_tentative_value() {
    // Root with three children; the middle child's subtree is clearly
    // best for the root (lowest child value). After all elder
    // grandchildren arrive, the middle child must be promoted first —
    // visible as the root taking its value from it at completion.
    let spec = node(vec![
        node(vec![leaf(50), leaf(60)]),   // child value 50.. -> -50ish
        node(vec![leaf(-90), leaf(-80)]), // best for root
        node(vec![leaf(10), leaf(20)]),
    ]);
    let root = ArenaTree::root_of(&spec);
    let exact = negmax(&root, 8).value;
    let r = run_er_sim(&root, 8, 1, &ErParallelConfig::random_tree(0));
    assert_eq!(r.value, exact);
    // Negamax: child values are max(-50,-60)=-50, max(90,80)=90,
    // max(-10,-20)=-10; root = max(50, -90, 10) = 50.
    assert_eq!(exact, Value::new(50));
}
