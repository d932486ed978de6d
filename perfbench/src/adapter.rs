//! The one module that calls into the workspace crates.
//!
//! Every function, method and constructor of the program that the
//! benchmark uses is called from here, and every result is converted into
//! a plain struct of this crate before it leaves. When the program's entry
//! points change (for example when the `run_er_threads_*` twins collapse
//! into one call), this is the only file of the benchmark to edit.

use std::time::Duration;

use engine_server::{Priority, Response, SchedulerConfig, SessionRequest, SessionScheduler};
use er_parallel::{AspirationConfig, ErParallelConfig, ThreadsConfig};
use gametree::random::RandomTreeSpec;
use search_serial::{ErConfig, OrderPolicy};
use tt::{Bound, TranspositionTable, Zobrist};

pub use checkers::CheckersPos;
pub use engine_server::AnyPos;
pub use gametree::random::RandomPos;
pub use gametree::GamePosition;
pub use othello::OthelloPos;

/// Log2 entries of the table the served sessions share
/// (`tt::DEFAULT_BITS`, 2^20 entries).
pub const SERVE_TT_BITS: u32 = tt::DEFAULT_BITS;

/// `CostModel::default()` as `(expand, eval, heap_latency)` ticks.
pub fn cost_model_default() -> (u64, u64, u64) {
    let c = problem_heap::CostModel::default();
    (c.expand, c.eval, c.heap_latency)
}

// ---------------------------------------------------------------- games

/// The workspace's splitmix64 mixer.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    gametree::random::splitmix64(x)
}

/// The standard Othello opening position.
pub fn othello_initial() -> OthelloPos {
    OthelloPos::initial()
}

/// The standard checkers opening position.
pub fn checkers_initial() -> CheckersPos {
    CheckersPos::initial()
}

/// The root of the uniform random tree `(seed, degree, height)`.
pub fn random_root(seed: u64, degree: u32, height: u32) -> RandomPos {
    RandomTreeSpec::new(seed, degree, height).root()
}

/// `GamePosition::moves`.
#[inline]
pub fn moves<P: GamePosition>(p: &P) -> Vec<P::Move> {
    p.moves()
}

/// `GamePosition::play`.
#[inline]
pub fn play<P: GamePosition>(p: &P, m: &P::Move) -> P {
    p.play(m)
}

/// `GamePosition::evaluate`, as a plain score.
#[inline]
pub fn evaluate<P: GamePosition>(p: &P) -> i32 {
    p.evaluate().get()
}

/// `GamePosition::children`: one full expansion.
#[inline]
pub fn children<P: GamePosition>(p: &P) -> Vec<P> {
    p.children()
}

/// The family-erased form the server takes.
pub fn any_othello(p: OthelloPos) -> AnyPos {
    AnyPos::Othello(p)
}

/// The family-erased form the server takes.
pub fn any_checkers(p: CheckersPos) -> AnyPos {
    AnyPos::Checkers(p)
}

/// The checkers position inside `p`, if it is one.
pub fn as_checkers(p: &AnyPos) -> Option<CheckersPos> {
    match p {
        AnyPos::Checkers(c) => Some(*c),
        _ => None,
    }
}

/// The family name the server reports for `p`.
pub fn family(p: &AnyPos) -> &'static str {
    p.family()
}

/// The position's table hash.
pub fn zobrist(p: &AnyPos) -> u64 {
    p.zobrist()
}

// ------------------------------------------------------------- configs

/// How a workload searches: which algorithmic configuration and which
/// static ordering the oracle uses for the same tree.
#[derive(Clone, Copy, Debug)]
pub struct SearchSpec {
    cfg: ErParallelConfig,
    order: OrderPolicy,
}

impl SearchSpec {
    /// The paper's Othello configuration: serial depth 5, static sort
    /// above ply five, all speculation on.
    pub fn othello() -> SearchSpec {
        SearchSpec {
            cfg: ErParallelConfig::othello(),
            order: OrderPolicy::OTHELLO,
        }
    }

    /// The paper's random-tree configuration at `serial_depth`.
    pub fn random_tree(serial_depth: u32) -> SearchSpec {
        SearchSpec {
            cfg: ErParallelConfig::random_tree(serial_depth),
            order: OrderPolicy::NATURAL,
        }
    }

    /// The configuration the server uses for a family: the Othello
    /// configuration for both real games, static order from the family.
    pub fn served(p: &AnyPos) -> SearchSpec {
        SearchSpec {
            cfg: ErParallelConfig::othello(),
            order: p.order_policy(),
        }
    }
}

// ------------------------------------------------------------- searches

/// A serial search's root value and node count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SerialRun {
    pub value: i32,
    pub nodes: u64,
}

/// Serial alpha-beta: the oracle.
pub fn alphabeta<P: GamePosition>(p: &P, depth: u32, spec: SearchSpec) -> SerialRun {
    let r = search_serial::alphabeta(p, depth, spec.order);
    SerialRun {
        value: r.value.get(),
        nodes: r.stats.nodes(),
    }
}

/// Serial ER (the algorithm frontier jobs run).
pub fn er_serial<P: GamePosition>(p: &P, depth: u32, spec: SearchSpec) -> SerialRun {
    let cfg = ErConfig {
        order: spec.cfg.order,
        sel: spec.cfg.sel,
    };
    let r = search_serial::er_search(p, depth, cfg);
    SerialRun {
        value: r.value.get(),
        nodes: r.stats.nodes(),
    }
}

/// Problem-heap counters of one threaded run, summed over its workers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeapCounters {
    pub lock_wait_ns: u64,
    pub lock_hold_ns: u64,
    pub locks: u64,
    pub jobs: u64,
    pub steal_attempts: u64,
    pub steal_hits: u64,
    pub parks: u64,
}

impl HeapCounters {
    pub fn add(&mut self, o: &HeapCounters) {
        self.lock_wait_ns += o.lock_wait_ns;
        self.lock_hold_ns += o.lock_hold_ns;
        self.locks += o.locks;
        self.jobs += o.jobs;
        self.steal_attempts += o.steal_attempts;
        self.steal_hits += o.steal_hits;
        self.parks += o.parks;
    }
}

/// One threaded ER run that completed.
#[derive(Clone, Copy, Debug)]
pub struct ThreadedRun {
    pub value: i32,
    pub nodes: u64,
    pub elapsed: Duration,
    pub heap: HeapCounters,
}

/// Fixed-depth threaded ER with the default execution layer (adaptive
/// batching, stealing on), no table and no shared ordering. `Err` carries
/// the abort reason's name: for this deadline-free call, a worker panic.
pub fn er_threads<P: GamePosition>(
    p: &P,
    depth: u32,
    threads: usize,
    spec: SearchSpec,
) -> Result<ThreadedRun, String> {
    match er_parallel::run_er_threads_exec(p, depth, threads, &spec.cfg, ThreadsConfig::default()) {
        Ok(r) => {
            let c = r.counters();
            Ok(ThreadedRun {
                value: r.value.get(),
                nodes: r.stats.nodes(),
                elapsed: r.elapsed,
                heap: HeapCounters {
                    lock_wait_ns: c.lock_wait_nanos,
                    lock_hold_ns: c.lock_hold_nanos,
                    locks: c.lock_acquisitions,
                    jobs: c.jobs_executed,
                    steal_attempts: c.steal_attempts,
                    steal_hits: c.steal_hits,
                    parks: c.idle_parks,
                },
            })
        }
        Err(e) => Err(format!("{:?}", e.reason)),
    }
}

/// Exact counts of one deterministic simulated run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimRun {
    pub value: i32,
    pub makespan: u64,
    pub nodes: u64,
}

/// Simulated parallel ER on `processors` virtual processors.
pub fn er_sim<P: GamePosition>(p: &P, depth: u32, processors: usize, spec: SearchSpec) -> SimRun {
    let r = er_parallel::run_er_sim(p, depth, processors, &spec.cfg);
    SimRun {
        value: r.value.get(),
        makespan: r.report.makespan,
        nodes: r.stats.nodes(),
    }
}

// --------------------------------------------------------------- table

/// A transposition table the benchmark drives directly.
pub struct Table(TranspositionTable);

impl Table {
    pub fn with_bits(bits: u32) -> Table {
        Table(TranspositionTable::with_bits(bits))
    }

    /// `probe`; true on a hit.
    #[inline]
    pub fn probe(&self, hash: u64) -> bool {
        self.0.probe(hash).is_some()
    }

    /// `store` of an exact entry.
    #[inline]
    pub fn store(&self, hash: u64, depth: u32, value: i32) {
        self.0
            .store(hash, depth, gametree::Value::new(value), Bound::Exact, None);
    }

    /// `new_generation`.
    pub fn new_generation(&self) {
        self.0.new_generation();
    }
}

// --------------------------------------------------------------- server

/// One client request to the server.
#[derive(Clone, Copy, Debug)]
pub struct ServeRequest {
    pub pos: AnyPos,
    pub depth: u32,
    /// Index into the three priority classes.
    pub priority: usize,
}

/// What the server reported for one request.
#[derive(Clone, Debug)]
pub struct ServeOutcome {
    /// Admission rejection, by name; `None` when the session ran.
    pub shed: Option<String>,
    pub value: i32,
    pub depth_completed: u32,
    pub max_depth: u32,
    /// Why the session stopped early, by `AbortReason` name.
    pub stopped: Option<String>,
    pub queue_wait: Duration,
    pub service: Duration,
    pub slices: u32,
    pub re_searches: u64,
}

/// A session scheduler with its shared table, as the serving segment
/// runs it.
pub struct Server(SessionScheduler<AnyPos>);

impl Server {
    /// `threads` workers, a `tt_bits` shared table and the default
    /// admission caps (4 active sessions).
    pub fn new(threads: usize, tt_bits: u32) -> Server {
        Server(SessionScheduler::new(SchedulerConfig {
            threads,
            tt_bits,
            ..SchedulerConfig::default()
        }))
    }

    /// Concurrent-session slots: the scheduler's default `max_active`.
    pub fn default_max_active() -> usize {
        SchedulerConfig::default().max_active
    }

    /// Submits every request with iterative deepening, aspiration
    /// windows of half-width 8 without shared ordering tables, and no
    /// deadline, runs the scheduler until idle, and returns outcomes
    /// aligned with `reqs`.
    ///
    /// Shared ordering stays off: with it on, sessions sometimes panic
    /// (`sort_by_key` over ordering keys that other workers change during
    /// the sort) or return a value that differs from alpha-beta, at rates
    /// that differ from run to run.
    pub fn wave(&mut self, reqs: &[ServeRequest]) -> Vec<ServeOutcome> {
        let asp = AspirationConfig {
            ordering: false,
            ..AspirationConfig::narrow(8)
        };
        let batch = reqs
            .iter()
            .map(|r| {
                SessionRequest::new(r.pos, r.depth, SearchSpec::served(&r.pos).cfg)
                    .with_asp(asp)
                    .with_priority(Priority::ALL[r.priority % Priority::ALL.len()])
            })
            .collect();
        engine_server::serve_batch_on(&mut self.0, batch)
            .into_iter()
            .zip(reqs)
            .map(|(resp, req)| match resp {
                Response::Done(r) => ServeOutcome {
                    shed: None,
                    value: r.value.get(),
                    depth_completed: r.depth_completed,
                    max_depth: r.max_depth,
                    stopped: r.stopped.map(|s| format!("{s:?}")),
                    queue_wait: r.queue_wait,
                    service: r.service,
                    slices: r.slices,
                    re_searches: r.re_searches,
                },
                Response::Shed(b) => ServeOutcome {
                    shed: Some(format!("{b:?}")),
                    value: 0,
                    depth_completed: 0,
                    max_depth: req.depth,
                    stopped: None,
                    queue_wait: Duration::ZERO,
                    service: Duration::ZERO,
                    slices: 0,
                    re_searches: 0,
                },
            })
            .collect()
    }

    /// Depth slices dispatched since construction.
    pub fn slices(&self) -> u64 {
        self.0.stats().slices
    }

    /// The shared table's lifetime hit rate.
    pub fn tt_hit_rate(&self) -> f64 {
        self.0.table().stats().hit_rate()
    }

    /// The shared table's sampled fill over `buckets` buckets.
    pub fn tt_fill(&self, buckets: usize) -> f64 {
        self.0.table().occupancy_sample(buckets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    /// The crates this module stands between the benchmark and.
    const CRATES: &[&str] = &[
        "gametree",
        "othello",
        "checkers",
        "search_serial",
        "problem_heap",
        "er_parallel",
        "tt",
        "engine_server",
    ];

    #[test]
    fn no_other_module_names_a_workspace_crate() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src");
        for entry in std::fs::read_dir(dir).expect("src directory") {
            let path = entry.expect("directory entry").path();
            if path.file_name().is_some_and(|n| n == "adapter.rs") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("source file");
            for krate in CRATES {
                let needle = format!("{krate}::");
                for (at, _) in text.match_indices(&needle) {
                    let before = text[..at].chars().next_back();
                    assert!(
                        before.is_some_and(|c| c.is_alphanumeric() || c == '_'),
                        "{} calls {krate} directly",
                        path.display()
                    );
                }
            }
        }
    }

    #[test]
    fn exact_counts_repeat_at_the_same_seed() {
        let spec = SearchSpec::othello();
        let counts = |seed| {
            let root = gen::othello_root(seed, 0);
            (alphabeta(&root, 4, spec), er_sim(&root, 4, 16, spec))
        };
        let (ab, sim) = counts(5);
        assert_eq!((ab, sim), counts(5));
        assert_eq!(ab.value, sim.value);
        let spec = SearchSpec::random_tree(2);
        let root = gen::random_root(5, 0);
        let sim = er_sim(&root, 6, 16, spec);
        assert_eq!(sim, er_sim(&root, 6, 16, spec));
        assert_eq!(sim.value, alphabeta(&root, 6, spec).value);
    }

    #[test]
    fn threaded_values_match_the_oracle_and_counters_add_up() {
        let spec = SearchSpec::othello();
        let root = gen::othello_root(9, 1);
        let want = alphabeta(&root, 5, spec).value;
        for threads in [1, 2] {
            let run = er_threads(&root, 5, threads, spec).expect("no deadline, no panic");
            assert_eq!(run.value, want);
            assert!(run.heap.jobs > 0 && run.heap.locks > 0);
        }
    }
}
