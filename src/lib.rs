//! # er-search
//!
//! A reproduction of Igor Steinberg and Marvin Solomon, *Searching Game
//! Trees in Parallel* (ICPP 1990): the **ER** parallel game-tree search
//! algorithm, every serial and parallel algorithm it is evaluated against,
//! an Othello engine, synthetic game-tree generators, and a deterministic
//! multiprocessor simulation that regenerates the paper's figures on a
//! single-core host.
//!
//! ## Crate map
//!
//! * [`gametree`] — positions, values, windows, random/ordered synthetic
//!   trees, tic-tac-toe, minimal-tree analysis;
//! * [`othello`] — bitboard Othello engine and the O1–O3 benchmark roots;
//! * [`checkers`] — English draughts (Fishburn's tree-splitting workload);
//! * [`search_serial`] — negmax, alpha-beta (with and without deep
//!   cutoffs), and serial ER (paper Figure 8);
//! * [`problem_heap`] — deterministic k-processor problem-heap simulation,
//!   performance metrics, and the threaded back-end's execution
//!   primitives: bounded work-stealing deques and a lock-free publication
//!   arena (DESIGN.md §9);
//! * [`er_parallel`] — parallel ER (simulated and real threads) plus the
//!   §4 baselines: MWF, tree-splitting, pv-splitting, parallel aspiration;
//! * [`tt`] — sharded lockless concurrent transposition table any
//!   back-end can share through its [`Hooks`](search_serial::Hooks) (an
//!   extension beyond the paper; DESIGN.md §8);
//! * [`trace`] — per-worker search telemetry: bounded lock-free event
//!   rings behind the zero-cost tracer hook, post-run utilization and
//!   speculation reports, and Chrome-trace timeline export
//!   (DESIGN.md §11);
//! * [`engine_server`] — multi-session engine server: a weighted-fair
//!   session scheduler slicing many concurrent searches onto one worker
//!   pool at iterative-deepening depth boundaries, admission control
//!   with typed shedding, graceful deadline degradation, and a UCI-style
//!   protocol front-end (DESIGN.md §13);
//! * [`match_harness`] — repeated-game layer: full Othello/checkers
//!   self-play with warm cross-move transposition-table and ordering
//!   state, per-move clock management, and a color-swapped
//!   paired-opening match runner (DESIGN.md §15).
//!
//! ## Quickstart
//!
//! ```
//! use er_search::prelude::*;
//!
//! // A random uniform game tree: degree 4, 8 plies (paper §7).
//! let root = RandomTreeSpec::new(42, 4, 8).root();
//!
//! // Serial reference searches.
//! let ab = alphabeta(&root, 8, OrderPolicy::NATURAL);
//! let er = er_search(&root, 8, ErConfig::NATURAL);
//! assert_eq!(ab.value, er.value);
//!
//! // Parallel ER on 8 simulated processors.
//! let par = run_er_sim(&root, 8, 8, &ErParallelConfig::random_tree(4));
//! assert_eq!(par.value, ab.value);
//! assert!(par.report.makespan > 0);
//!
//! // Parallel ER on 4 real OS threads; the result carries per-thread
//! // contention counters. The execution layer has no settings
//! // (DESIGN.md §9): every thread takes the same fixed batch, several
//! // threads steal from each other, and one thread, with no sibling to
//! // steal from, repeats its schedule to the node.
//! let cfg = ErParallelConfig::random_tree(4);
//! let thr = run_er_threads(&root, 8, 4, &cfg);
//! assert_eq!(thr.value, ab.value);
//! assert_eq!(thr.counters().jobs_executed, thr.counters().outcomes_applied);
//! let (a, b) = (run_er_threads(&root, 8, 1, &cfg), run_er_threads(&root, 8, 1, &cfg));
//! assert_eq!(a.stats, b.stats);
//!
//! // Every optional handle rides in one `Hooks` bundle (DESIGN.md §16):
//! // here one transposition table shared by all workers.
//! let table = TranspositionTable::with_bits(16);
//! let hooks = Hooks::default().with_tt(&table);
//! let ttr = run_er_threads_with(&root, 8, Window::FULL, 4, &cfg, hooks)
//!     .expect("cannot abort");
//! assert_eq!(ttr.value, ab.value);
//! assert!(ttr.tt.expect("table stats").probes > 0);
//!
//! // Abort-safe search control (DESIGN.md §10): the same search under a
//! // deadline or cancellation token returns Err(SearchAborted) instead of
//! // hanging, and the anytime iterative-deepening driver always reports
//! // the deepest fully-completed value.
//! let ctl = SearchControl::unlimited();
//! let hooks = Hooks::default().with_ctl(&ctl);
//! let ok = run_er_threads_with(&root, 8, Window::FULL, 4, &cfg, hooks)
//!     .expect("unlimited control cannot trip");
//! assert_eq!(ok.value, ab.value);
//!
//! let id = run_er_threads_id(&root, 8, 4, &cfg, AspirationConfig::OFF, hooks);
//! assert_eq!(id.depth_completed, 8);
//! assert_eq!(id.value, ab.value); // bit-identical to the fixed-depth run
//! assert!(id.stopped.is_none());
//!
//! // Choosing a move (DESIGN.md §15): the same driver, stepped with a
//! // root split — each root child searched by a closure, the previous
//! // depth's best child first — keeps the deepest completed depth's move.
//! let kids = root.children();
//! let mut stepper = IdStepper::new(root.evaluate(), AspirationConfig::narrow(20));
//! while stepper.depth_completed() < 6 {
//!     stepper
//!         .step_root(stepper.next_depth(), &ctl, kids.len(), |i, d, w, c| {
//!             let hooks = Hooks::default().with_ctl(c);
//!             run_er_threads_with(&kids[i], d, w, 4, &cfg, hooks)
//!                 .map(|r| (r.value, r.stats))
//!                 .map_err(|e| e.reason)
//!         })
//!         .expect("unlimited control cannot trip");
//! }
//! let best = stepper.best_move(&kids).expect("the root has moves");
//! let reply = alphabeta(&kids[best], 5, OrderPolicy::NATURAL);
//! assert_eq!(-reply.value, stepper.value()); // the move achieves the value
//!
//! let cancelled = SearchControl::unlimited();
//! cancelled.cancel();
//! let hooks = Hooks::default().with_ctl(&cancelled);
//! let err = run_er_threads_with(&root, 8, Window::FULL, 4, &cfg, hooks)
//!     .expect_err("pre-cancelled control must abort");
//! assert_eq!(err.reason, AbortReason::Cancelled);
//! assert_eq!(err.counters.len(), 4, "every thread joined");
//!
//! // Search telemetry (DESIGN.md §11): the same search with per-worker
//! // event tracing on. Tracing is observation only — the root value is
//! // bit-identical — and the snapshot aggregates to a utilization report
//! // and exports as a Chrome-trace timeline.
//! let tracer = Tracer::new();
//! let hooks = Hooks::default().with_tracer(&tracer);
//! let traced = run_er_threads_with(&root, 8, Window::FULL, 4, &cfg, hooks)
//!     .expect("cannot abort");
//! assert_eq!(traced.value, ab.value);
//! let data = tracer.snapshot();
//! assert_eq!(data.workers.len(), 4, "one timeline row per worker");
//! let report = SearchReport::from_data(&data);
//! assert!(report.count_of(EventKind::JobExecute) > 0);
//! trace::lint::check(&chrome_json(&data)).expect("well-formed Chrome trace");
//!
//! // Multi-session serving (DESIGN.md §13): several positions — even
//! // from different games — time-sliced fairly onto one pool and one
//! // shared table, every served value bit-identical to a solo search.
//! let reqs = vec![
//!     SessionRequest::new(AnyPos::random_root(7, 4, 6), 5, ErParallelConfig::random_tree(2)),
//!     SessionRequest::new(AnyPos::othello_startpos(), 3, ErParallelConfig::othello()),
//! ];
//! for resp in serve_batch::<AnyPos>(reqs, SchedulerConfig::default()) {
//!     let r = resp.result().expect("under capacity, nothing sheds");
//!     assert!(r.completed());
//! }
//! ```

#![warn(missing_docs)]

pub use checkers;
pub use engine_server;
pub use er_parallel;
pub use gametree;
pub use match_harness;
pub use othello;
pub use problem_heap;
pub use search_serial;
pub use trace;
pub use tt;

/// The most common imports in one place.
pub mod prelude {
    pub use checkers::CheckersPos;
    pub use engine_server::{
        serve_batch, serve_batch_on, AnyMove, AnyPos, Busy, Priority, Response, SchedulerConfig,
        SessionRequest, SessionResult, SessionScheduler,
    };
    pub use engine_server::{GameClock, TimeControl, TimeManager};
    pub use er_parallel::{
        run_er_sim, run_er_sim_with, run_er_threads, run_er_threads_id, run_er_threads_with,
        AbortReason, AspirationConfig, ErIdResult, ErParallelConfig, ErRunResult, ErThreadsResult,
        IdStepper, SearchAborted, SearchControl, Speculation, DEFAULT_BATCH, MAX_BATCH,
    };
    pub use gametree::ordered::OrderedTreeSpec;
    pub use gametree::random::RandomTreeSpec;
    pub use gametree::{GamePosition, SearchStats, Value, Window};
    pub use match_harness::{
        openings, play_game, run_match, EngineSpec, Family, GameOutcome, GameRecord, MatchConfig,
        MatchResult, Player,
    };
    pub use othello::{Board, OthelloPos};
    pub use problem_heap::ThreadCounters;
    pub use problem_heap::{CostModel, SimReport};
    pub use search_serial::{
        alphabeta, alphabeta_nodeep, alphabeta_with, er_search, er_search_with, negmax,
        CtlSearchResult, ErConfig, Hooks, OrderPolicy, OrderingTables, SearchResult,
    };
    pub use trace::{
        chrome_json, EventKind, SearchReport, SpecSplit, TraceAccess, TraceData, Tracer,
        WorkerTrace,
    };
    pub use tt::{Bound, TranspositionTable, TtStats, Zobrist};
}
