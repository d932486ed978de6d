//! The hook matrix (DESIGN.md §16): every hooked entry point × every hook
//! set it accepts × a random-tree and an Othello root.
//!
//! * Values must equal negamax in every row.
//! * On the deterministic back-ends — serial, the simulator, and threads
//!   at one thread (speculation off and on, and the deepening driver) —
//!   the work counters with the control or tracer hook on must equal the
//!   hooks-off run exactly: those hooks observe, they never steer. The table and ordering hooks may change node counts (that is
//!   their point), never values.
//! * Each attached hook must show it was used: table probes and stores
//!   (and, for threaded runs, a table report equal to the run's delta),
//!   one whole-search span per serial search, one timeline row per worker,
//!   one driver-row start/finish pair per deepening depth.
//!
//! An entry point takes only the hooks its back-end uses (the simulator
//! only a table and ordering tables, the deepening driver no ordering
//! tables: it owns those through `AspirationConfig`), so its rows cover
//! exactly those sets; attaching
//! another is a type error. A metric set is not a hook: its owner folds a
//! threaded run's counters in after the run returns, which er-parallel's
//! `metrics_fold` test checks.
//!
//! A last case keeps one table warm across many searches and windows and
//! checks every bound serial ER, alpha-beta and the simulator store
//! against an independent alpha-beta, on Othello and checkers roots: a
//! wrong entry only shows in a value once a later search probes it.
//! Alpha-beta runs at start ply 0 and at start ply 3, as in the threaded
//! back-end's serial frontier, which it solves; the simulator's frontier
//! is serial ER, and its own leaf and terminal stores are checked too.

use std::cell::RefCell;
use std::collections::HashMap;

use er_search::prelude::*;
use gametree::tictactoe::TicTacToe;
use search_serial::er_eval_refute_with;
use tt::{Probe, TtAccess};

/// The hook sets of the matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Set {
    Off,
    Tt,
    Ctl,
    Tracer,
    Ord,
    All,
}

/// Fresh handles for one row.
struct State {
    table: TranspositionTable,
    ctl: SearchControl,
    tracer: Tracer,
    ord: OrderingTables,
}

impl State {
    fn new() -> State {
        State {
            table: TranspositionTable::with_bits(16),
            ctl: SearchControl::unlimited(),
            tracer: Tracer::new(),
            ord: OrderingTables::new(),
        }
    }
}

/// The back-end a row ran on, for the per-kind assertions.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A serial search: one whole-search span, deterministic.
    Serial,
    /// The simulator: deterministic, no tracer.
    Sim,
    /// Threads: `workers` timeline rows; deterministic iff `exact`.
    Threads { workers: usize, exact: bool },
    /// The deepening driver to `depth` on one deterministic worker: one
    /// start/finish pair of driver-row instants per depth.
    Deepening { depth: u32 },
}

/// What one row returned.
struct Out {
    value: Value,
    complete: bool,
    /// The work counters, compared exactly between observing rows and the
    /// off row of a deterministic back-end.
    work: String,
    /// The threaded result's table report, where the entry has one.
    tt: Option<Option<TtStats>>,
}

impl From<CtlSearchResult> for Out {
    fn from(r: CtlSearchResult) -> Out {
        Out {
            value: r.value,
            complete: r.is_complete(),
            work: format!("{:?}", r.stats),
            tt: None,
        }
    }
}

impl From<ErRunResult> for Out {
    fn from(r: ErRunResult) -> Out {
        Out {
            value: r.value,
            complete: true,
            work: format!("{:?} {:?}", r.stats, r.report),
            tt: None,
        }
    }
}

impl From<ErThreadsResult> for Out {
    fn from(r: ErThreadsResult) -> Out {
        Out {
            value: r.value,
            complete: true,
            work: format!("{:?} cached {}", r.stats, r.cached_leaf_hits),
            tt: Some(r.tt),
        }
    }
}

impl From<ErIdResult> for Out {
    fn from(r: ErIdResult) -> Out {
        let nodes: Vec<u64> = r.per_depth.iter().map(|d| d.nodes).collect();
        Out {
            value: r.value,
            complete: r.stopped.is_none(),
            work: format!("{nodes:?}"),
            tt: None,
        }
    }
}

/// Runs `$body` once per listed set, with `$h` bound to that set's hooks
/// over a fresh `$st`, and checks each row.
macro_rules! matrix {
    ($entry:expr, $oracle:expr, $kind:expr, $st:ident, |$h:ident| $body:expr;
     $($set:ident: $hooks:expr),+ $(,)?) => {{
        let mut off: Option<String> = None;
        $(
            let $st = State::new();
            let out: Out = {
                let $h = $hooks;
                $body.into()
            };
            check(&$entry, Set::$set, $oracle, $kind, &$st, &out, &mut off);
        )+
    }};
}

/// The per-row assertions.
fn check(
    entry: &str,
    set: Set,
    oracle: Value,
    kind: Kind,
    st: &State,
    out: &Out,
    off: &mut Option<String>,
) {
    let row = format!("{entry} × {set:?}");
    assert!(out.complete, "{row}: an unlimited run completes");
    assert_eq!(out.value, oracle, "{row}: value must equal negamax");
    let exact = !matches!(kind, Kind::Threads { exact: false, .. });
    match set {
        Set::Off => *off = Some(out.work.clone()),
        Set::Ctl | Set::Tracer if exact => {
            let base = off.as_ref().expect("the off row runs first");
            assert_eq!(&out.work, base, "{row}: work must equal the off row");
        }
        _ => {}
    }
    let with_tt = matches!(set, Set::Tt | Set::All);
    if with_tt {
        let s = st.table.stats();
        assert!(s.probes > 0 && s.stores > 0, "{row}: table used: {s:?}");
    }
    if let Some(report) = out.tt {
        match report {
            Some(r) => {
                assert!(with_tt, "{row}: a report without a table");
                assert_eq!(r, st.table.stats(), "{row}: report is the run's delta");
            }
            None => assert!(!with_tt, "{row}: table attached, no report"),
        }
    }
    // "All" is every hook the entry takes: the simulator takes no tracer.
    if set == Set::Tracer || (set == Set::All && kind != Kind::Sim) {
        let data = st.tracer.snapshot();
        let c = data.counts();
        let spans = c[EventKind::JobExecute as usize];
        match kind {
            Kind::Serial => assert_eq!(spans, 1, "{row}: one whole-search span"),
            Kind::Sim => unreachable!(),
            Kind::Threads { workers, .. } => {
                assert!(spans > 0, "{row}: job spans recorded");
                assert_eq!(data.workers.len(), workers, "{row}: one row per worker");
            }
            Kind::Deepening { depth } => {
                assert!(spans > 0, "{row}: job spans recorded");
                assert_eq!(data.workers.len(), 1, "{row}: one row per worker");
                let starts = c[EventKind::IdDepthStart as usize];
                let finishes = c[EventKind::IdDepthFinish as usize];
                assert_eq!((starts, finishes), (depth.into(), depth.into()), "{row}");
            }
        }
        if with_tt {
            let (probes, stores) = (
                c[EventKind::TtProbe as usize],
                c[EventKind::TtStore as usize],
            );
            assert!(probes > 0 && stores > 0, "{row}: table traffic traced");
            let s = st.table.stats();
            assert!(
                probes <= s.probes && stores <= s.stores,
                "{row}: rings retain at most what the table counted"
            );
        }
    }
}

/// Every entry point's rows on one root.
fn run_matrix<P: GamePosition + Zobrist + Sync>(root: &P, depth: u32, order: OrderPolicy) {
    let oracle = negmax(root, depth).value;
    let w = Window::FULL;
    let ecfg = ErConfig::new(order);

    // The serial searches, which take every serial hook.
    macro_rules! serial_rows {
        ($entry:expr, |$h:ident| $body:expr) => {
            matrix!($entry, oracle, Kind::Serial, st, |$h| $body;
                Off: Hooks::default(),
                Tt: Hooks::default().with_tt(&st.table),
                Ctl: Hooks::default().with_ctl(&st.ctl),
                Tracer: Hooks::default().with_tracer(&st.tracer),
                Ord: Hooks::default().with_ord(&st.ord),
                All: Hooks::default()
                    .with_tt(&st.table)
                    .with_ctl(&st.ctl)
                    .with_tracer(&st.tracer)
                    .with_ord(&st.ord),
            )
        };
    }
    serial_rows!("alphabeta", |h| alphabeta_with(root, depth, w, order, 0, h));
    serial_rows!("er_search", |h| er_search_with(root, depth, w, ecfg, 0, h));
    serial_rows!("er_eval_refute", |h| er_eval_refute_with(
        root, depth, w, ecfg, 0, h
    ));

    let cfg = ErParallelConfig {
        order,
        ..ErParallelConfig::random_tree(2)
    };
    matrix!("run_er_sim", oracle, Kind::Sim, st, |h| run_er_sim_with(root, depth, w, 4, &cfg, h);
        Off: Hooks::default(),
        Tt: Hooks::default().with_tt(&st.table),
        Ord: Hooks::default().with_ord(&st.ord),
        All: Hooks::default().with_tt(&st.table).with_ord(&st.ord),
    );

    // One thread takes a fixed batch and has no sibling to steal from: the
    // threaded back-end is deterministic there, with speculation off and
    // on. Two threads check everything but exact work.
    let det_cfg = ErParallelConfig {
        spec: Speculation::NONE,
        ..cfg
    };
    for (workers, c) in [(1, det_cfg), (1, cfg), (2, cfg)] {
        let kind = Kind::Threads {
            workers,
            exact: workers == 1,
        };
        let entry = format!("run_er_threads[{workers}, {:?}]", c.spec);
        matrix!(entry, oracle, kind, st, |h| {
            run_er_threads_with(root, depth, w, workers, &c, h).expect("cannot abort")
        };
            Off: Hooks::default(),
            Tt: Hooks::default().with_tt(&st.table),
            Ctl: Hooks::default().with_ctl(&st.ctl),
            Tracer: Hooks::default().with_tracer(&st.tracer),
            Ord: Hooks::default().with_ord(&st.ord),
            All: Hooks::default()
                .with_tt(&st.table)
                .with_ctl(&st.ctl)
                .with_tracer(&st.tracer)
                .with_ord(&st.ord),
        );
    }

    // The deepening driver: its ordering tables are `asp.ordering`'s, so
    // the ordering row switches them on there.
    let kind = Kind::Deepening { depth };
    for asp in [AspirationConfig::OFF, AspirationConfig::narrow(4)] {
        matrix!(format!("run_er_threads_id[{asp:?}]"), oracle, kind, st, |h| {
            run_er_threads_id(root, depth, 1, &det_cfg, asp, h)
        };
            Off: Hooks::default(),
            Tt: Hooks::default().with_tt(&st.table),
            Ctl: Hooks::default().with_ctl(&st.ctl),
            Tracer: Hooks::default().with_tracer(&st.tracer),
            All: Hooks::default()
                .with_tt(&st.table)
                .with_ctl(&st.ctl)
                .with_tracer(&st.tracer),
        );
    }
}

#[test]
fn hook_matrix_on_a_random_tree() {
    let root = RandomTreeSpec::new(7, 4, 5).root();
    run_matrix(&root, 5, OrderPolicy::NATURAL);
}

#[test]
fn hook_matrix_on_othello() {
    run_matrix(&othello::configs::o1(), 4, OrderPolicy::OTHELLO);
}

/// A table handle that checks each store against alpha-beta at the stored
/// depth (memoized per position and depth) before forwarding it.
#[derive(Clone, Copy)]
struct Audited<'a> {
    table: &'a TranspositionTable,
    exact: &'a RefCell<HashMap<(u64, u32), Value>>,
    wrong: &'a RefCell<Vec<String>>,
}

impl<P: GamePosition + Zobrist> TtAccess<P> for Audited<'_> {
    fn probe(self, pos: &P) -> Option<Probe> {
        self.table.probe(pos.zobrist())
    }

    fn store(self, pos: &P, depth: u32, value: Value, bound: Bound, hint: Option<u16>) {
        let key = (pos.zobrist(), depth);
        let exact = *self
            .exact
            .borrow_mut()
            .entry(key)
            .or_insert_with(|| alphabeta(pos, depth, OrderPolicy::NATURAL).value);
        let proven = match bound {
            Bound::Exact => value == exact,
            Bound::Lower => exact >= value,
            Bound::Upper => exact <= value,
        };
        if !proven {
            let msg = format!("depth {depth}: {bound:?} {value:?}, alpha-beta {exact:?}");
            self.wrong.borrow_mut().push(msg);
        }
        self.table.store(pos.zobrist(), depth, value, bound, hint);
    }

    fn note_hint_used(self) {
        self.table.note_hint_used();
    }
}

/// A reproducible random playout from `pos`.
fn playout<P: GamePosition>(mut pos: P, seed: u64, plies: u32) -> P {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    for _ in 0..plies {
        let mut kids = pos.children();
        if kids.is_empty() {
            break;
        }
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        pos = kids.swap_remove((state >> 33) as usize % kids.len());
    }
    pos
}

/// The search families the store audit runs, in their default order.
const FAMILIES: [&str; 3] = ["serial ER", "alpha-beta", "simulator"];

/// Searches six roots, `plies` to `plies + 5` random plies from `initial`,
/// under many windows with serial ER (evaluation and refutation),
/// alpha-beta (start plies 0 and 3) and the simulator (1 and 4 processors)
/// on one warm table, and returns every store alpha-beta refutes. The
/// first search of a window makes most of its stores (the later ones are
/// mostly answered from them), so `lead` names the family of [`FAMILIES`]
/// that goes first; the others follow in order.
fn unproven_stores<P: GamePosition + Zobrist>(initial: &P, plies: u32, lead: usize) -> Vec<String> {
    const DEPTH: u32 = 4;
    let table = TranspositionTable::with_bits(20);
    let (exact, wrong) = (RefCell::default(), RefCell::default());
    let tt = Audited {
        table: &table,
        exact: &exact,
        wrong: &wrong,
    };
    let hooks = Hooks::default().with_tt(tt);
    let cfg = ErConfig::OTHELLO;
    // Serial depth 2 of 4 leaves the top two plies to the simulator's own
    // jobs, whose first-child descents reach leaves and terminals.
    let sim_cfg = ErParallelConfig {
        order: cfg.order,
        ..ErParallelConfig::random_tree(2)
    };
    for seed in 0..6 {
        let root = playout(initial.clone(), seed, plies + seed as u32);
        let v = alphabeta(&root, DEPTH, OrderPolicy::NATURAL).value.get();
        let at = |d: i32| Value::new(v + d);
        let er = |w| {
            er_search_with(&root, DEPTH, w, cfg, 0, hooks);
            er_eval_refute_with(&root, DEPTH, w, cfg, 0, hooks);
        };
        let ab = |w| {
            for ply in [0, 3] {
                alphabeta_with(&root, DEPTH, w, cfg.order, ply, hooks);
            }
        };
        let sim = |w| {
            for processors in [1, 4] {
                run_er_sim_with(&root, DEPTH, w, processors, &sim_cfg, hooks);
            }
        };
        let families: [&dyn Fn(Window); 3] = [&er, &ab, &sim];
        // Null windows on and around the root value, then wider ones:
        // each search probes the entries the previous ones left behind.
        for d in -6..=6 {
            for w in [
                Window::new(at(d - 1), at(d)),
                Window::new(at(4 * d - 8), at(4 * d + 8)),
            ] {
                for k in 0..FAMILIES.len() {
                    families[(lead + k) % FAMILIES.len()](w);
                }
            }
        }
    }
    wrong.into_inner()
}

#[test]
fn warm_table_many_windows_store_only_proven_bounds() {
    for (lead, family) in FAMILIES.iter().enumerate() {
        for (game, wrong) in [
            ("othello", unproven_stores(&OthelloPos::initial(), 10, lead)),
            (
                "checkers",
                unproven_stores(&CheckersPos::initial(), 10, lead),
            ),
            // Games end within the simulator's own plies here, so its
            // terminal stores are audited too.
            (
                "tic-tac-toe",
                unproven_stores(&TicTacToe::initial(), 2, lead),
            ),
        ] {
            assert!(
                wrong.is_empty(),
                "{game} ({family} first): {} stored bounds alpha-beta refutes, first: {}",
                wrong.len(),
                wrong[0]
            );
        }
    }
}
