//! The metric page is a view of the threaded back-end's own counters
//! (DESIGN.md §16): folding runs into a fresh [`EngineMetrics`] with
//! [`record_run`] must reproduce their `ThreadCounters` and `SearchStats`
//! exactly, for completed and aborted runs alike.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use er_parallel::{record_run, run_er_threads_with, ErParallelConfig, Hooks};
use gametree::random::{RandomPos, RandomTreeSpec};
use gametree::{GamePosition, Value, Window};
use metrics::EngineMetrics;

/// A random-tree position whose evaluator panics on the `panic_at`-th call,
/// counted across every thread: a run over it aborts mid-search.
#[derive(Clone)]
struct PanicPos {
    inner: RandomPos,
    calls: Arc<AtomicU64>,
    panic_at: u64,
}

impl GamePosition for PanicPos {
    type Move = <RandomPos as GamePosition>::Move;

    fn moves_into(&self, out: &mut Vec<Self::Move>) {
        self.inner.moves_into(out)
    }

    fn play(&self, mv: &Self::Move) -> PanicPos {
        PanicPos {
            inner: self.inner.play(mv),
            ..self.clone()
        }
    }

    fn evaluate(&self) -> Value {
        if self.calls.fetch_add(1, Ordering::SeqCst) + 1 == self.panic_at {
            panic!("injected test panic");
        }
        self.inner.evaluate()
    }
}

#[test]
fn folded_page_equals_the_runs_counters() {
    let m = EngineMetrics::new(2);
    let cfg = ErParallelConfig::random_tree(3);
    let (mut acquisitions, mut wait_ns, mut nodes, mut completed) = (0, 0, 0, 0);

    for threads in [1usize, 2] {
        let root = RandomTreeSpec::new(5, 4, 7).root();
        let run = run_er_threads_with(&root, 7, Window::FULL, threads, &cfg, Hooks::default());
        record_run(&m, &run);
        let r = run.expect("an unlimited run completes");
        let c = r.counters();
        assert_eq!(c.lock_waits.count, c.lock_acquisitions, "{threads} threads");
        assert_eq!(c.lock_waits.sum, c.lock_wait_nanos, "{threads} threads");
        acquisitions += c.lock_acquisitions;
        wait_ns += c.lock_wait_nanos;
        nodes += r.stats.nodes();
        completed += 1;
    }

    let root = PanicPos {
        inner: RandomTreeSpec::new(11, 4, 9).root(),
        calls: Arc::new(AtomicU64::new(0)),
        panic_at: 40,
    };
    let run = run_er_threads_with(&root, 9, Window::FULL, 2, &cfg, Hooks::default());
    record_run(&m, &run);
    let aborted = run.expect_err("the injected panic aborts the run");
    let c = aborted.total_counters();
    assert!(c.lock_acquisitions > 0, "the aborted run took the lock");
    assert_eq!(c.lock_waits.count, c.lock_acquisitions);
    acquisitions += c.lock_acquisitions;
    wait_ns += c.lock_wait_nanos;

    let snap = m.snapshot();
    let waits = snap.histogram("search_lock_wait_ns").expect("registered");
    assert_eq!(waits.count, acquisitions, "one sample per acquisition");
    assert_eq!(waits.sum, wait_ns);
    assert_eq!(snap.counter("search_nodes_total"), Some(nodes));
    assert_eq!(snap.counter("search_runs_total"), Some(completed));

    // The exposition page shows the same numbers.
    let page = m.expose();
    metrics::lint::check(&page).expect("lint-clean page");
    for line in [
        format!("search_lock_wait_ns_count {acquisitions}"),
        format!("search_lock_wait_ns_sum {wait_ns}"),
        format!("search_nodes_total {nodes}"),
        format!("search_runs_total {completed}"),
    ] {
        assert!(page.lines().any(|l| l == line), "{line} missing:\n{page}");
    }
}
