//! Per-layer costs measured from outside: game kernels and table calls
//! replayed over positions from the workload's own trees, and the ratios
//! derived from the problem-heap counters of threaded runs.

use std::hint::black_box;
use std::time::Duration;

use crate::adapter::{self, GamePosition, HeapCounters, SearchSpec, SerialRun, Table, ThreadedRun};
use crate::gen::Rng;
use crate::report::Metrics;
use crate::spans::Spans;
use crate::stats::{percentile, ratio};

/// Calls per replayed operation: enough that one timing covers
/// milliseconds of work.
const REPLAY_CALLS: usize = 200_000;

/// Times `f` over `items` in rounds, one span per round, and returns ns
/// per call over all rounds.
fn replay<T>(
    sp: &mut Spans,
    layer: &'static str,
    op: &'static str,
    items: &[T],
    mut f: impl FnMut(&T),
) -> f64 {
    assert!(!items.is_empty(), "{layer}.{op}: nothing to replay");
    for _ in 0..(REPLAY_CALLS / items.len()).max(1) {
        sp.time(layer, op, 0, items.len() as u64, || {
            for it in items {
                f(black_box(it));
            }
        });
    }
    sp.ns_per_call(layer, op)
}

/// Nanoseconds per call of one game family's kernels.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelCosts {
    pub movegen: f64,
    pub play: f64,
    pub eval: f64,
    /// One full expansion: move generation plus playing every move.
    pub expand: f64,
}

/// Replays `moves`, `play`, `evaluate` and `children` over `sample`.
pub fn kernels<P: GamePosition>(sp: &mut Spans, layer: &'static str, sample: &[P]) -> KernelCosts {
    let mut rng = Rng::new(0, 0x9a9e);
    let live: Vec<P> = sample
        .iter()
        .filter(|p| !adapter::moves(*p).is_empty())
        .cloned()
        .collect();
    let pairs: Vec<(P, P::Move)> = live
        .iter()
        .map(|p| {
            let ms = adapter::moves(p);
            (p.clone(), ms[rng.below(ms.len())].clone())
        })
        .collect();
    KernelCosts {
        movegen: replay(sp, layer, "moves", sample, |p| {
            black_box(adapter::moves(p));
        }),
        play: replay(sp, layer, "play", &pairs, |(p, m)| {
            black_box(adapter::play(p, m));
        }),
        eval: replay(sp, layer, "evaluate", sample, |p| {
            black_box(adapter::evaluate(p));
        }),
        expand: replay(sp, layer, "children", &live, |p| {
            black_box(adapter::children(p));
        }),
    }
}

/// Table-call costs on a table of the served size.
#[derive(Clone, Copy, Debug, Default)]
pub struct TableCosts {
    pub probe_ns: f64,
    pub store_ns: f64,
    pub new_generation_us: f64,
}

/// Generation bumps before the clock wraps and each further bump starts
/// sweeping the whole table.
const GENERATION_LAP: usize = 64;
/// Timed bumps after the lap.
const TIMED_BUMPS: usize = 32;

/// Stores, probes and generation bumps over `hashes` on a fresh table of
/// `2^bits` entries.
pub fn table_costs(sp: &mut Spans, bits: u32, hashes: &[u64]) -> TableCosts {
    let table = sp.time("tt", "with_bits", 0, 1, || Table::with_bits(bits));
    let store_ns = replay(sp, "tt", "store", hashes, |h| table.store(*h, 8, 0));
    let probe_ns = replay(sp, "tt", "probe", hashes, |h| {
        black_box(table.probe(*h));
    });
    sp.time("tt", "new_generation_lap", 0, GENERATION_LAP as u64, || {
        for _ in 0..GENERATION_LAP {
            table.new_generation();
        }
    });
    for _ in 0..TIMED_BUMPS {
        sp.time("tt", "new_generation", 0, 1, || table.new_generation());
    }
    TableCosts {
        probe_ns,
        store_ns,
        new_generation_us: sp.ns_per_call("tt", "new_generation") / 1e3,
    }
}

/// Median duration in milliseconds of the spans of `layer`/`op`.
pub fn span_p50_ms(sp: &Spans, layer: &str, op: &str) -> f64 {
    let mut v: Vec<f64> = sp
        .durations(layer, op)
        .iter()
        .map(|&n| n as f64 / 1e6)
        .collect();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0).unwrap_or_else(|e| panic!("{layer}.{op}: {e}"))
}

/// Serial alpha-beta and threaded ER at 2 and 1 threads, summed over the
/// roots where both threaded runs completed.
#[derive(Clone, Copy, Debug, Default)]
pub struct ParallelSums {
    pub heap: HeapCounters,
    ab_nodes: u64,
    ab_ns: f64,
    nodes: [u64; 2],
    wall_ns: [f64; 2],
    elapsed2_ns: f64,
}

impl ParallelSums {
    pub fn add(
        &mut self,
        ab: (&SerialRun, Duration),
        two: (&ThreadedRun, Duration),
        one: (&ThreadedRun, Duration),
    ) {
        self.heap.add(&two.0.heap);
        self.ab_nodes += ab.0.nodes;
        self.ab_ns += ab.1.as_secs_f64() * 1e9;
        self.nodes[0] += two.0.nodes;
        self.nodes[1] += one.0.nodes;
        self.wall_ns[0] += two.1.as_secs_f64() * 1e9;
        self.wall_ns[1] += one.1.as_secs_f64() * 1e9;
        self.elapsed2_ns += two.0.elapsed.as_secs_f64() * 1e9;
    }

    /// `serial.ns_per_node` and the `parallel.*` and `heap.*` metrics.
    pub fn set_metrics(&self, m: &mut Metrics) {
        let ab_nodes = self.ab_nodes as f64;
        m.set("serial.ns_per_node", ratio(self.ab_ns, ab_nodes));
        m.set(
            "parallel.nodes_ratio",
            ratio(self.nodes[0] as f64, ab_nodes),
        );
        m.set(
            "parallel.nodes_ratio_1t",
            ratio(self.nodes[1] as f64, ab_nodes),
        );
        m.set("parallel.speedup", ratio(self.ab_ns, self.wall_ns[0]));
        m.set("parallel.scaling", ratio(self.wall_ns[1], self.wall_ns[0]));
        // Worker-nanoseconds per node at 2 threads.
        m.set(
            "parallel.ns_per_node",
            ratio(2.0 * self.wall_ns[0], self.nodes[0] as f64),
        );
        let h = &self.heap;
        let jobs = h.jobs as f64;
        m.set(
            "heap.lock_wait_ns_per_job",
            ratio(h.lock_wait_ns as f64, jobs),
        );
        m.set(
            "heap.lock_hold_ns_per_job",
            ratio(h.lock_hold_ns as f64, jobs),
        );
        m.set(
            "heap.lock_share",
            ratio(
                (h.lock_wait_ns + h.lock_hold_ns) as f64,
                2.0 * self.elapsed2_ns,
            ),
        );
        m.set("heap.locks_per_job", ratio(h.locks as f64, jobs));
        m.set(
            "heap.steal_hit_share",
            ratio(h.steal_hits as f64, h.steal_attempts as f64),
        );
        m.set("heap.parks_per_job", ratio(h.parks as f64, jobs));
    }
}

/// One root for the simulator: request id, position, depth, search
/// configuration and alpha-beta's value.
pub type SimRoot<'a, P> = (u64, &'a P, u32, SearchSpec, i32);

/// Simulated ER at 2 and 16 processors, counts summed over `roots`. The
/// 16-processor run is repeated and must match exactly, and every value
/// must equal alpha-beta's; each violation is added to `notes`.
pub fn sim_metrics<P: GamePosition>(
    m: &mut Metrics,
    sp: &mut Spans,
    roots: &[SimRoot<'_, P>],
    notes: &mut Vec<String>,
) {
    let (mut mk2, mut mk16, mut n16) = (0u64, 0u64, 0u64);
    for &(req, pos, depth, spec, want) in roots {
        let p2 = sp.time("parallel", "er_sim_p2", req, 1, || {
            adapter::er_sim(pos, depth, 2, spec)
        });
        let p16 = sp.time("parallel", "er_sim_p16", req, 1, || {
            adapter::er_sim(pos, depth, 16, spec)
        });
        if adapter::er_sim(pos, depth, 16, spec) != p16 {
            notes.push(format!(
                "simulator counts differ between two runs of request {req}"
            ));
        }
        if p2.value != want || p16.value != want {
            notes.push(format!(
                "simulated ER value differs from alpha-beta on request {req}"
            ));
        }
        mk2 += p2.makespan;
        mk16 += p16.makespan;
        n16 += p16.nodes;
    }
    m.set("parallel.sim_makespan_p2", mk2 as f64);
    m.set("parallel.sim_makespan_p16", mk16 as f64);
    m.set("parallel.sim_nodes_p16", n16 as f64);
}

/// `CostModel` calibration inputs of one family: eval ns over expand ns,
/// and heap hold ns per job over expand ns.
pub fn calibration(
    m: &mut Metrics,
    names: (&'static str, &'static str),
    k: &KernelCosts,
    h: &HeapCounters,
) {
    m.set(names.0, ratio(k.eval, k.expand));
    m.set(
        names.1,
        ratio(ratio(h.lock_hold_ns as f64, h.jobs as f64), k.expand),
    );
}

/// `CostModel::default()`'s ratios, reported beside the measured ones.
pub fn model_ratios(m: &mut Metrics) {
    let (expand, eval, heap) = adapter::cost_model_default();
    m.set(
        "calib.model.eval_per_expand",
        ratio(eval as f64, expand as f64),
    );
    m.set(
        "calib.model.hold_per_expand",
        ratio(heap as f64, expand as f64),
    );
}

/// Span counts of the layers whose presence splits the workloads.
pub fn call_counts(m: &mut Metrics, sp: &Spans) {
    let totals = sp.layer_totals();
    for (layer, name) in [
        ("othello", "calls.othello"),
        ("checkers", "calls.checkers"),
        ("gametree", "calls.gametree"),
        ("tt", "calls.tt"),
        ("engine-server", "calls.engine-server"),
    ] {
        m.set(name, totals.get(layer).map_or(0.0, |t| t.calls as f64));
    }
}

/// Prints per-layer span totals and self time.
pub fn print_layer_table(sp: &Spans) {
    eprintln!("layer          requests   spans        calls     total_ms      self_ms");
    for (layer, t) in sp.layer_totals() {
        let mut requests: Vec<u64> = sp
            .spans()
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.request)
            .collect();
        requests.sort_unstable();
        requests.dedup();
        eprintln!(
            "{layer:<14} {:>8} {:>7} {:>12} {:>12.3} {:>12.3}",
            requests.len(),
            t.spans,
            t.calls,
            t.ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
}
