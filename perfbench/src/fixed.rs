//! The fixed-depth workloads, `othello` and `random`: one client searches
//! seeded roots to a fixed depth with threaded ER, each root three times
//! at 2 worker threads and once at 1, and every value is checked against
//! serial alpha-beta. The traced `othello` run ends with the serving
//! segment of `serve.rs`.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::adapter::{self, GamePosition, SearchSpec, ThreadedRun};
use crate::failures::{classify, Observed, Tally};
use crate::gen;
use crate::layers::{self, KernelCosts, ParallelSums};
use crate::report::Metrics;
use crate::spans::Spans;
use crate::stats::{median, ms, Latencies};
use crate::{Args, Outcome};

/// Roots generated during set-up; later roots are generated on demand,
/// outside the timed sections.
const SETUP_ROOTS: u64 = 512;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Searches of each root at 2 threads. A root's 2-thread latency is the
/// median of its searches, so that a burst of load from outside the
/// program slows at most one of them.
const REPEATS: usize = 3;
/// Loop steps between two searches of the same root: the searches of a
/// root fall seconds apart.
const GAP: usize = 40;
/// The loop starts at least this many roots even past its time limit, so
/// that p95 has ten samples beyond it; each half of a traced run starts
/// at least `MIN_TRACED_ROOTS`, for the p50 of the serial timings.
const MIN_ROOTS: usize = 220;
const MIN_TRACED_ROOTS: usize = 40;
/// Roots whose serial node counts and simulated counts are exact.
const EXACT_ROOTS: u64 = 8;
/// Roots timed with serial ER.
const ER_ROOTS: u64 = 24;
/// Roots run through the simulator.
const SIM_ROOTS: u64 = 2;
/// Positions sampled from the roots' trees for kernel replay.
const KERNEL_SAMPLE: usize = 4096;

/// One fixed-depth workload.
pub struct Fixed<P> {
    depth: u32,
    spec: SearchSpec,
    root: fn(u64, u64) -> P,
    kernels: Kernels,
}

/// The crate whose game kernels the workload's searches run.
#[derive(Clone, Copy)]
pub enum Kernels {
    Othello,
    GameTree,
}

pub fn othello() -> Fixed<adapter::OthelloPos> {
    Fixed {
        depth: 7,
        spec: SearchSpec::othello(),
        root: gen::othello_root,
        kernels: Kernels::Othello,
    }
}

/// Serial depth of the `random` workload's frontier jobs.
const RANDOM_SERIAL_DEPTH: u32 = 4;

pub fn random() -> Fixed<adapter::RandomPos> {
    Fixed {
        depth: gen::RANDOM_HEIGHT,
        spec: SearchSpec::random_tree(RANDOM_SERIAL_DEPTH),
        root: gen::random_root,
        kernels: Kernels::GameTree,
    }
}

/// One threaded search of one root.
struct Attempt {
    result: Result<ThreadedRun, String>,
    wall: Duration,
}

/// One request: a root searched [`REPEATS`] times at 2 threads and once
/// at 1.
struct Request {
    root: u64,
    two: Vec<Attempt>,
    one: Attempt,
}

impl Request {
    /// The 2-thread search of median wall time.
    fn two_median(&self) -> &Attempt {
        let mut order: Vec<&Attempt> = self.two.iter().collect();
        order.sort_by_key(|a| a.wall);
        order[order.len() / 2]
    }
}

impl<P: GamePosition> Fixed<P> {
    fn roots(&self, seed: u64, n: u64) -> Vec<P> {
        (0..n).map(|i| (self.root)(seed, i)).collect()
    }

    /// Set-up: generating the run's first roots, timed `SETUP_REPS`
    /// times.
    fn setup(&self, seed: u64) -> (Vec<P>, Vec<f64>) {
        let mut roots = Vec::new();
        let times = (0..SETUP_REPS)
            .map(|_| {
                drop(std::mem::take(&mut roots));
                let t = Instant::now();
                roots = self.roots(seed, SETUP_ROOTS);
                t.elapsed().as_secs_f64()
            })
            .collect();
        (roots, times)
    }

    fn attempt(&self, sp: &mut Spans, root: &P, i: u64, threads: usize) -> Attempt {
        let op = if threads == 2 {
            "er_threads_2t"
        } else {
            "er_threads_1t"
        };
        let t = Instant::now();
        let result = sp.time("parallel", op, i, 1, || {
            adapter::er_threads(root, self.depth, threads, self.spec)
        });
        Attempt {
            result,
            wall: t.elapsed(),
        }
    }

    /// The closed loop. Step `k` starts root `k`, searching it at 1 and
    /// at 2 threads (the thread counts alternate which goes first), and
    /// repeats the 2-thread search of roots `k - GAP`, `k - 2 GAP`, ....
    /// Roots start until `limit` has passed and at least `min_roots`
    /// started; the steps then go on until every root has all its
    /// searches.
    fn closed_loop(
        &self,
        seed: u64,
        roots: &mut Vec<P>,
        (limit, min_roots): (Duration, usize),
        sp: &mut Spans,
    ) -> Vec<Request> {
        let mut done: Vec<Request> = Vec::new();
        let start = Instant::now();
        let mut open = true;
        for step in 0.. {
            open = open && (start.elapsed() < limit || done.len() < min_roots);
            let span = sp.enter("bench", "step", step as u64);
            if open {
                let i = step as u64;
                if step == roots.len() {
                    roots.push((self.root)(seed, i));
                }
                let root = &roots[step];
                let (two, one) = if step.is_multiple_of(2) {
                    let two = self.attempt(sp, root, i, 2);
                    (two, self.attempt(sp, root, i, 1))
                } else {
                    let one = self.attempt(sp, root, i, 1);
                    (self.attempt(sp, root, i, 2), one)
                };
                done.push(Request {
                    root: i,
                    two: vec![two],
                    one,
                });
            }
            for r in 1..REPEATS {
                let Some(j) = step.checked_sub(r * GAP) else {
                    break;
                };
                if j < done.len() && done[j].two.len() == r {
                    let a = self.attempt(sp, &roots[j], j as u64, 2);
                    done[j].two.push(a);
                }
            }
            sp.exit(span, 1);
            if !open && done.iter().all(|r| r.two.len() == REPEATS) {
                break;
            }
        }
        done
    }

    pub fn run(&self, args: &Args) -> Outcome {
        let (mut roots, setup_times) = self.setup(args.seed);
        let limit = Duration::from_secs_f64(args.seconds);
        if !args.trace {
            let reqs =
                self.closed_loop(args.seed, &mut roots, (limit, MIN_ROOTS), &mut Spans::off());
            let mut oracle = Oracle::default();
            let checked = self.check(&reqs, &roots, &mut oracle, &mut Spans::off());
            let mut m = Metrics::default();
            let (mut lat2, mut lat1) = (Latencies::default(), Latencies::default());
            let mut wall2 = Duration::ZERO;
            let mut completed2 = 0u64;
            for r in &reqs {
                let failed = |threads, k| checked.failed.contains(&(r.root, threads, k));
                let failed2 = (0..REPEATS).any(|k| failed(2, k));
                lat2.push(ms(r.two_median().wall), failed2);
                lat1.push(ms(r.one.wall), failed(1, 0));
                for (k, a) in r.two.iter().enumerate() {
                    wall2 += a.wall;
                    completed2 += u64::from(!failed(2, k));
                }
            }
            let p = |l: &Latencies, q| l.percentile(q).unwrap_or_else(|e| panic!("{e}"));
            m.set("latency_ms_p50", p(&lat2, 50.0));
            m.set("latency_ms_p95", p(&lat2, 95.0));
            m.set("latency_1t_ms_p50", p(&lat1, 50.0));
            m.set("requests_per_s", completed2 as f64 / wall2.as_secs_f64());
            m.set("setup_s", median(&setup_times));
            eprintln!(
                "roots searched: {} ({REPEATS} times at 2 threads, once at 1)",
                reqs.len()
            );
            return Outcome {
                correct: true,
                notes: Vec::new(),
                tally: checked.tally,
                metrics: m,
            };
        }
        self.run_traced(args, roots, limit)
    }

    /// Checks every attempt against the oracle.
    fn check(&self, reqs: &[Request], roots: &[P], oracle: &mut Oracle, sp: &mut Spans) -> Checked {
        let mut out = Checked::default();
        for r in reqs {
            let root = &roots[r.root as usize];
            let attempts = r.two.iter().enumerate().map(|(k, a)| (2, k, a));
            for (threads, k, a) in attempts.chain([(1, 0, &r.one)]) {
                let obs = match &a.result {
                    Ok(run) => Observed {
                        shed: None,
                        aborted: None,
                        depth_completed: self.depth,
                        max_depth: self.depth,
                        value: run.value,
                    },
                    Err(reason) => Observed {
                        shed: None,
                        aborted: Some(reason.clone()),
                        depth_completed: 0,
                        max_depth: self.depth,
                        value: 0,
                    },
                };
                let f = classify(&obs, |d| oracle.value(sp, root, r.root, d, self.spec));
                if let Some(f) = &f {
                    eprintln!(
                        "failure: root {} at {threads} threads: {}",
                        r.root,
                        f.reason()
                    );
                }
                if out.tally.record(f.as_ref()) {
                    out.failed.push((r.root, threads, k));
                }
            }
        }
        out
    }

    fn run_traced(&self, args: &Args, mut roots: Vec<P>, limit: Duration) -> Outcome {
        let mut notes = Vec::new();
        let half = (limit / 2, MIN_TRACED_ROOTS);
        let plain = self.closed_loop(args.seed, &mut roots, half, &mut Spans::off());
        let mut sp = Spans::on();
        let traced = self.closed_loop(args.seed, &mut roots, half, &mut sp);
        let mut oracle = Oracle::default();
        let mut tally = self.check(&traced, &roots, &mut oracle, &mut sp).tally;
        tally.merge(
            &self
                .check(&plain, &roots, &mut oracle, &mut Spans::off())
                .tally,
        );

        let mut m = Metrics::default();
        let wall = |r: &Request| (r.two_median().wall + r.one.wall).as_secs_f64();
        let ratios: Vec<f64> = traced
            .iter()
            .zip(&plain)
            .map(|(t, p)| wall(t) / wall(p))
            .collect();
        m.set("trace.overhead", median(&ratios) - 1.0);

        // search-serial: the oracle runs of the traced half, timed.
        m.set(
            "serial.alphabeta_ms_p50",
            layers::span_p50_ms(&sp, "search-serial", "alphabeta"),
        );
        let mut exact_nodes = 0;
        for i in 0..EXACT_ROOTS {
            let root = &roots[i as usize];
            let run = adapter::alphabeta(root, self.depth, self.spec);
            if run != oracle.run(&mut sp, root, i, self.depth, self.spec).0 {
                notes.push(format!("alpha-beta on root {i} is not deterministic"));
            }
            exact_nodes += run.nodes;
        }
        m.set("serial.nodes", exact_nodes as f64);
        for i in 0..ER_ROOTS {
            let root = &roots[i as usize];
            let run = sp.time("search-serial", "er_search", i, 1, || {
                adapter::er_serial(root, self.depth, self.spec)
            });
            if run.value != oracle.value(&mut sp, root, i, self.depth, self.spec) {
                notes.push(format!(
                    "serial ER value differs from alpha-beta on root {i}"
                ));
            }
        }
        m.set(
            "serial.er_ms_p50",
            layers::span_p50_ms(&sp, "search-serial", "er_search"),
        );

        // parallel and problem-heap: the traced half's threaded runs.
        let mut sums = ParallelSums::default();
        for r in &traced {
            let two = r.two_median();
            if let (Ok(two_run), Ok(one)) = (&two.result, &r.one.result) {
                let root = &roots[r.root as usize];
                let (ab, ab_time) = oracle.run(&mut sp, root, r.root, self.depth, self.spec);
                sums.add((&ab, ab_time), (two_run, two.wall), (one, r.one.wall));
            }
        }
        sums.set_metrics(&mut m);

        // Simulator counts: exact, asserted to repeat.
        let sim: Vec<_> = (0..SIM_ROOTS)
            .map(|i| {
                let root = &roots[i as usize];
                let want = oracle.value(&mut sp, root, i, self.depth, self.spec);
                (i, root, self.depth, self.spec, want)
            })
            .collect();
        layers::sim_metrics(&mut m, &mut sp, &sim, &mut notes);

        // Kernels over positions from the roots' own trees.
        let sample = gen::tree_sample(&roots[..64], self.depth, KERNEL_SAMPLE, args.seed);
        let (layer, names) = match self.kernels {
            Kernels::Othello => (
                "othello",
                (
                    "calib.othello.eval_per_expand",
                    "calib.othello.hold_per_expand",
                ),
            ),
            Kernels::GameTree => (
                "gametree",
                (
                    "calib.random.eval_per_expand",
                    "calib.random.hold_per_expand",
                ),
            ),
        };
        let k: KernelCosts = layers::kernels(&mut sp, layer, &sample);
        match self.kernels {
            Kernels::Othello => {
                m.set("othello.movegen_ns", k.movegen);
                m.set("othello.play_ns", k.play);
                m.set("othello.eval_ns", k.eval);
            }
            Kernels::GameTree => {
                m.set("gametree.expand_ns", k.expand);
                m.set("gametree.eval_ns", k.eval);
            }
        }
        layers::calibration(&mut m, names, &k, &sums.heap);
        // The serving segment measures engine-server, tt and checkers.
        if let Kernels::Othello = self.kernels {
            crate::serve::segment(args.seed, &mut sp, &mut m, &mut tally);
        }
        layers::model_ratios(&mut m);
        layers::call_counts(&mut m, &sp);
        crate::report::failure_metrics(&mut m, &tally);
        layers::print_layer_table(&sp);
        eprintln!(
            "roots searched: {} untraced, {} traced ({REPEATS} times at 2 threads, once at 1)",
            plain.len(),
            traced.len()
        );
        m.zero_unset(crate::report::PER_LAYER);
        Outcome {
            correct: notes.is_empty(),
            notes,
            tally,
            metrics: m,
        }
    }
}

#[derive(Default)]
struct Checked {
    tally: Tally,
    /// `(root, threads, attempt)` of every failed attempt.
    failed: Vec<(u64, usize, usize)>,
}

/// Serial alpha-beta results and times by `(root, depth)`, each computed
/// once, outside every timed section of the closed loop.
#[derive(Default)]
struct Oracle {
    runs: HashMap<(u64, u32), (adapter::SerialRun, Duration)>,
}

impl Oracle {
    fn run<P: GamePosition>(
        &mut self,
        sp: &mut Spans,
        root: &P,
        i: u64,
        depth: u32,
        spec: SearchSpec,
    ) -> (adapter::SerialRun, Duration) {
        *self.runs.entry((i, depth)).or_insert_with(|| {
            let t = Instant::now();
            let run = sp.time("search-serial", "alphabeta", i, 1, || {
                adapter::alphabeta(root, depth, spec)
            });
            (run, t.elapsed())
        })
    }

    fn value<P: GamePosition>(
        &mut self,
        sp: &mut Spans,
        root: &P,
        i: u64,
        depth: u32,
        spec: SearchSpec,
    ) -> i32 {
        self.run(sp, root, i, depth, spec).0.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_started_root_gets_all_its_searches() {
        let w = random();
        let mut roots = Vec::new();
        let reqs = w.closed_loop(5, &mut roots, (Duration::ZERO, 3), &mut Spans::off());
        assert_eq!(
            reqs.len(),
            3,
            "past its limit the loop starts only the minimum"
        );
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.root, i as u64);
            assert_eq!(r.two.len(), REPEATS);
        }
        let checked = w.check(&reqs, &roots, &mut Oracle::default(), &mut Spans::off());
        assert_eq!(checked.tally.attempted, 3 * (REPEATS as u64 + 1));
        assert_eq!(checked.tally.failed(), 0);
    }

    #[test]
    fn a_roots_latency_is_its_median_search() {
        let attempt = |ms| Attempt {
            result: Err(String::new()),
            wall: Duration::from_millis(ms),
        };
        let r = Request {
            root: 0,
            two: vec![attempt(30), attempt(90), attempt(20)],
            one: attempt(40),
        };
        assert_eq!(r.two_median().wall, Duration::from_millis(30));
    }
}
