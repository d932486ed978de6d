//! The serving segment of the `othello` workload's traced run: four
//! closed-loop clients, two playing Othello and two checkers, share one
//! 2-thread session scheduler with a 2^20-entry table. Each client
//! submits its position for iterative deepening, waits for the reply,
//! then plays one seeded move. The scheduler only runs to idle, so the
//! clients move in waves. The segment runs a fixed number of waves, so
//! that a seed always submits the same sessions. It measures the
//! `engine-server`, `tt` and `checkers` layers; every session is checked
//! against serial alpha-beta at the depth it completed.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::adapter::{self, AnyPos, HeapCounters, SearchSpec, ServeOutcome, ServeRequest, Server};
use crate::failures::{classify, Observed, Tally};
use crate::gen::{self, ClientGame, Family};
use crate::layers;
use crate::report::Metrics;
use crate::spans::Spans;
use crate::stats::{ms, percentile, ratio};

/// Waves of the segment: 48 sessions, so that the p50 of queue waits has
/// ten samples beyond it.
const WAVES: usize = 12;
/// Checkers requests searched table-free at 2 threads for the checkers
/// calibration.
const PROBE_REQUESTS: usize = 6;
/// Positions sampled for kernel replay, and hashes for the table replay.
const KERNEL_SAMPLE: usize = 4096;
const TABLE_SAMPLE: usize = 8192;

/// Clients: one per active-session slot of the scheduler's default
/// configuration.
fn clients() -> usize {
    Server::default_max_active()
}

/// Even clients play Othello, odd ones checkers.
fn family_of(client: usize) -> Family {
    if client.is_multiple_of(2) {
        Family::Othello
    } else {
        Family::Checkers
    }
}

/// The seeded request sequence, generated wave by wave as the loop needs
/// it.
struct Requests {
    games: Vec<ClientGame>,
    waves: Vec<Vec<ServeRequest>>,
}

impl Requests {
    fn new(seed: u64) -> Requests {
        let games = (0..clients())
            .map(|c| ClientGame::new(family_of(c), seed, c as u64))
            .collect();
        Requests {
            games,
            waves: Vec::new(),
        }
    }

    fn wave(&mut self, w: usize) -> &[ServeRequest] {
        while self.waves.len() <= w {
            let n = self.waves.len();
            let wave = self
                .games
                .iter_mut()
                .enumerate()
                .map(|(c, g)| {
                    let r = ServeRequest {
                        pos: g.position(),
                        depth: g.family.depth(),
                        priority: n + c,
                    };
                    g.advance();
                    r
                })
                .collect();
            self.waves.push(wave);
        }
        &self.waves[w]
    }

    /// The first `n` requests in submission order.
    fn first(&mut self, n: usize) -> Vec<(usize, usize, ServeRequest)> {
        let per = clients();
        (0..n)
            .map(|k| (k / per, k % per, self.wave(k / per)[k % per]))
            .collect()
    }
}

struct WaveRun {
    wave: usize,
    outcomes: Vec<ServeOutcome>,
    wall: Duration,
    slices: u64,
}

/// Runs [`WAVES`] waves, one after the other.
fn closed_loop(reqs: &mut Requests, server: &mut Server, sp: &mut Spans) -> Vec<WaveRun> {
    (0..WAVES)
        .map(|w| {
            let wave = reqs.wave(w);
            let before = server.slices();
            let t = Instant::now();
            let outcomes = sp.time("engine-server", "wave", w as u64, wave.len() as u64, || {
                server.wave(wave)
            });
            let wall = t.elapsed();
            WaveRun {
                wave: w,
                outcomes,
                wall,
                slices: server.slices() - before,
            }
        })
        .collect()
}

/// Serial alpha-beta values by `(wave, client, depth)`.
#[derive(Default)]
struct Oracle {
    values: HashMap<(usize, usize, u32), i32>,
}

impl Oracle {
    fn value(&mut self, sp: &mut Spans, k: (usize, usize), pos: &AnyPos, depth: u32) -> i32 {
        *self.values.entry((k.0, k.1, depth)).or_insert_with(|| {
            sp.time("search-serial", "alphabeta_served", k.0 as u64, 1, || {
                adapter::alphabeta(pos, depth, SearchSpec::served(pos)).value
            })
        })
    }
}

/// Classifies every session of `waves` into `tally`.
fn check(waves: &[WaveRun], reqs: &mut Requests, sp: &mut Spans, tally: &mut Tally) {
    let mut oracle = Oracle::default();
    for w in waves {
        let wave = reqs.wave(w.wave).to_vec();
        for (c, (o, req)) in w.outcomes.iter().zip(&wave).enumerate() {
            let obs = Observed {
                shed: o.shed.clone(),
                aborted: o.stopped.clone(),
                depth_completed: o.depth_completed,
                max_depth: o.max_depth,
                value: o.value,
            };
            let f = classify(&obs, |d| oracle.value(sp, (w.wave, c), &req.pos, d));
            if let Some(f) = &f {
                eprintln!(
                    "failure: served wave {} client {c} ({} depth {}): {}",
                    w.wave,
                    adapter::family(&req.pos),
                    o.depth_completed,
                    f.reason()
                );
            }
            tally.record(f.as_ref());
        }
    }
}

/// Runs the segment and sets the `server.*`, `tt.*`, `checkers.*` and
/// `calib.checkers.*` metrics.
pub fn segment(seed: u64, sp: &mut Spans, m: &mut Metrics, tally: &mut Tally) {
    let mut server = sp.time("engine-server", "new", 0, 1, || {
        Server::new(2, adapter::SERVE_TT_BITS)
    });
    let mut reqs = Requests::new(seed);
    let waves = closed_loop(&mut reqs, &mut server, sp);
    check(&waves, &mut reqs, sp, tally);

    let sessions = || waves.iter().flat_map(|w| &w.outcomes);
    let n = sessions().count() as f64;
    let wall: Duration = waves.iter().map(|w| w.wall).sum();
    let service: Duration = sessions().map(|o| o.service).sum();
    let slices: u64 = waves.iter().map(|w| w.slices).sum();
    m.set(
        "server.slice_overhead_ms",
        ratio(ms(wall.saturating_sub(service)), slices as f64),
    );
    let mut waits: Vec<f64> = sessions().map(|o| ms(o.queue_wait)).collect();
    waits.sort_by(f64::total_cmp);
    m.set(
        "server.queue_wait_ms_p50",
        percentile(&waits, 50.0).unwrap_or_else(|e| panic!("{e}")),
    );
    m.set(
        "server.slices_per_request",
        ratio(sessions().map(|o| f64::from(o.slices)).sum(), n),
    );
    m.set(
        "server.re_searches_per_request",
        ratio(sessions().map(|o| o.re_searches as f64).sum(), n),
    );
    m.set("tt.hit_rate", server.tt_hit_rate());
    m.set("tt.fill", server.tt_fill(4096));
    eprintln!(
        "served sessions: {} in {} waves, {:.3} s; tt hit rate {:.3}, fill {:.3}",
        n,
        waves.len(),
        wall.as_secs_f64(),
        server.tt_hit_rate(),
        server.tt_fill(4096)
    );
    drop(server);

    // Checkers heap counters: table-free 2-thread searches of the first
    // served checkers positions, checked against alpha-beta.
    let first = reqs.first(2 * PROBE_REQUESTS * clients());
    let mut heap = HeapCounters::default();
    let probes = first
        .iter()
        .filter(|(_, c, _)| family_of(*c) == Family::Checkers)
        .take(PROBE_REQUESTS);
    for &(w, c, req) in probes {
        let spec = SearchSpec::served(&req.pos);
        let want = sp.time("search-serial", "alphabeta_probe", w as u64, 1, || {
            adapter::alphabeta(&req.pos, req.depth, spec).value
        });
        let r = sp.time("parallel", "er_threads_2t_checkers", w as u64, 1, || {
            adapter::er_threads(&req.pos, req.depth, 2, spec)
        });
        let obs = Observed {
            shed: None,
            aborted: r.as_ref().err().cloned(),
            depth_completed: req.depth,
            max_depth: req.depth,
            value: r.as_ref().map_or(0, |r| r.value),
        };
        let f = classify(&obs, |_| want);
        if let Some(f) = &f {
            eprintln!(
                "failure: checkers probe wave {w} client {c}: {}",
                f.reason()
            );
        }
        tally.record(f.as_ref());
        if let Ok(r) = &r {
            heap.add(&r.heap);
        }
    }

    // Kernels and table calls over positions from the served games' trees.
    let served: Vec<AnyPos> = reqs.first(64).iter().map(|(_, _, r)| r.pos).collect();
    let chk: Vec<_> = served.iter().filter_map(adapter::as_checkers).collect();
    let kc = layers::kernels(
        sp,
        "checkers",
        &gen::tree_sample(&chk, Family::Checkers.depth(), KERNEL_SAMPLE, seed),
    );
    m.set("checkers.movegen_ns", kc.movegen);
    m.set("checkers.eval_ns", kc.eval);
    layers::calibration(
        m,
        (
            "calib.checkers.eval_per_expand",
            "calib.checkers.hold_per_expand",
        ),
        &kc,
        &heap,
    );
    let hashes: Vec<u64> = gen::tree_sample(&served, Family::Checkers.depth(), TABLE_SAMPLE, seed)
        .iter()
        .map(adapter::zobrist)
        .collect();
    let tc = layers::table_costs(sp, adapter::SERVE_TT_BITS, &hashes);
    m.set("tt.probe_ns", tc.probe_ns);
    m.set("tt.store_ns", tc.store_ns);
    m.set("tt.new_generation_us", tc.new_generation_us);
}
