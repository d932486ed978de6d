//! A UCI-style line protocol over any `BufRead`/`Write` pair.
//!
//! The grammar is a small, game-agnostic subset of the chess UCI protocol
//! (DESIGN.md §13 gives the full grammar):
//!
//! ```text
//! uci                         -> id ... / uciok
//! isready                     -> readyok
//! ucinewgame                  (fresh table, position reset)
//! position startpos [moves m1 m2 ...]
//! position random <seed> <degree> <height> [moves ...]
//! position checkers [moves ...]
//! go [movetime <ms>] [depth <d>] [infinite]
//!    [wtime <ms>] [btime <ms>] [winc <ms>] [binc <ms>]
//!                             -> info depth ... / info string nps ... / bestmove ...
//! stop                        (finish the running search now)
//! metrics                     -> the Prometheus exposition page
//! quit                        (exit the loop)
//! ```
//!
//! `go` launches an anytime deepening search on a scoped worker thread
//! while the loop keeps reading, so `stop` works mid-search exactly as
//! the sticky [`SearchControl`] token promises: the token cancels, the
//! current depth unwinds, and `bestmove` reports the deepest *completed*
//! depth — the same graceful degradation the session scheduler gives
//! over-deadline sessions. Commands that need the engine idle
//! (`position`, `go`, `ucinewgame`) simply wait for the running search to
//! finish; `stop`, `isready`, and `quit` act immediately.
//!
//! At end of input an unbounded search is cancelled (nobody is left to
//! ever send `stop`), but a `movetime` or `depth` search runs to its own
//! bound — so `echo "go movetime 20" | repro uci` really searches for
//! 20 ms.
//!
//! Successive `go` commands share one transposition table (replaced by
//! `ucinewgame`), so analysing a line of play reuses prior work. They
//! also share one [`EngineMetrics`] set, which every search records
//! into: each `go` reports an `info string nps ...` line (derived from
//! the same counters the registry exposes, not a separate tally) right
//! before `bestmove`, and the `metrics` command dumps the whole set as
//! a Prometheus exposition page.
//! `bestmove` comes from the deepening driver's root split
//! ([`IdStepper::step_root`]): the deepest completed depth's choice, or
//! the one-ply greedy child when no depth completed.

use std::io::{BufRead, Write};
use std::sync::{Arc, Mutex};
use std::thread::ScopedJoinHandle;
use std::time::Duration;

use er_parallel::{AspirationConfig, Hooks, IdStepper, SearchControl};
use gametree::GamePosition;
use metrics::EngineMetrics;
use search_serial::alphabeta;
use tt::TranspositionTable;

use crate::game::AnyPos;
use crate::scheduler::slice_search;

/// Knobs of the protocol loop.
#[derive(Clone, Copy, Debug)]
pub struct UciConfig {
    /// Worker threads per search.
    pub threads: usize,
    /// log2 size of the persistent table.
    pub tt_bits: u32,
    /// Depth cap when `go` names none (`movetime`-only and `infinite`
    /// searches still need the deepening loop to end somewhere).
    pub default_depth: u32,
    /// Aspiration policy across depths.
    pub asp: AspirationConfig,
}

impl Default for UciConfig {
    /// Two threads, a 2^16-entry table, depth cap 16, aspiration off.
    fn default() -> UciConfig {
        UciConfig {
            threads: 2,
            tt_bits: 16,
            default_depth: 16,
            asp: AspirationConfig::OFF,
        }
    }
}

/// One `go` command's parse.
#[derive(Default)]
struct GoSpec {
    movetime: Option<Duration>,
    depth: Option<u32>,
    /// Game-clock state, standard UCI spelling: remaining time and
    /// per-move increment for the first mover ("white") and the second.
    wtime: Option<Duration>,
    btime: Option<Duration>,
    winc: Option<Duration>,
    binc: Option<Duration>,
}

impl GoSpec {
    /// The move budget implied by the clock fields (when any are given):
    /// the mover's side is the parity of `plies` played since the start
    /// position, and the [`TimeManager`](crate::TimeManager) formula
    /// turns that side's remaining/increment into a budget. `movetime`
    /// always wins over the clock.
    fn clock_budget(&self, pos: &AnyPos, plies: u32) -> Option<Duration> {
        if self.movetime.is_some() {
            return None;
        }
        let first_mover = plies.is_multiple_of(2);
        let time = if first_mover {
            self.wtime.or(self.btime)
        } else {
            self.btime.or(self.wtime)
        }?;
        let inc = if first_mover { self.winc } else { self.binc }.unwrap_or(Duration::ZERO);
        let clock = crate::GameClock::new(crate::TimeControl {
            base: time,
            increment: inc,
        });
        Some(crate::TimeManager::default().allot_for(&clock, pos))
    }
}

/// The in-flight search, when one is running.
struct Running<'scope> {
    handle: ScopedJoinHandle<'scope, std::io::Result<()>>,
    ctl: Arc<SearchControl>,
    /// Whether the search bounds itself (a `movetime` or a `depth`); an
    /// unbounded `go` only ever ends by `stop`, so end-of-input cancels it.
    bounded: bool,
}

/// Runs the protocol loop until `quit` or end of input. Every reply is a
/// single line; errors are reported as `info string error: ...` lines
/// (the loop never aborts on a malformed command).
pub fn run<R: BufRead, W: Write + Send>(input: R, out: W, cfg: UciConfig) -> std::io::Result<()> {
    let out = Mutex::new(out);
    let mut table = Arc::new(TranspositionTable::with_bits(cfg.tt_bits));
    let metrics = Arc::new(EngineMetrics::new(cfg.threads.max(1)));
    let mut pos = AnyPos::othello_startpos();
    // Plies played from the start position — the side-to-move parity the
    // clock fields of `go` are matched against.
    let mut plies = 0u32;
    let say = |line: &str| -> std::io::Result<()> {
        let mut o = out.lock().unwrap();
        writeln!(o, "{line}")?;
        o.flush()
    };
    std::thread::scope(|scope| -> std::io::Result<()> {
        let mut running: Option<Running<'_>> = None;
        for line in input.lines() {
            let line = line?;
            let mut words = line.split_whitespace();
            match words.next() {
                None => {}
                Some("uci") => {
                    say("id name er-search")?;
                    say("id author er-reproduction")?;
                    say("uciok")?;
                }
                Some("isready") => say("readyok")?,
                Some("ucinewgame") => {
                    finish(&mut running, false)?;
                    table = Arc::new(TranspositionTable::with_bits(cfg.tt_bits));
                    pos = AnyPos::othello_startpos();
                    plies = 0;
                }
                Some("position") => {
                    finish(&mut running, false)?;
                    match parse_position(&mut words) {
                        Ok((p, n)) => (pos, plies) = (p, n),
                        Err(e) => say(&format!("info string error: {e}"))?,
                    }
                }
                Some("go") => {
                    finish(&mut running, false)?;
                    let spec = parse_go(&mut words);
                    let budget = spec.movetime.or_else(|| spec.clock_budget(&pos, plies));
                    let bounded = budget.is_some() || spec.depth.is_some();
                    let ctl = Arc::new(match budget {
                        Some(t) => SearchControl::with_budget(t),
                        None => SearchControl::unlimited(),
                    });
                    let (ctl2, table2, out2) = (Arc::clone(&ctl), Arc::clone(&table), &out);
                    let m2 = Arc::clone(&metrics);
                    let handle =
                        scope.spawn(move || search(&pos, &spec, &table2, cfg, &ctl2, out2, &m2));
                    running = Some(Running {
                        handle,
                        ctl,
                        bounded,
                    });
                }
                Some("stop") => {
                    // Cancel and wait for `bestmove`; a stray stop with no
                    // search running is a harmless no-op, as in UCI.
                    finish(&mut running, true)?;
                }
                Some("metrics") => {
                    // Join the running search first so the page reflects a
                    // settled counter set, then dump the exposition text
                    // (multi-line, lint-clean — see metrics::lint).
                    finish(&mut running, false)?;
                    let mut o = out.lock().unwrap();
                    write!(o, "{}", metrics.expose())?;
                    o.flush()?;
                }
                Some("quit") => break,
                Some(other) => say(&format!("info string error: unknown command '{other}'"))?,
            }
        }
        // End of input: nobody can ever send `stop`, so cancel a search
        // with no bound of its own; a `movetime` or `depth` search runs
        // to its bound and still reports `bestmove` into the output.
        if let Some(r) = &running {
            if !r.bounded {
                r.ctl.cancel();
            }
        }
        finish(&mut running, false)
    })
}

/// Joins the in-flight search, if any. With `cancel`, trips its token
/// first so the join is prompt.
fn finish(running: &mut Option<Running<'_>>, cancel: bool) -> std::io::Result<()> {
    if let Some(r) = running.take() {
        if cancel {
            r.ctl.cancel();
        }
        r.handle.join().expect("search thread panicked")?;
    }
    Ok(())
}

/// Parses everything after `position`, returning the position and the
/// number of plies played from the start position (the clock-side parity).
fn parse_position<'a, I: Iterator<Item = &'a str>>(words: &mut I) -> Result<(AnyPos, u32), String> {
    let mut plies = 0u32;
    let mut pos = match words.next() {
        Some("startpos") | Some("othello") => AnyPos::othello_startpos(),
        Some("checkers") => AnyPos::checkers_startpos(),
        Some("random") => {
            let mut num = |what: &str| -> Result<u64, String> {
                words
                    .next()
                    .and_then(|w| w.parse().ok())
                    .ok_or_else(|| format!("random position needs a numeric {what}"))
            };
            let (seed, degree, height) = (num("seed")?, num("degree")?, num("height")?);
            AnyPos::random_root(seed, degree as u32, height as u32)
        }
        other => return Err(format!("unknown position kind {other:?}")),
    };
    match words.next() {
        None => Ok((pos, plies)),
        Some("moves") => {
            for tok in words {
                let mv = pos
                    .parse_move(tok)
                    .ok_or_else(|| format!("illegal move '{tok}'"))?;
                pos = pos.play(&mv);
                plies += 1;
            }
            Ok((pos, plies))
        }
        Some(other) => Err(format!("expected 'moves', got '{other}'")),
    }
}

/// Parses everything after `go`. Unknown tokens are skipped, as UCI
/// engines conventionally do.
fn parse_go<'a, I: Iterator<Item = &'a str>>(words: &mut I) -> GoSpec {
    let mut spec = GoSpec::default();
    let ms = |words: &mut I| {
        words
            .next()
            .and_then(|v| v.parse().ok())
            .map(Duration::from_millis)
    };
    while let Some(w) = words.next() {
        match w {
            "movetime" => spec.movetime = ms(words),
            "wtime" => spec.wtime = ms(words),
            "btime" => spec.btime = ms(words),
            "winc" => spec.winc = ms(words),
            "binc" => spec.binc = ms(words),
            "depth" => spec.depth = words.next().and_then(|v| v.parse().ok()),
            _ => {}
        }
    }
    spec
}

/// The search-thread body: anytime deepening with a per-depth `info`
/// line, ending in `bestmove` no matter how deepening stopped.
fn search<W: Write + Send>(
    pos: &AnyPos,
    spec: &GoSpec,
    table: &TranspositionTable,
    cfg: UciConfig,
    ctl: &SearchControl,
    out: &Mutex<W>,
    m: &EngineMetrics,
) -> std::io::Result<()> {
    let max_depth = spec.depth.unwrap_or(cfg.default_depth);
    // Baselines for this move's `info string nps` report: the line is a
    // delta of the shared registry counters, not a private tally.
    let nodes0 = m.search_nodes_total.value();
    let ns0 = m.search_elapsed_ns_total.value();
    let kids = pos.children();
    let er_cfg = pos.er_cfg();
    let mut stepper = IdStepper::new(pos.evaluate(), cfg.asp);
    while !kids.is_empty() && stepper.depth_completed() < max_depth {
        let depth = stepper.next_depth();
        table.new_generation();
        let step = stepper.step_root(depth, ctl, kids.len(), |i, d, w, c| {
            let hooks = Hooks::default().with_tt(table).with_ctl(c).with_metrics(m);
            slice_search(&kids[i], d, w, cfg.threads, &er_cfg, hooks, None)
        });
        let Ok(s) = step else { break };
        let mut o = out.lock().unwrap();
        writeln!(
            o,
            "info depth {} score cp {} nodes {} time {}",
            s.depth,
            s.value.get(),
            s.nodes,
            s.elapsed.as_millis()
        )?;
        o.flush()?;
    }
    let best = stepper
        .best_move(&kids)
        .and_then(|i| pos.move_label(i))
        .unwrap_or_else(|| "none".to_string());
    let mut o = out.lock().unwrap();
    let (nodes, ns) = (
        m.search_nodes_total.value() - nodes0,
        m.search_elapsed_ns_total.value() - ns0,
    );
    let nps = if ns == 0 {
        0
    } else {
        (nodes as f64 * 1e9 / ns as f64) as u64
    };
    writeln!(o, "info string nps {nps} nodes {nodes} elapsed_ns {ns}")?;
    writeln!(o, "bestmove {best}")?;
    o.flush()
}

/// The solo fixed-depth oracle the protocol tests compare `info` lines
/// against: transparency says the served value must equal this exactly.
pub fn solo_value(pos: &AnyPos, depth: u32) -> gametree::Value {
    alphabeta(pos, depth, pos.order_policy()).value
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn run_session(script: &str) -> String {
        let mut out = Vec::new();
        let cfg = UciConfig {
            threads: 1,
            ..UciConfig::default()
        };
        run(Cursor::new(script.to_string()), &mut out, cfg).expect("io");
        String::from_utf8(out).expect("utf8")
    }

    #[test]
    fn handshake_and_readiness() {
        let out = run_session("uci\nisready\nquit\n");
        assert!(out.contains("id name er-search"));
        assert!(out.contains("uciok"));
        assert!(out.contains("readyok"));
    }

    #[test]
    fn go_depth_reports_the_solo_value() {
        let out = run_session("position startpos\ngo depth 3\nquit\n");
        let expect = solo_value(&AnyPos::othello_startpos(), 3);
        let line = out
            .lines()
            .rfind(|l| l.starts_with("info depth 3 "))
            .expect("depth-3 info line");
        assert!(
            line.contains(&format!("score cp {}", expect.get())),
            "{line} should carry value {expect:?}"
        );
        assert!(out.lines().any(|l| l.starts_with("bestmove ")));
    }

    #[test]
    fn position_moves_and_random_trees_parse() {
        // Play the first legal move by its square label, then search.
        let p = AnyPos::othello_startpos();
        let label = p.move_label(0).unwrap();
        let out = run_session(&format!(
            "position startpos moves {label}\ngo depth 2\nposition random 5 4 6\ngo depth 3\nquit\n"
        ));
        let after = p.play(&p.moves()[0]);
        let v1 = solo_value(&after, 2);
        let v2 = solo_value(&AnyPos::random_root(5, 4, 6), 3);
        assert!(out.contains(&format!("info depth 2 score cp {}", v1.get())));
        assert!(out.contains(&format!("info depth 3 score cp {}", v2.get())));
        assert_eq!(out.matches("bestmove").count(), 2);
    }

    #[test]
    fn stop_interrupts_an_infinite_search() {
        // `go` with no limits on a deep tree would deepen to the cap;
        // `stop` must cut it short and still produce a bestmove. The
        // token is sticky, so this passes whether the cancel lands before
        // the first slice or in the middle of one.
        let out = run_session("position random 1 4 12\ngo\nstop\nquit\n");
        assert_eq!(out.matches("bestmove").count(), 1);
    }

    #[test]
    fn malformed_commands_answer_with_error_lines() {
        let out = run_session("position nowhere\nwat\nposition startpos moves zz9\nquit\n");
        assert_eq!(out.matches("info string error:").count(), 3);
    }

    #[test]
    fn go_clock_fields_parse_and_pick_the_mover_side() {
        let spec =
            parse_go(&mut "wtime 1000 btime 3000 winc 10 binc 20 nonsense 7".split_whitespace());
        assert_eq!(spec.wtime, Some(Duration::from_millis(1000)));
        assert_eq!(spec.btime, Some(Duration::from_millis(3000)));
        assert_eq!(spec.winc, Some(Duration::from_millis(10)));
        assert_eq!(spec.binc, Some(Duration::from_millis(20)));
        assert_eq!(spec.movetime, None);
        let p = AnyPos::othello_startpos();
        // Even plies: the first mover's clock (1000+10); odd: the other.
        let w = spec.clock_budget(&p, 0).expect("clock budget");
        let b = spec.clock_budget(&p, 1).expect("clock budget");
        assert!(b > w, "the richer clock must get the bigger budget");
        // Exact values via the exported formula.
        let tm = crate::TimeManager::default();
        let wc = crate::GameClock::new(crate::TimeControl::from_millis(1000, 10));
        let bc = crate::GameClock::new(crate::TimeControl::from_millis(3000, 20));
        assert_eq!(w, tm.allot_for(&wc, &p));
        assert_eq!(b, tm.allot_for(&bc, &p));
        // movetime overrides the clock entirely.
        let spec = parse_go(&mut "movetime 5 wtime 9000".split_whitespace());
        assert_eq!(spec.clock_budget(&p, 0), None);
        assert_eq!(spec.movetime, Some(Duration::from_millis(5)));
    }

    #[test]
    fn bestmove_is_the_search_choice_not_the_first_legal_move() {
        // Regression: the threaded back-end never stores a root table
        // entry, so a driver that probes the root hint silently reports
        // the first legal move every time. The root split must name a
        // move whose depth-4 reply value equals the depth-5 root value.
        let p = AnyPos::random_root(9, 4, 8);
        let kids = p.children();
        let root = solo_value(&p, 5);
        assert_ne!(
            -solo_value(&kids[0], 4),
            root,
            "pick a seed where the first legal move is suboptimal"
        );
        let out = run_session("position random 9 4 8\ngo depth 5\nquit\n");
        let best = out
            .lines()
            .find_map(|l| l.strip_prefix("bestmove "))
            .expect("bestmove line");
        let idx = (0..p.degree())
            .position(|i| p.move_label(i).as_deref() == Some(best))
            .expect("bestmove names a legal move");
        assert_eq!(
            -solo_value(&kids[idx], 4),
            root,
            "'{best}' must achieve the root value"
        );
    }

    #[test]
    fn go_with_clock_is_bounded_and_reports_a_bestmove() {
        // No explicit stop: a clock-driven go must bound itself (end of
        // input does not cancel it) and still answer with a legal move.
        let out = run_session("position startpos\ngo wtime 40 btime 40 winc 2 binc 2\nquit\n");
        let best = out
            .lines()
            .find_map(|l| l.strip_prefix("bestmove "))
            .expect("bestmove line");
        let p = AnyPos::othello_startpos();
        assert!(p.parse_move(best).is_some(), "'{best}' must be legal");
    }

    #[test]
    fn metrics_command_dumps_a_lint_clean_page_and_go_reports_nps() {
        let out = run_session("position startpos\ngo depth 3\nmetrics\nquit\n");
        // Every completed `go` derives an nps line from the registry
        // counters, right before its bestmove.
        let nps = out
            .lines()
            .find(|l| l.starts_with("info string nps "))
            .expect("nps info line");
        let fields: Vec<&str> = nps.split_whitespace().collect();
        assert_eq!(fields[4], "nodes");
        let nodes: u64 = fields[5].parse().expect("numeric node count");
        assert!(nodes > 0, "a depth-3 search examines nodes");
        let before = out.find("bestmove").expect("bestmove line");
        assert!(out.find("info string nps").unwrap() < before);
        // `metrics` dumps the exposition page (the tail of the session
        // output), and the page passes the format linter.
        let page = &out[out.find("# HELP").expect("exposition page")..];
        metrics::lint::check(page).unwrap_or_else(|e| panic!("lint failed: {e}\n{page}"));
        assert!(page.contains("search_nodes_total"));
        assert!(page.contains(&format!("search_nodes_total {nodes}")));
        assert!(page.contains("search_runs_total"));
    }

    #[test]
    fn movetime_zero_still_reports_a_bestmove() {
        // Degradation at the protocol level: no depth completes, the
        // fallback move is still a legal one.
        let out = run_session("position startpos\ngo movetime 0\nquit\n");
        let best = out
            .lines()
            .find_map(|l| l.strip_prefix("bestmove "))
            .expect("bestmove line");
        let p = AnyPos::othello_startpos();
        assert!(p.parse_move(best).is_some(), "'{best}' must be legal");
    }
}
