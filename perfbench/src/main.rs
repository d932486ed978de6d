//! Benchmark of the ER search workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <othello|random> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` the last line of
//! standard output is one JSON object holding the end-to-end metrics;
//! with `--trace 1` it holds the per-layer metrics, measured from spans
//! the benchmark records around its own calls into each crate. A
//! human-readable report and every failure, with its reason, go to
//! standard error.
//!
//! `correct` is false when a check that no request owns fails: a serial
//! algorithm or the simulator disagreeing with alpha-beta, or an exact
//! count that does not repeat. A request whose value differs from the
//! oracle, or that aborted, is counted in `failed` under its reason and
//! is never retried or dropped.

mod adapter;
mod failures;
mod fixed;
mod gen;
mod layers;
mod report;
mod serve;
mod spans;
mod stats;

use failures::Tally;
use report::Metrics;

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            f => return Err(format!("unknown flag {f}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What a workload run produced.
pub struct Outcome {
    pub correct: bool,
    /// Why `correct` is false.
    pub notes: Vec<String>,
    pub tally: Tally,
    pub metrics: Metrics,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <othello|random> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    // A worker panic inside the program is a counted failure, reported by
    // the search as an abort; print it on one line instead of a backtrace.
    std::panic::set_hook(Box::new(|info| {
        let thread = std::thread::current();
        eprintln!("panic in {}: {info}", thread.name().unwrap_or("worker"));
    }));
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} (2 worker threads at most, {} CPUs)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let outcome = match args.workload.as_str() {
        "othello" => fixed::othello().run(&args),
        "random" => fixed::random().run(&args),
        w => {
            eprintln!("perfbench: unknown workload {w}");
            std::process::exit(2);
        }
    };
    for n in &outcome.notes {
        eprintln!("incorrect: {n}");
    }
    println!(
        "failures: attempted {} failed {} by reason {:?}",
        outcome.tally.attempted,
        outcome.tally.failed(),
        outcome.tally.by_reason
    );
    let list = if args.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    println!(
        "{}",
        report::result_json(outcome.correct, &outcome.tally, &outcome.metrics, list)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_documented_command_line() {
        let a = parse_args(&argv("--workload othello --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload, "othello");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
        assert!(parse_args(&argv("--workload othello --seed 7")).is_err());
        assert!(parse_args(&argv("--workload othello --seed x --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload othello --seed 1 --seconds 1 --trace 2")).is_err());
    }
}
