//! The telemetry artifacts `repro trace` ships are well-formed JSON —
//! checked here with the trace crate's dependency-free RFC 8259 linter,
//! so CI needs no jq.

use er_parallel::{run_er_threads_with, ErParallelConfig, Hooks};
use gametree::random::RandomTreeSpec;
use gametree::Window;
use trace::Tracer;

#[test]
fn chrome_export_of_a_threaded_run_is_valid_json() {
    let root = RandomTreeSpec::new(3, 4, 7).root();
    let tracer = Tracer::new();
    let r = run_er_threads_with(
        &root,
        7,
        Window::FULL,
        2,
        &ErParallelConfig::random_tree(4),
        Hooks::default().with_tracer(&tracer),
    )
    .expect("unlimited traced run cannot abort");
    assert!(r.stats.nodes() > 0);
    let data = tracer.snapshot();
    assert_eq!(data.workers.len(), 2, "one timeline row per worker");
    let chrome = trace::chrome_json(&data);
    trace::lint::check(&chrome)
        .unwrap_or_else(|e| panic!("chrome trace is not well-formed JSON: {e}"));
    // Spot-check the Chrome Trace Event Format skeleton the viewers need.
    assert!(chrome.starts_with('{'));
    assert!(chrome.contains("\"traceEvents\""));
    assert!(chrome.contains("\"thread_name\""));
}

#[test]
fn speculation_splits_render_as_valid_json() {
    // The deterministic classifier output rides into results/trace.json via
    // the bench crate's writer; the rendered rows must parse.
    let root = RandomTreeSpec::new(3, 3, 5).root();
    let splits = er_parallel::mandatory::speculation_splits(
        &root,
        5,
        &[1, 2, 4],
        &ErParallelConfig::random_tree(0),
    );
    assert_eq!(splits.len(), 3);
    let json = er_bench::json::to_pretty(&splits);
    trace::lint::check(&json)
        .unwrap_or_else(|e| panic!("speculation rows are not well-formed JSON: {e}"));
    for s in &splits {
        assert_eq!(s.mandatory_done + s.speculative, s.examined);
    }
}
