//! Criterion benchmark of the threaded back-end's batched locking: R1 on 1
//! and 4 threads. Alongside the timing, the contention counters are
//! asserted so a regression in the decomposed-lock design fails the bench
//! rather than silently shifting the numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use er_bench::trees::random_trees;
use er_parallel::{run_er_threads, ErParallelConfig, ErThreadsResult};
use std::hint::black_box;

fn r1_config() -> ErParallelConfig {
    let r1 = &random_trees()[0];
    ErParallelConfig::new(r1.serial_depth, r1.order)
}

/// Runs R1 once and checks the counter invariants of the batched design.
fn checked_run(threads: usize) -> ErThreadsResult {
    let r1 = &random_trees()[0];
    let r = run_er_threads(&r1.root, r1.depth, threads, &r1_config());
    let c = r.counters();
    assert_eq!(
        c.jobs_executed, c.outcomes_applied,
        "every executed job must be applied exactly once"
    );
    // Fused select+apply must undercut the seed's two acquisitions per job.
    // Besides productive rounds (at most one per job) and parks, the
    // work-stealing layer adds at most one failed steal-pass round per
    // productive round or park (the pass is granted once per each), hence
    // the factor two.
    assert!(
        c.lock_acquisitions <= 2 * (c.jobs_executed + c.idle_parks + threads as u64 + 1),
        "acquisitions ({}) exceed the steal-pass round bound (jobs {}, parks {})",
        c.lock_acquisitions,
        c.jobs_executed,
        c.idle_parks
    );
    r
}

fn bench_thread_counts(c: &mut Criterion) {
    let mut g = c.benchmark_group("er_threads_r1");
    g.sample_size(10);
    for &threads in &[1usize, 4] {
        let id = BenchmarkId::from_parameter(format!("t{threads}"));
        g.bench_with_input(id, &threads, |bench, &t| {
            bench.iter(|| black_box(checked_run(black_box(t))))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_thread_counts);
criterion_main!(benches);
