//! Criterion benchmark of the threaded back-end's batched locking: R1 at
//! batch sizes 1 and 8, on 1 and 4 threads. Alongside the timing, the
//! contention counters are asserted so a regression in the decomposed-lock
//! design fails the bench rather than silently shifting the numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use er_bench::trees::random_trees;
use er_parallel::{
    run_er_threads_exec, ErParallelConfig, ErThreadsResult, Speculation, ThreadsConfig,
};
use problem_heap::CostModel;
use search_serial::SelectivityConfig;
use std::hint::black_box;

fn r1_config() -> ErParallelConfig {
    let r1 = &random_trees()[0];
    ErParallelConfig {
        serial_depth: r1.serial_depth,
        order: r1.order,
        spec: Speculation::ALL,
        cost: CostModel::default(),
        sel: SelectivityConfig::OFF,
    }
}

/// Runs R1 once and checks the counter invariants of the batched design.
fn checked_run(threads: usize, batch: usize) -> ErThreadsResult {
    let r1 = &random_trees()[0];
    let r = run_er_threads_exec(
        &r1.root,
        r1.depth,
        threads,
        &r1_config(),
        ThreadsConfig::fixed_batch(batch),
    )
    .expect("unlimited run cannot abort");
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
    // No deep position clone ever happens inside the critical section.
    assert_eq!(
        c.pos_clones_in_lock, 0,
        "position cloned under the heap lock"
    );
    r
}

fn bench_batch_sizes(c: &mut Criterion) {
    // Batch amortization is visible in acquisition counts even before
    // timing: check once per (threads, batch) point, outside the timed loop.
    for &threads in &[1usize, 4] {
        let b1 = checked_run(threads, 1).counters();
        let b8 = checked_run(threads, 8).counters();
        assert!(
            b8.lock_acquisitions < b1.lock_acquisitions,
            "{threads} threads: batch=8 must need fewer acquisitions than \
             batch=1 ({} vs {})",
            b8.lock_acquisitions,
            b1.lock_acquisitions
        );
    }
    let mut g = c.benchmark_group("er_threads_r1_batch");
    g.sample_size(10);
    for &threads in &[1usize, 4] {
        for &batch in &[1usize, 8] {
            let id = BenchmarkId::new(&format!("t{threads}"), format!("b{batch}"));
            g.bench_with_input(id, &(threads, batch), |bench, &(t, b)| {
                bench.iter(|| black_box(checked_run(black_box(t), black_box(b))))
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_batch_sizes);
criterion_main!(benches);
