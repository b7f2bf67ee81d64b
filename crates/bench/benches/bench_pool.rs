//! Parallel-runtime micro-benchmarks: per-round dispatch overhead of the
//! persistent worker pool vs. a forced-inline round, and the adaptive
//! cutoff's round-size decision (DESIGN.md §13).
//!
//! These quantify the constant factor that made the spawn-per-call pool
//! a slowdown: a round's *dispatch* cost must sit far below the work it
//! fans out. On a single-core machine all rounds drain inline through
//! the coordinator, so the two shapes converge — which is itself the
//! property being benchmarked.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

/// Per-item busywork with a size knob; pure, so chunking can't change
/// the result and criterion measures only dispatch + compute.
fn work(x: u64, iters: u64) -> u64 {
    let mut acc = x;
    for _ in 0..iters {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    }
    acc
}

/// One `map_chunks` round over `items` at `cutoff`, scratch kept warm.
fn round(n_threads: usize, cutoff: u64, items: &[u64], iters: u64, chunks: &mut Vec<Vec<u64>>) {
    let used =
        pool::map_chunks(n_threads, cutoff, items.len(), iters, chunks, Vec::new, |out, r| {
            out.clear();
            out.extend(items[r].iter().map(|&x| work(x, iters)));
        });
    black_box(used);
}

fn bench_pool_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool_round_dispatch");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));

    // Tiny and meaty rounds: the cutoff should make the tiny one run
    // inline (no wake), while the meaty one amortizes its dispatch.
    // The work estimate is ~1 unit per busywork iteration.
    for (label, len, iters) in [("tiny", 64usize, 20u64), ("meaty", 4_096, 400)] {
        let items: Vec<u64> = (0..len as u64).collect();
        for n_threads in [1usize, 4] {
            // Cutoff 0 forces the queued path even for tiny rounds —
            // the regression shape the adaptive cutoff removes.
            for (shape, cutoff) in [("adaptive", pool::SEQ_CUTOFF_WORK), ("always_split", 0)] {
                group.bench_with_input(
                    BenchmarkId::new(format!("{shape}_{label}"), n_threads),
                    &items,
                    |b, items| {
                        let mut chunks = Vec::new();
                        b.iter(|| round(n_threads, cutoff, items, iters, &mut chunks))
                    },
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_pool_dispatch);
criterion_main!(benches);
