//! Assignment-solver micro-benchmarks — the engine behind Fig. 8's
//! running-time panels.
//!
//! `padded` is the paper-faithful balanced Kuhn–Munkres (`O(|B|³)`, what
//! KM/AN/LACB pay per batch); `rectangular` solves the same instance
//! without dummies (`O(|R|²|B|)`); `cbs_rectangular` first prunes with
//! Alg. 3 (`O(|R||B| + |R|³)`, LACB-Opt's path). The gap between the
//! first and last is the paper's headline speed-up.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use matching::auction::auction_assignment;
use matching::cbs::candidate_union_seeded_with;
use matching::hungarian::{max_weight_assignment, max_weight_assignment_padded};
use matching::UtilityMatrix;
use pool::SEQ_CUTOFF_WORK;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Duration;

fn instance(requests: usize, brokers: usize, seed: u64) -> UtilityMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    UtilityMatrix::from_fn(requests, brokers, |_, _| rng.gen())
}

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("assignment_solvers");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));

    let requests = 30; // the paper's default batch width (σ·|B| = 30)
    for brokers in [100usize, 200, 400, 800] {
        let u = instance(requests, brokers, 7);
        group.bench_with_input(BenchmarkId::new("padded_km", brokers), &u, |b, u| {
            b.iter(|| black_box(max_weight_assignment_padded(u).total))
        });
        group.bench_with_input(BenchmarkId::new("rectangular_km", brokers), &u, |b, u| {
            b.iter(|| black_box(max_weight_assignment(u).total))
        });
        group.bench_with_input(BenchmarkId::new("cbs_rectangular_km", brokers), &u, |b, u| {
            b.iter(|| {
                let cols = candidate_union_seeded_with(u, u.rows(), 13, 1, SEQ_CUTOFF_WORK);
                let reduced = u.select_columns(&cols);
                black_box(max_weight_assignment(&reduced).total)
            })
        });
        group.bench_with_input(BenchmarkId::new("auction", brokers), &u, |b, u| {
            b.iter(|| black_box(auction_assignment(u, 1e-4).total))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_solvers);
criterion_main!(benches);
