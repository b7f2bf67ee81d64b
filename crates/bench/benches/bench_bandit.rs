//! Capacity-estimation micro-benchmarks: per-decision and per-update
//! costs of the bandit policies, the full-vs-diagonal covariance
//! ablation called out in DESIGN.md §6, and one end-of-day training
//! flush through the per-sample reference and the batch-major step
//! (DESIGN.md §9).

use bandit::{CandidateCapacities, CapacityEstimator, LinUcb, NnUcb, NnUcbConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use linalg::UcbCovariance;
use neural::{Mlp, MlpBuilder, TrainScratch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Duration;

fn arms() -> CandidateCapacities {
    CandidateCapacities::range(10.0, 60.0, 10.0)
}

fn bench_estimate(c: &mut Criterion) {
    let mut group = c.benchmark_group("bandit_estimate");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));

    let ctx = [0.3, 0.6, 0.2, 0.8, 0.5, 0.1, 0.4, 0.9, 0.0, 0.7];

    for cov in [UcbCovariance::Diagonal, UcbCovariance::Full] {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = NnUcbConfig { covariance: cov, ..NnUcbConfig::default() };
        let mut bandit = NnUcb::new(&mut rng, ctx.len(), arms(), cfg);
        for i in 0..64 {
            bandit.update(&ctx, 10.0 + (i % 6) as f64 * 10.0, 0.2);
        }
        group.bench_with_input(
            BenchmarkId::new("nn_ucb", format!("{cov:?}")),
            &bandit,
            |b, bandit| b.iter(|| black_box(bandit.estimate(&ctx))),
        );
    }

    let mut lin = LinUcb::new(ctx.len(), arms(), 0.01, 0.01);
    for i in 0..64 {
        lin.update(&ctx, 10.0 + (i % 6) as f64 * 10.0, 0.2);
    }
    group.bench_function("lin_ucb", |b| b.iter(|| black_box(lin.estimate(&ctx))));
    group.finish();
}

fn bench_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("bandit_update");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    let ctx = [0.3, 0.6, 0.2, 0.8, 0.5, 0.1, 0.4, 0.9, 0.0, 0.7];

    for cov in [UcbCovariance::Diagonal, UcbCovariance::Full] {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = NnUcbConfig { covariance: cov, ..NnUcbConfig::default() };
        let bandit = NnUcb::new(&mut rng, ctx.len(), arms(), cfg);
        group.bench_with_input(
            BenchmarkId::new("nn_ucb_update", format!("{cov:?}")),
            &bandit,
            |b, bandit| {
                b.iter_batched(
                    || bandit.clone(),
                    |mut bandit| {
                        // 16 updates = one full buffer flush incl. training.
                        for i in 0..16 {
                            bandit.update(&ctx, 10.0 + (i % 6) as f64 * 10.0, 0.2);
                        }
                        black_box(bandit.trials())
                    },
                    criterion::BatchSize::SmallInput,
                )
            },
        );
    }
    group.finish();
}

/// One full flush of LACB's base bandit: 8 epochs over a 512-trial
/// replay ring of 9-wide encoded rows, on its 9→16→8→1 ReLU network.
fn bench_train(c: &mut Criterion) {
    let mut group = c.benchmark_group("bandit_train");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    let (n, epochs, lambda, clip) = (512, 8, 0.001, 50.0);
    let mut rng = StdRng::seed_from_u64(3);
    let net = MlpBuilder::new(9).hidden(&[16, 8]).build(&mut rng);
    let inputs: Vec<Vec<f64>> =
        (0..n).map(|_| (0..9).map(|_| rng.gen_range(0.0..1.0)).collect()).collect();
    let targets: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..0.3)).collect();
    let rows = inputs.concat();
    let lr = 0.05 / n as f64;

    group.bench_function("reference_flush_512", |b| {
        b.iter_batched(
            || net.clone(),
            |mut net: Mlp| {
                for _ in 0..epochs {
                    let (_, mut grad) = net.loss_gradient(&inputs, &targets, lambda);
                    let norm = linalg::vector::norm2(&grad);
                    if norm > clip {
                        linalg::vector::scale(clip / norm, &mut grad);
                    }
                    net.apply_trainable_delta(-lr, &grad);
                }
                black_box(net)
            },
            criterion::BatchSize::SmallInput,
        )
    });
    let mut scratch = TrainScratch::default();
    group.bench_function("batch_flush_512", |b| {
        b.iter_batched(
            || net.clone(),
            |mut net: Mlp| {
                for _ in 0..epochs {
                    net.train_step_rows(&rows, &targets, lr, lambda, clip, &mut scratch);
                }
                black_box(net)
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_estimate, bench_update, bench_train);
criterion_main!(benches);
