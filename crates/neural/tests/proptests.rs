//! Property tests of the MLP: the analytic gradients must match finite
//! differences on random architectures, inputs and parameters.

use neural::{Activation, Mlp, MlpBuilder, TrainScratch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn build(seed: u64, input: usize, hidden: &[usize], act: Activation) -> Mlp {
    let mut rng = StdRng::seed_from_u64(seed);
    MlpBuilder::new(input).hidden(hidden).activation(act).build(&mut rng)
}

/// The per-sample training step: [`Mlp::loss_gradient`], the norm clip,
/// then [`Mlp::apply_trainable_delta`].
fn reference_step(
    m: &mut Mlp,
    inputs: &[Vec<f64>],
    targets: &[f64],
    lr: f64,
    lambda: f64,
    clip: f64,
) -> f64 {
    let (loss, mut grad) = m.loss_gradient(inputs, targets, lambda);
    if clip.is_finite() {
        let norm = linalg::vector::norm2(&grad);
        if norm > clip && norm > 0.0 {
            linalg::vector::scale(clip / norm, &mut grad);
        }
    }
    m.apply_trainable_delta(-lr, &grad);
    loss
}

/// Every parameter, frozen or not, as bits.
fn all_param_bits(m: &Mlp) -> Vec<u64> {
    let mut all = m.clone();
    all.unfreeze_all();
    all.trainable_params().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    // Cheap (a few small steps per case), and the one check of the
    // summation-order contract on shapes the bandits do not use.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The batch-major step reproduces the per-sample reference bit for
    /// bit: parameters and returned loss, over several steps.
    #[test]
    fn batch_step_is_bit_identical_to_the_per_sample_reference(
        seed in 0u64..10_000,
        input in 1usize..12,
        hidden in proptest::collection::vec(1usize..20, 1..=3),
        n in 1usize..=70,
        act in 0usize..3,
        bias in 0u8..2,
        freeze in 0u8..2,
        lambda in 0usize..2,
        clip in 0usize..3,
        dead_rows in 0u8..2,
    ) {
        let act = [Activation::Relu, Activation::Tanh, Activation::Sigmoid][act];
        let (bias, freeze, dead_rows) = (bias == 1, freeze == 1, dead_rows == 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let lambda = [0.0, rng.gen_range(1e-4..0.1)][lambda];
        // No clip, one that binds on the first step, one that never does.
        let clip = [f64::INFINITY, rng.gen_range(1e-3..0.05), 1e12][clip];
        let mut m = MlpBuilder::new(input).hidden(&hidden).activation(act).bias(bias).build(&mut rng);
        let mut inputs: Vec<Vec<f64>> =
            (0..n).map(|_| (0..input).map(|_| rng.gen_range(-2.0..2.0)).collect()).collect();
        if dead_rows {
            // Non-negative first-layer weights and a negative input row
            // give a pre-activation ≤ the bias (0 at init) on every unit,
            // so each ReLU unit is dead on that row and its δ is 0.
            let mut p = m.trainable_params();
            let first = input * hidden[0];
            p[..first].iter_mut().for_each(|w| *w = w.abs());
            m.set_trainable_params(&p);
            for x in inputs.iter_mut().step_by(3) {
                x.iter_mut().for_each(|v| *v = -v.abs() - 1.0);
            }
        }
        if freeze {
            m.freeze_all_but_last();
        }
        let targets: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let rows = inputs.concat();
        let lr = 0.05 / n as f64;
        let mut batch = m.clone();
        let mut scratch = TrainScratch::default();
        for step in 0..4 {
            let want = reference_step(&mut m, &inputs, &targets, lr, lambda, clip);
            let got = batch.train_step_rows(&rows, &targets, lr, lambda, clip, &mut scratch);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "loss at step {}", step);
            prop_assert_eq!(all_param_bits(&batch), all_param_bits(&m), "params at step {}", step);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gradient_matches_finite_difference(
        seed in 0u64..1000,
        x in proptest::collection::vec(-2.0f64..2.0, 3),
        h1 in 2usize..6,
        h2 in 2usize..5,
    ) {
        // Tanh avoids ReLU's kink right at a finite-difference point.
        let m = build(seed, 3, &[h1, h2], Activation::Tanh);
        let grad = m.param_gradient(&x);
        let params = m.trainable_params();
        let eps = 1e-6;
        for k in (0..params.len()).step_by(7) {
            let mut mp = m.clone();
            let mut p = params.clone();
            p[k] += eps;
            mp.set_trainable_params(&p);
            let fp = mp.forward(&x);
            p[k] -= 2.0 * eps;
            mp.set_trainable_params(&p);
            let fm = mp.forward(&x);
            let num = (fp - fm) / (2.0 * eps);
            prop_assert!((num - grad[k]).abs() < 1e-4,
                "param {k}: numeric {num} vs analytic {}", grad[k]);
        }
    }

    #[test]
    fn param_roundtrip_preserves_function(
        seed in 0u64..1000,
        x in proptest::collection::vec(-2.0f64..2.0, 4),
    ) {
        let m = build(seed, 4, &[5], Activation::Relu);
        let out = m.forward(&x);
        let mut m2 = build(seed + 1, 4, &[5], Activation::Relu);
        m2.set_trainable_params(&m.trainable_params());
        prop_assert_eq!(out, m2.forward(&x));
    }

    #[test]
    fn freezing_never_changes_predictions(
        seed in 0u64..1000,
        x in proptest::collection::vec(-2.0f64..2.0, 3),
    ) {
        let mut m = build(seed, 3, &[4, 4], Activation::Relu);
        let before = m.forward(&x);
        m.freeze_all_but_last();
        prop_assert_eq!(before, m.forward(&x));
        m.unfreeze_all();
        prop_assert_eq!(before, m.forward(&x));
    }

    #[test]
    fn train_step_moves_prediction_toward_target(
        seed in 0u64..1000,
        x in proptest::collection::vec(-1.0f64..1.0, 3),
        target in -1.0f64..1.0,
    ) {
        let mut m = build(seed, 3, &[6], Activation::Tanh);
        let before = (m.forward(&x) - target).abs();
        for _ in 0..20 {
            m.train_step(std::slice::from_ref(&x), &[target], 0.05, 0.0);
        }
        let after = (m.forward(&x) - target).abs();
        prop_assert!(after <= before + 1e-9, "{before} -> {after}");
    }

    #[test]
    fn gradient_clipping_bounds_update_norm(
        seed in 0u64..1000,
        x in proptest::collection::vec(-1.0f64..1.0, 3),
    ) {
        let mut m = build(seed, 3, &[6], Activation::Relu);
        let before = m.trainable_params();
        // A huge target makes the raw gradient enormous; the clip caps it.
        m.train_step_clipped(std::slice::from_ref(&x), &[1e9], 1.0, 0.0, 1.0);
        let after = m.trainable_params();
        let delta: f64 = before
            .iter()
            .zip(&after)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        prop_assert!(delta <= 1.0 + 1e-9, "update norm {delta} exceeds clip");
    }
}
