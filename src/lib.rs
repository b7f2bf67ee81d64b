//! # caam — Capacity-Aware Assignment Matching
//!
//! Top-level façade for the reproduction of *"Towards Capacity-Aware
//! Broker Matching: From Recommendation to Assignment"* (ICDE 2023).
//!
//! The workspace is organised bottom-up; this crate re-exports every
//! subsystem under one roof so examples and downstream users need a single
//! dependency:
//!
//! * [`linalg`] — matrices, Sherman–Morrison inverse tracking, statistics
//!   (Welch's t-test), Gaussian KDE.
//! * [`neural`] — from-scratch MLP with backprop, norm-clipped gradient
//!   steps, and the layer freezing used for personalized fine-tuning.
//! * [`bandit`] — LinUCB, NeuralUCB, and the paper's NN-enhanced UCB
//!   (Alg. 1) plus the personalized estimator.
//! * [`matching`] — Kuhn–Munkres / Hungarian assignment, min-cost flow,
//!   greedy matching, and the CBS candidate-selection of Alg. 3.
//! * [`platform_sim`] — the online real-estate platform simulator
//!   (brokers, requests, utilities, overload dynamics, dataset
//!   generators for Tables III & IV).
//! * [`lacb`] — the paper's contribution: VFGA (Alg. 2), LACB, LACB-Opt,
//!   and every baseline behind a common [`lacb::Assigner`] trait.
//! * [`pool`] — the persistent worker pool behind the parallel hot paths:
//!   one chunked map that alone decides inline vs. parallel, with results
//!   bit-identical for every thread count.
//!
//! See `examples/quickstart.rs` for a five-minute tour.
//!
//! ```
//! use caam::lacb::{run, Lacb, RunConfig, TopK};
//! use caam::platform_sim::{Dataset, SyntheticConfig};
//!
//! // A small synthetic platform instance.
//! let cfg = SyntheticConfig {
//!     num_brokers: 20,
//!     num_requests: 200,
//!     days: 2,
//!     imbalance: 0.25,
//!     seed: 1,
//! };
//! let dataset = Dataset::synthetic(&cfg);
//!
//! // Run the paper's LACB-Opt and the Top-1 status quo.
//! let ours = run(&dataset, &mut Lacb::new_opt(), &RunConfig::default());
//! let topk = run(&dataset, &mut TopK::new(1, 7), &RunConfig::default());
//! assert!(ours.total_utility > 0.0 && topk.total_utility > 0.0);
//! ```

pub use bandit;
pub use lacb;
pub use linalg;
pub use matching;
pub use neural;
pub use platform_sim;
pub use pool;

/// Crate version, for embedding in experiment reports.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_nonempty() {
        assert!(!super::VERSION.is_empty());
    }
}
