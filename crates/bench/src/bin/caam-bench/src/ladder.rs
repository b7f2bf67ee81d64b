//! The layer ladder: every [`Rung`] on the workload's inputs, each run
//! `reps` times, so a layer's marginal cost is the difference between
//! the median walls of the rung that adds it and the rung below.

use crate::gates::Gates;
use crate::stacks::{serve, Layer, Rung, Served};
use crate::stats::median;
use crate::workloads::Inputs;
use platform_sim::Dataset;
use std::path::Path;

pub struct Ladder {
    /// Batches in the ladder's horizon.
    pub batches: usize,
    /// Wall seconds of every repetition, per rung (in `Rung::ALL` order).
    walls: Vec<Vec<f64>>,
    /// The first repetition's outcome, per rung.
    first: Vec<Served>,
}

fn index(rung: Rung) -> usize {
    Rung::ALL.iter().position(|&r| r == rung).expect("every rung is in ALL")
}

impl Ladder {
    /// Median wall of `rung`, in microseconds per batch.
    pub fn us_per_batch(&self, rung: Rung) -> f64 {
        median(&self.walls[index(rung)]) * 1e6 / self.batches as f64
    }

    /// Marginal cost of `layer`, in microseconds per batch.
    pub fn marginal_us(&self, layer: Layer) -> f64 {
        let (upper, lower) = layer.rungs();
        self.us_per_batch(upper) - self.us_per_batch(lower)
    }

    /// The first outcome of `rung`.
    pub fn served(&self, rung: Rung) -> &Served {
        &self.first[index(rung)]
    }
}

/// Run the ladder over `dataset`, interleaving repetitions so drift on
/// a shared machine hits every rung alike, and gate that every rung is
/// repeatable and bit-identical to the stack it extends.
pub fn climb(
    inputs: &Inputs,
    dataset: &Dataset,
    reps: usize,
    state_dir: &Path,
    gates: &mut Gates,
) -> Result<Ladder, String> {
    let mut walls = vec![Vec::new(); Rung::ALL.len()];
    let mut first: Vec<Served> = Vec::new();
    for rep in 0..reps {
        for (i, &rung) in Rung::ALL.iter().enumerate() {
            let out = serve(rung, inputs, dataset, state_dir)?;
            walls[i].push(out.wall_secs);
            if rep == 0 {
                first.push(out);
            } else {
                let name = format!("ladder {} repeatable", rung.label());
                gates.same_outcome(&name, &first[i].fingerprint(), &out.fingerprint());
            }
        }
    }
    for &rung in &Rung::ALL {
        let out = &first[index(rung)];
        gates.serving_invariants(rung.label(), out);
        if let Some(reference) = rung.reference() {
            let name = format!("ladder {} = {}", rung.label(), reference.label());
            gates.same_outcome(&name, &first[index(reference)].fingerprint(), &out.fingerprint());
        }
    }
    let batches = dataset.days.iter().map(Vec::len).sum();
    Ok(Ladder { batches, walls, first })
}
