//! Candidate capacity arms and context/arm encoding.

/// The arm set `C` of candidate daily workload capacities.
///
/// Theorem 1's regret bound scales with `|C|`, and the paper's first
/// practical note recommends restricting the candidate range to
/// empirically plausible workloads ("do not explore the workload capacity
/// with a prominent low sign-up rate"); [`CandidateCapacities::range`]
/// builds exactly such a bounded, evenly spaced set.
#[derive(Clone, Debug, PartialEq)]
pub struct CandidateCapacities {
    values: Vec<f64>,
    max_value: f64,
}

impl CandidateCapacities {
    /// Explicit arm values.
    ///
    /// # Panics
    /// Panics if `values` is empty or contains a non-positive capacity.
    pub fn new(values: Vec<f64>) -> Self {
        assert!(!values.is_empty(), "need at least one candidate capacity");
        assert!(
            values.iter().all(|&v| v > 0.0 && v.is_finite()),
            "capacities must be positive and finite"
        );
        let max_value = values.iter().cloned().fold(0.0, f64::max);
        Self { values, max_value }
    }

    /// Evenly spaced candidates `lo, lo+step, …, hi` (inclusive).
    ///
    /// # Panics
    /// Panics on an empty or descending range or non-positive step.
    pub fn range(lo: f64, hi: f64, step: f64) -> Self {
        assert!(lo > 0.0 && hi >= lo && step > 0.0, "invalid capacity range");
        let mut values = Vec::new();
        let mut v = lo;
        while v <= hi + 1e-9 {
            values.push(v);
            v += step;
        }
        Self::new(values)
    }

    /// The arm values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of arms `|C|`.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when there are no arms (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arm value at `idx`.
    pub fn value(&self, idx: usize) -> f64 {
        self.values[idx]
    }

    /// Index of the arm closest to a raw workload value — used to map an
    /// observed workload `w` back onto the arm grid when training on
    /// `(x, w, s)` trial triples.
    pub fn nearest(&self, workload: f64) -> usize {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (i, &v) in self.values.iter().enumerate() {
            let d = (v - workload).abs();
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }

    /// Encode `[x; c]` as the network/bandit input, with the capacity
    /// scaled into `[0, 1]` so it lives on the same scale as the
    /// (normalised) status features.
    pub fn encode(&self, context: &[f64], capacity: f64) -> Vec<f64> {
        let mut out = Vec::with_capacity(context.len() + 1);
        self.encode_into(context, capacity, &mut out);
        out
    }

    /// In-place [`Self::encode`]: clears and refills `out`, reusing its
    /// capacity — the per-arm scoring loop calls this once per arm.
    pub fn encode_into(&self, context: &[f64], capacity: f64, out: &mut Vec<f64>) {
        out.clear();
        self.encode_append(context, capacity, out);
    }

    /// [`Self::encode`] appended to `out` — one more row of a block of
    /// encoded samples.
    pub fn encode_append(&self, context: &[f64], capacity: f64, out: &mut Vec<f64>) {
        out.extend_from_slice(context);
        out.push(capacity / self.max_value);
    }

    /// Dimensionality of the encoded `[x; c]` vector for a context of the
    /// given length.
    pub fn encoded_dim(&self, context_dim: usize) -> usize {
        context_dim + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_is_inclusive() {
        let c = CandidateCapacities::range(10.0, 50.0, 10.0);
        assert_eq!(c.values(), &[10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn nearest_picks_closest_arm() {
        let c = CandidateCapacities::range(10.0, 50.0, 10.0);
        assert_eq!(c.nearest(12.0), 0);
        assert_eq!(c.nearest(26.0), 2);
        assert_eq!(c.nearest(1000.0), 4);
        assert_eq!(c.nearest(0.0), 0);
    }

    #[test]
    fn encode_appends_scaled_capacity() {
        let c = CandidateCapacities::new(vec![20.0, 40.0]);
        let e = c.encode(&[0.5, 0.7], 20.0);
        assert_eq!(e, vec![0.5, 0.7, 0.5]);
        assert_eq!(c.encoded_dim(2), 3);
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_panics() {
        CandidateCapacities::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn nonpositive_panics() {
        CandidateCapacities::new(vec![10.0, -1.0]);
    }

    #[test]
    #[should_panic(expected = "invalid capacity range")]
    fn descending_range_panics() {
        CandidateCapacities::range(50.0, 10.0, 5.0);
    }
}
