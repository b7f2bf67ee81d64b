//! Order statistics: nearest-rank percentiles for latency samples, and
//! the median and quartiles the repeat check reports.

/// Samples sorted once, queried by nearest rank.
pub struct Sorted(Vec<f64>);

impl Sorted {
    pub fn new(mut values: Vec<f64>) -> Sorted {
        values.sort_by(f64::total_cmp);
        Sorted(values)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile; `None` on an empty sample.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.0.is_empty() {
            return None;
        }
        Some(self.0[rank(self.0.len(), p) - 1])
    }
}

/// 1-based nearest rank of percentile `p` (in `(0, 100]`) among `n > 0`
/// samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Whether `n` samples put at least ten beyond percentile `p`, the
/// condition for reporting it (for p99: at least 1000 samples).
pub fn has_tail(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= 10
}

/// The median, averaging the two middle values of an even-sized sample
/// (Python's `statistics.median`).
pub fn median(values: &[f64]) -> f64 {
    let s = Sorted::new(values.to_vec()).0;
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The three quartile cut points of Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method).
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = Sorted::new(values.to_vec()).0;
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let mid = median(values);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_the_nearest_rank() {
        let s = Sorted::new((1..=10).rev().map(f64::from).collect());
        assert_eq!(s.percentile(50.0), Some(5.0));
        assert_eq!(s.percentile(51.0), Some(6.0));
        assert_eq!(s.percentile(90.0), Some(9.0));
        assert_eq!(s.percentile(100.0), Some(10.0));
        assert_eq!(s.percentile(0.1), Some(1.0));
        assert_eq!(Sorted::new(Vec::new()).percentile(50.0), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert!(!has_tail(0, 99.0));
        assert!(!has_tail(999, 99.0));
        assert!(has_tail(1000, 99.0));
        assert!(has_tail(5000, 99.0));
        let thousand = Sorted::new((0..1000).map(f64::from).collect());
        assert_eq!(thousand.percentile(99.0), Some(989.0));
        // The median is never withheld, however few the samples.
        assert!(!has_tail(3, 50.0));
        assert_eq!(Sorted::new(vec![2.0, 0.0, 1.0]).percentile(50.0), Some(1.0));
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&ten).unwrap() - 5.5 / 5.5).abs() < 1e-12);
    }
}
