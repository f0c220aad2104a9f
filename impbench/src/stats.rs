//! Order statistics over timing samples.

/// The percentiles a timing may be reported at, lowest first, in per mille
/// (whole numbers, so "ten samples beyond" is exact arithmetic).
const LADDER: [(usize, &str); 5] = [
    (500, "p50"),
    (900, "p90"),
    (950, "p95"),
    (990, "p99"),
    (999, "p999"),
];

/// The highest percentile of [`LADDER`] that still has at least ten
/// samples beyond it; a tail read from fewer is one or two outliers.
/// `None` below twenty samples, where not even the median qualifies.
pub fn highest_supported(n: usize) -> Option<(f64, &'static str)> {
    LADDER
        .iter()
        .rev()
        .find(|(per_mille, _)| n * (1_000 - per_mille) >= 10_000)
        .map(|(per_mille, label)| (*per_mille as f64 / 1e3, *label))
}

/// Nearest-rank percentile of an ascending slice; `0.0` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A bag of samples of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn max(&self) -> f64 {
        self.0.iter().copied().fold(0.0, f64::max)
    }

    pub fn values(&self) -> &[f64] {
        &self.0
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    pub fn p(&self, p: f64) -> f64 {
        percentile(&self.sorted(), p)
    }

    /// Median that averages the two middle samples of an even count, so
    /// a median of two set-ups is their mean rather than the smaller.
    pub fn median(&self) -> f64 {
        let s = self.sorted();
        match s.len() {
            0 => 0.0,
            n if n % 2 == 1 => s[n / 2],
            n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
        }
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Samples {
        Samples(iter.into_iter().collect())
    }
}

impl Extend<f64> for Samples {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        self.0.extend(iter);
    }
}

/// First and third quartile the way Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them; the
/// acceptance rule for the benchmark's steadiness is written in those
/// terms, so `--compare` uses the same arithmetic.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let at = |i: usize| {
        // position i*(n+1)/4 in 1-based ranks, interpolated and clamped
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20).map(|x| x.1), Some("p50"));
        assert_eq!(highest_supported(99).map(|x| x.1), Some("p50"));
        assert_eq!(highest_supported(100).map(|x| x.1), Some("p90"));
        assert_eq!(highest_supported(199).map(|x| x.1), Some("p90"));
        assert_eq!(highest_supported(200).map(|x| x.1), Some("p95"));
        assert_eq!(highest_supported(1_000).map(|x| x.1), Some("p99"));
        assert_eq!(highest_supported(10_000).map(|x| x.1), Some("p999"));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.95), 95.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s[..1], 0.99), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_of_even_count_is_the_mean_of_the_middle() {
        let s: Samples = [4.0, 1.0, 3.0, 2.0].into_iter().collect();
        assert_eq!(s.median(), 2.5);
        let s: Samples = [9.0, 1.0, 5.0].into_iter().collect();
        assert_eq!(s.median(), 5.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        let (q1, q3) = quartiles(&[1.0, 2.0, 4.0, 8.0]);
        assert!((q1 - 1.25).abs() < 1e-12 && (q3 - 7.0).abs() < 1e-12);
    }
}
