//! Summary statistics: mean, variance, percentiles, and an online
//! (Welford) accumulator.
//!
//! The benchmark reports both **mean error** (risk-neutral analyst) and the
//! **95th-percentile error** (risk-averse analyst) over repeated trials
//! (Principle 8: measurement of variability).

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance (denominator `n − 1`); 0 when `n < 2`.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Percentile `p ∈ [0, 100]` with linear interpolation between order
/// statistics (the "linear" / type-7 method). Panics on an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Full summary of a sample of error measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Unbiased sample variance.
    pub variance: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 95th percentile — the paper's risk-averse error measure.
    pub p95: f64,
}

impl Summary {
    /// Summarize a non-empty sample.
    pub fn of(xs: &[f64]) -> Self {
        assert!(!xs.is_empty(), "cannot summarize empty sample");
        Self {
            n: xs.len(),
            mean: mean(xs),
            variance: variance(xs),
            std_dev: std_dev(xs),
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            median: percentile(xs, 50.0),
            p95: percentile(xs, 95.0),
        }
    }
}

/// Welford's online mean/variance accumulator — single pass, numerically
/// stable, mergeable across threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Current mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 when `n < 2`).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// The raw sum of squared deviations `M2` (for exact serialization —
    /// `variance()` loses the `n − 1` division's round-trip).
    pub fn m2(&self) -> f64 {
        self.m2
    }

    /// Rebuild an accumulator from its serialized parts.
    pub fn from_parts(n: u64, mean: f64, m2: f64) -> Self {
        Self { n, mean, m2 }
    }

    /// Merge another accumulator (Chan's parallel formula).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n_total = self.n + other.n;
        let delta = other.mean - self.mean;
        self.mean += delta * other.n as f64 / n_total as f64;
        self.m2 += other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n_total as f64;
        self.n = n_total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_known() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        // Sample variance with n−1 denominator: 32/7.
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
        // 95th of [1..4]: rank = 0.95·3 = 2.85 → 3 + 0.85·1 = 3.85
        assert!((percentile(&xs, 95.0) - 3.85).abs() < 1e-12);
    }

    #[test]
    fn summary_fields() {
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!(s.n, 3);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.median, 2.0);
        assert!((s.mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn welford_matches_batch() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 31) % 17) as f64).collect();
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert!((w.mean() - mean(&xs)).abs() < 1e-9);
        assert!((w.variance() - variance(&xs)).abs() < 1e-9);
    }

    #[test]
    fn welford_merge_matches_sequential() {
        let xs: Vec<f64> = (0..500).map(|i| (i as f64).sin()).collect();
        let (a, b) = xs.split_at(123);
        let mut wa = Welford::new();
        let mut wb = Welford::new();
        a.iter().for_each(|&x| wa.push(x));
        b.iter().for_each(|&x| wb.push(x));
        wa.merge(&wb);
        assert_eq!(wa.count(), 500);
        assert!((wa.mean() - mean(&xs)).abs() < 1e-9);
        assert!((wa.variance() - variance(&xs)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        percentile(&[], 50.0);
    }
}
