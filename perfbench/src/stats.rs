//! Percentiles and metric-name helpers.

/// Percentiles [`tail`] may report, highest first.
const LADDER: [f64; 6] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A timing distribution as the benchmark reports it: the median plus
/// the highest percentile that has at least [`MIN_BEYOND`] samples beyond
/// it, with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The highest ladder percentile with enough samples beyond it, or
    /// `None` when there are too few samples for any (then `value` is the
    /// maximum).
    pub q: Option<f64>,
    /// Value at `q` (the maximum when `q` is `None`).
    pub value: f64,
}

impl std::fmt::Display for Tail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.q {
            Some(q) => write!(f, "p50={:.4} p{q}={:.4} n={}", self.p50, self.value, self.n),
            None => write!(f, "p50={:.4} max={:.4} n={}", self.p50, self.value, self.n),
        }
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples (the
/// tolerance keeps `0.999 * 10000` from rounding up past 9990).
fn rank(n: usize, p: f64) -> usize {
    let r = ((p / 100.0) * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Summarize a sample as [`Tail`].
pub fn tail(values: &[f64]) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = LADDER
        .iter()
        .copied()
        .find(|&q| beyond(v.len(), q) >= MIN_BEYOND);
    Tail {
        n: v.len(),
        p50: median(&v),
        q,
        value: match q {
            Some(q) => percentile(&v, q),
            None => *v.last().expect("non-empty"),
        },
    }
}

/// The p99 of a sample, refusing one with fewer than [`MIN_BEYOND`]
/// samples beyond it — the guard behind every `*_p99_*` metric name.
pub fn p99(values: &[f64]) -> Result<f64, String> {
    if values.is_empty() || beyond(values.len(), 99.0) < MIN_BEYOND {
        return Err(format!(
            "p99 needs {MIN_BEYOND} samples beyond it, got {} samples",
            values.len()
        ));
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(percentile(&v, 99.0))
}

/// True when `name` is a valid metric name: `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// A mechanism name as a metric-name component: `*` becomes `-star`.
pub fn mech_metric(name: &str) -> String {
    name.replace('*', "-star")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.n, 1000);
        assert_eq!(t.q, Some(99.0));
        assert_eq!(t.value, 990.0);
        assert_eq!(beyond(1000, 99.0), 10);

        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v).q, Some(99.9));

        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v).q, Some(95.0));
    }

    #[test]
    fn tail_of_a_small_sample_reports_the_maximum() {
        let t = tail(&[5.0, 1.0, 3.0]);
        assert_eq!(t.q, None);
        assert_eq!(t.value, 5.0);
        assert_eq!(t.p50, 3.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(p99(&v).is_err());
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(p99(&v), Ok(990.0));
        assert!(p99(&[]).is_err());
    }

    #[test]
    fn metric_names_are_checked() {
        assert!(valid_name("release_p99_ms.high"));
        assert!(valid_name("algorithms.execute.1d.MWEM-star.self_s"));
        assert!(!valid_name(""));
        assert!(!valid_name("algorithms.execute.1d.MWEM*.self_s"));
        assert!(!valid_name("a b"));
    }

    #[test]
    fn star_maps_to_dash_star() {
        assert_eq!(mech_metric("MWEM*"), "MWEM-star");
        assert_eq!(mech_metric("AHP*"), "AHP-star");
        assert_eq!(mech_metric("DAWA"), "DAWA");
        assert!(valid_name(&mech_metric("AHP*")));
    }
}
