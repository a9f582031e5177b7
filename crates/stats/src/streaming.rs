//! Constant-space streaming summaries for sink-based result pipelines.
//!
//! The batch [`Summary`](crate::describe::Summary) needs every observation
//! in memory to compute percentiles; a grid streamed through an
//! aggregating sink cannot afford that. [`StreamingSummary`] keeps O(δ)
//! state per (algorithm, setting) group: a Welford accumulator for
//! mean/variance, exact min/max, an exact count, and a mergeable
//! [`TDigest`] sketch for the median and the paper's risk-averse 95th
//! percentile. Because every component merges (Chan's formula for the
//! moments, centroid re-clustering for the digest),
//! [`StreamingSummary::merge`] combines summaries of disjoint streams
//! into the summary of their union without revisiting raw samples — how
//! the selection profile pools evidence across runs. (A fleet's `--agg`
//! summary is instead rebuilt from its merged ledger, in stream order,
//! so it is bit-identical to a one-shot run's.)

use crate::describe::{Summary, Welford};
use crate::tdigest::TDigest;

/// Amortized-O(1)-per-observation summary: Welford mean/variance, exact
/// min/max, and a mergeable [`TDigest`] for the median and 95th
/// percentile. The streaming — and shardable — counterpart of the batch
/// [`Summary`].
#[derive(Debug, Clone)]
pub struct StreamingSummary {
    welford: Welford,
    min: f64,
    max: f64,
    digest: TDigest,
}

impl Default for StreamingSummary {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingSummary {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self {
            welford: Welford::new(),
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            digest: TDigest::new(),
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.welford.push(x);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.digest.push(x);
    }

    /// Absorb another summary: the result describes the union of both
    /// streams. Moments merge exactly (Chan's parallel Welford formula),
    /// min/max/count exactly, quantiles within the digest's documented
    /// tolerance (see [`crate::tdigest`]).
    pub fn merge(&mut self, other: &StreamingSummary) {
        self.welford.merge(&other.welford);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.digest.merge(&other.digest);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.welford.count()
    }

    /// Running mean (exact).
    pub fn mean(&self) -> f64 {
        self.welford.mean()
    }

    /// Running unbiased sample variance (exact).
    pub fn variance(&self) -> f64 {
        self.welford.variance()
    }

    /// Exact minimum observation (+∞ when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Exact maximum observation (−∞ when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The moment accumulator (for serialization).
    pub fn welford(&self) -> &Welford {
        &self.welford
    }

    /// The quantile sketch (for serialization; mutable so callers can
    /// [`TDigest::compress`] before reading centroids).
    pub fn digest_mut(&mut self) -> &mut TDigest {
        &mut self.digest
    }

    /// Rebuild a summary from serialized parts.
    pub fn from_parts(welford: Welford, min: f64, max: f64, digest: TDigest) -> Self {
        Self {
            welford,
            min,
            max,
            digest,
        }
    }

    /// Freeze into the batch [`Summary`] shape (median/p95 are digest
    /// estimates within the documented tolerance; everything else exact).
    /// Panics when empty.
    pub fn to_summary(&self) -> Summary {
        assert!(self.count() > 0, "cannot summarize an empty stream");
        Summary {
            n: self.count() as usize,
            mean: self.welford.mean(),
            variance: self.welford.variance(),
            std_dev: self.welford.variance().sqrt(),
            min: self.min,
            max: self.max,
            median: self.digest.quantile(0.5),
            p95: self.digest.quantile(0.95),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::describe::{mean, percentile, variance};

    /// Deterministic pseudo-random stream (SplitMix-style) in [0, 1).
    fn stream(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                (z ^ (z >> 31)) as f64 / u64::MAX as f64
            })
            .collect()
    }

    #[test]
    fn streaming_summary_matches_batch_moments_exactly() {
        let xs = stream(7, 2_000);
        let mut s = StreamingSummary::new();
        xs.iter().for_each(|&x| s.push(x));
        let out = s.to_summary();
        assert_eq!(out.n, 2_000);
        assert!((out.mean - mean(&xs)).abs() < 1e-12);
        assert!((out.variance - variance(&xs)).abs() < 1e-12);
        assert_eq!(out.min, xs.iter().copied().fold(f64::INFINITY, f64::min));
        assert_eq!(
            out.max,
            xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        );
        // Sketched percentiles within 2% on a uniform stream.
        assert!((out.median - percentile(&xs, 50.0)).abs() < 0.02);
        assert!((out.p95 - percentile(&xs, 95.0)).abs() < 0.02);
    }

    #[test]
    fn sharded_summary_merge_matches_single_stream() {
        let xs = stream(13, 5_000);
        let mut single = StreamingSummary::new();
        xs.iter().for_each(|&x| single.push(x));
        let mut merged = StreamingSummary::new();
        for shard in 0..4 {
            let mut part = StreamingSummary::new();
            xs.iter()
                .enumerate()
                .filter(|(i, _)| i % 4 == shard)
                .for_each(|(_, &x)| part.push(x));
            merged.merge(&part);
        }
        let (a, b) = (merged.to_summary(), single.to_summary());
        assert_eq!(a.n, b.n);
        assert_eq!(a.min, b.min);
        assert_eq!(a.max, b.max);
        // Chan-merged moments agree with sequential Welford to fp noise.
        assert!((a.mean - b.mean).abs() < 1e-12);
        assert!((a.variance - b.variance).abs() < 1e-12);
        // Quantiles within the digest's documented tolerance of exact.
        for (m, p) in [(a.median, 50.0), (a.p95, 95.0)] {
            let exact = percentile(&xs, p);
            assert!(
                (m - exact).abs() <= (0.05 * exact).max(0.01 * (b.max - b.min)),
                "p{p}: merged {m} vs exact {exact}"
            );
        }
    }

    #[test]
    fn merging_empty_summaries_is_identity() {
        let mut s = StreamingSummary::new();
        s.push(1.0);
        s.push(2.0);
        s.merge(&StreamingSummary::new());
        assert_eq!(s.count(), 2);
        let mut empty = StreamingSummary::new();
        empty.merge(&s);
        assert_eq!(empty.count(), 2);
        assert_eq!(empty.min(), 1.0);
        assert_eq!(empty.max(), 2.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_stream_panics() {
        StreamingSummary::new().to_summary();
    }

    #[test]
    fn constant_stream() {
        let mut s = StreamingSummary::new();
        for _ in 0..100 {
            s.push(3.25);
        }
        let out = s.to_summary();
        assert_eq!(out.mean, 3.25);
        assert_eq!(out.median, 3.25);
        assert_eq!(out.p95, 3.25);
        assert_eq!(out.variance, 0.0);
    }
}
