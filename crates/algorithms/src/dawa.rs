//! DAWA — Data- And Workload-Aware algorithm (Li, Hay, Miklau; PVLDB
//! 2014). The paper's overall winner: lowest regret in 1-D (1.32) and 2-D
//! (1.73).
//!
//! Two stages sharing the budget via `ρ` (paper default ρ = 0.25):
//!
//! 1. **Private L1 partition** (ε₁ = ρ·ε): add `Laplace(1/ε₁)` noise to
//!    each cell, compute bias-corrected L1-deviation costs for every
//!    interval of power-of-two length, and run a dynamic program that
//!    picks the partition minimizing `Σ_B [dev(B) + 1/ε₂]` — the classic
//!    approximation/noise trade-off. Restricting bucket lengths to powers
//!    of two is the original implementation's own `O(n log n)`-state
//!    approximation.
//! 2. **Workload-aware measurement** (ε₂ = (1−ρ)·ε): treat the buckets as
//!    a reduced domain (zero-padded to the next power of two so the
//!    per-worker hierarchy pool sees only ~log₂(n) distinct sizes), map
//!    the workload onto bucket indices, and run
//!    [`GreedyH`] over the reduced vector;
//!    bucket estimates are spread uniformly over their cells.
//!
//! The partition DP's interval costs are computed by the sliding-window
//! order-statistic engine in
//! [`dpbench_transforms::order_stats`] — **O(n log² n)** total instead of
//! the O(n²) per-interval rescan — and validated against the retained
//! naive DP ([`l1_partition_naive`]) by an exact-partition equivalence
//! suite. Execution scratch (noisy vector, deviation tables, DP arrays)
//! comes from the caller's [`Workspace`], so repeated trials allocate
//! almost nothing.
//!
//! 2-D inputs are flattened along a Hilbert curve (paper Appendix B).
//! DAWA is consistent (Theorem 3) and scale-ε exchangeable (Theorem 11).

use crate::greedy_h::GreedyH;
use dpbench_core::mechanism::{fingerprint_words, DimSupport, FnPlan, Plan, PlanDiagnostics};
use dpbench_core::primitives::laplace;
use dpbench_core::{
    BudgetLedger, DataVector, Domain, MechError, MechInfo, Mechanism, RangeQuery, Workload,
    Workspace,
};
use dpbench_transforms::hilbert;
use dpbench_transforms::order_stats::SlidingDeviation;
use rand::RngCore;

/// Deterministic near-tie rule of the partition DP: a candidate
/// segmentation must beat the incumbent by this **relative** margin to
/// replace it (otherwise the earlier — shorter — candidate is kept). Real
/// data produces exact cost ties (e.g. when the bias correction clamps
/// whole cost chains to zero, or deviation sums coincide), and the fast
/// and naive deviation computations differ by a few ulps; without a tie
/// band those ulps would arbitrarily flip the argmin. Candidates within
/// the band differ in cost by at most one part in 10⁹ — statistically
/// interchangeable partitions.
const IMPROVEMENT_TOL: f64 = 1e-9;

/// Shared improvement test of both partition DPs.
#[inline]
fn improves(cost: f64, incumbent: f64) -> bool {
    if incumbent.is_finite() {
        cost < incumbent - IMPROVEMENT_TOL * (1.0 + incumbent.abs())
    } else {
        // Unset DP entries start at +∞; any finite candidate takes them.
        cost < incumbent
    }
}

/// The DAWA mechanism.
#[derive(Debug, Clone, Copy)]
pub struct Dawa {
    /// Fraction of ε spent on the partition stage (paper default 0.25).
    pub rho: f64,
    /// Branching factor of the GREEDY_H second stage (paper default 2).
    pub branching: usize,
}

impl Default for Dawa {
    fn default() -> Self {
        Self {
            rho: 0.25,
            branching: 2,
        }
    }
}

impl Dawa {
    /// DAWA with the paper's defaults (ρ = 0.25, b = 2).
    pub fn new() -> Self {
        Self::default()
    }

    /// DAWA with an explicit partition budget fraction.
    pub fn with_rho(rho: f64) -> Self {
        assert!(rho > 0.0 && rho < 1.0, "ρ must be in (0,1)");
        Self { rho, branching: 2 }
    }

    /// The full 1-D pipeline on raw counts; estimate written into a buffer
    /// taken from `ws` (which also supplies all scratch).
    fn run_1d(
        &self,
        counts: &[f64],
        queries: &[RangeQuery],
        ws: &mut Workspace,
        budget: &mut BudgetLedger,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<f64>, MechError> {
        let n = counts.len();
        let eps1 = budget.spend_fraction_as("partition", self.rho)?;
        let eps2 = budget.spend_all_as("greedy-h");

        // Stage 1: partition from noisy counts.
        let mut noisy = ws.take_f64(n);
        for (slot, &c) in noisy.iter_mut().zip(counts) {
            *slot = c + laplace(1.0 / eps1, rng);
        }
        let buckets = l1_partition_with(&noisy, eps1, eps2, ws);
        ws.give_f64(noisy);

        // Stage 2: GREEDY_H over the reduced (bucket) domain, padded with
        // empty buckets to the next power of two. The partition count k is
        // noise-dependent — at ε = 0.1 it lands on a different exact value
        // almost every trial, so keying the per-worker `HierPool` by exact
        // k missed constantly. Padding buckets the pool to ~log₂(n)
        // distinct sizes (hierarchy structure depends only on the domain
        // size), while the mapped workload and the expansion below touch
        // only the first k real buckets; the pad cells hold zero mass and
        // merely absorb their share of measurement noise.
        let k = buckets.len();
        let m = k.next_power_of_two();
        let mut reduced = ws.take_f64(m);
        let mut cell_to_bucket = ws.take_usize(n);
        for (bi, &(lo, hi)) in buckets.iter().enumerate() {
            reduced[bi] = counts[lo..hi].iter().sum();
            for cb in cell_to_bucket[lo..hi].iter_mut() {
                *cb = bi;
            }
        }
        let reduced_x = DataVector::new(reduced, Domain::D1(m));
        // Workload-sized scratch: pooled through the typed slot so the
        // per-trial mapping reuses one allocation.
        let mut mapped: Box<Vec<RangeQuery>> = ws.take_typed();
        mapped.clear();
        mapped.extend(
            queries
                .iter()
                .map(|q| RangeQuery::d1(cell_to_bucket[q.lo.0], cell_to_bucket[q.hi.0])),
        );
        ws.give_usize(cell_to_bucket);
        // The stage-2 hierarchy comes from the workspace's size-bucketed
        // pool (`HierPool`): the reduced size is data-dependent, so it
        // cannot live in the plan, but the power-of-two padding above
        // collapses it to ~log₂(n) distinct pool keys.
        let bucket_est = GreedyH {
            branching: self.branching,
        }
        .run_1d_with(&reduced_x, &mapped, eps2, ws, rng);
        ws.store_typed(mapped);

        // Uniform expansion.
        let mut est = ws.take_f64(n);
        for (bi, &(lo, hi)) in buckets.iter().enumerate() {
            let share = bucket_est[bi] / (hi - lo) as f64;
            for e in est[lo..hi].iter_mut() {
                *e = share;
            }
        }
        ws.give_f64(bucket_est);
        ws.give_f64(reduced_x.into_counts());
        Ok(est)
    }
}

/// DAWA's stage-1 dynamic program: minimum-cost segmentation of the noisy
/// vector into intervals of power-of-two length.
///
/// Interval cost = bias-corrected L1 deviation + `1/ε₂` (the expected
/// absolute Laplace error one extra bucket measurement would incur). The
/// deviation measured on noisy counts systematically over-estimates the
/// true deviation by the noise's own mean deviation, ≈ `(len−1)/ε₁`; the
/// correction subtracts it (clamped at zero), as in the original DAWA
/// implementation.
///
/// Interval deviations come from the O(n log² n) sliding-window
/// order-statistic engine; the DP visits candidate lengths in the same
/// ascending order with the same `IMPROVEMENT_TOL` rule as
/// [`l1_partition_naive`], so both return the same argmin partition (the
/// equivalence suite in `tests/hot_path.rs` asserts bucket-for-bucket
/// equality).
///
/// Returns half-open bucket ranges `[lo, hi)` covering the domain.
pub fn l1_partition(noisy: &[f64], eps1: f64, eps2: f64) -> Vec<(usize, usize)> {
    l1_partition_with(noisy, eps1, eps2, &mut Workspace::new())
}

/// [`l1_partition`] drawing every scratch buffer (deviation tables, DP
/// arrays, the order-statistic engine) from a caller-owned [`Workspace`] —
/// the allocation-free hot-path entry point.
pub fn l1_partition_with(
    noisy: &[f64],
    eps1: f64,
    eps2: f64,
    ws: &mut Workspace,
) -> Vec<(usize, usize)> {
    let n = noisy.len();
    assert!(n > 0);
    let bucket_penalty = 1.0 / eps2;

    // Power-of-two candidate lengths 1, 2, …, ≤ n.
    let mut n_classes = 1_usize;
    while (1_usize << n_classes) <= n {
        n_classes += 1;
    }

    // dev[k * (n + 1) + i] = L1 deviation of the window of length 2^k
    // ending at i. Row k = 0 (single cells) stays all-zero — a singleton
    // deviates from its own mean by exactly zero. (The naive rescan leaves
    // ~1 ulp of prefix-sum residue there instead; the shared
    // [`IMPROVEMENT_TOL`] tie band absorbs the difference.)
    let stride = n + 1;
    let mut dev = ws.take_f64(n_classes * stride);
    let mut sd: Box<SlidingDeviation> = ws.take_typed();
    sd.prepare(noisy);
    for k in 1..n_classes {
        sd.window_deviations(noisy, 1 << k, &mut dev[k * stride..(k + 1) * stride]);
    }
    ws.store_typed(sd);

    // dp[i] = best cost of segmenting noisy[0..i); from[i] = chosen length.
    let mut dp = ws.take_f64(n + 1);
    let mut from = ws.take_usize(n + 1);
    dp[1..].fill(f64::INFINITY);
    for i in 1..=n {
        for (k, row) in dev.chunks_exact(stride).enumerate() {
            let len = 1_usize << k;
            if len > i {
                break;
            }
            let j = i - len;
            let corrected = (row[i] - (len as f64 - 1.0) / eps1).max(0.0);
            let cost = dp[j] + corrected + bucket_penalty;
            if improves(cost, dp[i]) {
                dp[i] = cost;
                from[i] = len;
            }
        }
    }
    // Reconstruct.
    let mut buckets = Vec::new();
    let mut i = n;
    while i > 0 {
        let len = from[i];
        buckets.push((i - len, i));
        i -= len;
    }
    buckets.reverse();
    ws.give_f64(dev);
    ws.give_f64(dp);
    ws.give_usize(from);
    buckets
}

/// The original O(n²) partition DP, retained as the validation oracle for
/// [`l1_partition`]: every interval's deviation is recomputed by a full
/// rescan. The only change from the pre-optimization code is the shared
/// `IMPROVEMENT_TOL` near-tie rule (both DPs must break fp-level cost
/// ties identically to be comparable at all). Used only by tests.
pub fn l1_partition_naive(noisy: &[f64], eps1: f64, eps2: f64) -> Vec<(usize, usize)> {
    let n = noisy.len();
    assert!(n > 0);
    let bucket_penalty = 1.0 / eps2;
    // Prefix sums for interval means.
    let mut prefix = vec![0.0; n + 1];
    for (i, &v) in noisy.iter().enumerate() {
        prefix[i + 1] = prefix[i] + v;
    }

    // dp[i] = best cost of segmenting noisy[0..i); from[i] = chosen length.
    let mut dp = vec![f64::INFINITY; n + 1];
    let mut from = vec![0_usize; n + 1];
    dp[0] = 0.0;
    for i in 1..=n {
        let mut len = 1_usize;
        while len <= i {
            let j = i - len;
            let mean = (prefix[i] - prefix[j]) / len as f64;
            let mut dev = 0.0;
            for &v in &noisy[j..i] {
                dev += (v - mean).abs();
            }
            let corrected = (dev - (len as f64 - 1.0) / eps1).max(0.0);
            let cost = dp[j] + corrected + bucket_penalty;
            if improves(cost, dp[i]) {
                dp[i] = cost;
                from[i] = len;
            }
            len <<= 1;
        }
    }
    // Reconstruct.
    let mut buckets = Vec::new();
    let mut i = n;
    while i > 0 {
        let len = from[i];
        buckets.push((i - len, i));
        i -= len;
    }
    buckets.reverse();
    buckets
}

impl Mechanism for Dawa {
    fn info(&self) -> MechInfo {
        let mut info = MechInfo::new("DAWA", DimSupport::OneAndTwoD);
        info.data_dependent = true;
        info.hierarchical = true;
        info.partitioning = true;
        info.workload_aware = true;
        info
    }

    fn config_fingerprint(&self) -> u64 {
        fingerprint_words(&[self.rho.to_bits(), self.branching as u64])
    }

    fn supports(&self, domain: &Domain) -> bool {
        match *domain {
            Domain::D1(_) => true,
            Domain::D2(r, c) => r == c && r.is_power_of_two(),
        }
    }

    fn plan(&self, domain: &Domain, workload: &Workload) -> Result<Box<dyn Plan>, MechError> {
        // The workload mapping is data-independent: the queries themselves
        // in 1-D, their Hilbert covering intervals (and the curve) in 2-D.
        // Only the partition and the measurement touch the data.
        let (curve, queries) = match *domain {
            Domain::D1(_) => (None, workload.queries().to_vec()),
            Domain::D2(r, c) => {
                if r != c || !r.is_power_of_two() {
                    return Err(MechError::Unsupported {
                        mechanism: "DAWA".into(),
                        reason: format!("2-D domain {r}x{c} must be a square power of two"),
                    });
                }
                let intervals = workload
                    .queries()
                    .iter()
                    .map(|q| {
                        let (lo, hi) = hilbert::box_cover(r, q.lo.0, q.lo.1, q.hi.0, q.hi.1);
                        RangeQuery::d1(lo, hi)
                    })
                    .collect();
                (Some(hilbert::Curve::new(r)), intervals)
            }
        };
        let mech = *self;
        Ok(FnPlan::boxed(
            *domain,
            PlanDiagnostics::data_dependent("DAWA"),
            move |x, ws, budget, rng| {
                let Some(curve) = &curve else {
                    return mech.run_1d(x.counts(), &queries, ws, budget, rng);
                };
                // 2-D: partition and measure the grid flattened along the
                // plan's curve.
                let mut flat = ws.take_f64(x.n_cells());
                curve.flatten_into(x.counts(), &mut flat);
                let est_flat = mech.run_1d(&flat, &queries, ws, budget, rng)?;
                curve.unflatten_into(&est_flat, &mut flat);
                ws.give_f64(est_flat);
                Ok(flat)
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbench_core::Loss;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn partition_covers_domain_disjointly() {
        let noisy: Vec<f64> = (0..100).map(|i| if i < 50 { 10.0 } else { 90.0 }).collect();
        let buckets = l1_partition(&noisy, 1.0, 1.0);
        let mut covered = [false; 100];
        for &(lo, hi) in &buckets {
            assert!(lo < hi && hi <= 100);
            for c in covered[lo..hi].iter_mut() {
                assert!(!*c, "overlap at [{lo},{hi})");
                *c = true;
            }
            // Power-of-two lengths only.
            assert!((hi - lo).is_power_of_two());
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn partition_finds_flat_regions() {
        // Two perfectly flat halves at high ε: expect very few buckets.
        let mut noisy = vec![5.0; 64];
        for v in noisy[32..].iter_mut() {
            *v = 500.0;
        }
        let buckets = l1_partition(&noisy, 1e6, 1.0);
        assert!(
            buckets.len() <= 4,
            "flat data should give few buckets, got {:?}",
            buckets
        );
    }

    #[test]
    fn partition_resolves_detail_when_needed() {
        // Strongly alternating data with tiny bucket penalty: fine buckets.
        let noisy: Vec<f64> = (0..32)
            .map(|i| if i % 2 == 0 { 0.0 } else { 1000.0 })
            .collect();
        let buckets = l1_partition(&noisy, 1e6, 1e6);
        assert_eq!(buckets.len(), 32, "{buckets:?}");
    }

    #[test]
    fn fast_partition_matches_naive_on_structured_inputs() {
        // Structured vectors (flat, steps, spikes) exercise the clamp's
        // exact-tie paths; the fast DP must break ties identically.
        let cases: Vec<Vec<f64>> = vec![
            vec![0.0; 37],
            vec![3.5; 64],
            (0..96).map(|i| (i / 24) as f64 * 100.0).collect(),
            (0..61)
                .map(|i| if i % 13 == 0 { 500.0 } else { 0.0 })
                .collect(),
        ];
        for noisy in &cases {
            for (e1, e2) in [(0.01, 0.1), (1.0, 1.0), (1e6, 0.5)] {
                assert_eq!(
                    l1_partition(noisy, e1, e2),
                    l1_partition_naive(noisy, e1, e2),
                    "ε₁={e1} ε₂={e2} len={}",
                    noisy.len()
                );
            }
        }
    }

    #[test]
    fn consistent_at_high_eps() {
        let counts: Vec<f64> = (0..64).map(|i| ((i * 7) % 13) as f64 * 10.0).collect();
        let x = DataVector::new(counts, Domain::D1(64));
        let w = Workload::prefix_1d(64);
        let y = w.evaluate(&x);
        let mut rng = StdRng::seed_from_u64(90);
        let est = Dawa::new().run_eps(&x, &w, 1e9, &mut rng).unwrap();
        let err = Loss::L2.eval(&y, &w.evaluate_cells(&est));
        assert!(err < 1.0, "err {err}");
    }

    #[test]
    fn exploits_clustered_data_at_low_eps() {
        // Piecewise-constant data: DAWA should beat IDENTITY easily.
        use crate::identity::Identity;
        let n = 512;
        let mut counts = vec![2.0; n];
        for c in counts[100..200].iter_mut() {
            *c = 300.0;
        }
        let x = DataVector::new(counts, Domain::D1(n));
        let w = Workload::prefix_1d(n);
        let y = w.evaluate(&x);
        let mut rng = StdRng::seed_from_u64(91);
        let (mut ed, mut ei) = (0.0, 0.0);
        for _ in 0..5 {
            let d = Dawa::new().run_eps(&x, &w, 0.05, &mut rng).unwrap();
            let i = Identity.run_eps(&x, &w, 0.05, &mut rng).unwrap();
            ed += Loss::L2.eval(&y, &w.evaluate_cells(&d));
            ei += Loss::L2.eval(&y, &w.evaluate_cells(&i));
        }
        assert!(ed < ei, "DAWA {ed} vs IDENTITY {ei}");
    }

    #[test]
    fn pow2_padding_reuses_hier_pool_across_noisy_partition_counts() {
        // At ε = 0.1 the stage-1 partition count k varies trial to trial;
        // the power-of-two padding must collapse those to a handful of
        // pool entries so later trials hit instead of rebuilding.
        use crate::hierarchy::HierPool;
        let n = 256;
        let counts: Vec<f64> = (0..n).map(|i| ((i * 31) % 17) as f64).collect();
        let x = DataVector::new(counts, Domain::D1(n));
        let w = Workload::prefix_1d(n);
        let mech = Dawa::new();
        let plan = mech.plan(&Domain::D1(n), &w).unwrap();
        let mut ws = Workspace::new();
        let mut rng = StdRng::seed_from_u64(94);
        for trial in 0..16 {
            let mut budget = BudgetLedger::new(0.1);
            plan.execute(&x, &mut ws, &mut budget, &mut rng)
                .unwrap_or_else(|e| panic!("trial {trial}: {e}"));
        }
        let pool: Box<HierPool> = ws.take_typed();
        let distinct = pool.len();
        assert!(
            distinct <= (n as f64).log2() as usize + 1,
            "pow2 padding should bound distinct hierarchy sizes, got {distinct}"
        );
        assert!(
            pool.hits > 0,
            "repeated trials should hit the pool (hits={}, misses={})",
            pool.hits,
            pool.misses
        );
        ws.store_typed(pool);
    }

    #[test]
    fn runs_2d() {
        let mut counts = vec![0.0; 16 * 16];
        counts[5 * 16 + 5] = 1000.0;
        let x = DataVector::new(counts, Domain::D2(16, 16));
        let mut rng = StdRng::seed_from_u64(92);
        let w = Workload::random_ranges(Domain::D2(16, 16), 100, &mut rng);
        let est = Dawa::new().run_eps(&x, &w, 1.0, &mut rng).unwrap();
        assert_eq!(est.len(), 256);
        assert!(est.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn rejects_non_square() {
        let x = DataVector::zeros(Domain::D2(8, 16));
        let w = Workload::identity(Domain::D2(8, 16));
        let mut rng = StdRng::seed_from_u64(93);
        assert!(Dawa::new().run_eps(&x, &w, 1.0, &mut rng).is_err());
    }
}
