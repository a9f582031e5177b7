//! PHP (P-HP) — histogram publication through private recursive bisection
//! (Ács, Castelluccia, Chen; ICDM 2012).
//!
//! PHP spends ε₁ = ρ·ε on structure: for `log₂(n)` iterations it picks the
//! current bucket/split-point pair that most reduces the within-bucket L1
//! deviation, using the exponential mechanism (deviation cost has
//! sensitivity 2 per record, improvements sensitivity 4). The remaining
//! ε₂ measures each final bucket's count (sensitivity 1), spread uniformly
//! within buckets.
//!
//! Because the iteration count is capped at `log₂(n)`, PHP produces at
//! most `log₂(n) + 1` buckets — so on data with more than `log₂(n) + 1`
//! distinct levels the uniform-within-bucket approximation keeps a bias
//! that never vanishes: PHP is **inconsistent** (paper Theorem 6), the
//! property the benchmark's Finding 9 exposes at large scales.
//!
//! Each bucket's split scores are computed once and cached: an iteration
//! rescores only the two halves of the bucket it just split, and the
//! cached scores are concatenated in bucket order, so the exponential
//! mechanism sees the same score vector (and draws the same randomness)
//! as the full per-iteration rescan ([`Php::plan_naive`]). A bucket is
//! scored eight split points per pass, one add chain per split point, each
//! adding the same cells in the same order as the per-split formula, so
//! every score is bit-identical to it.

use dpbench_core::mechanism::{fingerprint_words, DimSupport, FnPlan, Plan, PlanDiagnostics};
use dpbench_core::primitives::{exponential_mechanism, laplace};
use dpbench_core::{BudgetLedger, DataVector, Domain, MechError, MechInfo, Mechanism, Workload};
use rand::RngCore;

/// The PHP mechanism (1-D only, like the original).
#[derive(Debug, Clone, Copy)]
pub struct Php {
    /// Fraction of ε spent on partition structure (paper default ρ = 0.5).
    pub rho: f64,
}

impl Default for Php {
    fn default() -> Self {
        Self { rho: 0.5 }
    }
}

impl Php {
    /// PHP with the paper's default ρ = 0.5.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A contiguous bucket `[lo, hi)` with its L1-deviation cost.
#[derive(Debug, Clone)]
struct Bucket {
    lo: usize,
    hi: usize,
    cost: f64,
}

impl Mechanism for Php {
    fn info(&self) -> MechInfo {
        let mut info = MechInfo::new("PHP", DimSupport::OneD);
        info.data_dependent = true;
        info.partitioning = true;
        info.consistent = false; // Theorem 6
        info
    }

    fn plan(&self, domain: &Domain, _workload: &Workload) -> Result<Box<dyn Plan>, MechError> {
        self.plan_with(domain, bisect)
    }

    fn config_fingerprint(&self) -> u64 {
        fingerprint_words(&[self.rho.to_bits()])
    }
}

impl Php {
    /// PHP planned with the original full per-iteration rescan, retained
    /// as the validation oracle for the cached bisection: every split
    /// score is recomputed in every iteration. Used only by tests.
    pub fn plan_naive(&self, domain: &Domain) -> Result<Box<dyn Plan>, MechError> {
        self.plan_with(domain, bisect_naive)
    }

    fn plan_with(&self, domain: &Domain, bisect: Bisect) -> Result<Box<dyn Plan>, MechError> {
        if !self.supports(domain) {
            return Err(MechError::Unsupported {
                mechanism: "PHP".into(),
                reason: format!("domain {domain} is not 1-D"),
            });
        }
        let mech = *self;
        Ok(FnPlan::boxed(
            *domain,
            PlanDiagnostics::data_dependent("PHP"),
            move |x, _ws, budget, rng| mech.bisect_and_measure(x, budget, rng, bisect),
        ))
    }

    /// The private pipeline: recursive bisection (ε₁) then bucket
    /// measurement (ε₂).
    fn bisect_and_measure(
        &self,
        x: &DataVector,
        budget: &mut BudgetLedger,
        rng: &mut dyn RngCore,
        bisect: Bisect,
    ) -> Result<Vec<f64>, MechError> {
        let n = x.n_cells();
        let counts = x.counts();
        let iterations = (n as f64).log2().ceil().max(1.0) as usize;
        let eps1 = budget.spend_fraction_as("structure", self.rho)?;
        let eps2 = budget.spend_all_as("buckets");
        let buckets = bisect(counts, iterations, eps1 / iterations as f64, rng);

        // Measure bucket totals (partition → sensitivity 1) and expand.
        let mut est = vec![0.0; n];
        for b in &buckets {
            let total: f64 = counts[b.lo..b.hi].iter().sum();
            let noisy = total + laplace(1.0 / eps2, rng);
            let share = noisy / (b.hi - b.lo) as f64;
            for e in est[b.lo..b.hi].iter_mut() {
                *e = share;
            }
        }
        Ok(est)
    }
}

/// A bisection: `(counts, iterations, ε per iteration, rng)` → buckets.
type Bisect = fn(&[f64], usize, f64, &mut dyn RngCore) -> Vec<Bucket>;

impl Bucket {
    fn new(counts: &[f64], lo: usize, hi: usize) -> Self {
        Self {
            lo,
            hi,
            cost: l1_deviation(counts, lo, hi),
        }
    }

    /// Improvement of splitting at each `s` in `lo+1..hi`, in order:
    /// `cost − l1_deviation(lo, s) − l1_deviation(s, hi)`.
    ///
    /// Scores [`LANES`] consecutive split points per pass over the bucket
    /// with one add chain per lane, so the chains run side by side instead
    /// of one after another. Each lane adds the cells [`l1_deviation`]
    /// adds, in the same order and from the same [`SUM_ZERO`]; the left
    /// sums come from one running prefix, which is that fold's own
    /// sequence of partial sums. Every score is bit-identical to the
    /// per-split formula.
    fn split_scores(&self, counts: &[f64]) -> Vec<f64> {
        let (lo, hi) = (self.lo, self.hi);
        let mut scores = Vec::with_capacity(hi - lo - 1);
        // Σ counts[lo..s0] at the start of each block.
        let mut prefix = SUM_ZERO + counts[lo];
        for s0 in (lo + 1..hi).step_by(LANES) {
            // Lane j scores split point s0 + j; lanes from `m` on are
            // padding whose values are never read.
            let m = LANES.min(hi - s0);
            let block = &counts[s0..s0 + m];

            let mut lmean = [0.0; LANES];
            for (j, (mean, &c)) in lmean.iter_mut().zip(block).enumerate() {
                *mean = prefix / (s0 + j - lo) as f64;
                prefix += c;
            }
            let mut ldev = [SUM_ZERO; LANES];
            for &c in &counts[lo..s0] {
                for (d, &mean) in ldev.iter_mut().zip(&lmean) {
                    *d += (c - mean).abs();
                }
            }
            // Cell s0 + t lies left of split points s0 + t + 1 and on.
            for (t, &c) in block.iter().enumerate() {
                for (d, &mean) in ldev[t + 1..m].iter_mut().zip(&lmean[t + 1..m]) {
                    *d += (c - mean).abs();
                }
            }

            // Cell s0 + t lies right of split points s0 ..= s0 + t.
            let mut rsum = [SUM_ZERO; LANES];
            for (t, &c) in block.iter().enumerate() {
                for r in &mut rsum[..=t] {
                    *r += c;
                }
            }
            for &c in &counts[s0 + m..hi] {
                for r in &mut rsum {
                    *r += c;
                }
            }
            let mut rmean = [0.0; LANES];
            for (j, (mean, &sum)) in rmean[..m].iter_mut().zip(&rsum).enumerate() {
                *mean = sum / (hi - s0 - j) as f64;
            }
            let mut rdev = [SUM_ZERO; LANES];
            for (t, &c) in block.iter().enumerate() {
                for (d, &mean) in rdev[..=t].iter_mut().zip(&rmean) {
                    *d += (c - mean).abs();
                }
            }
            for &c in &counts[s0 + m..hi] {
                for (d, &mean) in rdev.iter_mut().zip(&rmean) {
                    *d += (c - mean).abs();
                }
            }

            scores.extend((0..m).map(|j| self.cost - ldev[j] - rdev[j]));
        }
        scores
    }
}

/// Split points [`Bucket::split_scores`] scores per pass.
const LANES: usize = 8;

/// The value `Iterator::sum` folds `f64`s from: −0.0, the identity of
/// IEEE addition.
const SUM_ZERO: f64 = -0.0;

/// Recursive bisection with each bucket's split scores cached: an
/// iteration rescores only the two halves of the bucket it split. The
/// scores are concatenated in bucket order, so the exponential mechanism
/// sees the same vector (and draws the same randomness) as in
/// [`bisect_naive`].
fn bisect(counts: &[f64], iterations: usize, eps: f64, rng: &mut dyn RngCore) -> Vec<Bucket> {
    let mut buckets = vec![Bucket::new(counts, 0, counts.len())];
    let mut cached = vec![buckets[0].split_scores(counts)];
    let mut scores = Vec::new();
    for _ in 0..iterations {
        scores.clear();
        for c in &cached {
            scores.extend_from_slice(c);
        }
        if scores.is_empty() {
            break; // every bucket is a single cell
        }
        // Improvement = difference of deviation costs, each with
        // per-record sensitivity 2 → score sensitivity 4.
        let mut chosen = exponential_mechanism(&scores, 4.0, eps, rng);
        let mut bi = 0;
        while chosen >= cached[bi].len() {
            chosen -= cached[bi].len();
            bi += 1;
        }
        let (lo, hi) = (buckets[bi].lo, buckets[bi].hi);
        let s = lo + 1 + chosen;
        let (left, right) = (Bucket::new(counts, lo, s), Bucket::new(counts, s, hi));
        cached[bi] = left.split_scores(counts);
        cached.push(right.split_scores(counts));
        buckets[bi] = left;
        buckets.push(right);
    }
    buckets
}

/// [`bisect`] without the cache: every bucket's split scores are
/// recomputed in every iteration.
fn bisect_naive(counts: &[f64], iterations: usize, eps: f64, rng: &mut dyn RngCore) -> Vec<Bucket> {
    let mut buckets = vec![Bucket::new(counts, 0, counts.len())];
    for _ in 0..iterations {
        // Candidate splits: (bucket index, split position, improvement).
        let mut candidates: Vec<(usize, usize)> = Vec::new();
        let mut scores: Vec<f64> = Vec::new();
        for (bi, b) in buckets.iter().enumerate() {
            for s in b.lo + 1..b.hi {
                let improvement =
                    b.cost - l1_deviation(counts, b.lo, s) - l1_deviation(counts, s, b.hi);
                candidates.push((bi, s));
                scores.push(improvement);
            }
        }
        if candidates.is_empty() {
            break; // every bucket is a single cell
        }
        let chosen = exponential_mechanism(&scores, 4.0, eps, rng);
        let (bi, s) = candidates[chosen];
        let b = buckets[bi].clone();
        buckets[bi] = Bucket::new(counts, b.lo, s);
        buckets.push(Bucket::new(counts, s, b.hi));
    }
    buckets
}

/// `Σ |x_i − mean|` over `counts[lo..hi)`.
fn l1_deviation(counts: &[f64], lo: usize, hi: usize) -> f64 {
    debug_assert!(lo < hi);
    let len = (hi - lo) as f64;
    let mean: f64 = counts[lo..hi].iter().sum::<f64>() / len;
    counts[lo..hi].iter().map(|&c| (c - mean).abs()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbench_core::{Domain, Loss};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bucket_count_bounded_by_iterations() {
        // PHP on n=64 runs 6 iterations → at most 7 buckets, so at most 7
        // distinct estimate values.
        let counts: Vec<f64> = (0..64).map(|i| (i * i) as f64).collect();
        let x = DataVector::new(counts, Domain::D1(64));
        let w = Workload::identity(Domain::D1(64));
        let mut rng = StdRng::seed_from_u64(70);
        let est = Php::new().run_eps(&x, &w, 1e8, &mut rng).unwrap();
        let mut distinct: Vec<u64> = est.iter().map(|v| v.to_bits()).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() <= 7, "{} distinct values", distinct.len());
    }

    #[test]
    fn inconsistent_on_rich_data() {
        // More distinct levels than buckets → persistent bias at ε → ∞.
        let counts: Vec<f64> = (0..64).map(|i| (i as f64) * 100.0).collect();
        let x = DataVector::new(counts, Domain::D1(64));
        let w = Workload::identity(Domain::D1(64));
        let y = w.evaluate(&x);
        let mut rng = StdRng::seed_from_u64(71);
        let est = Php::new().run_eps(&x, &w, 1e9, &mut rng).unwrap();
        let err = Loss::L2.eval(&y, &w.evaluate_cells(&est));
        assert!(err > 10.0, "bias should persist, err = {err}");
    }

    #[test]
    fn near_exact_on_piecewise_constant_data() {
        // Two flat regions: one split suffices; bias → 0 at high ε.
        let mut counts = vec![10.0; 32];
        for c in counts[16..].iter_mut() {
            *c = 500.0;
        }
        let x = DataVector::new(counts, Domain::D1(32));
        let w = Workload::identity(Domain::D1(32));
        let y = w.evaluate(&x);
        let mut rng = StdRng::seed_from_u64(72);
        let est = Php::new().run_eps(&x, &w, 1e8, &mut rng).unwrap();
        let err = Loss::L2.eval(&y, &w.evaluate_cells(&est));
        assert!(err < 1.0, "err {err}");
    }

    #[test]
    fn estimates_cover_domain() {
        let x = DataVector::new(vec![5.0; 128], Domain::D1(128));
        let w = Workload::identity(Domain::D1(128));
        let mut rng = StdRng::seed_from_u64(73);
        let est = Php::new().run_eps(&x, &w, 0.5, &mut rng).unwrap();
        assert_eq!(est.len(), 128);
        assert!(est.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn l1_deviation_known() {
        assert_eq!(l1_deviation(&[1.0, 3.0], 0, 2), 2.0);
        assert_eq!(l1_deviation(&[5.0, 5.0, 5.0], 0, 3), 0.0);
    }

    #[test]
    fn lane_scores_equal_per_split_formula() {
        // Every bucket up to 40 cells wide at every offset: each lane
        // count from 1 to 8 and several full passes, over counts with
        // negative cells, −0.0, +0.0 and fractions.
        let counts: Vec<f64> = (0..96)
            .map(|i| match i % 7 {
                0 => -0.0,
                1 => 0.0,
                2 => -((i * 37 % 101) as f64),
                3 => (i * i % 89) as f64 * 0.37,
                4 => 5_000.0,
                _ => (i % 5) as f64,
            })
            .collect();
        for lo in 0..counts.len() {
            for hi in lo + 1..=(lo + 40).min(counts.len()) {
                let b = Bucket::new(&counts, lo, hi);
                let lanes: Vec<u64> = b
                    .split_scores(&counts)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                let formula: Vec<u64> = (lo + 1..hi)
                    .map(|s| {
                        (b.cost - l1_deviation(&counts, lo, s) - l1_deviation(&counts, s, hi))
                            .to_bits()
                    })
                    .collect();
                assert_eq!(lanes, formula, "bucket [{lo}, {hi})");
            }
        }
    }

    #[test]
    fn sum_zero_is_iterator_sums_identity() {
        let empty: f64 = std::iter::empty::<f64>().sum();
        assert_eq!(empty.to_bits(), SUM_ZERO.to_bits());
    }

    #[test]
    fn is_1d_only() {
        assert!(!Php::new().supports(&Domain::D2(8, 8)));
    }
}
