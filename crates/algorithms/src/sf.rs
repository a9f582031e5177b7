//! SF (StructureFirst) — differentially private histogram publication
//! (Xu, Zhang, Xiao, Yang, Yu, Winslett; VLDBJ 2013).
//!
//! SF first commits to a histogram *structure*: the V-optimal partition of
//! the domain into `k = ⌈n/10⌉` buckets (minimum total within-bucket
//! squared error), computed by dynamic programming on the true data and
//! then *perturbed* by sampling each bucket boundary backward through the
//! DP table with the exponential mechanism (per-boundary budget
//! `ε₁/(k−1)`, score sensitivity `2F + 1` where `F` bounds a cell count —
//! scale-derived side information, as flagged in Table 1). The remaining
//! ε₂ then measures the buckets.
//!
//! Two measurement variants:
//! * [`StructureFirst::mean_based`]: noisy bucket totals spread uniformly
//!   — **inconsistent** (paper Theorem 7: with `k < n` fixed, bucket bias
//!   persists as ε → ∞);
//! * [`StructureFirst::new`] (default): the Sec.-6.2 modification the
//!   benchmark evaluates — an H hierarchy *inside* each bucket (disjoint
//!   buckets → parallel composition), which restores consistency.
//!
//! SF is **not** scale-ε exchangeable (Theorem 10: the SSE score is
//! quadratic in scale) though it behaves so empirically.
//!
//! Substitution note (DESIGN.md §2): the exact DP is O(n²k); we cap bucket
//! widths at `w = 16·n/k` — transitions the V-optimal solution essentially
//! never takes at `k = n/10` — keeping the DP tractable at n = 4096.
//! [`VOptDp::build`] computes each bucket cost `sse(s, s+d)` once into an
//! `n × w` table — O(n·w) divisions — and then spends O(k·n·w) add/min
//! steps relaxing the rows, with n·w·8 bytes of scratch (1.3 MB at
//! n = 1024, w = 160). Its table is bit-identical to the triple loop that
//! recomputes every cost per row ([`VOptDp::build_naive`]).
//!
//! The DP reads nothing but the true counts, so each worker keeps its last
//! table in a [`Workspace`] memo keyed by the counts (bit for bit), `k` and
//! `w`: a unit's later trials and repeated releases on one vector skip it.
//! The per-bucket H hierarchies come from the worker's [`HierPool`], and
//! their buffers from the workspace.

use crate::hierarchy::{same_bits, HierPool};
use dpbench_core::mechanism::{fingerprint_words, DimSupport, FnPlan, Plan, PlanDiagnostics};
use dpbench_core::primitives::{exponential_mechanism, laplace};
use dpbench_core::{
    BudgetLedger, DataVector, Domain, MechError, MechInfo, Mechanism, Workload, Workspace,
};
use rand::RngCore;

/// Bucket measurement strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SfMeasurement {
    /// Noisy bucket totals, uniform within (the base algorithm).
    Mean,
    /// H hierarchy within each bucket (the consistency modification of
    /// Xu et al. Sec. 6.2, used by the benchmark).
    Hierarchical,
}

/// The SF mechanism (1-D only).
#[derive(Debug, Clone, Copy)]
pub struct StructureFirst {
    /// Budget fraction for boundary selection (default 0.5).
    pub rho: f64,
    /// Bucket-width cap as a multiple of the average width `n/k`.
    pub width_factor: usize,
    /// Measurement variant.
    pub measurement: SfMeasurement,
    /// Scale used to derive the count bound `F`: `None` = true scale as
    /// side information; `Some(v)` = externally supplied (`Rside` repair).
    pub scale_hint: Option<f64>,
}

impl Default for StructureFirst {
    fn default() -> Self {
        Self {
            rho: 0.5,
            width_factor: 16,
            measurement: SfMeasurement::Hierarchical,
            scale_hint: None,
        }
    }
}

impl StructureFirst {
    /// SF with the consistency modification (the benchmark's variant).
    pub fn new() -> Self {
        Self::default()
    }

    /// The base mean-based SF (inconsistent; used to demonstrate
    /// Theorem 7).
    pub fn mean_based() -> Self {
        Self {
            measurement: SfMeasurement::Mean,
            ..Self::default()
        }
    }

    /// Xu et al.'s recommended bucket count `k = ⌈n/10⌉`.
    pub fn bucket_count(n: usize) -> usize {
        n.div_ceil(10).max(1)
    }
}

impl Mechanism for StructureFirst {
    fn info(&self) -> MechInfo {
        let mut info = MechInfo::new("SF", DimSupport::OneD);
        info.data_dependent = true;
        info.partitioning = true;
        info.side_info = Some("scale".into());
        info.consistent = self.measurement == SfMeasurement::Hierarchical;
        info.scale_eps_exchangeable = false; // Theorem 10
        info
    }

    fn plan(&self, domain: &Domain, _workload: &Workload) -> Result<Box<dyn Plan>, MechError> {
        if domain.dims() != 1 {
            return Err(MechError::Unsupported {
                mechanism: "SF".into(),
                reason: "1-D only".into(),
            });
        }
        let mech = *self;
        Ok(FnPlan::boxed(
            *domain,
            PlanDiagnostics::data_dependent("SF"),
            move |x, ws, budget, rng| mech.partition_and_measure(x, ws, budget, rng),
        ))
    }

    fn config_fingerprint(&self) -> u64 {
        fingerprint_words(&[
            self.rho.to_bits(),
            self.width_factor as u64,
            matches!(self.measurement, SfMeasurement::Hierarchical) as u64,
            self.scale_hint.map_or(0, f64::to_bits),
        ])
    }
}

impl StructureFirst {
    /// The private pipeline: V-optimal boundary sampling (ε₁) then bucket
    /// measurement (ε₂).
    fn partition_and_measure(
        &self,
        x: &DataVector,
        ws: &mut Workspace,
        budget: &mut BudgetLedger,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<f64>, MechError> {
        let n = x.n_cells();
        let counts = x.counts();
        let k = Self::bucket_count(n).min(n);
        let eps1 = budget.spend_fraction_as("boundaries", self.rho)?;
        let eps2 = budget.spend_all_as("buckets");

        // V-optimal DP with capped widths. It reads only the true counts,
        // so the worker's memo serves every later execution on this vector.
        let width = (n.div_ceil(k) * self.width_factor).clamp(1, n);
        let mut memo: Box<VOptMemo> = ws.take_typed();
        let dp = memo.get(counts, k, width);

        // Backward boundary sampling via the exponential mechanism. The
        // SSE score's per-record sensitivity is bounded by 2F + 1, with F
        // an upper bound on a cell count derived from the scale (side
        // information): F = max(1, 2·m/k).
        let scale = self.scale_hint.unwrap_or_else(|| x.scale());
        let f_bound = (2.0 * scale / k as f64).max(1.0);
        let sensitivity = 2.0 * f_bound + 1.0;
        let eps_boundary = if k > 1 { eps1 / (k - 1) as f64 } else { eps1 };

        let mut boundaries = vec![n]; // right edges, built backward
        let mut scores = ws.take_f64(0);
        let mut right = n;
        for j in (2..=k).rev() {
            // Candidate left edges s for the bucket ending at `right`.
            let lo = right.saturating_sub(width).max(j - 1);
            let hi = right - 1;
            if lo > hi {
                break;
            }
            scores.clear();
            scores.extend((lo..=hi).map(|s| {
                let structure = dp.table[j - 1][s];
                if structure.is_finite() {
                    -(structure + dp.sse(s, right))
                } else {
                    f64::NEG_INFINITY
                }
            }));
            let chosen = lo + exponential_mechanism(&scores, sensitivity, eps_boundary, rng);
            boundaries.push(chosen);
            right = chosen;
            if right == j - 1 {
                // Forced: remaining buckets are singletons.
                for s in (1..j - 1).rev() {
                    boundaries.push(s);
                }
                break;
            }
        }
        ws.give_f64(scores);
        ws.store_typed(memo);
        boundaries.push(0);
        boundaries.sort_unstable();
        boundaries.dedup();

        // Measure buckets. Bucket lengths repeat across trials, so each
        // bucket's hierarchy comes from the worker's pool.
        let mut est = ws.take_f64(n);
        let mut pool: Box<HierPool> = ws.take_typed();
        let mut level_eps = Vec::new();
        for w in boundaries.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            match self.measurement {
                SfMeasurement::Mean => {
                    let total: f64 = counts[lo..hi].iter().sum();
                    let noisy = total + laplace(1.0 / eps2, rng);
                    let share = noisy / (hi - lo) as f64;
                    for e in est[lo..hi].iter_mut() {
                        *e = share;
                    }
                }
                SfMeasurement::Hierarchical => {
                    // Disjoint buckets → parallel composition: each bucket
                    // runs a full-ε₂ H hierarchy.
                    let len = hi - lo;
                    let mut cells = ws.take_f64(0);
                    cells.extend_from_slice(&counts[lo..hi]);
                    let sub = DataVector::new(cells, Domain::D1(len));
                    let hier = pool.get_1d(len, 2);
                    level_eps.clear();
                    level_eps.resize(hier.height(), eps2 / hier.height() as f64);
                    let sub_est = hier.measure_and_infer_with(&sub, &level_eps, ws, rng);
                    est[lo..hi].copy_from_slice(&sub_est);
                    ws.give_f64(sub_est);
                    ws.give_f64(sub.into_counts());
                }
            }
        }
        ws.store_typed(pool);
        Ok(est)
    }
}

/// A worker's last V-optimal table, keyed by the exact counts (compared
/// bit for bit), `k` and the width cap that built it. Kept in the
/// workspace's typed slot: one table per worker, (k + 1)·(n + 1)·8 bytes
/// (0.85 MB at n = 1,024, 13.5 MB at 4,096).
#[derive(Default)]
struct VOptMemo {
    counts: Vec<f64>,
    k: usize,
    width: usize,
    dp: Option<VOptDp>,
}

impl VOptMemo {
    /// The table for `(counts, k, width)`: the held one when the key
    /// matches, otherwise a fresh [`VOptDp::build`] that replaces it.
    fn get(&mut self, counts: &[f64], k: usize, width: usize) -> &VOptDp {
        let held = (self.k, self.width) == (k, width) && same_bits(&self.counts, counts);
        if !held {
            self.dp = None;
            self.counts.clear();
            self.counts.extend_from_slice(counts);
            (self.k, self.width) = (k, width);
        }
        self.dp
            .get_or_insert_with(|| VOptDp::build(counts, k, width))
    }
}

/// V-optimal dynamic program with width-capped transitions.
pub struct VOptDp {
    /// `table[j][i]` = minimum SSE partitioning the first `i` cells into
    /// `j` buckets (∞ when infeasible under the width cap).
    pub table: Vec<Vec<f64>>,
    prefix: Vec<f64>,
    prefix_sq: Vec<f64>,
    /// Maximum bucket width used in the transitions.
    pub width: usize,
}

impl VOptDp {
    /// Build the DP for `k` buckets with the given width cap (clamped to
    /// `n`, which allows every width).
    ///
    /// Every bucket cost `sse(s, s + d)` is computed once into an `n × w`
    /// table, then row `j` is relaxed forward: each finite `table[j−1][s]`
    /// lowers `table[j][s+1..=s+w]` in one contiguous branch-free min loop.
    /// Each entry is the minimum over the same candidates, computed by the
    /// same operations and visited in the same order (ascending `s`), as
    /// in [`build_naive`](Self::build_naive), so the table is bit-identical.
    pub fn build(counts: &[f64], k: usize, width: usize) -> Self {
        let n = counts.len();
        let w = width.min(n);
        let mut dp = Self::empty(counts, k, w);
        // cost[s·w + d − 1] = sse(s, s + d) for 1 ≤ d ≤ min(w, n − s).
        let mut cost = vec![0.0; n * w];
        for (s, row) in cost.chunks_exact_mut(w.max(1)).enumerate() {
            let m = w.min(n - s);
            for (d, c) in row[..m].iter_mut().enumerate() {
                *c = dp.sse(s, s + d + 1);
            }
        }
        for j in 1..=k {
            let (done, rest) = dp.table.split_at_mut(j);
            let (prev, row) = (&done[j - 1], &mut rest[0]);
            for s in j - 1..n {
                let p = prev[s];
                if !p.is_finite() {
                    continue;
                }
                let m = w.min(n - s);
                for (best, &c) in row[s + 1..=s + m].iter_mut().zip(&cost[s * w..s * w + m]) {
                    let cand = p + c;
                    *best = if cand < *best { cand } else { *best };
                }
            }
        }
        dp
    }

    /// The original O(k·n·w) triple loop, retained as the validation
    /// oracle for [`build`](Self::build): every transition recomputes its
    /// bucket cost, division included. Used only by tests.
    pub fn build_naive(counts: &[f64], k: usize, width: usize) -> Self {
        let n = counts.len();
        let mut dp = Self::empty(counts, k, width);
        for j in 1..=k {
            for i in j..=n {
                let lo = i.saturating_sub(width).max(j - 1);
                let mut best = f64::INFINITY;
                for s in lo..i {
                    let prev = dp.table[j - 1][s];
                    if prev.is_finite() {
                        let cost = prev + dp.sse(s, i);
                        if cost < best {
                            best = cost;
                        }
                    }
                }
                dp.table[j][i] = best;
            }
        }
        dp
    }

    /// Prefix sums over `counts` and a table with only `table[0][0] = 0`
    /// feasible.
    fn empty(counts: &[f64], k: usize, width: usize) -> Self {
        let n = counts.len();
        let mut prefix = vec![0.0; n + 1];
        let mut prefix_sq = vec![0.0; n + 1];
        for (i, &c) in counts.iter().enumerate() {
            prefix[i + 1] = prefix[i] + c;
            prefix_sq[i + 1] = prefix_sq[i] + c * c;
        }
        let mut table = vec![vec![f64::INFINITY; n + 1]; k + 1];
        table[0][0] = 0.0;
        Self {
            table,
            prefix,
            prefix_sq,
            width,
        }
    }

    /// Within-bucket squared error of `counts[lo..hi)` around its mean.
    #[inline]
    pub fn sse(&self, lo: usize, hi: usize) -> f64 {
        let len = (hi - lo) as f64;
        let sum = self.prefix[hi] - self.prefix[lo];
        let sum_sq = self.prefix_sq[hi] - self.prefix_sq[lo];
        (sum_sq - sum * sum / len).max(0.0)
    }

    /// Optimal total SSE with all `k` buckets over the full domain.
    pub fn optimal_cost(&self) -> f64 {
        *self
            .table
            .last()
            .and_then(|row| row.last())
            .expect("non-empty table")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbench_core::Loss;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sse_known_values() {
        let dp = VOptDp::build(&[1.0, 3.0, 5.0], 1, 3);
        // Mean 3, SSE = 4 + 0 + 4 = 8.
        assert!((dp.sse(0, 3) - 8.0).abs() < 1e-9);
        assert_eq!(dp.sse(1, 2), 0.0);
    }

    #[test]
    fn dp_finds_obvious_partition() {
        // Two flat halves, k = 2 → zero cost.
        let mut counts = vec![5.0; 16];
        for c in counts[8..].iter_mut() {
            *c = 100.0;
        }
        let dp = VOptDp::build(&counts, 2, 16);
        assert!(dp.optimal_cost() < 1e-9);
    }

    #[test]
    fn capped_dp_matches_uncapped() {
        // On clustered data the V-optimal partition never uses very wide
        // buckets, so the width cap is lossless.
        let mut counts = vec![0.0; 128];
        for (i, c) in counts.iter_mut().enumerate() {
            *c = match i / 16 {
                0 => 10.0,
                1 => 50.0,
                2 => 10.0,
                3 => 200.0,
                4 => 0.0,
                5 => 75.0,
                6 => 30.0,
                _ => 5.0,
            };
        }
        let k = 13; // ceil(128/10)
        let capped = VOptDp::build(&counts, k, 16 * (128_usize.div_ceil(k)));
        let uncapped = VOptDp::build(&counts, k, 128);
        assert!(
            (capped.optimal_cost() - uncapped.optimal_cost()).abs() < 1e-9,
            "capped {} vs uncapped {}",
            capped.optimal_cost(),
            uncapped.optimal_cost()
        );
    }

    #[test]
    fn bucket_count_rule() {
        assert_eq!(StructureFirst::bucket_count(4096), 410);
        assert_eq!(StructureFirst::bucket_count(5), 1);
    }

    #[test]
    fn mean_variant_is_inconsistent() {
        // Strictly increasing data: k = n/10 buckets cannot represent n
        // distinct values → bias persists at ε → ∞ (Theorem 7).
        let counts: Vec<f64> = (0..100).map(|i| i as f64 * 10.0).collect();
        let x = DataVector::new(counts, Domain::D1(100));
        let w = Workload::identity(Domain::D1(100));
        let y = w.evaluate(&x);
        let mut rng = StdRng::seed_from_u64(130);
        let est = StructureFirst::mean_based()
            .run_eps(&x, &w, 1e9, &mut rng)
            .unwrap();
        let err = Loss::L2.eval(&y, &w.evaluate_cells(&est));
        assert!(err > 1.0, "bias should persist: err {err}");
    }

    #[test]
    fn hierarchical_variant_is_consistent() {
        let counts: Vec<f64> = (0..100).map(|i| i as f64 * 10.0).collect();
        let x = DataVector::new(counts, Domain::D1(100));
        let w = Workload::identity(Domain::D1(100));
        let y = w.evaluate(&x);
        let mut rng = StdRng::seed_from_u64(131);
        let est = StructureFirst::new()
            .run_eps(&x, &w, 1e10, &mut rng)
            .unwrap();
        let err = Loss::L2.eval(&y, &w.evaluate_cells(&est));
        assert!(err < 1.0, "modified SF should be consistent: err {err}");
    }

    #[test]
    fn runs_at_realistic_settings() {
        let mut rng = StdRng::seed_from_u64(132);
        let counts: Vec<f64> = (0..256).map(|i| ((i * 31) % 17) as f64).collect();
        let x = DataVector::new(counts, Domain::D1(256));
        let w = Workload::prefix_1d(256);
        let est = StructureFirst::new()
            .run_eps(&x, &w, 0.1, &mut rng)
            .unwrap();
        assert_eq!(est.len(), 256);
        assert!(est.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn buckets_reuse_hier_pool_and_match_fresh_workspaces() {
        // Repeated trials on one vector sample buckets of recurring
        // lengths: the pooled hierarchies, the memoized V-optimal table
        // and the recycled buffers must release exactly what a fresh
        // workspace releases.
        let n = 1000;
        let counts: Vec<f64> = (0..n)
            .map(|i| {
                if i % 97 == 3 {
                    5_000.0
                } else {
                    ((i * 31) % 17) as f64
                }
            })
            .collect();
        let x = DataVector::new(counts, Domain::D1(n));
        let plan = StructureFirst::new()
            .plan(&Domain::D1(n), &Workload::prefix_1d(n))
            .unwrap();
        let mut ws = Workspace::new();
        for trial in 0..8 {
            let release = |ws: &mut Workspace| {
                let mut budget = BudgetLedger::new(0.1);
                let mut rng = StdRng::seed_from_u64(133 + trial);
                plan.execute(&x, ws, &mut budget, &mut rng).unwrap()
            };
            let fresh = release(&mut Workspace::new());
            let reused = release(&mut ws);
            let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&fresh.estimate),
                bits(&reused.estimate),
                "trial {trial}"
            );
            assert_eq!(fresh.budget_trace, reused.budget_trace);
            ws.give_f64(reused.estimate);
        }
        let pool: Box<HierPool> = ws.take_typed();
        assert!(
            pool.hits > pool.misses,
            "later trials should hit the pool (hits={}, misses={})",
            pool.hits,
            pool.misses
        );
    }

    #[test]
    fn rejects_2d() {
        assert!(!StructureFirst::new().supports(&Domain::D2(8, 8)));
    }
}
