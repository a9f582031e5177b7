//! AHP — Accurate Histogram Publication (Zhang, Chen, Xu, Meng, Xie;
//! ICDM 2014), plus the benchmark's Rparam-tuned AHP★.
//!
//! Two stages sharing the budget via `ρ`:
//!
//! 1. **Structure** (ε₁ = ρ·ε): obtain noisy cell counts, zero everything
//!    below the threshold `t = η·√(ln n)/ε₁`, sort the survivors by value,
//!    and greedily cluster adjacent sorted values. A cluster is extended as
//!    long as the marginal increase in within-cluster L1 deviation stays
//!    below the `√2/ε₂` noise cost a separate measurement would incur.
//! 2. **Measurement** (ε₂ = (1−ρ)·ε): measure each cluster's total count
//!    (sensitivity 1: the clusters partition the measured cells) and spread
//!    it uniformly over the cluster's cells. Thresholded cells stay 0.
//!
//! `ρ` and `η` are **free parameters** in the original paper (Principle 6
//! violation); [`Ahp::star`] applies the benchmark's `Rparam` schedule
//! trained on synthetic shapes. AHP is consistent (threshold and cluster
//! widths vanish as ε → ∞) and scale-ε exchangeable (Theorem 12).

use dpbench_core::mechanism::{fingerprint_words, DimSupport, FnPlan, Plan, PlanDiagnostics};
use dpbench_core::primitives::laplace;
use dpbench_core::{BudgetLedger, DataVector, Domain, MechError, MechInfo, Mechanism, Workload};
use rand::RngCore;
use std::ops::Range;

/// The AHP mechanism.
#[derive(Debug, Clone)]
pub struct Ahp {
    name: String,
    params: AhpParams,
}

/// How AHP's (ρ, η) are chosen.
#[derive(Debug, Clone)]
enum AhpParams {
    /// Fixed (ρ, η).
    Fixed { rho: f64, eta: f64 },
    /// Signal-indexed schedule `(signal upper bound, ρ, η)` — the AHP★
    /// repair. Only the first row's ρ runs (see [`Ahp::pick_params`]).
    Tuned(Vec<(f64, f64, f64)>),
}

/// Default AHP★ schedule (trained with `dpbench_harness::tuning` on
/// synthetic power-law/normal shapes): at low signal spend most budget on
/// structure with an aggressive threshold; at high signal structure is
/// cheap and measurement dominates.
pub fn default_star_schedule() -> Vec<(f64, f64, f64)> {
    vec![
        (1_000.0, 0.85, 1.5),
        (100_000.0, 0.5, 1.0),
        (f64::INFINITY, 0.3, 0.4),
    ]
}

impl Ahp {
    /// AHP with explicit parameters (the original algorithm; Zhang et al.
    /// tuned these per dataset, which DPBench flags as a Principle 6
    /// violation).
    pub fn with_params(rho: f64, eta: f64) -> Self {
        assert!((0.0..1.0).contains(&rho) && rho > 0.0, "ρ must be in (0,1)");
        assert!(eta >= 0.0);
        Self {
            name: "AHP".into(),
            params: AhpParams::Fixed { rho, eta },
        }
    }

    /// AHP with the paper's commonly used default (ρ = 0.5, η = 1.0).
    pub fn original() -> Self {
        Self::with_params(0.5, 1.0)
    }

    /// AHP★: parameters selected by the trained Rparam schedule keyed on
    /// the ε·scale product (requires no side information: the signal is
    /// computed from the *noisy* structure-stage total).
    pub fn star() -> Self {
        Self {
            name: "AHP*".into(),
            params: AhpParams::Tuned(default_star_schedule()),
        }
    }

    /// The (ρ, η) this mechanism runs at signal ε·scale. AHP★ must fix ρ
    /// before it spends any budget, so it runs its schedule's first ρ at
    /// every signal; only η follows the signal.
    pub fn pick_params(&self, signal: f64) -> (f64, f64) {
        match &self.params {
            AhpParams::Fixed { rho, eta } => (*rho, *eta),
            AhpParams::Tuned(table) => table
                .iter()
                .find(|(bound, _, _)| signal <= *bound)
                .or(table.last())
                .map(|(_, _, eta)| (table[0].1, *eta))
                .expect("non-empty schedule"),
        }
    }
}

impl Mechanism for Ahp {
    fn info(&self) -> MechInfo {
        let mut info = MechInfo::new(self.name.clone(), DimSupport::MultiD);
        info.data_dependent = true;
        info.partitioning = true;
        info
    }

    fn plan(&self, domain: &Domain, _workload: &Workload) -> Result<Box<dyn Plan>, MechError> {
        let mech = self.clone();
        Ok(FnPlan::boxed(
            *domain,
            PlanDiagnostics::data_dependent(self.name.clone()),
            move |x, _ws, budget, rng| mech.cluster_and_measure(x, budget, rng),
        ))
    }

    fn config_fingerprint(&self) -> u64 {
        let mut words = Vec::new();
        match &self.params {
            AhpParams::Fixed { rho, eta } => {
                words.push(0);
                words.push(rho.to_bits());
                words.push(eta.to_bits());
            }
            AhpParams::Tuned(table) => {
                words.push(1);
                for (bound, rho, eta) in table {
                    words.push(bound.to_bits());
                    words.push(rho.to_bits());
                    words.push(eta.to_bits());
                }
            }
        }
        fingerprint_words(&words)
    }
}

impl Ahp {
    /// The private pipeline: threshold + cluster (ε₁) then cluster
    /// measurement (ε₂).
    fn cluster_and_measure(
        &self,
        x: &DataVector,
        budget: &mut BudgetLedger,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<f64>, MechError> {
        let n = x.n_cells();
        let eps = budget.total();
        // Stage 1: noisy structure. ρ must be fixed before any budget is
        // spent, so it does not follow the signal (see `pick_params`).
        let (rho, _) = self.pick_params(0.0);
        let eps1 = budget.spend_fraction_as("structure", rho)?;
        let eps2 = budget.spend_all_as("clusters");
        let mut noisy: Vec<f64> = x
            .counts()
            .iter()
            .map(|&c| c + laplace(1.0 / eps1, rng))
            .collect();

        // Signal for the tuned η: ε times the sum of the stage-1 noisy
        // counts, a scale estimate that costs no extra budget.
        let noisy_total: f64 = noisy.iter().sum::<f64>().max(1.0);
        let (_, eta) = self.pick_params(eps * noisy_total);

        // Threshold small counts to zero.
        let threshold = eta * (n as f64).ln().max(1.0).sqrt() / eps1;
        for v in noisy.iter_mut() {
            if *v <= threshold {
                *v = 0.0;
            }
        }

        // Sort surviving cells by noisy value (descending) and cluster.
        let mut survivors: Vec<usize> = (0..n).filter(|&i| noisy[i] > 0.0).collect();
        survivors.sort_by(|&a, &b| noisy[b].partial_cmp(&noisy[a]).expect("NaN count"));

        let clusters = greedy_clusters(&survivors, &noisy, 2.0_f64.sqrt() / eps2);

        // Stage 2: measure each cluster total; the clusters partition the
        // surviving cells, so the vector of totals has sensitivity 1.
        let mut est = vec![0.0; n];
        for range in clusters {
            let cluster = &survivors[range];
            let true_total: f64 = cluster.iter().map(|&i| x.counts()[i]).sum();
            let noisy_total = true_total + laplace(1.0 / eps2, rng);
            let share = noisy_total / cluster.len() as f64;
            for &i in cluster {
                est[i] = share;
            }
        }
        Ok(est)
    }
}

/// Greedily cluster cells (pre-sorted by descending noisy value): extend
/// the current cluster while the marginal L1-deviation increase stays
/// below `noise_cost` (the expected absolute error of one extra Laplace
/// measurement). Returns each cluster as a range of positions in `sorted`.
///
/// Makes every decision [`greedy_clusters_naive`] makes, in one pass. The
/// run sum is added up in the same order, so each candidate mean has the
/// same bits. A run sorted descending splits at its mean `m` into the `p`
/// values above it and the rest, so its deviation is
/// `(H − p·m) + ((len − p)·m − (T − H))` for the run sum `T` and the sum
/// `H` of the first `p` values: two reads of the run's prefix sums, at a
/// split that moves forward as the mean falls. Each such estimate is
/// within `7γₙ·(Σ|v| + len·|m|)` of the sequential sum the naive loop
/// computes (Higham's `γₙ = n·u/(1 − n·u)`: `6γₙ` for the prefix-sum form,
/// `γₙ` for the sequential sum), so the increase it compares is within
/// `8γₙ` times the two runs' scales. Only a decision within twice that
/// band of `noise_cost` recomputes the two sequential sums and decides
/// exactly as the naive loop does.
pub fn greedy_clusters(sorted: &[usize], values: &[f64], noise_cost: f64) -> Vec<Range<usize>> {
    let v: Vec<f64> = sorted.iter().map(|&i| values[i]).collect();
    let mut clusters = Vec::new();
    // `prefix[j]`: the sum of the run's first j values, added in order.
    let mut prefix = Vec::new();
    let mut start = 0;
    while start < v.len() {
        prefix.clear();
        prefix.extend([0.0, v[start]]);
        let mut abs_sum = v[start].abs();
        let mut end = start + 1;
        // How many of the run's values lie above its mean.
        let mut above = 0;
        // The accepted run's deviation, its error scale, and the mean to
        // recompute its sequential sum at (`None`: `dev` is that sum).
        let (mut dev, mut dev_scale, mut dev_mean) = (0.0, 0.0, None);
        while end < v.len() {
            let run = &v[start..=end];
            let len = run.len();
            let sum = prefix[len - 1] + v[end];
            let mean = sum / len as f64;
            prefix.push(sum);
            abs_sum += v[end].abs();
            while above < len && run[above] > mean {
                above += 1;
            }
            while above > 0 && run[above - 1] <= mean {
                above -= 1;
            }
            let head = prefix[above];
            let candidate_dev =
                (head - above as f64 * mean) + ((len - above) as f64 * mean - (sum - head));
            let scale = abs_sum + len as f64 * mean.abs();
            let band = 8.0 * (len + 1) as f64 * f64::EPSILON * (scale + dev_scale)
                + 2.0 * f64::EPSILON * noise_cost.abs();
            // Outside the band the estimate decides; inside it, or after an
            // overflow, the two sequential sums do.
            let diff = candidate_dev - dev;
            if diff.is_finite() && diff + band < noise_cost {
                (dev, dev_scale, dev_mean) = (candidate_dev, scale, Some(mean));
            } else if diff.is_finite() && diff - band > noise_cost {
                break;
            } else {
                let exact_dev = dev_mean.map_or(dev, |m| deviation(&run[..len - 1], m));
                let exact = deviation(run, mean);
                if exact - exact_dev > noise_cost {
                    break;
                }
                (dev, dev_scale, dev_mean) = (exact, 0.0, None);
            }
            end += 1;
        }
        clusters.push(start..end);
        start = end;
    }
    clusters
}

/// `Σ |x − mean|` over `run`, added in order.
fn deviation(run: &[f64], mean: f64) -> f64 {
    run.iter().map(|&x| (x - mean).abs()).sum()
}

/// The reference for [`greedy_clusters`]: each extension rescans the whole
/// run for its deviation, so a run of `n` cells costs `O(n²)`, and runs
/// are long (AHP★'s reach 3,000 cells at BJ-CABS-S, 128 × 128, scale 10⁶).
pub fn greedy_clusters_naive(
    sorted: &[usize],
    values: &[f64],
    noise_cost: f64,
) -> Vec<Range<usize>> {
    let mut clusters = Vec::new();
    let mut start = 0;
    while start < sorted.len() {
        let mut end = start + 1;
        let mut sum = values[sorted[start]];
        let mut dev = 0.0;
        while end < sorted.len() {
            let candidate_sum = sum + values[sorted[end]];
            let len = (end - start + 1) as f64;
            let mean = candidate_sum / len;
            let candidate_dev: f64 = sorted[start..=end]
                .iter()
                .map(|&i| (values[i] - mean).abs())
                .sum();
            if candidate_dev - dev <= noise_cost {
                sum = candidate_sum;
                dev = candidate_dev;
                end += 1;
            } else {
                break;
            }
        }
        clusters.push(start..end);
        start = end;
    }
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbench_core::{Domain, Loss};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn consistency_error_vanishes_at_high_eps() {
        let counts: Vec<f64> = (0..64).map(|i| ((i * 13) % 29) as f64 * 10.0).collect();
        let x = DataVector::new(counts, Domain::D1(64));
        let w = Workload::prefix_1d(64);
        let y = w.evaluate(&x);
        let mut rng = StdRng::seed_from_u64(60);
        let est = Ahp::original().run_eps(&x, &w, 1e8, &mut rng).unwrap();
        let err = Loss::L2.eval(&y, &w.evaluate_cells(&est));
        // Threshold → 0 and clusters → singletons: near-exact recovery.
        assert!(err < 0.5, "err {err}");
    }

    #[test]
    fn thresholding_zeroes_sparse_cells() {
        let mut counts = vec![0.0; 256];
        counts[7] = 10_000.0;
        let x = DataVector::new(counts, Domain::D1(256));
        let w = Workload::identity(Domain::D1(256));
        let mut rng = StdRng::seed_from_u64(61);
        let est = Ahp::original().run_eps(&x, &w, 1.0, &mut rng).unwrap();
        // Most of the 255 empty cells must be exactly zero (thresholded).
        let zeros = est.iter().filter(|&&v| v == 0.0).count();
        assert!(zeros > 200, "only {zeros} zero cells");
        // And the spike survives.
        assert!(est[7] > 5_000.0, "spike estimate {}", est[7]);
    }

    #[test]
    fn clusters_partition_input() {
        let values = vec![9.0, 9.1, 9.2, 5.0, 1.0, 1.05];
        let sorted: Vec<usize> = vec![2, 1, 0, 3, 5, 4]; // descending by value
        let clusters = greedy_clusters(&sorted, &values, 0.5);
        assert_eq!(clusters, greedy_clusters_naive(&sorted, &values, 0.5));
        // Consecutive ranges covering every sorted position.
        assert_eq!(clusters.first().unwrap().start, 0);
        assert_eq!(clusters.last().unwrap().end, sorted.len());
        assert!(clusters.windows(2).all(|w| w[0].end == w[1].start));
        // The 9-ish values cluster together; 5.0 is isolated.
        assert_eq!(clusters[0], 0..3);
        assert_eq!(clusters[1], 3..4);
    }

    #[test]
    fn tight_noise_cost_gives_singletons() {
        let values = vec![1.0, 5.0, 9.0];
        let sorted = vec![2, 1, 0];
        let clusters = greedy_clusters(&sorted, &values, 1e-9);
        assert_eq!(clusters, vec![0..1, 1..2, 2..3]);
        assert_eq!(clusters, greedy_clusters_naive(&sorted, &values, 1e-9));
    }

    #[test]
    fn star_runs_within_budget() {
        let mut counts = vec![0.0; 128];
        counts[3] = 5_000.0;
        counts[64] = 2_000.0;
        let x = DataVector::new(counts, Domain::D1(128));
        let w = Workload::prefix_1d(128);
        let mut rng = StdRng::seed_from_u64(62);
        let est = Ahp::star().run_eps(&x, &w, 0.1, &mut rng).unwrap();
        assert_eq!(est.len(), 128);
    }

    #[test]
    fn runs_2d() {
        let x = DataVector::new(vec![4.0; 16 * 16], Domain::D2(16, 16));
        let w = Workload::identity(Domain::D2(16, 16));
        let mut rng = StdRng::seed_from_u64(63);
        let est = Ahp::original().run_eps(&x, &w, 1.0, &mut rng).unwrap();
        assert_eq!(est.len(), 256);
    }

    #[test]
    #[should_panic(expected = "ρ must be in (0,1)")]
    fn rejects_bad_rho() {
        Ahp::with_params(1.0, 1.0);
    }
}
