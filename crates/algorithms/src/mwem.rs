//! MWEM — Multiplicative Weights / Exponential Mechanism (Hardt, Ligett,
//! McSherry; NIPS 2012), plus the benchmark's repaired variant MWEM★.
//!
//! MWEM maintains a synthetic distribution over the domain, initialized
//! uniform at the (assumed known) dataset scale. For `T` rounds it (a)
//! privately selects the workload query on which the synthetic data is most
//! wrong (exponential mechanism, budget `ε/2T`), (b) measures that query
//! with Laplace noise (budget `ε/2T`), and (c) applies multiplicative
//! weights updates over the measurement history.
//!
//! Paper findings reproduced here:
//! * `T` is a **free parameter** (Principle 6 violation in the original):
//!   the pre-print used the best `T` per task. [`Mwem::original`] fixes
//!   `T = 10` as in the paper's evaluation.
//! * **MWEM★** ([`Mwem::star`]) applies the benchmark's `Rparam` repair: it
//!   estimates scale with a 5 % budget slice (removing the side-information
//!   assumption, Principle 7) and picks `T` from a trained lookup on the
//!   ε·scale product — the paper reports up to 27.9× error reduction at
//!   scale 10⁸ (Finding 7).
//! * MWEM is **inconsistent** (Theorem 8): with fixed `T`, at most `T`
//!   measured queries constrain the estimate, leaving bias that never
//!   vanishes as ε → ∞.
//!
//! The update is invariant to a global scale factor, so the kernel keeps
//! the estimate as `g·w` (lazy scaling): an update sums and rescales only
//! the measured query's cells of `w` and renormalizes by changing the
//! scalar `g`. Once per round `g` is folded back into `w`. The original
//! kernel, which re-sums and rescales all n cells after every update, is
//! kept as the reference [`Mwem::plan_naive`]. Both draw the same
//! randomness in the same order; their outputs differ by rounding, which
//! `dpbench_harness::competitive::kernel_gate` checks is statistically
//! invisible.

use dpbench_core::mechanism::{fingerprint_words, DimSupport, FnPlan, Plan, PlanDiagnostics};
use dpbench_core::primitives::{exponential_mechanism, laplace};
use dpbench_core::query::PrefixTable;
use dpbench_core::{
    BudgetLedger, DataVector, Domain, MechError, MechInfo, Mechanism, RangeQuery, Workload,
};
use rand::RngCore;
use std::ops::Range;

/// How MWEM learns the dataset scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScaleSource {
    /// Use the true scale as free side information (the original
    /// algorithm; flagged in Table 1).
    SideInfo,
    /// Spend this fraction of ε on a Laplace estimate of the scale
    /// (the benchmark's `Rside` repair; the paper uses ρ_total = 0.05).
    Estimate(f64),
}

/// How the number of rounds `T` is chosen.
#[derive(Debug, Clone)]
pub enum Rounds {
    /// Fixed `T` (original MWEM uses 10 for 1-D range queries).
    Fixed(usize),
    /// Lookup `T` from the ε·scale product using a trained table of
    /// `(signal upper bound, T)` rows, last row catching everything above.
    /// This is the `Rparam`-learned schedule of MWEM★.
    Tuned(Vec<(f64, usize)>),
}

/// The MWEM mechanism.
#[derive(Debug, Clone)]
pub struct Mwem {
    name: String,
    rounds: Rounds,
    scale_source: ScaleSource,
    /// Multiplicative-weights sweeps over the measurement history per
    /// round (Hardt et al.'s practical implementations iterate history).
    pub mw_sweeps: usize,
}

/// Default MWEM★ schedule: `T` grows with the signal strength ε·scale —
/// stronger signal supports more (and therefore finer) measurements.
/// Trained with `dpbench_harness::tuning` on synthetic power-law and
/// normal shapes (paper Section 6.4); `T` ranges 2…100 as in the paper.
pub fn default_star_schedule() -> Vec<(f64, usize)> {
    vec![
        (30.0, 2),
        (300.0, 5),
        (3_000.0, 10),
        (30_000.0, 30),
        (300_000.0, 60),
        (f64::INFINITY, 100),
    ]
}

impl Mwem {
    /// The original MWEM: `T = 10`, true scale as side information.
    pub fn original() -> Self {
        Self {
            name: "MWEM".into(),
            rounds: Rounds::Fixed(10),
            scale_source: ScaleSource::SideInfo,
            mw_sweeps: 3,
        }
    }

    /// MWEM★: repaired per Principles 6–7 — scale estimated with 5 % of ε,
    /// `T` selected from the trained schedule.
    pub fn star() -> Self {
        Self {
            name: "MWEM*".into(),
            rounds: Rounds::Tuned(default_star_schedule()),
            scale_source: ScaleSource::Estimate(0.05),
            mw_sweeps: 3,
        }
    }

    /// The original MWEM with the side-information repair only: `T = 10`
    /// stays fixed but the scale is estimated with a 5 % budget slice
    /// (the paper's Section 6.4 experiment quantifying what MWEM gains
    /// from knowing the scale for free).
    pub fn original_repaired() -> Self {
        Self {
            name: "MWEM(Rside)".into(),
            rounds: Rounds::Fixed(10),
            scale_source: ScaleSource::Estimate(0.05),
            mw_sweeps: 3,
        }
    }

    /// MWEM with an explicit fixed `T` (used by the tuning harness).
    pub fn with_rounds(t: usize) -> Self {
        assert!(t >= 1);
        Self {
            name: format!("MWEM[T={t}]"),
            rounds: Rounds::Fixed(t),
            scale_source: ScaleSource::SideInfo,
            mw_sweeps: 3,
        }
    }

    /// The number of rounds `T` this mechanism runs at signal ε·scale.
    pub fn pick_rounds(&self, signal: f64) -> usize {
        match &self.rounds {
            Rounds::Fixed(t) => *t,
            Rounds::Tuned(table) => table
                .iter()
                .find(|(bound, _)| signal <= *bound)
                .or(table.last())
                .map(|(_, t)| *t)
                .expect("non-empty schedule"),
        }
    }
}

impl Mechanism for Mwem {
    fn info(&self) -> MechInfo {
        let mut info = MechInfo::new(self.name.clone(), DimSupport::MultiD);
        info.data_dependent = true;
        info.workload_aware = true;
        info.consistent = false; // Theorem 8
        info.side_info = match self.scale_source {
            ScaleSource::SideInfo => Some("scale".into()),
            ScaleSource::Estimate(_) => None,
        };
        info
    }

    fn plan(&self, domain: &Domain, workload: &Workload) -> Result<Box<dyn Plan>, MechError> {
        self.plan_with::<LazyScale>(domain, workload)
    }

    fn config_fingerprint(&self) -> u64 {
        let mut words = vec![self.mw_sweeps as u64];
        match self.scale_source {
            ScaleSource::SideInfo => words.push(0),
            ScaleSource::Estimate(rho) => {
                words.push(1);
                words.push(rho.to_bits());
            }
        }
        match &self.rounds {
            Rounds::Fixed(t) => words.push(*t as u64),
            Rounds::Tuned(table) => {
                for (bound, t) in table {
                    words.push(bound.to_bits());
                    words.push(*t as u64);
                }
            }
        }
        fingerprint_words(&words)
    }
}

impl Mwem {
    /// MWEM planned with the original kernel, retained as the reference
    /// for the lazy-scale kernel: every update re-sums and rescales all n
    /// cells. Used only by tests.
    pub fn plan_naive(
        &self,
        domain: &Domain,
        workload: &Workload,
    ) -> Result<Box<dyn Plan>, MechError> {
        self.plan_with::<Rescaled>(domain, workload)
    }

    fn plan_with<E: Estimate + 'static>(
        &self,
        domain: &Domain,
        workload: &Workload,
    ) -> Result<Box<dyn Plan>, MechError> {
        if workload.is_empty() {
            return Err(MechError::InvalidConfig(
                "MWEM needs a non-empty workload".into(),
            ));
        }
        let mech = self.clone();
        let w = workload.clone();
        Ok(FnPlan::boxed(
            *domain,
            PlanDiagnostics::data_dependent(self.name.clone()),
            move |x, _ws, budget, rng| mech.iterate::<E>(x, &w, budget, rng),
        ))
    }

    /// The private select–measure–update loop.
    fn iterate<E: Estimate>(
        &self,
        x: &DataVector,
        workload: &Workload,
        budget: &mut BudgetLedger,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<f64>, MechError> {
        // Scale: side info or noisy estimate.
        let total = match self.scale_source {
            ScaleSource::SideInfo => x.scale(),
            ScaleSource::Estimate(rho) => {
                let eps_scale = budget.spend_fraction_as("scale-estimate", rho)?;
                (x.scale() + laplace(1.0 / eps_scale, rng)).max(1.0)
            }
        };
        let eps = budget.spend_all_as("rounds");
        let t_rounds = self.pick_rounds(eps * total).max(1);
        let eps_round = eps / t_rounds as f64;

        let y_true = workload.evaluate(x);
        let queries = workload.queries();

        // Synthetic estimate: uniform at the (noisy) scale.
        let mut est = E::uniform(x.domain(), total);
        let mut history: Vec<(RangeQuery, f64)> = Vec::with_capacity(t_rounds);

        for _ in 0..t_rounds {
            // (a) Select the worst query via the exponential mechanism.
            let est_answers = est.answers(queries);
            let scores: Vec<f64> = y_true
                .iter()
                .zip(&est_answers)
                .map(|(t, e)| (t - e).abs())
                .collect();
            let chosen = exponential_mechanism(&scores, 1.0, eps_round / 2.0, rng);
            // (b) Measure it with Laplace noise.
            let measured = y_true[chosen] + laplace(2.0 / eps_round, rng);
            history.push((queries[chosen], measured));
            // (c) Multiplicative-weights sweeps over the history.
            for _ in 0..self.mw_sweeps {
                for (q, m) in &history {
                    est.update(q, *m);
                }
            }
        }
        Ok(est.into_cells())
    }
}

/// MWEM's synthetic distribution: it answers the workload once per round
/// and applies one multiplicative-weights update per measurement.
trait Estimate {
    /// The uniform distribution of mass `total` over `domain`.
    fn uniform(domain: Domain, total: f64) -> Self;
    /// The estimate's answer to every query.
    fn answers(&mut self, queries: &[RangeQuery]) -> Vec<f64>;
    /// Multiply the cells of `q` by `exp((m − answer) / 2·total)`, with
    /// the exponent clamped to ±20 to stay numerically safe under huge
    /// noise, and renormalize to the total.
    fn update(&mut self, q: &RangeQuery, m: f64);
    /// The final estimate's cells.
    fn into_cells(self) -> Vec<f64>;
}

/// The update's exponent clamp.
const MAX_EXPONENT: f64 = 20.0;

/// The original kernel: after every update all n cells are re-summed in
/// index order and rescaled to the total.
struct Rescaled {
    est: Vec<f64>,
    domain: Domain,
    total: f64,
}

impl Estimate for Rescaled {
    fn uniform(domain: Domain, total: f64) -> Self {
        let n = domain.n_cells();
        Self {
            est: vec![total / n as f64; n],
            domain,
            total,
        }
    }

    fn answers(&mut self, queries: &[RangeQuery]) -> Vec<f64> {
        let table = PrefixTable::build_cells(&self.est, self.domain);
        queries.iter().map(|q| table.eval(q)).collect()
    }

    fn update(&mut self, q: &RangeQuery, m: f64) {
        let (est, domain) = (&mut self.est, self.domain);
        let mut cur = 0.0;
        for r in q.lo.0..=q.hi.0 {
            for c in q.lo.1..=q.hi.1 {
                cur += est[domain.index((r, c))];
            }
        }
        let exponent = ((m - cur) / (2.0 * self.total)).clamp(-MAX_EXPONENT, MAX_EXPONENT);
        let factor = exponent.exp();
        for r in q.lo.0..=q.hi.0 {
            for c in q.lo.1..=q.hi.1 {
                est[domain.index((r, c))] *= factor;
            }
        }
        let sum: f64 = est.iter().sum();
        if sum > 0.0 {
            let scale = self.total / sum;
            for e in est.iter_mut() {
                *e *= scale;
            }
        }
    }

    fn into_cells(self) -> Vec<f64> {
        self.est
    }
}

/// `Σw` is kept inside `[2⁻⁵¹², 2⁵¹²]`: one update moves it by at most
/// e^±20 < 2^±29, so no cell of `w` can overflow, and no cell holding more
/// than 2⁻⁵³³ of the mass can flush to zero.
const SUM_MAX: f64 = 1.340_780_792_994_259_7e154; // 2^512
const SUM_MIN: f64 = 1.0 / SUM_MAX;

/// How far the running `Σw` may move, in units of its value, before it is
/// re-summed exactly. A shrinking update cancels: its rounding error is
/// relative to the mass it removed, not to what is left. Bounding the
/// moved mass to 2⁸·Σw keeps `Σw`'s relative error near 2⁸ ulps.
const MAX_DRIFT: f64 = 256.0;

/// The lazy-scale kernel: the estimate is `g·w`. An update sums and
/// rescales only the query's cells of `w` (row slices, no per-cell index
/// arithmetic) and tracks `Σw` incrementally, so renormalizing to the
/// total is the scalar `g = total / Σw`. `g` is folded into `w` and `Σw`
/// re-summed exactly once per round, and early when `Σw` leaves
/// `[SUM_MIN, SUM_MAX]` or drifts by more than [`MAX_DRIFT`].
struct LazyScale {
    w: Vec<f64>,
    g: f64,
    sum_w: f64,
    /// Mass moved by updates since `sum_w` was last summed exactly.
    moved: f64,
    domain: Domain,
    total: f64,
    /// Cumulative table of `w`, rebuilt in place every round.
    table: PrefixTable,
}

impl LazyScale {
    /// `w ← g·w`, then re-sum `Σw` exactly and renormalize `g`.
    fn fold(&mut self) {
        let g = self.g;
        for v in self.w.iter_mut() {
            *v *= g;
        }
        self.sum_w = sum(&self.w);
        self.g = if self.sum_w > 0.0 {
            self.total / self.sum_w
        } else {
            1.0
        };
        self.moved = 0.0;
    }
}

impl Estimate for LazyScale {
    fn uniform(domain: Domain, total: f64) -> Self {
        let n = domain.n_cells();
        let w = vec![total / n as f64; n];
        let table = PrefixTable::build_cells(&w, domain);
        let mut est = Self {
            w,
            g: 1.0,
            sum_w: 0.0,
            moved: 0.0,
            domain,
            total,
            table,
        };
        est.fold();
        est
    }

    fn answers(&mut self, queries: &[RangeQuery]) -> Vec<f64> {
        self.fold();
        self.table.rebuild_cells(&self.w, self.domain);
        queries
            .iter()
            .map(|q| self.g * self.table.eval(q))
            .collect()
    }

    fn update(&mut self, q: &RangeQuery, m: f64) {
        let sum_q: f64 = row_spans(self.domain, q)
            .map(|span| sum(&self.w[span]))
            .sum();
        let cur = self.g * sum_q;
        let exponent = ((m - cur) / (2.0 * self.total)).clamp(-MAX_EXPONENT, MAX_EXPONENT);
        let factor = exponent.exp();
        for span in row_spans(self.domain, q) {
            for v in &mut self.w[span] {
                *v *= factor;
            }
        }
        let delta = (factor - 1.0) * sum_q;
        self.sum_w += delta;
        self.moved += delta.abs();
        if !(SUM_MIN..=SUM_MAX).contains(&self.sum_w) || self.moved > MAX_DRIFT * self.sum_w {
            self.fold();
        } else {
            self.g = self.total / self.sum_w;
        }
    }

    fn into_cells(mut self) -> Vec<f64> {
        self.fold();
        let g = self.g;
        for v in self.w.iter_mut() {
            *v *= g;
        }
        self.w
    }
}

/// The row-major index spans of `q`'s cells: one span per row of a 2-D
/// query, one span for a 1-D query.
fn row_spans(domain: Domain, q: &RangeQuery) -> impl Iterator<Item = Range<usize>> {
    let (rows, cols, width) = match domain {
        Domain::D1(_) => (0..=0, q.lo.0..q.hi.0 + 1, 0),
        Domain::D2(_, c) => (q.lo.0..=q.hi.0, q.lo.1..q.hi.1 + 1, c),
    };
    rows.map(move |r| r * width + cols.start..r * width + cols.end)
}

/// Sum with eight independent accumulators, so the adds pipeline and
/// vectorize instead of forming one serial chain.
fn sum(xs: &[f64]) -> f64 {
    let mut acc = [0.0; 8];
    let chunks = xs.chunks_exact(8);
    let rest = chunks.remainder();
    for chunk in chunks {
        for (a, v) in acc.iter_mut().zip(chunk) {
            *a += v;
        }
    }
    let mut total =
        ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    for v in rest {
        total += v;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbench_core::{Domain, Loss};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spiky(n: usize, scale: f64) -> DataVector {
        let mut counts = vec![0.0; n];
        counts[0] = scale * 0.6;
        counts[n / 3] = scale * 0.4;
        DataVector::new(counts, Domain::D1(n))
    }

    #[test]
    fn preserves_total_scale_with_side_info() {
        let x = spiky(64, 1000.0);
        let w = Workload::prefix_1d(64);
        let mut rng = StdRng::seed_from_u64(50);
        let est = Mwem::original().run_eps(&x, &w, 1.0, &mut rng).unwrap();
        let total: f64 = est.iter().sum();
        assert!((total - 1000.0).abs() < 1e-6, "total {total}");
    }

    #[test]
    fn improves_over_uniform_start() {
        let x = spiky(64, 10_000.0);
        let w = Workload::prefix_1d(64);
        let y = w.evaluate(&x);
        let uniform_est = vec![10_000.0 / 64.0; 64];
        let uniform_err = Loss::L2.eval(&y, &w.evaluate_cells(&uniform_est));
        let mut rng = StdRng::seed_from_u64(51);
        let mut got_better = 0;
        for _ in 0..5 {
            let est = Mwem::original().run_eps(&x, &w, 1.0, &mut rng).unwrap();
            let err = Loss::L2.eval(&y, &w.evaluate_cells(&est));
            if err < uniform_err {
                got_better += 1;
            }
        }
        assert!(
            got_better >= 4,
            "MWEM beat UNIFORM only {got_better}/5 times"
        );
    }

    #[test]
    fn inconsistent_fixed_t_leaves_bias_at_high_eps() {
        // n distinct cell values with prefix workload and T=3 rounds: three
        // measured queries cannot resolve 32 cells.
        let counts: Vec<f64> = (1..=32).map(f64::from).collect();
        let x = DataVector::new(counts, Domain::D1(32));
        let w = Workload::prefix_1d(32);
        let y = w.evaluate(&x);
        let mut rng = StdRng::seed_from_u64(52);
        let est = Mwem::with_rounds(3).run_eps(&x, &w, 1e7, &mut rng).unwrap();
        let err = Loss::L2.eval(&y, &w.evaluate_cells(&est));
        assert!(err > 1.0, "bias should persist: err {err}");
    }

    #[test]
    fn star_estimates_scale_within_budget() {
        let x = spiky(64, 100_000.0);
        let w = Workload::prefix_1d(64);
        let mut rng = StdRng::seed_from_u64(53);
        // run_eps debug-asserts the ledger; success implies correct accounting.
        let est = Mwem::star().run_eps(&x, &w, 0.5, &mut rng).unwrap();
        let total: f64 = est.iter().sum();
        // Noisy scale should still be near the truth at this ε.
        assert!((total - 100_000.0).abs() < 2000.0, "total {total}");
    }

    #[test]
    fn schedule_lookup() {
        let m = Mwem::star();
        assert_eq!(m.pick_rounds(10.0), 2);
        assert_eq!(m.pick_rounds(1_000.0), 10);
        assert_eq!(m.pick_rounds(1e9), 100);
    }

    #[test]
    fn star_uses_more_rounds_at_higher_signal() {
        let m = Mwem::star();
        let low = m.pick_rounds(100.0);
        let high = m.pick_rounds(1e7);
        assert!(high > low);
    }

    #[test]
    fn rejects_empty_workload() {
        let x = spiky(8, 10.0);
        let w = Workload::new(Domain::D1(8), vec![]);
        let mut rng = StdRng::seed_from_u64(54);
        assert!(matches!(
            Mwem::original().run_eps(&x, &w, 1.0, &mut rng),
            Err(MechError::InvalidConfig(_))
        ));
    }

    #[test]
    fn runs_2d() {
        let mut counts = vec![0.0; 8 * 8];
        counts[9] = 500.0;
        let x = DataVector::new(counts, Domain::D2(8, 8));
        let mut rng = StdRng::seed_from_u64(55);
        let w = Workload::random_ranges(Domain::D2(8, 8), 100, &mut rng);
        let est = Mwem::original().run_eps(&x, &w, 1.0, &mut rng).unwrap();
        assert_eq!(est.len(), 64);
        assert!((est.iter().sum::<f64>() - 500.0).abs() < 1e-6);
    }
}
