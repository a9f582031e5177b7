//! The matrix mechanism (Li, Hay, Rastogi, Miklau, McGregor; PODS 2010 /
//! VLDBJ 2015) — the unifying framework behind every data-independent
//! algorithm in the benchmark (paper Section 3.1: "all of the data
//! independent algorithms studied here are instances of the matrix
//! mechanism").
//!
//! Given a *strategy matrix* `S` (each row a linear query over the `n`
//! cells), the mechanism releases `ŷ = S·x + Laplace(Δ_S/ε)` and
//! reconstructs cell estimates by least squares; any workload is then
//! answered from the reconstruction. The expected total squared error on a
//! workload `W` has the closed form
//!
//! `err(W, S) = (2·Δ_S²/ε²) · trace(W (SᵀS)⁻¹ Wᵀ)`
//!
//! which this module evaluates exactly (for small domains) — the paper's
//! "public error bounds" desideratum for data-independent algorithms, and
//! the oracle against which the fast tree inference is cross-validated.

use dpbench_core::mechanism::{fingerprint_words, DimSupport, FnPlan, Plan, PlanDiagnostics};
use dpbench_core::primitives::laplace;
use dpbench_core::{Domain, MechError, MechInfo, Mechanism, Workload};
use dpbench_transforms::matrix::{cholesky_solve_in_place, Matrix};

/// An explicit matrix-mechanism instance over a 1-D domain of size `n`.
#[derive(Debug, Clone)]
pub struct MatrixMechanism {
    strategy: Matrix,
    name: String,
    /// Content hash of the strategy, computed once at construction: the
    /// plan cache calls [`Mechanism::config_fingerprint`] on **every**
    /// lookup, and re-hashing an n×n matrix per lookup would put an O(n²)
    /// walk on the cache-hit fast path.
    fingerprint: u64,
}

impl MatrixMechanism {
    /// Wrap an explicit strategy matrix (rows = strategy queries).
    pub fn new(name: impl Into<String>, strategy: Matrix) -> Self {
        assert!(strategy.rows() > 0 && strategy.cols() > 0);
        // The strategy matrix IS the configuration: hash its shape and
        // every entry so same-named instances with different strategies
        // never share cached plans.
        let mut words = Vec::with_capacity(2 + strategy.rows() * strategy.cols());
        words.push(strategy.rows() as u64);
        words.push(strategy.cols() as u64);
        for r in 0..strategy.rows() {
            for c in 0..strategy.cols() {
                words.push(strategy[(r, c)].to_bits());
            }
        }
        let fingerprint = fingerprint_words(&words);
        Self {
            strategy,
            name: name.into(),
            fingerprint,
        }
    }

    /// The identity strategy: measure every cell (≡ IDENTITY).
    pub fn identity(n: usize) -> Self {
        Self::new("MM-IDENTITY", Matrix::identity(n))
    }

    /// The b-ary hierarchical strategy: every node of the tree over `n`
    /// cells (≡ H for b = 2, Hb for the optimized b), unweighted.
    pub fn hierarchical(n: usize, branching: usize) -> Self {
        let hier =
            crate::hierarchy::Hierarchy::build(dpbench_core::Domain::D1(n), branching, usize::MAX);
        let mut strategy = Matrix::zeros(hier.nodes.len(), n);
        for (r, node) in hier.nodes.iter().enumerate() {
            for i in node.query.lo.0..=node.query.hi.0 {
                strategy[(r, i)] = 1.0;
            }
        }
        Self::new(format!("MM-H{branching}"), strategy)
    }

    /// The Haar wavelet strategy with Privelet's weights folded in so that
    /// every row has sensitivity contribution 1 (≡ PRIVELET up to the
    /// shared noise calibration).
    pub fn wavelet(n: usize) -> Self {
        assert!(n.is_power_of_two());
        // Row k of the Haar analysis matrix, scaled by its Privelet weight.
        let mut strategy = Matrix::zeros(n, n);
        for k in 0..n {
            // Transform each unit vector to extract matrix columns.
            let mut unit = vec![0.0; n];
            unit[k] = 1.0;
            let coeffs = dpbench_transforms::wavelet::haar_forward(&unit);
            for (r, &c) in coeffs.coeffs.iter().enumerate() {
                let w = dpbench_transforms::wavelet::weight_for(r, n);
                strategy[(r, k)] = c * w;
            }
        }
        Self::new("MM-WAVELET", strategy)
    }

    /// The prefix strategy: measure all prefix sums (the Prefix workload
    /// used *as* the strategy).
    pub fn prefix(n: usize) -> Self {
        let mut strategy = Matrix::zeros(n, n);
        for r in 0..n {
            for c in 0..=r {
                strategy[(r, c)] = 1.0;
            }
        }
        Self::new("MM-PREFIX", strategy)
    }

    /// The strategy's L1 sensitivity `Δ_S`: the maximum absolute column
    /// sum (one record lands in one cell; its removal perturbs each
    /// strategy answer by that column's coefficient).
    pub fn sensitivity(&self) -> f64 {
        let s = &self.strategy;
        (0..s.cols())
            .map(|c| (0..s.rows()).map(|r| s[(r, c)].abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Exact expected **total squared error** answering `workload` at
    /// budget ε: `(2Δ²/ε²)·Σ_q w_qᵀ (SᵀS)⁻¹ w_q`. One O(n³) Cholesky
    /// factorization plus an O(n²) solve per query — fine up to n ≈ 1024.
    pub fn expected_total_squared_error(&self, workload: &Workload, eps: f64) -> Option<f64> {
        let n = self.strategy.cols();
        let st = self.strategy.transpose();
        let sts = st.matmul(&self.strategy);
        let factor = sts.cholesky()?;
        let delta = self.sensitivity();
        let noise = 2.0 * delta * delta / (eps * eps);
        let mut total = 0.0;
        for q in workload.queries() {
            // w_q as a dense vector.
            let mut w = vec![0.0; n];
            w[q.lo.0..=q.hi.0].fill(1.0);
            let z = dpbench_transforms::matrix::cholesky_solve(&factor, &w);
            let quad: f64 = w.iter().zip(&z).map(|(a, b)| a * b).sum();
            total += noise * quad;
        }
        Some(total)
    }
}

impl Mechanism for MatrixMechanism {
    fn info(&self) -> MechInfo {
        let mut info = MechInfo::new(self.name.clone(), DimSupport::OneD);
        info.extension = true; // analysis tool, not part of the paper's M
        info
    }

    fn supports(&self, domain: &dpbench_core::Domain) -> bool {
        matches!(domain, dpbench_core::Domain::D1(n) if *n == self.strategy.cols())
    }

    fn plan(&self, domain: &Domain, _workload: &Workload) -> Result<Box<dyn Plan>, MechError> {
        if !self.supports(domain) {
            return Err(MechError::Unsupported {
                mechanism: self.name.clone(),
                reason: format!(
                    "strategy is over {} cells, domain is {domain}",
                    self.strategy.cols()
                ),
            });
        }
        // The O(n³) factorization of the normal matrix SᵀS happens once
        // here; every execution then reconstructs with two O(n²) solves.
        let st = self.strategy.transpose();
        let sts = st.matmul(&self.strategy);
        let factor = sts.cholesky().ok_or_else(|| {
            MechError::InvalidConfig(format!("{}: strategy does not span the domain", self.name))
        })?;
        let delta = self.sensitivity();
        let diagnostics =
            PlanDiagnostics::data_independent(self.name.clone(), self.strategy.rows(), delta);
        let strategy = self.strategy.clone();
        Ok(FnPlan::boxed(
            *domain,
            diagnostics,
            move |x, ws, budget, rng| {
                let eps = budget.spend_all_as("strategy-rows");
                let mut answers = ws.take_f64(strategy.rows());
                strategy.matvec_into(x.counts(), &mut answers);
                for a in answers.iter_mut() {
                    *a += laplace(delta / eps, rng);
                }
                // Least squares via the cached factorization: SᵀS·x̂ =
                // Sᵀ·answers; the solve runs in place, so the rhs buffer
                // becomes the estimate.
                let mut estimate = ws.take_f64(st.rows());
                st.matvec_into(&answers, &mut estimate);
                cholesky_solve_in_place(&factor, &mut estimate);
                ws.give_f64(answers);
                Ok(estimate)
            },
        ))
    }

    fn config_fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbench_core::{DataVector, Loss};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_strategy_sensitivity_is_one() {
        assert_eq!(MatrixMechanism::identity(8).sensitivity(), 1.0);
    }

    #[test]
    fn hierarchical_sensitivity_is_tree_height() {
        // Every cell is counted once per level.
        let mm = MatrixMechanism::hierarchical(8, 2);
        assert_eq!(mm.sensitivity(), 4.0); // levels: 8,4,2,1 → height 4
    }

    #[test]
    fn wavelet_sensitivity_matches_privelet() {
        let n = 16;
        let mm = MatrixMechanism::wavelet(n);
        let expected = (n as f64).log2() + 1.0;
        assert!(
            (mm.sensitivity() - expected).abs() < 1e-9,
            "Δ = {} vs log2(n)+1 = {expected}",
            mm.sensitivity()
        );
    }

    #[test]
    fn prefix_strategy_sensitivity() {
        // Cell 0 appears in all n prefix queries.
        assert_eq!(MatrixMechanism::prefix(8).sensitivity(), 8.0);
    }

    #[test]
    fn identity_expected_error_closed_form() {
        // Identity strategy on the Identity workload: err = n·2/ε².
        let n = 16;
        let mm = MatrixMechanism::identity(n);
        let w = Workload::identity(Domain::D1(n));
        let err = mm.expected_total_squared_error(&w, 0.5).unwrap();
        assert!((err - n as f64 * 2.0 / 0.25).abs() < 1e-6);
    }

    #[test]
    fn hierarchy_beats_identity_on_prefix_in_theory() {
        // The hierarchy's log³(n) variance beats identity's linear growth
        // only once the domain is large enough (Qardaji et al.'s minimum
        // domain-size observation, discussed in the paper's Section 3.2);
        // n = 256 is past the crossover, n = 16 is below it.
        let n = 256;
        let w = Workload::prefix_1d(n);
        let id = MatrixMechanism::identity(n)
            .expected_total_squared_error(&w, 0.1)
            .unwrap();
        let h = MatrixMechanism::hierarchical(n, 2)
            .expected_total_squared_error(&w, 0.1)
            .unwrap();
        let wav = MatrixMechanism::wavelet(n)
            .expected_total_squared_error(&w, 0.1)
            .unwrap();
        assert!(h < id, "H {h} should beat identity {id} on Prefix at n=256");
        assert!(
            wav < id,
            "wavelet {wav} should beat identity {id} on Prefix"
        );

        // Below the crossover the flat strategy wins — the domain-size
        // effect the paper highlights.
        let w16 = Workload::prefix_1d(16);
        let id16 = MatrixMechanism::identity(16)
            .expected_total_squared_error(&w16, 0.1)
            .unwrap();
        let h16 = MatrixMechanism::hierarchical(16, 2)
            .expected_total_squared_error(&w16, 0.1)
            .unwrap();
        assert!(id16 < h16, "identity {id16} should beat H {h16} at n=16");
    }

    #[test]
    fn empirical_error_matches_closed_form() {
        let n = 32;
        let mm = MatrixMechanism::hierarchical(n, 2);
        let w = Workload::prefix_1d(n);
        let x = DataVector::new(vec![10.0; n], Domain::D1(n));
        let y = w.evaluate(&x);
        let eps = 1.0;
        let expected = mm.expected_total_squared_error(&w, eps).unwrap();
        let mut rng = StdRng::seed_from_u64(150);
        let trials = 300;
        let mut total_sq = 0.0;
        for _ in 0..trials {
            let est = mm.run_eps(&x, &w, eps, &mut rng).unwrap();
            let y_hat = w.evaluate_cells(&est);
            total_sq += y
                .iter()
                .zip(&y_hat)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>();
        }
        let measured = total_sq / trials as f64;
        let ratio = measured / expected;
        assert!(
            (0.85..1.15).contains(&ratio),
            "measured {measured:.1} vs closed form {expected:.1}"
        );
    }

    #[test]
    fn tree_inference_matches_matrix_mechanism() {
        // H-the-mechanism (fast tree inference) must produce the same
        // estimator as the explicit matrix mechanism with the same
        // strategy and per-level budgets — validated on expected error.
        let n = 16;
        let mm = MatrixMechanism::hierarchical(n, 2);
        let w = Workload::prefix_1d(n);
        let x = DataVector::new((0..n).map(|i| (i * 3) as f64).collect(), Domain::D1(n));
        let y = w.evaluate(&x);
        let mut rng = StdRng::seed_from_u64(151);
        let trials = 400;
        let (mut err_mm, mut err_h) = (0.0, 0.0);
        for _ in 0..trials {
            let a = mm.run_eps(&x, &w, 1.0, &mut rng).unwrap();
            err_mm += Loss::L2.eval(&y, &w.evaluate_cells(&a)).powi(2);
            let b = crate::hier::H::new()
                .run_eps(&x, &w, 1.0, &mut rng)
                .unwrap();
            err_h += Loss::L2.eval(&y, &w.evaluate_cells(&b)).powi(2);
        }
        // The explicit MM noises every row at the global sensitivity
        // (Δ = height) while H splits ε across levels (per-level
        // sensitivity 1); both are ε-DP and yield identical expected error
        // up to that equivalent calibration.
        let ratio = err_mm / err_h;
        assert!(
            (0.8..1.25).contains(&ratio),
            "matrix mechanism {err_mm:.1} vs tree H {err_h:.1}"
        );
    }

    #[test]
    fn unsupported_domain_rejected() {
        let mm = MatrixMechanism::identity(8);
        let x = DataVector::zeros(Domain::D1(16));
        let w = Workload::identity(Domain::D1(16));
        let mut rng = StdRng::seed_from_u64(152);
        assert!(mm.run_eps(&x, &w, 1.0, &mut rng).is_err());
    }
}
