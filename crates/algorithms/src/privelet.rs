//! PRIVELET — differential privacy via wavelet transforms (Xiao, Wang,
//! Gehrke; ICDE 2010).
//!
//! Publishes noisy Haar wavelet coefficients instead of noisy counts. With
//! Privelet's coefficient weights, the weighted sensitivity of the whole
//! transform is `log₂(n) + 1`, yet any range query touches only `O(log n)`
//! coefficients — giving polylogarithmic noise variance per range query
//! versus IDENTITY's linear growth. Data-independent and consistent
//! (an instance of the matrix mechanism with the wavelet strategy).
//!
//! 2-D inputs use the standard (separable) decomposition with sensitivity
//! `(log₂ r + 1)(log₂ c + 1)` and product weights.

use dpbench_core::mechanism::{DimSupport, FnPlan, Plan, PlanDiagnostics};
use dpbench_core::primitives::laplace;
use dpbench_core::{Domain, MechError, MechInfo, Mechanism, Workload};
use dpbench_transforms::wavelet::{
    haar_forward, haar_forward_2d, haar_inverse, haar_inverse_2d, weight_for, weight_for_2d,
};

/// The PRIVELET mechanism.
#[derive(Debug, Clone, Copy, Default)]
pub struct Privelet;

impl Privelet {
    /// Create a PRIVELET instance.
    pub fn new() -> Self {
        Self
    }
}

impl Mechanism for Privelet {
    fn info(&self) -> MechInfo {
        MechInfo::new("PRIVELET", DimSupport::MultiD)
    }

    fn supports(&self, domain: &Domain) -> bool {
        // The Haar transform requires power-of-two extents (all benchmark
        // domains qualify).
        domain.is_pow2()
    }

    fn plan(&self, domain: &Domain, _workload: &Workload) -> Result<Box<dyn Plan>, MechError> {
        if !self.supports(domain) {
            return Err(MechError::Unsupported {
                mechanism: "PRIVELET".into(),
                reason: format!("domain {domain} is not a power of two"),
            });
        }
        // Coefficient weights and the weighted sensitivity depend only on
        // the domain geometry — precompute the whole table.
        let (weights, rho) = match *domain {
            Domain::D1(n) => {
                let weights: Vec<f64> = (0..n).map(|i| weight_for(i, n)).collect();
                ((weights), (n as f64).log2() + 1.0)
            }
            Domain::D2(r, c) => {
                let mut weights = Vec::with_capacity(r * c);
                for i in 0..r {
                    for j in 0..c {
                        weights.push(weight_for_2d(i, j, r, c));
                    }
                }
                let rho = ((r as f64).log2() + 1.0) * ((c as f64).log2() + 1.0);
                (weights, rho)
            }
        };
        let diagnostics = PlanDiagnostics::data_independent("PRIVELET", domain.n_cells(), rho);
        let domain = *domain;
        Ok(FnPlan::boxed(
            domain,
            diagnostics,
            move |x, _ws, budget, rng| {
                let eps = budget.spend_all_as("coefficients");
                Ok(match domain {
                    Domain::D1(_) => {
                        let mut coeffs = haar_forward(x.counts());
                        for (c, &w) in coeffs.coeffs.iter_mut().zip(&weights) {
                            *c += laplace(rho / (eps * w), rng);
                        }
                        haar_inverse(&coeffs)
                    }
                    Domain::D2(r, c) => {
                        let mut coeffs = haar_forward_2d(x.counts(), r, c);
                        for (v, &w) in coeffs.iter_mut().zip(&weights) {
                            *v += laplace(rho / (eps * w), rng);
                        }
                        haar_inverse_2d(&coeffs, r, c)
                    }
                })
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbench_core::{DataVector, Loss};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn error_vanishes_at_high_eps() {
        let x = DataVector::new((0..64).map(|i| (i % 7) as f64).collect(), Domain::D1(64));
        let w = Workload::prefix_1d(64);
        let y = w.evaluate(&x);
        let mut rng = StdRng::seed_from_u64(30);
        let est = Privelet::new().run_eps(&x, &w, 1e8, &mut rng).unwrap();
        let err = Loss::L2.eval(&y, &w.evaluate_cells(&est));
        assert!(err < 1e-2, "err {err}");
    }

    #[test]
    fn beats_identity_on_prefix_large_domain() {
        use crate::identity::Identity;
        let n = 2048;
        let x = DataVector::new(vec![3.0; n], Domain::D1(n));
        let w = Workload::prefix_1d(n);
        let y = w.evaluate(&x);
        let mut rng = StdRng::seed_from_u64(31);
        let (mut ep, mut ei) = (0.0, 0.0);
        for _ in 0..8 {
            let p = Privelet::new().run_eps(&x, &w, 0.1, &mut rng).unwrap();
            let i = Identity.run_eps(&x, &w, 0.1, &mut rng).unwrap();
            ep += Loss::L2.eval(&y, &w.evaluate_cells(&p));
            ei += Loss::L2.eval(&y, &w.evaluate_cells(&i));
        }
        assert!(ep < ei, "PRIVELET {ep} vs IDENTITY {ei}");
    }

    #[test]
    fn runs_2d() {
        let x = DataVector::new(vec![1.0; 32 * 32], Domain::D2(32, 32));
        let w = Workload::identity(Domain::D2(32, 32));
        let mut rng = StdRng::seed_from_u64(32);
        let est = Privelet::new().run_eps(&x, &w, 1.0, &mut rng).unwrap();
        assert_eq!(est.len(), 1024);
        assert!(est.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn rejects_non_pow2_domain() {
        let x = DataVector::zeros(Domain::D1(100));
        let w = Workload::identity(Domain::D1(100));
        let mut rng = StdRng::seed_from_u64(33);
        let err = Privelet::new().run_eps(&x, &w, 1.0, &mut rng);
        assert!(matches!(err, Err(MechError::Unsupported { .. })));
    }
}
