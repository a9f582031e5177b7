//! IDENTITY — the Laplace-mechanism baseline (paper Section 3.1).
//!
//! Adds independent `Laplace(1/ε)` noise to every cell of `x`. Workload
//! queries are answered by summing noisy cells, so the variance of a range
//! answer grows linearly with the number of cells it covers. The paper uses
//! IDENTITY as the *upper-bound baseline*: a sophisticated algorithm that
//! cannot beat IDENTITY does not justify its complexity (Principle 10,
//! Finding 10).

use dpbench_core::mechanism::{DimSupport, FnPlan, Plan, PlanDiagnostics};
use dpbench_core::primitives::laplace;
use dpbench_core::{Domain, MechError, MechInfo, Mechanism, Workload};

/// The IDENTITY mechanism.
#[derive(Debug, Clone, Copy, Default)]
pub struct Identity;

impl Mechanism for Identity {
    fn info(&self) -> MechInfo {
        MechInfo::new("IDENTITY", DimSupport::MultiD)
        // Defaults already encode Table 1: data-independent, consistent,
        // scale-ε exchangeable, no side info.
    }

    fn plan(&self, domain: &Domain, _workload: &Workload) -> Result<Box<dyn Plan>, MechError> {
        // The strategy is the identity matrix: measure every cell once at
        // sensitivity 1.
        Ok(FnPlan::boxed(
            *domain,
            PlanDiagnostics::data_independent("IDENTITY", domain.n_cells(), 1.0),
            |x, ws, budget, rng| {
                let eps = budget.spend_all_as("laplace-cells");
                // Same noise stream as `laplace_vec`, but into a recycled buffer.
                let mut estimate = ws.take_f64(x.n_cells());
                for (e, &c) in estimate.iter_mut().zip(x.counts()) {
                    *e = c + laplace(1.0 / eps, rng);
                }
                Ok(estimate)
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
    fn unbiased_and_noisy() {
        let x = DataVector::new(vec![100.0; 64], Domain::D1(64));
        let w = Workload::identity(Domain::D1(64));
        let mut rng = StdRng::seed_from_u64(1);
        let mut sums = vec![0.0; 64];
        let trials = 400;
        for _ in 0..trials {
            let est = Identity.run_eps(&x, &w, 1.0, &mut rng).unwrap();
            for (s, e) in sums.iter_mut().zip(&est) {
                *s += e;
            }
        }
        for s in &sums {
            let mean = s / trials as f64;
            assert!((mean - 100.0).abs() < 0.6, "cell mean {mean}");
        }
    }

    #[test]
    fn error_scales_inversely_with_epsilon() {
        let x = DataVector::new(vec![50.0; 256], Domain::D1(256));
        let w = Workload::identity(Domain::D1(256));
        let y = w.evaluate(&x);
        let mut rng = StdRng::seed_from_u64(2);
        let mut err_low = 0.0;
        let mut err_high = 0.0;
        for _ in 0..30 {
            let e1 = Identity.run_eps(&x, &w, 0.1, &mut rng).unwrap();
            let e2 = Identity.run_eps(&x, &w, 1.0, &mut rng).unwrap();
            err_low += Loss::L2.eval(&y, &w.evaluate_cells(&e1));
            err_high += Loss::L2.eval(&y, &w.evaluate_cells(&e2));
        }
        // 10x more budget → ~10x less error.
        let ratio = err_low / err_high;
        assert!(ratio > 5.0 && ratio < 20.0, "ratio {ratio}");
    }

    #[test]
    fn supports_both_dims() {
        assert!(Identity.supports(&Domain::D1(16)));
        assert!(Identity.supports(&Domain::D2(4, 4)));
    }
}
