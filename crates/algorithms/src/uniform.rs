//! UNIFORM — the data-dependent baseline (paper Section 3.1).
//!
//! Spends the whole budget estimating the dataset scale `‖x‖₁` and spreads
//! the noisy total uniformly over the domain — an equi-width histogram with
//! a single bucket as wide as the entire domain. It learns *nothing* about
//! the data but its size; the paper uses it as the lower-bound baseline:
//! an algorithm with error comparable to UNIFORM provides no useful
//! information (Principle 10, Finding 10).
//!
//! UNIFORM is biased (unless the data really is uniform) and therefore
//! **inconsistent**: its error does not vanish as ε → ∞ (Table 1).

use dpbench_core::mechanism::{DimSupport, FnPlan, Plan, PlanDiagnostics};
use dpbench_core::primitives::laplace;
use dpbench_core::{Domain, MechError, MechInfo, Mechanism, Workload};

/// The UNIFORM mechanism.
#[derive(Debug, Clone, Copy, Default)]
pub struct Uniform;

impl Mechanism for Uniform {
    fn info(&self) -> MechInfo {
        let mut info = MechInfo::new("UNIFORM", DimSupport::MultiD);
        info.data_dependent = true;
        info.consistent = false; // biased whenever the shape is non-uniform
        info
    }

    fn plan(&self, domain: &Domain, _workload: &Workload) -> Result<Box<dyn Plan>, MechError> {
        Ok(FnPlan::boxed(
            *domain,
            PlanDiagnostics::data_dependent("UNIFORM"),
            move |x, _ws, budget, rng| {
                let eps = budget.spend_all_as("scale-estimate");
                let n = x.n_cells() as f64;
                let noisy_total = x.scale() + laplace(1.0 / eps, rng);
                Ok(vec![noisy_total / n; x.n_cells()])
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbench_core::{DataVector, Domain, Loss, Workload};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_error_on_uniform_data_high_eps() {
        let x = DataVector::new(vec![10.0; 32], Domain::D1(32));
        let w = Workload::prefix_1d(32);
        let y = w.evaluate(&x);
        let mut rng = StdRng::seed_from_u64(3);
        let est = Uniform.run_eps(&x, &w, 1e9, &mut rng).unwrap();
        let err = Loss::L2.eval(&y, &w.evaluate_cells(&est));
        assert!(err < 1e-3, "err {err}");
    }

    #[test]
    fn biased_on_skewed_data_even_at_high_eps() {
        let mut counts = vec![0.0; 32];
        counts[0] = 320.0;
        let x = DataVector::new(counts, Domain::D1(32));
        let w = Workload::identity(Domain::D1(32));
        let mut rng = StdRng::seed_from_u64(4);
        let est = Uniform.run_eps(&x, &w, 1e9, &mut rng).unwrap();
        // Everything is 10 regardless of ε: bias never vanishes.
        assert!((est[0] - 10.0).abs() < 1e-3);
        assert!((est[1] - 10.0).abs() < 1e-3);
    }

    #[test]
    fn estimates_total_mass() {
        let x = DataVector::new((0..16).map(f64::from).collect(), Domain::D2(4, 4));
        let w = Workload::identity(Domain::D2(4, 4));
        let mut rng = StdRng::seed_from_u64(5);
        let est = Uniform.run_eps(&x, &w, 10.0, &mut rng).unwrap();
        let total: f64 = est.iter().sum();
        assert!((total - 120.0).abs() < 3.0, "total {total}");
    }
}
