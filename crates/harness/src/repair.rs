//! Algorithm repair functions `R` (paper Section 5.2).
//!
//! `Rside` removes the *side information* assumption (Principle 7): some
//! algorithms (MWEM, UGRID, AGRID, SF) consume the true dataset scale for
//! free. The repaired variant spends a fraction `ρ_total` of the privacy
//! budget on a Laplace estimate of the scale and hands the noisy value to
//! the algorithm instead. The paper sets `ρ_total = 0.05` after a
//! calibration pass (Section 6.4) and reports that the effect is a modest
//! error increase — except MWEM at small scales, which evidently benefits
//! from free side information.

use dpbench_algorithms::grids::{AGrid, UGrid};
use dpbench_algorithms::mwem::Mwem;
use dpbench_algorithms::sf::StructureFirst;
use dpbench_core::mechanism::{fingerprint_words, FnPlan, Plan, PlanDiagnostics};
use dpbench_core::primitives::laplace;
use dpbench_core::{Domain, MechError, MechInfo, Mechanism, Workload};

/// Names of benchmark algorithms that assume the scale is public
/// (Table 1 "Side info" column).
pub const SIDE_INFO_USERS: &[&str] = &["MWEM", "UGRID", "AGRID", "SF"];

/// The `Rside` repair wrapper: estimates scale privately, then runs the
/// wrapped algorithm with the estimate in place of the side information.
pub struct SideInfoRepair {
    inner_name: String,
    /// Budget fraction for the scale estimate (paper: 0.05).
    pub rho_total: f64,
}

impl SideInfoRepair {
    /// Wrap a side-information-using algorithm by name.
    pub fn new(inner_name: &str) -> Result<Self, MechError> {
        if !SIDE_INFO_USERS.contains(&inner_name) {
            return Err(MechError::InvalidConfig(format!(
                "{inner_name} does not use side information"
            )));
        }
        Ok(Self {
            inner_name: inner_name.to_string(),
            rho_total: 0.05,
        })
    }
}

impl Mechanism for SideInfoRepair {
    fn info(&self) -> MechInfo {
        let base = dpbench_algorithms::registry::mechanism_by_name(&self.inner_name)
            .expect("validated at construction")
            .info();
        let mut info = base;
        info.name = format!("{}(Rside)", self.inner_name);
        info.side_info = None; // that's the point
        info
    }

    fn supports(&self, domain: &dpbench_core::Domain) -> bool {
        dpbench_algorithms::registry::mechanism_by_name(&self.inner_name)
            .expect("validated at construction")
            .supports(domain)
    }

    fn plan(&self, domain: &Domain, workload: &Workload) -> Result<Box<dyn Plan>, MechError> {
        // MWEM handles the repair internally (its update needs the scale at
        // every step); delegate to its repaired variant's own plan.
        if self.inner_name == "MWEM" {
            return Mwem::original_repaired().plan(domain, workload);
        }
        if !SIDE_INFO_USERS.contains(&self.inner_name.as_str()) {
            return Err(MechError::InvalidConfig(format!(
                "no repair recipe for {}",
                self.inner_name
            )));
        }
        let inner_name = self.inner_name.clone();
        let rho_total = self.rho_total;
        let w = workload.clone();
        let name = format!("{inner_name}(Rside)");
        Ok(FnPlan::boxed(
            *domain,
            PlanDiagnostics::data_dependent(name),
            move |x, ws, budget, rng| {
                let eps_scale = budget.spend_fraction_as("scale-estimate", rho_total)?;
                let noisy_scale = (x.scale() + laplace(1.0 / eps_scale, rng)).max(1.0);
                let inner: Box<dyn Mechanism> = match inner_name.as_str() {
                    "UGRID" => Box::new(UGrid {
                        scale_hint: Some(noisy_scale),
                        ..UGrid::default()
                    }),
                    "AGRID" => Box::new(AGrid {
                        scale_hint: Some(noisy_scale),
                        ..AGrid::default()
                    }),
                    "SF" => Box::new(StructureFirst {
                        scale_hint: Some(noisy_scale),
                        ..StructureFirst::default()
                    }),
                    other => {
                        return Err(MechError::InvalidConfig(format!(
                            "no repair recipe for {other}"
                        )))
                    }
                };
                // In the caller's workspace, so the inner mechanism's
                // per-worker memos and pools (SF's V-optimal table and
                // bucket hierarchies) serve repeated executions.
                let plan = inner.plan(&x.domain(), &w)?;
                Ok(plan.execute(x, ws, budget, rng)?.estimate)
            },
        ))
    }

    fn config_fingerprint(&self) -> u64 {
        fingerprint_words(&[self.rho_total.to_bits()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbench_core::DataVector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_non_side_info_algorithms() {
        assert!(SideInfoRepair::new("DAWA").is_err());
        assert!(SideInfoRepair::new("IDENTITY").is_err());
    }

    #[test]
    fn repaired_names() {
        let r = SideInfoRepair::new("UGRID").unwrap();
        assert_eq!(r.info().name, "UGRID(Rside)");
        assert!(r.info().side_info.is_none());
    }

    #[test]
    fn repaired_ugrid_runs_within_budget() {
        let mut counts = vec![0.0; 32 * 32];
        counts[0] = 50_000.0;
        let x = DataVector::new(counts, Domain::D2(32, 32));
        let w = Workload::identity(Domain::D2(32, 32));
        let mut rng = StdRng::seed_from_u64(140);
        let r = SideInfoRepair::new("UGRID").unwrap();
        let est = r.run_eps(&x, &w, 1.0, &mut rng).unwrap();
        assert_eq!(est.len(), 1024);
    }

    #[test]
    fn repaired_sf_runs() {
        let counts: Vec<f64> = (0..128).map(|i| ((i * 5) % 11) as f64 * 3.0).collect();
        let x = DataVector::new(counts, Domain::D1(128));
        let w = Workload::prefix_1d(128);
        let mut rng = StdRng::seed_from_u64(141);
        let r = SideInfoRepair::new("SF").unwrap();
        let est = r.run_eps(&x, &w, 0.5, &mut rng).unwrap();
        assert_eq!(est.len(), 128);
    }

    #[test]
    fn repaired_sf_reuses_the_callers_hier_pool() {
        // Repeated SF(Rside) executions through one workspace reach SF's
        // pooled bucket hierarchies, as plain SF's do.
        use dpbench_algorithms::hierarchy::HierPool;
        use dpbench_core::Workspace;
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
        let plan = SideInfoRepair::new("SF")
            .unwrap()
            .plan(&Domain::D1(n), &Workload::prefix_1d(n))
            .unwrap();
        let mut ws = Workspace::new();
        for trial in 0..8 {
            let mut budget = dpbench_core::BudgetLedger::new(0.1);
            let mut rng = StdRng::seed_from_u64(144 + trial);
            plan.execute(&x, &mut ws, &mut budget, &mut rng).unwrap();
        }
        let pool: Box<HierPool> = ws.take_typed();
        assert!(
            pool.hits > pool.misses,
            "SF(Rside) should hit the caller's pool (hits={}, misses={})",
            pool.hits,
            pool.misses
        );
    }

    #[test]
    fn repaired_mwem_delegates() {
        let mut counts = vec![0.0; 64];
        counts[0] = 10_000.0;
        let x = DataVector::new(counts, Domain::D1(64));
        let w = Workload::prefix_1d(64);
        let mut rng = StdRng::seed_from_u64(142);
        let r = SideInfoRepair::new("MWEM").unwrap();
        let est = r.run_eps(&x, &w, 0.5, &mut rng).unwrap();
        assert_eq!(est.len(), 64);
    }

    #[test]
    fn repaired_agrid_runs() {
        let mut counts = vec![1.0; 64 * 64];
        counts[0] = 10_000.0;
        let x = DataVector::new(counts, Domain::D2(64, 64));
        let w = Workload::identity(Domain::D2(64, 64));
        let mut rng = StdRng::seed_from_u64(143);
        let r = SideInfoRepair::new("AGRID").unwrap();
        let est = r.run_eps(&x, &w, 0.5, &mut rng).unwrap();
        assert_eq!(est.len(), 4096);
    }
}
