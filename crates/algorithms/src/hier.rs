//! H and Hb — hierarchical data-independent mechanisms.
//!
//! * **H** (Hay, Rastogi, Miklau, Suciu; PVLDB 2010): a binary (b = 2)
//!   hierarchy of noisy interval counts with uniform budget across levels,
//!   post-processed to the consistent least-squares estimate ("boosting
//!   the accuracy of differentially private histograms through
//!   consistency").
//! * **Hb** (Qardaji, Yang, Li; PVLDB 2013): same pipeline but the
//!   branching factor is chosen from the domain size alone to minimize the
//!   average variance of range-query answers; generalizes to 2-D with a
//!   per-axis branching split.
//!
//! Implementation note: the paper's evaluation answers every workload from
//! released cell estimates; we therefore apply Hay-style consistency
//! inference to both H and Hb (inference is a pure post-processing step —
//! it costs no privacy budget and never increases error), exactly as the
//! DPBench reference code does for its hierarchical methods.

use crate::hierarchy::{optimal_branching_1d, optimal_branching_2d, Hierarchy};
use dpbench_core::mechanism::{fingerprint_words, DimSupport, FnPlan, Plan, PlanDiagnostics};
use dpbench_core::{Domain, MechError, MechInfo, Mechanism, Workload};

/// Shared plan for H and Hb: the hierarchy layout is fully determined by
/// (domain, branching), so it is built once at plan time; execute only
/// measures and infers. Budget is split uniformly across levels.
fn hier_plan(name: &str, domain: Domain, branching: usize) -> Box<dyn Plan> {
    let hier = Hierarchy::build(domain, branching, usize::MAX);
    // Per level every record is counted at most once, so the
    // measurement set's L1 sensitivity is the tree height.
    let diagnostics =
        PlanDiagnostics::data_independent(name, hier.nodes.len(), hier.height() as f64);
    FnPlan::boxed(domain, diagnostics, move |x, ws, budget, rng| {
        let eps = budget.spend_all_as("levels");
        let per_level = eps / hier.height() as f64;
        let level_eps = vec![per_level; hier.height()];
        Ok(hier.measure_and_infer_with(x, &level_eps, ws, rng))
    })
}

/// The H mechanism (binary hierarchy, uniform budget, consistency).
#[derive(Debug, Clone, Copy)]
pub struct H {
    /// Branching factor; the paper's H fixes b = 2.
    pub branching: usize,
}

impl Default for H {
    fn default() -> Self {
        Self { branching: 2 }
    }
}

impl H {
    /// H with the paper's default branching factor b = 2.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Mechanism for H {
    fn info(&self) -> MechInfo {
        let mut info = MechInfo::new("H", DimSupport::OneD);
        info.hierarchical = true;
        info
    }

    fn plan(&self, domain: &Domain, _workload: &Workload) -> Result<Box<dyn Plan>, MechError> {
        if !self.supports(domain) {
            return Err(MechError::Unsupported {
                mechanism: "H".into(),
                reason: format!("domain {domain} is not 1-D"),
            });
        }
        Ok(hier_plan("H", *domain, self.branching))
    }

    fn config_fingerprint(&self) -> u64 {
        fingerprint_words(&[self.branching as u64])
    }
}

/// The Hb mechanism (variance-optimal branching).
#[derive(Debug, Clone, Copy, Default)]
pub struct Hb;

impl Hb {
    /// Create an Hb instance.
    pub fn new() -> Self {
        Self
    }

    /// The branching factor Hb selects for a domain (data-independent:
    /// depends only on domain size).
    pub fn branching_for(domain: &Domain) -> usize {
        match *domain {
            Domain::D1(n) => optimal_branching_1d(n.max(2)),
            Domain::D2(r, c) => optimal_branching_2d(r.max(c).max(2)),
        }
    }
}

impl Mechanism for Hb {
    fn info(&self) -> MechInfo {
        let mut info = MechInfo::new("HB", DimSupport::MultiD);
        info.hierarchical = true;
        info
    }

    fn plan(&self, domain: &Domain, _workload: &Workload) -> Result<Box<dyn Plan>, MechError> {
        let b = Self::branching_for(domain);
        Ok(hier_plan("HB", *domain, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbench_core::{DataVector, Loss};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spiky(n: usize) -> DataVector {
        let mut counts = vec![0.0; n];
        counts[0] = 1000.0;
        counts[n / 2] = 500.0;
        DataVector::new(counts, Domain::D1(n))
    }

    #[test]
    fn h_consistent_error_vanishes_at_high_eps() {
        let x = spiky(64);
        let w = Workload::prefix_1d(64);
        let y = w.evaluate(&x);
        let mut rng = StdRng::seed_from_u64(20);
        let est = H::new().run_eps(&x, &w, 1e8, &mut rng).unwrap();
        let err = Loss::L2.eval(&y, &w.evaluate_cells(&est));
        assert!(err < 1e-2, "err {err}");
    }

    #[test]
    fn h_beats_identity_on_prefix_workload_large_domain() {
        // Hierarchies win on large-range workloads over big domains.
        use crate::identity::Identity;
        let n = 1024;
        let x = DataVector::new(vec![5.0; n], Domain::D1(n));
        let w = Workload::prefix_1d(n);
        let y = w.evaluate(&x);
        let mut rng = StdRng::seed_from_u64(21);
        let trials = 12;
        let (mut err_h, mut err_id) = (0.0, 0.0);
        for _ in 0..trials {
            let eh = H::new().run_eps(&x, &w, 0.1, &mut rng).unwrap();
            let ei = Identity.run_eps(&x, &w, 0.1, &mut rng).unwrap();
            err_h += Loss::L2.eval(&y, &w.evaluate_cells(&eh));
            err_id += Loss::L2.eval(&y, &w.evaluate_cells(&ei));
        }
        assert!(
            err_h < err_id,
            "H ({err_h}) should beat IDENTITY ({err_id}) on Prefix over n=1024"
        );
    }

    #[test]
    fn hb_branching_is_moderate_on_large_domains() {
        let b = Hb::branching_for(&Domain::D1(4096));
        assert!(b > 2, "Hb should pick b > 2 on n = 4096, got {b}");
        let b2 = Hb::branching_for(&Domain::D2(128, 128));
        assert!(b2 >= 2);
    }

    #[test]
    fn hb_runs_2d() {
        let x = DataVector::new(vec![2.0; 16 * 16], Domain::D2(16, 16));
        let w = Workload::identity(Domain::D2(16, 16));
        let mut rng = StdRng::seed_from_u64(22);
        let est = Hb::new().run_eps(&x, &w, 1.0, &mut rng).unwrap();
        assert_eq!(est.len(), 256);
    }

    #[test]
    fn h_is_1d_only_per_table1() {
        assert!(H::new().supports(&Domain::D1(64)));
        assert!(!H::new().supports(&Domain::D2(8, 8)));
    }

    #[test]
    fn data_independence_of_expected_error() {
        // Two different shapes, same domain: mean errors statistically equal.
        let n = 128;
        let w = Workload::prefix_1d(n);
        let xa = DataVector::new(vec![10.0; n], Domain::D1(n));
        let xb = spiky(n);
        let (ya, yb) = (w.evaluate(&xa), w.evaluate(&xb));
        let mut rng = StdRng::seed_from_u64(23);
        let trials = 60;
        let (mut ea, mut eb) = (0.0, 0.0);
        for _ in 0..trials {
            let ha = H::new().run_eps(&xa, &w, 1.0, &mut rng).unwrap();
            let hb = H::new().run_eps(&xb, &w, 1.0, &mut rng).unwrap();
            ea += Loss::L2.eval(&ya, &w.evaluate_cells(&ha));
            eb += Loss::L2.eval(&yb, &w.evaluate_cells(&hb));
        }
        let ratio = ea / eb;
        assert!(ratio > 0.7 && ratio < 1.4, "ratio {ratio}");
    }
}
