//! GREEDY_H — workload-aware hierarchical mechanism (Li, Hay, Miklau;
//! PVLDB 2014; used standalone and as DAWA's second stage).
//!
//! Builds a binary hierarchy over the domain and tunes the per-level
//! privacy-budget allocation to the workload: each workload query is
//! decomposed into canonical hierarchy nodes, the decompositions are
//! tallied into per-level usage counts `c_l`, and minimizing the expected
//! total squared error `Σ_l c_l · 2/ε_l²` subject to `Σ_l ε_l = ε` gives
//! the closed-form allocation `ε_l ∝ c_l^{1/3}`. Levels the workload never
//! touches receive no budget (and stay unmeasured in the inference).
//!
//! 2-D inputs are flattened along a Hilbert curve (paper Appendix B); each
//! 2-D range is mapped to its covering Hilbert interval for the purpose of
//! budget allocation.

use crate::hierarchy::{HierPool, Hierarchy};
use dpbench_core::mechanism::{fingerprint_words, DimSupport, FnPlan, Plan, PlanDiagnostics};
use dpbench_core::{
    DataVector, Domain, MechError, MechInfo, Mechanism, RangeQuery, Workload, Workspace,
};
use dpbench_transforms::hilbert;
use rand::RngCore;

/// The GREEDY_H mechanism.
#[derive(Debug, Clone, Copy)]
pub struct GreedyH {
    /// Branching factor of the hierarchy (paper default b = 2).
    pub branching: usize,
}

impl Default for GreedyH {
    fn default() -> Self {
        Self { branching: 2 }
    }
}

impl GreedyH {
    /// GREEDY_H with the paper's default b = 2.
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-level node-usage counts of a workload of 1-D ranges over a
    /// hierarchy.
    pub fn level_usage(hier: &Hierarchy, queries: &[RangeQuery]) -> Vec<f64> {
        let mut counts = vec![0.0; hier.height()];
        let (mut stack, mut ids) = (Vec::new(), Vec::new());
        for q in queries {
            hier.decompose_into(q, &mut stack, &mut ids);
            for &id in &ids {
                counts[hier.nodes[id].level] += 1.0;
            }
        }
        counts
    }

    /// Optimal per-level budgets for usage counts: `ε_l ∝ c_l^{1/3}`,
    /// zero for unused levels. Falls back to uniform if nothing is used.
    pub fn allocate(eps: f64, usage: &[f64]) -> Vec<f64> {
        let weights: Vec<f64> = usage.iter().map(|&c| c.max(0.0).cbrt()).collect();
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return vec![eps / usage.len() as f64; usage.len()];
        }
        weights.into_iter().map(|w| eps * w / total).collect()
    }

    /// Run the full pipeline on a 1-D vector with an explicit interval
    /// workload (reused by DAWA on its reduced bucket domain).
    pub fn run_1d(
        &self,
        x: &DataVector,
        queries: &[RangeQuery],
        eps: f64,
        rng: &mut dyn RngCore,
    ) -> Vec<f64> {
        self.run_1d_with(x, queries, eps, &mut Workspace::new(), rng)
    }

    /// [`GreedyH::run_1d`] with pooled scratch: the hierarchy comes from
    /// the workspace's size-bucketed [`HierPool`] (DAWA's reduced domain
    /// size is data-dependent, so the plan cache can't hold it) and the
    /// measure/infer pipeline draws its buffers from `ws`. The returned
    /// estimate is pool-allocated; give it back when done.
    pub fn run_1d_with(
        &self,
        x: &DataVector,
        queries: &[RangeQuery],
        eps: f64,
        ws: &mut Workspace,
        rng: &mut dyn RngCore,
    ) -> Vec<f64> {
        let mut pool: Box<HierPool> = ws.take_typed();
        let hier = pool.get_1d(x.n_cells(), self.branching);
        let usage = Self::level_usage(hier, queries);
        let level_eps = Self::allocate(eps, &usage);
        let est = hier.measure_and_infer_with(x, &level_eps, ws, rng);
        ws.store_typed(pool);
        est
    }

    /// Map a 2-D range to its covering interval along the Hilbert curve of
    /// a `side × side` grid ([`hilbert::box_cover`]'s exact quadrant
    /// descent).
    fn hilbert_interval(q: &RangeQuery, side: usize) -> RangeQuery {
        let (lo, hi) = hilbert::box_cover(side, q.lo.0, q.lo.1, q.hi.0, q.hi.1);
        RangeQuery::d1(lo, hi)
    }
}

impl Mechanism for GreedyH {
    fn info(&self) -> MechInfo {
        let mut info = MechInfo::new("GREEDY_H", DimSupport::OneAndTwoD);
        info.hierarchical = true;
        info.workload_aware = true;
        info
    }

    fn config_fingerprint(&self) -> u64 {
        fingerprint_words(&[self.branching as u64])
    }

    fn supports(&self, domain: &Domain) -> bool {
        match *domain {
            Domain::D1(_) => true,
            // Hilbert flattening needs a square power-of-two grid.
            Domain::D2(r, c) => r == c && r.is_power_of_two(),
        }
    }

    fn plan(&self, domain: &Domain, workload: &Workload) -> Result<Box<dyn Plan>, MechError> {
        // All of GREEDY_H's workload adaptation — hierarchy layout, query
        // decomposition, Hilbert interval mapping, and the cube-root budget
        // allocation — is data-independent, so it happens here, once.
        let (curve, hier, usage) = match *domain {
            Domain::D1(_) => {
                let hier = Hierarchy::build(*domain, self.branching, usize::MAX);
                let usage = Self::level_usage(&hier, workload.queries());
                (None, hier, usage)
            }
            Domain::D2(r, c) => {
                if r != c || !r.is_power_of_two() {
                    return Err(MechError::Unsupported {
                        mechanism: "GREEDY_H".into(),
                        reason: format!("2-D domain {r}x{c} must be a square power of two"),
                    });
                }
                let flat_domain = Domain::D1(r * c);
                let hier = Hierarchy::build(flat_domain, self.branching, usize::MAX);
                let intervals: Vec<RangeQuery> = workload
                    .queries()
                    .iter()
                    .map(|q| Self::hilbert_interval(q, r))
                    .collect();
                let usage = Self::level_usage(&hier, &intervals);
                (Some(hilbert::Curve::new(r)), hier, usage)
            }
        };
        // The allocation is linear in ε: precompute the unit (ε = 1)
        // allocation and scale at execute time.
        let alloc_unit = Self::allocate(1.0, &usage);
        let measured_levels = alloc_unit.iter().filter(|&&e| e > 0.0).count();
        let diagnostics =
            PlanDiagnostics::data_independent("GREEDY_H", hier.nodes.len(), measured_levels as f64);
        Ok(FnPlan::boxed(
            *domain,
            diagnostics,
            move |x, ws, budget, rng| {
                let eps = budget.spend_all_as("levels");
                let level_eps: Vec<f64> = alloc_unit.iter().map(|&u| u * eps).collect();
                let Some(curve) = &curve else {
                    return Ok(hier.measure_and_infer_with(x, &level_eps, ws, rng));
                };
                // 2-D: measure the grid flattened along the plan's curve.
                let n = x.n_cells();
                let mut flat = ws.take_f64(n);
                curve.flatten_into(x.counts(), &mut flat);
                let flat_x = DataVector::new(flat, Domain::D1(n));
                let est_flat = hier.measure_and_infer_with(&flat_x, &level_eps, ws, rng);
                let mut grid = ws.take_f64(n);
                curve.unflatten_into(&est_flat, &mut grid);
                ws.give_f64(est_flat);
                ws.give_f64(flat_x.into_counts());
                Ok(grid)
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbench_core::Loss;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn allocation_prefers_heavily_used_levels() {
        let eps = GreedyH::allocate(1.0, &[0.0, 8.0, 1.0]);
        assert!((eps.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(eps[0], 0.0);
        assert!(eps[1] > eps[2]);
        // Cube-root rule: ratio should be 8^{1/3} / 1 = 2.
        assert!((eps[1] / eps[2] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn allocation_uniform_fallback() {
        let eps = GreedyH::allocate(1.0, &[0.0, 0.0]);
        assert_eq!(eps, vec![0.5, 0.5]);
    }

    #[test]
    fn exact_recovery_high_eps() {
        let x = DataVector::new((1..=32).map(f64::from).collect(), Domain::D1(32));
        let w = Workload::prefix_1d(32);
        let y = w.evaluate(&x);
        let mut rng = StdRng::seed_from_u64(40);
        let est = GreedyH::new().run_eps(&x, &w, 1e8, &mut rng).unwrap();
        let err = Loss::L2.eval(&y, &w.evaluate_cells(&est));
        assert!(err < 0.1, "err {err}");
    }

    #[test]
    fn prefix_usage_counts_all_levels() {
        let hier = Hierarchy::build(Domain::D1(16), 2, usize::MAX);
        let w = Workload::prefix_1d(16);
        let usage = GreedyH::level_usage(&hier, w.queries());
        assert_eq!(usage.len(), 5);
        // Prefix queries use nodes at every level below the root.
        assert!(usage[1..].iter().all(|&c| c > 0.0), "usage {usage:?}");
    }

    #[test]
    fn runs_2d_square_pow2() {
        let x = DataVector::new(vec![2.0; 16 * 16], Domain::D2(16, 16));
        let mut rng = StdRng::seed_from_u64(41);
        let w = Workload::random_ranges(Domain::D2(16, 16), 50, &mut rng);
        let est = GreedyH::new().run_eps(&x, &w, 1.0, &mut rng).unwrap();
        assert_eq!(est.len(), 256);
    }

    #[test]
    fn rejects_non_square_2d() {
        let x = DataVector::zeros(Domain::D2(8, 16));
        let w = Workload::identity(Domain::D2(8, 16));
        let mut rng = StdRng::seed_from_u64(42);
        assert!(GreedyH::new().run_eps(&x, &w, 1.0, &mut rng).is_err());
    }

    #[test]
    fn hilbert_interval_covers_box() {
        let q = RangeQuery::d2(1, 1, 3, 3);
        let iv = GreedyH::hilbert_interval(&q, 8);
        // Every cell of the box must fall inside the interval.
        for r in 1..=3 {
            for c in 1..=3 {
                let d = hilbert::xy2d(8, c, r);
                assert!(d >= iv.lo.0 && d <= iv.hi.0);
            }
        }
    }
}
