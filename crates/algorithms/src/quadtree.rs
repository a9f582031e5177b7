//! QUADTREE and HYBRIDTREE — private spatial decompositions (Cormode,
//! Procopiuc, Shen, Srivastava, Yu; ICDE 2012).
//!
//! * **QUADTREE**: a *fixed* quadtree of maximum height `c = 10` (no
//!   budget spent selecting the structure, ρ = 0); every node receives a
//!   noisy count with a geometric per-level budget split favouring the
//!   leaves (Cormode et al.'s `2^{l/3}` allocation), and the counts are
//!   post-processed to consistency. When the domain is larger than the
//!   height cap can resolve, leaves aggregate multiple cells and the
//!   uniform within-leaf assumption introduces bias — QUADTREE is
//!   **inconsistent on sufficiently large domains** (paper Theorem 5).
//! * **HYBRIDTREE**: a kd-tree built privately (exponential-mechanism
//!   median splits) for the top levels, with the fixed quadtree below —
//!   implemented as an *extension* (the paper analyses it in Appendix C
//!   but does not include it in the main evaluation).

use crate::hierarchy::Hierarchy;
use dpbench_core::mechanism::{fingerprint_words, DimSupport, FnPlan, Plan, PlanDiagnostics};
use dpbench_core::primitives::exponential_mechanism;
use dpbench_core::query::PrefixTable;
use dpbench_core::{
    BudgetLedger, DataVector, Domain, MechError, MechInfo, Mechanism, RangeQuery, Workload,
};
use rand::RngCore;

/// The QUADTREE mechanism.
#[derive(Debug, Clone, Copy)]
pub struct QuadTree {
    /// Maximum tree height in levels (paper parameter c = 10).
    pub max_height: usize,
}

impl Default for QuadTree {
    fn default() -> Self {
        Self { max_height: 10 }
    }
}

impl QuadTree {
    /// QUADTREE with the paper's height cap c = 10.
    pub fn new() -> Self {
        Self::default()
    }

    /// QUADTREE with an explicit height cap (used to demonstrate the
    /// inconsistency of Theorem 5 on domains the cap cannot resolve).
    pub fn with_height(max_height: usize) -> Self {
        assert!(max_height >= 1);
        Self { max_height }
    }

    /// Geometric per-level budget allocation `ε_l ∝ 2^{l/3}` (leaves get
    /// the most, following Cormode et al.).
    pub fn level_budgets(eps: f64, height: usize) -> Vec<f64> {
        let weights: Vec<f64> = (0..height).map(|l| 2.0_f64.powf(l as f64 / 3.0)).collect();
        let total: f64 = weights.iter().sum();
        weights.into_iter().map(|w| eps * w / total).collect()
    }
}

impl Mechanism for QuadTree {
    fn info(&self) -> MechInfo {
        let mut info = MechInfo::new("QUADTREE", DimSupport::TwoD);
        info.data_dependent = true; // the uniform leaf expansion is
        info.hierarchical = true; // shape-sensitive on unresolved domains
        info.partitioning = true;
        info.consistent = false; // Theorem 5 (on sufficiently large domains)
        info
    }

    fn plan(&self, domain: &Domain, _workload: &Workload) -> Result<Box<dyn Plan>, MechError> {
        if domain.dims() != 2 {
            return Err(MechError::Unsupported {
                mechanism: "QUADTREE".into(),
                reason: format!("requires a 2-D domain, got {domain}"),
            });
        }
        // The quadtree structure is fixed (ρ = 0: no budget on structure),
        // so the whole tree and the geometric allocation are plan-time
        // work; only the noisy measurements are private. The mechanism's
        // *error* is still data-dependent (unresolved-leaf bias), which is
        // what Table 1's data-dependence column records.
        let hier = Hierarchy::build(*domain, 2, self.max_height);
        let diagnostics =
            PlanDiagnostics::data_independent("QUADTREE", hier.nodes.len(), hier.height() as f64);
        // Geometric per-level allocation at unit budget.
        let alloc_unit = Self::level_budgets(1.0, hier.height());
        Ok(FnPlan::boxed(
            *domain,
            diagnostics,
            move |x, ws, budget, rng| {
                let eps = budget.spend_all_as("levels");
                let level_eps: Vec<f64> = alloc_unit.iter().map(|&u| u * eps).collect();
                Ok(hier.measure_and_infer_with(x, &level_eps, ws, rng))
            },
        ))
    }

    fn config_fingerprint(&self) -> u64 {
        fingerprint_words(&[self.max_height as u64])
    }
}

/// The HYBRIDTREE extension: private kd-tree top, fixed quadtree bottom.
#[derive(Debug, Clone, Copy)]
pub struct HybridTree {
    /// Number of kd-tree levels built privately at the top.
    pub kd_levels: usize,
    /// Maximum total height (kd + quadtree levels).
    pub max_height: usize,
    /// Budget fraction spent on kd split selection.
    pub rho_structure: f64,
}

impl Default for HybridTree {
    fn default() -> Self {
        Self {
            kd_levels: 2,
            max_height: 10,
            rho_structure: 0.2,
        }
    }
}

impl HybridTree {
    /// HYBRIDTREE with the defaults (2 kd levels, height cap 10, 20 %
    /// structure budget).
    pub fn new() -> Self {
        Self::default()
    }
}

impl Mechanism for HybridTree {
    fn info(&self) -> MechInfo {
        let mut info = MechInfo::new("HYBRIDTREE", DimSupport::TwoD);
        info.data_dependent = true;
        info.hierarchical = true;
        info.partitioning = true;
        info.consistent = false; // Theorem 5 applies equally
        info.extension = true;
        info
    }

    fn plan(&self, domain: &Domain, _workload: &Workload) -> Result<Box<dyn Plan>, MechError> {
        if domain.dims() != 2 {
            return Err(MechError::Unsupported {
                mechanism: "HYBRIDTREE".into(),
                reason: format!("requires a 2-D domain, got {domain}"),
            });
        }
        let mech = *self;
        Ok(FnPlan::boxed(
            *domain,
            PlanDiagnostics::data_dependent("HYBRIDTREE"),
            move |x, _ws, budget, rng| mech.split_and_measure(x, budget, rng),
        ))
    }

    fn config_fingerprint(&self) -> u64 {
        fingerprint_words(&[
            self.kd_levels as u64,
            self.max_height as u64,
            self.rho_structure.to_bits(),
        ])
    }
}

impl HybridTree {
    /// The private pipeline: kd splits (ε·ρ) then per-region quadtrees.
    fn split_and_measure(
        &self,
        x: &DataVector,
        budget: &mut BudgetLedger,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<f64>, MechError> {
        let (rows, cols) = match x.domain() {
            Domain::D2(r, c) => (r, c),
            d => {
                return Err(MechError::Unsupported {
                    mechanism: "HYBRIDTREE".into(),
                    reason: format!("requires a 2-D domain, got {d}"),
                })
            }
        };
        let eps_kd = budget.spend_fraction_as("kd-splits", self.rho_structure)?;
        let eps_rest = budget.spend_all_as("quadtrees");
        let table = PrefixTable::build(x);

        // Top: kd splits chosen by the exponential mechanism with a
        // balance score (median-like splits; count-difference sensitivity
        // is 1). Each level's splits touch disjoint regions → parallel
        // composition lets every level reuse eps_kd / kd_levels.
        let eps_per_level = eps_kd / self.kd_levels.max(1) as f64;
        let mut regions = vec![RangeQuery::d2(0, 0, rows - 1, cols - 1)];
        for level in 0..self.kd_levels {
            let split_rows = level % 2 == 0;
            let mut next = Vec::with_capacity(regions.len() * 2);
            for q in &regions {
                match kd_split(&table, q, split_rows, eps_per_level, rng) {
                    Some((a, b)) => {
                        next.push(a);
                        next.push(b);
                    }
                    None => next.push(*q),
                }
            }
            regions = next;
        }

        // Bottom: a fixed quadtree per kd region (disjoint regions →
        // parallel composition: each gets the full eps_rest).
        let remaining_height = self.max_height.saturating_sub(self.kd_levels).max(1);
        let mut est = vec![0.0; x.n_cells()];
        for q in &regions {
            let sub_domain = Domain::D2(q.hi.0 - q.lo.0 + 1, q.hi.1 - q.lo.1 + 1);
            let mut sub_counts = vec![0.0; sub_domain.n_cells()];
            for r in q.lo.0..=q.hi.0 {
                for c in q.lo.1..=q.hi.1 {
                    sub_counts[(r - q.lo.0) * (q.hi.1 - q.lo.1 + 1) + (c - q.lo.1)] =
                        x.counts()[r * cols + c];
                }
            }
            let sub_x = DataVector::new(sub_counts, sub_domain);
            let hier = Hierarchy::build(sub_domain, 2, remaining_height);
            let level_eps = QuadTree::level_budgets(eps_rest, hier.height());
            let sub_est = hier.measure_and_infer(&sub_x, &level_eps, rng);
            for r in q.lo.0..=q.hi.0 {
                for c in q.lo.1..=q.hi.1 {
                    est[r * cols + c] =
                        sub_est[(r - q.lo.0) * (q.hi.1 - q.lo.1 + 1) + (c - q.lo.1)];
                }
            }
        }
        Ok(est)
    }
}

/// Choose a kd split of `q` along the given axis with the exponential
/// mechanism, scoring cuts by how evenly they balance the two sides'
/// counts (sensitivity 1).
fn kd_split(
    table: &PrefixTable,
    q: &RangeQuery,
    split_rows: bool,
    eps: f64,
    rng: &mut dyn RngCore,
) -> Option<(RangeQuery, RangeQuery)> {
    let extent = if split_rows {
        q.hi.0 - q.lo.0 + 1
    } else {
        q.hi.1 - q.lo.1 + 1
    };
    if extent < 2 {
        return None;
    }
    let total = table.eval(q);
    let mut cuts = Vec::with_capacity(extent - 1);
    let mut scores = Vec::with_capacity(extent - 1);
    for cut in 1..extent {
        let (a, b) = split_query(q, split_rows, cut);
        let ca = table.eval(&a);
        let cb = total - ca;
        cuts.push(cut);
        scores.push(-(ca - cb).abs());
        let _ = b;
    }
    let chosen = exponential_mechanism(&scores, 1.0, eps, rng);
    Some(split_query(q, split_rows, cuts[chosen]))
}

fn split_query(q: &RangeQuery, split_rows: bool, cut: usize) -> (RangeQuery, RangeQuery) {
    if split_rows {
        let mid = q.lo.0 + cut - 1;
        (
            RangeQuery::d2(q.lo.0, q.lo.1, mid, q.hi.1),
            RangeQuery::d2(mid + 1, q.lo.1, q.hi.0, q.hi.1),
        )
    } else {
        let mid = q.lo.1 + cut - 1;
        (
            RangeQuery::d2(q.lo.0, q.lo.1, q.hi.0, mid),
            RangeQuery::d2(q.lo.0, mid + 1, q.hi.0, q.hi.1),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbench_core::Loss;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn resolved_domain_is_consistent() {
        // 16x16 with height cap 10: leaves are single cells → no bias.
        let counts: Vec<f64> = (0..256).map(|i| ((i * 3) % 11) as f64 * 10.0).collect();
        let x = DataVector::new(counts, Domain::D2(16, 16));
        let w = Workload::identity(Domain::D2(16, 16));
        let y = w.evaluate(&x);
        let mut rng = StdRng::seed_from_u64(120);
        let est = QuadTree::new().run_eps(&x, &w, 1e9, &mut rng).unwrap();
        let err = Loss::L2.eval(&y, &w.evaluate_cells(&est));
        assert!(err < 1e-2, "err {err}");
    }

    #[test]
    fn capped_height_leaves_bias() {
        // Height 3 on 16x16: leaves are 4x4 blocks → persistent bias on
        // non-uniform data (Theorem 5).
        let mut counts = vec![0.0; 256];
        counts[0] = 1000.0;
        let x = DataVector::new(counts, Domain::D2(16, 16));
        let w = Workload::identity(Domain::D2(16, 16));
        let y = w.evaluate(&x);
        let mut rng = StdRng::seed_from_u64(121);
        let est = QuadTree::with_height(3)
            .run_eps(&x, &w, 1e9, &mut rng)
            .unwrap();
        let err = Loss::L2.eval(&y, &w.evaluate_cells(&est));
        assert!(err > 10.0, "bias should persist: err {err}");
        // The 1000-count spike is spread over its 4x4 leaf: ~62.5 each.
        assert!((est[0] - 62.5).abs() < 1.0, "est[0] = {}", est[0]);
    }

    #[test]
    fn level_budgets_sum_and_favour_leaves() {
        let eps = QuadTree::level_budgets(1.0, 5);
        assert!((eps.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(eps[4] > eps[0]);
    }

    #[test]
    fn rejects_1d() {
        let x = DataVector::zeros(Domain::D1(16));
        let w = Workload::identity(Domain::D1(16));
        let mut rng = StdRng::seed_from_u64(122);
        assert!(QuadTree::new().run_eps(&x, &w, 1.0, &mut rng).is_err());
    }

    #[test]
    fn hybrid_tree_runs() {
        let mut counts = vec![1.0; 32 * 32];
        counts[0] = 500.0;
        let x = DataVector::new(counts, Domain::D2(32, 32));
        let w = Workload::identity(Domain::D2(32, 32));
        let mut rng = StdRng::seed_from_u64(123);
        let est = HybridTree::new().run_eps(&x, &w, 1.0, &mut rng).unwrap();
        assert_eq!(est.len(), 1024);
        assert!(est.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn hybrid_kd_split_balances_mass() {
        // All mass in the left quarter: a high-ε balance split should cut
        // inside or at the edge of that quarter, not at the middle.
        let side = 16;
        let mut counts = vec![0.0; side * side];
        for r in 0..side {
            for c in 0..4 {
                counts[r * side + c] = 100.0;
            }
        }
        let x = DataVector::new(counts, Domain::D2(side, side));
        let table = PrefixTable::build(&x);
        let q = RangeQuery::d2(0, 0, side - 1, side - 1);
        let mut rng = StdRng::seed_from_u64(124);
        let (a, _b) = kd_split(&table, &q, false, 1e6, &mut rng).unwrap();
        assert!(a.hi.1 <= 3, "split at col {} should be ≤ 3", a.hi.1);
    }

    #[test]
    fn hybrid_is_extension() {
        assert!(HybridTree::new().info().extension);
        assert!(!QuadTree::new().info().extension);
    }
}
