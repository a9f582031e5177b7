//! UGRID and AGRID — differentially private grids for geospatial data
//! (Qardaji, Yang, Li; ICDE 2013).
//!
//! * **UGRID** (uniform grid): partitions the 2-D domain into a `g × g`
//!   equi-width grid with `g = ⌈√(N·ε/c)⌉`, `c = 10` — the data-dependent
//!   twist being that `g` is derived from the dataset scale `N` (side
//!   information flagged in Table 1). Each grid block gets a noisy count
//!   (full ε; the blocks partition the domain so sensitivity is 1) and is
//!   assumed uniform inside.
//! * **AGRID** (adaptive grid): a coarser top level with
//!   `g₁ = max(10, ⌈¼·√(N·ε/c)⌉)` measured with ρ·ε (ρ = 0.5); then each
//!   top-level block is re-partitioned by its own noisy count `n_b` into
//!   `g₂ = ⌈√(n_b·(1−ρ)·ε/c₂)⌉` sub-blocks (`c₂ = 5`) measured with
//!   (1−ρ)·ε. Both levels are fused per block with exact tree inference.
//!
//! Both are consistent (Theorem 4: as ε → ∞ the grids refine to single
//! cells) and scale-ε exchangeable (Theorem 13).

use dpbench_core::mechanism::{fingerprint_words, DimSupport, FnPlan, Plan, PlanDiagnostics};
use dpbench_core::primitives::laplace;
use dpbench_core::query::PrefixTable;
use dpbench_core::{
    BudgetLedger, DataVector, Domain, MechError, MechInfo, Mechanism, RangeQuery, Workload,
};
use dpbench_transforms::tree_ls::{MeasuredTree, Measurement};
use rand::RngCore;

/// UGRID with the paper's constant c = 10.
#[derive(Debug, Clone, Copy)]
pub struct UGrid {
    /// The grid-sizing constant (paper: c = 10).
    pub c: f64,
    /// Scale used for grid sizing: `None` = true scale as side information
    /// (the original algorithm); `Some(v)` = externally supplied (the
    /// benchmark's `Rside` repair passes a noisy estimate).
    pub scale_hint: Option<f64>,
}

impl Default for UGrid {
    fn default() -> Self {
        Self {
            c: 10.0,
            scale_hint: None,
        }
    }
}

impl UGrid {
    /// UGRID with c = 10.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grid size for scale `n_records` and budget ε (clamped to the domain
    /// side).
    pub fn grid_size(&self, n_records: f64, eps: f64, side: usize) -> usize {
        let g = (n_records.max(0.0) * eps / self.c).sqrt().ceil() as usize;
        g.clamp(1, side)
    }
}

/// Split `side` cells into `g` contiguous strips of (nearly) equal width;
/// returns inclusive `(lo, hi)` bounds.
fn strips(side: usize, g: usize) -> Vec<(usize, usize)> {
    let g = g.clamp(1, side);
    let base = side / g;
    let extra = side % g;
    let mut out = Vec::with_capacity(g);
    let mut start = 0;
    for i in 0..g {
        let len = base + usize::from(i < extra);
        out.push((start, start + len - 1));
        start += len;
    }
    out
}

impl Mechanism for UGrid {
    fn info(&self) -> MechInfo {
        let mut info = MechInfo::new("UGRID", DimSupport::TwoD);
        info.data_dependent = true;
        info.partitioning = true;
        info.side_info = Some("scale".into());
        info
    }

    fn plan(&self, domain: &Domain, _workload: &Workload) -> Result<Box<dyn Plan>, MechError> {
        if domain.dims() != 2 {
            return Err(MechError::Unsupported {
                mechanism: "UGRID".into(),
                reason: format!("requires a 2-D domain, got {domain}"),
            });
        }
        let mech = *self;
        Ok(FnPlan::boxed(
            *domain,
            PlanDiagnostics::data_dependent("UGRID"),
            move |x, _ws, budget, rng| mech.grid_and_measure(x, budget, rng),
        ))
    }

    fn config_fingerprint(&self) -> u64 {
        fingerprint_words(&[self.c.to_bits(), self.scale_hint.map_or(0, f64::to_bits)])
    }
}

impl UGrid {
    /// The private pipeline: size the grid from the scale, measure blocks.
    fn grid_and_measure(
        &self,
        x: &DataVector,
        budget: &mut BudgetLedger,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<f64>, MechError> {
        let (rows, cols) = match x.domain() {
            Domain::D2(r, c) => (r, c),
            d => {
                return Err(MechError::Unsupported {
                    mechanism: "UGRID".into(),
                    reason: format!("requires a 2-D domain, got {d}"),
                })
            }
        };
        let eps = budget.spend_all_as("blocks");
        let n_records = self.scale_hint.unwrap_or_else(|| x.scale());
        let g = self.grid_size(n_records, eps, rows.min(cols));
        let table = PrefixTable::build(x);
        let mut est = vec![0.0; x.n_cells()];
        for &(r1, r2) in &strips(rows, g) {
            for &(c1, c2) in &strips(cols, g) {
                let q = RangeQuery::d2(r1, c1, r2, c2);
                let noisy = table.eval(&q) + laplace(1.0 / eps, rng);
                let share = noisy / q.size() as f64;
                for r in r1..=r2 {
                    for c in c1..=c2 {
                        est[r * cols + c] = share;
                    }
                }
            }
        }
        Ok(est)
    }
}

/// AGRID with the paper's constants (c = 10, c₂ = 5, ρ = 0.5).
#[derive(Debug, Clone, Copy)]
pub struct AGrid {
    /// Top-level sizing constant (paper: c = 10).
    pub c: f64,
    /// Second-level sizing constant (paper: c₂ = 5).
    pub c2: f64,
    /// Budget fraction for the top level (paper: ρ = 0.5).
    pub rho: f64,
    /// Scale used for top-level sizing: `None` = true scale as side
    /// information; `Some(v)` = externally supplied (`Rside` repair).
    pub scale_hint: Option<f64>,
}

impl Default for AGrid {
    fn default() -> Self {
        Self {
            c: 10.0,
            c2: 5.0,
            rho: 0.5,
            scale_hint: None,
        }
    }
}

impl AGrid {
    /// AGRID with the paper's constants.
    pub fn new() -> Self {
        Self::default()
    }

    /// Top-level grid size.
    pub fn top_grid_size(&self, n_records: f64, eps: f64, side: usize) -> usize {
        let g = ((n_records.max(0.0) * eps / self.c).sqrt() / 4.0).ceil() as usize;
        g.max(10).clamp(1, side)
    }
}

impl Mechanism for AGrid {
    fn info(&self) -> MechInfo {
        let mut info = MechInfo::new("AGRID", DimSupport::TwoD);
        info.data_dependent = true;
        info.hierarchical = true;
        info.partitioning = true;
        info.side_info = Some("scale".into());
        info
    }

    fn plan(&self, domain: &Domain, _workload: &Workload) -> Result<Box<dyn Plan>, MechError> {
        if domain.dims() != 2 {
            return Err(MechError::Unsupported {
                mechanism: "AGRID".into(),
                reason: format!("requires a 2-D domain, got {domain}"),
            });
        }
        let mech = *self;
        Ok(FnPlan::boxed(
            *domain,
            PlanDiagnostics::data_dependent("AGRID"),
            move |x, _ws, budget, rng| mech.grid_and_measure(x, budget, rng),
        ))
    }

    fn config_fingerprint(&self) -> u64 {
        fingerprint_words(&[
            self.c.to_bits(),
            self.c2.to_bits(),
            self.rho.to_bits(),
            self.scale_hint.map_or(0, f64::to_bits),
        ])
    }
}

impl AGrid {
    /// The private pipeline: top-level blocks (ε₁), adaptive sub-blocks
    /// (ε₂), per-block fusion.
    fn grid_and_measure(
        &self,
        x: &DataVector,
        budget: &mut BudgetLedger,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<f64>, MechError> {
        let (rows, cols) = match x.domain() {
            Domain::D2(r, c) => (r, c),
            d => {
                return Err(MechError::Unsupported {
                    mechanism: "AGRID".into(),
                    reason: format!("requires a 2-D domain, got {d}"),
                })
            }
        };
        let eps1 = budget.spend_fraction_as("top-blocks", self.rho)?;
        let eps2 = budget.spend_all_as("sub-blocks");
        let n_records = self.scale_hint.unwrap_or_else(|| x.scale());
        let g1 = self.top_grid_size(n_records, eps1 + eps2, rows.min(cols));
        let table = PrefixTable::build(x);
        let mut est = vec![0.0; x.n_cells()];

        for &(r1, r2) in &strips(rows, g1) {
            for &(c1, c2) in &strips(cols, g1) {
                let block = RangeQuery::d2(r1, c1, r2, c2);
                let noisy_block = table.eval(&block) + laplace(1.0 / eps1, rng);
                // Adaptive second level from the noisy block count.
                let side = (r2 - r1 + 1).min(c2 - c1 + 1);
                let g2 =
                    ((noisy_block.max(0.0) * eps2 / self.c2).sqrt().ceil() as usize).clamp(1, side);

                // Fuse the block measurement with its sub-block
                // measurements via exact inference, then spread uniformly
                // within sub-blocks. Sub-blocks across the whole domain
                // are disjoint → one ε₂ covers them all.
                let mut tree = MeasuredTree::new();
                let root = tree.add_node(Some(Measurement {
                    value: noisy_block,
                    variance: 2.0 / (eps1 * eps1),
                }));
                let mut subs = Vec::new();
                let mut sub_ids = Vec::new();
                for &(sr1, sr2) in &strips(r2 - r1 + 1, g2) {
                    for &(sc1, sc2) in &strips(c2 - c1 + 1, g2) {
                        let q = RangeQuery::d2(r1 + sr1, c1 + sc1, r1 + sr2, c1 + sc2);
                        let noisy = table.eval(&q) + laplace(1.0 / eps2, rng);
                        subs.push(q);
                        sub_ids.push(tree.add_node(Some(Measurement {
                            value: noisy,
                            variance: 2.0 / (eps2 * eps2),
                        })));
                    }
                }
                tree.set_children(root, &sub_ids);
                tree.set_root(root);
                let fin = tree.infer();
                for (q, id) in subs.iter().zip(&sub_ids) {
                    let share = fin[*id] / q.size() as f64;
                    for r in q.lo.0..=q.hi.0 {
                        for c in q.lo.1..=q.hi.1 {
                            est[r * cols + c] = share;
                        }
                    }
                }
            }
        }
        Ok(est)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbench_core::Loss;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn clustered(side: usize, scale: f64) -> DataVector {
        let mut counts = vec![0.0; side * side];
        // Dense blob in one corner.
        for r in 0..side / 4 {
            for c in 0..side / 4 {
                counts[r * side + c] = scale / (side * side / 16) as f64;
            }
        }
        DataVector::new(counts, Domain::D2(side, side))
    }

    #[test]
    fn strips_partition_side() {
        let s = strips(10, 3);
        assert_eq!(s, vec![(0, 3), (4, 6), (7, 9)]);
        assert_eq!(strips(4, 8).len(), 4); // clamped to side
    }

    #[test]
    fn ugrid_scales_grid_with_data() {
        let u = UGrid::new();
        assert!(u.grid_size(1e6, 1.0, 256) > u.grid_size(1e3, 1.0, 256));
        assert_eq!(u.grid_size(0.0, 1.0, 256), 1);
        assert_eq!(u.grid_size(1e12, 1.0, 256), 256);
    }

    #[test]
    fn ugrid_runs() {
        let x = clustered(32, 100_000.0);
        let w = Workload::identity(Domain::D2(32, 32));
        let mut rng = StdRng::seed_from_u64(110);
        let est = UGrid::new().run_eps(&x, &w, 1.0, &mut rng).unwrap();
        assert_eq!(est.len(), 1024);
        let total: f64 = est.iter().sum();
        assert!((total - 100_000.0).abs() < 5_000.0, "total {total}");
    }

    #[test]
    fn agrid_consistent_at_high_eps() {
        let x = clustered(16, 10_000.0);
        let w = Workload::identity(Domain::D2(16, 16));
        let y = w.evaluate(&x);
        let mut rng = StdRng::seed_from_u64(111);
        let est = AGrid::new().run_eps(&x, &w, 1e9, &mut rng).unwrap();
        let err = Loss::L2.eval(&y, &w.evaluate_cells(&est));
        // Grids refine to single cells at huge ε → near-exact recovery.
        assert!(err < 1.0, "err {err}");
    }

    #[test]
    fn agrid_beats_identity_on_sparse_data_low_eps() {
        let mut rng = StdRng::seed_from_u64(112);
        let side = 64;
        let x = clustered(side, 50_000.0);
        let w = Workload::random_ranges(Domain::D2(side, side), 200, &mut rng);
        let y = w.evaluate(&x);
        let (mut ea, mut ei) = (0.0, 0.0);
        for _ in 0..5 {
            let a = AGrid::new().run_eps(&x, &w, 0.01, &mut rng).unwrap();
            let i = crate::identity::Identity
                .run_eps(&x, &w, 0.01, &mut rng)
                .unwrap();
            ea += Loss::L2.eval(&y, &w.evaluate_cells(&a));
            ei += Loss::L2.eval(&y, &w.evaluate_cells(&i));
        }
        assert!(ea < ei, "AGRID {ea} vs IDENTITY {ei}");
    }

    #[test]
    fn both_reject_1d() {
        let x = DataVector::zeros(Domain::D1(64));
        let w = Workload::identity(Domain::D1(64));
        let mut rng = StdRng::seed_from_u64(113);
        assert!(UGrid::new().run_eps(&x, &w, 1.0, &mut rng).is_err());
        assert!(AGrid::new().run_eps(&x, &w, 1.0, &mut rng).is_err());
    }
}
