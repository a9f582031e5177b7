//! DPCUBE — histogram release through multidimensional partitioning
//! (Xiao, Xiong, Fan, Goryczka, Li; Transactions on Data Privacy 2014).
//!
//! Two stages (ρ = 0.5 in the benchmark):
//!
//! 1. **Cell counts** (ε₁): obtain a noisy count for every cell.
//! 2. **kd-tree partition**: build a kd-tree *on the noisy counts* (no
//!    extra privacy cost — post-processing), splitting the longest axis at
//!    the position minimizing the two sides' summed squared deviation,
//!    stopping when a region looks noise-level uniform or reaches the
//!    minimum partition size `n_p = 10` cells. Then obtain *fresh* noisy
//!    counts for the partitions with ε₂ and fuse both measurement sets
//!    with the exact tree least-squares inference — "uses inference to
//!    average the two sets of counts".
//!
//! Consistent and scale-ε exchangeable (Table 1).

use dpbench_core::mechanism::{fingerprint_words, DimSupport, FnPlan, Plan, PlanDiagnostics};
use dpbench_core::primitives::laplace;
use dpbench_core::query::PrefixTable;
use dpbench_core::{
    BudgetLedger, DataVector, Domain, MechError, MechInfo, Mechanism, RangeQuery, Workload,
};
use dpbench_transforms::tree_ls::{MeasuredTree, Measurement};
use rand::RngCore;

/// The DPCUBE mechanism.
#[derive(Debug, Clone, Copy)]
pub struct DpCube {
    /// Budget fraction for the first (cell-count) stage; benchmark ρ = 0.5.
    pub rho: f64,
    /// Minimum partition size in cells (benchmark n_p = 10).
    pub min_partition: usize,
}

impl Default for DpCube {
    fn default() -> Self {
        Self {
            rho: 0.5,
            min_partition: 10,
        }
    }
}

impl DpCube {
    /// DPCUBE with the benchmark defaults (ρ = 0.5, n_p = 10).
    pub fn new() -> Self {
        Self::default()
    }
}

/// An axis-aligned region of the kd-tree.
#[derive(Debug, Clone, Copy)]
struct Region {
    lo: (usize, usize),
    hi: (usize, usize),
}

impl Region {
    fn query(&self) -> RangeQuery {
        RangeQuery {
            lo: self.lo,
            hi: self.hi,
        }
    }
    fn cells(&self) -> usize {
        (self.hi.0 - self.lo.0 + 1) * (self.hi.1 - self.lo.1 + 1)
    }
}

impl Mechanism for DpCube {
    fn info(&self) -> MechInfo {
        let mut info = MechInfo::new("DPCUBE", DimSupport::MultiD);
        info.data_dependent = true;
        info.hierarchical = true;
        info.partitioning = true;
        info
    }

    fn plan(&self, domain: &Domain, _workload: &Workload) -> Result<Box<dyn Plan>, MechError> {
        let mech = *self;
        Ok(FnPlan::boxed(
            *domain,
            PlanDiagnostics::data_dependent("DPCUBE"),
            move |x, _ws, budget, rng| mech.partition_and_fuse(x, budget, rng),
        ))
    }

    fn config_fingerprint(&self) -> u64 {
        fingerprint_words(&[self.rho.to_bits(), self.min_partition as u64])
    }
}

impl DpCube {
    /// The private pipeline: noisy cells (ε₁), post-processing kd-tree,
    /// fresh partition counts (ε₂), least-squares fusion.
    fn partition_and_fuse(
        &self,
        x: &DataVector,
        budget: &mut BudgetLedger,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<f64>, MechError> {
        let eps1 = budget.spend_fraction_as("cells", self.rho)?;
        let eps2 = budget.spend_all_as("partitions");
        let domain = x.domain();
        let n = x.n_cells();

        // Stage 1: noisy cell counts.
        let noisy: Vec<f64> = x
            .counts()
            .iter()
            .map(|&c| c + laplace(1.0 / eps1, rng))
            .collect();
        let noisy_x = DataVector::new(noisy.clone(), domain);
        let noisy_table = PrefixTable::build(&noisy_x);

        // Post-processing kd-tree on noisy counts. A region whose squared
        // deviation is explained by the stage-1 noise alone (≤ 2·|R|·Var)
        // is treated as uniform and kept whole; otherwise it splits, down
        // to single cells. The noise-scaled threshold vanishes as ε → ∞,
        // so the tree then refines exactly to zero-bias (uniform-valued)
        // regions — the argument behind DPCUBE's consistency (Theorem 3).
        // Regions at or below the minimum partition size n_p face a
        // stricter (4×) split requirement, discouraging tiny fragments.
        let noise_var = 2.0 / (eps1 * eps1);
        let root = match domain {
            dpbench_core::Domain::D1(n) => Region {
                lo: (0, 0),
                hi: (n - 1, 0),
            },
            dpbench_core::Domain::D2(r, c) => Region {
                lo: (0, 0),
                hi: (r - 1, c - 1),
            },
        };
        let mut leaves = Vec::new();
        let mut stack = vec![root];
        while let Some(region) = stack.pop() {
            if region.cells() == 1 {
                leaves.push(region);
                continue;
            }
            let sse = region_sse(&noisy, &noisy_table, domain, &region);
            let strictness = if region.cells() <= self.min_partition {
                4.0
            } else {
                2.0
            };
            if sse <= strictness * region.cells() as f64 * noise_var {
                leaves.push(region);
                continue;
            }
            match best_split(&noisy_table, &region) {
                Some((a, b)) => {
                    stack.push(a);
                    stack.push(b);
                }
                None => leaves.push(region),
            }
        }

        // Stage 2: fresh noisy counts for the partitions (they are
        // disjoint → sensitivity 1). Each leaf's final total fuses the
        // fresh measurement with the *sum* of its stage-1 cell counts by
        // inverse-variance weighting ("uses inference to average the two
        // sets of counts"), then spreads uniformly within the leaf — the
        // uniformity assumption that trades per-cell variance for bias.
        let true_table = PrefixTable::build(x);
        let mut est = vec![0.0; n];
        for region in &leaves {
            let fresh = true_table.eval(&region.query()) + laplace(1.0 / eps2, rng);
            let mut tree = MeasuredTree::new();
            let node = tree.add_node(Some(Measurement {
                value: fresh,
                variance: 2.0 / (eps2 * eps2),
            }));
            let stage1_sum: f64 = {
                let mut s = 0.0;
                for r in region.lo.0..=region.hi.0 {
                    for c in region.lo.1..=region.hi.1 {
                        s += noisy[domain.index((r, c))];
                    }
                }
                s
            };
            let child = tree.add_node(Some(Measurement {
                value: stage1_sum,
                variance: region.cells() as f64 * noise_var,
            }));
            tree.set_children(node, &[child]);
            tree.set_root(node);
            let fused = tree.infer()[0];
            let share = fused / region.cells() as f64;
            for r in region.lo.0..=region.hi.0 {
                for c in region.lo.1..=region.hi.1 {
                    est[domain.index((r, c))] = share;
                }
            }
        }
        Ok(est)
    }
}

/// Squared deviation of noisy counts within a region from the region mean.
fn region_sse(
    noisy: &[f64],
    table: &PrefixTable,
    domain: dpbench_core::Domain,
    region: &Region,
) -> f64 {
    let total = table.eval(&region.query());
    let mean = total / region.cells() as f64;
    let mut sse = 0.0;
    for r in region.lo.0..=region.hi.0 {
        for c in region.lo.1..=region.hi.1 {
            let v = noisy[domain.index((r, c))];
            sse += (v - mean) * (v - mean);
        }
    }
    sse
}

/// Best kd-split of the region's longest axis: the cut minimizing the sum
/// of the two sides' squared deviations (evaluated on noisy counts via the
/// prefix table for the means and a per-candidate scan for the SSE on the
/// shorter axis form).
fn best_split(table: &PrefixTable, region: &Region) -> Option<(Region, Region)> {
    let rows = region.hi.0 - region.lo.0 + 1;
    let cols = region.hi.1 - region.lo.1 + 1;
    let split_rows = rows >= cols;
    let extent = if split_rows { rows } else { cols };
    if extent < 2 {
        // Try the other axis before giving up.
        let other = if split_rows { cols } else { rows };
        if other < 2 {
            return None;
        }
    }
    let axis_len = if split_rows { rows } else { cols };
    if axis_len < 2 {
        return None;
    }
    let mut best: Option<(f64, usize)> = None;
    for cut in 1..axis_len {
        let (a, b) = split_at(region, split_rows, cut);
        // Proxy for SSE: between-group explained variance — maximizing it
        // equals minimizing within-group SSE, and needs only region sums.
        let (ta, tb) = (table.eval(&a.query()), table.eval(&b.query()));
        let (na, nb) = (a.cells() as f64, b.cells() as f64);
        let total = ta + tb;
        let ntot = na + nb;
        let grand_mean = total / ntot;
        let explained = na * (ta / na - grand_mean).powi(2) + nb * (tb / nb - grand_mean).powi(2);
        if best.is_none_or(|(b_val, _)| explained > b_val) {
            best = Some((explained, cut));
        }
    }
    best.map(|(_, cut)| split_at(region, split_rows, cut))
}

fn split_at(region: &Region, split_rows: bool, cut: usize) -> (Region, Region) {
    if split_rows {
        let mid = region.lo.0 + cut - 1;
        (
            Region {
                lo: region.lo,
                hi: (mid, region.hi.1),
            },
            Region {
                lo: (mid + 1, region.lo.1),
                hi: region.hi,
            },
        )
    } else {
        let mid = region.lo.1 + cut - 1;
        (
            Region {
                lo: region.lo,
                hi: (region.hi.0, mid),
            },
            Region {
                lo: (region.lo.0, mid + 1),
                hi: region.hi,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbench_core::{Domain, Loss};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn consistent_at_high_eps() {
        let counts: Vec<f64> = (0..64).map(|i| ((i * 11) % 17) as f64 * 20.0).collect();
        let x = DataVector::new(counts, Domain::D1(64));
        let w = Workload::identity(Domain::D1(64));
        let y = w.evaluate(&x);
        let mut rng = StdRng::seed_from_u64(100);
        let est = DpCube::new().run_eps(&x, &w, 1e9, &mut rng).unwrap();
        let err = Loss::L2.eval(&y, &w.evaluate_cells(&est));
        assert!(err < 1.0, "err {err}");
    }

    #[test]
    fn runs_1d_and_2d() {
        let mut rng = StdRng::seed_from_u64(101);
        let x1 = DataVector::new(vec![3.0; 100], Domain::D1(100));
        let w1 = Workload::identity(Domain::D1(100));
        let e1 = DpCube::new().run_eps(&x1, &w1, 1.0, &mut rng).unwrap();
        assert_eq!(e1.len(), 100);

        let x2 = DataVector::new(vec![3.0; 32 * 32], Domain::D2(32, 32));
        let w2 = Workload::identity(Domain::D2(32, 32));
        let e2 = DpCube::new().run_eps(&x2, &w2, 1.0, &mut rng).unwrap();
        assert_eq!(e2.len(), 1024);
    }

    #[test]
    fn uniform_data_collapses_to_few_partitions() {
        // With uniform data the SSE test keeps regions whole; the output
        // should be close to uniform even at moderate ε thanks to the
        // fused partition measurements.
        let x = DataVector::new(vec![100.0; 256], Domain::D1(256));
        let w = Workload::identity(Domain::D1(256));
        let y = w.evaluate(&x);
        let mut rng = StdRng::seed_from_u64(102);
        let mut dpcube_err = 0.0;
        let mut id_err = 0.0;
        for _ in 0..8 {
            let e = DpCube::new().run_eps(&x, &w, 0.1, &mut rng).unwrap();
            dpcube_err += Loss::L2.eval(&y, &w.evaluate_cells(&e));
            let i = crate::identity::Identity
                .run_eps(&x, &w, 0.1, &mut rng)
                .unwrap();
            id_err += Loss::L2.eval(&y, &w.evaluate_cells(&i));
        }
        assert!(
            dpcube_err < id_err,
            "DPCUBE {dpcube_err} should beat IDENTITY {id_err} on uniform data"
        );
    }

    #[test]
    fn split_at_partitions_region() {
        let region = Region {
            lo: (0, 0),
            hi: (7, 7),
        };
        let (a, b) = split_at(&region, true, 3);
        assert_eq!(a.hi.0, 2);
        assert_eq!(b.lo.0, 3);
        assert_eq!(a.cells() + b.cells(), region.cells());
    }
}
