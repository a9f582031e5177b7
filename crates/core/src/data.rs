//! The data vector `x` (Section 2.2): a multi-dimensional array of
//! non-negative cell counts together with its three key properties —
//! *domain size*, *scale* `‖x‖₁`, and *shape* `p = x / ‖x‖₁`.

use crate::domain::Domain;

/// A dataset represented as a (row-major) vector of cell counts over a
/// [`Domain`].
///
/// Counts are stored as `f64` because mechanism outputs are real-valued
/// estimates of the same object; inputs produced by the data generator are
/// always integral.
#[derive(Debug, Clone, PartialEq)]
pub struct DataVector {
    counts: Vec<f64>,
    domain: Domain,
}

impl DataVector {
    /// Wrap raw counts over a domain. Panics if the lengths disagree.
    pub fn new(counts: Vec<f64>, domain: Domain) -> Self {
        assert_eq!(
            counts.len(),
            domain.n_cells(),
            "count vector length {} does not match domain {domain} ({} cells)",
            counts.len(),
            domain.n_cells()
        );
        Self { counts, domain }
    }

    /// An all-zero data vector.
    pub fn zeros(domain: Domain) -> Self {
        Self::new(vec![0.0; domain.n_cells()], domain)
    }

    /// The underlying domain.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Borrow the raw cell counts (row-major for 2-D).
    pub fn counts(&self) -> &[f64] {
        &self.counts
    }

    /// Consume and return the raw counts.
    pub fn into_counts(self) -> Vec<f64> {
        self.counts
    }

    /// Number of cells (domain size `n`).
    pub fn n_cells(&self) -> usize {
        self.counts.len()
    }

    /// The dataset *scale* `‖x‖₁` (number of tuples for integral data).
    pub fn scale(&self) -> f64 {
        self.counts.iter().sum()
    }

    /// The dataset *shape*: the normalized distribution `p = x / ‖x‖₁`.
    ///
    /// Returns the uniform distribution for an empty dataset so that shapes
    /// are always valid probability vectors.
    pub fn shape(&self) -> Vec<f64> {
        let s = self.scale();
        if s <= 0.0 {
            let n = self.n_cells();
            return vec![1.0 / n as f64; n];
        }
        self.counts.iter().map(|&c| c / s).collect()
    }

    /// Fraction of cells with a zero count (the sparsity statistic the paper
    /// reports per dataset in Table 2).
    pub fn zero_fraction(&self) -> f64 {
        let zeros = self.counts.iter().filter(|&&c| c == 0.0).count();
        zeros as f64 / self.n_cells() as f64
    }

    /// Cell count at a coordinate.
    #[inline]
    pub fn at(&self, coord: (usize, usize)) -> f64 {
        self.counts[self.domain.index(coord)]
    }

    /// Coarsen to a smaller domain by aggregating adjacent cells along each
    /// axis (paper Section 6.1: "By grouping adjacent buckets, we derive
    /// versions of each dataset with smaller domain sizes").
    ///
    /// Panics if the target does not evenly divide the source domain.
    pub fn coarsen(&self, target: Domain) -> DataVector {
        assert!(
            self.domain.coarsens_to(&target),
            "domain {} does not coarsen to {target}",
            self.domain
        );
        match (self.domain, target) {
            (Domain::D1(n), Domain::D1(m)) => {
                let block = n / m;
                let mut out = vec![0.0; m];
                for (i, &c) in self.counts.iter().enumerate() {
                    out[i / block] += c;
                }
                DataVector::new(out, target)
            }
            (Domain::D2(_, cols), Domain::D2(tr, tc)) => {
                let (rows, _) = match self.domain {
                    Domain::D2(r, c) => (r, c),
                    _ => unreachable!(),
                };
                let rb = rows / tr;
                let cb = cols / tc;
                let mut out = vec![0.0; tr * tc];
                for r in 0..rows {
                    for c in 0..cols {
                        out[(r / rb) * tc + (c / cb)] += self.counts[r * cols + c];
                    }
                }
                DataVector::new(out, target)
            }
            _ => unreachable!("coarsens_to already rejected mixed dimensionality"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v1d(counts: &[f64]) -> DataVector {
        DataVector::new(counts.to_vec(), Domain::D1(counts.len()))
    }

    #[test]
    fn scale_and_shape() {
        let x = v1d(&[1.0, 3.0, 0.0, 4.0]);
        assert_eq!(x.scale(), 8.0);
        let p = x.shape();
        assert_eq!(p, vec![0.125, 0.375, 0.0, 0.5]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shape_of_empty_is_uniform() {
        let x = DataVector::zeros(Domain::D1(4));
        assert_eq!(x.shape(), vec![0.25; 4]);
    }

    #[test]
    fn zero_fraction() {
        let x = v1d(&[0.0, 1.0, 0.0, 2.0]);
        assert_eq!(x.zero_fraction(), 0.5);
    }

    #[test]
    fn coarsen_1d_preserves_mass() {
        let x = v1d(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let y = x.coarsen(Domain::D1(4));
        assert_eq!(y.counts(), &[3.0, 7.0, 11.0, 15.0]);
        assert_eq!(y.scale(), x.scale());
    }

    #[test]
    fn coarsen_2d_preserves_mass() {
        let x = DataVector::new((0..16).map(|i| i as f64).collect(), Domain::D2(4, 4));
        let y = x.coarsen(Domain::D2(2, 2));
        assert_eq!(y.scale(), x.scale());
        // top-left block: cells (0,0),(0,1),(1,0),(1,1) = 0+1+4+5
        assert_eq!(y.counts()[0], 10.0);
        // bottom-right block: cells (2,2)+(2,3)+(3,2)+(3,3) = 10+11+14+15
        assert_eq!(y.counts()[3], 50.0);
    }

    #[test]
    #[should_panic(expected = "does not coarsen")]
    fn coarsen_rejects_uneven() {
        v1d(&[1.0; 10]).coarsen(Domain::D1(3));
    }

    #[test]
    #[should_panic(expected = "does not match domain")]
    fn new_rejects_mismatch() {
        DataVector::new(vec![1.0; 3], Domain::D1(4));
    }

    #[test]
    fn at_2d() {
        let x = DataVector::new((0..12).map(|i| i as f64).collect(), Domain::D2(3, 4));
        assert_eq!(x.at((1, 2)), 6.0);
        assert_eq!(x.at((2, 3)), 11.0);
    }
}
