//! Dataset domains (Section 2.2 of the paper).
//!
//! DPBench evaluates algorithms on 1- and 2-dimensional domains. A domain is
//! the grid of cells underlying the data vector `x`; its *size* `n` is the
//! total number of cells, one of the three key dataset properties the
//! benchmark controls for (scale and shape being the others).

use std::fmt;

/// A discrete, ordered data domain of dimensionality 1 or 2.
///
/// The benchmark uses 1-D domains of sizes {256, 512, 1024, 2048, 4096} and
/// square 2-D domains of sizes {32², 64², 128², 256²} (paper Section 6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// One-dimensional domain with `n` cells.
    D1(usize),
    /// Two-dimensional domain with `rows × cols` cells.
    D2(usize, usize),
}

impl Domain {
    /// Total number of cells `n = n₁ × … × n_k`.
    pub fn n_cells(&self) -> usize {
        match *self {
            Domain::D1(n) => n,
            Domain::D2(r, c) => r * c,
        }
    }

    /// Dimensionality `k` of the domain (1 or 2).
    pub fn dims(&self) -> usize {
        match self {
            Domain::D1(_) => 1,
            Domain::D2(_, _) => 2,
        }
    }

    /// Extent along each axis: `[n]` for 1-D, `[rows, cols]` for 2-D.
    pub fn extents(&self) -> Vec<usize> {
        match *self {
            Domain::D1(n) => vec![n],
            Domain::D2(r, c) => vec![r, c],
        }
    }

    /// Row-major linear index for a 2-D coordinate (or the identity in 1-D).
    #[inline]
    pub fn index(&self, coord: (usize, usize)) -> usize {
        match *self {
            Domain::D1(n) => {
                debug_assert!(coord.0 < n && coord.1 == 0);
                coord.0
            }
            Domain::D2(_, c) => coord.0 * c + coord.1,
        }
    }

    /// Inverse of [`Domain::index`].
    #[inline]
    pub fn coord(&self, idx: usize) -> (usize, usize) {
        match *self {
            Domain::D1(_) => (idx, 0),
            Domain::D2(_, c) => (idx / c, idx % c),
        }
    }

    /// Whether `self` can be coarsened to `target` by aggregating an integral
    /// number of adjacent cells along each axis.
    pub fn coarsens_to(&self, target: &Domain) -> bool {
        match (*self, *target) {
            (Domain::D1(n), Domain::D1(m)) => m > 0 && n % m == 0,
            (Domain::D2(r, c), Domain::D2(tr, tc)) => {
                tr > 0 && tc > 0 && r % tr == 0 && c % tc == 0
            }
            _ => false,
        }
    }

    /// True when every axis extent is a power of two (required by the Haar
    /// wavelet and radix-2 FFT substrates; all benchmark domains satisfy it).
    pub fn is_pow2(&self) -> bool {
        self.extents().iter().all(|&e| e.is_power_of_two())
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Domain::D1(n) => write!(f, "{n}"),
            Domain::D2(r, c) => write!(f, "{r}x{c}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n_cells_and_dims() {
        assert_eq!(Domain::D1(4096).n_cells(), 4096);
        assert_eq!(Domain::D1(4096).dims(), 1);
        assert_eq!(Domain::D2(128, 128).n_cells(), 16384);
        assert_eq!(Domain::D2(128, 128).dims(), 2);
    }

    #[test]
    fn index_roundtrip_2d() {
        let d = Domain::D2(8, 16);
        for idx in 0..d.n_cells() {
            assert_eq!(d.index(d.coord(idx)), idx);
        }
    }

    #[test]
    fn index_roundtrip_1d() {
        let d = Domain::D1(100);
        for idx in 0..100 {
            assert_eq!(d.index(d.coord(idx)), idx);
        }
    }

    #[test]
    fn coarsening_rules() {
        assert!(Domain::D1(4096).coarsens_to(&Domain::D1(256)));
        assert!(!Domain::D1(4096).coarsens_to(&Domain::D1(3000)));
        assert!(Domain::D2(256, 256).coarsens_to(&Domain::D2(32, 32)));
        assert!(!Domain::D2(256, 256).coarsens_to(&Domain::D1(256)));
        assert!(!Domain::D1(10).coarsens_to(&Domain::D1(0)));
    }

    #[test]
    fn pow2_detection() {
        assert!(Domain::D1(4096).is_pow2());
        assert!(Domain::D2(64, 128).is_pow2());
        assert!(!Domain::D1(100).is_pow2());
    }

    #[test]
    fn display() {
        assert_eq!(Domain::D1(512).to_string(), "512");
        assert_eq!(Domain::D2(64, 64).to_string(), "64x64");
    }
}
