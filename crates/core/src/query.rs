//! Multi-dimensional range (counting) queries.
//!
//! A range query is an axis-aligned, inclusive hyper-rectangle over the
//! domain; its answer is the sum of the cell counts it covers (paper
//! Section 2.2). Evaluation against a whole data vector goes through
//! cumulative tables ([`PrefixTable`]) so that each query costs O(1).

use crate::data::DataVector;
use crate::domain::Domain;

/// An inclusive axis-aligned range query.
///
/// For 1-D domains the second coordinate is always `(0, 0)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RangeQuery {
    /// Inclusive lower corner `(row, col)`.
    pub lo: (usize, usize),
    /// Inclusive upper corner `(row, col)`.
    pub hi: (usize, usize),
}

impl RangeQuery {
    /// A 1-D range `[lo, hi]` (inclusive).
    pub fn d1(lo: usize, hi: usize) -> Self {
        assert!(lo <= hi, "empty 1-D range [{lo}, {hi}]");
        Self {
            lo: (lo, 0),
            hi: (hi, 0),
        }
    }

    /// A 2-D range `[r1, r2] × [c1, c2]` (inclusive).
    pub fn d2(r1: usize, c1: usize, r2: usize, c2: usize) -> Self {
        assert!(r1 <= r2 && c1 <= c2, "empty 2-D range");
        Self {
            lo: (r1, c1),
            hi: (r2, c2),
        }
    }

    /// Number of cells the query covers.
    pub fn size(&self) -> usize {
        (self.hi.0 - self.lo.0 + 1) * (self.hi.1 - self.lo.1 + 1)
    }

    /// Whether the query fits inside `domain`.
    pub fn fits(&self, domain: &Domain) -> bool {
        match *domain {
            Domain::D1(n) => self.hi.0 < n && self.hi.1 == 0,
            Domain::D2(r, c) => self.hi.0 < r && self.hi.1 < c,
        }
    }

    /// Evaluate by direct summation (O(size)); used for testing the
    /// prefix-table fast path.
    pub fn eval_naive(&self, x: &DataVector) -> f64 {
        let mut total = 0.0;
        for r in self.lo.0..=self.hi.0 {
            for c in self.lo.1..=self.hi.1 {
                total += x.at((r, c));
            }
        }
        total
    }
}

/// Cumulative table over a data vector enabling O(1) range sums.
///
/// 1-D: prefix sums. 2-D: a summed-area table (integral image). Both are
/// stored with a zero sentinel row/column so lookups avoid branching.
#[derive(Debug, Clone)]
pub struct PrefixTable {
    table: Vec<f64>,
    domain: Domain,
}

impl PrefixTable {
    /// Build the cumulative table from raw cells.
    pub fn build(x: &DataVector) -> Self {
        Self::build_cells(x.counts(), x.domain())
    }

    /// Build from a raw cell slice over `domain` (no [`DataVector`]
    /// wrapping — and hence no clone of the cells).
    pub fn build_cells(cells: &[f64], domain: Domain) -> Self {
        let mut table = Vec::new();
        fill_table(&mut table, cells, domain);
        Self { table, domain }
    }

    /// Rebuild this table in place from new cells, reusing its allocation.
    /// The domain may differ from the one the table was built for.
    pub fn rebuild_cells(&mut self, cells: &[f64], domain: Domain) {
        fill_table(&mut self.table, cells, domain);
        self.domain = domain;
    }

    /// Total mass of the underlying vector.
    pub fn total(&self) -> f64 {
        *self.table.last().expect("table is never empty")
    }

    /// Answer a range query in O(1).
    #[inline]
    pub fn eval(&self, q: &RangeQuery) -> f64 {
        debug_assert!(
            q.fits(&self.domain),
            "query out of bounds for {}",
            self.domain
        );
        match self.domain {
            Domain::D1(_) => self.table[q.hi.0 + 1] - self.table[q.lo.0],
            Domain::D2(_, cols) => {
                let w = cols + 1;
                let (r1, c1) = q.lo;
                let (r2, c2) = (q.hi.0 + 1, q.hi.1 + 1);
                self.table[r2 * w + c2] - self.table[r1 * w + c2] - self.table[r2 * w + c1]
                    + self.table[r1 * w + c1]
            }
        }
    }
}

/// Fill `table` with the cumulative sums of `cells` over `domain`,
/// reusing the vector's capacity (`clear` + `resize` leaves every element
/// freshly zeroed, so the 2-D sentinel row/column needs no extra pass).
fn fill_table(table: &mut Vec<f64>, cells: &[f64], domain: Domain) {
    assert_eq!(
        cells.len(),
        domain.n_cells(),
        "cell slice length {} does not match domain {domain}",
        cells.len()
    );
    table.clear();
    match domain {
        Domain::D1(_) => {
            table.reserve(cells.len() + 1);
            table.push(0.0);
            let mut acc = 0.0;
            for &c in cells {
                acc += c;
                table.push(acc);
            }
        }
        Domain::D2(rows, cols) => {
            let w = cols + 1;
            table.resize((rows + 1) * w, 0.0);
            for r in 0..rows {
                let mut row_acc = 0.0;
                for c in 0..cols {
                    row_acc += cells[r * cols + c];
                    table[(r + 1) * w + (c + 1)] = table[r * w + (c + 1)] + row_acc;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_matches_naive_1d() {
        let x = DataVector::new((1..=10).map(|i| i as f64).collect(), Domain::D1(10));
        let t = PrefixTable::build(&x);
        for lo in 0..10 {
            for hi in lo..10 {
                let q = RangeQuery::d1(lo, hi);
                assert_eq!(t.eval(&q), q.eval_naive(&x));
            }
        }
    }

    #[test]
    fn prefix_matches_naive_2d() {
        let x = DataVector::new(
            (0..30).map(|i| (i * 7 % 13) as f64).collect(),
            Domain::D2(5, 6),
        );
        let t = PrefixTable::build(&x);
        for r1 in 0..5 {
            for r2 in r1..5 {
                for c1 in 0..6 {
                    for c2 in c1..6 {
                        let q = RangeQuery::d2(r1, c1, r2, c2);
                        assert!((t.eval(&q) - q.eval_naive(&x)).abs() < 1e-9);
                    }
                }
            }
        }
    }

    #[test]
    fn rebuild_matches_fresh_build_across_domains() {
        let x1 = DataVector::new((0..12).map(|i| i as f64).collect(), Domain::D1(12));
        let x2 = DataVector::new(
            (0..30).map(|i| (i * 5 % 11) as f64).collect(),
            Domain::D2(5, 6),
        );
        let mut t = PrefixTable::build(&x1);
        // 1-D → 2-D → 1-D, always bit-identical to a fresh build.
        t.rebuild_cells(x2.counts(), x2.domain());
        let fresh2 = PrefixTable::build(&x2);
        for r1 in 0..5 {
            for c1 in 0..6 {
                let q = RangeQuery::d2(0, 0, r1, c1);
                assert_eq!(t.eval(&q), fresh2.eval(&q));
            }
        }
        t.rebuild_cells(x1.counts(), x1.domain());
        let fresh1 = PrefixTable::build(&x1);
        for hi in 0..12 {
            let q = RangeQuery::d1(0, hi);
            assert_eq!(t.eval(&q), fresh1.eval(&q));
        }
    }

    #[test]
    fn total_equals_scale() {
        let x = DataVector::new(vec![1.0, 2.0, 3.0], Domain::D1(3));
        assert_eq!(PrefixTable::build(&x).total(), 6.0);
    }

    #[test]
    fn query_size() {
        assert_eq!(RangeQuery::d1(2, 5).size(), 4);
        assert_eq!(RangeQuery::d2(0, 0, 1, 2).size(), 6);
    }

    #[test]
    fn fits_checks_bounds() {
        assert!(RangeQuery::d1(0, 9).fits(&Domain::D1(10)));
        assert!(!RangeQuery::d1(0, 10).fits(&Domain::D1(10)));
        assert!(RangeQuery::d2(0, 0, 3, 3).fits(&Domain::D2(4, 4)));
        assert!(!RangeQuery::d2(0, 0, 3, 4).fits(&Domain::D2(4, 4)));
        // a 1-D query does not fit a 2-D domain unless col range is valid
        assert!(RangeQuery::d1(0, 3).fits(&Domain::D2(4, 4)));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn rejects_inverted_range() {
        RangeQuery::d1(5, 2);
    }
}
