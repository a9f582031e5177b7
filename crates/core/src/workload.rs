//! Query workloads `W` (paper Section 6.2).
//!
//! * 1-D experiments use the **Prefix** workload: the `n` queries
//!   `[0, i]` for `i ∈ [0, n)`. Any range query is a difference of two
//!   prefix queries, so low Prefix error transfers to all ranges.
//! * 2-D experiments use **2000 uniformly random range queries** as an
//!   approximation of the set of all ranges.
//! * The **Identity** workload (all singleton cells) is used when studying
//!   the effect of domain size and as the measurement set of several
//!   mechanisms.

use crate::data::DataVector;
use crate::domain::Domain;
use crate::error::{self, Loss};
use crate::query::{PrefixTable, RangeQuery};
use crate::workspace::Workspace;
use rand::Rng;

/// A set of range queries over a common domain.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    domain: Domain,
    queries: Vec<RangeQuery>,
    /// [`Workload::fingerprint`], computed once at construction.
    fingerprint: u64,
    /// Whether this is the 1-D Prefix workload, query `i` being `[0, i]`
    /// for every cell `i`: [`Workload::scaled_error`] then scores it in one
    /// running-sum pass instead of through a table.
    prefix: bool,
}

impl Workload {
    /// Build a workload from explicit queries; every query must fit.
    pub fn new(domain: Domain, queries: Vec<RangeQuery>) -> Self {
        assert!(
            queries.iter().all(|q| q.fits(&domain)),
            "workload contains a query outside domain {domain}"
        );
        Self::from_parts(domain, queries)
    }

    /// The constructor every public one goes through: a workload never
    /// changes after construction, so its fingerprint — FNV-1a over the
    /// coordinate stream — is computed here, once.
    fn from_parts(domain: Domain, queries: Vec<RangeQuery>) -> Self {
        let mut h = 0xcbf29ce484222325_u64;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        };
        match domain {
            Domain::D1(n) => {
                mix(1);
                mix(n as u64);
            }
            Domain::D2(r, c) => {
                mix(2);
                mix(r as u64);
                mix(c as u64);
            }
        }
        for q in &queries {
            mix(q.lo.0 as u64);
            mix(q.lo.1 as u64);
            mix(q.hi.0 as u64);
            mix(q.hi.1 as u64);
        }
        let prefix = matches!(domain, Domain::D1(n) if n == queries.len())
            && queries
                .iter()
                .enumerate()
                .all(|(i, q)| *q == RangeQuery::d1(0, i));
        Self {
            domain,
            queries,
            fingerprint: h,
            prefix,
        }
    }

    /// The **Prefix** workload over a 1-D domain of size `n`.
    pub fn prefix_1d(n: usize) -> Self {
        let queries = (0..n).map(|i| RangeQuery::d1(0, i)).collect();
        Self::from_parts(Domain::D1(n), queries)
    }

    /// The **Identity** workload: one singleton query per cell.
    pub fn identity(domain: Domain) -> Self {
        let queries = (0..domain.n_cells())
            .map(|i| {
                let (r, c) = domain.coord(i);
                RangeQuery {
                    lo: (r, c),
                    hi: (r, c),
                }
            })
            .collect();
        Self::from_parts(domain, queries)
    }

    /// All `n(n+1)/2` ranges of a 1-D domain. Quadratic — intended for small
    /// domains (tests and the Hb branching-factor optimization).
    pub fn all_ranges_1d(n: usize) -> Self {
        let mut queries = Vec::with_capacity(n * (n + 1) / 2);
        for lo in 0..n {
            for hi in lo..n {
                queries.push(RangeQuery::d1(lo, hi));
            }
        }
        Self::from_parts(Domain::D1(n), queries)
    }

    /// All ranges of a fixed width `w` over a 1-D domain (sliding-window
    /// workloads; used for workload-diversity experiments).
    pub fn fixed_width_1d(n: usize, width: usize) -> Self {
        assert!(width >= 1 && width <= n, "width must be in [1, n]");
        let queries = (0..=n - width)
            .map(|lo| RangeQuery::d1(lo, lo + width - 1))
            .collect();
        Self::from_parts(Domain::D1(n), queries)
    }

    /// The two 1-D marginals of a 2-D domain: one query per full row and
    /// one per full column (the "marginals" analysis task of Section 2.2).
    pub fn marginals_2d(rows: usize, cols: usize) -> Self {
        let mut queries = Vec::with_capacity(rows + cols);
        for r in 0..rows {
            queries.push(RangeQuery::d2(r, 0, r, cols - 1));
        }
        for c in 0..cols {
            queries.push(RangeQuery::d2(0, c, rows - 1, c));
        }
        Self::from_parts(Domain::D2(rows, cols), queries)
    }

    /// `count` uniformly random range queries (the paper's 2-D workload with
    /// `count = 2000`; also valid over 1-D domains).
    pub fn random_ranges<R: Rng + ?Sized>(domain: Domain, count: usize, rng: &mut R) -> Self {
        let mut queries = Vec::with_capacity(count);
        match domain {
            Domain::D1(n) => {
                for _ in 0..count {
                    let a = rng.gen_range(0..n);
                    let b = rng.gen_range(0..n);
                    queries.push(RangeQuery::d1(a.min(b), a.max(b)));
                }
            }
            Domain::D2(rows, cols) => {
                for _ in 0..count {
                    let r1 = rng.gen_range(0..rows);
                    let r2 = rng.gen_range(0..rows);
                    let c1 = rng.gen_range(0..cols);
                    let c2 = rng.gen_range(0..cols);
                    queries.push(RangeQuery::d2(
                        r1.min(r2),
                        c1.min(c2),
                        r1.max(r2),
                        c1.max(c2),
                    ));
                }
            }
        }
        Self::from_parts(domain, queries)
    }

    /// The workload's domain.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Number of queries `q`.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True when the workload has no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Borrow the queries.
    pub fn queries(&self) -> &[RangeQuery] {
        &self.queries
    }

    /// A 64-bit content fingerprint over the domain and every query, for
    /// keying plan caches: two workloads over the same domain with
    /// different query sets must not share cached plans. Computed once at
    /// construction, so the plan-cache, noise and SLO keys that read it on
    /// every lookup cost nothing.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Evaluate all queries against a data vector: `y = W x`.
    ///
    /// Uses a cumulative table so the cost is O(n + q) regardless of range
    /// sizes.
    pub fn evaluate(&self, x: &DataVector) -> Vec<f64> {
        assert_eq!(
            x.domain(),
            self.domain,
            "data vector domain {} does not match workload domain {}",
            x.domain(),
            self.domain
        );
        self.evaluate_cells(x.counts())
    }

    /// Evaluate against raw cell estimates (same domain as the workload).
    pub fn evaluate_cells(&self, cells: &[f64]) -> Vec<f64> {
        let table = PrefixTable::build_cells(cells, self.domain);
        self.queries.iter().map(|q| table.eval(q)).collect()
    }

    /// Allocation-free [`Workload::evaluate`]: answers land in `out`
    /// (cleared first) and the prefix table is recycled through `ws`.
    pub fn evaluate_into(&self, x: &DataVector, ws: &mut Workspace, out: &mut Vec<f64>) {
        assert_eq!(
            x.domain(),
            self.domain,
            "data vector domain {} does not match workload domain {}",
            x.domain(),
            self.domain
        );
        self.evaluate_cells_into(x.counts(), ws, out);
    }

    /// Allocation-free [`Workload::evaluate_cells`]: answers land in `out`
    /// (cleared first) and the cumulative table is rebuilt in place from
    /// the workspace's pooled table.
    pub fn evaluate_cells_into(&self, cells: &[f64], ws: &mut Workspace, out: &mut Vec<f64>) {
        let table = ws.table_over(cells, self.domain);
        out.clear();
        out.reserve(self.queries.len());
        for q in &self.queries {
            out.push(table.eval(q));
        }
        ws.store_table(table);
    }

    /// Score cell estimates against the true answers `y_true` (paper
    /// Definition 3): the bits of
    /// `scaled_per_query_error(y_true, &self.evaluate_cells(cells), scale, loss)`
    /// without building the answer vector — the grid runner's per-trial
    /// scorer. Each answer feeds the loss as it is computed. The Prefix
    /// workload's answers are one running sum over the cells (the values
    /// [`PrefixTable`] would store, read back minus its zero sentinel,
    /// which changes no bit), so it needs no table; every other workload
    /// reads the workspace's pooled table.
    pub fn scaled_error(
        &self,
        cells: &[f64],
        y_true: &[f64],
        scale: f64,
        loss: Loss,
        ws: &mut Workspace,
    ) -> f64 {
        assert_eq!(
            cells.len(),
            self.domain.n_cells(),
            "cell slice length {} does not match domain {}",
            cells.len(),
            self.domain
        );
        assert_eq!(
            y_true.len(),
            self.queries.len(),
            "answer vectors must have equal length"
        );
        let total = if self.prefix {
            let mut acc = 0.0;
            loss.reduce(y_true.iter().zip(cells).map(|(&y, &c)| {
                acc += c;
                (y, acc)
            }))
        } else {
            let table = ws.table_over(cells, self.domain);
            let total = loss.reduce(
                y_true
                    .iter()
                    .zip(&self.queries)
                    .map(|(&y, q)| (y, table.eval(q))),
            );
            ws.store_table(table);
            total
        };
        error::per_query(total, scale, y_true.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn prefix_workload_shape() {
        let w = Workload::prefix_1d(8);
        assert_eq!(w.len(), 8);
        assert_eq!(w.queries()[0], RangeQuery::d1(0, 0));
        assert_eq!(w.queries()[7], RangeQuery::d1(0, 7));
    }

    #[test]
    fn prefix_evaluation() {
        let x = DataVector::new(vec![1.0, 2.0, 3.0, 4.0], Domain::D1(4));
        let y = Workload::prefix_1d(4).evaluate(&x);
        assert_eq!(y, vec![1.0, 3.0, 6.0, 10.0]);
    }

    #[test]
    fn identity_evaluation_matches_cells() {
        let x = DataVector::new(vec![5.0, 0.0, 2.0], Domain::D1(3));
        assert_eq!(Workload::identity(Domain::D1(3)).evaluate(&x), x.counts());
        let x2 = DataVector::new((0..6).map(f64::from).collect(), Domain::D2(2, 3));
        assert_eq!(
            Workload::identity(Domain::D2(2, 3)).evaluate(&x2),
            x2.counts()
        );
    }

    #[test]
    fn all_ranges_count() {
        assert_eq!(Workload::all_ranges_1d(6).len(), 21);
    }

    #[test]
    fn fixed_width_workload() {
        let w = Workload::fixed_width_1d(8, 3);
        assert_eq!(w.len(), 6);
        assert!(w.queries().iter().all(|q| q.size() == 3));
        // Width n gives the single total query.
        assert_eq!(Workload::fixed_width_1d(8, 8).len(), 1);
    }

    #[test]
    fn marginals_workload() {
        let w = Workload::marginals_2d(3, 4);
        assert_eq!(w.len(), 7);
        let x = DataVector::new((0..12).map(f64::from).collect(), Domain::D2(3, 4));
        let y = w.evaluate(&x);
        // Row 0 = 0+1+2+3 = 6; column 0 = 0+4+8 = 12.
        assert_eq!(y[0], 6.0);
        assert_eq!(y[3], 12.0);
        // Row sums and column sums each total the scale.
        let rows: f64 = y[..3].iter().sum();
        let cols: f64 = y[3..].iter().sum();
        assert_eq!(rows, x.scale());
        assert_eq!(cols, x.scale());
    }

    #[test]
    #[should_panic(expected = "width must be in")]
    fn fixed_width_rejects_zero() {
        Workload::fixed_width_1d(8, 0);
    }

    #[test]
    fn random_ranges_fit_domain() {
        let mut rng = StdRng::seed_from_u64(7);
        let w = Workload::random_ranges(Domain::D2(16, 32), 500, &mut rng);
        assert_eq!(w.len(), 500);
        assert!(w.queries().iter().all(|q| q.fits(&Domain::D2(16, 32))));
    }

    #[test]
    fn random_ranges_match_naive_eval() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = DataVector::new((0..64).map(|i| (i % 7) as f64).collect(), Domain::D2(8, 8));
        let w = Workload::random_ranges(Domain::D2(8, 8), 100, &mut rng);
        let fast = w.evaluate(&x);
        for (q, &f) in w.queries().iter().zip(&fast) {
            assert!((q.eval_naive(&x) - f).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "does not match workload domain")]
    fn evaluate_rejects_wrong_domain() {
        let x = DataVector::zeros(Domain::D1(8));
        Workload::prefix_1d(4).evaluate(&x);
    }

    #[test]
    fn evaluate_into_matches_evaluate_bitwise() {
        let mut rng = StdRng::seed_from_u64(11);
        let x = DataVector::new(
            (0..64).map(|i| ((i * 13) % 29) as f64).collect(),
            Domain::D1(64),
        );
        let w = Workload::random_ranges(Domain::D1(64), 200, &mut rng);
        let fresh = w.evaluate(&x);
        let mut ws = Workspace::new();
        let mut out = Vec::new();
        // Twice, to exercise the rebuilt (pooled) prefix table.
        for _ in 0..2 {
            w.evaluate_into(&x, &mut ws, &mut out);
            assert_eq!(out, fresh);
        }
        // 2-D path too.
        let x2 = DataVector::new((0..64).map(f64::from).collect(), Domain::D2(8, 8));
        let w2 = Workload::random_ranges(Domain::D2(8, 8), 100, &mut rng);
        let fresh2 = w2.evaluate(&x2);
        w2.evaluate_cells_into(x2.counts(), &mut ws, &mut out);
        assert_eq!(out, fresh2);
    }

    #[test]
    fn fingerprint_distinguishes_workloads_and_domains() {
        let prefix = Workload::prefix_1d(64);
        let identity = Workload::identity(Domain::D1(64));
        let width = Workload::fixed_width_1d(64, 4);
        assert_ne!(prefix.fingerprint(), identity.fingerprint());
        assert_ne!(prefix.fingerprint(), width.fingerprint());
        assert_ne!(identity.fingerprint(), width.fingerprint());
        // Same construction → same fingerprint.
        assert_eq!(prefix.fingerprint(), Workload::prefix_1d(64).fingerprint());
        // Same queries over a different domain must differ.
        let a = Workload::new(Domain::D1(32), vec![RangeQuery::d1(0, 7)]);
        let b = Workload::new(Domain::D1(64), vec![RangeQuery::d1(0, 7)]);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
