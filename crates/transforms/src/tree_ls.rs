//! Weighted least-squares inference on measurement trees.
//!
//! Hierarchical mechanisms (H, GREEDY_H, QUADTREE, DPCUBE) obtain noisy
//! measurements of nested interval sums arranged in a tree: each internal
//! node's true value equals the sum of its children. Hay et al. (PVLDB
//! 2010) showed that post-processing the noisy tree to the *consistent*
//! least-squares estimate both restores the sum constraints and strictly
//! reduces error.
//!
//! This module implements the exact generalized least-squares estimate for
//! arbitrary trees and arbitrary per-node measurement variances using the
//! classic two-pass (upward/downward) algorithm — Gaussian belief
//! propagation, which is exact on trees:
//!
//! 1. **Upward pass**: each node fuses its own noisy measurement with the
//!    sum of its children's fused estimates, weighting by inverse variance.
//! 2. **Downward pass**: starting from the root's fused estimate, the
//!    discrepancy between a parent's final value and the sum of its
//!    children's fused estimates is distributed among the children in
//!    proportion to their (subtree) variances.
//!
//! Unmeasured nodes are supported with infinite variance; unmeasured
//! *leaves* under a measured ancestor receive equal shares of the
//! remaining discrepancy, which reproduces the uniformity assumption used
//! by partitioning mechanisms.
//!
//! The implementation is O(#nodes) per inference and is cross-validated
//! against the dense solver in [`crate::matrix`].

/// A noisy measurement of a node's (interval-sum) value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Noisy observed value.
    pub value: f64,
    /// Noise variance (e.g. `2·(Δ/ε)²` for Laplace noise). Must be ≥ 0;
    /// zero means "exact".
    pub variance: f64,
}

/// A tree of (optionally) measured nodes supporting exact GLS inference.
///
/// Nodes live in a flat arena: measurements in one vector, child ids in a
/// shared pool indexed by per-node `(start, len)` spans, so building a tree
/// allocates a handful of vectors rather than one per node. DPCUBE and
/// UGRID/AGRID build one per execution; the fixed hierarchies of
/// `dpbench_algorithms::hierarchy` run the same per-node arithmetic over a
/// layout compiled once per hierarchy and keep this tree as their test
/// oracle.
#[derive(Debug, Clone, Default)]
pub struct MeasuredTree {
    measurements: Vec<Option<Measurement>>,
    /// Per-node `(start, len)` into `child_ids`; `(0, 0)` = leaf.
    child_span: Vec<(usize, usize)>,
    /// Flat pool of child ids, one contiguous run per internal node.
    child_ids: Vec<usize>,
    root: Option<usize>,
}

impl MeasuredTree {
    /// Empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node (initially childless); returns its id.
    pub fn add_node(&mut self, measurement: Option<Measurement>) -> usize {
        if let Some(m) = measurement {
            assert!(m.variance >= 0.0, "variance must be non-negative");
        }
        self.measurements.push(measurement);
        self.child_span.push((0, 0));
        self.measurements.len() - 1
    }

    /// Attach children to a parent node. Each parent's children may be set
    /// at most once (the arena stores one contiguous run per parent).
    pub fn set_children(&mut self, parent: usize, children: &[usize]) {
        assert_eq!(
            self.child_span[parent],
            (0, 0),
            "children of node {parent} already set"
        );
        let start = self.child_ids.len();
        self.child_ids.extend_from_slice(children);
        self.child_span[parent] = (start, children.len());
    }

    /// Declare the root node.
    pub fn set_root(&mut self, root: usize) {
        assert!(root < self.measurements.len());
        self.root = Some(root);
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.measurements.len()
    }

    /// True iff the tree has no nodes.
    pub fn is_empty(&self) -> bool {
        self.measurements.is_empty()
    }

    /// Children of a node.
    pub fn children(&self, id: usize) -> &[usize] {
        let (start, len) = self.child_span[id];
        &self.child_ids[start..start + len]
    }

    /// Ids of all leaves in post-order of the tree walk.
    pub fn leaves(&self) -> Vec<usize> {
        self.post_order()
            .into_iter()
            .filter(|&id| self.children(id).is_empty())
            .collect()
    }

    /// Iterative post-order walk from the root.
    fn post_order(&self) -> Vec<usize> {
        let root = self.root.expect("root not set");
        let mut order = Vec::with_capacity(self.len());
        // Stack of (node, child cursor).
        let mut stack = vec![(root, 0)];
        while let Some(&mut (node, ref mut cursor)) = stack.last_mut() {
            let kids = self.children(node);
            if *cursor < kids.len() {
                let child = kids[*cursor];
                *cursor += 1;
                stack.push((child, 0));
            } else {
                order.push(node);
                stack.pop();
            }
        }
        order
    }

    /// Exact GLS inference. Returns the consistent estimate for every node
    /// (indexed by node id); for every internal node the returned value
    /// equals the sum of its children's values.
    pub fn infer(&self) -> Vec<f64> {
        let root = self.root.expect("root not set");
        let n = self.measurements.len();
        let order = self.post_order();
        let mut est = vec![0.0; n]; // fused (upward) estimates
        let mut var = vec![f64::INFINITY; n]; // fused variances

        // Upward pass in post-order.
        for &id in order.iter() {
            let kids = self.children(id);
            let (child_sum, child_var) = if kids.is_empty() {
                (None, f64::INFINITY)
            } else {
                let s: f64 = kids.iter().map(|&c| est[c]).sum();
                let v: f64 = kids.iter().map(|&c| var[c]).sum();
                (Some(s), v)
            };
            match (self.measurements[id], child_sum) {
                (None, None) => {
                    // Unmeasured leaf: unknown until the downward pass.
                    est[id] = 0.0;
                    var[id] = f64::INFINITY;
                }
                (Some(m), None) => {
                    est[id] = m.value;
                    var[id] = m.variance;
                }
                (None, Some(s)) => {
                    est[id] = s;
                    var[id] = child_var;
                }
                (Some(m), Some(s)) => {
                    if m.variance == 0.0 {
                        est[id] = m.value;
                        var[id] = 0.0;
                    } else if child_var == 0.0 {
                        est[id] = s;
                        var[id] = 0.0;
                    } else if child_var.is_infinite() {
                        est[id] = m.value;
                        var[id] = m.variance;
                    } else {
                        let w_own = 1.0 / m.variance;
                        let w_kids = 1.0 / child_var;
                        est[id] = (w_own * m.value + w_kids * s) / (w_own + w_kids);
                        var[id] = 1.0 / (w_own + w_kids);
                    }
                }
            }
        }

        // Downward pass in reverse post-order (parents before children).
        let mut fin = vec![0.0; n];
        fin[root] = est[root];
        for &id in order.iter().rev() {
            let kids = self.children(id);
            if kids.is_empty() {
                continue;
            }
            let child_sum: f64 = kids.iter().map(|&c| est[c]).sum();
            let d = fin[id] - child_sum;
            let total_var: f64 = kids.iter().map(|&c| var[c]).sum();
            if total_var.is_infinite() {
                // Distribute among infinite-variance (uninformed) children
                // equally — the uniformity assumption.
                let n_inf = kids.iter().filter(|&&c| var[c].is_infinite()).count();
                let share = d / n_inf as f64;
                for &c in kids {
                    fin[c] = est[c] + if var[c].is_infinite() { share } else { 0.0 };
                }
            } else if total_var == 0.0 {
                // Children are exact; any residual (necessarily ~0) splits
                // evenly to preserve the sum constraint.
                let share = d / kids.len() as f64;
                for &c in kids {
                    fin[c] = est[c] + share;
                }
            } else {
                for &c in kids {
                    fin[c] = est[c] + d * var[c] / total_var;
                }
            }
        }
        fin
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{weighted_least_squares, Matrix};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn m(value: f64, variance: f64) -> Option<Measurement> {
        Some(Measurement { value, variance })
    }

    /// Build a three-node tree: root over two leaves.
    fn small_tree(
        root_m: Option<Measurement>,
        l1: Option<Measurement>,
        l2: Option<Measurement>,
    ) -> MeasuredTree {
        let mut t = MeasuredTree::new();
        let r = t.add_node(root_m);
        let a = t.add_node(l1);
        let b = t.add_node(l2);
        t.set_children(r, &[a, b]);
        t.set_root(r);
        t
    }

    #[test]
    fn consistent_sums() {
        let t = small_tree(m(10.0, 1.0), m(3.0, 1.0), m(4.0, 1.0));
        let fin = t.infer();
        assert!((fin[0] - (fin[1] + fin[2])).abs() < 1e-9);
    }

    #[test]
    fn exact_match_when_no_noise_disagreement() {
        let t = small_tree(m(7.0, 1.0), m(3.0, 1.0), m(4.0, 1.0));
        let fin = t.infer();
        assert!((fin[0] - 7.0).abs() < 1e-9);
        assert!((fin[1] - 3.0).abs() < 1e-9);
        assert!((fin[2] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn closed_form_two_leaves() {
        // Analytic GLS: root y_r=10 var a=1; leaves 3, 4 with var b=1 each.
        // S = (2b·y_r + a(y1+y2)) / (2b + a) = (20 + 7) / 3 = 9.
        let t = small_tree(m(10.0, 1.0), m(3.0, 1.0), m(4.0, 1.0));
        let fin = t.infer();
        assert!((fin[0] - 9.0).abs() < 1e-9);
        // Discrepancy 2 split equally between equal-variance leaves.
        assert!((fin[1] - 4.0).abs() < 1e-9);
        assert!((fin[2] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn unmeasured_leaves_get_uniform_split() {
        let t = small_tree(m(10.0, 1.0), None, None);
        let fin = t.infer();
        assert!((fin[1] - 5.0).abs() < 1e-9);
        assert!((fin[2] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn zero_variance_measurement_is_exact() {
        let t = small_tree(m(10.0, 0.0), m(3.0, 1.0), m(4.0, 1.0));
        let fin = t.infer();
        assert!((fin[0] - 10.0).abs() < 1e-9);
        assert!((fin[1] + fin[2] - 10.0).abs() < 1e-9);
    }

    /// Random balanced tree with random variances must match the dense GLS
    /// solution (strategy matrix = node-over-leaf indicators).
    #[test]
    fn matches_dense_gls_random_trees() {
        let mut rng = StdRng::seed_from_u64(2016);
        for trial in 0..20 {
            let branching: usize = 2 + (trial % 3); // 2..4
            let depth: u32 = 2 + (trial % 2) as u32; // 2..3
            let mut t = MeasuredTree::new();
            // Build top-down; collect leaf spans.
            let n_leaves = branching.pow(depth);
            // node -> (leaf_lo, leaf_hi)
            let mut spans: Vec<(usize, usize)> = Vec::new();
            fn build(
                t: &mut MeasuredTree,
                spans: &mut Vec<(usize, usize)>,
                lo: usize,
                hi: usize,
                branching: usize,
                rng: &mut StdRng,
            ) -> usize {
                let value = rng.gen_range(-10.0..10.0);
                let variance = rng.gen_range(0.1..5.0);
                let id = t.add_node(Some(Measurement { value, variance }));
                spans.push((lo, hi));
                debug_assert_eq!(spans.len() - 1, id);
                let width = hi - lo;
                if width > 1 {
                    let step = width / branching;
                    let children: Vec<usize> = (0..branching)
                        .map(|k| {
                            build(t, spans, lo + k * step, lo + (k + 1) * step, branching, rng)
                        })
                        .collect();
                    t.set_children(id, &children);
                }
                id
            }
            let root = build(&mut t, &mut spans, 0, n_leaves, branching, &mut rng);
            t.set_root(root);

            let fin = t.infer();

            // Dense GLS.
            let n_nodes = t.len();
            let mut strat = Matrix::zeros(n_nodes, n_leaves);
            let mut y = vec![0.0; n_nodes];
            let mut w = vec![0.0; n_nodes];
            for id in 0..n_nodes {
                let (lo, hi) = spans[id];
                for leaf in lo..hi {
                    strat[(id, leaf)] = 1.0;
                }
                // every node is measured in this test
                let meas = t.measurements[id].unwrap();
                y[id] = meas.value;
                w[id] = 1.0 / meas.variance;
            }
            let xs = weighted_least_squares(&strat, &y, &w).expect("solvable");
            // Compare leaf estimates.
            for id in 0..n_nodes {
                let (lo, hi) = spans[id];
                if hi - lo == 1 {
                    assert!(
                        (fin[id] - xs[lo]).abs() < 1e-6,
                        "trial {trial}: leaf {lo} tree {} vs dense {}",
                        fin[id],
                        xs[lo]
                    );
                }
            }
        }
    }

    #[test]
    fn deep_chain_no_stack_overflow() {
        // 10k-deep unary chain exercises the iterative traversal.
        let mut t = MeasuredTree::new();
        let mut prev = t.add_node(m(1.0, 1.0));
        let root = prev;
        for _ in 0..10_000 {
            let next = t.add_node(m(1.0, 1.0));
            t.set_children(prev, &[next]);
            prev = next;
        }
        t.set_root(root);
        let fin = t.infer();
        assert_eq!(fin.len(), 10_001);
        assert!((fin[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn leaves_enumeration() {
        let t = small_tree(m(1.0, 1.0), m(1.0, 1.0), m(1.0, 1.0));
        assert_eq!(t.leaves(), vec![1, 2]);
    }
}
