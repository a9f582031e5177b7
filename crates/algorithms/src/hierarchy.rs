//! Shared hierarchical-decomposition substrate.
//!
//! Several mechanisms (H, Hb, GREEDY_H, QUADTREE, and the hierarchies
//! inside DAWA and SF) measure noisy counts of nested groups of cells
//! arranged in a b-ary tree over the domain. This module builds such
//! hierarchies over 1-D and 2-D domains, decomposes range queries into
//! canonical nodes, and runs the measure-then-infer pipeline: the exact
//! two-pass GLS inference of [`dpbench_transforms::tree_ls`], run over a
//! flat breadth-first layout that [`Hierarchy::build`] compiles once.

use dpbench_core::primitives::laplace;
use dpbench_core::query::PrefixTable;
use dpbench_core::{DataVector, Domain, RangeQuery, Workspace};
use rand::RngCore;
use std::collections::HashMap;
use std::ops::Range;

/// One node of a spatial hierarchy: an axis-aligned box and its level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierNode {
    /// The box of cells this node covers.
    pub query: RangeQuery,
    /// Level in the tree (0 = root).
    pub level: usize,
}

/// A b-ary hierarchy over a domain, numbered in breadth-first build order:
/// each level is one id range, and each node's children are one contiguous
/// id range above its own.
///
/// Inference runs over the hierarchy's nodes followed by one unmeasured
/// node per cell of every unresolved leaf (a leaf covering more than one
/// cell), appended in leaf order. Unresolved leaves all sit on the last
/// level, after every node that splits, so this *inference tree* keeps
/// both properties: children before parents is reverse id order, and
/// parents before children is id order.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    /// All nodes; index 0 is the root.
    pub nodes: Vec<HierNode>,
    /// The underlying domain.
    pub domain: Domain,
    /// Node ids of each level (`levels[0] = 0..1`, the root).
    pub levels: Vec<Range<usize>>,
    /// Ids of all childless nodes.
    leaves: Vec<usize>,
    /// Inference-tree children: node `i`'s are `kids[i]..kids[i + 1]`.
    /// One entry per hierarchy node plus one; the last is the size of the
    /// inference tree (per-cell nodes are childless).
    kids: Vec<u32>,
    /// `cell_node[c]`: the inference-tree node holding cell `c`'s estimate.
    cell_node: Vec<u32>,
    /// The `(branching, max_levels)` it was built with. With the domain
    /// they determine the hierarchy, so they key the workspace's
    /// [`NodeCounts`].
    built_with: (usize, usize),
}

impl Hierarchy {
    /// Build a hierarchy with the given per-axis branching factor.
    ///
    /// Each node splits every axis longer than one cell into `branching`
    /// (nearly) equal parts; splitting stops at single cells or after
    /// `max_levels` levels (QUADTREE's height cap). `max_levels = usize::MAX`
    /// means "to full resolution".
    pub fn build(domain: Domain, branching: usize, max_levels: usize) -> Self {
        assert!(branching >= 2, "branching factor must be at least 2");
        assert!(max_levels >= 1, "need at least the root level");
        let root_query = match domain {
            Domain::D1(n) => RangeQuery::d1(0, n - 1),
            Domain::D2(r, c) => RangeQuery::d2(0, 0, r - 1, c - 1),
        };
        let node_id = |i: usize| u32::try_from(i).expect("hierarchy exceeds 32-bit node ids");
        let mut nodes = vec![HierNode {
            query: root_query,
            level: 0,
        }];
        let mut levels: Vec<Range<usize>> = Vec::new();
        let mut leaves = Vec::new();
        let mut kids = vec![1];
        let mut cell_node = vec![0; domain.n_cells()];
        // Breadth first: node `id` appends its children, which take the
        // next free ids. `end` is the next free inference-tree id.
        let mut end = 1;
        let mut id = 0;
        while id < nodes.len() {
            let HierNode { query: q, level } = nodes[id];
            if levels.len() == level {
                levels.push(id..id);
            }
            levels[level].end = id + 1;
            if q.size() > 1 && level + 1 < max_levels {
                debug_assert_eq!(end, nodes.len(), "a node splits after an unresolved leaf");
                for (r1, r2) in split_axis(q.lo.0, q.hi.0, branching) {
                    for (c1, c2) in split_axis(q.lo.1, q.hi.1, branching) {
                        nodes.push(HierNode {
                            query: RangeQuery {
                                lo: (r1, c1),
                                hi: (r2, c2),
                            },
                            level: level + 1,
                        });
                    }
                }
                end = nodes.len();
            } else {
                leaves.push(id);
                if q.size() == 1 {
                    cell_node[domain.index(q.lo)] = node_id(id);
                } else {
                    // An unresolved leaf gets one childless inference node
                    // per cell, row-major.
                    for r in q.lo.0..=q.hi.0 {
                        for c in q.lo.1..=q.hi.1 {
                            cell_node[domain.index((r, c))] = node_id(end);
                            end += 1;
                        }
                    }
                }
            }
            kids.push(node_id(end));
            id += 1;
        }
        Self {
            nodes,
            domain,
            levels,
            leaves,
            kids,
            cell_node,
            built_with: (branching, max_levels),
        }
    }

    /// Number of levels (root = level 0).
    pub fn height(&self) -> usize {
        self.levels.len()
    }

    /// Ids of all leaves.
    pub fn leaf_ids(&self) -> &[usize] {
        &self.leaves
    }

    /// True when every leaf covers exactly one cell.
    pub fn fully_resolved(&self) -> bool {
        self.leaves.iter().all(|&i| self.nodes[i].query.size() == 1)
    }

    /// Child ids of node `id` (empty for leaves).
    pub fn children(&self, id: usize) -> Range<usize> {
        let kids = self.kids_of(id);
        // An unresolved leaf's inference children are per-cell nodes, not
        // hierarchy nodes.
        if kids.start < self.nodes.len() {
            kids
        } else {
            0..0
        }
    }

    /// Inference-tree children of node `id`.
    fn kids_of(&self, id: usize) -> Range<usize> {
        self.kids[id] as usize..self.kids[id + 1] as usize
    }

    /// Decompose a range query into a minimal set of canonical nodes: nodes
    /// fully inside the range are taken whole, partially overlapping nodes
    /// recurse. Returns node ids whose boxes partition the query range
    /// (only exact when the hierarchy is fully resolved).
    pub fn decompose(&self, q: &RangeQuery) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = Vec::new();
        self.decompose_into(q, &mut stack, &mut out);
        out
    }

    /// [`Hierarchy::decompose`] into caller-provided buffers (`out` is
    /// cleared first) — the allocation-free variant for callers that
    /// decompose many queries (GREEDY_H maps a whole workload per plan,
    /// DAWA per trial).
    pub fn decompose_into(&self, q: &RangeQuery, stack: &mut Vec<usize>, out: &mut Vec<usize>) {
        out.clear();
        stack.clear();
        stack.push(0_usize);
        while let Some(id) = stack.pop() {
            let b = self.nodes[id].query;
            // Disjoint?
            if b.lo.0 > q.hi.0 || b.hi.0 < q.lo.0 || b.lo.1 > q.hi.1 || b.hi.1 < q.lo.1 {
                continue;
            }
            // Contained?
            if q.lo.0 <= b.lo.0 && b.hi.0 <= q.hi.0 && q.lo.1 <= b.lo.1 && b.hi.1 <= q.hi.1 {
                out.push(id);
                continue;
            }
            let children = self.children(id);
            if children.is_empty() {
                // Partial overlap at a leaf: take the leaf (the caller
                // accepts approximation on unresolved hierarchies).
                out.push(id);
                continue;
            }
            stack.extend(children);
        }
    }

    /// Measure every node with Laplace noise using the given per-level
    /// epsilons (`level_eps[l]` for level `l`; a level ε of 0 leaves that
    /// level unmeasured), run GLS inference, and return consistent cell
    /// estimates (unmeasured sub-leaf cells receive uniform shares).
    ///
    /// Per level, every record is counted at most once, so measuring a
    /// whole level has sensitivity 1 and the total budget is
    /// `Σ level_eps[l]` — the caller's ledger must already account for it.
    pub fn measure_and_infer(
        &self,
        x: &DataVector,
        level_eps: &[f64],
        rng: &mut dyn RngCore,
    ) -> Vec<f64> {
        self.measure_and_infer_with(x, level_eps, &mut Workspace::new(), rng)
    }

    /// [`Hierarchy::measure_and_infer`] drawing the true node counts, the
    /// inference arrays, and the output buffer from a caller-owned
    /// [`Workspace`] — the allocation-free per-trial entry point of every
    /// hierarchical mechanism. The returned vector comes from the pool;
    /// hand it back via `ws.give_f64` when done. The workspace keeps the
    /// node counts of the last data vector it measured over this
    /// hierarchy, so repeated trials on one vector only add fresh noise.
    ///
    /// Four linear passes over the inference tree: draw the noise in node
    /// id order, fuse upward in reverse id order, spread discrepancies
    /// downward in id order, and gather each cell's node. Every node
    /// computes exactly what [`MeasuredTree::infer`] computes for it, from
    /// its own measurement and its children's values in ascending order,
    /// so the estimate is bit-identical to
    /// [`Hierarchy::measure_and_infer_naive`].
    ///
    /// [`MeasuredTree::infer`]: dpbench_transforms::tree_ls::MeasuredTree::infer
    pub fn measure_and_infer_with(
        &self,
        x: &DataVector,
        level_eps: &[f64],
        ws: &mut Workspace,
        rng: &mut dyn RngCore,
    ) -> Vec<f64> {
        assert_eq!(level_eps.len(), self.height(), "one ε per level");
        assert_eq!(
            x.domain(),
            self.domain,
            "data outside the hierarchy's domain"
        );
        let mut memo: Box<NodeCounts> = ws.take_typed();
        let counts = memo.get(self, x.counts(), ws);
        // `est[i]` holds node i's measurement, then its upward estimate,
        // then its final value; `var[i]` the measurement's variance, then
        // the upward estimate's. An unmeasured node starts as an unknown
        // leaf: 0 with infinite variance.
        let n_tree = self.kids[self.nodes.len()] as usize;
        let mut est = ws.take_f64(n_tree);
        let mut var = ws.take_f64(n_tree);
        for (ids, &eps) in self.levels.iter().zip(level_eps) {
            if eps > 0.0 {
                let (scale, variance) = (1.0 / eps, 2.0 / (eps * eps));
                for id in ids.clone() {
                    est[id] = counts[id] + laplace(scale, rng);
                    var[id] = variance;
                }
            } else {
                var[ids.clone()].fill(f64::INFINITY);
            }
        }
        var[self.nodes.len()..].fill(f64::INFINITY);
        ws.store_typed(memo);

        // Upward, children before parents: fuse each node's measurement
        // with the sum of its children's estimates. A leaf keeps its own.
        for (ids, &eps) in self.levels.iter().zip(level_eps).rev() {
            for id in ids.clone().rev() {
                let kids = self.kids_of(id);
                if kids.is_empty() {
                    continue;
                }
                let sum: f64 = est[kids.clone()].iter().sum();
                let child_var: f64 = var[kids].iter().sum();
                (est[id], var[id]) = if eps > 0.0 {
                    fuse(est[id], var[id], sum, child_var)
                } else {
                    (sum, child_var)
                };
            }
        }

        // Downward, parents before children: `est[id]` is already the
        // node's final value; spread its discrepancy from the children's
        // upward sum over the children.
        for id in 0..self.nodes.len() {
            let kids = self.kids_of(id);
            if kids.is_empty() {
                continue;
            }
            let child_sum: f64 = est[kids.clone()].iter().sum();
            let d = est[id] - child_sum;
            let (est, var) = (&mut est[kids.clone()], &var[kids]);
            let total_var: f64 = var.iter().sum();
            if total_var.is_infinite() {
                // Uninformed (infinite-variance) children share equally —
                // the uniformity assumption.
                let n_inf = var.iter().filter(|v| v.is_infinite()).count();
                let share = d / n_inf as f64;
                for (e, v) in est.iter_mut().zip(var) {
                    *e += if v.is_infinite() { share } else { 0.0 };
                }
            } else if total_var == 0.0 {
                // Exact children: the (necessarily ~0) residual splits
                // evenly to keep the sum constraint.
                let share = d / est.len() as f64;
                for e in est {
                    *e += share;
                }
            } else {
                for (e, &v) in est.iter_mut().zip(var) {
                    *e += d * v / total_var;
                }
            }
        }

        let mut cells = ws.take_f64(0);
        cells.extend(self.cell_node.iter().map(|&node| est[node as usize]));
        ws.give_f64(est);
        ws.give_f64(var);
        cells
    }

    /// The measure/infer pipeline that builds a [`MeasuredTree`] per call
    /// and runs [`MeasuredTree::infer`], retained as the validation oracle
    /// for the flat kernel of [`Hierarchy::measure_and_infer_with`]. Used
    /// only by tests.
    ///
    /// [`MeasuredTree`]: dpbench_transforms::tree_ls::MeasuredTree
    /// [`MeasuredTree::infer`]: dpbench_transforms::tree_ls::MeasuredTree::infer
    pub fn measure_and_infer_naive(
        &self,
        x: &DataVector,
        level_eps: &[f64],
        rng: &mut dyn RngCore,
    ) -> Vec<f64> {
        use dpbench_transforms::tree_ls::{MeasuredTree, Measurement};
        assert_eq!(level_eps.len(), self.height(), "one ε per level");
        let table = PrefixTable::build(x);
        let mut tree = MeasuredTree::new();
        // Tree node ids correspond 1:1 with hierarchy ids (same insertion
        // order), then leaf-cell nodes follow.
        for node in &self.nodes {
            let eps = level_eps[node.level];
            let measurement = if eps > 0.0 {
                let noisy = table.eval(&node.query) + laplace(1.0 / eps, rng);
                Some(Measurement {
                    value: noisy,
                    variance: 2.0 / (eps * eps),
                })
            } else {
                None
            };
            tree.add_node(measurement);
        }
        for id in 0..self.nodes.len() {
            let children: Vec<usize> = self.children(id).collect();
            if !children.is_empty() {
                tree.set_children(id, &children);
            }
        }
        // Expand unresolved leaves with unmeasured per-cell children so the
        // inference's uniform-discrepancy rule spreads their mass.
        let mut cell_owner: Vec<(usize, RangeQuery)> = Vec::new();
        for &leaf in self.leaf_ids() {
            let q = self.nodes[leaf].query;
            if q.size() > 1 {
                let mut expansion = Vec::new();
                for r in q.lo.0..=q.hi.0 {
                    for c in q.lo.1..=q.hi.1 {
                        let cell_node = tree.add_node(None);
                        expansion.push(cell_node);
                        cell_owner.push((
                            cell_node,
                            RangeQuery {
                                lo: (r, c),
                                hi: (r, c),
                            },
                        ));
                    }
                }
                tree.set_children(leaf, &expansion);
            }
        }
        tree.set_root(0);
        let fin = tree.infer();

        // Scatter into the cell vector.
        let mut cells = vec![0.0; x.n_cells()];
        for (id, node) in self.nodes.iter().enumerate() {
            if self.children(id).is_empty() && node.query.size() == 1 {
                let idx = x.domain().index(node.query.lo);
                cells[idx] = fin[id];
            }
        }
        for (tree_id, q) in &cell_owner {
            let idx = x.domain().index(q.lo);
            cells[idx] = fin[*tree_id];
        }
        cells
    }
}

/// The true counts of every node of the last (hierarchy, data) pair a
/// worker measured, kept in its [`Workspace`]'s typed slot. A unit's
/// trials measure one data vector over one hierarchy, so each trial after
/// the first adds its noise to these instead of rebuilding the cumulative
/// table and summing every node again. The key is the hierarchy's domain
/// and build parameters plus the cells, compared bit for bit (as SF's
/// V-optimal memo keys its counts), so a hit holds exactly the values a
/// rebuild would compute. DAWA's second stage and SF's buckets measure a
/// new vector on nearly every call; they pay one copy of it.
#[derive(Default)]
struct NodeCounts {
    key: Option<(Domain, (usize, usize))>,
    cells: Vec<f64>,
    counts: Vec<f64>,
}

impl NodeCounts {
    /// `hier`'s node counts over `cells`, in node id order: the held ones
    /// when the key matches, otherwise summed from the workspace's pooled
    /// table and held in their place.
    fn get(&mut self, hier: &Hierarchy, cells: &[f64], ws: &mut Workspace) -> &[f64] {
        let key = Some((hier.domain, hier.built_with));
        if self.key != key || !same_bits(&self.cells, cells) {
            let table = ws.table_over(cells, hier.domain);
            self.counts.clear();
            self.counts
                .extend(hier.nodes.iter().map(|node| table.eval(&node.query)));
            ws.store_table(table);
            self.cells.clear();
            self.cells.extend_from_slice(cells);
            self.key = key;
        }
        &self.counts
    }
}

/// Whether two slices hold the same values bit for bit (so `-0.0` and
/// `0.0` differ and a NaN equals only its own bits).
pub(crate) fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// A node's upward-pass estimate and variance: its measurement
/// `(value, variance)` fused with its children's summed estimates
/// `(sum, child_var)` by inverse-variance weighting; an exact side wins
/// and an uninformed (infinite-variance) side is ignored.
fn fuse(value: f64, variance: f64, sum: f64, child_var: f64) -> (f64, f64) {
    if variance == 0.0 {
        (value, 0.0)
    } else if child_var == 0.0 {
        (sum, 0.0)
    } else if child_var.is_infinite() {
        (value, variance)
    } else {
        let w_own = 1.0 / variance;
        let w_kids = 1.0 / child_var;
        (
            (w_own * value + w_kids * sum) / (w_own + w_kids),
            1.0 / (w_own + w_kids),
        )
    }
}

/// A per-worker pool of built hierarchies, bucketed by (branching factor,
/// domain size).
///
/// Two mechanisms measure hierarchies over data-dependent domains, which
/// the plan cache cannot hold: DAWA's second stage runs GREEDY_H over the
/// *reduced* bucket domain of noisy size `k`, and SF runs an H hierarchy
/// inside each of its sampled buckets. Because a `Hierarchy` is fully
/// determined by `(domain, branching)`, serving a pooled instance is
/// bit-identical to rebuilding. DAWA pads its reduced domain to the next
/// power of two before asking, so it adds at most ~log₂(n) sizes per
/// branching factor; SF's bucket widths are capped at 16·n/k (about 160
/// cells), so it adds at most that many. Stash one pool per worker in a
/// `Workspace` typed slot (no locks); the grid runner drains the hit/miss
/// counters into its `--verbose` stats.
#[derive(Default)]
pub struct HierPool {
    map: HashMap<(usize, usize), Hierarchy>,
    /// Requests served from the pool.
    pub hits: u64,
    /// Hierarchies built (one per distinct size bucket since last flush).
    pub misses: u64,
}

impl HierPool {
    /// Distinct size buckets retained; reaching the cap flushes the pool
    /// (simpler than LRU). SF's ~160 bucket widths plus DAWA's padded
    /// sizes stay below it, so a worker running both never flushes.
    const CAP: usize = 256;

    /// Fetch (building on first use) the full-resolution 1-D hierarchy
    /// over `n` cells with the given branching factor.
    pub fn get_1d(&mut self, n: usize, branching: usize) -> &Hierarchy {
        let key = (branching, n);
        if self.map.contains_key(&key) {
            self.hits += 1;
        } else {
            if self.map.len() >= Self::CAP {
                self.map.clear();
            }
            self.misses += 1;
            self.map
                .insert(key, Hierarchy::build(Domain::D1(n), branching, usize::MAX));
        }
        &self.map[&key]
    }

    /// Number of hierarchies currently pooled.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is pooled yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Split an inclusive axis range into up to `branching` contiguous,
/// (nearly) equal, non-empty parts.
fn split_axis(lo: usize, hi: usize, branching: usize) -> impl Iterator<Item = (usize, usize)> {
    let len = hi - lo + 1;
    let parts = branching.min(len);
    let (base, extra) = (len / parts, len % parts);
    (0..parts).scan(lo, move |start, i| {
        let size = base + usize::from(i < extra);
        *start += size;
        Some((*start - size, *start - 1))
    })
}

/// Hb's variance-optimal branching factor for a 1-D domain of size `n`
/// (Qardaji, Yang, Li; PVLDB 2013): answering a random range touches
/// ~`(b−1)·h` nodes, each carrying noise variance ∝ `h²` under uniform
/// budget, so we minimize `(b−1)·h³` over `b` with `h = ⌈log_b n⌉`.
pub fn optimal_branching_1d(n: usize) -> usize {
    assert!(n >= 2);
    let mut best_b = 2;
    let mut best_cost = f64::INFINITY;
    for b in 2..=n.min(4096) {
        let h = (n as f64).log(b as f64).ceil().max(1.0);
        let cost = (b - 1) as f64 * h * h * h;
        if cost < best_cost {
            best_cost = cost;
            best_b = b;
        }
    }
    best_b
}

/// Hb's branching factor for a 2-D domain with maximum side `side`: a 2-D
/// range has two boundary axes, touching ~`((b−1)h)²` nodes of variance
/// ∝ `h²`, so we minimize `(b−1)²·h⁴`.
pub fn optimal_branching_2d(side: usize) -> usize {
    assert!(side >= 2);
    let mut best_b = 2;
    let mut best_cost = f64::INFINITY;
    for b in 2..=side {
        let h = (side as f64).log(b as f64).ceil().max(1.0);
        let cost = ((b - 1) as f64).powi(2) * h.powi(4);
        if cost < best_cost {
            best_cost = cost;
            best_b = b;
        }
    }
    best_b
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn binary_1d_structure() {
        let h = Hierarchy::build(Domain::D1(8), 2, usize::MAX);
        assert_eq!(h.height(), 4); // 8 → 4 → 2 → 1
        assert_eq!(h.levels[0].len(), 1);
        assert_eq!(h.levels[1].len(), 2);
        assert_eq!(h.levels[3].len(), 8);
        assert!(h.fully_resolved());
        assert_eq!(h.nodes.len(), 15);
    }

    #[test]
    fn uneven_split() {
        let h = Hierarchy::build(Domain::D1(5), 2, usize::MAX);
        assert!(h.fully_resolved());
        // The leaves partition the domain (leaves can sit at different
        // depths on non-power-of-two domains).
        let mut covered = [false; 5];
        for &id in h.leaf_ids() {
            let q = h.nodes[id].query;
            for (i, c) in covered.iter_mut().enumerate().take(q.hi.0 + 1).skip(q.lo.0) {
                assert!(!*c, "cell {i} covered twice");
                *c = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
        // Within a level, nodes are pairwise disjoint.
        for level in &h.levels {
            let mut seen = [false; 5];
            for id in level.clone() {
                let q = h.nodes[id].query;
                for s in seen.iter_mut().take(q.hi.0 + 1).skip(q.lo.0) {
                    assert!(!*s);
                    *s = true;
                }
            }
        }
    }

    #[test]
    fn quadtree_structure_2d() {
        let h = Hierarchy::build(Domain::D2(4, 4), 2, usize::MAX);
        assert_eq!(h.height(), 3);
        assert_eq!(h.levels[1].len(), 4); // 4 quadrants
        assert_eq!(h.levels[2].len(), 16);
        assert!(h.fully_resolved());
    }

    #[test]
    fn height_cap() {
        let h = Hierarchy::build(Domain::D2(16, 16), 2, 3);
        assert_eq!(h.height(), 3);
        assert!(!h.fully_resolved());
        // Leaves are 4x4 blocks.
        for &leaf in h.leaf_ids() {
            assert_eq!(h.nodes[leaf].query.size(), 16);
        }
    }

    #[test]
    fn decompose_exact_cover() {
        let h = Hierarchy::build(Domain::D1(16), 2, usize::MAX);
        let q = RangeQuery::d1(3, 12);
        let ids = h.decompose(&q);
        let covered: usize = ids.iter().map(|&id| h.nodes[id].query.size()).sum();
        assert_eq!(covered, 10);
        // Dyadic decomposition of [3,12] uses few nodes: [3],[4,7],[8,11],[12].
        assert!(ids.len() <= 2 * 4, "used {} nodes", ids.len());
    }

    #[test]
    fn decompose_2d() {
        let h = Hierarchy::build(Domain::D2(8, 8), 2, usize::MAX);
        let q = RangeQuery::d2(1, 1, 6, 6);
        let ids = h.decompose(&q);
        let covered: usize = ids.iter().map(|&id| h.nodes[id].query.size()).sum();
        assert_eq!(covered, 36);
    }

    #[test]
    fn measure_and_infer_high_eps_recovers_exactly() {
        let x = DataVector::new((1..=8).map(f64::from).collect(), Domain::D1(8));
        let h = Hierarchy::build(Domain::D1(8), 2, usize::MAX);
        let eps = vec![1e9 / 4.0; 4];
        let mut rng = StdRng::seed_from_u64(10);
        let cells = h.measure_and_infer(&x, &eps, &mut rng);
        for (a, b) in cells.iter().zip(x.counts()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn measure_and_infer_unresolved_spreads_uniformly() {
        let x = DataVector::new(vec![4.0, 0.0, 0.0, 0.0], Domain::D1(4));
        // Height 2: root + two 2-cell leaves.
        let h = Hierarchy::build(Domain::D1(4), 2, 2);
        let eps = vec![5e8, 5e8];
        let mut rng = StdRng::seed_from_u64(11);
        let cells = h.measure_and_infer(&x, &eps, &mut rng);
        // Left leaf total 4 spread uniformly over cells 0 and 1.
        assert!((cells[0] - 2.0).abs() < 1e-3);
        assert!((cells[1] - 2.0).abs() < 1e-3);
        assert!(cells[2].abs() < 1e-3);
    }

    #[test]
    fn consistency_of_inferred_counts() {
        let x = DataVector::new(vec![3.0; 16], Domain::D1(16));
        let h = Hierarchy::build(Domain::D1(16), 4, usize::MAX);
        let eps: Vec<f64> = vec![0.5; h.height()];
        let mut rng = StdRng::seed_from_u64(12);
        let cells = h.measure_and_infer(&x, &eps, &mut rng);
        assert_eq!(cells.len(), 16);
        assert!(cells.iter().sum::<f64>().is_finite());
    }

    #[test]
    fn optimal_branching_values() {
        // n = 4096: minimizing (b−1)h³ gives a moderate branching factor.
        let b = optimal_branching_1d(4096);
        assert!((8..=32).contains(&b), "b = {b}");
        // Tiny domains use flat-ish trees.
        assert!(optimal_branching_1d(4) >= 2);
        let b2 = optimal_branching_2d(128);
        assert!((2..=16).contains(&b2), "b2 = {b2}");
    }

    #[test]
    fn workspace_variant_is_bit_identical() {
        // Pooled buffers must not change a single bit of the estimate.
        let x = DataVector::new(
            (0..64).map(|i| ((i * 7) % 23) as f64).collect(),
            Domain::D1(64),
        );
        let h = Hierarchy::build(Domain::D1(64), 2, usize::MAX);
        let eps: Vec<f64> = vec![0.05; h.height()];
        let mut ws = Workspace::new();
        for seed in [1_u64, 2, 3] {
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let a = h.measure_and_infer(&x, &eps, &mut rng_a);
            let b = h.measure_and_infer_with(&x, &eps, &mut ws, &mut rng_b);
            assert_eq!(a, b, "seed {seed}");
            ws.give_f64(b);
        }
    }

    #[test]
    fn hier_pool_reuses_and_matches_fresh_builds() {
        let mut pool = HierPool::default();
        let a_nodes = pool.get_1d(48, 2).nodes.len();
        let fresh = Hierarchy::build(Domain::D1(48), 2, usize::MAX);
        assert_eq!(a_nodes, fresh.nodes.len());
        // Same bucket hits; different size or branching misses.
        pool.get_1d(48, 2);
        pool.get_1d(48, 3);
        pool.get_1d(64, 2);
        pool.get_1d(64, 2);
        assert_eq!(pool.hits, 2);
        assert_eq!(pool.misses, 3);
        assert_eq!(pool.len(), 3);
        // Pooled hierarchy has identical node boxes to a fresh build.
        let pooled = pool.get_1d(48, 2);
        assert_eq!(pooled.nodes, fresh.nodes);
        for id in 0..fresh.nodes.len() {
            assert_eq!(pooled.children(id), fresh.children(id));
        }
    }

    #[test]
    fn split_axis_partitions() {
        let split = |lo, hi, b| split_axis(lo, hi, b).collect::<Vec<_>>();
        assert_eq!(split(0, 9, 3), vec![(0, 3), (4, 6), (7, 9)]);
        assert_eq!(split(5, 5, 4), vec![(5, 5)]);
        assert_eq!(split(0, 1, 4), vec![(0, 0), (1, 1)]);
    }
}
