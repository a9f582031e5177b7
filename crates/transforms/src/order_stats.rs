//! Sliding-window order statistics: a rank-compressed Fenwick (binary
//! indexed) tree plus the windowed L1-deviation engine that makes DAWA's
//! stage-1 partition DP subquadratic.
//!
//! DAWA's dynamic program needs, for every power-of-two length `L` and
//! every window of `L` consecutive cells, the L1 deviation around the
//! window mean `m`:
//!
//! `dev = Σ |v − m| = S − 2·s_lo + m·(2·c_lo − L)`
//!
//! where `S` is the window sum and `(c_lo, s_lo)` are the count and sum of
//! window elements below `m`. Maintaining the window in a structure
//! indexed by *value rank* answers `(c_lo, s_lo)` in polylog time, so all
//! windows of one length cost `O(n·polylog n)` and all power-of-two
//! lengths together cost **O(n log² n)** — replacing the per-interval
//! rescan that made the original DP O(n²).
//!
//! Two rank structures are provided:
//!
//! * [`RankedFenwick`] — the textbook O(log n)-update / O(log n)-query
//!   Fenwick tree over ranks; exported for reuse and as the reference the
//!   engine is cross-validated against.
//! * `RankBlocks` — a sqrt-decomposition over rank space with **O(1)**
//!   insert/remove and an O(√n) query that reads two short contiguous
//!   runs (block aggregates, then one block's ranks). The sliding loop
//!   does two updates and one query per window, so trading query
//!   pointer-chasing for sequential scans wins on real hardware: the
//!   engine's hot path uses this structure. For windows shorter than
//!   `RESCAN_MAX` a direct rescan is cheaper than any index and is used
//!   instead.

use std::cmp::Ordering;

/// Fenwick tree over value ranks, tracking the count and sum of the
/// currently inserted elements per rank. Supports multiset semantics
/// (duplicate values share a rank).
#[derive(Debug, Default)]
pub struct RankedFenwick {
    count: Vec<i64>,
    sum: Vec<f64>,
    n: usize,
}

impl RankedFenwick {
    /// An empty tree; call [`RankedFenwick::reset`] before use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clear and size the tree for ranks `0..n`, reusing its allocation.
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.count.clear();
        self.count.resize(n + 1, 0);
        self.sum.clear();
        self.sum.resize(n + 1, 0.0);
    }

    /// Insert (`dir = +1`) or remove (`dir = -1`) one element of `value`
    /// at `rank`.
    pub fn update(&mut self, rank: usize, value: f64, dir: i64) {
        debug_assert!(rank < self.n);
        let signed = if dir > 0 { value } else { -value };
        let mut i = rank + 1;
        while i <= self.n {
            self.count[i] += dir;
            self.sum[i] += signed;
            i += i & i.wrapping_neg();
        }
    }

    /// Count and sum of the inserted elements with rank `< rank`.
    pub fn prefix(&self, rank: usize) -> (i64, f64) {
        let (mut c, mut s) = (0_i64, 0.0_f64);
        let mut i = rank.min(self.n);
        while i > 0 {
            c += self.count[i];
            s += self.sum[i];
            i -= i & i.wrapping_neg();
        }
        (c, s)
    }
}

/// Windows up to this length are rescanned directly: summing this many
/// contiguous cells auto-vectorizes and beats any rank index.
const RESCAN_MAX: usize = 128;

/// Sqrt-decomposition over rank space: per-rank (count, sum) plus
/// per-block aggregates. Insert/remove touch two entries (O(1)); a
/// prefix query scans whole blocks then one partial block — two
/// contiguous runs totalling O(√n) entries, which the prefetcher streams.
/// Queries run from whichever end of rank space is nearer, using the
/// running whole-structure totals.
#[derive(Debug, Default)]
struct RankBlocks {
    /// Per-rank (count, sum), paired so one cache line serves both.
    rank: Vec<(f64, i64)>,
    /// Per-block (sum, count) aggregates.
    block: Vec<(f64, i64)>,
    /// Totals over everything currently inserted.
    total: (f64, i64),
    shift: u32,
}

impl RankBlocks {
    fn reset(&mut self, n: usize) {
        // Block length ≈ √n, power of two for shift indexing.
        let target = (n.max(1) as f64).sqrt() as usize;
        self.shift = target.next_power_of_two().trailing_zeros();
        let blocks = (n >> self.shift) + 1;
        self.rank.clear();
        self.rank.resize(n, (0.0, 0));
        self.block.clear();
        self.block.resize(blocks, (0.0, 0));
        self.total = (0.0, 0);
    }

    #[inline]
    fn insert(&mut self, rank: usize, value: f64) {
        let r = &mut self.rank[rank];
        r.0 += value;
        r.1 += 1;
        let b = &mut self.block[rank >> self.shift];
        b.0 += value;
        b.1 += 1;
        self.total.0 += value;
        self.total.1 += 1;
    }

    #[inline]
    fn remove(&mut self, rank: usize, value: f64) {
        let r = &mut self.rank[rank];
        r.0 -= value;
        r.1 -= 1;
        let b = &mut self.block[rank >> self.shift];
        b.0 -= value;
        b.1 -= 1;
        self.total.0 -= value;
        self.total.1 -= 1;
    }

    /// Count and sum of inserted elements with rank `< cut`.
    #[inline]
    fn prefix(&self, cut: usize) -> (i64, f64) {
        // Scan from the nearer end; the suffix variant subtracts from the
        // running totals.
        if cut * 2 <= self.rank.len() {
            let full = cut >> self.shift;
            let (mut s, mut c) = (0.0, 0_i64);
            for &(bs, bc) in &self.block[..full] {
                s += bs;
                c += bc;
            }
            for &(rs, rc) in &self.rank[full << self.shift..cut] {
                s += rs;
                c += rc;
            }
            (c, s)
        } else {
            // Suffix ranks ≥ cut: partial block first, then whole blocks.
            let (mut s, mut c) = (0.0, 0_i64);
            let next_block = (cut >> self.shift) + 1;
            let boundary = (next_block << self.shift).min(self.rank.len());
            for &(rs, rc) in &self.rank[cut..boundary] {
                s += rs;
                c += rc;
            }
            for &(bs, bc) in &self.block[next_block.min(self.block.len())..] {
                s += bs;
                c += bc;
            }
            (self.total.1 - c, self.total.0 - s)
        }
    }
}

/// Reusable engine computing the L1 deviation of every fixed-length window
/// of a vector. Owns all scratch (sorted value table, per-position ranks,
/// prefix sums, the rank index), so repeated use allocates nothing once
/// the buffers have grown to size.
#[derive(Debug, Default)]
pub struct SlidingDeviation {
    blocks: RankBlocks,
    sorted: Vec<f64>,
    ranks: Vec<usize>,
    prefix: Vec<f64>,
}

impl SlidingDeviation {
    /// A fresh engine with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rank-compress `values` and build their prefix sums — O(n log n).
    /// Must be called before [`SlidingDeviation::window_deviations`]; one
    /// `prepare` serves any number of window lengths over the same vector.
    pub fn prepare(&mut self, values: &[f64]) {
        self.sorted.clear();
        self.sorted.extend_from_slice(values);
        self.sorted.sort_unstable_by(f64::total_cmp);
        self.ranks.clear();
        self.ranks.extend(values.iter().map(|v| {
            self.sorted
                .partition_point(|s| s.total_cmp(v) == Ordering::Less)
        }));
        self.prefix.clear();
        self.prefix.reserve(values.len() + 1);
        self.prefix.push(0.0);
        let mut acc = 0.0;
        for &v in values {
            acc += v;
            self.prefix.push(acc);
        }
    }

    /// Prefix sums of the prepared vector (`prefix[i] = Σ values[..i]`),
    /// accumulated left to right exactly like a scalar loop.
    pub fn prefix_sums(&self) -> &[f64] {
        &self.prefix
    }

    /// Write into `out[i]` (for `i ∈ [window, n]`) the L1 deviation of
    /// `values[i-window..i]` around that window's mean; entries below
    /// `window` are left untouched. `values` must be the slice passed to
    /// the last [`SlidingDeviation::prepare`]. O(n √n) worst case, O(n)
    /// for short windows; across all power-of-two windows the rescan/
    /// index split keeps the total far below the naive O(n²).
    pub fn window_deviations(&mut self, values: &[f64], window: usize, out: &mut [f64]) {
        let n = values.len();
        assert!(window >= 1 && window <= n, "window must be in [1, n]");
        assert!(out.len() > n, "out must have room for n + 1 entries");
        assert_eq!(self.ranks.len(), n, "prepare() must see the same vector");
        if window == 1 {
            // A single element deviates from its own mean by exactly zero;
            // the general formula would leave prefix-sum rounding residue.
            out[1..=n].fill(0.0);
            return;
        }
        if window <= RESCAN_MAX {
            self.rescan_deviations(values, window, out);
        } else {
            self.indexed_deviations(values, window, out);
        }
    }

    /// Direct per-window rescan — O(n · window), sequential loads.
    fn rescan_deviations(&self, values: &[f64], window: usize, out: &mut [f64]) {
        let wlen = window as f64;
        for i in window..=values.len() {
            let j = i - window;
            let s_win = self.prefix[i] - self.prefix[j];
            let m = s_win / wlen;
            out[i] = abs_dev_sum(&values[j..i], m);
        }
    }

    /// Rank-indexed sliding computation.
    ///
    /// The window mean moves by at most `(|v_in| + |v_out|)/window` per
    /// slide, so the threshold rank `cut` drifts slowly for exactly the
    /// long windows where rescanning is expensive. `(c_lo, s_lo)` are
    /// maintained incrementally: O(1) for the element entering/leaving,
    /// plus a walk over the rank slots `cut` crosses — expected
    /// O(n/window) amortized, capped by a fallback to the O(√n) block
    /// query so the worst case stays O(√n) per window.
    fn indexed_deviations(&mut self, values: &[f64], window: usize, out: &mut [f64]) {
        let n = values.len();
        self.blocks.reset(n);
        let wlen = window as f64;
        // Walk budget per slide (≈ 4√n) before falling back to a block
        // query, so a pathological mean jump cannot cost more than the
        // query it replaces.
        let walk_cap = 4_usize << self.blocks.shift;
        // Re-anchor (c_lo, s_lo) from the block index every so many
        // windows even when the walk stays cheap: the incremental float
        // adds/removes would otherwise accumulate drift over O(n) slides,
        // and periodic refresh keeps it at ulp scale — far inside any
        // tolerance downstream consumers (DAWA's DP tie band) rely on.
        const REFRESH_EVERY: usize = 512;
        let mut since_refresh = 0_usize;
        let (mut cut, mut c_lo, mut s_lo) = (0_usize, 0_i64, 0.0_f64);
        for i in 0..n {
            let (ri, vi) = (self.ranks[i], values[i]);
            self.blocks.insert(ri, vi);
            if ri < cut {
                c_lo += 1;
                s_lo += vi;
            }
            if i + 1 >= window {
                let j = i + 1 - window;
                let s_win = self.prefix[i + 1] - self.prefix[j];
                let m = s_win / wlen;
                since_refresh += 1;
                if i + 1 == window || since_refresh >= REFRESH_EVERY {
                    // First full window (cold start) or periodic refresh.
                    cut = self.sorted.partition_point(|&s| s < m);
                    let fresh = self.blocks.prefix(cut);
                    c_lo = fresh.0;
                    s_lo = fresh.1;
                    since_refresh = 0;
                } else {
                    // Walk the threshold to its new position, folding the
                    // crossed rank slots into (c_lo, s_lo).
                    let mut steps = 0_usize;
                    while cut < n && self.sorted[cut] < m && steps <= walk_cap {
                        let (rs, rc) = self.blocks.rank[cut];
                        c_lo += rc;
                        s_lo += rs;
                        cut += 1;
                        steps += 1;
                    }
                    while cut > 0 && self.sorted[cut - 1] >= m && steps <= walk_cap {
                        cut -= 1;
                        let (rs, rc) = self.blocks.rank[cut];
                        c_lo -= rc;
                        s_lo -= rs;
                        steps += 1;
                    }
                    if steps > walk_cap {
                        // Rare long jump: re-anchor with one block query
                        // (also clears accumulated float drift).
                        cut = self.sorted.partition_point(|&s| s < m);
                        let fresh = self.blocks.prefix(cut);
                        c_lo = fresh.0;
                        s_lo = fresh.1;
                    }
                }
                // Tiny negative values are floating-point residue of the
                // rearranged summation; the deviation is non-negative.
                out[i + 1] = (s_win - 2.0 * s_lo + m * (2.0 * c_lo as f64 - wlen)).max(0.0);
                let (rj, vj) = (self.ranks[j], values[j]);
                self.blocks.remove(rj, vj);
                if rj < cut {
                    c_lo -= 1;
                    s_lo -= vj;
                }
            }
        }
    }
}

/// `Σ |v − m|` with four independent accumulators so the sum pipelines /
/// vectorizes instead of serializing on one FP add chain.
#[inline]
fn abs_dev_sum(values: &[f64], m: f64) -> f64 {
    let mut acc = [0.0_f64; 4];
    let mut chunks = values.chunks_exact(4);
    for ch in &mut chunks {
        acc[0] += (ch[0] - m).abs();
        acc[1] += (ch[1] - m).abs();
        acc[2] += (ch[2] - m).abs();
        acc[3] += (ch[3] - m).abs();
    }
    let mut tail = 0.0;
    for &v in chunks.remainder() {
        tail += (v - m).abs();
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dev(values: &[f64]) -> f64 {
        let m = values.iter().sum::<f64>() / values.len() as f64;
        values.iter().map(|v| (v - m).abs()).sum()
    }

    /// Deterministic pseudo-random stream (no external RNG dependency in
    /// this crate).
    fn stream(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 200.0 - 100.0
            })
            .collect()
    }

    #[test]
    fn fenwick_prefix_counts_and_sums() {
        let mut f = RankedFenwick::new();
        f.reset(4);
        f.update(0, 1.0, 1);
        f.update(2, 5.0, 1);
        f.update(2, 5.0, 1);
        f.update(3, 9.0, 1);
        assert_eq!(f.prefix(0), (0, 0.0));
        assert_eq!(f.prefix(1), (1, 1.0));
        assert_eq!(f.prefix(3), (3, 11.0));
        assert_eq!(f.prefix(4), (4, 20.0));
        f.update(2, 5.0, -1);
        assert_eq!(f.prefix(4), (3, 15.0));
    }

    #[test]
    fn block_index_agrees_with_fenwick() {
        // The sqrt-decomposition must agree with the Fenwick reference on
        // a random insert/remove/query interleaving.
        let values = stream(0xF00, 300);
        let n = values.len();
        let mut sorted = values.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        let rank = |v: f64| sorted.partition_point(|s| s.total_cmp(&v) == Ordering::Less);
        let mut fen = RankedFenwick::new();
        fen.reset(n);
        let mut blk = RankBlocks::default();
        blk.reset(n);
        let mut state = 0x5EED_u64;
        let mut inside: Vec<usize> = Vec::new();
        for step in 0..2000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pick = (state >> 33) as usize % n;
            if inside.contains(&pick) {
                inside.retain(|&p| p != pick);
                fen.update(rank(values[pick]), values[pick], -1);
                blk.remove(rank(values[pick]), values[pick]);
            } else {
                inside.push(pick);
                fen.update(rank(values[pick]), values[pick], 1);
                blk.insert(rank(values[pick]), values[pick]);
            }
            let cut = (state >> 7) as usize % (n + 1);
            let (fc, fs) = fen.prefix(cut);
            let (bc, bs) = blk.prefix(cut);
            assert_eq!(fc, bc, "count mismatch at step {step} cut {cut}");
            assert!(
                (fs - bs).abs() <= 1e-9 * (1.0 + fs.abs()),
                "sum mismatch at step {step} cut {cut}: {fs} vs {bs}"
            );
        }
    }

    #[test]
    fn window_deviations_match_naive_rescan() {
        for seed in 0..8_u64 {
            // Sizes past RESCAN_MAX so both the rescan and the indexed
            // paths are exercised.
            let n = 150 + (seed as usize % 5) * 31;
            let values = stream(seed + 1, n);
            let mut sd = SlidingDeviation::new();
            sd.prepare(&values);
            let mut out = vec![0.0; n + 1];
            let mut window = 1;
            while window <= n {
                sd.window_deviations(&values, window, &mut out);
                for i in window..=n {
                    let expect = naive_dev(&values[i - window..i]);
                    let got = out[i];
                    assert!(
                        (got - expect).abs() <= 1e-9 * (1.0 + expect.abs()),
                        "seed {seed} window {window} end {i}: {got} vs {expect}"
                    );
                }
                window *= 2;
            }
        }
    }

    #[test]
    fn single_element_windows_are_exactly_zero() {
        let values = stream(9, 64);
        let mut sd = SlidingDeviation::new();
        sd.prepare(&values);
        let mut out = vec![f64::NAN; 65];
        sd.window_deviations(&values, 1, &mut out);
        assert!(out[1..].iter().all(|&d| d == 0.0));
    }

    #[test]
    fn duplicate_values_share_ranks() {
        let values = vec![2.0, 2.0, 2.0, 8.0, 8.0, 2.0];
        let mut sd = SlidingDeviation::new();
        sd.prepare(&values);
        let mut out = vec![0.0; 7];
        sd.window_deviations(&values, 2, &mut out);
        // Window [2,2] → 0; window [2,8] → |2-5| + |8-5| = 6.
        assert_eq!(out[2], 0.0);
        assert_eq!(out[4], 6.0);
        assert_eq!(out[6], 6.0);
    }

    #[test]
    fn engine_is_reusable_across_vectors() {
        let a = stream(3, 80);
        let b = stream(4, 220);
        let mut sd = SlidingDeviation::new();
        let mut out = vec![0.0; 221];
        for values in [&a, &b, &a] {
            let n = values.len();
            sd.prepare(values);
            for window in [4_usize, 128] {
                if window > n {
                    continue;
                }
                sd.window_deviations(values, window, &mut out);
                for i in window..=n {
                    let expect = naive_dev(&values[i - window..i]);
                    assert!((out[i] - expect).abs() <= 1e-9 * (1.0 + expect.abs()));
                }
            }
        }
    }
}
