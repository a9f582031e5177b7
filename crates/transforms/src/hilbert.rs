//! Hilbert space-filling curve over a `2^k × 2^k` grid.
//!
//! DAWA and GREEDY_H handle 2-D inputs by flattening the grid to one
//! dimension along a Hilbert curve (paper Appendix B), which preserves
//! spatial locality: cells adjacent on the curve are adjacent in the grid,
//! so 1-D partitions of the flattened vector correspond to compact 2-D
//! regions.
//!
//! **The curve value.** A 2-D plan builds one [`Curve`] with the plan: the
//! row-major index of the cell at each curve position, 4 bytes per cell
//! (64 KB at 128 × 128). Every execution then flattens its grid with a
//! gather and unflattens the estimate with a scatter, instead of two
//! [`d2xy`] per cell.
//!
//! **Range queries.** A plan maps each 2-D range to the smallest curve
//! interval covering it with [`box_cover`]. The curve visits the four
//! aligned quadrants of a square one after another, each along a rotated
//! or reflected copy of the curve one level down. So every cell of an
//! earlier quadrant comes before every cell of a later one, and the
//! interval's start lies in the first quadrant, in curve order, that
//! meets the box; its end lies in the last one. The descent re-orients the
//! box into that quadrant's frame (the same transform [`xy2d`] applies to
//! a point) and repeats one level down, until it reaches a quadrant wholly
//! inside the box, whose first or last position is the answer. That is
//! exact, and one step per level: O(log side) per range, where the
//! perimeter scan it replaced ([`box_cover_naive`], kept as the test
//! oracle) took one `xy2d` per boundary cell.

/// Convert a distance `d ∈ [0, side²)` along the Hilbert curve to grid
/// coordinates `(x, y)`. `side` must be a power of two.
pub fn d2xy(side: usize, d: usize) -> (usize, usize) {
    assert!(
        side.is_power_of_two(),
        "Hilbert curve requires power-of-two side"
    );
    assert!(d < side * side, "distance {d} out of range for side {side}");
    let (mut x, mut y) = (0_usize, 0_usize);
    let mut t = d;
    let mut s = 1_usize;
    while s < side {
        let rx = 1 & (t / 2);
        let ry = 1 & (t ^ rx);
        rot(s, &mut x, &mut y, rx, ry);
        x += s * rx;
        y += s * ry;
        t /= 4;
        s *= 2;
    }
    (x, y)
}

/// Convert grid coordinates to a distance along the Hilbert curve; inverse
/// of [`d2xy`].
pub fn xy2d(side: usize, x: usize, y: usize) -> usize {
    assert!(side.is_power_of_two());
    assert!(
        x < side && y < side,
        "({x},{y}) out of range for side {side}"
    );
    let (mut x, mut y) = (x, y);
    let mut d = 0_usize;
    let mut s = side / 2;
    while s > 0 {
        let rx = usize::from((x & s) > 0);
        let ry = usize::from((y & s) > 0);
        d += s * s * ((3 * rx) ^ ry);
        rot(s, &mut x, &mut y, rx, ry);
        s /= 2;
    }
    d
}

#[inline]
fn rot(s: usize, x: &mut usize, y: &mut usize, rx: usize, ry: usize) {
    if ry == 0 {
        if rx == 1 {
            *x = s.wrapping_sub(1).wrapping_sub(*x);
            *y = s.wrapping_sub(1).wrapping_sub(*y);
        }
        std::mem::swap(x, y);
    }
}

/// One Hilbert curve over a `side × side` grid, built once: the row-major
/// index of the cell at each curve position. Flattening a grid is then a
/// gather and unflattening a scatter, with no per-cell `d2xy`.
#[derive(Debug)]
pub struct Curve {
    cells: Vec<u32>,
}

impl Curve {
    /// The curve over a `side × side` grid (`side` a power of two).
    pub fn new(side: usize) -> Self {
        assert!(
            side.is_power_of_two(),
            "Hilbert curve requires power-of-two side"
        );
        assert!(
            u32::try_from(side * side).is_ok(),
            "side {side} too large for u32 cell indices"
        );
        let cells = (0..side * side)
            .map(|d| {
                let (x, y) = d2xy(side, d);
                (y * side + x) as u32
            })
            .collect();
        Self { cells }
    }

    /// Gather a row-major grid into curve order: `line[d]` is the cell at
    /// curve position `d`.
    pub fn flatten_into(&self, grid: &[f64], line: &mut [f64]) {
        assert_eq!(grid.len(), self.cells.len());
        assert_eq!(line.len(), grid.len());
        for (slot, &c) in line.iter_mut().zip(&self.cells) {
            *slot = grid[c as usize];
        }
    }

    /// Scatter a curve-ordered vector back to a row-major grid; inverse of
    /// [`Curve::flatten_into`].
    pub fn unflatten_into(&self, line: &[f64], grid: &mut [f64]) {
        assert_eq!(line.len(), self.cells.len());
        assert_eq!(grid.len(), line.len());
        for (&v, &c) in line.iter().zip(&self.cells) {
            grid[c as usize] = v;
        }
    }
}

/// The curve's quadrants in visiting order, as `(rx, ry)` offsets: the
/// order [`xy2d`] encodes as `(3·rx) ^ ry`.
const QUADRANTS: [(usize, usize); 4] = [(0, 0), (0, 1), (1, 1), (1, 0)];

/// The smallest Hilbert-distance interval `[lo, hi]` covering the
/// axis-aligned cell box `rows × cols = [r1, r2] × [c1, c2]` (inclusive)
/// of a `side × side` grid, in O(log side).
///
/// Each end is found by descending the curve's aligned quadrants (see the
/// module docs): the first quadrant in curve order that meets the box
/// holds `lo`, the last one holds `hi`, and a quadrant wholly inside the
/// box ends the descent. DAWA and GREEDY_H use this to map 2-D range
/// queries onto the flattened domain; [`box_cover_naive`] is its oracle.
pub fn box_cover(side: usize, r1: usize, c1: usize, r2: usize, c2: usize) -> (usize, usize) {
    assert!(
        side.is_power_of_two(),
        "Hilbert curve requires power-of-two side"
    );
    assert!(r1 <= r2 && c1 <= c2, "empty box");
    assert!(r2 < side && c2 < side, "box out of range for side {side}");
    let bounds = [c1, r1, c2, r2];
    (box_end(side, bounds, false), box_end(side, bounds, true))
}

/// The first (`last == false`) or last curve position inside the box
/// `[x1, y1, x2, y2]` (inclusive; `x` is the column, `y` the row).
fn box_end(side: usize, [mut x1, mut y1, mut x2, mut y2]: [usize; 4], last: bool) -> usize {
    let mut d = 0;
    let mut s = side / 2;
    while s > 0 {
        let meets = |&q: &usize| {
            let (rx, ry) = QUADRANTS[q];
            x1 < (rx + 1) * s && x2 >= rx * s && y1 < (ry + 1) * s && y2 >= ry * s
        };
        let q = if last {
            (0..4).rev().find(meets)
        } else {
            (0..4).find(meets)
        }
        .expect("the box lies inside the square");
        let (rx, ry) = QUADRANTS[q];
        d += q * s * s;
        // The box clipped to the quadrant, in the quadrant's own frame.
        let (ox, oy) = (rx * s, ry * s);
        let (cx1, cx2) = (x1.max(ox) - ox, x2.min(ox + s - 1) - ox);
        let (cy1, cy2) = (y1.max(oy) - oy, y2.min(oy + s - 1) - oy);
        if cx1 == 0 && cy1 == 0 && cx2 == s - 1 && cy2 == s - 1 {
            return if last { d + s * s - 1 } else { d };
        }
        // Re-orient into the sub-curve's frame, as [`xy2d`]'s `rot` does
        // to a point: the first quadrant is transposed, the last one
        // transposed across the anti-diagonal, the middle two kept.
        [x1, y1, x2, y2] = match (rx, ry) {
            (0, 0) => [cy1, cx1, cy2, cx2],
            (1, 0) => [s - 1 - cy2, s - 1 - cx2, s - 1 - cy1, s - 1 - cx1],
            _ => [cx1, cy1, cx2, cy2],
        };
        s /= 2;
    }
    d
}

/// The perimeter scan [`box_cover`] replaced, kept as its test oracle
/// (like `l1_partition_naive` beside DAWA's partition): one [`xy2d`] per
/// boundary cell, O(perimeter · log side).
///
/// It is exact because the curve moves one grid step at a time: the first
/// cell of the box it reaches either is the curve's origin `(0, 0)` or has
/// its predecessor outside the box, and both put it on the box boundary;
/// symmetrically the last cell has its successor outside.
pub fn box_cover_naive(side: usize, r1: usize, c1: usize, r2: usize, c2: usize) -> (usize, usize) {
    assert!(r1 <= r2 && c1 <= c2, "empty box");
    let (mut lo, mut hi) = (usize::MAX, 0_usize);
    let visit = |x: usize, y: usize, lo: &mut usize, hi: &mut usize| {
        let d = xy2d(side, x, y);
        *lo = (*lo).min(d);
        *hi = (*hi).max(d);
    };
    for c in c1..=c2 {
        visit(c, r1, &mut lo, &mut hi);
        visit(c, r2, &mut lo, &mut hi);
    }
    for r in r1..=r2 {
        visit(c1, r, &mut lo, &mut hi);
        visit(c2, r, &mut lo, &mut hi);
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn order2_curve_is_the_classic_u() {
        // The 2x2 Hilbert curve visits (0,0), (0,1), (1,1), (1,0).
        assert_eq!(d2xy(2, 0), (0, 0));
        assert_eq!(d2xy(2, 1), (0, 1));
        assert_eq!(d2xy(2, 2), (1, 1));
        assert_eq!(d2xy(2, 3), (1, 0));
    }

    #[test]
    fn bijective_roundtrip() {
        for side in [2_usize, 4, 8, 16, 32] {
            let mut seen = vec![false; side * side];
            for d in 0..side * side {
                let (x, y) = d2xy(side, d);
                assert!(!seen[y * side + x], "duplicate cell at d={d}");
                seen[y * side + x] = true;
                assert_eq!(xy2d(side, x, y), d, "roundtrip failed at d={d}");
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn consecutive_cells_are_grid_adjacent() {
        let side = 32;
        for d in 0..side * side - 1 {
            let (x1, y1) = d2xy(side, d);
            let (x2, y2) = d2xy(side, d + 1);
            let dist = x1.abs_diff(x2) + y1.abs_diff(y2);
            assert_eq!(dist, 1, "curve jumps at d={d}: ({x1},{y1})→({x2},{y2})");
        }
    }

    #[test]
    fn flatten_roundtrip() {
        let side = 8;
        let curve = Curve::new(side);
        let grid: Vec<f64> = (0..side * side).map(|i| i as f64).collect();
        let mut line = vec![0.0; side * side];
        curve.flatten_into(&grid, &mut line);
        // The 2x2 block in the origin's corner comes first, in U order.
        assert_eq!(line[..4], [0.0, 8.0, 9.0, 1.0]);
        let mut back = vec![0.0; side * side];
        curve.unflatten_into(&line, &mut back);
        assert_eq!(back, grid);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rejects_non_pow2() {
        d2xy(6, 0);
    }

    #[test]
    fn box_cover_matches_full_scan_on_random_boxes() {
        // The quadrant descent and the perimeter scan must both agree with
        // the exhaustive every-cell scan on arbitrary boxes — including
        // degenerate rows, columns, single cells, and the full grid.
        let mut rng = StdRng::seed_from_u64(0xB0C5);
        for side in [1_usize, 4, 16, 32, 64] {
            for _ in 0..64 {
                let r1 = rng.gen_range(0..side);
                let r2 = rng.gen_range(r1..side);
                let c1 = rng.gen_range(0..side);
                let c2 = rng.gen_range(c1..side);
                let (mut lo, mut hi) = (usize::MAX, 0_usize);
                for r in r1..=r2 {
                    for c in c1..=c2 {
                        let d = xy2d(side, c, r);
                        lo = lo.min(d);
                        hi = hi.max(d);
                    }
                }
                let label = format!("side {side} box [{r1},{r2}]x[{c1},{c2}]");
                assert_eq!(box_cover(side, r1, c1, r2, c2), (lo, hi), "{label}");
                assert_eq!(box_cover_naive(side, r1, c1, r2, c2), (lo, hi), "{label}");
            }
            // Full grid covers the whole curve.
            assert_eq!(
                box_cover(side, 0, 0, side - 1, side - 1),
                (0, side * side - 1)
            );
        }
    }

    #[test]
    fn randomized_roundtrip() {
        let mut rng = StdRng::seed_from_u64(0x417);
        let side = 64;
        for _ in 0..512 {
            let x = rng.gen_range(0..side);
            let y = rng.gen_range(0..side);
            let d = xy2d(side, x, y);
            assert_eq!(d2xy(side, d), (x, y));
        }
    }
}
