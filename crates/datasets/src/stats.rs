//! Shape statistics — quantitative handles on the paper's open problem of
//! *understanding data dependence* (Section 8: "the research community
//! appears to know very little about the features of the input data that
//! permit low error").
//!
//! Each statistic is a deterministic function of the (public or
//! hypothesized) shape vector and can be used to characterize which shapes
//! favour which algorithm family (partitioning mechanisms like equi-depth
//! regions → low entropy / high concentration; smooth shapes → Fourier
//! compressibility; etc.).

/// Summary statistics of a shape (a non-negative vector summing to 1).
#[derive(Debug, Clone, PartialEq)]
pub struct ShapeStats {
    /// Shannon entropy in nats.
    pub entropy: f64,
    /// Entropy divided by `ln n` — 1.0 means perfectly uniform.
    pub normalized_entropy: f64,
    /// Gini coefficient of the cell masses (0 = uniform, → 1 = one spike).
    pub gini: f64,
    /// Mass of the single heaviest cell.
    pub top_cell: f64,
    /// Mass of the heaviest 1 % of cells.
    pub top_percent_mass: f64,
    /// Total-variation distance from the uniform shape.
    pub tv_from_uniform: f64,
    /// Fraction of cells with non-zero mass.
    pub support_fraction: f64,
    /// Total first-difference (1-D smoothness proxy): `Σ|p_{i+1} − p_i|`.
    pub total_variation_1d: f64,
}

/// Compute all statistics of a shape vector.
pub fn shape_stats(p: &[f64]) -> ShapeStats {
    assert!(!p.is_empty(), "empty shape");
    let n = p.len() as f64;
    let total: f64 = p.iter().sum();
    assert!(
        (total - 1.0).abs() < 1e-6,
        "shape must sum to 1 (got {total})"
    );

    let entropy = -p
        .iter()
        .filter(|&&v| v > 0.0)
        .map(|&v| v * v.ln())
        .sum::<f64>();
    let normalized_entropy = if p.len() > 1 { entropy / n.ln() } else { 1.0 };

    // Gini via the sorted-rank formula.
    let mut sorted = p.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in shape"));
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &v)| (i as f64 + 1.0) * v)
        .sum();
    let gini = ((2.0 * weighted) / n - (n + 1.0) / n).clamp(0.0, 1.0);

    let top_cell = p.iter().copied().fold(0.0, f64::max);
    let k = ((p.len() as f64) * 0.01).ceil() as usize;
    let top_percent_mass: f64 = sorted.iter().rev().take(k.max(1)).sum();

    let uniform = 1.0 / n;
    let tv_from_uniform = 0.5 * p.iter().map(|&v| (v - uniform).abs()).sum::<f64>();
    let support_fraction = p.iter().filter(|&&v| v > 0.0).count() as f64 / n;
    let total_variation_1d = p.windows(2).map(|w| (w[1] - w[0]).abs()).sum();

    ShapeStats {
        entropy,
        normalized_entropy,
        gini,
        top_cell,
        top_percent_mass,
        tv_from_uniform,
        support_fraction,
        total_variation_1d,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_shape_extremes() {
        let n = 100;
        let p = vec![1.0 / n as f64; n];
        let s = shape_stats(&p);
        assert!((s.normalized_entropy - 1.0).abs() < 1e-9);
        assert!(s.gini < 1e-9);
        assert!(s.tv_from_uniform < 1e-12);
        assert_eq!(s.support_fraction, 1.0);
        assert!(s.total_variation_1d < 1e-12);
    }

    #[test]
    fn spike_shape_extremes() {
        let mut p = vec![0.0; 100];
        p[3] = 1.0;
        let s = shape_stats(&p);
        assert!(s.entropy.abs() < 1e-12);
        assert!(s.gini > 0.97, "gini {}", s.gini);
        assert_eq!(s.top_cell, 1.0);
        assert!((s.tv_from_uniform - 0.99).abs() < 1e-9);
        assert_eq!(s.support_fraction, 0.01);
    }

    #[test]
    fn entropy_orders_concentration() {
        let flat = shape_stats(&[0.25; 4]);
        let skew = shape_stats(&[0.7, 0.1, 0.1, 0.1]);
        assert!(flat.entropy > skew.entropy);
        assert!(flat.gini < skew.gini);
    }

    #[test]
    fn catalog_datasets_have_sensible_stats() {
        use crate::catalog::by_name;
        // BIDS-FJ is dense and smooth; ADULT is one dominant spike.
        let bids = shape_stats(&by_name("BIDS-FJ").unwrap().base_shape());
        let adult = shape_stats(&by_name("ADULT").unwrap().base_shape());
        assert!(bids.support_fraction > 0.99);
        assert!(adult.support_fraction < 0.05);
        assert!(adult.top_cell > 0.5, "ADULT top cell {}", adult.top_cell);
        assert!(bids.normalized_entropy > adult.normalized_entropy);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rejects_unnormalized() {
        shape_stats(&[0.5, 0.2]);
    }
}
