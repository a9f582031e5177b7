//! Welch's unpaired t-test and the benchmark's *competitive set*
//! determination (paper Section 5.3).
//!
//! An algorithm is **competitive** in a setting if it achieves the lowest
//! error, or its error is not statistically significantly different from
//! the lowest, assessed with an unpaired t-test at Bonferroni-corrected
//! `α = 0.05 / (n_algs − 1)`.

use crate::special::student_t_two_sided_p;

/// Result of a two-sample t-test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TTestResult {
    /// The t statistic.
    pub t: f64,
    /// Welch–Satterthwaite degrees of freedom.
    pub df: f64,
    /// Two-sided p-value.
    pub p_value: f64,
}

/// Sufficient statistics of one error sample: everything Welch's test
/// needs. A `StreamingSummary` (and therefore a merged fleet summary
/// file) carries exactly these, so the competitive-set machinery runs on
/// t-digest summaries without raw samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Moments {
    /// Number of observations.
    pub n: u64,
    /// Sample mean.
    pub mean: f64,
    /// Unbiased sample variance (n − 1 denominator).
    pub variance: f64,
}

/// Welch's unpaired two-sample t-test (unequal variances).
///
/// Returns `None` when either sample has fewer than two observations or
/// both have zero variance *and* equal means (no evidence either way —
/// treated as "not significant" by callers).
pub fn welch_t_test(a: &[f64], b: &[f64]) -> Option<TTestResult> {
    let ma = Moments {
        n: a.len() as u64,
        mean: crate::describe::mean(a),
        variance: crate::describe::variance(a),
    };
    let mb = Moments {
        n: b.len() as u64,
        mean: crate::describe::mean(b),
        variance: crate::describe::variance(b),
    };
    welch_t_test_moments(ma, mb)
}

/// Welch's test from sufficient statistics alone — the identical
/// computation as [`welch_t_test`] (which delegates here), usable on
/// streaming summaries where raw samples were never kept.
pub fn welch_t_test_moments(a: Moments, b: Moments) -> Option<TTestResult> {
    if a.n < 2 || b.n < 2 {
        return None;
    }
    let (ma, mb) = (a.mean, b.mean);
    let (va, vb) = (a.variance, b.variance);
    let (na, nb) = (a.n as f64, b.n as f64);
    let se2 = va / na + vb / nb;
    if se2 == 0.0 {
        // Identical constants: significant iff means differ at all.
        return Some(TTestResult {
            t: if ma == mb { 0.0 } else { f64::INFINITY },
            df: na + nb - 2.0,
            p_value: if ma == mb { 1.0 } else { 0.0 },
        });
    }
    let t = (ma - mb) / se2.sqrt();
    let df = se2 * se2 / ((va / na) * (va / na) / (na - 1.0) + (vb / nb) * (vb / nb) / (nb - 1.0));
    let df = df.max(1.0);
    Some(TTestResult {
        t,
        df,
        p_value: student_t_two_sided_p(t, df),
    })
}

/// Bonferroni-corrected significance level for comparing `n_algs`
/// algorithms: `0.05 / (n_algs − 1)` (paper Section 5.3).
pub fn bonferroni_alpha(n_algs: usize) -> f64 {
    assert!(n_algs >= 2, "need at least two algorithms to compare");
    0.05 / (n_algs - 1) as f64
}

/// Determine which algorithms are *competitive* given per-algorithm error
/// samples. Returns the indices of competitive algorithms.
///
/// The algorithm with the lowest mean error is always competitive; any
/// other algorithm is competitive when the Welch test against the best
/// fails to reject equality at the Bonferroni-corrected α.
pub fn competitive_set(samples: &[Vec<f64>]) -> Vec<usize> {
    let moments: Vec<Moments> = samples
        .iter()
        .map(|s| Moments {
            n: s.len() as u64,
            mean: crate::describe::mean(s),
            variance: crate::describe::variance(s),
        })
        .collect();
    competitive_set_moments(&moments)
}

/// [`competitive_set`] from sufficient statistics: the best-mean entry is
/// always competitive; any other is competitive when Welch's test against
/// the best fails to reject at the Bonferroni-corrected α. Identical
/// decisions to the raw-sample path (which delegates here).
pub fn competitive_set_moments(moments: &[Moments]) -> Vec<usize> {
    assert!(!moments.is_empty());
    if moments.len() == 1 {
        return vec![0];
    }
    let best = moments
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.mean.partial_cmp(&b.1.mean).expect("NaN mean"))
        .map(|(i, _)| i)
        .expect("non-empty");
    let alpha = bonferroni_alpha(moments.len());
    let mut out = vec![best];
    for (i, m) in moments.iter().enumerate() {
        if i == best {
            continue;
        }
        let significant = match welch_t_test_moments(*m, moments[best]) {
            Some(r) => r.p_value < alpha,
            None => false,
        };
        if !significant {
            out.push(i);
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welch_detects_clear_difference() {
        let a = [1.0, 1.1, 0.9, 1.05, 0.95];
        let b = [5.0, 5.1, 4.9, 5.05, 4.95];
        let r = welch_t_test(&a, &b).unwrap();
        assert!(r.p_value < 1e-6, "p = {}", r.p_value);
        assert!(r.t < 0.0);
    }

    #[test]
    fn welch_accepts_identical_distributions() {
        let a = [1.0, 1.2, 0.8, 1.1, 0.9, 1.0];
        let b = [1.05, 1.15, 0.85, 1.0, 0.95, 1.0];
        let r = welch_t_test(&a, &b).unwrap();
        assert!(r.p_value > 0.05, "p = {}", r.p_value);
    }

    #[test]
    fn welch_reference_value() {
        // Hand-computable case: a = [1..5] (mean 3, var 2.5), b = 2·a
        // (mean 6, var 10). se² = 2.5/5 + 10/5 = 2.5 → t = −3/√2.5;
        // df = 2.5² / (0.5²/4 + 2²/4) = 6.25/1.0625 ≈ 5.882.
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [2.0, 4.0, 6.0, 8.0, 10.0];
        let r = welch_t_test(&a, &b).unwrap();
        assert!((r.t + 3.0 / 2.5_f64.sqrt()).abs() < 1e-9, "t = {}", r.t);
        assert!((r.df - 6.25 / 1.0625).abs() < 1e-9, "df = {}", r.df);
        assert!(r.p_value > 0.09 && r.p_value < 0.13, "p = {}", r.p_value);
    }

    #[test]
    fn zero_variance_cases() {
        let a = [2.0, 2.0, 2.0];
        let b = [2.0, 2.0, 2.0];
        let r = welch_t_test(&a, &b).unwrap();
        assert_eq!(r.p_value, 1.0);
        let c = [3.0, 3.0, 3.0];
        let r = welch_t_test(&a, &c).unwrap();
        assert_eq!(r.p_value, 0.0);
    }

    #[test]
    fn too_small_samples() {
        assert!(welch_t_test(&[1.0], &[2.0, 3.0]).is_none());
    }

    #[test]
    fn bonferroni() {
        assert!((bonferroni_alpha(11) - 0.005).abs() < 1e-12);
        assert!((bonferroni_alpha(2) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn competitive_set_includes_ties_excludes_losers() {
        // alg0 and alg1 statistically tied; alg2 clearly worse.
        let s0: Vec<f64> = (0..20).map(|i| 1.0 + 0.01 * (i % 5) as f64).collect();
        let s1: Vec<f64> = (0..20)
            .map(|i| 1.005 + 0.01 * ((i + 2) % 5) as f64)
            .collect();
        let s2: Vec<f64> = (0..20).map(|i| 9.0 + 0.01 * (i % 5) as f64).collect();
        let comp = competitive_set(&[s0, s1, s2]);
        assert!(comp.contains(&0));
        assert!(comp.contains(&1));
        assert!(!comp.contains(&2));
    }

    #[test]
    fn competitive_single_algorithm() {
        assert_eq!(competitive_set(&[vec![1.0, 2.0]]), vec![0]);
    }

    #[test]
    fn moments_path_matches_raw_samples_bit_exactly() {
        let samples: Vec<Vec<f64>> = (0..4)
            .map(|a| {
                (0..15)
                    .map(|i| 1.0 + a as f64 * 0.3 + 0.05 * ((i * 7 + a) % 5) as f64)
                    .collect()
            })
            .collect();
        // Same sufficient statistics → same t, df, p, same competitive set.
        let m: Vec<Moments> = samples
            .iter()
            .map(|s| Moments {
                n: s.len() as u64,
                mean: crate::describe::mean(s),
                variance: crate::describe::variance(s),
            })
            .collect();
        let raw = welch_t_test(&samples[0], &samples[1]).unwrap();
        let from_m = welch_t_test_moments(m[0], m[1]).unwrap();
        assert_eq!(raw, from_m);
        assert_eq!(competitive_set(&samples), competitive_set_moments(&m));
    }
}
