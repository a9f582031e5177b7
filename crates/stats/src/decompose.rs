//! Bias² / variance decomposition of mechanism error (Finding 9 and
//! Principle 9: *measurement of bias*).
//!
//! For repeated runs of a mechanism on the same input, the expected squared
//! error of each query answer decomposes as
//! `E[(ŷ − y)²] = (E[ŷ] − y)² + Var[ŷ] = bias² + variance`.
//! Inconsistent mechanisms (MWEM, PHP, UNIFORM, QUADTREE on large domains)
//! retain a bias term that does *not* vanish as ε or scale grow — the paper
//! shows their large-scale error is dominated by bias.

/// Per-workload decomposition of mean squared error into bias² and
/// variance components, averaged over queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorDecomposition {
    /// Average over queries of `(E[ŷ_q] − y_q)²`.
    pub bias_sq: f64,
    /// Average over queries of `Var[ŷ_q]`.
    pub variance: f64,
}

impl ErrorDecomposition {
    /// Decompose from repeated answer vectors.
    ///
    /// `y_true` has length `q`; `trials` is a list of `q`-length noisy
    /// answer vectors from independent runs on the same input.
    pub fn from_trials(y_true: &[f64], trials: &[Vec<f64>]) -> Self {
        assert!(!trials.is_empty(), "need at least one trial");
        let q = y_true.len();
        for t in trials {
            assert_eq!(t.len(), q, "trial length mismatch");
        }
        let n = trials.len() as f64;
        let mut bias_sq = 0.0;
        let mut variance = 0.0;
        for qi in 0..q {
            let mean: f64 = trials.iter().map(|t| t[qi]).sum::<f64>() / n;
            let var: f64 = if trials.len() > 1 {
                trials
                    .iter()
                    .map(|t| (t[qi] - mean) * (t[qi] - mean))
                    .sum::<f64>()
                    / (n - 1.0)
            } else {
                0.0
            };
            let b = mean - y_true[qi];
            bias_sq += b * b;
            variance += var;
        }
        Self {
            bias_sq: bias_sq / q as f64,
            variance: variance / q as f64,
        }
    }

    /// Total mean squared error (bias² + variance).
    pub fn mse(&self) -> f64 {
        self.bias_sq + self.variance
    }

    /// Fraction of the MSE attributable to bias (0 when MSE is 0).
    pub fn bias_fraction(&self) -> f64 {
        let mse = self.mse();
        if mse == 0.0 {
            0.0
        } else {
            self.bias_sq / mse
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_bias() {
        // Every trial answers y + 3 exactly: variance 0, bias² 9.
        let y = vec![1.0, 2.0];
        let trials = vec![vec![4.0, 5.0], vec![4.0, 5.0], vec![4.0, 5.0]];
        let d = ErrorDecomposition::from_trials(&y, &trials);
        assert!((d.bias_sq - 9.0).abs() < 1e-12);
        assert!(d.variance.abs() < 1e-12);
        assert!((d.bias_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pure_variance() {
        // Trials symmetric around the truth: bias 0.
        let y = vec![10.0];
        let trials = vec![vec![9.0], vec![11.0], vec![8.0], vec![12.0]];
        let d = ErrorDecomposition::from_trials(&y, &trials);
        assert!(d.bias_sq.abs() < 1e-12);
        assert!(d.variance > 0.0);
        assert_eq!(d.bias_fraction(), 0.0);
    }

    #[test]
    fn mixed_case_sums_to_mse() {
        let y = vec![0.0, 0.0, 0.0];
        let trials = vec![
            vec![1.0, 2.0, -1.0],
            vec![3.0, 2.5, 1.0],
            vec![2.0, 1.5, 0.0],
        ];
        let d = ErrorDecomposition::from_trials(&y, &trials);
        assert!(d.bias_sq > 0.0 && d.variance > 0.0);
        assert!((d.mse() - (d.bias_sq + d.variance)).abs() < 1e-12);
        assert!(d.bias_fraction() > 0.0 && d.bias_fraction() < 1.0);
    }

    #[test]
    fn single_trial_gives_zero_variance() {
        let d = ErrorDecomposition::from_trials(&[1.0], &[vec![2.0]]);
        assert_eq!(d.variance, 0.0);
        assert!((d.bias_sq - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn empty_trials_panic() {
        ErrorDecomposition::from_trials(&[1.0], &[]);
    }
}
