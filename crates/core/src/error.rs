//! The benchmark's error standard `E_M` (paper Section 5.3).
//!
//! Definition 3 (*scaled average per-query error*): for a workload `W` of
//! `q` queries over a data vector `x` with scale `s = ‖x‖₁`, and a noisy
//! output `ŷ`, the error is `L(ŷ, Wx) / (s·q)`.
//!
//! Scaling by `s` makes errors comparable across dataset scales (an absolute
//! error of 100 means something very different at scale 10³ vs 10⁸) and is
//! what gives the *scale-ε exchangeability* property its clean form.

/// The loss function `L` comparing true and noisy workload answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loss {
    /// Sum of absolute differences.
    L1,
    /// Euclidean norm of the difference (the paper's default).
    L2,
    /// Maximum absolute difference.
    LInf,
}

impl Loss {
    /// Evaluate the loss between two equal-length answer vectors.
    pub fn eval(&self, y_true: &[f64], y_hat: &[f64]) -> f64 {
        assert_eq!(
            y_true.len(),
            y_hat.len(),
            "answer vectors must have equal length"
        );
        self.reduce(y_true.iter().copied().zip(y_hat.iter().copied()))
    }

    /// The loss over `(true, estimate)` answer pairs in query order: the
    /// one definition of each loss, behind [`Loss::eval`] and the fused
    /// scorer [`Workload::scaled_error`](crate::Workload::scaled_error),
    /// which feeds each answer in as it computes it.
    pub(crate) fn reduce(&self, pairs: impl Iterator<Item = (f64, f64)>) -> f64 {
        match self {
            Loss::L1 => pairs.map(|(a, b)| (a - b).abs()).sum(),
            Loss::L2 => pairs.map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt(),
            Loss::LInf => pairs.map(|(a, b)| (a - b).abs()).fold(0.0, f64::max),
        }
    }
}

/// Definition 3: scaled average per-query error `L(ŷ, y) / (s·q)`.
///
/// `scale` is the dataset scale `s = ‖x‖₁`; a scale of zero is clamped to 1
/// so the metric stays finite on degenerate inputs.
pub fn scaled_per_query_error(y_true: &[f64], y_hat: &[f64], scale: f64, loss: Loss) -> f64 {
    per_query(loss.eval(y_true, y_hat), scale, y_true.len())
}

/// A workload's total loss over its `q` queries, divided by `s·q`
/// (Definition 3, with the clamps of [`scaled_per_query_error`]).
pub(crate) fn per_query(loss: f64, scale: f64, q: usize) -> f64 {
    let q = q.max(1) as f64;
    let s = if scale > 0.0 { scale } else { 1.0 };
    loss / (s * q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_l2_linf() {
        let a = [1.0, 2.0, 3.0];
        let b = [2.0, 0.0, 3.0];
        assert_eq!(Loss::L1.eval(&a, &b), 3.0);
        assert!((Loss::L2.eval(&a, &b) - 5.0_f64.sqrt()).abs() < 1e-12);
        assert_eq!(Loss::LInf.eval(&a, &b), 2.0);
    }

    #[test]
    fn zero_error_on_identical() {
        let a = [5.0, -1.0];
        for loss in [Loss::L1, Loss::L2, Loss::LInf] {
            assert_eq!(loss.eval(&a, &a), 0.0);
        }
    }

    #[test]
    fn scaled_error_definition() {
        // One query, scale 1000, absolute error 100 → scaled error 0.1
        // (the paper's own motivating example in Section 5.3).
        let err = scaled_per_query_error(&[500.0], &[600.0], 1000.0, Loss::L2);
        assert!((err - 0.1).abs() < 1e-12);
        // Same absolute error at scale 100,000 → 0.001.
        let err = scaled_per_query_error(&[500.0], &[600.0], 100_000.0, Loss::L2);
        assert!((err - 0.001).abs() < 1e-12);
    }

    #[test]
    fn scaled_error_divides_by_query_count() {
        let y = [0.0, 0.0, 0.0, 0.0];
        let yh = [1.0, 1.0, 1.0, 1.0];
        // L1 = 4, q = 4, s = 2 → 0.5
        let err = scaled_per_query_error(&y, &yh, 2.0, Loss::L1);
        assert!((err - 0.5).abs() < 1e-12);
    }

    #[test]
    fn degenerate_scale_clamped() {
        let err = scaled_per_query_error(&[0.0], &[1.0], 0.0, Loss::L2);
        assert!(err.is_finite());
        assert!((err - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_rejected() {
        Loss::L2.eval(&[1.0], &[1.0, 2.0]);
    }
}
