//! Runtime privacy-budget accounting.
//!
//! The paper's Principles 5–7 require that *every* computation touching the
//! private data be charged against the privacy budget ε (sequential
//! composition, McSherry 2009). [`BudgetLedger`] makes that accounting
//! explicit: mechanisms draw portions of ε from a ledger and the ledger
//! refuses to overdraw. Integration tests assert that every mechanism's
//! total spend never exceeds its grant — turning the paper's *end-to-end
//! privacy* principle into an executable invariant.
//!
//! Every draw is additionally recorded as a [`SpendRecord`], so a
//! [`Release`](crate::mechanism::Release) can carry the full per-step
//! budget trace of the execution that produced it (the paper's Table 1 /
//! Principle 5 analysis inspects exactly this decomposition).

use std::fmt;

/// Error raised when a mechanism tries to spend more privacy budget than it
/// was granted.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetExhausted {
    /// Amount the caller attempted to spend.
    pub requested: f64,
    /// Budget remaining at the time of the attempt.
    pub remaining: f64,
}

impl fmt::Display for BudgetExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "privacy budget exhausted: requested ε={}, remaining ε={}",
            self.requested, self.remaining
        )
    }
}

impl std::error::Error for BudgetExhausted {}

/// One recorded budget draw: what it was for and how much ε it consumed.
#[derive(Debug, Clone, PartialEq)]
pub struct SpendRecord {
    /// Short label describing the step (e.g. `"measure"`, `"remainder"`,
    /// `"scale-estimate"`).
    pub label: String,
    /// Absolute ε consumed by the step.
    pub epsilon: f64,
}

/// Opaque position in a ledger's spend trace, produced by
/// [`BudgetLedger::mark`] and consumed by [`BudgetLedger::trace_since`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceMark(usize);

/// Tracks ε spending under sequential composition.
///
/// A tiny relative slack (`1e-9`) absorbs floating-point accumulation when a
/// budget is split into many parts (e.g. per-level allocations in
/// hierarchical mechanisms) that should sum exactly to ε.
#[derive(Debug, Clone)]
pub struct BudgetLedger {
    total: f64,
    spent: f64,
    trace: Vec<SpendRecord>,
}

impl BudgetLedger {
    /// Create a ledger with total budget ε (must be positive and finite).
    pub fn new(epsilon: f64) -> Self {
        assert!(
            epsilon.is_finite() && epsilon > 0.0,
            "privacy budget must be positive and finite, got {epsilon}"
        );
        Self {
            total: epsilon,
            spent: 0.0,
            trace: Vec::new(),
        }
    }

    /// Total granted budget.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Budget spent so far.
    pub fn spent(&self) -> f64 {
        self.spent
    }

    /// Budget still available.
    pub fn remaining(&self) -> f64 {
        (self.total - self.spent).max(0.0)
    }

    /// The full spend trace, in draw order.
    pub fn trace(&self) -> &[SpendRecord] {
        &self.trace
    }

    /// Mark the current trace position; pair with [`Self::trace_since`] to
    /// slice out the records of one mechanism execution on a shared ledger.
    pub fn mark(&self) -> TraceMark {
        TraceMark(self.trace.len())
    }

    /// The spend records added after `mark`.
    pub fn trace_since(&self, mark: TraceMark) -> &[SpendRecord] {
        &self.trace[mark.0..]
    }

    /// Spend `eps` of the budget, failing if it would overdraw.
    pub fn spend(&mut self, eps: f64) -> Result<f64, BudgetExhausted> {
        self.spend_as("spend", eps)
    }

    /// [`Self::spend`] with a descriptive label recorded in the trace.
    pub fn spend_as(&mut self, label: &str, eps: f64) -> Result<f64, BudgetExhausted> {
        assert!(eps.is_finite() && eps >= 0.0, "spend must be non-negative");
        let slack = self.total * 1e-9;
        if self.spent + eps > self.total + slack {
            return Err(BudgetExhausted {
                requested: eps,
                remaining: self.remaining(),
            });
        }
        self.spent += eps;
        self.trace.push(SpendRecord {
            label: label.to_string(),
            epsilon: eps,
        });
        Ok(eps)
    }

    /// Spend a fraction `rho ∈ [0, 1]` of the *total* budget; returns the
    /// absolute ε spent. This is the paper's `ρ` convention for two-stage
    /// algorithms (ε₁ = ρ·ε, ε₂ = (1−ρ)·ε).
    pub fn spend_fraction(&mut self, rho: f64) -> Result<f64, BudgetExhausted> {
        self.spend_fraction_as("fraction", rho)
    }

    /// [`Self::spend_fraction`] with a descriptive label.
    pub fn spend_fraction_as(&mut self, label: &str, rho: f64) -> Result<f64, BudgetExhausted> {
        assert!((0.0..=1.0).contains(&rho), "fraction must be in [0,1]");
        self.spend_as(label, self.total * rho)
    }

    /// Spend everything that remains; returns the absolute ε spent.
    pub fn spend_all(&mut self) -> f64 {
        self.spend_all_as("remainder")
    }

    /// [`Self::spend_all`] with a descriptive label.
    pub fn spend_all_as(&mut self, label: &str) -> f64 {
        let rest = self.remaining();
        self.spent = self.total;
        self.trace.push(SpendRecord {
            label: label.to_string(),
            epsilon: rest,
        });
        rest
    }

    /// Atomically check-and-reserve `eps` ahead of an execution — the
    /// admission-control entry point of online serving. Semantically a
    /// [`Self::spend_as`] under the label `"reserve"`: the ε is committed
    /// the moment the reservation succeeds (a crashed caller has *spent*
    /// its reservation — never the other way around), and a caller whose
    /// execution then fails returns it via [`Self::refund_as`].
    pub fn reserve(&mut self, eps: f64) -> Result<f64, BudgetExhausted> {
        self.spend_as("reserve", eps)
    }

    /// Return `eps` of previously spent budget — the compensation for a
    /// reservation whose execution failed before touching private data.
    ///
    /// Recorded in the trace as a **negative** ε so the trace still sums
    /// to the ledger's spent total. Refunding more than was spent is a
    /// caller bug (asserted): a refund never creates budget.
    pub fn refund_as(&mut self, label: &str, eps: f64) {
        assert!(
            eps.is_finite() && eps >= 0.0,
            "refund must be non-negative, got {eps}"
        );
        assert!(
            eps <= self.spent + self.total * 1e-9,
            "refund ε={eps} exceeds spent ε={}",
            self.spent
        );
        self.spent = (self.spent - eps).max(0.0);
        self.trace.push(SpendRecord {
            label: label.to_string(),
            epsilon: -eps,
        });
    }

    /// [`Self::refund_as`] under the label `"refund"`.
    pub fn refund(&mut self, eps: f64) {
        self.refund_as("refund", eps)
    }

    /// Adjust the total grant in place — the online tenant hot-reload
    /// primitive. Growing (or shrinking while still above the recorded
    /// spend) keeps `spent` untouched; shrinking **below** the recorded
    /// spend clamps `spent` down to the new total, which is exactly the
    /// state a journal replay against the new grant reproduces (replay's
    /// failing reserve clamps to fully exhausted the same way). The clamp
    /// is recorded in the trace so the trace still sums to `spent`.
    pub fn adjust_total(&mut self, total: f64) {
        assert!(
            total.is_finite() && total > 0.0,
            "privacy budget must be positive and finite, got {total}"
        );
        self.total = total;
        if self.spent > total {
            let excess = self.spent - total;
            self.spent = total;
            self.trace.push(SpendRecord {
                label: "reload-clamp".to_string(),
                epsilon: -excess,
            });
        }
    }

    /// Split off a sub-ledger carrying `eps` of this ledger's budget
    /// (useful when delegating to a sub-mechanism such as DAWA's GREEDY_H
    /// second stage).
    pub fn split(&mut self, eps: f64) -> Result<BudgetLedger, BudgetExhausted> {
        self.spend_as("split", eps)?;
        Ok(BudgetLedger::new(eps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spend_within_budget() {
        let mut l = BudgetLedger::new(1.0);
        assert!(l.spend(0.4).is_ok());
        assert!(l.spend(0.6).is_ok());
        assert!(l.remaining() < 1e-12);
    }

    #[test]
    fn overspend_rejected() {
        let mut l = BudgetLedger::new(0.5);
        l.spend(0.3).unwrap();
        let err = l.spend(0.3).unwrap_err();
        assert!((err.remaining - 0.2).abs() < 1e-12);
    }

    #[test]
    fn fractional_spend() {
        let mut l = BudgetLedger::new(2.0);
        assert_eq!(l.spend_fraction(0.25).unwrap(), 0.5);
        assert!((l.remaining() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn many_small_spends_tolerate_fp_noise() {
        let mut l = BudgetLedger::new(1.0);
        // 1/3 three times does not sum to exactly 1.0 in floating point.
        for _ in 0..3 {
            l.spend(1.0 / 3.0).unwrap();
        }
        assert!(l.remaining() < 1e-9);
    }

    #[test]
    fn split_delegates_budget() {
        let mut l = BudgetLedger::new(1.0);
        let sub = l.split(0.25).unwrap();
        assert_eq!(sub.total(), 0.25);
        assert!((l.remaining() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn spend_all_drains() {
        let mut l = BudgetLedger::new(0.7);
        l.spend(0.2).unwrap();
        let rest = l.spend_all();
        assert!((rest - 0.5).abs() < 1e-12);
        assert_eq!(l.remaining(), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_budget_rejected() {
        BudgetLedger::new(0.0);
    }

    #[test]
    fn trace_records_every_draw() {
        let mut l = BudgetLedger::new(1.0);
        l.spend_fraction_as("structure", 0.25).unwrap();
        l.spend_as("measure", 0.5).unwrap();
        l.spend_all_as("cleanup");
        let trace = l.trace();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[0].label, "structure");
        assert!((trace[0].epsilon - 0.25).abs() < 1e-12);
        assert_eq!(trace[1].label, "measure");
        assert_eq!(trace[2].label, "cleanup");
        let total: f64 = trace.iter().map(|r| r.epsilon).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn trace_marks_slice_one_execution() {
        let mut l = BudgetLedger::new(1.0);
        l.spend_as("first", 0.2).unwrap();
        let mark = l.mark();
        l.spend_as("second", 0.3).unwrap();
        l.spend_as("third", 0.1).unwrap();
        let since = l.trace_since(mark);
        assert_eq!(since.len(), 2);
        assert_eq!(since[0].label, "second");
        assert_eq!(since[1].label, "third");
    }

    #[test]
    fn reserve_then_refund_replays_bit_exactly() {
        let mut l = BudgetLedger::new(1.0);
        l.spend_as("earlier", 0.3).unwrap();
        let before = l.spent();
        l.reserve(0.25).unwrap();
        l.refund(0.25);
        // Floating point does not promise (x + e) - e == x (one ulp of
        // drift is allowed here); what the journal relies on is that
        // replaying the identical op sequence lands on the identical bits.
        assert!((l.spent() - before).abs() <= f64::EPSILON);
        let mut replay = BudgetLedger::new(1.0);
        for rec in l.trace() {
            if rec.epsilon >= 0.0 {
                replay.spend_as(&rec.label, rec.epsilon).unwrap();
            } else {
                replay.refund_as(&rec.label, -rec.epsilon);
            }
        }
        assert_eq!(replay.spent().to_bits(), l.spent().to_bits());
        assert_eq!(l.trace().len(), 3);
        assert_eq!(l.trace()[1].label, "reserve");
        assert_eq!(l.trace()[2].label, "refund");
        assert_eq!(l.trace()[2].epsilon, -0.25);
    }

    #[test]
    fn reserve_refuses_overdraw_like_spend() {
        let mut l = BudgetLedger::new(0.5);
        l.reserve(0.4).unwrap();
        let err = l.reserve(0.2).unwrap_err();
        assert!((err.remaining - 0.1).abs() < 1e-12);
        // The failed reservation left no record and no spend.
        assert_eq!(l.trace().len(), 1);
        assert!((l.spent() - 0.4).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "exceeds spent")]
    fn refund_cannot_create_budget() {
        let mut l = BudgetLedger::new(1.0);
        l.spend(0.1).unwrap();
        l.refund(0.2);
    }

    #[test]
    fn adjust_total_grows_and_clamps_like_replay() {
        let mut l = BudgetLedger::new(1.0);
        l.spend(0.8).unwrap();
        // Growing keeps the spend and re-opens headroom.
        l.adjust_total(2.0);
        assert_eq!(l.spent(), 0.8);
        assert!((l.remaining() - 1.2).abs() < 1e-12);
        // Shrinking below the spend clamps to exhausted — bit-identical
        // to what replaying the journal against the new grant produces.
        l.adjust_total(0.5);
        assert_eq!(l.spent().to_bits(), 0.5_f64.to_bits());
        assert_eq!(l.remaining(), 0.0);
        assert!(l.reserve(0.01).is_err());
        // The trace still sums to the ledger's spent total.
        let sum: f64 = l.trace().iter().map(|r| r.epsilon).sum();
        assert!((sum - l.spent()).abs() < 1e-12);
    }

    #[test]
    fn failed_spend_leaves_no_record() {
        let mut l = BudgetLedger::new(0.5);
        assert!(l.spend(0.9).is_err());
        assert!(l.trace().is_empty());
        assert_eq!(l.spent(), 0.0);
    }
}
