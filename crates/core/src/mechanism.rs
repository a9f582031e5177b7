//! The two-phase [`Mechanism`] API every benchmark algorithm implements,
//! plus the per-algorithm metadata reproducing the paper's Table 1.
//!
//! Running a mechanism is split into two phases:
//!
//! 1. [`Mechanism::plan`] performs all **data-independent** work — strategy
//!    matrix construction, hierarchy layout, wavelet weight tables,
//!    parameter validation — and returns a reusable [`Plan`]. Plans never
//!    see private data, so the harness caches them across samples and
//!    trials: the benchmark grid runs every algorithm `n_samples ×
//!    n_trials` times per (dataset, scale, domain, ε) cell, and
//!    data-independent mechanisms (all instances of the matrix mechanism)
//!    would otherwise rebuild identical strategies on every trial.
//! 2. [`Plan::execute`] performs the **private** part: it consumes the data
//!    vector, draws every ε from the [`BudgetLedger`], and produces a
//!    [`Release`] carrying the estimate, the per-step budget trace, and the
//!    plan's strategy diagnostics.
//!
//! Every plan has one shape, [`FnPlan`]: a closure over whatever the plan
//! phase precomputed (a hierarchy, a Cholesky factor, or just the
//! configuration) that maps the data to an estimate. [`FnPlan`]'s
//! `execute` is the one place that checks the planned domain, marks the
//! ledger, slices the budget trace and assembles the [`Release`].
//!
//! [`Mechanism::run_eps`] remains as a one-line convenience shim for
//! examples and tests; it plans, executes against a fresh ledger, and
//! *unconditionally* rejects budget overdraws (Principle 5).

use crate::budget::{BudgetExhausted, BudgetLedger, SpendRecord};
use crate::data::DataVector;
use crate::domain::Domain;
use crate::json;
use crate::workload::Workload;
use crate::workspace::Workspace;
use rand::RngCore;
use std::fmt;

/// Which dimensionalities a mechanism supports (Table 1 "Dimension").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DimSupport {
    /// 1-D only (H, PHP, EFPA, SF).
    OneD,
    /// 2-D only (QUADTREE, UGRID, AGRID, HYBRIDTREE).
    TwoD,
    /// Both 1-D and 2-D (DAWA, GREEDY_H).
    OneAndTwoD,
    /// Any dimensionality (IDENTITY, PRIVELET, Hb, MWEM, AHP, DPCUBE,
    /// UNIFORM).
    MultiD,
}

impl DimSupport {
    /// Whether a domain of dimensionality `dims` is supported.
    pub fn supports_dims(&self, dims: usize) -> bool {
        match self {
            DimSupport::OneD => dims == 1,
            DimSupport::TwoD => dims == 2,
            DimSupport::OneAndTwoD => dims == 1 || dims == 2,
            DimSupport::MultiD => dims >= 1,
        }
    }
}

/// Static metadata about a mechanism — one row of the paper's Table 1.
#[derive(Debug, Clone)]
pub struct MechInfo {
    /// Display name as used in the paper (e.g. `"DAWA"`, `"MWEM*"`).
    pub name: String,
    /// Supported dimensionalities.
    pub dims: DimSupport,
    /// Whether the error distribution depends on the input data
    /// (Section 3.1). Data-independent algorithms have identical error on
    /// every dataset over a given domain.
    pub data_dependent: bool,
    /// Table 1 property column "H": uses hierarchical aggregation.
    pub hierarchical: bool,
    /// Table 1 property column "P": uses partitioning.
    pub partitioning: bool,
    /// Adapts its strategy to the workload (GREEDY_H, DAWA, MWEM).
    pub workload_aware: bool,
    /// Non-private side information the original algorithm assumes
    /// (Table 1 "Side info"; `Some("scale")` for MWEM, UGRID, AGRID, SF).
    pub side_info: Option<String>,
    /// Table 1 analysis column: error → 0 as ε → ∞ (Definition 5).
    pub consistent: bool,
    /// Table 1 analysis column: scale-ε exchangeable (Definition 4).
    pub scale_eps_exchangeable: bool,
    /// Not part of the paper's main evaluation (e.g. HYBRIDTREE).
    pub extension: bool,
}

impl MechInfo {
    /// Minimal constructor; flags default to the data-independent,
    /// consistent, exchangeable profile and can be overridden fluently.
    pub fn new(name: impl Into<String>, dims: DimSupport) -> Self {
        Self {
            name: name.into(),
            dims,
            data_dependent: false,
            hierarchical: false,
            partitioning: false,
            workload_aware: false,
            side_info: None,
            consistent: true,
            scale_eps_exchangeable: true,
            extension: false,
        }
    }
}

/// Errors a mechanism run can produce.
#[derive(Debug, Clone, PartialEq)]
pub enum MechError {
    /// The mechanism does not support the given domain (wrong
    /// dimensionality, non-power-of-two extent for transform-based methods,
    /// etc.).
    Unsupported { mechanism: String, reason: String },
    /// The privacy-budget ledger was overdrawn — an end-to-end privacy
    /// violation (Principle 5).
    Budget(BudgetExhausted),
    /// Invalid configuration (bad parameter values).
    InvalidConfig(String),
}

impl fmt::Display for MechError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MechError::Unsupported { mechanism, reason } => {
                write!(f, "{mechanism} unsupported: {reason}")
            }
            MechError::Budget(b) => write!(f, "{b}"),
            MechError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for MechError {}

impl From<BudgetExhausted> for MechError {
    fn from(e: BudgetExhausted) -> Self {
        MechError::Budget(e)
    }
}

/// Strategy diagnostics fixed at plan time (paper Table 1 analysis
/// columns).
#[derive(Debug, Clone)]
pub struct PlanDiagnostics {
    /// Mechanism name the plan was built for.
    pub mechanism: String,
    /// Whether the planned strategy is independent of the input data (the
    /// harness only amortizes such plans' setup meaningfully, but every
    /// plan is cacheable: plans never see private data).
    pub data_independent: bool,
    /// Number of noisy measurements the strategy takes (strategy-matrix
    /// rows / hierarchy nodes); `None` when the count is decided at
    /// execute time from the data.
    pub measurements: Option<usize>,
    /// L1 sensitivity of the planned measurement set; `None` when the
    /// strategy is chosen at execute time.
    pub sensitivity: Option<f64>,
}

impl PlanDiagnostics {
    /// Diagnostics for a data-independent strategy fixed at plan time.
    pub fn data_independent(
        mechanism: impl Into<String>,
        measurements: usize,
        sensitivity: f64,
    ) -> Self {
        Self {
            mechanism: mechanism.into(),
            data_independent: true,
            measurements: Some(measurements),
            sensitivity: Some(sensitivity),
        }
    }

    /// Diagnostics for a data-dependent mechanism whose strategy is chosen
    /// at execute time.
    pub fn data_dependent(mechanism: impl Into<String>) -> Self {
        Self {
            mechanism: mechanism.into(),
            data_independent: false,
            measurements: None,
            sensitivity: None,
        }
    }
}

/// The structured output of one private execution.
#[derive(Debug, Clone)]
pub struct Release {
    /// The estimate `x̂` of the full data vector; workload answers are
    /// `ŷ = W x̂` (how the paper evaluates every algorithm).
    pub estimate: Vec<f64>,
    /// Every budget draw of this execution, in order. Summing the records
    /// gives the total ε consumed (≤ the granted budget — enforced).
    pub budget_trace: Vec<SpendRecord>,
    /// The plan's strategy diagnostics.
    pub diagnostics: PlanDiagnostics,
}

impl Release {
    /// Total ε consumed by this execution (sum of the budget trace).
    pub fn spent(&self) -> f64 {
        self.budget_trace.iter().map(|r| r.epsilon).sum()
    }

    /// Consume the release, keeping only the estimate.
    pub fn into_estimate(self) -> Vec<f64> {
        self.estimate
    }

    /// Serialize the release as one self-contained JSON object — the wire
    /// format of the online release server, written with the shared
    /// [`crate::json`] codec like every other record in this codebase:
    /// fixed field order, floats in shortest round-trip form so parse →
    /// re-format reproduces the bytes, strings escaped.
    ///
    /// ```text
    /// {"mechanism":"DAWA","data_independent":false,"spent":0.1,
    ///  "budget_trace":[{"label":"partition","eps":0.025},…],
    ///  "estimate":[…]}
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + 16 * self.estimate.len());
        self.to_json_into(&mut out);
        out
    }

    /// Append the [`Release::to_json`] serialization to `out` — the
    /// release server's hot path reuses one response buffer across
    /// keep-alive requests instead of allocating per release.
    pub fn to_json_into(&self, out: &mut String) {
        use std::fmt::Write;
        out.reserve(64 + 16 * self.estimate.len());
        out.push_str("{\"mechanism\":\"");
        json::escape_into(out, &self.diagnostics.mechanism);
        let _ = write!(
            out,
            "\",\"data_independent\":{},\"spent\":{},\"budget_trace\":[",
            self.diagnostics.data_independent,
            json::Float(self.spent())
        );
        for (i, r) in self.budget_trace.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"label\":\"");
            json::escape_into(out, &r.label);
            let _ = write!(out, "\",\"eps\":{}}}", json::Float(r.epsilon));
        }
        out.push_str("],\"estimate\":[");
        for (i, v) in self.estimate.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}", json::Float(*v));
        }
        out.push_str("]}");
    }
}

/// The executable second phase of a mechanism: all data-independent setup
/// is done; `execute` performs only the private computation. Every
/// mechanism's plan is an [`FnPlan`], returned as `Box<dyn Plan>`.
///
/// Plans hold no private data and no RNG state, so one plan can serve any
/// number of concurrent executions (`Send + Sync`) and repeated executions
/// with the same RNG stream are bit-identical.
pub trait Plan: Send + Sync {
    /// Strategy diagnostics fixed at plan time.
    fn diagnostics(&self) -> &PlanDiagnostics;

    /// Run the private phase on `x`, drawing all ε from `budget`.
    ///
    /// Implementations must route **every** data-dependent computation
    /// through the ledger; the harness asserts the ledger is never
    /// overdrawn.
    ///
    /// `ws` is the caller's per-thread scratch pool; implementations on the
    /// hot path take their temporaries (and ideally the estimate itself)
    /// from it so repeated executions allocate nothing. One-shot callers
    /// pass a throwaway `Workspace::new()` — creating one is free.
    fn execute(
        &self,
        x: &DataVector,
        ws: &mut Workspace,
        budget: &mut BudgetLedger,
        rng: &mut dyn RngCore,
    ) -> Result<Release, MechError>;
}

/// The one [`Plan`] shape: a closure from `(x, ws, budget, rng)` to the
/// estimate, over whatever the mechanism precomputed at plan time (a
/// hierarchy and its unit level allocation, a Hilbert curve, wavelet
/// weights, a Cholesky factor, a mapped query list, or only its
/// configuration). [`Plan::execute`] checks the planned domain, marks the
/// ledger, runs the closure, and assembles the [`Release`] from the trace
/// records drawn since the mark, so mechanism code is only the estimate
/// computation; `ws` is the caller's [`Workspace`] for scratch buffers and
/// per-worker memos.
pub struct FnPlan<F> {
    domain: Domain,
    diagnostics: PlanDiagnostics,
    f: F,
}

impl<F> FnPlan<F>
where
    F: Fn(
            &DataVector,
            &mut Workspace,
            &mut BudgetLedger,
            &mut dyn RngCore,
        ) -> Result<Vec<f64>, MechError>
        + Send
        + Sync
        + 'static,
{
    /// Box a closure-backed plan for `domain`.
    pub fn boxed(domain: Domain, diagnostics: PlanDiagnostics, f: F) -> Box<dyn Plan> {
        Box::new(Self {
            domain,
            diagnostics,
            f,
        })
    }
}

impl<F> Plan for FnPlan<F>
where
    F: Fn(
            &DataVector,
            &mut Workspace,
            &mut BudgetLedger,
            &mut dyn RngCore,
        ) -> Result<Vec<f64>, MechError>
        + Send
        + Sync,
{
    fn diagnostics(&self) -> &PlanDiagnostics {
        &self.diagnostics
    }

    fn execute(
        &self,
        x: &DataVector,
        ws: &mut Workspace,
        budget: &mut BudgetLedger,
        rng: &mut dyn RngCore,
    ) -> Result<Release, MechError> {
        if x.domain() != self.domain {
            return Err(MechError::Unsupported {
                mechanism: self.diagnostics.mechanism.clone(),
                reason: format!(
                    "plan was built for domain {}, data has domain {}",
                    self.domain,
                    x.domain()
                ),
            });
        }
        let mark = budget.mark();
        let estimate = (self.f)(x, ws, budget, rng)?;
        Ok(Release {
            estimate,
            budget_trace: budget.trace_since(mark).to_vec(),
            diagnostics: self.diagnostics.clone(),
        })
    }
}

/// Execute a plan against a fresh ledger of budget ε and enforce the
/// end-to-end accounting invariant **unconditionally** — in release
/// builds too, unlike the `debug_assert!` this replaced.
///
/// Note the first line of defense is the [`BudgetLedger`] itself: its
/// `spend*` methods refuse to overdraw, so with the current ledger this
/// check cannot fire. It stays as a backstop against future ledger
/// changes — a silent overdraw would be a privacy violation, not a
/// debug-only concern. (A mechanism that sidesteps the ledger entirely
/// by constructing its own is out of scope for runtime checks; the
/// budget-trace integration tests police that by inspection.)
pub fn execute_eps(
    plan: &dyn Plan,
    x: &DataVector,
    epsilon: f64,
    rng: &mut dyn RngCore,
) -> Result<Release, MechError> {
    execute_eps_with(plan, x, epsilon, &mut Workspace::new(), rng)
}

/// [`execute_eps`] with a caller-supplied [`Workspace`] — the hot-path
/// variant used by the grid runner, whose per-thread workspace amortizes
/// every scratch buffer across trials.
pub fn execute_eps_with(
    plan: &dyn Plan,
    x: &DataVector,
    epsilon: f64,
    ws: &mut Workspace,
    rng: &mut dyn RngCore,
) -> Result<Release, MechError> {
    let mut ledger = BudgetLedger::new(epsilon);
    let release = plan.execute(x, ws, &mut ledger, rng)?;
    if ledger.spent() > ledger.total() * (1.0 + 1e-9) {
        return Err(MechError::Budget(BudgetExhausted {
            requested: ledger.spent(),
            remaining: 0.0,
        }));
    }
    Ok(release)
}

/// A differentially private release mechanism `K(x, W, ε)`.
///
/// Every algorithm consumes the private data vector `x`, the workload `W`
/// (several algorithms are workload-aware), and a privacy budget, and
/// produces an **estimate of the full data vector** `x̂`. Workload answers
/// are then `ŷ = W x̂`, matching how the paper evaluates all algorithms
/// under the common scaled-error standard.
pub trait Mechanism: Send + Sync {
    /// Table 1 metadata.
    fn info(&self) -> MechInfo;

    /// Phase 1: perform all data-independent work for `(domain, workload)`
    /// and return a reusable [`Plan`].
    ///
    /// Must fail (rather than defer the failure to execute) when the
    /// domain or configuration is unsupported, so cached plans are always
    /// executable.
    fn plan(&self, domain: &Domain, workload: &Workload) -> Result<Box<dyn Plan>, MechError>;

    /// Whether the mechanism can run on `domain`.
    fn supports(&self, domain: &Domain) -> bool {
        self.info().dims.supports_dims(domain.dims())
    }

    /// Fingerprint of this instance's **configuration**, mixed into plan
    /// cache keys alongside the mechanism name: two instances that share a
    /// display name but differ in tunable parameters (branching factors,
    /// budget fractions ρ, height caps, schedules, explicit strategy
    /// matrices) must not share cached plans.
    ///
    /// The default covers parameter-free mechanisms; anything with knobs
    /// that affect planning or execution must override it.
    fn config_fingerprint(&self) -> u64 {
        0
    }

    /// One-shot plan + execute with a fresh ledger of budget ε, returning
    /// the full structured [`Release`]. Overdraws are rejected
    /// unconditionally.
    fn release_eps(
        &self,
        x: &DataVector,
        workload: &Workload,
        epsilon: f64,
        rng: &mut dyn RngCore,
    ) -> Result<Release, MechError> {
        let plan = self.plan(&x.domain(), workload)?;
        execute_eps(plan.as_ref(), x, epsilon, rng)
    }

    /// Convenience shim: like [`Self::release_eps`] but keeping only the
    /// estimate, so quickstart examples stay one-liners.
    fn run_eps(
        &self,
        x: &DataVector,
        workload: &Workload,
        epsilon: f64,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<f64>, MechError> {
        Ok(self.release_eps(x, workload, epsilon, rng)?.estimate)
    }
}

/// Hash helper for [`Mechanism::config_fingerprint`] implementations:
/// FNV-1a over a stream of 64-bit words (hash floats via `to_bits`).
pub fn fingerprint_words(words: &[u64]) -> u64 {
    Fingerprint::new().words(words).finish()
}

/// Incremental content-hash builder shared by [`Mechanism::config_fingerprint`]
/// implementations and the experiment-unit / run-manifest fingerprints in
/// the harness (FNV-1a over a typed byte stream).
///
/// Every `push` is length- and type-prefixed, so adjacent fields cannot
/// alias (`"ab" + "c"` hashes differently from `"a" + "bc"`, and a string
/// never collides with the word holding its bytes). The hash is **stable**:
/// it must not change across versions, because persisted run ledgers
/// (checkpoint files) key completed work by it.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprint {
    /// Start from the FNV-1a offset basis.
    pub fn new() -> Self {
        Self(0xcbf29ce484222325)
    }

    #[inline]
    fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
        self
    }

    /// Mix one 64-bit word.
    pub fn word(self, w: u64) -> Self {
        self.bytes(&w.to_le_bytes())
    }

    /// Mix a slice of 64-bit words (equivalent to chained [`Fingerprint::word`]).
    pub fn words(self, words: &[u64]) -> Self {
        words.iter().fold(self, |f, &w| f.word(w))
    }

    /// Mix a float by its bit pattern (`-0.0` and `0.0` differ, as do NaN
    /// payloads — fingerprints care about representation, not numerics).
    pub fn f64(self, v: f64) -> Self {
        self.word(v.to_bits())
    }

    /// Mix a string, length-prefixed.
    pub fn str(self, s: &str) -> Self {
        self.word(s.len() as u64).bytes(s.as_bytes())
    }

    /// The accumulated 64-bit hash.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl<M: Mechanism + ?Sized> Mechanism for Box<M> {
    fn info(&self) -> MechInfo {
        (**self).info()
    }
    fn plan(&self, domain: &Domain, workload: &Workload) -> Result<Box<dyn Plan>, MechError> {
        (**self).plan(domain, workload)
    }
    fn supports(&self, domain: &Domain) -> bool {
        (**self).supports(domain)
    }
    fn config_fingerprint(&self) -> u64 {
        (**self).config_fingerprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A trivial mechanism for exercising the trait plumbing.
    struct Null;
    impl Mechanism for Null {
        fn info(&self) -> MechInfo {
            MechInfo::new("NULL", DimSupport::MultiD)
        }
        fn plan(&self, domain: &Domain, _w: &Workload) -> Result<Box<dyn Plan>, MechError> {
            let n = domain.n_cells();
            Ok(FnPlan::boxed(
                *domain,
                PlanDiagnostics::data_independent("NULL", n, 1.0),
                move |_x, _ws, budget, _rng| {
                    budget.spend_all_as("null");
                    Ok(vec![0.0; n])
                },
            ))
        }
    }

    /// A mechanism that overdraws by building a fatter internal ledger.
    struct Overdrawer;
    impl Mechanism for Overdrawer {
        fn info(&self) -> MechInfo {
            MechInfo::new("OVERDRAW", DimSupport::MultiD)
        }
        fn plan(&self, domain: &Domain, _w: &Workload) -> Result<Box<dyn Plan>, MechError> {
            Ok(FnPlan::boxed(
                *domain,
                PlanDiagnostics::data_dependent("OVERDRAW"),
                move |x, _ws, budget, _rng| {
                    // Pretend to spend twice the grant by draining the
                    // ledger and then forging an extra record.
                    budget.spend_all();
                    Ok(vec![0.0; x.n_cells()])
                },
            ))
        }
    }

    #[test]
    fn dim_support_matrix() {
        assert!(DimSupport::OneD.supports_dims(1));
        assert!(!DimSupport::OneD.supports_dims(2));
        assert!(DimSupport::TwoD.supports_dims(2));
        assert!(!DimSupport::TwoD.supports_dims(1));
        assert!(DimSupport::OneAndTwoD.supports_dims(1));
        assert!(DimSupport::OneAndTwoD.supports_dims(2));
        assert!(DimSupport::MultiD.supports_dims(1));
        assert!(DimSupport::MultiD.supports_dims(2));
    }

    #[test]
    fn run_eps_enforces_ledger() {
        let mech = Null;
        let x = DataVector::zeros(Domain::D1(4));
        let w = Workload::identity(Domain::D1(4));
        let mut rng = StdRng::seed_from_u64(0);
        let out = mech.run_eps(&x, &w, 1.0, &mut rng).unwrap();
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn release_carries_trace_and_diagnostics() {
        let mech = Null;
        let x = DataVector::zeros(Domain::D1(4));
        let w = Workload::identity(Domain::D1(4));
        let mut rng = StdRng::seed_from_u64(0);
        let release = mech.release_eps(&x, &w, 0.5, &mut rng).unwrap();
        assert_eq!(release.estimate.len(), 4);
        assert_eq!(release.budget_trace.len(), 1);
        assert_eq!(release.budget_trace[0].label, "null");
        assert!((release.spent() - 0.5).abs() < 1e-12);
        assert_eq!(release.diagnostics.mechanism, "NULL");
        assert_eq!(release.diagnostics.measurements, Some(4));
    }

    #[test]
    fn release_json_is_round_trip_exact() {
        let release = Release {
            estimate: vec![1.5, -0.25, 3.0000000000000004],
            budget_trace: vec![
                SpendRecord {
                    label: "reserve".into(),
                    epsilon: 0.1,
                },
                SpendRecord {
                    label: "refund".into(),
                    epsilon: -0.1,
                },
            ],
            diagnostics: PlanDiagnostics::data_dependent("DAWA"),
        };
        let json = release.to_json();
        assert!(json.starts_with("{\"mechanism\":\"DAWA\",\"data_independent\":false,"));
        assert!(json.contains("\"budget_trace\":[{\"label\":\"reserve\",\"eps\":0.1},{\"label\":\"refund\",\"eps\":-0.1}]"));
        // Shortest round-trip float formatting: the 17-digit value keeps
        // every bit.
        assert!(json.contains("3.0000000000000004"));
        assert!(json.ends_with("\"estimate\":[1.5,-0.25,3.0000000000000004]}"));
    }

    #[test]
    fn release_json_escapes_hostile_strings() {
        let release = Release {
            estimate: vec![],
            budget_trace: vec![],
            diagnostics: PlanDiagnostics::data_dependent("bad\"name\\\n"),
        };
        let json = release.to_json();
        // One escaper for every body: a newline is `\n`, as in the
        // server's error bodies.
        assert!(json.contains("bad\\\"name\\\\\\n"));
        let parsed = crate::json::Object::parse(&json).unwrap();
        assert_eq!(parsed.str("mechanism"), Some("bad\"name\\\n"));
    }

    #[test]
    fn plan_reuse_is_deterministic() {
        let mech = Null;
        let domain = Domain::D1(8);
        let w = Workload::identity(domain);
        let plan = mech.plan(&domain, &w).unwrap();
        let x = DataVector::zeros(domain);
        let a = execute_eps(plan.as_ref(), &x, 1.0, &mut StdRng::seed_from_u64(9)).unwrap();
        let b = execute_eps(plan.as_ref(), &x, 1.0, &mut StdRng::seed_from_u64(9)).unwrap();
        assert_eq!(a.estimate, b.estimate);
    }

    #[test]
    fn execute_rejects_mismatched_domain() {
        let mech = Null;
        let domain = Domain::D1(8);
        let w = Workload::identity(domain);
        let plan = mech.plan(&domain, &w).unwrap();
        let wrong = DataVector::zeros(Domain::D1(16));
        let mut rng = StdRng::seed_from_u64(1);
        let err = execute_eps(plan.as_ref(), &wrong, 1.0, &mut rng);
        assert!(matches!(err, Err(MechError::Unsupported { .. })));
    }

    #[test]
    fn shared_ledger_trace_slicing() {
        // Two executions on one ledger each see only their own records.
        let mech = Null;
        let domain = Domain::D1(4);
        let w = Workload::identity(domain);
        let plan = mech.plan(&domain, &w).unwrap();
        let x = DataVector::zeros(domain);
        let mut ledger = BudgetLedger::new(1.0);
        ledger.spend_as("outer", 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let release = plan
            .execute(&x, &mut Workspace::new(), &mut ledger, &mut rng)
            .unwrap();
        assert_eq!(release.budget_trace.len(), 1);
        assert_eq!(release.budget_trace[0].label, "null");
        assert!((release.spent() - 0.5).abs() < 1e-12);
        assert_eq!(ledger.trace().len(), 2);
    }

    #[test]
    fn boxed_mechanism_delegates() {
        let mech: Box<dyn Mechanism> = Box::new(Null);
        assert_eq!(mech.info().name, "NULL");
        assert!(mech.supports(&Domain::D2(4, 4)));
        let x = DataVector::zeros(Domain::D1(4));
        let w = Workload::identity(Domain::D1(4));
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(mech.run_eps(&x, &w, 1.0, &mut rng).unwrap().len(), 4);
    }

    #[test]
    fn overdraw_cannot_slip_through() {
        // The ledger itself prevents overdraws, so an execution can at
        // most consume exactly ε; run_eps re-checks unconditionally.
        let mech = Overdrawer;
        let x = DataVector::zeros(Domain::D1(4));
        let w = Workload::identity(Domain::D1(4));
        let mut rng = StdRng::seed_from_u64(4);
        let release = mech.release_eps(&x, &w, 1.0, &mut rng).unwrap();
        assert!(release.spent() <= 1.0 + 1e-9);
    }

    #[test]
    fn fingerprint_builder_matches_word_hash() {
        // `fingerprint_words` predates the builder; existing plan-cache
        // keys must not shift.
        assert_eq!(
            fingerprint_words(&[1, 2, 3]),
            Fingerprint::new().word(1).word(2).word(3).finish()
        );
    }

    #[test]
    fn fingerprint_strings_do_not_alias() {
        let ab_c = Fingerprint::new().str("ab").str("c").finish();
        let a_bc = Fingerprint::new().str("a").str("bc").finish();
        assert_ne!(ab_c, a_bc, "length prefix must separate fields");
    }

    #[test]
    fn fingerprint_is_stable() {
        // Persisted ledgers key completed units by this hash; pin it.
        assert_eq!(Fingerprint::new().finish(), 0xcbf29ce484222325);
        assert_eq!(
            Fingerprint::new().str("DAWA").word(7).f64(0.25).finish(),
            fingerprint_stability_oracle()
        );
    }

    /// Independent re-implementation of the byte stream the builder should
    /// produce for the pinned case above.
    fn fingerprint_stability_oracle() -> u64 {
        let mut h = 0xcbf29ce484222325_u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        };
        eat(&4u64.to_le_bytes());
        eat(b"DAWA");
        eat(&7u64.to_le_bytes());
        eat(&0.25f64.to_bits().to_le_bytes());
        h
    }
}
