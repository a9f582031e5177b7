//! Competitive-set analysis (paper Section 5.3, Tables 3a/3b).
//!
//! For every setting, the algorithm with lowest mean error and every
//! algorithm statistically indistinguishable from it (Welch t-test at
//! Bonferroni-corrected α) are *competitive*. Tables 3a/3b report, per
//! scale, on how many datasets each algorithm is competitive.
//!
//! Since PR 9 the machinery runs on **sufficient statistics**
//! ([`ErrorMoments`]) rather than raw samples: Welch's test needs only
//! (n, mean, variance) and the risk-averse profile only a p95 estimate,
//! all of which a merged [`AggregatingSink`] t-digest summary carries. Any
//! fleet's summary file is therefore enough to compute competitive sets —
//! no re-running trials, no raw-sample ledger. [`ResultStore`] implements
//! the same [`ErrorSource`] interface (with exact percentiles), so the
//! raw-sample path produces byte-identical decisions to before.
//!
//! The same test gates kernel changes: [`kernel_gate`] accepts a new
//! mechanism kernel whose ledger the paper's own statistics cannot tell
//! apart from the old kernel's.

use crate::config::Setting;
use crate::results::ResultStore;
use crate::sink::AggregatingSink;
use dpbench_stats::ttest::welch_t_test_moments;
use dpbench_stats::{competitive_set_moments, geometric_mean_regret, percentile, Moments};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;

/// Which error statistic drives the competitiveness test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RiskProfile {
    /// Mean error (risk-neutral analyst; the paper's Tables 3a/3b).
    Mean,
    /// 95th-percentile error (risk-averse analyst; Finding 8).
    P95,
}

/// Sufficient statistics of one (algorithm, setting) error distribution:
/// what the competitive-set tests actually consume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorMoments {
    /// Welch moments (n, mean, unbiased variance).
    pub moments: Moments,
    /// 95th-percentile error. Exact from a [`ResultStore`]; a t-digest
    /// estimate from an [`AggregatingSink`] (documented tolerance in
    /// `dpbench_stats::tdigest`).
    pub p95: f64,
}

/// Anything that can answer "what were the error statistics of algorithm
/// `a` in setting `s`". The competitive analysis (and the selector's
/// profile builder) is written against this, so it runs identically on an
/// in-memory raw-sample store and on merged fleet summary files.
pub trait ErrorSource {
    /// Distinct settings covered, in the source's canonical order.
    fn settings(&self) -> Vec<Setting>;

    /// Sufficient statistics for one (algorithm, setting), or `None` when
    /// the source holds no samples for the pair.
    fn error_moments(&self, algorithm: &str, setting: &Setting) -> Option<ErrorMoments>;
}

impl ErrorSource for ResultStore {
    fn settings(&self) -> Vec<Setting> {
        ResultStore::settings(self).to_vec()
    }

    fn error_moments(&self, algorithm: &str, setting: &Setting) -> Option<ErrorMoments> {
        let errs = self.errors_for(algorithm, setting);
        if errs.is_empty() {
            return None;
        }
        Some(ErrorMoments {
            moments: Moments {
                n: errs.len() as u64,
                mean: dpbench_stats::mean(errs),
                variance: dpbench_stats::variance(errs),
            },
            p95: percentile(errs, 95.0),
        })
    }
}

impl ErrorSource for AggregatingSink {
    fn settings(&self) -> Vec<Setting> {
        let mut seen = Vec::new();
        for (_, setting, _) in self.groups() {
            if !seen.contains(setting) {
                seen.push(setting.clone());
            }
        }
        seen
    }

    fn error_moments(&self, algorithm: &str, setting: &Setting) -> Option<ErrorMoments> {
        let key = setting.to_string();
        for (alg, s, summary) in self.groups() {
            if alg == algorithm && s.to_string() == key && summary.count() > 0 {
                let sum = summary.to_summary();
                return Some(ErrorMoments {
                    moments: Moments {
                        n: summary.count(),
                        mean: summary.mean(),
                        variance: summary.variance(),
                    },
                    p95: sum.p95,
                });
            }
        }
        None
    }
}

/// Competitive algorithms in one setting.
pub fn competitive_in_setting<S: ErrorSource + ?Sized>(
    source: &S,
    setting: &Setting,
    algorithms: &[String],
    profile: RiskProfile,
) -> Vec<String> {
    let stats: Vec<(String, ErrorMoments)> = algorithms
        .iter()
        .filter_map(|a| source.error_moments(a, setting).map(|m| (a.clone(), m)))
        .collect();
    if stats.is_empty() {
        return Vec::new();
    }
    match profile {
        RiskProfile::Mean => {
            let moments: Vec<Moments> = stats.iter().map(|(_, m)| m.moments).collect();
            competitive_set_moments(&moments)
                .into_iter()
                .map(|i| stats[i].0.clone())
                .collect()
        }
        RiskProfile::P95 => {
            // For the risk-averse profile the paper compares the 95th
            // percentile directly; we report the minimizer (a single
            // winner) plus anything within 5 % of it.
            let best = stats
                .iter()
                .map(|(_, m)| m.p95)
                .fold(f64::INFINITY, f64::min);
            stats
                .iter()
                .filter(|(_, m)| m.p95 <= best * 1.05)
                .map(|(a, _)| a.clone())
                .collect()
        }
    }
}

/// Table 3-style counts: for each scale, the number of datasets on which
/// each algorithm is competitive. Returns `scale → algorithm → count`.
pub fn competitive_counts<S: ErrorSource + ?Sized>(
    source: &S,
    algorithms: &[String],
    profile: RiskProfile,
) -> BTreeMap<u64, BTreeMap<String, usize>> {
    let mut out: BTreeMap<u64, BTreeMap<String, usize>> = BTreeMap::new();
    for setting in source.settings() {
        let winners = competitive_in_setting(source, &setting, algorithms, profile);
        let per_scale = out.entry(setting.scale).or_default();
        for w in winners {
            *per_scale.entry(w).or_insert(0) += 1;
        }
    }
    out
}

/// Relative change of one paired trial's error above which the trial
/// counts as diverged: a kernel that only reorders floating-point
/// arithmetic moves errors by ~10⁻¹¹, so a larger change means an
/// exponential-mechanism pick flipped.
pub const DIVERGED_REL_CHANGE: f64 = 1e-6;

/// One (setting, mechanism) cell of a [`kernel_gate`] comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct GateCell {
    /// Mechanism name.
    pub algorithm: String,
    /// The setting.
    pub setting: Setting,
    /// Mean error of the parent and of the change.
    pub means: (f64, f64),
    /// Two-sided p-value of Welch's test between the two runs' errors
    /// (1 when the cell has too few trials to test).
    pub p_value: f64,
}

/// What [`kernel_gate`] found. [`GateReport::passed`] is the verdict;
/// `Display` renders the report.
#[derive(Debug, Clone, PartialEq)]
pub struct GateReport {
    /// Trials paired across the two runs.
    pub paired: usize,
    /// Largest relative error change over all paired trials.
    pub max_rel_change: f64,
    /// Paired trials whose error moved by more than
    /// [`DIVERGED_REL_CHANGE`].
    pub diverged: usize,
    /// Bonferroni-corrected significance level of the per-cell tests.
    pub alpha: f64,
    /// Every (setting, mechanism) cell, in the parent's setting order.
    pub cells: Vec<GateCell>,
    /// Settings compared.
    pub settings: usize,
    /// Settings whose mean-profile competitive set changed, with the
    /// parent's and the change's sets.
    pub competitive_changed: Vec<(Setting, Vec<String>, Vec<String>)>,
    /// Studies (settings of one dimensionality run by the same
    /// mechanisms) compared by regret.
    pub studies: usize,
    /// Studies whose regret ranking changed: the parent's and the
    /// change's rankings, best first.
    pub ranking_changed: Vec<(Vec<String>, Vec<String>)>,
}

impl GateReport {
    /// Cells whose errors differ significantly at [`GateReport::alpha`].
    pub fn significant(&self) -> impl Iterator<Item = &GateCell> {
        self.cells.iter().filter(|c| c.p_value < self.alpha)
    }

    /// The gate's verdict: no cell significant, every competitive set
    /// and every regret ranking unchanged.
    pub fn passed(&self) -> bool {
        self.significant().next().is_none()
            && self.competitive_changed.is_empty()
            && self.ranking_changed.is_empty()
    }
}

impl fmt::Display for GateReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let min_p = self
            .cells
            .iter()
            .map(|c| c.p_value)
            .fold(f64::INFINITY, f64::min);
        writeln!(
            f,
            "kernel gate {}: {} paired trials in {} cells; largest relative error \
             change {:.2e}, {} diverged (> {:e})",
            if self.passed() { "PASS" } else { "FAIL" },
            self.paired,
            self.cells.len(),
            self.max_rel_change,
            self.diverged,
            DIVERGED_REL_CHANGE,
        )?;
        writeln!(
            f,
            "  Welch at Bonferroni alpha {:.3e}: {} significant cells, smallest p {:.4}",
            self.alpha,
            self.significant().count(),
            min_p,
        )?;
        for c in self.significant() {
            writeln!(
                f,
                "    {} {}: mean {:e} -> {:e}, p {:.3e}",
                c.algorithm, c.setting, c.means.0, c.means.1, c.p_value
            )?;
        }
        writeln!(
            f,
            "  competitive sets changed in {} of {} settings",
            self.competitive_changed.len(),
            self.settings
        )?;
        for (s, parent, change) in &self.competitive_changed {
            writeln!(f, "    {s}: {parent:?} -> {change:?}")?;
        }
        write!(
            f,
            "  regret ranking changed in {} of {} studies",
            self.ranking_changed.len(),
            self.studies
        )?;
        for (parent, change) in &self.ranking_changed {
            write!(f, "\n    {parent:?} -> {change:?}")?;
        }
        Ok(())
    }
}

/// Why two runs cannot be compared trial by trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GateError {
    /// Neither run holds a trial.
    Empty,
    /// A trial appears twice in one run (`side` is `"parent"` or
    /// `"change"`).
    Duplicate {
        /// Which run holds the duplicate.
        side: &'static str,
        /// The trial: mechanism, setting, sample and trial index.
        trial: String,
    },
    /// A trial of one run has no partner in the other.
    Unpaired {
        /// Which run holds the trial.
        side: &'static str,
        /// The trial: mechanism, setting, sample and trial index.
        trial: String,
    },
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateError::Empty => write!(f, "kernel gate: the runs hold no trials"),
            GateError::Duplicate { side, trial } => {
                write!(f, "kernel gate: the {side} run holds {trial} twice")
            }
            GateError::Unpaired { side, trial } => write!(
                f,
                "kernel gate: {trial} of the {side} run has no partner in the other run"
            ),
        }
    }
}

impl std::error::Error for GateError {}

/// Compare the errors of two runs of the same grid — `parent` with the
/// old kernels, `change` with the new — and decide whether the paper's
/// own statistics can tell them apart (Section 5.3).
///
/// A kernel change keeps every `rng_for` coordinate and the order of
/// random draws, so trial i of the two runs drew the same noise: the
/// trials are paired, and the report gives the largest per-trial relative
/// error change and the number of diverged trials. The verdict uses only
/// the paper's tests:
/// * Welch's test between the two runs in every (setting, mechanism)
///   cell, at the Bonferroni-corrected α over all cells (0.05 / cells,
///   the paper's correction applied to this family of tests);
/// * the mean-profile [`competitive_in_setting`] set of every setting;
/// * the geometric-mean regret ranking of every study, a study being the
///   settings of one dimensionality run by the same mechanisms.
///
/// Runs that do not cover the same trials cannot be paired and are an
/// error, never a pass.
pub fn kernel_gate(parent: &ResultStore, change: &ResultStore) -> Result<GateReport, GateError> {
    let before = errors_by_trial(parent, "parent")?;
    let after = errors_by_trial(change, "change")?;
    for (side, run, other) in [("parent", &before, &after), ("change", &after, &before)] {
        if let Some(k) = run.keys().find(|k| !other.contains_key(*k)) {
            let trial = describe_trial(k);
            return Err(GateError::Unpaired { side, trial });
        }
    }
    if before.is_empty() {
        return Err(GateError::Empty);
    }
    let (mut max_rel_change, mut diverged) = (0.0_f64, 0);
    // Both maps hold the same keys, so zipping them in order pairs trials.
    for (p, c) in before.values().zip(after.values()) {
        let rel = if p == c { 0.0 } else { (c - p).abs() / p.abs() };
        if rel.is_nan() || rel > DIVERGED_REL_CHANGE {
            diverged += 1;
        }
        max_rel_change = max_rel_change.max(rel);
    }

    let algorithms = parent.algorithms();
    let mut cells = Vec::new();
    let mut competitive_changed = Vec::new();
    // Studies: settings of one dimensionality run by the same mechanisms
    // (the paper ranks its 1-D and 2-D studies separately).
    let mut studies: Vec<(Study, Vec<Setting>)> = Vec::new();
    for setting in parent.settings() {
        let ran: Vec<String> = algorithms
            .iter()
            .filter(|a| !parent.errors_for(a, setting).is_empty())
            .cloned()
            .collect();
        for a in &ran {
            let moments = |run: &ResultStore| {
                run.error_moments(a, setting)
                    .expect("paired runs cover the same cells")
                    .moments
            };
            let (p, c) = (moments(parent), moments(change));
            cells.push(GateCell {
                algorithm: a.clone(),
                setting: setting.clone(),
                means: (p.mean, c.mean),
                p_value: welch_t_test_moments(p, c).map_or(1.0, |t| t.p_value),
            });
        }
        let was = competitive_in_setting(parent, setting, &ran, RiskProfile::Mean);
        let now = competitive_in_setting(change, setting, &ran, RiskProfile::Mean);
        if was != now {
            competitive_changed.push((setting.clone(), was, now));
        }
        let study = (setting.domain.dims(), ran);
        match studies.iter_mut().find(|(s, _)| *s == study) {
            Some((_, settings)) => settings.push(setting.clone()),
            None => studies.push((study, vec![setting.clone()])),
        }
    }
    let ranking_changed = studies
        .iter()
        .map(|((_, algs), settings)| {
            (
                regret_ranking(parent, algs, settings),
                regret_ranking(change, algs, settings),
            )
        })
        .filter(|(was, now)| was != now)
        .collect();
    Ok(GateReport {
        paired: before.len(),
        max_rel_change,
        diverged,
        alpha: 0.05 / cells.len() as f64,
        cells,
        settings: parent.settings().len(),
        competitive_changed,
        studies: studies.len(),
        ranking_changed,
    })
}

/// A paired trial: mechanism, setting key, sample and trial index.
type TrialKey = (String, String, usize, usize);

/// A study: a dimensionality and the mechanisms run in its settings.
type Study = (usize, Vec<String>);

fn describe_trial(k: &TrialKey) -> String {
    format!("{} {} sample {} trial {}", k.0, k.1, k.2, k.3)
}

/// Every trial's error in `run`, keyed for pairing.
fn errors_by_trial(
    run: &ResultStore,
    side: &'static str,
) -> Result<BTreeMap<TrialKey, f64>, GateError> {
    let mut out = BTreeMap::new();
    for e in run.samples() {
        let k = (
            e.algorithm.clone(),
            e.setting.to_string(),
            e.sample,
            e.trial,
        );
        match out.entry(k) {
            Entry::Vacant(v) => {
                v.insert(e.error);
            }
            Entry::Occupied(o) => {
                let trial = describe_trial(o.key());
                return Err(GateError::Duplicate { side, trial });
            }
        }
    }
    Ok(out)
}

/// `algorithms` ordered by geometric-mean regret of their mean errors
/// over `settings`, best first (ties by name).
fn regret_ranking(store: &ResultStore, algorithms: &[String], settings: &[Setting]) -> Vec<String> {
    let errors: Vec<Vec<f64>> = algorithms
        .iter()
        .map(|a| settings.iter().map(|s| store.mean_error(a, s)).collect())
        .collect();
    let regrets = geometric_mean_regret(&errors).expect("a study's error matrix is full");
    let mut order: Vec<usize> = (0..algorithms.len()).collect();
    order.sort_by(|&i, &j| {
        regrets[i]
            .total_cmp(&regrets[j])
            .then(algorithms[i].cmp(&algorithms[j]))
    });
    order.into_iter().map(|i| algorithms[i].clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::ErrorSample;
    use dpbench_core::Domain;

    fn setting(dataset: &str, scale: u64) -> Setting {
        Setting {
            dataset: dataset.into(),
            scale,
            domain: Domain::D1(256),
            epsilon: 0.1,
        }
    }

    fn fill(store: &mut ResultStore, alg: &str, s: &Setting, base: f64) {
        for trial in 0..10 {
            store.push(ErrorSample {
                algorithm: alg.into(),
                setting: s.clone(),
                sample: 0,
                trial,
                error: base * (1.0 + 0.01 * (trial % 3) as f64),
            });
        }
    }

    #[test]
    fn clear_winner_is_sole_competitor() {
        let mut store = ResultStore::new();
        let s = setting("ADULT", 1000);
        fill(&mut store, "DAWA", &s, 0.001);
        fill(&mut store, "IDENTITY", &s, 0.1);
        let algs = vec!["DAWA".to_string(), "IDENTITY".to_string()];
        let winners = competitive_in_setting(&store, &s, &algs, RiskProfile::Mean);
        assert_eq!(winners, vec!["DAWA"]);
    }

    #[test]
    fn statistical_tie_includes_both() {
        let mut store = ResultStore::new();
        let s = setting("ADULT", 1000);
        // Overlapping noisy samples with nearly equal means: no test at
        // Bonferroni α should separate them.
        for trial in 0..10 {
            let wiggle = 0.5 * ((trial * 7 % 5) as f64 - 2.0); // ±1 spread
            store.push(ErrorSample {
                algorithm: "DAWA".into(),
                setting: s.clone(),
                sample: 0,
                trial,
                error: 5.0 + wiggle,
            });
            store.push(ErrorSample {
                algorithm: "AHP*".into(),
                setting: s.clone(),
                sample: 0,
                trial,
                error: 5.05 + wiggle,
            });
        }
        let algs = vec!["DAWA".to_string(), "AHP*".to_string()];
        let winners = competitive_in_setting(&store, &s, &algs, RiskProfile::Mean);
        assert_eq!(winners.len(), 2);
    }

    #[test]
    fn counts_aggregate_over_datasets() {
        let mut store = ResultStore::new();
        for ds in ["ADULT", "TRACE", "MEDCOST"] {
            let s = setting(ds, 1000);
            fill(&mut store, "DAWA", &s, 0.001);
            fill(&mut store, "IDENTITY", &s, 0.1);
        }
        let algs = vec!["DAWA".to_string(), "IDENTITY".to_string()];
        let counts = competitive_counts(&store, &algs, RiskProfile::Mean);
        assert_eq!(counts[&1000]["DAWA"], 3);
        assert!(!counts[&1000].contains_key("IDENTITY"));
    }

    #[test]
    fn p95_profile_selects_low_variance() {
        let mut store = ResultStore::new();
        let s = setting("ADULT", 1000);
        // "volatile": lower mean, fat tail; "stable": higher mean, no tail.
        for trial in 0..20 {
            store.push(ErrorSample {
                algorithm: "volatile".into(),
                setting: s.clone(),
                sample: 0,
                trial,
                error: if trial == 19 { 10.0 } else { 0.01 },
            });
            store.push(ErrorSample {
                algorithm: "stable".into(),
                setting: s.clone(),
                sample: 0,
                trial,
                error: 0.05,
            });
        }
        let algs = vec!["volatile".to_string(), "stable".to_string()];
        let mean_winners = competitive_in_setting(&store, &s, &algs, RiskProfile::Mean);
        let p95_winners = competitive_in_setting(&store, &s, &algs, RiskProfile::P95);
        assert!(mean_winners.contains(&"volatile".to_string()));
        assert_eq!(p95_winners, vec!["stable"]);
    }

    /// Two mechanisms in two settings, ten trials each, with errors that
    /// vary by trial; `scale_b` multiplies `B`'s errors.
    fn gate_store(scale_b: f64) -> ResultStore {
        let mut store = ResultStore::new();
        for ds in ["ADULT", "TRACE"] {
            let s = setting(ds, 1000);
            for trial in 0..10 {
                let wiggle = 1.0 + 0.05 * (trial * 7 % 5) as f64;
                for (alg, base) in [("A", 1.0), ("B", 2.0 * scale_b)] {
                    store.push(ErrorSample {
                        algorithm: alg.into(),
                        setting: s.clone(),
                        sample: 0,
                        trial,
                        error: base * wiggle,
                    });
                }
            }
        }
        store
    }

    #[test]
    fn gate_passes_identical_runs() {
        let store = gate_store(1.0);
        let report = kernel_gate(&store, &store.clone()).unwrap();
        assert!(report.passed(), "{report}");
        assert_eq!((report.paired, report.diverged), (40, 0));
        assert_eq!(report.max_rel_change, 0.0);
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.studies, 1);
        assert!(report.to_string().starts_with("kernel gate PASS"));
    }

    #[test]
    fn gate_fails_and_names_a_shifted_cell() {
        let parent = gate_store(1.0);
        // B's errors grow by half, in ADULT only.
        let mut change = ResultStore::new();
        for e in parent.samples() {
            let mut e = e.clone();
            if e.algorithm == "B" && e.setting.dataset == "ADULT" {
                e.error *= 1.5;
            }
            change.push(e);
        }
        let report = kernel_gate(&parent, &change).unwrap();
        assert!(!report.passed());
        assert_eq!(report.diverged, 10);
        assert!((report.max_rel_change - 0.5).abs() < 1e-12);
        let bad: Vec<_> = report.significant().collect();
        assert_eq!(bad.len(), 1, "{report}");
        assert_eq!(
            (bad[0].algorithm.as_str(), bad[0].setting.dataset.as_str()),
            ("B", "ADULT")
        );
        assert!(
            report.to_string().contains("B ADULT scale=1000"),
            "{report}"
        );
    }

    #[test]
    fn gate_refuses_mismatched_coverage() {
        let parent = gate_store(1.0);
        let keep = |drop: &dyn Fn(&ErrorSample) -> bool| {
            let mut s = ResultStore::new();
            s.extend(parent.samples().iter().filter(|e| !drop(e)).cloned());
            s
        };
        // A missing trial, on either side.
        let short = keep(&|e| e.algorithm == "A" && e.trial == 3);
        assert!(matches!(
            kernel_gate(&parent, &short),
            Err(GateError::Unpaired { side: "parent", .. })
        ));
        assert!(matches!(
            kernel_gate(&short, &parent),
            Err(GateError::Unpaired { side: "change", .. })
        ));
        // A missing setting.
        let one_setting = keep(&|e| e.setting.dataset == "TRACE");
        let err = kernel_gate(&parent, &one_setting).unwrap_err();
        assert!(err.to_string().contains("TRACE"), "{err}");
        // A duplicated trial, and two empty runs.
        let mut twice = parent.clone();
        twice.push(parent.samples()[0].clone());
        assert!(matches!(
            kernel_gate(&parent, &twice),
            Err(GateError::Duplicate { side: "change", .. })
        ));
        assert_eq!(
            kernel_gate(&ResultStore::new(), &ResultStore::new()),
            Err(GateError::Empty)
        );
    }

    #[test]
    fn summary_source_agrees_with_raw_store() {
        // The same samples seen through a raw store and through an
        // aggregating sink must produce the same Mean-profile decision
        // (Welch from streaming moments == Welch from raw samples).
        use crate::manifest::ManifestUnit;
        use crate::sink::ResultSink;

        let s = setting("ADULT", 1000);
        let mut store = ResultStore::new();
        let mut sink = AggregatingSink::new();
        for (alg, base) in [("DAWA", 0.001), ("IDENTITY", 0.1)] {
            let samples: Vec<ErrorSample> = (0..10)
                .map(|trial| ErrorSample {
                    algorithm: alg.into(),
                    setting: s.clone(),
                    sample: 0,
                    trial,
                    error: base * (1.0 + 0.01 * (trial % 3) as f64),
                })
                .collect();
            for e in &samples {
                store.push(e.clone());
            }
            let unit = ManifestUnit {
                id: crate::manifest::UnitId(0),
                pos: 0,
                algorithm: alg.into(),
                setting: s.clone(),
                sample: 0,
            };
            sink.unit_complete(&unit, &samples).unwrap();
        }
        let algs = vec!["DAWA".to_string(), "IDENTITY".to_string()];
        for profile in [RiskProfile::Mean, RiskProfile::P95] {
            assert_eq!(
                competitive_in_setting(&store, &s, &algs, profile),
                competitive_in_setting(&sink, &s, &algs, profile),
                "{profile:?}"
            );
        }
    }
}
