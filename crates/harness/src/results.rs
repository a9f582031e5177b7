//! Result storage, aggregation, and table rendering.

use crate::config::Setting;
use dpbench_stats::Summary;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashSet};

/// One measured error (Definition 3) from a single mechanism run.
#[derive(Debug, Clone)]
pub struct ErrorSample {
    /// Algorithm name.
    pub algorithm: String,
    /// The experimental setting.
    pub setting: Setting,
    /// Which sampled data vector (0-based).
    pub sample: usize,
    /// Which trial on that data vector (0-based).
    pub trial: usize,
    /// Scaled average per-query error.
    pub error: f64,
}

/// Aggregated view of all trials of one algorithm in one setting.
#[derive(Debug, Clone)]
pub struct SettingSummary {
    /// Algorithm name.
    pub algorithm: String,
    /// The setting.
    pub setting: Setting,
    /// Error summary across all samples × trials.
    pub summary: Summary,
}

/// In-memory store of benchmark results.
///
/// Indexed on insert: a `BTreeMap` keyed by (algorithm, setting) holds the
/// error values of every group, so [`ResultStore::errors_for`] and the
/// distinct-value listings are index lookups instead of the full-scan
/// filters they used to be — the store is on the sink pipeline's hot path
/// and grids push hundreds of thousands of samples through it.
#[derive(Debug, Clone, Default)]
pub struct ResultStore {
    samples: Vec<ErrorSample>,
    /// (algorithm, setting display key) → (setting, errors in push order).
    index: BTreeMap<(String, String), (Setting, Vec<f64>)>,
    /// Distinct settings in first-seen order (+ membership set).
    settings: Vec<Setting>,
    seen_settings: HashSet<String>,
    /// Distinct algorithm names in first-seen order (+ membership set).
    algorithms: Vec<String>,
    seen_algorithms: HashSet<String>,
}

impl ResultStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one measurement.
    pub fn push(&mut self, sample: ErrorSample) {
        let setting_key = sample.setting.to_string();
        if self.seen_settings.insert(setting_key.clone()) {
            self.settings.push(sample.setting.clone());
        }
        if self.seen_algorithms.insert(sample.algorithm.clone()) {
            self.algorithms.push(sample.algorithm.clone());
        }
        match self.index.entry((sample.algorithm.clone(), setting_key)) {
            Entry::Occupied(mut e) => e.get_mut().1.push(sample.error),
            Entry::Vacant(e) => {
                e.insert((sample.setting.clone(), vec![sample.error]));
            }
        }
        self.samples.push(sample);
    }

    /// Append many measurements.
    pub fn extend(&mut self, samples: impl IntoIterator<Item = ErrorSample>) {
        for s in samples {
            self.push(s);
        }
    }

    /// All raw measurements, in insertion order.
    pub fn samples(&self) -> &[ErrorSample] {
        &self.samples
    }

    /// Errors of one algorithm in one setting (insertion order); empty
    /// when the pair never ran. One index lookup, no scan.
    pub fn errors_for(&self, algorithm: &str, setting: &Setting) -> &[f64] {
        self.index
            .get(&(algorithm.to_string(), setting.to_string()))
            .map(|(_, errors)| errors.as_slice())
            .unwrap_or(&[])
    }

    /// Distinct settings present, in insertion order.
    pub fn settings(&self) -> &[Setting] {
        &self.settings
    }

    /// Distinct algorithm names present, in insertion order.
    pub fn algorithms(&self) -> &[String] {
        &self.algorithms
    }

    /// Aggregate every (algorithm, setting) pair, ordered by algorithm
    /// then setting key (the index order).
    pub fn summaries(&self) -> Vec<SettingSummary> {
        self.index
            .iter()
            .map(|((algorithm, _), (setting, errors))| SettingSummary {
                algorithm: algorithm.clone(),
                setting: setting.clone(),
                summary: Summary::of(errors),
            })
            .collect()
    }

    /// Mean error of one algorithm in one setting (NaN if absent).
    pub fn mean_error(&self, algorithm: &str, setting: &Setting) -> f64 {
        let errs = self.errors_for(algorithm, setting);
        if errs.is_empty() {
            f64::NAN
        } else {
            dpbench_stats::mean(errs)
        }
    }
}

impl ResultStore {
    /// Export all raw measurements as CSV (header + one row per sample);
    /// dataset names in the benchmark contain no commas or quotes, so no
    /// escaping is required.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("algorithm,dataset,scale,domain,epsilon,sample,trial,error\n");
        for s in &self.samples {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{:e}\n",
                s.algorithm,
                s.setting.dataset,
                s.setting.scale,
                s.setting.domain,
                s.setting.epsilon,
                s.sample,
                s.trial,
                s.error
            ));
        }
        out
    }
}

/// Parse the `Display` form of a domain (`"4096"` or `"128x128"`).
pub fn parse_domain(s: &str) -> Option<dpbench_core::Domain> {
    if let Some((r, c)) = s.split_once('x') {
        Some(dpbench_core::Domain::D2(r.parse().ok()?, c.parse().ok()?))
    } else {
        Some(dpbench_core::Domain::D1(s.parse().ok()?))
    }
}

/// Render rows as a GitHub-flavoured markdown table (used by every bench
/// binary to print paper-style outputs).
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let padded: Vec<String> = cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        format!("| {} |\n", padded.join(" | "))
    };
    out.push_str(&fmt_row(
        &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
        &widths,
    ));
    let dashes: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    out.push_str(&fmt_row(&dashes, &widths));
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Format an error in the paper's log10 style (Figures 1–2 plot
/// `log₁₀(scaled error)`).
pub fn log10_fmt(error: f64) -> String {
    if error <= 0.0 || !error.is_finite() {
        "-inf".to_string()
    } else {
        format!("{:+.2}", error.log10())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbench_core::Domain;

    fn setting() -> Setting {
        Setting {
            dataset: "ADULT".into(),
            scale: 1000,
            domain: Domain::D1(256),
            epsilon: 0.1,
        }
    }

    fn sample(alg: &str, trial: usize, error: f64) -> ErrorSample {
        ErrorSample {
            algorithm: alg.into(),
            setting: setting(),
            sample: 0,
            trial,
            error,
        }
    }

    #[test]
    fn store_roundtrip() {
        let mut store = ResultStore::new();
        store.push(sample("IDENTITY", 0, 0.5));
        store.push(sample("IDENTITY", 1, 0.7));
        store.push(sample("DAWA", 0, 0.1));
        assert_eq!(store.errors_for("IDENTITY", &setting()), vec![0.5, 0.7]);
        assert_eq!(store.algorithms(), vec!["IDENTITY", "DAWA"]);
        assert_eq!(store.settings().len(), 1);
        assert!((store.mean_error("IDENTITY", &setting()) - 0.6).abs() < 1e-12);
        assert!(store.mean_error("NOPE", &setting()).is_nan());
    }

    #[test]
    fn summaries_aggregate() {
        let mut store = ResultStore::new();
        for t in 0..10 {
            store.push(sample("DAWA", t, t as f64));
        }
        let sums = store.summaries();
        assert_eq!(sums.len(), 1);
        assert_eq!(sums[0].summary.n, 10);
        assert!((sums[0].summary.mean - 4.5).abs() < 1e-12);
    }

    #[test]
    fn csv_roundtrip() {
        let mut store = ResultStore::new();
        store.push(sample("DAWA", 0, 1.5e-4));
        store.push(sample("IDENTITY", 1, 2.25e-3));
        assert_eq!(
            store.to_csv(),
            "algorithm,dataset,scale,domain,epsilon,sample,trial,error\n\
             DAWA,ADULT,1000,256,0.1,0,0,1.5e-4\n\
             IDENTITY,ADULT,1000,256,0.1,0,1,2.25e-3\n"
        );
    }

    #[test]
    fn domain_parsing() {
        assert_eq!(parse_domain("4096"), Some(Domain::D1(4096)));
        assert_eq!(parse_domain("128x128"), Some(Domain::D2(128, 128)));
        assert_eq!(parse_domain("abc"), None);
    }

    #[test]
    fn table_rendering() {
        let t = render_table(
            &["alg", "err"],
            &[
                vec!["DAWA".into(), "0.1".into()],
                vec!["IDENTITY".into(), "0.55".into()],
            ],
        );
        assert!(t.contains("| alg "));
        assert!(t.contains("| DAWA "));
        assert!(t.lines().count() == 4);
    }

    #[test]
    fn log10_formatting() {
        assert_eq!(log10_fmt(0.01), "-2.00");
        assert_eq!(log10_fmt(0.0), "-inf");
    }
}
