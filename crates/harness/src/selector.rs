//! Mechanism selection as a product (paper Section 7, ROADMAP item 4).
//!
//! The paper's headline is that **no mechanism dominates**: the winner
//! flips with dataset shape, scale, domain, and ε. This module turns that
//! finding into a usable router. A [`SelectionProfile`] is built from one
//! or more [`AggregatingSink`] summary files (the training data every
//! fleet already emits): per *(domain-dims, shape-class, scale-bucket,
//! ε-bucket)* cell it stores the regret-ranked mechanism list with
//! competitive-tie sets, sample counts, and the tuned free parameters
//! from [`crate::tuning`]'s schedules — so a recommendation carries
//! concrete parameters, not just a name.
//!
//! Profiles serialize to a **versioned, deterministic** line-oriented
//! JSON file: building from the same summary files yields byte-identical
//! output regardless of the order the files are given in (contributions
//! to each group are merged in a content-sorted order, never in input
//! order). `tests/selector.rs` shuffles shards to prove it.
//!
//! Lookup ([`SelectionProfile::lookup`]) answers a [`SelectorQuery`]
//! with the profiled cell when one matches exactly, or the **nearest**
//! same-dimensionality cell otherwise — always labeled with an explicit
//! [`Confidence`] tier so callers (the `recommend` CLI, the release
//! server's `auto` routing) can tell a measured answer from an
//! extrapolated one.

use crate::config::Setting;
use crate::sink::{read_summary, AggregatingSink};
use crate::tuning::tuned_params_for;
use dpbench_core::json::{self, Value};
use dpbench_core::Domain;
use dpbench_datasets::{catalog, shape_stats};
use dpbench_stats::{competitive_set_moments, Moments, StreamingSummary};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Profile file format version (bumped on any layout change; readers
/// refuse versions they don't know).
pub const PROFILE_VERSION: u32 = 1;

// ---------------------------------------------------------------------------
// Cell coordinates
// ---------------------------------------------------------------------------

/// Coarse dataset-shape class, derived from the catalog shape's summary
/// statistics ([`dpbench_datasets::shape_stats`]). Three broad families
/// are enough to capture the paper's "shape decides the winner" effect:
/// near-uniform data favors data-independent mechanisms, spiky/sparse
/// data favors partition-based ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ShapeClass {
    /// Aggregate over all shapes — the cell consulted when the caller
    /// doesn't know (or doesn't say) what the data looks like.
    Any,
    /// Near-uniform mass (normalized entropy ≥ 0.95, dense support).
    Flat,
    /// Structured but dense.
    Moderate,
    /// Sparse/spiky: under half the cells carry mass.
    Spiky,
    /// Dataset name not in the catalog; classified conservatively.
    Unknown,
}

impl ShapeClass {
    /// Classify a normalized shape vector.
    pub fn classify(shape: &[f64]) -> ShapeClass {
        let s = shape_stats(shape);
        if s.support_fraction < 0.5 {
            ShapeClass::Spiky
        } else if s.normalized_entropy >= 0.95 {
            ShapeClass::Flat
        } else {
            ShapeClass::Moderate
        }
    }

    /// Classify a catalog dataset by name ([`ShapeClass::Unknown`] when
    /// the name isn't in the catalog).
    pub fn of_dataset(name: &str) -> ShapeClass {
        match catalog::by_name(name) {
            Some(ds) => ShapeClass::classify(&ds.base_shape()),
            None => ShapeClass::Unknown,
        }
    }

    /// Stable serialization token.
    pub fn as_str(self) -> &'static str {
        match self {
            ShapeClass::Any => "any",
            ShapeClass::Flat => "flat",
            ShapeClass::Moderate => "moderate",
            ShapeClass::Spiky => "spiky",
            ShapeClass::Unknown => "unknown",
        }
    }

    fn from_str(s: &str) -> Option<ShapeClass> {
        Some(match s {
            "any" => ShapeClass::Any,
            "flat" => ShapeClass::Flat,
            "moderate" => ShapeClass::Moderate,
            "spiky" => ShapeClass::Spiky,
            "unknown" => ShapeClass::Unknown,
            _ => return None,
        })
    }
}

/// Decimal order of magnitude of a scale: `10^b ≤ scale < 10^(b+1)`.
/// Computed by digit count, so it is exact for every `u64`.
pub fn scale_bucket(scale: u64) -> i32 {
    let mut b = 0i32;
    let mut s = scale.max(1);
    while s >= 10 {
        s /= 10;
        b += 1;
    }
    b
}

/// Decimal order of magnitude of ε: largest `b` with `10^b ≤ eps`.
/// Comparison-based (no `log10`), so boundary values like 0.1 land in
/// their own bucket on every platform.
pub fn eps_bucket(eps: f64) -> i32 {
    let mut b = -18i32;
    while b < 18 && 10f64.powi(b + 1) <= eps {
        b += 1;
    }
    b
}

/// One profiled cell's coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CellKey {
    /// Domain dimensionality (1 or 2).
    pub dims: u8,
    /// Dataset shape class ([`ShapeClass::Any`] for the aggregate cell).
    pub shape: ShapeClass,
    /// [`scale_bucket`] of the setting scale.
    pub scale_bucket: i32,
    /// [`eps_bucket`] of the setting ε.
    pub eps_bucket: i32,
}

impl CellKey {
    fn of_setting(setting: &Setting, shape: ShapeClass) -> CellKey {
        CellKey {
            dims: match setting.domain {
                Domain::D1(_) => 1,
                Domain::D2(_, _) => 2,
            },
            shape,
            scale_bucket: scale_bucket(setting.scale),
            eps_bucket: eps_bucket(setting.epsilon),
        }
    }

    /// Representative ε·scale signal of the cell (geometric midpoint of
    /// both bucket ranges), used to look up tuned parameters.
    pub fn signal(&self) -> f64 {
        10f64.powi(self.scale_bucket + self.eps_bucket + 1)
    }
}

// ---------------------------------------------------------------------------
// Profile contents
// ---------------------------------------------------------------------------

/// One mechanism's record within a cell.
#[derive(Debug, Clone, PartialEq)]
pub struct MechRecord {
    /// Registry mechanism name.
    pub mechanism: String,
    /// Geometric-mean regret vs the per-setting oracle *within the cell*
    /// (1.0 = this mechanism is the oracle everywhere it was measured).
    pub regret: f64,
    /// Mean error pooled over the cell's settings.
    pub mean_error: f64,
    /// 95th-percentile error (t-digest estimate) pooled over the cell.
    pub p95_error: f64,
    /// Error samples backing this record.
    pub n: u64,
    /// Member of the cell's competitive set (Welch test at Bonferroni α
    /// on the pooled moments fails to separate it from the best mean).
    pub competitive: bool,
    /// Tuned free parameters at the cell's signal level (`"T=10"`,
    /// `"rho=0.85,eta=1.5"`); `None` for parameter-free mechanisms.
    pub params: Option<String>,
}

/// One profiled cell: the regret-ranked mechanism list.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Ranked best-first: regret ascending, then pooled mean error, then
    /// name (total order — ties cannot reorder across builds).
    pub ranked: Vec<MechRecord>,
    /// Distinct experimental settings that contributed.
    pub settings: u32,
}

impl Cell {
    /// The recommendation: first of the ranked list.
    pub fn winner(&self) -> &MechRecord {
        &self.ranked[0]
    }

    /// Names in the competitive-tie set, ranked order.
    pub fn ties(&self) -> Vec<&str> {
        self.ranked
            .iter()
            .filter(|m| m.competitive)
            .map(|m| m.mechanism.as_str())
            .collect()
    }
}

/// How much measured support a lookup answer has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Confidence {
    /// The query fell inside a profiled cell.
    Exact,
    /// No cell matched; the nearest same-dimensionality cell answered.
    Near,
}

impl Confidence {
    /// Stable token for JSON/status output.
    pub fn as_str(self) -> &'static str {
        match self {
            Confidence::Exact => "exact",
            Confidence::Near => "near",
        }
    }
}

/// A selection question: "which mechanism for this request".
#[derive(Debug, Clone)]
pub struct SelectorQuery {
    /// Domain of the release.
    pub domain: Domain,
    /// Shape class when the caller knows the dataset (the server always
    /// does); `None` consults the shape-aggregated cells.
    pub shape: Option<ShapeClass>,
    /// Data scale (number of tuples).
    pub scale: u64,
    /// Privacy budget of the release.
    pub epsilon: f64,
}

/// A lookup answer: the cell that decided, plus provenance.
#[derive(Debug, Clone)]
pub struct Recommendation<'a> {
    /// The deciding cell's coordinates.
    pub key: CellKey,
    /// The deciding cell.
    pub cell: &'a Cell,
    /// Measured-vs-extrapolated tier.
    pub confidence: Confidence,
    /// Bucket distance from the query to the deciding cell (0 for
    /// [`Confidence::Exact`]).
    pub distance: u32,
}

impl Recommendation<'_> {
    /// Human/JSON-readable one-line provenance, e.g.
    /// `exact cell dims=1 shape=spiky scale=1e3 eps=1e-1 (4 settings, n=120)`.
    pub fn reason(&self) -> String {
        format!(
            "{} cell dims={} shape={} scale=1e{} eps=1e{} ({} settings, n={})",
            self.confidence.as_str(),
            self.key.dims,
            self.key.shape.as_str(),
            self.key.scale_bucket,
            self.key.eps_bucket,
            self.cell.settings,
            self.cell.winner().n,
        )
    }
}

/// The learned router: every fleet's summary file makes it better.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SelectionProfile {
    /// Profiled cells (includes one [`ShapeClass::Any`] aggregate cell
    /// per (dims, scale-bucket, ε-bucket) alongside the per-shape cells).
    pub cells: BTreeMap<CellKey, Cell>,
    /// Summary files folded in.
    pub sources: u32,
    /// Total error samples across sources.
    pub total_samples: u64,
}

// ---------------------------------------------------------------------------
// Building
// ---------------------------------------------------------------------------

/// Content-sort key for a summary contribution: merging in this order
/// (never input order) is what makes profile building order-invariant.
fn contribution_key(s: &StreamingSummary) -> (u64, u64, u64, u64, u64) {
    (
        s.count(),
        s.mean().to_bits(),
        s.variance().to_bits(),
        s.min().to_bits(),
        s.max().to_bits(),
    )
}

impl SelectionProfile {
    /// Build a profile from any number of summary sinks — typically one
    /// per past fleet. Unlike [`AggregatingSink::merge_from`] this
    /// accepts sinks from **different runs** (different grids, different
    /// fingerprints): selection wants the union of all evidence.
    /// Deterministic in the strongest sense: permuting `sinks` yields a
    /// byte-identical serialized profile.
    pub fn build(sinks: &[AggregatingSink]) -> SelectionProfile {
        // 1. Pool contributions per (algorithm, setting) across sinks,
        //    merging each group's pieces in content-sorted order.
        type GroupKey = (String, String);
        let mut pieces: BTreeMap<GroupKey, (Setting, Vec<&StreamingSummary>)> = BTreeMap::new();
        for sink in sinks {
            for (alg, setting, summary) in sink.groups() {
                pieces
                    .entry((alg.to_string(), setting.to_string()))
                    .or_insert_with(|| (setting.clone(), Vec::new()))
                    .1
                    .push(summary);
            }
        }
        let mut groups: BTreeMap<GroupKey, (Setting, StreamingSummary)> = BTreeMap::new();
        for ((alg, skey), (setting, mut list)) in pieces {
            list.sort_by_key(|s| contribution_key(s));
            let mut merged = StreamingSummary::new();
            for s in list {
                merged.merge(s);
            }
            groups.insert((alg, skey), (setting, merged));
        }

        // 2. Deal each pooled group into its specific cell and the
        //    shape-aggregated twin.
        let mut shape_cache: BTreeMap<String, ShapeClass> = BTreeMap::new();
        type CellGroups = BTreeMap<String, BTreeMap<String, StreamingSummary>>;
        let mut by_cell: BTreeMap<CellKey, CellGroups> = BTreeMap::new();
        for ((alg, skey), (setting, summary)) in &groups {
            let shape = *shape_cache
                .entry(setting.dataset.clone())
                .or_insert_with(|| ShapeClass::of_dataset(&setting.dataset));
            for key in [
                CellKey::of_setting(setting, shape),
                CellKey::of_setting(setting, ShapeClass::Any),
            ] {
                by_cell
                    .entry(key)
                    .or_default()
                    .entry(alg.clone())
                    .or_default()
                    .insert(skey.clone(), summary.clone());
            }
        }

        // 3. Rank each cell.
        let mut cells = BTreeMap::new();
        for (key, algs) in by_cell {
            cells.insert(key, build_cell(&key, &algs));
        }
        SelectionProfile {
            cells,
            sources: sinks.len() as u32,
            total_samples: sinks.iter().map(|s| s.samples_seen()).sum(),
        }
    }

    /// Read each summary file ([`read_summary`]) and [`build`] the
    /// profile. Order of `paths` does not affect the result.
    ///
    /// [`build`]: SelectionProfile::build
    pub fn from_summary_files<P: AsRef<Path>>(paths: &[P]) -> io::Result<SelectionProfile> {
        let mut sinks = Vec::with_capacity(paths.len());
        for p in paths {
            let p = p.as_ref();
            sinks.push(
                read_summary(p)
                    .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", p.display())))?,
            );
        }
        Ok(SelectionProfile::build(&sinks))
    }

    // -----------------------------------------------------------------------
    // Lookup
    // -----------------------------------------------------------------------

    /// Answer a query from the profile: the exact cell when the query
    /// lands in one, otherwise the nearest cell of the same domain
    /// dimensionality (distance = scale-bucket gap + ε-bucket gap +
    /// shape-mismatch penalty, ties broken by cell order). `None` when
    /// the profile holds no cell of that dimensionality at all — the
    /// caller falls back to its static default.
    pub fn lookup(&self, q: &SelectorQuery) -> Option<Recommendation<'_>> {
        let dims = match q.domain {
            Domain::D1(_) => 1,
            Domain::D2(_, _) => 2,
        };
        let shape = q.shape.unwrap_or(ShapeClass::Any);
        let target = CellKey {
            dims,
            shape,
            scale_bucket: scale_bucket(q.scale),
            eps_bucket: eps_bucket(q.epsilon),
        };
        if let Some(cell) = self.cells.get(&target) {
            return Some(Recommendation {
                key: target,
                cell,
                confidence: Confidence::Exact,
                distance: 0,
            });
        }
        let mut best: Option<(u32, CellKey, &Cell)> = None;
        for (key, cell) in &self.cells {
            if key.dims != dims {
                continue;
            }
            let shape_penalty = if key.shape == shape {
                0
            } else if key.shape == ShapeClass::Any {
                // The aggregate twin pools every shape: a mild mismatch.
                1
            } else {
                4
            };
            let d = key.scale_bucket.abs_diff(target.scale_bucket)
                + key.eps_bucket.abs_diff(target.eps_bucket)
                + shape_penalty;
            if best.as_ref().map(|(bd, _, _)| d < *bd).unwrap_or(true) {
                best = Some((d, *key, cell));
            }
        }
        best.map(|(distance, key, cell)| Recommendation {
            key,
            cell,
            confidence: Confidence::Near,
            distance,
        })
    }

    // -----------------------------------------------------------------------
    // Serialization
    // -----------------------------------------------------------------------

    /// Serialize as versioned line-oriented JSON (one header line + one
    /// line per cell, cells in key order, floats in shortest round-trip
    /// form). Deterministic: equal profiles serialize to equal bytes.
    pub fn write<W: Write>(&self, out: &mut W) -> io::Result<()> {
        writeln!(
            out,
            "{{\"t\":\"dpbench-profile\",\"v\":{PROFILE_VERSION},\"cells\":{},\"sources\":{},\"samples\":{}}}",
            self.cells.len(),
            self.sources,
            self.total_samples
        )?;
        for (key, cell) in &self.cells {
            let ranked: Vec<String> = cell
                .ranked
                .iter()
                .map(|m| {
                    let params = match &m.params {
                        Some(p) => format!(",\"params\":\"{p}\""),
                        None => String::new(),
                    };
                    format!(
                        "{{\"m\":\"{}\",\"regret\":{},\"mean\":{},\"p95\":{},\"n\":{},\"comp\":{}{params}}}",
                        m.mechanism, m.regret, m.mean_error, m.p95_error, m.n, m.competitive
                    )
                })
                .collect();
            writeln!(
                out,
                "{{\"t\":\"cell\",\"dims\":{},\"shape\":\"{}\",\"scale_b\":{},\"eps_b\":{},\"settings\":{},\"ranked\":[{}]}}",
                key.dims,
                key.shape.as_str(),
                key.scale_bucket,
                key.eps_bucket,
                cell.settings,
                ranked.join(",")
            )?;
        }
        out.flush()
    }

    /// [`write`](SelectionProfile::write) to a file.
    pub fn write_file<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        self.write(&mut out)
    }

    /// Strict reader: any malformed line, unknown version, or cell-count
    /// mismatch is `InvalidData` with a line number — a router must
    /// never run on a silently half-parsed profile.
    pub fn read_file<P: AsRef<Path>>(path: P) -> io::Result<SelectionProfile> {
        let reader = BufReader::new(File::open(path)?);
        let mut lines = reader.lines();
        let header = match lines.next() {
            Some(l) => l?,
            None => return Err(bad(1, "empty profile file")),
        };
        let header = json::Object::parse(&header)
            .ok()
            .filter(|h| h.str("t") == Some("dpbench-profile"))
            .ok_or_else(|| bad(1, "not a dpbench profile header"))?;
        let version: u32 = header
            .num("v")
            .ok_or_else(|| bad(1, "missing profile version"))?;
        if version != PROFILE_VERSION {
            return Err(bad(1, &format!("unsupported profile version {version}")));
        }
        let n_cells: usize = need(&header, "cells", 1)?;
        let sources: u32 = need(&header, "sources", 1)?;
        let total_samples: u64 = need(&header, "samples", 1)?;

        let mut cells = BTreeMap::new();
        for (i, line) in lines.enumerate() {
            let lineno = i + 2;
            let line = line?;
            if line.trim().is_empty() {
                return Err(bad(lineno, "blank line inside profile"));
            }
            let (key, cell) = parse_cell(&line, lineno)?;
            if cells.insert(key, cell).is_some() {
                return Err(bad(lineno, "duplicate cell"));
            }
        }
        if cells.len() != n_cells {
            return Err(bad(
                1,
                &format!("header says {n_cells} cells, file has {}", cells.len()),
            ));
        }
        Ok(SelectionProfile {
            cells,
            sources,
            total_samples,
        })
    }
}

/// Rank one cell's algorithms: regret from per-setting mean errors (NaN
/// marks a setting an algorithm didn't run — [`geometric_mean_regret`]
/// skips those), pooled moments for the competitive set and the
/// mean/p95/n columns.
///
/// [`geometric_mean_regret`]: dpbench_stats::geometric_mean_regret
fn build_cell(key: &CellKey, algs: &BTreeMap<String, BTreeMap<String, StreamingSummary>>) -> Cell {
    // Union of settings in the cell, in key order.
    let mut setting_keys: Vec<&String> = Vec::new();
    for per_setting in algs.values() {
        for skey in per_setting.keys() {
            if !setting_keys.contains(&skey) {
                setting_keys.push(skey);
            }
        }
    }
    setting_keys.sort();

    let names: Vec<&String> = algs.keys().collect();
    let errors: Vec<Vec<f64>> = names
        .iter()
        .map(|name| {
            setting_keys
                .iter()
                .map(|skey| algs[*name].get(*skey).map(|s| s.mean()).unwrap_or(f64::NAN))
                .collect()
        })
        .collect();
    let regrets = dpbench_stats::geometric_mean_regret(&errors)
        .expect("cell matrix is rectangular by construction");

    // Pool each algorithm's settings (content-sorted merge order again).
    let pooled: Vec<StreamingSummary> = names
        .iter()
        .map(|name| {
            let mut list: Vec<&StreamingSummary> = algs[*name].values().collect();
            list.sort_by_key(|s| contribution_key(s));
            let mut merged = StreamingSummary::new();
            for s in list {
                merged.merge(s);
            }
            merged
        })
        .collect();
    let moments: Vec<Moments> = pooled
        .iter()
        .map(|s| Moments {
            n: s.count(),
            mean: s.mean(),
            variance: s.variance(),
        })
        .collect();
    let competitive = competitive_set_moments(&moments);

    let mut ranked: Vec<MechRecord> = names
        .iter()
        .enumerate()
        .map(|(i, name)| MechRecord {
            mechanism: (*name).clone(),
            regret: regrets[i],
            mean_error: pooled[i].mean(),
            p95_error: pooled[i].to_summary().p95,
            n: pooled[i].count(),
            competitive: competitive.contains(&i),
            params: tuned_params_for(name, key.signal()),
        })
        .collect();
    ranked.sort_by(|a, b| {
        a.regret
            .total_cmp(&b.regret)
            .then(a.mean_error.total_cmp(&b.mean_error))
            .then(a.mechanism.cmp(&b.mechanism))
    });
    Cell {
        ranked,
        settings: setting_keys.len() as u32,
    }
}

// ---------------------------------------------------------------------------
// Parsing helpers (the shared strict reader, as in `sink::read_summary`)
// ---------------------------------------------------------------------------

fn bad(lineno: usize, msg: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("profile line {lineno}: {msg}"),
    )
}

/// The number field `key` of a profile record, parsed as `T`.
fn need<T: std::str::FromStr>(rec: &json::Object, key: &str, lineno: usize) -> io::Result<T> {
    rec.num(key)
        .ok_or_else(|| bad(lineno, &format!("missing or malformed \"{key}\"")))
}

fn parse_cell(line: &str, lineno: usize) -> io::Result<(CellKey, Cell)> {
    let rec = json::Object::parse(line)
        .map_err(|e| bad(lineno, &format!("malformed cell record: {e}")))?;
    if rec.str("t") != Some("cell") {
        return Err(bad(lineno, "expected a cell record"));
    }
    let shape = rec
        .str("shape")
        .and_then(ShapeClass::from_str)
        .ok_or_else(|| bad(lineno, "unknown shape class"))?;
    let key = CellKey {
        dims: need(&rec, "dims", lineno)?,
        shape,
        scale_bucket: need(&rec, "scale_b", lineno)?,
        eps_bucket: need(&rec, "eps_b", lineno)?,
    };
    let settings: u32 = need(&rec, "settings", lineno)?;

    let Some(Value::Arr(list)) = rec.get("ranked") else {
        return Err(bad(lineno, "missing ranked list"));
    };
    let malformed = |_| bad(lineno, "malformed ranked list");
    let mut ranked = Vec::new();
    for item in json::parse_array(list).map_err(malformed)? {
        let Value::Obj(item) = item else {
            return Err(bad(lineno, "malformed ranked list"));
        };
        let m = json::Object::parse(item).map_err(malformed)?;
        let mechanism = m
            .str("m")
            .ok_or_else(|| bad(lineno, "mech record missing name"))?
            .to_string();
        let params = match m.get("params") {
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| bad(lineno, "params not a string"))?
                    .to_string(),
            ),
            None => None,
        };
        let Some(&Value::Bool(competitive)) = m.get("comp") else {
            return Err(bad(lineno, "missing or malformed \"comp\""));
        };
        ranked.push(MechRecord {
            mechanism,
            regret: need(&m, "regret", lineno)?,
            mean_error: need(&m, "mean", lineno)?,
            p95_error: need(&m, "p95", lineno)?,
            n: need(&m, "n", lineno)?,
            competitive,
            params,
        });
    }
    if ranked.is_empty() {
        return Err(bad(lineno, "cell with no mechanisms"));
    }
    Ok((key, Cell { ranked, settings }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{ManifestUnit, UnitId};
    use crate::results::ErrorSample;
    use crate::sink::ResultSink;

    fn setting(dataset: &str, scale: u64, eps: f64) -> Setting {
        Setting {
            dataset: dataset.into(),
            scale,
            domain: Domain::D1(256),
            epsilon: eps,
        }
    }

    /// Deterministic fabricated errors: alg "A" best at small scale,
    /// alg "B" best at large scale.
    fn fabricate(sink: &mut AggregatingSink, alg: &str, s: &Setting, base: f64) {
        let samples: Vec<ErrorSample> = (0..8)
            .map(|trial| ErrorSample {
                algorithm: alg.into(),
                setting: s.clone(),
                sample: 0,
                trial,
                error: base * (1.0 + 0.02 * (trial % 4) as f64),
            })
            .collect();
        let unit = ManifestUnit {
            id: UnitId(0),
            pos: 0,
            algorithm: alg.into(),
            setting: s.clone(),
            sample: 0,
        };
        sink.unit_complete(&unit, &samples).unwrap();
    }

    fn two_regime_profile() -> SelectionProfile {
        let mut sink = AggregatingSink::new();
        let small = setting("MEDCOST", 1_000, 0.1);
        let large = setting("MEDCOST", 1_000_000, 0.1);
        fabricate(&mut sink, "A", &small, 0.01);
        fabricate(&mut sink, "B", &small, 0.50);
        fabricate(&mut sink, "A", &large, 0.20);
        fabricate(&mut sink, "B", &large, 0.002);
        SelectionProfile::build(std::slice::from_ref(&sink))
    }

    #[test]
    fn buckets_are_exact_decades() {
        assert_eq!(scale_bucket(1), 0);
        assert_eq!(scale_bucket(999), 2);
        assert_eq!(scale_bucket(1_000), 3);
        assert_eq!(scale_bucket(10_000_000), 7);
        assert_eq!(eps_bucket(0.1), -1);
        assert_eq!(eps_bucket(0.09), -2);
        assert_eq!(eps_bucket(1.0), 0);
        assert_eq!(eps_bucket(10.0), 1);
    }

    #[test]
    fn winner_flips_across_cells() {
        let p = two_regime_profile();
        let q_small = SelectorQuery {
            domain: Domain::D1(256),
            shape: None,
            scale: 2_000,
            epsilon: 0.1,
        };
        let q_large = SelectorQuery {
            domain: Domain::D1(256),
            shape: None,
            scale: 3_000_000,
            epsilon: 0.1,
        };
        let r_small = p.lookup(&q_small).unwrap();
        let r_large = p.lookup(&q_large).unwrap();
        assert_eq!(r_small.confidence, Confidence::Exact);
        assert_eq!(r_small.cell.winner().mechanism, "A");
        assert_eq!(r_large.cell.winner().mechanism, "B");
        // Within their winning cells, the winner has regret 1.
        assert!((r_small.cell.winner().regret - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_cell_fallback_is_labeled() {
        let p = two_regime_profile();
        // ε two decades away from anything profiled.
        let q = SelectorQuery {
            domain: Domain::D1(256),
            shape: None,
            scale: 2_000,
            epsilon: 10.0,
        };
        let r = p.lookup(&q).unwrap();
        assert_eq!(r.confidence, Confidence::Near);
        assert!(r.distance >= 2, "distance {}", r.distance);
        assert!(r.reason().starts_with("near cell"), "{}", r.reason());
        // 2-D queries have no cells at all → None.
        let q2 = SelectorQuery {
            domain: Domain::D2(16, 16),
            shape: None,
            scale: 2_000,
            epsilon: 0.1,
        };
        assert!(p.lookup(&q2).is_none());
    }

    #[test]
    fn profile_roundtrips_byte_identically() {
        let p = two_regime_profile();
        let dir = std::env::temp_dir().join(format!("dpbench-selector-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("profile.json");
        p.write_file(&path).unwrap();
        let bytes1 = std::fs::read(&path).unwrap();
        let reread = SelectionProfile::read_file(&path).unwrap();
        assert_eq!(p, reread);
        reread.write_file(&path).unwrap();
        let bytes2 = std::fs::read(&path).unwrap();
        assert_eq!(bytes1, bytes2, "write → read → write must be stable");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reader_refuses_corruption() {
        let p = two_regime_profile();
        let dir = std::env::temp_dir().join(format!("dpbench-selector-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("profile.json");
        p.write_file(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // Unknown version.
        let bumped = text.replacen("\"v\":1", "\"v\":99", 1);
        std::fs::write(&path, &bumped).unwrap();
        assert!(SelectionProfile::read_file(&path).is_err());
        // Truncated cell list (header count mismatch).
        let mut lines: Vec<&str> = text.lines().collect();
        lines.pop();
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        assert!(SelectionProfile::read_file(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn summary_read_errors_name_the_file() {
        let missing = std::env::temp_dir().join(format!(
            "dpbench-selector-missing-{}.jsonl",
            std::process::id()
        ));
        let err = SelectionProfile::from_summary_files(&[&missing]).unwrap_err();
        assert!(
            err.to_string().contains(&missing.display().to_string()),
            "{err}"
        );
    }

    #[test]
    fn tuned_params_ride_along() {
        let mut sink = AggregatingSink::new();
        let s = setting("MEDCOST", 1_000, 0.1);
        fabricate(&mut sink, "MWEM*", &s, 0.01);
        fabricate(&mut sink, "IDENTITY", &s, 0.50);
        let p = SelectionProfile::build(std::slice::from_ref(&sink));
        let q = SelectorQuery {
            domain: Domain::D1(256),
            shape: Some(ShapeClass::of_dataset("MEDCOST")),
            scale: 1_000,
            epsilon: 0.1,
        };
        let r = p.lookup(&q).unwrap();
        let w = r.cell.winner();
        assert_eq!(w.mechanism, "MWEM*");
        // signal = 10^(3 + -1 + 1) = 1000 → mid-schedule T.
        assert_eq!(w.params.as_deref(), Some("T=10"));
        let identity = r.cell.ranked.iter().find(|m| m.mechanism == "IDENTITY");
        assert!(identity.unwrap().params.is_none());
    }

    /// AHP's tuned params contain a comma (`rho=…,eta=…`); the reader
    /// must not cut the quoted value at it (regression: the old scanner
    /// split on any top-level comma and rejected its own output).
    #[test]
    fn ahp_comma_params_roundtrip() {
        let mut sink = AggregatingSink::new();
        let s = setting("MEDCOST", 1_000, 0.1);
        fabricate(&mut sink, "AHP*", &s, 0.01);
        fabricate(&mut sink, "IDENTITY", &s, 0.50);
        let p = SelectionProfile::build(std::slice::from_ref(&sink));
        let cell = p.cells.values().next().unwrap();
        let ahp = cell.ranked.iter().find(|m| m.mechanism == "AHP*").unwrap();
        let params = ahp.params.as_deref().expect("AHP* carries tuned params");
        assert!(
            params.contains(','),
            "schedule params are comma-joined: {params}"
        );

        let dir = std::env::temp_dir().join(format!("dpbench-selector-ahp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("profile.json");
        p.write_file(&path).unwrap();
        let bytes1 = std::fs::read(&path).unwrap();
        let reread = SelectionProfile::read_file(&path).unwrap();
        assert_eq!(p, reread);
        reread.write_file(&path).unwrap();
        assert_eq!(bytes1, std::fs::read(&path).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }
}
