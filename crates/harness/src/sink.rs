//! Sink-based result pipeline: where a grid's error samples go.
//!
//! The runner no longer accumulates results and returns a store at the
//! end of the grid; its workers stream each completed unit through a
//! bounded channel to a single consumer that feeds a [`ResultSink`].
//! Sinks decide what to keep:
//!
//! * [`MemorySink`] — everything, in an index-backed
//!   [`ResultStore`] (the old behavior; what the figure binaries use);
//! * [`JsonlSink`] — append-only records on disk for larger-than-memory
//!   grids. Each completed unit writes its samples followed by a
//!   completion marker, and the file doubles as the **resume ledger**:
//!   [`read_units`] recovers the finished units after a crash;
//! * [`AggregatingSink`] — O(δ) state per (algorithm, setting) via the
//!   streaming Welford/t-digest [`StreamingSummary`] in `dpbench-stats`;
//!   its summaries **merge** ([`AggregatingSink::merge_from`]) and
//!   serialize to a compact sketch file. Every path folds a unit the
//!   same way ([`AggregatingSink::fold_unit`]): the live sink as units
//!   complete, a ledger read as it yields them ([`summary_from_ledger`]),
//!   and a merge as it writes them ([`merge_jsonl_into`]) — so a resumed
//!   run's and a fleet's `--agg` summaries match a one-shot run's byte
//!   for byte;
//! * [`Tee`] — fan out to several sinks at once.
//!
//! ## The JSONL format
//!
//! One self-describing JSON object per line, written by this module's
//! record templates and parsed by the shared strict reader in
//! [`dpbench_core::json`] (field order is fixed, strings are never
//! escaped — dataset and algorithm names are validated identifiers,
//! enforced at write time by
//! [`ExperimentConfig::validate`](crate::config::ExperimentConfig::validate) and
//! [`JsonlSink`]'s `begin`):
//!
//! ```text
//! {"t":"run","fp":"<16 hex>","n_trials":3,"cfg":"datasets=…;…"}  ← header
//! {"t":"s","unit":"<16 hex>","pos":7,"alg":"DAWA","dataset":"MEDCOST",
//!  "scale":100000,"domain":"4096","eps":0.1,"sample":0,"trial":2,
//!  "err":0.00123}                                      ← one sample
//! {"t":"u","unit":"<16 hex>","pos":7}                  ← unit completed
//! ```
//!
//! Floats are written with Rust's shortest round-trip formatting, so
//! parse → re-format reproduces the bytes exactly. Because the runner
//! emits units in manifest order, a fresh single-process run, a
//! cleanly interrupted-then-resumed run (append to the same file), and
//! [`merge_jsonl`]-combined shard files all yield **byte-identical**
//! JSONL — `diff` is a complete correctness check.
//!
//! ## Corruption policy
//!
//! Every ledger reader — [`read_units`] and the functions built on it
//! ([`read_ledger`], [`read_samples`], [`read_store`],
//! [`summary_from_ledger`]), and each input of [`merge_jsonl`] — reads
//! the file once, through one reader, under one rule set:
//!
//! * the run header is the first record, and any repeat of it agrees;
//! * a malformed line is tolerated only as the file's final content;
//! * unit markers ascend by manifest position (a repeated marker does
//!   not);
//! * a sample's `pos` matches its unit's marker;
//! * a completed unit holds exactly `n_trials` trials once duplicates
//!   (pre-crash orphans superseded by a resume's copy) are dropped.
//!
//! A dirty crash can tear the **final** line of the file mid-write; that
//! case is recoverable by construction (the per-unit flush discipline
//! means a torn line's unit has no completion marker and is re-run on
//! resume). One torn-tail rule, shared with the serve spend journal,
//! decides the heal while the reader streams past the tail: keep
//! everything through the last well-formed record plus the blank lines
//! right after it, cut from the first malformed line that no record
//! follows, and add a final newline if the kept part lacks one. The read
//! reports that heal point ([`Ledger::heal`]) and [`JsonlSink::append`]
//! applies it before resuming, keeping the healed file fully valid.
//! Anything else the rules refuse — a malformed line **followed by more
//! records**, a marker out of order, a unit short of a trial — can only
//! be real corruption (bit rot, manual edits, interleaved or
//! concatenated writers), and every reader turns it into a hard
//! `InvalidData` error carrying the line number instead of silently
//! skipping it — a benchmark must never convert corruption into
//! plausible numbers. A resume that would append a unit below the
//! ledger's last completed one is refused before it writes
//! ([`Ledger::resume_conflict`]), so the writers never produce a file
//! the readers reject.

use crate::config::{is_valid_identifier, Setting};
use crate::manifest::{ManifestUnit, RunManifest, UnitId};
use crate::results::{parse_domain, ErrorSample, ResultStore};
use dpbench_core::json::{self, Value};
use dpbench_stats::{Centroid, StreamingSummary, Summary, TDigest, Welford};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Consumer of a run's results, fed one completed unit at a time by the
/// runner's sink thread (single-threaded: implementations need no
/// internal locking, `Send` only because the consumer runs on a worker).
pub trait ResultSink: Send {
    /// Called once before any unit, with the manifest being executed
    /// (already shard/resume-filtered).
    fn begin(&mut self, manifest: &RunManifest) -> io::Result<()> {
        let _ = manifest;
        Ok(())
    }

    /// All trials of one completed unit, in trial order. Units arrive in
    /// manifest order regardless of worker scheduling.
    fn unit_complete(&mut self, unit: &ManifestUnit, samples: &[ErrorSample]) -> io::Result<()>;

    /// Called once after the last unit (also on early stop).
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// MemorySink
// ---------------------------------------------------------------------------

/// Keeps every sample in an index-backed [`ResultStore`].
#[derive(Debug, Default)]
pub struct MemorySink {
    store: ResultStore,
    completed: Vec<UnitId>,
}

impl MemorySink {
    /// Empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated store.
    pub fn store(&self) -> &ResultStore {
        &self.store
    }

    /// Ids of completed units, in completion (= manifest) order.
    pub fn completed(&self) -> &[UnitId] {
        &self.completed
    }

    /// Consume into the store.
    pub fn into_store(self) -> ResultStore {
        self.store
    }

    /// Take in a unit an earlier run completed, as [`read_units`] yields
    /// it from the ledger — the state a resumed run starts from.
    pub fn load(&mut self, unit: LedgerUnit) {
        self.completed.push(unit.id);
        self.store.extend(unit.samples);
    }
}

impl ResultSink for MemorySink {
    fn unit_complete(&mut self, unit: &ManifestUnit, samples: &[ErrorSample]) -> io::Result<()> {
        self.completed.push(unit.id);
        self.store.extend(samples.iter().cloned());
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// JsonlSink
// ---------------------------------------------------------------------------

/// Append-only JSONL writer; the file is both the result stream and the
/// resume ledger. Flushes after every unit so a crash loses at most the
/// unit in flight (whose samples, lacking a completion marker, are
/// ignored by the readers).
pub struct JsonlSink<W: Write + Send> {
    out: W,
    /// Write the `{"t":"run",…}` header on `begin` (false when appending
    /// to an existing ledger).
    write_header: bool,
}

impl JsonlSink<BufWriter<File>> {
    /// Create (truncate) `path`; `begin` writes a fresh header.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Ok(Self {
            out: BufWriter::new(File::create(path)?),
            write_header: true,
        })
    }

    /// Open `path` for append without a new header — the resume mode,
    /// continuing a ledger the caller has read. `heal` is that read's
    /// [`Ledger::heal`], applied before anything is written, so the
    /// ledger's bytes are not read again.
    ///
    /// A crash can tear the final line mid-write. The torn record's unit
    /// has no completion marker (per-unit flush writes the marker last),
    /// so cutting the fragment loses nothing, and the healed file stays
    /// fully parseable — which is what lets the readers treat any
    /// *mid-file* malformed line as hard corruption. A complete final
    /// record merely missing its newline is terminated instead.
    pub fn append<P: AsRef<Path>>(path: P, heal: Heal) -> io::Result<Self> {
        let mut file = OpenOptions::new().append(true).open(path)?;
        if file.metadata()?.len() > heal.len {
            file.set_len(heal.len)?;
        }
        if heal.newline {
            file.write_all(b"\n")?;
        }
        Ok(Self {
            out: BufWriter::new(file),
            write_header: false,
        })
    }
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wrap any writer (headers on `begin`); for tests and pipes.
    pub fn from_writer(out: W) -> Self {
        Self {
            out,
            write_header: true,
        }
    }
}

/// Serialize one sample to its canonical JSONL line (no trailing newline).
pub fn format_sample(unit: UnitId, pos: usize, s: &ErrorSample) -> String {
    format!(
        "{{\"t\":\"s\",\"unit\":\"{unit}\",\"pos\":{pos},\"alg\":\"{}\",\"dataset\":\"{}\",\"scale\":{},\"domain\":\"{}\",\"eps\":{},\"sample\":{},\"trial\":{},\"err\":{}}}",
        s.algorithm, s.setting.dataset, s.setting.scale, s.setting.domain, s.setting.epsilon,
        s.sample, s.trial, s.error
    )
}

fn format_unit_done(unit: UnitId, pos: usize) -> String {
    format!("{{\"t\":\"u\",\"unit\":\"{unit}\",\"pos\":{pos}}}")
}

fn format_header(fingerprint: u64, n_trials: usize, cfg: Option<&str>) -> String {
    match cfg {
        Some(cfg) => format!(
            "{{\"t\":\"run\",\"fp\":\"{fingerprint:016x}\",\"n_trials\":{n_trials},\"cfg\":\"{cfg}\"}}"
        ),
        None => format!("{{\"t\":\"run\",\"fp\":\"{fingerprint:016x}\",\"n_trials\":{n_trials}}}"),
    }
}

/// Reject a manifest whose identifiers (or config summary) the
/// escape-free JSONL writer cannot represent — fail before the first
/// ledger byte instead of producing an unreadable file.
fn validate_manifest_for_jsonl(manifest: &RunManifest) -> io::Result<()> {
    let invalid = |what: String| io::Error::new(io::ErrorKind::InvalidInput, what);
    if manifest
        .config_summary
        .bytes()
        .any(|b| b == b'"' || b == b'\\' || b.is_ascii_control())
    {
        return Err(invalid(format!(
            "config summary {:?} contains characters the ledger cannot escape",
            manifest.config_summary
        )));
    }
    let mut seen: HashSet<&str> = HashSet::new();
    for u in &manifest.units {
        for name in [u.algorithm.as_str(), u.setting.dataset.as_str()] {
            if seen.insert(name) && !is_valid_identifier(name) {
                return Err(invalid(format!(
                    "cannot write ledger: invalid identifier {name:?} \
                     (dataset/algorithm names must match [A-Za-z0-9_*-]+)"
                )));
            }
        }
    }
    Ok(())
}

impl<W: Write + Send> ResultSink for JsonlSink<W> {
    fn begin(&mut self, manifest: &RunManifest) -> io::Result<()> {
        validate_manifest_for_jsonl(manifest)?;
        if self.write_header {
            writeln!(
                self.out,
                "{}",
                format_header(
                    manifest.fingerprint,
                    manifest.n_trials,
                    Some(&manifest.config_summary)
                )
            )?;
        }
        Ok(())
    }

    fn unit_complete(&mut self, unit: &ManifestUnit, samples: &[ErrorSample]) -> io::Result<()> {
        for s in samples {
            writeln!(self.out, "{}", format_sample(unit.id, unit.pos, s))?;
        }
        writeln!(self.out, "{}", format_unit_done(unit.id, unit.pos))?;
        // Per-unit durability: the ledger is only as crash-safe as its
        // last flushed marker.
        self.out.flush()
    }

    fn finish(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

// ---------------------------------------------------------------------------
// AggregatingSink
// ---------------------------------------------------------------------------

/// O(δ)-per-group aggregation: one mergeable [`StreamingSummary`] per
/// (algorithm, setting). The sink for grids whose raw sample set exceeds
/// memory but whose report is per-setting statistics. Shard summaries
/// serialize ([`AggregatingSink::write_summary`]) and combine
/// ([`AggregatingSink::merge_from`]) without touching raw samples.
#[derive(Debug, Default)]
pub struct AggregatingSink {
    groups: BTreeMap<(String, String), (Setting, StreamingSummary)>,
    samples_seen: u64,
    /// Fingerprint of the run being aggregated (captured in `begin`),
    /// guarding cross-run merges the way ledger headers do.
    fingerprint: Option<u64>,
    n_trials: usize,
}

impl AggregatingSink {
    /// Empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total samples consumed.
    pub fn samples_seen(&self) -> u64 {
        self.samples_seen
    }

    /// Fingerprint of the aggregated run (None before `begin`).
    pub fn fingerprint(&self) -> Option<u64> {
        self.fingerprint
    }

    /// Per-group streaming summaries, ordered by algorithm then setting
    /// key. Percentiles are t-digest estimates within the documented
    /// tolerance (see `dpbench_stats::tdigest`).
    pub fn summaries(&self) -> Vec<(String, Setting, Summary)> {
        self.groups
            .iter()
            .map(|((alg, _), (setting, s))| (alg.clone(), setting.clone(), s.to_summary()))
            .collect()
    }

    /// Iterate the live per-group streaming summaries (algorithm,
    /// setting, summary), ordered by algorithm then setting key. Unlike
    /// [`AggregatingSink::summaries`] this exposes the mergeable state
    /// itself, so consumers (the selector's profile builder) can pool
    /// groups across runs with different fingerprints — a combination
    /// [`AggregatingSink::merge_from`] deliberately refuses.
    pub fn groups(&self) -> impl Iterator<Item = (&str, &Setting, &StreamingSummary)> {
        self.groups
            .iter()
            .map(|((alg, _), (setting, s))| (alg.as_str(), setting, s))
    }

    /// Streaming mean of one (algorithm, setting) group (NaN if absent).
    pub fn mean_error(&self, algorithm: &str, setting: &Setting) -> f64 {
        self.groups
            .get(&(algorithm.to_string(), setting.to_string()))
            .map(|(_, s)| s.mean())
            .unwrap_or(f64::NAN)
    }

    /// Absorb another sink's aggregation: afterwards every group
    /// summarizes the union of both sample streams (exact counts and
    /// moments, digest-tolerance quantiles). Errors when the two sinks
    /// aggregated different runs.
    pub fn merge_from(&mut self, other: &AggregatingSink) -> io::Result<()> {
        if let (Some(a), Some(b)) = (self.fingerprint, other.fingerprint) {
            if a != b {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "cannot merge summaries from different runs (fingerprint mismatch)",
                ));
            }
            if self.n_trials != other.n_trials {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "cannot merge summaries that disagree on n_trials",
                ));
            }
        }
        if self.fingerprint.is_none() {
            self.fingerprint = other.fingerprint;
            self.n_trials = other.n_trials;
        }
        self.samples_seen += other.samples_seen;
        for (key, (setting, summary)) in &other.groups {
            match self.groups.entry(key.clone()) {
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    e.get_mut().1.merge(summary);
                }
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert((setting.clone(), summary.clone()));
                }
            }
        }
        Ok(())
    }

    /// Serialize the aggregation state as compact JSONL: an `agg` header
    /// followed by one `g` record per (algorithm, setting) group carrying
    /// exact moments (Welford n/mean/M2, min/max) and the t-digest
    /// centroid list. Round-trips exactly through [`read_summary`]
    /// (floats use shortest round-trip formatting).
    pub fn write_summary<W: Write>(&mut self, out: &mut W) -> io::Result<()> {
        let fp = self.fingerprint.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "summary has no run fingerprint (the sink never began a run)",
            )
        })?;
        writeln!(
            out,
            "{{\"t\":\"agg\",\"fp\":\"{fp:016x}\",\"n_trials\":{},\"samples\":{}}}",
            self.n_trials, self.samples_seen
        )?;
        for ((alg, _), entry) in self.groups.iter_mut() {
            let (setting, summary) = entry;
            let w = *summary.welford();
            let (min, max) = (summary.min(), summary.max());
            let digest = summary.digest_mut();
            let comp = digest.compression();
            let cent: Vec<String> = digest
                .centroids()
                .iter()
                .map(|c| format!("[{},{}]", c.mean, c.weight))
                .collect();
            writeln!(
                out,
                "{{\"t\":\"g\",\"alg\":\"{alg}\",\"dataset\":\"{}\",\"scale\":{},\"domain\":\"{}\",\"eps\":{},\"n\":{},\"mean\":{},\"m2\":{},\"min\":{min},\"max\":{max},\"comp\":{comp},\"cent\":[{}]}}",
                setting.dataset,
                setting.scale,
                setting.domain,
                setting.epsilon,
                w.count(),
                w.mean(),
                w.m2(),
                cent.join(",")
            )?;
        }
        out.flush()
    }

    /// Convenience: [`AggregatingSink::write_summary`] to a file —
    /// atomically ([`atomic_write`]), so a concurrent reader (a
    /// dashboard, a `recommend` run) never observes a torn half-written
    /// summary.
    pub fn write_summary_file<P: AsRef<Path>>(&mut self, path: P) -> io::Result<()> {
        let mut buf = Vec::new();
        self.write_summary(&mut buf)?;
        atomic_write(path.as_ref(), &buf)
    }

    /// Start (or continue) aggregating the run `fingerprint`; refuses a
    /// sink that already holds a different run's summaries.
    fn begin_run(&mut self, fingerprint: u64, n_trials: usize) -> io::Result<()> {
        if self.fingerprint.is_some_and(|fp| fp != fingerprint) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "aggregating sink already holds a different run's summaries",
            ));
        }
        self.fingerprint = Some(fingerprint);
        self.n_trials = n_trials;
        Ok(())
    }

    /// Fold one completed unit's samples, in order, into their
    /// (algorithm, setting) groups — the one fold behind the live sink,
    /// a ledger read and a merge, so all three produce the same summary
    /// from the same units in the same (manifest) order.
    pub fn fold_unit(&mut self, samples: &[ErrorSample]) {
        // A unit's samples share one (algorithm, setting): one key build
        // and one map lookup per unit, then O(1) pushes. Chunking by key
        // keeps a doctored unit's strays in their own groups.
        for run in samples.chunk_by(|a, b| a.algorithm == b.algorithm && a.setting == b.setting) {
            let key = &run[0];
            let group = self
                .groups
                .entry((key.algorithm.clone(), key.setting.to_string()))
                .or_insert_with(|| (key.setting.clone(), StreamingSummary::new()));
            for s in run {
                group.1.push(s.error);
            }
            self.samples_seen += run.len() as u64;
        }
    }
}

/// Rebuild an [`AggregatingSink`] from a JSONL ledger's completed units,
/// in one read, in manifest order — the order a streaming run folds
/// them, so the written summary is byte-identical to the streamed one.
pub fn summary_from_ledger<P: AsRef<Path>>(path: P) -> io::Result<AggregatingSink> {
    let mut sink = AggregatingSink::new();
    let ledger = read_units(path, |unit| sink.fold_unit(&unit.samples))?;
    sink.begin_run(ledger.fingerprint, ledger.n_trials)?;
    Ok(sink)
}

/// Write `path` through `write` into a sibling temp file and rename it
/// over `path` only once everything is written, so a polling reader can
/// never observe a torn or half-written file and a failed write leaves
/// an existing `path` untouched — the producer-side dual of the strict
/// readers' corruption policy. Used for every whole file the fleet and
/// `merge` emit (the `--status-file` feed, summaries, merged ledgers);
/// the append-only ledgers keep their flush-per-unit discipline instead,
/// because their readers are torn-tail-aware by design.
fn replace_file<T>(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> io::Result<T>,
) -> io::Result<T> {
    let tmp = path.with_file_name(format!(
        "{}.tmp",
        path.file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default()
    ));
    let result = File::create(&tmp)
        .and_then(|f| {
            let mut w = BufWriter::new(f);
            let written = write(&mut w)?;
            w.flush()?;
            Ok(written)
        })
        .and_then(|written| std::fs::rename(&tmp, path).map(|()| written));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Replace `path` with `bytes` through a sibling temp file and a rename,
/// so a reader sees the old file or the new one, never a torn one.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    replace_file(path, |w| w.write_all(bytes))
}

/// A [`ResultSink`] wrapper that sleeps for a fixed duration before
/// forwarding each completed unit — the slow-machine simulator behind
/// `dpbench run --unit-delay-ms` and the fleet's straggler drills. The
/// sleep happens in small increments so an optional cancel flag (a kill
/// from the fleet driver) interrupts promptly; a cancelled unit is *not*
/// forwarded, exactly like a worker killed mid-computation.
pub struct Throttle<'a> {
    inner: &'a mut dyn ResultSink,
    per_unit: std::time::Duration,
    cancel: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
}

impl<'a> Throttle<'a> {
    /// Wrap `inner`, delaying each unit by `per_unit`.
    pub fn new(inner: &'a mut dyn ResultSink, per_unit: std::time::Duration) -> Self {
        Self {
            inner,
            per_unit,
            cancel: None,
        }
    }

    /// Abort (with an `Interrupted` error) when the flag goes true
    /// mid-sleep.
    pub fn with_cancel(mut self, cancel: std::sync::Arc<std::sync::atomic::AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }
}

impl ResultSink for Throttle<'_> {
    fn begin(&mut self, manifest: &RunManifest) -> io::Result<()> {
        self.inner.begin(manifest)
    }

    fn unit_complete(&mut self, unit: &ManifestUnit, samples: &[ErrorSample]) -> io::Result<()> {
        let mut remaining = self.per_unit;
        let slice = std::time::Duration::from_millis(5);
        while !remaining.is_zero() {
            if let Some(cancel) = &self.cancel {
                if cancel.load(std::sync::atomic::Ordering::Relaxed) {
                    return Err(io::Error::new(
                        io::ErrorKind::Interrupted,
                        "throttled unit cancelled",
                    ));
                }
            }
            let step = remaining.min(slice);
            std::thread::sleep(step);
            remaining -= step;
        }
        self.inner.unit_complete(unit, samples)
    }

    fn finish(&mut self) -> io::Result<()> {
        self.inner.finish()
    }
}

/// Merge the summary files of one run's disjoint shards into one
/// [`AggregatingSink`], combining sketches instead of re-reading samples.
/// Merged moments and digests agree with a single stream's within
/// floating-point and digest tolerance, not bit for bit — which is why
/// `fleet --agg` folds the merged samples in manifest order
/// ([`merge_jsonl_into`]) instead.
pub fn merge_summary_files<P: AsRef<Path>>(inputs: &[P]) -> io::Result<AggregatingSink> {
    if inputs.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "no summary files to merge",
        ));
    }
    let mut merged = AggregatingSink::new();
    for path in inputs {
        merged.merge_from(&read_summary(path)?)?;
    }
    Ok(merged)
}

impl ResultSink for AggregatingSink {
    fn begin(&mut self, manifest: &RunManifest) -> io::Result<()> {
        self.begin_run(manifest.fingerprint, manifest.n_trials)
    }

    fn unit_complete(&mut self, _unit: &ManifestUnit, samples: &[ErrorSample]) -> io::Result<()> {
        self.fold_unit(samples);
        Ok(())
    }
}

/// Parse a summary file written by [`AggregatingSink::write_summary`].
/// Summary files are rewritten whole (not appended), so *any* malformed
/// line is an `InvalidData` error — there is no torn-tail tolerance here.
pub fn read_summary<P: AsRef<Path>>(path: P) -> io::Result<AggregatingSink> {
    let mut sink = AggregatingSink::new();
    let mut group_count: u64 = 0;
    for (i, line) in BufReader::new(File::open(path)?).lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let rec = json::Object::parse(&line).map_err(|_| bad(i, "malformed summary record"))?;
        match rec.str("t") {
            Some("agg") => {
                let fp = rec
                    .str("fp")
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
                    .ok_or_else(|| bad(i, "bad summary header fingerprint"))?;
                if sink.fingerprint.is_some() {
                    return Err(bad(i, "duplicate summary header"));
                }
                sink.fingerprint = Some(fp);
                sink.n_trials = rec
                    .num("n_trials")
                    .ok_or_else(|| bad(i, "bad summary header n_trials"))?;
                sink.samples_seen = rec
                    .num("samples")
                    .ok_or_else(|| bad(i, "bad summary header sample count"))?;
            }
            Some("g") => {
                if sink.fingerprint.is_none() {
                    return Err(bad(i, "group record before summary header"));
                }
                let (alg, setting, summary) =
                    parse_group(&rec).ok_or_else(|| bad(i, "malformed group record"))?;
                group_count += summary.count();
                if sink
                    .groups
                    .insert((alg, setting.to_string()), (setting, summary))
                    .is_some()
                {
                    return Err(bad(i, "duplicate group record"));
                }
            }
            _ => return Err(bad(i, "unrecognized summary record")),
        }
    }
    if sink.fingerprint.is_none() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "summary file has no header",
        ));
    }
    if group_count != sink.samples_seen {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "summary header claims {} samples but groups hold {group_count}",
                sink.samples_seen
            ),
        ));
    }
    Ok(sink)
}

/// Parse one `{"t":"g",…}` summary group record.
fn parse_group(rec: &json::Object) -> Option<(String, Setting, StreamingSummary)> {
    let alg = rec.str("alg")?.to_string();
    let setting = parse_setting(rec)?;
    let n: u64 = rec.num("n")?;
    let (min, max) = (rec.num("min")?, rec.num("max")?);
    // `"cent":[[mean,weight],…]`: the nested arrays are re-read by the
    // same reader.
    let Some(Value::Arr(cent)) = rec.get("cent") else {
        return None;
    };
    let mut centroids = Vec::new();
    for pair in json::parse_array(cent).ok()? {
        let Value::Arr(pair) = pair else {
            return None;
        };
        let pair = json::parse_array(pair).ok()?;
        let [mean, weight] = pair.as_slice() else {
            return None;
        };
        centroids.push(Centroid {
            mean: mean.parse()?,
            weight: weight.parse()?,
        });
    }
    let digest = TDigest::from_parts(rec.num("comp")?, min, max, centroids);
    if digest.count() != n {
        return None; // weights disagree with the moment count
    }
    let welford = Welford::from_parts(n, rec.num("mean")?, rec.num("m2")?);
    Some((
        alg,
        setting,
        StreamingSummary::from_parts(welford, min, max, digest),
    ))
}

// ---------------------------------------------------------------------------
// Tee
// ---------------------------------------------------------------------------

/// Fan a run out to several sinks (e.g. a summary table in memory plus a
/// JSONL ledger on disk).
#[derive(Default)]
pub struct Tee<'a> {
    sinks: Vec<&'a mut dyn ResultSink>,
}

impl<'a> Tee<'a> {
    /// Tee over the given sinks.
    pub fn new(sinks: Vec<&'a mut dyn ResultSink>) -> Self {
        Self { sinks }
    }
}

impl ResultSink for Tee<'_> {
    fn begin(&mut self, manifest: &RunManifest) -> io::Result<()> {
        self.sinks.iter_mut().try_for_each(|s| s.begin(manifest))
    }

    fn unit_complete(&mut self, unit: &ManifestUnit, samples: &[ErrorSample]) -> io::Result<()> {
        self.sinks
            .iter_mut()
            .try_for_each(|s| s.unit_complete(unit, samples))
    }

    fn finish(&mut self) -> io::Result<()> {
        self.sinks.iter_mut().try_for_each(|s| s.finish())
    }
}

// ---------------------------------------------------------------------------
// JSONL readers
// ---------------------------------------------------------------------------

/// What a ledger (JSONL file) knows about a partially- or fully-completed
/// run.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// Run fingerprint from the header.
    pub fingerprint: u64,
    /// Trials per unit from the header.
    pub n_trials: usize,
    /// Config summary from the header (absent in pre-`cfg` ledgers) —
    /// lets a fingerprint mismatch name the diverging field via
    /// [`crate::config::summary_diff`].
    pub cfg: Option<String>,
    /// Units with a completion marker.
    pub done: HashSet<UnitId>,
    /// Manifest position of the last completed unit — the highest, since
    /// markers ascend — or `None` when no unit completed.
    pub last_pos: Option<usize>,
    /// Where the torn-tail rule cuts this file; [`JsonlSink::append`]
    /// applies it.
    pub heal: Heal,
}

impl Ledger {
    /// `(first pending, last completed)` manifest positions when resuming
    /// `manifest` over this ledger would append a unit below the ledger's
    /// last completed one — a ledger written for another shard or span,
    /// whose resumed markers no reader would accept — and `None` when the
    /// resume appends in manifest order.
    pub fn resume_conflict(&self, manifest: &RunManifest) -> Option<(usize, usize)> {
        let last = self.last_pos?;
        let first = manifest
            .units
            .iter()
            .find(|u| !self.done.contains(&u.id))?
            .pos;
        (first < last).then_some((first, last))
    }
}

/// One completed unit, as the ledger reader yields it.
#[derive(Debug, Clone)]
pub struct LedgerUnit {
    /// Manifest position, from the unit's completion marker.
    pub pos: usize,
    /// Unit id.
    pub id: UnitId,
    /// The unit's `n_trials` samples, deduplicated (last occurrence wins)
    /// and in trial order.
    pub samples: Vec<ErrorSample>,
}

pub(crate) fn bad(line_no: usize, what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("jsonl line {}: {what}", line_no + 1),
    )
}

/// One fully-validated ledger line.
enum Line {
    /// `{"t":"run",…}` file header.
    Header {
        fingerprint: u64,
        n_trials: usize,
        cfg: Option<String>,
    },
    /// `{"t":"u",…}` unit-completion marker.
    UnitDone { id: UnitId, pos: usize },
    /// `{"t":"s",…}` sample record.
    Sample {
        id: UnitId,
        pos: usize,
        sample: ErrorSample,
    },
    /// Whitespace only.
    Blank,
    /// Anything that fails to parse completely — tolerable only as the
    /// torn final line of a crashed file.
    Malformed(&'static str),
}

/// Classify (and fully parse) one line. The ledger reader (and with it
/// the heal point [`JsonlSink::append`] applies), the progress probe and
/// the fleet's header check all share this, so "well-formed" means the
/// same thing to each.
fn classify(line: &str) -> Line {
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return Line::Blank;
    }
    // The strict reader wants the whole object, closing brace included,
    // and a crash tear removes it. That matters because a numeric tail
    // torn to a *shorter valid number* (`"pos":15}` → `"pos":1`) would
    // otherwise still parse, recording a unit marker at the wrong
    // manifest position.
    let Ok(rec) = json::Object::parse(trimmed) else {
        return Line::Malformed("truncated or malformed record");
    };
    match rec.str("t") {
        Some("run") => {
            let fp = rec.str("fp").and_then(|s| u64::from_str_radix(s, 16).ok());
            match (fp, rec.num("n_trials")) {
                (Some(fingerprint), Some(n_trials)) => Line::Header {
                    fingerprint,
                    n_trials,
                    cfg: rec.str("cfg").map(str::to_string),
                },
                _ => Line::Malformed("malformed run header"),
            }
        }
        Some("u") => {
            let id = rec.str("unit").and_then(UnitId::parse);
            match (id, rec.num("pos")) {
                (Some(id), Some(pos)) => Line::UnitDone { id, pos },
                _ => Line::Malformed("malformed unit marker"),
            }
        }
        Some("s") => match (rec.str("unit").and_then(UnitId::parse), parse_sample(&rec)) {
            (Some(id), Some((pos, sample))) => Line::Sample { id, pos, sample },
            _ => Line::Malformed("malformed sample record"),
        },
        _ => Line::Malformed("unrecognized record"),
    }
}

/// Fingerprint of the ledger's first line when it is a complete
/// (newline-terminated) well-formed header — the one-line read the fleet
/// driver uses to spot a foreign ledger mid-poll.
pub(crate) fn header_fingerprint(path: &Path) -> Option<u64> {
    let mut line = String::new();
    BufReader::new(File::open(path).ok()?)
        .read_line(&mut line)
        .ok()?;
    match classify(line.strip_suffix('\n')?) {
        Line::Header { fingerprint, .. } => Some(fingerprint),
        _ => None,
    }
}

/// Where a log's torn tail is cut, as the torn-tail rule (see the module
/// docs) decides it: [`read_units`] reports it on [`Ledger::heal`] and
/// [`JsonlSink::append`] applies it. Only a read makes one.
#[derive(Debug, Clone, Copy)]
pub struct Heal {
    /// Bytes kept from the start of the file.
    pub(crate) len: u64,
    /// The kept part ends without a newline, so one is added.
    pub(crate) newline: bool,
}

/// The torn-tail rule of both append-only logs, the result ledger and the
/// serve spend journal. Each reader feeds it every line in order,
/// classified by its own grammar. A malformed line is held, and becomes a
/// hard error only if a record follows it. The heal point keeps
/// everything through the last well-formed record plus the blank lines
/// right after it, and cuts from the first malformed line that no record
/// follows.
pub(crate) struct TornTail {
    /// The error the held malformed line becomes if a record follows it.
    held: Option<io::Error>,
    /// Bytes fed so far.
    read: u64,
    heal: Heal,
}

impl TornTail {
    pub(crate) fn new() -> Self {
        Self {
            held: None,
            read: 0,
            heal: Heal {
                len: 0,
                newline: false,
            },
        }
    }

    /// Step past one line (`raw`, newline included), moving the heal
    /// point to its end when it is `kept`.
    fn advance(&mut self, raw: &[u8], kept: bool) {
        self.read += raw.len() as u64;
        if kept {
            self.heal = Heal {
                len: self.read,
                newline: raw.last() != Some(&b'\n'),
            };
        }
    }

    /// A blank line: kept unless a malformed line is held.
    pub(crate) fn blank(&mut self, raw: &[u8]) {
        self.advance(raw, self.held.is_none());
    }

    /// A malformed line (`line_no` counts from 0): cut, and held against
    /// a record that may follow it.
    pub(crate) fn malformed(&mut self, line_no: usize, raw: &[u8], what: &str) {
        self.advance(raw, false);
        self.held = Some(bad(
            line_no,
            &format!("{what} followed by further records (mid-file corruption; only a torn final line is tolerated)"),
        ));
    }

    /// A well-formed record: any held malformed line was mid-file, i.e.
    /// real corruption.
    pub(crate) fn record(&mut self, raw: &[u8]) -> io::Result<()> {
        if let Some(e) = self.held.take() {
            return Err(e);
        }
        self.advance(raw, true);
        Ok(())
    }

    pub(crate) fn heal(&self) -> Heal {
        self.heal
    }
}

/// Read a ledger once, handing each completed unit to `visit` in
/// ascending manifest position, and return what the ledger knows. This
/// is the one ledger reader: [`read_ledger`], [`read_samples`],
/// [`read_store`] and [`summary_from_ledger`] are this pass with other
/// visitors, and the merge reads each input through the same stream, so
/// all of them accept and refuse the same files (the rules are in the
/// module docs).
///
/// Crash tolerance: samples of units without a completion marker
/// (in flight at a crash) are dropped — they will be re-run on resume.
/// But a crash can also leave *orphans of units that later complete*: a
/// `BufWriter` auto-flush can land part of a unit's samples on disk
/// before the crash, and the resume re-runs the unit and appends a
/// second (complete) copy plus the marker. Duplicates are resolved by
/// `(sample-index, trial)` within the unit with the **last** occurrence
/// winning — the resume's authoritative rewrite supersedes any
/// pre-crash orphan (per-coordinate RNG makes the values bit-identical
/// anyway; deduplication fixes the *count*). A torn line is tolerated
/// only as the file's final content, and [`Ledger::heal`] says where the
/// torn-tail rule cuts it. A file without a single well-formed record
/// (empty, or only a torn fragment) is an `UnexpectedEof` error.
pub fn read_units<P: AsRef<Path>>(
    path: P,
    mut visit: impl FnMut(LedgerUnit),
) -> io::Result<Ledger> {
    let mut stream = UnitStream::open(path.as_ref())?;
    let mut done = HashSet::new();
    while let Some(unit) = stream.take()? {
        done.insert(unit.id);
        visit(unit);
    }
    let (fingerprint, n_trials, cfg) = stream.header().clone();
    Ok(Ledger {
        fingerprint,
        n_trials,
        cfg,
        done,
        last_pos: stream.last_pos,
        heal: stream.torn.heal(),
    })
}

/// Parse a ledger/result file: header plus the set of completed units
/// ([`read_units`] without a visitor).
pub fn read_ledger<P: AsRef<Path>>(path: P) -> io::Result<Ledger> {
    read_units(path, drop)
}

/// Read every sample belonging to a **completed** unit, keyed by
/// `(unit id, manifest position)`, in manifest order ([`read_units`]).
pub fn read_samples<P: AsRef<Path>>(path: P) -> io::Result<Vec<(UnitId, usize, ErrorSample)>> {
    let mut out = Vec::new();
    read_units(path, |unit| {
        out.extend(unit.samples.into_iter().map(|s| (unit.id, unit.pos, s)));
    })?;
    Ok(out)
}

/// Load the completed samples of a JSONL file into a [`ResultStore`]
/// (canonical — manifest — order; [`read_units`]).
pub fn read_store<P: AsRef<Path>>(path: P) -> io::Result<ResultStore> {
    let mut store = ResultStore::new();
    read_units(path, |unit| store.extend(unit.samples))?;
    Ok(store)
}

/// Result of one incremental [`probe_ledger`] pass.
#[derive(Debug, Clone, Default)]
pub struct LedgerProbe {
    /// Byte offset just past the last complete line consumed — pass it
    /// back as `from_offset` next time.
    pub offset: u64,
    /// Completed-unit ids seen in the newly consumed lines (duplicates
    /// possible across probes after a rewind; callers accumulate into a
    /// set).
    pub units: Vec<UnitId>,
    /// The file was shorter than `from_offset` (truncated, healed, or
    /// recreated since the last probe) and the scan restarted from 0.
    pub rewound: bool,
}

/// How every unit-completion marker line starts ([`format_unit_done`]).
const UNIT_MARKER_PREFIX: &[u8] = b"{\"t\":\"u\",";

/// Incremental progress probe over a ledger that may be **live** (a
/// shard is appending to it right now) or a **partial copy** (a fetched
/// snapshot of a remote shard's ledger, possibly torn anywhere).
///
/// Reads complete lines starting at `from_offset` and reports the
/// completion markers among them, parsing only lines that start the way
/// [`JsonlSink`] writes a marker. Deliberately *lenient* where
/// [`read_ledger`] is strict: a probe races the writer by design, so an
/// incomplete trailing line is simply left unconsumed (the returned
/// offset stops before it) and a malformed line is skipped rather than
/// fatal — progress reporting must never abort a healthy fleet. The
/// probe is advisory: the strict readers remain the arbiters of ledger
/// validity at merge time.
pub fn probe_ledger(path: &Path, from_offset: u64) -> io::Result<LedgerProbe> {
    use std::io::{Read, Seek, SeekFrom};
    let mut file = File::open(path)?;
    let len = file.metadata()?.len();
    let (start, rewound) = if len < from_offset {
        (0, true)
    } else {
        (from_offset, false)
    };
    if start > 0 {
        file.seek(SeekFrom::Start(start))?;
    }
    let mut reader = BufReader::new(file.take(len - start));
    let mut probe = LedgerProbe {
        offset: start,
        units: Vec::new(),
        rewound,
    };
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let n = reader.read_until(b'\n', &mut buf)?;
        if n == 0 {
            break;
        }
        if buf.last() != Some(&b'\n') {
            // Incomplete tail (mid-append or torn copy): leave it for a
            // later probe; the offset stops before it.
            break;
        }
        // Only marker lines are parsed: sample lines, nearly all of a
        // ledger's bytes, are skipped by their tag.
        if buf.starts_with(UNIT_MARKER_PREFIX) {
            if let Line::UnitDone { id, .. } = classify(&String::from_utf8_lossy(&buf)) {
                probe.units.push(id);
            }
        }
        probe.offset += n as u64;
    }
    Ok(probe)
}

/// Parse the setting fields shared by sample and summary-group records.
fn parse_setting(rec: &json::Object) -> Option<Setting> {
    Some(Setting {
        dataset: rec.str("dataset")?.to_string(),
        scale: rec.num("scale")?,
        domain: parse_domain(rec.str("domain")?)?,
        epsilon: rec.num("eps")?,
    })
}

/// Parse one `{"t":"s",…}` record; `None` when any field is missing or
/// malformed (a torn write).
fn parse_sample(rec: &json::Object) -> Option<(usize, ErrorSample)> {
    let sample = ErrorSample {
        algorithm: rec.str("alg")?.to_string(),
        setting: parse_setting(rec)?,
        sample: rec.num("sample")?,
        trial: rec.num("trial")?,
        error: rec.num("err")?,
    };
    Some((rec.num("pos")?, sample))
}

// ---------------------------------------------------------------------------
// Streaming k-way merge
// ---------------------------------------------------------------------------

/// The ledger reader behind [`read_units`] and each input of the k-way
/// merge. It reads the file once, applies the module's rule set as it
/// streams, and yields completed units in ascending manifest position,
/// holding in memory only the samples of units whose completion marker
/// has not streamed past yet (normally exactly one unit; more only for
/// pre-crash orphans and units in flight at a crash).
struct UnitStream {
    reader: BufReader<File>,
    /// The line being read (newline included), reused across lines.
    line: Vec<u8>,
    /// Lines read so far.
    lines_read: usize,
    /// The run header (fingerprint, `n_trials`, config summary), once
    /// read.
    header: Option<(u64, usize, Option<String>)>,
    /// Samples (with their claimed manifest position) awaiting their
    /// unit's completion marker.
    pending: HashMap<UnitId, Vec<(usize, ErrorSample)>>,
    /// Position of the last completed unit read (ascending-order guard —
    /// also rejects duplicate markers).
    last_pos: Option<usize>,
    torn: TornTail,
    /// Lookahead: the next completed unit, if any.
    head: Option<LedgerUnit>,
}

/// Prefix an error with the name of the input it came from.
fn named(path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

impl UnitStream {
    /// Open `path` and read up to its first completed unit. The run
    /// header must be the first record (every writer puts it there).
    fn open(path: &Path) -> io::Result<Self> {
        let mut s = Self {
            reader: BufReader::new(File::open(path)?),
            line: Vec::new(),
            lines_read: 0,
            header: None,
            pending: HashMap::new(),
            last_pos: None,
            torn: TornTail::new(),
            head: None,
        };
        s.head = s.next_unit()?;
        if s.header.is_none() {
            // Not one well-formed record: a writer died before its first
            // line landed (or nothing was written).
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "ledger has no run header",
            ));
        }
        Ok(s)
    }

    fn header(&self) -> &(u64, usize, Option<String>) {
        self.header
            .as_ref()
            .expect("open refuses a ledger without a header")
    }

    /// Advance to the next completed unit.
    fn next_unit(&mut self) -> io::Result<Option<LedgerUnit>> {
        loop {
            self.line.clear();
            if self.reader.read_until(b'\n', &mut self.line)? == 0 {
                return Ok(None);
            }
            let i = self.lines_read;
            self.lines_read += 1;
            let text = std::str::from_utf8(&self.line).map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    "stream did not contain valid UTF-8",
                )
            })?;
            let cls = classify(text);
            match cls {
                Line::Blank => {
                    self.torn.blank(&self.line);
                    continue;
                }
                // Tolerated only as the file's final content.
                Line::Malformed(what) => {
                    self.torn.malformed(i, &self.line, what);
                    continue;
                }
                _ => self.torn.record(&self.line)?,
            }
            match cls {
                Line::Header {
                    fingerprint,
                    n_trials,
                    cfg,
                } => {
                    let header = (fingerprint, n_trials, cfg);
                    match &self.header {
                        None => self.header = Some(header),
                        Some(first) if *first != header => {
                            return Err(bad(i, "conflicting run headers"));
                        }
                        Some(_) => {}
                    }
                }
                _ if self.header.is_none() => {
                    return Err(bad(i, "record before the run header"));
                }
                // Samples of a unit that never completes in this file
                // (in flight at a crash) wait here until EOF and are
                // dropped: the completing copy lives in another input or
                // a future resume.
                Line::Sample { id, pos, sample } => {
                    self.pending.entry(id).or_default().push((pos, sample));
                }
                Line::UnitDone { id, pos } => {
                    if self.last_pos.is_some_and(|last| pos <= last) {
                        return Err(bad(
                            i,
                            "unit markers out of ascending manifest order \
                             (corrupt or hand-concatenated file)",
                        ));
                    }
                    self.last_pos = Some(pos);
                    // Dedup (sample, trial) last-wins; BTreeMap iteration
                    // restores canonical trial order. A sample claiming a
                    // different manifest slot than its unit's marker is
                    // corruption.
                    let mut dedup: BTreeMap<(usize, usize), ErrorSample> = BTreeMap::new();
                    for (sample_pos, s) in self.pending.remove(&id).unwrap_or_default() {
                        if sample_pos != pos {
                            return Err(bad(
                                i,
                                "sample and completion marker disagree on manifest position",
                            ));
                        }
                        dedup.insert((s.sample, s.trial), s);
                    }
                    let n_trials = self.header().1;
                    if dedup.len() != n_trials {
                        return Err(bad(
                            i,
                            &format!(
                                "completed unit holds {} trial(s) but the run header \
                                 says n_trials = {n_trials}",
                                dedup.len()
                            ),
                        ));
                    }
                    return Ok(Some(LedgerUnit {
                        pos,
                        id,
                        samples: dedup.into_values().collect(),
                    }));
                }
                Line::Blank | Line::Malformed(_) => unreachable!("skipped above"),
            }
        }
    }

    /// Pop the lookahead and refill it.
    fn take(&mut self) -> io::Result<Option<LedgerUnit>> {
        let head = self.head.take();
        if head.is_some() {
            self.head = self.next_unit()?;
        }
        Ok(head)
    }
}

/// What a merge wrote.
#[derive(Debug, Clone)]
pub struct Merged {
    /// The run fingerprint of the written header.
    pub fingerprint: u64,
    /// Every unit written, in manifest order.
    pub units: Vec<UnitId>,
}

/// Merge shard (or partial-run) JSONL files into one canonical file:
/// header, then each completed unit's samples (trial order) followed by
/// its completion marker, units ascending by manifest position — exactly
/// the byte stream a fresh single-process run writes. All inputs must
/// share one run fingerprint **and** `n_trials` header; duplicated units
/// (e.g. overlapping resumes) must agree on every `(sample, trial)`
/// coordinate and error bit, and are emitted once.
///
/// Each input is read once, under the ledger readers' rules (see
/// [`merge_jsonl_into`]); a failed merge may leave partial output in
/// `out` ([`merge_jsonl_file`] never does).
///
/// Memory: this is a **streaming k-way merge** — each input holds only
/// the samples of the unit currently in flight, so fleets scale to grids
/// whose raw sample stream never fits in memory; the rendered output
/// streams to `out` directly.
pub fn merge_jsonl<P: AsRef<Path>, W: Write>(inputs: &[P], out: &mut W) -> io::Result<()> {
    merge_jsonl_into(inputs, out, None).map(drop)
}

/// [`merge_jsonl`], reporting the units written and folding every written
/// sample, in manifest order, into `summary` — the summary
/// [`summary_from_ledger`] would rebuild from the output, byte for byte,
/// without reading it back.
///
/// Each input is read once, through the reader behind [`read_units`]
/// and so under the same rules, and every input's header must agree on
/// the fingerprint, `n_trials` and config summary. Errors name the input
/// and, for corruption, its line.
pub fn merge_jsonl_into<P: AsRef<Path>, W: Write>(
    inputs: &[P],
    out: &mut W,
    mut summary: Option<&mut AggregatingSink>,
) -> io::Result<Merged> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    if inputs.is_empty() {
        return Err(invalid("no input files to merge".into()));
    }
    let mut streams: Vec<(UnitStream, &Path)> = Vec::with_capacity(inputs.len());
    for path in inputs {
        let path = path.as_ref();
        let stream = UnitStream::open(path).map_err(|e| named(path, e))?;
        if let Some((first, _)) = streams.first() {
            let ((fp, nt, cfg), (s_fp, s_nt, s_cfg)) = (first.header(), stream.header());
            if fp != s_fp {
                return Err(invalid(format!(
                    "{}: inputs come from different runs (fingerprint mismatch)",
                    path.display()
                )));
            }
            if nt != s_nt {
                return Err(invalid(format!(
                    "{}: inputs disagree on n_trials ({s_nt} vs {nt})",
                    path.display()
                )));
            }
            if cfg != s_cfg {
                return Err(invalid(format!(
                    "{}: inputs disagree on the recorded config summary",
                    path.display()
                )));
            }
        }
        streams.push((stream, path));
    }
    let (fingerprint, n_trials, cfg) = streams[0].0.header().clone();
    if let Some(summary) = summary.as_deref_mut() {
        summary.begin_run(fingerprint, n_trials)?;
    }
    writeln!(
        out,
        "{}",
        format_header(fingerprint, n_trials, cfg.as_deref())
    )?;

    // K-way interleave by manifest position. k is small (one stream per
    // shard), so a linear min-scan beats heap bookkeeping.
    let mut units = Vec::new();
    while let Some(min_pos) = streams
        .iter()
        .filter_map(|(s, _)| s.head.as_ref().map(|u| u.pos))
        .min()
    {
        let mut chosen: Option<LedgerUnit> = None;
        for (stream, path) in &mut streams {
            if stream.head.as_ref().map(|u| u.pos) != Some(min_pos) {
                continue;
            }
            let unit = stream
                .take()
                .map_err(|e| named(path, e))?
                .expect("head checked above");
            match &chosen {
                None => chosen = Some(unit),
                Some(first) => {
                    // Duplicated unit (overlapping resumes): must agree
                    // on identity, count, every (sample, trial)
                    // coordinate, and every error bit.
                    let agree = first.id == unit.id
                        && first.samples.len() == unit.samples.len()
                        && first.samples.iter().zip(&unit.samples).all(|(a, b)| {
                            a.sample == b.sample
                                && a.trial == b.trial
                                && a.error.to_bits() == b.error.to_bits()
                        });
                    if !agree {
                        return Err(invalid(format!(
                            "{}: duplicated unit {} at pos {min_pos} disagrees across inputs",
                            path.display(),
                            unit.id
                        )));
                    }
                }
            }
        }
        let LedgerUnit { id, samples, .. } = chosen.expect("some stream held min_pos");
        for s in &samples {
            writeln!(out, "{}", format_sample(id, min_pos, s))?;
        }
        writeln!(out, "{}", format_unit_done(id, min_pos))?;
        if let Some(summary) = summary.as_deref_mut() {
            summary.fold_unit(&samples);
        }
        units.push(id);
    }
    Ok(Merged { fingerprint, units })
}

/// [`merge_jsonl_into`] the file `out` through a sibling temp file, so
/// an existing `out` is replaced only when the whole merge succeeds.
pub fn merge_jsonl_file<P: AsRef<Path>>(
    inputs: &[P],
    out: &Path,
    summary: Option<&mut AggregatingSink>,
) -> io::Result<Merged> {
    replace_file(out, |w| merge_jsonl_into(inputs, w, summary))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{FaultyIo, SpendJournal};
    use std::sync::{Arc, Mutex};

    /// The last line of `text` holding a non-whitespace byte, found by
    /// reading every line: its offset and its bytes.
    fn last_line_forward(text: &[u8]) -> Option<(usize, &[u8])> {
        let mut offset = 0;
        let mut last = None;
        for raw in text.split_inclusive(|&b| b == b'\n') {
            if !raw.iter().all(u8::is_ascii_whitespace) {
                last = Some((offset, raw));
            }
            offset += raw.len();
        }
        last
    }

    /// Heal `text` as a resumed ledger: one strict read, then an append.
    fn heal_as_ledger(path: &Path, text: &str) -> Vec<u8> {
        std::fs::write(path, text).unwrap();
        let ledger = read_units(path, drop).unwrap();
        drop(JsonlSink::append(path, ledger.heal).unwrap());
        let healed = std::fs::read(path).unwrap();
        // A healed ledger has nothing left to heal.
        let again = read_ledger(path).unwrap().heal;
        assert_eq!((again.len, again.newline), (healed.len() as u64, false));
        healed
    }

    /// Heal `text` as a reopened spend journal.
    fn heal_as_journal(text: &str) -> Vec<u8> {
        let disk = Arc::new(Mutex::new(text.as_bytes().to_vec()));
        SpendJournal::open_with(Box::new(FaultyIo::over(Arc::clone(&disk)))).unwrap();
        let healed = disk.lock().unwrap().clone();
        let reopened = Arc::new(Mutex::new(healed.clone()));
        SpendJournal::open_with(Box::new(FaultyIo::over(Arc::clone(&reopened)))).unwrap();
        assert_eq!(
            *reopened.lock().unwrap(),
            healed,
            "a healed journal reopens unchanged"
        );
        healed
    }

    /// One tail table for both append-only logs. Each tail sits behind the
    /// log's header and heals by the one torn-tail rule. The oracle is the
    /// last-line decision: cut from the last non-blank line's start when it
    /// is malformed, else add a missing final newline. It holds for every
    /// tail but those with two malformed final lines, which the rule cuts
    /// from the first.
    #[test]
    fn both_logs_heal_every_tail_by_one_rule() {
        let logs = [
            (
                "ledger",
                r#"{"t":"run","fp":"00000000000000aa","n_trials":1}"#,
                r#"{"t":"s","unit":"00000000000000aa","pos":0,"alg":"IDENTITY","dataset":"NAME","scale":1000,"domain":"128","eps":0.1,"sample":0,"trial":0,"err":0.5}"#,
            ),
            (
                "journal",
                r#"{"t":"tenants","v":1}"#,
                r#"{"t":"spend","tenant":"NAME","eps":0.5,"seq":1}"#,
            ),
        ];
        let path = std::env::temp_dir().join(format!("dpbench-tail-{}.jsonl", std::process::id()));
        for (log, header, template) in logs {
            let rec = template.replace("NAME", "ci");
            // Longer than the reader's 8 KiB buffer.
            let long = template.replace("NAME", &"x".repeat(3 * 8192));
            let torn = &rec[..20];
            let first_torn = format!("{header}\n{rec}\n");
            let tails = [
                ("torn final line", format!("{rec}\n{rec}\n{torn}"), None),
                (
                    "torn line, then a blank line",
                    format!("{rec}\n{torn}\n \n"),
                    None,
                ),
                (
                    "torn line, then blank lines",
                    format!("{rec}\n{torn}\n \n\t\n"),
                    None,
                ),
                (
                    "blank lines, then a torn line",
                    format!("{rec}\n\n \n{torn}"),
                    None,
                ),
                ("record missing its newline", format!("{rec}\n{rec}"), None),
                ("trailing blank lines", format!("{rec}\n\n  \n\r\n\n"), None),
                ("blank tail without a newline", format!("{rec}\n \t"), None),
                (
                    "record with trailing spaces",
                    format!("{rec}\n{rec}  \n"),
                    None,
                ),
                ("header alone", String::new(), None),
                ("all-blank tail", " \n\n\t \r\n".to_string(), None),
                ("one newline", "\n".to_string(), None),
                ("long record", format!("{rec}\n{long}\n"), None),
                (
                    "long torn record",
                    format!("{rec}\n{}", &long[..long.len() - 7]),
                    None,
                ),
                ("long record, no newline", format!("{long}\n{long}"), None),
                (
                    "long blank tail",
                    format!("{rec}\n{}\n", " ".repeat(2 * 8192)),
                    None,
                ),
                (
                    "two malformed final lines",
                    format!("{rec}\n{torn}\n{torn}\n"),
                    Some(&first_torn),
                ),
                (
                    "two malformed lines around a blank one",
                    format!("{rec}\n{torn}\n\n{}", &long[..100]),
                    Some(&first_torn),
                ),
            ];
            for (what, tail, decided) in tails {
                let text = format!("{header}\n{tail}");
                let expected = match decided {
                    Some(kept) => kept.as_bytes().to_vec(),
                    None => match last_line_forward(text.as_bytes()) {
                        Some((start, line))
                            if json::Object::parse(String::from_utf8_lossy(line).trim())
                                .is_err() =>
                        {
                            text.as_bytes()[..start].to_vec()
                        }
                        _ if !text.ends_with('\n') => format!("{text}\n").into_bytes(),
                        _ => text.as_bytes().to_vec(),
                    },
                };
                let healed = match log {
                    "ledger" => heal_as_ledger(&path, &text),
                    _ => heal_as_journal(&text),
                };
                assert_eq!(
                    String::from_utf8_lossy(&healed),
                    String::from_utf8_lossy(&expected),
                    "{log}: {what}"
                );
            }
        }
        std::fs::remove_file(&path).unwrap();
    }
}
