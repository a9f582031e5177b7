//! Live fleet progress: a monotone units-done tailer over shard ledgers.
//!
//! The driver reports per-shard progress by tailing each shard's ledger
//! — directly for local transports (the file grows in place while the
//! child runs), via periodically fetched copies for remote ones. Both
//! sources are messy by construction: a live file can end mid-line
//! (flush raced the read), and a fetched copy can be torn anywhere or
//! even *shrink* between observations (a torn fetch after a clean one,
//! or a shard relaunched fresh truncating its ledger). The tailer's
//! contract absorbs all of that:
//!
//! * the reported count **never goes backwards** — completed-unit ids
//!   accumulate in a set, so re-reads, rewinds, and re-deliveries are
//!   idempotent;
//! * the reported count **never exceeds the shard's manifest size** —
//!   it is capped at `total`, so even a garbled read that conjures a
//!   bogus unit id cannot over-report;
//! * observation is **incremental** — [`probe_ledger`] consumes only
//!   complete lines past the previous offset, rewinding to 0 when the
//!   file shrank.
//!
//! A property test in this module drives random interleavings of
//! partial-line appends and truncations against those invariants.

use crate::sink::probe_ledger;
use crate::UnitId;
use std::collections::HashSet;
use std::io;
use std::path::Path;

/// Monotone units-done counter for one shard ledger.
#[derive(Debug)]
pub struct ProgressTailer {
    /// Byte offset of the first unconsumed line (complete lines only).
    offset: u64,
    /// Every completed-unit id ever observed.
    done: HashSet<UnitId>,
    /// The shard's manifest size — the count ceiling.
    total: usize,
}

impl ProgressTailer {
    /// New tailer for a shard scheduled with `total` units.
    pub fn new(total: usize) -> Self {
        Self {
            offset: 0,
            done: HashSet::new(),
            total,
        }
    }

    /// Units-done as currently known: monotone, and never above `total`.
    pub fn count(&self) -> usize {
        self.done.len().min(self.total)
    }

    /// The shard's manifest size.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Byte offset of the first unconsumed line in the tailed file —
    /// complete lines only, so it is exactly the prefix a ranged
    /// (incremental) fetch may treat as already-delivered: everything
    /// before it has been validated line-by-line, and any torn fragment
    /// beyond it is disposable.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Read any new complete lines of `path` and return the updated
    /// count. A missing file (shard not started, fetch not landed yet)
    /// reports the existing count; read errors are surfaced but leave
    /// the accumulated state intact, so a later observation recovers.
    pub fn observe(&mut self, path: &Path) -> io::Result<usize> {
        self.observe_into(path, &mut HashSet::new())
    }

    /// [`Self::observe`], also inserting into `seen` every completed-unit
    /// id this observation is the first to report. The fleet driver
    /// keeps its per-shard coverage union this way — a victim's own
    /// ledger and its steal ledgers all feed one set that only grows,
    /// which keeps the fleet-level progress count monotone across
    /// re-deals — without re-copying each tailer's whole done set.
    pub(crate) fn observe_into(
        &mut self,
        path: &Path,
        seen: &mut HashSet<UnitId>,
    ) -> io::Result<usize> {
        let probe = match probe_ledger(path, self.offset) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(self.count()),
            other => other?,
        };
        self.offset = probe.offset;
        for id in probe.units {
            if self.done.insert(id) {
                seen.insert(id);
            }
        }
        Ok(self.count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("dpbench-progress-{name}-{}", std::process::id()));
        p
    }

    fn header() -> String {
        "{\"t\":\"run\",\"fp\":\"00000000000000aa\",\"n_trials\":1}\n".to_string()
    }

    fn marker(i: usize) -> String {
        format!(
            "{{\"t\":\"u\",\"unit\":\"{:016x}\",\"pos\":{i}}}\n",
            i as u64 + 1
        )
    }

    fn sample(i: usize) -> String {
        format!(
            "{{\"t\":\"s\",\"unit\":\"{:016x}\",\"pos\":{i},\"alg\":\"IDENTITY\",\
             \"dataset\":\"MEDCOST\",\"scale\":1000,\"domain\":\"128\",\"eps\":0.1,\
             \"sample\":0,\"trial\":0,\"err\":0.5}}\n",
            i as u64 + 1
        )
    }

    #[test]
    fn tailer_counts_unit_markers_incrementally() {
        let path = tmp("incremental");
        let mut t = ProgressTailer::new(3);
        // Missing file: zero, no error.
        let _ = std::fs::remove_file(&path);
        assert_eq!(t.observe(&path).unwrap(), 0);
        let mut content = header();
        content.push_str(&sample(0));
        content.push_str(&marker(0));
        std::fs::write(&path, &content).unwrap();
        assert_eq!(t.observe(&path).unwrap(), 1);
        // Appending a partial line does not move the count…
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        write!(f, "{{\"t\":\"u\",\"unit\":\"0000000000").unwrap();
        drop(f);
        assert_eq!(t.observe(&path).unwrap(), 1);
        // …until the line completes.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        writeln!(f, "000002\",\"pos\":1}}").unwrap();
        drop(f);
        assert_eq!(t.observe(&path).unwrap(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tailer_survives_truncation_without_going_backwards() {
        let path = tmp("truncate");
        let mut t = ProgressTailer::new(4);
        let full = format!("{}{}{}{}", header(), marker(0), marker(1), marker(2));
        std::fs::write(&path, &full).unwrap();
        assert_eq!(t.observe(&path).unwrap(), 3);
        // A torn re-fetch delivers a shorter prefix: count must hold.
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert_eq!(t.observe(&path).unwrap(), 3);
        // And a later full fetch with one more unit moves it forward.
        std::fs::write(&path, format!("{full}{}", marker(3))).unwrap();
        assert_eq!(t.observe(&path).unwrap(), 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tailer_never_reports_more_than_the_manifest_size() {
        let path = tmp("cap");
        let mut t = ProgressTailer::new(2);
        // Duplicate markers (resume rewrites) and markers beyond the cap.
        let content = format!(
            "{}{}{}{}{}",
            header(),
            marker(0),
            marker(0),
            marker(1),
            marker(2)
        );
        std::fs::write(&path, &content).unwrap();
        assert_eq!(t.observe(&path).unwrap(), 2);
        let _ = std::fs::remove_file(&path);
    }

    /// The satellite property test: random interleavings of partial-line
    /// appends, completions, truncations, and full rewrites must never
    /// drive the reported count backwards or above the manifest size.
    #[test]
    fn property_random_appends_and_truncations_keep_the_count_monotone() {
        let total = 8usize;
        // The canonical byte stream the shard would eventually write.
        let mut full = header();
        for i in 0..total {
            full.push_str(&sample(i));
            full.push_str(&marker(i));
        }
        let full = full.into_bytes();

        let mut state: u64 = 0x5eed_cafe_f00d_0001;
        let mut rand = move |bound: u64| -> u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound.max(1)
        };

        for case in 0..40 {
            let path = tmp(&format!("prop{case}"));
            let _ = std::fs::remove_file(&path);
            let mut t = ProgressTailer::new(total);
            // `written` models the delivered file contents: ops mutate it
            // and rewrite the file whole, exactly like re-fetched copies.
            let mut written: Vec<u8> = Vec::new();
            let mut last = 0usize;
            for _ in 0..30 {
                match rand(4) {
                    // Extend toward the full stream by a random (possibly
                    // line-splitting) number of bytes.
                    0 | 1 => {
                        let remaining = full.len() - written.len();
                        if remaining > 0 {
                            let n = rand(remaining as u64) as usize + 1;
                            written.extend_from_slice(&full[written.len()..written.len() + n]);
                        }
                    }
                    // Torn delivery: truncate to a random prefix.
                    2 => {
                        let keep = rand(written.len() as u64 + 1) as usize;
                        written.truncate(keep);
                    }
                    // Fresh relaunch: restart the stream from scratch at
                    // a random prefix length.
                    _ => {
                        let keep = rand(full.len() as u64 + 1) as usize;
                        written = full[..keep].to_vec();
                    }
                }
                std::fs::write(&path, &written).unwrap();
                let count = t.observe(&path).unwrap();
                assert!(
                    count >= last,
                    "case {case}: count went backwards ({last} -> {count})"
                );
                assert!(
                    count <= total,
                    "case {case}: count {count} exceeds manifest size {total}"
                );
                last = count;
            }
            // Deliver the complete stream: the tailer must converge.
            std::fs::write(&path, &full).unwrap();
            assert_eq!(t.observe(&path).unwrap(), total, "case {case}");
            let _ = std::fs::remove_file(&path);
        }
    }
}
