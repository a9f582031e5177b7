//! Persistent JSONL spend journal for the release server.
//!
//! Same discipline as the result ledger in [`crate::sink`]: one JSON
//! object per line read by the shared strict reader in
//! [`dpbench_core::json`], fixed field order, shortest-round-trip floats,
//! no string escapes (tenant names are validated identifiers). A malformed
//! line mid-file is hard corruption (`InvalidData` naming the line); a
//! torn **final** line — the only damage a crash mid-append can cause —
//! is healed on reopen by the ledger's own torn-tail rule, fed by the same
//! replay pass: keep everything through the last well-formed record plus
//! the blank lines right after it, cut from the first malformed line that
//! no record follows, and add a final newline if the kept part lacks one.
//! The cut loses at most the one record whose spend never produced a
//! response.
//!
//! Bit-exact recovery: the accountant holds its tenant lock across both
//! the in-memory ledger op and the journal append, so per-tenant journal
//! order equals live op order, and replaying the records performs the
//! *identical* sequence of f64 operations — the recovered balance matches
//! the pre-crash balance to the bit (floats round-trip exactly through
//! the shortest `{}` formatting).
//!
//! All storage goes through the [`JournalIo`] trait, so the exact same
//! journal logic runs over a real file ([`FileIo`]) in production and
//! over a deterministic fault-injecting disk
//! ([`FaultyIo`](super::fault::FaultyIo)) in the crash-consistency
//! torture tests. Failure containment on the live path:
//!
//! - A failed append first tries to truncate back to the last durable
//!   length (a short write must not leave a torn line *mid-file* for the
//!   next append to bury); if the repair succeeds the journal stays
//!   usable and only the one reservation is refused.
//! - If the repair also fails, the journal **wedges**: every later append
//!   is refused until restart. A wedged journal serves no release —
//!   refusing loudly beats quietly releasing answers with no durable
//!   spend record.

use crate::sink::{bad, Heal, TornTail};
use dpbench_core::json;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Journal file header (`v` guards future format changes).
const HEADER: &str = "{\"t\":\"tenants\",\"v\":1}";

/// Storage abstraction under the spend journal: an append-only byte log
/// with explicit truncate (tail repair) and sync (durability barrier).
///
/// Contract: `append` returning `Ok` means every byte reached the OS
/// (crash-of-process safe); `sync` returning `Ok` means they reached the
/// device (crash-of-power safe). An `Err` from `append` makes **no
/// promise about how many bytes landed** — the caller repairs with
/// `truncate` to the last known-durable length.
pub trait JournalIo: Send {
    /// The full current contents.
    fn read(&mut self) -> io::Result<Vec<u8>>;
    /// Truncate to `len` bytes.
    fn truncate(&mut self, len: u64) -> io::Result<()>;
    /// Append `data`, flushing to the OS.
    fn append(&mut self, data: &[u8]) -> io::Result<()>;
    /// Durability barrier (fsync).
    fn sync(&mut self) -> io::Result<()>;
}

/// The production [`JournalIo`]: a real file opened in append mode.
pub struct FileIo {
    path: PathBuf,
    file: Option<File>,
}

impl FileIo {
    /// IO over the file at `path` (created lazily on first append).
    pub fn new(path: &Path) -> Self {
        Self {
            path: path.to_path_buf(),
            file: None,
        }
    }

    fn handle(&mut self) -> io::Result<&mut File> {
        if self.file.is_none() {
            self.file = Some(
                OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&self.path)?,
            );
        }
        Ok(self.file.as_mut().expect("opened above"))
    }
}

impl JournalIo for FileIo {
    fn read(&mut self) -> io::Result<Vec<u8>> {
        match File::open(&self.path) {
            Ok(mut f) => {
                let mut buf = Vec::new();
                f.read_to_end(&mut buf)?;
                Ok(buf)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e),
        }
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        // Drop the append handle first: O_APPEND positions at the *new*
        // end on the next write, but only via a fresh handle is that
        // guaranteed on every platform.
        self.file = None;
        OpenOptions::new()
            .write(true)
            .open(&self.path)?
            .set_len(len)
    }

    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        let f = self.handle()?;
        f.write_all(data)?;
        f.flush()
    }

    fn sync(&mut self) -> io::Result<()> {
        self.handle()?.sync_all()
    }
}

/// What one journal record did to a tenant's ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalOp {
    /// ε reserved (and, on success, spent) for a release.
    Spend,
    /// ε returned after a mechanism error.
    Refund,
}

/// One replayed journal record.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// Tenant the record belongs to.
    pub tenant: String,
    /// Spend or refund.
    pub op: JournalOp,
    /// The ε amount (non-negative; refunds are typed, not signed).
    pub eps: f64,
}

/// Append-only writer over the journal storage.
pub struct SpendJournal {
    io: Box<dyn JournalIo>,
    /// Bytes known durable (successfully appended). The repair target
    /// after a failed append.
    len: u64,
    seq: u64,
    /// Set once an append failure could not be repaired; every later
    /// append refuses with this message.
    wedged: Option<String>,
}

impl SpendJournal {
    /// Open the journal at `path` over real file IO. See [`Self::open_with`].
    pub fn open(path: &Path) -> io::Result<(Self, Vec<JournalRecord>)> {
        Self::open_with(Box::new(FileIo::new(path)))
    }

    /// Open a journal over any [`JournalIo`]: create the header if the
    /// storage is empty, heal a torn tail by the torn-tail rule (see the
    /// module docs), and replay every surviving record in order. Returns
    /// the writer positioned after the last record.
    pub fn open_with(mut io: Box<dyn JournalIo>) -> io::Result<(Self, Vec<JournalRecord>)> {
        let bytes = io.read()?;
        if bytes.iter().all(u8::is_ascii_whitespace) {
            let header = format!("{HEADER}\n");
            io.append(header.as_bytes())?;
            io.sync()?;
            let len = header.len() as u64;
            return Ok((
                Self {
                    io,
                    len,
                    seq: 0,
                    wedged: None,
                },
                Vec::new(),
            ));
        }
        let (records, Heal { mut len, newline }) = scan(&bytes)?;
        if len < bytes.len() as u64 {
            io.truncate(len)?;
        }
        if newline {
            io.append(b"\n")?;
            len += 1;
        }
        let seq = records.len() as u64;
        Ok((
            Self {
                io,
                len,
                seq,
                wedged: None,
            },
            records,
        ))
    }

    /// Append one record and flush it to the OS (a crash after `append`
    /// returns loses nothing; a crash *during* it tears at most the final
    /// line, which reopen truncates).
    ///
    /// On a write failure the journal truncates back to its last durable
    /// length so the failure can't corrupt later records; if even that
    /// repair fails, the journal wedges and refuses all further appends.
    pub fn append(&mut self, tenant: &str, op: JournalOp, eps: f64) -> io::Result<()> {
        if let Some(why) = &self.wedged {
            return Err(io::Error::other(format!(
                "journal wedged after unrepaired write failure: {why}"
            )));
        }
        debug_assert!(
            crate::config::is_valid_identifier(tenant),
            "tenant names are validated before journaling"
        );
        let tag = match op {
            JournalOp::Spend => "spend",
            JournalOp::Refund => "refund",
        };
        let line = format!(
            "{{\"t\":\"{tag}\",\"tenant\":\"{tenant}\",\"eps\":{eps},\"seq\":{}}}\n",
            self.seq + 1
        );
        match self.io.append(line.as_bytes()) {
            Ok(()) => {
                self.seq += 1;
                self.len += line.len() as u64;
                Ok(())
            }
            Err(e) => {
                // The failed write may have landed part of the line; cut
                // back to the durable prefix so the journal stays clean.
                match self.io.truncate(self.len) {
                    Ok(()) => Err(e),
                    Err(repair) => {
                        self.wedged = Some(format!("{e}; truncate-repair failed: {repair}"));
                        Err(io::Error::other(format!(
                            "journal write failed ({e}) and repair failed ({repair}); \
                             journal wedged until restart"
                        )))
                    }
                }
            }
        }
    }

    /// True once the journal refuses all appends until restart.
    pub fn is_wedged(&self) -> bool {
        self.wedged.is_some()
    }

    /// Flush and fsync — the graceful-shutdown barrier.
    pub fn sync(&mut self) -> io::Result<()> {
        self.io.sync()
    }
}

/// One classified journal line.
enum JLine {
    Header,
    Record(JournalRecord),
    Blank,
    Malformed(&'static str),
}

/// Classify (and fully parse) one line; shared by the replay reader and
/// the tail repair so "well-formed" means the same thing to both.
fn classify(line: &str) -> JLine {
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return JLine::Blank;
    }
    // The whole object or nothing (see `sink::classify`): a crash tear
    // can truncate a trailing number to a shorter, still-parseable one.
    let Ok(rec) = json::Object::parse(trimmed) else {
        return JLine::Malformed("truncated or malformed record");
    };
    match rec.str("t") {
        Some("tenants") => match rec.num::<u32>("v") {
            Some(1) => JLine::Header,
            _ => JLine::Malformed("unsupported journal version"),
        },
        Some(tag @ ("spend" | "refund")) => {
            let tenant = rec.str("tenant");
            let eps = rec.num::<f64>("eps");
            let seq = rec.num::<u64>("seq");
            match (tenant, eps, seq) {
                (Some(tenant), Some(eps), Some(_)) if eps.is_finite() && eps >= 0.0 => {
                    JLine::Record(JournalRecord {
                        tenant: tenant.to_string(),
                        op: if tag == "spend" {
                            JournalOp::Spend
                        } else {
                            JournalOp::Refund
                        },
                        eps,
                    })
                }
                _ => JLine::Malformed("malformed journal record"),
            }
        }
        _ => JLine::Malformed("unrecognized record"),
    }
}

/// Strict scan over raw bytes: header required first, every line fully
/// parsed, a malformed line tolerated only as the file's final content.
/// Returns the records and where the torn-tail rule cuts the bytes.
/// Mid-file garbage is an `InvalidData` error naming the line.
fn scan(bytes: &[u8]) -> io::Result<(Vec<JournalRecord>, Heal)> {
    let mut records = Vec::new();
    let mut saw_header = false;
    let mut torn = TornTail::new();
    for (line_no, raw) in bytes.split_inclusive(|&b| b == b'\n').enumerate() {
        match classify(&String::from_utf8_lossy(raw)) {
            JLine::Blank => torn.blank(raw),
            JLine::Malformed(what) => torn.malformed(line_no, raw, what),
            JLine::Header => {
                torn.record(raw)?;
                if saw_header {
                    return Err(bad(line_no, "duplicate journal header"));
                }
                saw_header = true;
            }
            JLine::Record(rec) => {
                torn.record(raw)?;
                if !saw_header {
                    return Err(bad(line_no, "journal record before header"));
                }
                records.push(rec);
            }
        }
    }
    if !saw_header {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "missing journal header",
        ));
    }
    Ok((records, torn.heal()))
}

/// Strict replay of the journal at `path`: every record in file order.
/// Header required on line 1; a malformed line is tolerated only as the
/// torn final line. (Read-only — the file is not healed; see
/// [`SpendJournal::open`] for the healing open.)
pub fn replay(path: &Path) -> io::Result<Vec<JournalRecord>> {
    let bytes = std::fs::read(path)
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
    let (records, _) =
        scan(&bytes).map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dpbench-journal-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("spend.jsonl")
    }

    #[test]
    fn round_trips_records_bit_exactly() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let eps_values = [0.1, 0.25, 1.0 / 3.0, 1e-9, 0.30000000000000004];
        {
            let (mut j, replayed) = SpendJournal::open(&path).unwrap();
            assert!(replayed.is_empty());
            for (i, &e) in eps_values.iter().enumerate() {
                let op = if i % 2 == 0 {
                    JournalOp::Spend
                } else {
                    JournalOp::Refund
                };
                j.append("alice", op, e).unwrap();
            }
            j.sync().unwrap();
        }
        let (_, replayed) = SpendJournal::open(&path).unwrap();
        assert_eq!(replayed.len(), eps_values.len());
        for (rec, &e) in replayed.iter().zip(&eps_values) {
            assert_eq!(rec.tenant, "alice");
            assert_eq!(rec.eps.to_bits(), e.to_bits(), "float must round-trip");
        }
    }

    #[test]
    fn torn_final_line_is_truncated_on_reopen() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, _) = SpendJournal::open(&path).unwrap();
            j.append("a", JournalOp::Spend, 0.5).unwrap();
            j.sync().unwrap();
        }
        // Simulate a crash mid-append: a second record torn mid-number.
        let mut raw = std::fs::read_to_string(&path).unwrap();
        raw.push_str("{\"t\":\"spend\",\"tenant\":\"a\",\"eps\":0.2");
        std::fs::write(&path, raw).unwrap();
        let (_, replayed) = SpendJournal::open(&path).unwrap();
        assert_eq!(replayed.len(), 1, "torn record dropped, intact one kept");
        assert_eq!(replayed[0].eps, 0.5);
        // The heal is durable: a third open sees the same single record.
        let (_, again) = SpendJournal::open(&path).unwrap();
        assert_eq!(again.len(), 1);
    }

    #[test]
    fn torn_record_before_a_blank_line_is_cut_and_the_journal_reopens() {
        let path = tmp("torn-blank");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, _) = SpendJournal::open(&path).unwrap();
            j.append("ci", JournalOp::Spend, 0.5).unwrap();
        }
        // A crash mid-append, then a blank line.
        let mut raw = std::fs::read_to_string(&path).unwrap();
        raw.push_str("{\"t\":\"spend\",\"ten\n \n");
        std::fs::write(&path, raw).unwrap();
        let (mut j, replayed) = SpendJournal::open(&path).unwrap();
        assert_eq!(replayed.len(), 1, "the torn record is dropped");
        j.append("ci", JournalOp::Spend, 0.25).unwrap();
        drop(j);
        // The torn line was cut, so it is not buried mid-file.
        let (_, replayed) = SpendJournal::open(&path).unwrap();
        let spends: Vec<f64> = replayed.iter().map(|r| r.eps).collect();
        assert_eq!(spends, [0.5, 0.25]);
    }

    #[test]
    fn unterminated_valid_final_record_is_kept_and_terminated() {
        let path = tmp("noeol");
        let _ = std::fs::remove_file(&path);
        std::fs::write(
            &path,
            "{\"t\":\"tenants\",\"v\":1}\n{\"t\":\"spend\",\"tenant\":\"a\",\"eps\":0.5,\"seq\":1}",
        )
        .unwrap();
        let (mut j, replayed) = SpendJournal::open(&path).unwrap();
        assert_eq!(replayed.len(), 1);
        j.append("a", JournalOp::Spend, 0.25).unwrap();
        drop(j);
        let records = replay(&path).unwrap();
        assert_eq!(records.len(), 2, "newline healed, append did not collide");
        assert_eq!(records[1].eps, 0.25);
    }

    #[test]
    fn mid_file_corruption_is_a_hard_error() {
        let path = tmp("midfile");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, _) = SpendJournal::open(&path).unwrap();
            j.append("a", JournalOp::Spend, 0.5).unwrap();
            j.sync().unwrap();
        }
        let raw = std::fs::read_to_string(&path).unwrap();
        let with_garbage = raw.replace("{\"t\":\"spend\"", "garbage\n{\"t\":\"spend\"");
        std::fs::write(&path, with_garbage).unwrap();
        let err = replay(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn missing_header_is_rejected() {
        let path = tmp("noheader");
        std::fs::write(
            &path,
            "{\"t\":\"spend\",\"tenant\":\"a\",\"eps\":0.5,\"seq\":1}\n",
        )
        .unwrap();
        assert!(replay(&path).is_err());
    }
}
