//! The fleet driver: launch, watch, copy back, steal, retry, merge.
//!
//! [`run_fleet_with`] conducts `k` shards over any [`ShardTransport`]:
//!
//! 1. expand the manifest **once** and cut it into `k` contiguous,
//!    balanced blocks ([`RunManifest::shard`]);
//! 2. each round, **fetch** every unfinished shard's ledger back from
//!    the transport (a no-op for local transports, an offset-based
//!    incremental fetch where the transport supports ranging) and
//!    validate it with the strict readers — the copy-back protocol: a
//!    torn, empty, or missing artifact just means the shard is
//!    re-dispatched (or, when the remote ledger was already complete,
//!    relaunched into a cheap resume no-op and re-fetched), while a
//!    ledger from a *different run* is a hard error. A fetch that merely
//!    *failed* defers the shard without burning one of its launch
//!    attempts;
//! 3. launch every shard that is not yet complete and **poll** the
//!    attempts. Between polls the driver waits at most
//!    [`FleetOptions::poll_interval`], and an attempt's exit ends the
//!    wait: a handle that names its process ([`ShardHandle::pid`]) is
//!    watched through a pidfd, so the driver reaps it as soon as it
//!    exits instead of at the next poll (handles without a pid, and
//!    hosts without pidfd, keep the timed sleep). Every ledger the
//!    fleet watches is one *track*: tracks
//!    `0..k` are the shard ledgers, and each steal appends one. A track
//!    holds the shard whose units it covers, the slot and artifact it is
//!    fetched from, its local path, a [`ProgressTailer`] and its unit
//!    ids, so a shard attempt and a stolen tail share one lifecycle. One
//!    *sync* step — run by the round refresh, on an attempt's exit, and
//!    on every probe tick — copies a track back (ranged where the
//!    transport can), counts the bytes moved, refuses a ledger from a
//!    different run, and adds the units it shows for the first time to
//!    its shard's coverage set. Exit status is advisory (the ledger is
//!    the truth); an attempt that makes no ledger progress for longer
//!    than [`FleetOptions::stall_timeout`] is killed, and
//!    [`FleetOptions::progress`] prints each track's live `done/total`.
//!    When some shards finish while a straggler is still grinding, the
//!    driver **steals** the straggler's uncovered tail — re-dealing it
//!    to the idle slots as fresh sub-shard launches
//!    (`shard(victim, k).span(from, until)`), one new track each. Every
//!    poll releases any attempt whose track is fully covered — a victim
//!    whose tail the steals finished, or a thief whose victim got there
//!    first — so a round never waits on duplicate work. Only shards
//!    resume, spend launch attempts, defer and count stall kills; only a
//!    steal can die (exit short of its range, which makes the range
//!    eligible again) and count as a tail stolen from its victim;
//! 4. once every shard's units are covered (by its own ledger and/or
//!    steal ledgers), stream-merge every track that strict-read as this
//!    run's at its shard's last refresh — the inclusion rule the
//!    completeness check uses, on the sets that check read — into the
//!    canonical output
//!    ([`merge_jsonl_into`](crate::sink::merge_jsonl_into)), which reads
//!    each ledger once and validates it as it streams. The units the
//!    merge reports writing must cover the manifest exactly (the merged
//!    file is never read back; `--agg` folds the written samples as they
//!    go, [`run_fleet_summarized`]); then the transport cleans up its
//!    remote scratch space.
//!
//! Because per-trial RNG streams derive from unit coordinates, the merged
//! fleet output is **byte-identical** to an uninterrupted single-process
//! run — even when shards crashed, hung, had their copy-backs torn, or
//! had their tails re-dealt along the way (duplicated units are verified
//! bit-exact and emitted once by the merge). `diff` against a one-shot
//! file is a complete correctness check; CI's fleet smoke jobs and the
//! fault matrix in `tests/fleet_faults.rs` run exactly that.
//!
//! Local shard ledgers are left in place after a successful merge: they
//! are the fleet's crash record. Re-running a fleet over them is a cheap
//! no-op for shards that completed on their own; a shard whose tail was
//! stolen holds only its own units, so a re-run recomputes the stolen
//! tail (the merged output of the first run is still the canonical
//! artifact). A re-run with another `--procs` deals other blocks: a
//! left-over shard ledger that a resume would append to out of order is
//! refused before anything launches.

use super::progress::ProgressTailer;
use super::transport::{
    Artifact, FetchOutcome, LaunchSpec, RangedFetch, ShardHandle, ShardStatus, ShardTransport,
    StealSpec,
};
use crate::manifest::{RunManifest, UnitId};
use crate::serve::poller::{Event, Interest, Poller};
use crate::sink::{
    atomic_write, header_fingerprint, merge_jsonl_file, read_ledger, AggregatingSink,
};
use std::collections::HashSet;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Fewest uncovered units a straggler must hold before its tail is worth
/// re-dealing (stealing a single in-flight unit only duplicates work).
const STEAL_MIN_UNITS: usize = 2;

/// Consecutive rounds one shard may defer (failed copy-back) before the
/// fleet gives up on it. Distinct from `max_attempts`: deferral means the
/// remote may be fine and the driver simply cannot look.
const MAX_DEFER_ROUNDS: usize = 20;

/// How a fleet run is conducted.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Number of shard processes (`k` in `--shard i/k`).
    pub procs: usize,
    /// Launch attempts allowed **per shard** (first attempt + retries).
    /// Rounds in which a shard is merely deferred (its copy-back failed)
    /// do not count against this budget.
    pub max_attempts: usize,
    /// Print per-shard lifecycle lines to stderr.
    pub verbose: bool,
    /// Print live per-shard `done/total` progress lines to stderr,
    /// tailing local ledgers (or periodically fetched copies for remote
    /// transports).
    pub progress: bool,
    /// The longest wait between polls of the running handles. A running
    /// attempt's exit ends the wait early when its handle names a
    /// process ([`ShardHandle::pid`]) and the host has pidfd.
    pub poll_interval: Duration,
    /// How often ledgers are probed (and, for remote transports,
    /// re-fetched) for progress, stall detection, and steal decisions.
    pub progress_interval: Duration,
    /// Kill and retry a shard whose ledger shows no new completed unit
    /// for this long. `None` (the default) never kills: a shard with
    /// genuinely slow units must not be mistaken for a hang.
    ///
    /// The kill terminates the transport's **local handle** (the child
    /// process, or the wrapper — `sh`, `ssh`, `docker` — for command
    /// transports). A wrapper that does not propagate termination to
    /// the remote worker (plain `ssh` without a tty) can leave the
    /// remote shard running; if its writes interleave with the
    /// relaunched attempt's, the strict ledger readers surface that as
    /// a hard error rather than merging corrupt data. For such
    /// transports, prefer a remote-side bound (e.g.
    /// `ssh worker{index} 'timeout 3600 {cmd}'`) over — or alongside —
    /// this driver-side timeout.
    ///
    /// A shard the driver *cannot observe* (failing progress fetches)
    /// keeps accruing stall time — otherwise a hang behind a dead
    /// network could evade the timeout forever — so set the timeout
    /// above the worst transient unreachability window as well as above
    /// the slowest unit.
    pub stall_timeout: Option<Duration>,
    /// Re-deal a straggler's unfinished tail to idle slots (work
    /// stealing). On by default: any deal merges byte-identically, so
    /// stealing only changes wall clock, never output.
    pub steal: bool,
    /// Write an atomically-updated (temp + rename, never torn) fleet
    /// status JSON here on every probe tick — the pollable dashboard
    /// feed behind `fleet --status-file`.
    pub status_file: Option<PathBuf>,
}

impl Default for FleetOptions {
    fn default() -> Self {
        Self {
            procs: 2,
            max_attempts: 3,
            verbose: false,
            progress: false,
            poll_interval: Duration::from_millis(25),
            progress_interval: Duration::from_millis(500),
            stall_timeout: None,
            steal: true,
            status_file: None,
        }
    }
}

/// What happened to one shard.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// Shard index in `0..procs`.
    pub index: usize,
    /// The shard's (driver-side) ledger file.
    pub ledger: PathBuf,
    /// Launch attempts used (0 when a pre-existing ledger was already
    /// complete). Steal launches are counted separately, in
    /// [`FleetReport::steal_launches`].
    pub attempts: usize,
    /// True when any attempt resumed from a partial ledger.
    pub resumed: bool,
    /// Units this shard was responsible for.
    pub units: usize,
    /// Attempts killed by the stall timeout.
    pub stall_kills: usize,
    /// Steal launches that re-dealt part of this shard's tail.
    pub tails_stolen: usize,
}

/// One tail re-deal, as reported by [`FleetReport::steals`].
#[derive(Debug, Clone)]
pub struct StealEvent {
    /// Fleet-wide steal sequence number.
    pub seq: usize,
    /// The straggler shard the units were taken from.
    pub victim: usize,
    /// The idle slot that ran the stolen tail.
    pub slot: usize,
    /// First full-run position of the stolen range (inclusive).
    pub from_pos: usize,
    /// End of the stolen range (exclusive).
    pub until_pos: usize,
    /// Victim units inside the range.
    pub units: usize,
}

/// What the whole fleet did.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-shard outcomes, by shard index.
    pub shards: Vec<ShardOutcome>,
    /// Units in the merged output (= the full manifest).
    pub merged_units: usize,
    /// Total primary shard launches across all rounds.
    pub launches: usize,
    /// Total steal (tail re-deal) launches.
    pub steal_launches: usize,
    /// Every tail re-deal, in launch order.
    pub steals: Vec<StealEvent>,
    /// Bytes moved by whole-artifact copy-backs.
    pub fetch_full_bytes: u64,
    /// Bytes moved by offset-based incremental copy-backs.
    pub fetch_ranged_bytes: u64,
    /// Bytes moved per probe tick, in order — the steady-state traffic
    /// trajectory (O(new bytes) when the transport ranges, O(ledger)
    /// otherwise).
    pub probe_fetch_bytes: Vec<u64>,
}

/// Canonical shard-ledger path for a merged output path: `out.jsonl` →
/// `out.shard3.jsonl` (the `.jsonl` suffix stays last so every ledger
/// tool recognizes the file).
pub fn shard_ledger_path(out: &Path, index: usize) -> PathBuf {
    let name = out
        .file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    let base = name.strip_suffix(".jsonl").unwrap_or(&name);
    out.with_file_name(format!("{base}.shard{index}.jsonl"))
}

/// Canonical shard *summary* (mergeable sketch) path: `out.jsonl` →
/// `out.shard3.agg.jsonl` — where a launcher that asks its shards for a
/// `run --agg` sketch puts it. (`dpbench fleet --agg` needs none: it
/// summarizes the samples its merge writes, [`run_fleet_summarized`].)
pub fn shard_summary_path(out: &Path, index: usize) -> PathBuf {
    let ledger = shard_ledger_path(out, index);
    let name = ledger
        .file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    let base = name.strip_suffix(".jsonl").unwrap_or(&name);
    ledger.with_file_name(format!("{base}.agg.jsonl"))
}

/// Canonical steal-ledger path: `out.jsonl` → `out.steal4.jsonl`.
pub fn steal_ledger_path(out: &Path, seq: usize) -> PathBuf {
    let name = out
        .file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    let base = name.strip_suffix(".jsonl").unwrap_or(&name);
    out.with_file_name(format!("{base}.steal{seq}.jsonl"))
}

/// What a shard's ledger says before (re)launching.
enum ShardState {
    /// No usable ledger — launch fresh.
    Fresh,
    /// A ledger of this run: the units it holds (resume from it).
    Ledger(HashSet<UnitId>),
}

/// The hard error for a shard ledger the fleet must not continue from:
/// it never silently discards, overwrites, or merges data that is not
/// its own.
fn refuse(path: &Path, why: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidInput,
        format!(
            "shard ledger {} {why}; move it aside before launching this fleet",
            path.display()
        ),
    )
}

/// [`refuse`] a ledger from a different run.
fn foreign(path: &Path) -> io::Error {
    refuse(path, "belongs to a different run (fingerprint mismatch)")
}

/// Inspect a shard ledger. Corruption, foreign-run ledgers and ledgers a
/// resume of `shard` would append to out of order (left by a fleet with
/// another `--procs`) are hard errors; a file without a record is fresh.
fn shard_state(path: &Path, shard: &RunManifest) -> io::Result<ShardState> {
    use io::ErrorKind::{NotFound, UnexpectedEof};
    let ledger = match read_ledger(path) {
        Ok(l) => l,
        // Absent, empty, or only a torn fragment: a child killed while
        // its very first write was in flight. That is a fresh shard —
        // relaunch and let the child's `JsonlSink::create` truncate it —
        // not corruption to abort on.
        Err(e) if matches!(e.kind(), NotFound | UnexpectedEof) => return Ok(ShardState::Fresh),
        Err(e) => {
            return Err(io::Error::new(
                e.kind(),
                format!("shard ledger {} is unreadable: {e}", path.display()),
            ))
        }
    };
    if ledger.fingerprint != shard.fingerprint {
        return Err(foreign(path));
    }
    match ledger.resume_conflict(shard) {
        Some((first, last)) => Err(refuse(
            path,
            &format!(
                "cannot be resumed in order: its last completed unit (position {last}) \
                 lies past this shard's first pending unit (position {first})"
            ),
        )),
        None => Ok(ShardState::Ledger(ledger.done)),
    }
}

/// The units a ledger holds, if it strict-reads as this run's — the
/// inclusion rule the completeness check and the final merge share (the
/// merge reuses the sets the last check read). Both read through the one
/// ledger reader under one rule set, so they can never disagree on a
/// file (a dead steal's partial ledger still contributes the units it
/// did finish).
fn strict_done(path: &Path, fingerprint: u64) -> Option<HashSet<UnitId>> {
    read_ledger(path)
        .ok()
        .filter(|l| l.fingerprint == fingerprint)
        .map(|l| l.done)
}

/// One copy-back, ranged when the transport supports it.
enum Synced {
    /// The artifact was delivered (possibly zero new bytes).
    Delivered {
        /// True when the ranged path delivered it.
        ranged: bool,
    },
    /// Confirmed absence of the remote artifact.
    Missing,
    /// The fetch *failed* (as opposed to confirming absence): the remote
    /// is unobservable right now.
    Failed(io::Error),
}

/// What the round loop should do with one shard after a copy-back.
enum Refresh {
    /// The shard's units are covered (own ledger and/or steal ledgers)
    /// — nothing to launch.
    Complete,
    /// Launch (fresh or resuming).
    Launch {
        /// Resume from the partial local ledger.
        resume: bool,
    },
    /// The fetch failed and a partial ledger may be out there. Neither
    /// resuming (maybe nothing to resume from) nor restarting fresh
    /// (maybe discarding finished remote work) is safe — wait a round
    /// and re-fetch, **without** burning a launch attempt.
    Defer(io::Error),
}

/// One ledger the fleet watches. Tracks `0..procs` are the shard
/// ledgers; every steal launch appends one for its stolen tail.
struct Track {
    /// The shard whose units the ledger covers (a steal's victim).
    shard: usize,
    /// The slot the ledger is written on and fetched from.
    slot: usize,
    /// The steal's re-deal, for a steal ledger.
    steal: Option<StealSpec>,
    /// The driver-side copy.
    path: PathBuf,
    tailer: ProgressTailer,
    /// The units the ledger is responsible for.
    unit_ids: Vec<UnitId>,
    /// The units the ledger held at its shard's last refresh, when it
    /// strict-read as this run's: the merge's inclusion rule.
    done: Option<HashSet<UnitId>>,
    /// Exited and finally fetched (rendered for steals: `"active"`).
    finalized: bool,
    /// A steal that exited without covering its range — the range is
    /// eligible again.
    dead: bool,
}

impl Track {
    fn new(
        shard: usize,
        slot: usize,
        steal: Option<StealSpec>,
        path: PathBuf,
        unit_ids: Vec<UnitId>,
    ) -> Self {
        Self {
            shard,
            slot,
            steal,
            path,
            tailer: ProgressTailer::new(unit_ids.len()),
            unit_ids,
            done: None,
            finalized: false,
            dead: false,
        }
    }

    /// The artifact the transport fetches this ledger as.
    fn artifact(&self) -> Artifact {
        match self.steal {
            None => Artifact::Ledger,
            Some(st) => Artifact::Steal { seq: st.seq },
        }
    }

    /// `shard 3` or `steal 2`: how `[fleet]` lines name the attempt.
    fn name(&self) -> String {
        match self.steal {
            None => format!("shard {}", self.shard),
            Some(st) => format!("steal {}", st.seq),
        }
    }

    /// The live `done/total` line.
    fn progress_line(&self) -> String {
        let whose = match self.steal {
            None => String::new(),
            Some(_) => format!(" (shard {} tail on slot {})", self.shard, self.slot),
        };
        format!(
            "[fleet] {}: {}/{} units{whose}",
            self.name(),
            self.tailer.count(),
            self.tailer.total()
        )
    }
}

/// One launched attempt (primary shard or stolen tail) being watched by
/// the poll loop.
struct Running {
    /// Index of the attempt's ledger in [`Fleet::tracks`].
    track: usize,
    handle: Box<dyn ShardHandle>,
    exited: bool,
    /// Finalized after exit: last sync done.
    reaped: bool,
    /// When the attempt's units-done count last moved (or the attempt
    /// started) — the stall clock.
    last_change: Instant,
    /// Whether this attempt was killed (stall or release) — kill once.
    killed: bool,
    /// The attempt's process, watched by [`ExitWake`] while it runs.
    exit_fd: Option<pidfd::PidFd>,
}

impl Running {
    fn new(track: usize, handle: Box<dyn ShardHandle>) -> Self {
        Self {
            track,
            handle,
            exited: false,
            reaped: false,
            last_change: Instant::now(),
            killed: false,
            exit_fd: None,
        }
    }
}

/// The poll loop's wait: it ends when a running attempt's process exits,
/// and lasts at most the poll interval. Each attempt whose handle names
/// a [`ShardHandle::pid`] gets a pidfd (Linux 5.3 and later), registered
/// on one [`Poller`]; the process's exit makes it readable. With no
/// pidfd to wait on — handles without a pid, hosts without pidfd — the
/// wait is a plain sleep. A wake only ends the wait early: the next
/// `poll` still observes the exit, so a missed wake costs at most one
/// poll interval.
struct ExitWake {
    poller: Option<Poller>,
    events: Vec<Event>,
}

impl ExitWake {
    fn new() -> Self {
        Self {
            poller: Poller::new().ok(),
            events: Vec::new(),
        }
    }

    fn wait(&mut self, running: &mut [Running], limit: Duration) {
        let mut armed = false;
        if let Some(poller) = &self.poller {
            for (token, r) in running.iter_mut().enumerate() {
                if r.exited {
                    continue;
                }
                if r.exit_fd.is_none() {
                    r.exit_fd = r.handle.pid().and_then(pidfd::PidFd::open).filter(|fd| {
                        poller
                            .register(fd.raw(), token as u64, Interest::READ)
                            .is_ok()
                    });
                }
                armed |= r.exit_fd.is_some();
            }
        }
        self.events.clear();
        match &self.poller {
            Some(poller) if armed && poller.wait(&mut self.events, limit).is_ok() => {}
            _ => std::thread::sleep(limit),
        }
    }

    /// Stop watching an attempt whose exit `poll` has observed.
    fn forget(&self, r: &mut Running) {
        if let (Some(poller), Some(fd)) = (&self.poller, r.exit_fd.take()) {
            poller.deregister(fd.raw());
        }
    }
}

/// `pidfd_open(2)`: a descriptor that turns readable when a process
/// exits. Bound through `syscall(2)`, because libc wrappers for it are
/// recent; elsewhere no pidfd exists and the wait sleeps.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod pidfd {
    use std::ffi::c_long;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};

    /// `SYS_pidfd_open` in the syscall table both architectures share.
    const SYS_PIDFD_OPEN: c_long = 434;

    extern "C" {
        fn syscall(number: c_long, ...) -> c_long;
    }

    pub struct PidFd(OwnedFd);

    impl PidFd {
        /// `None` when the kernel has no pidfd or refuses the pid.
        pub fn open(pid: u32) -> Option<PidFd> {
            // SAFETY: pidfd_open takes a pid and a flags word and returns
            // a new descriptor or -1; nothing else is read or written.
            let fd = unsafe { syscall(SYS_PIDFD_OPEN, c_long::from(pid), 0 as c_long) };
            // SAFETY: a non-negative return is a fresh descriptor that
            // nothing else owns.
            (fd >= 0).then(|| PidFd(unsafe { OwnedFd::from_raw_fd(fd as i32) }))
        }

        pub fn raw(&self) -> i32 {
            self.0.as_raw_fd()
        }
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod pidfd {
    /// No pidfd here: `open` refuses, so no value of this type exists.
    pub enum PidFd {}

    impl PidFd {
        pub fn open(_pid: u32) -> Option<PidFd> {
            None
        }

        pub fn raw(&self) -> i32 {
            match *self {}
        }
    }
}

/// Everything the status-file serializer needs for one snapshot.
struct StatusInput<'a> {
    fingerprint: u64,
    elapsed_ms: u128,
    units_done: usize,
    launches: usize,
    deferred: usize,
    complete: bool,
    shards: &'a [ShardOutcome],
    shard_done: &'a [usize],
    /// The steal tracks, in launch order.
    steals: &'a [Track],
}

/// Render the single-line fleet-status JSON (hand-built like every other
/// writer in this codebase — no serde dependency).
fn render_status(s: &StatusInput) -> String {
    let mut out = String::with_capacity(256);
    out.push_str(&format!(
        "{{\"t\":\"fleet-status\",\"fp\":\"{:016x}\",\"elapsed_ms\":{},\
         \"units_total\":{},\"units_done\":{},\"launches\":{},\
         \"steal_launches\":{},\"stall_kills\":{},\"deferred\":{},\
         \"complete\":{},\"shards\":[",
        s.fingerprint,
        s.elapsed_ms,
        s.shards.iter().map(|o| o.units).sum::<usize>(),
        s.units_done,
        s.launches,
        s.steals.len(),
        s.shards.iter().map(|o| o.stall_kills).sum::<usize>(),
        s.deferred,
        s.complete,
    ));
    for (i, o) in s.shards.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"index\":{},\"units\":{},\"done\":{},\"attempts\":{},\"stall_kills\":{}}}",
            o.index, o.units, s.shard_done[i], o.attempts, o.stall_kills
        ));
    }
    out.push_str("],\"steals\":[");
    for (i, t) in s.steals.iter().enumerate() {
        let st = t.steal.expect("steal tracks carry their spec");
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"seq\":{},\"victim\":{},\"slot\":{},\"from_pos\":{},\"until_pos\":{},\
             \"units\":{},\"done\":{},\"active\":{}}}",
            st.seq,
            st.victim,
            t.slot,
            st.from_pos,
            st.until_pos,
            t.unit_ids.len(),
            t.tailer.count(),
            !t.finalized,
        ));
    }
    out.push_str("]}\n");
    out
}

/// The driver's state across rounds.
struct Fleet<'a> {
    transport: &'a dyn ShardTransport,
    fingerprint: u64,
    /// Shard `i`'s block of the manifest.
    shards: Vec<RunManifest>,
    tracks: Vec<Track>,
    /// Unioned coverage per shard: its own ledger's observations plus
    /// every steal ledger targeting it. Sets only grow, which is what
    /// keeps the fleet-level progress count (and the status file's
    /// `units_done`) monotone across steals and relaunches.
    covered: Vec<HashSet<UnitId>>,
    outcomes: Vec<ShardOutcome>,
    /// Consecutive deferred rounds per shard.
    defers: Vec<usize>,
    launches: usize,
    fetch_full_bytes: u64,
    fetch_ranged_bytes: u64,
    /// The highest fleet-level units-done count reported so far.
    done_floor: usize,
    started: Instant,
}

impl Fleet<'_> {
    /// Copy track `t`'s ledger back — from the tailer's validated
    /// complete-line offset when `ranged` and the transport can range,
    /// whole otherwise — and count the bytes moved. A delivered ledger
    /// from a different run is the stale-scratch hard error, never
    /// something to observe and quietly heal over; any other delivered
    /// ledger is observed, and the units it shows for the first time
    /// join its shard's coverage.
    fn sync(&mut self, t: usize, ranged: bool) -> io::Result<Synced> {
        let track = &mut self.tracks[t];
        let (slot, artifact) = (track.slot, track.artifact());
        let fetched = if ranged {
            self.transport
                .fetch_ranged(slot, artifact, &track.path, track.tailer.offset())
        } else {
            Ok(RangedFetch::Unsupported)
        };
        let delivered = match fetched {
            Ok(RangedFetch::Unsupported) => match self.transport.fetch(slot, artifact, &track.path)
            {
                Ok(FetchOutcome::Missing) => None,
                Ok(FetchOutcome::InPlace) => Some((0, false)),
                Ok(FetchOutcome::Copied) => {
                    Some((std::fs::metadata(&track.path).map_or(0, |m| m.len()), false))
                }
                Err(e) => return Ok(Synced::Failed(e)),
            },
            Ok(RangedFetch::Missing) => None,
            Ok(RangedFetch::Unchanged) => Some((0, true)),
            Ok(RangedFetch::Appended { bytes } | RangedFetch::Rewound { bytes }) => {
                Some((bytes, true))
            }
            Err(e) => return Ok(Synced::Failed(e)),
        };
        let Some((bytes, ranged)) = delivered else {
            return Ok(Synced::Missing);
        };
        if ranged {
            self.fetch_ranged_bytes += bytes;
        } else {
            self.fetch_full_bytes += bytes;
        }
        if header_fingerprint(&track.path).is_some_and(|fp| fp != self.fingerprint) {
            return Err(foreign(&track.path));
        }
        let _ = track
            .tailer
            .observe_into(&track.path, &mut self.covered[track.shard]);
        Ok(Synced::Delivered { ranged })
    }

    /// Units of track `t` its shard's coverage holds.
    fn covered_units(&self, t: usize) -> usize {
        let track = &self.tracks[t];
        let covered = &self.covered[track.shard];
        track
            .unit_ids
            .iter()
            .filter(|id| covered.contains(id))
            .count()
    }

    /// Whether every unit of track `t` is covered.
    fn covers(&self, t: usize) -> bool {
        self.covered_units(t) == self.tracks[t].unit_ids.len()
    }

    /// Re-fetch shard `i`'s ledger, validate it with the strict reader,
    /// and decide what this round does with the shard. (Re-checked every
    /// round: a child that died *after* finishing its ledger counts as
    /// complete, and a torn copy-back just means fetch again.)
    fn refresh(&mut self, i: usize) -> io::Result<Refresh> {
        let synced = self.sync(i, true)?;
        let state = match shard_state(&self.tracks[i].path, &self.shards[i]) {
            // Defensive: if a ranged splice diverged (a relaunch raced
            // the offset), one full re-fetch repairs it before we give up.
            Err(_) if matches!(synced, Synced::Delivered { ranged: true }) => {
                self.sync(i, false)?;
                shard_state(&self.tracks[i].path, &self.shards[i])?
            }
            other => other?,
        };
        let has_own = matches!(state, ShardState::Ledger(_));
        self.tracks[i].done = match state {
            ShardState::Fresh => None,
            ShardState::Ledger(done) => Some(done),
        };
        let procs = self.shards.len();
        for t in &mut self.tracks[procs..] {
            if t.shard == i {
                t.done = strict_done(&t.path, self.fingerprint);
            }
        }
        let holds = |id: &UnitId| {
            self.tracks
                .iter()
                .filter(|t| t.shard == i)
                .any(|t| t.done.as_ref().is_some_and(|d| d.contains(id)))
        };
        Ok(if self.tracks[i].unit_ids.iter().all(holds) {
            // Its own ledger, or steals that finished its tail: even an
            // unreachable shard no longer blocks the fleet.
            Refresh::Complete
        } else {
            match synced {
                Synced::Failed(e) if has_own => Refresh::Defer(e),
                // Nothing anywhere we can see: nothing to lose by
                // launching (this is also round 0 of a fetch template
                // that errors on a not-yet-created file).
                Synced::Failed(_) => Refresh::Launch { resume: false },
                // A confirmed-absent remote downgrades a leftover partial
                // local copy to fresh: resuming would be doomed, and
                // deterministic units make the rerun identical.
                Synced::Missing => Refresh::Launch { resume: false },
                Synced::Delivered { .. } => Refresh::Launch { resume: has_own },
            }
        })
    }

    /// Raise the fleet-level done floor to the current coverage (sets
    /// only grow, and the max-clamp absorbs any tailer rewind). True
    /// when it rose.
    fn raise_done_floor(&mut self) -> bool {
        let done: usize = (0..self.shards.len()).map(|i| self.covered_units(i)).sum();
        let rose = done > self.done_floor;
        self.done_floor = self.done_floor.max(done);
        rose
    }

    /// Atomically replace the status file (if any) with one snapshot.
    fn write_status(&self, path: Option<&PathBuf>, complete: bool) {
        let Some(path) = path else {
            return;
        };
        let procs = self.shards.len();
        let shard_done: Vec<usize> = (0..procs).map(|i| self.covered_units(i)).collect();
        let line = render_status(&StatusInput {
            fingerprint: self.fingerprint,
            elapsed_ms: self.started.elapsed().as_millis(),
            units_done: self.done_floor,
            launches: self.launches,
            deferred: self.defers.iter().filter(|d| **d > 0).count(),
            complete,
            shards: &self.outcomes,
            shard_done: &shard_done,
            steals: &self.tracks[procs..],
        });
        let _ = atomic_write(path, line.as_bytes());
    }

    /// Steal decision, once per probe tick: re-deal the biggest uncovered
    /// tail of a still-running shard across every idle slot, as contiguous
    /// position ranges launched as fresh sub-shards. Steals are
    /// opportunistic: a failed steal launch is a warning, never a failed
    /// self.
    fn steal(&mut self, running: &mut Vec<Running>, out: &Path) {
        let procs = self.shards.len();
        let busy: HashSet<usize> = running
            .iter()
            .filter(|r| !r.exited)
            .map(|r| self.tracks[r.track].slot)
            .collect();
        let idle: Vec<usize> = (0..procs)
            .filter(|j| !busy.contains(j) && self.covers(*j))
            .collect();
        let mut victim: Option<(usize, Vec<usize>)> = None;
        // Victims are running shard attempts (tracks below `procs`) whose
        // units are not all covered yet.
        for v in running
            .iter()
            .filter(|r| !r.exited && r.track < procs)
            .map(|r| r.track)
        {
            let active: Vec<(usize, usize)> = self.tracks[procs..]
                .iter()
                .filter(|t| t.shard == v && !t.dead)
                .filter_map(|t| t.steal)
                .map(|st| (st.from_pos, st.until_pos))
                .collect();
            let eligible: Vec<usize> = self.shards[v]
                .units
                .iter()
                .filter(|u| !self.covered[v].contains(&u.id))
                .filter(|u| !active.iter().any(|(f, ul)| u.pos >= *f && u.pos < *ul))
                .map(|u| u.pos)
                .collect();
            if eligible.len() >= STEAL_MIN_UNITS
                && victim
                    .as_ref()
                    .is_none_or(|(_, b)| eligible.len() > b.len())
            {
                victim = Some((v, eligible));
            }
        }
        let Some((v, eligible)) = victim else {
            return;
        };
        // Split the whole eligible tail into contiguous position ranges, one
        // per idle slot.
        let n = idle.len().min(eligible.len());
        if n == 0 {
            return;
        }
        let per = eligible.len() / n;
        let extra = eligible.len() % n;
        let mut start = 0usize;
        for (k, &slot) in idle.iter().take(n).enumerate() {
            let take = per + usize::from(k < extra);
            let chunk = &eligible[start..start + take];
            start += take;
            let seq = self.tracks.len() - procs;
            let spec = StealSpec {
                victim: v,
                from_pos: chunk[0],
                until_pos: chunk[chunk.len() - 1] + 1,
                seq,
            };
            let ledger = steal_ledger_path(out, seq);
            let _ = std::fs::remove_file(&ledger);
            let unit_ids: Vec<UnitId> = self.shards[v]
                .units
                .iter()
                .filter(|u| u.pos >= spec.from_pos && u.pos < spec.until_pos)
                .map(|u| u.id)
                .collect();
            eprintln!(
                "[fleet] steal {seq}: re-dealing {} unit(s) of shard {v} (pos {}..{}) to slot {slot}",
                unit_ids.len(),
                spec.from_pos,
                spec.until_pos
            );
            let launch = LaunchSpec {
                index: slot,
                procs,
                ledger: ledger.clone(),
                resume: false,
                attempt: 0,
                steal: Some(spec),
            };
            match self.transport.launch(&launch) {
                Ok(handle) => {
                    let track = Track::new(v, slot, Some(spec), ledger, unit_ids);
                    self.tracks.push(track);
                    self.outcomes[v].tails_stolen += 1;
                    running.push(Running::new(self.tracks.len() - 1, handle));
                }
                Err(e) => eprintln!("[fleet] warning: steal {seq} failed to launch: {e}"),
            }
        }
    }
}

/// Run the whole fleet over an arbitrary transport: launch `k` shards,
/// poll them, fetch their ledgers back (incrementally when the transport
/// ranges), steal straggler tails onto idle slots, retry/resume
/// failures, then stream-merge the shard and steal ledgers into `out`
/// and verify the merged ledger covers the manifest. See the module docs
/// for the exact protocol.
pub fn run_fleet_with(
    manifest: &RunManifest,
    transport: &dyn ShardTransport,
    out: &Path,
    opts: &FleetOptions,
) -> io::Result<FleetReport> {
    run_fleet_summarized(manifest, transport, out, opts, None)
}

/// [`run_fleet_with`], folding every merged sample, in manifest order,
/// into `summary` as the merge writes it — the summary
/// [`summary_from_ledger`](crate::sink::summary_from_ledger) would
/// rebuild from `out`, byte for byte, without reading `out` back. This
/// is `dpbench fleet --agg`.
pub fn run_fleet_summarized(
    manifest: &RunManifest,
    transport: &dyn ShardTransport,
    out: &Path,
    opts: &FleetOptions,
    summary: Option<&mut AggregatingSink>,
) -> io::Result<FleetReport> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidInput, msg);
    if opts.procs == 0 {
        return Err(invalid("fleet needs at least one process".into()));
    }
    if opts.max_attempts == 0 {
        return Err(invalid("fleet needs at least one launch attempt".into()));
    }
    let procs = opts.procs;
    let shards: Vec<RunManifest> = (0..procs).map(|i| manifest.shard(i, procs)).collect();
    let mut fleet = Fleet {
        transport,
        fingerprint: manifest.fingerprint,
        tracks: shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let ids = s.units.iter().map(|u| u.id).collect();
                Track::new(i, i, None, shard_ledger_path(out, i), ids)
            })
            .collect(),
        outcomes: shards
            .iter()
            .enumerate()
            .map(|(i, s)| ShardOutcome {
                index: i,
                ledger: shard_ledger_path(out, i),
                attempts: 0,
                resumed: false,
                units: s.len(),
                stall_kills: 0,
                tails_stolen: 0,
            })
            .collect(),
        shards,
        covered: vec![HashSet::new(); procs],
        defers: vec![0; procs],
        launches: 0,
        fetch_full_bytes: 0,
        fetch_ranged_bytes: 0,
        done_floor: 0,
        started: Instant::now(),
    };
    let mut complete = vec![false; procs];
    let mut probe_fetch_bytes: Vec<u64> = Vec::new();
    let status_file = opts.status_file.as_ref();
    let mut wake = ExitWake::new();

    // The merged output (and the shard ledgers beside it) may live in a
    // directory that does not exist yet.
    if let Some(parent) = out.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }

    let mut round = 0usize;
    loop {
        round += 1;
        // Which shards still need work?
        let mut pending: Vec<(usize, bool)> = Vec::new(); // (shard, resume)
        let mut any_defer = false;
        for (i, complete) in complete.iter_mut().enumerate() {
            if *complete {
                continue;
            }
            match fleet.refresh(i)? {
                Refresh::Complete => {
                    *complete = true;
                    let ids = fleet.tracks[i].unit_ids.iter().copied();
                    fleet.covered[i].extend(ids);
                    fleet.defers[i] = 0;
                }
                Refresh::Launch { resume } => {
                    fleet.defers[i] = 0;
                    let attempts = fleet.outcomes[i].attempts;
                    if attempts >= opts.max_attempts {
                        return Err(io::Error::other(format!(
                            "shard {i} did not complete after {attempts} attempt(s); its partial \
                             ledger is at {} (re-run the fleet to continue from it)",
                            fleet.tracks[i].path.display()
                        )));
                    }
                    pending.push((i, resume));
                }
                Refresh::Defer(e) => {
                    fleet.defers[i] += 1;
                    any_defer = true;
                    if fleet.defers[i] > MAX_DEFER_ROUNDS {
                        return Err(io::Error::other(format!(
                            "shard {i}: copy-back failed {} consecutive round(s) \
                             (last error: {e}); its remote ledger is unreachable",
                            fleet.defers[i]
                        )));
                    }
                    if opts.verbose {
                        eprintln!("[fleet] shard {i}: copy-back failed ({e}); will retry");
                    }
                }
            }
        }
        if pending.is_empty() && !any_defer {
            break; // every shard covered
        }
        if pending.is_empty() {
            // Every remaining shard is waiting on fetch recovery; give
            // the transport a beat (a deferral burns time, never a
            // launch attempt).
            fleet.raise_done_floor();
            fleet.write_status(status_file, false);
            std::thread::sleep(opts.progress_interval);
            continue;
        }

        let mut running: Vec<Running> = Vec::with_capacity(pending.len());
        for &(i, resume) in &pending {
            if opts.verbose {
                eprintln!(
                    "[fleet] round {round}: launching shard {i}/{} ({} units{})",
                    procs,
                    fleet.shards[i].len(),
                    if resume { ", resuming" } else { "" }
                );
            }
            let spec = LaunchSpec {
                index: i,
                procs,
                ledger: fleet.tracks[i].path.clone(),
                resume,
                attempt: fleet.outcomes[i].attempts,
                steal: None,
            };
            fleet.outcomes[i].attempts += 1;
            fleet.outcomes[i].resumed |= resume;
            fleet.launches += 1;
            running.push(Running::new(i, transport.launch(&spec)?));
        }

        // Poll every attempt to completion. Exit status is advisory (the
        // next round's fetch + strict read decides); stalls are killed
        // and land in the retry path like any other failure. Probe ticks
        // also drive steal decisions and the status feed, so the loop
        // watches whenever any of those features is on.
        let watch = opts.progress
            || opts.stall_timeout.is_some()
            || opts.status_file.is_some()
            || opts.steal;
        let mut last_probe: Option<Instant> = None;
        loop {
            let mut all_exited = true;
            for r in &mut running {
                if !r.exited {
                    match r.handle.poll()? {
                        ShardStatus::Exited { success } => {
                            r.exited = true;
                            wake.forget(r);
                            if opts.verbose && !success {
                                eprintln!(
                                    "[fleet] {} exited abnormally; will verify its ledger",
                                    fleet.tracks[r.track].name()
                                );
                            }
                        }
                        ShardStatus::Running => all_exited = false,
                    }
                }
                if r.exited && !r.reaped {
                    // Finalize on exit: one last sync, so the coverage
                    // sets (which gate idleness, release kills, and
                    // steal deadness) see the attempt's full ledger even
                    // when it outran the probe interval.
                    r.reaped = true;
                    fleet.sync(r.track, true)?;
                    let covers = fleet.covers(r.track);
                    let track = &mut fleet.tracks[r.track];
                    track.finalized = true;
                    if let Some(st) = track.steal {
                        // A thief released because its victim got there
                        // first covered nothing, yet left no gap: only
                        // an uncovered range is dead.
                        track.dead = !covers;
                        if track.dead && opts.verbose {
                            eprintln!(
                                "[fleet] steal {} died before covering its range; \
                                 the range is eligible again",
                                st.seq
                            );
                        }
                    }
                }
            }
            // Release every still-running attempt whose units are all
            // covered (a victim whose tail the steals finished, or a
            // thief whose victim finished its range first): its work is
            // duplicate. Checked on every poll, so the exit that
            // completes coverage frees the round at once, not at the
            // next probe tick. Not a stall kill.
            for r in running.iter_mut().filter(|r| !r.exited && !r.killed) {
                let track = &fleet.tracks[r.track];
                if track.unit_ids.is_empty() || !fleet.covers(r.track) {
                    continue;
                }
                match track.steal {
                    None => eprintln!(
                        "[fleet] shard {}: released — remaining tail covered by steals",
                        track.shard
                    ),
                    Some(st) => eprintln!(
                        "[fleet] steal {}: released — shard {} already covered its range",
                        st.seq, track.shard
                    ),
                }
                r.handle.kill()?;
                r.killed = true;
            }
            if all_exited {
                break;
            }
            if watch && last_probe.is_none_or(|t| t.elapsed() >= opts.progress_interval) {
                last_probe = Some(Instant::now());
                let bytes_before = fleet.fetch_full_bytes + fleet.fetch_ranged_bytes;
                // Probe every running attempt: sync, then stall-kill.
                // Progress is advisory: a failed mid-run fetch or probe
                // must not abort the fleet. An errored probe leaves the
                // stall clock exactly as it was — it neither counts as
                // progress (resetting it would let a hung shard behind a
                // dead network evade the timeout forever) nor
                // accelerates the kill.
                for r in &mut running {
                    if r.exited {
                        continue;
                    }
                    let before = fleet.tracks[r.track].tailer.count();
                    fleet.sync(r.track, true)?;
                    let track = &fleet.tracks[r.track];
                    if track.tailer.count() > before {
                        r.last_change = Instant::now();
                        if opts.progress {
                            eprintln!("{}", track.progress_line());
                        }
                    }
                    if let Some(limit) = opts.stall_timeout {
                        if !r.killed && r.last_change.elapsed() >= limit {
                            // A shard is retried (and counts the kill); a
                            // steal's range just becomes eligible again.
                            let retry = track.steal.is_none();
                            eprintln!(
                                "[fleet] {}: no ledger progress for {:.1}s; killing{}",
                                track.name(),
                                limit.as_secs_f64(),
                                if retry { " for retry" } else { "" }
                            );
                            if retry {
                                fleet.outcomes[track.shard].stall_kills += 1;
                            }
                            r.handle.kill()?;
                            r.killed = true;
                        }
                    }
                }
                if opts.steal && fleet.tracks.len() - procs < procs * opts.max_attempts {
                    fleet.steal(&mut running, out);
                }
                if fleet.raise_done_floor() && opts.progress {
                    eprintln!(
                        "[fleet] progress: {}/{} units",
                        fleet.done_floor,
                        manifest.len()
                    );
                }
                fleet.write_status(status_file, false);
                probe_fetch_bytes
                    .push(fleet.fetch_full_bytes + fleet.fetch_ranged_bytes - bytes_before);
            }
            wake.wait(&mut running, opts.poll_interval);
        }
        // Round epilogue: report final per-attempt counts, so even a run
        // faster than the probe interval prints a final line.
        if opts.progress {
            for r in &running {
                eprintln!("{}", fleet.tracks[r.track].progress_line());
            }
        }
    }

    // Stream-merge every ledger that passed the strict-read inclusion
    // rule at its shard's last refresh into the canonical output, then
    // prove coverage from the units the merge wrote.
    let inputs: Vec<&Path> = fleet
        .tracks
        .iter()
        .filter(|t| t.done.as_ref().is_some_and(|d| !d.is_empty()))
        .map(|t| t.path.as_path())
        .collect();
    let merged = merge_jsonl_file(&inputs, out, summary)?;
    let written: HashSet<UnitId> = merged.units.iter().copied().collect();
    if merged.fingerprint != manifest.fingerprint {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "merged fleet output carries the wrong fingerprint",
        ));
    }
    let missing: Vec<String> = manifest
        .units
        .iter()
        .filter(|u| !written.contains(&u.id))
        .map(|u| u.id.to_string())
        .collect();
    if !missing.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "merged fleet output is missing {} unit(s): {}",
                missing.len(),
                missing.join(", ")
            ),
        ));
    }
    // Paranoia: the merge must not have invented units either.
    let known: HashSet<_> = manifest.units.iter().map(|u| u.id).collect();
    if written.iter().any(|id| !known.contains(id)) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "merged fleet output contains units outside the manifest",
        ));
    }
    // Only now, with the merged output verified on disk, may the
    // transport drop its remote scratch space. Failure to clean up is a
    // warning, not a failed fleet.
    for t in &fleet.tracks {
        let cleaned = match t.steal {
            None => transport.cleanup(t.shard),
            Some(st) => transport.cleanup_steal(st.seq, t.slot),
        };
        if let Err(e) = cleaned {
            eprintln!("[fleet] warning: cleanup of {} failed: {e}", t.name());
        }
    }
    // Final status snapshot: complete, with the full unit count.
    fleet.raise_done_floor();
    fleet.write_status(status_file, true);
    let steals = &fleet.tracks[procs..];
    Ok(FleetReport {
        merged_units: manifest.len(),
        launches: fleet.launches,
        steal_launches: steals.len(),
        steals: steals
            .iter()
            .filter_map(|t| {
                let st = t.steal?;
                Some(StealEvent {
                    seq: st.seq,
                    victim: st.victim,
                    slot: t.slot,
                    from_pos: st.from_pos,
                    until_pos: st.until_pos,
                    units: t.unit_ids.len(),
                })
            })
            .collect(),
        fetch_full_bytes: fleet.fetch_full_bytes,
        fetch_ranged_bytes: fleet.fetch_ranged_bytes,
        probe_fetch_bytes,
        shards: fleet.outcomes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExperimentConfig, WorkloadSpec};
    use crate::fleet::transport::{LocalTransport, ShardLauncher};
    use dpbench_core::{Domain, Loss};
    use dpbench_datasets::catalog;
    use std::process::Child;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            datasets: vec![catalog::by_name("MEDCOST").unwrap()],
            scales: vec![10_000],
            domains: vec![Domain::D1(128)],
            epsilons: vec![0.5],
            algorithms: vec!["IDENTITY".into(), "UNIFORM".into()],
            n_samples: 1,
            n_trials: 2,
            workload: WorkloadSpec::Prefix,
            loss: Loss::L2,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("dpbench-fleet-mod-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn shard_ledger_paths_keep_the_jsonl_suffix() {
        let out = PathBuf::from("/tmp/results/fleet.jsonl");
        assert_eq!(
            shard_ledger_path(&out, 0),
            PathBuf::from("/tmp/results/fleet.shard0.jsonl")
        );
        assert_eq!(
            shard_ledger_path(Path::new("run"), 3),
            PathBuf::from("run.shard3.jsonl")
        );
        assert_eq!(
            steal_ledger_path(&out, 4),
            PathBuf::from("/tmp/results/fleet.steal4.jsonl")
        );
    }

    #[test]
    fn status_json_is_one_line_and_parses_structurally() {
        let outcomes = vec![ShardOutcome {
            index: 0,
            ledger: PathBuf::from("x.shard0.jsonl"),
            attempts: 1,
            resumed: false,
            units: 4,
            stall_kills: 0,
            tails_stolen: 0,
        }];
        let s = render_status(&StatusInput {
            fingerprint: 0xabcd,
            elapsed_ms: 12,
            units_done: 2,
            launches: 1,
            deferred: 0,
            complete: false,
            shards: &outcomes,
            shard_done: &[2],
            steals: &[],
        });
        assert!(s.ends_with('\n'));
        assert_eq!(s.trim_end().lines().count(), 1);
        assert!(s.contains("\"t\":\"fleet-status\""));
        assert!(s.contains("\"fp\":\"000000000000abcd\""));
        assert!(s.contains("\"units_done\":2"));
        assert!(s.contains("\"shards\":[{\"index\":0,\"units\":4,\"done\":2"));
        assert!(s.contains("\"steals\":[]"));
        assert_eq!(
            s,
            "{\"t\":\"fleet-status\",\"fp\":\"000000000000abcd\",\"elapsed_ms\":12,\
             \"units_total\":4,\"units_done\":2,\"launches\":1,\"steal_launches\":0,\
             \"stall_kills\":0,\"deferred\":0,\"complete\":false,\"shards\":[{\"index\":0,\
             \"units\":4,\"done\":2,\"attempts\":1,\"stall_kills\":0}],\"steals\":[]}\n"
        );

        // Two shards and two steals of shard 1's tail: steal 0 finished
        // (4/4, inactive), steal 1 still running (1/2, active). The
        // whole line is pinned byte for byte.
        let outcomes: Vec<ShardOutcome> = (0..2)
            .map(|i| ShardOutcome {
                index: i,
                ledger: PathBuf::from(format!("x.shard{i}.jsonl")),
                attempts: 1 + i,
                resumed: i == 1,
                units: 8,
                stall_kills: i,
                tails_stolen: 2 * i,
            })
            .collect();
        let ledger = tmp("golden-steal.jsonl");
        let steal = |seq: usize, slot: usize, from: usize, until: usize, done: usize| {
            let mut text =
                "{\"t\":\"run\",\"fp\":\"000000000000abcd\",\"n_trials\":1}\n".to_string();
            for pos in from..from + done {
                text.push_str(&format!(
                    "{{\"t\":\"u\",\"unit\":\"{:016x}\",\"pos\":{pos}}}\n",
                    pos + 1
                ));
            }
            std::fs::write(&ledger, text).unwrap();
            let spec = StealSpec {
                victim: 1,
                from_pos: from,
                until_pos: until,
                seq,
            };
            let ids = (from..until).map(|p| UnitId(p as u64 + 1)).collect();
            let mut track = Track::new(1, slot, Some(spec), ledger.clone(), ids);
            track.tailer.observe(&ledger).unwrap();
            track.finalized = seq == 0;
            track
        };
        let steals = vec![steal(0, 0, 12, 16, 4), steal(1, 0, 10, 12, 1)];
        let _ = std::fs::remove_file(&ledger);
        let s = render_status(&StatusInput {
            fingerprint: 0xabcd,
            elapsed_ms: 345,
            units_done: 13,
            launches: 3,
            deferred: 1,
            complete: false,
            shards: &outcomes,
            shard_done: &[8, 5],
            steals: &steals,
        });
        assert_eq!(
            s,
            "{\"t\":\"fleet-status\",\"fp\":\"000000000000abcd\",\"elapsed_ms\":345,\
             \"units_total\":16,\"units_done\":13,\"launches\":3,\"steal_launches\":2,\
             \"stall_kills\":1,\"deferred\":1,\"complete\":false,\"shards\":[{\"index\":0,\
             \"units\":8,\"done\":8,\"attempts\":1,\"stall_kills\":0},{\"index\":1,\"units\":8,\
             \"done\":5,\"attempts\":2,\"stall_kills\":1}],\"steals\":[{\"seq\":0,\"victim\":1,\
             \"slot\":0,\"from_pos\":12,\"until_pos\":16,\"units\":4,\"done\":4,\"active\":false},\
             {\"seq\":1,\"victim\":1,\"slot\":0,\"from_pos\":10,\"until_pos\":12,\"units\":2,\
             \"done\":1,\"active\":true}]}\n"
        );
    }

    /// A launcher that never spawns anything — exercises the driver's
    /// completeness handling around pre-built ledgers.
    struct NoopLauncher;

    impl ShardLauncher for NoopLauncher {
        fn launch(&self, _spec: &LaunchSpec) -> io::Result<Child> {
            // A no-op child: `true` exits 0 immediately without touching
            // the ledger, modeling a worker that dies before any unit.
            std::process::Command::new("true").spawn()
        }
    }

    /// [`NoopLauncher`] behind the local transport.
    const NOOP: LocalTransport<'static> = LocalTransport {
        launcher: &NoopLauncher,
    };

    #[test]
    fn fleet_over_prebuilt_ledgers_merges_without_launching() {
        use crate::runner::Runner;
        use crate::sink::JsonlSink;
        let out = tmp("prebuilt.jsonl");
        let manifest = Runner::new(tiny_config()).manifest();
        for i in 0..2 {
            let path = shard_ledger_path(&out, i);
            let _ = std::fs::remove_file(&path);
            let runner = Runner::new(tiny_config());
            let mut sink = JsonlSink::create(&path).unwrap();
            runner
                .run_with_sink(&manifest.shard(i, 2), &mut sink)
                .unwrap();
        }
        let opts = FleetOptions {
            procs: 2,
            max_attempts: 1,
            ..FleetOptions::default()
        };
        let report = run_fleet_with(&manifest, &NOOP, &out, &opts).unwrap();
        assert_eq!(report.launches, 0, "complete shards must not relaunch");
        assert_eq!(report.merged_units, manifest.len());
        assert_eq!(report.steal_launches, 0);
        assert!(report.shards.iter().all(|s| s.attempts == 0));
        // Merged output equals a one-shot run byte for byte.
        let ref_path = tmp("prebuilt-ref.jsonl");
        let _ = std::fs::remove_file(&ref_path);
        let runner = Runner::new(tiny_config());
        let mut reference = JsonlSink::create(&ref_path).unwrap();
        runner.run_with_sink(&manifest, &mut reference).unwrap();
        drop(reference);
        assert_eq!(
            std::fs::read(&out).unwrap(),
            std::fs::read(&ref_path).unwrap()
        );
        for p in [&out, &ref_path] {
            let _ = std::fs::remove_file(p);
        }
        for i in 0..2 {
            let _ = std::fs::remove_file(shard_ledger_path(&out, i));
        }
    }

    #[test]
    fn fleet_reports_a_shard_that_never_completes() {
        let out = tmp("stuck.jsonl");
        for i in 0..2 {
            let _ = std::fs::remove_file(shard_ledger_path(&out, i));
        }
        let manifest = crate::manifest::RunManifest::from_config(&tiny_config());
        let opts = FleetOptions {
            procs: 2,
            max_attempts: 2,
            ..FleetOptions::default()
        };
        let err = run_fleet_with(&manifest, &NOOP, &out, &opts).unwrap_err();
        assert!(
            err.to_string()
                .contains("did not complete after 2 attempt(s)"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn torn_header_only_ledger_counts_as_fresh_not_corrupt() {
        use std::io::Write;
        let manifest = crate::manifest::RunManifest::from_config(&tiny_config());
        let shard = manifest.shard(0, 2);
        // A child killed during its very first write: the file holds
        // only a torn header fragment. The fleet must relaunch fresh.
        let path = tmp("torn-header.jsonl");
        let mut f = std::fs::File::create(&path).unwrap();
        write!(f, "{{\"t\":\"run\",\"fp\":\"5b51").unwrap();
        drop(f);
        assert!(matches!(
            shard_state(&path, &shard).unwrap(),
            ShardState::Fresh
        ));
        // But a ledger with real content and a damaged header stays a
        // hard error — that is corruption, not a clean first-write kill.
        let mut f = std::fs::File::create(&path).unwrap();
        writeln!(f, "NOT A HEADER").unwrap();
        writeln!(
            f,
            "{{\"t\":\"u\",\"unit\":\"{}\",\"pos\":{}}}",
            shard.units[0].id, shard.units[0].pos
        )
        .unwrap();
        drop(f);
        assert!(shard_state(&path, &shard).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fleet_refuses_a_foreign_shard_ledger() {
        use crate::runner::Runner;
        use crate::sink::JsonlSink;
        let out = tmp("foreign.jsonl");
        let shard0 = shard_ledger_path(&out, 0);
        let _ = std::fs::remove_file(&shard0);
        // Shard 0's path holds a ledger from a *different* grid.
        let mut other = tiny_config();
        other.epsilons = vec![0.9];
        let other_runner = Runner::new(other);
        let mut sink = JsonlSink::create(&shard0).unwrap();
        other_runner
            .run_with_sink(&other_runner.manifest(), &mut sink)
            .unwrap();
        drop(sink);
        let manifest = crate::manifest::RunManifest::from_config(&tiny_config());
        let err = run_fleet_with(&manifest, &NOOP, &out, &FleetOptions::default()).unwrap_err();
        assert!(
            err.to_string().contains("different run"),
            "unexpected error: {err}"
        );
        let _ = std::fs::remove_file(&shard0);
    }
}
