//! Pluggable shard transports: how the fleet driver starts shard
//! workers, watches them, and gets their artifacts back.
//!
//! PR 4's fleet hard-coded "k local child processes writing directly to
//! the merged output's directory". The [`ShardTransport`] trait factors
//! that into the four operations the driver actually needs —
//!
//! 1. **launch** one shard attempt ([`ShardTransport::launch`]), getting
//!    back a pollable [`ShardHandle`];
//! 2. **poll** the attempt ([`ShardHandle::poll`]) and **kill** it when
//!    the driver decides it has stalled;
//! 3. **fetch** the shard's ledger back to the driver's filesystem
//!    ([`ShardTransport::fetch`], the *copy-back* step);
//! 4. **cleanup** the shard's remote scratch space once the merged
//!    output has been verified ([`ShardTransport::cleanup`]).
//!
//! Three implementations:
//!
//! * [`LocalTransport`] — the PR 4 behavior: adapt any [`ShardLauncher`]
//!   (which spawns a local child writing the ledger in place), so fetch
//!   is a no-op ([`FetchOutcome::InPlace`]).
//! * [`CommandTransport`] — template an arbitrary wrapper command line
//!   around the shard command (`{cmd}`), so `ssh host {cmd}`,
//!   `docker run -v … img {cmd}`, and `sh -c "{cmd}"` all work without
//!   the driver knowing any of them. Shards write into a per-shard
//!   workdir; copy-back is a plain file copy by default or a `--fetch-cmd`
//!   template (`scp host:{src} {dest}`) for genuinely remote workdirs.
//! * [`FaultyTransport`] — **test-only**: runs shards in-process and
//!   injects crashes, hangs, torn copy-backs, empty artifacts, and stale
//!   ledgers deterministically, so `tests/fleet_faults.rs` can prove the
//!   driver survives every remote failure mode without real machines.
//!
//! The driver treats exit status as advisory and the (fetched) ledger as
//! truth, so a transport does not need reliable status reporting — a
//! `ssh` that dies after the remote shard finished is indistinguishable
//! from a clean run once the ledger is fetched.

use crate::config::ExperimentConfig;
use crate::runner::Runner;
use crate::sink::{read_ledger, JsonlSink, Throttle};
use std::collections::{HashMap, HashSet};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A stolen tail: re-deal `victim`'s units with full-run positions in
/// `from_pos..until_pos` to another (idle) slot as a fresh sub-shard
/// launch. The sub-shard manifest is
/// `manifest.shard(victim, procs).span(from_pos, until_pos)`, so the
/// re-dealt units keep their ids, positions, and per-trial RNG streams —
/// the steal ledger merges back bit-identically, and overlap with the
/// victim's own in-flight unit is harmless (the merge verifies duplicate
/// units agree bit-exactly and emits them once).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealSpec {
    /// The straggler shard whose units are being re-dealt.
    pub victim: usize,
    /// First full-run position in the stolen range (inclusive).
    pub from_pos: usize,
    /// End of the stolen range (exclusive).
    pub until_pos: usize,
    /// Fleet-wide steal sequence number — names the steal's own ledger
    /// ([`Artifact::Steal`]), distinct from every shard ledger.
    pub seq: usize,
}

/// Everything a transport needs to start one shard attempt.
#[derive(Debug, Clone)]
pub struct LaunchSpec {
    /// The slot (machine / worker) this attempt runs on, in `0..procs`.
    /// For a primary attempt this is also the shard being run; for a
    /// steal it is the idle slot doing the stealing, and the work is
    /// described by `steal`.
    pub index: usize,
    /// Total shard count (`k` in `--shard i/k`).
    pub procs: usize,
    /// The driver-side ledger path for this attempt. Local transports
    /// write it directly; remote transports write into their own workdir
    /// and copy back to this path on [`ShardTransport::fetch`].
    pub ledger: PathBuf,
    /// True when a prior ledger holds completed units to skip. Always
    /// false for steals (each steal gets a fresh ledger).
    pub resume: bool,
    /// Per-shard launch attempt, counted from 0 (0 for steals).
    pub attempt: usize,
    /// `Some` when this launch is a stolen tail rather than a primary
    /// shard attempt.
    pub steal: Option<StealSpec>,
}

/// What a polled shard attempt is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardStatus {
    /// Still running (or unreachable — the driver keeps polling until
    /// the stall timeout expires).
    Running,
    /// Exited. `success` mirrors the exit status but is advisory only:
    /// the fetched ledger decides whether the shard's work is complete.
    Exited {
        /// Exit-status success, advisory.
        success: bool,
    },
}

/// A launched shard attempt the driver can poll and kill.
pub trait ShardHandle {
    /// Non-blocking status check.
    fn poll(&mut self) -> io::Result<ShardStatus>;
    /// Terminate the attempt (used when the driver declares a stall).
    /// After a kill, `poll` must eventually report `Exited`.
    fn kill(&mut self) -> io::Result<()>;
    /// The id of the local process whose exit ends this attempt, while
    /// that process is unreaped. The driver wakes from its wait between
    /// polls when the process exits instead of sleeping out its poll
    /// interval; `poll` stays the only place an exit is observed. `None`
    /// (the default) keeps the timed sleep.
    fn pid(&self) -> Option<u32> {
        None
    }
}

/// Which shard artifact to copy back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artifact {
    /// The JSONL result/resume ledger.
    Ledger,
    /// The ledger of steal `seq` (a stolen tail's own fresh ledger,
    /// written by whichever slot ran the steal — the `index` argument of
    /// [`ShardTransport::fetch`] names that slot).
    Steal {
        /// Fleet-wide steal sequence number (see [`StealSpec::seq`]).
        seq: usize,
    },
}

/// Result of a copy-back attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchOutcome {
    /// The artifact is produced at the destination path directly (local
    /// transports); nothing was copied.
    InPlace,
    /// The artifact was copied to the destination.
    Copied,
    /// The shard has not produced this artifact (yet) — the destination
    /// was left untouched.
    Missing,
}

/// Result of an incremental (offset-based) copy-back attempt — the
/// O(new-bytes) alternative to re-copying a whole ledger every probe.
///
/// The caller passes `from`, the byte offset of its validated
/// complete-line prefix (see [`crate::fleet::ProgressTailer::offset`]);
/// a supporting transport delivers only the remote bytes past that
/// offset. Correctness rests on the append-only ledger discipline plus
/// fresh-relaunch byte determinism: a shard either appends to the exact
/// byte stream it was writing, or restarts it from byte 0 — in which
/// case the remote file is *shorter* than (or diverges only beyond) any
/// previously validated prefix, and the transport reports
/// [`RangedFetch::Rewound`] after falling back to a full copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangedFetch {
    /// This transport (or this template) cannot range; the caller must
    /// use [`ShardTransport::fetch`] instead. The destination was left
    /// untouched.
    Unsupported,
    /// `bytes` new bytes were appended to the destination after
    /// truncating it to `from` (discarding any torn tail past the
    /// validated prefix).
    Appended {
        /// Bytes transferred (the new tail only).
        bytes: u64,
    },
    /// The remote artifact was shorter than `from` (fresh relaunch) or
    /// the local copy was behind it; the destination was replaced by a
    /// full copy of `bytes` bytes.
    Rewound {
        /// Bytes transferred (the whole artifact).
        bytes: u64,
    },
    /// The remote artifact has exactly `from` bytes — nothing new. The
    /// destination was truncated to `from` (dropping any torn tail).
    Unchanged,
    /// Confirmed absence of the remote artifact (same contract as
    /// [`FetchOutcome::Missing`]); the destination was left untouched.
    Missing,
}

/// How the fleet driver reaches its shards. Implementations decide the
/// machinery (child process, ssh, container, in-process test double);
/// the driver decides *when* to launch, resume, kill, fetch, and merge.
pub trait ShardTransport {
    /// Start one shard attempt.
    fn launch(&self, spec: &LaunchSpec) -> io::Result<Box<dyn ShardHandle>>;

    /// Copy one artifact of shard `index` back to `dest` (the copy-back
    /// step). Called repeatedly — between rounds, after exits, and
    /// periodically for progress tailing — so implementations must
    /// tolerate a still-running shard (a torn or partial copy is fine:
    /// the driver validates with the strict ledger readers and
    /// re-fetches or re-dispatches).
    ///
    /// Outcome contract: [`FetchOutcome::Missing`] asserts **confirmed
    /// absence** of the remote artifact (and leaves `dest` alone) — the
    /// driver takes it as license to restart a partially-fetched shard
    /// fresh. A fetch that merely *failed* (unreachable host, transport
    /// error) must be an `Err` instead: the driver defers the shard and
    /// retries the fetch next round rather than discarding remote work.
    fn fetch(&self, index: usize, artifact: Artifact, dest: &Path) -> io::Result<FetchOutcome>;

    /// Incremental copy-back: deliver only the remote bytes past `from`
    /// (the caller's validated complete-line prefix). The default —
    /// correct for every transport — reports
    /// [`RangedFetch::Unsupported`], making the caller fall back to a
    /// full [`ShardTransport::fetch`]. Error semantics match `fetch`:
    /// `Missing` is confirmed absence, an `Err` is "try again".
    fn fetch_ranged(
        &self,
        index: usize,
        artifact: Artifact,
        dest: &Path,
        from: u64,
    ) -> io::Result<RangedFetch> {
        let _ = (index, artifact, dest, from);
        Ok(RangedFetch::Unsupported)
    }

    /// Remove shard `index`'s remote scratch space. Called only after
    /// the merged output has been verified; local transports no-op.
    fn cleanup(&self, index: usize) -> io::Result<()> {
        let _ = index;
        Ok(())
    }

    /// Remove steal `seq`'s remote scratch space (it ran on slot
    /// `slot`). Called only after the merged output has been verified;
    /// local transports no-op.
    fn cleanup_steal(&self, seq: usize, slot: usize) -> io::Result<()> {
        let _ = (seq, slot);
        Ok(())
    }
}

/// Shared native (filesystem-reachable) implementation of the ranged
/// fetch contract: used by [`CommandTransport`] when no fetch template
/// is configured, and by [`FaultyTransport`] when ranging is enabled.
fn ranged_copy(src: &Path, dest: &Path, from: u64) -> io::Result<RangedFetch> {
    use std::io::{Read, Seek, SeekFrom};
    let src_len = match std::fs::metadata(src) {
        Ok(m) => m.len(),
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(RangedFetch::Missing),
        Err(e) => return Err(e),
    };
    let dest_len = std::fs::metadata(dest).map(|m| m.len()).unwrap_or(0);
    if dest_len < from || src_len < from {
        // Local copy is behind the claimed prefix, or the remote shard
        // restarted its stream: splicing would corrupt — full copy.
        let bytes = std::fs::copy(src, dest)?;
        return Ok(RangedFetch::Rewound { bytes });
    }
    // Drop any torn tail past the validated prefix, then splice the new
    // remote bytes after it. The remote file may keep growing while we
    // read — reading to EOF just delivers a longer (possibly torn) tail,
    // which the caller's line-oriented probes already tolerate.
    let trunc = std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false) // set_len(from) below keeps the validated prefix
        .open(dest)?;
    trunc.set_len(from)?;
    drop(trunc);
    if src_len == from {
        return Ok(RangedFetch::Unchanged);
    }
    let mut input = std::fs::File::open(src)?;
    input.seek(SeekFrom::Start(from))?;
    let mut output = std::fs::OpenOptions::new().append(true).open(dest)?;
    let mut buf = [0u8; 64 * 1024];
    let mut bytes = 0u64;
    loop {
        let n = input.read(&mut buf)?;
        if n == 0 {
            break;
        }
        output.write_all(&buf[..n])?;
        bytes += n as u64;
    }
    output.flush()?;
    Ok(RangedFetch::Appended { bytes })
}

// ---------------------------------------------------------------------------
// Local processes (the PR 4 path)
// ---------------------------------------------------------------------------

/// Spawns one shard process. Implementations decide the command line;
/// the driver decides *when* to launch, whether to pass resume, and what
/// to do with the exit status. This is the PR 4 trait, kept as the
/// simplest way to plug a local child process into [`LocalTransport`].
pub trait ShardLauncher {
    /// Launch one attempt described by `spec` — a primary shard when
    /// `spec.steal` is `None`, a stolen tail otherwise — writing its
    /// ledger to `spec.ledger`.
    fn launch(&self, spec: &LaunchSpec) -> io::Result<Child>;
}

/// A [`Child`] process as a pollable shard handle.
pub struct ProcessHandle {
    child: Child,
    /// Cached terminal status once observed (a `Child` can only be
    /// waited once).
    exited: Option<bool>,
}

impl ProcessHandle {
    /// Wrap a spawned child.
    pub fn new(child: Child) -> Self {
        Self {
            child,
            exited: None,
        }
    }
}

impl ShardHandle for ProcessHandle {
    fn poll(&mut self) -> io::Result<ShardStatus> {
        if let Some(success) = self.exited {
            return Ok(ShardStatus::Exited { success });
        }
        match self.child.try_wait()? {
            Some(status) => {
                self.exited = Some(status.success());
                Ok(ShardStatus::Exited {
                    success: status.success(),
                })
            }
            None => Ok(ShardStatus::Running),
        }
    }

    fn kill(&mut self) -> io::Result<()> {
        if self.exited.is_some() {
            return Ok(());
        }
        // An already-dead child returns InvalidInput from kill; that is
        // a race we want, not an error.
        match self.child.kill() {
            Ok(()) | Err(_) => {}
        }
        let status = self.child.wait()?;
        self.exited = Some(status.success());
        Ok(())
    }

    fn pid(&self) -> Option<u32> {
        self.exited.is_none().then(|| self.child.id())
    }
}

/// Adapt a [`ShardLauncher`] (local child processes writing ledgers in
/// place) to the transport interface: fetch is a no-op, cleanup is a
/// no-op, and the shard ledgers double as the fleet's crash record.
pub struct LocalTransport<'a> {
    /// The command constructor.
    pub launcher: &'a dyn ShardLauncher,
}

impl ShardTransport for LocalTransport<'_> {
    fn launch(&self, spec: &LaunchSpec) -> io::Result<Box<dyn ShardHandle>> {
        let child = self.launcher.launch(spec)?;
        Ok(Box::new(ProcessHandle::new(child)))
    }

    fn fetch(&self, _index: usize, _artifact: Artifact, _dest: &Path) -> io::Result<FetchOutcome> {
        Ok(FetchOutcome::InPlace)
    }
}

// ---------------------------------------------------------------------------
// Command-template transport (ssh / docker / sh -c without knowing any)
// ---------------------------------------------------------------------------

/// The per-shard remote paths a [`CommandTransport`] shard writes to.
#[derive(Debug, Clone)]
pub struct RemotePaths {
    /// The shard's scratch directory (`<workdir>/shard<i>`).
    pub dir: PathBuf,
    /// Remote ledger path (`<dir>/ledger.jsonl`).
    pub ledger: PathBuf,
}

/// Builds the shard command argv (program first) for one attempt, given
/// the remote paths the shard must write to. The CLI supplies this so
/// the transport stays ignorant of `dpbench run`'s flag set.
pub type ShardCommandBuilder = Box<dyn Fn(&LaunchSpec, &RemotePaths) -> Vec<String>>;

/// Launch shards through an arbitrary wrapper command line. The launch
/// template must contain `{cmd}`, which is replaced by the shell-quoted
/// shard command; `{index}`, `{procs}`, and `{workdir}` are also
/// substituted. The whole substituted line runs under `sh -c`, so
///
/// * `{cmd}` — plain local execution through a shell,
/// * `sh -c "{cmd}"` — an explicit wrapper (what CI's remote-smoke uses),
/// * `ssh worker{index} {cmd}` — one machine per shard,
/// * `docker run --rm -v /scratch:/scratch dpbench {cmd}` — containers,
///
/// all work without the driver knowing which. Path substitutions
/// (`{workdir}`, and `{src}`/`{dest}` in the fetch template) are
/// shell-quoted when they need it, so templates behave with paths
/// containing spaces or metacharacters. Each shard writes into its
/// own workdir (`<workdir>/shard<i>/`); copy-back is a plain file copy
/// by default (correct whenever the workdir is reachable locally — same
/// machine, shared filesystem, or a mounted volume) or a `fetch`
/// template like `scp worker{index}:{src} {dest}` for genuinely remote
/// filesystems.
pub struct CommandTransport {
    launch_template: String,
    fetch_template: Option<String>,
    cleanup_template: Option<String>,
    workdir: PathBuf,
    build_command: ShardCommandBuilder,
}

impl CommandTransport {
    /// New transport. Errors unless `launch_template` contains `{cmd}`.
    pub fn new(
        launch_template: impl Into<String>,
        workdir: impl Into<PathBuf>,
        build_command: ShardCommandBuilder,
    ) -> io::Result<Self> {
        let launch_template = launch_template.into();
        if !launch_template.contains("{cmd}") {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("launch template {launch_template:?} does not contain {{cmd}}"),
            ));
        }
        Ok(Self {
            launch_template,
            fetch_template: None,
            cleanup_template: None,
            workdir: workdir.into(),
            build_command,
        })
    }

    /// Use a command template (`{src}`, `{dest}`, `{index}`, `{workdir}`)
    /// for copy-back instead of a plain file copy.
    pub fn with_fetch_template(mut self, template: impl Into<String>) -> Self {
        self.fetch_template = Some(template.into());
        self
    }

    /// Use a command template (`{index}`, `{workdir}`) for cleanup
    /// instead of removing the shard workdir locally.
    pub fn with_cleanup_template(mut self, template: impl Into<String>) -> Self {
        self.cleanup_template = Some(template.into());
        self
    }

    /// The remote paths shard `index` writes to.
    pub fn remote_paths(&self, index: usize) -> RemotePaths {
        let dir = self.workdir.join(format!("shard{index}"));
        RemotePaths {
            ledger: dir.join("ledger.jsonl"),
            dir,
        }
    }

    /// The remote paths steal `seq` writes to. Steals get their own
    /// scratch directory (not the victim's, not the stealing slot's):
    /// the slot's primary shard may still be fetched from its own dir,
    /// and two steals must never collide.
    pub fn remote_steal_paths(&self, seq: usize) -> RemotePaths {
        let dir = self.workdir.join(format!("steal{seq}"));
        RemotePaths {
            ledger: dir.join("ledger.jsonl"),
            dir,
        }
    }

    fn remote_paths_for(&self, spec: &LaunchSpec) -> RemotePaths {
        match &spec.steal {
            Some(st) => self.remote_steal_paths(st.seq),
            None => self.remote_paths(spec.index),
        }
    }

    fn substitute(&self, template: &str, spec: &[(&str, String)]) -> String {
        let mut out = template.to_string();
        for (key, value) in spec {
            out = out.replace(&format!("{{{key}}}"), value);
        }
        out
    }

    fn run_shell(&self, line: &str, stderr: Stdio) -> io::Result<Child> {
        Command::new("sh")
            .arg("-c")
            .arg(line)
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
    }

    /// Run a fetch or cleanup template under `sh -c` with `vars`
    /// substituted. A failed status is an error that `failed` words from
    /// the status and the command line.
    fn run_template(
        &self,
        template: &str,
        vars: &[(&str, String)],
        failed: impl FnOnce(ExitStatus, &str) -> String,
    ) -> io::Result<()> {
        let line = self.substitute(template, vars);
        let status = self.run_shell(&line, Stdio::null())?.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(failed(status, &line)))
        }
    }

    /// Run the fetch template (`what` names it in errors) for the ledger
    /// at `paths`, from byte `offset`, into a scratch file beside `dest`:
    /// the scratch file when the command produced one, `None` when it ran
    /// and produced nothing.
    fn fetch_to_scratch(
        &self,
        template: &str,
        what: &str,
        index: usize,
        paths: &RemotePaths,
        dest: &Path,
        offset: u64,
    ) -> io::Result<Option<PathBuf>> {
        // The command writes to a scratch path, not to `dest` directly:
        // whether a file materialized *this time* is what distinguishes
        // Copied from Missing. Deciding via `dest.exists()` would report
        // stale bytes from an earlier fetch as Copied, and a failed
        // command must leave the previous good copy untouched.
        let scratch = dest.with_file_name(format!(
            "{}.fetch.tmp",
            dest.file_name()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default()
        ));
        let _ = std::fs::remove_file(&scratch);
        let vars = [
            ("src", sh_quote(&paths.ledger.display().to_string())),
            ("dest", sh_quote(&scratch.display().to_string())),
            ("index", index.to_string()),
            ("offset", offset.to_string()),
            ("workdir", sh_quote(&paths.dir.display().to_string())),
        ];
        // Outcome semantics matter here: `Missing` is a claim of
        // *confirmed absence* (the driver restarts a Partial shard fresh
        // on it), while a failed fetch command could just as well be
        // transient unreachability — reporting that as Missing would
        // discard a remote shard's completed work over a network blip.
        // So: command ran and produced nothing → Missing; command failed
        // → an error the driver treats as "try again next round".
        let ran = self.run_template(template, &vars, |status, line| {
            format!("{what} command for shard {index} exited with {status}: {line}")
        });
        if let Err(e) = ran {
            let _ = std::fs::remove_file(&scratch);
            return Err(e);
        }
        Ok(scratch.exists().then_some(scratch))
    }

    /// Remove the workdir at `paths`: through the cleanup template, whose
    /// `{index}` is `index` and whose failure names `whose`, or locally.
    fn cleanup_dir(&self, paths: RemotePaths, index: usize, whose: &str) -> io::Result<()> {
        match &self.cleanup_template {
            Some(template) => self.run_template(
                template,
                &[
                    ("index", index.to_string()),
                    ("workdir", sh_quote(&paths.dir.display().to_string())),
                ],
                |status, _| format!("cleanup command for {whose} exited with {status}"),
            ),
            None => match std::fs::remove_dir_all(&paths.dir) {
                Ok(()) => Ok(()),
                Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
                Err(e) => Err(e),
            },
        }
    }
}

/// Quote one argument for POSIX `sh`. Plain words pass through; anything
/// else — including `*`, which is a legal dpbench identifier character
/// (`MWEM*`) but a glob the shell would expand against the remote cwd —
/// is single-quoted with embedded quotes escaped.
pub fn sh_quote(arg: &str) -> String {
    let plain = !arg.is_empty()
        && arg
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_-./:=,@%+".contains(&b));
    if plain {
        arg.to_string()
    } else {
        format!("'{}'", arg.replace('\'', "'\\''"))
    }
}

impl ShardTransport for CommandTransport {
    fn launch(&self, spec: &LaunchSpec) -> io::Result<Box<dyn ShardHandle>> {
        let paths = self.remote_paths_for(spec);
        // Harmless when the workdir is genuinely remote (the path simply
        // also exists locally); required for the local-wrapper cases.
        std::fs::create_dir_all(&paths.dir)?;
        let argv = (self.build_command)(spec, &paths);
        let cmd = argv
            .iter()
            .map(|a| sh_quote(a))
            .collect::<Vec<_>>()
            .join(" ");
        // Path substitutions are shell-quoted (plain paths pass through
        // unchanged): an unquoted path with a space or metacharacter
        // would word-split inside the sh -c line. {cmd} is already
        // quoted per-argument; {index}/{procs} are numeric.
        let line = self.substitute(
            &self.launch_template,
            &[
                ("cmd", cmd),
                ("index", spec.index.to_string()),
                ("procs", spec.procs.to_string()),
                ("workdir", sh_quote(&paths.dir.display().to_string())),
            ],
        );
        // Tee the wrapper's stderr next to the local ledger, like the
        // local launcher does, so k shards don't interleave on the
        // driver's terminal and the attempt history is preserved.
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(spec.ledger.with_extension("log"))?;
        let child = self.run_shell(&line, Stdio::from(log))?;
        Ok(Box::new(ProcessHandle::new(child)))
    }

    fn fetch(&self, index: usize, artifact: Artifact, dest: &Path) -> io::Result<FetchOutcome> {
        let paths = match artifact {
            Artifact::Ledger => self.remote_paths(index),
            Artifact::Steal { seq } => self.remote_steal_paths(seq),
        };
        match &self.fetch_template {
            // A ranged-capable template ({offset}) doubles as the
            // full-fetch command with offset 0.
            Some(template) => {
                match self.fetch_to_scratch(template, "fetch", index, &paths, dest, 0)? {
                    Some(scratch) => {
                        std::fs::rename(&scratch, dest)?;
                        Ok(FetchOutcome::Copied)
                    }
                    None => Ok(FetchOutcome::Missing),
                }
            }
            None => match std::fs::copy(&paths.ledger, dest) {
                Ok(_) => Ok(FetchOutcome::Copied),
                Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(FetchOutcome::Missing),
                Err(e) => Err(e),
            },
        }
    }

    fn fetch_ranged(
        &self,
        index: usize,
        artifact: Artifact,
        dest: &Path,
        from: u64,
    ) -> io::Result<RangedFetch> {
        let paths = match artifact {
            Artifact::Ledger => self.remote_paths(index),
            Artifact::Steal { seq } => self.remote_steal_paths(seq),
        };
        match &self.fetch_template {
            // No template: the workdir is filesystem-reachable, so range
            // natively with seek + append.
            None => ranged_copy(&paths.ledger, dest, from),
            // A template can range only if it takes the offset; plain
            // `scp {src} {dest}` templates fall back to full fetches.
            Some(template) if !template.contains("{offset}") => Ok(RangedFetch::Unsupported),
            Some(template) => {
                if std::fs::metadata(dest).map(|m| m.len()).unwrap_or(0) < from {
                    // The local copy does not hold the claimed prefix;
                    // splicing a remote tail after it would corrupt.
                    return Ok(RangedFetch::Unsupported);
                }
                let Some(scratch) =
                    self.fetch_to_scratch(template, "ranged fetch", index, &paths, dest, from)?
                else {
                    return Ok(RangedFetch::Missing);
                };
                let bytes = std::fs::metadata(&scratch)?.len();
                // Splice: drop any torn tail past the validated prefix,
                // then append the delivered range.
                let trunc = std::fs::OpenOptions::new()
                    .write(true)
                    .create(true)
                    .truncate(false) // set_len(from) keeps the validated prefix
                    .open(dest)?;
                trunc.set_len(from)?;
                drop(trunc);
                let mut input = std::fs::File::open(&scratch)?;
                let mut output = std::fs::OpenOptions::new().append(true).open(dest)?;
                io::copy(&mut input, &mut output)?;
                output.flush()?;
                let _ = std::fs::remove_file(&scratch);
                if bytes == 0 {
                    Ok(RangedFetch::Unchanged)
                } else {
                    Ok(RangedFetch::Appended { bytes })
                }
            }
        }
    }

    fn cleanup_steal(&self, seq: usize, slot: usize) -> io::Result<()> {
        // {index} names the slot the steal ran on, so templates like
        // `ssh worker{index} rm -rf {workdir}` reach the right machine.
        self.cleanup_dir(self.remote_steal_paths(seq), slot, &format!("steal {seq}"))
    }

    fn cleanup(&self, index: usize) -> io::Result<()> {
        self.cleanup_dir(self.remote_paths(index), index, &format!("shard {index}"))
    }
}

// ---------------------------------------------------------------------------
// Fault-injection transport (test harness)
// ---------------------------------------------------------------------------

/// A launch-time fault, keyed by `(shard, attempt)`.
#[derive(Debug, Clone, Copy)]
pub enum LaunchFault {
    /// Complete `after_units` units, then die with a failing exit; with
    /// `torn_tail`, the crash additionally tears the remote ledger's
    /// final line mid-write.
    Crash {
        /// Units completed before the simulated crash.
        after_units: usize,
        /// Leave a torn (unparseable) trailing fragment in the ledger.
        torn_tail: bool,
    },
    /// Never make progress: the handle reports `Running` until the
    /// driver's stall timeout kills it.
    Hang,
    /// Do all the work, then report a failing exit status anyway — the
    /// "exit status is advisory, the ledger is truth" drill.
    LieAboutExit,
}

/// A copy-back fault, keyed by `(shard or steal, nth fetch of its ledger
/// that found a remote artifact)`.
#[derive(Debug, Clone, Copy)]
pub enum FetchFault {
    /// Deliver only a prefix, dropping the last `drop_bytes` bytes (a
    /// torn copy).
    TornCopy {
        /// Bytes missing from the end of the delivered file.
        drop_bytes: u64,
    },
    /// Deliver a zero-byte artifact.
    EmptyArtifact,
    /// Deliver a ledger belonging to a different run (stale scratch
    /// space from an earlier fleet) — the driver must hard-error, never
    /// merge it.
    StaleLedger,
    /// The fetch fails outright (unreachable host / transport error):
    /// an `Err`, not a `Missing` claim. The driver must *defer* the
    /// shard — retry the fetch next round without burning one of its
    /// launch attempts, since the remote work may be fine.
    Unreachable,
}

/// **Test-only** transport that executes shards in-process (no child
/// processes, no machines) and injects failures deterministically: the
/// fault matrix in `tests/fleet_faults.rs` drives the driver through
/// every remote failure mode and asserts the merged output stays
/// byte-identical to a one-shot run in every survivable case.
///
/// The "remote" side is a local workdir: shard `i` writes
/// `<workdir>/shard<i>.jsonl`, steal `s` writes `<workdir>/steal<s>.jsonl`,
/// and `fetch` copies either back — faithfully, torn, empty, or stale,
/// per the configured fault script.
pub struct FaultyTransport {
    config: ExperimentConfig,
    workdir: PathBuf,
    launch_faults: Mutex<HashMap<(usize, usize), LaunchFault>>,
    fetch_faults: Mutex<HashMap<(Remote, usize), FetchFault>>,
    /// Fetch occurrence counter per remote ledger (only fetches that
    /// found a remote artifact count, so fault scripts stay independent
    /// of how many early-round fetches saw nothing).
    fetch_seen: Mutex<HashMap<Remote, usize>>,
    /// Shard indexes whose scratch space was cleaned up, in call order.
    cleanups: Mutex<Vec<usize>>,
    /// Per-unit delay by *slot* — a property of the (simulated) machine,
    /// so it applies to every launch on that slot: primary attempts and
    /// steals alike. Delayed launches run on a background thread (a
    /// synchronous slow launch would serialize the whole fleet), which
    /// is exactly what lets the driver observe them mid-flight and
    /// steal their tails.
    slow_slots: Mutex<HashMap<usize, Duration>>,
    /// When true, [`ShardTransport::fetch_ranged`] ranges natively
    /// (seek + append) instead of reporting `Unsupported`. The ranged
    /// path bypasses the fetch-fault script and its occurrence counters.
    ranged: bool,
}

/// The remote ledger one [`FaultyTransport`] fetch reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Remote {
    /// Primary shard `i`'s ledger.
    Shard(usize),
    /// Steal `seq`'s ledger.
    Steal(usize),
}

impl FaultyTransport {
    /// New fault-free transport over `config`, with remote scratch space
    /// under `workdir` (created on demand).
    pub fn new(config: ExperimentConfig, workdir: impl Into<PathBuf>) -> Self {
        Self {
            config,
            workdir: workdir.into(),
            launch_faults: Mutex::new(HashMap::new()),
            fetch_faults: Mutex::new(HashMap::new()),
            fetch_seen: Mutex::new(HashMap::new()),
            cleanups: Mutex::new(Vec::new()),
            slow_slots: Mutex::new(HashMap::new()),
            ranged: false,
        }
    }

    /// Make every launch on `slot` (primary or steal) take `per_unit`
    /// per completed unit — the straggler simulator.
    pub fn slow_slot(self, slot: usize, per_unit: Duration) -> Self {
        self.slow_slots.lock().unwrap().insert(slot, per_unit);
        self
    }

    /// Enable native offset-based [`ShardTransport::fetch_ranged`].
    pub fn with_ranged(mut self) -> Self {
        self.ranged = true;
        self
    }

    /// Script a launch fault for `(shard, attempt)`.
    pub fn fail_launch(self, shard: usize, attempt: usize, fault: LaunchFault) -> Self {
        self.launch_faults
            .lock()
            .unwrap()
            .insert((shard, attempt), fault);
        self
    }

    /// Script a copy-back fault for the `occurrence`-th ledger fetch of
    /// `shard` that finds a remote artifact (0-based).
    pub fn fail_fetch(self, shard: usize, occurrence: usize, fault: FetchFault) -> Self {
        self.fetch_faults
            .lock()
            .unwrap()
            .insert((Remote::Shard(shard), occurrence), fault);
        self
    }

    /// Script a copy-back fault for the `occurrence`-th fetch of steal
    /// `seq`'s ledger that finds a remote artifact (0-based).
    pub fn fail_steal_fetch(self, seq: usize, occurrence: usize, fault: FetchFault) -> Self {
        self.fetch_faults
            .lock()
            .unwrap()
            .insert((Remote::Steal(seq), occurrence), fault);
        self
    }

    /// Shard indexes cleaned up so far (call order).
    pub fn cleanups(&self) -> Vec<usize> {
        self.cleanups.lock().unwrap().clone()
    }

    /// Which remote ledger `artifact` of slot `index` names, and its path.
    fn remote(&self, index: usize, artifact: Artifact) -> (Remote, PathBuf) {
        match artifact {
            Artifact::Ledger => (
                Remote::Shard(index),
                self.workdir.join(format!("shard{index}.jsonl")),
            ),
            Artifact::Steal { seq } => (
                Remote::Steal(seq),
                self.workdir.join(format!("steal{seq}.jsonl")),
            ),
        }
    }
}

/// Execute one attempt in-process, honoring resume and the crash fault's
/// unit budget — the same observable behavior as `dpbench run --shard
/// i/k [--resume] [--fail-after N] [--from-pos/--until-pos]
/// [--unit-delay-ms]`. A free function (not a method) so slow-slot
/// launches can run it on a background thread with owned state.
fn execute_faulty_shard(
    config: &ExperimentConfig,
    spec: &LaunchSpec,
    remote: &Path,
    fault: Option<LaunchFault>,
    delay: Option<Duration>,
    cancel: Option<Arc<AtomicBool>>,
) -> io::Result<bool> {
    let mut runner = Runner::new(config.clone());
    runner.threads = 1;
    let mut crash = false;
    let mut torn_tail = false;
    match fault {
        Some(LaunchFault::Crash {
            after_units,
            torn_tail: torn,
        }) => {
            runner.max_units = Some(after_units);
            crash = true;
            torn_tail = torn;
        }
        Some(LaunchFault::LieAboutExit) => crash = true, // work done, exit lies
        Some(LaunchFault::Hang) => unreachable!("hangs never reach run_shard"),
        None => {}
    }
    let shard = match &spec.steal {
        Some(st) => runner
            .manifest()
            .shard(st.victim, spec.procs)
            .span(st.from_pos, st.until_pos),
        None => runner.manifest().shard(spec.index, spec.procs),
    };
    // Mirror the real child: resume over an unreadable ledger is a failed
    // attempt, not silent data loss.
    let (done, mut sink) = if spec.resume {
        let Ok(ledger) = read_ledger(remote) else {
            return Ok(false);
        };
        (ledger.done, JsonlSink::append(remote, ledger.heal)?)
    } else {
        (HashSet::new(), JsonlSink::create(remote)?)
    };
    let mut slow = Throttle::new(&mut sink, delay.unwrap_or_default());
    if let Some(flag) = cancel {
        slow = slow.with_cancel(flag);
    }
    runner.resume(&shard, &done, &mut slow)?;
    if torn_tail {
        // A kill mid-write: a fragment with no newline and no
        // closing brace. `JsonlSink::append` heals it on resume.
        let mut f = std::fs::OpenOptions::new().append(true).open(remote)?;
        write!(f, "{{\"t\":\"s\",\"unit\":\"00")?;
    }
    Ok(!crash)
}

/// Handle of an attempt that already finished (the faulty transport runs
/// shards synchronously inside `launch`).
struct CompletedHandle {
    success: bool,
}

impl ShardHandle for CompletedHandle {
    fn poll(&mut self) -> io::Result<ShardStatus> {
        Ok(ShardStatus::Exited {
            success: self.success,
        })
    }

    fn kill(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Handle of a hung attempt: `Running` until killed.
struct HangHandle {
    killed: bool,
}

impl ShardHandle for HangHandle {
    fn poll(&mut self) -> io::Result<ShardStatus> {
        Ok(if self.killed {
            ShardStatus::Exited { success: false }
        } else {
            ShardStatus::Running
        })
    }

    fn kill(&mut self) -> io::Result<()> {
        self.killed = true;
        Ok(())
    }
}

/// Handle of a slow-slot attempt running on a background thread.
struct ThreadHandle {
    done: Arc<AtomicBool>,
    success: Arc<AtomicBool>,
    kill: Arc<AtomicBool>,
}

impl ShardHandle for ThreadHandle {
    fn poll(&mut self) -> io::Result<ShardStatus> {
        Ok(if self.done.load(Ordering::SeqCst) {
            ShardStatus::Exited {
                success: self.success.load(Ordering::SeqCst),
            }
        } else {
            ShardStatus::Running
        })
    }

    fn kill(&mut self) -> io::Result<()> {
        // The throttle's cancel check notices within one sleep slice;
        // poll reports Exited once the thread winds down (the "after a
        // kill, poll must eventually report Exited" contract).
        self.kill.store(true, Ordering::SeqCst);
        Ok(())
    }
}

impl ShardTransport for FaultyTransport {
    fn launch(&self, spec: &LaunchSpec) -> io::Result<Box<dyn ShardHandle>> {
        std::fs::create_dir_all(&self.workdir)?;
        // Launch faults script *primary* attempts; steals inherit only
        // the slot's speed (a machine property), never the victim's
        // scripted faults.
        let fault = if spec.steal.is_none() {
            self.launch_faults
                .lock()
                .unwrap()
                .get(&(spec.index, spec.attempt))
                .copied()
        } else {
            None
        };
        if matches!(fault, Some(LaunchFault::Hang)) {
            return Ok(Box::new(HangHandle { killed: false }));
        }
        let artifact = match spec.steal {
            Some(st) => Artifact::Steal { seq: st.seq },
            None => Artifact::Ledger,
        };
        let (_, remote) = self.remote(spec.index, artifact);
        let delay = self.slow_slots.lock().unwrap().get(&spec.index).copied();
        if delay.is_none() && spec.steal.is_none() {
            // Fast primary launches run synchronously inside launch — the
            // original behavior every pre-existing fault drill relies on
            // (the driver never observes them mid-flight, so no steals).
            let success = execute_faulty_shard(&self.config, spec, &remote, fault, None, None)?;
            return Ok(Box::new(CompletedHandle { success }));
        }
        // Slow slots — and every steal, even on a fast slot — run on a
        // background thread so the driver's probe loop sees them
        // mid-flight (synchronous steals would serialize inside one
        // probe tick and block the loop).
        let done = Arc::new(AtomicBool::new(false));
        let success = Arc::new(AtomicBool::new(false));
        let kill = Arc::new(AtomicBool::new(false));
        let handle = ThreadHandle {
            done: Arc::clone(&done),
            success: Arc::clone(&success),
            kill: Arc::clone(&kill),
        };
        let config = self.config.clone();
        let spec = spec.clone();
        std::thread::spawn(move || {
            let ok = execute_faulty_shard(
                &config,
                &spec,
                &remote,
                fault,
                delay,
                Some(Arc::clone(&kill)),
            )
            .unwrap_or(false);
            success.store(ok, Ordering::SeqCst);
            done.store(true, Ordering::SeqCst);
        });
        Ok(Box::new(handle))
    }

    fn fetch(&self, index: usize, artifact: Artifact, dest: &Path) -> io::Result<FetchOutcome> {
        let (remote, src) = self.remote(index, artifact);
        if !src.exists() {
            return Ok(FetchOutcome::Missing);
        }
        let occurrence = {
            let mut seen = self.fetch_seen.lock().unwrap();
            let n = seen.entry(remote).or_insert(0);
            let occ = *n;
            *n += 1;
            occ
        };
        let fault = self
            .fetch_faults
            .lock()
            .unwrap()
            .get(&(remote, occurrence))
            .copied();
        match fault {
            None => {
                std::fs::copy(&src, dest)?;
            }
            Some(FetchFault::TornCopy { drop_bytes }) => {
                let bytes = std::fs::read(&src)?;
                let keep = bytes.len().saturating_sub(drop_bytes as usize);
                std::fs::write(dest, &bytes[..keep])?;
            }
            Some(FetchFault::EmptyArtifact) => {
                std::fs::write(dest, b"")?;
            }
            Some(FetchFault::StaleLedger) => {
                std::fs::write(
                    dest,
                    b"{\"t\":\"run\",\"fp\":\"00000000deadbeef\",\"n_trials\":1}\n",
                )?;
            }
            Some(FetchFault::Unreachable) => {
                // A transport failure, not an absence claim: dest is
                // untouched and the driver must defer, not relaunch.
                return Err(io::Error::other(format!(
                    "injected fault: {remote:?} unreachable"
                )));
            }
        }
        Ok(FetchOutcome::Copied)
    }

    fn fetch_ranged(
        &self,
        index: usize,
        artifact: Artifact,
        dest: &Path,
        from: u64,
    ) -> io::Result<RangedFetch> {
        if !self.ranged {
            return Ok(RangedFetch::Unsupported);
        }
        ranged_copy(&self.remote(index, artifact).1, dest, from)
    }

    fn cleanup(&self, index: usize) -> io::Result<()> {
        self.cleanups.lock().unwrap().push(index);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A process handle names its child only while the child is unreaped:
    /// once `poll` or `kill` has waited on it, the pid may belong to
    /// another process, so the driver must not watch it.
    #[test]
    fn process_handle_names_its_pid_until_reaped() {
        for kill in [false, true] {
            let child = Command::new("sleep")
                .arg(if kill { "30" } else { "0" })
                .spawn()
                .unwrap();
            let pid = child.id();
            let mut handle = ProcessHandle::new(child);
            assert_eq!(handle.pid(), Some(pid));
            if kill {
                handle.kill().unwrap();
            } else {
                while handle.poll().unwrap() == ShardStatus::Running {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            assert!(matches!(handle.poll().unwrap(), ShardStatus::Exited { .. }));
            assert_eq!(handle.pid(), None);
        }
    }

    #[test]
    fn sh_quote_passes_plain_words_and_quotes_the_rest() {
        assert_eq!(sh_quote("--out"), "--out");
        assert_eq!(sh_quote("run.shard0.jsonl"), "run.shard0.jsonl");
        assert_eq!(sh_quote("/tmp/a-b_c.1/x"), "/tmp/a-b_c.1/x");
        // `*` is a valid identifier character (MWEM*) but must be
        // quoted, or the remote shell globs it against its cwd.
        assert_eq!(sh_quote("MWEM*"), "'MWEM*'");
        assert_eq!(sh_quote("IDENTITY,MWEM*"), "'IDENTITY,MWEM*'");
        assert_eq!(sh_quote("a b"), "'a b'");
        assert_eq!(sh_quote("it's"), "'it'\\''s'");
        assert_eq!(sh_quote(""), "''");
        assert_eq!(sh_quote("$HOME"), "'$HOME'");
    }

    #[test]
    fn command_transport_requires_cmd_placeholder() {
        let err = CommandTransport::new("ssh host", "/tmp/w", Box::new(|_, _| vec![]))
            .err()
            .expect("template without {cmd} must be rejected");
        assert!(err.to_string().contains("{cmd}"), "{err}");
        assert!(CommandTransport::new("ssh host {cmd}", "/tmp/w", Box::new(|_, _| vec![])).is_ok());
    }

    #[test]
    fn command_transport_shard_paths_are_per_shard() {
        let t = CommandTransport::new("{cmd}", "/scratch/fleet", Box::new(|_, _| vec![])).unwrap();
        let p = t.remote_paths(3);
        assert_eq!(p.dir, PathBuf::from("/scratch/fleet/shard3"));
        assert_eq!(
            p.ledger,
            PathBuf::from("/scratch/fleet/shard3/ledger.jsonl")
        );
    }

    #[test]
    fn command_transport_fetch_reports_missing_without_touching_dest() {
        let dir = std::env::temp_dir().join(format!("dpbench-cmdt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let t = CommandTransport::new("{cmd}", dir.join("w"), Box::new(|_, _| vec![])).unwrap();
        let dest = dir.join("local.jsonl");
        std::fs::write(&dest, b"precious local bytes").unwrap();
        assert_eq!(
            t.fetch(0, Artifact::Ledger, &dest).unwrap(),
            FetchOutcome::Missing
        );
        assert_eq!(std::fs::read(&dest).unwrap(), b"precious local bytes");
        // Once the remote artifact exists, fetch copies it over.
        std::fs::create_dir_all(t.remote_paths(0).dir).unwrap();
        std::fs::write(t.remote_paths(0).ledger, b"remote bytes").unwrap();
        assert_eq!(
            t.fetch(0, Artifact::Ledger, &dest).unwrap(),
            FetchOutcome::Copied
        );
        assert_eq!(std::fs::read(&dest).unwrap(), b"remote bytes");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn command_transport_fetch_template_substitutes_src_and_dest() {
        let dir = std::env::temp_dir().join(format!("dpbench-cmdt-tpl-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let t = CommandTransport::new("{cmd}", dir.join("w"), Box::new(|_, _| vec![]))
            .unwrap()
            .with_fetch_template("cp {src} {dest}");
        std::fs::create_dir_all(t.remote_paths(1).dir).unwrap();
        std::fs::write(t.remote_paths(1).ledger, b"via template").unwrap();
        let dest = dir.join("fetched.jsonl");
        assert_eq!(
            t.fetch(1, Artifact::Ledger, &dest).unwrap(),
            FetchOutcome::Copied
        );
        assert_eq!(std::fs::read(&dest).unwrap(), b"via template");
        // A failing fetch command is an error ("try again"), never a
        // Missing claim that would authorize discarding remote work.
        let t = CommandTransport::new("{cmd}", dir.join("w"), Box::new(|_, _| vec![]))
            .unwrap()
            .with_fetch_template("false");
        let err = t.fetch(1, Artifact::Ledger, &dest).unwrap_err();
        assert!(err.to_string().contains("fetch command"), "{err}");
        // Command ran fine but produced nothing → confirmed absence —
        // even when an earlier fetch left bytes at dest (Copied must
        // mean "a file materialized *this time*", never stale bytes).
        let t = CommandTransport::new("{cmd}", dir.join("w"), Box::new(|_, _| vec![]))
            .unwrap()
            .with_fetch_template("true");
        assert_eq!(
            t.fetch(1, Artifact::Ledger, &dir.join("nonexistent.jsonl"))
                .unwrap(),
            FetchOutcome::Missing
        );
        std::fs::write(&dest, b"stale earlier copy").unwrap();
        assert_eq!(
            t.fetch(1, Artifact::Ledger, &dest).unwrap(),
            FetchOutcome::Missing
        );
        assert_eq!(std::fs::read(&dest).unwrap(), b"stale earlier copy");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fetch_template_survives_paths_with_spaces() {
        // Regression: {src}/{dest}/{workdir} substitutions are quoted
        // before hitting sh -c; an unquoted space would word-split the
        // cp and make every fetch silently Missing.
        let dir = std::env::temp_dir().join(format!("dpbench cmdt sp {}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let t = CommandTransport::new("{cmd}", dir.join("w dir"), Box::new(|_, _| vec![]))
            .unwrap()
            .with_fetch_template("cp {src} {dest}");
        std::fs::create_dir_all(t.remote_paths(0).dir).unwrap();
        std::fs::write(t.remote_paths(0).ledger, b"spacey bytes").unwrap();
        let dest = dir.join("fetched here.jsonl");
        assert_eq!(
            t.fetch(0, Artifact::Ledger, &dest).unwrap(),
            FetchOutcome::Copied
        );
        assert_eq!(std::fs::read(&dest).unwrap(), b"spacey bytes");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn native_ranged_fetch_appends_rewinds_and_confirms_absence() {
        let dir = std::env::temp_dir().join(format!("dpbench-ranged-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let t = CommandTransport::new("{cmd}", dir.join("w"), Box::new(|_, _| vec![])).unwrap();
        let dest = dir.join("local.jsonl");

        // Absent remote: Missing, dest untouched.
        assert_eq!(
            t.fetch_ranged(0, Artifact::Ledger, &dest, 0).unwrap(),
            RangedFetch::Missing
        );
        assert!(!dest.exists());

        // First delivery from offset 0 appends everything.
        std::fs::create_dir_all(t.remote_paths(0).dir).unwrap();
        let remote = t.remote_paths(0).ledger;
        std::fs::write(&remote, b"line one\nline two\n").unwrap();
        assert_eq!(
            t.fetch_ranged(0, Artifact::Ledger, &dest, 0).unwrap(),
            RangedFetch::Appended { bytes: 18 }
        );
        assert_eq!(std::fs::read(&dest).unwrap(), b"line one\nline two\n");

        // Nothing new: Unchanged, and a torn local tail past the
        // validated prefix is dropped.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&dest)
            .unwrap();
        f.write_all(b"torn frag").unwrap();
        drop(f);
        assert_eq!(
            t.fetch_ranged(0, Artifact::Ledger, &dest, 18).unwrap(),
            RangedFetch::Unchanged
        );
        assert_eq!(std::fs::read(&dest).unwrap(), b"line one\nline two\n");

        // Remote growth delivers only the new tail.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&remote)
            .unwrap();
        f.write_all(b"line three\n").unwrap();
        drop(f);
        assert_eq!(
            t.fetch_ranged(0, Artifact::Ledger, &dest, 18).unwrap(),
            RangedFetch::Appended { bytes: 11 }
        );
        assert_eq!(
            std::fs::read(&dest).unwrap(),
            b"line one\nline two\nline three\n"
        );

        // Remote shrank below the prefix (fresh relaunch): full re-copy.
        std::fs::write(&remote, b"fresh\n").unwrap();
        assert_eq!(
            t.fetch_ranged(0, Artifact::Ledger, &dest, 18).unwrap(),
            RangedFetch::Rewound { bytes: 6 }
        );
        assert_eq!(std::fs::read(&dest).unwrap(), b"fresh\n");

        // Local copy behind the claimed prefix: full re-copy, never a
        // corrupting splice.
        std::fs::write(&remote, b"0123456789\n").unwrap();
        std::fs::write(&dest, b"012").unwrap();
        assert_eq!(
            t.fetch_ranged(0, Artifact::Ledger, &dest, 7).unwrap(),
            RangedFetch::Rewound { bytes: 11 }
        );
        assert_eq!(std::fs::read(&dest).unwrap(), b"0123456789\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn template_ranged_fetch_requires_offset_placeholder() {
        let dir = std::env::temp_dir().join(format!("dpbench-ranged-tpl-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // A template without {offset} cannot range: fall back to full.
        let t = CommandTransport::new("{cmd}", dir.join("w"), Box::new(|_, _| vec![]))
            .unwrap()
            .with_fetch_template("cp {src} {dest}");
        let dest = dir.join("local.jsonl");
        assert_eq!(
            t.fetch_ranged(0, Artifact::Ledger, &dest, 0).unwrap(),
            RangedFetch::Unsupported
        );

        // With {offset}, the delivered range is spliced after the
        // validated prefix — the shell-arithmetic form CI uses (tail -c
        // +N is 1-based).
        let t = CommandTransport::new("{cmd}", dir.join("w"), Box::new(|_, _| vec![]))
            .unwrap()
            .with_fetch_template("tail -c +$(({offset}+1)) {src} > {dest}");
        std::fs::create_dir_all(t.remote_paths(2).dir).unwrap();
        let remote = t.remote_paths(2).ledger;
        std::fs::write(&remote, b"abcdefgh").unwrap();
        assert_eq!(
            t.fetch_ranged(2, Artifact::Ledger, &dest, 0).unwrap(),
            RangedFetch::Appended { bytes: 8 }
        );
        assert_eq!(std::fs::read(&dest).unwrap(), b"abcdefgh");
        std::fs::write(&remote, b"abcdefghij").unwrap();
        assert_eq!(
            t.fetch_ranged(2, Artifact::Ledger, &dest, 8).unwrap(),
            RangedFetch::Appended { bytes: 2 }
        );
        assert_eq!(std::fs::read(&dest).unwrap(), b"abcdefghij");
        // And the same template serves full fetches with offset 0.
        let full = dir.join("full.jsonl");
        assert_eq!(
            t.fetch(2, Artifact::Ledger, &full).unwrap(),
            FetchOutcome::Copied
        );
        assert_eq!(std::fs::read(&full).unwrap(), b"abcdefghij");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn steal_artifacts_use_their_own_scratch_dirs() {
        let dir = std::env::temp_dir().join(format!("dpbench-stealdir-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let t = CommandTransport::new("{cmd}", dir.join("w"), Box::new(|_, _| vec![])).unwrap();
        let p = t.remote_steal_paths(4);
        assert_eq!(p.dir, dir.join("w/steal4"));
        assert_eq!(p.ledger, dir.join("w/steal4/ledger.jsonl"));
        std::fs::create_dir_all(&p.dir).unwrap();
        std::fs::write(&p.ledger, b"stolen tail bytes").unwrap();
        let dest = dir.join("steal4.jsonl");
        // Fetching Artifact::Steal ignores the slot's shard dir.
        assert_eq!(
            t.fetch(1, Artifact::Steal { seq: 4 }, &dest).unwrap(),
            FetchOutcome::Copied
        );
        assert_eq!(std::fs::read(&dest).unwrap(), b"stolen tail bytes");
        t.cleanup_steal(4, 1).unwrap();
        assert!(!p.dir.exists());
        t.cleanup_steal(4, 1).unwrap(); // idempotent
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn command_transport_cleanup_removes_the_shard_workdir() {
        let dir = std::env::temp_dir().join(format!("dpbench-cmdt-clean-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let t = CommandTransport::new("{cmd}", dir.join("w"), Box::new(|_, _| vec![])).unwrap();
        std::fs::create_dir_all(t.remote_paths(0).dir).unwrap();
        std::fs::write(t.remote_paths(0).ledger, b"x").unwrap();
        t.cleanup(0).unwrap();
        assert!(!t.remote_paths(0).dir.exists());
        // Cleaning an absent workdir is fine (idempotent).
        t.cleanup(0).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
