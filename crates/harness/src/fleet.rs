//! Shard fleets over pluggable transports: spawn, watch, copy back,
//! retry, and merge.
//!
//! PR 3 made sharded runs *possible* (`dpbench run --shard i/k` writes a
//! per-shard JSONL ledger whose union is bit-identical to a one-shot
//! run); PR 4 added the one-command driver over k local child
//! processes. This module generalizes the driver to **k shards over any
//! transport**:
//!
//! * [`driver`] — the transport-agnostic conductor: contiguous-block
//!   shard manifests, launch rounds with retry/resume, the copy-back
//!   protocol (fetch → validate with the strict readers → re-dispatch on
//!   torn or missing artifacts), stall detection, live progress, and the
//!   final k-way stream-merge with coverage verification.
//! * [`transport`] — how shards actually run: local child processes
//!   ([`LocalTransport`] over a [`ShardLauncher`]), an arbitrary
//!   templated wrapper command line ([`CommandTransport`] — covers
//!   `ssh`, `docker run`, and `sh -c` without the driver knowing any of
//!   them), and a deterministic fault injector ([`FaultyTransport`])
//!   for the crash/hang/torn-copy-back test matrix.
//! * [`progress`] — the monotone units-done tailer behind the live
//!   per-shard progress lines.
//!
//! The invariant everything here protects: the merged fleet output is
//! **byte-identical** to an uninterrupted single-process run, whatever
//! the transport did along the way.

pub mod driver;
pub mod progress;
pub mod transport;

pub use driver::{
    run_fleet_summarized, run_fleet_with, shard_ledger_path, shard_summary_path, steal_ledger_path,
    FleetOptions, FleetReport, ShardOutcome, StealEvent,
};
pub use progress::ProgressTailer;
pub use transport::{
    sh_quote, Artifact, CommandTransport, FaultyTransport, FetchFault, FetchOutcome, LaunchFault,
    LaunchSpec, LocalTransport, ProcessHandle, RangedFetch, RemotePaths, ShardCommandBuilder,
    ShardHandle, ShardLauncher, ShardStatus, ShardTransport, StealSpec,
};
