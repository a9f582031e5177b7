//! # dpbench-harness
//!
//! The task-independent components of the benchmark (paper Section 5):
//! the streaming experiment engine (manifest-driven grid runner + result
//! sinks + checkpoint/resume), the algorithm repair functions `R`
//! (free-parameter tuning `Rparam` and side-information repair `Rside`),
//! and the measurement/interpretation standards `E_M` / `E_I`
//! (mean + 95th-percentile error, competitive sets, regret, baselines).
//!
//! A grid run flows through three layers:
//!
//! 1. [`ExperimentConfig`] expands into a deterministic [`RunManifest`]
//!    of content-addressed units ([`manifest`]);
//! 2. the [`Runner`] streams completed units through a bounded channel
//!    into a [`ResultSink`] ([`runner`], [`sink`]) — memory, JSONL
//!    ledger, or O(1) streaming aggregation;
//! 3. a JSONL ledger checkpoint lets [`Runner::resume`] (or a
//!    `--shard`ed fleet of processes) reproduce the single-process run
//!    bit-identically;
//! 4. the [`fleet`] driver runs a whole shard fleet as one call — over
//!    local child processes or any pluggable [`fleet::ShardTransport`]
//!    (templated `ssh`/`docker` command lines, test fault injectors) —
//!    fetching remote ledgers back before validating them, retrying and
//!    resuming failures, tailing live per-shard progress, k-way
//!    stream-merging the shard files byte-identically to a one-shot
//!    run, and combining per-shard t-digest summaries without
//!    re-reading raw samples.

pub mod competitive;
pub mod config;
pub mod fleet;
pub mod manifest;
pub mod repair;
pub mod results;
pub mod runner;
pub mod selector;
pub mod serve;
pub mod sink;
pub mod tuning;

pub use config::{ExperimentConfig, Setting};
pub use fleet::{
    run_fleet_with, CommandTransport, FleetOptions, FleetReport, LaunchSpec, ShardLauncher,
    ShardTransport, StealEvent, StealSpec,
};
pub use manifest::{ManifestUnit, RunManifest, UnitId};
pub use results::{ErrorSample, ResultStore, SettingSummary};
pub use runner::{RunStats, Runner};
pub use selector::{SelectionProfile, SelectorQuery, ShapeClass};
pub use sink::{AggregatingSink, JsonlSink, MemorySink, ResultSink, Tee};
