//! `dpbench serve` — an online DP release server with per-tenant budget
//! accounting.
//!
//! The paper evaluates mechanisms in batch, but its framing — many users
//! each spending a small privacy budget on range-query workloads — is an
//! online service. This module is that service, built entirely on the
//! batch machinery the harness already trusts:
//!
//! - [`http`] — a hand-rolled HTTP/1.1 layer over `std::net::TcpListener`
//!   (the workspace is offline-vendored; no tokio/hyper): request
//!   parsing, keep-alive, and a flat-JSON body parser.
//! - [`accountant`] — [`TenantAccountant`], per-tenant ε budgets on the
//!   existing `BudgetLedger` with atomic check-and-reserve before
//!   `Plan::execute`, refund on mechanism error, and 429-style admission
//!   control once a tenant's ε is exhausted.
//! - [`journal`] — a persistent JSONL spend journal with the sink
//!   module's strict-reader discipline (mid-file corruption is a hard
//!   error; only a torn final line is healed), so a restarted server
//!   recovers **bit-exact** balances by replaying the same float ops in
//!   the same order.
//! - [`poller`] — the readiness layer: a raw `extern "C"` epoll binding
//!   (one-shot events, any worker can wait), a dependency-free timer
//!   wheel for connection deadlines, and a self-pipe wakeup. epoll makes
//!   the server Linux-only; elsewhere it refuses to start.
//! - [`server`] — the event-driven worker pool, router, and endpoints:
//!   `POST /v1/release`, `GET /v1/tenants/:id/budget`, `GET /v1/status`,
//!   `GET /v1/healthz`, `GET /v1/readyz`, `POST /v1/admin/reload`.
//!   Connections park on the poller between requests, so a slow or idle
//!   peer costs a wakeup per byte — never a pinned worker or a scan
//!   cadence.
//! - [`limits`] — the hostile-world knobs: connection caps, header/idle/
//!   write deadlines, admission-queue bounds, and per-tenant token-bucket
//!   rate limits. Violations answer with clean 408/413/429/431/503 (see
//!   the README's "Failure modes & error contract" table).
//! - [`fault`] — deterministic fault injection ([`fault::FaultyIo`]) for
//!   the journal's [`journal::JournalIo`] seam: short writes, fsync
//!   errors, torn tails, ENOSPC — so crash consistency is a seeded test
//!   matrix, not a hope.
//! - [`shutdown`] — process-wide SIGINT/SIGTERM flag (no deps: a plain
//!   `extern "C"` binding to `signal(2)`), polled by the accept loop and
//!   by `dpbench run`'s cancel hook so both drain and flush before exit;
//!   plus the SIGHUP → tenant-reload flag for `dpbench serve`.
//!
//! - [`workload_cache`] — [`WorkloadCache`], the one cross-request
//!   cache: at most [`WORKLOAD_CAPACITY`] workloads, least recently used
//!   out first, each owning its queries, its true answers and its plans.
//!   A repeated release request skips workload and strategy construction
//!   entirely — the response carries a per-request `plan_cache_hit` bit —
//!   and a flood of distinct workloads cannot grow the server.

pub mod accountant;
pub mod fault;
pub mod http;
pub mod journal;
pub mod limits;
pub mod poller;
pub mod server;
pub mod shutdown;
pub mod workload_cache;

pub use accountant::{
    parse_tenant_grants, AdmissionError, BudgetSnapshot, ReloadOutcome, TenantAccountant,
};
pub use fault::{AppendFault, FaultyIo};
pub use journal::{FileIo, JournalIo, JournalOp, JournalRecord, SpendJournal};
pub use limits::{Limits, RateLimit, RateLimiter};
pub use poller::{Poller, TimerWheel};
pub use server::{start, ServeConfig, ServerHandle};
pub use workload_cache::{WorkloadCache, WORKLOAD_CAPACITY};
