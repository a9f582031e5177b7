//! # dpbench-core
//!
//! Core data model and differential-privacy primitives for the DPBench
//! benchmark (Hay et al., *Principled Evaluation of Differentially Private
//! Algorithms using DPBench*, SIGMOD 2016).
//!
//! This crate defines:
//!
//! * the [`Domain`]/[`DataVector`] data model (Section 2.2 of the paper):
//!   a dataset is a multi-dimensional array of counts `x` with three key
//!   properties — *domain size* `n`, *scale* `‖x‖₁`, and *shape*
//!   `p = x/‖x‖₁`;
//! * range-query [`Workload`]s and their efficient evaluation through
//!   prefix-sum / summed-area tables;
//! * the building-block mechanisms every algorithm is composed of: the
//!   [Laplace mechanism](primitives::laplace_vec) and the
//!   [exponential mechanism](primitives::exponential_mechanism);
//! * a [`BudgetLedger`] that *enforces* end-to-end privacy accounting at
//!   runtime (paper Principles 5–7);
//! * the two-phase [`Mechanism`] trait implemented by every algorithm in
//!   `dpbench-algorithms`: [`Mechanism::plan`] (data-independent setup,
//!   cacheable across trials) and [`Plan::execute`] (the private part,
//!   producing a structured [`Release`] with estimate, budget trace, and
//!   strategy diagnostics), with metadata mirroring the paper's Table 1;
//! * the error standard `E_M` (Definition 3: *scaled average per-query
//!   error*);
//! * the workspace's one JSON codec ([`json`]): the string escaper, the
//!   float writer and the strict one-object-per-line reader behind every
//!   ledger, summary, journal, profile and HTTP body.

pub mod budget;
pub mod data;
pub mod domain;
pub mod error;
pub mod json;
pub mod mechanism;
pub mod primitives;
pub mod query;
pub mod rng;
pub mod workload;
pub mod workspace;

pub use budget::{BudgetLedger, SpendRecord};
pub use data::DataVector;
pub use domain::Domain;
pub use error::{scaled_per_query_error, Loss};
pub use mechanism::{Fingerprint, MechError, MechInfo, Mechanism, Plan, PlanDiagnostics, Release};
pub use query::RangeQuery;
pub use workload::Workload;
pub use workspace::Workspace;
