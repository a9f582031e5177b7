//! # dpbench
//!
//! A complete Rust reproduction of **DPBench** — *"Principled Evaluation
//! of Differentially Private Algorithms using DPBench"* (Hay,
//! Machanavajjhala, Miklau, Chen, Zhang; SIGMOD 2016).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] — data model, workloads, DP primitives, budget ledger,
//!   mechanism trait, error standard;
//! * [`transforms`] — Haar wavelets, FFT, Hilbert curves, dense linear
//!   algebra, weighted tree least squares;
//! * [`stats`] — t-tests, percentiles, bias/variance decomposition,
//!   regret;
//! * [`datasets`] — the 27 calibrated dataset shapes and the data
//!   generator `G`;
//! * [`algorithms`] — the full Table 1 mechanism suite (IDENTITY, H, Hb,
//!   GREEDY_H, PRIVELET, UNIFORM, MWEM/MWEM★, AHP/AHP★, DPCUBE, DAWA,
//!   PHP, EFPA, SF, QUADTREE, UGRID, AGRID, HYBRIDTREE);
//! * [`harness`] — the experiment grid runner, `Rparam` tuning, `Rside`
//!   repair, and competitive-set analysis.
//!
//! ## Quickstart
//!
//! Mechanisms run in two phases: [`Mechanism::plan`](core::Mechanism::plan) does all
//! data-independent setup (strategy matrices, hierarchy layouts — cache
//! it across trials), and [`Plan::execute`](core::Plan::execute) performs
//! the private part, returning a structured [`Release`](core::Release)
//! with the estimate, the per-step budget trace, and strategy
//! diagnostics. `run_eps` remains the one-line shim for single runs.
//!
//! ```
//! use dpbench::prelude::*;
//! use rand::SeedableRng;
//!
//! // Generate a benchmark dataset: MEDCOST shape, 10,000 records, n=256.
//! let dataset = dpbench::datasets::catalog::by_name("MEDCOST").unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let x = DataGenerator::new().generate(&dataset, Domain::D1(256), 10_000, &mut rng);
//!
//! // Answer the Prefix workload with DAWA at ε = 0.1.
//! let workload = Workload::prefix_1d(256);
//! let dawa = mechanism_by_name("DAWA").unwrap();
//!
//! // Phase 1: plan (data-independent, reusable across trials) …
//! let plan = dawa.plan(&x.domain(), &workload).unwrap();
//! // … phase 2: execute (private), yielding a structured Release.
//! let release = execute_eps(plan.as_ref(), &x, 0.1, &mut rng).unwrap();
//! assert!(release.spent() <= 0.1 + 1e-12);
//!
//! // Measure the scaled per-query error (paper Definition 3).
//! let y = workload.evaluate(&x);
//! let y_hat = workload.evaluate_cells(&release.estimate);
//! let err = scaled_per_query_error(&y, &y_hat, x.scale(), Loss::L2);
//! assert!(err.is_finite());
//!
//! // One-liner equivalent when no reuse is needed:
//! let estimate = dawa.run_eps(&x, &workload, 0.1, &mut rng).unwrap();
//! assert_eq!(estimate.len(), 256);
//! ```
//!
//! The grid harness caches plans keyed by `(mechanism, domain, workload)`
//! (see [`harness::runner::PlanCache`]), so data-independent strategies
//! are built once per grid cell instead of once per trial.

pub use dpbench_algorithms as algorithms;
pub use dpbench_core as core;
pub use dpbench_datasets as datasets;
pub use dpbench_harness as harness;
pub use dpbench_stats as stats;
pub use dpbench_transforms as transforms;

/// Convenient re-exports for typical benchmark use.
pub mod prelude {
    pub use dpbench_algorithms::registry::{
        mechanism_by_name, mechanisms_1d, mechanisms_2d, FIGURE_1A, FIGURE_1B, NAMES_1D, NAMES_2D,
    };
    pub use dpbench_core::mechanism::execute_eps;
    pub use dpbench_core::{
        scaled_per_query_error, BudgetLedger, DataVector, Domain, Loss, MechError, MechInfo,
        Mechanism, Plan, PlanDiagnostics, RangeQuery, Release, SpendRecord, Workload,
    };
    pub use dpbench_datasets::{datasets_1d, datasets_2d, DataGenerator, Dataset};
    pub use dpbench_harness::config::{ExperimentConfig, WorkloadSpec};
    pub use dpbench_harness::runner::{PlanCache, PlanCacheStats};
    pub use dpbench_harness::{ErrorSample, ResultStore, Runner};
    pub use dpbench_stats::Summary;
}
