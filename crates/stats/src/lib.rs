//! # dpbench-stats
//!
//! Statistical machinery behind the benchmark's measurement and
//! interpretation standards (paper Sections 5.3–5.4):
//!
//! * [`special`] — `erf`, regularized incomplete beta, Student-t and normal
//!   CDFs (needed for significance testing without external crates);
//! * [`describe`] — online/offline summary statistics and percentiles
//!   (mean error and the 95th-percentile "risk-averse" error);
//! * [`tdigest`] — mergeable streaming quantile sketch, so sharded runs
//!   combine per-shard summaries without re-reading raw samples;
//! * [`ttest`] — Welch's unpaired two-sample t-test with Bonferroni
//!   correction, used to find *competitive* algorithms (Tables 3a/3b);
//! * [`decompose`] — bias²/variance decomposition of mechanism error
//!   (Finding 9);
//! * [`regret`] — geometric-mean regret against the per-setting oracle
//!   (Finding 5).

pub mod decompose;
pub mod describe;
pub mod regret;
pub mod special;
pub mod streaming;
pub mod tdigest;
pub mod ttest;

pub use decompose::ErrorDecomposition;
pub use describe::{mean, percentile, std_dev, variance, Summary, Welford};
pub use regret::{geometric_mean_regret, RegretError};
pub use streaming::StreamingSummary;
pub use tdigest::{Centroid, TDigest};
pub use ttest::{
    bonferroni_alpha, competitive_set, competitive_set_moments, welch_t_test, welch_t_test_moments,
    Moments, TTestResult,
};
