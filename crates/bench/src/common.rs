//! Shared plumbing for the figure/table reproduction binaries.
//!
//! Fidelity knobs (environment variables):
//!
//! * `DPBENCH_SAMPLES` — data vectors per setting (paper: 5; default 1)
//! * `DPBENCH_TRIALS`  — runs per data vector (paper: 10; default 3)
//! * `DPBENCH_FULL=1`  — paper-scale fidelity (5 × 10); `0` or unset is off
//! * `DPBENCH_DOMAIN`  — override the 1-D domain size / 2-D side
//! * `DPBENCH_JSONL`   — stream raw samples + completed-unit ledger to
//!   this JSONL file while the grid runs (resumable with the `dpbench`
//!   CLI; see `crates/harness/src/sink.rs`)
//!
//! Reduced fidelity changes error-bar tightness, not the shape of the
//! results; every binary prints the configuration it ran. A malformed or
//! zero count, or a `DPBENCH_FULL` other than `0`/`1`, panics with the
//! variable's name and value rather than running at the default.
//!
//! Grids run through the streaming sink pipeline: a memory sink feeds
//! the binary's tables, and `DPBENCH_JSONL` tees the same stream onto
//! disk so paper-scale runs survive interruption.

use dpbench_core::Domain;
use dpbench_harness::config::{ExperimentConfig, WorkloadSpec};
use dpbench_harness::sink::{JsonlSink, MemorySink, ResultSink, Tee};
use dpbench_harness::ResultStore;
use dpbench_harness::Runner;

/// Fidelity settings resolved from the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fidelity {
    /// Data vectors per setting.
    pub samples: usize,
    /// Mechanism runs per data vector.
    pub trials: usize,
    /// Paper-scale fidelity (`DPBENCH_FULL=1`).
    pub full: bool,
    /// The 1-D domain size / 2-D side, when `DPBENCH_DOMAIN` overrides it.
    pub domain: Option<usize>,
}

impl Fidelity {
    /// Resolve from environment variables.
    pub fn from_env() -> Self {
        Self::resolve(|key| std::env::var(key).ok())
    }

    /// Resolve from `var`, which looks a variable up by name.
    ///
    /// # Panics
    ///
    /// On a count that is not a positive integer, or a `DPBENCH_FULL`
    /// other than `0`/`1`; the message names the variable and its value.
    pub fn resolve(var: impl Fn(&str) -> Option<String>) -> Self {
        let count = |key: &str| {
            var(key).map(|v| match v.parse::<usize>() {
                Ok(n) if n > 0 => n,
                _ => panic!("{key}={v:?} is not a positive integer"),
            })
        };
        let full = match var("DPBENCH_FULL").as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => panic!("DPBENCH_FULL={v:?} must be 0 or 1"),
        };
        Self {
            samples: count("DPBENCH_SAMPLES").unwrap_or(if full { 5 } else { 1 }),
            trials: count("DPBENCH_TRIALS").unwrap_or(if full { 10 } else { 3 }),
            full,
            domain: count("DPBENCH_DOMAIN"),
        }
    }
}

/// The 1-D domain to use: paper default 4096, overridable.
pub fn domain_1d() -> Domain {
    Domain::D1(Fidelity::from_env().domain.unwrap_or(4096))
}

/// The 2-D domain to use: paper default 128×128, overridable side.
pub fn domain_2d() -> Domain {
    let side = Fidelity::from_env().domain.unwrap_or(128);
    Domain::D2(side, side)
}

/// Apply fidelity to a config and stream it through the sink pipeline:
/// a memory sink for the caller's tables, teed onto a JSONL ledger when
/// `DPBENCH_JSONL` is set.
pub fn run(mut config: ExperimentConfig) -> ResultStore {
    let fid = Fidelity::from_env();
    config.n_samples = fid.samples;
    config.n_trials = fid.trials;
    eprintln!(
        "[dpbench] {} settings x {} algorithms, {} samples x {} trials = {} runs",
        config.settings().len(),
        config.algorithms.len(),
        config.n_samples,
        config.n_trials,
        config.total_runs()
    );
    let mut runner = Runner::new(config);
    runner.verbose = std::env::var("DPBENCH_VERBOSE")
        .map(|v| v == "1")
        .unwrap_or(false);
    let manifest = runner.manifest();
    let mut memory = MemorySink::new();
    let stats = match std::env::var("DPBENCH_JSONL").ok() {
        Some(path) => {
            let mut jsonl = JsonlSink::create(&path)
                .unwrap_or_else(|e| panic!("cannot create DPBENCH_JSONL {path}: {e}"));
            let mut tee = Tee::new(vec![&mut memory as &mut dyn ResultSink, &mut jsonl]);
            runner.run_with_sink(&manifest, &mut tee)
        }
        None => runner.run_with_sink(&manifest, &mut memory),
    }
    .expect("grid run failed");
    if runner.verbose {
        let plan = runner.plan_cache.stats();
        eprintln!(
            "[dpbench] plan cache: {} plans, {} hits / {} misses ({:.1}% hit rate)",
            runner.plan_cache.len(),
            plan.hits,
            plan.misses,
            plan.hit_rate() * 100.0
        );
        eprintln!(
            "[dpbench] data cache: {} hits / {} misses / {} evictions; hierarchy pool: {:.1}% hit",
            stats.data_cache.hits,
            stats.data_cache.misses,
            stats.data_cache.evictions,
            stats.hier_cache.hit_rate() * 100.0
        );
    }
    memory.into_store()
}

/// Standard banner for every binary.
pub fn banner(what: &str, paper_ref: &str) {
    println!("# DPBench reproduction — {what}");
    println!("# Paper reference: {paper_ref}");
    let fid = Fidelity::from_env();
    println!(
        "# Fidelity: {} samples x {} trials (DPBENCH_FULL=1 for paper-scale 5x10)",
        fid.samples, fid.trials
    );
    println!();
}

/// The paper's 1-D experiment config for a given scale list.
pub fn config_1d(algorithms: &[&str], scales: Vec<u64>) -> ExperimentConfig {
    ExperimentConfig {
        datasets: dpbench_datasets::datasets_1d(),
        scales,
        domains: vec![domain_1d()],
        epsilons: vec![0.1],
        algorithms: algorithms.iter().map(|s| s.to_string()).collect(),
        n_samples: 1,
        n_trials: 3,
        workload: WorkloadSpec::Prefix,
        loss: dpbench_core::Loss::L2,
    }
}

/// The paper's 2-D experiment config for a given scale list.
pub fn config_2d(algorithms: &[&str], scales: Vec<u64>) -> ExperimentConfig {
    ExperimentConfig {
        datasets: dpbench_datasets::datasets_2d(),
        scales,
        domains: vec![domain_2d()],
        epsilons: vec![0.1],
        algorithms: algorithms.iter().map(|s| s.to_string()).collect(),
        n_samples: 1,
        n_trials: 3,
        workload: WorkloadSpec::RandomRanges(2000),
        loss: dpbench_core::Loss::L2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolve(vars: &[(&str, &str)]) -> Fidelity {
        Fidelity::resolve(|key| {
            vars.iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn defaults_full_fidelity_and_overrides() {
        let quick = Fidelity {
            samples: 1,
            trials: 3,
            full: false,
            domain: None,
        };
        assert_eq!(resolve(&[]), quick);
        assert_eq!(resolve(&[("DPBENCH_FULL", "0")]), quick);
        let full = resolve(&[("DPBENCH_FULL", "1")]);
        assert_eq!((full.samples, full.trials, full.full), (5, 10, true));
        let set = resolve(&[
            ("DPBENCH_FULL", "1"),
            ("DPBENCH_SAMPLES", "2"),
            ("DPBENCH_TRIALS", "7"),
            ("DPBENCH_DOMAIN", "256"),
        ]);
        assert_eq!((set.samples, set.trials, set.domain), (2, 7, Some(256)));
    }

    #[test]
    fn malformed_values_panic_with_name_and_value() {
        for (key, value, rule) in [
            ("DPBENCH_SAMPLES", "five", "is not a positive integer"),
            ("DPBENCH_TRIALS", "0", "is not a positive integer"),
            ("DPBENCH_DOMAIN", "-4", "is not a positive integer"),
            ("DPBENCH_FULL", "true", "must be 0 or 1"),
        ] {
            let panic = std::panic::catch_unwind(|| resolve(&[(key, value)]))
                .expect_err("a malformed value must not fall back to a default");
            let text = panic
                .downcast_ref::<String>()
                .expect("panic carries a formatted message");
            assert_eq!(*text, format!("{key}={value:?} {rule}"));
        }
    }
}
