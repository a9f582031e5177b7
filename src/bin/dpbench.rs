//! `dpbench` — command-line front end to the benchmark.
//!
//! ```text
//! dpbench list-datasets                 # Table 2 with calibration stats
//! dpbench list-algorithms               # Table 1 metadata
//! dpbench shapes                        # shape statistics per dataset
//! dpbench run --dataset MEDCOST --algorithms IDENTITY,DAWA \
//!             --scale 100000 --eps 0.1 --trials 5 [--domain 1024]
//!             [--workload prefix|identity|random:2000] [--loss l1|l2]
//!             [--threads N] [--verbose] [--csv out.csv]
//!             [--out run.jsonl] [--resume] [--shard i/k]
//!             [--from-pos N --until-pos M] [--agg summary.jsonl]
//!             [--max-units N] [--fail-after N] [--unit-delay-ms MS]
//!             [--data-cache-mb MB]
//! dpbench fleet --procs k --out run.jsonl <run flags...>
//!               [--retries N] [--kill-shard i:N] [--agg summary.jsonl]
//!               [--progress] [--stall-timeout SECS] [--steal 0/1]
//!               [--status-file FILE.json] [--slow-shard i:MS]
//!               [--launch-cmd TPL --workdir DIR [--remote-exe PATH]
//!                [--fetch-cmd TPL] [--cleanup-cmd TPL]]
//! dpbench merge --out merged.jsonl shard0.jsonl shard1.jsonl ...
//! dpbench recommend --summaries a.sum.jsonl,b.sum.jsonl
//!                   [--profile profile.json] [--dataset NAME]
//!                   [--domain N|RxC --scale S --eps E]
//! dpbench serve --port 8787 --datasets MEDCOST,NETTRACE \
//!               --tenants alice=1.0,bob=0.5 [--tenant-config FILE]
//!               [--journal spend.jsonl] [--scale N] [--domain N|RxC]
//!               [--threads N] [--seed S]
//!               [--slo] [--profile profile.json] [--verbose]
//!               [--max-conns N] [--max-queue N] [--max-wait-ms MS]
//!               [--header-timeout-ms MS] [--idle-timeout-ms MS]
//!               [--write-timeout-ms MS] [--rate-limit RPS[:BURST]]
//! ```
//!
//! The streaming flags address the grid as a manifest of content-hashed
//! units: `--out` streams every sample (and a completed-unit ledger) to
//! an append-only JSONL file, `--shard i/k` runs the i-th of k disjoint
//! unit slices, `--resume` continues an interrupted run from its ledger,
//! and `merge` interleaves shard/partial files back into the canonical
//! byte stream a single uninterrupted process would have written.
//!
//! `fleet` is the one-command driver over all of that: it launches `k`
//! shards, monitors them, retries/resumes any shard that dies
//! (`--kill-shard i:N` is a built-in crash drill that kills shard `i`'s
//! first attempt after `N` units), and stream-merges the shard ledgers
//! into `--out` — byte-identical to a single-process run. With `--agg`,
//! the fleet also writes the t-digest summary of that verified merged
//! ledger — byte-identical to a one-shot `run --agg`, however the units
//! were dealt, stolen or retried.
//!
//! By default shards are local child processes. `--launch-cmd` swaps in
//! a templated wrapper command line — `{cmd}` is replaced by the shard
//! command — so `ssh worker{index} {cmd}` or `docker run … {cmd}` runs
//! the fleet over machines or containers: each shard writes into its own
//! `--workdir` directory and the driver copies ledgers back before
//! validating and merging them. `--progress` tails the
//! (fetched) shard ledgers into live per-shard `done/total` lines, and
//! `--stall-timeout` kills and retries a shard whose ledger stops
//! moving.
//!
//! The fleet is *elastic*: when some shards finish early while a
//! straggler still grinds, the driver re-deals the straggler's
//! unfinished tail to the idle slots as sub-shard launches
//! (`run --shard v/k --from-pos N --until-pos M`) and releases the
//! victim once its units are covered — the merged output is still
//! byte-identical to a one-shot run (`--steal 0` disables).
//! `--status-file` writes an atomically-replaced one-line JSON snapshot
//! of fleet progress (per-shard done counts, attempts, stall kills, and
//! steal events) on every probe tick, safe to poll from dashboards.
//! `--slow-shard i:MS` is the built-in straggler drill (per-unit delay
//! injected on slot `i`), the elasticity analogue of `--kill-shard`.
//! A `--fetch-cmd` template that accepts `{offset}` upgrades copy-backs
//! to incremental, O(new-bytes) ranged fetches.
//!
//! `recommend` turns merged `--agg` summary files into a *selection
//! profile*: per (dimensionality, shape class, scale bucket, ε bucket)
//! cell, the regret-ranked mechanism list with competitive-tie sets and
//! tuned free parameters. The profile file is deterministic (byte-
//! identical regardless of summary merge order) and is what
//! `serve --profile` routes `"mechanism":"auto"` through.
//!
//! `serve` runs the online release server: datasets load once at
//! startup, each `POST /v1/release` passes per-tenant admission control
//! (atomic ε check-and-reserve against a journaled [`BudgetLedger`])
//! before the mechanism draws noise, and `GET /v1/tenants/:id/budget` /
//! `GET /v1/status` expose live balances and counters. SIGINT/SIGTERM
//! drain in-flight requests and fsync the spend journal; a restart with
//! the same `--journal` recovers every balance bit-exactly.
//!
//! [`BudgetLedger`]: dpbench_core::BudgetLedger

use dpbench::harness::fleet::{
    self, CommandTransport, FleetOptions, LaunchSpec, LocalTransport, RemotePaths, ShardLauncher,
};
use dpbench::harness::serve::{self, shutdown, Limits, RateLimit, ServeConfig};
use dpbench::harness::sink::{self, AggregatingSink, JsonlSink, MemorySink, ResultSink, Tee};
use dpbench::harness::{config, RunManifest};
use dpbench::prelude::*;
use dpbench_core::Loss;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Exit code of a `--fail-after` simulated crash (distinct from 1 so a
/// drill is distinguishable from an ordinary CLI error).
const SIMULATED_CRASH_EXIT: u8 = 3;

/// Exit code after a graceful SIGINT/SIGTERM drain (128 + SIGINT, the
/// shell convention — but reached only after sinks flushed cleanly).
const INTERRUPTED_EXIT: u8 = 130;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list-datasets") => list_datasets(),
        Some("list-algorithms") => list_algorithms(),
        Some("shapes") => shapes(),
        Some("run") => return run(&args[1..]),
        Some("fleet") => return run_fleet_cmd(&args[1..]),
        Some("merge") => return merge(&args[1..]),
        Some("recommend") => return recommend_cmd(&args[1..]),
        Some("serve") => return serve_cmd(&args[1..]),
        _ => {
            eprintln!(
                "usage: dpbench <list-datasets|list-algorithms|shapes|run|fleet|merge|recommend|serve> [options]"
            );
            eprintln!("run options: --dataset NAME --algorithms A,B --scale N");
            eprintln!("             [--domain N|RxC] [--eps E] [--trials T]");
            eprintln!("             [--samples S] [--workload prefix|identity|random:N]");
            eprintln!("             [--loss l1|l2] [--threads N] [--verbose]");
            eprintln!("             [--csv FILE] [--out FILE.jsonl] [--resume]");
            eprintln!("             [--shard i/k] [--from-pos N --until-pos M]");
            eprintln!("             [--agg FILE.jsonl] [--max-units N]");
            eprintln!("             [--fail-after N] [--unit-delay-ms MS]");
            eprintln!("             [--data-cache-mb MB]");
            eprintln!("fleet: --procs K --out FILE.jsonl <run flags...>");
            eprintln!("       [--retries N] [--kill-shard i:N] [--agg FILE.jsonl]");
            eprintln!("       [--progress] [--stall-timeout SECS] [--steal 0/1]");
            eprintln!("       [--status-file FILE.json] [--slow-shard i:MS]");
            eprintln!("       [--launch-cmd TPL --workdir DIR [--remote-exe PATH]");
            eprintln!("        [--fetch-cmd TPL] [--cleanup-cmd TPL]]");
            eprintln!("merge: --out MERGED.jsonl IN1.jsonl IN2.jsonl ...");
            eprintln!("recommend: --summaries A.jsonl,B.jsonl [--profile OUT.json]");
            eprintln!("           [--dataset NAME] [--domain N|RxC --scale S --eps E]");
            eprintln!("serve: --tenants NAME=EPS,... [--tenant-config FILE]");
            eprintln!("       [--port P] [--datasets A,B] [--scale N] [--domain N|RxC]");
            eprintln!("       [--journal FILE.jsonl] [--threads N] [--seed S] [--slo] [--verbose]");
            eprintln!("       [--profile FILE.json] (auto routes through the profile)");
            eprintln!("       [--max-conns N] [--max-queue N] [--max-wait-ms MS]");
            eprintln!("          (connections park on a readiness poller between requests,");
            eprintln!("           so --max-conns in the thousands is practical; default 1024)");
            eprintln!("       [--header-timeout-ms MS] [--idle-timeout-ms MS]");
            eprintln!("       [--write-timeout-ms MS] [--rate-limit RPS[:BURST]]");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// `dpbench merge --out OUT IN...`: interleave shard / partial JSONL
/// files into canonical manifest order (streaming k-way merge — inputs
/// are never loaded whole).
fn merge(args: &[String]) -> ExitCode {
    let mut out = None;
    let mut inputs = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--out" {
            match args.get(i + 1) {
                Some(v) => out = Some(v.clone()),
                None => {
                    eprintln!("error: --out needs a value");
                    return ExitCode::FAILURE;
                }
            }
            i += 2;
        } else {
            inputs.push(args[i].clone());
            i += 1;
        }
    }
    let Some(out) = out else {
        eprintln!("error: merge requires --out FILE");
        return ExitCode::FAILURE;
    };
    if inputs.is_empty() {
        eprintln!("error: merge requires at least one input file");
        return ExitCode::FAILURE;
    }
    // Creating `--out` truncates it, so it must not be one of the inputs.
    if let Ok(out_path) = std::fs::canonicalize(&out) {
        if let Some(input) = inputs
            .iter()
            .find(|i| std::fs::canonicalize(i).is_ok_and(|p| p == out_path))
        {
            eprintln!("error: --out {out} is the input {input}; merge into a new file");
            return ExitCode::FAILURE;
        }
    }
    let result = std::fs::File::create(&out)
        .map_err(|e| std::io::Error::new(e.kind(), format!("creating {out}: {e}")))
        .and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            sink::merge_jsonl(&inputs, &mut w)?;
            use std::io::Write;
            w.flush()
        });
    if let Err(e) = result {
        eprintln!("error merging: {e}");
        return ExitCode::FAILURE;
    }
    println!("merged {} files into {out}", inputs.len());
    ExitCode::SUCCESS
}

fn list_datasets() {
    println!(
        "{:<12} {:>12} {:>8} {:>10}  source family",
        "name", "orig scale", "% zero", "domain"
    );
    for d in dpbench::datasets::catalog::all_datasets() {
        println!(
            "{:<12} {:>12} {:>7.1}% {:>10}",
            d.name,
            d.original_scale,
            d.zero_fraction * 100.0,
            d.base_domain.to_string(),
        );
    }
}

fn list_algorithms() {
    println!(
        "{:<11} {:<8} {:<10} {:>4} {:>4} {:<9} {:<10} {:<12}",
        "name", "dims", "type", "H", "P", "sideinfo", "consistent", "exchangeable"
    );
    for info in dpbench::algorithms::registry::table1() {
        println!(
            "{:<11} {:<8} {:<10} {:>4} {:>4} {:<9} {:<10} {:<12}",
            info.name,
            format!("{:?}", info.dims),
            if info.data_dependent {
                "data-dep"
            } else {
                "indep"
            },
            if info.hierarchical { "H" } else { "" },
            if info.partitioning { "P" } else { "" },
            info.side_info.as_deref().unwrap_or(""),
            info.consistent,
            info.scale_eps_exchangeable,
        );
    }
}

fn shapes() {
    println!(
        "{:<12} {:>9} {:>8} {:>9} {:>10} {:>9}",
        "name", "entropy*", "gini", "top cell", "support", "tv-smooth"
    );
    for d in dpbench::datasets::catalog::all_datasets() {
        let s = dpbench::datasets::shape_stats(&d.base_shape());
        println!(
            "{:<12} {:>9.3} {:>8.3} {:>9.4} {:>9.1}% {:>9.4}",
            d.name,
            s.normalized_entropy,
            s.gini,
            s.top_cell,
            s.support_fraction * 100.0,
            s.total_variation_1d,
        );
    }
    println!("\n* entropy normalized by ln(n); 1.0 = uniform shape");
}

/// Flags that may appear bare (`--resume`) or with an explicit value
/// (`--resume 1`).
const BOOL_FLAGS: &[&str] = &["resume", "verbose", "progress", "slo", "steal"];

/// Grid/runner flags shared by `run` and `fleet`.
const GRID_FLAGS: &[&str] = &[
    "dataset",
    "algorithms",
    "scale",
    "domain",
    "eps",
    "trials",
    "samples",
    "workload",
    "loss",
    "threads",
    "verbose",
    "data-cache-mb",
];

/// Flags only `run` accepts (on top of [`GRID_FLAGS`]).
const RUN_ONLY_FLAGS: &[&str] = &[
    "csv",
    "out",
    "resume",
    "shard",
    "from-pos",
    "until-pos",
    "agg",
    "max-units",
    "fail-after",
    "unit-delay-ms",
];

/// Flags only `fleet` accepts (on top of [`GRID_FLAGS`]).
const FLEET_ONLY_FLAGS: &[&str] = &[
    "out",
    "agg",
    "procs",
    "retries",
    "kill-shard",
    "slow-shard",
    "progress",
    "stall-timeout",
    "steal",
    "status-file",
    "launch-cmd",
    "fetch-cmd",
    "cleanup-cmd",
    "workdir",
    "remote-exe",
];

/// Flags `serve` accepts (a different shape from the grid: datasets are
/// plural, there is no trial grid, and tenants replace algorithms).
const SERVE_FLAGS: &[&str] = &[
    "port",
    "datasets",
    "scale",
    "domain",
    "tenants",
    "tenant-config",
    "max-conns",
    "max-queue",
    "max-wait-ms",
    "header-timeout-ms",
    "idle-timeout-ms",
    "write-timeout-ms",
    "rate-limit",
    "journal",
    "threads",
    "seed",
    "slo",
    "profile",
    "verbose",
];

/// Flags `recommend` accepts.
const RECOMMEND_FLAGS: &[&str] = &["summaries", "profile", "dataset", "domain", "scale", "eps"];

/// [`GRID_FLAGS`] plus a subcommand's own flags — the full allow-list
/// for `run` and `fleet` (serve passes [`SERVE_FLAGS`] alone; grid
/// flags like `--trials` are meaningless to a server and must error).
fn grid_plus(extra: &[&'static str]) -> Vec<&'static str> {
    GRID_FLAGS.iter().chain(extra).copied().collect()
}

/// Parse `--flag value` pairs, rejecting flag names outside `allowed` —
/// a misspelled flag name (`--trails`) must not silently vanish into a
/// run with default values, for the same reason malformed flag *values*
/// are errors.
fn parse_flags(
    args: &[String],
    subcommand: &str,
    allowed: &[&str],
) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {}", args[i]))?;
        if !allowed.contains(&key) {
            return Err(format!(
                "unknown flag --{key} for `dpbench {subcommand}` (run `dpbench` for usage)"
            ));
        }
        let next = args.get(i + 1);
        if BOOL_FLAGS.contains(&key) && next.is_none_or(|v| v.starts_with("--")) {
            // Bare boolean flag.
            flags.insert(key.to_string(), "1".to_string());
            i += 1;
            continue;
        }
        let val = next.ok_or_else(|| format!("--{key} needs a value"))?;
        // `--progress true` silently meaning "off" would be the same
        // silent-misparse class as a malformed numeric value; explicit
        // boolean values must be 0 or 1.
        if BOOL_FLAGS.contains(&key) && val != "0" && val != "1" {
            return Err(format!(
                "bad --{key} value {val:?} (use --{key} bare, or --{key} 0/1)"
            ));
        }
        flags.insert(key.to_string(), val.clone());
        i += 2;
    }
    Ok(flags)
}

/// The grid definition plus runner knobs shared by `run` and `fleet`.
struct RunSpec {
    config: ExperimentConfig,
    threads: Option<usize>,
    verbose: bool,
    data_cache_mb: Option<usize>,
}

/// Build an [`ExperimentConfig`] (and shared runner knobs) from parsed
/// flags — the common front half of `run` and `fleet`.
fn build_spec(flags: &HashMap<String, String>) -> Result<RunSpec, String> {
    let dataset_name = flags
        .get("dataset")
        .ok_or("--dataset is required (see `dpbench list-datasets`)")?;
    let dataset = dpbench::datasets::catalog::by_name(dataset_name)
        .ok_or_else(|| format!("unknown dataset {dataset_name}"))?;
    let algorithms: Vec<String> = flags
        .get("algorithms")
        .map(|s| s.split(',').map(str::to_string).collect())
        .unwrap_or_else(|| vec!["IDENTITY".into(), "DAWA".into()]);
    for a in &algorithms {
        if mechanism_by_name(a).is_none() {
            return Err(format!(
                "unknown algorithm {a} (see `dpbench list-algorithms`)"
            ));
        }
    }
    // Numeric grid flags parse strictly: a malformed value is an error,
    // never a silent fall-back to the default (an operator typo must not
    // quietly benchmark the wrong grid).
    let scale: u64 = match flags.get("scale") {
        Some(s) => config::parse_flag_value("scale", s)?,
        None => 100_000,
    };
    let domain = match flags.get("domain") {
        Some(s) => dpbench::harness::results::parse_domain(s)
            .ok_or_else(|| format!("bad --domain {s} (use N or RxC)"))?,
        None => dataset.base_domain,
    };
    let epsilon: f64 = match flags.get("eps") {
        Some(s) => config::parse_flag_value("eps", s)?,
        None => 0.1,
    };
    let trials: usize = match flags.get("trials") {
        Some(s) => config::parse_flag_value("trials", s)?,
        None => 5,
    };
    let samples: usize = match flags.get("samples") {
        Some(s) => config::parse_flag_value("samples", s)?,
        None => 1,
    };
    let workload = match flags.get("workload").map(String::as_str) {
        None => {
            if domain.dims() == 1 {
                WorkloadSpec::Prefix
            } else {
                WorkloadSpec::RandomRanges(2000)
            }
        }
        Some("prefix") => WorkloadSpec::Prefix,
        Some("identity") => WorkloadSpec::Identity,
        Some(s) if s.starts_with("random:") => WorkloadSpec::RandomRanges(
            s["random:".len()..]
                .parse()
                .map_err(|_| format!("bad workload {s}"))?,
        ),
        Some(s) => return Err(format!("unknown workload {s}")),
    };
    let loss = match flags.get("loss").map(String::as_str) {
        None | Some("l2") => Loss::L2,
        Some("l1") => Loss::L1,
        Some(s) => return Err(format!("unknown loss {s} (use l1 or l2)")),
    };
    let threads: Option<usize> = match flags.get("threads") {
        None => None,
        Some(s) => match s.parse() {
            Ok(n) if n >= 1 => Some(n),
            _ => return Err(format!("--threads needs a positive integer, got {s}")),
        },
    };
    let config = ExperimentConfig {
        datasets: vec![dataset],
        scales: vec![scale],
        domains: vec![domain],
        epsilons: vec![epsilon],
        algorithms,
        n_samples: samples,
        n_trials: trials,
        workload,
        loss,
    };
    config.validate()?;
    Ok(RunSpec {
        config,
        threads,
        verbose: flags.get("verbose").map(|v| v == "1").unwrap_or(false),
        data_cache_mb: match flags.get("data-cache-mb") {
            Some(s) => Some(config::parse_flag_value("data-cache-mb", s)?),
            None => None,
        },
    })
}

fn run(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args, "run", &grid_plus(RUN_ONLY_FLAGS)) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let spec = match build_spec(&flags) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let verbose = spec.verbose;
    let resume = flags.get("resume").map(|v| v == "1").unwrap_or(false);
    let out = flags.get("out").cloned();
    let agg_out = flags.get("agg").cloned();
    // A shard launched on a remote machine is the only process on that
    // machine; nothing else can have created its workdir, so the ledger
    // and summary writers make their own parent directories.
    for path in [out.as_deref(), agg_out.as_deref()].into_iter().flatten() {
        if let Some(parent) = Path::new(path).parent() {
            if !parent.as_os_str().is_empty() {
                if let Err(e) = std::fs::create_dir_all(parent) {
                    eprintln!("error creating directory {}: {e}", parent.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let shard: Option<(usize, usize)> = match flags.get("shard") {
        None => None,
        Some(s) => match s.split_once('/').and_then(|(i, k)| {
            let i: usize = i.parse().ok()?;
            let k: usize = k.parse().ok()?;
            (i < k && k > 0).then_some((i, k))
        }) {
            Some(v) => Some(v),
            None => {
                eprintln!("error: bad --shard {s} (use i/k with i < k, e.g. 0/4)");
                return ExitCode::FAILURE;
            }
        },
    };
    // --from-pos/--until-pos restrict to a span of full-run positions —
    // the sub-shard form the fleet's work stealing launches
    // (`--shard v/k --from-pos N --until-pos M` runs the victim's tail).
    let from_pos: Option<usize> = match flags.get("from-pos") {
        None => None,
        Some(s) => match s.parse() {
            Ok(n) => Some(n),
            Err(_) => {
                eprintln!("error: bad --from-pos {s}");
                return ExitCode::FAILURE;
            }
        },
    };
    let until_pos: Option<usize> = match flags.get("until-pos") {
        None => None,
        Some(s) => match s.parse() {
            Ok(n) => Some(n),
            Err(_) => {
                eprintln!("error: bad --until-pos {s}");
                return ExitCode::FAILURE;
            }
        },
    };
    // --unit-delay-ms throttles unit completion — the deterministic
    // straggler behind `fleet --slow-shard` drills.
    let unit_delay: Option<Duration> = match flags.get("unit-delay-ms") {
        None => None,
        Some(s) => match s.parse::<u64>() {
            Ok(ms) => Some(Duration::from_millis(ms)),
            Err(_) => {
                eprintln!("error: bad --unit-delay-ms {s}");
                return ExitCode::FAILURE;
            }
        },
    };
    let max_units: Option<usize> = match flags.get("max-units") {
        None => None,
        Some(s) => match s.parse() {
            Ok(n) => Some(n),
            Err(_) => {
                eprintln!("error: bad --max-units {s}");
                return ExitCode::FAILURE;
            }
        },
    };
    // --fail-after N: run N units cleanly, then exit like a crash (for
    // resume/fleet drills). Implies the --max-units cutoff.
    let fail_after: Option<usize> = match flags.get("fail-after") {
        None => None,
        Some(s) => match s.parse() {
            Ok(n) => Some(n),
            Err(_) => {
                eprintln!("error: bad --fail-after {s}");
                return ExitCode::FAILURE;
            }
        },
    };
    if resume && out.is_none() {
        eprintln!("error: --resume needs --out FILE (the ledger to continue)");
        return ExitCode::FAILURE;
    }

    let mut runner = Runner::new(spec.config);
    if let Some(n) = spec.threads {
        runner.threads = n;
    }
    runner.verbose = verbose;
    runner.max_units = fail_after.or(max_units);
    if let Some(mb) = spec.data_cache_mb {
        runner.data_cache_bytes = mb << 20;
    }

    // Graceful interruption: SIGINT/SIGTERM sets the process-wide flag;
    // a watcher thread relays it to the runner's cancel flag, workers
    // finish their in-flight units, and sinks flush before exit — the
    // ledger stays resumable instead of tearing mid-record.
    shutdown::install();
    let cancel = Arc::new(AtomicBool::new(false));
    runner.cancel = Some(Arc::clone(&cancel));
    let watcher_stop = Arc::new(AtomicBool::new(false));
    let watcher = {
        let cancel = Arc::clone(&cancel);
        let stop = Arc::clone(&watcher_stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if shutdown::requested() {
                    cancel.store(true, Ordering::Relaxed);
                    break;
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        })
    };

    let full = runner.manifest();
    let manifest = match shard {
        Some((i, k)) => full.shard(i, k),
        None => full,
    };
    let manifest = if from_pos.is_some() || until_pos.is_some() {
        manifest.span(from_pos.unwrap_or(0), until_pos.unwrap_or(usize::MAX))
    } else {
        manifest
    };
    println!(
        "running {} units ({} trials each{})...",
        manifest.len(),
        manifest.n_trials,
        shard
            .map(|(i, k)| format!(", shard {i}/{k} of {}", manifest.total_units))
            .unwrap_or_default()
    );

    // Execute: results stream to a memory sink for the summary table, to
    // an append-only JSONL ledger (--out), and to a mergeable t-digest
    // aggregation (--agg). A resumed run appends only the missing units
    // and reads summaries back from the ledger.
    let mut memory = MemorySink::new();
    let mut agg = AggregatingSink::new();
    let stats = if resume {
        let path = out.as_deref().expect("checked above");
        let ledger = match sink::read_ledger(path) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("error reading ledger {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if ledger.fingerprint != manifest.fingerprint {
            eprintln!("error: ledger {path} belongs to a different run configuration");
            match &ledger.cfg {
                Some(cfg) => {
                    for line in config::summary_diff(cfg, &manifest.config_summary) {
                        eprintln!("  {line}");
                    }
                }
                None => eprintln!(
                    "  (ledger predates recorded config summaries; \
                     cannot name the diverging field)"
                ),
            }
            return ExitCode::FAILURE;
        }
        let mut jsonl = match JsonlSink::append(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error opening {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match unit_delay {
            Some(d) => runner.resume(
                &manifest,
                &ledger.done,
                &mut sink::Throttle::new(&mut jsonl, d),
            ),
            None => runner.resume(&manifest, &ledger.done, &mut jsonl),
        }
    } else if let Some(path) = out.as_deref() {
        let mut jsonl = match JsonlSink::create(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error creating {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut tee = Tee::new(vec![
            &mut memory as &mut dyn ResultSink,
            &mut jsonl,
            &mut agg,
        ]);
        match unit_delay {
            Some(d) => runner.run_with_sink(&manifest, &mut sink::Throttle::new(&mut tee, d)),
            None => runner.run_with_sink(&manifest, &mut tee),
        }
    } else {
        let mut tee = Tee::new(vec![&mut memory as &mut dyn ResultSink, &mut agg]);
        match unit_delay {
            Some(d) => runner.run_with_sink(&manifest, &mut sink::Throttle::new(&mut tee, d)),
            None => runner.run_with_sink(&manifest, &mut tee),
        }
    };
    watcher_stop.store(true, Ordering::Relaxed);
    let _ = watcher.join();
    let stats = match stats {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if shutdown::requested() && fail_after.is_none() {
        eprintln!(
            "interrupted: {} unit(s) completed and flushed; resume with --resume",
            stats.units
        );
        return ExitCode::from(INTERRUPTED_EXIT);
    }
    if let Some(n) = fail_after {
        eprintln!(
            "simulated crash: stopped after {} unit(s) (--fail-after {n}); \
             resume with --resume",
            stats.units
        );
        return ExitCode::from(SIMULATED_CRASH_EXIT);
    }
    if stats.skipped > 0 {
        println!(
            "resumed: {} units already in ledger, {} run now",
            stats.skipped, stats.units
        );
    }
    if verbose {
        let plan = runner.plan_cache.stats();
        println!(
            "plan cache: {} plans built, {} hits / {} misses ({:.1}% hit rate)",
            runner.plan_cache.len(),
            plan.hits,
            plan.misses,
            plan.hit_rate() * 100.0
        );
        let d = stats.data_cache;
        println!(
            "data cache: {} hits / {} misses, {} evictions, {} KiB resident",
            d.hits,
            d.misses,
            d.evictions,
            d.resident_bytes >> 10
        );
        let h = stats.hier_cache;
        println!(
            "hierarchy pool: {} hits / {} misses ({:.1}% hit rate)",
            h.hits,
            h.misses,
            h.hit_rate() * 100.0
        );
    }

    // The mergeable per-shard summary: streamed directly on a fresh run,
    // rebuilt from the ledger (which holds the union of all phases)
    // after a resume.
    if let Some(agg_path) = agg_out.as_deref() {
        let result = if resume {
            sink::summary_from_ledger(out.as_deref().expect("checked above"))
                .and_then(|mut rebuilt| rebuilt.write_summary_file(agg_path))
        } else {
            agg.write_summary_file(agg_path)
        };
        if let Err(e) = result {
            eprintln!("error writing summary {agg_path}: {e}");
            return ExitCode::FAILURE;
        }
        if verbose {
            println!("mergeable summary written to {agg_path}");
        }
    }

    // Summary table: from memory for a fresh run; from the ledger (which
    // holds the union of all phases) after a resume.
    let store = if resume {
        match sink::read_store(out.as_deref().expect("checked above")) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error reading results back: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        memory.into_store()
    };
    println!(
        "\n{:<11} {:>13} {:>13} {:>13}",
        "algorithm", "mean err", "p95 err", "std dev"
    );
    for s in store.summaries() {
        println!(
            "{:<11} {:>13.4e} {:>13.4e} {:>13.4e}",
            s.algorithm, s.summary.mean, s.summary.p95, s.summary.std_dev
        );
    }
    if let Some(path) = flags.get("csv") {
        if let Err(e) = std::fs::write(path, store.to_csv()) {
            eprintln!("error writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("\nraw samples written to {path}");
    }
    ExitCode::SUCCESS
}

/// Parse `--tenants alice=1.0,bob=0.5` grants.
fn parse_tenants_flag(s: &str) -> Result<Vec<(String, f64)>, String> {
    let mut tenants = Vec::new();
    for part in s.split(',') {
        let (name, eps) = part
            .split_once('=')
            .ok_or_else(|| format!("bad tenant grant {part:?} (use name=eps)"))?;
        let eps: f64 = eps
            .trim()
            .parse()
            .map_err(|_| format!("bad epsilon in tenant grant {part:?}"))?;
        tenants.push((name.trim().to_string(), eps));
    }
    Ok(tenants)
}

/// Parse a tenant-config file (grammar lives in the harness so the
/// server's hot-reload path reads the file exactly as startup does).
fn parse_tenant_config(path: &str) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serve::parse_tenant_grants(&text).map_err(|e| format!("{path} {e}"))
}

/// `dpbench recommend`: build a selection profile from merged `--agg`
/// summary files, optionally write it to a file `serve --profile` can
/// route through, and (given `--domain --scale --eps`) print the
/// regret-ranked recommendation for that concrete query.
fn recommend_cmd(args: &[String]) -> ExitCode {
    use dpbench::harness::{SelectionProfile, SelectorQuery, ShapeClass};
    let flags = match parse_flags(args, "recommend", RECOMMEND_FLAGS) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = (|| -> Result<(), String> {
        let Some(summaries) = flags.get("summaries") else {
            return Err("recommend requires --summaries FILE[,FILE...]".into());
        };
        let paths: Vec<PathBuf> = summaries
            .split(',')
            .filter(|s| !s.is_empty())
            .map(PathBuf::from)
            .collect();
        if paths.is_empty() {
            return Err("--summaries needs at least one file".into());
        }
        let profile = SelectionProfile::from_summary_files(&paths)
            .map_err(|e| format!("building profile: {e}"))?;
        println!(
            "profile: {} cell(s) from {} summary file(s), {} error sample(s)",
            profile.cells.len(),
            profile.sources,
            profile.total_samples
        );
        if let Some(out) = flags.get("profile") {
            profile
                .write_file(out)
                .map_err(|e| format!("writing {out}: {e}"))?;
            println!("wrote profile to {out}");
        }

        let query_parts = ["domain", "scale", "eps"]
            .iter()
            .filter(|f| flags.contains_key(**f))
            .count();
        if query_parts == 0 {
            if !flags.contains_key("profile") {
                return Err(
                    "nothing to do: give --profile OUT.json and/or a query (--domain N|RxC --scale S --eps E)"
                        .into(),
                );
            }
            return Ok(());
        }
        if query_parts != 3 {
            return Err("a query needs all three of --domain, --scale, and --eps".into());
        }
        let domain_s = flags.get("domain").expect("checked above");
        let domain = dpbench::harness::results::parse_domain(domain_s)
            .ok_or_else(|| format!("bad --domain {domain_s} (use N or RxC)"))?;
        let scale: u64 = config::parse_flag_value("scale", flags.get("scale").expect("checked"))?;
        let eps: f64 = config::parse_flag_value("eps", flags.get("eps").expect("checked"))?;
        if !(eps.is_finite() && eps > 0.0) {
            return Err("--eps must be positive and finite".into());
        }
        let shape = match flags.get("dataset") {
            Some(name) => {
                if dpbench::datasets::catalog::by_name(name).is_none() {
                    return Err(format!(
                        "unknown dataset {name} (see `dpbench list-datasets`)"
                    ));
                }
                Some(ShapeClass::of_dataset(name))
            }
            None => None,
        };
        let query = SelectorQuery {
            domain,
            shape,
            scale,
            epsilon: eps,
        };
        let Some(rec) = profile.lookup(&query) else {
            return Err(format!(
                "profile has no cell for domain {domain}; run a fleet at this dimensionality first"
            ));
        };
        match shape {
            Some(s) => println!(
                "query: domain={domain} scale={scale} eps={eps} shape={} ({})",
                s.as_str(),
                flags.get("dataset").expect("shape implies dataset")
            ),
            None => println!("query: domain={domain} scale={scale} eps={eps}"),
        }
        println!("decided by: {}", rec.reason());
        println!(
            "{:<4} {:<11} {:>8} {:>13} {:>13} {:>6}  {:<4} params",
            "rank", "mechanism", "regret", "mean err", "p95 err", "n", "tie"
        );
        for (i, m) in rec.cell.ranked.iter().enumerate() {
            println!(
                "{:<4} {:<11} {:>8.3} {:>13.6} {:>13.6} {:>6}  {:<4} {}",
                i + 1,
                m.mechanism,
                m.regret,
                m.mean_error,
                m.p95_error,
                m.n,
                if m.competitive { "yes" } else { "" },
                m.params.as_deref().unwrap_or("-"),
            );
        }
        let winner = rec.cell.winner();
        println!(
            "winner: {} (regret {:.3}, confidence {})",
            winner.mechanism,
            winner.regret,
            rec.confidence.as_str()
        );
        let ties = rec.cell.ties();
        if ties.len() > 1 {
            println!("competitive tie set: {}", ties.join(", "));
        }
        Ok(())
    })();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `dpbench serve`: start the online release server and run until a
/// shutdown signal, then drain and fsync the spend journal.
fn serve_cmd(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args, "serve", SERVE_FLAGS) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let parsed = (|| -> Result<ServeConfig, String> {
        let port: u16 = match flags.get("port") {
            Some(s) => config::parse_flag_value("port", s)?,
            None => 8787,
        };
        let datasets: Vec<String> = flags
            .get("datasets")
            .map(|s| s.split(',').map(str::to_string).collect())
            .unwrap_or_else(|| vec!["MEDCOST".into()]);
        for name in &datasets {
            if dpbench::datasets::catalog::by_name(name).is_none() {
                return Err(format!(
                    "unknown dataset {name} (see `dpbench list-datasets`)"
                ));
            }
        }
        let scale: u64 = match flags.get("scale") {
            Some(s) => config::parse_flag_value("scale", s)?,
            None => 100_000,
        };
        let domain = match flags.get("domain") {
            Some(s) => dpbench::harness::results::parse_domain(s)
                .ok_or_else(|| format!("bad --domain {s} (use N or RxC)"))?,
            None => {
                // Default to the first dataset's base domain — every
                // loaded dataset serves at one common domain.
                dpbench::datasets::catalog::by_name(&datasets[0])
                    .expect("validated above")
                    .base_domain
            }
        };
        let mut tenants = Vec::new();
        if let Some(path) = flags.get("tenant-config") {
            tenants.extend(parse_tenant_config(path)?);
        }
        if let Some(s) = flags.get("tenants") {
            tenants.extend(parse_tenants_flag(s)?);
        }
        let threads: usize = match flags.get("threads") {
            Some(s) => config::parse_flag_value("threads", s)?,
            None => 4,
        };
        let seed: u64 = match flags.get("seed") {
            Some(s) => config::parse_flag_value("seed", s)?,
            None => 0,
        };
        let mut limits = Limits::default();
        if let Some(s) = flags.get("max-conns") {
            limits.max_conns = config::parse_flag_value("max-conns", s)?;
        }
        if let Some(s) = flags.get("max-queue") {
            limits.max_queue = config::parse_flag_value("max-queue", s)?;
        }
        let ms_flag = |name: &str| -> Result<Option<Duration>, String> {
            match flags.get(name) {
                Some(s) => Ok(Some(Duration::from_millis(config::parse_flag_value(
                    name, s,
                )?))),
                None => Ok(None),
            }
        };
        if let Some(d) = ms_flag("max-wait-ms")? {
            limits.max_wait = d;
        }
        if let Some(d) = ms_flag("header-timeout-ms")? {
            limits.header_timeout = d;
        }
        if let Some(d) = ms_flag("idle-timeout-ms")? {
            limits.idle_timeout = d;
        }
        if let Some(d) = ms_flag("write-timeout-ms")? {
            limits.write_timeout = d;
        }
        if let Some(s) = flags.get("rate-limit") {
            limits.rate_limit = Some(RateLimit::parse(s)?);
        }
        Ok(ServeConfig {
            addr: format!("127.0.0.1:{port}"),
            datasets,
            scale,
            domain,
            tenants,
            tenant_config: flags.get("tenant-config").map(PathBuf::from),
            journal: flags.get("journal").map(PathBuf::from),
            threads,
            limits,
            seed,
            slo: flags.get("slo").map(|v| v == "1").unwrap_or(false),
            profile: flags.get("profile").map(PathBuf::from),
            verbose: flags.get("verbose").map(|v| v == "1").unwrap_or(false),
        })
    })();
    let cfg = match parsed {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    shutdown::install();
    shutdown::install_reload();
    let n_tenants = cfg.tenants.len();
    let handle = match serve::start(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error starting server: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "serving on http://{} ({n_tenants} tenant(s); POST /v1/release, \
         GET /v1/tenants/:id/budget, GET /v1/status, GET /v1/healthz)",
        handle.addr()
    );
    while !shutdown::requested() {
        if shutdown::take_reload() {
            // SIGHUP: re-read the tenant config (and selection profile,
            // when one is configured) and apply them in place.
            match handle.reload() {
                Ok(o) => eprintln!(
                    "config reloaded: {} added, {} extended, {} shrunk, {} unchanged",
                    o.added, o.extended, o.shrunk, o.unchanged
                ),
                Err(e) => eprintln!("reload failed (config unchanged): {e}"),
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("shutdown requested: draining in-flight requests...");
    match handle.shutdown() {
        Ok(()) => {
            eprintln!("spend journal synced; bye");
            ExitCode::from(INTERRUPTED_EXIT)
        }
        Err(e) => {
            eprintln!("error syncing spend journal: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The shard command recipe shared by both transports: the `run`
/// subcommand argv for one shard attempt, given where that attempt
/// should write its ledger.
#[derive(Clone)]
struct ShardArgs {
    /// Shared `run` flags (everything but out/shard/resume/fail-after).
    base_args: Vec<String>,
    /// Crash drill: kill this shard's first attempt after N units.
    kill_shard: Option<(usize, usize)>,
    /// Straggler drill: per-unit delay injected on this *slot* — a
    /// machine property, so a stolen tail running on a fast slot runs
    /// fast even when its victim is the slow one.
    slow_shard: Option<(usize, u64)>,
}

impl ShardArgs {
    /// Arguments after the program name for one attempt — a primary
    /// shard, or a stolen tail (`--shard victim/k --from-pos/--until-pos`,
    /// never resumed, never crash-drilled).
    fn run_args(&self, spec: &LaunchSpec, ledger: &Path) -> Vec<String> {
        let mut args = vec!["run".to_string()];
        args.extend(self.base_args.iter().cloned());
        args.push("--out".into());
        args.push(ledger.display().to_string());
        args.push("--shard".into());
        match spec.steal {
            Some(st) => {
                args.push(format!("{}/{}", st.victim, spec.procs));
                args.push("--from-pos".into());
                args.push(st.from_pos.to_string());
                args.push("--until-pos".into());
                args.push(st.until_pos.to_string());
            }
            None => args.push(format!("{}/{}", spec.index, spec.procs)),
        }
        if spec.resume {
            args.push("--resume".into());
        }
        if let Some((victim, units)) = self.kill_shard {
            if spec.steal.is_none() && victim == spec.index && spec.attempt == 0 {
                args.push("--fail-after".into());
                args.push(units.to_string());
            }
        }
        if let Some((slot, ms)) = self.slow_shard {
            if slot == spec.index {
                args.push("--unit-delay-ms".into());
                args.push(ms.to_string());
            }
        }
        args
    }
}

/// Spawns `dpbench run --shard i/k` children, teeing each child's stderr
/// to `<ledger>.log` so k concurrent shards don't interleave on the
/// parent's terminal.
struct CliShardLauncher {
    exe: PathBuf,
    args: ShardArgs,
}

impl ShardLauncher for CliShardLauncher {
    fn launch(&self, spec: &LaunchSpec) -> std::io::Result<std::process::Child> {
        let mut cmd = std::process::Command::new(&self.exe);
        cmd.args(self.args.run_args(spec, &spec.ledger));
        // Append: the log keeps the whole attempt history of the shard.
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(spec.ledger.with_extension("log"))?;
        cmd.stdout(std::process::Stdio::null());
        cmd.stderr(std::process::Stdio::from(log));
        cmd.spawn()
    }
}

/// Parse and validate `--kill-shard i:N`. An out-of-range shard index is
/// its own error (naming the range) rather than a generic format
/// complaint — and never accepted silently: a drill that targets a
/// nonexistent shard would otherwise "pass" by testing nothing.
fn parse_kill_shard(s: &str, procs: usize) -> Result<(usize, usize), String> {
    let (i, n) = s
        .split_once(':')
        .and_then(|(i, n)| Some((i.parse::<usize>().ok()?, n.parse::<usize>().ok()?)))
        .ok_or_else(|| format!("bad --kill-shard {s} (use i:N, e.g. 1:5)"))?;
    if i >= procs {
        return Err(format!(
            "--kill-shard shard index {i} is out of range (fleet has {procs} shard(s), \
             valid indexes are 0..={})",
            procs - 1
        ));
    }
    Ok((i, n))
}

/// Parse and validate `--slow-shard i:MS` — same shape and same
/// out-of-range contract as `--kill-shard`.
fn parse_slow_shard(s: &str, procs: usize) -> Result<(usize, u64), String> {
    let (i, ms) = s
        .split_once(':')
        .and_then(|(i, ms)| Some((i.parse::<usize>().ok()?, ms.parse::<u64>().ok()?)))
        .ok_or_else(|| format!("bad --slow-shard {s} (use i:MS, e.g. 1:200)"))?;
    if i >= procs {
        return Err(format!(
            "--slow-shard shard index {i} is out of range (fleet has {procs} shard(s), \
             valid indexes are 0..={})",
            procs - 1
        ));
    }
    Ok((i, ms))
}

/// `dpbench fleet`: expand the manifest once, launch `--procs` shards
/// (local children, or through a `--launch-cmd` transport with per-shard
/// workdirs and copy-back), retry/resume failures, and merge to `--out`
/// byte-identically to a single-process run.
fn run_fleet_cmd(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args, "fleet", &grid_plus(FLEET_ONLY_FLAGS)) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let spec = match build_spec(&flags) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let procs: usize = match flags.get("procs") {
        None => {
            eprintln!("error: fleet requires --procs K (a positive integer)");
            return ExitCode::FAILURE;
        }
        Some(s) => match config::parse_flag_value("procs", s) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    if procs == 0 {
        eprintln!("error: --procs must be at least 1");
        return ExitCode::FAILURE;
    }
    let Some(out) = flags.get("out").cloned() else {
        eprintln!("error: fleet requires --out FILE.jsonl (the merged output)");
        return ExitCode::FAILURE;
    };
    let retries: usize = match flags.get("retries") {
        None => 2,
        Some(s) => match config::parse_flag_value("retries", s) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let kill_shard: Option<(usize, usize)> = match flags.get("kill-shard") {
        None => None,
        Some(s) => match parse_kill_shard(s, procs) {
            Ok(v) => Some(v),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let slow_shard: Option<(usize, u64)> = match flags.get("slow-shard") {
        None => None,
        Some(s) => match parse_slow_shard(s, procs) {
            Ok(v) => Some(v),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let steal = flags.get("steal").map(|v| v == "1").unwrap_or(true);
    let status_file = flags.get("status-file").map(PathBuf::from);
    let stall_timeout = match flags.get("stall-timeout") {
        None => None,
        Some(s) => match config::parse_flag_value::<f64>("stall-timeout", s) {
            // try_from_secs_f64 rejects NaN/inf/overflow; `inf` parses as
            // a positive f64 and would panic in from_secs_f64.
            Ok(secs) if secs > 0.0 => match std::time::Duration::try_from_secs_f64(secs) {
                Ok(d) => Some(d),
                Err(_) => {
                    eprintln!("error: --stall-timeout {s} is not a representable duration");
                    return ExitCode::FAILURE;
                }
            },
            Ok(_) => {
                eprintln!("error: --stall-timeout must be positive");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let progress = flags.get("progress").map(|v| v == "1").unwrap_or(false);
    let agg_out = flags.get("agg").cloned();
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error locating dpbench binary: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Children share the grid flags; threads divide across the fleet
    // (explicit --threads T means T total, like a single-process run).
    let total_threads = spec.threads.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    let child_threads = (total_threads / procs).max(1);
    let mut base_args: Vec<String> = Vec::new();
    for key in [
        "dataset",
        "algorithms",
        "scale",
        "domain",
        "eps",
        "trials",
        "samples",
        "workload",
        "loss",
        "data-cache-mb",
    ] {
        if let Some(v) = flags.get(key) {
            base_args.push(format!("--{key}"));
            base_args.push(v.clone());
        }
    }
    base_args.push("--threads".into());
    base_args.push(child_threads.to_string());

    let manifest = RunManifest::from_config(&spec.config);
    println!(
        "fleet: {} units across {procs} process(es) ({} trials each, {} thread(s)/shard)...",
        manifest.len(),
        manifest.n_trials,
        child_threads
    );
    let shard_args = ShardArgs {
        base_args,
        kill_shard,
        slow_shard,
    };
    let opts = FleetOptions {
        procs,
        max_attempts: retries + 1,
        verbose: spec.verbose,
        progress,
        stall_timeout,
        steal,
        status_file,
        ..FleetOptions::default()
    };

    // Pick the transport: local child processes by default; a templated
    // wrapper command line (ssh / docker run / sh -c) with per-shard
    // workdirs and copy-back when --launch-cmd is given.
    let report = if let Some(launch_cmd) = flags.get("launch-cmd") {
        let Some(workdir) = flags.get("workdir") else {
            eprintln!("error: --launch-cmd requires --workdir DIR (per-shard scratch space)");
            return ExitCode::FAILURE;
        };
        let remote_exe = flags
            .get("remote-exe")
            .cloned()
            .unwrap_or_else(|| exe.display().to_string());
        let build = {
            let shard_args = shard_args.clone();
            move |spec: &LaunchSpec, paths: &RemotePaths| -> Vec<String> {
                let mut argv = vec![remote_exe.clone()];
                argv.extend(shard_args.run_args(spec, &paths.ledger));
                argv
            }
        };
        let transport = match CommandTransport::new(launch_cmd.clone(), workdir, Box::new(build)) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        let transport = match flags.get("fetch-cmd") {
            Some(t) => transport.with_fetch_template(t.clone()),
            None => transport,
        };
        let transport = match flags.get("cleanup-cmd") {
            Some(t) => transport.with_cleanup_template(t.clone()),
            None => transport,
        };
        fleet::run_fleet_with(&manifest, &transport, Path::new(&out), &opts)
    } else {
        let launcher = CliShardLauncher {
            exe,
            args: shard_args,
        };
        fleet::run_fleet_with(
            &manifest,
            &LocalTransport {
                launcher: &launcher,
            },
            Path::new(&out),
            &opts,
        )
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fleet error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for s in &report.shards {
        println!(
            "  shard {}: {} units, {} launch(es){}{}{}",
            s.index,
            s.units,
            s.attempts,
            if s.resumed { ", resumed" } else { "" },
            if s.stall_kills > 0 {
                format!(", {} stall kill(s)", s.stall_kills)
            } else {
                String::new()
            },
            if s.tails_stolen > 0 {
                format!(", {} tail(s) stolen", s.tails_stolen)
            } else {
                String::new()
            }
        );
    }
    for ev in &report.steals {
        println!(
            "  steal {}: {} unit(s) of shard {} (pos {}..{}) ran on slot {}",
            ev.seq, ev.units, ev.victim, ev.from_pos, ev.until_pos, ev.slot
        );
    }
    if spec.verbose {
        println!(
            "  copy-back traffic: {} byte(s) full, {} byte(s) ranged over {} probe tick(s)",
            report.fetch_full_bytes,
            report.fetch_ranged_bytes,
            report.probe_fetch_bytes.len()
        );
    }
    println!("merged {} units into {out}", report.merged_units);

    // The fleet summary is the summary of the verified merged ledger,
    // so it matches a one-shot `run --agg` byte for byte whichever
    // shards, steals or retries produced the units.
    if let Some(agg_path) = agg_out {
        let mut merged = match sink::summary_from_ledger(&out) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("error summarizing {out}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = merged.write_summary_file(&agg_path) {
            eprintln!("error writing {agg_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("merged t-digest summary written to {agg_path}");
        println!(
            "\n{:<11} {:>13} {:>13} {:>13}",
            "algorithm", "mean err", "p95 err", "std dev"
        );
        for (alg, _setting, summary) in merged.summaries() {
            println!(
                "{:<11} {:>13.4e} {:>13.4e} {:>13.4e}",
                alg, summary.mean, summary.p95, summary.std_dev
            );
        }
    }
    ExitCode::SUCCESS
}
