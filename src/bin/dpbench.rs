//! `dpbench` — command-line front end to the benchmark.
//!
//! Run `dpbench` with no arguments for every subcommand and its flags.
//! That usage text is generated from the flag tables below, which are
//! also each subcommand's allow-list: an unknown flag, a malformed value
//! (`bad --X value "v"`) and a grid that cannot run are errors before
//! any work starts.
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
//! the fleet also writes the t-digest summary of the samples that merge
//! wrote — byte-identical to a one-shot `run --agg`, however the units
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

use dpbench::datasets::catalog;
use dpbench::harness::fleet::{
    self, CommandTransport, FleetOptions, LaunchSpec, LocalTransport, RemotePaths, ShardLauncher,
};
use dpbench::harness::results::parse_domain;
use dpbench::harness::serve::{self, shutdown, Limits, RateLimit, ServeConfig};
use dpbench::harness::sink::{self, AggregatingSink, JsonlSink, MemorySink, ResultSink, Tee};
use dpbench::harness::{config, SelectionProfile, SelectorQuery, ShapeClass};
use dpbench::prelude::*;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Exit code of a `--fail-after` simulated crash (distinct from 1 so a
/// drill is distinguishable from an ordinary CLI error).
const SIMULATED_CRASH_EXIT: u8 = 3;

/// Exit code after a graceful SIGINT/SIGTERM drain (128 + SIGINT, the
/// shell convention — but reached only after sinks flushed cleanly).
const INTERRUPTED_EXIT: u8 = 130;

/// One flag: its name and the placeholder the usage text shows for its
/// value. An empty placeholder marks a boolean, given bare (`--resume`)
/// or as `0`/`1`.
type Flag = (&'static str, &'static str);

/// The grid definition `run` and `fleet` share; `fleet` hands these to
/// every shard as given.
const GRID: &[Flag] = &[
    ("dataset", "NAME"),
    ("algorithms", "A,B"),
    ("scale", "N"),
    ("domain", "N|RxC"),
    ("eps", "E"),
    ("trials", "T"),
    ("samples", "S"),
    ("workload", "prefix|identity|random:N"),
    ("loss", "l1|l2"),
];

/// Runner knobs `run` and `fleet` share (`fleet` splits `--threads`
/// across its shards).
const RUNNER: &[Flag] = &[("threads", "N"), ("verbose", "")];

/// `run`'s own flags, on top of [`GRID`] and [`RUNNER`].
const RUN: &[Flag] = &[
    ("csv", "FILE"),
    ("out", "FILE.jsonl"),
    ("resume", ""),
    ("shard", "i/k"),
    ("from-pos", "N"),
    ("until-pos", "M"),
    ("agg", "FILE.jsonl"),
    ("max-units", "N"),
    ("fail-after", "N"),
    ("unit-delay-ms", "MS"),
];

/// `fleet`'s own flags, on top of [`GRID`] and [`RUNNER`].
const FLEET: &[Flag] = &[
    ("procs", "K"),
    ("out", "FILE.jsonl"),
    ("agg", "FILE.jsonl"),
    ("retries", "N"),
    ("kill-shard", "i:N"),
    ("slow-shard", "i:MS"),
    ("progress", ""),
    ("stall-timeout", "SECS"),
    ("steal", ""),
    ("status-file", "FILE.json"),
    ("launch-cmd", "TPL"),
    ("workdir", "DIR"),
    ("remote-exe", "PATH"),
    ("fetch-cmd", "TPL"),
    ("cleanup-cmd", "TPL"),
];

const MERGE: &[Flag] = &[("out", "MERGED.jsonl")];

const RECOMMEND: &[Flag] = &[
    ("summaries", "A.jsonl,B.jsonl"),
    ("profile", "OUT.json"),
    ("dataset", "NAME"),
    ("domain", "N|RxC"),
    ("scale", "S"),
    ("eps", "E"),
];

/// `serve` shares no table with the grid: datasets are plural, there is
/// no trial grid, and tenants replace algorithms.
const SERVE: &[Flag] = &[
    ("tenants", "NAME=EPS,..."),
    ("tenant-config", "FILE"),
    ("port", "P"),
    ("datasets", "A,B"),
    ("scale", "N"),
    ("domain", "N|RxC"),
    ("journal", "FILE.jsonl"),
    ("threads", "N"),
    ("seed", "S"),
    ("slo", ""),
    ("verbose", ""),
    ("profile", "FILE.json"),
    ("max-conns", "N"),
    ("max-queue", "N"),
    ("max-wait-ms", "MS"),
    ("header-timeout-ms", "MS"),
    ("idle-timeout-ms", "MS"),
    ("write-timeout-ms", "MS"),
    ("rate-limit", "RPS[:BURST]"),
];

/// A subcommand: its flag tables, the placeholder of its positional
/// arguments (`None` when it takes none), and its body.
struct Subcommand {
    name: &'static str,
    flags: &'static [&'static [Flag]],
    inputs: Option<&'static str>,
    body: fn(&Args) -> Result<ExitCode, String>,
}

const SUBCOMMANDS: &[Subcommand] = &[
    Subcommand {
        name: "list-datasets",
        flags: &[],
        inputs: None,
        body: list_datasets,
    },
    Subcommand {
        name: "list-algorithms",
        flags: &[],
        inputs: None,
        body: list_algorithms,
    },
    Subcommand {
        name: "shapes",
        flags: &[],
        inputs: None,
        body: shapes,
    },
    Subcommand {
        name: "run",
        flags: &[GRID, RUNNER, RUN],
        inputs: None,
        body: run,
    },
    Subcommand {
        name: "fleet",
        flags: &[GRID, RUNNER, FLEET],
        inputs: None,
        body: run_fleet,
    },
    Subcommand {
        name: "merge",
        flags: &[MERGE],
        inputs: Some("IN.jsonl..."),
        body: merge,
    },
    Subcommand {
        name: "recommend",
        flags: &[RECOMMEND],
        inputs: None,
        body: recommend,
    },
    Subcommand {
        name: "serve",
        flags: &[SERVE],
        inputs: None,
        body: serve_cmd,
    },
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args
        .first()
        .and_then(|name| SUBCOMMANDS.iter().find(|c| c.name == name))
    else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    match Args::parse(cmd, &args[1..]).and_then(|a| (cmd.body)(&a)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The usage text, generated from [`SUBCOMMANDS`].
fn usage() -> String {
    let names: Vec<&str> = SUBCOMMANDS.iter().map(|c| c.name).collect();
    let mut text = format!("usage: dpbench <{}> [options]", names.join("|"));
    for cmd in SUBCOMMANDS {
        let mut line = format!("\n  {}", cmd.name);
        let flags = cmd.flags.iter().flat_map(|t| t.iter());
        let words = flags
            .map(|&(name, value)| match value {
                "" => format!("[--{name} [0|1]]"),
                _ => format!("[--{name} {value}]"),
            })
            .chain(cmd.inputs.map(str::to_string));
        for word in words {
            if line.len() + word.len() >= 80 {
                text += &line;
                line = format!("\n{:1$}", "", cmd.name.len() + 2);
            }
            line = format!("{line} {word}");
        }
        text += &line;
    }
    text
}

/// The table entry of flag `name`, if any table of `tables` has one.
fn lookup(tables: &[&[Flag]], name: &str) -> Option<Flag> {
    tables
        .iter()
        .flat_map(|t| t.iter())
        .find(|f| f.0 == name)
        .copied()
}

/// One subcommand's parsed arguments: its flag values (booleans as
/// `"0"`/`"1"`) and its positional inputs.
struct Args {
    tables: &'static [&'static [Flag]],
    values: HashMap<&'static str, String>,
    inputs: Vec<String>,
}

impl Args {
    /// Parse `--flag value` pairs against `cmd`'s tables. A flag outside
    /// them is an error: a misspelled name (`--trails`) must not silently
    /// run the defaults, for the same reason a malformed value must not.
    fn parse(cmd: &Subcommand, args: &[String]) -> Result<Args, String> {
        let mut parsed = Args {
            tables: cmd.flags,
            values: HashMap::new(),
            inputs: Vec::new(),
        };
        let mut rest = args.iter().peekable();
        while let Some(arg) = rest.next() {
            let Some(key) = arg.strip_prefix("--") else {
                if cmd.inputs.is_none() {
                    return Err(format!("expected --flag, got {arg}"));
                }
                parsed.inputs.push(arg.clone());
                continue;
            };
            let Some((name, placeholder)) = lookup(cmd.flags, key) else {
                return Err(format!(
                    "unknown flag --{key} for `dpbench {}` (run `dpbench` for usage)",
                    cmd.name
                ));
            };
            let value = if placeholder.is_empty() {
                // `--progress true` silently meaning "off" would be the
                // same silent-misparse class as a malformed number: a
                // boolean is bare, or exactly 0 or 1.
                match rest.next_if(|v| !v.starts_with("--")) {
                    None => "1".to_string(),
                    Some(v) if v == "0" || v == "1" => v.clone(),
                    Some(v) => {
                        return Err(format!(
                            "bad --{key} value {v:?} (use --{key} bare, or --{key} 0/1)"
                        ))
                    }
                }
            } else {
                rest.next()
                    .ok_or_else(|| format!("--{key} needs a value"))?
                    .clone()
            };
            parsed.values.insert(name, value);
        }
        Ok(parsed)
    }

    /// The raw value of flag `name`.
    fn str(&self, name: &str) -> Option<&str> {
        debug_assert!(lookup(self.tables, name).is_some(), "no flag --{name}");
        self.values.get(name).map(String::as_str)
    }

    /// Boolean flag `name`, `default` when absent.
    fn flag(&self, name: &str, default: bool) -> bool {
        self.str(name).map_or(default, |v| v == "1")
    }

    /// Flag `name` parsed strictly ([`config::parse_flag_value`]): absent
    /// is `None`, never a fallback for a malformed value.
    fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.str(name)
            .map(|v| config::parse_flag_value(name, v))
            .transpose()
    }

    /// Flag `name` in a grammar of its own; `hint` says what is expected.
    fn parse_with<T>(
        &self,
        name: &str,
        hint: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        self.str(name)
            .map(|v| parse(v).ok_or_else(|| format!("bad --{name} value {v:?} ({hint})")))
            .transpose()
    }

    /// A count that must be at least 1 (`--threads`, `--procs`).
    fn positive(&self, name: &str) -> Result<Option<usize>, String> {
        self.parse_with(name, "use a positive integer", |v| {
            v.parse().ok().filter(|&n| n > 0)
        })
    }

    fn domain(&self) -> Result<Option<Domain>, String> {
        self.parse_with("domain", "use N or RxC", parse_domain)
    }
}

fn list_datasets(_: &Args) -> Result<ExitCode, String> {
    println!(
        "{:<12} {:>12} {:>8} {:>10}  source family",
        "name", "orig scale", "% zero", "domain"
    );
    for d in catalog::all_datasets() {
        println!(
            "{:<12} {:>12} {:>7.1}% {:>10}",
            d.name,
            d.original_scale,
            d.zero_fraction * 100.0,
            d.base_domain.to_string(),
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn list_algorithms(_: &Args) -> Result<ExitCode, String> {
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
    Ok(ExitCode::SUCCESS)
}

fn shapes(_: &Args) -> Result<ExitCode, String> {
    println!(
        "{:<12} {:>9} {:>8} {:>9} {:>10} {:>9}",
        "name", "entropy*", "gini", "top cell", "support", "tv-smooth"
    );
    for d in catalog::all_datasets() {
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
    Ok(ExitCode::SUCCESS)
}

/// The [`Runner`] of the grid the flags of `run` or `fleet` describe,
/// validated before anything runs.
fn grid_runner(a: &Args) -> Result<Runner, String> {
    let name = a
        .str("dataset")
        .ok_or("--dataset is required (see `dpbench list-datasets`)")?;
    let dataset = catalog::by_name(name).ok_or_else(|| format!("unknown dataset {name}"))?;
    let algorithms: Vec<String> = a.str("algorithms").map_or_else(
        || vec!["IDENTITY".into(), "DAWA".into()],
        |s| s.split(',').map(str::to_string).collect(),
    );
    if let Some(unknown) = algorithms.iter().find(|x| mechanism_by_name(x).is_none()) {
        return Err(format!(
            "unknown algorithm {unknown} (see `dpbench list-algorithms`)"
        ));
    }
    let domain = a.domain()?.unwrap_or(dataset.base_domain);
    let workload = WorkloadSpec::parse(a.str("workload"), domain)?;
    let loss = match a.str("loss") {
        None | Some("l2") => Loss::L2,
        Some("l1") => Loss::L1,
        Some(s) => return Err(format!("unknown loss {s} (use l1 or l2)")),
    };
    let config = ExperimentConfig {
        datasets: vec![dataset],
        scales: vec![a.get("scale")?.unwrap_or(100_000)],
        domains: vec![domain],
        epsilons: vec![a.get("eps")?.unwrap_or(0.1)],
        algorithms,
        n_samples: a.get("samples")?.unwrap_or(1),
        n_trials: a.get("trials")?.unwrap_or(5),
        workload,
        loss,
    };
    config.validate()?;
    let mut runner = Runner::new(config);
    if let Some(n) = a.positive("threads")? {
        runner.threads = n;
    }
    runner.verbose = a.flag("verbose", false);
    Ok(runner)
}

/// The `algorithm / mean err / p95 err / std dev` table `run` and
/// `fleet` end with.
fn print_summary_table<'a>(rows: impl Iterator<Item = (&'a str, &'a Summary)>) {
    println!(
        "\n{:<11} {:>13} {:>13} {:>13}",
        "algorithm", "mean err", "p95 err", "std dev"
    );
    for (algorithm, s) in rows {
        println!(
            "{algorithm:<11} {:>13.4e} {:>13.4e} {:>13.4e}",
            s.mean, s.p95, s.std_dev
        );
    }
}

fn run(a: &Args) -> Result<ExitCode, String> {
    let mut runner = grid_runner(a)?;
    let verbose = runner.verbose;
    let out = a.str("out");
    let agg_out = a.str("agg");
    let resumed = match (a.flag("resume", false), out) {
        (false, _) => None,
        (true, Some(path)) => Some(path),
        (true, None) => return Err("--resume needs --out FILE (the ledger to continue)".into()),
    };
    let shard = a.parse_with("shard", "use i/k with i < k, e.g. 0/4", |s| {
        let (i, k) = s.split_once('/')?;
        let (i, k) = (i.parse().ok()?, k.parse().ok()?);
        (i < k).then_some((i, k))
    })?;
    // --from-pos/--until-pos restrict to a span of full-run positions —
    // the sub-shard form the fleet's work stealing launches
    // (`--shard v/k --from-pos N --until-pos M` runs the victim's tail).
    let from_pos: Option<usize> = a.get("from-pos")?;
    let until_pos: Option<usize> = a.get("until-pos")?;
    // --unit-delay-ms throttles unit completion — the deterministic
    // straggler behind `fleet --slow-shard` drills.
    let unit_delay = Duration::from_millis(a.get("unit-delay-ms")?.unwrap_or(0));
    // --fail-after N: run N units cleanly, then exit like a crash (for
    // resume/fleet drills). Implies the --max-units cutoff.
    let fail_after: Option<usize> = a.get("fail-after")?;
    runner.max_units = fail_after.or(a.get("max-units")?);
    // A shard launched on a remote machine is the only process on that
    // machine; nothing else can have created its workdir, so the ledger
    // and summary writers make their own parent directories.
    for path in [out, agg_out].into_iter().flatten() {
        if let Some(parent) = Path::new(path).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("creating directory {}: {e}", parent.display()))?;
            }
        }
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
                // `unpark` ends the wait as soon as the run is done.
                std::thread::park_timeout(Duration::from_millis(25));
            }
        })
    };

    let mut manifest = runner.manifest();
    if let Some((i, k)) = shard {
        manifest = manifest.shard(i, k);
    }
    if from_pos.is_some() || until_pos.is_some() {
        manifest = manifest.span(from_pos.unwrap_or(0), until_pos.unwrap_or(usize::MAX));
    }

    // Execute: results stream to a memory sink for the summary table, to
    // an append-only JSONL ledger (--out), and to a mergeable t-digest
    // aggregation (--agg). A resumed run reads its ledger once, loading
    // the units it holds into the memory and aggregation sinks, and the
    // runner appends the missing units through the same sinks.
    let mut memory = MemorySink::new();
    let mut agg = AggregatingSink::new();
    let (done, mut jsonl) = match (resumed, out) {
        (Some(path), _) => {
            let ledger = sink::read_units(path, |unit| {
                agg.fold_unit(&unit.samples);
                memory.load(unit);
            })
            .map_err(|e| format!("reading ledger {path}: {e}"))?;
            if ledger.fingerprint != manifest.fingerprint {
                let mut msg = format!("ledger {path} belongs to a different run configuration");
                match &ledger.cfg {
                    Some(cfg) => {
                        for line in config::summary_diff(cfg, &manifest.config_summary) {
                            msg += &format!("\n  {line}");
                        }
                    }
                    None => {
                        msg += "\n  (ledger predates recorded config summaries; \
                                    cannot name the diverging field)"
                    }
                }
                return Err(msg);
            }
            // Loading first and then running is manifest order only while
            // every unit the run appends sits above the loaded ones.
            if let Some((first, last)) = ledger.resume_conflict(&manifest) {
                return Err(format!(
                    "ledger {path} cannot be resumed in order: its last completed unit \
                     (position {last}) lies past this run's first pending unit (position \
                     {first}); resume it with the --shard and span that wrote it"
                ));
            }
            let jsonl =
                JsonlSink::append(path, ledger.heal).map_err(|e| format!("opening {path}: {e}"))?;
            (ledger.done, Some(jsonl))
        }
        (None, Some(path)) => {
            let jsonl = JsonlSink::create(path).map_err(|e| format!("creating {path}: {e}"))?;
            (HashSet::new(), Some(jsonl))
        }
        (None, None) => (HashSet::new(), None),
    };
    // Announced only once the ledger has been read and checked and the
    // `--out` sink is open: a refused run prints its error alone.
    println!(
        "running {} units ({} trials each{})...",
        manifest.len(),
        manifest.n_trials,
        shard
            .map(|(i, k)| format!(", shard {i}/{k} of {}", manifest.total_units))
            .unwrap_or_default()
    );
    let mut sinks: Vec<&mut dyn ResultSink> = Vec::new();
    if let Some(jsonl) = jsonl.as_mut() {
        sinks.push(jsonl);
    }
    sinks.push(&mut memory);
    sinks.push(&mut agg);
    // A zero delay forwards without sleeping.
    let stats = runner.resume(
        &manifest,
        &done,
        &mut sink::Throttle::new(&mut Tee::new(sinks), unit_delay),
    );
    watcher_stop.store(true, Ordering::Relaxed);
    watcher.thread().unpark();
    let _ = watcher.join();
    let stats = stats.map_err(|e| e.to_string())?;
    if shutdown::requested() && fail_after.is_none() {
        eprintln!(
            "interrupted: {} unit(s) completed and flushed; resume with --resume",
            stats.units
        );
        return Ok(ExitCode::from(INTERRUPTED_EXIT));
    }
    if let Some(n) = fail_after {
        eprintln!(
            "simulated crash: stopped after {} unit(s) (--fail-after {n}); \
             resume with --resume",
            stats.units
        );
        return Ok(ExitCode::from(SIMULATED_CRASH_EXIT));
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
        println!("data cache: {} hits / {} misses", d.hits, d.misses);
        let h = stats.hier_cache;
        println!(
            "hierarchy pool: {} hits / {} misses ({:.1}% hit rate)",
            h.hits,
            h.misses,
            h.hit_rate() * 100.0
        );
    }

    // The mergeable per-shard summary: the units this run completed, plus
    // those a resumed ledger already held.
    if let Some(agg_path) = agg_out {
        agg.write_summary_file(agg_path)
            .map_err(|e| format!("writing summary {agg_path}: {e}"))?;
        if verbose {
            println!("mergeable summary written to {agg_path}");
        }
    }

    let store = memory.into_store();
    print_summary_table(
        store
            .summaries()
            .iter()
            .map(|s| (s.algorithm.as_str(), &s.summary)),
    );
    if let Some(path) = a.str("csv") {
        std::fs::write(path, store.to_csv()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("\nraw samples written to {path}");
    }
    Ok(ExitCode::SUCCESS)
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
fn recommend(a: &Args) -> Result<ExitCode, String> {
    let summaries = a
        .str("summaries")
        .ok_or("recommend requires --summaries FILE[,FILE...]")?;
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
    if let Some(out) = a.str("profile") {
        profile
            .write_file(out)
            .map_err(|e| format!("writing {out}: {e}"))?;
        println!("wrote profile to {out}");
    }

    let query_parts = ["domain", "scale", "eps"]
        .iter()
        .filter(|f| a.str(f).is_some())
        .count();
    match query_parts {
        0 if a.str("profile").is_some() => return Ok(ExitCode::SUCCESS),
        0 => {
            return Err("nothing to do: give --profile OUT.json and/or a query \
                        (--domain N|RxC --scale S --eps E)"
                .into())
        }
        3 => {}
        _ => return Err("a query needs all three of --domain, --scale, and --eps".into()),
    }
    let domain = a.domain()?.expect("counted above");
    let scale: u64 = a.get("scale")?.expect("counted above");
    let eps: f64 = a.get("eps")?.expect("counted above");
    if !(eps.is_finite() && eps > 0.0) {
        return Err("--eps must be positive and finite".into());
    }
    let dataset = a.str("dataset");
    if let Some(name) = dataset.filter(|name| catalog::by_name(name).is_none()) {
        return Err(format!(
            "unknown dataset {name} (see `dpbench list-datasets`)"
        ));
    }
    let shape = dataset.map(ShapeClass::of_dataset);
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
    match (shape, dataset) {
        (Some(s), Some(name)) => println!(
            "query: domain={domain} scale={scale} eps={eps} shape={} ({name})",
            s.as_str()
        ),
        _ => println!("query: domain={domain} scale={scale} eps={eps}"),
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
    Ok(ExitCode::SUCCESS)
}

/// `dpbench serve`: start the online release server and run until a
/// shutdown signal, then drain and fsync the spend journal.
fn serve_cmd(a: &Args) -> Result<ExitCode, String> {
    let datasets: Vec<String> = a.str("datasets").map_or_else(
        || vec!["MEDCOST".into()],
        |s| s.split(',').map(str::to_string).collect(),
    );
    if let Some(name) = datasets.iter().find(|n| catalog::by_name(n).is_none()) {
        return Err(format!(
            "unknown dataset {name} (see `dpbench list-datasets`)"
        ));
    }
    // Default to the first dataset's base domain — every loaded dataset
    // serves at one common domain.
    let domain = match a.domain()? {
        Some(d) => d,
        None => {
            catalog::by_name(&datasets[0])
                .expect("validated above")
                .base_domain
        }
    };
    let mut tenants = Vec::new();
    if let Some(path) = a.str("tenant-config") {
        tenants.extend(parse_tenant_config(path)?);
    }
    if let Some(s) = a.str("tenants") {
        tenants.extend(parse_tenants_flag(s)?);
    }
    let defaults = Limits::default();
    let ms = |name: &str, default: Duration| -> Result<Duration, String> {
        Ok(a.get(name)?.map_or(default, Duration::from_millis))
    };
    let limits = Limits {
        max_conns: a.get("max-conns")?.unwrap_or(defaults.max_conns),
        max_queue: a.get("max-queue")?.unwrap_or(defaults.max_queue),
        max_wait: ms("max-wait-ms", defaults.max_wait)?,
        header_timeout: ms("header-timeout-ms", defaults.header_timeout)?,
        idle_timeout: ms("idle-timeout-ms", defaults.idle_timeout)?,
        write_timeout: ms("write-timeout-ms", defaults.write_timeout)?,
        rate_limit: a.str("rate-limit").map(RateLimit::parse).transpose()?,
    };
    let cfg = ServeConfig {
        addr: format!("127.0.0.1:{}", a.get::<u16>("port")?.unwrap_or(8787)),
        datasets,
        scale: a.get("scale")?.unwrap_or(100_000),
        domain,
        tenants,
        tenant_config: a.str("tenant-config").map(PathBuf::from),
        journal: a.str("journal").map(PathBuf::from),
        threads: a.positive("threads")?.unwrap_or(4),
        limits,
        seed: a.get("seed")?.unwrap_or(0),
        slo: a.flag("slo", false),
        profile: a.str("profile").map(PathBuf::from),
        verbose: a.flag("verbose", false),
    };
    shutdown::install();
    shutdown::install_reload();
    let n_tenants = cfg.tenants.len();
    let handle = serve::start(cfg).map_err(|e| format!("starting server: {e}"))?;
    println!(
        "serving on http://{} ({n_tenants} tenant(s); POST /v1/release, \
         GET /v1/tenants/:id/budget, GET /v1/status, GET /v1/healthz)",
        handle.addr()
    );
    while !shutdown::requested() {
        if shutdown::take_reload() {
            // SIGHUP: re-read the tenant config (and selection profile,
            // when one is configured) and apply them in place.
            match handle.state().reload() {
                Ok((o, _)) => eprintln!(
                    "config reloaded: {} added, {} extended, {} shrunk, {} unchanged",
                    o.added, o.extended, o.shrunk, o.unchanged
                ),
                Err(e) => eprintln!("reload failed (config unchanged): {}", e.error),
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("shutdown requested: draining in-flight requests...");
    handle
        .shutdown()
        .map_err(|e| format!("syncing spend journal: {e}"))?;
    eprintln!("spend journal synced; bye");
    Ok(ExitCode::from(INTERRUPTED_EXIT))
}

/// The shard command recipe shared by both transports: the `run`
/// subcommand argv for one shard attempt, given where that attempt
/// should write its ledger.
struct ShardArgs {
    /// Shared `run` flags (everything but out/shard/resume/fail-after).
    base_args: Vec<String>,
    /// Crash drill: kill this shard's first attempt after N units.
    kill_shard: Option<(usize, u64)>,
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

/// Parse a drill's `i:N` shard slot (`--kill-shard i:N`, `--slow-shard
/// i:MS`). An out-of-range shard index is its own error naming the
/// range, never accepted silently: a drill that targets a nonexistent
/// shard would otherwise "pass" by testing nothing.
fn shard_slot(
    a: &Args,
    name: &str,
    hint: &str,
    procs: usize,
) -> Result<Option<(usize, u64)>, String> {
    let slot = a.parse_with(name, hint, |s| {
        let (i, n) = s.split_once(':')?;
        Some((i.parse().ok()?, n.parse().ok()?))
    })?;
    if let Some((i, _)) = slot.filter(|&(i, _)| i >= procs) {
        return Err(format!(
            "--{name} shard index {i} is out of range (fleet has {procs} shard(s), \
             valid indexes are 0..={})",
            procs - 1
        ));
    }
    Ok(slot)
}

/// `dpbench fleet`: expand the manifest once, launch `--procs` shards
/// (local children, or through a `--launch-cmd` transport with per-shard
/// workdirs and copy-back), retry/resume failures, and merge to `--out`
/// byte-identically to a single-process run.
fn run_fleet(a: &Args) -> Result<ExitCode, String> {
    let runner = grid_runner(a)?;
    let procs = a
        .positive("procs")?
        .ok_or("fleet requires --procs K (a positive integer)")?;
    let out = a
        .str("out")
        .ok_or("fleet requires --out FILE.jsonl (the merged output)")?;
    let retries: usize = a.get("retries")?.unwrap_or(2);
    let kill_shard = shard_slot(a, "kill-shard", "use i:N, e.g. 1:5", procs)?;
    let slow_shard = shard_slot(a, "slow-shard", "use i:MS, e.g. 1:200", procs)?;
    // try_from_secs_f64 rejects NaN/inf/overflow; `inf` parses as a
    // positive f64 and would panic in from_secs_f64.
    let stall_timeout = a.parse_with("stall-timeout", "use a positive number of seconds", |s| {
        let secs: f64 = s.parse().ok()?;
        Duration::try_from_secs_f64(secs)
            .ok()
            .filter(|_| secs > 0.0)
    })?;
    let exe = std::env::current_exe().map_err(|e| format!("locating dpbench binary: {e}"))?;

    // Children share the grid flags; threads divide across the fleet
    // (explicit --threads T means T total, like a single-process run).
    let child_threads = (runner.threads / procs).max(1);
    let mut base_args: Vec<String> = Vec::new();
    for &(key, _) in GRID {
        if let Some(v) = a.str(key) {
            base_args.push(format!("--{key}"));
            base_args.push(v.to_string());
        }
    }
    base_args.push("--threads".into());
    base_args.push(child_threads.to_string());

    let manifest = runner.manifest();
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
        verbose: runner.verbose,
        progress: a.flag("progress", false),
        stall_timeout,
        steal: a.flag("steal", true),
        status_file: a.str("status-file").map(PathBuf::from),
        ..FleetOptions::default()
    };

    // The fleet summary is folded from the samples the merge writes, in
    // manifest order, so it matches a one-shot `run --agg` byte for byte
    // whichever shards, steals or retries produced the units.
    let mut summary = a.str("agg").map(|_| AggregatingSink::new());

    // Pick the transport: local child processes by default; a templated
    // wrapper command line (ssh / docker run / sh -c) with per-shard
    // workdirs and copy-back when --launch-cmd is given.
    let report = if let Some(launch_cmd) = a.str("launch-cmd") {
        let workdir = a
            .str("workdir")
            .ok_or("--launch-cmd requires --workdir DIR (per-shard scratch space)")?;
        let remote_exe = a
            .str("remote-exe")
            .map_or_else(|| exe.display().to_string(), str::to_string);
        let build = move |spec: &LaunchSpec, paths: &RemotePaths| -> Vec<String> {
            let mut argv = vec![remote_exe.clone()];
            argv.extend(shard_args.run_args(spec, &paths.ledger));
            argv
        };
        let mut transport = CommandTransport::new(launch_cmd, workdir, Box::new(build))
            .map_err(|e| e.to_string())?;
        if let Some(t) = a.str("fetch-cmd") {
            transport = transport.with_fetch_template(t);
        }
        if let Some(t) = a.str("cleanup-cmd") {
            transport = transport.with_cleanup_template(t);
        }
        fleet::run_fleet_summarized(
            &manifest,
            &transport,
            Path::new(out),
            &opts,
            summary.as_mut(),
        )
    } else {
        let launcher = CliShardLauncher {
            exe,
            args: shard_args,
        };
        fleet::run_fleet_summarized(
            &manifest,
            &LocalTransport {
                launcher: &launcher,
            },
            Path::new(out),
            &opts,
            summary.as_mut(),
        )
    };
    let report = report.map_err(|e| format!("fleet: {e}"))?;
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
    if runner.verbose {
        println!(
            "  copy-back traffic: {} byte(s) full, {} byte(s) ranged over {} probe tick(s)",
            report.fetch_full_bytes,
            report.fetch_ranged_bytes,
            report.probe_fetch_bytes.len()
        );
    }
    println!("merged {} units into {out}", report.merged_units);

    if let (Some(agg_path), Some(mut merged)) = (a.str("agg"), summary) {
        merged
            .write_summary_file(agg_path)
            .map_err(|e| format!("writing {agg_path}: {e}"))?;
        println!("merged t-digest summary written to {agg_path}");
        print_summary_table(
            merged
                .summaries()
                .iter()
                .map(|(alg, _setting, s)| (alg.as_str(), s)),
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// `dpbench merge --out OUT IN...`: interleave shard / partial JSONL
/// files into canonical manifest order (streaming k-way merge — inputs
/// are never loaded whole). `--out` is replaced only when the whole
/// merge succeeds.
fn merge(a: &Args) -> Result<ExitCode, String> {
    let out = a.str("out").ok_or("merge requires --out FILE")?;
    if a.inputs.is_empty() {
        return Err("merge requires at least one input file".into());
    }
    // Merging into one of the inputs would replace that input.
    if let Ok(out_path) = std::fs::canonicalize(out) {
        if let Some(input) = a
            .inputs
            .iter()
            .find(|i| std::fs::canonicalize(i).is_ok_and(|p| p == out_path))
        {
            return Err(format!(
                "--out {out} is the input {input}; merge into a new file"
            ));
        }
    }
    sink::merge_jsonl_file(&a.inputs, Path::new(out), None)
        .map_err(|e| format!("merging into {out}: {e}"))?;
    println!("merged {} files into {out}", a.inputs.len());
    Ok(ExitCode::SUCCESS)
}
