//! `fleet-baselines`: the README's fleet → summary path through the
//! `dpbench fleet` binary, over the paper's simple baselines.

use crate::grid::{self, check_ledger, pick_dataset, seeded};
use crate::procs::{self, Guarded};
use crate::stats::{median, tail};
use crate::{trace, Ctx, Outcome};
use dpbench_core::{Domain, Loss};
use dpbench_harness::config::{ExperimentConfig, WorkloadSpec};
use dpbench_harness::fleet::{
    run_fleet_with, shard_ledger_path, shard_summary_path, steal_ledger_path, Artifact,
    FetchOutcome, FleetOptions, LaunchSpec, LocalTransport, ShardHandle, ShardLauncher,
    ShardStatus, ShardTransport,
};
use dpbench_harness::sink;
use dpbench_harness::RunManifest;
use std::cell::RefCell;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// The paper's simple baselines, in registry order.
const BASELINES: [&str; 6] = ["IDENTITY", "H", "HB", "GREEDY_H", "PRIVELET", "UNIFORM"];
const SAMPLES: usize = 10;
const TRIALS: usize = 50;

pub fn config(seed: u64) -> ExperimentConfig {
    let mut rng = seeded("perfbench-fleet-baselines", seed);
    ExperimentConfig {
        datasets: vec![pick_dataset(&mut rng, &[])],
        scales: vec![100_000],
        domains: vec![Domain::D1(4096)],
        epsilons: vec![0.1],
        algorithms: BASELINES.iter().map(|s| s.to_string()).collect(),
        n_samples: SAMPLES,
        n_trials: TRIALS,
        workload: WorkloadSpec::Prefix,
        loss: Loss::L2,
    }
}

/// The `run`/`fleet` flags describing `cfg`.
fn grid_args(cfg: &ExperimentConfig) -> Vec<String> {
    [
        ("--dataset", cfg.datasets[0].name.to_string()),
        ("--algorithms", cfg.algorithms.join(",")),
        ("--scale", cfg.scales[0].to_string()),
        ("--domain", cfg.domains[0].to_string()),
        ("--eps", cfg.epsilons[0].to_string()),
        ("--trials", cfg.n_trials.to_string()),
        ("--samples", cfg.n_samples.to_string()),
        ("--workload", "prefix".to_string()),
        ("--loss", "l2".to_string()),
    ]
    .into_iter()
    .flat_map(|(k, v)| [k.to_string(), v])
    .collect()
}

/// Samples per (algorithm, setting) group of a ledger.
type GroupCounts = HashMap<(String, String), u64>;

/// The one-shot `dpbench run` of the grid every fleet output must match
/// byte for byte, computed outside the timed window.
struct Reference {
    bytes: Vec<u8>,
    groups: GroupCounts,
    manifest: RunManifest,
}

fn reference(ctx: &Ctx, cfg: &ExperimentConfig) -> Result<Reference, String> {
    let path = ctx.dir.join("reference.jsonl");
    let status = Command::new(&ctx.dpbench)
        .arg("run")
        .args(grid_args(cfg))
        .args(["--threads", &ctx.nproc.to_string(), "--out"])
        .arg(&path)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running dpbench run: {e}"))?;
    if !status.success() {
        return Err(format!("one-shot dpbench run failed: {status}"));
    }
    let manifest = RunManifest::from_config(cfg);
    let (_, bytes) = check_ledger(&path, &manifest)?;
    let mut groups = GroupCounts::new();
    for (_, _, s) in sink::read_samples(&path).map_err(|e| e.to_string())? {
        *groups
            .entry((s.algorithm, s.setting.to_string()))
            .or_default() += 1;
    }
    Ok(Reference {
        bytes,
        groups,
        manifest,
    })
}

/// Check a fleet's merged ledger and merged summary against the reference.
fn check_outputs(ledger: &Path, summary: &Path, reference: &Reference) -> Result<(), String> {
    let bytes = std::fs::read(ledger).map_err(|e| format!("{}: {e}", ledger.display()))?;
    if bytes != reference.bytes {
        check_ledger(ledger, &reference.manifest)?;
        return Err("merged ledger differs from the one-shot run".into());
    }
    let merged = sink::read_summary(summary).map_err(|e| format!("{}: {e}", summary.display()))?;
    let mut groups = 0;
    for (alg, setting, s) in merged.groups() {
        groups += 1;
        let want = reference
            .groups
            .get(&(alg.to_string(), setting.to_string()));
        if want != Some(&s.count()) {
            return Err(format!(
                "summary group {alg} {setting}: {} samples, ledger has {want:?}",
                s.count()
            ));
        }
    }
    if groups != reference.groups.len() {
        return Err(format!(
            "summary has {groups} groups, ledger {}",
            reference.groups.len()
        ));
    }
    Ok(())
}

struct FleetPass {
    setup_s: f64,
    wall_s: f64,
    read_s: f64,
    peak_mb: f64,
    check: Result<(), String>,
}

/// One `dpbench fleet` run, watched from outside: spawn until the first
/// shard appears is set-up; from there to a verified merged output is
/// the wall time. Peak memory is the largest sum of the driver's and its
/// live shards' peak resident sets seen while it ran.
fn timed_pass(
    ctx: &Ctx,
    cfg: &ExperimentConfig,
    reference: &Reference,
    idx: usize,
) -> Result<FleetPass, String> {
    let dir = ctx.dir.join(format!("pass{idx}"));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let (out, agg) = (dir.join("fleet.jsonl"), dir.join("fleet.agg.jsonl"));
    let mut cmd = Command::new(&ctx.dpbench);
    cmd.args(["fleet", "--procs", &ctx.nproc.to_string()])
        .args(grid_args(cfg))
        .arg("--out")
        .arg(&out)
        .arg("--agg")
        .arg(&agg)
        .stdout(Stdio::null());
    let spawned = Instant::now();
    let mut child = Guarded::spawn(&mut cmd).map_err(|e| format!("spawning dpbench fleet: {e}"))?;
    let pid = child.pid();
    let mut first_launch: Option<Instant> = None;
    let mut peak_kb = 0u64;
    let mut last_sample: Option<Instant> = None;
    let status = loop {
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            break status;
        }
        let kids = procs::children(pid);
        let now = Instant::now();
        if first_launch.is_none() && !kids.is_empty() {
            first_launch = Some(now);
        }
        if last_sample.is_none_or(|t| now - t >= Duration::from_millis(5)) {
            last_sample = Some(now);
            let sum: u64 = std::iter::once(pid)
                .chain(kids)
                .filter_map(|p| procs::status_kb(p, "VmHWM"))
                .sum();
            peak_kb = peak_kb.max(sum);
        }
        std::thread::sleep(Duration::from_micros(if first_launch.is_none() {
            100
        } else {
            1000
        }));
    };
    drop(child.wait());
    if !status.success() {
        return Err(format!("dpbench fleet failed: {status}"));
    }
    let first_launch = first_launch.ok_or("fleet exited before any shard was seen")?;
    let t_read = Instant::now();
    let check = check_outputs(&out, &agg, reference);
    let read_s = t_read.elapsed().as_secs_f64();
    Ok(FleetPass {
        setup_s: (first_launch - spawned).as_secs_f64(),
        wall_s: first_launch.elapsed().as_secs_f64(),
        read_s,
        peak_mb: peak_kb as f64 / 1024.0,
        check,
    })
}

fn timed(ctx: &Ctx, cfg: &ExperimentConfig, out: &mut Outcome) -> Result<(), String> {
    let reference = reference(ctx, cfg)?;
    let units = reference.manifest.len() as u64;
    let trials = units * cfg.n_trials as u64;
    let started = Instant::now();
    let mut passes: Vec<FleetPass> = Vec::new();
    let mut speeds = Vec::new();
    while passes.len() < 3 || started.elapsed().as_secs_f64() < ctx.seconds {
        speeds.push(procs::host_speed(ctx.nproc));
        let pass = timed_pass(ctx, cfg, &reference, passes.len())?;
        let _ = std::fs::remove_dir_all(ctx.dir.join(format!("pass{}", passes.len())));
        out.attempted += units;
        if let Err(e) = &pass.check {
            out.fail(units, format!("pass {}: {e}", passes.len() + 1));
        }
        passes.push(pass);
    }
    let per = |f: &dyn Fn(&FleetPass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let walls = tail(&per(&|p| p.wall_s * 1e3));
    let reads = tail(&per(&|p| p.read_s * 1e3));
    out.set("setup_s", median(&per(&|p| p.setup_s)));
    let raw = median(&per(&|p| trials as f64 / p.wall_s));
    // About half a fleet run's wall time is fixed waits (process starts,
    // 25 ms polls, 500 ms probes) that a faster host does not shorten:
    // over ten runs whose host speed ranged 1.6-3.4e8 units/s, scaling by
    // the square root of the speed ratio left a spread of 0.10, against
    // 0.36 raw and 0.26 fully scaled.
    let scaled = procs::at_reference_speed(raw, &speeds, 0.5, out);
    out.set("trials_per_s", scaled);
    out.set("peak_rss_mb", median(&per(&|p| p.peak_mb)));
    out.note(format!("fleet wall ms: {walls}"));
    out.note(format!("output check ms: {reads}"));
    out.note(format!("set-up ms: {}", tail(&per(&|p| p.setup_s * 1e3))));
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let cfg = config(ctx.seed);
    let mut out = Outcome::default();
    out.note(format!("dataset: {}", cfg.datasets[0].name));
    if ctx.trace {
        let reference = reference(ctx, &cfg)?;
        let fleet = |out: &mut Outcome| traced_fleet(ctx, &cfg, &reference, out);
        grid::traced(
            ctx,
            std::slice::from_ref(&cfg),
            Some(std::slice::from_ref(&reference.bytes)),
            &mut out,
            fleet,
        )?;
    } else {
        timed(ctx, &cfg, &mut out)?;
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Traced run: the fleet driver in-process behind a timing transport
// ---------------------------------------------------------------------------

/// Launches `dpbench run --shard` children the way `dpbench fleet` does.
struct Launcher {
    exe: PathBuf,
    args: Vec<String>,
    out: PathBuf,
}

impl ShardLauncher for Launcher {
    fn launch(&self, spec: &LaunchSpec) -> io::Result<Child> {
        let mut cmd = Command::new(&self.exe);
        cmd.arg("run")
            .args(&self.args)
            .arg("--out")
            .arg(&spec.ledger)
            .arg("--shard");
        match spec.steal {
            Some(st) => {
                cmd.arg(format!("{}/{}", st.victim, spec.procs));
                cmd.args(["--from-pos", &st.from_pos.to_string()]);
                cmd.args(["--until-pos", &st.until_pos.to_string()]);
            }
            None => {
                cmd.arg(format!("{}/{}", spec.index, spec.procs));
                cmd.arg("--agg")
                    .arg(shard_summary_path(&self.out, spec.index));
            }
        }
        if spec.resume {
            cmd.arg("--resume");
        }
        cmd.stdout(Stdio::null()).stderr(Stdio::null()).spawn()
    }
}

/// Wall time of one shard attempt, launch to observed exit.
struct Attempt {
    steal: bool,
    wall_s: f64,
}

/// A [`ShardTransport`] wrapper that spans launches and copy-backs and
/// records each attempt's lifetime.
struct TimingTransport<'a> {
    inner: LocalTransport<'a>,
    attempts: Rc<RefCell<Vec<Attempt>>>,
}

struct TimedHandle {
    inner: Box<dyn ShardHandle>,
    slot: usize,
    steal: bool,
    started: Instant,
    done: bool,
    attempts: Rc<RefCell<Vec<Attempt>>>,
}

impl ShardHandle for TimedHandle {
    fn poll(&mut self) -> io::Result<ShardStatus> {
        let status = self.inner.poll()?;
        if matches!(status, ShardStatus::Exited { .. }) && !self.done {
            self.done = true;
            let end = Instant::now();
            trace::record("fleet.shard", self.slot as u64, self.started, end);
            self.attempts.borrow_mut().push(Attempt {
                steal: self.steal,
                wall_s: (end - self.started).as_secs_f64(),
            });
        }
        Ok(status)
    }

    fn kill(&mut self) -> io::Result<()> {
        self.inner.kill()
    }
}

impl Drop for TimedHandle {
    fn drop(&mut self) {
        if !self.done {
            let _ = self.inner.kill();
        }
    }
}

impl ShardTransport for TimingTransport<'_> {
    fn launch(&self, spec: &LaunchSpec) -> io::Result<Box<dyn ShardHandle>> {
        let started = Instant::now();
        let inner = trace::span("fleet.launch", spec.index as u64, || {
            self.inner.launch(spec)
        })?;
        Ok(Box::new(TimedHandle {
            inner,
            slot: spec.index,
            steal: spec.steal.is_some(),
            started,
            done: false,
            attempts: Rc::clone(&self.attempts),
        }))
    }

    fn fetch(&self, index: usize, artifact: Artifact, dest: &Path) -> io::Result<FetchOutcome> {
        trace::span("fleet.fetch", index as u64, || {
            self.inner.fetch(index, artifact, dest)
        })
    }
}

/// Run the fleet driver in-process over `dpbench run --shard` children,
/// then re-read, merge and summarize the shard files inside spans.
/// Returns the bytes validated.
fn traced_fleet(
    ctx: &Ctx,
    cfg: &ExperimentConfig,
    reference: &Reference,
    out: &mut Outcome,
) -> Result<u64, String> {
    let dir = ctx.dir.join("traced-fleet");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let merged = dir.join("fleet.jsonl");
    // `dpbench fleet --procs <nproc>` splits nproc threads over nproc
    // shards: one each.
    let mut args = grid_args(cfg);
    args.extend(["--threads".to_string(), "1".to_string()]);
    let launcher = Launcher {
        exe: ctx.dpbench.clone(),
        args,
        out: merged.clone(),
    };
    let attempts = Rc::new(RefCell::new(Vec::new()));
    let transport = TimingTransport {
        inner: LocalTransport {
            launcher: &launcher,
        },
        attempts: Rc::clone(&attempts),
    };
    let opts = FleetOptions {
        procs: ctx.nproc,
        ..FleetOptions::default()
    };
    let t = Instant::now();
    let report = trace::span("fleet.driver", 0, || {
        run_fleet_with(&reference.manifest, &transport, &merged, &opts)
    })
    .map_err(|e| format!("fleet driver: {e}"))?;
    let fleet_wall = t.elapsed().as_secs_f64();

    let mut ledgers: Vec<PathBuf> = (0..ctx.nproc)
        .map(|i| shard_ledger_path(&merged, i))
        .collect();
    ledgers.extend(
        report
            .steals
            .iter()
            .map(|s| steal_ledger_path(&merged, s.seq)),
    );
    let mut validated = 0u64;
    let mut executed = 0usize;
    for path in &ledgers {
        let ledger = trace::span("sink.validate", 0, || sink::read_ledger(path))
            .map_err(|e| e.to_string())?;
        validated += std::fs::metadata(path).map_or(0, |m| m.len());
        executed += ledger.done.len();
    }
    let remerged = dir.join("remerged.jsonl");
    trace::span("sink.merge", 0, || -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(&remerged)?);
        sink::merge_jsonl(&ledgers, &mut w)?;
        io::Write::flush(&mut w)
    })
    .map_err(|e| e.to_string())?;
    let summaries: Vec<PathBuf> = (0..ctx.nproc)
        .map(|i| shard_summary_path(&merged, i))
        .collect();
    let summary = trace::span("sink.merge", 0, || sink::merge_summary_files(&summaries))
        .map_err(|e| e.to_string())?;

    let units = reference.manifest.len() as u64;
    out.attempted += units;
    for (what, path) in [("fleet driver", &merged), ("re-merge", &remerged)] {
        if std::fs::read(path).map_err(|e| e.to_string())? != reference.bytes {
            out.fail(
                units,
                format!("{what} output differs from the one-shot run"),
            );
        }
    }
    if summary.samples_seen() != units * cfg.n_trials as u64 {
        out.fail(
            units,
            format!("merged summary holds {} samples", summary.samples_seen()),
        );
    }

    let attempts = attempts.borrow();
    let primary: Vec<f64> = attempts
        .iter()
        .filter(|a| !a.steal)
        .map(|a| a.wall_s)
        .collect();
    let slowest = attempts.iter().map(|a| a.wall_s).fold(0.0, f64::max);
    out.set("fleet.launches", report.launches as f64);
    out.set("fleet.steal_launches", report.steal_launches as f64);
    out.set("fleet.probe_ticks", report.probe_fetch_bytes.len() as f64);
    out.set(
        "fleet.shard_wall_s.max",
        primary.iter().copied().fold(0.0, f64::max),
    );
    out.set(
        "fleet.shard_wall_s.min",
        primary
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .min(slowest),
    );
    out.set(
        "fleet.useful_unit_frac",
        units as f64 / executed.max(1) as f64,
    );
    out.set("fleet.driver_tail_s", fleet_wall - slowest);
    out.note(format!(
        "fleet wall {fleet_wall:.3}s, attempts {:?}",
        attempts
            .iter()
            .map(|a| (a.steal, (a.wall_s * 1e3).round() / 1e3))
            .collect::<Vec<_>>()
    ));
    Ok(validated)
}
