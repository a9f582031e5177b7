//! `serve-mix`: the real `dpbench serve` binary under an open-loop mix
//! of independent analysts — releases, budget reads and status polls.

use crate::grid::{dump, layer_metrics, pick_dataset, seeded};
use crate::loadgen::{valid_json, Kind, Phase, Pool, Req};
use crate::procs::{self, Guarded};
use crate::stats::{median, p99, tail};
use crate::{exec_span, trace, Ctx, Outcome};
use dpbench_algorithms::registry::mechanism_by_name;
use dpbench_core::mechanism::execute_eps_with;
use dpbench_core::rng::{hash_str, rng_for};
use dpbench_core::{scaled_per_query_error, DataVector, Domain, Loss, Workload, Workspace};
use dpbench_datasets::{catalog, DataGenerator};
use dpbench_harness::config::WorkloadSpec;
use dpbench_harness::runner::PlanCache;
use dpbench_harness::serve::http::{self, JsonValue};
use dpbench_harness::serve::TenantAccountant;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::net::TcpListener;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The two fixed open-loop rates, req/s: about 30% and 55% of the
/// highest rate the server sustained (`max_rps` about 2,900 req/s) on the
/// 2-vCPU host the benchmark was calibrated on.
const LOW_RPS: f64 = 800.0;
const HIGH_RPS: f64 = 1600.0;
/// The `max_rps` ladder above the high rate, req/s.
const LADDER: [f64; 10] = [
    1800.0, 2000.0, 2250.0, 2500.0, 2800.0, 3150.0, 3550.0, 4000.0, 4500.0, 5000.0,
];
/// Share of the offered rate a step must achieve to show no growing
/// backlog.
const KEPT_UP: f64 = 0.98;
/// A window in which the generator was busy more than this share of the
/// time is discarded: its own lateness, not the server's, would then
/// dominate.
const MAX_BUSY: f64 = 0.8;
/// Releases per measurement window.
const WINDOW_RELEASES: f64 = 1150.0;
/// Usable windows each fixed rate needs.
const MIN_WINDOWS: usize = 3;
/// Server starts timed for `setup_s`.
const SETUP_REPS: usize = 7;

const DOMAIN: usize = 1024;
const TENANTS: usize = 8;
const GRANT: f64 = 1e9;
const MECHS: [&str; 4] = ["IDENTITY", "HB", "GREEDY_H", "DAWA"];
const WORKLOADS: [&str; 3] = ["prefix", "identity", "random:100"];
const EPS: [f64; 4] = [0.05, 0.1, 0.25, 0.5];
/// Request mix: releases, budget reads, status polls.
const P_RELEASE: f64 = 0.87;
const P_READ: f64 = 0.12;
/// Share of releases on a never-seen `random:N`, forcing a cold plan.
const P_COLD: f64 = 0.01;

/// The seeded inputs of one run: the second dataset served next to
/// MEDCOST, and the counter that keeps cold workloads fresh.
struct Mix {
    datasets: [String; 2],
    next_cold: usize,
}

impl Mix {
    fn new(seed: u64) -> Mix {
        let mut rng = seeded("perfbench-serve-mix", seed);
        let other = pick_dataset(&mut rng, &["MEDCOST"]);
        Mix {
            datasets: ["MEDCOST".into(), other.name.to_string()],
            next_cold: 101,
        }
    }

    /// `rate` req/s of Poisson arrivals for `secs` seconds.
    fn schedule(&mut self, rng: &mut StdRng, rate: f64, secs: f64) -> Vec<Req> {
        let mut out = Vec::new();
        let mut at = 0.0;
        loop {
            at += -(1.0 - rng.gen::<f64>()).ln() / rate;
            if at >= secs {
                return out;
            }
            let tenant = format!("t{}", rng.gen_range(0..TENANTS));
            let roll = rng.gen::<f64>();
            let (kind, bytes) = if roll < P_RELEASE {
                let eps = EPS[rng.gen_range(0..EPS.len())];
                let workload = if rng.gen::<f64>() < P_COLD {
                    self.next_cold += 1;
                    format!("random:{}", self.next_cold)
                } else {
                    WORKLOADS[rng.gen_range(0..WORKLOADS.len())].to_string()
                };
                let body = format!(
                    "{{\"tenant\":\"{tenant}\",\"dataset\":\"{}\",\"mechanism\":\"{}\",\"eps\":{eps},\"workload\":\"{workload}\"}}",
                    self.datasets[rng.gen_range(0..2usize)],
                    MECHS[rng.gen_range(0..MECHS.len())],
                );
                let head = format!(
                    "POST /v1/release HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
                    body.len()
                );
                (Kind::Release { eps }, format!("{head}{body}"))
            } else if roll < P_RELEASE + P_READ {
                (
                    Kind::Read,
                    format!("GET /v1/tenants/{tenant}/budget HTTP/1.1\r\nHost: bench\r\n\r\n"),
                )
            } else {
                (
                    Kind::Status,
                    "GET /v1/status HTTP/1.1\r\nHost: bench\r\n\r\n".to_string(),
                )
            };
            out.push(Req {
                at,
                kind,
                bytes: bytes.into_bytes(),
            });
        }
    }
}

fn grants() -> Vec<(String, f64)> {
    (0..TENANTS).map(|i| (format!("t{i}"), GRANT)).collect()
}

/// The number after `key` in `s`.
fn num_after(s: &str, key: &str) -> Option<f64> {
    let rest = &s[s.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Check one 200 body; a release must parse, carry an estimate of the
/// served domain's length, and report `spent` equal to the requested ε.
/// Returns the handler time a release reports.
fn check_body(req: &Req, body: &[u8]) -> Result<Option<f64>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    match req.kind {
        Kind::Release { eps } => {
            if !valid_json(body) {
                return Err("release body is not valid JSON".into());
            }
            let handler = num_after(text, "\"latency_ms\":").ok_or("no latency_ms")?;
            let release = &text[text.find("\"release\":").ok_or("no release")?..];
            let spent = num_after(release, "\"spent\":").ok_or("no spent")?;
            if spent != eps {
                return Err(format!("spent {spent} != requested {eps}"));
            }
            let est = &release[release.find("\"estimate\":[").ok_or("no estimate")? + 12..];
            let est = &est[..est.find(']').ok_or("unterminated estimate")?];
            let len = if est.is_empty() {
                0
            } else {
                est.split(',').count()
            };
            if len != DOMAIN {
                return Err(format!("estimate has {len} cells, domain has {DOMAIN}"));
            }
            Ok(Some(handler))
        }
        Kind::Read => num_after(text, "\"remaining\":")
            .map(|_| None)
            .ok_or_else(|| "budget read without remaining".into()),
        Kind::Status => num_after(text, "\"requests\":")
            .map(|_| None)
            .ok_or_else(|| "status without requests".into()),
    }
}

/// A running `dpbench serve`.
struct Server {
    child: Guarded,
    addr: String,
    /// Spawn until the first 200 from `/v1/readyz`.
    ready_s: f64,
}

fn free_port() -> Result<u16, String> {
    let l = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    Ok(l.local_addr().map_err(|e| e.to_string())?.port())
}

fn start_server(ctx: &Ctx, mix: &Mix, journal: &Path) -> Result<Server, String> {
    let port = free_port()?;
    let addr = format!("127.0.0.1:{port}");
    let tenants = grants()
        .iter()
        .map(|(t, e)| format!("{t}={e}"))
        .collect::<Vec<_>>()
        .join(",");
    let mut cmd = Command::new(&ctx.dpbench);
    cmd.args([
        "serve",
        "--port",
        &port.to_string(),
        "--datasets",
        &mix.datasets.join(","),
    ])
    .args(["--domain", &DOMAIN.to_string(), "--journal"])
    .arg(journal)
    .args([
        "--slo",
        "--tenants",
        &tenants,
        "--seed",
        &ctx.seed.to_string(),
    ])
    .stdout(Stdio::null())
    .stderr(Stdio::null());
    let spawned = Instant::now();
    let mut child = Guarded::spawn(&mut cmd).map_err(|e| format!("spawning dpbench serve: {e}"))?;
    loop {
        if let Ok((200, _)) = http::request(&addr, "GET", "/v1/readyz", None) {
            break;
        }
        if child.try_wait().map_err(|e| e.to_string())?.is_some() {
            return Err("dpbench serve exited during start-up".into());
        }
        if spawned.elapsed() > Duration::from_secs(30) {
            return Err("dpbench serve not ready after 30 s".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(Server {
        child,
        addr,
        ready_s: spawned.elapsed().as_secs_f64(),
    })
}

/// Stop the server gracefully (SIGTERM drains and syncs the journal).
fn stop_server(server: Server) -> Result<(), String> {
    let status = server
        .child
        .terminate(Duration::from_secs(20))
        .map_err(|e| e.to_string())?;
    if status.code() != Some(130) {
        return Err(format!("dpbench serve did not drain cleanly: {status}"));
    }
    Ok(())
}

/// One window of open-loop traffic at a fixed rate.
struct Rung {
    rate: f64,
    release: Vec<f64>,
    read: Vec<f64>,
    failed: u64,
    attempted: u64,
    phase: Phase,
}

impl Rung {
    fn lag_p99(&self) -> f64 {
        p99(&self.phase.lags_ms).unwrap_or_else(|_| tail(&self.phase.lags_ms).value)
    }

    /// False when the generator itself could not keep up.
    fn valid(&self) -> bool {
        self.phase.busy_frac <= MAX_BUSY
    }

    /// Achieved over offered rate; below [`KEPT_UP`] the backlog grew.
    fn kept_up(&self) -> f64 {
        self.phase.achieved_rps / self.phase.offered_rps
    }

    fn describe(&self) -> String {
        format!(
            "{:.0} req/s: offered {:.1} achieved {:.1}, release {}, read {}, lag {} (p99 {:.4}), busy {:.3}, failed {}/{}",
            self.rate,
            self.phase.offered_rps,
            self.phase.achieved_rps,
            tail(&self.release),
            if self.read.is_empty() { "-".to_string() } else { tail(&self.read).to_string() },
            tail(&self.phase.lags_ms),
            self.lag_p99(),
            self.phase.busy_frac,
            self.failed,
            self.attempted
        )
    }
}

/// Seconds of traffic at `rate` that carry about [`WINDOW_RELEASES`]
/// releases — enough for every window's release p99 to have ten samples
/// beyond it.
fn window_secs(rate: f64) -> f64 {
    WINDOW_RELEASES / (P_RELEASE * rate)
}

fn run_rung(
    pool: &mut Pool,
    mix: &mut Mix,
    rng: &mut StdRng,
    rate: f64,
    secs: f64,
    out: &mut Outcome,
) -> Result<Rung, String> {
    let reqs = mix.schedule(rng, rate, secs);
    let phase = pool
        .run(&reqs, Duration::from_secs(2), &check_body)
        .map_err(|e| format!("load generator: {e}"))?;
    let mut rung = Rung {
        rate,
        release: Vec::new(),
        read: Vec::new(),
        failed: 0,
        attempted: reqs.len() as u64,
        phase,
    };
    for s in &rung.phase.samples {
        if let Some(f) = &s.failure {
            rung.failed += 1;
            if rung.failed <= 3 {
                out.note(format!("{rate} req/s: request failed: {f:?}"));
            }
        }
        match s.kind {
            Kind::Release { .. } => rung.release.push(s.latency_ms),
            Kind::Read => rung.read.push(s.latency_ms),
            Kind::Status => {}
        }
    }
    Ok(rung)
}

/// The windows run at one fixed rate.
#[derive(Default)]
struct Rate {
    windows: Vec<Rung>,
}

impl Rate {
    fn valid(&self) -> impl Iterator<Item = &Rung> {
        self.windows.iter().filter(|w| w.valid())
    }

    /// The median over valid windows of a per-window statistic, so one
    /// window hit by a burst of host interference does not set the
    /// figure.
    fn per_window(&self, stat: impl Fn(&Rung) -> Option<f64>) -> Result<f64, String> {
        let per: Vec<f64> = self.valid().filter_map(stat).collect();
        if per.len() < MIN_WINDOWS {
            return Err(format!(
                "only {} of {} windows at {} req/s were usable (generator busy above {MAX_BUSY})",
                per.len(),
                self.windows.len(),
                self.windows.first().map_or(0.0, |w| w.rate)
            ));
        }
        Ok(median(&per))
    }

    fn release_p50(&self) -> Result<f64, String> {
        self.per_window(|w| Some(median(&w.release)))
    }

    fn release_p99(&self) -> Result<f64, String> {
        self.per_window(|w| p99(&w.release).ok())
    }

    fn pooled(&self, f: impl Fn(&Rung) -> &Vec<f64>) -> Vec<f64> {
        self.valid().flat_map(|w| f(w).iter().copied()).collect()
    }

    fn failed(&self) -> u64 {
        self.windows.iter().map(|w| w.failed).sum()
    }

    fn step(&self) -> Step {
        Step {
            failed: self.failed(),
            kept_up: self
                .windows
                .iter()
                .map(Rung::kept_up)
                .fold(f64::INFINITY, f64::min),
            offered_rps: self.windows.first().map_or(0.0, |w| w.rate),
        }
    }

    fn describe(&self) -> String {
        let windows: Vec<f64> = self.valid().filter_map(|w| p99(&w.release).ok()).collect();
        format!(
            "{} windows ({} valid), kept up {:.4}, release p50 {:.4} window p99s {:?}, read {}, failed {}",
            self.windows.len(),
            self.valid().count(),
            self.step().kept_up,
            median(&self.pooled(|w| &w.release)),
            windows.iter().map(|v| (v * 1e3).round() / 1e3).collect::<Vec<_>>(),
            tail(&self.pooled(|w| &w.read)),
            self.failed()
        )
    }
}

/// One rate on the way up the `max_rps` ladder.
struct Step {
    failed: u64,
    /// Achieved over offered rate (the worst window's, for a fixed rate).
    kept_up: f64,
    offered_rps: f64,
}

impl Step {
    /// Nothing failed and no backlog grew.
    fn passes(&self) -> bool {
        self.failed == 0 && self.kept_up >= KEPT_UP
    }
}

impl From<&Rung> for Step {
    fn from(r: &Rung) -> Step {
        Step {
            failed: r.failed,
            kept_up: r.kept_up(),
            offered_rps: r.rate,
        }
    }
}

/// The highest rate the server sustains: from steps in increasing rate
/// order that stop at the first failing one, the rate where achieved over
/// offered crosses [`KEPT_UP`], interpolated between the last passing
/// step and a first one that failed only on backlog, so the result is
/// not quantized to the ladder.
fn max_rps(steps: &[Step]) -> Option<f64> {
    let mut best: Option<&Step> = None;
    for s in steps {
        if s.passes() {
            best = Some(s);
            continue;
        }
        let prev = best?;
        if s.failed > 0 || s.kept_up >= prev.kept_up {
            return Some(prev.offered_rps);
        }
        let t = (prev.kept_up - KEPT_UP) / (prev.kept_up - s.kept_up);
        return Some(prev.offered_rps + t.clamp(0.0, 1.0) * (s.offered_rps - prev.offered_rps));
    }
    best.map(|s| s.offered_rps)
}

/// Live budgets of every tenant, then a graceful stop, then a replay of
/// the journal into a fresh accountant that must match bit for bit.
fn check_journal(server: Server, journal: &Path, out: &mut Outcome) -> Result<(), String> {
    let mut live = Vec::new();
    for (t, _) in grants() {
        let (status, body) = http::request(
            &server.addr,
            "GET",
            &format!("/v1/tenants/{t}/budget"),
            None,
        )
        .map_err(|e| e.to_string())?;
        let spent = num_after(&body, "\"spent\":");
        let remaining = num_after(&body, "\"remaining\":");
        match (status, spent, remaining) {
            (200, Some(s), Some(r)) => live.push((t, s, r)),
            _ => return Err(format!("budget read for {t} failed: {status} {body}")),
        }
    }
    stop_server(server)?;
    let replayed = TenantAccountant::new(&grants(), Some(journal))
        .map_err(|e| format!("journal replay: {e}"))?;
    for (t, spent, remaining) in live {
        let snap = replayed.snapshot(&t).ok_or("tenant missing after replay")?;
        if snap.spent.to_bits() != spent.to_bits()
            || snap.remaining.to_bits() != remaining.to_bits()
        {
            out.fail(
                1,
                format!(
                    "{t}: journal replay {}/{} differs from live {spent}/{remaining}",
                    snap.spent, snap.remaining
                ),
            );
        }
    }
    Ok(())
}

fn timed(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let mut mix = Mix::new(ctx.seed);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut server = None;
    for rep in 0..SETUP_REPS {
        let journal = ctx.dir.join(format!("journal{rep}.jsonl"));
        let s = start_server(ctx, &mix, &journal)?;
        setups.push(s.ready_s);
        if rep + 1 < SETUP_REPS {
            stop_server(s)?;
        } else {
            server = Some((s, journal));
        }
    }
    let (server, journal) = server.expect("at least one start");
    let mut pool = Pool::connect(&server.addr, ctx.nproc).map_err(|e| e.to_string())?;
    let phase_rng = |tag: u64| rng_for("perfbench-serve-phase", &[ctx.seed, tag]);

    // An untimed warm-up, then low- and high-rate windows interleaved
    // over about 70% of the run, so both rates see the same host.
    let warm = run_rung(
        &mut pool,
        &mut mix,
        &mut phase_rng(0),
        LOW_RPS,
        0.05 * ctx.seconds,
        out,
    )?;
    out.note(format!("warm-up (untimed): {}", warm.describe()));
    let pair_secs = window_secs(LOW_RPS) + window_secs(HIGH_RPS);
    let pairs = ((0.7 * ctx.seconds / pair_secs).floor() as usize).max(MIN_WINDOWS);
    let (mut low, mut high) = (Rate::default(), Rate::default());
    for k in 0..pairs as u64 {
        for (tag, rate, windows) in [
            (2 * k + 1, LOW_RPS, &mut low),
            (2 * k + 2, HIGH_RPS, &mut high),
        ] {
            let w = run_rung(
                &mut pool,
                &mut mix,
                &mut phase_rng(tag),
                rate,
                window_secs(rate),
                out,
            )?;
            windows.windows.push(w);
        }
    }
    out.note(format!("low {LOW_RPS} req/s: {}", low.describe()));
    out.note(format!("high {HIGH_RPS} req/s: {}", high.describe()));

    // Peak memory after the fixed-rate windows, whose traffic is fixed by
    // the seed; how far the ladder climbs is not.
    let peak_mb = procs::status_kb(server.child.pid(), "VmHWM").unwrap_or(0) as f64 / 1024.0;
    let mut steps = vec![low.step(), high.step()];
    if steps.iter().all(Step::passes) {
        for (i, &rate) in LADDER.iter().enumerate() {
            let rung = run_rung(
                &mut pool,
                &mut mix,
                &mut phase_rng(1000 + i as u64),
                rate,
                window_secs(rate),
                out,
            )?;
            out.note(format!("ladder: {}", rung.describe()));
            out.attempted += rung.attempted;
            out.failed += rung.failed;
            if !rung.valid() {
                out.note("ladder stopped: the generator was saturated".into());
                break;
            }
            let step = Step::from(&rung);
            let passes = step.passes();
            steps.push(step);
            if !passes {
                break;
            }
        }
    }
    drop(pool);
    check_journal(server, &journal, out)?;

    for rate in [&low, &high] {
        out.attempted += rate.windows.iter().map(|w| w.attempted).sum::<u64>();
        out.failed += rate.failed();
    }
    // Scored releases (each 200 carries its SLO error block) per second
    // of wall time across the fixed-rate windows.
    let windows = || low.windows.iter().chain(&high.windows);
    let scored = windows()
        .flat_map(|w| &w.phase.samples)
        .filter(|s| matches!(s.kind, Kind::Release { .. }) && s.failure.is_none())
        .count() as f64;
    let walls: f64 = windows()
        .map(|w| w.attempted as f64 / w.phase.achieved_rps)
        .sum();
    out.set("setup_s", median(&setups));
    out.note(format!(
        "set-up ms: {}",
        tail(&setups.iter().map(|s| s * 1e3).collect::<Vec<_>>())
    ));
    out.set("trials_per_s", scored / walls);
    out.set("peak_rss_mb", peak_mb);
    let info = [
        ("release_p50_ms.low", low.release_p50()),
        ("release_p99_ms.low", low.release_p99()),
        ("release_p50_ms.high", high.release_p50()),
        ("release_p99_ms.high", high.release_p99()),
        ("read_p99_ms.high", p99(&high.pooled(|w| &w.read))),
    ];
    for (name, value) in info {
        match value {
            Ok(v) => out.info(name, v, "ms"),
            Err(e) => out.note(format!("{name} not measured: {e}")),
        }
    }
    let best = max_rps(&steps).unwrap_or_else(|| {
        // Even the low rate failed a condition; the run already counts
        // the failures, and the rate it did sustain is the figure.
        out.note("no rate met the max_rps conditions".into());
        LOW_RPS * low.step().kept_up.min(1.0)
    });
    out.info("max_rps", best, "req/s");
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.note(format!(
        "generator thread: {}",
        crate::loadgen::prompt_wakeups()
    ));
    let mix = Mix::new(ctx.seed);
    out.note(format!("datasets: {}", mix.datasets.join("+")));
    if ctx.trace {
        traced(ctx, &mut out)?;
    } else {
        timed(ctx, &mut out)?;
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

/// The server-side numbers of a live phase: handler and outside-handler
/// latency from the responses, and `/v1/status` deltas.
fn live_rows(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let mut mix = Mix::new(ctx.seed);
    let journal = ctx.dir.join("journal-live.jsonl");
    let server = start_server(ctx, &mix, &journal)?;
    let mut pool = Pool::connect(&server.addr, ctx.nproc).map_err(|e| e.to_string())?;
    let mut rng = rng_for("perfbench-serve-phase", &[ctx.seed, 0, 0]);
    run_rung(
        &mut pool,
        &mut mix,
        &mut rng,
        LOW_RPS,
        0.05 * ctx.seconds,
        out,
    )?;
    let status = |addr: &str| -> Result<String, String> {
        match http::request(addr, "GET", "/v1/status", None) {
            Ok((200, body)) => Ok(body),
            other => Err(format!("status read failed: {other:?}")),
        }
    };
    let before = status(&server.addr)?;
    let high = run_rung(
        &mut pool,
        &mut mix,
        &mut rng_for("perfbench-serve-phase", &[ctx.seed, 2]),
        HIGH_RPS,
        0.25 * ctx.seconds,
        out,
    )?;
    let after = status(&server.addr)?;
    drop(pool);
    let count = |s: &str, path: &[&str]| -> f64 {
        let mut rest = s;
        for key in path {
            let tag = format!("\"{key}\":");
            match rest.find(&tag) {
                Some(i) => rest = &rest[i + tag.len()..],
                None => return 0.0,
            }
        }
        num_after(rest, "").unwrap_or(0.0)
    };
    let delta = |path: &[&str]| count(&after, path) - count(&before, path);
    let requests = delta(&["requests"]).max(1.0);
    let wakeups = delta(&["poller", "wakeups"]);
    let (hits, misses) = (
        delta(&["plan_cache", "hits"]),
        delta(&["plan_cache", "misses"]),
    );
    out.set("serve.poller.wakeups_per_req", wakeups / requests);
    out.set(
        "serve.poller.spurious_frac",
        delta(&["poller", "spurious"]) / wakeups.max(1.0),
    );
    out.set(
        "serve.plan_cache.hit_ratio",
        hits / (hits + misses).max(1.0),
    );
    out.set(
        "serve.shed",
        ["shed_conns", "shed_queue", "shed_wait"]
            .iter()
            .map(|k| delta(&["robustness", k]))
            .sum(),
    );
    let mut handler = Vec::new();
    let mut outside = Vec::new();
    for s in &high.phase.samples {
        if let (Some(h), None) = (s.handler_ms, &s.failure) {
            handler.push(h);
            outside.push(s.service_ms - h);
        }
    }
    out.set("serve.handler_p50_ms", median(&handler));
    out.set("serve.handler_p99_ms", p99(&handler)?);
    out.set("serve.outside_handler_p50_ms", median(&outside));
    out.set("serve.outside_handler_p99_ms", p99(&outside)?);
    out.set("loadgen.lag_p99_ms", high.lag_p99());
    out.set("loadgen.busy_frac", high.phase.busy_frac);
    out.attempted += high.attempted;
    out.failed += high.failed;
    out.note(format!("live phase: {}", high.describe()));
    check_journal(server, &journal, out)
}

/// Everything the replayed server keeps across requests.
struct ReplayState {
    accountant: TenantAccountant,
    cache: PlanCache,
    data: HashMap<String, DataVector>,
    workloads: HashMap<String, Arc<Workload>>,
    y_true: HashMap<(String, String), Arc<Vec<f64>>>,
    ws: Workspace,
    write_bytes: u64,
    serialize_bytes: u64,
}

impl ReplayState {
    fn new(ctx: &Ctx, mix: &Mix, journal: &Path) -> Result<ReplayState, String> {
        let domain = Domain::D1(DOMAIN);
        let mut data = HashMap::new();
        for name in &mix.datasets {
            let ds = catalog::by_name(name).ok_or("unknown dataset")?;
            let x = trace::span("datasets.generate", 0, || {
                let mut rng = rng_for(
                    "serve-data",
                    &[hash_str(name), 100_000, DOMAIN as u64, ctx.seed],
                );
                DataGenerator::new().generate(&ds, domain, 100_000, &mut rng)
            });
            data.insert(name.clone(), x);
        }
        Ok(ReplayState {
            accountant: TenantAccountant::new(&grants(), Some(journal))
                .map_err(|e| e.to_string())?,
            cache: PlanCache::new(),
            data,
            workloads: HashMap::new(),
            y_true: HashMap::new(),
            ws: Workspace::new(),
            write_bytes: 0,
            serialize_bytes: 0,
        })
    }

    /// Serve one raw request through the layers' public functions.
    fn serve(&mut self, id: u64, raw: &[u8]) -> Result<(), String> {
        let mut buf = raw.to_vec();
        let mut scratch = Vec::new();
        let req = trace::span("serve.http.parse", id, || {
            http::try_parse_with(&mut buf, &mut scratch)
        })
        .map_err(|r| r.detail)?
        .ok_or("incomplete request")?;
        let mut body = String::new();
        if req.path == "/v1/release" {
            let fields = trace::span("serve.http.parse", id, || {
                std::str::from_utf8(&req.body)
                    .map_err(|e| e.to_string())
                    .and_then(http::parse_object)
            })?;
            let field = |k: &str| {
                fields
                    .get(k)
                    .and_then(JsonValue::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            let (tenant, dataset, mech_name, spec) = (
                field("tenant"),
                field("dataset"),
                field("mechanism"),
                field("workload"),
            );
            let eps = fields
                .get("eps")
                .and_then(JsonValue::as_f64)
                .ok_or("no eps")?;
            let mech = mechanism_by_name(&mech_name).ok_or("unknown mechanism")?;
            let workload = match self.workloads.get(&spec) {
                Some(w) => Arc::clone(w),
                None => {
                    let parsed = match spec.as_str() {
                        "prefix" => WorkloadSpec::Prefix,
                        "identity" => WorkloadSpec::Identity,
                        s => WorkloadSpec::RandomRanges(
                            s["random:".len()..].parse().map_err(|_| "bad workload")?,
                        ),
                    };
                    let w = trace::span("core.workload.build", id, || {
                        Arc::new(parsed.build(Domain::D1(DOMAIN)))
                    });
                    self.workloads.insert(spec.clone(), Arc::clone(&w));
                    w
                }
            };
            trace::span("serve.reserve", id, || {
                self.accountant.reserve(&tenant, eps)
            })
            .map_err(|e| format!("{e:?}"))?;
            let (plan, hit) = trace::span("runner.plan_cache.lookup", id, || {
                self.cache.plan_for_traced(
                    &crate::grid::TimedMech(mech.as_ref()),
                    &Domain::D1(DOMAIN),
                    &workload,
                )
            })
            .map_err(|e| e.to_string())?;
            let x = &self.data[&dataset];
            let mut rng = rng_for("perfbench-serve-replay", &[id]);
            let ws = &mut self.ws;
            let release = trace::span(&exec_span("1d", &mech_name), id, || {
                execute_eps_with(plan.as_ref(), x, eps, ws, &mut rng)
            })
            .map_err(|e| e.to_string())?;
            let key = (dataset.clone(), spec.clone());
            let y_true = match self.y_true.get(&key) {
                Some(y) => Arc::clone(y),
                None => {
                    let y = trace::span("core.y_true", id, || Arc::new(workload.evaluate(x)));
                    self.y_true.insert(key, Arc::clone(&y));
                    y
                }
            };
            let (l1, l2) = trace::span("core.score", id, || {
                let y_hat = workload.evaluate_cells(&release.estimate);
                (
                    scaled_per_query_error(&y_true, &y_hat, x.scale(), Loss::L1),
                    scaled_per_query_error(&y_true, &y_hat, x.scale(), Loss::L2),
                )
            });
            let remaining = trace::span("serve.snapshot", id, || self.accountant.snapshot(&tenant))
                .map_or(0.0, |s| s.remaining);
            trace::span("core.serialize", id, || {
                let _ = write!(
                    body,
                    "{{\"tenant\":\"{tenant}\",\"dataset\":\"{dataset}\",\"mechanism\":\"{mech_name}\",\"eps\":{eps},\"remaining\":{remaining},\"plan_cache_hit\":{hit},\"slo\":{{\"scaled_l1\":{l1},\"scaled_l2\":{l2}}},\"release\":"
                );
                release.to_json_into(&mut body);
                body.push('}');
            });
            self.serialize_bytes += body.len() as u64;
            self.ws.give_f64(release.into_estimate());
        } else if let Some(tenant) = req
            .path
            .strip_prefix("/v1/tenants/")
            .and_then(|r| r.strip_suffix("/budget"))
        {
            let snap = trace::span("serve.snapshot", id, || self.accountant.snapshot(tenant))
                .ok_or("unknown tenant")?;
            trace::span("core.serialize", id, || {
                let _ = write!(
                    body,
                    "{{\"tenant\":\"{tenant}\",\"total\":{},\"spent\":{},\"remaining\":{},\"releases\":{}}}",
                    snap.total, snap.spent, snap.remaining, snap.releases
                );
            });
            self.serialize_bytes += body.len() as u64;
        } else {
            body.push_str("{\"ok\":true}");
        }
        let mut wire = Vec::new();
        trace::span("serve.http.write", id, || {
            http::write_response_into(&mut wire, 200, &body, false, None)
        });
        self.write_bytes += wire.len() as u64;
        Ok(())
    }
}

/// Replay the seeded mix through the server's layers; returns the wall
/// time and the final state.
fn replay(ctx: &Ctx, reqs: &[Req], tag: &str) -> Result<(f64, ReplayState, u64), String> {
    let mix = Mix::new(ctx.seed);
    let journal = ctx.dir.join(format!("journal-replay-{tag}.jsonl"));
    let t = Instant::now();
    let mut state = ReplayState::new(ctx, &mix, &journal)?;
    for (id, r) in reqs.iter().enumerate() {
        state.serve(id as u64, &r.bytes)?;
    }
    let wall = t.elapsed().as_secs_f64();
    let journal_bytes = std::fs::metadata(&journal).map_or(0, |m| m.len());
    Ok((wall, state, journal_bytes))
}

fn traced(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    live_rows(ctx, out)?;
    let mut mix = Mix::new(ctx.seed);
    let mut rng = rng_for("perfbench-serve-phase", &[ctx.seed, 2, 0]);
    let reqs = mix.schedule(&mut rng, HIGH_RPS, 0.1 * ctx.seconds);
    let (plain_before, _, _) = replay(ctx, &reqs, "plain0")?;
    trace::start();
    let replayed = replay(ctx, &reqs, "traced");
    let trace = trace::stop();
    let (traced_s, state, journal_bytes) = replayed?;
    // Untraced replays on both sides of the traced one, so warm-up
    // effects do not read as (negative) tracing overhead.
    let (plain_after, _, _) = replay(ctx, &reqs, "plain1")?;
    let plain_s = (plain_before + plain_after) / 2.0;
    layer_metrics(&trace, out);
    let stats = state.cache.stats();
    out.set("runner.plan_cache.hit_ratio", stats.hit_rate());
    out.set("core.serialize.bytes", state.serialize_bytes as f64);
    out.set("serve.http.write.bytes", state.write_bytes as f64);
    out.set("serve.journal.bytes", journal_bytes as f64);
    out.set("trace.overhead_frac", (traced_s - plain_s) / plain_s);
    out.note(format!(
        "replayed {} requests: untraced {plain_s:.3}s, traced {traced_s:.3}s",
        reqs.len()
    ));
    dump(ctx, &trace)
}
