//! Benchmark, CI drill, chaos, and saturation client for `dpbench serve`.
//!
//! Six modes, all over the serve module's std-only HTTP client:
//!
//! - `bench [--out BENCH_PR6.json]` — start an in-process server on a
//!   free port and measure release latency cold (first request per
//!   strategy: the plan builds) vs warm (shared plan cache hot), plus
//!   sustained requests/s; writes the numbers as JSON for CI artifacts
//!   and PERFORMANCE.md.
//! - `drill --addr HOST:PORT --tenant T --eps E` — POST releases against
//!   a *running* server until it answers 429, asserting at least one
//!   success first. Exercises the real binary over a real socket.
//! - `verify --addr HOST:PORT --tenant T --eps E` — assert the very
//!   first request is refused with 429 (a restarted server must refuse
//!   from its recovered journal balance, without re-spending anything).
//! - `chaos [--out BENCH_PR7.json]` — the hostile-world benchmark: an
//!   in-process server under a chaos mix (2 slowloris + 1 garbage + 1
//!   burst client) while a well-behaved tenant measures p95 release
//!   latency, asserted within 5× the quiet baseline; then shed latency
//!   at the connection cap, reaper overhead with 50 parked idle
//!   connections, and a zero-drift accounting check (journal replay ==
//!   live balances, bit-exact).
//! - `chaos-drill --addr HOST:PORT --tenant T --eps E` — against the
//!   real binary: hold two slowloris connections and a garbage probe,
//!   then assert a healthy release still answers 200 within its
//!   deadline.
//! - `saturate [--addr A] [--pipeline N] [--open-loop RPS] [--tiny]
//!   [--assert-min-rps R] [--out BENCH_PR8.json]` — sweep keep-alive
//!   concurrency (1→128 connections, closed loop, optional pipelining),
//!   record req/s and p50/p95/p99 per step, and report the saturation
//!   knee: the smallest concurrency delivering ≥95% of peak throughput.
//!   `--open-loop RPS` adds a fixed-arrival-rate pass at the knee, where
//!   queueing delay surfaces as latency instead of hiding in a slower
//!   send loop.
//! - `route [--out BENCH_PR9.json]` — profile a 2-mechanism grid at the
//!   served setting, start an in-process server with `--profile`, and
//!   measure (a) warm p50 of `auto` vs the same mechanism requested
//!   explicitly (asserted within 10%: per-request selection must be
//!   effectively free) and (b) mean SLO error of `auto` vs fixed DAWA.

use dpbench_core::{json, Domain, Loss};
use dpbench_datasets::catalog;
use dpbench_harness::config::WorkloadSpec;
use dpbench_harness::serve::{self, http, Limits, ServeConfig, TenantAccountant};
use dpbench_harness::{
    AggregatingSink, ExperimentConfig, Runner, SelectionProfile, SelectorQuery, ShapeClass,
};
use std::collections::VecDeque;
use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    let idx = ((sorted_ms.len() - 1) as f64 * p).round() as usize;
    sorted_ms[idx]
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn release(addr: &str, tenant: &str, mech: &str, eps: f64) -> (u16, String) {
    let body = format!(
        "{{\"tenant\":\"{tenant}\",\"dataset\":\"MEDCOST\",\"mechanism\":\"{mech}\",\"eps\":{eps}}}"
    );
    http::request(addr, "POST", "/v1/release", Some(&body)).expect("server reachable")
}

fn bench(args: &[String]) {
    let out = flag(args, "--out");
    // Big enough grant that the measurement never hits admission control.
    let handle = serve::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        tenants: vec![("bench".into(), 1e9)],
        threads: 4,
        seed: 1,
        ..ServeConfig::default()
    })
    .expect("start server");
    let addr = handle.addr().to_string();

    // Cold: every request plans a *distinct* strategy (DAWA at distinct
    // ε values share one plan — vary the workload instead), so each
    // sample pays the plan build. Simplest distinct-plan source in the
    // registry: random workloads of distinct sizes.
    let mut cold_ms = Vec::new();
    for i in 0..20 {
        let body = format!(
            "{{\"tenant\":\"bench\",\"dataset\":\"MEDCOST\",\"mechanism\":\"GREEDY_H\",\"eps\":0.1,\"workload\":\"random:{}\"}}",
            100 + i
        );
        let t0 = Instant::now();
        let (status, resp) = http::request(&addr, "POST", "/v1/release", Some(&body)).unwrap();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(status, 200, "{resp}");
        assert!(resp.contains("\"plan_cache_hit\":false"), "cold must build");
        cold_ms.push(ms);
    }

    // Warm: the identical strategy repeated — same mechanism and
    // workload shape as the cold loop (its `random:100` plan is already
    // built), so the cold−warm gap isolates exactly the plan build.
    let warm_body = "{\"tenant\":\"bench\",\"dataset\":\"MEDCOST\",\"mechanism\":\"GREEDY_H\",\"eps\":0.1,\"workload\":\"random:100\"}";
    let mut warm_ms = Vec::new();
    let sustained = Instant::now();
    let n_warm = 200;
    for _ in 0..n_warm {
        let t0 = Instant::now();
        let (status, resp) = http::request(&addr, "POST", "/v1/release", Some(warm_body)).unwrap();
        warm_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(status, 200);
        assert!(resp.contains("\"plan_cache_hit\":true"), "warm must hit");
    }
    let rps = n_warm as f64 / sustained.elapsed().as_secs_f64();

    cold_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    warm_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let json = format!(
        "{{\"bench\":\"serve_pr6\",\"requests\":{},\"requests_per_s\":{:.1},\
         \"cold_p50_ms\":{:.3},\"cold_p95_ms\":{:.3},\
         \"warm_p50_ms\":{:.3},\"warm_p95_ms\":{:.3}}}",
        n_warm + cold_ms.len() + 1,
        rps,
        percentile(&cold_ms, 0.50),
        percentile(&cold_ms, 0.95),
        percentile(&warm_ms, 0.50),
        percentile(&warm_ms, 0.95),
    );
    println!("{json}");
    if let Some(path) = out {
        std::fs::write(PathBuf::from(&path), format!("{json}\n")).expect("write bench json");
        eprintln!("wrote {path}");
    }
    handle.shutdown().unwrap();
}

/// The number at `path` (object keys, outermost first) of a JSON
/// response, read through the shared JSON reader.
fn json_num(resp: &str, path: &[&str]) -> f64 {
    let (key, outer) = path.split_last().expect("non-empty path");
    let mut text = resp;
    for k in outer {
        match json::Object::parse(text).map(|o| o.get(k).cloned()) {
            Ok(Some(json::Value::Obj(inner))) => text = inner,
            other => panic!("{k} is not an object ({other:?}) in {resp}"),
        }
    }
    json::Object::parse(text)
        .ok()
        .and_then(|o| o.num(key))
        .unwrap_or_else(|| panic!("{key} not numeric in {resp}"))
}

fn route(args: &[String]) {
    let out = flag(args, "--out");

    // 1. Profile a two-mechanism grid at exactly the setting the server
    //    will serve (MEDCOST, 256-cell 1-D domain, scale 1000, ε = 0.1,
    //    Prefix workload) — the profiled cell is the one `auto` hits.
    let domain = Domain::D1(256);
    let scale = 1_000_u64;
    let eps = 0.1_f64;
    let grid = ExperimentConfig {
        datasets: vec![catalog::by_name("MEDCOST").expect("MEDCOST in catalog")],
        scales: vec![scale],
        domains: vec![domain],
        epsilons: vec![eps],
        algorithms: vec!["DAWA".into(), "IDENTITY".into()],
        n_samples: 2,
        n_trials: 5,
        workload: WorkloadSpec::Prefix,
        loss: Loss::L2,
    };
    let runner = Runner::new(grid);
    let mut sink = AggregatingSink::new();
    runner
        .run_with_sink(&runner.manifest(), &mut sink)
        .expect("profile grid");
    let profile = SelectionProfile::build(std::slice::from_ref(&sink));
    let rec = profile
        .lookup(&SelectorQuery {
            domain,
            shape: Some(ShapeClass::of_dataset("MEDCOST")),
            scale,
            epsilon: eps,
        })
        .expect("grid covered the served setting");
    let winner = rec.cell.winner().mechanism.clone();
    let profile_path =
        std::env::temp_dir().join(format!("dpbench-route-{}.profile", std::process::id()));
    profile.write_file(&profile_path).expect("write profile");

    // 2. Serve with the profile; SLO block on for the error comparison.
    let handle = serve::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        datasets: vec!["MEDCOST".into()],
        scale,
        domain,
        tenants: vec![("bench".into(), 1e9)],
        threads: 4,
        seed: 1,
        slo: true,
        profile: Some(profile_path.clone()),
        ..ServeConfig::default()
    })
    .expect("start server");
    let addr = handle.addr().to_string();

    // 3. Selection overhead on the PR 6 warm workload: `auto` resolves to
    //    the profiled winner, so requesting that winner explicitly runs
    //    the identical plan — the only delta is the per-request profile
    //    lookup. Interleaved samples cancel thermal/scheduler drift.
    let body_for = |mech: &str| {
        format!(
            "{{\"tenant\":\"bench\",\"dataset\":\"MEDCOST\",\"mechanism\":\"{mech}\",\"eps\":{eps},\"workload\":\"random:100\"}}"
        )
    };
    let auto_body = body_for("auto");
    let explicit_body = body_for(&winner);
    for body in [&auto_body, &explicit_body] {
        let (status, resp) = http::request(&addr, "POST", "/v1/release", Some(body)).unwrap();
        assert_eq!(status, 200, "{resp}");
    }
    let n = 200;
    let mut auto_ms = Vec::with_capacity(n);
    let mut explicit_ms = Vec::with_capacity(n);
    for _ in 0..n {
        for (body, samples) in [
            (&auto_body, &mut auto_ms),
            (&explicit_body, &mut explicit_ms),
        ] {
            let t0 = Instant::now();
            let (status, resp) = http::request(&addr, "POST", "/v1/release", Some(body)).unwrap();
            samples.push(t0.elapsed().as_secs_f64() * 1e3);
            assert_eq!(status, 200, "{resp}");
            assert!(resp.contains("\"plan_cache_hit\":true"), "warm must hit");
        }
    }
    auto_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    explicit_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let auto_p50 = percentile(&auto_ms, 0.50);
    let explicit_p50 = percentile(&explicit_ms, 0.50);
    // The acceptance bound: profile-routed auto within 10% of explicit
    // (plus 20µs absolute slack so a sub-ms p50 can't fail on clock
    // granularity alone).
    assert!(
        auto_p50 <= explicit_p50 * 1.10 + 0.02,
        "auto routing overhead too high: auto p50 {auto_p50:.3}ms vs explicit {explicit_p50:.3}ms"
    );

    // 4. Error comparison on the profiled grid's workload (Prefix, the
    //    serve default): mean scaled L2 of `auto` vs always-DAWA.
    let mean_slo = |mech: &str| {
        let body = format!(
            "{{\"tenant\":\"bench\",\"dataset\":\"MEDCOST\",\"mechanism\":\"{mech}\",\"eps\":{eps}}}"
        );
        let mut total = 0.0;
        let trials = 30;
        for _ in 0..trials {
            let (status, resp) = http::request(&addr, "POST", "/v1/release", Some(&body)).unwrap();
            assert_eq!(status, 200, "{resp}");
            total += json_num(&resp, &["slo", "scaled_l2"]);
        }
        total / trials as f64
    };
    let auto_err = mean_slo("auto");
    let dawa_err = mean_slo("DAWA");

    // 5. The status counters must show the profile actually routed.
    let (status, status_body) = http::request(&addr, "GET", "/v1/status", None).unwrap();
    assert_eq!(status, 200);
    assert!(
        status_body.contains("\"profile_loaded\":true"),
        "{status_body}"
    );
    let auto_requests = json_num(&status_body, &["selector", "auto_requests"]) as u64;
    let exact = json_num(&status_body, &["selector", "exact"]) as u64;
    assert!(
        exact > 0,
        "auto never routed through the profile: {status_body}"
    );

    let json = format!(
        "{{\"bench\":\"serve_pr9\",\"profile_cells\":{},\"winner\":\"{winner}\",\
         \"auto_warm_p50_ms\":{auto_p50:.3},\"auto_warm_p95_ms\":{:.3},\
         \"explicit_warm_p50_ms\":{explicit_p50:.3},\"explicit_warm_p95_ms\":{:.3},\
         \"overhead_pct\":{:.1},\
         \"auto_mean_scaled_l2\":{auto_err:.6},\"fixed_dawa_mean_scaled_l2\":{dawa_err:.6},\
         \"auto_requests\":{auto_requests},\"exact\":{exact}}}",
        profile.cells.len(),
        percentile(&auto_ms, 0.95),
        percentile(&explicit_ms, 0.95),
        (auto_p50 / explicit_p50 - 1.0) * 100.0,
    );
    println!("{json}");
    if let Some(path) = out {
        std::fs::write(PathBuf::from(&path), format!("{json}\n")).expect("write bench json");
        eprintln!("wrote {path}");
    }
    handle.shutdown().unwrap();
    let _ = std::fs::remove_file(&profile_path);
}

fn drill(args: &[String]) {
    let addr = flag(args, "--addr").expect("--addr HOST:PORT");
    let tenant = flag(args, "--tenant").expect("--tenant NAME");
    let eps: f64 = flag(args, "--eps").expect("--eps E").parse().unwrap();
    let mut granted = 0;
    loop {
        let (status, resp) = release(&addr, &tenant, "IDENTITY", eps);
        match status {
            200 => granted += 1,
            429 => {
                assert!(resp.contains("budget_exhausted"), "{resp}");
                break;
            }
            s => panic!("unexpected status {s}: {resp}"),
        }
        assert!(granted < 100_000, "server never exhausted the budget");
    }
    assert!(granted >= 1, "drill needs at least one admitted release");
    println!("drill: {granted} release(s) granted, then budget_exhausted");
}

fn verify(args: &[String]) {
    let addr = flag(args, "--addr").expect("--addr HOST:PORT");
    let tenant = flag(args, "--tenant").expect("--tenant NAME");
    let eps: f64 = flag(args, "--eps").expect("--eps E").parse().unwrap();
    let (status, resp) = release(&addr, &tenant, "IDENTITY", eps);
    assert_eq!(
        status, 429,
        "restarted server must refuse from recovered balance: {resp}"
    );
    let (status, budget) =
        http::request(&addr, "GET", &format!("/v1/tenants/{tenant}/budget"), None).unwrap();
    assert_eq!(status, 200, "{budget}");
    println!("verify: refused as expected; recovered balance {budget}");
}

// ---------------------------------------------------------------------------
// Chaos clients
// ---------------------------------------------------------------------------

/// Slowloris: hold a connection open by dribbling header bytes far
/// slower than any legitimate client; reconnect whenever the server
/// (correctly) cuts us off. Runs until `stop`.
fn slowloris(addr: String, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::Relaxed) {
        let Ok(mut s) = TcpStream::connect(&addr) else {
            std::thread::sleep(Duration::from_millis(50));
            continue;
        };
        let _ = s.write_all(b"POST /v1/release HTTP/1.1\r\nHost: x\r\nX-Drip: ");
        while !stop.load(Ordering::Relaxed) {
            if s.write_all(b"z").is_err() {
                break; // 408'd or reaped: reconnect and resume the siege
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

/// Garbage client: deterministic pseudo-random bytes at the parser,
/// reconnecting after every (correct) rejection.
fn garbage(addr: String, stop: Arc<AtomicBool>) {
    let mut lcg: u64 = 0x5eed_cafe;
    while !stop.load(Ordering::Relaxed) {
        let Ok(mut s) = TcpStream::connect(&addr) else {
            std::thread::sleep(Duration::from_millis(50));
            continue;
        };
        let mut junk = [0_u8; 256];
        for b in junk.iter_mut() {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *b = (lcg >> 33) as u8;
        }
        let _ = s.write_all(&junk);
        // Give the server a beat to reject, then move on.
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Burst client: valid releases as fast as the socket allows. 200s and
/// clean sheds (503) are both acceptable; anything else is a bug.
fn burst(addr: String, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::Relaxed) {
        let (status, resp) = release(&addr, "burst", "IDENTITY", 1e-6);
        assert!(
            matches!(status, 200 | 503),
            "burst client saw status {status}: {resp}"
        );
    }
}

/// Park `n` idle keep-alive connections (connect, send nothing) and
/// return them so they stay open for the caller's scope.
fn park_idle(addr: &str, n: usize) -> Vec<TcpStream> {
    (0..n)
        .map(|_| TcpStream::connect(addr).expect("park idle conn"))
        .collect()
}

fn chaos(args: &[String]) {
    let out = flag(args, "--out");
    let journal = std::env::temp_dir().join(format!("dpbench-chaos-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    let budgets = vec![("good".to_string(), 1e9), ("burst".to_string(), 1e9)];
    let limits = Limits {
        max_conns: 64,
        header_timeout: Duration::from_millis(500),
        ..Limits::default()
    };
    let handle = serve::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        tenants: budgets.clone(),
        journal: Some(journal.clone()),
        threads: 4,
        limits: limits.clone(),
        seed: 7,
        ..ServeConfig::default()
    })
    .expect("start server");
    let addr = handle.addr().to_string();

    let measure = |n: usize| -> Vec<f64> {
        let mut ms = Vec::with_capacity(n);
        for _ in 0..n {
            let t0 = Instant::now();
            let (status, resp) = release(&addr, "good", "IDENTITY", 1e-6);
            ms.push(t0.elapsed().as_secs_f64() * 1e3);
            assert_eq!(status, 200, "well-behaved tenant must be served: {resp}");
        }
        ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
        ms
    };

    // Quiet baseline.
    let quiet = measure(100);
    let (quiet_p50, quiet_p95) = (percentile(&quiet, 0.50), percentile(&quiet, 0.95));

    // Chaos mix: 2 slowloris + 1 garbage + 1 burst, all hammering while
    // the well-behaved tenant measures.
    let stop = Arc::new(AtomicBool::new(false));
    let mut chaos_threads = Vec::new();
    for _ in 0..2 {
        let (a, s) = (addr.clone(), Arc::clone(&stop));
        chaos_threads.push(std::thread::spawn(move || slowloris(a, s)));
    }
    {
        let (a, s) = (addr.clone(), Arc::clone(&stop));
        chaos_threads.push(std::thread::spawn(move || garbage(a, s)));
    }
    {
        let (a, s) = (addr.clone(), Arc::clone(&stop));
        chaos_threads.push(std::thread::spawn(move || burst(a, s)));
    }
    std::thread::sleep(Duration::from_millis(200)); // let the siege settle in
    let chaotic = measure(100);
    stop.store(true, Ordering::Relaxed);
    for t in chaos_threads {
        t.join().expect("chaos client panicked");
    }
    let (chaos_p50, chaos_p95) = (percentile(&chaotic, 0.50), percentile(&chaotic, 0.95));
    // The acceptance bar: hostile neighbors cost the good tenant at most
    // 5× (floor the baseline at 1 ms so a sub-millisecond quiet p95
    // doesn't make the ratio meaninglessly twitchy).
    let ratio = chaos_p95 / quiet_p95.max(1.0);
    assert!(
        ratio <= 5.0,
        "chaos p95 {chaos_p95:.3} ms vs quiet p95 {quiet_p95:.3} ms: ratio {ratio:.2} > 5"
    );

    // Reaper overhead: 50 parked idle connections rotating through the
    // scheduler while the good tenant measures again.
    let parked = park_idle(&addr, 50);
    std::thread::sleep(Duration::from_millis(100));
    let with_parked = measure(50);
    let parked_p95 = percentile(&with_parked, 0.95);

    // Shed latency: fill the remaining connection slots, then time how
    // fast an over-cap connect is turned away with a 503.
    let _cap_fill = park_idle(&addr, limits.max_conns.saturating_sub(parked.len()));
    std::thread::sleep(Duration::from_millis(100));
    let t0 = Instant::now();
    let mut shed_ms = 0.0;
    let mut shed_seen = false;
    for _ in 0..50 {
        let probe_t0 = Instant::now();
        match http::request(&addr, "GET", "/v1/healthz", None) {
            Ok((503, _)) | Err(_) => {
                // A refused-then-closed connect can also surface as a
                // read error; both are a fast clean shed.
                shed_ms = probe_t0.elapsed().as_secs_f64() * 1e3;
                shed_seen = true;
                break;
            }
            Ok(_) => std::thread::sleep(Duration::from_millis(20)),
        }
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "connection cap never engaged"
        );
    }
    assert!(shed_seen, "expected an over-cap connect to be shed");
    drop(_cap_fill);
    drop(parked);

    // The workers need a rotation or two to notice the dropped conns
    // and free slots; poll until the server serves again.
    let mut status_body = None;
    let recover_t0 = Instant::now();
    while status_body.is_none() {
        if let Ok((200, body)) = http::request(&addr, "GET", "/v1/status", None) {
            status_body = Some(body);
        } else {
            assert!(
                recover_t0.elapsed() < Duration::from_secs(10),
                "server did not recover after parked conns were dropped"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    let status_body = status_body.unwrap();

    // Zero accounting drift: replaying the journal into a fresh
    // accountant must reproduce the live balances bit-exactly.
    let live = handle.state().accountant.snapshot_all();
    handle.shutdown().expect("graceful shutdown");
    let replayed = TenantAccountant::new(&budgets, Some(&journal)).expect("journal replays");
    for (name, live_snap) in &live {
        let re = replayed.snapshot(name).expect("tenant survives replay");
        assert_eq!(
            re.spent.to_bits(),
            live_snap.spent.to_bits(),
            "tenant {name}: journal drifted from live balance"
        );
    }
    let _ = std::fs::remove_file(&journal);

    let json = format!(
        "{{\"bench\":\"serve_pr7_chaos\",\"quiet_p50_ms\":{quiet_p50:.3},\"quiet_p95_ms\":{quiet_p95:.3},\
         \"chaos_p50_ms\":{chaos_p50:.3},\"chaos_p95_ms\":{chaos_p95:.3},\"chaos_over_quiet_p95\":{ratio:.2},\
         \"parked50_p95_ms\":{parked_p95:.3},\"shed_latency_ms\":{shed_ms:.3},\"drift\":0}}"
    );
    println!("{json}");
    eprintln!("status at teardown: {status_body}");
    if let Some(path) = out {
        std::fs::write(PathBuf::from(&path), format!("{json}\n")).expect("write bench json");
        eprintln!("wrote {path}");
    }
}

fn chaos_drill(args: &[String]) {
    let addr = flag(args, "--addr").expect("--addr HOST:PORT");
    let tenant = flag(args, "--tenant").expect("--tenant NAME");
    let eps: f64 = flag(args, "--eps").expect("--eps E").parse().unwrap();
    // Hold two slowloris connections against the real binary.
    let stop = Arc::new(AtomicBool::new(false));
    let mut threads = Vec::new();
    for _ in 0..2 {
        let (a, s) = (addr.clone(), Arc::clone(&stop));
        threads.push(std::thread::spawn(move || slowloris(a, s)));
    }
    std::thread::sleep(Duration::from_millis(300));
    // A garbage probe must come back as a 4xx or a clean close — and the
    // healthy tenant must still be served promptly.
    let mut g = TcpStream::connect(&addr).expect("garbage probe connect");
    g.write_all(b"\x00\xffnot http at all\r\n\r\n")
        .expect("garbage write");
    let t0 = Instant::now();
    let (status, resp) = release(&addr, &tenant, "IDENTITY", eps);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        status, 200,
        "healthy tenant starved under slowloris: {resp}"
    );
    assert!(
        ms < 5_000.0,
        "healthy release took {ms:.0} ms under slowloris"
    );
    let (status, _) = http::request(&addr, "GET", "/v1/healthz", None).unwrap();
    assert_eq!(status, 200, "healthz must answer during the siege");
    stop.store(true, Ordering::Relaxed);
    for t in threads {
        t.join().unwrap();
    }
    println!("chaos-drill: healthy release in {ms:.1} ms with 2 slowloris connections held");
}

// ---------------------------------------------------------------------------
// Saturation sweep
// ---------------------------------------------------------------------------

/// One measured point on the saturation curve.
struct StepResult {
    conns: usize,
    rps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    errors: u64,
}

/// Closed-loop worker: one keep-alive connection keeping `pipeline`
/// requests in flight until the deadline, recording per-response latency
/// (responses come back in order, so send times queue in a VecDeque).
fn closed_loop_worker(
    addr: &str,
    body: &str,
    pipeline: usize,
    start: &Barrier,
    deadline_from_start: Duration,
) -> (Vec<f64>, u64) {
    let mut conn = http::ClientConn::connect(addr).expect("saturate connect");
    let mut lat_ms = Vec::new();
    let mut errors = 0_u64;
    let mut inflight: VecDeque<Instant> = VecDeque::with_capacity(pipeline);
    start.wait();
    let deadline = Instant::now() + deadline_from_start;
    for _ in 0..pipeline.max(1) {
        conn.send("POST", "/v1/release", Some(body))
            .expect("saturate send");
        inflight.push_back(Instant::now());
    }
    while let Some(sent) = inflight.pop_front() {
        let (status, _resp) = conn.recv().expect("saturate recv");
        lat_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        if status != 200 {
            errors += 1;
        }
        if Instant::now() < deadline {
            conn.send("POST", "/v1/release", Some(body))
                .expect("saturate send");
            inflight.push_back(Instant::now());
        }
    }
    (lat_ms, errors)
}

/// Run one closed-loop step at `conns` connections; wall-clock starts at
/// a barrier after every connection is established, so connect cost never
/// dilutes the throughput number.
fn run_step(addr: &str, body: &str, conns: usize, pipeline: usize, dur: Duration) -> StepResult {
    let start = Arc::new(Barrier::new(conns + 1));
    let mut joins = Vec::with_capacity(conns);
    for _ in 0..conns {
        let (addr, body, start) = (addr.to_string(), body.to_string(), Arc::clone(&start));
        joins.push(std::thread::spawn(move || {
            closed_loop_worker(&addr, &body, pipeline, &start, dur)
        }));
    }
    start.wait();
    let t0 = Instant::now();
    let mut lat_ms = Vec::new();
    let mut errors = 0;
    for j in joins {
        let (l, e) = j.join().expect("saturate worker panicked");
        lat_ms.extend(l);
        errors += e;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    lat_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    assert!(
        !lat_ms.is_empty(),
        "step at {conns} conns completed nothing"
    );
    StepResult {
        conns,
        rps: lat_ms.len() as f64 / elapsed,
        p50_ms: percentile(&lat_ms, 0.50),
        p95_ms: percentile(&lat_ms, 0.95),
        p99_ms: percentile(&lat_ms, 0.99),
        errors,
    }
}

/// Open-loop worker: requests depart on a fixed schedule whether or not
/// earlier responses came back (arrival rate is the independent variable,
/// so queueing delay shows up as latency instead of vanishing into a
/// slower send loop).
fn open_loop_worker(
    addr: &str,
    body: &str,
    interval: Duration,
    start: &Barrier,
    deadline_from_start: Duration,
) -> (Vec<f64>, u64) {
    let mut conn = http::ClientConn::connect(addr).expect("open-loop connect");
    conn.set_read_timeout(Duration::from_millis(2))
        .expect("set timeout");
    let mut lat_ms = Vec::new();
    let mut errors = 0_u64;
    let mut inflight: VecDeque<Instant> = VecDeque::new();
    start.wait();
    let t0 = Instant::now();
    let deadline = t0 + deadline_from_start;
    let mut next_send = t0;
    loop {
        let now = Instant::now();
        if now >= deadline && inflight.is_empty() {
            break;
        }
        if now < deadline && now >= next_send {
            conn.send("POST", "/v1/release", Some(body))
                .expect("open-loop send");
            inflight.push_back(Instant::now());
            next_send += interval;
            continue;
        }
        match conn.try_recv().expect("open-loop recv") {
            Some((status, _)) => {
                let sent = inflight.pop_front().expect("response without a send");
                lat_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                if status != 200 {
                    errors += 1;
                }
            }
            None => {
                if now >= deadline {
                    // Drain the tail with a blocking recv (bounded by the
                    // connection's read deadline).
                    conn.set_read_timeout(Duration::from_secs(10)).unwrap();
                    while let Some(sent) = inflight.pop_front() {
                        let (status, _) = conn.recv().expect("open-loop drain");
                        lat_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                        if status != 200 {
                            errors += 1;
                        }
                    }
                    break;
                }
            }
        }
    }
    (lat_ms, errors)
}

/// Sweep concurrency over a running (or in-process) server, find the
/// saturation knee, and write the curve as JSON.
fn saturate(args: &[String]) {
    let out = flag(args, "--out");
    let tiny = args.iter().any(|a| a == "--tiny");
    let pipeline: usize = flag(args, "--pipeline")
        .map(|s| s.parse().expect("--pipeline N"))
        .unwrap_or(1);
    let assert_min_rps: Option<f64> =
        flag(args, "--assert-min-rps").map(|s| s.parse().expect("--assert-min-rps R"));
    let open_loop_rps: Option<f64> =
        flag(args, "--open-loop").map(|s| s.parse().expect("--open-loop RPS"));
    let tenant = flag(args, "--tenant").unwrap_or_else(|| "bench".into());
    let eps: f64 = flag(args, "--eps")
        .map(|s| s.parse().expect("--eps E"))
        .unwrap_or(1e-6);

    // External server via --addr, or an in-process one sized so the
    // mechanism is cheap and the event loop is what saturates: IDENTITY
    // over a small 1-D domain (the PR 6 bench measured GREEDY_H@1024 —
    // a mechanism benchmark; this is a scheduler benchmark).
    let mut handle = None;
    let addr = match flag(args, "--addr") {
        Some(a) => a,
        None => {
            let h = serve::start(ServeConfig {
                addr: "127.0.0.1:0".into(),
                tenants: vec![("bench".into(), 1e9)],
                domain: Domain::D1(256),
                scale: 10_000,
                threads: 4,
                seed: 1,
                ..ServeConfig::default()
            })
            .expect("start server");
            let a = h.addr().to_string();
            handle = Some(h);
            a
        }
    };
    let body = format!(
        "{{\"tenant\":\"{tenant}\",\"dataset\":\"MEDCOST\",\"mechanism\":\"IDENTITY\",\"eps\":{eps}}}"
    );

    let steps: &[usize] = if tiny {
        &[1, 2, 4, 8, 16]
    } else {
        &[1, 2, 4, 8, 16, 32, 64, 128]
    };
    let dur = if tiny {
        Duration::from_millis(400)
    } else {
        Duration::from_secs(2)
    };

    let mut results = Vec::with_capacity(steps.len());
    for &conns in steps {
        let r = run_step(&addr, &body, conns, pipeline, dur);
        eprintln!(
            "saturate: conns={:<4} rps={:<9.1} p50={:.3}ms p95={:.3}ms p99={:.3}ms errors={}",
            r.conns, r.rps, r.p50_ms, r.p95_ms, r.p99_ms, r.errors
        );
        results.push(r);
    }

    // The knee: the smallest concurrency already delivering ≥95% of the
    // peak — past it, added connections buy latency, not throughput.
    let peak_rps = results.iter().map(|r| r.rps).fold(0.0, f64::max);
    let knee = results
        .iter()
        .find(|r| r.rps >= 0.95 * peak_rps)
        .expect("at least one step ran");
    let knee_summary = (knee.conns, knee.rps, knee.p99_ms);

    // Optional open-loop pass at a fixed arrival rate, spread across the
    // knee's connection count.
    let open_loop = open_loop_rps.map(|target| {
        let conns = knee_summary.0;
        let interval = Duration::from_secs_f64(conns as f64 / target);
        let start = Arc::new(Barrier::new(conns + 1));
        let mut joins = Vec::with_capacity(conns);
        for _ in 0..conns {
            let (addr, body, start) = (addr.clone(), body.clone(), Arc::clone(&start));
            joins.push(std::thread::spawn(move || {
                open_loop_worker(&addr, &body, interval, &start, dur)
            }));
        }
        start.wait();
        let t0 = Instant::now();
        let mut lat_ms = Vec::new();
        let mut errors = 0;
        for j in joins {
            let (l, e) = j.join().expect("open-loop worker panicked");
            lat_ms.extend(l);
            errors += e;
        }
        let elapsed = t0.elapsed().as_secs_f64();
        lat_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(!lat_ms.is_empty(), "open-loop pass completed nothing");
        eprintln!(
            "saturate: open-loop target={target:.0} rps achieved={:.1} p99={:.3}ms errors={errors}",
            lat_ms.len() as f64 / elapsed,
            percentile(&lat_ms, 0.99)
        );
        (
            target,
            lat_ms.len() as f64 / elapsed,
            percentile(&lat_ms, 0.99),
        )
    });

    let steps_json = results
        .iter()
        .map(|r| {
            format!(
                "{{\"conns\":{},\"rps\":{:.1},\"p50_ms\":{:.3},\"p95_ms\":{:.3},\"p99_ms\":{:.3},\"errors\":{}}}",
                r.conns, r.rps, r.p50_ms, r.p95_ms, r.p99_ms, r.errors
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let mut json = format!(
        "{{\"bench\":\"serve_pr8_saturate\",\"mechanism\":\"IDENTITY\",\"pipeline\":{pipeline},\
         \"step_s\":{:.1},\"steps\":[{steps_json}],\
         \"knee_conns\":{},\"knee_rps\":{:.1},\"knee_p99_ms\":{:.3},\"peak_rps\":{peak_rps:.1}",
        dur.as_secs_f64(),
        knee_summary.0,
        knee_summary.1,
        knee_summary.2,
    );
    if let Some((target, achieved, p99)) = open_loop {
        json.push_str(&format!(
            ",\"open_loop\":{{\"target_rps\":{target:.1},\"achieved_rps\":{achieved:.1},\"p99_ms\":{p99:.3}}}"
        ));
    }
    json.push('}');
    println!("{json}");
    if let Some(path) = out {
        std::fs::write(PathBuf::from(&path), format!("{json}\n")).expect("write bench json");
        eprintln!("wrote {path}");
    }
    if let Some(h) = handle {
        h.shutdown().expect("graceful shutdown");
    }
    if let Some(min) = assert_min_rps {
        assert!(
            peak_rps >= min,
            "saturation peak {peak_rps:.1} req/s is below the floor {min:.1}"
        );
        eprintln!("saturate: peak {peak_rps:.1} req/s clears the {min:.1} floor");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("bench") => bench(&args[1..]),
        Some("drill") => drill(&args[1..]),
        Some("verify") => verify(&args[1..]),
        Some("chaos") => chaos(&args[1..]),
        Some("chaos-drill") => chaos_drill(&args[1..]),
        Some("saturate") => saturate(&args[1..]),
        Some("route") => route(&args[1..]),
        _ => {
            eprintln!(
                "usage: serve_bench <bench [--out FILE] | drill --addr A --tenant T --eps E | \
                 verify --addr A --tenant T --eps E | chaos [--out FILE] | \
                 chaos-drill --addr A --tenant T --eps E | \
                 saturate [--addr A] [--tenant T] [--eps E] [--pipeline N] \
                 [--open-loop RPS] [--assert-min-rps R] [--tiny] [--out FILE] | \
                 route [--out FILE]>"
            );
            std::process::exit(2);
        }
    }
}
