//! Serve drills. Against the real `dpbench serve` binary: budget
//! exhaustion, SIGINT/SIGTERM drains, a restart on the same journal, a
//! slowloris siege and a SIGHUP tenant reload. In-process: the two
//! timing-bound checks, the chaos mix's tail latency against a quiet
//! baseline and the cost of routing `"mechanism":"auto"` through a
//! selection profile.
//!
//! Every test holds [`SERIAL`], so the timing-bound checks never share
//! the machine with another test in this file.

use dpbench::core::json;
use dpbench::datasets::catalog;
use dpbench::harness::serve::{self, http, Limits, ServeConfig, TenantAccountant};
use dpbench::harness::sink::AggregatingSink;
use dpbench::harness::{SelectionProfile, SelectorQuery, ShapeClass};
use dpbench::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

const DPBENCH: &str = env!("CARGO_BIN_EXE_dpbench");

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed test poisons the lock; the next one must still run alone.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dpbench-serve-drills-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A `dpbench serve` child process on an ephemeral port.
struct Server {
    child: Child,
    addr: String,
    /// Held open so the server never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Spawn `dpbench serve --port 0 ARGS` and read the bound address from
    /// its `serving on http://ADDR` line.
    fn spawn(args: &[&str]) -> Server {
        let mut child = Command::new(DPBENCH)
            .args(["serve", "--port", "0"])
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn dpbench serve");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read the serving line");
        let Some(addr) = line
            .strip_prefix("serving on http://")
            .and_then(|rest| rest.split_whitespace().next())
        else {
            let status = child.wait();
            panic!("dpbench serve {args:?} did not start ({status:?}): {line:?}");
        };
        Server {
            addr: addr.to_string(),
            child,
            _stdout: stdout,
        }
    }

    /// Send `signal` (a name such as `HUP`) to the server.
    fn signal(&self, signal: &str) {
        let sent = Command::new("kill")
            .args(["-s", signal, &self.child.id().to_string()])
            .status()
            .expect("run kill");
        assert!(sent.success(), "kill -s {signal} failed");
    }

    /// Send `signal` and wait for the server to exit.
    fn stop(&mut self, signal: &str) -> ExitStatus {
        self.signal(signal);
        self.child.wait().expect("wait for dpbench serve")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A failed assertion must not leave the server running.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn release(addr: &str, tenant: &str, eps: f64) -> (u16, String) {
    let body = format!(
        "{{\"tenant\":\"{tenant}\",\"dataset\":\"MEDCOST\",\"mechanism\":\"IDENTITY\",\"eps\":{eps}}}"
    );
    http::request(addr, "POST", "/v1/release", Some(&body)).expect("server reachable")
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    let idx = ((sorted_ms.len() - 1) as f64 * p).round() as usize;
    sorted_ms[idx]
}

/// Releases spend a 1.0 grant until a 429 `budget_exhausted`, and SIGINT
/// drains with exit 130. A restart on the same journal refuses its first
/// release from the recovered balance, still answers budget reads, and
/// SIGTERM drains with exit 130.
#[test]
fn budget_drill_survives_sigint_and_a_restart_on_the_journal() {
    let _serial = serial();
    let dir = tmp_dir("budget");
    let journal = dir.join("spend.jsonl").display().to_string();
    let args = [
        "--datasets",
        "MEDCOST",
        "--domain",
        "1024",
        "--tenants",
        "ci=1.0",
        "--journal",
        &journal,
        "--threads",
        "2",
    ];
    let mut server = Server::spawn(&args);
    let mut granted = 0;
    loop {
        let (status, resp) = release(&server.addr, "ci", 0.25);
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
    assert_eq!(server.stop("INT").code(), Some(130), "SIGINT drain");

    let mut server = Server::spawn(&args);
    let (status, resp) = release(&server.addr, "ci", 0.25);
    assert_eq!(
        status, 429,
        "restarted server must refuse from recovered balance: {resp}"
    );
    let (status, budget) =
        http::request(&server.addr, "GET", "/v1/tenants/ci/budget", None).unwrap();
    assert_eq!(status, 200, "{budget}");
    assert_eq!(server.stop("TERM").code(), Some(130), "SIGTERM drain");
    let _ = std::fs::remove_dir_all(&dir);
}

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
        let (status, resp) = release(&addr, "burst", 1e-6);
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

/// Against the real binary: two slowloris connections and a garbage
/// probe do not starve a healthy release or the health probe. Then a
/// rewritten `--tenant-config` and a SIGHUP grant a new tenant in place,
/// and SIGTERM drains with exit 130.
#[test]
fn slowloris_siege_then_sighup_reload_then_sigterm_drain() {
    let _serial = serial();
    let dir = tmp_dir("siege");
    let tenants = dir.join("tenants.toml");
    std::fs::write(&tenants, "ci = 1000.0\n").unwrap();
    let tenant_config = tenants.display().to_string();
    let journal = dir.join("chaos-spend.jsonl").display().to_string();
    let mut server = Server::spawn(&[
        "--datasets",
        "MEDCOST",
        "--domain",
        "1024",
        "--tenant-config",
        &tenant_config,
        "--journal",
        &journal,
        "--threads",
        "4",
        "--header-timeout-ms",
        "500",
    ]);
    let addr = server.addr.clone();

    let stop = Arc::new(AtomicBool::new(false));
    let siege: Vec<_> = (0..2)
        .map(|_| {
            let (a, s) = (addr.clone(), Arc::clone(&stop));
            std::thread::spawn(move || slowloris(a, s))
        })
        .collect();
    std::thread::sleep(Duration::from_millis(300));
    let mut probe = TcpStream::connect(&addr).expect("garbage probe connect");
    probe
        .write_all(b"\x00\xffnot http at all\r\n\r\n")
        .expect("garbage write");
    let t0 = Instant::now();
    let (status, resp) = release(&addr, "ci", 0.001);
    let elapsed = t0.elapsed();
    assert_eq!(
        status, 200,
        "healthy tenant starved under slowloris: {resp}"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "healthy release took {elapsed:?} under slowloris"
    );
    let (status, _) = http::request(&addr, "GET", "/v1/healthz", None).unwrap();
    assert_eq!(status, 200, "healthz must answer during the siege");
    stop.store(true, Ordering::Relaxed);
    for t in siege {
        t.join().expect("slowloris client panicked");
    }
    drop(probe);

    std::fs::write(&tenants, "ci = 1000.0\nlate = 5.0\n").unwrap();
    server.signal("HUP");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, resp) = release(&addr, "late", 0.1);
        if status == 200 {
            assert!(resp.contains("\"remaining\":4.9"), "{resp}");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "SIGHUP never granted tenant late: {status} {resp}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(server.stop("TERM").code(), Some(130), "SIGTERM drain");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A well-behaved tenant's p95 under a chaos mix (2 slowloris, 1 garbage
/// and 1 burst client) stays within 5× its quiet p95. Releases are still
/// served with 50 idle connections parked, an over-cap connect is shed,
/// the server serves again within 10 s of the parked connections
/// dropping, and the journal replays bit-exactly to the live balances.
#[test]
fn chaos_mix_keeps_the_tail_bounded_and_the_journal_exact() {
    let _serial = serial();
    let dir = tmp_dir("chaos");
    let journal = dir.join("spend.jsonl");
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
            let (status, resp) = release(&addr, "good", 1e-6);
            ms.push(t0.elapsed().as_secs_f64() * 1e3);
            assert_eq!(status, 200, "well-behaved tenant must be served: {resp}");
        }
        ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
        ms
    };

    let quiet_p95 = percentile(&measure(100), 0.95);

    let stop = Arc::new(AtomicBool::new(false));
    let clients: [fn(String, Arc<AtomicBool>); 4] = [slowloris, slowloris, garbage, burst];
    let chaos: Vec<_> = clients
        .into_iter()
        .map(|client| {
            let (a, s) = (addr.clone(), Arc::clone(&stop));
            std::thread::spawn(move || client(a, s))
        })
        .collect();
    std::thread::sleep(Duration::from_millis(200)); // let the siege settle in
    let chaos_p95 = percentile(&measure(100), 0.95);
    stop.store(true, Ordering::Relaxed);
    for t in chaos {
        t.join().expect("chaos client panicked");
    }
    // Floor the baseline at 1 ms so a sub-millisecond quiet p95 does not
    // make the ratio twitchy.
    let ratio = chaos_p95 / quiet_p95.max(1.0);
    println!("chaos: quiet p95 {quiet_p95:.3} ms, chaos p95 {chaos_p95:.3} ms, ratio {ratio:.2}");
    assert!(
        ratio <= 5.0,
        "chaos p95 {chaos_p95:.3} ms vs quiet p95 {quiet_p95:.3} ms: ratio {ratio:.2} > 5"
    );

    let parked = park_idle(&addr, 50);
    std::thread::sleep(Duration::from_millis(100));
    measure(50); // parked idle connections must not starve a served tenant

    // Fill the remaining connection slots: an over-cap connect is shed
    // with a 503, or closed before it can read one.
    let cap_fill = park_idle(&addr, limits.max_conns.saturating_sub(parked.len()));
    std::thread::sleep(Duration::from_millis(100));
    let t0 = Instant::now();
    let shed = (0..50).any(|_| {
        let shed = matches!(
            http::request(&addr, "GET", "/v1/healthz", None),
            Ok((503, _)) | Err(_)
        );
        if !shed {
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "connection cap never engaged"
        );
        shed
    });
    assert!(shed, "expected an over-cap connect to be shed");
    drop(cap_fill);
    drop(parked);

    // The workers notice the dropped connections on their next events.
    let t0 = Instant::now();
    while !matches!(
        http::request(&addr, "GET", "/v1/status", None),
        Ok((200, _))
    ) {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "server did not recover after parked conns were dropped"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

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
    let _ = std::fs::remove_dir_all(&dir);
}

/// With a selection profile loaded, `"mechanism":"auto"` costs at most
/// 10% (+20 µs) of naming the profiled winner explicitly, p50 over 200
/// interleaved warm pairs. Every warm release hits the plan cache, and
/// `/v1/status` shows the profile routed them.
#[test]
fn auto_routing_through_a_profile_is_nearly_free() {
    let _serial = serial();
    let dir = tmp_dir("route");

    // Profile a two-mechanism grid at exactly the setting the server
    // serves, so the profiled cell is the one `auto` hits.
    let domain = Domain::D1(256);
    let scale = 1_000_u64;
    let eps = 0.1_f64;
    let runner = Runner::new(ExperimentConfig {
        datasets: vec![catalog::by_name("MEDCOST").expect("MEDCOST in catalog")],
        scales: vec![scale],
        domains: vec![domain],
        epsilons: vec![eps],
        algorithms: vec!["DAWA".into(), "IDENTITY".into()],
        n_samples: 2,
        n_trials: 5,
        workload: WorkloadSpec::Prefix,
        loss: Loss::L2,
    });
    let mut sink = AggregatingSink::new();
    runner
        .run_with_sink(&runner.manifest(), &mut sink)
        .expect("profile grid");
    let profile = SelectionProfile::build(std::slice::from_ref(&sink));
    let winner = profile
        .lookup(&SelectorQuery {
            domain,
            shape: Some(ShapeClass::of_dataset("MEDCOST")),
            scale,
            epsilon: eps,
        })
        .expect("grid covered the served setting")
        .cell
        .winner()
        .mechanism
        .clone();
    let profile_path = dir.join("route.profile");
    profile.write_file(&profile_path).expect("write profile");

    let handle = serve::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        datasets: vec!["MEDCOST".into()],
        scale,
        domain,
        tenants: vec![("bench".into(), 1e9)],
        threads: 4,
        seed: 1,
        slo: true,
        profile: Some(profile_path),
        ..ServeConfig::default()
    })
    .expect("start server");
    let addr = handle.addr().to_string();

    // `auto` resolves to the winner, so naming the winner runs the
    // identical plan: the only difference is the per-request profile
    // lookup. Interleaving cancels drift.
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
    println!(
        "route: auto p50 {auto_p50:.3} ms, explicit ({winner}) p50 {explicit_p50:.3} ms, overhead {:+.1}%",
        (auto_p50 / explicit_p50 - 1.0) * 100.0
    );
    // 20 µs of absolute slack so a sub-ms p50 cannot fail on clock
    // granularity alone.
    assert!(
        auto_p50 <= explicit_p50 * 1.10 + 0.02,
        "auto routing overhead too high: auto p50 {auto_p50:.3}ms vs explicit {explicit_p50:.3}ms"
    );

    let (status, status_body) = http::request(&addr, "GET", "/v1/status", None).unwrap();
    assert_eq!(status, 200);
    assert!(
        status_body.contains("\"profile_loaded\":true"),
        "{status_body}"
    );
    let exact = match json::Object::parse(&status_body).map(|o| o.get("selector").cloned()) {
        Ok(Some(json::Value::Obj(selector))) => json::Object::parse(selector)
            .ok()
            .and_then(|o| o.num::<u64>("exact")),
        _ => None,
    };
    assert!(
        exact.is_some_and(|n| n > 0),
        "auto never routed through the profile: {status_body}"
    );
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
