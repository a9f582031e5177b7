//! Hostile-client tests against a live server socket: malformed and
//! adversarial byte streams, slowloris dribble, idle parking, the
//! connection cap, per-tenant rate limits, hot tenant reload, and the
//! health/readiness probes.
//!
//! Every hostile input must map to the documented error contract — a
//! clean 4xx/5xx with a machine-readable `error` code, or a silent reap
//! for idle peers — never a panic, a hang, or a pinned worker.

use dpbench::harness::serve::{self, http, Limits, RateLimit, ServeConfig};
use dpbench::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

fn server_with(limits: Limits, tenants: &[(&str, f64)]) -> serve::ServerHandle {
    server_full(limits, tenants, None)
}

fn server_full(
    limits: Limits,
    tenants: &[(&str, f64)],
    tenant_config: Option<PathBuf>,
) -> serve::ServerHandle {
    serve::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        datasets: vec!["MEDCOST".into()],
        scale: 10_000,
        domain: Domain::D1(256),
        tenants: tenants.iter().map(|(n, e)| (n.to_string(), *e)).collect(),
        threads: 2,
        seed: 7,
        limits,
        tenant_config,
        ..ServeConfig::default()
    })
    .unwrap()
}

/// Write raw bytes, then read the connection to EOF (the server closes
/// after every rejected request). Returns (status, full response text).
fn raw_exchange(addr: &str, payload: &[u8]) -> (u16, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(payload).unwrap();
    let mut resp = Vec::new();
    s.read_to_end(&mut resp).unwrap();
    let text = String::from_utf8_lossy(&resp).into_owned();
    let status = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.get(..3))
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {text:?}"));
    (status, text)
}

/// Raw adversarial byte streams: each gets its documented 4xx and a
/// closed connection — the process neither panics nor hangs.
#[test]
fn malformed_requests_get_clean_4xx_and_close() {
    let handle = server_with(Limits::default(), &[("t", 1.0)]);
    let addr = handle.addr().to_string();

    let mut cases: Vec<(Vec<u8>, u16, &str)> = vec![
        (b"GARBAGE\r\n\r\n".to_vec(), 400, "bad_request_line"),
        (
            b"GET /x HTTP/1.1 smuggled\r\n\r\n".to_vec(),
            400,
            "bad_request_line",
        ),
        (
            b"POST /v1/release HTTP/1.1\r\nContent-Length: -5\r\n\r\n".to_vec(),
            400,
            "bad_content_length",
        ),
        (
            b"POST /v1/release HTTP/1.1\r\nContent-Length: 99999999999999999999\r\n\r\n".to_vec(),
            400,
            "bad_content_length",
        ),
        (
            b"POST /v1/release HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n".to_vec(),
            413,
            "body_too_large",
        ),
        (
            b"GET /v1/status HTTP/1.1\r\nno-colon-here\r\n\r\n".to_vec(),
            400,
            "bad_header",
        ),
        (
            b"\x00\xff\xfenot http at all\r\n\r\n".to_vec(),
            400,
            "bad_request",
        ),
    ];
    // A valid release whose length has whitespace before its colon, or
    // sits on a folded line: a proxy could frame either body differently.
    let release =
        "{\"tenant\":\"t\",\"dataset\":\"MEDCOST\",\"mechanism\":\"IDENTITY\",\"eps\":0.1}";
    for length in [
        format!("Content-Length : {}", release.len()),
        format!("X-A: 1\r\n Content-Length: {}", release.len()),
        format!("X-A: 1\r\n\tContent-Length: {}", release.len()),
    ] {
        let payload = format!("POST /v1/release HTTP/1.1\r\n{length}\r\n\r\n{release}");
        cases.push((payload.into_bytes(), 400, "bad_header"));
    }
    for (payload, want_status, want_code) in &cases {
        let (status, text) = raw_exchange(&addr, payload);
        assert_eq!(status, *want_status, "{payload:?}: {text}");
        assert!(
            text.contains(&format!("\"error\":\"{want_code}\"")),
            "{payload:?}: {text}"
        );
        assert!(text.contains("Connection: close"), "{payload:?}: {text}");
    }
    // None of those releases was charged.
    let (status, budget) = http::request(&addr, "GET", "/v1/tenants/t/budget", None).unwrap();
    assert_eq!(status, 200, "{budget}");
    assert!(budget.contains("\"spent\":0,"), "{budget}");

    // A flood of headers trips the header-count cap.
    let mut many = b"GET /v1/status HTTP/1.1\r\n".to_vec();
    for i in 0..100 {
        many.extend_from_slice(format!("X-H{i}: v\r\n").as_bytes());
    }
    many.extend_from_slice(b"\r\n");
    let (status, text) = raw_exchange(&addr, &many);
    assert_eq!(status, 431, "{text}");
    assert!(text.contains("too_many_headers"), "{text}");

    // A single oversized header blows the head-size cap.
    let mut huge = b"GET /v1/status HTTP/1.1\r\nX-Pad: ".to_vec();
    huge.resize(http::MAX_HEAD + 64, b'a');
    let (status, text) = raw_exchange(&addr, &huge);
    assert_eq!(status, 431, "{text}");
    assert!(text.contains("header_too_large"), "{text}");

    // The server is still fully healthy afterwards.
    let (status, _) = http::request(&addr, "GET", "/v1/healthz", None).unwrap();
    assert_eq!(status, 200);
    handle.shutdown().unwrap();
}

/// Slowloris: a client dribbling one header byte at a time gets a 408
/// once the partial-request deadline passes, while a healthy client on
/// another connection is served normally throughout.
#[test]
fn slowloris_dribble_gets_408_and_healthy_clients_proceed() {
    let limits = Limits {
        header_timeout: Duration::from_millis(300),
        ..Limits::default()
    };
    let handle = server_with(limits, &[("t", 1.0)]);
    let addr = handle.addr().to_string();

    let mut slow = TcpStream::connect(&addr).unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    slow.write_all(b"POST /v1/release HTTP/1.1\r\nX-Drip: ")
        .unwrap();

    // While the slow peer stalls, a real request completes.
    let (status, _) = http::request(&addr, "GET", "/v1/status", None).unwrap();
    assert_eq!(status, 200);

    let mut resp = Vec::new();
    slow.read_to_end(&mut resp).unwrap();
    let text = String::from_utf8_lossy(&resp);
    assert!(text.starts_with("HTTP/1.1 408"), "{text}");
    assert!(text.contains("request_timeout"), "{text}");

    let (_, status_body) = http::request(&addr, "GET", "/v1/status", None).unwrap();
    assert!(status_body.contains("\"timeouts\":1"), "{status_body}");
    handle.shutdown().unwrap();
}

/// An idle keep-alive connection (no partial request pending) is reaped
/// silently: EOF, no bytes, and the reap is counted.
#[test]
fn idle_keepalive_connection_is_reaped_silently() {
    let limits = Limits {
        idle_timeout: Duration::from_millis(300),
        ..Limits::default()
    };
    let handle = server_with(limits, &[("t", 1.0)]);
    let addr = handle.addr().to_string();

    let mut idle = TcpStream::connect(&addr).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = Vec::new();
    idle.read_to_end(&mut buf).unwrap();
    assert!(buf.is_empty(), "reap must be silent, got {buf:?}");

    let (_, status_body) = http::request(&addr, "GET", "/v1/status", None).unwrap();
    assert!(status_body.contains("\"reaped_idle\":1"), "{status_body}");
    handle.shutdown().unwrap();
}

/// Past the connection cap, new connects get a one-shot 503 with
/// `Retry-After` and are never queued; dropping a parked connection
/// frees a slot.
#[test]
fn connection_cap_sheds_with_retry_after() {
    let limits = Limits {
        max_conns: 4,
        idle_timeout: Duration::from_secs(60),
        ..Limits::default()
    };
    let handle = server_with(limits, &[("t", 1.0)]);
    let addr = handle.addr().to_string();

    let parked: Vec<TcpStream> = (0..4).map(|_| TcpStream::connect(&addr).unwrap()).collect();
    // The accept loop registers conns asynchronously; poll until the
    // fifth connect observes the cap.
    let mut shed = None;
    for _ in 0..100 {
        let mut s = TcpStream::connect(&addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut resp = Vec::new();
        if s.read_to_end(&mut resp).is_ok() && !resp.is_empty() {
            shed = Some(String::from_utf8_lossy(&resp).into_owned());
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let text = shed.expect("no connect was ever shed at the cap");
    assert!(text.starts_with("HTTP/1.1 503"), "{text}");
    assert!(text.contains("\"error\":\"overloaded\""), "{text}");
    assert!(text.contains("Retry-After:"), "{text}");

    drop(parked);
    // With slots free again, normal service resumes.
    let mut ok = false;
    for _ in 0..100 {
        if let Ok((200, _)) = http::request(&addr, "GET", "/v1/healthz", None) {
            ok = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(ok, "server did not recover after parked conns dropped");
    handle.shutdown().unwrap();
}

/// The per-tenant token bucket answers 429 `rate_limited` — a code
/// distinct from `budget_exhausted` — with a Retry-After hint, and only
/// throttles the noisy tenant.
#[test]
fn rate_limit_429_is_distinct_from_budget_exhausted() {
    let limits = Limits {
        rate_limit: Some(RateLimit {
            rps: 0.5,
            burst: 2.0,
        }),
        ..Limits::default()
    };
    let handle = server_with(limits, &[("noisy", 100.0), ("quiet", 100.0)]);
    let addr = handle.addr().to_string();
    let body = |t: &str| {
        format!("{{\"tenant\":\"{t}\",\"dataset\":\"MEDCOST\",\"mechanism\":\"IDENTITY\",\"eps\":0.01}}")
    };

    let mut limited = None;
    for _ in 0..4 {
        let (status, resp) =
            http::request(&addr, "POST", "/v1/release", Some(&body("noisy"))).unwrap();
        if status == 429 {
            limited = Some(resp);
            break;
        }
        assert_eq!(status, 200, "{resp}");
    }
    let resp = limited.expect("burst of 4 never hit the 2-token bucket");
    assert!(resp.contains("\"error\":\"rate_limited\""), "{resp}");
    assert!(!resp.contains("budget_exhausted"), "{resp}");

    // The quiet tenant's bucket is untouched.
    let (status, resp) = http::request(&addr, "POST", "/v1/release", Some(&body("quiet"))).unwrap();
    assert_eq!(status, 200, "{resp}");

    // Rate-limited requests never touch the budget.
    let snap = handle.state().accountant.snapshot("noisy").unwrap();
    assert!(
        (snap.spent / 0.01).round() as u64 == snap.releases,
        "429s must not charge ε: {snap:?}"
    );
    handle.shutdown().unwrap();
}

/// A `random:N` workload outside 1..=100,000 ranges is a 400
/// `bad_request` refused before any ε is reserved. (An unbounded N used
/// to panic a worker while it held the workload memo's lock, poisoning
/// it for every later release.)
#[test]
fn random_workload_outside_its_cap_is_a_400_that_charges_nothing() {
    let handle = server_with(Limits::default(), &[("t", 1.0)]);
    let addr = handle.addr().to_string();
    let body = |workload: &str| {
        format!(
            "{{\"tenant\":\"t\",\"dataset\":\"MEDCOST\",\"mechanism\":\"IDENTITY\",\
             \"eps\":0.01,\"workload\":\"{workload}\"}}"
        )
    };
    for workload in ["random:0", "random:100001", "random:18446744073709551615"] {
        let (status, resp) =
            http::request(&addr, "POST", "/v1/release", Some(&body(workload))).unwrap();
        assert_eq!(status, 400, "{workload}: {resp}");
        assert!(
            resp.contains("\"error\":\"bad_request\""),
            "{workload}: {resp}"
        );
        let snap = handle.state().accountant.snapshot("t").unwrap();
        assert_eq!(
            (snap.spent, snap.releases),
            (0.0, 0),
            "{workload} charged ε: {snap:?}"
        );
    }
    let (status, resp) =
        http::request(&addr, "POST", "/v1/release", Some(&body("random:100"))).unwrap();
    assert_eq!(status, 200, "{resp}");
    handle.shutdown().unwrap();
}

/// Hot tenant reload via `POST /v1/admin/reload`: grants are re-read
/// from the config file — new tenants appear, grown grants extend, and
/// a grant shrunk below its spent clamps to exhausted, exactly as a
/// journal replay against the smaller grant would.
#[test]
fn admin_reload_adds_extends_and_clamps_shrunken_grants() {
    let dir = std::env::temp_dir().join(format!("dpbench-reload-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = dir.join("tenants.toml");
    std::fs::write(&cfg, "alice = 1.0\n").unwrap();

    let handle = server_full(Limits::default(), &[("alice", 1.0)], Some(cfg.clone()));
    let addr = handle.addr().to_string();
    let body = |t: &str, eps: f64| {
        format!("{{\"tenant\":\"{t}\",\"dataset\":\"MEDCOST\",\"mechanism\":\"IDENTITY\",\"eps\":{eps}}}")
    };

    let (status, _) =
        http::request(&addr, "POST", "/v1/release", Some(&body("alice", 0.75))).unwrap();
    assert_eq!(status, 200);

    // Shrink alice below her spend; add bob.
    std::fs::write(&cfg, "# ops rotation\n[tenants]\nalice = 0.5\nbob = 2.0\n").unwrap();
    let (status, resp) = http::request(&addr, "POST", "/v1/admin/reload", None).unwrap();
    assert_eq!(status, 200, "{resp}");
    assert!(resp.contains("\"added\":1"), "{resp}");
    assert!(resp.contains("\"shrunk\":1"), "{resp}");

    // Alice is clamped to exhausted: spent == total == 0.5, remaining 0.
    let (status, resp) = http::request(&addr, "GET", "/v1/tenants/alice/budget", None).unwrap();
    assert_eq!(status, 200);
    assert!(resp.contains("\"remaining\":0"), "{resp}");
    let (status, resp) =
        http::request(&addr, "POST", "/v1/release", Some(&body("alice", 0.001))).unwrap();
    assert_eq!(status, 429, "{resp}");
    assert!(resp.contains("budget_exhausted"), "{resp}");

    // Bob exists now and is served.
    let (status, resp) =
        http::request(&addr, "POST", "/v1/release", Some(&body("bob", 0.1))).unwrap();
    assert_eq!(status, 200, "{resp}");

    // A broken config is rejected wholesale — grants stay as they were.
    std::fs::write(&cfg, "alice = not-a-number\n").unwrap();
    let (status, resp) = http::request(&addr, "POST", "/v1/admin/reload", None).unwrap();
    assert_eq!(status, 400, "{resp}");
    assert!(resp.contains("bad_tenant_config"), "{resp}");
    let (status, _) = http::request(&addr, "POST", "/v1/release", Some(&body("bob", 0.1))).unwrap();
    assert_eq!(status, 200, "grants must survive a failed reload");

    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reload touching both `--tenant-config` and `--profile` is
/// all-or-nothing: a broken profile rejects the whole reload, so tenant
/// changes staged in the same call must not land (no partial reload).
#[test]
fn reload_is_atomic_across_tenants_and_profile() {
    use dpbench::harness::sink::AggregatingSink;
    use dpbench::harness::SelectionProfile;

    let dir = std::env::temp_dir().join(format!("dpbench-reload-atomic-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = dir.join("tenants.toml");
    std::fs::write(&cfg, "alice = 1.0\n").unwrap();

    // A real (tiny) profile so the server starts with `auto` routable.
    let prof = dir.join("profile.json");
    let runner = Runner::new(ExperimentConfig {
        datasets: vec![dpbench::datasets::catalog::by_name("MEDCOST").unwrap()],
        scales: vec![10_000],
        domains: vec![Domain::D1(256)],
        epsilons: vec![1.0],
        algorithms: vec!["IDENTITY".into(), "DAWA".into()],
        n_samples: 1,
        n_trials: 2,
        workload: WorkloadSpec::Prefix,
        loss: dpbench_core::Loss::L2,
    });
    let mut sink = AggregatingSink::new();
    runner.run_with_sink(&runner.manifest(), &mut sink).unwrap();
    let good_profile = SelectionProfile::build(std::slice::from_ref(&sink));
    good_profile.write_file(&prof).unwrap();

    let handle = serve::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        datasets: vec!["MEDCOST".into()],
        scale: 10_000,
        domain: Domain::D1(256),
        tenants: vec![("alice".into(), 1.0)],
        threads: 2,
        seed: 7,
        tenant_config: Some(cfg.clone()),
        profile: Some(prof.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();
    let body = |t: &str| {
        format!(
            "{{\"tenant\":\"{t}\",\"dataset\":\"MEDCOST\",\"mechanism\":\"IDENTITY\",\"eps\":0.1}}"
        )
    };

    // Stage a tenant addition alongside a broken profile: the reload
    // must fail wholesale, leaving bob ungranted.
    std::fs::write(&cfg, "alice = 1.0\nbob = 2.0\n").unwrap();
    std::fs::write(
        &prof,
        "{\"t\":\"dpbench-profile\",\"v\":99,\"cells\":0,\"sources\":0,\"samples\":0}\n",
    )
    .unwrap();
    let (status, resp) = http::request(&addr, "POST", "/v1/admin/reload", None).unwrap();
    assert_eq!(status, 400, "{resp}");
    assert!(resp.contains("bad_profile"), "{resp}");
    let (status, resp) = http::request(&addr, "POST", "/v1/release", Some(&body("bob"))).unwrap();
    assert_eq!(
        status, 404,
        "tenant change must not land on a failed reload: {resp}"
    );
    assert!(resp.contains("unknown_tenant"), "{resp}");

    // Restore the profile: the same staged tenant change now commits.
    good_profile.write_file(&prof).unwrap();
    let (status, resp) = http::request(&addr, "POST", "/v1/admin/reload", None).unwrap();
    assert_eq!(status, 200, "{resp}");
    assert!(resp.contains("\"added\":1"), "{resp}");
    assert!(resp.contains("\"profile_cells\":"), "{resp}");
    let (status, resp) = http::request(&addr, "POST", "/v1/release", Some(&body("bob"))).unwrap();
    assert_eq!(status, 200, "{resp}");

    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Without `--tenant-config`, the reload endpoint answers a structured
/// 409 rather than guessing.
#[test]
fn reload_without_tenant_config_is_a_409() {
    let handle = server_with(Limits::default(), &[("t", 1.0)]);
    let addr = handle.addr().to_string();
    let (status, resp) = http::request(&addr, "POST", "/v1/admin/reload", None).unwrap();
    assert_eq!(status, 409, "{resp}");
    assert!(resp.contains("no_tenant_config"), "{resp}");
    handle.shutdown().unwrap();
}

/// Liveness and readiness probes: healthz is unconditional, readyz
/// reports capacity headroom.
#[test]
fn health_and_readiness_probes() {
    let handle = server_with(Limits::default(), &[("t", 1.0)]);
    let addr = handle.addr().to_string();
    let (status, resp) = http::request(&addr, "GET", "/v1/healthz", None).unwrap();
    assert_eq!(status, 200);
    assert!(resp.contains("\"ok\":true"), "{resp}");
    let (status, resp) = http::request(&addr, "GET", "/v1/readyz", None).unwrap();
    assert_eq!(status, 200, "{resp}");
    assert!(resp.contains("\"ready\":true"), "{resp}");
    handle.shutdown().unwrap();
}

/// Pipelined keep-alive requests on one connection: every response comes
/// back in order, a release still round-trips on the same connection,
/// and the poller counters (backend `epoll`) show real event traffic.
#[test]
fn pipelined_keepalive_requests_are_answered_in_order() {
    let handle = server_with(Limits::default(), &[("t", 10.0)]);
    let addr = handle.addr().to_string();

    let mut conn = http::ClientConn::connect(&addr).unwrap();
    const N: usize = 8;
    for _ in 0..N {
        conn.send("GET", "/v1/healthz", None).unwrap();
    }
    for i in 0..N {
        let (status, body) = conn.recv().unwrap();
        assert_eq!(status, 200, "response {i}: {body}");
        assert!(body.contains("\"ok\":true"), "response {i}: {body}");
    }
    let (status, body) = conn
        .request(
            "POST",
            "/v1/release",
            Some(r#"{"tenant":"t","dataset":"MEDCOST","eps":0.1,"mechanism":"IDENTITY"}"#),
        )
        .unwrap();
    assert_eq!(status, 200, "{body}");

    let (_, status_body) = http::request(&addr, "GET", "/v1/status", None).unwrap();
    let stats = handle.state().poller_stats();
    assert!(stats.wakeups > 0, "workers must have blocked on the poller");
    assert!(
        stats.events > 0,
        "readiness events must have been delivered"
    );
    assert!(
        status_body.contains("\"poller\":{\"backend\":\"epoll\""),
        "{status_body}"
    );
    handle.shutdown().unwrap();
}

/// `/v1/status` `"mechanisms"` counts releases answered 200 only: a
/// release refused for a spent budget (429), an unknown tenant (404) or
/// a workload that cannot run (400) is not a served one.
#[test]
fn status_counts_only_releases_answered_200() {
    let handle = server_with(Limits::default(), &[("t", 0.1)]);
    let addr = handle.addr().to_string();
    let release = |tenant: &str, workload: &str| {
        let body = format!(
            "{{\"tenant\":\"{tenant}\",\"dataset\":\"MEDCOST\",\"mechanism\":\"HB\",\"eps\":0.1,\"workload\":\"{workload}\"}}"
        );
        http::request(&addr, "POST", "/v1/release", Some(&body)).unwrap()
    };
    for (tenant, workload, code) in [
        ("t", "prefix", 200),
        ("t", "prefix", 429),
        ("nobody", "prefix", 404),
        ("t", "random:0", 400),
    ] {
        let (status, resp) = release(tenant, workload);
        assert_eq!(status, code, "{tenant} {workload}: {resp}");
    }
    let (status, body) = http::request(&addr, "GET", "/v1/status", None).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"mechanisms\":{\"HB\":1}"), "{body}");
    handle.shutdown().unwrap();
}
