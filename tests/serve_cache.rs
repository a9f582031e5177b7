//! The release server's bounded workload cache, end to end: a refused
//! release builds nothing, a flood of distinct workloads leaves at most
//! `WORKLOAD_CAPACITY` resident, a workload touched between floods stays
//! warm, and an evicted one comes back cold.

use dpbench::harness::serve::{self, http, ServeConfig, ServerHandle, WORKLOAD_CAPACITY};
use dpbench::prelude::*;

fn test_server(tenants: &[(&str, f64)]) -> ServerHandle {
    serve::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        datasets: vec!["MEDCOST".into()],
        scale: 10_000,
        domain: Domain::D1(64),
        tenants: tenants.iter().map(|(n, e)| (n.to_string(), *e)).collect(),
        threads: 2,
        seed: 7,
        slo: true,
        ..ServeConfig::default()
    })
    .unwrap()
}

/// POST one IDENTITY release; returns the status and body.
fn release(addr: &str, tenant: &str, workload: &str, eps: f64) -> (u16, String) {
    let body = format!(
        "{{\"tenant\":\"{tenant}\",\"dataset\":\"MEDCOST\",\"mechanism\":\"IDENTITY\",\"eps\":{eps},\"workload\":\"{workload}\"}}"
    );
    http::request(addr, "POST", "/v1/release", Some(&body)).unwrap()
}

fn status(addr: &str) -> String {
    let (code, body) = http::request(addr, "GET", "/v1/status", None).unwrap();
    assert_eq!(code, 200);
    body
}

/// A release refused for an unknown tenant (404) or a spent budget (429)
/// on a never-seen `random:N` charges no ε and leaves nothing resident;
/// a spec that cannot run is still the caller's 400 before either.
#[test]
fn refused_releases_build_no_workload() {
    let handle = test_server(&[("alice", 0.1)]);
    let addr = handle.addr().to_string();
    let (code, resp) = release(&addr, "alice", "prefix", 0.1);
    assert_eq!(code, 200, "{resp}");
    let before = handle.state().plan_cache.counts();
    assert_eq!((before.resident, before.evicted, before.plans), (1, 0, 1));
    for n in 0..10 {
        let (code, resp) = release(&addr, "nobody", &format!("random:{}", 1000 - n), 0.1);
        assert_eq!(code, 404, "{resp}");
        assert!(resp.contains("\"unknown_tenant\""), "{resp}");
        let (code, resp) = release(&addr, "alice", &format!("random:{}", 2000 - n), 0.1);
        assert_eq!(code, 429, "{resp}");
        assert!(resp.contains("\"budget_exhausted\""), "{resp}");
    }
    let (code, resp) = release(&addr, "nobody", "random:0", 0.1);
    assert_eq!(code, 400, "a bad spec is refused first: {resp}");
    assert_eq!(handle.state().plan_cache.counts(), before);
    let body = status(&addr);
    assert!(
        body.contains("\"plan_cache\":{\"hits\":0,\"misses\":1,\"built\":1},\"workload_cache\":{\"resident\":1,\"capacity\":64,\"evicted\":0}"),
        "{body}"
    );
    handle.shutdown().unwrap();
}

/// Three floods of 40 fresh workloads, with `prefix` released between
/// floods: at most `WORKLOAD_CAPACITY` stay resident, `prefix` is warm at
/// every touch, the lookup counters keep counting across evictions, and
/// the first flooded workload, evicted, plans again when it returns.
#[test]
fn a_flood_stays_bounded_and_a_touched_workload_stays_warm() {
    let handle = test_server(&[("bob", 1e6)]);
    let addr = handle.addr().to_string();
    let (code, resp) = release(&addr, "bob", "prefix", 0.01);
    assert_eq!(code, 200, "{resp}");
    assert!(resp.contains("\"plan_cache_hit\":false"), "{resp}");
    let mut n = 500;
    for _ in 0..3 {
        for _ in 0..40 {
            let (code, resp) = release(&addr, "bob", &format!("random:{n}"), 0.01);
            assert_eq!(code, 200, "{resp}");
            assert!(resp.contains("\"plan_cache_hit\":false"), "{resp}");
            n -= 1;
        }
        let (code, resp) = release(&addr, "bob", "prefix", 0.01);
        assert_eq!(code, 200, "{resp}");
        assert!(
            resp.contains("\"plan_cache_hit\":true"),
            "prefix stays warm: {resp}"
        );
    }
    let counts = handle.state().plan_cache.counts();
    assert_eq!(counts.resident, WORKLOAD_CAPACITY);
    assert_eq!(counts.evicted, 121 - WORKLOAD_CAPACITY as u64);
    assert_eq!(counts.plans, WORKLOAD_CAPACITY);
    let body = status(&addr);
    assert!(
        body.contains("\"plan_cache\":{\"hits\":3,\"misses\":121,\"built\":64},\"workload_cache\":{\"resident\":64,\"capacity\":64,\"evicted\":57}"),
        "{body}"
    );
    for expected_hit in [false, true] {
        let (code, resp) = release(&addr, "bob", "random:500", 0.01);
        assert_eq!(code, 200, "{resp}");
        assert!(
            resp.contains(&format!("\"plan_cache_hit\":{expected_hit}")),
            "{resp}"
        );
    }
    let stats = handle.state().plan_cache.stats();
    assert_eq!((stats.hits, stats.misses), (4, 122));
    assert_eq!(handle.state().plan_cache.counts().evicted, 58);
    handle.shutdown().unwrap();
}
