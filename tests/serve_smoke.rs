//! End-to-end tests of the online release server: the budget invariant
//! under concurrency, bit-exact journal recovery across restarts, the
//! shared warm plan cache, and independent noise per release.

use dpbench::harness::serve::{self, http, JournalOp, ServeConfig, TenantAccountant};
use dpbench::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

fn tmp_journal(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dpbench-serve-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("spend.jsonl")
}

fn test_server(tenants: &[(&str, f64)], journal: Option<&Path>) -> serve::ServerHandle {
    serve::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        datasets: vec!["MEDCOST".into()],
        scale: 10_000,
        domain: Domain::D1(256),
        tenants: tenants.iter().map(|(n, e)| (n.to_string(), *e)).collect(),
        journal: journal.map(PathBuf::from),
        threads: 4,
        seed: 7,
        ..ServeConfig::default()
    })
    .unwrap()
}

fn release_body(tenant: &str, mech: &str, eps: f64) -> String {
    format!("{{\"tenant\":\"{tenant}\",\"dataset\":\"MEDCOST\",\"mechanism\":\"{mech}\",\"eps\":{eps}}}")
}

/// The acceptance invariant: a tenant granted ε=1.0 spends exactly up to
/// 1.0 across concurrent requests — exactly 4 of 8 racing 0.25-ε
/// requests are admitted, the rest get the structured 429 — and a server
/// restarted from the journal holds the identical (bit-exact) balance
/// and refuses identically.
#[test]
fn concurrent_spend_exactly_exhausts_the_budget_and_survives_restart() {
    let journal = tmp_journal("exhaust");
    let _ = std::fs::remove_file(&journal);
    let spent_bits;
    {
        let handle = test_server(&[("alice", 1.0)], Some(&journal));
        let addr = handle.addr().to_string();
        let barrier = Arc::new(Barrier::new(8));
        let ok = Arc::new(AtomicU64::new(0));
        let refused = Arc::new(AtomicU64::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let addr = addr.clone();
                let barrier = Arc::clone(&barrier);
                let ok = Arc::clone(&ok);
                let refused = Arc::clone(&refused);
                std::thread::spawn(move || {
                    let body = release_body("alice", "IDENTITY", 0.25);
                    barrier.wait();
                    let (status, resp) =
                        http::request(&addr, "POST", "/v1/release", Some(&body)).unwrap();
                    match status {
                        200 => ok.fetch_add(1, Ordering::Relaxed),
                        429 => {
                            assert!(resp.contains("\"error\":\"budget_exhausted\""), "{resp}");
                            refused.fetch_add(1, Ordering::Relaxed)
                        }
                        s => panic!("unexpected status {s}: {resp}"),
                    };
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(ok.load(Ordering::Relaxed), 4, "1.0 / 0.25 admits exactly 4");
        assert_eq!(refused.load(Ordering::Relaxed), 4);

        // Exhausted: even the smallest further request is refused.
        let body = release_body("alice", "IDENTITY", 0.001);
        let (status, resp) = http::request(&addr, "POST", "/v1/release", Some(&body)).unwrap();
        assert_eq!(status, 429, "{resp}");

        let snap = handle.state().accountant.snapshot("alice").unwrap();
        assert_eq!(
            snap.spent.to_bits(),
            1.0_f64.to_bits(),
            "spent exactly ε=1.0"
        );
        assert_eq!(snap.releases, 4);
        spent_bits = snap.spent.to_bits();
        handle.shutdown().unwrap();
    }

    // The journal's spend sum replays to exactly the live balance.
    let records = serve::journal::replay(&journal).unwrap();
    assert_eq!(records.len(), 4, "only admitted requests are journaled");
    let mut replayed = 0.0_f64;
    for rec in &records {
        assert_eq!(rec.op, JournalOp::Spend);
        replayed += rec.eps;
    }
    assert_eq!(replayed.to_bits(), spent_bits, "journal sum is bit-exact");

    // Restart from the journal: same balance, same refusal.
    let handle = test_server(&[("alice", 1.0)], Some(&journal));
    let addr = handle.addr().to_string();
    let snap = handle.state().accountant.snapshot("alice").unwrap();
    assert_eq!(
        snap.spent.to_bits(),
        spent_bits,
        "restart recovers bit-exactly"
    );
    let (status, resp) = http::request(&addr, "GET", "/v1/tenants/alice/budget", None).unwrap();
    assert_eq!(status, 200);
    assert!(resp.contains("\"remaining\":0"), "{resp}");
    let body = release_body("alice", "IDENTITY", 0.001);
    let (status, _) = http::request(&addr, "POST", "/v1/release", Some(&body)).unwrap();
    assert_eq!(status, 429, "restarted server refuses identically");
    handle.shutdown().unwrap();
}

/// Repeated identical releases hit the shared cross-request plan cache:
/// the first request builds (hit bit false), every later one is served
/// warm (hit bit true), and the status counters agree. A release on a
/// new workload builds again.
#[test]
fn repeated_identical_releases_hit_the_shared_plan_cache() {
    let handle = test_server(&[("bob", 10.0)], None);
    let addr = handle.addr().to_string();
    for i in 0..5 {
        let body = release_body("bob", "DAWA", 0.1);
        let (status, resp) = http::request(&addr, "POST", "/v1/release", Some(&body)).unwrap();
        assert_eq!(status, 200, "{resp}");
        let expected = format!("\"plan_cache_hit\":{}", i > 0);
        assert!(resp.contains(&expected), "request {i}: {resp}");
    }
    let (status, resp) = http::request(&addr, "GET", "/v1/status", None).unwrap();
    assert_eq!(status, 200);
    assert!(
        resp.contains("\"plan_cache\":{\"hits\":4,\"misses\":1,\"built\":1}"),
        "{resp}"
    );
    assert!(resp.contains("\"DAWA\":5"), "{resp}");
    let stats = handle.state().plan_cache.stats();
    assert_eq!((stats.hits, stats.misses), (4, 1));
    // A distinct workload is a distinct plan: it builds cold.
    let body = "{\"tenant\":\"bob\",\"dataset\":\"MEDCOST\",\"mechanism\":\"DAWA\",\"eps\":0.1,\"workload\":\"random:100\"}";
    let (status, resp) = http::request(&addr, "POST", "/v1/release", Some(body)).unwrap();
    assert_eq!(status, 200, "{resp}");
    assert!(resp.contains("\"plan_cache_hit\":false"), "{resp}");
    handle.shutdown().unwrap();
}

/// Concurrent identical releases execute independently: four
/// barrier-started IDENTITY requests with one public fingerprint each
/// draw their own noise (four distinct estimates), and each is charged
/// its own ε.
#[test]
fn concurrent_identical_releases_draw_independent_noise() {
    let handle = test_server(&[("carol", 16.0)], None);
    let addr = handle.addr().to_string();
    let barrier = Arc::new(Barrier::new(4));
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let body = release_body("carol", "IDENTITY", 0.5);
                barrier.wait();
                let (status, resp) =
                    http::request(&addr, "POST", "/v1/release", Some(&body)).unwrap();
                assert_eq!(status, 200, "{resp}");
                resp
            })
        })
        .collect();
    let responses: Vec<String> = threads.into_iter().map(|t| t.join().unwrap()).collect();

    let estimate_of = |resp: &str| -> String {
        let at = resp.find("\"estimate\":[").unwrap();
        let end = resp[at..].find(']').unwrap();
        resp[at..at + end].to_string()
    };
    let mut distinct: Vec<String> = responses.iter().map(|r| estimate_of(r)).collect();
    distinct.sort();
    distinct.dedup();
    assert_eq!(
        distinct.len(),
        4,
        "identical concurrent requests must not share a noise draw"
    );

    let snap = handle.state().accountant.snapshot("carol").unwrap();
    assert_eq!(
        snap.spent.to_bits(),
        2.0_f64.to_bits(),
        "4 × 0.5 all charged"
    );
    handle.shutdown().unwrap();
}

/// Property test over the accountant alone: any interleaving of
/// concurrent reserve/refund for one tenant never over-spends ε, and the
/// journal — even after a simulated crash tears its final line —
/// replays to the exact live balance.
#[test]
fn concurrent_reserve_refund_never_overspends_and_replays_bit_exactly() {
    use dpbench_core::rng::rng_for;
    use rand::Rng;

    for round in 0..3_u64 {
        let journal = tmp_journal(&format!("prop{round}"));
        let _ = std::fs::remove_file(&journal);
        let acct = Arc::new(TenantAccountant::new(&[("t".into(), 1.0)], Some(&journal)).unwrap());
        let threads: Vec<_> = (0..8_u64)
            .map(|tid| {
                let acct = Arc::clone(&acct);
                std::thread::spawn(move || {
                    let mut rng = rng_for("serve-prop", &[round, tid]);
                    for _ in 0..50 {
                        let eps = rng.gen_range(0.001..0.02);
                        if acct.reserve("t", eps).is_ok() && rng.gen_bool(0.3) {
                            acct.refund("t", eps).unwrap();
                        }
                        // The invariant holds at every intermediate point,
                        // not just after the dust settles.
                        let snap = acct.snapshot("t").unwrap();
                        assert!(
                            snap.spent <= 1.0 + 1e-6,
                            "over-spend: {} > 1.0 (round {round})",
                            snap.spent
                        );
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        acct.sync().unwrap();
        let live = acct.snapshot("t").unwrap();
        assert!(live.spent <= 1.0 + 1e-6);
        drop(acct);

        // Clean restart: bit-exact.
        let restarted = TenantAccountant::new(&[("t".into(), 1.0)], Some(&journal)).unwrap();
        let snap = restarted.snapshot("t").unwrap();
        assert_eq!(snap.spent.to_bits(), live.spent.to_bits(), "round {round}");
        drop(restarted);

        // Simulated crash mid-append: a torn final line is healed by
        // truncation and the surviving prefix still replays bit-exactly.
        let mut raw = std::fs::read_to_string(&journal).unwrap();
        raw.push_str("{\"t\":\"spend\",\"tenant\":\"t\",\"eps\":0.01");
        std::fs::write(&journal, raw).unwrap();
        let healed = TenantAccountant::new(&[("t".into(), 1.0)], Some(&journal)).unwrap();
        let snap = healed.snapshot("t").unwrap();
        assert_eq!(
            snap.spent.to_bits(),
            live.spent.to_bits(),
            "round {round}: torn tail must not change the balance"
        );
    }
}
