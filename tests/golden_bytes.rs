//! Golden bytes for every on-disk and on-wire JSON format: a ledger, an
//! `--agg` summary, a spend journal, a selection profile, a release body
//! and an error body. Each constant below was captured from the writers
//! before they moved onto the shared `dpbench_core::json` codec. The
//! writers must keep reproducing them byte for byte and the readers must
//! recover the same values, so a codec change can never re-encode a file
//! someone already has.
//!
//! The hierarchical mechanisms' estimate bits, a workload fingerprint and
//! a 2-D `Runner` ledger are pinned the same way, captured before the
//! flat hierarchy kernel and the per-run shape memo replaced the code that
//! produced them.

use dpbench::algorithms::quadtree::QuadTree;
use dpbench::core::budget::SpendRecord;
use dpbench::core::json::{self, Value};
use dpbench::core::mechanism::execute_eps_with;
use dpbench::core::Workspace;
use dpbench::core::{PlanDiagnostics, Release};
use dpbench::harness::manifest::{ManifestUnit, UnitId};
use dpbench::harness::serve::{self, http, journal, JournalOp, ServeConfig, SpendJournal};
use dpbench::harness::sink::{self, AggregatingSink, JsonlSink, ResultSink};
use dpbench::harness::{config::Setting, RunManifest, SelectionProfile};
use dpbench::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

/// `1e-300` as the writers print it (`Display` never switches to an
/// exponent, so extreme magnitudes are long digit runs).
const TINY: &str = "0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000001";
/// `5e-301`, the mean of `-0` and `1e-300`.
const TINY_HALF: &str = "0.0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000005";
/// `5e-324`, the smallest subnormal.
const DENORM: &str = "0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000005";
/// `f64::MAX`.
const MAX: &str = "179769313486231570000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000";
/// `f64::MAX / 2`.
const MAX_HALF: &str = "89884656743115790000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000";

/// Placeholders in the golden text, expanded to the constants above.
fn expand(golden: &str) -> String {
    golden
        .replace("@TINY_HALF@", TINY_HALF)
        .replace("@TINY@", TINY)
        .replace("@DENORM@", DENORM)
        .replace("@MAX_HALF@", MAX_HALF)
        .replace("@MAX@", MAX)
}

const LEDGER: &str = r#"{"t":"run","fp":"0123456789abcdef","n_trials":2,"cfg":"datasets=MEDCOST,ADULT;loss=l2;trials=2"}
{"t":"s","unit":"5b510c3e9a770001","pos":0,"alg":"IDENTITY","dataset":"MEDCOST","scale":1000,"domain":"128","eps":0.1,"sample":0,"trial":0,"err":-0}
{"t":"s","unit":"5b510c3e9a770001","pos":0,"alg":"IDENTITY","dataset":"MEDCOST","scale":1000,"domain":"128","eps":0.1,"sample":0,"trial":1,"err":@TINY@}
{"t":"u","unit":"5b510c3e9a770001","pos":0}
{"t":"s","unit":"00ff00ff1234abcd","pos":1,"alg":"DAWA","dataset":"ADULT","scale":100000,"domain":"16x16","eps":0.00001,"sample":1,"trial":0,"err":@MAX@}
{"t":"s","unit":"00ff00ff1234abcd","pos":1,"alg":"DAWA","dataset":"ADULT","scale":100000,"domain":"16x16","eps":0.00001,"sample":1,"trial":1,"err":@DENORM@}
{"t":"u","unit":"00ff00ff1234abcd","pos":1}
"#;

const SUMMARY: &str = r#"{"t":"agg","fp":"0123456789abcdef","n_trials":2,"samples":4}
{"t":"g","alg":"DAWA","dataset":"ADULT","scale":100000,"domain":"16x16","eps":0.00001,"n":2,"mean":@MAX_HALF@,"m2":inf,"min":@DENORM@,"max":@MAX@,"comp":100,"cent":[[@DENORM@,1],[@MAX@,1]]}
{"t":"g","alg":"IDENTITY","dataset":"MEDCOST","scale":1000,"domain":"128","eps":0.1,"n":2,"mean":@TINY_HALF@,"m2":0,"min":-0,"max":@TINY@,"comp":100,"cent":[[-0,1],[@TINY@,1]]}
"#;

const JOURNAL: &str = r#"{"t":"tenants","v":1}
{"t":"spend","tenant":"alice","eps":0.1,"seq":1}
{"t":"refund","tenant":"alice","eps":0.1,"seq":2}
{"t":"spend","tenant":"bob","eps":0.3333333333333333,"seq":3}
"#;

const PROFILE: &str = r#"{"t":"dpbench-profile","v":1,"cells":2,"sources":1,"samples":16}
{"t":"cell","dims":1,"shape":"any","scale_b":3,"eps_b":-1,"settings":1,"ranked":[{"m":"AHP*","regret":1,"mean":0.0103,"p95":0.0106,"n":8,"comp":true,"params":"rho=0.85,eta=1.5"},{"m":"IDENTITY","regret":49.99999999999999,"mean":0.515,"p95":0.53,"n":8,"comp":false}]}
{"t":"cell","dims":1,"shape":"spiky","scale_b":3,"eps_b":-1,"settings":1,"ranked":[{"m":"AHP*","regret":1,"mean":0.0103,"p95":0.0106,"n":8,"comp":true,"params":"rho=0.85,eta=1.5"},{"m":"IDENTITY","regret":49.99999999999999,"mean":0.515,"p95":0.53,"n":8,"comp":false}]}
"#;

const RELEASE: &str = r#"{"mechanism":"DAWA","data_independent":false,"spent":0.1,"budget_trace":[{"label":"partition","eps":0.025},{"label":"measure","eps":0.075}],"estimate":[1.5,-0,@TINY@,-25000000000,null,null]}"#;

const ERROR_BODY: &str = r#"{"error":"unknown_dataset","detail":"a\"b\\c\nd\u0001"}"#;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "dpbench-golden-{name}-{}.jsonl",
        std::process::id()
    ))
}

/// The sample errors of the two golden units: a signed zero and both
/// ends of the f64 exponent range.
const ERRORS: [[f64; 2]; 2] = [[-0.0, 1e-300], [f64::MAX, 5e-324]];

/// The golden run: two units, two trials each.
fn golden_run() -> (RunManifest, Vec<(ManifestUnit, Vec<ErrorSample>)>) {
    let settings = [
        Setting {
            dataset: "MEDCOST".into(),
            scale: 1_000,
            domain: Domain::D1(128),
            epsilon: 0.1,
        },
        Setting {
            dataset: "ADULT".into(),
            scale: 100_000,
            domain: Domain::D2(16, 16),
            epsilon: 1e-5,
        },
    ];
    let ids = [UnitId(0x5b51_0c3e_9a77_0001), UnitId(0x00ff_00ff_1234_abcd)];
    let algs = ["IDENTITY", "DAWA"];
    let mut units = Vec::new();
    for pos in 0..2 {
        let unit = ManifestUnit {
            id: ids[pos],
            pos,
            setting: settings[pos].clone(),
            sample: pos,
            algorithm: algs[pos].into(),
        };
        let samples = ERRORS[pos]
            .iter()
            .enumerate()
            .map(|(trial, &error)| ErrorSample {
                algorithm: algs[pos].into(),
                setting: settings[pos].clone(),
                sample: pos,
                trial,
                error,
            })
            .collect();
        units.push((unit, samples));
    }
    let manifest = RunManifest {
        fingerprint: 0x0123_4567_89ab_cdef,
        config_summary: "datasets=MEDCOST,ADULT;loss=l2;trials=2".into(),
        n_trials: 2,
        total_units: 2,
        units: units.iter().map(|(u, _)| u.clone()).collect(),
    };
    (manifest, units)
}

fn feed(sink: &mut dyn ResultSink) {
    let (manifest, units) = golden_run();
    sink.begin(&manifest).unwrap();
    for (unit, samples) in &units {
        sink.unit_complete(unit, samples).unwrap();
    }
    sink.finish().unwrap();
}

#[test]
fn ledger_bytes_and_values_are_pinned() {
    let golden = expand(LEDGER);
    let mut bytes = Vec::new();
    feed(&mut JsonlSink::from_writer(&mut bytes));
    assert_eq!(String::from_utf8(bytes).unwrap(), golden);

    let path = tmp("ledger");
    std::fs::write(&path, &golden).unwrap();
    let ledger = sink::read_ledger(&path).unwrap();
    assert_eq!(ledger.fingerprint, 0x0123_4567_89ab_cdef);
    assert_eq!(ledger.n_trials, 2);
    assert_eq!(
        ledger.cfg.as_deref(),
        Some("datasets=MEDCOST,ADULT;loss=l2;trials=2")
    );
    let (_, units) = golden_run();
    assert_eq!(ledger.done.len(), 2);
    let mut samples = sink::read_samples(&path).unwrap();
    samples.sort_by_key(|(_, pos, s)| (*pos, s.trial));
    let want: Vec<_> = units
        .iter()
        .flat_map(|(u, s)| s.iter().map(move |s| (u.id, u.pos, s)))
        .collect();
    assert_eq!(samples.len(), want.len());
    for ((id, pos, got), (wid, wpos, w)) in samples.iter().zip(&want) {
        assert!(ledger.done.contains(id));
        assert_eq!((id, pos), (wid, wpos));
        assert_eq!(got.error.to_bits(), w.error.to_bits(), "{got:?}");
        assert_eq!(got.setting, w.setting);
        assert_eq!((&got.algorithm, got.sample), (&w.algorithm, w.sample));
    }
    // The merge re-renders every record: same bytes again.
    let mut merged = Vec::new();
    sink::merge_jsonl(&[&path], &mut merged).unwrap();
    assert_eq!(String::from_utf8(merged).unwrap(), golden);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn summary_bytes_and_values_are_pinned() {
    let golden = expand(SUMMARY);
    let mut agg = AggregatingSink::new();
    feed(&mut agg);
    let mut bytes = Vec::new();
    agg.write_summary(&mut bytes).unwrap();
    assert_eq!(String::from_utf8(bytes).unwrap(), golden);

    let path = tmp("summary");
    std::fs::write(&path, &golden).unwrap();
    let mut read = sink::read_summary(&path).unwrap();
    assert_eq!(read.fingerprint(), Some(0x0123_4567_89ab_cdef));
    assert_eq!(read.samples_seen(), 4);
    let groups: Vec<_> = read
        .groups()
        .map(|(a, _, s)| (a.to_string(), s.clone()))
        .collect();
    let want = [("DAWA", ERRORS[1]), ("IDENTITY", ERRORS[0])];
    assert_eq!(groups.len(), want.len());
    for ((alg, s), (walg, errs)) in groups.iter().zip(want) {
        assert_eq!(alg, walg);
        assert_eq!(s.count(), 2);
        assert_eq!(s.min().to_bits(), errs[0].min(errs[1]).to_bits(), "{alg}");
        assert_eq!(s.max().to_bits(), errs[0].max(errs[1]).to_bits(), "{alg}");
    }
    let mut again = Vec::new();
    read.write_summary(&mut again).unwrap();
    assert_eq!(String::from_utf8(again).unwrap(), golden);

    // Rebuilding the summary from the ledger (the fleet `--agg` path)
    // yields the streamed bytes too.
    let ledger = tmp("summary-ledger");
    std::fs::write(&ledger, expand(LEDGER)).unwrap();
    let mut rebuilt = Vec::new();
    sink::summary_from_ledger(&ledger)
        .unwrap()
        .write_summary(&mut rebuilt)
        .unwrap();
    assert_eq!(String::from_utf8(rebuilt).unwrap(), golden);
    for p in [&path, &ledger] {
        std::fs::remove_file(p).unwrap();
    }
}

#[test]
fn journal_bytes_and_values_are_pinned() {
    let path = tmp("journal");
    let _ = std::fs::remove_file(&path);
    let ops = [
        ("alice", JournalOp::Spend, 0.1),
        ("alice", JournalOp::Refund, 0.1),
        ("bob", JournalOp::Spend, 1.0 / 3.0),
    ];
    {
        let (mut j, replayed) = SpendJournal::open(&path).unwrap();
        assert!(replayed.is_empty());
        for (tenant, op, eps) in ops {
            j.append(tenant, op, eps).unwrap();
        }
    }
    assert_eq!(std::fs::read_to_string(&path).unwrap(), JOURNAL);
    let records = journal::replay(&path).unwrap();
    assert_eq!(records.len(), ops.len());
    for (rec, (tenant, op, eps)) in records.iter().zip(ops) {
        assert_eq!((rec.tenant.as_str(), rec.op), (tenant, op));
        assert_eq!(rec.eps.to_bits(), eps.to_bits());
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn profile_bytes_and_values_are_pinned() {
    let setting = Setting {
        dataset: "MEDCOST".into(),
        scale: 1_000,
        domain: Domain::D1(256),
        epsilon: 0.1,
    };
    let mut sink = AggregatingSink::new();
    for (i, (alg, base)) in [("AHP*", 0.01), ("IDENTITY", 0.5)].into_iter().enumerate() {
        let samples: Vec<ErrorSample> = (0..8)
            .map(|trial| ErrorSample {
                algorithm: alg.into(),
                setting: setting.clone(),
                sample: 0,
                trial,
                error: base * (1.0 + 0.02 * (trial % 4) as f64),
            })
            .collect();
        let unit = ManifestUnit {
            id: UnitId(i as u64),
            pos: i,
            algorithm: alg.into(),
            setting: setting.clone(),
            sample: 0,
        };
        sink.unit_complete(&unit, &samples).unwrap();
    }
    let profile = SelectionProfile::build(std::slice::from_ref(&sink));
    let mut bytes = Vec::new();
    profile.write(&mut bytes).unwrap();
    assert_eq!(String::from_utf8(bytes).unwrap(), PROFILE);

    let path = tmp("profile");
    std::fs::write(&path, PROFILE).unwrap();
    let read = SelectionProfile::read_file(&path).unwrap();
    assert_eq!(read, profile);
    let ahp = &read.cells.values().next().unwrap().ranked[0];
    assert_eq!(ahp.mechanism, "AHP*");
    assert_eq!(ahp.params.as_deref(), Some("rho=0.85,eta=1.5"));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn release_body_is_pinned() {
    let release = Release {
        estimate: vec![1.5, -0.0, 1e-300, -2.5e10, f64::NAN, f64::INFINITY],
        budget_trace: vec![
            SpendRecord {
                label: "partition".into(),
                epsilon: 0.025,
            },
            SpendRecord {
                label: "measure".into(),
                epsilon: 0.075,
            },
        ],
        diagnostics: PlanDiagnostics::data_dependent("DAWA"),
    };
    let golden = expand(RELEASE);
    assert_eq!(release.to_json(), golden);
    let mut pooled = String::from("kept ");
    release.to_json_into(&mut pooled);
    assert_eq!(pooled, format!("kept {golden}"));

    let body = json::Object::parse(&golden).unwrap();
    assert_eq!(body.str("mechanism"), Some("DAWA"));
    assert_eq!(body.get("data_independent"), Some(&Value::Bool(false)));
    assert_eq!(body.num::<f64>("spent"), Some(release.spent()));
    let Some(Value::Arr(trace)) = body.get("budget_trace") else {
        panic!("budget_trace is an array")
    };
    let trace: Vec<(String, f64)> = json::parse_array(trace)
        .unwrap()
        .iter()
        .map(|r| match r {
            Value::Obj(r) => {
                let r = json::Object::parse(r).unwrap();
                (r.str("label").unwrap().to_string(), r.num("eps").unwrap())
            }
            other => panic!("{other:?}"),
        })
        .collect();
    assert_eq!(
        trace,
        [
            ("partition".to_string(), 0.025),
            ("measure".to_string(), 0.075)
        ]
    );
    let Some(Value::Arr(estimate)) = body.get("estimate") else {
        panic!("estimate is an array")
    };
    let estimate = json::parse_array(estimate).unwrap();
    assert_eq!(estimate.len(), release.estimate.len());
    for (got, want) in estimate.iter().zip(&release.estimate) {
        match got.parse::<f64>() {
            Some(v) => assert_eq!(v.to_bits(), want.to_bits()),
            // Non-finite values travel as `null`.
            None => assert!(*got == Value::Null && !want.is_finite(), "{got:?}"),
        }
    }
}

#[test]
fn error_body_escapes_quotes_backslashes_and_control_bytes() {
    let handle = serve::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        datasets: vec!["MEDCOST".into()],
        scale: 1_000,
        domain: Domain::D1(64),
        tenants: vec![("alice".into(), 1.0)],
        threads: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();
    // The unknown dataset name is echoed as the error detail: `"`, `\`,
    // a newline and U+0001, decoded from the request and re-escaped.
    let body = r#"{"tenant":"alice","dataset":"a\"b\\c\nd\u0001","eps":0.1}"#;
    let (status, resp) = http::request(&addr, "POST", "/v1/release", Some(body)).unwrap();
    handle.shutdown().unwrap();
    assert_eq!(status, 404);
    assert_eq!(resp, ERROR_BODY);
    let fields = http::parse_object(&resp).unwrap();
    assert_eq!(fields["error"].as_str(), Some("unknown_dataset"));
    assert_eq!(fields["detail"].as_str(), Some("a\"b\\c\nd\u{1}"));
}

/// FNV-1a over the bit patterns of `values`: one word that pins every bit
/// of an estimate.
fn bits_digest(values: &[f64]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        v.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// Estimate digests of every mechanism that measures and infers over a
/// `Hierarchy` (GREEDY_H and DAWA flatten 2-D grids along the Hilbert
/// curve; QUADTREE at height 3 leaves unresolved leaves; SF runs one
/// hierarchy per bucket, and its second trial reuses the first's
/// V-optimal table), plus PHP's bisection, two trials each on seeded
/// integer counts.
const ESTIMATE_DIGESTS: [(&str, u64); 13] = [
    ("H 1000", 0xa9f0_198b_9fcf_fc38),
    ("HB 1000", 0xf970_1029_bb3f_7473),
    ("HB 24x40", 0xa9a4_c1d1_6802_ed04),
    ("GREEDY_H 1000", 0xc553_1026_03e4_944b),
    ("GREEDY_H 32x32", 0x661a_085b_2ee5_53d9),
    ("QUADTREE 24x40", 0xb3cc_929b_2d74_2f1a),
    ("QUADTREE/3 40x24", 0xd563_4586_49dc_1ef5),
    ("DAWA 1000", 0x223f_6d6f_2126_0094),
    ("DAWA 32x32", 0xea38_a57f_ee59_9224),
    ("SF 1000", 0x5d55_600b_a0e1_19cc),
    ("SF 4096", 0xce24_4faf_a23b_45f9),
    ("PHP 1000", 0x9aef_1279_6994_3648),
    ("PHP 4096", 0x9562_8b09_e2f0_1651),
];

#[test]
fn hierarchical_estimate_bits_are_pinned() {
    let cases: [(&str, Box<dyn Mechanism>, Domain); 13] = [
        ("H 1000", mechanism_by_name("H").unwrap(), Domain::D1(1000)),
        (
            "HB 1000",
            mechanism_by_name("HB").unwrap(),
            Domain::D1(1000),
        ),
        (
            "HB 24x40",
            mechanism_by_name("HB").unwrap(),
            Domain::D2(24, 40),
        ),
        (
            "GREEDY_H 1000",
            mechanism_by_name("GREEDY_H").unwrap(),
            Domain::D1(1000),
        ),
        (
            "GREEDY_H 32x32",
            mechanism_by_name("GREEDY_H").unwrap(),
            Domain::D2(32, 32),
        ),
        (
            "QUADTREE 24x40",
            mechanism_by_name("QUADTREE").unwrap(),
            Domain::D2(24, 40),
        ),
        (
            "QUADTREE/3 40x24",
            Box::new(QuadTree::with_height(3)),
            Domain::D2(40, 24),
        ),
        (
            "DAWA 1000",
            mechanism_by_name("DAWA").unwrap(),
            Domain::D1(1000),
        ),
        (
            "DAWA 32x32",
            mechanism_by_name("DAWA").unwrap(),
            Domain::D2(32, 32),
        ),
        (
            "SF 1000",
            mechanism_by_name("SF").unwrap(),
            Domain::D1(1000),
        ),
        (
            "SF 4096",
            mechanism_by_name("SF").unwrap(),
            Domain::D1(4096),
        ),
        (
            "PHP 1000",
            mechanism_by_name("PHP").unwrap(),
            Domain::D1(1000),
        ),
        (
            "PHP 4096",
            mechanism_by_name("PHP").unwrap(),
            Domain::D1(4096),
        ),
    ];
    let mut ws = Workspace::new();
    let got: Vec<(&str, u64)> = cases
        .iter()
        .enumerate()
        .map(|(i, (label, mech, domain))| {
            let mut rng = StdRng::seed_from_u64(2016 + i as u64);
            let counts = (0..domain.n_cells())
                .map(|c| {
                    let spike = if c % 97 == 3 { 5_000.0 } else { 0.0 };
                    spike + f64::from(rng.gen_range(0_u32..40))
                })
                .collect();
            let x = DataVector::new(counts, *domain);
            let workload = match domain {
                Domain::D1(n) => Workload::prefix_1d(*n),
                Domain::D2(..) => Workload::random_ranges(*domain, 200, &mut rng),
            };
            let plan = mech.plan(domain, &workload).unwrap();
            let mut bits = Vec::new();
            for _ in 0..2 {
                let release = execute_eps_with(plan.as_ref(), &x, 0.1, &mut ws, &mut rng).unwrap();
                bits.extend_from_slice(&release.estimate);
                ws.give_f64(release.into_estimate());
            }
            (*label, bits_digest(&bits))
        })
        .collect();
    assert_eq!(got, ESTIMATE_DIGESTS);
}

/// The content fingerprint of the 64-cell Prefix workload.
const PREFIX_64_FINGERPRINT: u64 = 0x14af_69c4_06ed_1464;

#[test]
fn workload_fingerprint_is_pinned() {
    assert_eq!(Workload::prefix_1d(64).fingerprint(), PREFIX_64_FINGERPRINT);
}

/// A `Runner` ledger that draws one 2-D dataset at two scales and two
/// samples each, so four data cells share one shape.
const GRID_2D_LEDGER: &str = r#"{"t":"run","fp":"08463e125db2679f","n_trials":1,"cfg":"datasets=BJ-CABS-S;scales=10000+1000000;domains=32x32;eps=0.1;algorithms=HB+QUADTREE;samples=2;trials=1;workload=random:100;loss=l2"}
{"t":"s","unit":"cbb8eff18167807f","pos":0,"alg":"HB","dataset":"BJ-CABS-S","scale":10000,"domain":"32x32","eps":0.1,"sample":0,"trial":0,"err":0.0023958248646093194}
{"t":"u","unit":"cbb8eff18167807f","pos":0}
{"t":"s","unit":"be24469f5bd331c8","pos":1,"alg":"QUADTREE","dataset":"BJ-CABS-S","scale":10000,"domain":"32x32","eps":0.1,"sample":0,"trial":0,"err":0.00221308611596286}
{"t":"u","unit":"be24469f5bd331c8","pos":1}
{"t":"s","unit":"fd6d01d08f749662","pos":2,"alg":"HB","dataset":"BJ-CABS-S","scale":10000,"domain":"32x32","eps":0.1,"sample":1,"trial":0,"err":0.002551727629678801}
{"t":"u","unit":"fd6d01d08f749662","pos":2}
{"t":"s","unit":"4d1df08ce8767ebd","pos":3,"alg":"QUADTREE","dataset":"BJ-CABS-S","scale":10000,"domain":"32x32","eps":0.1,"sample":1,"trial":0,"err":0.0022306732801874946}
{"t":"u","unit":"4d1df08ce8767ebd","pos":3}
{"t":"s","unit":"d05e8c09c154c30f","pos":4,"alg":"HB","dataset":"BJ-CABS-S","scale":1000000,"domain":"32x32","eps":0.1,"sample":0,"trial":0,"err":0.000026578122461529156}
{"t":"u","unit":"d05e8c09c154c30f","pos":4}
{"t":"s","unit":"c9ecd7e71e251958","pos":5,"alg":"QUADTREE","dataset":"BJ-CABS-S","scale":1000000,"domain":"32x32","eps":0.1,"sample":0,"trial":0,"err":0.000022800638866474654}
{"t":"u","unit":"c9ecd7e71e251958","pos":5}
{"t":"s","unit":"02131de8cf62b272","pos":6,"alg":"HB","dataset":"BJ-CABS-S","scale":1000000,"domain":"32x32","eps":0.1,"sample":1,"trial":0,"err":0.00003018490544838091}
{"t":"u","unit":"02131de8cf62b272","pos":6}
{"t":"s","unit":"52652dbd23118b8d","pos":7,"alg":"QUADTREE","dataset":"BJ-CABS-S","scale":1000000,"domain":"32x32","eps":0.1,"sample":1,"trial":0,"err":0.00002877122617788089}
{"t":"u","unit":"52652dbd23118b8d","pos":7}
"#;

#[test]
fn runner_ledger_over_a_repeated_2d_dataset_is_pinned() {
    let dataset = dpbench::datasets::catalog::by_name("BJ-CABS-S").unwrap();
    let config = ExperimentConfig {
        datasets: vec![dataset],
        scales: vec![10_000, 1_000_000],
        domains: vec![Domain::D2(32, 32)],
        epsilons: vec![0.1],
        algorithms: vec!["HB".into(), "QUADTREE".into()],
        n_samples: 2,
        n_trials: 1,
        workload: WorkloadSpec::RandomRanges(100),
        loss: Loss::L2,
    };
    let mut runner = Runner::new(config);
    runner.threads = 2;
    let mut bytes = Vec::new();
    {
        let mut sink = JsonlSink::from_writer(&mut bytes);
        runner.run_with_sink(&runner.manifest(), &mut sink).unwrap();
    }
    assert_eq!(String::from_utf8(bytes).unwrap(), GRID_2D_LEDGER);
}
