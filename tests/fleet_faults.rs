//! Fault-matrix e2e suite: drive the fleet driver through the
//! deterministic [`FaultyTransport`] across every remote failure mode —
//! crash mid-unit, hang past the stall timeout, torn copy-back, empty
//! artifact, stale ledger, duplicate relaunch — with and without
//! retries, and assert the merged output stays **byte-identical** to a
//! one-shot single-process run in every surviving case. No real
//! machines, no child processes: the transport runs shards in-process
//! and injects failures by script, so the matrix is exact and fast.

use dpbench::harness::fleet::{
    run_fleet_with, shard_ledger_path, FaultyTransport, FetchFault, FleetOptions, LaunchFault,
};
use dpbench::harness::sink::JsonlSink;
use dpbench::prelude::*;
use dpbench_core::{json, Loss};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tiny_config() -> ExperimentConfig {
    ExperimentConfig {
        datasets: vec![dpbench::datasets::catalog::by_name("MEDCOST").unwrap()],
        scales: vec![10_000],
        domains: vec![Domain::D1(128)],
        epsilons: vec![0.5],
        algorithms: vec!["IDENTITY".into(), "UNIFORM".into()],
        n_samples: 2,
        n_trials: 2,
        workload: WorkloadSpec::Prefix,
        loss: Loss::L2,
    }
}

/// Fresh scratch directory for one test case.
fn tmp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "dpbench-fleet-faults-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).unwrap();
    p
}

/// One-shot single-process reference ledger (the byte oracle).
fn reference(dir: &Path) -> Vec<u8> {
    let path = dir.join("ref.jsonl");
    let runner = Runner::new(tiny_config());
    let mut sink = JsonlSink::create(&path).unwrap();
    runner.run_with_sink(&runner.manifest(), &mut sink).unwrap();
    drop(sink);
    std::fs::read(&path).unwrap()
}

fn opts() -> FleetOptions {
    FleetOptions {
        procs: 2,
        max_attempts: 3,
        poll_interval: Duration::from_millis(5),
        progress_interval: Duration::from_millis(20),
        ..FleetOptions::default()
    }
}

#[test]
fn crash_mid_unit_is_resumed_and_bytes_match() {
    let dir = tmp_dir("crash");
    let oracle = reference(&dir);
    let manifest = Runner::new(tiny_config()).manifest();
    let transport = FaultyTransport::new(tiny_config(), dir.join("remote")).fail_launch(
        1,
        0,
        LaunchFault::Crash {
            after_units: 1,
            torn_tail: false,
        },
    );
    let out = dir.join("fleet.jsonl");
    let report = run_fleet_with(&manifest, &transport, &out, &opts()).unwrap();
    assert_eq!(report.shards[0].attempts, 1);
    assert_eq!(report.shards[1].attempts, 2, "crashed shard retries once");
    assert!(report.shards[1].resumed, "retry must resume, not restart");
    assert_eq!(report.launches, 3);
    assert_eq!(std::fs::read(&out).unwrap(), oracle);
    // Remote scratch space is cleaned up only after the verified merge.
    assert_eq!(transport.cleanups(), vec![0, 1]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_with_torn_remote_tail_heals_on_resume() {
    let dir = tmp_dir("torn-tail");
    let oracle = reference(&dir);
    let manifest = Runner::new(tiny_config()).manifest();
    // The crash tears the remote ledger's final line mid-write; the
    // fetched copy is Partial (torn tail tolerated), and the resuming
    // attempt heals the remote file before appending.
    let transport = FaultyTransport::new(tiny_config(), dir.join("remote")).fail_launch(
        0,
        0,
        LaunchFault::Crash {
            after_units: 1,
            torn_tail: true,
        },
    );
    let out = dir.join("fleet.jsonl");
    let report = run_fleet_with(&manifest, &transport, &out, &opts()).unwrap();
    assert_eq!(report.shards[0].attempts, 2);
    assert!(report.shards[0].resumed);
    assert_eq!(std::fs::read(&out).unwrap(), oracle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_copy_back_heals_on_refetch_without_burning_an_attempt() {
    let dir = tmp_dir("torn-fetch");
    let oracle = reference(&dir);
    let manifest = Runner::new(tiny_config()).manifest();
    // Shard 1 finishes cleanly, but its first copy-back is torn. The
    // remote work is done; a failed *copy* must cost a re-fetch, never a
    // launch attempt — the next round's fetch delivers the full file and
    // the shard counts as complete on its one and only launch.
    let transport = FaultyTransport::new(tiny_config(), dir.join("remote")).fail_fetch(
        1,
        0,
        FetchFault::TornCopy { drop_bytes: 37 },
    );
    let out = dir.join("fleet.jsonl");
    let report = run_fleet_with(&manifest, &transport, &out, &opts()).unwrap();
    assert_eq!(
        report.shards[1].attempts, 1,
        "a torn copy-back is a fetch problem; it must not burn a launch attempt"
    );
    assert_eq!(std::fs::read(&out).unwrap(), oracle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_artifact_heals_on_refetch_without_burning_an_attempt() {
    let dir = tmp_dir("empty");
    let oracle = reference(&dir);
    let manifest = Runner::new(tiny_config()).manifest();
    // One copy-back delivers an empty file (a fetch command that created
    // its output and then died). Like the torn copy, the remote ledger
    // is intact, so the next round's re-fetch completes the shard with
    // no extra launch and no resume.
    let transport = FaultyTransport::new(tiny_config(), dir.join("remote")).fail_fetch(
        0,
        0,
        FetchFault::EmptyArtifact,
    );
    let out = dir.join("fleet.jsonl");
    let report = run_fleet_with(&manifest, &transport, &out, &opts()).unwrap();
    assert_eq!(report.shards[0].attempts, 1);
    assert!(!report.shards[0].resumed);
    assert_eq!(std::fs::read(&out).unwrap(), oracle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hang_is_stall_killed_and_retried() {
    let dir = tmp_dir("hang");
    let oracle = reference(&dir);
    let manifest = Runner::new(tiny_config()).manifest();
    let transport = FaultyTransport::new(tiny_config(), dir.join("remote")).fail_launch(
        1,
        0,
        LaunchFault::Hang,
    );
    let out = dir.join("fleet.jsonl");
    let mut o = opts();
    o.stall_timeout = Some(Duration::from_millis(150));
    // Stealing would route around the hang (the finished shard would
    // take the hung shard's whole tail) — good operationally, but this
    // drill targets the stall-kill machinery itself.
    o.steal = false;
    let report = run_fleet_with(&manifest, &transport, &out, &o).unwrap();
    assert_eq!(report.shards[1].stall_kills, 1, "the hang must be killed");
    assert_eq!(report.shards[1].attempts, 2);
    assert_eq!(report.shards[0].stall_kills, 0);
    assert_eq!(std::fs::read(&out).unwrap(), oracle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_ledger_from_a_different_run_is_a_hard_error() {
    let dir = tmp_dir("stale");
    let manifest = Runner::new(tiny_config()).manifest();
    // The first copy-back delivers a ledger from some other run (stale
    // scratch space). Merging it would poison the output; the driver
    // must refuse loudly instead of retrying its way past it.
    let transport = FaultyTransport::new(tiny_config(), dir.join("remote")).fail_fetch(
        0,
        0,
        FetchFault::StaleLedger,
    );
    let out = dir.join("fleet.jsonl");
    let err = run_fleet_with(&manifest, &transport, &out, &opts()).unwrap_err();
    assert!(
        err.to_string().contains("different run"),
        "unexpected error: {err}"
    );
    assert!(
        transport.cleanups().is_empty(),
        "failed fleets must not clean up remote evidence"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exit_status_is_advisory_the_ledger_is_truth() {
    let dir = tmp_dir("lie");
    let oracle = reference(&dir);
    let manifest = Runner::new(tiny_config()).manifest();
    // Shard 0 does all its work, then reports a failing exit (an ssh
    // that died on the way out). The fetched ledger is complete, so no
    // relaunch happens at all.
    let transport = FaultyTransport::new(tiny_config(), dir.join("remote")).fail_launch(
        0,
        0,
        LaunchFault::LieAboutExit,
    );
    let out = dir.join("fleet.jsonl");
    let report = run_fleet_with(&manifest, &transport, &out, &opts()).unwrap();
    assert_eq!(
        report.shards[0].attempts, 1,
        "a complete ledger must not be relaunched, whatever the exit said"
    );
    assert_eq!(std::fs::read(&out).unwrap(), oracle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repeated_crashes_across_retries_still_converge() {
    let dir = tmp_dir("repeat-crash");
    let oracle = reference(&dir);
    let manifest = Runner::new(tiny_config()).manifest();
    // Two crashing attempts in a row; the third completes the remainder.
    let transport = FaultyTransport::new(tiny_config(), dir.join("remote"))
        .fail_launch(
            1,
            0,
            LaunchFault::Crash {
                after_units: 1,
                torn_tail: false,
            },
        )
        .fail_launch(
            1,
            1,
            LaunchFault::Crash {
                after_units: 0,
                torn_tail: true,
            },
        );
    let out = dir.join("fleet.jsonl");
    let report = run_fleet_with(&manifest, &transport, &out, &opts()).unwrap();
    assert_eq!(report.shards[1].attempts, 3);
    assert!(report.shards[1].resumed);
    assert_eq!(std::fs::read(&out).unwrap(), oracle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_local_partial_copy_with_wiped_remote_relaunches_fresh() {
    let dir = tmp_dir("wiped-remote");
    let oracle = reference(&dir);
    let manifest = Runner::new(tiny_config()).manifest();
    let out = dir.join("fleet.jsonl");
    // A leftover *partial* local copy of shard 0 from an earlier fleet
    // whose remote scratch space has since been wiped. Resuming is
    // impossible (the remote has nothing to resume from); the driver
    // must relaunch fresh instead of looping failed resume attempts.
    let mut partial_runner = Runner::new(tiny_config());
    partial_runner.max_units = Some(1);
    let mut sink = JsonlSink::create(shard_ledger_path(&out, 0)).unwrap();
    partial_runner
        .run_with_sink(&manifest.shard(0, 2), &mut sink)
        .unwrap();
    drop(sink);
    let transport = FaultyTransport::new(tiny_config(), dir.join("remote"));
    let report = run_fleet_with(&manifest, &transport, &out, &opts()).unwrap();
    assert_eq!(report.shards[0].attempts, 1);
    assert!(
        !report.shards[0].resumed,
        "a wiped remote must trigger a fresh relaunch, not a doomed resume"
    );
    assert_eq!(std::fs::read(&out).unwrap(), oracle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exhausted_retries_fail_loudly_and_a_second_fleet_finishes_the_job() {
    let dir = tmp_dir("exhausted");
    let oracle = reference(&dir);
    let manifest = Runner::new(tiny_config()).manifest();
    // First attempt dies after one unit; the retry dies before running
    // anything (after_units: 0), so the shard is still short when the
    // round budget runs out.
    let transport = FaultyTransport::new(tiny_config(), dir.join("remote"))
        .fail_launch(
            1,
            0,
            LaunchFault::Crash {
                after_units: 1,
                torn_tail: false,
            },
        )
        .fail_launch(
            1,
            1,
            LaunchFault::Crash {
                after_units: 0,
                torn_tail: false,
            },
        );
    let out = dir.join("fleet.jsonl");
    let mut o = opts();
    o.max_attempts = 2;
    let err = run_fleet_with(&manifest, &transport, &out, &o).unwrap_err();
    assert!(
        err.to_string().contains("shard 1 did not complete"),
        "unexpected error: {err}"
    );
    // The partial shard ledger survives locally as the crash record…
    let partial = shard_ledger_path(&out, 1);
    assert!(partial.exists());
    // …and a later fleet over the same scratch space resumes straight
    // through to the byte-identical merged output.
    let retry = FaultyTransport::new(tiny_config(), dir.join("remote"));
    let report = run_fleet_with(&manifest, &retry, &out, &opts()).unwrap();
    assert!(report.shards[1].resumed);
    assert_eq!(std::fs::read(&out).unwrap(), oracle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fetch_deferrals_do_not_burn_the_launch_budget() {
    let dir = tmp_dir("defer");
    let oracle = reference(&dir);
    let manifest = Runner::new(tiny_config()).manifest();
    // Shard 1 crashes after one unit, then its next three copy-backs all
    // fail (unreachable network). The remote work is intact the whole
    // time; only the *view* of it is stale. Deferred rounds must burn
    // time, never launch budget — under a round-counting loop the three
    // unreachable rounds would exhaust max_attempts = 3 and the fleet
    // would die without ever relaunching the shard.
    let transport = FaultyTransport::new(tiny_config(), dir.join("remote"))
        .fail_launch(
            1,
            0,
            LaunchFault::Crash {
                after_units: 1,
                torn_tail: false,
            },
        )
        .fail_fetch(1, 1, FetchFault::Unreachable)
        .fail_fetch(1, 2, FetchFault::Unreachable)
        .fail_fetch(1, 3, FetchFault::Unreachable);
    let out = dir.join("fleet.jsonl");
    let mut o = opts();
    o.progress_interval = Duration::from_millis(5);
    let report = run_fleet_with(&manifest, &transport, &out, &o).unwrap();
    assert_eq!(
        report.shards[1].attempts, 2,
        "three deferrals plus one resume must fit a launch budget of 3"
    );
    assert!(report.shards[1].resumed);
    assert_eq!(std::fs::read(&out).unwrap(), oracle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bigger grid for the elasticity drills: 60 units (30 samples × 2
/// algorithms) so a slow shard leaves a meaty stealable tail.
fn drill_config() -> ExperimentConfig {
    ExperimentConfig {
        n_samples: 30,
        ..tiny_config()
    }
}

/// One-shot oracle for [`drill_config`].
fn drill_reference(dir: &Path) -> Vec<u8> {
    let path = dir.join("drill-ref.jsonl");
    let runner = Runner::new(drill_config());
    let mut sink = JsonlSink::create(&path).unwrap();
    runner.run_with_sink(&runner.manifest(), &mut sink).unwrap();
    drop(sink);
    std::fs::read(&path).unwrap()
}

#[test]
fn straggler_tail_is_stolen_and_wall_clock_stays_bounded() {
    let dir = tmp_dir("straggler");
    let oracle = drill_reference(&dir);
    let manifest = Runner::new(drill_config()).manifest();
    let mut o = opts();
    o.procs = 5;
    let fast = Duration::from_millis(40);

    // Baseline: five equally-paced slots. (Every slot gets a slow_slot
    // entry so all five run concurrently on threads; a delay-free
    // fault-free launch runs synchronously and would serialize.)
    let mut base_t = FaultyTransport::new(drill_config(), dir.join("remote-base"));
    for slot in 0..5 {
        base_t = base_t.slow_slot(slot, fast);
    }
    let out_base = dir.join("base.jsonl");
    let started = Instant::now();
    run_fleet_with(&manifest, &base_t, &out_base, &o).unwrap();
    let baseline = started.elapsed();
    assert_eq!(std::fs::read(&out_base).unwrap(), oracle);

    // Straggler: slot 0 runs 10× slower. Without stealing the fleet
    // would take ~10× the baseline (the slow shard alone holds 12 units
    // at 400 ms each); with its tail re-dealt across the four finished
    // slots it must stay near the baseline. The constant term absorbs
    // probe/poll scheduling latency, which doesn't shrink with load.
    let mut slow_t = FaultyTransport::new(drill_config(), dir.join("remote-slow"))
        .slow_slot(0, Duration::from_millis(400));
    for slot in 1..5 {
        slow_t = slow_t.slow_slot(slot, fast);
    }
    let out = dir.join("elastic.jsonl");
    let started = Instant::now();
    let report = run_fleet_with(&manifest, &slow_t, &out, &o).unwrap();
    let elastic = started.elapsed();

    assert!(
        report.steal_launches >= 1,
        "no tails were stolen: {report:?}"
    );
    assert!(report.shards[0].tails_stolen >= 1);
    assert_eq!(
        std::fs::read(&out).unwrap(),
        oracle,
        "stolen tails must merge byte-identically"
    );
    let bound = baseline.mul_f64(1.5) + Duration::from_millis(300);
    assert!(
        elastic <= bound,
        "straggler fleet too slow: {elastic:?} vs baseline {baseline:?} (bound {bound:?})"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fast_thief_releases_its_victim_without_waiting_for_a_probe_tick() {
    let dir = tmp_dir("release-victim");
    let oracle = reference(&dir);
    let manifest = Runner::new(tiny_config()).manifest();
    // Shard 0 finishes inside its launch; shard 1 runs on a slow slot,
    // so the first probe tick re-deals its whole two-unit tail to the
    // idle fast slot. The thief covers it within milliseconds, and its
    // exit must release the victim at once: the next probe tick is a
    // minute away, and the victim alone needs two slow units.
    let slow = Duration::from_secs(2);
    let transport = FaultyTransport::new(tiny_config(), dir.join("remote")).slow_slot(1, slow);
    let out = dir.join("fleet.jsonl");
    let mut o = opts();
    o.progress_interval = Duration::from_secs(60);
    let started = Instant::now();
    let report = run_fleet_with(&manifest, &transport, &out, &o).unwrap();
    let elapsed = started.elapsed();
    assert_eq!(report.steal_launches, 1, "{report:?}");
    assert_eq!(report.steals[0].victim, 1);
    assert!(
        elapsed < slow,
        "the covered victim kept the fleet open for {elapsed:?}"
    );
    assert_eq!(std::fs::read(&out).unwrap(), oracle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slow_thief_is_released_when_its_victim_finishes_first() {
    let dir = tmp_dir("release-thief");
    let oracle = reference(&dir);
    let manifest = Runner::new(tiny_config()).manifest();
    let out = dir.join("fleet.jsonl");
    // Shard 0's ledger is already complete, so slot 0 is idle from the
    // start and shard 1 runs alone. The first probe tick re-deals shard
    // 1's tail to slot 0, which is far slower: the victim finishes its
    // own units first, and the fleet must return then, not when the
    // thief would have.
    let mut sink = JsonlSink::create(shard_ledger_path(&out, 0)).unwrap();
    Runner::new(tiny_config())
        .run_with_sink(&manifest.shard(0, 2), &mut sink)
        .unwrap();
    drop(sink);
    let thief_unit = Duration::from_secs(2);
    let transport = FaultyTransport::new(tiny_config(), dir.join("remote"))
        .slow_slot(0, thief_unit)
        .slow_slot(1, Duration::from_millis(300));
    let started = Instant::now();
    let report = run_fleet_with(&manifest, &transport, &out, &opts()).unwrap();
    let elapsed = started.elapsed();
    assert_eq!(report.launches, 1, "only shard 1 needed a launch");
    assert_eq!(report.steal_launches, 1, "{report:?}");
    assert_eq!(report.shards[1].attempts, 1);
    assert!(
        elapsed < thief_unit,
        "the covered thief kept the fleet open for {elapsed:?}"
    );
    assert_eq!(std::fs::read(&out).unwrap(), oracle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shard 0 finishes inside its launch and shard 1 runs on a slow slot,
/// so the first probe tick re-deals shard 1's whole two-unit tail to
/// slot 0 as steal 0, whose copy-backs carry `fault` at `occurrence`.
fn steal_with_fetch_fault(dir: &Path, occurrence: usize, fault: FetchFault) -> FaultyTransport {
    FaultyTransport::new(tiny_config(), dir.join("remote"))
        .slow_slot(1, Duration::from_millis(300))
        .fail_steal_fetch(0, occurrence, fault)
}

#[test]
fn torn_steal_copy_back_still_merges_byte_identically() {
    let dir = tmp_dir("torn-steal");
    let oracle = reference(&dir);
    let manifest = Runner::new(tiny_config()).manifest();
    // Steal 0's first copy-back loses its last 37 bytes (a torn unit
    // marker). Either a later copy-back heals it, or the victim covers
    // the unit itself; the merge must not care which.
    let transport = steal_with_fetch_fault(&dir, 0, FetchFault::TornCopy { drop_bytes: 37 });
    let out = dir.join("fleet.jsonl");
    let report = run_fleet_with(&manifest, &transport, &out, &opts()).unwrap();
    assert_eq!(report.steal_launches, 1, "{report:?}");
    assert_eq!(report.steals[0].victim, 1);
    assert_eq!(std::fs::read(&out).unwrap(), oracle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_steal_copy_back_is_the_same_hard_error_as_a_stale_shard() {
    let dir = tmp_dir("stale-steal");
    let manifest = Runner::new(tiny_config()).manifest();
    // Steal 0's first copy-back delivers another run's ledger: the same
    // stale-scratch hard error as a stale shard ledger, never a merge.
    let transport = steal_with_fetch_fault(&dir, 0, FetchFault::StaleLedger);
    let out = dir.join("fleet.jsonl");
    let err = run_fleet_with(&manifest, &transport, &out, &opts()).unwrap_err();
    assert!(
        err.to_string().contains("belongs to a different run"),
        "unexpected error: {err}"
    );
    assert!(
        transport.cleanups().is_empty(),
        "failed fleets must not clean up remote evidence"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pull one `"key":<int>` field out of a status line without a JSON
/// parser (the harness deliberately has no JSON dependency).
fn field_usize(s: &str, key: &str) -> Option<usize> {
    let pat = format!("\"{key}\":");
    let i = s.find(&pat)? + pat.len();
    let digits: String = s[i..].chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

#[test]
fn status_file_is_atomic_monotone_and_reaches_complete() {
    let dir = tmp_dir("status");
    let manifest = Runner::new(drill_config()).manifest();
    let total = manifest.len();
    let status = dir.join("status.json");
    let mut o = opts();
    o.procs = 5;
    o.status_file = Some(status.clone());
    let mut t = FaultyTransport::new(drill_config(), dir.join("remote"))
        .slow_slot(0, Duration::from_millis(200));
    for slot in 1..5 {
        t = t.slow_slot(slot, Duration::from_millis(30));
    }

    // Hostile poller: read the file as fast as it can while the fleet
    // runs. Every successful read must be one complete, parseable
    // snapshot (temp+rename means no torn reads), and units_done must
    // never move backwards — not even while tails are being re-dealt.
    let stop = Arc::new(AtomicBool::new(false));
    let poller = {
        let status = status.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || -> Result<usize, String> {
            let mut last = 0usize;
            let mut reads = 0usize;
            while !stop.load(Ordering::Relaxed) {
                if let Ok(s) = std::fs::read_to_string(&status) {
                    if !(s.starts_with("{\"t\":\"fleet-status\"") && s.ends_with("}\n")) {
                        return Err(format!("torn status read: {s:?}"));
                    }
                    let done = field_usize(&s, "units_done")
                        .ok_or_else(|| format!("no units_done in {s:?}"))?;
                    if done < last {
                        return Err(format!("units_done went backwards: {last} -> {done}"));
                    }
                    last = done;
                    reads += 1;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Ok(reads)
        })
    };

    let out = dir.join("fleet.jsonl");
    let report = run_fleet_with(&manifest, &t, &out, &o).unwrap();
    stop.store(true, Ordering::Relaxed);
    let reads = poller
        .join()
        .unwrap()
        .expect("status poller saw a bad read");
    assert!(reads >= 3, "too few status snapshots observed: {reads}");

    // The final snapshot says so explicitly, with every unit accounted.
    let last = std::fs::read_to_string(&status).unwrap();
    assert!(last.contains("\"complete\":true"), "{last}");
    assert_eq!(field_usize(&last, "units_done"), Some(total));
    assert_eq!(field_usize(&last, "units_total"), Some(total));
    // …and its steal half is the report's: every steal, in launch
    // order, none of them still active.
    let snapshot = json::Object::parse(last.trim_end()).unwrap();
    assert_eq!(
        snapshot.num::<usize>("steal_launches"),
        Some(report.steal_launches)
    );
    let Some(json::Value::Arr(steals)) = snapshot.get("steals") else {
        panic!("no steals array in {last}");
    };
    let steals = json::parse_array(steals).unwrap();
    assert_eq!(steals.len(), report.steals.len(), "{last}");
    for (entry, ev) in steals.iter().zip(&report.steals) {
        let json::Value::Obj(text) = entry else {
            panic!("steal entry is not an object: {entry:?}");
        };
        let st = json::Object::parse(text).unwrap();
        let fields =
            ["seq", "victim", "slot", "from_pos", "until_pos", "units"].map(|k| st.num::<usize>(k));
        let expected = [
            ev.seq,
            ev.victim,
            ev.slot,
            ev.from_pos,
            ev.until_pos,
            ev.units,
        ]
        .map(Some);
        assert_eq!(fields, expected, "{text}");
        assert_eq!(st.get("active"), Some(&json::Value::Bool(false)), "{text}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ranged_fetch_moves_only_new_bytes() {
    let dir = tmp_dir("ranged");
    let oracle = reference(&dir);
    let manifest = Runner::new(tiny_config()).manifest();
    // Both slots run slow enough to span several probe ticks with the
    // ranged protocol enabled: each probe should move only the ledger
    // bytes appended since the previous one.
    let t = FaultyTransport::new(tiny_config(), dir.join("remote"))
        .with_ranged()
        .slow_slot(0, Duration::from_millis(60))
        .slow_slot(1, Duration::from_millis(60));
    let out = dir.join("fleet.jsonl");
    let report = run_fleet_with(&manifest, &t, &out, &opts()).unwrap();
    assert_eq!(std::fs::read(&out).unwrap(), oracle);
    assert!(
        report.fetch_ranged_bytes > 0,
        "ranged protocol was offered but never used: {report:?}"
    );
    assert_eq!(
        report.fetch_full_bytes, 0,
        "every copy-back should have gone through the ranged path"
    );
    // O(new bytes): every ledger byte crosses the wire about once, no
    // matter how many probe ticks ran. (The 2× slack covers re-fetched
    // torn tail fragments and defensive re-fetches.) A whole-ledger copy
    // per probe would transfer many multiples of the final size.
    let ledger_bytes: u64 = (0..2)
        .map(|i| std::fs::metadata(shard_ledger_path(&out, i)).unwrap().len())
        .sum();
    assert!(
        report.fetch_ranged_bytes <= 2 * ledger_bytes,
        "ranged fetch re-transferred old bytes: {} moved for {} byte(s) of ledger",
        report.fetch_ranged_bytes,
        ledger_bytes
    );
    assert!(
        report.probe_fetch_bytes.len() >= 2,
        "expected multiple probe ticks: {:?}",
        report.probe_fetch_bytes
    );
    // The same fleet with whole-ledger copy-backs moves more bytes.
    let t = FaultyTransport::new(tiny_config(), dir.join("remote-full"))
        .slow_slot(0, Duration::from_millis(60))
        .slow_slot(1, Duration::from_millis(60));
    let out = dir.join("fleet-full.jsonl");
    let full = run_fleet_with(&manifest, &t, &out, &opts()).unwrap();
    assert_eq!(std::fs::read(&out).unwrap(), oracle);
    assert!(
        report.fetch_ranged_bytes < full.fetch_full_bytes,
        "ranged fetch moved no fewer bytes than whole-ledger copies: {} vs {}",
        report.fetch_ranged_bytes,
        full.fetch_full_bytes
    );
    let _ = std::fs::remove_dir_all(&dir);
}
