//! Fleet end-to-end tests: drive the real `dpbench` binary the way an
//! operator would and pin the acceptance criteria — `dpbench fleet
//! --procs k` produces bytes identical to a one-shot single-process run,
//! including after a shard is killed mid-run and retried, and its
//! `--agg` t-digest summary matches a one-shot `run --agg` byte for byte.

use std::path::PathBuf;
use std::process::Command;

const DPBENCH: &str = env!("CARGO_BIN_EXE_dpbench");

/// The tiny grid every test runs (6 units, 3 trials each).
const GRID: &[&str] = &[
    "--dataset",
    "MEDCOST",
    "--algorithms",
    "IDENTITY,DAWA,UNIFORM",
    "--scale",
    "10000",
    "--domain",
    "256",
    "--trials",
    "3",
    "--samples",
    "2",
    "--threads",
    "2",
];

fn tmp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dpbench-fleet-e2e-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).unwrap();
    p
}

fn dpbench(args: &[&str]) -> std::process::Output {
    Command::new(DPBENCH)
        .args(args)
        .output()
        .expect("spawn dpbench")
}

fn run_ok(args: &[&str]) -> String {
    let out = dpbench(args);
    assert!(
        out.status.success(),
        "dpbench {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// One-shot single-process reference ledger for the shared grid.
fn reference_ledger(dir: &std::path::Path) -> PathBuf {
    let reference = dir.join("ref.jsonl");
    let mut args = vec!["run"];
    args.extend_from_slice(GRID);
    args.extend_from_slice(&["--out", reference.to_str().unwrap()]);
    run_ok(&args);
    reference
}

#[test]
fn fleet_output_is_byte_identical_to_one_shot_run() {
    let dir = tmp_dir("basic");
    let reference = reference_ledger(&dir);
    let merged = dir.join("fleet.jsonl");
    let mut args = vec!["fleet", "--procs", "2"];
    args.extend_from_slice(GRID);
    args.extend_from_slice(&["--out", merged.to_str().unwrap()]);
    let stdout = run_ok(&args);
    assert!(stdout.contains("merged 6 units"), "{stdout}");
    assert_eq!(
        std::fs::read(&reference).unwrap(),
        std::fs::read(&merged).unwrap(),
        "fleet output differs from the one-shot run"
    );
    // Re-running the fleet over complete shard ledgers is a cheap no-op
    // (zero launches) and reproduces the same bytes.
    let stdout = run_ok(&args);
    assert!(stdout.contains("0 launch(es)"), "{stdout}");
    assert_eq!(
        std::fs::read(&reference).unwrap(),
        std::fs::read(&merged).unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_shard_is_resumed_and_fleet_bytes_still_match() {
    let dir = tmp_dir("kill");
    let reference = reference_ledger(&dir);
    let merged = dir.join("fleet.jsonl");
    // Crash drill: shard 1's first attempt dies (exit 3) after 1 unit;
    // the fleet must relaunch it with --resume and still converge.
    let mut args = vec!["fleet", "--procs", "2", "--kill-shard", "1:1"];
    args.extend_from_slice(GRID);
    args.extend_from_slice(&["--out", merged.to_str().unwrap()]);
    let stdout = run_ok(&args);
    assert!(
        stdout.contains("2 launch(es), resumed"),
        "expected shard 1 to be retried with resume:\n{stdout}"
    );
    assert_eq!(
        std::fs::read(&reference).unwrap(),
        std::fs::read(&merged).unwrap(),
        "fleet output after a killed shard differs from the one-shot run"
    );
    // The victim's shard ledger shows both phases, and its log recorded
    // the simulated crash.
    let log = std::fs::read_to_string(dir.join("fleet.shard1.log")).unwrap();
    assert!(log.contains("simulated crash"), "{log}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleet_without_retries_surfaces_the_failed_shard() {
    let dir = tmp_dir("noretry");
    let merged = dir.join("fleet.jsonl");
    let mut args = vec![
        "fleet",
        "--procs",
        "2",
        "--kill-shard",
        "0:1",
        "--retries",
        "0",
    ];
    args.extend_from_slice(GRID);
    args.extend_from_slice(&["--out", merged.to_str().unwrap()]);
    let out = dpbench(&args);
    assert!(!out.status.success(), "fleet must fail with zero retries");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("shard 0 did not complete"),
        "unexpected stderr: {stderr}"
    );
    // The partial shard ledger survives for a later fleet to resume.
    assert!(dir.join("fleet.shard0.jsonl").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleet_merges_shard_summaries_into_union_statistics() {
    let dir = tmp_dir("agg");
    // Single-process reference summary (streamed, no sharding).
    let ref_agg = dir.join("ref.agg.jsonl");
    let mut args = vec!["run"];
    args.extend_from_slice(GRID);
    let ref_out = dir.join("ref.jsonl");
    args.extend_from_slice(&[
        "--out",
        ref_out.to_str().unwrap(),
        "--agg",
        ref_agg.to_str().unwrap(),
    ]);
    run_ok(&args);

    let merged = dir.join("fleet.jsonl");
    let fleet_agg = dir.join("fleet.agg.jsonl");
    let mut args = vec!["fleet", "--procs", "2", "--kill-shard", "0:1"];
    args.extend_from_slice(GRID);
    args.extend_from_slice(&[
        "--out",
        merged.to_str().unwrap(),
        "--agg",
        fleet_agg.to_str().unwrap(),
    ]);
    let stdout = run_ok(&args);
    assert!(stdout.contains("merged t-digest summary"), "{stdout}");
    assert_eq!(
        std::fs::read(&ref_agg).unwrap(),
        std::fs::read(&fleet_agg).unwrap(),
        "fleet --agg summary differs from the one-shot run's"
    );

    // Compare the merged sketch against the single-stream one: exact
    // moments must agree to fp noise; quantiles within the documented
    // digest tolerance.
    let single = dpbench::harness::sink::read_summary(&ref_agg).unwrap();
    let fleet = dpbench::harness::sink::read_summary(&fleet_agg).unwrap();
    assert_eq!(single.samples_seen(), fleet.samples_seen());
    let single_sums = single.summaries();
    let fleet_sums = fleet.summaries();
    assert_eq!(single_sums.len(), fleet_sums.len());
    for ((alg_a, _, a), (alg_b, _, b)) in single_sums.iter().zip(&fleet_sums) {
        assert_eq!(alg_a, alg_b);
        assert_eq!(a.n, b.n);
        assert_eq!(a.min, b.min);
        assert_eq!(a.max, b.max);
        assert!((a.mean - b.mean).abs() <= 1e-12 * a.mean.abs().max(1.0));
        assert!(
            (a.p95 - b.p95).abs() <= (0.05 * a.p95.abs()).max(0.01 * (a.max - a.min)),
            "{alg_a}: single p95 {} vs fleet p95 {}",
            a.p95,
            b.p95
        );
    }

    // A straggler whose tail is stolen gets released (killed) before it
    // could finish, and steals run without `--agg`; the fleet summary
    // must still cover every unit, byte for byte.
    let slow = dir.join("slow.jsonl");
    let slow_agg = dir.join("slow.agg.jsonl");
    let mut args = vec!["fleet", "--procs", "2", "--slow-shard", "1:1000"];
    args.extend_from_slice(GRID);
    args.extend_from_slice(&[
        "--out",
        slow.to_str().unwrap(),
        "--agg",
        slow_agg.to_str().unwrap(),
    ]);
    run_ok(&args);
    assert_eq!(
        std::fs::read(&ref_out).unwrap(),
        std::fs::read(&slow).unwrap(),
        "slow-shard fleet output differs from the one-shot run"
    );
    assert_eq!(
        std::fs::read(&ref_agg).unwrap(),
        std::fs::read(&slow_agg).unwrap(),
        "slow-shard fleet --agg summary differs from the one-shot run's"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn launch_cmd_fleet_with_copy_back_matches_one_shot_bytes() {
    let dir = tmp_dir("remote");
    let reference = reference_ledger(&dir);
    let merged = dir.join("fleet.jsonl");
    let workdir = dir.join("scratch");
    // The command transport with an explicit sh wrapper: shards write
    // into per-shard workdirs and the driver copies ledgers back before
    // merging — the full remote protocol on one machine. The kill drill
    // exercises crash + resume through the same path, and --progress
    // tails the fetched ledgers.
    let mut args = vec![
        "fleet",
        "--procs",
        "2",
        "--kill-shard",
        "1:2",
        "--progress",
        "--launch-cmd",
        "sh -c \"{cmd}\"",
        "--workdir",
    ];
    args.push(workdir.to_str().unwrap());
    args.extend_from_slice(GRID);
    args.extend_from_slice(&["--out", merged.to_str().unwrap()]);
    let out = dpbench(&args);
    assert!(
        out.status.success(),
        "launch-cmd fleet failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read(&reference).unwrap(),
        std::fs::read(&merged).unwrap(),
        "launch-cmd fleet output differs from the one-shot run"
    );
    // Per-shard progress lines: present, monotone, never above the
    // shard's unit count, and converging on done == total.
    let stderr = String::from_utf8_lossy(&out.stderr);
    for shard in 0..2usize {
        let prefix = format!("[fleet] shard {shard}: ");
        let mut last = 0usize;
        let mut total = None;
        let mut seen = 0;
        for line in stderr.lines().filter(|l| l.starts_with(&prefix)) {
            let Some((done, tot)) = line[prefix.len()..]
                .trim_end_matches(" units")
                .split_once('/')
                .and_then(|(d, t)| Some((d.parse::<usize>().ok()?, t.parse::<usize>().ok()?)))
            else {
                continue; // stall/kill lines share the prefix
            };
            assert!(
                done >= last,
                "shard {shard} progress went backwards: {stderr}"
            );
            assert!(
                done <= tot,
                "shard {shard} progress exceeds total: {stderr}"
            );
            last = done;
            total = Some(tot);
            seen += 1;
        }
        assert!(seen >= 1, "no progress lines for shard {shard}: {stderr}");
        assert_eq!(Some(last), total, "shard {shard} never reached done==total");
    }
    // Cleanup removed the per-shard scratch dirs after the verified
    // merge; the local shard ledgers remain as the crash record.
    assert!(!workdir.join("shard0").exists());
    assert!(!workdir.join("shard1").exists());
    assert!(dir.join("fleet.shard0.jsonl").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// `merge --out` naming one of its own inputs is refused before anything
/// is created: creating `--out` truncates it, destroying that input.
#[test]
fn merge_refuses_an_output_that_is_one_of_its_inputs() {
    let dir = tmp_dir("merge-in-place");
    let shards: Vec<String> = (0..2)
        .map(|i| {
            let path = dir.join(format!("s{i}.jsonl")).display().to_string();
            let shard = format!("{i}/2");
            let mut args = vec!["run"];
            args.extend_from_slice(GRID);
            args.extend_from_slice(&["--out", &path, "--shard", &shard]);
            run_ok(&args);
            path
        })
        .collect();
    let before = std::fs::read(&shards[0]).unwrap();
    // The same file under another spelling.
    let out_path = dir.join(".").join("s0.jsonl").display().to_string();
    let out = dpbench(&["merge", "--out", &out_path, &shards[0], &shards[1]]);
    assert!(!out.status.success(), "merge into its own input accepted");
    assert_eq!(
        std::fs::read(&shards[0]).unwrap(),
        before,
        "the input ledger must be left intact"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(&shards[0]), "unexpected stderr: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_flag_names_are_rejected() {
    // Regression: a misspelled flag *name* (--trails for --trials) used
    // to land unread in the flag map, silently running the default grid
    // — the same bug class as malformed flag values.
    let out = dpbench(&["run", "--dataset", "MEDCOST", "--trails", "10"]);
    assert!(!out.status.success(), "--trails accepted");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag --trails"),
        "unexpected stderr: {stderr}"
    );
    // run-only flags are not fleet flags…
    let out = dpbench(&[
        "fleet",
        "--procs",
        "2",
        "--fail-after",
        "1",
        "--dataset",
        "MEDCOST",
        "--out",
        "/tmp/never-written.jsonl",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag --fail-after"),
        "unexpected stderr: {stderr}"
    );
    // …and fleet-only flags are not run flags.
    let out = dpbench(&["run", "--dataset", "MEDCOST", "--procs", "2"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag --procs"),
        "unexpected stderr: {stderr}"
    );
    // Scripts that still pass `serve --batch-window-ms` or `--poller`,
    // or `run`/`fleet --data-cache-mb`, must fail, not run with the flag
    // ignored.
    let never = "/tmp/never-written.jsonl";
    for args in [
        &["serve", "--batch-window-ms", "5"][..],
        &["serve", "--poller", "poll"],
        &["run", "--dataset", "MEDCOST", "--data-cache-mb", "64"],
        &[
            "fleet",
            "--procs",
            "2",
            "--dataset",
            "MEDCOST",
            "--out",
            never,
            "--data-cache-mb",
            "64",
        ],
    ] {
        let out = dpbench(args);
        assert_eq!(out.status.code(), Some(1), "{args:?} accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let flag = args[args.len() - 2];
        assert!(
            stderr.contains(&format!("unknown flag {flag}")),
            "unexpected stderr: {stderr}"
        );
    }
    // Boolean flags take bare form or 0/1 — `--progress true` silently
    // meaning "off" would be another silent misparse.
    let out = dpbench(&["run", "--dataset", "MEDCOST", "--verbose", "true"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("bad --verbose value"),
        "unexpected stderr: {stderr}"
    );
    // Every subcommand reads its arguments through the same parser: a
    // stray flag is an error, never an input file or a silent no-op.
    for args in [
        &["merge", "--verbose"][..],
        &["recommend", "--trials", "3"],
        &["list-datasets", "--foo"],
    ] {
        let out = dpbench(args);
        assert_eq!(out.status.code(), Some(1), "{args:?} accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag {}", args[1])),
            "unexpected stderr for {args:?}: {stderr}"
        );
    }
}

#[test]
fn run_creates_missing_ledger_parent_directories() {
    // Regression: a shard launched on a remote machine is the only
    // process there — nothing else can have made its workdir, so
    // `run --out` must create parent directories itself.
    let dir = tmp_dir("mkdirs");
    let out = dir.join("nested/deeper/run.jsonl");
    let agg = dir.join("other/run.agg.jsonl");
    let mut args = vec!["run"];
    args.extend_from_slice(GRID);
    args.extend_from_slice(&[
        "--out",
        out.to_str().unwrap(),
        "--agg",
        agg.to_str().unwrap(),
    ]);
    run_ok(&args);
    assert!(out.exists());
    assert!(agg.exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn non_finite_stall_timeout_is_an_error_not_a_panic() {
    // Regression: `inf` parses as a positive f64 and used to panic
    // inside Duration::from_secs_f64 instead of failing cleanly.
    for bad in ["inf", "nan", "1e300"] {
        let mut args = vec!["fleet", "--procs", "2", "--stall-timeout", bad];
        args.extend_from_slice(GRID);
        args.extend_from_slice(&["--out", "/tmp/never-written.jsonl"]);
        let out = dpbench(&args);
        assert!(!out.status.success(), "--stall-timeout {bad} accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("error:") && stderr.contains("stall-timeout"),
            "unexpected stderr for {bad}: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "--stall-timeout {bad} panicked: {stderr}"
        );
    }
}

#[test]
fn launch_cmd_requires_a_workdir() {
    let mut args = vec!["fleet", "--procs", "2", "--launch-cmd", "{cmd}"];
    args.extend_from_slice(GRID);
    args.extend_from_slice(&["--out", "/tmp/never-written.jsonl"]);
    let out = dpbench(&args);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--workdir"), "unexpected stderr: {stderr}");
}

#[test]
fn kill_shard_out_of_range_is_rejected_at_parse_time() {
    // Regression: an out-of-range victim index must be a loud parse
    // error naming the valid range — a drill aimed at a nonexistent
    // shard would otherwise "pass" while testing nothing. (The boundary
    // index procs-1 is exercised by the kill drills above.)
    for bad in ["2:1", "5:1"] {
        let mut args = vec!["fleet", "--procs", "2", "--kill-shard", bad];
        args.extend_from_slice(GRID);
        args.extend_from_slice(&["--out", "/tmp/never-written.jsonl"]);
        let out = dpbench(&args);
        assert!(!out.status.success(), "--kill-shard {bad} accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("out of range") && stderr.contains("0..=1"),
            "unexpected stderr for {bad}: {stderr}"
        );
    }
    // Malformed spellings get the format error, not the range error.
    let mut args = vec!["fleet", "--procs", "2", "--kill-shard", "1-2"];
    args.extend_from_slice(GRID);
    args.extend_from_slice(&["--out", "/tmp/never-written.jsonl"]);
    let out = dpbench(&args);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("use i:N"), "unexpected stderr: {stderr}");
}

/// Run each argv and require exit 1 with `expected` on stderr and no
/// panic; report every row that fails.
fn assert_rejected(cases: &[(Vec<String>, &str)]) {
    let failures: Vec<String> = cases
        .iter()
        .filter_map(|(args, expected)| {
            let out = Command::new(DPBENCH)
                .args(args)
                .output()
                .expect("spawn dpbench");
            let stderr = String::from_utf8_lossy(&out.stderr);
            let rejected = out.status.code() == Some(1)
                && stderr.contains(expected)
                && !stderr.contains("panicked");
            (!rejected).then(|| {
                format!(
                    "{args:?}: exit {:?}, want {expected:?} on stderr: {}",
                    out.status.code(),
                    stderr.lines().next().unwrap_or("")
                )
            })
        })
        .collect();
    assert!(
        failures.is_empty(),
        "{} row(s) not rejected as expected:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

fn argv(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

#[test]
fn malformed_numeric_flags_are_errors_not_defaults() {
    // Regression: numeric flags used to fall back to their defaults on
    // unparseable values, silently benchmarking the wrong grid. One row
    // per flag whose value has a grammar; file paths and command
    // templates (`--out`, `--launch-cmd`, …) take any string.
    let never = "/tmp/never-written.jsonl";
    // The grid flags `run` and `fleet` share, checked under both.
    let grid: &[(&str, &str, &str)] = &[
        ("--dataset", "NOPE", "unknown dataset NOPE"),
        ("--algorithms", "IDENTITY,NOPE", "unknown algorithm NOPE"),
        ("--scale", "-3", "bad --scale value"),
        ("--domain", "16y16", "bad --domain"),
        ("--eps", "zero", "bad --eps value"),
        ("--trials", "abc", "bad --trials value"),
        ("--samples", "2x", "bad --samples value"),
        ("--workload", "random:x", "bad workload random:x"),
        ("--loss", "l3", "unknown loss l3"),
        ("--threads", "many", "bad --threads value"),
    ];
    let mut cases = Vec::new();
    for &(flag, value, expected) in grid {
        let mut run = argv(&["run", "--dataset", "MEDCOST", flag, value]);
        if flag == "--dataset" {
            run.drain(1..3);
        }
        let mut fleet = argv(&["fleet", "--procs", "2", "--out", never]);
        fleet.extend(run[1..].iter().cloned());
        cases.push((run, expected));
        cases.push((fleet, expected));
    }
    let run_only: &[(&str, &str, &str)] = &[
        ("--shard", "4/4", "bad --shard"),
        ("--from-pos", "x", "bad --from-pos value"),
        ("--until-pos", "-1", "bad --until-pos value"),
        ("--max-units", "x", "bad --max-units value"),
        ("--fail-after", "x", "bad --fail-after value"),
        ("--unit-delay-ms", "1.5", "bad --unit-delay-ms value"),
    ];
    for &(flag, value, expected) in run_only {
        cases.push((
            argv(&["run", "--dataset", "MEDCOST", flag, value]),
            expected,
        ));
    }
    let fleet_only: &[(&str, &str, &str)] = &[
        ("--procs", "two", "bad --procs value"),
        ("--retries", "x", "bad --retries value"),
        ("--kill-shard", "1-2", "bad --kill-shard"),
        ("--slow-shard", "1:x", "bad --slow-shard"),
        ("--stall-timeout", "soon", "bad --stall-timeout value"),
    ];
    for &(flag, value, expected) in fleet_only {
        let mut args = argv(&["fleet", "--procs", "2", "--dataset", "MEDCOST"]);
        args.extend(argv(&["--out", never, flag, value]));
        cases.push((args, expected));
    }
    // No row names a tenant, so no row can start a server.
    let serve: &[(&str, &str, &str)] = &[
        ("--port", "99999", "bad --port value"),
        ("--datasets", "MEDCOST,NOPE", "unknown dataset NOPE"),
        ("--scale", "1e5", "bad --scale value"),
        ("--domain", "4z", "bad --domain"),
        ("--tenants", "alice", "bad tenant grant"),
        ("--max-conns", "x", "bad --max-conns value"),
        ("--max-queue", "x", "bad --max-queue value"),
        ("--max-wait-ms", "x", "bad --max-wait-ms value"),
        ("--header-timeout-ms", "x", "bad --header-timeout-ms value"),
        ("--idle-timeout-ms", "x", "bad --idle-timeout-ms value"),
        ("--write-timeout-ms", "x", "bad --write-timeout-ms value"),
        ("--rate-limit", "fast", "bad rate limit"),
        ("--threads", "x", "bad --threads value"),
        ("--seed", "-1", "bad --seed value"),
    ];
    for &(flag, value, expected) in serve {
        cases.push((argv(&["serve", "--port", "0", flag, value]), expected));
    }
    let dir = tmp_dir("malformed");
    let grants = dir.join("tenants.toml");
    std::fs::write(&grants, "alice = lots\n").unwrap();
    let grants = grants.to_str().unwrap();
    cases.push((argv(&["serve", "--tenant-config", grants]), "bad epsilon"));
    // recommend reads its summaries first, so its query rows need a real
    // one.
    let summary = dir.join("run.agg.jsonl");
    let summary = summary.to_str().unwrap();
    let mut args = vec!["run"];
    args.extend_from_slice(GRID);
    args.extend_from_slice(&["--agg", summary]);
    run_ok(&args);
    let recommend: &[(&str, &str, &str)] = &[
        ("--domain", "x", "bad --domain"),
        ("--scale", "x", "bad --scale value"),
        ("--eps", "x", "bad --eps value"),
        ("--eps", "0", "--eps must be positive and finite"),
        ("--dataset", "NOPE", "unknown dataset NOPE"),
    ];
    for &(flag, value, expected) in recommend {
        let mut args = argv(&["recommend", "--summaries", summary, "--dataset", "MEDCOST"]);
        args.extend(argv(&[
            "--domain", "256", "--scale", "10000", "--eps", "0.1",
        ]));
        args.extend(argv(&[flag, value]));
        cases.push((args, expected));
    }
    cases.push((
        argv(&["recommend", "--summaries", ",", "--eps", "0.1"]),
        "--summaries needs at least one file",
    ));
    assert_rejected(&cases);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unrunnable_grids_fail_at_parse_time() {
    // Regression: an ε that is not positive and finite, or a domain the
    // dataset cannot coarsen to, panicked a worker thread (exit 101) or,
    // under `fleet`, burned every launch attempt; a domain of the wrong
    // dimensionality or zero trials ran an empty grid and exited 0.
    let never = "/tmp/never-written.jsonl";
    let mut cases = Vec::new();
    for eps in ["-1", "0", "nan", "inf"] {
        let run = argv(&["run", "--dataset", "MEDCOST", "--eps", eps]);
        cases.push((run, "is not positive and finite"));
    }
    let grid_rows: &[(&[&str], &str)] = &[
        (&["--domain", "100"], "cannot coarsen"),
        (&["--domain", "0"], "cannot coarsen"),
        (&["--domain", "8x8"], "no setting"),
        (&["--trials", "0"], "at least one trial"),
        (&["--samples", "0"], "at least one sample"),
        (&["--threads", "0"], "bad --threads value"),
        (
            &["--workload", "random:0"],
            "workload random:0 is out of range",
        ),
    ];
    for (extra, expected) in grid_rows {
        let mut run = argv(&["run", "--dataset", "MEDCOST"]);
        run.extend(argv(extra));
        cases.push((run, *expected));
    }
    // The Prefix workload is 1-D only: on a 2-D grid it panicked a worker.
    let run = argv(&[
        "run",
        "--dataset",
        "BJ-CABS-S",
        "--domain",
        "32x32",
        "--workload",
        "prefix",
        "--trials",
        "1",
        "--samples",
        "1",
        "--algorithms",
        "IDENTITY",
    ]);
    cases.push((run, "prefix workload is 1-D only"));
    let mut fleet = argv(&["fleet", "--procs", "2", "--eps", "0", "--out", never]);
    fleet.extend(argv(GRID));
    cases.push((fleet, "is not positive and finite"));
    let mut fleet = argv(&["fleet", "--procs", "0", "--out", never]);
    fleet.extend(argv(GRID));
    cases.push((fleet, "bad --procs value"));
    // A repeated algorithm wrote two units under one id, and the summary
    // counted every trial twice; neither command may write a file.
    let dir = tmp_dir("repeated-entry");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (ledger, summary) = (path("d.jsonl"), path("a.jsonl"));
    let repeated = ["--dataset", "MEDCOST", "--algorithms", "IDENTITY,IDENTITY"];
    let mut run = argv(&["run", "--domain", "64", "--trials", "3"]);
    run.extend(argv(&repeated));
    run.extend(argv(&["--out", &ledger, "--agg", &summary]));
    cases.push((run, "algorithm IDENTITY is listed twice"));
    let mut fleet = argv(&["fleet", "--procs", "2", "--out", &ledger, "--agg", &summary]);
    fleet.extend(argv(&repeated));
    cases.push((fleet, "algorithm IDENTITY is listed twice"));
    let serve = argv(&["serve", "--port", "0", "--tenants", "a=1", "--domain", "0"]);
    cases.push((serve, "cannot coarsen"));
    cases.push((
        argv(&["serve", "--port", "0", "--threads", "0"]),
        "bad --threads value",
    ));
    assert_rejected(&cases);
    let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(left.is_empty(), "a refused grid wrote {left:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_merge_keeps_an_existing_out_and_names_the_bad_input() {
    // Regression: `merge` created (truncated) `--out` before reading its
    // inputs, so a missing input emptied an existing output, and the
    // error did not say which input was missing.
    let dir = tmp_dir("merge-missing");
    let keep = dir.join("keep.jsonl");
    std::fs::write(&keep, "precious\n").unwrap();
    let missing = dir.join("missing.jsonl");
    let out = dpbench(&[
        "merge",
        "--out",
        keep.to_str().unwrap(),
        missing.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(std::fs::read(&keep).unwrap(), b"precious\n");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(missing.to_str().unwrap()),
        "stderr does not name the missing input: {stderr}"
    );
    let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert_eq!(left.len(), 1, "the failed merge left a file behind");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bare_boolean_flags_are_accepted() {
    let dir = tmp_dir("bareflags");
    let ledger = dir.join("run.jsonl");
    // --verbose without a value, trailed by another flag.
    let mut args = vec!["run", "--verbose"];
    args.extend_from_slice(GRID);
    args.extend_from_slice(&["--out", ledger.to_str().unwrap(), "--max-units", "2"]);
    let stdout = run_ok(&args);
    assert!(stdout.contains("plan cache"), "--verbose ignored: {stdout}");
    // Bare --resume finishes the run; --resume 1 (the old spelling) then
    // no-ops over the complete ledger.
    let mut args = vec!["run"];
    args.extend_from_slice(GRID);
    args.extend_from_slice(&["--out", ledger.to_str().unwrap(), "--resume"]);
    run_ok(&args);
    let mut args = vec!["run"];
    args.extend_from_slice(GRID);
    args.extend_from_slice(&["--out", ledger.to_str().unwrap(), "--resume", "1"]);
    let stdout = run_ok(&args);
    assert!(
        stdout.contains("6 units already in ledger, 0 run now"),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_mismatch_names_the_diverging_config_field() {
    let dir = tmp_dir("mismatch");
    let ledger = dir.join("run.jsonl");
    let mut args = vec!["run"];
    args.extend_from_slice(GRID);
    args.extend_from_slice(&["--out", ledger.to_str().unwrap()]);
    run_ok(&args);
    // Same ledger, different scale and eps: the error must say which
    // fields moved, not just "fingerprint mismatch".
    let mut args = vec![
        "run",
        "--dataset",
        "MEDCOST",
        "--algorithms",
        "IDENTITY,DAWA,UNIFORM",
        "--scale",
        "99000",
        "--domain",
        "256",
        "--trials",
        "3",
        "--samples",
        "2",
        "--eps",
        "0.5",
    ];
    args.extend_from_slice(&["--out", ledger.to_str().unwrap(), "--resume"]);
    let out = dpbench(&args);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("scales: ledger=10000 current=99000"),
        "missing scale diff: {stderr}"
    );
    assert!(
        stderr.contains("eps: ledger=0.1 current=0.5"),
        "missing eps diff: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slow_shard_fleet_with_status_file_converges_byte_identically() {
    let dir = tmp_dir("elastic");
    let reference = reference_ledger(&dir);
    let merged = dir.join("fleet.jsonl");
    let status = dir.join("status.json");
    // Straggler drill against the real binary: shard 1 sleeps 150 ms per
    // unit while shard 0 runs at full speed, and a status file tracks
    // the fleet. Whether the driver steals shard 1's tail is a timing
    // race at this scale (6 units); the byte oracle and the status feed
    // must hold either way.
    let mut args = vec![
        "fleet",
        "--procs",
        "2",
        "--slow-shard",
        "1:150",
        "--progress",
    ];
    args.extend_from_slice(GRID);
    args.extend_from_slice(&[
        "--out",
        merged.to_str().unwrap(),
        "--status-file",
        status.to_str().unwrap(),
    ]);
    let stdout = run_ok(&args);
    assert!(stdout.contains("merged 6 units"), "{stdout}");
    assert_eq!(
        std::fs::read(&reference).unwrap(),
        std::fs::read(&merged).unwrap(),
        "slow-shard fleet output differs from the one-shot run"
    );
    // The final status snapshot is a single complete line.
    let s = std::fs::read_to_string(&status).unwrap();
    assert!(
        s.starts_with("{\"t\":\"fleet-status\"") && s.ends_with("}\n"),
        "malformed status file: {s:?}"
    );
    assert!(s.contains("\"complete\":true"), "{s}");
    assert!(s.contains("\"units_done\":6"), "{s}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A shard's exit wakes the driver: with a 10 s poll interval, the fleet
/// over two real `dpbench run --shard i/2` children still returns within
/// seconds, because the wait between polls ends when a child exits (a
/// driver that slept out its interval would take at least 10 s), and
/// its output is the one-shot ledger byte for byte.
#[test]
fn a_shard_exit_wakes_the_driver_before_its_poll_interval() {
    use dpbench::harness::fleet::{
        run_fleet_with, FleetOptions, LaunchSpec, LocalTransport, ShardLauncher,
    };
    use dpbench::harness::RunManifest;
    use dpbench::prelude::*;
    use std::process::{Child, Stdio};
    use std::time::{Duration, Instant};

    const FLAGS: &[&str] = &[
        "--dataset",
        "MEDCOST",
        "--algorithms",
        "IDENTITY,UNIFORM",
        "--scale",
        "10000",
        "--domain",
        "256",
        "--eps",
        "0.1",
        "--trials",
        "3",
        "--samples",
        "2",
        "--workload",
        "prefix",
        "--loss",
        "l2",
    ];
    struct Launcher;
    impl ShardLauncher for Launcher {
        fn launch(&self, spec: &LaunchSpec) -> std::io::Result<Child> {
            Command::new(DPBENCH)
                .arg("run")
                .args(FLAGS)
                .arg("--out")
                .arg(&spec.ledger)
                .arg("--shard")
                .arg(format!("{}/{}", spec.index, spec.procs))
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
        }
    }

    let dir = tmp_dir("exit-wake");
    let reference = dir.join("ref.jsonl");
    let mut args = vec!["run"];
    args.extend_from_slice(FLAGS);
    args.extend_from_slice(&["--out", reference.to_str().unwrap()]);
    run_ok(&args);
    let manifest = RunManifest::from_config(&ExperimentConfig {
        datasets: vec![dpbench::datasets::catalog::by_name("MEDCOST").unwrap()],
        scales: vec![10_000],
        domains: vec![Domain::D1(256)],
        epsilons: vec![0.1],
        algorithms: vec!["IDENTITY".into(), "UNIFORM".into()],
        n_samples: 2,
        n_trials: 3,
        workload: WorkloadSpec::Prefix,
        loss: Loss::L2,
    });
    let out = dir.join("fleet.jsonl");
    let opts = FleetOptions {
        procs: 2,
        poll_interval: Duration::from_secs(10),
        ..FleetOptions::default()
    };
    let started = Instant::now();
    let report = run_fleet_with(
        &manifest,
        &LocalTransport {
            launcher: &Launcher,
        },
        &out,
        &opts,
    )
    .unwrap();
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(5),
        "the fleet slept out its poll interval: {took:?}"
    );
    assert_eq!(report.merged_units, manifest.len());
    assert_eq!(
        std::fs::read(&out).unwrap(),
        std::fs::read(&reference).unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A ledger written for one shard cannot be resumed as a shard whose
/// pending units sit below the units it completed: appending them would
/// put its unit markers out of order, a file no reader accepts. The
/// resume fails before it runs anything, names the ledger and both
/// positions, and leaves the file as it was. So does a resume over a
/// ledger whose first unit lost a trial, and a run whose `--out` cannot
/// be created; none of them announces a run on stdout.
#[test]
fn resume_that_would_append_below_completed_units_is_refused() {
    let dir = tmp_dir("cross-span");
    let ledger = dir.join("L.jsonl");
    let mut args = vec!["run"];
    args.extend_from_slice(GRID);
    args.extend_from_slice(&["--out", ledger.to_str().unwrap(), "--shard", "1/2"]);
    run_ok(&args);
    let before = std::fs::read(&ledger).unwrap();
    // Shard 1/2 is positions 3–5; shard 1/4 is position 2 alone.
    let mut args = vec!["run"];
    args.extend_from_slice(GRID);
    args.extend_from_slice(&[
        "--out",
        ledger.to_str().unwrap(),
        "--shard",
        "1/4",
        "--resume",
    ]);
    let refused = |args: &[&str], what: &str| {
        let out = dpbench(args);
        assert_eq!(out.status.code(), Some(1));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!stdout.contains("running"), "{stdout}");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(stderr.contains(what), "{stderr}");
        stderr
    };
    let stderr = refused(&args, ledger.to_str().unwrap());
    assert!(
        stderr.contains("position 2") && stderr.contains("position 5"),
        "{stderr}"
    );
    assert_eq!(std::fs::read(&ledger).unwrap(), before);

    // Lines 2–4 are the first unit's trials: without line 3 its marker
    // closes a unit one trial short.
    let short = dir.join("short.jsonl");
    let text = std::fs::read_to_string(reference_ledger(&dir)).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    lines.remove(2);
    std::fs::write(&short, lines.join("\n") + "\n").unwrap();
    let before = std::fs::read(&short).unwrap();
    let mut args = vec!["run"];
    args.extend_from_slice(GRID);
    args.extend_from_slice(&["--out", short.to_str().unwrap(), "--resume"]);
    refused(&args, "line 4:");
    assert_eq!(std::fs::read(&short).unwrap(), before);

    // A directory cannot be created as a ledger.
    let mut args = vec!["run"];
    args.extend_from_slice(GRID);
    args.extend_from_slice(&["--out", dir.to_str().unwrap()]);
    refused(&args, "creating");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fleet re-run with another `--procs` over the same `--out` deals
/// other blocks. A left-over shard ledger that its new shard would
/// resume out of order is refused before any shard launches.
#[test]
fn fleet_refuses_shard_ledgers_left_by_another_procs_before_launching() {
    let dir = tmp_dir("reprocs");
    let merged = dir.join("fleet.jsonl");
    let fleet = |procs: &str| {
        let mut args = vec!["fleet", "--procs", procs];
        args.extend_from_slice(GRID);
        args.extend_from_slice(&["--out", merged.to_str().unwrap()]);
        dpbench(&args)
    };
    assert!(fleet("2").status.success());
    let shard1 = dir.join("fleet.shard1.jsonl");
    let before = std::fs::read(&shard1).unwrap();
    // Shard 1 of 2 holds positions 3–5; shard 1 of 4 is position 2.
    let out = fleet("4");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(shard1.to_str().unwrap()) && stderr.contains("move it aside"),
        "{stderr}"
    );
    assert_eq!(std::fs::read(&shard1).unwrap(), before);
    for i in [2, 3] {
        let ledger = dir.join(format!("fleet.shard{i}.jsonl"));
        assert!(!ledger.exists(), "shard {i} launched before the refusal");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
