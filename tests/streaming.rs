//! Streaming-engine integration tests: checkpoint/resume determinism,
//! shard-merge bit-identity, JSONL ledger round-trips, and streaming
//! aggregation — the contract the ISSUE's acceptance criteria pin:
//! a sharded run and a kill-then-resume run must reproduce the
//! single-process grid **bit-identically**, across thread counts.

use dpbench::harness::manifest::{RunManifest, UnitId};
use dpbench::harness::sink::{self, AggregatingSink, JsonlSink, MemorySink, ResultSink, Tee};
use dpbench::prelude::*;
use dpbench_core::Loss;
use std::collections::HashSet;
use std::path::PathBuf;

fn tiny_config() -> ExperimentConfig {
    ExperimentConfig {
        datasets: vec![dpbench::datasets::catalog::by_name("MEDCOST").unwrap()],
        scales: vec![10_000],
        domains: vec![Domain::D1(256)],
        epsilons: vec![0.1, 1.0],
        algorithms: vec!["IDENTITY".into(), "DAWA".into(), "GREEDY_H".into()],
        n_samples: 2,
        n_trials: 3,
        workload: WorkloadSpec::Prefix,
        loss: Loss::L2,
    }
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dpbench-streaming-{name}-{}", std::process::id()));
    p
}

/// Canonical comparable form of a sample set.
fn keyed(store: &ResultStore) -> Vec<(String, String, usize, usize, u64)> {
    let mut v: Vec<_> = store
        .samples()
        .iter()
        .map(|s| {
            (
                s.algorithm.clone(),
                s.setting.to_string(),
                s.sample,
                s.trial,
                s.error.to_bits(),
            )
        })
        .collect();
    v.sort();
    v
}

#[test]
fn kill_and_resume_is_bit_identical_across_thread_counts() {
    // Reference: uninterrupted single-threaded run.
    let mut reference = Runner::new(tiny_config());
    reference.threads = 1;
    let ref_store = reference.run();

    for threads in [1_usize, 4] {
        let path = tmp(&format!("resume-{threads}"));
        let _ = std::fs::remove_file(&path);

        // Phase 1: "crash" after 7 units, ledger on disk.
        let mut first = Runner::new(tiny_config());
        first.threads = threads;
        first.max_units = Some(7);
        let manifest = first.manifest();
        let mut jsonl = JsonlSink::create(&path).unwrap();
        let stats = first.run_with_sink(&manifest, &mut jsonl).unwrap();
        assert_eq!(stats.units, 7);
        drop(jsonl);

        // Phase 2: resume from the ledger.
        let ledger = sink::read_ledger(&path).unwrap();
        assert_eq!(ledger.fingerprint, manifest.fingerprint);
        assert_eq!(ledger.done.len(), 7);
        let mut second = Runner::new(tiny_config());
        second.threads = threads;
        let mut append = JsonlSink::append(&path).unwrap();
        let stats = second.resume(&manifest, &ledger.done, &mut append).unwrap();
        assert_eq!(stats.skipped, 7);
        assert_eq!(stats.units, manifest.len() - 7);
        drop(append);

        // The merged ErrorSample set is bit-identical to the
        // uninterrupted run.
        let resumed = sink::read_store(&path).unwrap();
        assert_eq!(
            keyed(&resumed),
            keyed(&ref_store),
            "threads = {threads}: resume diverged from uninterrupted run"
        );
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn resumed_ledger_is_byte_identical_to_uninterrupted_file() {
    // In-order emission makes the *file* — not just the sample set —
    // reproducible: interrupted-then-resumed bytes == one-shot bytes.
    let ref_path = tmp("oneshot");
    let cut_path = tmp("cut");
    for p in [&ref_path, &cut_path] {
        let _ = std::fs::remove_file(p);
    }

    let runner = Runner::new(tiny_config());
    let manifest = runner.manifest();
    let mut oneshot = JsonlSink::create(&ref_path).unwrap();
    runner.run_with_sink(&manifest, &mut oneshot).unwrap();
    drop(oneshot);

    let mut first = Runner::new(tiny_config());
    first.threads = 4;
    first.max_units = Some(5);
    let mut part = JsonlSink::create(&cut_path).unwrap();
    first.run_with_sink(&manifest, &mut part).unwrap();
    drop(part);
    let done = sink::read_ledger(&cut_path).unwrap().done;
    let mut rest = JsonlSink::append(&cut_path).unwrap();
    Runner::new(tiny_config())
        .resume(&manifest, &done, &mut rest)
        .unwrap();
    drop(rest);

    let a = std::fs::read(&ref_path).unwrap();
    let b = std::fs::read(&cut_path).unwrap();
    assert_eq!(a, b, "resumed ledger bytes differ from one-shot run");
    for p in [&ref_path, &cut_path] {
        std::fs::remove_file(p).unwrap();
    }
}

#[test]
fn sharded_jsonl_files_merge_to_the_single_process_bytes() {
    let runner = Runner::new(tiny_config());
    let manifest = runner.manifest();
    let ref_path = tmp("shard-ref");
    let _ = std::fs::remove_file(&ref_path);
    let mut reference = JsonlSink::create(&ref_path).unwrap();
    runner.run_with_sink(&manifest, &mut reference).unwrap();
    drop(reference);

    let mut shard_paths = Vec::new();
    for i in 0..3 {
        let path = tmp(&format!("shard-{i}"));
        let _ = std::fs::remove_file(&path);
        let shard_runner = Runner::new(tiny_config());
        let mut jsonl = JsonlSink::create(&path).unwrap();
        shard_runner
            .run_with_sink(&manifest.shard(i, 3), &mut jsonl)
            .unwrap();
        drop(jsonl);
        shard_paths.push(path);
    }

    let mut merged = Vec::new();
    sink::merge_jsonl(&shard_paths, &mut merged).unwrap();
    let reference_bytes = std::fs::read(&ref_path).unwrap();
    assert_eq!(
        merged, reference_bytes,
        "merged shards differ from the single-process run"
    );
    std::fs::remove_file(&ref_path).unwrap();
    for p in &shard_paths {
        std::fs::remove_file(p).unwrap();
    }
}

#[test]
fn jsonl_roundtrip_matches_memory_store_bitwise() {
    let path = tmp("roundtrip");
    let _ = std::fs::remove_file(&path);
    let runner = Runner::new(tiny_config());
    let manifest = runner.manifest();
    let mut memory = MemorySink::new();
    let mut jsonl = JsonlSink::create(&path).unwrap();
    let mut tee = Tee::new(vec![&mut memory as &mut dyn ResultSink, &mut jsonl]);
    runner.run_with_sink(&manifest, &mut tee).unwrap();
    drop(tee);
    drop(jsonl);

    let from_disk = sink::read_store(&path).unwrap();
    assert_eq!(keyed(&from_disk), keyed(memory.store()));
    // Shortest round-trip float formatting: error values survive exactly.
    assert_eq!(
        from_disk.samples().len(),
        manifest.len() * 3 // n_trials
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn torn_ledger_tail_is_recovered_from() {
    // A crash can truncate the file mid-line; the readers must ignore the
    // torn tail and resume must complete the missing units.
    let path = tmp("torn");
    let _ = std::fs::remove_file(&path);
    let mut first = Runner::new(tiny_config());
    first.max_units = Some(4);
    let manifest = first.manifest();
    let mut jsonl = JsonlSink::create(&path).unwrap();
    first.run_with_sink(&manifest, &mut jsonl).unwrap();
    drop(jsonl);
    // Simulate a torn write: an incomplete sample line with no newline
    // and no completion marker.
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    write!(
        f,
        "{{\"t\":\"s\",\"unit\":\"00ff00ff00ff00ff\",\"pos\":99,\"alg\":\"DA"
    )
    .unwrap();
    drop(f);

    let ledger = sink::read_ledger(&path).unwrap();
    assert_eq!(ledger.done.len(), 4);
    // The torn unit contributes no samples.
    let store = sink::read_store(&path).unwrap();
    assert_eq!(store.samples().len(), 4 * 3);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn orphaned_pre_crash_samples_do_not_double_count_after_resume() {
    // A BufWriter auto-flush can land part of a unit's samples on disk
    // before a crash; the resume then re-runs that unit in full. The
    // readers must keep exactly one copy per (unit, sample, trial) —
    // the resume's — and skip torn partial lines even when they carry a
    // real unit id.
    let ref_path = tmp("orphan-ref");
    let path = tmp("orphan");
    for p in [&ref_path, &path] {
        let _ = std::fs::remove_file(p);
    }
    let runner = Runner::new(tiny_config());
    let manifest = runner.manifest();
    let mut reference = JsonlSink::create(&ref_path).unwrap();
    runner.run_with_sink(&manifest, &mut reference).unwrap();
    drop(reference);

    let mut first = Runner::new(tiny_config());
    first.max_units = Some(4);
    let mut jsonl = JsonlSink::create(&path).unwrap();
    first.run_with_sink(&manifest, &mut jsonl).unwrap();
    drop(jsonl);

    // Orphans of the *next* unit (pos 4): two well-formed sample lines
    // with sentinel error values (a real crash would flush the true
    // values; sentinels prove the resume's copy wins), plus a torn line.
    use std::io::Write;
    let victim = &manifest.units[4];
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    for trial in 0..2 {
        let orphan = ErrorSample {
            algorithm: victim.algorithm.clone(),
            setting: victim.setting.clone(),
            sample: victim.sample,
            trial,
            error: 999.0,
        };
        writeln!(f, "{}", sink::format_sample(victim.id, victim.pos, &orphan)).unwrap();
    }
    write!(
        f,
        "{{\"t\":\"s\",\"unit\":\"{}\",\"pos\":4,\"alg\":\"DA",
        victim.id
    )
    .unwrap();
    drop(f);

    let done = sink::read_ledger(&path).unwrap().done;
    assert_eq!(done.len(), 4, "orphans must not mark their unit done");
    let mut append = JsonlSink::append(&path).unwrap();
    Runner::new(tiny_config())
        .resume(&manifest, &done, &mut append)
        .unwrap();
    drop(append);

    let store = sink::read_store(&path).unwrap();
    assert_eq!(store.samples().len(), manifest.len() * 3);
    assert!(
        store.samples().iter().all(|s| s.error != 999.0),
        "resume's samples must supersede pre-crash orphans"
    );
    assert_eq!(keyed(&store), keyed(&sink::read_store(&ref_path).unwrap()));

    // One merge pass re-canonicalizes the dirty file to the reference
    // byte stream.
    let mut canonical = Vec::new();
    sink::merge_jsonl(&[&path], &mut canonical).unwrap();
    assert_eq!(canonical, std::fs::read(&ref_path).unwrap());
    for p in [&ref_path, &path] {
        std::fs::remove_file(p).unwrap();
    }
}

#[test]
fn merge_rejects_mismatched_runs() {
    let a_path = tmp("merge-a");
    let b_path = tmp("merge-b");
    for p in [&a_path, &b_path] {
        let _ = std::fs::remove_file(p);
    }
    let runner = Runner::new(tiny_config());
    let mut a = JsonlSink::create(&a_path).unwrap();
    runner.run_with_sink(&runner.manifest(), &mut a).unwrap();
    drop(a);

    let mut other_cfg = tiny_config();
    other_cfg.epsilons = vec![0.25];
    let other = Runner::new(other_cfg);
    let mut b = JsonlSink::create(&b_path).unwrap();
    other.run_with_sink(&other.manifest(), &mut b).unwrap();
    drop(b);

    let mut out = Vec::new();
    assert!(sink::merge_jsonl(&[&a_path, &b_path], &mut out).is_err());
    for p in [&a_path, &b_path] {
        std::fs::remove_file(p).unwrap();
    }
}

#[test]
fn aggregating_sink_matches_exact_store_statistics() {
    let runner = Runner::new(tiny_config());
    let manifest = runner.manifest();
    let mut memory = MemorySink::new();
    let mut agg = AggregatingSink::new();
    let mut tee = Tee::new(vec![&mut memory as &mut dyn ResultSink, &mut agg]);
    runner.run_with_sink(&manifest, &mut tee).unwrap();
    drop(tee);

    let store = memory.store();
    assert_eq!(agg.samples_seen() as usize, store.samples().len());
    for (alg, setting, summary) in agg.summaries() {
        let exact = store.errors_for(&alg, &setting);
        assert_eq!(summary.n, exact.len());
        // Welford moments are exact (up to fp associativity).
        let exact_mean = dpbench::stats::mean(exact);
        assert!(
            (summary.mean - exact_mean).abs() <= 1e-12 * exact_mean.abs().max(1.0),
            "{alg} {setting}: streaming mean {} vs exact {exact_mean}",
            summary.mean
        );
        // Six samples per group: one update past the P² bootstrap, so the
        // p95 is a sketch estimate. At this n the only sound claim is
        // range containment plus exact min/max — the convergence-to-exact
        // behavior at realistic sample counts is pinned by the
        // `dpbench-stats` streaming unit tests.
        let lo = exact.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = exact.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            summary.p95 >= lo && summary.p95 <= hi,
            "{alg} {setting}: p95 sketch {} escapes [{lo}, {hi}]",
            summary.p95
        );
        assert_eq!(summary.min, lo, "{alg} {setting}: min must be exact");
        assert_eq!(summary.max, hi, "{alg} {setting}: max must be exact");
    }
}

#[test]
fn resume_with_complete_ledger_runs_nothing() {
    let path = tmp("complete");
    let _ = std::fs::remove_file(&path);
    let runner = Runner::new(tiny_config());
    let manifest = runner.manifest();
    let mut jsonl = JsonlSink::create(&path).unwrap();
    runner.run_with_sink(&manifest, &mut jsonl).unwrap();
    drop(jsonl);

    let done = sink::read_ledger(&path).unwrap().done;
    let mut append = JsonlSink::append(&path).unwrap();
    let stats = runner.resume(&manifest, &done, &mut append).unwrap();
    assert_eq!(stats.units, 0);
    assert_eq!(stats.skipped, manifest.len());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn mid_file_corruption_is_a_hard_error_with_line_number() {
    // The old readers skipped any unrecognized line anywhere, which made
    // real corruption indistinguishable from a torn tail. Now: garbage
    // followed by valid records must fail loudly, naming the line.
    let path = tmp("midfile");
    let _ = std::fs::remove_file(&path);
    let runner = Runner::new(tiny_config());
    let manifest = runner.manifest();
    let mut jsonl = JsonlSink::create(&path).unwrap();
    runner.run_with_sink(&manifest, &mut jsonl).unwrap();
    drop(jsonl);

    let clean = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<&str> = clean.lines().collect();
    let corrupted_line_no = 3; // 1-based; mid-file, well before EOF
    lines[corrupted_line_no - 1] = "x9 GARBAGE {not json";
    let dirty = lines.join("\n") + "\n";
    std::fs::write(&path, &dirty).unwrap();

    for result in [
        sink::read_ledger(&path).map(|_| ()),
        sink::read_samples(&path).map(|_| ()),
        sink::read_store(&path).map(|_| ()),
    ] {
        let err = result.expect_err("mid-file corruption must be rejected");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("line {corrupted_line_no}")),
            "error must carry the line number: {msg}"
        );
        assert!(msg.contains("corruption"), "{msg}");
    }
    // merge refuses the file too.
    let mut out = Vec::new();
    assert!(sink::merge_jsonl(&[&path], &mut out).is_err());

    // A half-overwritten *sample* record (valid tag, broken payload) is
    // equally fatal mid-file.
    let mut lines: Vec<&str> = clean.lines().collect();
    let doctored = lines[1].split("\"err\":").next().unwrap().to_string();
    lines[1] = &doctored;
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();
    let err = sink::read_ledger(&path).unwrap_err();
    assert!(err.to_string().contains("line 2"), "{err}");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn torn_tail_is_truncated_on_append_and_file_stays_valid() {
    // After a resume, the once-torn tail must not linger as mid-file
    // garbage (which the strict readers would reject): append() truncates
    // it before writing anything.
    let path = tmp("tail-truncate");
    let _ = std::fs::remove_file(&path);
    let mut first = Runner::new(tiny_config());
    first.max_units = Some(3);
    let manifest = first.manifest();
    let mut jsonl = JsonlSink::create(&path).unwrap();
    first.run_with_sink(&manifest, &mut jsonl).unwrap();
    drop(jsonl);
    let clean_len = std::fs::metadata(&path).unwrap().len();
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    write!(f, "{{\"t\":\"u\",\"unit\":\"00ff00ff").unwrap();
    drop(f);

    // Readers tolerate the torn tail (it is the final content) …
    assert_eq!(sink::read_ledger(&path).unwrap().done.len(), 3);
    // … and append() removes it entirely.
    drop(JsonlSink::append(&path).unwrap());
    assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
    let done = sink::read_ledger(&path).unwrap().done;
    let mut rest = JsonlSink::append(&path).unwrap();
    Runner::new(tiny_config())
        .resume(&manifest, &done, &mut rest)
        .unwrap();
    drop(rest);
    // The healed, resumed file is valid end to end.
    assert_eq!(
        sink::read_store(&path).unwrap().samples().len(),
        manifest.len() * 3
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn torn_numeric_tail_that_still_parses_is_treated_as_torn() {
    // A tear can truncate a trailing number into a *shorter valid
    // number* (`"pos":15}` → `"pos":1`). Field-level parsing alone would
    // accept that and record the marker at the wrong position; the
    // structural end-with-`}` check must classify it as torn instead,
    // so the unit re-runs and the run stays recoverable.
    let ref_path = tmp("numtail-ref");
    let path = tmp("numtail");
    for p in [&ref_path, &path] {
        let _ = std::fs::remove_file(p);
    }
    let runner = Runner::new(tiny_config());
    let manifest = runner.manifest();
    let mut reference = JsonlSink::create(&ref_path).unwrap();
    runner.run_with_sink(&manifest, &mut reference).unwrap();
    drop(reference);

    let mut first = Runner::new(tiny_config());
    first.max_units = Some(4);
    let mut jsonl = JsonlSink::create(&path).unwrap();
    first.run_with_sink(&manifest, &mut jsonl).unwrap();
    drop(jsonl);
    // Tear the final completion marker just before its closing `}`: the
    // remaining `"pos":N` digits still parse as a number.
    let content = std::fs::read_to_string(&path).unwrap();
    let torn = content.trim_end().strip_suffix('}').unwrap().to_string();
    std::fs::write(&path, &torn).unwrap();

    // The torn marker's unit must NOT count as done …
    let ledger = sink::read_ledger(&path).unwrap();
    assert_eq!(ledger.done.len(), 3, "torn marker counted as completed");
    // … append truncates the fragment, resume re-runs the unit …
    let mut rest = JsonlSink::append(&path).unwrap();
    Runner::new(tiny_config())
        .resume(&manifest, &ledger.done, &mut rest)
        .unwrap();
    drop(rest);
    // … and readers + merge recover the exact reference results (the
    // re-run unit's first-copy samples are deduplicated orphans).
    assert_eq!(keyed(&sink::read_store(&path).unwrap()), {
        let r = sink::read_store(&ref_path).unwrap();
        keyed(&r)
    });
    let mut canonical = Vec::new();
    sink::merge_jsonl(&[&path], &mut canonical).unwrap();
    assert_eq!(canonical, std::fs::read(&ref_path).unwrap());
    for p in [&ref_path, &path] {
        std::fs::remove_file(p).unwrap();
    }
}

#[test]
fn merge_rejects_doctored_headers_and_samples() {
    let path = tmp("doctor-base");
    let _ = std::fs::remove_file(&path);
    let runner = Runner::new(tiny_config());
    let manifest = runner.manifest();
    let mut jsonl = JsonlSink::create(&path).unwrap();
    runner.run_with_sink(&manifest, &mut jsonl).unwrap();
    drop(jsonl);
    let clean = std::fs::read_to_string(&path).unwrap();

    // Sanity: merging a file with itself is the identity (duplicate
    // units agree, emitted once).
    let mut out = Vec::new();
    sink::merge_jsonl(&[&path, &path], &mut out).unwrap();
    assert_eq!(out, clean.as_bytes());

    // (a) A shard whose header claims a different n_trials is rejected
    // even though the fingerprint matches.
    let doctored_path = tmp("doctor-trials");
    let doctored = clean.replacen("\"n_trials\":3", "\"n_trials\":4", 1);
    std::fs::write(&doctored_path, &doctored).unwrap();
    let mut out = Vec::new();
    let err = sink::merge_jsonl(&[&path, &doctored_path], &mut out).unwrap_err();
    assert!(err.to_string().contains("n_trials"), "{err}");

    // (b) A duplicated unit whose sample disagrees on a (sample, trial)
    // coordinate — same length, same error bits — is rejected. (The old
    // check compared only lengths and error values and missed this.)
    let coord_path = tmp("doctor-coord");
    let target = clean
        .lines()
        .find(|l| l.contains("\"t\":\"s\"") && l.contains("\"trial\":1"))
        .unwrap();
    let moved = target.replace("\"trial\":1", "\"trial\":9");
    std::fs::write(&coord_path, clean.replacen(target, &moved, 1)).unwrap();
    let mut out = Vec::new();
    let err = sink::merge_jsonl(&[&path, &coord_path], &mut out).unwrap_err();
    assert!(err.to_string().contains("disagrees"), "{err}");

    // (c) A doctored error value (coordinates intact) is still caught.
    let value_path = tmp("doctor-value");
    let tweaked = target.replace("\"err\":", "\"err\":1");
    std::fs::write(&value_path, clean.replacen(target, &tweaked, 1)).unwrap();
    let mut out = Vec::new();
    let err = sink::merge_jsonl(&[&path, &value_path], &mut out).unwrap_err();
    assert!(err.to_string().contains("disagrees"), "{err}");

    for p in [&path, &doctored_path, &coord_path, &value_path] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn merge_rejects_conflicting_cfg_headers() {
    // Two shard files agreeing on fingerprint and n_trials but carrying
    // different recorded config summaries can only come from doctored or
    // mislabeled ledgers; the merge must refuse, not pick one.
    let path = tmp("cfg-base");
    let _ = std::fs::remove_file(&path);
    let runner = Runner::new(tiny_config());
    let mut jsonl = JsonlSink::create(&path).unwrap();
    runner
        .run_with_sink(&runner.manifest(), &mut jsonl)
        .unwrap();
    drop(jsonl);
    let clean = std::fs::read_to_string(&path).unwrap();
    assert!(clean.contains("loss=l2"), "cfg summary missing from header");
    let doctored_path = tmp("cfg-doctored");
    std::fs::write(&doctored_path, clean.replacen("loss=l2", "loss=l1", 1)).unwrap();
    let mut out = Vec::new();
    let err = sink::merge_jsonl(&[&path, &doctored_path], &mut out).unwrap_err();
    assert!(err.to_string().contains("config summary"), "{err}");
    for p in [&path, &doctored_path] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn merge_rejects_duplicate_unit_with_disagreeing_error_bits() {
    // A duplicated unit must agree on every error *bit*, not just on
    // `==`: 0.0 and -0.0 compare equal but are different results, and a
    // merge that shrugged at the sign would hide a real reproducibility
    // break. Hand-built ledgers give exact control over the bits.
    let header = "{\"t\":\"run\",\"fp\":\"00000000000000aa\",\"n_trials\":1}\n";
    let record = |err: &str| {
        format!(
            "{header}{{\"t\":\"s\",\"unit\":\"0000000000000001\",\"pos\":0,\
             \"alg\":\"IDENTITY\",\"dataset\":\"MEDCOST\",\"scale\":1000,\
             \"domain\":\"128\",\"eps\":0.1,\"sample\":0,\"trial\":0,\"err\":{err}}}\n\
             {{\"t\":\"u\",\"unit\":\"0000000000000001\",\"pos\":0}}\n"
        )
    };
    let a_path = tmp("bits-a");
    let b_path = tmp("bits-b");
    std::fs::write(&a_path, record("0")).unwrap();
    std::fs::write(&b_path, record("-0")).unwrap();
    let mut out = Vec::new();
    let err = sink::merge_jsonl(&[&a_path, &b_path], &mut out).unwrap_err();
    assert!(err.to_string().contains("disagrees"), "{err}");
    // Sanity: bit-identical duplicates merge fine and emit once.
    let mut out = Vec::new();
    sink::merge_jsonl(&[&a_path, &a_path], &mut out).unwrap();
    assert_eq!(out, record("0").as_bytes());
    for p in [&a_path, &b_path] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn jsonl_sink_rejects_unrepresentable_identifiers() {
    // Nothing used to enforce at write time that names survive the
    // escape-free JSONL round-trip; now begin() fails fast.
    let runner = Runner::new(tiny_config());
    let mut manifest = runner.manifest();
    manifest.units[0].algorithm = "DA\"WA".into();
    let mut buf = Vec::new();
    let mut sink_w = JsonlSink::from_writer(&mut buf);
    let err = sink_w.begin(&manifest).unwrap_err();
    assert!(err.to_string().contains("identifier"), "{err}");
    let _ = sink_w;
    assert!(buf.is_empty(), "no ledger byte may be written on rejection");

    // The runner-level guard: a config with a ledger-breaking algorithm
    // name fails validation before any unit runs.
    let mut cfg = tiny_config();
    cfg.algorithms = vec!["IDENT\"ITY".into()];
    assert!(cfg.validate().is_err());
}

#[test]
fn shard_summaries_roundtrip_and_merge_without_raw_samples() {
    // Each shard aggregates through a mergeable StreamingSummary; the
    // serialized sketches must round-trip exactly and merge into the
    // statistics of the union stream.
    let runner = Runner::new(tiny_config());
    let manifest = runner.manifest();

    // Reference: exact store + one-pass streaming aggregation.
    let mut memory = MemorySink::new();
    let mut single = AggregatingSink::new();
    let mut tee = Tee::new(vec![&mut memory as &mut dyn ResultSink, &mut single]);
    runner.run_with_sink(&manifest, &mut tee).unwrap();
    drop(tee);
    let store = memory.store();

    // Shards: aggregate each independently, serialize, reload, merge.
    let mut merged = AggregatingSink::new();
    let mut paths = Vec::new();
    for i in 0..3 {
        let shard_runner = Runner::new(tiny_config());
        let mut agg = AggregatingSink::new();
        shard_runner
            .run_with_sink(&manifest.shard(i, 3), &mut agg)
            .unwrap();
        let path = tmp(&format!("agg-shard-{i}"));
        agg.write_summary_file(&path).unwrap();
        // Round-trip exactness: rewriting the reloaded sink reproduces
        // the file byte for byte.
        let mut reloaded = sink::read_summary(&path).unwrap();
        let mut rewritten = Vec::new();
        reloaded.write_summary(&mut rewritten).unwrap();
        assert_eq!(rewritten, std::fs::read(&path).unwrap());
        merged.merge_from(&reloaded).unwrap();
        paths.push(path);
    }
    assert_eq!(merged.samples_seen(), single.samples_seen());
    for (alg, setting, summary) in merged.summaries() {
        let exact = store.errors_for(&alg, &setting);
        assert_eq!(summary.n, exact.len());
        let exact_mean = dpbench::stats::mean(exact);
        assert!(
            (summary.mean - exact_mean).abs() <= 1e-12 * exact_mean.abs().max(1.0),
            "{alg} {setting}: merged mean {} vs exact {exact_mean}",
            summary.mean
        );
        let lo = exact.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = exact.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(summary.min, lo);
        assert_eq!(summary.max, hi);
        // Documented digest tolerance vs the exact percentile.
        let exact_p95 = dpbench::stats::percentile(exact, 95.0);
        assert!(
            (summary.p95 - exact_p95).abs() <= (0.05 * exact_p95.abs()).max(0.01 * (hi - lo)),
            "{alg} {setting}: merged p95 {} vs exact {exact_p95}",
            summary.p95
        );
    }
    // merge_summary_files is the one-call equivalent.
    let merged2 = sink::merge_summary_files(&paths).unwrap();
    assert_eq!(merged2.samples_seen(), merged.samples_seen());
    // Cross-run merges are refused.
    let mut other_cfg = tiny_config();
    other_cfg.epsilons = vec![0.77];
    let other = Runner::new(other_cfg);
    let mut foreign = AggregatingSink::new();
    other
        .run_with_sink(&other.manifest(), &mut foreign)
        .unwrap();
    assert!(merged.merge_from(&foreign).is_err());
    for p in &paths {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn summary_from_ledger_matches_streamed_aggregation() {
    // The resume path rebuilds a shard's summary from its ledger; on a
    // clean ledger the rebuild must be bit-identical to the streamed
    // aggregation (same push order: manifest position, then trial).
    let path = tmp("agg-rebuild");
    let _ = std::fs::remove_file(&path);
    let runner = Runner::new(tiny_config());
    let manifest = runner.manifest();
    let mut jsonl = JsonlSink::create(&path).unwrap();
    let mut agg = AggregatingSink::new();
    let mut tee = Tee::new(vec![&mut jsonl as &mut dyn ResultSink, &mut agg]);
    runner.run_with_sink(&manifest, &mut tee).unwrap();
    drop(tee);
    drop(jsonl);

    let mut rebuilt = sink::summary_from_ledger(&path).unwrap();
    let mut a = Vec::new();
    let mut b = Vec::new();
    agg.write_summary(&mut a).unwrap();
    rebuilt.write_summary(&mut b).unwrap();
    assert_eq!(a, b, "ledger rebuild diverged from streamed aggregation");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn manifest_addresses_are_stable_across_processes() {
    // UnitIds must be pure content hashes: re-expanding the same config
    // (as a resuming process does) reproduces them exactly.
    let a = RunManifest::from_config(&tiny_config());
    let b = RunManifest::from_config(&tiny_config());
    let ids_a: Vec<UnitId> = a.units.iter().map(|u| u.id).collect();
    let ids_b: Vec<UnitId> = b.units.iter().map(|u| u.id).collect();
    assert_eq!(ids_a, ids_b);
    assert_eq!(
        ids_a.iter().collect::<HashSet<_>>().len(),
        a.len(),
        "unit ids must be unique"
    );
}

/// The summary a merge folds as it writes is the one
/// `summary_from_ledger` rebuilds from the merged file, byte for byte,
/// and the one a one-shot run streams. The merged input is a resumed
/// ledger holding pre-crash orphan samples (sentinel errors the resume's
/// copy must supersede) that ends in a torn line; merged alone and next
/// to the one-shot ledger (duplicate units, emitted and counted once).
#[test]
fn merge_summary_equals_the_summary_of_its_output() {
    let ref_path = tmp("msum-ref");
    let path = tmp("msum-dirty");
    let merged_path = tmp("msum-merged");
    for p in [&ref_path, &path, &merged_path] {
        let _ = std::fs::remove_file(p);
    }
    let runner = Runner::new(tiny_config());
    let manifest = runner.manifest();
    let mut reference = JsonlSink::create(&ref_path).unwrap();
    let mut streamed = AggregatingSink::new();
    let mut tee = Tee::new(vec![&mut reference as &mut dyn ResultSink, &mut streamed]);
    runner.run_with_sink(&manifest, &mut tee).unwrap();
    drop(tee);
    drop(reference);

    let mut first = Runner::new(tiny_config());
    first.max_units = Some(4);
    let mut jsonl = JsonlSink::create(&path).unwrap();
    first.run_with_sink(&manifest, &mut jsonl).unwrap();
    drop(jsonl);
    use std::io::Write;
    let victim = &manifest.units[4];
    let append_raw = |text: &str| {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(text.as_bytes()).unwrap();
    };
    for trial in 0..2 {
        let orphan = ErrorSample {
            algorithm: victim.algorithm.clone(),
            setting: victim.setting.clone(),
            sample: victim.sample,
            trial,
            error: 999.0,
        };
        append_raw(&format!(
            "{}\n",
            sink::format_sample(victim.id, victim.pos, &orphan)
        ));
    }
    let done = sink::read_ledger(&path).unwrap().done;
    let mut append = JsonlSink::append(&path).unwrap();
    Runner::new(tiny_config())
        .resume(&manifest, &done, &mut append)
        .unwrap();
    drop(append);
    append_raw(&format!(
        "{{\"t\":\"s\",\"unit\":\"{}\",\"pos\":4,\"alg\":\"DA",
        victim.id
    ));

    let summary_bytes = |sink: &mut AggregatingSink| {
        let mut bytes = Vec::new();
        sink.write_summary(&mut bytes).unwrap();
        bytes
    };
    let expected = summary_bytes(&mut streamed);
    let ids: Vec<UnitId> = manifest.units.iter().map(|u| u.id).collect();
    for inputs in [vec![&path], vec![&path, &ref_path]] {
        let mut folded = AggregatingSink::new();
        let mut out = Vec::new();
        let merged = sink::merge_jsonl_into(&inputs, &mut out, Some(&mut folded)).unwrap();
        assert_eq!(out, std::fs::read(&ref_path).unwrap());
        assert_eq!(merged.fingerprint, manifest.fingerprint);
        assert_eq!(merged.units, ids, "the merge reports every unit it wrote");
        std::fs::write(&merged_path, &out).unwrap();
        let mut rebuilt = sink::summary_from_ledger(&merged_path).unwrap();
        assert_eq!(summary_bytes(&mut folded), summary_bytes(&mut rebuilt));
        assert_eq!(summary_bytes(&mut folded), expected);
    }
    for p in [&ref_path, &path, &merged_path] {
        std::fs::remove_file(p).unwrap();
    }
}

/// The merge reads each input once and applies the strict readers' rules
/// itself: mid-file corruption and a record before the run header are
/// errors naming the input and the line, and a failed file merge leaves
/// an existing output alone.
#[test]
fn single_pass_merge_names_the_input_and_line_of_corruption() {
    let path = tmp("merge-line");
    let out_path = tmp("merge-line-out");
    let _ = std::fs::remove_file(&path);
    let runner = Runner::new(tiny_config());
    let mut jsonl = JsonlSink::create(&path).unwrap();
    runner
        .run_with_sink(&runner.manifest(), &mut jsonl)
        .unwrap();
    drop(jsonl);
    let clean = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<&str> = clean.lines().collect();
    let last = lines.len();
    lines[last - 3] = "x9 GARBAGE {not json";
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();
    std::fs::write(&out_path, "precious\n").unwrap();
    let err = sink::merge_jsonl_file(&[&path], &out_path, None).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let msg = err.to_string();
    assert!(msg.contains(path.to_str().unwrap()), "{msg}");
    assert!(msg.contains(&format!("line {}", last - 2)), "{msg}");
    assert!(msg.contains("corruption"), "{msg}");
    assert_eq!(std::fs::read(&out_path).unwrap(), b"precious\n");

    let mut lines: Vec<&str> = clean.lines().collect();
    lines.swap(0, 1);
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();
    let err = sink::merge_jsonl(&[&path], &mut Vec::new()).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains(path.to_str().unwrap()), "{msg}");
    assert!(
        msg.contains("line 1: record before the run header"),
        "{msg}"
    );
    for p in [&path, &out_path] {
        std::fs::remove_file(p).unwrap();
    }
}
