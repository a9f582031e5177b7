//! `perfbench` — one seeded benchmark for dpbench's three end-to-end
//! paths: the in-process grid `Runner` (`grid-paper`), the `dpbench fleet`
//! binary (`fleet-baselines`) and the `dpbench serve` binary
//! (`serve-mix`).
//!
//! ```text
//! perfbench --dpbench PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` a run measures the end-to-end metrics with tracing
//! off; with `--trace 1` it measures the per-layer metrics from an
//! in-memory span trace (see `NOTES.md`). Every run checks the program's
//! outputs, prints every metric by name, writes a run record (host, git
//! rev, workload, seed, metrics) and, when traced, a span dump under
//! `.bench_runs/`, and prints the result as one JSON object on its last
//! line of standard output.

mod fleet;
mod grid;
mod loadgen;
mod procs;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// The end-to-end metrics every `--trace 0` run reports, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("trials_per_s", "trials/s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every `--trace 1` run reports, with units. A
/// layer a workload does not exercise reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: &[(&str, &str)] = &[
        ("datasets.generate.calls", "count"),
        ("datasets.generate.self_s", "s"),
        ("core.y_true.self_s", "s"),
        ("core.score.self_s", "s"),
        ("core.serialize.self_s", "s"),
        ("core.serialize.bytes", "bytes"),
        ("runner.plan_cache.lookups", "count"),
        ("runner.plan_cache.hit_ratio", "ratio"),
        ("runner.plan_cache.lookup_self_s", "s"),
        ("runner.data_cache.hit_ratio", "ratio"),
        ("runner.data_cache.evictions", "count"),
        ("runner.hier_pool.hit_ratio", "ratio"),
        ("runner.sink_wait_s", "s"),
        ("runner.tail_s", "s"),
        ("algorithms.plan.self_s", "s"),
        ("algorithms.execute.calls", "count"),
        ("algorithms.execute.self_s", "s"),
        ("sink.append.units", "count"),
        ("sink.append.bytes", "bytes"),
        ("sink.append.self_s", "s"),
        ("sink.summary.self_s", "s"),
        ("sink.validate.bytes", "bytes"),
        ("sink.validate.self_s", "s"),
        ("sink.merge.self_s", "s"),
        ("fleet.launches", "count"),
        ("fleet.steal_launches", "count"),
        ("fleet.launch.self_s", "s"),
        ("fleet.probe_ticks", "count"),
        ("fleet.shard_wall_s.max", "s"),
        ("fleet.shard_wall_s.min", "s"),
        ("fleet.useful_unit_frac", "ratio"),
        ("fleet.driver_tail_s", "s"),
        ("serve.http.parse.self_s", "s"),
        ("serve.http.write.self_s", "s"),
        ("serve.http.write.bytes", "bytes"),
        ("serve.reserve.calls", "count"),
        ("serve.reserve.self_s", "s"),
        ("serve.journal.bytes", "bytes"),
        ("serve.snapshot.self_s", "s"),
        ("serve.handler_p50_ms", "ms"),
        ("serve.handler_p99_ms", "ms"),
        ("serve.outside_handler_p50_ms", "ms"),
        ("serve.outside_handler_p99_ms", "ms"),
        ("serve.poller.wakeups_per_req", "ratio"),
        ("serve.poller.spurious_frac", "ratio"),
        ("serve.plan_cache.hit_ratio", "ratio"),
        ("serve.shed", "count"),
        ("loadgen.lag_p99_ms", "ms"),
        ("loadgen.busy_frac", "ratio"),
        ("trace.overhead_frac", "ratio"),
        ("trace.unattributed_frac", "ratio"),
    ];
    let mut out: Vec<(String, &'static str)> =
        fixed.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    for (dims, names) in [
        ("1d", dpbench_algorithms::registry::NAMES_1D),
        ("2d", dpbench_algorithms::registry::NAMES_2D),
    ] {
        for name in names {
            out.push((exec_span(dims, name) + ".self_s", "s"));
        }
    }
    out
}

/// Span (and metric prefix) of one mechanism's executions.
pub fn exec_span(dims: &str, mech: &str) -> String {
    format!("algorithms.execute.{dims}.{}", stats::mech_metric(mech))
}

/// What one invocation was asked to do.
pub struct Ctx {
    pub dpbench: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub nproc: usize,
    /// Scratch directory of this run, removed at exit.
    pub dir: PathBuf,
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted and failed (units for grids, requests for
    /// serve).
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    /// Figures printed and recorded with the run but not part of its
    /// result (see `NOTES.md` for why they are not regression-gated).
    pub info: Vec<(String, f64, &'static str)>,
    /// Sample counts, wall times and check failures for the run record.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Record a failed output check covering `ops` operations.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        eprintln!("output check failed: {why}");
        self.notes.push(format!("FAILED: {why}"));
    }

    pub fn note(&mut self, s: String) {
        self.notes.push(s);
    }

    pub fn info(&mut self, name: &str, value: f64, unit: &'static str) {
        self.info.push((name.to_string(), value, unit));
    }
}

const WORKLOADS: &[&str] = &["grid-paper", "fleet-baselines", "serve-mix"];

fn parse_args() -> Result<Ctx, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?})"
        ));
    }
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds needs a number".to_string())?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    let seed: u64 = get("--seed")?
        .parse()
        .map_err(|_| "--seed needs a non-negative integer".to_string())?;
    let dpbench = PathBuf::from(get("--dpbench")?);
    if !dpbench.is_file() {
        return Err(format!("dpbench binary {} not found", dpbench.display()));
    }
    let dir =
        PathBuf::from(".bench_runs").join(format!("tmp-{workload}-{seed}-{}", std::process::id()));
    Ok(Ctx {
        dpbench,
        workload,
        seed,
        seconds,
        trace,
        nproc: procs::host().nproc,
        dir,
    })
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.dir) {
        eprintln!("perfbench: creating {}: {e}", ctx.dir.display());
        return ExitCode::FAILURE;
    }
    let result = match ctx.workload.as_str() {
        "grid-paper" => grid::run(&ctx),
        "fleet-baselines" => fleet::run(&ctx),
        _ => serve::run(&ctx),
    };
    let _ = std::fs::remove_dir_all(&ctx.dir);
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", ctx.workload);
            return ExitCode::FAILURE;
        }
    };
    match report(&ctx, outcome) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Check the metric set, print every metric by name, write the run
/// record, and return the result line.
fn report(ctx: &Ctx, mut outcome: Outcome) -> Result<String, String> {
    let wanted: Vec<(String, &str)> = if ctx.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    for name in outcome.metrics.keys() {
        if !wanted.iter().any(|(n, _)| n == name) {
            return Err(format!("workload measured an unlisted metric {name}"));
        }
    }
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    for (name, unit) in &wanted {
        if !stats::valid_name(name) {
            return Err(format!("invalid metric name {name:?}"));
        }
        let value = match outcome.metrics.get(name) {
            Some(v) => *v,
            None if ctx.trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() || (!ctx.trace && value <= 0.0) {
            return Err(format!(
                "metric {name} = {value} is not a usable measurement"
            ));
        }
        metrics.push((name.clone(), value, unit));
    }
    let host = procs::host();
    let fail_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "perfbench {} seed={} trace={} host: nproc={} cpu={:?} rev={}",
        ctx.workload,
        ctx.seed,
        u8::from(ctx.trace),
        host.nproc,
        host.cpu,
        procs::git_rev()
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<44} {value:>16.6} {unit}");
    }
    println!(
        "  {:<44} {:>16.6} ratio ({} failed of {} attempted)",
        "fail_frac", fail_frac, outcome.failed, outcome.attempted
    );
    for (name, value, unit) in &outcome.info {
        println!("  {name:<44} {value:>16.6} {unit} (recorded, not gated)");
    }
    for n in &outcome.notes {
        println!("  note: {n}");
    }

    let json_metrics = json_values(&metrics);
    let json_info = json_values(&outcome.info);
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    outcome.attempted = outcome.attempted.max(1);
    let record = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"seconds\":{},\"host\":{{\"nproc\":{},\"cpu\":{}}},\"git_rev\":\"{}\",\"correct\":{correct},\"attempted\":{},\"failed\":{},\"fail_frac\":{},\"metrics\":{{{json_metrics}}},\"info\":{{{json_info}}},\"notes\":[{}]}}\n",
        ctx.workload,
        ctx.seed,
        u8::from(ctx.trace),
        ctx.seconds,
        host.nproc,
        json_str(&host.cpu),
        procs::git_rev(),
        outcome.attempted,
        outcome.failed,
        json_num(fail_frac),
        outcome
            .notes
            .iter()
            .map(|n| json_str(n))
            .collect::<Vec<_>>()
            .join(",")
    );
    let path = PathBuf::from(".bench_runs").join(format!(
        "{}-seed{}-trace{}.json",
        ctx.workload,
        ctx.seed,
        u8::from(ctx.trace)
    ));
    std::fs::write(&path, record).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{json_metrics}}}}}",
        outcome.attempted, outcome.failed
    ))
}

/// `"name":{"value":…,"unit":"…"}` members, comma-separated.
fn json_values(items: &[(String, f64, &str)]) -> String {
    items
        .iter()
        .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", json_num(*v)))
        .collect::<Vec<_>>()
        .join(",")
}

fn json_num(v: f64) -> String {
    if !v.is_finite() {
        "null".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values of one top-level array of `BENCHMARK.json`.
    fn listed(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closes")].to_string())
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(listed(&json, "end_to_end"), e2e);
        let layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(listed(&json, "per_layer"), layers);
        assert!(layers.iter().chain(&e2e).all(|n| stats::valid_name(n)));
    }
}
