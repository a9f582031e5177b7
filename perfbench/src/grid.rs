//! `grid-paper`: the paper's 1-D and 2-D studies through the in-process
//! grid `Runner`, plus the pieces the fleet workload shares — seeded
//! dataset choice, strict ledger checks, and the traced replay of a grid
//! through the layers' public functions.

use crate::stats::{median, tail};
use crate::{exec_span, procs, trace, Ctx, Outcome};
use dpbench_algorithms::registry::{mechanism_by_name, NAMES_1D, NAMES_2D};
use dpbench_core::mechanism::execute_eps_with;
use dpbench_core::rng::{hash_str, rng_for};
use dpbench_core::{
    scaled_per_query_error, DataVector, Domain, Loss, MechError, MechInfo, Mechanism, Plan,
    Workload, Workspace,
};
use dpbench_datasets::{catalog, DataGenerator, Dataset};
use dpbench_harness::config::{ExperimentConfig, WorkloadSpec};
use dpbench_harness::runner::{PlanCache, RunStats};
use dpbench_harness::sink::{self, AggregatingSink, JsonlSink, ResultSink};
use dpbench_harness::{ErrorSample, ManifestUnit, RunManifest, Runner};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Trials per unit in each part of `grid-paper`.
const PAPER_TRIALS: usize = 2;

/// The benchmark's own RNG for choosing inputs from the seed.
pub fn seeded(label: &str, seed: u64) -> StdRng {
    rng_for(label, &[seed])
}

/// One 1-D catalog dataset chosen by `rng`, skipping names in `taken`.
pub fn pick_dataset(rng: &mut StdRng, taken: &[&str]) -> Dataset {
    let pool: Vec<Dataset> = catalog::datasets_1d()
        .into_iter()
        .filter(|d| !taken.contains(&d.name))
        .collect();
    pool[rng.gen_range(0..pool.len())].clone()
}

/// Catalog datasets of `grid-paper`: one 1-D dataset per shape class
/// (spiky, moderate, flat) and two 2-D datasets. They are fixed because
/// a dataset's shape moves the cost of the data-dependent mechanisms by
/// up to a quarter of the grid's wall time, which would make the seed,
/// not the code, set the throughput.
const PAPER_1D: [&str; 3] = ["MEDCOST", "HEPTH", "PATENT"];
const PAPER_2D: [&str; 2] = ["BJ-CABS-S", "STROKE"];

/// `scales`, each raised by a seeded share below 2%: the data vectors
/// and every noise draw (both keyed by scale) change with the seed while
/// the grid's cost does not.
pub fn jittered(rng: &mut StdRng, scales: &[u64]) -> Vec<u64> {
    scales
        .iter()
        .map(|&s| s + (s as f64 * 0.02 * rng.gen::<f64>()) as u64)
        .collect()
}

/// The two parts of `grid-paper` for `seed`: the 1-D study (all 15 1-D
/// mechanisms) and the 2-D study (all 14 2-D mechanisms).
pub fn paper_parts(seed: u64) -> Vec<ExperimentConfig> {
    let mut rng = seeded("perfbench-grid-paper", seed);
    let datasets = |names: &[&str]| -> Vec<Dataset> {
        names
            .iter()
            .map(|n| catalog::by_name(n).expect("catalog dataset"))
            .collect()
    };
    let names = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    vec![
        ExperimentConfig {
            datasets: datasets(&PAPER_1D),
            scales: jittered(&mut rng, &[1_000, 100_000, 10_000_000]),
            domains: vec![Domain::D1(1024)],
            epsilons: vec![0.1],
            algorithms: names(NAMES_1D),
            n_samples: 1,
            n_trials: PAPER_TRIALS,
            workload: WorkloadSpec::Prefix,
            loss: Loss::L2,
        },
        ExperimentConfig {
            datasets: datasets(&PAPER_2D),
            scales: jittered(&mut rng, &[10_000, 1_000_000]),
            domains: vec![Domain::D2(128, 128)],
            epsilons: vec![0.1],
            algorithms: names(NAMES_2D),
            n_samples: 1,
            n_trials: PAPER_TRIALS,
            workload: WorkloadSpec::RandomRanges(2000),
            loss: Loss::L2,
        },
    ]
}

/// `"1d"` or `"2d"` for a grid's domain.
pub fn dims_label(cfg: &ExperimentConfig) -> &'static str {
    if cfg.domains[0].dims() == 1 {
        "1d"
    } else {
        "2d"
    }
}

/// Strictly re-read a ledger and check it covers `manifest` with finite
/// errors. Returns the scored executions it holds and its bytes.
pub fn check_ledger(path: &Path, manifest: &RunManifest) -> Result<(u64, Vec<u8>), String> {
    let ledger = sink::read_ledger(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if ledger.fingerprint != manifest.fingerprint || ledger.n_trials != manifest.n_trials {
        return Err(format!("{}: ledger is from another grid", path.display()));
    }
    let samples = sink::read_samples(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut per_unit: HashMap<_, usize> = HashMap::new();
    for (id, _, s) in &samples {
        if !s.error.is_finite() {
            return Err(format!("{}: non-finite error in unit {id}", path.display()));
        }
        *per_unit.entry(*id).or_default() += 1;
    }
    for u in &manifest.units {
        if !ledger.done.contains(&u.id) || per_unit.get(&u.id) != Some(&manifest.n_trials) {
            return Err(format!(
                "{}: unit {} ({} {}) missing or incomplete",
                path.display(),
                u.pos,
                u.algorithm,
                u.setting
            ));
        }
    }
    if ledger.done.len() != manifest.len() {
        return Err(format!("{}: ledger holds foreign units", path.display()));
    }
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((samples.len() as u64, bytes))
}

/// Set-ups timed per pass; the pass runs on the last one.
const SETUP_REPS: usize = 5;

/// One timed pass over the parts: set-up (runners built, manifests
/// expanded, ledgers open), then execution to complete, verified ledgers.
struct Pass {
    setup_s: Vec<f64>,
    wall_s: f64,
    read_s: f64,
    trials: u64,
    /// Ledger bytes per part, or the check failure.
    ledgers: Vec<Result<Vec<u8>, String>>,
}

fn timed_pass(parts: &[ExperimentConfig], dir: &Path, threads: usize) -> io::Result<Pass> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut prepared = Vec::new();
    for _ in 0..SETUP_REPS {
        prepared.clear();
        let t0 = Instant::now();
        for (i, cfg) in parts.iter().enumerate() {
            let mut runner = Runner::new(cfg.clone());
            runner.threads = threads;
            let manifest = runner.manifest();
            let path = dir.join(format!("part{i}.jsonl"));
            let sink = JsonlSink::create(&path)?;
            prepared.push((runner, manifest, sink, path));
        }
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let t1 = Instant::now();
    for (runner, manifest, sink, _) in &mut prepared {
        runner.run_with_sink(manifest, sink)?;
    }
    let t_read = Instant::now();
    let mut pass = Pass {
        setup_s,
        wall_s: 0.0,
        read_s: 0.0,
        trials: 0,
        ledgers: Vec::new(),
    };
    for (_, manifest, _, path) in &prepared {
        match check_ledger(path, manifest) {
            Ok((trials, bytes)) => {
                pass.trials += trials;
                pass.ledgers.push(Ok(bytes));
            }
            Err(e) => pass.ledgers.push(Err(e)),
        }
    }
    pass.read_s = t_read.elapsed().as_secs_f64();
    pass.wall_s = t1.elapsed().as_secs_f64();
    Ok(pass)
}

/// Timed passes of a grid until `seconds` have been spent (at least
/// three), reporting the end-to-end metrics.
fn timed(ctx: &Ctx, parts: &[ExperimentConfig], out: &mut Outcome) -> Result<(), String> {
    let started = Instant::now();
    let units: Vec<u64> = parts
        .iter()
        .map(|c| RunManifest::from_config(c).len() as u64)
        .collect();
    let mut passes: Vec<Pass> = Vec::new();
    let mut first: Vec<Option<Vec<u8>>> = vec![None; parts.len()];
    let mut speeds = Vec::new();
    while passes.len() < 3 || started.elapsed().as_secs_f64() < ctx.seconds {
        speeds.push(procs::host_speed(ctx.nproc));
        let pass = timed_pass(parts, &ctx.dir, ctx.nproc).map_err(|e| e.to_string())?;
        for (i, ledger) in pass.ledgers.iter().enumerate() {
            out.attempted += units[i];
            match (ledger, &first[i]) {
                (Err(e), _) => out.fail(units[i], e.clone()),
                (Ok(bytes), None) => first[i] = Some(bytes.clone()),
                (Ok(bytes), Some(f)) if bytes != f => out.fail(
                    units[i],
                    format!(
                        "pass {} part {i}: ledger bytes differ from pass 1",
                        passes.len() + 1
                    ),
                ),
                (Ok(_), Some(_)) => {}
            }
        }
        passes.push(pass);
    }
    let per = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let walls = tail(&per(&|p| p.wall_s * 1e3));
    let reads = tail(&per(&|p| p.read_s * 1e3));
    let setups: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.setup_s.iter().copied())
        .collect();
    out.set("setup_s", median(&setups));
    let raw = median(&per(&|p| p.trials as f64 / p.wall_s));
    let scaled = procs::at_reference_speed(raw, &speeds, 1.0, out);
    out.set("trials_per_s", scaled);
    out.set("peak_rss_mb", procs::self_peak_mb());
    out.note(format!("pass wall ms: {walls}"));
    out.note(format!("ledger check ms: {reads}"));
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let parts = paper_parts(ctx.seed);
    let mut out = Outcome::default();
    out.note(format!(
        "scales: {}",
        parts
            .iter()
            .map(|c| c
                .scales
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join("+"))
            .collect::<Vec<_>>()
            .join(" / ")
    ));
    if ctx.trace {
        traced(ctx, &parts, None, &mut out, |_| Ok(0))?;
    } else {
        timed(ctx, &parts, &mut out)?;
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

/// A [`ResultSink`] wrapper that stamps every delivery, giving the time
/// the in-order sink sat waiting for the next unit and the run's tail.
pub struct TimingSink<'a> {
    inner: &'a mut dyn ResultSink,
    ready_since: Instant,
    pub wait: Duration,
    pub deliveries: Vec<Instant>,
}

impl<'a> TimingSink<'a> {
    pub fn new(inner: &'a mut dyn ResultSink) -> Self {
        Self {
            inner,
            ready_since: Instant::now(),
            wait: Duration::ZERO,
            deliveries: Vec::new(),
        }
    }
}

impl ResultSink for TimingSink<'_> {
    fn begin(&mut self, manifest: &RunManifest) -> io::Result<()> {
        self.inner.begin(manifest)?;
        self.ready_since = Instant::now();
        Ok(())
    }

    fn unit_complete(&mut self, unit: &ManifestUnit, samples: &[ErrorSample]) -> io::Result<()> {
        let arrived = Instant::now();
        self.wait += arrived - self.ready_since;
        self.deliveries.push(arrived);
        self.inner.unit_complete(unit, samples)?;
        self.ready_since = Instant::now();
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        self.inner.finish()
    }
}

/// What one real `Runner` run behind a [`TimingSink`] showed.
#[derive(Default)]
pub struct RunnerView {
    pub wall_s: f64,
    pub sink_wait_s: f64,
    pub tail_s: f64,
    pub data_hits: u64,
    pub data_lookups: u64,
    pub evictions: u64,
    pub hier_hits: u64,
    pub hier_lookups: u64,
}

impl RunnerView {
    pub fn add(&mut self, threads: usize, wall: Duration, stats: &RunStats, sink: &TimingSink) {
        let end = sink
            .ready_since
            .max(*sink.deliveries.last().unwrap_or(&sink.ready_since));
        self.wall_s += wall.as_secs_f64();
        self.sink_wait_s += sink.wait.as_secs_f64();
        let n = sink.deliveries.len();
        if n > threads {
            self.tail_s += (end - sink.deliveries[n - threads - 1]).as_secs_f64();
        }
        self.data_hits += stats.data_cache.hits;
        self.data_lookups += stats.data_cache.hits + stats.data_cache.misses;
        self.evictions += stats.data_cache.evictions;
        self.hier_hits += stats.hier_cache.hits;
        self.hier_lookups += stats.hier_cache.hits + stats.hier_cache.misses;
    }

    pub fn report(&self, out: &mut Outcome) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        out.set("runner.sink_wait_s", self.sink_wait_s);
        out.set("runner.tail_s", self.tail_s);
        out.set(
            "runner.data_cache.hit_ratio",
            ratio(self.data_hits, self.data_lookups),
        );
        out.set("runner.data_cache.evictions", self.evictions as f64);
        out.set(
            "runner.hier_pool.hit_ratio",
            ratio(self.hier_hits, self.hier_lookups),
        );
    }
}

/// Run the real `Runner` over `cfg` into a JSONL ledger at `path`,
/// behind a [`TimingSink`].
pub fn runner_once(
    cfg: &ExperimentConfig,
    path: &Path,
    threads: usize,
    view: &mut RunnerView,
) -> io::Result<()> {
    let mut runner = Runner::new(cfg.clone());
    runner.threads = threads;
    let manifest = runner.manifest();
    let mut jsonl = JsonlSink::create(path)?;
    let mut timing = TimingSink::new(&mut jsonl);
    let t = Instant::now();
    let stats = runner.run_with_sink(&manifest, &mut timing)?;
    view.add(threads, t.elapsed(), &stats, &timing);
    Ok(())
}

/// A mechanism whose `plan` runs inside an `algorithms.plan` span; every
/// other method delegates, so plan-cache keys and results are unchanged.
pub struct TimedMech<'a>(pub &'a dyn Mechanism);

impl Mechanism for TimedMech<'_> {
    fn info(&self) -> MechInfo {
        self.0.info()
    }

    fn plan(&self, domain: &Domain, workload: &Workload) -> Result<Box<dyn Plan>, MechError> {
        trace::span("algorithms.plan", 0, || self.0.plan(domain, workload))
    }

    fn supports(&self, domain: &Domain) -> bool {
        self.0.supports(domain)
    }

    fn config_fingerprint(&self) -> u64 {
        self.0.config_fingerprint()
    }
}

/// Counters of one replay.
#[derive(Default)]
pub struct ReplayCounts {
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub ledger_bytes: u64,
}

struct CellData {
    x: DataVector,
    workload: Arc<Workload>,
    y_true: Vec<f64>,
}

/// Replay every unit of `cfg`'s manifest through the layers' public
/// functions on this thread — data generation, true answers, plan cache,
/// execute, scoring, JSONL append (and summary append when `agg` is
/// given) — using the runner's own RNG coordinates, so the ledger written
/// to `ledger` is byte-identical to a `Runner` run of the same grid.
pub fn replay(
    cfg: &ExperimentConfig,
    ledger: &Path,
    mut agg: Option<&mut AggregatingSink>,
) -> io::Result<ReplayCounts> {
    let manifest = RunManifest::from_config(cfg);
    let dims = dims_label(cfg);
    let mechs: HashMap<&str, Box<dyn Mechanism>> = cfg
        .algorithms
        .iter()
        .map(|n| {
            (
                n.as_str(),
                mechanism_by_name(n).expect("registered mechanism"),
            )
        })
        .collect();
    let exec_names: HashMap<&str, String> = cfg
        .algorithms
        .iter()
        .map(|n| (n.as_str(), exec_span(dims, n)))
        .collect();
    let cache = PlanCache::new();
    let mut jsonl = JsonlSink::from_writer(BufWriter::new(std::fs::File::create(ledger)?));
    jsonl.begin(&manifest)?;
    if let Some(a) = agg.as_deref_mut() {
        a.begin(&manifest)?;
    }
    let mut ws = Workspace::new();
    let mut workloads: HashMap<Domain, Arc<Workload>> = HashMap::new();
    let mut cells: HashMap<(String, u64, usize), CellData> = HashMap::new();
    for unit in &manifest.units {
        let id = unit.pos as u64;
        let s = &unit.setting;
        let key = (s.dataset.clone(), s.scale, unit.sample);
        if !cells.contains_key(&key) {
            let dataset = cfg
                .datasets
                .iter()
                .find(|d| d.name == s.dataset)
                .expect("configured dataset");
            let x = trace::span("datasets.generate", id, || {
                let mut rng = rng_for(
                    "datagen",
                    &[
                        hash_str(dataset.name),
                        s.scale,
                        s.domain.n_cells() as u64,
                        unit.sample as u64,
                    ],
                );
                DataGenerator::new().generate(dataset, s.domain, s.scale, &mut rng)
            });
            let workload = Arc::clone(workloads.entry(s.domain).or_insert_with(|| {
                trace::span("core.workload.build", id, || {
                    Arc::new(cfg.workload.build(s.domain))
                })
            }));
            let y_true = trace::span("core.y_true", id, || workload.evaluate(&x));
            cells.insert(
                key.clone(),
                CellData {
                    x,
                    workload,
                    y_true,
                },
            );
        }
        let cell = &cells[&key];
        let mech = mechs[unit.algorithm.as_str()].as_ref();
        let plan = trace::span("runner.plan_cache.lookup", id, || {
            cache.plan_for(&TimedMech(mech), &s.domain, &cell.workload)
        })
        .map_err(|e| io::Error::other(format!("{} failed to plan: {e}", unit.algorithm)))?;
        let exec_name = &exec_names[unit.algorithm.as_str()];
        let mut y_hat = ws.take_f64(0);
        let mut samples = Vec::with_capacity(cfg.n_trials);
        for trial in 0..cfg.n_trials {
            let mut rng = rng_for(
                &unit.algorithm,
                &[
                    hash_str(&s.dataset),
                    s.scale,
                    s.domain.n_cells() as u64,
                    s.epsilon.to_bits(),
                    unit.sample as u64,
                    trial as u64,
                ],
            );
            let release = trace::span(exec_name, id, || {
                execute_eps_with(plan.as_ref(), &cell.x, s.epsilon, &mut ws, &mut rng)
            })
            .map_err(|e| io::Error::other(format!("{} failed: {e}", unit.algorithm)))?;
            let error = trace::span("core.score", id, || {
                cell.workload
                    .evaluate_cells_into(&release.estimate, &mut ws, &mut y_hat);
                scaled_per_query_error(&cell.y_true, &y_hat, cell.x.scale(), cfg.loss)
            });
            ws.give_f64(release.into_estimate());
            samples.push(ErrorSample {
                algorithm: unit.algorithm.clone(),
                setting: s.clone(),
                sample: unit.sample,
                trial,
                error,
            });
        }
        ws.give_f64(y_hat);
        trace::span("sink.append", id, || jsonl.unit_complete(unit, &samples))?;
        if let Some(a) = agg.as_deref_mut() {
            trace::span("sink.summary", id, || a.unit_complete(unit, &samples))?;
        }
    }
    jsonl.finish()?;
    drop(jsonl);
    let stats = cache.stats();
    Ok(ReplayCounts {
        plan_hits: stats.hits,
        plan_misses: stats.misses,
        ledger_bytes: std::fs::metadata(ledger)?.len(),
    })
}

/// Span-derived per-layer metrics common to every traced workload.
pub fn layer_metrics(trace: &trace::Trace, out: &mut Outcome) {
    let totals = trace.totals();
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    out.set(
        "datasets.generate.calls",
        get("datasets.generate").calls as f64,
    );
    out.set("datasets.generate.self_s", get("datasets.generate").self_s);
    out.set("core.y_true.self_s", get("core.y_true").self_s);
    out.set("core.score.self_s", get("core.score").self_s);
    out.set("core.serialize.self_s", get("core.serialize").self_s);
    out.set(
        "runner.plan_cache.lookups",
        get("runner.plan_cache.lookup").calls as f64,
    );
    out.set(
        "runner.plan_cache.lookup_self_s",
        get("runner.plan_cache.lookup").self_s,
    );
    out.set("algorithms.plan.self_s", get("algorithms.plan").self_s);
    let (mut calls, mut self_s) = (0u64, 0.0);
    for (name, t) in totals.range("algorithms.execute.".to_string()..) {
        if !name.starts_with("algorithms.execute.") {
            break;
        }
        calls += t.calls;
        self_s += t.self_s;
        out.set(&format!("{name}.self_s"), t.self_s);
    }
    out.set("algorithms.execute.calls", calls as f64);
    out.set("algorithms.execute.self_s", self_s);
    out.set("sink.append.units", get("sink.append").calls as f64);
    out.set("sink.append.self_s", get("sink.append").self_s);
    out.set("sink.summary.self_s", get("sink.summary").self_s);
    out.set("sink.validate.self_s", get("sink.validate").self_s);
    out.set("sink.merge.self_s", get("sink.merge").self_s);
    out.set("serve.http.parse.self_s", get("serve.http.parse").self_s);
    out.set("serve.http.write.self_s", get("serve.http.write").self_s);
    out.set("serve.reserve.calls", get("serve.reserve").calls as f64);
    out.set("serve.reserve.self_s", get("serve.reserve").self_s);
    out.set("serve.snapshot.self_s", get("serve.snapshot").self_s);
    out.set("fleet.launch.self_s", get("fleet.launch").self_s);
    out.set("trace.unattributed_frac", trace.unattributed_frac());
    let mut shares: Vec<(f64, &String)> = totals
        .iter()
        .filter(|(n, _)| n.starts_with("algorithms.execute."))
        .map(|(n, t)| (t.self_s, n))
        .collect();
    shares.sort_by(|a, b| b.0.total_cmp(&a.0));
    let wall = trace.wall_ns as f64 / 1e9;
    out.note(format!(
        "execute shares of traced wall {:.3}s: {}",
        wall,
        shares
            .iter()
            .take(6)
            .map(|(s, n)| format!(
                "{}={:.1}%",
                n.trim_start_matches("algorithms.execute."),
                100.0 * s / wall
            ))
            .collect::<Vec<_>>()
            .join(" ")
    ));
}

/// Validate a replayed ledger inside a `sink.validate` span; returns the
/// bytes read.
pub fn validate_span(path: &Path, manifest: &RunManifest) -> Result<(u64, Vec<u8>), String> {
    trace::span("sink.validate", 0, || check_ledger(path, manifest)).map(|(_, bytes)| {
        // read_ledger and read_samples each read the whole file.
        (2 * bytes.len() as u64, bytes)
    })
}

/// The traced run of a grid workload: the real `Runner` once behind a
/// timing sink (sink wait, tail, cache counters, and the ledger the
/// replay must match), an untraced replay, then the traced replay and
/// `extra` (further traced work, returning the bytes it validated).
/// With a `reference`, the replay also feeds an `AggregatingSink` and
/// every ledger must match the reference instead of the Runner's.
pub fn traced(
    ctx: &Ctx,
    parts: &[ExperimentConfig],
    reference: Option<&[Vec<u8>]>,
    out: &mut Outcome,
    mut extra: impl FnMut(&mut Outcome) -> Result<u64, String>,
) -> Result<(), String> {
    let with_agg = reference.is_some();
    let mut view = RunnerView::default();
    let mut runner_ledgers = Vec::new();
    for (i, cfg) in parts.iter().enumerate() {
        let path = ctx.dir.join(format!("runner{i}.jsonl"));
        runner_once(cfg, &path, ctx.nproc, &mut view).map_err(|e| e.to_string())?;
        runner_ledgers.push(std::fs::read(&path).map_err(|e| e.to_string())?);
    }
    view.report(out);

    let replay_all = |tag: &str| -> Result<(f64, ReplayCounts, Vec<PathBuf>), String> {
        let t = Instant::now();
        let mut counts = ReplayCounts::default();
        let mut paths = Vec::new();
        for (i, cfg) in parts.iter().enumerate() {
            let path = ctx.dir.join(format!("replay-{tag}{i}.jsonl"));
            let mut agg = AggregatingSink::new();
            let c = replay(cfg, &path, with_agg.then_some(&mut agg)).map_err(|e| e.to_string())?;
            counts.plan_hits += c.plan_hits;
            counts.plan_misses += c.plan_misses;
            counts.ledger_bytes += c.ledger_bytes;
            paths.push(path);
        }
        Ok((t.elapsed().as_secs_f64(), counts, paths))
    };
    let (plain_before, _, _) = replay_all("plain0")?;
    trace::start();
    let replayed = replay_all("traced");
    let mut validated = 0u64;
    let mut checks = Vec::new();
    if let Ok((_, _, paths)) = &replayed {
        for (path, cfg) in paths.iter().zip(parts) {
            let manifest = RunManifest::from_config(cfg);
            let checked = validate_span(path, &manifest);
            if let Ok((bytes, _)) = &checked {
                validated += bytes;
            }
            checks.push(checked);
        }
    }
    let extra_bytes = if replayed.is_ok() { extra(out) } else { Ok(0) };
    let trace = trace::stop();
    let (traced_s, counts, _) = replayed?;
    validated += extra_bytes?;
    // Untraced replays on both sides of the traced one, so warm-up
    // effects do not read as (negative) tracing overhead.
    let (plain_after, _, _) = replay_all("plain1")?;
    let plain_s = (plain_before + plain_after) / 2.0;

    for (i, (checked, cfg)) in checks.into_iter().zip(parts).enumerate() {
        let units = RunManifest::from_config(cfg).len() as u64;
        out.attempted += units;
        let expected = reference.map_or(&runner_ledgers[i], |r| &r[i]);
        match checked {
            Err(e) => out.fail(units, e),
            Ok((_, bytes)) if &bytes != expected => out.fail(
                units,
                format!("part {i}: traced replay ledger differs from the timed run's ledger"),
            ),
            Ok(_) => {}
        }
        if reference.is_some() && runner_ledgers[i] != *expected {
            out.fail(
                units,
                format!("part {i}: Runner ledger differs from the reference"),
            );
        }
    }
    layer_metrics(&trace, out);
    let lookups = counts.plan_hits + counts.plan_misses;
    out.set(
        "runner.plan_cache.hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            counts.plan_hits as f64 / lookups as f64
        },
    );
    out.set("sink.append.bytes", counts.ledger_bytes as f64);
    out.set("sink.validate.bytes", validated as f64);
    out.set("trace.overhead_frac", (traced_s - plain_s) / plain_s);
    out.note(format!(
        "wall s: runner {:.3} ({} threads), untraced replay {plain_s:.3}, traced replay {traced_s:.3}",
        view.wall_s, ctx.nproc
    ));
    dump(ctx, &trace)
}

/// Write the span dump of a traced run.
pub fn dump(ctx: &Ctx, trace: &trace::Trace) -> Result<(), String> {
    let path =
        PathBuf::from(".bench_runs").join(format!("{}-seed{}.spans.jsonl", ctx.workload, ctx.seed));
    trace
        .dump(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))
}
