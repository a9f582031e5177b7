//! Streaming, manifest-driven experiment-grid runner with cross-trial
//! plan caching.
//!
//! A run is described by a [`RunManifest`]: one unit per **(setting,
//! sample, mechanism)** triple, each with a stable content-hashed id (see
//! [`crate::manifest`]). Workers claim units from the manifest, run all
//! trials of the unit, and push the resulting [`ErrorSample`]s through a
//! **bounded channel** to a single consumer thread that feeds a
//! [`ResultSink`] — results stream out as the grid progresses instead of
//! accumulating behind a barrier at grid end. The consumer re-orders
//! completions into manifest order, so sink output is byte-deterministic
//! regardless of thread scheduling; a ledger-writing sink
//! ([`crate::sink::JsonlSink`]) therefore doubles as a checkpoint that
//! [`Runner::resume`] can continue bit-identically after a crash.
//!
//! The data vector, workload, and true answers `y_true` shared by the
//! mechanisms of one (setting, sample) cell are built exactly once in a
//! memoized data cache keyed by their coordinates (each cell samples from
//! a dataset shape built once per (dataset, domain)) — with **LRU
//! eviction under a configurable byte budget**
//! ([`Runner::data_cache_bytes`]), safe precisely because sinks stream
//! results out instead of holding the whole grid alive. Every trial
//! derives its RNG stream deterministically from its coordinates, so
//! results are reproducible and independent of thread scheduling, of
//! sharding, and of eviction (an evicted vector regenerates
//! bit-identically).
//!
//! **Claim rule.** The units of one cell are contiguous in the manifest,
//! and the worker that claims a cell's first unit builds the cell (and
//! its shape, when no worker has built or started that). A worker never
//! waits on a build another worker is doing: it passes over (defers)
//! every unit whose cell, or whose shape, is being built and claims the
//! earliest unit whose data is built or not yet started. Deferred units go
//! first once their data is built, and a worker blocks only when every
//! unit left waits on a build in progress. With one thread nothing is
//! ever in progress at a claim, so units run in manifest order. While one
//! worker builds a 2-D shape, the others build the next dataset's shape
//! or run cells that are ready. Units therefore finish out of order, and
//! a completion that arrives ahead of an earlier unit waits in the
//! consumer until that unit arrives.
//!
//! Mechanisms run through the two-phase plan/execute API: the runner keeps
//! a [`PlanCache`] keyed by `(mechanism, domain, workload)` so each
//! strategy — in particular the data-independent matrix-mechanism
//! instances (IDENTITY, H, HB, GREEDY_H, PRIVELET) — is constructed
//! exactly once per key instead of `n_samples × n_trials` times (a worker
//! needing a plan another worker is building waits for it). Each
//! worker thread owns a [`Workspace`], so steady-state trials recycle
//! their estimate, scratch, and prefix-table buffers instead of touching
//! the allocator; the data-dependent hierarchies of DAWA's stage 2 and
//! SF's buckets come from the workspace's size-bucketed `HierPool`, whose
//! hit counters the runner aggregates into [`RunStats`].

use crate::config::ExperimentConfig;
use crate::manifest::{ManifestUnit, RunManifest, UnitId};
use crate::results::{ErrorSample, ResultStore};
use crate::sink::{MemorySink, ResultSink};
use dpbench_algorithms::hierarchy::HierPool;
use dpbench_algorithms::registry::mechanism_by_name;
use dpbench_core::mechanism::execute_eps_with;
use dpbench_core::rng::{hash_str, rng_for};
use dpbench_core::{DataVector, Domain, MechError, Mechanism, Plan, Workload, Workspace};
use dpbench_datasets::DataGenerator;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Cache key: mechanism name × configuration fingerprint × domain ×
/// workload content fingerprint. The configuration fingerprint
/// ([`Mechanism::config_fingerprint`]) keeps same-named instances with
/// different tunables (ρ sweeps, branching factors, explicit strategy
/// matrices) from sharing plans.
type PlanKey = (String, u64, Domain, u64);

/// Hit/miss counters of a [`PlanCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Executions served by an already-built plan.
    pub hits: u64,
    /// Plans built (one per distinct key).
    pub misses: u64,
}

impl PlanCacheStats {
    /// Hit fraction in [0, 1]; 0 when nothing was requested.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One cache entry: a per-key lock around the (lazily) built plan, so
/// building never blocks lookups of *other* keys.
#[derive(Default)]
struct Slot {
    plan: Mutex<Option<Arc<dyn Plan>>>,
}

/// A concurrent map from `(mechanism, config, domain, workload)` to built
/// plans.
///
/// Plans hold no private data (phase 1 of the mechanism API never sees
/// `x`), so sharing them across threads, samples, and trials is sound; it
/// amortizes strategy construction that the old single-phase API repeated
/// on every trial. The global map lock is held only to resolve the key to
/// its slot; building happens under the slot's own lock, so each key is
/// constructed exactly once even under thread races while an expensive
/// build (e.g. an O(n³) matrix factorization) never stalls workers
/// fetching other keys.
#[derive(Default)]
pub struct PlanCache {
    map: Mutex<HashMap<PlanKey, Arc<Slot>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Plans built successfully, maintained so [`PlanCache::len`] is a
    /// single atomic load instead of a walk taking the map lock plus every
    /// slot lock.
    built: AtomicU64,
}

impl PlanCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fetch the plan for `(mech, domain, workload)`, building it on first
    /// use. A failed build leaves the slot empty, so a later call retries.
    pub fn plan_for(
        &self,
        mech: &dyn Mechanism,
        domain: &Domain,
        workload: &Workload,
    ) -> Result<Arc<dyn Plan>, MechError> {
        self.plan_for_traced(mech, domain, workload).map(|(p, _)| p)
    }

    /// [`PlanCache::plan_for`] that also reports whether *this* lookup was
    /// served by an already-built plan — the per-request cache-hit bit of
    /// the release server (the global counters alone cannot attribute a
    /// hit to a particular concurrent caller).
    pub fn plan_for_traced(
        &self,
        mech: &dyn Mechanism,
        domain: &Domain,
        workload: &Workload,
    ) -> Result<(Arc<dyn Plan>, bool), MechError> {
        let key = (
            mech.info().name,
            mech.config_fingerprint(),
            *domain,
            workload.fingerprint(),
        );
        let slot = {
            let mut map = self.map.lock().expect("plan cache poisoned");
            Arc::clone(map.entry(key).or_default())
        };
        let mut built = slot.plan.lock().expect("plan slot poisoned");
        if let Some(plan) = built.as_ref() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(plan), true));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let plan: Arc<dyn Plan> = Arc::from(mech.plan(domain, workload)?);
        *built = Some(Arc::clone(&plan));
        self.built.fetch_add(1, Ordering::Relaxed);
        Ok((plan, false))
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct plans held (built successfully) — one relaxed
    /// atomic load; safe to poll from a progress thread while workers run.
    pub fn len(&self) -> usize {
        self.built.load(Ordering::Relaxed) as usize
    }

    /// True when no plan has been built yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Everything the mechanisms of one (setting, sample) cell share: the
/// generated data vector, the materialized workload, the true answers, and
/// the dataset scale. Immutable once built, so one `Arc` serves every
/// mechanism-unit (and thread) of the cell.
struct UnitData {
    x: DataVector,
    /// Shared per-domain workload (one copy per domain, not per cell).
    workload: Arc<Workload>,
    y_true: Vec<f64>,
    scale: f64,
}

impl UnitData {
    /// Approximate resident bytes (the two f64 arrays; the workload is
    /// shared per domain and accounted separately as negligible).
    fn bytes(&self) -> usize {
        (self.x.n_cells() + self.y_true.len()) * std::mem::size_of::<f64>()
            + std::mem::size_of::<Self>()
    }
}

/// Cache key of one generated data vector: (dataset-name hash, scale,
/// domain, sample index).
type DataKey = (u64, u64, Domain, usize);

/// Cache key of one dataset shape: (dataset-name hash, domain).
type ShapeKey = (u64, Domain);

/// The data cell a unit reads and the dataset shape beneath it.
fn cell_keys(unit: &ManifestUnit) -> (DataKey, ShapeKey) {
    let (name, domain) = (hash_str(&unit.setting.dataset), unit.setting.domain);
    (
        (name, unit.setting.scale, domain, unit.sample),
        (name, domain),
    )
}

/// Counters of the runner's data cache (exposed through [`RunStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DataCacheStats {
    /// Lookups served by an already-generated vector.
    pub hits: u64,
    /// Vectors generated (first use or regeneration after eviction).
    pub misses: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Bytes resident when the run finished.
    pub resident_bytes: usize,
}

/// One [`DataCache`] entry: the cell's data plus LRU bookkeeping.
struct DataEntry {
    /// `None` while a worker builds the cell.
    data: Option<Arc<UnitData>>,
    /// Monotonic access tick (bigger = more recent).
    last_used: u64,
    /// Resident bytes; 0 until the cell is built.
    bytes: usize,
}

/// Everything behind the [`DataCache`]'s one lock. The claim queue lives
/// here too, so that claiming a unit and marking the build it starts are
/// one step: no other worker can see the cell as unclaimed in between.
#[derive(Default)]
struct DataMap {
    cells: HashMap<DataKey, DataEntry>,
    /// Dataset shapes depend only on (dataset, domain): every (scale,
    /// sample) cell of one dataset and domain draws from one shape built
    /// once per run (a 2-D shape costs tens of milliseconds, the
    /// multinomial draw from it well under one). `None` while a worker
    /// builds it. Like the workloads, they stay outside the byte budget.
    shapes: HashMap<ShapeKey, Option<Arc<Vec<f64>>>>,
    total_bytes: usize,
    /// LRU clock.
    tick: u64,
    /// First manifest position no worker has looked at yet.
    next: usize,
    /// Positions passed over because their cell or shape was being built,
    /// ascending.
    deferred: Vec<usize>,
}

impl DataMap {
    /// Whether `unit` waits on a build in progress: its cell's, or (for a
    /// cell not yet started) its shape's.
    fn busy(&self, unit: &ManifestUnit) -> bool {
        let (key, shape) = cell_keys(unit);
        match self.cells.get(&key) {
            Some(entry) => entry.data.is_none(),
            None => matches!(self.shapes.get(&shape), Some(None)),
        }
    }
}

/// How a claimed unit gets its data.
enum CellClaim {
    /// The cell is built; the claim holds it (a cache hit).
    Ready(Arc<UnitData>),
    /// The claiming worker builds the cell, and the shape too when this
    /// holds none.
    Build(Option<Arc<Vec<f64>>>),
}

/// A test's hook into a cell build (see `DataCache::before_build`).
#[cfg(test)]
type BuildHook = Box<dyn Fn(&DataCache, &DataKey) + Sync>;

/// Memoized `(dataset, scale, domain, sample)` → [`UnitData`] map with
/// LRU eviction under a byte budget, and the queue workers claim units
/// from. Note ε is *not* part of the key: the data vector never depends on
/// the privacy budget, so an ε sweep shares one generated vector per
/// sample. Eviction is safe for correctness because generation is
/// deterministic per coordinates — an evicted entry regenerates
/// bit-identically — and in-flight users hold their own `Arc`, so a
/// victim's memory is reclaimed when the last unit using it finishes.
struct DataCache {
    inner: Mutex<DataMap>,
    /// Signalled whenever a cell or a shape is built (or a build unwinds).
    built: Condvar,
    /// Workloads depend only on the domain; memoized separately so the
    /// grid holds one query list per domain instead of one per cell.
    workloads: Mutex<HashMap<Domain, Arc<Workload>>>,
    budget_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Called by a worker about to build a cell, once its shape is built.
    #[cfg(test)]
    before_build: Option<BuildHook>,
}

impl DataCache {
    fn new(budget_bytes: usize) -> Self {
        Self {
            inner: Mutex::default(),
            built: Condvar::new(),
            workloads: Mutex::default(),
            budget_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            #[cfg(test)]
            before_build: None,
        }
    }

    fn lock(&self) -> MutexGuard<'_, DataMap> {
        self.inner.lock().expect("data cache poisoned")
    }

    fn stats(&self) -> DataCacheStats {
        DataCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes: self.lock().total_bytes,
        }
    }

    fn workload_for(&self, cfg: &ExperimentConfig, domain: Domain) -> Arc<Workload> {
        let mut map = self.workloads.lock().expect("workload cache poisoned");
        Arc::clone(
            map.entry(domain)
                .or_insert_with(|| Arc::new(cfg.workload.build(domain))),
        )
    }

    /// Claim the next unit of `units` to run: the earliest one, deferred or
    /// not yet looked at, that does not wait on a build in progress. Units
    /// passed over are deferred; the caller blocks only when every unit
    /// left waits on one. `None` once nothing is left or `halt()` holds.
    fn claim(&self, units: &[ManifestUnit], halt: &dyn Fn() -> bool) -> Option<(usize, CellClaim)> {
        let mut map = self.lock();
        loop {
            if halt() {
                return None;
            }
            let m = &mut *map;
            let found = match m.deferred.iter().position(|&i| !m.busy(&units[i])) {
                Some(at) => Some(m.deferred.remove(at)),
                None => loop {
                    let Some(unit) = units.get(m.next) else {
                        break None;
                    };
                    m.next += 1;
                    if !m.busy(unit) {
                        break Some(m.next - 1);
                    }
                    m.deferred.push(m.next - 1);
                },
            };
            if let Some(i) = found {
                return Some((i, self.take(m, &units[i])));
            }
            if m.deferred.is_empty() {
                return None;
            }
            map = self.built.wait(map).expect("data cache poisoned");
        }
    }

    /// The data of a unit that does not wait on a build: a hit, or a miss
    /// that marks its cell (and a missing shape) as being built.
    fn take(&self, map: &mut DataMap, unit: &ManifestUnit) -> CellClaim {
        let (key, shape) = cell_keys(unit);
        map.tick += 1;
        if let Some(entry) = map.cells.get_mut(&key) {
            entry.last_used = map.tick;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return CellClaim::Ready(Arc::clone(entry.data.as_ref().expect("cell is built")));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        map.cells.insert(
            key,
            DataEntry {
                data: None,
                last_used: map.tick,
                bytes: 0,
            },
        );
        CellClaim::Build(match map.shapes.entry(shape) {
            Entry::Occupied(built) => {
                Some(Arc::clone(built.get().as_ref().expect("shape is built")))
            }
            Entry::Vacant(slot) => {
                slot.insert(None);
                None
            }
        })
    }

    /// Build the cell of a unit claimed with [`CellClaim::Build`] (and its
    /// shape, when the claim held none), publish both, and wake waiting
    /// workers.
    fn build(
        &self,
        cfg: &ExperimentConfig,
        unit: &ManifestUnit,
        shape: Option<Arc<Vec<f64>>>,
    ) -> Arc<UnitData> {
        let (key, shape_key) = cell_keys(unit);
        let setting = &unit.setting;
        let mut marks = BuildMarks {
            cache: self,
            cell: Some(key),
            shape: shape.is_none().then_some(shape_key),
        };
        let dataset = cfg
            .datasets
            .iter()
            .find(|d| d.name == setting.dataset)
            .expect("setting references a configured dataset");
        let shape = shape.unwrap_or_else(|| {
            let built = Arc::new(dataset.shape(setting.domain));
            self.lock()
                .shapes
                .insert(shape_key, Some(Arc::clone(&built)));
            marks.shape = None;
            self.built.notify_all();
            built
        });
        #[cfg(test)]
        if let Some(hook) = &self.before_build {
            hook(self, &key);
        }
        // Generate the data vector (deterministic per coordinates).
        let mut data_rng = rng_for(
            "datagen",
            &[
                hash_str(dataset.name),
                setting.scale,
                setting.domain.n_cells() as u64,
                unit.sample as u64,
            ],
        );
        let x: DataVector =
            DataGenerator::new().from_shape(&shape, setting.domain, setting.scale, &mut data_rng);
        let workload = self.workload_for(cfg, setting.domain);
        let y_true = workload.evaluate(&x);
        let scale = x.scale();
        let data = Arc::new(UnitData {
            x,
            workload,
            y_true,
            scale,
        });
        self.publish(key, &data);
        marks.cell = None;
        self.built.notify_all();
        data
    }

    /// Store a freshly built cell, record its size, and evict
    /// least-recently-used built entries until the budget holds. The
    /// just-built key is exempt (guaranteed progress even under a budget
    /// smaller than one vector).
    fn publish(&self, just_built: DataKey, data: &Arc<UnitData>) {
        let mut map = self.lock();
        let map = &mut *map;
        let entry = map
            .cells
            .get_mut(&just_built)
            .expect("a claimed cell stays");
        entry.data = Some(Arc::clone(data));
        entry.bytes = data.bytes();
        map.total_bytes += entry.bytes;
        while map.total_bytes > self.budget_bytes {
            let victim = map
                .cells
                .iter()
                .filter(|(k, e)| e.bytes > 0 && **k != just_built)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    let e = map.cells.remove(&k).expect("victim exists");
                    map.total_bytes -= e.bytes;
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
    }
}

/// The in-progress marks of one build. A build that unwinds drops them
/// here, so workers waiting on them claim the cell afresh instead of
/// waiting forever.
struct BuildMarks<'a> {
    cache: &'a DataCache,
    cell: Option<DataKey>,
    shape: Option<ShapeKey>,
}

impl Drop for BuildMarks<'_> {
    fn drop(&mut self) {
        if self.cell.is_none() && self.shape.is_none() {
            return;
        }
        let mut map = self.cache.inner.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(key) = self.cell {
            map.cells.remove(&key);
        }
        if let Some(key) = self.shape {
            map.shapes.remove(&key);
        }
        self.cache.built.notify_all();
    }
}

/// Aggregated per-run counters of the workers' size-bucketed `HierPool`s
/// (the hierarchy cache of DAWA's stage 2 and SF's buckets).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierCacheStats {
    /// Hierarchy requests served from a worker's pool.
    pub hits: u64,
    /// Hierarchies built.
    pub misses: u64,
}

impl HierCacheStats {
    /// Hit fraction in [0, 1]; 0 when nothing was requested.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// What a streamed run did (returned by [`Runner::run_with_sink`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// Units completed and delivered to the sink.
    pub units: usize,
    /// Samples delivered to the sink.
    pub samples: usize,
    /// Units skipped by a resume filter before the run started.
    pub skipped: usize,
    /// Data-generation cache counters.
    pub data_cache: DataCacheStats,
    /// Aggregated hierarchy pool counters (DAWA's stage 2, SF's buckets).
    pub hier_cache: HierCacheStats,
}

/// The grid runner.
pub struct Runner {
    config: ExperimentConfig,
    /// Number of worker threads (defaults to available parallelism).
    pub threads: usize,
    /// Print one line per completed unit to stderr.
    pub verbose: bool,
    /// Plan cache shared by all workers; inspect after a run for hit
    /// statistics.
    pub plan_cache: PlanCache,
    /// Byte budget of the generated-data cache (LRU-evicted above this;
    /// default 256 MiB). Determinism is unaffected — evicted vectors
    /// regenerate bit-identically.
    pub data_cache_bytes: usize,
    /// Stop cleanly after this many units have been delivered to the sink
    /// (in manifest order). A testing/ops knob: the resulting ledger looks
    /// exactly like an interrupted run and can be `--resume`d.
    pub max_units: Option<usize>,
    /// External cancellation flag (e.g. set from a SIGINT handler). When
    /// it flips to `true`, workers stop claiming new units, in-flight
    /// units drain to the sink in manifest order, and the sink is flushed
    /// normally — the ledger looks exactly like a `max_units` stop and can
    /// be `--resume`d.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl Runner {
    /// Create a runner over a configuration.
    pub fn new(config: ExperimentConfig) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self {
            config,
            threads,
            verbose: false,
            plan_cache: PlanCache::new(),
            data_cache_bytes: 256 << 20,
            max_units: None,
            cancel: None,
        }
    }

    /// The full manifest of this runner's grid.
    pub fn manifest(&self) -> RunManifest {
        RunManifest::from_config(&self.config)
    }

    /// Execute the whole grid into memory and return the result store —
    /// the convenience wrapper over [`Runner::run_with_sink`] with a
    /// [`MemorySink`].
    pub fn run(&self) -> ResultStore {
        let mut sink = MemorySink::new();
        self.run_with_sink(&self.manifest(), &mut sink)
            .expect("memory sink cannot fail");
        sink.into_store()
    }

    /// Resume a run from a ledger: execute only the units of `manifest`
    /// whose ids are not in `done`. Merged with the prior results, the
    /// totals are bit-identical to an uninterrupted run (per-unit RNG
    /// streams depend only on unit coordinates).
    pub fn resume(
        &self,
        manifest: &RunManifest,
        done: &HashSet<UnitId>,
        sink: &mut dyn ResultSink,
    ) -> io::Result<RunStats> {
        let pending = manifest.without(done);
        let skipped = manifest.len() - pending.len();
        let mut stats = self.run_with_sink(&pending, sink)?;
        stats.skipped = skipped;
        Ok(stats)
    }

    /// Execute every unit of `manifest` (a full manifest, a shard, or a
    /// resume remainder of this runner's config), streaming completed
    /// units to `sink` in manifest order through a bounded channel — no
    /// barrier at grid end, no whole-grid accumulation in the runner.
    ///
    /// Fails fast (workers stop claiming units) when the sink reports an
    /// I/O error; every unit delivered before the failure remains valid.
    pub fn run_with_sink(
        &self,
        manifest: &RunManifest,
        sink: &mut dyn ResultSink,
    ) -> io::Result<RunStats> {
        self.run_on(manifest, sink, &DataCache::new(self.data_cache_bytes))
    }

    /// [`Runner::run_with_sink`] over a given data cache.
    fn run_on(
        &self,
        manifest: &RunManifest,
        sink: &mut dyn ResultSink,
        data_cache: &DataCache,
    ) -> io::Result<RunStats> {
        self.config
            .validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        if manifest.fingerprint != self.config.fingerprint() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "manifest fingerprint does not match this runner's config \
                 (different grid definition)",
            ));
        }
        // Instantiate each mechanism once; plans are cached per
        // (mechanism, domain, workload) across all units.
        let mechs: HashMap<&str, Box<dyn Mechanism>> = self
            .config
            .algorithms
            .iter()
            .map(|name| {
                let mech =
                    mechanism_by_name(name).unwrap_or_else(|| panic!("unknown mechanism {name}"));
                (name.as_str(), mech)
            })
            .collect();

        sink.begin(manifest)?;

        let units = &manifest.units;
        let stop = AtomicBool::new(false);
        let hier_hits = AtomicU64::new(0);
        let hier_misses = AtomicU64::new(0);
        let threads = self.threads.max(1).min(units.len().max(1));
        // Bounded hand-off: workers block (applying backpressure) once the
        // sink falls this far behind.
        let (tx, rx) = sync_channel::<(usize, Vec<ErrorSample>)>(threads * 2);
        let max_units = self.max_units.unwrap_or(usize::MAX);

        // Consumer-side tallies; the consumer runs on this thread inside
        // the scope, so plain locals suffice.
        let mut emitted_units = 0_usize;
        let mut emitted_samples = 0_usize;
        let mut sink_err: Option<io::Error> = None;

        let halt = || {
            stop.load(Ordering::Relaxed)
                || self
                    .cancel
                    .as_ref()
                    .is_some_and(|c| c.load(Ordering::Relaxed))
        };

        std::thread::scope(|scope| {
            let (halt, stop) = (&halt, &stop);
            let (hier_hits, hier_misses) = (&hier_hits, &hier_misses);
            let mechs = &mechs;
            for _ in 0..threads {
                let tx = tx.clone();
                scope.spawn(move || {
                    // Per-thread scratch pool: estimates, prefix tables,
                    // hierarchies, and mechanism scratch recycle across all
                    // trials this worker runs.
                    let mut ws = Workspace::new();
                    while let Some((idx, claim)) = data_cache.claim(units, halt) {
                        let unit = &units[idx];
                        let data = match claim {
                            CellClaim::Ready(data) => data,
                            CellClaim::Build(shape) => data_cache.build(&self.config, unit, shape),
                        };
                        let samples = self.run_trials(unit, mechs, &data, &mut ws);
                        if tx.send((idx, samples)).is_err() {
                            break; // consumer gone (stopped early)
                        }
                    }
                    // Surface this worker's hierarchy-pool counters.
                    let pool: Box<HierPool> = ws.take_typed();
                    hier_hits.fetch_add(pool.hits, Ordering::Relaxed);
                    hier_misses.fetch_add(pool.misses, Ordering::Relaxed);
                });
            }
            // Drop the original sender: the consumer's recv disconnects
            // once every worker clone is gone.
            drop(tx);

            // Consumer (this thread): re-order completions into manifest
            // order and feed the sink. Out-of-order completions wait in
            // `pending`: a worker that claims past a cell under
            // construction finishes later units first, and they are held
            // here until every earlier unit has arrived.
            let mut pending: BTreeMap<usize, Vec<ErrorSample>> = BTreeMap::new();
            let mut next_emit = 0_usize;
            while let Ok((idx, samples)) = rx.recv() {
                pending.insert(idx, samples);
                while let Some(samples) = pending.remove(&next_emit) {
                    let unit = &units[next_emit];
                    next_emit += 1;
                    if sink_err.is_some() || emitted_units >= max_units {
                        continue; // drain without emitting
                    }
                    match sink.unit_complete(unit, &samples) {
                        Ok(()) => {
                            emitted_units += 1;
                            emitted_samples += samples.len();
                            if self.verbose {
                                eprintln!(
                                    "[dpbench] unit {}/{} {} sample {} {} done ({} trials)",
                                    unit.pos + 1,
                                    manifest.total_units,
                                    unit.setting,
                                    unit.sample,
                                    unit.algorithm,
                                    samples.len()
                                );
                            }
                            if emitted_units >= max_units {
                                stop.store(true, Ordering::Relaxed);
                            }
                        }
                        Err(e) => {
                            sink_err = Some(e);
                            stop.store(true, Ordering::Relaxed);
                        }
                    }
                }
            }
        });

        if let Some(e) = sink_err {
            return Err(e);
        }
        sink.finish()?;
        Ok(RunStats {
            units: emitted_units,
            samples: emitted_samples,
            skipped: 0,
            data_cache: data_cache.stats(),
            hier_cache: HierCacheStats {
                hits: hier_hits.load(Ordering::Relaxed),
                misses: hier_misses.load(Ordering::Relaxed),
            },
        })
    }

    /// Run all trials of one mechanism on one generated data vector.
    fn run_trials(
        &self,
        unit: &ManifestUnit,
        mechs: &HashMap<&str, Box<dyn Mechanism>>,
        data: &UnitData,
        ws: &mut Workspace,
    ) -> Vec<ErrorSample> {
        let cfg = &self.config;
        let alg_name = unit.algorithm.as_str();
        let mech = &mechs[alg_name];
        let plan = self
            .plan_cache
            .plan_for(mech, &unit.setting.domain, &data.workload)
            .unwrap_or_else(|e| panic!("{alg_name} failed to plan: {e}"));

        let mut out = Vec::with_capacity(cfg.n_trials);
        for trial in 0..cfg.n_trials {
            let mut rng = rng_for(
                alg_name,
                &[
                    hash_str(&unit.setting.dataset),
                    unit.setting.scale,
                    unit.setting.domain.n_cells() as u64,
                    unit.setting.epsilon.to_bits(),
                    unit.sample as u64,
                    trial as u64,
                ],
            );
            let release =
                execute_eps_with(plan.as_ref(), &data.x, unit.setting.epsilon, ws, &mut rng)
                    .unwrap_or_else(|e| panic!("{alg_name} failed: {e}"));
            let error = data.workload.scaled_error(
                &release.estimate,
                &data.y_true,
                data.scale,
                cfg.loss,
                ws,
            );
            // Recycle the estimate buffer into the pool for the next trial.
            ws.give_f64(release.into_estimate());
            out.push(ErrorSample {
                algorithm: unit.algorithm.clone(),
                setting: unit.setting.clone(),
                sample: unit.sample,
                trial,
                error,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkloadSpec;
    use crate::sink::AggregatingSink;
    use dpbench_core::mechanism::execute_eps;
    use dpbench_core::{Domain, Loss};
    use dpbench_datasets::catalog;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            datasets: vec![catalog::by_name("MEDCOST").unwrap()],
            scales: vec![10_000],
            domains: vec![Domain::D1(256)],
            epsilons: vec![0.5],
            algorithms: vec!["IDENTITY".into(), "UNIFORM".into(), "DAWA".into()],
            n_samples: 2,
            n_trials: 3,
            workload: WorkloadSpec::Prefix,
            loss: Loss::L2,
        }
    }

    #[test]
    fn runs_grid_and_collects_all_samples() {
        let store = Runner::new(tiny_config()).run();
        // 1 setting × 2 samples × 3 algorithms × 3 trials = 18.
        assert_eq!(store.samples().len(), 18);
        assert_eq!(store.algorithms().len(), 3);
        assert!(store.samples().iter().all(|s| s.error.is_finite()));
    }

    #[test]
    fn deterministic_across_runs_and_threading() {
        let mut a = Runner::new(tiny_config());
        a.threads = 1;
        let mut b = Runner::new(tiny_config());
        b.threads = 4;
        let sa = a.run();
        let sb = b.run();
        let setting = sa.settings()[0].clone();
        for alg in ["IDENTITY", "UNIFORM", "DAWA"] {
            let ea = sa.errors_for(alg, &setting);
            let eb = sb.errors_for(alg, &setting);
            assert_eq!(ea, eb, "{alg} differs across thread counts");
        }
    }

    #[test]
    fn sink_receives_units_in_manifest_order() {
        let mut runner = Runner::new(tiny_config());
        runner.threads = 4;
        let manifest = runner.manifest();
        let mut sink = MemorySink::new();
        let stats = runner.run_with_sink(&manifest, &mut sink).unwrap();
        assert_eq!(stats.units, manifest.len());
        assert_eq!(stats.samples, 18);
        // Completion order matches the manifest exactly despite 4 threads.
        let expected: Vec<UnitId> = manifest.units.iter().map(|u| u.id).collect();
        assert_eq!(sink.completed(), expected.as_slice());
        // And so does the sample stream.
        for (s, u) in sink.store().samples().chunks(3).zip(&manifest.units) {
            assert!(s
                .iter()
                .all(|x| x.algorithm == u.algorithm && x.sample == u.sample));
        }
    }

    #[test]
    fn rejects_foreign_manifest() {
        let runner = Runner::new(tiny_config());
        let mut other_cfg = tiny_config();
        other_cfg.epsilons = vec![0.9];
        let foreign = RunManifest::from_config(&other_cfg);
        let mut sink = MemorySink::new();
        assert!(runner.run_with_sink(&foreign, &mut sink).is_err());
    }

    /// Two 2-D datasets at two scales and two samples each: eight cells
    /// over two shapes, four mechanisms per cell.
    fn grid_2d_config() -> ExperimentConfig {
        ExperimentConfig {
            datasets: vec![
                catalog::by_name("BJ-CABS-S").unwrap(),
                catalog::by_name("STROKE").unwrap(),
            ],
            scales: vec![10_000, 1_000_000],
            domains: vec![Domain::D2(32, 32)],
            epsilons: vec![0.1],
            algorithms: ["HB", "GREEDY_H", "DAWA", "QUADTREE"]
                .map(String::from)
                .to_vec(),
            n_samples: 2,
            n_trials: 2,
            workload: WorkloadSpec::RandomRanges(100),
            loss: Loss::L2,
        }
    }

    /// The ledger bytes and data-cache counters of one run.
    fn ledger_of(runner: &Runner, data_cache: &DataCache) -> (String, DataCacheStats) {
        let mut bytes = Vec::new();
        let stats = {
            let mut sink = crate::sink::JsonlSink::from_writer(&mut bytes);
            runner
                .run_on(&runner.manifest(), &mut sink, data_cache)
                .unwrap()
        };
        (String::from_utf8(bytes).unwrap(), stats.data_cache)
    }

    #[test]
    fn max_units_stops_after_a_prefix_of_the_manifest() {
        for cfg in [tiny_config(), grid_2d_config()] {
            let mut runner = Runner::new(cfg);
            runner.threads = 4;
            runner.max_units = Some(4);
            let manifest = runner.manifest();
            let mut sink = MemorySink::new();
            let stats = runner.run_with_sink(&manifest, &mut sink).unwrap();
            assert_eq!(stats.units, 4);
            let expected: Vec<UnitId> = manifest.units.iter().take(4).map(|u| u.id).collect();
            assert_eq!(sink.completed(), expected.as_slice());
        }
    }

    #[test]
    fn threads_write_the_same_2d_ledger_and_build_each_cell_once() {
        let mut reference = None;
        for threads in [1, 2, 4] {
            let mut runner = Runner::new(grid_2d_config());
            runner.threads = threads;
            let (ledger, stats) = ledger_of(&runner, &DataCache::new(runner.data_cache_bytes));
            assert_eq!(stats.misses, 8, "{threads} threads: {stats:?}");
            assert_eq!(stats.hits, 24, "{threads} threads: {stats:?}");
            match &reference {
                None => reference = Some(ledger),
                Some(r) => assert!(ledger == *r, "{threads} threads wrote other bytes"),
            }
        }
    }

    /// While one worker's build of the first cell is held open, the other
    /// worker must claim past that cell's second unit and finish the next
    /// cell's units: the held build waits until the cell after that is
    /// built. A worker that blocked on the held cell instead would never
    /// get there, so the wait is bounded and the test fails rather than
    /// hangs.
    #[test]
    fn a_worker_claims_past_a_cell_another_worker_is_building() {
        let mut cfg = tiny_config();
        cfg.scales = vec![1_000, 2_000, 3_000];
        cfg.algorithms = vec!["IDENTITY".into(), "UNIFORM".into()];
        cfg.n_samples = 1;
        let mut runner = Runner::new(cfg);
        runner.threads = 2;
        let manifest = runner.manifest();
        let (held, third) = (
            cell_keys(&manifest.units[0]).0,
            cell_keys(&manifest.units[4]).0,
        );
        let overtaken = Arc::new(AtomicBool::new(false));
        let mut cache = DataCache::new(runner.data_cache_bytes);
        let flag = Arc::clone(&overtaken);
        cache.before_build = Some(Box::new(move |cache, key| {
            if *key != held {
                return;
            }
            let (map, wait) = cache
                .built
                .wait_timeout_while(cache.lock(), std::time::Duration::from_secs(30), |m| {
                    m.cells.get(&third).is_none_or(|e| e.data.is_none())
                })
                .unwrap();
            drop(map);
            flag.store(!wait.timed_out(), Ordering::Relaxed);
        }));
        let (ledger, stats) = ledger_of(&runner, &cache);
        assert!(
            overtaken.load(Ordering::Relaxed),
            "no worker finished a later cell while the first was being built"
        );
        assert_eq!(stats.misses, 3, "{stats:?}");
        runner.threads = 1;
        let (serial, _) = ledger_of(&runner, &DataCache::new(runner.data_cache_bytes));
        assert_eq!(ledger, serial);
    }

    #[test]
    fn resume_completes_exactly_the_missing_units() {
        let runner = Runner::new(tiny_config());
        let manifest = runner.manifest();
        // Uninterrupted reference run.
        let full = runner.run();

        // "Crash" after 5 units, then resume.
        let mut first = Runner::new(tiny_config());
        first.max_units = Some(5);
        let mut part = MemorySink::new();
        first.run_with_sink(&manifest, &mut part).unwrap();
        let done: HashSet<UnitId> = part.completed().iter().copied().collect();
        assert_eq!(done.len(), 5);

        let second = Runner::new(tiny_config());
        let mut rest = MemorySink::new();
        let stats = second.resume(&manifest, &done, &mut rest).unwrap();
        assert_eq!(stats.skipped, 5);
        assert_eq!(stats.units, manifest.len() - 5);

        // Union is bit-identical to the uninterrupted run.
        let mut merged: Vec<(String, usize, usize, u64)> = Vec::new();
        for s in part.store().samples().iter().chain(rest.store().samples()) {
            merged.push((s.algorithm.clone(), s.sample, s.trial, s.error.to_bits()));
        }
        merged.sort();
        let mut reference: Vec<(String, usize, usize, u64)> = full
            .samples()
            .iter()
            .map(|s| (s.algorithm.clone(), s.sample, s.trial, s.error.to_bits()))
            .collect();
        reference.sort();
        assert_eq!(merged, reference);
    }

    #[test]
    fn shards_union_to_the_full_grid() {
        let runner = Runner::new(tiny_config());
        let manifest = runner.manifest();
        let full = runner.run();
        let mut merged: Vec<(String, usize, usize, u64)> = Vec::new();
        for i in 0..2 {
            let shard_runner = Runner::new(tiny_config());
            let mut sink = MemorySink::new();
            shard_runner
                .run_with_sink(&manifest.shard(i, 2), &mut sink)
                .unwrap();
            merged.extend(
                sink.store()
                    .samples()
                    .iter()
                    .map(|s| (s.algorithm.clone(), s.sample, s.trial, s.error.to_bits())),
            );
        }
        merged.sort();
        let mut reference: Vec<(String, usize, usize, u64)> = full
            .samples()
            .iter()
            .map(|s| (s.algorithm.clone(), s.sample, s.trial, s.error.to_bits()))
            .collect();
        reference.sort();
        assert_eq!(merged, reference);
    }

    #[test]
    fn data_cache_eviction_preserves_results() {
        // A zero-byte budget forces eviction after every build; results
        // must not change (regeneration is deterministic).
        let reference = Runner::new(tiny_config()).run();
        let mut squeezed = Runner::new(tiny_config());
        squeezed.data_cache_bytes = 0;
        let manifest = squeezed.manifest();
        let mut sink = MemorySink::new();
        let stats = squeezed.run_with_sink(&manifest, &mut sink).unwrap();
        assert!(stats.data_cache.evictions > 0, "{:?}", stats.data_cache);
        let setting = reference.settings()[0].clone();
        for alg in ["IDENTITY", "UNIFORM", "DAWA"] {
            assert_eq!(
                reference.errors_for(alg, &setting),
                sink.store().errors_for(alg, &setting),
                "{alg} changed under eviction"
            );
        }
        // Budget honored at end of run (nothing resident above 0 + the
        // just-built exemption's single entry).
        assert!(stats.data_cache.resident_bytes <= 40_000);
    }

    #[test]
    fn data_cache_shares_within_budget() {
        let mut runner = Runner::new(tiny_config());
        runner.threads = 1;
        let manifest = runner.manifest();
        let mut sink = MemorySink::new();
        let stats = runner.run_with_sink(&manifest, &mut sink).unwrap();
        // 2 (setting, sample) cells → 2 builds; 3 mechanisms each → 4 hits.
        assert_eq!(stats.data_cache.misses, 2, "{:?}", stats.data_cache);
        assert_eq!(stats.data_cache.hits, 4);
        assert_eq!(stats.data_cache.evictions, 0);
    }

    #[test]
    fn hier_pool_hits_across_dawa_trials() {
        let mut cfg = tiny_config();
        cfg.algorithms = vec!["DAWA".into()];
        let mut runner = Runner::new(cfg);
        runner.threads = 1;
        let manifest = runner.manifest();
        let mut sink = AggregatingSink::new();
        let stats = runner.run_with_sink(&manifest, &mut sink).unwrap();
        let hier = stats.hier_cache;
        assert!(hier.misses > 0, "{hier:?}");
        // 6 DAWA executions on one worker; identical reduced-domain sizes
        // recur, so the pool must serve some repeats.
        assert!(hier.hits + hier.misses >= 6, "{hier:?}");
        assert_eq!(sink.samples_seen(), 6);
    }

    #[test]
    fn skips_unsupported_algorithms() {
        let mut cfg = tiny_config();
        cfg.algorithms = vec!["UGRID".into()]; // 2-D only
        let store = Runner::new(cfg).run();
        assert!(store.samples().is_empty());
    }

    #[test]
    fn builds_each_strategy_exactly_once() {
        // 1 setting × 2 samples × 3 trials = 6 executions per algorithm,
        // but only one plan per (mechanism, domain, workload) key.
        let runner = Runner::new(tiny_config());
        let store = runner.run();
        assert_eq!(store.samples().len(), 18);
        let stats = runner.plan_cache.stats();
        assert_eq!(stats.misses, 3, "one plan per algorithm, got {stats:?}");
        // 2 units × 3 algorithms = 6 lookups; 3 built, 3 served from cache.
        assert_eq!(stats.hits, 3, "remaining lookups must hit, got {stats:?}");
        assert_eq!(runner.plan_cache.len(), 3);
    }

    #[test]
    fn cache_distinguishes_configurations_sharing_a_name() {
        // Two DAWA instances with different ρ share the display name but
        // must not share cached plans.
        use dpbench_algorithms::dawa::Dawa;
        let cache = PlanCache::new();
        let domain = Domain::D1(64);
        let w = Workload::prefix_1d(64);
        let a = Dawa::with_rho(0.10);
        let b = Dawa::with_rho(0.50);
        cache.plan_for(&a, &domain, &w).unwrap();
        cache.plan_for(&b, &domain, &w).unwrap();
        cache.plan_for(&a, &domain, &w).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.misses, 2, "distinct configs must get distinct plans");
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn cache_distinguishes_workloads_over_same_domain() {
        let cache = PlanCache::new();
        let mech = mechanism_by_name("H").unwrap();
        let domain = Domain::D1(128);
        let prefix = Workload::prefix_1d(128);
        let identity = Workload::identity(domain);
        cache.plan_for(mech.as_ref(), &domain, &prefix).unwrap();
        cache.plan_for(mech.as_ref(), &domain, &identity).unwrap();
        cache.plan_for(mech.as_ref(), &domain, &prefix).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.misses, 2, "distinct workloads must not share plans");
        assert_eq!(stats.hits, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cached_plan_execution_is_bit_identical_to_fresh_plan() {
        // A cache hit must not change results: same RNG stream → identical
        // estimates from a cached plan and a freshly built one.
        let cache = PlanCache::new();
        let domain = Domain::D1(256);
        let workload = Workload::prefix_1d(256);
        let x = DataVector::new(vec![7.0; 256], domain);
        for name in ["IDENTITY", "H", "HB", "GREEDY_H", "PRIVELET"] {
            let mech = mechanism_by_name(name).unwrap();
            let cached = cache.plan_for(mech.as_ref(), &domain, &workload).unwrap();
            let fresh = mech.plan(&domain, &workload).unwrap();
            let mut rng_a = rng_for(name, &[1, 2, 3]);
            let mut rng_b = rng_for(name, &[1, 2, 3]);
            let a = execute_eps(cached.as_ref(), &x, 0.1, &mut rng_a).unwrap();
            let b = execute_eps(fresh.as_ref(), &x, 0.1, &mut rng_b).unwrap();
            assert_eq!(a.estimate, b.estimate, "{name} diverges under caching");
        }
        // Second round through the cache reuses every plan.
        assert_eq!(cache.stats().misses, 5);
        for name in ["IDENTITY", "H", "HB", "GREEDY_H", "PRIVELET"] {
            let mech = mechanism_by_name(name).unwrap();
            cache.plan_for(mech.as_ref(), &domain, &workload).unwrap();
        }
        assert_eq!(cache.stats().misses, 5);
        assert_eq!(cache.stats().hits, 5);
    }
}
