//! The release server's one cross-request cache: at most
//! [`WORKLOAD_CAPACITY`] workloads, the least recently used evicted
//! first. Each resident workload owns its queries, its true answers per
//! dataset (the `--slo` block's `W x`) and every plan built for it, so an
//! eviction frees all three in one step. A release holds its entry's
//! `Arc` from lookup to response, so an eviction never pulls a workload
//! or a plan from under a request in flight; the memory goes when the
//! last holder lets go. An evicted workload that comes back is built
//! again, and its first release reports `plan_cache_hit:false`.

use crate::config::WorkloadSpec;
use crate::runner::{PlanCache, PlanCacheStats};
use dpbench_core::{DataVector, Domain, MechError, Mechanism, Plan, Workload};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Most workloads resident at once. A `random:N` with N near 100 at
/// 1,024 cells holds 6–110 KB of queries, true answers and plan per
/// mechanism that releases it; the bound keeps a server's memory flat
/// however many distinct workloads its tenants name.
pub const WORKLOAD_CAPACITY: usize = 64;

/// One resident workload and everything built from it.
pub(crate) struct WorkloadEntry {
    spec: WorkloadSpec,
    domain: Domain,
    /// Built on first use, outside the cache's lock: a large workload
    /// never stalls lookups of the resident ones, and racing first
    /// requests wait for one build.
    workload: OnceLock<Workload>,
    plans: PlanCache,
    /// True answers, by dataset name.
    y_true: Mutex<HashMap<String, Arc<Vec<f64>>>>,
}

impl WorkloadEntry {
    fn new(spec: WorkloadSpec, domain: Domain) -> Self {
        Self {
            spec,
            domain,
            workload: OnceLock::new(),
            plans: PlanCache::new(),
            y_true: Mutex::new(HashMap::new()),
        }
    }

    /// The workload's queries, built on the first call.
    pub(crate) fn workload(&self) -> &Workload {
        self.workload.get_or_init(|| self.spec.build(self.domain))
    }

    /// The workload's true answers on `x`, evaluated once per dataset.
    pub(crate) fn y_true(&self, dataset: &str, x: &DataVector) -> Arc<Vec<f64>> {
        let mut memo = self.y_true.lock().expect("y_true memo poisoned");
        if let Some(y) = memo.get(dataset) {
            return Arc::clone(y);
        }
        let y = Arc::new(self.workload().evaluate(x));
        memo.insert(dataset.to_string(), Arc::clone(&y));
        y
    }
}

/// What `/v1/status` reports of the cache, read under one lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheCounts {
    /// Workloads resident now (at most [`WORKLOAD_CAPACITY`]).
    pub resident: usize,
    /// Workloads evicted since start.
    pub evicted: u64,
    /// Plans the resident workloads hold.
    pub plans: usize,
}

/// The bounded cache of workloads, their true answers and their plans,
/// for one served domain.
pub struct WorkloadCache {
    domain: Domain,
    lru: Mutex<Lru>,
    /// Plan lookups over the server's life, evicted workloads included,
    /// so both counters only grow.
    hits: AtomicU64,
    misses: AtomicU64,
}

/// The resident entries with the tick of each one's last use.
#[derive(Default)]
struct Lru {
    entries: HashMap<WorkloadSpec, (Arc<WorkloadEntry>, u64)>,
    tick: u64,
    evicted: u64,
}

impl WorkloadCache {
    /// An empty cache for workloads over `domain`.
    pub(crate) fn new(domain: Domain) -> Self {
        Self {
            domain,
            lru: Mutex::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The entry for `spec`, marked most recently used. A workload not
    /// resident gets a new entry, evicting the least recently used one
    /// when the cache is full.
    pub(crate) fn entry(&self, spec: WorkloadSpec) -> Arc<WorkloadEntry> {
        let evicted;
        let entry = {
            let mut lru = self.lru.lock().expect("workload cache poisoned");
            lru.tick += 1;
            let tick = lru.tick;
            if let Some((entry, used)) = lru.entries.get_mut(&spec) {
                *used = tick;
                return Arc::clone(entry);
            }
            evicted = if lru.entries.len() < WORKLOAD_CAPACITY {
                None
            } else {
                let oldest = lru
                    .entries
                    .iter()
                    .min_by_key(|(_, (_, used))| *used)
                    .map(|(spec, _)| *spec)
                    .expect("a full cache has entries");
                lru.evicted += 1;
                lru.entries.remove(&oldest)
            };
            let entry = Arc::new(WorkloadEntry::new(spec, self.domain));
            lru.entries.insert(spec, (Arc::clone(&entry), tick));
            entry
        };
        // An evicted entry nobody else holds is freed here, after the
        // lock is released.
        drop(evicted);
        entry
    }

    /// The plan for `mech` over `entry`'s workload, built on first use
    /// under the plan's own lock, and whether this lookup found it built.
    pub(crate) fn plan_for(
        &self,
        entry: &WorkloadEntry,
        mech: &dyn Mechanism,
    ) -> Result<(Arc<dyn Plan>, bool), MechError> {
        let looked_up = entry
            .plans
            .plan_for_traced(mech, &self.domain, entry.workload());
        // A failed build counts as a miss, as in `PlanCache`.
        let counter = match &looked_up {
            Ok((_, true)) => &self.hits,
            _ => &self.misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        looked_up
    }

    /// Plan-lookup hits and misses since start.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Resident workloads, evictions and resident plans.
    pub fn counts(&self) -> CacheCounts {
        let lru = self.lru.lock().expect("workload cache poisoned");
        CacheCounts {
            resident: lru.entries.len(),
            evicted: lru.evicted,
            plans: lru.entries.values().map(|(e, _)| e.plans.len()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbench_algorithms::registry::mechanism_by_name;

    fn random(n: usize) -> WorkloadSpec {
        WorkloadSpec::RandomRanges(n)
    }

    #[test]
    fn the_least_recently_used_workload_goes_first() {
        let cache = WorkloadCache::new(Domain::D1(64));
        let hot = cache.entry(WorkloadSpec::Prefix);
        for n in 1..WORKLOAD_CAPACITY {
            cache.entry(random(n));
        }
        let full = cache.counts();
        assert_eq!((full.resident, full.evicted), (WORKLOAD_CAPACITY, 0));
        // Touching the oldest entry makes `random:1` the next to go.
        assert!(Arc::ptr_eq(&hot, &cache.entry(WorkloadSpec::Prefix)));
        cache.entry(random(1000));
        let counts = cache.counts();
        assert_eq!((counts.resident, counts.evicted), (WORKLOAD_CAPACITY, 1));
        assert!(Arc::ptr_eq(&hot, &cache.entry(WorkloadSpec::Prefix)));
        let rebuilt = cache.entry(random(1));
        assert_eq!(cache.counts().evicted, 2, "random:1 came back as new");
        assert_eq!(rebuilt.workload().len(), 1);
    }

    #[test]
    fn eviction_drops_the_plans_and_keeps_the_counters() {
        let cache = WorkloadCache::new(Domain::D1(64));
        let mech = mechanism_by_name("HB").unwrap();
        let first = cache.entry(random(1));
        let (plan, hit) = cache.plan_for(&first, mech.as_ref()).unwrap();
        assert!(!hit);
        assert!(cache.plan_for(&first, mech.as_ref()).unwrap().1);
        assert_eq!(cache.counts().plans, 1);
        for n in 2..=WORKLOAD_CAPACITY + 1 {
            let entry = cache.entry(random(n));
            cache.plan_for(&entry, mech.as_ref()).unwrap();
        }
        let counts = cache.counts();
        assert_eq!(
            (counts.resident, counts.evicted, counts.plans),
            (WORKLOAD_CAPACITY, 1, WORKLOAD_CAPACITY)
        );
        // The holder of the evicted entry still has its workload and plan.
        assert_eq!(first.workload().len(), 1);
        assert_eq!(Arc::strong_count(&plan), 2);
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (1, WORKLOAD_CAPACITY as u64 + 1)
        );
        let (_, hit) = cache
            .plan_for(&cache.entry(random(1)), mech.as_ref())
            .unwrap();
        assert!(!hit, "an evicted workload plans again");
    }
}
