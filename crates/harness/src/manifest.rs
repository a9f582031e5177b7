//! Deterministic expansion of an [`ExperimentConfig`] into an addressable
//! run manifest.
//!
//! The grid runner works through **units** — one `(setting, sample,
//! mechanism)` triple, i.e. all trials of one mechanism on one generated
//! data vector. A [`RunManifest`] enumerates every unit of a run in a
//! fixed, reproducible order and gives each a stable content-hashed
//! [`UnitId`], plus a run-level fingerprint over the whole grid
//! definition. That identity layer is what makes runs *addressable*:
//!
//! * **Sharding** — [`RunManifest::shard`] cuts the unit list into `k`
//!   contiguous blocks for independent processes; because per-trial RNG
//!   streams derive from unit coordinates (not from execution order), the
//!   union of the shards' results is bit-identical to a single-process
//!   run.
//! * **Checkpoint/resume** — a sink records each completed [`UnitId`] in a
//!   ledger; [`RunManifest::without`] drops finished units so a crashed or
//!   interrupted run restarts exactly where it stopped.
//!
//! Unit ids mix the run fingerprint into the hash, so ledger entries and
//! shard outputs can never be merged across grids that differ in any
//! input (workload, loss, trial counts, …).

use crate::config::{ExperimentConfig, Setting};
use dpbench_algorithms::registry::mechanism_by_name;
use dpbench_core::Fingerprint;
use std::collections::HashSet;
use std::fmt;

/// Stable content-hashed identity of one (setting, sample, mechanism)
/// unit within a specific run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UnitId(pub u64);

impl fmt::Display for UnitId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl UnitId {
    /// Parse the 16-hex-digit form produced by `Display`.
    pub fn parse(s: &str) -> Option<Self> {
        (s.len() == 16)
            .then(|| u64::from_str_radix(s, 16).ok())
            .flatten()
            .map(UnitId)
    }
}

/// One schedulable unit of a run: all `n_trials` executions of one
/// mechanism on one generated data vector.
#[derive(Debug, Clone)]
pub struct ManifestUnit {
    /// Content-hashed identity (includes the run fingerprint).
    pub id: UnitId,
    /// Position in the **full** (unsharded, unfiltered) manifest; stable
    /// under [`RunManifest::shard`]/[`RunManifest::without`], which is
    /// what lets shard outputs interleave back into canonical order.
    pub pos: usize,
    /// The experimental setting.
    pub setting: Setting,
    /// Which sampled data vector (0-based).
    pub sample: usize,
    /// Mechanism name (resolved via the algorithm registry).
    pub algorithm: String,
}

/// The expanded, addressable form of one experiment grid.
#[derive(Debug, Clone)]
pub struct RunManifest {
    /// [`ExperimentConfig::fingerprint`] of the generating config.
    pub fingerprint: u64,
    /// [`ExperimentConfig::summary`] of the generating config — recorded
    /// in ledger headers so a fingerprint mismatch can name the exact
    /// field that diverged.
    pub config_summary: String,
    /// Trials per unit (recorded in ledgers for sanity checks).
    pub n_trials: usize,
    /// Total units in the full manifest (before shard/resume filtering).
    pub total_units: usize,
    /// The units this manifest schedules, ascending by `pos`.
    pub units: Vec<ManifestUnit>,
}

impl RunManifest {
    /// Expand a config into its full manifest. Mirrors the runner's grid
    /// order — settings × samples × algorithms — and drops unsupported
    /// (mechanism, domain) pairs, exactly like the execution loop does.
    ///
    /// Panics on algorithm names the registry does not know (the same
    /// contract as the runner).
    pub fn from_config(cfg: &ExperimentConfig) -> Self {
        let fingerprint = cfg.fingerprint();
        let supported: Vec<(String, Box<dyn dpbench_core::Mechanism>)> = cfg
            .algorithms
            .iter()
            .map(|name| {
                let mech =
                    mechanism_by_name(name).unwrap_or_else(|| panic!("unknown mechanism {name}"));
                (name.clone(), mech)
            })
            .collect();
        let mut units = Vec::new();
        for setting in cfg.settings() {
            for sample in 0..cfg.n_samples {
                for (name, mech) in &supported {
                    if !mech.supports(&setting.domain) {
                        continue;
                    }
                    let id = UnitId(
                        setting
                            .mix_fingerprint(Fingerprint::new().word(fingerprint).str("unit"))
                            .word(sample as u64)
                            .str(name)
                            .finish(),
                    );
                    units.push(ManifestUnit {
                        id,
                        pos: units.len(),
                        setting: setting.clone(),
                        sample,
                        algorithm: name.clone(),
                    });
                }
            }
        }
        let total_units = units.len();
        Self {
            fingerprint,
            config_summary: cfg.summary(),
            n_trials: cfg.n_trials,
            total_units,
            units,
        }
    }

    /// Number of units this manifest schedules.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// Shard `index` of `count`: the `index`-th of `count` contiguous
    /// blocks of the **full** manifest (the units with
    /// `pos * count / total_units == index`), with `pos` (and ids)
    /// unchanged. Block sizes differ by at most one, and so does each
    /// mechanism's unit count across shards: `B` consecutive units of
    /// the settings × samples × mechanisms order hold every mechanism
    /// ⌊B/M⌋ or ⌈B/M⌉ times. A block also touches only about
    /// `1/count` of the (setting, sample) cells, so a shard generates
    /// only its own share of the data, and its unfinished work is one
    /// contiguous tail — the range a steal re-deals.
    pub fn shard(&self, index: usize, count: usize) -> Self {
        assert!(count > 0, "shard count must be positive");
        assert!(index < count, "shard index {index} out of range 0..{count}");
        Self {
            fingerprint: self.fingerprint,
            config_summary: self.config_summary.clone(),
            n_trials: self.n_trials,
            total_units: self.total_units,
            units: self
                .units
                .iter()
                .filter(|u| u.pos * count / self.total_units == index)
                .cloned()
                .collect(),
        }
    }

    /// Restrict to the units whose full-run `pos` lies in
    /// `from..until` — the sub-shard filter behind work stealing: a
    /// stolen tail is expressed as `shard(victim, k).span(from, until)`,
    /// so the re-dealt units keep their original ids and positions and
    /// the steal ledger merges back exactly like any other shard ledger.
    pub fn span(&self, from: usize, until: usize) -> Self {
        Self {
            fingerprint: self.fingerprint,
            config_summary: self.config_summary.clone(),
            n_trials: self.n_trials,
            total_units: self.total_units,
            units: self
                .units
                .iter()
                .filter(|u| u.pos >= from && u.pos < until)
                .cloned()
                .collect(),
        }
    }

    /// Drop every unit whose id appears in `done` (the resume filter).
    pub fn without(&self, done: &HashSet<UnitId>) -> Self {
        Self {
            fingerprint: self.fingerprint,
            config_summary: self.config_summary.clone(),
            n_trials: self.n_trials,
            total_units: self.total_units,
            units: self
                .units
                .iter()
                .filter(|u| !done.contains(&u.id))
                .cloned()
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkloadSpec;
    use dpbench_core::{Domain, Loss};
    use dpbench_datasets::catalog;

    fn cfg() -> ExperimentConfig {
        ExperimentConfig {
            datasets: vec![catalog::by_name("MEDCOST").unwrap()],
            scales: vec![10_000, 20_000],
            domains: vec![Domain::D1(128)],
            epsilons: vec![0.1],
            algorithms: vec!["IDENTITY".into(), "UNIFORM".into(), "DAWA".into()],
            n_samples: 2,
            n_trials: 3,
            workload: WorkloadSpec::Prefix,
            loss: Loss::L2,
        }
    }

    #[test]
    fn expansion_is_deterministic_and_complete() {
        let a = RunManifest::from_config(&cfg());
        let b = RunManifest::from_config(&cfg());
        // 2 settings × 2 samples × 3 algorithms.
        assert_eq!(a.len(), 12);
        assert_eq!(a.total_units, 12);
        assert_eq!(a.fingerprint, b.fingerprint);
        for (x, y) in a.units.iter().zip(&b.units) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.pos, y.pos);
        }
        // Ids are unique and positions sequential.
        let ids: HashSet<UnitId> = a.units.iter().map(|u| u.id).collect();
        assert_eq!(ids.len(), 12);
        assert!(a.units.iter().enumerate().all(|(i, u)| u.pos == i));
    }

    #[test]
    fn unsupported_pairs_are_dropped() {
        let mut c = cfg();
        c.algorithms = vec!["UGRID".into()]; // 2-D only
        assert!(RunManifest::from_config(&c).is_empty());
    }

    #[test]
    fn shards_partition_the_manifest() {
        let m = RunManifest::from_config(&cfg());
        for k in 1..=m.len() + 1 {
            let shards: Vec<RunManifest> = (0..k).map(|i| m.shard(i, k)).collect();
            // Shard i is the i-th contiguous block: concatenated in index
            // order, the shards are the manifest itself.
            let dealt: Vec<usize> = shards
                .iter()
                .flat_map(|s| s.units.iter().map(|u| u.pos))
                .collect();
            assert_eq!(dealt, (0..m.len()).collect::<Vec<_>>(), "k = {k}");
            let sizes: Vec<usize> = shards.iter().map(RunManifest::len).collect();
            let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(hi - lo <= 1, "k = {k}: uneven blocks {sizes:?}");
            // Shards retain the full-run ids, positions and fingerprint.
            for s in &shards {
                assert!(s.units.iter().all(|u| u.id == m.units[u.pos].id));
                assert_eq!(s.fingerprint, m.fingerprint);
                assert_eq!(s.total_units, m.total_units);
            }
        }
        // 12 units in 3 shards: positions 0..4, 4..8, 8..12.
        let s1 = m.shard(1, 3);
        assert!(s1.units.iter().map(|u| u.pos).eq(4..8));
    }

    #[test]
    fn shards_balance_every_mechanism() {
        let mut c = cfg();
        c.scales = vec![10_000];
        c.n_samples = 10;
        c.algorithms = ["IDENTITY", "H", "HB", "GREEDY_H", "PRIVELET", "UNIFORM"]
            .map(String::from)
            .to_vec();
        let m = RunManifest::from_config(&c);
        assert_eq!(m.len(), 60);
        for k in 2..=5 {
            for name in &c.algorithms {
                let counts: Vec<usize> = (0..k)
                    .map(|i| {
                        m.shard(i, k)
                            .units
                            .iter()
                            .filter(|u| &u.algorithm == name)
                            .count()
                    })
                    .collect();
                let (lo, hi) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
                assert!(hi - lo <= 1, "k = {k}: {name} dealt {counts:?}");
            }
        }
    }

    #[test]
    fn span_restricts_by_position_and_composes_with_shard() {
        let m = RunManifest::from_config(&cfg());
        let s = m.span(3, 9);
        assert!(s.units.iter().all(|u| u.pos >= 3 && u.pos < 9));
        assert_eq!(s.len(), 6);
        assert_eq!(s.fingerprint, m.fingerprint);
        assert_eq!(s.total_units, m.total_units);
        // A stolen tail: shard-then-span keeps only the victim's units
        // inside the range, and splitting a shard into spans partitions
        // it exactly.
        let victim = m.shard(1, 3);
        let own: HashSet<UnitId> = victim.units.iter().map(|u| u.id).collect();
        let mid = victim.units[victim.len() / 2].pos;
        let head = victim.span(0, mid);
        let tail = victim.span(mid, usize::MAX);
        assert_eq!(head.len() + tail.len(), victim.len());
        let mut seen = HashSet::new();
        for u in head.units.iter().chain(&tail.units) {
            assert!(seen.insert(u.id), "unit appears in two spans");
        }
        // A range wider than the shard never leaves it.
        for (from, until) in [(0, usize::MAX), (2, 10), (0, mid), (mid, 12)] {
            let span = victim.span(from, until);
            assert!(span.units.iter().all(|u| own.contains(&u.id)));
        }
        assert_eq!(victim.span(0, usize::MAX).len(), victim.len());
    }

    #[test]
    fn without_filters_completed_units() {
        let m = RunManifest::from_config(&cfg());
        let done: HashSet<UnitId> = m.units.iter().take(5).map(|u| u.id).collect();
        let rest = m.without(&done);
        assert_eq!(rest.len(), 7);
        assert!(rest.units.iter().all(|u| !done.contains(&u.id)));
        assert!(rest.units.iter().all(|u| u.pos >= 5));
    }

    #[test]
    fn unit_ids_depend_on_run_inputs() {
        let a = RunManifest::from_config(&cfg());
        let mut c = cfg();
        c.n_trials = 4; // same units, different run definition
        let b = RunManifest::from_config(&c);
        assert_ne!(a.fingerprint, b.fingerprint);
        assert_ne!(a.units[0].id, b.units[0].id);
    }

    #[test]
    fn unit_id_roundtrips_through_hex() {
        let id = UnitId(0x0123_4567_89ab_cdef);
        assert_eq!(UnitId::parse(&id.to_string()), Some(id));
        assert_eq!(UnitId::parse("xyz"), None);
        assert_eq!(UnitId::parse(""), None);
    }
}
