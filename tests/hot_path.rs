//! Hot-path integration tests: the O(n log² n) DAWA partition must return
//! exactly the partition of the retained O(n²) DP, SF's cost-table DP and
//! PHP's cached, eight-lane bisection must match their retained
//! full-rescan oracles bit for bit, the flat hierarchy kernel must match the retained
//! `MeasuredTree` pipeline bit for bit, the Hilbert quadrant descent and
//! curve gather/scatter must match the retained perimeter scan and `d2xy`
//! loops, MWEM's lazy-scale kernel must pass
//! the kernel gate against its retained full-rescale kernel, the bounded
//! exponential mechanism and AHP's one-pass clustering must match their
//! retained full loops, the one-pass scorer must match evaluating then
//! scoring, and
//! executions drawing scratch from a reused [`Workspace`] (including the
//! hierarchies' stored node counts) must be bit-identical to executions
//! with fresh scratch.

use dpbench_algorithms::ahp::{greedy_clusters, greedy_clusters_naive};
use dpbench_algorithms::dawa::{l1_partition, l1_partition_naive};
use dpbench_algorithms::hierarchy::Hierarchy;
use dpbench_algorithms::mwem::Mwem;
use dpbench_algorithms::php::Php;
use dpbench_algorithms::registry::{mechanism_by_name, NAMES_1D};
use dpbench_algorithms::sf::{StructureFirst, VOptDp};
use dpbench_core::mechanism::{execute_eps_with, Mechanism};
use dpbench_core::primitives::{exponential_mechanism, exponential_mechanism_naive};
use dpbench_core::rng::rng_for;
use dpbench_core::{
    scaled_per_query_error, DataVector, Domain, Loss, Plan, RangeQuery, Release, Workload,
    Workspace,
};
use dpbench_harness::competitive::kernel_gate;
use dpbench_harness::config::WorkloadSpec;
use dpbench_harness::repair::SideInfoRepair;
use dpbench_harness::{ErrorSample, ResultStore, Setting};
use dpbench_transforms::hilbert::{box_cover, box_cover_naive, d2xy, Curve};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Property-style equivalence suite: ≥ 200 random vectors across varied
/// domain sizes and (ε₁, ε₂) pairs. The fast partition must return
/// *identical buckets* — same count, same boundaries — as the naive DP,
/// because both visit candidate lengths in the same order with the same
/// strict-improvement rule and the clamped-to-zero cost ties are exact in
/// both.
#[test]
fn fast_partition_equals_naive_on_random_vectors() {
    let mut rng = StdRng::seed_from_u64(0xDA3A);
    let eps_pairs = [(0.05, 0.5), (0.5, 0.05), (1.0, 1.0), (10.0, 0.1)];
    let mut cases = 0;
    for round in 0..60 {
        // Mix of sizes: mostly small/medium, a few larger; both
        // powers of two and awkward odd lengths.
        let n = match round % 6 {
            0 => rng.gen_range(2..=16),
            1 => rng.gen_range(17..=64),
            2 => 1 << rng.gen_range(5_usize..=8), // 32..256
            3 => rng.gen_range(65_usize..=200) | 1,
            4 => rng.gen_range(200..=384),
            _ => rng.gen_range(16..=128),
        };
        // Piecewise-constant signal + heavy noise: the regime DAWA's
        // partition actually faces (noisy counts), plus occasional
        // all-zero and constant vectors for the exact-tie paths.
        let noisy: Vec<f64> = match round % 5 {
            0 => vec![0.0; n],
            1 => vec![rng.gen_range(0.0..50.0); n],
            _ => {
                let level = rng.gen_range(0.0..200.0);
                (0..n)
                    .map(|i| {
                        let step = if (i / 16) % 2 == 0 { level } else { 0.0 };
                        step + rng.gen_range(-30.0..30.0)
                    })
                    .collect()
            }
        };
        for &(e1, e2) in &eps_pairs {
            let fast = l1_partition(&noisy, e1, e2);
            let naive = l1_partition_naive(&noisy, e1, e2);
            assert_eq!(fast, naive, "n={n} ε₁={e1} ε₂={e2} round={round}");
            cases += 1;
        }
    }
    assert!(cases >= 200, "suite must cover ≥ 200 cases, ran {cases}");
}

/// A seeded test vector of `n` cells; `kind` picks all-zero, constant,
/// spiky, integer counts up to 10⁷, or noisy piecewise-constant levels.
fn test_counts(rng: &mut StdRng, n: usize, kind: usize) -> Vec<f64> {
    match kind % 5 {
        0 => vec![0.0; n],
        1 => vec![rng.gen_range(0_u64..=10_000_000) as f64; n],
        2 => {
            let mut counts = vec![0.0; n];
            for _ in 0..n / 50 + 1 {
                counts[rng.gen_range(0..n)] = rng.gen_range(1_u64..=10_000_000) as f64;
            }
            counts
        }
        3 => (0..n)
            .map(|_| rng.gen_range(0_u64..=10_000_000) as f64)
            .collect(),
        _ => {
            let level = rng.gen_range(0.0..500.0);
            (0..n)
                .map(|i| {
                    let step = if (i / 16) % 2 == 0 { level } else { 0.0 };
                    step + rng.gen_range(0.0..20.0)
                })
                .collect()
        }
    }
}

/// The flat two-pass kernel behind every hierarchical mechanism (H, HB,
/// GREEDY_H, QUADTREE, DAWA's stage 2, SF's buckets) must reproduce the
/// `MeasuredTree` pipeline it replaced, cell by cell and bit for bit:
/// 1-D and 2-D domains of awkward sizes, branching factors 2–16, height
/// caps that leave unresolved leaves, and level budgets with unmeasured
/// (ε = 0) levels — an unmeasured root, and every level but one at zero.
#[test]
fn flat_hierarchy_equals_tree_reference() {
    let mut rng = StdRng::seed_from_u64(0x41E2);
    let domains = [1, 2, 3, 5, 17, 100, 1000, 4096]
        .map(Domain::D1)
        .into_iter()
        .chain(
            [
                (1, 7),
                (3, 5),
                (6, 10),
                (9, 9),
                (16, 16),
                (24, 40),
                (33, 17),
            ]
            .map(|(r, c)| Domain::D2(r, c)),
        );
    let mut ws = Workspace::new();
    let mut cases = 0;
    for (kind, domain) in domains.enumerate() {
        let x = DataVector::new(test_counts(&mut rng, domain.n_cells(), kind), domain);
        for branching in [2, 3, 4, 7, 16] {
            for max_levels in [usize::MAX, 1, 2, 3] {
                let hier = Hierarchy::build(domain, branching, max_levels);
                let h = hier.height();
                let only = rng.gen_range(0..h);
                let budgets = [
                    vec![0.1 / h as f64; h],
                    (0..h).map(|l| if l == 0 { 0.0 } else { 0.1 }).collect(),
                    (0..h).map(|l| if l == only { 0.5 } else { 0.0 }).collect(),
                    (0..h)
                        .map(|l| {
                            if l % 2 == 1 {
                                0.0
                            } else {
                                rng.gen_range(0.001..2.0)
                            }
                        })
                        .collect::<Vec<f64>>(),
                ];
                for level_eps in &budgets {
                    let seed = rng.gen();
                    let flat = hier.measure_and_infer_with(
                        &x,
                        level_eps,
                        &mut ws,
                        &mut StdRng::seed_from_u64(seed),
                    );
                    let naive = hier.measure_and_infer_naive(
                        &x,
                        level_eps,
                        &mut StdRng::seed_from_u64(seed),
                    );
                    assert_eq!(flat.len(), naive.len());
                    if let Some(c) =
                        (0..flat.len()).find(|&c| flat[c].to_bits() != naive[c].to_bits())
                    {
                        panic!(
                            "{domain} b={branching} max_levels={max_levels} ε={level_eps:?}: \
                             cell {c} is {} (flat) vs {} (tree)",
                            flat[c], naive[c]
                        );
                    }
                    ws.give_f64(flat);
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, 15 * 5 * 4 * 4);
}

/// SF's V-optimal DP fills its table from a precomputed bucket-cost table
/// with a forward min loop; every entry must equal the retained triple
/// loop's bit for bit. ≥ 200 seeded vectors, n from 1 to about 1,100 with
/// odd lengths, k = SF's bucket count, widths {SF's default, 1, n, 2n}.
#[test]
fn fast_vopt_dp_equals_naive_on_random_vectors() {
    let mut rng = StdRng::seed_from_u64(0x5F0D);
    let mut vectors = 0;
    for round in 0..200 {
        // One vector near n = 1,100 (the O(k·n²) naive build at width n
        // takes seconds unoptimized), a few hundred cells on a tenth of
        // the rounds, and small or odd lengths otherwise.
        let n: usize = match round % 20 {
            _ if round == 0 => rng.gen_range(1000_usize..=1100) | 1,
            1..=2 => rng.gen_range(160..=400),
            3..=8 => rng.gen_range(33_usize..=160) | 1,
            _ => rng.gen_range(1..=32),
        };
        let counts = test_counts(&mut rng, n, round / 2);
        let k = StructureFirst::bucket_count(n).min(n);
        let default_width = (n.div_ceil(k) * StructureFirst::new().width_factor).clamp(1, n);
        for width in [default_width, 1, n, 2 * n] {
            let fast = VOptDp::build(&counts, k, width);
            let naive = VOptDp::build_naive(&counts, k, width);
            assert_eq!(fast.table.len(), naive.table.len());
            for (j, (a, b)) in fast.table.iter().zip(&naive.table).enumerate() {
                let a: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
                let b: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
                assert_eq!(a, b, "row {j}, n={n} k={k} width={width} round={round}");
            }
        }
        vectors += 1;
    }
    assert!(
        vectors >= 200,
        "suite must cover ≥ 200 vectors, ran {vectors}"
    );
}

/// PHP's cached, eight-lane bisection must release exactly what the full
/// per-iteration rescan releases: bit-identical estimates and budget
/// traces over seeds and vector shapes; at tiny n — n = 1 (no split
/// exists), n = 2 and 3 (every bucket is a single cell when the
/// iterations end) and n = 5; around the lane width (n = 7–9, 15–17); and
/// on vectors with negative cells and −0.0.
#[test]
fn cached_php_equals_full_rescan() {
    let mut rng = StdRng::seed_from_u64(0x9A9);
    let mut sizes: Vec<usize> = vec![1, 2, 3, 5, 7, 8, 9, 15, 16, 17];
    for round in 0..16 {
        sizes.push(match round % 4 {
            0 => rng.gen_range(6_usize..=64),
            1 => rng.gen_range(65_usize..=300) | 1,
            2 => 1 << rng.gen_range(6_usize..=10),
            _ => rng.gen_range(300_usize..=1100),
        });
    }
    let mut vectors: Vec<Vec<f64>> = sizes
        .iter()
        .enumerate()
        .map(|(case, &n)| test_counts(&mut rng, n, case))
        .collect();
    for n in [7, 8, 9, 16, 17, 64, 301] {
        vectors.push(
            (0..n)
                .map(|i| match i % 4 {
                    0 => -0.0,
                    1 => -f64::from(rng.gen_range(0_u32..1000)),
                    2 => rng.gen_range(-5.0..5.0),
                    _ => 0.0,
                })
                .collect(),
        );
    }
    vectors.push(vec![-0.0; 9]);
    for counts in vectors {
        let n = counts.len();
        let domain = Domain::D1(n);
        let workload = Workload::prefix_1d(n);
        let x = DataVector::new(counts, domain);
        let php = Php::new();
        let fast = php.plan(&domain, &workload).unwrap();
        let naive = php.plan_naive(&domain).unwrap();
        for (seed, eps) in [(0_u64, 0.01), (1, 0.1), (2, 1.0), (3, 1e6)] {
            let mut ws = Workspace::new();
            let a = execute_eps_with(
                fast.as_ref(),
                &x,
                eps,
                &mut ws,
                &mut rng_for("PHP", &[seed]),
            )
            .unwrap();
            let b = execute_eps_with(
                naive.as_ref(),
                &x,
                eps,
                &mut ws,
                &mut rng_for("PHP", &[seed]),
            )
            .unwrap();
            let bits = |r: &Release| {
                let trace: Vec<_> = r
                    .budget_trace
                    .iter()
                    .map(|d| (d.label.clone(), d.epsilon.to_bits()))
                    .collect();
                let est: Vec<_> = r.estimate.iter().map(|e| e.to_bits()).collect();
                (est, trace)
            };
            assert_eq!(bits(&a), bits(&b), "n={n} seed={seed} ε={eps}");
        }
    }
}

/// The Hilbert quadrant descent must return the retained perimeter scan's
/// interval on every box of the grid at sides 1, 2, 4, 8 and 16, on 10,000
/// seeded random boxes at each of sides 128 and 256, and on the 2,000
/// ranges of the `random:2000` workload DAWA and GREEDY_H plan at
/// 128 × 128.
#[test]
fn hilbert_box_cover_equals_perimeter_scan() {
    let check = |side: usize, r1: usize, c1: usize, r2: usize, c2: usize| {
        assert_eq!(
            box_cover(side, r1, c1, r2, c2),
            box_cover_naive(side, r1, c1, r2, c2),
            "side {side} box [{r1},{r2}]x[{c1},{c2}]"
        );
    };
    for side in [1_usize, 2, 4, 8, 16] {
        for r1 in 0..side {
            for r2 in r1..side {
                for c1 in 0..side {
                    for c2 in c1..side {
                        check(side, r1, c1, r2, c2);
                    }
                }
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(0x4B11);
    for side in [128_usize, 256] {
        for _ in 0..10_000 {
            let (r1, c1) = (rng.gen_range(0..side), rng.gen_range(0..side));
            let (r2, c2) = (rng.gen_range(r1..side), rng.gen_range(c1..side));
            check(side, r1, c1, r2, c2);
        }
    }
    let workload = WorkloadSpec::RandomRanges(2000).build(Domain::D2(128, 128));
    for q in workload.queries() {
        check(128, q.lo.0, q.lo.1, q.hi.0, q.hi.1);
    }
}

/// A plan's curve must gather a grid into exactly the values, bit for
/// bit, that the per-cell `d2xy` loop it replaced reads, and scatter them
/// back exactly where that loop writes them.
#[test]
fn hilbert_curve_gather_scatter_equal_d2xy_loops() {
    let mut rng = StdRng::seed_from_u64(0xC0_5E);
    for side in [1_usize, 2, 4, 8, 16, 32, 64, 128] {
        let n = side * side;
        let curve = Curve::new(side);
        let mut grid: Vec<f64> = (0..n).map(|_| rng.gen_range(-1e6..1e6)).collect();
        grid[n / 2] = -0.0;
        let mut want = vec![0.0; n];
        for (d, slot) in want.iter_mut().enumerate() {
            let (x, y) = d2xy(side, d);
            *slot = grid[y * side + x];
        }
        let mut line = vec![0.0; n];
        curve.flatten_into(&grid, &mut line);
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&line), bits(&want), "gather at side {side}");

        let line: Vec<f64> = (0..n).map(|_| rng.gen_range(-1e6..1e6)).collect();
        let mut want = vec![0.0; n];
        for (d, &v) in line.iter().enumerate() {
            let (x, y) = d2xy(side, d);
            want[y * side + x] = v;
        }
        let mut back = vec![f64::NAN; n];
        curve.unflatten_into(&line, &mut back);
        assert_eq!(bits(&back), bits(&want), "scatter at side {side}");
    }
}

/// A data vector of `scale` records over `domain`, heavy-tailed: a few
/// cells hold most of the mass, as in the paper's spiky datasets.
fn shaped(rng: &mut StdRng, domain: Domain, scale: f64) -> DataVector {
    let weights: Vec<f64> = (0..domain.n_cells())
        .map(|_| rng.gen::<f64>().powi(6))
        .collect();
    let total: f64 = weights.iter().sum();
    let counts = weights
        .iter()
        .map(|w| (w / total * scale).round())
        .collect();
    DataVector::new(counts, domain)
}

/// MWEM and MWEM★ with the lazy-scale kernel against the retained
/// full-rescale kernel, on 1-D prefix and 2-D random-range settings
/// across scales: every trial pairs by its RNG coordinates, and the
/// paper's statistics must not tell the two kernels apart.
#[test]
fn lazy_mwem_passes_gate_against_naive() {
    const TRIALS: usize = 10;
    let mut rng = StdRng::seed_from_u64(0x3E3);
    let d1 = Domain::D1(256);
    let d2 = Domain::D2(32, 32);
    let w2 = Workload::random_ranges(d2, 200, &mut rng);
    let grid = [
        (d1, Workload::prefix_1d(256), [1e3, 1e5, 1e7].as_slice()),
        (d2, w2, [1e4, 1e6].as_slice()),
    ];
    let (mut naive, mut lazy) = (ResultStore::new(), ResultStore::new());
    for (domain, workload, scales) in &grid {
        for &scale in scales.iter() {
            let x = shaped(&mut rng, *domain, scale);
            let y = workload.evaluate(&x);
            let setting = Setting {
                dataset: "SHAPED".into(),
                scale: scale as u64,
                domain: *domain,
                epsilon: 0.1,
            };
            for (name, mech) in [("MWEM", Mwem::original()), ("MWEM*", Mwem::star())] {
                let plans: [(Box<dyn Plan>, &mut ResultStore); 2] = [
                    (mech.plan_naive(domain, workload).unwrap(), &mut naive),
                    (mech.plan(domain, workload).unwrap(), &mut lazy),
                ];
                for (plan, store) in plans {
                    let mut ws = Workspace::new();
                    for trial in 0..TRIALS {
                        let coords = [scale as u64, trial as u64];
                        let mut trial_rng = rng_for(name, &coords);
                        let r = execute_eps_with(plan.as_ref(), &x, 0.1, &mut ws, &mut trial_rng)
                            .unwrap();
                        let y_hat = workload.evaluate_cells(&r.estimate);
                        store.push(ErrorSample {
                            algorithm: name.into(),
                            setting: setting.clone(),
                            sample: 0,
                            trial,
                            error: scaled_per_query_error(&y, &y_hat, x.scale(), Loss::L2),
                        });
                    }
                }
            }
        }
    }
    let report = kernel_gate(&naive, &lazy).unwrap();
    assert_eq!(report.paired, 2 * 5 * TRIALS);
    assert!(report.passed(), "{report}");
    assert_eq!(report.diverged, 0, "{report}");
    assert!(report.max_rel_change < 1e-9, "{report}");
}

/// Under noise far larger than the data every update's exponent saturates
/// at ±20, so `Σw` swings by e^±20 per update and cancels when a query
/// holding nearly all the mass shrinks. The lazy kernel must still return
/// a finite, non-negative estimate of the right total, within rounding of
/// the full-rescale kernel's.
#[test]
fn lazy_mwem_survives_saturated_updates() {
    let mut rng = StdRng::seed_from_u64(0x5A7);
    let d2 = Domain::D2(16, 16);
    let cases = [
        (Domain::D1(256), Workload::prefix_1d(256)),
        (d2, Workload::random_ranges(d2, 100, &mut rng)),
    ];
    for (domain, workload) in &cases {
        for (scale, eps) in [(1.0, 1e-3), (10.0, 1e-3), (100.0, 1e-2), (1000.0, 1e-2)] {
            let x = shaped(&mut rng, *domain, scale);
            let mech = Mwem::with_rounds(100);
            let lazy = mech.plan(domain, workload).unwrap();
            let naive = mech.plan_naive(domain, workload).unwrap();
            for seed in 0..4_u64 {
                let run = |plan: &dyn Plan| {
                    let mut trial_rng = rng_for("MWEM-saturated", &[seed]);
                    execute_eps_with(plan, &x, eps, &mut Workspace::new(), &mut trial_rng)
                        .unwrap()
                        .estimate
                };
                let (est, reference) = (run(lazy.as_ref()), run(naive.as_ref()));
                let case = format!("{domain} scale {scale} ε {eps} seed {seed}");
                assert!(est.iter().all(|v| v.is_finite() && *v >= 0.0), "{case}");
                let total: f64 = est.iter().sum();
                assert!(
                    (total - x.scale()).abs() <= 1e-9 * x.scale(),
                    "{case}: total {total}"
                );
                for (a, b) in est.iter().zip(&reference) {
                    assert!((a - b).abs() <= 1e-9 * x.scale(), "{case}: {a} vs {b}");
                }
            }
        }
    }
}

/// Executing any mechanism with a freshly created workspace per trial and
/// with one workspace reused across trials (and across mechanisms) must
/// produce bit-identical releases: pooled buffers are zero-filled on take,
/// so recycled scratch can never leak state into results. Every 1-D
/// mechanism runs on two vectors of one length in the order x₁, x₂, x₁,
/// so a per-worker memo (SF's V-optimal table) that served a stale entry
/// would diverge.
#[test]
fn workspace_reuse_is_bit_identical_to_fresh_scratch() {
    let domain = Domain::D1(256);
    let workload = Workload::prefix_1d(256);
    let mut data_rng = StdRng::seed_from_u64(7);
    let mut vector = |(from, to): (usize, usize)| {
        let counts: Vec<f64> = (0..256)
            .map(|i| {
                let base = if i > from && i < to { 80.0 } else { 4.0 };
                base + data_rng.gen_range(0.0_f64..8.0).floor()
            })
            .collect();
        DataVector::new(counts, domain)
    };
    let (x1, x2) = (vector((100, 140)), vector((20, 90)));

    let mut reused = Workspace::new();
    for (name, mech) in with_rside(NAMES_1D, &["SF"]) {
        let name = name.as_str();
        let plan = mech.plan(&domain, &workload).unwrap();
        for (v, x) in [&x1, &x2, &x1].into_iter().enumerate() {
            for trial in 0..3_u64 {
                let coords = [v as u64, trial];
                let mut fresh = Workspace::new();
                let a = execute_eps_with(
                    plan.as_ref(),
                    x,
                    0.1,
                    &mut fresh,
                    &mut rng_for(name, &coords),
                )
                .unwrap();
                let b = execute_eps_with(
                    plan.as_ref(),
                    x,
                    0.1,
                    &mut reused,
                    &mut rng_for(name, &coords),
                )
                .unwrap();
                assert_eq!(
                    a.estimate, b.estimate,
                    "{name} vector {v} trial {trial} diverges under workspace reuse"
                );
                assert_eq!(a.budget_trace, b.budget_trace);
            }
        }
    }
}

/// The registry mechanisms `names`, then the `Rside` repairs of
/// `repaired` (which run their inner mechanism in the caller's
/// workspace), each with its display name.
fn with_rside(names: &[&str], repaired: &[&str]) -> Vec<(String, Box<dyn Mechanism>)> {
    let mut mechs: Vec<(String, Box<dyn Mechanism>)> = names
        .iter()
        .map(|&n| (n.to_string(), mechanism_by_name(n).unwrap()))
        .collect();
    for &inner in repaired {
        let mech = SideInfoRepair::new(inner).unwrap();
        mechs.push((mech.info().name, Box::new(mech)));
    }
    mechs
}

/// 2-D spot check of the same property (exercises the Hilbert flatten
/// buffers DAWA and GREEDY_H draw from the workspace).
#[test]
fn workspace_reuse_is_bit_identical_in_2d() {
    let domain = Domain::D2(32, 32);
    let mut wrng = StdRng::seed_from_u64(21);
    let workload = Workload::random_ranges(domain, 200, &mut wrng);
    let mut counts = vec![1.0; 32 * 32];
    counts[40] = 500.0;
    counts[700] = 300.0;
    let x = DataVector::new(counts, domain);

    let mut reused = Workspace::new();
    let names = ["DAWA", "GREEDY_H", "QUADTREE", "HB", "MWEM*"];
    for (name, mech) in with_rside(&names, &["UGRID", "AGRID"]) {
        let name = name.as_str();
        let plan = mech.plan(&domain, &workload).unwrap();
        for trial in 0..2_u64 {
            let mut fresh = Workspace::new();
            let a = execute_eps_with(
                plan.as_ref(),
                &x,
                0.1,
                &mut fresh,
                &mut rng_for(name, &[trial]),
            )
            .unwrap();
            let b = execute_eps_with(
                plan.as_ref(),
                &x,
                0.1,
                &mut reused,
                &mut rng_for(name, &[trial]),
            )
            .unwrap();
            assert_eq!(a.estimate, b.estimate, "{name} 2-D trial {trial}");
        }
    }
}

/// The exponential mechanism that skips Gumbel values which cannot win
/// against the loop that computes every one, on cloned RNGs: both must
/// pick the same index and leave the RNG at the same point in its stream.
/// Covers one candidate, ties, −∞ scores (SF's infeasible boundaries),
/// +∞ scores, ε = 0 and score spreads from 10⁻³ to 10⁶.
#[test]
fn exponential_mechanism_equals_naive_and_draws_the_same_stream() {
    let mut rng = StdRng::seed_from_u64(0xE4E);
    let mut cases: Vec<(Vec<f64>, f64, f64)> = vec![
        (vec![3.0], 1.0, 1.0),
        (vec![f64::NEG_INFINITY], 1.0, 1.0),
        (vec![f64::INFINITY], 1.0, 1.0),
        (vec![7.0; 64], 1.0, 0.5),
        (vec![f64::NEG_INFINITY; 16], 4.0, 1.0),
        (vec![1.0, f64::INFINITY, 2.0, f64::INFINITY, 0.5], 1.0, 1.0),
        (vec![0.0, 5.0, 10.0], 1.0, 0.0),
        (vec![f64::NEG_INFINITY, 5.0, f64::INFINITY], 1.0, 0.0),
    ];
    for &spread in &[1e-3, 1e-1, 1.0, 10.0, 1e3, 1e6] {
        for &n in &[2, 10, 257, 2000] {
            for &eps in &[0.0, 0.01, 0.1, 1.0, 10.0] {
                let continuous: Vec<f64> = (0..n).map(|_| spread * rng.gen::<f64>()).collect();
                // Few distinct values: many ties at and below the winner.
                let coarse = (0..n)
                    .map(|_| spread * f64::from(rng.gen_range(0_u32..4)))
                    .collect();
                let mut infeasible = continuous.clone();
                for s in infeasible.iter_mut().step_by(3) {
                    *s = f64::NEG_INFINITY;
                }
                cases.extend([
                    (continuous, 1.0, eps),
                    (coarse, 4.0, eps),
                    (infeasible, 2.0, eps),
                ]);
            }
        }
    }
    for (case, (scores, sensitivity, eps)) in cases.iter().enumerate() {
        for draw in 0..4 {
            let (mut fast_rng, mut naive_rng) = (rng.clone(), rng.clone());
            let fast = exponential_mechanism(scores, *sensitivity, *eps, &mut fast_rng);
            let naive = exponential_mechanism_naive(scores, *sensitivity, *eps, &mut naive_rng);
            assert_eq!(
                fast,
                naive,
                "case {case} draw {draw} (n = {})",
                scores.len()
            );
            assert_eq!(
                fast_rng.next_u64(),
                naive_rng.next_u64(),
                "case {case} draw {draw}"
            );
            rng.next_u64();
        }
    }
}

/// Sort `values` descending as AHP does and cluster them both ways.
fn assert_clusters_equal(values: &[f64], noise_cost: f64, label: &str) -> usize {
    let mut sorted: Vec<usize> = (0..values.len()).collect();
    sorted.sort_by(|&a, &b| values[b].partial_cmp(&values[a]).unwrap());
    let fast = greedy_clusters(&sorted, values, noise_cost);
    let naive = greedy_clusters_naive(&sorted, values, noise_cost);
    assert_eq!(fast, naive, "{label}, noise cost {noise_cost:e}");
    fast.iter().map(|r| r.len()).max().unwrap_or(0)
}

/// The first run's deviation increases as the naive loop computes them
/// (`Σ|v − mean|` added in order), for noise costs a decision sits on.
fn first_run_increases(values: &[f64], upto: usize) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
    let (mut sum, mut dev, mut out) = (sorted[0], 0.0, Vec::new());
    for end in 1..sorted.len().min(upto) {
        sum += sorted[end];
        let mean = sum / (end + 1) as f64;
        let candidate: f64 = sorted[..=end].iter().map(|&v| (v - mean).abs()).sum();
        out.push(candidate - dev);
        dev = candidate;
    }
    out
}

/// AHP's one-pass clustering against the rescanning loop: descending runs
/// with duplicates, values on a coarse grid, Laplace-noised counts like
/// AHP's survivors, and noise costs set exactly to a deviation increase,
/// where only the exact fallback can decide as the naive loop does.
#[test]
fn greedy_clusters_equal_rescanning_loop() {
    let mut rng = StdRng::seed_from_u64(0xA4B);
    let mut longest = 0;
    for round in 0..40 {
        let n = [1, 2, 7, 64, 300, 1_200][round % 6];
        let step = [1.0, 0.25, 0.1, 1e-3, 7.0, 1e6][round / 6 % 6];
        let levels = [1_u32, 2, 5, 40][round % 4];
        let coarse: Vec<f64> = (0..n)
            .map(|_| step * f64::from(rng.gen_range(0..levels)))
            .collect();
        let noisy: Vec<f64> = (0..n)
            .map(|_| {
                let count = f64::from(rng.gen_range(0_u32..60));
                (count + dpbench_core::primitives::laplace(12.0, &mut rng)).max(1e-3)
            })
            .collect();
        for (label, values) in [("coarse", &coarse), ("noisy", &noisy)] {
            let mut costs = vec![1e-9, 0.5, 2.0_f64.sqrt() / 0.015, 1e3, step];
            // Exact ties with a decision: the fallback must run.
            costs.extend(
                first_run_increases(values, 50)
                    .into_iter()
                    .filter(|c| *c > 0.0),
            );
            for &cost in &costs {
                let run = assert_clusters_equal(values, cost, &format!("{label} round {round}"));
                longest = longest.max(run);
            }
        }
    }
    assert!(longest >= 300, "longest run {longest}");
}

/// The one-pass scorer against the two-step path it replaced
/// (`evaluate_cells`, then `scaled_per_query_error`), bit for bit: every
/// `Workload` constructor — the Prefix workload built directly and
/// through `Workload::new`, a 1-cell domain included — all three losses,
/// random estimates and estimates and true answers holding NaN, ±∞, −0.0,
/// subnormals and 1e300, at degenerate and ordinary scales. One workspace
/// scores every case, so its pooled table moves between domains.
#[test]
fn one_pass_scorer_equals_evaluate_then_score() {
    let mut rng = StdRng::seed_from_u64(0x5C0E);
    let mut workloads = Vec::new();
    for n in [1, 2, 7, 64, 300] {
        let d1 = Domain::D1(n);
        workloads.push(Workload::prefix_1d(n));
        let queries = (0..n).map(|i| RangeQuery::d1(0, i)).collect();
        workloads.push(Workload::new(d1, queries));
        // One query short of Prefix, and Prefix out of order.
        let short = (0..n - 1).map(|i| RangeQuery::d1(0, i)).collect();
        workloads.push(Workload::new(d1, short));
        let reversed = (0..n).rev().map(|i| RangeQuery::d1(0, i)).collect();
        workloads.push(Workload::new(d1, reversed));
        workloads.push(Workload::identity(d1));
        workloads.push(Workload::all_ranges_1d(n.min(40)));
        workloads.push(Workload::fixed_width_1d(n, n.div_ceil(3)));
        workloads.push(Workload::random_ranges(d1, 50, &mut rng));
    }
    for (r, c) in [(1, 1), (1, 5), (4, 4), (9, 6)] {
        let d2 = Domain::D2(r, c);
        workloads.push(Workload::identity(d2));
        workloads.push(Workload::marginals_2d(r, c));
        workloads.push(Workload::random_ranges(d2, 60, &mut rng));
        workloads.push(Workload::new(d2, vec![RangeQuery::d2(0, 0, r - 1, c - 1)]));
    }
    let specials = [
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        5e-324,
        -2.2e-308,
        1e300,
        -1e300,
    ];
    // Rust leaves a NaN result's sign and payload to the compiler (it may
    // propagate either operand of a commutative add), so two loops doing
    // the same operations may return differently signed NaNs; every
    // output writes NaN without either.
    let bits = |e: f64| {
        if e.is_nan() {
            f64::NAN.to_bits()
        } else {
            e.to_bits()
        }
    };
    let mut ws = Workspace::new();
    let mut cases = 0;
    for w in &workloads {
        let n = w.domain().n_cells();
        let mut vectors: Vec<Vec<f64>> = (0..3)
            .map(|k| {
                let magnitude = [1.0, 1e3, 1e8][k];
                (0..n)
                    .map(|_| rng.gen_range(-magnitude..magnitude))
                    .collect()
            })
            .collect();
        for &v in &specials {
            vectors.push(vec![v; n]);
            // One special value among ordinary ones.
            let mut one: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..100.0)).collect();
            one[rng.gen_range(0..n)] = v;
            vectors.push(one);
        }
        // A mix of every special value.
        vectors.push((0..n).map(|i| specials[i % specials.len()]).collect());
        let truth = w.evaluate_cells(&vectors[1]);
        let special_truth: Vec<f64> = (0..w.len())
            .map(|i| specials[(i * 7) % specials.len()])
            .collect();
        for cells in &vectors {
            for y_true in [&truth, &special_truth] {
                for loss in [Loss::L1, Loss::L2, Loss::LInf] {
                    for scale in [0.0, -1.0, 1.0, 12_345.0, f64::NAN] {
                        let two_step =
                            scaled_per_query_error(y_true, &w.evaluate_cells(cells), scale, loss);
                        let one_pass = w.scaled_error(cells, y_true, scale, loss, &mut ws);
                        assert_eq!(
                            bits(one_pass),
                            bits(two_step),
                            "{:?} over {} ({} queries), {loss:?}, scale {scale}: \
                             {one_pass} vs {two_step}",
                            &cells[..n.min(4)],
                            w.domain(),
                            w.len()
                        );
                        cases += 1;
                    }
                }
            }
        }
    }
    assert!(cases > 30_000, "ran {cases} cases");
}

/// The hierarchical mechanisms keep each data vector's true node counts
/// in the worker's workspace: one workspace runs each of them over two
/// vectors in turn and over a copy of the first with a zero flipped to
/// −0.0 (a different key bit for bit), trial after trial, then all of
/// them interleaved; every estimate must equal, bit for bit, the one a
/// fresh workspace computes.
#[test]
fn stored_node_counts_equal_a_fresh_workspace() {
    let mut rng = StdRng::seed_from_u64(0x40DE);
    let d1 = Domain::D1(300);
    let d2 = Domain::D2(32, 32);
    let vectors = |rng: &mut StdRng, domain: Domain| {
        let x1 = shaped(rng, domain, 1e5);
        let x2 = shaped(rng, domain, 1e5);
        let mut flipped = x1.counts().to_vec();
        let zero = flipped.iter().position(|&c| c == 0.0).expect("a zero cell");
        flipped[zero] = -0.0;
        let x1_flipped = DataVector::new(flipped, domain);
        vec![
            x1.clone(),
            x1.clone(),
            x2.clone(),
            x1_flipped.clone(),
            x1,
            x1_flipped,
            x2,
        ]
    };
    let settings = [
        (d1, Workload::prefix_1d(300), vec!["H", "HB", "GREEDY_H"]),
        (
            d2,
            Workload::random_ranges(d2, 200, &mut rng),
            vec!["HB", "GREEDY_H", "QUADTREE"],
        ),
    ];
    let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
    for (domain, workload, names) in settings {
        let xs = vectors(&mut rng, domain);
        let plans: Vec<_> = names
            .iter()
            .map(|&name| {
                let mech = mechanism_by_name(name).unwrap();
                (name, mech.plan(&domain, &workload).unwrap())
            })
            .collect();
        let mut reused = Workspace::new();
        let mut run = |name: &str, plan: &dyn Plan, v: usize, x: &DataVector, trial: u64| {
            let coords = [v as u64, trial];
            let mut fresh = Workspace::new();
            let a = execute_eps_with(plan, x, 0.1, &mut fresh, &mut rng_for(name, &coords));
            let b = execute_eps_with(plan, x, 0.1, &mut reused, &mut rng_for(name, &coords));
            assert_eq!(
                bits(&a.unwrap().estimate),
                bits(&b.unwrap().estimate),
                "{name} over {domain}, vector {v}, trial {trial}"
            );
        };
        for (name, plan) in &plans {
            for (v, x) in xs.iter().enumerate() {
                for trial in 0..3 {
                    run(name, plan.as_ref(), v, x, trial);
                }
            }
        }
        for (v, x) in xs.iter().enumerate() {
            for (name, plan) in &plans {
                run(name, plan.as_ref(), v, x, 7);
            }
        }
    }
}
