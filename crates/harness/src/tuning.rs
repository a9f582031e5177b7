//! `Rparam` — the benchmark's free-parameter learning procedure (paper
//! Sections 5.2 and 6.4).
//!
//! Free parameters (MWEM's round count `T`; AHP's `(ρ, η)`) may not be
//! tuned on the evaluation data (Principle 6). Instead, `Rparam` learns a
//! function from `(ε, scale, domain size)` — in practice from the ε·scale
//! *signal* product, thanks to scale-ε exchangeability — to parameter
//! values, trained on **synthetic** shapes drawn from power-law and normal
//! distributions (never on benchmark datasets). The learned schedules feed
//! MWEM★ and AHP★.

use dpbench_algorithms::ahp::Ahp;
use dpbench_algorithms::mwem::Mwem;
use dpbench_core::rng::rng_for;
use dpbench_core::{DataVector, Domain, Loss, Mechanism, Workload, Workspace};
use dpbench_datasets::sampling::multinomial;

/// Configuration of a tuning run.
#[derive(Debug, Clone)]
pub struct TuningConfig {
    /// Signal levels (ε·scale products) to train at.
    pub signals: Vec<f64>,
    /// ε used for training runs (scale is derived as signal/ε).
    pub epsilon: f64,
    /// Training domain size.
    pub domain: usize,
    /// Trials per (signal, candidate).
    pub trials: usize,
}

impl Default for TuningConfig {
    fn default() -> Self {
        Self {
            signals: vec![1e1, 1e2, 1e3, 1e4, 1e5, 1e6],
            epsilon: 0.1,
            domain: 1024,
            trials: 3,
        }
    }
}

/// Synthetic training shapes (paper Section 6.4: "we train on shape
/// distributions synthetically generated from power law and normal
/// distributions").
pub fn training_shapes(n: usize) -> Vec<Vec<f64>> {
    let mut shapes = Vec::new();
    // Power law.
    let mut p: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(-1.1)).collect();
    let t: f64 = p.iter().sum();
    p.iter_mut().for_each(|v| *v /= t);
    shapes.push(p);
    // Normal bump.
    let mut g: Vec<f64> = (0..n)
        .map(|i| {
            let z = (i as f64 - n as f64 / 2.0) / (n as f64 / 10.0);
            (-0.5 * z * z).exp()
        })
        .collect();
    let t: f64 = g.iter().sum();
    g.iter_mut().for_each(|v| *v /= t);
    shapes.push(g);
    shapes
}

/// Mean error of a mechanism at one signal level over the training
/// shapes.
fn training_error<M: Mechanism>(mech: &M, signal: f64, cfg: &TuningConfig, tag: &str) -> f64 {
    let n = cfg.domain;
    let domain = Domain::D1(n);
    let workload = Workload::prefix_1d(n);
    let scale = (signal / cfg.epsilon).max(1.0) as u64;
    let mut ws = Workspace::new();
    let mut total = 0.0;
    let mut count = 0;
    for (si, shape) in training_shapes(n).iter().enumerate() {
        for trial in 0..cfg.trials {
            let mut rng = rng_for(tag, &[signal.to_bits(), si as u64, trial as u64]);
            let counts = multinomial(scale, shape, &mut rng);
            let x = DataVector::new(counts.into_iter().map(|c| c as f64).collect(), domain);
            let y = workload.evaluate(&x);
            let est = mech
                .run_eps(&x, &workload, cfg.epsilon, &mut rng)
                .expect("training run failed");
            total += workload.scaled_error(&est, &y, x.scale(), Loss::L2, &mut ws);
            count += 1;
        }
    }
    total / count as f64
}

/// Learn MWEM's `T` schedule: for each signal level pick the candidate
/// `T` with lowest mean training error; emit `(signal upper bound, T)`
/// rows with geometric-midpoint boundaries.
pub fn tune_mwem_schedule(cfg: &TuningConfig, candidates: &[usize]) -> Vec<(f64, usize)> {
    assert!(!candidates.is_empty());
    let mut best_per_signal = Vec::with_capacity(cfg.signals.len());
    for &signal in &cfg.signals {
        let mut best = (f64::INFINITY, candidates[0]);
        for &t in candidates {
            let err = training_error(&Mwem::with_rounds(t), signal, cfg, "tune-mwem");
            if err < best.0 {
                best = (err, t);
            }
        }
        best_per_signal.push((signal, best.1));
    }
    schedule_from_points(&best_per_signal)
}

/// Learn AHP's `(ρ, η)` schedule over a candidate grid.
pub fn tune_ahp_schedule(cfg: &TuningConfig, rhos: &[f64], etas: &[f64]) -> Vec<(f64, f64, f64)> {
    assert!(!rhos.is_empty() && !etas.is_empty());
    let mut rows = Vec::with_capacity(cfg.signals.len());
    for &signal in &cfg.signals {
        let mut best = (f64::INFINITY, rhos[0], etas[0]);
        for &rho in rhos {
            for &eta in etas {
                let err = training_error(&Ahp::with_params(rho, eta), signal, cfg, "tune-ahp");
                if err < best.0 {
                    best = (err, rho, eta);
                }
            }
        }
        rows.push((signal, best.1, best.2));
    }
    // Convert trained points to bracketed rows.
    let mut out = Vec::with_capacity(rows.len());
    for (i, &(signal, rho, eta)) in rows.iter().enumerate() {
        let bound = if i + 1 < rows.len() {
            (signal * rows[i + 1].0).sqrt()
        } else {
            f64::INFINITY
        };
        out.push((bound, rho, eta));
    }
    out
}

/// The free parameters `mechanism` runs at signal level ε·scale, as the
/// compact `key=value` string a selection-profile cell carries. `None`
/// for mechanisms without free parameters. The values come from the
/// registry's own mechanisms, so a recommendation is reproducible
/// outside the registry.
pub fn tuned_params_for(mechanism: &str, signal: f64) -> Option<String> {
    let rounds = |m: Mwem| format!("T={}", m.pick_rounds(signal));
    let ahp = |a: Ahp| {
        let (rho, eta) = a.pick_params(signal);
        format!("rho={rho},eta={eta}")
    };
    match mechanism {
        "MWEM" => Some(rounds(Mwem::original())),
        "MWEM*" => Some(rounds(Mwem::star())),
        "AHP" => Some(ahp(Ahp::original())),
        "AHP*" => Some(ahp(Ahp::star())),
        _ => None,
    }
}

/// Turn per-signal winners into a bracketed lookup: each row's bound is
/// the geometric midpoint to the next training signal.
fn schedule_from_points(points: &[(f64, usize)]) -> Vec<(f64, usize)> {
    let mut out = Vec::with_capacity(points.len());
    for (i, &(signal, t)) in points.iter().enumerate() {
        let bound = if i + 1 < points.len() {
            (signal * points[i + 1].0).sqrt()
        } else {
            f64::INFINITY
        };
        out.push((bound, t));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_shapes_are_distributions() {
        for s in training_shapes(256) {
            assert_eq!(s.len(), 256);
            assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(s.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn schedule_brackets_are_increasing() {
        let sched = schedule_from_points(&[(10.0, 2), (1000.0, 10), (100000.0, 50)]);
        assert_eq!(sched.len(), 3);
        assert!(sched[0].0 < sched[1].0);
        assert_eq!(sched[2].0, f64::INFINITY);
        assert_eq!(sched[0].1, 2);
    }

    #[test]
    fn tune_mwem_small_run() {
        // A tiny but real tuning pass: higher signal should not prefer
        // strictly fewer rounds than lower signal.
        let cfg = TuningConfig {
            signals: vec![10.0, 100_000.0],
            epsilon: 0.1,
            domain: 64,
            trials: 1,
        };
        let sched = tune_mwem_schedule(&cfg, &[2, 20]);
        assert_eq!(sched.len(), 2);
        assert!(sched[0].1 <= sched[1].1, "schedule {sched:?}");
    }

    #[test]
    fn tuned_params_follow_the_signal() {
        // Low signal → few MWEM★ rounds; high signal → many. The values
        // are what the registry's mechanisms run.
        assert_eq!(tuned_params_for("MWEM*", 5.0).unwrap(), "T=2");
        assert_eq!(tuned_params_for("MWEM*", 1e7).unwrap(), "T=100");
        assert_eq!(tuned_params_for("MWEM", 1e7).unwrap(), "T=10");
        assert_eq!(tuned_params_for("AHP*", 1e3).unwrap(), "rho=0.85,eta=1.5");
        assert_eq!(tuned_params_for("AHP*", 1e7).unwrap(), "rho=0.85,eta=0.4");
        assert_eq!(tuned_params_for("AHP", 1e3).unwrap(), "rho=0.5,eta=1");
        assert!(tuned_params_for("DAWA", 100.0).is_none());
    }

    #[test]
    fn tune_ahp_small_run() {
        let cfg = TuningConfig {
            signals: vec![100.0],
            epsilon: 0.1,
            domain: 64,
            trials: 1,
        };
        let sched = tune_ahp_schedule(&cfg, &[0.3, 0.7], &[0.5, 1.5]);
        assert_eq!(sched.len(), 1);
        assert_eq!(sched[0].0, f64::INFINITY);
    }
}
