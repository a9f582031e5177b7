//! End-to-end privacy accounting (paper Principles 5–7): every mechanism
//! in the registry must route all of its ε spending through the budget
//! ledger and never overdraw it.

use dpbench::prelude::*;
use dpbench_core::rng::rng_for;
use dpbench_core::Workspace;

/// Plan `mech` and execute it once on a shared ledger, keeping the
/// estimate.
fn estimate(
    mech: &dyn Mechanism,
    x: &DataVector,
    workload: &Workload,
    ledger: &mut BudgetLedger,
    rng: &mut dyn rand::RngCore,
) -> Result<Vec<f64>, MechError> {
    let plan = mech.plan(&x.domain(), workload)?;
    Ok(plan
        .execute(x, &mut Workspace::new(), ledger, rng)?
        .estimate)
}

fn check_budget(name: &str, x: &DataVector, workload: &Workload, eps: f64) {
    let mech = mechanism_by_name(name).expect("registered");
    let mut ledger = BudgetLedger::new(eps);
    let mut rng = rng_for(
        "budget-test",
        &[dpbench_core::rng::hash_str(name), x.n_cells() as u64],
    );
    let est = estimate(mech.as_ref(), x, workload, &mut ledger, &mut rng)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(est.len(), x.n_cells(), "{name}: wrong estimate length");
    assert!(
        ledger.spent() <= ledger.total() * (1.0 + 1e-9),
        "{name}: overdrew the budget ({} > {})",
        ledger.spent(),
        ledger.total()
    );
    assert!(
        est.iter().all(|v| v.is_finite()),
        "{name}: non-finite estimates"
    );
}

#[test]
fn all_1d_mechanisms_respect_budget() {
    let mut rng = rng_for("budget-data", &[1]);
    let dataset = dpbench::datasets::catalog::by_name("MEDCOST").unwrap();
    let x = DataGenerator::new().generate(&dataset, Domain::D1(256), 20_000, &mut rng);
    let w = Workload::prefix_1d(256);
    for name in NAMES_1D {
        check_budget(name, &x, &w, 0.5);
    }
}

#[test]
fn all_2d_mechanisms_respect_budget() {
    let mut rng = rng_for("budget-data", &[2]);
    let dataset = dpbench::datasets::catalog::by_name("STROKE").unwrap();
    let x = DataGenerator::new().generate(&dataset, Domain::D2(32, 32), 20_000, &mut rng);
    let w = Workload::random_ranges(Domain::D2(32, 32), 300, &mut rng);
    for name in NAMES_2D.iter().chain(["HYBRIDTREE"].iter()) {
        check_budget(name, &x, &w, 0.5);
    }
}

#[test]
fn budget_holds_across_epsilons() {
    let mut rng = rng_for("budget-data", &[3]);
    let dataset = dpbench::datasets::catalog::by_name("ADULT").unwrap();
    let x = DataGenerator::new().generate(&dataset, Domain::D1(128), 5_000, &mut rng);
    let w = Workload::prefix_1d(128);
    for eps in [0.01, 0.1, 1.0, 10.0] {
        for name in ["DAWA", "MWEM*", "AHP*", "SF", "PHP", "EFPA"] {
            check_budget(name, &x, &w, eps);
        }
    }
}

/// The per-step budget traces a [`Release`] carries must sum to at most ε
/// for every registry mechanism, and every recorded step must be a
/// non-negative draw.
#[test]
fn release_budget_traces_sum_to_at_most_epsilon() {
    let mut rng = rng_for("trace-data", &[1]);
    let d1 = dpbench::datasets::catalog::by_name("MEDCOST").unwrap();
    let x1 = DataGenerator::new().generate(&d1, Domain::D1(256), 20_000, &mut rng);
    let w1 = Workload::prefix_1d(256);
    let d2 = dpbench::datasets::catalog::by_name("STROKE").unwrap();
    let x2 = DataGenerator::new().generate(&d2, Domain::D2(32, 32), 20_000, &mut rng);
    let w2 = Workload::random_ranges(Domain::D2(32, 32), 300, &mut rng);

    let eps = 0.5;
    let mut checked = 0;
    for name in NAMES_1D.iter().chain(NAMES_2D.iter()) {
        let mech = mechanism_by_name(name).expect("registered");
        let (x, w) = if mech.supports(&Domain::D1(256)) {
            (&x1, &w1)
        } else {
            (&x2, &w2)
        };
        let mut rng = rng_for("trace-test", &[dpbench_core::rng::hash_str(name)]);
        let release = mech
            .release_eps(x, w, eps, &mut rng)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            !release.budget_trace.is_empty(),
            "{name}: empty budget trace"
        );
        assert!(
            release.budget_trace.iter().all(|r| r.epsilon >= 0.0),
            "{name}: negative spend record"
        );
        assert!(
            release.spent() <= eps * (1.0 + 1e-9),
            "{name}: trace sums to {} > ε = {eps}",
            release.spent()
        );
        assert_eq!(release.diagnostics.mechanism, *name);
        checked += 1;
    }
    assert!(checked >= 20, "expected to cover both suites");
}

/// Data-independent plans must expose their strategy size and sensitivity.
#[test]
fn data_independent_diagnostics_are_populated() {
    let domain = Domain::D1(256);
    let w = Workload::prefix_1d(256);
    for name in ["IDENTITY", "H", "HB", "GREEDY_H", "PRIVELET"] {
        let mech = mechanism_by_name(name).unwrap();
        let plan = mech.plan(&domain, &w).unwrap();
        let diag = plan.diagnostics();
        assert!(
            diag.data_independent,
            "{name} plan should be data-independent"
        );
        assert!(
            diag.measurements.unwrap() > 0,
            "{name}: no measurement count"
        );
        assert!(
            diag.sensitivity.unwrap() >= 1.0,
            "{name}: missing sensitivity"
        );
    }
}

#[test]
fn repaired_mechanisms_respect_budget() {
    use dpbench::harness::repair::SideInfoRepair;
    let mut rng = rng_for("budget-data", &[4]);
    let dataset = dpbench::datasets::catalog::by_name("GOWALLA").unwrap();
    let x = DataGenerator::new().generate(&dataset, Domain::D2(32, 32), 50_000, &mut rng);
    let w = Workload::random_ranges(Domain::D2(32, 32), 200, &mut rng);
    for name in ["UGRID", "AGRID"] {
        let repaired = SideInfoRepair::new(name).unwrap();
        let mut ledger = BudgetLedger::new(0.5);
        let est = estimate(&repaired, &x, &w, &mut ledger, &mut rng).unwrap();
        assert_eq!(est.len(), x.n_cells());
        assert!(ledger.spent() <= ledger.total() * (1.0 + 1e-9));
    }
}
