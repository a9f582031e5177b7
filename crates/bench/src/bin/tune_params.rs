//! Rparam retraining entry point (paper Section 5.2): learns the MWEM★
//! round schedule and AHP★ (ρ, η) schedule on synthetic power-law/normal
//! shapes and prints them in the format embedded as defaults in
//! `dpbench_algorithms::mwem::default_star_schedule` /
//! `dpbench_algorithms::ahp::default_star_schedule`.

use dpbench_bench::common;
use dpbench_harness::tuning::{tune_ahp_schedule, tune_mwem_schedule, TuningConfig};

fn main() {
    common::banner(
        "Rparam training (MWEM* round schedule, AHP* parameters)",
        "Hay et al., SIGMOD 2016, Sections 5.2 and 6.4",
    );
    let cfg = if common::Fidelity::from_env().full {
        TuningConfig::default()
    } else {
        TuningConfig {
            signals: vec![1e1, 1e3, 1e5],
            epsilon: 0.1,
            domain: 256,
            trials: 2,
        }
    };
    println!("Training config: {cfg:?}\n");

    let mwem = tune_mwem_schedule(&cfg, &[2, 5, 10, 30, 60, 100]);
    println!("MWEM* schedule (signal upper bound -> T):");
    for (bound, t) in &mwem {
        println!("  <= {bound:10.1}: T = {t}");
    }

    let ahp = tune_ahp_schedule(&cfg, &[0.3, 0.5, 0.85], &[0.4, 1.0, 1.5]);
    println!("\nAHP* schedule (signal upper bound -> rho, eta):");
    for (bound, rho, eta) in &ahp {
        println!("  <= {bound:10.1}: rho = {rho}, eta = {eta}");
    }
    println!("\nPaper shape check: T grows from ~2 at weak signal to ~100 at strong");
    println!("signal; AHP shifts budget from structure to measurement as the");
    println!("signal strengthens.");
}
