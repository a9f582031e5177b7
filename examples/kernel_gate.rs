//! The kernel gate on two runs of the same grids: one written by the old
//! mechanism kernels, one by the new. It pairs their trials and prints
//! whether the paper's statistics (Welch's test per cell, competitive
//! sets, regret ranking) can tell the two runs apart.
//!
//! Run with:
//! `cargo run --release --example kernel_gate -- PARENT.jsonl CHANGE.jsonl`
//!
//! Either side may be a comma-separated list of ledgers, one per
//! `dpbench run`, which are read as one run.
//!
//! Exits 0 when the gate passes, 1 when it fails, 2 when the ledgers
//! cannot be read or paired.

use dpbench::harness::competitive::{kernel_gate, GateReport};
use dpbench::harness::sink::read_samples;
use dpbench::prelude::*;
use std::process::ExitCode;

fn store(paths: &str) -> Result<ResultStore, String> {
    let mut store = ResultStore::new();
    for path in paths.split(',') {
        let samples = read_samples(path).map_err(|e| format!("{path}: {e}"))?;
        store.extend(samples.into_iter().map(|(_, _, s)| s));
    }
    Ok(store)
}

fn gate(parent: &str, change: &str) -> Result<GateReport, String> {
    let (parent, change) = (store(parent)?, store(change)?);
    kernel_gate(&parent, &change).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [parent, change] = args.as_slice() else {
        eprintln!("usage: kernel_gate PARENT.jsonl[,...] CHANGE.jsonl[,...]");
        return ExitCode::from(2);
    };
    match gate(parent, change) {
        Ok(report) => {
            println!("{report}");
            if report.passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
