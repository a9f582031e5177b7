//! # dpbench-bench
//!
//! Shared plumbing for the paper's figure, table and finding reproduction
//! binaries (in `src/bin/`). Performance is measured by `perfbench/`, not
//! here.

pub mod common;
