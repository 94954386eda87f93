//! # flowmax-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§7), plus Criterion micro-benchmarks. See DESIGN.md §4 for
//! the experiment index and EXPERIMENTS.md for paper-vs-measured results.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod report;
pub mod runner;

pub use experiments::{registry, Experiment};
pub use report::{Cell, Report, Row};
pub use runner::{names, roster, run_workload, RunConfig, Scale};
