//! # flowmax-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§7), plus Criterion micro-benchmarks. The crate README lists
//! the experiment index.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod report;
pub mod runner;

pub use experiments::{registry, Experiment};
pub use report::{Cell, Report, Row};
pub use runner::{names, roster, run_workload, RunConfig, Scale};
