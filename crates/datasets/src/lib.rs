//! # flowmax-datasets
//!
//! Workload generators and loaders for the `flowmax` evaluation (§7.1 of the
//! paper): synthetic graphs with and without the locality assumption, and
//! simulated substitutes for the paper's real datasets (Facebook circles,
//! DBLP, YouTube, San Joaquin road network). All generators are deterministic
//! given a `u64` seed; the crate README documents each substitution.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod collaboration;
pub mod erdos;
pub mod loader;
pub mod partitioned;
pub mod preferential;
pub mod probabilities;
pub mod road;
pub mod social_circle;
pub mod spec;
pub mod weights;
pub mod wsn;

pub use collaboration::CollaborationConfig;
pub use erdos::ErdosConfig;
pub use loader::{load_edge_list, LoadedGraph};
pub use partitioned::PartitionedConfig;
pub use preferential::PreferentialConfig;
pub use probabilities::ProbabilityModel;
pub use road::{RoadConfig, RoadGraph};
pub use social_circle::SocialCircleConfig;
pub use spec::{suggest_query, DatasetSpec};
pub use weights::WeightModel;
pub use wsn::{WsnConfig, WsnGraph};
