//! # flowmax-sampling
//!
//! Monte-Carlo substrate for the `flowmax` workspace: unbiased possible-world
//! sampling (Lemma 1), whole-subgraph reachability estimation (the *Naive*
//! baseline's estimator), component-local estimation (the F-tree's sampling
//! kernel, §5.3), confidence intervals (§6.3 / Def. 10), and deterministic
//! seed management for reproducible experiments.
//!
//! Two sampling engines share one seed contract:
//!
//! * the **scalar** reference path ([`sample_world`], [`sample_reachability`],
//!   [`ComponentGraph::sample_reachability`]) — one world, one BFS at a time;
//! * the **bit-parallel** engine ([`batch`], [`parallel`]) — 64 worlds per
//!   `u64` lane word, [`LANE_WORDS`] words per block, one lane-BFS per
//!   block, blocks sharded across threads with results bit-identical for
//!   every thread count.
//!
//! On top of them, the [`race`] module implements the §6.3 candidate race:
//! geometric whole-batch sample rounds with confidence-interval elimination
//! (never below the 30-sample CLT floor), budget reallocation to the
//! finalists, and incremental per-component estimates extended as one
//! multi-candidate job per round.
//!
//! The batched engine is allocation-free in steady state *and* spawn-free
//! per job: chunks run on the persistent process-global
//! [`WorkerPool`] (one pinned thread per worker slot,
//! channel-fed, joined on drop), every thread keeps one warm
//! [`SamplingScratch`] for life (lane buffers, per-lane RNGs, frontier
//! worklists — see [`with_thread_scratch`]), and snapshot builds reuse a
//! graph-sized [`LocalIdScratch`] reset by an epoch counter instead of
//! allocating a hash map per component.

#![warn(missing_docs)]
// `deny`, not `forbid`: the worker pool hands lifetime-erased closures to
// its persistent threads through one audited `#[allow(unsafe_code)]`
// transmute (see `pool::WorkerPool::run`); everything else stays safe.
#![deny(unsafe_code)]

pub mod batch;
pub mod coin;
pub mod component;
pub mod confidence;
pub mod convergence;
pub mod estimate;
pub mod parallel;
pub mod pool;
pub mod race;
pub mod reachability;
pub mod rng;
pub mod sampler;
pub mod scratch;

pub use batch::{
    block_mask, block_ones, block_worlds, lane_mask, lanes_in_batch, EdgeCoin, LaneBfs, WorldBatch,
    LANES, LANE_WORDS,
};
pub use coin::scalar_coin;
pub use component::{ComponentEstimate, ComponentGraph, LocalIdScratch};
pub use confidence::{
    normal_quantile, wald_interval, wilson_interval, z_for_alpha, ConfidenceInterval,
    DEFAULT_ALPHA, MIN_SAMPLES_FOR_CLT,
};
pub use convergence::BatchSchedule;
pub use estimate::FlowEstimate;
pub use parallel::{
    clamp_threads, default_threads, invalid_thread_requests, ParallelEstimator, WorldsRequest,
};
pub use pool::{is_pool_worker, WorkerPool};
pub use race::{
    CandidateRace, IncrementalComponent, LaneStatus, RaceConfig, RoundOutcome, RoundPlan,
};
pub use reachability::{sample_flow, sample_reachability, ReachabilityEstimate};
pub use rng::{splitmix64, FlowRng, SeedSequence};
pub use sampler::{sample_world, sample_worlds};
pub use scratch::{with_thread_scratch, SamplingScratch};
