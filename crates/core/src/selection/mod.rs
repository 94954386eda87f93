//! Budgeted edge selection (§6): the greedy algorithm and its heuristics.

pub mod candidates;
pub mod delayed;
pub mod greedy;
pub mod memo;
pub mod observer;
mod racing;

pub use candidates::CandidateSet;
pub use delayed::DelayTracker;
pub use greedy::{greedy_select, GreedyConfig, ProbeEngine, SelectionOutcome};
pub use memo::MemoProvider;
pub use observer::{NoObserver, SelectionObserver, SelectionStep};
