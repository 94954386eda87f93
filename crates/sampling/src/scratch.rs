//! Reusable sampling scratch arenas.
//!
//! Every batched estimation needs the same per-worker working set: a
//! [`WorldBatch`] (lane blocks per edge plus the per-lane RNG buffers) and a
//! [`LaneBfs`] (reached/pending lane blocks, the fixed worklist ring and
//! the touched-vertex reset list, both `vertex_count + 1` slots so the
//! branch-free appends always have one to write). Allocating those per
//! call is cheap once but ruinous in the greedy selection loop, where every
//! candidate probe runs a small component estimation: thousands of probes
//! per iteration each paid a fresh batch + BFS allocation.
//!
//! [`SamplingScratch`] bundles the working set, and
//! [`with_thread_scratch`] keeps **one scratch per OS thread** — each
//! persistent [`WorkerPool`](crate::pool::WorkerPool) worker owns one,
//! warmed by the first job it ever serves and reused by every estimation
//! the process runs afterwards; submitting threads (which compute chunk 0
//! of their own jobs, and whole jobs that are too small to shard) get their
//! own. Buffers survive across jobs and only grow, so steady-state
//! estimation performs zero heap allocation per batch: the mask buffer,
//! lane RNGs, BFS arrays and worklist rings are all reused, whatever
//! sequence of components and domains the thread serves.
//!
//! Scratch contents never influence results — every buffer is fully
//! re-initialized (sized, re-seeded, or frontier-reset) before use, so a
//! pooled run is bit-identical to one on freshly allocated buffers. For the
//! same reason a *re-entrant* checkout (an estimation callback calling back
//! into an estimator on the same thread) is handled by
//! handing the inner call a fresh temporary scratch instead of deadlocking
//! or panicking.

use std::cell::RefCell;

use crate::batch::{LaneBfs, WorldBatch};

/// One thread's reusable estimation working set, at the crate's
/// [`LANE_WORDS`](crate::batch::LANE_WORDS) width.
#[derive(Debug)]
pub struct SamplingScratch {
    /// Lane-block batch (edge masks + per-lane RNG states).
    pub batch: WorldBatch,
    /// Lane BFS state (reached/pending blocks, worklist ring, touched list).
    pub bfs: LaneBfs,
}

impl SamplingScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        SamplingScratch {
            batch: WorldBatch::new(0),
            bfs: LaneBfs::new(0),
        }
    }
}

impl Default for SamplingScratch {
    fn default() -> Self {
        SamplingScratch::new()
    }
}

thread_local! {
    static THREAD_SCRATCH: RefCell<SamplingScratch> = RefCell::new(SamplingScratch::new());
}

/// Runs `f` against the calling thread's warm [`SamplingScratch`].
///
/// The scratch persists for the life of the thread — on a
/// [`WorkerPool`](crate::pool::WorkerPool) worker that means for the life
/// of the process — so arenas stay hot across estimations, jobs, sessions
/// and queries. If the thread is already inside a `with_thread_scratch`
/// call (an estimator callback re-entering an estimator), the inner call
/// receives a fresh temporary scratch: correct, allocating, and impossible
/// to deadlock.
pub fn with_thread_scratch<R>(f: impl FnOnce(&mut SamplingScratch) -> R) -> R {
    THREAD_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut SamplingScratch::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_buffers_grow_and_are_reusable() {
        let mut s = SamplingScratch::new();
        s.bfs.prepare(10);
        assert_eq!(s.bfs.reached().len(), 10);
        s.bfs.prepare(4);
        assert_eq!(s.bfs.reached().len(), 4);
    }

    #[test]
    fn thread_scratch_is_warm_across_checkouts() {
        with_thread_scratch(|s| s.bfs.prepare(16));
        let len = with_thread_scratch(|s| s.bfs.reached().len());
        assert_eq!(len, 16, "same thread sees the same buffers");
    }

    #[test]
    fn reentrant_checkout_gets_a_fresh_scratch() {
        with_thread_scratch(|outer| {
            outer.bfs.prepare(8);
            let inner_len = with_thread_scratch(|inner| {
                inner.bfs.prepare(3);
                inner.bfs.reached().len()
            });
            assert_eq!(inner_len, 3);
            assert_eq!(outer.bfs.reached().len(), 8, "outer scratch untouched");
        });
    }
}
