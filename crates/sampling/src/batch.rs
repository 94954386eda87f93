//! Bit-parallel possible-world sampling: 64 worlds per lane word, packed
//! into `[u64; LANE_WORDS]` lane *blocks* that resolve 512 worlds per
//! traversal.
//!
//! The scalar pipeline ([`crate::sampler::sample_world`] + a BFS per world)
//! pays one full traversal per sampled world. This module packs the
//! existence of each edge across **64 simultaneously sampled worlds** into
//! one `u64` lane word ([`WorldBatch`]) and resolves reachability for all
//! worlds of a block with a single lane-parallel BFS ([`LaneBfs`]), so the
//! traversal — the dominant cost of every Monte-Carlo estimator in
//! `flowmax` — is paid once per block instead of once per world.
//!
//! # Lane width
//!
//! A block holds [`LANE_WORDS`] lane words (`64·LANE_WORDS` worlds) in
//! `[u64; LANE_WORDS]` arrays the autovectorizer can chew on. The width is
//! a crate constant, not a setting: every width draws the same worlds, so
//! it only decides how many of them one BFS pass resolves. [`WorldBatch`]
//! and [`LaneBfs`] keep their const parameter `W` (defaulting to
//! [`LANE_WORDS`]) so the kernel can be named at an explicit width, but the
//! estimators instantiate it only at [`LANE_WORDS`]. The scalar sampler and
//! [`EdgeCoin::flip_one`] are the reference the kernel is tested against,
//! world for world.
//!
//! # Lane/seed contract
//!
//! Lane `w` of a batch sampled with `(seq, first_label)` draws its coins
//! from `seq.rng(first_label + w)` — the *same* child stream a scalar
//! [`crate::sampler::sample_world`] call would use. The per-edge coin is an
//! integer-threshold comparison that is **bit-identical** to the scalar
//! `rng.gen::<f64>() < p` test (see [`EdgeCoin`]), so lane `w` of a
//! [`WorldBatch`] *is* the scalar world of child stream `first_label + w`,
//! not merely statistically equivalent to it. Because each world is a pure
//! function of its own label, *grouping* worlds into blocks never changes
//! any world's coins. Estimators batch samples in groups of [`LANES`] with
//! `first_label = batch_index * LANES` (a block covers `LANE_WORDS`
//! consecutive such batches), which makes every batch a pure function of
//! `(master seed, batch index)` — the property the multi-threaded
//! [`crate::parallel::ParallelEstimator`] relies on to be invariant under
//! the thread count.

use flowmax_graph::{EdgeId, EdgeSubset, ProbabilisticGraph, VertexId};

use crate::rng::{FlowRng, SeedSequence};
use rand::RngCore;

/// Number of possible worlds packed into one lane word — the batching and
/// seed-labelling quantum of every estimator (a block covers
/// [`LANE_WORDS`] such batches).
pub const LANES: u32 = 64;

/// Lane words per block: every estimator resolves `64 · LANE_WORDS` = 512
/// worlds per BFS pass.
pub const LANE_WORDS: usize = 8;

// The probability → integer-threshold conversion (`EdgeCoin::classify`,
// `scalar_coin`, and the 2^53 resolution constant) lives in
// `crate::coin`: this file is the bit-parallel kernel and must stay free
// of float comparison/arithmetic (lint rule L5). Re-exported here because
// the coin is part of the batch sampling vocabulary.
pub use crate::coin::scalar_coin;

/// Worlds per `[u64; W]` lane block: `64·W`.
#[inline]
pub const fn block_worlds<const W: usize>() -> u32 {
    LANES * W as u32
}

/// Number of active lanes in batch `batch` of a `samples`-world run: full
/// batches hold [`LANES`] worlds, the final batch holds the remainder, and
/// a batch at or beyond the budget boundary holds 0 — callers that chunk
/// the budget into fixed-size groups (e.g. the [`LANE_WORDS`] batches of a
/// block) can probe past the end without special-casing the boundary.
pub fn lanes_in_batch(samples: u32, batch: usize) -> u32 {
    let drawn = (batch as u64) * LANES as u64;
    (samples as u64).saturating_sub(drawn).min(LANES as u64) as u32
}

/// The lane mask with the low `lanes` bits set (`0` gives the empty mask,
/// the state of a freshly constructed, not-yet-sampled [`WorldBatch`]).
#[inline]
pub fn lane_mask(lanes: u32) -> u64 {
    debug_assert!(lanes <= LANES, "lanes out of range");
    if lanes >= 64 {
        !0
    } else {
        (1u64 << lanes) - 1
    }
}

/// The `[u64; W]` block mask with the low `lanes` bits set across words
/// (word `k` covers lanes `64k..64(k+1)`).
#[inline]
pub fn block_mask<const W: usize>(lanes: u32) -> [u64; W] {
    debug_assert!(lanes <= block_worlds::<W>(), "lanes out of range");
    let mut mask = [0u64; W];
    for (k, word) in mask.iter_mut().enumerate() {
        let base = (k as u32) * LANES;
        *word = lane_mask(lanes.saturating_sub(base).min(LANES));
    }
    mask
}

/// Population count of a lane block.
#[inline]
pub fn block_ones<const W: usize>(block: &[u64; W]) -> u32 {
    let mut ones = 0;
    for word in block {
        ones += word.count_ones();
    }
    ones
}

/// A per-edge coin, pre-classified so deterministic edges consume no
/// randomness (the RNG stream contract of [`crate::sampler::sample_world`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeCoin {
    /// `P(e) >= 1`: the edge exists in every world; no draw is consumed.
    AlwaysOn,
    /// `P(e) <= 0`: the edge exists in no world; no draw is consumed. (Only
    /// reachable through `Probability::new_unchecked` in release builds; the
    /// validated constructor forbids zero.)
    AlwaysOff,
    /// `0 < P(e) < 1`: one draw per world, success iff
    /// `next_u64() >> 11 < threshold`.
    Threshold(u64),
}

impl EdgeCoin {
    /// Flips this coin once against a single RNG stream. Deterministic
    /// coins consume no draw.
    ///
    /// This is **the** coin of the whole crate: the scalar sampler
    /// ([`crate::sampler::sample_world`] and friends) calls it, and the
    /// structure-of-arrays block flip makes the same `next_u64() >> 11 < t`
    /// comparison, so the engines cannot drift apart coin-wise.
    #[inline]
    pub fn flip_one(&self, rng: &mut FlowRng) -> bool {
        match *self {
            EdgeCoin::AlwaysOn => true,
            EdgeCoin::AlwaysOff => false,
            EdgeCoin::Threshold(t) => rng.next_u64() >> 11 < t,
        }
    }
}

/// The per-lane RNG states of a block, laid out structure-of-arrays:
/// four contiguous state vectors instead of `lanes` interleaved `[u64; 4]`
/// structs, so the branch-free xoshiro256++ step below autovectorizes
/// across lanes.
///
/// Lane `i` holds exactly the state of `seq.rng(first_label + i)` and is
/// stepped with the same recurrence as [`FlowRng::next_u64`], so its draw
/// stream is bit-identical to [`EdgeCoin::flip_one`] on that child stream
/// (pinned by the `soa_steps_match_flowrng` test).
#[derive(Debug, Clone, Default)]
struct SoaLaneRngs {
    s0: Vec<u64>,
    s1: Vec<u64>,
    s2: Vec<u64>,
    s3: Vec<u64>,
    /// Seeded (active) lanes; the vectors are padded with all-zero states
    /// to a whole number of 64-lane words so the hot loop always runs at
    /// a fixed trip count over `[u64; 64]` arrays.
    lanes: usize,
}

/// Edges per tile of the coin loop. Within a tile the word loop is
/// outer and the edge loop inner, so each 64-lane state word round-trips
/// through memory once per tile (not once per edge) while the tile's mask
/// slice stays L1-resident.
const TILE: usize = 128;

/// One xoshiro256++ step and threshold compare for all 64 lanes of one
/// word, over fixed-size state arrays. The fixed trip count, the absence
/// of loop-carried dependencies in the hot pass, and the array (not
/// slice) operands are what let LLVM lower this to packed integer SIMD;
/// the serial bit-pack fold runs over the tiny hits array after.
#[inline]
fn step_word(
    s0: &mut [u64; LANES as usize],
    s1: &mut [u64; LANES as usize],
    s2: &mut [u64; LANES as usize],
    s3: &mut [u64; LANES as usize],
    threshold: u64,
) -> u64 {
    let mut hits = [0u64; LANES as usize];
    for j in 0..LANES as usize {
        // The xoshiro256++ step of the vendored `FlowRng`, inlined
        // branch-free. All-zero padding states step to all-zero.
        let (a, b, c, d) = (s0[j], s1[j], s2[j], s3[j]);
        let x = a.wrapping_add(d).rotate_left(23).wrapping_add(a);
        let t = b << 17;
        let c = c ^ a;
        let d = d ^ b;
        let b = b ^ c;
        let a = a ^ d;
        let c = c ^ t;
        let d = d.rotate_left(45);
        s0[j] = a;
        s1[j] = b;
        s2[j] = c;
        s3[j] = d;
        hits[j] = u64::from(x >> 11 < threshold);
    }
    let mut mask = 0u64;
    for (j, hit) in hits.iter().enumerate() {
        mask |= hit << j;
    }
    mask
}

impl SoaLaneRngs {
    /// Re-seeds lane `i` from `seq.rng(first_label + i)` for `lanes` lanes,
    /// reusing the four state buffers. The tail is padded with all-zero
    /// states to a whole number of 64-lane words (xoshiro maps zero to
    /// zero, so padding lanes cost one vector op and their hits are
    /// masked off).
    fn reseed(&mut self, seq: &SeedSequence, first_label: u64, lanes: u32) {
        self.s0.clear();
        self.s1.clear();
        self.s2.clear();
        self.s3.clear();
        self.lanes = lanes as usize;
        for w in 0..lanes as u64 {
            let s = seq.rng(first_label + w).state();
            self.s0.push(s[0]);
            self.s1.push(s[1]);
            self.s2.push(s[2]);
            self.s3.push(s[3]);
        }
        let padded = (lanes as usize).div_ceil(LANES as usize) * LANES as usize;
        self.s0.resize(padded, 0);
        self.s1.resize(padded, 0);
        self.s2.resize(padded, 0);
        self.s3.resize(padded, 0);
    }

    /// Flips every threshold edge's coin for every lane, tiled: edges are
    /// walked in [`TILE`]-sized chunks, and within a tile the word loop is
    /// outer and the edge loop inner. Each 64-lane state word therefore
    /// round-trips through memory once per tile instead of once per edge,
    /// and the tile's mask slice stays cache-hot across all words. Lanes
    /// are independent child streams, so the interchange draws
    /// bit-identical coins: lane `i` still consumes exactly one draw per
    /// threshold edge, in edge order.
    ///
    /// `masks` must be zeroed for the edges in `edges`; hits are OR-ed in
    /// at lane `i` = bit `i % 64` of word `i / 64`.
    fn flip_all<const W: usize>(&mut self, edges: &[(u32, u64)], masks: &mut [[u64; W]]) {
        let lanes_per_word = LANES as usize;
        for tile in edges.chunks(TILE) {
            for base in (0..self.s0.len()).step_by(lanes_per_word) {
                if base >= self.lanes {
                    break;
                }
                let word = base / lanes_per_word;
                // A zero padding state draws x = 0, which any positive
                // threshold "hits" — mask the tail word down to its
                // seeded lanes.
                let live = lane_mask((self.lanes - base).min(lanes_per_word) as u32);
                let end = base + lanes_per_word;
                let s0: &mut [u64; LANES as usize] =
                    (&mut self.s0[base..end]).try_into().expect("padded word");
                let s1: &mut [u64; LANES as usize] =
                    (&mut self.s1[base..end]).try_into().expect("padded word");
                let s2: &mut [u64; LANES as usize] =
                    (&mut self.s2[base..end]).try_into().expect("padded word");
                let s3: &mut [u64; LANES as usize] =
                    (&mut self.s3[base..end]).try_into().expect("padded word");
                for &(idx, threshold) in tile {
                    let mask = step_word(&mut *s0, &mut *s1, &mut *s2, &mut *s3, threshold);
                    masks[idx as usize][word] |= mask & live;
                }
            }
        }
    }
}

/// Up to `64·W` possible worlds sampled together: bit `w % 64` of word
/// `w / 64` of `masks[e]` says whether edge `e` exists in world (lane) `w`.
///
/// Edges outside the sampled domain have an all-zero block, so a lane-BFS
/// over the batch automatically respects the domain restriction.
///
/// A batch is a reusable scratch arena: re-sampling via
/// [`WorldBatch::sample_into`] reuses the mask buffer and the per-lane RNG
/// states, so steady-state sampling performs no heap allocation per batch
/// (the edge capacity may even change between calls — buffers only grow).
#[derive(Debug, Clone)]
pub struct WorldBatch<const W: usize = LANE_WORDS> {
    /// Lane block per edge id (length = edge capacity of the graph/domain).
    masks: Vec<[u64; W]>,
    /// Number of active lanes (1..=64·W); bits at or above this are zero.
    lanes: u32,
    /// Structure-of-arrays RNG states, one child stream per active lane.
    soa_rngs: SoaLaneRngs,
    /// Scratch `(edge index, threshold)` list: the coin loop is lane-major,
    /// so threshold edges are collected once per batch and streamed once
    /// per lane group.
    threshold_edges: Vec<(u32, u64)>,
}

impl<const W: usize> WorldBatch<W> {
    /// An empty batch sized for `edge_capacity` edges (no active lanes).
    pub fn new(edge_capacity: usize) -> Self {
        WorldBatch {
            masks: vec![[0; W]; edge_capacity],
            lanes: 0,
            soa_rngs: SoaLaneRngs::default(),
            threshold_edges: Vec::new(),
        }
    }

    /// Samples `lanes` worlds of `domain`, lane `w` drawing its coins from
    /// `seq.rng(first_label + w)` (see the module docs for the contract).
    pub fn sample(
        graph: &ProbabilisticGraph,
        domain: &EdgeSubset,
        seq: &SeedSequence,
        first_label: u64,
        lanes: u32,
    ) -> Self {
        let mut batch = WorldBatch::new(graph.edge_count());
        batch.sample_into(graph, domain, seq, first_label, lanes);
        batch
    }

    /// Re-samples this batch in place (buffer-reusing form of
    /// [`WorldBatch::sample`]).
    pub fn sample_into(
        &mut self,
        graph: &ProbabilisticGraph,
        domain: &EdgeSubset,
        seq: &SeedSequence,
        first_label: u64,
        lanes: u32,
    ) {
        let probs = domain
            .iter()
            .map(|e| (e.index(), graph.probability(e).value()));
        self.sample_indexed_into(graph.edge_count(), probs, seq, first_label, lanes);
    }

    /// Core sampling loop over `(edge index, probability)` pairs; shared by
    /// the graph-level and component-local samplers.
    ///
    /// Certain and impossible edges are written directly; threshold edges
    /// are collected and flipped for every lane at once in
    /// structure-of-arrays form (see [`SoaLaneRngs`]), drawing the coins
    /// [`EdgeCoin::flip_one`] would draw on each lane's child stream.
    pub(crate) fn sample_indexed_into(
        &mut self,
        edge_capacity: usize,
        // flowmax-lint: allow(L5, probability ingestion boundary: the f64 is classified into an integer threshold by EdgeCoin::classify before any per-world loop runs)
        probs: impl Iterator<Item = (usize, f64)>,
        seq: &SeedSequence,
        first_label: u64,
        lanes: u32,
    ) {
        assert!(
            (1..=block_worlds::<W>()).contains(&lanes),
            "need 1..={} lanes at width {W}",
            block_worlds::<W>()
        );
        self.masks.clear();
        self.masks.resize(edge_capacity, [0; W]);
        self.lanes = lanes;
        self.soa_rngs.reseed(seq, first_label, lanes);
        let on = block_mask::<W>(lanes);
        self.threshold_edges.clear();
        for (idx, p) in probs {
            match EdgeCoin::classify(p) {
                EdgeCoin::AlwaysOn => self.masks[idx] = on,
                // The resize above already zeroed every block.
                EdgeCoin::AlwaysOff => {}
                EdgeCoin::Threshold(t) => {
                    let idx = u32::try_from(idx).expect("edge index fits in u32");
                    self.threshold_edges.push((idx, t));
                }
            }
        }
        self.soa_rngs
            .flip_all(&self.threshold_edges, &mut self.masks);
    }

    /// Number of active lanes.
    pub fn lanes(&self) -> u32 {
        self.lanes
    }

    /// The block with one bit set per active lane.
    pub fn active_mask(&self) -> [u64; W] {
        block_mask::<W>(self.lanes)
    }

    /// Lane block of edge `e`.
    #[inline]
    pub fn edge_mask(&self, e: EdgeId) -> [u64; W] {
        self.masks[e.index()]
    }

    /// All lane blocks, indexed by edge id.
    pub fn masks(&self) -> &[[u64; W]] {
        &self.masks
    }

    /// Extracts one lane as a scalar world into `out` (cleared first).
    pub fn world(&self, lane: u32, out: &mut EdgeSubset) {
        assert!(lane < self.lanes, "lane {lane} beyond {} lanes", self.lanes);
        let (word, bit) = ((lane / LANES) as usize, lane % LANES);
        out.clear();
        for (i, mask) in self.masks.iter().enumerate() {
            if mask[word] >> bit & 1 == 1 {
                out.insert(EdgeId(i as u32));
            }
        }
    }
}

/// Lane-parallel BFS: one traversal resolves reachability in all worlds of
/// a [`WorldBatch`] at once.
///
/// `reached[v]` is a lane block — bit `w % 64` of word `w / 64` says
/// whether `v` is reachable from the source in world `w`. The traversal is
/// a pure frontier worklist: it propagates *newly arrived* lane bits only,
/// so each vertex is reprocessed just when some world discovers it (not
/// once per world), neighbours whose lane block has already converged to
/// the full active mask are skipped outright in late rounds, and between
/// runs only the vertices the previous run actually touched are reset — no
/// dense full-vertex sweep anywhere. Every mask operation covers `W` words,
/// so the frontier bookkeeping is amortized over `64·W` worlds per pass.
#[derive(Debug, Clone)]
pub struct LaneBfs<const W: usize = LANE_WORDS> {
    reached: Vec<[u64; W]>,
    pending: Vec<[u64; W]>,
    in_queue: Vec<bool>,
    queue: std::collections::VecDeque<u32>,
    /// Vertices whose `reached` block the latest run set (the only entries
    /// that need zeroing before the next run).
    touched: Vec<u32>,
}

impl<const W: usize> LaneBfs<W> {
    /// Creates scratch space for graphs with `vertex_count` vertices.
    pub fn new(vertex_count: usize) -> Self {
        LaneBfs {
            reached: vec![[0; W]; vertex_count],
            pending: vec![[0; W]; vertex_count],
            in_queue: vec![false; vertex_count],
            queue: std::collections::VecDeque::new(),
            touched: Vec::new(),
        }
    }

    /// Re-targets this scratch at a graph with `vertex_count` vertices,
    /// reusing the buffers when the size already matches (the steady-state
    /// case for a pooled scratch that estimates one component repeatedly).
    pub fn prepare(&mut self, vertex_count: usize) {
        if self.reached.len() == vertex_count {
            return;
        }
        self.reached.clear();
        self.reached.resize(vertex_count, [0; W]);
        self.pending.clear();
        self.pending.resize(vertex_count, [0; W]);
        self.in_queue.clear();
        self.in_queue.resize(vertex_count, false);
        self.queue.clear();
        self.touched.clear();
    }

    /// Lane blocks of the latest run, indexed by vertex.
    pub fn reached(&self) -> &[[u64; W]] {
        &self.reached
    }

    /// Lane block of vertex index `v`.
    #[inline]
    pub fn reached_mask(&self, v: usize) -> [u64; W] {
        self.reached[v]
    }

    /// Runs the lane BFS from `source` with initial lane set `init`
    /// (typically the batch's [`WorldBatch::active_mask`]).
    ///
    /// `edge_masks[e]` is the lane block of edge `e` and `neighbors(u)`
    /// must yield `(neighbor vertex index, edge index)` pairs; a world's
    /// edge passes iff its lane bit is set, so edges absent from the
    /// sampled domain (all-zero blocks) are never crossed.
    pub fn run<F, I>(
        &mut self,
        source: usize,
        init: [u64; W],
        edge_masks: &[[u64; W]],
        neighbors: F,
    ) where
        F: Fn(usize) -> I,
        I: Iterator<Item = (usize, usize)>,
    {
        // Frontier-local reset: only the previous run's touched vertices
        // hold non-zero lane blocks (`pending`/`in_queue`/`queue` are
        // self-cleaning — the worklist drains them before returning).
        for &v in &self.touched {
            self.reached[v as usize] = [0; W];
        }
        self.touched.clear();
        self.reached[source] = init;
        self.pending[source] = init;
        self.in_queue[source] = true;
        self.queue.push_back(source as u32);
        self.touched.push(source as u32);
        while let Some(u) = self.queue.pop_front() {
            let u = u as usize;
            self.in_queue[u] = false;
            let delta = self.pending[u];
            self.pending[u] = [0; W];
            if delta == [0; W] {
                continue;
            }
            for (v, e) in neighbors(u) {
                // A converged vertex (every active lane reached) can gain
                // no new bits; skip it before touching the edge mask.
                let seen = self.reached[v];
                if seen == init {
                    continue;
                }
                let mask = &edge_masks[e];
                let mut new = [0u64; W];
                let mut any = 0u64;
                let mut old = 0u64;
                for k in 0..W {
                    new[k] = delta[k] & mask[k] & !seen[k];
                    any |= new[k];
                    old |= seen[k];
                }
                if any != 0 {
                    if old == 0 {
                        self.touched.push(v as u32);
                    }
                    let (reached, pending) = (&mut self.reached[v], &mut self.pending[v]);
                    for k in 0..W {
                        reached[k] = seen[k] | new[k];
                        pending[k] |= new[k];
                    }
                    if !self.in_queue[v] {
                        self.in_queue[v] = true;
                        self.queue.push_back(v as u32);
                    }
                }
            }
        }
    }

    /// Convenience: lane BFS over a graph-level [`WorldBatch`] from `query`.
    pub fn run_graph(
        &mut self,
        graph: &ProbabilisticGraph,
        query: VertexId,
        batch: &WorldBatch<W>,
    ) {
        self.run(query.index(), batch.active_mask(), batch.masks(), |u| {
            graph
                .neighbors(VertexId::from_index(u))
                .map(|(v, e)| (v.index(), e.index()))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::sample_world;
    use flowmax_graph::{Bfs, GraphBuilder, Probability, Weight};
    use rand::Rng;

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    /// Q(0)-1-2 triangle (p=0.5 each) with a certain pendant edge 2-3.
    fn mixed_graph() -> ProbabilisticGraph {
        let mut b = GraphBuilder::new();
        b.add_vertices(4, Weight::ONE);
        b.add_edge(VertexId(0), VertexId(1), p(0.5)).unwrap();
        b.add_edge(VertexId(1), VertexId(2), p(0.5)).unwrap();
        b.add_edge(VertexId(0), VertexId(2), p(0.5)).unwrap();
        b.add_edge(VertexId(2), VertexId(3), Probability::ONE)
            .unwrap();
        b.build()
    }

    #[test]
    fn threshold_coin_is_bit_identical_to_scalar_coin() {
        // The same underlying u64 stream must decide identically whether it
        // was consumed as `gen::<f64>() < p` or via the integer threshold.
        let seq = SeedSequence::new(99);
        for (i, pv) in [0.001, 0.25, 0.5, 0.9999, 1e-12, 1.0 - 1e-12]
            .into_iter()
            .enumerate()
        {
            let EdgeCoin::Threshold(t) = EdgeCoin::classify(pv) else {
                panic!("fractional probability must classify as Threshold");
            };
            let mut a = seq.rng(i as u64);
            let mut b = seq.rng(i as u64);
            for _ in 0..4000 {
                let scalar = a.gen::<f64>() < pv;
                let batched = b.next_u64() >> 11 < t;
                assert_eq!(scalar, batched, "p={pv}");
            }
        }
    }

    #[test]
    fn soa_steps_match_flowrng() {
        // The structure-of-arrays stepper duplicates the vendored
        // xoshiro256++ recurrence; this pins the two against each other so
        // they cannot drift. 130 lanes (two full words and a partial,
        // padded one), 2000 draws streamed through the lane-major loop in
        // one call.
        let seq = SeedSequence::new(5150);
        let coin = EdgeCoin::classify(0.37);
        let EdgeCoin::Threshold(t) = coin else {
            panic!("fractional probability must classify as Threshold");
        };
        let lanes = 130;
        let mut soa = SoaLaneRngs::default();
        soa.reseed(&seq, 7, lanes);
        let edges: Vec<(u32, u64)> = (0..2000).map(|i| (i, t)).collect();
        let mut blocks = vec![[0u64; LANE_WORDS]; edges.len()];
        soa.flip_all(&edges, &mut blocks);
        let mut rngs: Vec<FlowRng> = (0..lanes as u64).map(|w| seq.rng(7 + w)).collect();
        for (round, block) in blocks.iter().enumerate() {
            let mut expected = [0u64; LANE_WORDS];
            for (w, rng) in rngs.iter_mut().enumerate() {
                expected[w / 64] |= u64::from(coin.flip_one(rng)) << (w % 64);
            }
            assert_eq!(*block, expected, "round {round}");
        }
    }

    #[test]
    fn classify_fast_paths() {
        assert_eq!(EdgeCoin::classify(1.0), EdgeCoin::AlwaysOn);
        assert_eq!(EdgeCoin::classify(1.5), EdgeCoin::AlwaysOn);
        assert_eq!(EdgeCoin::classify(0.0), EdgeCoin::AlwaysOff);
        assert_eq!(EdgeCoin::classify(-0.5), EdgeCoin::AlwaysOff);
        // Deterministic coins never touch the RNG.
        let mut rng = SeedSequence::new(1).rng(0);
        let before = rng.clone();
        assert!(EdgeCoin::AlwaysOn.flip_one(&mut rng));
        assert!(!EdgeCoin::AlwaysOff.flip_one(&mut rng));
        assert!(rng == before, "fast paths must not consume draws");
    }

    #[test]
    fn batch_lanes_match_scalar_worlds() {
        let g = mixed_graph();
        let domain = EdgeSubset::full(&g);
        let seq = SeedSequence::new(7);
        let worlds = block_worlds::<LANE_WORDS>();
        let batch = WorldBatch::<LANE_WORDS>::sample(&g, &domain, &seq, 0, worlds);
        let mut scalar = EdgeSubset::for_graph(&g);
        let mut extracted = EdgeSubset::for_graph(&g);
        for lane in 0..worlds {
            let mut rng = seq.rng(lane as u64);
            sample_world(&g, &domain, &mut rng, &mut scalar);
            batch.world(lane, &mut extracted);
            assert_eq!(scalar, extracted, "lane {lane}");
        }
    }

    #[test]
    fn blocks_match_flip_one_word_for_word() {
        // The lane/seed contract at a non-zero first label: lane `w` of a
        // block is `flip_one` over child stream `first_label + w`, one draw
        // per uncertain edge in edge order, across every word of the block.
        let g = mixed_graph();
        let domain = EdgeSubset::full(&g);
        let seq = SeedSequence::new(314);
        let first_label = 128;
        let worlds = block_worlds::<LANE_WORDS>();
        let block = WorldBatch::<LANE_WORDS>::sample(&g, &domain, &seq, first_label, worlds);
        for lane in 0..worlds {
            let (word, bit) = ((lane / LANES) as usize, lane % LANES);
            let mut rng = seq.rng(first_label + lane as u64);
            for e in g.edge_ids() {
                let coin = EdgeCoin::classify(g.probability(e).value());
                assert_eq!(
                    block.edge_mask(e)[word] >> bit & 1 == 1,
                    coin.flip_one(&mut rng),
                    "lane {lane}, edge {e}"
                );
            }
        }
    }

    #[test]
    fn partial_batches_zero_inactive_lanes() {
        let g = mixed_graph();
        let domain = EdgeSubset::full(&g);
        let seq = SeedSequence::new(3);
        for lanes in [1, 5, 64, 130, 300] {
            let batch = WorldBatch::<LANE_WORDS>::sample(&g, &domain, &seq, 128, lanes);
            assert_eq!(batch.lanes(), lanes);
            let active = batch.active_mask();
            assert_eq!(active, block_mask::<LANE_WORDS>(lanes));
            for e in g.edge_ids() {
                let mask = batch.edge_mask(e);
                for k in 0..LANE_WORDS {
                    assert_eq!(
                        mask[k] & !active[k],
                        0,
                        "{lanes} lanes: bits above the active lanes must stay zero"
                    );
                }
            }
            // The certain edge exists in every active lane.
            assert_eq!(batch.edge_mask(EdgeId(3)), active);
        }
    }

    #[test]
    fn domain_restriction_zeroes_outside_edges() {
        let g = mixed_graph();
        let domain = EdgeSubset::from_edges(g.edge_count(), [EdgeId(0), EdgeId(3)]);
        let worlds = block_worlds::<LANE_WORDS>();
        let batch = WorldBatch::<LANE_WORDS>::sample(&g, &domain, &SeedSequence::new(5), 0, worlds);
        assert_eq!(batch.edge_mask(EdgeId(1)), [0; LANE_WORDS]);
        assert_eq!(batch.edge_mask(EdgeId(2)), [0; LANE_WORDS]);
        assert_eq!(batch.edge_mask(EdgeId(3)), [!0; LANE_WORDS]);
    }

    #[test]
    fn lane_bfs_matches_scalar_bfs_per_lane() {
        let g = mixed_graph();
        let domain = EdgeSubset::full(&g);
        let seq = SeedSequence::new(42);
        let worlds = block_worlds::<LANE_WORDS>();
        let batch = WorldBatch::<LANE_WORDS>::sample(&g, &domain, &seq, 0, worlds);
        let mut lane_bfs = LaneBfs::<LANE_WORDS>::new(g.vertex_count());
        lane_bfs.run_graph(&g, VertexId(0), &batch);
        let mut world = EdgeSubset::for_graph(&g);
        let mut bfs = Bfs::new(g.vertex_count());
        for lane in 0..worlds {
            batch.world(lane, &mut world);
            bfs.reachable(&g, &world, VertexId(0));
            let (word, bit) = ((lane / LANES) as usize, lane % LANES);
            for v in g.vertices() {
                assert_eq!(
                    bfs.was_visited(v),
                    lane_bfs.reached_mask(v.index())[word] >> bit & 1 == 1,
                    "lane {lane}, vertex {v}"
                );
            }
        }
    }

    #[test]
    fn lane_bfs_survival_frequency_is_sane() {
        // Pr[1 reaches 0] in the triangle = 0.625 (direct or two-hop).
        let g = mixed_graph();
        let domain = EdgeSubset::full(&g);
        let seq = SeedSequence::new(11);
        let worlds = block_worlds::<LANE_WORDS>();
        let mut batch = WorldBatch::<LANE_WORDS>::new(g.edge_count());
        let mut bfs = LaneBfs::new(g.vertex_count());
        let mut hits = 0u32;
        let blocks = 40usize;
        for b in 0..blocks {
            batch.sample_into(&g, &domain, &seq, b as u64 * worlds as u64, worlds);
            bfs.run_graph(&g, VertexId(0), &batch);
            hits += block_ones(&bfs.reached_mask(1));
        }
        let freq = hits as f64 / (blocks as f64 * worlds as f64);
        assert!((freq - 0.625).abs() < 0.02, "frequency {freq}");
    }

    #[test]
    fn lanes_in_batch_splits_the_budget() {
        assert_eq!(lanes_in_batch(64, 0), 64);
        assert_eq!(lanes_in_batch(65, 1), 1);
        assert_eq!(lanes_in_batch(1000, 15), 40);
        assert_eq!(lanes_in_batch(1, 0), 1);
        assert_eq!(lane_mask(64), !0);
        assert_eq!(lane_mask(1), 1);
    }

    #[test]
    fn lanes_in_batch_is_zero_at_and_past_the_boundary() {
        // A caller landing exactly on the budget boundary — e.g. a block
        // probing `LANE_WORDS` consecutive batches of which only some exist
        // — gets 0 lanes instead of a panic, at every multiple-of-64 budget.
        assert_eq!(lanes_in_batch(64, 1), 0);
        assert_eq!(lanes_in_batch(128, 2), 0);
        assert_eq!(lanes_in_batch(128, 3), 0);
        assert_eq!(lanes_in_batch(1000, 16), 0);
        assert_eq!(lanes_in_batch(1000, 1_000_000), 0);
        // A one-block budget ends exactly on the block boundary.
        let worlds = block_worlds::<LANE_WORDS>();
        assert_eq!(lanes_in_batch(worlds, LANE_WORDS), 0);
        for b in 0..LANE_WORDS {
            assert_eq!(lanes_in_batch(worlds, b), 64);
        }
    }

    #[test]
    fn block_masks_cover_partial_words() {
        assert_eq!(block_mask::<LANE_WORDS>(5), [0b11111, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(block_mask::<LANE_WORDS>(64), [!0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(
            block_mask::<LANE_WORDS>(70),
            [!0, 0b111111, 0, 0, 0, 0, 0, 0]
        );
        assert_eq!(block_mask::<LANE_WORDS>(512), [!0; LANE_WORDS]);
        assert_eq!(block_mask::<LANE_WORDS>(0), [0; LANE_WORDS]);
        assert_eq!(block_ones(&block_mask::<LANE_WORDS>(300)), 300);
        assert_eq!(block_worlds::<LANE_WORDS>(), 512);
    }
}
