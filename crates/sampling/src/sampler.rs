//! Unbiased sampling of possible worlds.
//!
//! A possible world of the domain `D ⊆ E` is drawn by flipping an independent
//! Bernoulli coin per edge (Eq. 1). The resulting sample set is unbiased in
//! the sense of Lemma 1, which is what makes every downstream estimator
//! unbiased.

use flowmax_graph::{EdgeSubset, ProbabilisticGraph};

use crate::coin::scalar_coin;
use crate::rng::FlowRng;

/// Samples one possible world of `domain` into `out` (cleared first).
///
/// Each edge `e ∈ domain` survives independently with probability `P(e)`.
///
/// # RNG stream contract
///
/// Edges are visited in increasing edge-id order, and for each edge:
///
/// * `P(e) >= 1` — the edge always exists; **no draw is consumed**;
/// * `P(e) <= 0` — the edge never exists; **no draw is consumed** (only
///   reachable via `Probability::new_unchecked` in release builds, since
///   the validated constructor forbids zero);
/// * otherwise exactly **one** `u64` draw is consumed.
///
/// Both fast paths are symmetric, so inserting or removing a deterministic
/// edge never perturbs the coins of later edges under a fixed seed.
/// (Historically the `p <= 0` path still burned a draw, shifting the entire
/// downstream stream.) The bit-parallel batch sampler
/// ([`crate::batch::WorldBatch`]) reproduces this contract bit-for-bit per
/// lane, which is what lets tests compare the two world-for-world.
pub fn sample_world(
    graph: &ProbabilisticGraph,
    domain: &EdgeSubset,
    rng: &mut FlowRng,
    out: &mut EdgeSubset,
) {
    out.clear();
    for e in domain.iter() {
        if scalar_coin(graph.probability(e).value(), rng) {
            out.insert(e);
        }
    }
}

/// Draws `count` worlds, invoking `visit` with each. The world buffer is
/// reused across iterations, so `visit` must not retain it.
pub fn sample_worlds<F>(
    graph: &ProbabilisticGraph,
    domain: &EdgeSubset,
    count: u32,
    rng: &mut FlowRng,
    mut visit: F,
) where
    F: FnMut(&EdgeSubset),
{
    let mut world = EdgeSubset::new(graph.edge_count());
    for _ in 0..count {
        sample_world(graph, domain, rng, &mut world);
        visit(&world);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedSequence;
    use flowmax_graph::{EdgeId, GraphBuilder, Probability, VertexId, Weight};

    fn graph_with_probs(ps: &[f64]) -> ProbabilisticGraph {
        let mut b = GraphBuilder::new();
        b.add_vertices(ps.len() + 1, Weight::ONE);
        for (i, &p) in ps.iter().enumerate() {
            b.add_edge(
                VertexId(i as u32),
                VertexId(i as u32 + 1),
                Probability::new(p).unwrap(),
            )
            .unwrap();
        }
        b.build()
    }

    #[test]
    fn certain_edges_always_survive() {
        let g = graph_with_probs(&[1.0, 1.0]);
        let domain = EdgeSubset::full(&g);
        let mut rng = SeedSequence::new(1).rng(0);
        let mut world = EdgeSubset::for_graph(&g);
        for _ in 0..50 {
            sample_world(&g, &domain, &mut rng, &mut world);
            assert_eq!(world.len(), 2);
        }
    }

    #[test]
    fn survival_frequency_matches_probability() {
        let g = graph_with_probs(&[0.3]);
        let domain = EdgeSubset::full(&g);
        let mut rng = SeedSequence::new(7).rng(0);
        let n = 20_000;
        let mut hits = 0;
        sample_worlds(&g, &domain, n, &mut rng, |w| {
            if w.contains(EdgeId(0)) {
                hits += 1;
            }
        });
        let freq = hits as f64 / n as f64;
        assert!(
            (freq - 0.3).abs() < 0.02,
            "frequency {freq} too far from 0.3"
        );
    }

    #[test]
    fn edges_outside_domain_never_sampled() {
        let g = graph_with_probs(&[0.9, 0.9]);
        let domain = EdgeSubset::from_edges(g.edge_count(), [EdgeId(0)]);
        let mut rng = SeedSequence::new(3).rng(0);
        let mut world = EdgeSubset::for_graph(&g);
        for _ in 0..50 {
            sample_world(&g, &domain, &mut rng, &mut world);
            assert!(!world.contains(EdgeId(1)));
        }
    }

    #[test]
    fn deterministic_edges_do_not_perturb_the_stream() {
        // g1: two fractional edges. g2: the same two fractional edges with a
        // certain edge inserted *before* them. Under the stream contract the
        // certain edge consumes no draw, so the fractional coins coincide.
        let g1 = graph_with_probs(&[0.5, 0.5]);
        let g2 = graph_with_probs(&[1.0, 0.5, 0.5]);
        let seq = SeedSequence::new(13);
        let (mut r1, mut r2) = (seq.rng(0), seq.rng(0));
        let d1 = EdgeSubset::full(&g1);
        let d2 = EdgeSubset::full(&g2);
        let mut w1 = EdgeSubset::for_graph(&g1);
        let mut w2 = EdgeSubset::for_graph(&g2);
        for _ in 0..200 {
            sample_world(&g1, &d1, &mut r1, &mut w1);
            sample_world(&g2, &d2, &mut r2, &mut w2);
            assert!(w2.contains(EdgeId(0)), "certain edge always survives");
            assert_eq!(w1.contains(EdgeId(0)), w2.contains(EdgeId(1)));
            assert_eq!(w1.contains(EdgeId(1)), w2.contains(EdgeId(2)));
        }
    }

    #[test]
    fn sampling_is_reproducible() {
        let g = graph_with_probs(&[0.5, 0.5, 0.5]);
        let domain = EdgeSubset::full(&g);
        let seq = SeedSequence::new(11);
        let run = |label| {
            let mut rng = seq.rng(label);
            let mut sizes = Vec::new();
            sample_worlds(&g, &domain, 20, &mut rng, |w| sizes.push(w.len()));
            sizes
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "different stream labels should diverge");
    }

    #[test]
    fn pairwise_independence_spot_check() {
        // Joint frequency of two p=0.5 edges should be ≈0.25.
        let g = graph_with_probs(&[0.5, 0.5]);
        let domain = EdgeSubset::full(&g);
        let mut rng = SeedSequence::new(23).rng(0);
        let n = 20_000;
        let mut both = 0;
        sample_worlds(&g, &domain, n, &mut rng, |w| {
            if w.contains(EdgeId(0)) && w.contains(EdgeId(1)) {
                both += 1;
            }
        });
        let freq = both as f64 / n as f64;
        assert!(
            (freq - 0.25).abs() < 0.02,
            "joint frequency {freq} too far from 0.25"
        );
    }
}
