//! Deterministic random-number management.
//!
//! Every stochastic experiment in `flowmax` must be reproducible from a
//! single `u64` master seed: workload generation, world sampling during edge
//! selection, and final evaluation each derive *independent* streams via
//! [`SeedSequence`], so adding samples in one phase never perturbs another.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The RNG used throughout `flowmax` hot paths.
///
/// `SmallRng` (xoshiro-family) is the right trade-off here: non-cryptographic
/// but fast, and every estimator draws millions of Bernoulli variables.
pub type FlowRng = SmallRng;

/// Derives independent child seeds from a master seed.
///
/// Uses the SplitMix64 finalizer, the standard way to expand one seed into a
/// family of decorrelated streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSequence {
    master: u64,
}

impl SeedSequence {
    /// Creates a sequence from a master seed.
    pub fn new(master: u64) -> Self {
        SeedSequence { master }
    }

    /// The master seed.
    pub fn master(&self) -> u64 {
        self.master
    }

    /// Deterministically derives the child seed for a labelled stream.
    pub fn child_seed(&self, label: u64) -> u64 {
        splitmix64(self.master ^ splitmix64(label.wrapping_add(0x9E37_79B9_7F4A_7C15)))
    }

    /// Creates an RNG for a labelled stream.
    pub fn rng(&self, label: u64) -> FlowRng {
        FlowRng::seed_from_u64(self.child_seed(label))
    }
}

/// The SplitMix64 stream increment (the 64-bit golden ratio).
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer: bijective 64-bit mixing with full avalanche.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(GOLDEN_GAMMA);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Word `k` (`0..4`) of the xoshiro256++ state that
/// `FlowRng::seed_from_u64(seed)` starts from: the `k + 1`-th output of the
/// SplitMix64 stream at `seed`. A pure function of `(seed, k)` with no
/// carried state, so a caller can expand many seeds at once, one state word
/// across all of them per pass (the lane-parallel reseed of the batch
/// sampler does).
#[inline]
pub(crate) fn seed_state_word(seed: u64, k: u64) -> u64 {
    splitmix64(seed.wrapping_add(k.wrapping_mul(GOLDEN_GAMMA)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn child_seeds_are_deterministic() {
        let s = SeedSequence::new(42);
        assert_eq!(s.child_seed(0), s.child_seed(0));
        assert_eq!(s.master(), 42);
    }

    #[test]
    fn child_seeds_differ_by_label() {
        let s = SeedSequence::new(42);
        assert_ne!(s.child_seed(0), s.child_seed(1));
        assert_ne!(s.child_seed(1), s.child_seed(2));
    }

    #[test]
    fn child_seeds_differ_by_master() {
        assert_ne!(
            SeedSequence::new(1).child_seed(7),
            SeedSequence::new(2).child_seed(7)
        );
    }

    #[test]
    fn rngs_produce_reproducible_streams() {
        let s = SeedSequence::new(7);
        let a: Vec<u32> = s
            .rng(3)
            .sample_iter(rand::distributions::Standard)
            .take(5)
            .collect();
        let b: Vec<u32> = s
            .rng(3)
            .sample_iter(rand::distributions::Standard)
            .take(5)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn seed_state_words_expand_like_seed_from_u64() {
        use rand::SeedableRng;
        let s = SeedSequence::new(0xF10E);
        for seed in [0, 1, u64::MAX, s.child_seed(0), s.child_seed(12_345)] {
            let words = [0, 1, 2, 3].map(|k| seed_state_word(seed, k));
            assert_eq!(words, FlowRng::seed_from_u64(seed).state(), "seed {seed}");
        }
    }

    #[test]
    fn splitmix_is_bijective_on_samples() {
        // Spot check: distinct inputs give distinct outputs.
        let outs: std::collections::HashSet<u64> = (0..1000).map(splitmix64).collect();
        assert_eq!(outs.len(), 1000);
    }
}
