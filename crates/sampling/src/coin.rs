//! The probability → integer-threshold boundary of the sampling engine.
//!
//! This module is the **only** place in the sampling crate where an edge
//! probability is still an `f64`: [`EdgeCoin::classify`] converts it, once
//! per edge, into the exact integer threshold that every kernel flips
//! against. Everything downstream — the scalar sampler through
//! [`EdgeCoin::flip_one`], the block kernel's structure-of-arrays loop —
//! makes the same pure-integer
//! `next_u64() >> 11 < t` comparison, which is what lint rule **L5**
//! (no float comparison/arithmetic inside the bit-parallel kernels in
//! `batch.rs`) protects: float math happens here, at ingestion, never in
//! the per-world loops.

use crate::batch::EdgeCoin;
use crate::rng::FlowRng;

/// `2^53`, the resolution of the scalar sampler's `f64` coin.
const TWO_POW_53: f64 = 9_007_199_254_740_992.0;

impl EdgeCoin {
    /// Classifies a probability into its coin.
    ///
    /// The scalar sampler tests `rng.gen::<f64>() < p`, where the vendored
    /// `rand` computes `gen::<f64>()` as `(next_u64() >> 11) · 2⁻⁵³`. With
    /// `x = next_u64() >> 11` (an integer below `2⁵³`, hence exact in `f64`)
    /// that test is the real-number comparison `x < p·2⁵³`, which for
    /// integer `x` is exactly `x < ceil(p·2⁵³)` — and `p·2⁵³` itself is
    /// exact because multiplying by a power of two only shifts the exponent.
    /// [`EdgeCoin::Threshold`] therefore reproduces the scalar coin
    /// bit-for-bit with a pure integer compare.
    pub fn classify(p: f64) -> EdgeCoin {
        if p >= 1.0 {
            EdgeCoin::AlwaysOn
        } else if p <= 0.0 {
            EdgeCoin::AlwaysOff
        } else {
            EdgeCoin::Threshold((p * TWO_POW_53).ceil() as u64)
        }
    }
}

/// Flips the Bernoulli(`p`) coin for one edge against a scalar RNG stream —
/// the shared helper behind every scalar sampling loop in this crate.
///
/// Bit-identical to the historical `rng.gen::<f64>() < p` (see
/// [`EdgeCoin::classify`]) with the draw-free fast paths for `p >= 1` and
/// `p <= 0`.
#[inline]
pub fn scalar_coin(p: f64, rng: &mut FlowRng) -> bool {
    EdgeCoin::classify(p).flip_one(rng)
}
