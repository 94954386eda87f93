//! Confidence intervals for sampled reachability probabilities (§6.3).
//!
//! The paper's Definition 10 derives a two-sided `1 − α` interval for the
//! binomial success probability via the Central Limit Theorem. As printed,
//! the formula `p̂ ± z·sqrt(p̂(1−p̂))` omits the `1/√S` factor; we implement
//! the standard Wald interval `p̂ ± z·sqrt(p̂(1−p̂)/S)` (clamped to `[0,1]`)
//! and additionally offer the Wilson score interval, which remains sane at
//! `p̂ ∈ {0, 1}` where the Wald width collapses to zero.

use std::cell::Cell;

/// The paper applies CLT-based pruning only once at least this many samples
/// were drawn (§6.3, last sentence).
pub const MIN_SAMPLES_FOR_CLT: u32 = 30;

/// Default significance level (`α = 0.01`, Def. 10).
pub const DEFAULT_ALPHA: f64 = 0.01;

/// A two-sided confidence interval `[lower, upper] ⊆ [0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Lower bound.
    pub lower: f64,
    /// Upper bound.
    pub upper: f64,
}

impl ConfidenceInterval {
    /// The degenerate interval `[p, p]` of an exactly known probability.
    pub fn exact(p: f64) -> Self {
        ConfidenceInterval { lower: p, upper: p }
    }

    /// Interval width.
    pub fn width(&self) -> f64 {
        self.upper - self.lower
    }

    /// Returns `true` if the interval contains `p`.
    pub fn contains(&self, p: f64) -> bool {
        self.lower <= p && p <= self.upper
    }
}

/// Quantile function (inverse CDF) of the standard normal distribution.
///
/// Peter Acklam's rational approximation; absolute error below `1.15e-9`,
/// far finer than any sampling noise this crate deals with.
#[allow(clippy::excessive_precision)] // Acklam's published constants
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1), got {p}");

    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// The `z` value of Def. 10: the `100·(1 − α/2)` percentile of the standard
/// normal distribution.
///
/// Flow scoring asks for the same `α` once per vertex of every component
/// it scores, so each thread keeps the last `(α, z)` pair and recomputes
/// only when `α` changes; the quantile is a pure function of `α`, so the
/// cached value is bit-identical to a fresh one.
pub fn z_for_alpha(alpha: f64) -> f64 {
    assert!(
        alpha > 0.0 && alpha < 1.0,
        "alpha must be in (0,1), got {alpha}"
    );
    thread_local! {
        /// `(α bits, z)`; the initial α bits (0.0) never pass the assert.
        static LAST_Z: Cell<(u64, f64)> = const { Cell::new((0, 0.0)) };
    }
    LAST_Z.with(|last| {
        let (bits, z) = last.get();
        if bits == alpha.to_bits() {
            return z;
        }
        let z = normal_quantile(1.0 - 0.5 * alpha);
        last.set((alpha.to_bits(), z));
        z
    })
}

/// Wald (CLT) interval of Def. 10 with the corrected `1/√S` factor:
/// `p̂ ± z·sqrt(p̂(1−p̂)/S)`, clamped to `[0, 1]`.
pub fn wald_interval(successes: u32, samples: u32, alpha: f64) -> ConfidenceInterval {
    assert!(samples > 0, "need at least one sample");
    assert!(successes <= samples);
    let s = samples as f64;
    let p_hat = successes as f64 / s;
    let half = z_for_alpha(alpha) * (p_hat * (1.0 - p_hat) / s).sqrt();
    ConfidenceInterval {
        lower: (p_hat - half).max(0.0),
        upper: (p_hat + half).min(1.0),
    }
}

/// Wilson score interval: better coverage than Wald for extreme `p̂`,
/// in particular non-degenerate at `p̂ ∈ {0, 1}`.
pub fn wilson_interval(successes: u32, samples: u32, alpha: f64) -> ConfidenceInterval {
    assert!(samples > 0, "need at least one sample");
    assert!(successes <= samples);
    let n = samples as f64;
    let p_hat = successes as f64 / n;
    let z = z_for_alpha(alpha);
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let centre = (p_hat + z2 / (2.0 * n)) / denom;
    let half = z * (p_hat * (1.0 - p_hat) / n + z2 / (4.0 * n * n)).sqrt() / denom;
    ConfidenceInterval {
        lower: (centre - half).max(0.0),
        upper: (centre + half).min(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_quantile_known_values() {
        // Classic table values.
        assert!((normal_quantile(0.975) - 1.959_964).abs() < 1e-5);
        assert!((normal_quantile(0.995) - 2.575_829).abs() < 1e-5);
        assert!((normal_quantile(0.5)).abs() < 1e-9);
        assert!((normal_quantile(0.025) + 1.959_964).abs() < 1e-5);
    }

    #[test]
    fn quantile_symmetric() {
        for p in [0.001, 0.01, 0.1, 0.3] {
            let lo = normal_quantile(p);
            let hi = normal_quantile(1.0 - p);
            assert!((lo + hi).abs() < 1e-7, "asymmetric at {p}");
        }
    }

    #[test]
    fn z_for_default_alpha() {
        // α = 0.01 → 99.5th percentile ≈ 2.5758.
        assert!((z_for_alpha(DEFAULT_ALPHA) - 2.575_829).abs() < 1e-4);
    }

    #[test]
    fn cached_z_is_bit_identical_to_the_quantile() {
        // Repeats hit the per-thread cache, changes miss it; either way the
        // value is the quantile's, bit for bit.
        for alpha in [0.01, 0.01, 0.05, 0.01, 0.2, 0.2] {
            let fresh = normal_quantile(1.0 - 0.5 * alpha);
            assert_eq!(z_for_alpha(alpha).to_bits(), fresh.to_bits(), "α={alpha}");
        }
    }

    #[test]
    fn wald_interval_contains_p_hat_and_clamps() {
        let ci = wald_interval(50, 100, 0.05);
        assert!(ci.contains(0.5));
        assert!(ci.lower > 0.3 && ci.upper < 0.7);
        let ci = wald_interval(0, 100, 0.05);
        assert_eq!(ci.lower, 0.0);
        let ci = wald_interval(100, 100, 0.05);
        assert_eq!(ci.upper, 1.0);
    }

    #[test]
    fn wald_width_shrinks_with_samples() {
        let w100 = wald_interval(50, 100, 0.01).width();
        let w10000 = wald_interval(5000, 10000, 0.01).width();
        assert!(w10000 < w100 / 5.0, "width must shrink ~1/sqrt(S)");
    }

    #[test]
    fn wald_degenerate_cases_stay_clamped_and_contain_p_hat() {
        // 0 successes, all successes, and single-sample runs across several
        // significance levels: the interval must stay inside [0, 1] and
        // always contain the point estimate.
        let cases = [
            (0u32, 1u32),
            (1, 1),
            (0, 30),
            (30, 30),
            (0, 100_000),
            (100_000, 100_000),
            (1, 2),
        ];
        for (s, n) in cases {
            let p_hat = s as f64 / n as f64;
            for alpha in [0.001, 0.01, 0.05, 0.2] {
                let wald = wald_interval(s, n, alpha);
                assert!(wald.contains(p_hat), "wald ({s},{n},{alpha}) misses p̂");
                // Wilson's centre is shrunk toward 1/2, so at p̂ ∈ {0, 1} its
                // endpoint equals p̂ only in real arithmetic — allow rounding.
                let wilson = wilson_interval(s, n, alpha);
                assert!(
                    wilson.lower - 1e-12 <= p_hat && p_hat <= wilson.upper + 1e-12,
                    "wilson ({s},{n},{alpha}) misses p̂"
                );
                for ci in [wald, wilson] {
                    assert!(ci.lower >= 0.0, "({s},{n},{alpha}): lower {}", ci.lower);
                    assert!(ci.upper <= 1.0, "({s},{n},{alpha}): upper {}", ci.upper);
                    assert!(ci.lower <= ci.upper, "({s},{n},{alpha}) inverted");
                }
            }
        }
        // At p̂ ∈ {0, 1} the Wald width collapses to a point — the known
        // pathology Wilson exists to avoid.
        assert_eq!(wald_interval(0, 50, 0.05).width(), 0.0);
        assert_eq!(wald_interval(50, 50, 0.05).width(), 0.0);
        // One sample: still clamped, still a valid (degenerate) interval.
        let one = wald_interval(1, 1, 0.01);
        assert_eq!((one.lower, one.upper), (1.0, 1.0));
    }

    #[test]
    fn wald_empirical_coverage_on_seeded_bernoulli_stream() {
        use crate::rng::SeedSequence;
        use rand::Rng;
        // 400 independent repetitions of n=200 Bernoulli(0.3) draws; the
        // nominal 95% Wald interval must cover the true p close to its
        // nominal rate (the stream is seeded, so this never flakes).
        let (p_true, alpha, n, reps) = (0.3, 0.05, 200u32, 400u64);
        let seq = SeedSequence::new(0x5EED_C0DE);
        let mut covered = 0u32;
        for rep in 0..reps {
            let mut rng = seq.rng(rep);
            let successes = (0..n).filter(|_| rng.gen::<f64>() < p_true).count() as u32;
            if wald_interval(successes, n, alpha).contains(p_true) {
                covered += 1;
            }
        }
        let coverage = covered as f64 / reps as f64;
        assert!(
            (0.90..=0.995).contains(&coverage),
            "empirical coverage {coverage} too far from nominal 0.95"
        );
    }

    #[test]
    fn wilson_nondegenerate_at_extremes() {
        let ci = wilson_interval(0, 100, 0.05);
        assert_eq!(ci.lower, 0.0);
        assert!(ci.upper > 0.0, "Wilson upper must stay positive at p̂=0");
        let ci = wilson_interval(100, 100, 0.05);
        assert!(ci.lower < 1.0);
        assert_eq!(ci.upper, 1.0);
    }

    #[test]
    fn wilson_close_to_wald_in_the_middle() {
        let a = wald_interval(500, 1000, 0.05);
        let b = wilson_interval(500, 1000, 0.05);
        assert!((a.lower - b.lower).abs() < 0.01);
        assert!((a.upper - b.upper).abs() < 0.01);
    }

    #[test]
    fn exact_interval_has_zero_width() {
        let ci = ConfidenceInterval::exact(0.37);
        assert_eq!(ci.width(), 0.0);
        assert!(ci.contains(0.37));
        assert!(!ci.contains(0.38));
    }

    #[test]
    #[should_panic(expected = "quantile requires p in (0,1)")]
    fn quantile_rejects_bad_input() {
        normal_quantile(1.0);
    }
}
