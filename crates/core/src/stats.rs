//! Deterministic binomial confidence-interval math and the [`Rate`]
//! every KPI is reported as.
//!
//! The engine's [`StopPolicy`](alfi_scenario::StopPolicy) evaluation,
//! `alfi-analyze`'s reports and `alfi-eval`'s IVMOD rates all need
//! binomial interval estimates. The math lives here, in the crate they
//! all depend on, so every consumer uses the same bit-deterministic
//! implementation.
//!
//! Two interval families are provided:
//!
//! * [`wilson_interval`] — the Wilson score interval. Cheap, good
//!   coverage for mid-range rates, and the default behind
//!   [`Rate::from_counts`].
//! * [`clopper_pearson_interval`] — the exact (conservative) interval
//!   built from the inverse regularized incomplete beta function. Never
//!   undercovers, which matters for the near-0/near-1 SDC/DUE rates FI
//!   campaigns actually observe.
//!
//! Everything here is pure `f64` arithmetic over `std` — no tables, no
//! platform intrinsics — so results are bit-identical across runs and
//! thread counts, a prerequisite for golden-pinned stop decisions.
//!
//! # Example
//!
//! ```
//! use alfi_core::stats::Rate;
//!
//! // 118 corrupted outputs in 1000 injections — the paper's VGG-16
//! // headline figure is 11.8 %.
//! let sde = Rate::from_counts(118, 1000);
//! assert!((sde.percent() - 11.8).abs() < 1e-9);
//! assert!(sde.ci_low > 0.09 && sde.ci_high < 0.14);
//! ```

use alfi_scenario::CiMethod;
use alfi_serde::json_struct;

/// A closed confidence interval on a binomial proportion, clamped to
/// `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinomialCi {
    /// Lower bound (exactly `0.0` when `hits == 0`).
    pub low: f64,
    /// Upper bound (exactly `1.0` when `hits == total`).
    pub high: f64,
}

impl BinomialCi {
    /// Half the interval width — the "±" precision the campaign targets.
    pub fn half_width(&self) -> f64 {
        (self.high - self.low) / 2.0
    }
}

/// Wilson score interval for `hits` successes in `total` trials at
/// z-score `z`.
///
/// Boundary behaviour (the edge cases the old normal approximation got
/// wrong): `total == 0` yields the vacuous `[0, 1]`; `hits == 0` pins
/// the lower bound to exactly `0.0`; `hits >= total` pins the upper
/// bound to exactly `1.0`. Bounds are always ordered and inside
/// `[0, 1]`, and `hits > total` is clamped rather than producing NaN.
pub fn wilson_interval(hits: usize, total: usize, z: f64) -> BinomialCi {
    if total == 0 {
        return BinomialCi { low: 0.0, high: 1.0 };
    }
    let hits = hits.min(total);
    let n = total as f64;
    let p = hits as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).max(0.0).sqrt();
    let mut low = (center - half).clamp(0.0, 1.0);
    let mut high = (center + half).clamp(0.0, 1.0);
    if hits == 0 {
        low = 0.0;
    }
    if hits == total {
        high = 1.0;
    }
    BinomialCi { low: low.min(high), high: high.max(low) }
}

/// Clopper-Pearson ("exact") interval for `hits` successes in `total`
/// trials at the given two-sided confidence level (e.g. `0.95`).
///
/// Computed from the inverse regularized incomplete beta function:
/// `low = BetaInv(α/2; hits, total-hits+1)` and
/// `high = BetaInv(1-α/2; hits+1, total-hits)`, with the conventional
/// exact boundaries `low = 0` when `hits == 0` and `high = 1` when
/// `hits == total`. `total == 0` yields `[0, 1]`.
pub fn clopper_pearson_interval(hits: usize, total: usize, confidence: f64) -> BinomialCi {
    if total == 0 {
        return BinomialCi { low: 0.0, high: 1.0 };
    }
    let hits = hits.min(total);
    let alpha = (1.0 - confidence).clamp(1e-12, 1.0);
    let (h, n) = (hits as f64, total as f64);
    let low = if hits == 0 { 0.0 } else { inv_reg_beta(alpha / 2.0, h, n - h + 1.0) };
    let high = if hits == total { 1.0 } else { inv_reg_beta(1.0 - alpha / 2.0, h + 1.0, n - h) };
    let low = low.clamp(0.0, 1.0);
    let high = high.clamp(0.0, 1.0);
    BinomialCi { low: low.min(high), high: high.max(low) }
}

/// The interval `method` builds for `hits` in `total` at a two-sided
/// `confidence` — the one dispatch the engine's stop decisions and the
/// reports' achieved precision share.
pub fn interval(method: CiMethod, hits: usize, total: usize, confidence: f64) -> BinomialCi {
    match method {
        CiMethod::Wilson => wilson_interval(hits, total, z_for_confidence(confidence)),
        CiMethod::ClopperPearson => clopper_pearson_interval(hits, total, confidence),
    }
}

/// Two-sided z-score for a confidence level, e.g. `0.95 → 1.95996…`.
///
/// `z = Φ⁻¹((1 + confidence) / 2)` via Acklam's rational approximation
/// of the inverse normal CDF (relative error < 1.2e-9 — far below the
/// interval widths it feeds). Inputs are clamped to `(0, 1)`.
pub fn z_for_confidence(confidence: f64) -> f64 {
    inv_norm_cdf((1.0 + confidence.clamp(1e-12, 1.0 - 1e-12)) / 2.0)
}

/// A binomial rate estimate with a confidence interval (Wilson score by
/// default, Clopper-Pearson on request).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rate {
    /// Number of positive outcomes (clamped to `total`).
    pub hits: usize,
    /// Number of trials.
    pub total: usize,
    /// Point estimate `hits / total` (0 for zero trials).
    pub value: f64,
    /// Lower bound of the interval (exactly 0 when `hits == 0`).
    pub ci_low: f64,
    /// Upper bound of the interval (exactly 1 when `hits == total`).
    pub ci_high: f64,
}

json_struct!(Rate { hits, total, value, ci_low, ci_high });

impl Rate {
    /// Estimates a rate with a 95 % Wilson score interval.
    ///
    /// The z-score is the literal `1.959964`, not
    /// `z_for_confidence(0.95)` (`1.959963986120195`), which reports use
    /// for their stop-policy confidence. The two differ in the ninth
    /// digit, and golden files pin each: the detection `metrics.json`
    /// this one, `report.json` the other.
    pub fn from_counts(hits: usize, total: usize) -> Rate {
        Rate::with_confidence(hits, total, 1.959964)
    }

    /// Estimates a rate with a Wilson interval at the given z-score.
    ///
    /// Edge cases are exact: `total == 0` yields the vacuous `[0, 1]`,
    /// `hits == 0` pins the lower bound to `0.0`, `hits >= total` pins
    /// the upper bound to `1.0` (and clamps `hits`). Bounds always lie
    /// ordered inside `[0, 1]`.
    pub fn with_confidence(hits: usize, total: usize, z: f64) -> Rate {
        Rate::from_interval(hits, total, wilson_interval(hits, total, z))
    }

    /// Estimates a rate with a Wilson interval at a two-sided
    /// confidence level (e.g. `0.95`).
    pub fn wilson(hits: usize, total: usize, confidence: f64) -> Rate {
        Rate::with_confidence(hits, total, z_for_confidence(confidence))
    }

    /// Estimates a rate with an exact (conservative) Clopper-Pearson
    /// interval at a two-sided confidence level. Preferred for the
    /// near-0 SDC/DUE rates hardened models exhibit, where the normal
    /// approximation undercovers.
    pub fn clopper_pearson(hits: usize, total: usize, confidence: f64) -> Rate {
        Rate::from_interval(hits, total, clopper_pearson_interval(hits, total, confidence))
    }

    fn from_interval(hits: usize, total: usize, ci: BinomialCi) -> Rate {
        let hits = hits.min(total);
        let value = if total == 0 { 0.0 } else { hits as f64 / total as f64 };
        Rate { hits, total, value, ci_low: ci.low, ci_high: ci.high }
    }

    /// The rate as a percentage.
    pub fn percent(&self) -> f64 {
        self.value * 100.0
    }

    /// Half the interval width — the "±" precision of the estimate.
    pub fn half_width(&self) -> f64 {
        (self.ci_high - self.ci_low) / 2.0
    }

    /// Whether two rates' confidence intervals are disjoint — the
    /// conservative significance test run diffing and model ranking
    /// use.
    pub fn significantly_differs_from(&self, other: &Rate) -> bool {
        self.ci_high < other.ci_low || other.ci_high < self.ci_low
    }
}

impl std::fmt::Display for Rate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.2}% [{:.2}, {:.2}] ({}/{})",
            self.percent(),
            self.ci_low * 100.0,
            self.ci_high * 100.0,
            self.hits,
            self.total
        )
    }
}

/// Acklam's inverse normal CDF approximation.
fn inv_norm_cdf(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
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
    let p = p.clamp(1e-300, 1.0 - 1e-16);
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

/// Natural log of the gamma function (Lanczos, g = 7, 9 coefficients).
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula keeps the approximation in its valid range.
        let pi = std::f64::consts::PI;
        (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x)
    } else {
        let x = x - 1.0;
        let mut a = G[0];
        let t = x + 7.5;
        for (i, &g) in G.iter().enumerate().skip(1) {
            a += g / (x + i as f64);
        }
        0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
    }
}

/// Regularized incomplete beta function `I_x(a, b)` via the standard
/// continued-fraction expansion (fixed iteration cap, deterministic).
fn reg_beta(x: f64, a: f64, b: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(x, a, b) / a
    } else {
        1.0 - front * beta_cf(1.0 - x, b, a) / b
    }
}

/// Lentz continued fraction for the incomplete beta function.
fn beta_cf(x: f64, a: f64, b: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 3e-16;
    const TINY: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Inverse of [`reg_beta`] in `x` by bisection — slower than Newton but
/// unconditionally convergent and bit-deterministic (fixed 200 steps,
/// enough to exhaust `f64` precision on `[0, 1]`).
fn inv_reg_beta(p: f64, a: f64, b: f64) -> f64 {
    if p <= 0.0 {
        return 0.0;
    }
    if p >= 1.0 {
        return 1.0;
    }
    let (mut lo, mut hi) = (0.0_f64, 1.0_f64);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break;
        }
        if reg_beta(mid, a, b) < p {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn z_matches_standard_quantiles() {
        assert!((z_for_confidence(0.95) - 1.959964).abs() < 1e-5);
        assert!((z_for_confidence(0.99) - 2.575829).abs() < 1e-5);
        assert!((z_for_confidence(0.90) - 1.644854).abs() < 1e-5);
    }

    #[test]
    fn wilson_known_value() {
        // 10/100 at 95%: approx [0.0552, 0.1744]
        let ci = wilson_interval(10, 100, 1.959964);
        assert!((ci.low - 0.0552).abs() < 0.002, "low {}", ci.low);
        assert!((ci.high - 0.1744).abs() < 0.002, "high {}", ci.high);
    }

    #[test]
    fn wilson_boundaries_are_exact() {
        assert_eq!(wilson_interval(0, 0, 1.96), BinomialCi { low: 0.0, high: 1.0 });
        let zero = wilson_interval(0, 40, 1.96);
        assert_eq!(zero.low, 0.0);
        assert!(zero.high > 0.0 && zero.high < 0.15);
        let full = wilson_interval(40, 40, 1.96);
        assert_eq!(full.high, 1.0);
        assert!(full.low > 0.85 && full.low < 1.0);
        // Over-count clamps instead of producing NaN.
        let over = wilson_interval(50, 40, 1.96);
        assert_eq!(over.high, 1.0);
        assert!(over.low.is_finite());
    }

    #[test]
    fn clopper_pearson_known_value() {
        // 10/100 at 95%: exact interval approx [0.0490, 0.1762]
        let ci = clopper_pearson_interval(10, 100, 0.95);
        assert!((ci.low - 0.0490).abs() < 0.001, "low {}", ci.low);
        assert!((ci.high - 0.1762).abs() < 0.001, "high {}", ci.high);
    }

    #[test]
    fn clopper_pearson_boundaries_are_exact() {
        assert_eq!(clopper_pearson_interval(0, 0, 0.95), BinomialCi { low: 0.0, high: 1.0 });
        let zero = clopper_pearson_interval(0, 50, 0.95);
        assert_eq!(zero.low, 0.0);
        // Rule of three: upper ≈ 1 - (α/2)^(1/n) = 0.0711 for n = 50.
        assert!((zero.high - 0.0711).abs() < 0.001, "high {}", zero.high);
        let full = clopper_pearson_interval(50, 50, 0.95);
        assert_eq!(full.high, 1.0);
        assert!((full.low - 0.9289).abs() < 0.001, "low {}", full.low);
    }

    #[test]
    fn clopper_pearson_contains_wilson_at_moderate_rates() {
        // Spot checks only: the conservative CP interval typically
        // envelops the Wilson approximation at moderate rates. This is
        // NOT a theorem — at extreme rates either interval can be
        // tighter on one side — so the general property suite asserts
        // CP's exact-coverage guarantee instead of containment.
        let z = z_for_confidence(0.95);
        for &(hits, total) in &[(1usize, 20usize), (5, 40), (13, 64), (99, 200), (250, 256)] {
            let w = wilson_interval(hits, total, z);
            let cp = clopper_pearson_interval(hits, total, 0.95);
            assert!(cp.low <= w.low + 1e-9, "{hits}/{total}: cp.low {} w.low {}", cp.low, w.low);
            assert!(
                cp.high >= w.high - 1e-9,
                "{hits}/{total}: cp.high {} w.high {}",
                cp.high,
                w.high
            );
        }
    }

    #[test]
    fn half_width_shrinks_with_sample_size() {
        let mut prev = f64::INFINITY;
        for scale in [1usize, 2, 4, 8, 16] {
            let ci = clopper_pearson_interval(10 * scale, 100 * scale, 0.95);
            assert!(ci.half_width() < prev);
            prev = ci.half_width();
        }
    }

    #[test]
    fn reg_beta_matches_closed_forms() {
        // I_x(1, b) = 1 - (1-x)^b
        for &(x, b) in &[(0.1f64, 5.0f64), (0.5, 2.0), (0.9, 7.0)] {
            let expect = 1.0 - (1.0 - x).powf(b);
            assert!((reg_beta(x, 1.0, b) - expect).abs() < 1e-12);
        }
        // Symmetry: I_x(a, b) = 1 - I_{1-x}(b, a)
        let v = reg_beta(0.3, 4.0, 9.0) + reg_beta(0.7, 9.0, 4.0);
        assert!((v - 1.0).abs() < 1e-12);
    }

    #[test]
    fn determinism_across_calls() {
        let a = clopper_pearson_interval(37, 211, 0.97);
        let b = clopper_pearson_interval(37, 211, 0.97);
        assert_eq!(a.low.to_bits(), b.low.to_bits());
        assert_eq!(a.high.to_bits(), b.high.to_bits());
    }
    #[test]
    fn point_estimate_is_ratio() {
        let r = Rate::from_counts(25, 100);
        assert!((r.value - 0.25).abs() < 1e-12);
        assert!((r.percent() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn wilson_interval_known_value() {
        // 10/100 at 95%: Wilson interval approx [0.0552, 0.1744]
        let r = Rate::from_counts(10, 100);
        assert!((r.ci_low - 0.0552).abs() < 0.002, "low {}", r.ci_low);
        assert!((r.ci_high - 0.1744).abs() < 0.002, "high {}", r.ci_high);
        assert!((r.half_width() - (r.ci_high - r.ci_low) / 2.0).abs() < 1e-15);
    }

    #[test]
    fn zero_hits_lower_bound_is_exactly_zero() {
        // The old normal approximation left ~5.6e-17 of floating-point
        // dirt here; the boundary must be exact.
        let r = Rate::from_counts(0, 50);
        assert_eq!(r.value, 0.0);
        assert_eq!(r.ci_low, 0.0, "hits == 0 pins the lower bound");
        assert!(r.ci_high > 0.0 && r.ci_high < 0.15);
    }

    #[test]
    fn full_hits_upper_bound_is_exactly_one() {
        let r = Rate::from_counts(50, 50);
        assert_eq!(r.value, 1.0);
        assert!(r.ci_low > 0.85);
        assert_eq!(r.ci_high, 1.0, "hits == total pins the upper bound");
    }

    #[test]
    fn zero_trials_is_vacuous() {
        let r = Rate::from_counts(0, 0);
        assert_eq!(r.value, 0.0);
        assert_eq!((r.ci_low, r.ci_high), (0.0, 1.0));
        assert_eq!(r.half_width(), 0.5);
    }

    #[test]
    fn excess_hits_clamp_to_total() {
        // Corrupt inputs (hits > total) clamp instead of yielding a
        // rate above 1 or a NaN interval.
        let r = Rate::from_counts(7, 5);
        assert_eq!((r.hits, r.total), (5, 5));
        assert_eq!(r.value, 1.0);
        assert!(r.ci_low >= 0.0 && r.ci_low <= 1.0);
        assert_eq!(r.ci_high, 1.0);
    }

    #[test]
    fn wilson_by_confidence_matches_z_form() {
        let by_conf = Rate::wilson(10, 100, 0.95);
        let by_z = Rate::with_confidence(10, 100, z_for_confidence(0.95));
        assert_eq!(by_conf, by_z);
    }

    #[test]
    fn clopper_pearson_known_value_and_boundaries() {
        // 10/100 at 95%: CP interval approx [0.0490, 0.1762].
        let r = Rate::clopper_pearson(10, 100, 0.95);
        assert!((r.ci_low - 0.0490).abs() < 0.002, "low {}", r.ci_low);
        assert!((r.ci_high - 0.1762).abs() < 0.002, "high {}", r.ci_high);

        let zero = Rate::clopper_pearson(0, 50, 0.95);
        assert_eq!(zero.ci_low, 0.0);
        // Rule of three: upper ~ 1 - (alpha/2)^(1/n) ~ 0.0711.
        assert!((zero.ci_high - 0.0711).abs() < 0.002, "high {}", zero.ci_high);

        let full = Rate::clopper_pearson(50, 50, 0.95);
        assert_eq!(full.ci_high, 1.0);
        let vacuous = Rate::clopper_pearson(0, 0, 0.95);
        assert_eq!((vacuous.ci_low, vacuous.ci_high), (0.0, 1.0));
    }

    #[test]
    fn interval_shrinks_with_samples() {
        let small = Rate::from_counts(10, 100);
        let large = Rate::from_counts(100, 1000);
        assert!(large.half_width() < small.half_width());
    }

    #[test]
    fn significance_check_requires_disjoint_intervals() {
        let a = Rate::from_counts(10, 1000);
        let b = Rate::from_counts(300, 1000);
        assert!(a.significantly_differs_from(&b));
        let c = Rate::from_counts(11, 1000);
        assert!(!a.significantly_differs_from(&c));
    }

    #[test]
    fn display_is_readable() {
        let s = Rate::from_counts(118, 1000).to_string();
        assert!(s.contains("11.80%"));
        assert!(s.contains("118/1000"));
    }
}
