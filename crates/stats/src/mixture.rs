//! The Eq. 14 estimator: a Poisson distribution whose mean λ is itself a
//! (normally distributed) random variable.
//!
//! The paper's final program-error-count estimate is
//!
//! ```text
//! N̄_E(k) = ∫₀^∞ e^{−λ(x)} Σ_{i=0}^{⌊k⌋} λ(x)^i / i!  dx        (Eq. 14)
//! ```
//!
//! i.e. the Poisson CDF averaged over the distribution of λ. We evaluate the
//! inner CDF through the regularized incomplete gamma function and the outer
//! average by Gauss–Hermite quadrature (truncating the normal at λ ≤ 0,
//! where the Poisson CDF degenerates to 1). Lower/upper bound CDFs realize
//! the paper's Section 6.4 recipe: shift the λ distribution by
//! ±`d_K(λ, λ̄)` *in probability* before integrating, then add/subtract
//! `d_K(N_E, N̄_E)`, clamping to `[0, 1]`.

use crate::quadrature::{gauss_hermite, gauss_legendre, QuadratureRule};
use crate::special::std_normal_quantile_clamped;
use crate::{Normal, Poisson, Result, StatsError};

/// Number of Gauss–Hermite nodes for the unshifted Eq. 14 integral.
const GH_NODES: usize = 64;
/// Number of Gauss–Legendre nodes for the probability-shifted bound
/// integrals (quantile-space integration).
const GL_NODES: usize = 96;

/// The mixture distribution `N̄_E` of Eq. 14: `X | λ ~ Poisson(λ)` with
/// `λ ~ N(μ, σ²)` truncated at zero.
///
/// # Example
/// ```
/// use terse_stats::{Normal, PoissonNormalMixture};
/// # fn main() -> Result<(), terse_stats::StatsError> {
/// let lam = Normal::new(100.0, 10.0)?;
/// let mix = PoissonNormalMixture::new(lam)?;
/// let median_ish = mix.cdf(100.0)?;
/// assert!((median_ish - 0.5).abs() < 0.05);
/// // Over-dispersion: total variance = E[λ] + Var(λ) > E[λ].
/// assert!(mix.cdf(80.0)? > 0.01 && mix.cdf(120.0)? < 0.99);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonNormalMixture {
    lambda: Normal,
}

impl PoissonNormalMixture {
    /// Creates the mixture from the λ distribution.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if the mean of λ is
    /// negative — a program cannot have a negative expected error count —
    /// or non-finite.
    pub fn new(lambda: Normal) -> Result<Self> {
        if !(lambda.mean() >= 0.0) {
            return Err(StatsError::InvalidParameter {
                name: "lambda.mean",
                value: lambda.mean(),
                requirement: ">= 0",
            });
        }
        Ok(PoissonNormalMixture { lambda })
    }

    /// The λ distribution.
    pub fn lambda(&self) -> Normal {
        self.lambda
    }

    /// Mean of the mixture: `E[N̄_E] = E[λ]` (λ truncated at 0 is treated as
    /// 0, matching the integral's `∫₀^∞`).
    pub fn mean(&self) -> f64 {
        self.lambda.mean().max(0.0)
    }

    /// Variance of the mixture by the law of total variance:
    /// `Var = E[λ] + Var(λ)` (ignoring the negligible truncation effect).
    pub fn variance(&self) -> f64 {
        self.lambda.mean().max(0.0) + self.lambda.variance()
    }

    /// Prepares the Eq. 14 integrals for repeated evaluation at one
    /// `dk_lambda`: the quadrature rules and their λ nodes are built once
    /// here instead of once per evaluation point (see
    /// [`MixtureEvaluator`]).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `dk_lambda ∉ [0, 1]`,
    /// and propagates quadrature construction errors (unreachable for the
    /// fixed internal node counts).
    pub fn evaluator(&self, dk_lambda: f64) -> Result<MixtureEvaluator> {
        unit_interval("dk_lambda", dk_lambda)?;
        let mu = self.lambda.mean();
        let sd = self.lambda.sd();
        let nominal = if sd == 0.0 {
            None
        } else {
            let sqrt2 = std::f64::consts::SQRT_2;
            Some(gauss_hermite(GH_NODES)?.map_nodes(|x| mu + sqrt2 * sd * x))
        };
        let shifted = if dk_lambda > 0.0 && dk_lambda < 1.0 {
            let quantile = |u: f64| -> f64 {
                if sd == 0.0 {
                    mu
                } else {
                    (mu + sd * std_normal_quantile_clamped(u)).max(0.0)
                }
            };
            // Integrate Pr(X ≤ k | λ = Q(u')) du over u ∈ [0,1] where u' is
            // the shifted quantile level; the mass `d` outside the
            // integration interval is the edge term of `cdf_shifted`.
            let d = dk_lambda;
            let rule = |shift: Shift| -> Result<QuadratureRule> {
                let (lo, hi) = match shift {
                    Shift::Up => (d, 1.0),
                    Shift::Down => (0.0, 1.0 - d),
                };
                Ok(gauss_legendre(GL_NODES, lo, hi)?.map_nodes(|u| {
                    let u_shift = match shift {
                        Shift::Up => u - d,
                        Shift::Down => u + d,
                    };
                    quantile(u_shift.clamp(1e-12, 1.0 - 1e-12))
                }))
            };
            Some([rule(Shift::Down)?, rule(Shift::Up)?])
        } else {
            None
        };
        Ok(MixtureEvaluator {
            mu,
            dk_lambda,
            nominal,
            shifted,
        })
    }

    /// The Eq. 14 CDF, `Pr(N̄_E ≤ k)`.
    ///
    /// # Errors
    ///
    /// Propagates quadrature construction errors (unreachable for the fixed
    /// internal node counts).
    pub fn cdf(&self, k: f64) -> Result<f64> {
        Ok(self.evaluator(0.0)?.cdf(k))
    }

    /// The Eq. 14 CDF with the λ distribution shifted in probability by
    /// `dk_lambda` (see [`MixtureEvaluator::cdf_shifted`]).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `dk_lambda ∉ [0, 1]`.
    pub fn cdf_shifted(&self, k: f64, dk_lambda: f64, shift: Shift) -> Result<f64> {
        Ok(self.evaluator(dk_lambda)?.cdf_shifted(k, shift))
    }

    /// The full Section 6.4 bound pair at `k` (see
    /// [`MixtureEvaluator::cdf_bounds`]).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] unless both `dk_lambda` and
    /// `dk_count` lie in `[0, 1]`.
    pub fn cdf_bounds(&self, k: f64, dk_lambda: f64, dk_count: f64) -> Result<CdfBounds> {
        self.evaluator(dk_lambda)?.cdf_bounds(k, dk_count)
    }
}

/// The Eq. 14 integrals of one mixture at one `dk_lambda`, ready to
/// evaluate at many `k`: the Gauss–Hermite rule of the nominal CDF, the two
/// Gauss–Legendre rules of the shifted CDFs and every λ node of the three
/// are computed once, by [`PoissonNormalMixture::evaluator`]. A Figure 3
/// series holds one and evaluates all its points with it; the per-point
/// methods of [`PoissonNormalMixture`] build one per call. Either way each
/// point costs the same floating-point operations in the same order, so
/// the results are bitwise identical.
#[derive(Debug, Clone, PartialEq)]
pub struct MixtureEvaluator {
    /// Mean of λ (the nominal CDF's point mass when `sd = 0`).
    mu: f64,
    /// The probability shift `d_K(λ, λ̄)`.
    dk_lambda: f64,
    /// Gauss–Hermite rule with its nodes mapped to `λ = μ + √2·σ·xᵢ`;
    /// `None` when `sd = 0`.
    nominal: Option<QuadratureRule>,
    /// Gauss–Legendre rules of the `[Down, Up]` shifted integrals, nodes
    /// mapped to λ at the shifted quantile level; `None` unless
    /// `0 < dk_lambda < 1`.
    shifted: Option<[QuadratureRule; 2]>,
}

impl MixtureEvaluator {
    /// The Eq. 14 CDF, `Pr(N̄_E ≤ k)`.
    pub fn cdf(&self, k: f64) -> f64 {
        if k < 0.0 {
            return 0.0;
        }
        let Some(nominal) = &self.nominal else {
            return poisson_cdf_safe(k, self.mu);
        };
        let inv_sqrt_pi = 1.0 / std::f64::consts::PI.sqrt();
        let v = inv_sqrt_pi * nominal.integrate(|lam| poisson_cdf_safe(k, lam));
        v.clamp(0.0, 1.0)
    }

    /// The Eq. 14 CDF with the λ distribution shifted in probability by
    /// `dk_lambda` (the Stein bound `d_K(λ, λ̄)`), producing an optimistic
    /// (`Shift::Up`) or pessimistic (`Shift::Down`) envelope.
    ///
    /// Shifting a CDF up by `d` is equivalent to moving `d` probability mass
    /// to the most favorable extreme; in quantile space,
    /// `F_up⁻¹(u) = F⁻¹(max(u − d, 0⁺))`, with the first `d` of mass landing
    /// on λ = 0 (where the Poisson CDF is 1). Symmetrically for `Down`.
    pub fn cdf_shifted(&self, k: f64, shift: Shift) -> f64 {
        if k < 0.0 {
            return 0.0;
        }
        if self.dk_lambda == 0.0 {
            return self.cdf(k);
        }
        let Some([down, up]) = &self.shifted else {
            // dk_lambda ≥ 1: all mass moved to the extreme.
            return match shift {
                Shift::Up => 1.0,
                Shift::Down => 0.0,
            };
        };
        let (rule, edge_value) = match shift {
            // Mass `d` moved to λ = 0⁺ where the Poisson CDF is 1.
            Shift::Up => (up, 1.0),
            // Mass `d` moved to λ = +∞ where the Poisson CDF is 0.
            Shift::Down => (down, 0.0),
        };
        let interior = rule.integrate(|lam| poisson_cdf_safe(k, lam));
        (interior + self.dk_lambda * edge_value).clamp(0.0, 1.0)
    }

    /// The full Section 6.4 bound pair at `k`: probability-shift λ by
    /// `dk_lambda`, then add/subtract `dk_count` (the Chen–Stein bound
    /// `d_K(N_E, N̄_E)`), clamping to `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] unless `dk_count` lies in
    /// `[0, 1]`.
    pub fn cdf_bounds(&self, k: f64, dk_count: f64) -> Result<CdfBounds> {
        unit_interval("dk_count", dk_count)?;
        let nominal = self.cdf(k);
        let lower = (self.cdf_shifted(k, Shift::Down) - dk_count).clamp(0.0, 1.0);
        let upper = (self.cdf_shifted(k, Shift::Up) + dk_count).clamp(0.0, 1.0);
        Ok(CdfBounds {
            lower: lower.min(nominal),
            nominal,
            upper: upper.max(nominal),
        })
    }
}

/// Rejects a Kolmogorov-distance argument outside `[0, 1]` (NaN included).
fn unit_interval(name: &'static str, value: f64) -> Result<()> {
    if (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(StatsError::InvalidParameter {
            name,
            value,
            requirement: "0 <= d <= 1",
        })
    }
}

/// Direction of a probability shift of the λ distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shift {
    /// Favorable: CDF shifted up (fewer errors).
    Up,
    /// Unfavorable: CDF shifted down (more errors).
    Down,
}

/// A (lower, nominal, upper) CDF triple at one evaluation point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CdfBounds {
    /// Pessimistic envelope value.
    pub lower: f64,
    /// The Eq. 14 nominal value.
    pub nominal: f64,
    /// Optimistic envelope value.
    pub upper: f64,
}

/// Poisson CDF that tolerates non-positive λ (point mass at zero) — the
/// truncation convention for the normal λ in Eq. 14.
// Invariant: the non-positive-λ branch returns first, so the constructor
// only ever sees a positive finite λ.
#[allow(clippy::expect_used)]
fn poisson_cdf_safe(k: f64, lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return if k >= 0.0 { 1.0 } else { 0.0 };
    }
    Poisson::new(lambda)
        .expect("lambda is positive and finite")
        .cdf(k)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix(mu: f64, sd: f64) -> PoissonNormalMixture {
        PoissonNormalMixture::new(Normal::new(mu, sd).unwrap()).unwrap()
    }

    #[test]
    fn degenerate_lambda_reduces_to_poisson() {
        let m = mix(20.0, 0.0);
        let p = Poisson::new(20.0).unwrap();
        for k in [0.0, 10.0, 20.0, 30.0] {
            assert!((m.cdf(k).unwrap() - p.cdf(k)).abs() < 1e-12);
        }
    }

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let m = mix(50.0, 8.0);
        let mut prev = 0.0;
        for k in (0..120).step_by(5) {
            let c = m.cdf(k as f64).unwrap();
            assert!((0.0..=1.0).contains(&c));
            assert!(c >= prev - 1e-9, "k={k} c={c} prev={prev}");
            prev = c;
        }
        assert!(m.cdf(200.0).unwrap() > 0.999);
        assert_eq!(m.cdf(-1.0).unwrap(), 0.0);
    }

    #[test]
    fn mixture_is_overdispersed_relative_to_poisson() {
        // With λ ~ N(100, 15²), the mixture spreads wider than Poisson(100).
        let m = mix(100.0, 15.0);
        let p = Poisson::new(100.0).unwrap();
        // Lower tail is fatter.
        assert!(m.cdf(75.0).unwrap() > p.cdf(75.0));
        // Upper tail is fatter too (CDF smaller at high k).
        assert!(m.cdf(130.0).unwrap() < p.cdf(130.0));
    }

    #[test]
    fn mixture_matches_monte_carlo() {
        let m = mix(40.0, 6.0);
        let mut rng = crate::rng::Xoshiro256::seed_from_u64(2024);
        let n = 60_000;
        let lam_dist = Normal::new(40.0, 6.0).unwrap();
        let mut counts_le_40 = 0usize;
        for _ in 0..n {
            let lam = lam_dist.sample_with(rng.next_open01()).max(0.0);
            let x = Poisson::new(lam).unwrap().sample_with(rng.next_open01());
            if x <= 40 {
                counts_le_40 += 1;
            }
        }
        let mc = counts_le_40 as f64 / n as f64;
        let analytic = m.cdf(40.0).unwrap();
        assert!((mc - analytic).abs() < 0.01, "mc={mc} analytic={analytic}");
    }

    #[test]
    fn shifted_cdfs_order_correctly() {
        let m = mix(60.0, 10.0);
        for k in [30.0, 50.0, 60.0, 70.0, 100.0] {
            let up = m.cdf_shifted(k, 0.05, Shift::Up).unwrap();
            let nom = m.cdf(k).unwrap();
            let down = m.cdf_shifted(k, 0.05, Shift::Down).unwrap();
            assert!(
                down <= nom + 1e-6 && nom <= up + 1e-6,
                "k={k}: {down} <= {nom} <= {up}"
            );
        }
    }

    #[test]
    fn zero_shift_equals_nominal() {
        let m = mix(25.0, 4.0);
        for k in [10.0, 25.0, 40.0] {
            let a = m.cdf_shifted(k, 0.0, Shift::Up).unwrap();
            let b = m.cdf(k).unwrap();
            assert!((a - b).abs() < 1e-9, "k={k} {a} vs {b}");
        }
    }

    #[test]
    fn full_shift_saturates() {
        let m = mix(25.0, 4.0);
        assert_eq!(m.cdf_shifted(10.0, 1.0, Shift::Up).unwrap(), 1.0);
        assert_eq!(m.cdf_shifted(10.0, 1.0, Shift::Down).unwrap(), 0.0);
    }

    #[test]
    fn bounds_bracket_nominal_and_respect_count_shift() {
        let m = mix(80.0, 12.0);
        let b = m.cdf_bounds(80.0, 0.03, 0.02).unwrap();
        assert!(b.lower <= b.nominal && b.nominal <= b.upper);
        // The count shift alone must widen the envelope by at least ~0.02 on
        // each side wherever the CDF is interior.
        assert!(b.upper - b.nominal >= 0.019);
        assert!(b.nominal - b.lower >= 0.019);
    }

    #[test]
    fn bounds_clamped_to_unit_interval() {
        let m = mix(10.0, 2.0);
        let lo = m.cdf_bounds(0.0, 0.5, 0.5).unwrap();
        assert!(lo.lower >= 0.0 && lo.upper <= 1.0);
        let hi = m.cdf_bounds(1e6, 0.5, 0.5).unwrap();
        assert!((hi.upper - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(PoissonNormalMixture::new(Normal::new(-5.0, 1.0).unwrap()).is_err());
        let m = mix(10.0, 1.0);
        assert!(m.cdf_shifted(5.0, -0.1, Shift::Up).is_err());
        assert!(m.cdf_shifted(5.0, 1.1, Shift::Up).is_err());
        assert!(m.cdf_bounds(5.0, 0.1, 2.0).is_err());
    }

    #[test]
    fn moments_law_of_total_variance() {
        let m = mix(100.0, 15.0);
        assert_eq!(m.mean(), 100.0);
        assert_eq!(m.variance(), 100.0 + 225.0);
    }

    #[test]
    fn large_lambda_regime() {
        // The paper's regime: λ in the millions. Check the CDF is sane and
        // centered near the mean.
        let m = mix(2.0e6, 1.5e5);
        let below = m.cdf(1.4e6).unwrap();
        let mid = m.cdf(2.0e6).unwrap();
        let above = m.cdf(2.6e6).unwrap();
        assert!(below < 0.01, "below = {below}");
        assert!((mid - 0.5).abs() < 0.02, "mid = {mid}");
        assert!(above > 0.99, "above = {above}");
    }
}
