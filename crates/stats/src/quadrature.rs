//! Gaussian quadrature rules.
//!
//! Eq. 14 integrates a Poisson CDF against the (normal) density of λ.
//! Gauss–Hermite handles the unshifted mixture; Gauss–Legendre handles the
//! probability-shifted bound integrals over a finite quantile interval.

use crate::{Result, StatsError};

/// A quadrature rule: nodes and weights.
#[derive(Debug, Clone, PartialEq)]
pub struct QuadratureRule {
    nodes: Vec<f64>,
    weights: Vec<f64>,
}

impl QuadratureRule {
    /// The node locations.
    pub fn nodes(&self) -> &[f64] {
        &self.nodes
    }

    /// The node weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the rule has no nodes (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The same weights with every node mapped through `f`: a change of
    /// variable computed once for a rule integrated many times.
    pub(crate) fn map_nodes(mut self, f: impl Fn(f64) -> f64) -> Self {
        for x in &mut self.nodes {
            *x = f(*x);
        }
        self
    }

    /// Evaluates `Σ wᵢ f(xᵢ)`.
    pub fn integrate(&self, f: impl Fn(f64) -> f64) -> f64 {
        self.nodes
            .iter()
            .zip(&self.weights)
            .map(|(&x, &w)| w * f(x))
            .sum()
    }
}

/// Gauss–Hermite rule with physicists' weight `e^{−x²}`:
/// `∫ f(x) e^{−x²} dx ≈ Σ wᵢ f(xᵢ)`.
///
/// Newton iteration on the Hermite recurrence (the classical `gauher`
/// construction); exact for polynomials up to degree `2n − 1`.
///
/// # Errors
///
/// Returns [`StatsError::InvalidParameter`] for `n == 0` or `n > 256`, and
/// [`StatsError::NoConvergence`] if a root fails to converge (unreachable for
/// supported `n`).
///
/// # Example
/// ```
/// # fn main() -> Result<(), terse_stats::StatsError> {
/// let rule = terse_stats::quadrature::gauss_hermite(32)?;
/// // ∫ e^{-x²} dx = √π
/// let total = rule.integrate(|_| 1.0);
/// assert!((total - std::f64::consts::PI.sqrt()).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn gauss_hermite(n: usize) -> Result<QuadratureRule> {
    if n == 0 || n > 256 {
        return Err(StatsError::InvalidParameter {
            name: "n",
            value: n as f64,
            requirement: "1 <= n <= 256",
        });
    }
    const PIM4: f64 = 0.751_125_544_464_943; // π^{-1/4}
    const MAXIT: usize = 64;
    let mut nodes = vec![0.0f64; n];
    let mut weights = vec![0.0f64; n];
    let m = n.div_ceil(2);
    let nf = n as f64;
    let mut z = 0.0f64;
    for i in 0..m {
        // Initial guesses (NR).
        z = match i {
            0 => (2.0 * nf + 1.0).sqrt() - 1.85575 * (2.0 * nf + 1.0).powf(-0.16667),
            1 => z - 1.14 * nf.powf(0.426) / z,
            2 => 1.86 * z - 0.86 * nodes[0],
            3 => 1.91 * z - 0.91 * nodes[1],
            _ => 2.0 * z - nodes[i - 2],
        };
        let mut pp = 0.0;
        let mut converged = false;
        for _ in 0..MAXIT {
            let mut p1 = PIM4;
            let mut p2 = 0.0f64;
            for j in 0..n {
                let p3 = p2;
                p2 = p1;
                p1 = z * (2.0 / (j as f64 + 1.0)).sqrt() * p2
                    - (j as f64 / (j as f64 + 1.0)).sqrt() * p3;
            }
            pp = (2.0 * nf).sqrt() * p2;
            let z1 = z;
            z = z1 - p1 / pp;
            if (z - z1).abs() <= 1e-14 {
                converged = true;
                break;
            }
        }
        if !converged {
            return Err(StatsError::NoConvergence {
                routine: "gauss_hermite",
            });
        }
        nodes[i] = z;
        nodes[n - 1 - i] = -z;
        weights[i] = 2.0 / (pp * pp);
        weights[n - 1 - i] = weights[i];
    }
    // Sort ascending for caller convenience.
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| nodes[a].total_cmp(&nodes[b]));
    let nodes_sorted: Vec<f64> = idx.iter().map(|&i| nodes[i]).collect();
    let weights_sorted: Vec<f64> = idx.iter().map(|&i| weights[i]).collect();
    Ok(QuadratureRule {
        nodes: nodes_sorted,
        weights: weights_sorted,
    })
}

/// Expectation of `f` under `N(mean, sd²)` using an `n`-point Gauss–Hermite
/// rule: `E[f(X)] = (1/√π) Σ wᵢ f(μ + √2 σ xᵢ)`.
///
/// # Errors
///
/// Same as [`gauss_hermite`].
pub fn normal_expectation(mean: f64, sd: f64, n: usize, f: impl Fn(f64) -> f64) -> Result<f64> {
    let rule = gauss_hermite(n)?;
    let sqrt2 = std::f64::consts::SQRT_2;
    let inv_sqrt_pi = 1.0 / std::f64::consts::PI.sqrt();
    Ok(inv_sqrt_pi * rule.integrate(|x| f(mean + sqrt2 * sd * x)))
}

/// Gauss–Legendre rule on `[a, b]`:
/// `∫ₐᵇ f(x) dx ≈ Σ wᵢ f(xᵢ)`.
///
/// # Errors
///
/// Returns [`StatsError::InvalidParameter`] for `n == 0`, `n > 512`, or
/// `a ≥ b`, and [`StatsError::NoConvergence`] if a root iteration fails
/// (unreachable for supported `n`).
///
/// # Example
/// ```
/// # fn main() -> Result<(), terse_stats::StatsError> {
/// let rule = terse_stats::quadrature::gauss_legendre(16, 0.0, 1.0)?;
/// let integral = rule.integrate(|x| x * x);
/// assert!((integral - 1.0 / 3.0).abs() < 1e-14);
/// # Ok(())
/// # }
/// ```
pub fn gauss_legendre(n: usize, a: f64, b: f64) -> Result<QuadratureRule> {
    if n == 0 || n > 512 {
        return Err(StatsError::InvalidParameter {
            name: "n",
            value: n as f64,
            requirement: "1 <= n <= 512",
        });
    }
    if !(a < b) {
        return Err(StatsError::InvalidParameter {
            name: "a",
            value: a,
            requirement: "a < b",
        });
    }
    let m = n.div_ceil(2);
    let xm = 0.5 * (b + a);
    let xl = 0.5 * (b - a);
    let mut nodes = vec![0.0f64; n];
    let mut weights = vec![0.0f64; n];
    for i in 0..m {
        let mut z = (std::f64::consts::PI * (i as f64 + 0.75) / (n as f64 + 0.5)).cos();
        let mut pp;
        let mut it = 0;
        loop {
            let mut p1 = 1.0f64;
            let mut p2 = 0.0f64;
            for j in 0..n {
                let p3 = p2;
                p2 = p1;
                p1 = ((2.0 * j as f64 + 1.0) * z * p2 - j as f64 * p3) / (j as f64 + 1.0);
            }
            pp = n as f64 * (z * p1 - p2) / (z * z - 1.0);
            let z1 = z;
            z = z1 - p1 / pp;
            if (z - z1).abs() < 1e-15 {
                break;
            }
            it += 1;
            if it > 100 {
                return Err(StatsError::NoConvergence {
                    routine: "gauss_legendre",
                });
            }
        }
        nodes[i] = xm - xl * z;
        nodes[n - 1 - i] = xm + xl * z;
        weights[i] = 2.0 * xl / ((1.0 - z * z) * pp * pp);
        weights[n - 1 - i] = weights[i];
    }
    Ok(QuadratureRule { nodes, weights })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hermite_polynomial_exactness() {
        // ∫ x² e^{-x²} dx = √π / 2
        let rule = gauss_hermite(8).unwrap();
        let got = rule.integrate(|x| x * x);
        let want = std::f64::consts::PI.sqrt() / 2.0;
        assert!((got - want).abs() < 1e-13);
        // Odd moments vanish by symmetry.
        assert!(rule.integrate(|x| x * x * x).abs() < 1e-12);
    }

    #[test]
    fn normal_expectation_of_identity_and_square() {
        let mu = 3.0;
        let sd = 1.7;
        let m1 = normal_expectation(mu, sd, 32, |x| x).unwrap();
        let m2 = normal_expectation(mu, sd, 32, |x| x * x).unwrap();
        assert!((m1 - mu).abs() < 1e-12);
        assert!((m2 - (mu * mu + sd * sd)).abs() < 1e-11);
    }

    #[test]
    fn normal_expectation_of_indicator_matches_cdf() {
        // E[1{X ≤ t}] = Φ((t-μ)/σ); smooth-ish check with many nodes.
        let mu = 0.0;
        let sd = 1.0;
        let t = 0.5;
        let got = normal_expectation(mu, sd, 128, |x| if x <= t { 1.0 } else { 0.0 }).unwrap();
        let want = crate::special::std_normal_cdf(t);
        assert!((got - want).abs() < 0.02, "got {got} want {want}");
    }

    #[test]
    fn legendre_exactness_and_interval_mapping() {
        let rule = gauss_legendre(10, -2.0, 3.0).unwrap();
        // ∫_{-2}^{3} x³ dx = (81 - 16)/4
        let got = rule.integrate(|x| x * x * x);
        assert!((got - 65.0 / 4.0).abs() < 1e-11);
        // Weights sum to the interval length.
        let total: f64 = rule.weights().iter().sum();
        assert!((total - 5.0).abs() < 1e-12);
    }

    #[test]
    fn legendre_sin_integral() {
        let rule = gauss_legendre(24, 0.0, std::f64::consts::PI).unwrap();
        assert!((rule.integrate(f64::sin) - 2.0).abs() < 1e-13);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(gauss_hermite(0).is_err());
        assert!(gauss_hermite(257).is_err());
        assert!(gauss_legendre(0, 0.0, 1.0).is_err());
        assert!(gauss_legendre(4, 1.0, 1.0).is_err());
        assert!(gauss_legendre(4, 2.0, 1.0).is_err());
    }

    #[test]
    fn hermite_nodes_sorted_and_symmetric() {
        let rule = gauss_hermite(9).unwrap();
        for w in rule.nodes().windows(2) {
            assert!(w[0] < w[1]);
        }
        let n = rule.len();
        for i in 0..n / 2 {
            assert!((rule.nodes()[i] + rule.nodes()[n - 1 - i]).abs() < 1e-12);
        }
    }
}
