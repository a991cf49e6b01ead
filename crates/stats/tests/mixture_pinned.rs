//! Pinned bits of the Eq. 14 mixture CDF and its Section 6.4 bounds.
//!
//! The expected values are the `f64` bit patterns that the per-point
//! `cdf_bounds` printed before the prepared [`MixtureEvaluator`] existed
//! (each point then rebuilt its quadrature rules). Both the per-point
//! wrappers and one evaluator reused across a whole series must still
//! reproduce them exactly: the evaluator only moves loop-invariant work
//! out of the points, never changes a float operation.
//!
//! [`MixtureEvaluator`]: terse_stats::mixture::MixtureEvaluator

use terse_stats::mixture::Shift;
use terse_stats::{Normal, PoissonNormalMixture};

/// One mixture and bound setting, with `[lower, nominal, upper]` bits at
/// each `k`.
struct Case {
    mu: f64,
    sd: f64,
    dk_lambda: f64,
    dk_count: f64,
    points: [(f64, [u64; 3]); 4],
}

/// Every early-return branch (`sd = 0`, `dk_lambda = 0`, `dk_lambda ≥ 1`,
/// `k < 0`), the interior shift, λ truncated at zero, and λ near 1e7.
#[rustfmt::skip]
const CASES: [Case; 6] = [
    // sd = 0: the nominal CDF is a plain Poisson CDF.
    Case {
        mu: 20.0,
        sd: 0.0,
        dk_lambda: 0.05,
        dk_count: 0.01,
        points: [
            (-1.0, [0x0000000000000000, 0x0000000000000000, 0x3f847ae147ae147b]),
            (12.0, [0x3f9bb5fb5b52b744, 0x3fa3f96142ed8e4a, 0x3fb8d903f58cffbd]),
            (20.0, [0x3fe0ad2981307490, 0x3fe1e4162196b600, 0x3fe2ea9a25077ece]),
            (31.5, [0x3fedd581b8f4c8ca, 0x3fefbdb65c4a6cfb, 0x3ff0000000000000]),
        ],
    },
    // dk_lambda = 0: the shifted CDFs are the nominal one.
    Case {
        mu: 50.0,
        sd: 8.0,
        dk_lambda: 0.0,
        dk_count: 0.02,
        points: [
            (-0.5, [0x0000000000000000, 0x0000000000000000, 0x3f947ae147ae147b]),
            (35.0, [0x3fafe00de7630452, 0x3fb50ebf459d0748, 0x3fba2d7797888c67]),
            (50.0, [0x3fe060a7bf3edb79, 0x3fe1047ec97c4c1d, 0x3fe1a855d3b9bcc1]),
            (70.0, [0x3fee50da807336f0, 0x3feef4b18ab0a794, 0x3fef988894ee1838]),
        ],
    },
    // 0 < dk_lambda < 1: both Gauss–Legendre integrals.
    Case {
        mu: 60.0,
        sd: 10.0,
        dk_lambda: 0.05,
        dk_count: 0.03,
        points: [
            (-2.0, [0x0000000000000000, 0x0000000000000000, 0x3f9eb851eb851eb8]),
            (45.0, [0x3fab77224b846a74, 0x3fbfac1d74f5efde, 0x3fca1375a7e62fd4]),
            (60.0, [0x3fdca60620feb874, 0x3fe0e1771d1965e8, 0x3fe36b1fb1e0efb9]),
            (80.0, [0x3feb9b3e87d49b0c, 0x3fee2a99bf6628fa, 0x3fefe9a3c2d17ce3]),
        ],
    },
    // dk_lambda ≥ 1: the shifted CDFs saturate.
    Case {
        mu: 25.0,
        sd: 4.0,
        dk_lambda: 1.0,
        dk_count: 0.1,
        points: [
            (-1.0, [0x0000000000000000, 0x0000000000000000, 0x3fb999999999999a]),
            (15.0, [0x0000000000000000, 0x3faeccacc5473ef5, 0x3ff0000000000000]),
            (25.0, [0x0000000000000000, 0x3fe1943de8c2dbb3, 0x3ff0000000000000]),
            (40.0, [0x0000000000000000, 0x3fef9a301b18a1ec, 0x3ff0000000000000]),
        ],
    },
    // Most of the λ mass near zero: nodes truncated at λ ≤ 0.
    Case {
        mu: 0.8,
        sd: 1.5,
        dk_lambda: 0.2,
        dk_count: 0.05,
        points: [
            (-1.0, [0x0000000000000000, 0x0000000000000000, 0x3fa999999999999a]),
            (0.0, [0x3fd1c8424a2d44c5, 0x3fe0f4d6b922f7b3, 0x3fe876f07646a52e]),
            (1.0, [0x3fdd926e8cdd4cb5, 0x3fe6c69f0fb51ba1, 0x3fed44cc25af7e98]),
            (3.0, [0x3fe54b691789963b, 0x3fed4b6bdcdcafaa, 0x3ff0000000000000]),
        ],
    },
    // The paper's regime: λ near 1e7.
    Case {
        mu: 1.0e7,
        sd: 3.0e3,
        dk_lambda: 0.02,
        dk_count: 0.001,
        points: [
            (-1.0, [0x0000000000000000, 0x0000000000000000, 0x3f50624dd2f1a9fc]),
            (9.995e6, [0x3fbc125c4aacff62, 0x3fc016b8a97e01cd, 0x3fc2c6c8c5920e88]),
            (1.0e7, [0x3fdead91c0ee7c62, 0x3fe0009e42bc6682, 0x3fe0aa71ac2f2dca]),
            (1.0004e7, [0x3fe996a90392f73e, 0x3fea42a53e293f3b, 0x3fead41310c4e673]),
        ],
    },
];

fn mixture(case: &Case) -> PoissonNormalMixture {
    PoissonNormalMixture::new(Normal::new(case.mu, case.sd).expect("valid normal"))
        .expect("non-negative mean")
}

#[test]
fn per_point_bounds_match_pinned_bits() {
    for case in &CASES {
        let m = mixture(case);
        for &(k, bits) in &case.points {
            let b = m
                .cdf_bounds(k, case.dk_lambda, case.dk_count)
                .expect("bounds");
            assert_eq!(
                [b.lower.to_bits(), b.nominal.to_bits(), b.upper.to_bits()],
                bits,
                "mu={} sd={} dk_lambda={} k={k}: {b:?}",
                case.mu,
                case.sd,
                case.dk_lambda
            );
        }
    }
}

#[test]
fn prepared_series_matches_per_point_bits() {
    for case in &CASES {
        let m = mixture(case);
        let eval = m.evaluator(case.dk_lambda).expect("evaluator");
        for &(k, bits) in &case.points {
            let b = eval.cdf_bounds(k, case.dk_count).expect("bounds");
            assert_eq!(
                [b.lower.to_bits(), b.nominal.to_bits(), b.upper.to_bits()],
                bits,
                "mu={} sd={} dk_lambda={} k={k}: {b:?}",
                case.mu,
                case.sd,
                case.dk_lambda
            );
            // The single-CDF methods agree with the wrappers too.
            assert_eq!(eval.cdf(k).to_bits(), m.cdf(k).expect("cdf").to_bits());
            for shift in [Shift::Up, Shift::Down] {
                assert_eq!(
                    eval.cdf_shifted(k, shift).to_bits(),
                    m.cdf_shifted(k, case.dk_lambda, shift)
                        .expect("shifted")
                        .to_bits()
                );
            }
        }
    }
}

#[test]
fn evaluator_rejects_out_of_range_shifts() {
    let m = PoissonNormalMixture::new(Normal::new(10.0, 1.0).expect("normal")).expect("mixture");
    assert!(m.evaluator(-0.1).is_err());
    assert!(m.evaluator(1.1).is_err());
    assert!(m.evaluator(f64::NAN).is_err());
    let eval = m.evaluator(0.1).expect("evaluator");
    assert!(eval.cdf_bounds(5.0, 2.0).is_err());
}
