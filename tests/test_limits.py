"""Scaling-limit constants and rescalings.

Reference values are recomputed from the closed-form radial integrals of the
canonical density: int_0^1 r q dr = 1/(1-alpha) (alpha < 1) and
int_1^oo r q dr = 1/(beta-1) (beta > 1)."""

import numpy as np
import pytest

from layerlab import (LayeredQ, SphericalMeasure, gaussian_covariance,
                      long_time_constants, rescale_terminal,
                      short_time_constants)
from layerlab.limits import (LONG_GAUSSIAN, LONG_STABLE, SHORT_STABLE,
                             LimitSpec)


def test_short_constants_alpha_below_one(skew1):
    # eta = int xi sigma(dxi) * 1/(1-alpha); skew1 has int xi sigma = 1
    q = LayeredQ.canonical(0.5, 1.5, 3.0)
    eta, b = short_time_constants(q, skew1)
    np.testing.assert_allclose(eta, [2.0])
    np.testing.assert_allclose(b, [0.0])


def test_short_constants_both_above_one(skew1):
    # eta = -int xi sigma * 1/(beta-1)
    q = LayeredQ.canonical(1.3, 1.9, 3.0)
    eta, b = short_time_constants(q, skew1)
    np.testing.assert_allclose(eta, [-1.0 / 0.9])
    np.testing.assert_allclose(b, [0.0])


def test_short_constants_drift_case(skew1):
    # (alpha, beta) in (1,2) x (0,1]: b = sigma1 first moment / (alpha-1)
    q = LayeredQ.canonical(1.5, 0.8, 3.0)
    eta, b = short_time_constants(q, skew1)
    np.testing.assert_allclose(eta, [0.0])
    np.testing.assert_allclose(b, [1.0 / 0.5])


def test_short_constants_alpha_one(skew1):
    q = LayeredQ.canonical(1.0, 1.5, 3.0)
    eta, b = short_time_constants(q, skew1)
    np.testing.assert_allclose(eta, [0.0])
    np.testing.assert_allclose(b, [0.0])


def test_long_constants_stable_cases(skew1):
    # beta in (1,2): eta = -int xi sigma / (beta-1)
    q = LayeredQ.canonical(0.7, 1.5, 3.0)
    eta, b = long_time_constants(q, skew1)
    np.testing.assert_allclose(eta, [-2.0])
    np.testing.assert_allclose(b, [0.0])
    # (0,1) x (0,1): eta = +int xi sigma / (1-alpha)
    q = LayeredQ.canonical(0.5, 0.9, 3.0)
    eta, b = long_time_constants(q, skew1)
    np.testing.assert_allclose(eta, [2.0])
    np.testing.assert_allclose(b, [0.0])
    # [1,2) x (0,1): b = sigma2 first moment / (1-beta)
    q = LayeredQ.canonical(1.1, 0.5, 3.0)
    eta, b = long_time_constants(q, skew1)
    np.testing.assert_allclose(eta, [0.0])
    np.testing.assert_allclose(b, [2.0])


def test_long_constants_gaussian_case(skew1):
    q = LayeredQ.canonical(1.1, 2.5, 3.0)
    eta, b = long_time_constants(q, skew1)
    np.testing.assert_allclose(eta, [-1.0 / 1.5])
    np.testing.assert_allclose(b, [0.0])


def test_long_beta_two_rejected(skew1):
    q = LayeredQ.canonical(1.1, 2.0, 3.0)
    with pytest.raises(ValueError):
        long_time_constants(q, skew1)
    with pytest.raises(ValueError):
        gaussian_covariance(q, skew1)


def test_symmetric_constants_vanish(sym1):
    q = LayeredQ.canonical(1.3, 1.9, 2.0)
    for eta, b in (short_time_constants(q, sym1), long_time_constants(q, sym1)):
        np.testing.assert_allclose(eta, [0.0])
        np.testing.assert_allclose(b, [0.0])


def test_gaussian_covariance_closed_form():
    # d=1 symmetric pair of mass 1, (1.1, 2.5): 1/(2-a) + 1/(b-2) = 3.1111
    sigma = SphericalMeasure.symmetric_pair(1.0)
    q = LayeredQ.canonical(1.1, 2.5, 1.0)
    cov = gaussian_covariance(q, sigma)
    np.testing.assert_allclose(cov, [[1.0 / 0.9 + 1.0 / 0.5]], rtol=1e-14)
    assert abs(cov[0, 0] - 3.1111) < 2e-4


def test_gaussian_covariance_matches_quadrature():
    # closed form against the custom-q quadrature path of the same density
    sigma = SphericalMeasure.symmetric_pair(1.0)
    q = LayeredQ.canonical(1.1, 2.5, 1.0)
    q_fn = lambda r, xi: r ** -2.1 if r <= 1.0 else r ** -3.5
    qc = LayeredQ.custom(1.1, 2.5, q_fn, lambda xi: 1.0, lambda xi: 1.0)
    np.testing.assert_allclose(gaussian_covariance(qc, sigma),
                               gaussian_covariance(q, sigma), rtol=1e-8)


def test_gaussian_covariance_custom_beta_function():
    # blend q: int_0^oo r^2 q dr = B(2 - alpha, beta - 2), here B(0.3, 0.2); the
    # slow r^-1.2 tail needs the quadrature split at r = 1 to reach 1e-12
    from scipy.special import beta as beta_fn
    from layerlab import blend_q
    sigma = SphericalMeasure.symmetric_pair(1.0)
    np.testing.assert_allclose(gaussian_covariance(blend_q(1.7, 2.2), sigma),
                               [[beta_fn(0.3, 0.2)]], rtol=1e-12)


def test_limit_spec_validation():
    with pytest.raises(ValueError):
        LimitSpec("bogus", 1.0, 1.3, np.zeros(1), np.zeros(1))
    with pytest.raises(ValueError):
        LimitSpec(LONG_GAUSSIAN, 10.0, 1.5, np.zeros(1), np.zeros(1))
    with pytest.raises(ValueError):
        LimitSpec(SHORT_STABLE, -1.0, 1.3, np.zeros(1), np.zeros(1))


def test_rescale_terminal_linearity():
    spec = LimitSpec(SHORT_STABLE, 1e-2, 1.3, np.array([0.5]), np.array([0.2]))
    x = np.array([[1.0], [2.0]])
    hT = 1e-2
    scale = 1e-2 ** (-1.0 / 1.3)
    expect = scale * (x + hT * 0.5) - 1.0 * 0.2
    np.testing.assert_allclose(rescale_terminal(x, hT, spec), expect)


def test_rescale_terminal_long_sign():
    spec = LimitSpec(LONG_STABLE, 100.0, 1.9, np.array([0.0]), np.array([0.3]))
    out = rescale_terminal(np.array([[0.0]]), 100.0, spec)
    np.testing.assert_allclose(out, [[0.3]])


def test_null_limit_measure_is_zero(skew1):
    # c1 = 0 (q ~ r^-0.5 at 0) or c2 = 0 (q ~ r^-2.5 at infinity) make sigma1
    # or sigma2 the zero measure, so b = 0
    q1 = LayeredQ.custom(1.5, 0.8, lambda r, xi: (1 + r) ** -1.3 * r ** -0.5,
                         lambda xi: 0.0, lambda xi: 1.0)
    eta, b = short_time_constants(q1, skew1)
    np.testing.assert_array_equal(eta, [0.0])
    np.testing.assert_array_equal(b, [0.0])
    q2 = LayeredQ.custom(1.5, 0.8, lambda r, xi: r ** -2.5,
                         lambda xi: 1.0, lambda xi: 0.0)
    eta, b = long_time_constants(q2, skew1)
    np.testing.assert_array_equal(eta, [0.0])
    np.testing.assert_array_equal(b, [0.0])


def test_non_constant_c1_on_uniform_rejected():
    c1 = lambda xi: 1.0 if xi is None else 1.0 + 0.5 * xi[0]
    q = LayeredQ.custom(1.5, 0.8, lambda r, xi: c1(xi) * (1 + r) ** 0.7 * r ** -2.5,
                        c1, lambda xi: 1.0)
    with pytest.raises(ValueError, match="constant limit density"):
        short_time_constants(q, SphericalMeasure.uniform(2, 1.0))
