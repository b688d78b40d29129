"""The special-function helpers against mpmath references."""

import mpmath
import numpy as np
import pytest

from layerlab._special import (EULER_GAMMA, isotropic_cf_constant,
                               stable_cf_constant, zeta)


def test_euler_gamma():
    assert abs(EULER_GAMMA - float(mpmath.euler)) < 1e-15


@pytest.mark.parametrize("s", [0.1, 0.4, 1 / 1.9, 1 / 1.5, 0.9, 1 / 1.1, 0.99])
def test_zeta_against_mpmath(s):
    assert abs(zeta(s) - float(mpmath.zeta(s))) < 1e-12 * max(1.0, abs(float(mpmath.zeta(s))))


def test_zeta_rejects_pole_and_nonpositive():
    with pytest.raises(ValueError):
        zeta(1.0)
    with pytest.raises(ValueError):
        zeta(0.0)


@pytest.mark.parametrize("a", [0.3, 0.5, 1.3, 1.9, 1.95])
def test_stable_cf_constant(a):
    ref = abs(float(mpmath.gamma(-a)) * float(mpmath.cos(mpmath.pi * a / 2)))
    assert abs(stable_cf_constant(a) - ref) < 1e-12 * ref


def test_stable_cf_constant_alpha_one():
    assert abs(stable_cf_constant(1.0) - np.pi / 2.0) < 1e-15


def test_isotropic_constant_formula():
    beta, d, mass = 1.5, 3, 2.0
    ref = (float(mpmath.gamma(d / 2)) * float(mpmath.gamma((2 - beta) / 2))
           / (2 ** beta * beta * float(mpmath.gamma((beta + d) / 2)))) * mass
    assert abs(isotropic_cf_constant(beta, d, mass) - ref) < 1e-12 * ref


def test_isotropic_constant_boundary_limit():
    # with mass d(2-beta) the constant tends to 1/2 as beta -> 2
    for beta, tol in [(1.99, 0.02), (1.999, 2e-3), (1.9999, 2e-4)]:
        d = 2
        c = isotropic_cf_constant(beta, d, d * (2.0 - beta))
        assert abs(c - 0.5) < tol
