"""Special-function helpers shared by the simulators and the CF oracles."""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gamma as _gamma, zeta as _zeta

EULER_GAMMA = float(np.euler_gamma)


def zeta(s: float) -> float:
    """Riemann zeta on s > 0, s != 1 (the series drift constant needs s in (1/2, 1))."""
    if s <= 0.0:
        raise ValueError(f"zeta: need s > 0, got {s}")
    if s == 1.0:
        raise ValueError("zeta: pole at s = 1")
    return float(_zeta(s))


def stable_cf_constant(alpha: float) -> float:
    """The constant multiplying the spherical integral in the stable CF exponent.

    |Gamma(-alpha) cos(pi alpha / 2)| for alpha != 1, and pi/2 at alpha = 1.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"stable index must lie in (0,2), got {alpha}")
    if alpha == 1.0:
        return math.pi / 2.0
    return abs(float(_gamma(-alpha)) * math.cos(math.pi * alpha / 2.0))


def isotropic_cf_constant(beta: float, d: int, sigma2_mass: float) -> float:
    """Constant c in exp(-c ||y||^beta) for the isotropic stable law with
    uniform spectral mass sigma2_mass on the sphere in R^d."""
    if not 0.0 < beta < 2.0:
        raise ValueError(f"need beta in (0,2), got {beta}")
    num = float(_gamma(d / 2.0)) * float(_gamma((2.0 - beta) / 2.0))
    den = 2.0 ** beta * beta * float(_gamma((beta + d) / 2.0))
    return num / den * sigma2_mass

