"""Constants and rescalings for the short- and long-time limit theorems.

Short time: h^{-1/alpha}(X_{ht} + ht*eta) - t*b converges to the stable law
with measure sigma1.  Long time: for beta < 2 the analogous beta-rescaling
converges to the stable law with sigma2 (with + t*b), and for beta > 2 the
sqrt(h) rescaling converges to a centered Brownian motion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mc, stats
from .qfunc import LayeredQ, jump_mean, limit_mean
from .spherical import SphericalMeasure

SHORT_STABLE = "short"
LONG_STABLE = "long-stable"
LONG_GAUSSIAN = "long-gaussian"


@dataclass(frozen=True)
class LimitSpec:
    """One scaling-limit scenario, ready to apply to simulated paths."""

    mode: str
    h: float
    index: float
    eta: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if self.mode not in (SHORT_STABLE, LONG_STABLE, LONG_GAUSSIAN):
            raise ValueError(f"unknown limit mode {self.mode!r}")
        if not 0.0 < self.h < np.inf:
            raise ValueError(f"horizon factor h must be positive and finite, got {self.h}")
        if self.mode == LONG_GAUSSIAN:
            if self.index != 2.0:
                raise ValueError("Gaussian mode rescales with index 2")
        elif not 0.0 < self.index < 2.0:
            raise ValueError("stable modes need an index in (0,2)")


def short_time_constants(q: LayeredQ, sigma: SphericalMeasure):
    """(eta, b) of the short-time theorem; limit law is stable(sigma1)."""
    a, b_idx = q.alpha, q.beta
    d = sigma.dimension
    if a < 1.0:
        eta = jump_mean(q, sigma, 0.0, 1.0)
    elif a > 1.0 and b_idx > 1.0:
        eta = -jump_mean(q, sigma, 1.0, np.inf)
    else:
        eta = np.zeros(d)
    b = np.zeros(d)
    if a > 1.0 and b_idx <= 1.0:
        b = limit_mean(q.c1, sigma) / (a - 1.0)
    return eta, b


def long_time_constants(q: LayeredQ, sigma: SphericalMeasure):
    """(eta, b) of the long-time theorem.

    For beta in (0,2) the limit law is stable(sigma2); for beta > 2 it is the
    Gaussian of gaussian_covariance and b is zero.  beta = 2 has no limit.
    """
    a, bt = q.alpha, q.beta
    d = sigma.dimension
    if bt == 2.0:
        raise ValueError("beta = 2 admits no long-time limit")
    if a < 1.0 and bt < 1.0:
        eta = jump_mean(q, sigma, 0.0, 1.0)
    elif bt > 1.0:
        eta = -jump_mean(q, sigma, 1.0, np.inf)
    else:
        eta = np.zeros(d)
    b = np.zeros(d)
    if a >= 1.0 and bt < 1.0:
        b = limit_mean(q.c2, sigma) / (1.0 - bt)
    return eta, b


def gaussian_covariance(q: LayeredQ, sigma: SphericalMeasure) -> np.ndarray:
    """Covariance of the beta > 2 Brownian limit: int zz' nu(dz)."""
    return sigma.integrate(lambda xi: q.radial_moment(2, 0.0, np.inf, xi), 2)


def rescale_terminal(x, hT: float, spec: LimitSpec) -> np.ndarray:
    """Rescale terminal values X_{hT} directly (vectorized over paths)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    t = hT / spec.h
    scale = spec.h ** (-1.0 / spec.index)
    out = scale * (x + hT * spec.eta)
    if spec.mode == SHORT_STABLE:
        out = out - t * spec.b
    elif spec.mode == LONG_STABLE:
        out = out + t * spec.b
    return out


def limit_target_and_samples(alpha: float, beta: float, sigma: SphericalMeasure,
                             mode: str, h: float, n_paths: int, seed: int):
    """Limit law, rescaled canonical layered terminals X_h, and the LimitSpec.

    mode is "short" (inner alpha-stable limit) or "long" (outer beta-stable
    limit for beta < 2, Brownian for beta > 2).  X_h comes from the
    Gaussian-compensated sampler with auto_r_cut's radius, on a symmetric
    or an asymmetric measure alike.
    """
    if n_paths < 1:
        raise ValueError(f"a limit check needs at least one path, got {n_paths}")
    m = sigma.total_mass()
    q = LayeredQ.canonical(alpha, beta, m)
    if mode == "short":
        eta, b = short_time_constants(q, sigma)
        spec = LimitSpec(SHORT_STABLE, h, alpha, eta, b)
        target = stats.StableCF.series_marginal(alpha, sigma)
    elif mode == "long":
        eta, b = long_time_constants(q, sigma)        # rejects beta = 2
        if beta < 2.0:
            spec = LimitSpec(LONG_STABLE, h, beta, eta, b)
            target = stats.StableCF.series_marginal(beta, sigma)
        else:
            spec = LimitSpec(LONG_GAUSSIAN, h, 2.0, eta, b)
            target = stats.GaussianCF(gaussian_covariance(q, sigma))
    else:
        raise ValueError(f"mode must be short or long, got {mode!r}")
    x = mc.layered_terminals_gaussian(alpha, beta, sigma, h, mc.auto_r_cut(q, m, h),
                                      n_paths, seed)
    return target, rescale_terminal(x, h, spec), spec
