"""Constants and rescalings for the short- and long-time limit theorems.

Short time: h^{-1/alpha}(X_{ht} + ht*eta) - t*b converges to the stable law
with measure sigma1.  Long time: for beta < 2 the analogous beta-rescaling
converges to the stable law with sigma2 (with + t*b), and for beta > 2 the
sqrt(h) rescaling converges to a centered Brownian motion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

from . import mc, stats
from .qfunc import LayeredQ, derive_sigma_pair
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
    target: object = field(default=None, compare=False)

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


def _inner_r_integral(q: LayeredQ, xi) -> float:
    """int_0^1 r q(r, xi) dr."""
    if q.is_canonical:
        if q.alpha >= 1.0:
            raise ValueError("int_0^1 r q dr diverges for alpha >= 1")
        return 1.0 / (1.0 - q.alpha)
    val, err = integrate.quad(lambda r: r * q.eval_q(r, xi), 0.0, 1.0,
                              epsabs=1e-10, epsrel=1e-10, limit=200)
    if not np.isfinite(val) or err > 1e-8 * max(1.0, abs(val)):
        raise RuntimeError("inner radial quadrature did not converge")
    return val


def _outer_r_integral(q: LayeredQ, xi) -> float:
    """int_1^oo r q(r, xi) dr."""
    if q.beta <= 1.0:
        raise ValueError("int_1^oo r q dr diverges for beta <= 1")
    if q.is_canonical:
        return 1.0 / (q.beta - 1.0)
    val, err = integrate.quad(lambda r: r * q.eval_q(r, xi), 1.0, np.inf,
                              epsabs=1e-10, epsrel=1e-10, limit=200)
    if not np.isfinite(val) or err > 1e-8 * max(1.0, abs(val)):
        raise RuntimeError("outer radial quadrature did not converge")
    return val


def _weighted_direction_integral(sigma: SphericalMeasure, radial) -> np.ndarray:
    """int xi * radial(xi) sigma(dxi) for a scalar radial functional."""
    if sigma.is_uniform:
        return np.zeros(sigma.dimension)
    return np.sum([w * radial(xi) * xi
                   for xi, w in zip(sigma.atoms, sigma.weights)], axis=0)


def short_time_constants(q: LayeredQ, sigma: SphericalMeasure):
    """(eta, b) of the short-time theorem; limit law is stable(sigma1)."""
    a, b_idx = q.alpha, q.beta
    d = sigma.dimension
    if a < 1.0:
        eta = _weighted_direction_integral(sigma, lambda xi: _inner_r_integral(q, xi))
    elif a > 1.0 and b_idx > 1.0:
        eta = -_weighted_direction_integral(sigma, lambda xi: _outer_r_integral(q, xi))
    else:
        eta = np.zeros(d)
    if a > 1.0 and b_idx <= 1.0:
        sigma1 = derive_sigma_pair(q, sigma).sigma1
        b = sigma1.first_moment() / (a - 1.0)
    else:
        b = np.zeros(d)
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
    if bt > 2.0:
        eta = -_weighted_direction_integral(sigma, lambda xi: _outer_r_integral(q, xi))
        return eta, np.zeros(d)
    if a < 1.0 and bt < 1.0:
        eta = _weighted_direction_integral(sigma, lambda xi: _inner_r_integral(q, xi))
    elif bt > 1.0:
        eta = -_weighted_direction_integral(sigma, lambda xi: _outer_r_integral(q, xi))
    else:
        eta = np.zeros(d)
    if a >= 1.0 and bt < 1.0:
        sigma2 = derive_sigma_pair(q, sigma).sigma2
        b = sigma2.first_moment() / (1.0 - bt)
    else:
        b = np.zeros(d)
    return eta, b


def gaussian_covariance(q: LayeredQ, sigma: SphericalMeasure) -> np.ndarray:
    """Covariance of the beta > 2 Brownian limit: int zz' nu(dz)."""
    if q.beta <= 2.0:
        raise ValueError("second moment of the Levy measure diverges for beta <= 2")
    if q.is_canonical:
        radial = 1.0 / (2.0 - q.alpha) + 1.0 / (q.beta - 2.0)
        return sigma.second_moment() * radial
    if sigma.is_uniform:
        val, err = integrate.quad(lambda r: r * r * q.eval_q(r, None), 0.0, np.inf,
                                  epsabs=1e-10, epsrel=1e-10, limit=300)
        if err > 1e-8 * max(1.0, abs(val)):
            raise RuntimeError("radial quadrature did not converge")
        return (sigma.total_mass() / sigma.dimension) * val * np.eye(sigma.dimension)
    total = np.zeros((sigma.dimension, sigma.dimension))
    for xi, w in zip(sigma.atoms, sigma.weights):
        val, err = integrate.quad(lambda r: r * r * q.eval_q(r, xi), 0.0, np.inf,
                                  epsabs=1e-10, epsrel=1e-10, limit=300)
        if err > 1e-8 * max(1.0, abs(val)):
            raise RuntimeError("radial quadrature did not converge")
        total += w * val * np.outer(xi, xi)
    return total


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
                             mode: str, h: float, n_paths: int, seed: int,
                             gamma_cap: float = 1e4):
    """Limit law, rescaled canonical layered terminals X_h, and the LimitSpec.

    mode is "short" (inner alpha-stable limit) or "long" (outer beta-stable
    limit for beta < 2, Brownian for beta > 2).  Symmetric measures use the
    Gaussian-compensated sampler; asymmetric ones the centered series with
    cap gamma_cap / min(h, 1).
    """
    if n_paths < 1:
        raise ValueError(f"a limit check needs at least one path, got {n_paths}")
    # the symmetric sampler never reads gamma_cap, so check it here
    if not 0.0 < gamma_cap < np.inf:
        raise ValueError(f"gamma_cap must be positive and finite, got {gamma_cap}")
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
    if sigma.is_symmetric():
        x = mc.layered_terminals_gaussian(alpha, beta, sigma, h, mc.auto_r_cut(q, m, h),
                                          n_paths, seed)
    else:
        x = mc.layered_terminals(alpha, beta, sigma, n_paths, seed, T=h,
                                 gamma_cap=gamma_cap / min(h, 1.0))
    return target, rescale_terminal(x, h, spec), spec
