"""Change-of-measure machinery between a layered process and its reference
stable process: the log density ratio phi, the Radon-Nikodym Levy process U
in jump-sum and series forms, drift compatibility, and the importance-sampling
diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate

from .mc import run_paths
from .qfunc import LayeredQ, QuadratureError, jump_mean, levy_tail_mass, limit_mean
from .series import (SamplePath, ShotNoiseDraw, draw_shot_noise,
                     layered_path_canonical, make_grid, stable_path)
from .spherical import SphericalMeasure

LOG_WEIGHT_CLIP = 500.0

EPS = 2.0 ** -20      # u_from_jumps sums the jumps above EPS


def _norms(points: np.ndarray) -> np.ndarray:
    # each row's own dot product, the rounding of np.linalg.norm on one vector
    return np.sqrt((points[:, None, :] @ points[:, :, None]).ravel())


@dataclass(frozen=True)
class DensityRatio:
    """Log density ratios of a layered Levy measure to its stable references,
    phi to the inner one (c1, alpha) and psi to the outer one (c2, beta).  Each
    takes one point of shape (d,) and returns a float, or n points of shape
    (n, d) and returns n values; a canonical q is closed form."""

    q: LayeredQ

    def phi(self, z):
        """ln( q(r, xi) / (c1(xi) r^{-alpha-1}) ) at z = r xi."""
        q = self.q
        return self._log_ratio(z, "phi", q.c1, q.alpha, q.alpha - q.beta, True)

    def psi(self, z):
        """ln( q(r, xi) / (c2(xi) r^{-beta-1}) ), the outer-reference ratio."""
        q = self.q
        return self._log_ratio(z, "psi", q.c2, q.beta, q.beta - q.alpha, False)

    def _log_ratio(self, z, name, c, index, coef, beyond_one):
        # a canonical q gives coef ln r beyond r = 1 (beyond_one) or up to it
        z = np.asarray(z, dtype=float)
        points = z.reshape(1, -1) if z.ndim < 2 else z
        r = _norms(points)
        if np.any(r == 0.0):
            raise ValueError(f"{name} is undefined at the origin")
        q = self.q
        if q.is_canonical:
            vals = np.where((r > 1.0) == beyond_one, coef * np.log(r), 0.0)
        else:
            xis = points / r[:, None]
            cs = [c(xi) for xi in xis]
            if min(cs, default=1.0) <= 0.0:
                raise ValueError(f"{name} is undefined where its reference density vanishes")
            vals = np.array([np.log(q.eval_q(ri, xi) / (ci * ri ** (-index - 1.0)))
                             for ri, xi, ci in zip(r.tolist(), xis, cs)])
        return float(vals[0]) if z.ndim < 2 else vals


def drift_compatibility(q: LayeredQ, sigma: SphericalMeasure, k0, k1):
    """Check the mutual-absolute-continuity drift condition.

    Returns (compatible, required_difference): the layered drift k0 and the
    stable drift k1 must differ by a case-exact correction vector, to within
    1e-9 in each component.
    """
    k0 = np.atleast_1d(np.asarray(k0, dtype=float))
    k1 = np.atleast_1d(np.asarray(k1, dtype=float))
    required = required_drift_difference(q, sigma)
    ok = bool(np.all(np.abs((k0 - k1) - required) <= 1e-9))
    return ok, required


def required_drift_difference(q: LayeredQ, sigma: SphericalMeasure) -> np.ndarray:
    """The case-exact value of k0 - k1 for mutual absolute continuity."""
    a = q.alpha
    if a < 1.0:
        return jump_mean(q, sigma, 0.0, 1.0)

    def correction(xi) -> float:
        # int_0^1 r (q - c1 r^{-alpha-1}) dr; identically zero for canonical q
        if q.is_canonical:
            return 0.0
        c1 = q.c1(xi)
        val, err = integrate.quad(
            lambda r: r * (q.eval_q(r, xi) - c1 * r ** (-a - 1.0)), 0.0, 1.0,
            epsabs=1e-10, epsrel=1e-10, limit=200)
        if not np.isfinite(val) or err > 1e-8 * max(1.0, abs(val)):
            raise QuadratureError("drift-correction quadrature did not converge")
        return val

    corr = sigma.integrate(correction, 1)
    if a == 1.0:
        return corr
    return limit_mean(q.c1, sigma) / (a - 1.0) + corr


def nu_gap(q: LayeredQ, sigma: SphericalMeasure, eps: float) -> float:
    """(nu_layered - nu_stable)({z : ||z|| > eps}) with the sigma1 reference."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    a = q.alpha
    if q.is_canonical:
        # closed form; the naive difference cancels two ~eps^-alpha terms
        m = sigma.total_mass()
        if eps <= 1.0:
            return m * (1.0 / q.beta - 1.0 / a)
        return m * (eps ** -q.beta / q.beta - eps ** -a / a)
    stable = sigma.integrate(q.c1) * eps ** (-a) / a
    return levy_tail_mass(q, sigma, eps) - stable


def u_from_jumps(ratio: DensityRatio, sigma: SphericalMeasure, jumps, t: float):
    """Evaluate the Radon-Nikodym Levy process U_t from SamplePath.jumps, the
    pair (times, (n, d) vectors): phi (one array call) summed over the jumps
    up to t above EPS in their order, less t nu_gap(EPS).  Returns (U_t,
    |U_t - U_t at 2 EPS|); the Cauchy increment certifies the sum converged."""
    times, vecs = jumps
    vecs = vecs[times <= t]
    mags = _norms(vecs)
    keep = mags > EPS
    phis = ratio.phi(vecs[keep])
    value, coarse = [sum(phis[mags[keep] > eps].tolist()) - t * nu_gap(ratio.q, sigma, eps)
                     for eps in (EPS, 2.0 * EPS)]
    return value, abs(value - coarse)


def u_canonical(alpha: float, beta: float, sigma_mass: float, jumps,
                t: float) -> float:
    """Closed-form U_t for the canonical q from a path's jumps: only jumps above 1 count."""
    times, vecs = jumps
    r = _norms(vecs[times <= t])
    total = sum(np.log(r[r > 1.0]).tolist(), 0.0)
    return (alpha - beta) * total - t * (1.0 / beta - 1.0 / alpha) * sigma_mass


def u_series(draw: ShotNoiseDraw, alpha: float, beta: float, sigma_mass: float,
             t: float, which: str = "prime") -> float:
    """Series version of U_t built from the draw shared with the path.

    which="prime" is the version along the stable (reference) series;
    which="doubleprime" is along the layered series.
    """
    if which == "prime":
        idx = alpha
    elif which == "doubleprime":
        idx = beta
    else:
        raise ValueError(f"which must be 'prime' or 'doubleprime', got {which!r}")
    if draw.times is None:
        raise ValueError("draw carries no jump times (a terminal-only draw)")
    # arg is the base of qfunc.stable_magnitudes; the log of the base is not
    # the log of the magnitude byte for byte, so the base is written out here
    mT = sigma_mass * draw.T
    arg = idx * draw.gammas / mT
    keep = (arg <= 1.0) & (draw.times <= t)
    s = float(np.sum(np.log(arg[keep])))
    return (-(alpha - beta) / idx) * s - t * (1.0 / beta - 1.0 / alpha) * sigma_mass


def _path_functional(spec: str) -> Callable[[SamplePath], float]:
    """Parse a path functional: sup-exceeds:r, terminal-exceeds:r or one."""
    name, colon, arg = spec.partition(":")
    if name == "one":
        if colon:
            raise ValueError(f"functional 'one' takes no level, got {spec!r}")
        return lambda path: 1.0
    if name not in ("sup-exceeds", "terminal-exceeds"):
        raise ValueError(f"unknown functional {spec!r}")
    r = float(arg)
    if not np.isfinite(r):
        raise ValueError(f"functional level must be finite, got {spec!r}")
    if name == "sup-exceeds":
        return lambda path: float(np.max(np.linalg.norm(path.values, axis=1)) > r)
    return lambda path: float(np.linalg.norm(path.terminal) > r)


def rn_diagnostics(alpha: float, beta: float, sigma: SphericalMeasure,
                   functional: str, n_paths: int, seed: int, T: float = 1.0,
                   grid_n: int = 200, gamma_cap: float = 1e4) -> dict:
    """Radon-Nikodym check of the canonical layered law against its stable
    reference on shared series draws, as two run_paths batches on one thread.

    The report holds the means of e^{U'_T} and e^{-U''_T} (both should be 1),
    the functional's expectation under the layered law reweighted from stable
    paths and estimated directly from an independent batch (seed + 777777, the
    same substreams at any LAYERLAB_THREADS), and how many log weights were
    clipped at +-LOG_WEIGHT_CLIP.
    """
    if alpha == beta:
        raise ValueError("alpha = beta is a degenerate change of measure")
    LayeredQ.canonical(alpha, beta, sigma.total_mass())     # checks both indices
    if n_paths < 2:
        raise ValueError(f"standard errors need at least two paths, got {n_paths}")
    f = _path_functional(functional)
    grid = make_grid(T, grid_n)
    m = sigma.total_mass()

    def stable_side(ss, _i):
        # U'_T, -U''_T (the log weights) and f of the stable path on one draw
        draw = draw_shot_noise(ss, T, sigma, gamma_cap)
        return (u_series(draw, alpha, beta, m, T, "prime"),
                -u_series(draw, alpha, beta, m, T, "doubleprime"),
                f(stable_path(alpha, sigma, draw, grid)))

    def layered_side(ss, _i):
        draw = draw_shot_noise(ss, T, sigma, gamma_cap)
        return f(layered_path_canonical(alpha, beta, sigma, draw, grid))

    # one thread: two run these short per-path calls slower than one
    first = run_paths(stable_side, n_paths, seed, 3, threads=1)
    direct = run_paths(layered_side, n_paths, seed + 777777, 1, threads=1)[:, 0]
    clip_count = int(np.count_nonzero(np.abs(first[:, :2]) > LOG_WEIGHT_CLIP))
    w_prime, w_dprime = np.exp(np.clip(first[:, :2], -LOG_WEIGHT_CLIP, LOG_WEIGHT_CLIP)).T

    def mean_se(v):
        return float(np.mean(v)), float(np.std(v, ddof=1) / np.sqrt(len(v)))

    mean_w, se_w = mean_se(w_prime)
    rw_est, rw_se = mean_se(w_prime * first[:, 2])
    di_est, di_se = mean_se(direct)
    return {
        "alpha": alpha,
        "beta": beta,
        "paths": n_paths,
        "mean_weight": mean_w,
        "mean_weight_se": se_w,
        "mean_weight_doubleprime": mean_se(w_dprime)[0],
        "functional": functional,
        "reweighted_estimate": rw_est,
        "reweighted_se": rw_se,
        "direct_estimate": di_est,
        "direct_se": di_se,
        "combined_se": float(np.hypot(rw_se, di_se)),
        "clip_count": clip_count,
        "normalization_ok": bool(abs(mean_w - 1.0) < 4.0 * se_w),
        "agreement_ok": bool(abs(rw_est - di_est) < 4.0 * np.hypot(rw_se, di_se)),
    }


def u_levy_tail(alpha: float, beta: float, sigma_mass: float, y: float) -> float:
    """Tail of the Levy measure of U_1 for the canonical q.

    For alpha < beta the measure sits on (-oo, 0) and the tail is nu(-oo, y)
    at y < 0; for alpha > beta it sits on (0, oo) and the tail is nu(y, oo)
    at y > 0.  Both equal (sigma_mass/alpha) exp(-alpha y / (alpha - beta)):
    under the alpha-stable reference the contributing jumps arrive at rate
    sigma_mass/alpha and each contributes ((alpha-beta)/alpha) times a unit
    exponential, so the tail decays exponentially away from 0 at rate
    alpha/|alpha - beta|.
    """
    if alpha == beta:
        raise ValueError("U vanishes identically when alpha = beta")
    if alpha < beta and y >= 0.0:
        raise ValueError("for alpha < beta the Levy measure of U sits on (-oo,0)")
    if alpha > beta and y <= 0.0:
        raise ValueError("for alpha > beta the Levy measure of U sits on (0,oo)")
    return sigma_mass / alpha * np.exp(-alpha / (alpha - beta) * y)


def singularity_witness(ratio: DensityRatio):
    """Evaluate psi at the radii 10^-1, ..., 10^-8 toward the origin and
    report its divergence direction.

    The outer-stable reference is singular for alpha != beta; the witness is
    psi -> -oo (alpha < beta, mass condition fails) or +oo (alpha > beta,
    exponential-integrability condition fails).
    """
    q = ratio.q
    if q.alpha == q.beta:
        raise ValueError("alpha = beta is not singular")
    radii = np.logspace(-1, -8, 8)
    vals = ratio.psi(radii[:, None])
    direction = "-inf" if q.alpha < q.beta else "+inf"
    failing = ("mass of {psi < -1} under the outer stable measure"
               if q.alpha < q.beta else
               "exponential integrability of psi over {psi > 1}")
    return {
        "radii": radii,
        "psi": vals,
        "direction": direction,
        "failing_condition": failing,
    }
