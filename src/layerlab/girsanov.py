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

from .mc import substream
from .qfunc import LayeredQ, derive_sigma_pair, levy_tail_mass
from .series import (SamplePath, ShotNoiseDraw, draw_shot_noise,
                     layered_path_canonical, make_grid, stable_path)
from .spherical import SphericalMeasure

LOG_WEIGHT_CLIP = 500.0

DEFAULT_EPS_SCHEDULE = tuple(0.5 ** k for k in range(21))   # 1, 1/2, ..., 2^-20


@dataclass(frozen=True)
class DensityRatio:
    """The log density ratio phi between a layered and a stable Levy measure."""

    q: LayeredQ
    c1_fn: Callable | None = None     # defaults to the q's own inner limit

    def c1(self, xi) -> float:
        return self.q.c1(xi) if self.c1_fn is None else float(self.c1_fn(xi))

    def phi(self, z) -> float:
        """ln( q(r, xi) / (c1(xi) r^{-alpha-1}) ) at z = r xi."""
        z = np.atleast_1d(np.asarray(z, dtype=float))
        r = float(np.linalg.norm(z))
        if r == 0.0:
            raise ValueError("phi is undefined at the origin")
        xi = z / r
        q = self.q
        if q.is_canonical and self.c1_fn is None:
            # exactly the stable density inside the unit ball
            return 0.0 if r <= 1.0 else (q.alpha - q.beta) * np.log(r)
        c1 = self.c1(xi)
        if c1 <= 0.0:
            raise ValueError("phi is undefined where c1 vanishes")
        return float(np.log(q.eval_q(r, xi) / (c1 * r ** (-q.alpha - 1.0))))

    def psi(self, z) -> float:
        """ln( q(r, xi) / (c2(xi) r^{-beta-1}) ), the outer-reference ratio."""
        z = np.atleast_1d(np.asarray(z, dtype=float))
        r = float(np.linalg.norm(z))
        if r == 0.0:
            raise ValueError("psi is undefined at the origin")
        xi = z / r
        q = self.q
        if q.is_canonical:
            return 0.0 if r > 1.0 else (q.beta - q.alpha) * np.log(r)
        c2 = q.c2(xi)
        if c2 <= 0.0:
            raise ValueError("psi is undefined where c2 vanishes")
        return float(np.log(q.eval_q(r, xi) / (c2 * r ** (-q.beta - 1.0))))


def drift_compatibility(q: LayeredQ, sigma: SphericalMeasure, k0, k1,
                        tol: float = 1e-9):
    """Check the mutual-absolute-continuity drift condition.

    Returns (compatible, required_difference): the layered drift k0 and the
    stable drift k1 must differ by a case-exact correction vector.
    """
    k0 = np.atleast_1d(np.asarray(k0, dtype=float))
    k1 = np.atleast_1d(np.asarray(k1, dtype=float))
    required = required_drift_difference(q, sigma)
    ok = bool(np.all(np.abs((k0 - k1) - required) <= tol))
    return ok, required


def required_drift_difference(q: LayeredQ, sigma: SphericalMeasure) -> np.ndarray:
    """The case-exact value of k0 - k1 for mutual absolute continuity."""
    a = q.alpha
    if a < 1.0:
        return sigma.integrate(lambda xi: q.radial_moment(1, 0.0, 1.0, xi), 1)

    def correction(xi) -> float:
        # int_0^1 r (q - c1 r^{-alpha-1}) dr; identically zero for canonical q
        if q.is_canonical:
            return 0.0
        c1 = q.c1(xi)
        val, err = integrate.quad(
            lambda r: r * (q.eval_q(r, xi) - c1 * r ** (-a - 1.0)), 0.0, 1.0,
            epsabs=1e-10, epsrel=1e-10, limit=200)
        if err > 1e-8 * max(1.0, abs(val)):
            raise RuntimeError("drift-correction quadrature did not converge")
        return val

    corr = sigma.integrate(correction, 1)
    if a == 1.0:
        return corr
    sigma1 = derive_sigma_pair(q, sigma).sigma1
    if sigma1 is None:                  # a null sigma1 (c1 = 0) is the zero measure
        return corr
    return sigma1.first_moment() / (a - 1.0) + corr


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


def u_from_jumps(ratio: DensityRatio, sigma: SphericalMeasure, jumps, t: float,
                 eps_schedule=DEFAULT_EPS_SCHEDULE):
    """Evaluate the Radon-Nikodym Levy process U_t from a path's jump list.

    Returns (value at the smallest eps, Cauchy increment between the last two
    eps levels); the increment certifies convergence of the compensated sum.
    """
    eps_schedule = sorted(set(float(e) for e in eps_schedule), reverse=True)
    if not eps_schedule or eps_schedule[-1] <= 0.0:
        raise ValueError("eps schedule must be positive and nonempty")
    times = np.asarray([tm for tm, _ in jumps], dtype=float)
    vecs = np.asarray([np.atleast_1d(v) for tm, v in jumps], dtype=float)
    if len(times):
        mask = times <= t
        times, vecs = times[mask], vecs[mask]
    mags = np.linalg.norm(vecs, axis=1) if len(vecs) else np.empty(0)
    values = []
    for eps in eps_schedule:
        keep = mags > eps
        s = float(sum(ratio.phi(v) for v in vecs[keep]))
        values.append(s - t * nu_gap(ratio.q, sigma, eps))
    cauchy = abs(values[-1] - values[-2]) if len(values) > 1 else 0.0
    return values[-1], cauchy


def u_canonical(alpha: float, beta: float, sigma_mass: float, jumps,
                t: float) -> float:
    """Closed-form U_t for the canonical q: only jumps above 1 contribute."""
    total = 0.0
    for tm, v in jumps:
        if tm <= t:
            r = float(np.linalg.norm(np.atleast_1d(v)))
            if r > 1.0:
                total += np.log(r)
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
    mT = sigma_mass * draw.T
    arg = idx * draw.gammas / mT
    keep = (arg <= 1.0) & (draw.times <= t)
    s = float(np.sum(np.log(arg[keep])))
    return (-(alpha - beta) / idx) * s - t * (1.0 / beta - 1.0 / alpha) * sigma_mass


def _path_functional(spec: str) -> Callable[[SamplePath], float]:
    """Parse a path functional: sup-exceeds:r, terminal-exceeds:r or one."""
    name, _, arg = spec.partition(":")
    if name == "sup-exceeds":
        r = float(arg)
        return lambda path: float(np.max(np.linalg.norm(path.values, axis=1)) > r)
    if name == "terminal-exceeds":
        r = float(arg)
        return lambda path: float(np.linalg.norm(path.terminal) > r)
    if name == "one":
        return lambda path: 1.0
    raise ValueError(f"unknown functional {spec!r}")


def rn_diagnostics(alpha: float, beta: float, sigma: SphericalMeasure,
                   functional: str, n_paths: int, seed: int, T: float = 1.0,
                   grid_n: int = 200, gamma_cap: float = 1e4) -> dict:
    """Radon-Nikodym check of the canonical layered law against its stable
    reference on shared series draws.

    The report holds the means of e^{U'_T} and e^{-U''_T} (both should be 1),
    the functional's expectation under the layered law reweighted from stable
    paths and estimated directly from an independent batch (seed + 777777),
    and how many log weights were clipped at +-LOG_WEIGHT_CLIP.
    """
    if alpha == beta:
        raise ValueError("alpha = beta is a degenerate change of measure")
    LayeredQ.canonical(alpha, beta, sigma.total_mass())     # checks both indices
    if n_paths < 2:
        raise ValueError(f"standard errors need at least two paths, got {n_paths}")
    f = _path_functional(functional)
    grid = make_grid(T, grid_n)
    m = sigma.total_mass()
    w_prime = np.empty(n_paths)
    w_dprime = np.empty(n_paths)
    f_stable = np.empty(n_paths)
    direct = np.empty(n_paths)
    clip_count = 0
    for i in range(n_paths):
        draw = draw_shot_noise(substream(seed, i), T, sigma, gamma_cap)
        lw_p = u_series(draw, alpha, beta, m, T, "prime")
        lw_d = -u_series(draw, alpha, beta, m, T, "doubleprime")
        clip_count += int(abs(lw_p) > LOG_WEIGHT_CLIP) + int(abs(lw_d) > LOG_WEIGHT_CLIP)
        w_prime[i] = np.exp(np.clip(lw_p, -LOG_WEIGHT_CLIP, LOG_WEIGHT_CLIP))
        w_dprime[i] = np.exp(np.clip(lw_d, -LOG_WEIGHT_CLIP, LOG_WEIGHT_CLIP))
        f_stable[i] = f(stable_path(alpha, sigma, draw, grid))
    for i in range(n_paths):
        draw = draw_shot_noise(substream(seed + 777777, i), T, sigma, gamma_cap)
        direct[i] = f(layered_path_canonical(alpha, beta, sigma, draw, grid))

    def mean_se(v):
        return float(np.mean(v)), float(np.std(v, ddof=1) / np.sqrt(len(v)))

    mean_w, se_w = mean_se(w_prime)
    rw_est, rw_se = mean_se(w_prime * f_stable)
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


def singularity_witness(ratio: DensityRatio, radii=None):
    """Evaluate psi toward the origin and report its divergence direction.

    The outer-stable reference is singular for alpha != beta; the witness is
    psi -> -oo (alpha < beta, mass condition fails) or +oo (alpha > beta,
    exponential-integrability condition fails).
    """
    q = ratio.q
    if q.alpha == q.beta:
        raise ValueError("alpha = beta is not singular")
    if radii is None:
        radii = np.logspace(-1, -8, 8)
    vals = np.array([ratio.psi(np.array([r])) for r in radii])
    direction = "-inf" if q.alpha < q.beta else "+inf"
    failing = ("mass of {psi < -1} under the outer stable measure"
               if q.alpha < q.beta else
               "exponential integrability of psi over {psi > 1}")
    return {
        "radii": np.asarray(radii, dtype=float),
        "psi": vals,
        "direction": direction,
        "failing_condition": failing,
    }
