"""Monte Carlo harnesses: reproducible parallel path sampling and an exact
big-jump sampler for regimes the raw series cannot reach.

The series truncated at gamma_cap discards all jumps smaller than roughly
(alpha gamma_cap / mass)^(-1/alpha); the variance thrown away scales like
cap^(-(2-alpha)/alpha), which is hopeless for alpha near 2 or for long
horizons.  The sampler below instead draws every jump above a cut radius
exactly (compound Poisson via the closed-form canonical inverse tail) and
replaces the small-jump remainder by a centered Gaussian with the matching
covariance (Asmussen and Rosinski 2001; Cohen and Rosinski 2007 for d > 1).
On an asymmetric measure it adds one drift, the mean of the jumps between
the cut radius and 1, so that its law keeps the layered centering of the
jumps up to radius 1.  The leading error term is the fourth cumulant of the
discarded part, negligible once the cut radius is well below the Gaussian
scale.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from .qfunc import LayeredQ, canonical_magnitudes, jump_mean
from .series import (MixDistribution, SeriesLaw, layered_law, mixed_law,
                     rejection_law, stable_law)
from .spherical import SphericalMeasure

MAX_RESULT_VALUES = 1e8    # the run-size budget of run_paths: 1e8 float64 results, 0.8 GB
BLOCK_JUMPS = 4096         # the compensated sampler draws ~this many jumps per substream
MAX_BLOCK_PATHS = 256


def worker_count() -> int:
    env = os.environ.get("LAYERLAB_THREADS")
    if env:
        if not env.strip().isdecimal() or int(env) < 1:
            raise ValueError(f"LAYERLAB_THREADS must be an integer >= 1, got {env!r}")
        return int(env)
    return os.cpu_count() or 1


def substream(seed: int, index: int) -> np.random.SeedSequence:
    """Independent per-path RNG substream; identical for any thread count."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(index,))


def _check_run_size(n_paths: int, d: int) -> None:
    if n_paths * d > MAX_RESULT_VALUES:
        raise ValueError(f"{n_paths} paths x {d} values exceed the run-size budget "
                         f"of {MAX_RESULT_VALUES:.0e} results (0.8 GB)")


def run_paths(fn: Callable[[np.random.SeedSequence, int], np.ndarray],
              n_paths: int, seed: int, d: int,
              threads: int | None = None) -> np.ndarray:
    """Evaluate fn on per-path substreams; results indexed by path number."""
    threads = worker_count() if threads is None else threads
    if threads < 1:
        raise ValueError("threads must be >= 1")
    _check_run_size(n_paths, d)
    out = np.empty((n_paths, d))
    # results do not depend on the thread count, so capping it changes nothing
    threads = min(threads, os.cpu_count() or 1)

    def work(block):
        for i in block:
            out[i] = fn(substream(seed, i), i)

    if threads == 1 or n_paths < 4:
        work(range(n_paths))
    else:
        blocks = np.array_split(np.arange(n_paths), threads * 4)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, [b for b in blocks if len(b)]))
    return out


# -- terminal samplers via the truncated series -----------------------


def terminals(law: SeriesLaw, n_paths: int, seed: int, T: float = 1.0,
              gamma_cap: float = 1e4, threads: int | None = None) -> np.ndarray:
    """X_T of the law's series on each per-path substream, without a grid or
    jump times: the path's X_T unless a skipped time was 0.0 (about n 2^-53)."""

    def one(ss, _i):
        return law.terminal(law.draw(ss, T, gamma_cap, _times=False))

    return run_paths(one, n_paths, seed, law.sigma.dimension, threads)


def stable_terminals(alpha: float, sigma: SphericalMeasure, n_paths: int,
                     seed: int, T: float = 1.0, gamma_cap: float = 1e4,
                     threads: int | None = None) -> np.ndarray:
    return terminals(stable_law(alpha, sigma), n_paths, seed, T, gamma_cap, threads)


def layered_terminals(alpha: float, beta: float, sigma: SphericalMeasure,
                      n_paths: int, seed: int, T: float = 1.0,
                      gamma_cap: float = 1e4,
                      threads: int | None = None) -> np.ndarray:
    q = LayeredQ.canonical(alpha, beta, sigma.total_mass())
    return terminals(layered_law(q, sigma), n_paths, seed, T, gamma_cap, threads)


def rejection_terminals(alpha: float, beta: float, sigma: SphericalMeasure,
                        base: str, n_paths: int, seed: int, T: float = 1.0,
                        gamma_cap: float = 1e4,
                        threads: int | None = None) -> np.ndarray:
    return terminals(rejection_law(alpha, beta, sigma, base), n_paths, seed, T,
                     gamma_cap, threads)


def mixed_terminals(mix: MixDistribution, sigma: SphericalMeasure,
                    n_paths: int, seed: int, T: float = 1.0,
                    gamma_cap: float = 1e4,
                    threads: int | None = None) -> np.ndarray:
    return terminals(mixed_law(mix, sigma), n_paths, seed, T, gamma_cap, threads)


# -- exact big-jump sampler -------------------------------------------


def auto_r_cut(q: LayeredQ, mass: float, horizon: float,
               target_jumps: float = 3000.0) -> float:
    """Cut radius aiming for ~target_jumps exact jumps per path, kept well
    below the small-jump Gaussian scale."""
    r = float(q.inverse_tail(target_jumps / horizon))
    std = np.sqrt(horizon * mass * q.radial_moment(2, 0.0, max(r, 1e-12)))
    return min(r, 0.3 * std) if std > 0 else r


def _gaussian_compensated_terminals(q: LayeredQ, sigma: SphericalMeasure,
                                    horizon: float, r_cut: float, n_paths: int,
                                    seed: int,
                                    threads: int | None = None) -> np.ndarray:
    # q is canonical with mass sigma.total_mass(); an alpha-stable law is the
    # canonical q with beta = alpha
    if r_cut <= 0.0 or horizon <= 0.0:
        raise ValueError("horizon and cut radius must be positive")
    m = sigma.total_mass()
    d = sigma.dimension
    # run_paths sees blocks, so the caller's count is checked here
    if n_paths < 0:
        raise ValueError(f"need a path count >= 0, got {n_paths}")
    _check_run_size(n_paths, d)
    tail = q.tail_integral(r_cut)
    rate = horizon * m * tail
    u_cut = m * tail
    cov = horizon * q.radial_moment(2, 0.0, r_cut) * sigma.second_moment()
    chol = np.linalg.cholesky(cov + 1e-12 * max(np.trace(cov), 1e-30) * np.eye(d))
    # the layered law centers the jumps up to 1; the sampler centers those up
    # to r_cut, so it adds the mean of the jumps between the two radii
    shift = None if sigma.is_symmetric() else horizon * (
        jump_mean(q, sigma, 1.0, r_cut) - jump_mean(q, sigma, r_cut, 1.0))

    # B paths share one substream; above 2048 jumps a path B = 1, which is
    # the per-path layout draw for draw
    block = int(min(max(BLOCK_JUMPS // rate, 1), MAX_BLOCK_PATHS))

    def one_block(ss, _b):
        rng = np.random.default_rng(ss)
        counts = rng.poisson(rate, block).tolist()
        z = rng.standard_normal((block, d))
        # the values of rng.uniform(0, u_cut), which adds 0.0; a jump above
        # r_cut inverts u ~ U(0, m Q(r_cut))
        levels = rng.random(sum(counts))
        levels *= u_cut
        mags = canonical_magnitudes(q.alpha, q.beta, levels, m, 1.0)
        dirs = sigma.sample_directions(rng, len(levels))
        out = np.empty((block, d))
        s = 0
        for j, c in enumerate(counts):
            total = chol @ z[j]
            if c:
                total = total + mags[s:s + c] @ dirs[s:s + c]
                s += c
            out[j] = total if shift is None else total + shift
        return out.ravel()

    n_blocks = -(-n_paths // block)
    return run_paths(one_block, n_blocks, seed, block * d, threads).reshape(-1, d)[:n_paths]


def stable_terminals_gaussian(alpha: float, sigma: SphericalMeasure,
                              horizon: float, r_cut: float, n_paths: int,
                              seed: int, threads: int | None = None) -> np.ndarray:
    """X_horizon of a symmetric alpha-stable process, exact above r_cut."""
    # an asymmetric measure would need the centering of StableCF.series_marginal,
    # which is not the truncation at 1 that the shift above restores
    if not sigma.is_symmetric():
        raise ValueError("the Gaussian-compensated stable sampler needs a symmetric measure")
    q = LayeredQ.canonical(alpha, alpha, sigma.total_mass())
    return _gaussian_compensated_terminals(q, sigma, horizon, r_cut,
                                           n_paths, seed, threads)


def layered_terminals_gaussian(alpha: float, beta: float,
                               sigma: SphericalMeasure, horizon: float,
                               r_cut: float, n_paths: int, seed: int,
                               threads: int | None = None) -> np.ndarray:
    """X_horizon of a canonical layered process, exact above r_cut.

    The law is the layered one with the small jumps centered up to radius 1,
    the law of the series and of LayeredQuadratureCF, on any measure.
    """
    q = LayeredQ.canonical(alpha, beta, sigma.total_mass())
    return _gaussian_compensated_terminals(q, sigma, horizon, r_cut,
                                           n_paths, seed, threads)
