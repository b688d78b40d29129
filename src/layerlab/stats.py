"""Verification oracles: characteristic functions, ECF distances, tail and
variation diagnostics.

The CF targets are the ground truth that every simulator is tested against:
the closed-form stable CF, the isotropic stable CF with its boundary
constant, the Gaussian CF, and a Levy-Khintchine quadrature CF for layered
measures that have no closed form.  Each oracle's exponent(Y) gives the
log-CF at the n frequencies of Y, shape (n, d); a call gives the CF at one.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

from ._special import EULER_GAMMA, isotropic_cf_constant, stable_cf_constant
from .qfunc import LayeredQ, QuadratureError, _tail_groups
from .spherical import SphericalMeasure

GRID_AXIS_POINTS = 21     # per axis of the default frequency grid
MAX_PHASE_VALUES = 1e7    # samples x frequencies in cf_distance, ~0.4 GB of temporaries
HILL_RESAMPLES = 200      # bootstrap resamples in hill_ci
HILL_LEVEL = 0.95         # coverage of hill_ci's interval
# (sin x - x)/x^3 = sum_k c_k x^(2k), highest order first: to 2e-16 where |x| < 0.5
_SIN_SERIES = tuple((-1) ** (k + 1) / math.factorial(2 * k + 3) for k in range(6, -1, -1))


def _as_frequencies(Y, d: int) -> np.ndarray:
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[0] == 0 or Y.shape[1] != d or not np.all(np.isfinite(Y)):
        raise ValueError(f"need finite frequencies of shape (n >= 1, {d}), got {Y.shape}")
    return Y


def _as_samples(samples) -> np.ndarray:
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] == 0:
        raise ValueError(f"need samples as an (n, d >= 1) array, "
                         f"got shape {samples.shape}")
    bad = samples.size - np.count_nonzero(np.isfinite(samples))
    if samples.shape[0] == 0 or bad:
        raise ValueError(f"need n >= 1 finite samples, got shape {samples.shape} "
                         f"with {bad} non-finite values")
    return samples


class StableCF:
    """Exact alpha-stable characteristic function for a spherical measure."""

    def __init__(self, alpha: float, sigma: SphericalMeasure, eta=None):
        self.c = stable_cf_constant(alpha)      # refuses alpha outside (0, 2)
        self.alpha = alpha
        self.sigma = sigma
        self.eta = np.zeros(sigma.dimension) if eta is None else np.asarray(eta, float)

    @classmethod
    def series_marginal(cls, alpha: float, sigma: SphericalMeasure) -> "StableCF":
        """Target law of the shot-noise series at time 1 (its Lemma eta)."""
        if alpha == 1.0:
            eta = np.zeros(sigma.dimension)
        else:
            eta = sigma.first_moment() / (1.0 - alpha)
        return cls(alpha, sigma, eta)

    def exponent(self, Y) -> np.ndarray:
        Y = _as_frequencies(Y, self.sigma.dimension)
        a, w = self.sigma.project(Y, 96)
        re = np.abs(a)
        if self.alpha == 1.0:
            tau = self.eta - (1.0 - EULER_GAMMA) * self.sigma.first_moment()
            with np.errstate(divide="ignore", invalid="ignore"):
                im = np.where(a == 0.0, 0.0, (2.0 / np.pi) * a * np.log(re))
        else:
            tau = self.eta - self.sigma.first_moment() / (1.0 - self.alpha)
            re = re ** self.alpha
            im = -np.tan(np.pi * self.alpha / 2.0) * np.sign(a) * re
        return 1j * (Y @ tau) - self.c * (re @ w + 1j * (im @ w))

    def __call__(self, y) -> complex:
        return np.exp(self.exponent(np.reshape(y, (1, -1)))[0])


class IsotropicStableCF:
    """exp(-c ||y||^beta) with the boundary constant c_{beta,d}."""

    def __init__(self, beta: float, d: int, sigma2_mass: float):
        self.beta = beta
        self.d = d
        self.c = isotropic_cf_constant(beta, d, sigma2_mass)

    def exponent(self, Y) -> np.ndarray:
        return -self.c * np.linalg.norm(_as_frequencies(Y, self.d), axis=1) ** self.beta + 0j

    def __call__(self, y) -> complex:
        return complex(np.exp(self.exponent(np.reshape(y, (1, -1)))[0]))


class GaussianCF:
    """Centered Gaussian CF with a given covariance matrix."""

    def __init__(self, cov):
        self.cov = np.atleast_2d(np.asarray(cov, dtype=float))

    def exponent(self, Y) -> np.ndarray:
        Y = _as_frequencies(Y, self.cov.shape[0])
        return -0.5 * np.sum((Y @ self.cov) * Y, axis=1) + 0j

    def __call__(self, y) -> complex:
        return complex(np.exp(self.exponent(np.reshape(y, (1, -1)))[0]))


def _inner_exponent(q: LayeredQ, a: float, xi) -> complex:
    """int_0^1 (e^{iar} - 1 - iar) q(r) dr.

    With q = g(r) r^{-alpha-1}, g(0) = c1, the real part -(a^2/2) int sinc^2(ar/2)
    g r^{1-alpha} dr and the imaginary part a^3 int s(ar) g r^{2-alpha} dr,
    s(x) = (sin x - x)/x^3, are QUADPACK QAWS quadratures in u = r^(1/3): the
    weight takes the power of r at 0 for every q, and in r the bisection fell
    into step with the period of e^{iar} at some |a| above 1e3.
    """
    dens, c1, p = q.density(xi), q.c1(xi), q.alpha + 1.0
    sinc2 = lambda x: (math.sin(0.5 * x) / (0.5 * x)) ** 2 if x else 1.0

    def s(x):
        if abs(x) >= 0.5:
            return (math.sin(x) - x) / x ** 3
        acc, x2 = 0.0, x * x
        for c in _SIN_SERIES:
            acc = acc * x2 + c
        return acc

    parts = []
    # r = u^3 turns r^k dr into 3 u^(3k+2) du; both integrands keep one sign
    for kernel, k, scale in ((sinc2, 1.0 - q.alpha, -1.5 * a * a),
                             (s, 2.0 - q.alpha, 3.0 * a ** 3)):
        f = lambda u: kernel(a * (r := u * u * u)) * (dens(r) * r ** p if r else c1)
        val, err = integrate.quad(f, 0.0, 1.0, weight="alg", wvar=(3.0 * k + 2.0, 0.0),
                                  epsabs=0.0, epsrel=1e-10, limit=1000)
        if abs(scale) * err > 1e-8 * max(1.0, abs(scale * val)):
            raise QuadratureError("inner CF quadrature did not converge")
        parts.append(scale * val)
    return complex(*parts)


def _outer_exponent(q: LayeredQ, a: float, xi) -> complex:
    """int_1^oo (e^{iar} - 1) q(r) dr.

    Beyond R = max(1, 1/|a|) the -1 term gives exactly -Q(R) and the
    oscillatory parts use the QUADPACK Fourier transform, which needs the
    cycles of e^{iar} to be no longer than the decay of q: started at r = 1
    it returns about 0 in place of Q(1) for |a| <= 1e-5.  For |a| < 1 the
    stretch [1, R], under one radian, is a plain quadrature in log r.
    """
    if a == 0.0:
        return 0.0
    big = max(1.0, 1.0 / abs(a))
    dens = q.density(xi)
    re, re_err = integrate.quad(dens, big, np.inf, weight="cos", wvar=a, limit=400)
    im, im_err = integrate.quad(dens, big, np.inf, weight="sin", wvar=a, limit=400)
    if big > 1.0:
        # r q(r) at r = e^t; cos x - 1 as -2 sin^2(x/2), exact at small x
        rq = lambda t: math.exp(t) * dens(math.exp(t))
        kw = {"a": 0.0, "b": np.log(big), "epsabs": 1e-12, "epsrel": 1e-10, "limit": 200}
        re_in, re_in_err = integrate.quad(
            lambda t: -2.0 * math.sin(0.5 * a * math.exp(t)) ** 2 * rq(t), **kw)
        im_in, im_in_err = integrate.quad(lambda t: math.sin(a * math.exp(t)) * rq(t), **kw)
        re, re_err = re + re_in, re_err + re_in_err
        im, im_err = im + im_in, im_err + im_in_err
    # QUADPACK's Fourier-transform error estimate is conservative; treat
    # anything below 5e-7 as converged (cross-checked against an independent
    # quadrature in the test suite at 1e-6)
    if re_err > 5e-7 or im_err > 5e-7:
        raise QuadratureError("outer CF quadrature did not converge")
    return complex(re - q.tail_integral(big, xi), im)


class LayeredQuadratureCF:
    """Levy-Khintchine CF of a layered measure by adaptive radial quadrature, once per
    distinct (|a|, tail group of qfunc._tail_groups), as f(-a, xi) = conj f(a, xi)."""

    def __init__(self, q: LayeredQ, sigma: SphericalMeasure):
        self.q = q
        self.sigma = sigma
        self._cache: dict[tuple, complex] = {}
        # column k of sigma.project -> (its tail group, the group's representative,
        # at which q is read); a uniform sigma has no atoms: group 0 at xi = None
        self._tails = {k: (g, rep) for g, (rep, members) in enumerate(_tail_groups(q, sigma))
                       for k in members}

    def _atom_exponent(self, a: float, group: int, xi) -> complex:
        key = (round(abs(a), 14), group)
        if key not in self._cache:
            self._cache[key] = (_inner_exponent(self.q, abs(a), xi)
                                + _outer_exponent(self.q, abs(a), xi))
        return self._cache[key].conjugate() if a < 0.0 else self._cache[key]

    def exponent(self, Y) -> np.ndarray:
        Y = _as_frequencies(Y, self.sigma.dimension)
        a, w = self.sigma.project(Y, 48)
        tails = [self._tails.get(k, (0, None)) for k in range(a.shape[1])]
        psi = [[self._atom_exponent(x, *t) for x, t in zip(row, tails)] for row in a.tolist()]
        return np.array(psi, dtype=complex) @ w

    def __call__(self, y) -> complex:
        return np.exp(self.exponent(np.reshape(y, (1, -1)))[0])


def ecf(samples, y) -> complex:
    """Empirical characteristic function at a single frequency y."""
    samples = _as_samples(samples)
    y = _as_frequencies(np.reshape(y, (1, -1)), samples.shape[1])[0]
    return complex(np.mean(np.exp(1j * (samples @ y))))


def default_y_grid(d: int, half_width: float = 5.0, n: int = GRID_AXIS_POINTS) -> np.ndarray:
    """The default frequency grid: n points per axis on [-half_width, half_width]."""
    axis = np.linspace(-half_width, half_width, n)
    # keep 0 itself but no other point closer to 0 than 1e-9
    axis = axis[(axis == 0.0) | (np.abs(axis) >= 1e-9)]
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def cf_distance(samples, target, y_grid=None) -> float:
    """Max pointwise |ECF - target CF| over the frequency grid; an oracle's
    exponent is read once over the grid, any other callable y -> CF(y) per point.
    More than MAX_PHASE_VALUES samples x frequencies are refused before the
    default grid or the phases are built."""
    samples = _as_samples(samples)
    n, d = samples.shape
    Y = None if y_grid is None else _as_frequencies(y_grid, d)
    m = GRID_AXIS_POINTS ** d if Y is None else len(Y)
    if n * m > MAX_PHASE_VALUES:
        size = f"{GRID_AXIS_POINTS}^{d}" if Y is None else m
        raise ValueError(f"{n} samples x {size} frequencies exceed the budget of "
                         f"{MAX_PHASE_VALUES:.0e} phase values")
    Y = default_y_grid(d) if Y is None else Y
    phases = np.exp(1j * (samples @ Y.T)).mean(axis=0)
    targets = (np.exp(target.exponent(Y)) if hasattr(target, "exponent")
               else np.array([target(y) for y in Y]))
    return float(np.max(np.abs(phases - targets)))


def hill_tail_index(magnitudes, k: int | None = None) -> float:
    """Hill estimator of the Pareto tail index from positive magnitudes."""
    x = np.sort(np.asarray(magnitudes, dtype=float))
    n = len(x)
    if n < 2:
        raise ValueError("need at least two magnitudes")
    if np.any(x <= 0.0):
        raise ValueError("magnitudes must be strictly positive")
    if k is None:
        k = int(np.sqrt(n))
    if not 0 < k < n:
        raise ValueError(f"order count k must lie in (0, N), got k={k}, N={n}")
    top = x[n - k:]
    ref = x[n - k - 1]
    if ref == top[-1]:
        raise ValueError("degenerate sample: no spread in the upper order statistics")
    mean_log = np.mean(np.log(top / ref))
    return float(1.0 / mean_log)


def hill_ci(magnitudes, k: int | None = None, seed: int = 0):
    """The Hill estimate and its bootstrap confidence interval: HILL_LEVEL
    coverage from HILL_RESAMPLES resamples."""
    x = np.asarray(magnitudes, dtype=float)
    est = hill_tail_index(x, k)
    rng = np.random.default_rng(seed)
    n = len(x)
    boots = np.empty(HILL_RESAMPLES)
    for b in range(HILL_RESAMPLES):
        boots[b] = hill_tail_index(rng.choice(x, size=n, replace=True), k)
    lo, hi = np.quantile(boots, [(1 - HILL_LEVEL) / 2.0, (1 + HILL_LEVEL) / 2.0])
    return est, float(lo), float(hi)


def p_variation(path, p: float) -> float:
    """Grid p-variation sum of ||X_{t_{i+1}} - X_{t_i}||^p."""
    if p <= 0.0:
        raise ValueError("variation order must be positive")
    diffs = np.diff(path.values, axis=0)
    return float(np.sum(np.linalg.norm(diffs, axis=1) ** p))
