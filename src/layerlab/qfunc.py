"""The layered radial density q, its radial moments and generalized inverse tail.

The canonical two-layer density is

    q(r) = r^(-alpha-1) on (0, 1],   r^(-beta-1) on (1, oo),

independent of the direction, so its limit densities are c1 = c2 = 1 and the
limit measures c1 sigma, c2 sigma equal the base measure.  The inverse tail
is taken with respect to the *mass-scaled* tail  u -> sigma_mass * Q(r),
which is the mapping the shot-noise series inverts: with sigma_mass equal to
the total mass of the accompanying spherical measure, the expected number of
jumps of size > r on [0, T] is T * sigma_mass * Q(r).

LayeredQ.radial_moment is every integral of r^k q dr: the tail Q(r) is its
order-0 moment on (r, oo).

The canonical inverse is the closed form canonical_magnitudes.  A custom q
is inverted through a table built lazily once per direction xi: Q at
log-spaced radii over [1e-8, 1e8] (a node sits at r = 1, where radial_moment
splits), summed downward from one tail_integral anchor at the top node over
Gauss-Legendre cell integrals in log r.  np.interp in log-log on the table
gives the first guess, and a safeguarded Newton step in log r, with Q(r) =
Q(next node) + the cell integral up to that node, polishes it until
|Q - u| <= 1e-13 u.  Levels outside the table, cells whose quadrature fails
its check and entries that do not converge fall back to a Brent search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy import integrate, optimize


class QuadratureError(RuntimeError):
    """Raised when an adaptive quadrature fails to reach its tolerance."""


_ASYMPTOTIC_TOL = 0.05

# custom-q inverse table: 8 nodes per decade of r over [1e-8, 1e8]; the log
# grid holds 0.0 exactly, so r = 1 is a node
_LOG_R_NODES = np.log(10.0) * np.arange(-64, 65) / 8.0
_GAUSS_HIGH = np.polynomial.legendre.leggauss(12)
_GAUSS_LOW = np.polynomial.legendre.leggauss(8)
_CELL_RTOL = 1e-13        # high vs low rule on a cell; beyond it, tail_integral
_NEWTON_RTOL = 1e-13      # |Q(r) - u| <= _NEWTON_RTOL * u ends the polish
_NEWTON_STEPS = 8


class _TailTable(NamedTuple):
    """Q of one direction at the nodes, stored for an increasing level."""

    log_r: np.ndarray         # node log radii, decreasing
    level: np.ndarray         # Q at those nodes, increasing
    log_level: np.ndarray
    cell_ok: np.ndarray       # cell between nodes i-1 and i passed its check


@dataclass(frozen=True)
class LayeredQ:
    """Radial jump density with inner index alpha and outer index beta."""

    alpha: float
    beta: float
    sigma_mass: float | None = None              # canonical variant
    q_fn: Callable | None = None                 # custom variant: q(r, xi)
    c1_fn: Callable | None = None                # xi -> limit density at 0
    c2_fn: Callable | None = None                # xi -> limit density at oo
    _tables: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)         # custom variant: xi -> _TailTable

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ValueError(f"inner index alpha must lie in (0,2), got {self.alpha}")
        if not 0.0 < self.beta < np.inf:
            raise ValueError(f"outer index beta must be positive and finite, got {self.beta}")
        if self.is_canonical:
            if not self.sigma_mass > 0:
                raise ValueError("canonical q needs a positive sigma_mass")
        else:
            if self.q_fn is None or self.c1_fn is None or self.c2_fn is None:
                raise ValueError("custom q needs q_fn, c1_fn and c2_fn")
            self._check_asymptotics()

    # -- constructors -------------------------------------------------

    @classmethod
    def canonical(cls, alpha: float, beta: float, sigma_mass: float) -> "LayeredQ":
        return cls(alpha=alpha, beta=beta, sigma_mass=float(sigma_mass))

    @classmethod
    def custom(cls, alpha, beta, q_fn, c1_fn, c2_fn) -> "LayeredQ":
        return cls(alpha=alpha, beta=beta, q_fn=q_fn, c1_fn=c1_fn, c2_fn=c2_fn)

    @property
    def is_canonical(self) -> bool:
        return self.sigma_mass is not None

    @property
    def tail_scale(self) -> float:
        """Mass factor between the plain tail integral and the inverted tail."""
        return self.sigma_mass if self.is_canonical else 1.0

    def _check_asymptotics(self):
        # construction-time spot check of the two power-law limits
        xi = None
        for r, exponent, limit in ((1e-6, self.alpha, self.c1_fn),
                                   (1e6, self.beta, self.c2_fn)):
            target = limit(xi)
            if target == 0.0:
                continue
            got = self.q_fn(r, xi) * r ** (exponent + 1.0)
            if abs(got / target - 1.0) > _ASYMPTOTIC_TOL:
                raise ValueError(
                    f"custom q violates its power-law limit at r={r:g}: "
                    f"q*r^(idx+1)={got:g}, expected ~{target:g}")

    # -- pointwise evaluation -----------------------------------------

    def eval_q(self, r: float, xi=None) -> float:
        """Density value q(r, xi); r must be positive."""
        if r <= 0.0:
            raise ValueError(f"q is defined for r > 0, got {r}")
        return float(self.density(xi)(r))

    def density(self, xi=None) -> Callable[[float], float]:
        """r -> q(r, xi) for r > 0 as a lean scalar closure, without eval_q's
        check: the integrand of a quadrature."""
        if self.is_canonical:
            inner, outer = -self.alpha - 1.0, -self.beta - 1.0
            return lambda r: r ** inner if r <= 1.0 else r ** outer
        return lambda r: self.q_fn(r, xi)

    def c1(self, xi=None) -> float:
        return 1.0 if self.is_canonical else float(self.c1_fn(xi))

    def c2(self, xi=None) -> float:
        return 1.0 if self.is_canonical else float(self.c2_fn(xi))

    def radial_moment(self, k: float, lo: float, hi: float, xi=None) -> float:
        """int_lo^hi r^k q(r, xi) dr, where hi may be inf; tail_integral is k = 0.

        The range is split at r = 1, where the two power laws meet: r^k q
        behaves like r^(e-1), e = k - alpha below 1 and k - beta above.  The
        canonical q has a closed form there.  A custom q is integrated in v =
        r^e (t = log r at e = 0), where the integrand is bounded, and raises
        QuadratureError when a quadrature fails its check; both raise it on a
        float overflow.  A non-finite order or a NaN or negative bound raises
        ValueError, as does a divergent integral (lo = 0 with k <= alpha, hi =
        inf with k >= beta); a reversed range reads 0.0.
        """
        if not math.isfinite(k):
            raise ValueError(f"radial moment needs a finite order, got {k}")
        if not (lo >= 0.0 and hi >= 0.0):         # NaN fails too
            raise ValueError(f"radial moment needs bounds >= 0, got [{lo}, {hi}]")
        if lo == 0.0 and k <= self.alpha:
            raise ValueError(f"int_0 r^{k} q dr diverges for alpha = {self.alpha}")
        if hi == np.inf and k >= self.beta:
            raise ValueError(f"int^oo r^{k} q dr diverges for beta = {self.beta}")
        total = 0.0
        for a, b, index, inner in ((lo, min(hi, 1.0), self.alpha, True),
                                   (max(lo, 1.0), hi, self.beta, False)):
            if not a < b:
                continue
            e = k - index
            try:
                if self.is_canonical:
                    # r^(k - index - 1); 0**e and inf**e are 0.0 on a convergent piece
                    total += np.log(b / a) if e == 0.0 else (b ** e - a ** e) / e
                else:
                    total += self._custom_moment(k, e, a, b, xi, inner)
            except OverflowError as exc:          # Python-float ** near r = 0
                raise QuadratureError(f"radial moment of order {k} on [{lo:g}, {hi:g}] "
                                      f"overflows a float ({exc.args[-1]})") from exc
        return total

    def _custom_moment(self, k: float, e: float, a: float, b: float, xi,
                       inner: bool) -> float:
        # int_a^b r^k q dr in v = r^e, as q(v^(1/e)) v^((k+1)/e - 1) dv / |e|,
        # which tends to c/|e| where r^k q ~ c r^(e-1) (at e = 0, in t = log r)
        if e == 0.0:
            f = lambda t: math.exp(t) ** (k + 1.0) * self.q_fn(math.exp(t), xi)
            ends, width = [math.log(a), math.log(b)], 1.0
        else:
            p, w, width = 1.0 / e, (k + 1.0) / e - 1.0, abs(e)
            f = lambda v: self.q_fn(v ** p, xi) * v ** w / width
            ends = sorted((a ** e, b ** e))
        # Below r = 1 the limiting constant c1/|e| is integrated analytically
        # and only the remainder by quadrature, over segments of a factor 100
        # in v where v grows without bound (e < 0): on the long near-constant
        # stretch QUADPACK's extrapolation and error estimate fall into
        # roundoff.  A last segment shorter than a relative 1e-9, too short
        # to bisect, joins the one before.
        head = self.c1(xi) / width if inner else 0.0
        main = head * (ends[1] - ends[0])
        cuts = [ends[0]]
        while inner and e < 0.0 and cuts[-1] * 100.0 * (1.0 + 1e-9) < ends[1]:
            cuts.append(cuts[-1] * 100.0)
        cuts.append(ends[1])
        tol = ({"epsabs": 1e-12 * max(main, b ** e), "epsrel": 1e-10} if inner
               else {"epsabs": 0.0, "epsrel": 1e-11})
        val = err = 0.0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            piece, piece_err = integrate.quad(lambda v: f(v) - head, lo, hi, limit=200, **tol)
            val += piece
            err += piece_err
        if not np.isfinite(val) or err > 1e-8 * max(main + val, 1e-300):
            raise QuadratureError(f"radial moment of order {k} on [{a}, {b}] did not converge")
        return main + val

    # -- tail integral and inverse ------------------------------------

    def tail_integral(self, r: float, xi=None) -> float:
        """Q(r, xi) = integral of q(s, xi) ds over (r, oo): radial_moment(0, r,
        inf, xi), for r > 0."""
        if not r > 0.0:                   # NaN fails too
            raise ValueError(f"tail integral needs r > 0, got {r}")
        return self.radial_moment(0, r, np.inf, xi)

    def inverse_tail(self, u, xi=None):
        """Generalized inverse of r -> tail_scale * Q(r, xi) at level u.

        u may be a scalar or a 1-d array; the result has the same shape.  The
        canonical variant is canonical_magnitudes.  A custom q is inverted on its
        table for xi (built on first use, then cached per xi) with a Newton
        polish to |Q - u| <= 1e-13 u; levels outside the table and entries
        the polish does not settle use the Brent search over tail_integral.
        """
        u = _positive_levels(u)
        if self.is_canonical:
            return canonical_magnitudes(self.alpha, self.beta, u, self.sigma_mass, 1.0)
        out = self._table_inverse(np.atleast_1d(np.asarray(u, dtype=float)), xi)
        return out if np.ndim(u) else float(out[0])

    def _table_inverse(self, u: np.ndarray, xi) -> np.ndarray:
        tab = self._table(xi)
        n_cells = len(tab.level) - 1
        # level[j-1] < u <= level[j]: the root lies in the cell whose nodes
        # are j (smaller r) and j-1 (larger r)
        j = np.searchsorted(tab.level, u, side="left")
        inside = (j >= 1) & (j <= n_cells)
        inside[inside] = tab.cell_ok[j[inside]]
        out = np.full(u.shape, np.nan)
        idx = np.flatnonzero(inside)
        j, uu = j[idx], u[idx]
        lo, hi = tab.log_r[j], tab.log_r[j - 1]
        top, q_top = hi, tab.level[j - 1]
        g = np.clip(np.interp(np.log(uu), tab.log_level, tab.log_r), lo, hi)
        # every operation is entrywise, so an entry's bytes do not depend on
        # the others: the caller may pool levels, and the working arrays
        # shrink only on a step where some entry finished
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(_NEWTON_STEPS):
                if not idx.size:
                    break
                # Q(e^g) = Q(e^top) + the integral of q from e^g up to e^top
                integral, slope = self._log_integral(g, top, xi, _GAUSS_HIGH)
                f = q_top + integral - uu
                # Q falls with log r, so Q > u puts the root above g
                lo = np.where(f > 0.0, g, lo)
                hi = np.where(f < 0.0, g, hi)
                step = g + f / slope
                safe = (step > lo) & (step < hi)
                done = np.abs(f) <= _NEWTON_RTOL * uu
                if done.any():
                    out[idx[done]] = np.exp(np.where(safe, step, g)[done])
                    keep = ~done
                    idx, uu, step, safe, lo, hi, top, q_top = (
                        x[keep] for x in (idx, uu, step, safe, lo, hi, top, q_top))
                g = np.where(safe, step, 0.5 * (lo + hi))
        for i in np.flatnonzero(np.isnan(out)):
            out[i] = self._bisect_inverse(float(u[i]), xi)
        return out

    def same_tail(self, xi, eta) -> bool:
        """True when q reads the same at directions xi and eta: always for a
        canonical q, and for a custom q when its cached tables for the two
        agree byte for byte (node radii are shared, log_level follows level)."""
        if self.is_canonical:
            return True
        a, b = self._table(xi), self._table(eta)
        return (a.level.tobytes() == b.level.tobytes()
                and a.cell_ok.tobytes() == b.cell_ok.tobytes())

    def _table(self, xi) -> _TailTable:
        key = None if xi is None else np.asarray(xi, dtype=float).tobytes()
        tab = self._tables.get(key)
        if tab is None:
            # threads that race here build equal tables; setdefault keeps
            # the first one stored for all of them
            tab = self._tables.setdefault(key, self._build_table(xi))
        return tab

    def _build_table(self, xi) -> _TailTable:
        # Q summed downward from the top node: upward from r = 1 the sum
        # would subtract nearly equal numbers
        t = _LOG_R_NODES
        high, _ = self._log_integral(t[:-1], t[1:], xi, _GAUSS_HIGH)
        low, _ = self._log_integral(t[:-1], t[1:], xi, _GAUSS_LOW)
        cell_ok = np.abs(high - low) <= _CELL_RTOL * np.abs(high)
        level = np.empty(len(t))
        level[-1] = self.tail_integral(float(np.exp(t[-1])), xi)
        for k in range(len(t) - 2, -1, -1):
            level[k] = (level[k + 1] + high[k] if cell_ok[k]
                        else self.tail_integral(float(np.exp(t[k])), xi))
        return _TailTable(t[::-1], level[::-1], np.log(level[::-1]),
                          np.append(cell_ok, False)[::-1])

    def _log_integral(self, lo, hi, xi, rule) -> tuple[np.ndarray, np.ndarray]:
        """Integral of q(r, xi) dr over [e^lo, e^hi], Gauss-Legendre in log r,
        and r q(r, xi) at r = e^lo, its rate of change in -lo: q is read at
        the nodes and at e^lo in one call."""
        x, w = rule
        half = 0.5 * (hi - lo)
        t = np.empty((len(lo), len(x) + 1))
        np.add((0.5 * (hi + lo))[:, None], half[:, None] * x, out=t[:, :-1])
        t[:, -1] = lo
        r_q = self._r_q(t, xi)
        return half * np.add.reduce(r_q[:, :-1] * w, axis=1), r_q[:, -1]

    def _r_q(self, t: np.ndarray, xi) -> np.ndarray:
        """r * q(r, xi) at r = e^t; a q_fn written for scalars is looped."""
        r = np.exp(t)
        try:
            vals = np.asarray(self.q_fn(r, xi), dtype=float)
        except (TypeError, ValueError):
            vals = None
        if vals is None or vals.shape != r.shape:
            vals = np.array([float(self.q_fn(x, xi)) for x in r.ravel().tolist()])
            vals = vals.reshape(r.shape)
        return r * vals

    def _bisect_inverse(self, u: float, xi) -> float:
        # Q is strictly decreasing; start from the power-law asymptote of the
        # relevant branch, expand the bracket until it straddles the root, and
        # solve with Brent's method on log r (relative tolerance ~1e-13).
        a, b = self.alpha, self.beta
        q1 = self.tail_integral(1.0, xi)
        if u <= q1:
            guess = stable_magnitudes(b, u, self.c2(xi), 1.0)
        else:
            guess = (1.0 + a * (u - q1) / self.c1(xi)) ** (-1.0 / a)
        lo, hi = guess / 4.0, guess * 4.0
        while self.tail_integral(lo, xi) < u:
            lo /= 16.0
            if lo < 1e-300:
                return 0.0
        while self.tail_integral(hi, xi) >= u:
            hi *= 16.0
            if hi > 1e300:
                return hi
        root = optimize.brentq(
            lambda t: self.tail_integral(np.exp(t), xi) - u,
            np.log(lo), np.log(hi), xtol=1e-13, rtol=4.0 * np.finfo(float).eps)
        return float(np.exp(root))

    def series_magnitude(self, gamma_over_t, sigma_total_mass: float, xi=None):
        """Jump magnitudes of Poisson arrivals at levels gamma/T (as inverse_tail's u).

        Inverts the total jump-rate tail sigma(S^{d-1}) * Q as inverse_tail
        does; a canonical q calls the closed form itself, so that the series
        never enters inverse_tail, whose calls count table inversions.
        """
        u = gamma_over_t * self.tail_scale / sigma_total_mass
        if not self.is_canonical:
            return self.inverse_tail(u, xi)
        return canonical_magnitudes(self.alpha, self.beta, _positive_levels(u),
                                    self.sigma_mass, 1.0)


def _tail_groups(q: LayeredQ, sigma) -> list:
    """The one rule for which atoms of sigma share a tail under q: groups by
    q.same_tail (one for a canonical q), as (representative, member indices) in
    order of first appearance.  A uniform sigma reads q at xi = None: (None, [])."""
    if sigma.is_uniform:
        return [(None, [])]
    groups = {}         # the representative's index -> member indices
    for i, atom in enumerate(sigma.atoms):
        rep = next((r for r in groups if q.same_tail(sigma.atoms[r], atom)), i)
        groups.setdefault(rep, []).append(i)
    return [(sigma.atoms[r], members) for r, members in groups.items()]


def _positive_levels(u):
    """u, a float array unless a scalar; refused unless every level is > 0."""
    if np.ndim(u):
        u = np.asarray(u, dtype=float)
    if not np.all(u > 0.0):                 # NaN fails too
        raise ValueError("inverse tail needs u > 0" + ("" if np.ndim(u) else f", got {u}"))
    return u


def stable_magnitudes(alpha, gammas, sigma_mass: float, T: float):
    """The alpha-stable series' inverse tail, r with sigma_mass * T * r^(-alpha)
    / alpha = gammas; alpha may be an array, one index per level.  A scalar
    level stays a scalar and takes Python's **, an array takes the array's."""
    return (alpha * gammas / (sigma_mass * T)) ** (-1.0 / alpha)


def canonical_magnitudes(alpha: float, beta: float, gammas, sigma_mass: float,
                         T: float):
    """The canonical q's inverse tail, r with sigma_mass * T * Q(r) = gammas;
    its beta branch is stable_magnitudes.  A scalar level stays a scalar:
    scalar ** is Python's to the bit, where an array's may differ by one ulp,
    so scalar and array callers keep their bytes."""
    mT = sigma_mass * T
    if not np.ndim(gammas):
        if gammas <= mT / beta:
            return stable_magnitudes(beta, gammas, sigma_mass, T)
        return (alpha * gammas / mT + 1.0 - alpha / beta) ** (-1.0 / alpha)
    # the alpha branch over all arrivals, then the few beta-branch ones
    # overwritten; for beta < alpha the alpha base is <= 0 on those few
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (alpha * gammas / mT + 1.0 - alpha / beta) ** (-1.0 / alpha)
    big = gammas <= mT / beta            # the beta branch carries the large jumps
    out[big] = stable_magnitudes(beta, gammas[big], sigma_mass, T)
    return out


def jump_mean(q: LayeredQ, sigma, lo: float, hi: float) -> np.ndarray:
    """int z nu(dz) over lo < |z| < hi, for nu(dr dxi) = q(r, xi) dr sigma(dxi)."""
    return sigma.integrate(lambda xi: q.radial_moment(1, lo, hi, xi), 1)


def limit_mean(c, sigma) -> np.ndarray:
    """int xi c(xi) sigma(dxi): the first moment of the limit measure c sigma,
    with c a limit density q.c1 or q.c2.  A uniform sigma needs c constant,
    and then the moment is zero."""
    if sigma.is_uniform:
        _constant_on_sphere(c, sigma.dimension)
    return sigma.integrate(c, 1)


def _constant_on_sphere(fn, d) -> float:
    # fn at eight random directions, equal to a relative 1e-9
    rng = np.random.default_rng(0)
    g = rng.standard_normal((8, d))
    probes = g / np.linalg.norm(g, axis=1, keepdims=True)
    vals = np.array([fn(p) for p in probes])
    if np.max(vals) - np.min(vals) > 1e-9 * max(1.0, np.max(np.abs(vals))):
        raise ValueError("uniform base measure requires a constant limit density")
    return float(vals[0])


def levy_tail_mass(q: LayeredQ, sigma, x: float) -> float:
    """nu({z : ||z|| > x}) for the Levy measure with density q over sigma."""
    if x <= 0.0:
        raise ValueError("radius must be positive")
    return float(sigma.integrate(lambda xi: q.tail_integral(x, xi)))


def blend_q(alpha: float, beta: float) -> LayeredQ:
    """Built-in smooth custom family q(r) = r^(-a-1) (1+r)^(a-b).

    Behaves like r^(-alpha-1) near 0 and r^(-beta-1) at infinity with
    c1 = c2 = 1, interpolating smoothly in between.
    """
    def q_fn(r, xi):
        return r ** (-alpha - 1.0) * (1.0 + r) ** (alpha - beta)

    return LayeredQ.custom(alpha, beta, q_fn, lambda xi: 1.0, lambda xi: 1.0)


def parse_q_spec(text: str, sigma_mass: float) -> LayeredQ:
    """Parse ``canonical:alpha=..,beta=..`` or ``blend:alpha=..,beta=..``."""
    kind, _, body = text.strip().partition(":")
    params = {}
    for item in body.split(","):
        if not item:
            continue
        k, _, v = item.partition("=")
        params[k.strip()] = float(v)
    if "alpha" not in params or "beta" not in params:
        raise ValueError(f"q spec needs alpha and beta: {text!r}")
    if kind == "canonical":
        return LayeredQ.canonical(params["alpha"], params["beta"], sigma_mass)
    if kind == "blend":
        return blend_q(params["alpha"], params["beta"])
    raise ValueError(f"unknown q family {kind!r}")
