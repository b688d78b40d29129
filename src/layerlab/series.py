"""Shot-noise series generators for stable, layered and mixed jump paths.

All generators consume a ShotNoiseDraw, so different processes can be coupled
by sharing the same Poisson arrivals {Gamma_i}, jump times {T_i} and
directions {V_i}; only the magnitude map differs.  The series is truncated at
the first arrival beyond gamma_cap * T, which bounds the largest discarded
jump by the inverse tail evaluated at gamma_cap.

Each process is one law, a SeriesLaw built by stable_law, layered_law,
rejection_law or mixed_law, which checks its inputs and works out the law's
constants once.  Its jump map gives, from a draw, the magnitudes, a drift
and an optional keep mask, and the law reduces them in one of two ways.
path(draw, grid) assembles the path on a grid; each public path builder is
X_law(...).path(draw, grid).  It never sorts the jump times, puts each jump
into the grid cell that first sees it, sums the cells in arrival order, and
takes the running sum of the cells plus the drift.  The cell of a jump is
computed by arithmetic, ceil(t (len(grid) - 1) / grid[-1]), and checked
exactly against the grid; only a guess that fails the check is searched, so
the cells equal np.searchsorted on any grid.  terminal(draw) builds no grid:
it is the sequential sum of the kept jumps in arrival order plus T times the
drift, the same floating-point operations as the path on [0, T] at its end.

A terminal reads no jump time, so mc.terminals draws none: the PCG64
generator advances past them and every later sequence keeps its bytes.  The
terminal then differs from the path end on [0, T] only if a skipped time was
exactly 0.0 (probability 2^-53 a jump, about 1e-12 a path at 1e4 arrivals).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._special import EULER_GAMMA, zeta
from .qfunc import LayeredQ, _tail_groups, canonical_magnitudes, stable_magnitudes
from .spherical import SphericalMeasure

_MAG_FLOOR = 1e-300     # drop denormal magnitudes outright

# Largest expected arrival count times dimension, gamma_cap * T * d, of one
# draw.  A draw and its assembly peak near 60 bytes per arrival in d = 1 and
# 105 in d = 3, so one path stays near 2 GB; AC11 uses cap 1e6 in d = 1.
MAX_ARRIVALS = 2e7

# Largest grid-point count times dimension of one grid path.  make_grid and
# _assemble hold about five arrays of that size (grid, cell sums, running
# sums, drift line, values), near 40 bytes a value, so a path stays near
# 0.4 GB; AC11 uses 3201 points in d = 1.
MAX_GRID_VALUES = 1e7


@dataclass(frozen=True)
class ShotNoiseDraw:
    """One realization of the shared random sequences on [0, T].

    gammas are the unit-rate Poisson arrivals kept below gamma_cap * T (they
    may tie, where an increment is below half an ulp), times are iid uniform
    on [0, T], directions are iid from the normalized spherical measure.
    rejects (uniform [0,1]) and alphas (mixing indices) are populated on
    request.  times is None on a terminal-only draw (see the module
    docstring); path builders and girsanov.u_series refuse it.
    """

    T: float
    gammas: np.ndarray
    times: np.ndarray | None
    directions: np.ndarray
    rejects: np.ndarray | None = None
    alphas: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.gammas)
        if n:
            if self.gammas[0] <= 0.0 or np.any(np.diff(self.gammas) < 0.0):
                raise ValueError("gammas must be non-decreasing and positive")
        if len(self.directions) != n:
            raise ValueError("sequence length mismatch")
        if self.times is not None and not np.all(
                (self.times >= 0.0) & (self.times <= self.T)):    # NaN too
            raise ValueError("jump times must lie in [0, T]")
        for opt in (self.times, self.rejects, self.alphas):
            if opt is not None and len(opt) != n:
                raise ValueError("sequence length mismatch")

    @property
    def cutoff_index(self) -> int:
        return len(self.gammas)


@dataclass(frozen=True)
class MixDistribution:
    """Discrete mixing law for the stability index of a mixed stable process."""

    atoms: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        if np.any(atoms <= 0.0) or np.any(atoms >= 2.0):
            raise ValueError("mixing indices must lie in the open interval (0,2)")
        if np.any(probs <= 0.0) or abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must be positive and sum to 1")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def point_mass(cls, alpha: float) -> "MixDistribution":
        return cls(np.array([alpha]), np.array([1.0]))

    @classmethod
    def uniform_on(cls, values) -> "MixDistribution":
        values = np.asarray(values, dtype=float)
        return cls(values, np.full(len(values), 1.0 / len(values)))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        idx = rng.choice(len(self.atoms), size=n, p=self.probs)
        return self.atoms[idx]


@dataclass
class SamplePath:
    """A path on a grid over [0, T] with its kept jumps in arrival order
    (increasing Gamma_i), not in time order: jumps is (jump_times, jump_vectors).
    """

    grid: np.ndarray
    values: np.ndarray                # (len(grid), d)
    jump_times: np.ndarray
    jump_vectors: np.ndarray          # (n_jumps, d)

    @property
    def jumps(self) -> tuple[np.ndarray, np.ndarray]:
        return self.jump_times, self.jump_vectors

    @property
    def terminal(self) -> np.ndarray:
        return self.values[-1]


def make_grid(T: float, n: int) -> np.ndarray:
    """Uniform grid 0 = t_0 < ... < t_n = T."""
    if n < 1 or not 0.0 < T < np.inf:
        raise ValueError(f"need n >= 1 grid steps and a finite T > 0, got n={n}, T={T}")
    if n + 1 > MAX_GRID_VALUES:
        raise ValueError(f"{n} grid steps exceed the budget of "
                         f"{MAX_GRID_VALUES:.0e} grid values per path")
    return np.linspace(0.0, T, n + 1)


def draw_shot_noise(seed, T: float, sigma: SphericalMeasure, gamma_cap: float,
                    with_rejects: bool = False, mix: MixDistribution | None = None,
                    *, _times: bool = True) -> ShotNoiseDraw:
    """Generate the shared sequences; deterministic for a fixed seed.

    seed may be an integer or a numpy SeedSequence (for parallel substreams);
    it seeds a PCG64 generator.  _times=False (mc.terminals) draws no times.
    """
    if not (gamma_cap > 0.0 and T > 0.0):
        raise ValueError(f"gamma_cap and T must be positive, got {gamma_cap} and {T}")
    size = gamma_cap * T * sigma.dimension
    if size > MAX_ARRIVALS:
        raise ValueError(f"gamma_cap * T * dimension = {size:.3g} exceeds the budget "
                         f"of {MAX_ARRIVALS:.3g} arrival values per draw")
    rng = np.random.Generator(np.random.PCG64(seed))
    cap = gamma_cap * T
    # draw exponential increments in blocks until the cumulative sum passes cap
    chunks = []
    total = 0.0
    remaining = cap
    while True:
        size = int(remaining + 6.0 * np.sqrt(remaining + 1.0)) + 16
        inc = rng.standard_exponential(size)
        chunks.append(inc)
        total += float(inc.sum())
        if total > cap:
            break
        remaining = cap - total
    gammas = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    gammas = np.cumsum(gammas, out=gammas)
    gammas = gammas[:np.searchsorted(gammas, cap, side="right")]    # non-decreasing
    n = len(gammas)
    times = rng.uniform(0.0, T, n) if _times else None
    if not _times:      # uniform takes one PCG64 output a value: the same state
        rng.bit_generator.advance(n)
    directions = sigma.sample_directions(rng, n)
    rejects = rng.random(n) if with_rejects else None
    alphas = mix.sample(rng, n) if mix is not None else None
    return ShotNoiseDraw(T=float(T), gammas=gammas, times=times,
                         directions=directions, rejects=rejects, alphas=alphas)


def _check_grid(grid: np.ndarray, T: float) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise ValueError("grid must be a 1-d array with at least two points")
    if grid[0] != 0.0 or grid[-1] > T + 1e-12 or np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must increase from 0 and stay within [0, T]")
    return grid


def _grid_cells(grid: np.ndarray, times: np.ndarray) -> np.ndarray:
    """np.searchsorted(grid, times, side="left") on any increasing grid.

    Each cell is guessed as ceil(t (n - 1) / grid[-1]), which is exact up to
    rounding on a uniform grid, and checked exactly against the grid padded
    with -inf and +inf: cell c is right when ext[c] < t <= ext[c + 1].  Only
    the guesses that fail the check (on a non-uniform grid, or by rounding
    next to a grid point) are searched.  A time past grid[-1] gets cell n.
    """
    n = len(grid)
    guess = np.ceil(times * ((n - 1) / grid[-1]))
    cell = np.clip(guess, 0, n, out=guess).astype(np.intp)
    lower = np.concatenate(([-np.inf], grid))     # ext[c]
    upper = np.concatenate((grid, [np.inf]))      # ext[c + 1]
    wrong = ~((lower.take(cell) < times) & (times <= upper.take(cell)))
    if wrong.any():
        cell[wrong] = np.searchsorted(grid, times[wrong], side="left")
    return cell


def _kept(draw: ShotNoiseDraw, mags, keep):
    # the kept jumps' times, magnitudes and directions in arrival order: the
    # keep mask (rejection) and the magnitude floor.  When every jump is kept
    # (all laws but rejection, unless a magnitude is below the floor) the
    # draw's arrays are used without a boolean copy
    above_floor = mags >= _MAG_FLOOR
    keep = above_floor if keep is None else keep & above_floor
    if keep.all():
        return draw.times, mags, draw.directions
    times = None if draw.times is None else draw.times[keep]
    return times, mags[keep], draw.directions[keep]


def _assemble(grid, draw: ShotNoiseDraw, mags, drift=None, keep=None) -> SamplePath:
    # evaluate the truncated series on the grid without sorting the jumps:
    # each kept jump is binned into the first grid cell j with grid[j] >= T_i
    # (checked arithmetic, _grid_cells), the cells are summed in arrival
    # order and accumulated along the grid, and the drift is linear in t;
    # jumps after grid[-1] land in a dropped bin
    if draw.times is None:
        raise ValueError("draw carries no jump times (a terminal-only draw)")
    grid = _check_grid(grid, draw.T)
    d = draw.directions.shape[1]
    n = len(grid)
    if n * d > MAX_GRID_VALUES:
        raise ValueError(f"{n} grid points x {d} dimensions exceed the budget of "
                         f"{MAX_GRID_VALUES:.0e} grid values per path")
    times, mags, directions = _kept(draw, mags, keep)
    drift = np.zeros(d) if drift is None else drift
    cell = _grid_cells(grid, times)
    # column by column: a broadcast over the short rows runs about twice as slow
    vectors = np.empty((len(mags), d))
    sums = np.empty((n, d))
    for k in range(d):
        np.multiply(mags, directions[:, k], out=vectors[:, k])
        sums[:, k] = np.bincount(cell, weights=vectors[:, k], minlength=n + 1)[:n]
    values = np.cumsum(sums, axis=0) + np.outer(grid, drift)
    return SamplePath(grid=grid, values=values, jump_times=times, jump_vectors=vectors)


def _terminal(draw: ShotNoiseDraw, mags, drift=None, keep=None) -> np.ndarray:
    # the end value of _assemble's path on the grid [0, T] by the same
    # floating-point operations, without the grid: bincount sums the jumps
    # at t = 0 (cell 0) and the others (cell 1), each sequentially in
    # arrival order from 0.0, and the running sum adds the two cells before
    # T * drift.  cumsum is the sequential sum (np.sum is pairwise), and
    # adding each part to 0.0 gives the signed zeros bincount gives.  A
    # time-less draw (or one with no jump at t = 0) is summed in one pass
    times, mags, directions = _kept(draw, mags, keep)
    d = directions.shape[1]
    drift = np.zeros(d) if drift is None else drift
    at_zero = np.False_ if times is None else times == 0.0
    cells = (at_zero, ~at_zero) if at_zero.any() else (slice(None),)
    total = np.zeros(d)
    for k in range(d):
        column = mags * directions[:, k]
        for cell in cells:
            part = column[cell]
            if len(part):
                total[k] += np.cumsum(part)[-1]
    return total + draw.T * drift


def stable_drift_constant(alpha: float, sigma_mass: float, T: float) -> float:
    """The scalar b_T multiplying z0 t/T in the stable series."""
    m = sigma_mass * T
    if alpha < 1.0:
        return 0.0
    if alpha == 1.0:
        return m * (EULER_GAMMA + np.log(m))
    return stable_magnitudes(alpha, 1.0, sigma_mass, T) * zeta(1.0 / alpha)


def _centering_sum(q: LayeredQ, sigma: SphericalMeasure, n: int, T: float,
                   groups: list | None = None) -> np.ndarray:
    # sum over i <= n of b_i = int_{i-1}^i E[ q_inv(s/T, V) V 1(q_inv <= 1) ] ds,
    # the centering of the layered law with zero shift, atom by atom: s = T m
    # Q(r, xi) turns int_{s*}^n q_inv(s/T) ds, s* = T m Q(1, xi), into the
    # radial moment T m int_{r_n}^1 r q(r, xi) dr, r_n = q_inv(n/T) (zero
    # once r_n >= 1, and for a draw with no arrivals, n = 0); one moment per
    # group of atoms with one tail, summed atom by atom as before
    if n == 0:
        return np.zeros(sigma.dimension)
    m = sigma.total_mass()
    moment = {}
    for rep, members in groups or _tail_groups(q, sigma):
        if members:
            value = q.radial_moment(1, q.series_magnitude(n / T, m, rep), 1.0, rep)
            moment.update((sigma.atoms[i].tobytes(), value) for i in members)
    return T * sigma.integrate(lambda xi: moment[xi.tobytes()], 1)


def _custom_magnitudes(q: LayeredQ, sigma: SphericalMeasure, groups: list,
                       draw: ShotNoiseDraw) -> np.ndarray:
    # one array inverse per tail group (qfunc._tail_groups), on the
    # representative's table (one inverse in all on a uniform measure).  The
    # inverse is entrywise, so each jump gets the bytes its own atom's
    # inverse would give it
    levels, m = draw.gammas / draw.T, sigma.total_mass()
    if sigma.is_uniform:
        return q.series_magnitude(levels, m, None)
    mags = np.full_like(levels, np.nan)
    for rep, members in groups:
        on = np.zeros(len(levels), dtype=bool)
        for i in members:
            on |= np.all(draw.directions == sigma.atoms[i], axis=1)
        if np.any(on):
            mags[on] = q.series_magnitude(levels[on], m, rep)
    if np.isnan(mags).any():
        raise ValueError("a jump direction is not an atom of the spherical measure")
    return mags


@dataclass(frozen=True)
class SeriesLaw:
    """One series process, built and checked once by its constructor
    (stable_law, layered_law, rejection_law, mixed_law), which also works out
    the law's constants: sigma's mass and mean direction, and whether a
    centering drift applies.  jumps(draw) does the per-draw work: the
    magnitudes, the drift (None for none) and the keep mask (None for all)
    of the draw, which carries the draw_options the law reads.  path(draw,
    grid) assembles them on a grid and terminal(draw) sums them at T without
    one.  truncation_bound(cap) bounds every term the cap discards (for
    rejection, the base series' terms; for a mix, those of each atom)."""

    sigma: SphericalMeasure
    jumps: Callable[[ShotNoiseDraw], tuple]
    truncation_bound: Callable[[float], float]
    draw_options: dict = field(default_factory=dict)

    def draw(self, seed, T: float, gamma_cap: float, *,
             _times: bool = True) -> ShotNoiseDraw:
        return draw_shot_noise(seed, T, self.sigma, gamma_cap, _times=_times,
                               **self.draw_options)

    def path(self, draw: ShotNoiseDraw, grid) -> SamplePath:
        return _assemble(grid, draw, *self.jumps(draw))

    def terminal(self, draw: ShotNoiseDraw) -> np.ndarray:
        """X_T, equal byte for byte to path(draw, [0, T]).terminal; a draw
        without times (mc.terminals) gives it unless a skipped time was 0.0."""
        return _terminal(draw, *self.jumps(draw))


def stable_law(alpha: float, sigma: SphericalMeasure) -> SeriesLaw:
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"stable index must lie in (0,2), got {alpha}")
    m = sigma.total_mass()
    centered = alpha >= 1.0 and not sigma.is_symmetric()
    z0 = sigma.first_moment() / m if centered else None

    def jumps(draw):
        mags = stable_magnitudes(alpha, draw.gammas, m, draw.T)
        if not centered:
            return mags, None, None
        n = draw.cutoff_index
        comp = np.sum(stable_magnitudes(alpha, np.arange(1, n + 1), m, draw.T))
        return mags, (stable_drift_constant(alpha, m, draw.T) - comp) * z0 / draw.T, None

    return SeriesLaw(sigma, jumps, lambda cap: stable_magnitudes(alpha, cap, m, 1.0))


def layered_law(q: LayeredQ, sigma: SphericalMeasure) -> SeriesLaw:
    # canonical q: closed-form magnitudes; custom q: tabled inverse tail, one
    # inversion a draw per tail group (qfunc._tail_groups: one group for a
    # direction-free q).  Both center unless sigma is symmetric and each atom
    # in its antipode's group, as for a canonical q, or any q on a uniform
    # sigma (xi = None)
    m = sigma.total_mass()
    groups = _tail_groups(q, sigma)
    group = {i: g for g, (_, members) in enumerate(groups) for i in members}
    pairs = sigma.antipodes
    centered = not sigma.is_symmetric() or (pairs is not None and not all(
        group[i] == group[j] for i, j in enumerate(pairs)))

    def jumps(draw):
        mags = (canonical_magnitudes(q.alpha, q.beta, draw.gammas, m, draw.T)
                if q.is_canonical else _custom_magnitudes(q, sigma, groups, draw))
        drift = (-_centering_sum(q, sigma, draw.cutoff_index, draw.T, groups) / draw.T
                 if centered else None)
        return mags, drift, None

    # a direction-dependent q discards different jumps on each group's atoms
    return SeriesLaw(sigma, jumps, lambda cap: max(q.series_magnitude(cap, m, rep)
                                                   for rep, _ in groups))


def rejection_law(alpha: float, beta: float, sigma: SphericalMeasure,
                  base: str) -> SeriesLaw:
    # written so that a NaN index fails every comparison and is rejected
    if not 0.0 < alpha < beta < np.inf:
        raise ValueError(f"rejection construction needs 0 < alpha < beta < inf, "
                         f"got alpha={alpha}, beta={beta}")
    LayeredQ.canonical(alpha, beta, sigma.total_mass())     # checks alpha < 2
    if base not in ("inner", "outer"):
        raise ValueError(f"base must be 'inner' or 'outer', got {base!r}")
    if base == "outer" and not beta < 2.0:
        raise ValueError("outer base needs a beta-stable series, beta < 2")
    if not sigma.is_symmetric():
        raise ValueError("rejection construction implemented for symmetric measures only")
    m = sigma.total_mass()
    index = alpha if base == "inner" else beta      # of the base stable series

    def jumps(draw):
        if draw.rejects is None:
            raise ValueError("draw carries no rejection uniforms")
        cand = stable_magnitudes(index, draw.gammas, m, draw.T)
        if base == "inner":
            ratio = np.where(cand <= 1.0, 1.0, cand ** (alpha - beta))
        else:
            ratio = np.where(cand <= 1.0, cand ** (beta - alpha), 1.0)
        return cand, None, draw.rejects <= ratio

    return SeriesLaw(sigma, jumps, lambda cap: stable_magnitudes(index, cap, m, 1.0),
                     {"with_rejects": True})


def mixed_law(mix: MixDistribution, sigma: SphericalMeasure) -> SeriesLaw:
    if not sigma.is_symmetric():
        raise ValueError("mixed stable series requires a symmetric measure")
    m = sigma.total_mass()

    def jumps(draw):
        if draw.alphas is None:
            raise ValueError("draw carries no mixing indices")
        return stable_magnitudes(draw.alphas, draw.gammas, m, draw.T), None, None

    return SeriesLaw(sigma, jumps, lambda cap: max(stable_magnitudes(a, cap, m, 1.0)
                                                   for a in mix.atoms), {"mix": mix})


def stable_path(alpha: float, sigma: SphericalMeasure, draw: ShotNoiseDraw,
                grid) -> SamplePath:
    """Truncated shot-noise series of an alpha-stable path on [0, T]."""
    return stable_law(alpha, sigma).path(draw, grid)


def layered_path_canonical(alpha: float, beta: float, sigma: SphericalMeasure,
                           draw: ShotNoiseDraw, grid) -> SamplePath:
    """Series path of the canonical two-layer process."""
    q = LayeredQ.canonical(alpha, beta, sigma.total_mass())
    return layered_law(q, sigma).path(draw, grid)


def layered_path_general(q: LayeredQ, sigma: SphericalMeasure,
                         draw: ShotNoiseDraw, grid) -> SamplePath:
    """Series path for a general layered q (canonical or custom)."""
    return layered_law(q, sigma).path(draw, grid)


def layered_path_rejection(alpha: float, beta: float, sigma: SphericalMeasure,
                           draw: ShotNoiseDraw, base: str, grid) -> SamplePath:
    """Layered path by thinning a stable series (inner or outer base)."""
    return rejection_law(alpha, beta, sigma, base).path(draw, grid)


def mixed_path(mix: MixDistribution, sigma: SphericalMeasure,
               draw: ShotNoiseDraw, grid) -> SamplePath:
    """Series path whose i-th jump obeys the stability index alpha_i that the
    draw carries (drawn from mix); mix gives the truncation bound and the
    draw options of mixed_law."""
    return mixed_law(mix, sigma).path(draw, grid)
