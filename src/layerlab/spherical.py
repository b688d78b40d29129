"""Finite positive measures on the unit sphere S^{d-1}.

These act as the spectral (direction) measures of all the jump processes:
they are sampled for the jump directions V_i, and every sum over them lives
here: integrate gives the moments in every drift and covariance constant,
and project the pairs behind the CF oracles' int f(<y, xi>) sigma(dxi).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from scipy import special

_SYMMETRY_TOL = 1e-12     # mass gap is_symmetric allows a direction and its antipode
_SAME_DIRECTION = 1.0 - 1e-10   # least inner product of two atoms of one direction

# Largest dimension for which a d x d matrix is built (second moments,
# covariances and their Cholesky factors).  At 4096 one matrix is 128 MB and
# the compensated sampler holds about four; the acceptance battery uses d <= 3.
MAX_MATRIX_DIMENSION = 4096


@dataclass(frozen=True)
class SphericalMeasure:
    """Finite positive measure on S^{d-1}.

    Either a discrete measure (atoms with positive weights) or the
    rotation-invariant measure with a given total mass.  Immutable and
    thread-safe; sampling takes an external rng.
    """

    dimension: int
    atoms: np.ndarray | None = None      # (n, d) unit vectors
    weights: np.ndarray | None = None    # (n,) positive
    uniform_mass: float | None = None
    _cum: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _table: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.uniform_mass is not None:
            if not 0.0 < self.uniform_mass < np.inf:
                raise ValueError("uniform measure needs a positive finite total mass")
            if self.atoms is not None:
                raise ValueError("measure is either discrete or uniform, not both")
        else:
            if self.atoms is None or self.weights is None:
                raise ValueError("discrete measure needs atoms and weights")
            atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
            weights = np.asarray(self.weights, dtype=float)
            if atoms.shape[0] != weights.shape[0]:
                raise ValueError("atoms and weights length mismatch")
            if atoms.shape[1] != self.dimension:
                raise ValueError("atom dimension mismatch")
            # a NaN weight fails both comparisons
            with np.errstate(over="ignore"):
                finite_total = np.sum(weights) < np.inf
            if not (np.all(weights > 0) and finite_total):
                raise ValueError("weights must be strictly positive with a finite total")
            if not np.all(np.isfinite(atoms)):
                raise ValueError("atom components must be finite")
            big = np.max(np.abs(atoms), axis=1)
            if np.any(big == 0):
                raise ValueError("zero vector is not a direction")
            # a row whose sum of squares leaves the normal floats is divided by its
            # largest |component| first; every d = 1 atom then reads exactly +1 or -1
            with np.errstate(over="ignore"):
                ss = np.sum(atoms * atoms, axis=1)
            scale = np.where((ss >= np.finfo(float).tiny) & (ss < np.inf), 1.0, big)
            atoms = atoms / scale[:, None]
            atoms = atoms / np.linalg.norm(atoms, axis=1)[:, None]
            object.__setattr__(self, "atoms", atoms)
            object.__setattr__(self, "weights", weights)
            cum = np.cumsum(weights)
            # the interior cumulative weights, padded with +inf to a power of
            # two (at least 2) for sample_directions' binary search
            table = np.full(max(2, 1 << (len(cum) - 1).bit_length()), np.inf)
            table[:len(cum) - 1] = cum[:-1]
            object.__setattr__(self, "_cum", cum)
            object.__setattr__(self, "_table", table)

    # -- constructors -------------------------------------------------

    @classmethod
    def discrete(cls, atoms, weights) -> "SphericalMeasure":
        atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
        return cls(dimension=atoms.shape[1], atoms=atoms, weights=np.asarray(weights, float))

    @classmethod
    def uniform(cls, dimension: int, mass: float) -> "SphericalMeasure":
        if dimension == 1:
            # S^0 is the two-point set; equal mass on +1 and -1.
            return cls.discrete([[1.0], [-1.0]], [mass / 2.0, mass / 2.0])
        return cls(dimension=dimension, uniform_mass=float(mass))

    @classmethod
    def symmetric_pair(cls, mass: float = 2.0) -> "SphericalMeasure":
        """The workhorse d=1 measure with equal atoms at +1 and -1."""
        return cls.discrete([[1.0], [-1.0]], [mass / 2.0, mass / 2.0])

    # -- basic functionals --------------------------------------------

    @property
    def is_uniform(self) -> bool:
        return self.uniform_mass is not None

    def total_mass(self) -> float:
        if self.is_uniform:
            return float(self.uniform_mass)
        return float(np.sum(self.weights))

    def first_moment(self) -> np.ndarray:
        """Unnormalized integral of xi over the measure."""
        if self.is_uniform:
            return np.zeros(self.dimension)
        return self.weights @ self.atoms

    def second_moment(self) -> np.ndarray:
        """Integral of the outer product xi xi' over the measure."""
        self._check_matrix_dimension()
        if self.is_uniform:
            return (self.uniform_mass / self.dimension) * np.eye(self.dimension)
        return (self.atoms * self.weights[:, None]).T @ self.atoms

    def integrate(self, radial, order: int = 0):
        """int radial(xi) {1, xi, xi xi'} sigma(dxi) for order 0, 1 or 2.

        radial maps a direction to a number.  A uniform measure reads
        radial(None): an integrand on it is taken to be direction-free, so
        order 1 is zero and radial is not called.
        """
        if order not in (0, 1, 2):
            raise ValueError(f"order must be 0, 1 or 2, got {order}")
        if order == 2:
            self._check_matrix_dimension()
        if self.is_uniform:
            if order == 1:
                return np.zeros(self.dimension)
            c = radial(None)
            return c * self.total_mass() if order == 0 else c * self.second_moment()
        basis = (lambda xi: 1.0, lambda xi: xi, lambda xi: np.outer(xi, xi))[order]
        return np.sum([w * radial(xi) * basis(xi)
                       for xi, w in zip(self.atoms, self.weights)], axis=0)

    def project(self, Y: np.ndarray, nodes: int):
        """Pairs (a, w) with int f(<y_j, xi>) sigma(dxi) = sum_k w_k f(a_jk).

        a is of shape (n, K) for the rows y_j of Y.  A discrete measure gives
        a = Y @ atoms' and its weights, column k for atom k.  A uniform one
        gives a_jk = |y_j| u_k and w = mass w_k at the `nodes` Gauss-Jacobi
        nodes u_k of <e, xi>, cached read-only per (d, nodes): as in
        integrate, its integrands are direction-free.
        """
        if self.is_uniform:
            u, w = _uniform_marginal_nodes(self.dimension, nodes)
            return np.sqrt(np.sum(Y * Y, axis=1))[:, None] * u, self.uniform_mass * w
        # one product per row, rounded as for a single y: at <y, xi> ~ 0 the
        # rounding shows in |a|^alpha with alpha < 1
        return (Y[:, None, :] @ self.atoms.T)[:, 0], self.weights

    def _check_matrix_dimension(self) -> None:
        if self.dimension > MAX_MATRIX_DIMENSION:
            raise ValueError(f"dimension {self.dimension} exceeds the budget of "
                             f"{MAX_MATRIX_DIMENSION} for a d x d matrix")

    def is_symmetric(self) -> bool:
        """True when the measure is invariant under xi -> -xi."""
        return self.is_uniform or self.antipodes is not None

    @cached_property
    def antipodes(self) -> tuple[int, ...] | None:
        """An atom in each atom's antipodal direction, found once per measure;
        None on a uniform measure, or when some direction (its atoms' weights
        pooled) has no antipode of the same mass."""
        if self.is_uniform:
            return None
        out = []
        for a in self.atoms:
            dots = self.atoms @ (-a)
            j = int(np.argmax(dots))
            here = np.sum(self.weights[dots <= -_SAME_DIRECTION])    # a among them
            there = np.sum(self.weights[dots >= _SAME_DIRECTION])
            if dots[j] < _SAME_DIRECTION or abs(here - there) > _SYMMETRY_TOL:
                return None
            out.append(j)
        return tuple(out)

    # -- sampling -----------------------------------------------------

    def sample_directions(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n iid directions from the normalized measure; shape (n, d).

        A uniform measure normalizes Gaussian vectors.  A discrete measure
        draws u = U cum[-1] with U uniform on [0, 1) and takes the atom whose
        index is the number of interior cumulative weights cum[:-1] that are
        <= u, counted by the branch-free search _atom_index.  That index
        equals np.searchsorted(cum, u, side="right"), since u < cum[-1]
        whenever the total mass is a normal float.
        """
        if self.is_uniform:
            g = rng.standard_normal((n, self.dimension))
            # column by column into a new array: np.linalg.norm's short-axis
            # reduce, a broadcast over the short rows and dividing g in place
            # are each slower
            ss = sum((g[:, j] * g[:, j] for j in range(1, self.dimension)), g[:, 0] * g[:, 0])
            norm = np.sqrt(ss)
            out = np.empty_like(g)
            for j in range(self.dimension):
                np.divide(g[:, j], norm, out=out[:, j])
            return out
        u = rng.random(n) * self._cum[-1]
        return self.atoms.take(_atom_index(self._table, u), axis=0)

    def scaled(self, factor) -> "SphericalMeasure":
        """New measure with weights multiplied by factor (scalar or per-atom)."""
        if self.is_uniform:
            return SphericalMeasure.uniform(self.dimension, self.uniform_mass * float(factor))
        return SphericalMeasure.discrete(self.atoms, self.weights * np.asarray(factor, float))


def _atom_index(table: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The number of entries of table that are <= u, for each u.

    table is sorted, its length a power of two (at least 2), and its last
    entry +inf.  A binary search without branches: the first level compares
    every u against one scalar, and each further level adds step where the
    entry step - 1 past the current index is <= u.
    """
    step = len(table) // 2
    idx = (table[step - 1] <= u) * step
    while step > 1:
        step //= 2
        idx += (table[step - 1:].take(idx) <= u) * step
    return idx


@lru_cache(maxsize=None)
def _uniform_marginal_nodes(d: int, n: int):
    # nodes for u = <e, xi> with xi uniform on S^{d-1}; the marginal density
    # (1 - u^2)^{(d-3)/2} is singular at the endpoints for d = 2, so use a
    # Gauss-Jacobi rule on the positive half (weight (1-t)^p after t = 2u-1,
    # the smooth (1+u)^p factor folded into the weights) and mirror it
    p = (d - 3) / 2.0
    t, w = special.roots_jacobi(max(n // 2, 4), p, 0.0)
    u = (t + 1.0) / 2.0
    w = w * (1.0 + u) ** p
    u = np.concatenate([-u[::-1], u])
    w = np.concatenate([w[::-1], w])
    w = w / w.sum()
    u.flags.writeable = w.flags.writeable = False
    return u, w


def parse_spherical_spec(text: str) -> SphericalMeasure:
    """Parse the CLI/config measure syntax.

    ``discrete:[(x1,...,xd):w, ...]`` or ``uniform:d:mass``.
    """
    text = text.strip()
    if text.startswith("uniform:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad uniform spec: {text!r}")
        return SphericalMeasure.uniform(int(parts[1]), float(parts[2]))
    if text.startswith("discrete:"):
        body = text[len("discrete:"):].strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError(f"bad discrete spec: {text!r}")
        atoms, weights = [], []
        for chunk in _split_atoms(body[1:-1]):
            vec, _, w = chunk.rpartition(":")
            vec = vec.strip()
            if not (vec.startswith("(") and vec.endswith(")")):
                raise ValueError(f"bad atom {chunk!r} in {text!r}")
            atoms.append([float(x) for x in vec[1:-1].split(",")])
            weights.append(float(w))
        return SphericalMeasure.discrete(atoms, weights)
    raise ValueError(f"unknown spherical measure spec: {text!r}")


def _split_atoms(body: str):
    depth = 0
    start = 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            yield body[start:i].strip()
            start = i + 1
    tail = body[start:].strip()
    if tail:
        yield tail
