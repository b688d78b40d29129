"""Spherical measures: construction, moments, symmetry, direction sampling."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from layerlab import SphericalMeasure, parse_spherical_spec
from layerlab.spherical import MAX_MATRIX_DIMENSION, _atom_index


def test_symmetric_pair_defaults():
    s = SphericalMeasure.symmetric_pair()
    assert s.dimension == 1
    assert s.total_mass() == 2.0
    assert s.is_symmetric()
    np.testing.assert_allclose(s.first_moment(), [0.0])


def test_discrete_moments():
    s = SphericalMeasure.discrete(np.array([[1.0], [-1.0]]), np.array([2.0, 1.0]))
    assert s.total_mass() == 3.0
    np.testing.assert_allclose(s.first_moment(), [1.0])
    np.testing.assert_allclose(s.second_moment(), [[3.0]])
    assert not s.is_symmetric()


def test_second_moment_2d():
    atoms = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    s = SphericalMeasure.discrete(atoms, np.array([1.0, 4.0, 1.0, 4.0]))
    np.testing.assert_allclose(s.second_moment(), np.diag([2.0, 8.0]))
    assert s.is_symmetric()
    assert s.antipodes == (2, 3, 0, 1)
    # an antipode of unequal weight, or none at all, is not symmetric
    for weights, kept in (([1.0, 4.0, 1.0, 4.5], atoms), ([1.0, 4.0, 1.0], atoms[:3])):
        lopsided = SphericalMeasure.discrete(kept, np.array(weights))
        assert lopsided.antipodes is None and not lopsided.is_symmetric()
    # atoms that repeat a direction pool their weights
    repeated = [[1.0], [2.0], [-1.0]]
    assert not SphericalMeasure.discrete(repeated, [1.0, 1.0, 1.0]).is_symmetric()
    balanced = SphericalMeasure.discrete(repeated, [1.0, 1.0, 2.0])
    assert balanced.is_symmetric() and balanced.antipodes == (2, 2, 0)


def test_uniform_measure():
    s = SphericalMeasure.uniform(3, 5.0)
    assert s.is_uniform
    assert s.total_mass() == 5.0
    assert s.is_symmetric()
    np.testing.assert_allclose(s.first_moment(), np.zeros(3), atol=1e-15)


def test_atoms_are_normalized():
    s = SphericalMeasure.discrete(np.array([[3.0, 4.0]]), np.array([1.0]))
    np.testing.assert_allclose(s.atoms, [[0.6, 0.8]])
    with pytest.raises(ValueError):
        SphericalMeasure.discrete(np.array([[0.0, 0.0]]), np.array([1.0]))


@pytest.mark.parametrize("atoms, unit", [
    ([[1e200]], [[1.0]]), ([[-1e-200]], [[-1.0]]), ([[1e200, 1e200]], [[1.0, 1.0]]),
    ([[3e-160, -4e-160]], [[0.6, -0.8]]),
    ([[5e-324, 0.0], [0.0, -1e308]], [[1.0, 0.0], [0.0, -1.0]])])
def test_atoms_of_extreme_magnitude_are_normalized(atoms, unit):
    # squaring such a row under- or overflows, so it is scaled by its largest
    # |component| before it is normalized: the measure is that of its
    # directions, and a d = 1 atom is exactly +1 or -1
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = SphericalMeasure.discrete(atoms, np.ones(len(atoms)))
    ref = SphericalMeasure.discrete(unit, np.ones(len(unit)))
    assert s.atoms.tobytes() == ref.atoms.tobytes()
    for zero in ([[0.0]], [[0.0, -0.0]]):
        with pytest.raises(ValueError, match="zero vector is not a direction"):
            SphericalMeasure.discrete(zero, [1.0])
    for bad in ([[np.inf]], [[1e200, np.nan]]):
        with pytest.raises(ValueError, match="atom components must be finite"):
            SphericalMeasure.discrete(bad, [1.0])


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(st.floats(-1e150, 1e150), min_size=3, max_size=3),
                     min_size=1, max_size=4),
       d=st.integers(1, 3))
def test_atoms_of_normal_magnitude_keep_their_bytes(rows, d):
    # a row whose sum of squares is a normal float is divided by its
    # np.linalg.norm, to the byte
    atoms = np.array(rows)[:, :d]
    norms = np.linalg.norm(atoms, axis=1)
    assume(np.all(np.sum(atoms * atoms, axis=1) >= np.finfo(float).tiny))
    s = SphericalMeasure.discrete(atoms, np.ones(len(atoms)))
    assert s.atoms.tobytes() == (atoms / norms[:, None]).tobytes()


def test_weights_must_be_positive():
    with pytest.raises(ValueError):
        SphericalMeasure.discrete(np.array([[1.0]]), np.array([-1.0]))


@pytest.mark.parametrize("build", [
    lambda: SphericalMeasure.uniform(2, np.inf),
    lambda: SphericalMeasure.uniform(2, np.nan),
    lambda: SphericalMeasure.uniform(1, np.inf),
    lambda: SphericalMeasure.discrete([[1.0], [-1.0]], [np.inf, 1.0]),
    lambda: SphericalMeasure.discrete([[1.0], [-1.0]], [np.nan, 1.0]),
    lambda: SphericalMeasure.discrete([[1.0], [-1.0]], [1e308, 1e308]),
    lambda: SphericalMeasure.discrete([[1.0, np.nan], [0.0, 1.0]], [1.0, 1.0]),
    lambda: SphericalMeasure.discrete([[np.inf, 1.0], [0.0, 1.0]], [1.0, 1.0]),
], ids=["uniform-inf", "uniform-nan", "uniform-d1-inf", "weight-inf", "weight-nan",
        "total-overflows", "atom-nan", "atom-inf"])
def test_non_finite_measures_rejected(build):
    with pytest.raises(ValueError):
        build()


def test_direction_sampling_frequencies():
    # spec-style binomial bound: frequency of +1 in [0.5 +- 0.01] at 1e5 draws
    s = SphericalMeasure.symmetric_pair(2.0)
    rng = np.random.default_rng(7)
    dirs = s.sample_directions(rng, 100000)
    frac = np.mean(dirs[:, 0] > 0)
    assert abs(frac - 0.5) < 0.01


def test_direction_sampling_weighted():
    s = SphericalMeasure.discrete(np.array([[1.0], [-1.0]]), np.array([3.0, 1.0]))
    rng = np.random.default_rng(8)
    dirs = s.sample_directions(rng, 100000)
    assert abs(np.mean(dirs[:, 0] > 0) - 0.75) < 0.01


def _measure_of_weights(weights):
    ang = np.linspace(0.0, 6.0, len(weights))
    return SphericalMeasure.discrete(np.column_stack([np.cos(ang), np.sin(ang)]), weights)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=300),
       st.integers(0, 2 ** 32 - 1))
def test_atom_index_equals_searchsorted(log_weights, seed):
    # weights from 1e-12 to 1e12, so that some cumulative sums tie after
    # rounding; u at 0, at every interior cumulative sum and the floats next
    # to it, at (1 - 2^-53) cum[-1], and uniform on [0, cum[-1])
    s = _measure_of_weights(10.0 ** np.array(log_weights))
    cum = s._cum
    inner = cum[:-1]
    near = np.concatenate((inner, np.nextafter(inner, -np.inf), np.nextafter(inner, np.inf)))
    u = np.concatenate(([0.0, (1.0 - 2.0 ** -53) * cum[-1]], near,
                        np.random.default_rng(seed).random(500) * cum[-1]))
    u = u[(u >= 0.0) & (u < cum[-1])]
    np.testing.assert_array_equal(_atom_index(s._table, u),
                                  np.searchsorted(cum, u, side="right"))


@pytest.mark.parametrize("n_atoms", [1, 2, 3, 64, 300])
def test_sample_directions_equal_searchsorted_draw(n_atoms):
    # the same rng stream gives the atoms the searchsorted draw gives
    s = _measure_of_weights(np.random.default_rng(n_atoms).uniform(0.1, 5.0, n_atoms))
    u = np.random.default_rng(4).random(10000) * s._cum[-1]
    ref = s.atoms[np.searchsorted(s._cum, u, side="right")]
    np.testing.assert_array_equal(s.sample_directions(np.random.default_rng(4), 10000), ref)


def test_matrix_dimension_budget_checked_before_allocating(monkeypatch):
    d = MAX_MATRIX_DIMENSION + 1
    atoms = np.zeros((2, d))
    atoms[:, 0] = (1.0, -1.0)
    measures = (SphericalMeasure.uniform(d, 2.0), SphericalMeasure.discrete(atoms, [1.0, 1.0]))

    def no_matrix(*args, **kwargs):
        raise AssertionError("a d x d matrix was allocated")

    monkeypatch.setattr(np, "eye", no_matrix)
    monkeypatch.setattr(np, "outer", no_matrix)
    for s in measures:
        with pytest.raises(ValueError, match="budget"):
            s.second_moment()
        with pytest.raises(ValueError, match="budget"):
            s.integrate(lambda xi: 1.0, 2)
    # the first moment is a vector and stays available
    assert measures[1].first_moment().shape == (d,)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.floats(0.1, 10.0), st.integers(0, 2 ** 31))
def test_uniform_samples_lie_on_sphere(d, mass, seed):
    s = SphericalMeasure.uniform(d, mass)
    dirs = s.sample_directions(np.random.default_rng(seed), 32)
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)


def test_scaled():
    s = SphericalMeasure.symmetric_pair(2.0).scaled(1.5)
    assert abs(s.total_mass() - 3.0) < 1e-15


def test_parse_discrete_spec():
    s = parse_spherical_spec("discrete:[(1):1,(-1):1]")
    assert s.dimension == 1
    assert s.total_mass() == 2.0
    s2 = parse_spherical_spec("discrete:[(1,0):2,(0,1):3]")
    assert s2.dimension == 2
    assert s2.total_mass() == 5.0


def test_parse_uniform_spec():
    s = parse_spherical_spec("uniform:2:4.0")
    assert s.is_uniform and s.dimension == 2 and s.total_mass() == 4.0


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_spherical_spec("nonsense:[1]")


@pytest.mark.parametrize("sigma", [
    SphericalMeasure.symmetric_pair(2.0),
    SphericalMeasure.discrete(np.array([[1.0], [-1.0]]), np.array([2.0, 1.0])),
    SphericalMeasure.discrete(np.array([[1.0, 0.0], [0.6, 0.8], [-0.28, 0.96]]),
                              np.array([0.7, 1.3, 0.45])),
    SphericalMeasure.uniform(2, 3.0),
    SphericalMeasure.uniform(3, 1.7),
])
def test_integrate_constant_radial_gives_the_moments(sigma):
    one = lambda xi: 1.0
    assert sigma.integrate(one, 0) == pytest.approx(sigma.total_mass(), rel=1e-15)
    np.testing.assert_allclose(sigma.integrate(one, 1), sigma.first_moment(),
                               rtol=1e-15, atol=1e-15)
    np.testing.assert_allclose(sigma.integrate(one, 2), sigma.second_moment(),
                               rtol=1e-15, atol=1e-15)


def test_integrate_uniform_reads_xi_none():
    sigma = SphericalMeasure.uniform(2, 3.0)
    seen = []

    def radial(xi):
        seen.append(xi)
        return 2.0

    assert sigma.integrate(radial, 0) == 6.0
    np.testing.assert_array_equal(sigma.integrate(radial, 2), 3.0 * np.eye(2))
    assert seen == [None, None]

    def never(xi):
        raise AssertionError("order 1 on a uniform measure reads no radial value")

    np.testing.assert_array_equal(sigma.integrate(never, 1), np.zeros(2))
    with pytest.raises(ValueError):
        sigma.integrate(radial, 3)


def test_uniform_nodes_are_cached_read_only():
    from layerlab.spherical import _uniform_marginal_nodes
    u, w = _uniform_marginal_nodes(2, 48)
    again = _uniform_marginal_nodes(2, 48)
    assert again[0] is u and again[1] is w
    for arr in (u, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    sigma = SphericalMeasure.uniform(2, 3.0)
    a, weights = sigma.project(np.array([[3.0, 4.0], [0.0, 0.0]]), 48)
    np.testing.assert_array_equal(a, np.stack([5.0 * u, 0.0 * u]))
    np.testing.assert_array_equal(weights, 3.0 * w)
    assert _uniform_marginal_nodes(2, 48)[0] is u
