"""Characteristic-function oracles and tail/variation diagnostics.

The quadrature CF is itself an oracle for the samplers, so it gets its own
independent cross-check here: an mpmath tanh-sinh / oscillatory quadrature
of the same Levy-Khintchine exponent at much higher precision.
"""

import re

import mpmath
import numpy as np
import pytest

from layerlab import (EULER_GAMMA, GaussianCF, IsotropicStableCF, LayeredQ,
                      LayeredQuadratureCF, SamplePath, SphericalMeasure,
                      StableCF, blend_q, cf_distance, default_y_grid, ecf,
                      hill_ci, hill_tail_index, make_grid,
                      p_variation, stable_cf_constant)


def test_stable_cf_cauchy(sym1):
    # alpha = 1, symmetric atoms of total mass 2: exp(-pi |y|)
    cf = StableCF(1.0, sym1)
    for y in (0.3, 1.0, 2.5):
        assert abs(cf(np.array([y])) - np.exp(-np.pi * y)) < 1e-12
    assert cf(np.array([0.0])) == 1.0


def test_stable_cf_symmetric_real(sym1):
    cf = StableCF(1.5, sym1)
    for y in (0.5, 1.7):
        val = cf(np.array([y]))
        assert abs(val.imag) < 1e-14
        assert 0.0 < val.real < 1.0


def test_stable_cf_invalid_alpha(sym1):
    for a in (0.0, 2.0, -0.5):
        with pytest.raises(ValueError):
            StableCF(a, sym1)


def test_stable_cf_series_marginal_eta(skew1):
    cf = StableCF.series_marginal(0.5, skew1)
    np.testing.assert_allclose(cf.eta, [2.0])
    cf1 = StableCF.series_marginal(1.0, skew1)
    np.testing.assert_allclose(cf1.eta, [0.0])


@pytest.mark.parametrize("alpha", [0.7, 1.0, 1.5])
def test_stable_cf_discrete_d2_is_the_per_atom_sum(alpha):
    # the exponent written out atom by atom; y = (0, 1) puts <y, xi> = 0 on
    # the first atom, where the alpha = 1 log term is 0
    atoms = np.array([[1.0, 0.0], [-0.5, 0.8], [0.1, -1.0]])
    atoms /= np.linalg.norm(atoms, axis=1)[:, None]
    weights = np.array([0.3, 1.7, 0.9])
    cf = StableCF(alpha, SphericalMeasure.discrete(atoms, weights))
    m1 = weights @ atoms
    for y in ([0.0, 1.0], [1.3, -0.4], [-2.0, 3.5]):
        y = np.array(y)
        psi = 0.0
        for xi, w in zip(atoms, weights):
            a = float(y @ xi)
            if alpha == 1.0:
                psi += w * (abs(a) + (1j * 2.0 / np.pi * a * np.log(abs(a)) if a else 0.0))
            else:
                psi += w * abs(a) ** alpha * (1.0 - 1j * np.tan(np.pi * alpha / 2.0)
                                              * np.sign(a))
        tau = -(1.0 - EULER_GAMMA) * m1 if alpha == 1.0 else -m1 / (1.0 - alpha)
        expect = np.exp(1j * (y @ tau) - stable_cf_constant(alpha) * psi)
        assert abs(cf(y) - expect) < 1e-14


def test_isotropic_matches_uniform_stable():
    # the uniform spherical measure gives an isotropic stable law, so the
    # generic StableCF and the closed-form isotropic constant must agree
    d, beta, mass = 2, 1.5, 3.0
    iso = IsotropicStableCF(beta, d, mass)
    gen = StableCF(beta, SphericalMeasure.uniform(d, mass))
    for y in ([0.5, 0.0], [1.0, 2.0], [-0.7, 0.3]):
        y = np.array(y)
        assert abs(iso(y) - gen(y)) < 1e-6


def test_gaussian_cf():
    cf = GaussianCF([[2.0, 0.0], [0.0, 1.0]])
    y = np.array([1.0, 2.0])
    assert abs(cf(y) - np.exp(-0.5 * (2.0 + 4.0))) < 1e-14


def _mp_layered_exponent(alpha, beta, a):
    # int_0^oo (e^{iar} - 1 - iar 1(r<=1)) q(r) dr at 50 digits; the outer
    # piece is split at R = max(1, 1/|a|): a plain quadrature on [1, R], and
    # quadosc only beyond R, where the oscillation has set in
    mpmath.mp.dps = 50
    al, be, aa = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(a)
    R = max(mpmath.mpf(1), 1 / abs(aa))
    inner_re = mpmath.quad(
        lambda r: (mpmath.cos(aa * r) - 1) * r ** (-al - 1), [0, 1])
    inner_im = mpmath.quad(
        lambda r: (mpmath.sin(aa * r) - aa * r) * r ** (-al - 1), [0, 1])
    outer_re = mpmath.quad(
        lambda r: (mpmath.cos(aa * r) - 1) * r ** (-be - 1), [1, R]) + mpmath.quadosc(
        lambda r: (mpmath.cos(aa * r)) * r ** (-be - 1), [R, mpmath.inf],
        omega=aa) - R ** (-be) / be
    outer_im = mpmath.quad(
        lambda r: mpmath.sin(aa * r) * r ** (-be - 1), [1, R]) + mpmath.quadosc(
        lambda r: mpmath.sin(aa * r) * r ** (-be - 1), [R, mpmath.inf],
        omega=aa)
    return complex(inner_re + outer_re, inner_im + outer_im)


def test_layered_cf_against_mpmath():
    sigma = SphericalMeasure.discrete(np.array([[1.0]]), np.array([1.0]))
    q = LayeredQ.canonical(1.3, 1.9, 1.0)
    cf = LayeredQuadratureCF(q, sigma)
    for a in (0.5, 2.0, 7.0, 1e-3):
        expect = np.exp(_mp_layered_exponent(1.3, 1.9, a))
        got = cf(np.array([a]))
        assert abs(got - expect) < 1e-6


def _mp_inner_series(alpha, a):
    # int_0^1 (e^{iar} - 1 - iar) r^{-alpha-1} dr = sum_{k>=2} (ia)^k / (k! (k -
    # alpha)) at 60 digits: at |a| = 60 the terms reach 1e25 before they cancel
    with mpmath.workdps(60):
        z, al = mpmath.mpc(0, a), mpmath.mpf(alpha)
        term, total, k = z, mpmath.mpc(0), 1
        while k < 2 * abs(a) + 60:
            k += 1
            term = term * z / k
            total += term / (k - al)
        return complex(total)


@pytest.mark.parametrize("alpha", [0.5, 0.7, 1.0, 1.1, 1.3, 1.9, 1.99])
def test_inner_exponent_against_the_series(alpha):
    # the canonical q and the same density as a custom q, on a log grid of
    # |a| over [1e-8, 60]
    from layerlab.stats import _inner_exponent
    q = LayeredQ.canonical(alpha, 1.7, 1.0)
    custom = LayeredQ.custom(alpha, 1.7,
                             lambda r, xi: r ** (-alpha - 1.0) if r <= 1.0 else r ** -2.7,
                             lambda xi: 1.0, lambda xi: 1.0)
    for a in np.logspace(-8.0, np.log10(60.0), 25).tolist():
        ref = _mp_inner_series(alpha, a)
        for variant in (q, custom):
            assert abs(_inner_exponent(variant, a, None) - ref) <= 1e-13 * max(1.0, abs(ref))


@pytest.mark.parametrize("alpha", [1.0, 1.99])
def test_inner_exponent_converges_at_high_frequency(alpha):
    # the first 26 points of a 40-point log grid over [60, 3e4], up to
    # |a| = 3223: in r, QAWS stopped on its roundoff test at |a| = 1056
    from layerlab.stats import _inner_exponent
    q = LayeredQ.canonical(alpha, 1.7, 1.0)
    for a in np.logspace(np.log10(60.0), np.log10(3e4), 40)[:26].tolist():
        assert np.isfinite(_inner_exponent(q, a, None))


def test_layered_cf_of_a_steep_blend(sym1):
    # blend_q(1.99, 1.7) overflowed a Python float in the small-jump
    # integral at every frequency; on the symmetric pair its CF is real
    cf = LayeredQuadratureCF(blend_q(1.99, 1.7), sym1)
    Y = default_y_grid(1)
    psi = cf.exponent(Y)
    assert np.all(np.isfinite(psi)) and np.all(np.abs(psi.imag) < 1e-10)
    assert np.all(psi.real[Y[:, 0] != 0.0] < 0.0)


def test_outer_exponent_at_small_frequency():
    # for beta in (1,2) the outer exponent is i a m1 + O(|a|^beta) as a -> 0,
    # m1 = 1/(beta-1); the Fourier quadrature started at r = 1 gave -Q(1)
    # for |a| <= 1e-5, so a frequency meeting an atom at a rounding-level
    # angle (y . xi = 4.4e-16 below) took a factor exp(-w Q(1)) in the CF
    from layerlab.stats import _outer_exponent
    q = LayeredQ.canonical(1.3, 1.9, 1.0)
    for a in (1e-5, 1e-8, 4.4e-16, -1e-6):
        assert abs(_outer_exponent(q, a, None) - 1j * a / 0.9) < 100 * abs(a) ** 1.9
    one = SphericalMeasure.discrete(np.array([[1.0, 0.0]]), np.array([1.0]))
    two = SphericalMeasure.discrete(np.array([[1.0, 0.0], [-0.6, -0.8]]),
                                    np.array([1.0, 1.0]))
    y = np.array([4.0, -3.0])
    assert abs(LayeredQuadratureCF(q, two)(y) - LayeredQuadratureCF(q, one)(y)) < 1e-12


def test_layered_cf_symmetric_real(sym1):
    q = LayeredQ.canonical(1.3, 1.9, 2.0)
    cf = LayeredQuadratureCF(q, sym1)
    val = cf(np.array([1.5]))
    assert abs(val.imag) < 1e-10
    assert 0.0 < val.real < 1.0
    assert cf(np.array([0.0])) == 1.0


def test_layered_cf_uniform_runs():
    q = LayeredQ.canonical(1.3, 1.9, 2.0)
    cf = LayeredQuadratureCF(q, SphericalMeasure.uniform(2, 2.0))
    val = cf(np.array([1.0, 0.5]))
    assert abs(val.imag) < 1e-10
    assert 0.0 < val.real < 1.0


def test_ecf_basics():
    samples = np.zeros((10, 1))
    assert ecf(samples, np.array([3.0])) == 1.0
    samples = np.array([[1.0], [-1.0]])
    assert abs(ecf(samples, np.array([2.0])) - np.cos(2.0)) < 1e-14
    with pytest.raises(ValueError):
        ecf(np.empty((0, 1)), np.array([1.0]))


@pytest.mark.parametrize("bad", [np.empty((0, 1)), np.array([[0.5], [np.inf]]),
                                 np.array([[np.nan, 1.0]])],
                         ids=["empty", "inf", "nan"])
def test_ecf_and_cf_distance_refuse_bad_samples(bad):
    # one check for both: a ValueError, not a NaN distance
    target = GaussianCF(np.eye(bad.shape[1]))
    with pytest.raises(ValueError, match="finite samples"):
        ecf(bad, np.ones(bad.shape[1]))
    with pytest.raises(ValueError, match="finite samples"):
        cf_distance(bad, target)


@pytest.mark.parametrize("bad", [np.random.default_rng(5).standard_normal(5), 0.5,
                                 np.zeros((4, 1, 1)), np.zeros((4, 0))],
                         ids=["flat", "scalar", "3-d", "d=0"])
def test_ecf_and_cf_distance_refuse_samples_not_n_by_d(bad, monkeypatch):
    # a flat array of n values is not n samples in d = 1 (nor one in d = n):
    # it is refused before the default grid or any phase is built
    from layerlab import stats
    monkeypatch.setattr(stats, "default_y_grid", lambda d: pytest.fail("built a grid"))
    shape = re.escape(str(np.shape(bad)))
    with pytest.raises(ValueError, match=r"\(n, d >= 1\) array, got shape " + shape):
        ecf(bad, np.ones(1))
    with pytest.raises(ValueError, match=r"\(n, d >= 1\) array, got shape " + shape):
        cf_distance(bad, GaussianCF([[1.0]]))


def test_default_y_grid_shapes():
    g1 = default_y_grid(1)
    assert g1.shape == (21, 1)
    assert g1.min() == -5.0 and g1.max() == 5.0
    g2 = default_y_grid(2, half_width=3.0, n=5)
    assert g2.shape == (25, 2)
    assert np.max(np.abs(g2)) == 3.0


def test_cf_distance_gaussian_sanity():
    rng = np.random.default_rng(7)
    samples = rng.standard_normal((20000, 1))
    assert cf_distance(samples, GaussianCF([[1.0]])) < 0.05
    # a wrong target must be visibly far
    assert cf_distance(samples, GaussianCF([[4.0]])) > 0.2


def test_hill_on_exact_pareto():
    rng = np.random.default_rng(11)
    x = (1.0 - rng.random(100000)) ** (-1.0 / 2.0)
    est = hill_tail_index(x, k=1000)
    assert 1.8 < est < 2.2
    est2, lo, hi = hill_ci(x, k=1000, seed=3)
    assert est2 == est
    assert lo < 2.0 < hi


def test_hill_default_k_is_sqrt_n():
    rng = np.random.default_rng(2)
    x = (1.0 - rng.random(10000)) ** (-1.0 / 1.5)
    assert hill_tail_index(x) == hill_tail_index(x, k=100)


def test_hill_validation():
    with pytest.raises(ValueError):
        hill_tail_index([1.0])
    with pytest.raises(ValueError):
        hill_tail_index([1.0, -2.0, 3.0])
    with pytest.raises(ValueError):
        hill_tail_index([1.0, 2.0, 3.0], k=3)
    with pytest.raises(ValueError):
        hill_tail_index(np.ones(10), k=3)


def test_p_variation():
    grid = make_grid(1.0, 4)
    values = np.array([[0.0], [1.0], [-1.0], [0.0], [2.0]])
    path = SamplePath(grid=grid, values=values,
                      jump_times=np.empty(0), jump_vectors=np.empty((0, 1)))
    assert p_variation(path, 1.0) == 1.0 + 2.0 + 1.0 + 2.0
    assert p_variation(path, 2.0) == 1.0 + 4.0 + 1.0 + 4.0
    with pytest.raises(ValueError):
        p_variation(path, 0.0)


def _five_measures():
    atoms = np.array([[1.0, 0.0], [-0.5, 0.8], [0.1, -1.0]])
    atoms /= np.linalg.norm(atoms, axis=1)[:, None]
    return {"symmetric": SphericalMeasure.symmetric_pair(2.0),
            "skewed 2:1": SphericalMeasure.discrete([[1.0], [-1.0]], [2.0, 1.0]),
            "uniform d=2": SphericalMeasure.uniform(2, 2.0),
            "3 atoms d=2": SphericalMeasure.discrete(atoms, [0.3, 1.7, 0.9]),
            "uniform d=3": SphericalMeasure.uniform(3, 2.0)}


@pytest.mark.parametrize("measure", list(_five_measures()))
def test_exponent_over_a_grid_is_the_pointwise_log_cf(measure):
    sigma = _five_measures()[measure]
    d = sigma.dimension
    Y = default_y_grid(d, n=5 if d > 1 else 21)
    oracles = [StableCF.series_marginal(1.5, sigma), StableCF(1.0, sigma),
               LayeredQuadratureCF(LayeredQ.canonical(1.3, 1.9, sigma.total_mass()), sigma),
               GaussianCF(0.7 * np.eye(d) + 0.1), IsotropicStableCF(1.5, d, 2.0)]
    for cf in oracles:
        psi = cf.exponent(Y)
        assert psi.shape == (len(Y),)
        point = np.array([cf(y) for y in Y])
        np.testing.assert_allclose(np.exp(psi), point, rtol=1e-13, atol=0.0)
    # a plain callable is still a target, read point by point
    x = np.random.default_rng(16).standard_normal((50, d))
    cf = oracles[0]
    assert cf_distance(x, lambda y: cf(y), Y) == pytest.approx(cf_distance(x, cf, Y),
                                                              rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("q", [LayeredQ.canonical(1.3, 1.9, 2.0),
                               LayeredQ.canonical(1.9, 1.3, 2.0), blend_q(1.3, 1.9)],
                         ids=["canonical(1.3,1.9)", "canonical(1.9,1.3)", "blend(1.3,1.9)"])
def test_exponent_at_minus_a_is_the_conjugate(q):
    # the fold f(-a, xi) = conj f(a, xi) that lets the quadrature CF integrate
    # each |a| once, checked on the integrals themselves, without the cache
    from layerlab.stats import _inner_exponent, _outer_exponent
    for xi in (None, np.array([-0.6, 0.8])):
        for a in (1e-6, 0.3, 2.0, 7.0):
            plus = _inner_exponent(q, a, xi) + _outer_exponent(q, a, xi)
            minus = _inner_exponent(q, -a, xi) + _outer_exponent(q, -a, xi)
            assert abs(minus - np.conj(plus)) <= 1e-12 * max(1.0, abs(plus))


def test_quadrature_cf_integrates_each_distinct_modulus_once(sym1, monkeypatch):
    # the 21 frequencies of the default grid meet the atoms +1 and -1 at
    # a = +-y; a canonical q ignores the direction, so only the 11 distinct
    # |a| (0 included) are integrated, on the first sweep and on no later one
    from layerlab import stats
    calls = []
    inner = stats._inner_exponent
    monkeypatch.setattr(stats, "_inner_exponent",
                        lambda q, a, xi: calls.append(a) or inner(q, a, xi))
    cf = LayeredQuadratureCF(LayeredQ.canonical(1.3, 1.9, 2.0), sym1)
    cf.exponent(default_y_grid(1))
    assert len(calls) == 11
    cf_distance(np.zeros((3, 1)), cf)
    assert len(calls) == 11


def _q_dir():
    # c(xi) = 1 + xi_1 / 2 weighs xi and -xi differently
    c_dir = lambda xi: 1.0 if xi is None else 1.0 + 0.5 * xi[0]
    return LayeredQ.custom(1.5, 0.8, lambda r, xi: c_dir(xi) * (1 + r) ** 0.7 * r ** -2.5,
                           c_dir, lambda xi: 1.0)


@pytest.mark.parametrize("q_name, measure, count", [("blend", "symmetric", 11),
                                                    ("blend", "3 atoms d=2", 34),
                                                    ("q_dir", "symmetric", 22)])
def test_quadrature_cf_integrates_once_per_tail_group(q_name, measure, count, monkeypatch):
    # atoms whose tails agree (qfunc._tail_groups) share each |a|: a
    # direction-free custom q is integrated once per distinct |a|, as a
    # canonical q is, and q_dir once per |a| and direction; the exponent
    # is the sum of the one-atom oracles either way.  On the 3 atoms, y =
    # +-(4, -3) meets (-0.6, -0.8) at |a| = 4.4e-16, integrated apart from a = 0
    from layerlab import stats
    sigma = {"symmetric": SphericalMeasure.symmetric_pair(2.0),
             "3 atoms d=2": SphericalMeasure.discrete([[1.0, 0.0], [0.0, 1.0], [-0.6, -0.8]],
                                                      [1.0, 0.6, 0.4])}[measure]
    q = blend_q(1.3, 1.9) if q_name == "blend" else _q_dir()
    Y = default_y_grid(sigma.dimension, n=21 if sigma.dimension == 1 else 11)
    calls = []
    inner = stats._inner_exponent
    monkeypatch.setattr(stats, "_inner_exponent",
                        lambda q, a, xi: calls.append(a) or inner(q, a, xi))
    psi = LayeredQuadratureCF(q, sigma).exponent(Y)
    assert len(calls) == count
    monkeypatch.undo()
    ref = sum(LayeredQuadratureCF(q, SphericalMeasure.discrete([xi], [w])).exponent(Y)
              for xi, w in zip(sigma.atoms, sigma.weights))
    np.testing.assert_allclose(psi, ref, rtol=1e-14, atol=1e-15)


def test_cf_distance_refuses_a_bad_grid():
    x = np.random.default_rng(16).standard_normal((50, 1))
    cf = GaussianCF([[1.0]])
    nan_grid = default_y_grid(1)
    nan_grid[3, 0] = np.nan
    for grid, shape in ((np.linspace(-5.0, 5.0, 21), "(21,)"), (np.ones((3, 2)), "(3, 2)"),
                        (np.empty((0, 1)), "(0, 1)"), (nan_grid, "(21, 1)")):
        for target in (cf, lambda y: cf(y)):
            with pytest.raises(ValueError, match=re.escape(shape)):
                cf_distance(x, target, grid)
        with pytest.raises(ValueError, match=re.escape(shape)):
            cf.exponent(grid)


def test_quadrature_cf_keeps_a_tiny_modulus_apart_from_zero():
    # <(-4, 3), (-0.6, -0.8)> rounds to 4.4e-16, where canonical(1.5, 0.1)'s
    # exponent is -0.31: the oracle filed it with a = 0 when a = 0 came first
    # on the grid.  The two sums over atoms differ in the last bit only
    sigma = SphericalMeasure.discrete([[1.0, 0.0], [0.0, 1.0], [-0.6, -0.8]], [1.0, 0.6, 0.4])
    q = LayeredQ.canonical(1.5, 0.1, sigma.total_mass())
    Y, y = default_y_grid(2, n=11), np.array([[-4.0, 3.0]])
    alone = LayeredQuadratureCF(q, sigma).exponent(y)[0]
    on_grid = LayeredQuadratureCF(q, sigma).exponent(Y)[np.flatnonzero((Y == y).all(axis=1))[0]]
    assert abs(on_grid - alone) <= 1e-12 * abs(alone)
