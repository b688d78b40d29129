"""The layered q-function: density, tail integral, inverse tail, limit
measures.  Closed-form reference values are recomputed from the density
q(r) = r^{-alpha-1} (r <= 1), r^{-beta-1} (r > 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerlab import (LayeredQ, MixDistribution, SphericalMeasure, blend_q,
                      canonical_magnitudes, levy_tail_mass, mixed_law, parse_q_spec,
                      rejection_law, stable_drift_constant, stable_law, zeta)
from layerlab.qfunc import limit_mean, stable_magnitudes


@pytest.fixture
def q_can():
    return LayeredQ.canonical(0.5, 1.5, 2.0)


def test_eval_q_closed_forms(q_can):
    assert q_can.eval_q(1.0) == 1.0
    assert abs(q_can.eval_q(4.0) - 4.0 ** (-2.5)) < 1e-15
    assert abs(q_can.eval_q(0.25) - 0.25 ** (-1.5)) < 1e-12


def test_eval_q_rejects_nonpositive(q_can):
    with pytest.raises(ValueError):
        q_can.eval_q(0.0)


def test_limit_densities(q_can):
    assert q_can.c1() == 1.0
    assert q_can.c2() == 1.0


def test_tail_integral_closed_forms(q_can):
    # Q(r) = (r^-a - 1)/a + 1/b inside, r^-b / b outside, per unit mass
    assert abs(q_can.tail_integral(1.0) - 1.0 / 1.5) < 1e-15
    assert abs(q_can.tail_integral(2.0) - 2.0 ** (-1.5) / 1.5) < 1e-15
    r = 0.3
    expect = (r ** -0.5 - 1.0) / 0.5 + 1.0 / 1.5
    assert abs(q_can.tail_integral(r) - expect) < 1e-12


def test_tail_integral_strictly_decreasing(q_can):
    rs = np.logspace(-3, 3, 200)
    vals = [q_can.tail_integral(r) for r in rs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_inverse_tail_branch_boundary(q_can):
    # u = mass/beta maps to exactly 1 on both branches
    assert q_can.inverse_tail(2.0 / 1.5) == 1.0


def test_inverse_tail_inner_branch_value(q_can):
    # u = 8/3: (alpha u / mass + 1 - alpha/beta)^(-1/alpha) = (4/3)^-2
    assert abs(q_can.inverse_tail(8.0 / 3.0) - 0.5625) < 1e-14


def test_inverse_tail_nonincreasing(q_can):
    us = np.logspace(-3, 3, 200)
    vals = [q_can.inverse_tail(u) for u in us]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("alpha, beta, mass", [(1.3, 1.9, 2.0), (1.9, 1.3, 1.0),
                                               (0.5, 1.5, 3.0)])
def test_canonical_inverse_is_one_copy(alpha, beta, mass):
    # the array inverse is canonical_magnitudes byte for byte, the scalar one
    # the closed form in Python floats, and u = m/beta maps to exactly 1
    q = LayeredQ.canonical(alpha, beta, mass)
    us = mass / beta * np.logspace(-8.0, 8.0, 401)
    assert us.min() < mass / beta < us.max()
    got = q.inverse_tail(us)
    assert got.tobytes() == canonical_magnitudes(alpha, beta, us, mass, 1.0).tobytes()
    for u in us.tolist():
        ref = ((beta * u / mass) ** (-1.0 / beta) if u <= mass / beta
               else (alpha * u / mass + 1.0 - alpha / beta) ** (-1.0 / alpha))
        assert q.inverse_tail(u) == ref
    assert q.inverse_tail(mass / beta) == 1.0


@pytest.mark.parametrize("alpha, beta, T", [(1.3, 1.9, 1.0), (0.5, 1.5, 0.7),
                                            (1.5, 1.0, 1.5), (1.9, 0.8, 1.0)])
def test_stable_inverse_is_one_copy(alpha, beta, T):
    # every stable-index magnitude, bound and centering sum of the series, and
    # the canonical beta branch, is stable_magnitudes byte for byte
    sym = SphericalMeasure.symmetric_pair(2.0)
    skew = SphericalMeasure.discrete([[1.0], [-1.0]], [2.0, 1.0])
    mix = MixDistribution.uniform_on([alpha, beta])
    lo, hi = min(alpha, beta), max(alpha, beta)
    laws = [(stable_law(alpha, skew), alpha), (mixed_law(mix, sym), None),
            (rejection_law(lo, hi, sym, "inner"), lo)]
    if hi < 2.0:
        laws.append((rejection_law(lo, hi, sym, "outer"), hi))
    for law, index in laws:
        m = law.sigma.total_mass()
        draw = law.draw(11, T, 300.0)
        index_of_jump = draw.alphas if index is None else index
        mags, drift, _ = law.jumps(draw)
        want = stable_magnitudes(index_of_jump, draw.gammas, m, T)
        assert mags.tobytes() == want.tobytes()
        bound = (max(stable_magnitudes(a, 300.0, m, 1.0) for a in mix.atoms)
                 if index is None else stable_magnitudes(index, 300.0, m, 1.0))
        assert law.truncation_bound(300.0) == bound
        if drift is not None:
            # the stable centering: b_T minus the sum over the arrivals 1..n
            arrivals = np.arange(1, len(draw.gammas) + 1)
            comp = np.sum(stable_magnitudes(alpha, arrivals, m, T))
            assert stable_drift_constant(alpha, m, T) == (
                stable_magnitudes(alpha, 1.0, m, T) * zeta(1.0 / alpha))
            z0 = law.sigma.first_moment() / m
            want = (stable_drift_constant(alpha, m, T) - comp) * z0 / T
            assert drift.tobytes() == want.tobytes()
    mT = 2.0 * T
    us = mT / beta * np.logspace(-8.0, 8.0, 401)
    big = us <= mT / beta
    got = canonical_magnitudes(alpha, beta, us, 2.0, T)
    assert got[big].tobytes() == stable_magnitudes(beta, us[big], 2.0, T).tobytes()
    for u in us[big].tolist():
        assert (canonical_magnitudes(alpha, beta, u, 2.0, T)
                == stable_magnitudes(beta, u, 2.0, T))
        # a scalar level stays a scalar, the closed form in Python floats
        r = stable_magnitudes(alpha, u, 2.0, T)
        assert np.ndim(r) == 0 and r == (alpha * u / mT) ** (-1.0 / alpha)


@pytest.mark.parametrize("q", [LayeredQ.canonical(1.3, 1.9, 2.0), blend_q(1.3, 1.9)],
                         ids=["canonical", "blend"])
def test_inverse_tail_refuses_bad_levels(q):
    # a NaN level is refused like u <= 0, scalar or in an array
    for u in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="u > 0"):
            q.inverse_tail(u)
        with pytest.raises(ValueError, match="u > 0"):
            q.inverse_tail(np.array([1.0, u]))
        # series_magnitude checks its levels too, the canonical closed form
        # included
        with pytest.raises(ValueError, match="u > 0"):
            q.series_magnitude(u, 2.0)
        with pytest.raises(ValueError, match="u > 0"):
            q.series_magnitude(np.array([1.0, u]), 2.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.1, 1.9), st.floats(0.2, 3.5), st.floats(0.5, 4.0),
       st.floats(-5.0, 5.0))
def test_inverse_roundtrip_canonical(alpha, beta, mass, logr):
    q = LayeredQ.canonical(alpha, beta, mass)
    r = 10.0 ** logr
    u = q.tail_scale * q.tail_integral(r)
    assert abs(q.inverse_tail(u) - r) <= 1e-9 * r


def test_inverse_roundtrip_custom():
    q = blend_q(0.7, 1.6)
    for r in np.logspace(-2, 2, 25):
        u = q.tail_scale * q.tail_integral(r)
        assert abs(q.inverse_tail(u) - r) <= 1e-8 * r


def _kinked_q():
    # written for scalars only: the table must loop over it
    return LayeredQ.custom(1.3, 1.9,
                           q_fn=lambda r, xi: r ** -2.3 if r <= 1 else r ** -2.9,
                           c1_fn=lambda xi: 1.0, c2_fn=lambda xi: 1.0)


def test_table_inverse_matches_closed_form():
    # the canonical closed form is an oracle that shares nothing with the table
    q = _kinked_q()
    closed = LayeredQ.canonical(1.3, 1.9, 1.0)
    us = np.logspace(-6, 8, 200)
    got = q.inverse_tail(us)
    ref = np.array([closed.inverse_tail(u) for u in us])
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)


def test_table_inverse_array_equals_scalar():
    q = blend_q(0.7, 1.6)
    us = np.logspace(-7, 9, 150)
    got = q.inverse_tail(us)
    assert got.shape == us.shape
    np.testing.assert_array_equal(got, [q.inverse_tail(u) for u in us])
    assert isinstance(q.inverse_tail(2.0), float)
    assert q.inverse_tail(np.array([])).shape == (0,)


def test_table_inverse_nonincreasing():
    q = blend_q(1.3, 1.9)
    vals = q.inverse_tail(np.logspace(-15, 13, 2000))
    assert np.all(np.diff(vals) <= 0.0)


def test_table_inverse_beyond_table_ends():
    # levels outside [Q(1e8), Q(1e-8)] (1e12 and 1e-20 here) take the
    # Brent search; 1e-14 lies in the table's top decades
    q = blend_q(1.3, 1.9)
    tab = q._table(None)
    for u in (1e12, 1e-14, 1e-20):
        r = q.inverse_tail(u)
        assert abs(q.tail_integral(r) - u) <= 1e-10 * u
    assert 1e12 > tab.level[-1] and 1e-20 < tab.level[0]


def test_inverse_tail_overflow_is_a_quadrature_error():
    # a level far above the table sends the Brent search to radii where
    # blend_q's Python-float ** overflows inside tail_integral's quadrature:
    # a QuadratureError that names the radius, not a bare OverflowError
    from layerlab import QuadratureError
    q = blend_q(1.3, 1.9)
    with pytest.raises(QuadratureError, match=r"^tail integral at r = \S+e-\d+: q overflows"):
        q.inverse_tail(1e200)
    assert abs(q.tail_integral(q.inverse_tail(1e12)) - 1e12) <= 1e-10 * 1e12


def test_table_inverse_cached_per_direction():
    q = blend_q(1.3, 1.9)
    q.inverse_tail(1.0)
    q.inverse_tail(np.array([1.0, 2.0]), np.array([1.0]))
    q.inverse_tail(3.0, np.array([1.0]))
    assert len(q._tables) == 2


def test_custom_asymptotics_checked():
    # a custom q whose claimed c1 is off by more than 5% must be rejected
    with pytest.raises(ValueError):
        LayeredQ.custom(0.7, 1.6,
                        q_fn=lambda r, xi: r ** -1.7 if r <= 1 else r ** -2.6,
                        c1_fn=lambda xi: 2.0, c2_fn=lambda xi: 1.0)


def test_index_domains():
    with pytest.raises(ValueError):
        LayeredQ.canonical(2.1, 1.5, 2.0)   # inner index must be < 2
    with pytest.raises(ValueError):
        LayeredQ.canonical(-0.1, 1.5, 2.0)
    with pytest.raises(ValueError):
        LayeredQ.canonical(0.5, -1.0, 2.0)  # outer index must be positive


def test_limit_mean_is_the_per_atom_sum(q_can):
    # int xi c(xi) sigma(dxi), the first moment that the limit constants read
    def per_atom(c, sigma):
        return sum(w * c(xi) * xi for xi, w in zip(sigma.atoms, sigma.weights))

    skew = SphericalMeasure.discrete([[1.0], [-1.0]], [2.0, 1.0])
    atoms3 = SphericalMeasure.discrete([[1.0, 0.0], [0.0, 1.0], [-0.6, -0.8]],
                                       [1.0, 0.6, 0.4])
    c_dir = lambda xi: 1.0 if xi is None else 1.0 + 0.5 * xi[0]
    q_dir = LayeredQ.custom(1.5, 0.8, lambda r, xi: c_dir(xi) * (1 + r) ** 0.7 * r ** -2.5,
                            c_dir, lambda xi: 1.0)
    q_null = LayeredQ.custom(1.5, 0.8, lambda r, xi: (1 + r) ** -1.3 * r ** -0.5,
                             lambda xi: 0.0, lambda xi: 1.0)
    for c, sigma, expect in ((q_can.c1, skew, [1.0]), (q_can.c2, atoms3, [0.76, 0.28]),
                             (q_null.c1, skew, [0.0]), (q_dir.c1, atoms3, None)):
        got = limit_mean(c, sigma)
        np.testing.assert_allclose(got, per_atom(c, sigma), rtol=1e-15, atol=1e-15)
        if expect is not None:
            np.testing.assert_allclose(got, expect, rtol=1e-15, atol=1e-15)
    # a constant c on a uniform measure: the moment is zero by symmetry
    np.testing.assert_array_equal(limit_mean(blend_q(1.5, 0.8).c1,
                                             SphericalMeasure.uniform(3, 2.0)), np.zeros(3))


def test_levy_tail_mass(q_can):
    sigma = SphericalMeasure.symmetric_pair(2.0)
    # nu(||z|| > x) = mass * Q(x)
    assert abs(levy_tail_mass(q_can, sigma, 2.0)
               - 2.0 * 2.0 ** (-1.5) / 1.5) < 1e-14
    assert abs(levy_tail_mass(q_can, sigma, 1.0) - 2.0 * (1.0 / 1.5)) < 1e-14


def test_series_magnitude_matches_inverse(q_can):
    # series magnitude at Gamma/T = g is the inverse tail of g * tail_scale / m
    g = 3.7
    m = 2.0
    assert abs(q_can.series_magnitude(g, m)
               - q_can.inverse_tail(g * q_can.tail_scale / m)) < 1e-14


def test_blend_q_density():
    q = blend_q(0.7, 1.6)
    r = 0.5
    assert abs(q.eval_q(r) - r ** -1.7 * 1.5 ** (0.7 - 1.6)) < 1e-14
    assert q.c1() == 1.0 and q.c2() == 1.0
    # asymptotic layering: inner exponent alpha, outer exponent beta
    assert abs(q.eval_q(1e-8) * 1e-8 ** 1.7 - 1.0) < 1e-6
    assert abs(q.eval_q(1e8) * 1e8 ** 2.6 - 1.0) < 1e-6


def test_parse_q_spec():
    q = parse_q_spec("canonical:alpha=1.3,beta=1.9", 2.0)
    assert q.is_canonical and q.alpha == 1.3 and q.beta == 1.9
    q2 = parse_q_spec("blend:alpha=0.7,beta=1.6", 2.0)
    assert not q2.is_canonical
    with pytest.raises(ValueError):
        parse_q_spec("mystery:alpha=1", 2.0)


def _as_custom(q):
    # the canonical density written as a custom q, so it takes the quadrature
    a, b = q.alpha, q.beta
    return LayeredQ.custom(a, b, lambda r, xi: r ** (-a - 1.0) if r <= 1.0 else r ** (-b - 1.0),
                           lambda xi: 1.0, lambda xi: 1.0)


_MOMENT_RANGES = [(0.0, 1.0), (1.0, np.inf), (0.0, np.inf), (0.0, 1e-2),
                  (0.3, np.inf), (4.0, np.inf), (1e-12, 1.0), (1e-40, 1.0),
                  (1e-12, np.inf)]


@pytest.mark.parametrize("alpha,beta", [(0.5, 4.5), (1.5, 2.5), (1.0, 2.0)])
def test_radial_moment_closed_form_matches_quadrature(alpha, beta):
    q = LayeredQ.canonical(alpha, beta, 2.0)
    qc = _as_custom(q)
    checked = 0
    for k in (0, 1, 2, 4):
        for lo, hi in _MOMENT_RANGES:
            if (lo == 0.0 and k <= alpha) or (hi == np.inf and k >= beta):
                continue
            np.testing.assert_allclose(q.radial_moment(k, lo, hi),
                                       qc.radial_moment(k, lo, hi), rtol=1e-9)
            checked += 1
    assert checked >= 6


def _q_dir():
    # c(xi) = 1 + xi_1 / 2 weighs xi and -xi differently
    c_dir = lambda xi: 1.0 if xi is None else 1.0 + 0.5 * xi[0]
    return LayeredQ.custom(1.5, 0.8, lambda r, xi: c_dir(xi) * (1 + r) ** 0.7 * r ** -2.5,
                           c_dir, lambda xi: 1.0)


def test_tail_integral_is_the_order_zero_moment():
    # the tail is radial_moment(0, r, inf) byte for byte, canonical q and
    # custom, at two atoms of a direction-dependent q
    rs = np.logspace(-8, 8, 161)
    for q, atoms in ((LayeredQ.canonical(1.3, 1.9, 2.0), (None,)),
                     (blend_q(1.3, 1.9), (None,)),
                     (_q_dir(), (np.array([1.0]), np.array([-1.0])))):
        for xi in atoms:
            for r in rs.tolist():
                assert q.tail_integral(r, xi) == q.radial_moment(0, r, np.inf, xi)


def test_small_lo_moment_against_the_closed_form():
    # blend_q's first moment on [lo, 1], whose integrand r^-1.3 (1 + r)^-0.6
    # has the antiderivative x^e / e 2F1(0.6, e; e + 1; -x), e = -0.3, down
    # to lo = 1e-40
    import mpmath
    q = blend_q(1.3, 1.9)
    with mpmath.workdps(30):
        e = mpmath.mpf(1) - mpmath.mpf(1.3)
        prim = lambda x: x ** e / e * mpmath.hyp2f1(mpmath.mpf(1.9) - mpmath.mpf(1.3),
                                                    e, e + 1, -mpmath.mpf(x))
        for lo in (10.0 ** -np.arange(4, 41, 4)).tolist():
            ref = float(prim(1.0) - prim(lo))
            assert abs(q.radial_moment(1, lo, 1.0) - ref) <= 1e-12 * ref


def test_radial_moment_log_pieces():
    # k = alpha below r = 1 and k = beta above it integrate r^-1: a log
    q = LayeredQ.canonical(1.0, 2.0, 2.0)
    assert q.radial_moment(1, 0.3, 4.0) == pytest.approx(np.log(1 / 0.3) + 0.75, rel=1e-14)
    assert q.radial_moment(2, 0.0, 4.0) == pytest.approx(1.0 + np.log(4.0), rel=1e-14)
    qc = _as_custom(q)
    for k, lo, hi in ((1, 0.3, 4.0), (2, 0.0, 4.0)):
        np.testing.assert_allclose(q.radial_moment(k, lo, hi),
                                   qc.radial_moment(k, lo, hi), rtol=1e-9)


def test_radial_moment_divergence_raises():
    q = LayeredQ.canonical(1.5, 2.5, 2.0)
    for variant in (q, _as_custom(q)):
        with pytest.raises(ValueError, match="diverges"):
            variant.radial_moment(1, 0.0, 1.0)        # k <= alpha at 0
        with pytest.raises(ValueError, match="diverges"):
            variant.radial_moment(1.5, 0.0, 0.5)
        with pytest.raises(ValueError, match="diverges"):
            variant.radial_moment(2.5, 1.0, np.inf)   # k >= beta at infinity
