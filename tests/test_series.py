"""Shot-noise series generators: magnitudes, centering, coupling, truncation."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerlab import (LayeredQ, MixDistribution, ShotNoiseDraw,
                      SphericalMeasure, canonical_magnitudes, draw_shot_noise,
                      layered_path_canonical, layered_path_general,
                      layered_path_rejection, make_grid, mixed_path,
                      layered_law, mixed_law, rejection_law,
                      stable_drift_constant, stable_law, stable_path,
                      u_series)
from layerlab import series
from layerlab.qfunc import _tail_groups
from layerlab.series import (_MAG_FLOOR, MAX_ARRIVALS, MAX_GRID_VALUES, _assemble,
                             _centering_sum, _grid_cells)


def _single_term_draw(gamma=1.0, T=1.0, time=0.4, direction=(1.0,)):
    d = np.asarray([direction], dtype=float)
    return ShotNoiseDraw(T=T, gammas=np.array([gamma]),
                         times=np.array([time]), directions=d)


def test_make_grid():
    g = make_grid(2.0, 4)
    np.testing.assert_allclose(g, [0.0, 0.5, 1.0, 1.5, 2.0])
    with pytest.raises(ValueError):
        make_grid(1.0, 0)


def test_draw_is_deterministic(sym1):
    a = draw_shot_noise(42, 1.0, sym1, 500.0)
    b = draw_shot_noise(42, 1.0, sym1, 500.0)
    np.testing.assert_array_equal(a.gammas, b.gammas)
    np.testing.assert_array_equal(a.times, b.times)
    np.testing.assert_array_equal(a.directions, b.directions)


def test_draw_respects_cap(sym1):
    d = draw_shot_noise(1, 2.0, sym1, 300.0)
    assert np.all(d.gammas <= 600.0)
    # arrival count is Poisson(600); 6 sigma window
    assert abs(len(d.gammas) - 600) < 6 * np.sqrt(600)


def test_draw_validation(sym1):
    for bad_gammas in ([2.0, 1.0], [0.0, 1.0]):
        with pytest.raises(ValueError, match="non-decreasing and positive"):
            ShotNoiseDraw(T=1.0, gammas=np.array(bad_gammas),
                          times=np.array([0.1, 0.2]),
                          directions=np.array([[1.0], [1.0]]))
    # a float cumulative sum repeats a value where an increment is below half
    # an ulp: tied arrivals are accepted, and both jumps are summed
    tied = ShotNoiseDraw(T=1.0, gammas=np.array([1.0, 2.0, 2.0, 3.0]),
                         times=np.array([0.1, 0.2, 0.3, 0.4]),
                         directions=np.array([[1.0], [-1.0], [1.0], [1.0]]))
    law = stable_law(0.5, sym1)
    mags = (0.5 * tied.gammas / 2.0) ** -2.0
    np.testing.assert_array_equal(law.terminal(tied), [np.cumsum(mags * [1, -1, 1, 1])[-1]])
    for bad_time in (1.5, np.nan):
        with pytest.raises(ValueError):
            ShotNoiseDraw(T=1.0, gammas=np.array([1.0]),
                          times=np.array([bad_time]), directions=np.array([[1.0]]))


def test_time_less_draw_refused_where_times_are_read(sym1):
    # a terminal-only draw carries no jump times: every reader of them
    # refuses it by name, while the terminal reads none
    law = rejection_law(1.3, 1.9, sym1, "outer")
    draw = law.draw(3, 1.0, 200.0, _times=False)
    grid = make_grid(1.0, 4)
    readers = {
        "law.path": lambda: law.path(draw, grid),
        "rejection path": lambda: layered_path_rejection(1.3, 1.9, sym1, draw, "outer", grid),
        "stable path": lambda: stable_path(1.5, sym1, draw, grid),
        "canonical path": lambda: layered_path_canonical(1.3, 1.9, sym1, draw, grid),
        "_assemble": lambda: _assemble(grid, draw, np.ones(len(draw.gammas))),
        "u_series": lambda: u_series(draw, 1.3, 1.9, 2.0, 1.0),
    }
    for name, read in readers.items():
        with pytest.raises(ValueError, match="no jump times"):
            read()
    assert law.terminal(draw).shape == (1,)
    # the arrival and length checks still hold without times
    with pytest.raises(ValueError, match="non-decreasing"):
        ShotNoiseDraw(T=1.0, gammas=np.array([2.0, 1.0]), times=None,
                      directions=np.array([[1.0], [1.0]]))
    for directions, rejects in ((np.ones((1, 1)), None), (np.ones((2, 1)), np.ones(1))):
        with pytest.raises(ValueError, match="length mismatch"):
            ShotNoiseDraw(T=1.0, gammas=np.array([1.0, 2.0]), times=None,
                          directions=directions, rejects=rejects)


def test_stable_single_term_magnitude(sym1):
    # Gamma_1 = 1, mass 2, T = 1, alpha = 0.5: magnitude (0.5/2)^(-2) = 16
    draw = _single_term_draw()
    path = stable_path(0.5, sym1, draw, make_grid(1.0, 10))
    np.testing.assert_allclose(path.jump_vectors, [[16.0]])
    np.testing.assert_allclose(path.terminal, [16.0])
    # path starts at 0 and jumps exactly at T_1 = 0.4
    np.testing.assert_allclose(path.values[grid_idx := 3], [0.0])
    np.testing.assert_allclose(path.values[grid_idx + 1], [16.0])


def test_assemble_bins_jumps_on_grid():
    # d=2, a non-uniform grid that stops before T, jumps on grid points and
    # after grid[-1], a keep mask, one magnitude below the floor, and a drift
    times = np.array([0.5, 1.7, 0.1, 1.2, 0.0, 0.9, 0.3, 1.45])
    n = len(times)
    ang = np.linspace(0.3, 5.9, n)
    draw = ShotNoiseDraw(T=2.0, gammas=np.arange(1.0, n + 1.0), times=times,
                         directions=np.column_stack([np.cos(ang), np.sin(ang)]))
    mags = np.array([3.0, 2.5, 2.0, 1.5, 1.25, 1.0, 0.5 * _MAG_FLOOR, 0.75])
    keep = np.array([True, True, True, True, True, False, True, True])
    drift = np.array([0.25, -0.5])
    grid = np.array([0.0, 0.3, 0.5, 1.2, 1.5])
    path = _assemble(grid, draw, mags, drift, keep)

    kept = keep & (mags >= _MAG_FLOOR)
    vectors = mags[:, None] * draw.directions
    ref = np.array([vectors[kept & (times <= t)].sum(axis=0) + t * drift
                    for t in grid])
    np.testing.assert_allclose(path.values, ref, rtol=1e-12, atol=0.0)
    # the jump list holds the kept jumps in arrival order
    np.testing.assert_array_equal(path.jump_times, times[kept])
    np.testing.assert_array_equal(path.jump_vectors, vectors[kept])


def test_assemble_empty_draw():
    draw = ShotNoiseDraw(T=1.0, gammas=np.empty(0), times=np.empty(0),
                         directions=np.empty((0, 2)))
    grid = np.array([0.0, 0.25, 1.0])
    drift = np.array([1.5, -2.0])
    path = _assemble(grid, draw, np.empty(0), drift)
    np.testing.assert_array_equal(path.values, np.outer(grid, drift))
    assert path.jump_times.shape == (0,) and path.jump_vectors.shape == (0, 2)


def test_stable_drift_constant_cases():
    assert stable_drift_constant(0.7, 2.0, 1.0) == 0.0
    m = 2.0
    ref1 = m * (float(mpmath.euler) + np.log(m))
    assert abs(stable_drift_constant(1.0, 2.0, 1.0) - ref1) < 1e-12
    for a in (1.1, 1.5, 1.9):
        ref = (a / m) ** (-1.0 / a) * float(mpmath.zeta(1.0 / a))
        assert abs(stable_drift_constant(a, m, 1.0) - ref) < 1e-10 * abs(ref)


def test_canonical_magnitudes_branches():
    # mass 2, T 1: boundary at gamma = 2/beta
    mags = canonical_magnitudes(0.5, 1.5, np.array([4.0 / 3.0, 8.0 / 3.0]), 2.0, 1.0)
    assert abs(mags[0] - 1.0) < 1e-14
    assert abs(mags[1] - 0.5625) < 1e-14


def test_canonical_magnitudes_match_inverse_tail():
    q = LayeredQ.canonical(1.3, 1.9, 2.0)
    gammas = np.logspace(-2, 3, 40)
    mags = canonical_magnitudes(1.3, 1.9, gammas, 2.0, 1.0)
    ref = np.array([q.inverse_tail(g) for g in gammas])
    np.testing.assert_allclose(mags, ref, rtol=1e-13)


def _closed_centering(alpha, beta, mT, n):
    # int_{mT/beta}^n (alpha s/mT + 1 - alpha/beta)^(-1/alpha) ds, the
    # canonical series' small-jump magnitudes summed in closed form
    if n <= mT / beta:
        return 0.0
    w_n = alpha * n / mT + 1.0 - alpha / beta
    if alpha == 1.0:
        return mT * np.log(w_n)
    e = 1.0 - 1.0 / alpha
    return (mT / alpha) * (w_n ** e - 1.0) / e


def test_centering_sum_closed_form(skew1):
    # the centering of a canonical q reads closed-form radial moments: it
    # equals the closed-form s-integral times z0, which in turn matches a
    # direct quadrature of the small-jump branch
    from scipy import integrate

    atoms3 = _TERMINAL_MEASURES["three-atom-d2"]
    for alpha, beta in ((0.7, 1.9), (1.0, 1.9), (1.3, 1.9), (1.1, 2.5), (1.5, 0.8)):
        for sigma in (skew1, atoms3):
            m = sigma.total_mass()
            q = LayeredQ.canonical(alpha, beta, m)
            for T in (0.7, 1.0, 1.5):
                for n in (1, 2, 25, 1000, 30001):
                    ref = _closed_centering(alpha, beta, m * T, float(n)) * sigma.first_moment() / m
                    np.testing.assert_allclose(_centering_sum(q, sigma, n, T), ref,
                                               rtol=1e-13, atol=1e-13)
        mT, n = 3.0, 25.0
        ref, _ = integrate.quad(
            lambda s: (alpha * s / mT + 1.0 - alpha / beta) ** (-1.0 / alpha),
            min(mT / beta, n), n)
        assert abs(_closed_centering(alpha, beta, mT, n) - ref) < 1e-9 * abs(ref)
    # no small jumps before the branch point, and none without arrivals
    q = LayeredQ.canonical(1.3, 1.9, 3.0)
    assert np.all(_centering_sum(q, skew1, 1, 1.0) == 0.0)
    assert np.all(_centering_sum(q, skew1, 0, 1.0) == 0.0)


def test_general_matches_canonical_on_shared_draw(sym1):
    q = LayeredQ.canonical(1.3, 1.9, 2.0)
    grid = make_grid(1.0, 50)
    draw = draw_shot_noise(9, 1.0, sym1, 2000.0)
    a = layered_path_canonical(1.3, 1.9, sym1, draw, grid)
    b = layered_path_general(q, sym1, draw, grid)
    np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-12)


def test_general_custom_runs(sym1):
    from layerlab import blend_q
    q = blend_q(0.7, 1.6)
    draw = draw_shot_noise(10, 1.0, sym1, 200.0)
    path = layered_path_general(q, sym1, draw, make_grid(1.0, 20))
    assert np.all(np.isfinite(path.values))


def test_general_asymmetric_centering(skew1):
    # the centering of a canonical q (closed-form radial moments) against the
    # same q written as a custom one (tabled inverse, quadrature moments)
    q = LayeredQ.canonical(1.3, 1.9, 3.0)
    q_custom = LayeredQ.custom(1.3, 1.9, lambda r, xi: r ** -2.3 if r <= 1.0 else r ** -2.9,
                               lambda xi: 1.0, lambda xi: 1.0)
    draw = draw_shot_noise(11, 1.0, skew1, 500.0)
    n = draw.cutoff_index
    np.testing.assert_allclose(_centering_sum(q_custom, skew1, n, 1.0),
                               _centering_sum(q, skew1, n, 1.0), rtol=1e-8, atol=0)


def test_general_centering_substitution_matches_s_integral(skew1):
    # the radial moment against the s-space integral it replaces,
    # int_{s*}^n q_inv(s/T) ds per atom
    from scipy import integrate

    from layerlab import blend_q
    q = blend_q(1.3, 1.9)
    m, T = skew1.total_mass(), 1.5
    for n in (8, 40, 300):
        ref = np.zeros(1)
        for atom, w in zip(skew1.atoms, skew1.weights):
            s_star = T * m * q.tail_integral(1.0, atom)
            if s_star >= n:
                continue
            val, _ = integrate.quad(lambda s: q.series_magnitude(s / T, m, atom),
                                    s_star, float(n), epsabs=1e-8, epsrel=1e-10,
                                    limit=400)
            ref += (w / m) * val * atom
        got = _centering_sum(q, skew1, n, T)
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=0)


def test_general_centering_nonconvergence_raises(skew1, monkeypatch):
    # the centering is a radial moment of the custom q; its quadrature failing
    # raises (the inverse-tail tables are built before quad is broken)
    import layerlab.qfunc as qfunc
    from layerlab import QuadratureError, blend_q

    q = blend_q(1.3, 1.9)
    _centering_sum(q, skew1, 100, 1.0)
    monkeypatch.setattr(qfunc.integrate, "quad", lambda *a, **k: (1.0, 1.0))
    with pytest.raises(QuadratureError, match="radial moment of order 1"):
        _centering_sum(q, skew1, 100, 1.0)
    assert issubclass(QuadratureError, RuntimeError)


def test_draw_without_arrivals_is_centered_by_zero(skew1):
    # on an asymmetric measure every layered law centers; with no arrivals
    # the centering sum is empty, canonical q or custom
    from layerlab import blend_q
    for q in (LayeredQ.canonical(1.3, 1.9, 3.0), blend_q(1.3, 1.9)):
        law = layered_law(q, skew1)
        draw = law.draw(2201, 1.0, 1e-3)
        assert draw.cutoff_index == 0
        x = law.terminal(draw)
        assert np.all(np.isfinite(x)) and np.all(x == 0.0)
        assert x.tobytes() == law.path(draw, np.array([0.0, 1.0])).values[-1].tobytes()


def _q_dir():
    # c(xi) = 1 + xi_1 / 2 weighs xi and -xi differently
    c_dir = lambda xi: 1.0 if xi is None else 1.0 + 0.5 * xi[0]
    return LayeredQ.custom(1.5, 0.8, lambda r, xi: c_dir(xi) * (1 + r) ** 0.7 * r ** -2.5,
                           c_dir, lambda xi: 1.0)


def test_centering_decided_by_measure_and_q(sym1):
    # a symmetric measure skips the centering only where q reads the same at
    # each atom and at its antipode: a direction-free q does, q_dir does not
    from layerlab import blend_q
    q_dir = _q_dir()
    law = layered_law(q_dir, sym1)
    draw = law.draw(2202, 1.0, 200.0)
    _, drift, _ = law.jumps(draw)
    assert np.all(drift != 0.0)
    np.testing.assert_array_equal(drift, -_centering_sum(q_dir, sym1, draw.cutoff_index, 1.0))
    assert not q_dir.same_tail(sym1.atoms[0], sym1.atoms[1])
    for q in (blend_q(1.3, 1.9), LayeredQ.canonical(1.3, 1.9, 2.0)):
        assert layered_law(q, sym1).jumps(draw)[1] is None
        assert q.same_tail(sym1.atoms[0], sym1.atoms[1])
    # a uniform measure reads q at xi = None, so it refuses q_dir, which is
    # not the same there as at every direction
    u2 = SphericalMeasure.uniform(2, 2.0)
    with pytest.raises(ValueError, match="q that does not depend on the direction"):
        layered_law(q_dir, u2)


def test_direction_dependent_q_matches_the_quadrature_law(sym1):
    # q_dir on the symmetric pair, centered, against the quadrature CF, which
    # compensates over [0, 1] for every q; without the centering the shift
    # at cap 1e3 is about 11.  The law is wide (|CF| is 0.06 at y = 0.5), so
    # it is read on [-0.5, 0.5], where a shift of 11 moves the ECF by up to
    # 0.6; on the default [-5, 5] the uncentered terminals read 0.033
    from layerlab.mc import terminals
    from layerlab.stats import LayeredQuadratureCF, cf_distance, default_y_grid
    q_dir, n = _q_dir(), 2000
    x = terminals(layered_law(q_dir, sym1), n, seed=2211, gamma_cap=1e3)
    assert cf_distance(x, LayeredQuadratureCF(q_dir, sym1),
                       default_y_grid(1, half_width=0.5)) < 5.0 / np.sqrt(n)


def test_repeated_directions_pool_their_weights(sym1):
    # atoms +1, +1, -1 of weight 1 each are the skewed measure 2 at +1, 1 at
    # -1: both laws center there as on that measure; with weight 2 at -1 the
    # measure is symmetric and neither centers
    repeated = SphericalMeasure.discrete([[1.0], [2.0], [-1.0]], [1.0, 1.0, 1.0])
    merged = SphericalMeasure.discrete([[1.0], [-1.0]], [2.0, 1.0])
    draw = draw_shot_noise(2212, 1.0, repeated, 200.0)
    for build in (lambda s: stable_law(1.5, s),
                  lambda s: layered_law(LayeredQ.canonical(1.3, 1.9, 3.0), s)):
        drift = build(repeated).jumps(draw)[1]
        assert drift is not None and np.all(drift != 0.0)
        np.testing.assert_allclose(drift, build(merged).jumps(draw)[1], rtol=1e-14)
    balanced = SphericalMeasure.discrete([[1.0], [2.0], [-1.0]], [1.0, 1.0, 2.0])
    assert layered_law(LayeredQ.canonical(1.3, 1.9, 4.0), balanced).jumps(draw)[1] is None
    assert stable_law(1.5, balanced).jumps(draw)[1] is None


def test_custom_tables_bounded_by_atoms(skew1):
    # one table per atom of a discrete measure, which the bound reads too
    from layerlab import blend_q
    q = blend_q(1.3, 1.9)
    layered_law(q, skew1).truncation_bound(50.0)
    for seed in range(3):
        draw = draw_shot_noise(seed, 1.0, skew1, 50.0)
        layered_path_general(q, skew1, draw, make_grid(1.0, 10))
    assert len(q._tables) == len(skew1.atoms)


def test_custom_tables_shared_across_threads(skew1):
    # more threads than cores race to build the per-atom tables of one q;
    # the paths must equal those of a q used by one thread
    import sys
    from concurrent.futures import ThreadPoolExecutor

    from layerlab import blend_q
    grid = make_grid(1.0, 4)
    draws = [draw_shot_noise(seed, 1.0, skew1, 30.0) for seed in range(16)]
    single = blend_q(1.3, 1.9)
    ref = [layered_path_general(single, skew1, d, grid).values for d in draws]
    q = blend_q(1.3, 1.9)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda d: layered_path_general(q, skew1, d, grid).values,
                                draws, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(ref, got):
        np.testing.assert_array_equal(a, b)
    assert len(q._tables) <= len(skew1.atoms)


def test_custom_uniform_measure_builds_one_table():
    # a uniform measure reads q at xi = None: one table serves every jump
    from layerlab import blend_q
    q = blend_q(1.3, 1.9)
    u2 = SphericalMeasure.uniform(2, 2.0)
    draw = draw_shot_noise(4, 2.0, u2, 20.0)
    path = layered_path_general(q, u2, draw, make_grid(2.0, 4))
    assert list(q._tables) == [None]
    mags = np.linalg.norm(path.jump_vectors, axis=1)
    back = 2.0 * 2.0 * np.array([q.tail_integral(r) for r in mags])
    np.testing.assert_allclose(back, draw.gammas, rtol=1e-8)


def test_custom_magnitudes_reject_a_direction_off_the_atoms(skew1):
    from layerlab import blend_q
    draw = ShotNoiseDraw(T=1.0, gammas=np.array([1.0, 2.0]),
                         times=np.array([0.2, 0.5]), directions=np.array([[1.0], [0.5]]))
    with pytest.raises(ValueError, match="not an atom"):
        layered_path_general(blend_q(1.3, 1.9), skew1, draw, make_grid(1.0, 2))


_POOLING_MEASURES = {
    "symmetric": SphericalMeasure.symmetric_pair(2.0),
    "skew-2-1": SphericalMeasure.discrete([[1.0], [-1.0]], [2.0, 1.0]),
    "repeated-direction": SphericalMeasure.discrete([[1.0], [2.0], [-1.0]], [1.0, 1.0, 1.0]),
    "three-atom-d2": SphericalMeasure.discrete([[1.0, 0.0], [0.0, 1.0], [-0.6, -0.8]],
                                               [1.0, 0.6, 0.4]),
}
# inversions a draw that reaches every atom takes: a direction-free q has one
# tail on every measure; q_dir one per direction (the repeated +1 shares one)
_POOLED_CALLS = {"blend": {k: 1 for k in _POOLING_MEASURES},
                 "q_dir": {"symmetric": 2, "skew-2-1": 2, "repeated-direction": 2,
                           "three-atom-d2": 3}}


@pytest.mark.parametrize("measure", sorted(_POOLING_MEASURES))
@pytest.mark.parametrize("q_name", sorted(_POOLED_CALLS))
def test_custom_magnitudes_pool_atoms_with_one_tail(q_name, measure, monkeypatch):
    # the jump map inverts each group of atoms whose tail tables agree in one
    # call, and each jump keeps the bytes of its own atom's inverse
    from layerlab import blend_q
    sigma = _POOLING_MEASURES[measure]
    q = blend_q(1.3, 1.9) if q_name == "blend" else _q_dir()
    law, m = layered_law(q, sigma), sigma.total_mass()
    groups = _tail_groups(q, sigma)
    calls = []
    inverse = LayeredQ.series_magnitude
    for seed, cap in ((2301, 40.0), (2302, 1e3)):
        draw = law.draw(seed, 1.0, cap)
        levels = draw.gammas / draw.T
        ref = np.full_like(levels, np.nan)
        for atom in sigma.atoms:
            on = np.all(draw.directions == atom, axis=1)
            ref[on] = q.series_magnitude(levels[on], m, atom)
        monkeypatch.setattr(LayeredQ, "series_magnitude",
                            lambda *a: calls.append(a) or inverse(*a))
        mags = series._custom_magnitudes(q, sigma, groups, draw)
        monkeypatch.undo()
        assert mags.tobytes() == ref.tobytes()
        assert len(calls) == _POOLED_CALLS[q_name][measure]
        calls.clear()


@pytest.mark.parametrize("measure", ["skew-2-1", "repeated-direction"])
@pytest.mark.parametrize("q_name", sorted(_POOLED_CALLS))
def test_centering_worked_out_once_per_tail(q_name, measure, monkeypatch):
    # the centering inverts and integrates once per group of atoms with one
    # tail, and equals the per-atom sum byte for byte
    from layerlab import blend_q
    sigma = _POOLING_MEASURES[measure]
    q = blend_q(1.3, 1.9) if q_name == "blend" else _q_dir()
    groups, m = _tail_groups(q, sigma), sigma.total_mass()
    calls = []
    inverse = LayeredQ.series_magnitude
    for n, T in ((7, 1.0), (300, 1.5), (20000, 0.7)):
        ref = T * sigma.integrate(lambda xi: q.radial_moment(
            1, q.series_magnitude(n / T, m, xi), 1.0, xi), 1)
        monkeypatch.setattr(LayeredQ, "series_magnitude",
                            lambda *a: calls.append(a) or inverse(*a))
        got = _centering_sum(q, sigma, n, T, groups)
        monkeypatch.undo()
        assert got.tobytes() == ref.tobytes()
        assert len(calls) == _POOLED_CALLS[q_name][measure]
        calls.clear()


@settings(max_examples=40, deadline=None)
@given(parts=st.lists(st.lists(st.floats(-14.0, 11.0), max_size=25), min_size=1, max_size=4),
       q_name=st.sampled_from(["blend", "q_dir"]))
def test_table_inverse_of_a_concatenation(parts, q_name):
    # the inverse is entrywise: inverting levels together gives each level
    # the bytes it gets alone, which is what lets the jump map pool atoms
    from layerlab import blend_q
    q = blend_q(1.3, 1.9) if q_name == "blend" else _q_dir()
    xi = np.array([1.0])
    levels = [10.0 ** np.array(p, dtype=float) for p in parts]
    whole = q._table_inverse(np.concatenate(levels), xi)
    assert whole.tobytes() == np.concatenate([q._table_inverse(u, xi) for u in levels]).tobytes()


def test_mixed_point_mass_degenerates_to_stable(sym1):
    # AC-style exactness on a shared draw
    mix = MixDistribution.point_mass(0.8)
    draw = draw_shot_noise(5, 1.0, sym1, 300.0, mix=mix)
    grid = make_grid(1.0, 30)
    a = mixed_path(mix, sym1, draw, grid)
    b = stable_path(0.8, sym1, draw, grid)
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(np.linalg.norm(a.jump_vectors, axis=1),
                                  np.linalg.norm(b.jump_vectors, axis=1))


def test_mixed_single_term_magnitude(sym1):
    draw = ShotNoiseDraw(T=1.0, gammas=np.array([1.0]), times=np.array([0.5]),
                         directions=np.array([[1.0]]),
                         alphas=np.array([0.5]))
    path = mixed_path(MixDistribution.point_mass(0.5), sym1, draw, make_grid(1.0, 2))
    np.testing.assert_allclose(path.jump_vectors, [[16.0]])


def test_mix_distribution_validation():
    with pytest.raises(ValueError):
        MixDistribution(np.array([2.5]), np.array([1.0]))
    with pytest.raises(ValueError):
        MixDistribution(np.array([0.5, 1.5]), np.array([0.7, 0.7]))


def test_mix_sampling_frequencies(sym1):
    mix = MixDistribution.uniform_on([0.5, 1.5])
    draw = draw_shot_noise(6, 1.0, sym1, 100000.0, mix=mix)
    frac = np.mean(draw.alphas == 0.5)
    assert abs(frac - 0.5) < 0.01


def test_rejection_needs_rejects_and_order(sym1):
    draw = draw_shot_noise(7, 1.0, sym1, 100.0)
    with pytest.raises(ValueError):
        layered_path_rejection(1.3, 1.9, sym1, draw, "inner", make_grid(1.0, 4))
    draw = draw_shot_noise(7, 1.0, sym1, 100.0, with_rejects=True)
    with pytest.raises(ValueError):
        layered_path_rejection(1.9, 1.3, sym1, draw, "inner", make_grid(1.0, 4))
    with pytest.raises(ValueError):
        layered_path_rejection(1.3, 2.5, sym1, draw, "outer", make_grid(1.0, 4))
    # r^(-1-alpha) with alpha >= 2 is not a Levy density near 0
    with pytest.raises(ValueError, match=r"inner index alpha must lie in \(0,2\)"):
        rejection_law(2.5, 3.0, sym1, "inner")


def test_rejection_thinning_keeps_small_inner_jumps(sym1):
    # inner base never rejects candidates with magnitude <= 1
    draw = draw_shot_noise(8, 1.0, sym1, 500.0, with_rejects=True)
    path = layered_path_rejection(1.3, 1.9, sym1, draw, "inner", make_grid(1.0, 4))
    mT = 2.0
    cand = (1.3 * draw.gammas / mT) ** (-1.0 / 1.3)
    n_small = np.sum(cand <= 1.0)
    kept_small = np.sum(np.linalg.norm(path.jump_vectors, axis=1) <= 1.0)
    assert kept_small == n_small


@pytest.mark.parametrize("build, message", [
    (lambda sym, skew: stable_law(2.5, sym), "stable index"),
    (lambda sym, skew: rejection_law(1.3, 1.9, skew, "inner"), "symmetric"),
    (lambda sym, skew: mixed_law(MixDistribution.uniform_on([0.8, 1.5]), skew),
     "symmetric"),
], ids=["stable-index-2.5", "rejection-skewed", "mixed-skewed"])
def test_law_checked_when_built(build, message, sym1, skew1, monkeypatch):
    # a law checks its inputs when it is built, before any draw
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before checking the law")

    monkeypatch.setattr(series, "draw_shot_noise", no_draw)
    with pytest.raises(ValueError, match=message):
        law = build(sym1, skew1)
        law.terminal(law.draw(0, 1.0, 100.0))


def test_truncation_bounds(sym1):
    q = LayeredQ.canonical(1.3, 1.9, 2.0)
    b1 = layered_law(q, sym1).truncation_bound(1e4)
    assert abs(b1 - q.inverse_tail(1e4)) < 1e-15
    assert layered_law(q, sym1).truncation_bound(1e6) < b1
    sb = stable_law(1.3, sym1).truncation_bound(1e4)
    assert abs(sb - (1.3 * 1e4 / 2.0) ** (-1.0 / 1.3)) < 1e-15
    # rejection discards the base series' terms beyond the cap, a mix the
    # terms of each of its atoms
    for base, index in (("inner", 1.3), ("outer", 1.9)):
        law = rejection_law(1.3, 1.9, sym1, base)
        assert law.truncation_bound(1e4) == stable_law(index, sym1).truncation_bound(1e4)
    mix = MixDistribution.uniform_on([0.8, 1.5])
    assert (mixed_law(mix, sym1).truncation_bound(1e4)
            == stable_law(1.5, sym1).truncation_bound(1e4))


def test_truncation_bound_of_a_direction_dependent_q():
    # on a discrete measure the bound is the largest over the atoms: q_dir's
    # largest discarded jumps sit on (1, 0), above those of q at xi = None
    atoms3 = SphericalMeasure.discrete([[1.0, 0.0], [0.0, 1.0], [-0.6, -0.8]],
                                       [1.0, 0.6, 0.4])
    q_dir = _q_dir()
    m = atoms3.total_mass()
    bound = layered_law(q_dir, atoms3).truncation_bound(200.0)
    assert bound == q_dir.series_magnitude(200.0, m, atoms3.atoms[0])
    assert bound > q_dir.series_magnitude(200.0, m)
    for atom in atoms3.atoms:
        assert q_dir.series_magnitude(200.0 * (1 + 1e-9), m, atom) < bound
    # a direction-free q keeps the bound it has at xi = None
    from layerlab import blend_q
    at_none = blend_q(1.3, 1.9).series_magnitude(200.0, m)
    assert layered_law(blend_q(1.3, 1.9), atoms3).truncation_bound(200.0) == at_none


def test_draw_budget_rejects_before_drawing(sym1):
    # only caps above the budget are tried: they raise before any allocation
    with pytest.raises(ValueError, match="budget"):
        draw_shot_noise(0, 1.0, sym1, 10.0 * MAX_ARRIVALS)
    with pytest.raises(ValueError, match="budget"):
        draw_shot_noise(0, 4.0, sym1, MAX_ARRIVALS / 2.0)


def _fail_if_reached(*args, **kwargs):
    raise AssertionError("allocated before the budget check")


def test_draw_budget_counts_dimension(monkeypatch):
    # the budget is on arrivals x dimension, computed before the rng exists
    monkeypatch.setattr(np.random, "default_rng", _fail_if_reached)
    monkeypatch.setattr(np.random, "PCG64", _fail_if_reached)
    with pytest.raises(ValueError, match="budget"):
        draw_shot_noise(0, 1.0, SphericalMeasure.uniform(10 ** 8, 2.0), 10.0)
    with pytest.raises(ValueError, match="budget"):
        draw_shot_noise(0, 1.0, SphericalMeasure.uniform(3, 2.0), MAX_ARRIVALS / 2.0)


def test_grid_budget_rejects_before_allocating(monkeypatch):
    monkeypatch.setattr(np, "linspace", _fail_if_reached)
    for n in (int(MAX_GRID_VALUES), 2_000_000_000):
        with pytest.raises(ValueError, match="budget"):
            make_grid(1.0, n)
    # on a path the budget counts grid points x dimension; the empty draw of
    # dimension 10^4 holds nothing, so only the binning could allocate
    monkeypatch.setattr(series, "_grid_cells", _fail_if_reached)
    draw = ShotNoiseDraw(T=1.0, gammas=np.empty(0), times=np.empty(0),
                         directions=np.empty((0, 10 ** 4)))
    grid = np.arange(1001) / 1000.0
    with pytest.raises(ValueError, match="budget"):
        _assemble(grid, draw, np.empty(0))


_TERMINAL_MEASURES = {
    "symmetric": SphericalMeasure.symmetric_pair(2.0),
    "skewed": SphericalMeasure.discrete([[1.0], [-1.0]], [2.0, 1.0]),
    "uniform-d2": SphericalMeasure.uniform(2, 2.0),
    "three-atom-d2": SphericalMeasure.discrete([[1.0, 0.0], [-0.5, 0.8], [0.1, -1.0]],
                                               [1.0, 0.7, 0.4]),
}


def _terminal_laws(sigma):
    m = sigma.total_mass()
    laws = {f"stable{a}": stable_law(a, sigma) for a in (0.5, 1.0, 1.5)}
    laws["layered"] = layered_law(LayeredQ.canonical(1.3, 1.9, m), sigma)
    laws["layered-beta-above-2"] = layered_law(LayeredQ.canonical(1.1, 2.5, m), sigma)
    if sigma.is_symmetric():
        laws["rejection-inner"] = rejection_law(1.3, 1.9, sigma, "inner")
        laws["rejection-outer"] = rejection_law(1.3, 1.9, sigma, "outer")
        laws["mixed"] = mixed_law(MixDistribution.uniform_on([0.8, 1.5]), sigma)
    return laws


def _hand_built_draws(sigma, rng):
    # every third time at 0 and one at T; a draw whose last arrivals give
    # stable-0.5 and mixed-0.8 magnitudes below the floor; no arrivals
    T = 2.0
    out = []
    for gammas in (np.cumsum(rng.standard_exponential(300)),
                   np.concatenate((np.cumsum(rng.standard_exponential(20)),
                                   [1e160, 1e250, 1e300])),
                   np.empty(0)):
        n = len(gammas)
        times = rng.uniform(0.0, T, n)
        times[::3] = 0.0
        times[1:2] = T
        out.append(ShotNoiseDraw(
            T=T, gammas=gammas, times=times, directions=sigma.sample_directions(rng, n),
            rejects=rng.random(n), alphas=MixDistribution.uniform_on([0.8, 1.5]).sample(rng, n)))
    return out


@pytest.mark.parametrize("measure", list(_TERMINAL_MEASURES))
def test_terminal_equals_path_end(measure):
    # the grid-free terminal is the end of the path on [0, T], byte for byte:
    # on drawn sequences (rejection masks included) and on hand-built ones
    sigma = _TERMINAL_MEASURES[measure]
    rng = np.random.default_rng(13)
    for name, law in _terminal_laws(sigma).items():
        draws = [law.draw(seed, 2.0, 300.0) for seed in range(3)]
        for draw in draws + _hand_built_draws(sigma, rng):
            end = law.path(draw, np.array([0.0, draw.T])).values[-1]
            assert law.terminal(draw).tobytes() == end.tobytes(), name


@settings(max_examples=25, deadline=None)
@given(st.floats(0.3, 1.9), st.integers(0, 2 ** 31))
def test_path_shape_properties(alpha, seed):
    sigma = SphericalMeasure.symmetric_pair(2.0)
    draw = draw_shot_noise(seed, 1.0, sigma, 200.0)
    grid = make_grid(1.0, 16)
    path = stable_path(alpha, sigma, draw, grid)
    assert path.values.shape == (17, 1)
    np.testing.assert_allclose(path.values[0], [0.0])
    np.testing.assert_allclose(path.terminal, path.values[-1])
    # terminal equals the plain sum of kept jump vectors (symmetric: no drift)
    np.testing.assert_allclose(path.terminal,
                               path.jump_vectors.sum(axis=0), atol=1e-9)


def test_coupled_paths_share_jump_times(sym1):
    draw = draw_shot_noise(12, 1.0, sym1, 300.0)
    grid = make_grid(1.0, 10)
    a = stable_path(1.3, sym1, draw, grid)
    b = layered_path_canonical(1.3, 1.9, sym1, draw, grid)
    np.testing.assert_array_equal(a.jump_times, b.jump_times)


@st.composite
def _grid_and_times(draw):
    # a make_grid grid, a strictly increasing non-uniform grid, or a uniform
    # grid that ends before T; times uniform on [0, T] plus 0, T, every grid
    # point and the floats next to grid points
    T = draw(st.floats(1e-3, 1e3))
    n = draw(st.integers(1, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["uniform", "non-uniform", "short"]))
    if kind == "uniform":
        grid = make_grid(T, n)
    elif kind == "non-uniform":
        inner = np.unique(rng.uniform(0.0, T, n))
        grid = np.concatenate(([0.0], inner[(inner > 0.0) & (inner < T)], [T]))
    else:
        grid = make_grid(T * draw(st.floats(0.01, 0.99)), n)
    near = np.concatenate((grid, np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf)))
    times = np.concatenate((rng.uniform(0.0, T, 2000), [0.0, T], near))
    return grid, times[(times >= 0.0) & (times <= T)]


@settings(max_examples=200, deadline=None)
@given(_grid_and_times())
def test_grid_cells_equal_searchsorted(case):
    grid, times = case
    np.testing.assert_array_equal(_grid_cells(grid, times),
                                  np.searchsorted(grid, times, side="left"))
