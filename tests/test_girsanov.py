"""Change-of-measure machinery: density ratios, the Radon-Nikodym process U,
drift compatibility, and importance-sampling weights."""

import numpy as np
import pytest
from scipy import stats as sps

from layerlab import (DensityRatio, LayeredQ, SphericalMeasure, blend_q,
                      draw_shot_noise, drift_compatibility,
                      layered_path_canonical, layered_path_general,
                      make_grid, nu_gap,
                      required_drift_difference, rn_diagnostics,
                      singularity_witness, u_canonical, u_from_jumps,
                      u_levy_tail, u_series)
from layerlab.girsanov import EPS

UNIFORM2 = SphericalMeasure.uniform(2, 2.0)
ATOMS3 = SphericalMeasure.discrete(np.array([[1.0, 0.0], [0.0, 1.0], [-0.6, -0.8]]),
                                   np.array([1.0, 0.6, 0.4]))


@pytest.fixture
def ratio():
    return DensityRatio(LayeredQ.canonical(1.3, 1.9, 2.0))


def test_phi_canonical_closed_form(ratio):
    assert ratio.phi(np.array([0.5])) == 0.0
    assert ratio.phi(np.array([1.0])) == 0.0
    r = 3.0
    assert abs(ratio.phi(np.array([r])) - (1.3 - 1.9) * np.log(r)) < 1e-14


def test_psi_canonical_closed_form(ratio):
    assert ratio.psi(np.array([2.0])) == 0.0
    r = 0.1
    assert abs(ratio.psi(np.array([-r])) - (1.9 - 1.3) * np.log(r)) < 1e-14


def test_phi_undefined_at_origin(ratio):
    with pytest.raises(ValueError):
        ratio.phi(np.array([0.0]))


@pytest.mark.parametrize("sigma", [SphericalMeasure.symmetric_pair(2.0), UNIFORM2,
                                   ATOMS3], ids=["d1", "uniform-d2", "3-atom-d2"])
@pytest.mark.parametrize("custom", [False, True], ids=["canonical", "blend"])
def test_phi_psi_on_arrays_equal_stacked_points(sigma, custom):
    q = blend_q(1.3, 1.9) if custom else LayeredQ.canonical(1.3, 1.9,
                                                            sigma.total_mass())
    ratio = DensityRatio(q)
    rng = np.random.default_rng(4)
    radii = np.concatenate([np.logspace(-6, 6, 40), [1.0, np.nextafter(1.0, 2.0)]])
    z = radii[:, None] * sigma.sample_directions(rng, len(radii))
    for f in (ratio.phi, ratio.psi):
        got = f(z)
        assert got.shape == (len(z),)
        np.testing.assert_array_equal(got, [f(p) for p in z])
        assert isinstance(f(z[0]), float)
        assert f(z[:0]).shape == (0,)


@pytest.mark.parametrize("q", [LayeredQ.canonical(1.3, 1.9, 2.0), blend_q(1.3, 1.9)],
                         ids=["canonical", "blend"])
def test_phi_psi_undefined_at_an_origin_row(q):
    ratio = DensityRatio(q)
    z = np.array([[0.5, 0.1], [0.0, 0.0], [2.0, -1.0]])
    for f in (ratio.phi, ratio.psi):
        with pytest.raises(ValueError, match="origin"):
            f(z)
        with pytest.raises(ValueError, match="origin"):
            f(z[1])


def test_required_drift_alpha_below_one():
    # canonical, alpha = 0.5, single atom +1 with weight 1:
    # required = int xi sigma * int_0^1 r^{-0.5} dr = 2
    sigma = SphericalMeasure.discrete(np.array([[1.0]]), np.array([1.0]))
    q = LayeredQ.canonical(0.5, 1.5, 1.0)
    np.testing.assert_allclose(required_drift_difference(q, sigma), [2.0])
    ok, req = drift_compatibility(q, sigma, np.array([2.0]), np.array([0.0]))
    assert ok
    ok, _ = drift_compatibility(q, sigma, np.array([2.1]), np.array([0.0]))
    assert not ok


def test_required_drift_alpha_above_one():
    # canonical correction integral vanishes; required = sigma1 moment/(a-1)
    sigma = SphericalMeasure.discrete(np.array([[1.0], [-1.0]]),
                                      np.array([2.0, 1.0]))
    q = LayeredQ.canonical(1.5, 1.9, 3.0)
    np.testing.assert_allclose(required_drift_difference(q, sigma), [2.0])


def test_required_drift_symmetric_vanishes(sym1):
    q = LayeredQ.canonical(1.3, 1.9, 2.0)
    np.testing.assert_allclose(required_drift_difference(q, sym1), [0.0])


def test_required_drift_null_sigma1(skew1):
    # c1 = 0: only the correction int_0^1 r q dr, weighted by int xi sigma = 1
    from scipy import integrate
    q_fn = lambda r, xi: (1 + r) ** -1.3 * r ** -0.5
    q = LayeredQ.custom(1.5, 0.8, q_fn, lambda xi: 0.0, lambda xi: 1.0)
    ref, _ = integrate.quad(lambda r: r * q_fn(r, None), 0.0, 1.0)
    np.testing.assert_allclose(required_drift_difference(q, skew1), [ref], rtol=1e-9)


@pytest.mark.parametrize("result", [(float("nan"), 0.0), (1.0, 1.0)])
def test_required_drift_correction_failure_is_a_quadrature_error(result, skew1, monkeypatch):
    # a NaN value or a large error estimate from the correction's quadrature
    from scipy import integrate

    from layerlab import QuadratureError
    monkeypatch.setattr(integrate, "quad", lambda *a, **k: result)
    with pytest.raises(QuadratureError, match="drift-correction quadrature"):
        required_drift_difference(blend_q(1.3, 1.9), skew1)


def test_nu_gap_closed_forms(sym1):
    q = LayeredQ.canonical(1.3, 1.9, 2.0)
    m = 2.0
    for eps in (1.0, 2.0, 5.0):
        expect = m * (eps ** -1.9 / 1.9 - eps ** -1.3 / 1.3)
        assert abs(nu_gap(q, sym1, eps) - expect) < 1e-12
    # below 1 the gap is the constant m (1/beta - 1/alpha)
    const = m * (1.0 / 1.9 - 1.0 / 1.3)
    for eps in (0.5, 0.01, 1e-6):
        assert abs(nu_gap(q, sym1, eps) - const) < 1e-12
    # the canonical closed form against the quadrature path of the same q
    q_fn = lambda r, xi: r ** -2.3 if r <= 1.0 else r ** -2.9
    qc = LayeredQ.custom(1.3, 1.9, q_fn, lambda xi: 1.0, lambda xi: 1.0)
    for eps in (0.5, 2.0):
        assert abs(nu_gap(qc, sym1, eps) - nu_gap(q, sym1, eps)) < 1e-8


def test_u_from_jumps_matches_closed_form(ratio, sym1):
    grid = make_grid(1.0, 4)
    for seed in range(5):
        draw = draw_shot_noise(seed, 1.0, sym1, 500.0)
        path = layered_path_canonical(1.3, 1.9, sym1, draw, grid)
        u_ref = u_canonical(1.3, 1.9, 2.0, path.jumps, 1.0)
        u_num, cauchy = u_from_jumps(ratio, sym1, path.jumps, 1.0)
        assert abs(u_num - u_ref) < 1e-10
        assert cauchy < 1e-12


def _u_reference(ratio, sigma, jumps, t, eps):
    # the jump sum U_t is defined by: phi of each jump up to t above eps, in
    # arrival order, less t times the Levy-measure gap above eps
    return (sum(ratio.phi(v) for tm, v in zip(*jumps) if tm <= t and np.linalg.norm(v) > eps)
            - t * nu_gap(ratio.q, sigma, eps))


@pytest.mark.parametrize("case", ["blend-d1", "canonical-uniform-d2", "blend-uniform-d2"])
def test_u_from_jumps_matches_per_jump_sum(case, sym1):
    custom, sigma, cap = {"blend-d1": (True, sym1, 40.0),
                          "canonical-uniform-d2": (False, UNIFORM2, 300.0),
                          "blend-uniform-d2": (True, UNIFORM2, 40.0)}[case]
    q = blend_q(1.3, 1.9) if custom else LayeredQ.canonical(1.3, 1.9, 2.0)
    ratio = DensityRatio(q)
    grid = make_grid(1.0, 4)
    for seed in range(3):
        path = layered_path_general(q, sigma, draw_shot_noise(seed, 1.0, sigma, cap), grid)
        for t in (1.0, 0.5):
            u, cauchy = u_from_jumps(ratio, sigma, path.jumps, t)
            ref = _u_reference(ratio, sigma, path.jumps, t, EPS)
            assert u == ref
            assert cauchy == abs(ref - _u_reference(ratio, sigma, path.jumps, t, 2 * EPS))


@pytest.mark.parametrize("jumps", [(np.empty(0), np.empty((0, 1))),
                                   (np.array([0.8, 0.9]), np.array([[3.0], [-0.2]]))],
                         ids=["empty", "all-after-t"])
def test_u_from_jumps_without_a_jump_up_to_t(jumps, ratio, sym1):
    # only the compensator is left; below 1 the canonical gap does not depend
    # on eps, so the Cauchy increment is exactly zero
    t = 0.5
    assert u_from_jumps(ratio, sym1, jumps, t) == (-t * nu_gap(ratio.q, sym1, EPS), 0.0)
    assert u_canonical(1.3, 1.9, 2.0, jumps, t) == -t * (1 / 1.9 - 1 / 1.3) * 2.0


def test_u_series_spec_term(sym1):
    # single arrival Gamma_1 = 0.5, alpha = 1.3, beta = 1.9, mass 2, T = 1:
    # jump term -((a-b)/a) ln(a Gamma/(mT)) = -0.51866...; drift term
    # -(1/b - 1/a) m
    from layerlab import ShotNoiseDraw
    draw = ShotNoiseDraw(T=1.0, gammas=np.array([0.5]), times=np.array([0.3]),
                         directions=np.array([[1.0]]))
    got = u_series(draw, 1.3, 1.9, 2.0, 1.0, "prime")
    term = -(1.3 - 1.9) / 1.3 * np.log(1.3 * 0.5 / 2.0)
    drift = -(1.0 / 1.9 - 1.0 / 1.3) * 2.0
    assert abs(term - (-0.51874)) < 5e-5
    assert abs(got - (term + drift)) < 1e-12
    with pytest.raises(ValueError):
        u_series(draw, 1.3, 1.9, 2.0, 1.0, "wrong")


def test_u_prime_jump_terms_are_exponential(sym1):
    # ln-magnitude contributions of U' follow an exponential law; KS at 1e-3
    # only arrivals with Gamma <= mT/alpha contribute, about 1.5 per draw
    rate = 1.3 / abs(1.3 - 1.9)
    terms = []
    for seed in range(2000):
        draw = draw_shot_noise(seed, 1.0, sym1, 10.0)
        arg = 1.3 * draw.gammas / 2.0
        keep = arg <= 1.0
        terms.append(-(1.3 - 1.9) / 1.3 * np.log(arg[keep]))
    terms = np.concatenate(terms)
    assert len(terms) > 2000
    assert np.all(terms < 0.0)
    _, pval = sps.kstest(-terms, "expon", args=(0.0, 1.0 / rate))
    assert pval > 1e-3


def test_u_levy_tail():
    # alpha < beta: support on the negative axis, monotone increasing tail
    t1 = u_levy_tail(1.3, 1.9, 2.0, -0.6)
    t2 = u_levy_tail(1.3, 1.9, 2.0, -1.2)
    expect = 2.0 / 1.3 * np.exp(-1.3 / (1.3 - 1.9) * (-0.6))
    assert abs(t1 - expect) < 1e-12
    assert t1 > t2
    with pytest.raises(ValueError):
        u_levy_tail(1.3, 1.9, 2.0, 0.5)
    with pytest.raises(ValueError):
        u_levy_tail(1.9, 1.3, 2.0, -0.5)
    with pytest.raises(ValueError):
        u_levy_tail(1.5, 1.5, 2.0, 0.5)


def test_singularity_witness_directions():
    down = singularity_witness(DensityRatio(LayeredQ.canonical(1.3, 1.9, 2.0)))
    assert down["direction"] == "-inf"
    assert down["psi"][-1] < down["psi"][0]
    up = singularity_witness(DensityRatio(LayeredQ.canonical(1.9, 1.3, 2.0)))
    assert up["direction"] == "+inf"
    assert up["psi"][-1] > up["psi"][0]


def test_rn_diagnostics_constant_functional(sym1):
    # with f = 1 the reweighted estimate is the mean weight and the direct
    # estimate is exactly 1
    rep = rn_diagnostics(1.3, 1.9, sym1, "one", 40, seed=3, grid_n=4,
                         gamma_cap=200.0)
    assert rep["reweighted_estimate"] == rep["mean_weight"]
    assert rep["direct_estimate"] == 1.0 and rep["direct_se"] == 0.0
    assert rep["clip_count"] == 0 and rep["normalization_ok"]
    with pytest.raises(ValueError):
        rn_diagnostics(1.3, 1.9, sym1, "bogus:1", 4, seed=3)
    with pytest.raises(ValueError):
        rn_diagnostics(1.5, 1.5, sym1, "one", 4, seed=3)


@pytest.mark.parametrize("spec", ["sup-exceeds:nan", "terminal-exceeds:inf",
                                  "sup-exceeds:-inf"])
def test_rn_diagnostics_refuses_non_finite_level(sym1, spec):
    with pytest.raises(ValueError, match="must be finite"):
        rn_diagnostics(1.3, 1.9, sym1, spec, 4, seed=3, grid_n=4, gamma_cap=50.0)


def test_rn_diagnostics_independent_of_thread_count(monkeypatch, sym1):
    reports = []
    for threads in ("1", "2"):
        monkeypatch.setenv("LAYERLAB_THREADS", threads)
        reports.append(rn_diagnostics(1.3, 1.9, sym1, "sup-exceeds:2", 60, seed=7,
                                      grid_n=20, gamma_cap=300.0))
    assert reports[0] == reports[1]


def test_rn_weights_normalize(sym1):
    # martingale property E[e^{U'_T}] = 1 within 4 standard errors
    n = 1500
    w = np.empty(n)
    wd = np.empty(n)
    for i in range(n):
        draw = draw_shot_noise(1000 + i, 1.0, sym1, 5000.0)
        w[i] = np.exp(u_series(draw, 1.3, 1.9, 2.0, 1.0, "prime"))
        wd[i] = np.exp(-u_series(draw, 1.3, 1.9, 2.0, 1.0, "doubleprime"))
    for v in (w, wd):
        se = np.std(v, ddof=1) / np.sqrt(n)
        assert abs(np.mean(v) - 1.0) < 4.0 * se
