"""Acceptance battery: fifteen end-to-end checks, one test per criterion.

Each test prints a single PASS/FAIL line to file descriptor 1 and then
asserts.  pytest captures that descriptor; the hook in conftest.py repeats
the lines in an "acceptance statistics" section at the end of the run (and
pytest -s shows them as they come), so running this module doubles as a
readable checklist.  Tolerances and sample sizes are pinned; every check is
fully seeded and deterministic.
"""

import sys
import time

import numpy as np

from layerlab import (GaussianCF, LayeredQ, LayeredQuadratureCF, MixDistribution,
                      SamplePath, SphericalMeasure, StableCF, auto_r_cut,
                      blend_q, cf_distance, draw_shot_noise, gaussian_covariance,
                      hill_ci, isotropic_cf_constant, layered_path_canonical,
                      layered_path_rejection, layered_terminals,
                      layered_terminals_gaussian, make_grid, mixed_path,
                      p_variation, rejection_terminals, stable_cf_constant,
                      stable_path, stable_terminals, stable_terminals_gaussian,
                      u_canonical, u_from_jumps, u_series)
from layerlab.girsanov import DensityRatio
from layerlab.limits import SHORT_STABLE, LONG_STABLE, LimitSpec, rescale_terminal

SYM2 = SphericalMeasure.symmetric_pair(2.0)
N = 10000


def _check(name, ok, detail):
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})",
          file=sys.__stdout__, flush=True)
    assert ok, f"{name}: {detail}"


def test_ac01_stable_marginals():
    t0 = time.time()
    worst = 0.0
    # Per-alpha series caps: the discarded-tail variance after gamma_cap
    # arrivals is m * delta^(2-alpha) / (2-alpha) with
    # delta = (alpha * gamma_cap / m)^(-1/alpha), so the heavier the small
    # jumps (small alpha) the fewer arrivals are needed for the same error.
    for alpha, cap in ((0.5, 300.0), (1.0, 2000.0), (1.5, 1e4)):
        x = stable_terminals(alpha, SYM2, N, seed=101, gamma_cap=cap)
        worst = max(worst, cf_distance(x, StableCF.series_marginal(alpha, SYM2)))
    el = time.time() - t0
    _check("AC01 stable marginal ECF", worst < 0.06 and el < 60.0,
           f"max distance {worst:.4f} < 0.06, {el:.1f}s < 60s")


def test_ac02_layered_marginals():
    t0 = time.time()
    worst = 0.0
    for alpha, beta in ((1.3, 1.9), (1.1, 2.5)):
        x = layered_terminals(alpha, beta, SYM2, N, seed=102)
        q = LayeredQ.canonical(alpha, beta, 2.0)
        worst = max(worst, cf_distance(x, LayeredQuadratureCF(q, SYM2)))
    # alpha = 1.9 is out of reach for the raw series; use the exact big-jump
    # sampler with a Gaussian small-jump compensation
    q = LayeredQ.canonical(1.9, 1.3, 2.0)
    x = layered_terminals_gaussian(1.9, 1.3, SYM2, 1.0,
                                   auto_r_cut(q, 2.0, 1.0), N, seed=103)
    worst = max(worst, cf_distance(x, LayeredQuadratureCF(q, SYM2)))
    el = time.time() - t0
    _check("AC02 layered marginal ECF", worst < 0.06 and el < 180.0,
           f"max distance {worst:.4f} < 0.06, {el:.1f}s < 180s")


def test_ac03_short_time_limit():
    t0 = time.time()
    h = 1e-3
    worst = 0.0
    for alpha, beta in ((1.3, 1.9), (1.9, 1.3)):
        q = LayeredQ.canonical(alpha, beta, 2.0)
        x = layered_terminals_gaussian(alpha, beta, SYM2, h,
                                       auto_r_cut(q, 2.0, h), N, seed=104)
        spec = LimitSpec(SHORT_STABLE, h, alpha, np.zeros(1), np.zeros(1))
        rescaled = rescale_terminal(x, h, spec)
        worst = max(worst, cf_distance(rescaled, StableCF(alpha, SYM2)))
    el = time.time() - t0
    _check("AC03 short-time stable limit", worst < 0.07 and el < 180.0,
           f"max distance {worst:.4f} < 0.07, {el:.1f}s < 180s")


def test_ac04_long_time_stable_limit():
    # Known-red check: for beta = 1.9 the rescaled law converges at rate
    # h^(-(2-beta)/beta) = h^(-0.053), and at h = 10^3 the EXACT law (by
    # quadrature, no sampling) is still at distance 0.181 from the
    # beta-stable target; the threshold would need h ~ 10^9. The check is
    # implemented faithfully and left to fail.
    h = 1e3
    q = LayeredQ.canonical(1.3, 1.9, 2.0)
    x = layered_terminals_gaussian(1.3, 1.9, SYM2, h,
                                   auto_r_cut(q, 2.0, h), N, seed=105)
    spec = LimitSpec(LONG_STABLE, h, 1.9, np.zeros(1), np.zeros(1))
    d = cf_distance(rescale_terminal(x, h, spec), StableCF(1.9, SYM2))
    _check("AC04 long-time stable limit", d < 0.07,
           f"distance {d:.4f} < 0.07")


def test_ac05_long_time_gaussian_limit():
    h = 1e3
    sigma = SphericalMeasure.symmetric_pair(1.0)
    q = LayeredQ.canonical(1.1, 2.5, 1.0)
    x = layered_terminals_gaussian(1.1, 2.5, sigma, h,
                                   auto_r_cut(q, 1.0, h), N, seed=106)
    rescaled = x / np.sqrt(h)
    cov = gaussian_covariance(q, sigma)
    d = cf_distance(rescaled, GaussianCF(cov))
    var = float(np.var(rescaled[:, 0], ddof=1))
    rel = abs(var / cov[0, 0] - 1.0)
    _check("AC05 long-time Gaussian limit", d < 0.07 and rel < 0.10,
           f"distance {d:.4f} < 0.07, variance {var:.4f} vs {cov[0, 0]:.4f} "
           f"(rel {rel:.3f} < 0.10)")


def test_ac06_inverse_tail_round_trip():
    rs = np.logspace(-6, 6, 1000)
    worst = 0.0
    cases = [LayeredQ.canonical(1.3, 1.9, 2.0), blend_q(1.3, 1.9)]
    for q in cases:
        for r in rs:
            u = q.tail_scale * q.tail_integral(r)
            worst = max(worst, abs(q.inverse_tail(u) - r) / r)
    boundary = cases[0].inverse_tail(2.0 / 1.9)
    ok = worst < 1e-8 and boundary == 1.0
    _check("AC06 inverse-tail round trip", ok,
           f"max rel err {worst:.2e} < 1e-8, branch boundary {boundary} == 1.0")


def test_ac07_rn_weight_normalization():
    w_p = np.empty(N)
    w_d = np.empty(N)
    for i in range(N):
        draw = draw_shot_noise(107 * 10 ** 6 + i, 1.0, SYM2, 1e4)
        w_p[i] = np.exp(u_series(draw, 1.3, 1.9, 2.0, 1.0, "prime"))
        w_d[i] = np.exp(-u_series(draw, 1.3, 1.9, 2.0, 1.0, "doubleprime"))
    devs = []
    ok = True
    for w in (w_p, w_d):
        se = float(np.std(w, ddof=1) / np.sqrt(N))
        dev = abs(float(np.mean(w)) - 1.0)
        ok = ok and dev < 4.0 * se
        devs.append(f"|mean-1| {dev:.4f} vs 4se {4 * se:.4f}")
    _check("AC07 RN martingale normalization", ok, "; ".join(devs))


def test_ac08_importance_sampling_cross_validation():
    grid = make_grid(1.0, 200)
    level = 3.0

    def sup_exceeds(path):
        return float(np.max(np.abs(path.values)) > level)

    rw = np.empty(N)
    direct = np.empty(N)
    for i in range(N):
        draw = draw_shot_noise(108 * 10 ** 6 + i, 1.0, SYM2, 2000.0)
        y = stable_path(1.3, SYM2, draw, grid)
        w = np.exp(u_series(draw, 1.3, 1.9, 2.0, 1.0, "prime"))
        rw[i] = w * sup_exceeds(y)
        draw2 = draw_shot_noise(208 * 10 ** 6 + i, 1.0, SYM2, 2000.0)
        x = layered_path_canonical(1.3, 1.9, SYM2, draw2, grid)
        direct[i] = sup_exceeds(x)
    rw_est, rw_se = float(np.mean(rw)), float(np.std(rw, ddof=1) / np.sqrt(N))
    di_est, di_se = float(np.mean(direct)), float(np.std(direct, ddof=1) / np.sqrt(N))
    gap = abs(rw_est - di_est)
    lim = 4.0 * float(np.hypot(rw_se, di_se))
    _check("AC08 importance-sampling cross-validation", gap < lim,
           f"reweighted {rw_est:.5f} vs direct {di_est:.5f}, "
           f"|gap| {gap:.5f} < {lim:.5f}")


def test_ac09_u_series_vs_jump_sum():
    ratio = DensityRatio(LayeredQ.canonical(1.3, 1.9, 2.0))
    grid = make_grid(1.0, 4)
    worst = 0.0
    for seed in range(100):
        draw = draw_shot_noise(seed, 1.0, SYM2, 500.0)
        path = layered_path_canonical(1.3, 1.9, SYM2, draw, grid)
        u_ref = u_canonical(1.3, 1.9, 2.0, path.jumps, 1.0)
        u_num, _ = u_from_jumps(ratio, SYM2, path.jumps, 1.0)
        worst = max(worst, abs(u_num - u_ref))
    _check("AC09 jump-sum U agrees with closed form", worst < 1e-8,
           f"max |diff| {worst:.2e} < 1e-8 over 100 paths")


def test_ac10_hill_tail_index():
    details = []
    ok = True
    for alpha, beta in ((1.3, 1.9), (1.9, 1.3)):
        q = LayeredQ.canonical(alpha, beta, 2.0)
        # the Hill estimate only sees the largest magnitudes, so a coarser
        # exact-jump cutoff (~300 per path) is plenty at 10^5 paths
        x = layered_terminals_gaussian(alpha, beta, SYM2, 1.0,
                                       auto_r_cut(q, 2.0, 1.0, target_jumps=300.0),
                                       100000, seed=110)
        mags = np.abs(x[:, 0])
        est, lo, hi = hill_ci(mags[mags > 0], seed=110)
        ok = ok and lo <= beta <= hi and abs(est - beta) <= 0.3
        details.append(f"beta={beta}: hill {est:.3f}, CI ({lo:.3f},{hi:.3f})")
    _check("AC10 Hill estimate of the outer index", ok, "; ".join(details))


def test_ac11_p_variation_scaling():
    grid = make_grid(1.0, 3200)
    details = []
    ok = True
    # beta is chosen so the grid-independent big-jump contribution does not
    # drown the inner-index growth: a heavy outer tail (beta < p) adds a
    # constant term to the p-variation that dilutes the refinement ratio
    for alpha, beta, cap in ((1.3, 1.9, 1e5), (1.9, 2.5, 1e6)):
        med = {p: {} for p in (alpha - 0.3, alpha + 0.3)}
        for p in med:
            vals = {1: [], 4: [], 16: []}
            for seed in range(50):
                draw = draw_shot_noise(seed, 1.0, SYM2, cap)
                path = layered_path_canonical(alpha, beta, SYM2, draw, grid)
                for f, stride in ((1, 16), (4, 4), (16, 1)):
                    sp = SamplePath(grid=path.grid[::stride],
                                    values=path.values[::stride],
                                    jump_times=np.empty(0),
                                    jump_vectors=np.empty((0, 1)))
                    vals[f].append(p_variation(sp, p))
            med[p] = {f: float(np.median(vals[f])) for f in (1, 4, 16)}
        lo_p, hi_p = alpha - 0.3, alpha + 0.3
        r4 = med[lo_p][4] / med[lo_p][1]
        r16 = med[lo_p][16] / med[lo_p][1]
        s4 = med[hi_p][4] / med[hi_p][1]
        s16 = med[hi_p][16] / med[hi_p][1]
        this_ok = (r16 > 1.5 and r4 > 1.0
                   and abs(s4 - 1.0) < 0.2 and abs(s16 - 1.0) < 0.2)
        ok = ok and this_ok
        details.append(f"alpha={alpha}: x16 at p-0.3 {r16:.3f} > 1.5, "
                       f"x16 at p+0.3 {s16:.3f} in (0.8,1.2)")
    _check("AC11 p-variation refinement scaling", ok, "; ".join(details))


def test_ac12_mixed_point_mass_reduces_to_stable():
    mix = MixDistribution.point_mass(1.3)
    grid = make_grid(1.0, 64)
    exact = True
    for seed in range(20):
        draw = draw_shot_noise(seed, 1.0, SYM2, 200.0, mix=mix)
        xm = mixed_path(mix, SYM2, draw, grid)
        xs = stable_path(1.3, SYM2, draw, grid)
        exact = exact and np.array_equal(xm.values, xs.values)
    _check("AC12 mixed point mass equals stable", exact,
           "terminal-by-term identical values on 20 shared draws")


def test_ac13_rejection_sampler():
    q = LayeredQ.canonical(1.3, 1.9, 2.0)
    target = LayeredQuadratureCF(q, SYM2)
    details = []
    ok = True
    for base in ("inner", "outer"):
        x = rejection_terminals(1.3, 1.9, SYM2, base, N, seed=113)
        d = cf_distance(x, target)
        ok = ok and d < 0.07
        details.append(f"{base} base distance {d:.4f} < 0.07")
    _check("AC13 rejection-series marginals", ok, "; ".join(details))


def test_ac14_isotropic_boundary_constant():
    beta, d = 1.999, 2
    c = isotropic_cf_constant(beta, d, d * (2.0 - beta))
    _check("AC14 isotropic boundary constant", abs(c - 0.5) < 2e-3,
           f"|c - 0.5| = {abs(c - 0.5):.2e} < 2e-3")


def test_ac15_anisotropic_near_gaussian():
    alpha = 1.95
    a = np.array([1.0, 4.0])
    atoms, weights = [], []
    for i, ai in enumerate(a):
        e = np.zeros(2)
        e[i] = 1.0
        for s in (1.0, -1.0):
            atoms.append(s * e)
            weights.append((2.0 - alpha) / 2.0 * ai)
    sigma = SphericalMeasure.discrete(np.array(atoms), np.array(weights))
    mass = sigma.total_mass()
    # exact jumps above r_cut (~3000 per path), Gaussian compensation below
    r_cut = (alpha * 3000.0 / mass) ** (-1.0 / alpha)
    x = stable_terminals_gaussian(alpha, sigma, 1.0, r_cut, N, seed=115)
    c_alpha = 2.0 * (2.0 - alpha) * stable_cf_constant(alpha)
    target = np.diag(a) * c_alpha
    cov = np.cov(x.T)
    rel = float(np.linalg.norm(cov - target) / np.linalg.norm(target))
    rho = float(cov[0, 1] / np.sqrt(cov[0, 0] * cov[1, 1]))
    _check("AC15 anisotropic near-Gaussian covariance",
           rel < 0.15 and abs(rho) < 0.05,
           f"Frobenius rel err {rel:.3f} < 0.15, cross corr {rho:+.3f} < 0.05")
