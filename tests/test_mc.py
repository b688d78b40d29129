"""Reproducible parallel sampling and the Gaussian-compensated sampler.

The key contracts: results are a function of (seed, path index) only, never
of the thread count, and the big-jump sampler agrees in law with the raw
series sampler where both apply.
"""

import numpy as np
import pytest

import layerlab.mc as mc
from layerlab import (LayeredQ, LayeredQuadratureCF, MixDistribution,
                      SphericalMeasure, StableCF, auto_r_cut, blend_q,
                      canonical_magnitudes, cf_distance, default_y_grid,
                      draw_shot_noise, layered_law, layered_path_canonical,
                      layered_path_rejection, layered_terminals,
                      layered_terminals_gaussian, mixed_law, mixed_path,
                      mixed_terminals, rejection_law, rejection_terminals,
                      run_paths, stable_law, stable_path, stable_terminals,
                      stable_terminals_gaussian, substream, terminals,
                      worker_count)
from layerlab.qfunc import jump_mean


def test_substream_is_deterministic():
    a = np.random.default_rng(substream(7, 3)).random(5)
    b = np.random.default_rng(substream(7, 3)).random(5)
    c = np.random.default_rng(substream(7, 4)).random(5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_run_paths_thread_count_invariance():
    def one(ss, i):
        return np.random.default_rng(ss).random(2)

    r1 = run_paths(one, 64, seed=5, d=2, threads=1)
    r4 = run_paths(one, 64, seed=5, d=2, threads=4)
    np.testing.assert_array_equal(r1, r4)


def test_run_paths_caps_threads_at_cpu_count(monkeypatch):
    # an unbounded thread request is capped at the CPU count before any
    # executor exists; the stub records max_workers and runs inline
    seen = []

    class InlineExecutor:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(mc, "ThreadPoolExecutor", InlineExecutor)
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 3)

    def one(ss, i):
        return np.random.default_rng(ss).random(2)

    out = run_paths(one, 40, seed=5, d=2, threads=10 ** 6)
    assert seen == [3]
    np.testing.assert_array_equal(out, run_paths(one, 40, seed=5, d=2, threads=1))
    monkeypatch.setenv("LAYERLAB_THREADS", str(10 ** 6))
    run_paths(one, 40, seed=5, d=2)
    assert seen == [3, 3]


@pytest.mark.parametrize("n_paths", [3, 8])
@pytest.mark.parametrize("threads", [0, -2])
def test_run_paths_rejects_nonpositive_threads(monkeypatch, n_paths, threads):
    # the inline branch (< 4 paths) and the pooled one both refuse, before
    # any path runs or any executor exists
    calls = []

    def no_pool(*args, **kwargs):
        raise AssertionError("an executor was created")

    monkeypatch.setattr(mc, "ThreadPoolExecutor", no_pool)
    with pytest.raises(ValueError, match="threads must be >= 1"):
        run_paths(lambda ss, i: calls.append(i) or np.zeros(1), n_paths,
                  seed=5, d=1, threads=threads)
    assert calls == []


@pytest.mark.parametrize("n_paths,d", [(10 ** 9, 1),
                                       (int(mc.MAX_RESULT_VALUES) + 1, 1),
                                       (int(mc.MAX_RESULT_VALUES) // 2 + 1, 2)])
def test_run_paths_refuses_over_budget(n_paths, d):
    # the size n_paths * d is checked before the result array exists, so an
    # over-budget run neither allocates nor calls fn
    calls = []
    with pytest.raises(ValueError, match="run-size budget"):
        run_paths(lambda ss, i: calls.append(i) or np.zeros(d), n_paths,
                  seed=5, d=d, threads=1)
    assert calls == []


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("LAYERLAB_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("LAYERLAB_THREADS", "0")
    with pytest.raises(ValueError):
        worker_count()
    # an empty value means unset
    monkeypatch.setenv("LAYERLAB_THREADS", "")
    assert worker_count() == (mc.os.cpu_count() or 1)


def test_stable_terminals_deterministic(sym1):
    a = stable_terminals(1.3, sym1, 16, seed=9, gamma_cap=200.0)
    b = stable_terminals(1.3, sym1, 16, seed=9, gamma_cap=200.0)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (16, 1)


MIX = MixDistribution.uniform_on([0.8, 1.5])


def _series_sampler(name, sigma, threads):
    """(terminals of 12 paths, the matching path builder, its draw options)."""
    kw = {"T": 2.0, "gamma_cap": 300.0, "threads": threads}
    if name == "stable":
        return (stable_terminals(1.5, sigma, 12, 21, **kw),
                lambda d, g: stable_path(1.5, sigma, d, g), {})
    if name == "layered":
        return (layered_terminals(1.3, 1.9, sigma, 12, 21, **kw),
                lambda d, g: layered_path_canonical(1.3, 1.9, sigma, d, g), {})
    if name == "rejection":
        return (rejection_terminals(1.3, 1.9, sigma, "outer", 12, 21, **kw),
                lambda d, g: layered_path_rejection(1.3, 1.9, sigma, d, "outer", g),
                {"with_rejects": True})
    return (mixed_terminals(MIX, sigma, 12, 21, **kw),
            lambda d, g: mixed_path(MIX, sigma, d, g), {"mix": MIX})


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name,skewed", [("stable", False), ("stable", True),
                                         ("layered", False), ("layered", True),
                                         ("rejection", False), ("mixed", False)])
def test_series_terminals_match_path_builders(name, skewed, threads, sym1, skew1):
    # each terminal sampler returns, bit for bit, the terminal value of its
    # path builder on the same per-path substream
    sigma = skew1 if skewed else sym1
    x, build, options = _series_sampler(name, sigma, threads)
    grid = np.array([0.0, 2.0])
    ref = np.array([build(draw_shot_noise(substream(21, i), 2.0, sigma, 300.0, **options),
                          grid).terminal for i in range(12)])
    assert x.tobytes() == ref.tobytes()


# measures and (cap, seed) pairs of the stream-identity test, fixed before
# its first run
_STREAM_MEASURES = {
    "symmetric": SphericalMeasure.symmetric_pair(2.0),
    "skewed": SphericalMeasure.discrete([[1.0], [-1.0]], [2.0, 1.0]),
    "uniform-d2": SphericalMeasure.uniform(2, 2.0),
}


def _stream_laws(sigma):
    m = sigma.total_mass()
    laws = {"stable": stable_law(1.5, sigma),
            "layered": layered_law(LayeredQ.canonical(1.3, 1.9, m), sigma),
            "blend": layered_law(blend_q(1.3, 1.9), sigma)}
    if sigma.is_symmetric():
        laws["rejection-inner"] = rejection_law(1.3, 1.9, sigma, "inner")
        laws["rejection-outer"] = rejection_law(1.3, 1.9, sigma, "outer")
        laws["mixed"] = mixed_law(MIX, sigma)
    return laws


@pytest.mark.parametrize("cap,seed", [(50.0, 2101), (2000.0, 2102)])
@pytest.mark.parametrize("measure", list(_STREAM_MEASURES))
def test_terminal_only_draw_keeps_the_stream(measure, cap, seed):
    # mc.terminals draws no jump times: its draw advances the generator past
    # them, so every later sequence is the full draw's, byte for byte, and
    # its terminals are law.terminal of the full draws at any thread count
    sigma = _STREAM_MEASURES[measure]
    for name, law in _stream_laws(sigma).items():
        ref = []
        for i in range(6):
            full = law.draw(substream(seed, i), 1.5, cap)
            bare = law.draw(substream(seed, i), 1.5, cap, _times=False)
            assert full.times is not None and bare.times is None
            for attr in ("gammas", "directions", "rejects", "alphas"):
                a, b = getattr(full, attr), getattr(bare, attr)
                assert (a is None) == (b is None), (name, attr)
                assert a is None or a.tobytes() == b.tobytes(), (name, attr)
            ref.append(law.terminal(full))
        for threads in (1, 2):
            x = terminals(law, 6, seed, T=1.5, gamma_cap=cap, threads=threads)
            assert x.tobytes() == np.array(ref).tobytes(), (name, threads)


def test_stable_samplers_agree_in_law(sym1):
    target = StableCF(1.3, sym1)
    series = stable_terminals(1.3, sym1, 3000, seed=1, gamma_cap=1e4)
    gauss = stable_terminals_gaussian(1.3, sym1, horizon=1.0, r_cut=1e-3,
                                      n_paths=3000, seed=2)
    assert cf_distance(series, target) < 0.08
    assert cf_distance(gauss, target) < 0.08


def test_layered_samplers_agree_in_law(sym1):
    q = LayeredQ.canonical(1.3, 1.9, 2.0)
    target = LayeredQuadratureCF(q, sym1)
    series = layered_terminals(1.3, 1.9, sym1, 3000, seed=3, gamma_cap=1e4)
    gauss = layered_terminals_gaussian(1.3, 1.9, sym1, horizon=1.0,
                                       r_cut=1e-3, n_paths=3000, seed=4)
    assert cf_distance(series, target) < 0.08
    assert cf_distance(gauss, target) < 0.08


def _skew2():
    """Asymmetric three-atom measure on S^1 with total mass 2."""
    return SphericalMeasure.discrete(np.array([[1.0, 0.0], [0.0, 1.0], [-0.6, -0.8]]),
                                     np.array([1.0, 0.6, 0.4]))


# (measure, sampler, horizon h, paths, seed); fixed before the first run,
# like the 5/sqrt(paths) threshold below
SKEWED_LAW_CASES = [
    ("skew1", "series", 1.0, 4000, 1101),
    ("skew1", "compensated", 1.0, 10000, 1102),
    ("skew1", "compensated", 1e3, 10000, 1103),
    ("skew2", "series", 1.0, 4000, 1104),
    ("skew2", "compensated", 1.0, 4000, 1105),
    ("skew2", "compensated", 1e3, 4000, 1106),
]


@pytest.mark.parametrize("measure, sampler, h, n, seed", SKEWED_LAW_CASES)
def test_skewed_layered_terminals_match_exact_horizon_law(measure, sampler, h, n,
                                                          seed, skew1):
    # X_h on an asymmetric measure against the exact law at horizon h, the
    # quadrature CF of the measure h*sigma, both read at the scale
    # s = h^(-1/beta); at h = 1e3 the uncentered mean of s X_h is ~30, so a
    # wrong drift in the compensated sampler shows at once
    alpha, beta = 1.3, 1.9
    sigma = skew1 if measure == "skew1" else _skew2()
    q = LayeredQ.canonical(alpha, beta, sigma.total_mass())
    if sampler == "series":
        x = layered_terminals(alpha, beta, sigma, n, seed, T=h)
    else:
        r_cut = auto_r_cut(q, sigma.total_mass(), h)
        x = layered_terminals_gaussian(alpha, beta, sigma, h, r_cut, n, seed)
    assert _distance_to_exact_law(x, q, sigma, h) < 5.0 / np.sqrt(n)


def _distance_to_exact_law(x, q, sigma, h):
    """ECF distance of s X_h to the exact law at horizon h, the quadrature CF
    of the measure h*sigma, read at s = h^(-1/alpha) below h = 1 and
    h^(-1/beta) from h = 1 on."""
    exact = LayeredQuadratureCF(q, sigma.scaled(h))
    s = h ** (-1.0 / (q.alpha if h < 1.0 else q.beta))
    y_grid = default_y_grid(2, n=11) if sigma.dimension == 2 else None
    return cf_distance(s * x, lambda y: exact(s * y), y_grid)


# (measure, horizon h, seed) at AC10's cut of ~300 jumps a path, where the
# sampler draws 13 paths per block; seeds fixed before the first run, like
# the 5/sqrt(n) threshold
BLOCK_LAW_CASES = [(measure, h, 1701 + 3 * k + j)
                   for k, measure in enumerate(("sym1", "skew1", "u2", "skew2"))
                   for j, h in enumerate((1e-2, 1.0, 1e2))]


@pytest.mark.parametrize("measure, h, seed", BLOCK_LAW_CASES)
def test_block_sampler_matches_exact_horizon_law(measure, h, seed, sym1, skew1):
    sigma = {"sym1": sym1, "skew1": skew1, "u2": SphericalMeasure.uniform(2, 2.0),
             "skew2": _skew2()}[measure]
    q = LayeredQ.canonical(1.3, 1.9, sigma.total_mass())
    r_cut = auto_r_cut(q, sigma.total_mass(), h, target_jumps=300.0)
    n = 4000
    x = layered_terminals_gaussian(1.3, 1.9, sigma, h, r_cut, n, seed)
    assert _distance_to_exact_law(x, q, sigma, h) < 5.0 / np.sqrt(n)


def _per_path_reference(q, sigma, h, r_cut, n_paths, seed):
    """The compensated sampler with one substream per path, the layout the
    block sampler keeps above 2048 jumps a path."""
    m, d = sigma.total_mass(), sigma.dimension
    tail = q.tail_integral(r_cut)
    cov = h * q.radial_moment(2, 0.0, r_cut) * sigma.second_moment()
    chol = np.linalg.cholesky(cov + 1e-12 * max(np.trace(cov), 1e-30) * np.eye(d))
    shift = None if sigma.is_symmetric() else h * (
        jump_mean(q, sigma, 1.0, r_cut) - jump_mean(q, sigma, r_cut, 1.0))
    out = np.empty((n_paths, d))
    for i in range(n_paths):
        rng = np.random.default_rng(substream(seed, i))
        n_big = rng.poisson(h * m * tail)
        total = chol @ rng.standard_normal(d)
        if n_big:
            mags = canonical_magnitudes(q.alpha, q.beta,
                                        rng.uniform(0.0, m * tail, n_big), m, 1.0)
            total = total + mags @ sigma.sample_directions(rng, n_big)
        out[i] = total if shift is None else total + shift
    return out


@pytest.mark.parametrize("case", ["sym1", "skew1-shift", "u2", "u2-isotropy"])
def test_compensated_above_2048_jumps_is_the_per_path_layout(case, sym1, skew1):
    # one path per block: byte for byte the per-path draws; the last case is
    # test_gaussian_sampler_d2_isotropy's configuration, ~1.5e5 jumps a path
    u2 = SphericalMeasure.uniform(2, 2.0)
    sigma, ab, h = {"sym1": (sym1, (1.3, 1.9), 1.0), "skew1-shift": (skew1, (1.3, 1.9), 1e3),
                    "u2": (u2, (1.9, 1.3), 1.0), "u2-isotropy": (u2, (1.7, 1.7), 1.0)}[case]
    q = LayeredQ.canonical(*ab, sigma.total_mass())
    r_cut = 1e-3 if case == "u2-isotropy" else auto_r_cut(q, sigma.total_mass(), h)
    rate = h * sigma.total_mass() * q.tail_integral(r_cut)
    assert rate > 2048
    n = 3 if case == "u2-isotropy" else 10
    x = layered_terminals_gaussian(*ab, sigma, h, r_cut, n, seed=1720)
    assert x.tobytes() == _per_path_reference(q, sigma, h, r_cut, n, 1720).tobytes()


def _block_run(n_paths, threads, sigma):
    q = LayeredQ.canonical(1.3, 1.9, 2.0)
    r_cut = auto_r_cut(q, 2.0, 1.0, target_jumps=300.0)
    assert mc.BLOCK_JUMPS // (2.0 * q.tail_integral(r_cut)) == 13
    return layered_terminals_gaussian(1.3, 1.9, sigma, 1.0, r_cut, n_paths, 1721,
                                      threads=threads)


def test_block_sampler_thread_count_invariance(skew1):
    x = _block_run(100, 1, skew1)
    for threads in (2, 3):
        assert _block_run(100, threads, skew1).tobytes() == x.tobytes()


def test_block_sampler_prefix_is_the_shorter_run(skew1):
    # path i depends on (seed, i) only: 20 paths, not a multiple of the 13 a
    # block, are the first 20 of a 100-path run
    x = _block_run(100, 1, skew1)
    assert x.shape == (100, 1) and x.flags.c_contiguous
    assert _block_run(20, 1, skew1).tobytes() == x[:20].tobytes()


def test_gaussian_sampler_rejects_asymmetric(skew1):
    with pytest.raises(ValueError):
        stable_terminals_gaussian(1.3, skew1, 1.0, 0.01, 10, seed=0)


def test_gaussian_sampler_validation(sym1):
    with pytest.raises(ValueError):
        stable_terminals_gaussian(1.3, sym1, 1.0, -0.1, 10, seed=0)
    with pytest.raises(ValueError):
        stable_terminals_gaussian(1.3, sym1, 0.0, 0.1, 10, seed=0)
    with pytest.raises(ValueError):
        stable_terminals_gaussian(2.0, sym1, 1.0, 0.1, 10, seed=0)
    # ~31 jumps a path: a block of 133 paths, which -5 paths would round to none
    with pytest.raises(ValueError, match="path count"):
        stable_terminals_gaussian(1.3, sym1, 1.0, 0.1, -5, seed=0)


def test_gaussian_sampler_d2_isotropy():
    # d=2 uniform measure: the two coordinates should have equal scale and
    # no cross correlation on a heavy sample
    sigma = SphericalMeasure.uniform(2, 2.0)
    x = stable_terminals_gaussian(1.7, sigma, 1.0, 1e-3, 4000, seed=6)
    q10 = np.quantile(np.abs(x), 0.9, axis=0)
    assert abs(q10[0] / q10[1] - 1.0) < 0.15
