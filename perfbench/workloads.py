"""The four benchmark workloads.

Each workload is a fixed list of tasks, built from the workload seed alone.
One round runs every task once; the runner repeats rounds with identical
inputs (custom-q's symmetric paths excepted, see CustomQ) until the time
budget is spent.  Tasks call layerlab only through its
public names, looked up on the modules at call time so that the traced run
sees them, and the CLI in-process through ``layerlab.cli.entrypoint``.  Every
output is checked; a task that raises is one failed operation and the round
moves on to the next task.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from collections import Counter
from time import perf_counter

import numpy as np

import layerlab as L
from layerlab import cli as lcli

# An ECF distance of a batch of n draws from the right law exceeds 5/sqrt(n)
# with probability below 1e-9 at every frequency of the default grid, so a
# batch smaller than the acceptance battery's is gated at that noise floor
# instead of at the battery's threshold.
NOISE_FLOOR = 5.0


_REFERENCE_DATA = np.random.default_rng(0).random(1 << 19)


def reference_kernel() -> float:
    """Time one run of a fixed kernel that shares no code with layerlab: a
    Python loop, a stable argsort, and a cumulative sum and an exponential
    over arrays larger than the L2 cache, the mix the workloads spend their
    time in."""
    data = _REFERENCE_DATA
    t0 = perf_counter()
    acc = 0
    for i in range(50_000):
        acc += i * i
    np.argsort(data[:1 << 15], kind="stable")
    np.cumsum(data)
    np.exp(data[:1 << 18])
    return perf_counter() - t0


def derive(seed: int, *key) -> int:
    """A library seed derived from the workload seed and a task key."""
    words = [int(k) if isinstance(k, (int, np.integer))
             else int.from_bytes(hashlib.blake2b(str(k).encode(), digest_size=4)
                                 .digest(), "little")
             for k in key]
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(words))
    return int(ss.generate_state(1, np.uint32)[0])


class Round:
    """Counters, timings and checks of one round."""

    def __init__(self, seed: int, threads: int, workdir: str, index: int = 0):
        self.seed = seed
        self.index = index          # round number, for tasks with fresh inputs
        self.threads = threads
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[str] = []
        self.known_defects: list[str] = []
        self.ungated: dict[str, float] = {}
        # every timed call, keyed so that the same call in another round
        # (same inputs) has the same key:
        #   key -> (seconds, n, threads, index of the reference just before)
        self.calls: dict = {}
        self.task_s: dict[str, float] = {}
        self.reference: list[float] = []     # reference-kernel times, in order
        self._calibrating = 0.0
        self.cli_s: dict[str, float] = {}
        self.cli = Counter()
        self.digest = hashlib.blake2b(digest_size=16)
        self._cli_runs = 0

    # -- bookkeeping ----------------------------------------------------

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return ok

    def task(self, name: str, fn, *args):
        t0, calibrated = perf_counter(), self._calibrating
        try:
            fn(self, *args)
        except Exception as exc:        # one failed operation; keep going
            self.attempted += 1
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
        self.task_s[name] = perf_counter() - t0 - (self._calibrating - calibrated)

    def calibrate(self) -> int:
        """Time the reference kernel now; returns the sample's index."""
        t = reference_kernel()
        self._calibrating += t
        self.reference.append(t)
        return len(self.reference) - 1

    def record(self, key, seconds: float, n: int, threads: int | None = None,
               ref_at: int | None = None):
        """Time one producing call that returned n terminal values (n paths).

        threads=None is a call that runs in the calling thread (a path
        build); otherwise the sampler's thread count.  ref_at is the index
        of a reference sample taken just before the call, for a call that is
        timed only once.
        """
        self.calls[key] = (seconds, n, threads, ref_at)

    def hash(self, *arrays):
        for a in arrays:
            self.digest.update(np.ascontiguousarray(a).tobytes())

    # -- shared operations ----------------------------------------------

    def batch(self, key, call, n: int, chunk: int, threads: int | None = None):
        """n terminal values from call(n_paths, seed, threads), in chunks;
        chunk k of a key always gets the same library seed."""
        threads = self.threads if threads is None else threads
        parts = []
        for k, lo in enumerate(range(0, n, chunk)):
            m = min(chunk, n - lo)
            t0 = perf_counter()
            x = call(m, derive(self.seed, key, k), threads)
            self.record((key, k, threads), perf_counter() - t0, m, threads)
            parts.append(x)
        x = np.concatenate(parts)
        self.check(f"finite:{key}", x.shape[0] == n and bool(np.all(np.isfinite(x))),
                   f"shape {x.shape}")
        self.hash(x)
        return x

    def ecf(self, label: str, x, target, threshold: float | None = None,
            y_grid=None) -> float:
        """ECF distance against an oracle, gated at the larger of the
        acceptance threshold and the batch's noise floor."""
        dist = L.cf_distance(x, target, y_grid)
        gate = NOISE_FLOOR / np.sqrt(len(x))
        if threshold is not None:
            gate = max(gate, threshold)
        self.check(f"ecf:{label}", bool(dist < gate), f"distance {dist:.4f} >= {gate:.4f}")
        return dist

    def run_cli(self, command: str, argv: list[str]):
        """Run the CLI in-process; returns (exit code or None, exception, dir)."""
        self._cli_runs += 1
        out = os.path.join(self.workdir, f"cli{self._cli_runs}")
        os.makedirs(out)
        argv = [command] + [a.replace("{out}", out) for a in argv]
        os.environ["LAYERLAB_THREADS"] = str(self.threads)
        code, exc = None, None
        t0 = perf_counter()
        try:
            code = lcli.entrypoint(argv)
        except Exception as e:          # a crash is what the check reports
            exc = e
        dt = perf_counter() - t0
        self.cli_s[f"{self._cli_runs}:{command}"] = dt
        self.cli[f"cli.{command.replace('-', '_')}.s"] += dt
        if exc is None:
            self.cli[f"cli.exit_code.{code}"] += 1
        else:
            self.cli["cli.exceptions"] += 1
        self.cli["cli.bytes_written"] += sum(
            os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))
        return code, exc, out

    def cli_json(self, name: str, code, exc, path: str, expect: int = 0):
        ok = self.check(f"cli:{name}:exit", exc is None and code == expect,
                        f"exit {code}, exception {exc!r}")
        if not ok:
            return None
        with open(path) as fh:
            return json.load(fh)

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


SYM = L.SphericalMeasure.symmetric_pair(2.0)


def _skew():
    # weights 2:1 on +1/-1: exercises the zeta drift and canonical centering
    return L.SphericalMeasure.discrete(np.array([[1.0], [-1.0]]),
                                       np.array([2.0, 1.0]))


def _jump_round_trip(r: Round, label: str, q, sigma, path, draw):
    """The magnitudes of a custom-q path mapped back through tail_integral
    must give the Poisson arrivals: m * T * Q(|J|) = Gamma, sorted pairwise."""
    mags = np.sort(np.linalg.norm(path.jump_vectors, axis=1))[::-1]
    gam = draw.gammas[:len(mags)]
    m = sigma.total_mass()
    worst = 0.0
    for mag, g in zip(mags, gam):
        back = m * draw.T * q.tail_integral(float(mag)) / q.tail_scale
        worst = max(worst, abs(back - g) / g)
    r.check(f"roundtrip:{label}", len(mags) == len(draw.gammas) and worst <= 1e-8,
            f"{len(mags)}/{len(draw.gammas)} jumps, worst rel err {worst:.2e}")


# -- series-terminals ---------------------------------------------------


class SeriesTerminals:
    """Terminal values from the truncated series samplers."""

    name = "series-terminals"
    chunk = 25
    # at most a handful of inverse-tail calls outside custom-q
    zero_predictions = (("qfunc.inverse_tail.calls", 8),)
    N = {"stable": 400, "baseline": 200, "layered": 200, "skew": 200, "u2": 100}

    @staticmethod
    def build():
        skew = _skew()
        u2 = L.SphericalMeasure.uniform(2, 2.0)
        q = {ab: L.LayeredQ.canonical(*ab, 2.0) for ab in ((1.3, 1.9), (1.1, 2.5))}
        q_skew = L.LayeredQ.canonical(1.3, 1.9, skew.total_mass())
        mix = L.MixDistribution.uniform_on([0.8, 1.5])
        return {
            "skew": skew, "u2": u2, "mix": mix,
            "stable_cf": {a: L.StableCF.series_marginal(a, SYM) for a in (0.5, 1.0, 1.5)},
            "layered_cf": {ab: L.LayeredQuadratureCF(qq, SYM) for ab, qq in q.items()},
            "skew_stable_cf": L.StableCF.series_marginal(1.5, skew),
            "skew_layered_cf": L.LayeredQuadratureCF(q_skew, skew),
            # a discrete mix of stable indices is a sum of independent stable
            # series, each on the measure scaled by its mixing probability
            "mix_cfs": [L.StableCF.series_marginal(a, SYM.scaled(p))
                        for a, p in zip(mix.atoms, mix.probs)],
            "u2_cf": L.StableCF.series_marginal(1.5, u2),
        }

    def tasks(self, o):
        N, c = self.N, self.chunk

        def stable(r):
            # AC01's indices with their per-index caps
            for alpha, cap in ((0.5, 300.0), (1.0, 2000.0)):
                x = r.batch(f"stable{alpha}", lambda n, s, t: L.stable_terminals(
                    alpha, SYM, n, s, gamma_cap=cap, threads=t), N["stable"], c)
                r.ecf(f"stable a={alpha}", x, o["stable_cf"][alpha], 0.06)

        def baseline(r):
            # stable a=1.5, cap 1e4: the plain single-thread baseline, and the
            # same seeds at threads=nproc must give byte-identical terminals
            def call(n, s, t):
                return L.stable_terminals(1.5, SYM, n, s, gamma_cap=1e4, threads=t)
            x1 = r.batch("stable1.5", call, N["baseline"], c, threads=1)
            xn = r.batch("stable1.5", call, N["baseline"], c)
            r.check("thread-invariance:stable1.5", x1.tobytes() == xn.tobytes(),
                    f"threads=1 vs threads={r.threads} differ")
            r.ecf("stable a=1.5", xn, o["stable_cf"][1.5], 0.06)

        def layered(r):
            for ab in ((1.3, 1.9), (1.1, 2.5)):
                x = r.batch(f"layered{ab}", lambda n, s, t: L.layered_terminals(
                    *ab, SYM, n, s, threads=t), N["layered"], c)
                r.ecf(f"layered {ab}", x, o["layered_cf"][ab], 0.06)

        def rejection(r):
            # the second and third sweeps of the (1.3,1.9) oracle are warm
            for base in ("inner", "outer"):
                x = r.batch(f"rejection-{base}", lambda n, s, t: L.rejection_terminals(
                    1.3, 1.9, SYM, base, n, s, threads=t), N["layered"], c)
                r.ecf(f"rejection {base}", x, o["layered_cf"][(1.3, 1.9)], 0.07)

        def mixed(r):
            x = r.batch("mixed", lambda n, s, t: L.mixed_terminals(
                o["mix"], SYM, n, s, threads=t), N["layered"], c)
            cf1, cf2 = o["mix_cfs"]
            r.ecf("mixed {0.8,1.5}", x, lambda y: cf1(y) * cf2(y))

        def skewed(r):
            x = r.batch("skew-stable", lambda n, s, t: L.stable_terminals(
                1.5, o["skew"], n, s, threads=t), N["skew"], c)
            r.ecf("skew stable a=1.5", x, o["skew_stable_cf"])
            x = r.batch("skew-layered", lambda n, s, t: L.layered_terminals(
                1.3, 1.9, o["skew"], n, s, threads=t), N["skew"], c)
            r.ecf("skew layered (1.3,1.9)", x, o["skew_layered_cf"])

        def uniform2(r):
            x = r.batch("u2-stable", lambda n, s, t: L.stable_terminals(
                1.5, o["u2"], n, s, threads=t), N["u2"], c)
            r.ecf("uniform d=2 stable a=1.5", x, o["u2_cf"])

        def tail(r):
            code, exc, out = r.run_cli("tail", [
                "--process", "layered", "--alpha", "1.3", "--beta", "1.9",
                "--gamma-cap", "2000", "--paths", "2000",
                "--seed", str(derive(r.seed, "tail")),
                "--out", "{out}/tail.json"])
            rep = r.cli_json("tail", code, exc, os.path.join(out, "tail.json"))
            if rep is not None:
                r.check("cli:tail:ci", rep["ci_low"] <= rep["hill_estimate"] <= rep["ci_high"]
                        and np.isfinite(rep["hill_estimate"]), str(rep))

        return [("stable", stable), ("baseline", baseline), ("layered", layered),
                ("rejection", rejection), ("mixed", mixed), ("skewed", skewed),
                ("uniform2", uniform2), ("cli-tail", tail)]


# -- series-paths -------------------------------------------------------


class SeriesPaths:
    """Full grid paths: p-variation, Radon-Nikodym weights, jump-sum U."""

    name = "series-paths"
    zero_predictions = (("qfunc.inverse_tail.calls", 8),)
    # AC11 paths are ~16% of the timed calls, so that path_ms_p90 lies
    # inside their group instead of on the edge between two groups
    N = {"pvar": 60, "rn": 150, "u": 12}

    @staticmethod
    def build():
        q = L.LayeredQ.canonical(1.3, 1.9, 2.0)
        return {"grid3200": L.make_grid(1.0, 3200), "grid200": L.make_grid(1.0, 200),
                "grid4": L.make_grid(1.0, 4), "ratio": L.DensityRatio(q)}

    def tasks(self, o):
        N = self.N

        def pvar(r):
            # AC11: layered paths on a 3200-step grid at cap 1e5, p-variation
            # at strides 16, 4 and 1 on both sides of the inner index
            worst, ratios = 0.0, {0: [], 1: []}
            for i in range(N["pvar"]):
                t0 = perf_counter()
                draw = L.draw_shot_noise(derive(r.seed, "pvar", i), 1.0, SYM, 1e5)
                path = L.layered_path_canonical(1.3, 1.9, SYM, draw, o["grid3200"])
                r.record(("pvar", i), perf_counter() - t0, 1)
                r.hash(path.values)
                total = path.jump_vectors.sum(axis=0)
                worst = max(worst, float(np.max(np.abs(path.terminal - total))
                                         / max(1.0, float(np.max(np.abs(total))))))
                for j, p in enumerate((1.0, 1.6)):
                    v = [L.p_variation(L.SamplePath(
                        grid=path.grid[::s], values=path.values[::s],
                        jump_times=np.empty(0), jump_vectors=np.empty((0, 1))), p)
                        for s in (16, 4, 1)]
                    ratios[j].append(v[2] / v[0])
            r.check("assembly:terminal-is-jump-sum", worst < 1e-9, f"{worst:.2e}")
            r.ungated["pvar x16 ratio p=1.0 (median)"] = float(np.median(ratios[0]))
            r.ungated["pvar x16 ratio p=1.6 (median)"] = float(np.median(ratios[1]))

        def rn(r):
            # AC08 / rn: coupled stable+layered paths at cap 2000 on a 200-step
            # grid, u_series weights, sup functional; direct batch on independent
            # draws
            n = N["rn"]
            w, rw, direct = np.empty(n), np.empty(n), np.empty(n)
            for i in range(n):
                t0 = perf_counter()
                draw = L.draw_shot_noise(derive(r.seed, "rn", i), 1.0, SYM, 2000.0)
                y = L.stable_path(1.3, SYM, draw, o["grid200"])
                x = L.layered_path_canonical(1.3, 1.9, SYM, draw, o["grid200"])
                w[i] = np.exp(L.u_series(draw, 1.3, 1.9, 2.0, 1.0, "prime"))
                r.record(("rn", i), perf_counter() - t0, 2)
                rw[i] = w[i] * float(np.max(np.abs(y.values)) > 3.0)
                r.hash(x.values[-1], y.values[-1])
                t0 = perf_counter()
                draw = L.draw_shot_noise(derive(r.seed, "direct", i), 1.0, SYM, 2000.0)
                x = L.layered_path_canonical(1.3, 1.9, SYM, draw, o["grid200"])
                r.record(("direct", i), perf_counter() - t0, 1)
                direct[i] = float(np.max(np.abs(x.values)) > 3.0)
            se = np.std(w, ddof=1) / np.sqrt(n)
            r.check("rn:weight-mean", abs(np.mean(w) - 1.0) < 4.0 * se,
                    f"|mean-1| {abs(np.mean(w) - 1.0):.4f} vs 4se {4 * se:.4f}")
            lim = 4.0 * np.hypot(np.std(rw, ddof=1), np.std(direct, ddof=1)) / np.sqrt(n)
            r.check("rn:importance-sampling", abs(np.mean(rw) - np.mean(direct)) < lim,
                    f"reweighted {np.mean(rw):.4f} vs direct {np.mean(direct):.4f}")

        def u_jumps(r):
            # AC09: jump-sum U against the closed form on cap-500 jump lists
            worst = 0.0
            for i in range(N["u"]):
                t0 = perf_counter()
                draw = L.draw_shot_noise(derive(r.seed, "u", i), 1.0, SYM, 500.0)
                path = L.layered_path_canonical(1.3, 1.9, SYM, draw, o["grid4"])
                r.record(("u", i), perf_counter() - t0, 1)
                u_num, _ = L.u_from_jumps(o["ratio"], SYM, path.jumps, 1.0)
                u_ref = L.u_canonical(1.3, 1.9, 2.0, path.jumps, 1.0)
                worst = max(worst, abs(u_num - u_ref))
            r.check("u:jump-sum-vs-closed-form", worst < 1e-8, f"{worst:.2e}")

        def simulate(r):
            seed = derive(r.seed, "simulate")
            code, exc, out = r.run_cli("simulate", [
                "--process", "layered", "--alpha", "1.3", "--beta", "1.9",
                "--coupled", "stable:1.3", "--grid-n", "400", "--paths", "8",
                "--seed", str(seed), "--out", "{out}/run"])
            man = r.cli_json("simulate", code, exc, os.path.join(out, "run.manifest.json"))
            if man is None:
                return
            files = man["files"]
            r.check("cli:simulate:files", len(files) == 16, f"{len(files)} files")
            first = np.loadtxt(files[0], delimiter=",", skiprows=1)
            for f in files[1:]:
                np.loadtxt(f, delimiter=",", skiprows=1)
            # the CSV must hold the library's path on the same substream
            draw = L.draw_shot_noise(L.substream(seed, 0), 1.0, SYM, 1e4)
            ref = L.layered_path_canonical(1.3, 1.9, SYM, draw, L.make_grid(1.0, 400))
            r.check("cli:simulate:csv-matches-library",
                    np.array_equal(first[:, 1:], ref.values), files[0])

        def rn_cli(r):
            code, exc, out = r.run_cli("rn", [
                "--alpha", "1.3", "--beta", "1.9", "--paths", "300",
                "--gamma-cap", "2000", "--seed", str(derive(r.seed, "rn-cli")),
                "--out", "{out}/rn.json"])
            rep = r.cli_json("rn", code, exc, os.path.join(out, "rn.json"))
            if rep is not None:
                r.check("cli:rn:normalization", rep["normalization_ok"], str(rep))

        def mixed_cli(r):
            # Known defect: simulate --process mixed drops --mix from its
            # config and dies with KeyError: 'mix'.  That exact crash is
            # reported by name as a known defect; any other outcome is an
            # ordinary operation whose outputs are checked.
            code, exc, out = r.run_cli("simulate", [
                "--process", "mixed", "--alpha", "1.0", "--mix", "0.8:0.5,1.5:0.5",
                "--grid-n", "200", "--paths", "2",
                "--seed", str(derive(r.seed, "mixed")), "--out", "{out}/mixed"])
            if isinstance(exc, KeyError) and exc.args == ("mix",):
                r.known_defects.append("simulate --process mixed: KeyError: 'mix'")
                return
            man = r.cli_json("simulate-mixed", code, exc,
                             os.path.join(out, "mixed.manifest.json"))
            if man is not None:
                for f in man["files"]:
                    np.loadtxt(f, delimiter=",", skiprows=1)
                r.check("cli:simulate-mixed:files", len(man["files"]) == 2, str(man))

        return [("pvar", pvar), ("rn", rn), ("u-jumps", u_jumps),
                ("cli-simulate", simulate), ("cli-rn", rn_cli),
                ("cli-simulate-mixed", mixed_cli)]


# -- compensated-limits -------------------------------------------------


class CompensatedLimits:
    """Gaussian-compensated samplers, scaling limits and the stats oracles."""

    name = "compensated-limits"
    zero_predictions = (("series.draw.calls", 0),)
    chunk = 25
    N = {"limit": 300, "baseline": 300, "ac15": 300, "u2": 200, "hill": 5000}
    PAIRS = ((1.3, 1.9), (1.9, 1.3), (1.1, 2.5))

    @staticmethod
    def build():
        u2 = L.SphericalMeasure.uniform(2, 2.0)
        a, ai = 1.95, np.array([1.0, 4.0])
        atoms, weights = [], []
        for i, aa in enumerate(ai):
            for s in (1.0, -1.0):
                atoms.append(s * np.eye(2)[i])
                weights.append((2.0 - a) / 2.0 * aa)
        aniso = L.SphericalMeasure.discrete(np.array(atoms), np.array(weights))
        q = {ab: L.LayeredQ.canonical(*ab, 2.0) for ab in CompensatedLimits.PAIRS}
        return {
            "q": q, "u2": u2, "aniso": aniso,
            "q_gauss": L.LayeredQ.canonical(1.1, 2.5, 1.0),
            "layered_cf": {ab: L.LayeredQuadratureCF(qq, SYM) for ab, qq in q.items()},
            "short_cf": {ab: L.StableCF(ab[0], SYM) for ab in q},
            "long_cf": {ab: L.StableCF(ab[1], SYM) for ab in q if ab[1] < 2.0},
            "aniso_cf": L.StableCF(a, aniso),
            "u2_cf": L.LayeredQuadratureCF(q[(1.3, 1.9)], u2),
        }

    def tasks(self, o):
        N, c = self.N, self.chunk

        def sampler(ab, h, sigma=SYM, target_jumps=3000.0):
            # every measure here has mass 2, the mass of the canonical q
            r_cut = L.auto_r_cut(o["q"][ab], 2.0, h, target_jumps=target_jumps)
            return lambda n, s, t: L.layered_terminals_gaussian(
                *ab, sigma, h, r_cut, n, s, threads=t)

        def short(r):
            # AC03 at h=1e-3, plus the (1.1,2.5) pair
            h = 1e-3
            for ab in self.PAIRS:
                x = r.batch(f"short{ab}", sampler(ab, h), N["limit"], c)
                eta, b = L.short_time_constants(o["q"][ab], SYM)
                spec = L.LimitSpec("short", h, ab[0], eta, b)
                r.ecf(f"short-time {ab}", L.rescale_terminal(x, h, spec),
                      o["short_cf"][ab], 0.07)

        def unit(r):
            # AC02 at h=1 against the quadrature oracle; the (1.3,1.9) pair is
            # also the threads=1 baseline and its thread-invariance check
            for ab in self.PAIRS:
                x = r.batch(f"unit{ab}", sampler(ab, 1.0), N["limit"], c)
                r.ecf(f"h=1 {ab}", x, o["layered_cf"][ab], 0.06)
                if ab == (1.3, 1.9):
                    x1 = r.batch(f"unit{ab}", sampler(ab, 1.0), N["baseline"], c,
                                 threads=1)
                    r.check("thread-invariance:compensated", x1.tobytes() == x.tobytes(),
                            f"threads=1 vs threads={r.threads} differ")

        def long(r):
            h = 1e3
            for ab in ((1.9, 1.3), (1.3, 1.9)):
                x = r.batch(f"long{ab}", sampler(ab, h), N["limit"], c)
                eta, b = L.long_time_constants(o["q"][ab], SYM)
                spec = L.LimitSpec("long-stable", h, ab[1], eta, b)
                y = L.rescale_terminal(x, h, spec)
                if ab == (1.3, 1.9):
                    # AC04's configuration, known red: the exact law at h=1e3 is
                    # still ~0.18 from the limit (gap ~ h^-0.053), so the
                    # distance is recorded without a gate
                    r.ungated["AC04 long-time (1.3,1.9) h=1e3 distance"] = \
                        L.cf_distance(y, o["long_cf"][ab])
                else:
                    r.ecf(f"long-time {ab}", y, o["long_cf"][ab], 0.07)
            # AC05: Gaussian long-time limit of (1.1,2.5), gated
            q = o["q_gauss"]
            sigma = L.SphericalMeasure.symmetric_pair(1.0)
            r_cut = L.auto_r_cut(q, 1.0, h)
            x = r.batch("gauss", lambda n, s, t: L.layered_terminals_gaussian(
                1.1, 2.5, sigma, h, r_cut, n, s, threads=t), N["limit"], c)
            eta, b = L.long_time_constants(q, sigma)
            spec = L.LimitSpec("long-gaussian", h, 2.0, eta, b)
            cov = L.gaussian_covariance(q, sigma)
            r.ecf("long-time gaussian (1.1,2.5)", L.rescale_terminal(x, h, spec),
                  L.GaussianCF(cov), 0.07)

        def aniso(r):
            # AC15: anisotropic d=2 near-Gaussian stable, exact above r_cut
            sigma = o["aniso"]
            r_cut = (1.95 * 3000.0 / sigma.total_mass()) ** (-1.0 / 1.95)
            x = r.batch("aniso", lambda n, s, t: L.stable_terminals_gaussian(
                1.95, sigma, 1.0, r_cut, n, s, threads=t), N["ac15"], c)
            r.ecf("anisotropic d=2 a=1.95", x, o["aniso_cf"])

        def uniform2(r):
            # uniform d=2 layered against the cold quadrature oracle, on an
            # 11x11 grid: the default 21x21 grid takes ~2.7 s, most of a round
            x = r.batch("u2", sampler((1.3, 1.9), 1.0, o["u2"]), N["u2"], c)
            r.ecf("uniform d=2 layered (1.3,1.9)", x, o["u2_cf"],
                  y_grid=L.default_y_grid(2, n=11))

        def hill(r):
            # AC10's (1.9,1.3) terminals with a coarse exact-jump cutoff; the
            # estimate must lie within 5 bootstrap standard errors of beta
            x = r.batch("hill", sampler((1.9, 1.3), 1.0, target_jumps=300.0),
                        N["hill"], 1000)
            mags = np.abs(x[:, 0])
            est, lo, hi = L.hill_ci(mags[mags > 0], seed=derive(r.seed, "hill-boot"))
            se = (hi - lo) / (2 * 1.96)
            r.check("hill:outer-index", abs(est - 1.3) <= 5 * se,
                    f"hill {est:.3f}, CI ({lo:.3f},{hi:.3f})")

        def limit_check(r):
            code, exc, out = r.run_cli("limit-check", [
                "--mode", "short", "--h", "1e-3", "--alpha", "1.3", "--beta", "1.9",
                "--paths", "4000", "--seed", str(derive(r.seed, "limit-check")),
                "--threshold", f"{NOISE_FLOOR / np.sqrt(4000):.6f}",
                "--out", "{out}/limit.json"])
            rep = r.cli_json("limit-check", code, exc, os.path.join(out, "limit.json"))
            if rep is not None:
                r.check("cli:limit-check:pass", rep["pass"], str(rep))

        return [("short", short), ("unit", unit), ("long", long), ("aniso", aniso),
                ("uniform2", uniform2), ("hill", hill), ("cli-limit-check", limit_check)]


# -- custom-q -----------------------------------------------------------


class CustomQ:
    """Custom radial density (blend_q): per-jump inverse tail by bisection."""

    name = "custom-q"
    zero_predictions = ()
    # A blend path costs one Brent bisection over quadrature per jump, so its
    # time follows its Poisson jump count.  Every round draws fresh symmetric
    # paths, so that a run's latency percentiles rest on 100+ distinct paths;
    # cap 40 keeps the count's relative spread (16%) small.  The costly skewed
    # paths repeat identical inputs, like every other task.
    CAP = {"sym": 40.0, "skew": 10.0}
    N = {"sym": 21, "skew": 2, "radii": 60}

    @staticmethod
    def build():
        bq = L.blend_q(1.3, 1.9)      # runs the custom q's asymptotic check
        return {"q": bq, "skew": _skew(), "grid": L.make_grid(1.0, 200),
                "cf": L.LayeredQuadratureCF(bq, SYM)}

    def tasks(self, o):
        N, q = self.N, o["q"]

        def paths(r, sigma, n, key, fresh):
            out = []
            for i in range(n):
                at = r.calibrate() if fresh else None
                t0 = perf_counter()
                k = (r.index, key, i) if fresh else (key, i)
                draw = L.draw_shot_noise(derive(r.seed, *k), 1.0, sigma, self.CAP[key])
                path = L.layered_path_general(q, sigma, draw, o["grid"])
                r.record(k, perf_counter() - t0, 1, ref_at=at)
                if not fresh:       # the determinism check compares rounds
                    r.hash(path.values)
                _jump_round_trip(r, f"{key}{i}", q, sigma, path, draw)
                out.append(path.terminal)
            return np.array(out)

        def symmetric(r):
            x = paths(r, SYM, N["sym"], "sym", fresh=True)
            # the cap-40 series discards most of the small-jump variance, so
            # the distance to the full law is recorded, not gated
            r.ungated["blend cap-40 terminals vs full law"] = L.cf_distance(x, o["cf"])

        def skewed(r):
            # asymmetric measure: adds the centering quadrature per path
            paths(r, o["skew"], N["skew"], "skew", fresh=False)

        def round_trip(r):
            # AC06 over a log grid of radii
            worst = 0.0
            for rad in np.logspace(-6, 6, N["radii"]):
                u = q.tail_scale * q.tail_integral(float(rad))
                worst = max(worst, abs(q.inverse_tail(u) - rad) / rad)
            r.check("roundtrip:log-grid", worst < 1e-8, f"{worst:.2e}")

        def simulate(r):
            # the CLI has no custom-q process; its canonical counterpart
            code, exc, out = r.run_cli("simulate", [
                "--process", "layered", "--alpha", "1.3", "--beta", "1.9",
                "--grid-n", "400", "--paths", "60",
                "--seed", str(derive(r.seed, "simulate")), "--out", "{out}/run"])
            man = r.cli_json("simulate", code, exc, os.path.join(out, "run.manifest.json"))
            if man is not None:
                for f in man["files"]:
                    np.loadtxt(f, delimiter=",", skiprows=1)
                r.check("cli:simulate:files", len(man["files"]) == 60, str(man))

        return [("symmetric", symmetric), ("skewed", skewed),
                ("round-trip", round_trip), ("cli-simulate", simulate)]


WORKLOADS = {w.name: w for w in (SeriesTerminals, SeriesPaths, CompensatedLimits,
                                 CustomQ)}
