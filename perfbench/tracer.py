"""Span tracing of layerlab's public functions, installed from outside the
package for the traced run only.

Every wrapped name is replaced in each layerlab module that binds it (the
defining module, the modules that import it, and the package re-exports),
and methods are replaced on their class, so a call records one span however
it is reached.  A span is [name, start, end, parent index].  Self time is a
span's duration minus the time covered by its direct children; spans only
nest correctly when every call runs in one thread, so the traced run uses
threads=1.
"""

from __future__ import annotations

import functools
import threading
from collections import Counter, defaultdict
from time import perf_counter

PATH_BUILDERS = ("stable_path", "layered_path_canonical", "layered_path_general",
                 "layered_path_rejection", "mixed_path")
TERMINAL_SAMPLERS = ("stable_terminals", "layered_terminals",
                     "rejection_terminals", "mixed_terminals",
                     "stable_terminals_gaussian", "layered_terminals_gaussian")
COMPENSATED = ("mc.stable_terminals_gaussian", "mc.layered_terminals_gaussian")
ORACLES = ("StableCF", "IsotropicStableCF", "GaussianCF", "LayeredQuadratureCF")

# per-layer metric -> span names whose self time it sums
SELF_TIME = {
    "series.draw.self_s": ("series.draw_shot_noise",),
    "series.path.self_s": tuple(f"series.{n}" for n in PATH_BUILDERS),
    "spherical.sample_directions.self_s": ("spherical.sample_directions",),
    "mc.run_paths.self_s": ("mc.run_paths",),
    "mc.compensated.self_s": COMPENSATED + ("mc.compensated.path",),
    "qfunc.tail_integral.self_s": ("qfunc.tail_integral",),
    "qfunc.inverse_tail.self_s": ("qfunc.inverse_tail",),
    "girsanov.u_series.self_s": ("girsanov.u_series",),
    "girsanov.u_from_jumps.self_s": ("girsanov.u_from_jumps",),
    "limits.constants.self_s": ("limits.short_time_constants",
                                "limits.long_time_constants",
                                "limits.gaussian_covariance"),
    "limits.rescale_terminal.self_s": ("limits.rescale_terminal",),
    "stats.oracle_cold.self_s": tuple(f"stats.oracle_cold.{c}" for c in ORACLES),
    "stats.oracle_warm.self_s": tuple(f"stats.oracle_warm.{c}" for c in ORACLES),
    "stats.cf_distance.self_s": ("stats.cf_distance",),
    "stats.hill_ci.self_s": ("stats.hill_ci",),
    "stats.p_variation.self_s": ("stats.p_variation",),
}
CALLS = {
    "series.draw.calls": ("series.draw_shot_noise",),
    "series.path.calls": tuple(f"series.{n}" for n in PATH_BUILDERS),
    "mc.compensated.calls": COMPENSATED,
    "qfunc.tail_integral.calls": ("qfunc.tail_integral",),
    "qfunc.inverse_tail.calls": ("qfunc.inverse_tail",),
    "girsanov.phi.calls": ("girsanov.phi",),
    "stats.oracle.evals": tuple(f"stats.oracle_{w}.{c}" for w in ("cold", "warm")
                                for c in ORACLES),
}
COUNTS = ("series.jumps_drawn", "series.jumps_kept", "spherical.directions_drawn",
          "mc.terminals")


def _draw_of(args, kwargs):
    from layerlab.series import ShotNoiseDraw
    for v in list(args) + list(kwargs.values()):
        if isinstance(v, ShotNoiseDraw):
            return v
    return None


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.stats = defaultdict(lambda: [0, 0.0])    # name -> [calls, self_s]
        self.counts = Counter()
        self._stack: list[list] = []                  # [span index, child time]
        self._patches: list[tuple] = []
        self._swept: set[int] = set()                 # oracles done with a sweep
        self._keep: list = []                         # keeps swept ids alive
        self._sweep: list | None = None
        self._thread = threading.get_ident()

    # -- spans ----------------------------------------------------------

    def _run(self, name, fn, args, kwargs):
        if threading.get_ident() != self._thread:
            raise RuntimeError("traced call off the main thread; trace at threads=1")
        idx = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        frame = [idx, 0.0]
        start = perf_counter()
        self.spans.append([name, start, start, parent])
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            dur = end - start
            self.spans[idx][2] = end
            st = self.stats[name]
            st[0] += 1
            st[1] += dur - frame[1]
            if self._stack:
                self._stack[-1][1] += dur

    def _parent_name(self):
        return self.spans[self._stack[-1][0]][0] if self._stack else None

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self._run(name, fn, args, kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    # -- installation ---------------------------------------------------

    def install(self):
        import layerlab
        from layerlab import (cli, girsanov, limits, mc, qfunc, series,
                              spherical, stats)
        modules = (layerlab, cli, girsanov, limits, mc, qfunc, series,
                   spherical, stats)

        def rebind(original, replacement):
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        self._patches.append((mod, attr, val))
                        setattr(mod, attr, replacement)

        def on_draw(args, kwargs, draw):
            self.counts["series.jumps_drawn"] += len(draw.gammas)

        def on_path(args, kwargs, path):
            draw = _draw_of(args, kwargs)
            self.counts["series.jumps_consumed"] += len(draw.gammas)
            self.counts["series.jumps_kept"] += len(path.jump_times)

        def on_terminals(args, kwargs, x):
            self.counts["mc.terminals"] += len(x)

        def on_directions(args, kwargs, dirs):
            self.counts["spherical.directions_drawn"] += len(dirs)

        funcs = [(series, "draw_shot_noise", on_draw)]
        funcs += [(series, n, on_path) for n in PATH_BUILDERS]
        funcs += [(mc, n, on_terminals) for n in TERMINAL_SAMPLERS]
        funcs += [(girsanov, n, None) for n in ("u_series", "u_from_jumps",
                                                 "u_canonical")]
        funcs += [(limits, n, None) for n in ("short_time_constants",
                                               "long_time_constants",
                                               "gaussian_covariance",
                                               "rescale_terminal")]
        funcs += [(stats, n, None) for n in ("hill_ci", "p_variation")]
        for mod, attr, after in funcs:
            original = getattr(mod, attr)
            short = mod.__name__.rsplit(".", 1)[1]
            rebind(original, self.wrap(f"{short}.{attr}", original, after))
        rebind(mc.run_paths, self._run_paths(mc.run_paths))
        rebind(stats.cf_distance, self._cf_distance(stats.cf_distance))

        def on_tail(args, kwargs, value):
            # tail integrals spent inside an inverse: what a table inverse saves
            if self._parent_name() == "qfunc.inverse_tail":
                self.counts["qfunc.tails_in_inverse"] += 1

        methods = [(qfunc.LayeredQ, "tail_integral", "qfunc.tail_integral", on_tail),
                   (qfunc.LayeredQ, "inverse_tail", "qfunc.inverse_tail", None),
                   (spherical.SphericalMeasure, "sample_directions",
                    "spherical.sample_directions", on_directions),
                   (girsanov.DensityRatio, "phi", "girsanov.phi", None)]
        for cls, attr, name, after in methods:
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original, after))
        for cls_name in ORACLES:
            cls = getattr(stats, cls_name)
            original = cls.__dict__["__call__"]
            self._patches.append((cls, "__call__", original))
            setattr(cls, "__call__", self._oracle(cls_name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _run_paths(self, original):
        # the per-path callable gets its own span, so run_paths' self time is
        # only the loop and pool overhead; inside the compensated samplers the
        # per-path body is the sampler's own work
        @functools.wraps(original)
        def traced(fn, *args, **kwargs):
            inner = ("mc.compensated.path" if self._parent_name() in COMPENSATED
                     else "mc.path_fn")
            return self._run("mc.run_paths", original,
                             (self.wrap(inner, fn),) + args, kwargs)
        return traced

    def _cf_distance(self, original):
        # oracle calls inside the first cf_distance sweep of an instance are
        # cold; later sweeps of the same instance are warm
        @functools.wraps(original)
        def traced(*args, **kwargs):
            outer, self._sweep = self._sweep, []
            try:
                return self._run("stats.cf_distance", original, args, kwargs)
            finally:
                for oracle in self._sweep:
                    if id(oracle) not in self._swept:
                        self._swept.add(id(oracle))
                        self._keep.append(oracle)
                self._sweep = outer
        return traced

    def _oracle(self, cls_name, original):
        @functools.wraps(original)
        def traced(oracle, *args, **kwargs):
            if self._sweep is not None:
                self._sweep.append(oracle)
            state = "warm" if id(oracle) in self._swept else "cold"
            name = f"stats.oracle_{state}.{cls_name}"
            return self._run(name, original, (oracle,) + args, kwargs)
        return traced

    # -- results --------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for metric, names in SELF_TIME.items():
            out[metric] = sum(self.stats[n][1] for n in names if n in self.stats)
        for metric, names in CALLS.items():
            out[metric] = sum(self.stats[n][0] for n in names if n in self.stats)
        for name in COUNTS:
            out[name] = self.counts[name]
        consumed = self.counts["series.jumps_consumed"]
        out["series.keep_ratio"] = (self.counts["series.jumps_kept"] / consumed
                                    if consumed else 0.0)
        inverses = out["qfunc.inverse_tail.calls"]
        out["qfunc.tails_per_inverse"] = (self.counts["qfunc.tails_in_inverse"] / inverses
                                          if inverses else 0.0)
        out["trace.spans"] = len(self.spans)
        out["trace.self_s"] = sum(st[1] for st in self.stats.values())
        return out
