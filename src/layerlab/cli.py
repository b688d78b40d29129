"""Command-line surface: simulate paths, check scaling limits, run
Radon-Nikodym diagnostics, estimate tail indices, and self-test.

Exit codes: 0 success, 1 failed check, 2 configuration or numerical error
(a quadrature that does not converge, or a float overflow), 3 IO error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import girsanov, limits, mc, series, stats
from ._special import zeta
from .qfunc import LayeredQ, QuadratureError
from .series import draw_shot_noise, make_grid
from .spherical import SphericalMeasure, parse_spherical_spec

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3


class ConfigError(ValueError):
    pass


# -- helpers ----------------------------------------------------------


def write_csv(path, grid, values):
    d = values.shape[1]
    header = "t," + ",".join(f"x{i + 1}" for i in range(d))
    # Python floats format faster than numpy scalars, to the same text
    row = ",".join(["{:.17g}"] * (d + 1))
    lines = [header] + [row.format(t, *v) for t, v in zip(grid.tolist(), values.tolist())]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit(out, report):
    """Write a JSON report to the --out path, or to stdout without one."""
    if out:
        write_json(out, report)
    else:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")


def read_config_file(path) -> dict:
    """Parse a `key = value` config file; '#' starts a comment."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _parse_mix(text: str) -> series.MixDistribution:
    """alpha:prob pairs, e.g. '0.5:0.5,1.5:0.5'."""
    atoms, probs = [], []
    for item in text.split(","):
        a, _, p = item.partition(":")
        atoms.append(float(a))
        probs.append(float(p))
    return series.MixDistribution(np.array(atoms), np.array(probs))


# each process: the settings it cannot run without, the setting that gives
# its nominal tail index in `tail` (None: `tail` does not run it), and its
# law from the settings and the spectral measure
_LAWS = {
    "stable": (("alpha",), "alpha",
               lambda cfg, sigma: series.stable_law(float(cfg["alpha"]), sigma)),
    "layered": (("alpha", "beta"), "beta", lambda cfg, sigma: series.layered_law(
        LayeredQ.canonical(float(cfg["alpha"]), float(cfg["beta"]), sigma.total_mass()),
        sigma)),
    "layered-rejection": (("alpha", "beta"), None, lambda cfg, sigma: series.rejection_law(
        float(cfg["alpha"]), float(cfg["beta"]), sigma, cfg.get("base", "inner"))),
    "mixed": (("mix",), None,
              lambda cfg, sigma: series.mixed_law(_parse_mix(cfg["mix"]), sigma)),
}
PROCESSES = tuple(_LAWS)

# every setting: the add_argument options of its flag, and its default as a
# config file gives it.  None reads as unset (null in a manifest); a setting
# with no default is left out of the command's settings until given
_SETTINGS = {
    "process": ({}, "layered"),             # its choices: the command's processes
    "alpha": ({"type": float}, None),
    "beta": ({"type": float}, None),
    "sigma": ({}, "discrete:[(1):1,(-1):1]"),
    "T": ({"type": float}, "1.0"),
    "grid_n": ({"type": int}, "200"),
    "paths": ({"type": int}, "1"),
    "seed": ({"type": int}, "0"),
    "gamma_cap": ({"type": float}, "1e4"),
    "format": ({"choices": ("csv", "json")}, "csv"),
    "base": ({"choices": ("inner", "outer")},),
    "mix": ({"help": "alpha:prob pairs for the mixed process"},),
    "coupled": ({"help": "companion processes on the same draw"},),
}
_DEFAULTS = {k: row[1] for k, row in _SETTINGS.items() if len(row) > 1}

# each command: its flags after --config in usage order, each but out a
# setting it reads; the settings it takes no default for; and the processes
# it runs.  T and grid_n go with a grid over [0, T], gamma_cap with the
# truncated series (limit-check runs the compensated sampler)
_COMMANDS = {
    "simulate": (("alpha", "beta", "sigma", "T", "grid_n", "paths", "seed", "gamma_cap", "out",
                  "process", "format", "base", "mix", "coupled"), (), PROCESSES),
    "limit-check": (("alpha", "beta", "sigma", "paths", "seed", "out"), ("alpha", "beta"), ()),
    "rn": (("alpha", "beta", "sigma", "T", "grid_n", "paths", "seed", "gamma_cap", "out"),
           ("alpha", "beta", "paths"), ()),
    "tail": (("alpha", "beta", "sigma", "paths", "seed", "gamma_cap", "out", "process"),
             ("paths",), tuple(p for p, (_, index, _) in _LAWS.items() if index)),
}


def _merge_config(args) -> dict:
    """The command's settings: defaults, then the config file, then flags.

    A config file may set the settings the command reads and no others, and
    a setting with choices (the command's processes, for process) only to
    one of them, as its flag may; a setting the command requires takes no
    default.
    """
    flags, required, processes = _COMMANDS[args.command]
    keys = [k for k in flags if k != "out"]
    cfg = {k: _DEFAULTS[k] for k in keys if k in _DEFAULTS and k not in required}
    if args.config:
        cfg.update(read_config_file(args.config))
    for key in keys:
        val = getattr(args, key)
        if val is not None:
            cfg[key] = str(val)
    unknown = set(cfg) - set(keys)
    if unknown:
        raise ConfigError(f"unknown config keys for {args.command}: {sorted(unknown)}")
    for key, val in cfg.items():
        choices = processes if key == "process" else _SETTINGS[key][0].get("choices")
        if choices and val not in choices:
            raise ConfigError(f"{key} must be one of {', '.join(choices)}, got {val!r}")
    _require(cfg, required, f"the {args.command} command")
    return cfg


def _require(cfg, keys, what) -> None:
    """Reject a config that leaves a setting `what` needs unset."""
    missing = [k for k in keys if cfg.get(k) is None]
    if missing:
        raise ConfigError(f"{what} requires {' and '.join(missing)}")


def _process_law(cfg, sigma):
    """The law of the configured process (_merge_config checked that the
    command runs it), and the setting that gives its nominal tail index."""
    process = cfg["process"]
    required, tail_index, law = _LAWS[process]
    _require(cfg, required, f"the {process} process")
    return law(cfg, sigma), tail_index


def _parse_coupled(text, sigma):
    """'stable:1.3,stable:0.5' -> [(label, law)]."""
    out = []
    for item in text.split(","):
        proc, _, a = item.partition(":")
        if proc != "stable":
            raise ConfigError("coupled companions must be stable:<alpha>")
        out.append((f"stable_a{a}", series.stable_law(float(a), sigma)))
    return out


# -- commands ---------------------------------------------------------


def cmd_simulate(args) -> int:
    cfg = _merge_config(args)
    sigma = parse_spherical_spec(cfg["sigma"])
    T = float(cfg["T"])
    n_paths = int(cfg["paths"])
    if n_paths < 1:
        raise ConfigError("paths must be at least 1")
    seed = int(cfg["seed"])
    gamma_cap = float(cfg["gamma_cap"])
    grid = make_grid(T, int(cfg["grid_n"]))
    fmt = cfg["format"]
    coupled = cfg.pop("coupled", "")     # the manifest keeps it beside the config
    law, _ = _process_law(cfg, sigma)
    jobs = [(cfg["process"], law)] + (_parse_coupled(coupled, sigma) if coupled else [])
    # a run that cannot finish writes nothing: the first draw checks the cap,
    # T and the arrival budget, and the bound is found, before any file opens
    started = time.time()
    first = law.draw(mc.substream(seed, 0), T, gamma_cap)
    try:
        bound = law.truncation_bound(gamma_cap)
    except OverflowError as exc:
        raise OverflowError(f"the truncation bound, the largest jump that gamma_cap = "
                            f"{gamma_cap:g} discards, overflows a float ({exc.args[-1]})") from exc

    out = args.out or "layerlab_run"
    suffix = "." + fmt
    stem = out[:-len(suffix)] if out.endswith(suffix) else out
    files = []
    for p in range(n_paths):
        draw = first if p == 0 else law.draw(mc.substream(seed, p), T, gamma_cap)
        for label, job in jobs:
            path = job.path(draw, grid)
            name = stem
            if len(jobs) > 1:
                name += f"_{label}"
            if n_paths > 1:
                name += f"_p{p:04d}"
            name += suffix
            if fmt == "json":
                write_json(name, {"grid": path.grid.tolist(),
                                  "values": path.values.tolist()})
            else:
                write_csv(name, path.grid, path.values)
            files.append(name)

    manifest = {
        "config": {k: cfg[k] for k in sorted(cfg)},
        "coupled": coupled,
        "files": files,
        "seed": seed,
        "truncation_bound": bound,
        "wall_time_s": time.time() - started,
    }
    write_json(stem + ".manifest.json", manifest)
    return EXIT_OK


def cmd_limit_check(args) -> int:
    cfg = _merge_config(args)
    h = float(args.h)
    n_paths = int(cfg["paths"])
    threshold = float(args.threshold)
    if not 0.0 < threshold < np.inf:
        raise ConfigError(f"threshold must be positive and finite, got {threshold}")
    target, rescaled, spec = limits.limit_target_and_samples(
        float(cfg["alpha"]), float(cfg["beta"]), parse_spherical_spec(cfg["sigma"]),
        args.mode, h, n_paths, int(cfg["seed"]))
    dist = stats.cf_distance(rescaled, target)
    report = {
        "mode": args.mode,
        "h": h,
        "index": spec.index,
        "eta": list(np.atleast_1d(spec.eta)),
        "b": list(np.atleast_1d(spec.b)),
        "paths": n_paths,
        "distance": dist,
        "threshold": threshold,
        "pass": bool(dist < threshold),
    }
    _emit(args.out, report)
    return EXIT_OK if report["pass"] else EXIT_CHECK_FAILED


def cmd_rn(args) -> int:
    cfg = _merge_config(args)
    report = girsanov.rn_diagnostics(
        float(cfg["alpha"]), float(cfg["beta"]), parse_spherical_spec(cfg["sigma"]),
        args.functional, int(cfg["paths"]), int(cfg["seed"]), T=float(cfg["T"]),
        grid_n=int(cfg["grid_n"]), gamma_cap=float(cfg["gamma_cap"]))
    _emit(args.out, report)
    ok = report["normalization_ok"] and report["agreement_ok"]
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_tail(args) -> int:
    cfg = _merge_config(args)
    n_paths = int(cfg["paths"])
    if n_paths < 1000:
        raise ConfigError("tail estimation needs at least 10^3 paths")
    if args.k is not None and not 0 < args.k < n_paths:
        raise ConfigError(f"k = {args.k} must lie strictly between 0 and paths = {n_paths}")
    seed = int(cfg["seed"])
    law, index = _process_law(cfg, parse_spherical_spec(cfg["sigma"]))
    x = mc.terminals(law, n_paths, seed, gamma_cap=float(cfg["gamma_cap"]))
    mags = np.linalg.norm(np.atleast_2d(x), axis=1)
    mags = mags[mags > 0]
    k = args.k if args.k is not None else int(np.sqrt(len(mags)))
    if k >= len(mags):
        raise ConfigError(f"k = {k} must be smaller than the sample size {len(mags)}")
    est, lo, hi = stats.hill_ci(mags, k, seed=seed)
    report = {
        "process": cfg["process"],
        "paths": n_paths,
        "k": k,
        "hill_estimate": est,
        "ci_low": lo,
        "ci_high": hi,
        "nominal_index": float(cfg[index]),
    }
    _emit(args.out, report)
    return EXIT_OK


# -- selftest ---------------------------------------------------------

# frozen zeta reference values used to pin the series drift constant
_ZETA_REFERENCE = {
    1.0 / 1.1: -10.429443736400298,
    1.0 / 1.5: -2.4475807362336582,
    1.0 / 1.9: -1.5694328957059459,
}


def _selftest_checks():
    sym = SphericalMeasure.symmetric_pair(2.0)

    def check_zeta_drift():
        worst = 0.0
        for s, ref in _ZETA_REFERENCE.items():
            worst = max(worst, abs(zeta(s) - ref))
        return worst, 1e-9, "b_T drift constant (zeta on (1/2,1))"

    def check_inverse_roundtrip():
        q = LayeredQ.canonical(1.3, 1.9, 2.0)
        rs = np.logspace(-3, 3, 61)
        worst = max(abs(q.inverse_tail(q.tail_scale * q.tail_integral(r)) - r) / r
                    for r in rs)
        return worst, 1e-10, "inverse-tail round trip"

    def check_branch_boundary():
        q = LayeredQ.canonical(1.3, 1.9, 2.0)
        return abs(q.inverse_tail(2.0 / 1.9) - 1.0), 1e-12, "inverse-tail branch boundary"

    def check_stable_marginal():
        x = mc.stable_terminals(1.5, sym, 2000, seed=11)
        d = stats.cf_distance(x, stats.StableCF.series_marginal(1.5, sym))
        return d, 0.13, "stable marginal ECF"

    def check_layered_marginal():
        q = LayeredQ.canonical(1.3, 1.9, 2.0)
        x = mc.layered_terminals(1.3, 1.9, sym, 2000, seed=12)
        d = stats.cf_distance(x, stats.LayeredQuadratureCF(q, sym))
        return d, 0.13, "layered marginal ECF"

    def check_rn_normalization():
        n = 2000
        w = np.empty(n)
        for i in range(n):
            draw = draw_shot_noise(mc.substream(13, i), 1.0, sym, 1e4)
            w[i] = np.exp(girsanov.u_series(draw, 1.3, 1.9, 2.0, 1.0, "prime"))
        dev = abs(np.mean(w) - 1.0)
        lim = 4.0 * np.std(w, ddof=1) / np.sqrt(n)
        return dev, lim, "RN weight normalization"

    def check_symmetric_constants():
        q = LayeredQ.canonical(1.3, 1.9, 2.0)
        eta, b = limits.short_time_constants(q, sym)
        eta2, b2 = limits.long_time_constants(q, sym)
        worst = max(np.max(np.abs(v)) for v in (eta, b, eta2, b2))
        return worst, 1e-14, "symmetric limit constants vanish"

    return [
        ("b_T-zeta", check_zeta_drift),
        ("inverse-tail-roundtrip", check_inverse_roundtrip),
        ("inverse-tail-branch", check_branch_boundary),
        ("stable-marginal-cf", check_stable_marginal),
        ("layered-marginal-cf", check_layered_marginal),
        ("rn-normalization", check_rn_normalization),
        ("symmetric-constants", check_symmetric_constants),
    ]


def cmd_selftest(args) -> int:
    failures = 0
    print(f"{'check':32s} {'value':>12s} {'limit':>12s}  result")
    for name, fn in _selftest_checks():
        try:
            value, limit, _desc = fn()
            ok = value <= limit
        except Exception as exc:  # a crashed check is a failed check
            print(f"{name:32s} {'error':>12s} {'':>12s}  FAIL ({exc})")
            failures += 1
            continue
        print(f"{name:32s} {value:12.4g} {limit:12.4g}  {'ok' if ok else 'FAIL'}")
        if not ok:
            failures += 1
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


# -- argument parsing -------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # no abbreviated flags: --h would otherwise read as --help where there is no --h
    ap = argparse.ArgumentParser(prog="layerlab", allow_abbrev=False,
                                 description="Layered stable process toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_parser(name, fn, summary):
        # a command that reads settings takes a flag for each (_COMMANDS)
        p = sub.add_parser(name, allow_abbrev=False, help=summary)
        p.set_defaults(fn=fn)
        if name in _COMMANDS:
            flags, _, processes = _COMMANDS[name]
            p.add_argument("--config", help="key = value config file")
            for key in flags:
                opts = ({} if key == "out" else {"choices": processes} if key == "process"
                        else _SETTINGS[key][0])
                p.add_argument("--" + key.replace("_", "-"), **opts)
        return p

    add_parser("simulate", cmd_simulate, "simulate sample paths to CSV or JSON")
    p = add_parser("limit-check", cmd_limit_check, "verify a scaling-limit theorem")
    p.add_argument("--mode", required=True, choices=("short", "long"))
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--threshold", type=float, default=0.07)
    p = add_parser("rn", cmd_rn, "Radon-Nikodym diagnostics")
    p.add_argument("--functional", default="sup-exceeds:3")
    p = add_parser("tail", cmd_tail, "Hill tail-index estimate")
    p.add_argument("--k", type=int)
    add_parser("selftest", cmd_selftest, "run the reduced invariant suite")
    return ap


def entrypoint(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QuadratureError, OverflowError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


def main() -> None:
    sys.exit(entrypoint())


if __name__ == "__main__":
    main()
