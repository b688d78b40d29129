"""layerlab benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The library is imported from ./src and
nowhere else.  Set-up time is the median of several fresh interpreters that
import layerlab and build the workload's objects.  The run then repeats
rounds of the workload until --seconds is spent, and
prints each metric named in BENCHMARK.json; the last line of standard output
is one JSON object.  --trace 0 measures the end-to-end metrics with every
sampler call at threads=nproc.  --trace 1 runs at threads=1 and alternates
untraced rounds with rounds traced by perfbench/tracer.py, and reports the
per-layer metrics and the tracing overhead.  A result file with the machine
context goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5
MIN_ROUNDS = 5
# Best time of the reference kernel (workloads.reference_kernel) on the
# machine named in README.md.  Every end-to-end time is reported at this
# reference speed (see _end_to_end).
REFERENCE_S = 0.0083


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_layerlab(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "layerlab", "__init__.py")):
        _fail(f"no layerlab sources under {src}; run from the repository root")
    sys.path.insert(0, src)
    import layerlab
    if os.path.dirname(os.path.dirname(os.path.abspath(layerlab.__file__))) != src:
        _fail(f"imported layerlab from {layerlab.__file__}, not from {src}")
    return layerlab


def _setup_time(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        _fail(f"set-up probe failed (exit {code}, output {line!r})")
    return elapsed


def _machine(root: str, seed: int, threads: int, nproc: int) -> dict:
    import numpy
    import scipy
    ctx = {"nproc": nproc, "threads": threads, "seed": seed,
           "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "cpu_model": platform.processor() or None}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    ctx["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = "/sys/devices/system/cpu/cpu0/cache"
    for level in ("2", "3"):
        ctx[f"l{level}_cache"] = None
        try:
            for idx in sorted(os.listdir(cache)):
                with open(os.path.join(cache, idx, "level")) as fh:
                    if fh.read().strip() == level:
                        with open(os.path.join(cache, idx, "size")) as fs:
                            ctx[f"l{level}_cache"] = fs.read().strip()
        except OSError:
            pass
    ctx["git_commit"] = None
    if os.path.isdir(os.path.join(root, ".git")):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                             capture_output=True, timeout=30)
        ctx["git_commit"] = res.stdout.strip() or None
    # identifies the measured code where the checkout is not a git repository
    h = hashlib.sha256()
    src = os.path.join(root, "src", "layerlab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + fh.read())
    ctx["source_sha256"] = h.hexdigest()
    return ctx


def _run_round(wl, seed, threads, workdir, index, tracer=None):
    from workloads import Round
    r = Round(seed, threads, tempfile.mkdtemp(dir=workdir), index)
    if tracer is not None:
        tracer.install()
    try:
        t0 = perf_counter()
        objects = wl.build()
        for name, fn in wl.tasks(objects):
            r.calibrate()
            r.task(name, fn)
        r.wall = perf_counter() - t0 - sum(r.reference)
        r.calibrate()
    finally:
        if tracer is not None:
            tracer.uninstall()
        r.cleanup()
    return r


def _end_to_end(rounds, setup, setup_refs) -> dict:
    """End-to-end metrics at the reference speed.

    The host's per-CPU speed shifts by 20-60% for seconds to minutes, and a
    shift can cover a whole run or start in the middle of one.  The reference
    kernel runs before every task, so each round's times are multiplied by
    REFERENCE_S / (the round's best reference time), and the set-up times by
    the same factor from the references taken beside the set-up probes.

    A call repeated with identical inputs in every round has the same key
    in every round, and its best scaled time estimates its undisturbed time,
    which is what a code change moves.  A call given fresh inputs every round
    has a distinct key and is timed once, so no best time filters a shift
    inside the round; it is scaled by the better of the two reference times
    that bracket it instead.
    """
    import numpy as np
    calls, tasks, cli = {}, {}, {}
    for r in rounds:
        f = REFERENCE_S / min(r.reference)
        for key, (sec, n, threads, at) in r.calls.items():
            g = f if at is None else REFERENCE_S / min(r.reference[at:at + 2])
            calls.setdefault(key, ([], n, threads))[0].append(g * sec)
        for key, sec in r.task_s.items():
            tasks.setdefault(key, []).append(f * sec)
        for key, sec in r.cli_s.items():
            cli.setdefault(key, []).append(f * sec)
    calls = [(min(secs), n, t) for secs, n, t in calls.values()]

    def rate(select):
        chosen = [(sec, n) for sec, n, t in calls if select(t)]
        return sum(n for _, n in chosen) / sum(sec for sec, _ in chosen)

    ms = [1e3 * sec / n for sec, n, _ in calls]
    return {
        "setup_s": REFERENCE_S / min(setup_refs) * statistics.median(setup),
        "wall_s": sum(min(v) for v in tasks.values()),
        # path builds run in the calling thread (threads None) and count for both
        "terminals_per_s": rate(lambda t: t is None or t > 1),
        "terminals_per_s_1t": rate(lambda t: t is None or t == 1),
        "paths_per_s": rate(lambda t: True),
        "path_ms_p50": float(np.percentile(ms, 50)),
        "path_ms_p90": float(np.percentile(ms, 90)),
        "cli_s": sum(min(v) for v in cli.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _per_layer(plain, traced, tracers) -> dict:
    keys = set()
    for r in traced:
        keys |= set(r.cli)
    per_round = []
    for r, t in zip(traced, tracers):
        m = t.metrics()
        m.update({k: r.cli[k] for k in keys})
        m["bench.unattributed_s"] = r.wall - m["trace.self_s"]
        per_round.append(m)
    out = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
    out["bench.reference_ms"] = 1e3 * min(x for r in plain + traced for x in r.reference)
    out["trace.wall_s"] = statistics.median(r.wall for r in traced)
    # traced round k and plain round k ran the same inputs
    out["trace.overhead_s"] = statistics.median(t.wall - p.wall
                                                for p, t in zip(plain, traced))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        _fail("no BENCHMARK.json; run from the repository root")
    _import_layerlab(root)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]()
    if args.setup_probe:
        wl.build()
        print("ready", flush=True)
        return 0

    with open(spec_path) as fh:
        spec = json.load(fh)
    from workloads import reference_kernel
    setup_refs, setup = [], []
    for _ in range(SETUP_SAMPLES):
        setup_refs.append(reference_kernel())
        setup.append(_setup_time(args))

    from tracer import Tracer
    nproc = len(os.sched_getaffinity(0))
    threads = 1 if args.trace else nproc
    workdir = os.path.join(HERE, ".work")
    os.makedirs(workdir, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=workdir)

    # rounds until the budget is spent; the traced run alternates plain and
    # traced rounds and needs one of each, the untraced run needs MIN_ROUNDS
    plain, traced, tracers = [], [], []
    start = perf_counter()
    try:
        while True:
            trace_next = bool(args.trace) and len(plain) > len(traced)
            tracer = Tracer() if trace_next else None
            # a traced round reuses the fresh inputs of the plain round before it
            index = len(traced) if trace_next else len(plain)
            r = _run_round(wl, args.seed, threads, workdir, index, tracer)
            (traced if trace_next else plain).append(r)
            if tracer is not None:
                tracers.append(tracer)
            if args.trace and not traced:
                continue
            if not args.trace and len(plain) < MIN_ROUNDS:
                continue
            nxt = traced if (args.trace and len(plain) > len(traced)) else plain
            if (perf_counter() - start
                    + statistics.median(x.wall for x in nxt) > args.seconds):
                break
    finally:
        os.rmdir(workdir)

    rounds = plain + traced
    last = rounds[-1]
    for r in rounds[1:]:
        last.check("determinism:round-outputs", r.digest.digest() == rounds[0].digest.digest(),
                   "a round with the same inputs gave different outputs")
    for t, r in zip(tracers, traced):
        m = t.metrics()
        for metric, most in wl.zero_predictions:
            r.check(f"prediction:{metric}<={most}", m[metric] <= most,
                    f"{metric} = {m[metric]}")

    if args.trace:
        values = _per_layer(plain, traced, tracers)
        names = spec["per_layer"]
    else:
        values = _end_to_end(rounds, setup, setup_refs)
        names = spec["end_to_end"]
    metrics = {}
    for entry in names:
        if entry["name"] in values:
            metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
        elif entry["name"].startswith("cli."):
            metrics[entry["name"]] = {"value": 0, "unit": entry["unit"]}
        else:
            _fail(f"metric {entry['name']} was not measured")

    attempted = sum(r.attempted for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    known = sorted({k for r in rounds for k in r.known_defects})
    ungated = {k: statistics.median(r.ungated[k] for r in rounds if k in r.ungated)
               for k in sorted({k for r in rounds for k in r.ungated})}
    result = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "rounds": {"plain": len(plain), "traced": len(traced)},
        "machine": _machine(root, args.seed, threads, nproc),
        "setup_samples_s": setup,
        "reference_best_s": {"setup": min(setup_refs),
                             "rounds": [min(r.reference) for r in rounds]},
        "round_walls_s": [r.wall for r in rounds],
        "calls_timed": sum(len(r.calls) for r in rounds),
        "metrics": metrics,
        "attempted": attempted, "failures": failures,
        "known_defects": known, "ungated": ungated,
    }
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracers:
        result["span_stats"] = {k: list(v) for k, v in sorted(tracers[-1].stats.items())}
    with open(stem + ".json", "w") as fh:
        json.dump(result, fh, indent=2)
    if tracers:
        with open(stem + ".spans.json", "w") as fh:
            json.dump([t.spans for t in tracers], fh)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} threads={threads} "
          f"rounds={len(plain)}+{len(traced)} calls_timed={result['calls_timed']}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"ops_failed_ratio {len(failures)}/{attempted}")
    for f in failures:
        print(f"FAILED {f}")
    for k in known:
        print(f"KNOWN DEFECT (not counted as failed) {k}")
    for k, v in ungated.items():
        print(f"ungated {k} = {v:.4f}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
