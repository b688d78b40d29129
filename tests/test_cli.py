"""End-to-end CLI behavior: determinism, manifest round trips, exit codes."""

import argparse
import contextlib
import io
import json
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from layerlab import (SphericalMeasure, draw_shot_noise, layered_path_canonical,
                      layered_path_rejection, make_grid, substream)
from layerlab.cli import (_DEFAULTS, EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_IO,
                          EXIT_OK, PROCESSES, build_parser, entrypoint, write_csv)


def run(*argv):
    return entrypoint(list(argv))


def test_simulate_deterministic_csv(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ["simulate", "--process", "layered", "--alpha", "1.3",
            "--beta", "1.9", "--grid-n", "300", "--gamma-cap", "500",
            "--seed", "4"]
    assert run(*args, "--out", str(out1)) == EXIT_OK
    assert run(*args, "--out", str(out2)) == EXIT_OK
    c1 = (tmp_path / "a.csv").read_bytes()
    c2 = (tmp_path / "b.csv").read_bytes()
    assert c1 == c2
    lines = c1.decode().strip().split("\n")
    assert lines[0] == "t,x1"
    assert len(lines) == 302          # header + 301 grid points
    assert lines[1].startswith("0,")


ROUND_TRIP_RUNS = {
    "stable": ["--process", "stable", "--alpha", "1.3"],
    "layered": ["--process", "layered", "--alpha", "1.3", "--beta", "1.9"],
    "rejection": ["--process", "layered-rejection", "--alpha", "1.3",
                  "--beta", "1.9", "--base", "outer"],
    "mixed": ["--process", "mixed", "--mix", "0.8:0.5,1.5:0.5"],
    "coupled": ["--process", "layered", "--alpha", "1.3", "--beta", "1.9",
                "--coupled", "stable:1.3"],
    "json": ["--process", "layered", "--alpha", "1.3", "--beta", "1.9",
             "--format", "json"],
}


def _round_trip(tmp, flags):
    """Run simulate from flags, from a config file of the same keys and from
    a replay of the flag run's manifest; check that all three routes exit
    alike and write the same bytes.  Returns the flag run's exit code,
    manifest (None for a rejected run) and data files."""

    def simulate(route, *argv):
        out = tmp / route
        out.mkdir()
        code = run("simulate", *argv, "--out", str(out / "run"))
        written = {p.name: p.read_bytes() for p in out.iterdir()}
        if code != EXIT_OK:
            assert written == {}
            return code, None, written
        manifest = json.loads(written.pop("run.manifest.json"))
        assert sorted(written) == sorted(f.split("/")[-1] for f in manifest["files"])
        return code, manifest, written

    def config_file(route, items):
        path = tmp / f"{route}.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in items))
        return str(path)

    pairs = [(flags[i].lstrip("-"), flags[i + 1]) for i in range(0, len(flags), 2)]
    code, manifest, first = simulate("flags", *flags)
    if manifest is not None:
        replay = [(k, v) for k, v in manifest["config"].items() if v is not None]
        if manifest["coupled"]:
            replay.append(("coupled", manifest["coupled"]))
    else:
        # no manifest for a rejected run: replay the settings one would list,
        # the defaults together with the keys given
        replay = list({**{k: v for k, v in _DEFAULTS.items() if v is not None},
                       **dict(pairs)}.items())
    for route, items in (("file", pairs), ("replay", replay)):
        assert simulate(route, "--config", config_file(route, items))[::2] == (code, first)
    return code, manifest, first


@pytest.mark.parametrize("name", list(ROUND_TRIP_RUNS))
def test_simulate_manifest_round_trip(name, tmp_path):
    # the fixed examples of the property below
    code, manifest, first = _round_trip(
        tmp_path, ROUND_TRIP_RUNS[name] + ["--grid-n", "50", "--gamma-cap", "300",
                                           "--seed", "11"])
    assert code == EXIT_OK
    assert len(first) == (2 if name == "coupled" else 1)
    assert manifest["truncation_bound"] > 0.0


@st.composite
def _simulate_keys(draw):
    # a process with its required keys, then any of the optional keys
    process = draw(st.sampled_from(PROCESSES))
    keys = {"process": process}
    if process == "mixed":
        keys["mix"] = draw(st.sampled_from(["0.8:0.5,1.5:0.5", "1.3:1"]))
    else:
        keys["alpha"] = draw(st.sampled_from(["0.7", "1", "1.3", "1.9"]))
        if process != "stable":
            keys["beta"] = draw(st.sampled_from(["0.8", "1.3", "1.9", "2.5"]))
    keys["sigma"] = draw(st.sampled_from(["discrete:[(1):1,(-1):1]",
                                          "discrete:[(1):2,(-1):1]", "uniform:2:1"]))
    for key, values in (("format", ["csv", "json"]), ("base", ["inner", "outer"]),
                        ("coupled", ["stable:1.3", "stable:0.8,stable:1.5"]),
                        ("T", ["0.5", "1", "2"]), ("grid_n", ["1", "7", "30"]),
                        ("gamma_cap", ["20", "100", "300"])):
        if draw(st.booleans()):
            keys[key] = draw(st.sampled_from(values))
    keys["seed"] = str(draw(st.integers(0, 2 ** 31)))
    if "gamma_cap" not in keys:        # keep every example small
        keys["gamma_cap"] = "300"
    return keys


@settings(max_examples=25, deadline=None)
@given(keys=_simulate_keys())
def test_simulate_manifest_round_trip_property(keys, tmp_path_factory):
    # any simulate keys: the three routes agree, and exit 2 exactly on the
    # combinations the CLI refuses
    flags = [a for k, v in keys.items() for a in (f"--{k.replace('_', '-')}", v)]
    code, _, _ = _round_trip(tmp_path_factory.mktemp("rt"), flags)
    rejected = keys["process"] in ("layered-rejection", "mixed") and (
        keys["sigma"] == "discrete:[(1):2,(-1):1]"      # both need a symmetric measure
        or keys["process"] == "layered-rejection" and (
            float(keys["alpha"]) >= float(keys["beta"])
            or keys.get("base") == "outer" and float(keys["beta"]) >= 2.0))
    assert code == (EXIT_CONFIG if rejected else EXIT_OK), keys


@pytest.mark.parametrize("argv,bound", [
    (("--process", "mixed", "--mix", "0.8:0.5,1.5:0.5"), (1.5 * 1e4 / 2) ** (-1 / 1.5)),
    (("--process", "layered-rejection", "--alpha", "1.3", "--beta", "1.9",
      "--base", "outer"), (1.9 * 1e4 / 2) ** (-1 / 1.9)),
    (("--process", "layered-rejection", "--alpha", "1.3", "--beta", "1.9",
      "--base", "inner"), (1.3 * 1e4 / 2) ** (-1 / 1.3)),
])
def test_simulate_manifest_truncation_bound(argv, bound, tmp_path):
    # the largest magnitude a discarded term can have: the base series' for
    # rejection, the largest over the atoms for a mix
    out = tmp_path / "b"
    assert run("simulate", *argv, "--gamma-cap", "1e4", "--grid-n", "10",
               "--out", str(out)) == EXIT_OK
    manifest = json.loads((tmp_path / "b.manifest.json").read_text())
    assert manifest["truncation_bound"] == pytest.approx(bound, rel=1e-12)


def test_simulate_mixed_needs_only_mix(tmp_path):
    # --alpha is not a setting of the mixed process: accepted and ignored
    args = ["simulate", "--process", "mixed", "--mix", "0.8:0.5,1.5:0.5",
            "--grid-n", "20", "--gamma-cap", "200", "--seed", "3"]
    assert run(*args, "--out", str(tmp_path / "a")) == EXIT_OK
    assert run(*args, "--alpha", "1.0", "--out", str(tmp_path / "b")) == EXIT_OK
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_simulate_over_budget_cap_rejected(tmp_path, capsys):
    # rejected before any draw, so nothing is allocated or written
    assert run("simulate", "--process", "stable", "--alpha", "1.3",
               "--gamma-cap", "1e12", "--out", str(tmp_path / "big")) == EXIT_CONFIG
    assert "budget" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("tail", "--process", "stable", "--alpha", "1.5"),
    ("rn", "--alpha", "1.3", "--beta", "1.9"),
    ("limit-check", "--mode", "short", "--h", "1e-3", "--alpha", "1.3", "--beta", "1.9"),
], ids=["tail", "rn", "limit-check"])
def test_over_budget_paths_rejected(argv, tmp_path, capsys):
    # run_paths refuses the size before allocating its result or drawing a path
    assert run(*argv, "--paths", "1000000000", "--out", str(tmp_path / "r.json")) == EXIT_CONFIG
    assert "run-size budget" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,unreached", [
    (("simulate", "--grid-n", "2000000000"), (np, "linspace")),
    (("rn", "--grid-n", "2000000000"), (np, "linspace")),
    (("simulate", "--sigma", "uniform:100000000:2", "--gamma-cap", "10"),
     (np.random, "default_rng")),
    (("rn", "--sigma", "uniform:100000000:2", "--gamma-cap", "10"),
     (np.random, "default_rng")),
    (("limit-check", "--sigma", "uniform:100000:2", "--mode", "short", "--h", "1"),
     (np, "eye")),
    (("limit-check", "--sigma", "uniform:4:2", "--mode", "short", "--h", "1e-3",
      "--paths", "1000"), (np, "exp")),
], ids=["simulate-grid", "rn-grid", "simulate-dimension", "rn-dimension",
        "limit-check-dimension", "limit-check-phases"])
def test_size_budgets_exit_config(argv, unreached, monkeypatch, tmp_path, capsys):
    # grid steps, arrivals x dimension, the d x d second moment and the
    # samples x 21^d ECF phases are each refused from their size, before the
    # allocation the patch would catch
    def fail(*args, **kwargs):
        raise AssertionError(f"{unreached[1]} reached before the budget check")

    monkeypatch.setattr(*unreached, fail)
    assert run(argv[0], "--alpha", "1.3", "--beta", "1.9", "--paths", "10", *argv[1:],
               "--out", str(tmp_path / "r.json")) == EXIT_CONFIG
    assert "budget" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_simulate_coupled_companions(tmp_path):
    out = tmp_path / "cp"
    args = ["simulate", "--process", "layered", "--alpha", "1.3",
            "--beta", "1.9", "--grid-n", "20", "--gamma-cap", "200",
            "--coupled", "stable:1.3", "--out", str(out)]
    assert run(*args) == EXIT_OK
    manifest = json.loads((tmp_path / "cp.manifest.json").read_text())
    assert str(out) + "_layered.csv" in manifest["files"]
    assert str(out) + "_stable_a1.3.csv" in manifest["files"]
    for name in manifest["files"]:
        assert (tmp_path / name.split("/")[-1]).exists()


def test_simulate_mixed(tmp_path):
    out = tmp_path / "mixed"
    assert run("simulate", "--process", "mixed", "--alpha", "1.0",
               "--mix", "0.8:0.5,1.5:0.5", "--grid-n", "20", "--paths", "2",
               "--gamma-cap", "200", "--seed", "3", "--out", str(out)) == EXIT_OK
    manifest = json.loads((tmp_path / "mixed.manifest.json").read_text())
    assert manifest["config"]["mix"] == "0.8:0.5,1.5:0.5"
    assert manifest["files"] == [str(out) + "_p0000.csv", str(out) + "_p0001.csv"]
    for name in manifest["files"]:
        assert len(np.loadtxt(name, delimiter=",", skiprows=1)) == 21
    assert run("simulate", "--process", "mixed", "--alpha", "1.0",
               "--out", str(tmp_path / "nomix")) == EXIT_CONFIG


def test_simulate_outer_base(tmp_path):
    out = tmp_path / "outer"
    assert run("simulate", "--process", "layered-rejection", "--alpha", "1.3",
               "--beta", "1.9", "--base", "outer", "--grid-n", "40",
               "--gamma-cap", "300", "--seed", "8", "--out", str(out)) == EXIT_OK
    got = np.loadtxt(tmp_path / "outer.csv", delimiter=",", skiprows=1)
    sigma = SphericalMeasure.symmetric_pair(2.0)
    draw = draw_shot_noise(substream(8, 0), 1.0, sigma, 300.0, with_rejects=True)
    ref = layered_path_rejection(1.3, 1.9, sigma, draw, "outer", make_grid(1.0, 40))
    np.testing.assert_array_equal(got[:, 1:], ref.values)


def test_simulate_zero_paths_rejected(tmp_path):
    assert run("simulate", "--process", "stable", "--alpha", "1.3",
               "--paths", "0", "--out", str(tmp_path / "none")) == EXIT_CONFIG
    assert list(tmp_path.iterdir()) == []


def test_simulate_json_format(tmp_path):
    out = tmp_path / "js"
    assert run("simulate", "--process", "layered", "--alpha", "1.3",
               "--beta", "1.9", "--format", "json", "--paths", "2",
               "--grid-n", "30", "--gamma-cap", "300", "--seed", "6",
               "--out", str(out)) == EXIT_OK
    manifest = json.loads((tmp_path / "js.manifest.json").read_text())
    assert manifest["files"] == [str(out) + "_p0000.json", str(out) + "_p0001.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "js.manifest.json", "js_p0000.json", "js_p0001.json"]
    first = json.loads((tmp_path / "js_p0000.json").read_text())
    sigma = SphericalMeasure.symmetric_pair(2.0)
    grid = make_grid(1.0, 30)
    ref = layered_path_canonical(1.3, 1.9, sigma,
                                 draw_shot_noise(substream(6, 0), 1.0, sigma, 300.0),
                                 grid)
    assert first["grid"] == grid.tolist()
    assert first["values"] == ref.values.tolist()
    cfg = tmp_path / "bad_format.cfg"
    cfg.write_text("alpha = 1.3\nbeta = 1.9\nformat = xml\n")
    assert run("simulate", "--config", str(cfg),
               "--out", str(tmp_path / "xml")) == EXIT_CONFIG
    assert not list(tmp_path.glob("xml.*"))


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("alpha = 1.3\nbeta = 1.9\nbogus_key = 7\n")
    assert run("simulate", "--config", str(cfg)) == EXIT_CONFIG


@pytest.mark.parametrize("key, bad, good, choices", [("base", "sideways", "outer", "inner, outer"),
                                                      ("format", "xml", "json", "csv, json")])
def test_config_choices_checked_as_flags(key, bad, good, choices, tmp_path, capsys):
    # a config-file value outside a setting's choices is refused, as its flag
    # is, by name and before any file is written; a listed one runs
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "out"
    out.mkdir()
    settings = "process = stable\nalpha = 1.5\ngrid_n = 4\ngamma_cap = 20\n"
    cfg.write_text(settings + f"{key} = {bad}\n")
    assert run("simulate", "--config", str(cfg), "--out", str(out / "run")) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {key} must be one of {choices}, got {bad!r}\n"
    assert list(out.iterdir()) == []
    with pytest.raises(SystemExit), contextlib.redirect_stderr(io.StringIO()):
        run("simulate", f"--{key}", bad)
    cfg.write_text(settings + f"{key} = {good}\n")
    assert run("simulate", "--config", str(cfg), "--out", str(out / "run")) == EXIT_OK


def test_config_comments_and_dashes(tmp_path):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("# a comment\nalpha = 1.3\nbeta = 1.9\n"
                   "grid-n = 10   # dashes normalize to underscores\n"
                   "gamma-cap = 100\n")
    out = tmp_path / "cfgd"
    assert run("simulate", "--config", str(cfg), "--out", str(out)) == EXIT_OK
    lines = (tmp_path / "cfgd.csv").read_text().strip().split("\n")
    assert len(lines) == 12


def test_write_csv_exact_text(tmp_path):
    # 17 significant digits, shortest exponent form, signed zero kept
    grid = np.array([0.0, 0.1, 1.0 / 3.0])
    values = np.array([[1e-300, -0.0], [5e-324, 0.1], [1.0 / 3.0, -2.5]])
    write_csv(tmp_path / "x.csv", grid, values)
    assert (tmp_path / "x.csv").read_bytes() == (
        b"t,x1,x2\n"
        b"0,1e-300,-0\n"
        b"0.10000000000000001,4.9406564584124654e-324,0.10000000000000001\n"
        b"0.33333333333333331,0.33333333333333331,-2.5\n")


def test_simulate_missing_alpha():
    assert run("simulate", "--process", "stable") == EXIT_CONFIG


@pytest.mark.parametrize("argv", [
    ("tail", "--process", "layered", "--alpha", "1.3", "--paths", "1000"),
    ("rn", "--paths", "5"),
    ("rn", "--alpha", "1.3", "--paths", "5"),
    ("limit-check", "--mode", "short", "--h", "1e-3", "--alpha", "0.7"),
    ("simulate", "--process", "layered", "--alpha", "1.3"),
])
def test_missing_required_keys_exit_config(argv, capsys):
    # a missing alpha/beta is a configuration error with a message, not a
    # TypeError from float(None)
    assert run(*argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and "requires" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("simulate", "--process", "layered", "--alpha", "1.3", "--beta", "nan"),
    ("simulate", "--process", "layered", "--alpha", "1.3", "--beta", "inf"),
    ("simulate", "--process", "layered-rejection", "--alpha", "1.3", "--beta", "nan"),
    ("rn", "--alpha", "1.3", "--beta", "nan", "--paths", "5"),
])
def test_non_finite_beta_exit_config(argv, tmp_path, capsys):
    # a NaN index fails every comparison, so the checks are written to reject it
    assert run(*argv, "--grid-n", "10", "--gamma-cap", "100",
               "--out", str(tmp_path / "run")) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and "beta" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["abc", "1.5", "0", "-1"])
def test_bad_thread_count_exits_2_naming_the_variable(value, tmp_path):
    err = io.StringIO()
    with mock.patch.dict(os.environ, {"LAYERLAB_THREADS": value}), \
            contextlib.redirect_stderr(err):
        code = run("tail", "--process", "layered", "--alpha", "1.3", "--beta", "1.9",
                   "--gamma-cap", "100", "--paths", "1000",
                   "--out", str(tmp_path / "t.json"))
    assert code == EXIT_CONFIG
    assert "LAYERLAB_THREADS" in err.getvalue() and repr(value) in err.getvalue()


# the smallest valid run of each command; the property below breaks one key
_SMALL_RUNS = {
    "simulate": {"process": "layered", "alpha": "1.3", "beta": "1.9", "T": "1",
                 "gamma_cap": "100", "grid_n": "10", "paths": "1"},
    "rn": {"alpha": "1.3", "beta": "1.9", "T": "1", "gamma_cap": "100",
           "grid_n": "10", "paths": "2"},
    "limit-check": {"mode": "short", "h": "1e-3", "alpha": "1.3", "beta": "1.9",
                    "paths": "1", "threshold": "0.07"},
    "tail": {"process": "layered", "alpha": "1.3", "beta": "1.9",
             "gamma_cap": "100", "paths": "1000"},
}
_INVALID_NUMBERS = (st.sampled_from(["nan", "inf", "-inf", "0", "-0", "abc", "1e", ""])
                    | st.floats(-1e6, -1e-6).map(repr)
                    | st.integers(-10 ** 6, -1).map(str))


# spectral measures with an infinite or NaN mass, weight or atom component
_NON_FINITE_SIGMAS = st.sampled_from([
    "uniform:2:inf", "uniform:2:nan", "uniform:3:-inf", "discrete:[(1):inf,(-1):1]",
    "discrete:[(1):nan,(-1):1]", "discrete:[(1,nan):1,(0,1):1]",
    "discrete:[(inf,1):1,(0,1):1]"])
_INVALID_KEY_VALUES = st.sampled_from(
    ["alpha", "beta", "T", "gamma_cap", "grid_n", "paths", "h", "threshold", "sigma"]
).flatmap(lambda key: st.tuples(
    st.just(key), _NON_FINITE_SIGMAS if key == "sigma" else _INVALID_NUMBERS))


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(list(_SMALL_RUNS)), key_value=_INVALID_KEY_VALUES)
@example(command="simulate", key_value=("sigma", "uniform:2:inf"))
@example(command="limit-check", key_value=("sigma", "discrete:[(1):inf,(-1):1]"))
@example(command="rn", key_value=("sigma", "uniform:2:inf"))
@example(command="tail", key_value=("sigma", "discrete:[(1,nan):1,(0,1):1]"))
def test_invalid_number_exit_config(command, key_value, tmp_path_factory):
    # every numeric key set to a value invalid for it (a key the command does
    # not take is an unknown flag), and every non-finite spectral measure, ends
    # in exit 2 with a message, never in 0, 1 or a traceback, and writes nothing
    key, value = key_value
    flags = dict(_SMALL_RUNS[command], **{key: value})
    argv = [command] + [f"--{k.replace('_', '-')}={v}" for k, v in flags.items()]
    out_dir = tmp_path_factory.mktemp("run")
    argv.append(f"--out={out_dir / 'run'}")
    err = io.StringIO()
    with mock.patch.dict(os.environ, {"LAYERLAB_THREADS": "1"}), \
            contextlib.redirect_stderr(err):
        try:
            code = entrypoint(argv)
        except SystemExit as exc:     # argparse rejects a value it cannot parse
            code = exc.code
    assert code == EXIT_CONFIG, (argv, err.getvalue())
    assert "error:" in err.getvalue() and "Traceback" not in err.getvalue()
    assert list(out_dir.iterdir()) == []


# the settings each command reads from its config; the flags outside these
# (mode, h, threshold, functional, k, out) come from the command line only
_CONFIG_KEYS = {
    "simulate": {"process", "alpha", "beta", "sigma", "T", "grid_n", "paths", "seed",
                 "gamma_cap", "format", "base", "mix", "coupled"},
    "rn": {"alpha", "beta", "sigma", "T", "grid_n", "paths", "seed", "gamma_cap"},
    "limit-check": {"alpha", "beta", "sigma", "paths", "seed"},
    "tail": {"process", "alpha", "beta", "sigma", "paths", "seed", "gamma_cap"},
}
_ANY_KEY = {"mode": "long", "h": "3", "threshold": "0.5", "functional": "one",
            "k": "10", "out": "elsewhere", "T": "nan", "grid_n": "0", "format": "json",
            "base": "outer", "mix": "0.8:1", "coupled": "stable:1.3",
            "process": "stable", "alpha": "1.3", "beta": "1.9", "sigma": "uniform:2:1",
            "paths": "3", "seed": "1", "gamma_cap": "50"}


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_config_key_the_command_does_not_read_exit_config(data, tmp_path_factory):
    # a config key the command would ignore is an error, not a silent no-op
    command = data.draw(st.sampled_from(sorted(_CONFIG_KEYS)))
    key = data.draw(st.sampled_from(sorted(set(_ANY_KEY) - _CONFIG_KEYS[command])))
    tmp = tmp_path_factory.mktemp("cfg")
    cfg = tmp / "run.cfg"
    cfg.write_text(f"{key} = {_ANY_KEY[key]}\n")
    argv = ([command, f"--config={cfg}"]
            + [f"--{k.replace('_', '-')}={v}" for k, v in _SMALL_RUNS[command].items()]
            + [f"--out={tmp / 'run'}"])
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = entrypoint(argv)
    assert code == EXIT_CONFIG, (argv, key)
    assert err.getvalue().startswith("error:") and key in err.getvalue()
    assert [p.name for p in tmp.iterdir()] == ["run.cfg"]


def test_config_keys_the_command_reads_are_accepted(tmp_path):
    # every key of _CONFIG_KEYS[command] is read: the valid ones run to exit 0
    cfg = tmp_path / "tail.cfg"
    cfg.write_text("process = stable\nalpha = 1.5\nsigma = discrete:[(1):1,(-1):1]\n"
                   "paths = 1000\nseed = 3\ngamma_cap = 50\n")
    assert run("tail", "--config", str(cfg), "--out", str(tmp_path / "t.json")) == EXIT_OK
    assert json.loads((tmp_path / "t.json").read_text())["nominal_index"] == 1.5


def test_tail_process_from_config_checked(tmp_path):
    # the flag is limited to stable/layered; a config file must be too
    cfg = tmp_path / "tail.cfg"
    cfg.write_text("process = mixed\nalpha = 1.3\nbeta = 1.9\n")
    assert run("tail", "--config", str(cfg), "--paths", "1000") == EXIT_CONFIG


# every long flag of each command and the --process choices, as the parser
# gives them: a flag or a process added, dropped or renamed fails here
_FLAGS = {
    "simulate": {"--alpha", "--base", "--beta", "--config", "--coupled", "--format",
                 "--gamma-cap", "--grid-n", "--help", "--mix", "--out", "--paths",
                 "--process", "--seed", "--sigma", "--T"},
    "limit-check": {"--alpha", "--beta", "--config", "--h", "--help", "--mode", "--out",
                    "--paths", "--seed", "--sigma", "--threshold"},
    "rn": {"--alpha", "--beta", "--config", "--functional", "--gamma-cap", "--grid-n",
           "--help", "--out", "--paths", "--seed", "--sigma", "--T"},
    "tail": {"--alpha", "--beta", "--config", "--gamma-cap", "--help", "--k", "--out",
             "--paths", "--process", "--seed", "--sigma"},
    "selftest": {"--help"},
}
_PROCESS_CHOICES = {"simulate": {"stable", "layered", "layered-rejection", "mixed"},
                    "tail": {"stable", "layered"}}


def test_parser_surface():
    (commands,) = [a.choices for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    assert set(commands) == set(_FLAGS)
    for name, parser in commands.items():
        flags = {o: a for a in parser._actions for o in a.option_strings if o.startswith("--")}
        assert set(flags) == _FLAGS[name], name
        process = flags.get("--process")
        assert (set(process.choices) if process else None) == _PROCESS_CHOICES.get(name), name


def test_numerical_error_exit_config(monkeypatch, capsys, tmp_path):
    # a quadrature that does not converge ends in exit 2 with a message
    import layerlab.series as series
    from layerlab import QuadratureError

    def diverge(*args, **kwargs):
        raise QuadratureError("centering quadrature did not converge")

    monkeypatch.setattr(series, "canonical_magnitudes", diverge)
    code = run("simulate", "--process", "layered", "--alpha", "1.3",
               "--beta", "1.9", "--grid-n", "10", "--gamma-cap", "100",
               "--out", str(tmp_path / "run"))
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "numerical error: centering quadrature did not converge\n"
    monkeypatch.undo()
    # the manifest's truncation bound overflows scalar ** at a tiny index
    for process in (("stable", "--alpha", "1e-300"),
                    ("layered", "--alpha", "1.3", "--beta", "1e-300")):
        with np.errstate(over="ignore", invalid="ignore"):
            code = run("simulate", "--process", *process, "--gamma-cap", "10",
                       "--out", str(tmp_path / process[0]))
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("numerical error: ")


@pytest.mark.parametrize("process", [("stable", "--alpha", "1e-300"),
                                     ("layered", "--alpha", "1.3", "--beta", "1e-300")],
                         ids=["stable", "layered"])
def test_overflowing_truncation_bound_writes_nothing(process, tmp_path):
    # the run is refused on its manifest's bound before any path file is opened
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run("simulate", "--process", *process, "--gamma-cap", "10",
                   "--out", str(tmp_path / "run"))
    assert code == EXIT_CONFIG
    assert err.getvalue() == ("numerical error: the truncation bound, the largest jump that "
                              "gamma_cap = 10 discards, overflows a float "
                              "(Numerical result out of range)\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("rn", "--alpha", "1.3", "--beta", "1.9"),
    ("tail", "--process", "stable", "--alpha", "1.3"),
])
def test_rn_and_tail_require_paths(argv, tmp_path, capsys):
    # no shared default below the command's minimum: a missing paths is named
    assert run(*argv, "--out", str(tmp_path / "r.json")) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: the {argv[0]} command requires paths\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k.lstrip('-')} = {v}\n" for k, v in zip(argv[1::2], argv[2::2])))
    assert run(argv[0], "--config", str(cfg)) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: the {argv[0]} command requires paths\n"
    assert list(tmp_path.iterdir()) == [cfg]


def test_rn_equal_indices_rejected():
    assert run("rn", "--alpha", "1.5", "--beta", "1.5") == EXIT_CONFIG


@pytest.mark.parametrize("spec", ["one:3", "one:"])
def test_rn_constant_functional_takes_no_level(spec, tmp_path, capsys):
    # a level after `one` would be ignored, so it is refused
    assert run("rn", "--alpha", "1.3", "--beta", "1.9", "--paths", "4", "--grid-n", "4",
               "--gamma-cap", "50", "--functional", spec,
               "--out", str(tmp_path / "rn.json")) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(spec) in err
    assert list(tmp_path.iterdir()) == []


def test_rn_report(tmp_path):
    out = tmp_path / "rn.json"
    code = run("rn", "--alpha", "1.3", "--beta", "1.9", "--paths", "600",
               "--grid-n", "50", "--gamma-cap", "2000", "--seed", "2",
               "--functional", "terminal-exceeds:2", "--out", str(out))
    report = json.loads(out.read_text())
    assert {"mean_weight", "reweighted_estimate", "direct_estimate",
            "combined_se", "clip_count", "normalization_ok",
            "agreement_ok"} <= set(report)
    assert code == (EXIT_OK if report["normalization_ok"]
                    and report["agreement_ok"] else EXIT_CHECK_FAILED)
    assert report["normalization_ok"]


def test_limit_check_short(tmp_path):
    out = tmp_path / "limit.json"
    code = run("limit-check", "--mode", "short", "--h", "1e-3",
               "--alpha", "0.7", "--beta", "1.6", "--paths", "1500",
               "--seed", "1", "--threshold", "0.1", "--out", str(out))
    report = json.loads(out.read_text())
    assert report["pass"] and code == EXIT_OK
    assert report["index"] == 0.7


def test_limit_check_skewed_long_horizon(tmp_path):
    # an asymmetric measure at h = 1e4 runs on the compensated sampler (the
    # series at cap 1e4 / min(h, 1) was over the arrival budget and exited 2)
    out = tmp_path / "limit.json"
    code = run("limit-check", "--mode", "long", "--h", "1e4", "--alpha", "1.3",
               "--beta", "1.9", "--sigma", "discrete:[(1):2,(-1):1]", "--paths", "200",
               "--seed", "4", "--out", str(out))
    report = json.loads(out.read_text())
    assert code in (EXIT_OK, EXIT_CHECK_FAILED)
    assert code == (EXIT_OK if report["pass"] else EXIT_CHECK_FAILED)
    assert np.isfinite(report["distance"])


def test_limit_check_takes_no_gamma_cap(tmp_path, capsys):
    # limit-check runs no truncated series, so --gamma-cap is an unknown flag
    out = tmp_path / "limit.json"
    with pytest.raises(SystemExit) as exc:
        run("limit-check", "--mode", "short", "--h", "1e-3", "--alpha", "1.3",
            "--beta", "1.9", "--paths", "10", "--gamma-cap", "100", "--out", str(out))
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --gamma-cap" in capsys.readouterr().err
    assert not out.exists()


def test_limit_check_zero_paths_rejected(tmp_path):
    out = tmp_path / "limit.json"
    assert run("limit-check", "--mode", "short", "--h", "1e-3",
               "--alpha", "0.7", "--beta", "1.6", "--paths", "0",
               "--out", str(out)) == EXIT_CONFIG
    assert not out.exists()


def test_limit_check_overflowing_samples_rejected(tmp_path, capsys):
    # at h = 1e300 the rescaled samples overflow: exit 2, not a NaN distance
    out = tmp_path / "limit.json"
    assert run("limit-check", "--mode", "long", "--h", "1e300", "--alpha", "1.3",
               "--beta", "1.9", "--paths", "10", "--out", str(out)) == EXIT_CONFIG
    assert "finite samples" in capsys.readouterr().err
    assert not out.exists()


def test_rejection_inner_index_two_or_more_rejected(tmp_path, capsys):
    out = tmp_path / "rj"
    assert run("simulate", "--process", "layered-rejection", "--alpha", "2.5",
               "--beta", "3", "--grid-n", "5", "--gamma-cap", "50",
               "--out", str(out)) == EXIT_CONFIG
    assert "inner index alpha must lie in (0,2)" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_rn_one_path_rejected(tmp_path):
    out = tmp_path / "rn.json"
    assert run("rn", "--alpha", "1.3", "--beta", "1.9", "--paths", "1",
               "--grid-n", "10", "--gamma-cap", "100", "--out", str(out)) == EXIT_CONFIG
    assert not out.exists()


def test_limit_check_beta_two_rejected():
    assert run("limit-check", "--mode", "long", "--h", "100",
               "--alpha", "1.3", "--beta", "2.0") == EXIT_CONFIG


def test_tail_validation():
    assert run("tail", "--process", "stable", "--alpha", "1.3",
               "--paths", "100") == EXIT_CONFIG
    assert run("tail", "--process", "stable", "--alpha", "1.3",
               "--paths", "1000", "--k", "1000",
               "--gamma-cap", "100") == EXIT_CONFIG


@pytest.mark.parametrize("k", ["0", "-3", "1000", "5000"])
def test_tail_k_checked_before_sampling(k, monkeypatch, tmp_path):
    # 0 < k < paths is checked before any path is drawn
    import layerlab.mc as mc

    def no_sampling(*args, **kwargs):
        raise AssertionError("tail sampled paths before checking k")

    monkeypatch.setattr(mc, "terminals", no_sampling)
    out = tmp_path / "tail.json"
    assert run("tail", "--process", "stable", "--alpha", "1.3", "--paths", "1000",
               "--k", k, "--out", str(out)) == EXIT_CONFIG
    assert not out.exists()


def test_tail_report(tmp_path):
    out = tmp_path / "tail.json"
    code = run("tail", "--process", "stable", "--alpha", "1.3",
               "--paths", "1000", "--gamma-cap", "300", "--seed", "5",
               "--out", str(out))
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["k"] == 31
    assert 0.9 < report["hill_estimate"] < 1.9


def test_io_error_exit_code(tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "x"
    assert run("simulate", "--process", "stable", "--alpha", "1.3",
               "--grid-n", "10", "--gamma-cap", "100",
               "--out", str(missing)) == EXIT_IO


def test_selftest_corrupt_zeta_fails(monkeypatch, capsys):
    # negative control: a zeta off by 0.05 must fail the drift-constant row
    import layerlab.cli as cli
    from layerlab import zeta
    monkeypatch.setattr(cli, "zeta", lambda s: zeta(s) + 0.05)
    code = run("selftest")
    out = capsys.readouterr().out
    assert code == EXIT_CHECK_FAILED
    assert "b_T-zeta" in out
    line = [l for l in out.splitlines() if l.startswith("b_T-zeta")][0]
    assert "FAIL" in line
    # the corruption must not leak into the process
    assert abs(zeta(1.0 / 1.5) - (-2.4475807362336582)) < 1e-12


def test_limit_check_gaussian_long_limit_to_stdout(capsys):
    # beta > 2: the long-time limit is the Gaussian of gaussian_covariance,
    # read with index 2; without --out the report is printed to stdout
    from layerlab import (GaussianCF, LayeredQ, cf_distance, gaussian_covariance,
                          limit_target_and_samples, parse_spherical_spec)
    spec_text = "discrete:[(1):0.5,(-1):0.5]"
    code = run("limit-check", "--mode", "long", "--alpha", "1.1", "--beta", "2.5",
               "--h", "1e3", "--sigma", spec_text, "--paths", "2000", "--seed", "3")
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK and report["pass"] and report["index"] == 2.0
    sigma = parse_spherical_spec(spec_text)
    target, x, spec = limit_target_and_samples(1.1, 2.5, sigma, "long", 1e3, 2000, 3)
    assert isinstance(target, GaussianCF) and spec.index == 2.0
    cov = gaussian_covariance(LayeredQ.canonical(1.1, 2.5, 1.0), sigma)
    assert target.cov.tobytes() == np.atleast_2d(cov).tobytes()
    assert report["distance"] == cf_distance(x, target)


def test_config_line_without_equals_exit_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("alpha = 1.3\n# a comment\nbeta 1.9\n")
    assert run("simulate", "--config", str(cfg), "--out", str(tmp_path / "run")) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {cfg}:3: expected 'key = value'\n"
    assert list(tmp_path.iterdir()) == [cfg]


def test_coupled_companion_must_be_stable(tmp_path, capsys):
    assert run("simulate", "--alpha", "1.3", "--beta", "1.9", "--grid-n", "4",
               "--gamma-cap", "20", "--coupled", "layered:1.3",
               "--out", str(tmp_path / "run")) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: coupled companions must be stable:<alpha>\n"
    assert list(tmp_path.iterdir()) == []


def test_selftest_check_that_raises_fails(monkeypatch, capsys):
    # a check that raises prints an error row and fails the run; the checks
    # after it still run
    import layerlab.cli as cli

    def broken():
        raise RuntimeError("no such constant")

    monkeypatch.setattr(cli, "_selftest_checks", lambda: [
        ("broken", broken), ("fine", lambda: (0.5, 1.0, "a passing check"))])
    assert run("selftest") == EXIT_CHECK_FAILED
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rows[0].split() == ["broken", "error", "FAIL", "(no", "such", "constant)"]
    assert rows[1].split() == ["fine", "0.5", "1", "ok"]


def test_simulate_atom_of_extreme_magnitude(tmp_path):
    # an atom at 1e200 is the direction +1: its square overflowed and the
    # run exited 2 with a RuntimeWarning; it now writes the bytes of (1)
    import warnings
    argv = ["simulate", "--process", "stable", "--alpha", "1.5", "--grid-n", "20",
            "--gamma-cap", "200"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(*argv, "--sigma", "discrete:[(1e200):1,(-1):1]",
                   "--out", str(tmp_path / "far")) == EXIT_OK
    assert run(*argv, "--out", str(tmp_path / "unit")) == EXIT_OK
    assert (tmp_path / "far.csv").read_bytes() == (tmp_path / "unit.csv").read_bytes()
