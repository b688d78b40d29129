"""The experiment scripts run end to end on a small sample."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=600)


def test_limit_sweep_script(tmp_path):
    out = tmp_path / "out"
    res = run_script("run_limit_sweep.py", "--paths", "50", "--out-dir", str(out),
                     cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert sorted(p.name for p in out.iterdir()) == [
        "limit_long_gauss.csv", "limit_long_stable.csv", "limit_short.csv"]
    for p in out.iterdir():
        lines = p.read_text().strip().split("\n")
        assert lines[0] == "h,distance" and len(lines) == 10


def test_rn_diagnostics_script(tmp_path):
    res = run_script("run_rn_diagnostics.py", "--paths", "50", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert "E[exp(U'_1)]" in res.stdout and "direct" in res.stdout


def test_marginals_script(tmp_path):
    out = tmp_path / "out"
    res = run_script("run_marginals.py", "--paths", "50", "--out-dir", str(out),
                     cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert sorted(p.name for p in out.iterdir()) == [
        "marginal_a1.1_b2.5.csv", "marginal_a1.3_b1.9.csv", "marginal_a1.9_b1.3.csv"]
    lines = (out / "marginal_a1.3_b1.9.csv").read_text().strip().split("\n")
    assert lines[0].endswith("stable_err") and len(lines) == 82


def test_identity_check_script(tmp_path):
    # two runs print the same fingerprints, and every sampler's outputs at 1
    # and 2 threads hash alike
    first, second = (run_script("identity_check.py", cwd=tmp_path) for _ in range(2))
    assert first.returncode == 0 and second.returncode == 0, first.stderr + second.stderr
    lines = first.stdout.splitlines()
    assert len(lines) > 800 and first.stdout == second.stdout
    assert not any(l.startswith("oracle") and "refused" in l for l in lines)
    by_threads = {}
    for line in lines:
        name, _, digest = line.rpartition(" ")
        if "threads=" in name:
            by_threads.setdefault(name.split(" threads=")[0], set()).add(digest)
    assert len(by_threads) > 50 and all(len(v) == 1 for v in by_threads.values())
