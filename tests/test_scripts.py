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
