"""Smoke test: both experiment scripts run end to end at tiny sizes."""

import os
import subprocess
import sys

import todagibbs

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(todagibbs.__file__))


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, os.path.join(REPO, "scripts", name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_run_convergence_script(tmp_path):
    proc = run_script("run_convergence.py", "--n", "20", "--replicas", "2",
                      "--grid-points", "100", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    for name in ("bl_bv_distance", "ks_distance", "log_energy_distance"):
        assert name in proc.stdout


def test_run_identity_checks_script(tmp_path):
    proc = run_script("run_identity_checks.py", "--n", "8", "--sweeps", "10", "--nodes", "5",
                      "--grid-points", "100", "--out", str(tmp_path))
    # 3 means the scoreboard ran and at least one check missed its bound,
    # which the short chains here allow
    assert proc.returncode in (0, 3), proc.stderr
    for name in ("beta_mixture", "free_energy", "nu_density", "d_lipschitz", "fc_convexity"):
        assert f"] {name}:" in proc.stdout
