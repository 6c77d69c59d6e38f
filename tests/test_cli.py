import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import todagibbs
from todagibbs.cli import ConfigError, _json_text, main
from todagibbs.equilibrium import DomainTooSmallError, NonConvergedError, domain_auto
from todagibbs.potentials import NonConfiningError


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(tmp_path, command, cfg, out="out", **flags):
    cfg_path = write_config(tmp_path, f"{command}_{out}.json", cfg)
    argv = [command, "--config", cfg_path, "--out", str(tmp_path / out)]
    for key, value in flags.items():
        argv += [f"--{key}", str(value)]
    return main(argv), str(tmp_path / out)


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def source_env():
    """The environment with this package's source directory on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(todagibbs.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_sample_determinism_and_moments(tmp_path):
    cfg = {"source": "toda", "n": 400, "p": 1.0, "replicas": 12, "seed": 7}
    rc1, out1 = run(tmp_path, "sample", cfg, out="a")
    rc2, out2 = run(tmp_path, "sample", cfg, out="b")
    assert rc1 == rc2 == 0
    m1 = json.load(open(os.path.join(out1, "manifest.json")))
    m2 = json.load(open(os.path.join(out2, "manifest.json")))
    assert m1["outputs"] == m2["outputs"]
    assert m1["status"] == "complete"
    # the thread variables the run ran with; importing the CLI set one if neither was
    assert m1["thread_env"] == {key: os.environ.get(key) for key in THREAD_VARS}
    assert set(m1["thread_env"].values()) != {None}
    summary = json.load(open(os.path.join(out1, "summary.json")))
    tol = 3.0 * summary["trace_power2_stderr"]
    assert abs(summary["trace_power2_mean"] - 3.0) <= tol


# a small free-energy check under V = 0.1 x^4
FREE_ENERGY_CHECK = {"p": 1.0, "potential": {"type": "polynomial", "coeffs": [0, 0, 0, 0, 0.1]},
                     "checks": ["free_energy"], "n": 12, "sweeps": 20}


def test_sample_worker_count_does_not_change_digests(tmp_path):
    # --workers is accepted and reaches nothing, not even the manifest
    sample_cfg = {"source": "toda", "n": 200, "p": 0.5, "replicas": 6, "seed": 3}
    for command, cfg in (("sample", sample_cfg), ("checks", FREE_ENERGY_CHECK)):
        _, out1 = run(tmp_path, command, cfg, out=f"{command}_w1", workers=1)
        _, out2 = run(tmp_path, command, cfg, out=f"{command}_w3", workers=3)
        m1, m2 = read_manifest(out1), read_manifest(out2)
        assert m1["outputs"] == m2["outputs"]
        assert "workers" not in m1 and "workers" not in m2


def test_workers_is_a_flag_that_is_range_checked_and_not_a_config_key(tmp_path, capsys):
    rc, _ = run(tmp_path, "solve", {"p": 1.0, "grid": {"m": 100}, "workers": 2})
    assert rc == 1 and "solve does not read workers" in capsys.readouterr().err
    rc, out = run(tmp_path, "solve", {"p": 1.0, "grid": {"m": 100}}, out="w0", workers=0)
    assert rc == 1 and "--workers must be a positive integer" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "manifest.json"))


def test_sample_beta_two_sites(tmp_path):
    cfg = {"source": "beta", "n": 2, "p": 1.0, "replicas": 20000, "seed": 5}
    rc, out = run(tmp_path, "sample", cfg)
    assert rc == 0
    summary = json.load(open(os.path.join(out, "summary.json")))
    mean_tr = 2.0 * summary["trace_power2_mean"]
    stderr = 2.0 * summary["trace_power2_stderr"]
    assert abs(mean_tr - (2.0 + 2.0 * 1.0 / 2.0)) <= 3.0 * stderr


def test_sample_validation_error(tmp_path):
    rc, _ = run(tmp_path, "sample", {"source": "toda", "n": 100, "replicas": 2})
    assert rc == 1  # missing p
    rc, _ = run(tmp_path, "sample", {"source": "weird", "n": 100, "replicas": 2})
    assert rc == 1


def test_solve_entropy_only_and_quadratic(tmp_path):
    rc, out = run(tmp_path, "solve",
                  {"p": 0.0, "grid": {"m": 1000}}, out="p0")
    assert rc == 0
    data = np.loadtxt(os.path.join(out, "density.csv"), delimiter=",", skiprows=1)
    xs, rho = data[:, 0], data[:, 1]
    gauss = np.exp(-xs ** 2 / 2) / math.sqrt(2 * math.pi)
    assert np.max(np.abs(rho - gauss)) <= 1e-8

    rc, out = run(tmp_path, "solve", {"p": 1.0, "grid": {"m": 2000}}, out="p1")
    assert rc == 0
    sol = json.load(open(os.path.join(out, "solution.json")))
    assert abs(sol["second_moment"] - 2.0) <= 1e-3
    assert sol["residual"] <= 1e-8
    assert sol["converged"]


def test_solve_non_convergence_exit_code(tmp_path):
    rc, out = run(tmp_path, "solve",
                  {"p": 1.0, "grid": {"m": 600}, "max_iter": 2}, out="bad")
    assert rc == 2
    sol = json.load(open(os.path.join(out, "solution.json")))
    assert not sol["converged"]
    assert sol["residual"] > 0


def test_dos_single_and_profile(tmp_path):
    rc, out = run(tmp_path, "dos", {"p": 1.0, "grid": {"m": 1200}}, out="single")
    assert rc == 0
    rep = json.load(open(os.path.join(out, "report.json")))
    assert rep["mass"] == pytest.approx(1.0, abs=1e-12)
    assert rep["moments"]["2"] == pytest.approx(3.0, abs=2e-3)

    cfg = {"profile": [1.0, 1.0], "grid": {"m": 1200}, "n_nodes": 9}
    rc, out2 = run(tmp_path, "dos", cfg, out="prof")
    assert rc == 0
    a = np.loadtxt(os.path.join(out, "nu.csv"), delimiter=",", skiprows=1)
    b = np.loadtxt(os.path.join(out2, "nu.csv"), delimiter=",", skiprows=1)
    assert np.max(np.abs(a[:, 1] - b[:, 1])) <= 1e-7


def test_compare_density_with_itself(tmp_path):
    rc, out = run(tmp_path, "solve", {"p": 1.0, "grid": {"m": 800}}, out="ref")
    assert rc == 0
    density = os.path.join(out, "density.csv")
    cfg = {"eigenvalues_csv": density, "density_csv": density}
    rc, out2 = run(tmp_path, "compare", cfg, out="self")
    assert rc == 0
    rep = json.load(open(os.path.join(out2, "report.json")))
    assert rep["bl_bv_distance"] <= 1e-10
    assert rep["ks_distance"] <= 1e-10
    assert rep["log_energy_distance"] <= 1e-10


def test_compare_sample_against_dos(tmp_path):
    cfg = {"source": "toda", "n": 500, "p": 1.0, "replicas": 10, "seed": 9}
    rc, sample_out = run(tmp_path, "sample", cfg, out="spec")
    assert rc == 0
    rc, dos_out = run(tmp_path, "dos", {"p": 1.0, "grid": {"m": 1500}}, out="nu")
    assert rc == 0
    cfg = {"eigenvalues_csv": os.path.join(sample_out, "eigenvalues.csv"),
           "density_csv": os.path.join(dos_out, "nu.csv")}
    rc, out = run(tmp_path, "compare", cfg, out="cmp")
    assert rc == 0
    rep = json.load(open(os.path.join(out, "report.json")))
    assert rep["bl_bv_distance"] <= 0.05
    overlay = np.loadtxt(os.path.join(out, "overlay.csv"), delimiter=",",
                         skiprows=1)
    assert overlay.shape[1] == 3
    # histogram column integrates to one over the grid
    h = overlay[1, 0] - overlay[0, 0]
    assert np.sum(overlay[:, 2]) * h == pytest.approx(1.0, abs=1e-8)


def test_checks_bundle_small(tmp_path):
    cfg = {
        "p": 1.0,
        "grid": {"m": 700},
        "checks": ["beta_mixture", "free_energy", "nu_density"],
        "n_nodes": 9,
        "n": 30,
        "sweeps": 12,
    }
    rc, out = run(tmp_path, "checks", cfg, out="checks")
    assert rc == 0
    bundle = json.load(open(os.path.join(out, "checks.json")))
    assert bundle["beta_mixture"]["pass"]
    assert bundle["free_energy"]["lhs"] == 0.0 and bundle["free_energy"]["rhs"] == 0.0
    assert bundle["nu_density"]["pass"]
    for name in cfg["checks"]:
        assert isinstance(bundle[name]["pass"], bool) and "bound" in bundle[name]


def test_checks_auto_grid_holds_the_checks_pressures(tmp_path, monkeypatch):
    # fc_convexity solves up to P = 2.4, above the run's P + 0.5 = 1.5
    asked = []

    def recording(p, w):
        asked.append(p)
        return domain_auto(p, w)

    monkeypatch.setattr("todagibbs.equilibrium.domain_auto", recording)
    rc, _ = run(tmp_path, "checks", {"p": 1.0, "grid": {"m": 200}, "checks": ["fc_convexity"]})
    assert rc == 0
    assert max(asked) >= 2.4


def test_checks_json_is_strict_json(tmp_path):
    # the V = 0 report has no chain and so no ESS: null, never Infinity
    def reject(constant):
        raise ValueError(f"non-JSON constant {constant}")

    for name, cfg in (("zero", {**FREE_ENERGY_CHECK, "potential": {"type": "zero"}}),
                      ("quartic", FREE_ENERGY_CHECK)):
        rc, out = run(tmp_path, "checks", cfg, out=name)
        assert rc == 0
        with open(os.path.join(out, "checks.json")) as fh:
            rep = json.loads(fh.read(), parse_constant=reject)["free_energy"]
        assert (rep["min_ess"] is None) == (name == "zero")


def test_checks_free_energy_grid_holds_a_weakly_confining_v(tmp_path):
    # V = -0.45x^2 + 0.001x^4 needs a half-width of about 13.6 at P = 1,
    # the V = 0 measure only about 9.2, and both solves share one grid
    potential = {"type": "polynomial", "coeffs": [0, 0, -0.45, 0, 0.001]}
    rc, out = run(tmp_path, "checks", {"p": 1.0, "potential": potential,
                                       "checks": ["free_energy"], "n": 6, "sweeps": 10})
    assert rc == 0
    rep = json.load(open(os.path.join(out, "checks.json")))["free_energy"]
    assert np.isfinite(rep["lhs"]) and np.isfinite(rep["rhs"])


def test_mcmc_sample_source(tmp_path):
    cfg = {"source": "mcmc", "n": 30, "p": 1.0, "sweeps": 150, "thin": 4,
           "potential": {"type": "polynomial", "coeffs": [0, 0, 0, 0, 0.1]},
           "dump_samples": True}
    rc, out = run(tmp_path, "sample", cfg, out="mcmc")
    assert rc == 0
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert summary["sweeps"] == 150
    assert 0.0 <= summary["acceptance"]["offdiag"] <= 1.0
    assert summary["ess"] <= summary["replica_count"]
    # the scales the burn-in adapted from the default (0.5, 0.5), as the chain reports them
    from todagibbs import Potential, SeededStream, mcmc_toda
    report = mcmc_toda(SeededStream(0, 0), 30, 1.0, Potential.from_dict(cfg["potential"]),
                       sweeps=150, thin=4)
    assert summary["proposal_scales"] == list(report.proposal_scales) != [0.5, 0.5]
    dumps = [f for f in os.listdir(out) if f.startswith("sample_")]
    assert len(dumps) == summary["replica_count"]
    from todagibbs import load_matrix
    m = load_matrix(os.path.join(out, dumps[0]))
    assert m.n == 30 and m.periodic


def read_manifest(out):
    with open(os.path.join(out, "manifest.json")) as fh:
        return json.load(fh)


# V = 0.05 x^4 tabulated at the integers of [-4, 4], with 0.05 x^4 as its envelope
TABULATED_QUARTIC = {"type": "tabulated", "x": list(range(-4, 5)),
                     "v": [0.05 * x ** 4 for x in range(-4, 5)],
                     "envelope": [0, 0, 0, 0, 0.05]}


# at each of these seeds some proposal moves an eigenvalue past the table
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mcmc_tabulated_spectrum_leaving_the_table_completes(tmp_path, seed):
    cfg = {"source": "mcmc", "n": 12, "p": 1.0, "sweeps": 200, "proposal_scales": [1.5, 1.5],
           "potential": TABULATED_QUARTIC, "seed": seed}
    rc, out = run(tmp_path, "sample", cfg)
    assert rc == 0
    assert read_manifest(out)["status"] == "complete"


def test_mcmc_tabulated_at_n_500_reports_its_correction(tmp_path):
    # the chain moves by the table's polynomial surrogate, so no n is too large
    rc, out = run(tmp_path, "sample", {"source": "mcmc", "n": 500, "p": 1.0, "sweeps": 10,
                                       "potential": TABULATED_QUARTIC})
    assert rc == 0 and read_manifest(out)["status"] == "complete"
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert set(summary["acceptance"]) == {"diag", "offdiag", "correction"}


def test_checks_free_energy_passes_with_a_tabulated_v(tmp_path):
    rc, out = run(tmp_path, "checks", {**FREE_ENERGY_CHECK, "potential": TABULATED_QUARTIC})
    assert rc == 0
    rep = json.load(open(os.path.join(out, "checks.json")))["free_energy"]
    assert rep["pass"]
    assert all(0.0 < rates["correction"] <= 1.0 for rates in rep["node_acceptance"])


@pytest.mark.parametrize("potential", [
    # a table on [-2, 2] whose auto grid at P = 1 reaches |x| = 2.47
    {"type": "tabulated", "x": [-2.0, 0.0, 2.0], "v": [16.0, 0.0, 16.0],
     "envelope": [0, 0, 0, 0, 1.0]},
    # W's minimum sits at |x| = 47.4
    {"type": "polynomial", "coeffs": [0, 0, -5.0, 0, 0.001]},
])
def test_solve_auto_grid_beyond_table_or_probe(tmp_path, potential):
    rc, out = run(tmp_path, "solve", {"p": 1, "potential": potential})
    assert rc == 0
    assert read_manifest(out)["status"] == "complete"
    assert json.load(open(os.path.join(out, "solution.json")))["converged"]


@pytest.mark.parametrize("command, cfg", [
    ("solve", {"p": 1}),
    ("sample", {"source": "mcmc", "n": 12, "p": 1.0, "sweeps": 10}),
])
def test_non_finite_slack_exits_1_before_the_run_opens(tmp_path, capsys, command, cfg):
    # V(1) = 5 next to an envelope of 0.01; json reads NaN, which used to pass every edge gap
    potential = {"type": "tabulated", "x": [-1.0, 0.0, 1.0], "v": [5.0, 0.0, 5.0],
                 "envelope": [0, 0, 0, 0, 0.01], "slack": math.nan}
    rc, out = run(tmp_path, command, {**cfg, "potential": potential})
    assert rc == 1 and "slack must be finite" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "manifest.json"))


@pytest.mark.parametrize("cfg", [
    {"source": "toda", "n": 20, "p": 1e300, "replicas": 2},
    {"source": "beta", "n": 20, "p": 1e300, "replicas": 2},
    {"source": "mcmc", "n": 12, "p": 1e300, "sweeps": 10},
    {"source": "profile", "n": 20, "profile": [1e300, 1.0], "replicas": 2},
], ids=lambda cfg: cfg["source"])
def test_sample_pressure_that_overflows_the_moments_exits_1_before_the_run_opens(
        tmp_path, capsys, cfg):
    # the fourth moment grows as p^2; it used to reach summary.json as Infinity or NaN
    rc, out = run(tmp_path, "sample", cfg)
    assert rc == 1 and "up to 1e+100" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "manifest.json"))


@pytest.mark.parametrize("command, cfg, message", [
    ("dos", {"p": 1e200, "grid": {"m": 100}},
     "p must be a positive number up to 1e+100, got 1e+200"),
    ("dos", {"profile": [1e200, 1.0], "grid": {"m": 100}},
     "profile must be a list of variances up to 1e+100, got a largest of 1e+200"),
    ("solve", {"p": 1e200, "grid": {"m": 100}},
     "p must be a nonnegative number up to 1e+100, got 1e+200"),
    ("checks", {"p": 1e200, "checks": ["nu_density"], "grid": {"m": 100}},
     "p must be a positive number up to 1e+100, got 1e+200"),
    # within the bound, but the auto grid would need a half-width above 1e9
    ("dos", {"p": 1e20, "grid": {"m": 100}},
     "confinement too weak to bound the tail at pressure 1e+20"),
], ids=["dos", "dos_profile", "solve", "checks", "dos_auto_grid"])
def test_pressure_too_large_exits_1_naming_the_pressure(tmp_path, capsys, command, cfg,
                                                         message):
    # V = 0 confines at every pressure, so the message names the pressure
    rc, out = run(tmp_path, command, cfg)
    assert rc == 1 and message in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "manifest.json"))


@pytest.mark.parametrize("source", ["toda", "beta", "mcmc"])
def test_sample_at_the_largest_pressure_writes_strict_json(tmp_path, source):
    cfg = {"source": source, "n": 20, "p": 1e100,
           **({"sweeps": 10} if source == "mcmc" else {"replicas": 2})}
    rc, out = run(tmp_path, "sample", cfg)
    assert rc == 0

    def reject(constant):
        raise ValueError(f"non-JSON constant {constant}")

    for name in ("summary.json", "manifest.json"):
        with open(os.path.join(out, name)) as fh:
            json.load(fh, parse_constant=reject)
    with pytest.raises(ValueError):
        _json_text({"moment": math.inf})


def test_dos_linear_solve_cap_exits_2_and_marks_the_manifest_failed(tmp_path, capsys,
                                                                  monkeypatch):
    # one conjugate-gradient iteration does not reach the relative tolerance
    monkeypatch.setattr("todagibbs.dos.CG_MAX_ITER", 1)
    rc, out = run(tmp_path, "dos", {"p": 1.0, "grid": {"m": 200}})
    assert rc == 2 and "conjugate gradients" in capsys.readouterr().err
    manifest = read_manifest(out)
    assert manifest["status"] == "failed"
    assert manifest["error"].startswith("NonConvergedError: conjugate gradients")


def test_failure_after_the_run_opens_marks_the_manifest_failed(tmp_path, capsys):
    rc, out = run(tmp_path, "solve", {"p": 1, "grid": {"half_width": 0.5, "m": 200}})
    assert rc == 1 and "enlarge the grid half-width" in capsys.readouterr().err
    manifest = read_manifest(out)
    assert manifest["status"] == "failed"
    assert manifest["error"].startswith("DomainTooSmallError: boundary density")


def test_cli_import_and_dos_compare_runs_load_no_scipy(tmp_path):
    # no command loads scipy: the eigensolve calls LAPACK in numpy's own BLAS
    # library, a tabulated V eigensolves inside the chain too; no command starts
    # a process pool, whatever --workers; `compare` merges breakpoints without
    # np.unique, which imports numpy.ma
    eig = tmp_path / "eig.csv"
    eig.write_text("replica,lambda\n" + "".join(
        f"0,{x:.17g}\n" for x in np.linspace(-2.0, 2.0, 300)))
    configs = [
        ("sample", {"source": "toda", "n": 50, "p": 1.0, "replicas": 3}),
        ("sample", {"source": "beta", "n": 50, "p": 1.0, "replicas": 3}),
        ("sample", {"source": "profile", "n": 50, "profile": [0.5, 2.0], "replicas": 3}),
        ("sample", {"source": "mcmc", "n": 12, "p": 1.0, "sweeps": 20, "potential": QUARTIC}),
        ("sample", {"source": "mcmc", "n": 12, "p": 1.0, "sweeps": 20,
                    "potential": TABULATED_QUARTIC}),
        ("solve", {"p": 1.0, "grid": {"m": 200}}),
        ("dos", {"p": 1.0, "grid": {"m": 200}, "out": str(tmp_path / "nu")}),
        ("compare", {"eigenvalues_csv": str(eig), "density_csv": str(tmp_path / "nu" / "nu.csv")}),
        ("checks", FREE_ENERGY_CHECK),
    ]
    runs = [[command, "--config", write_config(tmp_path, f"{command}{i}.json", cfg), "--workers",
             "2", "--out", cfg.get("out", str(tmp_path / f"out{i}"))]
            for i, (command, cfg) in enumerate(configs)]
    script = f"""
import json, sys
from todagibbs.cli import main
def heavy():
    return sorted(m for m in sys.modules if m in ("scipy", "numpy.ma", "concurrent.futures.process")
                  or m.startswith(("scipy", "numpy.ma.", "multiprocessing")))
loaded = [heavy()]
for argv in {runs!r}:
    loaded.append([main(argv)] + heavy())
print(json.dumps(loaded))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=source_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[]] + [[0]] * len(configs)


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    # importing the CLI loads potentials alone; each command imports the
    # modules it runs when it runs
    script = """
import json, sys
from todagibbs.cli import main
rc = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps([rc, sorted(m for m in sys.modules if m.startswith("todagibbs."))]))
"""

    def loaded(command=None, cfg=None):
        argv = [] if command is None else [command, "--config", write_config(
            tmp_path, f"{command}.json", cfg), "--out", str(tmp_path / command)]
        proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                              text=True, env=source_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        rc, modules = json.loads(proc.stdout.splitlines()[-1])
        assert rc == 0
        return [m[len("todagibbs."):] for m in modules]

    assert loaded() == ["cli", "potentials"]
    assert loaded("sample", {"source": "toda", "n": 50, "p": 1.0, "replicas": 2}) == [
        "cli", "matrices", "potentials", "sampling"]
    assert loaded("dos", {"p": 1.0, "grid": {"m": 200}}) == [
        "cli", "dos", "equilibrium", "potentials"]
    assert loaded("compare", {"eigenvalues_csv": str(tmp_path / "sample" / "eigenvalues.csv"),
                              "density_csv": str(tmp_path / "dos" / "nu.csv")}) == [
        "cli", "equilibrium", "matrices", "metrics", "potentials"]


def run_without_thread_vars(script, **preset):
    """Run ``script`` in a fresh interpreter with only the ``preset`` thread variables set."""
    env = {k: v for k, v in source_env().items() if k not in THREAD_VARS}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**env, **preset}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("preset,expected", [
    ({}, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None}),
    ({"OPENBLAS_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": None}),
    ({"OMP_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "2"}),
])
def test_cli_runs_openblas_on_one_thread_unless_the_user_chose(tmp_path, preset, expected):
    # importing the CLI sets the variable before numpy loads; a user's choice is kept
    cfg = write_config(tmp_path, "sample.json", {"source": "toda", "n": 200, "p": 1.0,
                                                "replicas": 2})
    out = str(tmp_path / "out")
    script = f"""
import json, os, sys
from todagibbs.cli import main
env = {{key: os.environ.get(key) for key in {THREAD_VARS!r}}}
rc = main(["sample", "--config", {cfg!r}, "--out", {out!r}])
tasks = len(os.listdir("/proc/self/task")) if sys.platform == "linux" else 1
with open(os.path.join({out!r}, "manifest.json")) as fh:
    print(json.dumps([env, rc, json.load(fh)["thread_env"], tasks]))
"""
    env, rc, recorded, tasks = run_without_thread_vars(script, **preset)
    assert env == recorded == expected and rc == 0
    if not preset:  # no OpenBLAS worker is left after the eigensolve
        assert tasks == 1


def test_importing_the_package_loads_no_numpy_and_sets_no_variable():
    script = """
import json, os, sys
before = dict(os.environ)
import todagibbs
print(json.dumps(["numpy" in sys.modules, dict(os.environ) == before, todagibbs.__version__]))
"""
    assert run_without_thread_vars(script) == [False, True, todagibbs.__version__]


def test_module_entry_point_runs(tmp_path):
    # `python -m todagibbs.cli` from a source checkout, without the console script
    def module_run(cfg_text, out):
        path = tmp_path / f"{out}.json"
        path.write_text(cfg_text)
        return subprocess.run([sys.executable, "-m", "todagibbs.cli", "dos", "--config",
                               str(path), "--out", str(tmp_path / out)],
                              capture_output=True, text=True, env=source_env(), timeout=120)

    proc = module_run(json.dumps({"p": 1.0, "grid": {"m": 200}}), "ok")
    assert proc.returncode == 0, proc.stderr
    manifest = json.load(open(tmp_path / "ok" / "manifest.json"))
    assert manifest["status"] == "complete" and "nu.csv" in manifest["outputs"]
    proc = module_run("{not json", "bad")
    assert proc.returncode == 1 and "error:" in proc.stderr


def test_missing_config_file():
    assert main(["solve", "--config", "/nonexistent/cfg.json"]) == 1


def test_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["solve", "--config", str(path)]) == 1


QUARTIC = {"type": "polynomial", "coeffs": [0, 0, 0, 0, 1.0]}


@pytest.mark.parametrize("command,cfg,flags", [
    ("sample", {"source": "toda", "n": 10, "p": None, "replicas": 2}, {}),
    ("sample", {"source": "toda", "n": [3], "p": 1.0, "replicas": 2}, {}),
    ("sample", {"source": "toda", "n": 10, "p": "abc", "replicas": 2}, {}),
    ("sample", {"source": "mcmc", "n": 10, "p": 1.0, "sweeps": 5,
                "proposal_scales": [-1, 1], "potential": QUARTIC}, {}),
    ("checks", {"checks": ["beta_mixture"], "n_nodes": 3}, {}),
    ("solve", {"p": 1.0, "theta0": 2}, {}),
    ("solve", {"p": 1.0, "tol": -1}, {}),
    # h_p is a key that dos does not read (here and below)
    ("dos", {"p": 1.0, "h_p": 0.9}, {}),
    ("solve", {"p": 1.0, "seed": -1}, {}),
    ("sample", {"source": "toda", "n": math.inf, "p": 1.0, "replicas": 2}, {}),
    ("solve", {"p": 1.0, "workers": 0}, {}),
    ("solve", {"p": 1.0, "potential": 3}, {}),
    ("solve", {"p": 1.0}, {"seed": -1}),
    ("solve", {"p": 1.0}, {"seed": "x"}),
    ("solve", {"p": 1.0}, {"workers": 0}),
    ("sample", {"source": "toda", "n": 3.7, "p": 1.0, "replicas": 2}, {}),
    ("sample", {"source": "toda", "n": 10, "p": 1.0, "replicas": True}, {}),
    # keys that the chosen sample source does not read
    ("sample", {"source": "toda", "n": 10, "p": 1.0, "replicas": 2, "potential": QUARTIC}, {}),
    ("sample", {"source": "toda", "n": 10, "p": 1.0, "replicas": 2, "sweeps": 10}, {}),
    ("sample", {"source": "toda", "n": 10, "p": 1.0, "replicas": 2, "thin": 3}, {}),
    ("sample", {"source": "beta", "n": 10, "p": 1.0, "replicas": 2,
                "proposal_scales": [0.5, 0.5]}, {}),
    ("sample", {"source": "profile", "n": 10, "profile": [1.0, 2.0], "replicas": 2,
                "dump_samples": True}, {}),
    ("sample", {"source": "mcmc", "n": 10, "p": 1.0, "sweeps": 5, "potential": QUARTIC,
                "replicas": 7}, {}),
    # dump_samples is a JSON boolean
    ("sample", {"source": "mcmc", "n": 10, "p": 1.0, "sweeps": 5, "potential": QUARTIC,
                "dump_samples": "no"}, {}),
    ("sample", {"source": "mcmc", "n": 10, "p": 1.0, "sweeps": 5, "potential": QUARTIC,
                "dump_samples": 1}, {}),
    # keys that the command, in its mode, does not read
    ("dos", {"profile": [0.5, 1.5], "p": 7.0, "h_p": 0.3, "grid": {"m": 100}, "n_nodes": 5}, {}),
    ("dos", {"p": 1.0, "grid": {"m": 100}, "n_nodes": 7}, {}),
    ("sample", {"source": "toda", "n": 10, "p": 1.0, "replicas": 2, "profile": [1.0, 2.0]}, {}),
    ("sample", {"source": "profile", "n": 10, "profile": [1.0, 2.0], "replicas": 2, "p": 1.0},
     {}),
    ("sample", {"source": "toda", "n": 10, "p": 1.0, "replicas": 2, "replicass": 5}, {}),
    ("solve", {"p": 1.0, "grid": {"m": 100, "mm": 7}}, {}),
    ("checks", {"checks": ["fc_convexity"], "grid": {"m": 100}, "n": 30, "sweeps": 12,
                "mixture_tol": 0.5, "n_nodes": 9}, {}),
    ("checks", {"checks": ["beta_mixture"], "grid": {"m": 100}, "mixture_tol": 0.5}, {}),
    # a tabulated V runs at any n, but not for zero sweeps
    ("sample", {"source": "mcmc", "n": 500, "p": 1.0, "sweeps": 0,
                "potential": TABULATED_QUARTIC}, {}),
    # a config that is not a JSON object
    ("solve", [{"p": 1.0}], {}),
    # the free_energy check takes a tabulated V, but no periodic matrix has n = 2
    ("checks", {"checks": ["free_energy"], "n": 2, "sweeps": 10,
                "potential": TABULATED_QUARTIC}, {}),
    # number keys take JSON numbers, not strings or booleans
    ("solve", {"p": "1.5", "grid": {"m": 100}}, {}),
    ("solve", {"p": 1.0, "grid": {"m": 100, "half_width": "8"}}, {}),
    ("solve", {"p": 1.0, "grid": {"m": 100}, "tol": True}, {}),
    ("sample", {"source": "toda", "n": 10, "p": True, "replicas": 2}, {}),
    ("dos", {"p": 1.0, "h_p": "0.01", "grid": {"m": 100}}, {}),
    # list keys take JSON lists, of numbers where they hold numbers
    ("sample", {"source": "mcmc", "n": 10, "p": 1.0, "sweeps": 5, "potential": QUARTIC,
                "proposal_scales": "12"}, {}),
    ("sample", {"source": "mcmc", "n": 10, "p": 1.0, "sweeps": 5, "potential": QUARTIC,
                "proposal_scales": [True, 0.5]}, {}),
    ("sample", {"source": "profile", "n": 10, "profile": "12", "replicas": 2}, {}),
    ("checks", {"checks": {"nu_density": 1}, "grid": {"m": 100}}, {}),
    # out is a string, even when --out overrides it
    ("solve", {"p": 1.0, "grid": {"m": 100}, "out": None}, {}),
    # potential specs hold lists of numbers and a numeric slack
    ("solve", {"p": 1.0, "grid": {"m": 100},
               "potential": {"type": "polynomial", "coeffs": "4"}}, {}),
    ("solve", {"p": 1.0, "grid": {"m": 100},
               "potential": {**TABULATED_QUARTIC, "slack": "0.5"}}, {}),
    ("solve", {"p": 1.0, "grid": {"m": 100},
               "potential": {**TABULATED_QUARTIC, "envelope": [0, 0, 0, 0, "0.05"]}}, {}),
])
def test_invalid_config_exits_1_with_message(tmp_path, capsys, command, cfg, flags):
    rc, out = run(tmp_path, command, cfg, **flags)
    err = capsys.readouterr().err
    assert rc == 1
    assert "error:" in err and "Traceback" not in err
    assert not os.path.exists(os.path.join(out, "manifest.json"))


@pytest.mark.parametrize("names", [["bogus"], []])
def test_unknown_check_name_rejected(tmp_path, capsys, names):
    rc, out = run(tmp_path, "checks", {"checks": names})
    err = capsys.readouterr().err
    assert rc == 1
    assert str(names) in err and "beta_mixture" in err and "fc_convexity" in err
    assert not os.path.exists(os.path.join(out, "checks.json"))


def test_library_value_error_is_not_relabelled(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("library bug")

    monkeypatch.setattr("todagibbs.equilibrium.solve_equilibrium", broken)
    with pytest.raises(ValueError, match="library bug"):
        run(tmp_path, "solve", {"p": 1.0, "grid": {"m": 100}})
    manifest = read_manifest(str(tmp_path / "out"))
    assert manifest["status"] == "failed" and manifest["error"] == "ValueError: library bug"


@pytest.mark.parametrize("error, code", [
    (ConfigError, 1), (NonConfiningError, 1), (DomainTooSmallError, 1),
    (NonConvergedError, 2),
], ids=lambda value: getattr(value, "__name__", str(value)))
def test_each_error_class_reaches_its_exit_code(tmp_path, capsys, monkeypatch, error, code):
    def failing(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr("todagibbs.equilibrium.solve_equilibrium", failing)
    rc, out = run(tmp_path, "solve", {"p": 1.0, "grid": {"m": 100}})
    err = capsys.readouterr().err
    assert rc == code and "error: command=solve reason=injected" in err
    manifest = read_manifest(out)
    assert manifest["status"] == "failed" and manifest["error"] == f"{error.__name__}: injected"


def solved_density(tmp_path, m=200, out="ref"):
    rc, ref = run(tmp_path, "solve", {"p": 1.0, "grid": {"m": m}}, out=out)
    assert rc == 0
    return os.path.join(ref, "density.csv")


def eigenvalue_csv(tmp_path, values):
    path = tmp_path / "eigs.csv"
    path.write_text("replica,lambda\n" + "".join(f"0,{v!r}\n" for v in values))
    return str(path)


def test_compare_default_bandwidth_with_equal_eigenvalues(tmp_path):
    # all values equal and off a cell centre: the spread-based bandwidth is 0
    cfg = {"eigenvalues_csv": eigenvalue_csv(tmp_path, [0.0123, 0.0123]),
           "density_csv": solved_density(tmp_path)}
    rc, out = run(tmp_path, "compare", cfg, out="cmp")
    assert rc == 0
    rep = json.load(open(os.path.join(out, "report.json")))
    assert math.isfinite(rep["log_energy_distance"])


# a bandwidth below h/2 can underflow to 0 at every grid point
@pytest.mark.parametrize("case,bandwidth,message", [
    ("off_grid", None, "eigenvalue range"),
    ("other_grid", None, "different grids"),
    ("on_grid", 1e-200, "bandwidth"),
    ("on_grid", 1e-30, "bandwidth"),
    ("on_grid", 0, "bandwidth"),
    # a JSON number, not a string or a boolean
    ("on_grid", "0.5", "bandwidth"),
    ("on_grid", True, "bandwidth"),
])
def test_invalid_compare_inputs_write_no_manifest(tmp_path, capsys, case, bandwidth, message):
    if case == "other_grid":
        empirical = solved_density(tmp_path, m=300, out="ref300")
    else:
        empirical = eigenvalue_csv(tmp_path, [0.0, 100.0] if case == "off_grid"
                                   else [-0.5, 0.1, 0.7])
    cfg = {"eigenvalues_csv": empirical, "density_csv": solved_density(tmp_path)}
    if bandwidth is not None:
        cfg["bandwidth"] = bandwidth
    rc, out = run(tmp_path, "compare", cfg, out="cmp")
    err = capsys.readouterr().err
    assert rc == 1
    assert message in err and "Traceback" not in err
    assert not os.path.exists(os.path.join(out, "manifest.json"))


@pytest.mark.parametrize("command,cfg", [
    ("sample", {"source": "toda", "n": 20, "p": 1.0, "replicas": 3}),
    ("sample", {"source": "mcmc", "n": 10, "p": 1.0, "sweeps": 10, "thin": 2,
                "potential": QUARTIC, "dump_samples": True}),
    ("solve", {"p": 1.0, "grid": {"m": 200}}),
    ("dos", {"p": 1.0, "grid": {"m": 200}}),
    ("compare", {}),
    ("checks", {"p": 1.0, "grid": {"m": 200}, "checks": ["nu_density"]}),
])
def test_manifest_lists_exactly_the_outputs(tmp_path, command, cfg):
    if command == "compare":
        cfg = {"eigenvalues_csv": eigenvalue_csv(tmp_path, [-0.5, 0.1, 0.7]),
               "density_csv": solved_density(tmp_path)}
    rc, out = run(tmp_path, command, cfg, out="run")
    assert rc == 0
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["status"] == "complete"
    assert set(os.listdir(out)) - {"manifest.json"} == set(manifest["outputs"])
    if cfg.get("dump_samples"):
        assert any(name.startswith("sample_") for name in manifest["outputs"])
    for name, digest in manifest["outputs"].items():
        with open(os.path.join(out, name), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest
