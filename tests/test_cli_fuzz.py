"""Property tests: malformed configs end in exit 0, 1 or 2 and never raise.

Each example starts from a small valid config of one command, then drops some
keys and sets others (from that command's keys) to null, strings, lists,
booleans, +-inf, NaN, small numbers or a few potential and grid specs.  Sizes
stay at or below 40 so that a run that is accepted stays fast.  A second test
adds one key that the command does not read and requires exit 1.
"""

import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from todagibbs.cli import main

QUARTIC = {"type": "polynomial", "coeffs": [0, 0, 0, 0, 0.1]}
TABULATED = {"type": "tabulated", "x": [-2.0, 0.0, 2.0], "v": [16.0, 0.0, 16.0],
             "envelope": [0, 0, 0, 0, 1.0]}
MCMC_KEYS = {"potential", "sweeps", "thin", "proposal_scales", "dump_samples"}

NUMBER = st.one_of(st.integers(-3, 40), st.floats(-3.0, 40.0),
                   st.sampled_from([math.inf, -math.inf, math.nan]))
# numbers come up about half the time, so that many configs stay valid
JUNK = st.one_of(NUMBER, st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                                   st.lists(st.one_of(NUMBER, st.none()), max_size=3)))
POTENTIAL = st.one_of(JUNK, st.sampled_from([{"type": "zero"}, QUARTIC, TABULATED,
                                              {"type": "polynomial", "coeffs": [0, 1]},
                                              {"type": "bogus"}]))
GRID = st.one_of(JUNK, st.fixed_dictionaries(
    {}, optional={"m": JUNK, "half_width": st.one_of(JUNK, st.just("auto"))}))


def _bases(eig_csv, density_csv):
    """Small valid configs of each command."""
    grid = {"m": 40}
    return {
        "sample": [{"source": "toda", "n": 12, "p": 1.0, "replicas": 2},
                   {"source": "beta", "n": 12, "p": 1.0, "replicas": 2},
                   {"source": "profile", "n": 12, "profile": [0.5, 1.5], "replicas": 2},
                   {"source": "mcmc", "n": 12, "p": 1.0, "sweeps": 10, "thin": 2,
                    "potential": QUARTIC}],
        "solve": [{"p": 1.0, "grid": grid}],
        "dos": [{"p": 1.0, "grid": grid}, {"profile": [0.5, 1.5], "grid": grid, "n_nodes": 5}],
        "compare": [{"eigenvalues_csv": eig_csv, "density_csv": density_csv}],
        "checks": [{"p": 1.0, "grid": grid, "n_nodes": 5,
                    "checks": ["beta_mixture", "nu_density", "d_lipschitz", "fc_convexity"]}],
    }


KEYS = {
    "sample": ["source", "n", "p", "profile", "replicas", "potential", "sweeps", "thin",
               "proposal_scales", "dump_samples", "seed"],
    "solve": ["p", "potential", "grid", "tol", "max_iter", "seed"],
    "dos": ["p", "profile", "potential", "grid", "n_nodes", "tol"],
    "compare": ["eigenvalues_csv", "density_csv", "bandwidth"],
    "checks": ["p", "potential", "checks", "grid", "n_nodes", "n", "sweeps", "tol"],
}


def _value_for(key, eig_csv, density_csv):
    if key == "potential":
        return POTENTIAL
    if key == "grid":
        return GRID
    if key.endswith("_csv"):
        return st.one_of(JUNK, st.sampled_from([eig_csv, density_csv, "missing.csv"]))
    if key == "source":
        return st.one_of(JUNK, st.sampled_from(["toda", "beta", "profile", "mcmc"]))
    if key == "checks":
        return st.one_of(JUNK, st.lists(st.sampled_from(["beta_mixture", "nu_density",
                                                         "fc_convexity", "bogus"]),
                                        max_size=2))
    return JUNK


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """An eigenvalue list and a density on a 40-cell grid, written by the CLI."""
    root = tmp_path_factory.mktemp("fuzz_inputs")
    cfg = root / "solve.json"
    cfg.write_text(json.dumps({"p": 1.0, "grid": {"m": 40}}))
    assert main(["solve", "--config", str(cfg), "--out", str(root / "mu")]) == 0
    eig_csv = root / "eigs.csv"
    eig_csv.write_text("replica,lambda\n0,-0.5\n0,0.1\n0,0.7\n")
    return str(eig_csv), str(root / "mu" / "density.csv")


def _run(command, cfg):
    """main's exit code; a manifest that the run wrote must not be left "running"."""
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        rc = main([command, "--config", path, "--out", os.path.join(work, "out"),
                   "--workers", "1"])
        manifest = os.path.join(work, "out", "manifest.json")
        if os.path.exists(manifest):
            with open(manifest) as fh:
                assert json.load(fh)["status"] in ("complete", "failed")
        return rc


@pytest.mark.parametrize("command", sorted(KEYS))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_malformed_config_exits_0_1_or_2(inputs, command, data):
    eig_csv, density_csv = inputs
    cfg = dict(data.draw(st.sampled_from(_bases(eig_csv, density_csv)[command])))
    for key in data.draw(st.sets(st.sampled_from(sorted(cfg)), max_size=1)):
        del cfg[key]
    for key in data.draw(st.sets(st.sampled_from(KEYS[command]), max_size=2)):
        cfg[key] = data.draw(_value_for(key, eig_csv, density_csv), label=key)

    rc = _run(command, cfg)
    assert rc in (0, 1, 2)
    source = cfg.get("source")
    if command == "sample" and source in ("toda", "beta", "profile", "mcmc"):
        # a key that the chosen source does not read is rejected
        unread = {"replicas"} if source == "mcmc" else MCMC_KEYS
        if unread & cfg.keys():
            assert rc == 1
        if source == "mcmc" and not isinstance(cfg.get("dump_samples", False), bool):
            assert rc == 1


# a key of another command, or a made-up one; none of the base configs reads it
UNREAD_KEY = st.one_of(st.sampled_from(["source", "replicas", "sweeps", "h_p", "max_iter",
                                        "bandwidth", "theta0", "mixture_tol"]),
                       st.text(min_size=1, max_size=8).map(lambda key: "x_" + key))


@pytest.mark.parametrize("command", sorted(KEYS))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_unread_key_exits_1(inputs, command, data):
    cfg = dict(data.draw(st.sampled_from(_bases(*inputs)[command])))
    key = data.draw(UNREAD_KEY.filter(lambda k: k not in KEYS[command]), label="key")
    cfg[key] = data.draw(JUNK, label="value")
    assert _run(command, cfg) == 1
