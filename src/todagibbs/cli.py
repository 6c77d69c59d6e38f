"""Batch command-line surface.

Five subcommands (sample, solve, dos, compare, checks) tie the samplers, the
equilibrium solver, the density of states and the metrics into reproducible
runs.  Each run reads one JSON config file, applies the --seed and --out
overrides, writes its outputs atomically and records a manifest with the
resolved config and per-file SHA-256 digests.  Reruns with the same config and
seed produce identical digests.

Importing this module loads numpy and ``potentials`` and no other module of
the package.  Each command imports the modules it runs when it runs, so a
process compiles and loads only what its command needs: ``sample`` never loads
``dos``, ``equilibrium`` or ``metrics``, and a single-pressure ``dos`` never
loads ``sampling``, ``matrices`` or ``metrics``.

Exit codes: 0 success, 1 invalid input, 2 numerical non-convergence.  An
exception class that a run may raise on bad input or a failed solve carries
its code as ``exit_code``, and ``main`` returns it.  Config values are
validated up front, before the run directory is opened; an exception without
``exit_code`` is a bug and propagates with its traceback.  A run that raises
after its directory opens leaves its manifest at status "failed".
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from typing import TYPE_CHECKING

# One OpenBLAS thread per process, unless the user chose a thread count.  No
# BLAS call here is large enough to use a second thread, and the worker that
# numpy's OpenBLAS starts at load spins while the interpreter imports; the
# replica spectra of ``sample`` run on threads of their own instead.  Set
# before numpy loads; the package itself sets nothing.
# The manifest records the values a run ran with.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
if "OMP_NUM_THREADS" not in os.environ:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .potentials import Potential

if TYPE_CHECKING:
    from .equilibrium import Grid
    from .sampling import VarianceProfile


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""

    exit_code = 1  # main() returns it


# -- config values -----------------------------------------------------------


def _value(cfg: dict, key: str, default, cast, ok, need: str):
    """cfg[key], or ``default`` when absent, converted by ``cast`` and checked by ``ok``.

    A ``default`` of None makes the key required.
    """
    if key not in cfg and default is None:
        raise ConfigError(f"config missing required key {key!r}")
    raw = cfg.get(key, default)
    try:
        value = cast(raw)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be {need}, got {raw!r}") from None
    if not ok(value):
        raise ConfigError(f"{key} must be {need}, got {raw!r}")
    return value


def _positive(v) -> bool:
    return 0 < v < math.inf


def _integer(raw) -> int:
    """An integral JSON number; booleans, fractions and strings are rejected."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)) or raw != int(raw):
        raise ValueError(raw)
    return int(raw)


def _number(raw) -> float:
    """A JSON number as a float; booleans and strings are rejected."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ValueError(raw)
    return float(raw)


def _list(raw, item=lambda x: x) -> tuple:
    """A JSON list as a tuple, each item cast by ``item``; strings and objects are rejected."""
    if not isinstance(raw, list):
        raise ValueError(raw)
    return tuple(item(x) for x in raw)


def _positive_int(cfg: dict, key: str, default=None, minimum: int = 1) -> int:
    return _value(cfg, key, default, _integer, lambda v: v >= minimum,
                  "a positive integer" if minimum == 1 else f"an integer >= {minimum}")


def _positive_float(cfg: dict, key: str, default=None) -> float:
    return _value(cfg, key, default, _number, _positive, "a positive number")


# keys that every command reads; main() resolves them
COMMON_KEYS = ("seed", "out")


def _reject_unread(cfg: dict, what: str, keys) -> None:
    """ConfigError for any key of ``cfg`` outside ``keys``, naming the allowed ones."""
    unread = sorted(set(cfg) - set(keys))
    if unread:
        raise ConfigError(f"{what} does not read {', '.join(unread)}; "
                          f"allowed keys: {', '.join(sorted(keys))}")


# the largest pressure, or profile value, that a command accepts: the fourth
# moment of a sampled spectrum grows as p^2 and overflows a float above about
# p = 1e150; an equilibrium solve fails well below the bound (``domain_auto``)
MAX_PRESSURE = 1e100


def _pressure(cfg: dict, default=None, zero: bool = False) -> float:
    """cfg["p"]: a positive number, or zero too when ``zero``, up to MAX_PRESSURE."""
    return _value(cfg, "p", default, _number,
                  lambda v: (0 <= v if zero else 0 < v) and v <= MAX_PRESSURE,
                  f"a {'nonnegative' if zero else 'positive'} number up to {MAX_PRESSURE:g}")


def _profile_from_config(cfg: dict) -> VarianceProfile:
    from .sampling import VarianceProfile

    profile = _value(cfg, "profile", None, lambda raw: VarianceProfile(_list(raw, _number)),
                     lambda _: True, "a list of positive variances")
    if profile.maximum > MAX_PRESSURE:
        raise ConfigError(f"profile must be a list of variances up to {MAX_PRESSURE:g}, "
                          f"got a largest of {profile.maximum!r}")
    return profile


def _potential_from_config(cfg: dict) -> Potential:
    spec = cfg.get("potential", {"type": "zero"})
    if not isinstance(spec, dict):
        raise ConfigError(f"potential must be an object, got {spec!r}")
    try:
        return Potential.from_dict(spec)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"invalid potential spec: {exc}") from exc


def _grid_from_config(cfg: dict, p: float, w: Potential) -> Grid:
    from .equilibrium import Grid, domain_auto

    gspec = cfg.get("grid", {})
    if not isinstance(gspec, dict):
        raise ConfigError(f"grid must be an object, got {gspec!r}")
    _reject_unread(gspec, "grid", ("m", "half_width"))
    m = _positive_int(gspec, "m", 2000, minimum=16)
    if gspec.get("half_width", "auto") == "auto":
        return Grid(domain_auto(p, w), m)
    return Grid(_value(gspec, "half_width", None, _number, _positive,
                       "a positive number or 'auto'"), m)


# -- run directory -------------------------------------------------------------


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


class RunDir:
    """The output directory of one run and its manifest, as a context manager.

    Opening it writes ``manifest.json`` with status "running".  ``write`` puts
    one output in place atomically and records its name.  Leaving the block
    digests exactly the recorded files and marks the manifest "complete"; if
    the block raised, the manifest is marked "failed" with the exception's
    class and message, and the exception propagates.
    """

    def __init__(self, out_dir: str, command: str, cfg: dict, seed: int):
        os.makedirs(out_dir, exist_ok=True)
        self._dir = out_dir
        self._t0 = time.time()
        self._names: list[str] = []
        # parameter echo embedded in every report
        self.echo = {"config": cfg, "master_seed": seed}
        self._manifest = {"command": command, "artifact_version": __version__,
                          "config": cfg, "master_seed": seed,
                          "thread_env": {key: os.environ.get(key) for key in THREAD_VARS},
                          "status": "running", "outputs": {}}
        self._replace("manifest.json", _json_text(self._manifest))

    def _replace(self, name: str, text: str) -> None:
        path = os.path.join(self._dir, name)
        with open(path + ".tmp", "w") as fh:
            fh.write(text)
        os.replace(path + ".tmp", path)

    def write(self, name: str, content) -> None:
        """Write text, or a JSON object, as output ``name``."""
        self._replace(name, content if isinstance(content, str) else _json_text(content))
        self._names.append(name)

    def __enter__(self) -> "RunDir":
        return self

    def __exit__(self, kind, exc, tb) -> None:
        if exc is None:
            digests = {}
            for name in self._names:
                with open(os.path.join(self._dir, name), "rb") as fh:
                    digests[name] = hashlib.sha256(fh.read()).hexdigest()
            self._manifest.update(outputs=digests, status="complete",
                                  wall_clock_seconds=time.time() - self._t0)
        else:
            self._manifest.update(status="failed", error=f"{kind.__name__}: {exc}")
        self._replace("manifest.json", _json_text(self._manifest))


# -- sample ----------------------------------------------------------------


# the keys each sample source reads beside COMMON_KEYS
SAMPLE_KEYS = {
    "toda": ("n", "p", "replicas"),
    "beta": ("n", "p", "replicas"),
    "profile": ("n", "profile", "replicas"),
    "mcmc": ("n", "p", "potential", "sweeps", "thin", "proposal_scales", "dump_samples"),
}


def cmd_sample(cfg: dict, seed: int, out_dir: str) -> int:
    from .matrices import matrix_text, spectra, trace_power
    from .sampling import (SeededStream, mcmc_toda, replica_map, sample_beta_matrix,
                           sample_profile_matrix, sample_toda_matrix)

    source = _value(cfg, "source", None, str,
                    lambda s: s in SAMPLE_KEYS, "one of toda, beta, profile, mcmc")
    _reject_unread(cfg, f"source {source}", ("source", *SAMPLE_KEYS[source], *COMMON_KEYS))
    # beta matrices are plain tridiagonal; the others are periodic
    n = _positive_int(cfg, "n", minimum=2 if source == "beta" else 3)
    # the pressure, or the variance profile that replaces it
    p = _profile_from_config(cfg) if source == "profile" else _pressure(cfg)
    if source == "mcmc":
        potential = _potential_from_config(cfg)
        sweeps = _positive_int(cfg, "sweeps")
        scales = _value(cfg, "proposal_scales", [0.5, 0.5], lambda raw: _list(raw, _number),
                        lambda t: len(t) == 2 and all(_positive(x) for x in t),
                        "two positive numbers")
        thin = _positive_int(cfg, "thin", 1)
        dump_samples = _value(cfg, "dump_samples", False, lambda raw: raw,
                              lambda v: isinstance(v, bool), "true or false")
    else:
        replicas = _positive_int(cfg, "replicas")

    with RunDir(out_dir, "sample", cfg, seed) as run:
        extra: dict = {}
        if source == "mcmc":
            report = mcmc_toda(SeededStream(seed, 0), n, p, potential, sweeps=sweeps,
                               thin=thin, proposal_scales=scales)
            samples = report.samples
            extra = {"acceptance": report.acceptance, "autocorr_time": report.autocorr_time,
                     "ess": report.ess, "sweeps": sweeps,
                     "proposal_scales": list(report.proposal_scales)}
            if dump_samples:
                for k, sample in enumerate(samples):
                    run.write(f"sample_{k:05d}.txt", matrix_text(sample))
        else:
            draw = {"toda": sample_toda_matrix, "beta": sample_beta_matrix,
                    "profile": sample_profile_matrix}[source]
            samples = replica_map(lambda stream: draw(stream, n, p), replicas, seed)
        measures = spectra(samples)
        t2 = np.array([trace_power(sample, 2) for sample in samples])

        run.write("eigenvalues.csv", "replica,lambda\n" + "".join(
            f"{k},{v:.17g}\n" for k, measure in enumerate(measures) for v in measure.values))
        allvals = np.concatenate([measure.values for measure in measures])
        run.write("summary.json", {
            "source": source,
            "n": n,
            "replica_count": len(samples),
            "eigenvalue_count": int(allvals.size),
            "moments": {str(k): float(np.mean(allvals ** k)) for k in (1, 2, 3, 4)},
            "trace_power2_mean": float(t2.mean()),
            "trace_power2_stderr": (float(t2.std(ddof=1) / np.sqrt(t2.size))
                                    if t2.size > 1 else 0.0),
            "run": run.echo,
            **extra,
        })
    return 0


# -- solve -----------------------------------------------------------------


def cmd_solve(cfg: dict, seed: int, out_dir: str) -> int:
    from .equilibrium import NonConvergedError, solve_equilibrium

    _reject_unread(cfg, "solve", ("p", "potential", "grid", "tol", "max_iter", *COMMON_KEYS))
    p = _pressure(cfg, zero=True)
    w = _potential_from_config(cfg)
    grid = _grid_from_config(cfg, max(p, 0.5), w)
    tol = _positive_float(cfg, "tol", 1e-8)
    max_iter = _value(cfg, "max_iter", 10000, _integer, lambda v: v >= 0,
                      "a nonnegative integer")

    with RunDir(out_dir, "solve", cfg, seed) as run:
        solution = solve_equilibrium(p, w, grid, tol=tol, max_iter=max_iter)
        run.write("density.csv", solution.density.to_csv_text())
        record = solution.to_json_dict(density_file="density.csv")
        record["second_moment"] = solution.density.moment(2)
        run.write("solution.json", record)
    if not solution.converged:
        raise NonConvergedError(
            f"equilibrium solve did not converge: residual {solution.residual:.3e}")
    return 0


# -- dos ---------------------------------------------------------------------


def cmd_dos(cfg: dict, seed: int, out_dir: str) -> int:
    from .dos import dos_from_equilibrium, mixture_over_profile

    mode = "profile" if "profile" in cfg else "single"
    mode_keys = ("profile", "n_nodes") if mode == "profile" else ("p",)
    _reject_unread(cfg, f"dos in {mode} mode",
                   ("potential", "grid", "tol", *mode_keys, *COMMON_KEYS))
    w = _potential_from_config(cfg)
    if mode == "profile":
        profile = _profile_from_config(cfg)
        grid = _grid_from_config(cfg, profile.maximum + 0.5, w)
        n_nodes = _positive_int(cfg, "n_nodes", 15, minimum=5)
    else:
        p = _pressure(cfg)
        grid = _grid_from_config(cfg, p + 0.5, w)
    tol = _positive_float(cfg, "tol", 1e-8)

    with RunDir(out_dir, "dos", cfg, seed) as run:
        if mode == "profile":
            nu = mixture_over_profile(profile, w, grid, n_nodes, tol=tol)
            report = {"mode": "profile", "profile": list(profile.values), "n_nodes": n_nodes}
        else:
            nu = dos_from_equilibrium(p, w, grid, tol=tol)
            report = {"mode": "single", "P": p}
        run.write("nu.csv", nu.to_csv_text())
        run.write("report.json", {**report, "mass": nu.mass(),
                                  "moments": {str(k): nu.moment(k) for k in (1, 2, 3, 4)},
                                  "run": run.echo})
    return 0


# -- compare -----------------------------------------------------------------


def _load_csv(cfg: dict, key: str):
    """An eigenvalue list, or a density when the file carries an 'x,rho' header."""
    from .equilibrium import GridDensity
    from .matrices import EmpiricalSpectralMeasure

    path = _value(cfg, key, None, lambda raw: raw, lambda v: isinstance(v, str), "a file path")
    try:
        with open(path) as fh:
            header = fh.readline().strip()
        if header == "x,rho":
            return GridDensity.from_csv(path)
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return EmpiricalSpectralMeasure(data[:, 1])
    except (OSError, ValueError, IndexError) as exc:
        raise ConfigError(f"cannot read {key}: {exc}") from exc


def cmd_compare(cfg: dict, seed: int, out_dir: str) -> int:
    from .equilibrium import GridDensity
    from .metrics import bl_bv_distance, ks_distance, log_energy_distance, smooth_empirical

    _reject_unread(cfg, "compare", ("eigenvalues_csv", "density_csv", "bandwidth", *COMMON_KEYS))
    empirical = _load_csv(cfg, "eigenvalues_csv")
    density = _load_csv(cfg, "density_csv")
    if not isinstance(density, GridDensity):
        raise ConfigError("density_csv must hold an 'x,rho' density")
    grid = density.grid
    edges, _ = density.cdf_breakpoints()
    if isinstance(empirical, GridDensity):
        if empirical.grid != grid:
            raise ConfigError("density inputs live on different grids")
    elif empirical.values[0] < edges[0] or empirical.values[-1] > edges[-1]:
        raise ConfigError("eigenvalue range exceeds the density grid")
    # below h/2 a Gaussian centred in a cell can underflow at every grid point
    bandwidth = (_value(cfg, "bandwidth", None, _number, lambda v: grid.h / 2 <= v < math.inf,
                        f"a number >= h/2 = {grid.h / 2:.6g}, half the density grid's step")
                 if cfg.get("bandwidth") is not None else None)

    with RunDir(out_dir, "compare", cfg, seed) as run:
        if isinstance(empirical, GridDensity):
            smoothed = empirical
            histogram = empirical.values
            count = grid.m
        else:
            smoothed = smooth_empirical(empirical, grid, bandwidth=bandwidth)
            histogram = np.histogram(empirical.values, bins=edges)[0] / (len(empirical) * grid.h)
            count = len(empirical)
        report = {
            "bl_bv_distance": bl_bv_distance(empirical, density),
            "ks_distance": ks_distance(empirical, density),
            "log_energy_distance": log_energy_distance(smoothed, density),
            "moments_empirical": {str(k): empirical.moment(k) for k in (1, 2, 3, 4)},
            "moments_theoretical": {str(k): density.moment(k) for k in (1, 2, 3, 4)},
            "eigenvalue_count": count,
            "run": run.echo,
        }
        run.write("overlay.csv", "x,rho_theory,rho_empirical\n" + "".join(
            f"{x:.17g},{r:.17g},{e:.17g}\n" for x, r, e in zip(grid.x, density.values, histogram)))
        run.write("report.json", report)
    return 0


# -- checks ------------------------------------------------------------------


# the keys each check reads beside p, potential, checks and COMMON_KEYS
CHECK_KEYS = {
    "beta_mixture": ("grid", "n_nodes", "tol"),
    "free_energy": ("n", "sweeps", "tol"),
    "nu_density": ("grid", "tol"),
    "d_lipschitz": ("grid",),
    "fc_convexity": ("grid", "tol"),
}


def cmd_checks(cfg: dict, seed: int, out_dir: str) -> int:
    from .dos import (CONVEXITY_PRESSURES, LIPSCHITZ_DELTAS, LIPSCHITZ_PRESSURES,
                      beta_mixture_check, d_lipschitz_sweep, fc_convexity_check,
                      free_energy_relation_check, nu_density_relation_check)

    names = tuple(CHECK_KEYS)
    which = _value(cfg, "checks", list(names), _list,
                   lambda chosen: bool(chosen) and all(name in names for name in chosen),
                   f"a non-empty list of check names from {', '.join(names)}")
    keys = {"p", "potential", "checks", *COMMON_KEYS}.union(*(CHECK_KEYS[c] for c in which))
    _reject_unread(cfg, f"checks {', '.join(which)}", keys)
    p = _pressure(cfg, 1.0)
    w = _potential_from_config(cfg)
    # an auto grid is sized for the largest pressure any selected check solves at
    top = {"d_lipschitz": max(LIPSCHITZ_PRESSURES) + max(LIPSCHITZ_DELTAS),
           "fc_convexity": max(CONVEXITY_PRESSURES)}
    grid_p = max([p + 0.5] + [top[name] for name in which if name in top])
    grid = _grid_from_config(cfg, grid_p, w) if "grid" in keys else None
    tol = _positive_float(cfg, "tol", 1e-8) if "tol" in keys else None
    n_nodes = _positive_int(cfg, "n_nodes", 21, minimum=5) if "n_nodes" in keys else None
    n = _positive_int(cfg, "n", 200, minimum=3) if "n" in keys else None
    sweeps = _positive_int(cfg, "sweeps", 500) if "sweeps" in keys else None
    runners = {
        "beta_mixture": lambda: beta_mixture_check(p, w, grid, n_nodes=n_nodes, tol=tol),
        "free_energy": lambda: free_energy_relation_check(
            p, w, n=n, mc_sweeps=sweeps, seed=seed, tol=tol),
        "nu_density": lambda: nu_density_relation_check(p, w, grid, tol=tol),
        "d_lipschitz": lambda: d_lipschitz_sweep(w=w, grid=grid),
        "fc_convexity": lambda: fc_convexity_check(w=w, grid=grid, tol=tol),
    }

    with RunDir(out_dir, "checks", cfg, seed) as run:
        # each check returns its own verdict ("pass") and the bound it was judged against
        bundle = {name: runners[name]() for name in names if name in which}
        bundle["run"] = run.echo
        run.write("checks.json", bundle)
    return 0


# -- entry point ---------------------------------------------------------------


_COMMANDS = {
    "sample": cmd_sample,
    "solve": cmd_solve,
    "dos": cmd_dos,
    "compare": cmd_compare,
    "checks": cmd_checks,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="todagibbs",
        description="Toda generalized Gibbs ensembles: sampling, equilibrium "
                    "measures, density of states, comparisons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cp = sub.add_parser(name)
        cp.add_argument("--config", required=True, help="JSON config file")
        cp.add_argument("--seed", type=int, default=None, help="master seed override")
        cp.add_argument("--workers", type=int, default=None,
                        help="accepted for the benchmark harness; no command reads it")
        cp.add_argument("--out", default=None, help="output directory override")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: malformed JSON or encoding
        print(f"error: config={args.config} reason={exc}", file=sys.stderr)
        return 1
    # an exception that carries no exit_code is a bug and keeps its traceback
    try:
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        if args.workers is not None and args.workers < 1:
            raise ConfigError(f"--workers must be a positive integer, got {args.workers}")
        # --seed overrides the config key and is checked alike
        resolved = cfg if args.seed is None else {**cfg, "seed": args.seed}
        seed = _value(resolved, "seed", 0, _integer, lambda v: v >= 0, "a nonnegative integer")
        out = _value(cfg, "out", ".", lambda raw: raw, lambda v: isinstance(v, str) and v != "",
                     "a directory path")
        return _COMMANDS[args.command](cfg, seed, args.out if args.out is not None else out)
    except Exception as exc:
        if not hasattr(exc, "exit_code"):
            raise
        print(f"error: command={args.command} reason={exc}", file=sys.stderr)
        return exc.exit_code


def script_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    script_entry()
