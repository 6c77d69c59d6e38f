"""Batch command-line surface.

Five subcommands (sample, solve, dos, compare, checks) tie the samplers, the
equilibrium solver, the density of states and the metrics into reproducible
runs.  Each run reads one JSON config file, applies the common flag overrides
(--seed, --workers, --out), writes its outputs atomically and records a
manifest with the resolved config and per-file SHA-256 digests.  Reruns with
the same config and seed produce identical digests regardless of worker count.

Exit codes: 0 success, 1 invalid input, 2 numerical non-convergence.  Config
values are validated up front; any other exception is a bug and propagates
with its traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .dos import (DosStepError, beta_mixture_check, d_lipschitz_sweep,
                  dos_from_equilibrium, fc_convexity_check,
                  free_energy_relation_check, mixture_over_profile,
                  nu_density_relation_check)
from .equilibrium import (DomainTooSmallError, Grid, GridDensity,
                          NonConvergedError, build_log_kernel, domain_auto,
                          solve_equilibrium)
from .matrices import EmpiricalSpectralMeasure, dump_matrix, eigenvalues, trace_power
from .metrics import bl_bv_distance, ks_distance, log_energy_distance, smooth_empirical
from .potentials import NonConfiningError, Potential, PotentialDomainError
from .sampling import (TABULATED_MCMC_MAX_N, SeededStream, VarianceProfile, mcmc_toda,
                       replica_map, sample_beta_matrix, sample_profile_matrix,
                       sample_toda_matrix)


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


class NonConvergenceExit(RuntimeError):
    """Numerical non-convergence surfaced as exit code 2."""


# -- small helpers --------------------------------------------------------


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config missing required key {key!r}")
    return cfg[key]


def _run_context(cfg: dict, seed: int) -> dict:
    """Parameter echo embedded in every report for reproducibility.

    Worker count is deliberately excluded: it never affects results, and
    output digests must not depend on it.
    """
    return {"config": cfg, "master_seed": seed}


def _value(cfg: dict, key: str, default, cast, ok, need: str):
    """cfg[key], or ``default`` when absent, converted by ``cast`` and checked by ``ok``."""
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


def _positive_int(cfg: dict, key: str, default=None, minimum: int = 1) -> int:
    return _value(cfg, key, default, int, lambda v: v >= minimum,
                  "a positive integer" if minimum == 1 else f"an integer >= {minimum}")


def _positive_float(cfg: dict, key: str, default=None) -> float:
    return _value(cfg, key, default, float, _positive, "a positive number")


def _profile_from_config(cfg: dict) -> VarianceProfile:
    raw = _require(cfg, "profile")
    try:
        return VarianceProfile(tuple(raw))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid profile: {exc}") from exc


def _potential_from_config(cfg: dict) -> Potential:
    spec = cfg.get("potential", {"type": "zero"})
    if not isinstance(spec, dict):
        raise ConfigError(f"potential must be an object, got {spec!r}")
    try:
        return Potential.from_dict(spec)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"invalid potential spec: {exc}") from exc


def _grid_from_config(cfg: dict, p: float, w: Potential) -> Grid:
    gspec = cfg.get("grid", {})
    if not isinstance(gspec, dict):
        raise ConfigError(f"grid must be an object, got {gspec!r}")
    m = _positive_int(gspec, "m", 2000, minimum=16)
    if gspec.get("half_width", "auto") == "auto":
        return Grid(domain_auto(p, w), m)
    return Grid(_value(gspec, "half_width", None, float, _positive,
                       "a positive number or 'auto'"), m)


# -- experiment configs ------------------------------------------------------
#
# One validated record per command.  ``raw`` keeps the exact dict read from
# the JSON file, so the manifest snapshot round-trips losslessly.


@dataclass(frozen=True)
class SampleConfig:
    raw: dict = field(repr=False)
    source: str
    n: int
    p: float | None
    replicas: int | None
    profile: "VarianceProfile | None"
    potential: Potential
    sweeps: int | None
    thin: int
    proposal_scales: tuple
    dump_samples: bool

    @classmethod
    def from_dict(cls, cfg: dict) -> "SampleConfig":
        source = _require(cfg, "source")
        if source not in ("toda", "beta", "profile", "mcmc"):
            raise ConfigError(f"unknown sample source {source!r}")
        # beta matrices are plain tridiagonal; the others are periodic
        n = _positive_int(cfg, "n", minimum=2 if source == "beta" else 3)
        p = replicas = sweeps = None
        profile = None
        if source == "profile":
            profile = _profile_from_config(cfg)
        else:
            p = _positive_float(cfg, "p")
        potential = _potential_from_config(cfg)
        if source == "mcmc":
            sweeps = _positive_int(cfg, "sweeps")
            if potential.is_tabulated and n > TABULATED_MCMC_MAX_N:
                raise ConfigError(f"mcmc with a tabulated potential needs n <= "
                                  f"{TABULATED_MCMC_MAX_N}, got {n}")
        else:
            replicas = _positive_int(cfg, "replicas")
        scales = _value(cfg, "proposal_scales", (0.5, 0.5),
                        lambda raw: tuple(float(x) for x in raw),
                        lambda t: len(t) == 2 and all(_positive(x) for x in t),
                        "two positive numbers")
        return cls(raw=cfg, source=source, n=n, p=p, replicas=replicas,
                   profile=profile, potential=potential,
                   sweeps=sweeps, thin=_positive_int(cfg, "thin", 1),
                   proposal_scales=scales,
                   dump_samples=bool(cfg.get("dump_samples", False)))


@dataclass(frozen=True)
class SolveConfig:
    raw: dict = field(repr=False)
    p: float
    potential: Potential
    grid: Grid
    theta0: float
    tol: float
    max_iter: int

    @classmethod
    def from_dict(cls, cfg: dict) -> "SolveConfig":
        p = _value(cfg, "p", None, float, lambda v: 0 <= v < math.inf,
                   "a nonnegative number")
        w = _potential_from_config(cfg)
        return cls(raw=cfg, p=p, potential=w,
                   grid=_grid_from_config(cfg, max(p, 0.5), w),
                   theta0=_value(cfg, "theta0", 0.5, float, lambda v: 0 < v <= 1,
                                 "a number in (0, 1]"),
                   tol=_positive_float(cfg, "tol", 1e-8),
                   max_iter=_value(cfg, "max_iter", 10000, int, lambda v: v >= 0,
                                   "a nonnegative integer"))


@dataclass(frozen=True)
class DosConfig:
    raw: dict = field(repr=False)
    potential: Potential
    grid: Grid
    p: float | None
    profile: "VarianceProfile | None"
    n_nodes: int
    h_p: float | None
    tol: float

    @classmethod
    def from_dict(cls, cfg: dict) -> "DosConfig":
        w = _potential_from_config(cfg)
        p = profile = h_p = None
        if "profile" in cfg:
            profile = _profile_from_config(cfg)
            grid = _grid_from_config(cfg, profile.maximum + 0.5, w)
        else:
            p = _positive_float(cfg, "p")
            grid = _grid_from_config(cfg, p + 0.5, w)
            if cfg.get("h_p") is not None:
                h_p = _value(cfg, "h_p", None, float, lambda v: 0 < v < p / 2,
                             f"a number in (0, p/2) = (0, {p / 2:g})")
        return cls(raw=cfg, potential=w, grid=grid, p=p, profile=profile,
                   n_nodes=_positive_int(cfg, "n_nodes", 15, minimum=5),
                   h_p=h_p, tol=_positive_float(cfg, "tol", 1e-8))


@dataclass(frozen=True)
class CompareConfig:
    raw: dict = field(repr=False)
    eigenvalues_csv: str
    density_csv: str
    bandwidth: float | None

    @classmethod
    def from_dict(cls, cfg: dict) -> "CompareConfig":
        bw = _positive_float(cfg, "bandwidth") if cfg.get("bandwidth") else None
        return cls(raw=cfg, eigenvalues_csv=str(_require(cfg, "eigenvalues_csv")),
                   density_csv=str(_require(cfg, "density_csv")),
                   bandwidth=bw)


CHECK_NAMES = ("beta_mixture", "free_energy", "nu_density", "d_lipschitz", "fc_convexity")


@dataclass(frozen=True)
class ChecksConfig:
    raw: dict = field(repr=False)
    p: float
    potential: Potential
    grid: Grid
    which: tuple
    n_nodes: int
    mixture_tol: float
    n: int
    sweeps: int
    tol: float

    @classmethod
    def from_dict(cls, cfg: dict) -> "ChecksConfig":
        p = _positive_float(cfg, "p", 1.0)
        w = _potential_from_config(cfg)
        which = _value(cfg, "checks", CHECK_NAMES, tuple,
                       lambda names: bool(names) and all(name in CHECK_NAMES
                                                         for name in names),
                       f"a non-empty list of check names from {', '.join(CHECK_NAMES)}")
        if "free_energy" in which and w.is_tabulated:
            raise ConfigError("the free_energy check needs a polynomial potential")
        return cls(raw=cfg, p=p, potential=w,
                   grid=_grid_from_config(cfg, p + 0.5, w),
                   which=which,
                   n_nodes=_positive_int(cfg, "n_nodes", 21, minimum=5),
                   mixture_tol=_positive_float(cfg, "mixture_tol", 1e-2),
                   n=_positive_int(cfg, "n", 200, minimum=3),
                   sweeps=_positive_int(cfg, "sweeps", 500),
                   tol=_positive_float(cfg, "tol", 1e-8))


class RunManifest:
    """Written before the run starts, finalized with digests afterwards."""

    def __init__(self, out_dir: str, command: str, config: dict, seed: int, workers: int):
        self.path = os.path.join(out_dir, "manifest.json")
        self.record = {
            "command": command,
            "artifact_version": __version__,
            "config": config,
            "master_seed": seed,
            "workers": workers,
            "status": "running",
            "outputs": {},
        }
        self._t0 = time.time()
        _atomic_write(self.path, _json_text(self.record))

    def finalize(self, outputs: list[str]) -> None:
        self.record["outputs"] = {os.path.basename(p): _digest(p) for p in outputs}
        self.record["wall_clock_seconds"] = time.time() - self._t0
        self.record["status"] = "complete"
        _atomic_write(self.path, _json_text(self.record))


# -- sample ----------------------------------------------------------------


def cmd_sample(cfg: dict, seed: int, workers: int, out_dir: str) -> int:
    config = SampleConfig.from_dict(cfg)
    manifest = RunManifest(out_dir, "sample", cfg, seed, workers)
    rows = []
    trace2 = []
    extra: dict = {}

    if config.source == "mcmc":
        report = mcmc_toda(SeededStream(seed, 0), config.n, config.p,
                           config.potential, sweeps=config.sweeps,
                           thin=config.thin,
                           proposal_scales=config.proposal_scales)
        for k, sample in enumerate(report.samples):
            rows.append((k, eigenvalues(sample).values))
            trace2.append(trace_power(sample, 2))
        extra = {
            "acceptance": report.acceptance,
            "autocorr_time": report.autocorr_time,
            "ess": report.ess,
            "sweeps": report.sweeps,
        }
        if config.dump_samples:
            for k, sample in enumerate(report.samples):
                dump_matrix(sample, os.path.join(out_dir, f"sample_{k:05d}.txt"))
    else:
        if config.source == "toda":
            draw = lambda stream: sample_toda_matrix(stream, config.n, config.p)
        elif config.source == "beta":
            draw = lambda stream: sample_beta_matrix(stream, config.n, config.p)
        else:
            draw = lambda stream: sample_profile_matrix(stream, config.n, config.profile)

        def task(stream):
            m = draw(stream)
            return eigenvalues(m).values, trace_power(m, 2)

        results = replica_map(task, config.replicas, seed)
        for k, (vals, t2) in enumerate(results):
            rows.append((k, vals))
            trace2.append(t2)

    eig_path = os.path.join(out_dir, "eigenvalues.csv")
    lines = ["replica,lambda"]
    for k, vals in rows:
        lines.extend(f"{k},{v:.17g}" for v in vals)
    _atomic_write(eig_path, "\n".join(lines) + "\n")

    allvals = np.concatenate([vals for _, vals in rows])
    t2 = np.asarray(trace2)
    summary = {
        "source": config.source,
        "n": config.n,
        "replica_count": len(rows),
        "eigenvalue_count": int(allvals.size),
        "moments": {str(k): float(np.mean(allvals ** k)) for k in (1, 2, 3, 4)},
        "trace_power2_mean": float(t2.mean()),
        "trace_power2_stderr": float(t2.std(ddof=1) / np.sqrt(t2.size)) if t2.size > 1 else 0.0,
        "run": _run_context(cfg, seed),
        **extra,
    }
    summary_path = os.path.join(out_dir, "summary.json")
    _atomic_write(summary_path, _json_text(summary))
    outputs = [eig_path, summary_path]
    if config.source == "mcmc" and config.dump_samples:
        outputs += [os.path.join(out_dir, f"sample_{k:05d}.txt") for k in range(len(rows))]
    manifest.finalize(outputs)
    return 0


# -- solve -----------------------------------------------------------------


def cmd_solve(cfg: dict, seed: int, workers: int, out_dir: str) -> int:
    config = SolveConfig.from_dict(cfg)
    manifest = RunManifest(out_dir, "solve", cfg, seed, workers)
    solution = solve_equilibrium(config.p, config.potential, config.grid,
                                 theta0=config.theta0, tol=config.tol,
                                 max_iter=config.max_iter)
    density_path = os.path.join(out_dir, "density.csv")
    _atomic_write(density_path, solution.density.to_csv_text())
    solution_path = os.path.join(out_dir, "solution.json")
    record = solution.to_json_dict(density_file="density.csv")
    record["second_moment"] = solution.density.moment(2)
    _atomic_write(solution_path, _json_text(record))
    manifest.finalize([density_path, solution_path])
    if not solution.converged:
        raise NonConvergenceExit(
            f"equilibrium solve did not converge: residual {solution.residual:.3e}")
    return 0


# -- dos ---------------------------------------------------------------------


def cmd_dos(cfg: dict, seed: int, workers: int, out_dir: str) -> int:
    config = DosConfig.from_dict(cfg)
    manifest = RunManifest(out_dir, "dos", cfg, seed, workers)
    if config.profile is not None:
        nu = mixture_over_profile(config.profile, config.potential, config.grid,
                                  config.n_nodes, tol=config.tol)
        report = {"mode": "profile", "profile": list(config.profile.values),
                  "n_nodes": config.n_nodes}
    else:
        result = dos_from_equilibrium(config.p, config.potential, config.grid,
                                      h_p=config.h_p, tol=config.tol)
        nu = result.nu
        report = {
            "mode": "single",
            "P": config.p,
            "fd_step": result.fd_step,
            "negativity": result.negativity,
        }
    nu_path = os.path.join(out_dir, "nu.csv")
    _atomic_write(nu_path, nu.to_csv_text())
    report.update({
        "mass": nu.mass(),
        "moments": {str(k): nu.moment(k) for k in (1, 2, 3, 4)},
        "run": _run_context(cfg, seed),
    })
    report_path = os.path.join(out_dir, "report.json")
    _atomic_write(report_path, _json_text(report))
    manifest.finalize([nu_path, report_path])
    return 0


# -- compare -----------------------------------------------------------------


def _load_empirical_csv(path: str):
    """Eigenvalue list, or a density when the file carries an 'x,rho' header."""
    try:
        with open(path) as fh:
            header = fh.readline().strip()
        if header == "x,rho":
            return GridDensity.from_csv(path)
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return EmpiricalSpectralMeasure(data[:, 1])
    except (OSError, ValueError, IndexError) as exc:
        raise ConfigError(f"cannot read empirical CSV: {exc}") from exc


def cmd_compare(cfg: dict, seed: int, workers: int, out_dir: str) -> int:
    config = CompareConfig.from_dict(cfg)
    empirical_input = _load_empirical_csv(config.eigenvalues_csv)
    try:
        density = GridDensity.from_csv(config.density_csv)
    except (OSError, ValueError, IndexError) as exc:
        raise ConfigError(f"cannot read density CSV: {exc}") from exc
    manifest = RunManifest(out_dir, "compare", cfg, seed, workers)
    grid = density.grid
    kernel = build_log_kernel(grid)
    if isinstance(empirical_input, GridDensity):
        if empirical_input.grid != grid:
            raise ConfigError("density inputs live on different grids")
        es = None
        smoothed = empirical_input
        empirical = empirical_input.values
        count = grid.m
    else:
        es = empirical_input
        lo = grid.x[0] - grid.h / 2.0
        hi = grid.x[-1] + grid.h / 2.0
        if es.values[0] < lo or es.values[-1] > hi:
            raise ConfigError("eigenvalue range exceeds the density grid")
        smoothed = smooth_empirical(es, grid, bandwidth=config.bandwidth)
        hist, _ = np.histogram(es.values,
                               bins=np.concatenate((grid.x - grid.h / 2.0,
                                                    [grid.x[-1] + grid.h / 2.0])))
        empirical = hist / (es.values.size * grid.h)
        count = len(es)
    subject = es if es is not None else smoothed
    report = {
        "bl_bv_distance": bl_bv_distance(subject, density),
        "ks_distance": ks_distance(subject, density),
        "log_energy_distance": log_energy_distance(smoothed, density, kernel),
        "moments_empirical": {str(k): subject.moment(k) for k in (1, 2, 3, 4)},
        "moments_theoretical": {str(k): density.moment(k) for k in (1, 2, 3, 4)},
        "eigenvalue_count": count,
        "run": _run_context(cfg, seed),
    }
    overlay_path = os.path.join(out_dir, "overlay.csv")
    lines = ["x,rho_theory,rho_empirical"]
    lines.extend(f"{x:.17g},{r:.17g},{e:.17g}"
                 for x, r, e in zip(grid.x, density.values, empirical))
    _atomic_write(overlay_path, "\n".join(lines) + "\n")
    report_path = os.path.join(out_dir, "report.json")
    _atomic_write(report_path, _json_text(report))
    manifest.finalize([overlay_path, report_path])
    return 0


# -- checks ------------------------------------------------------------------


def cmd_checks(cfg: dict, seed: int, workers: int, out_dir: str) -> int:
    config = ChecksConfig.from_dict(cfg)
    manifest = RunManifest(out_dir, "checks", cfg, seed, workers)
    p, w, grid, tol = config.p, config.potential, config.grid, config.tol
    bundle = {}
    if "beta_mixture" in config.which:
        rep = beta_mixture_check(p, w, grid, n_nodes=config.n_nodes, tol=tol)
        rep["pass"] = bool(rep["sup_cdf_gap"] <= config.mixture_tol)
        bundle["beta_mixture"] = rep
    if "free_energy" in config.which:
        rep = free_energy_relation_check(p, w, n=config.n, mc_sweeps=config.sweeps,
                                         seed=seed, workers=workers, tol=tol)
        rep["pass"] = bool(rep["gap"] <= max(3.0 * rep["stderr"], 0.02))
        bundle["free_energy"] = rep
    if "nu_density" in config.which:
        rep = nu_density_relation_check(p, w, grid, tol=tol)
        rep["pass"] = bool(abs(rep["normalization"] - 1.0) <= 1e-3
                           and rep["min_density_factor"] >= -1e-6)
        bundle["nu_density"] = rep
    if "d_lipschitz" in config.which:
        ratios = d_lipschitz_sweep(w=w, grid=grid)
        ok = all(max(r) <= 1.5 * r[0] + 1e-9 for r in ratios.values())
        bundle["d_lipschitz"] = {"ratios": {str(k): v for k, v in ratios.items()},
                                 "pass": bool(ok)}
    if "fc_convexity" in config.which:
        rep = fc_convexity_check(w=w, grid=grid, tol=tol)
        rep["pass"] = bool(rep["min_second_difference"] >= -1e-6)
        bundle["fc_convexity"] = rep
    bundle["run"] = _run_context(cfg, seed)
    report_path = os.path.join(out_dir, "checks.json")
    _atomic_write(report_path, _json_text(bundle))
    manifest.finalize([report_path])
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
                        help="worker processes for the checks free-energy integration")
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
    # any other exception is a bug and keeps its traceback
    try:
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        # --seed and --workers override the config keys and are checked alike
        resolved = {**cfg, **{key: getattr(args, key) for key in ("seed", "workers")
                              if getattr(args, key) is not None}}
        seed = _value(resolved, "seed", 0, int, lambda v: v >= 0, "a nonnegative integer")
        workers = _positive_int(resolved, "workers", os.cpu_count() or 1)
        out_dir = args.out if args.out is not None else str(cfg.get("out", "."))
        os.makedirs(out_dir, exist_ok=True)
        return _COMMANDS[args.command](cfg, seed, workers, out_dir)
    except (ConfigError, PotentialDomainError, NonConfiningError,
            DomainTooSmallError) as exc:
        print(f"error: command={args.command} reason={exc}", file=sys.stderr)
        return 1
    except (NonConvergenceExit, NonConvergedError, DosStepError) as exc:
        print(f"error: command={args.command} reason={exc}", file=sys.stderr)
        return 2


def script_entry() -> None:
    sys.exit(main())
