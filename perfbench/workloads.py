"""The benchmark workloads: CLI commands, output gates and fingerprints.

Each workload is a fixed sequence of ``todagibbs`` commands. The benchmark
writes every command's JSON config into the pass directory and runs the
command with that directory as its working directory, so config paths are
relative (``sample/eigenvalues.csv``). The program receives only the configs
and the ``--seed``/``--workers``/``--out`` flags.

Gates use the repository's own acceptance bounds: criterion 1 for the Toda
spectra and criterion 6 for the quartic chain.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

QUARTIC = {"type": "polynomial", "coeffs": [0, 0, 0, 0, 1.0]}        # criterion 6
ZERO = {"type": "zero"}

# "full" makes one pass take 3 to 5 s (quartic_mcmc) and 6 to 8 s
# (toda_spectra) on a 2-core desk machine; "smoke" is for the benchmark's
# own tests.
SIZES = {
    "full": {"toda_replicas": 4, "mcmc_sweeps": 125},
    "smoke": {"toda_replicas": 2, "mcmc_sweeps": 60},
}

# mcmc_toda's default burn-in share
BURN_IN_FRACTION = 0.2


@dataclass(frozen=True)
class Command:
    label: str      # output directory and config file stem, unique in a pass
    cli: str        # todagibbs subcommand
    config: dict


def _read_json(pass_dir: str, label: str, name: str) -> dict:
    with open(os.path.join(pass_dir, label, name)) as fh:
        return json.load(fh)


class Workload:
    name: str
    why: str

    def commands(self, size: dict) -> list[Command]:
        raise NotImplementedError

    def gate(self, pass_dir: str, cmd: Command) -> list[str]:
        """Gate failures of one command whose process exited 0."""
        raise NotImplementedError

    def fingerprint(self, pass_dir: str) -> dict:
        """Output numbers that show whether the numerics moved."""
        raise NotImplementedError

    def extras(self, pass_dir: str, walls: dict) -> dict:
        """Workload-specific end-to-end figures, each as (value, unit)."""
        raise NotImplementedError


def _compare_commands(sample_cfg: dict, potential: dict) -> list[Command]:
    return [
        Command("sample", "sample", sample_cfg),
        Command("dos", "dos", {"p": 1.0, "potential": potential,
                               "grid": {"half_width": "auto", "m": 2000}}),
        Command("compare", "compare", {"eigenvalues_csv": "sample/eigenvalues.csv",
                                       "density_csv": "dos/nu.csv"}),
    ]


def _compare_fingerprint(pass_dir: str) -> dict:
    rep = _read_json(pass_dir, "compare", "report.json")
    return {"d_blbv": rep["bl_bv_distance"], "ks": rep["ks_distance"],
            "log_energy": rep["log_energy_distance"],
            "moments_empirical": rep["moments_empirical"]}


class TodaSpectra(Workload):
    name = "toda_spectra"
    why = ("Toda sample N=2000 -> dos -> compare: dense periodic eigensolves, "
           "direct-sum KDE, the replica thread pool and CSV formatting")

    def commands(self, size):
        return _compare_commands({"source": "toda", "n": 2000, "p": 1.0,
                                  "replicas": size["toda_replicas"]}, ZERO)

    def gate(self, pass_dir, cmd):
        if cmd.label != "compare":
            return []
        rep = _read_json(pass_dir, "compare", "report.json")
        out = []
        if not rep["bl_bv_distance"] <= 0.02:
            out.append(f"compare: d_BLBV {rep['bl_bv_distance']:.4g} > 0.02")
        if not rep["ks_distance"] <= 0.02:
            out.append(f"compare: KS {rep['ks_distance']:.4g} > 0.02")
        return out

    def fingerprint(self, pass_dir):
        return _compare_fingerprint(pass_dir)

    def extras(self, pass_dir, walls):
        count = _read_json(pass_dir, "sample", "summary.json")["eigenvalue_count"]
        return {"sample_s": (walls["sample"], "s"), "compare_s": (walls["compare"], "s"),
                "eigs_per_s": (count / walls["sample"], "1/s")}


class QuarticMcmc(Workload):
    name = "quartic_mcmc"
    why = ("one serial Metropolis chain N=200 under V=x^4: the per-site Python "
           "loop and small dense window deltas, no large eigensolves")

    def commands(self, size):
        return _compare_commands({"source": "mcmc", "n": 200, "p": 1.0, "thin": 5,
                                  "sweeps": size["mcmc_sweeps"], "potential": QUARTIC},
                                 QUARTIC)

    def gate(self, pass_dir, cmd):
        if cmd.label != "compare":
            return []
        d = _read_json(pass_dir, "compare", "report.json")["bl_bv_distance"]
        return [] if d <= 0.05 else [f"compare: d_BLBV {d:.4g} > 0.05"]

    def fingerprint(self, pass_dir):
        summary = _read_json(pass_dir, "sample", "summary.json")
        return {"acceptance": summary["acceptance"], "tau_int": summary["autocorr_time"],
                "ess": summary["ess"], "d_blbv": _compare_fingerprint(pass_dir)["d_blbv"]}

    def extras(self, pass_dir, walls):
        summary = _read_json(pass_dir, "sample", "summary.json")
        sweeps = summary["sweeps"]
        kept = sweeps - int(BURN_IN_FRACTION * sweeps)
        return {"sample_s": (walls["sample"], "s"), "compare_s": (walls["compare"], "s"),
                "sweeps_per_s": (sweeps / walls["sample"], "1/s"),
                "ess_per_s": (kept / summary["autocorr_time"] / walls["sample"], "1/s")}


WORKLOADS = {w.name: w for w in (TodaSpectra(), QuarticMcmc())}
