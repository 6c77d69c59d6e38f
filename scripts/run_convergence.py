#!/usr/bin/env python3
"""Convergence of the Toda spectral measure to the density of states.

Samples replicas of the periodic Lax matrix at pressure P, aggregates the
spectra, solves for nu_P on an automatically sized grid, and prints the
BV/Lipschitz and Kolmogorov-Smirnov distances.  Writes plot-ready CSVs
through the CLI so each stage leaves a manifest.
"""

import argparse
import json
import os
import sys
import tempfile

from todagibbs.cli import main as cli_main


def run(args):
    work = args.out or tempfile.mkdtemp(prefix="toda_convergence_")
    os.makedirs(work, exist_ok=True)

    sample_cfg = {"source": args.source, "n": args.n, "p": args.p,
                  "replicas": args.replicas, "seed": args.seed}
    dos_cfg = {"p": args.p, "grid": {"m": args.grid_points}}
    with open(os.path.join(work, "sample.json"), "w") as fh:
        json.dump(sample_cfg, fh)
    with open(os.path.join(work, "dos.json"), "w") as fh:
        json.dump(dos_cfg, fh)

    rc = cli_main(["sample", "--config", os.path.join(work, "sample.json"),
                   "--out", os.path.join(work, "sample")])
    if rc != 0:
        return rc
    rc = cli_main(["dos", "--config", os.path.join(work, "dos.json"),
                   "--out", os.path.join(work, "dos")])
    if rc != 0:
        return rc

    compare_cfg = {
        "eigenvalues_csv": os.path.join(work, "sample", "eigenvalues.csv"),
        "density_csv": os.path.join(work, "dos", "nu.csv"),
    }
    with open(os.path.join(work, "compare.json"), "w") as fh:
        json.dump(compare_cfg, fh)
    rc = cli_main(["compare", "--config", os.path.join(work, "compare.json"),
                   "--out", os.path.join(work, "compare")])
    if rc != 0:
        return rc

    with open(os.path.join(work, "compare", "report.json")) as fh:
        report = json.load(fh)
    print(f"N={args.n} replicas={args.replicas} P={args.p} source={args.source}")
    print(f"  bl_bv_distance     = {report['bl_bv_distance']:.6f}")
    print(f"  ks_distance        = {report['ks_distance']:.6f}")
    print(f"  log_energy_distance= {report['log_energy_distance']:.6f}")
    print(f"  outputs in {work}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=2000)
    parser.add_argument("--p", type=float, default=1.0)
    parser.add_argument("--replicas", type=int, default=50)
    parser.add_argument("--source", choices=["toda", "beta"], default="toda")
    parser.add_argument("--grid-points", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--out", default=None, help="working directory")
    sys.exit(run(parser.parse_args()))
