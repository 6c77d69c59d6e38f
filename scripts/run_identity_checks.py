#!/usr/bin/env python3
"""Run the structural identity checks and print a compact scoreboard.

Covers the pressure-mixture identity, the free-energy derivative relation
(thermodynamic integration vs the equilibrium solver's multipliers), the
density representation of nu_P, the Lipschitz-in-P secant ratios, and the
discrete convexity of the Coulomb free energy.
"""

import argparse
import json
import os
import sys
import tempfile

from todagibbs.cli import main as cli_main


def run(args):
    work = args.out or tempfile.mkdtemp(prefix="toda_checks_")
    os.makedirs(work, exist_ok=True)
    cfg = {
        "p": args.p,
        "potential": ({"type": "polynomial", "coeffs": [0, 0, 0, 0, args.quartic]}
                      if args.quartic > 0 else {"type": "zero"}),
        "grid": {"m": args.grid_points},
        "n": args.n,
        "sweeps": args.sweeps,
        "n_nodes": args.nodes,
        "seed": args.seed,
    }
    cfg_path = os.path.join(work, "checks_config.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    rc = cli_main(["checks", "--config", cfg_path, "--out", work])
    if rc != 0:
        return rc
    with open(os.path.join(work, "checks.json")) as fh:
        bundle = json.load(fh)
    checks = {name: rep for name, rep in bundle.items() if name != "run"}
    for name, rep in checks.items():
        status = "PASS" if rep.get("pass") else "FAIL"
        detail = {k: v for k, v in rep.items()
                  if isinstance(v, (int, float)) and k != "pass"}
        print(f"[{status}] {name}: " + ", ".join(f"{k}={v:.4g}" for k, v in detail.items()))
    print(f"outputs in {work}")
    return 0 if all(rep.get("pass") for rep in checks.values()) else 3


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", type=float, default=1.0)
    parser.add_argument("--quartic", type=float, default=0.1,
                        help="coefficient of x^4 in V (0 for V = 0)")
    parser.add_argument("--n", type=int, default=200)
    parser.add_argument("--sweeps", type=int, default=400)
    parser.add_argument("--nodes", type=int, default=21)
    parser.add_argument("--grid-points", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None)
    sys.exit(run(parser.parse_args()))
