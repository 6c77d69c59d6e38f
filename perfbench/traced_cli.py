"""Run one todagibbs command in this process with a span around each layer call.

    python3 perfbench/traced_cli.py TOTALS_JSON COMMAND --config ... --out ...

Every wrapped function is replaced at each ``todagibbs`` module attribute that
refers to it, because callers resolve names at call time: wrapping
``matrices.eigenvalues`` also replaces ``cli.eigenvalues``, and wrapping
``equilibrium.solve_equilibrium`` also replaces ``dos.solve_equilibrium``.
No source file is edited. After ``todagibbs.cli.main`` returns, the per-layer
totals of this process are written to TOTALS_JSON; the parent adds the totals
of all commands of a pass.

Spans opened inside pool processes never reach this process; trace a
process-parallel command at one worker.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict

from tracer import Tracer


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _mcmc_attrs(fn):
    def annotate(args, kwargs, report):
        a = _bound(fn, args, kwargs)
        return {"proposals": 2 * a["n"] * a["sweeps"],
                "accept_diag": report.acceptance["diag"],
                "accept_offdiag": report.acceptance["offdiag"],
                "tau_int": report.autocorr_time, "ess": report.ess,
                "scale_diag": report.proposal_scales[0],
                "scale_offdiag": report.proposal_scales[1]}
    return annotate


def _eig_attrs(args, kwargs, result):
    m = args[0]
    return {"size": f"{'periodic' if m.periodic else 'tridiagonal'}_n{m.n}"}


def _solve_attrs(args, kwargs, solution):
    return {"iterations": solution.iterations}


def _smooth_attrs(args, kwargs, result):
    return {"cells": len(args[0]) * result.grid.m}


def _replace_everywhere(original, replacement) -> int:
    hits = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "todagibbs" or name.startswith("todagibbs.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                hits += 1
    return hits


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of every todagibbs layer."""
    from todagibbs import cli, dos, equilibrium, matrices, metrics, sampling
    from todagibbs.potentials import Potential

    table = [
        ("sampling.draw", sampling.sample_toda_matrix, None),
        ("sampling.draw", sampling.sample_beta_matrix, None),
        ("sampling.draw", sampling.sample_profile_matrix, None),
        ("sampling.mcmc", sampling.mcmc_toda, _mcmc_attrs(sampling.mcmc_toda)),
        ("matrices.eig", matrices.eigenvalues, _eig_attrs),
        ("matrices.trace_power", matrices.trace_power, None),
        ("equilibrium.solve", equilibrium.solve_equilibrium, _solve_attrs),
        ("equilibrium.kernel", equilibrium.build_log_kernel, None),
        ("equilibrium.domain_auto", equilibrium.domain_auto, None),
        ("dos.dos", dos.dos_from_equilibrium, None),
        ("metrics.smooth", metrics.smooth_empirical, _smooth_attrs),
        ("metrics.bl_bv", metrics.bl_bv_distance, None),
        ("metrics.ks", metrics.ks_distance, None),
        ("metrics.log_energy", metrics.log_energy_distance, None),
    ]
    for name, fn, annotate in table:
        if _replace_everywhere(fn, tracer.wrap(name, fn, annotate)) == 0:
            raise RuntimeError(f"no todagibbs module exposes {fn.__qualname__}")

    # Replicas run in pool threads: each task adopts the replica_map span as parent.
    replica_map = sampling.replica_map

    def traced_replica_map(fn, *args, **kwargs):
        with tracer.span("sampling.replica_map") as sp:
            def task(stream):
                with tracer.adopt(sp):
                    return fn(stream)
            result = replica_map(task, *args, **kwargs)
        sp.attrs["workers"] = _bound(replica_map, (fn,) + args, kwargs)["workers"]
        return result

    _replace_everywhere(replica_map, traced_replica_map)

    for method in ("__call__", "confinement"):
        setattr(Potential, method, tracer.wrap("potentials.eval", getattr(Potential, method)))

    for command, fn in list(cli._COMMANDS.items()):
        cli._COMMANDS[command] = tracer.wrap(f"cli.{command}", fn)


def totals(tracer: Tracer) -> dict:
    """Additive per-layer totals of one process: busy time, calls, self time, attrs."""
    kids = tracer.children()
    by_name = defaultdict(list)
    for sp in tracer.spans:
        by_name[sp.name].append(sp)
    out: dict = defaultdict(float)
    for name, spans in by_name.items():
        out[f"{name}.busy_s"] = tracer.busy({name})
        out[f"{name}.calls"] = len(spans)
        out[f"{name}.self_s"] = sum(tracer.self_time(sp, kids) for sp in spans)
        for sp in spans:
            for key, value in sp.attrs.items():
                if isinstance(value, (int, float)):
                    out[f"{name}.{key}"] += value
    for sp in by_name["matrices.eig"]:
        out[f"matrices.eig.{sp.attrs['size']}.s"] += sp.duration
        out[f"matrices.eig.{sp.attrs['size']}.calls"] += 1
    return dict(out)


def main(argv) -> int:
    totals_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    instrument(tracer)
    from todagibbs import cli
    rc = cli.main(cli_args)
    with open(totals_path, "w") as fh:
        json.dump({"rc": rc, "totals": totals(tracer)}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
