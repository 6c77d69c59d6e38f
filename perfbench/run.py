"""todagibbs benchmark: seeded CLI workloads, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory. One client runs the workload's commands one after another
(a closed loop), each in a fresh interpreter as a user would start it, and
repeats the whole sequence while the next repetition still fits in ``S``
seconds (at least once). Every command gets ``--workers os.cpu_count()``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each
repetition twice, untraced and then with every command under
``traced_cli.py``, and reports the per-layer metrics. Outputs are gated for
correctness and their digests are compared with the first run of the same
workload, seed and code. The last line of standard output is one JSON object;
the full record (all metrics, fingerprints, machine) goes to
``.perfbench_runs/results/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from workloads import SIZES, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_runs")

RUNNER = "import sys; from todagibbs.cli import main; sys.exit(main(sys.argv[1:]))"
# One timed import before each pass, and at least this many per untraced run.
SETUP_PROBES = 3
# Whole run, including set-up probes, must end well inside 180 s.
RUN_DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class CheckoutError(RuntimeError):
    """The directory is not a todagibbs source checkout."""


# -- processes ------------------------------------------------------------


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def run_process(argv, cwd, log_path, timeout) -> dict:
    """Run ``argv`` to completion; wall clock, CPU and peak RSS of it and its children."""
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_env(), stdout=log,
                                stderr=subprocess.STDOUT, start_new_session=True)
        timer = threading.Timer(max(timeout, 1.0), os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss, "rc": proc.returncode}


def setup_probe(probe_dir: str) -> float:
    """Wall clock of a fresh interpreter importing ``todagibbs.cli``."""
    log = os.path.join(probe_dir, "setup.log")
    rec = run_process([sys.executable, "-c", "import todagibbs.cli"], probe_dir, log, 60)
    if rec["rc"] != 0:
        with open(log) as fh:
            raise CheckoutError(f"cannot import todagibbs.cli from {SRC}:\n{fh.read()}")
    return rec["wall_s"]


# -- one pass of a workload -------------------------------------------------


def run_pass(workload, size, pass_dir, seed, workers, traced, deadline) -> dict:
    """Run every command of the workload once; gate its outputs."""
    os.makedirs(pass_dir)
    commands, totals = [], {}
    for cmd in workload.commands(size):
        with open(os.path.join(pass_dir, cmd.label + ".json"), "w") as fh:
            json.dump(cmd.config, fh)
        args = [cmd.cli, "--config", cmd.label + ".json", "--out", cmd.label,
                "--seed", str(seed), "--workers", str(workers)]
        totals_path = os.path.join(pass_dir, cmd.label + ".totals.json")
        argv = ([sys.executable, os.path.join(HERE, "traced_cli.py"), totals_path] if traced
                else [sys.executable, "-c", RUNNER]) + args
        rec = run_process(argv, pass_dir, os.path.join(pass_dir, cmd.label + ".log"),
                          deadline - time.monotonic())
        rec.update(label=cmd.label, failures=[])
        if rec["rc"] != 0:
            rec["failures"].append(f"{cmd.label}: exit code {rec['rc']}")
        else:
            try:
                _read_outputs(workload, pass_dir, cmd, rec)
                if traced:
                    with open(totals_path) as fh:
                        for key, value in json.load(fh)["totals"].items():
                            totals[key] = totals.get(key, 0.0) + value
            except (OSError, KeyError, ValueError) as exc:
                rec["failures"].append(f"{cmd.label}: unreadable output ({exc!r})")
        commands.append(rec)
    result = {"traced": traced, "commands": commands, "totals": totals,
              "wall_s": sum(c["wall_s"] for c in commands),
              "cpu_s": sum(c["cpu_s"] for c in commands),
              "peak_rss_mb": max(c["maxrss_kb"] for c in commands) / 1024.0}
    if not any(c["failures"] for c in commands):
        walls = {c["label"]: c["wall_s"] for c in commands}
        result["fingerprint"] = workload.fingerprint(pass_dir)
        result["extras"] = workload.extras(pass_dir, walls)
    return result


def _read_outputs(workload, pass_dir, cmd, rec) -> None:
    out_dir = os.path.join(pass_dir, cmd.label)
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    if manifest["status"] != "complete":
        rec["failures"].append(f"{cmd.label}: manifest status {manifest['status']}")
    rec["digests"] = manifest["outputs"]
    rec["bytes_out"] = sum(os.path.getsize(os.path.join(out_dir, name))
                           for name in manifest["outputs"])
    rec["manifest_gap_s"] = rec["wall_s"] - manifest["wall_clock_seconds"]
    rec["failures"].extend(workload.gate(pass_dir, cmd))


# -- digests ------------------------------------------------------------------


def code_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "todagibbs")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def check_digests(passes, key: str) -> None:
    """Mark commands whose output digests differ from the first run at ``key``."""
    store_path = os.path.join(WORK, "digests.json")
    try:
        with open(store_path) as fh:
            store = json.load(fh)
    except (OSError, ValueError):
        store = {}
    reference = store.get(key, {})
    for p in passes:
        for c in p["commands"]:
            if "digests" not in c:
                continue
            ref = reference.setdefault(c["label"], c["digests"])
            if ref != c["digests"]:
                c["failures"].append(f"{c['label']}: output digests differ from the "
                                     "first run at this seed and code")
    store[key] = reference
    tmp = store_path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(store, fh, indent=1, sort_keys=True)
    os.replace(tmp, store_path)


# -- per-layer metrics --------------------------------------------------------


def layer_metrics(untraced: dict, traced: dict) -> dict:
    """Per-layer metrics of one traced pass, with its untraced twin for reference."""
    t = traced["totals"]

    def g(key):
        return t.get(key, 0.0)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    def self_sum(prefix):
        return sum(v for k, v in t.items() if k.startswith(prefix) and k.endswith(".self_s"))

    mcmc_calls = g("sampling.mcmc.calls")
    m = {
        "cli.self_s": (self_sum("cli."), "s"),
        "cli.bytes_out": (sum(c.get("bytes_out", 0) for c in untraced["commands"]), "B"),
        "cli.manifest_gap_s": (sum(c.get("manifest_gap_s", 0.0)
                                   for c in untraced["commands"]), "s"),
        "sampling.replica_map_s": (g("sampling.replica_map.busy_s"), "s"),
        "sampling.draw_s": (g("sampling.draw.busy_s"), "s"),
        "sampling.draw_calls": (g("sampling.draw.calls"), "count"),
        "sampling.workers": (ratio(g("sampling.replica_map.workers"),
                                   g("sampling.replica_map.calls")), "count"),
        "sampling.mcmc_s": (g("sampling.mcmc.self_s"), "s"),
        "sampling.mcmc_calls": (mcmc_calls, "count"),
        "sampling.us_per_move": (ratio(g("sampling.mcmc.self_s"),
                                       g("sampling.mcmc.proposals"), 1e6), "us"),
        "sampling.accept_diag": (ratio(g("sampling.mcmc.accept_diag"), mcmc_calls), "1"),
        "sampling.accept_offdiag": (ratio(g("sampling.mcmc.accept_offdiag"), mcmc_calls), "1"),
        "sampling.tau_int": (ratio(g("sampling.mcmc.tau_int"), mcmc_calls), "sweeps"),
        "matrices.eig_s": (g("matrices.eig.busy_s"), "s"),
        "matrices.eig_calls": (g("matrices.eig.calls"), "count"),
    }
    for n in (2000, 200):
        size = f"periodic_n{n}"
        m[f"matrices.eig_ms.{size}"] = (ratio(g(f"matrices.eig.{size}.s"),
                                              g(f"matrices.eig.{size}.calls"), 1e3), "ms")
    m.update({
        "matrices.trace_power_s": (g("matrices.trace_power.busy_s"), "s"),
        "matrices.trace_power_calls": (g("matrices.trace_power.calls"), "count"),
        "equilibrium.solve_s": (g("equilibrium.solve.busy_s"), "s"),
        "equilibrium.solve_calls": (g("equilibrium.solve.calls"), "count"),
        "equilibrium.iterations": (g("equilibrium.solve.iterations"), "count"),
        "equilibrium.ms_per_iteration": (ratio(g("equilibrium.solve.self_s"),
                                               g("equilibrium.solve.iterations"), 1e3), "ms"),
        "equilibrium.kernel_builds": (g("equilibrium.kernel.calls"), "count"),
        "equilibrium.kernel_s": (g("equilibrium.kernel.busy_s"), "s"),
        "equilibrium.domain_auto_s": (g("equilibrium.domain_auto.busy_s"), "s"),
        "dos.self_s": (self_sum("dos."), "s"),
        "dos.dos_calls": (g("dos.dos.calls"), "count"),
        "metrics.smooth_s": (g("metrics.smooth.busy_s"), "s"),
        "metrics.smooth_cells": (g("metrics.smooth.cells"), "count"),
        "metrics.bl_bv_s": (g("metrics.bl_bv.busy_s"), "s"),
        "metrics.ks_s": (g("metrics.ks.busy_s"), "s"),
        "metrics.log_energy_s": (g("metrics.log_energy.busy_s"), "s"),
        "potentials.eval_s": (g("potentials.eval.busy_s"), "s"),
        "potentials.eval_calls": (g("potentials.eval.calls"), "count"),
        "trace.wall_s": (traced["wall_s"], "s"),
        "trace.overhead_s": (traced["wall_s"] - untraced["wall_s"], "s"),
    })
    return m


# -- the run ------------------------------------------------------------------


def machine_record(workers: int) -> dict:
    import numpy
    import scipy

    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version")}
    except (TypeError, AttributeError):
        blas = {"name": None, "version": None}
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "workers": workers,
    }


def _median_metrics(rows: list[dict]) -> dict:
    """Median over passes of each (value, unit) metric present in every row."""
    names = [k for k in rows[0] if all(k in r for r in rows)]
    return {k: {"value": statistics.median(r[k][0] for r in rows), "unit": rows[0][k][1]}
            for k in names}


def run_benchmark(workload_name: str, seed: int, seconds: float, trace: bool,
                  size: dict | None = None) -> dict:
    if not os.path.isfile(os.path.join(SRC, "todagibbs", "cli.py")):
        raise CheckoutError(f"no todagibbs sources under {SRC}")
    workload = WORKLOADS[workload_name]
    size = SIZES["full"] if size is None else size
    workers = os.cpu_count() or 1
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    run_dir = os.path.join(WORK, f"{workload_name}-s{seed}-t{int(trace)}-{os.getpid()}")
    os.makedirs(run_dir)
    load_start = os.getloadavg()
    try:
        setup_probe(run_dir)                   # warm-up; fails fast outside a checkout
        setup, passes, layer_rows, i = [], [], [], 0
        t0 = time.monotonic()
        while True:
            p_start = time.monotonic()
            if not trace:
                setup.append(setup_probe(run_dir))
            untraced = run_pass(workload, size, os.path.join(run_dir, f"p{i}"), seed,
                                workers, False, deadline)
            passes.append(untraced)
            if trace:
                traced = run_pass(workload, size, os.path.join(run_dir, f"p{i}t"), seed,
                                  workers, True, deadline)
                passes.append(traced)
                layer_rows.append(layer_metrics(untraced, traced))
            i += 1
            took = time.monotonic() - p_start
            now = time.monotonic()
            if now - t0 + took > seconds or now + took > deadline:
                break
        while not trace and len(setup) < SETUP_PROBES:
            setup.append(setup_probe(run_dir))
        configs = json.dumps([c.config for c in workload.commands(size)], sort_keys=True)
        check_digests(passes, "|".join([workload_name, f"seed={seed}", code_digest(),
                                        hashlib.sha256(configs.encode()).hexdigest()]))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    commands = [c for p in passes for c in p["commands"]]
    failures = [f for c in commands for f in c["failures"]]
    failed = sum(1 for c in commands if c["failures"])
    clean = [p for p in passes if "extras" in p and not any(c["failures"] for c in p["commands"])]
    timed = [p for p in passes if not p["traced"]]
    e2e_rows = [{"wall_s": (p["wall_s"], "s"), "cpu_s": (p["cpu_s"], "s"),
                 "peak_rss_mb": (p["peak_rss_mb"], "MB"), **p.get("extras", {})}
                for p in timed]
    e2e = _median_metrics(e2e_rows)
    # Each command's median over passes, summed: a burst of machine load
    # during one command of one pass does not move the result.
    for key in ("wall_s", "cpu_s"):
        e2e[key]["value"] = sum(statistics.median(cmds[key] for cmds in per_command)
                                for per_command in zip(*(p["commands"] for p in timed)))
    if setup:
        e2e["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    e2e["failed_ratio"] = {"value": failed / len(commands), "unit": "1"}
    report = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "size": size, "passes": len(timed), "attempted": len(commands), "failed": failed,
        "failures": failures, "end_to_end": e2e, "setup_samples_s": setup,
        "pass_metrics": [{k: v[0] for k, v in row.items()} for row in e2e_rows],
        "fingerprints": [p["fingerprint"] for p in clean],
        "machine": {**machine_record(workers), "loadavg_start": load_start,
                    "loadavg_end": os.getloadavg()},
    }
    if trace:
        report["per_layer"] = _median_metrics(layer_rows)
        report["mcmc_proposal_scales"] = [
            [p["totals"].get(f"sampling.mcmc.scale_{k}", 0.0) for k in ("diag", "offdiag")]
            for p in passes if p["traced"]]
    return report


def summary_line(report: dict) -> dict:
    section = report["per_layer"] if report["trace"] else {
        k: report["end_to_end"][k] for k in END_TO_END}
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": section}


def _print_report(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  passes {report['passes']}  "
          f"workers {report['machine']['workers']}  nproc {report['machine']['nproc']}")
    print(f"python {report['machine']['python']}  numpy {report['machine']['numpy']}  "
          f"scipy {report['machine']['scipy']}  blas {report['machine']['blas']}  "
          f"threads {report['machine']['thread_env']}")
    for section in ("end_to_end", "per_layer"):
        for name, m in report.get(section, {}).items():
            print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}")
    for fp in report["fingerprints"][:1]:
        print("fingerprint " + json.dumps(fp, sort_keys=True))
    for failure in report["failures"]:
        print("FAILED " + failure)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                                 f"{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    _print_report(report)
    print(f"record {os.path.relpath(path, ROOT)}")
    print(json.dumps(summary_line(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
